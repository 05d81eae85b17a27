#!/usr/bin/env python3
"""Re-run the CI pins that each start one spinstat CLI child: its bytes, its peak memory and its wall time.

    python tools/ci_pins.py [CASE ...]

With no CASE every case runs, one after another; CI runs one case per step.
Each child runs ``python -m spinstat`` in a temporary directory of its own,
with this checkout's ``src/`` first on ``PYTHONPATH``, and is reaped by
``os.wait4``, so the peak RSS printed and bounded is that child's own.
(``RUSAGE_CHILDREN`` keeps the largest peak of all children reaped so far, so
a 265 MB child would mask the next case's 100 MB bound.) Each case prints one
line of figures: the SHA-256 of the file it pins, read in 1 MB chunks, or the
figures it checks, then the child's peak RSS and wall time. The wall time is
printed, not bounded, so each CI job logs the speed on its Python and numpy.
A failed check raises ``AssertionError`` after the line is printed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_child(argv: list[str], cwd: Path) -> tuple[float, float]:
    """Run ``argv`` in ``cwd``, stdout discarded, to a zero exit: ``(wall s, peak RSS MB)`` of that child alone."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    start = time.perf_counter()
    child = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    wall_s = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode:
        raise subprocess.CalledProcessError(child.returncode, argv)
    # ru_maxrss is in KiB on Linux.
    return wall_s, usage.ru_maxrss / 1024


def _spinstat(work: Path, *args: str, config: dict | None = None) -> tuple[float, float]:
    if config is not None:
        (work / "c.json").write_text(json.dumps(config))
    return run_child([sys.executable, "-m", "spinstat", *args], work)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _pinned_totals(work: Path, expected: str, rss_bound: float, *args: str, config: dict | None = None) -> None:
    """Run one child that writes ``t.csv``; pin its bytes and bound the child's peak RSS."""
    wall_s, rss_mb = _spinstat(work, *args, config=config)
    digest = _sha256(work / "t.csv")
    print(f"sha256 {digest}, child peak RSS {rss_mb:.0f} MB, child wall {wall_s:.2f} s")
    assert digest == expected, digest
    assert rss_mb < rss_bound, rss_mb


def totals_at_trial_bound(work: Path) -> None:
    """10**7 trials reach 7-digit trial numbers, past every golden config.

    Pin the file's bytes and bound the run's peak memory, which the blocked
    writer keeps near that of a run without --totals.
    """
    _pinned_totals(
        work, "5039cecee08461f4798c4114057eb91ccdbb0860ab69fdbccfcdb3abf95f4ca0", 400,
        "demo", "--ensemble", "B", "--axis", "x", "--n", "2", "--trials", "10000000", "--seed", "3",
        "--totals", "t.csv",
    )


def word_split(work: Path) -> None:
    """10**12 particles at one p+ along y, past the word split.

    The merged component is cut into 1000002 parts of at most
    MAX_SUPPORT_POINTS - 1 particles, one word each, so 20 trials draw about
    2 * 10**7 words. Each part's CDF is built over its window of about 10**4
    entries; one window over the whole component would hold about 10**7, 80
    MB a copy, and peaked near 300 MB. Bound the child's peak memory.
    """
    wall_s, rss_mb = _spinstat(work, "demo", "--ensemble", "B", "--axis", "y", "--n", "1000000000000", "--trials", "20")
    print(f"child peak RSS {rss_mb:.0f} MB, child wall {wall_s:.2f} s")
    assert rss_mb < 100, rss_mb


def small_pieces(work: Path) -> None:
    """The golden tilted-12 ensemble (5 + 4 + 3 tilted particles, one word a trial) at 10**6 trials.

    Its one 12-entry CDF inverts every word through a table sized to the
    words of one draw. Pin the bytes of totals.csv and bound the run's peak
    memory (51 MB measured on a 2-core x86 box).
    """
    config = {
        "ensemble": {"name": "tilted-12", "components": [
            {"axis": {"theta": 0.9, "phi": 0.3}, "sign": 1, "count": 5},
            {"axis": "y", "sign": -1, "count": 4},
            {"axis": {"theta": 2.0, "phi": 1.3}, "sign": 1, "count": 3},
        ]},
        "axis": {"theta": 0.8, "phi": 0.7}, "trials": 1000000, "seed": 2026,
        "outputs": {"report": "r.json", "totals": "t.csv"},
    }
    _pinned_totals(
        work, "5aa2328ee1e67abc3c6f2178bb5e9e46c5530fbef368fb1dad56efa39e4e82ea", 100,
        "run", "--config", "c.json", config=config,
    )


def many_pieces(work: Path) -> None:
    """512 components of 1024 particles along z, each at its own p+ = 1 - 10**-6 (i + 1).

    That is 512 pieces, each a one-word run, so each run draws its 4096 words
    in one draw and inverts them through its own few-entry CDF and bucket
    table, with one table alive at a time. Pin the bytes of totals.csv and
    bound the run's peak memory (37 MB measured on a 2-core x86 box).
    """
    config = {
        "ensemble": {"name": "near-z-512", "components": [
            {"axis": {"theta": math.acos(1.0 - 2e-6 * (i + 1)), "phi": 0.0}, "sign": 1, "count": 1024}
            for i in range(512)
        ]},
        "axis": "z", "trials": 4096, "seed": 2026,
        "outputs": {"report": "r.json", "totals": "t.csv"},
    }
    _pinned_totals(
        work, "abf619eb0177127942c086386792fe7667f0983889a4db9b7ef0c6424acf8969", 100,
        "run", "--config", "c.json", config=config,
    )


def paradox(work: Path) -> None:
    """10**7 samples, MAX_PARADOX_SAMPLES.

    Bound the run's peak memory, which does not grow with the count since the
    states are drawn and measured a chunk at a time (35 MB measured on a
    2-core x86 box); check the residuals of (2/3) I against their closed
    forms, with a max that never exceeds 2/3, and the witness facts the
    payload reports.
    """
    wall_s, rss_mb = _spinstat(work, "paradox", "--samples", "10000000", "--seed", "0", "--out", "p.json")
    payload = json.loads((work / "p.json").read_text())
    fit, null, nonzero = payload["fixed_operator_fit"], payload["annihilation"], payload["nonzero_expectation"]
    print(f"rms {fit['rms_residual']}, max {fit['max_residual']}, child peak RSS {rss_mb:.0f} MB, "
          f"child wall {wall_s:.2f} s")
    assert rss_mb < 100, rss_mb
    assert abs(fit["rms_residual"] - math.sqrt(4 / 45)) <= 1e-3, fit
    assert abs(fit["max_residual"] - 2 / 3) <= 1e-2, fit
    assert fit["max_residual"] <= 2 / 3, fit
    assert max(null["x_plus_residual"], null["x_minus_residual"]) < 1e-12, null
    assert null["annihilates_sx_eigenstates"] is True and nonzero["annihilates_sx_eigenstates"] is True
    assert abs(nonzero["expectation_on_source"] - 1.0) <= 1e-12, nonzero
    assert payload["family_members_max_entry_diff"] == 2.0, payload


CASES = {
    "totals-at-trial-bound": totals_at_trial_bound,
    "word-split": word_split,
    "small-pieces": small_pieces,
    "many-pieces": many_pieces,
    "paradox": paradox,
}


def main(argv: list[str]) -> int:
    names = argv[1:] or list(CASES)
    unknown = [name for name in names if name not in CASES]
    if unknown:
        print(f"unknown cases {unknown}; the cases are {list(CASES)}", file=sys.stderr)
        return 2
    for name in names:
        print(f"{name}:", flush=True)
        with tempfile.TemporaryDirectory() as work:
            CASES[name](Path(work))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
