"""Golden output hashes: the exact bytes of report.json, totals.csv and the paradox JSON are pinned.

Every config below was run once and the SHA-256 of both files recorded. Any
change to the sampler, the statistics, the verdicts or the serialization
that alters a single output byte fails here, at one worker and at two.
"""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import reference_counts
from spinstat import cli, montecarlo
from spinstat.ensemble import ensemble_from_json
from spinstat.harness import ExperimentConfig, demo_paradox, dump_json, run_experiment
from spinstat.spin import Axis

TILTED_12 = {
    "name": "tilted-12",
    "components": [
        {"axis": {"theta": 0.9, "phi": 0.3}, "sign": 1, "count": 5},
        {"axis": "y", "sign": -1, "count": 4},
        {"axis": {"theta": 2.0, "phi": 1.3}, "sign": 1, "count": 3},
    ],
}

# Three tilted components, 75000 particles, each above PIECE: one word per
# component, each inverting the CDF of its binomial's window. Each word is a
# run of its own, so the first component's 16 words come first in the
# stream, then the second's, then the third's.
TILTED_75K = {
    "name": "tilted-75k",
    "components": [
        {"axis": {"theta": 0.4, "phi": 2.2}, "sign": 1, "count": 30_000},
        {"axis": "x", "sign": -1, "count": 25_000},
        {"axis": {"theta": 2.5, "phi": 0.9}, "sign": -1, "count": 20_000},
    ],
}


def _configs():
    configs = {}
    for preset in ("A", "B"):
        for axis in ("x", "y", "z"):
            configs[f"{preset}-{axis}-n40"] = ({"preset": preset, "n": 40}, axis, 2000, 11)
            configs[f"{preset}-{axis}-n1000"] = ({"preset": preset, "n": 1000}, axis, 500, 11)
    configs["tilted-12"] = (TILTED_12, {"theta": 0.8, "phi": 0.7}, 50_000, 2026)
    configs["tilted-75k"] = (TILTED_75K, {"theta": 1.1, "phi": 0.4}, 16, 2**64 - 3)
    return configs


CONFIGS = _configs()

# name -> (sha256 of report.json, sha256 of totals.csv)
GOLDEN = {
    "A-x-n1000": (
        "e071bbcde24529e6723415da008e96cf950ca6a26e80a008cd8a2077ec888435",
        "e4805400006f7b477c127ef50b73de69229e4d711bc55c0bbfcfd004ac6f9f54",
    ),
    "A-x-n40": (
        "6457a08447519c482c7b3ed6dfa210deeaf7f631948ffd7c6220b4d4efca236a",
        "ffe8148497afb0d30f3d2f5d61d7eaff8e8d158a743bc4264190e4f59fa84a86",
    ),
    "A-y-n1000": (
        "52c8f45c73aa0f637f9337aa0363642d5b75f6bed96ac9d518ad723cf56ecd2b",
        "3357ca11ff409e3e248b80618e8f4e7df2dc4e96f38868a13ff1a82ed31d2955",
    ),
    "A-y-n40": (
        "409eeece2da9a618234afad29e37a07342c5938c257d58797ac5bfdb589a1d18",
        "a0b3b87b6ecd73ab1d5ff1ccfd348d422f6852eaa38eaa833a39d619683cbe6c",
    ),
    "A-z-n1000": (
        "c6dab66b450bf9ede2b4b64006b4eddf00bc1fa4acec143f3b2f95231b1e4c79",
        "3357ca11ff409e3e248b80618e8f4e7df2dc4e96f38868a13ff1a82ed31d2955",
    ),
    "A-z-n40": (
        "5836426ce013f81080c41b080dbe3b03e5cdaf0af6227fcee13d5f20a8a9114a",
        "a0b3b87b6ecd73ab1d5ff1ccfd348d422f6852eaa38eaa833a39d619683cbe6c",
    ),
    "B-x-n1000": (
        "20cc44341786b61e4f3f11782c154e360c863262a715032428225d8efe48ae92",
        "3357ca11ff409e3e248b80618e8f4e7df2dc4e96f38868a13ff1a82ed31d2955",
    ),
    "B-x-n40": (
        "678226c289086466fdaa8b1296b7c1852e23f3241f28f48b675edb5e486e2ede",
        "a0b3b87b6ecd73ab1d5ff1ccfd348d422f6852eaa38eaa833a39d619683cbe6c",
    ),
    "B-y-n1000": (
        "3966a1566d7c321a6e6e9db6b40014731126b142d24df0a10c0c30f85bf2b9fe",
        "3357ca11ff409e3e248b80618e8f4e7df2dc4e96f38868a13ff1a82ed31d2955",
    ),
    "B-y-n40": (
        "fdb4c725df4ac7cdb17b41d4b9b9d51a2300d97e3d655ae24a89a138aa240539",
        "a0b3b87b6ecd73ab1d5ff1ccfd348d422f6852eaa38eaa833a39d619683cbe6c",
    ),
    "B-z-n1000": (
        "a385a612dfe953580207fcb212c851315f057651a6cffafe37e8b8069b7d42de",
        "e4805400006f7b477c127ef50b73de69229e4d711bc55c0bbfcfd004ac6f9f54",
    ),
    "B-z-n40": (
        "4cad552caffb508eb054b9e4c20189d7336c3b9e572c91792ed4a659e806d04d",
        "ffe8148497afb0d30f3d2f5d61d7eaff8e8d158a743bc4264190e4f59fa84a86",
    ),
    "tilted-12": (
        "05bb182abb983a6ff5a1d9849d02469592b83c9a2b5685d7bec74bd6a8449df3",
        "33fb2fd773ee40f2d8fa2131a670f6f86c3b482e6dd29f844b4a3b3f0c79edf4",
    ),
    "tilted-75k": (
        "169194ae43b8d2570813381809e078d1c3afb64cef2a4eb94a8b15c7008605f3",
        "2f2af88c0cd01de408f6e6f6e95045f19fe094b23cfd4544e61e5658d47707cc",
    ),
}


def golden_config(name, **extra):
    ensemble, axis, trials, seed = CONFIGS[name]
    return ExperimentConfig.from_json_dict({"ensemble": ensemble, "axis": axis, "trials": trials, "seed": seed, **extra})


def run_hashes(tmp_path, name, workers):
    report, totals = tmp_path / "report.json", tmp_path / "totals.csv"
    run_experiment(golden_config(name, workers=workers, outputs={"report": str(report), "totals": str(totals)}))
    return tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (report, totals))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_output_bytes_are_pinned(tmp_path, name, workers):
    assert run_hashes(tmp_path, name, workers) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_counts_follow_the_philox_spec(name):
    """Every golden config's + counts are those of the plain reference sampler fed the spec's Philox stream.

    So the pinned bytes rest on the published Philox4x64-10 algorithm, not on
    numpy's ``Generator`` alone.
    """
    cfg = golden_config(name)
    trials, seed = cfg.config["trials"], cfg.config["seed"]
    counts = montecarlo.run_trials(cfg.ensemble, cfg.axis, trials, seed)
    assert counts.tolist() == reference_counts(cfg.ensemble, cfg.axis, seed, trials, montecarlo.PIECE)


def _layout_digests(cases):
    """SHA-256 of the CDF and offset of every run that ``_pieces`` lays out, one per ``(probs, trials)`` case."""
    digests = []
    for probs, trials in cases:
        digest = hashlib.sha256()
        for _, parts in montecarlo._pieces(probs, trials)[1]:
            cdf, offset = montecarlo._word_cdf(parts)
            digest.update(cdf.tobytes() + str(offset).encode())
        digests.append(digest.hexdigest())
    return digests


def _exact_distributions(cases):
    """``exact_total_distribution`` of each ``(ensemble JSON, axis JSON)`` case."""
    return [montecarlo.exact_total_distribution(ensemble_from_json(e), Axis.from_json(axis)) for e, axis in cases]


def _exact_digests(cases):
    """SHA-256 of ``exact_total_distribution``'s probabilities, one per ``(ensemble JSON, axis JSON)`` case."""
    return [hashlib.sha256(dist.probabilities.tobytes()).hexdigest() for dist in _exact_distributions(cases)]


def _exact_moments(cases):
    """``mean()`` and ``variance()`` of ``exact_total_distribution`` in hex, one pair per case."""
    return [[dist.mean().hex(), dist.variance().hex()] for dist in _exact_distributions(cases)]


def _paradox_digests(cases):
    """SHA-256 of what ``spinstat paradox`` prints, one per ``(samples, seed)`` case."""
    return [hashlib.sha256(dump_json(demo_paradox(samples, seed)).encode()).hexdigest() for samples, seed in cases]


def _core_and_digests(digests, cases, coretype=None):
    """The OpenBLAS core a child interpreter loads, or None, and what the test_golden function ``digests`` gives."""
    env = dict(os.environ, OPENBLAS_VERBOSE="2")
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
    src, tests = Path(montecarlo.__file__).resolve().parents[1], Path(__file__).resolve().parent
    env["PYTHONPATH"] = f"{src}{os.pathsep}{tests}"
    script = (
        f"import json, sys\nfrom test_golden import {digests}\n"
        f"print(json.dumps({digests}(json.load(sys.stdin))))"
    )
    child = subprocess.run(
        [sys.executable, "-c", script], input=json.dumps(cases), env=env, capture_output=True, text=True, check=True
    )
    core = re.search(r"^Core: (\S+)", child.stderr, re.MULTILINE)
    return core and core.group(1), json.loads(child.stdout)


def _check_forced_kernels(digests, cases):
    """Child interpreters under forced Haswell and Prescott kernels give what ``digests`` gives here, or skip.

    ``OPENBLAS_VERBOSE=2`` makes OpenBLAS print the core it loaded; without
    that line, or when no forced kernel differs from the default one,
    nothing would be tested, and the caller skips.
    """
    default, _ = _core_and_digests(digests, [])
    if default is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS that reports its core, so no kernel can be forced")
    expected, cores = globals()[digests](cases), set()
    for coretype in ("Haswell", "Prescott"):
        core, got = _core_and_digests(digests, cases, coretype)
        assert got == expected, (coretype, core)
        cores.add(core)
    if not cores - {None, default}:
        pytest.skip(f"no forced kernel differs from the default {default} core")


def test_sampler_cdfs_do_not_depend_on_the_blas_kernel():
    """Under forced Haswell and Prescott OpenBLAS kernels, every golden config's CDFs keep their bytes.

    Child interpreters hash the CDF of every run of each golden config's
    layout, under ``OPENBLAS_CORETYPE``, and must match this process. The
    kernels sum dot products in their own orders, so a CDF built through
    BLAS moves in its last bits. It skips as :func:`_check_forced_kernels`
    says.
    """
    cases = []
    for name in sorted(CONFIGS):
        cfg = golden_config(name)
        cases.append((montecarlo._component_probabilities(cfg.ensemble, cfg.axis), cfg.config["trials"]))
    _check_forced_kernels("_layout_digests", cases)


# Preset B with n = 1000 along x, two components of 500, and 400 + 300 + 324
# tilted particles that fill one piece: every exact-PMF window is at most
# PIECE + 1 entries long.
SHORT_WINDOW_CASES = [
    ({"preset": "B", "n": 1000}, "x"),
    ({"components": [
        {"axis": {"theta": 0.4 + 0.7 * i, "phi": 1.3 * i}, "sign": 1 - 2 * (i % 2), "count": count}
        for i, count in enumerate((400, 300, montecarlo.PIECE - 700))
    ]}, {"theta": 2.0, "phi": 1.0}),
]


def test_short_exact_pmf_windows_do_not_depend_on_the_blas_kernel():
    """Under forced Haswell and Prescott OpenBLAS kernels, exact PMFs built from short windows keep their bytes.

    Child interpreters hash ``exact_total_distribution`` of preset B with
    n = 1000 along x, two components of 500, and of 400 + 300 + 324 tilted
    particles that fill one piece, and must match this process. Every
    window there is at most ``PIECE`` + 1 entries long, so each step is a
    ``_mix``. It skips where its sibling for the sampler CDFs does.
    """
    _check_forced_kernels("_exact_digests", SHORT_WINDOW_CASES)


def test_exact_pmf_moments_do_not_depend_on_the_blas_kernel():
    """Under forced Haswell and Prescott OpenBLAS kernels, the moments of the short-window exact PMFs keep their bits.

    The cases are those of the digest test above, whose PMFs keep their
    bytes on every kernel. ``mean`` and ``variance`` sum rounded products
    with ``math.fsum``; a BLAS dot sums them in the kernel's own order, and
    preset B's mean then read -2.91e-16, -2.53e-16 and -5.68e-16 under the
    default, Haswell and Prescott kernels. It skips where its sibling for
    the sampler CDFs does.
    """
    _check_forced_kernels("_exact_moments", SHORT_WINDOW_CASES)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_sampler_reaches_no_convolution(monkeypatch, name):
    """``run_trials`` builds every golden config's CDFs without ``np.convolve``, the exact-PMF builders or ``fsum``."""
    def refuse(*args, **kwargs):
        raise AssertionError("the sampler reached a convolution or a correctly rounded sum")

    for module, attribute in ((np, "convolve"), (montecarlo, "_group_pmf"), (montecarlo, "_binomial_count_pmf"),
                              (math, "fsum")):
        monkeypatch.setattr(module, attribute, refuse)
    cfg = golden_config(name)
    montecarlo.run_trials(cfg.ensemble, cfg.axis, cfg.config["trials"], cfg.config["seed"])


def test_few_small_piece_words_take_the_search(monkeypatch):
    """At most 1% of the golden tilted-12 config's words miss its bucket table and take the binary search.

    Its one piece of 12 particles inverts a 12-entry CDF once a trial, 50000
    words, 16384 of them in each full draw, so its table holds 16384
    buckets and sends 31 of the words to the search. One of 4096 buckets
    sent 113, and one of 4-8 buckets per entry 5474.
    """
    searched, search = [], np.searchsorted

    def counting(cdf, words, *args, **kwargs):
        searched.append(np.size(words))
        return search(cdf, words, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", counting)
    cfg = golden_config("tilted-12")
    trials = cfg.config["trials"]
    montecarlo.run_trials(cfg.ensemble, cfg.axis, trials, cfg.config["seed"])
    assert searched and sum(searched) <= trials // 100, sum(searched)


# SHA-256 of what `spinstat paradox --samples 1000 --seed 0` prints.
PARADOX_GOLDEN = "dbb066b3220a94db51d3285eecb350bcf3e9c0edfc8301d32c8508196ea05434"
PARADOX_CASES = {
    1000: PARADOX_GOLDEN,
    # Two and three chunks of paradox._CHUNK states plus 5: the chunk sums and the short last chunk.
    16389: "93ddef37dc9f5abcdfda019fb374e5a9a64b31e2ce99580ade67252c68a5b5ae",
    24581: "9d60833172259a9d25b6331e1d28227f8375f00849ef4797e404a388a67b5853",
    # Three whole chunks, no short one; and the benchmark's sample count.
    24576: "88d308e95895fdbda5c21968cfea5a70c2fa444709e25368511f821717466f06",
    10**6: "04018f3e094685e6aead88d9b3c05aa51bb79ebcde8d06fc497851ce5c24f268",
}


@pytest.mark.parametrize("samples, digest", PARADOX_CASES.items(), ids=[str(samples) for samples in PARADOX_CASES])
def test_paradox_json_is_pinned(capsys, samples, digest):
    assert cli.main(["paradox", "--samples", str(samples), "--seed", "0"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest


def test_paradox_json_does_not_depend_on_the_blas_kernel():
    """Under forced Haswell and Prescott OpenBLAS kernels, the paradox JSON keeps its bytes.

    Child interpreters hash what ``spinstat paradox`` prints for every pinned
    case, at seed 0, and for 10**6 samples at seed 5, and must match this
    process. It skips where its sibling for the sampler CDFs does.
    """
    cases = [(samples, 0) for samples in PARADOX_CASES] + [(10**6, 5)]
    _check_forced_kernels("_paradox_digests", cases)
