"""Experiment runner: pits the three predictors against the simulated apparatus.

An experiment takes one ensemble and one axis, computes the preparation-aware
prediction and both density-formalism predictions, runs the Monte Carlo
trials, and reports which predictors the data supports. The report is a plain
dict with exactly the schema of ``report.json``, and each of its blocks is
built once: the ``config`` block when :class:`ExperimentConfig` parses the
config, the others in :func:`run_experiment`, from the predicted
``(mean, variance)`` pairs and the per-trial + counts; each report takes its
own copy of the ``config`` block. It is written as canonical JSON (plus a CSV
of per-trial totals), byte-identical for identical configurations, and a
saved report renders to the same text as a fresh one. :func:`demo_paradox`
builds the paradox payload the same way, from the witness operators and the
residuals of (2/3) I over random states.
"""

from __future__ import annotations

import functools
import json
import math
import os
import reprlib
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .density import density_operator, entrywise_difference, moments_tr
from .ensemble import EnsembleSpec, ensemble_from_json, make_ensemble_A, make_ensemble_B
from .montecarlo import MAX_TRIALS, preparation_aware_prediction, run_trials
from .paradox import Operator, annihilation_residual, expectation, fixed_operator_infeasibility, variance_pseudo_operator
from .spin import Axis, ConfigError, SpinOutcome, X, Z, check_int, check_number, check_object, eigenstate

__all__ = [
    "ConfigError",
    "OutputError",
    "ExperimentConfig",
    "run_experiment",
    "demo_paradox",
    "render_report",
    "dump_json",
    "write_output",
]

# A predictor matches when the empirical variance sits within this many
# relative standard errors of its prediction; exact-zero predictions must
# match exactly.
VERDICT_SIGMAS = 5.0

# Rows of totals.csv formatted per block, and the most distinct counts a
# block's presence table may span. At 2**16 rows the many-small benchmark's
# peak RSS rose by 0.9 MB; at 2**13 it fell by 2.6 MB.
_CSV_BLOCK = 1 << 13

# A witness member annihilates its source when its residual is below this.
_ANNIHILATION_TOL = 1e-12

# Largest hbar a config may give; the smallest is 1 / MAX_HBAR. The text
# report prints variance * hbar * hbar / 4, and the variances it prints reach
# about 2 * ensemble.MAX_COUNT**2 = 2**107 (a sample variance of totals in
# [-2**53, 2**53]), so any hbar below sqrt(1.8e308 / 2**107), about 1e138,
# keeps every printed value finite; 1e100 leaves a margin. Below, hbar**2
# stays at least 1e-200, a normal double; a smaller hbar lets it underflow,
# toward 0, and a variance would print as "0 hbar²".
MAX_HBAR = 1e100


class OutputError(OSError):
    """An output path could not be written."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: its ``config`` block, the parsed ensemble and axis, and the output paths.

    ``config`` is the block that ``report.json`` holds under ``config``,
    built once by :meth:`from_json_dict`: the user's raw ensemble form, so
    reports echo the configuration as given, the normalized axis, and the
    checked trials, seed and hbar.
    """

    config: dict
    ensemble: EnsembleSpec
    axis: Axis
    report_path: str | None = None
    totals_path: str | None = None

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExperimentConfig":
        """Parse a config; every error is a :class:`ConfigError` naming the field by its full path.

        ``workers`` must be a positive integer but has no effect, since every
        run draws from one stream on one thread; it is not stored.
        """
        check_object(data, "", ("ensemble", "axis", "trials", "seed"), ("hbar", "outputs", "workers"))
        check_int(data.get("workers", 1), "workers", 1)
        outputs = check_object(data.get("outputs", {}), "outputs", (), ("report", "totals"))
        for key, value in outputs.items():
            if not isinstance(value, str) or "\0" in value:
                problem = f"must be a path string without NUL bytes, got {reprlib.repr(value)}"
                raise ConfigError(problem, f"outputs.{key}")
        if len(outputs) == 2 and os.path.realpath(outputs["report"]) == os.path.realpath(outputs["totals"]):
            raise ConfigError("must name a different file than outputs.report", "outputs.totals")
        ensemble, axis = ensemble_from_json(data["ensemble"]), Axis.from_json(data["axis"])
        config = {
            "ensemble": data["ensemble"],
            "axis": axis.to_json(),
            "trials": check_int(data["trials"], "trials", 2, MAX_TRIALS),
            "seed": check_int(data["seed"], "seed"),
            "hbar": check_number(data.get("hbar", 1.0), "hbar"),
        }
        if not 1 / MAX_HBAR <= config["hbar"] <= MAX_HBAR:
            bound = f"least {1 / MAX_HBAR:g}" if config["hbar"] < 1 else f"most {MAX_HBAR:g}"
            raise ConfigError(f"must be at {bound}", "hbar")
        return cls(config, ensemble, axis, outputs.get("report"), outputs.get("totals"))


def _judge(variance: float, empirical: dict) -> dict:
    """Did the empirical block of a report support a predictor of this variance?"""
    if variance == 0.0:
        return {"matches_empirical": empirical["sample_variance"] == 0.0, "exact_zero_prediction": True, "z_score": None}
    rse = math.sqrt(2.0 / (empirical["trials"] - 1))
    z = (empirical["sample_variance"] - variance) / (variance * rse)
    return {"matches_empirical": abs(z) <= VERDICT_SIGMAS, "exact_zero_prediction": False, "z_score": z}


def _preset_density_check(n: int) -> dict:
    """Entrywise comparison of the density operators of presets A and B."""
    n_even = n + (n % 2)
    rho_a = density_operator(make_ensemble_A(n_even), normalized=True)
    rho_b = density_operator(make_ensemble_B(n_even), normalized=True)
    diff = entrywise_difference(rho_a, rho_b)
    return {"n": n_even, "a_equals_b": diff <= 1e-12, "max_abs_diff": diff}


def dump_json(payload: dict) -> str:
    """Canonical JSON text of a report: sorted keys, two-space indent, final newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_output(path: str, blocks: Iterable[bytes]) -> None:
    """Write ``blocks`` to ``path`` in order, raising :class:`OutputError` on failure."""
    try:
        with open(path, "wb") as fh:
            for block in blocks:
                fh.write(block)
    except OSError as exc:
        raise OutputError(f"cannot write output path {path!r}: {exc}") from exc


@functools.cache
def _low_digits() -> tuple[np.ndarray, np.ndarray]:
    """Each j < 1000 as ASCII in the low three bytes of an int64: zero-padded, and NUL-padded."""
    j = np.arange(1000)
    zero = (j // 100 + 48) << 16 | (j // 10 % 10 + 48) << 8 | j % 10 + 48
    return zero, zero - (j < 100) * 0x300000 - (j < 10) * 0x3000


def _totals_csv(n_plus: np.ndarray, n: int) -> Iterator[bytes]:
    """``totals.csv`` for the + counts ``n_plus`` of ``n`` particles: its header, then its rows in blocks.

    Each block is built from lookups in numpy, so no Python object is built
    per row and memory stays flat in the trial count. A row is an 8-byte
    big-endian field that holds the trial number right-aligned after NUL
    bytes (trial numbers below ``MAX_TRIALS`` fit), then the row's suffix
    ``,{2p-n},{p},{n-p}\\n``, NUL-padded; the CSV holds no NUL, so deleting
    them all leaves the rows. ASCII bytes are below 0x80, so every field is a
    non-negative int64 and numpy 1.24 and 2 cast alike.

    - The suffixes are formatted once per distinct count of the block. When
      the block's counts span at most ``_CSV_BLOCK`` values, a presence
      table indexed by ``count - min`` finds them and its running sum gives
      each row's index, with no sort; otherwise ``np.unique`` does. Each row
      then takes its whole record, suffix and an empty trial field, from the
      table of distinct counts (``take``: indexing a structured array with
      ``[]`` was about 5 times slower).
    - The trial field of trial t is the OR of the digits of ``t // 1000``,
      shifted above the low three bytes and constant over each run of 1000
      trials, and of ``t % 1000`` from a fixed 1000-entry table:
      zero-padded, or NUL-padded when t < 1000. Each table is 8 KB.
    """
    yield b"trial,total_half_quanta,n_plus,n_minus\n"
    zero, nul = _low_digits()
    for lo in range(0, len(n_plus), _CSV_BLOCK):
        block = n_plus[lo : lo + _CSV_BLOCK]
        least = int(block.min())
        key = block - least
        span = int(key.max()) + 1
        if span <= _CSV_BLOCK:
            seen = np.zeros(span, dtype=bool)
            seen[key] = True
            counts, index = np.flatnonzero(seen) + least, (np.cumsum(seen) - 1)[key]
        else:
            counts, index = np.unique(block, return_inverse=True)
        suffix = np.array([f",{2 * p - n},{p},{n - p}\n".encode() for p in counts.tolist()])
        table = np.zeros(len(counts), dtype=[("trial", ">i8"), ("suffix", suffix.dtype)])
        table["suffix"] = suffix
        rows = table.take(index)
        hi = lo + len(block)
        for k in range(lo // 1000, (hi - 1) // 1000 + 1):
            first, stop = max(1000 * k, lo), min(1000 * k + 1000, hi)
            high = int.from_bytes(b"%d" % k, "big") << 24 if k else 0
            rows["trial"][first - lo : stop - lo] = (zero if k else nul)[first - 1000 * k : stop - 1000 * k] | high
        yield rows.tobytes().translate(None, b"\0")


def _exact_sums(d: np.ndarray) -> tuple[int, int]:
    """Sum and sum of squares of the non-negative int64 array ``d``, exactly, as Python ints.

    When ``len(d) * max(d)**2`` fits int64, numpy sums in int64 directly.
    Otherwise Python ints sum ``d.tolist()``. ``MAX_WORDS`` keeps trials
    times random particles below 6 * 10**14, as a word covers at most
    999999 particles, and a + count's variance is at most a quarter of its
    particles, so a run reaches that only with a spread of about 250
    standard deviations or more.
    """
    top = int(d.max())
    if len(d) * top * top < 1 << 63:
        return int(d.sum()), int(d @ d)
    values = d.tolist()
    return sum(values), sum(v * v for v in values)


def _empirical(n_plus: np.ndarray, n: int) -> dict:
    """The ``empirical`` block of the totals ``2 * n_plus - n``: every moment correctly rounded.

    The moments come from the exact integer sums of d = n_plus - min(n_plus),
    which stay small however large the certain part of the total is; the
    totals' variance is 4 times that of n_plus. The mean and variance are the
    exact rationals rounded once, so no sum wraps and no constant cancels:
    Python divides two ints with one correct rounding, as
    ``float(Fraction(a, b))`` does.

    At 10**7 trials of demo B with n = 2 this took 0.07 s, against 0.11 s for
    the float moments of the totals it replaced (2-core x86 box, numpy 2.4).
    """
    trials, least = len(n_plus), int(n_plus.min())
    total, squares = _exact_sums(n_plus - least)
    return {
        "trials": trials,
        "sample_mean": (2 * (least * trials + total) - n * trials) / trials,
        "sample_variance": 4 * (trials * squares - total * total) / (trials * (trials - 1)),
        "min": 2 * least - n,
        "max": 2 * int(n_plus.max()) - n,
    }


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Compute all three predictions, run the trials, judge, write outputs, and return the report.

    The report is the dict that ``report.json`` holds.
    """
    moments = {"preparation_aware": preparation_aware_prediction(cfg.ensemble, cfg.axis)}
    for name, normalized in (("density_normalized", True), ("density_unnormalized", False)):
        moments[name] = moments_tr(density_operator(cfg.ensemble, normalized=normalized), cfg.axis)
    predictions = {
        name: {"mean": m, "variance": v, "sigma": math.sqrt(max(v, 0.0)), "method": name, "units": "half_quanta"}
        for name, (m, v) in moments.items()
    }

    n_plus = run_trials(cfg.ensemble, cfg.axis, cfg.config["trials"], cfg.config["seed"])
    empirical = _empirical(n_plus, cfg.ensemble.total_count)

    report = {
        "config": dict(cfg.config),
        "predictions": predictions,
        "empirical": empirical,
        "verdicts": {name: _judge(p["variance"], empirical) for name, p in predictions.items()},
        "density_check": _preset_density_check(cfg.ensemble.total_count),
        "units": {"hbar": cfg.config["hbar"]},
    }
    if cfg.report_path is not None:
        write_output(cfg.report_path, [dump_json(report).encode()])
    if cfg.totals_path is not None:
        write_output(cfg.totals_path, _totals_csv(n_plus, cfg.ensemble.total_count))
    return report


def _entries(op: Operator) -> tuple[float, float, float, float]:
    """m00, m11 and the real and imaginary parts of m01 of the matrix of a I + b.sigma.

    Adding 0.0 turns -0.0 into 0.0, so no entry prints a signed zero.
    """
    a, (bx, by, bz) = op
    return a + bz + 0.0, a - bz + 0.0, bx + 0.0, -by + 0.0


def _op_json(op: Operator) -> dict:
    m00, m11, re01, im01 = _entries(op)
    return {"m00": m00, "m11": m11, "m01": [re01, im01]}


def demo_paradox(samples: int, seed: int) -> dict:
    """Run both variance-operator witnesses and return the paradox payload.

    The witnesses are the members built from the +x and the +z eigenstate.
    The member built from each x eigenstate annihilates its source, so a fixed
    operator with those eigenstates would be the null operator, yet the member
    built from +z has expectation 1 there. ``annihilates_sx_eigenstates`` says
    whether both x residuals are below ``_ANNIHILATION_TOL``. The residuals of
    (2/3) I over random states are measured first, so bad arguments are
    refused before anything is computed.
    """
    rms, max_res = fixed_operator_infeasibility(samples, seed)
    x_plus = eigenstate(X, SpinOutcome.PLUS)
    z_plus = eigenstate(Z, SpinOutcome.PLUS)
    zero_op, nonzero_op = variance_pseudo_operator(x_plus), variance_pseudo_operator(z_plus)
    x_plus_residual = annihilation_residual(x_plus)
    x_minus_residual = annihilation_residual(eigenstate(X, SpinOutcome.MINUS))
    annihilates = max(x_plus_residual, x_minus_residual) < _ANNIHILATION_TOL
    d00, d11, d_re, d_im = (p - q for p, q in zip(_entries(zero_op), _entries(nonzero_op)))
    member_gap = max(abs(d00), abs(d11), math.hypot(d_re, d_im))
    return {
        "annihilation": {
            "x_plus_residual": x_plus_residual,
            "x_minus_residual": x_minus_residual,
            "operator_from_x_plus": _op_json(zero_op),
            "annihilates_sx_eigenstates": annihilates,
            "expectation_on_source": expectation(zero_op, x_plus),
            "source_state": list(x_plus),
        },
        "nonzero_expectation": {
            "operator_from_z_plus": _op_json(nonzero_op),
            "annihilates_sx_eigenstates": annihilates,
            "expectation_on_source": expectation(nonzero_op, z_plus),
            "source_state": list(z_plus),
        },
        "family_members_max_entry_diff": member_gap,
        "fixed_operator_fit": {
            "samples": samples,
            "seed": seed,
            "rms_residual": rms,
            "max_residual": max_res,
        },
    }


def _physical(mean: float, sigma: float, variance: float, hbar: float) -> tuple[str, str, str]:
    """Half-quantum mean, sigma and variance in physical units, formatted."""
    return (
        f"{mean * hbar / 2.0:.4g}",
        f"{sigma * hbar / 2.0:.4g}",
        f"{variance * hbar * hbar / 4.0:.4g}",
    )


# Each predictor's report key and its label in the text.
_LABELS = {
    "preparation_aware": "preparation-aware",
    "density_normalized": "density normalized",
    "density_unnormalized": "density unnormalized",
}


def render_report(report: dict) -> str:
    """Human-readable text of a report, fresh from :func:`run_experiment` or loaded from ``report.json``.

    Half-quantum values are converted to physical units with the report's
    hbar (mean and sigma scale with hbar/2, variances with hbar^2/4); the
    text states totals as ``mean +/- sigma``.
    """
    hbar = report["units"]["hbar"]
    rows = ["spin totals along the measurement axis (mean ± sigma, hbar units):"]
    for name, label in _LABELS.items():
        pred = report["predictions"][name]
        mean, sigma, var = _physical(pred["mean"], pred["sigma"], pred["variance"], hbar)
        tail = "  [matches empirical]" if report["verdicts"][name]["matches_empirical"] else "  [disagrees]"
        rows.append(f"  {label:<22} {mean} ± {sigma}   (variance {var} hbar²){tail}")
    emp = report["empirical"]
    variance = emp["sample_variance"]
    mean, sigma, var = _physical(emp["sample_mean"], math.sqrt(max(variance, 0.0)), variance, hbar)
    rows.append(
        f"  {'empirical':<22} {mean} ± {sigma}   (variance {var} hbar², {emp['trials']} trials, "
        f"half-quantum totals in [{emp['min']}, {emp['max']}])"
    )
    check = report["density_check"]
    rows.append(
        f"  density matrices of presets A and B (n={check['n']}): "
        f"{'equal' if check['a_equals_b'] else 'DIFFERENT'} (max entry diff {check['max_abs_diff']:.3g})"
    )
    return "\n".join(rows) + "\n"
