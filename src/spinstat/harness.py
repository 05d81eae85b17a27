"""Experiment runner: pits the three predictors against the simulated apparatus.

An experiment takes one ensemble and one axis, computes the preparation-aware
prediction and both density-formalism predictions, runs the Monte Carlo
trials, and reports which predictors the data supports. The report is a plain
dict with exactly the schema of ``report.json``, and each of its blocks is
built once, in :func:`run_experiment`, from the predicted ``(mean, variance)``
pairs and the per-trial + counts. It is written as canonical JSON (plus a CSV
of per-trial totals), byte-identical for identical configurations, and a
saved report renders to the same text as a fresh one. :func:`demo_paradox`
builds the paradox payload the same way, from the witness operators and the
fit residuals.
"""

from __future__ import annotations

import json
import math
import os
import reprlib
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import Any

import numpy as np

from .density import density_equal, density_operator, entrywise_difference, expectation_tr, variance_tr
from .ensemble import EnsembleSpec, ensemble_from_json, make_ensemble_A, make_ensemble_B
from .montecarlo import preparation_aware_prediction, run_trials
from .paradox import (
    Operator,
    annihilation_residual,
    expectation,
    fixed_operator_infeasibility,
    null_operator_contradiction,
)
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

# Most trials one experiment may request, checked before any work starts:
# the run holds a few arrays of 8 bytes per trial, and totals.csv is written
# in blocks of _CSV_BLOCK rows. At 10**7 trials of demo B along x with n = 2,
# the run took 1.0 s and 264 MB peak RSS, and 2.2 s and 265 MB with --totals
# (a 141 MB file; 2-core x86 box, numpy 2.4).
MAX_TRIALS = 10**7

# Rows of totals.csv formatted per block. At 2**16 rows the many-small
# benchmark's peak RSS rose by 0.9 MB; at 2**13 it fell by 2.6 MB.
_CSV_BLOCK = 1 << 13

# Most random states `paradox` may fit, checked before any work starts. The
# fit's peak memory grows by about 46 bytes per sample: 81 MB at 10**6 and
# 493 MB at 10**7, measured as the CLI's peak RSS.
MAX_PARADOX_SAMPLES = 10**7


class OutputError(OSError):
    """An output path could not be written."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: an ensemble, an axis, and the sampling parameters.

    ``ensemble_json`` keeps the user's raw ensemble form so reports echo the
    configuration as given.
    """

    ensemble: EnsembleSpec
    ensemble_json: Any
    axis: Axis
    trials: int
    seed: int
    hbar: float = 1.0
    report_path: str | None = None
    totals_path: str | None = None

    def __post_init__(self) -> None:
        check_int(self.trials, "trials", 2, MAX_TRIALS)
        check_int(self.seed, "seed")
        hbar = check_number(self.hbar, "hbar")
        if hbar <= 0:
            raise ConfigError("must be positive", "hbar")
        object.__setattr__(self, "hbar", hbar)

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
        return cls(
            ensemble=ensemble_from_json(data["ensemble"]),
            ensemble_json=data["ensemble"],
            axis=Axis.from_json(data["axis"]),
            trials=data["trials"],
            seed=data["seed"],
            hbar=data.get("hbar", 1.0),
            report_path=outputs.get("report"),
            totals_path=outputs.get("totals"),
        )

    def echo_json(self) -> dict:
        """Experiment-defining fields only, for embedding in reports."""
        return {
            "ensemble": self.ensemble_json,
            "axis": self.axis.to_json(),
            "trials": self.trials,
            "seed": self.seed,
            "hbar": self.hbar,
        }


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
    return {
        "n": n_even,
        "a_equals_b": density_equal(rho_a, rho_b, 1e-12),
        "max_abs_diff": entrywise_difference(rho_a, rho_b),
    }


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


def _totals_csv(n_plus: np.ndarray, n: int) -> Iterator[bytes]:
    """``totals.csv`` for the + counts ``n_plus`` of ``n`` particles: its header, then its rows in blocks.

    Each block is formatted in numpy, so no Python object is built per row
    and memory stays flat in the trial count. A row is an 8-byte field that
    holds the trial number right-aligned after NUL bytes (trial numbers
    below ``MAX_TRIALS`` fit), then the row's suffix
    ``,{2p-n},{p},{n-p}\\n`` from a NUL-padded table of the block's distinct
    counts; the CSV holds no NUL, so deleting them all leaves the rows. Every
    scalar is a ``np.uint64``, so numpy 1.24 and 2 cast alike.
    """
    yield b"trial,total_half_quanta,n_plus,n_minus\n"
    nul, ten, digit0, byte = np.uint64(0), np.uint64(10), np.uint64(ord("0")), np.uint64(8)
    for lo in range(0, len(n_plus), _CSV_BLOCK):
        block = n_plus[lo : lo + _CSV_BLOCK]
        counts = np.sort(block)
        counts = counts[np.concatenate(([True], counts[1:] != counts[:-1]))]
        suffix = np.array([f",{2 * p - n},{p},{n - p}\n".encode() for p in counts.tolist()])
        # Digit k of trial t is t // 10**k - 10 * (t // 10**(k+1)), NUL where
        # 10**k > t: numpy's `//` by a scalar is several times faster than `%`.
        trial = np.arange(lo, lo + len(block), dtype=np.uint64)
        rest = trial // ten
        field, shift = trial - rest * ten + digit0, nul
        for _ in range(1, len(str(lo + len(block) - 1))):
            trial, rest = rest, rest // ten
            shift += byte
            field |= np.where(trial > nul, (trial - rest * ten + digit0) << shift, nul)
        rows = np.empty(len(block), dtype=[("trial", ">u8"), ("suffix", suffix.dtype)])
        rows["trial"] = field
        rows["suffix"] = suffix[np.searchsorted(counts, block)]
        yield rows.tobytes().translate(None, b"\0")


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Compute all three predictions, run the trials, judge, write outputs, and return the report.

    The report is the dict that ``report.json`` holds.
    """
    moments = {"preparation_aware": preparation_aware_prediction(cfg.ensemble, cfg.axis)}
    for name, normalized in (("density_normalized", True), ("density_unnormalized", False)):
        rho = density_operator(cfg.ensemble, normalized=normalized)
        moments[name] = expectation_tr(rho, cfg.axis), variance_tr(rho, cfg.axis)
    predictions = {
        name: {"mean": m, "variance": v, "sigma": math.sqrt(max(v, 0.0)), "method": name, "units": "half_quanta"}
        for name, (m, v) in moments.items()
    }

    n_plus = run_trials(cfg.ensemble, cfg.axis, cfg.trials, cfg.seed)
    totals = 2 * n_plus - cfg.ensemble.total_count
    empirical = {
        "trials": cfg.trials,
        "sample_mean": float(int(totals.sum()) / cfg.trials),
        "sample_variance": float(totals.var(ddof=1)),
        "min": int(totals.min()),
        "max": int(totals.max()),
    }

    report = {
        "config": cfg.echo_json(),
        "predictions": predictions,
        "empirical": empirical,
        "verdicts": {name: _judge(p["variance"], empirical) for name, p in predictions.items()},
        "density_check": _preset_density_check(cfg.ensemble.total_count),
        "units": {"hbar": cfg.hbar},
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

    ``annihilates_sx_eigenstates`` is true in both witness blocks because
    :func:`null_operator_contradiction` raises unless each x eigenstate is
    annihilated by the member built from it.
    """
    zero_op, nonzero_op = null_operator_contradiction()
    rms, max_res = fixed_operator_infeasibility(samples, seed)
    x_plus = eigenstate(X, SpinOutcome.PLUS)
    x_minus = eigenstate(X, SpinOutcome.MINUS)
    z_plus = eigenstate(Z, SpinOutcome.PLUS)
    d00, d11, d_re, d_im = (p - q for p, q in zip(_entries(zero_op), _entries(nonzero_op)))
    member_gap = max(abs(d00), abs(d11), math.hypot(d_re, d_im))
    return {
        "annihilation": {
            "x_plus_residual": annihilation_residual(x_plus),
            "x_minus_residual": annihilation_residual(x_minus),
            "operator_from_x_plus": _op_json(zero_op),
            "annihilates_sx_eigenstates": True,
            "expectation_on_source": expectation(zero_op, x_plus),
            "source_state": list(x_plus),
        },
        "nonzero_expectation": {
            "operator_from_z_plus": _op_json(nonzero_op),
            "annihilates_sx_eigenstates": True,
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
