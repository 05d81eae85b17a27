"""Experiment runner: pits the three predictors against the simulated apparatus.

An experiment takes one ensemble and one axis, computes the preparation-aware
prediction and both density-formalism predictions, runs the Monte Carlo
trials, and reports which predictors the data supports. The report is a plain
dict with exactly the schema of ``report.json``: it is written as canonical
JSON (plus a CSV of per-trial totals), byte-identical for identical
configurations, and a saved report renders to the same text as a fresh one.
"""

from __future__ import annotations

import json
import math
import os
import reprlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .density import density_equal, density_operator, entrywise_difference, expectation_tr, variance_tr
from .ensemble import EnsembleSpec, ensemble_from_json, make_ensemble_A, make_ensemble_B
from .montecarlo import (
    PredictionReport,
    TrialStatistics,
    preparation_aware_prediction,
    run_trials,
)
from .paradox import (
    Operator,
    annihilation_residual,
    fixed_operator_infeasibility,
    null_operator_contradiction,
)
from .spin import Axis, ConfigError, SpinOutcome, X, check_int, check_number, check_object, eigenstate

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
# the per-trial counts take 8 bytes each, and building totals.csv holds one
# Python string per trial.
MAX_TRIALS = 10**7

# Most random states `paradox` may fit, checked before any work starts. The
# fit's peak memory grows by about 120 bytes per sample: 167 MB at 10**6 and
# 1.26 GB at 10**7, measured as the CLI's peak RSS.
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


def _judge(variance: float, empirical: TrialStatistics) -> dict:
    """Did the empirical variance support a predictor of this variance?"""
    if variance == 0.0:
        return {"matches_empirical": empirical.sample_variance == 0.0, "exact_zero_prediction": True, "z_score": None}
    rse = math.sqrt(2.0 / (empirical.trials - 1))
    z = (empirical.sample_variance - variance) / (variance * rse)
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


def write_output(path: str, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, raising :class:`OutputError` on failure."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise OutputError(f"cannot write output path {path!r}: {exc}") from exc


def _totals_csv(n_plus: list[int], n: int) -> str:
    # One suffix per distinct count: at most min(trials, n + 1) strings.
    suffix = {plus: f",{2 * plus - n},{plus},{n - plus}\n" for plus in set(n_plus)}
    rows = map(str.__add__, map(str, range(len(n_plus))), map(suffix.__getitem__, n_plus))
    return "trial,total_half_quanta,n_plus,n_minus\n" + "".join(rows)


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Compute all three predictions, run the trials, judge, write outputs, and return the report.

    The report is the dict that ``report.json`` holds.
    """
    predictions = {"preparation_aware": preparation_aware_prediction(cfg.ensemble, cfg.axis).to_json_dict()}
    for name, normalized in (("density_normalized", True), ("density_unnormalized", False)):
        rho = density_operator(cfg.ensemble, normalized=normalized)
        prediction = PredictionReport(expectation_tr(rho, cfg.axis), variance_tr(rho, cfg.axis), name)
        predictions[name] = prediction.to_json_dict()

    empirical, n_plus = run_trials(cfg.ensemble, cfg.axis, cfg.trials, cfg.seed, keep_counts=True)

    report = {
        "config": cfg.echo_json(),
        "predictions": predictions,
        "empirical": empirical.to_json_dict(),
        "verdicts": {name: _judge(p["variance"], empirical) for name, p in predictions.items()},
        "density_check": _preset_density_check(cfg.ensemble.total_count),
        "units": {"hbar": cfg.hbar},
    }
    if cfg.report_path is not None:
        write_output(cfg.report_path, dump_json(report))
    if cfg.totals_path is not None:
        write_output(cfg.totals_path, _totals_csv(n_plus.tolist(), cfg.ensemble.total_count))
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


def demo_paradox(samples: int = 100_000, seed: int = 0) -> dict:
    """Run both variance-operator witnesses and return a serializable payload."""
    zero_report, nonzero_report = null_operator_contradiction()
    rms, max_res = fixed_operator_infeasibility(samples, seed)
    x_plus = eigenstate(X, SpinOutcome.PLUS)
    x_minus = eigenstate(X, SpinOutcome.MINUS)
    d00, d11, d_re, d_im = (
        p - q for p, q in zip(_entries(zero_report.operator), _entries(nonzero_report.operator))
    )
    member_gap = max(abs(d00), abs(d11), math.hypot(d_re, d_im))
    return {
        "annihilation": {
            "x_plus_residual": annihilation_residual(x_plus),
            "x_minus_residual": annihilation_residual(x_minus),
            "operator_from_x_plus": _op_json(zero_report.operator),
            "annihilates_sx_eigenstates": zero_report.annihilates_sx_eigenstates,
            "expectation_on_source": zero_report.expectation_on_source,
            "source_state": list(zero_report.source_state),
        },
        "nonzero_expectation": {
            "operator_from_z_plus": _op_json(nonzero_report.operator),
            "annihilates_sx_eigenstates": nonzero_report.annihilates_sx_eigenstates,
            "expectation_on_source": nonzero_report.expectation_on_source,
            "source_state": list(nonzero_report.source_state),
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
