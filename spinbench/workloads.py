"""The benchmark's workloads: inputs made from a seed, operations, and checks.

Each operation is one in-process call of ``spinstat.cli.main([...])`` or of
``exact_total_distribution``. The callables look spinstat's names up at call
time, so a traced round sees the wrappers that :mod:`tracing` installs. Checks
compare every result with :mod:`oracle`, never with spinstat's own code.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import oracle

# The verdict pattern the paper predicts: A's certain outcomes refute both
# trace predictors; B's binomial spread matches the unnormalized one; a
# tilted ensemble is matched only by its preparation record.
VERDICTS_A = {"preparation_aware": True, "density_normalized": False, "density_unnormalized": False}
VERDICTS_B = {"preparation_aware": True, "density_normalized": False, "density_unnormalized": True}
VERDICTS_TILTED = VERDICTS_A

# spinstat's verdict rule: |z| <= 5 with the normal-theory relative standard
# error sqrt(2 / (T - 1)). Generated tilted ensembles keep the density
# predictors at least twice that far away, so their rejection is certain.
PROGRAM_SIGMAS = 5.0
# Bound on the oracle's z-scores of the sample mean and variance; a true
# model exceeds it with probability about 2e-9 per check.
ORACLE_SIGMAS = 6.0


class OperationFailed(RuntimeError):
    """The call under test exited non-zero."""


@dataclass
class Op:
    """One timed call plus what is needed to check it.

    ``call`` returns whatever ``check`` needs besides the output files.
    ``other_workers`` is the same call at the other worker count, for the
    determinism check.
    """

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], list[str]]
    outputs: tuple[Path, ...]
    other_workers: Callable[[], Any] | None = None


def _cli(spinstat, argv: list[str]) -> Callable[[], None]:
    def call() -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = spinstat.cli.main(argv)
        if code != 0:
            raise OperationFailed(f"spinstat {' '.join(argv)} exited {code}")

    return call


def _close(got: float, want: float, scale: float, rel: float = 1e-9) -> bool:
    return abs(got - want) <= rel * scale


def _scan_totals(path: Path, n: int) -> tuple[list[str], int, int, int, int | None, int | None]:
    """Stream ``totals.csv``: row problems, row count, sum, sum of squares, min, max."""
    problems: list[str] = []
    rows = s1 = s2 = 0
    lo = hi = None
    with open(path, encoding="utf-8") as fh:
        if fh.readline() != "trial,total_half_quanta,n_plus,n_minus\n":
            problems.append(f"{path.name}: unexpected header")
        for line in fh:
            trial, total, plus, minus = (int(v) for v in line.split(","))
            if (trial != rows or plus < 0 or minus < 0 or plus + minus != n
                    or total != plus - minus):
                if len(problems) < 3:
                    problems.append(f"{path.name}: inconsistent row {line.strip()!r}")
            rows += 1
            s1 += total
            s2 += total * total
            lo = total if lo is None else min(lo, total)
            hi = total if hi is None else max(hi, total)
    return problems, rows, s1, s2, lo, hi


def check_experiment(echo: dict, report: Path, totals: Path, verdicts: dict[str, bool]) -> list[str]:
    """Check one run/demo operation's report and totals against the oracle."""
    with open(report, encoding="utf-8") as fh:
        rep = json.load(fh)
    problems = []
    if rep["config"] != echo:
        problems.append(f"config echo {rep['config']!r} != {echo!r}")
    components = oracle.components_from_json(echo["ensemble"])
    axis = oracle.axis_vector(echo["axis"])
    n = sum(count for _, count in components)
    trials = echo["trials"]

    for name, (mean, var) in oracle.predictions(components, axis).items():
        got = rep["predictions"][name]
        scale = 1.0 + n + mean * mean
        if not (_close(got["mean"], mean, scale) and _close(got["variance"], var, scale)):
            problems.append(f"{name} prediction {got['mean']}, {got['variance']} != oracle {mean}, {var}")

    row_problems, rows, s1, s2, lo, hi = _scan_totals(totals, n)
    problems += row_problems
    emp = rep["empirical"]
    sample_var = float(Fraction(trials * s2 - s1 * s1, trials * (trials - 1))) if rows == trials else math.nan
    if rows != trials or emp["trials"] != trials:
        problems.append(f"{rows} rows and {emp['trials']} trials reported, {trials} asked")
    elif (emp["sample_mean"] != s1 / trials or emp["min"] != lo or emp["max"] != hi
          or not _close(emp["sample_variance"], sample_var, 1.0 + sample_var)):
        problems.append(f"empirical block {emp!r} disagrees with {totals.name}")

    k1, k2, _, k4 = oracle.cumulants(components, axis)
    if k2 == 0.0:
        if not (lo == hi == round(k1)):
            problems.append(f"certain total {k1} but totals span [{lo}, {hi}]")
    elif rows == trials:
        z_mean = (s1 / trials - k1) / oracle.sample_mean_se(k2, trials)
        z_var = (sample_var - k2) / oracle.sample_variance_se(k2, k4, trials)
        if max(abs(z_mean), abs(z_var)) > ORACLE_SIGMAS:
            problems.append(f"oracle z-scores mean {z_mean:.2f}, variance {z_var:.2f}")

    for name, expected in verdicts.items():
        if rep["verdicts"][name]["matches_empirical"] is not expected:
            problems.append(f"verdict {name} is {rep['verdicts'][name]}, expected match={expected}")
    if rep["density_check"]["a_equals_b"] is not True:
        problems.append("presets A and B no longer share a density operator")
    return problems


def check_paradox(path: Path, samples: int, seed: int) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    problems = []
    ann, nonzero, fit = doc["annihilation"], doc["nonzero_expectation"], doc["fixed_operator_fit"]
    if not (ann["x_plus_residual"] < 1e-12 and ann["x_minus_residual"] < 1e-12 and ann["annihilates_sx_eigenstates"]):
        problems.append(f"annihilation residuals {ann['x_plus_residual']}, {ann['x_minus_residual']}")
    if abs(nonzero["expectation_on_source"] - 1.0) > 1e-12:
        problems.append(f"z-eigenstate expectation {nonzero['expectation_on_source']}")
    if (fit["samples"], fit["seed"]) != (samples, seed):
        problems.append(f"fit echo {fit['samples']}, {fit['seed']}")
    # With 10^6 samples the rms estimate's standard deviation is about 2e-4.
    if abs(fit["rms_residual"] - oracle.PARADOX_RMS) > 2e-3:
        problems.append(f"rms residual {fit['rms_residual']} far from sqrt(4/45)")
    if abs(fit["max_residual"] - oracle.PARADOX_MAX) > 1e-2:
        problems.append(f"max residual {fit['max_residual']} far from 2/3")
    return problems


def check_pmf(dist, ensemble_json: dict, axis_json) -> list[str]:
    components = oracle.components_from_json(ensemble_json)
    axis = oracle.axis_vector(axis_json)
    n = sum(count for _, count in components)
    support = dist.support.tolist()
    probs = dist.probabilities.tolist()
    problems = []
    if any(b <= a for a, b in zip(support, support[1:])) or support[0] < -n or support[-1] > n:
        problems.append("support is not increasing within [-n, n]")
    if any((x + n) % 2 for x in support) or min(probs) <= 0.0:
        problems.append("support has points of the wrong parity or zero probability")
    if abs(math.fsum(probs) - 1.0) > 1e-9:
        problems.append(f"probabilities sum to {math.fsum(probs)}")
    k1, k2, k3, _ = oracle.cumulants(components, axis)
    mean, c2, c3 = oracle.pmf_cumulants(support, probs)
    sigma = math.sqrt(k2)
    if not (_close(mean, k1, sigma, 1e-8) and _close(c2, k2, k2) and _close(c3, k3, sigma**3, 1e-7)):
        problems.append(f"PMF cumulants {mean}, {c2}, {c3} != oracle {k1}, {k2}, {k3}")
    return problems


def _is_dyadic(p: float) -> bool:
    return any(abs(p * 2**k - round(p * 2**k)) < 1e-9 for k in range(11))


def tilted_ensemble(rng: random.Random, counts: tuple[int, ...], trials: int | None = None):
    """A tilted ensemble and measurement axis, in spinstat's JSON form.

    The first component lies along +y or -y and the others along random
    tilted axes. Every p+ lies in [0.2, 0.8] and is not dyadic. With
    ``trials``, both density predictors are also kept far enough from the
    true variance that spinstat's verdict rule rejects them for certain.
    """
    while True:
        axis_json = {"theta": rng.uniform(0.5, 1.2), "phi": rng.uniform(0.3, 1.2)}
        comps = [{"axis": "y", "sign": rng.choice((1, -1)), "count": counts[0]}]
        for count in counts[1:]:
            tilt = {"theta": rng.uniform(0.3, 2.8), "phi": rng.uniform(0.0, 2.0 * math.pi)}
            comps.append({"axis": tilt, "sign": rng.choice((1, -1)), "count": count})
        ensemble_json = {"name": "tilted", "components": comps}
        components = oracle.components_from_json(ensemble_json)
        axis = oracle.axis_vector(axis_json)
        if not all(0.2 <= (p := oracle.p_plus(b, axis)) <= 0.8 and not _is_dyadic(p) for b, _ in components):
            continue
        if trials is not None:
            _, k2, _, k4 = oracle.cumulants(components, axis)
            se = oracle.sample_variance_se(k2, k4, trials)
            rse = math.sqrt(2.0 / (trials - 1))
            preds = oracle.predictions(components, axis)
            if any(abs(k2 - preds[name][1]) < 2 * (PROGRAM_SIGMAS * abs(preds[name][1]) * rse + ORACLE_SIGMAS * se)
                   for name in ("density_normalized", "density_unnormalized")):
                continue
        return ensemble_json, axis_json


def _demo_op(spinstat, work: Path, label: str, ensemble: str, n: int, trials: int, axis: str,
             workers: int, seed: int, verdicts: dict[str, bool]) -> Op:
    report, totals = work / f"{label}-report.json", work / f"{label}-totals.csv"
    argv = ["demo", "--ensemble", ensemble, "--n", str(n), "--trials", str(trials), "--axis", axis,
            "--seed", str(seed), "--out", str(report), "--totals", str(totals), "--workers"]
    echo = {"ensemble": {"preset": ensemble, "n": n}, "axis": axis, "trials": trials, "seed": seed, "hbar": 1.0}
    return Op(
        label=label,
        call=_cli(spinstat, argv + [str(workers)]),
        check=lambda _: check_experiment(echo, report, totals, verdicts),
        outputs=(report, totals),
        other_workers=_cli(spinstat, argv + [str(3 - workers)]),
    )


# Each workload maps (spinstat, seed, work directory) to ``rounds``: a function
# that builds the inputs of round r, untimed, and returns its operations.


def headline(spinstat, seed: int, work: Path) -> Callable[[int], list[Op]]:
    """demo A then demo B: the CLI defaults, one worker, both output files."""
    base = random.Random(f"headline:{seed}").randrange(2**32)

    def rounds(r: int) -> list[Op]:
        return [
            _demo_op(spinstat, work, "A", "A", 1000, 10_000, "x", 1, base + r, VERDICTS_A),
            _demo_op(spinstat, work, "B", "B", 1000, 10_000, "x", 1, base + r, VERDICTS_B),
        ]

    return rounds


def huge_ensemble(spinstat, seed: int, work: Path) -> Callable[[int], list[Op]]:
    """demo B with 200000 particles along y, 200 trials, two workers."""
    base = random.Random(f"huge-ensemble:{seed}").randrange(2**32)

    def rounds(r: int) -> list[Op]:
        return [_demo_op(spinstat, work, "huge", "B", 200_000, 200, "y", 2, base + r, VERDICTS_B)]

    return rounds


MANY_SMALL_COUNTS = (5, 4, 3)
MANY_SMALL_TRIALS = 50_000


def many_small(spinstat, seed: int, work: Path) -> Callable[[int], list[Op]]:
    """run --config on 12 tilted particles in 3 components, 50000 trials, two workers."""
    rng = random.Random(f"many-small:{seed}")
    ensemble_json, axis_json = tilted_ensemble(rng, MANY_SMALL_COUNTS, MANY_SMALL_TRIALS)
    base = rng.randrange(2**32)
    config, report, totals = work / "config.json", work / "report.json", work / "totals.csv"

    def rounds(r: int) -> list[Op]:
        cfg = {
            "ensemble": ensemble_json,
            "axis": axis_json,
            "trials": MANY_SMALL_TRIALS,
            "seed": base + r,
            "hbar": 1.0,
            "outputs": {"report": str(report), "totals": str(totals)},
            "workers": 2,
        }
        config.write_text(json.dumps(cfg), encoding="utf-8")
        echo = {key: cfg[key] for key in ("ensemble", "axis", "trials", "seed", "hbar")}
        argv = ["run", "--config", str(config)]
        return [Op(
            label="tilted",
            call=_cli(spinstat, argv),
            check=lambda _: check_experiment(echo, report, totals, VERDICTS_TILTED),
            outputs=(report, totals),
            other_workers=_cli(spinstat, argv + ["--workers", "1"]),
        )]

    return rounds


ORACLES_COUNTS = (20_000, 20_000, 20_000)
PARADOX_SAMPLES = 1_000_000


def oracles(spinstat, seed: int, work: Path) -> Callable[[int], list[Op]]:
    """paradox with 10^6 samples, then the exact PMF of 60000 tilted particles."""
    rng = random.Random(f"oracles:{seed}")
    ensemble_json, axis_json = tilted_ensemble(rng, ORACLES_COUNTS)
    base = rng.randrange(2**32)
    out = work / "paradox.json"

    def pmf():
        ensemble = spinstat.ensemble.ensemble_from_json(ensemble_json)
        return spinstat.montecarlo.exact_total_distribution(ensemble, spinstat.spin.Axis.from_json(axis_json))

    def rounds(r: int) -> list[Op]:
        argv = ["paradox", "--samples", str(PARADOX_SAMPLES), "--seed", str(base + r), "--out", str(out)]
        return [
            Op("paradox", _cli(spinstat, argv), lambda _: check_paradox(out, PARADOX_SAMPLES, base + r), (out,)),
            Op("pmf", pmf, lambda dist: check_pmf(dist, ensemble_json, axis_json), ()),
        ]

    return rounds


WORKLOADS = {
    "headline": headline,
    "many-small": many_small,
    "huge-ensemble": huge_ensemble,
    "oracles": oracles,
}
