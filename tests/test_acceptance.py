"""Acceptance suite: one test (and one printed PASS line) per exit criterion.

Each test states its tolerance inline; together they pin the package's core
claims: the two preset preparations share a density matrix yet differ in
total-spin variance, the preparation-aware route predicts both, the trace
formalism cannot, and no fixed operator can stand in for the variance.
"""

import math
import time

import numpy as np

from conftest import density_matrix, enumerate_totals, random_axis, random_ensemble, statistical_average_expectation
from spinstat.density import density_equal, density_operator, expectation_tr, variance_tr
from spinstat.ensemble import make_ensemble_A, make_ensemble_B, make_pair_ensemble
from spinstat.harness import run_experiment
from spinstat.montecarlo import exact_total_distribution, preparation_aware_prediction, run_trials
from spinstat.paradox import annihilation_residual, expectation, fixed_operator_infeasibility, variance_pseudo_operator
from spinstat.spin import Axis, SpinOutcome, X, Z, eigenstate
from test_harness import make_config, run_cli


def report(line: str) -> None:
    print(line, flush=True)


def test_criterion_1_preset_a_deterministic_zero_variance():
    """n=1000, trials=10000, any seed: every total exactly 0, variance exactly 0, < 5 s."""
    e = make_ensemble_A(1000)
    for seed in (0, 42, 987654321):
        start = time.perf_counter()
        n_plus = run_trials(e, X, 10_000, seed=seed)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"simulation took {elapsed:.2f}s at seed {seed}"
        assert n_plus.tolist() == [500] * 10_000, f"nonzero total at seed {seed}"
        totals = 2 * n_plus - 1000
        assert totals.mean() == 0.0
        assert totals.var(ddof=1) == 0.0
        assert totals.min() == 0 and totals.max() == 0
    report("PASS criterion 1: preset A gives every total exactly 0 with sample variance exactly 0 in < 5 s")


def test_criterion_2_preset_b_binomial_variance():
    """n=1000, trials=10000, seed 42: variance within 5% of 1000, |mean| <= 1.6, < 5 s."""
    start = time.perf_counter()
    totals = 2 * run_trials(make_ensemble_B(1000), X, 10_000, seed=42) - 1000
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"simulation took {elapsed:.2f}s"
    variance, mean = totals.var(ddof=1), totals.mean()
    assert abs(variance - 1000.0) <= 50.0, variance
    assert abs(mean) <= 1.6, mean
    report(
        "PASS criterion 2: preset B sample variance "
        f"{variance:.1f} within 5% of 1000, |mean| {abs(mean):.3f} <= 1.6, < 5 s"
    )


def test_criterion_3_density_operators_identical():
    """density_equal(rho_A, rho_B, 1e-12) for n in {2, 10, 1000}; both equal I/2 within 1e-12."""
    for n in (2, 10, 1000):
        rho_a = density_operator(make_ensemble_A(n))
        rho_b = density_operator(make_ensemble_B(n))
        assert density_equal(rho_a, rho_b, 1e-12), f"n={n}"
        for rho in (rho_a, rho_b):
            assert np.abs(density_matrix(rho) - 0.5 * np.eye(2)).max() <= 1e-12
    report("PASS criterion 3: density operators of A and B equal I/2 entrywise within 1e-12 for n in {2, 10, 1000}")


def test_criterion_4_trace_variance_blind_to_preparation():
    """variance_tr exactly 1 (normalized) and exactly 1000 (unnormalized) for both presets;
    harness flags normalized wrong for both, unnormalized wrong for A and right for B."""
    for make in (make_ensemble_A, make_ensemble_B):
        assert variance_tr(density_operator(make(1000)), X) == 1.0
        assert variance_tr(density_operator(make(1000), normalized=False), X) == 1000.0

    verdicts_a = run_experiment(make_config(preset="A", n=1000, trials=10_000, seed=42))["verdicts"]
    verdicts_b = run_experiment(make_config(preset="B", n=1000, trials=10_000, seed=42))["verdicts"]
    assert not verdicts_a["density_normalized"]["matches_empirical"]
    assert not verdicts_b["density_normalized"]["matches_empirical"]
    assert not verdicts_a["density_unnormalized"]["matches_empirical"]
    assert verdicts_b["density_unnormalized"]["matches_empirical"]
    report(
        "PASS criterion 4: variance_tr exactly 1 (normalized) and exactly 1000 (unnormalized) for A and B; "
        "verdicts reject normalized for both and unnormalized for A only"
    )


def test_criterion_5_expectation_agreement_theorem():
    """1000 random ensembles (<= 4 components, N <= 100), random axes:
    statistical_average_expectation == expectation_tr within 1e-10, 100% of cases."""
    rng = np.random.default_rng(314159)
    failures = 0
    for _ in range(1000):
        e = random_ensemble(rng, max_components=4, max_count=25)
        axis = random_axis(rng)
        intensive_gap = abs(
            statistical_average_expectation(e, axis) - expectation_tr(density_operator(e), axis)
        )
        extensive_gap = abs(
            statistical_average_expectation(e, axis, extensive=True)
            - expectation_tr(density_operator(e, normalized=False), axis)
        )
        if intensive_gap > 1e-10 or extensive_gap > 1e-10:
            failures += 1
    assert failures == 0, f"{failures}/1000 ensembles disagreed beyond 1e-10"
    report("PASS criterion 5: statistical average equals trace expectation within 1e-10 in 1000/1000 random ensembles")


def test_criterion_6_exact_distribution_matches_brute_force():
    """Pair ensembles, even N <= 16, 50 random axis pairs: exact distribution matches 2^N
    enumeration within 1e-12; preparation-aware mean/variance within 1e-9; B count variance N/4 exactly."""
    rng = np.random.default_rng(271828)
    sizes = range(2, 17, 2)
    for _ in range(50):
        pair_axis = random_axis(rng)
        measure_axis = random_axis(rng)
        for n in sizes:
            e = make_pair_ensemble(pair_axis, n)
            dist = exact_total_distribution(e, measure_axis)
            support, pmf = enumerate_totals(e, measure_axis)
            dense = dict(zip(support.tolist(), pmf.tolist()))
            enumerated = np.array([dense[t] for t in dist.support.tolist()])
            assert np.max(np.abs(dist.probabilities - enumerated)) <= 1e-12
            missing = set(dense) - set(dist.support.tolist())
            assert all(dense[t] <= 1e-12 for t in missing)
            pred_mean, pred_variance = preparation_aware_prediction(e, measure_axis)
            mean = float(pmf @ support)
            variance = float(pmf @ (support - mean) ** 2)
            assert abs(pred_mean - mean) <= 1e-9
            assert abs(pred_variance - variance) <= 1e-9
    for n in sizes:
        dist = exact_total_distribution(make_ensemble_B(n), X)
        count_variance = dist.variance() / 4.0
        assert count_variance == n / 4.0, f"count variance {count_variance} != {n / 4} at N={n}"
    report(
        "PASS criterion 6: exact distributions match 2^N enumeration within 1e-12 over 50 random axis pairs "
        "(even N <= 16), preparation-aware moments within 1e-9, preset B count variance exactly N/4"
    )


def test_criterion_7_variance_operator_witnesses():
    """Annihilation residual < 1e-12 on x eigenstates; z+ expectation 1 within 1e-12;
    rms residual of the best fixed operator within 2% of 0.2981 at 1e5 samples."""
    for sign in (SpinOutcome.PLUS, SpinOutcome.MINUS):
        residual = annihilation_residual(eigenstate(X, sign))
        assert residual < 1e-12, residual
    nonzero_op = variance_pseudo_operator(eigenstate(Z, SpinOutcome.PLUS))
    assert abs(expectation(nonzero_op, eigenstate(Z, SpinOutcome.PLUS)) - 1.0) <= 1e-12
    rms, _ = fixed_operator_infeasibility(100_000, seed=0)
    assert abs(rms - 0.2981) <= 0.02 * 0.2981, rms
    report(
        f"PASS criterion 7: annihilation residuals < 1e-12, z+ expectation 1 within 1e-12, "
        f"fixed-operator rms residual {rms:.4f} within 2% of 0.2981"
    )


def test_criterion_8_generalized_axis_variance_law():
    """Pair ensemble along theta in {0, pi/6, pi/4, pi/2} measured along x, n=1000,
    trials=10000: sample variance within 5 relative standard errors of 1000*(1 - nx^2)."""
    trials = 10_000
    rse = math.sqrt(2.0 / (trials - 1))
    summaries = []
    for theta in (0.0, math.pi / 6, math.pi / 4, math.pi / 2):
        axis = Axis(theta, 0.0)
        nx = axis.bloch()[0]
        predicted = 1000.0 * (1.0 - nx * nx)
        variance = (2 * run_trials(make_pair_ensemble(axis, 1000), X, trials, seed=2026) - 1000).var(ddof=1)
        if predicted == 0.0:
            assert variance == 0.0
        else:
            assert abs(variance - predicted) <= 5.0 * predicted * rse, f"theta={theta}: {variance} vs {predicted}"
        summaries.append(f"theta={theta:.3f}: {variance:.1f} ~ {predicted:.1f}")
    report("PASS criterion 8: pair-ensemble variance follows 1000*(1 - nx^2) within 5 rse [" + "; ".join(summaries) + "]")


def test_criterion_9_cli_outputs_byte_identical(tmp_path):
    """Identical CLI invocations (same seed) give byte-identical report.json and totals.csv
    across repeats and across --workers values."""
    args = ["demo", "--ensemble", "B", "--n", "1000", "--trials", "10000", "--axis", "x", "--seed", "42"]
    outputs = {}
    for label, workers in (("one", "1"), ("one_again", "1"), ("many", "8")):
        out_dir = tmp_path / label
        out_dir.mkdir()
        proc = run_cli(
            *args, "--out", str(out_dir / "report.json"),
            "--totals", str(out_dir / "totals.csv"), "--workers", workers,
        )
        assert proc.returncode == 0, proc.stderr
        outputs[label] = (
            (out_dir / "report.json").read_bytes(),
            (out_dir / "totals.csv").read_bytes(),
        )
    assert outputs["one"] == outputs["one_again"], "same invocation was not reproducible"
    assert outputs["one"] == outputs["many"], "worker count changed the output bytes"
    report("PASS criterion 9: report.json and totals.csv byte-identical across repeat and 1-vs-8-worker runs")
