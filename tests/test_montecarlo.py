"""Unit tests for the simulated apparatus and exact distributions."""

import math
from concurrent.futures import Future
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import (
    SeededSampler,
    TrialRecord,
    axes,
    enumerate_mean_variance,
    enumerate_totals,
    measure_ensemble_total,
    measure_particle,
    random_axis,
    random_ensemble,
    slow_enumerate_totals,
)
from spinstat import montecarlo
from spinstat.ensemble import (
    EnsembleComponent,
    EnsembleSpec,
    make_ensemble_A,
    make_ensemble_B,
    make_pair_ensemble,
)
from spinstat.montecarlo import exact_total_distribution, preparation_aware_prediction, run_trials
from spinstat.spin import Axis, SpinOutcome, X, Z, eigenstate


class TestSampler:
    def test_same_seed_same_stream(self):
        a = SeededSampler(123)
        b = SeededSampler(123)
        assert_allclose(a.uniforms(5, 10), b.uniforms(5, 10), atol=0)

    def test_trials_are_independent_of_order(self):
        sampler = SeededSampler(9)
        forward = [sampler.uniforms(t, 4).tolist() for t in range(8)]
        backward = [SeededSampler(9).uniforms(t, 4).tolist() for t in reversed(range(8))]
        assert forward == backward[::-1]

    def test_single_draw_matches_block(self):
        sampler = SeededSampler(77)
        block = sampler.uniforms(3, 6)
        assert sampler.uniforms(3, 5)[4] == block[4]


class TestMeasureParticle:
    def test_threshold_semantics(self):
        z_plus = eigenstate(Z, SpinOutcome.PLUS)
        # p(+) along x is exactly 1/2: draws below it give PLUS
        assert measure_particle(z_plus, X, 0.25) is SpinOutcome.PLUS
        assert measure_particle(z_plus, X, 0.5) is SpinOutcome.MINUS
        assert measure_particle(z_plus, X, 0.75) is SpinOutcome.MINUS

    def test_half_probability_threshold_draws(self):
        z_plus = eigenstate(Z, SpinOutcome.PLUS)
        assert measure_particle(z_plus, X, 0.3) is SpinOutcome.PLUS
        assert measure_particle(z_plus, X, 0.7) is SpinOutcome.MINUS

    def test_definite_states_ignore_draw(self):
        z_plus = eigenstate(Z, SpinOutcome.PLUS)
        x_plus = eigenstate(X, SpinOutcome.PLUS)
        x_minus = eigenstate(X, SpinOutcome.MINUS)
        for draw in (0.0, 0.3, 0.999999):
            assert measure_particle(z_plus, Z, draw) is SpinOutcome.PLUS
            assert measure_particle(x_plus, X, draw) is SpinOutcome.PLUS
            assert measure_particle(x_minus, X, draw) is SpinOutcome.MINUS

    def test_rejects_out_of_range_draw(self):
        z_plus = eigenstate(Z, SpinOutcome.PLUS)
        with pytest.raises(ValueError):
            measure_particle(z_plus, Z, 1.0)
        with pytest.raises(ValueError):
            measure_particle(z_plus, Z, -0.1)


class TestTrialRecord:
    def test_bookkeeping_invariant(self):
        TrialRecord(0, 2, 3, 1)
        with pytest.raises(ValueError):
            TrialRecord(0, 1, 3, 1)

    def test_measure_ensemble_total_consistency(self):
        e = make_ensemble_B(20)
        record = measure_ensemble_total(e, X, SeededSampler(4), 17)
        assert record.trial_index == 17
        assert record.n_plus + record.n_minus == 20
        assert record.total_half_quanta == record.n_plus - record.n_minus


class TestRunTrials:
    def test_matches_per_trial_measurement(self):
        e = make_pair_ensemble(Axis(0.8, 2.0), 30)
        sampler = SeededSampler(55)
        _, n_plus = run_trials(e, X, 12, seed=55, keep_counts=True)
        for t, plus in enumerate(n_plus.tolist()):
            assert TrialRecord(t, 2 * plus - 30, plus, 30 - plus) == measure_ensemble_total(e, X, sampler, t)

    def test_worker_count_does_not_change_results(self):
        e = make_ensemble_B(100)
        lone = run_trials(e, X, 300, seed=8, workers=1)
        pooled = run_trials(e, X, 300, seed=8, workers=7)
        assert lone == pooled

    def test_sampled_totals_have_ensemble_parity(self):
        e = make_pair_ensemble(Axis(1.1, 0.3), 9 * 2)
        _, n_plus = run_trials(e, X, 50, seed=14, keep_counts=True)
        for total in (2 * n_plus - 18).tolist():
            assert abs(total) <= 18
            assert total % 2 == 0

    def test_statistics_match_records(self):
        e = make_ensemble_B(50)
        stats, n_plus = run_trials(e, X, 100, seed=3, keep_counts=True)
        totals = 2 * n_plus - 50
        assert stats.trials == 100
        assert_allclose(stats.sample_mean, totals.mean(), atol=1e-12)
        assert_allclose(stats.sample_variance, totals.var(ddof=1), atol=1e-9)
        assert stats.min_total == totals.min()
        assert stats.max_total == totals.max()

    def test_variance_of_total_is_four_times_count_variance(self):
        e = make_ensemble_B(40)
        _, counts = run_trials(e, X, 400, seed=21, keep_counts=True)
        totals = 2 * counts - 40
        assert_allclose(totals.var(ddof=1), 4.0 * counts.var(ddof=1), atol=1e-9)

    def test_rejects_degenerate_parameters(self):
        e = make_ensemble_B(4)
        with pytest.raises(ValueError):
            run_trials(e, X, 1, seed=0)
        with pytest.raises(ValueError):
            run_trials(e, X, 10, seed=0, workers=0)


class TestExactDistribution:
    def test_matches_slow_oracle_tiny(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            e = random_ensemble(rng, max_components=2, max_count=3)
            axis = random_axis(rng)
            dist = exact_total_distribution(e, axis)
            oracle = slow_enumerate_totals(e, axis)
            for total, prob in zip(dist.support, dist.probabilities):
                assert_allclose(prob, oracle.get(int(total), 0.0), atol=1e-12)

    def test_matches_vectorized_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            e = random_ensemble(rng, max_components=3, max_count=4)
            axis = random_axis(rng)
            dist = exact_total_distribution(e, axis)
            support, pmf = enumerate_totals(e, axis)
            dense = dict(zip(support.tolist(), pmf.tolist()))
            for total, prob in zip(dist.support.tolist(), dist.probabilities.tolist()):
                assert_allclose(prob, dense[total], atol=1e-12)

    def test_normalization_mean_variance(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            e = random_ensemble(rng)
            axis = random_axis(rng)
            dist = exact_total_distribution(e, axis)
            assert_allclose(dist.probabilities.sum(), 1.0, atol=1e-10)
            mean, variance = enumerate_mean_variance(e, axis) if e.total_count <= 12 else (None, None)
            if mean is not None:
                assert_allclose(dist.mean(), mean, atol=1e-10)
                assert_allclose(dist.variance(), variance, atol=1e-10)

    def test_definite_ensemble_is_a_point_mass(self):
        dist = exact_total_distribution(make_ensemble_A(12), X)
        assert dist.support.tolist() == [0]
        assert dist.probabilities.tolist() == [1.0]

    def test_smallest_mixed_pair_is_quarter_half_quarter(self):
        dist = exact_total_distribution(make_ensemble_B(2), X)
        assert dist.support.tolist() == [-2, 0, 2]
        assert dist.probabilities.tolist() == [0.25, 0.5, 0.25]

    def test_support_parity_matches_particle_count(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            e = random_ensemble(rng)
            dist = exact_total_distribution(e, random_axis(rng))
            assert all(int(t) % 2 == e.total_count % 2 for t in dist.support)
            assert int(np.abs(dist.support).max()) <= e.total_count

    def test_b_total_variance_is_exactly_n(self):
        for n in (2, 4, 8, 16):
            dist = exact_total_distribution(make_ensemble_B(n), X)
            assert dist.mean() == 0.0
            assert dist.variance() == float(n)


class TestPreparationAwarePrediction:
    def test_agrees_with_exact_distribution(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            e = random_ensemble(rng)
            axis = random_axis(rng)
            pred = preparation_aware_prediction(e, axis)
            dist = exact_total_distribution(e, axis)
            assert_allclose(pred.mean, dist.mean(), atol=1e-9)
            assert_allclose(pred.variance, dist.variance(), atol=1e-9)

    def test_preset_closed_forms(self):
        pred_a = preparation_aware_prediction(make_ensemble_A(1000), X)
        assert pred_a.mean == 0.0 and pred_a.variance == 0.0 and pred_a.sigma == 0.0
        pred_b = preparation_aware_prediction(make_ensemble_B(1000), X)
        assert pred_b.mean == 0.0 and pred_b.variance == 1000.0
        assert_allclose(pred_b.sigma, math.sqrt(1000.0), atol=1e-12)

    def test_sampling_agrees_with_prediction(self):
        e = make_pair_ensemble(Axis(math.pi / 3, 0.4), 200)
        pred = preparation_aware_prediction(e, X)
        stats = run_trials(e, X, 4000, seed=10)
        rse = math.sqrt(2.0 / (stats.trials - 1))
        assert abs(stats.sample_variance - pred.variance) <= 5.0 * pred.variance * rse
        sigma_mean = math.sqrt(pred.variance / stats.trials)
        assert abs(stats.sample_mean - pred.mean) <= 5.0 * sigma_mean


def test_single_particle_ensemble_distribution():
    e = EnsembleSpec((EnsembleComponent(eigenstate(Z, SpinOutcome.PLUS), 1),))
    dist = exact_total_distribution(e, X)
    assert dist.support.tolist() == [-1, 1]
    assert_allclose(dist.probabilities, [0.5, 0.5], atol=0)


def _tilted(counts):
    """Components along distinct tilted axes, alternating + and - eigenstates."""
    return EnsembleSpec(tuple(
        EnsembleComponent(eigenstate(Axis(0.4 + 0.7 * i, 1.3 * i), SpinOutcome(1 - 2 * (i % 2))), count)
        for i, count in enumerate(counts)
    ))


@st.composite
def sampled_ensembles(draw):
    """An ensemble and a measurement axis for the sampler cross-check.

    Up to three components of 0-90 particles, so n falls on both sides of
    BATCH_MAX_PARTICLES. A component is an eigenstate either of the
    measurement axis (p+ exactly 0 or 1) or of a random axis, so some
    ensembles take the no-draw shortcut and some mix certain and random
    outcomes.
    """
    axis = draw(axes())
    components = []
    for _ in range(draw(st.integers(1, 3))):
        own_axis = axis if draw(st.booleans()) else draw(axes())
        sign = draw(st.sampled_from([SpinOutcome.PLUS, SpinOutcome.MINUS]))
        components.append(EnsembleComponent(eigenstate(own_axis, sign), draw(st.integers(0, 90))))
    if sum(c.count for c in components) == 0:
        components[0] = EnsembleComponent(components[0].state, 1)
    return EnsembleSpec(tuple(components)), axis


SEEDS = st.one_of(st.integers(-(2**70), 2**70), st.integers(2**64 - 4, 2**64 + 4), st.integers(-4, 4))


@settings(max_examples=60, deadline=None)
@given(
    case=sampled_ensembles(),
    trials=st.integers(2, 200),
    seed=SEEDS,
    workers=st.sampled_from([1, 2, 3]),
    batch_blocks=st.integers(1, 64),
    draw_block=st.integers(1, 50),
)
# n = 70003 > 2**16 at the real draw block: the large component is drawn in two pieces.
@example(case=(_tilted((3, 70_000)), Axis(1.1, 0.4)), trials=3, seed=2**64 - 1, workers=2,
         batch_blocks=None, draw_block=None)
# n = 13 at the real batch size: 2048 trials per kernel call, so 5000 trials cross two edges.
@example(case=(_tilted((6, 4, 3)), Axis(0.8, 0.7)), trials=5000, seed=2**64 + 1, workers=1,
         batch_blocks=None, draw_block=None)
@example(case=(_tilted((6, 4, 3)), Axis(0.8, 0.7)), trials=5000, seed=7, workers=3,
         batch_blocks=None, draw_block=None)
def test_run_trials_matches_reference_sampler(case, trials, seed, workers, batch_blocks, draw_block):
    """Trial by trial, every sampling path counts what the reference stream counts.

    The batch and draw-block sizes are shrunk at random, so kernel calls and
    draw blocks end at arbitrary trials and particles.
    """
    e, axis = case
    with mock.patch.object(montecarlo, "_BATCH_BLOCKS", batch_blocks or montecarlo._BATCH_BLOCKS), \
            mock.patch.object(montecarlo, "_DRAW_BLOCK", draw_block or montecarlo._DRAW_BLOCK):
        stats, n_plus = run_trials(e, axis, trials, seed, workers=workers, keep_counts=True)
    sampler = SeededSampler(seed)
    expected = [measure_ensemble_total(e, axis, sampler, t).n_plus for t in range(trials)]
    assert n_plus.tolist() == expected
    assert stats == run_trials(e, axis, trials, seed)


def test_certain_outcomes_draw_no_uniforms(monkeypatch):
    def no_sampling(*args):
        raise AssertionError("drew uniforms for outcomes that are certain")

    monkeypatch.setattr(montecarlo, "_batched_counts", no_sampling)
    monkeypatch.setattr(montecarlo, "_reset_counts", no_sampling)
    _, n_plus = run_trials(make_ensemble_A(1000), X, 50, seed=3, keep_counts=True)
    assert n_plus.tolist() == [500] * 50
    along_x = EnsembleSpec((
        EnsembleComponent(eigenstate(X, SpinOutcome.PLUS), 3),
        EnsembleComponent(eigenstate(X, SpinOutcome.MINUS), 5),
    ))
    stats = run_trials(along_x, X, 10, seed=0)
    assert stats.sample_mean == -2.0 and stats.sample_variance == 0.0


@pytest.mark.parametrize(
    "workers, trials, cpus, pool_size",
    [
        (10**6, 50, 4, 4),  # huge request: capped by the CPU count
        (3, 100, 8, 3),  # fewer workers than CPUs
        (8, 5, 8, 5),  # fewer trials than workers: one chunk per trial
        (4, 100, None, None),  # CPU count unknown: no pool
        (1, 100, 8, None),
    ],
)
def test_thread_pool_is_bounded(monkeypatch, workers, trials, cpus, pool_size):
    e = make_pair_ensemble(Axis(0.8, 2.0), 30)
    reference = run_trials(e, X, trials, seed=4)
    sizes = []

    class InlineExecutor:
        """Records the requested pool size and runs every task at submission."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", InlineExecutor)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
    assert run_trials(e, X, trials, seed=4, workers=workers) == reference
    assert sizes == ([] if pool_size is None else [pool_size])
