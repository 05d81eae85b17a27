"""Unit tests for the simulated apparatus and exact distributions."""

import hashlib
import itertools
import math
import statistics
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import (
    axes,
    dense_total_distribution,
    enumerate_mean_variance,
    enumerate_totals,
    exact_binomial_count_pmf,
    full_recurrence_count_pmf,
    philox4x64_words,
    philox_uniforms,
    random_axis,
    random_ensemble,
    reference_binomial_count_pmf,
    reference_counts,
    reference_group_pmf,
    reference_guide,
    reference_word_cdf,
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
from spinstat.spin import Axis, ConfigError, SpinOutcome, X, Z, born_probability, eigenstate


@pytest.mark.parametrize("seed", [0, 1, 12345, 2**64 - 3, -7])
def test_numpy_philox_is_the_spec_stream(seed):
    """numpy's Philox4x64-10 raw words and ``Generator.random()`` doubles are those of the spec.

    4003 words cover many blocks and end partway into one; a negative seed is
    taken mod 2**64, as ``run_trials`` takes it.
    """
    words = list(itertools.islice(philox4x64_words(seed), 4003))
    assert np.random.Philox(key=seed % 2**64).random_raw(4003).tolist() == words
    uniforms = np.random.Generator(np.random.Philox(key=seed % 2**64)).random(4003)
    assert uniforms.tolist() == list(itertools.islice(philox_uniforms(seed), 4003))


class TestRunTrials:
    def test_matches_per_trial_measurement(self):
        # Two components of 1500 at different p+, each above PIECE: one word
        # each, inverting the CDF of its binomial's window.
        e = make_pair_ensemble(Axis(0.8, 2.0), 3000)
        n_plus = run_trials(e, X, 12, seed=55)
        assert n_plus.tolist() == reference_counts(e, X, 55, 12, montecarlo.PIECE)

    def test_sampled_totals_have_ensemble_parity(self):
        e = make_pair_ensemble(Axis(1.1, 0.3), 9 * 2)
        n_plus = run_trials(e, X, 50, seed=14)
        for total in (2 * n_plus - 18).tolist():
            assert abs(total) <= 18
            assert total % 2 == 0

    def test_variance_of_total_is_four_times_count_variance(self):
        e = make_ensemble_B(40)
        counts = run_trials(e, X, 400, seed=21)
        totals = 2 * counts - 40
        assert_allclose(totals.var(ddof=1), 4.0 * counts.var(ddof=1), atol=1e-9)

    def test_rejects_degenerate_parameters(self):
        e = make_ensemble_B(4)
        for trials in (1, 0, -3, 2.5, "3", None, True):
            with pytest.raises(ConfigError, match="field 'trials'"):
                run_trials(e, X, trials, seed=0)

    def test_rejects_trials_beyond_bound(self):
        # A certain-only ensemble draws no word, so the word budget never
        # fires; unchecked, this allocates 8 bytes per trial, 80 MB.
        with pytest.raises(ConfigError, match="field 'trials' must be at least 2 and at most 10000000"):
            run_trials(make_ensemble_A(2), X, montecarlo.MAX_TRIALS + 1, seed=0)


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

    @pytest.mark.parametrize("thetas", [(0.9, 1.1, 1.2), (1.0, 1.0, 1.0), (0.95, 1.15, 1.05)])
    def test_variance_holds_when_the_mean_dwarfs_sigma(self, thetas):
        # 60000 particles with p+ near 0.75 along z: the mean is about 140
        # sigma, where E[X^2] - mean^2 loses about 1e-11 of the variance.
        e = EnsembleSpec(tuple(
            EnsembleComponent(eigenstate(Axis(theta, 0.3 * i), SpinOutcome.PLUS), 20_000)
            for i, theta in enumerate(thetas)
        ))
        dist = exact_total_distribution(e, Z)
        _, variance = preparation_aware_prediction(e, Z)
        assert dist.mean() > 100 * math.sqrt(variance)
        assert abs(dist.variance() - variance) <= 1e-14 * variance


class TestPreparationAwarePrediction:
    def test_agrees_with_exact_distribution(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            e = random_ensemble(rng)
            axis = random_axis(rng)
            mean, variance = preparation_aware_prediction(e, axis)
            dist = exact_total_distribution(e, axis)
            assert_allclose(mean, dist.mean(), atol=1e-9)
            assert_allclose(variance, dist.variance(), atol=1e-9)

    def test_preset_closed_forms(self):
        assert preparation_aware_prediction(make_ensemble_A(1000), X) == (0.0, 0.0)
        assert preparation_aware_prediction(make_ensemble_B(1000), X) == (0.0, 1000.0)

    def test_sampling_agrees_with_prediction(self):
        e = make_pair_ensemble(Axis(math.pi / 3, 0.4), 200)
        mean, variance = preparation_aware_prediction(e, X)
        totals = 2 * run_trials(e, X, 4000, seed=10) - e.total_count
        rse = math.sqrt(2.0 / (len(totals) - 1))
        assert abs(totals.var(ddof=1) - variance) <= 5.0 * variance * rse
        sigma_mean = math.sqrt(variance / len(totals))
        assert abs(totals.mean() - mean) <= 5.0 * sigma_mean


def test_single_particle_ensemble_distribution():
    e = EnsembleSpec((EnsembleComponent(eigenstate(Z, SpinOutcome.PLUS), 1),))
    dist = exact_total_distribution(e, X)
    assert dist.support.tolist() == [-1, 1]
    assert_allclose(dist.probabilities, [0.5, 0.5], atol=0)


def _along_z(p_plus, count):
    """``count`` particles whose + probability along z is ``p_plus``."""
    return EnsembleComponent(eigenstate(Axis(math.acos(2.0 * p_plus - 1.0)), SpinOutcome.PLUS), count)


@settings(max_examples=40, deadline=None)
@given(components=st.lists(
    st.builds(
        _along_z,
        st.one_of(st.sampled_from([0.0, 1.0, 1e-3, 0.999]), st.floats(0.0, 1.0)),
        st.integers(1, 6000),
    ),
    min_size=1,
    max_size=3,
))
# 5 x +z and 3 x -z: two certain components, so the point mass sits at offset 5.
@example(components=[_along_z(1.0, 5), _along_z(0.0, 3)])
# Every component's tails underflow, the skewed ones' on one side only.
@example(components=[_along_z(0.3, 6000), _along_z(1e-3, 5000), _along_z(0.999, 4000)])
# Long one-sided subnormal tails on either side of a symmetric component.
@example(components=[_along_z(1e-3, 6000), _along_z(0.5, 6000), _along_z(0.999, 6000)])
# Six banded convolutions: the running PMF is log-concave only up to rounding.
@example(components=[_along_z(p, count) for p, count in zip(
    (0.3, 0.5, 0.7, 0.2, 0.9, 0.45), (1500, 1480, 1520, 1510, 1490, 1500)
)])
# A binomial longer than the running PMF it is convolved into.
@example(components=[_along_z(0.6, 200), _along_z(0.4, 6000)])
def test_exact_distribution_matches_dense_reference(components):
    """The trimmed PMF is the dense reference convolution, rescaled to mass 1.

    Up to 6000 particles per component, so the binomial tails underflow to
    exact zeros that the trimmed convolution never stores. A component of at
    most ``PIECE`` particles is referred to the dense convolution, a larger
    one to the exact law of its p+, correctly rounded: the dense convolution
    itself strays up to 1.2e-13 from that law at 4963-6000 particles, past
    this test's bound. Above ``PIECE + 1`` entries each output is summed
    over its band, so this also checks the terms the band drops. The
    reference sums to 1 only up to rounding, while
    ``exact_total_distribution`` divides each component by its exact sum, so
    the reference is divided by its own sum before the comparison. Below
    1e-300 the two round subnormals differently, the reference in every
    product and sum of its convolution, a banded output once, after its
    slices were scaled clear of them; so a point may be missing from one
    and not the other only there.
    """
    e = EnsembleSpec(tuple(components))
    n = e.total_count
    dist = exact_total_distribution(e, Z)
    support, pmf = dense_total_distribution(e, Z, montecarlo.PIECE)
    reference, got = np.zeros(n + 1), np.zeros(n + 1)
    reference[(support + n) // 2] = pmf / math.fsum(pmf)
    got[(dist.support + n) // 2] = dist.probabilities
    assert np.all(got[reference >= 1e-300] > 0.0)
    diff = np.abs(got - reference)
    # Relative where doubles keep full precision; absolute in the far tail.
    large = reference >= 1e-290
    assert np.all(diff[large] <= 1e-13 * reference[large])
    assert np.all(diff[~large] <= 1e-17)


def test_largest_admitted_component_sums_to_one():
    """999999 particles at p+ = 0.2, the most the guard admits: about 0.1 s.

    Without the division by its exact sum, this binomial sums to
    1 + 1.06e-10, beyond what ``TotalSpinDistribution`` accepts: 1 - 0.2
    rounds up, and the convolutions add their own rounding.
    """
    # The -z component of this state is exactly -0.6, so p+ is the double 0.2.
    state = eigenstate(Axis(math.acos(0.6)), SpinOutcome.MINUS)
    assert born_probability(state, Z, SpinOutcome.PLUS) == 0.2
    e = EnsembleSpec((EnsembleComponent(state, montecarlo.MAX_SUPPORT_POINTS - 1),))
    dist = exact_total_distribution(e, Z)
    assert abs(math.fsum(dist.probabilities) - 1.0) <= 1e-15
    assert_allclose([dist.mean(), dist.variance()], preparation_aware_prediction(e, Z), rtol=1e-9)


@settings(max_examples=80, deadline=None)
@given(
    count=st.integers(1, montecarlo.PIECE),
    p=st.one_of(st.sampled_from([0.5, 1e-3, 0.999, 0.2]), st.floats(0.0, 1.0)),
)
# Tails down to subnormals on both sides: the largest-first sum must still be
# the correctly rounded one.
@example(count=1024, p=0.5)
@example(count=672, p=0.5)
def test_binomial_pmf_matches_the_index_order_sum(count, p):
    """Up to ``PIECE`` particles, normalized by a largest-first ``fsum``, every PMF has the bytes of the index-order one."""
    pmf, offset = montecarlo._binomial_count_pmf(count, p)
    reference, reference_offset = reference_binomial_count_pmf(count, p)
    assert offset == reference_offset
    assert pmf.tobytes() == reference.tobytes()


# The three components of the oracles benchmark workload at seed 1.
ORACLES_SEED_1 = [(20000, 0.7509844331222613), (20000, 0.7875476367917376), (20000, 0.23551599416642488)]


@pytest.mark.parametrize("count, p", [
    (montecarlo.PIECE + 1, 0.5),
    (1069, 0.5926358719),
    (4963, 0.8564109931),
    (6000, 0.3),
    *ORACLES_SEED_1,
])
def test_binomial_pmf_matches_the_exact_law(count, p):
    """Above ``PIECE`` particles, every entry is within 2e-14 of the exact law wherever that is at least 1e-290.

    The ratio recurrence keeps its window's ends nonzero and within the
    window where the exact law does not round to 0.
    """
    pmf, offset = montecarlo._binomial_count_pmf(count, p)
    exact, exact_offset = exact_binomial_count_pmf(count, p)
    assert pmf[0] > 0.0 and pmf[-1] > 0.0
    assert exact_offset <= offset and offset + len(pmf) <= exact_offset + len(exact)
    got = np.zeros(len(exact))
    got[offset - exact_offset : offset - exact_offset + len(pmf)] = pmf
    large = exact >= 1e-290
    assert np.all(np.abs(got - exact)[large] <= 2e-14 * exact[large])


@pytest.mark.parametrize("count, p", [
    (10**6, 1e-5),
    (10**6, 1 - 1e-5),
    (5000, 0.001),
    (200_000, 0.5),
    (333_333, 0.2),
    (montecarlo.PIECE + 1, 0.7),
])
def test_windowed_binomial_is_the_full_recurrence(count, p):
    """Above ``PIECE`` particles, the walk out from the mode has every byte and the offset of the recurrence over all counts.

    The skewed cases keep entries far past any Gaussian cut of the window:
    up to 303 + outcomes at 10**6 particles and p+ = 1e-5, 250 at 5000 and
    0.001.
    """
    pmf, offset = montecarlo._binomial_count_pmf(count, p)
    reference, reference_offset = full_recurrence_count_pmf(count, p)
    assert offset == reference_offset
    assert pmf.tobytes() == reference.tobytes()


@pytest.mark.parametrize("count", [montecarlo.PIECE + 1, montecarlo.MAX_SUPPORT_POINTS - 1])
@pytest.mark.parametrize("p", [0.0, 1.0])
def test_certain_binomial_above_piece_is_one_point(count, p):
    """Above ``PIECE`` particles at p+ in {0, 1}, the window is the one certain count, and no ratio divides by zero."""
    with np.errstate(all="raise"):
        pmf, offset = montecarlo._binomial_count_pmf(count, p)
    assert (pmf.tolist(), offset) == ([1.0], 0 if p == 0.0 else count)


@pytest.mark.parametrize("count, p", [
    (10**6, 1e-5),
    (10**6, 1 - 1e-5),
    (5000, 0.001),
    (200_000, 0.5),
    (333_333, 0.2),
    (montecarlo.MAX_SUPPORT_POINTS - 1, 0.5),
    (montecarlo.PIECE + 1, 0.7),
])
def test_sampler_floor_drops_less_than_a_word_spacing(count, p):
    """The sampler's window is the exact one cut at ``_BAND_FLOOR``, and the tails it drops weigh below 2**-68 of it.

    That is the bound ``_word_cdf`` proves, well below 2**-53, the spacing
    of the words, so no CDF entry moves by a word.
    """
    full, full_offset = montecarlo._binomial_window(count, p, 0.0)
    cut, offset = montecarlo._binomial_window(count, p, montecarlo._BAND_FLOOR)
    start = offset - full_offset
    assert cut.tobytes() == full[start : start + len(cut)].tobytes()
    assert cut.min() > montecarlo._BAND_FLOOR
    dropped = math.fsum(full[:start]) + math.fsum(full[start + len(cut) :])
    assert dropped < 2.0**-68 * math.fsum(cut)


@st.composite
def piece_parts(draw):
    """One to four ``(count, p)`` parts of at most ``PIECE`` particles in all, as a sampler piece holds."""
    parts, room = [], montecarlo.PIECE
    for _ in range(draw(st.integers(1, 4))):
        count = draw(st.integers(1, room))
        parts.append((count, draw(st.one_of(st.sampled_from([0.5, 1e-3, 0.999]), st.floats(0.0, 1.0)))))
        room -= count
        if not room:
            break
    return parts


@settings(max_examples=60, deadline=None)
@given(parts=piece_parts())
# Two halves of a full piece: the running PMF reaches PIECE + 1 entries.
@example(parts=[(montecarlo.PIECE // 2, 0.3), (montecarlo.PIECE // 2, 0.7)])
@example(parts=[(1, 0.5), (montecarlo.PIECE - 1, 0.5)])
@example(parts=[(montecarlo.PIECE, 0.5)])
def test_group_pmf_of_a_piece_is_the_plain_convolution(parts):
    """Up to ``PIECE`` particles, the group PMF has every byte of the trimmed plain-Python mix loop.

    Only the exact PMF takes these small steps: the binomials of components
    of at most ``PIECE`` particles and the convolutions of such windows. The
    reference mixes one product and one sum at a time, in ``_mix``'s order,
    so no byte depends on how numpy or BLAS would order a sum.
    """
    pmf, offset = montecarlo._group_pmf(parts)
    reference, reference_offset = reference_group_pmf(parts)
    assert offset == reference_offset
    assert pmf.tobytes() == reference.tobytes()


@settings(max_examples=60, deadline=None)
@given(parts=piece_parts().filter(lambda parts: all(0.0 < p < 1.0 for _, p in parts)))
@example(parts=[(montecarlo.PIECE // 2, 0.3), (montecarlo.PIECE // 2, 0.7)])
@example(parts=[(1000, 0.5)])
@example(parts=[(5, 0.3), (4, 0.6), (3, 0.8)])
# A large component's part: one window, mixed once into [1.0].
@example(parts=[(5000, 0.3)])
def test_word_cdf_is_the_plain_python_mix(parts):
    """Every word's CDF has the bytes of ``reference_word_cdf`` and is the group PMF's CDF to 1e-14.

    The reference walks each window and mixes it one product and one sum at
    a time, in the builder's order, so no entry depends on how numpy or BLAS
    would order a sum. Aligned by offset, every entry also lies within 1e-14
    of the ``cumsum`` of ``reference_group_pmf``, the convolved law of the
    same parts with nothing cut.
    """
    cdf, offset = montecarlo._word_cdf(parts)
    reference, reference_offset = reference_word_cdf(parts)
    assert offset == reference_offset
    assert cdf.tobytes() == np.array(reference[:-1]).tobytes()
    pmf, pmf_offset = reference_group_pmf(parts)
    start = offset - pmf_offset
    assert start >= 0 and start + len(cdf) < len(pmf)
    assert_allclose(cdf, np.cumsum(pmf)[start : start + len(cdf)], rtol=0.0, atol=1e-14)


def test_band_does_at_most_half_the_window_products_work():
    """On the oracles seed-1 components, the exact PMF's convolutions do at most half the whole windows' multiply-adds.

    Counted through ``np.convolve``: a full convolution of lengths u and v
    takes u v multiply-adds, a valid one (max - min + 1) min. Convolving the
    whole windows w1, w2 and w3 in turn would take w1 w2 + (w1 + w2) w3.
    """
    w1, w2, w3 = (len(montecarlo._binomial_count_pmf(count, p)[0]) for count, p in ORACLES_SEED_1)
    work, convolve = [0], np.convolve

    def counted(a, v, mode="full"):
        short, long = sorted((len(a), len(v)))
        work[0] += short * (long if mode == "full" else long - short + 1)
        return convolve(a, v, mode)

    with mock.patch.object(np, "convolve", counted):
        montecarlo._group_pmf(ORACLES_SEED_1)
    assert 0 < work[0] <= (w1 * w2 + (w1 + w2) * w3) / 2


def _units(x):
    """The double ``x`` as an exact integer multiple of 2**-1074, the least subnormal."""
    num, den = float(x).as_integer_ratio()
    return num * ((1 << 1074) // den)


@pytest.mark.parametrize("first, second", [((1100, 0.3), (1300, 0.62)), ((1500, 0.5), (1025, 0.15))])
def test_band_tails_are_the_exact_sums_of_their_terms(first, second):
    """Every banded output below 1e-280 is the exact sum of its terms, to 1e-13 plus half the least subnormal.

    The windows of two binomials just above ``PIECE`` reach into subnormals.
    Each output is compared with the exact integer sum of the products of
    the same doubles, in units of 2**-2148; it is 0 only where that sum
    rounds to 0. Scaling each block's slices to a largest entry in [1/2, 1)
    keeps the convolution off subnormal operands; without it the tails
    strayed up to 16 times this bound, and 6 such outputs read 0.
    """
    a, b = (montecarlo._binomial_count_pmf(count, p)[0] for count, p in (first, second))
    got = montecarlo._band_convolve(a, b)
    ua, ub = [_units(x) for x in a], [_units(x) for x in b]
    tail = np.flatnonzero(got < 1e-280).tolist()
    assert len(tail) > 100
    for k in tail:
        exact = sum(ua[i] * ub[k - i] for i in range(max(0, k - len(b) + 1), min(len(a) - 1, k) + 1))
        # |got - exact| <= 1e-13 exact + 2**-1075, all in units of 2**-2148.
        assert 10**13 * abs((_units(got[k]) << 1074) - exact) <= exact + 10**13 * (1 << 1073), k


@pytest.mark.parametrize("n", [1500, 20_000, 333_333])
def test_band_convolutions_see_no_subnormal_operand(n):
    """No ``np.convolve`` call of a tilted exact PMF gets an operand entry in (0, 2**-1022).

    x86 multiplies subnormals in microcode: one 1000 x 128 convolution took
    815-823 us with subnormal operands or products, 15 us without. Unscaled
    blocks sent one in 6 of 19, 38 of 138 and 134 of 562 calls at these n.
    """
    calls, convolve = [], np.convolve

    def spy(x, y, mode="full"):
        calls.append(any(np.any((v > 0.0) & (v < 2.0**-1022)) for v in (x, y)))
        return convolve(x, y, mode)

    with mock.patch.object(np, "convolve", spy):
        exact_total_distribution(_tilted((n,) * 3), Axis(0.8, 0.7))
    assert calls and not any(calls), f"{sum(calls)} of {len(calls)} calls"


def test_exact_distribution_guard_rejects_before_any_work():
    e = EnsembleSpec((_along_z(0.5, montecarlo.MAX_SUPPORT_POINTS),))
    with mock.patch.object(montecarlo, "_binomial_count_pmf", side_effect=AssertionError("built a PMF")):
        with pytest.raises(ValueError, match="exact-PMF guard"):
            exact_total_distribution(e, Z)


def _tilted(counts):
    """Components along distinct tilted axes, alternating + and - eigenstates."""
    return EnsembleSpec(tuple(
        EnsembleComponent(eigenstate(Axis(0.4 + 0.7 * i, 1.3 * i), SpinOutcome(1 - 2 * (i % 2))), count)
        for i, count in enumerate(counts)
    ))


def _repeated():
    """3 and 5 particles of one tilted state around 4 of another: the first and last share p+."""
    first, second = (eigenstate(Axis(0.4 + 0.7 * i, 1.3 * i), SpinOutcome.PLUS) for i in range(2))
    return EnsembleSpec((EnsembleComponent(first, 3), EnsembleComponent(second, 4), EnsembleComponent(first, 5)))


@st.composite
def sampled_ensembles(draw):
    """An ensemble and a measurement axis for the sampler cross-check.

    Up to three components of 0-90 particles. With a piece of 1-7
    particles, a component above the piece is a large one, cut into parts
    of at most the drawn part size, so a run may take up to 90 words a
    trial; the others share pieces, one word each. A run's trials may fill
    several draws, or one trial several column blocks. A component is an
    eigenstate either of the measurement axis (p+ exactly 0 or 1, so it
    takes no uniform) or of a random axis, so some ensembles draw nothing
    and some mix certain and random outcomes.
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
    piece=st.integers(1, 7),
    part=st.one_of(st.none(), st.integers(1, 8)),
    block=st.integers(1, 256),
)
# Every component is above the one-particle piece: three one-word runs, each
# drawn as four trials and then one against 4-word draws.
@example(case=(_tilted((6, 4, 3)), Axis(0.8, 0.7)), trials=5, seed=3, piece=1, part=None, block=4)
# Three one-word runs against 32-word draws: each run's five trials in one draw.
@example(case=(_tilted((6, 4, 3)), Axis(0.8, 0.7)), trials=5, seed=5, piece=1, part=None, block=32)
# Two large components' one-word runs ahead of four one-particle pieces: six
# runs, each drawn as four trials and then one.
@example(case=(_tilted((6, 1, 1, 1, 1, 3)), Axis(0.8, 0.7)), trials=5, seed=3, piece=1, part=None, block=4)
# At the real sizes: the large component's one word, then a piece of the 3
# particles; 2**64 - 1 as the key.
@example(case=(_tilted((3, 70_000)), Axis(1.1, 0.4)), trials=3, seed=2**64 - 1, piece=None, part=None, block=None)
# n = 13 at the real sizes: one piece mixes all three components, one word a
# trial, 5000 trials in one draw.
@example(case=(_tilted((6, 4, 3)), Axis(0.8, 0.7)), trials=5000, seed=2**64 + 1, piece=None, part=None, block=None)
# PIECE particles share pieces: 3 and 1021 of the next fill one, 3 are left.
# PIECE + 1 take a word of their own, ahead of the 3 particles' piece.
@example(case=(_tilted((3, montecarlo.PIECE)), Axis(1.1, 0.4)), trials=3, seed=11, piece=None, part=None, block=None)
@example(case=(_tilted((3, montecarlo.PIECE + 1)), Axis(1.1, 0.4)), trials=3, seed=11, piece=None, part=None, block=None)
# Preset B along x: two components at p+ = 1/2, bit-equal, merged into one
# of 10 particles, above the 3-particle piece: one word a trial.
@example(case=(make_ensemble_B(10), X), trials=7, seed=4, piece=3, part=None, block=None)
# The first and third components share p+: merged into 8 particles, above
# the 5-particle piece, so one word ahead of the second's 4-particle piece.
@example(case=(_repeated(), Z), trials=9, seed=6, piece=5, part=None, block=3)
# A component of no particles ahead of a later one with its p+: the merge
# order starts at the first particle, so the -z particle is laid out first.
@example(
    case=(EnsembleSpec((
        EnsembleComponent((0.0, 0.0, 1.0), 0),
        EnsembleComponent((0.0, 0.0, -1.0), 1),
        EnsembleComponent((0.0, 0.0, 1.0), 1),
    )), Axis(1.0, 0.0)),
    trials=2, seed=0, piece=1, part=None, block=1,
)
# Parts of at most 4 particles: 19 makes four of 4, one run of four words a
# trial, each trial in column blocks of 3 and 1 words, then one of 3; the 2
# particles make a piece.
@example(case=(_tilted((19, 2)), Axis(0.8, 0.7)), trials=3, seed=8, piece=2, part=4, block=3)
def test_run_trials_matches_reference_sampler(case, trials, seed, piece, part, block):
    """Trial by trial, ``run_trials`` counts what the plain reference sampler counts.

    The piece, part and draw sizes are shrunk at random, so which
    components take their own words, how many words a large one takes a
    trial, and where pieces, remainders, draws and column blocks end all
    vary; the words must still be taken from the one stream run by run, in
    layout order, and trial by trial within a run.
    """
    e, axis = case
    part, piece = part or montecarlo.MAX_SUPPORT_POINTS - 1, piece or montecarlo.PIECE
    with mock.patch.multiple(montecarlo, MAX_SUPPORT_POINTS=part + 1, PIECE=piece):
        with mock.patch.object(montecarlo, "_BLOCK_WORDS", block or montecarlo._BLOCK_WORDS):
            n_plus = run_trials(e, axis, trials, seed)
        assert np.array_equal(n_plus, run_trials(e, axis, trials, seed))
    assert n_plus.tolist() == reference_counts(e, axis, seed, trials, piece, part)


@pytest.mark.parametrize("counts, part, piece, block", [
    # Parts of at most 5 particles: 11 makes 4, 4 and 3; 7 makes 4 and 3; the
    # 2 and the 1 particles make a piece each. Each column is its own draw,
    # so the two words of 11's 4-particle parts fall in two draws.
    pytest.param((11, 2, 7, 1), 5, 2, 1, id="small"),
    # 2.5 * 10**6 particles make 833334, 833333 and 833333, then 40 particles
    # make a piece of their own.
    pytest.param((2_500_000, 40), None, None, None, id="real"),
])
def test_large_component_takes_one_word_per_part(counts, part, piece, block):
    """A component above ``PIECE`` is cut into parts of at most ``MAX_SUPPORT_POINTS`` - 1 particles, one word each.

    The parts of one component have at most two sizes, so it builds at most
    two CDFs, and every count is that of the plain reference sampler.
    """
    e, axis = _tilted(counts), Axis(1.1, 0.4)
    part = part or montecarlo.MAX_SUPPORT_POINTS - 1
    piece = piece or montecarlo.PIECE
    with mock.patch.multiple(
        montecarlo, MAX_SUPPORT_POINTS=part + 1, PIECE=piece, _BLOCK_WORDS=block or montecarlo._BLOCK_WORDS
    ):
        with mock.patch.object(montecarlo, "_word_cdf", wraps=montecarlo._word_cdf) as build:
            n_plus = run_trials(e, axis, 40, seed=7)
    sizes = []
    for count in counts:
        if count > piece:
            parts = -(-count // part)
            sizes += sorted({count // parts, -(-count // parts)}, reverse=True)
    assert [call.args[0][0][0] for call in build.call_args_list[: len(sizes)]] == sizes
    assert n_plus.tolist() == reference_counts(e, axis, 7, 40, piece, part)


PROBABILITIES = st.one_of(st.sampled_from([1e-3, 0.5, 0.999]), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))


@settings(max_examples=60, deadline=None)
@given(size=st.integers(1, montecarlo.PIECE), p=PROBABILITIES, seed=st.integers(0, 2**32 - 1))
@example(size=montecarlo.PIECE, p=0.5, seed=0)
@example(size=1, p=0.5, seed=0)
def test_bucket_table_inverts_like_the_search(size, p, seed):
    """Through its bucket table, a piece CDF inverts every word as the capped binary search does.

    Each CDF gets two tables: the least that ``run_trials`` builds, 4-8 buckets
    per entry, and one of ``_BLOCK_WORDS``, the most a small CDF's table
    can grow to, which for a small CDF holds thousands of buckets per
    entry, most of them with no entry at all. The words are every CDF entry
    and its neighbouring doubles, the first and last ``random()`` word of
    every bucket, both ends of [0, 1) and random words; the counting table
    builder must equal the per-bucket search.
    """
    pmf, _ = montecarlo._binomial_count_pmf(size, p)
    cdf = np.cumsum(pmf)
    for buckets in sorted({4 << len(cdf).bit_length(), montecarlo._BLOCK_WORDS}):
        table = montecarlo._guide(cdf[:-1], buckets)
        assert np.array_equal(table, reference_guide(cdf[:-1], buckets))
        starts = np.arange(buckets) / buckets
        words = np.concatenate([
            cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0), starts, starts + (1.0 / buckets - 2.0**-53),
            [0.0, 1.0 - 2.0**-53], np.random.default_rng(seed).random(1000),
        ])
        words = words[(words >= 0.0) & (words < 1.0)]
        expected = np.minimum(np.searchsorted(cdf, words, "right"), len(cdf) - 1)
        assert np.array_equal(montecarlo._invert(words, cdf[:-1], table), expected)
        assert np.array_equal(montecarlo._invert(words, cdf[:-1], None), expected)


@pytest.mark.parametrize("trials, tables, block, part", [
    pytest.param(31, [], None, None, id="31-tables0"),
    pytest.param(32, [(5, 32)], None, None, id="32-tables1"),
    pytest.param(2048, [(5, 2048), (473, 2048)], None, None, id="2048-tables2"),
    pytest.param(5000, [(5, 4096), (473, 4096)], None, None, id="5000-tables3"),
    pytest.param(10_000, [(5, 8192), (473, 8192)], None, None, id="10000-tables4"),
    # Parts of at most 514 particles and draws of two words: the merged
    # component's run of three 513-particle words spans two column blocks.
    pytest.param(5000, [(5, 32), (232, 1024), (233, 1024)], 2, 514, id="5000-column-blocks"),
])
def test_tables_are_built_for_the_cdfs_that_invert_enough_words(trials, tables, block, part):
    """A CDF gets a bucket table when it inverts at least its least table's buckets in its run.

    The least table has the power of two that is 4-8 times the CDF's full
    length. A built table has the largest power of two at most the words
    the CDF inverts in one draw, but never fewer buckets than the least.
    Along z, PIECE particles at p+ = 0.39, 5 at p+ = 0.96, then PIECE + 5
    more at p+ = 0.39: the first and last components are merged into
    2 * PIECE + 5 particles, which take one word, inverting the 474-entry
    CDF of their binomial's window (least 2048 buckets). The 5 at p+ = 0.96
    make one piece with a 6-entry CDF (least 32 buckets, one word a trial).
    Each is a one-word run, drawn alone, and a draw of ``_BLOCK_WORDS`` =
    16384 words holds all its trials here. So 31 trials build no table, 32
    the small one at its least, 2048 both at 2048 buckets, 5000 at 4096 and
    10000 at 8192, the largest powers of two at most the words they invert.

    Cut into parts of at most 514 particles, the merged component takes a
    word of 514 particles and three of 513 (least 1024 buckets each). With
    draws of two words, the three-word run's trials each span two column
    blocks, so its table stays at its least, not at the 15000 words it
    inverts in all. Both inversion paths must count as the reference does.
    """
    states = [eigenstate(Axis(0.4 + 0.7 * i, 1.3 * i), SpinOutcome.PLUS) for i in (2, 0)]
    counts = [(states[0], montecarlo.PIECE), (states[1], 5), (states[0], montecarlo.PIECE + 5)]
    e = EnsembleSpec(tuple(EnsembleComponent(state, count) for state, count in counts))
    part = part or montecarlo.MAX_SUPPORT_POINTS - 1
    with mock.patch.object(montecarlo, "_guide", wraps=montecarlo._guide) as guide:
        with mock.patch.multiple(
            montecarlo, MAX_SUPPORT_POINTS=part + 1, _BLOCK_WORDS=block or montecarlo._BLOCK_WORDS
        ):
            n_plus = run_trials(e, Z, trials, seed=9)
    assert sorted((len(call.args[0]), call.args[1]) for call in guide.call_args_list) == tables
    assert n_plus.tolist() == reference_counts(e, Z, 9, trials, montecarlo.PIECE, part)


# Positive counts only, as ``_component_probabilities`` leaves out empty
# components; six of 2**35 at 2 trials stay within the word budget.
COUNTS = st.one_of(
    st.integers(1, 3000),
    st.integers(1, 2**35),
    st.sampled_from([montecarlo.PIECE - 1, montecarlo.PIECE, montecarlo.PIECE + 1, 2 * montecarlo.MAX_SUPPORT_POINTS]),
)


@settings(max_examples=80, deadline=None)
@given(probs=st.lists(
    st.tuples(COUNTS, st.one_of(st.sampled_from([0.0, 1.0, 0.5, 0.25]), st.floats(0.0, 1.0))),
    min_size=1,
    max_size=6,
))
# Two bit-equal p+ apart: merged into 2 * PIECE particles, one word, not four.
@example(probs=[(montecarlo.PIECE - 1, 0.5), (1, 0.25), (montecarlo.PIECE + 1, 0.5)])
# Parts of 1000001 particles less one each, ahead of a piece shared by two
# components of PIECE / 2.
@example(probs=[(montecarlo.PIECE // 2, 0.3), (2 * montecarlo.MAX_SUPPORT_POINTS, 0.5), (montecarlo.PIECE // 2, 0.7)])
def test_width_is_one_word_per_part_and_per_piece(probs):
    """A trial takes one word per part of each large component, plus ceil(other random particles / PIECE).

    Bit-equal p+ are merged in order of first appearance. Each merged
    component above PIECE takes ceil(count / (MAX_SUPPORT_POINTS - 1))
    words first, in that order, over at most two part sizes, the larger
    first. Laid end to end, the pieces' parts then list the other merged
    components' particles once, in order, and every piece but the last
    holds exactly PIECE particles. No two runs have the same parts.
    """
    merged = {}
    for count, p in probs:
        if 0.0 < p < 1.0:
            merged[p] = merged.get(p, 0) + count
    large = {p: count for p, count in merged.items() if count > montecarlo.PIECE}
    small = [(p, count) for p, count in merged.items() if p not in large]
    part = montecarlo.MAX_SUPPORT_POINTS - 1
    certain, layout = montecarlo._pieces(probs, 2)
    words = {p: -(-count // part) for p, count in large.items()}
    width = sum(words.values()) + -(-sum(count for _, count in small) // montecarlo.PIECE)
    assert sum(taken for taken, _ in layout) == width
    assert certain == sum(count for count, p in probs if p == 1.0)
    assert len({parts for _, parts in layout}) == len(layout)
    split = sum(1 if count % words[p] == 0 else 2 for p, count in large.items())
    sizes = {}
    for taken, ((count, p), *rest) in layout[:split]:
        assert not rest and count <= part
        sizes.setdefault(p, []).extend([count] * taken)
    assert list(sizes) == list(large)
    for p, counts in sizes.items():
        assert len(counts) == words[p] and sum(counts) == large[p]
        assert counts == sorted(counts, reverse=True) and counts[0] - counts[-1] <= 1
    pieces = layout[split:]
    assert all(taken == 1 for taken, _ in pieces)
    assert all(sum(count for count, _ in parts) == montecarlo.PIECE for _, parts in pieces[:-1])
    laid = [(p, sum(count for _, count in run)) for p, run in itertools.groupby(
        ((p, count) for _, parts in pieces for count, p in parts), key=lambda item: item[0]
    )]
    assert laid == small


def test_headline_b_along_x_draws_one_word_per_trial():
    """Preset B's two 500-particle halves share p+ = 1/2 along x: one 1000-particle piece, one word a trial."""
    e = make_ensemble_B(1000)
    certain, layout = montecarlo._pieces(montecarlo._component_probabilities(e, X), 10_000)
    assert (certain, [words for words, _ in layout]) == (0, [1])
    assert run_trials(e, X, 300, seed=8).tolist() == reference_counts(e, X, 8, 300, montecarlo.PIECE)


@pytest.mark.parametrize("e, axis, digest", [
    pytest.param(
        make_ensemble_B(1000), X, "dd1468d921bfbab23d55f493fdcf8a3bd86c6804d97a5115e8ddeb61a070d55a", id="B-x-n1000"
    ),
    pytest.param(
        _tilted((20_000, 20_000, 20_000)), Axis(0.8, 0.7),
        "8151e2d20f2f8e25e729491647e738e1844cd0afabb23c87bbc678ea9185d800", id="tilted-3x20000",
    ),
])
def test_exact_distribution_bytes_are_pinned(e, axis, digest):
    """``exact_total_distribution`` convolves every component in order, unmerged: its bytes are pinned.

    The B digest pins two components of 500, each built by binary-power
    ``_mix`` steps and then mixed together, with no BLAS call, so it holds
    on every CPU. The tilted digest pins components above ``PIECE``, built
    by the ratio recurrence and convolved over each output's band.
    """
    dist = exact_total_distribution(e, axis)
    assert hashlib.sha256(dist.probabilities.tobytes()).hexdigest() == digest


def _chi_square(e, axis, trials, seed):
    """Chi-square of ``trials`` sampled totals against ``exact_total_distribution``: ``(chi2, df, threshold)``.

    Adjacent totals are merged until each bin expects at least 20 trials. The
    threshold is the Wilson-Hilferty chi-square quantile at 1 - 1e-6, so a
    correct sampler exceeds it for a given seed with probability 9.5e-7.
    """
    n_plus = run_trials(e, axis, trials, seed)
    dist = exact_total_distribution(e, axis)
    index = np.searchsorted(dist.support, 2 * n_plus - e.total_count)
    assert np.array_equal(dist.support[index], 2 * n_plus - e.total_count)

    expected = dist.probabilities * trials
    starts, filled = [0], 0.0
    for i, m in enumerate(expected[:-1]):
        filled += m
        if filled >= 20.0:
            starts.append(i + 1)
            filled = 0.0
    if expected[starts[-1]:].sum() < 20.0:
        starts.pop()
    observed = np.add.reduceat(np.bincount(index, minlength=len(expected)), starts)
    expected = np.add.reduceat(expected, starts)
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    df = len(starts) - 1
    z = statistics.NormalDist().inv_cdf(1.0 - 1e-6)
    return chi2, df, df * (1.0 - 2.0 / (9 * df) + z * math.sqrt(2.0 / (9 * df))) ** 3


@pytest.mark.parametrize("seed", [1, 2])
def test_totals_follow_the_exact_distribution(seed):
    """Chi-square of 2*10**5 sampled totals against ``exact_total_distribution``.

    Four tilted components of 1500, 1100, 700 and 2100 particles. The three
    above ``PIECE`` each take one word per trial, inverted through their own
    window CDFs, and the 700 fill a piece of their own, so no piece mixes
    components. The bins give 128 degrees of
    freedom and a threshold of 219.2; both seeds together fail a correct
    sampler with probability about 2e-6. The seeds are fixed, so the outcome
    does not change between runs; seeds 1 and 2 give 139.8 and 159.4, and
    seeds 1-20 average 129.9.
    """
    chi2, df, threshold = _chi_square(_tilted((1500, 1100, 700, 2100)), Axis(0.8, 0.7), 200_000, seed)
    assert df >= 100
    assert chi2 <= threshold, (chi2, df, threshold)


@pytest.mark.parametrize("seed", [1, 2])
def test_mixed_piece_follows_the_exact_distribution(seed):
    """Chi-square, as above, of one piece that mixes three components against ``exact_total_distribution``.

    Components of 400, 300 and 324 particles fill exactly one piece, so every
    trial's total is one word inverted through the convolution of three
    binomials, at p+ = 0.40, 0.21 and 0.53. The bins give 106 degrees of
    freedom and a threshold of 190.4; seeds 1 and 2 give 107.4 and 98.8, and
    seeds 1-20 average 107.3.
    """
    e, axis = _tilted((400, 300, montecarlo.PIECE - 700)), Axis(2.0, 1.0)
    assert [words for words, _ in montecarlo._pieces(montecarlo._component_probabilities(e, axis), 2)[1]] == [1]
    chi2, df, threshold = _chi_square(e, axis, 200_000, seed)
    assert df >= 100
    assert chi2 <= threshold, (chi2, df, threshold)


def test_peak_memory_does_not_grow_with_the_ensemble():
    """2**38 and 2**40 particles peak alike, at about 1.6 MiB.

    A trial of 2**40 particles in two components takes 1099514 words, one
    per part of at most MAX_SUPPORT_POINTS - 1 particles, 67 times the words
    of one draw, so it is drawn in column blocks; holding all its words at
    once would take 8.4 MiB. Each component builds two CDFs of at most 10791
    entries, and at both sizes all four invert enough words to get a bucket
    table.
    """
    peaks = []
    for k in (38, 40):
        tracemalloc.start()
        try:
            run_trials(_tilted((2 ** (k - 1), 2 ** (k - 1))), Z, 2, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]
    assert peaks[1] < 4 * 2**20


def test_table_memory_does_not_grow_with_the_pieces():
    """32 and 128 pieces of few-entry CDFs at 4096 trials peak within 128 KiB of each other, below 1 MiB.

    Each piece holds PIECE particles at its own p+ within 1.3e-4 of 1, so
    its CDF has 7-13 entries (least table 64 buckets) and is a one-word run
    that inverts 4096 words in one draw, through a table of 4096 buckets.
    Each run's table is dropped when the next run builds its own, so when a
    table is built at most one earlier table is still alive, and no table
    holds more than ``_BLOCK_WORDS`` = 16384 buckets or its least, however
    many pieces a trial has. The peaks read 160-175 and 190-210 KiB;
    holding all 128 tables of 4096 buckets at once read 1.4 MiB.
    """
    def pieces(k):
        return EnsembleSpec(tuple(_along_z(1.0 - 1e-6 * (i + 1), montecarlo.PIECE) for i in range(k)))

    run_trials(pieces(2), Z, 4096, seed=1)
    peaks = []
    for k in (32, 128):
        tracemalloc.start()
        try:
            run_trials(pieces(k), Z, 4096, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2**17, peaks
    assert peaks[1] < 2**20, peaks

    built, build = [], montecarlo._guide

    def guide(cdf, buckets):
        assert sum(table() is not None for table in built) <= 1
        table = build(cdf, buckets)
        assert len(table) <= max(4 << (len(cdf) + 1).bit_length(), montecarlo._BLOCK_WORDS)
        built.append(weakref.ref(table))
        return table

    with mock.patch.object(montecarlo, "_guide", guide):
        run_trials(pieces(128), Z, 4096, seed=1)
    assert len(built) == 128


def test_each_run_is_inverted_in_one_call_per_draw(monkeypatch):
    """128 one-word pieces at 4096 trials: each run's 4096 words are one draw, so 128 ``_invert`` calls in all.

    ``_pieces`` only lays the runs out: with ``_word_cdf`` and ``_guide``
    patched to raise, it still returns one ``(1, parts)`` run per piece.
    """
    e = EnsembleSpec(tuple(_along_z(1.0 - 1e-6 * (i + 1), montecarlo.PIECE) for i in range(128)))
    with mock.patch.object(montecarlo, "_invert", wraps=montecarlo._invert) as invert:
        run_trials(e, Z, 4096, seed=1)
    assert invert.call_count == 128
    assert all(call.args[0].shape == (4096, 1) for call in invert.call_args_list)
    for name in ("_word_cdf", "_guide"):
        monkeypatch.setattr(montecarlo, name, lambda *args: pytest.fail("_pieces built a CDF or a table"))
    certain, layout = montecarlo._pieces(montecarlo._component_probabilities(e, Z), 4096)
    assert (certain, [words for words, _ in layout]) == (0, [1] * 128)


def _no_work(*args, **kwargs):
    raise AssertionError("built a CDF or opened a random stream for outcomes that are certain")


def test_certain_outcomes_draw_no_uniforms(monkeypatch):
    monkeypatch.setattr(np.random, "Philox", _no_work)
    n_plus = run_trials(make_ensemble_A(1000), X, 50, seed=3)
    assert n_plus.tolist() == [500] * 50
    n_plus = run_trials(make_ensemble_B(1000), Z, 50, seed=3)
    assert n_plus.tolist() == [500] * 50
    along_x = EnsembleSpec((
        EnsembleComponent(eigenstate(X, SpinOutcome.PLUS), 3),
        EnsembleComponent(eigenstate(X, SpinOutcome.MINUS), 5),
    ))
    totals = 2 * run_trials(along_x, X, 10, seed=0) - 8
    assert totals.mean() == -2.0 and totals.var(ddof=1) == 0.0


def test_largest_certain_ensemble_builds_nothing(monkeypatch):
    """2**53 particles with certain outcomes: no CDF and no stream, so it returns at once."""
    monkeypatch.setattr(np.random, "Philox", _no_work)
    monkeypatch.setattr(montecarlo, "_word_cdf", _no_work)
    e = EnsembleSpec((
        EnsembleComponent(eigenstate(Z, SpinOutcome.PLUS), 2**52 + 1),
        EnsembleComponent(eigenstate(Z, SpinOutcome.MINUS), 2**52 - 1),
    ))
    n_plus = run_trials(e, Z, 1000, seed=5)
    assert n_plus.tolist() == [2**52 + 1] * 1000
    totals = 2 * n_plus - 2**53
    assert (totals.mean(), totals.var(ddof=1), totals.min(), totals.max()) == (2.0, 0.0, 2, 2)

