"""Unit tests for the variance-operator contradiction."""

import math
import time
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import marsaglia_states, matrix, quantum_expectation, reference_residuals, states
from hypothesis import given, settings
from hypothesis import strategies as st

from spinstat import paradox
from spinstat.paradox import (
    annihilation_residual,
    expectation,
    fixed_operator_infeasibility,
    variance_pseudo_operator,
)
from spinstat.ensemble import EnsembleComponent, EnsembleSpec
from spinstat.montecarlo import preparation_aware_prediction
from spinstat.spin import ConfigError, SpinOutcome, X, Y, Z, eigenstate

RMS_LIMIT = math.sqrt(4.0 / 45.0)  # best-possible rms residual over the sphere
MAX_LIMIT = 2.0 / 3.0
# Variance of the squared residual (m_x^2 - 1/3)^2 for m_x uniform on [-1, 1]: 16/945 - (4/45)^2.
SQUARE_VARIANCE = 16.0 / 945.0 - (4.0 / 45.0) ** 2


def icosahedron() -> np.ndarray:
    """The 12 unit vertices of the icosahedron, a spherical 5-design, as rows."""
    g = (1 + math.sqrt(5)) / 2
    corners = np.array([(0.0, a, b * g) for a in (1, -1) for b in (1, -1)])
    return np.concatenate([np.roll(corners, k, axis=1) for k in range(3)]) / math.hypot(1, g)


def affine_fit(bloch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The least-squares (SVD) fit of a + b.m to 1 - m_x^2 over the rows of ``bloch``: (coefficients, residuals)."""
    design = np.column_stack([np.ones(len(bloch)), bloch])
    targets = 1.0 - bloch[:, 0] ** 2
    coef, *_ = np.linalg.lstsq(design, targets, rcond=None)
    return coef, design @ coef - targets


class TestVariancePseudoOperator:
    def test_x_plus_member_matrix(self):
        op = variance_pseudo_operator(eigenstate(X, SpinOutcome.PLUS))
        assert op == (2.0, (-2.0, 0.0, 0.0))
        assert_allclose(matrix(*op), [[2.0, -2.0], [-2.0, 2.0]], atol=1e-12)

    def test_z_plus_member_is_identity(self):
        op = variance_pseudo_operator(eigenstate(Z, SpinOutcome.PLUS))
        assert_allclose(matrix(*op), [[1.0, 0.0], [0.0, 1.0]], atol=1e-15)

    def test_y_plus_member_is_identity(self):
        op = variance_pseudo_operator(eigenstate(Y, SpinOutcome.PLUS))
        assert_allclose(matrix(*op), [[1.0, 0.0], [0.0, 1.0]], atol=1e-15)

    @given(states())
    def test_expectation_on_source_is_the_x_variance(self, state):
        op = variance_pseudo_operator(state)
        _, variance = preparation_aware_prediction(EnsembleSpec((EnsembleComponent(state, 1),)), X)
        assert_allclose(expectation(op, state), variance, atol=1e-9)
        assert_allclose(quantum_expectation(matrix(*op), state), variance, atol=1e-9)

    @given(states())
    def test_member_is_positive_semidefinite_on_samples(self, state):
        op = variance_pseudo_operator(eigenstate(X, SpinOutcome.PLUS))
        assert expectation(op, state) >= -1e-12
        assert np.linalg.eigvalsh(matrix(*variance_pseudo_operator(state)))[0] >= -1e-12


class TestNullOperatorContradiction:
    def test_x_eigenstates_are_annihilated_by_their_members(self):
        for sign in (SpinOutcome.PLUS, SpinOutcome.MINUS):
            assert annihilation_residual(eigenstate(X, sign)) == 0.0

    def test_witness_pair(self):
        x_plus, z_plus = eigenstate(X, SpinOutcome.PLUS), eigenstate(Z, SpinOutcome.PLUS)
        zero_op, nonzero_op = variance_pseudo_operator(x_plus), variance_pseudo_operator(z_plus)
        assert zero_op == variance_pseudo_operator(x_plus)
        assert nonzero_op == variance_pseudo_operator(z_plus)
        assert abs(expectation(zero_op, x_plus)) <= 1e-12
        assert abs(expectation(nonzero_op, z_plus) - 1.0) <= 1e-12

    def test_family_members_differ(self):
        zero_op = variance_pseudo_operator(eigenstate(X, SpinOutcome.PLUS))
        nonzero_op = variance_pseudo_operator(eigenstate(Z, SpinOutcome.PLUS))
        gap = np.abs(matrix(*zero_op) - matrix(*nonzero_op)).max()
        assert_allclose(gap, 2.0, atol=1e-12)


class TestFixedOperatorInfeasibility:
    def test_residuals_converge_to_closed_form(self):
        rms, max_res = fixed_operator_infeasibility(100_000, seed=0)
        assert_allclose(rms, RMS_LIMIT, rtol=0.02)
        assert_allclose(max_res, MAX_LIMIT, rtol=0.05)

    def test_deterministic_for_fixed_seed(self):
        assert fixed_operator_infeasibility(5000, seed=4) == fixed_operator_infeasibility(5000, seed=4)

    def test_residual_floor_holds_for_any_seed(self):
        # no sample set can beat the continuum optimum by much; allow small-N noise downward
        for seed in range(5):
            rms, _ = fixed_operator_infeasibility(20_000, seed=seed)
            assert rms > 0.9 * RMS_LIMIT

    def test_rejects_tiny_sample_counts(self):
        with pytest.raises(ValueError):
            fixed_operator_infeasibility(10, seed=0)

    @pytest.mark.parametrize(
        "samples, seed, field", [(paradox.MAX_PARADOX_SAMPLES + 1, 0, "samples"), (1000, -1, "seed")]
    )
    def test_rejects_bad_arguments_before_drawing(self, monkeypatch, samples, seed, field):
        """A library caller gets the CLI's bounds: a ``ConfigError`` naming the field, before any state."""
        def no_draw(*args):
            raise AssertionError("drew states for rejected arguments")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(ConfigError, match=f"field '{field}'") as info:
            fixed_operator_infeasibility(samples, seed)
        assert info.value.path == field

    @pytest.mark.parametrize(
        "samples", [100, 1000, paradox._CHUNK - 1, paradox._CHUNK, paradox._CHUNK + 1, 3 * paradox._CHUNK + 5, 10**5]
    )
    @pytest.mark.parametrize("seed", range(5))
    def test_normal_equations_match_the_svd_fit(self, samples, seed):
        """(2/3) I solves the sphere's normal equations: the SVD fit over random states lands on it.

        The SVD fit over ``marsaglia_states`` lies within 6 standard errors
        of (2/3, 0, 0, 0); with residual r = m_x^2 - 1/3, the coefficients'
        variances E[r^2] / n and 9 E[m_i^2 r^2] / n are at most 0.42 / n.
        The function's residuals of (2/3) I are the plain-Python
        reference's: the max bit for bit, the rms far inside 1e-13, also
        when the last chunk is short or holds a single state.
        """
        coef, _ = affine_fit(marsaglia_states(samples, seed))
        assert np.abs(coef - [MAX_LIMIT, 0.0, 0.0, 0.0]).max() <= 6 * 0.65 / math.sqrt(samples), coef
        rms, max_res = fixed_operator_infeasibility(samples, seed)
        ref_rms, ref_max = reference_residuals(samples, seed)
        assert max_res == ref_max
        assert_allclose(rms, ref_rms, rtol=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(100, 4 * paradox._CHUNK), st.integers(0, 2**64 - 1))
    def test_max_residual_never_exceeds_two_thirds(self, samples, seed):
        # each rounding of (3 m_x^2 - 1) / 3 is monotone, and 3 m_x^2 - 1 is at most 2
        assert fixed_operator_infeasibility(samples, seed)[1] <= MAX_LIMIT

    @staticmethod
    def _peak_bytes(samples):
        tracemalloc.start()
        try:
            fixed_operator_infeasibility(samples, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_per_sample(self):
        """Peak memory does not grow with the sample count: the states are drawn and reduced a chunk at a time."""
        fixed_operator_infeasibility(10**6, seed=1)  # warm-up: lazy numpy set-up
        peak = self._peak_bytes(10**6)
        assert peak <= 4 * 8 * paradox._CHUNK, peak
        assert peak <= self._peak_bytes(4 * 10**5), peak

    def test_fit_runs_on_one_core(self):
        """The measurement runs on the calling thread: its CPU time stays within 1.3 times its wall time.

        A second thread that worked or spun during a 10**6-sample run, as a
        BLAS pool over all columns did (about twice the wall time on a 2-core
        box), would push the ratio toward the core count. The least of three
        runs is taken.
        """
        ratios = []
        for _ in range(3):
            cpu, wall = time.process_time(), time.perf_counter()
            fixed_operator_infeasibility(10**6, seed=0)
            ratios.append((time.process_time() - cpu) / (time.perf_counter() - wall))
        assert min(ratios) <= 1.3, ratios

    def test_states_do_not_depend_on_the_chunk_size(self, monkeypatch):
        rms, max_res = fixed_operator_infeasibility(5000, seed=2)
        monkeypatch.setattr(paradox, "_CHUNK", 7)
        chunked_rms, chunked_max = fixed_operator_infeasibility(5000, seed=2)
        # the chunk groups the sums, so only the rms may move, in its last bits
        assert chunked_max == max_res
        assert_allclose(chunked_rms, rms, rtol=1e-13)

    def test_states_of_n_samples_begin_the_states_of_more(self):
        n = 5000
        u = np.random.default_rng(3).random(n + 1000)
        residuals = np.abs(3.0 * np.square(2.0 * u - 1.0) - 1.0) / 3.0
        assert fixed_operator_infeasibility(n, seed=3)[1] == residuals[:n].max()
        assert fixed_operator_infeasibility(n + 1000, seed=3)[1] == residuals.max()

    def test_states_are_uniform_on_the_sphere(self):
        """Archimedes: m_x of a state uniform on the sphere is uniform on [-1, 1], as the function draws it.

        The mean squared residual (m_x^2 - 1/3)^2 over Marsaglia's states,
        which are unit vectors, and the function's squared rms both lie
        within 6 standard errors of 4/45.
        """
        n = 2 * 10**5
        m = marsaglia_states(n, seed=6)
        assert np.abs(np.sqrt(np.sum(m**2, axis=1)) - 1.0).max() <= 4 * np.finfo(float).eps
        bound = 6 * math.sqrt(SQUARE_VARIANCE / n)
        assert abs(np.mean((m[:, 0] ** 2 - 1.0 / 3.0) ** 2) - RMS_LIMIT**2) <= bound
        assert abs(fixed_operator_infeasibility(n, seed=6)[0] ** 2 - RMS_LIMIT**2) <= bound

    def test_fit_is_exact_on_a_spherical_5_design(self):
        # the 12 icosahedron vertices integrate every polynomial of degree <= 5
        # over the sphere exactly, and the fit's moments are of degree <= 4, so
        # its fit is the sphere's: (2/3) I with rms sqrt(4/45)
        coef, residuals = affine_fit(icosahedron())
        assert np.abs(coef - [MAX_LIMIT, 0.0, 0.0, 0.0]).max() <= 1e-15, coef
        assert abs(math.sqrt(np.mean(residuals**2)) - RMS_LIMIT) <= 1e-15


def test_direct_variance_check_numpy():
    """Independent numpy cross-check of the member operator definition."""
    rng = np.random.default_rng(42)
    sx = matrix(0.0, X.bloch())
    for _ in range(25):
        raw = rng.standard_normal(4)
        vec = (raw[:2] + 1j * raw[2:]).astype(complex)
        vec = vec / np.linalg.norm(vec)
        e_val = float(np.real(vec.conj() @ sx @ vec))
        member = (sx - e_val * np.eye(2)) @ (sx - e_val * np.eye(2))
        # the Bloch vector <vec|sigma|vec> of the spinor
        a0, a1 = vec
        cross = np.conj(a0) * a1
        state = (2.0 * cross.real, 2.0 * cross.imag, abs(a0) ** 2 - abs(a1) ** 2)
        op = variance_pseudo_operator(state)
        assert_allclose(matrix(*op), member, atol=1e-12)
