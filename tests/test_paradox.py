"""Unit tests for the variance-operator contradiction."""

import math
import time
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import matrix, quantum_expectation, reference_affine_fit, states
from hypothesis import given

from spinstat import paradox
from spinstat.paradox import (
    _best_affine_fit,
    _sphere_rows,
    annihilation_residual,
    expectation,
    fixed_operator_infeasibility,
    variance_pseudo_operator,
)
from spinstat.spin import ConfigError, SpinOutcome, X, Y, Z, eigenstate, state_mean_and_variance

RMS_LIMIT = math.sqrt(4.0 / 45.0)  # best-possible rms residual over the sphere
MAX_LIMIT = 2.0 / 3.0


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
        _, variance = state_mean_and_variance(state, X)
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

        monkeypatch.setattr(paradox, "_sphere_rows", no_draw)
        with pytest.raises(ConfigError, match=f"field '{field}'") as info:
            fixed_operator_infeasibility(samples, seed)
        assert info.value.path == field

    @pytest.mark.parametrize(
        "samples", [100, 1000, paradox._FIT_BLOCK - 1, paradox._FIT_BLOCK, paradox._FIT_BLOCK + 1,
                    3 * paradox._FIT_BLOCK + 5, 10**5]
    )
    @pytest.mark.parametrize("seed", range(5))
    def test_normal_equations_match_the_svd_fit(self, samples, seed):
        # float64 with a Gram condition number near 3: far inside 1e-13, also
        # when the last block of columns is short or holds a single column
        assert_allclose(fixed_operator_infeasibility(samples, seed), reference_affine_fit(samples, seed), rtol=1e-13)

    @staticmethod
    def _peak_bytes(samples):
        tracemalloc.start()
        try:
            fixed_operator_infeasibility(samples, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_per_sample(self):
        samples = 10**5
        fixed_operator_infeasibility(samples, seed=1)  # warm-up: lazy numpy/LAPACK set-up
        peak = self._peak_bytes(samples)
        # the 4 x n sample array is 32 bytes per sample; the targets and the
        # residuals are made per block, in block-sized temporaries
        assert peak <= 48 * samples, peak / samples
        # each added sample costs its column and nothing more: an n-long
        # targets vector would make the slope about 40 bytes
        slope = (self._peak_bytes(4 * samples) - peak) / (3 * samples)
        assert slope <= 34, slope

    def test_fit_runs_on_one_core(self):
        """The fit's BLAS calls are small enough that no second thread works or spins.

        A BLAS call over all 10**6 columns runs on every core of the bundled
        OpenBLAS, whose workers then busy-wait: CPU time reached about twice
        the wall time on a 2-core box. The pool is woken first and given time
        to fall idle, so spinning left by earlier calls does not count. The
        first fit is not timed: on a pool that has fallen idle it ran near one
        core even with calls over all columns, before its workers spun.
        """
        a = np.ones((4, 10**6))
        a @ a.T
        time.sleep(0.2)
        fixed_operator_infeasibility(10**6, seed=0)
        ratios = []
        for _ in range(3):
            cpu, wall = time.process_time(), time.perf_counter()
            fixed_operator_infeasibility(10**6, seed=0)
            ratios.append((time.process_time() - cpu) / (time.perf_counter() - wall))
        assert min(ratios) <= 1.3, ratios

    def test_states_do_not_depend_on_the_chunk_size(self, monkeypatch):
        default = np.array(fixed_operator_infeasibility(5000, seed=2))
        monkeypatch.setattr(paradox, "_PAIR_CHUNK", 7)
        assert np.array(fixed_operator_infeasibility(5000, seed=2)).tobytes() == default.tobytes()

    def test_states_of_n_samples_begin_the_states_of_more(self):
        n = 5000
        assert np.array_equal(_sphere_rows(n, seed=3), _sphere_rows(n + 1000, seed=3)[:, :n])

    def test_states_are_unit_vectors(self):
        m = _sphere_rows(10**5, seed=5)[1:]
        assert np.abs(np.sqrt(np.sum(m**2, axis=0)) - 1.0).max() <= 4 * np.finfo(float).eps

    def test_states_are_uniform_on_the_sphere(self):
        n = 2 * 10**5
        m = _sphere_rows(n, seed=6)[1:]
        # uniform on the sphere: E[m_i] = 0 with variance 1/3, and
        # E[m_i m_j] = delta_ij/3 with variance 4/45 on the diagonal, 1/15 off it
        assert np.all(np.abs(m.mean(axis=1)) <= 6 * math.sqrt(1 / 3 / n))
        se = np.sqrt(np.where(np.eye(3, dtype=bool), 4 / 45, 1 / 15) / n)
        assert np.all(np.abs(m @ m.T / n - np.eye(3) / 3) <= 6 * se)

    def test_fit_is_exact_on_a_spherical_5_design(self):
        # the 12 icosahedron vertices integrate every polynomial of degree <= 5
        # over the sphere exactly, and the fit's moments are of degree <= 4
        g = (1 + math.sqrt(5)) / 2
        corners = np.array([(0.0, a, b * g) for a in (1, -1) for b in (1, -1)])
        vertices = np.concatenate([np.roll(corners, k, axis=1) for k in range(3)]) / math.hypot(1, g)
        rows = np.vstack([np.ones(12), vertices.T])
        rms, _ = _best_affine_fit(rows)
        assert abs(rms - RMS_LIMIT) <= 1e-15


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
