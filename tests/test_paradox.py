"""Unit tests for the variance-operator contradiction."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import spinors
from hypothesis import given

from spinstat.paradox import (
    annihilation_residual,
    fixed_operator_infeasibility,
    null_operator_contradiction,
    variance_pseudo_operator,
)
from spinstat.qcore import Spinor, expectation
from spinstat.spin import SpinOutcome, X, Y, Z, eigenstate, spin_operator, state_mean_and_variance

RMS_LIMIT = math.sqrt(4.0 / 45.0)  # best-possible rms residual over the sphere
MAX_LIMIT = 2.0 / 3.0


class TestVariancePseudoOperator:
    def test_x_plus_member_matrix(self):
        op = variance_pseudo_operator(eigenstate(X, SpinOutcome.PLUS))
        assert_allclose(op.matrix, [[2.0, -2.0], [-2.0, 2.0]], atol=1e-12)

    def test_z_plus_member_is_identity(self):
        op = variance_pseudo_operator(eigenstate(Z, SpinOutcome.PLUS))
        assert_allclose(op.matrix, [[1.0, 0.0], [0.0, 1.0]], atol=1e-15)

    def test_y_plus_member_is_identity(self):
        op = variance_pseudo_operator(eigenstate(Y, SpinOutcome.PLUS))
        assert_allclose(op.matrix, [[1.0, 0.0], [0.0, 1.0]], atol=1e-15)

    @given(spinors())
    def test_expectation_on_source_is_the_x_variance(self, state):
        op = variance_pseudo_operator(state)
        _, variance = state_mean_and_variance(state, X)
        assert_allclose(expectation(op, state), variance, atol=1e-9)

    @given(spinors())
    def test_member_is_positive_semidefinite_on_samples(self, state):
        op = variance_pseudo_operator(eigenstate(X, SpinOutcome.PLUS))
        assert expectation(op, state) >= -1e-12


class TestNullOperatorContradiction:
    def test_x_eigenstates_are_annihilated_by_their_members(self):
        for sign in (SpinOutcome.PLUS, SpinOutcome.MINUS):
            assert annihilation_residual(eigenstate(X, sign)) < 1e-12

    def test_witness_pair(self):
        zero_report, nonzero_report = null_operator_contradiction()
        assert zero_report.annihilates_sx_eigenstates
        assert nonzero_report.annihilates_sx_eigenstates
        assert abs(zero_report.expectation_on_source) <= 1e-12
        assert abs(nonzero_report.expectation_on_source - 1.0) <= 1e-12

    def test_family_members_differ(self):
        zero_report, nonzero_report = null_operator_contradiction()
        gap = max(
            abs(zero_report.operator.m00 - nonzero_report.operator.m00),
            abs(zero_report.operator.m11 - nonzero_report.operator.m11),
            abs(zero_report.operator.m01 - nonzero_report.operator.m01),
        )
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


def test_direct_variance_check_numpy():
    """Independent numpy cross-check of the member operator definition."""
    rng = np.random.default_rng(42)
    sx = spin_operator(X).matrix
    for _ in range(25):
        raw = rng.standard_normal(4)
        vec = (raw[:2] + 1j * raw[2:]).astype(complex)
        vec = vec / np.linalg.norm(vec)
        e_val = float(np.real(vec.conj() @ sx @ vec))
        member = (sx - e_val * np.eye(2)) @ (sx - e_val * np.eye(2))
        state = Spinor(complex(vec[0]), complex(vec[1]))
        op = variance_pseudo_operator(state)
        assert_allclose(op.matrix, member, atol=1e-12)
