"""Unit tests for axes, spin operators, eigenstates, and the Born rule."""

import math

import numpy as np
import pytest
from hypothesis import given
from numpy.testing import assert_allclose

from conftest import axes, ket, matrix, quantum_expectation, states
from spinstat.harness import ConfigError, ExperimentConfig, _physical
from spinstat.spin import (
    Axis,
    SpinOutcome,
    X,
    Y,
    Z,
    born_probability,
    dot,
    eigenstate,
    state_mean_and_variance,
)


class TestAxis:
    def test_named_axes_have_exact_bloch_components(self):
        assert X.bloch() == (1.0, 0.0, 0.0)
        assert Y.bloch() == (0.0, 1.0, 0.0)
        assert Z.bloch() == (0.0, 0.0, 1.0)

    @given(axes())
    def test_bloch_is_unit(self, axis):
        nx, ny, nz = axis.bloch()
        assert_allclose(nx * nx + ny * ny + nz * nz, 1.0, atol=1e-12)

    def test_from_json_names(self):
        assert Axis.from_json("x") == X
        assert Axis.from_json("y") == Y
        assert Axis.from_json("z") == Z

    def test_from_json_angles(self):
        axis = Axis.from_json({"theta": 0.25, "phi": 1.5})
        assert axis == Axis(0.25, 1.5)

    def test_from_json_rejects_garbage(self):
        for bad in ("w", {"theta": 0.1, "phi": 0.2, "extra": 1}, {"phi": 0.2}, 42):
            with pytest.raises(ValueError):
                Axis.from_json(bad)

    def test_json_round_trip(self):
        for axis in (X, Y, Z, Axis(0.3, 4.0)):
            assert Axis.from_json(axis.to_json()) == axis

    def test_rejects_non_finite_angles(self):
        with pytest.raises(ValueError):
            Axis(math.nan, 0.0)


class TestSpinOperator:
    """The spin component along n is n.sigma, the matrix of the pair (0, n)."""

    def test_cardinal_matrices(self):
        assert matrix(0.0, X.bloch()).tolist() == [[0.0, 1.0], [1.0, 0.0]]
        assert matrix(0.0, Z.bloch()).tolist() == [[1.0, 0.0], [0.0, -1.0]]
        y = matrix(0.0, Y.bloch())
        assert y[0, 1] == -1.0j and y[1, 0] == 1.0j

    @given(axes())
    def test_traceless_and_involutive(self, axis):
        op = matrix(0.0, axis.bloch())
        assert_allclose(np.trace(op), 0.0, atol=1e-12)
        # (n.sigma)^2 = I, which the variance formulas 1 - (m.n)^2 and t - (s.n)^2 rest on
        assert_allclose(op @ op, np.eye(2), atol=1e-12)

    def test_x_operator_squares_exactly_to_identity(self):
        op = matrix(0.0, X.bloch())
        assert (op @ op).tolist() == np.eye(2).tolist()


class TestEigenstates:
    @given(axes())
    def test_eigenvalue_equations(self, axis):
        op = matrix(0.0, axis.bloch())
        for sign in (SpinOutcome.PLUS, SpinOutcome.MINUS):
            state = eigenstate(axis, sign)
            assert_allclose(op @ ket(state), sign * ket(state), atol=1e-12)

    @given(axes())
    def test_eigenstates_are_orthogonal(self, axis):
        plus = eigenstate(axis, SpinOutcome.PLUS)
        minus = eigenstate(axis, SpinOutcome.MINUS)
        assert_allclose(abs(np.vdot(ket(plus), ket(minus))), 0.0, atol=1e-12)
        assert_allclose(dot(plus, minus), -1.0, atol=1e-12)

    def test_x_eigenstates_are_z_superpositions(self):
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        plus = eigenstate(X, SpinOutcome.PLUS)
        minus = eigenstate(X, SpinOutcome.MINUS)
        assert plus == (1.0, 0.0, 0.0) and minus == (-1.0, 0.0, 0.0)
        assert_allclose(ket(plus), [inv_sqrt2, inv_sqrt2], atol=1e-15)
        assert_allclose(abs(ket(minus)), [inv_sqrt2, inv_sqrt2], atol=1e-15)
        assert_allclose(quantum_expectation(matrix(0.0, X.bloch()), minus), -1.0, atol=1e-15)

    def test_no_signed_zeros(self):
        for axis in (X, Y, Z):
            for sign in (SpinOutcome.PLUS, SpinOutcome.MINUS):
                assert all(math.copysign(1.0, c) == 1.0 for c in eigenstate(axis, sign) if c == 0.0)


class TestBornRule:
    def test_x_eigenstate_along_z_is_exactly_half(self):
        state = eigenstate(X, SpinOutcome.PLUS)
        assert born_probability(state, Z, SpinOutcome.PLUS) == 0.5
        assert born_probability(state, Z, SpinOutcome.MINUS) == 0.5

    def test_aligned_state_is_exactly_one(self):
        state = eigenstate(X, SpinOutcome.PLUS)
        assert born_probability(state, X, SpinOutcome.PLUS) == 1.0
        assert born_probability(state, X, SpinOutcome.MINUS) == 0.0

    @given(states(), axes())
    def test_probabilities_sum_to_one(self, state, axis):
        p = born_probability(state, axis, SpinOutcome.PLUS)
        m = born_probability(state, axis, SpinOutcome.MINUS)
        assert 0.0 <= p <= 1.0
        assert_allclose(p + m, 1.0, atol=1e-10)

    @given(states(), axes())
    def test_mean_and_variance_match_born_probabilities(self, state, axis):
        p = born_probability(state, axis, SpinOutcome.PLUS)
        # the textbook Born rule |<n+|psi>|^2, in numpy's complex algebra
        amplitude = np.vdot(ket(eigenstate(axis, SpinOutcome.PLUS)), ket(state))
        assert_allclose(p, abs(amplitude) ** 2, atol=1e-12)
        mean, variance = state_mean_and_variance(state, axis)
        assert_allclose(mean, 2.0 * p - 1.0, atol=1e-10)
        assert_allclose(variance, 4.0 * p * (1.0 - p), atol=1e-9)
        assert_allclose(mean, quantum_expectation(matrix(0.0, axis.bloch()), state), atol=1e-10)


class TestHbarScale:
    # The report text converts half-quantum values to physical units: mean
    # and sigma times hbar/2, variance times hbar²/4.
    CONFIG = {"ensemble": {"preset": "A", "n": 2}, "axis": "x", "trials": 2, "seed": 0}

    def test_half_quantum_conversions(self):
        assert _physical(3.0, 1.0, 4.0, hbar=2.0) == ("3", "1", "4")

    def test_default_hbar_one(self):
        assert ExperimentConfig.from_json_dict(self.CONFIG).config["hbar"] == 1.0
        assert _physical(2.0, 2.0, 4.0, hbar=1.0) == ("1", "1", "1")

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError, match="field 'hbar'"):
            ExperimentConfig.from_json_dict(dict(self.CONFIG, hbar=0.0))
