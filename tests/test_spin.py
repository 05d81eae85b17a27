"""Unit tests for axes, spin operators, eigenstates, and the Born rule."""

import math

import pytest
from hypothesis import given
from numpy.testing import assert_allclose

from conftest import axes, spinors
from spinstat.harness import ConfigError, ExperimentConfig, _physical
from spinstat.qcore import HermitianOp, apply, expectation
from spinstat.spin import (
    Axis,
    SpinOutcome,
    X,
    Y,
    Z,
    born_probability,
    eigenstate,
    spin_operator,
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
    def test_cardinal_matrices(self):
        assert spin_operator(X).matrix.tolist() == [[0.0, 1.0], [1.0, 0.0]]
        assert spin_operator(Z).matrix.tolist() == [[1.0, 0.0], [0.0, -1.0]]
        y = spin_operator(Y).matrix
        assert y[0, 1] == -1.0j and y[1, 0] == 1.0j

    @given(axes())
    def test_traceless_and_involutive(self, axis):
        op = spin_operator(axis)
        assert_allclose(op.trace, 0.0, atol=1e-12)
        # squares to the identity: eigenvalues are +-1
        assert_allclose(op.square().matrix, [[1, 0], [0, 1]], atol=1e-12)

    def test_x_operator_squares_exactly_to_identity(self):
        assert spin_operator(X).square() == HermitianOp.identity()


class TestEigenstates:
    @given(axes())
    def test_eigenvalue_equations(self, axis):
        op = spin_operator(axis)
        for sign in (SpinOutcome.PLUS, SpinOutcome.MINUS):
            state = eigenstate(axis, sign)
            v0, v1 = apply(op, state)
            assert_allclose([v0, v1], [sign * state.a0, sign * state.a1], atol=1e-12)

    @given(axes())
    def test_eigenstates_are_orthogonal(self, axis):
        plus = eigenstate(axis, SpinOutcome.PLUS)
        minus = eigenstate(axis, SpinOutcome.MINUS)
        overlap = plus.a0.conjugate() * minus.a0 + plus.a1.conjugate() * minus.a1
        assert_allclose(abs(overlap), 0.0, atol=1e-12)

    def test_x_eigenstates_are_z_superpositions(self):
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        plus = eigenstate(X, SpinOutcome.PLUS)
        minus = eigenstate(X, SpinOutcome.MINUS)
        assert_allclose([plus.a0, plus.a1], [inv_sqrt2, inv_sqrt2], atol=1e-15)
        assert_allclose([abs(minus.a0), abs(minus.a1)], [inv_sqrt2, inv_sqrt2], atol=1e-15)
        assert_allclose(expectation(spin_operator(X), minus), -1.0, atol=1e-15)


class TestBornRule:
    def test_x_eigenstate_along_z_is_exactly_half(self):
        state = eigenstate(X, SpinOutcome.PLUS)
        assert born_probability(state, Z, SpinOutcome.PLUS) == 0.5
        assert born_probability(state, Z, SpinOutcome.MINUS) == 0.5

    def test_aligned_state_is_exactly_one(self):
        state = eigenstate(X, SpinOutcome.PLUS)
        assert born_probability(state, X, SpinOutcome.PLUS) == 1.0
        assert born_probability(state, X, SpinOutcome.MINUS) == 0.0

    @given(spinors(), axes())
    def test_probabilities_sum_to_one(self, state, axis):
        p = born_probability(state, axis, SpinOutcome.PLUS)
        m = born_probability(state, axis, SpinOutcome.MINUS)
        assert 0.0 <= p <= 1.0
        assert_allclose(p + m, 1.0, atol=1e-10)

    @given(spinors(), axes())
    def test_mean_and_variance_match_born_probabilities(self, state, axis):
        p = born_probability(state, axis, SpinOutcome.PLUS)
        mean, variance = state_mean_and_variance(state, axis)
        assert_allclose(mean, 2.0 * p - 1.0, atol=1e-10)
        assert_allclose(variance, 4.0 * p * (1.0 - p), atol=1e-9)
        assert_allclose(mean, expectation(spin_operator(axis), state), atol=1e-10)


class TestHbarScale:
    # The report text converts half-quantum values to physical units: mean
    # and sigma times hbar/2, variance times hbar²/4.
    CONFIG = {"ensemble": {"preset": "A", "n": 2}, "axis": "x", "trials": 2, "seed": 0}

    def test_half_quantum_conversions(self):
        assert _physical(3.0, 1.0, 4.0, hbar=2.0) == ("3", "1", "4")

    def test_default_hbar_one(self):
        assert ExperimentConfig.from_json_dict(self.CONFIG).hbar == 1.0
        assert _physical(2.0, 2.0, 4.0, hbar=1.0) == ("1", "1", "1")

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError, match="field 'hbar'"):
            ExperimentConfig.from_json_dict(dict(self.CONFIG, hbar=0.0))
