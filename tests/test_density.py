"""Unit tests for the density-operator formalism."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_axis, random_ensemble, statistical_average_expectation
from spinstat.density import density_equal, density_operator, entrywise_difference, expectation_tr, variance_tr
from spinstat.ensemble import EnsembleComponent, EnsembleSpec, make_ensemble_A, make_ensemble_B
from spinstat.spin import SpinOutcome, X, Z, eigenstate, spin_operator


class TestDensityOperator:
    def test_pure_state_density_is_projector(self):
        z_plus = eigenstate(Z, SpinOutcome.PLUS)
        rho = density_operator(EnsembleSpec((EnsembleComponent(z_plus, 7),)))
        assert_allclose(rho.op.matrix, [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)

    def test_preset_mixture_is_half_identity(self):
        rho = density_operator(make_ensemble_B(4))
        assert_allclose(rho.op.matrix, [[0.5, 0.0], [0.0, 0.5]], atol=0)

    def test_normalized_trace_is_exactly_one(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            rho = density_operator(random_ensemble(rng))
            assert rho.op.trace == 1.0

    def test_unnormalized_trace_is_exactly_n(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            e = random_ensemble(rng)
            rho = density_operator(e, normalized=False)
            assert rho.op.trace == float(e.total_count)
            assert rho.particle_count == e.total_count

    def test_presets_give_maximally_mixed_state(self):
        for n in (2, 10, 1000):
            rho_a = density_operator(make_ensemble_A(n))
            rho_b = density_operator(make_ensemble_B(n))
            assert density_equal(rho_a, rho_b, 1e-12)
            for rho in (rho_a, rho_b):
                assert abs(rho.op.m00 - 0.5) <= 1e-12
                assert abs(rho.op.m11 - 0.5) <= 1e-12
                assert abs(rho.op.m01) <= 1e-12

    def test_entrywise_difference_rejects_mixed_tags(self):
        rho_n = density_operator(make_ensemble_A(2))
        rho_u = density_operator(make_ensemble_A(2), normalized=False)
        with pytest.raises(ValueError):
            entrywise_difference(rho_n, rho_u)


class TestTraceFormulas:
    def test_pure_state_expectation_and_variance(self):
        z_plus = eigenstate(Z, SpinOutcome.PLUS)
        e = EnsembleSpec((EnsembleComponent(z_plus, 5),))
        rho = density_operator(e)
        sz = spin_operator(Z)
        assert expectation_tr(rho, sz) == 1.0
        assert variance_tr(rho, sz) == 0.0
        sx = spin_operator(X)
        assert expectation_tr(rho, sx) == 0.0
        assert variance_tr(rho, sx) == 1.0

    def test_variance_tr_is_blind_to_preparation(self):
        sx = spin_operator(X)
        rho_a = density_operator(make_ensemble_A(1000))
        rho_b = density_operator(make_ensemble_B(1000))
        assert variance_tr(rho_a, sx) == variance_tr(rho_b, sx) == 1.0
        raw_a = density_operator(make_ensemble_A(1000), normalized=False)
        raw_b = density_operator(make_ensemble_B(1000), normalized=False)
        assert variance_tr(raw_a, sx) == variance_tr(raw_b, sx) == 1000.0

    def test_statistical_average_agrees_with_trace(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            e = random_ensemble(rng)
            obs = spin_operator(random_axis(rng))
            assert_allclose(
                statistical_average_expectation(e, obs),
                expectation_tr(density_operator(e), obs),
                atol=1e-12,
            )
            assert_allclose(
                statistical_average_expectation(e, obs, extensive=True),
                expectation_tr(density_operator(e, normalized=False), obs),
                atol=1e-10,
            )

