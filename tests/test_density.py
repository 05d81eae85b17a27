"""Unit tests for the density-operator formalism."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import density_matrix, random_axis, random_ensemble, statistical_average_expectation
from spinstat.density import density_equal, density_operator, entrywise_difference, expectation_tr, variance_tr
from spinstat.ensemble import EnsembleComponent, EnsembleSpec, make_ensemble_A, make_ensemble_B
from spinstat.spin import SpinOutcome, X, Z, eigenstate


class TestDensityOperator:
    def test_pure_state_density_is_projector(self):
        z_plus = eigenstate(Z, SpinOutcome.PLUS)
        rho = density_operator(EnsembleSpec((EnsembleComponent(z_plus, 7),)))
        assert rho == (1.0, (0.0, 0.0, 1.0))
        assert_allclose(density_matrix(rho), [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)

    def test_preset_mixture_is_half_identity(self):
        rho = density_operator(make_ensemble_B(4))
        assert rho == (1.0, (0.0, 0.0, 0.0))
        assert_allclose(density_matrix(rho), [[0.5, 0.0], [0.0, 0.5]], atol=0)

    def test_normalized_trace_is_exactly_one(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            trace, _ = density_operator(random_ensemble(rng))
            assert trace == 1.0

    def test_unnormalized_trace_is_exactly_n(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            e = random_ensemble(rng)
            trace, _ = density_operator(e, normalized=False)
            assert trace == float(e.total_count)

    def test_presets_give_maximally_mixed_state(self):
        for n in (2, 10, 1000):
            rho_a = density_operator(make_ensemble_A(n))
            rho_b = density_operator(make_ensemble_B(n))
            assert density_equal(rho_a, rho_b, 1e-12)
            assert entrywise_difference(rho_a, rho_b) == 0.0
            for rho in (rho_a, rho_b):
                assert np.abs(density_matrix(rho) - 0.5 * np.eye(2)).max() <= 1e-12

    def test_entrywise_difference_is_the_largest_matrix_entry_gap(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            for normalized in (True, False):
                rho, sigma = (density_operator(random_ensemble(rng, max_count=5), normalized) for _ in range(2))
                if rho[0] != sigma[0]:
                    continue
                gap = np.abs(density_matrix(rho) - density_matrix(sigma)).max()
                assert_allclose(entrywise_difference(rho, sigma), gap, rtol=1e-12, atol=1e-15)

    def test_entrywise_difference_rejects_mixed_tags(self):
        rho_n = density_operator(make_ensemble_A(2))
        rho_u = density_operator(make_ensemble_A(2), normalized=False)
        with pytest.raises(ValueError):
            entrywise_difference(rho_n, rho_u)

    def test_one_particle_forms_coincide(self):
        # With N = 1 both forms have trace 1: the same matrix, so they compare equal.
        rng = np.random.default_rng(31)
        for _ in range(20):
            e = random_ensemble(rng, max_components=1, max_count=1)
            rho_n, rho_u = density_operator(e), density_operator(e, normalized=False)
            assert rho_n == rho_u
            assert entrywise_difference(rho_n, rho_u) == 0.0
            assert density_equal(rho_n, rho_u, 0.0)


class TestTraceFormulas:
    def test_pure_state_expectation_and_variance(self):
        z_plus = eigenstate(Z, SpinOutcome.PLUS)
        e = EnsembleSpec((EnsembleComponent(z_plus, 5),))
        rho = density_operator(e)
        assert expectation_tr(rho, Z) == 1.0
        assert variance_tr(rho, Z) == 0.0
        assert expectation_tr(rho, X) == 0.0
        assert variance_tr(rho, X) == 1.0

    def test_variance_tr_is_blind_to_preparation(self):
        rho_a = density_operator(make_ensemble_A(1000))
        rho_b = density_operator(make_ensemble_B(1000))
        assert variance_tr(rho_a, X) == variance_tr(rho_b, X) == 1.0
        raw_a = density_operator(make_ensemble_A(1000), normalized=False)
        raw_b = density_operator(make_ensemble_B(1000), normalized=False)
        assert variance_tr(raw_a, X) == variance_tr(raw_b, X) == 1000.0

    def test_statistical_average_agrees_with_trace(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            e = random_ensemble(rng)
            axis = random_axis(rng)
            assert_allclose(
                statistical_average_expectation(e, axis),
                expectation_tr(density_operator(e), axis),
                atol=1e-12,
            )
            assert_allclose(
                statistical_average_expectation(e, axis, extensive=True),
                expectation_tr(density_operator(e, normalized=False), axis),
                atol=1e-10,
            )

