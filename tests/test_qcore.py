"""The real core against complex 2x2 algebra in numpy.

States are unit Bloch vectors m, operators are real pairs (a, b) for
a I + b.sigma, and density operators are (t I + s.sigma)/2. Every formula the
package computes from these real quantities is checked here against the
spinors and matrices that ``conftest.ket`` and ``conftest.matrix`` build.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import density_matrix, ket, matrix, quantum_expectation, random_axis, random_ensemble, states
from spinstat.density import density_operator, expectation_tr, variance_tr
from spinstat.ensemble import EnsembleComponent, EnsembleSpec
from spinstat.paradox import annihilation_residual, expectation, variance_pseudo_operator

PAULI = [matrix(0.0, axis) for axis in np.eye(3)]

_reals = st.floats(-5, 5, allow_nan=False)


def bloch_of(psi: np.ndarray) -> list[float]:
    """Bloch vector <psi|sigma|psi> of a normalized numpy spinor."""
    return [float(np.real(psi.conj() @ pauli @ psi)) for pauli in PAULI]


class TestSpinor:
    """A state is a finite unit Bloch vector; anything else is rejected."""

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            EnsembleComponent((0.0, 0.0, 0.0), 1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            EnsembleComponent((math.nan, 0.0, 1.0), 1)
        with pytest.raises(ValueError):
            EnsembleComponent((1.0, math.inf, 0.0), 1)

    def test_rejects_non_unit_vector(self):
        for bad in ((0.6, 0.8, 1e-5), (0.0, 0.0, 0.5), (1.0, 0.0)):
            with pytest.raises(ValueError):
                EnsembleComponent(bad, 1)
        assert EnsembleComponent((0.6, 0.8, 0.0), 1).state == (0.6, 0.8, 0.0)

    @given(states())
    def test_ket_has_the_bloch_vector(self, m):
        psi = ket(m)
        assert_allclose(np.vdot(psi, psi).real, 1.0, atol=1e-14)
        assert_allclose(bloch_of(psi), m, atol=1e-12)


class TestHermitianOp:
    """An operator is a real pair (a, b) standing for a I + b.sigma."""

    @given(_reals, _reals, _reals, _reals)
    def test_matrix_is_hermitian(self, m00, m11, re01, im01):
        # Every Hermitian 2x2 matrix is a I + b.sigma for one real pair (a, b).
        h = np.array([[m00, complex(re01, im01)], [complex(re01, -im01), m11]])
        a = np.trace(h).real / 2.0
        b = [np.trace(h @ pauli).real / 2.0 for pauli in PAULI]
        assert_allclose(matrix(a, b), h, atol=1e-14)
        assert_allclose(matrix(a, b), matrix(a, b).conj().T, atol=0)

    @given(states())
    def test_algebra_matches_numpy(self, m):
        # The pseudo-operator is (S_x - E)^2 and its residual ||O beta|| uses
        # O^2 = (a^2 + |b|^2) I + 2a b.sigma; numpy squares and applies O.
        sx = PAULI[0]
        e_val = quantum_expectation(sx, m)
        shifted = sx - e_val * np.eye(2)
        op = matrix(*variance_pseudo_operator(m))
        assert_allclose(op, shifted @ shifted, atol=1e-12)
        assert_allclose(annihilation_residual(m) ** 2, np.linalg.norm(op @ ket(m)) ** 2, atol=1e-12)

    def test_trace(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            e = random_ensemble(rng)
            for normalized in (True, False):
                rho = density_operator(e, normalized=normalized)
                assert rho[0] == (1.0 if normalized else float(e.total_count))
                assert_allclose(np.trace(density_matrix(rho)).real, rho[0], rtol=1e-15)
        assert np.trace(matrix(1.0, (0.0, 0.0, 0.0))).real == 2.0


class TestProducts:
    @given(states())
    def test_outer_product_is_rank_one_projector(self, m):
        rho = density_operator(EnsembleSpec((EnsembleComponent(m, 3),)))
        proj = density_matrix(rho)
        psi = ket(m)
        assert_allclose(proj, np.outer(psi, psi.conj()), atol=1e-12)
        assert_allclose(proj @ proj, proj, atol=1e-12)
        assert rho[0] == 1.0
        assert_allclose(quantum_expectation(proj, m), 1.0, atol=1e-12)

    @given(states(), _reals, states())
    def test_expectation_via_apply(self, b_dir, a, m):
        b = tuple(2.0 * c for c in b_dir)
        psi = ket(m)
        applied = matrix(a, b) @ psi
        assert_allclose(expectation((a, b), m), np.vdot(psi, applied).real, atol=1e-11)

    def test_trace_product_matches_numpy(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            e, axis = random_ensemble(rng), random_axis(rng)
            obs = matrix(0.0, axis.bloch())
            for normalized in (True, False):
                rho = density_operator(e, normalized=normalized)
                r = density_matrix(rho)
                mean = np.trace(r @ obs).real
                scale = rho[0]
                assert_allclose(expectation_tr(rho, axis), mean, atol=1e-12 * scale)
                second = np.trace(r @ obs @ obs).real
                assert_allclose(variance_tr(rho, axis), second - mean**2, atol=1e-12 * scale**2)


class TestEigensystem:
    """Every density operator the package builds is positive semidefinite: |s| <= t."""

    def test_density_operators_are_positive_semidefinite(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            e = random_ensemble(rng)
            for normalized in (True, False):
                rho = density_operator(e, normalized=normalized)
                trace, bloch = rho
                assert math.hypot(*bloch) <= trace * (1.0 + 1e-12)
                assert np.linalg.eigvalsh(density_matrix(rho))[0] >= -1e-12 * trace
