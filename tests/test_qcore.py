"""Unit tests for the 2x2 Hermitian linear-algebra core."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import spinors
from spinstat.qcore import (
    HermitianOp,
    Spinor,
    apply,
    expectation,
    inner_product,
    min_eigenvalue,
    outer_product,
    trace_product,
)


class TestSpinor:
    def test_auto_normalizes(self):
        s = Spinor(3.0, 4.0j)
        assert_allclose(abs(s.a0) ** 2 + abs(s.a1) ** 2, 1.0, atol=1e-15)
        assert_allclose(s.a0, 0.6, atol=1e-15)

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            Spinor(0.0, 0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Spinor(complex(math.nan, 0.0), 1.0)
        with pytest.raises(ValueError):
            Spinor(1.0, complex(math.inf, 0.0))


class TestHermitianOp:
    def test_matrix_is_hermitian(self):
        op = HermitianOp(1.0, -2.0, 0.5 + 0.25j)
        m = op.matrix
        assert_allclose(m, m.conj().T, atol=0)

    def test_algebra_matches_numpy(self):
        a = HermitianOp(1.0, 2.0, 1.0 - 0.5j)
        b = HermitianOp(-0.5, 0.25, 0.125j)
        assert_allclose((a - b).matrix, a.matrix - b.matrix, atol=0)
        assert_allclose((2.5 * a).matrix, 2.5 * a.matrix, atol=0)
        assert_allclose(a.square().matrix, a.matrix @ a.matrix, atol=1e-15)

    def test_trace(self):
        assert HermitianOp(1.5, -0.5, 1.0j).trace == 1.0
        assert HermitianOp.identity().trace == 2.0


class TestProducts:
    def test_inner_product_conjugates_first_argument(self):
        x = Spinor(1.0, 0.0)
        y = Spinor(0.0, 1.0j)
        lhs = inner_product(x, y)
        rhs = inner_product(y, x)
        assert_allclose(lhs, rhs.conjugate(), atol=1e-15)

    @given(spinors())
    def test_outer_product_is_rank_one_projector(self, s):
        proj = outer_product(s)
        assert_allclose(proj.square().matrix, proj.matrix, atol=1e-14)
        assert_allclose(proj.trace, 1.0, atol=1e-14)
        assert_allclose(expectation(proj, s), 1.0, atol=1e-12)

    @given(spinors(), spinors())
    def test_expectation_via_apply(self, x, y):
        op = outer_product(y)
        v0, v1 = apply(op, x)
        quad = (x.a0.conjugate() * v0 + x.a1.conjugate() * v1).real
        assert_allclose(expectation(op, x), quad, atol=1e-12)

    def test_trace_product_matches_numpy(self):
        a = HermitianOp(1.0, 2.0, 0.5 - 0.75j)
        b = HermitianOp(-1.0, 0.5, 0.25 + 0.1j)
        assert_allclose(trace_product(a, b), np.trace(a.matrix @ b.matrix).real, atol=1e-14)


class TestEigensystem:
    def test_diagonal_operator(self):
        assert min_eigenvalue(HermitianOp(2.0, -1.0)) == -1.0
        assert min_eigenvalue(HermitianOp(-1.0, 2.0)) == -1.0

    def test_degenerate_spectrum(self):
        assert min_eigenvalue(HermitianOp(1.0, 1.0)) == 1.0

    @given(
        st.tuples(
            st.floats(-5, 5, allow_nan=False),
            st.floats(-5, 5, allow_nan=False),
            st.floats(-5, 5, allow_nan=False),
            st.floats(-5, 5, allow_nan=False),
        )
    )
    def test_matches_numpy_eigh(self, parts):
        m00, m11, re01, im01 = parts
        op = HermitianOp(m00, m11, complex(re01, im01))
        assert_allclose(min_eigenvalue(op), np.linalg.eigvalsh(op.matrix)[0], atol=1e-12)
