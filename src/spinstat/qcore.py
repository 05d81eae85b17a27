"""Closed-form complex 2x2 linear algebra: spinors and Hermitian operators.

Everything in here is an immutable value type built on Python complex numbers.
Amplitudes are plain ``complex``; containers validate finiteness on construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ATOL_EXACT",
    "Spinor",
    "HermitianOp",
    "inner_product",
    "outer_product",
    "apply",
    "trace_product",
    "min_eigenvalue",
]

# Absolute tolerance for exactly-representable quantities.
ATOL_EXACT = 1e-12


def _require_finite(value: complex, what: str) -> None:
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValueError(f"{what} must be finite, got {value!r}")


@dataclass(frozen=True)
class Spinor:
    """Normalized 2-component complex amplitude vector in a fixed reference basis.

    Construction normalizes automatically and rejects the zero vector, so the
    unit-norm invariant is structural.
    """

    a0: complex
    a1: complex

    def __post_init__(self) -> None:
        a0, a1 = complex(self.a0), complex(self.a1)
        _require_finite(a0, "spinor component")
        _require_finite(a1, "spinor component")
        norm_sq = abs(a0) ** 2 + abs(a1) ** 2
        if norm_sq == 0.0:
            raise ValueError("cannot normalize the zero spinor")
        scale = 1.0 / math.sqrt(norm_sq)
        object.__setattr__(self, "a0", a0 * scale)
        object.__setattr__(self, "a1", a1 * scale)


@dataclass(frozen=True)
class HermitianOp:
    """2x2 Hermitian operator stored as diagonal reals plus the upper entry.

    The lower off-diagonal entry is implied by conjugation, so Hermiticity
    cannot be violated by construction.
    """

    m00: float
    m11: float
    m01: complex = 0j

    def __post_init__(self) -> None:
        m00, m11, m01 = float(self.m00), float(self.m11), complex(self.m01)
        if not (math.isfinite(m00) and math.isfinite(m11)):
            raise ValueError("diagonal entries must be finite")
        _require_finite(m01, "off-diagonal entry")
        object.__setattr__(self, "m00", m00)
        object.__setattr__(self, "m11", m11)
        object.__setattr__(self, "m01", m01)

    @classmethod
    def identity(cls) -> "HermitianOp":
        return cls(1.0, 1.0, 0j)

    @property
    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.m00, self.m01], [self.m01.conjugate(), self.m11]], dtype=complex
        )

    @property
    def trace(self) -> float:
        return self.m00 + self.m11

    def square(self) -> "HermitianOp":
        """Closed-form operator square; the square of a Hermitian op is Hermitian."""
        off_sq = abs(self.m01) ** 2
        return HermitianOp(
            self.m00 * self.m00 + off_sq,
            self.m11 * self.m11 + off_sq,
            self.m01 * (self.m00 + self.m11),
        )

    def __sub__(self, other: "HermitianOp") -> "HermitianOp":
        return HermitianOp(self.m00 - other.m00, self.m11 - other.m11, self.m01 - other.m01)

    def __mul__(self, scalar: float) -> "HermitianOp":
        s = float(scalar)
        return HermitianOp(self.m00 * s, self.m11 * s, self.m01 * s)

    __rmul__ = __mul__


def inner_product(x: Spinor, y: Spinor) -> complex:
    """Bracket of two spinors, conjugating the first argument."""
    return x.a0.conjugate() * y.a0 + x.a1.conjugate() * y.a1


def outer_product(x: Spinor) -> HermitianOp:
    """Rank-1 projector onto a normalized spinor (trace 1, idempotent)."""
    return HermitianOp(abs(x.a0) ** 2, abs(x.a1) ** 2, x.a0 * x.a1.conjugate())


def apply(op: HermitianOp, x: Spinor) -> tuple[complex, complex]:
    """Matrix-vector product; the result is in general unnormalized."""
    return (
        op.m00 * x.a0 + op.m01 * x.a1,
        op.m01.conjugate() * x.a0 + op.m11 * x.a1,
    )


def expectation(op: HermitianOp, x: Spinor) -> float:
    """Quadratic form <x|op|x>, real for Hermitian operators."""
    cross = x.a0.conjugate() * op.m01 * x.a1
    return op.m00 * abs(x.a0) ** 2 + op.m11 * abs(x.a1) ** 2 + 2.0 * cross.real


def trace_product(a: HermitianOp, b: HermitianOp) -> float:
    """Tr[a b]; real and symmetric for Hermitian arguments."""
    cross = a.m01 * b.m01.conjugate()
    return a.m00 * b.m00 + a.m11 * b.m11 + 2.0 * cross.real


def min_eigenvalue(op: HermitianOp) -> float:
    """Smaller eigenvalue of a 2x2 Hermitian operator, in closed form."""
    return 0.5 * (op.m00 + op.m11) - math.hypot(0.5 * (op.m00 - op.m11), abs(op.m01))
