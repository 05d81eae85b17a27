"""Density operators as (trace, bloch) pairs, with trace-based expectation and variance.

A density operator is rho = (t I + s.sigma)/2: t is its trace and s its Bloch
vector, the weighted sum of the component states' Bloch vectors. It is
positive semidefinite exactly when |s| <= t. Along a unit axis n,
(n.sigma)^2 = I, so the trace formalism predicts the mean Tr[rho n.sigma] =
s.n and the variance Tr[rho (n.sigma)^2] - (s.n)^2 = t - (s.n)^2.

The trace carries the normalization: 1 for the normalized operator, N for the
unnormalized one. The two make different predictions, so operators with
different traces are never compared. For N = 1 the two forms are the same
matrix, and only then do they coincide.
"""

from __future__ import annotations

import math

from .ensemble import EnsembleSpec
from .spin import Axis, Vector, dot

__all__ = [
    "density_operator",
    "expectation_tr",
    "variance_tr",
    "entrywise_difference",
    "density_equal",
]


def density_operator(e: EnsembleSpec, normalized: bool = True) -> tuple[float, Vector]:
    """Density operator of an ensemble as its (trace, bloch) pair.

    It is the count-weighted sum of the state projectors. Normalized uses
    fractions count/N (trace exactly 1); unnormalized uses raw counts (trace
    exactly N). The Bloch vector is the correctly rounded weighted sum of the
    states' Bloch vectors.
    """
    n = e.total_count
    weights = [c.count / n if normalized else float(c.count) for c in e.components]
    bloch = tuple(
        math.fsum(w * c.state[i] for w, c in zip(weights, e.components)) for i in range(3)
    )
    return 1.0 if normalized else float(n), bloch


def expectation_tr(p: tuple[float, Vector], axis: Axis) -> float:
    """Trace-formalism expectation Tr[P n.sigma] = s.n, in half-quantum units."""
    return dot(p[1], axis.bloch())


def variance_tr(p: tuple[float, Vector], axis: Axis) -> float:
    """Trace-formalism variance Tr[P (n.sigma)^2] - (Tr[P n.sigma])^2 = t - (s.n)^2.

    Applied to an unnormalized operator this is the count-weighted variant;
    both are reproduced exactly as the formalism defines them.
    """
    first = expectation_tr(p, axis)
    return p[0] - first * first


def entrywise_difference(p: tuple[float, Vector], q: tuple[float, Vector]) -> float:
    """Largest absolute matrix-entry difference between two density operators of equal trace.

    With equal traces the diagonal entries differ by |ds_z|/2 and the
    off-diagonal ones by |ds_x - i ds_y|/2. Different traces are different
    normalizations and raise ``ValueError``.
    """
    if p[0] != q[0]:
        raise ValueError(f"cannot compare density operators of traces {p[0]!r} and {q[0]!r}")
    dx, dy, dz = (a - b for a, b in zip(p[1], q[1]))
    return max(abs(dz), math.hypot(dx, dy)) / 2.0


def density_equal(p: tuple[float, Vector], q: tuple[float, Vector], tol: float) -> bool:
    """Entrywise comparison of two density operators of equal trace."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError("tolerance must be a non-negative real")
    return entrywise_difference(p, q) <= tol
