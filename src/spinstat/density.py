"""Density operators in Bloch form, with trace-based expectation and variance.

A density operator is rho = (t I + s.sigma)/2: t is its trace and s its Bloch
vector, the weighted sum of the component states' Bloch vectors. It is
positive semidefinite exactly when |s| <= t. Along a unit axis n,
(n.sigma)^2 = I, so the trace formalism predicts the mean Tr[rho n.sigma] =
s.n and the variance Tr[rho (n.sigma)^2] - (s.n)^2 = t - (s.n)^2.

Normalization is an explicit tag, never inferred from the trace: the
normalized (trace 1) and unnormalized (trace N) operators make different
predictions, and conflating them silently would hide exactly the effect this
package measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .ensemble import EnsembleSpec
from .spin import Axis, Vector, dot

__all__ = [
    "DensityOp",
    "density_operator",
    "expectation_tr",
    "variance_tr",
    "entrywise_difference",
    "density_equal",
]

# Relative tolerance of the positive-semidefinite check |s| <= t.
_PSD_RTOL = 1e-12


@dataclass(frozen=True)
class DensityOp:
    """A positive semidefinite operator (t I + s.sigma)/2 tagged as trace-1 or trace-N."""

    trace: float
    bloch: Vector
    normalized: bool
    particle_count: int | None = None

    def __post_init__(self) -> None:
        if self.normalized:
            if self.particle_count is not None:
                raise ValueError("a normalized density operator carries no particle count")
            target = 1.0
        else:
            if not isinstance(self.particle_count, int) or self.particle_count < 1:
                raise ValueError("an unnormalized density operator needs a positive particle count")
            target = float(self.particle_count)
        if self.trace != target:
            raise ValueError(
                f"trace {self.trace!r} does not match the normalization tag (expected {target})"
            )
        length = math.hypot(*self.bloch)
        if not length <= self.trace * (1.0 + _PSD_RTOL):
            raise ValueError(f"operator is not positive semidefinite (|s| = {length} > trace)")


def density_operator(e: EnsembleSpec, normalized: bool = True) -> DensityOp:
    """Density operator of an ensemble: count-weighted sum of state projectors.

    Normalized uses fractions count/N (trace 1); unnormalized uses raw counts
    (trace N). The trace is the tagged value exactly; the Bloch vector is the
    correctly rounded weighted sum of the states' Bloch vectors.
    """
    n = e.total_count
    weights = [c.count / n if normalized else float(c.count) for c in e.components]
    bloch = tuple(
        math.fsum(w * c.state[i] for w, c in zip(weights, e.components)) for i in range(3)
    )
    return DensityOp(1.0 if normalized else float(n), bloch, normalized, None if normalized else n)


def expectation_tr(p: DensityOp, axis: Axis) -> float:
    """Trace-formalism expectation Tr[P n.sigma] = s.n, in half-quantum units."""
    return dot(p.bloch, axis.bloch())


def variance_tr(p: DensityOp, axis: Axis) -> float:
    """Trace-formalism variance Tr[P (n.sigma)^2] - (Tr[P n.sigma])^2 = t - (s.n)^2.

    Applied to an unnormalized operator this is the count-weighted variant;
    both are reproduced exactly as the formalism defines them.
    """
    first = expectation_tr(p, axis)
    return p.trace - first * first


def entrywise_difference(p: DensityOp, q: DensityOp) -> float:
    """Largest absolute matrix-entry difference between two same-tag density operators.

    With equal traces the diagonal entries differ by |ds_z|/2 and the
    off-diagonal ones by |ds_x - i ds_y|/2.
    """
    if p.normalized != q.normalized or p.particle_count != q.particle_count:
        raise ValueError("cannot compare density operators with different normalization tags")
    dx, dy, dz = (a - b for a, b in zip(p.bloch, q.bloch))
    return max(abs(dz), math.hypot(dx, dy)) / 2.0


def density_equal(p: DensityOp, q: DensityOp, tol: float) -> bool:
    """Entrywise comparison of two density operators under the same tag."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError("tolerance must be a non-negative real")
    return entrywise_difference(p, q) <= tol
