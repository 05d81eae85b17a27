"""Density operators, with trace-based expectation and variance.

Normalization is an explicit tag, never inferred from the trace: the
normalized (trace 1) and unnormalized (trace N) operators make different
predictions, and conflating them silently would hide exactly the effect this
package measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .ensemble import EnsembleSpec
from .qcore import ATOL_EXACT, HermitianOp, min_eigenvalue, outer_product, trace_product

__all__ = [
    "DensityOp",
    "density_operator",
    "expectation_tr",
    "variance_tr",
    "entrywise_difference",
    "density_equal",
]


@dataclass(frozen=True)
class DensityOp:
    """A positive semidefinite operator tagged as trace-1 or trace-N."""

    op: HermitianOp
    normalized: bool
    particle_count: int | None = None

    def __post_init__(self) -> None:
        if self.normalized:
            if self.particle_count is not None:
                raise ValueError("a normalized density operator carries no particle count")
            target, trace_tol = 1.0, ATOL_EXACT
        else:
            if not isinstance(self.particle_count, int) or self.particle_count < 1:
                raise ValueError("an unnormalized density operator needs a positive particle count")
            target, trace_tol = float(self.particle_count), 1e-10
        if abs(self.op.trace - target) > trace_tol:
            raise ValueError(
                f"trace {self.op.trace!r} does not match the normalization tag (expected {target})"
            )
        # PSD tolerance scales with the trace so large unnormalized operators
        # are not rejected over accumulated rounding.
        psd_tol = ATOL_EXACT * max(1.0, target)
        lowest = min_eigenvalue(self.op)
        if lowest < -psd_tol:
            raise ValueError(f"operator is not positive semidefinite (eigenvalue {lowest})")


def density_operator(e: EnsembleSpec, normalized: bool = True) -> DensityOp:
    """Density operator of an ensemble: count-weighted sum of state projectors.

    Normalized uses fractions count/N (trace 1); unnormalized uses raw counts
    (trace N). The trace is pinned exactly to its tagged value, absorbing the
    last-ulp rounding of the weighted sum.
    """
    n = e.total_count
    acc00 = acc11 = 0.0
    acc01 = 0j
    for component in e.components:
        weight = component.count / n if normalized else float(component.count)
        projector = outer_product(component.state)
        acc00 += weight * projector.m00
        acc11 += weight * projector.m11
        acc01 += weight * projector.m01
    target = 1.0 if normalized else float(n)
    if abs((acc00 + acc11) - target) > 1e-9 * max(1.0, target):
        raise ValueError("accumulated trace drifted beyond rounding; ensemble is inconsistent")
    op = HermitianOp(acc00, target - acc00, acc01)
    return DensityOp(op, normalized, None if normalized else n)


def expectation_tr(p: DensityOp, obs: HermitianOp) -> float:
    """Trace-formalism expectation Tr[P O], in half-quantum units."""
    return trace_product(p.op, obs)


def variance_tr(p: DensityOp, obs: HermitianOp) -> float:
    """Trace-formalism variance Tr[P O^2] - (Tr[P O])^2.

    Applied to an unnormalized operator this is the count-weighted variant;
    both are reproduced exactly as the formalism defines them.
    """
    first = trace_product(p.op, obs)
    second = trace_product(p.op, obs.square())
    return second - first * first


def entrywise_difference(p: DensityOp, q: DensityOp) -> float:
    """Largest absolute entry difference between two same-tag density operators."""
    if p.normalized != q.normalized or p.particle_count != q.particle_count:
        raise ValueError("cannot compare density operators with different normalization tags")
    return max(
        abs(p.op.m00 - q.op.m00),
        abs(p.op.m11 - q.op.m11),
        abs(p.op.m01 - q.op.m01),
    )


def density_equal(p: DensityOp, q: DensityOp, tol: float) -> bool:
    """Entrywise comparison of two density operators under the same tag."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError("tolerance must be a non-negative real")
    return entrywise_difference(p, q) <= tol
