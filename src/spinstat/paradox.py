"""Why no single operator can stand for the variance of a spin component.

The per-state construction (S_x - <S_x>)^2 reproduces each state's variance,
but the operator it yields depends on the state it was built from: the members
built from the two x eigenstates annihilate their sources, while the member
built from a z eigenstate is the identity. A state-independent observable with
both behaviors cannot exist, and the least-squares fit below quantifies how
far any fixed candidate must miss. An operator a I + b.sigma is the real pair
``(a, b)``; :func:`null_operator_contradiction` returns the two witness
members as such pairs, and the harness evaluates them on their sources.
"""

from __future__ import annotations

import math

import numpy as np

from .spin import SpinOutcome, Vector, X, Z, dot, eigenstate

__all__ = [
    "variance_pseudo_operator",
    "annihilation_residual",
    "null_operator_contradiction",
    "fixed_operator_infeasibility",
]

_ANNIHILATION_TOL = 1e-12

# A 2x2 Hermitian operator a I + b.sigma, as the real pair (a, b).
Operator = tuple[float, Vector]


def expectation(op: Operator, state: Vector) -> float:
    """Expectation a + b.m of ``op`` on the state with Bloch vector m."""
    a, b = op
    return a + dot(b, state)


def variance_pseudo_operator(beta: Vector) -> Operator:
    """(S_x - E I)^2 = (1 + E^2) I - 2E sigma_x with E = <beta|S_x|beta>, half-quantum units.

    Its expectation on ``beta`` equals the per-particle variance of the x spin
    on that state; on any other state it has no such meaning.
    """
    e_val = dot(X.bloch(), beta)
    return 1.0 + e_val * e_val, (-2.0 * e_val, 0.0, 0.0)


def annihilation_residual(beta: Vector) -> float:
    """Norm of ``variance_pseudo_operator(beta)`` applied to its own source.

    For O = a I + b.sigma, O^2 = (a^2 + |b|^2) I + 2a b.sigma, so
    ||O beta||^2 = <beta|O^2|beta> = a^2 + |b|^2 + 2a b.m.
    """
    a, b = variance_pseudo_operator(beta)
    return math.sqrt(max(a * a + dot(b, b) + 2.0 * a * dot(b, beta), 0.0))


def null_operator_contradiction() -> tuple[Operator, Operator]:
    """Witness pair showing the family cannot be one fixed operator.

    Returns the members built from the +x and the +z eigenstate. Each member
    built from an x eigenstate annihilates its source (so a fixed operator
    with those eigenstates would be the null operator), yet the member built
    from the +z eigenstate has expectation 1 there. Both facts are verified
    numerically; failing to produce them is a bug, not an error state.
    """
    x_plus = eigenstate(X, SpinOutcome.PLUS)
    x_minus = eigenstate(X, SpinOutcome.MINUS)
    z_plus = eigenstate(Z, SpinOutcome.PLUS)

    annihilates = all(
        annihilation_residual(s) < _ANNIHILATION_TOL for s in (x_plus, x_minus)
    )
    if not annihilates:
        raise RuntimeError("x eigenstates were not annihilated; numerical kernel is broken")

    zero_op, nonzero_op = variance_pseudo_operator(x_plus), variance_pseudo_operator(z_plus)
    if abs(expectation(nonzero_op, z_plus) - 1.0) > _ANNIHILATION_TOL:
        raise RuntimeError("z eigenstate expectation drifted from 1; numerical kernel is broken")
    return zero_op, nonzero_op


def _best_affine_fit(rows: np.ndarray, targets: np.ndarray) -> tuple[float, float]:
    """Least-squares residuals of the best fixed observable against targets.

    The expectation of any 2x2 Hermitian O on a state with Bloch vector m is
    affine in m, so fitting over the rows [1, m_x, m_y, m_z] of the 4 x n
    array ``rows`` searches all of them. The fit solves the 4x4 normal
    equations: over points spread on the sphere their Gram matrix is near
    n diag(1, 1/3, 1/3, 1/3), with condition number about 3, so they agree
    with an SVD fit to a few ulps. ``targets`` is overwritten by the residuals.
    """
    coef = np.linalg.solve(rows @ rows.T, rows @ targets)
    residuals = np.subtract(coef @ rows, targets, out=targets)
    rms = float(np.sqrt(np.mean(residuals**2)))
    return rms, float(np.max(np.abs(residuals)))


def fixed_operator_infeasibility(samples: int, seed: int) -> tuple[float, float]:
    """How badly the best state-independent observable misses the variance.

    States are drawn uniformly on the Bloch sphere; the target is each state's
    x-spin variance 1 - m_x^2. Returns (rms_residual, max_residual) of the
    optimal fit, which converge to sqrt(4/45) and 2/3 as samples grow.
    """
    if samples < 100:
        raise ValueError("need at least 100 samples for a meaningful fit")
    rng = np.random.default_rng(seed)
    # z is drawn before phi, which fixes the states of a seed. The rows are 1,
    # m_x, m_y, m_z, filled in place: sin(theta) lives in the m_x row until
    # m_x replaces it, and the targets reuse phi's buffer.
    rows = np.empty((4, samples))
    rows[0] = 1.0
    rows[3] = rng.uniform(-1.0, 1.0, samples)
    phi = rng.uniform(0.0, 2.0 * math.pi, samples)
    sin_t = np.square(rows[3], out=rows[1])
    np.sqrt(np.subtract(1.0, sin_t, out=sin_t), out=sin_t)
    np.multiply(sin_t, np.sin(phi, out=rows[2]), out=rows[2])
    np.multiply(sin_t, np.cos(phi, out=phi), out=rows[1])
    targets = np.subtract(1.0, np.square(rows[1], out=phi), out=phi)
    return _best_affine_fit(rows, targets)
