"""Why no single operator can stand for the variance of a spin component.

The per-state construction (S_x - <S_x>)^2 reproduces each state's variance,
but the operator it yields depends on the state it was built from: the members
built from the two x eigenstates annihilate their sources, while the member
built from a z eigenstate is the identity. A state-independent observable with
both behaviors cannot exist, and the least-squares fit below quantifies how
far any fixed candidate must miss. It fits over states drawn uniformly on the
Bloch sphere by Marsaglia's trig-free method, in chunks whose size does not
change the states of a seed, and writes its residuals into the sample array's
all-ones row once the normal equations are solved. An operator a I + b.sigma
is the real pair ``(a, b)``; :func:`null_operator_contradiction` returns the
two witness members as such pairs, and the harness evaluates them on their
sources.
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
    with an SVD fit to a few ulps. The all-ones row 0 is not needed once they
    are solved, so the residuals are written into it and no n-vector is made.
    """
    coef = np.linalg.solve(rows @ rows.T, rows @ targets)
    residuals = np.matmul(coef[1:], rows[1:], out=rows[0])
    residuals += coef[0]
    residuals -= targets
    rms = math.sqrt(float(residuals @ residuals) / residuals.size)
    return rms, max(float(residuals.max()), -float(residuals.min()))


# Pairs of uniforms drawn per chunk by _sphere_rows. The states of a seed do
# not depend on it; it only bounds the chunk buffers, under 1 MB at 2**14.
_PAIR_CHUNK = 1 << 14


def _sphere_rows(samples: int, seed: int) -> np.ndarray:
    """The 4 x samples array [1, m_x, m_y, m_z] of states uniform on the Bloch sphere.

    Marsaglia's method (Ann. Math. Statist. 43, 645-646, 1972), with no sin or
    cos: consecutive pairs (u, v) of ``default_rng(seed).random()``, scaled to
    [-1, 1)^2, are kept when s = u^2 + v^2 < 1, and each kept pair gives
    m = (2u sqrt(1 - s), 2v sqrt(1 - s), 1 - 2s). Pairs are drawn
    ``_PAIR_CHUNK`` at a time and kept in stream order, so the states do not
    depend on the chunk size, and the first n states of a larger run are the
    states of n samples.
    """
    rng = np.random.default_rng(seed)
    rows = np.empty((4, samples))
    rows[0] = 1.0
    pairs = np.empty((_PAIR_CHUNK, 2))
    u, v = pairs.T
    done = 0
    while done < samples:
        rng.random(out=pairs)
        pairs *= 2.0
        pairs -= 1.0
        s = u * u + v * v
        kept = np.flatnonzero(s < 1.0)[: samples - done]
        end = done + kept.size
        m = rows[1:, done:end]
        m[0], m[1], m[2] = u[kept], v[kept], s[kept]
        m[:2] *= 2.0 * np.sqrt(1.0 - m[2])
        m[2] = 1.0 - 2.0 * m[2]
        done = end
    return rows


def fixed_operator_infeasibility(samples: int, seed: int) -> tuple[float, float]:
    """How badly the best state-independent observable misses the variance.

    States are drawn uniformly on the Bloch sphere by :func:`_sphere_rows`;
    the target is each state's x-spin variance 1 - m_x^2. Returns
    (rms_residual, max_residual) of the optimal fit, which converge to
    sqrt(4/45) and 2/3 as samples grow. Peak memory is the 4 x n sample array
    and the targets, 40 bytes per sample: the residuals land in row 0.
    """
    if samples < 100:
        raise ValueError("need at least 100 samples for a meaningful fit")
    rows = _sphere_rows(samples, seed)
    targets = np.square(rows[1])
    return _best_affine_fit(rows, np.subtract(1.0, targets, out=targets))
