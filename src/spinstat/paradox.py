"""Why no single operator can stand for the variance of a spin component.

The per-state construction (S_x - <S_x>)^2 reproduces each state's variance,
but the operator it yields depends on the state it was built from: the members
built from the two x eigenstates annihilate their sources, while the member
built from a z eigenstate is the identity. A state-independent observable with
both behaviors cannot exist, and the least-squares fit below quantifies how
far any fixed candidate must miss. It fits over states drawn uniformly on the
Bloch sphere by Marsaglia's trig-free method, in chunks whose size does not
change the states of a seed. It sums the normal equations, and then the
residuals, over blocks of columns small enough that each BLAS call stays on
one thread, making each block's targets and residuals as it goes. An
operator a I + b.sigma is the real pair ``(a, b)``; the harness builds the two
witness members with :func:`variance_pseudo_operator` and evaluates them on
their sources.
"""

from __future__ import annotations

import math

import numpy as np

from .spin import Vector, X, check_int, dot

__all__ = [
    "variance_pseudo_operator",
    "annihilation_residual",
    "fixed_operator_infeasibility",
]

# Most random states the fit may draw, checked before any work starts. Its
# peak memory grows by about 32 bytes per sample, the sample array's column:
# 66 MB at 10**6 and 341 MB at 10**7, measured as the CLI's peak RSS.
MAX_PARADOX_SAMPLES = 10**7

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


# Columns per BLAS call in _best_affine_fit. The fit does not depend on it
# beyond the order of its sums; it keeps each call a 4 x 4 x 2**13 gemm, which
# numpy's bundled OpenBLAS runs on one thread: CPU over wall time was 0.98-1.00
# at 10**6 samples on a 2-core box, against 2.04 and 2.06 at 2**14 and 2**15,
# where a second thread joins and spins after each call.
_FIT_BLOCK = 1 << 13


def _best_affine_fit(rows: np.ndarray) -> tuple[float, float]:
    """Least-squares residuals of the best fixed observable against the x-spin variance.

    The expectation of any 2x2 Hermitian O on a state with Bloch vector m is
    affine in m, so fitting over the rows [1, m_x, m_y, m_z] of the 4 x n
    array ``rows`` searches all of them; the target of each state is
    1 - m_x^2. The fit solves the 4x4 normal equations: over points spread on
    the sphere their Gram matrix is near n diag(1, 1/3, 1/3, 1/3), with
    condition number about 3, so they agree with an SVD fit to a few ulps.
    Both passes walk the columns in blocks of ``_FIT_BLOCK``, so no n-vector
    is made: the first sums the Gram matrix and right-hand side, and the
    second makes each block's residuals in a block-sized temporary.
    """
    blocks = [rows[:, start : start + _FIT_BLOCK] for start in range(0, rows.shape[1], _FIT_BLOCK)]
    gram, rhs = np.zeros((4, 4)), np.zeros(4)
    for block in blocks:
        gram += block @ block.T
        rhs += block @ (1.0 - np.square(block[1]))
    coef = np.linalg.solve(gram, rhs)
    squares, worst = 0.0, 0.0
    for block in blocks:
        # coef[0] is added after the product, not folded into it: the output's last bits rest on this order.
        residuals = coef[1:] @ block[1:]
        residuals += coef[0]
        residuals -= 1.0 - np.square(block[1])
        squares += float(residuals @ residuals)
        worst = max(worst, float(residuals.max()), -float(residuals.min()))
    return math.sqrt(squares / rows.shape[1]), worst


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
    sqrt(4/45) and 2/3 as samples grow. Peak memory is the 4 x n sample
    array, 32 bytes per sample: the targets and residuals are made per block
    of columns.
    ``samples`` must lie in [100, :data:`MAX_PARADOX_SAMPLES`] and ``seed``
    be non-negative, or a :class:`ConfigError` names the field.
    """
    check_int(samples, "samples", 100, MAX_PARADOX_SAMPLES)
    check_int(seed, "seed", 0)
    return _best_affine_fit(_sphere_rows(samples, seed))
