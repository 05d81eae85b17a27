"""Why no single operator can stand for the variance of a spin component.

The per-state construction (S_x - <S_x>)^2 reproduces each state's variance,
but the operator it yields depends on the state it was built from: the members
built from the two x eigenstates annihilate their sources, while the member
built from a z eigenstate is the identity. A state-independent observable with
both behaviors cannot exist, and :func:`fixed_operator_infeasibility`
measures how far the best fixed candidate must miss over random states. That
candidate is (2/3) I: the least-squares normal equations over the sphere have
moments of degree at most 4, which a spherical 5-design integrates exactly
(Delsarte, Goethals and Seidel, Geom. Dedicata 6, 1977), and the fit over the
12 icosahedron vertices gives it; the tests check this, so no run refits it. An
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

# Most random states a run may draw, checked before any work starts. It bounds
# the time, 47-48 ms in-process and 0.21-0.24 s at the CLI for 10**7 samples;
# memory does not grow with the count, and the whole CLI run peaks at 35 MB
# RSS (2-core x86 box, numpy 2.4).
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


# Uniforms per residual sum in fixed_operator_infeasibility, which draws two
# chunks at a time into one buffer, so its peak memory is that buffer, 133 KB
# traced, at any sample count. The states of a seed do not depend on it, but
# the residual sums are grouped by chunk, so the last bit of the rms does: it
# is a constant. 10**6 samples took 4.5-5.1 ms at 2**13, 4.4-4.5 ms at 2**14
# (264 KB traced) and 4.2-4.4 ms at 2**16 (1.05 MB) (medians of 15, 2-core
# x86 box, numpy 2.4).
_CHUNK = 1 << 13


def fixed_operator_infeasibility(samples: int, seed: int) -> tuple[float, float]:
    """How badly the best state-independent observable, (2/3) I, misses the variance over random states.

    Returns (rms_residual, max_residual) of 2/3 against each state's x-spin
    variance 1 - m_x^2 over ``samples`` states uniform on the Bloch sphere:
    the residual m_x^2 - 1/3, which tends to sqrt(4/45) in rms and never
    exceeds 2/3. By Archimedes' hat-box theorem m_x of such a state is
    uniform on [-1, 1], so each state is the one draw 2u - 1, u from
    ``default_rng(seed).random()`` in stream order, ``_CHUNK`` at a time.
    Each residual is taken as (3 m_x^2 - 1) / 3, whose every step rounds
    monotonically, so the max cannot round past 2/3. It is computed in
    place as 12 d^2 - 1 with d = u - 1/2, which has the same bits: d is
    exact, m_x = 2d, and a factor of 4 commutes with rounding, so
    fl(12 fl(d^2)) = fl(3 fl(m_x^2)). The residual before the division by 3
    is at least -1, so a chunk's least one is read only while the largest
    so far is below 1. Each chunk's squared residuals are summed by
    ``np.sum``, in a fixed pairwise order, and the sums are added in chunk
    order. Two chunks are drawn at a time as the rows of one array, and
    ``np.sum(axis=-1)`` sums each row as it would the chunk alone; the last
    chunks go one row at a time, the short one last.
    ``samples`` must lie in [100, :data:`MAX_PARADOX_SAMPLES`] and ``seed``
    be non-negative, or a :class:`ConfigError` names the field.
    """
    check_int(samples, "samples", 100, MAX_PARADOX_SAMPLES)
    check_int(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    rows = np.empty((2, min(samples, _CHUNK)))
    squares, worst, left = 0.0, 0.0, samples
    while left:
        height, width = 2 if left >= 2 * _CHUNK else 1, min(left, _CHUNK)
        left -= height * width
        r = rng.random(out=rows[:height, :width])
        r -= 0.5
        np.square(r, out=r)
        r *= 12.0
        r -= 1.0
        worst = max(worst, float(r.max()))
        if worst < 1.0:
            worst = max(worst, -float(r.min()))
        for square in np.sum(np.square(r, out=r), axis=-1).tolist():
            squares += square
    return math.sqrt(squares / samples) / 3.0, worst / 3.0
