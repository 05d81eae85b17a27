"""Closed-form reference values for spinstat's outputs, computed without spinstat.

An ensemble component is ``(bloch, count)``: the unit Bloch vector of its pure
state and its number of particles. Measuring one particle along the unit
vector ``a`` gives +1 with probability ``p = (1 + bloch . a) / 2`` and -1
otherwise, so the total of an ensemble is a sum of independent two-point
variables. Everything below follows from that, in half-quantum units.
"""

from __future__ import annotations

import math

NAMED_AXES = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}


def unit_vector(theta: float, phi: float) -> tuple[float, float, float]:
    """Bloch vector of polar angle ``theta`` from z and azimuth ``phi`` from x."""
    s = math.sin(theta)
    return (s * math.cos(phi), s * math.sin(phi), math.cos(theta))


def axis_vector(axis) -> tuple[float, float, float]:
    """Unit vector of an axis in spinstat's JSON form: a name or {theta, phi}."""
    if isinstance(axis, str):
        return NAMED_AXES[axis]
    return unit_vector(axis["theta"], axis.get("phi", 0.0))


def components_from_json(ensemble: dict) -> list[tuple[tuple[float, float, float], int]]:
    """``(bloch, count)`` pairs of an ensemble in spinstat's JSON form.

    The +1 state along an axis has that axis as Bloch vector and the -1 state
    the opposite one. Presets A and B split n evenly between the two x or z
    eigenstates.
    """
    if "preset" in ensemble:
        axis = NAMED_AXES["x" if ensemble["preset"] == "A" else "z"]
        half = ensemble["n"] // 2
        return [(axis, half), (tuple(-v for v in axis), half)]
    out = []
    for c in ensemble["components"]:
        v = axis_vector(c["axis"])
        out.append((tuple(c["sign"] * x for x in v), c["count"]))
    return out


def _dot(u, v) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def p_plus(bloch, axis) -> float:
    """Born probability of +1 along ``axis`` for the state with Bloch vector ``bloch``."""
    return min(max((1.0 + _dot(bloch, axis)) / 2.0, 0.0), 1.0)


def cumulants(components, axis) -> tuple[float, float, float, float]:
    """First four cumulants of the total.

    Cumulants of independent variables add. A +-1 outcome is 2B - 1 for a
    Bernoulli B with cumulants p, pq, pq(q - p), pq(1 - 6pq); scaling by 2
    multiplies the k-th cumulant by 2^k.
    """
    k1 = k2 = k3 = k4 = 0.0
    for bloch, count in components:
        p = p_plus(bloch, axis)
        q = 1.0 - p
        pq = p * q
        k1 += count * (p - q)
        k2 += count * 4.0 * pq
        k3 += count * 8.0 * pq * (q - p)
        k4 += count * 16.0 * pq * (1.0 - 6.0 * pq)
    return k1, k2, k3, k4


def predictions(components, axis) -> dict[str, tuple[float, float]]:
    """(mean, variance) of the total under each of spinstat's three predictors.

    With m_i = bloch_i . axis, the preparation-aware law adds each particle's
    mean m_i and variance 1 - m_i^2. The density operator has Tr[rho S] equal
    to the weighted mean Bloch projection and Tr[rho S^2] = Tr[rho] because
    S^2 = I; the normalized operator has trace 1, the unnormalized one trace N.
    """
    n = sum(count for _, count in components)
    s = sum(count * _dot(b, axis) for b, count in components)
    var = sum(count * (1.0 - _dot(b, axis) ** 2) for b, count in components)
    return {
        "preparation_aware": (s, var),
        "density_normalized": (s / n, 1.0 - (s / n) ** 2),
        "density_unnormalized": (s, n - s * s),
    }


def sample_variance_se(k2: float, k4: float, trials: int) -> float:
    """Exact standard error of the unbiased sample variance of ``trials`` totals.

    Var(s^2) = mu4 / T - sigma^4 (T - 3) / (T (T - 1)) with mu4 = k4 + 3 k2^2.
    """
    mu4 = k4 + 3.0 * k2 * k2
    t = trials
    return math.sqrt(max(mu4 / t - k2 * k2 * (t - 3) / (t * (t - 1)), 0.0))


def sample_mean_se(k2: float, trials: int) -> float:
    return math.sqrt(k2 / trials)


def pmf_cumulants(support, probabilities) -> tuple[float, float, float]:
    """Mean, variance and third cumulant of a finite distribution."""
    mean = sum(p * x for x, p in zip(support, probabilities))
    c2 = sum(p * (x - mean) ** 2 for x, p in zip(support, probabilities))
    c3 = sum(p * (x - mean) ** 3 for x, p in zip(support, probabilities))
    return mean, c2, c3


PARADOX_RMS = math.sqrt(4.0 / 45.0)
"""Limit of the best fixed observable's rms miss of the x-spin variance 1 - m_x^2
over uniformly random states: the residual is the part of 1 - m_x^2 outside
span{1, m_x, m_y, m_z}, i.e. (1/3 - m_x^2) with mean square 4/45."""

PARADOX_MAX = 2.0 / 3.0
"""Limit of the largest residual, reached at the x eigenstates."""
