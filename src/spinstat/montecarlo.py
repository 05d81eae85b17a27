"""Ideal Stern-Gerlach simulation: binomial sampling of each trial's + count,
trial statistics, and an exact convolution oracle for the total-spin
distribution.

Particles within a component are independent and identical, so a
component's + count in one trial is a Binomial(count, p+) draw; only the law
of the total matters. :func:`run_trials` cuts each component with
0 < p+ < 1 into pieces of at most :data:`PIECE` particles (its full pieces
first, then its remainder, components in order) and draws piece ``j`` of trial
``t`` as one binomial, by inverting the piece's exact CDF at word ``j`` of the
trial's stream. Components with p+ in {0, 1} add a constant and take no
words.

Reproducibility contract: the + count of piece ``j`` in trial ``t`` under
seed ``s`` is a pure function of ``(s, t, j)``, whatever the worker count.
Word ``j`` is the ``j``-th uniform of numpy's
``Generator(Philox(counter=t << 128, key=s mod 2**64)).random()``: word
``j mod 4`` of the Philox4x64-10 block with counter words
``[j // 4 + 1, 0, t, 0]`` and key ``[s mod 2**64, 0]``, turned into the double
``(word >> 11) * 2**-53``. A vectorized numpy kernel computes those words for
many trials at once, so numpy's own generators are never called.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .ensemble import EnsembleSpec
from .spin import Axis, SpinOutcome, born_probability, check_int, state_mean_and_variance

__all__ = [
    "TrialStatistics",
    "TotalSpinDistribution",
    "PredictionReport",
    "run_trials",
    "exact_total_distribution",
    "preparation_aware_prediction",
]

# Exact-PMF guard: refuse totals with more support points than this. Only the
# window of nonzero probabilities is convolved; it is about 75 sqrt(n p q)
# points wide, so the cost grows about linearly with n. At the edge, 999999
# particles take 0.8-1.2 s in one component and 1.5 s in three (2-core x86
# box, numpy 2.4).
MAX_SUPPORT_POINTS = 1_000_000

# Particles per piece. Building a piece's CDF by convolution takes about
# 0.5 ms at 1024 particles, 7 ms at 4096 and 4-5 s at 10**7 (2-core x86 box,
# numpy 2.4), while each trial takes one word per piece: pieces keep both the
# setup and the per-trial work small, however large a component is.
PIECE = 1024

# A kernel call covers at most 4 * _BATCH_BLOCKS words, about 64 KiB per
# temporary array. 2**13 blocks was the fastest of 2**10..2**18 when every
# particle took a word (2-core x86 box, numpy 2.4).
_BATCH_BLOCKS = 1 << 13

# Philox4x64-10 (ten rounds) multipliers and Weyl key increments (Salmon et
# al., "Parallel Random Numbers: As Easy as 1, 2, 3", SC'11), as in numpy.
_PHILOX_M0, _PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_PHILOX_W0, _PHILOX_W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_U64_MASK = (1 << 64) - 1
_LO32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)


@dataclass(frozen=True)
class TrialStatistics:
    """Empirical summary over independent repeated trials."""

    trials: int
    sample_mean: float
    sample_variance: float
    min_total: int
    max_total: int

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "sample_mean": self.sample_mean,
            "sample_variance": self.sample_variance,
            "min": self.min_total,
            "max": self.max_total,
        }


class TotalSpinDistribution:
    """Exact probability mass function of the ensemble total, half-quantum units."""

    def __init__(self, support: np.ndarray, probabilities: np.ndarray):
        support = np.asarray(support, dtype=np.int64)
        probabilities = np.asarray(probabilities, dtype=float)
        if support.shape != probabilities.shape or support.ndim != 1:
            raise ValueError("support and probabilities must be 1-d arrays of equal length")
        if abs(float(probabilities.sum()) - 1.0) > 1e-10:
            raise ValueError("probabilities must sum to 1")
        self.support = support
        self.probabilities = probabilities

    def mean(self) -> float:
        return float(self.probabilities @ self.support.astype(float))

    def variance(self) -> float:
        """Sum of p (x - mean)**2: the centred form, which does not cancel when |mean| >> sigma."""
        return float(self.probabilities @ (self.support.astype(float) - self.mean()) ** 2)


@dataclass(frozen=True)
class PredictionReport:
    """Predicted (mean, variance) for the ensemble total along one axis."""

    mean: float
    variance: float
    method: str

    @property
    def sigma(self) -> float:
        return math.sqrt(max(self.variance, 0.0))

    def to_json_dict(self) -> dict:
        return {
            "mean": self.mean,
            "variance": self.variance,
            "sigma": self.sigma,
            "method": self.method,
            "units": "half_quanta",
        }


def _component_probabilities(e: EnsembleSpec, axis: Axis) -> list[tuple[int, float]]:
    return [
        (c.count, born_probability(c.state, axis, SpinOutcome.PLUS))
        for c in e.components
        if c.count > 0
    ]


def _mulhilo(a: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products ``a * m``.

    numpy has no 128-bit integers: the low word is the wrapping uint64
    product, the high word is assembled from 32-bit halves.
    """
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    a_lo, a_hi = a & _LO32, a >> _S32
    lo_hi, hi_lo = a_lo * m_hi, a_hi * m_lo
    carry = ((a_lo * m_lo) >> _S32) + (lo_hi & _LO32) + (hi_lo & _LO32)
    high = a_hi * m_hi + (lo_hi >> _S32) + (hi_lo >> _S32) + (carry >> _S32)
    return high, a * np.uint64(m)


def _philox_uniforms(seed: int, start: int, stop: int, first: int, count: int) -> np.ndarray:
    """Uniforms ``first..first+count-1`` of trials ``start..stop-1``, one row per trial."""
    skip = first // 4
    blocks = -(-(first + count) // 4) - skip
    shape = (stop - start, blocks)
    c0 = np.broadcast_to(np.arange(skip + 1, skip + blocks + 1, dtype=np.uint64), shape)
    c2 = np.broadcast_to(np.arange(start, stop, dtype=np.uint64)[:, None], shape)
    c1 = c3 = np.uint64(0)
    k0, k1 = seed, 0
    for _ in range(10):
        hi0, lo0 = _mulhilo(c0, _PHILOX_M0)
        hi1, lo1 = _mulhilo(c2, _PHILOX_M1)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ np.uint64(k1), lo0
        k0, k1 = (k0 + _PHILOX_W0) & _U64_MASK, (k1 + _PHILOX_W1) & _U64_MASK
    words = np.stack((c0, c1, c2, c3), axis=-1).reshape(stop - start, 4 * blocks)
    words = words[:, first - 4 * skip : first - 4 * skip + count]
    return (words >> np.uint64(11)) * 2.0**-53


def _pieces(probs) -> tuple[int, list[tuple[int, int, np.ndarray, int]], int]:
    """Lay out one trial's words: ``(certain, runs, width)``.

    ``certain`` counts the particles with p+ = 1. Each component with
    0 < p+ < 1 is cut into pieces of at most :data:`PIECE` particles, its full
    pieces first, then its remainder, and each piece takes one word. ``runs``
    lists ``(first, stop, cdf, offset)`` once for a component's full pieces
    and once for its remainder: words ``first..stop-1`` each invert ``cdf``,
    whose entry ``i`` is the probability of at most ``offset + i`` + outcomes
    in the piece. ``width`` is the number of words.
    """
    certain, runs, width = 0, [], 0
    for count, p in probs:
        if p == 1.0:
            certain += count
        elif p > 0.0:
            full, rest = divmod(count, PIECE)
            for pieces, size in ((full, PIECE), (1, rest)):
                if pieces and size:
                    pmf, offset = _binomial_count_pmf(size, p)
                    runs.append((width, width + pieces, np.cumsum(pmf), offset))
                    width += pieces
    return certain, runs, width


def _fill_counts(seed, certain, runs, width, start, stop, out) -> None:
    """Fill ``out[start:stop]`` with + counts by inverting each piece's CDF.

    Piece ``j`` of trial ``t`` has ``offset + i`` + outcomes, where ``i`` is
    the number of its CDF entries at or below word ``j`` of trial ``t``,
    capped at the last index. A kernel call covers at most
    ``4 * _BATCH_BLOCKS`` words: whole trials when they fit, else one trial's
    words in column blocks, so memory does not grow with the ensemble.
    """
    budget = 4 * _BATCH_BLOCKS
    rows = max(1, budget // max(width, 1))
    for lo in range(start, stop, rows):
        hi = min(lo + rows, stop)
        plus = np.full(hi - lo, certain, dtype=np.int64)
        for first in range(0, width, budget):
            last = min(first + budget, width)
            words = _philox_uniforms(seed, lo, hi, first, last - first)
            for a, b, cdf, offset in runs:
                a, b = max(a, first), min(b, last)
                if a < b:
                    index = np.searchsorted(cdf, words[:, a - first : b - first], side="right")
                    plus += np.minimum(index, len(cdf) - 1).sum(axis=1) + offset * (b - a)
        out[lo:hi] = plus


def run_trials(
    e: EnsembleSpec,
    axis: Axis,
    trials: int,
    seed: int,
    workers: int = 1,
    keep_counts: bool = False,
):
    """Repeat the full-ensemble measurement and summarize the totals.

    Deterministic for fixed (ensemble, axis, trials, seed) at any worker
    count. Returns :class:`TrialStatistics`, or ``(stats, n_plus)`` when
    ``keep_counts`` is set, where ``n_plus[t]`` is trial t's number of +
    outcomes. Trials split into one contiguous chunk per thread, on
    ``min(workers, trials, os.cpu_count())`` threads.
    """
    if trials < 2:
        raise ValueError("at least 2 trials are needed for an unbiased variance")
    if workers < 1:
        raise ValueError("worker count must be positive")

    seed = check_int(seed, "seed") % (1 << 64)
    certain, runs, width = _pieces(_component_probabilities(e, axis))
    n = e.total_count
    n_plus = np.empty(trials, dtype=np.int64)

    threads = min(workers, trials, os.cpu_count() or 1)
    if threads == 1:
        _fill_counts(seed, certain, runs, width, 0, trials, n_plus)
    else:
        bounds = [trials * i // threads for i in range(threads + 1)]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [
                pool.submit(_fill_counts, seed, certain, runs, width, lo, hi, n_plus)
                for lo, hi in zip(bounds, bounds[1:])
            ]
            for future in futures:
                future.result()

    totals = 2 * n_plus - n
    stats = TrialStatistics(
        trials=trials,
        sample_mean=float(int(totals.sum()) / trials),
        sample_variance=float(np.var(totals, ddof=1)),
        min_total=int(totals.min()),
        max_total=int(totals.max()),
    )
    return (stats, n_plus) if keep_counts else stats


def _trim(pmf: np.ndarray, offset: int) -> tuple[np.ndarray, int]:
    """Strip the exact zeros at both ends of ``pmf``, whose first entry has index ``offset``.

    Probabilities that underflowed stay exactly zero through every later
    convolution, so dropping them changes no other value.
    """
    nonzero = np.flatnonzero(pmf)
    return pmf[nonzero[0] : nonzero[-1] + 1], offset + int(nonzero[0])


def _binomial_count_pmf(count: int, p: float) -> tuple[np.ndarray, int]:
    """PMF of the number of + outcomes among ``count`` particles with + probability p.

    Returns ``(pmf, offset)``: ``pmf[i]`` is the probability of ``offset + i``
    outcomes, and every count outside that window has probability exactly 0.
    Built by binary-power convolution of [1-p, p], trimmed after every step,
    then divided by its exactly rounded sum, so rounding that accumulates over
    many steps cannot leave the total away from 1. For dyadic p and small
    counts every value is an exact double and the sum is exactly 1.
    """
    result, result_offset = np.array([1.0]), 0
    power, power_offset = _trim(np.array([1.0 - p, p]), 0)
    k = count
    while k:
        if k & 1:
            result, result_offset = _trim(np.convolve(result, power), result_offset + power_offset)
        k >>= 1
        if k:
            power, power_offset = _trim(np.convolve(power, power), 2 * power_offset)
    return result / math.fsum(result), result_offset


def exact_total_distribution(e: EnsembleSpec, axis: Axis) -> TotalSpinDistribution:
    """Exact total-spin PMF by convolving every particle's two-point law.

    Only the window between the first and last nonzero probability is
    convolved. Support points with exactly zero probability are dropped, so a
    deterministic preparation reports a single-point distribution.
    """
    n = e.total_count
    if n + 1 > MAX_SUPPORT_POINTS:
        raise ValueError(
            f"total of {n} particles exceeds the exact-PMF guard "
            f"({MAX_SUPPORT_POINTS} support points)"
        )
    pmf, offset = np.array([1.0]), 0
    for count, p in _component_probabilities(e, axis):
        binomial, shift = _binomial_count_pmf(count, p)
        pmf, offset = _trim(np.convolve(pmf, binomial), offset + shift)
    support = 2 * (offset + np.arange(len(pmf), dtype=np.int64)) - n
    keep = pmf > 0.0
    return TotalSpinDistribution(support[keep], pmf[keep])


def preparation_aware_prediction(e: EnsembleSpec, axis: Axis) -> PredictionReport:
    """Mean and variance of the total from the preparation record.

    Particles are independent, so component means and variances add with
    multiplicity; matches the exact distribution's moments.
    """
    mean = 0.0
    variance = 0.0
    for component in e.components:
        m, v = state_mean_and_variance(component.state, axis)
        mean += component.count * m
        variance += component.count * v
    return PredictionReport(mean, variance, method="preparation_aware")
