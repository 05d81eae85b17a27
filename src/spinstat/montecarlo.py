"""Ideal Stern-Gerlach simulation: per-particle Born sampling, trial statistics,
and an exact convolution oracle for the total-spin distribution.

Reproducibility contract: the outcome of particle ``j`` in trial ``t`` under
seed ``s`` is a pure function of ``(s, t, j)``. Trial ``t`` uses the uniforms
of numpy's ``Generator(Philox(counter=t << 128, key=s mod 2**64)).random(n)``:
draw ``j`` is word ``j mod 4`` of the Philox4x64-10 block with counter words
``[j // 4 + 1, 0, t, 0]`` and key ``[s mod 2**64, 0]``, turned into the double
``(word >> 11) * 2**-53``, and the particle is measured + when that draw is
below its Born probability p+. The outcome counts never depend on which of
the sampling paths below ran, nor on how trials are split across threads.

:func:`run_trials` picks its path from the inputs:

* every component has p+ in {0, 1}: no draws at all, because a uniform in
  [0, 1) is always below 1 and never below 0;
* at most :data:`BATCH_MAX_PARTICLES` particles: a numpy Philox4x64-10 that
  evaluates the blocks of many trials at once;
* more particles: one numpy ``Philox`` per chunk of trials, its counter reset
  to ``[0, 0, t, 0]`` for each trial. Up to 2**16 particles, one call draws a
  whole trial into one row of a block of trials, and one comparison counts
  the block; above that, a trial is drawn at most 2**16 uniforms at a time.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

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

# Ensembles of at most this many particles take the batched Philox kernel;
# larger ones reset one generator per trial. The reset path pays a few
# microseconds per trial, the batched one a flat cost per draw, so the
# crossover hardly moves with the component count. Measured on a 2-core x86
# box with numpy 2.4, one thread, 4e5 draws per case, the range of the
# per-session medians over 2-4 sessions, batched vs reset (ms):
#   one component    n=32: 29-32 vs 45-52   n=48: 26-35 vs 27-39
#                    n=64: 29-35 vs 28-31   n=96: 27-28 vs 19-20
#   three components n=32: 30-32 vs 53-54   n=48: 27-34 vs 27-38
#                    n=64: 27-34 vs 25-34   n=96: 27-28 vs 19-20
BATCH_MAX_PARTICLES = 56

# Philox blocks per batched step: 64 KiB per temporary array, the fastest
# of 2**10..2**18 on the box above.
_BATCH_BLOCKS = 1 << 13

# Uniforms a worker on the reset path holds at once, as a block of whole
# trials or a piece of one trial, so it needs O(block) memory rather than
# 8 bytes per particle.
_DRAW_BLOCK = 1 << 16

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


def _philox_uniforms(seed: int, start: int, stop: int, n: int) -> np.ndarray:
    """The first ``n`` uniforms of trials ``start..stop-1``, one row per trial."""
    blocks = -(-n // 4)
    shape = (stop - start, blocks)
    c0 = np.broadcast_to(np.arange(1, blocks + 1, dtype=np.uint64), shape)
    c2 = np.broadcast_to(np.arange(start, stop, dtype=np.uint64)[:, None], shape)
    c1 = c3 = np.uint64(0)
    k0, k1 = seed, 0
    for _ in range(10):
        hi0, lo0 = _mulhilo(c0, _PHILOX_M0)
        hi1, lo1 = _mulhilo(c2, _PHILOX_M1)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ np.uint64(k1), lo0
        k0, k1 = (k0 + _PHILOX_W0) & _U64_MASK, (k1 + _PHILOX_W1) & _U64_MASK
    words = np.stack((c0, c1, c2, c3), axis=-1).reshape(stop - start, 4 * blocks)[:, :n]
    return (words >> np.uint64(11)) * 2.0**-53


def _thresholds(probs) -> np.ndarray:
    """Each particle's p+, in draw order."""
    return np.concatenate([np.full(count, p) for count, p in probs])


def _batched_counts(seed, probs, n, start, stop, out) -> None:
    """Fill ``out[start:stop]`` with + counts, many trials per kernel call."""
    thresholds = _thresholds(probs)
    step = max(1, _BATCH_BLOCKS // -(-n // 4))
    for lo in range(start, stop, step):
        hi = min(lo + step, stop)
        out[lo:hi] = np.count_nonzero(_philox_uniforms(seed, lo, hi, n) < thresholds, axis=1)


def _reset_counts(seed, probs, n, start, stop, out) -> None:
    """Fill ``out[start:stop]`` with + counts from one generator reset per trial.

    Up to ``_DRAW_BLOCK`` particles, each trial's draws fill one row of a
    block of ``_DRAW_BLOCK // n`` trials, and one comparison counts the whole
    block. Above that, each component's draws come in pieces of at most
    ``_DRAW_BLOCK``; the pieces continue one stream, so they are the trial's
    draws in order.
    """
    bit_generator = Philox(key=seed)
    generator = Generator(bit_generator)
    state = bit_generator.state
    counter = state["state"]["counter"]

    # ``state`` keeps the fresh generator's buffer_pos of 4 (no buffered
    # words), so each assignment also drops the previous trial's leftovers.
    def reset(t):
        counter[:] = (0, 0, t, 0)
        bit_generator.state = state

    if n <= _DRAW_BLOCK:
        thresholds = _thresholds(probs)
        rows = _DRAW_BLOCK // n
        buffer = np.empty((min(rows, stop - start), n))
        for lo in range(start, stop, rows):
            block = buffer[: min(rows, stop - lo)]
            for t, row in enumerate(block, lo):
                reset(t)
                generator.random(out=row)
            out[lo : lo + len(block)] = np.count_nonzero(block < thresholds, axis=1)
        return

    buffer = np.empty(_DRAW_BLOCK)
    for t in range(start, stop):
        reset(t)
        plus = 0
        for count, p in probs:
            for first in range(0, count, _DRAW_BLOCK):
                draws = generator.random(out=buffer[: min(count - first, _DRAW_BLOCK)])
                plus += np.count_nonzero(draws < p)
        out[t] = plus


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
    probs = _component_probabilities(e, axis)
    n = e.total_count
    n_plus = np.empty(trials, dtype=np.int64)

    if all(p in (0.0, 1.0) for _, p in probs):
        n_plus[:] = sum(count for count, p in probs if p == 1.0)
    else:
        fill = _batched_counts if n <= BATCH_MAX_PARTICLES else _reset_counts
        threads = min(workers, trials, os.cpu_count() or 1)
        if threads == 1:
            fill(seed, probs, n, 0, trials, n_plus)
        else:
            bounds = [trials * i // threads for i in range(threads + 1)]
            with ThreadPoolExecutor(max_workers=threads) as pool:
                futures = [
                    pool.submit(fill, seed, probs, n, lo, hi, n_plus)
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
