"""Ideal Stern-Gerlach simulation: binomial sampling of each trial's + count,
the preparation-aware prediction of the total's mean and variance, and the
exact total-spin distribution: each component's binomial PMF, convolved
across components by :func:`_group_pmf`, starting from the first one's.
Windows of at most a piece's length are mixed by :func:`_mix`, the
fixed-order shift-and-add that builds the sampler's CDFs. Where a window is
longer, each output of a convolution is summed over its band, the terms at
least 2**-84 times its largest; the dropped ones together are below 2**-64
of it, past a double's precision. Outputs are summed in blocks, and a block
whose every term is below 2**-1078 over the shorter window's length is not
convolved: each of its outputs would round to 0 (see :func:`_band_convolve`).

Every particle is an independent two-point variable, so only the law of a
trial's total matters, not which component a particle belongs to.
:func:`run_trials` merges the components with 0 < p+ < 1 whose p+ are
bit-equal, in order of first appearance. A merged component of more than
:data:`PIECE` particles is cut into the fewest parts of at most
:data:`MAX_SUPPORT_POINTS` - 1 particles, their sizes differing by at most
one, and each part takes one word per trial. The other merged components
are laid out in order and cut every :data:`PIECE` particles, across
component boundaries, and each piece takes one word. So a trial takes one
word per part of each large component, plus ceil(other random particles /
PIECE). Components with p+ in {0, 1} add a constant and take no words.
Every word inverts a CDF built one way (:func:`_word_cdf`): each of its
parts' binomials only over its window (:func:`_binomial_window`), the
windows mixed in order by :func:`_mix`, so its bits rest on elementwise
IEEE arithmetic alone, not on BLAS or the CPU.

A word w in [0, 1) inverts to the number i of CDF entries at or below it,
capped at the last index. Where a CDF inverts enough words in its run, a
table of B buckets, sized in :func:`run_trials`, does this with one lookup.
Bucket floor(w * B), exact since B is a power of two, holds i for every
word in it unless an entry lies strictly inside the bucket. The CDF is
monotone, so a bucket without an entry inside inverts all its words alike,
and only words in the other buckets take a binary search: the result
equals the search for every word (the indexed search of Chen and Asau,
1974). The more buckets, the fewer words share a bucket with an entry.

Reproducibility contract: every word comes from one stream, numpy's
``Generator(Philox(key=s mod 2**64)).random()`` under seed ``s``. A run is
the consecutive words of a trial that invert one CDF: the parts of one size
of a large component, or one piece. The runs take the stream in layout
order, the large components' parts first, then the pieces, and each takes
its ``trials * words`` words trial by trial: word ``j`` of a run of
``words`` words in trial ``t`` is word ``start + t * words + j`` of the
stream, where ``start`` counts the words of the earlier runs in all trials.
So the + counts are a pure function of the ensemble, the axis, the trial
count and the seed.
"""

from __future__ import annotations

import math

import numpy as np

from .ensemble import EnsembleSpec
from .spin import Axis, ConfigError, SpinOutcome, _probability, born_probability, check_int, dot

__all__ = [
    "TotalSpinDistribution",
    "run_trials",
    "exact_total_distribution",
    "preparation_aware_prediction",
]

# Exact-PMF guard: refuse totals with more support points than this. Only the
# window of nonzero probabilities is kept, about 75 sqrt(n p q) points wide. A
# component's binomial costs O(window); each convolution across components
# costs the output window times the band, about 22 sqrt(v1 v2 / (v1 + v2))
# terms for windows of variances v1 and v2, plus 128 for the block. At the
# edge, 999999 particles take 0.06-0.09 s in one component at p+ = 1/2 and
# 0.06-0.08 s in three tilted ones, 0.28-0.33 s with whole-window
# convolutions (2-core x86 box, numpy 2.4). The sampler cuts a large component into parts
# of at most MAX_SUPPORT_POINTS - 1 particles, so each part's window, cut at
# _BAND_FLOOR, holds at most 10792 entries, an index range that _guide's
# int16 table holds.
MAX_SUPPORT_POINTS = 1_000_000

# Particles per piece, and the most a merged component may hold and still
# share words with others. A word's CDF of one part costs O(window): 0.04 ms
# at 1024 particles and 0.05 ms at 4096, at p+ = 1/2. One that mixes parts
# costs the product of their windows: 0.37 ms for 512 + 512 particles at p+
# = 0.3 and 0.7, 0.54 ms for 400 + 300 + 324, 0.73 ms for 2048 + 2048 and
# 38 ms for 2 * 500000 (2-core x86 box, numpy 2.4). Each trial takes one word
# per piece. Pieces are cut across components, so components of at most
# PIECE particles take ceil(their particles / PIECE) words however they
# split: 1 for 12 particles in three components. A larger one takes one word
# per part, whose CDF is built over its window alone: 1 for 2 * 10**5
# particles in two components at one p+.
PIECE = 1024

# One draw takes at most this many words, 128 KiB of doubles: whole trials of
# one run when they fit, else one trial of the run in column blocks, so memory
# stays flat however large the ensemble. Inverting a draw makes a few
# temporaries of its size; at 2**15 words, 20 trials of demo B with 10**12
# particles along y (1000002 words a trial, so one trial in column blocks)
# raised the CLI's peak RSS by 0.3-0.4 MB, to 36.3-36.4 MB, with no gain in
# speed (0.6-0.8 s either way; five runs each, 2-core x86 box, numpy 2.4).
_BLOCK_WORDS = 1 << 14

# Most words one call may draw: trials times width, read from the counts alone
# and checked before any layout or CDF. At the edge, 4 trials of 1.5 * 10**8
# words took 12.7-16.6 s and 10**7 trials of 60 words 14.0-15.3 s, each word
# of 999999 particles at p+ = 1/2 (2-core x86 box, numpy 2.4). Unbounded, one
# component of 2**53 particles at p+ = 1/2 would take 9007208262 words per
# trial.
MAX_WORDS = 6 * 10**8

# Most trials one call may request, checked when a config is parsed and again
# here, where run_trials allocates: the call holds two arrays of 8 bytes per
# trial whatever the ensemble's width, and totals.csv is written in blocks of
# harness._CSV_BLOCK rows. At 10**7 trials of demo B along x with n = 2, the
# CLI run took 0.5-0.7 s, and 1.2-1.3 s with --totals (a 141 MB file), at
# 188 MB peak RSS either way (three runs each, 2-core x86 box, Python 3.11,
# numpy 2.4).
MAX_TRIALS = 10**7

# An exact-PMF convolution above PIECE + 1 entries keeps, for each output,
# the terms within this factor of its largest term (see _group_pmf for why no
# kept bit moves). At the oracles p+ of 3 * 20000 particles the band does 30%
# of the multiply-adds of the whole window product; a floor of 2**-64, which
# needs a sharper tail bound to keep the output's bits, would do 27%. The
# sampler's binomial of every part stops at the same fraction of its mode (see
# _word_cdf for why that moves no word).
_BAND_FLOOR = 2.0**-84

# Outputs per banded convolution call. Each call convolves over the union of
# its outputs' bands, which widens as the peak drifts across the block, while
# each call costs about 5 us of Python. Measured on the exact PMF of the
# oracles seed-1 groups, 3 * 20000 tilted particles, with the blocks that
# round to 0 skipped (2-core x86 box, numpy 2.4): 6.1-9.4, 5.4-5.9, 5.2 and
# 5.2-5.3 ms at 64, 128, 256 and 512 outputs; of 3 * 333333 particles: 58,
# 53-54, 52-53 and 52-53 ms. The grid sets which terms each output sums, so
# another size would move bits of PMFs of three or more components.
_BAND_BLOCK = 128


class TotalSpinDistribution:
    """Exact probability mass function of the ensemble total, half-quantum units.

    :func:`exact_total_distribution` builds it from one mask over its window:
    ``support`` int64 and ``probabilities`` float64, both 1-d and of equal
    length. Only the total mass is checked here.
    """

    def __init__(self, support: np.ndarray, probabilities: np.ndarray):
        if abs(float(probabilities.sum()) - 1.0) > 1e-10:
            raise ValueError("probabilities must sum to 1")
        self.support = support
        self.probabilities = probabilities

    def mean(self) -> float:
        """Sum of p x: ``math.fsum`` of the rounded products, correctly rounded, so no BLAS kernel moves a bit."""
        return math.fsum(self.probabilities * self.support)

    def variance(self) -> float:
        """Sum of p (x - mean)**2, summed as in :meth:`mean`: the centred form, no cancelling when |mean| >> sigma."""
        return math.fsum(self.probabilities * (self.support - self.mean()) ** 2)


def _component_probabilities(e: EnsembleSpec, axis: Axis) -> list[tuple[int, float]]:
    return [
        (c.count, born_probability(c.state, axis, SpinOutcome.PLUS))
        for c in e.components
        if c.count > 0
    ]


def _pieces(probs, trials: int) -> tuple[int, list[tuple[int, tuple[tuple[int, float], ...]]]]:
    """Lay out one trial's words: ``(certain, layout)``. Builds no CDF and no table.

    ``certain`` counts the particles with p+ = 1. Components with 0 < p+ < 1
    whose p+ are bit-equal are merged, in order of first appearance. Each
    merged component of more than :data:`PIECE` particles comes first, in
    that order: it is cut into ceil(count / (MAX_SUPPORT_POINTS - 1)) parts,
    the larger parts one particle above the smaller, and each part takes one
    word, the larger parts' words first. The other merged components are laid
    out in order and cut every :data:`PIECE` particles, whatever component
    each belongs to; each piece takes one word. Each of those components
    fills the open piece and, if it closes it, opens the next with its
    remainder.

    ``layout`` lists the runs ``(words, parts)`` in stream order: ``words``
    consecutive words of a trial, each the + count of ``parts``, a tuple of
    ``(count, p)``. A component's parts form one run per size, so it has at
    most two runs, and after the merge no two runs have the same parts. The
    runs' words add up to the width, the large components' parts plus
    ceil(other random particles / PIECE), read from the counts alone.
    Raises ConfigError before any layout when ``trials`` times the width
    exceeds :data:`MAX_WORDS`. It names ``ensemble`` when even 2 trials, the
    least a run takes, would exceed it, and ``trials`` otherwise.
    """
    certain, merged = 0, {}
    for count, p in probs:
        if p == 1.0:
            certain += count
        elif p > 0.0:
            merged[p] = merged.get(p, 0) + count
    split = {p: -(-count // (MAX_SUPPORT_POINTS - 1)) for p, count in merged.items() if count > PIECE}
    width = sum(split.values()) + -(-sum(count for p, count in merged.items() if p not in split) // PIECE)
    if 2 * width > MAX_WORDS:
        problem = f"takes {width} words per trial, so even 2 trials exceed the budget of {MAX_WORDS} words"
        raise ConfigError(problem, "ensemble")
    if trials * width > MAX_WORDS:
        problem = f"is {trials}, and at {width} words per trial the run exceeds the budget of {MAX_WORDS} words"
        raise ConfigError(problem, "trials")
    layout = []
    for p, n in split.items():
        size, extra = divmod(merged[p], n)
        layout += [(words, ((count, p),)) for words, count in ((extra, size + 1), (n - extra, size)) if words]
    piece, fill = [], 0
    for p, count in merged.items():
        if p in split:
            continue
        take = min(count, PIECE - fill)
        piece.append((take, p))
        fill += take
        if fill == PIECE:
            layout.append((1, tuple(piece)))
            piece, fill = [], 0
        if count > take:
            piece, fill = [(count - take, p)], count - take
    if fill:
        layout.append((1, tuple(piece)))
    return certain, layout


def _word_cdf(parts) -> tuple[np.ndarray, int]:
    """CDF of the + count of one word's ``parts``, its last entry, about 1, left off: ``(cdf, offset)``.

    A word past every entry takes the last count anyway. Every part, a
    piece's or a large component's, takes its :func:`_binomial_window` cut
    at :data:`_BAND_FLOOR`: O(window). Each side of a window ends before its
    first entry at or below 2**-84 of the mode, d < 2**20 steps out.
    Binomial PMFs are log-concave, so the ratios of successive entries fall
    moving out from the mode: every ratio from there on is at most the
    geometric mean of the first d, at most 2**(-84/d), and the dropped tail
    weighs at most 2**-84 / (1 - 2**(-84/d)) <= 2**-84 (1 + d / (84 ln 2))
    < 2**-69.8 of the mode. Both dropped tails together are below 2**-68 of
    the window's total.

    The windows are mixed in order by :func:`_mix` into a running PMF that
    starts as the first part's window, and the ``cumsum`` of the result is
    divided by its last entry, so the bits do not depend on the CPU. A part
    that keeps 1 - e_j of its mass leaves the mix at least prod(1 - e_j) >=
    1 - sum(e_j) of it: the dropped mass is at most the sum of the parts',
    each below 2**-68 of its window, and a piece of at most PIECE = 2**10
    parts drops below 2**-58 of its total. So no CDF entry moves by as much
    as 2**-53, the spacing of the words.
    """
    pmf, offset = _binomial_window(*parts[0], _BAND_FLOOR)
    for count, p in parts[1:]:
        window, shift = _binomial_window(count, p, _BAND_FLOOR)
        pmf, offset = _mix(pmf, window), offset + shift
    cdf = np.cumsum(pmf)
    return cdf[:-1] / cdf[-1], offset


def _mix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The full convolution of ``a`` and ``b``, by shift-and-add over the shorter, ``a`` when their lengths tie.

    ``out[i : i + len(long)] += w * long`` for entry ``w`` of the shorter at
    index ``i``, ``i`` ascending: one rounded product and one rounded sum
    per term, in a fixed order, with no BLAS call, so the bits do not
    depend on the CPU. It costs one Python step per entry of the shorter.
    """
    # sorted is stable, so on a tie ``a`` stays first, as the shorter.
    (short, long), out = sorted((a, b), key=len), np.zeros(len(a) + len(b) - 1)
    for i, w in enumerate(short.tolist()):
        out[i : i + len(long)] += w * long
    return out


def _guide(cdf: np.ndarray, buckets: int) -> np.ndarray:
    """Bucket table of ``cdf`` for words in [0, 1): bucket ``j`` covers [j/buckets, (j+1)/buckets).

    Bucket ``j`` holds the number of entries at or below j/buckets, which is
    what every word in the bucket inverts to, unless an entry lies strictly
    inside the bucket; then it holds -1. ``buckets`` is a power of two, so
    ``cdf * buckets`` is exact, and an entry lies inside bucket ``j`` exactly
    when its scaled value is not an integer and rounds up to ``j + 1``. Built
    in O(len(cdf) + buckets) by counting the entries at each rounded-up
    scaled value. A piece's CDF has at most :data:`PIECE` entries, and a
    large component's part at most 10791 (see :data:`MAX_SUPPORT_POINTS`),
    so int16 holds every index.
    """
    scaled = cdf * buckets
    ceil = np.ceil(scaled).astype(np.intp)
    table = np.cumsum(np.bincount(ceil, minlength=buckets)).astype(np.int16)
    table[ceil[ceil != scaled] - 1] = -1
    return table[:buckets]


def _invert(words: np.ndarray, cdf: np.ndarray, table: np.ndarray | None) -> np.ndarray:
    """Number of entries of ``cdf`` at or below each word, through ``table`` where it has one.

    A word in bucket ``floor(word * len(table))`` takes that bucket's index
    when it has one; only the words in -1 buckets, and every word when
    ``table`` is None, take the binary search. Both give the same index:
    no entry lies strictly inside a bucket that holds one, so every word in
    it has the same entries at or below it as the bucket's start.
    """
    if table is None:
        return np.searchsorted(cdf, words, side="right")
    index = table[(words * len(table)).astype(np.intp)]
    miss = index < 0
    index[miss] = np.searchsorted(cdf, words[miss], side="right")
    return index


def run_trials(e: EnsembleSpec, axis: Axis, trials: int, seed: int) -> np.ndarray:
    """Repeat the full-ensemble measurement ``trials`` times (at least 2, at most :data:`MAX_TRIALS`).

    Deterministic for fixed (ensemble, axis, trials, seed). Returns the int64
    array ``n_plus``, where ``n_plus[t]`` is trial t's number of + outcomes;
    its total spin is ``2 * n_plus[t] - e.total_count`` half quanta.

    The runs of :func:`_pieces`' layout are drawn one at a time, in layout
    order. Each builds its CDF (:func:`_word_cdf`), whose entry ``i`` is the
    probability of at most ``offset + i`` + outcomes in the run's parts, and
    takes its ``trials * words`` words from the stream trial by trial. A
    draw holds ``rows = min(trials, _BLOCK_WORDS // words)`` whole trials of
    the run, or, when ``rows`` is 0, one trial's words in column blocks of
    :data:`_BLOCK_WORDS`, and is inverted by one :func:`_invert` call. A word
    adds ``offset + i`` to its trial, ``i`` the number of CDF entries at or
    below it, capped at the last index; every offset is folded into the
    certain count, added once at the end.

    Let L be the power of two that is 4-8 times a CDF's full length. A CDF
    that inverts at least L words in its run gets a bucket table
    (:func:`_guide`) of B buckets: the larger of L and the largest power of
    two at most ``rows * words``, the words of one draw. So the table's O(B)
    cost never exceeds that of the lookups it serves; otherwise every word of
    the run is searched. A run's CDF and table are dropped when the next run
    builds its own, so a table holds at most max(L, :data:`_BLOCK_WORDS`)
    buckets and at most two are alive at once, however many pieces a trial
    has.
    """
    trials = check_int(trials, "trials", 2, MAX_TRIALS)
    seed = check_int(seed, "seed") % (1 << 64)
    certain, layout = _pieces(_component_probabilities(e, axis), trials)
    n_plus = np.zeros(trials, dtype=np.int64)
    if layout:
        # Named here, not imported at the top: numpy 2 loads numpy.random on
        # first use, so its 10-13 ms import is not paid at every start-up.
        stream = np.random.Generator(np.random.Philox(key=seed))
        for words, parts in layout:
            cdf, offset = _word_cdf(parts)
            certain += offset * words
            rows = min(trials, _BLOCK_WORDS // words)
            least = 4 << (len(cdf) + 1).bit_length()
            table = _guide(cdf, max(least, 1 << (rows * words).bit_length() >> 1)) if trials * words >= least else None
            for lo in range(0, trials, max(rows, 1)):
                hi = min(lo + max(rows, 1), trials)
                for first in range(0, words, _BLOCK_WORDS):
                    draw = stream.random((hi - lo, min(words - first, _BLOCK_WORDS)))
                    n_plus[lo:hi] += _invert(draw, cdf, table).sum(axis=1)
    n_plus += certain
    return n_plus


def _trim(pmf: np.ndarray, offset: int) -> tuple[np.ndarray, int]:
    """Strip the exact zeros at both ends of ``pmf``, whose first entry has index ``offset``.

    Probabilities that underflowed stay exactly zero through every later
    convolution, so dropping them changes no other value.
    """
    nonzero = np.flatnonzero(pmf)
    return pmf[nonzero[0] : nonzero[-1] + 1], offset + int(nonzero[0])


def _binomial_window(count: int, p: float, floor: float) -> tuple[np.ndarray, int]:
    """Binomial entries of ``count`` particles at + probability p around the mode, unnormalized: ``(window, offset)``.

    ``window[i]`` is proportional to the probability of ``offset + i``
    outcomes: 1 at the mode m = floor((count + 1) p), each entry above it
    the last times ((count - k) p) / ((k + 1) q), each below it the next
    times (k q) / ((count - k + 1) p), with q = 1 - p. Each side walks out
    from the mode in chunks of :data:`PIECE` ratios, doubling, and ends
    before its first entry at or below ``floor``, or at the end of the
    support. A chunk's first ratio is multiplied by the side's last entry
    and its ``cumprod`` gives its entries: ``cumprod`` multiplies in order,
    so every entry has the bits of one ``cumprod`` over the whole side. The
    work is O(window), not O(count).
    """
    q = 1.0 - p
    mode = min(count, math.floor((count + 1) * p))
    sides = []
    for step, stop in ((-1, 0), (1, count)):
        k, last, size, side = mode, 1.0, PIECE, [np.empty(0)]
        while k != stop and last > floor:
            ks = np.arange(k, k + step * min(size, abs(stop - k)), step, dtype=float)
            ratios = ks * q / ((count - ks + 1) * p) if step < 0 else (count - ks) * p / ((ks + 1) * q)
            ratios[0] *= last
            side.append(np.cumprod(ratios, out=ratios))
            k, last, size = k + step * len(ks), ratios[-1], 2 * size
        side = np.concatenate(side)
        sides.append(side[: np.argmax(side <= floor)] if last <= floor else side)
    down, up = sides
    return np.concatenate((down[::-1], [1.0], up)), mode - len(down)


def _binomial_count_pmf(count: int, p: float) -> tuple[np.ndarray, int]:
    """PMF of the number of + outcomes among ``count`` particles with + probability p.

    Returns ``(pmf, offset)``: ``pmf[i]`` is the probability of ``offset + i``
    outcomes, and every count outside that window has probability exactly 0.
    The PMF is built unnormalized, divided by its correctly rounded sum, so
    rounding that accumulates over many steps cannot leave the total away
    from 1, and trimmed of the zeros that the division leaves. Only the
    exact PMF calls it; the sampler's CDFs are built in :func:`_word_cdf`.

    Up to :data:`PIECE` particles it is the binary-power convolution of
    [1-p, p], each step a :func:`_mix`, trimmed. For dyadic p and small
    counts every value is an exact double and the sum is exactly 1; preset
    B's variance is exactly n.

    Above :data:`PIECE` particles it is :func:`_binomial_window` with a
    floor of 0: the ratio recurrence from the mode, out to the first entry
    on each side that is exactly 0. At p in {0, 1} every ratio is 0 and none
    divides by zero, so the window is ``[1.0]`` at 0 or at ``count`` +
    outcomes. That is O(window) work where the convolution's last squarings
    are O(window**2): 20000 particles at p+ in [0.2, 0.8] take 1.1-1.2 ms instead of 22-24 ms
    (2-core x86 box, numpy 2.4). It is closer to the exact law of the doubles
    p and q: within 1.3e-14 relative wherever that law is at least 1e-290, at
    1025-20000 particles, where the convolution strays up to 2.5e-13. It is
    not used up to :data:`PIECE`: its rounded ratios lose the exact
    C(n, k) / 2**n of dyadic p. A tail started from 1 sticks at the least
    subnormal while the ratio stays above 1/2; those entries are summed, the
    division sends them to 0, and the last trim drops them.

    The sum is taken largest-first. ``math.fsum`` keeps a list of partial sums
    that do not overlap; in index order the PMF climbs from tails as small as
    1e-322 to its mode, the list stays long and each entry costs about 1 us,
    while largest-first the small entries fold into few partials. At 1024
    particles and p+ = 1/2 the sum took 1.2 ms in index order and 0.13 ms
    largest-first (2-core x86 box, numpy 2.4). ``fsum`` returns the correctly
    rounded sum whatever the order, so the order moves no bit.
    """
    if count > PIECE:
        result, result_offset = _binomial_window(count, p, 0.0)
    else:
        result, result_offset = np.array([1.0]), 0
        power, power_offset = _trim(np.array([1.0 - p, p]), 0)
        k = count
        while k:
            if k & 1:
                result, result_offset = _trim(_mix(result, power), result_offset + power_offset)
            k >>= 1
            if k:
                power, power_offset = _trim(_mix(power, power), 2 * power_offset)
    return _trim(result / math.fsum(np.sort(result)[::-1]), result_offset)


def _last_true(pred, first: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Per lane, the largest i in [first, last] with ``pred(i)``, or first - 1 if there is none.

    ``pred`` maps an index array to a bool array, lane by lane, and must be
    true then false over each lane's range. Binary lifting: each step tries
    to advance every lane by the same power of two. ``pred`` is only asked
    about indices in [first, last], or about ``last`` where that is empty.
    """
    i = first - 1
    step = 1 << int(np.max(last - first + 1)).bit_length()
    while step:
        ahead = i + step
        i = np.where((ahead <= last) & pred(np.minimum(ahead, last)), ahead, i)
        step >>= 1
    return i


def _band_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.convolve(a, b)`` of two positive log-concave windows, each output summed over its band.

    Output c_k = sum_i a_i b_(k-i) keeps only the terms of its band: those at
    or above :data:`_BAND_FLOOR` times its largest term. Log-concave
    sequences have log-concave convolutions, so along each anti-diagonal the
    terms rise to one peak and fall, and the band is one run of i around it.
    The peak i*(k) is where the rise of log a_i meets the fall of
    log b_(k-i): a binary search over the merge of the two log-slope
    sequences. The band's ends are binary searches on log a_i + log b_(k-i).
    Both ends are nondecreasing in k, so the union of a block's bands runs
    from the band start of its first output to the band end of its last:
    the searches run at the :data:`_BAND_BLOCK` block ends only, and each
    block is one ``np.convolve(..., "valid")`` of the union's slice of ``a``
    against ``b`` padded with zeros.

    Each slice is first scaled by the power of two that puts its largest
    entry in [1/2, 1), which is exact, and each output is scaled back by
    one ``np.ldexp``, one correctly rounded step. So the kernel
    sees no subnormal operand, which x86 multiplies in microcode, about 50
    times slower. Where the unscaled convolution met no subnormal, the
    scaling commutes with every rounding and no bit moves; where it did, an
    output below 1e-280 is now within 1e-13 of the exact sum of the same
    terms, plus half the least subnormal.

    A block whose outputs all round to 0 is not convolved; its outputs are
    left 0, and the other blocks keep the same grid, slices and bits. Let
    T = 2**-1078 / min(m, n). Rounding to nearest at most doubles a
    nonnegative value, and a term passes at most three roundings that can
    underflow: the product, and the scaling of each slice, which rounds only
    where a slice's largest entry is at least 1 and is halved. Adding
    subnormals is exact and any other sum grows by at most 1 + 2**-53, with
    or without fused multiply-adds. So an output of at most min(m, n)
    nonzero terms, each below T, computes below 8 (1 + 2**-53)**(10**6)
    2**-1078 < 2**-1075, and ``np.ldexp`` rounds it to 0. No log-concavity
    is assumed, since the stored subnormal tails do not keep it: ``a`` is
    bounded by its largest entry over each chunk of :data:`_BAND_BLOCK`
    entries, and ``b`` by its unimodal envelope, the running maximum from
    each end to its mode. Over each chunk the envelope's indices at or
    above T over the chunk's bound form one run, its ends found by one
    ``searchsorted`` per side; only blocks that meet the hull of the
    outputs these runs reach are convolved. The comparisons of logarithms
    take a margin of 1e-6, far above the error of ``np.log`` and the
    2e-10 that the sums' rounding adds.
    """
    m, n = len(a), len(b)
    # An entry that underflowed inside a window counts as the least subnormal.
    log_a, log_b = (np.concatenate(([-np.inf], np.log(np.fmax(x, 5e-324)), [-np.inf])) for x in (a, b))
    size = m + n - 1
    # Outputs k_lo..k_hi are the hull of those that may hold a term of at
    # least T (see above); only the blocks that meet it are convolved.
    chunks = np.arange(0, m, _BAND_BLOCK)
    need = -1078 * math.log(2.0) - math.log(min(m, n)) - 1e-6 - np.maximum.reduceat(log_a[1:-1], chunks)
    mode = int(np.argmax(b))
    j_lo = np.searchsorted(np.maximum.accumulate(log_b[1 : mode + 2]), need)
    j_hi = n - 1 - np.searchsorted(np.maximum.accumulate(log_b[n : mode + 1 : -1]), need)
    reach = j_lo <= j_hi
    k_lo, k_hi = np.min((chunks + j_lo)[reach]), np.max((np.minimum(chunks + _BAND_BLOCK, m) - 1 + j_hi)[reach])
    starts = np.arange(k_lo - k_lo % _BAND_BLOCK, k_hi + 1, _BAND_BLOCK)
    k = np.concatenate((starts, np.minimum(starts + _BAND_BLOCK, size) - 1))
    first, last = np.maximum(0, k - n + 1), np.minimum(m - 1, k)

    def term(i):
        # log a_i b_(k - i), -inf one step outside either window.
        return log_a[i + 1] + log_b[k - i + 1]

    peak = _last_true(lambda i: term(i) >= term(i - 1), first + 1, last)
    floor = term(peak) + math.log(_BAND_FLOOR)
    # A block's first output searches below its peak for the last term under
    # the floor, its last output above its peak for the last term at or over
    # it: one past each is where the block's band starts and stops.
    ends = np.arange(len(k)) >= len(starts)
    edge = _last_true(lambda i: (term(i) >= floor) == ends, np.where(ends, peak, first), np.where(ends, last, peak)) + 1
    # One zero more than a block needs at the end: reduceat takes every slice's end as an index.
    padded = np.concatenate((np.zeros(_BAND_BLOCK - 1), b, np.zeros(_BAND_BLOCK)))
    lo, hi, stops = edge[~ends], edge[ends], np.minimum(starts + _BAND_BLOCK, size)
    y_lo, y_hi = starts - hi + _BAND_BLOCK, stops - lo + _BAND_BLOCK - 1
    # A block convolves a[lo:hi] against padded[y_lo:y_hi]. maximum.reduceat
    # over the interleaved (start, end) pairs gives each slice's largest
    # entry at the even places.
    ex = np.frexp(np.maximum.reduceat(np.append(a, 0.0), np.ravel((lo, hi), "F"))[::2])[1]
    ey = np.frexp(np.maximum.reduceat(padded, np.ravel((y_lo, y_hi), "F"))[::2])[1]
    out = np.zeros(size)
    for k0, k1, i0, i1, j0, j1, sx, sy in zip(*(v.tolist() for v in (starts, stops, lo, hi, y_lo, y_hi, -ex, -ey))):
        out[k0:k1] = np.convolve(np.ldexp(a[i0:i1], sx), np.ldexp(padded[j0:j1], sy), "valid")
    live = out[starts[0] : stops[-1]]
    np.ldexp(live, np.repeat(ex + ey, _BAND_BLOCK)[: len(live)], out=live)
    return out


def _group_pmf(parts) -> tuple[np.ndarray, int]:
    """PMF of the + count of independent groups of particles, ``parts`` listing each group's ``(count, p)``.

    Returns ``(pmf, offset)`` as :func:`_binomial_count_pmf` does: the
    groups' binomial PMFs convolved in order, trimmed after every step. The
    first group's PMF starts the product as it is: convolving it with [1.0]
    would give every output one term, itself, so no bit moves. One group
    gives its binomial PMF unconvolved; an empty ``parts`` gives [1.0].

    Only the exact PMF calls it. Where both windows are at most
    :data:`PIECE` + 1 long, the step is :func:`_mix`. Where either is
    longer, :func:`_band_convolve` sums each output over its band. Binomial
    PMFs are log-concave, and so is every convolution of them (Hoggar,
    1974), so each output drops at most one term per entry of the shorter
    window, each below 2**-84 of its largest term. A window holds at most
    :data:`MAX_SUPPORT_POINTS` < 2**20 entries, so the dropped terms together
    stay below 2**-64 of the output: no bit that a double of it can hold.
    The searches compare logarithms, which round; the 5% that 2**20 leaves
    over 10**6 covers that. Only where a factor is subnormal, so that its
    stored value is log-concave only up to rounding of a few digits, may a
    band miss a term, and every such term is below 2.3e-308. The band's
    sums themselves see no subnormal: each block is convolved from slices
    scaled clear of them and scaled back once (see :func:`_band_convolve`).
    A block is not convolved where every term it could sum is below
    T = 2**-1078 / min(len(a), len(b)); its outputs, which would round to 0,
    are left 0, and the trim drops them as it dropped the computed zeros.
    That bound holds for the stored windows, subnormal tails included,
    without log-concavity (proof at :func:`_band_convolve`).
    """
    pmf, offset = _binomial_count_pmf(*parts[0]) if parts else (np.array([1.0]), 0)
    for count, p in parts[1:]:
        binomial, shift = _binomial_count_pmf(count, p)
        convolve = _band_convolve if max(len(pmf), len(binomial)) > PIECE + 1 else _mix
        pmf, offset = _trim(convolve(pmf, binomial), offset + shift)
    return pmf, offset


def exact_total_distribution(e: EnsembleSpec, axis: Axis) -> TotalSpinDistribution:
    """Exact total-spin PMF: every component's binomial PMF, convolved in order.

    Only the window between the first and last nonzero probability is
    convolved. Above :data:`PIECE` + 1 entries each output sums only the terms
    of its band, and the terms it drops add up to less than 2**-64 of it, so
    no bit that matters is lost (see :func:`_group_pmf`). Support points with
    exactly zero probability are dropped, so a deterministic preparation
    reports a single-point distribution.
    """
    n = e.total_count
    if n + 1 > MAX_SUPPORT_POINTS:
        raise ValueError(
            f"total of {n} particles exceeds the exact-PMF guard "
            f"({MAX_SUPPORT_POINTS} support points)"
        )
    pmf, offset = _group_pmf(_component_probabilities(e, axis))
    support = 2 * (offset + np.arange(len(pmf), dtype=np.int64)) - n
    keep = pmf > 0.0
    return TotalSpinDistribution(support[keep], pmf[keep])


def preparation_aware_prediction(e: EnsembleSpec, axis: Axis) -> tuple[float, float]:
    """``(mean, variance)`` of the total, in half quanta, from the preparation record.

    Each component's p+ and p- come from its one projection m.n on the axis,
    as :func:`~spinstat.spin.born_probability` gives them. A single
    measurement has mean p+ - p- and, its outcomes being +-1, second moment
    exactly 1, so variance 1 - mean^2. Particles are independent, so
    component means and variances add with multiplicity; matches the exact
    distribution's moments.
    """
    n, mean, variance = axis.bloch(), 0.0, 0.0
    for component in e.components:
        projection = dot(component.state, n)
        m = _probability(projection, SpinOutcome.PLUS) - _probability(projection, SpinOutcome.MINUS)
        mean += component.count * m
        variance += component.count * (1.0 - m * m)
    return mean, variance
