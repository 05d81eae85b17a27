"""Shared strategies and oracle helpers for the test suite.

spinstat works with real Bloch vectors only. ``ket`` and ``matrix`` turn
those back into the complex spinors and 2x2 matrices of textbook quantum
mechanics, so the tests can check every Bloch formula against plain numpy
linear algebra.
"""

import bisect
import cmath
import itertools
import math
from collections.abc import Iterator
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from spinstat.ensemble import EnsembleComponent, EnsembleSpec
from spinstat.montecarlo import MAX_SUPPORT_POINTS
from spinstat.spin import Axis, SpinOutcome, born_probability


def ket(bloch) -> np.ndarray:
    """The spinor (cos(theta/2), e^{i phi} sin(theta/2)) whose Bloch vector is ``bloch``."""
    x, y, z = bloch
    theta = math.atan2(math.hypot(x, y), z)
    return np.array([math.cos(theta / 2.0), cmath.exp(1j * math.atan2(y, x)) * math.sin(theta / 2.0)])


def matrix(a, b) -> np.ndarray:
    """The 2x2 complex matrix of a I + b.sigma."""
    bx, by, bz = b
    return np.array([[a + bz, bx - 1j * by], [bx + 1j * by, a - bz]], dtype=complex)


def density_matrix(rho) -> np.ndarray:
    """The matrix (t I + s.sigma)/2 of a density operator's (trace, bloch) pair."""
    trace, bloch = rho
    return matrix(trace / 2.0, [c / 2.0 for c in bloch])


def quantum_expectation(op: np.ndarray, bloch) -> float:
    """<psi|op|psi> for the state with Bloch vector ``bloch``."""
    psi = ket(bloch)
    return float(np.real(psi.conj() @ op @ psi))


def unit_vector(parts) -> tuple[float, float, float]:
    norm = math.hypot(*parts)
    return tuple(float(p) / norm for p in parts)


_component_floats = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@st.composite
def states(draw):
    """Bloch vectors of pure states, anywhere on the sphere."""
    parts = [draw(_component_floats) for _ in range(3)]
    if math.hypot(*parts) < 1e-3:
        parts = [0.0, 0.0, 1.0]
    return unit_vector(parts)


@st.composite
def axes(draw):
    theta = draw(st.floats(min_value=0.0, max_value=math.pi, allow_nan=False))
    phi = draw(st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True, allow_nan=False))
    return Axis(theta, phi)


def random_state(rng: np.random.Generator) -> tuple[float, float, float]:
    """Bloch vector of a pure state drawn uniformly on the sphere."""
    while True:
        parts = rng.standard_normal(3)
        if parts @ parts > 1e-6:
            return unit_vector(parts)


def random_axis(rng: np.random.Generator) -> Axis:
    # theta from a uniform direction on the sphere, not uniform in angle
    return Axis(math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2.0 * math.pi))


def random_ensemble(rng: np.random.Generator, max_components: int = 4, max_count: int = 25) -> EnsembleSpec:
    parts = rng.integers(1, max_components + 1)
    components = tuple(
        EnsembleComponent(random_state(rng), int(rng.integers(1, max_count + 1)))
        for _ in range(parts)
    )
    return EnsembleSpec(components)


def enumerate_totals(e: EnsembleSpec, axis: Axis) -> tuple[np.ndarray, np.ndarray]:
    """Brute-force oracle: walk all 2^N outcome patterns of an ensemble.

    Returns (support, probabilities) over every total from -N to +N in steps
    of 2, including zero-probability entries. Vectorized so N = 16 stays fast.
    """
    per_particle = []
    for comp in e.components:
        p_plus = born_probability(comp.state, axis, SpinOutcome.PLUS)
        per_particle.extend([p_plus] * comp.count)
    ps = np.asarray(per_particle)
    n = len(ps)
    patterns = (np.arange(1 << n, dtype=np.int64)[:, None] >> np.arange(n)) & 1
    pattern_probs = np.where(patterns == 1, ps, 1.0 - ps).prod(axis=1)
    plus_counts = patterns.sum(axis=1)
    pmf = np.zeros(n + 1)
    np.add.at(pmf, plus_counts, pattern_probs)
    support = 2 * np.arange(n + 1, dtype=np.int64) - n
    return support, pmf


def enumerate_mean_variance(e: EnsembleSpec, axis: Axis) -> tuple[float, float]:
    support, pmf = enumerate_totals(e, axis)
    mean = float(pmf @ support)
    return mean, float(pmf @ (support - mean) ** 2)


def dense_binomial_count_pmf(count: int, p: float) -> np.ndarray:
    """Reference binomial PMF over all ``count + 1`` outcomes, zeros included.

    Binary-power convolution of [1-p, p] with no trimming and no
    normalization: the same products as ``montecarlo._binomial_count_pmf``,
    summed over the full arrays.
    """
    result = np.array([1.0])
    power = np.array([1.0 - p, p])
    k = count
    while k:
        if k & 1:
            result = np.convolve(result, power)
        k >>= 1
        if k:
            power = np.convolve(power, power)
    return result


def reference_mix(a: list[float], b: list[float]) -> list[float]:
    """Reference for ``montecarlo._mix``, in plain Python floats: the full convolution of ``a`` and ``b``.

    For each entry w at index i of the shorter, ``a`` when their lengths tie,
    i ascending, and each entry x at index j of the longer,
    out[i + j] += w * x: one rounding for the product and one for the sum,
    as numpy's elementwise operations round.
    """
    short, long = (a, b) if len(a) <= len(b) else (b, a)
    out = [0.0] * (len(a) + len(b) - 1)
    for i, w in enumerate(short):
        for j, x in enumerate(long):
            out[i + j] += w * x
    return out


def _trimmed_mix(a, a_offset, b, b_offset):
    """``reference_mix`` of two windows, stripped of its exact zeros at both ends: ``(pmf, offset)``."""
    return _trim(np.array(reference_mix(a.tolist(), b.tolist())), a_offset + b_offset)


def reference_binomial_count_pmf(count: int, p: float) -> tuple[np.ndarray, int]:
    """Reference for ``montecarlo._binomial_count_pmf`` up to ``PIECE`` particles, summed in index order.

    Binary-power convolution of [1-p, p], each step a ``reference_mix`` with
    the exact zeros stripped from both ends, divided by ``math.fsum`` of the
    PMF taken from its first entry to its last. Returns ``(pmf, offset)``,
    ``pmf[i]`` being the probability of ``offset + i`` outcomes.
    """
    result, result_offset = np.array([1.0]), 0
    power, power_offset = _trim(np.array([1.0 - p, p]), 0)
    k = count
    while k:
        if k & 1:
            result, result_offset = _trimmed_mix(result, result_offset, power, power_offset)
        k >>= 1
        if k:
            power, power_offset = _trimmed_mix(power, power_offset, power, power_offset)
    return result / math.fsum(result), result_offset


def reference_group_pmf(parts) -> tuple[np.ndarray, int]:
    """Reference for ``montecarlo._group_pmf`` up to ``PIECE`` particles: the trimmed plain-Python mix loop.

    Each ``(count, p)`` part's ``reference_binomial_count_pmf`` is mixed
    into the running PMF by ``reference_mix``, the exact zeros stripped from
    both ends after every step. Returns ``(pmf, offset)``.
    """
    pmf, offset = np.array([1.0]), 0
    for count, p in parts:
        binomial, shift = reference_binomial_count_pmf(count, p)
        pmf, offset = _trimmed_mix(pmf, offset, binomial, shift)
    return pmf, offset


def full_recurrence_count_pmf(count: int, p: float) -> tuple[np.ndarray, int]:
    """Reference for ``montecarlo._binomial_count_pmf`` above ``PIECE`` particles: the ratio recurrence over all ``count + 1`` entries.

    1 at the mode m = floor((count + 1) p), then one ``cumprod`` of the ratios
    ((count - k) p) / ((k + 1) q) for every k from m to count - 1 and one of
    (k q) / ((count - k + 1) p) for every k from m down to 1, with
    q = 1 - p: the exact zeros stripped from both ends, divided by the
    largest-first ``math.fsum`` and stripped again. Returns ``(pmf, offset)``.
    """
    q = 1.0 - p
    mode = min(count, math.floor((count + 1) * p))
    up = np.arange(mode, count, dtype=float)
    down = np.arange(mode, 0, -1, dtype=float)
    result, offset = _trim(np.concatenate((
        np.cumprod(down * q / ((count - down + 1) * p))[::-1],
        [1.0],
        np.cumprod((count - up) * p / ((up + 1) * q)),
    )), 0)
    return _trim(result / math.fsum(np.sort(result)[::-1]), offset)


def _trim(pmf, offset):
    nonzero = np.flatnonzero(pmf)
    return pmf[nonzero[0] : nonzero[-1] + 1], offset + int(nonzero[0])


def exact_binomial_count_pmf(count: int, p: float) -> tuple[np.ndarray, int]:
    """The exact binomial law of the doubles p and q = 1 - p, each entry correctly rounded.

    With p = A/D and q = B/D over one denominator D, entry k is the rational
    C(count, k) A**k B**(count - k) / (A + B)**count: the law of p and q
    normalized, as a builder that divides by its sum approximates it. Returns
    ``(pmf, offset)`` over the window of entries that do not round to 0.

    Each entry is carried as an integer V, the entry times 2**1200 within a
    proven bound ``err``. The walk starts at the mode from the exact integer
    quotient, then steps k -> k +- 1 by the exact integer ratio of consecutive
    entries, floor-divided: each step adds at most 1 to the error, so ``err``
    follows by the same step rounded up, plus 1. Where V - err and V + err
    round to the same double, the exact entry lies between them and rounds to
    it too; otherwise, which at 2**126 units per subnormal step is all but
    never, the entry is divided out exactly. A side stops at the first entry
    whose upper bound rounds to 0, which every entry beyond it does too.
    About 0.1 s at 20000 particles, where stepping the exact integers took 8 s.
    """
    a, b = Fraction(p), Fraction(1.0 - p)
    d = math.lcm(a.denominator, b.denominator)
    plus, minus = a.numerator * (d // a.denominator), b.numerator * (d // b.denominator)
    total, scale = (plus + minus) ** count, 1 << 1200
    mode = min(count, math.floor((count + 1) * p))

    def exact(k):
        return math.comb(count, k) * plus**k * minus ** (count - k)

    top = exact(mode)

    def side(stop, step, ratio):
        entries, k, value, err = [], mode, top * scale // total, 1
        while k != stop:
            num, den = ratio(k)
            k += step
            value, err = value * num // den, -(-err * num // den) + 1
            low, high = max(value - err, 0) / scale, (value + err) / scale
            if high == 0.0:
                break
            entries.append(low if low == high else exact(k) / total)
        return entries

    upper = side(count, 1, lambda k: ((count - k) * plus, (k + 1) * minus))
    lower = side(0, -1, lambda k: (k * minus, (count - k + 1) * plus))
    return np.array(lower[::-1] + [top / total] + upper), mode - len(lower)


def dense_total_distribution(e: EnsembleSpec, axis: Axis, piece: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference exact PMF: dense convolution over every total from -N to N.

    A component of at most ``piece`` particles convolves its
    ``dense_binomial_count_pmf``; a larger one, its
    ``exact_binomial_count_pmf``, zeros included. Returns ``(support,
    probabilities)`` with the exactly-zero entries dropped, as
    ``exact_total_distribution`` reports them.
    """
    n = e.total_count
    pmf = np.array([1.0])
    for comp in e.components:
        if comp.count > 0:
            p_plus = born_probability(comp.state, axis, SpinOutcome.PLUS)
            if comp.count <= piece:
                part = dense_binomial_count_pmf(comp.count, p_plus)
            else:
                window, offset = exact_binomial_count_pmf(comp.count, p_plus)
                part = np.zeros(comp.count + 1)
                part[offset : offset + len(window)] = window
            pmf = np.convolve(pmf, part)
    support = 2 * np.arange(n + 1, dtype=np.int64) - n
    keep = pmf > 0.0
    return support[keep], pmf[keep]


def slow_enumerate_totals(e: EnsembleSpec, axis: Axis) -> dict[int, float]:
    """Same oracle in plain loops; cross-checks the vectorized one for tiny N."""
    per_particle = []
    for comp in e.components:
        p_plus = born_probability(comp.state, axis, SpinOutcome.PLUS)
        per_particle.extend([p_plus] * comp.count)
    out: dict[int, float] = {}
    for pattern in itertools.product((-1, 1), repeat=len(per_particle)):
        prob = 1.0
        for outcome, p_plus in zip(pattern, per_particle):
            prob *= p_plus if outcome == 1 else 1.0 - p_plus
        total = sum(pattern)
        out[total] = out.get(total, 0.0) + prob
    return out


def statistical_average_expectation(e: EnsembleSpec, axis: Axis, extensive: bool = False) -> float:
    """Oracle for the mean of ``moments_tr``: the weighted average of per-state expectations.

    Each state's expectation of n.sigma is taken with numpy's complex
    algebra. Weights are particle fractions for intensive quantities or raw
    counts for extensive ones, matching the normalized and unnormalized
    density operator.
    """
    obs = matrix(0.0, axis.bloch())
    n = e.total_count
    total = 0.0
    for component in e.components:
        weight = float(component.count) if extensive else component.count / n
        total += weight * quantum_expectation(obs, component.state)
    return total


_PHILOX_MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_KEY_STEPS = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_WORD = (1 << 64) - 1


def philox4x64_words(seed: int) -> Iterator[int]:
    """The endless word stream of Philox4x64-10 under the key (seed mod 2**64, 0), in plain Python.

    From the spec (Salmon, Moraes, Dror and Shaw, "Parallel random numbers:
    as easy as 1, 2, 3", SC 2011), not from numpy: the 256-bit counter starts
    at 0 and is incremented before each block, and each block is 10 rounds
    over its four 64-bit words, the key stepped between rounds. A round
    multiplies words 0 and 2 by the two multipliers into 128-bit products
    (hi, lo) and gives (hi2 ^ w1 ^ k0, lo2, hi0 ^ w3 ^ k1, lo0). The block's
    four words follow in order.
    """
    key, counter = seed % (1 << 64), 0
    while True:
        counter = (counter + 1) % (1 << 256)
        w = [(counter >> 64 * i) & _WORD for i in range(4)]
        k0, k1 = key, 0
        for step in range(10):
            if step:
                k0, k1 = (k0 + _PHILOX_KEY_STEPS[0]) & _WORD, (k1 + _PHILOX_KEY_STEPS[1]) & _WORD
            p0, p2 = _PHILOX_MULTIPLIERS[0] * w[0], _PHILOX_MULTIPLIERS[1] * w[2]
            w = [(p2 >> 64) ^ w[1] ^ k0, p2 & _WORD, (p0 >> 64) ^ w[3] ^ k1, p0 & _WORD]
        yield from w


def philox_uniforms(seed: int) -> Iterator[float]:
    """The doubles in [0, 1) of ``philox4x64_words(seed)``: each word's top 53 bits times 2**-53."""
    return ((word >> 11) * 2.0**-53 for word in philox4x64_words(seed))


def reference_window(count: int, p: float) -> tuple[list[float], int]:
    """Reference for ``montecarlo._binomial_window`` at the sampler's floor, in plain Python floats.

    Walks out from the mode m = floor((count + 1) p) one entry at a time, 1
    at the mode, each entry above it the last times
    ((count - k) p) / ((k + 1) q), each below it the next times
    (k q) / ((count - k + 1) p), with q = 1 - p; each side ends before its
    first entry at or below 2**-84, or at the end of the support. Returns
    ``(window, offset)``: the entries in index order, unnormalized, and the
    count of the first.
    """
    q = 1.0 - p
    mode = min(count, math.floor((count + 1) * p))
    sides = []
    for ks, ratio in (
        (range(mode, 0, -1), lambda k: k * q / ((count - k + 1) * p)),
        (range(mode, count), lambda k: (count - k) * p / ((k + 1) * q)),
    ):
        side, entry = [], 1.0
        for k in ks:
            entry *= ratio(k)
            if entry <= 2.0**-84:
                break
            side.append(entry)
        sides.append(side)
    down, up = sides
    return down[::-1] + [1.0] + up, mode - len(down)


def reference_word_cdf(parts) -> tuple[list[float], int]:
    """Reference for ``montecarlo._word_cdf``, in plain Python floats: the sampler's CDF of one word's parts.

    Each ``(count, p)`` part's ``reference_window`` is mixed in order by
    ``reference_mix`` into a running PMF that starts as [1.0]. Returns
    ``(cdf, offset)``: the running sums of the mix in index order, each
    divided by the last, so the last entry is 1.0, and the count of the
    first entry.
    """
    pmf, offset = [1.0], 0
    for count, p in parts:
        window, shift = reference_window(count, p)
        pmf, offset = reference_mix(pmf, window), offset + shift
    sums = list(itertools.accumulate(pmf))
    return [total / sums[-1] for total in sums], offset


def reference_counts(
    e: EnsembleSpec, axis: Axis, seed: int, trials: int, piece: int, part: int = MAX_SUPPORT_POINTS - 1
) -> list[int]:
    """Reference for ``run_trials``: each trial's + count, one word at a time.

    Components with 0 < p+ < 1 and bit-equal p+ are merged, in order of first
    appearance, where a component of no particles does not appear. Each
    merged component of more than ``piece`` particles, in that order, is cut
    into ceil(count / ``part``) parts whose sizes differ by at most one, the
    larger first, and each part is one word. The other merged components'
    particles follow, listed one by one in order and cut every ``piece``
    particles, whatever component each belongs to, and each piece is one
    word. Consecutive words with equal parts form a run. Run by run, in that
    order, the run's words in every trial, trial by trial, each take the next
    double of ``philox_uniforms(seed)``, the spec's stream, and count the
    entries of the ``reference_word_cdf`` of their parts at or below it with
    ``bisect_right``. The CDF's last entry, 1.0, lies above every double in
    [0, 1), so the count stops at the last count of the word's window.
    Components with p+ in {0, 1} add their + count and take no uniform.
    """
    certain, merged = 0, {}
    for comp in e.components:
        if comp.count == 0:
            continue
        p_plus = born_probability(comp.state, axis, SpinOutcome.PLUS)
        if p_plus == 1.0:
            certain += comp.count
        elif p_plus > 0.0:
            merged[p_plus] = merged.get(p_plus, 0) + comp.count
    layout = []
    for p_plus, count in merged.items():
        if count > piece:
            parts = -(-count // part)
            layout += [((size, p_plus),) for size in sorted((count + i) // parts for i in range(parts))[::-1]]
    particles = [p_plus for p_plus, count in merged.items() if count <= piece for _ in range(count)]
    for lo in range(0, len(particles), piece):
        layout.append(tuple((len(list(run)), p_plus) for p_plus, run in itertools.groupby(particles[lo : lo + piece])))
    stream = philox_uniforms(seed)
    counts = [certain] * trials
    for parts, run in itertools.groupby(layout):
        cdf, offset = reference_word_cdf(parts)
        words = len(list(run))
        for t in range(trials):
            counts[t] += sum(offset + bisect.bisect_right(cdf, next(stream)) for _ in range(words))
    return counts


def reference_guide(cdf: np.ndarray, buckets: int) -> np.ndarray:
    """Reference for ``montecarlo._guide``: each bucket by two binary searches.

    Bucket ``j`` holds the words from j/buckets up to the largest double below
    (j+1)/buckets. It gets the count of entries at or below its first word
    when its last word has the same count, which means no entry lies inside
    it, and -1 otherwise.
    """
    starts = np.arange(buckets) / buckets
    ends = np.nextafter(np.arange(1, buckets + 1) / buckets, 0.0)
    first = np.searchsorted(cdf, starts, side="right")
    return np.where(first == np.searchsorted(cdf, ends, side="right"), first, -1).astype(np.int16)


def reference_totals_csv(n_plus, n: int) -> bytes:
    """Reference for ``harness._totals_csv``: the bytes of ``totals.csv``, one Python string per row.

    ``n_plus`` holds each trial's + count among ``n`` particles; a row is
    ``trial,total,n_plus,n_minus`` with total ``2 * n_plus - n``.
    """
    n_plus = [int(p) for p in n_plus]
    suffix = {plus: f",{2 * plus - n},{plus},{n - plus}\n" for plus in set(n_plus)}
    text = "trial,total_half_quanta,n_plus,n_minus\n" + "".join([f"{i}{suffix[p]}" for i, p in enumerate(n_plus)])
    return text.encode()


def reference_empirical(n_plus, n: int) -> dict:
    """Reference for ``harness._empirical``: the moments of the totals ``2 * n_plus - n`` in Python integers.

    The mean and the sample variance are exact ``Fraction``s of the totals'
    own sums, each rounded once to a float.
    """
    totals = [2 * int(p) - n for p in n_plus]
    trials, s1, s2 = len(totals), sum(totals), sum(t * t for t in totals)
    return {
        "trials": trials,
        "sample_mean": float(Fraction(s1, trials)),
        "sample_variance": float(Fraction(trials * s2 - s1 * s1, trials * (trials - 1))),
        "min": min(totals),
        "max": max(totals),
    }


def marsaglia_states(samples: int, seed: int) -> np.ndarray:
    """``samples`` Bloch vectors uniform on the sphere, as rows, by Marsaglia's method (1972).

    Draws pairs ``2 * random((1000, 2)) - 1`` from ``default_rng(seed)`` at a
    time, keeps those with s = u^2 + v^2 < 1, takes the first ``samples`` and
    maps each to m = (2u sqrt(1 - s), 2v sqrt(1 - s), 1 - 2s): a sampler of
    the whole state, independent of the m_x-only draws that
    ``fixed_operator_infeasibility`` makes.
    """
    rng = np.random.default_rng(seed)
    kept, count = [], 0
    while count < samples:
        pairs = 2.0 * rng.random((1000, 2)) - 1.0
        pairs = pairs[pairs[:, 0] ** 2 + pairs[:, 1] ** 2 < 1.0]
        kept.append(pairs)
        count += len(pairs)
    u, v = np.concatenate(kept)[:samples].T
    s = u * u + v * v
    root = 2.0 * np.sqrt(1.0 - s)
    return np.column_stack([u * root, v * root, 1.0 - 2.0 * s])


def reference_residuals(samples: int, seed: int) -> tuple[float, float]:
    """Reference for ``fixed_operator_infeasibility``, in plain Python floats.

    Draws all ``samples`` uniforms u with one ``default_rng(seed).random(samples)``
    call. Each state's m_x is 2u - 1 and its residual r = 3 m_x^2 - 1, three
    times the residual of (2/3) I against 1 - m_x^2, one rounding per
    operation as numpy's elementwise operations round. Returns
    (sqrt(fsum(r^2) / samples) / 3, max |r| / 3).
    """
    uniforms = np.random.default_rng(seed).random(samples).tolist()
    residuals = [3.0 * ((2.0 * u - 1.0) * (2.0 * u - 1.0)) - 1.0 for u in uniforms]
    return math.sqrt(math.fsum(r * r for r in residuals) / samples) / 3.0, max(map(abs, residuals)) / 3.0
