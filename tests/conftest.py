"""Shared strategies and oracle helpers for the test suite."""

import itertools
import math
from dataclasses import dataclass

import numpy as np
from hypothesis import strategies as st
from numpy.random import Generator, Philox

from spinstat.ensemble import EnsembleComponent, EnsembleSpec
from spinstat.qcore import HermitianOp, Spinor, expectation
from spinstat.spin import Axis, SpinOutcome, born_probability

_component_floats = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@st.composite
def spinors(draw):
    """Normalized two-component states with nontrivial amplitudes."""
    parts = [draw(_component_floats) for _ in range(4)]
    if sum(p * p for p in parts) < 1e-6:
        parts[0] = 1.0
    return Spinor(complex(parts[0], parts[1]), complex(parts[2], parts[3]))


@st.composite
def axes(draw):
    theta = draw(st.floats(min_value=0.0, max_value=math.pi, allow_nan=False))
    phi = draw(st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True, allow_nan=False))
    return Axis(theta, phi)


def random_spinor(rng: np.random.Generator) -> Spinor:
    while True:
        parts = rng.standard_normal(4)
        if parts @ parts > 1e-6:
            return Spinor(complex(parts[0], parts[1]), complex(parts[2], parts[3]))


def random_axis(rng: np.random.Generator) -> Axis:
    # theta from a uniform direction on the sphere, not uniform in angle
    return Axis(math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2.0 * math.pi))


def random_ensemble(rng: np.random.Generator, max_components: int = 4, max_count: int = 25) -> EnsembleSpec:
    parts = rng.integers(1, max_components + 1)
    components = tuple(
        EnsembleComponent(random_spinor(rng), int(rng.integers(1, max_count + 1)))
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


def statistical_average_expectation(e: EnsembleSpec, obs: HermitianOp, extensive: bool = False) -> float:
    """Oracle for ``expectation_tr``: the weighted average of per-state expectations.

    Weights are particle fractions for intensive quantities or raw counts for
    extensive ones, matching the normalized and unnormalized density operator.
    """
    n = e.total_count
    total = 0.0
    for component in e.components:
        weight = float(component.count) if extensive else component.count / n
        total += weight * expectation(obs, component.state)
    return total


@dataclass(frozen=True)
class SeededSampler:
    """Reference random source: a fresh numpy Philox generator per trial.

    Trial ``t`` draws from a Philox generator whose 256-bit counter starts at
    ``t * 2**128``; within a trial, particle ``j`` consumes the ``j``-th
    uniform. ``run_trials`` must reproduce these draws' outcomes exactly.
    """

    seed: int

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        object.__setattr__(self, "seed", self.seed % (1 << 64))

    def stream(self, trial_index: int) -> Generator:
        if trial_index < 0:
            raise ValueError("trial index must be non-negative")
        return Generator(Philox(counter=trial_index << 128, key=self.seed))

    def uniforms(self, trial_index: int, count: int) -> np.ndarray:
        """The first ``count`` uniform draws of the trial's stream."""
        return self.stream(trial_index).random(count)


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of measuring every particle of the ensemble once."""

    trial_index: int
    total_half_quanta: int
    n_plus: int
    n_minus: int

    def __post_init__(self) -> None:
        if self.n_plus < 0 or self.n_minus < 0:
            raise ValueError("outcome counts must be non-negative")
        if self.total_half_quanta != self.n_plus - self.n_minus:
            raise ValueError("total must equal n_plus - n_minus")


def measure_particle(state: Spinor, axis: Axis, draw: float) -> SpinOutcome:
    """Reference projective measurement of one particle given a uniform draw in [0, 1)."""
    if not (0.0 <= draw < 1.0):
        raise ValueError(f"draw must lie in [0, 1), got {draw!r}")
    p_plus = born_probability(state, axis, SpinOutcome.PLUS)
    return SpinOutcome.PLUS if draw < p_plus else SpinOutcome.MINUS


def measure_ensemble_total(e: EnsembleSpec, axis: Axis, sampler: SeededSampler, trial_index: int) -> TrialRecord:
    """Reference trial: measure every particle once against its own stream."""
    n = e.total_count
    draws = sampler.uniforms(trial_index, n)
    plus = 0
    offset = 0
    for comp in e.components:
        p_plus = born_probability(comp.state, axis, SpinOutcome.PLUS)
        plus += int(np.count_nonzero(draws[offset : offset + comp.count] < p_plus))
        offset += comp.count
    return TrialRecord(trial_index, 2 * plus - n, plus, n - plus)
