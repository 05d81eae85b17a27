"""The benchmark's oracle against brute force, with no spinstat code involved.

Run with ``python3 -m pytest spinbench/test_oracle.py``.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random

import pytest

import oracle


def _random_components(rng: random.Random, n_particles: int):
    counts = [1] * n_particles
    while len(counts) > 1 and rng.random() < 0.5:
        last = counts.pop()
        counts[-1] += last
    return [
        (oracle.unit_vector(rng.uniform(0.0, math.pi), rng.uniform(0.0, 2 * math.pi)), c)
        for c in counts
    ]


def _enumerate_total(components, axis) -> dict[int, float]:
    """Exact PMF of the total over all 2^N outcome patterns."""
    probs = [oracle.p_plus(b, axis) for b, count in components for _ in range(count)]
    pmf: dict[int, float] = {}
    for pattern in itertools.product((1, -1), repeat=len(probs)):
        weight = 1.0
        for outcome, p in zip(pattern, probs):
            weight *= p if outcome == 1 else 1.0 - p
        total = sum(pattern)
        pmf[total] = pmf.get(total, 0.0) + weight
    return pmf


def _central_moments(pmf: dict[int, float]) -> tuple[float, float, float, float]:
    mean = sum(p * x for x, p in pmf.items())
    m2, m3, m4 = (sum(p * (x - mean) ** k for x, p in pmf.items()) for k in (2, 3, 4))
    return mean, m2, m3, m4


@pytest.mark.parametrize("n_particles", [1, 2, 5, 9, 12])
@pytest.mark.parametrize("case", range(4))
def test_cumulants_match_enumeration(n_particles, case):
    rng = random.Random(1000 * n_particles + case)
    components = _random_components(rng, n_particles)
    axis = oracle.unit_vector(rng.uniform(0.0, math.pi), rng.uniform(0.0, 2 * math.pi))
    mean, m2, m3, m4 = _central_moments(_enumerate_total(components, axis))
    k1, k2, k3, k4 = oracle.cumulants(components, axis)
    assert k1 == pytest.approx(mean, abs=1e-9)
    assert k2 == pytest.approx(m2, abs=1e-9)
    assert k3 == pytest.approx(m3, abs=1e-9)
    assert k4 == pytest.approx(m4 - 3 * m2 * m2, abs=1e-8)
    prep_mean, prep_var = oracle.predictions(components, axis)["preparation_aware"]
    assert prep_mean == pytest.approx(mean, abs=1e-9)
    assert prep_var == pytest.approx(m2, abs=1e-9)


def _spinor(bloch):
    """A pure state with the given Bloch vector, from its polar angles."""
    x, y, z = bloch
    theta = math.acos(max(-1.0, min(1.0, z)))
    phi = math.atan2(y, x)
    return (math.cos(theta / 2), cmath.exp(1j * phi) * math.sin(theta / 2))


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)] for i in range(2)]


@pytest.mark.parametrize("case", range(6))
def test_trace_predictions_match_matrices(case):
    rng = random.Random(case)
    components = _random_components(rng, rng.randint(2, 12))
    axis = oracle.unit_vector(rng.uniform(0.0, math.pi), rng.uniform(0.0, 2 * math.pi))
    nx, ny, nz = axis
    obs = [[nz, complex(nx, -ny)], [complex(nx, ny), -nz]]
    n = sum(c for _, c in components)
    expected = oracle.predictions(components, axis)
    for name, scale in (("density_normalized", 1.0 / n), ("density_unnormalized", 1.0)):
        rho = [[0j, 0j], [0j, 0j]]
        for bloch, count in components:
            amp = _spinor(bloch)
            for i in range(2):
                for j in range(2):
                    rho[i][j] += scale * count * amp[i] * amp[j].conjugate()
        ro = _matmul(rho, obs)
        first = (ro[0][0] + ro[1][1]).real
        ro2 = _matmul(ro, obs)
        second = (ro2[0][0] + ro2[1][1]).real
        mean, var = expected[name]
        assert mean == pytest.approx(first, abs=1e-9)
        assert var == pytest.approx(second - first * first, abs=1e-9)


@pytest.mark.parametrize("n_particles,trials", [(1, 4), (3, 3), (3, 4), (4, 5)])
def test_sample_variance_se_matches_enumeration(n_particles, trials):
    rng = random.Random(n_particles * 10 + trials)
    components = _random_components(rng, n_particles)
    axis = oracle.unit_vector(rng.uniform(0.0, math.pi), rng.uniform(0.0, 2 * math.pi))
    pmf = _enumerate_total(components, axis)
    _, k2, _, k4 = oracle.cumulants(components, axis)
    first = second = 0.0
    for sample in itertools.product(pmf.items(), repeat=trials):
        weight = math.prod(p for _, p in sample)
        xs = [x for x, _ in sample]
        mean = sum(xs) / trials
        s2 = sum((x - mean) ** 2 for x in xs) / (trials - 1)
        first += weight * s2
        second += weight * s2 * s2
    assert first == pytest.approx(k2, abs=1e-9)
    se = oracle.sample_variance_se(k2, k4, trials)
    assert se * se == pytest.approx(second - first * first, abs=1e-9)


def test_presets_and_named_axes():
    a = oracle.components_from_json({"preset": "A", "n": 10})
    b = oracle.components_from_json({"preset": "B", "n": 10})
    x = oracle.axis_vector("x")
    assert [oracle.p_plus(v, x) for v, _ in a] == [1.0, 0.0]
    assert [oracle.p_plus(v, x) for v, _ in b] == [0.5, 0.5]
    assert oracle.predictions(a, x)["preparation_aware"] == (0.0, 0.0)
    assert oracle.predictions(b, x)["preparation_aware"] == (0.0, 10.0)
    assert oracle.predictions(a, x)["density_unnormalized"] == (0.0, 10.0)
    tilted = oracle.components_from_json(
        {"components": [{"axis": {"theta": 0.4, "phi": 1.0}, "sign": -1, "count": 3}]}
    )
    assert tilted[0][0] == pytest.approx(tuple(-v for v in oracle.unit_vector(0.4, 1.0)))


def test_pmf_cumulants_of_a_two_point_law():
    mean, var, k3 = oracle.pmf_cumulants([-1, 1], [0.25, 0.75])
    assert (mean, var) == pytest.approx((0.5, 0.75))
    assert k3 == pytest.approx(8 * 0.75 * 0.25 * (0.25 - 0.75))
