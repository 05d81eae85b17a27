"""Unit tests for preparation records and the preset ensembles."""

import pytest

from spinstat.density import density_equal, density_operator
from spinstat.ensemble import (
    EnsembleComponent,
    EnsembleSpec,
    ensemble_from_json,
    make_ensemble_A,
    make_ensemble_B,
    make_pair_ensemble,
)
from spinstat.spin import Axis, SpinOutcome, X, Z, born_probability, eigenstate


def test_component_rejects_bad_counts():
    state = eigenstate(Z, SpinOutcome.PLUS)
    for bad in (-1, 0.5, True):
        with pytest.raises((ValueError, TypeError)):
            EnsembleComponent(state, bad)


def test_ensemble_spec_requires_at_least_one_particle():
    with pytest.raises(ValueError):
        EnsembleSpec(())
    state = eigenstate(Z, SpinOutcome.PLUS)
    with pytest.raises(ValueError):
        EnsembleSpec((EnsembleComponent(state, 0),))


def test_pair_ensemble_requires_even_count():
    for bad in (3, -2, 0):
        with pytest.raises(ValueError):
            make_pair_ensemble(X, bad)


def test_preset_a_is_x_pairs():
    e = make_ensemble_A(100)
    assert e.total_count == 100
    assert len(e.components) == 2
    signs = sorted(
        round(born_probability(c.state, X, SpinOutcome.PLUS)) for c in e.components
    )
    assert signs == [0, 1]
    assert all(c.count == 50 for c in e.components)


def test_preset_b_is_z_pairs():
    e = make_ensemble_B(6)
    probs = sorted(born_probability(c.state, Z, SpinOutcome.PLUS) for c in e.components)
    assert probs == [0.0, 1.0]
    assert all(c.count == 3 for c in e.components)


def test_presets_reject_odd_n():
    with pytest.raises(ValueError):
        make_ensemble_A(7)
    with pytest.raises(ValueError):
        make_ensemble_B(1)


def test_pair_ensemble_reduces_to_presets():
    assert make_pair_ensemble(X, 4).components == make_ensemble_A(4).components
    assert make_pair_ensemble(Axis(0.0, 0.0), 4).components == make_ensemble_B(4).components


def test_pair_components_are_orthogonal():
    e = make_pair_ensemble(Axis(2.2, 5.1), 2)
    a, b = (c.state for c in e.components)
    overlap = a.a0.conjugate() * b.a0 + a.a1.conjugate() * b.a1
    assert abs(overlap) <= 1e-12


def test_presets_share_density_but_not_preparation_record():
    a = make_ensemble_A(10)
    b = make_ensemble_B(10)
    assert density_equal(density_operator(a), density_operator(b), 1e-12)
    a_states = {(c.state.a0, c.state.a1) for c in a.components}
    b_states = {(c.state.a0, c.state.a1) for c in b.components}
    assert a_states.isdisjoint(b_states)


class TestEnsembleJson:
    def test_preset_shorthand(self):
        e = ensemble_from_json({"preset": "A", "n": 8})
        assert e.total_count == 8
        assert len(e.components) == 2

    def test_explicit_components(self):
        data = {
            "name": "mixed",
            "components": [
                {"axis": "z", "sign": 1, "count": 3},
                {"axis": {"theta": 1.0, "phi": 0.5}, "sign": -1, "count": 4},
            ],
        }
        e = ensemble_from_json(data)
        assert e.total_count == 7
        assert born_probability(e.components[0].state, Z, SpinOutcome.PLUS) == 1.0

    def test_rejects_unknown_preset_and_bad_sign(self):
        with pytest.raises(ValueError):
            ensemble_from_json({"preset": "C", "n": 4})
        with pytest.raises(ValueError):
            ensemble_from_json({"components": [{"axis": "z", "sign": 2, "count": 1}]})

    def test_rejects_non_object(self):
        with pytest.raises(ValueError):
            ensemble_from_json([1, 2, 3])
