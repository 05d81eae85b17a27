"""Preparation records for ensembles: the information a density matrix discards.

An ensemble is a list of (pure state, particle count) components, each state
a unit Bloch vector. Counts are exact integers, never fractions, because
predictions for extensive quantities depend on the total particle number.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass
from typing import Any

from .spin import Axis, ConfigError, SpinOutcome, Vector, X, Z, check_int, check_object, eigenstate, within

__all__ = [
    "EnsembleComponent",
    "EnsembleSpec",
    "make_ensemble_A",
    "make_ensemble_B",
    "make_pair_ensemble",
    "ensemble_from_json",
]

# Counts enter the trace and every prediction as floats, which hold each
# integer exactly only up to 2**53.
MAX_COUNT = 2**53

# A state's Bloch vector must have unit norm to within this.
_NORM_TOL = 1e-12

# The preset shorthand {"preset": name, "n": n} is an even split along this axis.
_PRESET_AXES = {"A": X, "B": Z}


def _count(value: Any, path: str, lo: int) -> int:
    """``value`` as an exact integer count from ``lo`` to 2**53."""
    if check_int(value, path, lo) > MAX_COUNT:
        raise ConfigError("must be at most 2**53", path)
    return value


@dataclass(frozen=True)
class EnsembleComponent:
    state: Vector
    count: int

    def __post_init__(self) -> None:
        state = tuple(map(float, self.state))
        if len(state) != 3 or not abs(math.hypot(*state) - 1.0) <= _NORM_TOL:
            raise ConfigError(f"must be a finite unit Bloch vector, got {self.state!r}", "state")
        object.__setattr__(self, "state", state)
        _count(self.count, "count", 0)


@dataclass(frozen=True)
class EnsembleSpec:
    """Full preparation record: component states with exact particle counts."""

    components: tuple[EnsembleComponent, ...]

    def __post_init__(self) -> None:
        components = tuple(self.components)
        total = sum(c.count for c in components)
        if total < 1:
            raise ConfigError("must hold at least one particle", "components")
        if total > MAX_COUNT:
            raise ConfigError("must have a total particle count of at most 2**53", "components")
        object.__setattr__(self, "components", components)

    @property
    def total_count(self) -> int:
        return sum(c.count for c in self.components)


def make_pair_ensemble(axis: Axis, n: int) -> EnsembleSpec:
    """n/2 particles in each of the two opposite eigenstates along ``axis``."""
    half, odd = divmod(_count(n, "n", 2), 2)
    if odd:
        raise ConfigError(f"must be even (an exact half split), got {n}", "n")
    return EnsembleSpec(
        (
            EnsembleComponent(eigenstate(axis, SpinOutcome.PLUS), half),
            EnsembleComponent(eigenstate(axis, SpinOutcome.MINUS), half),
        )
    )


def make_ensemble_A(n: int) -> EnsembleSpec:
    """Totally unpolarized preparation: an even split of the two x eigenstates."""
    return make_pair_ensemble(X, n)


def make_ensemble_B(n: int) -> EnsembleSpec:
    """Totally unpolarized preparation: an even split of the two z eigenstates."""
    return make_pair_ensemble(Z, n)


def ensemble_from_json(data: Any, path: str = "ensemble") -> EnsembleSpec:
    """Load an ensemble from its JSON form.

    Two shapes are accepted: the preset shorthand {"preset": "A"|"B", "n": int}
    and the explicit {"name": str, "components": [{"axis": ..., "sign": +1|-1,
    "count": int}]} where axis follows the Axis JSON convention. Errors name
    the field by its path below ``path``, the ensemble's place in the config.
    """
    if isinstance(data, dict) and "preset" in data:
        check_object(data, path, ("preset", "n"))
        preset = data["preset"]
        if not isinstance(preset, str) or preset not in _PRESET_AXES:
            raise ConfigError(f"must be 'A' or 'B', got {reprlib.repr(preset)}", f"{path}.preset")
        with within(path):
            return make_pair_ensemble(_PRESET_AXES[preset], data["n"])

    check_object(data, path, ("components",), ("name",))
    if not isinstance(data.get("name", ""), str):
        raise ConfigError(f"must be a string, got {reprlib.repr(data['name'])}", f"{path}.name")
    if not isinstance(data["components"], list):
        raise ConfigError(f"must be a list, got {reprlib.repr(data['components'])}", f"{path}.components")
    components = []
    for i, entry in enumerate(data["components"]):
        where = f"{path}.components[{i}]"
        check_object(entry, where, ("axis", "sign", "count"))
        axis = Axis.from_json(entry["axis"], f"{where}.axis")
        if check_int(entry["sign"], f"{where}.sign") not in (1, -1):
            raise ConfigError("must be 1 or -1", f"{where}.sign")
        with within(where):
            components.append(EnsembleComponent(eigenstate(axis, SpinOutcome(entry["sign"])), entry["count"]))
    with within(path):
        return EnsembleSpec(tuple(components))
