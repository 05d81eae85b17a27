"""Preparation records for ensembles: the information a density matrix discards.

An ensemble is a list of (pure state, particle count) components. Counts are
exact integers, never fractions, because predictions for extensive quantities
depend on the total particle number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .qcore import Spinor
from .spin import Axis, SpinOutcome, X, Z, eigenstate

__all__ = [
    "EnsembleComponent",
    "EnsembleSpec",
    "make_ensemble_A",
    "make_ensemble_B",
    "make_pair_ensemble",
    "ensemble_from_json",
]


@dataclass(frozen=True)
class EnsembleComponent:
    state: Spinor
    count: int

    def __post_init__(self) -> None:
        if not isinstance(self.count, int) or isinstance(self.count, bool):
            raise ValueError(f"component count must be an exact integer, got {self.count!r}")
        if self.count < 0:
            raise ValueError(f"component count must be non-negative, got {self.count}")


@dataclass(frozen=True)
class EnsembleSpec:
    """Full preparation record: component states with exact particle counts."""

    components: tuple[EnsembleComponent, ...]
    name: str = ""

    def __post_init__(self) -> None:
        components = tuple(self.components)
        if sum(c.count for c in components) < 1:
            raise ValueError("ensemble must contain at least one particle")
        object.__setattr__(self, "components", components)

    @property
    def total_count(self) -> int:
        return sum(c.count for c in self.components)

    def weights(self) -> list[float]:
        """Intensive weights count/N, derived on demand."""
        n = self.total_count
        return [c.count / n for c in self.components]


def _require_even(n: int, what: str) -> None:
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"{what} requires an integer particle count, got {n!r}")
    if n < 2 or n % 2 != 0:
        raise ValueError(
            f"{what} requires a positive even particle count (an exact half split), got {n}"
        )


def make_pair_ensemble(axis: Axis, n: int, name: str = "") -> EnsembleSpec:
    """n/2 particles in each of the two opposite eigenstates along ``axis``."""
    _require_even(n, "pair ensemble")
    half = n // 2
    return EnsembleSpec(
        (
            EnsembleComponent(eigenstate(axis, SpinOutcome.PLUS), half),
            EnsembleComponent(eigenstate(axis, SpinOutcome.MINUS), half),
        ),
        name=name or f"pair(theta={axis.theta:.6g}, phi={axis.phi:.6g}, n={n})",
    )


def make_ensemble_A(n: int) -> EnsembleSpec:
    """Totally unpolarized preparation: an even split of the two x eigenstates."""
    _require_even(n, "ensemble A")
    return make_pair_ensemble(X, n, name=f"A(n={n})")


def make_ensemble_B(n: int) -> EnsembleSpec:
    """Totally unpolarized preparation: an even split of the two z eigenstates."""
    _require_even(n, "ensemble B")
    return make_pair_ensemble(Z, n, name=f"B(n={n})")


def ensemble_from_json(data: Any) -> EnsembleSpec:
    """Load an ensemble from its JSON form.

    Two shapes are accepted: the preset shorthand {"preset": "A"|"B", "n": int}
    and the explicit {"name": str, "components": [{"axis": ..., "sign": +1|-1,
    "count": int}]} where axis follows the Axis JSON convention.
    """
    if not isinstance(data, dict):
        raise ValueError(f"ensemble must be a JSON object, got {data!r}")

    if "preset" in data:
        extra = set(data) - {"preset", "n"}
        if extra:
            raise ValueError(f"unexpected preset fields: {sorted(extra)}")
        preset = data["preset"]
        n = data.get("n")
        if not isinstance(n, int) or isinstance(n, bool):
            raise ValueError(f"preset ensemble needs an integer 'n', got {n!r}")
        if preset == "A":
            return make_ensemble_A(n)
        if preset == "B":
            return make_ensemble_B(n)
        raise ValueError(f"unknown preset {preset!r}; expected 'A' or 'B'")

    if "components" not in data:
        raise ValueError("ensemble object needs 'components' or 'preset'")
    raw_components = data["components"]
    if not isinstance(raw_components, list):
        raise ValueError(f"'components' must be a list, got {raw_components!r}")
    components = []
    for i, entry in enumerate(raw_components):
        where = f"components[{i}]"
        if not isinstance(entry, dict):
            raise ValueError(f"{where} must be an object, got {entry!r}")
        for key in ("axis", "sign", "count"):
            if key not in entry:
                raise ValueError(f"{where}.{key} is required")
        try:
            axis = Axis.from_json(entry["axis"])
        except ValueError as exc:
            raise ValueError(f"{where}.axis: {exc}") from None
        sign = SpinOutcome(entry["sign"])
        count = entry["count"]
        if not isinstance(count, int) or isinstance(count, bool):
            raise ValueError(f"{where}.count must be an integer, got {count!r}")
        components.append(EnsembleComponent(eigenstate(axis, sign), count))
    return EnsembleSpec(tuple(components), name=str(data.get("name", "")))
