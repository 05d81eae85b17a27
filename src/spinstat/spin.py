"""Spin observables along arbitrary axes, eigenstates, and Born-rule probabilities.

Unit convention: every outcome, mean, and variance in this package is in
half-quantum units (a single measurement yields exactly +1 or -1). Scaling to
physical units happens only at report formatting, through :class:`HbarScale`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Any

from .qcore import HermitianOp, Spinor, inner_product

__all__ = [
    "Axis",
    "SpinOutcome",
    "HbarScale",
    "X",
    "Y",
    "Z",
    "spin_operator",
    "eigenstate",
    "born_probability",
    "state_mean_and_variance",
]

# Components of an axis Bloch vector this close to 0 or +-1 are snapped to the
# exact value, so the Pauli operators along named axes come out bit-exact.
_BLOCH_SNAP = 1e-12

# Probabilities this close to the exactly-representable values 0, 1/2, 1 are
# snapped, so preparations the math makes certain (or exactly even) stay
# certain in simulation.
_PROB_SNAP = 1e-12
_PROB_SNAP_TARGETS = (0.0, 0.5, 1.0)


class SpinOutcome(IntEnum):
    """Single-measurement outcome in half-quantum units."""

    PLUS = 1
    MINUS = -1


def _snap_component(value: float) -> float:
    for target in (-1.0, 0.0, 1.0):
        if abs(value - target) <= _BLOCH_SNAP:
            return target
    return value


@dataclass(frozen=True)
class Axis:
    """Measurement direction given by polar angle from z and azimuth from x."""

    theta: float
    phi: float = 0.0

    def __post_init__(self) -> None:
        theta, phi = float(self.theta), float(self.phi)
        if not (math.isfinite(theta) and math.isfinite(phi)):
            raise ValueError("axis angles must be finite")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)

    def bloch(self) -> tuple[float, float, float]:
        """Unit Bloch vector, with components snapped to exact 0/+-1."""
        sin_t = math.sin(self.theta)
        return (
            _snap_component(sin_t * math.cos(self.phi)),
            _snap_component(sin_t * math.sin(self.phi)),
            _snap_component(math.cos(self.theta)),
        )

    @classmethod
    def from_json(cls, data: Any) -> "Axis":
        """Parse either a named axis ("x"/"y"/"z") or {"theta": r, "phi": r}."""
        if isinstance(data, str):
            try:
                return _NAMED_AXES[data.lower()]
            except KeyError:
                raise ValueError(f"unknown axis name {data!r}; expected x, y, or z") from None
        if isinstance(data, dict):
            extra = set(data) - {"theta", "phi"}
            if extra:
                raise ValueError(f"unexpected axis fields: {sorted(extra)}")
            if "theta" not in data:
                raise ValueError("an axis object requires a 'theta' field")
            angles = {"theta": data["theta"], "phi": data.get("phi", 0.0)}
            for key, value in angles.items():
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    raise ValueError(f"axis field '{key}' must be a number, got {value!r}")
            return cls(float(angles["theta"]), float(angles["phi"]))
        raise ValueError(f"axis must be a name or an object with angles, got {data!r}")

    def to_json(self) -> Any:
        for name, axis in _NAMED_AXES.items():
            if self == axis:
                return name
        return {"theta": self.theta, "phi": self.phi}


X = Axis(math.pi / 2, 0.0)
Y = Axis(math.pi / 2, math.pi / 2)
Z = Axis(0.0, 0.0)

_NAMED_AXES = {"x": X, "y": Y, "z": Z}


@dataclass(frozen=True)
class HbarScale:
    """Reporting-layer conversion between half-quantum units and physical units."""

    hbar: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.hbar) and self.hbar > 0):
            raise ValueError("hbar must be a positive real")

    def mean_to_physical(self, mean_half_quanta: float) -> float:
        return mean_half_quanta * self.hbar / 2.0

    def sigma_to_physical(self, sigma_half_quanta: float) -> float:
        return sigma_half_quanta * self.hbar / 2.0

    def variance_to_physical(self, variance_half_quanta: float) -> float:
        return variance_half_quanta * self.hbar * self.hbar / 4.0


def spin_operator(axis: Axis) -> HermitianOp:
    """Spin component operator n.sigma along the axis, in half-quantum units."""
    nx, ny, nz = axis.bloch()
    return HermitianOp(nz, -nz, complex(nx, -ny))


def eigenstate(axis: Axis, sign: SpinOutcome) -> Spinor:
    """Eigenvector of ``spin_operator(axis)`` for the requested outcome.

    Convention: the +1 state is (cos theta/2, e^{i phi} sin theta/2); the -1
    state is the +1 state of the antipodal axis, i.e. the chart is continuous
    and the first component is real and non-negative away from theta = pi.
    """
    sign = SpinOutcome(sign)
    if sign is SpinOutcome.PLUS:
        theta, phi = axis.theta, axis.phi
        return Spinor(math.cos(theta / 2.0), cmath.exp(1j * phi) * math.sin(theta / 2.0))
    return Spinor(
        math.sin(axis.theta / 2.0),
        -cmath.exp(1j * axis.phi) * math.cos(axis.theta / 2.0),
    )


def _snap_probability(p: float) -> float:
    for target in _PROB_SNAP_TARGETS:
        if abs(p - target) <= _PROB_SNAP:
            return target
    return p


def born_probability(state: Spinor, axis: Axis, sign: SpinOutcome) -> float:
    """Probability of measuring ``sign`` on ``state`` along ``axis``.

    The squared bracket is clamped to [0, 1] and snapped to exact 0, 1/2, or 1
    when within 1e-12, so outcomes that are certain (or exactly even) by
    construction behave that way bit-exactly.
    """
    amplitude = inner_product(eigenstate(axis, sign), state)
    p = min(max(abs(amplitude) ** 2, 0.0), 1.0)
    return _snap_probability(p)


def state_mean_and_variance(state: Spinor, axis: Axis) -> tuple[float, float]:
    """Mean and variance of a single measurement along ``axis``, half-quantum units.

    With outcomes +-1 the second moment is exactly 1, so the variance is
    1 - mean^2.
    """
    p_plus = born_probability(state, axis, SpinOutcome.PLUS)
    p_minus = born_probability(state, axis, SpinOutcome.MINUS)
    mean = p_plus - p_minus
    return mean, 1.0 - mean * mean
