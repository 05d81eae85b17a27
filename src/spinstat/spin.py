"""Spin observables along arbitrary axes, pure states, and Born-rule probabilities.

A pure state is its unit Bloch vector m, a plain 3-tuple of floats. The spin
component along a unit axis n is the operator n.sigma, and (n.sigma)^2 = I,
so a single measurement yields +1 or -1, with p+ = (1 + m.n)/2.

Unit convention: every outcome, mean, and variance in this package is in
half-quantum units (a single measurement yields exactly +1 or -1). Scaling to
physical units happens only at report formatting, in ``harness.render_report``.
"""

from __future__ import annotations

import math
import reprlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Any

__all__ = [
    "ConfigError",
    "check_object",
    "check_int",
    "check_number",
    "within",
    "Axis",
    "SpinOutcome",
    "X",
    "Y",
    "Z",
    "dot",
    "eigenstate",
    "born_probability",
]

Vector = tuple[float, float, float]

# Values this close to an exactly-representable target are snapped to it:
# axis Bloch components to 0 or +-1, so named axes and their eigenstates come
# out bit-exact, and probabilities to 0, 1/2 or 1, so preparations the math
# makes certain (or exactly even) stay certain in simulation.
_SNAP = 1e-12


def _snap(value: float, targets: tuple[float, ...]) -> float:
    for target in targets:
        if abs(value - target) <= _SNAP:
            return target
    return value


class ConfigError(ValueError):
    """Invalid input. Given a ``path``, the message reads ``field '<path>' <problem>``.

    The path is relative to whatever was being checked: a constructor names
    its own argument ("count"), and a parser that calls it inside
    :func:`within` prefixes the path of the enclosing object. The empty path
    is the config itself.
    """

    def __init__(self, problem: str, path: str | None = None):
        self.problem, self.path = problem, path
        subject = "config" if path == "" else f"field '{path}'"
        super().__init__(problem if path is None else f"{subject} {problem}")


def _join(prefix: str, path: str | None) -> str:
    return f"{prefix}.{path}" if prefix and path else prefix or path


@contextmanager
def within(prefix: str):
    """Report a :class:`ConfigError` raised inside as one of the field below ``prefix``."""
    try:
        yield
    except ConfigError as exc:
        raise ConfigError(exc.problem, _join(prefix, exc.path)) from None


def check_object(data: Any, path: str, required: tuple = (), optional: tuple = ()) -> dict:
    """``data`` as a JSON object holding every ``required`` key and no key outside both tuples."""
    if not isinstance(data, dict):
        raise ConfigError(f"must be an object, got {reprlib.repr(data)}", path)
    unknown = sorted(set(data).difference(required, optional))
    if unknown:
        raise ConfigError(f"has unknown fields {unknown}", path)
    for key in required:
        if key not in data:
            raise ConfigError("is required", _join(path, key))
    return data


def check_int(value: Any, path: str, lo: int | None = None, hi: int | None = None) -> int:
    """``value`` as an exact integer (never a bool) within the given bounds."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"must be an integer, got {reprlib.repr(value)}", path)
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        bounds = [f"at least {lo}"] * (lo is not None) + [f"at most {hi}"] * (hi is not None)
        raise ConfigError(f"must be {' and '.join(bounds)}", path)
    return value


def check_number(value: Any, path: str) -> float:
    """``value`` (an int or a float, never a bool) as a finite float."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"must be a number, got {reprlib.repr(value)}", path)
    try:
        number = float(value)
    except OverflowError:
        raise ConfigError("is too large for a float", path) from None
    if not math.isfinite(number):
        raise ConfigError(f"must be finite, got {number}", path)
    return number


class SpinOutcome(IntEnum):
    """Single-measurement outcome in half-quantum units."""

    PLUS = 1
    MINUS = -1


@dataclass(frozen=True)
class Axis:
    """Measurement direction given by polar angle from z and azimuth from x."""

    theta: float
    phi: float = 0.0
    _bloch: Vector = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        theta, phi = check_number(self.theta, "theta"), check_number(self.phi, "phi")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)
        sin_t, unit = math.sin(theta), (-1.0, 0.0, 1.0)
        vector = _snap(sin_t * math.cos(phi), unit), _snap(sin_t * math.sin(phi), unit), _snap(math.cos(theta), unit)
        object.__setattr__(self, "_bloch", vector)

    def bloch(self) -> Vector:
        """Unit Bloch vector, with components snapped to exact 0/+-1.

        It is computed once, when the axis is built, so reading it costs no
        trigonometry.
        """
        return self._bloch

    @classmethod
    def from_json(cls, data: Any, path: str = "axis") -> "Axis":
        """Parse either a named axis ("x"/"y"/"z") or {"theta": r, "phi": r}.

        Errors name the field by ``path``, the axis's place in the config.
        """
        if isinstance(data, dict):
            check_object(data, path, ("theta",), ("phi",))
            with within(path):
                return cls(data["theta"], data.get("phi", 0.0))
        if isinstance(data, str) and data.lower() in _NAMED_AXES:
            return _NAMED_AXES[data.lower()]
        raise ConfigError(f"must be x, y, z or an object with angles, got {reprlib.repr(data)}", path)

    def to_json(self) -> Any:
        for name, axis in _NAMED_AXES.items():
            if self == axis:
                return name
        return {"theta": self.theta, "phi": self.phi}


X = Axis(math.pi / 2, 0.0)
Y = Axis(math.pi / 2, math.pi / 2)
Z = Axis(0.0, 0.0)

_NAMED_AXES = {"x": X, "y": Y, "z": Z}


def dot(u: Vector, v: Vector) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def eigenstate(axis: Axis, sign: SpinOutcome) -> Vector:
    """Bloch vector of the state measured as ``sign`` along ``axis`` with certainty.

    That is sign * n. Adding 0.0 turns the -0.0 components of a -1 state
    into 0.0, so a report never prints a mean of -0.0 where the named axes
    give an exact zero.
    """
    s = float(SpinOutcome(sign))
    return tuple(s * c + 0.0 for c in axis.bloch())


def born_probability(state: Vector, axis: Axis, sign: SpinOutcome) -> float:
    """Probability (1 + sign * m.n)/2 of measuring ``sign`` on ``state`` along ``axis``.

    The probability is clamped to [0, 1] and snapped to exact 0, 1/2, or 1
    when within 1e-12, so outcomes that are certain (or exactly even) by
    construction behave that way bit-exactly.
    """
    return _probability(dot(state, axis.bloch()), sign)


def _probability(projection: float, sign: SpinOutcome) -> float:
    """:func:`born_probability` of a state whose projection m.n on the axis is ``projection``."""
    p = (1.0 + SpinOutcome(sign) * projection) / 2.0
    return _snap(min(max(p, 0.0), 1.0), (0.0, 0.5, 1.0))
