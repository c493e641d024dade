"""Infinite-well potentials with a stepped floor: discontinuous, sigmoid, or ramp.

Natural units hbar = 2m = 1 throughout the package, so the stationary
Schrodinger equation reads psi'' = (V(x) - E) psi on [-a, b] with hard-wall
boundary conditions psi(-a) = psi(b) = 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = ["Exponential", "Linear", "WellSpec", "evaluate", "sample", "match_smoothings"]


@dataclass(frozen=True)
class Exponential:
    """Sigmoid floor v0 / (1 + exp(-x/delta)); the step is its delta -> 0 limit."""

    delta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "delta", _finite(float(self.delta), "smoothing scale delta"))


@dataclass(frozen=True)
class Linear:
    """Ramp floor: 0 for x <= -epsilon, v0 for x >= epsilon, linear in between."""

    epsilon: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilon", _finite(float(self.epsilon), "ramp half-width epsilon"))


Smoothing = Union[Exponential, Linear]


@dataclass(frozen=True)
class WellSpec:
    """Geometry and step height of the well; the single source of physical truth.

    Hard walls sit at x = -a and x = +b.  The floor is 0 on the left half and
    v0 on the right half, joined either discontinuously at x = 0
    (``smoothing=None``) or by one of the two smoothing families.

    Attributes:
        a: left half-width (finite, > 0).
        b: right half-width (finite, > 0).
        v0: step height (finite, >= 0).
        smoothing: None for the sharp step, or an Exponential / Linear profile.
    """

    a: float
    b: float
    v0: float
    smoothing: Smoothing | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _finite(float(self.a), "a"))
        object.__setattr__(self, "b", _finite(float(self.b), "b"))
        object.__setattr__(self, "v0", _finite(float(self.v0), "v0", zero_ok=True))
        if isinstance(self.smoothing, Linear) and not self.smoothing.epsilon < min(self.a, self.b):
            raise ValueError(
                f"ramp must stay inside the well: epsilon={self.smoothing.epsilon} "
                f">= min(a, b)={min(self.a, self.b)}"
            )

    @property
    def width(self) -> float:
        return self.a + self.b

    @property
    def is_step(self) -> bool:
        return self.smoothing is None


def evaluate(spec: WellSpec, x: float) -> float:
    """Potential value at x; ``math.inf`` outside the hard walls.

    The sharp step takes the value v0/2 exactly at x = 0, the common limit of
    both smoothing families.  The walls themselves belong to the interior
    (finite value); x < -a, x > b and NaN are outside.
    """
    if not -spec.a <= x <= spec.b:
        return math.inf
    return float(_finite_value(spec, np.asarray(x, dtype=float)))


def sample(spec: WellSpec, xs: np.ndarray) -> np.ndarray:
    """Vectorized ``evaluate`` for grids that lie inside [-a, b].

    Grid builders that want the v0/2 midpoint value of the sharp step must
    place an exact 0.0 at the origin; values merely close to zero fall on
    their own side of the step.
    """
    xs = np.asarray(xs, dtype=float)
    _in_well(spec, xs)
    return _finite_value(spec, xs)


def _finite(value: float, what: str, zero_ok: bool = False) -> float:
    """``value`` if it is finite and positive, or non-negative with ``zero_ok``;
    else ``ValueError`` naming ``what``.  NaN and +-inf are refused."""
    if not (0 <= value if zero_ok else 0 < value) or not value < math.inf:
        raise ValueError(f"{what} must be finite and {'non-negative' if zero_ok else 'positive'}, "
                         f"got {value}")
    return value


def _integer(value, what: str, least: int):
    """``value`` if it is an int or numpy integer (not a bool) of at least ``least``;
    else ``ValueError`` naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{what} must be an integer of at least {least}, got {value}")
    return value


def _in_well(spec: WellSpec, x, slack: float = 0.0) -> None:
    """``ValueError`` unless every position in x lies in [-a - slack, b + slack];
    NaN lies outside."""
    if not np.all((-spec.a - slack <= x) & (x <= spec.b + slack)):
        raise ValueError("position outside the well")


def _finite_value(spec: WellSpec, x: np.ndarray) -> np.ndarray:
    sm = spec.smoothing
    if sm is None:
        return np.where(x < 0, 0.0, np.where(x > 0, spec.v0, spec.v0 / 2.0))
    if isinstance(sm, Exponential):
        # v0 / (1 + exp(-x/delta)) in overflow-free form
        return spec.v0 * 0.5 * (1.0 + np.tanh(x / (2.0 * sm.delta)))
    ramp = spec.v0 * (1.0 + x / sm.epsilon) / 2.0
    return np.where(x <= -sm.epsilon, 0.0, np.where(x >= sm.epsilon, spec.v0, ramp))


def match_smoothings(delta: float) -> float:
    """Ramp scale epsilon = 2 * delta that matches the sigmoid to first order.

    Near the origin the sigmoid is v0/2 * (1 + x/(2 delta)) and the ramp is
    v0/2 * (1 + x/epsilon); they agree through O(x) exactly when epsilon = 2 delta.
    """
    return 2.0 * _finite(delta, "delta")
