"""Closed-form envelopes for the quantum left-side probability above the step.

Antinode matching (equal amplitudes, A = +-B) caps the left-side probability
at the geometric ratio a/(a+b); node matching (kA = +-qB) floors it at
a/(a + b E/(E - v0)).  The classical value always lies between the two since
sqrt(E/(E - v0)) sits between 1 and E/(E - v0).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .potential import WellSpec

__all__ = ["BoundPair", "bounds_at"]

_MARGIN = 1e-12  # relative clearance above v0; the lower bound is singular at E = v0


@dataclass(frozen=True)
class BoundPair:
    lower: float
    upper: float
    energy: float
    spec: WellSpec


def bounds_at(spec: WellSpec, energy: float) -> BoundPair:
    """Antinode (upper) and node (lower) probability envelopes at one energy.

    Defined only strictly above the step; the upper envelope a/(a+b) is
    energy-independent and the lower one rises to meet it as E -> infinity.
    """
    lower, upper = _envelopes(spec, [energy])
    return BoundPair(lower=float(lower[0]), upper=upper, energy=energy, spec=spec)


def _envelopes(spec: WellSpec, energies) -> tuple[np.ndarray, float]:
    """Lower envelopes over an energy array, and the upper one."""
    e = np.asarray(energies, dtype=float)
    if np.count_nonzero(bad := ~(e > 0)):
        raise ValueError(f"energy must be positive, got {float(e[bad][0])}")
    if np.count_nonzero(bad := ~(e > spec.v0 * (1.0 + _MARGIN))):
        raise ValueError(f"bounds are defined only above the step: E={float(e[bad][0])}, "
                         f"v0={spec.v0}")
    return spec.a / (spec.a + spec.b * e / (e - spec.v0)), spec.a / (spec.a + spec.b)
