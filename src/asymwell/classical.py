"""Classical position statistics for a bouncing particle in the step well.

The particle's speed is v = 2 sqrt(E - V) in natural units (m = 1/2), so the
time-of-flight density on each side is constant and proportional to 1/v.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .potential import WellSpec, _finite, _in_well

__all__ = ["ClassicalModel", "classical_model", "classical_density"]


@dataclass(frozen=True)
class ClassicalModel:
    """Piecewise-constant classical density and side probabilities at one energy."""

    energy: float
    spec: WellSpec
    density_left: float
    density_right: float
    p_left: float
    p_right: float
    t_left: float
    t_right: float


def classical_model(spec: WellSpec, energy: float) -> ClassicalModel:
    """Classical model at the given energy; E = v0 exactly is rejected.

    Each side's density is its share of the period, the traversal time
    2 * side / speed over the sum of both, spread over its length: below the
    step the particle is confined to the left pocket (density 1/a).  At E = v0
    the right-side traversal time diverges and the left probability jumps
    from 1 to 0+, so no value is assigned there.
    """
    if spec.smoothing is not None:
        raise ValueError("classical comparison model is defined for the sharp step only")
    if _finite(energy, "energy") == spec.v0:
        raise ValueError("classical model is singular exactly at E = v0")
    t_left, t_right, p_left, p_right = (float(x[0]) for x in _time_shares(spec, [energy]))
    return ClassicalModel(energy, spec, p_left / spec.a, p_right / spec.b,
                          p_left, p_right, t_left, t_right)


def _time_shares(spec: WellSpec, energies):
    """Per-side traversal times 2 * side / speed and their shares of the period,
    over an array of finite positive energies other than v0 in a sharp-step
    well; below the step the right-side time is 0."""
    e = np.asarray(energies, dtype=float)
    up = e > spec.v0
    t_left = 2.0 * spec.a / (2.0 * np.sqrt(e))
    t_right = np.zeros(e.shape)
    t_right[up] = 2.0 * spec.b / (2.0 * np.sqrt(e[up] - spec.v0))
    period = t_left + t_right
    return t_left, t_right, t_left / period, t_right / period


def classical_density(model: ClassicalModel, x):
    """Piecewise-constant density at position(s) x inside [-a, b].

    The jump point x = 0 reports the two-sided average, mirroring the
    midpoint convention of the step potential itself.
    """
    spec = model.spec
    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs)
    _in_well(spec, xs)
    mid = 0.5 * (model.density_left + model.density_right)
    out = np.where(xs < 0, model.density_left,
                   np.where(xs > 0, model.density_right, mid))
    return float(out[0]) if scalar else out
