"""Exact momentum-space densities of the closed-form eigenstates.

The transform phi(p) = (2 pi)^(-1/2) integral psi(x) exp(-i p x) dx splits
into one finite integral per side of the well, each elementary:

    J(kappa, L, p)  = integral_0^L sin(kappa u)  exp(-i p u) du
                    = [exp(-ipL)(-ip sin(kL) - k cos(kL)) + k] / (k^2 - p^2)
    Jh(kappa, L, p) = integral_0^L sinh(kappa u) exp(-i p u) du
                    = [exp(-ipL)(ip sinh(kL) + k cosh(kL)) - k] / (k^2 + p^2)

J has removable singularities at p = +-kappa; inside a small guard radius it
is evaluated by a second-order expansion about the singular point.  Jh has no
real poles.  Compact support makes the closed form exact, so no FFT is used.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .potential import WellSpec, _finite
from .spectrum import EigenState

__all__ = ["MomentumDensity", "phi", "density_series", "peak_separation"]

_GUARD = 1e-6  # |p -+ kappa| below this switches J to its series form


@dataclass(frozen=True, eq=False)
class MomentumDensity:
    """Sampled |phi(p)|^2 on a symmetric momentum grid with reference markers.

    ``k_marker`` is the left-side wavenumber (= momentum, hbar = 1);
    ``q_marker`` is the right-side wavenumber for states above the step and
    None for evanescent states.
    """

    state_n: int
    p_grid: np.ndarray
    density: np.ndarray
    k_marker: float
    q_marker: float | None


def _j_osc(kappa: float, length: float, p: np.ndarray) -> np.ndarray:
    out = np.empty(p.shape, dtype=complex)
    near_pos = np.abs(p - kappa) < _GUARD
    near_neg = np.abs(p + kappa) < _GUARD
    far = ~(near_pos | near_neg)
    pf = p[far]
    num = (
        np.exp(-1j * pf * length)
        * (-1j * pf * math.sin(kappa * length) - kappa * math.cos(kappa * length))
        + kappa
    )
    out[far] = num / ((kappa - pf) * (kappa + pf))
    out[near_pos] = _j_osc_series(kappa, length, p[near_pos] - kappa)
    # J(kappa, L, -p) is the conjugate of J(kappa, L, p) for real p
    out[near_neg] = np.conj(_j_osc_series(kappa, length, -p[near_neg] - kappa))
    return out


def _j_osc_series(kappa: float, length: float, eps: np.ndarray) -> np.ndarray:
    """J expanded to second order in eps = p - kappa about the removable pole."""
    s = math.sin(kappa * length)
    c = math.cos(kappa * length)
    e_m = complex(c, -s)  # exp(-i kappa L)
    kl = kappa * length
    d1 = e_m * complex(-kl * s, kl * c - s)
    d2 = e_m * complex(kl * length * c - 2.0 * length * s, kl * length * s)
    d3 = e_m * complex(kl * length**2 * s, 3.0 * length**2 * s - kl * length**2 * c)
    return -(d1 + d2 * eps / 2.0 + d3 * eps * eps / 6.0) / (2.0 * kappa + eps)


def _j_evan(kappa: float, length: float, p: np.ndarray) -> np.ndarray:
    num = (
        np.exp(-1j * p * length)
        * (1j * p * math.sinh(kappa * length) + kappa * math.cosh(kappa * length))
        - kappa
    )
    return num / (kappa * kappa + p * p)


def phi(state: EigenState, p):
    """Momentum-space amplitude phi(p); scalar or array p, complex result.

    Left side contributes A exp(ipa) J(k, a, p); the right side contributes
    -B exp(-ipb) J(q, b, -p) (or the sinh analogue below the step), both from
    substituting the distance to the adjacent wall as integration variable.
    """
    spec = state.spec
    ps = np.asarray(p, dtype=float)
    scalar = ps.ndim == 0
    ps = np.atleast_1d(ps)
    if np.count_nonzero(bad := ~np.isfinite(ps)):
        raise ValueError(f"momentum must be finite, got {float(ps[bad][0])}")
    left = state.amp_left * np.exp(1j * ps * spec.a) * _j_osc(state.k, spec.a, ps)
    j_right = (_j_evan if state.below_threshold else _j_osc)(state.q_or_qbar, spec.b, -ps)
    right = -state.amp_right * np.exp(-1j * ps * spec.b) * j_right
    out = (left + right) / math.sqrt(2.0 * math.pi)
    return complex(out[0]) if scalar else out


def density_series(state: EigenState, p_max: float, n_points: int) -> MomentumDensity:
    """|phi(p)|^2 sampled on a symmetric grid over [-p_max, p_max]."""
    _finite(p_max, "p_max")
    if n_points < 3:
        raise ValueError(f"n_points must be at least 3, got {n_points}")
    grid = np.linspace(-p_max, p_max, n_points)
    dens = np.abs(phi(state, grid)) ** 2
    return MomentumDensity(
        state_n=state.n,
        p_grid=grid,
        density=dens,
        k_marker=state.k,
        q_marker=None if state.below_threshold else state.q_or_qbar,
    )


def peak_separation(spec: WellSpec, energy: float) -> float:
    """Exact spacing k - q of the two momentum features above the step.

    Equals sqrt(E) - sqrt(E - v0), which falls off as v0 / (2 sqrt(E)) at high
    energy, so the two features merge as the energy grows.
    """
    if not _finite(energy, "energy") > spec.v0:
        raise ValueError(f"peak separation is defined only above the step: "
                         f"E={energy}, v0={spec.v0}")
    return math.sqrt(energy) - math.sqrt(energy - spec.v0)
