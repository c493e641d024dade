"""Exact momentum-space densities of the closed-form eigenstates.

The transform phi(p) = (2 pi)^(-1/2) integral psi(x) exp(-i p x) dx splits
into one finite integral per side of the well, each elementary:

    J(kappa, L, p)  = integral_0^L sin(kappa u)  exp(-i p u) du
                    = [exp(-ipL)(-ip sin(kL) - k cos(kL)) + k] / (k^2 - p^2)
    Jh(kappa, L, p) = integral_0^L sinh(kappa u) exp(-i p u) du
                    = [exp(-ipL)(ip sinh(kL) + k cosh(kL)) - k] / (k^2 + p^2)

J has removable singularities at p = +-kappa.  Inside a small guard radius it
is J = [E(kappa - p) - E(-kappa - p)] / 2i, with
E(s) = integral_0^L exp(isu) du = L exp(isL/2) sinc(sL/2pi), which is exact
and finite at s = 0.  Jh has no real poles.  Compact support makes the closed
form exact, so no FFT is used.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .potential import WellSpec, _finite, _integer
from .spectrum import EigenState

__all__ = ["MomentumDensity", "phi", "density_series", "peak_separation"]

_GUARD = 1e-6  # |p -+ kappa| below this switches J to its pole-free form
_P_BOUND = 1e150  # keeps p^2 and p sinh(qbar b) finite: qbar b < 355 on every closed-form state


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


def _e(s: np.ndarray, length: float) -> np.ndarray:
    """E(s) = integral_0^L exp(i s u) du, finite at s = 0."""
    return length * np.exp(0.5j * s * length) * np.sinc(s * length / (2.0 * math.pi))


def _j_osc(kappa: float, length: float, p: np.ndarray) -> np.ndarray:
    out = np.empty(p.shape, dtype=complex)
    near = np.abs(np.abs(p) - kappa) < _GUARD
    pf, pn = p[~near], p[near]
    num = (
        np.exp(-1j * pf * length)
        * (-1j * pf * math.sin(kappa * length) - kappa * math.cos(kappa * length))
        + kappa
    )
    out[~near] = num / ((kappa - pf) * (kappa + pf))
    # sin(kappa u) = (exp(i kappa u) - exp(-i kappa u)) / 2i, exact at the poles
    out[near] = (_e(kappa - pn, length) - _e(-kappa - pn, length)) / 2j
    return out


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
    |p| past 1e150 is refused, as the transform's terms overflow there.
    """
    spec = state.spec
    ps = np.asarray(p, dtype=float)
    scalar = ps.ndim == 0
    ps = np.atleast_1d(ps)
    if np.count_nonzero(bad := ~np.isfinite(ps)):
        raise ValueError(f"momentum must be finite, got {float(ps[bad][0])}")
    if np.count_nonzero(big := np.abs(ps) > _P_BOUND):
        raise ValueError(f"momentum must be at most {_P_BOUND:g} in magnitude, "
                         f"got {float(ps[big][0])}")
    left = state.amp_left * np.exp(1j * ps * spec.a) * _j_osc(state.k, spec.a, ps)
    j_right = (_j_evan if state.below_threshold else _j_osc)(state.q_or_qbar, spec.b, -ps)
    right = -state.amp_right * np.exp(-1j * ps * spec.b) * j_right
    out = (left + right) / math.sqrt(2.0 * math.pi)
    return complex(out[0]) if scalar else out


def density_series(state: EigenState, p_max: float, n_points: int) -> MomentumDensity:
    """|phi(p)|^2 sampled on a symmetric grid over [-p_max, p_max]."""
    if _finite(p_max, "p_max") > _P_BOUND:
        raise ValueError(f"p_max must be at most {_P_BOUND:g}, got {p_max}")
    grid = np.linspace(-p_max, p_max, _integer(n_points, "n_points", 3))
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
