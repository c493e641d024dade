"""Closed-form bound states of the sharp-step well.

Eigenvalues solve the matching condition

    k cos(ka) sin(qb) + q cos(qb) sin(ka) = 0,   k = sqrt(E), q = sqrt(E - v0),

which below the step (E < v0, q = i qbar) continues to

    k cos(ka) sinh(qbar b) + qbar cosh(qbar b) sin(ka) = 0.

Dividing the q-sector by q merges both branches into one characteristic
function that is real-analytic in E across E = v0, so one root search
catches every root with no branch bookkeeping.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from . import bounds as _bounds
from ._rootscan import ScanResolutionError, bracket_and_bisect, scan_step
from .potential import WellSpec

__all__ = [
    "EigenState",
    "MatchKind",
    "MatchClass",
    "ScanResolutionError",
    "characteristic",
    "find_spectrum",
    "normalize",
    "psi",
    "side_probabilities",
    "classify_matching",
]

_BISECT_TOL = 1e-13          # relative; well inside the 1e-10 contract
_RESIDUAL_TOL = 1e-6         # matching-residual gate for spurious roots


@dataclass(frozen=True)
class EigenState:
    """One normalized bound state of the sharp-step well.

    The wavefunction is ``amp_left * sin(k (x + a))`` on the left and, on the
    right, ``amp_right * sin(q (x - b))`` above the step or
    ``amp_right * sinh(qbar (x - b))`` below it.  ``q_or_qbar`` holds q or qbar
    according to ``below_threshold``.  Sign convention: amp_left > 0.
    """

    n: int
    energy: float
    k: float
    q_or_qbar: float
    below_threshold: bool
    amp_left: float
    amp_right: float
    spec: WellSpec

    @property
    def branch(self) -> str:
        return "evanescent" if self.below_threshold else "oscillatory"


class MatchKind(enum.Enum):
    NEAR_NODE = "near_node"
    NEAR_ANTINODE = "near_antinode"
    GENERIC = "generic"


@dataclass(frozen=True)
class MatchClass:
    """How close the step-boundary matching is to saturating a side-probability bound.

    ``node_metric`` is the position of the left-side probability inside the
    [lower, upper] bound interval, clamped to [0, 1]: 0 at the node-matching
    (lower) edge.  ``antinode_metric`` is the complementary distance from the
    antinode-matching (upper) edge.  The two sum to 1 before clamping, so both
    can never fall below a threshold < 0.5 at once.
    """

    kind: MatchKind
    node_metric: float
    antinode_metric: float


def characteristic(spec: WellSpec, energy: float) -> float:
    """Regularized eigenvalue function g(E); its zeros are the bound states.

    g(E) = k cos(ka) S(E) + C(E) sin(ka) with S = sin(qb)/q, C = cos(qb) above
    the step, S = sinh(qbar b)/qbar, C = cosh(qbar b) below it, and S(v0) = b,
    C(v0) = 1 at the branch point.
    """
    _require_step(spec)
    if not energy > 0:
        raise ValueError(f"energy must be positive, got {energy}")
    return float(_characteristic_many(spec, np.asarray([energy]))[0])


def _characteristic_many(spec: WellSpec, energies: np.ndarray) -> np.ndarray:
    e = np.asarray(energies, dtype=float)
    b = spec.b
    k = np.sqrt(e)
    S = np.full(e.shape, b, dtype=float)
    C = np.ones(e.shape)
    up = e > spec.v0
    dn = e < spec.v0
    if up.any():
        q = np.sqrt(e[up] - spec.v0)
        S[up] = np.sin(q * b) / q
        C[up] = np.cos(q * b)
    if dn.any():
        w = np.sqrt(spec.v0 - e[dn])
        S[dn] = np.sinh(w * b) / w
        C[dn] = np.cosh(w * b)
    return k * np.cos(k * spec.a) * S + C * np.sin(k * spec.a)


def find_spectrum(spec: WellSpec, e_max: float) -> list[EigenState]:
    """Every bound state with 0 < E <= e_max, normalized, ordered by energy.

    The closed-form Sturm count gives every root of the characteristic a
    bracket of its own, which the shared root policy polishes; the energies
    are the floats of the fixed-step scan and bisection.  ``ScanResolutionError``
    is raised where the count places a level but the characteristic keeps its
    sign.
    """
    _require_step(spec)
    if not e_max > 0:
        raise ValueError(f"e_max must be positive, got {e_max}")
    # normalizing a state below the step evaluates sinh(2 qbar b) in
    # _sinh_sq_integral, which overflows once qbar*b passes about 355; qbar
    # approaches sqrt(v0) for the lowest states
    if math.sqrt(spec.v0) * spec.b > 350.0:
        raise ValueError(
            f"step height v0={spec.v0} is too large for this geometry: normalizing "
            f"the evanescent side would overflow double precision "
            f"(need sqrt(v0)*b <= 350)"
        )

    roots = bracket_and_bisect(lambda es: _characteristic_many(spec, es),
                               lambda es: _count_below(spec, es),
                               e_max, scan_step(spec.a, spec.b), _BISECT_TOL)
    return [_solve_state(spec, e, n) for n, e in enumerate(roots, start=1)]


def _count_below(spec: WellSpec, energies) -> np.ndarray:
    """Sturm count: bound states below each energy, the zeros of psi = sin(k (x + a)).

    floor(ka / pi) on the left; above the step the Pruefer phase, rescaled from
    k to q at x = 0 within its half-turn, then advances by q b; below it one
    more zero if psi(0) and psi(b) = g(E) differ in sign."""
    e = np.atleast_1d(np.asarray(energies, dtype=float))
    k = np.sqrt(e)
    n, r = np.divmod(k * spec.a, math.pi)
    up = e > spec.v0
    q = np.sqrt(e[up] - spec.v0)
    n[up] += (np.arctan2(q * np.sin(r[up]), k[up] * np.cos(r[up])) + q * spec.b) // math.pi
    dn = ~up
    n[dn] += np.where(n[dn] % 2.0 == 0.0, 1.0, -1.0) * _characteristic_many(spec, e[dn]) < 0.0
    return n.astype(int).reshape(np.shape(energies))


def _require_step(spec: WellSpec) -> None:
    if spec.smoothing is not None:
        raise ValueError("closed-form solver is defined for the sharp step only; "
                         "use the shooting solver for smoothed wells")


def _right_basis(spec: WellSpec, energy: float) -> tuple[float, bool, float, float]:
    """Wavenumber, branch tag, and right-side basis value/derivative at x = 0."""
    if energy < spec.v0:
        w = math.sqrt(spec.v0 - energy)
        return w, True, -math.sinh(w * spec.b), w * math.cosh(w * spec.b)
    w = math.sqrt(energy - spec.v0)
    if w == 0.0:
        raise ValueError("eigenvalue sits exactly at the branch point E = v0")
    return w, False, -math.sin(w * spec.b), w * math.cos(w * spec.b)


def _solve_state(spec: WellSpec, energy: float, n: int) -> EigenState:
    """Matched, normalized amplitudes for a root of the characteristic."""
    if not energy > 0:
        raise ValueError(f"energy must be positive, got {energy}")
    k = math.sqrt(energy)
    w, below, fr0, dfr = _right_basis(spec, energy)
    sl = math.sin(k * spec.a)
    dl = k * math.cos(k * spec.a)

    # Continuity A*sl = B*fr0 gives (A, B) ~ (fr0, sl); the derivative match
    # A*dl = B*dfr gives (A, B) ~ (dfr, dl).  Near a node both entries of the
    # first vector vanish, so take whichever ray is better conditioned; the
    # wavenumber scale makes the two comparable.
    scale = max(k, w)
    norm_c = math.hypot(fr0, sl)
    norm_d = math.hypot(dfr / scale, dl / scale)
    if norm_c < 1e-9 and norm_d < 1e-9:
        raise ValueError(f"degenerate matching at E={energy!r}: spurious root")
    A, B = (fr0, sl) if norm_c >= norm_d else (dfr / scale, dl / scale)

    res_psi = abs(A * sl - B * fr0) / max(abs(A), abs(B))
    res_dpsi = abs(A * dl - B * dfr) / max(k * abs(A), w * abs(B))
    if max(res_psi, res_dpsi) > _RESIDUAL_TOL:
        raise ValueError(
            f"matching residual {max(res_psi, res_dpsi):.3e} at E={energy!r}: "
            "energy is not a root of the characteristic"
        )

    il = _sin_sq_integral(k, spec.a)
    ir = _sinh_sq_integral(w, spec.b) if below else _sin_sq_integral(w, spec.b)
    scale = math.sqrt(A * A * il + B * B * ir)
    A, B = A / scale, B / scale
    if A < 0:
        A, B = -A, -B
    return EigenState(n=n, energy=energy, k=k, q_or_qbar=w, below_threshold=below,
                      amp_left=A, amp_right=B, spec=replace(spec, smoothing=None))


def normalize(state: EigenState) -> EigenState:
    """Recompute matched, unit-norm amplitudes for ``state.energy``.

    Idempotent; the incoming amplitudes are ignored.  Raises if the energy is
    not a root of the characteristic or if the matching is degenerate.
    """
    return _solve_state(state.spec, state.energy, state.n)


def _sin_sq_integral(kappa: float, length: float) -> float:
    """integral_0^L sin^2(kappa u) du, cancellation-free for small kappa*L."""
    return _x_minus_sin(2.0 * kappa * length) / (4.0 * kappa)


def _sinh_sq_integral(kappa: float, length: float) -> float:
    """integral_0^L sinh^2(kappa u) du, cancellation-free for small kappa*L."""
    return _sinh_minus_x(2.0 * kappa * length) / (4.0 * kappa)


def _x_minus_sin(u: float) -> float:
    if abs(u) < 1e-3:
        u2 = u * u
        return u * u2 / 6.0 * (1.0 - u2 / 20.0 * (1.0 - u2 / 42.0))
    return u - math.sin(u)


def _sinh_minus_x(u: float) -> float:
    if abs(u) < 1e-3:
        u2 = u * u
        return u * u2 / 6.0 * (1.0 + u2 / 20.0 * (1.0 + u2 / 42.0))
    return math.sinh(u) - u


def psi(state: EigenState, x):
    """Wavefunction value(s) at position(s) x inside [-a, b].

    Accepts a scalar or an array; the return type matches.  Positions outside
    the well are rejected.
    """
    spec = state.spec
    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs)
    slack = 1e-12 * spec.width
    if np.any(xs < -spec.a - slack) or np.any(xs > spec.b + slack):
        raise ValueError("position outside the well")
    xs = np.clip(xs, -spec.a, spec.b)

    out = np.empty(xs.shape)
    left = xs <= 0
    out[left] = state.amp_left * np.sin(state.k * (xs[left] + spec.a))
    right = ~left
    arg = state.q_or_qbar * (xs[right] - spec.b)
    out[right] = state.amp_right * (np.sinh(arg) if state.below_threshold else np.sin(arg))
    return float(out[0]) if scalar else out


def side_probabilities(state: EigenState) -> tuple[float, float]:
    """Closed-form probabilities of the left and right halves of the well."""
    spec = state.spec
    il = _sin_sq_integral(state.k, spec.a)
    if state.below_threshold:
        ir = _sinh_sq_integral(state.q_or_qbar, spec.b)
    else:
        ir = _sin_sq_integral(state.q_or_qbar, spec.b)
    return state.amp_left**2 * il, state.amp_right**2 * ir


def classify_matching(state: EigenState, threshold: float = 0.1) -> MatchClass:
    """Flag states whose boundary matching saturates a side-probability bound.

    Matching near an antinode pushes the left-side probability to the
    geometric ceiling a/(a+b); matching near a node pushes it to the
    node-matching floor.  The metrics locate the state's probability inside
    that interval, so a metric below ``threshold`` means the corresponding
    bound is nearly (or fully) saturated.  Only defined above the step.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    if state.below_threshold:
        raise ValueError("matching classification is meaningless for evanescent "
                         "(below-threshold) states")
    pair = _bounds.bounds_at(state.spec, state.energy)
    p_left, _ = side_probabilities(state)
    gap = pair.upper - pair.lower
    if gap <= 0:
        raise ValueError("degenerate bound interval")
    node_metric = min(1.0, max(0.0, (p_left - pair.lower) / gap))
    antinode_metric = min(1.0, max(0.0, (pair.upper - p_left) / gap))
    if antinode_metric < threshold:
        kind = MatchKind.NEAR_ANTINODE
    elif node_metric < threshold:
        kind = MatchKind.NEAR_NODE
    else:
        kind = MatchKind.GENERIC
    return MatchClass(kind=kind, node_metric=node_metric, antinode_metric=antinode_metric)
