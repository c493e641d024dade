"""Closed-form bound states of the sharp-step well.

Eigenvalues solve the matching condition

    k cos(ka) sin(qb) + q cos(qb) sin(ka) = 0,   k = sqrt(E), q = sqrt(E - v0),

which below the step (E < v0, q = i qbar) continues to

    k cos(ka) sinh(qbar b) + qbar cosh(qbar b) sin(ka) = 0.

Dividing the q-sector by q merges both branches into one characteristic
function that is real-analytic in E across E = v0, so one root search
catches every root with no branch bookkeeping.

Below a tall step that function grows like cosh(qbar b), up to e^350 inside
the overflow guard, where the root policy's secant polish stalls.  The
policy therefore sees it divided by cosh(qbar b) below the step and by 1 at
and above it, the Pruefer-style rescaling: a positive finite divisor keeps
every sign and every zero, and the quotient is bounded by 1 + k b.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from . import bounds as _bounds
from ._rootscan import ScanResolutionError, bracket_and_bisect, scan_step, within_reach
from .potential import WellSpec, _finite, _in_well

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
_MATCH_THRESHOLD = 0.1       # a bound metric below this names the match class
_BRANCHES = ("oscillatory", "evanescent")  # a state's branch, by below_threshold


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
        return _BRANCHES[self.below_threshold]


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
    return float(_characteristic_many(spec, np.asarray([_finite(energy, "energy")]))[0])


def _characteristic_many(spec: WellSpec, energies: np.ndarray) -> np.ndarray:
    e = np.asarray(energies, dtype=float)
    k = np.sqrt(e)
    S, C = _right_sc(e - spec.v0, spec.b)
    return k * np.cos(k * spec.a) * S + C * np.sin(k * spec.a)


def _scaled_characteristic(spec: WellSpec, energies: np.ndarray) -> np.ndarray:
    """The root policy's fn: g(E) / cosh(qbar b) below the step, g(E) at and
    above it.  |fn| <= 1 + k b on both sides, as tanh(x)/x and |sin(x)/x|
    are at most 1."""
    qbar = np.sqrt(np.maximum(spec.v0 - energies, 0.0))   # 0 at and above the step
    return _characteristic_many(spec, energies) / np.cosh(qbar * spec.b)


def _right_sc(d: np.ndarray, b: float) -> tuple[np.ndarray, np.ndarray]:
    """S and C of the characteristic at E - v0 = d, with S = b, C = 1 at d = 0."""
    w = np.sqrt(np.abs(d))
    wb, up = w * b, d > 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # the unused side, and 0/0 at d = 0
        S = np.where(up, np.sin(wb), np.sinh(wb)) / w
        C = np.where(up, np.cos(wb), np.cosh(wb))
    S[d == 0.0], C[d == 0.0] = b, 1.0
    return S, C


def find_spectrum(spec: WellSpec, e_max: float) -> list[EigenState]:
    """Every bound state with 0 < E <= e_max, normalized, ordered by energy.

    The closed-form Sturm count gives every root of the characteristic a
    bracket of its own in one call, as its probes include the action
    half-grid, one energy between each pair of levels (``_action_probes``).
    The shared root policy polishes those brackets on the
    characteristic divided by cosh(qbar b) below the step.  That keeps every
    sign, so the energies are the floats of the fixed-step scan and bisection
    of the characteristic itself.  ``ScanResolutionError`` is raised where no
    count probe or scan cell separates two levels.
    """
    return _states(spec, _solve(spec, e_max))


def _solve(spec: WellSpec, e_max: float) -> tuple[np.ndarray, ...]:
    """``find_spectrum``'s states as the arrays of ``_solve_state``."""
    _require_step(spec)
    # normalizing a state below the step evaluates sinh(2 qbar b) in
    # _sq_integral, which overflows once qbar*b passes about 355; qbar
    # approaches sqrt(v0) for the lowest states
    if math.sqrt(spec.v0) * spec.b > 350.0:
        raise ValueError(
            f"step height v0={spec.v0} is too large for this geometry: normalizing "
            f"the evanescent side would overflow double precision "
            f"(need sqrt(v0)*b <= 350)"
        )

    step = scan_step(spec.a, spec.b)
    probes = _action_probes(spec, e_max) if within_reach(e_max, step) else ()
    roots = bracket_and_bisect(lambda es: _scaled_characteristic(spec, es),
                               lambda es: _count_below(spec, es),
                               e_max, step, _BISECT_TOL, probes)
    return _solve_state(spec, roots)


def _action_probes(spec: WellSpec, e_max: float) -> np.ndarray:
    """The energies below e_max where the classical action J = k a + q b is
    (n + 1/2) pi.  The Pruefer phase is m pi at level m, numbered from 1, and
    lies within pi/2 of J (``_count_below``), so level m lies strictly between
    J = (m - 1/2) pi and (m + 1/2) pi.  k = J^-1(c) is c / a up to
    c = a sqrt(v0), and above it the root of k a + sqrt(k^2 - v0) b = c, in a
    form free of cancellation."""
    a, b, v0 = spec.a, spec.b, spec.v0
    j_max = math.sqrt(e_max) * a + math.sqrt(max(e_max - v0, 0.0)) * b
    c = (np.arange(math.ceil(j_max / math.pi - 0.5)) + 0.5) * math.pi
    k = c / a
    up = c > a * math.sqrt(v0)
    c = c[up]
    k[up] = (c * c + b * b * v0) / (a * c + b * np.sqrt(c * c + (b * b - a * a) * v0))
    e = k * k
    return e[e < e_max]


def _count_below(spec: WellSpec, energies) -> tuple[np.ndarray, np.ndarray]:
    """Sturm count, the bound states below each energy, and the policy's fn there.
    The Pruefer phase of psi = sin(k (x + a)) lies within pi/2 of the action
    J = k a + q b (q = 0 below the step), so the count is floor(max(J/pi - 1/2, 0))
    or one more: even where fn (of the sign of psi(b) = g(E)) > 0, odd where fn < 0,
    and the first, the levels strictly below E, where fn = 0.  Floats, exact to 2**53."""
    e = np.atleast_1d(np.asarray(energies, dtype=float))
    j = np.sqrt(e) * spec.a + np.sqrt(np.maximum(e - spec.v0, 0.0)) * spec.b
    n = np.floor(np.maximum(j / math.pi - 0.5, 0.0))
    f = _scaled_characteristic(spec, e)
    n += (f != 0.0) & ((n % 2.0 == 1.0) != (f < 0.0))
    return n.reshape(np.shape(energies)), f.reshape(np.shape(energies))


def _require_step(spec: WellSpec) -> None:
    if spec.smoothing is not None:
        raise ValueError("closed-form solver is defined for the sharp step only; "
                         "use the shooting solver for smoothed wells")


def _solve_state(spec: WellSpec, energies) -> tuple[np.ndarray, ...]:
    """Matched, normalized states at roots of the characteristic, as arrays.

    Returns energy, k, q_or_qbar, below_threshold, amp_left and amp_right, the
    fields of ``EigenState`` in order, and the unnormalized left and right
    integrals of sin^2 (sinh^2) that normalized them.  The energies are
    positive and finite, as the root policy's are.  Each check names the
    lowest state that fails it.  hypot, and sinh and cosh below the step, are
    the math module's, element by element, as numpy rounds some of their
    values differently.
    """
    e = np.asarray(energies, dtype=float)
    if np.count_nonzero(e == spec.v0):
        raise ValueError("eigenvalue sits exactly at the branch point E = v0")
    below = e < spec.v0
    k = np.sqrt(e)
    w = np.sqrt(np.abs(e - spec.v0))
    wb = w * spec.b
    fr0, dfr = -np.sin(wb), w * np.cos(wb)  # right-side basis value and slope at x = 0
    fr0[below] = -_each(math.sinh, wb[below])
    dfr[below] = w[below] * _each(math.cosh, wb[below])
    sl, dl = np.sin(k * spec.a), k * np.cos(k * spec.a)

    # Continuity A*sl = B*fr0 gives (A, B) ~ (fr0, sl); the derivative match
    # A*dl = B*dfr gives (A, B) ~ (dfr, dl).  Near a node both entries of the
    # first vector vanish, so take whichever ray is better conditioned; the
    # wavenumber scale makes the two comparable.  The larger norm is at least
    # 1/sqrt(2): where k >= w the two hold |sin(ka)| and |cos(ka)|, and where
    # w > k (below the step) the second holds cosh(wb) >= 1.
    scale = np.maximum(k, w)
    ray = _each(math.hypot, fr0, sl) >= _each(math.hypot, dfr / scale, dl / scale)
    A, B = np.where(ray, fr0, dfr / scale), np.where(ray, sl, dl / scale)

    res = np.maximum(np.abs(A * sl - B * fr0) / np.maximum(np.abs(A), np.abs(B)),
                     np.abs(A * dl - B * dfr) / np.maximum(k * np.abs(A), w * np.abs(B)))
    if np.count_nonzero(bad := res > _RESIDUAL_TOL):
        i = int(bad.argmax())
        e_i, tol, ground = float(e[i]), _BISECT_TOL * max(1.0, e[i]), (math.pi / spec.width) ** 2
        raise ValueError(f"matching residual {res[i]:.3e} at E={e_i!r}: energy is not a root of "
                         f"the characteristic within the solve tolerance {tol:.3g} = "
                         f"{tol / e_i:.3g} E, at the ground scale (pi/(a+b))^2 = {ground:.3g}")

    left, right = _sq_integral(k, spec.a), _sq_integral(w, spec.b, below)
    scale = np.sqrt(A * A * left + B * B * right)
    scale = np.where(A < 0, -scale, scale)  # sign convention: amp_left > 0
    return e, k, w, below, A / scale, B / scale, left, right


def _states(spec: WellSpec, solved: tuple[np.ndarray, ...]) -> list[EigenState]:
    """The ``EigenState``s, numbered from 1, of ``_solve_state``'s arrays."""
    return [EigenState(n, *fields, spec) for n, fields in
            enumerate(zip(*(x.tolist() for x in solved[:6])), start=1)]


def normalize(state: EigenState) -> EigenState:
    """Recompute matched, unit-norm amplitudes for ``state.energy``.

    Idempotent; the incoming amplitudes are ignored.  Raises if the energy is
    not a root of the characteristic.
    """
    spec = replace(state.spec, smoothing=None)
    fresh, = _states(spec, _solve_state(spec, [_finite(state.energy, "energy")]))
    return replace(fresh, n=state.n)


def _each(fn, *arrays: np.ndarray) -> np.ndarray:
    """``fn`` of the math module over arrays, element by element."""
    return np.array(list(map(fn, *(x.tolist() for x in arrays))), dtype=float)


def _sq_integral(kappa: np.ndarray, length: float, below=False) -> np.ndarray:
    """integral_0^L sin^2(kappa u) du, or sinh^2 where ``below``; the series
    keeps small kappa*L free of cancellation."""
    u = 2.0 * kappa * length
    u2 = u * u
    v = np.where(below, u2, -u2)
    small = np.abs(u) < 1e-3
    out = np.where(small, u * u2 / 6.0 * (1.0 + v / 20.0 * (1.0 + v / 42.0)), u - np.sin(u))
    big = below & ~small
    out[big] = _each(math.sinh, u[big]) - u[big]
    return out / (4.0 * kappa)


def psi(state: EigenState, x):
    """Wavefunction value(s) at position(s) x inside [-a, b].

    Accepts a scalar or an array; the return type matches.  Positions outside
    the well are rejected.
    """
    spec = state.spec
    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs)
    _in_well(spec, xs, 1e-12 * spec.width)
    xs = np.clip(xs, -spec.a, spec.b)

    out = np.empty(xs.shape)
    left = xs <= 0
    out[left] = state.amp_left * np.sin(state.k * (xs[left] + spec.a))
    right = ~left
    arg = state.q_or_qbar * (xs[right] - spec.b)
    out[right] = state.amp_right * (np.sinh(arg) if state.below_threshold else np.sin(arg))
    out += 0.0  # +0.0 at the walls, where amp_right < 0 gives -0.0
    return float(out[0]) if scalar else out


def side_probabilities(state: EigenState) -> tuple[float, float]:
    """Closed-form probabilities of the left and right halves of the well."""
    spec = state.spec
    p_left, p_right = _probabilities(
        state.amp_left, state.amp_right, _sq_integral(np.array([state.k]), spec.a),
        _sq_integral(np.array([state.q_or_qbar]), spec.b, state.below_threshold))
    return float(p_left[0]), float(p_right[0])


def _probabilities(amp_left, amp_right, left, right) -> tuple[np.ndarray, np.ndarray]:
    """Left and right probabilities from the amplitudes and the side integrals
    of ``_sq_integral``; the squares are pow's, as numpy's x**2 rounds some
    values differently."""
    return np.float_power(amp_left, 2.0) * left, np.float_power(amp_right, 2.0) * right


def classify_matching(state: EigenState, threshold: float = _MATCH_THRESHOLD) -> MatchClass:
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
    (kind,), node, anti = _match_classes(np.array([p_left]), pair.lower, pair.upper, threshold)
    if kind is None:
        raise ValueError("degenerate bound interval")
    return MatchClass(kind=kind, node_metric=float(node[0]), antinode_metric=float(anti[0]))


def _match_classes(p_left: np.ndarray, lower, upper, threshold: float = _MATCH_THRESHOLD):
    """Kinds, node metrics and antinode metrics of left-side probabilities inside
    their [lower, upper] bound intervals; an interval narrower than 1e-12 (v0 ~ 0:
    the envelopes coincide) has nothing to saturate, kind None and nan metrics."""
    gap = np.where(upper - lower >= 1e-12, upper - lower, np.nan)
    node = np.clip((p_left - lower) / gap, 0.0, 1.0)
    anti = np.clip((upper - p_left) / gap, 0.0, 1.0)
    kinds = [*MatchKind, None]  # near node, near antinode, generic, degenerate
    which = np.where(anti < threshold, 1, np.where(node < threshold, 0, np.where(gap > 0, 2, 3)))
    return [kinds[i] for i in which.tolist()], node, anti
