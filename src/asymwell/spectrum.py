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
_SEED_ITERS = 12             # Newton steps at most per seed
_SEED_STEP = 1e-9            # a Newton step this small, relative, leaves an error near its square
_CLOSED = 4.0 * np.finfo(float).eps   # a bracket this narrow, relative, ends Newton's steps


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

    The shared root policy's Sturm count takes the energies 128 eps E either
    side of each level's seed E, where Newton's method puts its Pruefer phase
    at n pi (``_seeds``), so one count call certifies every level within a
    few hundred ulp, and the policy goes straight to its replay.  The
    energies are the floats of the fixed-step scan and bisection of the
    characteristic; a seed that misses its level leaves it to the count's
    split and the polish.  ``ScanResolutionError`` is raised where no count
    probe or scan cell separates two levels.
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

    roots = bracket_and_bisect(lambda es: _characteristic_many(spec, es),
                               lambda es: _count_below(spec, es),
                               e_max, scan_step(spec.a, spec.b), _BISECT_TOL,
                               lambda: _seeds(spec, e_max))
    return _solve_state(spec, roots)


def _seeds(spec: WellSpec, e_max: float) -> np.ndarray:
    """E_n, where level n's Pruefer phase is n pi, for each level n = 1, 2, ...
    whose action bracket starts below e_max.  The phase lies within pi/2 of
    the classical action J = k a + q b (``_count_below``), so level n lies
    strictly between e[2n - 2] and e[2n] on the grid e of J^-1((i + 1) pi / 2),
    and J is n pi at e[2n - 1].  k = J^-1(c) is c / a up to c = a sqrt(v0), and
    above it the root of k a + sqrt(k^2 - v0) b = c, in a form free of
    cancellation.  Level n lies below the step where n pi is below the phase
    there, a sqrt(v0) + atan(b sqrt(v0)), and then also below e[2n - 1], as
    the right side's phase is positive.  Newton runs in k below the step,
    from mid-bracket, and in q above it, from e[2n - 1]."""
    a, b, v0 = spec.a, spec.b, spec.v0
    j_max = math.sqrt(e_max) * a + math.sqrt(max(e_max - v0, 0.0)) * b
    c = (np.arange(2 * math.ceil(j_max / math.pi - 0.5) + 1) + 1.0) * (0.5 * math.pi)
    k = c / a
    up = c > a * math.sqrt(v0)
    c = c[up]
    k[up] = (c * c + b * b * v0) / (a * c + b * np.sqrt(c * c + (b * b - a * a) * v0))
    e = k * k
    n = np.arange(1.0, e.size // 2 + 1.0)
    lo, mid, hi = e[:-1:2], e[1::2], e[2::2]
    nb = np.count_nonzero(n * math.pi < a * math.sqrt(v0) + math.atan(b * math.sqrt(v0)))
    seed = np.empty(n.size)
    with np.errstate(invalid="ignore"):   # 0/0 in a slope on the step, where Newton bisects
        if nb:
            k_lo, k_hi = np.sqrt(lo[:nb]), np.sqrt(np.minimum(mid[:nb], v0))
            k = _newton(lambda k: _phase_below(spec, k), 0.5 * (k_lo + k_hi), k_lo, k_hi,
                        n[:nb] * math.pi)
            seed[:nb] = k * k
        if nb < n.size:
            q_lo, q_hi = np.sqrt(np.maximum(lo[nb:] - v0, 0.0)), np.sqrt(hi[nb:] - v0)
            q = _newton(lambda q: _phase_above(spec, q), np.sqrt(np.maximum(mid[nb:] - v0, 0.0)),
                        q_lo, q_hi, n[nb:] * math.pi)
            seed[nb:] = v0 + q * q
    return seed


def _newton(phase, x: np.ndarray, lo: np.ndarray, hi: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Roots of phase(x) = target, increasing in x, inside [lo, hi],
    elementwise: each step moves the bracket's end on its side of the root,
    and bisects where Newton's estimate leaves the bracket (one on an end
    stays).  It stops once each level's Newton step is _SEED_STEP x or less
    and its estimate inside the bracket, or just outside a bracket closed to
    _CLOSED x, where the estimate may round; the brackets are tested only
    once every step is that small, which spares the test on most passes.
    From the sixth pass, a step not yet small and over half the one before
    bisects too, which breaks a cycle (rtsafe, Numerical Recipes 9.4)."""
    for i in range(_SEED_ITERS):
        f, df = phase(x)
        r = f - target
        lo = np.where(r < 0.0, x, lo)
        hi = np.where(r > 0.0, x, hi)
        step = r / df
        nxt = x - step
        inside = (lo <= nxt) & (nxt <= hi)
        if i >= 5:
            inside &= np.abs(step) <= np.maximum(0.5 * np.abs(prev), _SEED_STEP * x)
        prev = step
        # count_nonzero costs a third of all() on arrays this short
        x = nxt if np.count_nonzero(inside) == x.size else np.where(inside, nxt, 0.5 * (lo + hi))
        small = np.abs(step) <= _SEED_STEP * x
        done = inside & small
        if np.count_nonzero(done) == x.size or (
                np.count_nonzero(small) == x.size
                and np.count_nonzero(done | (hi - lo <= _CLOSED * x)) == x.size):
            break
    return x


def _phase_below(spec: WellSpec, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pruefer phase at b below the step, F = k a + atan(k b th), and dF/dk:
    psi = sin(k (x + a)) turns through k a on the left, and the right side
    through atan2(k tanh(qbar b), qbar) in the same scale, tan = k psi / psi'.
    th = tanh(x) / x at x = qbar b, and 1 on the step."""
    a, b = spec.a, spec.b
    kk = k * k
    w2 = spec.v0 - kk
    x = np.sqrt(w2) * b
    t = np.tanh(x)
    th = np.divide(t, x, out=np.ones_like(x), where=x > 0.0)
    u = (k * b) * th
    # du/dk = b (th + k^2 (th + t^2 - 1) / qbar^2), as dx/dk = -k b^2 / x
    du = b * (th + kk * (th + t * t - 1.0) / w2)
    return k * a + np.arctan(u), a + du / (1.0 + u * u)


def _phase_above(spec: WellSpec, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pruefer phase at b above the step, G = k a rescaled from k to q at
    x = 0 within its half-turn, plus q b, and dG/dq:
    G = J - atan2(eps sin 2ka, 1 + eps cos 2ka), eps = (k - q) / (k + q).
    It is smooth in q, where the phase kept in the scale k turns in steps as
    sharp as q / k wide at q b = m pi."""
    a, b, v0 = spec.a, spec.b, spec.v0
    k = np.sqrt(v0 + q * q)
    eps = v0 / ((k + q) * (k + q))
    s, c = np.sin(2.0 * a * k), np.cos(2.0 * a * k)
    aq = a * q
    df = aq / k + b + (2.0 * eps / k) * (s - aq * (c + eps)) / (1.0 + eps * (c + c + eps))
    return k * a + q * b - np.arctan2(eps * s, 1.0 + eps * c), df


def _count_below(spec: WellSpec, energies) -> tuple[np.ndarray, np.ndarray]:
    """Sturm count, the bound states below each energy, and the characteristic
    g(E) there, the policy's fn.  The Pruefer phase of psi = sin(k (x + a)) lies
    within pi/2 of the action J = k a + q b (q = 0 below the step), so the count
    is floor(max(J/pi - 1/2, 0)) or one more: even where g (of the sign of
    psi(b)) > 0, odd where g < 0, and the first, the levels strictly below E,
    where g = 0.  Floats, exact to 2**53."""
    e = np.atleast_1d(np.asarray(energies, dtype=float))
    j = np.sqrt(e) * spec.a + np.sqrt(np.maximum(e - spec.v0, 0.0)) * spec.b
    n = np.floor(np.maximum(j / math.pi - 0.5, 0.0))
    f = _characteristic_many(spec, e)
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
    lowest state that fails it.  Each side of a state lies within
    4 eps (1 + k a + qbar b) of the 40-digit state at its energy.
    """
    e = np.asarray(energies, dtype=float)
    if np.count_nonzero(e == spec.v0):
        raise ValueError("eigenvalue sits exactly at the branch point E = v0")
    below = e < spec.v0
    k = np.sqrt(e)
    w = np.sqrt(np.abs(e - spec.v0))
    wb = w * spec.b
    fr0, dfr = -np.sin(wb), w * np.cos(wb)  # right-side basis value and slope at x = 0
    fr0[below] = -np.sinh(wb[below])
    dfr[below] = w[below] * np.cosh(wb[below])
    sl, dl = np.sin(k * spec.a), k * np.cos(k * spec.a)

    # Continuity A*sl = B*fr0 gives (A, B) ~ (fr0, sl); the derivative match
    # A*dl = B*dfr gives (A, B) ~ (dfr, dl).  Near a node both entries of the
    # first vector vanish, so take whichever ray is better conditioned; the
    # wavenumber scale makes the two comparable.  The larger norm is at least
    # 1/sqrt(2): where k >= w the two hold |sin(ka)| and |cos(ka)|, and where
    # w > k (below the step) the second holds cosh(wb) >= 1.
    scale = np.maximum(k, w)
    ray = np.hypot(fr0, sl) >= np.hypot(dfr / scale, dl / scale)
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


def _sq_integral(kappa: np.ndarray, length: float, below=False) -> np.ndarray:
    """integral_0^L sin^2(kappa u) du, or sinh^2 where ``below``: (u - sin u)
    or (sinh u - u) over 4 kappa, u = 2 kappa L.  Below u = 0.8 their Taylor
    series to u^15, whose truncation there meets the cancellation above it:
    the integral lies within 1e-15 relative of a 50-digit value.  The series
    runs only on the elements below 0.8, and sinh only on those below the
    step above it; no element's arithmetic depends on the others."""
    u = 2.0 * kappa * length
    small = u < 0.8
    big = below & ~small
    out = u - np.sin(u)
    if np.count_nonzero(big):
        out[big] = np.sinh(u[big]) - u[big]
    if np.count_nonzero(small):
        us = u[small]
        u2 = us * us
        v = np.where((below & small)[small], u2, -u2)
        series = v / 217945728000.0      # sum_j 6 v^j / (2j + 3)!, in Horner's form
        for d in (1037836800.0, 6652800.0, 60480.0, 840.0, 20.0):
            series = (series + 1.0 / d) * v
        out[small] = us * u2 / 6.0 * (1.0 + series)
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
    of ``_sq_integral``, A**2 I_l and B**2 I_r."""
    return amp_left * amp_left * left, amp_right * amp_right * right


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
