"""Independent oracles the tests check the production code against.

Nothing here calls the solvers under test: the Hamiltonian is diagonalized as
a dense finite-difference matrix, classical probabilities come from a
time-stepped bounce simulation, and momentum amplitudes from adaptive
quadrature of the transform integral.  ``reference_roots`` is the fixed-step
scan and bisection whose floats the count-directed root policy reports, and
``reference_solution`` the one-state-at-a-time pass from b whose values the
batched one reproduces, and ``stitched_solution`` an independent two-sided
route to the same states.  ``longdouble_roots`` are the roots of the plain
per-cell Numerov recurrence for psi, run in ``np.longdouble``, on the float
samples the solver reads.  ``render_csv`` and ``render_json`` are the table renderers
as they were before emission formatted each number once: every float goes
through ``.12g`` for CSV, and through a ``.12g`` round trip and the pure-Python
``json.dumps(indent=2)`` encoder for JSON.  ``reference_characteristic``,
``reference_state`` and ``reference_compare_rows`` are the closed form one
state at a time, with the math module's functions, whose floats the array
passes reproduce, and ``pruefer_count`` the Sturm count from the Pruefer
phase.  ``enclosure_counts`` bounds the level count of any floor
by those of two piecewise-constant floors, solved with exact cell matrices.
"""
from __future__ import annotations

import json
import math

import numpy as np
from scipy.integrate import quad, simpson
from scipy.linalg import eigh_tridiagonal

from asymwell import ScanResolutionError, WellSpec, sample
from asymwell.bounds import BoundPair
from asymwell.classical import ClassicalModel
from asymwell.shooting import _transfer_blocks
from asymwell.spectrum import EigenState, MatchClass, MatchKind, psi


def fd_spectrum(spec: WellSpec, n_states: int, n_grid: int):
    """Lowest eigenpairs of the second-order finite-difference Hamiltonian.

    -psi'' + V psi = E psi with Dirichlet walls becomes a symmetric
    tridiagonal matrix over the interior nodes; eigenvectors are returned on
    the full grid (zeros at the walls) with unit Simpson norm.

    Returns:
        (energies, vectors, xs): energies shape (n_states,), vectors shape
        (n_states, n_grid + 1), xs the uniform grid.
    """
    xs = np.linspace(-spec.a, spec.b, n_grid + 1)
    h = spec.width / n_grid
    xs[np.abs(xs) < h * 1e-6] = 0.0
    v = sample(spec, xs)
    diag = 2.0 / h**2 + v[1:-1]
    off = np.full(n_grid - 2, -1.0 / h**2)
    energies, vecs = eigh_tridiagonal(diag, off, select="i",
                                      select_range=(0, n_states - 1))
    full = np.zeros((n_states, n_grid + 1))
    for i in range(n_states):
        full[i, 1:-1] = vecs[:, i]
        full[i] /= math.sqrt(simpson(full[i] ** 2, x=xs))
        if full[i, 1] < 0:
            full[i] = -full[i]
    return energies, full, xs


def fd_left_probability(xs: np.ndarray, vec: np.ndarray) -> float:
    """Simpson quadrature of vec^2 over [-a, 0] for a finite-difference vector."""
    iz = int(np.searchsorted(xs, 0.0, side="right")) - 1
    left = float(simpson(vec[: iz + 1] ** 2, x=xs[: iz + 1]))
    if xs[iz] != 0.0:
        ys = vec**2
        width = -xs[iz]
        frac = width / (xs[iz + 1] - xs[iz])
        left += 0.5 * (ys[iz] + ys[iz] + (ys[iz + 1] - ys[iz]) * frac) * width
    return left


def bounce_left_fraction(a: float, b: float, v0: float, energy: float,
                         n_steps: int = 400_000) -> float:
    """Fraction of one period a time-stepped classical particle spends at x < 0."""
    v_left = 2.0 * math.sqrt(energy)
    if energy < v0:
        return 1.0
    v_right = 2.0 * math.sqrt(energy - v0)
    period = 2.0 * a / v_left + 2.0 * b / v_right
    dt = period / n_steps
    x, v = -a, v_left
    t_left = 0.0
    for _ in range(n_steps):
        if x < 0:
            t_left += dt
        x += v * dt
        if x >= b:
            x = b - (x - b)
            v = -v_right
        elif x <= -a:
            x = -a - (x + a)
            v = v_left
        if v > 0:
            v = v_left if x < 0 else v_right
        else:
            v = -v_right if x > 0 else -v_left
    return t_left / period


def phi_by_quadrature(state: EigenState, p: float) -> complex:
    """Adaptive quadrature of (2 pi)^(-1/2) integral psi(x) exp(-i p x) dx."""
    spec = state.spec
    re, _ = quad(lambda x: psi(state, x) * math.cos(p * x), -spec.a, spec.b, limit=400)
    im, _ = quad(lambda x: -psi(state, x) * math.sin(p * x), -spec.a, spec.b, limit=400)
    return complex(re, im) / math.sqrt(2.0 * math.pi)


def flat_well_phi(n: int, a: float, p: float) -> complex:
    """Exact transform of the width-a hard-wall well state sqrt(2/a) sin(n pi (x+a)/a).

    Reference shape for the v0 -> infinity limit, where the step well confines
    its low states to the left pocket [-a, 0].
    """
    kappa = n * math.pi / a
    num = (
        complex(math.cos(p * a), -math.sin(p * a))
        * complex(-kappa * math.cos(kappa * a), -p * math.sin(kappa * a))
        + kappa
    )
    j = num / ((kappa - p) * (kappa + p))
    phase = complex(math.cos(p * a), math.sin(p * a))
    return math.sqrt(2.0 / a) * phase * j / math.sqrt(2.0 * math.pi)


_EPS = np.finfo(float).eps
_MAX_REFINES = 3
_EDGE = 1e-8


def reference_roots(fn, count, e_max: float, step: float, tol_rel: float) -> list[float]:
    """All roots of ``fn`` in (0, e_max] by the fixed-step scan and bisection.

    The scan's cells of width ``step`` are bisected until narrower than
    ``tol_rel * max(1, E)``; a scan whose number of roots disagrees with the
    Sturm count N(E) at e_max, the first of the root policy's ``count(E)``
    (called with one energy), is repeated 10x finer, up to three times, and
    then raises ``ScanResolutionError``.
    """
    fewest, most = count(e_max * (1.0 - _EDGE))[0], count(e_max * (1.0 + _EDGE))[0]
    for cell in (step / 10.0**r for r in range(_MAX_REFINES + 1)):
        roots = _scan_and_bisect(fn, e_max, cell, tol_rel)
        if fewest <= len(roots) <= most:
            return roots
    raise ScanResolutionError(f"the root scan found {len(roots)} roots in (0, {e_max:.9g}] "
                              f"but the Sturm count is {most}, even at scan step {cell:.3e}")


def _scan_and_bisect(fn, e_max: float, step: float, tol_rel: float) -> list[float]:
    """Odd-multiplicity roots seen by one scan with cells of width ``step``."""
    n_cells = int(math.ceil(e_max / step))
    grid = np.minimum(step * np.arange(1, n_cells + 1), e_max)
    grid = np.unique(grid)
    vals = fn(grid)

    exact: list[float] = [float(g) for g, v in zip(grid, vals) if v == 0.0]
    sign = np.sign(vals)
    nz = sign != 0
    # a sign change across a cell whose endpoints are both nonzero
    flips = nz[:-1] & nz[1:] & (sign[:-1] != sign[1:])
    lo = grid[:-1][flips].copy()
    hi = grid[1:][flips].copy()
    flo = vals[:-1][flips].copy()

    active = np.ones(lo.shape, dtype=bool)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        tol = np.maximum(tol_rel * np.maximum(1.0, mid), 8.0 * _EPS * np.maximum(1.0, mid))
        active &= (hi - lo) > tol
        if not active.any():
            break
        fm = np.empty_like(mid)
        fm[active] = fn(mid[active])
        hit = active & (fm == 0.0)
        lo[hit] = mid[hit]
        hi[hit] = mid[hit]
        active &= ~hit
        same = active & (np.sign(fm) == np.sign(flo))
        lo[same] = mid[same]
        flo[same] = fm[same]
        other = active & ~same
        hi[other] = mid[other]
    roots = [float(0.5 * (l + h)) for l, h in zip(lo, hi)] + exact
    return sorted(roots)


def reference_solution(grid, energy: float) -> np.ndarray:
    """Normalized Numerov state at one energy on a shooting grid (``_stable_grid``)
    from one single-energy trajectory pass from b: its sample at -a set to 0,
    then divided by the first interior sample, so it rises from -a."""
    values = _transfer_blocks(grid.v[::-1], grid.h, np.asarray([float(energy)]),
                              path=True)[::-1, 0]
    values[0] = 0.0
    values = values / values[1]
    return values / math.sqrt(simpson(values**2, x=grid.xs))


def stitched_solution(grid, energy: float) -> np.ndarray:
    """Normalized Numerov state at one energy on a shooting grid, stitched from two
    single-energy trajectory passes, a forward one from -a and a backward one from b."""
    split = int(np.searchsorted(grid.xs, 0.0, side="right")) - 1
    values = _sweep_full(grid.v, grid.h, energy, split)
    norm = simpson(values**2, x=grid.xs)
    values = values / math.sqrt(norm)
    if values[1] < 0:
        values = -values
    return values


def _sweep_full(v: np.ndarray, h: float, energy: float, split: int) -> np.ndarray:
    """Whole trajectory at one energy, stitched from both walls.

    ``split`` is the last grid index at or left of the step.  The forward
    solution from -a is kept up to its largest |psi| among the classically
    allowed samples in [0, split]; the backward solution from b, scaled to
    agree there, supplies the rest.
    """
    e = np.asarray([float(energy)])
    allowed = np.flatnonzero(v[: split + 1] <= energy)
    stop = max(int(allowed[-1]) if allowed.size else split, 2)
    fwd = _transfer_blocks(v[: stop + 1], h, e, path=True)[:, 0]
    match = int(np.argmax(np.abs(fwd)))
    bwd = _transfer_blocks(v[match:][::-1], h, e, path=True)[::-1, 0]
    return np.concatenate([fwd[:match], bwd * (fwd[match] / bwd[0])])


def longdouble_sweep(v: np.ndarray, h: float, energies) -> np.ndarray:
    """psi at the last sample of ``v`` from psi = 0 at its first by the plain per-cell
    recurrence (1 - t[i+1]) psi[i+1] = (2 + 10 t[i]) psi[i] - (1 - t[i-1]) psi[i-1],
    t = h^2 (V - E) / 12, in ``np.longdouble``, vectorized over the energies; no rescale."""
    ld = np.longdouble
    v, h, e = np.asarray(v, dtype=ld), ld(h), np.asarray(energies, dtype=ld)
    c = h * h / 12
    t_prev, t = c * (v[0] - e), c * (v[1] - e)
    prev, cur = np.zeros(e.shape, dtype=ld), h * (1 + h * h * (v[0] - e) / 6)
    for vi in v[2:]:
        t_next = c * (vi - e)
        prev, cur = cur, ((2 + 10 * t) * cur - (1 - t_prev) * prev) / (1 - t_next)
        t_prev, t = t, t_next
    return cur


def longdouble_roots(v: np.ndarray, h: float, lo, hi, points: int = 65) -> np.ndarray:
    """The root of ``longdouble_sweep`` in each bracket [lo, hi], across which it
    changes sign: each round samples ``points`` energies over every bracket and keeps
    the first cell that changes sign, until the brackets are below 1e-17 relative."""
    lo, hi = np.asarray(lo, dtype=np.longdouble), np.asarray(hi, dtype=np.longdouble)
    frac = np.arange(points, dtype=np.longdouble) / (points - 1)
    rows = np.arange(lo.size)
    while np.any(hi - lo > 1e-17 * np.abs(hi)):
        grid = lo[:, None] + (hi - lo)[:, None] * frac
        signs = np.signbit(longdouble_sweep(v, h, grid.ravel()).reshape(grid.shape))
        flips = signs[:, 1:] != signs[:, :-1]
        if not flips.any(axis=1).all():
            raise ValueError("a bracket holds no sign change")
        first = np.argmax(flips, axis=1)
        lo, hi = grid[rows, first], grid[rows, first + 1]
    return (lo + hi) / 2


def _round12(x: float) -> float:
    return float(f"{x:.12g}")


def _fmt(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def render_csv(table) -> str:
    lines = [f"# asymwell {table.command}"]
    for key, value in table.config_items:
        lines.append(f"# {key} = {_fmt(value)}")
    for key in sorted(table.markers):
        lines.append(f"# marker {key} = {_fmt(table.markers[key])}")
    lines.append(",".join(table.columns))
    for row in table.rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def render_json(table) -> str:
    def scrub(v):
        return _round12(v) if isinstance(v, float) else v

    doc = {
        "command": table.command,
        "config": {k: scrub(v) for k, v in table.config_items},
        "columns": table.columns,
        "rows": [[scrub(v) for v in row] for row in table.rows],
    }
    if table.markers:
        doc["markers"] = {k: scrub(v) for k, v in table.markers.items()}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------- per-state closed form
# The closed form as it was before the state solve and the compare table
# became array passes: one state at a time, with the math module's functions.

_RESIDUAL_TOL = 1e-6
_MARGIN = 1e-12


def reference_characteristic(spec: WellSpec, energies: np.ndarray) -> np.ndarray:
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


def pruefer_count(spec: WellSpec, energies) -> np.ndarray:
    """Levels of the sharp step below each energy, the zeros of psi = sin(k (x + a)),
    from its Pruefer phase: floor(ka / pi) on the left; above the step the phase,
    rescaled from k to q at x = 0 within its half-turn, then advances by q b; below
    it one more zero if psi(0) and psi(b) = g(E) differ in sign."""
    e = np.atleast_1d(np.asarray(energies, dtype=float))
    k = np.sqrt(e)
    n, r = np.divmod(k * spec.a, math.pi)
    up = e > spec.v0
    q = np.sqrt(e[up] - spec.v0)
    n[up] += (np.arctan2(q * np.sin(r[up]), k[up] * np.cos(r[up])) + q * spec.b) // math.pi
    dn = ~up
    n[dn] += np.where(n[dn] % 2.0 == 0.0, 1.0, -1.0) * reference_characteristic(spec, e[dn]) < 0.0
    return n


def _right_basis(spec: WellSpec, energy: float) -> tuple[float, bool, float, float]:
    """Wavenumber, branch tag, and right-side basis value/derivative at x = 0."""
    if energy < spec.v0:
        w = math.sqrt(spec.v0 - energy)
        return w, True, -math.sinh(w * spec.b), w * math.cosh(w * spec.b)
    w = math.sqrt(energy - spec.v0)
    if w == 0.0:
        raise ValueError("eigenvalue sits exactly at the branch point E = v0")
    return w, False, -math.sin(w * spec.b), w * math.cos(w * spec.b)


def reference_state(spec: WellSpec, energy: float, n: int) -> EigenState:
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
                      amp_left=A, amp_right=B, spec=spec)


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


def reference_side_probabilities(state: EigenState) -> tuple[float, float]:
    """Closed-form probabilities of the left and right halves of the well."""
    spec = state.spec
    il = _sin_sq_integral(state.k, spec.a)
    if state.below_threshold:
        ir = _sinh_sq_integral(state.q_or_qbar, spec.b)
    else:
        ir = _sin_sq_integral(state.q_or_qbar, spec.b)
    return state.amp_left**2 * il, state.amp_right**2 * ir


def _classify_matching(state: EigenState, threshold: float = 0.1) -> MatchClass:
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
    pair = _bounds_at(state.spec, state.energy)
    p_left, _ = reference_side_probabilities(state)
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


def _classical_model(spec: WellSpec, energy: float) -> ClassicalModel:
    """Classical model at the given energy; E = v0 exactly is rejected.

    Below the step the particle is confined to the left pocket (density 1/a);
    above it the per-side densities weight each side by the traversal time
    2 * side / speed.  At E = v0 the right-side traversal time diverges and the
    left probability jumps from 1 to 0+, so no value is assigned there.
    """
    if spec.smoothing is not None:
        raise ValueError("classical comparison model is defined for the sharp step only")
    if not energy > 0:
        raise ValueError(f"energy must be positive, got {energy}")
    if energy == spec.v0:
        raise ValueError("classical model is singular exactly at E = v0")
    a, b = spec.a, spec.b
    if energy < spec.v0:
        v_left = 2.0 * math.sqrt(energy)
        return ClassicalModel(energy=energy, spec=spec,
                              density_left=1.0 / a, density_right=0.0,
                              p_left=1.0, p_right=0.0,
                              t_left=2.0 * a / v_left, t_right=0.0)
    v_left = 2.0 * math.sqrt(energy)
    v_right = 2.0 * math.sqrt(energy - spec.v0)
    t_left = 2.0 * a / v_left
    t_right = 2.0 * b / v_right
    period = t_left + t_right
    denom = a * math.sqrt(energy - spec.v0) + b * math.sqrt(energy)
    return ClassicalModel(energy=energy, spec=spec,
                          density_left=math.sqrt(energy - spec.v0) / denom,
                          density_right=math.sqrt(energy) / denom,
                          p_left=t_left / period, p_right=t_right / period,
                          t_left=t_left, t_right=t_right)


def _bounds_at(spec: WellSpec, energy: float) -> BoundPair:
    """Antinode (upper) and node (lower) probability envelopes at one energy.

    Defined only strictly above the step; the upper envelope a/(a+b) is
    energy-independent and the lower one rises to meet it as E -> infinity.
    """
    if not energy > 0:
        raise ValueError(f"energy must be positive, got {energy}")
    if not energy > spec.v0 * (1.0 + _MARGIN):
        raise ValueError(f"bounds are defined only above the step: E={energy}, v0={spec.v0}")
    upper = spec.a / (spec.a + spec.b)
    lower = spec.a / (spec.a + spec.b * energy / (energy - spec.v0))
    return BoundPair(lower=lower, upper=upper, energy=energy, spec=spec)


def _bounds_or_none(spec: WellSpec, energy: float):
    if energy > spec.v0 * (1.0 + _MARGIN):
        return _bounds_at(spec, energy)
    return None


def reference_compare_rows(spec: WellSpec, states: list) -> list[list]:
    """Rows of the compare table, state by state."""
    rows = []
    for st in states:
        p_left, p_right = reference_side_probabilities(st)
        if abs(p_left + p_right - 1.0) > 1e-9:
            raise RuntimeError(f"side probabilities of state {st.n} do not sum to 1")
        model = _classical_model(spec, st.energy)
        pair = _bounds_or_none(spec, st.energy)
        if pair is None:
            rows.append([st.n, st.energy, p_left, model.p_left, None, None, None])
        else:
            if not pair.lower - 1e-12 <= model.p_left <= pair.upper + 1e-12:
                raise RuntimeError(f"classical probability escapes the bound envelope "
                                   f"at E={st.energy}")
            if pair.upper - pair.lower < 1e-12:
                kind = None  # v0 ~ 0: the envelopes coincide, nothing to saturate
            else:
                kind = _classify_matching(st).kind.value
            rows.append([st.n, st.energy, p_left, model.p_left,
                         pair.lower, pair.upper, kind])
    return rows


def enclosure_counts(spec: WellSpec, n_grid: int, energies) -> tuple[np.ndarray, np.ndarray]:
    """Level counts below each energy of the two piecewise-constant floors that
    enclose the well's floor on the solver's node grid, as (n_hi, n_lo).

    Every floor is nondecreasing, so on each cell it lies between its values at
    the cell's ends (for the sharp step, the one-sided limits 0 and v0, so a
    node at x = 0 gives zero width).  The floor raised to each cell's right-end
    value has no more levels below E, and the floor lowered to its left-end
    value no fewer (min-max), so the true count lies in [n_hi, n_lo].  Each
    cell's transfer matrix is exact, and a count is the number of sign changes
    of psi over the nodes after -a, psi(b) included: a cell holds at most one
    zero while kappa h < pi, which is asserted.
    """
    xs = np.linspace(-spec.a, spec.b, n_grid + 1)
    xs[np.abs(xs) < spec.width / n_grid * 1e-6] = 0.0
    if spec.smoothing is None:  # the limit from inside the cell at each end
        floors = np.stack([np.where(xs[1:] > 0.0, spec.v0, 0.0),
                           np.where(xs[:-1] < 0.0, 0.0, spec.v0)], axis=1)
    else:
        v = sample(spec, xs)
        floors = np.stack([v[1:], v[:-1]], axis=1)
    e = np.asarray(energies, dtype=float)
    y, dy = np.zeros((2, e.size)), np.ones((2, e.size))  # psi and psi' from -a
    counts = np.zeros((2, e.size), dtype=int)
    for h, floor in zip(np.diff(xs).tolist(), floors):
        d = e - floor[:, None]
        up = d > 0.0
        kappa = np.sqrt(np.abs(d))
        t = kappa * h
        assert np.all(t[up] < math.pi), "a cell may hold two zeros: kappa h >= pi"
        c = np.where(up, np.cos(t), np.cosh(t))
        sk = np.divide(np.where(up, np.sin(t), np.sinh(t)), kappa,
                       out=np.full(t.shape, h), where=kappa > 0.0)
        ks = np.where(up, -kappa * np.sin(t), kappa * np.sinh(t))
        y, dy, before = c * y + sk * dy, ks * y + c * dy, y
        counts += (y < 0.0) != (before < 0.0)
        scale = np.maximum(np.abs(y), np.abs(dy))  # a positive factor keeps every sign
        y, dy = y / scale, dy / scale
    return counts[0], counts[1]
