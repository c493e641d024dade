"""Independent oracles the tests check the production code against.

Nothing here calls the solvers under test: the Hamiltonian is diagonalized as
a dense finite-difference matrix, classical probabilities come from a
time-stepped bounce simulation, and momentum amplitudes from adaptive
quadrature of the transform integral.  ``reference_roots`` is the fixed-step
scan and bisection whose floats the count-directed root policy reports, and
``reference_solution`` the one-state-at-a-time stitch whose values the batched
one reproduces.  ``render_csv`` and ``render_json`` are the table renderers
as they were before emission formatted each number once: every float goes
through ``.12g`` for CSV, and through a ``.12g`` round trip and the pure-Python
``json.dumps(indent=2)`` encoder for JSON.
"""
from __future__ import annotations

import json
import math

import numpy as np
from scipy.integrate import quad, simpson
from scipy.linalg import eigh_tridiagonal

from asymwell import ScanResolutionError, WellSpec, sample
from asymwell.shooting import _transfer_blocks
from asymwell.spectrum import EigenState, psi


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
    Sturm count ``count(E)`` (called with one energy) at e_max is repeated 10x
    finer, up to three times, and then raises ``ScanResolutionError``.
    """
    fewest, most = count(e_max * (1.0 - _EDGE)), count(e_max * (1.0 + _EDGE))
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


def reference_solution(xs: np.ndarray, v: np.ndarray, h: float, energy: float) -> np.ndarray:
    """Normalized Numerov state at one energy, stitched from two single-energy
    trajectory passes, a forward one from -a and a backward one from b."""
    split = int(np.searchsorted(xs, 0.0, side="right")) - 1
    values = _sweep_full(v, h, energy, split)
    norm = simpson(values**2, x=xs)
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
