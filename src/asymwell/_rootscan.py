"""Sign-change bracketing and vectorized bisection shared by both eigensolvers."""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

_EPS = np.finfo(float).eps
_MAX_REFINES = 3
_EDGE = 1e-8                 # relative; count and fn round apart by up to ~5e-11


class ScanResolutionError(RuntimeError):
    """The root scan and the Sturm count disagree even on the finest scan grid."""


def scan_step(a: float, b: float) -> float:
    """Default energy scan resolution.

    Half the ground-state energy of the enclosing flat well of width (a + b),
    capped at 0.1 for narrow wells.  Roots closer than one cell are caught by
    the Sturm count in ``bracket_and_bisect``.
    """
    return min(0.1, math.pi**2 / (2.0 * (a + b) ** 2))


def bracket_and_bisect(
    fn: Callable[[np.ndarray], np.ndarray],
    count: Callable[[float], int],
    e_max: float,
    step: float,
    tol_rel: float,
) -> list[float]:
    """All roots of ``fn`` in (0, e_max], in increasing order.

    ``fn`` must accept a 1-D energy array and return function values of the
    same shape; ``count(E)`` is the exact (Sturm) number of its roots below E.
    Cells of width ``step`` are scanned for sign changes and each bracket is
    bisected until it is narrower than ``tol_rel * max(1, E)`` (floored at a
    few ulp); roots landing exactly on a grid point are returned as-is.  A scan
    whose number of roots disagrees with the count at e_max is repeated 10x
    finer; a root within a relative ``_EDGE`` of e_max may count on either side.
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


def count_sign_changes(values: np.ndarray) -> int:
    """Sign alternations of the nonzero entries (tangential zeros ignored)."""
    nz = values[values != 0.0]
    if nz.size < 2:
        return 0
    s = np.sign(nz)
    return int(np.sum(s[1:] != s[:-1]))
