"""Count-directed root finding shared by both eigensolvers.

Each solver supplies ``fn``, whose sign changes are its eigenvalues, and its
Sturm count N(E), the exact number of levels below E (P. B. Bailey,
W. N. Everitt and A. Zettl, SLEIGN2, ACM TOMS 27 (2001); J. D. Pryce,
*Numerical Solution of Sturm-Liouville Problems* (1993)).  One policy serves
both:

1. Count pass: N at ``_PROBES`` energies over (0, e_max]; a gap whose count
   jumps by more than one is split until every level has a bracket of its own.
2. Secant polish: Illinois regula falsi on ``fn``, vectorized over all
   brackets, one call per pass.  A bracket hands over once it is narrower
   than ``_HANDOVER`` bisection tolerances, where the last bisection steps
   cost fewer calls than more secant passes, or once it fails to halve in
   ``_STALL`` passes: near a root under a high step ``fn`` reaches a rounding
   floor, below which only its sign means anything.
3. Replay: the reported float is the one a fixed scan would give, with cells
   of ``step`` refined 10x until every root has a cell of its own, bisected to
   the tolerance.  Its midpoints outside the polished bracket take the sign of
   that bracket's end, so only the ones inside it are evaluated, in one call
   per round over all roots.

The replay reproduces the scan's floats only while ``fn`` returns the same
value for an energy whatever other energies share its call, which both
solvers' functions do (the Numerov sweep at full block length with no rescale).
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

_EPS = np.finfo(float).eps
_EDGE = 1e-8                 # relative; count and fn round apart by up to ~5e-11
_PROBES = 32                 # energies of the count pass, one Numerov count chunk
_FLOOR = 1e-9                # lowest probe over e_max: the closed form is 0 at E = 0
_HANDOVER = 64               # bracket width, in bisection tolerances, that ends the polish
_STALL = 6                   # secant passes a bracket may take to halve its width


class ScanResolutionError(RuntimeError):
    """The Sturm count and the sign changes of the scanned function disagree."""


def scan_step(a: float, b: float) -> float:
    """Scan cell of the fixed-step policy whose floats ``bracket_and_bisect`` reports.

    Half the ground-state energy of the enclosing flat well of width (a + b),
    capped at 0.1 for narrow wells.
    """
    return min(0.1, math.pi**2 / (2.0 * (a + b) ** 2))


def bracket_and_bisect(
    fn: Callable[[np.ndarray], np.ndarray],
    count: Callable[[np.ndarray], np.ndarray],
    e_max: float,
    step: float,
    tol_rel: float,
) -> list[float]:
    """All roots of ``fn`` in (0, e_max], in increasing order.

    ``fn`` and ``count`` take a 1-D energy array: ``fn`` returns its values,
    ``count`` the exact (Sturm) number of its roots below each energy.  Each
    root is the midpoint a bisection leaves once narrower than
    ``tol_rel * max(1, E)`` (floored at a few ulp), started from the cell of
    width ``step / 10**r`` that holds it, for the first r at which every root
    has a cell of its own; a root on a cell edge is returned as-is.  A level
    within a relative ``_EDGE`` of e_max counts on the side ``fn(e_max)`` puts
    it.  ``ScanResolutionError`` names the bracket where the count places a
    level but ``fn`` keeps its sign.
    """
    lo, hi, n_lo = _isolate(count, e_max)
    ends, where = np.unique(np.concatenate([lo, hi, [e_max]]), return_inverse=True)
    f_ends = fn(ends)
    flo, fhi, f_cut = f_ends[where[: lo.size]], f_ends[where[lo.size : -1]], f_ends[where[-1]]
    bad = np.flatnonzero(np.sign(flo) == np.sign(fhi))
    if bad.size:
        i = bad[0]
        raise ScanResolutionError(
            f"the Sturm count places level {n_lo[i] + 1} in [{lo[i]:.9g}, {hi[i]:.9g}], where "
            f"the scanned function does not change sign: N(lo) = {n_lo[i]}, "
            f"N(hi) = {n_lo[i] + 1}, sign fn(lo) = {np.sign(flo[i]):+g}, "
            f"sign fn(hi) = {np.sign(fhi[i]):+g}")
    # sign just left of each root; an end where fn is 0 takes the sign opposite
    # to the other end's, which holds whichever bracket the zero belongs to
    roots = _Brackets(lo, hi, flo, fhi, np.where(flo != 0.0, np.sign(flo), -np.sign(fhi)))
    cut = np.flatnonzero((lo < e_max) & (e_max < hi))
    roots.narrow(cut, np.full(cut.size, e_max), np.full(cut.size, f_cut))
    roots.keep(roots.hi <= e_max)
    if not roots.lo.size:
        return []
    roots.polish(fn, tol_rel)
    return roots.replay(fn, e_max, step, tol_rel)


def _isolate(count, e_max: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Brackets (lo, hi] holding one level each, for every level below
    e_max (1 + _EDGE), with N(lo) per bracket."""
    e = e_max * np.concatenate([[_FLOOR], np.arange(1, _PROBES - 2) / (_PROBES - 2),
                                [1.0 - _EDGE, 1.0 + _EDGE]])
    n = np.asarray(count(e))
    if n[0] != 0:
        raise ScanResolutionError(f"the Sturm count places {n[0]} level(s) in "
                                  f"[0, {e[0]:.9g}], below the lowest probe: N(hi) = {n[0]}")
    while True:
        jump = np.diff(n)
        if (jump < 0).any():
            i = int(np.flatnonzero(jump < 0)[0])
            raise ScanResolutionError(f"the Sturm count decreases across [{e[i]:.9g}, "
                                      f"{e[i + 1]:.9g}]: N(lo) = {n[i]}, N(hi) = {n[i + 1]}")
        wide = np.flatnonzero(jump > 1)
        if not wide.size:
            break
        # split a gap holding d levels at d evenly spaced energies
        d = jump[wide]
        k = np.arange(d.sum()) - np.repeat(np.cumsum(d) - d, d) + 1
        lo, width = np.repeat(e[wide], d), np.repeat(e[wide + 1] - e[wide], d)
        new = lo + width * (k / np.repeat(d + 1, d))
        stuck = ~((lo < new) & (new < lo + width))
        if stuck.any():
            i = wide[np.searchsorted(np.cumsum(d), np.flatnonzero(stuck)[0], side="right")]
            raise ScanResolutionError(f"the Sturm count cannot separate the levels in "
                                      f"[{e[i]:.9g}, {e[i + 1]:.9g}]: N(lo) = {n[i]}, "
                                      f"N(hi) = {n[i + 1]}")
        order = np.argsort(np.concatenate([e, new]), kind="stable")
        e = np.concatenate([e, new])[order]
        n = np.concatenate([n, count(new)])[order]
    one = np.flatnonzero(np.diff(n) == 1)
    return e[one], e[one + 1], n[one]


def _tol(e: np.ndarray, tol_rel: float) -> np.ndarray:
    """Bisection tolerance at ``e``: the fixed scan's max(tol_rel s, 8 eps s)
    with s = max(1, e), the same float since rounding is monotone."""
    return max(tol_rel, 8.0 * _EPS) * np.maximum(1.0, e)


class _Brackets:
    """One bracket [lo, hi] per root, with fn at its ends (NaN where not
    evaluated) and the sign ``s`` of fn just left of the root; a root on a
    scan point has lo == hi."""

    def __init__(self, lo, hi, flo, fhi, s):
        self.lo, self.hi, self.flo, self.fhi, self.s = lo, hi, flo, fhi, s

    def keep(self, mask: np.ndarray) -> None:
        for key in ("lo", "hi", "flo", "fhi", "s"):
            setattr(self, key, getattr(self, key)[mask])

    def narrow(self, i: np.ndarray, x: np.ndarray, fx: np.ndarray,
               spread: np.ndarray | None = None) -> np.ndarray:
        """Move an end of brackets ``i`` to ``x`` by the sign of ``fx``; returns
        the mask of those that moved ``lo``.

        A zero of fn on a scan point ends its bracket there.  Elsewhere fn may
        vanish on a run of floats, or flip sign in its rounding noise, that the
        scan's bisection could meet next to ``x``; with ``spread`` the bracket
        keeps that much room on each side, to be evaluated by the replay.
        """
        zero = fx == 0.0
        left = ~zero & (np.sign(fx) == self.s[i])
        right = ~zero & ~left
        k, z = i[zero], x[zero]
        if spread is None:
            self.lo[k] = self.hi[k] = z
            self.flo[k] = self.fhi[k] = 0.0
        else:
            self.lo[k] = np.maximum(self.lo[k], z - spread[zero])
            self.hi[k] = np.minimum(self.hi[k], z + spread[zero])
            self.flo[k] = self.fhi[k] = np.nan      # signs s and -s, as assumed outside
        self.lo[i[left]], self.flo[i[left]] = x[left], fx[left]
        self.hi[i[right]], self.fhi[i[right]] = x[right], fx[right]
        return left

    def polish(self, fn, tol_rel: float) -> None:
        """Illinois regula falsi until each bracket is narrower than
        ``_HANDOVER`` tolerances or stops halving."""
        ref = self.hi - self.lo
        age = np.zeros(ref.shape, dtype=int)
        side = np.zeros(ref.shape, dtype=int)      # end moved last: -1 lo, +1 hi
        while True:
            width = self.hi - self.lo
            handover = _HANDOVER * _tol(self.hi, tol_rel)
            i = np.flatnonzero((width >= handover) & (age < _STALL))
            if not i.size:
                return
            lo, hi, flo, fhi = self.lo[i], self.hi[i], self.flo[i], self.fhi[i]
            with np.errstate(all="ignore"):
                x = hi - fhi * ((hi - lo) / (fhi - flo))
            x = np.where(np.isfinite(x), x, 0.5 * (lo + hi))
            # a step to within half the handover width of an end lands that far
            # in, so a good estimate closes the bracket from both sides at once
            x = np.clip(x, lo + 0.5 * handover[i], hi - 0.5 * handover[i])
            left = self.narrow(i, x, fn(x), 0.25 * handover[i])
            right = ~left & ~np.isnan(self.fhi[i])
            # Illinois: halve fn at the end that stays put a second time
            self.fhi[i[left & (side[i] < 0)]] *= 0.5
            self.flo[i[right & (side[i] > 0)]] *= 0.5
            side[i] = np.where(left, -1, np.where(right, 1, 0))
            width = self.hi - self.lo
            halved = width <= 0.5 * ref
            ref[halved] = width[halved]
            age = np.where(halved, 0, age + 1)

    def replay(self, fn, e_max: float, step: float, tol_rel: float) -> list[float]:
        """The fixed scan's float for every root (see ``bracket_and_bisect``)."""
        r = 0
        while True:
            cell = step / 10.0**r
            if cell < 4.0 * _EPS * e_max:
                raise ScanResolutionError(f"no scan cell down to {cell:.3e} separates the roots "
                                          f"in [{self.lo[0]:.9g}, {self.hi[-1]:.9g}]")
            n_cells = int(math.ceil(e_max / cell))
            self._to_one_cell(fn, cell, n_cells)
            on_zero = (self.flo == 0.0) | (self.fhi == 0.0)
            zero_at = np.where(self.flo == 0.0, self.lo, self.hi)
            j = _first_at_or_above(np.where(on_zero, zero_at, self.hi), cell)
            edge = on_zero & (np.minimum(cell * j, e_max) == zero_at)
            # the scan cannot see a root in (0, cell] or a root past its last
            # point, and a root on a grid point blinds both cells next to it
            if (j[0] + edge[0] >= 2 and j[-1] <= n_cells
                    and (j[1:] > j[:-1] + edge[:-1]).all()):
                break
            r += 1
        a = cell * (j - 1)
        b = np.minimum(cell * j, e_max)
        active = ~edge
        while True:
            mid = 0.5 * (a + b)
            active &= (b - a) > _tol(mid, tol_rel)
            below = active & (mid < self.lo)
            above = active & (mid > self.hi)
            if below.any() or above.any():   # each root runs ahead until a midpoint needs fn
                np.copyto(a, mid, where=below)
                np.copyto(b, mid, where=above)
                continue
            i = np.flatnonzero(active)
            if not i.size:
                break
            fm = fn(mid[i])
            hit = fm == 0.0
            same = ~hit & (np.sign(fm) == self.s[i])
            a[i[hit | same]] = mid[i[hit | same]]
            b[i[hit | ~same]] = mid[i[hit | ~same]]
        return [float(x) for x in np.where(edge, zero_at, 0.5 * (a + b))]

    def _to_one_cell(self, fn, cell: float, n_cells: int) -> None:
        """Evaluate the scan points inside each bracket, bisecting on the grid
        index, until no bracket holds one."""
        while True:
            first = _first_at_or_above(np.nextafter(self.lo, np.inf), cell)
            last = np.minimum(_first_at_or_above(self.hi, cell) - 1, n_cells)
            i = np.flatnonzero(first <= last)
            if not i.size:
                return
            x = cell * np.floor(0.5 * (first[i] + last[i]))
            self.narrow(i, x, fn(x))


def _first_at_or_above(x: np.ndarray, cell: float) -> np.ndarray:
    """Smallest j with cell * j >= x, with the product rounded as the scan grid is."""
    j = np.ceil(x / cell)
    j -= cell * (j - 1.0) >= x
    j += cell * j < x
    return j


def count_sign_changes(values: np.ndarray) -> np.ndarray:
    """Sign alternations of the nonzero entries along axis 0 (zeros ignored)."""
    s = np.sign(values)
    if not s.all():           # carry the last nonzero sign across each zero
        last = np.where(s != 0.0, np.arange(len(s)).reshape((-1,) + (1,) * (s.ndim - 1)), 0)
        np.maximum.accumulate(last, axis=0, out=last)
        s = np.take_along_axis(s, last, axis=0)
    return np.sum(s[1:] * s[:-1] < 0.0, axis=0)
