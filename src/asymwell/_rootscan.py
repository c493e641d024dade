"""Count-directed root finding shared by both eigensolvers.

Each solver supplies ``fn``, whose sign changes are its eigenvalues, and its
Sturm count N(E), the exact number of levels below E (P. B. Bailey,
W. N. Everitt and A. Zettl, SLEIGN2, ACM TOMS 27 (2001); J. D. Pryce,
*Numerical Solution of Sturm-Liouville Problems* (1993)).  One policy serves
both:

1. Count pass: N and ``fn`` from one evaluation at ``_PROBES`` energies,
   the scan's first cell ``step`` and every e_max / 30 up to e_max (no level
   lies at or below ``step``, half the ground state of the flat well as wide
   as the floor, which only raises the levels), a level on e_max counted
   there, and at x -+ ``_SEED_GAP`` eps x around each root estimate x the
   solver supplies (the closed form's Pruefer-phase seeds): a count rising by
   one there certifies a root within 256 ulp, and leaves the polish nothing
   to do.  A gap whose count jumps by more than one (a seed that missed) is
   split until every level has a bracket of its own.  Each solver makes N's
   parity the sign of ``fn`` wherever ``fn`` is nonzero (odd where fn < 0),
   checked at every count, so each bracket's end values and signs come from
   the count, and no level falls between the two.
2. Polish on ``fn``, vectorized over all brackets, one call per pass: the
   inverse quadratic step through both ends and the end the last pass
   replaced (R. P. Brent, *Algorithms for Minimization without Derivatives*
   (1973), ch. 4) where it lands inside the bracket, else Illinois regula
   falsi, to ``_HANDOVER`` bisection tolerances (a bisection gains one level
   per call, the polish more).  A bracket that fails to halve in ``_STALL``
   passes bisects once instead: at a rounding floor, below which only the
   sign of ``fn`` means anything (Numerov's near a root under a high step),
   a sharp bend (the closed form's at E = v0), or values spread over many
   decades (the closed form's, like cosh(qbar b) below a tall step).
3. Report: the Numerov route takes each polished bracket's midpoint.  The
   closed form, whose table bytes are frozen, takes the replay: the float a
   fixed scan would give, with cells of ``step`` refined 10x until every
   root has a cell of its own, bisected to the tolerance.  Its midpoints
   outside the polished bracket take the sign of that bracket's end, so only
   the ones inside it are evaluated, in one call per round over all roots.
   Each root walks its bisection in Python floats to its next midpoint inside.

The policy sees only energies, values and counts: how a solver evaluates
``fn`` and its count (the closed form's classical action and characteristic,
the sign changes of a Numerov trajectory) stays in that solver's module.  The
replay gives the scan's floats where the characteristic's sign is clean near
each root, as its value at an energy does not depend on its call mates.

The polish loops over a few dozen brackets, where one numpy call costs
more than its arithmetic, so it is written to make few calls per pass.  The
layout moves neither the energies handed to ``fn`` and ``count``, call for
call, nor the reported floats, bit for bit; tests pin both, by a sha256 over
each solver's call log and against a plain fixed scan (``tests/oracles.py``).
"""
from __future__ import annotations

import itertools
import math
from typing import Callable

import numpy as np

_EPS = np.finfo(float).eps
_PROBES = 31                 # energies of the count pass, within one Numerov count chunk
_HANDOVER = 8                # bracket width, in bisection tolerances, that ends the polish
_STALL = 6                   # secant passes a bracket may take to halve its width
# a seed's count gap x -+ 128 eps x, 128 to 256 ulp: wider than the seeds' error and the
# rounding of fn near a level, narrower than one tolerance, so the polish makes no pass
_SEED_GAP = 128
# the count pass's probes over e_max above the scan's first cell, in steps of 1/30 up to e_max
_PROBE_AT = np.arange(1, _PROBES) / (_PROBES - 1)


class ScanResolutionError(RuntimeError):
    """The Sturm count and the sign changes of the scanned function disagree."""


def scan_step(a: float, b: float) -> float:
    """Scan cell of the fixed-step policy whose floats the replay reports.

    Half the ground-state energy of the enclosing flat well of width (a + b),
    capped at 0.1 for narrow wells, and 0 where (a + b)**2 overflows.
    """
    if a + b < 1.0:   # the cap holds, also where (a + b)**2 underflows to 0
        return 0.1
    try:
        return min(0.1, math.pi**2 / (2.0 * (a + b) ** 2))
    except OverflowError:
        return 0.0


def bracket_and_bisect(
    fn: Callable[[np.ndarray], np.ndarray],
    count: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    e_max: float,
    step: float,
    tol_rel: float,
    seeds: Callable[[], np.ndarray] | None = None,
    replay: bool = True,
) -> list[float]:
    """All roots of ``fn`` in (0, e_max], in increasing order.

    ``fn`` and ``count`` take a 1-D energy array: ``fn`` returns its values,
    ``count`` returns (N, fn) from one evaluation, N the exact (Sturm) number
    of roots of fn below each energy, whose parity is the sign of fn wherever
    fn is nonzero: odd where fn < 0.  No root lies at or below ``step``.
    With ``replay``, each root is the midpoint a bisection leaves once
    narrower than ``tol_rel * max(1, E)`` (floored at a few ulp), started
    from the cell of width ``step / 10**r`` that holds it, for the first r at
    which every root has a cell of its own; a root on a cell edge, e_max
    included, is returned as-is.  Without, each is the midpoint of its
    polished bracket, within 4 such tolerances of a sign change or zero of
    fn.  ``seeds``, called once and only within the scan's reach (``step`` at
    least 4 eps e_max), returns estimates x of the roots: the count's first
    call takes x -+ ``_SEED_GAP`` eps x, inside (0, e_max), which certify
    roots and move the brackets, not the floats.  ``ValueError``
    refuses an e_max that is not finite and positive, and, before any split,
    one holding 2**53 levels or more, which a float no longer counts exactly,
    or, holding a level, whose scan cell ``step`` is below 4 eps e_max, past
    which the scan grid's points no longer step apart; ``ScanResolutionError``
    names the energy where N's parity is not fn's sign.
    """
    if not 0 < e_max < math.inf:
        raise ValueError(f"e_max must be finite and positive, got {e_max}")
    lo, hi, n_lo, flo, fhi = _isolate(count, e_max, step, tol_rel, seeds)
    if not lo.size:
        return []
    roots = _Brackets(lo, hi, flo, fhi, np.where(n_lo % 2 == 1, -1.0, 1.0))
    roots.polish(fn, tol_rel)
    if not replay:
        return (0.5 * (roots.lo + roots.hi)).tolist()
    return roots.replay(fn, e_max, step, tol_rel)


def _isolate(count, e_max: float, step: float, tol_rel: float, seeds) -> tuple[np.ndarray, ...]:
    """Brackets (lo, hi] holding one level each, for every level in (0, e_max]:
    lo, hi, N(lo) and fn at lo and at hi, from the count at the probes, the
    seeds' gaps and the splits, its parity checked at every call.  N is read
    as floats, exact below 2**53 levels, then as ints; N(e_max) counts a
    level on e_max.  ``seeds`` is called only within the scan's reach, where
    its grid points, ``step`` apart, still step apart up to e_max."""
    reach = step >= 4.0 * _EPS * e_max
    new = np.concatenate([[min(step, e_max * _PROBE_AT[0])], e_max * _PROBE_AT])
    if reach and seeds is not None:
        x = np.asarray(seeds(), dtype=float)
        gap = _SEED_GAP * _EPS * x
        x = np.concatenate([x - gap, x + gap])
        new = np.concatenate([new, x[(0.0 < x) & (x < e_max)]])
    e = None
    while True:
        n_new, f_new = count(new)
        n_new = np.asarray(n_new, dtype=float)
        if not n_new.max() < 2.0**53:
            raise ValueError(f"e_max={e_max!r} holds {n_new.max():.6g} levels, more than the "
                             f"2**53 that a float counts exactly")
        n_new = n_new.astype(int)
        bad = ((f_new != 0.0) & (np.sign(f_new) != 1 - 2 * (n_new % 2))).nonzero()[0]
        if bad.size:
            i = bad[0]
            raise ScanResolutionError(f"the Sturm count's parity is not the sign of the scanned "
                                      f"function at E={float(new[i])!r}: N = {n_new[i]}, "
                                      f"fn = {f_new[i]:.6g}")
        n_new += (new == e_max) & (f_new == 0.0)    # a level on e_max, in the spectrum
        if e is None:
            e, n, f = new, n_new, np.asarray(f_new, dtype=float)
        else:
            e, n, f = (np.concatenate([e, new]), np.concatenate([n, n_new]),
                       np.concatenate([f, f_new]))
        order = np.argsort(e, kind="stable")
        e, n, f = e[order], n[order], f[order]
        if n[0] != 0:
            raise ScanResolutionError(f"the Sturm count places {n[0]} level(s) in "
                                      f"[0, {e[0]:.9g}], below the lowest probe: N(hi) = {n[0]}")
        jump = n[1:] - n[:-1]
        down = (jump < 0).nonzero()[0]
        if down.size:
            i = down[0]
            raise ScanResolutionError(f"the Sturm count decreases across [{e[i]:.9g}, "
                                      f"{e[i + 1]:.9g}]: N(lo) = {n[i]}, N(hi) = {n[i + 1]}")
        if n[-1] and not reach:
            raise ValueError(f"e_max={e_max!r} is past the fixed scan's reach: its cell "
                             f"{step:.3e} is below 4 eps e_max = {4.0 * _EPS * e_max:.3e}")
        wide = (jump > 1).nonzero()[0]
        if not wide.size:
            break
        # split a gap holding d levels at d evenly spaced energies
        d = jump[wide]
        gap = wide.repeat(d)
        k = np.arange(gap.size) - (d.cumsum() - d).repeat(d) + 1
        lo, width = e[gap], e[gap + 1] - e[gap]
        new = lo + width * (k / (jump[gap] + 1))
        stuck = (~((lo < new) & (new < lo + width))).nonzero()[0]
        if stuck.size:
            i = gap[stuck[0]]
            raise ScanResolutionError(f"the Sturm count cannot separate the levels in "
                                      f"[{e[i]:.9g}, {e[i + 1]:.9g}]: N(lo) = {n[i]}, "
                                      f"N(hi) = {n[i + 1]}")
    one = (jump == 1).nonzero()[0]
    return e[one], e[one + 1], n[one], f[one], f[one + 1]


class _Brackets:
    """One bracket [lo, hi] per root, with fn at its ends (NaN where the
    polish kept room around a zero of fn) and the sign ``s`` of fn just left
    of the root.  The array loops work through masks, not on gathered
    copies of the brackets still in play, and keep their scalars as 0-d
    arrays, which numpy does not convert on every call; their arithmetic
    follows the formulas in the comments operation for operation."""

    def __init__(self, lo, hi, flo, fhi, s):
        self.lo, self.hi, self.flo, self.fhi, self.s = lo, hi, flo, fhi, s
        self._ns = -s

    def _signs(self, i: np.ndarray, fx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``fx``, fn at the brackets ``i``, spread over all brackets with 0
        elsewhere, and the masks of those where fn has the sign ``s`` of their
        left end and of their right end; a bracket in ``i`` in neither mask
        saw fn vanish or return NaN."""
        full = np.zeros(self.s.size)
        full[i] = fx
        sign = np.sign(full)
        return full, sign == self.s, sign == self._ns

    def polish(self, fn, tol_rel: float) -> None:
        """Inverse quadratic steps, else Illinois regula falsi, until each
        bracket is narrower than ``_HANDOVER`` tolerances, with a bisection
        step for a bracket that has not halved its width in ``_STALL`` passes.
        Brackets all narrower than that, none ending on a zero of fn (the
        closed form's, certified by its seeds), return before any pass."""
        lo, hi, flo, fhi = self.lo, self.hi, self.flo, self.fhi
        # handover = _HANDOVER * tol with tol = max(tol_rel, 8 eps) max(1, hi),
        # the replay's tolerance at hi; scaling by a power of two is exact, so
        # its half and quarter are the same floats from scaled constants
        scale = _HANDOVER * max(tol_rel, 8.0 * _EPS)
        width = hi - lo
        if not (np.count_nonzero(width >= np.maximum(hi, 1.0) * scale)
                or np.count_nonzero(flo == 0.0)):
            return
        one, half, half_scale = np.array(1.0), np.array(0.5), np.array(0.5 * scale)
        scale = np.array(scale)
        handed = (flo == 0.0).nonzero()[0]
        zero_at = lo[handed]
        half_ref = 0.5 * width
        halved_at = np.zeros(lo.size, dtype=int)  # last pass that halved the width, or 0
        moved_lo = moved_hi = np.zeros(lo.size, dtype=bool)  # the end the last pass moved
        for k in itertools.count():
            grow = np.maximum(hi, one)
            i = (width >= grow * scale).nonzero()[0]
            if not i.size:
                break
            if not k:   # fn at lo and hi, unhalved, and at c, the end a pass replaced
                rlo, rhi, (c, fc) = flo.copy(), fhi.copy(), np.full((2, lo.size), np.nan)
            with np.errstate(all="ignore"):   # not around fn, whose warnings show
                # inverse quadratic through (hi, rhi), (lo, rlo), (c, fc), by divided
                # differences, where it lands in (lo, hi), else Illinois's secant
                slope = width / (rhi - rlo)
                curve = ((c - lo) / (fc - rlo) - slope) / (fc - rhi)
                x = hi - rhi * (slope - rlo * curve)
                x = np.where((lo < x) & (x < hi), x, hi - fhi * (width / (fhi - flo)))
                bisect = ~np.isfinite(x) | (halved_at <= k - _STALL)
                if np.count_nonzero(bisect):
                    x = np.where(bisect, 0.5 * (lo + hi), x)
                # clipped to within half a handover of either end, so a good
                # estimate closes the bracket from both sides at once
                margin = grow * half_scale
                x = np.minimum(np.maximum(x, lo + margin), hi - margin)
            fx, left, right = self._signs(i, fn(x[i]))
            if np.count_nonzero(left | right) < i.size:
                # where fn vanishes, on a run of floats or in its rounding noise,
                # the scan's bisection may meet more zeros next to x: keep a
                # quarter handover of room on each side, for the replay
                j = i[~(left | right)[i]]
                z = j[fx[j] == 0.0]
                spread = 0.25 * scale * grow[z]
                lo[z] = np.maximum(lo[z], x[z] - spread)
                hi[z] = np.minimum(hi[z], x[z] + spread)
                flo[z] = fhi[z] = rlo[z] = rhi[z] = np.nan   # signs s and -s, as assumed outside
                j = j[fx[j] != 0.0]           # NaN
                hi[j], fhi[j], rhi[j] = x[j], fx[j], fx[j]
            np.copyto(c, lo, where=left)
            np.copyto(fc, rlo, where=left)
            np.copyto(c, hi, where=right)
            np.copyto(fc, rhi, where=right)
            np.copyto(rlo, fx, where=left)
            np.copyto(rhi, fx, where=right)
            np.copyto(lo, x, where=left)
            np.copyto(flo, fx, where=left)
            np.copyto(hi, x, where=right)
            np.copyto(fhi, fx, where=right)
            # Illinois: halve fn at the end that stays put a second time
            np.multiply(fhi, half, out=fhi, where=left & moved_lo)
            np.multiply(flo, half, out=flo, where=right & moved_hi)
            moved_lo, moved_hi = left, right
            width = hi - lo
            halved = width <= half_ref
            np.multiply(width, half, out=half_ref, where=halved)
            np.copyto(halved_at, k + 1, where=halved)
        if handed.size:
            # a zero the count handed over at lo may end a run of zeros whose
            # start, below lo, the scan meets first: the same room below it as
            # around a zero the polish finds, down to the polished bracket below
            below = np.where(handed > 0, hi[handed - 1], 0.0)
            lo[handed] = np.maximum(zero_at - 0.25 * scale * np.maximum(zero_at, one), below)
            flo[handed] = np.where(lo[handed] < zero_at, np.nan, 0.0)

    def replay(self, fn, e_max: float, step: float, tol_rel: float) -> list[float]:
        """The fixed scan's float for every root (see ``bracket_and_bisect``)."""
        lo, hi = self.lo, self.hi
        r = 0
        while True:
            cell = step / 10.0**r
            if cell < 4.0 * _EPS * e_max:
                raise ScanResolutionError(f"no scan cell down to {cell:.3e} separates the roots "
                                          f"in [{lo[0]:.9g}, {hi[-1]:.9g}]")
            n_cells = int(math.ceil(e_max / cell))
            j = self._to_one_cell(fn, cell, n_cells)
            on_zero = (self.flo == 0.0) | (self.fhi == 0.0)
            zero_at = np.where(self.flo == 0.0, lo, hi)
            if np.count_nonzero(on_zero):
                j = _first_at_or_above(np.where(on_zero, zero_at, hi), cell)
            edge = on_zero & (np.minimum(cell * j, e_max) == zero_at)
            # the scan cannot see a root in (0, cell] or a root past its last
            # point, and a root on a grid point blinds both cells next to it,
            # though not to a root on the next grid point
            if (j[0] + edge[0] >= 2 and j[-1] <= n_cells
                    and (j[1:] > j[:-1] + (edge[:-1] & ~edge[1:])).all()):
                break
            r += 1
        a = cell * (j - 1)
        b = np.minimum(cell * j, e_max)
        # bisect [a, b] until b - a <= max(tol_rel, 8 eps) max(1, mid): the
        # scan's max(tol_rel s, 8 eps s) with s = max(1, mid), the same float
        # since rounding is monotone
        mid = _walk(fn, a.tolist(), b.tolist(), lo.tolist(), hi.tolist(), self.s.tolist(),
                    (~edge).nonzero()[0].tolist(), max(tol_rel, 8.0 * _EPS))
        return np.where(edge, zero_at, mid).tolist()

    def _to_one_cell(self, fn, cell: float, n_cells: int) -> np.ndarray:
        """Evaluate the scan points inside each bracket, bisecting on the grid
        index, until no bracket holds one, and return the grid index of each
        bracket's hi.  A zero of fn on a scan point ends its bracket there."""
        lo, hi, flo, fhi = self.lo, self.hi, self.flo, self.fhi
        while True:
            first = _first_at_or_above(np.nextafter(lo, np.inf), cell)
            top = _first_at_or_above(hi, cell)
            last = np.minimum(top - 1, n_cells)
            i = (first <= last).nonzero()[0]
            if not i.size:
                return top
            x = cell * np.floor(0.5 * (first[i] + last[i]))
            fx = fn(x)
            left = np.sign(fx) == self.s[i]
            zero = fx == 0.0
            k, y = i[left | zero], x[left | zero]
            lo[k], flo[k] = y, fx[left | zero]
            k, y = i[~left], x[~left]
            hi[k], fhi[k] = y, fx[~left]


def _walk(fn, a: list, b: list, lo: list, hi: list, s: list, waiting: list,
          scale: float) -> list:
    """The midpoint that the replay's bisection of each cell [a, b] leaves,
    in floats, root by root: each root in ``waiting`` walks to its next
    midpoint inside its bracket [lo, hi] or to the tolerance, and one call
    evaluates the midpoints so reached, in root order.  A walk halves blind
    while its cell is wider than the tolerance at its top b, max(1, b) scale:
    no midpoint m <= b can stop it there, as max(1, m) scale rounds to no
    more, so only the last few halvings compute the tolerance at m."""
    mid = [0.0] * len(a)
    while waiting:
        stopped = []
        for k in waiting:
            x, y, l, h = a[k], b[k], lo[k], hi[k]
            wide = (y if y > 1.0 else 1.0) * scale   # max() is a call, and slower
            while True:
                m = (x + y) * 0.5
                if y - x <= wide and y - x <= (m if m > 1.0 else 1.0) * scale:
                    break
                if m < l:
                    x = m
                elif m > h:
                    y = m
                else:
                    stopped.append(k)
                    mid[k] = m
                    break
            a[k], b[k] = x, y
        if not stopped:
            break
        for k, f in zip(stopped, fn(np.array([mid[k] for k in stopped])).tolist()):
            if f == 0.0:                  # a zero closes the window
                a[k] = b[k] = mid[k]
            elif f * s[k] > 0.0:
                a[k] = mid[k]
            else:                         # NaN moves b, as the scan's sign test does
                b[k] = mid[k]
        waiting = stopped
    return [0.5 * (x + y) for x, y in zip(a, b)]


def _first_at_or_above(x: np.ndarray, cell: float) -> np.ndarray:
    """Smallest j with cell * j >= x, with the product rounded as the scan grid is."""
    j = np.ceil(x / cell)
    j -= cell * (j - 1.0) >= x
    j += cell * j < x
    return j

