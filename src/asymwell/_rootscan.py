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
   split until every level has a bracket of its own.  Each
   solver makes N's parity the sign of ``fn`` wherever ``fn`` is nonzero
   (odd where fn < 0), checked at every count, so each bracket's end values
   and signs come from the count, and no level falls between the two.
2. Secant polish: Illinois regula falsi on ``fn``, vectorized over all
   brackets, one call per pass.  A bracket hands over once it is narrower
   than ``_HANDOVER`` bisection tolerances: the replay's bisection gains one
   level per call, the secant more.  A bracket that fails to halve in
   ``_STALL`` passes takes one bisection step in place of its secant
   estimate.  A stall comes from a rounding floor, below which only the sign
   of ``fn`` means anything, such as Numerov's near a root under a high step,
   or from a sharp bend, such as the closed form's at E = v0, or from
   values spread over many decades, such as the closed form's, which grows
   like cosh(qbar b) below a tall step.
3. Replay: the reported float is the one a fixed scan would give, with cells
   of ``step`` refined 10x until every root has a cell of its own, bisected to
   the tolerance.  Its midpoints outside the polished bracket take the sign of
   that bracket's end, so only the ones inside it are evaluated, in one call
   per round over all roots.  Up to ``_NARROW`` roots, each walks its
   bisection in Python floats to its next midpoint inside; above that, each
   first takes in bulk, on arrays, the plain halvings that its cell's width
   allows before the scan could stop.

The policy sees only energies, values and counts: how a solver evaluates
``fn`` and its count (the closed form's classical action and characteristic,
the sign changes of a Numerov trajectory) stays in that solver's module.  The
replay reproduces the scan's floats only while ``fn`` returns the same value
for an energy whatever other energies share its call, which both solvers'
functions do (the Numerov sweep's block length is the grid's), and while the
sign of ``fn`` is clean near each root: where rounding flips it, the scan may
take another side of that noise than the polish, up to its width away.

The polish and the replay loop over a few dozen brackets, where one numpy
call costs more than its arithmetic: their time goes with the number of
numpy calls per pass, not with the number of brackets, and they are written
to make few.  The array replay makes about six a halving level, some 46
levels a solve, whatever the root count; the walk in floats costs per root,
and on step-survey wells it was the faster up to about 90 roots (25% off a
solve at 10 roots or fewer, 9% at 41-64, 16% slower at 121-200), so
``_NARROW`` cuts below that.  The loop layout changes neither invariant of
the policy: the energies handed to ``fn`` and ``count``, call for call, and
the reported floats, bit for bit.  Tests pin both on either replay path, by a
sha256 over the call log of each solver and against a plain fixed scan
(``tests/oracles.py``).
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
# roots at most, whose replay walks each bisection in floats (``_walk``)
_NARROW = 64
# the count pass's probes over e_max above the scan's first cell, in steps of 1/30 up to e_max
_PROBE_AT = np.arange(1, _PROBES) / (_PROBES - 1)


class ScanResolutionError(RuntimeError):
    """The Sturm count and the sign changes of the scanned function disagree."""


def scan_step(a: float, b: float) -> float:
    """Scan cell of the fixed-step policy whose floats ``bracket_and_bisect`` reports.

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
) -> list[float]:
    """All roots of ``fn`` in (0, e_max], in increasing order.

    ``fn`` and ``count`` take a 1-D energy array: ``fn`` returns its values,
    ``count`` returns (N, fn) from one evaluation, N the exact (Sturm) number
    of roots of fn below each energy, whose parity is the sign of fn wherever
    fn is nonzero: odd where fn < 0.  No root lies at or below ``step``.
    Each root is the midpoint a bisection leaves once narrower than
    ``tol_rel * max(1, E)`` (floored at a few ulp), started from the cell of
    width ``step / 10**r`` that holds it, for the first r at which every root
    has a cell of its own; a root on a cell edge, e_max included, is returned
    as-is.  ``seeds``, called once and only within the scan's reach (``step``
    at least 4 eps e_max), returns estimates x of the roots: the count's
    first call takes x -+ ``_SEED_GAP`` eps x, inside (0, e_max), which
    certify roots and move the brackets, not the floats.  ``ValueError``
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
    e, n, f = np.empty(0), np.empty(0, dtype=int), np.empty(0)
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
        e, n, f = np.concatenate([e, new]), np.concatenate([n, n_new]), np.concatenate([f, f_new])
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
    of the root.

    The polish and the wide replay work on whole arrays through masks, not
    on gathered copies of the brackets still in play, and keep their scalars
    as 0-d arrays, which numpy does not convert on every call; the replay of
    ``_NARROW`` roots or fewer walks each in Python floats.  Their arithmetic
    follows the formulas in the comments operation for operation, so neither
    the energies handed to ``fn`` nor the floats reported depend on how the
    loops are laid out."""

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
        """Illinois regula falsi until each bracket is narrower than
        ``_HANDOVER`` tolerances, with a bisection step for a bracket that
        has not halved its width in ``_STALL`` passes."""
        lo, hi, flo, fhi = self.lo, self.hi, self.flo, self.fhi
        # handover = _HANDOVER * tol with tol = max(tol_rel, 8 eps) max(1, hi),
        # the replay's tolerance at hi; scaling by a power of two is exact, so
        # its half and quarter are the same floats from scaled constants
        scale = _HANDOVER * max(tol_rel, 8.0 * _EPS)
        one, half, half_scale = np.array(1.0), np.array(0.5), np.array(0.5 * scale)
        scale = np.array(scale)
        handed = (flo == 0.0).nonzero()[0]
        zero_at = lo[handed]
        width = hi - lo
        half_ref = 0.5 * width
        halved_at = np.zeros(lo.size, dtype=int)  # last pass that halved the width, or 0
        moved_lo = moved_hi = np.zeros(lo.size, dtype=bool)  # the end the last pass moved
        for k in itertools.count():
            grow = np.maximum(hi, one)
            i = (width >= grow * scale).nonzero()[0]
            if not i.size:
                break
            with np.errstate(all="ignore"):   # not around fn, whose warnings show
                x = hi - fhi * (width / (fhi - flo))
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
                flo[z] = fhi[z] = np.nan      # signs s and -s, as assumed outside
                j = j[fx[j] != 0.0]           # NaN
                hi[j], fhi[j] = x[j], fx[j]
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
            self._to_one_cell(fn, cell, n_cells)
            on_zero = (self.flo == 0.0) | (self.fhi == 0.0)
            zero_at = np.where(self.flo == 0.0, lo, hi)
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
        scale = max(tol_rel, 8.0 * _EPS)
        if lo.size <= _NARROW:
            mid = _walk(fn, a.tolist(), b.tolist(), lo.tolist(), hi.tolist(), self.s.tolist(),
                        (~edge).nonzero()[0].tolist(), scale)
            return np.where(edge, zero_at, mid).tolist()
        one, half, scale = np.array(1.0), np.array(0.5), np.array(scale)
        active = ~edge
        # plain halvings: after l of them [a, b] is W / 2**l - ulp(b) wide or
        # more, W = b - a > 0, and ulp(b) <= scale max(b, 1) / 4, so for
        # floor(log2(W / (1.5 scale max(b, 1)))) levels the scan halves again,
        # and a midpoint outside [lo, hi] takes the sign of that end; one in it
        # moves neither end.  Level l runs on the prefix of roots whose
        # budget, made non-increasing, exceeds l
        budget = np.log2((b - a) / (1.5 * scale * np.maximum(b, one)))
        budget = np.minimum.accumulate(np.floor(np.maximum(budget, 0.0)))
        mid = np.empty_like(a)
        for m, levels in itertools.groupby(np.searchsorted(-budget, -np.arange(budget[0])).tolist()):
            am, bm, lm, hm, mm = a[:m], b[:m], lo[:m], hi[:m], mid[:m]
            for _ in levels:
                np.multiply(np.add(am, bm, out=mm), half, out=mm)
                np.copyto(am, mm, where=mm < lm)
                np.copyto(bm, mm, where=mm > hm)
        while True:
            mid = (a + b) * half
            active &= (b - a) > np.maximum(mid, one) * scale
            below = active & (mid < lo)
            above = active & (mid > hi)
            if np.count_nonzero(below) or np.count_nonzero(above):
                np.copyto(a, mid, where=below)
                np.copyto(b, mid, where=above)
                continue
            i = active.nonzero()[0]
            if not i.size:
                break
            fx, left, right = self._signs(i, fn(mid[i]))
            if np.count_nonzero(left | right) < i.size:
                j = i[~(left | right)[i]]     # fn vanished or returned NaN
                z = j[fx[j] == 0.0]
                a[z] = mid[z]                 # a zero closes the window;
                b[j] = mid[j]                 # NaN moves b, as the scan's sign test does
            np.copyto(a, mid, where=left)
            np.copyto(b, mid, where=right)
        return np.where(edge, zero_at, 0.5 * (a + b)).tolist()

    def _to_one_cell(self, fn, cell: float, n_cells: int) -> None:
        """Evaluate the scan points inside each bracket, bisecting on the grid
        index, until no bracket holds one.  A zero of fn on a scan point ends
        its bracket there."""
        lo, hi, flo, fhi = self.lo, self.hi, self.flo, self.fhi
        while True:
            first = _first_at_or_above(np.nextafter(lo, np.inf), cell)
            last = np.minimum(_first_at_or_above(hi, cell) - 1, n_cells)
            i = (first <= last).nonzero()[0]
            if not i.size:
                return
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
    evaluates the midpoints so reached, in root order, as the numpy loop's
    rounds do."""
    mid = [0.0] * len(a)
    while waiting:
        stopped = []
        for k in waiting:
            x, y, l, h = a[k], b[k], lo[k], hi[k]
            while True:
                m = (x + y) * 0.5
                if y - x <= (m if m > 1.0 else 1.0) * scale:   # max() is a call, and slower
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

