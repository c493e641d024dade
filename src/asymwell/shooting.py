"""Numerov shooting solver for smoothed wells (and the sharp step as a cross-check).

The three-term Numerov recurrence for psi'' = f(x) psi,

    (1 - t[i+1]) psi[i+1] = (2 + 10 t[i]) psi[i] - (1 - t[i-1]) psi[i-1],
    t = h^2 f / 12,

is fourth-order accurate for smooth f.  Across the sharp step it is second
order with the v0/2 midpoint sample when the step sits on a grid point
(a n_grid / (a + b) an integer), and first order at best and erratic off one:
against the closed form, (3, 3, 20) has 1.6e-5 / 4.0e-6 / 1.0e-6 / 2.5e-7 and
(2, 4.3, 20) 2.4e-4 / 1.2e-3 / 4.8e-4 / 1.3e-4 worst relative error over the 9
levels below E = 35 at 1000 / 2000 / 4000 / 8000 cells.  So for
smoothing=None the closed-form solver remains authoritative and this one is a
consistency check.

Every pass reads one ``_Grid``: the floor sampled from -a and from b, and the
energy window.  Eigenvalues are the trial energies where the solution from
psi(b) = 0 crosses zero at x = -a.  The passes run the recurrence renormalized
(B. R. Johnson, J. Chem. Phys. 67, 4086 (1977)) on u = (1 - t) psi, in
Henrici's summed form (P. Henrici, *Discrete Variable Methods in Ordinary
Differential Equations*, 1962): with D[i] = u[i+1] - u[i], each cell adds
w[i] u[i] to D and then D to u, w = 12 t / (1 - t) formed from E - V directly,
and psi = u / (1 - t) is read back.  In exact arithmetic this is the
three-term u[i+1] = (2 + w[i]) u[i] - u[i-1]; in floats the three-term form
keeps the curvature in the last bits of a coefficient near 2 and cancels two
large terms each cell, so at 4000 cells its fn read as noise about 1e-11 of a
level wide, and the noise grew with the cell count.  The summed form adds small
corrections instead: its fn is smooth to a few ulp of E, and a level's
root converges at fourth order to 16000 cells.  A sweep forms the products of
16-cell sub-blocks, vectorized over sub-blocks and energies with the ~250
sub-blocks innermost, a run of them on equal floor samples sharing one
product, joins each sixteen into a 256-cell block's by a pairwise product
tree, then carries the state through the blocks in order in Python floats,
rescaling against overflow.  The block layout does not depend on the
energies, so a spectrum plans it once for its grid.

A converged state is the solution from psi(b) = 0, one backward trajectory
per 32 states.  Every floor ``WellSpec`` accepts is nondecreasing, so the only
barrier lies toward b, and the pass from b is the mode that decays into it,
so the node check sees a clean tail.  Its sample at -a, the converged
energy's residual, is set to the boundary value 0, and each state is signed
to rise from -a.  The solution from b also gives the Sturm count, its sign
changes, whose parity is the sign of its psi(-a), which gives each root its
own bracket in the root policy: from its trajectories at the lowest and highest
trial energy and one sweep over the rest, as the count does not decrease with E,
else from one trajectory per 32 trial energies.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rootscan import bracket_and_bisect, scan_step
from ._simpson import simpson
from .potential import WellSpec, _integer, sample

__all__ = ["GridSolution", "NodeCountError", "shoot", "find_spectrum_numeric",
           "side_probability_numeric"]

_BISECT_TOL = 1e-12          # relative; well inside the 1e-9 contract
_RENORM_CAP = 1e125          # rescale the running solution past this magnitude
_RENORM = 1e-180             # by this factor, 1 / _BLOCK_GROWTH: a rescaled state is under the cap
_BLOCK = 256                 # Numerov steps multiplied together per transfer block
_SUB = 16                    # steps per sub-block, whose products the recurrence forms
_BLOCK_GROWTH = 1e180        # bound on one block's amplification: 5**256 < 1e180 < 1.8e308 / cap
_CHUNK = 32                  # trial energies per pass or count sweep; at 4000 cells 4.5 MB peak


class NodeCountError(RuntimeError):
    """A numeric state's interior node count disagrees with its index."""


@dataclass(frozen=True, eq=False)
class GridSolution:
    """One numeric eigenstate sampled on a uniform grid over [-a, b].

    ``values`` is normalized to unit Simpson norm and signed to rise from the
    left wall (the amp_left > 0 convention of the closed-form states).
    """

    spec: WellSpec
    n: int
    energy: float
    grid: np.ndarray
    values: np.ndarray
    step: float


@dataclass(frozen=True, eq=False)
class _Grid:
    """The grid over [-a, b], its floor sampled from -a (``v``) and from b
    (``from_b``, the same samples reversed), and its window (lo, top)."""

    spec: WellSpec
    xs: np.ndarray
    h: float
    v: np.ndarray
    from_b: np.ndarray
    lo: float
    top: float


@dataclass(frozen=True, eq=False)
class _Plan:
    """The part of a pass that does not depend on its energies, for one sample array,
    step and energy floor (see ``_transfer_blocks``)."""

    ks: int                  # cells per sub-block
    parts: int               # sub-blocks per block
    nb: int                  # blocks
    ns: int                  # sub-blocks with real steps
    tail: int                # the last sub-block's real steps
    vs: np.ndarray           # V at step 1 + j + ks*s at [j, s], over the sub-blocks built
    runs: np.ndarray | None  # sub-blocks each built one serves, or None when all are built


# (samples, h, energy floor, plan) of the last read-only sample array planned
_last_plan: tuple = (None, 0.0, 0.0, None)


def _block_plan(v: np.ndarray, h: float, e: np.ndarray) -> _Plan:
    """The plan for a pass over ``v`` at step ``h`` and energies ``e``.

    A read-only ``v``, as ``_stable_grid`` makes, is taken not to change, so its last
    plan is reused while ``h`` and the energy floor min(min e, 0) match: a spectrum's
    passes over one grid direction build one plan.  A writeable ``v`` is planned afresh.
    """
    global _last_plan
    floor = min(float(e.min()), 0.0)
    seen, seen_h, seen_floor, plan = _last_plan
    if v is seen and not v.flags.writeable and h == seen_h and floor == seen_floor:
        return plan
    c = h * h / 12.0
    n = len(v) - 2
    # sup-norm bound on one step matrix, max(|1 + w_i|, |w_i|) + 1, over the grid's window from
    # E = 0 up (w rises with t, from -4 at its top, t = -1/2, where the bound is 5), so no call
    # mate moves k; callers keep t_hi < 1
    t_hi = c * (v.max() - floor)
    g = max(4.0, 1.0 + 12.0 * t_hi / (1.0 - t_hi)) + 1.0
    k = max(1, min(_BLOCK, int(math.log(_BLOCK_GROWTH) / math.log(g))))
    ks = min(_SUB, k)
    parts = 1 << ((k // ks).bit_length() - 1)     # a power of two, for the product tree
    k = ks * parts
    nb, ns = -(-n // k), -(-n // ks)              # blocks, and sub-blocks with real steps
    # the padding past step n repeats V at step n
    vs = v[np.minimum(np.arange(ns * ks).reshape(ns, ks).T, n - 1) + 1]
    own, runs = _own_blocks(vs)
    shared = own.size < ns
    plan = _Plan(ks, parts, nb, ns, n - (ns - 1) * ks,
                 np.ascontiguousarray(vs[:, own]) if shared else vs, runs if shared else None)
    if not v.flags.writeable:
        _last_plan = (v, h, floor, plan)
    return plan


def _transfer_blocks(v: np.ndarray, h: float, e: np.ndarray, path: bool) -> np.ndarray:
    """Numerov solutions from psi = 0 at the first sample of ``v`` for the energies ``e``.

    Renormalized (B. R. Johnson, J. Chem. Phys. 67, 4086 (1977)) on u = (1 - t) psi, in
    Henrici's summed form (P. Henrici, *Discrete Variable Methods in Ordinary Differential
    Equations*, 1962): the state is (u[i], D[i-1]), D[i] = u[i+1] - u[i], and step i adds
    w[i] u[i] to D, then D to u, with w = 12 t / (1 - t) formed from E - V directly.  It
    starts from u[1] = (1 - t[1]) psi[1] and D[0] = u[1].  A step's matrix is
    [[1 + w_i, 1], [w_i, 1]], so where the grid resolves psi a product over k cells is
    near [[1, k], [0, 1]] and nothing cancels; the three-term form's coefficient
    d = 2 + w holds the curvature in its last bits.

    ``_block_plan`` groups the steps into blocks of up to ``_BLOCK`` cells, each of
    sixteen ``_SUB``-cell sub-blocks (a high floor's shorter blocks hold a power of two
    of them, and below ``_SUB`` cells one).  A sub-block's product is formed by running
    the two basis solutions through it, vectorized over the sub-blocks ``_own_blocks``
    keeps and all energies, then repeated out; the last real one is read after its
    real steps (no step is the identity) and those past it are the identity.  Its
    arrays are laid out (energy m, step in sub-block, sub-block) and (basis, m,
    sub-block): sub-blocks innermost, so every numpy operation runs along them, not
    the few energies of a typical chunk.  A block's product joins its sub-blocks' by
    a pairwise tree, the later of each pair on the left: four levels of a few numpy
    calls, where the recurrence would take three a step.  The state is then carried
    through the blocks in order, one energy at a time in Python floats, and scaled by
    ``_RENORM`` after each block that leaves its |u| or |D| past ``_RENORM_CAP``.  A
    block's amplification stays below ``_BLOCK_GROWTH``, so the carry cannot overflow
    between checks, and ``_RENORM`` is at most its inverse, so a rescaled state is back
    under the cap.  A trajectory starts each sub-block down its block's tree, the right
    half of a pair from the left half's product times the pair's start, and combines
    the basis solutions from there.

    Returns psi = u / (1 - t) at the last sample per energy, or with ``path`` the
    whole trajectory, shape (len(v), len(e)), each sample at its column's final
    rescale level, the last with the sweep's bits.
    """
    plan = _block_plan(v, h, e)
    ks, parts, nb, ns, tail, runs = plan.ks, plan.parts, plan.nb, plan.ns, plan.tail, plan.runs
    c = h * h / 12.0
    n, m, built = len(v) - 2, e.size, plan.vs.shape[1]
    # E - V in one contiguous pass per energy, then w and 1 - t = 1 + c (E - V) from it
    w = np.subtract.outer(e, plan.vs)
    den = np.multiply(w, c)
    den += 1.0
    w *= -h * h
    w /= den

    # u[j, s] is basis solution s, from (u, D) = (1, 0) or (0, 1), after j steps into each
    # sub-block, and diff its D; only a trajectory keeps every step's u, a sweep the latest
    u = np.empty((ks + 1 if path else 1, 2, m, built))
    u[0, 0], u[0, 1] = 1.0, 0.0
    diff = np.zeros((2, m, built))
    diff[1] = 1.0
    kick = np.empty_like(diff)
    steps = list(u) if path else [u[0]] * (ks + 1)
    for j in range(ks):
        np.multiply(w[:, j], steps[j], kick)
        np.add(diff, kick, diff)
        np.add(steps[j], diff, steps[j + 1])
        if j + 1 == tail:
            short = steps[j + 1][..., -1].copy(), diff[..., -1].copy()
    del w, kick    # a trajectory's samples need the room
    # sub-block transfer matrices, rows (u, D) by basis columns; np.repeat keeps the
    # sub-blocks innermost in memory, where [..., index] would not
    sub = np.empty((2, 2, m, nb * parts))
    for row, full, part in zip(sub, (steps[ks], diff), short):
        row[..., :ns] = full if runs is None else np.repeat(full, runs, axis=-1)
        row[..., ns - 1] = part
    sub[..., ns:] = np.eye(2)[:, :, None, None]
    del diff
    # each block's product by a pairwise tree over its sub-blocks, the later of a pair on
    # the left; a trajectory keeps the tree's lower levels to start each sub-block
    level, levels = sub.reshape(2, 2, m, nb, parts), []
    while level.shape[-1] > 1:
        if path:
            levels.append(level)
        level = (level[:, :, None, ..., 1::2] * level[None, ..., ::2]).sum(axis=1)
    blocks = level[..., 0]

    first = h * (1.0 + h * h * (v[0] - e) / 6.0) * den[:, 0, 0]   # u[1] = (1 - t[1]) psi[1]
    fired = np.zeros((m, nb), dtype=bool)
    cap, ncap, starts, last = _RENORM_CAP, -_RENORM_CAP, [], []
    rows = blocks.transpose(2, 3, 0, 1).reshape(m, -1).tolist()
    for i, (flat, s0) in enumerate(zip(rows, first.tolist())):
        s1, it = s0, iter(flat)    # D[0] = u[1] - u[0]
        for blk, (b00, b01, b10, b11) in enumerate(zip(it, it, it, it)):
            if path:
                starts += s0, s1
            s0, s1 = b00 * s0 + b01 * s1, b10 * s0 + b11 * s1
            if s0 > cap or s0 < ncap or s1 > cap or s1 < ncap:
                s0, s1 = s0 * _RENORM, s1 * _RENORM
                fired[i, blk] = True
        last.append(s0)
    end = np.array(last) / (1.0 - c * (v[-1] - e))
    if not path:
        return end
    starts = np.array(starts).reshape(m, nb, 2).transpose(2, 0, 1)
    # each sub-block's start, down the tree from its block's: the right half of a pair
    # starts where the left half's product takes the pair's start
    inside = starts[..., None]
    for level in reversed(levels):
        pair = np.empty(inside.shape[:-1] + (2 * inside.shape[-1],))
        pair[..., ::2] = inside
        pair[..., 1::2] = (level[..., ::2] * inside).sum(axis=1)
        inside = pair
    del levels, sub
    starts = inside.reshape(2, m, -1)[..., :ns]
    # the samples, formed in place in hist (no temporary), then written one energy per row
    hist = u[:ks]
    if runs is not None:
        hist, den = np.repeat(hist, runs, axis=-1), np.repeat(den, runs, axis=-1)
    hist *= starts
    inner = hist[:, 0]
    inner += hist[:, 1]
    # samples in block blk take the rescales at the ends of blocks blk, blk+1, ...
    if fired.any():
        inner *= np.repeat(_RENORM ** np.cumsum(fired[:, ::-1], axis=1)[:, ::-1], parts,
                           axis=1)[:, :ns]
    inner /= den.transpose(1, 0, 2)
    del den
    out = np.empty((m, ns * ks + 2))
    out[:, 1:-1].reshape(m, ns, ks).transpose(2, 0, 1)[...] = inner
    out[:, 0], out[:, n + 1] = 0.0, end
    return out[:, : n + 2].T


def _own_blocks(vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Blocks (the kernel's sub-blocks) with a product of their own, for floor samples
    ``vs`` laid out (step in block, block), and the run of blocks each one's product
    serves: a block on the samples of the one before has its product bit for bit, save
    the last, padded one."""
    nb = vs.shape[1]
    same = vs[0, 1:-1] == vs[0, :-2]
    if not same.any():    # no first sample repeats: a sigmoid's blocks pay one compare
        return np.arange(nb), np.ones(nb, dtype=int)
    same &= (vs[:, 1:-1] == vs[:, :-2]).all(axis=0)
    own = np.concatenate([[0], (~same).nonzero()[0] + 1, [nb - 1]])
    return own, np.diff(own, append=nb)


def _sweep_final(v: np.ndarray, h: float, energies: np.ndarray) -> np.ndarray:
    """psi at the last sample of ``v`` from psi = 0 at its first, for each trial
    energy (vectorized): psi(b), or on ``_Grid.from_b`` psi(-a), whose zeros are eigenvalues."""
    e = np.atleast_1d(np.asarray(energies, dtype=float))
    out = np.empty(e.shape)
    for lo in range(0, e.size, _CHUNK):
        out[lo : lo + _CHUNK] = _transfer_blocks(v, h, e[lo : lo + _CHUNK], path=False)
    return out


def _trajectories(grid: _Grid, e: np.ndarray):
    """(offset, energies, trajectories from b) for each ``_CHUNK`` of ``e`` in turn."""
    for lo in range(0, e.size, _CHUNK):
        chunk = e[lo : lo + _CHUNK]
        yield lo, chunk, _transfer_blocks(grid.from_b, grid.h, chunk, path=True)


def count_sign_changes(values: np.ndarray) -> np.ndarray:
    """Sign alternations of the nonzero entries along axis 0 (zeros ignored)."""
    s = np.sign(values)
    if not s.all():           # carry the last nonzero sign across each zero
        last = np.where(s != 0.0, np.arange(len(s)).reshape((-1,) + (1,) * (s.ndim - 1)), 0)
        np.maximum.accumulate(last, axis=0, out=last)
        s = np.take_along_axis(s, last, axis=0)
    return np.sum(s[1:] * s[:-1] < 0.0, axis=0)


def _count_below(grid: _Grid, energies) -> tuple[np.ndarray, np.ndarray]:
    """Sturm count, the states below each energy, and the root policy's fn
    there: the sign changes of the solution from psi(b) = 0, which crosses the
    barrier first, so no rescale can zero its nodes, and its last sample psi(-a).

    3 to ``_CHUNK`` energies take trajectories at the lowest and highest only,
    for N_lo and N_hi, and, where N_hi - N_lo is below their number, fn from
    their last samples there and from one sweep, with the same bits, at the
    others.  Two facts hold inside the grid's window, where the callers keep
    every energy (``_stable_grid``).  Parity: the first sample from b is
    positive and zeros are ignored, so N is odd where fn < 0.  Monotone count:
    the kernel's u (``_transfer_blocks``) has psi's signs (t < 1) and is a
    Sturm sequence whose d falls as E grows, so N does not decrease.  Each gap
    between the sorted energies holds at least fn's sign flips across it, with
    their parity; where no fn is 0 and the flips add up to N_hi - N_lo, it
    holds exactly those.  Else the count takes one trajectory per ``_CHUNK``
    energies.
    """
    e = np.atleast_1d(np.asarray(energies, dtype=float))
    if 2 < e.size <= _CHUNK:
        e_lo, e_hi = e.min(), e.max()
        ends = _transfer_blocks(grid.from_b, grid.h, np.array([e_lo, e_hi]), path=True)
        n_lo, n_hi = count_sign_changes(ends[1:])
        if n_hi - n_lo < e.size:
            low, high = e == e_lo, e == e_hi
            inside = ~(low | high)
            last = np.where(low, ends[-1, 0], ends[-1, 1])
            last[inside] = _sweep_final(grid.from_b, grid.h, e[inside])
            order = np.argsort(e, kind="stable")
            flips = np.diff(last[order] < 0.0)
            if last.all() and np.count_nonzero(flips) == n_hi - n_lo:
                out = np.empty(e.shape, dtype=int)
                out[order] = n_lo + np.concatenate([[0], np.cumsum(flips)])
                return out.reshape(np.shape(energies)), last.reshape(np.shape(energies))
    out, last = np.empty(e.shape, dtype=int), np.empty(e.shape)
    for lo, _, path in _trajectories(grid, e):
        out[lo : lo + _CHUNK], last[lo : lo + _CHUNK] = count_sign_changes(path[1:]), path[-1]
    return out.reshape(np.shape(energies)), last.reshape(np.shape(energies))


def _stable_grid(spec: WellSpec, n_grid: int, e_hi: float = 0.0) -> _Grid:
    """The even n_grid-cell grid with its window (lo, top) = (max V - 12 / h^2,
    min V + 6 / h^2) of energies where every t = h^2 (V - E) / 12 lies in (-1/2, 1).

    Below lo the solution flips sign every cell at the highest sample; past top a
    step flips it at the lowest and the recurrence stops oscillating.  Every floor
    is nondecreasing, so min V = V(-a), and every level lies in (V(-a), top): at or
    below V(-a), psi from psi(-a) = 0 only grows.  ``ValueError`` when lo >= 0, the
    floor of every scan, or when a finite ``e_hi`` reaches top.
    """
    if _integer(n_grid, "n_grid", 100) % 2:
        raise ValueError(f"n_grid must be even, got {n_grid}")
    xs = np.linspace(-spec.a, spec.b, n_grid + 1)
    h = spec.width / n_grid
    # snap float dust at the step location so the midpoint sample applies
    xs[np.abs(xs) < h * 1e-6] = 0.0
    v = sample(spec, xs)
    lo, top = v.max() - 12.0 / (h * h), v.min() + 6.0 / (h * h)
    if lo >= 0.0:
        need = 2 * int(spec.width * math.sqrt(v.max() / 12.0) / 2.0) + 2
        raise ValueError(f"n_grid={n_grid} is too coarse for a floor of height "
                         f"{v.max():.6g}: Numerov needs n_grid >= {need} here")
    if top <= e_hi < math.inf:
        need = 2 * int(spec.width * math.sqrt((e_hi - v.min()) / 6.0) / 2.0) + 2
        raise ValueError(f"e_max={e_hi!r} reaches {top:.6g}, the top of the {n_grid}-cell grid's "
                         f"spectrum: Numerov needs n_grid >= {need} here")
    v.flags.writeable = False    # so each direction's block plan is built once per grid
    return _Grid(spec, xs, h, v, v[::-1], lo, top)


def shoot(spec: WellSpec, energy: float, n_grid: int) -> float:
    """Shooting mismatch psi(b) for one trial energy inside the n_grid-cell grid's
    window (see ``_stable_grid``); ``ValueError`` at or past either edge, NaN included."""
    grid = _stable_grid(spec, n_grid)
    if not grid.lo < energy < grid.top:
        raise ValueError(f"energy={energy!r} is outside the stable range of the {n_grid}-cell "
                         f"grid: Numerov needs a finite E in ({grid.lo:.6g}, {grid.top:.6g})")
    return float(_sweep_final(grid.v, grid.h, np.asarray([energy]))[0])


def find_spectrum_numeric(spec: WellSpec, e_max: float, n_grid: int) -> list[GridSolution]:
    """Every numeric bound state with 0 < E <= e_max, ordered by energy.

    The roots of the shooting mismatch psi(-a) from b come from the shared
    count-directed root policy, with the count from ``_count_below``, each
    its polished bracket's midpoint, within 4 ``_BISECT_TOL`` max(1, E) of a
    sign change; each state is the Simpson-normalized trajectory from b.  A
    grid too coarse for the floor or for e_max raises ``ValueError``; a state
    whose interior node count is other than n - 1 raises ``NodeCountError``.
    """
    grid = _stable_grid(spec, n_grid, e_max)
    roots = bracket_and_bisect(lambda es: _sweep_final(grid.from_b, grid.h, es),
                               lambda es: _count_below(grid, es),
                               e_max, scan_step(spec.a, spec.b), _BISECT_TOL, replay=False)
    sols = _normalized_solution(grid, roots)
    for s in sols:
        counted = interior_nodes(s)
        if counted != s.n - 1:
            raise NodeCountError(f"numeric state {s.n} at E={s.energy:.9g} shows {counted} "
                                 f"interior nodes, expected {s.n - 1}")
    return sols


def interior_nodes(sol: GridSolution) -> int:
    """Interior sign changes, ignoring samples below 1e-4 of the peak amplitude.

    Genuine nodes of these states always sit where the wavefunction swings at
    order-of-peak amplitude (the matching conditions bound the side-amplitude
    ratio well away from zero).  Roundoff and the sub-tolerance energy error
    perturb the trajectory from b far below the floor, so only an
    unresolved or misindexed eigenvalue changes the count.
    """
    interior = sol.values[1:-1]
    floor = 1e-4 * float(np.max(np.abs(sol.values)))
    negative = interior[np.abs(interior) > floor] < 0.0
    return int(np.count_nonzero(negative[1:] != negative[:-1]))


def _normalized_solution(grid: _Grid, energies) -> list[GridSolution]:
    """The Simpson-normalized state from b at each energy, numbered from 1.

    Its sample at -a is set to 0.  Dividing by the first interior sample signs
    it to rise from -a and scales it before squaring: a deep step leaves
    samples near 1e290, while the left wall is classically allowed at every
    level, so the peak is at most about n_grid / 3 times that sample.  A
    chunk's states are scaled and integrated together, one row each.
    """
    sols = []
    for lo, chunk, paths in _trajectories(grid, np.asarray(energies, dtype=float)):
        paths[-1] = 0.0
        rows = paths[::-1].T
        rows = rows / rows[:, 1:2]
        rows /= np.sqrt(simpson(rows**2, grid.xs))[:, None]
        sols += [GridSolution(spec=grid.spec, n=n, energy=energy, grid=grid.xs, step=grid.h,
                              values=values)
                 for n, (energy, values) in enumerate(zip(chunk.tolist(), rows), start=lo + 1)]
    return sols


def side_probability_numeric(sol: GridSolution) -> float:
    """Simpson quadrature of psi^2 over the left half [-a, 0].

    When the origin falls between grid points, the straddling cell is split
    with linear interpolation of psi^2.
    """
    xs, ys = sol.grid, sol.values**2
    iz = int(np.searchsorted(xs, 0.0, side="right")) - 1
    left = simpson(ys[: iz + 1], xs[: iz + 1])
    if xs[iz] == 0.0:
        return left
    width = -xs[iz]
    frac = width / (xs[iz + 1] - xs[iz])
    y_at_0 = ys[iz] + (ys[iz + 1] - ys[iz]) * frac
    return left + 0.5 * (ys[iz] + y_at_0) * width
