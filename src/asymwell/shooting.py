"""Numerov shooting solver for smoothed wells (and the sharp step as a cross-check).

The three-term Numerov recurrence for psi'' = f(x) psi,

    (1 - t[i+1]) psi[i+1] = (2 + 10 t[i]) psi[i] - (1 - t[i-1]) psi[i-1],
    t = h^2 f / 12,

is fourth-order accurate for smooth f.  Across the sharp step the order drops
to h^2 even with the v0/2 midpoint sample, so for smoothing=None the
closed-form solver remains authoritative and this one is a consistency check.

Eigenvalues are the trial energies where the forward solution from
psi(-a) = 0, psi'(-a) = 1 crosses zero at x = b.  Since the recurrence is
linear, psi(b) is a product of 2x2 step matrices; the sweep multiplies them
in blocks of 32 cells, vectorized over blocks and energies with the ~125
blocks innermost (most calls hold 2-10 energies, too few for a numpy inner
loop), then carries the state through the blocks in order, rescaling an
energy after each block that leaves its state past the overflow cap: one
energy at a time in Python floats for up to 16 energies (10 for a
trajectory), where a numpy call costs more than its arithmetic, else all
energies per block in numpy, with the same bits.

A converged state is stitched from both walls: the forward solution up to its
largest |psi| among the classically allowed samples at or left of the step,
then the solution from b, which under a barrier is the decaying mode itself,
so the node check sees a clean tail (B. R. Johnson, J. Chem. Phys. 69, 4678
(1978), integrates from both ends for the same reason).  All states of a
spectrum share the trajectories: per 32 of them, one forward pass as far as
the last of them needs it and one backward pass from b.  Every step past a
column's own end is the identity, so the column is the pass of its own that
ends there, rescales included, and repeats its last sample beyond it.  The
solution from b also gives the Sturm count, its sign changes over one
trajectory per 32 trial energies, that gives each root its own bracket in the
shared root policy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rootscan import bracket_and_bisect, scan_step
from ._simpson import simpson
from .potential import WellSpec, sample

__all__ = ["GridSolution", "NodeCountError", "shoot", "find_spectrum_numeric",
           "interior_nodes",
           "side_probability_numeric"]

_BISECT_TOL = 1e-12          # relative; well inside the 1e-9 contract
_RENORM_CAP = 1e250          # rescale the running solution past this magnitude
_RENORM = 1.0 / _RENORM_CAP  # by this factor, exactly 1e-250
_BLOCK = 32                  # Numerov steps multiplied together per transfer block
_BLOCK_GROWTH = 1e40         # bound on one block's amplification, far below 1e308 / cap
_CHUNK = 32                  # trial energies per pass; at 4000 cells ~1 MB per array, 4.5 MB peak
_NARROW = {False: 16, True: 10}  # widest chunk carried per energy in floats: sweep, trajectory


class NodeCountError(RuntimeError):
    """A numeric state's interior node count disagrees with its index."""


@dataclass(frozen=True, eq=False)
class GridSolution:
    """One numeric eigenstate sampled on a uniform grid over [-a, b].

    ``values`` is normalized to unit Simpson norm and rises from the left wall
    (the amp_left > 0 convention of the closed-form states): its energy lies in
    the grid's spectrum, where the forward pass starts positive (``_e_top``).
    """

    spec: WellSpec
    n: int
    energy: float
    grid: np.ndarray
    values: np.ndarray
    step: float


def _build_grid(spec: WellSpec, n_grid: int) -> tuple[np.ndarray, float]:
    if n_grid < 100 or n_grid % 2 != 0:
        raise ValueError(f"n_grid must be an even integer >= 100, got {n_grid}")
    xs = np.linspace(-spec.a, spec.b, n_grid + 1)
    h = spec.width / n_grid
    # snap float dust at the step location so the midpoint sample applies
    xs[np.abs(xs) < h * 1e-6] = 0.0
    return xs, h


def _t_max(v: np.ndarray, h: float, energy: float) -> float:
    """h^2 (max V - E) / 12: the recurrence is stable below 1, and past it flips sign every cell."""
    return h * h / 12.0 * (v.max() - energy)


def _e_top(v: np.ndarray, h: float) -> float:
    """min V + 6 / h^2, the top of the grid's spectrum: past it h^2 (V - E) / 12 < -1/2 at the
    lowest sample, where a step flips the sign of psi and the recurrence stops oscillating.
    Every floor ``WellSpec`` accepts is nondecreasing, so min V = V(-a), and every level lies in
    (V(-a), top): at or below V(-a) each t >= 0 and psi from psi(-a) = 0 only grows, and below
    the top the forward pass's first interior sample h (1 + h^2 (V(-a) - E) / 6) is positive."""
    return v.min() + 6.0 / (h * h)


def _transfer_blocks(v: np.ndarray, h: float, e: np.ndarray, path: bool,
                     ends: np.ndarray | None = None) -> np.ndarray:
    """Forward Numerov solutions from psi(-a) = 0 for the energies ``e``.

    Step i maps (psi[i], psi[i-1]) to (psi[i+1], psi[i]) by the matrix
    [[A_i, -B_i], [1, 0]].  The steps are grouped into blocks of up to
    ``_BLOCK`` cells; each block's product is formed by running the two basis
    solutions through it, vectorized over all blocks and energies.  Its arrays
    are laid out (step in block k, energy m, block nb): blocks innermost, so
    every numpy operation runs along the nb blocks, not the few energies of a
    typical chunk.  The state
    is then carried through the blocks one after another: one energy at a
    time in Python floats for a chunk of at most ``_NARROW[path]`` energies,
    all energies per block in numpy for a wider one.  Both make the same float
    operations in the same order and scale an energy by ``_RENORM`` after each
    block that leaves its |psi| or |psi_prev| past ``_RENORM_CAP``: numpy checks
    once a bound on the chunk's largest state passes the cap, as it does at
    every such block, then scales only the energies past it.  A block is short
    enough that its amplification stays below ``_BLOCK_GROWTH``, so the carry
    cannot overflow between two checks.

    Every step past a column's end, its entry of ``ends`` (default the last
    sample), is the identity (A = 1, B = 0), so psi[end] repeats there and the
    column is a pass over ``v[: end + 1]`` of its own: the same block products,
    carry, rescale checks and levels.  Returns psi(b) per energy, or with
    ``path`` the whole trajectory as far as the furthest end, shape
    (max(ends) + 1, len(e)), every sample at its column's final rescale level.
    """
    if ends is not None:
        v = v[: int(ends.max()) + 1]
    c = h * h / 12.0
    n, m = len(v) - 2, e.size
    # sup-norm bound on one step matrix over the chunk, |A_i| + |B_i|; callers keep t_hi < 1
    t_lo, t_hi = c * (v.min() - e.max()), _t_max(v, h, e.min())
    g = (max(abs(2.0 + 10.0 * t_lo), abs(2.0 + 10.0 * t_hi)) + 1.0 - t_lo) / (1.0 - t_hi)
    k = max(1, min(_BLOCK, int(math.log(_BLOCK_GROWTH) / math.log(g)))) if g > 1.0 else _BLOCK
    growth = g**k
    nb = -(-n // k)
    # step i = 1 + j + k*b sits at [j, :, b]
    step = np.minimum(np.arange(nb * k).reshape(nb, k).T, n - 1)[:, None]
    ce = c * e[:, None]
    a_mat, b_mat = np.empty((2, k, m, nb))
    den = np.add(1.0 - c * v[step + 2], ce, out=b_mat)    # until B is formed over it
    np.subtract(2.0 + 10.0 * c * v[step + 1], 10.0 * c * e[:, None], out=a_mat)
    a_mat /= den
    np.divide((1.0 - c * v[step]) + ce, den, out=b_mat)
    for col, end in [(slice(None), n + 1)] if ends is None else enumerate(ends):
        blk, j = divmod(end - 1, k)     # step ``end`` is the first past the end
        a_mat[j:, col, blk : blk + 1] = a_mat[:, col, blk + 1 :] = 1.0
        b_mat[j:, col, blk : blk + 1] = b_mat[:, col, blk + 1 :] = 0.0

    # hist[(j + 1) % depth, s] is basis solution s after j steps into each
    # block; basis 0 starts from (psi, psi_prev) = (1, 0), basis 1 from (0, 1).
    # Only a trajectory keeps every step; a sweep cycles through three slots.
    depth = k + 2 if path else 3
    hist = np.empty((depth, 2, m, nb))
    hist[0, 0], hist[0, 1], hist[1, 0], hist[1, 1] = 0.0, 1.0, 1.0, 0.0
    tmp = np.empty((2, m, nb))
    for j in range(k):
        nxt = hist[(j + 2) % depth]
        np.multiply(a_mat[j], hist[(j + 1) % depth], out=nxt)
        np.multiply(b_mat[j], hist[j % depth], out=tmp)
        nxt -= tmp
    # block transfer matrices, rows (psi, psi_prev) by basis columns
    blocks = hist[[(k + 1) % depth, k % depth]]
    del a_mat, b_mat, den, tmp    # a trajectory's samples need the room

    state = np.zeros((2, m))
    state[0] = h * (1.0 + h * h * (v[0] - e) / 6.0)
    fired = np.zeros((m, nb), dtype=bool)
    if m <= _NARROW[path]:
        cap, ncap, starts, last = _RENORM_CAP, -_RENORM_CAP, [], []
        rows = blocks.transpose(2, 3, 0, 1).reshape(m, -1).tolist()
        for i, (flat, s0) in enumerate(zip(rows, state[0].tolist())):
            s1, it, seen = 0.0, iter(flat), []
            for blk, (b00, b01, b10, b11) in enumerate(zip(it, it, it, it)):
                if path:
                    seen += s0, s1
                s0, s1 = b00 * s0 + b01 * s1, b10 * s0 + b11 * s1
                if s0 > cap or s0 < ncap or s1 > cap or s1 < ncap:
                    s0, s1 = s0 * _RENORM, s1 * _RENORM
                    fired[i, blk] = True
            starts.append(seen)
            last.append((s0, s1))
        state, starts = np.array(last).T, np.array(starts).reshape(m, -1, 2).transpose(2, 0, 1)
    else:
        blocks = np.ascontiguousarray(blocks.transpose(3, 0, 1, 2))
        bound = float(np.abs(state).max())
        starts = np.empty((2, m, nb)) if path else None
        for blk in range(nb):
            if path:
                starts[..., blk] = state
            state = (blocks[blk] * state).sum(axis=1)
            bound *= growth
            if bound > _RENORM_CAP:
                big = np.abs(state).max(axis=0) > _RENORM_CAP
                state[:, big] *= _RENORM
                fired[:, blk] = big
                bound = float(np.abs(state).max())
    if not path:
        return state[0]
    # the samples, formed in place in hist (no temporary), then written one energy per row
    hist[1 : k + 1] *= starts
    inner = hist[1 : k + 1, 0]
    inner += hist[1 : k + 1, 1]
    # samples in block blk take the rescales at the ends of blocks blk, blk+1, ...
    if fired.any():
        inner *= _RENORM ** np.cumsum(fired[:, ::-1], axis=1)[:, ::-1]
    out = np.empty((m, nb * k + 2))
    out[:, 0], out[:, -1] = 0.0, state[0]
    out[:, 1:-1].reshape(m, nb, k).transpose(2, 0, 1)[...] = inner
    return out[:, : n + 2].T


def _sweep_final(v: np.ndarray, h: float, energies: np.ndarray) -> np.ndarray:
    """psi(b) for each trial energy (vectorized); zeros of this are eigenvalues."""
    e = np.atleast_1d(np.asarray(energies, dtype=float))
    out = np.empty(e.shape)
    for lo in range(0, e.size, _CHUNK):
        out[lo : lo + _CHUNK] = _transfer_blocks(v, h, e[lo : lo + _CHUNK], path=False)
    return out


def _stitched(v: np.ndarray, h: float, energies, split: int) -> np.ndarray:
    """Trajectories at the given energies, stitched from both walls, one row each.

    ``split`` is the last grid index at or left of the step.  The forward
    solution from -a is kept up to its largest |psi| among the classically
    allowed samples in [0, split]; the backward solution from b, scaled to
    agree there, supplies the rest.  Each half is then integrated toward the
    barrier it faces, so under a barrier it is the decaying mode itself
    rather than a growing one cancelled by roundoff.

    Each chunk of energies takes one forward and one backward pass, every
    column ending where its own pass would.  Past its stop a forward column
    repeats psi[stop], so the first largest |psi| lies at or before the stop.
    A row is the stitch of its own two single-energy passes bit for bit
    whenever the chunk's block length is theirs: blocks stay at the full 32
    cells while h^2 (max V - E) / 12 is below about 0.5.
    """
    e = np.asarray(energies, dtype=float)
    allowed = v[: split + 1, None] <= e
    stop = np.maximum(split - np.argmax(allowed[::-1], axis=0), 2)
    out = np.empty((e.size, len(v)))
    for lo in range(0, e.size, _CHUNK):
        sl = slice(lo, lo + _CHUNK)
        fwd = _transfer_blocks(v, h, e[sl], path=True, ends=stop[sl])
        match = np.argmax(np.abs(fwd), axis=0)
        # the backward trajectory ends at v[-1], so it is indexed from the end
        bwd = _transfer_blocks(v[::-1], h, e[sl], path=True, ends=len(v) - 1 - match)[::-1]
        for col, (row, j) in enumerate(zip(out[sl], match)):
            row[:j] = fwd[:j, col]
            row[j:] = bwd[j - len(v) :, col] * (fwd[j, col] / bwd[j - len(v), col])
    return out


def count_sign_changes(values: np.ndarray) -> np.ndarray:
    """Sign alternations of the nonzero entries along axis 0 (zeros ignored)."""
    s = np.sign(values)
    if not s.all():           # carry the last nonzero sign across each zero
        last = np.where(s != 0.0, np.arange(len(s)).reshape((-1,) + (1,) * (s.ndim - 1)), 0)
        np.maximum.accumulate(last, axis=0, out=last)
        s = np.take_along_axis(s, last, axis=0)
    return np.sum(s[1:] * s[:-1] < 0.0, axis=0)


def _count_below(v: np.ndarray, h: float, energies) -> np.ndarray:
    """Sturm count: states below each energy, the sign changes of the solution
    from psi(b) = 0; it crosses the barrier first, so no rescale can zero its
    nodes."""
    e = np.atleast_1d(np.asarray(energies, dtype=float))
    out = np.empty(e.shape, dtype=int)
    for lo in range(0, e.size, _CHUNK):
        path = _transfer_blocks(v[::-1], h, e[lo : lo + _CHUNK], path=True)
        out[lo : lo + _CHUNK] = count_sign_changes(path[1:])
    return out.reshape(np.shape(energies))


def _stable_grid(spec: WellSpec, n_grid: int) -> tuple[np.ndarray, float, np.ndarray]:
    """Grid, spacing and sampled floor; ``ValueError`` where the recurrence is
    unstable at E = 0, and so at every energy the solvers scan."""
    xs, h = _build_grid(spec, n_grid)
    v = sample(spec, xs)
    if not _t_max(v, h, 0.0) < 1.0:
        need = 2 * int(spec.width * math.sqrt(v.max() / 12.0) / 2.0) + 2
        raise ValueError(f"n_grid={n_grid} is too coarse for a floor of height "
                         f"{v.max():.6g}: Numerov needs n_grid >= {need} here")
    return xs, h, v


def shoot(spec: WellSpec, energy: float, n_grid: int) -> float:
    """Shooting mismatch psi(b) for one finite trial energy, stable on an n_grid-cell grid."""
    _, h, v = _stable_grid(spec, n_grid)
    if not (math.isfinite(energy) and _t_max(v, h, energy) < 1.0):
        raise ValueError(f"energy={energy!r} is outside the stable range of the {n_grid}-cell "
                         f"grid: Numerov needs a finite E above {v.max() - 12.0 / (h * h):.6g}")
    return float(_sweep_final(v, h, np.asarray([energy]))[0])


def find_spectrum_numeric(spec: WellSpec, e_max: float, n_grid: int) -> list[GridSolution]:
    """Every numeric bound state with 0 < E <= e_max, ordered by energy.

    The roots of the shooting mismatch psi(b) come from the shared
    count-directed root policy, with the count from ``_count_below``; each
    state is the Simpson-normalized two-sided trajectory.  A grid too coarse
    for the floor or for e_max raises ``ValueError``; a bad stitch (interior
    node count other than n - 1) raises ``NodeCountError``.
    """
    xs, h, v = _stable_grid(spec, n_grid)
    if (top := _e_top(v, h)) <= e_max < math.inf:
        need = 2 * int(spec.width * math.sqrt((e_max - v.min()) / 6.0) / 2.0) + 2
        raise ValueError(f"e_max={e_max!r} reaches {top:.6g}, the top of the {n_grid}-cell grid's "
                         f"spectrum: Numerov needs n_grid >= {need} here")
    roots = bracket_and_bisect(lambda es: _sweep_final(v, h, es),
                               lambda es: _count_below(v, h, es),
                               e_max, scan_step(spec.a, spec.b), _BISECT_TOL)
    sols = _normalized_solution(spec, xs, v, h, roots)
    for s in sols:
        counted = interior_nodes(s)
        if counted != s.n - 1:
            raise NodeCountError(f"numeric state {s.n} at E={s.energy:.9g} shows {counted} "
                                 f"interior nodes, expected {s.n - 1}: bad stitch")
    return sols


def interior_nodes(sol: GridSolution) -> int:
    """Interior sign changes, ignoring samples below 1e-4 of the peak amplitude.

    Genuine nodes of these states always sit where the wavefunction swings at
    order-of-peak amplitude (the matching conditions bound the side-amplitude
    ratio well away from zero).  Roundoff and the sub-tolerance energy error
    perturb the stitched trajectory far below the floor, so only an
    unresolved or misindexed eigenvalue changes the count.
    """
    interior = sol.values[1:-1]
    floor = 1e-4 * float(np.max(np.abs(sol.values)))
    return count_sign_changes(np.where(np.abs(interior) > floor, interior, 0.0))


def _normalized_solution(spec, xs, v, h, energies) -> list[GridSolution]:
    """The Simpson-normalized stitched state at each energy, numbered from 1."""
    split = int(np.searchsorted(xs, 0.0, side="right")) - 1
    stitched = _stitched(v, h, energies, split)
    return [GridSolution(spec=spec, n=n, energy=energy, grid=xs, step=h,
                         values=values / math.sqrt(simpson(values**2, xs)))
            for n, (energy, values) in enumerate(zip(energies, stitched), start=1)]


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
