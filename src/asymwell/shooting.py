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

Eigenvalues are the trial energies where the solution from psi(b) = 0
crosses zero at x = -a.  Since the recurrence is linear, psi(-a) is a
product of 2x2 step matrices; the sweep multiplies them in blocks of 32
cells, vectorized over blocks and energies with the ~125 blocks innermost
(most calls hold 2-10 energies, too few for a numpy inner loop), then
carries the state through the blocks in order, rescaling an energy after
each block that leaves its state past the overflow cap: one energy at a time
in Python floats for up to 16 energies (10 for a trajectory), where a numpy
call costs more than its arithmetic, else all energies per block in numpy,
with the same bits.

A converged state is the solution from psi(b) = 0, one backward trajectory
per 32 states.  Every floor ``WellSpec`` accepts is nondecreasing, so the only
barrier lies toward b, and the pass from b is the mode that decays into it,
so the node check sees a clean tail.  Its sample at -a, the converged
energy's residual, is set to the boundary value 0, and each state is signed
to rise from -a.  The solution from b also gives the Sturm count, its sign
changes, whose parity is the sign of its psi(-a), which gives each root its
own bracket in the root policy: from its trajectories at the lowest and highest
trial energy and one sweep over all, as the count does not decrease with E,
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
_RENORM_CAP = 1e250          # rescale the running solution past this magnitude
_RENORM = 1.0 / _RENORM_CAP  # by this factor, exactly 1e-250
_BLOCK = 32                  # Numerov steps multiplied together per transfer block
_BLOCK_GROWTH = 1e40         # bound on one block's amplification, far below 1e308 / cap
_CHUNK = 32                  # trial energies per pass or count sweep; at 4000 cells 4.5 MB peak
_NARROW = {False: 16, True: 10}  # widest chunk carried per energy in floats: sweep, trajectory


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


def _build_grid(spec: WellSpec, n_grid: int) -> tuple[np.ndarray, float]:
    if _integer(n_grid, "n_grid", 100) % 2:
        raise ValueError(f"n_grid must be even, got {n_grid}")
    xs = np.linspace(-spec.a, spec.b, n_grid + 1)
    h = spec.width / n_grid
    # snap float dust at the step location so the midpoint sample applies
    xs[np.abs(xs) < h * 1e-6] = 0.0
    return xs, h


def _transfer_blocks(v: np.ndarray, h: float, e: np.ndarray, path: bool) -> np.ndarray:
    """Numerov solutions from psi = 0 at the first sample of ``v`` for the energies ``e``.

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

    Returns psi at the last sample per energy, or with ``path`` the whole
    trajectory, shape (len(v), len(e)), every sample at its column's final
    rescale level.
    """
    c = h * h / 12.0
    n, m = len(v) - 2, e.size
    # sup-norm bound on one step matrix, |A_i| + |B_i|, over the grid's window from E = 0 up
    # (t > -1/2 below its top), so no call mate moves the block length; callers keep t_hi < 1
    t_lo, t_hi = -0.5, c * (v.max() - min(e.min(), 0.0))
    g = (max(abs(2.0 + 10.0 * t_lo), abs(2.0 + 10.0 * t_hi)) + 1.0 - t_lo) / (1.0 - t_hi)
    k = max(1, min(_BLOCK, int(math.log(_BLOCK_GROWTH) / math.log(g))))
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
    blk, j = divmod(n, k)               # the padding past step n is the identity
    a_mat[j:, :, blk:] = 1.0
    b_mat[j:, :, blk:] = 0.0

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
    """psi at the last sample of ``v`` from psi = 0 at its first, for each trial
    energy (vectorized): psi(b), or on ``v[::-1]`` psi(-a), whose zeros are eigenvalues."""
    e = np.atleast_1d(np.asarray(energies, dtype=float))
    out = np.empty(e.shape)
    for lo in range(0, e.size, _CHUNK):
        out[lo : lo + _CHUNK] = _transfer_blocks(v, h, e[lo : lo + _CHUNK], path=False)
    return out


def count_sign_changes(values: np.ndarray) -> np.ndarray:
    """Sign alternations of the nonzero entries along axis 0 (zeros ignored)."""
    s = np.sign(values)
    if not s.all():           # carry the last nonzero sign across each zero
        last = np.where(s != 0.0, np.arange(len(s)).reshape((-1,) + (1,) * (s.ndim - 1)), 0)
        np.maximum.accumulate(last, axis=0, out=last)
        s = np.take_along_axis(s, last, axis=0)
    return np.sum(s[1:] * s[:-1] < 0.0, axis=0)


def _count_below(v: np.ndarray, h: float, energies) -> tuple[np.ndarray, np.ndarray]:
    """Sturm count, the states below each energy, and the root policy's fn
    there: the sign changes of the solution from psi(b) = 0, which crosses the
    barrier first, so no rescale can zero its nodes, and its last sample psi(-a).

    3 to ``_CHUNK`` energies take trajectories at the lowest and highest only,
    for N_lo and N_hi, and, where N_hi - N_lo is below their number, fn from one
    sweep, with the bits of a trajectory's last sample.  Two facts hold inside
    the grid's window, where the callers keep every energy (``_stable_grid``).
    Parity: the first sample from b is positive and zeros are ignored, so N is
    odd where fn < 0.  Monotone count: with t < 1, u = (1 - t) psi keeps psi's
    signs and u[i+1] + u[i-1] = d[i] u[i], d = (2 + 10 t) / (1 - t), a Sturm
    sequence whose d falls as E grows, so N does not decrease.  Each gap between
    the sorted energies holds at least fn's sign flips across it, with their
    parity; where no fn is 0 and the flips add up to N_hi - N_lo, it holds
    exactly those.  Else the count takes one trajectory per ``_CHUNK`` energies.
    """
    e = np.atleast_1d(np.asarray(energies, dtype=float))
    if 2 < e.size <= _CHUNK:
        ends = _transfer_blocks(v[::-1], h, np.array([e.min(), e.max()]), path=True)
        n_lo, n_hi = count_sign_changes(ends[1:])
        if n_hi - n_lo < e.size:
            last = _sweep_final(v[::-1], h, e)
            order = np.argsort(e, kind="stable")
            flips = np.diff(last[order] < 0.0)
            if last.all() and np.count_nonzero(flips) == n_hi - n_lo:
                out = np.empty(e.shape, dtype=int)
                out[order] = n_lo + np.concatenate([[0], np.cumsum(flips)])
                return out.reshape(np.shape(energies)), last.reshape(np.shape(energies))
    out, last = np.empty(e.shape, dtype=int), np.empty(e.shape)
    for lo in range(0, e.size, _CHUNK):
        path = _transfer_blocks(v[::-1], h, e[lo : lo + _CHUNK], path=True)
        out[lo : lo + _CHUNK], last[lo : lo + _CHUNK] = count_sign_changes(path[1:]), path[-1]
    return out.reshape(np.shape(energies)), last.reshape(np.shape(energies))


def _stable_grid(spec: WellSpec, n_grid: int, e_hi: float = 0.0):
    """Grid, spacing, sampled floor and the window (lo, top) = (max V - 12 / h^2,
    min V + 6 / h^2) of energies where every t = h^2 (V - E) / 12 lies in (-1/2, 1).

    Below lo the solution flips sign every cell at the highest sample; past top a
    step flips it at the lowest and the recurrence stops oscillating.  Every floor
    is nondecreasing, so min V = V(-a), and every level lies in (V(-a), top): at or
    below V(-a), psi from psi(-a) = 0 only grows.  ``ValueError`` when lo >= 0, the
    floor of every scan, or when a finite ``e_hi`` reaches top.
    """
    xs, h = _build_grid(spec, n_grid)
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
    return xs, h, v, lo, top


def shoot(spec: WellSpec, energy: float, n_grid: int) -> float:
    """Shooting mismatch psi(b) for one trial energy inside the n_grid-cell grid's
    window (see ``_stable_grid``); ``ValueError`` at or past either edge, NaN included."""
    _, h, v, lo, top = _stable_grid(spec, n_grid)
    if not lo < energy < top:
        raise ValueError(f"energy={energy!r} is outside the stable range of the {n_grid}-cell "
                         f"grid: Numerov needs a finite E in ({lo:.6g}, {top:.6g})")
    return float(_sweep_final(v, h, np.asarray([energy]))[0])


def find_spectrum_numeric(spec: WellSpec, e_max: float, n_grid: int) -> list[GridSolution]:
    """Every numeric bound state with 0 < E <= e_max, ordered by energy.

    The roots of the shooting mismatch psi(-a) from b come from the shared
    count-directed root policy, with the count from ``_count_below``; each
    state is the Simpson-normalized trajectory from b.  A grid too coarse for
    the floor or for e_max raises ``ValueError``; a state whose interior node
    count is other than n - 1 raises ``NodeCountError``.
    """
    xs, h, v, _, _ = _stable_grid(spec, n_grid, e_max)
    roots = bracket_and_bisect(lambda es: _sweep_final(v[::-1], h, es),
                               lambda es: _count_below(v, h, es),
                               e_max, scan_step(spec.a, spec.b), _BISECT_TOL)
    sols = _normalized_solution(spec, xs, v, h, roots)
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
    return count_sign_changes(np.where(np.abs(interior) > floor, interior, 0.0))


def _normalized_solution(spec, xs, v, h, energies) -> list[GridSolution]:
    """The Simpson-normalized state from b at each energy, numbered from 1.

    Its sample at -a is set to 0.  Dividing by the first interior sample signs
    it to rise from -a and scales it before squaring: a deep step leaves
    samples near 1e290, while the left wall is classically allowed at every
    level, so the peak is at most about n_grid / 3 times that sample.
    """
    e = np.asarray(energies, dtype=float)
    sols = []
    for lo in range(0, e.size, _CHUNK):
        chunk = e[lo : lo + _CHUNK]
        paths = _transfer_blocks(v[::-1], h, chunk, path=True)[::-1]
        paths[0] = 0.0
        for n, (energy, values) in enumerate(zip(chunk.tolist(), paths.T), start=lo + 1):
            values = values / values[1]
            sols.append(GridSolution(spec=spec, n=n, energy=energy, grid=xs, step=h,
                                     values=values / math.sqrt(simpson(values**2, xs))))
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
