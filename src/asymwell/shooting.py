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
in blocks of 32 cells, vectorized over blocks and energies, then carries the
state through the blocks in order with a positive rescale against overflow.

A converged state is stitched from both walls: the forward solution up to its
largest |psi| among the classically allowed samples at or left of the step,
then the solution from b, which under a barrier is the decaying mode itself,
so the node check sees a clean tail (B. R. Johnson, J. Chem. Phys. 69, 4678
(1978), integrates from both ends for the same reason).  The solution from b
also gives the Sturm count, one trajectory per 32 trial energies, that gives
each root its own bracket in the shared root policy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rootscan import bracket_and_bisect, count_sign_changes, scan_step
from ._simpson import simpson
from .potential import WellSpec, sample

__all__ = ["GridSolution", "NodeCountError", "shoot", "find_spectrum_numeric",
           "interior_nodes",
           "side_probability_numeric"]

_BISECT_TOL = 1e-12          # relative; well inside the 1e-9 contract
_RENORM_CAP = 1e250          # rescale the running solution past this magnitude
_BLOCK = 32                  # Numerov steps multiplied together per transfer block
_BLOCK_GROWTH = 1e40         # bound on one block's amplification, far below 1e308 / cap
_CHUNK = 32                  # trial energies per pass; temporaries stay near 1 MB


class NodeCountError(RuntimeError):
    """A numeric state's interior node count disagrees with its index."""


@dataclass(frozen=True, eq=False)
class GridSolution:
    """One numeric eigenstate sampled on a uniform grid over [-a, b].

    ``values`` is normalized to unit Simpson norm, with the sign fixed so the
    wavefunction rises from the left wall (matching the amp_left > 0
    convention of the closed-form states).
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


def _transfer_blocks(v: np.ndarray, h: float, e: np.ndarray, path: bool) -> np.ndarray:
    """Forward Numerov solutions from psi(-a) = 0 for the energies ``e``.

    Step i maps (psi[i], psi[i-1]) to (psi[i+1], psi[i]) by the matrix
    [[A_i, -B_i], [1, 0]].  The steps are grouped into blocks of up to
    ``_BLOCK`` cells; each block's product is formed by running the two basis
    solutions through it, vectorized over all blocks and energies.  The state
    is then carried through the blocks one after another, with the positive
    ``_RENORM_CAP`` rescale applied between blocks.  A block is short enough
    that its amplification stays below ``_BLOCK_GROWTH``, so the carry cannot
    overflow between two checks.

    Returns psi(b) per energy, or with ``path`` the whole trajectory, shape
    (len(v), len(e)), with every rescale applied to the earlier samples too.
    """
    c = h * h / 12.0
    n, m = len(v) - 2, e.size
    # sup-norm bound on one step matrix over the chunk: |A_i| + |B_i|
    t_lo, t_hi = c * (v.min() - e.max()), c * (v.max() - e.min())
    if t_hi < 1.0:
        g = (max(abs(2.0 + 10.0 * t_lo), abs(2.0 + 10.0 * t_hi)) + 1.0 - t_lo) / (1.0 - t_hi)
        k = max(1, min(_BLOCK, int(math.log(_BLOCK_GROWTH) / math.log(g))))
        growth = g**k
    else:  # grid too coarse for a bound: one cell per block, checked every cell
        k, growth = 1, math.inf
    nb = -(-n // k)
    # step i = 1 + j + k*b sits at [j, b]; steps past the last one repeat psi
    step = np.minimum(np.arange(nb * k).reshape(nb, k).T, n - 1)
    den = (1.0 - c * v[step + 2])[..., None] + c * e
    a_mat = (2.0 + 10.0 * c * v[step + 1])[..., None] - 10.0 * c * e
    a_mat /= den
    b_mat = (1.0 - c * v[step])[..., None] + c * e
    b_mat /= den
    del den
    tail = n - (nb - 1) * k
    a_mat[tail:, -1] = 1.0
    b_mat[tail:, -1] = 0.0

    # hist[(j + 1) % depth, s] is basis solution s after j steps into each
    # block; basis 0 starts from (psi, psi_prev) = (1, 0), basis 1 from (0, 1).
    # Only a trajectory keeps every step; a sweep cycles through three slots.
    depth = k + 2 if path else 3
    hist = np.empty((depth, 2, nb, m))
    hist[0, 0], hist[0, 1], hist[1, 0], hist[1, 1] = 0.0, 1.0, 1.0, 0.0
    tmp = np.empty((2, nb, m))
    for j in range(k):
        nxt = hist[(j + 2) % depth]
        np.multiply(a_mat[j], hist[(j + 1) % depth], out=nxt)
        np.multiply(b_mat[j], hist[j % depth], out=tmp)
        nxt -= tmp
    # block transfer matrices, rows (psi, psi_prev) by basis columns
    ends = [(k + 1) % depth, k % depth]
    blocks = np.ascontiguousarray(hist[ends].transpose(2, 0, 1, 3))
    del a_mat, b_mat, tmp    # a trajectory's samples need the room

    state = np.zeros((2, m))
    state[0] = h * (1.0 + h * h * (v[0] - e) / 6.0)
    bound = float(np.abs(state).max())
    if path:
        starts = np.empty((nb, 2, m))
        levels = np.zeros((nb, m))
        level = np.zeros(m)
    for blk in range(nb):
        if path:
            starts[blk], levels[blk] = state, level
        state = (blocks[blk] * state).sum(axis=1)
        bound *= growth
        if bound > _RENORM_CAP:
            big = np.abs(state).max(axis=0) > _RENORM_CAP
            state[:, big] *= 1e-250
            if path:
                level[big] += 1
            bound = float(np.abs(state).max())
    if not path:
        return state[0]
    out = np.empty((nb * k + 2, m))
    out[0], out[-1] = 0.0, state[0]
    inner = out[1:-1].reshape(nb, k, m).transpose(1, 0, 2)  # (k, nb, m) view, filled in place
    np.multiply(hist[1 : k + 1, 0], starts[:, 0], out=inner)
    inner += hist[1 : k + 1, 1] * starts[:, 1]
    inner *= 1e-250 ** (level - levels)
    return out[: n + 2]


def _sweep_final(v: np.ndarray, h: float, energies: np.ndarray) -> np.ndarray:
    """psi(b) for each trial energy (vectorized); zeros of this are eigenvalues."""
    e = np.atleast_1d(np.asarray(energies, dtype=float))
    out = np.empty(e.shape)
    for lo in range(0, e.size, _CHUNK):
        out[lo : lo + _CHUNK] = _transfer_blocks(v, h, e[lo : lo + _CHUNK], path=False)
    return out


def _sweep_full(v: np.ndarray, h: float, energy: float, split: int) -> np.ndarray:
    """Whole trajectory at one energy, stitched from both walls.

    ``split`` is the last grid index at or left of the step.  The forward
    solution from -a is kept up to its largest |psi| among the classically
    allowed samples in [0, split]; the backward solution from b, scaled to
    agree there, supplies the rest.  Each half is then integrated toward the
    barrier it faces, so under a barrier it is the decaying mode itself
    rather than a growing one cancelled by roundoff.
    """
    e = np.asarray([float(energy)])
    allowed = np.flatnonzero(v[: split + 1] <= energy)
    stop = max(int(allowed[-1]) if allowed.size else split, 2)
    fwd = _transfer_blocks(v[: stop + 1], h, e, path=True)[:, 0]
    match = int(np.argmax(np.abs(fwd)))
    bwd = _transfer_blocks(v[match:][::-1], h, e, path=True)[::-1, 0]
    return np.concatenate([fwd[:match], bwd * (fwd[match] / bwd[0])])


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
    """Grid, spacing and sampled floor; a grid too coarse for the floor raises
    ``ValueError``, since the recurrence flips sign every cell where
    h^2 V / 12 >= 1."""
    xs, h = _build_grid(spec, n_grid)
    v = sample(spec, xs)
    if h * h * v.max() >= 12.0:
        need = 2 * int(spec.width * math.sqrt(v.max() / 12.0) / 2.0) + 2
        raise ValueError(f"n_grid={n_grid} is too coarse for a floor of height "
                         f"{v.max():.6g}: Numerov needs n_grid >= {need} here")
    return xs, h, v


def shoot(spec: WellSpec, energy: float, n_grid: int) -> float:
    """Shooting mismatch psi(b) for one trial energy on an n_grid-cell grid."""
    _, h, v = _stable_grid(spec, n_grid)
    return float(_sweep_final(v, h, np.asarray([energy]))[0])


def find_spectrum_numeric(spec: WellSpec, e_max: float, n_grid: int) -> list[GridSolution]:
    """Every numeric bound state with 0 < E <= e_max, ordered by energy.

    The roots of the shooting mismatch psi(b) come from the shared
    count-directed root policy, with the count from ``_count_below``; each
    state is the Simpson-normalized two-sided trajectory.  A grid too coarse
    for the floor raises ``ValueError``; a bad stitch (interior node count
    other than n - 1) raises ``NodeCountError``.
    """
    if not e_max > 0:
        raise ValueError(f"e_max must be positive, got {e_max}")
    xs, h, v = _stable_grid(spec, n_grid)
    roots = bracket_and_bisect(lambda es: _sweep_final(v, h, es),
                               lambda es: _count_below(v, h, es),
                               e_max, scan_step(spec.a, spec.b), _BISECT_TOL)
    sols = [_normalized_solution(spec, xs, v, h, e, n) for n, e in enumerate(roots, start=1)]
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


def _normalized_solution(spec, xs, v, h, energy, n) -> GridSolution:
    split = int(np.searchsorted(xs, 0.0, side="right")) - 1
    values = _sweep_full(v, h, energy, split)
    norm = simpson(values**2, xs)
    values = values / math.sqrt(norm)
    if values[1] < 0:
        values = -values
    return GridSolution(spec=spec, n=n, energy=energy, grid=xs, values=values, step=h)


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
