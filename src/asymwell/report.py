"""CLI front-end: emits spectra, wavefunctions, comparisons, smoothing studies,
and momentum densities as reproducible CSV or JSON tables.

Every table carries the full run configuration (as ``#`` header lines in CSV,
as a ``config`` object in JSON) and identical configurations produce
byte-identical files.  Numbers are written with 12 significant digits.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import Field, dataclass, field, fields, replace
from itertools import chain
from typing import Sequence, get_args, get_type_hints

import numpy as np

from . import bounds as bounds_mod
from . import classical as classical_mod
from . import potential as potential_mod
from . import spectrum as spectrum_mod
from ._simpson import simpson
from .potential import Exponential, Linear, WellSpec

__all__ = ["RunConfig", "Table", "cmd_spectrum", "cmd_wavefunction", "cmd_compare",
           "cmd_smoothing", "cmd_momentum", "write_table", "main"]

_DEFAULT_E_MAX = 35.0  # CLI only: RunConfig itself needs e_max or n_max set


def _flag(default: object, **metadata: object):
    return field(default=default, metadata=metadata)


@dataclass
class RunConfig:
    """One CLI invocation's worth of physics and output settings.

    This is the only declaration of the CLI settings.  Every field is the flag
    ``--<name>`` (underscores as dashes) with the field's type and default; its
    metadata holds the flag's ``help`` and ``choices``, the least value ``floor``
    of a count, the one subcommand that owns it (``command``; absent means every
    subcommand), ``cutoff`` for the two mutually exclusive cutoffs, and
    ``header=False`` to keep it out of the table header.
    """

    a: float = _flag(3.0, help="left half-width")
    b: float = _flag(3.0, help="right half-width")
    v0: float = _flag(20.0, help="step height")
    smoothing: str = _flag("none", choices=("none", "exponential", "linear"))
    delta: float = _flag(0.2, help="sigmoid smoothing scale")
    epsilon: float = _flag(0.4, help="linear ramp half-width")
    e_max: float | None = _flag(None, cutoff=True,
                                help=f"energy cutoff (default {_DEFAULT_E_MAX:g})")
    n_max: int | None = _flag(None, cutoff=True, floor=1,
                              help="number of states instead of an energy cutoff")
    grid: int = _flag(4000, floor=100, help="cells for the numeric solver")
    samples: int = _flag(801, command="wavefunction", floor=5)
    p_max: float | None = _flag(None, command="momentum")  # None picks max(8k, 16)
    points: int | None = _flag(None, command="momentum", floor=3)  # None picks 400 per unit
    format: str = _flag("csv", choices=("csv", "json"))
    out: str = _flag("-", header=False, help="output path ('-' for stdout)")

    def __post_init__(self) -> None:
        for f in fields(self):
            value, meta = getattr(self, f.name), f.metadata
            if "choices" in meta and value not in meta["choices"]:
                raise ValueError(f"{f.name} must be one of {', '.join(meta['choices'])}, "
                                 f"got {value!r}")
            if "floor" in meta and value is not None:
                potential_mod._integer(value, f.name, meta["floor"])
        if (self.e_max is None) == (self.n_max is None):
            raise ValueError("exactly one of e_max / n_max must be set")
        for name in ("e_max", "p_max"):
            if getattr(self, name) is not None:
                potential_mod._finite(getattr(self, name), name)
        if self.grid % 2:
            raise ValueError(f"grid must be even, got {self.grid}")
        well = self.well()  # fail fast on bad geometry or smoothing scales
        # cmd_smoothing smooths a sharp-step configuration too, with either scale
        Exponential(self.delta), Linear(self.epsilon)
        if self.n_max is not None and (self.n_max > 2**53 or not self.energy_cap(well) < math.inf):
            raise ValueError(f"n_max must be at most 2**53 and set a finite energy "
                             f"cutoff, got {self.n_max}")

    def well(self) -> WellSpec:
        if self.smoothing == "exponential":
            return WellSpec(self.a, self.b, self.v0, Exponential(self.delta))
        if self.smoothing == "linear":
            return WellSpec(self.a, self.b, self.v0, Linear(self.epsilon))
        return WellSpec(self.a, self.b, self.v0)

    def step_well(self) -> WellSpec:
        return WellSpec(self.a, self.b, self.v0)

    def energy_cap(self, well: WellSpec) -> float:
        return self.e_max if self.e_max is not None else _level_cap(well, self.n_max)


def _level_cap(well: WellSpec, n: int) -> float:
    """1 above the least V(x) + (n pi / (x + a))^2 over 1000 x in (-a, b], a bound on level n:
    a hard wall moved in to x only raises the levels, and left of x the nondecreasing floor
    is at most V(x).  x = b gives the flat-well bound (n pi / (a + b))^2 + v0 + 1."""
    xs = np.linspace(-well.a, well.b, 1001)[1:]
    with np.errstate(over="ignore"):  # inf, which RunConfig refuses
        kinetic = (n * math.pi / (xs + well.a)) ** 2
        return float(np.min(potential_mod.sample(well, xs) + kinetic)) + 1.0


def _fields(command: str | None) -> list[Field]:
    """RunConfig fields owned by ``command``; None selects the shared ones."""
    return [f for f in fields(RunConfig) if f.metadata.get("command") == command]


@dataclass
class Table:
    command: str
    config_items: list[tuple[str, object]]
    columns: list[str]
    rows: list[list]
    markers: dict[str, float] = field(default_factory=dict)


def _config_items(config: RunConfig, command: str,
                  **extras: object) -> list[tuple[str, object]]:
    """Header items: the shared settings, ``extras``, then ``command``'s own settings."""
    items = [(f.name, getattr(config, f.name)) for f in _fields(None)
             if f.metadata.get("header", True)]
    items.extend(extras.items())
    items.extend((f.name, getattr(config, f.name)) for f in _fields(command))
    return items


def _analytic_arrays(config: RunConfig) -> tuple[np.ndarray, ...]:
    """The sharp step's states below the cutoff as the arrays of ``spectrum._solve_state``:
    the one route from the root solve to every table."""
    cap = config.energy_cap(spec := config.step_well())
    return tuple(_lowest(config, column, cap) for column in spectrum_mod._solve(spec, cap))


def _lowest(config: RunConfig, states, cap: float):
    """All ``states``, or with ``n_max`` the lowest n_max, solved to ``cap`` above level n_max."""
    if config.n_max is None:
        return states
    if len(states) < config.n_max:
        raise RuntimeError(f"only {len(states)} states found, n_max={config.n_max}, "
                           f"below the cap {cap:.6g}")
    return states[: config.n_max]


def _nth(states: list, n: int):
    if potential_mod._integer(n, "state n", 1) > len(states):
        raise ValueError(f"state n={n} not found below the energy cutoff "
                         f"({len(states)} states available)")
    return states[n - 1]


def _cubic_interp(x: np.ndarray, grid: np.ndarray, values: np.ndarray) -> np.ndarray:
    """4-point Lagrange interpolation on a uniform grid, O(h^4) for smooth data."""
    h = (grid[-1] - grid[0]) / (len(grid) - 1)
    u = (x - grid[0]) / h
    i = np.clip(np.floor(u).astype(int), 1, len(grid) - 3)
    s = u - i
    y = [values[i + d] for d in (-1, 0, 1, 2)]
    return (-s * (s - 1) * (s - 2) * y[0] + 3 * (s + 1) * (s - 1) * (s - 2) * y[1]
            - 3 * (s + 1) * s * (s - 2) * y[2] + (s + 1) * s * (s - 1) * y[3]) / 6.0


# ---------------------------------------------------------------- commands


def cmd_spectrum(config: RunConfig) -> Table:
    """Eigenvalue table {n, energy, k, q_or_qbar, branch} for the sharp step."""
    if config.smoothing != "none":
        raise ValueError("the spectrum table is closed-form and requires the sharp "
                         "step; use the smoothing command for smoothed wells")
    energy, k, q_or_qbar, below = _analytic_arrays(config)[:4]
    if np.count_nonzero(bad := energy[1:] <= energy[:-1]):
        i = int(bad.argmax())
        raise RuntimeError(f"emitted energies are not strictly increasing: state {i + 2} at "
                           f"E={float(energy[i + 1])!r} follows state {i + 1} at "
                           f"E={float(energy[i])!r}")
    branch = [spectrum_mod._BRANCHES[b] for b in below.tolist()]
    rows = [list(row) for row in zip(range(1, energy.size + 1), energy.tolist(), k.tolist(),
                                     q_or_qbar.tolist(), branch)]
    return Table("spectrum", _config_items(config, "spectrum"),
                 ["n", "energy", "k", "q_or_qbar", "branch"], rows)


def cmd_wavefunction(config: RunConfig, n: int) -> Table:
    """Aligned series {x, psi, density, potential, classical_density} for state n."""
    well = config.well()
    xs = np.linspace(-config.a, config.b, config.samples)
    if well.is_step:
        state = _nth(spectrum_mod._states(config.step_well(), _analytic_arrays(config)), n)
        values = spectrum_mod.psi(state, xs)
        energy, step = state.energy, 0.0
    else:
        from . import shooting as shooting_mod

        cap = config.energy_cap(well)
        sols = shooting_mod.find_spectrum_numeric(well, cap, config.grid)
        sol = _nth(_lowest(config, sols, cap), n)
        values = _cubic_interp(xs, sol.grid, sol.values)
        energy, step = sol.energy, sol.step
    pot = potential_mod.sample(well, xs)
    model = classical_mod.classical_model(config.step_well(), energy)
    cls = classical_mod.classical_density(model, xs)
    dens = values**2

    where = f"(grid={config.grid}, samples={config.samples})"
    if abs(values[0]) > 1e-9 or abs(values[-1]) > 1e-9:
        raise RuntimeError(f"wavefunction does not vanish at the walls: psi(-a) = {values[0]:.3g}, "
                           f"psi(b) = {values[-1]:.3g}, past the tolerance 1e-09 {where}")
    h = max(step, (config.a + config.b) / (config.samples - 1))  # samples or the grid under them
    norm_tol = max(2e-6, (math.sqrt(energy) * h) ** 4)
    if abs((norm := simpson(dens, xs)) - 1.0) > norm_tol:
        raise RuntimeError(f"emitted density column is not unit-normalized: its Simpson integral "
                           f"is {norm:.9g}, off 1 by {abs(norm - 1.0):.3g}, past the tolerance "
                           f"{norm_tol:.3g} {where}")

    rows = np.column_stack((xs, values, dens, pot, cls)).tolist()
    return Table("wavefunction", _config_items(config, "wavefunction", n=n),
                 ["x", "psi", "density", "potential", "classical_density"], rows)


def cmd_compare(config: RunConfig) -> Table:
    """Per-state table of quantum vs classical left-side probability and bounds.

    The columns are computed over the whole spectrum at once; each check names
    the lowest state that fails it.
    """
    if config.smoothing != "none":
        raise ValueError("the comparison table requires the sharp step")
    spec = config.step_well()
    energy, *_, amp_left, amp_right, left, right = _analytic_arrays(config)
    p_left, p_right = spectrum_mod._probabilities(amp_left, amp_right, left, right)
    if np.count_nonzero(bad := np.abs(p_left + p_right - 1.0) > 1e-9):
        i = int(bad.argmax())
        raise RuntimeError(f"side probabilities of state {i + 1} do not sum to 1: their sum "
                           f"is {p_left[i] + p_right[i]:.12g}")
    p_cl = classical_mod._time_shares(spec, energy)[2]
    above = energy > spec.v0 * (1.0 + bounds_mod._MARGIN)
    lower, upper = bounds_mod._envelopes(spec, energy[above])
    inside = (lower - 1e-12 <= p_cl[above]) & (p_cl[above] <= upper + 1e-12)
    if np.count_nonzero(bad := ~inside):
        raise RuntimeError(f"classical probability escapes the bound envelope "
                           f"at E={float(energy[above][bad][0])}")
    bound_cells = np.full((energy.size, 3), None, dtype=object)
    bound_cells[above, 0], bound_cells[above, 1] = lower, upper
    kinds, _, _ = spectrum_mod._match_classes(p_left[above], lower, upper)
    bound_cells[above, 2] = [None if kind is None else kind.value for kind in kinds]
    columns = (range(1, energy.size + 1), energy.tolist(), p_left.tolist(), p_cl.tolist(),
               *bound_cells.T.tolist())
    rows = [list(row) for row in zip(*columns)]
    return Table("compare", _config_items(config, "compare"),
                 ["n", "energy", "p_left_qm", "p_left_cl", "lower_bound",
                  "upper_bound", "match_class"], rows)


def cmd_smoothing(config: RunConfig) -> Table:
    """Sharp-step vs smoothed spectrum and left-side probabilities, state by state.

    The smoothing family follows the configuration (exponential unless
    ``linear`` is selected).  Classical values are taken at the sharp-step
    energies.  Levels pair by index: both spectra are complete from the ground
    state, the smoothed one solved to ``_level_cap``, so any shift is physics.
    """
    from . import shooting as shooting_mod

    family = "linear" if config.smoothing == "linear" else "exponential"
    smooth_well = replace(config, smoothing=family).well()
    scale = config.epsilon if family == "linear" else config.delta
    energy, *_, amp_left, amp_right, left, right = _analytic_arrays(config)
    cap = _level_cap(smooth_well, energy.size)
    sols = shooting_mod.find_spectrum_numeric(smooth_well, cap, config.grid)[: energy.size]
    if len(sols) < energy.size:
        raise RuntimeError(f"smoothed spectrum has {len(sols)} states below its cap {cap:.6g}, "
                           f"fewer than the sharp step's {energy.size}")
    e_smooth = np.array([sol.energy for sol in sols])
    de = (e_smooth - energy) / energy
    p_step, _ = spectrum_mod._probabilities(amp_left, amp_right, left, right)
    p_cl = classical_mod._time_shares(config.step_well(), energy)[2]
    columns = (range(1, energy.size + 1), energy.tolist(), e_smooth.tolist(), de.tolist(),
               p_step.tolist(), map(shooting_mod.side_probability_numeric, sols), p_cl.tolist())
    rows = [list(row) for row in zip(*columns)]
    return Table("smoothing", _config_items(config, "smoothing", scale=scale),
                 ["n", "e_step", "e_smooth", "de_over_e", "p_left_step",
                  "p_left_smooth", "p_left_cl"], rows)


def cmd_momentum(config: RunConfig, n: int) -> Table:
    """Momentum density series {p, density} for state n, with k/q markers."""
    from . import momentum as momentum_mod

    if config.smoothing != "none":
        raise ValueError("momentum densities are computed from the closed-form "
                         "states and require the sharp step")
    state = _nth(spectrum_mod._states(config.step_well(), _analytic_arrays(config)), n)
    p_max = config.p_max
    if p_max is None:
        p_max = max(8.0 * state.k, 16.0)
    n_points = config.points
    if n_points is None:
        n_points = int(2.0 * p_max * 400.0)
        n_points += 1 - (n_points % 2)  # odd count puts a sample exactly at p = 0
    config = replace(config, p_max=p_max, points=n_points)  # header shows the range used
    series = momentum_mod.density_series(state, p_max, n_points)

    dens = series.density
    asym = np.max(np.abs(dens - dens[::-1]))
    if not asym <= 1e-10 * max(1.0, float(np.max(dens))):  # NaN fails
        raise RuntimeError("momentum density is not even in p")

    markers = {"k": series.k_marker}
    if series.q_marker is not None:
        markers["q"] = series.q_marker
    rows = np.column_stack((series.p_grid, dens)).tolist()
    return Table("momentum", _config_items(config, "momentum", n=n),
                 ["p", "density"], rows, markers=markers)


# ---------------------------------------------------------------- emission


_CHUNK_ROWS = 2048  # table rows rendered together; a chunk of float rows is one % format


def _csv_cell(value: object) -> str:
    return f"{value:.12g}" if isinstance(value, float) else "" if value is None else str(value)


def _json_floats(tokens: list[str]) -> list[str]:
    """JSON of floats from their ``.12g`` tokens: the repr of each one's 12-digit rounding,
    which is its token when that is a decimal with a point and no exponent, or with
    exponent -05 to -99."""
    return [token if "." in token and "e" not in token or token[-4:-2] == "e-"
            else {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(token)
            or repr(float(token)) for token in tokens]


def _rounded(value: object) -> object:
    return float(f"{value:.12g}") if isinstance(value, float) else value


def _json_cell(value: object) -> str:
    return json.dumps(_rounded(value))


def _chunks(rows: list[list]):
    """Each run of ``_CHUNK_ROWS`` rows with its cells flattened and whether every cell is a
    float (np.float64 too)."""
    for start in range(0, len(rows), _CHUNK_ROWS):
        chunk = rows[start:start + _CHUNK_ROWS]
        cells = tuple(chain.from_iterable(chunk))
        yield chunk, cells, all(issubclass(kind, float) for kind in set(map(type, cells)))


def _layout(chunk: list[list], row, sep: str) -> str:
    """The ``row(width)`` template of each row of ``chunk``, joined by ``sep``."""
    widths = set(map(len, chunk))
    if len(widths) == 1:
        return sep.join([row(widths.pop())] * len(chunk))
    return sep.join(row(len(cells)) for cells in chunk)


def render_csv(table: Table) -> str:
    header = [*table.config_items, *((f"marker {k}", v) for k, v in sorted(table.markers.items()))]
    parts = [f"# asymwell {table.command}\n", *(f"# {k} = {_csv_cell(v)}\n" for k, v in header),
             ",".join(table.columns) + "\n"]
    for chunk, cells, floats in _chunks(table.rows):
        spec = "%.12g" if floats else "%s"
        rows = _layout(chunk, lambda width: ",".join([spec] * width) + "\n", "")
        parts.append(rows % (cells if floats else tuple(map(_csv_cell, cells))))
    return "".join(parts)


def _json_row(width: int) -> str:
    return "[\n      " + ",\n      ".join(["%s"] * width) + "\n    ]" if width else "[]"


def render_json(table: Table) -> str:
    """Laid out as json.dumps(doc, sort_keys=True, indent=2) would; rows inline, for speed.

    A chunk of floats formats its ``.12g`` tokens with one ``%``, makes JSON of the few
    that are not, and lays them into its rows with a second ``%``.
    """
    doc = {"columns": table.columns, "command": table.command,
           "config": {k: _rounded(v) for k, v in table.config_items}, "rows": []}
    if table.markers:
        doc["markers"] = {k: _rounded(v) for k, v in table.markers.items()}
    # "rows" sorts last: the document up to its "]\n}", then the rows, then its close
    parts, sep = [json.dumps(doc, sort_keys=True, indent=2)[:-3]], "\n    "
    for chunk, cells, floats in _chunks(table.rows):
        tokens = (_json_floats(("%.12g\n" * len(cells) % cells).split()) if floats
                  else map(_json_cell, cells))
        parts += sep, _layout(chunk, _json_row, ",\n    ") % tuple(tokens)
        sep = ",\n    "
    parts.append("\n  ]\n}\n" if table.rows else "]\n}\n")
    return "".join(parts)


def write_table(table: Table, config: RunConfig) -> None:
    text = render_csv(table) if config.format == "csv" else render_json(table)
    if config.out == "-":
        sys.stdout.write(text)
    else:
        with open(config.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


# ---------------------------------------------------------------- CLI


# subcommand -> (help, whether it takes the state index --n); main runs cmd_<name>
_COMMANDS = {
    "spectrum": ("eigenvalue table", False),
    "wavefunction": ("sampled state with overlays", True),
    "compare": ("quantum vs classical probabilities", False),
    "smoothing": ("sharp step vs smoothed well", False),
    "momentum": ("momentum density series", True),
}


def _add_flag(parser, f: Field, hint: object) -> None:
    kind = next((t for t in get_args(hint) if t is not type(None)), hint)
    parser.add_argument("--" + f.name.replace("_", "-"), type=kind, default=f.default,
                        choices=f.metadata.get("choices"), help=f.metadata.get("help"))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asymwell",
        allow_abbrev=False,
        description="Bound states, classical comparisons, probability bounds, and "
                    "momentum densities for a hard-walled well with a stepped floor "
                    "(natural units hbar = 2m = 1).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    hints = get_type_hints(RunConfig)
    for command, (help_text, takes_state) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text, allow_abbrev=False)
        cutoff = p.add_mutually_exclusive_group()
        for f in _fields(None):
            _add_flag(cutoff if f.metadata.get("cutoff") else p, f, hints[f.name])
        if takes_state:
            p.add_argument("--n", type=int, required=True, help="state index (1-based)")
        for f in _fields(command):
            _add_flag(p, f, hints[f.name])
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = vars(_build_parser().parse_args(argv))
    command = args.pop("command")
    state = {"n": args.pop("n")} if "n" in args else {}
    stage = "config"
    try:
        if args["e_max"] is None and args["n_max"] is None:
            args["e_max"] = _DEFAULT_E_MAX
        config = RunConfig(**args)
        stage = "solve"
        table = globals()[f"cmd_{command}"](config, **state)
        stage = "emit"
        write_table(table, config)
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        print(f"asymwell {command}: {stage}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
