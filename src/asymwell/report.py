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
from typing import Sequence, get_args, get_type_hints

import numpy as np

from . import bounds as bounds_mod
from . import classical as classical_mod
from . import momentum as momentum_mod
from . import potential as potential_mod
from . import shooting as shooting_mod
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
    metadata holds the flag's ``help`` and ``choices``, the one subcommand that
    owns it (``command``; absent means every subcommand), ``cutoff`` for the
    two mutually exclusive cutoffs, and ``header=False`` to keep it out of the
    table header.
    """

    a: float = _flag(3.0, help="left half-width")
    b: float = _flag(3.0, help="right half-width")
    v0: float = _flag(20.0, help="step height")
    smoothing: str = _flag("none", choices=("none", "exponential", "linear"))
    delta: float = _flag(0.2, help="sigmoid smoothing scale")
    epsilon: float = _flag(0.4, help="linear ramp half-width")
    e_max: float | None = _flag(None, cutoff=True,
                                help=f"energy cutoff (default {_DEFAULT_E_MAX:g})")
    n_max: int | None = _flag(None, cutoff=True,
                              help="number of states instead of an energy cutoff")
    grid: int = _flag(4000, help="cells for the numeric solver")
    samples: int = _flag(801, command="wavefunction")
    p_max: float | None = _flag(None, command="momentum")  # None picks max(8k, 16)
    points: int | None = _flag(None, command="momentum")   # None picks 400 per unit
    format: str = _flag("csv", choices=("csv", "json"))
    out: str = _flag("-", header=False, help="output path ('-' for stdout)")

    def __post_init__(self) -> None:
        for f in fields(self):
            choices = f.metadata.get("choices")
            if choices and getattr(self, f.name) not in choices:
                raise ValueError(f"{f.name} must be one of {', '.join(choices)}, "
                                 f"got {getattr(self, f.name)!r}")
        if (self.e_max is None) == (self.n_max is None):
            raise ValueError("exactly one of e_max / n_max must be set")
        if self.e_max is not None and not self.e_max > 0:
            raise ValueError(f"e_max must be positive, got {self.e_max}")
        if self.n_max is not None and self.n_max < 1:
            raise ValueError(f"n_max must be at least 1, got {self.n_max}")
        self.well()  # fail fast on bad geometry or smoothing scales

    def well(self) -> WellSpec:
        if self.smoothing == "exponential":
            return WellSpec(self.a, self.b, self.v0, Exponential(self.delta))
        if self.smoothing == "linear":
            return WellSpec(self.a, self.b, self.v0, Linear(self.epsilon))
        return WellSpec(self.a, self.b, self.v0)

    def step_well(self) -> WellSpec:
        return WellSpec(self.a, self.b, self.v0)

    def energy_cap(self) -> float:
        if self.e_max is not None:
            return self.e_max
        width = self.a + self.b
        return (self.n_max * math.pi / width) ** 2 + self.v0 + 1.0


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


def _round12(x: float) -> float:
    return float(f"{x:.12g}")


def _fmt(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _config_items(config: RunConfig, command: str,
                  **extras: object) -> list[tuple[str, object]]:
    """Header items: the shared settings, ``extras``, then ``command``'s own settings."""
    items = [(f.name, getattr(config, f.name)) for f in _fields(None)
             if f.metadata.get("header", True)]
    items.extend(extras.items())
    items.extend((f.name, getattr(config, f.name)) for f in _fields(command))
    return items


def _analytic_states(config: RunConfig) -> list[spectrum_mod.EigenState]:
    states = spectrum_mod.find_spectrum(config.step_well(), config.energy_cap())
    if config.n_max is not None:
        if len(states) < config.n_max:
            raise RuntimeError(f"only {len(states)} states found, n_max={config.n_max}")
        states = states[: config.n_max]
    return states


def _nth(states: list, n: int):
    if n < 1 or n > len(states):
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


def _bounds_or_none(spec: WellSpec, energy: float):
    if energy > spec.v0 * (1.0 + bounds_mod._MARGIN):
        return bounds_mod.bounds_at(spec, energy)
    return None


# ---------------------------------------------------------------- commands


def cmd_spectrum(config: RunConfig) -> Table:
    """Eigenvalue table {n, energy, k, q_or_qbar, branch} for the sharp step."""
    if config.smoothing != "none":
        raise ValueError("the spectrum table is closed-form and requires the sharp "
                         "step; use the smoothing command for smoothed wells")
    states = _analytic_states(config)
    rows = [[st.n, st.energy, st.k, st.q_or_qbar, st.branch] for st in states]
    energies = [st.energy for st in states]
    if any(e2 <= e1 for e1, e2 in zip(energies, energies[1:])):
        raise RuntimeError("emitted energies are not strictly increasing")
    return Table("spectrum", _config_items(config, "spectrum"),
                 ["n", "energy", "k", "q_or_qbar", "branch"], rows)


def cmd_wavefunction(config: RunConfig, n: int) -> Table:
    """Aligned series {x, psi, density, potential, classical_density} for state n."""
    if config.samples < 5:
        raise ValueError(f"n_samples must be at least 5, got {config.samples}")
    well = config.well()
    xs = np.linspace(-config.a, config.b, config.samples)
    if well.is_step:
        state = _nth(_analytic_states(config), n)
        values = spectrum_mod.psi(state, xs)
        energy = state.energy
    else:
        sols = shooting_mod.find_spectrum_numeric(well, config.energy_cap(), config.grid)
        if config.n_max is not None:
            sols = sols[: config.n_max]
        sol = _nth(sols, n)
        values = _cubic_interp(xs, sol.grid, sol.values)
        energy = sol.energy
    pot = potential_mod.sample(well, xs)
    model = classical_mod.classical_model(config.step_well(), energy)
    cls = classical_mod.classical_density(model, xs)
    dens = values**2

    if abs(values[0]) > 1e-9 or abs(values[-1]) > 1e-9:
        raise RuntimeError("wavefunction does not vanish at the walls")
    h = (config.a + config.b) / (config.samples - 1)
    norm_tol = max(2e-6, (math.sqrt(energy) * h) ** 4)
    if abs(simpson(dens, xs) - 1.0) > norm_tol:
        raise RuntimeError("emitted density column is not unit-normalized")

    rows = [[float(x), float(v), float(d), float(p), float(c)]
            for x, v, d, p, c in zip(xs, values, dens, pot, cls)]
    return Table("wavefunction", _config_items(config, "wavefunction", n=n),
                 ["x", "psi", "density", "potential", "classical_density"], rows)


def cmd_compare(config: RunConfig) -> Table:
    """Per-state table of quantum vs classical left-side probability and bounds."""
    if config.smoothing != "none":
        raise ValueError("the comparison table requires the sharp step")
    spec = config.step_well()
    states = _analytic_states(config)
    rows = []
    for st in states:
        p_left, p_right = spectrum_mod.side_probabilities(st)
        if abs(p_left + p_right - 1.0) > 1e-9:
            raise RuntimeError(f"side probabilities of state {st.n} do not sum to 1")
        model = classical_mod.classical_model(spec, st.energy)
        pair = _bounds_or_none(spec, st.energy)
        if pair is None:
            rows.append([st.n, st.energy, p_left, model.p_left, None, None, None])
        else:
            if not pair.lower - 1e-12 <= model.p_left <= pair.upper + 1e-12:
                raise RuntimeError(f"classical probability escapes the bound envelope "
                                   f"at E={st.energy}")
            if pair.upper - pair.lower < 1e-12:
                kind = None  # v0 ~ 0: the envelopes coincide, nothing to saturate
            else:
                kind = spectrum_mod.classify_matching(st).kind.value
            rows.append([st.n, st.energy, p_left, model.p_left,
                         pair.lower, pair.upper, kind])
    return Table("compare", _config_items(config, "compare"),
                 ["n", "energy", "p_left_qm", "p_left_cl", "lower_bound",
                  "upper_bound", "match_class"], rows)


def cmd_smoothing(config: RunConfig) -> Table:
    """Sharp-step vs smoothed spectrum and left-side probabilities, state by state.

    The smoothing family follows the configuration (exponential unless
    ``linear`` is selected).  Classical values are taken at the sharp-step
    energies.
    """
    family = "linear" if config.smoothing == "linear" else "exponential"
    smooth_well = replace(config, smoothing=family).well()
    scale = config.epsilon if family == "linear" else config.delta
    step_states = _analytic_states(config)
    cap = config.energy_cap() * 1.05 + config.v0 * scale + 1.0
    smooth_sols = shooting_mod.find_spectrum_numeric(smooth_well, cap, config.grid)
    if len(smooth_sols) < len(step_states):
        raise RuntimeError("smoothed spectrum has fewer states than the sharp step "
                           "below the cutoff; raise the energy cap")
    spec = config.step_well()
    rows = []
    for st, sol in zip(step_states, smooth_sols):
        de = (sol.energy - st.energy) / st.energy
        if abs(de) > 0.5:
            raise RuntimeError(f"implausible smoothing shift {de:.2g} at state {st.n}")
        p_step, _ = spectrum_mod.side_probabilities(st)
        p_smooth = shooting_mod.side_probability_numeric(sol)
        p_cl = classical_mod.classical_model(spec, st.energy).p_left
        rows.append([st.n, st.energy, sol.energy, de, p_step, p_smooth, p_cl])
    return Table("smoothing", _config_items(config, "smoothing", scale=scale),
                 ["n", "e_step", "e_smooth", "de_over_e", "p_left_step",
                  "p_left_smooth", "p_left_cl"], rows)


def cmd_momentum(config: RunConfig, n: int) -> Table:
    """Momentum density series {p, density} for state n, with k/q markers."""
    if config.smoothing != "none":
        raise ValueError("momentum densities are computed from the closed-form "
                         "states and require the sharp step")
    state = _nth(_analytic_states(config), n)
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
    if asym > 1e-10 * max(1.0, float(np.max(dens))):
        raise RuntimeError("momentum density is not even in p")

    markers = {"k": series.k_marker}
    if series.q_marker is not None:
        markers["q"] = series.q_marker
    rows = [[float(p), float(d)] for p, d in zip(series.p_grid, dens)]
    return Table("momentum", _config_items(config, "momentum", n=n),
                 ["p", "density"], rows, markers=markers)


# ---------------------------------------------------------------- emission


def render_csv(table: Table) -> str:
    lines = [f"# asymwell {table.command}"]
    for key, value in table.config_items:
        lines.append(f"# {key} = {_fmt(value)}")
    for key in sorted(table.markers):
        lines.append(f"# marker {key} = {_fmt(table.markers[key])}")
    lines.append(",".join(table.columns))
    for row in table.rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def render_json(table: Table) -> str:
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
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"asymwell {command}: {stage}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
