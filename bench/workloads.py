"""Seeded input lists, the operation each workload times, and the checks that
judge every result by a route independent of the timed code.

Each check returns ``None`` for a good result and a one-line reason otherwise.
An operation that raises (a refusal or a solver error) is a failure; a result
that comes back and fails its check is a wrong answer.
"""
from __future__ import annotations

import functools
import hashlib
import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from asymwell import report, shooting, spectrum
from asymwell.potential import Exponential, Linear, WellSpec, match_smoothings

ROOT = Path(__file__).resolve().parent.parent

# The wells of each workload form a fixed design drawn once over the workload's
# parameter ranges.  The seed perturbs every parameter by up to JITTER (relative)
# and sets the order, so each seed gives other inputs but the same amount of
# work: the run-to-run spread then measures the host, not the list.
JITTER = 0.01

# ---------------------------------------------------------------- step-survey

SURVEY_SIZE = 120        # p90 needs at least 100 operations
SURVEY_REFUSED = 6       # wells past the guard; a fixed count keeps ok_frac seed-independent
GUARD = 350.0            # find_spectrum refuses sqrt(v0) * b > 350
V0_MIN, V0_MAX = 1.0, 2e4
SURVEY_TOL = 1e-9


@dataclass(frozen=True)
class SurveyWell:
    a: float
    b: float
    v0: float
    e_max: float


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _jitter(rng: random.Random, x: float) -> float:
    return x * (1.0 + JITTER * rng.uniform(-1.0, 1.0))


def _survey_design() -> list[SurveyWell]:
    """a, b in [1, 5], v0 log-uniform in [1, 2e4], e_max log-uniform in [10, 1e4].

    Wells keep 5% clear of the guard on either side, so the jitter cannot
    move one across it."""
    rng = random.Random("step-survey")
    wells = []
    for i in range(SURVEY_SIZE):
        a = rng.uniform(1.0, 5.0)
        if i < SURVEY_REFUSED:
            b = rng.uniform(3.0, 5.0)
            v0 = _log_uniform(rng, 1.1 * (GUARD / b) ** 2, V0_MAX)
        else:
            b = rng.uniform(1.0, 5.0)
            v0 = _log_uniform(rng, V0_MIN, min(V0_MAX, 0.9 * (GUARD / b) ** 2))
        wells.append(SurveyWell(a, b, v0, _log_uniform(rng, 10.0, 1e4)))
    return wells


def survey_inputs(seed: int) -> list[SurveyWell]:
    """Sharp-step wells; SURVEY_REFUSED of them lie beyond the sqrt(v0)*b guard."""
    rng = random.Random(f"step-survey/{seed}")
    wells = [SurveyWell(*(_jitter(rng, x) for x in (w.a, w.b, w.v0, w.e_max)))
             for w in _survey_design()]
    rng.shuffle(wells)
    return wells


def survey_op(well: SurveyWell) -> report.Table:
    return report.cmd_compare(report.RunConfig(a=well.a, b=well.b, v0=well.v0,
                                               e_max=well.e_max))


@functools.cache
def _gauss_legendre():
    return np.polynomial.legendre.leggauss(2048)


def _integral_sq(f, lo: float, hi: float) -> float:
    """Gauss-Legendre quadrature of f(x)**2 over [lo, hi]."""
    nodes, weights = _gauss_legendre()
    half = 0.5 * (hi - lo)
    return half * float(np.dot(weights, f(0.5 * (lo + hi) + half * nodes) ** 2))


def independent_p_right(well: SurveyWell, energy: float) -> float:
    """Right-side probability of the state at ``energy``, rebuilt from scratch.

    The left solution sin(k(x + a)) is matched at x = 0 to a right solution
    that vanishes at x = b, by least squares over value and slope, and both
    sides are integrated by quadrature; nothing of asymwell is used.
    """
    a, b, v0 = well.a, well.b, well.v0
    k = math.sqrt(energy)
    psi0, dpsi0 = math.sin(k * a), k * math.cos(k * a)
    if energy > v0:
        w = math.sqrt(energy - v0)

        def right(x):
            return np.sin(w * (x - b))

        f0, df0 = -math.sin(w * b), w * math.cos(w * b)
    else:
        w = math.sqrt(v0 - energy)
        # sinh(w (x - b)) / cosh(w b), written with non-positive exponents only
        norm = 1.0 + math.exp(-2.0 * w * b)

        def right(x):
            return -(np.exp(-w * x) - np.exp(w * (x - 2.0 * b))) / norm

        f0, df0 = -math.tanh(w * b), w
    s2 = max(k, w) ** 2
    c = (f0 * psi0 + df0 * dpsi0 / s2) / (f0 * f0 + df0 * df0 / s2)
    left_int = _integral_sq(lambda x: np.sin(k * (x + a)), -a, 0.0)
    right_int = c * c * _integral_sq(right, 0.0, b)
    return right_int / (left_int + right_int)


def check_survey(well: SurveyWell, table: report.Table) -> str | None:
    """Each energy is a sign change of the public characteristic, within
    SURVEY_TOL relative, and the table's p_left plus the independent p_right is
    1 within SURVEY_TOL."""
    rows = table.rows
    if not rows:
        return "empty table"
    if [r[0] for r in rows] != list(range(1, len(rows) + 1)):
        return "state indices are not 1..N"
    spec = WellSpec(well.a, well.b, well.v0)
    prev = 0.0
    for n, energy, p_left, *_ in rows:
        if not prev < energy <= well.e_max:
            return f"state {n}: energy {energy!r} out of order or above e_max"
        prev = energy
        lo = spectrum.characteristic(spec, energy * (1.0 - SURVEY_TOL))
        hi = spectrum.characteristic(spec, energy * (1.0 + SURVEY_TOL))
        if not lo * hi < 0.0:
            return f"state {n}: characteristic keeps its sign across E={energy!r}"
        total = p_left + independent_p_right(well, energy)
        if abs(total - 1.0) > SURVEY_TOL:
            return f"state {n}: p_left + p_right = {total!r}"
    return None


# ---------------------------------------------------------------- numerov-smooth

NUMEROV_GRID = 4000
NUMEROV_TOL = 1e-4       # relative distance to the finite-difference oracle


@dataclass(frozen=True)
class SmoothWell:
    a: float
    b: float
    v0: float
    family: str          # exponential | linear | none
    delta: float
    cap: float

    def spec(self) -> WellSpec:
        if self.family == "exponential":
            return WellSpec(self.a, self.b, self.v0, Exponential(self.delta))
        if self.family == "linear":
            return WellSpec(self.a, self.b, self.v0, Linear(match_smoothings(self.delta)))
        return WellSpec(self.a, self.b, self.v0)


# the CLI's standard smoothing study: a = b = 3, v0 = 20, delta = 0.2, cap 35 * 1.05 + 20 * 0.2 + 1
STANDARD_STUDY = SmoothWell(3.0, 3.0, 20.0, "exponential", 0.2, 41.75)


# The ROADMAP's regression case: the sharp step a = b = 3 from v0 = 60 on, where
# the shooting solver raises NodeCountError today.  Kept exact (no jitter), so
# the failure does not come and go with the seed.
NODE_COUNT_CASE = SmoothWell(3.0, 3.0, 60.0, "none", 0.0, 15.0)


def _numerov_design() -> list[SmoothWell]:
    """One well of each family with a, b in [2, 4], v0 in [5, 20], delta in
    [0.05, 0.5] and cap in [20, 60], where the solver works today."""
    rng = random.Random("numerov-smooth")
    return [SmoothWell(rng.uniform(2.0, 4.0), rng.uniform(2.0, 4.0), rng.uniform(5.0, 20.0),
                       family, rng.uniform(0.05, 0.5), rng.uniform(20.0, 60.0))
            for family in ("exponential", "linear", "none")]


def numerov_inputs(seed: int) -> list[SmoothWell]:
    """The standard study and the failing case, exact, and the jittered design."""
    rng = random.Random(f"numerov-smooth/{seed}")
    wells = [STANDARD_STUDY, NODE_COUNT_CASE]
    for w in _numerov_design():
        a, b, v0, delta, cap = (_jitter(rng, x) for x in (w.a, w.b, w.v0, w.delta, w.cap))
        wells.append(SmoothWell(a, b, v0, w.family, delta, cap))
    rng.shuffle(wells)
    return wells


def numerov_op(well: SmoothWell) -> list:
    return shooting.find_spectrum_numeric(well.spec(), well.cap, NUMEROV_GRID)


def oracle_levels(well: SmoothWell, count: int) -> np.ndarray:
    """The lowest ``count`` levels of the finite-difference oracle on the solver's grid."""
    if str(ROOT / "tests") not in sys.path:
        sys.path.append(str(ROOT / "tests"))
    from oracles import fd_spectrum

    return fd_spectrum(well.spec(), count, NUMEROV_GRID)[0]


def check_numerov(well: SmoothWell, sols: list) -> str | None:
    """Energies against the finite-difference oracle on the same grid; the
    oracle's next level must lie above the cap, so no state is missing."""
    if [s.n for s in sols] != list(range(1, len(sols) + 1)):
        return "state indices are not 1..N"
    fd = oracle_levels(well, len(sols) + 1)
    for sol, ref in zip(sols, fd):
        if abs(sol.energy - ref) > NUMEROV_TOL * abs(ref):
            return f"state {sol.n}: E={sol.energy!r}, oracle {ref!r}"
    if fd[len(sols)] < well.cap * (1.0 - NUMEROV_TOL):
        return f"state {len(sols) + 1} at E={fd[len(sols)]!r} is missing below the cap"
    return None


# ---------------------------------------------------------------- cli-cold

# name -> CLI arguments; the standard configurations of the report CLI
CLI_CONFIGS = {
    "spectrum": ("spectrum",),
    "compare": ("compare", "--e-max", "100"),
    "wavefunction": ("wavefunction", "--n", "6"),
    "momentum": ("momentum", "--n", "5"),
    "momentum-json": ("momentum", "--n", "5", "--format", "json"),
}
# eigenstates each configuration emits
CLI_STATES = {"spectrum": 9, "compare": 18, "wavefunction": 1, "momentum": 1,
              "momentum-json": 1}
GOLDENS = Path(__file__).resolve().parent / "goldens.json"


def cli_inputs(seed: int) -> list[str]:
    """The fixed rotation of configurations, starting at a seeded offset."""
    names = list(CLI_CONFIGS)
    start = random.Random(f"cli-cold/{seed}").randrange(len(names))
    return names[start:] + names[:start]


def digest(out: bytes) -> dict:
    return {"sha256": hashlib.sha256(out).hexdigest(), "bytes": len(out)}


def load_goldens() -> dict:
    return json.loads(GOLDENS.read_text())


def warm_up(workload: str) -> None:
    """One small call on the workload's path, so first-call costs fall in set-up."""
    if workload == "step-survey":
        survey_op(SurveyWell(3.0, 3.0, 20.0, 35.0))
    elif workload == "numerov-smooth":
        shooting.shoot(STANDARD_STUDY.spec(), 10.0, NUMEROV_GRID)
    else:
        load_goldens()
        report.render_csv(report.cmd_spectrum(report.RunConfig(e_max=35.0)))


def check_cli(name: str, out: bytes, goldens: dict) -> str | None:
    """Output bytes must equal the golden table recorded for this configuration."""
    if digest(out) != goldens[name]:
        return f"{name}: output differs from the golden table"
    return None
