"""Per-layer tracing from outside the package.

For the length of a traced pass, module-level functions of asymwell are
replaced, in every asymwell module that holds a reference to them, by wrappers
that time each call and count its work; afterwards the originals are put back.
A layer's self time is its span's duration minus the time of the wrapped calls
made inside it.
"""
from __future__ import annotations

import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

MARK = "_bench_wrapped"

# count metrics that must repeat exactly between two traced passes
COUNT_METRICS = (
    "spectrum.char_calls", "spectrum.char_energies", "spectrum.refines",
    "rootscan.calls", "rootscan.scan_energies", "rootscan.bisect_iters",
    "rootscan.bisect_energies", "shooting.sweeps", "shooting.scan_cell_energies",
    "shooting.bisect_cell_energies", "shooting.refines", "momentum.points", "report.rows",
)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "asymwell" or name.startswith("asymwell."))]


def assert_unwrapped() -> None:
    """Raise if any tracing wrapper is still installed in asymwell."""
    for module in _package_modules():
        for key, value in vars(module).items():
            if getattr(value, MARK, False):
                raise RuntimeError(f"tracing wrapper left on {module.__name__}.{key}")


class Tracer:
    def __init__(self) -> None:
        self.seconds: Counter = Counter()       # inclusive time per span
        self.self_seconds: Counter = Counter()  # exclusive of wrapped calls inside
        self.counts: Counter = Counter()
        self.phase = "scan"                     # which root-scan stage is calling
        self.fresh: dict[str, bool] = {}        # solver entered, no scan made yet
        self._open: list[float] = []            # child time of each open span
        self._saved: list[tuple] = []

    def _span(self, name, fn, count=None):
        def wrapper(*args, **kwargs):
            if count is not None:
                count(self, *args, **kwargs)
            self._open.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = self._open.pop()
                self.seconds[name] += dt
                self.self_seconds[name] += dt - inner
                if self._open:
                    self._open[-1] += dt

        setattr(wrapper, MARK, True)
        return wrapper

    def _bracket(self, caller, original):
        """bracket_and_bisect, with its first evaluation counted as the scan and
        every later one as a bisection step."""
        def bracket(fn, *args, **kwargs):
            first = [True]

            def counted(energies):
                if first[0]:
                    first[0] = False
                    self.phase = "scan"
                    self.counts["rootscan.scan_energies"] += len(energies)
                else:
                    self.phase = "bisect"
                    self.counts["rootscan.bisect_iters"] += 1
                    self.counts["rootscan.bisect_energies"] += len(energies)
                return fn(energies)

            self.counts["rootscan.calls"] += 1
            if not self.fresh.pop(caller, False):
                self.counts[f"{caller}.refines"] += 1
            return original(counted, *args, **kwargs)

        return self._span("rootscan", bracket)

    def _replace(self, module, key, wrapper) -> None:
        self._saved.append((module, key, getattr(module, key)))
        setattr(module, key, wrapper)

    def _plan(self):
        from asymwell import bounds, classical, momentum, potential, report, shooting, spectrum

        def entered(caller):
            def count(tr, *args, **kwargs):
                tr.fresh[caller] = True
            return count

        def char(tr, spec, energies):
            tr.counts["spectrum.char_calls"] += 1
            tr.counts["spectrum.char_energies"] += len(energies)

        def sweep(tr, v, h, energies):
            tr.counts["shooting.sweeps"] += 1
            tr.counts[f"shooting.{tr.phase}_cell_energies"] += (len(v) - 1) * len(energies)

        def points(tr, state, p_max, n_points):
            tr.counts["momentum.points"] += n_points

        def rows(tr, table):
            tr.counts["report.rows"] += len(table.rows)

        return [
            (spectrum, "find_spectrum", "spectrum.find", entered("spectrum")),
            (spectrum, "_characteristic_many", "spectrum.char", char),
            (spectrum, "_first_node_mismatch", "spectrum.audit", None),
            (spectrum, "_solve_state", "spectrum.solve_state", None),
            (spectrum, "side_probabilities", "spectrum.side_prob", None),
            (spectrum, "classify_matching", "spectrum.classify", None),
            (shooting, "find_spectrum_numeric", "shooting.find", entered("shooting")),
            (shooting, "_sweep_final", "shooting.sweep", sweep),
            (shooting, "_normalized_solution", "shooting.normalize", None),
            (shooting, "interior_nodes", "shooting.audit", None),
            (potential, "sample", "potential.sample", None),
            (classical, "classical_model", "classical.model", None),
            (bounds, "bounds_at", "bounds.at", None),
            (momentum, "density_series", "momentum.density", points),
            (report, "cmd_spectrum", "report.cmd", None),
            (report, "cmd_compare", "report.cmd", None),
            (report, "cmd_wavefunction", "report.cmd", None),
            (report, "cmd_smoothing", "report.cmd", None),
            (report, "cmd_momentum", "report.cmd", None),
            (report, "render_csv", "report.render", rows),
            (report, "render_json", "report.render", rows),
            (report, "write_table", "report.write", None),
        ], [(spectrum, "spectrum"), (shooting, "shooting")]

    def install(self) -> None:
        functions, scanners = self._plan()
        modules = _package_modules()
        for owner, key, name, count in functions:
            original = getattr(owner, key, None)
            if original is None:     # renamed or removed: the layer reads 0
                continue
            wrapper = self._span(name, original, count)
            for module in modules:
                for ref, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, ref, wrapper)
        for module, caller in scanners:
            original = getattr(module, "bracket_and_bisect", None)
            if original is not None:
                self._replace(module, "bracket_and_bisect", self._bracket(caller, original))

    def restore(self) -> None:
        while self._saved:
            module, key, original = self._saved.pop()
            setattr(module, key, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def metrics(self) -> dict[str, float]:
        ms = {k: v * 1e3 for k, v in self.seconds.items()}
        c = self.counts
        cells = c["shooting.scan_cell_energies"] + c["shooting.bisect_cell_energies"]
        return {
            "spectrum.find_ms": ms.get("spectrum.find", 0.0),
            "spectrum.char_calls": c["spectrum.char_calls"],
            "spectrum.char_energies": c["spectrum.char_energies"],
            "spectrum.char_ms": ms.get("spectrum.char", 0.0),
            "spectrum.audit_ms": ms.get("spectrum.audit", 0.0),
            "spectrum.solve_state_ms": ms.get("spectrum.solve_state", 0.0),
            "spectrum.side_prob_ms": ms.get("spectrum.side_prob", 0.0),
            "spectrum.classify_ms": ms.get("spectrum.classify", 0.0),
            "spectrum.refines": c["spectrum.refines"],
            "rootscan.calls": c["rootscan.calls"],
            "rootscan.scan_energies": c["rootscan.scan_energies"],
            "rootscan.bisect_iters": c["rootscan.bisect_iters"],
            "rootscan.bisect_energies": c["rootscan.bisect_energies"],
            "rootscan.self_ms": self.self_seconds["rootscan"] * 1e3,
            "shooting.find_ms": ms.get("shooting.find", 0.0),
            "shooting.sweeps": c["shooting.sweeps"],
            "shooting.scan_cell_energies": c["shooting.scan_cell_energies"],
            "shooting.bisect_cell_energies": c["shooting.bisect_cell_energies"],
            "shooting.sweep_ms": ms.get("shooting.sweep", 0.0),
            "shooting.ns_per_cell_energy":
                self.seconds["shooting.sweep"] * 1e9 / cells if cells else 0.0,
            "shooting.normalize_ms": ms.get("shooting.normalize", 0.0),
            "shooting.audit_ms": ms.get("shooting.audit", 0.0),
            "shooting.refines": c["shooting.refines"],
            "potential.sample_ms": ms.get("potential.sample", 0.0),
            "classical.model_ms": ms.get("classical.model", 0.0),
            "bounds.at_ms": ms.get("bounds.at", 0.0),
            "momentum.density_ms": ms.get("momentum.density", 0.0),
            "momentum.points": c["momentum.points"],
            "report.cmd_ms": ms.get("report.cmd", 0.0),
            "report.render_ms": ms.get("report.render", 0.0),
            "report.write_ms": self.self_seconds["report.write"] * 1e3,
            "report.rows": c["report.rows"],
        }


def parse_importtime(stderr: str) -> dict[str, float]:
    """Milliseconds of ``python -X importtime -c 'import asymwell'`` by package.

    ``import.asymwell_ms`` is the whole ``import asymwell``, numpy and scipy
    included.  ``import.scipy_ms`` sums the outermost scipy imports, with the
    numpy submodules scipy pulls in; ``import.numpy_ms`` sums the outermost
    numpy imports outside scipy.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue   # the header line
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        entries.append((depth, name.strip(), int(cumulative) / 1e3))
    # importtime prints each module after the modules it imported, one level deeper
    pending: dict[int, list] = {}
    for depth, name, ms in entries:
        pending.setdefault(depth, []).append((name, ms, pending.pop(depth + 1, [])))
    roots = [node for level in sorted(pending) for node in pending[level]]

    def within(name, package):
        return name == package or name.startswith(package + ".")

    def outermost(nodes, package, skip=None):
        for name, ms, children in nodes:
            if within(name, package):
                yield ms
            elif skip is None or not within(name, skip):
                yield from outermost(children, package, skip)

    return {"import.numpy_ms": sum(outermost(roots, "numpy", skip="scipy")),
            "import.scipy_ms": sum(outermost(roots, "scipy")),
            "import.asymwell_ms": sum(outermost(roots, "asymwell"))}
