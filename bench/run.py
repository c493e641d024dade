"""Benchmark of asymwell: three closed-loop workloads, one caller in one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (inputs are built from the seed; the same seed gives the same list):

* ``step-survey``: ``report.cmd_compare`` in-process on seeded sharp-step
  wells.  The closed-form spectrum, root scan, node audit, classical model and
  bounds do all the work.  A fixed number of wells lie past the
  ``sqrt(v0)*b <= 350`` guard and are refused today; they count as failures.
* ``numerov-smooth``: ``find_spectrum_numeric`` at 4000 cells on the CLI's
  standard smoothing study, seeded sigmoid, ramp and sharp-step wells, and
  the sharp step a = b = 3 at v0 = 60, where ``NodeCountError`` is raised
  today.
* ``cli-cold``: one ``python -m asymwell.report`` subprocess per operation, in
  a fixed rotation over the standard configurations; interpreter start and
  imports dominate.

A run makes a fixed number of passes over its list, set by ``--seconds``
and not by how fast the host is, so the work per run is fixed.  The host's
speed drifts by tens of percent over tens of seconds, so each operation's time
is its best pass (a slowdown only adds time), the passes are spread over the
whole run, the percentiles are Harrell-Davis estimates over the operations,
and the timing metrics are put at one reference host speed by a fixed kernel
timed between the operations (``HostIndex``).  The environment line keeps the
values as measured, before that scaling.  Results are checked after the timed
passes; see ``workloads.py``.

``--trace 0`` prints the end-to-end metrics, with ``setup_s`` the median over
several fresh interpreters of import, input build and warm-up.  ``--trace 1``
prints the per-layer metrics, as measured: one untraced and two traced
passes, with the module functions wrapped from outside (``tracer.py``).  The
two traced passes must give identical counts, or the run fails.

The last line of standard output is the result object; the line before it
records the environment.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("step-survey", "numerov-smooth", "cli-cold")
# nominal seconds of one pass over each list; passes = seconds / this, fixed per --seconds
PASS_SECONDS = {"step-survey": 1.3, "numerov-smooth": 12.0, "cli-cold": 4.0}
SETUP_STARTS = 5         # fresh interpreters per run for setup_s
COLD_ROUNDS = 3          # subprocess rounds per configuration in the traced cli-cold run
IMPORT_STARTS = 5        # interpreters per import measurement in a traced run
KERNEL_REF_MS = 0.50     # HostIndex.kernel_ms on the machine the bounds were set on

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))


def spawn(argv: list[str], stream: str = "stdout", first_line: bool = False):
    """Run a child to completion; returns (seconds, exit code, bytes read, peak RSS MB).

    ``stream`` is the one output read back (the other is discarded).  With
    ``first_line`` the time stops at the child's first output line.
    """
    pipe, null = subprocess.PIPE, subprocess.DEVNULL
    t0 = perf_counter()
    child = subprocess.Popen(argv, cwd=ROOT, env=CHILD_ENV,
                             stdout=pipe if stream == "stdout" else null,
                             stderr=pipe if stream == "stderr" else null)
    reader = child.stdout if stream == "stdout" else child.stderr
    with reader:
        data = reader.readline() if first_line else b""
        elapsed = perf_counter() - t0
        data += reader.read()
    _, status, usage = os.wait4(child.pid, 0)
    if not first_line:
        elapsed = perf_counter() - t0
    child.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, child.returncode, data, usage.ru_maxrss / 1024.0


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"seed": seed, "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu,
            "loadavg": os.getloadavg()}


class SetupTimer:
    """setup_s: fresh interpreters that import asymwell, build the inputs and
    warm up (``setup_probe.py``), timed until they report ready.  The starts
    are spread over the run, so one slow stretch of the host cannot hold all
    of them; the median is reported."""

    def __init__(self, workload: str, seed: int, ops_in_run: int):
        self.argv = [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)]
        self.every = max(1, ops_in_run // SETUP_STARTS)
        self.ops = 0
        self.times: list[float] = []
        self._start()     # not counted: fills the bytecode and page caches

    def _start(self) -> float:
        elapsed, code, out, _ = spawn(self.argv, first_line=True)
        if code != 0 or not out.startswith(b"ready"):
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        return elapsed

    def after_op(self) -> None:
        self.ops += 1
        if self.ops % self.every == 0 and len(self.times) < SETUP_STARTS:
            self.times.append(self._start())

    def median(self) -> float:
        while len(self.times) < SETUP_STARTS:
            self.times.append(self._start())
        return statistics.median(self.times)


def _kernel():
    """Fixed reference work that touches no asymwell code: an interpreter loop
    and small numpy calls, like the operations' mix."""
    import numpy as np

    total = 0
    for j in range(2000):
        total += j * j
    x = np.linspace(0.0, 1.0, 2000)
    for _ in range(20):
        x = np.sin(3.0 * x) * np.exp(-x)
    return total, x


class HostIndex:
    """How fast the host runs during a run.

    The host's speed drifts by tens of percent over tens of seconds, and a
    slow stretch moves every timing in the run alike.  A fixed kernel runs
    after each operation, outside its timing, about once per 20 ms of
    operation time.  The kernel's 10th-percentile time over the run, against
    KERNEL_REF_MS, is the run's slowdown; the timing metrics are divided by it
    (rates multiplied), which puts them at one reference host speed."""

    def __init__(self):
        self.samples: list[float] = []

    def after_op(self, op_seconds: float) -> None:
        for _ in range(1 + int(op_seconds / 0.02)):
            t0 = perf_counter()
            _kernel()
            self.samples.append(perf_counter() - t0)

    def kernel_ms(self) -> float:
        return percentile(self.samples, 10) * 1e3


def import_metrics() -> dict[str, float]:
    """Bare interpreter start, and ``-X importtime`` of ``import asymwell``, as medians."""
    from tracer import parse_importtime

    bare = [spawn([sys.executable, "-c", "pass"])[0] * 1e3 for _ in range(IMPORT_STARTS)]
    parsed = []
    for _ in range(IMPORT_STARTS):
        _, code, err, _ = spawn([sys.executable, "-X", "importtime", "-c", "import asymwell"],
                                stream="stderr")
        if code != 0:
            raise RuntimeError("import asymwell failed")
        parsed.append(parse_importtime(err.decode()))
    out = {"import.python_ms": statistics.median(bare)}
    for key in parsed[0]:
        out[key] = statistics.median(p[key] for p in parsed)
    return out


def percentile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-th percentile.

    A weighted mean of all order statistics, with weights concentrated near
    rank q: steadier than one order statistic where the values are sparse,
    as in the tail of the operation times."""
    import numpy as np
    from scipy.special import betainc

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = (n + 1) * q / 100.0, (n + 1) * (1.0 - q / 100.0)
    weights = np.diff(betainc(a, b, np.arange(n + 1) / n))
    return float(weights @ x)


# ---------------------------------------------------------------- workloads


class Workload:
    """A fixed input list and the one operation applied to each input.

    ``call`` returns a result or raises; ``check`` gives None or the reason a
    result is wrong; ``outcome`` is what must repeat exactly between passes.
    """

    def __init__(self, inputs, call, check, states, outcome, peak_rss):
        self.inputs, self.call, self.check = inputs, call, check
        self.states, self.outcome, self.peak_rss = states, outcome, peak_rss

    def one_pass(self, after_op=None):
        """Returns (per-operation seconds, results); an exception is the result."""
        gc.collect()
        times, results = [], []
        for x in self.inputs:
            t0 = perf_counter()
            try:
                r = self.call(x)
            except Exception as exc:     # refusals and solver errors are failures
                r = exc
            times.append(perf_counter() - t0)
            results.append(r)
            if after_op is not None:
                after_op(times[-1])
        return times, results

    def fingerprint(self, r) -> str:
        """What must repeat exactly between passes, hashed so passes need not be kept."""
        key = repr(r) if isinstance(r, Exception) else repr(self.outcome(r))
        return hashlib.sha256(key.encode()).hexdigest()

    def judge(self, results, fingerprints):
        """Check one pass's results; every pass must give the same fingerprints.

        Returns (attempted, failed, wrong, states delivered in one pass)."""
        failed = wrong = states = 0
        for x, r in zip(self.inputs, results):
            if isinstance(r, Exception):
                failed += 1
                print(f"# failed: {x}: {type(r).__name__}: {r}", file=sys.stderr)
            elif (why := self.check(x, r)) is not None:
                wrong += 1
                print(f"# wrong: {x}: {why}", file=sys.stderr)
            else:
                states += self.states(x, r)
        differing = sum(f != fingerprints[0] for f in fingerprints[1:])
        if differing:
            print(f"# wrong: {differing} later passes gave other results", file=sys.stderr)
        failed = (failed + wrong) * len(fingerprints) + differing
        return len(self.inputs) * len(fingerprints), failed, wrong + differing, states

    def measure(self, n_passes: int, after_op=None):
        """End-to-end metrics over n_passes; each operation's time is its best pass."""
        from tracer import assert_unwrapped

        assert_unwrapped()
        samples, prints = [], []
        for k in range(n_passes):
            times, results = self.one_pass(after_op)
            samples.append(times)
            prints.append([self.fingerprint(r) for r in results])
            if k == 0:
                kept = results
            del results
        rss = self.peak_rss()
        op_s = [min(col) for col in zip(*samples)]
        attempted, failed, wrong, states = self.judge(kept, prints)
        list_s = sum(op_s)
        metrics = {
            "ops_per_s": len(op_s) / list_s,
            "states_per_s": states / list_s,
            "op_ms_p50": percentile(op_s, 50) * 1e3,
            "op_ms_p90": percentile(op_s, 90) * 1e3,
            "ok_frac": (attempted - failed) / attempted,
            "peak_rss_mb": rss,
        }
        return metrics, attempted, failed, wrong, samples

    def trace(self):
        """Per-layer metrics: one untraced pass, then two traced passes whose
        counts must agree."""
        from tracer import COUNT_METRICS, Tracer, assert_unwrapped

        assert_unwrapped()
        plain, kept = self.one_pass()
        walls, layers, prints = [], [], [[self.fingerprint(r) for r in kept]]
        for _ in range(2):
            tracer = Tracer()
            with tracer.installed():
                times, results = self.one_pass()
            assert_unwrapped()
            walls.append(sum(times))
            layers.append(tracer.metrics())
            prints.append([self.fingerprint(r) for r in results])
        attempted, failed, wrong, _ = self.judge(kept, prints)
        first, second = layers
        differing = [k for k in COUNT_METRICS if first[k] != second[k]]
        if differing:
            raise RuntimeError(f"count metrics differ between two traced passes: {differing}")
        merged = {k: first[k] if k in COUNT_METRICS else (first[k] + second[k]) / 2
                  for k in first}
        merged["trace.overhead_frac"] = statistics.mean(walls) / sum(plain) - 1.0
        return merged, attempted, failed, wrong


def _self_rss() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def in_process(workload: str, seed: int) -> Workload:
    import workloads as w

    w.warm_up(workload)
    if workload == "step-survey":
        return Workload(w.survey_inputs(seed), w.survey_op, w.check_survey,
                        lambda x, r: len(r.rows), lambda r: r.rows, _self_rss)
    return Workload(w.numerov_inputs(seed), w.numerov_op, w.check_numerov,
                    lambda x, r: len(r), lambda r: [s.energy for s in r], _self_rss)


def cli(seed: int, cold: bool = True) -> Workload:
    """The CLI rotation, each operation a fresh subprocess (``cold``) or a call
    of ``report.main`` in this process with standard output captured."""
    import workloads as w
    from asymwell import report

    goldens = w.load_goldens()
    w.warm_up("cli-cold")
    peak = [0.0]

    def subprocess_call(name):
        _, code, out, rss = spawn([sys.executable, "-m", "asymwell.report",
                                   *w.CLI_CONFIGS[name]])
        peak[0] = max(peak[0], rss)
        if code != 0:
            raise RuntimeError(f"exit code {code}")
        return out

    def main_call(name):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = report.main(list(w.CLI_CONFIGS[name]))
        if code != 0:
            raise RuntimeError(f"exit code {code}")
        return buf.getvalue().encode()

    return Workload(w.cli_inputs(seed), subprocess_call if cold else main_call,
                    lambda name, out: w.check_cli(name, out, goldens),
                    lambda name, out: w.CLI_STATES[name], w.digest,
                    (lambda: peak[0]) if cold else _self_rss)


def build(workload: str, seed: int) -> Workload:
    return cli(seed) if workload == "cli-cold" else in_process(workload, seed)


# ---------------------------------------------------------------- entry


UNITS = {"setup_s": "s", "ops_per_s": "1/s", "states_per_s": "1/s", "op_ms_p50": "ms",
         "op_ms_p90": "ms", "ok_frac": "1", "peak_rss_mb": "MB"}
CLI_COLD_KEYS = {"spectrum": "report.spectrum_cold_ms", "compare": "report.compare_cold_ms",
                 "wavefunction": "report.wavefunction_cold_ms",
                 "momentum": "report.momentum_cold_ms"}


def layer_unit(key: str) -> str:
    if key.endswith("_ms"):
        return "ms"
    if key.endswith("_frac"):
        return "1"
    if key.startswith("shooting.ns_per"):
        return "ns"
    return "count"


def traced_run(workload: str, seed: int):
    if workload != "cli-cold":
        metrics, attempted, failed, wrong = build(workload, seed).trace()
        metrics.update(dict.fromkeys(CLI_COLD_KEYS.values(), 0.0))
    else:
        metrics, attempted, failed, wrong = cli(seed, cold=False).trace()
        cold = cli(seed)
        _, a, f, wr, samples = cold.measure(COLD_ROUNDS)
        for name, times in zip(cold.inputs, zip(*samples)):
            if name in CLI_COLD_KEYS:
                metrics[CLI_COLD_KEYS[name]] = min(times) * 1e3
        attempted, failed, wrong = attempted + a, failed + f, wrong + wr
    metrics.update(import_metrics())
    return metrics, {k: layer_unit(k) for k in metrics}, attempted, failed, wrong


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "asymwell" / "__init__.py").is_file():
        print(f"bench: no asymwell package under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("bench: --seconds must be at least 1", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = environment(args.seed)

    if args.trace:
        metrics, units, attempted, failed, wrong = traced_run(args.workload, args.seed)
    else:
        n_passes = max(1, round(args.seconds / PASS_SECONDS[args.workload]))
        workload = build(args.workload, args.seed)
        setup = SetupTimer(args.workload, args.seed, n_passes * len(workload.inputs))
        host = HostIndex()

        def after_op(op_seconds):
            host.after_op(op_seconds)
            setup.after_op()

        metrics, attempted, failed, wrong, _ = workload.measure(n_passes, after_op)
        metrics["setup_s"] = setup.median()
        slowdown = host.kernel_ms() / KERNEL_REF_MS
        env.update(passes=n_passes, kernel_ms=host.kernel_ms(), measured=dict(metrics))
        for key in ("ops_per_s", "states_per_s"):
            metrics[key] *= slowdown
        for key in ("op_ms_p50", "op_ms_p90", "setup_s"):
            metrics[key] /= slowdown
        units = UNITS
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
