"""Tests of the benchmark itself: seeded inputs, result checks, failure counting
and the tracer.

    python3 -m pytest -q bench/tests
"""
import math
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads as w  # noqa: E402


@pytest.mark.parametrize("make", [w.survey_inputs, w.numerov_inputs, w.cli_inputs])
def test_same_seed_gives_same_inputs(make):
    assert make(7) == make(7)
    assert len({repr(make(seed)) for seed in range(20)}) > 1


@pytest.mark.parametrize("seed", range(5))
def test_refusal_and_failure_share_is_fixed(seed):
    refused = [x for x in w.survey_inputs(seed) if math.sqrt(x.v0) * x.b > w.GUARD]
    assert len(refused) == w.SURVEY_REFUSED
    wells = w.numerov_inputs(seed)
    assert w.STANDARD_STUDY in wells
    assert sum(x.v0 >= 60.0 for x in wells) == 1


@pytest.fixture(scope="module")
def survey():
    well = w.SurveyWell(3.0, 3.0, 20.0, 100.0)
    return well, w.survey_op(well)


def test_survey_check_accepts_solver_output(survey):
    assert w.check_survey(*survey) is None


@pytest.mark.parametrize("row", [0, 3, 10, -1])
@pytest.mark.parametrize("column, shift", [(1, 1e-6), (2, 1e-6)])
def test_survey_check_rejects_doctored_row(survey, row, column, shift):
    well, table = survey
    rows = [list(r) for r in table.rows]
    rows[row][column] *= 1.0 + shift
    assert w.check_survey(well, replace(table, rows=rows)) is not None


def test_survey_check_rejects_missing_state(survey):
    well, table = survey
    rows = [list(r) for r in table.rows]
    del rows[4]
    assert w.check_survey(well, replace(table, rows=rows)) is not None


@pytest.mark.parametrize("family", ["exponential", "linear", "none"])
def test_numerov_check_rejects_doctored_levels(family):
    well = w.SmoothWell(3.0, 3.0, 20.0, family, 0.2, 30.0)
    levels = [SimpleNamespace(n=i + 1, energy=float(e))
              for i, e in enumerate(w.oracle_levels(well, 12)) if e <= well.cap]
    assert w.check_numerov(well, levels) is None
    shifted = [SimpleNamespace(n=s.n, energy=s.energy * (1.0 + 1e-3)) if s.n == 2 else s
               for s in levels]
    assert w.check_numerov(well, shifted) is not None
    assert w.check_numerov(well, levels[:-1]) is not None


def test_numerov_check_accepts_solver_output():
    well = w.SmoothWell(3.0, 3.0, 20.0, "exponential", 0.2, 12.0)
    assert w.check_numerov(well, w.numerov_op(well)) is None


def test_cli_check_rejects_one_changed_byte():
    goldens = w.load_goldens()
    _, code, out, _ = run.spawn([sys.executable, "-m", "asymwell.report", "spectrum"])
    assert code == 0
    assert w.check_cli("spectrum", out, goldens) is None
    doctored = bytearray(out)
    doctored[len(out) // 2] ^= 1
    assert w.check_cli("spectrum", bytes(doctored), goldens) is not None


def test_ok_frac_counts_a_refusal_as_failure():
    workload = run.in_process("step-survey", 0)
    workload.inputs = [w.SurveyWell(3.0, 4.0, 1e4, 50.0), w.SurveyWell(3.0, 3.0, 20.0, 35.0)]
    metrics, attempted, failed, wrong, _ = workload.measure(2)
    assert (attempted, failed, wrong) == (4, 2, 0)
    assert metrics["ok_frac"] == 0.5


@pytest.fixture
def small_survey():
    workload = run.in_process("step-survey", 0)
    workload.inputs = workload.inputs[:10]
    return workload


def test_traced_run_restores_functions_and_repeats_counts(small_survey):
    tr = tracer.Tracer()
    with tr.installed():
        with pytest.raises(RuntimeError):
            tracer.assert_unwrapped()
    tracer.assert_unwrapped()
    metrics, attempted, failed, wrong = small_survey.trace()
    tracer.assert_unwrapped()
    assert metrics["spectrum.char_energies"] > 0
    assert metrics["rootscan.bisect_iters"] > 0
    assert metrics["report.cmd_ms"] > 0
    assert wrong == 0 and attempted == 30


def test_traced_run_fails_when_counts_differ(small_survey, monkeypatch):
    calls = []
    original = tracer.Tracer.metrics

    def drifting(self):
        calls.append(1)
        out = original(self)
        out["rootscan.bisect_iters"] += len(calls)
        return out

    monkeypatch.setattr(tracer.Tracer, "metrics", drifting)
    with pytest.raises(RuntimeError, match="count metrics differ"):
        small_survey.trace()


def test_parse_importtime_attributes_outermost_imports():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |        300 |   numpy",
        "import time:        50 |         50 |       numpy.ma",
        "import time:       400 |        450 |     scipy",
        "import time:       100 |        550 |   scipy.integrate",
        "import time:        10 |        860 | asymwell",
    ])
    assert tracer.parse_importtime(log) == {
        "import.numpy_ms": 0.3, "import.scipy_ms": 0.55, "import.asymwell_ms": 0.86}
