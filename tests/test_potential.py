"""Potential families: values, limits, monotonicity, and validation."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from asymwell import Exponential, Linear, WellSpec, evaluate, match_smoothings, sample

STEP = WellSpec(3.0, 3.0, 20.0)

lengths = st.floats(min_value=0.5, max_value=10.0, allow_nan=False)
heights = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)


class TestEvaluate:
    def test_step_values(self):
        assert evaluate(STEP, -1.0) == 0.0
        assert evaluate(STEP, 1.0) == 20.0
        assert evaluate(STEP, 0.0) == 10.0  # midpoint convention, both smoothing limits

    def test_walls_are_infinite_markers(self):
        assert evaluate(STEP, -3.0000001) == math.inf
        assert evaluate(STEP, 3.0000001) == math.inf
        # the walls themselves are interior
        assert evaluate(STEP, -3.0) == 0.0
        assert evaluate(STEP, 3.0) == 20.0

    def test_sigmoid_midpoint(self):
        spec = WellSpec(3.0, 3.0, 20.0, Exponential(0.2))
        assert evaluate(spec, 0.0) == pytest.approx(10.0, abs=1e-14)

    def test_linear_interpolation(self):
        spec = WellSpec(3.0, 3.0, 20.0, Linear(0.4))
        assert evaluate(spec, 0.2) == pytest.approx(15.0, abs=1e-12)

    def test_linear_clamps_exactly(self):
        spec = WellSpec(3.0, 3.0, 20.0, Linear(0.4))
        assert evaluate(spec, -0.4) == 0.0
        assert evaluate(spec, 0.4) == 20.0
        assert evaluate(spec, -2.0) == 0.0
        assert evaluate(spec, 2.0) == 20.0

    def test_sample_matches_scalar(self):
        for spec in (STEP,
                     WellSpec(3.0, 3.0, 20.0, Exponential(0.3)),
                     WellSpec(3.0, 3.0, 20.0, Linear(0.5))):
            xs = np.linspace(-3.0, 3.0, 41)
            vals = sample(spec, xs)
            for x, v in zip(xs, vals):
                assert v == evaluate(spec, float(x))

    def test_sample_rejects_outside(self):
        with pytest.raises(ValueError):
            sample(STEP, np.array([-3.1, 0.0]))


class TestLimitsAndShape:
    def test_sigmoid_approaches_step_pointwise(self):
        # float64 saturates the difference at 0 for small delta, hence non-strict
        for x in (0.5, -0.5):
            step_val = evaluate(STEP, x)
            errs = [
                abs(evaluate(WellSpec(3.0, 3.0, 20.0, Exponential(d)), x) - step_val)
                for d in (0.1, 0.01, 0.001)
            ]
            assert errs[0] >= errs[1] >= errs[2]
            assert errs[0] < 0.2 and errs[2] < 1e-40

    @given(x1=st.floats(-2.9, 2.9), x2=st.floats(-2.9, 2.9),
           delta=st.floats(0.05, 1.0))
    @settings(max_examples=80)
    def test_sigmoid_monotone(self, x1, x2, delta):
        # strictly increasing in exact arithmetic; float64 saturates the tails
        lo, hi = sorted((x1, x2))
        spec = WellSpec(3.0, 3.0, 20.0, Exponential(delta))
        v_lo, v_hi = evaluate(spec, lo), evaluate(spec, hi)
        assert v_lo <= v_hi
        if hi - lo > 0.01 and abs(lo) < 4 * delta and abs(hi) < 4 * delta:
            assert v_lo < v_hi

    @given(x1=st.floats(-2.9, 2.9), x2=st.floats(-2.9, 2.9),
           eps=st.floats(0.05, 2.0))
    @settings(max_examples=80)
    def test_ramp_non_decreasing(self, x1, x2, eps):
        lo, hi = sorted((x1, x2))
        spec = WellSpec(3.0, 3.0, 20.0, Linear(eps))
        assert evaluate(spec, lo) <= evaluate(spec, hi)

    @given(a=lengths, b=lengths, v0=heights, frac=st.floats(0.0, 1.0),
           family=st.sampled_from(["none", "exp", "lin"]),
           scale=st.floats(0.05, 0.4))
    @settings(max_examples=120)
    def test_bounded_by_floor_and_step(self, a, b, v0, frac, family, scale):
        if family == "exp":
            smoothing = Exponential(scale)
        elif family == "lin":
            smoothing = Linear(scale * min(a, b))
        else:
            smoothing = None
        spec = WellSpec(a, b, v0, smoothing)
        x = min(-a + frac * (a + b), b)  # the sum can round one ulp past b
        value = evaluate(spec, x)
        assert 0.0 <= value <= v0


class TestMatchSmoothings:
    def test_doubles_delta(self):
        assert match_smoothings(0.2) == pytest.approx(0.4)
        assert match_smoothings(0.5) == pytest.approx(1.0)

    def test_first_order_agreement_at_origin(self):
        # central-difference slopes of both families coincide under eps = 2 delta
        delta = 0.17
        eps = match_smoothings(delta)
        sig = WellSpec(3.0, 3.0, 20.0, Exponential(delta))
        ramp = WellSpec(3.0, 3.0, 20.0, Linear(eps))
        h = 1e-6
        slope_sig = (evaluate(sig, h) - evaluate(sig, -h)) / (2 * h)
        slope_ramp = (evaluate(ramp, h) - evaluate(ramp, -h)) / (2 * h)
        assert slope_sig == pytest.approx(20.0 / (4 * delta), rel=1e-6)
        assert slope_ramp == pytest.approx(20.0 / (2 * eps), rel=1e-9)
        assert slope_sig == pytest.approx(slope_ramp, rel=1e-6)

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            match_smoothings(0.0)


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(a=0.0, b=3.0, v0=20.0),
        dict(a=3.0, b=-1.0, v0=20.0),
        dict(a=3.0, b=3.0, v0=-0.1),
    ])
    def test_bad_geometry(self, kwargs):
        with pytest.raises(ValueError):
            WellSpec(**kwargs)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("field", ["a", "b", "v0"])
    def test_non_finite_geometry(self, field, value):
        kwargs = {"a": 3.0, "b": 3.0, "v0": 20.0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            WellSpec(**kwargs)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_smoothing_scales(self, value):
        with pytest.raises(ValueError, match="delta must be finite"):
            Exponential(value)
        with pytest.raises(ValueError, match="epsilon must be finite"):
            Linear(value)

    def test_bad_smoothing_scales(self):
        with pytest.raises(ValueError):
            Exponential(0.0)
        with pytest.raises(ValueError):
            Linear(-0.2)
        with pytest.raises(ValueError):
            WellSpec(1.0, 3.0, 20.0, Linear(1.0))  # ramp must stay inside the well
