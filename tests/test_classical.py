"""Classical bounce model: densities, side probabilities, limits, oracle."""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from asymwell import Exponential, WellSpec, classical_density, classical_model
from oracles import bounce_left_fraction

STEP = WellSpec(3.0, 3.0, 20.0)

lengths = st.floats(min_value=0.5, max_value=10.0)
heights = st.floats(min_value=0.1, max_value=100.0)


class TestConfinedRegime:
    def test_below_step_locks_left(self):
        model = classical_model(STEP, 10.0)
        assert model.p_left == 1.0 and model.p_right == 0.0
        assert model.density_left == pytest.approx(1.0 / 3.0)
        assert model.density_right == 0.0
        assert model.t_right == 0.0

    def test_density_profile(self):
        model = classical_model(STEP, 10.0)
        assert classical_density(model, 1.0) == 0.0
        assert classical_density(model, -1.0) == pytest.approx(1.0 / 3.0)


class TestTraversingRegime:
    def test_reference_value(self):
        # direct evaluation a sqrt(E-v0) / (a sqrt(E-v0) + b sqrt(E))
        model = classical_model(STEP, 20.84)
        expected = math.sqrt(0.84) / (math.sqrt(0.84) + math.sqrt(20.84))
        assert model.p_left == pytest.approx(expected, rel=1e-12)
        assert model.p_left == pytest.approx(0.1672, abs=5e-5)

    def test_time_of_flight_oracle(self):
        model = classical_model(STEP, 20.84)
        sim = bounce_left_fraction(3.0, 3.0, 20.0, 20.84)
        assert model.p_left == pytest.approx(sim, abs=1e-3)

    def test_high_energy_geometric_limit(self):
        model = classical_model(STEP, 1e8)
        assert abs(model.p_left - 0.5) < 1e-4

    def test_flat_well_is_uniform(self):
        model = classical_model(WellSpec(3.0, 3.0, 0.0), 7.3)
        assert model.density_left == model.density_right == pytest.approx(1.0 / 6.0)
        assert classical_density(model, 0.4) == pytest.approx(1.0 / 6.0)

    @given(a=lengths, b=lengths, v0=heights, above=st.floats(1e-3, 1e3))
    @settings(max_examples=200)
    def test_normalization_identity(self, a, b, v0, above):
        model = classical_model(WellSpec(a, b, v0), v0 + above)
        assert model.density_left * a + model.density_right * b == pytest.approx(1.0, abs=1e-12)
        assert model.p_left + model.p_right == pytest.approx(1.0, abs=1e-12)

    def test_normalization_identity_bulk(self):
        # dense randomized sweep of the closed-form identity
        rng = np.random.default_rng(7)
        for _ in range(1000):
            a, b = rng.uniform(0.3, 12.0, 2)
            v0 = rng.uniform(0.0, 200.0)
            e = v0 + rng.uniform(1e-6, 1e4)
            model = classical_model(WellSpec(a, b, v0), e)
            assert abs(model.density_left * a + model.density_right * b - 1.0) < 1e-12

    @given(a=lengths, b=lengths, v0=heights, above=st.floats(1e-3, 1e3))
    @settings(max_examples=150)
    def test_equivalent_forms_agree(self, a, b, v0, above):
        e = v0 + above
        p = classical_model(WellSpec(a, b, v0), e).p_left
        form2 = (a / math.sqrt(e)) / (a / math.sqrt(e) + b / math.sqrt(e - v0))
        form3 = a / (a + b * math.sqrt(e / (e - v0)))
        assert p == pytest.approx(form2, rel=1e-12)
        assert p == pytest.approx(form3, rel=1e-12)

    @given(a=lengths, b=lengths, v0=heights,
           e1=st.floats(1e-2, 1e3), bump=st.floats(1e-2, 1e3))
    @settings(max_examples=150)
    def test_monotone_and_bounded_by_geometric_ratio(self, a, b, v0, e1, bump):
        spec = WellSpec(a, b, v0)
        p1 = classical_model(spec, v0 + e1).p_left
        p2 = classical_model(spec, v0 + e1 + bump).p_left
        assert p1 < p2 < a / (a + b)


class TestDensityFunction:
    def test_midpoint_average(self):
        model = classical_model(STEP, 24.0)
        mid = 0.5 * (model.density_left + model.density_right)
        assert classical_density(model, 0.0) == pytest.approx(mid)

    def test_vectorized(self):
        model = classical_model(STEP, 24.0)
        xs = np.array([-2.0, -0.5, 0.5, 2.0])
        vals = classical_density(model, xs)
        assert vals[0] == vals[1] == model.density_left
        assert vals[2] == vals[3] == model.density_right

    def test_rejects_outside(self):
        model = classical_model(STEP, 24.0)
        with pytest.raises(ValueError):
            classical_density(model, 3.5)


class TestValidation:
    def test_threshold_energy_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            classical_model(STEP, 20.0)

    def test_nonpositive_energy_rejected(self):
        with pytest.raises(ValueError):
            classical_model(STEP, 0.0)

    def test_smoothed_spec_rejected(self):
        with pytest.raises(ValueError):
            classical_model(WellSpec(3.0, 3.0, 20.0, Exponential(0.2)), 30.0)

    @pytest.mark.parametrize("call, message", [
        (lambda: classical_model(STEP, math.inf), "energy must be finite and positive, got inf"),
        (lambda: classical_model(STEP, math.nan), "energy must be finite and positive, got nan"),
        (lambda: classical_density(classical_model(STEP, 24.0), math.nan),
         "position outside the well"),
        (lambda: classical_density(classical_model(STEP, 24.0), np.array([0.0, math.nan])),
         "position outside the well"),
    ], ids=["model-inf", "model-nan", "density-nan", "density-array-nan"])
    def test_non_finite_inputs_refused(self, call, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()
