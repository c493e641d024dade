"""Momentum transforms: quadrature agreement, symmetry, Parseval, features."""
import math
import re

import numpy as np
import pytest
from scipy.integrate import simpson

from asymwell import WellSpec, density_series, find_spectrum, peak_separation, phi
from oracles import flat_well_phi, phi_by_quadrature

STEP = WellSpec(3.0, 3.0, 20.0)


def _series(state, samples_per_unit=400):
    p_max = max(8.0 * state.k, 16.0)
    n = int(2 * p_max * samples_per_unit) + 1
    return density_series(state, p_max, n)


class TestClosedFormAgainstQuadrature:
    @pytest.mark.parametrize("index", [0, 4])  # one evanescent, one oscillatory
    def test_matches_quadrature(self, standard_states, index):
        state = standard_states[index]
        rng = np.random.default_rng(42)
        points = list(rng.uniform(-12.0, 12.0, 25))
        # removable-singularity neighborhood, inside and outside the guard
        points += [state.k, state.k + 3e-7, -state.k - 3e-7, state.k + 2e-6,
                   state.k + 1e-4, -state.k + 5e-7, 0.0]
        if not state.below_threshold:
            points += [state.q_or_qbar, state.q_or_qbar - 4e-7,
                       state.q_or_qbar + 1e-4]
        for p in points:
            assert phi(state, float(p)) == pytest.approx(
                phi_by_quadrature(state, float(p)), abs=1e-8)


class TestSymmetryAndNormalization:
    def test_density_even_at_random_points(self, standard_states):
        rng = np.random.default_rng(3)
        for state in standard_states:
            for p in rng.uniform(0.0, 20.0, 10):
                d_plus = abs(phi(state, float(p))) ** 2
                d_minus = abs(phi(state, float(-p))) ** 2
                assert d_plus == pytest.approx(d_minus, abs=1e-10)

    @pytest.mark.parametrize("index", [0, 4, 8])
    def test_parseval(self, standard_states, index):
        series = _series(standard_states[index])
        total = simpson(series.density, x=series.p_grid)
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_series_grid_symmetric(self, standard_states):
        series = _series(standard_states[5])
        assert np.max(np.abs(series.p_grid + series.p_grid[::-1])) < 1e-12
        assert np.max(np.abs(series.density - series.density[::-1])) < 1e-12

    def test_markers(self, standard_states):
        below = density_series(standard_states[0], 10.0, 101)
        assert below.q_marker is None
        assert below.k_marker == pytest.approx(standard_states[0].k)
        above = density_series(standard_states[5], 10.0, 101)
        assert above.q_marker == pytest.approx(standard_states[5].q_or_qbar)

    def test_argument_validation(self, standard_states):
        with pytest.raises(ValueError):
            density_series(standard_states[0], -1.0, 101)
        with pytest.raises(ValueError):
            density_series(standard_states[0], 10.0, 2)

    @pytest.mark.parametrize("call, message", [
        (lambda states: density_series(states[0], math.inf, 5),
         "p_max must be finite and positive, got inf"),
        (lambda states: phi(states[0], math.nan), "momentum must be finite, got nan"),
        (lambda states: phi(states[0], np.array([0.0, -math.inf])),
         "momentum must be finite, got -inf"),
        (lambda states: peak_separation(STEP, math.inf),
         "energy must be finite and positive, got inf"),
    ], ids=["density_series-inf", "phi-nan", "phi-array-inf", "peak_separation-inf"])
    def test_non_finite_inputs_refused(self, standard_states, call, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            call(standard_states)


def _tallest_peak_in(series, lo, hi):
    mask = (series.p_grid >= lo) & (series.p_grid <= hi)
    return float(series.density[mask].max())


class TestQualitativeFeatures:
    def test_ground_state_single_central_feature(self, standard_states):
        state = standard_states[0]
        series = _series(state)
        peak_idx = int(np.argmax(series.density))
        assert abs(series.p_grid[peak_idx]) < 0.5 * state.k
        mask = np.abs(series.p_grid) <= 2.0 * state.k
        assert simpson(series.density[mask], x=series.p_grid[mask]) > 0.95

    def test_first_traversing_state_feature_layout(self, standard_states):
        # n = 5: dominant slow feature near +-q, small fast features near +-k
        state = standard_states[4]
        q, k = state.q_or_qbar, state.k
        series = _series(state)
        central = _tallest_peak_in(series, q - 0.7, q + 0.7)
        side = _tallest_peak_in(series, k - 0.7, k + 0.7)
        assert central > 5.0 * side

    def test_antinode_state_has_balanced_features(self, standard_states):
        # n = 6 spends about equal time on both sides, so the q and k features
        # carry comparable heights (measured ratio 1.11)
        state = standard_states[5]
        q, k = state.q_or_qbar, state.k
        series = _series(state)
        ratio = _tallest_peak_in(series, q - 0.7, q + 0.7) / _tallest_peak_in(
            series, k - 0.7, k + 0.7)
        assert 0.8 < ratio < 1.4

    def test_ninth_state_interference_feature_dominates(self, standard_states):
        # the q and k features have merged enough that the cross term builds a
        # taller feature strictly between them
        state = standard_states[8]
        q, k = state.q_or_qbar, state.k
        series = _series(state)
        near_q = _tallest_peak_in(series, q - 0.45, q + 0.45)
        near_k = _tallest_peak_in(series, k - 0.45, k + 0.45)
        between = _tallest_peak_in(series, q + 0.45, k - 0.45)
        assert between > near_q and between > near_k


class TestHighStepLimit:
    def test_density_approaches_left_pocket_well(self):
        # at v0 = 1e4 the low states live in the width-a pocket; their
        # densities must match the hard-wall transform within 2% of its peak
        tall = WellSpec(3.0, 3.0, 1e4)
        states = find_spectrum(tall, 12.0)
        grid = np.linspace(-8.0, 8.0, 1601)
        for n in (1, 2, 3):
            ours = np.abs(phi(states[n - 1], grid)) ** 2
            ref = np.abs(np.array([flat_well_phi(n, 3.0, float(p)) for p in grid])) ** 2
            assert np.max(np.abs(ours - ref)) < 0.02 * ref.max()


class TestPeakSeparation:
    def test_reference_value(self):
        assert peak_separation(STEP, 25.0) == pytest.approx(5.0 - math.sqrt(5.0),
                                                            rel=1e-14)

    def test_asymptotic_form(self):
        e = 1e6
        ratio = peak_separation(STEP, e) * 2.0 * math.sqrt(e) / 20.0
        assert ratio == pytest.approx(1.0, abs=1e-5)

    def test_decreasing_in_energy(self):
        seps = [peak_separation(STEP, e) for e in (21.0, 30.0, 100.0, 1e4)]
        assert seps == sorted(seps, reverse=True)

    def test_rejects_below_threshold(self):
        with pytest.raises(ValueError):
            peak_separation(STEP, 19.0)
