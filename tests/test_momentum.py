"""Momentum transforms: quadrature agreement, symmetry, Parseval, features."""
import math
import re
import warnings

import numpy as np
import pytest
from scipy.integrate import simpson

from asymwell import WellSpec, density_series, find_spectrum, peak_separation, phi
from asymwell.momentum import _j_osc
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


    def test_exact_at_the_removable_poles(self):
        # J(kappa, L, kappa) = (L - (1 - exp(-2i kappa L)) / (2i kappa)) / 2i
        #                    = sin^2(kappa L) / (2 kappa) - i (x - sin x) / (4 kappa), x = 2 kappa L,
        # with x - sin x summed as its Taylor series below x = 2, free of cancellation.
        # The package's closed forms take the imaginary part as a difference of two
        # O(L) terms, so below kappa L = 0.1 they keep about 1e-15 / (kappa L).
        rng = np.random.default_rng(24)
        corners = [(0.05, 0.2), (0.05, 6.0), (60.0, 0.2), (60.0, 6.0)]
        draws = zip(rng.uniform(0.05, 60.0, 1000), rng.uniform(0.2, 6.0, 1000))
        for kappa, length in [*corners, *draws]:
            x = 2.0 * kappa * length
            deficit = (math.fsum((-1) ** (n + 1) * x ** (2 * n + 1) / math.factorial(2 * n + 1)
                                 for n in range(1, 14)) if x < 2.0 else x - math.sin(x))
            exact = complex(math.sin(kappa * length) ** 2 / (2 * kappa), -deficit / (4 * kappa))
            at_poles = _j_osc(kappa, length, np.array([kappa, -kappa]))
            tol = 1e-14 * max(1.0, 0.1 / (kappa * length))
            assert abs(at_poles[0] - exact) <= tol * abs(exact), (kappa, length)
            assert abs(at_poles[1] - exact.conjugate()) <= tol * abs(exact), (kappa, length)


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

    @pytest.mark.parametrize("n_points", [3.5, 4.0, math.nan])
    def test_non_integer_point_count_refused(self, standard_states, n_points):
        with pytest.raises(ValueError, match=re.escape(f"n_points must be an integer of at "
                                                       f"least 3, got {n_points}")):
            density_series(standard_states[0], 10.0, n_points)

    def test_numpy_integer_point_count_accepted(self, standard_states):
        series = density_series(standard_states[0], 10.0, np.int64(5))
        assert np.array_equal(series.p_grid, density_series(standard_states[0], 10.0, 5).p_grid)


class TestMomentumBound:
    """|p| past 1e150 is refused by name: there p**2 and p sinh(qbar b) overflow,
    and inf / inf gave NaN."""

    TALL = WellSpec(3.0, 3.0, 10000.0)  # qbar b near 300 on the ground state

    @pytest.mark.parametrize("p", [1e200, np.array([0.0, -1.5e150])], ids=["scalar", "array"])
    def test_phi_refuses_momenta_past_the_bound(self, p):
        state = find_spectrum(self.TALL, 50.0)[0]
        bad = float(np.atleast_1d(p)[-1])
        with pytest.raises(ValueError, match=re.escape(
                f"momentum must be at most 1e+150 in magnitude, got {bad}")):
            phi(state, p)

    def test_density_series_refuses_a_range_past_the_bound(self, standard_states):
        with pytest.raises(ValueError, match=re.escape("p_max must be at most 1e+150, got 1e+200")):
            density_series(standard_states[0], 1e200, 5)

    def test_finite_and_quiet_at_the_bound(self, standard_states):
        p = np.array([-1e150, -1e100, 1e100, 1e150])
        for state in (find_spectrum(self.TALL, 50.0)[0], standard_states[0], standard_states[5]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                values = phi(state, p)
            assert np.all(np.abs(values) < 1e-90)


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
