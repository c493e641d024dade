"""Numerov shooting solver: convergence order, cross-solver agreement, smoothing."""
import math

import numpy as np
import pytest
from scipy.integrate import simpson

from asymwell import (
    Exponential,
    GridSolution,
    Linear,
    NodeCountError,
    WellSpec,
    classical_model,
    find_spectrum,
    find_spectrum_numeric,
    sample,
    shoot,
    side_probabilities,
    side_probability_numeric,
)
from asymwell import shooting
from asymwell.shooting import (
    _build_grid,
    _count_below,
    _sweep_final,
    _transfer_blocks,
    interior_nodes,
)
from asymwell._rootscan import scan_step
from asymwell.spectrum import _count_below as closed_form_count
from oracles import fd_left_probability, fd_spectrum, reference_roots

STEP = WellSpec(3.0, 3.0, 20.0)
SMOOTH = WellSpec(3.0, 3.0, 20.0, Exponential(0.2))

# the CLI's standard smoothing study (cap 35 * 1.05 + 20 * 0.2 + 1) at
# n_grid = 4000, frozen from the per-cell sweep the blocked one replaced
STUDY_ENERGIES = [
    1.1835289901468058,
    4.471769890050929,
    9.376287002957547,
    15.276727130118525,
    20.33095083428198,
    22.05816603954299,
    25.082330226001794,
    28.832382863468954,
    33.1823474018951,
    38.21661985804094,
]

# frozen delta = 0.2 energies at n_grid = 4000, cross-checked against the
# finite-difference oracle on the same grid (agreement ~1e-5 relative)
SMOOTH_ENERGIES = [
    1.18352899015,
    4.47176989005,
    9.37628700296,
    15.2767271301,
    20.3309508343,
    22.0581660395,
    25.082330226,
    28.8323828635,
    33.1823474019,
]


class TestShoot:
    def test_mismatch_brackets_ground_state(self):
        assert shoot(STEP, 0.94, 4000) * shoot(STEP, 0.96, 4000) < 0

    def test_mismatch_away_from_roots_is_large(self):
        # nearest roots sit at 0.949 and 3.781; E = 2 is far from both
        assert abs(shoot(STEP, 2.0, 400)) > 1e3

    def test_flat_well_mismatch_shrinks_at_fourth_order(self):
        # state 6 keeps the dispersion error above the roundoff floor; halving
        # h twice should shrink the mismatch by ~4^4 per halving
        exact = math.pi**2  # (6 pi / 6)^2
        coarse = abs(shoot(WellSpec(3.0, 3.0, 0.0), exact, 200))
        fine = abs(shoot(WellSpec(3.0, 3.0, 0.0), exact, 800))
        assert fine < coarse / 50.0
        assert coarse < 1e-4

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            shoot(STEP, 1.0, 99)
        with pytest.raises(ValueError):
            shoot(STEP, 1.0, 4001)

    def test_grid_too_coarse_for_the_floor_rejected(self):
        # at h^2 v0 / 12 >= 1 the recurrence flips sign every cell under the step
        with pytest.raises(ValueError, match="n_grid >= 5478"):
            shoot(WellSpec(3.0, 3.0, 1e7), 1.0, 4000)

    def test_overflow_guard_keeps_values_finite(self):
        # qbar * b ~ 670 drives the raw recurrence past 1e290 without rescaling
        value = shoot(WellSpec(3.0, 3.0, 5e4), 1.0, 2000)
        assert math.isfinite(value)


def scalar_sweep(v, h, energy):
    """psi over the grid by the plain per-cell recurrence, with the number of
    1e-250 rescales it needed; samples before a rescale are left as they were."""
    c = h * h / 12.0
    t = [c * (vi - energy) for vi in v]
    psi = [0.0, h * (1.0 + h * h * (v[0] - energy) / 6.0)]
    rescales = 0
    for i in range(1, len(v) - 1):
        psi.append(((2.0 + 10.0 * t[i]) * psi[i] - (1.0 - t[i - 1]) * psi[i - 1])
                   / (1.0 - t[i + 1]))
        if abs(psi[-1]) > 1e250:
            psi[-2] *= 1e-250
            psi[-1] *= 1e-250
            rescales += 1
    return np.array(psi), rescales


class TestKernel:
    @pytest.mark.parametrize("spec", [STEP, SMOOTH, WellSpec(3.0, 3.0, 1e5)],
                             ids=["step", "sigmoid", "deep"])
    def test_sweep_sign_matches_scalar_recurrence(self, spec):
        xs, h = _build_grid(spec, 1000)
        v = sample(spec, xs)
        energies = np.linspace(0.3, 60.0, 83)
        swept = _sweep_final(v, h, energies)
        total = 0
        for e, got in zip(energies, swept):
            ref, rescales = scalar_sweep(v, h, e)
            total += rescales
            assert np.sign(got) == np.sign(ref[-1]) != 0, e
        if spec.v0 > 1e4:
            assert total >= len(energies)  # the rescale fired on every trial energy

    def test_trajectory_matches_scalar_recurrence(self):
        # 1003 points: the last block of 32 steps is partly padding
        xs = np.linspace(-3.0, 3.0, 1003)
        v = sample(SMOOTH, xs)
        h = xs[1] - xs[0]
        for e in (1.2, 17.0, 33.2):
            ref, rescales = scalar_sweep(v, h, e)
            assert rescales == 0
            path = _transfer_blocks(v, h, np.asarray([e]), path=True)[:, 0]
            assert path.shape == ref.shape
            np.testing.assert_allclose(path, ref, rtol=0, atol=1e-9 * np.abs(ref).max())
            assert path[-1] == _sweep_final(v, h, e)[0]

    def test_standard_study_energies_unchanged(self):
        sols = find_spectrum_numeric(SMOOTH, 41.75, 4000)
        assert [s.energy for s in sols] == pytest.approx(STUDY_ENERGIES, rel=1e-10)


class TestConvergenceOrder:
    def test_fourth_order_on_smooth_problem(self):
        # flat well against exact (n pi / 6)^2; states 4-6 on coarse grids keep
        # the dispersion error well above the 1e-12 energy-tolerance floor
        flat = WellSpec(3.0, 3.0, 0.0)
        grids = (200, 400, 800, 1600)
        spectra = {n: find_spectrum_numeric(flat, 12.0, n) for n in grids}
        for n_state in (4, 5, 6):
            exact = (n_state * math.pi / 6.0) ** 2
            errs = [abs(spectra[g][n_state - 1].energy - exact) for g in grids]
            slope = np.polyfit(np.log([6.0 / g for g in grids]), np.log(errs), 1)[0]
            assert slope == pytest.approx(4.0, abs=0.5)

    def test_second_order_across_the_sharp_step(self, states_e100):
        # the discontinuity degrades the scheme to O(h^2) even with the
        # midpoint sample; pinned so the limitation stays visible
        exact = states_e100[0].energy
        errs = [abs(find_spectrum_numeric(STEP, 1.2, g)[0].energy - exact)
                for g in (500, 1000, 2000, 4000)]
        slope = np.polyfit(np.log([6.0 / g for g in (500, 1000, 2000, 4000)]),
                           np.log(errs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.4)


class TestCrossSolver:
    def test_step_spectrum_close_at_default_grid(self, states_e100, numeric_step_e100):
        assert len(numeric_step_e100) == 18
        worst = max(abs(s.energy - a.energy) / a.energy
                    for s, a in zip(numeric_step_e100, states_e100))
        assert worst < 1.5e-6  # measured 1.01e-6, dominated by the O(h^2) step error

    def test_sharp_sigmoid_reproduces_step(self, states_e100):
        # delta = 1e-4 is far below the grid resolution, so the sampled
        # potential coincides with the stepped one
        sharp = WellSpec(3.0, 3.0, 20.0, Exponential(1e-4))
        sols = find_spectrum_numeric(sharp, 100.0, 4000)
        worst = max(abs(s.energy - a.energy) / a.energy
                    for s, a in zip(sols, states_e100))
        assert worst < 1e-4

    def test_matches_fd_oracle(self, numeric_step_e100):
        energies, _, _ = fd_spectrum(STEP, 18, 4000)
        worst = max(abs(s.energy - e) / e for s, e in zip(numeric_step_e100, energies))
        assert worst < 1e-4


class TestGridSolutions:
    def test_invariants(self, numeric_smooth_035):
        for sol in numeric_smooth_035:
            assert sol.values[0] == 0.0 and sol.values[-1] == 0.0
            assert simpson(sol.values**2, x=sol.grid) == pytest.approx(1.0, abs=1e-8)
            assert interior_nodes(sol) == sol.n - 1
            assert sol.values[1] > 0

    def test_smoothed_energies_frozen(self, numeric_smooth_035):
        assert len(numeric_smooth_035) == 9
        for sol, ref in zip(numeric_smooth_035, SMOOTH_ENERGIES):
            assert sol.energy == pytest.approx(ref, rel=1e-8)

    def test_smoothed_energies_match_fd_oracle(self, numeric_smooth_035):
        energies, _, _ = fd_spectrum(SMOOTH, 9, 4000)
        for sol, e in zip(numeric_smooth_035, energies):
            assert sol.energy == pytest.approx(e, rel=1e-4)


class TestSideProbability:
    def test_flat_well_is_even_split(self):
        sols = find_spectrum_numeric(WellSpec(3.0, 3.0, 0.0), 3.0, 2000)
        for sol in sols:
            assert side_probability_numeric(sol) == pytest.approx(0.5, abs=1e-6)

    def test_matches_closed_form_on_step(self, states_e100, numeric_step_e100):
        for sol, st in zip(numeric_step_e100[:9], states_e100[:9]):
            assert side_probability_numeric(sol) == pytest.approx(
                side_probabilities(st)[0], abs=1e-5)

    def test_straddled_origin_interpolation_exact_on_flat_well(self):
        # a = 2.9 puts the origin strictly between grid samples; with no step
        # there is no discontinuity penalty and the split must be near-exact
        spec = WellSpec(2.9, 3.1, 0.0)
        sols = find_spectrum_numeric(spec, 2.0, 4000)
        states = find_spectrum(spec, 2.0)
        for sol, st in zip(sols, states):
            assert side_probability_numeric(sol) == pytest.approx(
                side_probabilities(st)[0], abs=1e-7)

    def test_straddled_origin_with_step(self):
        # an off-grid discontinuity misplaces the sampled step by up to h/2;
        # measured probability disagreement peaks at 4.2e-4 for the
        # near-saturating states, still far below any cell-split bug
        spec = WellSpec(2.9, 3.1, 20.0)
        sols = find_spectrum_numeric(spec, 26.0, 4000)
        states = find_spectrum(spec, 26.0)
        for sol, st in zip(sols, states):
            assert side_probability_numeric(sol) == pytest.approx(
                side_probabilities(st)[0], abs=1e-3)

    def test_smoothed_anomalous_state_moves_to_classical(self, numeric_smooth_035,
                                                         standard_states):
        # frozen oracle value: smoothing pulls the n = 6 probability from 0.504
        # down to 0.279, within 0.05 of the classical prediction
        p6 = side_probability_numeric(numeric_smooth_035[5])
        assert p6 == pytest.approx(0.279360546115, abs=1e-6)
        _, fd_vecs, fd_xs = fd_spectrum(SMOOTH, 6, 4000)
        assert p6 == pytest.approx(fd_left_probability(fd_xs, fd_vecs[5]), abs=1e-5)
        p6_cl = classical_model(STEP, numeric_smooth_035[5].energy).p_left
        assert abs(p6 - p6_cl) < 0.05

    def test_near_threshold_state_is_the_exception(self, numeric_smooth_035,
                                                   standard_states):
        # n = 5 sits just above the step; smoothing moves it away from classical
        p5_smooth = side_probability_numeric(numeric_smooth_035[4])
        p5_step, _ = side_probabilities(standard_states[4])
        cl_smooth = classical_model(STEP, numeric_smooth_035[4].energy).p_left
        cl_step = classical_model(STEP, standard_states[4].energy).p_left
        assert abs(p5_smooth - cl_smooth) > abs(p5_step - cl_step)


class TestQuarterWavelengthRule:
    def test_smoothing_at_quarter_wavelength_repairs_n6(self, standard_states):
        st6 = standard_states[5]
        delta = (2.0 * math.pi / st6.k) / 4.0
        sols = find_spectrum_numeric(WellSpec(3.0, 3.0, 20.0, Exponential(delta)),
                                     25.0, 4000)
        p6 = side_probability_numeric(sols[5])
        p_cl = classical_model(STEP, sols[5].energy).p_left
        assert abs(p6 - p_cl) < 0.05


class TestDeepSteps:
    """Wells whose right side is deeply evanescent: every stitched state must
    pass the node check, and the energies must match the independent routes."""

    @pytest.mark.parametrize("v0", [60.0, 200.0, 1000.0])
    def test_sharp_step_matches_closed_form(self, v0):
        spec = WellSpec(3.0, 3.0, v0)
        states = find_spectrum(spec, 30.0)
        sols = find_spectrum_numeric(spec, 30.0, 4000)
        assert len(sols) == len(states)
        for sol, st in zip(sols, states):
            # the documented O(h^2) error of the sampled step
            assert sol.energy == pytest.approx(st.energy, rel=2e-5)
            assert interior_nodes(sol) == sol.n - 1

    def test_step_past_the_closed_form_guard(self):
        # the solution from -a grows by ~1e580 under this step, so a rescale
        # past the barrier underflows its left-side samples to 0; the Sturm
        # count must not lose their sign changes
        spec = WellSpec(3.0, 3.0, 2e5)
        sols = find_spectrum_numeric(spec, 60.0, 4000)
        energies, _, _ = fd_spectrum(spec, len(sols) + 1, 4000)
        assert len(sols) == 7 and energies[7] > 60.0
        for sol, e in zip(sols, energies):
            assert sol.energy == pytest.approx(e, rel=1e-4)

    def test_grid_too_coarse_for_the_step_rejected(self):
        # at h^2 v0 / 12 >= 1 the recurrence flips sign every cell under the step
        spec = WellSpec(3.0, 3.0, 1e7)
        with pytest.raises(ValueError, match="n_grid >= 5478"):
            find_spectrum_numeric(spec, 60.0, 4000)
        assert len(find_spectrum_numeric(spec, 60.0, 5478)) == 7

    @pytest.mark.parametrize("v0", [80.0, 500.0])
    def test_sigmoid_matches_fd_oracle(self, v0):
        spec = WellSpec(3.0, 3.0, v0, Exponential(0.2))
        sols = find_spectrum_numeric(spec, 30.0, 4000)
        energies, _, _ = fd_spectrum(spec, len(sols) + 1, 4000)
        assert energies[len(sols)] > 30.0  # no state missing below the cap
        for sol, e in zip(sols, energies):
            assert sol.energy == pytest.approx(e, rel=1e-4)

    def test_wide_sigmoid_left_barrier(self):
        # V passes the low levels while still left of x = 0, so the forward
        # solution grows before the step; the match stays in allowed samples
        spec = WellSpec(3.0, 3.0, 5000.0, Exponential(0.5))
        sols = find_spectrum_numeric(spec, 120.0, 4000)
        energies, vecs, xs = fd_spectrum(spec, len(sols) + 1, 4000)
        assert len(sols) == 3 and energies[3] > 120.0
        for sol, e, vec in zip(sols, energies, vecs):
            assert sol.energy == pytest.approx(e, rel=1e-4)
            assert side_probability_numeric(sol) == pytest.approx(
                fd_left_probability(xs, vec), abs=1e-6)


class TestFixedScanParity:
    """The count-directed roots are the fixed-step scan's floats, bit for bit."""

    @pytest.mark.parametrize("spec, e_max", [
        (SMOOTH, 41.75),                                             # the standard study
        (WellSpec(2.0, 5.0, 300.0, Linear(0.4)), 100.0),
        (WellSpec(3.0, 3.0, 60.0), 30.0),
        (WellSpec(3.0, 3.0, 1000.0), 30.0),
        # low floor: the ground state at E = 0.46 has the lowest count bracket,
        # which starts near E = 0, where psi(b) is far larger than near the root
        (WellSpec(3.9177, 3.9406, 2.0805, Exponential(0.0676)), 20.43),
    ])
    def test_states_match_the_fixed_scan(self, spec, e_max):
        xs, h = _build_grid(spec, 4000)
        v = sample(spec, xs)
        energies = reference_roots(lambda es: _sweep_final(v, h, es),
                                   lambda e: _count_below(v, h, e),
                                   e_max, scan_step(spec.a, spec.b), shooting._BISECT_TOL)
        sols = find_spectrum_numeric(spec, e_max, 4000)
        assert [sol.energy for sol in sols] == energies
        for sol in sols:
            expected = shooting._normalized_solution(spec, xs, v, h, sol.energy, sol.n)
            assert np.array_equal(sol.values, expected.values)


class TestSturmCount:
    @pytest.mark.parametrize("v0", [20.0, 60.0, 1000.0, 5000.0])
    def test_matches_closed_form_count_between_levels(self, v0):
        spec = WellSpec(3.0, 3.0, v0)
        energies = [st.energy for st in find_spectrum(spec, 100.0)]
        xs, h = _build_grid(spec, 4000)
        v = sample(spec, xs)
        gaps = [0.5 * (lo + hi) for lo, hi in zip([0.0] + energies, energies + [100.0])]
        numeric = [_count_below(v, h, e) for e in gaps]
        assert numeric == [closed_form_count(spec, e) for e in gaps]
        assert numeric == list(range(len(gaps)))

    def test_cutoff_on_a_level(self, numeric_smooth_035):
        # the count from b puts levels 2 and 3 ~1e-11 away from the roots of
        # psi(b), so a cutoff exactly on one falls between the two
        for sol in numeric_smooth_035[1:3]:
            assert len(find_spectrum_numeric(SMOOTH, sol.energy, 4000)) in (sol.n - 1, sol.n)


class TestNodeAudit:
    def test_interior_nodes_counts_genuine_flips(self, numeric_smooth_035):
        sol = numeric_smooth_035[3]
        assert interior_nodes(sol) == 3

    def test_doctored_solution_fails_audit(self, numeric_smooth_035):
        good = numeric_smooth_035[3]
        doctored = GridSolution(spec=good.spec, n=1, energy=good.energy,
                                grid=good.grid, values=good.values, step=good.step)
        assert interior_nodes(doctored) != doctored.n - 1

    def test_bad_stitch_raises_at_once(self, monkeypatch):
        stitched = shooting._sweep_full

        def flipped(v, h, energy, split):
            values = stitched(v, h, energy, split)
            values[split:] *= -1.0  # a sign slip at the stitch adds a node
            return values

        monkeypatch.setattr(shooting, "_sweep_full", flipped)
        with pytest.raises(NodeCountError, match="state 1 .* 1 interior nodes, expected 0"):
            find_spectrum_numeric(STEP, 5.0, 2000)
