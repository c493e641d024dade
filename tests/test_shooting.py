"""Numerov shooting solver: convergence order, cross-solver agreement, smoothing."""
import hashlib
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import simpson

from asymwell import (
    Exponential,
    GridSolution,
    Linear,
    NodeCountError,
    WellSpec,
    classical_model,
    evaluate,
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
from oracles import fd_left_probability, fd_spectrum, reference_roots, reference_solution

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

    @pytest.mark.parametrize("e_max", [math.inf, math.nan, -math.inf, 0.0, -1.0])
    def test_non_finite_cutoff_rejected(self, e_max):
        with pytest.raises(ValueError,
                           match=re.escape(f"e_max must be finite and positive, got {e_max}")):
            find_spectrum_numeric(SMOOTH, e_max, 4000)

    def test_grid_too_coarse_for_the_floor_rejected(self):
        # at h^2 v0 / 12 >= 1 the recurrence flips sign every cell under the step
        with pytest.raises(ValueError, match="n_grid >= 5478"):
            shoot(WellSpec(3.0, 3.0, 1e7), 1.0, 4000)

    @pytest.mark.parametrize("energy", [math.nan, math.inf, -math.inf, -1e9])
    def test_energy_outside_the_stable_range_rejected(self, energy):
        # h^2 (max V - E) / 12 < 1 bounds E from below at -5.33331e+06 on this
        # grid; past it, or at a non-finite E, the recurrence gives nan or noise
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match=re.escape(f"energy={energy!r}") + r".*-5\.33331e\+06"):
                shoot(STEP, energy, 4000)

    def test_stable_energies_keep_their_values(self):
        # below the floor but inside the stable range: still swept, bit for bit
        assert shoot(STEP, -1.0, 4000) == 5707160.531500429
        assert shoot(STEP, 10.0, 4000) == -2209.991899257402

    def test_unit_block_growth_bound_keeps_full_blocks(self):
        # on a flat floor at E = 2.4 / h^2, t = -0.2 in every cell and the bound on
        # one block's growth is exactly 1, whose log the block length divides by
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = shoot(WellSpec(3.0, 3.0, 0.0), 1066666.6666666667, 4000)
        assert math.isfinite(value) and abs(value) < 1e-14

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

    def test_trajectory_to_ends_matches_shorter_passes(self):
        # from b under a v0 = 1e5 step at E = 30 the solution passes the
        # rescale cap near sample 1226, inside a block, so a pass that stops
        # just past it rescales once more than the blocks before its end did,
        # and one that stops before it never rescales; past its end a column
        # repeats psi[end], which the stitch's search for the largest |psi| needs
        xs, h = _build_grid(WellSpec(3.0, 3.0, 1e5), 4000)
        v = sample(WellSpec(3.0, 3.0, 1e5), xs)[::-1]
        ends = np.append(np.arange(1200, 1265), 4000)
        e = np.full(ends.size, 30.0)
        path = _transfer_blocks(v, h, e, path=True, ends=ends)
        for col, end in enumerate(ends):
            alone = _transfer_blocks(v[: end + 1], h, e[:1], path=True)[:, 0]
            assert np.array_equal(path[: end + 1, col], alone), end
            assert (path[end:, col] == alone[-1]).all(), end
        assert abs(path[1200, 0]) > 1e200 > abs(path[1200, -1])

    @pytest.mark.parametrize("spec, rescales", [
        (WellSpec(3.0, 3.0, 1e5), 1),
        (WellSpec(2.0, 4.3, 3e4), 1),
        (WellSpec(4.0, 1.0, 1e5), 0),   # sqrt(v0) b ~ 316: the growth stays below the cap
    ], ids=["3-3", "2-4.3", "4-1"])
    def test_energy_values_independent_of_call_mates(self, spec, rescales):
        # the root policy's replay relies on this, rescales or not
        xs, h = _build_grid(spec, 4000)
        v = sample(spec, xs)
        energies = np.linspace(0.7, 150.0, 29)
        swept, counted = _sweep_final(v, h, energies), _count_below(v, h, energies)
        for e, psi_b, count in zip(energies, swept, counted):
            assert _sweep_final(v, h, e)[0] == psi_b, e
            assert _count_below(v, h, e) == count, e
        for e in (0.7, 150.0):   # both directions
            assert scalar_sweep(v, h, e)[1] == scalar_sweep(v[::-1], h, e)[1] == rescales

    def test_full_chunk_temporaries_stay_small(self):
        # traced peaks of a full chunk on 4000 cells, whose arrays are about
        # 1 MB each: 3.12 and 4.37 MiB when this test was written
        xs, h = _build_grid(SMOOTH, 4000)
        v = sample(SMOOTH, xs)
        e = np.geomspace(0.5, 200.0, shooting._CHUNK)
        for call, limit in ((lambda: _sweep_final(v, h, e), 3.2),
                            (lambda: _transfer_blocks(v, h, e, path=True), 4.5)):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= limit * 2**20, peak

    def test_standard_study_energies_unchanged(self):
        sols = find_spectrum_numeric(SMOOTH, 41.75, 4000)
        assert [s.energy for s in sols] == pytest.approx(STUDY_ENERGIES, rel=1e-10)


# chunk widths either side of both carry crossovers (16 energies for a sweep,
# 10 for a trajectory), with the single energy and the full chunk
PIN_WIDTHS = (1, 10, 11, 16, 17, 32)

# sha256 of every kernel output below, recorded while every chunk width took
# the vectorized carry
KERNEL_SHA256 = {
    "sigmoid": "9c7815000cfd066ba2c2818210762394d7b0f6994d4b4b806b064d703a63eba4",
    "ramp": "66549afcc8cd865148b333fbfc1eefa695d017efa05d5a12598f3363ad08ce9e",
    "flat": "30012f5835bebf0cb742d2d2fb2f0f4ab38226d59b732700442449a68ae91f6e",
    "deep": "e6ba2dca501a985ef454aa6d7235375790525b0268b98bd0e83b8332dfcb904c",
    "coarse": "8b6ffacee9697e39baa5be804c24e216dcbb445788979651d5c65989d1933795",
}


class TestKernelBits:
    """Sweeps, Sturm counts and stitch trajectories keep their bits at every chunk width."""

    @pytest.mark.parametrize("name, spec, n_grid", [
        ("sigmoid", SMOOTH, 4000),
        ("ramp", WellSpec(2.0, 5.0, 300.0, Linear(0.4)), 4000),
        ("flat", WellSpec(3.0, 3.0, 0.0), 4000),
        ("deep", WellSpec(3.0, 3.0, 1e5), 4000),        # the rescale fires both ways
        ("coarse", WellSpec(3.0, 3.0, 1e7), 5478),      # blocks shorter than 32 cells
    ])
    def test_outputs_pinned(self, name, spec, n_grid):
        xs, h = _build_grid(spec, n_grid)
        v = sample(spec, xs)
        digest = hashlib.sha256()
        for m in PIN_WIDTHS:
            e = np.geomspace(0.5, 200.0, m)
            ends = np.linspace(len(v) - 1, len(v) // 3, m).astype(int)
            for out in (_sweep_final(v, h, e), _count_below(v, h, e),
                        _transfer_blocks(v, h, e, path=True, ends=ends),
                        _transfer_blocks(v[::-1], h, e, path=True, ends=ends)):
                digest.update(np.ascontiguousarray(out, dtype=float).tobytes())
        if name == "deep":
            assert scalar_sweep(v, h, 30.0)[1] > 0 and scalar_sweep(v[::-1], h, 30.0)[1] > 0
        assert digest.hexdigest() == KERNEL_SHA256[name]

    def test_columns_independent_of_chunk_width(self):
        # every width a chunk can have, so a layout slip at a width the pins
        # skip shows; every energy here gets full 32-cell blocks, so each
        # column is its own width-1 pass bit for bit
        xs, h = _build_grid(SMOOTH, 4000)
        v = sample(SMOOTH, xs)
        pool = np.geomspace(0.5, 200.0, shooting._CHUNK)
        pool_ends = np.linspace(len(v) - 1, len(v) // 3, pool.size).astype(int)
        alone = [(_sweep_final(v, h, e)[0], _count_below(v, h, e),
                  _transfer_blocks(v, h, np.asarray([e]), path=True, ends=np.asarray([end]))[:, 0],
                  _transfer_blocks(v[::-1], h, np.asarray([e]), path=True,
                                   ends=np.asarray([end]))[:, 0])
                 for e, end in zip(pool, pool_ends)]
        for m in range(1, shooting._CHUNK + 1):
            picks = np.roll(np.arange(pool.size), m)[:m]
            e, ends = pool[picks], pool_ends[picks]
            swept, counted = _sweep_final(v, h, e), _count_below(v, h, e)
            fwd = _transfer_blocks(v, h, e, path=True, ends=ends)
            bwd = _transfer_blocks(v[::-1], h, e, path=True, ends=ends)
            for col, (i, end) in enumerate(zip(picks, ends)):
                psi_b, count, fwd_ref, bwd_ref = alone[i]
                assert swept[col] == psi_b and counted[col] == count, (m, col)
                for path, ref in ((fwd, fwd_ref), (bwd, bwd_ref)):
                    assert np.array_equal(path[: end + 1, col], ref), (m, col)
                    assert (path[end:, col] == ref[-1]).all(), (m, col)


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


# the wells the top of the grid's spectrum was measured on; min V = 0 on each
TOP_WELLS = [WellSpec(3.0, 3.0, v0) for v0 in (0.0, 20.0, 60.0, 5000.0)] + [
    SMOOTH, WellSpec(3.0, 3.0, 20.0, Linear(0.5))]


class TestTopOfSpectrum:
    """Past min V + 6 / h^2 the recurrence stops oscillating and the grid holds no level."""

    @pytest.mark.parametrize("n_grid", [400, 1000])
    @pytest.mark.parametrize("spec", TOP_WELLS, ids=["flat", "v0=20", "v0=60", "v0=5000",
                                                     "sigmoid", "ramp"])
    def test_cutoff_past_the_top_refused(self, spec, n_grid):
        e_max = 1.001 * n_grid**2 / 6.0       # 6 / h^2 with h = 6 / n_grid
        with pytest.raises(ValueError, match=re.escape(f"e_max={e_max!r} ") + r".*"
                           + re.escape(f"{n_grid**2 / 6.0:.6g}") + r".*"
                           + re.escape(f"n_grid >= {n_grid + 2} here")):
            find_spectrum_numeric(spec, e_max, n_grid)

    def test_cutoff_just_below_the_top_solves(self):
        e_max = 0.999 * 400**2 / 6.0
        states = find_spectrum_numeric(STEP, e_max, 400)
        assert len(states) == 392 and states[-1].energy <= e_max


class TestSpuriousLevels:
    """The Numerov count against the closed form's exact Sturm count on sharp steps.

    Near the grid's top, and over a tall step on a coarse grid, the recurrence
    reports levels the well does not have, and nothing refuses or warns.  Exact
    cell steps with the step on a cell edge (ROADMAP item 9) are to remove them.
    """

    @pytest.mark.xfail(strict=True, reason="spurious Numerov levels near the grid's top and "
                                           "over a tall step; ROADMAP item 9 removes them")
    @pytest.mark.parametrize("spec, n_grid, e_max", [
        (STEP, 400, 0.999 * 400**2 / 6.0),           # 392 levels where the well has 311
        (WellSpec(3.0, 3.0, 5000.0), 200, 5500.0),   # 98 against 92
        (STEP, 2000, 3e5),                           # 1065 against 1046
    ], ids=["near-the-top", "tall-step", "fine-grid-high"])
    def test_level_count_is_the_closed_forms(self, spec, n_grid, e_max):
        assert len(find_spectrum_numeric(spec, e_max, n_grid)) == closed_form_count(spec, e_max)


class TestSpectrumWindow:
    """Every level lies in (V(-a), V(-a) + 6 / h^2), where the forward pass starts positive
    and the sample at -a is classically allowed, so each state rises from the left wall
    with no sign fixed after the stitch."""

    @given(family=st.sampled_from(["step", "sigmoid", "ramp"]),
           a=st.floats(0.05, 5.0), b=st.floats(0.05, 5.0), cells=st.integers(50, 2000),
           height=st.floats(0.0, 1.0), scale=st.floats(0.01, 0.99), reach=st.floats(0.01, 1.0))
    # a left half under two cells: the forward pass stops at the third sample
    @example(family="sigmoid", a=0.02, b=3.0, cells=50, height=1.0, scale=0.1, reach=1.0)
    @settings(max_examples=60)
    def test_levels_lie_above_the_left_wall_and_rise_from_it(self, family, a, b, cells,
                                                             height, scale, reach):
        n_grid = 2 * cells
        h = (a + b) / n_grid
        smoothing = {"step": None, "sigmoid": Exponential(scale),
                     "ramp": Linear(scale * min(a, b))}[family]
        # up to 1e5, and below the 12 / h^2 the grid's stability asks for
        spec = WellSpec(a, b, height * min(1e5, 0.99 * 12.0 / (h * h)), smoothing)
        v_left = evaluate(spec, -spec.a)
        e_max = v_left + reach * min(0.999 * 6.0 / (h * h), spec.v0 + (20.0 * math.pi / (a + b))**2)
        for sol in find_spectrum_numeric(spec, e_max, n_grid):
            assert sol.energy > v_left
            assert sol.values[1] > 0.0


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
            assert np.array_equal(sol.values, reference_solution(xs, v, h, sol.energy))

    @pytest.mark.parametrize("spec, e_max, n_grid, count", [
        # the backward pass rescales once, twice and many times under the step
        (WellSpec(3.0, 3.0, 1e5), 30.0, 4000, 5),
        (WellSpec(3.0, 3.0, 2e5), 30.0, 4000, 5),
        (WellSpec(3.0, 3.0, 1e7), 30.0, 5478, 5),  # blocks shorter than 32 cells
        (WellSpec(3.0, 3.0, 5000.0, Exponential(0.5)), 120.0, 4000, 3),
        (SMOOTH, 1000.0, 4000, 60),                 # two chunks of states
    ], ids=["step-1e5", "step-2e5", "step-1e7", "wide-sigmoid", "sigmoid-e1000"])
    def test_batched_stitch_matches_single_energy_passes(self, spec, e_max, n_grid, count):
        xs, h = _build_grid(spec, n_grid)
        v = sample(spec, xs)
        sols = find_spectrum_numeric(spec, e_max, n_grid)
        assert len(sols) == count
        for sol in sols:
            assert np.array_equal(sol.values, reference_solution(xs, v, h, sol.energy))


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
        stitched = shooting._stitched

        def flipped(v, h, energies, split):
            values = stitched(v, h, energies, split)
            values[:, split:] *= -1.0  # a sign slip at the stitch adds a node
            return values

        monkeypatch.setattr(shooting, "_stitched", flipped)
        with pytest.raises(NodeCountError, match="state 1 .* 1 interior nodes, expected 0"):
            find_spectrum_numeric(STEP, 5.0, 2000)
