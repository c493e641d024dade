"""Numerov shooting solver: convergence order, cross-solver agreement, smoothing."""
import hashlib
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
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
    count_sign_changes,
    interior_nodes,
)
from asymwell._rootscan import scan_step
from asymwell.spectrum import _count_below as closed_form_count
from oracles import (
    enclosure_counts,
    fd_left_probability,
    fd_spectrum,
    reference_roots,
    reference_solution,
    stitched_solution,
)

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

    @pytest.mark.parametrize("call", [
        lambda n_grid: shoot(STEP, 1.0, n_grid),
        lambda n_grid: find_spectrum_numeric(WellSpec(3, 3, 20, Exponential(0.2)), 35.0, n_grid),
    ], ids=["shoot", "find_spectrum_numeric"])
    @pytest.mark.parametrize("n_grid", [4000.0, True, math.nan])
    def test_non_integer_grid_refused(self, call, n_grid):
        with pytest.raises(ValueError, match=re.escape(
                f"n_grid must be an integer of at least 100, got {n_grid}")):
            call(n_grid)

    def test_numpy_integer_grid_accepted(self):
        assert shoot(STEP, 1.0, np.int64(4000)) == shoot(STEP, 1.0, 4000)

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

    @pytest.mark.parametrize("energy", [1.01 * 400**2 / 6.0, 1e9], ids=["1.01-top", "1e9"])
    def test_energy_past_the_top_rejected(self, energy):
        # past min V + 6 / h^2 = 26666.7 on 400 cells the recurrence flips sign every
        # cell, so psi(b) is the sign-flipping mode's noise (2.64e24 at 1.01 x top)
        with pytest.raises(ValueError, match=r"26666\.7"):
            shoot(STEP, energy, 400)

    def test_energy_just_below_the_top_keeps_its_value(self):
        assert shoot(STEP, 0.99 * 400**2 / 6.0, 400) == 0.0006259588283370229

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
        swept, counted = _sweep_final(v, h, energies), _count_below(v, h, energies)[0]
        for e, psi_b, count in zip(energies, swept, counted):
            assert _sweep_final(v, h, e)[0] == psi_b, e
            assert _count_below(v, h, e)[0] == count, e
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

    def test_probe_count_takes_two_trajectory_energies(self, monkeypatch):
        # the root policy's 31 count probes of the standard study: one sweep
        # gives fn at all of them, and trajectories at the lowest and highest
        # their counts.  Traced peaks of 4.12 MiB with a trajectory over all
        # 31, 2.99 MiB with the two when this test was written
        probes, count = [], shooting._count_below
        monkeypatch.setattr(shooting, "_count_below",
                            lambda v, h, e: probes.append(e) or count(v, h, e))
        find_spectrum_numeric(SMOOTH, 41.75, 4000)
        assert probes[0].size == 31
        xs, h = _build_grid(SMOOTH, 4000)
        v = sample(SMOOTH, xs)
        seen = recorded_trajectories(monkeypatch)
        tracemalloc.start()
        try:
            count(v, h, probes[0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(e.size for e in seen) <= 2, [e.size for e in seen]
        assert peak <= 3.2 * 2**20, peak

    def test_standard_study_energies_unchanged(self):
        sols = find_spectrum_numeric(SMOOTH, 41.75, 4000)
        assert [s.energy for s in sols] == pytest.approx(STUDY_ENERGIES, rel=1e-10)


# chunk widths either side of both carry crossovers (16 energies for a sweep,
# 10 for a trajectory), with the single energy and the full chunk
PIN_WIDTHS = (1, 10, 11, 16, 17, 32)

# sha256 of every kernel output below, recorded while every chunk width took
# the vectorized carry
KERNEL_SHA256 = {
    "sigmoid": "6ee772a3ef09b9d68df03efc8008ed45281287b7731f39fd445f70dd1ca920d4",
    "ramp": "3d5677d80cff84658a05defb5859b0cbc438d26ccf8a9a8842aff4962ef44e76",
    "flat": "df5b072de861b78184c5ce7527c3bc00a45766d646571f94b66647d854720fe3",
    "deep": "60de63c2c75f65f415b450d947fbd555da96c91e487fc73c61c1cdab1d82971d",
    "coarse": "263f8358565571b83bc97a5fbe5c6872829d99a472b68b66c449e82864de7746",
}


class TestKernelBits:
    """Sweeps, Sturm counts and trajectories keep their bits at every chunk width."""

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
            for out in (_sweep_final(v, h, e), _count_below(v, h, e)[0],
                        _transfer_blocks(v, h, e, path=True),
                        _transfer_blocks(v[::-1], h, e, path=True)):
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
        alone = [(_sweep_final(v, h, e)[0], _count_below(v, h, e)[0],
                  _transfer_blocks(v, h, np.asarray([e]), path=True)[:, 0],
                  _transfer_blocks(v[::-1], h, np.asarray([e]), path=True)[:, 0])
                 for e in pool]
        for m in range(1, shooting._CHUNK + 1):
            picks = np.roll(np.arange(pool.size), m)[:m]
            e = pool[picks]
            swept, counted = _sweep_final(v, h, e), _count_below(v, h, e)[0]
            fwd = _transfer_blocks(v, h, e, path=True)
            bwd = _transfer_blocks(v[::-1], h, e, path=True)
            for col, i in enumerate(picks):
                psi_b, count, fwd_ref, bwd_ref = alone[i]
                assert swept[col] == psi_b and counted[col] == count, (m, col)
                assert np.array_equal(fwd[:, col], fwd_ref), (m, col)
                assert np.array_equal(bwd[:, col], bwd_ref), (m, col)


def one_pass_each(v, h, energies):
    """Sturm count and fn at each energy from a trajectory and a sweep from b of its own."""
    counts = [count_sign_changes(_transfer_blocks(v[::-1], h, np.asarray([e]), path=True)[1:])[0]
              for e in energies]
    return np.array(counts), np.array([_sweep_final(v[::-1], h, [e])[0] for e in energies])


def recorded_trajectories(monkeypatch):
    """The energies of every trajectory pass made from here on, one array per call."""
    seen, transfer = [], shooting._transfer_blocks

    def recording(v, h, e, path):
        if path:
            seen.append(np.array(e))
        return transfer(v, h, e, path)

    monkeypatch.setattr(shooting, "_transfer_blocks", recording)
    return seen


class TestCountBits:
    """The Sturm count and fn of ``_count_below`` are, bit for bit, those of a
    separate pass per energy, whichever way the count is read."""

    @given(family=st.sampled_from(["step", "sigmoid", "ramp"]), a=st.floats(0.5, 5.0),
           b=st.floats(0.5, 5.0), cells=st.integers(50, 2000), depth=st.floats(0.0, 1.0),
           scale=st.floats(0.01, 0.5), reach=st.floats(0.0, 1.0), m=st.integers(1, 40),
           layout=st.sampled_from(["probes", "shuffled", "duplicated"]),
           seed=st.integers(0, 2**16))
    # steps at the grid's refusal, where the pass from b rescales many times
    @example(family="step", a=3.0, b=3.0, cells=2000, depth=1.0, scale=0.1, reach=0.3, m=31,
             layout="probes", seed=0)
    @example(family="sigmoid", a=2.0, b=4.3, cells=50, depth=1.0, scale=0.05, reach=0.5, m=17,
             layout="shuffled", seed=1)
    @settings(max_examples=60)
    def test_matches_one_pass_per_energy(self, family, a, b, cells, depth, scale, reach, m,
                                         layout, seed):
        n_grid = 2 * cells
        h = (a + b) / n_grid
        smoothing = {"step": None, "sigmoid": Exponential(scale),
                     "ramp": Linear(scale * min(a, b))}[family]
        # v0 log-uniform from 1 up to the 12 / h^2 where the grid refuses the floor
        spec = WellSpec(a, b, (0.999 * 12.0 / (h * h)) ** depth, smoothing)
        xs, h = _build_grid(spec, n_grid)
        v = sample(spec, xs)
        # e_max log-uniform from V(-a) + 1 up to the top of the grid's window
        e_max = v.min() + (0.999 * 6.0 / (h * h)) ** reach
        probes = e_max * np.arange(1, m + 1) / m
        energies = {"probes": probes,
                    "shuffled": np.random.default_rng(seed).permutation(probes),
                    "duplicated": np.repeat(probes[: (m + 1) // 2], 2)[:m]}[layout]
        counts, fn = one_pass_each(v, h, energies)
        got_counts, got_fn = _count_below(v, h, energies)
        assert np.array_equal(got_counts, counts)
        assert got_fn.tobytes() == fn.tobytes()

    @staticmethod
    def count_by_trajectories(monkeypatch, v, h, energies):
        """Count and fn of ``_count_below``, checked bit for bit against a pass
        per energy and to come from a trajectory over the whole set."""
        counts, fn = one_pass_each(v, h, energies)
        seen = recorded_trajectories(monkeypatch)
        got_counts, got_fn = _count_below(v, h, energies)
        assert np.array_equal(got_counts, counts)
        assert got_fn.tobytes() == fn.tobytes()
        assert any(np.array_equal(e, energies) for e in seen)
        return counts, fn

    def test_energy_on_a_computed_level_takes_the_trajectories(self, monkeypatch):
        # on a flat floor 10 c E = 2 makes each Numerov step psi[i+1] = -psi[i-1]
        # exactly, so psi vanishes at every other sample, -a included: fn == 0
        flat = WellSpec(3.0, 3.0, 0.0)
        xs, h = _build_grid(flat, 100)
        v = sample(flat, xs)
        energies = 2.0 / (10.0 * (h * h / 12.0)) * np.array([0.99, 0.995, 1.0, 1.005, 1.01])
        counts, fn = self.count_by_trajectories(monkeypatch, v, h, energies)
        assert fn[2] == 0.0 and counts[-1] - counts[0] < energies.size

    def test_gap_with_two_levels_takes_the_trajectories(self, monkeypatch):
        # levels 5 and 6 (20.33 and 22.06) share the gap (19, 23); the counts
        # span 8 levels over 10 energies, whose fn changes sign only 6 times
        xs, h = _build_grid(SMOOTH, 4000)
        v = sample(SMOOTH, xs)
        energies = np.array([1.0, 3.0, 5.0, 7.0, 10.0, 12.0, 19.0, 23.0, 26.0, 30.0])
        counts, _ = self.count_by_trajectories(monkeypatch, v, h, energies)
        assert list(counts) == [0, 1, 2, 2, 3, 3, 4, 6, 7, 8]


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
    """Wells whose right side is deeply evanescent: every state must
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
        # V passes the low levels while still left of x = 0, so the states
        # decay under a barrier that starts before the step
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
        assert len(find_spectrum_numeric(spec, e_max, n_grid)) == closed_form_count(spec, e_max)[0]


class TestSturmEnclosures:
    """Every floor lies between the piecewise-constant floors of its cell-end values,
    so by min-max each level lies between theirs (``oracles.enclosure_counts``)."""

    @given(a=st.floats(0.2, 5.0), b=st.floats(0.2, 5.0), v0=st.floats(0.0, 200.0),
           cells=st.integers(50, 300), on_node=st.booleans(),
           fractions=st.lists(st.floats(1e-3, 0.9), min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_oracle_encloses_the_closed_form_count(self, a, b, v0, cells, on_node, fractions):
        n_grid = 2 * cells
        if on_node:  # the step on node m: both floors are the step itself
            m = min(max(1, round(n_grid * a / (a + b))), n_grid - 1)
            a = b * m / (n_grid - m)
        spec = WellSpec(a, b, v0)
        # kappa h < pi in every cell, with h = (a + b) / n_grid
        energies = np.array(fractions) * (math.pi * n_grid / (a + b)) ** 2
        exact = closed_form_count(spec, energies)[0]
        # a level within roundoff of a probe is counted on either side of it
        assume(np.array_equal(closed_form_count(spec, energies * (1.0 - 1e-9))[0],
                              closed_form_count(spec, energies * (1.0 + 1e-9))[0]))
        n_hi, n_lo = enclosure_counts(spec, n_grid, energies)
        assert np.all(n_hi <= exact) and np.all(exact <= n_lo)
        xs, _ = _build_grid(spec, n_grid)
        if np.count_nonzero(xs == 0.0):
            assert np.array_equal(n_hi, exact) and np.array_equal(n_lo, exact)

    @pytest.mark.parametrize("spec, e_max", [
        (SMOOTH, 41.75),
        (WellSpec(3.0, 3.0, 20.0, Linear(0.4)), 41.75),
        (WellSpec(2.0, 4.3, 60.0, Exponential(0.05)), 100.0),
    ], ids=["sigmoid", "ramp", "sharp-sigmoid-off-node"])
    def test_numeric_levels_lie_in_their_enclosures(self, spec, e_max):
        sols = find_spectrum_numeric(spec, e_max, 4000)
        energies = np.array([e_max, *(sol.energy for sol in sols)])
        n_hi, n_lo = enclosure_counts(spec, 4000, energies)
        assert n_hi[0] <= len(sols) <= n_lo[0]
        n = np.arange(1, len(sols) + 1)
        assert np.all(n_hi[1:] <= n - 1) and np.all(n - 1 < n_lo[1:])

    @given(family=st.sampled_from(["sigmoid", "ramp"]), a=st.floats(1.0, 5.0),
           b=st.floats(1.0, 5.0), v0=st.floats(0.0, 500.0), delta=st.floats(0.005, 0.5),
           reach=st.floats(0.05, 0.9), n_grid=st.sampled_from([100, 200, 400, 800]))
    @settings(max_examples=40)
    def test_smoothed_well_levels_lie_in_their_enclosures(self, family, a, b, v0, delta,
                                                          reach, n_grid):
        """Coarse grids too, to h^2 E = 0.02.  Where the floor is flat the enclosure has
        zero width, and Numerov's own dispersion error puts its levels below the true
        ones, by (h^2 E)^2 / 240 relative on a flat floor; the upper count allows 1.2
        times that, plus 1e-11 for the root tolerance.  Without the allowance levels
        leave the enclosure from h^2 E ~ 0.02-0.036 at v0 near 20, from 0.005 at v0
        near 1 with a node of the level on the step, and at once on a flat floor."""
        smoothing = Exponential(delta) if family == "sigmoid" else Linear(reach * min(a, b))
        spec = WellSpec(a, b, v0, smoothing)
        h = spec.width / n_grid
        e_max = 0.02 / h**2
        sols = find_spectrum_numeric(spec, e_max, n_grid)
        energies = np.array([e_max, *(sol.energy for sol in sols)])
        raised = energies * (1.0 + (h * h * energies)**2 / 200.0 + 1e-11)
        n_hi = enclosure_counts(spec, n_grid, energies)[0]
        n_lo = enclosure_counts(spec, n_grid, raised)[1]
        assert n_hi[0] <= len(sols) <= n_lo[0]
        n = np.arange(1, len(sols) + 1)
        assert np.all(n_hi[1:] <= n - 1) and np.all(n - 1 < n_lo[1:])


class TestLevelSlopes:
    @given(family=st.sampled_from(["sigmoid", "ramp"]), a=st.floats(2.0, 4.0),
           b=st.floats(2.0, 4.0), v0=st.floats(5.0, 60.0), delta=st.floats(0.05, 0.4),
           epsilon=st.floats(0.1, 0.9), n_grid=st.sampled_from([1000, 2000, 4000]),
           headroom=st.floats(10.0, 80.0))
    @settings(max_examples=30)
    def test_level_slopes_are_the_mean_floor(self, family, a, b, v0, delta, epsilon, n_grid,
                                             headroom):
        """dE_n/dv0 = <V / v0> (Hellmann-Feynman) on the numeric route: a central
        difference of re-solves at v0 (1 +- 1e-4) against the Simpson integral of
        V / v0 psi^2, within 1e-4.  The worst gap on 407 states of 30 random wells,
        2.7e-6, was the same at a 1e-5 step, so it is the grid's, not the differencing's."""
        smoothing = Exponential(delta) if family == "sigmoid" else Linear(epsilon)
        e_max = v0 + headroom
        sols = find_spectrum_numeric(WellSpec(a, b, v0, smoothing), e_max, n_grid)
        up, down = (find_spectrum_numeric(WellSpec(a, b, v0 * f, smoothing), 1.2 * e_max, n_grid)
                    for f in (1.0 + 1e-4, 1.0 - 1e-4))
        for sol in sols[:-1]:
            slope = (up[sol.n - 1].energy - down[sol.n - 1].energy) / (2e-4 * v0)
            mean = simpson(sample(sol.spec, sol.grid) / v0 * sol.values**2, x=sol.grid)
            assert slope == pytest.approx(mean, abs=1e-4), sol.n


class TestSpectrumWindow:
    """Every level lies in (V(-a), V(-a) + 6 / h^2), where the sample at -a is classically
    allowed, and each state is signed to rise from the left wall."""

    @given(family=st.sampled_from(["step", "sigmoid", "ramp"]),
           a=st.floats(0.05, 5.0), b=st.floats(0.05, 5.0), cells=st.integers(50, 2000),
           height=st.floats(0.0, 1.0), scale=st.floats(0.01, 0.99), reach=st.floats(0.01, 1.0))
    # a left half under two cells: the first interior sample lies past the step
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


FIXED_SCAN_WELLS = [
    (SMOOTH, 41.75),                                             # the standard study
    (WellSpec(2.0, 5.0, 300.0, Linear(0.4)), 100.0),
    (WellSpec(3.0, 3.0, 60.0), 30.0),
    (WellSpec(3.0, 3.0, 1000.0), 30.0),
    # low floor: the ground state at E = 0.46 has the lowest count bracket,
    # which starts near E = 0, where psi(b) is far larger than near the root
    (WellSpec(3.9177, 3.9406, 2.0805, Exponential(0.0676)), 20.43),
]

# the backward pass rescales once, twice and many times under the step
BATCHED_WELLS = [
    (WellSpec(3.0, 3.0, 1e5), 30.0, 4000, 5),
    (WellSpec(3.0, 3.0, 2e5), 30.0, 4000, 5),
    (WellSpec(3.0, 3.0, 1e7), 30.0, 5478, 5),  # blocks shorter than 32 cells
    (WellSpec(3.0, 3.0, 5000.0, Exponential(0.5)), 120.0, 4000, 3),
    (SMOOTH, 1000.0, 4000, 60),                 # two chunks of states
]
BATCHED_IDS = ["step-1e5", "step-2e5", "step-1e7", "wide-sigmoid", "sigmoid-e1000"]


class TestFixedScanParity:
    """The count-directed roots are the fixed-step scan's floats, bit for bit,
    and a spectrum's states are its single-energy passes from b."""

    @pytest.mark.parametrize("spec, e_max", FIXED_SCAN_WELLS)
    def test_states_match_the_fixed_scan(self, spec, e_max):
        xs, h = _build_grid(spec, 4000)
        v = sample(spec, xs)
        energies = reference_roots(lambda es: _sweep_final(v[::-1], h, es),
                                   lambda e: _count_below(v, h, e),
                                   e_max, scan_step(spec.a, spec.b), shooting._BISECT_TOL)
        sols = find_spectrum_numeric(spec, e_max, 4000)
        assert [sol.energy for sol in sols] == energies
        for sol in sols:
            assert np.array_equal(sol.values, reference_solution(xs, v, h, sol.energy))

    @pytest.mark.parametrize("spec, e_max, n_grid, count", BATCHED_WELLS, ids=BATCHED_IDS)
    def test_batched_stitch_matches_single_energy_passes(self, spec, e_max, n_grid, count):
        xs, h = _build_grid(spec, n_grid)
        v = sample(spec, xs)
        sols = find_spectrum_numeric(spec, e_max, n_grid)
        assert len(sols) == count
        for sol in sols:
            assert np.array_equal(sol.values, reference_solution(xs, v, h, sol.energy))

    @pytest.mark.parametrize("spec, e_max, n_grid", [
        *((spec, e_max, 4000) for spec, e_max in FIXED_SCAN_WELLS),
        *((spec, e_max, n_grid) for spec, e_max, n_grid, _ in BATCHED_WELLS),
    ], ids=[f"fixed-scan-{i}" for i in range(len(FIXED_SCAN_WELLS))] + BATCHED_IDS)
    def test_states_match_the_two_sided_route(self, spec, e_max, n_grid):
        # the pass from b against the stitch of a forward pass from -a and a
        # backward pass from b, which integrates each half toward its barrier;
        # at most 2.0e-10 of the peak on these wells
        xs, h = _build_grid(spec, n_grid)
        v = sample(spec, xs)
        for sol in find_spectrum_numeric(spec, e_max, n_grid):
            ref = stitched_solution(xs, v, h, sol.energy)
            assert np.abs(sol.values - ref).max() <= 2e-9 * np.abs(ref).max(), sol.n


def test_noisy_sign_keeps_levels_near_the_fixed_scan():
    # fn's sign flips three times within 6e-12 of level 1 on this coarse grid,
    # and the fixed scan's bisection and the polished bracket take different
    # sides of that noise: 1.5791649151804457 against 1.579164915183356, 1.8e-12
    # apart relative.  Each float is a midpoint within half a tolerance of a
    # sign change of fn, so the two lie within a tolerance plus the noise's
    # width of each other; where the sign is clean they are the same float
    spec = WellSpec(2.1704358448705516, 2.246907984380412, 9.731621171898706)
    e_max = 156.63314239100598
    xs, h = _build_grid(spec, 400)
    v = sample(spec, xs)
    expected = reference_roots(lambda es: _sweep_final(v[::-1], h, es),
                               lambda e: _count_below(v, h, e),
                               e_max, scan_step(spec.a, spec.b), shooting._BISECT_TOL)
    found = [sol.energy for sol in find_spectrum_numeric(spec, e_max, 400)]
    assert len(found) == len(expected) == 17
    assert found[1:] == expected[1:]
    tol = shooting._BISECT_TOL
    assert all(abs(f - e) <= 2.0 * tol * max(1.0, e) for f, e in zip(found, expected))


class TestSturmCount:
    @pytest.mark.parametrize("v0", [20.0, 60.0, 1000.0, 5000.0])
    def test_matches_closed_form_count_between_levels(self, v0):
        spec = WellSpec(3.0, 3.0, v0)
        energies = [st.energy for st in find_spectrum(spec, 100.0)]
        xs, h = _build_grid(spec, 4000)
        v = sample(spec, xs)
        gaps = [0.5 * (lo + hi) for lo, hi in zip([0.0] + energies, energies + [100.0])]
        numeric = [_count_below(v, h, e)[0] for e in gaps]
        assert numeric == [closed_form_count(spec, e)[0] for e in gaps]
        assert numeric == list(range(len(gaps)))

    def test_cutoff_on_a_level(self, numeric_smooth_035):
        # a level's energy is the bisection's last midpoint, within the
        # tolerance of the root of psi(-a), so a cutoff on it falls on either
        # side of the root; the count, from the same pass, agrees on which
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
        roots = [sol.energy for sol in find_spectrum_numeric(STEP, 5.0, 2000)]
        transfer = shooting._transfer_blocks

        def flipped(v, h, e, path):
            out = transfer(v, h, e, path)
            if path and np.isin(e, roots).all():
                out[: len(v) // 2] *= -1.0  # a sign slip at x = 0 in the states adds a node
            return out

        monkeypatch.setattr(shooting, "_transfer_blocks", flipped)
        with pytest.raises(NodeCountError, match="state 1 .* 1 interior nodes, expected 0"):
            find_spectrum_numeric(STEP, 5.0, 2000)
