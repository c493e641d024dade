"""Closed-form solver: characteristic function, spectrum, states, classification."""
import math
import re
import sys
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import simpson

from asymwell import (
    MatchKind,
    WellSpec,
    characteristic,
    classify_matching,
    find_spectrum,
    normalize,
    psi,
    side_probabilities,
)
from asymwell import spectrum
from asymwell._rootscan import _HANDOVER, _isolate, bracket_and_bisect, scan_step
from asymwell.spectrum import ScanResolutionError, _characteristic_many, _count_below
from oracles import pruefer_count, reference_roots

# 12-digit spectrum of the standard well (a = b = 3, v0 = 20), frozen after
# cross-checking against 50-digit root refinement, Numerov shooting, and
# finite-difference diagonalization.
STANDARD_ENERGIES = [
    0.948700140577,
    3.780919029923,
    8.443874283312,
    14.776322150859,
    20.835686317145,
    22.336329055295,
    24.930174713229,
    29.237195004516,
    33.303046846815,
]

# sqrt(v0) * b stays below the 350 overflow guard
lengths = st.floats(min_value=0.5, max_value=10.0)
heights = st.floats(min_value=0.0, max_value=1000.0)
cutoffs = st.floats(min_value=1.0, max_value=300.0)


class TestCharacteristic:
    def test_flat_well_ground_state_is_root(self, standard_spec):
        flat = WellSpec(3.0, 3.0, 0.0)
        assert abs(characteristic(flat, (math.pi / 6.0) ** 2)) < 1e-12

    def test_root_near_095(self, standard_spec):
        # the sinh factor makes |g| steep here, so test the root's location and
        # its relative smallness rather than an absolute magnitude
        g_lo = characteristic(standard_spec, 0.94)
        g_hi = characteristic(standard_spec, 0.96)
        assert g_lo * g_hi < 0
        at_root = characteristic(standard_spec, 0.948700140577)
        assert abs(at_root) < 1e-6 * max(abs(g_lo), abs(g_hi))

    def test_continuous_across_branch_point(self, standard_spec):
        above = characteristic(standard_spec, 20.0 + 1e-8)
        below = characteristic(standard_spec, 20.0 - 1e-8)
        assert abs(above - below) < 1e-6

    def test_branch_point_value_closed_form(self, standard_spec):
        # g(v0) = k cos(ka) * b + sin(ka) with k = sqrt(v0)
        k = math.sqrt(20.0)
        expected = k * math.cos(3.0 * k) * 3.0 + math.sin(3.0 * k)
        assert characteristic(standard_spec, 20.0) == pytest.approx(expected, rel=1e-14)

    def test_rejects_bad_inputs(self, standard_spec):
        with pytest.raises(ValueError):
            characteristic(standard_spec, 0.0)
        with pytest.raises(ValueError):
            characteristic(WellSpec(3, 3, 20, smoothing=None), -1.0)
        from asymwell import Exponential
        with pytest.raises(ValueError):
            characteristic(WellSpec(3, 3, 20, Exponential(0.2)), 1.0)


class TestFindSpectrum:
    def test_standard_well_spectrum(self, standard_states):
        assert len(standard_states) == 9
        for st, ref in zip(standard_states, STANDARD_ENERGIES):
            assert st.energy == pytest.approx(ref, rel=1e-9)

    def test_branches_and_wavenumbers(self, standard_states):
        for st in standard_states:
            assert st.below_threshold == (st.energy < 20.0)
            assert st.k == pytest.approx(math.sqrt(st.energy), rel=1e-14)
            gap = abs(st.energy - 20.0)
            assert st.q_or_qbar == pytest.approx(math.sqrt(gap), rel=1e-12)
        assert [st.branch for st in standard_states[:4]] == ["evanescent"] * 4
        assert [st.branch for st in standard_states[4:]] == ["oscillatory"] * 5

    @pytest.mark.parametrize("e_max", [math.inf, math.nan, -math.inf, 0.0, -1.0])
    def test_non_finite_cutoff_rejected(self, standard_spec, e_max):
        with pytest.raises(ValueError,
                           match=re.escape(f"e_max must be finite and positive, got {e_max}")):
            find_spectrum(standard_spec, e_max)

    def test_flat_well_reduction(self):
        states = find_spectrum(WellSpec(3.0, 3.0, 0.0), 1.2)
        assert len(states) == 2
        for n, st in enumerate(states, start=1):
            assert st.energy == pytest.approx((n * math.pi / 6.0) ** 2, rel=1e-10)

    def test_flat_well_levels_on_count_probes(self):
        # the probes at e_max i / 30 land on the levels n**2 E1: the count reads
        # level 1 at E1 while the characteristic there still has its low sign
        e1 = (math.pi / 6.0) ** 2
        states = find_spectrum(WellSpec(3.0, 3.0, 0.0), 30 * e1)
        assert len(states) == 5
        for n, st in enumerate(states, start=1):
            assert st.energy == pytest.approx(n * n * e1, rel=1e-13, abs=0)

    def test_eighteen_states_below_100(self, states_e100):
        assert len(states_e100) == 18
        energies = [st.energy for st in states_e100]
        assert energies == sorted(energies)

    def test_left_pocket_depression_ratio(self, standard_states):
        # tunneling into the right pocket softens the lowest four states by ~15%
        for n in (1, 2, 3, 4):
            ratio = standard_states[n - 1].energy / (n * math.pi / 3.0) ** 2
            assert 0.82 <= ratio <= 0.88

    @given(a=lengths, b=lengths, v0=heights, e_max=cutoffs)
    @example(a=3.0, b=3.0, v0=20.0, e_max=100.0)
    @settings(max_examples=100)
    def test_node_counts(self, a, b, v0, e_max):
        for state in find_spectrum(WellSpec(a, b, v0), e_max):
            xs = np.linspace(-a, b, 2000)[1:-1]
            vals = psi(state, xs)
            nz = vals[vals != 0]
            flips = int(np.sum(np.sign(nz[1:]) != np.sign(nz[:-1])))
            assert flips == state.n - 1

    @given(a=lengths, b=lengths, v0=heights, e_max=cutoffs)
    @example(a=3.0, b=3.0, v0=20.0, e_max=100.0)
    @settings(max_examples=100)
    def test_count_below_indexes_the_levels(self, a, b, v0, e_max):
        spec = WellSpec(a, b, v0)
        energies = [state.energy for state in find_spectrum(spec, e_max)]
        assert _count_below(spec, e_max)[0] == len(energies)
        gaps = [0.5 * (lo + hi) for lo, hi in zip([0.0] + energies, energies)]
        assert [_count_below(spec, e)[0] for e in gaps] == list(range(len(energies)))

    @given(a=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0), v0=st.floats(0.0, 2e4))
    @example(a=math.log10(3.0), b=math.log10(3.0), v0=20.0)
    @settings(max_examples=100)
    def test_count_below_is_the_pruefer_phase_count(self, a, b, v0):
        # a and b log-uniform in [1e-3, 1e3], E from 1e-13 to 1e26 and on the
        # step, away from the levels: where the phase count moves within 1e-9
        # of E, either count may round a level to the other side
        spec = WellSpec(10.0**a, 10.0**b, v0)
        assume(math.sqrt(v0) * spec.b <= 350.0)
        e = np.concatenate([np.geomspace(1e-13, 1e26, 1000),
                            [v0 * (1 - 1e-12), v0, v0 * (1 + 1e-12)]])
        e = e[e > 0.0]
        away = pruefer_count(spec, e * (1.0 - 1e-9)) == pruefer_count(spec, e * (1.0 + 1e-9))
        assert np.array_equal(_count_below(spec, e[away])[0], pruefer_count(spec, e[away]))

    def test_tiny_step_reduces_to_flat_well(self):
        states = find_spectrum(WellSpec(3.0, 3.0, 1e-12), 1.2)
        for n, st in enumerate(states, start=1):
            exact = (n * math.pi / 6.0) ** 2
            assert abs(st.energy - exact) / exact < 1e-6
            p_left, _ = side_probabilities(st)
            assert abs(p_left - 0.5) < 1e-9

    def test_count_at_zero_is_zero(self, standard_spec):
        # J = 0 at E = 0, where floor(J / pi - 1/2) alone would read -1
        assert _count_below(standard_spec, 0.0)[0] == 0

    def test_empty_result_below_first_level(self, standard_spec):
        assert find_spectrum(standard_spec, 0.5) == []

    def test_ground_state_below_the_lowest_probe(self, standard_spec, standard_states):
        # a cutoff 1e9 times the ground state, whose bracket still starts at the
        # scan's first cell, 0.1
        states = find_spectrum(standard_spec, 9.6e8)
        assert len(states) == _count_below(standard_spec, 9.6e8)[0] == 59174
        assert [s.energy for s in states[:9]] == [s.energy for s in standard_states]

    def test_uncountable_level_count_rejected(self, standard_spec):
        # about 1.9e150 levels lie below 1e300: past 2**53 the count is no longer
        # an exact float, and the brackets could not be allocated
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"e_max=1e\+300 holds 1\.9\d*e\+150 levels"):
                find_spectrum(standard_spec, 1e300)

    def test_cutoff_at_the_float_maximum_refused_without_warnings(self, standard_spec):
        # e_max (1 + 1e-8), the count's top probe, would overflow to inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                    f"e_max={sys.float_info.max!r} holds 2.5607e+154 levels, more than the 2**53")):
                find_spectrum(standard_spec, sys.float_info.max)

    def test_cutoff_past_the_scan_reach_refused(self):
        # the narrow well's 0.1 cell is below 4 eps e_max: the count at the
        # probes finds levels, but no cell of the fixed scan could step to them
        with pytest.raises(ValueError, match=re.escape(
                "e_max=1e+16 is past the fixed scan's reach: its cell 1.000e-01 is below "
                "4 eps e_max = 8.882e+00")):
            find_spectrum(WellSpec(1e-6, 1e-6, 0.0), 1e16)

    def test_cutoff_past_the_scan_reach_at_the_float_maximum_refused_without_warnings(self):
        # about 8500 levels: countable, so the reach refuses it before the polish
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                    f"e_max={sys.float_info.max!r} is past the fixed scan's reach")):
                find_spectrum(WellSpec(1e-150, 1e-150, 0.0), sys.float_info.max)

    @settings(max_examples=20, deadline=None)
    @given(a=st.floats(1e-3, 0.1), b=st.floats(1e-3, 0.1), v0=st.floats(0.0, 100.0),
           past=st.floats(1.01, 2.0))
    def test_cutoff_past_the_scan_reach_refused_from_the_probes(self, a, b, v0, past):
        # up to 1e6 levels below e_max: the count at the 31 probes refuses them,
        # with no split of its gaps into one energy per level
        e_max = past * scan_step(a, b) / (4.0 * np.finfo(float).eps)
        sizes = []

        def count(spec, es):
            sizes.append(np.size(es))
            return _count_below(spec, es)

        with mock.patch.object(spectrum, "_count_below", count):
            with pytest.raises(ValueError, match="is past the fixed scan's reach"):
                find_spectrum(WellSpec(a, b, v0), e_max)
        assert sizes == [31]

    @pytest.mark.parametrize("e_max", ["0x1.6214275f16c7cp+6", "0x1.6214275f16c7dp+6", "0x1.9p+7"])
    def test_level_on_a_scan_point_keeps_its_float_with_the_cutoff_on_it(self, e_max):
        # the characteristic vanishes on the scan point 0x1.6214275f16c7bp+6
        # and on the floats just above it, so a cutoff on those, counted as
        # holding the level, brackets it as every larger cutoff does
        spec = WellSpec(4.887774285019122, 4.795627441789168, 0.0)
        levels = find_spectrum(spec, float.fromhex(e_max))
        assert levels[28].energy == float.fromhex("0x1.6214275f16c7bp+6")

    @pytest.mark.parametrize("e_max, levels", [(94.84251582871035, [28]),
                                               (2655.5904432038897, [28, 57])])
    def test_level_next_to_a_count_probe_on_a_zero_keeps_its_float(self, e_max, levels):
        # the count probe 28 e_max / 30 lands on 0x1.6214275f16c7cp+6, one float
        # above the scan point where the run of zeros of the characteristic
        # starts (and 4x that for level 58): the scan reports the scan point
        spec = WellSpec(4.887774285019122, 4.795627441789168, 0.0)
        found = [state.energy for state in find_spectrum(spec, e_max)]
        expected = reference_roots(lambda es: _characteristic_many(spec, es),
                                   lambda e: _count_below(spec, e),
                                   e_max, scan_step(spec.a, spec.b), spectrum._BISECT_TOL)
        assert found == expected
        assert [found[n].hex() for n in levels] == [
            f"0x1.6214275f16c7bp+{6 + 2 * i}" for i in range(len(levels))]

    def test_cutoff_in_a_well_too_wide_for_a_scan_cell_refused(self):
        # (a + b)**2 overflows, so the scan cell, and with it the lowest count
        # probe, is 0, where the count reads 0 levels
        with pytest.raises(ValueError, match=re.escape(
                "e_max=1e-300 is past the fixed scan's reach: its cell 0.000e+00")):
            find_spectrum(WellSpec(1e155, 1e155, 0.0), 1e-300)

    def test_overflowing_step_height_rejected(self):
        with pytest.raises(ValueError, match="overflow"):
            find_spectrum(WellSpec(3.0, 3.0, 2e5), 40.0)

    def test_count_flags_a_dropped_root(self, standard_spec, states_e100):
        # a second zero at state 3's energy cancels its sign change, so fn keeps
        # its sign across level 3, and the Sturm count's parity is not fn's
        # sign at the first probe above it, 100 * 3 / 30
        e3 = states_e100[2].energy
        hidden = lambda es: _characteristic_many(standard_spec, es) * (e3 - es)
        with pytest.raises(ScanResolutionError, match=r"at E=10\.0: N = 3, fn = "):
            bracket_and_bisect(hidden, lambda es: (_count_below(standard_spec, es)[0], hidden(es)),
                               100.0, 0.1, 1e-13)

    @given(a=lengths, b=lengths, v0=st.floats(min_value=0.0, max_value=1e4),
           e_max=st.floats(min_value=1.0, max_value=1e4))
    @example(a=3.0, b=3.0, v0=20.0, e_max=1e4)
    @example(a=6.375, b=9.8125, v0=0.0, e_max=73.0)  # flat floor: levels on scan points
    @example(a=7.981306055915094, b=7.5, v0=100.0, e_max=100.0)  # g = 0 on a run of floats
    @example(a=1.0, b=5.0, v0=2000.0, e_max=3000.0)  # tall steps: the polish's calls change most
    @example(a=4.0, b=4.0, v0=5000.0, e_max=6000.0)
    # flat floor: every level at J = n pi, midway between two action probes
    @example(a=3.0, b=3.0, v0=0.0, e_max=1000.0)
    @example(a=1.0, b=5.0, v0=2000.0, e_max=2010.0)  # tall step: the phase near its pi/2 bound
    # a count probe on a run of zeros, one float above the scan point
    @example(a=4.887774285019122, b=4.795627441789168, v0=0.0, e_max=94.84251582871035)
    @settings(max_examples=200)
    def test_energies_match_the_fixed_scan(self, a, b, v0, e_max):
        # the count-directed policy reports the fixed-step scan's floats
        assume(math.sqrt(v0) * b <= 350.0)
        spec = WellSpec(a, b, v0)
        try:
            expected = reference_roots(lambda es: _characteristic_many(spec, es),
                                       lambda e: _count_below(spec, e),
                                       e_max, scan_step(a, b), spectrum._BISECT_TOL)
        except ScanResolutionError:
            assume(False)  # the fixed scan gave up; the count-directed policy resolves
        assert [state.energy for state in find_spectrum(spec, e_max)] == expected

    @given(a=lengths, b=lengths, v0=st.floats(min_value=0.0, max_value=1e4),
           e_max=st.floats(min_value=1.0, max_value=1e4))
    @example(a=3.0, b=3.0, v0=20.0, e_max=1e4)
    @example(a=3.0, b=3.0, v0=0.0, e_max=1000.0)
    @example(a=1.0, b=5.0, v0=2000.0, e_max=2010.0)
    @settings(max_examples=100)
    def test_one_count_call_brackets_every_level(self, a, b, v0, e_max):
        # the count pass takes two energies either side of each level's
        # Pruefer-phase seed, so its first call brackets every level and no
        # gap is split
        assume(math.sqrt(v0) * b <= 350.0)
        spec = WellSpec(a, b, v0)
        calls = []

        def count(spec, es):
            calls.append(np.sort(es))
            return _count_below(spec, es)

        with mock.patch.object(spectrum, "_count_below", count):
            find_spectrum(spec, e_max)
        assert len(calls) == 1
        assert np.diff(pruefer_count(spec, calls[0])).max() <= 1

    @pytest.mark.parametrize("spec, e_max", [
        (WellSpec(1.0, 5.0, 2000.0), 3000.0),
        (WellSpec(1.0, 4.0, 200.0), 4000.0),
        (WellSpec(3.0, 3.0, 20.0), 1e4),
        (WellSpec(4.0, 4.0, 5000.0), 6000.0),   # a bracket ends on the branch point E = v0
    ])
    def test_tall_step_brackets_polish_in_few_calls(self, spec, e_max, monkeypatch):
        # below a tall step the polish must narrow the brackets, not leave
        # them to the replay's bisection from the scan cell
        calls = []

        def policy(fn, *args):
            def counted(es):
                calls.append(es.size)
                return fn(es)
            return bracket_and_bisect(counted, *args)

        monkeypatch.setattr(spectrum, "bracket_and_bisect", policy)
        assert find_spectrum(spec, e_max)
        assert len(calls) <= 30


def pruefer_phase(spec: WellSpec, energies) -> tuple[np.ndarray, np.ndarray]:
    """The seeds' Pruefer phase at b and its slope in E: ``_phase_below`` in k
    below the step, ``_phase_above`` in q above it."""
    e = np.asarray(energies, dtype=float)
    below = e < spec.v0
    f, slope = np.empty(e.size), np.empty(e.size)
    k = np.sqrt(e[below])
    f[below], dk = spectrum._phase_below(spec, k)
    slope[below] = dk / (2.0 * k)
    q = np.sqrt(e[~below] - spec.v0)
    f[~below], dq = spectrum._phase_above(spec, q)
    slope[~below] = dq / (2.0 * q)
    return f, slope


@st.composite
def stepped_wells(draw):
    """Wells with levels on both sides of the step: a sqrt(v0) > 2, so at least
    one level lies below it, and e_max at least 2 pi of q b above it.  The
    level whose action bracket (n -+ 1/2) pi holds v0 straddles the step."""
    a, b = draw(st.floats(0.5, 6.0)), draw(st.floats(0.5, 6.0))
    v0 = draw(st.floats(20.0, 3000.0))
    assume(math.sqrt(v0) * b <= 350.0)
    return WellSpec(a, b, v0), v0 + (2.0 * math.pi / b) ** 2 * draw(st.floats(1.0, 4.0))


@st.composite
def guarded_wells(draw):
    """Wells up to the sqrt(v0) b <= 350 guard, the flat floor and steps
    within 5% of the guard among them, and e_max where J <= 200 pi, so at
    most 200 levels: J = k a + q b is at most sqrt(E) (a + b)."""
    a, b = draw(lengths), draw(lengths)
    height = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(0.95, 1.0)))
    levels = draw(st.floats(1.0, 200.0))
    return WellSpec(a, b, (height * 350.0 / b) ** 2), (levels * math.pi / (a + b)) ** 2


class TestPhaseSeeds:
    @given(stepped_wells())
    @example((WellSpec(3.0, 3.0, 20.0), 100.0))
    @settings(max_examples=60)
    def test_phase_is_n_pi_at_each_level(self, well):
        # each reported float lies within half a bisection tolerance of the
        # characteristic's sign change, so the phase is n pi within its
        # slope times one tolerance, and a few ulp of n pi
        spec, e_max = well
        levels = np.array([state.energy for state in find_spectrum(spec, e_max)])
        assert levels.min() < spec.v0 < levels.max()
        n_pi = np.arange(1, levels.size + 1) * math.pi
        f, slope = pruefer_phase(spec, levels)
        tol = slope * spectrum._BISECT_TOL * np.maximum(levels, 1.0) + 4.0 * np.spacing(n_pi)
        assert (np.abs(f - n_pi) <= tol).all()

    @given(stepped_wells(), st.lists(st.floats(1e-3, 0.999), min_size=1, max_size=20))
    @settings(max_examples=60)
    def test_newton_slope_is_the_central_difference(self, well, fractions):
        # k across (0, sqrt(v0)) below the step and q across (0, sqrt(e_max)) above it
        spec, e_max = well
        u = np.array(fractions)
        for phase, x in ((spectrum._phase_below, u * math.sqrt(spec.v0)),
                         (spectrum._phase_above, u * math.sqrt(e_max))):
            h = 1e-7 * x
            central = (phase(spec, x + h)[0] - phase(spec, x - h)[0]) / (2.0 * h)
            assert phase(spec, x)[1] == pytest.approx(central, rel=1e-4)

    @given(stepped_wells(), st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=50))
    @settings(max_examples=60)
    def test_phase_counts_the_levels_below(self, well, fractions):
        # floor(F / pi) is the oracle's count, away from the levels, where
        # either may round a level to the other side
        spec, e_max = well
        e = np.array(fractions) * e_max
        e = e[pruefer_count(spec, e * (1.0 - 1e-9)) == pruefer_count(spec, e * (1.0 + 1e-9))]
        assert np.array_equal(np.floor(pruefer_phase(spec, e)[0] / math.pi),
                              pruefer_count(spec, e))

    @given(stepped_wells())
    @example((WellSpec(4.0, 4.0, 5000.0), 6000.0))
    @settings(max_examples=60)
    def test_seeds_warn_of_nothing(self, well):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert spectrum._seeds(*well).size

    @pytest.mark.parametrize("well", [
        (WellSpec(3.503079965474234, 1.6801040506945253, 3.298930762883442), 162.3413853457569),
        (WellSpec(1.8056204767497963, 4.959930846381011, 134.62231168532878), 295.5930490420383),
    ])
    def test_newton_stops_on_a_collapsed_bracket(self, well, monkeypatch):
        # step-survey wells where a level's bracket above the step closes to
        # about an ulp while Newton's estimate rounds just outside it, so its
        # step test never passes: without the bracket's own stop, the
        # iteration bisects to its cap of _SEED_ITERS phase evaluations
        calls = []
        phase = spectrum._phase_above
        monkeypatch.setattr(spectrum, "_phase_above",
                            lambda spec, q: calls.append(q.size) or phase(spec, q))
        spectrum._seeds(*well)
        assert len(calls) <= 4

    def test_newton_breaks_a_two_cycle(self):
        # level 484 at E/v0 = 1.03: Newton's iterates in q 2-cycle around
        # q = 0.18, each inside the bracket, so no step leaves it to bisect,
        # and the seed ended 4.3e-9 relative from the root at the step cap
        spec = WellSpec(1420.5803233328522, 2.0607432495133406, 1.1101579790856657)
        e_max = 2.476065344420603
        seed = spectrum._seeds(spec, e_max)[483]
        level = find_spectrum(spec, e_max)[483].energy
        assert abs(seed - level) <= 1e-12 * level

    @given(a=st.floats(1.0, 5.0), b=st.floats(1.0, 5.0),
           v0=st.floats(0.0, math.log(2e4)).map(math.exp),
           e_max=st.floats(math.log(10.0), math.log(1e4)).map(math.exp))
    @example(a=3.0, b=3.0, v0=20.0, e_max=1e4)
    @example(a=1.0, b=5.0, v0=2000.0, e_max=2010.0)  # tall step: the phase near its pi/2 bound
    @settings(max_examples=200)
    def test_every_level_gets_a_count_gap_past_the_polish(self, a, b, v0, e_max):
        # step-survey's draws: the seeds put each level in a count gap
        # narrower than the polish's handover, so the polish makes no pass
        # and the replay starts at once
        assume(math.sqrt(v0) * b <= 350.0)
        spec = WellSpec(a, b, v0)
        lo, hi, *_ = _isolate(lambda es: _count_below(spec, es), e_max, scan_step(a, b),
                              spectrum._BISECT_TOL, lambda: spectrum._seeds(spec, e_max))
        assert lo.size == _count_below(spec, e_max)[0]
        assert (hi - lo < _HANDOVER * spectrum._BISECT_TOL * np.maximum(hi, 1.0)).all()

    @given(guarded_wells())
    @example((WellSpec(3.0, 3.0, 0.0), 1000.0))       # flat floor: g = 0 on runs of floats
    @example((WellSpec(1.0, 5.0, 2000.0), 3000.0))
    @example((WellSpec(0.5, 0.5, 4.9e5), (200.0 * math.pi) ** 2))   # 100 levels at the guard
    @settings(max_examples=60, deadline=None)
    def test_levels_without_seeds_keep_their_floats(self, well):
        # with no Newton step each seed stays at its start, which misses its
        # level wherever the step moves it off J = n pi; the count's split and
        # the polish on the characteristic itself then bracket that level:
        # the floats, or the refusal, are the seeded ones
        def solve():
            try:
                return [state.energy for state in find_spectrum(*well)]
            except ValueError as exc:
                return str(exc)

        seeded = solve()
        with mock.patch.object(spectrum, "_SEED_ITERS", 0):
            assert solve() == seeded

    @pytest.mark.parametrize("e_max, most_fn_calls", [(35.0, 3), (1e4, 4)])
    def test_standard_well_calls(self, standard_spec, e_max, most_fn_calls, monkeypatch):
        calls = {"fn": 0, "count": 0}

        def policy(fn, count, *args):
            def counted(tag, f):
                def call(es):
                    calls[tag] += 1
                    return f(es)
                return call
            return bracket_and_bisect(counted("fn", fn), counted("count", count), *args)

        monkeypatch.setattr(spectrum, "bracket_and_bisect", policy)
        assert find_spectrum(standard_spec, e_max)
        assert calls["count"] == 1
        assert calls["fn"] <= most_fn_calls

    def test_many_levels_keep_the_floats_of_the_plain_policy(self, standard_spec):
        # 1909 levels: the floats of the call without seeds, whose count
        # splits its 31 probes' gaps and whose polish narrows every bracket
        e_max = 1e6
        plain = bracket_and_bisect(lambda es: _characteristic_many(standard_spec, es),
                                   lambda es: _count_below(standard_spec, es),
                                   e_max, scan_step(3.0, 3.0), spectrum._BISECT_TOL)
        assert len(plain) == 1909
        assert [state.energy for state in find_spectrum(standard_spec, e_max)] == plain

    def test_seed_arrays_stay_within_a_bound_per_level(self, standard_spec):
        # the action grid holds two energies per level, and the Newton
        # iteration a fixed number of arrays of one energy per level: 40
        # floats a level bounds them all (about 30 at the last measurement)
        spectrum._seeds(standard_spec, 1e6)
        tracemalloc.start()
        try:
            spectrum._seeds(standard_spec, 1e6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * 8 * 1909


# lam log-uniform in [1e-3, 1e4]
scales = st.floats(-3.0, 4.0).map(lambda p: 10.0**p)


# the refusals find_spectrum may raise over the whole of WellSpec, each with the
# ROADMAP item that removes it; a new failure class is a finding, not an entry
DOMAIN_REFUSALS = [
    # the sqrt(v0)*b overflow guard (items 4 and 15)
    r"step height v0=\S+ is too large for this geometry",
    # the root policy's tolerance, absolute below E = 1 (item 13)
    r"matching residual \S+ at E=\S+: energy is not a root of the characteristic",
]

log_lengths = st.floats(-4.0, 4.0).map(lambda p: 10.0**p)


class TestDomain:
    @given(a=log_lengths, b=log_lengths,
           v0=st.one_of(st.just(0.0), st.floats(-8.0, 8.0).map(lambda p: 10.0**p)),
           reach=st.floats(0.0, 4.5), above_step=st.booleans())
    @settings(max_examples=100)
    def test_solves_with_the_pruefer_count_or_refuses_by_name(self, a, b, v0, reach,
                                                              above_step):
        # a, b log-uniform in [1e-4, 1e4], v0 zero or log-uniform in [1e-8, 1e8],
        # and e_max from the ground scale up to 10^4.5 times it, plus v0 half the time
        spec = WellSpec(a, b, v0)
        e_max = (math.pi / (a + b)) ** 2 * 10.0**reach + (v0 if above_step else 0.0)
        with np.errstate(over="ignore", invalid="ignore"):  # sinh(qbar b) past the guard
            count, below, above = pruefer_count(spec, e_max * np.array([1.0, 1.0 - 1e-9,
                                                                        1.0 + 1e-9]))
        # at most 300 levels, none within rounding of the cutoff
        assume(count <= 300 and below == above)
        try:
            states = find_spectrum(spec, e_max)
        except ValueError as exc:
            assert any(re.match(refusal, str(exc)) for refusal in DOMAIN_REFUSALS), exc
            return
        assert len(states) == count
        assert all(0.0 < state.energy <= e_max for state in states)

    @pytest.mark.xfail(strict=True, raises=ValueError, reason=(
        "the sqrt(v0)*b guard (ROADMAP items 4 and 15) and the matching-residual "
        "refusal (item 13) are still on the refusal list"))
    def test_no_listed_refusal_occurs(self):
        find_spectrum(WellSpec(3.0, 3.0, 2e4), 2.1e4)
        find_spectrum(WellSpec(3e4, 3e4, 0.0), 1e-8)


def rescaled(spec: WellSpec, lam: float) -> WellSpec:
    """The well (lam a, lam b, v0 / lam^2), whose levels are E / lam^2: with
    hbar = 2m = 1 the width is the only scale."""
    return WellSpec(lam * spec.a, lam * spec.b, spec.v0 / lam**2)


class TestScaleInvariance:
    @given(a=lengths, b=lengths, v0=heights, e_max=cutoffs, lam=scales)
    @example(a=3.0, b=3.0, v0=20.0, e_max=100.0, lam=1e4)
    @settings(max_examples=100)
    def test_count_is_the_same_at_every_scale(self, a, b, v0, e_max, lam):
        # the classical action J = k a + q b does not move with lam, and the
        # characteristic's sign only within rounding of a level
        spec = WellSpec(a, b, v0)
        levels = np.array([state.energy for state in find_spectrum(spec, e_max)])
        e = np.linspace(0.0, e_max, 501)[1:]
        e = e[np.all(np.abs(e[:, None] - levels) > 1e-9 * e[:, None], axis=1)]
        assert np.array_equal(_count_below(rescaled(spec, lam), e / lam**2)[0],
                              np.searchsorted(levels, e))

    @pytest.mark.xfail(strict=True, raises=(AssertionError, ValueError), reason=(
        "the bisection tolerance tol_rel max(1, E) is absolute below E = 1, so "
        "a well scaled up loses relative accuracy (ROADMAP item 13)"))
    @given(a=lengths, b=lengths, v0=heights, e_max=cutoffs, lam=scales)
    @example(a=3.0, b=3.0, v0=20.0, e_max=100.0, lam=1e4)
    @settings(max_examples=50, report_multiple_bugs=False)
    def test_levels_and_sides_are_the_same_at_every_scale(self, a, b, v0, e_max, lam):
        # lam^2 E within 1e-11 relative and p_left within 1e-9 of lam = 1; the
        # scaled cutoff sits a little higher, so rounding cannot drop a level
        states = find_spectrum(WellSpec(a, b, v0), e_max)
        scaled = find_spectrum(rescaled(WellSpec(a, b, v0), lam), e_max * (1.0 + 1e-6) / lam**2)
        assert len(scaled) >= len(states)
        for state, other in zip(states, scaled):
            assert lam**2 * other.energy == pytest.approx(state.energy, rel=1e-11, abs=0.0)
            assert side_probabilities(other)[0] == pytest.approx(side_probabilities(state)[0],
                                                                 rel=0.0, abs=1e-9)


class TestNormalization:
    def test_unit_norm_by_quadrature(self, standard_states):
        xs = np.linspace(-3.0, 3.0, 10001)
        for st in standard_states:
            norm = simpson(psi(st, xs) ** 2, x=xs)
            assert norm == pytest.approx(1.0, abs=1e-10)

    def test_flat_well_amplitudes(self):
        st = find_spectrum(WellSpec(3.0, 3.0, 0.0), 0.5)[0]
        root = math.sqrt(1.0 / 3.0)
        assert st.amp_left == pytest.approx(root, rel=1e-12)
        assert abs(st.amp_right) == pytest.approx(root, rel=1e-12)

    def test_antinode_state_has_equal_amplitudes(self, standard_states):
        st = standard_states[5]  # n = 6
        assert abs(st.amp_left / st.amp_right) == pytest.approx(1.0, abs=0.02)

    def test_sign_convention(self, states_e100):
        for st in states_e100:
            assert st.amp_left > 0

    def test_matching_continuity(self, states_e100):
        for st in states_e100:
            left_val = st.amp_left * math.sin(st.k * 3.0)
            left_der = st.amp_left * st.k * math.cos(st.k * 3.0)
            w = st.q_or_qbar
            if st.below_threshold:
                right_val = st.amp_right * math.sinh(-w * 3.0)
                right_der = st.amp_right * w * math.cosh(w * 3.0)
            else:
                right_val = st.amp_right * math.sin(-w * 3.0)
                right_der = st.amp_right * w * math.cos(w * 3.0)
            scale_v = max(abs(st.amp_left), abs(st.amp_right))
            scale_d = max(st.k * abs(st.amp_left), w * abs(st.amp_right))
            assert abs(left_val - right_val) / scale_v < 1e-9
            assert abs(left_der - right_der) / scale_d < 1e-9

    def test_normalize_is_idempotent(self, standard_states):
        st = standard_states[6]
        again = normalize(st)
        assert again.amp_left == pytest.approx(st.amp_left, rel=1e-13)
        assert again.amp_right == pytest.approx(st.amp_right, rel=1e-13)

    def test_state_solve_names_the_lowest_failing_state(self, standard_spec, standard_states):
        energies = [standard_states[0].energy, standard_states[1].energy + 0.5,
                    standard_states[2].energy + 0.5]
        with pytest.raises(ValueError, match=rf"at E={energies[1]!r}: energy is not a root"):
            spectrum._solve_state(standard_spec, energies)

    def test_normalize_rejects_non_roots(self, standard_states):
        fake = replace(standard_states[0], energy=standard_states[0].energy + 0.5)
        with pytest.raises(ValueError, match="not a root"):
            normalize(fake)

    @pytest.mark.parametrize("energy, message", [
        (-1.0, "energy must be finite and positive, got -1.0"),
        (20.0, "eigenvalue sits exactly at the branch point E = v0"),
    ])
    def test_normalize_rejects_energies_off_the_domain(self, standard_states, energy, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            normalize(replace(standard_states[0], energy=energy))

    @pytest.mark.parametrize("call, message", [
        (lambda spec, states: characteristic(spec, math.inf),
         "energy must be finite and positive, got inf"),
        (lambda spec, states: normalize(replace(states[0], energy=math.inf)),
         "energy must be finite and positive, got inf"),
        (lambda spec, states: normalize(replace(states[0], energy=math.nan)),
         "energy must be finite and positive, got nan"),
        (lambda spec, states: psi(states[0], math.nan), "position outside the well"),
        (lambda spec, states: psi(states[0], np.array([0.0, math.nan])),
         "position outside the well"),
    ], ids=["characteristic-inf", "normalize-inf", "normalize-nan", "psi-nan", "psi-array-nan"])
    def test_non_finite_inputs_refused(self, standard_spec, standard_states, call, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            call(standard_spec, standard_states)


class TestPsi:
    def test_hard_wall_zeros(self, standard_states):
        for st in standard_states:
            assert psi(st, -3.0) == 0.0
            assert psi(st, 3.0) == 0.0

    def test_hard_wall_zeros_are_positive(self, standard_states):
        # amp_right * sin(0) is -0.0 wherever amp_right < 0, which a table prints as "-0"
        for st in standard_states:
            assert math.copysign(1.0, psi(st, -3.0)) == math.copysign(1.0, psi(st, 3.0)) == 1.0
            assert not np.signbit(psi(st, np.array([-3.0, 3.0]))).any()

    def test_flat_well_odd_state_node_at_center(self):
        st = find_spectrum(WellSpec(3.0, 3.0, 0.0), 1.2)[1]  # n = 2
        assert abs(psi(st, 0.0)) < 1e-12

    def test_smooth_across_step(self, standard_states):
        st = standard_states[0]
        h = 0.01
        val0 = psi(st, 0.0)
        der0 = st.amp_left * st.k * math.cos(st.k * 3.0)
        for x in (-h, h):
            taylor = val0 + x * der0
            assert psi(st, x) == pytest.approx(taylor, abs=0.6 * h * h * 20.0)

    def test_rejects_outside(self, standard_states):
        with pytest.raises(ValueError):
            psi(standard_states[0], 3.2)
        with pytest.raises(ValueError):
            psi(standard_states[0], np.array([0.0, -3.5]))

    def test_scalar_and_array_agree(self, standard_states):
        st = standard_states[4]
        xs = np.linspace(-3.0, 3.0, 17)
        arr = psi(st, xs)
        for x, v in zip(xs, arr):
            assert psi(st, float(x)) == v


class TestSideProbabilities:
    def test_sum_to_one(self, states_e100):
        for st in states_e100:
            p_left, p_right = side_probabilities(st)
            assert p_left + p_right == pytest.approx(1.0, abs=1e-10)

    def test_flat_well_is_even_split(self):
        for st in find_spectrum(WellSpec(3.0, 3.0, 0.0), 1.2):
            p_left, _ = side_probabilities(st)
            assert p_left == pytest.approx(0.5, abs=1e-12)

    def test_ground_state_leaks_right(self, standard_states):
        p_left, _ = side_probabilities(standard_states[0])
        assert 0.99 < p_left < 1.0  # tunneling keeps it just below the classical 1

    def test_below_threshold_states_stay_left(self, standard_states):
        for st in standard_states[:4]:
            assert side_probabilities(st)[0] > 0.9

    def test_confinement_tightens_with_step_height(self):
        leaks = []
        for v0 in (50.0, 500.0, 5000.0):
            st = find_spectrum(WellSpec(3.0, 3.0, v0), 2.0)[0]
            leaks.append(1.0 - side_probabilities(st)[0])
        assert leaks[0] > leaks[1] > leaks[2] > 0.0

    @given(a=st.floats(1.0, 5.0), b=st.floats(1.0, 5.0), v0=st.floats(2.0, 60.0),
           headroom=st.floats(20.0, 150.0))
    @settings(max_examples=40)
    def test_level_slopes(self, a, b, v0, headroom):
        # Hellmann-Feynman (R. P. Feynman, Phys. Rev. 56, 340 (1939)): dH/dv0 is the
        # step's indicator, so dE_n/dv0 = p_right, and moving the wall at b gives
        # dE_n/db = -psi'(b)**2 = -(amp_right q)**2.  The slopes are central
        # differences at 1e-6 relative; dE/db is held to its scale E/b, as deep
        # below the step psi'(b)**2 falls under the re-solves' resolution.  The top
        # level can cross e_max, and one within 1e-3 of v0 sits on the step's bend.
        spec, e_max = WellSpec(a, b, v0), v0 + headroom
        states = find_spectrum(spec, e_max)

        def slopes(name):
            value = getattr(spec, name)
            up, down = (find_spectrum(replace(spec, **{name: value * (1.0 + h)}), e_max)
                        for h in (1e-6, -1e-6))
            assert min(len(up), len(down)) >= len(states) - 1
            return [(u.energy - d.energy) / (2e-6 * value) for u, d in zip(up, down)]

        for state, de_dv0, de_db in zip(states[:-1], slopes("v0"), slopes("b")):
            if abs(state.energy / v0 - 1.0) >= 1e-3:
                assert abs(de_dv0 - side_probabilities(state)[1]) < 1e-5
                wall = (state.amp_right * state.q_or_qbar) ** 2
                assert abs(de_db + wall) < 1e-5 * state.energy / b

    @given(u=st.floats(-6.0, 1.7).map(lambda p: 10.0**p), below=st.booleans())
    @example(u=1.0001e-3, below=True)    # cancellation just above the old switch, 1e-3
    @example(u=1.0001e-3, below=False)
    @example(u=np.nextafter(0.8, 0.0), below=True)    # truncation just below the switch
    @example(u=0.8, below=False)                      # cancellation just above it
    @settings(max_examples=300)
    def test_side_integral_within_1e_15_of_mpmath(self, u, below):
        # (u - sin u) / (4 kappa) or (sinh u - u) / (4 kappa) at u = 2 kappa L,
        # kappa = u / 2 and L = 1 exactly: the series below u = 0.8, where its
        # truncation meets the cancellation above it, measured at 1.0e-15
        got = spectrum._sq_integral(np.array([0.5 * u]), 1.0, np.array([below]))[0]
        with mpmath.workdps(50):
            x = mpmath.mpf(u)
            expected = ((mpmath.sinh(x) - x) if below else (x - mpmath.sin(x))) / (2 * x)
            assert abs(got - expected) <= 1.5e-15 * expected

    def test_antinode_state_near_half(self, standard_states):
        # frozen value, confirmed by the finite-difference oracle; note it
        # sits just above the geometric ratio a/(a+b) = 1/2
        p_left, _ = side_probabilities(standard_states[5])
        assert p_left == pytest.approx(0.504053582892, abs=1e-9)

    def test_orthonormality(self, standard_states):
        xs = np.linspace(-3.0, 3.0, 10001)
        waves = [psi(st, xs) for st in standard_states]
        for i in range(9):
            for j in range(9):
                overlap = simpson(waves[i] * waves[j], x=xs)
                assert overlap == pytest.approx(1.0 if i == j else 0.0, abs=1e-8)


class TestClassifyMatching:
    def test_standard_set_classes(self, standard_states):
        kinds = {st.n: classify_matching(st).kind for st in standard_states[4:]}
        assert kinds[6] == MatchKind.NEAR_ANTINODE
        assert kinds[7] == MatchKind.GENERIC
        assert kinds[8] == MatchKind.NEAR_NODE
        assert kinds[9] == MatchKind.NEAR_ANTINODE

    def test_metrics_complementary_and_bounded(self, states_e100):
        for st in states_e100:
            if st.below_threshold:
                continue
            cls = classify_matching(st)
            assert 0.0 <= cls.node_metric <= 1.0
            assert 0.0 <= cls.antinode_metric <= 1.0
            assert cls.node_metric + cls.antinode_metric == pytest.approx(1.0, abs=1e-12)

    def test_rejects_evanescent_states(self, standard_states):
        with pytest.raises(ValueError):
            classify_matching(standard_states[0])

    def test_rejects_bad_threshold(self, standard_states):
        with pytest.raises(ValueError):
            classify_matching(standard_states[5], threshold=1.5)
