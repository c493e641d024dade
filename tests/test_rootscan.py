"""Shared root policy: count brackets, secant polish, the replayed scan and its failures, on
synthetic roots; and the energies both solvers hand it, call for call."""
import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from asymwell import (Exponential, Linear, ScanResolutionError, WellSpec, _rootscan, shooting,
                      spectrum)
from asymwell._rootscan import _Brackets, _isolate, bracket_and_bisect, scan_step
from oracles import reference_roots

EPS = np.finfo(float).eps
# values of _NARROW that put every replay on one path, whatever its root count:
# the numpy halvings and rounds, then the root-by-root walk in floats; the
# replay tests run on both, which must report the same floats
REPLAY_PATHS = (0, 10**9)


def polynomial(roots, counted=None):
    """fn with simple zeros at ``roots``, of sign (-1)**N with N the roots
    below E, and the root policy's count: the number of ``counted`` (``roots``
    by default) below E, with fn there."""
    def fn(es):
        return np.prod([r - es for r in roots], axis=0)

    def count(e):
        return sum(r < e for r in (roots if counted is None else counted)), fn(e)

    return fn, count


def calls_of(fn):
    """fn, recording the size of every call."""
    sizes = []

    def traced(es):
        sizes.append(es.size)
        return fn(es)

    return traced, sizes


def test_isolated_roots_found_on_the_first_scan():
    fn, count = polynomial([0.33, 1.47, 2.71])
    traced, sizes = calls_of(fn)
    roots = bracket_and_bisect(traced, count, 3.0, 0.1, 1e-13)
    assert roots == pytest.approx([0.33, 1.47, 2.71], rel=1e-12)
    assert roots == reference_roots(fn, count, 3.0, 0.1, 1e-13)
    # the count hands over fn at the bracket ends and e_max, so every call
    # takes at most one energy per root; the fixed scan took 30 energies and
    # then 40 bisection calls
    assert sizes[0] <= 2 * 3 + 1 and max(sizes[1:]) <= 3
    assert len(sizes) <= 16


def test_roots_sharing_a_scan_cell_are_recovered_by_refinement():
    # 1.02 and 1.07 both lie in the cell (1.0, 1.1): the reported floats come
    # from the bisection of cells 10x finer
    fn, count = polynomial([0.55, 1.02, 1.07])
    traced, sizes = calls_of(fn)
    roots = bracket_and_bisect(traced, count, 2.0, 0.1, 1e-13)
    assert roots == pytest.approx([0.55, 1.02, 1.07], rel=1e-12)
    assert roots == reference_roots(fn, count, 2.0, 0.1, 1e-13)
    assert sizes[0] <= 2 * 3 + 1 and max(sizes[1:]) <= 3
    assert len(sizes) <= 16


@pytest.mark.parametrize("roots, expected", [([0.5, 1.0], [0.5, 1.0]),
                                             ([0.33, 2.0], [0.32999999999997237, 2.0])])
def test_root_exactly_at_the_cutoff_is_reported(roots, expected):
    # fn(e_max) is exactly 0, so the bracket holding e_max closes on it
    fn, count = polynomial(roots)
    assert bracket_and_bisect(fn, count, roots[-1], 0.1, 1e-13) == expected
    assert expected == reference_roots(fn, count, roots[-1], 0.1, 1e-13)


def test_pair_closer_than_three_refinements_resolves():
    # 5e-6 apart, inside one cell of 0.1 / 10**3, where the fixed scan gave up;
    # the count separates them and the cells refine until each has its own
    fn, count = polynomial([0.5, 1.04321, 1.043215])
    with pytest.raises(ScanResolutionError):
        reference_roots(fn, count, 2.0, 0.1, 1e-13)
    roots = bracket_and_bisect(fn, count, 2.0, 0.1, 1e-13)
    assert roots == pytest.approx([0.5, 1.04321, 1.043215], rel=1e-12)


def test_spurious_root_raises():
    # the count places a level at 1.0, where fn keeps its sign, so its parity
    # is not fn's sign at the first probe above it
    fn, count = polynomial([0.5, 1.5], counted=[0.5, 1.0, 1.5])
    traced, sizes = calls_of(fn)
    with pytest.raises(ScanResolutionError, match=re.escape(
            "parity is not the sign of the scanned function at E=1.0666666666666667: "
            "N = 2, fn = -0.245556")):
        bracket_and_bisect(traced, count, 2.0, 0.1, 1e-13)
    assert sizes == []


def test_count_that_disagrees_with_fn_raises_at_once():
    # the count rounds the level at 1.0, on the probe 2 * 15 / 30, below it and
    # fn above it, so the count's parity is not fn's sign there
    fn, count = polynomial([0.5, 1.0 + 1e-12], counted=[0.5, 1.0 - 1e-12])
    traced, sizes = calls_of(fn)
    with pytest.raises(ScanResolutionError, match=re.escape(
            "parity is not the sign of the scanned function at E=1.0: N = 2, fn = -5.00044e-13")):
        bracket_and_bisect(traced, count, 2.0, 0.1, 1e-13)
    assert sizes == []


def test_count_that_disagrees_with_fn_at_the_cutoff_raises():
    # fn is positive at e_max, past its root at 1.0, while the count, whose
    # level lies at 1 + 1e-10, reads 1 there: its parity is not fn's sign
    fn, count = polynomial([0.5, 1.0], counted=[0.5, 1.0 + 1e-10])
    with pytest.raises(ScanResolutionError, match=re.escape("E=1.00000000005")):
        bracket_and_bisect(fn, count, 1.0 + 5e-11, 0.1, 1e-13)


def test_level_below_the_lowest_probe_raises():
    # the count claims a level in [0, min(0.1, e_max / 30)], which no bracket
    # can hold and no well has
    fn, count = polynomial([0.05])
    with pytest.raises(ScanResolutionError, match=re.escape(
            "places 1 level(s) in [0, 0.0666666667], below the lowest probe: N(hi) = 1")):
        bracket_and_bisect(fn, count, 2.0, 0.1, 1e-13)


# log-uniform lengths from 1e-3 to 3e4, the widest flat well the closed form solves
spans = st.floats(-3.0, math.log10(3e4)).map(lambda p: 10.0**p)


@given(a=spans, b=spans, height=st.floats(0.0, 1.0))
@example(a=3e4, b=3e4, height=0.0)
@example(a=3.0, b=3.0, height=20.0 * (3.0 / 350.0) ** 2)
@settings(max_examples=200)
def test_closed_form_counts_no_level_at_the_scan_step(a, b, height):
    # the policy's lowest probe is the scan's first cell, half the ground state
    # of the flat well of width a + b or less, and the step only raises the
    # levels; v0 runs up to the sqrt(v0) b <= 350 guard
    spec = WellSpec(a, b, height * (350.0 / b) ** 2)
    assert spectrum._count_below(spec, scan_step(a, b))[0] == 0


@given(a=spans, b=spans, v0=st.floats(-3.0, 7.0).map(lambda p: 10.0**p),
       floor=st.sampled_from(["flat", "sharp", "sigmoid", "ramp"]),
       width=st.floats(0.01, 0.9), n_grid=st.integers(50, 2000).map(lambda n: 2 * n))
@example(a=3.0, b=3.0, v0=20.0, floor="sigmoid", width=0.2 / 3.0, n_grid=4000)
@example(a=3e4, b=3e4, v0=0.0, floor="flat", width=0.5, n_grid=100)
@settings(max_examples=150)
def test_numerov_counts_no_level_at_the_scan_step(a, b, v0, floor, width, n_grid):
    # the same on the grid: the discrete Sturm comparison with the flat grid
    # puts the ground state at (pi / W)^2 (1 - (pi / n_grid)^4 / 240) or above;
    # steps up to the height the grid refuses
    smoothing = {"sigmoid": Exponential(width * min(a, b)),
                 "ramp": Linear(width * min(a, b))}.get(floor)
    spec = WellSpec(a, b, 0.0 if floor == "flat" else v0, smoothing)
    try:
        grid = shooting._stable_grid(spec, n_grid)
    except ValueError:    # a grid too coarse for the floor
        assume(False)
    assert shooting._count_below(grid, scan_step(a, b))[0] == 0


def test_decreasing_count_raises():
    # a level that the count gains at 0.5 and loses again at 1.5, where fn
    # changes sign both times
    fn, _ = polynomial([0.5, 1.5])
    with pytest.raises(ScanResolutionError, match=re.escape(
            "decreases across [1.46666667, 1.53333333]: N(lo) = 1, N(hi) = 0")):
        bracket_and_bisect(fn, lambda e: ((e > 0.5).astype(int) - (e > 1.5), fn(e)),
                           2.0, 0.1, 1e-13)


def test_levels_that_cannot_be_separated_raise():
    # a double level at 1.0: the gap holding it narrows to adjacent floats
    fn, count = polynomial([1.0, 1.0])
    with pytest.raises(ScanResolutionError, match=re.escape(
            "cannot separate the levels in [1, 1]: N(lo) = 0, N(hi) = 2")):
        bracket_and_bisect(fn, count, 2.0, 0.1, 1e-13)


def test_roots_no_scan_cell_separates_raise():
    # 3e-15 apart: the count separates them, but no cell down to 1e-15 does
    fn, count = polynomial([0.5, 1.0 + 1e-15, 1.0 + 4e-15])
    with pytest.raises(ScanResolutionError, match=re.escape(
            "no scan cell down to 1.000e-15 separates the roots in [0.5, 1]")):
        bracket_and_bisect(fn, count, 2.0, 0.1, 1e-13)


@pytest.mark.parametrize("e_max", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_cutoff_outside_the_domain_refused(e_max):
    fn, count = polynomial([0.5])
    with pytest.raises(ValueError,
                       match=re.escape(f"e_max must be finite and positive, got {e_max}")):
        bracket_and_bisect(fn, count, e_max, 0.1, 1e-13)


def test_uncountable_cutoff_refused():
    # a count past 2**53 is no longer an exact float, so no bracket could be trusted
    fn, _ = polynomial([0.5])
    with pytest.raises(ValueError, match=re.escape(
            "e_max=2.0 holds 1.80144e+16 levels, more than the 2**53 that a float counts "
            "exactly")):
        bracket_and_bisect(fn, lambda e: (np.where(e > 1.0, 2.0**54, 0.0), fn(e)),
                           2.0, 0.1, 1e-13)


def test_cutoff_past_the_scan_reach_refused():
    # cells below 4 eps e_max cannot step the scan's grid, whatever the brackets
    fn, count = polynomial([0.5])
    with pytest.raises(ValueError, match=re.escape(
            "e_max=2.0 is past the fixed scan's reach: its cell 1.000e-16 is below "
            "4 eps e_max = 1.776e-15")):
        bracket_and_bisect(fn, count, 2.0, 1e-16, 1e-13)


def test_cutoff_past_the_scan_reach_refused_before_any_split():
    # 3e6 levels below e_max: the count at the 31 probes settles the refusal,
    # with no split of its gaps into one energy per level
    k = 1.5e6

    def fn(e):
        return np.cos(np.pi * e * k)

    traced, sizes = calls_of(lambda e: (np.floor(e * k + 0.5), fn(e)))
    with pytest.raises(ValueError, match=re.escape("e_max=2.0 is past the fixed scan's reach")):
        bracket_and_bisect(fn, traced, 2.0, 1e-16, 1e-13)
    assert sizes == [31]


def test_count_of_exactly_2_53_refused():
    # a float count of 2**53 may be 2**53 + 1 rounded, so its parity says nothing
    # of fn's sign, here negative at e_max
    def fn(e):
        return np.where(e > 1.0, -1.0, 1.0)

    with pytest.raises(ValueError, match=re.escape(
            "e_max=2.0 holds 9.0072e+15 levels, more than the 2**53 that a float counts "
            "exactly")):
        bracket_and_bisect(fn, lambda e: (np.where(e > 1.0, 2.0**53, 0.0), fn(e)),
                           2.0, 0.1, 1e-13)


def test_cutoff_past_the_scan_reach_without_levels_is_empty():
    fn, count = polynomial([5.0])
    assert bracket_and_bisect(fn, count, 2.0, 1e-16, 1e-13) == []


def test_root_exactly_on_a_count_probe():
    # fn vanishes on the probe 2 * 15 / 30 = 1.0, an end of two brackets; the
    # level inside the other bracket must still be found
    fn, count = polynomial([0.5, 1.0, 1.02])
    roots = bracket_and_bisect(fn, count, 2.0, 0.1, 1e-13)
    assert roots == reference_roots(fn, count, 2.0, 0.1, 1e-13)
    assert roots == pytest.approx([0.5, 1.0, 1.02], rel=1e-12)


@st.composite
def narrow_brackets(draw):
    """1-6 distinct roots and a cutoff where the replayed brackets are narrowest:
    clusters in one scan cell of 0.1, roots on scan points k * 0.1 and within
    a few tolerances of one, and the cutoff on the top root or above it."""
    cells = draw(st.lists(st.integers(1, 30), min_size=1, max_size=2))
    roots = []
    for _ in range(draw(st.integers(1, 6))):
        k = draw(st.sampled_from(cells))
        offset = draw(st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                                st.integers(-4, 4)))
        if isinstance(offset, float):   # inside the cell above k * 0.1
            roots.append(0.1 * (k + offset))
        else:                           # on the scan point, or a few tolerances off it
            roots.append(k * 0.1 + offset * 1e-13 * max(1.0, k * 0.1))
    assume(len(set(roots)) == len(roots))
    top = max(roots)
    return roots, draw(st.sampled_from([top, top + 0.05, top + 0.5]))


@given(narrow_brackets())
@example(([0.1, 0.2, 1.675], 1.725))          # roots on two neighbouring scan points
@example(([1.5, 1.50000000000015], 1.50000000000015))   # a scan point, the cutoff above it
# three levels in the edge window around the cutoff: the count splits them at
# e_max, so the top root's bracket starts there
@example(([0.1, 0.10000000000010001, 0.0999999999999], 0.10000000000010001))
@example(([0.1 - 4e-13, 3.0], 3.0))          # a root below the lowest probe, 0.1
@settings(max_examples=300)
def test_narrow_brackets_replay_the_fixed_scan(case):
    # the bulk approach assumes each scan cell holds its polished bracket,
    # wider than the tolerance; near cell edges and in clusters it is narrowest
    roots, e_max = case
    fn, count = polynomial(roots)
    if min(roots) < min(0.1, e_max * (1 / 30)):
        # no well has a level at or below the scan's first cell
        with pytest.raises(ScanResolutionError, match="below the lowest probe"):
            bracket_and_bisect(fn, count, e_max, 0.1, 1e-13)
        return
    try:
        expected = reference_roots(fn, count, e_max, 0.1, 1e-13)
    except ScanResolutionError:
        expected = []   # the fixed scan gave up
    # a zero on the cutoff blinds the cell below it, where the scan may lose a root
    complete = len(expected) == len(roots)
    for narrow in REPLAY_PATHS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_rootscan, "_NARROW", narrow)
            try:
                found = bracket_and_bisect(fn, count, e_max, 0.1, 1e-13)
            except ScanResolutionError:
                assert not complete, "the policy gave up where the fixed scan found every root"
                continue
        assert len(found) == len(roots)
        assert all(abs(f - r) <= 1e-13 * max(1.0, r) for f, r in zip(found, sorted(roots)))
        if complete:
            assert found == expected


@st.composite
def seeded_brackets(draw):
    """``narrow_brackets`` with root estimates for the count pass: anywhere
    from -e_max to 2 e_max, on 0 and e_max, on the 31 probes, on scan points
    k * 0.1, and on a root or a few tolerances, seed gaps (128 eps x) or
    floats off it, where a gap's end can fall on the root; each drawn once
    or twice."""
    roots, e_max = draw(narrow_brackets())
    uniform = [0.0, min(0.1, e_max / 30)] + [e_max * i / 30 for i in range(1, 31)]
    units = [lambda x: 1e-13 * max(1.0, x), lambda x: 128.0 * EPS * x, np.spacing]
    near = st.tuples(st.sampled_from(roots), st.integers(-4, 4), st.sampled_from(units),
                     st.integers(-2, 2)).map(
        lambda t: t[0] + t[1] * t[2](t[0]) + t[3] * np.spacing(t[0]))
    scan = st.integers(1, max(1, int(e_max / 0.1))).map(lambda k: k * 0.1)
    seeds = draw(st.lists(st.one_of(st.floats(-e_max, 2.0 * e_max), st.sampled_from(uniform),
                                    scan, near), max_size=12))
    return roots, e_max, seeds * draw(st.sampled_from([1, 2]))


@given(seeded_brackets())
@example(([0.1, 0.2, 1.675], 1.725, [0.2, 1.675, 1.675]))   # on roots, one twice
@example(([1.0, 1.02], 2.0, [1.0, 1.0 + 1e-13, 1.02 - 2.220446049250313e-16]))
@example(([1.0, 1.02], 2.0, [1.0 + 128 * EPS, 1.02 - 128 * EPS * 1.02]))   # a gap's end on a root
@example(([0.5, 1.0], 2.0, [-1.0, 0.0, 2.0, 3.0]))          # outside (0, e_max]
@example(([0.5, 1.0], 2.0, []))
@settings(max_examples=300)
def test_seeds_move_no_float(case):
    # the solver's seeds move the brackets, never the reported floats: the
    # floats of the call without them, and of the fixed scan
    roots, e_max, seeds = case
    assume(min(roots) >= min(0.1, e_max / 30))
    fn, count = polynomial(roots)
    try:
        plain = bracket_and_bisect(fn, count, e_max, 0.1, 1e-13)
    except ScanResolutionError:
        assume(False)
    asked = []
    assert bracket_and_bisect(fn, count, e_max, 0.1, 1e-13,
                              lambda: asked.append(1) or np.array(seeds)) == plain
    assert asked == [1]
    try:
        expected = reference_roots(fn, count, e_max, 0.1, 1e-13)
    except ScanResolutionError:
        return
    if len(expected) == len(roots):
        assert plain == expected


@st.composite
def certified_roots(draw):
    """1-6 roots, 1e-9 relative apart or more, and a cutoff: roots below
    E = 1, where the tolerance is absolute, roots on scan points k * 0.1, and
    roots in the last cell, which the cutoff clips short of a scan point."""
    e_max = draw(st.floats(0.35, 3.0).filter(lambda e: e / 0.1 % 1.0 > 0.01))
    lowest = min(0.1, e_max / 30)
    last = 0.1 * math.floor(e_max / 0.1)
    root = st.one_of(st.floats(lowest, min(1.0, e_max), exclude_min=True),
                     st.integers(2, math.floor(e_max / 0.1)).map(lambda k: k * 0.1),
                     st.floats(last, e_max, exclude_min=True),
                     st.floats(lowest, e_max, exclude_min=True))
    roots = sorted(draw(st.lists(root, min_size=1, max_size=6, unique=True)))
    assume(all(r1 - r0 > 1e-9 * r1 for r0, r1 in zip(roots, roots[1:])))
    return roots, e_max


@given(certified_roots())
@example(([0.15, 0.2, 0.95], 1.0 - 1e-3))     # absolute tolerance; a root on a scan point
@example(([1.7, 2.04], 2.05))                 # a root in the last cell, clipped at e_max
@settings(max_examples=300)
def test_certified_brackets_replay_the_fixed_scan(case):
    # seeds on the roots: the count certifies each within 128 to 256 ulp, far
    # narrower than one tolerance, and the replay's budgeted plain halvings
    # reach the scan's floats on either side of the tolerance's kink at E = 1
    roots, e_max = case
    fn, count = polynomial(roots)
    lo, hi, *_ = _isolate(count, e_max, 0.1, 1e-13, lambda: np.array(roots))
    assert lo.size == len(roots)
    inside = hi < e_max
    assert (hi - lo <= 2.5 * 128 * EPS * hi)[inside].all()
    try:
        expected = reference_roots(fn, count, e_max, 0.1, 1e-13)
    except ScanResolutionError:
        assume(False)
    assume(len(expected) == len(roots))   # a zero on e_max can blind the scan's last cell
    for narrow in REPLAY_PATHS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_rootscan, "_NARROW", narrow)
            found = bracket_and_bisect(fn, count, e_max, 0.1, 1e-13, lambda: np.array(roots))
        assert found == expected


@pytest.mark.parametrize("spec, e_max, missed", [
    # level 19,114 at E/v0 = 1.0000186, the worst seed known, 57 ulp from its
    # root (J = 6e4 rad): 128 eps x certifies it, where 64 eps x missed it
    (WellSpec(5514.194750867007, 0.0010162262620467656, 118.58520086086388), 200.0, False),
    # level 484 at E/v0 = 1.03: its seed lies 4.3e-9 relative from the root
    (WellSpec(1420.5803233328522, 2.0607432495133406, 1.1101579790856657),
     2.476065344420603, True),
], ids=["24822 levels, certified", "712 levels, one missed"])
def test_a_missed_seed_is_polished_to_the_same_floats(spec, e_max, missed, monkeypatch):
    # a seed whose gap misses its level leaves it to the polish, which makes
    # passes before the replay; the floats are those of the policy without
    # seeds, on either replay path
    before_replay, replaying = [], []
    replay = _Brackets.replay

    def traced(self, *args):
        replaying.append(True)
        return replay(self, *args)

    def policy(fn, *args):
        def counted(es):
            if not replaying:
                before_replay.append(es.size)
            return fn(es)
        return bracket_and_bisect(counted, *args)

    monkeypatch.setattr(_Brackets, "replay", traced)
    monkeypatch.setattr(spectrum, "bracket_and_bisect", policy)
    for narrow in REPLAY_PATHS:
        monkeypatch.setattr(_rootscan, "_NARROW", narrow)
        before_replay.clear()
        replaying.clear()
        levels = [state.energy for state in spectrum.find_spectrum(spec, e_max)]
        assert bool(before_replay) == missed
        assert levels == bracket_and_bisect(lambda es: spectrum._characteristic_many(spec, es),
                                            lambda es: spectrum._count_below(spec, es), e_max,
                                            scan_step(spec.a, spec.b), spectrum._BISECT_TOL)


@pytest.mark.parametrize("roots", [[0.5], [5.0]], ids=["refused", "empty"])
def test_seeds_past_the_scan_reach_never_asked_for(roots):
    # past the reach the count sees only its 31 probes, whether it refuses
    # the levels it finds or finds none, and the seeds are never computed
    fn, count = polynomial(roots)
    traced, sizes = calls_of(count)
    asked = []

    def seeds():
        asked.append(1)
        return np.linspace(0.1, 2.0, 50)

    if roots[0] < 2.0:
        with pytest.raises(ValueError, match="past the fixed scan's reach"):
            bracket_and_bisect(fn, traced, 2.0, 1e-16, 1e-13, seeds)
    else:
        assert bracket_and_bisect(fn, traced, 2.0, 1e-16, 1e-13, seeds) == []
    assert sizes == [31]
    assert asked == []


def policy_pair(module, solve):
    """The fn and count that ``module``'s solver, called by ``solve``, hands the
    root policy; the policy is stubbed out to find no roots."""
    pair = []

    def capture(fn, count, *args):
        pair.append((fn, count))
        return []

    policy = module.bracket_and_bisect
    module.bracket_and_bisect = capture
    try:
        solve()
    finally:
        module.bracket_and_bisect = policy
    return pair[0]


def parity_mismatches(fn, count, levels, neighbours=()):
    """Energies where fn is nonzero and the count's parity is not its sign, or
    where the count hands over another value of fn: each level times
    1 + k 2e-13 for |k| <= 200, and the energies in ``neighbours``."""
    e = np.concatenate([np.outer(levels, 1.0 + 2e-13 * np.arange(-200, 201)).ravel(),
                        np.asarray(neighbours, dtype=float)])
    f, (n, f_count) = fn(e), count(e)
    bad = ((f != 0.0) & ((n % 2 == 1) != (f < 0.0))) | (f_count != f)
    return e[bad].tolist()


@given(a=st.floats(0.5, 10.0), b=st.floats(0.5, 10.0), v0=st.floats(0.0, 1000.0),
       e_max=st.floats(1.0, 300.0))
@example(a=3.0, b=3.0, v0=20.0, e_max=100.0)
@settings(max_examples=60)
def test_closed_form_count_parity_is_the_sign_of_fn(a, b, v0, e_max):
    # the policy reads a level's side of a probe from either; they must agree
    # at every float, also within rounding of a level, where both can flip
    spec = WellSpec(a, b, v0)
    levels = np.array([s.energy for s in spectrum.find_spectrum(spec, e_max)])
    fn, count = policy_pair(spectrum, lambda: spectrum.find_spectrum(spec, e_max))
    # the floats next to each root, 8 on either side
    neighbours = (levels[:, None] + np.arange(-8, 9) * np.spacing(levels)[:, None]).ravel()
    assert parity_mismatches(fn, count, levels, neighbours) == []


@pytest.mark.parametrize("spec, e_max", [
    (WellSpec(3.0, 3.0, 20.0, Exponential(0.2)), 41.75),
    (WellSpec(2.0, 5.0, 300.0, Linear(0.4)), 100.0),
    (WellSpec(3.0, 3.0, 20.0), 100.0),
], ids=["sigmoid", "ramp", "sharp"])
def test_numerov_count_parity_is_the_sign_of_fn(spec, e_max):
    levels = np.array([s.energy for s in shooting.find_spectrum_numeric(spec, e_max, 4000)])
    fn, count = policy_pair(shooting, lambda: shooting.find_spectrum_numeric(spec, e_max, 4000))
    assert parity_mismatches(fn, count, levels) == []


# sha256 over every energy array the closed-form solver hands to fn and to
# count, tagged and in call order, recorded once the count handed over fn at
# its probes, from the scan's first cell to e_max itself, the polish handed
# over at 8 tolerances and bisected a stalled bracket, the count's one call
# took, next to its 31 probes, only the pair E_n -+ 128 eps E_n around each
# level's Pruefer-phase seed, with fn the characteristic itself, and the
# replay took each root's budget of plain halvings in bulk; the same on
# either replay path
CALL_LOG_SHA256 = {
    (3.0, 3.0, 20.0, 100.0):
        "6a2238b853427ff687295bdc507e276f653bd1462c3a277d656bec670dfb450a",
    (2.0, 4.0, 60.0, 300.0):
        "a52bb60cf7acf754d392eee12bca048e944a6ad44d0c1d6e77e9397200b61cf5",
    (1.0, 1.0, 100.0, 1e4):
        "693a0f4c0822472f1f669b7a68711d7bc5d9272bdb79ccdd85fb3806adc68650",
}


@pytest.mark.parametrize("well", list(CALL_LOG_SHA256))
def test_closed_form_calls_see_the_same_energies(well, monkeypatch):
    def logged(tag, f):
        def call(es):
            digest.update(tag + np.ascontiguousarray(es, dtype=float).tobytes())
            return f(es)
        return call

    def policy(fn, count, *args):
        return bracket_and_bisect(logged(b"fn", fn), logged(b"count", count), *args)

    monkeypatch.setattr(spectrum, "bracket_and_bisect", policy)
    a, b, v0, e_max = well
    for narrow in REPLAY_PATHS:
        monkeypatch.setattr(_rootscan, "_NARROW", narrow)
        digest = hashlib.sha256()
        assert spectrum.find_spectrum(WellSpec(a, b, v0), e_max)
        assert digest.hexdigest() == CALL_LOG_SHA256[well]


# the same log for the Numerov route, whose fn and count both run Numerov
# sweeps from b, recorded from the renormalized kernel; 1000 cells keep it fast
NUMEROV_CALL_LOG_SHA256 = {
    (WellSpec(3.0, 3.0, 20.0, Exponential(0.2)), 100.0):
        "67edd345bca12494d842c6abd61a51d339a87951bf0138d53bbb94cffc384af6",
    (WellSpec(3.0, 3.0, 60.0), 30.0):
        "d411a92c0b30a8f8e3e902dbdda30e3a57e40ff14172bd0d1844c0c96349f7e4",
}


@pytest.mark.parametrize("well", list(NUMEROV_CALL_LOG_SHA256), ids=["sigmoid", "step-60"])
def test_numerov_calls_see_the_same_energies(well, monkeypatch):
    def logged(tag, f):
        def call(es):
            digest.update(tag + np.ascontiguousarray(es, dtype=float).tobytes())
            return f(es)
        return call

    def policy(fn, count, *args):
        return bracket_and_bisect(logged(b"fn", fn), logged(b"count", count), *args)

    monkeypatch.setattr(shooting, "bracket_and_bisect", policy)
    spec, e_max = well
    for narrow in REPLAY_PATHS:
        monkeypatch.setattr(_rootscan, "_NARROW", narrow)
        digest = hashlib.sha256()
        assert shooting.find_spectrum_numeric(spec, e_max, 1000)
        assert digest.hexdigest() == NUMEROV_CALL_LOG_SHA256[well]


@given(a=st.floats(min_value=1e-300, max_value=1e308),
       b=st.floats(min_value=1e-300, max_value=1e308))
@example(a=1e200, b=1.0)
@example(a=1e-300, b=1e-300)
def test_scan_step_never_raises(a, b):
    # the same float as the formula wherever (a + b)**2 is finite and nonzero,
    # the cap 0.1 where it underflows, and 0 past the float range
    try:
        expected = min(0.1, math.pi**2 / (2.0 * (a + b) ** 2))
    except ZeroDivisionError:
        expected = 0.1
    except OverflowError:
        expected = 0.0
    assert scan_step(a, b) == expected
