"""Shared root policy: count brackets, secant polish, the replayed scan and its failures, on
synthetic roots; and the energies both solvers hand it, call for call."""
import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from asymwell import Exponential, ScanResolutionError, WellSpec, shooting, spectrum
from asymwell._rootscan import bracket_and_bisect, scan_step
from oracles import reference_roots


def polynomial(roots):
    """fn with simple zeros at ``roots`` and its exact count of roots below E."""
    def fn(es):
        return np.prod([es - r for r in roots], axis=0)

    def count(e):
        return sum(r < e for r in roots)

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
    # the bracket ends and e_max once, then at most one energy per root a
    # call; the fixed scan took 30 energies and then 40 bisection calls
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


def test_root_at_the_cutoff_counts_on_either_side():
    # fn and count place the second root 1e-10 apart, as the two Numerov
    # integrations can; a cutoff between the two must not read as a missed root
    fn, _ = polynomial([0.5, 1.0])
    _, count = polynomial([0.5, 1.0 + 1e-10])
    roots = bracket_and_bisect(fn, count, 1.0 + 5e-11, 0.1, 1e-13)
    assert roots == pytest.approx([0.5, 1.0], rel=1e-12)


@pytest.mark.parametrize("roots, expected", [([0.5, 1.0], [0.5, 1.0]),
                                             ([0.33, 2.0], [0.32999999999997237, 2.0])])
def test_root_exactly_at_the_cutoff_is_reported(roots, expected):
    # fn(e_max) is exactly 0, so the bracket holding e_max closes on it
    fn, count = polynomial(roots)
    assert bracket_and_bisect(fn, count, roots[-1], 0.1, 1e-13) == expected
    assert expected == reference_roots(fn, count, roots[-1], 0.1, 1e-13)


def test_only_level_past_the_cutoff_leaves_nothing():
    # the count puts the level below the cutoff, fn puts it above
    fn, _ = polynomial([1.0])
    _, count = polynomial([1.0 - 1e-10])
    assert bracket_and_bisect(fn, count, 1.0 - 5e-11, 0.1, 1e-13) == []


def test_pair_closer_than_three_refinements_resolves():
    # 5e-6 apart, inside one cell of 0.1 / 10**3, where the fixed scan gave up;
    # the count separates them and the cells refine until each has its own
    fn, count = polynomial([0.5, 1.04321, 1.043215])
    with pytest.raises(ScanResolutionError):
        reference_roots(fn, count, 2.0, 0.1, 1e-13)
    roots = bracket_and_bisect(fn, count, 2.0, 0.1, 1e-13)
    assert roots == pytest.approx([0.5, 1.04321, 1.043215], rel=1e-12)


def test_spurious_root_raises():
    # the count places a level at 1.0, where fn keeps its sign
    fn, _ = polynomial([0.5, 1.5])
    _, count = polynomial([0.5, 1.0, 1.5])
    with pytest.raises(ScanResolutionError) as err:
        bracket_and_bisect(fn, count, 2.0, 0.1, 1e-13)
    message = str(err.value)
    assert "places level 2 in [" in message
    assert "N(lo) = 1, N(hi) = 2, sign fn(lo) = -1, sign fn(hi) = -1" in message


@pytest.mark.parametrize("fn_root, count_root", [(1.0 + 1e-12, 1.0 - 1e-12),
                                                  (1.0 - 1e-12, 1.0 + 1e-12)],
                         ids=["count-first", "fn-first"])
def test_level_on_a_probe_resolves(fn_root, count_root):
    # e_max = 2 puts a probe on 1.0, where count and fn round the level to
    # opposite sides: moving the probe up by the edge margin resolves either way
    fn, _ = polynomial([0.5, fn_root])
    _, count = polynomial([0.5, count_root])
    roots = bracket_and_bisect(fn, count, 2.0, 0.1, 1e-13)
    assert roots == pytest.approx([0.5, fn_root], rel=1e-12)


def test_level_below_the_lowest_probe_raises():
    # the count claims a level in [0, e_max * 1e-9], which no bracket can hold
    fn, _ = polynomial([0.5])
    with pytest.raises(ScanResolutionError, match=re.escape(
            "places 1 level(s) in [0, 2e-09], below the lowest probe: N(hi) = 1")):
        bracket_and_bisect(fn, lambda e: np.ones(np.shape(e), dtype=int), 2.0, 0.1, 1e-13)


def test_level_below_the_lowest_probe_solves():
    # the level at 1e-10 lies below the lowest probe, e_max * 1e-9 = 2e-9, and the
    # count is probed further down until it reads 0
    roots = bracket_and_bisect(lambda e: e - 1e-10, lambda e: (e > 1e-10).astype(int),
                               2.0, 0.1, 1e-13)
    assert roots == pytest.approx([1e-10], rel=0, abs=1e-13)


def test_decreasing_count_raises():
    # a level that the count gains at 0.5 and loses again at 1.5
    fn, _ = polynomial([0.5])
    with pytest.raises(ScanResolutionError, match=re.escape(
            "decreases across [1.46666667, 1.53333333]: N(lo) = 1, N(hi) = 0")):
        bracket_and_bisect(fn, lambda e: (e > 0.5).astype(int) - (e > 1.5), 2.0, 0.1, 1e-13)


def test_levels_that_cannot_be_separated_raise():
    # a double level at 1.0: the gap holding it narrows to adjacent floats
    fn, _ = polynomial([1.0, 1.0])
    with pytest.raises(ScanResolutionError, match=re.escape(
            "cannot separate the levels in [1, 1]: N(lo) = 0, N(hi) = 2")):
        bracket_and_bisect(fn, lambda e: 2 * (e > 1.0), 2.0, 0.1, 1e-13)


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
        bracket_and_bisect(fn, lambda e: np.where(e > 1.0, 2.0**54, 0.0), 2.0, 0.1, 1e-13)


def test_cutoff_past_the_scan_reach_refused():
    # cells below 4 eps e_max cannot step the scan's grid, whatever the brackets
    fn, count = polynomial([0.5])
    with pytest.raises(ValueError, match=re.escape(
            "e_max=2.0 is past the fixed scan's reach: its cell 1.000e-16 is below "
            "4 eps e_max = 1.776e-15")):
        bracket_and_bisect(fn, count, 2.0, 1e-16, 1e-13)


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
@settings(max_examples=300)
def test_narrow_brackets_replay_the_fixed_scan(case):
    # the bulk approach assumes each scan cell holds its polished bracket,
    # wider than the tolerance; near cell edges and in clusters it is narrowest
    roots, e_max = case
    fn, count = polynomial(roots)
    try:
        expected = reference_roots(fn, count, e_max, 0.1, 1e-13)
    except ScanResolutionError:
        expected = []   # the fixed scan gave up
    # a zero on the cutoff blinds the cell below it, where the scan may lose a root
    complete = len(expected) == len(roots)
    try:
        found = bracket_and_bisect(fn, count, e_max, 0.1, 1e-13)
    except ScanResolutionError:
        assert not complete, "the policy gave up where the fixed scan found every root"
        return
    assert len(found) == len(roots)
    assert all(abs(f - r) <= 1e-13 * max(1.0, r) for f, r in zip(found, sorted(roots)))
    if complete:
        assert found == expected


# sha256 over every energy array the closed-form solver hands to fn and to
# count, tagged and in call order, recorded once the polish handed over at 8
# tolerances and bisected a stalled bracket
CALL_LOG_SHA256 = {
    (3.0, 3.0, 20.0, 100.0):
        "4856c35dfb4aa647b342cb329c3eee1613806f5edba08b56312ebdd60e9627e9",
    (2.0, 4.0, 60.0, 300.0):
        "13bc1c67f0e2e103508fe9554050f243f96e3bd0e312d7cb5581d41fb71c2d15",
    (1.0, 1.0, 100.0, 1e4):
        "3324649e96374f382d20f55af9255ed58b7fb3127f4687009e760d104a946543",
}


@pytest.mark.parametrize("well", list(CALL_LOG_SHA256))
def test_closed_form_calls_see_the_same_energies(well, monkeypatch):
    digest = hashlib.sha256()

    def logged(tag, f):
        def call(es):
            digest.update(tag + np.ascontiguousarray(es, dtype=float).tobytes())
            return f(es)
        return call

    def policy(fn, count, *args):
        return bracket_and_bisect(logged(b"fn", fn), logged(b"count", count), *args)

    monkeypatch.setattr(spectrum, "bracket_and_bisect", policy)
    a, b, v0, e_max = well
    assert spectrum.find_spectrum(WellSpec(a, b, v0), e_max)
    assert digest.hexdigest() == CALL_LOG_SHA256[well]


# the same log for the Numerov route, whose fn and count both run Numerov
# sweeps; 1000 cells keep it fast
NUMEROV_CALL_LOG_SHA256 = {
    (WellSpec(3.0, 3.0, 20.0, Exponential(0.2)), 100.0):
        "39a8e8b58395f127651b54b856b0a3c0246e9f6456c49a43abcebb24ec58cec2",
    (WellSpec(3.0, 3.0, 60.0), 30.0):
        "d854af66423d4840c393d71d1885b4578e030b626ed32df1351a0340b4637540",
}


@pytest.mark.parametrize("well", list(NUMEROV_CALL_LOG_SHA256), ids=["sigmoid", "step-60"])
def test_numerov_calls_see_the_same_energies(well, monkeypatch):
    digest = hashlib.sha256()

    def logged(tag, f):
        def call(es):
            digest.update(tag + np.ascontiguousarray(es, dtype=float).tobytes())
            return f(es)
        return call

    def policy(fn, count, *args):
        return bracket_and_bisect(logged(b"fn", fn), logged(b"count", count), *args)

    monkeypatch.setattr(shooting, "bracket_and_bisect", policy)
    spec, e_max = well
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
