"""Shared root policy: count brackets, secant polish, the replayed scan and its failures, on
synthetic roots; and the energies both solvers hand it, call for call."""
import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

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


def test_level_below_the_lowest_probe_raises():
    # the count claims a level in [0, e_max * 1e-9], which no bracket can hold
    fn, _ = polynomial([0.5])
    with pytest.raises(ScanResolutionError, match=re.escape(
            "places 1 level(s) in [0, 2e-09], below the lowest probe: N(hi) = 1")):
        bracket_and_bisect(fn, lambda e: np.ones(np.shape(e), dtype=int), 2.0, 0.1, 1e-13)


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


# sha256 over every energy array the closed-form solver hands to fn and to
# count, tagged and in call order, recorded before the array state solve and
# the C-level reductions of the polish and replay loops
CALL_LOG_SHA256 = {
    (3.0, 3.0, 20.0, 100.0):
        "faaccb4f756e3515a5760abef2a0842645fc1b702bee70f37ec235b53749c6b3",
    (2.0, 4.0, 60.0, 300.0):
        "6266270ac9bd11078e72b745854e5a883c84dfe87b66a89c83d90d6ccf8a1218",
    (1.0, 1.0, 100.0, 1e4):
        "ed8a4a81867066431dbd804a9df94808ebd3c1074738987179a9d2a8bbd0003d",
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
        "7d8b405eb321085b9281d9fddd11b33a023863393d30b06a527761273dfe4ddd",
    (WellSpec(3.0, 3.0, 60.0), 30.0):
        "3b5f4ebbb1be9e63e3c579afb2a0bb971c7ca0f1ae4129f0f6a43341315e31f6",
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
