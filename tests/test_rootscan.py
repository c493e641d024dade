"""Shared root policy: count brackets, secant polish, the replayed scan and its failures, on synthetic roots."""
import numpy as np
import pytest

from asymwell import ScanResolutionError
from asymwell._rootscan import bracket_and_bisect
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


def test_root_exactly_on_a_count_probe():
    # fn vanishes on the probe 2 * 15 / 30 = 1.0, an end of two brackets; the
    # level inside the other bracket must still be found
    fn, count = polynomial([0.5, 1.0, 1.02])
    roots = bracket_and_bisect(fn, count, 2.0, 0.1, 1e-13)
    assert roots == reference_roots(fn, count, 2.0, 0.1, 1e-13)
    assert roots == pytest.approx([0.5, 1.0, 1.02], rel=1e-12)
