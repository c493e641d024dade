"""Shared root policy: scan, count check, refinement and its failure, on synthetic roots."""
import numpy as np
import pytest

from asymwell import ScanResolutionError
from asymwell._rootscan import _MAX_REFINES, bracket_and_bisect


def polynomial(roots):
    """fn with simple zeros at ``roots`` and its exact count of roots below E."""
    def fn(es):
        return np.prod([es - r for r in roots], axis=0)

    def count(e):
        return sum(r < e for r in roots)

    return fn, count


def scans_of(fn):
    """fn, recording the size of every call larger than a bisection round."""
    sizes = []

    def traced(es):
        if es.size > 3:
            sizes.append(es.size)
        return fn(es)

    return traced, sizes


def test_isolated_roots_found_on_the_first_scan():
    fn, count = polynomial([0.33, 1.47, 2.71])
    traced, sizes = scans_of(fn)
    roots = bracket_and_bisect(traced, count, 3.0, 0.1, 1e-13)
    assert roots == pytest.approx([0.33, 1.47, 2.71], rel=1e-12)
    assert sizes == [30]


def test_roots_sharing_a_scan_cell_are_recovered_by_refinement():
    # 1.02 and 1.07 both lie in the cell (1.0, 1.1): no sign change at step 0.1
    fn, count = polynomial([0.55, 1.02, 1.07])
    traced, sizes = scans_of(fn)
    roots = bracket_and_bisect(traced, count, 2.0, 0.1, 1e-13)
    assert roots == pytest.approx([0.55, 1.02, 1.07], rel=1e-12)
    assert sizes == [20, 200]  # one 10x finer rescan


def test_root_at_the_cutoff_counts_on_either_side():
    # fn and count place the second root 1e-10 apart, as the two Numerov
    # integrations can; a cutoff between the two must not read as a missed root
    fn, _ = polynomial([0.5, 1.0])
    _, count = polynomial([0.5, 1.0 + 1e-10])
    roots = bracket_and_bisect(fn, count, 1.0 + 5e-11, 0.1, 1e-13)
    assert roots == pytest.approx([0.5, 1.0], rel=1e-12)


def test_pair_closer_than_the_finest_step_raises():
    # 5e-6 apart, well inside one cell of the finest step 0.1 / 10**_MAX_REFINES
    fn, count = polynomial([0.5, 1.04321, 1.043215])
    with pytest.raises(ScanResolutionError) as err:
        bracket_and_bisect(fn, count, 2.0, 0.1, 1e-13)
    message = str(err.value)
    assert "found 1 roots in (0, 2]" in message
    assert "Sturm count is 3" in message
    assert f"scan step {0.1 / 10**_MAX_REFINES:.3e}" in message


def test_spurious_root_raises():
    # the count admits one root, the scan keeps finding two at every step
    fn, _ = polynomial([0.5, 1.5])
    with pytest.raises(ScanResolutionError, match="found 2 roots .* Sturm count is 1"):
        bracket_and_bisect(fn, lambda e: 1, 2.0, 0.1, 1e-13)
