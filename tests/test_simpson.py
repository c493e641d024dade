"""The package's Simpson rule against scipy's, bit for bit, on the grids the
package integrates over: the shooting grids, their left-half slices and the
wavefunction sample grids."""
import numpy as np
import pytest
from scipy.integrate import simpson as scipy_simpson

from asymwell import WellSpec
from asymwell._simpson import simpson
from asymwell.shooting import _stable_grid


def _integrands(xs: np.ndarray) -> list[np.ndarray]:
    rng = np.random.default_rng(xs.size)
    width = xs[-1] - xs[0]
    smooth = np.sin(7.0 * np.pi * (xs - xs[0]) / width) ** 2
    return [smooth, smooth * np.exp(-xs), rng.random(xs.size), rng.standard_normal(xs.size)]


def _assert_same(xs: np.ndarray) -> None:
    for ys in _integrands(xs):
        assert simpson(ys, xs) == float(scipy_simpson(ys, x=xs))


@pytest.mark.parametrize("a, b", [(3.0, 3.0), (2.0, 4.3), (2.5, 3.5), (4.1, 1.7)])
@pytest.mark.parametrize("n_grid", [4000, 2000])
def test_shooting_grids_and_left_halves(a, b, n_grid):
    xs = _stable_grid(WellSpec(a, b, 20.0), n_grid).xs
    _assert_same(xs)
    # the slice side_probability_numeric integrates
    iz = int(np.searchsorted(xs, 0.0, side="right")) - 1
    _assert_same(xs[: iz + 1])


def test_left_halves_cover_both_parities():
    counts = set()
    for a, b in [(3.0, 3.0), (2.0, 4.3)]:
        xs = _stable_grid(WellSpec(a, b, 20.0), 4000).xs
        counts.add(int(np.searchsorted(xs, 0.0, side="right")) % 2)
    assert counts == {0, 1}


@pytest.mark.parametrize("samples", [5, 6, 201, 602, 800, 801, 1000])
@pytest.mark.parametrize("a, b", [(3.0, 3.0), (2.0, 4.3)])
def test_wavefunction_sample_grids(a, b, samples):
    _assert_same(np.linspace(-a, b, samples))


@pytest.mark.parametrize("xs", [[0.0, 0.3], [-1.0, 0.25], [0.0, 0.3, 0.7], [-2.0, -0.5, 1.5]])
def test_two_and_three_points(xs):
    _assert_same(np.asarray(xs))


def test_exact_on_polynomials():
    xs = np.linspace(-1.0, 2.0, 11)
    assert simpson(xs**3, xs) == pytest.approx((2.0**4 - 1.0) / 4.0, rel=1e-14)
    uneven = np.array([0.0, 0.1, 0.4, 0.5, 1.0, 1.2])
    assert simpson(uneven**2, uneven) == pytest.approx(1.2**3 / 3.0, rel=1e-14)
