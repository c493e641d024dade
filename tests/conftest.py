"""Shared fixtures: the standard well and its precomputed spectra."""
from __future__ import annotations

import pytest
from hypothesis import settings

from asymwell import Exponential, WellSpec, find_spectrum, find_spectrum_numeric

STANDARD = WellSpec(3.0, 3.0, 20.0)

# the same examples on every run, however long each takes
settings.register_profile("asymwell", derandomize=True, deadline=None)
settings.load_profile("asymwell")


@pytest.fixture(scope="session")
def standard_spec() -> WellSpec:
    return STANDARD


@pytest.fixture(scope="session")
def standard_states():
    """The nine bound states of the standard well below E = 35."""
    return find_spectrum(STANDARD, 35.0)


@pytest.fixture(scope="session")
def states_e100():
    """All 18 bound states of the standard well below E = 100."""
    return find_spectrum(STANDARD, 100.0)


@pytest.fixture(scope="session")
def numeric_step_e100():
    """Numerov spectrum of the sharp step below E = 100 at the default grid."""
    return find_spectrum_numeric(STANDARD, 100.0, 4000)


@pytest.fixture(scope="session")
def numeric_smooth_035():
    """Numerov spectrum of the delta = 0.2 sigmoid well below E = 35."""
    smooth = WellSpec(3.0, 3.0, 20.0, Exponential(0.2))
    return find_spectrum_numeric(smooth, 35.0, 4000)
