"""Bound states of a hard-walled well with a stepped floor, and everything the
step does to them: closed-form spectra, classical comparisons, probability
bounds, a Numerov shooting solver for smoothed variants, and exact
momentum-space densities.  Natural units hbar = 2m = 1.
"""
from .bounds import BoundPair, bounds_at
from .classical import ClassicalModel, classical_density, classical_model
from .momentum import MomentumDensity, density_series, peak_separation, phi
from .potential import Exponential, Linear, WellSpec, evaluate, match_smoothings, sample
from .shooting import (
    GridSolution,
    NodeCountError,
    find_spectrum_numeric,
    shoot,
    side_probability_numeric,
)
from .spectrum import (
    EigenState,
    MatchClass,
    MatchKind,
    ScanResolutionError,
    characteristic,
    classify_matching,
    find_spectrum,
    normalize,
    psi,
    side_probabilities,
)

__version__ = "0.1.0"

__all__ = [
    "BoundPair",
    "ClassicalModel",
    "EigenState",
    "Exponential",
    "GridSolution",
    "Linear",
    "MatchClass",
    "MatchKind",
    "MomentumDensity",
    "NodeCountError",
    "ScanResolutionError",
    "WellSpec",
    "bounds_at",
    "characteristic",
    "classical_density",
    "classical_model",
    "classify_matching",
    "density_series",
    "evaluate",
    "find_spectrum",
    "find_spectrum_numeric",
    "match_smoothings",
    "normalize",
    "peak_separation",
    "phi",
    "psi",
    "sample",
    "shoot",
    "side_probabilities",
    "side_probability_numeric",
    "__version__",
]
