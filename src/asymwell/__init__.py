"""Bound states of a hard-walled well with a stepped floor, and everything the
step does to them: closed-form spectra, classical comparisons, probability
bounds, a Numerov shooting solver for smoothed variants, and exact
momentum-space densities.  Natural units hbar = 2m = 1.

The shooting solver and the momentum transform load on first use of one of
their names, so a closed-form run never compiles them.
"""
import importlib

from .bounds import BoundPair, bounds_at
from .classical import ClassicalModel, classical_density, classical_model
from .potential import Exponential, Linear, WellSpec, evaluate, match_smoothings, sample
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

# submodule -> the names it exports here, resolved by __getattr__
_ON_FIRST_USE = {
    "momentum": ("MomentumDensity", "density_series", "peak_separation", "phi"),
    "shooting": ("GridSolution", "NodeCountError", "find_spectrum_numeric", "shoot",
                 "side_probability_numeric"),
}

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


def __getattr__(name: str):
    for module, names in _ON_FIRST_USE.items():
        if name == module or name in names:
            loaded = importlib.import_module(f".{module}", __name__)
            return loaded if name == module else getattr(loaded, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
