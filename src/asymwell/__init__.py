"""Bound states of a hard-walled well with a stepped floor, and everything the
step does to them: closed-form spectra, classical comparisons, probability
bounds, a Numerov shooting solver for smoothed variants, and exact
momentum-space densities.  Natural units hbar = 2m = 1.

Every name here, and every submodule, loads its module on first use, so
``import asymwell`` loads no numpy and a run compiles only what it uses.
"""
import importlib

__version__ = "0.1.0"

# submodule -> the names it exports here, resolved by __getattr__
_EXPORTS = {
    "bounds": ("BoundPair", "bounds_at"),
    "classical": ("ClassicalModel", "classical_density", "classical_model"),
    "momentum": ("MomentumDensity", "density_series", "peak_separation", "phi"),
    "potential": ("Exponential", "Linear", "WellSpec", "evaluate", "match_smoothings", "sample"),
    "shooting": ("GridSolution", "NodeCountError", "find_spectrum_numeric", "shoot",
                 "side_probability_numeric"),
    "spectrum": ("EigenState", "MatchClass", "MatchKind", "ScanResolutionError",
                 "characteristic", "classify_matching", "find_spectrum", "normalize", "psi",
                 "side_probabilities"),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names) + ["__version__"]


def __getattr__(name: str):
    for module, names in _EXPORTS.items():
        if name == module or name in names:
            loaded = importlib.import_module(f".{module}", __name__)
            return loaded if name == module else getattr(loaded, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
