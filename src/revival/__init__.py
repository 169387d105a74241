"""Desk-scale simulations of wave packet revivals: 1D/2D bound-state
spectra, autocorrelation functions, fractional-revival amplitude algebra,
phase-space and carpet rasters, and the cavity-QED / condensate analogs.

The exported names and the submodules load on first access (PEP 562), so
importing the package, or one submodule, compiles only what is used.
"""

import importlib

__version__ = "0.1.0"

# exported name -> defining submodule
_EXPORTS = {
    "AxisSpec": "wavefields",
    "CoefficientSet": "packets",
    "CoefficientSet2D": "packets",
    "CoherentState": "analogs",
    "FieldGrid": "wavefields",
    "GaussSumTable": "fractional",
    "JCParams": "analogs",
    "ObservableSeries": "wavefields",
    "PacketParams1D": "packets",
    "Spectrum1D": "spectra",
    "TimeScales": "spectra",
    "TimeSeries": "dynamics",
    "UnitSystem": "spectra",
}

_SUBMODULES = frozenset({
    "analogs", "billiards", "cli", "dynamics", "errors", "fractional", "packets",
    "serialize", "specfun", "spectra", "wavefields",
})

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
