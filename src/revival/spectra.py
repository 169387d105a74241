"""Energy-level models for the 1D systems, with analytic derivatives in a
continuous quantum number, and the classical / revival / superrevival time
scale extraction."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import specfun
from .errors import DomainError, RangeError


@dataclass(frozen=True)
class UnitSystem:
    """Mechanical units. Defaults follow the common nominal choice
    hbar = 1, 2m = 1, L = 1."""

    hbar: float = 1.0
    mass: float = 0.5
    length: float = 1.0

    def __post_init__(self):
        if self.hbar <= 0 or self.mass <= 0 or self.length <= 0:
            raise DomainError("unit constants must be strictly positive")


DEFAULT_UNITS = UnitSystem()


@dataclass(frozen=True)
class TimeScales:
    """Characteristic times from successive derivatives of E(n); a
    component is +inf when the corresponding derivative vanishes."""

    t_classical: float
    t_revival: float
    t_super: float


def _airy_scale(p: dict, u: UnitSystem) -> float:
    # energy unit of the linear potential F z: (hbar^2 F^2 / 2m)^(1/3)
    return (u.hbar**2 * p["F"] ** 2 / (2 * u.mass)) ** (1.0 / 3.0)


def _pendulum_poly(p: dict, u: UnitSystem) -> list[float]:
    c = u.hbar / (32.0 * math.pi * p["inertia"])
    w0 = math.sqrt(p["V0"] / p["inertia"]) if p.get("V0", 0.0) > 0 else 0.0
    return [0.5 * c + w0 / (4.0 * math.pi), c + w0 / (2.0 * math.pi), c, 0.0]


# The model table: name -> (ground index, family, coefficients(params, units)).
#   "poly":  g_j with E(n) = 2 pi hbar sum_j g_j n^j
#   "power": (scale, offset, exponent) with E(n) = scale (n + offset)^exponent
#   "airy":  the energy unit that multiplies the Airy zeros y_n
_MODELS = {
    "AnharmonicPoly": (0.0, "poly", lambda p, u: [
        0.0, 1.0 / u.hbar, -p["alpha"] / (2.0 * u.hbar), p["beta"] / (6.0 * u.hbar)]),
    "InfiniteWell": (1.0, "poly", lambda p, u: [
        0.0, 0.0, u.hbar * math.pi / (4.0 * u.mass * p["L"] ** 2), 0.0]),
    "PowerLawWKB": (0.0, "power", lambda p, u: (p["scale"], p["offset"], p["exponent"])),
    "BouncerWKB": (0.0, "power", lambda p, u: (
        _airy_scale(p, u) * (1.5 * math.pi) ** (2.0 / 3.0), 0.75, 2.0 / 3.0)),
    "BouncerAiry": (0.0, "airy", _airy_scale),
    "Rotor2D": (0.0, "poly", lambda p, u: [0.0, 0.0, u.hbar / (4.0 * math.pi * p["inertia"]), 0.0]),
    "PendulumLowEnergy": (0.0, "poly", _pendulum_poly),
    "Harmonic": (0.0, "poly", lambda p, u: [
        0.5 * p["omega"] / (2.0 * math.pi), p["omega"] / (2.0 * math.pi), 0.0, 0.0]),
    "CoulombRydberg": (1.0, "power", lambda p, u: (-p["r_eff"], 0.0, -2.0)),
}

# Classical period coefficient for hydrogen-like levels, seconds * n^-3.
RYDBERG_PERIOD_SECONDS = 1.52e-16


@dataclass(frozen=True)
class Spectrum1D:
    """An energy-eigenvalue model E(n) with analytic derivatives
    (tabulated for BouncerAiry). Immutable after construction."""

    model: str
    params: dict = field(default_factory=dict)
    units: UnitSystem = DEFAULT_UNITS

    def __post_init__(self):
        if self.model not in _MODELS:
            raise DomainError(f"unknown spectrum model {self.model!r}")
        object.__setattr__(self, "params", dict(self.params))

    # -- factories ------------------------------------------------------

    @staticmethod
    def anharmonic(alpha: float, beta: float, units: UnitSystem = DEFAULT_UNITS) -> "Spectrum1D":
        """E(n) = 2*pi*(n - alpha n^2/2 + beta n^3/6)."""
        return Spectrum1D("AnharmonicPoly", {"alpha": alpha, "beta": beta}, units)

    @staticmethod
    def case_a(units: UnitSystem = DEFAULT_UNITS) -> "Spectrum1D":
        return Spectrum1D.anharmonic(1.0 / 800.0, 0.0, units)

    @staticmethod
    def case_b(units: UnitSystem = DEFAULT_UNITS) -> "Spectrum1D":
        return Spectrum1D.anharmonic(1.0 / 800.0, 2.0e-6, units)

    @staticmethod
    def infinite_well(L: float = 1.0, units: UnitSystem = DEFAULT_UNITS) -> "Spectrum1D":
        return Spectrum1D("InfiniteWell", {"L": L}, units)

    @staticmethod
    def bouncer_wkb(F: float = 1.0, units: UnitSystem = DEFAULT_UNITS) -> "Spectrum1D":
        return Spectrum1D("BouncerWKB", {"F": F}, units)

    @staticmethod
    def bouncer_airy(F: float = 1.0, units: UnitSystem = DEFAULT_UNITS) -> "Spectrum1D":
        return Spectrum1D("BouncerAiry", {"F": F}, units)

    @staticmethod
    def rotor(inertia: float, units: UnitSystem = DEFAULT_UNITS) -> "Spectrum1D":
        return Spectrum1D("Rotor2D", {"inertia": inertia}, units)

    @staticmethod
    def pendulum(inertia: float, V0: float = 0.0, units: UnitSystem = DEFAULT_UNITS) -> "Spectrum1D":
        """Free-rotor kinetic ladder plus the quadratic low-energy
        correction hbar^2 (2n^2 + 2n + 1)/(32 I); the optional V0 adds the
        harmonic ladder sqrt(V0/I)*hbar*(n + 1/2)."""
        return Spectrum1D("PendulumLowEnergy", {"inertia": inertia, "V0": V0}, units)

    @staticmethod
    def harmonic(omega: float, units: UnitSystem = DEFAULT_UNITS) -> "Spectrum1D":
        return Spectrum1D("Harmonic", {"omega": omega}, units)

    @staticmethod
    def rydberg(units: UnitSystem = DEFAULT_UNITS, r_eff: float | None = None) -> "Spectrum1D":
        """E(n) = -R_eff / n^2. The default R_eff makes the classical
        period exactly 1.52e-16 s * n^3 when times are read in seconds."""
        if r_eff is None:
            r_eff = math.pi * units.hbar / RYDBERG_PERIOD_SECONDS
        return Spectrum1D("CoulombRydberg", {"r_eff": r_eff}, units)

    # -- evaluation ------------------------------------------------------

    @property
    def ground_index(self) -> float:
        return _MODELS[self.model][0]

    def frequency_polynomial(self) -> list[float] | None:
        """Coefficients g_j with E(n)/(2 pi hbar) = sum_j g_j n^j for the
        polynomial-in-n models, or None. Used for cycle-exact phase
        reduction in long-time overlap sums."""
        _, family, coefficients = _MODELS[self.model]
        return coefficients(self.params, self.units) if family == "poly" else None

    def _derivs(self, n: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        _, family, coefficients = _MODELS[self.model]
        c = coefficients(self.params, self.units)
        if family == "poly":
            e = 2.0 * np.pi * self.units.hbar * np.asarray(c[::-1])  # highest power first
            return tuple(np.polyval(np.polyder(e, k), n) for k in range(4))
        if family == "power":
            scale, offset, expo = c
            base = n + offset  # d^k/dn^k: scale * expo (expo - 1) ... base^(expo - k)
            return tuple(math.prod((scale, *(expo - i for i in range(k)))) * base ** (expo - k)
                         for k in range(4))
        return _airy_derivs(c, n)


def _airy_derivs(scale: float, n: np.ndarray):
    # E(n) = scale * y_n, interpolated between integers; 5-point central
    # differences with unit step at the rounded index, the stencil kept
    # inside the validated zero table
    xs = np.atleast_1d(n)
    centers = [min(max(int(round(float(x))), 2), specfun.AIRY_ZERO_MAX - 2) for x in xs]
    zeros = specfun.airy_zeros(max(centers) + 3)
    out = []
    for x, c in zip(xs, centers):
        if x > c + 2:
            raise RangeError(f"Airy index {float(x)} above the zero table")
        y = zeros[c - 2 : c + 3]
        e = scale * float(np.interp(float(x), np.arange(c - 2, c + 3), y))
        e1 = scale * (y[0] - 8 * y[1] + 8 * y[3] - y[4]) / 12.0
        e2 = scale * (-y[0] + 16 * y[1] - 30 * y[2] + 16 * y[3] - y[4]) / 12.0
        e3 = scale * (-y[0] + 2 * y[1] - 2 * y[3] + y[4]) / 2.0
        out.append((e, e1, e2, e3))
    arr = np.array(out)
    return arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3]


def eval_energy(s: Spectrum1D, n) -> float | np.ndarray:
    """E(n); n may be a real scalar or array (continuous index)."""
    narr = np.asarray(n, dtype=float)
    if np.any(narr < s.ground_index - 1e-12):
        raise DomainError(f"index below ground index {s.ground_index} for {s.model}")
    e = s._derivs(np.atleast_1d(narr))[0]
    return float(e[0]) if narr.ndim == 0 else e


def energy_derivatives(s: Spectrum1D, n0: float) -> tuple[float, float, float, float]:
    """(E, E', E'', E''') at the continuous index n0."""
    if n0 < s.ground_index - 1e-12:
        raise DomainError(f"index below ground index {s.ground_index} for {s.model}")
    e, e1, e2, e3 = s._derivs(np.atleast_1d(float(n0)))
    return float(e[0]), float(e1[0]), float(e2[0]), float(e3[0])


def time_scales(s: Spectrum1D, n0: float) -> TimeScales:
    """2*pi*hbar over |E'|, |E''|/2, |E'''|/6; +inf for vanishing
    derivatives (relative to the local energy scale, to suppress
    floating-point noise)."""
    e, e1, e2, e3 = energy_derivatives(s, n0)
    hbar = s.units.hbar
    floor = 1e-14 * max(abs(e), abs(e1), 1e-300)

    def scale_for(d):
        return math.inf if abs(d) <= floor else 2 * math.pi * hbar / abs(d)

    return TimeScales(
        t_classical=scale_for(e1),
        t_revival=scale_for(e2 / 2.0),
        t_super=scale_for(e3 / 6.0),
    )


def power_law_ratios(k: float, n0: float) -> tuple[float, float]:
    """For a |x|^k potential: (T_rev/T_cl, T_super/T_rev) at index n0.

    Pass k = math.inf for the hard-wall limit. The first ratio diverges
    at k = 2 (harmonic case).
    """
    if math.isinf(k):
        return 2.0 * n0, math.inf
    if k == 2:
        return math.inf, 3.0 * (k + 2.0) * n0 / 4.0
    rev_over_cl = 2.0 * abs((k + 2.0) / (k - 2.0)) * n0
    super_over_rev = 3.0 * (k + 2.0) * n0 / 4.0
    return rev_over_cl, super_over_rev


def power_law_spectrum(
    k: float,
    V0: float,
    L: float,
    units: UnitSystem = DEFAULT_UNITS,
    hard_wall: bool | None = None,
) -> Spectrum1D:
    """WKB levels of V(x) = V0 |x/L|^k: E_n = scale * (n + cL + cR)^(2k/(k+2)).

    Matching constants are 1/4 per smooth turning point, 1/2 per hard
    wall; `hard_wall` defaults to true only in the k = inf limit. For the
    attractive scaling mode k = -1 the energy scale is -V0 (Rydberg-like),
    exponent -2.
    """
    if k == -2:
        raise DomainError("exponent k = -2 has a singular index power")
    if not (k > 0 or k == -1 or math.isinf(k)):
        raise DomainError("k must be positive, infinite, or the scaling mode -1")
    if V0 <= 0 or L <= 0:
        raise DomainError("V0 and L must be positive")
    if hard_wall is None:
        hard_wall = math.isinf(k)
    offset = 1.0 if hard_wall else 0.5
    if math.isinf(k):
        exponent = 2.0
        scale = (math.pi * units.hbar / (2 * L * math.sqrt(2 * units.mass))) ** 2
    elif k == -1:
        exponent = -2.0
        scale = -V0
    else:
        exponent = 2.0 * k / (k + 2.0)
        gammas = math.gamma(1.0 / k + 1.5) / (math.gamma(1.0 / k + 1.0) * math.gamma(1.5))
        scale = (
            math.pi * units.hbar / (2 * L * math.sqrt(2 * units.mass)) * V0 ** (1.0 / k) * gammas
        ) ** exponent
    return Spectrum1D(
        "PowerLawWKB",
        {"scale": scale, "offset": offset, "exponent": exponent, "k": k},
        units,
    )


def rydberg_times(n0: float) -> tuple[float, float]:
    """(classical period, revival time) in seconds for hydrogen-like
    levels around principal quantum number n0."""
    if n0 <= 0:
        raise DomainError("n0 must be positive")
    t_cl = RYDBERG_PERIOD_SECONDS * n0**3
    return t_cl, (2.0 * n0 / 3.0) * t_cl


def stark_period(n: float, field_over_100Vcm: float) -> float:
    """Classical period (seconds) of the parabolic-ladder beats in an
    applied electric field, 2.6 ps / (n * F/(100 V/cm))."""
    if n <= 0 or field_over_100Vcm <= 0:
        raise DomainError("inputs must be positive")
    return 2.6e-12 / (n * field_over_100Vcm)
