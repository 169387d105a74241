"""Autocorrelation machinery: eigenbasis overlap series, the box
anti-correlation variant, closed forms for unbound and oscillator
packets, the Poisson-sum short-time approximation, collapse-time
estimates, and the overlap lower bound check."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, TruncationError
from .packets import CoefficientSet, PacketParams1D
from .serialize import write_timeseries_csv
from .spectra import DEFAULT_UNITS, Spectrum1D, eval_energy

TWO_PI = 2.0 * math.pi
_FRACTION_TWO_PI = Fraction(
    "6.28318530717958647692528676655900576839433879875021164194988918461563281"
)
_BIG_PHASE = 1e8
_CHUNK = 4096  # times per phase block; bounds the (modes x times) temporaries


def _cody_waite_parts():
    # Split 2*pi into heads with 27 trailing zero mantissa bits, so k * P1
    # and k * P2 stay exact for the k range used here.
    import struct

    def chop(x: float) -> float:
        bits = struct.unpack("<q", struct.pack("<d", x))[0]
        bits &= ~((1 << 27) - 1)
        return struct.unpack("<d", struct.pack("<q", bits))[0]

    p1 = chop(TWO_PI)
    p2 = chop(float(_FRACTION_TWO_PI - Fraction(p1)))
    p3 = float(_FRACTION_TWO_PI - Fraction(p1) - Fraction(p2))
    return p1, p2, p3


_P1, _P2, _P3 = _cody_waite_parts()


def _two_product(a, b) -> tuple[np.ndarray, np.ndarray]:
    # Dekker split product: a*b = hi + lo exactly (barring over/underflow).
    split = 134217729.0  # 2^27 + 1
    hi = a * b
    a_h = a * split - (a * split - a)
    a_l = a - a_h
    b_h = b * split - (b * split - b)
    b_l = b - b_h
    lo = ((a_h * b_h - hi) + a_h * b_l + a_l * b_h) + a_l * b_l
    return hi, lo


def reduced_phase(omega, t) -> np.ndarray:
    """omega * t reduced modulo 2*pi with extended-precision arithmetic,
    so that revival-scale phase alignments survive large |omega * t|.
    Broadcasts over both arguments."""
    omega = np.asarray(omega, dtype=float)
    tarr = np.asarray(t, dtype=float)
    hi, lo = _two_product(omega, tarr)
    k = np.rint(hi / TWO_PI)
    r = ((hi - k * _P1) - k * _P2) - k * _P3 + lo
    over = np.abs(hi) > _BIG_PHASE
    if np.any(over):  # exact rational reduction for extreme products
        prod_o, prod_t = np.broadcast_arrays(omega, tarr)
        rr = np.array(r, ndmin=1)
        flat = np.nonzero(np.atleast_1d(over).ravel())[0]
        for i in flat:
            prod = Fraction(float(prod_o.ravel()[i])) * Fraction(float(prod_t.ravel()[i]))
            rr.ravel()[i] = float(prod % _FRACTION_TWO_PI)
        r = rr.reshape(np.shape(r))
    return r


@dataclass(frozen=True)
class TimeSeries:
    """Complex samples on a strictly increasing time grid."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=complex)
        if len(t) != len(v):
            raise DomainError("times and values must have equal length")
        if len(t) > 1 and not np.all(np.diff(t) > 0):
            raise DomainError("times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    def abs2(self) -> np.ndarray:
        return np.abs(self.values) ** 2

    def to_csv(self, path) -> None:
        write_timeseries_csv(path, self.times, self.values)


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - bb) + (b - (s - bb))


def _dd_cycles(g: list[float], n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """q(n) = sum_j g_j n^j as a double-double pair; n^j is exact for the
    integer indices used here, so q carries the model's float
    coefficients without additional rounding."""
    hi = np.zeros_like(n)
    lo = np.zeros_like(n)
    for j, c in enumerate(g):
        if c == 0.0:
            continue
        ph, pl = _two_product(np.asarray(c), n**j)
        hi, e1 = _two_sum(hi, ph)
        lo = lo + e1 + pl
    return hi, lo


def _phase_block(ts, n, s: Spectrum1D | None = None) -> np.ndarray:
    """The unit phases e^{+i E_n t / hbar} as an (N, T) block, for a chunk
    of T <= _CHUNK times; the one place that turns energies into phases.

    `n` holds level indices of `s`, or angular frequencies E/hbar when `s`
    is None. A spectrum with a frequency polynomial keeps q_n = E_n/(2 pi
    hbar) in double-double and reduces q_n t modulo one cycle before the
    final multiply by 2 pi, which keeps quadratic revival phase alignments
    exact to the last rounding; other levels go through reduced_phase.
    Evolved coefficients are a_n * conj(block)."""
    ts = np.asarray(ts, dtype=float)[None, :]
    g = None if s is None else s.frequency_polynomial()
    if g is None:
        omegas = n if s is None else eval_energy(s, n.astype(float)) / s.units.hbar
        return np.exp(1j * reduced_phase(omegas[:, None], ts))
    q_hi, q_lo = _dd_cycles(g, n.astype(float))
    hi, lo = _two_product(q_hi[:, None], ts)
    lo = lo + q_lo[:, None] * ts
    k = np.rint(hi)
    return np.exp((2j * math.pi) * ((hi - k) + lo))


def autocorrelation(c: CoefficientSet, s: Spectrum1D, t_grid) -> TimeSeries:
    """A(t) = sum_n |a_n|^2 e^{+i E_n t / hbar} over the retained basis."""
    n = c.indices
    if np.any(n < s.ground_index):
        raise DomainError("coefficient indices fall outside the spectrum range")
    t = np.asarray(t_grid, dtype=float)
    w = c.weights()
    vals = np.empty(len(t), dtype=complex)
    for start in range(0, len(t), _CHUNK):
        vals[start : start + _CHUNK] = w @ _phase_block(t[start : start + _CHUNK], n, s)
    return TimeSeries(t, vals)


def anticorrelation_infinite_well(c: CoefficientSet, s: Spectrum1D, t_grid) -> TimeSeries:
    """Mirror overlap for the box: sum_n (-1)^(n+1) |a_n|^2 e^{+i E_n t/hbar},
    using the eigenstate parity about the box center."""
    n = c.indices
    if np.any(n < 1):
        raise DomainError("box coefficients are indexed from 1")
    t = np.asarray(t_grid, dtype=float)
    w = np.where(n % 2 == 1, 1.0, -1.0) * c.weights()  # (-1)^(n+1)
    vals = np.empty(len(t), dtype=complex)
    for start in range(0, len(t), _CHUNK):
        vals[start : start + _CHUNK] = w @ _phase_block(t[start : start + _CHUNK], n, s)
    return TimeSeries(t, vals)


def incoherent_plateau(c) -> float:
    """sum |a_n|^4: the level around which |A|^2 oscillates once the
    packet has fully dephased."""
    w = c.weights()
    return float(np.sum(w**2))


def free_particle_A(t, p: PacketParams1D) -> complex | np.ndarray:
    """Closed-form overlap of a free Gaussian packet with itself."""
    alpha = p.width_b / p.units.hbar
    t0 = p.units.mass * p.units.hbar * alpha**2
    tau = np.asarray(t, dtype=float) / (2.0 * t0)
    root = 1.0 / np.sqrt(1.0 - 1j * tau)
    out = root * np.exp(1j * alpha**2 * p.p0**2 * np.asarray(t) / (2.0 * t0 * (1.0 - 1j * tau)))
    return complex(out) if np.ndim(t) == 0 else out


def accelerating_A(t, p: PacketParams1D, force_F: float) -> complex | np.ndarray:
    """Closed-form overlap under a uniform force; reduces to the free
    form at F = 0."""
    hbar, m = p.units.hbar, p.units.mass
    alpha = p.width_b / hbar
    t0 = m * hbar * alpha**2
    ts = np.asarray(t, dtype=float)
    tau = ts / (2.0 * t0)
    root = 1.0 / np.sqrt(1.0 - 1j * tau)
    num = 2j * p.p0**2 * ts / (m * hbar) - (alpha * force_F * ts) ** 2 * (1.0 + tau**2)
    out = (
        root
        * np.exp(num / (4.0 * (1.0 - 1j * tau)))
        * np.exp(-1j * force_F * ts * (p.x0 - force_F * ts**2 / (6.0 * m)) / hbar)
    )
    return complex(out) if np.ndim(t) == 0 else out


def sho_A(t, mode: str, params: dict) -> complex | np.ndarray:
    """Closed-form oscillator overlaps.

    mode 'min_uncertainty': displaced constant-width packet (x0, p0,
    omega, units); 'pulsating': centered packet of width ratio r =
    (natural width / actual width)^2, invariant under r -> 1/r;
    'inverted': centered natural-width packet on the inverted potential
    (p0, omega, units).
    """
    ts = np.asarray(t, dtype=float)
    units = params.get("units", DEFAULT_UNITS)
    if mode == "min_uncertainty":
        omega = params["omega"]
        x0 = params.get("x0", 0.0)
        p0 = params.get("p0", 0.0)
        beta0_sq = units.hbar / (units.mass * omega)
        strength = x0**2 / (2 * beta0_sq) + p0**2 / (2 * units.mass * omega * units.hbar)
        wt = omega * ts
        out = np.exp(0.5j * wt) * np.exp(-strength * ((1.0 - np.cos(wt)) - 1j * np.sin(wt)))
    elif mode == "pulsating":
        r = params["r"]
        if r <= 0:
            raise DomainError("width ratio r must be positive")
        omega = params["omega"]
        wt = omega * ts
        out = np.sqrt(2.0 / (2.0 * np.cos(wt) - 1j * (r + 1.0 / r) * np.sin(wt)))
    elif mode == "inverted":
        omega = params["omega"]
        p0 = params.get("p0", 0.0)
        if params.get("x0", 0.0) != 0.0:
            raise DomainError("inverted-oscillator closed form is for x0 = 0")
        wt = omega * ts
        ch, sh = np.cosh(wt), np.sinh(wt)
        strength = p0**2 / (2.0 * units.mass * omega * units.hbar)
        out = (1.0 / np.sqrt(ch)) * np.exp(
            strength * ((ch - 1.0) + 1j * sh * (2.0 * ch - 1.0)) / (ch * (ch - 1j * sh))
        )
    else:
        raise DomainError(f"unknown oscillator mode {mode!r}")
    return complex(out) if np.ndim(t) == 0 else out


def nauenberg_A(
    t, n0: float, delta_n: float, t_cl: float, t_rev: float, m_window: int
) -> complex | np.ndarray:
    """Poisson-sum approximation: a train of complex Gaussians centered
    at integer multiples of the classical period, with dispersion set by
    the revival time. The overall stationary phase is dropped."""
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    need = 3 + int(np.ceil(np.max(np.abs(ts)) / t_cl))
    if m_window < need:
        raise TruncationError(f"m_window must be at least {need} for this time span")
    alpha = (1.0 / delta_n**2 + (4j * math.pi / t_rev) * ts) / (4.0 * math.pi**2)
    m = np.arange(-m_window, m_window + 1)
    gauss = np.exp(-((m[None, :] - ts[:, None] / t_cl) ** 2) / (2.0 * alpha[:, None]))
    out = gauss.sum(axis=1) / (2.0 * math.pi * delta_n * np.sqrt(alpha))
    return complex(out[0]) if np.ndim(t) == 0 else out


_COLLAPSE_FLAVORS = {
    "infinite_well": lambda dn, t_rev: t_rev / (4.0 * math.sqrt(12.0) * dn),
    "bouncer": lambda dn, t_rev: t_rev / ((8.0 / math.pi) * dn),
    "envelope": lambda dn, t_rev: t_rev / (2.0 * math.sqrt(math.pi) * dn),
}


def collapse_time(delta_n: float, t_rev: float, flavor: str = "infinite_well") -> float:
    """Time for the packet observables to relax to classical-ensemble
    values; flavor picks the box, bouncer, or dispersive-envelope form."""
    if delta_n <= 0 or t_rev <= 0:
        raise DomainError("inputs must be positive")
    try:
        return _COLLAPSE_FLAVORS[flavor](delta_n, t_rev)
    except KeyError:
        raise DomainError(f"unknown collapse flavor {flavor!r}") from None


def delta_h_from_coefficients(c: CoefficientSet, s: Spectrum1D) -> float:
    """Energy spread of the retained coefficient set (truncation shifts
    this slightly relative to the exact operator variance)."""
    w = c.weights()
    e = eval_energy(s, c.indices.astype(float))
    total = np.sum(w)
    mean = np.sum(w * e) / total
    var = np.sum(w * (e - mean) ** 2) / total
    return float(math.sqrt(max(var, 0.0)))


def mandelstam_check(
    series: TimeSeries, delta_h: float, hbar: float = 1.0
) -> tuple[bool, float | None]:
    """Verify |A(t)|^2 >= cos^2(dH t / hbar) - 1e-9 on the validity
    window 0 <= t <= pi hbar / (2 dH). Returns (ok, first violation time)."""
    if delta_h < 0:
        raise DomainError("delta_h must be nonnegative")
    t = series.times
    a2 = series.abs2()
    if delta_h == 0:
        mask = t >= 0
        bound = np.ones(np.count_nonzero(mask))
    else:
        t_max = math.pi * hbar / (2.0 * delta_h)
        mask = (t >= 0) & (t <= t_max)
        if np.count_nonzero(mask) < 100 or t[mask].max() < 0.98 * t_max:
            raise TruncationError("series does not cover the validity window densely enough")
        bound = np.cos(delta_h * t[mask] / hbar) ** 2
    bad = a2[mask] < bound - 1e-9
    if np.any(bad):
        return False, float(t[mask][np.argmax(bad)])
    return True, None


def uniform_grid(t_hi: float, t_cl: float, samples_per_period: int = 40, t_lo: float = 0.0) -> np.ndarray:
    """Uniform grid with at least `samples_per_period` samples per t_cl,
    endpoint included."""
    steps = max(2, int(math.ceil((t_hi - t_lo) / t_cl * samples_per_period)))
    return np.linspace(t_lo, t_hi, steps + 1)
