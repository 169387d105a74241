"""Collapse-and-revival analogs: two-level-atom population inversion in a
quantized field mode, and coherent-state matter-field revivals with the
cat-state checks."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import TimeSeries
from .errors import DomainError, TruncationError
from .packets import log_factorial, log_poisson
from .wavefields import AxisSpec, FieldGrid


@dataclass(frozen=True)
class JCParams:
    """Mean photon number, atom-field coupling (1/time), detuning (1/time)."""

    nbar: float
    coupling: float
    detuning: float = 0.0

    def __post_init__(self):
        if self.nbar < 0 or self.coupling <= 0:
            raise DomainError("require nbar >= 0 and coupling > 0")


@dataclass(frozen=True)
class CoherentState:
    """Coherent amplitude alpha with number-dependent phase rate
    u0_over_hbar * n(n-1)/2; n_cap truncates the number ladder."""

    alpha: complex
    u0_over_hbar: float
    n_cap: int

    def __post_init__(self):
        need = abs(self.alpha) ** 2 + 10.0 * abs(self.alpha)
        if self.n_cap < need:
            raise DomainError(f"n_cap must be at least |alpha|^2 + 10 |alpha| = {need:.1f}")

    @property
    def t_revival(self) -> float:
        return 2.0 * math.pi / self.u0_over_hbar

    def log_poisson(self) -> np.ndarray:
        return log_poisson(abs(self.alpha) ** 2, self.n_cap)


def jc_inversion(p: JCParams, t_grid) -> TimeSeries:
    """Excited-state population P_e(t) = 1/2 + (1/2) sum_n w_n cos(2 sqrt(n)
    coupling t) for a Poisson photon distribution (resonant case)."""
    if p.detuning != 0.0:
        raise DomainError("inversion series implemented for zero detuning only")
    t = np.asarray(t_grid, dtype=float)
    if not np.all(np.isfinite(t)):
        raise DomainError("time grid must be finite")
    n_cap = int(math.ceil(p.nbar + 12.0 * math.sqrt(max(p.nbar, 1.0))))
    w = np.exp(log_poisson(p.nbar, n_cap))
    if 1.0 - w.sum() > 1e-12:
        raise TruncationError("Poisson tail above 1e-12 at the truncation cap")
    freqs = 2.0 * np.sqrt(np.arange(n_cap + 1, dtype=float)) * p.coupling
    pe = 0.5 + 0.5 * (np.cos(np.outer(t, freqs)) @ w)
    return TimeSeries(t, pe.astype(complex))


def jc_revival_time(p: JCParams) -> float:
    """2 pi sqrt(coupling^2 nbar + detuning^2/4) / coupling^2."""
    return 2.0 * math.pi * math.sqrt(p.coupling**2 * p.nbar + p.detuning**2 / 4.0) / p.coupling**2


def jc_bound(p: JCParams, t) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) long-time envelope bounds of P_e (resonant case):
    1/2 -/+ (1/2)(1 + coupling^2 t^2 / 4 nbar)^(-1/4)."""
    if p.detuning != 0.0:
        raise DomainError("envelope bounds require zero detuning")
    ts = np.asarray(t, dtype=float)
    half_width = 0.5 * (1.0 + p.coupling**2 * ts**2 / (4.0 * p.nbar)) ** -0.25
    return 0.5 - half_width, 0.5 + half_width


def jc_gaussian_envelope(p: JCParams, t) -> np.ndarray:
    """Short-time dephasing envelope exp(-(coupling t)^2 / 2)."""
    ts = np.asarray(t, dtype=float)
    return np.exp(-((p.coupling * ts) ** 2) / 2.0)


# ----------------------------------------------------------------------
# Coherent matter-field revivals
# ----------------------------------------------------------------------

def bec_state_coefficients(cs: CoherentState, t: float) -> np.ndarray:
    """Number-ladder coefficients of the evolving coherent state,
    c_n(t) = e^{-|a|^2/2} a^n / sqrt(n!) * e^{-i phi n(n-1)/2}.

    The phase is reduced with the evenness of n(n-1) so that whole
    revival periods cancel exactly in floating point.
    """
    n = np.arange(cs.n_cap + 1)
    amp = np.exp(0.5 * cs.log_poisson()).astype(complex)
    if cs.alpha != 0:
        amp = amp * np.exp(1j * n * np.angle(cs.alpha))
    cycles = t / cs.t_revival
    k = (n * (n - 1)).astype(float)  # always even
    phase_cycles = np.mod(k * np.mod(cycles, 1.0), 2.0)
    return amp * np.exp(-1j * math.pi * phase_cycles)


def bec_field(cs: CoherentState, t: float) -> complex:
    """Mean field alpha * exp(-|alpha|^2 [(1 - cos) + i sin](2 pi t / T)."""
    theta = 2.0 * math.pi * t / cs.t_revival
    a2 = abs(cs.alpha) ** 2
    return cs.alpha * np.exp(-a2 * ((1.0 - math.cos(theta)) + 1j * math.sin(theta)))


def bec_overlap_grid(cs: CoherentState, t: float, re_axis: AxisSpec, im_axis: AxisSpec) -> FieldGrid:
    """P(beta; t) = |<beta | state(t)>|^2 on a rectangular grid of the
    coherent-plane coordinate beta."""
    coeffs = bec_state_coefficients(cs, t)
    n = np.arange(cs.n_cap + 1, dtype=float)
    lgam = log_factorial(n)
    re = re_axis.points()
    im = im_axis.points()
    values = np.empty((len(re), len(im)))
    for i, x in enumerate(re):
        beta = x + 1j * im
        b = np.abs(beta)
        safe = np.where(b > 0, b, 1.0)
        amp = np.exp(-0.5 * (b * b)[:, None] + np.outer(np.log(safe), n) - 0.5 * lgam[None, :])
        if np.any(b == 0):
            amp[b == 0] = np.where(n == 0, 1.0, 0.0)[None, :]
        phases = np.exp(-1j * np.outer(np.angle(beta), n))
        values[i] = np.abs((amp * phases) @ coeffs) ** 2
    return FieldGrid(re_axis, im_axis, values)


def bec_overlap_point(cs: CoherentState, beta: complex, t: float) -> float:
    """P(beta; t) at a single point."""
    coeffs = bec_state_coefficients(cs, t)
    n = np.arange(cs.n_cap + 1, dtype=float)
    b = abs(beta)
    if b == 0:
        amp = np.zeros(cs.n_cap + 1)
        amp[0] = 1.0
    else:
        amp = np.exp(-0.5 * b * b + n * math.log(b) - 0.5 * log_factorial(n))
    bra = amp * np.exp(-1j * n * np.angle(beta) if b > 0 else np.zeros(cs.n_cap + 1))
    return float(np.abs(np.sum(bra * coeffs)) ** 2)


def bec_overlap_peaks(
    cs: CoherentState,
    t: float,
    half_span: float | None = None,
    coarse: int = 81,
    zoom_rounds: int = 3,
) -> list[tuple[complex, float]]:
    """Local maxima of P(beta; t), each refined by nested grid zooming so
    peak heights are grid-offset free to ~1e-8."""
    if half_span is None:
        half_span = abs(cs.alpha) + 3.0
    axis = AxisSpec("re", -half_span, half_span, coarse)
    grid = bec_overlap_grid(cs, t, axis, AxisSpec("im", -half_span, half_span, coarse))
    v = grid.values
    floor = 0.05 * float(v.max())
    peaks = []
    for i in range(1, coarse - 1):
        for j in range(1, coarse - 1):
            patch = v[i - 1 : i + 2, j - 1 : j + 2]
            if v[i, j] >= floor and v[i, j] == patch.max() and np.count_nonzero(patch == v[i, j]) == 1:
                peaks.append((axis.points()[i] + 1j * axis.points()[j], v[i, j]))
    refined = []
    step = 2.0 * half_span / (coarse - 1)
    for center, height in peaks:
        h = step
        best_c, best_v = center, height
        for _ in range(zoom_rounds):
            offsets = np.linspace(-h, h, 21)
            for x in offsets:
                row = best_c.real + x + 1j * (best_c.imag + offsets)
                vals = [bec_overlap_point(cs, b, t) for b in row]
                k = int(np.argmax(vals))
                if vals[k] > best_v:
                    best_v = vals[k]
                    best_c = row[k]
            h /= 10.0
        refined.append((best_c, best_v))
    refined.sort(key=lambda item: (-item[1], item[0].real, item[0].imag))
    return refined


def bec_cat_fidelity(cs: CoherentState) -> float:
    """Overlap of the half-period state with the two-branch superposition
    (e^{-i pi/4}|i alpha> + e^{+i pi/4}|-i alpha>)/sqrt(2); equals 1 up to
    ladder truncation."""
    coeffs = bec_state_coefficients(cs, cs.t_revival / 2.0)
    n = np.arange(cs.n_cap + 1)
    a = abs(cs.alpha)
    if a == 0:
        return float(abs(coeffs[0]) ** 2)
    log_amp = -0.5 * a * a + n * math.log(a) - 0.5 * log_factorial(n)
    base = np.exp(log_amp) * np.exp(1j * n * np.angle(cs.alpha))
    plus = base * np.exp(1j * n * math.pi / 2.0)   # |i alpha>
    minus = base * np.exp(-1j * n * math.pi / 2.0)  # |-i alpha>
    cat = (np.exp(-1j * math.pi / 4.0) * plus + np.exp(1j * math.pi / 4.0) * minus) / math.sqrt(2.0)
    return float(abs(np.sum(np.conj(cat) * coeffs)) ** 2)
