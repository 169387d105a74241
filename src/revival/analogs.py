"""Collapse-and-revival analogs: two-level-atom population inversion in a
quantized field mode, and coherent-state matter-field revivals with the
cat-state checks."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .dynamics import TimeSeries, _phase_sum
from .errors import DomainError, TruncationError
from .packets import log_factorial, log_poisson
from .serialize import BLOCK_ROWS, write_grid_csv

if TYPE_CHECKING:  # the grids load wavefields on use, so jc does not
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


# ladder levels of a coherent state: _bec_overlap takes one grid-sized Horner
# step per level, and at the default 201^2 grid 11,020 levels (alpha 100)
# take 7 s and 93,020 (alpha 300) 95 s (2-core x86-64)
BEC_MAX_LEVELS = 100_000


@dataclass(frozen=True)
class CoherentState:
    """Coherent amplitude alpha with number-dependent phase rate
    u0_over_hbar * n(n-1)/2; n_cap truncates the number ladder."""

    alpha: complex
    u0_over_hbar: float
    n_cap: int

    def __post_init__(self):
        if self.n_cap > BEC_MAX_LEVELS:
            raise TruncationError(f"n_cap {self.n_cap} exceeds the {BEC_MAX_LEVELS} ladder levels allowed")
        a = abs(self.alpha)
        need = a * a + 10.0 * a  # inf, not OverflowError, past |alpha| ~ 1e154
        if self.n_cap < need:
            raise DomainError(f"n_cap must be at least |alpha|^2 + 10 |alpha| = {need:.1f}")

    @property
    def t_revival(self) -> float:
        return 2.0 * math.pi / self.u0_over_hbar

    def log_poisson(self) -> np.ndarray:
        return log_poisson(abs(self.alpha) ** 2, self.n_cap)


def default_n_cap(alpha: complex) -> int:
    """|alpha|^2 + 10 |alpha| + 20 ladder levels; TruncationError above
    BEC_MAX_LEVELS, raised before anything is allocated."""
    a = abs(alpha)
    need = a * a + 10.0 * a + 20.0
    if need > BEC_MAX_LEVELS:
        raise TruncationError(f"|alpha| = {a:.6g} needs about {need:.3g} ladder levels (cap {BEC_MAX_LEVELS})")
    return int(a**2 + 10 * a) + 20


def jc_inversion(p: JCParams, t_grid) -> TimeSeries:
    """Excited-state population P_e(t) = 1/2 + (1/2) sum_n w_n cos(2 sqrt(n)
    coupling t) for a Poisson photon distribution (resonant case), summed
    by dynamics._phase_sum over the levels within 12 sqrt(nbar) of nbar."""
    if p.detuning != 0.0:
        raise DomainError("inversion series implemented for zero detuning only")
    t = np.asarray(t_grid, dtype=float)
    if not np.all(np.isfinite(t)):
        raise DomainError("time grid must be finite")
    half_width = 12.0 * math.sqrt(max(p.nbar, 1.0))
    n_lo = max(0, math.floor(p.nbar - half_width))
    # at least 16 levels: near nbar = 1 the 12-unit window leaves a 4e-12 tail
    n_hi = max(math.ceil(p.nbar + half_width), 16)
    w = np.exp(log_poisson(p.nbar, n_hi, n_lo))
    # each tail beyond the window is below its edge weight times a geometric
    # series: the ratio of neighbours falls from nbar/(n_hi + 1) upward and
    # from n_lo/nbar downward
    tail = w[-1] * p.nbar / (n_hi + 1 - p.nbar)
    if n_lo > 0:
        tail += w[0] * n_lo / (p.nbar - n_lo)
    if tail > 1e-12:
        raise TruncationError(f"Poisson tail {tail:.2g} beyond the level window exceeds 1e-12")
    with np.errstate(over="ignore"):  # an infinite frequency is reduced_phase's DomainError
        freqs = 2.0 * np.sqrt(np.arange(n_lo, n_hi + 1, dtype=float)) * p.coupling
    pe = 0.5 + 0.5 * _phase_sum(w, freqs, t).real
    return TimeSeries(t, pe.astype(complex))


def jc_revival_time(p: JCParams) -> float:
    """2 pi sqrt(coupling^2 nbar + detuning^2/4) / coupling^2, evaluated as
    2 pi sqrt(nbar + (detuning / 2 coupling)^2) / coupling, which squares no
    rate: coupling^2 overflows past 1.3e154."""
    half = p.detuning / (2.0 * p.coupling)
    return 2.0 * math.pi * math.sqrt(p.nbar + half * half) / p.coupling


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

def _bec_log_coefficients(cs: CoherentState, t: float) -> tuple[np.ndarray, np.ndarray]:
    """(log|c_n(t)|, c_n(t)/|c_n(t)|) for n = 0..n_cap. The phase is reduced
    with the evenness of n(n-1) so that whole revival periods cancel
    exactly in floating point."""
    revivals = t / cs.t_revival
    if not math.isfinite(revivals):
        raise DomainError(f"evolution time t = {t:g} ({revivals:g} revival times) is not finite")
    n = np.arange(cs.n_cap + 1)
    k = (n * (n - 1)).astype(float)  # always even
    phase_cycles = np.mod(k * np.mod(revivals, 1.0), 2.0)
    phase = np.exp(1j * n * np.angle(cs.alpha)) * np.exp(-1j * math.pi * phase_cycles)
    return 0.5 * cs.log_poisson(), phase


def bec_state_coefficients(cs: CoherentState, t: float) -> np.ndarray:
    """Number-ladder coefficients of the evolving coherent state,
    c_n(t) = e^{-|a|^2/2} a^n / sqrt(n!) * e^{-i phi n(n-1)/2}."""
    log_amp, phase = _bec_log_coefficients(cs, t)
    return np.exp(log_amp) * phase


def bec_field(cs: CoherentState, t: float) -> complex:
    """Mean field alpha * exp(-|alpha|^2 [(1 - cos) + i sin](2 pi t / T)."""
    theta = 2.0 * math.pi * t / cs.t_revival
    a2 = abs(cs.alpha) ** 2
    return cs.alpha * np.exp(-a2 * ((1.0 - math.cos(theta)) + 1j * math.sin(theta)))


def _ladder_variable(cs: CoherentState, beta: np.ndarray) -> np.ndarray:
    """w = beta*/R, R = max(1, |alpha|): the variable of _bec_overlap's recurrence."""
    return np.conj(beta) / max(1.0, abs(cs.alpha))


def _bec_overlap(cs: CoherentState, t: float, beta: np.ndarray, w_max: float | None = None) -> np.ndarray:
    """P(beta; t) = e^{-|beta|^2} |sum_n c_n (beta*)^n / sqrt(n!)|^2 at every
    point of the array beta, by one Horner recurrence over the whole array.

    The recurrence runs in w = beta*/R, R = max(1, |alpha|), on the
    coefficients c_n R^n / sqrt(n!), formed in log space under a common
    shift so that none underflows. Every `every` steps, each point whose
    |acc| has passed 2^64 is divided by a power of two (exactly) and the
    exponent is carried as its log-scale; |acc| grows by at most a
    factor 2 + |w| per step, so no point passes 2^500 in between, and
    large |alpha| neither overflows nor underflows. The result is
    exp(2 log-scale - |beta|^2 + log|acc|^2), 0 where acc is 0.

    `every` follows from `w_max`, the largest |w| (over beta when None).
    Every point's value depends only on that point and `every`, so a grid
    computed in blocks under the whole grid's w_max has the whole grid's
    bits.
    """
    log_amp, phase = _bec_log_coefficients(cs, t)
    n = np.arange(cs.n_cap + 1, dtype=float)
    radius = max(1.0, abs(cs.alpha))
    log_d = log_amp + n * math.log(radius) - 0.5 * log_factorial(n)
    shift = float(np.max(log_d))
    d = np.exp(log_d - shift) * phase  # |d| <= 1
    w = _ladder_variable(cs, beta)
    if w_max is None:
        w_max = float(np.max(np.abs(w)))
    every = max(1, int(436.0 / math.log2(2.0 + w_max)))
    acc = np.full(w.shape, d[-1])
    scale = 1.0  # 2^-exponent; an array once some point has been rescaled
    exponent = np.zeros(w.shape)
    for k in range(cs.n_cap - 1, -1, -1):
        acc *= w
        acc += d[k] * scale
        if k % every == 0:
            e = np.frexp(np.abs(acc))[1]
            e = np.where(e > 64, e, 0)
            if e.any():
                factor = np.ldexp(1.0, -e)
                acc *= factor
                scale = scale * factor
                exponent += e
    log_scale = shift + exponent * math.log(2.0)
    with np.errstate(divide="ignore"):
        log_acc2 = np.log(acc.real**2 + acc.imag**2)
    return np.exp(2.0 * log_scale - (beta.real**2 + beta.imag**2) + log_acc2)


def _grid_beta(re_axis: AxisSpec, im_axis: AxisSpec, rows: slice) -> np.ndarray:
    """beta on the rows `rows` of the grid: re along axis 0, im along axis 1."""
    return re_axis.points()[rows, None] + 1j * im_axis.points()[None, :]


def bec_overlap_grid(cs: CoherentState, t: float, re_axis: AxisSpec, im_axis: AxisSpec) -> FieldGrid:
    """P(beta; t) = |<beta | state(t)>|^2 on a rectangular grid of the
    coherent-plane coordinate beta."""
    from .wavefields import FieldGrid

    return FieldGrid(re_axis, im_axis, _bec_overlap(cs, t, _grid_beta(re_axis, im_axis, slice(None))))


def write_bec_csv(cs: CoherentState, t: float, re_axis: AxisSpec, im_axis: AxisSpec, path) -> None:
    """`bec_overlap_grid(...).to_csv(path)`, computed and written in blocks
    of whole grid rows of up to BLOCK_ROWS points, so that no grid is held.
    Every block rescales at the cadence of the whole grid's largest |w|,
    so the bytes are the whole grid's. |w| grows with |Re beta| and
    |Im beta|, and rounding keeps that order, so that largest |w| lies on
    the grid's first or last row."""
    step = max(1, BLOCK_ROWS // im_axis.count)
    chunks = [slice(lo, lo + step) for lo in range(0, re_axis.count, step)]
    edges = _grid_beta(re_axis, im_axis, slice(None, None, re_axis.count - 1))  # rows 0 and count - 1
    w_max = float(np.max(np.abs(_ladder_variable(cs, edges))))
    blocks = ((rows, _bec_overlap(cs, t, _grid_beta(re_axis, im_axis, rows), w_max)) for rows in chunks)
    write_grid_csv(path, re_axis, im_axis, blocks)


def bec_overlap_point(cs: CoherentState, beta: complex, t: float) -> float:
    """P(beta; t) at a single point."""
    return float(_bec_overlap(cs, t, np.array([complex(beta)]))[0])


def bec_overlap_peaks(
    cs: CoherentState,
    t: float,
    half_span: float | None = None,
    coarse: int = 81,
    zoom_rounds: int = 3,
) -> list[tuple[complex, float]]:
    """Local maxima of P(beta; t), each refined by nested grid zooming so
    peak heights are grid-offset free to ~1e-8."""
    from .wavefields import AxisSpec

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
                vals = _bec_overlap(cs, t, row)
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
    if cs.alpha == 0:
        return float(abs(coeffs[0]) ** 2)
    base = np.exp(0.5 * cs.log_poisson()) * np.exp(1j * n * np.angle(cs.alpha))
    plus = base * np.exp(1j * n * math.pi / 2.0)   # |i alpha>
    minus = base * np.exp(-1j * n * math.pi / 2.0)  # |-i alpha>
    cat = (np.exp(-1j * math.pi / 4.0) * plus + np.exp(1j * math.pi / 4.0) * minus) / math.sqrt(2.0)
    return float(abs(np.sum(np.conj(cat) * coeffs)) ** 2)
