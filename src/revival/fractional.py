"""Clone-amplitude algebra at rational fractions (p/q) of the revival
time, and empirical peak detection in computed overlap series."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError
from .serialize import write_csv

if TYPE_CHECKING:  # annotations only
    from .dynamics import TimeSeries


@dataclass(frozen=True)
class GaussSumTable:
    """Clone coefficients b_r of the quadratic exponential sum at the
    reduced fraction p/q; the table length is the phase period l."""

    p: int
    q: int
    period_l: int
    b: np.ndarray
    reduced_from: tuple[int, int] | None = None

    def __post_init__(self):
        object.__setattr__(self, "b", np.asarray(self.b, dtype=complex))

    def amplitudes_mod_q(self) -> np.ndarray:
        """The same coefficients re-indexed on a length-q grid (zeros
        interleave when the period is q/2)."""
        if self.period_l == self.q:
            return self.b.copy()
        out = np.zeros(self.q, dtype=complex)
        out[::2] = self.b
        return out

    def to_csv(self, path) -> None:
        # abs2 in numpy-scalar arithmetic, one value at a time: np.abs(b) ** 2 rounds differently
        write_csv(path, "r,re,im,abs2\n", "%d,%.17g,%.17g,%.17g\n",
                  (range(len(self.b)), self.b.real, self.b.imag,
                   lambda part: [abs(v) ** 2 for v in self.b[part]]))


def _period(p: int, q: int) -> int:
    if q % 2 == 1:
        return q
    return q // 2 if q % 4 == 0 else q


def gauss_coefficients(p: int, q: int) -> GaussSumTable:
    """b_r = (1/l) sum_k e^{2 pi i (r k / l - p k^2 / q)}, the clone
    coefficients of Aronstein & Stroud, Phys. Rev. A 55 (1997) 4526, as
    the inverse DFT of the chirp c_k = e^{-2 pi i p k^2 / q}, k < l: one
    FFT of length l. The chirp's phase p k^2 mod q is reduced in integers.
    Non-coprime inputs are reduced first and reported."""
    if p <= 0 or q <= 0:
        raise DomainError("p and q must be positive integers")
    reduced_from = None
    g = math.gcd(p, q)
    if g > 1:
        reduced_from = (p, q)
        p, q = p // g, q // g
    l = _period(p, q)
    k = np.arange(l, dtype=np.int64)
    b = np.fft.ifft(np.exp((-2j * np.pi / q) * ((p % q) * (k * k % q) % q)))
    # rounding leaves ~1e-16 dust on entries that vanish exactly
    b[np.abs(b) < 1e-14] = 0.0
    return GaussSumTable(p=p, q=q, period_l=l, b=b, reduced_from=reduced_from)


def clone_structure(p: int, q: int) -> tuple[int, float, float]:
    """(clone count, spacing as a fraction of the classical period,
    peak |A|^2 per clone) at the reduced fraction p/q.

    The peak is the clone height in the sigma^2 t_cl / t_rev -> 0 limit
    (sigma the spread of the weights |a_n|^2). At q = 2 the lone clone is
    phase-aligned t_cl/2 away from t_rev/2, where the quadratic phase
    exp(2 pi i k^2 (t_cl/2) / t_rev) is left over; for Gaussian weights a
    finite spread lowers the windowed maximum by the factor
    (1 + (2 pi sigma^2 t_cl / t_rev)^2)^(-1/2)."""
    if math.gcd(p, q) != 1:
        raise DomainError("p/q must be in lowest terms")
    if q % 2 == 1:
        return q, 1.0 / q, 1.0 / q
    return q // 2, 2.0 / q, 2.0 / q


def resolvable(q: int, delta_n: float) -> bool:
    """Whether order-q clone peaks stand above the dephased background
    1/(delta_n * 2 sqrt(pi))."""
    if q < 1 or delta_n <= 0:
        raise DomainError("require q >= 1 and delta_n > 0")
    if q == 1:
        return True
    peak = 1.0 / q if q % 2 == 1 else 2.0 / q
    return peak > 1.0 / (delta_n * 2.0 * math.sqrt(math.pi))


def verify_recursion(table: GaussSumTable) -> bool:
    """Check b_{r'} = e^{2 pi i (r/l + p/q)} b_r with r' = (r + 2 p l / q)
    mod l, to 1e-12."""
    l, p, q = table.period_l, table.p, table.q
    shift = (2 * p * l) // q
    if (2 * p * l) % q != 0:
        raise DomainError("inconsistent table: 2 p l / q is not an integer")
    for r in range(l):
        rp = (r + shift) % l
        expected = np.exp(2j * np.pi * (r / l + p / q)) * table.b[r]
        if abs(table.b[rp] - expected) > 1e-12:
            return False
    return True


@dataclass(frozen=True)
class PeakReport:
    """Windowed statistics of |A|^2 around (p/q) t_rev, with the clone
    prediction for comparison.

    ``predicted_peak`` is the sigma^2 t_cl / t_rev -> 0 clone height from
    ``clone_structure``; at q = 2 a finite spread lowers the measured
    maximum below it by the factor given there."""

    p: int
    q: int
    measured_peak: float
    predicted_peak: float
    window_mean: float


def detect_peaks(
    series: TimeSeries, t_cl: float, t_rev: float, max_q: int
) -> list[PeakReport]:
    """Windowed maxima (and means) of |A|^2 in (p/q) t_rev +- t_cl for
    every reduced fraction with q <= max_q whose window the series
    covers."""
    t = series.times
    if len(t) < 3:
        raise DomainError("series too short")
    dt = np.max(np.diff(t))
    if dt > t_cl / 40.0 * (1 + 1e-9):
        raise DomainError("grid too coarse: need >= 40 samples per classical period")
    a2 = series.abs2()
    fractions = sorted(
        {Fraction(p, q) for q in range(1, max_q + 1) for p in range(1, q + 1)}
    )
    reports = []
    for frac in fractions:
        if frac.denominator > max_q:
            continue
        center = float(frac) * t_rev
        lo, hi = center - t_cl, center + t_cl
        if lo < t[0] - 1e-12 or hi > t[-1] + 1e-12:
            continue
        mask = (t >= lo) & (t <= hi)
        if not np.any(mask):
            continue
        _, _, peak = clone_structure(frac.numerator, frac.denominator)
        reports.append(
            PeakReport(
                p=frac.numerator,
                q=frac.denominator,
                measured_peak=float(np.max(a2[mask])),
                predicted_peak=peak,
                window_mean=float(np.mean(a2[mask])),
            )
        )
    return reports
