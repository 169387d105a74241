"""Expansion-coefficient builders for localized Gaussian packets: the
model Gaussian ladder, the closed-form box coefficients, overlap
integrals for the bouncer, and 2D overlaps for the triangular and
circular billiards."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import ContainmentError, DomainError, RangeError, TruncationError
from .serialize import write_csv
from .spectra import DEFAULT_UNITS, UnitSystem

RELATIVE_FLOOR = 1e-9     # coefficients below this fraction of the peak are dropped
CONTAINMENT_SIGMAS = 3.0  # required wall clearance in units of the position spread
BOX_MAX_BYTES = 1 << 30   # cap on the box builder's working arrays
_BOX_BYTES_PER_INDEX = 96  # its measured tracemalloc peak is 80 B per index


@dataclass(frozen=True)
class PacketParams1D:
    """Initial Gaussian packet: center x0, mean momentum p0, and width
    parameter b (position spread b/sqrt(2), momentum spread hbar/(b sqrt 2))."""

    x0: float
    p0: float
    width_b: float
    units: UnitSystem = DEFAULT_UNITS

    def __post_init__(self):
        if self.width_b <= 0:
            raise DomainError("width_b must be positive")

    @property
    def dx0(self) -> float:
        return self.width_b / math.sqrt(2.0)

    @property
    def dp0(self) -> float:
        return self.units.hbar / (self.width_b * math.sqrt(2.0))


@dataclass(frozen=True)
class CoefficientSet:
    """Contiguous 1D coefficients a_n for n = index_lo, index_lo+1, ...

    norm_deficit = 1 - sum |a_n|^2 >= 0; sub-cutoff leading/trailing
    entries are trimmed away.
    """

    index_lo: int
    coefficients: np.ndarray
    norm_deficit: float
    warnings: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "coefficients", np.asarray(self.coefficients, dtype=complex))

    @property
    def indices(self) -> np.ndarray:
        return self.index_lo + np.arange(len(self.coefficients))

    def weights(self) -> np.ndarray:
        return np.abs(self.coefficients) ** 2

    def to_csv(self, path) -> None:
        a = self.coefficients
        write_csv(path, "index1,index2,re,im\n", "%s,,%.17g,%.17g\n", (self.indices, a.real, a.imag))


@dataclass(frozen=True)
class CoefficientSet2D:
    """Coefficients labeled by integer index pairs (plus an optional
    symmetry tag, used by the triangular billiard)."""

    labels: tuple
    coefficients: np.ndarray
    norm_deficit: float
    warnings: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "coefficients", np.asarray(self.coefficients, dtype=complex))

    def weights(self) -> np.ndarray:
        return np.abs(self.coefficients) ** 2

    def to_csv(self, path) -> None:
        a = self.coefficients
        columns = [[lab[0] for lab in self.labels], [lab[1] for lab in self.labels], a.real, a.imag]
        if any(len(lab) > 2 for lab in self.labels):
            columns.append([lab[2] if len(lab) > 2 else "" for lab in self.labels])
            write_csv(path, "index1,index2,re,im,symmetry\n", "%s,%s,%.17g,%.17g,%s\n", columns)
        else:
            write_csv(path, "index1,index2,re,im\n", "%s,%s,%.17g,%.17g\n", columns)


def _trim(index_lo: int, values: np.ndarray, rel_floor: float) -> tuple[int, np.ndarray]:
    keep = np.abs(values) >= rel_floor * np.max(np.abs(values))
    if not np.any(keep):
        raise DomainError("all coefficients below the retention cutoff")
    first = int(np.argmax(keep))
    last = len(keep) - int(np.argmax(keep[::-1]))
    return index_lo + first, values[first:last]


def _deficit(values: np.ndarray) -> float:
    # roundoff / quadrature overshoot below 1e-9 clamps to exactly zero
    d = 1.0 - float(np.sum(np.abs(values) ** 2))
    return 0.0 if -1e-9 < d < 0.0 else d


def _finish_1d(index_lo, values, warn_above=math.inf, warning="norm deficit {:.2e}: n_max may be too small"):
    deficit = _deficit(values)
    warnings = (warning.format(deficit),) if deficit > warn_above else ()
    return CoefficientSet(index_lo, values, deficit, warnings)


def _finish_2d(labels, values, warn_above: float, cap: str) -> CoefficientSet2D:
    deficit = _deficit(values)
    warnings = (f"norm deficit {deficit:.2e}: {cap} may be too small",) if deficit > warn_above else ()
    return CoefficientSet2D(tuple(labels), values, deficit, warnings)


def gaussian_model_coefficients(
    n0: float, delta_n: float, cutoff: float = 1e-8, index_min: int = 0
) -> CoefficientSet:
    """Real Gaussian ladder a_n = (dn*sqrt(2 pi))^(-1/2) exp(-(n-n0)^2/(4 dn^2))
    retained where |a_n| >= cutoff * peak."""
    if n0 <= 0 or delta_n <= 0 or not (0 < cutoff < 1):
        raise DomainError("require n0 > 0, delta_n > 0, 0 < cutoff < 1")
    half_width = 2.0 * delta_n * math.sqrt(max(-math.log(cutoff), 1.0))
    lo = max(index_min, int(math.floor(n0 - half_width)))
    hi = int(math.ceil(n0 + half_width))
    n = np.arange(lo, hi + 1, dtype=float)
    amp = (delta_n * math.sqrt(2.0 * math.pi)) ** -0.5
    a = amp * np.exp(-((n - n0) ** 2) / (4.0 * delta_n**2))
    lo, a = _trim(lo, a.astype(complex), cutoff)
    warn_above = 1e-3 if lo == index_min else math.inf
    return _finish_1d(lo, a, warn_above, "window truncated at the lower index boundary")


def poisson_coefficients(nbar: float, cutoff: float = 1e-9) -> CoefficientSet:
    """Real coherent-state ladder |a_n|^2 = Poisson(nbar); weights are
    evaluated in log space."""
    if nbar <= 0:
        raise DomainError("nbar must be positive")
    hi = int(math.ceil(nbar + 14.0 * math.sqrt(nbar) + 20))
    a = np.exp(0.5 * log_poisson(nbar, hi))
    lo, a = _trim(0, a.astype(complex), cutoff)
    return _finish_1d(lo, a)


def log_factorial(n: np.ndarray) -> np.ndarray:
    """log(n!) elementwise, through lgamma so large n stay finite."""
    return np.array([math.lgamma(x + 1.0) for x in n])


def log_poisson(nbar: float, n_cap: int) -> np.ndarray:
    """log of the Poisson weights e^-nbar nbar^n / n! for n = 0..n_cap
    (-inf above n = 0 when nbar = 0)."""
    if nbar == 0:
        return np.where(np.arange(n_cap + 1) == 0, 0.0, -np.inf)
    n = np.arange(n_cap + 1, dtype=float)
    return -nbar + n * math.log(nbar) - log_factorial(n)


def delta_n_estimate(p: PacketParams1D, L: float) -> float:
    """Index spread of a box-confined packet: L / (2 pi * dx0)."""
    return L / (p.dx0 * 2.0 * math.pi)


def _check_contained(clearances, dx0):
    worst = min(clearances)
    if worst < CONTAINMENT_SIGMAS * dx0:
        raise ContainmentError(
            f"packet center is {worst:.4g} from a wall; needs >= "
            f"{CONTAINMENT_SIGMAS * dx0:.4g}"
        )


def infinite_well_coefficients(p: PacketParams1D, L: float, n_max: int) -> CoefficientSet:
    """Closed-form box coefficients of a contained Gaussian packet.

    a_n = (1/2i) sqrt(4 b pi / (L sqrt(pi)))
          [e^{i n pi x0/L} e^{-b^2 (p0 + n pi hbar/L)^2 / 2 hbar^2}
           - e^{-i n pi x0/L} e^{-b^2 (p0 - n pi hbar/L)^2 / 2 hbar^2}]
    """
    _check_contained((p.x0, L - p.x0), p.dx0)
    if n_max < 1:
        raise DomainError(f"n_max must be at least 1, got {n_max}")
    if n_max * _BOX_BYTES_PER_INDEX > BOX_MAX_BYTES:
        raise TruncationError(
            f"box basis of {n_max:.3g} modes needs about "
            f"{n_max * _BOX_BYTES_PER_INDEX / 2**30:.3g} GiB (cap {BOX_MAX_BYTES / 2**30:.0f} GiB)"
        )
    hbar = p.units.hbar
    b = p.width_b
    n = np.arange(1, n_max + 1, dtype=float)
    kn = n * math.pi / L
    pref = math.sqrt(4.0 * b * math.pi / (L * math.sqrt(math.pi)))
    plus = np.exp(1j * kn * p.x0) * np.exp(-(b**2) * (p.p0 + kn * hbar) ** 2 / (2 * hbar**2))
    minus = np.exp(-1j * kn * p.x0) * np.exp(-(b**2) * (p.p0 - kn * hbar) ** 2 / (2 * hbar**2))
    a = pref / 2j * (plus - minus)
    lo, a = _trim(1, a, RELATIVE_FLOOR)
    return _finish_1d(lo, a, 1e-4)


def square_coefficients(
    x0: float, y0: float, p0x: float, p0y: float, width_b: float, L: float, n_max: int,
    units: UnitSystem = DEFAULT_UNITS,
) -> CoefficientSet2D:
    """Separable square-billiard coefficients a_nx b_ny: the outer product
    of the two closed-form 1D box sets, labels (nx, ny) nx-major."""
    cx, cy = (infinite_well_coefficients(PacketParams1D(x, p, width_b, units), L, n_max)
              for x, p in ((x0, p0x), (y0, p0y)))
    a, b = cx.coefficients, cy.coefficients
    # real and imaginary parts apart: the array complex multiply rounds
    # differently from the scalar product
    vals = (np.multiply.outer(a.real, b.real) - np.multiply.outer(a.imag, b.imag)).astype(complex)
    vals.imag = np.multiply.outer(a.real, b.imag) + np.multiply.outer(a.imag, b.real)
    labels = itertools.product(cx.indices.tolist(), cy.indices.tolist())
    return _finish_2d(labels, vals.ravel(), 1e-4, "n_max")


def bouncer_coefficients(
    z0: float,
    width_b: float,
    F: float = 1.0,
    units: UnitSystem = DEFAULT_UNITS,
    n_max: int = 120,
    p0: float = 0.0,
) -> CoefficientSet:
    """Overlap coefficients of a Gaussian packet released at height z0
    against the linear-potential-plus-wall eigenstates N_n Ai(z/rho - y_n),
    by Simpson quadrature over z0 +- 9 position spreads, one level at a
    time; no identity gives this projection in closed form."""
    dx0 = width_b / math.sqrt(2.0)
    _check_contained((z0,), dx0)
    rho = (units.hbar**2 / (2.0 * units.mass * F)) ** (1.0 / 3.0)
    z = np.linspace(max(0.0, z0 - 9.0 * dx0), z0 + 9.0 * dx0, 8193)
    w = _simpson_weights(z)
    psi = (
        (width_b * math.sqrt(math.pi)) ** -0.5
        * np.exp(-((z - z0) ** 2) / (2 * width_b**2))
        * np.exp(1j * p0 * (z - z0) / units.hbar)
    )
    levels = np.arange(n_max + 1)
    y, norms = _airy_levels(levels), bouncer_norm(levels, rho)
    vals = np.array([np.sum(w * (norms[n] * specfun.airy_ai(z / rho - y[n])) * psi) for n in levels])
    lo, a = _trim(0, vals, RELATIVE_FLOOR)
    return _finish_1d(lo, a, 1e-4)


def _airy_levels(n) -> np.ndarray:
    """The zeros y_n of Ai(-y) for an index or an index array."""
    n = np.asarray(n, dtype=int)
    if np.any(n < 0):
        raise RangeError("Airy level indices must be nonnegative")
    return specfun.airy_zeros(int(np.max(n)) + 1)[n]


def bouncer_norm(n, rho: float):
    """Normalization N_n of Ai(z/rho - y_n) on z > 0, for an index or an
    index array. The integral of Ai^2 from a zero a_n to infinity is
    Ai'(a_n)^2 (DLMF 9.11(iv)), so N_n = 1/(sqrt(rho) |Ai'(-y_n)|)."""
    y = _airy_levels(n)
    return 1.0 / (math.sqrt(rho) * np.abs(specfun.airy_ai_prime(-y)))


def _simpson_weights(x: np.ndarray) -> np.ndarray:
    # Composite Simpson weights for an odd-length uniform grid.
    if len(x) % 2 == 0:
        raise DomainError("Simpson grid needs an odd number of nodes")
    h = x[1] - x[0]
    w = np.ones_like(x)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * h / 3.0


# ----------------------------------------------------------------------
# Equilateral triangle billiard overlaps (closed-form Gaussian integrals)
# ----------------------------------------------------------------------

def _gauss_cos_integral(C, x0, p0_over_hbar, b):
    """integral e^{i p0 (x-x0)/hbar} e^{-(x-x0)^2/2b^2} cos(C x) dx."""
    C = np.asarray(C, dtype=float)
    g_plus = np.exp(-(b**2) * (p0_over_hbar + C) ** 2 / 2.0)
    g_minus = np.exp(-(b**2) * (p0_over_hbar - C) ** 2 / 2.0)
    return b * math.sqrt(2 * math.pi) / 2.0 * (np.exp(1j * C * x0) * g_plus + np.exp(-1j * C * x0) * g_minus)


def _gauss_sin_integral(C, x0, p0_over_hbar, b):
    """integral e^{i p0 (x-x0)/hbar} e^{-(x-x0)^2/2b^2} sin(C x) dx."""
    C = np.asarray(C, dtype=float)
    g_plus = np.exp(-(b**2) * (p0_over_hbar + C) ** 2 / 2.0)
    g_minus = np.exp(-(b**2) * (p0_over_hbar - C) ** 2 / 2.0)
    return b * math.sqrt(2 * math.pi) / 2j * (np.exp(1j * C * x0) * g_plus - np.exp(-1j * C * x0) * g_minus)


def triangle_state_labels(basis_cap: int) -> list[tuple[int, int, str]]:
    """(m, n, symmetry) labels with m >= 2n: two states for m > 2n, a
    single symmetric one at m = 2n."""
    labels = []
    for n in range(1, basis_cap // 2 + 1):
        for m in range(2 * n, basis_cap + 1):
            if m == 2 * n:
                labels.append((m, n, "o"))
            else:
                labels.append((m, n, "+"))
                labels.append((m, n, "-"))
    return labels


def triangle_wavefunction(label, x, y, L):
    """Eigenfunction of the equilateral billiard with vertices (0,0),
    (L/2, sqrt(3)L/2), (-L/2, sqrt(3)L/2); real, unit-normalized."""
    m, n, sym = label
    norm = math.sqrt(16.0 / (L**2 * 3.0 * math.sqrt(3.0)))
    cx = 2 * math.pi / (3 * L)
    cy = 2 * math.pi / (math.sqrt(3.0) * L)
    if sym == "-":
        return norm * (
            np.sin(cx * (2 * m - n) * x) * np.sin(cy * n * y)
            - np.sin(cx * (2 * n - m) * x) * np.sin(cy * m * y)
            - np.sin(cx * (m + n) * x) * np.sin(cy * (m - n) * y)
        )
    if sym == "+":
        return norm * (
            np.cos(cx * (2 * m - n) * x) * np.sin(cy * n * y)
            - np.cos(cx * (2 * n - m) * x) * np.sin(cy * m * y)
            + np.cos(cx * (m + n) * x) * np.sin(cy * (m - n) * y)
        )
    norm_o = math.sqrt(8.0 / (L**2 * 3.0 * math.sqrt(3.0)))
    return norm_o * (
        2.0 * np.cos(2 * math.pi * n * x / L) * np.sin(cy * n * y)
        - np.sin(2.0 * cy * n * y)
    )


def _triangle_wall_clearances(x0, y0, L):
    s3 = math.sqrt(3.0)
    # signed: a center outside the triangle has a negative clearance
    return (
        (y0 - s3 * x0) / 2.0,   # right wall through the origin
        (y0 + s3 * x0) / 2.0,   # left wall through the origin
        s3 * L / 2.0 - y0,      # top wall
    )


def triangle_coefficients(
    x0: float,
    y0: float,
    p0x: float,
    p0y: float,
    width_b: float,
    L: float,
    basis_cap: int,
    units: UnitSystem = DEFAULT_UNITS,
) -> CoefficientSet2D:
    """Closed-form overlap of a 2D Gaussian packet with the equilateral
    billiard eigenstates (wall containment required)."""
    dx0 = width_b / math.sqrt(2.0)
    _check_contained(_triangle_wall_clearances(x0, y0, L), dx0)
    b = width_b
    kx = p0x / units.hbar
    ky = p0y / units.hbar
    cx = 2 * math.pi / (3 * L)
    cy = 2 * math.pi / (math.sqrt(3.0) * L)
    norm = math.sqrt(16.0 / (L**2 * 3.0 * math.sqrt(3.0)))
    norm_o = math.sqrt(8.0 / (L**2 * 3.0 * math.sqrt(3.0)))
    gauss_norm = 1.0 / (b * math.sqrt(math.pi))  # 2D Gaussian prefactor

    labels = triangle_state_labels(basis_cap)
    vals = np.empty(len(labels), dtype=complex)
    ix_sin = lambda C: _gauss_sin_integral(C, x0, kx, b)
    ix_cos = lambda C: _gauss_cos_integral(C, x0, kx, b)
    iy_sin = lambda C: _gauss_sin_integral(C, y0, ky, b)
    for i, (m, n, sym) in enumerate(labels):
        if sym == "-":
            val = (
                ix_sin(cx * (2 * m - n)) * iy_sin(cy * n)
                - ix_sin(cx * (2 * n - m)) * iy_sin(cy * m)
                - ix_sin(cx * (m + n)) * iy_sin(cy * (m - n))
            ) * norm
        elif sym == "+":
            val = (
                ix_cos(cx * (2 * m - n)) * iy_sin(cy * n)
                - ix_cos(cx * (2 * n - m)) * iy_sin(cy * m)
                + ix_cos(cx * (m + n)) * iy_sin(cy * (m - n))
            ) * norm
        else:
            val = (
                2.0 * ix_cos(2 * math.pi * n / L) * iy_sin(cy * n)
                - ix_cos(0.0) * iy_sin(2 * cy * n)
            ) * norm_o
        vals[i] = gauss_norm * val
    return _finish_2d(labels, vals, 1e-4, "basis_cap")


# ----------------------------------------------------------------------
# Circular billiard overlaps (tensor Gauss-Legendre quadrature)
# ----------------------------------------------------------------------

_RADIAL_POINTS = 128
_ANGULAR_POINTS = 256


def circular_mode_norm(m: int, n_r: int, R: float) -> float:
    """Radial normalization N with integral_0^R [N J_|m|(k r)]^2 r dr = 1."""
    z = specfun.bessel_zero(abs(m), n_r).value
    jn1 = specfun.bessel_j(abs(m) + 1, z)
    return math.sqrt(2.0) / (R * abs(jn1))


def circular_coefficients(
    x0: float,
    y0: float,
    p0x: float,
    p0y: float,
    width_b: float,
    R: float,
    m_cap: int,
    nr_cap: int,
    units: UnitSystem = DEFAULT_UNITS,
) -> CoefficientSet2D:
    """Overlap of a 2D Gaussian packet with the circular-billiard modes
    J_|m|(k r) e^{i m theta}/sqrt(2 pi), by radial Gauss-Legendre x
    angular trapezoid quadrature."""
    dx0 = width_b / math.sqrt(2.0)
    r0 = math.hypot(x0, y0)
    _check_contained((R - r0,), dx0)
    b = width_b

    nodes, wts = np.polynomial.legendre.leggauss(_RADIAL_POINTS)
    r = 0.5 * R * (nodes + 1.0)
    wr = 0.5 * R * wts
    theta = 2.0 * math.pi * np.arange(_ANGULAR_POINTS) / _ANGULAR_POINTS
    wt = 2.0 * math.pi / _ANGULAR_POINTS

    x = r[:, None] * np.cos(theta)[None, :]
    y = r[:, None] * np.sin(theta)[None, :]
    psi = (
        (1.0 / (b * math.sqrt(math.pi)))
        * np.exp(-((x - x0) ** 2 + (y - y0) ** 2) / (2 * b**2))
        * np.exp(1j * (p0x * (x - x0) + p0y * (y - y0)) / units.hbar)
    )

    ms = np.arange(-m_cap, m_cap + 1)
    # angular transform: F[m, r_i] = sum_j w_t e^{-i m theta_j} psi(r_i, theta_j)
    phases = np.exp(-1j * np.outer(ms, theta)) * wt
    fm = phases @ psi.T  # (n_m, n_r)

    # one radial table per |m|, shared by +-m: J_|m|(z_k r / R) for every
    # order in one kernel call, and one more for the norms J_{|m|+1}(z_k)
    orders = np.arange(m_cap + 1)
    n_k, n_r = nr_cap + 1, len(r)
    zs = specfun.bessel_zeros_batch(orders, n_k)  # (n_order, n_k)
    args = zs[:, :, None] * r / R
    radial = specfun._bessel_batch(np.repeat(orders, n_k * n_r), args.ravel())
    radial = radial.reshape(m_cap + 1, n_k, n_r)
    j_next = specfun._bessel_batch(np.repeat(orders + 1, n_k), zs.ravel()).reshape(zs.shape)
    norms = math.sqrt(2.0) / (R * np.abs(j_next))

    vals = np.concatenate([norms[abs(m)] * (radial[abs(m)] @ (wr * r * fm[i])) / math.sqrt(2.0 * math.pi)
                           for i, m in enumerate(ms)])
    keep = np.abs(vals) >= RELATIVE_FLOOR * np.max(np.abs(vals))
    labels = itertools.compress(itertools.product(ms.tolist(), range(n_k)), keep)
    return _finish_2d(labels, vals[keep], 1e-3, "caps")
