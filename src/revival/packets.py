"""Expansion-coefficient builders for localized Gaussian packets: the
model Gaussian ladder and closed-form projections onto the box, the
bouncer, and the square, triangular and circular billiards. No builder
uses quadrature: each overlap is a Gaussian integral over the whole line
or plane, and the containment check keeps the packet's tail beyond the
walls small."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContainmentError, DomainError, RangeError, TruncationError, check_work_bytes
from .serialize import write_csv
from .spectra import DEFAULT_UNITS, UnitSystem

RELATIVE_FLOOR = 1e-9     # coefficients below this fraction of the peak are dropped
CONTAINMENT_SIGMAS = 3.0  # required wall clearance in units of the position spread
_STIRLING_FROM = 20       # log_poisson's first level on the Stirling form


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


def label_array(q1, q2, symmetry="") -> np.ndarray:
    """The one 2D label format: (q1, q2, symmetry) records of the broadcast
    fields, flattened row-major, so one record is one label. The symmetry
    tag is '' where the geometry has none (all but the triangles)."""
    fields = [("q1", np.int64), ("q2", np.int64), ("symmetry", "<U1")]
    labels = np.empty(np.broadcast(q1, q2, symmetry).shape, fields)
    labels["q1"], labels["q2"], labels["symmetry"] = q1, q2, symmetry
    return labels.ravel()


@dataclass(frozen=True)
class CoefficientSet2D:
    """Coefficients with one `label_array` record each: integer index
    pairs, plus a symmetry tag on the triangular billiard."""

    labels: np.ndarray
    coefficients: np.ndarray
    norm_deficit: float
    warnings: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "coefficients", np.asarray(self.coefficients, dtype=complex))

    def weights(self) -> np.ndarray:
        return np.abs(self.coefficients) ** 2

    def to_csv(self, path) -> None:
        a, sym = self.coefficients, self.labels["symmetry"]
        columns = [self.labels["q1"], self.labels["q2"], a.real, a.imag]
        if np.any(sym != ""):
            write_csv(path, "index1,index2,re,im,symmetry\n", "%s,%s,%.17g,%.17g,%s\n", [*columns, sym])
        else:
            write_csv(path, "index1,index2,re,im\n", "%s,%s,%.17g,%.17g\n", columns)


def _peak(values: np.ndarray, hint: str) -> float:
    """max |value|: a DomainError unless it is nonzero and finite, since an
    all-zero set (a packet the basis cannot reach) has A(t) = 0 for all t."""
    peak = float(np.max(np.abs(values), initial=0.0))
    if not 0.0 < peak < math.inf:
        raise DomainError(f"no coefficient is nonzero and finite: {hint}")
    return peak


def _trim(index_lo: int, values: np.ndarray, rel_floor: float) -> tuple[int, np.ndarray]:
    keep = np.abs(values) >= rel_floor * _peak(values, "the packet lies outside the basis window")
    if not np.any(keep):
        raise DomainError("all coefficients below the retention cutoff")
    first = int(np.argmax(keep))
    last = len(keep) - int(np.argmax(keep[::-1]))
    return index_lo + first, values[first:last]


def _deficit(values: np.ndarray) -> float:
    # a roundoff overshoot below 1e-9 clamps to exactly zero
    d = 1.0 - float(np.sum(np.abs(values) ** 2))
    return 0.0 if -1e-9 < d < 0.0 else d


def _finish_1d(index_lo, values, warn_above=math.inf, warning="norm deficit {:.2e}: n_max may be too small"):
    deficit = _deficit(values)
    warnings = (warning.format(deficit),) if deficit > warn_above else ()
    return CoefficientSet(index_lo, values, deficit, warnings)


def _finish_2d(labels, values, warn_above: float, cap: str) -> CoefficientSet2D:
    peak = _peak(values, f"the packet lies outside the basis that {cap} spans")
    keep = np.abs(values) >= RELATIVE_FLOOR * peak
    values = values[keep]
    deficit = _deficit(values)
    warnings = (f"norm deficit {deficit:.2e}: {cap} may be too small",) if deficit > warn_above else ()
    return CoefficientSet2D(labels[keep], values, deficit, warnings)


def gaussian_model_coefficients(
    n0: float, delta_n: float, cutoff: float = 1e-8, index_min: int = 0
) -> CoefficientSet:
    """Real Gaussian ladder a_n = (dn*sqrt(2 pi))^(-1/2) exp(-(n-n0)^2/(4 dn^2))
    retained where |a_n| >= cutoff * peak."""
    if n0 <= 0 or delta_n <= 0 or not (0 < cutoff < 1):
        raise DomainError("require n0 > 0, delta_n > 0, 0 < cutoff < 1")
    if delta_n * delta_n == 0.0:
        raise DomainError(f"delta_n = {delta_n:g} is too narrow: its square underflows to 0")
    half_width = 2.0 * delta_n * math.sqrt(max(-math.log(cutoff), 1.0))
    if not n0 + half_width < 2.0**53:  # also catches an infinite window edge
        raise DomainError(
            f"level window reaches n = {n0 + half_width:.3g}; indices from 2^53 on are not exact"
        )
    lo = max(index_min, int(math.floor(n0 - half_width)))
    hi = int(math.ceil(n0 + half_width))
    # 64 B per level: the ladder's measured tracemalloc peak is 48 B per level
    check_work_bytes((hi - lo + 1) * 64, f"level window of {hi - lo + 1:.3g} levels")
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


def log_poisson(nbar: float, n_cap: int, n_lo: int = 0) -> np.ndarray:
    """log of the Poisson weights e^-nbar nbar^n / n! for n = n_lo..n_cap
    (-inf above n = 0 when nbar = 0).

    From n = 20 on this is the Stirling form (n - nbar) - n log1p((n -
    nbar)/nbar) - log(2 pi n)/2 - S(n), S(n) = 1/(12n) - 1/(360n^3) +
    1/(1260n^5) - 1/(1680n^7) (next term below 2e-15), whose terms stay
    O((n - nbar)^2 / nbar) where -nbar + n log nbar - log n! cancels from
    ~n log n; below n = 20 it is the latter, through lgamma."""
    n = np.arange(n_lo, n_cap + 1, dtype=float)
    if nbar == 0:
        return np.where(n == 0, 0.0, -np.inf)
    out = np.empty_like(n)
    small = n < _STIRLING_FROM
    out[small] = -nbar + n[small] * math.log(nbar) - log_factorial(n[small])
    big = n[~small]
    d, z = big - nbar, 1.0 / (big * big)
    series = (1.0 / 12.0 - z * (1.0 / 360.0 - z * (1.0 / 1260.0 - z / 1680.0))) / big
    with np.errstate(over="ignore"):  # d / nbar = inf at a subnormal nbar: weight 0, log -inf
        out[~small] = d - big * np.log1p(d / nbar) - 0.5 * np.log(2.0 * math.pi * big) - series
    return out


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
    # 96 B per mode: the builder's measured tracemalloc peak is 80 B per mode
    check_work_bytes(n_max * 96, f"box basis of {n_max:.3g} modes")
    hbar = p.units.hbar
    b = p.width_b
    n = np.arange(1, n_max + 1, dtype=float)
    kn = n * math.pi / L
    pref = math.sqrt(4.0 * b * math.pi / (L * math.sqrt(math.pi)))
    with np.errstate(over="ignore"):  # an overflowed exponent is the factor's limit, 0
        plus = np.exp(1j * kn * p.x0) * np.exp(-(b**2) * (p.p0 + kn * hbar) ** 2 / (2 * hbar**2))
        minus = np.exp(-1j * kn * p.x0) * np.exp(-(b**2) * (p.p0 - kn * hbar) ** 2 / (2 * hbar**2))
    a = pref / 2j * (plus - minus)
    lo, a = _trim(1, a, RELATIVE_FLOOR)
    return _finish_1d(lo, a, 1e-4)


def _scalar_product(a, b) -> np.ndarray:
    """a * b for complex arrays, each part two rounded products and one
    rounded sum as in numpy's scalar complex product (the array product may
    fuse them and round differently)."""
    a, b = np.broadcast_arrays(a, b)
    out = np.empty(a.shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def square_coefficients(
    x0: float, y0: float, p0x: float, p0y: float, width_b: float, L: float, m_cap: int,
    units: UnitSystem = DEFAULT_UNITS,
) -> CoefficientSet2D:
    """Separable square-billiard coefficients a_nx b_ny: the outer product
    of the two closed-form 1D box sets on modes 1..m_cap, labels (nx, ny)
    nx-major."""
    cx, cy = (infinite_well_coefficients(PacketParams1D(x, p, width_b, units), L, m_cap)
              for x, p in ((x0, p0x), (y0, p0y)))
    vals = _scalar_product(cx.coefficients[:, None], cy.coefficients[None, :])
    labels = label_array(cx.indices[:, None], cy.indices)
    return _finish_2d(labels, vals.ravel(), 1e-4, "m_cap")


def bouncer_coefficients(
    z0: float,
    width_b: float,
    F: float = 1.0,
    units: UnitSystem = DEFAULT_UNITS,
    n_max: int = 120,
) -> CoefficientSet:
    """Overlap coefficients of a Gaussian packet at rest at height z0
    against the linear-potential-plus-wall eigenstates N_n Ai(z/rho - y_n).

    The Airy heat-kernel identity (Vallee & Soares, Airy Functions and
    Applications to Physics, 2004)
        (4 pi tau)^(-1/2) int Ai(x) e^{-(x - a)^2 / 4 tau} dx = e^{tau a + 2 tau^3/3} Ai(a + tau^2)
    gives the projection in closed form: with tau = b^2 / (2 rho^2) and
    a = z0/rho - y_n,
        a_n = N_n (b sqrt(pi))^(-1/2) rho sqrt(4 pi tau) e^{tau a + 2 tau^3/3} Ai(a + tau^2),
    and rho sqrt(4 pi tau) = b sqrt(2 pi). The integral runs over the
    whole line, so the Gaussian's tail below the floor counts too, as in
    the box builder; the containment check keeps it small. Where
    a + tau^2 > 0 the exponent is summed against the scaled Ai, so e^{tau a}
    cannot overflow: the summed exponent is never positive."""
    from . import specfun

    _check_contained((z0,), width_b / math.sqrt(2.0))
    rho = (units.hbar**2 / (2.0 * units.mass * F)) ** (1.0 / 3.0)
    tau = width_b**2 / (2.0 * rho**2)
    levels = np.arange(n_max + 1)
    a = z0 / rho - _airy_levels(levels)
    x = a + tau**2
    exponent = tau * a + 2.0 * tau**3 / 3.0 - (2.0 / 3.0) * np.maximum(x, 0.0) ** 1.5
    pref = (width_b * math.sqrt(math.pi)) ** -0.5 * width_b * math.sqrt(2.0 * math.pi)
    vals = pref * bouncer_norm(levels, rho) * np.exp(exponent) * specfun.airy_ai_scaled(x)
    lo, vals = _trim(0, vals, RELATIVE_FLOOR)
    return _finish_1d(lo, vals, 1e-4)


def _airy_levels(n) -> np.ndarray:
    """The zeros y_n of Ai(-y) for an index or an index array."""
    from . import specfun

    n = np.asarray(n, dtype=int)
    if np.any(n < 0):
        raise RangeError("Airy level indices must be nonnegative")
    return specfun.airy_zeros(int(np.max(n)) + 1)[n]


def bouncer_norm(n, rho: float):
    """Normalization N_n of Ai(z/rho - y_n) on z > 0, for an index or an
    index array. The integral of Ai^2 from a zero a_n to infinity is
    Ai'(a_n)^2 (DLMF 9.11(iv)), so N_n = 1/(sqrt(rho) |Ai'(-y_n)|)."""
    from . import specfun

    y = _airy_levels(n)
    return 1.0 / (math.sqrt(rho) * np.abs(specfun.airy_ai_prime(-y)))


# ----------------------------------------------------------------------
# Equilateral triangle billiard overlaps (closed-form Gaussian integrals)
# ----------------------------------------------------------------------

def gaussian_transform(q, x0: float, k: float, b: float):
    """G(q; x0, k, b) = e^{i q x0} e^{-b^2 (k + q)^2 / 2}: the integral over
    the line of e^{i q x} e^{i k (x - x0)} e^{-(x - x0)^2 / 2b^2}, divided
    by b sqrt(2 pi). The 1D factor of every 2D Gaussian-packet overlap."""
    q = np.asarray(q, dtype=float)
    with np.errstate(over="ignore"):  # an overflowed exponent is the factor's limit, 0
        return np.exp(1j * q * x0) * np.exp(-(b**2) * (k + q) ** 2 / 2.0)


def triangle_state_labels(m_cap: int) -> np.ndarray:
    """`label_array` of the states with m <= m_cap, m >= 2n, n-major then
    m: two ('+', '-') for m > 2n, a single symmetric one ('o') at m = 2n.
    TruncationError when the tables would pass the work budget."""
    half = max(m_cap, 0) // 2
    # 160 B per (m, n) grid point, at least one label each: at m_cap
    # 1024 the tracemalloc peak per label is 141 B for triangle_coefficients
    # and 43 B for the equilateral levels table
    check_work_bytes(half * (m_cap + 1) * 160, f"triangle label table of m_cap {m_cap}")
    n, m = (a.ravel() for a in np.meshgrid(np.arange(1, half + 1), np.arange(m_cap + 1), indexing="ij"))
    pair = m >= 2 * n
    n, m = n[pair], m[pair]
    copies = np.where(m == 2 * n, 1, 2)
    labels = np.repeat(label_array(m, n, "-"), copies)
    labels["symmetry"][np.cumsum(copies) - copies] = np.where(copies == 1, "o", "+")
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
    m_cap: int,
    units: UnitSystem = DEFAULT_UNITS,
) -> CoefficientSet2D:
    """Closed-form overlap of a 2D Gaussian packet with the equilateral
    billiard eigenstates of m <= m_cap (wall containment required)."""
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
    if not math.isfinite(gauss_norm):  # a subnormal width, where inf * 0 would make NaN coefficients
        raise DomainError(f"width_b = {width_b:g} is too narrow: the prefactor 1/(b sqrt(pi)) overflows")

    labels = triangle_state_labels(m_cap)
    m, n, sym = labels["q1"], labels["q2"], labels["symmetry"]
    # the packet's 1D factors integrated against cos(C x), sin(C x), sin(C y)
    line = b * math.sqrt(2 * math.pi)
    ix_cos = lambda C: line / 2.0 * (gaussian_transform(C, x0, kx, b) + gaussian_transform(-C, x0, kx, b))
    ix_sin = lambda C: line / 2j * (gaussian_transform(C, x0, kx, b) - gaussian_transform(-C, x0, kx, b))
    iy_sin = lambda C: line / 2j * (gaussian_transform(C, y0, ky, b) - gaussian_transform(-C, y0, ky, b))
    vals = np.empty(len(m), dtype=complex)
    for branch in ("-", "+"):
        at = sym == branch
        mb, nb = m[at], n[at]
        ix = ix_sin if branch == "-" else ix_cos
        t1, t2, t3 = (_scalar_product(ix(cx * p), iy_sin(cy * q))
                      for p, q in ((2 * mb - nb, nb), (2 * nb - mb, mb), (mb + nb, mb - nb)))
        vals[at] = gauss_norm * (((t1 - t2) - t3 if branch == "-" else (t1 - t2) + t3) * norm)
    at = sym == "o"
    no = n[at]
    vals[at] = gauss_norm * ((_scalar_product(2.0 * ix_cos(2 * math.pi * no / L), iy_sin(cy * no))
                              - _scalar_product(ix_cos(0.0), iy_sin(2 * cy * no))) * norm_o)
    return _finish_2d(labels, vals, 1e-4, "m_cap")


# ----------------------------------------------------------------------
# Circular billiard overlaps (Jacobi-Anger rings of plane waves)
# ----------------------------------------------------------------------

_ALIAS_EXPONENT = 40.0  # aliased ring terms below e^-40 (4e-18) of the transform's scale
_ALIAS_ETA = np.geomspace(1e-3, 10.0, 200)  # contour shifts tried by the bound


def _disk_modes(m_cap: int, nr_cap: int, R: float) -> tuple[np.ndarray, np.ndarray]:
    """Zeros z_{m,n} and radial norms N_mn = sqrt(2) / (R |J_{m+1}(z_{m,n})|)
    (so that int_0^R [N J_m(z r/R)]^2 r dr = 1) for m <= m_cap, n <= nr_cap,
    as (m_cap + 1, nr_cap + 1) tables."""
    from . import specfun

    orders = np.arange(m_cap + 1)
    zs = specfun.bessel_zeros_batch(orders, nr_cap + 1)
    j_next = specfun._bessel_batch(np.repeat(orders + 1, nr_cap + 1), zs.ravel()).reshape(zs.shape)
    return zs, math.sqrt(2.0) / (R * np.abs(j_next))


def _ring_size(m_cap: int, k: np.ndarray, r0: float, b: float, p: float) -> int:
    """FFT size M for the ring transforms of one order, from the order's
    wavenumbers k and the packet's r0, b and |p0|/hbar.

    On the ring |q| = k the transform is 2 sqrt(pi) b e^{-b^2 (p^2 + k^2)/2}
    exp(b^2 k p.e(phi) - i k r0.e(phi)). Shifting the Fourier integral to
    Im phi = +-eta bounds its n-th coefficient by 2 sqrt(pi) b e^{h - |n| eta},
    h = -b^2 (p - k)^2 / 2 + b^2 k p (cosh eta - 1) + k r0 sinh eta,
    and an M-point FFT aliases orders |n| >= M - m_cap onto the kept ones.
    M is the smallest power of two that puts them below e^-40 for every k."""
    k = np.asarray(k, dtype=float)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):  # past |p| ~ 1e154, (p - k)^2 overflows
        h = (-(b**2) * (p - k) ** 2 / 2.0 + b**2 * k * p * (np.cosh(_ALIAS_ETA) - 1.0)
             + k * r0 * np.sinh(_ALIAS_ETA))
        n = np.max(np.min((h + _ALIAS_EXPONENT) / _ALIAS_ETA, axis=1))
    if np.isnan(n) or n == math.inf:
        raise TruncationError(f"no ring FFT size bounds the aliasing at |p0|/hbar = {p:.3g}")
    need = m_cap + math.ceil(max(n, m_cap + 1))  # n = -inf: the transform is 0 on every ring
    return 1 << (need - 1).bit_length()


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
    N_mk J_|m|(k r) e^{i m theta}/sqrt(2 pi), k = z_{|m|,n}/R, labels (m, n)
    m-major.

    Jacobi-Anger makes each mode a ring of plane waves:
    J_m(k r) e^{-i m theta} = i^m (1/2 pi) int dphi e^{-i m phi} e^{-i q.r},
    q = k (cos phi, sin phi). So a_mk = N_mk/sqrt(2 pi) s_m i^m c_m(k), with
    s_m = (-1)^m for m < 0 (J_{-m} = (-1)^m J_m) and c_m(k) the m-th Fourier
    coefficient of the packet's transform on the ring |q| = k,
    psi^(q) = 2 sqrt(pi) b G(-q_x; x0, p0x/hbar, b) G(-q_y; y0, p0y/hbar, b).
    An M-point FFT per order gives c_m exactly up to aliasing, which
    `_ring_size` bounds. The transform runs over the plane, not the disk;
    the containment check keeps the difference small."""
    dx0 = width_b / math.sqrt(2.0)
    r0 = math.hypot(x0, y0)
    _check_contained((R - r0,), dx0)
    b = width_b
    kx, ky = p0x / units.hbar, p0y / units.hbar

    zs, norms = _disk_modes(m_cap, nr_cap, R)
    n_k = nr_cap + 1

    # a = N/sqrt(2 pi) * 2 sqrt(pi) b * i^|m| c_m: s_m i^m = i^|m| for both signs
    vals = np.empty((2 * m_cap + 1, n_k), dtype=complex)
    for m in range(m_cap + 1):
        k = zs[m] / R
        size = _ring_size(m_cap, k, r0, b, math.hypot(kx, ky))
        phi = 2.0 * math.pi * np.arange(size) / size
        ring = gaussian_transform(-np.outer(k, np.cos(phi)), x0, kx, b)
        ring *= gaussian_transform(-np.outer(k, np.sin(phi)), y0, ky, b)
        c = np.fft.fft(ring, axis=1)[:, [m, -m]] / size
        scale = math.sqrt(2.0) * b * norms[m] * (1, 1j, -1, -1j)[m % 4]
        vals[m_cap + m] = scale * c[:, 0]
        vals[m_cap - m] = scale * c[:, 1]

    labels = label_array(np.arange(-m_cap, m_cap + 1)[:, None], np.arange(n_k))
    return _finish_2d(labels, vals.ravel(), 1e-3, "m_cap or nr_cap")
