"""Position-space synthesis for the 1D bases, expectation-value series,
the box phase-space (Wigner) distribution, and space-time probability
rasters with their traveling-wave decomposition."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .dynamics import _CHUNK, _phase_block
from .errors import DomainError, TruncationError
from .packets import CoefficientSet, _airy_levels, bouncer_norm
from .serialize import write_grid_csv, write_pgm
from .spectra import DEFAULT_UNITS, Spectrum1D, UnitSystem, eval_energy


@dataclass(frozen=True)
class AxisSpec:
    name: str
    lo: float
    hi: float
    count: int

    def __post_init__(self):
        if self.count < 2:
            raise DomainError("axis needs at least 2 samples")
        if not self.lo < self.hi:
            raise DomainError("axis needs lo < hi")

    def points(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.count)


@dataclass(frozen=True)
class FieldGrid:
    """Values on a rectangular lattice; values[i, j] pairs axis1 point i
    with axis2 point j."""

    axis1: AxisSpec
    axis2: AxisSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != (self.axis1.count, self.axis2.count):
            raise DomainError("grid shape must match the axis counts")
        object.__setattr__(self, "values", v)

    def to_csv(self, path) -> None:
        write_grid_csv(path, self.axis1, self.axis2, self.values)

    def to_pgm(self, path) -> None:
        # rows scan axis2 (e.g. time), columns axis1
        write_pgm(path, np.real(self.values).T)


@dataclass(frozen=True)
class ObservableSeries:
    times: np.ndarray
    mean_x: np.ndarray
    sd_x: np.ndarray
    mean_p: np.ndarray
    sd_p: np.ndarray


# ----------------------------------------------------------------------
# Bases
# ----------------------------------------------------------------------

class InfiniteWellBasis:
    """Box eigenstates sqrt(2/L) sin(n pi x / L) with E_n = (n pi hbar/L)^2 / 2m.

    Position / momentum matrix elements come from the standard closed
    forms in the sine basis (validated against quadrature in the tests).
    """

    def __init__(self, L: float = 1.0, units: UnitSystem = DEFAULT_UNITS):
        self.L = L
        self.units = units
        self.spectrum = Spectrum1D.infinite_well(L, units)

    def functions(self, n: np.ndarray, x: np.ndarray) -> np.ndarray:
        # rows: states, columns: positions
        nn = np.asarray(n, dtype=float)[:, None]
        return np.sqrt(2.0 / self.L) * np.sin(nn * math.pi * x[None, :] / self.L)

    def x_matrix(self, n: np.ndarray) -> np.ndarray:
        n = np.asarray(n, dtype=int)
        m = n[:, None]
        k = n[None, :]
        diff = m - k
        summ = m + k
        with np.errstate(divide="ignore", invalid="ignore"):
            val = (self.L / math.pi**2) * (
                (np.where(diff % 2 == 0, 0.0, -2.0)) / np.where(diff == 0, 1, diff) ** 2
                - (np.where(summ % 2 == 0, 0.0, -2.0)) / summ**2
            )
        np.fill_diagonal(val, self.L / 2.0)
        return val

    def x2_matrix(self, n: np.ndarray) -> np.ndarray:
        n = np.asarray(n, dtype=int)
        m = n[:, None]
        k = n[None, :]
        diff = m - k
        summ = m + k

        def piece(kk):
            # (1/L) * integral x^2 cos(kk pi x / L) dx over (0, L)
            out = np.where(kk % 2 == 0, 2.0, -2.0) * self.L**2 / (math.pi**2)
            return out / np.where(kk == 0, 1, kk) ** 2

        val = piece(diff) - piece(summ)
        np.fill_diagonal(val, self.L**2 / 3.0 - self.L**2 / (2.0 * math.pi**2 * n.astype(float) ** 2))
        return val

    def p_matrix(self, n: np.ndarray) -> np.ndarray:
        n = np.asarray(n, dtype=int)
        m = n[:, None].astype(float)
        k = n[None, :].astype(float)
        odd = (n[:, None] - n[None, :]) % 2 == 1
        with np.errstate(divide="ignore", invalid="ignore"):
            val = -1j * self.units.hbar * 4.0 * m * k / (self.L * (m**2 - k**2))
        return np.where(odd, val, 0.0)

    def p2_matrix(self, n: np.ndarray) -> np.ndarray:
        # p^2 commutes with H in the box: diag((n pi hbar / L)^2)
        return np.diag((np.asarray(n, dtype=float) * math.pi * self.units.hbar / self.L) ** 2)

    def momentum_transform(self, n: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Momentum-space eigenfunctions (rows: states), i.e. the Fourier
        transform of the sine modes over (0, L): with q = p/hbar it is
        [E(k_n - q) - E(-k_n - q)] / 2i, E(a) = L e^{iaL/2} sinc(aL/2), which
        has no removable singularity at q = +-k_n."""
        hbar = self.units.hbar
        kn = np.asarray(n, dtype=float)[:, None] * math.pi / self.L
        q = p[None, :] / hbar
        pref = np.sqrt(2.0 / self.L) / math.sqrt(2.0 * math.pi * hbar)

        def e(a):  # integral of e^{iax} over (0, L); np.sinc(v) = sin(pi v)/(pi v)
            return self.L * np.exp(0.5j * a * self.L) * np.sinc(a * self.L / (2.0 * math.pi))

        return pref * (e(kn - q) - e(-kn - q)) / 2j


class BouncerBasis:
    """Airy eigenstates N_n Ai(z/rho - y_n) of the linear-potential-plus-wall
    system, rho = (hbar^2 / 2mF)^(1/3). Matrix elements are the closed
    forms over the zeros y_n (Goodmanson, Am. J. Phys. 68 (2000) 866):
    with s = (-1)^(n-m+1) and d = y_n - y_m,
    <n|z|m> = 2 rho s / d^2 (diagonal 2 rho y_n / 3),
    <n|z^2|m> = 24 rho^2 s / d^4 (diagonal 8 rho^2 y_n^2 / 15), and
    <n|p|m> = i m (E_n - E_m) <n|z|m> / hbar = i hbar s / (rho d).
    """

    def __init__(self, F: float = 1.0, units: UnitSystem = DEFAULT_UNITS):
        self.F = F
        self.units = units
        self.rho = (units.hbar**2 / (2.0 * units.mass * F)) ** (1.0 / 3.0)
        self.spectrum = Spectrum1D.bouncer_airy(F, units)

    def _pairs(self, n: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(y_n, s, d) with d = y_n - y_m off the diagonal and 1 on it."""
        n = np.asarray(n, dtype=int)
        y = _airy_levels(n)
        s = np.where((n[:, None] - n[None, :]) % 2 == 0, -1.0, 1.0)
        d = y[:, None] - y[None, :]
        np.fill_diagonal(d, 1.0)
        return y, s, d

    def functions(self, n: np.ndarray, x: np.ndarray) -> np.ndarray:
        # rows: states, columns: positions
        n = np.asarray(n, dtype=int)
        y = _airy_levels(n)
        return bouncer_norm(n, self.rho)[:, None] * specfun.airy_ai(x[None, :] / self.rho - y[:, None])

    def x_matrix(self, n: np.ndarray) -> np.ndarray:
        y, s, d = self._pairs(n)
        val = 2.0 * self.rho * s / d**2
        np.fill_diagonal(val, 2.0 * self.rho * y / 3.0)
        return val

    def x2_matrix(self, n: np.ndarray) -> np.ndarray:
        y, s, d = self._pairs(n)
        val = 24.0 * self.rho**2 * s / d**4
        np.fill_diagonal(val, 8.0 * self.rho**2 * y**2 / 15.0)
        return val

    def p_matrix(self, n: np.ndarray) -> np.ndarray:
        _, s, d = self._pairs(n)
        val = 1j * self.units.hbar * s / (self.rho * d)
        np.fill_diagonal(val, 0.0)
        return val

    def p2_matrix(self, n: np.ndarray) -> np.ndarray:
        # p^2 = 2m (H - F z)
        h = np.diag(eval_energy(self.spectrum, n))
        return 2.0 * self.units.mass * (h - self.F * self.x_matrix(n))


def _basis_indices(c: CoefficientSet, basis) -> np.ndarray:
    n = c.indices
    if np.any(n < basis.spectrum.ground_index):
        raise DomainError("coefficient indices are not valid for this basis")
    return n


def psi_xt(c: CoefficientSet, basis, x_grid, t: float) -> np.ndarray:
    """psi(x, t) = sum_n a_n u_n(x) e^{-i E_n t / hbar} on the grid."""
    n = _basis_indices(c, basis)
    x = np.asarray(x_grid, dtype=float)
    u = basis.functions(n, x)
    return (c.coefficients * np.conj(_phase_block([t], n, basis.spectrum)[:, 0])) @ u


def observables(c: CoefficientSet, basis, t_grid) -> ObservableSeries:
    """Expectation values and spreads of position and momentum over time,
    from basis matrix elements."""
    n = _basis_indices(c, basis)
    mats = np.stack([basis.x_matrix(n), basis.x2_matrix(n), basis.p_matrix(n), basis.p2_matrix(n)])
    t_grid = np.asarray(t_grid, dtype=float)
    moments = np.empty((4, len(t_grid)))
    for start in range(0, len(t_grid), _CHUNK):
        block = _phase_block(t_grid[start : start + _CHUNK], n, basis.spectrum)
        a = c.coefficients[:, None] * np.conj(block)  # evolved coefficients, (N, T)
        # conj(a) . M . a for the four matrices at every time of the block
        quad = np.einsum("nt,knm,mt->kt", np.conj(a), mats, a, optimize=True)
        moments[:, start : start + _CHUNK] = quad.real
    mean_x, x2, mean_p, p2 = moments
    sd_x = np.sqrt(np.maximum(x2 - mean_x**2, 0.0))
    sd_p = np.sqrt(np.maximum(p2 - mean_p**2, 0.0))
    return ObservableSeries(t_grid, mean_x, sd_x, mean_p, sd_p)


def momentum_density(c: CoefficientSet, basis: InfiniteWellBasis, p_grid, t: float) -> np.ndarray:
    """|phi(p, t)|^2 from the analytic sine-basis transforms (no FFT
    windowing artifacts)."""
    n = _basis_indices(c, basis)
    p = np.asarray(p_grid, dtype=float)
    transform = basis.momentum_transform(n, p)
    phi = (c.coefficients * np.conj(_phase_block([t], n, basis.spectrum)[:, 0])) @ transform
    return np.abs(phi) ** 2


# ----------------------------------------------------------------------
# Box Wigner distribution
# ----------------------------------------------------------------------

def wigner_term(m: int, n: int, L: float, x, p, hbar: float = 1.0) -> np.ndarray:
    """Closed-form W^{(m,n)}(x, p) for box modes. The mirror substitution
    x -> L - x on the right half applies only to the integration-generated
    sine factors, not the plane-wave prefactors."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    xt = np.minimum(x, L - x)[:, None]  # mirrored coordinate
    xx = x[:, None]
    pp = p[None, :]

    def sinc_factor(d):
        # sin(d * xt / L) / d with the d -> 0 limit xt / L
        d = np.asarray(d, dtype=float)
        small = np.abs(d) < 1e-12
        dd = np.where(small, 1.0, d)
        return np.where(small, xt / L, np.sin(dd * xt / L) / dd)

    base = 2.0 * pp * L / hbar
    s1 = sinc_factor(base + (m + n) * math.pi)
    s2 = sinc_factor(base - (m + n) * math.pi)
    s3 = sinc_factor(base + (m - n) * math.pi)
    s4 = sinc_factor(base - (m - n) * math.pi)
    ph_diff = np.exp(1j * (m - n) * math.pi * xx / L)
    ph_sum = np.exp(1j * (m + n) * math.pi * xx / L)
    return (
        ph_diff * s1 + np.conj(ph_diff) * s2 - ph_sum * s3 - np.conj(ph_sum) * s4
    ) / (math.pi * hbar)


def default_momentum_span(p0: float, dp0: float) -> float:
    """Half-width of the momentum grid: 3 * (|p0| + 5 dp0)."""
    return 3.0 * (abs(p0) + 5.0 * dp0)


# working-array budget of wigner_infinite_well
WIGNER_MAX_BYTES = 1 << 30


def _wigner_work_bytes(x_count: int, p_count: int, mode_count: int) -> int:
    """Upper estimate of wigner_infinite_well's working arrays: eight
    complex x-by-p planes, eight complex x-by-shift tables and three
    complex shift-by-p tables."""
    shifts = 4 * (2 * mode_count - 1)
    return 16 * (8 * x_count * p_count + 8 * x_count * shifts + 3 * shifts * p_count)


def _index_convolution(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Linear convolution of the rows of u and v along the mode axis."""
    size = u.shape[1] + v.shape[1] - 1
    nfft = 1 << (size - 1).bit_length()
    spectrum = np.fft.fft(u, nfft, axis=1) * np.fft.fft(v, nfft, axis=1)
    return np.fft.ifft(spectrum, axis=1)[:, :size]


def wigner_infinite_well(
    c: CoefficientSet,
    L: float,
    x_grid,
    p_grid,
    t: float,
    units: UnitSystem = DEFAULT_UNITS,
) -> FieldGrid:
    """Phase-space quasiprobability W(x, p; t) of a box packet: the
    ordered sum of conj(a_m) a_n W^{(m,n)} over all retained modes.

    With theta = pi x/L, b = 2pL/hbar and S(d) = sin(d xt/L)/d on the
    mirrored xt = min(x, L - x), each `wigner_term` is four pieces
    e^{+-i(m -+ n) theta} S(b +- k pi). The pair sum therefore groups by
    the shift j = +-(m + n) and j = +-(m - n): one convolution along the
    mode axis per piece gives, at each x, the coefficient D_j(x) of
    S(b + j pi). Writing sin((b + j pi) xt/L) = sin B cos(j phi) +
    cos B sin(j phi), with B = b xt/L and phi = pi xt/L, turns the sum
    over j into two matrix products against K[j, p] = 1/(b_p + j pi), so
    N modes on an X-by-P grid cost O(N X P), not O(N^2 X P). Cells with
    |b_p + j pi| < 1e-3, where the split cancels, take the direct sinc.
    """
    x = np.asarray(x_grid, dtype=float)
    p = np.asarray(p_grid, dtype=float)
    if np.any(x <= 0.0) or np.any(x >= L):
        raise DomainError("x grid must lie strictly inside the box")
    basis = InfiniteWellBasis(L, units)
    n = _basis_indices(c, basis)
    need = _wigner_work_bytes(len(x), len(p), len(n))
    if need > WIGNER_MAX_BYTES:
        raise TruncationError(
            f"Wigner grid {len(x)}x{len(p)} with {len(n)} modes needs about "
            f"{need / 2**30:.2f} GiB of working arrays (cap {WIGNER_MAX_BYTES / 2**30:.0f} GiB)"
        )
    a_t = c.coefficients * np.conj(_phase_block([t], n, basis.spectrum)[:, 0])
    e = np.exp(1j * math.pi * np.outer(x, n) / L)  # e^{i n theta}, (X, N)
    u_plus, u_minus = np.conj(a_t) * e, np.conj(a_t) * np.conj(e)
    v_plus, v_minus = a_t * e, a_t * np.conj(e)
    sums = 2 * int(n[0]) + np.arange(2 * len(n) - 1)  # m + n
    diffs = np.arange(2 * len(n) - 1) - (len(n) - 1)  # m - n
    shift = np.concatenate([sums, -sums, diffs, -diffs]).astype(float)
    rows = np.concatenate(
        [
            _index_convolution(u_plus, v_minus),
            _index_convolution(u_minus, v_plus),
            -_index_convolution(u_plus, v_plus[:, ::-1]),
            -_index_convolution(u_minus, v_minus[:, ::-1]),
        ],
        axis=1,
    )  # D_j(x), (X, J)
    xt = np.minimum(x, L - x)  # mirrored coordinate
    base = 2.0 * p * L / units.hbar
    d = base[None, :] + shift[:, None] * math.pi  # (J, P)
    near = np.abs(d) < 1e-3
    kern = np.where(near, 0.0, 1.0 / np.where(near, 1.0, d))
    jphi = np.outer(xt / L, shift) * math.pi
    b_arg = np.outer(xt / L, base)  # B
    total = np.sin(b_arg) * ((rows * np.cos(jphi)) @ kern)
    total += np.cos(b_arg) * ((rows * np.sin(jphi)) @ kern)
    for k in np.flatnonzero(near.any(axis=0)):
        js = np.flatnonzero(near[:, k])
        dk = d[js, k]
        small = np.abs(dk) < 1e-12
        dd = np.where(small, 1.0, dk)
        sinc = np.where(small, xt[:, None] / L, np.sin(dd * xt[:, None] / L) / dd)
        total[:, k] += np.sum(rows[:, js] * sinc, axis=1)
    total /= math.pi * units.hbar
    max_imag = float(np.max(np.abs(total.imag)))
    if max_imag > 1e-10:
        raise DomainError(f"assembled distribution has imaginary residue {max_imag:.2e}")
    ax1 = AxisSpec("x", float(x[0]), float(x[-1]), len(x))
    ax2 = AxisSpec("p", float(p[0]), float(p[-1]), len(p))
    return FieldGrid(ax1, ax2, total.real)


def wigner_marginals(grid: FieldGrid, taper_fraction: float = 0.12) -> tuple[np.ndarray, np.ndarray]:
    """(position marginal, momentum marginal) by trapezoid integration
    over the grid axes.

    The momentum integration is cosine-tapered over the outer fraction of
    the axis: the hard-wall distribution carries conditionally-convergent
    oscillatory 1/p tails, and the smooth truncation averages them out.
    The bias is negligible when the grid spans the packet's momentum
    support.
    """
    x = grid.axis1.points()
    p = grid.axis2.points()
    window = np.ones(len(p))
    k = int(taper_fraction * len(p))
    if k > 1:
        ramp = 0.5 * (1.0 + np.cos(np.linspace(0.0, math.pi, k)))
        window[-k:] = ramp
        window[:k] = ramp[::-1]
    pos = np.trapezoid(grid.values * window[None, :], p, axis=1)
    mom = np.trapezoid(grid.values, x, axis=0)
    return pos, mom


# ----------------------------------------------------------------------
# Space-time rasters
# ----------------------------------------------------------------------

def carpet(
    c: CoefficientSet,
    L: float,
    x_count: int,
    t_count: int,
    t_hi: float,
    units: UnitSystem = DEFAULT_UNITS,
) -> tuple[FieldGrid, FieldGrid, FieldGrid]:
    """(total, traveling/classical, interference/quantum) probability
    rasters on (0, L) x (0, t_hi).

    The split groups the double sum into co-moving terms (frequencies
    n - m) and counter-moving terms (frequencies n + m); the two parts
    recombine to |psi|^2 identically.
    """
    if x_count < 64 or t_count < 64:
        raise DomainError("raster needs at least 64 x 64 samples")
    basis = InfiniteWellBasis(L, units)
    n = _basis_indices(c, basis).astype(float)
    x = np.linspace(0.0, L, x_count)
    ts = np.linspace(0.0, t_hi, t_count)
    xi = math.pi * np.outer(n, x) / L  # (N, X)
    e_plus = np.exp(1j * xi)
    cls = np.empty((x_count, t_count))
    qc = np.empty((x_count, t_count))
    for start in range(0, t_count, _CHUNK):
        block = _phase_block(ts[start : start + _CHUNK], n, basis.spectrum)
        for j, phases in enumerate(block.T, start):
            a_t = c.coefficients * np.conj(phases)
            w_plus = a_t @ e_plus
            w_minus = a_t @ np.conj(e_plus)
            cls[:, j] = (np.abs(w_plus) ** 2 + np.abs(w_minus) ** 2) / (2.0 * L)
            qc[:, j] = -np.real(w_plus * np.conj(w_minus)) / L
    ax1 = AxisSpec("x", 0.0, L, x_count)
    ax2 = AxisSpec("t", 0.0, t_hi, t_count)
    return (
        FieldGrid(ax1, ax2, cls + qc),
        FieldGrid(ax1, ax2, cls),
        FieldGrid(ax1, ax2, qc),
    )
