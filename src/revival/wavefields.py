"""Position-space synthesis for the 1D bases, expectation-value series,
the box phase-space (Wigner) distribution, and space-time probability
rasters with their traveling-wave decomposition."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import _phase_block, _phase_chunks, _unit_phases
from .errors import DomainError, check_work_bytes
from .packets import CoefficientSet, _airy_levels, bouncer_norm
from .serialize import write_grid_csv, write_pgm, write_pgms
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
        if not -math.inf < self.lo < self.hi < math.inf:
            raise DomainError(f"axis {self.name} needs finite lo < hi, got {self.lo:g} .. {self.hi:g}")

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
        """The raster of this grid's real part; rows scan axis2 (e.g. time),
        columns axis1."""
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
        from . import specfun

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


def _operator_kind(m: np.ndarray) -> tuple[str, np.ndarray]:
    """("diag", d[:, None]) for a real diagonal M, ("real", M), ("imag", P)
    for M = iP with P real, else ("complex", M)."""
    if np.iscomplexobj(m):
        if np.any(m.real):
            return "complex", m
        return "imag", np.ascontiguousarray(m.imag)
    d = np.diagonal(m)
    if np.count_nonzero(m) == np.count_nonzero(d):
        return "diag", d[:, None]
    return "real", m


def observables(c: CoefficientSet, basis, t_grid) -> ObservableSeries:
    """Expectation values and spreads of position and momentum over time,
    from basis matrix elements."""
    n = _basis_indices(c, basis)
    # 64 B per (N, N) element: the four tables' measured tracemalloc peak is 56 B
    check_work_bytes(64.0 * len(n) ** 2, f"observables of {len(n)} modes")
    ops = [_operator_kind(m) for m in (basis.x_matrix(n), basis.x2_matrix(n), basis.p_matrix(n),
                                       basis.p2_matrix(n))]
    t_grid = np.asarray(t_grid, dtype=float)
    moments = np.empty((4, len(t_grid)))
    for cols in _phase_chunks(len(t_grid), len(n)):
        a = _phase_block(t_grid[cols], n, basis.spectrum)
        np.multiply(c.coefficients[:, None], np.conj(a, out=a), out=a)  # a_n(t) = c_n conj(phase)
        m_a = np.empty_like(a)
        # Re conj(a) . M . a per matrix and time, as Re a . conj(M a): the real
        # parts of the products are the same bits. einsum without `optimize`
        # sums in order, no BLAS. A real M acts on the (N, 2T) float view of
        # a, both parts in one real contraction, a diagonal one elementwise:
        # the zero parts a complex product would add change no bit. For
        # M = iP, Re a . conj(iP a) = Im a . conj(P a), term by term
        for row, (kind, m) in zip(moments, ops):
            if kind == "complex":
                np.einsum("nm,mt->nt", m, a, out=m_a)
            elif kind == "diag":
                np.multiply(m, a.view(float), out=m_a.view(float))
            else:
                np.einsum("nm,mt->nt", m, a.view(float), out=m_a.view(float))
            prod = np.einsum("nt,nt->t", a, np.conj(m_a, out=m_a))
            row[cols] = prod.imag if kind == "imag" else prod.real
        del a, m_a  # freed before the next chunk's blocks are formed
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


def _wigner_work_bytes(x_count: int, p_count: int, mode_count: int) -> int:
    """Loose upper estimate of the Wigner kernel's working arrays while it
    holds `x_count` x rows on `p_count` momenta: eight complex row-by-p
    planes, eight complex row-by-shift tables and three complex
    shift-by-p tables, with shifts counted before merging. Both the
    library grid and the streamed CSV work on one block of x rows at a
    time, and hold far less: the float shift-by-p kernel tables, and for
    the block its (rows, N) mode tables, FFT convolutions, complex D_j
    rows and planes of about dynamics._PHASE_ELEMENTS elements each."""
    shifts = 4 * (2 * mode_count - 1)
    return 16 * (8 * x_count * p_count + 8 * x_count * shifts + 3 * shifts * p_count)


def _index_convolution(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Linear convolution of the rows of u and v along the mode axis."""
    size = u.shape[1] + v.shape[1] - 1
    nfft = 1 << (size - 1).bit_length()
    spectrum = np.fft.fft(u, nfft, axis=1) * np.fft.fft(v, nfft, axis=1)
    return np.fft.ifft(spectrum, axis=1)[:, :size]


def _shifts(n: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """(shifts j, the column of each term of the four pieces) of
    `wigner_infinite_well`: pieces that share a shift value (diffs and
    -diffs always do) add into one column."""
    sums = 2 * int(n[0]) + np.arange(2 * len(n) - 1)  # m + n
    diffs = np.arange(2 * len(n) - 1) - (len(n) - 1)  # m - n
    shift, where = np.unique(np.concatenate([sums, -sums, diffs, -diffs]), return_inverse=True)
    return shift.astype(float), np.split(where, 4)


def _shift_rows(a_t: np.ndarray, n: np.ndarray, x: np.ndarray, L: float, cols, count: int) -> np.ndarray:
    """D_j(x) on the x rows `x`: one convolution along the mode axis per
    piece, added into the `count` shift columns that `cols` (from _shifts)
    name. Every row depends only on its own x. The (X, N) mode tables are
    freed on return."""
    e = np.exp(1j * math.pi * np.outer(x, n) / L)  # e^{i n theta}, (X, N)
    u_plus, u_minus = np.conj(a_t) * e, np.conj(a_t) * np.conj(e)
    v_plus, v_minus = a_t * e, a_t * np.conj(e)
    rows = np.zeros((len(x), count), dtype=complex)
    rows[:, cols[0]] += _index_convolution(u_plus, v_minus)
    rows[:, cols[1]] += _index_convolution(u_minus, v_plus)
    rows[:, cols[2]] -= _index_convolution(u_plus, v_plus[:, ::-1])
    rows[:, cols[3]] -= _index_convolution(u_minus, v_minus[:, ::-1])
    return rows


def _wigner_block(r, xt, L, shift, base, kern, near_cells) -> np.ndarray:
    """pi hbar W on the x rows whose D_j(x) are `r` and whose mirrored
    coordinates are the column `xt`; its temporaries are freed on return."""
    xl = xt / L
    jphi = xl * shift * math.pi
    cos_j, sin_j = np.cos(jphi), np.sin(jphi)
    planes = np.concatenate([r.real * cos_j, r.imag * cos_j, r.real * sin_j, r.imag * sin_j])
    # einsum without `optimize` sums over j in a fixed order and calls no BLAS
    c_re, c_im, s_re, s_im = np.einsum("xj,jp->xp", planes, kern).reshape(4, len(r), len(base))
    b_arg = xl * base  # B
    sin_b, cos_b = np.sin(b_arg), np.cos(b_arg)
    total = np.empty((len(r), len(base)), dtype=complex)
    total.real = sin_b * c_re + cos_b * s_re
    total.imag = sin_b * c_im + cos_b * s_im
    for k, js, dd, small in near_cells:
        sinc = np.where(small, xl, np.sin(dd * xt / L) / dd)
        total[:, k] += np.sum(r[:, js] * sinc, axis=1)
    return total


def _wigner_blocks(c: CoefficientSet, L: float, x: np.ndarray, p: np.ndarray, t: float, units: UnitSystem,
                   held: float = 0.0):
    """(x slice, W on those x rows) of `wigner_infinite_well`, in row order,
    in blocks of x rows whose widest plane holds about
    dynamics._PHASE_ELEMENTS elements. The kernel tables are built here,
    once; each block builds its own D_j rows and raises DomainError if its
    own imaginary residue passes 1e-10. The byte budget counts one block's
    tables and the kernel's, which is what the stream holds, plus the
    `held` bytes of a caller that keeps the rows."""
    if np.any(x <= 0.0) or np.any(x >= L):
        raise DomainError("x grid must lie strictly inside the box")
    basis = InfiniteWellBasis(L, units)
    n = _basis_indices(c, basis)
    shift, cols = _shifts(n)
    chunks = list(_phase_chunks(len(x), 4 * max(len(shift), len(p))))
    check_work_bytes(held + _wigner_work_bytes(min(chunks[0].stop, len(x)), len(p), len(n)),
                     f"Wigner grid {len(x)}x{len(p)} with {len(n)} modes")
    a_t = c.coefficients * np.conj(_phase_block([t], n, basis.spectrum)[:, 0])
    xt = np.minimum(x, L - x)  # mirrored coordinate
    base = 2.0 * p * L / units.hbar
    d = base[None, :] + shift[:, None] * math.pi  # (J, P)
    near = np.abs(d) < 1e-3
    kern = np.where(near, 0.0, 1.0 / np.where(near, 1.0, d))
    # cells where the split cancels: (column, its near shifts, d there, d below 1e-12)
    near_cells = []
    for k in np.flatnonzero(near.any(axis=0)):
        js = np.flatnonzero(near[:, k])
        dk = d[js, k]
        small = np.abs(dk) < 1e-12
        near_cells.append((k, js, np.where(small, 1.0, dk), small))
    del d, near

    def blocks():
        for xs in chunks:
            rows = _shift_rows(a_t, n, x[xs], L, cols, len(shift))
            total = _wigner_block(rows, xt[xs, None], L, shift, base, kern, near_cells)
            total /= math.pi * units.hbar
            max_imag = float(np.max(np.abs(total.imag)))
            if max_imag > 1e-10:
                raise DomainError(f"assembled distribution has imaginary residue {max_imag:.2e}")
            yield xs, total.real

    return blocks()


def _wigner_axes(x: np.ndarray, p: np.ndarray) -> tuple[AxisSpec, AxisSpec]:
    return AxisSpec("x", float(x[0]), float(x[-1]), len(x)), AxisSpec("p", float(p[0]), float(p[-1]), len(p))


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
    over j into one contraction of the real and imaginary planes of
    D_j cos(j phi) and D_j sin(j phi) against K[j, p] = 1/(b_p + j pi),
    so N modes on an X-by-P grid cost O(N X P), not O(N^2 X P). Pieces
    with equal shifts share one column, and the contraction runs in
    einsum's fixed order without BLAS, so the result does not depend on
    the BLAS thread count. Cells with |b_p + j pi| < 1e-3, where the split
    cancels, take the direct sinc on the merged columns. Everything runs
    over blocks of x rows whose widest plane holds about
    dynamics._PHASE_ELEMENTS elements, D_j included; every value depends
    only on its own row, so the grid has the same bits at any block size.
    The grid is held whole, so the byte budget counts its 8 B per cell
    besides one block; `write_wigner_csv` streams the same blocks.
    """
    x = np.asarray(x_grid, dtype=float)
    p = np.asarray(p_grid, dtype=float)
    blocks = _wigner_blocks(c, L, x, p, t, units, held=8.0 * len(x) * len(p))
    values = np.empty((len(x), len(p)))
    for xs, rows in blocks:
        values[xs] = rows
    return FieldGrid(*_wigner_axes(x, p), values)


def write_wigner_csv(c: CoefficientSet, L: float, x_grid, p_grid, t: float, path,
                     units: UnitSystem = DEFAULT_UNITS) -> None:
    """`wigner_infinite_well(...).to_csv(path)`, computed and written one
    block of x rows at a time, so that no X-by-P array is held."""
    x = np.asarray(x_grid, dtype=float)
    p = np.asarray(p_grid, dtype=float)
    write_grid_csv(path, *_wigner_axes(x, p), _wigner_blocks(c, L, x, p, t, units))


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

# times per carpet time block: the bench carpet (57 modes, 1024^2) peaks at
# 34.2 MB max-RSS with 16 and 36.4 MB with 32 in the same wall time, and at
# 33.2 MB with 8 but 15% slower (2-core x86-64, 2 BLAS threads)
_CARPET_TIMES = 16
# (mode, x) elements per column block of the carpet's e_plus table, 24 B
# each while built: the default 57-mode packet is one block at any x_count
_CARPET_TABLE = 1 << 20


def _carpet_blocks(c: CoefficientSet, basis: InfiniteWellBasis, x, ts):
    """(time slice, classical rows, quantum rows) of `carpet`, in blocks of
    _CARPET_TIMES times; the rows are (T, X), the PGM row order, formed in
    place. A time block takes one (2T, N) @ (N, X') product per column
    block of X' <= _CARPET_TABLE / N samples, whose rows a(t) and
    conj(a(t)) give the bits of one product per wave direction: w_minus =
    a @ conj(e_plus) is used only through conj(w_minus) = conj(a) @
    e_plus, which has the same modulus.

    One e_plus table is built, for the first column block. The block that
    starts at sample s reuses it, since on the grid x_j = jL/(X - 1)
    e^{i n pi x_j / L} = e^{i n pi x_s / L} e^{i n pi x_(j-s) / L}: both
    coefficient rows take the shift e^{i n pi x_s / L}, formed when the
    block is used. The first block is unshifted, so a carpet of one column
    block keeps its bits; later blocks carry the shift's rounding."""
    L = basis.L
    n = _basis_indices(c, basis).astype(float)
    width = min(max(1, _CARPET_TABLE // len(n)), len(x))
    # 48 B per (mode, x) cell of the table: the measured tracemalloc peak is 24 B per cell
    check_work_bytes(len(n) * width * 48, f"carpet of {len(n)} modes on {len(x)} x samples")
    theta = np.multiply.outer(n, x[:width])
    theta *= math.pi
    theta /= L
    # e_plus, (N, X'): cos and sin give the bits of np.exp(1j * theta);
    # complex exp ran 10x slower once a complex BLAS product had run
    # (2-core AVX-512 x86-64, OpenBLAS 0.3.31)
    e_plus = _unit_phases(theta)
    del theta  # not held through the time loop; the bench carpet's max-RSS was +0.6 MB with it held
    # the phases of a few product blocks per call: a call per block costs
    # more than its product, and a full _PHASE_ELEMENTS block peaks higher
    for chunk in _phase_chunks(len(ts), 8 * len(n), align=_CARPET_TIMES):
        phases = _phase_block(ts[chunk], n, basis.spectrum)
        for sub in range(0, phases.shape[1], _CARPET_TIMES):
            times = min(_CARPET_TIMES, phases.shape[1] - sub)
            a = np.empty((len(n), 2 * times), dtype=complex)  # columns a(t), then conj(a(t))
            np.multiply(c.coefficients[:, None], np.conj(phases[:, sub : sub + times]), out=a[:, :times])
            np.conj(a[:, :times], out=a[:, times:])
            w = np.empty((2 * times, len(x)), dtype=complex)
            np.matmul(a.T, e_plus, out=w[:, :width])
            for lo in range(width, len(x), width):
                cols = slice(lo, lo + width)
                shifted = a * _unit_phases(n * x[lo] * math.pi / L)[:, None]
                np.matmul(shifted.T, e_plus[:, : len(x[cols])], out=w[:, cols])
            w_plus, w_minus_conj = w[:times], w[times:]
            # (|w_plus|^2 + |w_minus|^2) / 2L and -Re(w_plus conj(w_minus)) / L, in place
            cls = np.abs(w_plus)
            cls **= 2
            part = np.abs(w_minus_conj)
            part **= 2
            cls += part
            cls /= 2.0 * L
            qc = np.negative(np.multiply(w_plus, w_minus_conj, out=w_plus).real, out=part)
            qc /= L
            start = chunk.start + sub
            yield slice(start, start + times), cls, qc
            del w, w_plus, w_minus_conj  # freed before the next block's w is formed


def _carpet_axes(L: float, x_count: int, t_count: int, t_hi: float) -> tuple[AxisSpec, AxisSpec]:
    if x_count < 64 or t_count < 64:
        raise DomainError("raster needs at least 64 x 64 samples")
    return AxisSpec("x", 0.0, L, x_count), AxisSpec("t", 0.0, t_hi, t_count)


def carpet(
    c: CoefficientSet,
    L: float,
    x_count: int,
    t_count: int,
    t_hi: float,
    units: UnitSystem = DEFAULT_UNITS,
) -> tuple[FieldGrid, FieldGrid]:
    """(traveling/classical, interference/quantum) probability rasters on
    (0, L) x (0, t_hi).

    The split groups the double sum into co-moving terms (frequencies
    n - m) and counter-moving terms (frequencies n + m); the two parts
    recombine to |psi|^2 identically, so the total raster is their
    elementwise sum. `write_carpet_pgms` writes the three rasters without
    holding any of them.
    """
    ax1, ax2 = _carpet_axes(L, x_count, t_count, t_hi)
    cls = np.empty((x_count, t_count))
    qc = np.empty((x_count, t_count))
    for cols, cls_rows, qc_rows in _carpet_blocks(c, InfiniteWellBasis(L, units), ax1.points(), ax2.points()):
        cls[:, cols] = cls_rows.T
        qc[:, cols] = qc_rows.T
    return FieldGrid(ax1, ax2, cls), FieldGrid(ax1, ax2, qc)


def write_carpet_pgms(
    c: CoefficientSet,
    L: float,
    x_count: int,
    t_count: int,
    t_hi: float,
    paths,
    units: UnitSystem = DEFAULT_UNITS,
) -> None:
    """The (total, classical, quantum) rasters of `carpet` as PGMs at the
    three `paths`, rows scanning time: two passes over `_carpet_blocks`,
    one for the maxima and one to write, so no X-by-T raster is held.
    The bytes are those of `write_pgm` on the transposed `carpet` grids
    and on their sum."""
    ax1, ax2 = _carpet_axes(L, x_count, t_count, t_hi)
    basis = InfiniteWellBasis(L, units)

    def blocks():
        for _, cls_rows, qc_rows in _carpet_blocks(c, basis, ax1.points(), ax2.points()):
            yield cls_rows + qc_rows, cls_rows, qc_rows

    write_pgms(paths, blocks)
