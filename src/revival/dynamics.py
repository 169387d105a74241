"""Autocorrelation machinery: eigenbasis overlap series, the box
anti-correlation variant, closed forms for unbound and oscillator
packets, the Poisson-sum short-time approximation, collapse-time
estimates, and the overlap lower bound check."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError, TruncationError
from .serialize import BLOCK_ROWS, write_timeseries_csv
from .spectra import DEFAULT_UNITS, Spectrum1D, eval_energy

if TYPE_CHECKING:  # annotations only: the phase sums need no packet builder
    from .packets import CoefficientSet, PacketParams1D

TWO_PI = 2.0 * math.pi


def _two_pi_scaled(bits: int) -> int:
    """2 pi 2^bits to within 1, from Machin's pi = 16 acot(5) - 4 acot(239)
    in integer arithmetic; 16 guard bits absorb the truncations."""
    one = 1 << (bits + 16)

    def acot(x: int) -> int:
        total, power, k, sign = 0, one // x, 1, 1
        while power:
            total += sign * (power // k)
            power //= x * x
            k, sign = k + 2, -sign
        return total

    return (2 * (16 * acot(5) - 4 * acot(239))) >> 16


# every |omega t| of two finite doubles is below 2^2048, so 2200 bits keep
# k * (error of 2 pi) far below one ulp of the reduced phase; held as the
# integer 2 pi 2^2200, so that no Fraction is needed
_TWO_PI_SCALED = _two_pi_scaled(2200)
_BIG_PHASE = 1e8
# rows x times per block: a block's three or four float planes (1 MB) stay
# in L2; in-process, 2^14 is 20 % slower on caseA and 2^16 no faster
_PHASE_ELEMENTS = 1 << 15
_EXACT_ELEMENTS = 1024  # far products per slice: _payne_hanek's (8, n) tables stay at 64 KiB
# the factored phase sum (_phase_sum): offsets per base, sqrt(BLOCK_ROWS);
# levels x columns per table, which keeps a run's tables below the buffers
# of one _PHASE_ELEMENTS block; levels per block of the sum, so a table
# keeps at least 8 columns; and the bound on max|omega| max|r| that keeps
# the dropped second-order term below 2^-55
_OFFSETS = 64
_FACTOR_ELEMENTS = 1 << 13
_LEVEL_BLOCK = 1024
_LINEAR_GUARD = 2.0**-27


def _chop(x: float) -> float:
    # x > 0 cut to 26 significant bits, so k * _chop(x) stays exact for the k
    # of the Cody-Waite range
    m, e = math.frexp(x)
    return math.ldexp(math.floor(math.ldexp(m, 26)), e - 26)


def _two_pi_minus(*words: float) -> float:
    # 2 pi - sum(words) exactly, then rounded once (int / int rounds correctly)
    exact = sum((num << 2200) // den for num, den in (w.as_integer_ratio() for w in words))
    return (_TWO_PI_SCALED - exact) / (1 << 2200)


# 2 pi = P1 + P2 + P3 for Cody-Waite, and 2 pi = W1 + W2 + W3 to ~2^-160
_P1 = _chop(TWO_PI)
_P2 = _chop(_two_pi_minus(_P1))
_P3 = _two_pi_minus(_P1, _P2)
_W1 = TWO_PI
_W2 = _two_pi_minus(_W1)
_W3 = _two_pi_minus(_W1, _W2)


class _Buffers:
    """Named flat arrays reused from one phase block to the next: a request
    returns a contiguous view of the leading elements of the buffer of that
    name, which grows only when a larger shape is asked for. A view is
    overwritten by the next request of its name."""

    def __init__(self):
        self._flat: dict[str, np.ndarray] = {}

    def __call__(self, name: str, shape, dtype=float) -> np.ndarray:
        size = math.prod(shape)
        flat = self._flat.get(name)
        if flat is None or flat.size < size:
            flat = self._flat[name] = np.empty(size, dtype)
        return flat[:size].reshape(shape)

    def temps(self, shape) -> tuple[np.ndarray, np.ndarray]:
        """Two float temporaries of `shape` in the storage of the complex
        buffer "phase", for values that die before the phases are written."""
        size = math.prod(shape)
        flat = self("phase", shape, complex).reshape(-1).view(float)
        return flat[:size].reshape(shape), flat[size:].reshape(shape)


def _two_product(a, b, out=None) -> tuple[np.ndarray, np.ndarray]:
    # Dekker split product: a*b = hi + lo exactly (barring over/underflow);
    # `out` may give arrays (hi, lo, temporary) of the broadcast shape
    split = 134217729.0  # 2^27 + 1
    a_h = a * split - (a * split - a)
    a_l = a - a_h
    b_h = b * split - (b * split - b)
    b_l = b - b_h
    hi_out, lo_out, tmp = (None, None, None) if out is None else out
    hi = np.multiply(a, b, out=hi_out)
    # ((a_h b_h - hi) + a_h b_l + a_l b_h) + a_l b_l, accumulated in place
    lo = np.multiply(a_h, b_h, out=lo_out)
    lo -= hi
    for x, y in ((a_h, b_l), (a_l, b_h), (a_l, b_l)):
        lo += np.multiply(x, y, out=tmp)
    return hi, lo


def _two_sum(a, b):
    # Knuth's TwoSum: a + b = s + err exactly, for any ordering of |a|, |b|
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _split_on_grid(x, grid: float):
    """x = head + tail exactly, head rounded to a multiple of `grid` (a
    power of two); needs |x| < 2^51 * grid."""
    sigma = 1.5 * 2.0**52 * grid
    head = (sigma + x) - sigma
    return head, x - head


def _inverse_two_pi_windows() -> np.ndarray:
    """1/(2 pi) = sum_j T_j 2^(-25 (j + 1)) in 25-bit chunks T_0 .. T_87
    from the 2200-bit 2 pi (T_j = 0 for j < 0): column k of the (12, 82)
    table holds T_{k-5+i} 2^(-25 (i - 4)) in row i, the window of chunks
    that a product m 2^E with E // 25 = k (E <= 2048) needs."""
    inv = (1 << 4400) // _TWO_PI_SCALED
    chunks = [0] * 5 + [(inv >> (2175 - 25 * j)) & (2**25 - 1) for j in range(88)]
    return np.array([[math.ldexp(chunks[k + i], 25 * (4 - i)) for k in range(82)] for i in range(12)])


_INV_TWO_PI = _inverse_two_pi_windows()


def _payne_hanek(hi: np.ndarray, lo: np.ndarray, e: np.ndarray) -> np.ndarray:
    """x = (hi + lo) 2^e mod 2 pi, folded into [0, 2 pi) like Fraction.__mod__
    and rounded once (Payne and Hanek 1983), for |x| > 2^25 and |lo| <=
    ulp(hi) with no bit below 2^-125 of hi's binade (a mantissa product of
    two doubles has none below 2^-106).

    With hi = m 2^f and e + f = 25 k + rho, m + lo 2^-f splits into limbs
    u_a 2^(-25 a) (a = 1..5, |u_a| <= 2^25), and x / (2 pi) = 2^rho sum_a
    sum_d u_a T_{k-1+d} 2^(-25 (a + d)) sums exactly by diagonal s = a + d
    (below 2^52 units of 2^(-25 s)): s <= 0 are whole cycles, s = 1..8 are
    kept and the rest is below 2^-149. Their fractions go into words on the
    grids 2^-50 and 2^-100, so the cycle fraction F is off by < 2^-148
    before the one rounding of F 2 pi, formed from exact products."""
    m, f = np.frexp(hi)
    lo = np.ldexp(lo, -f)
    big = e + f
    k = big // 25
    scale = np.ldexp(1.0, big - 25 * k)  # 2^rho, in [1, 2^24]
    l1, rest = _split_on_grid(m, 2.0**-25)
    l2, rest = _split_on_grid(rest, 2.0**-50)
    head, tail = _split_on_grid(lo, 2.0**-75)
    l4, l5 = _split_on_grid(tail, 2.0**-100)
    window = np.take(_INV_TWO_PI, k, axis=1)
    # row s - 1 of d: diagonal s = 1..8, which reads row s + 3 - a of the
    # window for limb a (from 0), accumulated in place
    d = np.multiply(window[4:], l1 * scale)
    tmp = np.empty_like(d)
    for a, limb in enumerate((l2, rest + head, l4, l5), 1):
        d += np.multiply(window[4 - a : 12 - a], limb * scale, out=tmp)
    d[:3] -= np.rint(d[:3])  # whole cycles: |d_s| < 2^(76 - 25 s)
    head, rest = _split_on_grid(d, 2.0**-50)
    mid, low = _split_on_grid(rest, 2.0**-100)
    w1, w2, w3 = head.sum(axis=0), mid.sum(axis=0), low.sum(axis=0)
    head, w2 = _split_on_grid(w2, 2.0**-50)  # now |w2 + w3| < 2^-50, below w1's grid
    w1 += head
    # F = w1 + w2 + w3 folded into [0, 1): floor(F) is floor(w1), one less
    # where w1 is whole and the small words are negative
    cycles = np.floor(w1)
    cycles -= (w1 == cycles) & (w2 + w3 < 0.0)
    w1 -= cycles
    # F * 2 pi: w1 W1, w1 W2 and w2 W1 as exact pairs, the rest below 2^-95
    p, p_err = _two_product(w1, _W1)
    q, q_err = _two_product(w1, _W2)
    r, r_err = _two_product(w2, _W1)
    h, h_err = _two_sum(p, r)
    return h + (((h_err + p_err) + q) + ((q_err + r_err) + (w1 * _W3 + w2 * _W2 + w3 * _W1)))


def reduced_phase(omega, t, buf: _Buffers | None = None) -> np.ndarray:
    """omega * t reduced modulo 2*pi with extended-precision arithmetic,
    so that revival-scale phase alignments survive large |omega * t|.
    Broadcasts over both arguments; the result is the buffer "hi" of
    `buf` (fresh arrays when None). A non-finite omega or t is a
    DomainError.

    The product is formed exactly as 2^e (hi + lo) from the np.frexp
    mantissas, which never overflows. |omega t| <= 1e8 takes a three-part
    Cody-Waite reduction; every larger product is reduced exactly by
    _payne_hanek and rounded once, as Fraction arithmetic would."""
    buf = _Buffers() if buf is None else buf
    omega = np.asarray(omega, dtype=float)
    tarr = np.asarray(t, dtype=float)
    if not (np.isfinite(omega).all() and np.isfinite(tarr).all()):
        raise DomainError("phase omega * t needs a finite frequency and time")
    (m_omega, e_omega), (m_t, e_t) = np.frexp(omega), np.frexp(tarr)
    shape = np.broadcast_shapes(omega.shape, tarr.shape)
    k, tmp = buf.temps(shape)
    hi, lo = _two_product(m_omega, m_t, (buf("hi", shape), buf("lo", shape), tmp))
    # the exponents in the storage of tmp, which Cody-Waite needs only after the ldexp
    e = np.add(e_omega, e_t, out=tmp.reshape(-1).view(np.int32)[: tmp.size].reshape(shape))
    with np.errstate(over="ignore", invalid="ignore"):  # far products may overflow; they are replaced below
        far = np.greater(np.abs(np.ldexp(hi, e, out=k), out=k), _BIG_PHASE, out=buf("far", shape, bool))
        idx = np.flatnonzero(far)  # gathered from the mantissas one slice at a time
        far_phases = [_payne_hanek(*(a.reshape(-1)[idx[i : i + _EXACT_ELEMENTS]] for a in (hi, lo, e)))
                      for i in range(0, len(idx), _EXACT_ELEMENTS)]
        np.ldexp(hi, e, out=hi)
        np.ldexp(lo, e, out=lo)
        # hi = ((hi - k P1) - k P2) - k P3 + lo in place: x - y is x + (-y),
        # and x + y is y + x, bit for bit
        np.rint(np.divide(hi, TWO_PI, out=k), out=k)
        hi += np.multiply(k, -_P1, out=tmp)
        hi += np.multiply(k, -_P2, out=tmp)
        k *= -_P3
        hi += k
        hi += lo
    if far_phases:
        hi.reshape(-1)[idx] = np.concatenate(far_phases)
    return hi


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


def _unit_phases(theta: np.ndarray, buf: _Buffers) -> np.ndarray:
    """e^{i theta} as the buffer "phase": cos and sin are written into its
    interleaved float view, which gives the bits of np.exp(1j * theta)
    without forming a complex argument block."""
    out = buf("phase", theta.shape, complex)
    parts = out.view(float)
    np.cos(theta, out=parts[..., 0::2])
    np.sin(theta, out=parts[..., 1::2])
    return out


def _phase_angles(ts, n, s: Spectrum1D | None, buf: _Buffers) -> np.ndarray:
    """E_n t / hbar reduced modulo 2 pi as an (N, T) block in `buf`.

    `n` holds level indices of `s`, or angular frequencies E/hbar when `s`
    is None. A spectrum with a frequency polynomial keeps q_n = E_n/(2 pi
    hbar) in double-double and reduces q_n t modulo one cycle before the
    final multiply by 2 pi, which keeps quadratic revival phase alignments
    exact to the last rounding; other levels go through reduced_phase."""
    ts = np.asarray(ts, dtype=float)[None, :]
    g = None if s is None else s.frequency_polynomial()
    if g is None:
        omegas = n if s is None else eval_energy(s, n.astype(float)) / s.units.hbar
        return reduced_phase(omegas[:, None], ts, buf)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        q_hi, q_lo = _dd_cycles(g, n.astype(float))
        shape = (len(n), ts.shape[1])
        lo, tmp = buf.temps(shape)
        hi, lo = _two_product(q_hi[:, None], ts, (buf("hi", shape), lo, tmp))
        lo += np.multiply(q_lo[:, None], ts, out=tmp)
    if not np.isfinite(lo.sum()):  # lo is NaN/inf where a Dekker split overflowed (|q|, |t| > ~1e300)
        i, j = np.unravel_index(np.argmin(np.isfinite(lo)), lo.shape)
        raise DomainError(f"cycle product q*t overflows at index {n[i]:g}, t = {ts[0, j]:g}")
    hi -= np.rint(hi, out=tmp)
    hi += lo  # (hi - k) + lo in place
    hi *= TWO_PI
    return hi


def _phase_block(ts, n, s: Spectrum1D | None = None, buf: _Buffers | None = None) -> np.ndarray:
    """The unit phases e^{+i E_n t / hbar} as an (N, T) block, for a chunk
    of times from _phase_chunks; the one place that turns energies into
    phases (see _phase_angles for `n` and `s`). Passing one `buf` to every
    chunk reuses its buffers: the block is valid until the next call.
    Evolved coefficients are a_n * conj(block)."""
    buf = _Buffers() if buf is None else buf
    return _unit_phases(_phase_angles(ts, n, s, buf), buf)


def _phase_chunks(times: int, rows: int, align: int = 1):
    """Slices over `times` times: (rows, T) blocks of ~_PHASE_ELEMENTS, T a multiple of `align`."""
    step = max(1, _PHASE_ELEMENTS // (max(rows, 1) * align)) * align
    return (slice(start, start + step) for start in range(0, times, step))


def _phase_sum(w, n, t, s: Spectrum1D | None = None) -> np.ndarray:
    """sum_n w_n e^{+i omega_n t} (omega_n = E_n / hbar) on the grid t for
    real w, added in level order by einsum contractions (no BLAS).

    The rows of t are cut into runs of BLOCK_ROWS rows counted from the
    first row. In a run, row k = 64 b + j has the base t_b (the run's row
    64 b) and the offset tau_j = t_j - t_0 (the run's row j minus its row
    0); the residual r_k = (t_k - t_b) - tau_j keeps the rounding error of
    t_k - t_b (a TwoSum), so t_k = t_b + tau_j + r_k up to a rounding or
    two of r_k. Then, with P_nb = w_n e^{i omega_n t_b} and
    E_nj = e^{i omega_n tau_j},

        A_k = sum_n P_nb E_nj + i r_k sum_n omega_n P_nb E_nj,

    which drops (omega r)^2 / 2 <= 2^-55 when max|omega_n| max|r_k| <=
    2^-27 in the run. P and E come from _phase_block (its far-phase
    reduction is unchanged), so a run costs N (64 + c run / 64) unit
    phases, with c offset tables of up to _FACTOR_ELEMENTS / N columns
    (c = 1 up to 128 levels, 4 for 437), where the direct sum costs
    N run. The levels go in consecutive blocks of _LEVEL_BLOCK, each
    summed by this rule with the guard over its own max|omega_n|, and the
    block sums are added in order. A block's run that misses the guard or
    has fewer than 128 rows is summed directly, one phase per (level, time).

    The decomposition of a row depends only on its position in its run
    and on the run's times, never on N, on how the tables are chunked or
    on _PHASE_ELEMENTS: a grid streamed in BLOCK_ROWS blocks gets the bits
    of the whole grid; within one level block, adding levels of negligible
    weight leaves the other levels' terms as they were."""
    t = np.asarray(t, dtype=float)
    # padded to whole bases, so a factored run writes whole (base, offset) rows
    vals = np.empty(-(-len(t) // _OFFSETS) * _OFFSETS, dtype=complex)
    buf = _Buffers()
    omegas = _angular_frequencies(n, s) if len(n) else None
    for start in range(0, len(t), BLOCK_ROWS):
        run = t[start : start + BLOCK_ROWS]
        for lo in range(0, max(len(n), 1), _LEVEL_BLOCK):
            wb, nb = w[lo : lo + _LEVEL_BLOCK], n[lo : lo + _LEVEL_BLOCK]
            # the first block is written in place (a -0.0 stays -0.0), the later ones added
            out = vals[start : start + BLOCK_ROWS] if lo == 0 else buf("block", (BLOCK_ROWS,), complex)
            if not (omegas is not None and len(run) >= 2 * _OFFSETS
                    and _factored_run(wb, nb, s, omegas[lo : lo + _LEVEL_BLOCK], run, buf, out)):
                direct = out[: len(run)]
                for cols in _phase_chunks(len(run), len(nb)):
                    # real and imaginary parts as one float row: 5x faster than a complex einsum
                    direct[cols] = np.einsum("n,nt->t", wb, _phase_block(run[cols], nb, s, buf).view(float)).view(complex)
            if lo:
                vals[start : start + len(run)] += out[: len(run)]
    return vals[: len(t)]


def _angular_frequencies(n, s: Spectrum1D | None) -> np.ndarray | None:
    """E_n / hbar for the levels `n` of _phase_angles; None where an energy
    is not finite, which the direct sum reports in its own terms."""
    if s is None:
        return np.asarray(n, dtype=float)
    try:
        return eval_energy(s, np.asarray(n, dtype=float)) / s.units.hbar
    except DomainError:
        return None


def _factored_run(w, n, s, omegas, t, buf: _Buffers, out) -> bool:
    """Write the factored sum of one run (see _phase_sum) into `out`, which
    holds whole bases of 64 rows, and return True; or return False,
    writing nothing, when the run misses the linear-term guard.

    The offsets go `cols` at a time and the bases `bases` at a time, so no
    table holds more than 4 _FACTOR_ELEMENTS floats."""
    levels = len(n)
    cols = min(_OFFSETS, _FACTOR_ELEMENTS // levels)
    bases = min(_FACTOR_ELEMENTS // levels, _FACTOR_ELEMENTS // (4 * cols))
    count = -(-len(t) // _OFFSETS)
    # the run's times as (base, offset) rows; pad rows repeat the last time
    grid = buf("grid", (count, _OFFSETS))
    grid.reshape(-1)[: len(t)] = t
    grid.reshape(-1)[len(t) :] = t[-1]
    tau = grid[0] - grid[0, 0]
    # r = (t_k - t_b) - tau_j: the TwoSum keeps the rounding error e of
    # t_k - t_b, and subtracting tau_j is exact where t_k - t_b is within a
    # factor 2 of it (any uniform grid)
    d, e = _two_sum(grid, -grid[:, :1])
    r = np.add(d - tau, e, out=buf("residual", grid.shape))
    r.reshape(-1)[len(t) :] = 0.0
    del d, e
    with np.errstate(invalid="ignore", over="ignore"):
        if not np.max(np.abs(omegas)) * np.max(np.abs(r)) <= _LINEAR_GUARD:
            return False
    parts = out[: count * _OFFSETS].view(float).reshape(count, _OFFSETS, 2)
    for j0 in range(0, _OFFSETS, cols):
        js = slice(j0, j0 + cols)
        # E and i E as float rows: [Re E, Im E] and [-Im E, Re E] by offset
        phases = _phase_block(tau[js], n, s, buf).view(float).reshape(levels, -1, 2)
        offsets = buf("offsets", (levels, 2) + phases.shape[1:])
        offsets[:, 0] = phases
        np.negative(phases[..., 1], out=offsets[:, 1, :, 0])
        offsets[:, 1, :, 1] = phases[..., 0]
        for b0 in range(0, count, bases):
            bs = slice(b0, b0 + bases)
            t_b = grid[bs, 0]
            # [Re, Im] of P = w_n e^{i omega_n t_b} by base, then of omega_n P
            weighted = buf("weighted", (levels, 2, 2, len(t_b)))
            np.multiply(_phase_block(t_b, n, s, buf).view(float).reshape(levels, -1, 2).transpose(0, 2, 1),
                        w[:, None, None], out=weighted[:, :, 0])
            np.multiply(weighted[:, :, 0], omegas[:, None, None], out=weighted[:, :, 1])
            # x[q, b, j, d] = part d of sum_n Re P E + Im P (i E): S = sum_n P E
            # (q = 0) and T = sum_n omega P E (q = 1), each part one sum over
            # 2N terms; A = S + i r T
            x = np.einsum("nk,nm->km", weighted.reshape(2 * levels, -1), offsets.reshape(2 * levels, -1),
                          out=buf("sums", (2 * len(t_b), 2 * phases.shape[1])))
            x = x.reshape(2, len(t_b), -1, 2)
            np.subtract(x[0, ..., 0], r[bs, js] * x[1, ..., 1], out=parts[bs, js, 0])
            np.add(x[0, ..., 1], r[bs, js] * x[1, ..., 0], out=parts[bs, js, 1])
    return True


def autocorrelation(c: CoefficientSet, s: Spectrum1D, t_grid) -> TimeSeries:
    """A(t) = sum_n |a_n|^2 e^{+i E_n t / hbar} over the retained basis."""
    n = c.indices
    if np.any(n < s.ground_index):
        raise DomainError("coefficient indices fall outside the spectrum range")
    return TimeSeries(t_grid, _phase_sum(c.weights(), n, t_grid, s))


def anticorrelation_infinite_well(c: CoefficientSet, s: Spectrum1D, t_grid) -> TimeSeries:
    """Mirror overlap for the box: sum_n (-1)^(n+1) |a_n|^2 e^{+i E_n t/hbar},
    using the eigenstate parity about the box center."""
    n = c.indices
    if np.any(n < 1):
        raise DomainError("box coefficients are indexed from 1")
    return TimeSeries(t_grid, _phase_sum(np.where(n % 2 == 1, 1.0, -1.0) * c.weights(), n, t_grid, s))


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


def linspace_rows(stop: float, num: int, rows: slice) -> np.ndarray:
    """np.linspace(0.0, stop, num)[rows] for num >= 2, formed from the row
    indices alone as np.linspace forms the whole grid: index times step,
    the last point set to `stop`; the bits are those of np.linspace."""
    if not math.isfinite(stop):
        raise DomainError("time grid must be finite")
    div = num - 1
    t = np.arange(rows.start, rows.stop, dtype=float)
    step = stop / div
    if step == 0.0:  # np.linspace's route for a step that underflows
        t /= div
        t *= stop
    else:
        with np.errstate(over="ignore"):  # only the last row can round past the double range: set below
            t *= step
    t += 0.0  # the start: turns a -0.0 into 0.0, as np.linspace does
    if rows.stop == num:
        t[-1] = stop
    return t


def uniform_grid(t_hi: float, t_cl: float, samples_per_period: int = 40, t_lo: float = 0.0) -> np.ndarray:
    """Uniform grid with at least `samples_per_period` samples per t_cl,
    endpoint included."""
    steps = max(2, int(math.ceil((t_hi - t_lo) / t_cl * samples_per_period)))
    return np.linspace(t_lo, t_hi, steps + 1)
