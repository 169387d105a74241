"""Self-contained special functions: Bessel J (and internal Y), Airy Ai,
their zeros, and adaptive quadrature.

Everything here is built from series, asymptotic expansions, recurrences,
and an ODE Taylor march; no external special-function library is used.
Accuracy targets: |J_m| to <= 1e-10 absolute for z <= 200, m <= 60, and
root residuals <= 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError, RangeError, RootError

ORDER_MAX = 60
ARG_MAX = 2000.0
AIRY_ZERO_MAX = 500
_ASYMPTOTIC_SPLIT = 12.0


@dataclass(frozen=True)
class RootResult:
    """A refined root: location, residual of the defining function, and
    the number of refinement iterations used."""

    value: float
    residual: float
    iterations: int


# ----------------------------------------------------------------------
# Bessel J
# ----------------------------------------------------------------------

def _j01_series(z, m):
    # Ascending series; safe in double precision for z < ~14.
    half2 = 0.25 * z * z
    term = np.full_like(z, 1.0) if m == 0 else 0.5 * z
    total = term.copy()
    for k in range(1, 42):
        term = term * (-half2) / (k * (k + m))
        total += term
    return total


def _hankel_terms(zmin: float, m: int) -> int:
    # Term count of the large-argument expansion: add terms while they
    # shrink, stop after the first one below 1e-18. |a_j| is largest at
    # the smallest z (rounding is monotone), so this scalar replay at zmin
    # is the array-wide rule, and every z in the array gets the same count.
    mu = 4.0 * m * m
    a = 1.0
    zinv = 1.0 / zmin
    prev = math.inf
    for j in range(1, 18):
        a = a * (mu - (2 * j - 1) ** 2) / (8.0 * j) * zinv
        if abs(a) >= prev:
            return j - 1
        prev = abs(a)
        if prev < 1e-18:
            return j
    return 17


def _hankel_pq(z, m):
    # P and Q of the large-argument expansion, summed to the smallest term.
    mu = 4.0 * m * m
    p = np.ones_like(z)
    q = np.zeros_like(z)
    a = np.ones_like(z)
    zinv = 1.0 / z
    for j in range(1, _hankel_terms(float(np.min(z)), m) + 1):
        a = a * (mu - (2 * j - 1) ** 2) / (8.0 * j) * zinv
        # P = a0 - a2 + a4 - ...,  Q = a1 - a3 + a5 - ...
        sgn = 1.0 if (j // 2) % 2 == 0 else -1.0
        if j % 2 == 1:
            q += sgn * a
        else:
            p += sgn * a
    return p, q


def _j01_asym(z, m):
    chi = z - (0.5 * m + 0.25) * np.pi
    p, q = _hankel_pq(z, m)
    return np.sqrt(2.0 / (np.pi * z)) * (p * np.cos(chi) - q * np.sin(chi))


def _y01_asym(z, m):
    chi = z - (0.5 * m + 0.25) * np.pi
    p, q = _hankel_pq(z, m)
    return np.sqrt(2.0 / (np.pi * z)) * (p * np.sin(chi) + q * np.cos(chi))


def _j01(z, m):
    out = np.empty_like(z)
    small = z < _ASYMPTOTIC_SPLIT
    if np.any(small):
        out[small] = _j01_series(z[small], m)
    if np.any(~small):
        out[~small] = _j01_asym(z[~small], m)
    return out


def _miller_down(z, m):
    # Downward recurrence for z < m, normalized via J_0 + 2*sum J_{2k} = 1.
    start = m + int(math.ceil(math.sqrt(160.0 * max(m, 1)))) + 14
    if start % 2 == 1:
        start += 1
    jp = np.zeros_like(z)
    jc = np.full_like(z, 1e-30)
    norm = np.zeros_like(z)
    target = np.zeros_like(z)
    zsafe = np.where(z > 0, z, 1.0)
    for k in range(start, 0, -1):
        jm = (2.0 * k / zsafe) * jc - jp
        jp = jc
        jc = jm
        big = np.abs(jc) > 1e100
        if np.any(big):
            scale = np.where(big, 1e-100, 1.0)
            jc = jc * scale
            jp = jp * scale
            norm = norm * scale
            target = target * scale
        if (k - 1) == m:
            target = jc.copy()
        if (k - 1) > 0 and (k - 1) % 2 == 0:
            norm += 2.0 * jc
    norm += jc  # jc now holds J_0
    result = np.where(z > 0, target / norm, 0.0)
    return result


def _bessel_j_impl(m, z):
    if m == 0:
        return _j01(z, 0)
    if m == 1:
        return _j01(z, 1)
    out = np.zeros_like(z)
    up = z >= m
    if np.any(up):
        zu = z[up]
        jm1 = _j01(zu, 0)
        jc = _j01(zu, 1)
        for k in range(1, m):
            jm1, jc = jc, (2.0 * k / zu) * jc - jm1
        out[up] = jc
    down = (~up) & (z > 1e-12)
    if np.any(down):
        out[down] = _miller_down(z[down], m)
    return out


def _validate_bessel_args(order, z):
    if order < 0 or order != int(order):
        raise RangeError(f"Bessel order must be a nonnegative integer, got {order}")
    if order > ORDER_MAX:
        raise RangeError(f"Bessel order {order} outside validated range (<= {ORDER_MAX})")
    if np.any(z < 0):
        raise RangeError("Bessel argument must be nonnegative")
    if np.any(z > ARG_MAX):
        raise RangeError(f"Bessel argument outside validated range (<= {ARG_MAX})")


def bessel_j(order: int, z) -> float | np.ndarray:
    """Bessel function of the first kind J_order(z) for z >= 0.

    Accepts a scalar or ndarray argument.
    """
    zarr = np.asarray(z, dtype=float)
    _validate_bessel_args(order, zarr)
    scalar = zarr.ndim == 0
    out = _bessel_j_impl(int(order), np.atleast_1d(zarr))
    return float(out[0]) if scalar else out


def bessel_j_prime(order: int, z) -> float | np.ndarray:
    """Derivative J'_order(z)."""
    zarr = np.asarray(z, dtype=float)
    _validate_bessel_args(order, zarr)
    scalar = zarr.ndim == 0
    za = np.atleast_1d(zarr)
    m = int(order)
    if m == 0:
        out = -_bessel_j_impl(1, za)
    else:
        zsafe = np.where(za > 0, za, 1.0)
        out = _bessel_j_impl(m - 1, za) - (m / zsafe) * _bessel_j_impl(m, za)
        out = np.where(za > 0, out, 0.5 if m == 1 else 0.0)
    return float(out[0]) if scalar else out


_EULER_GAMMA = 0.5772156649015328606


def _y01_series(z, m):
    # Series for Y_0 / Y_1 at z < 12, built on the J series.
    half2 = 0.25 * z * z
    logfac = (2.0 / np.pi) * (np.log(0.5 * z) + _EULER_GAMMA)
    if m == 0:
        total = np.zeros_like(z)
        term = np.ones_like(z)
        h = 0.0
        for k in range(1, 42):
            term = term * (-half2) / (k * k)
            h += 1.0 / k
            total += -term * h  # (-1)^{k+1} H_k (z^2/4)^k/(k!)^2
        return logfac * _j01_series(z, 0) + (2.0 / np.pi) * total
    total = np.zeros_like(z)
    term = 0.5 * z  # (z/2)^{2k+1}/(k!(k+1)!) at k=0
    hk = 0.0
    hk1 = 1.0
    for k in range(0, 42):
        # psi(k+1) + psi(k+2) = H_k + H_{k+1} - 2*gamma
        total += term * (hk + hk1 - 2.0 * _EULER_GAMMA) * (1 if k % 2 == 0 else -1)
        term = term * half2 / ((k + 1) * (k + 2))
        hk += 1.0 / (k + 1)
        hk1 += 1.0 / (k + 2)
    return (
        (2.0 / np.pi) * np.log(0.5 * z) * _j01_series(z, 1)
        - (2.0 / (np.pi * z))
        - (1.0 / np.pi) * total
    )


def _y01(z, m):
    out = np.empty_like(z)
    small = z < _ASYMPTOTIC_SPLIT
    if np.any(small):
        out[small] = _y01_series(z[small], m)
    if np.any(~small):
        out[~small] = _y01_asym(z[~small], m)
    return out


def _bessel_y(order: int, z) -> float | np.ndarray:
    """Bessel function of the second kind (internal; used by the annular
    eigenvalue condition). Upward recurrence is stable for Y."""
    zarr = np.asarray(z, dtype=float)
    if np.any(zarr <= 0):
        raise RangeError("Y_m requires z > 0")
    if order < 0 or order > ORDER_MAX:
        raise RangeError(f"Bessel order {order} outside validated range")
    scalar = zarr.ndim == 0
    za = np.atleast_1d(zarr)
    ym1 = _y01(za, 0)
    if order == 0:
        out = ym1
    else:
        yc = _y01(za, 1)
        for k in range(1, order):
            ym1, yc = yc, (2.0 * k / za) * yc - ym1
        out = yc
    return float(out[0]) if scalar else out


# ----------------------------------------------------------------------
# Bessel zeros
# ----------------------------------------------------------------------

def bessel_zero_seed(order: int, n_r: int) -> float:
    """Large-index expansion of the n_r-th positive zero of J_order.

    Leading term (n_r + order/2 + 3/4)*pi with inverse-power corrections;
    used as the Newton starting point and by the semiclassical billiard
    spectra.
    """
    m = order
    z0 = (n_r + 0.5 * m + 0.75) * math.pi
    m2 = float(m) * m
    return (
        z0
        - 0.5 * m2 / z0
        - (7.0 / 24.0) * m2 * m2 / z0**3
        - (83.0 / 240.0) * m2**3 / z0**5
        - (6949.0 / 13440.0) * m2**4 / z0**7
    )


def _vector_newton(f, fp, lo, hi, x0, tol_residual=1e-13, cap=90):
    """Safeguarded Newton on a batch of bracketed simple roots; returns
    (roots, per-root iteration counts)."""
    lo = lo.copy()
    hi = hi.copy()
    x = np.clip(x0, lo, hi)
    slo = np.sign(f(lo))
    iters = np.zeros(len(np.atleast_1d(x)), dtype=int)
    settled = np.zeros_like(iters, dtype=bool)
    for _ in range(cap):
        fx = f(x)
        same = np.sign(fx) == slo
        lo = np.where(same, x, lo)
        hi = np.where(same, hi, x)
        d = fp(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            raw = x - fx / d
        # convergence judged on the raw Newton step, before safeguarding
        step_tiny = np.abs(raw - x) <= 1e-14 * np.maximum(1.0, np.abs(x))
        done = (np.abs(fx) <= tol_residual) & np.isfinite(raw) & step_tiny
        bad = ~np.isfinite(raw) | (raw < lo) | (raw > hi)
        xn = np.where(bad, 0.5 * (lo + hi), raw)
        iters += ~settled
        settled |= done
        x = np.where(done, x, xn)
        if np.all(done):
            return x, iters
    fx = f(x)
    if np.all(np.abs(fx) <= tol_residual):
        return x, iters
    raise RootError("batch root refinement stalled")


def _scan_bessel_zeros(order: int, count: int) -> list[tuple[float, int]]:
    """First `count` positive zeros of J_order, located by sign-change scan
    (guarantees the index) then Newton-polished as a batch; returns
    (value, iterations) pairs."""
    m = order
    # J_m > 0 on (0, first zero); zero spacing is > 3.1 for all orders.
    start = m + 0.1 if m > 0 else 0.25
    step = 1.2
    top = bessel_zero_seed(m, count + 1) + 4.0
    if top > ARG_MAX:
        raise RootError(f"zero {count} of J_{m} outside validated range")
    grid = np.arange(start, top, step)
    vals = bessel_j(m, grid)
    flips = np.nonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))[0][:count]
    if len(flips) < count:
        raise RootError(f"failed to bracket zero {count} of J_{m}")
    lo = grid[flips]
    hi = grid[flips + 1]
    seeds = np.array([bessel_zero_seed(m, k) for k in range(count)])
    roots, iters = _vector_newton(
        lambda x: bessel_j(m, x), lambda x: bessel_j_prime(m, x), lo, hi, seeds
    )
    return [(float(r), int(i)) for r, i in zip(roots, iters)]


BESSEL_ZERO_MAX = 200
_bessel_zero_cache: dict[int, list[RootResult]] = {}  # order -> validated zeros 0, 1, ...


def _bessel_zero_table(order: int, count: int) -> list[RootResult]:
    """The cached zeros of J_order, grown to at least `count` entries."""
    if order < 0 or order > ORDER_MAX:
        raise RangeError(f"order {order} outside validated range (<= {ORDER_MAX})")
    cached = _bessel_zero_cache.setdefault(order, [])
    if len(cached) < count:
        # grow geometrically so sequential requests stay linear overall
        found = _scan_bessel_zeros(order, max(count, 2 * len(cached), 16))
        roots = np.array([value for value, _ in found])
        residuals = np.abs(bessel_j(order, roots))
        bad = np.flatnonzero(residuals > 1e-12)
        if bad.size:
            k = bad[0]
            raise RootError(f"zero {k} of J_{order} has residual {residuals[k]:.3e}")
        cached[:] = [
            RootResult(value=value, residual=float(e), iterations=iterations)
            for (value, iterations), e in zip(found, residuals)
        ]
    return cached


def bessel_zeros(order: int, count: int) -> np.ndarray:
    """The first `count` positive zeros of J_order, as an array."""
    if count < 0 or count > BESSEL_ZERO_MAX + 1:
        raise RangeError(f"zero count {count} outside validated range (<= {BESSEL_ZERO_MAX + 1})")
    return np.array([r.value for r in _bessel_zero_table(order, count)[:count]])


def bessel_zero(order: int, n_r: int) -> RootResult:
    """n_r-th positive zero of J_order (n_r = 0 is the first zero)."""
    if n_r < 0 or n_r > BESSEL_ZERO_MAX:
        raise RangeError(f"zero index {n_r} outside validated range (<= {BESSEL_ZERO_MAX})")
    return _bessel_zero_table(order, n_r + 1)[n_r]


# ----------------------------------------------------------------------
# Airy Ai
# ----------------------------------------------------------------------

_AI0 = 0.35502805388781723926    # Ai(0) = 3^(-2/3)/Gamma(2/3)
_AIP0 = -0.25881940379280679841  # Ai'(0) = -3^(-1/3)/Gamma(1/3)
_MARCH_STEP = 0.25
_MARCH_NODES = 37                # covers [-9, 0]
_TAYLOR_TERMS = 24
_POS_SPLIT = 5.7


def _airy_taylor_coeffs(x0: float, f0: float, fp0: float, nterms: int) -> np.ndarray:
    # Ai'' = x Ai  =>  (j+2)(j+1) c_{j+2} = x0 c_j + c_{j-1}
    c = np.zeros(nterms)
    c[0] = f0
    c[1] = fp0
    for j in range(nterms - 2):
        prev = c[j - 1] if j >= 1 else 0.0
        c[j + 2] = (x0 * c[j] + prev) / ((j + 2) * (j + 1))
    return c


def _build_airy_march():
    """Taylor-march Ai and Ai' leftward from 0 to -9; returns per-node
    Taylor coefficient tables. The negative axis is neutrally stable, so
    the march does not amplify errors."""
    nodes = -_MARCH_STEP * np.arange(_MARCH_NODES)
    coeffs = np.zeros((_MARCH_NODES, _TAYLOR_TERMS))
    f, fp = _AI0, _AIP0
    for i, x0 in enumerate(nodes):
        c = _airy_taylor_coeffs(float(x0), f, fp, _TAYLOR_TERMS)
        coeffs[i] = c
        if i + 1 < _MARCH_NODES:
            h = -_MARCH_STEP
            powers = h ** np.arange(_TAYLOR_TERMS)
            f = float(np.dot(c, powers))
            fp = float(np.dot(c[1:] * np.arange(1, _TAYLOR_TERMS), powers[:-1]))
    return nodes, coeffs


_march_nodes, _march_coeffs = _build_airy_march()
_march_deriv_coeffs = _march_coeffs[:, 1:] * np.arange(1, _TAYLOR_TERMS)


def _airy_maclaurin(x, derivative=False):
    # Ai = c1*f - c2*g with the standard homogeneous pair f, g.
    f = np.ones_like(x)
    fp = np.zeros_like(x)
    g = x.copy()
    gp = np.ones_like(x)
    x3 = x * x * x
    tf = np.ones_like(x)
    tg = x.copy()
    for k in range(0, 30):
        tfn = tf * x3 / ((3 * k + 2) * (3 * k + 3))
        tgn = tg * x3 / ((3 * k + 3) * (3 * k + 4))
        f += tfn
        g += tgn
        fp += tfn * (3 * k + 3) / np.where(x != 0, x, 1.0)
        gp += tgn * (3 * k + 4) / np.where(x != 0, x, 1.0)
        tf, tg = tfn, tgn
    if derivative:
        return _AI0 * fp + _AIP0 * gp
    return _AI0 * f + _AIP0 * g


def _airy_march_eval(x, derivative=False):
    idx = np.clip(np.rint(-x / _MARCH_STEP).astype(int), 0, _MARCH_NODES - 1)
    h = x - _march_nodes[idx]
    table = _march_deriv_coeffs if derivative else _march_coeffs
    rows = table[idx]
    out = np.zeros_like(x)
    for j in range(rows.shape[1] - 1, -1, -1):
        out = out * h + rows[:, j]
    return out


def _airy_neg_asym(y, derivative=False):
    # Oscillatory expansion for Ai(-y), y >= 9. 18 terms are needed at the
    # y = 9 edge (zeta = 18) to hold Ai and Ai' within 4e-15 of mpmath.
    zeta = (2.0 / 3.0) * y ** 1.5
    s = np.zeros_like(y)
    c = np.zeros_like(y)
    sd = np.zeros_like(y)
    cd = np.zeros_like(y)
    u = np.ones_like(y)
    for k in range(0, 18):
        term = u / zeta**k
        d_term = term * (-(6 * k + 1) / (6 * k - 1) if k > 0 else 1.0)
        sign = 1.0 if (k // 2) % 2 == 0 else -1.0
        if k % 2 == 0:
            s += sign * term
            cd += sign * d_term
        else:
            c += sign * term
            sd += sign * d_term
        u = u * (6 * k + 5) * (6 * k + 1) / (72.0 * (k + 1))
    ang = zeta + 0.25 * np.pi
    if derivative:
        # d/dx Ai(x) at x = -y
        return -(y ** 0.25 / np.sqrt(np.pi)) * (np.cos(ang) * cd + np.sin(ang) * sd)
    return (1.0 / (np.sqrt(np.pi) * y ** 0.25)) * (np.sin(ang) * s - np.cos(ang) * c)


def _airy_pos_asym(x, derivative=False):
    zeta = (2.0 / 3.0) * x ** 1.5
    total = np.zeros_like(x)
    u = np.ones_like(x)
    for k in range(0, 14):
        term = u / zeta**k
        if derivative:
            term = term * (-(6 * k + 1) / (6 * k - 1) if k > 0 else 1.0)
        total += term if k % 2 == 0 else -term
        u = u * (6 * k + 5) * (6 * k + 1) / (72.0 * (k + 1))
    if derivative:
        return -(x ** 0.25) * np.exp(-zeta) / (2.0 * np.sqrt(np.pi)) * total
    return np.exp(-zeta) / (2.0 * np.sqrt(np.pi) * x ** 0.25) * total


def _airy_eval(x, derivative=False):
    out = np.empty_like(x)
    pos_big = x >= _POS_SPLIT
    pos = (x >= 0) & ~pos_big
    neg_march = (x < 0) & (x >= -9.0)
    neg_asym = x < -9.0
    if np.any(pos_big):
        out[pos_big] = _airy_pos_asym(x[pos_big], derivative)
    if np.any(pos):
        out[pos] = _airy_maclaurin(x[pos], derivative)
    if np.any(neg_march):
        out[neg_march] = _airy_march_eval(x[neg_march], derivative)
    if np.any(neg_asym):
        out[neg_asym] = _airy_neg_asym(-x[neg_asym], derivative)
    return out


def airy_ai(x) -> float | np.ndarray:
    """Airy function Ai(x) for real x (scalar or ndarray)."""
    xarr = np.asarray(x, dtype=float)
    scalar = xarr.ndim == 0
    out = _airy_eval(np.atleast_1d(xarr).astype(float))
    return float(out[0]) if scalar else out


def airy_ai_prime(x) -> float | np.ndarray:
    """Derivative Ai'(x) for real x."""
    xarr = np.asarray(x, dtype=float)
    scalar = xarr.ndim == 0
    out = _airy_eval(np.atleast_1d(xarr).astype(float), derivative=True)
    return float(out[0]) if scalar else out


def airy_zero_seed(n: int) -> float:
    """Seed for the n-th zero y_n of Ai(-y): (3*pi*(n + 3/4)/2)^(2/3)."""
    return (1.5 * math.pi * (n + 0.75)) ** (2.0 / 3.0)


_airy_zero_cache: list[RootResult] = []  # validated zeros 0, 1, ...


def _airy_zero_table(count: int) -> list[RootResult]:
    """The cached zeros of Ai(-y), grown to at least `count` entries."""
    if len(_airy_zero_cache) < count:
        ks = np.arange(len(_airy_zero_cache), count)
        seeds = np.array([airy_zero_seed(int(k)) for k in ks])
        below = np.array([airy_zero_seed(int(k) - 1) if k > 0 else 0.0 for k in ks])
        above = np.array([airy_zero_seed(int(k) + 1) for k in ks])
        lo = np.where(ks > 0, 0.5 * (below + seeds), 0.4 * seeds)
        hi = 0.5 * (seeds + above)
        fvals_lo = airy_ai(-lo)
        fvals_hi = airy_ai(-hi)
        if np.any(np.sign(fvals_lo) == np.sign(fvals_hi)):
            raise RootError("failed to bracket an Airy zero")
        roots, iters = _vector_newton(
            lambda y: airy_ai(-y), lambda y: -airy_ai_prime(-y), lo, hi, seeds
        )
        residuals = np.abs(airy_ai(-roots))
        bad = np.flatnonzero(residuals > 1e-12)
        if bad.size:
            k = bad[0]
            raise RootError(f"Airy zero {ks[k]} has residual {residuals[k]:.3e}")
        _airy_zero_cache.extend(
            RootResult(value=float(r), residual=float(e), iterations=int(i))
            for r, e, i in zip(roots, residuals, iters)
        )
    return _airy_zero_cache


def airy_zeros(count: int) -> np.ndarray:
    """The first `count` zeros y_0 < y_1 < ... of Ai(-y), as an array."""
    if count < 0 or count > AIRY_ZERO_MAX + 1:
        raise RangeError(f"Airy zero count {count} outside validated range (<= {AIRY_ZERO_MAX + 1})")
    return np.array([r.value for r in _airy_zero_table(count)[:count]])


def airy_zero(n: int) -> RootResult:
    """n-th zero y_n > 0 of Ai(-y) (n = 0 is the first zero, ~2.338)."""
    if n < 0 or n > AIRY_ZERO_MAX:
        raise RangeError(f"Airy zero index {n} outside validated range (<= {AIRY_ZERO_MAX})")
    return _airy_zero_table(n + 1)[n]


# ----------------------------------------------------------------------
# Quadrature
# ----------------------------------------------------------------------

def _simpson(f, a, fa, b, fb):
    m = 0.5 * (a + b)
    fm = f(m)
    return m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive(f, a, fa, b, fb, whole, m, fm, tol, depth):
    lm, flm, left = _simpson(f, a, fa, m, fm)
    rm, frm, right = _simpson(f, m, fm, b, fb)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    if depth <= 0:
        raise QuadratureError(f"integration did not converge on [{a}, {b}]")
    half = 0.5 * tol
    return (
        _adaptive(f, a, fa, m, fm, left, lm, flm, half, depth - 1)
        + _adaptive(f, m, fm, b, fb, right, rm, frm, half, depth - 1)
    )


def integrate(f, a: float, b: float, tol: float = 1e-10) -> float:
    """Adaptive Simpson integral of f on [a, b] to absolute accuracy tol."""
    if not a < b:
        raise RangeError(f"integration requires a < b, got [{a}, {b}]")
    fa, fb = f(a), f(b)
    if not (math.isfinite(fa) and math.isfinite(fb)):
        raise RangeError("integrand must be finite at the endpoints")
    m, fm, whole = _simpson(f, a, fa, b, fb)
    return _adaptive(f, a, fa, b, fb, whole, m, fm, tol, depth=50)
