"""Self-contained special functions: Bessel J (and internal Y), Airy Ai,
and their zeros.

Everything here is built from series, asymptotic expansions, recurrences,
and an ODE Taylor march; no external special-function library is used.
Accuracy targets: |J_m| to <= 1e-10 absolute for z <= 200, m <= 60; Ai,
Ai' and the scaled Ai to <= 1e-13 of their local envelope (the modulus
sqrt(Ai^2 + Bi^2) for x < 0, the function itself above); root residuals
<= 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RangeError, RootError

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


def _check_order(order) -> None:
    if order < 0 or order > ORDER_MAX or order != int(order):
        raise RangeError(f"Bessel order {order} is not an integer in 0 .. {ORDER_MAX}")


def _elementwise(fn, x) -> float | np.ndarray:
    """fn applied to x as one flat float array, returned in x's shape; a
    float for a scalar x."""
    xarr = np.asarray(x, dtype=float)
    out = fn(xarr.ravel()).reshape(xarr.shape)
    return float(out) if xarr.ndim == 0 else out


# ----------------------------------------------------------------------
# Bessel J and Y: one order-batched kernel
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


# Terms of the large-argument expansion. At z >= 12 each term up to the
# 17th is smaller than the one before it (the worst ratio, m = 0 at the
# 17th, is 1089/1632), and once a term is below 1e-18 the rest no longer
# move P or Q by a bit.
_HANKEL_TERMS = 17


def _hankel_pq(z, m):
    # P and Q of the large-argument expansion of J_m / Y_m (m = 0, 1)
    mu = 4.0 * m * m
    p = np.ones_like(z)
    q = np.zeros_like(z)
    a = np.ones_like(z)
    zinv = 1.0 / z
    for j in range(1, _HANKEL_TERMS + 1):
        a = a * (mu - (2 * j - 1) ** 2) / (8.0 * j) * zinv
        # P = a0 - a2 + a4 - ...,  Q = a1 - a3 + a5 - ...
        sgn = 1.0 if (j // 2) % 2 == 0 else -1.0
        if j % 2 == 1:
            q += sgn * a
        else:
            p += sgn * a
    return p, q


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
    with np.errstate(over="ignore"):  # below z ~ 3.5e-309, Y_1 = -inf, which _upward and the ring keep
        return (
            (2.0 / np.pi) * np.log(0.5 * z) * _j01_series(z, 1)
            - (2.0 / (np.pi * z))
            - (1.0 / np.pi) * total
        )


def _j01_asym(z, m):
    chi = z - (0.5 * m + 0.25) * np.pi
    p, q = _hankel_pq(z, m)
    return np.sqrt(2.0 / (np.pi * z)) * (p * np.cos(chi) - q * np.sin(chi))


def _y01_asym(z, m):
    chi = z - (0.5 * m + 0.25) * np.pi
    p, q = _hankel_pq(z, m)
    return np.sqrt(2.0 / (np.pi * z)) * (p * np.sin(chi) + q * np.cos(chi))


def _order01(z, kind):
    """(F_0(z), F_1(z)) for F = J (kind 'j') or Y ('y'): the ascending
    series below the split, the Hankel expansion above it."""
    series, asym = (_j01_series, _j01_asym) if kind == "j" else (_y01_series, _y01_asym)
    f0 = np.empty_like(z)
    f1 = np.empty_like(z)
    small = z < _ASYMPTOTIC_SPLIT
    if np.any(small):
        f0[small] = series(z[small], 0)
        f1[small] = series(z[small], 1)
    big = ~small
    if np.any(big):
        f0[big] = asym(z[big], 0)
        f1[big] = asym(z[big], 1)
    return f0, f1


def _upward(orders, z, f0, f1):
    """F_m(z) from F_0 and F_1 by the forward three-term recurrence, each
    element stopped at its own order m (stable for Y, and for J at z >= m).
    Rows are swept in order of m, so each step touches only the rows that
    still need it."""
    out = np.where(orders == 0, f0, f1)
    rows = np.flatnonzero(orders >= 2)
    if rows.size == 0:
        return out
    rows = rows[np.argsort(orders[rows], kind="stable")]
    m = orders[rows]
    cut = np.searchsorted(m, np.arange(int(m[-1]) + 2))  # first row of order >= j
    zs, fm1, fc = z[rows], f0[rows], f1[rows]
    lo = 0
    # Y_m of a small argument may pass the double range: an element that
    # overflowed keeps its infinity, since the recurrence only grows there
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, int(m[-1])):
            s = cut[k + 1]
            fm1, fc = fc[s - lo :], (2.0 * k / zs[s:]) * fc[s - lo :] - fm1[s - lo :]
            fc = np.where(np.isinf(fm1), fm1, fc)
            lo = s
            out[rows[s : cut[k + 2]]] = fc[: cut[k + 2] - s]
    return out


def _miller_down(z, orders):
    # Downward recurrence for z < m, normalized via J_0 + 2*sum J_{2k} = 1.
    # Each element joins the one sweep at its own order's start index.
    start = orders + np.ceil(np.sqrt(160.0 * np.maximum(orders, 1))).astype(int) + 14
    start += start % 2
    joins = set(start.tolist())
    targets = set(orders.tolist())
    jp = np.zeros_like(z)
    jc = np.zeros_like(z)
    norm = np.zeros_like(z)
    target = np.zeros_like(z)
    for k in range(int(np.max(start)), 0, -1):
        if k in joins:
            jc = np.where(start == k, 1e-30, jc)
        jm = (2.0 * k / z) * jc - jp
        jp = jc
        jc = jm
        big = np.abs(jc) > 1e100
        if np.any(big):
            scale = np.where(big, 1e-100, 1.0)
            jc = jc * scale
            jp = jp * scale
            norm = norm * scale
            target = target * scale
        if (k - 1) in targets:
            target = np.where(orders == k - 1, jc, target)
        if (k - 1) > 0 and (k - 1) % 2 == 0:
            norm += 2.0 * jc
    norm += jc  # jc now holds J_0
    return target / norm


def _bessel_batch(orders, z, kind="j"):
    """J_m(z) (kind 'j') or Y_m(z) (kind 'y') for flat arrays of integer
    orders m and arguments z, all orders in one pass: J_0/J_1 (Y_0/Y_1)
    once, one forward recurrence that stops each element at its own
    order, and for J at z < m one Miller sweep with per-order starts.
    Each element's value depends on its own (order, argument) alone."""
    orders = np.asarray(orders, dtype=int)
    z = np.asarray(z, dtype=float)
    if orders.size and (np.min(orders) < 0 or np.max(orders) > ORDER_MAX):
        raise RangeError(f"Bessel order outside validated range (0 .. {ORDER_MAX})")
    if np.any(z < 0) or np.any(z > ARG_MAX):
        raise RangeError(f"Bessel argument outside validated range [0, {ARG_MAX}]")
    if kind == "y":
        if np.any(z <= 0):
            raise RangeError("Y_m requires z > 0")
        return _upward(orders, z, *_order01(z, "y"))
    out = np.zeros_like(z)
    up = (orders <= 1) | (z >= orders)
    if np.any(up):
        zu, ou = z[up], orders[up]
        out[up] = _upward(ou, zu, *_order01(zu, "j"))
    down = ~up & (z > 1e-12)
    if np.any(down):
        out[down] = _miller_down(z[down], orders[down])
    return out


def _j_and_prime(orders, z):
    """(J_m(z), J'_m(z)) for flat arrays, from one kernel call on J_m and
    J_{m-1} (J_1 for m = 0): J'_m = J_{m-1} - (m/z) J_m, J'_0 = -J_1,
    and J'_1(0) = 1/2."""
    lower = np.where(orders == 0, 1, orders - 1)
    j = _bessel_batch(np.concatenate([orders, lower]), np.concatenate([z, z]))
    j_m, j_low = j[: z.size], j[z.size :]
    zsafe = np.where(z > 0, z, 1.0)
    d = np.where(orders == 0, -j_low, j_low - (orders / zsafe) * j_m)
    return j_m, np.where((z > 0) | (orders == 0), d, np.where(orders == 1, 0.5, 0.0))


def _one_order(kernel, order, z) -> float | np.ndarray:
    # kernel(orders, z) on flat arrays, for one validated order
    _check_order(order)
    return _elementwise(lambda flat: kernel(np.full(flat.shape, int(order)), flat), z)


def bessel_j(order: int, z) -> float | np.ndarray:
    """Bessel function of the first kind J_order(z) for z >= 0.

    Accepts a scalar or ndarray argument.
    """
    return _one_order(_bessel_batch, order, z)


def bessel_j_prime(order: int, z) -> float | np.ndarray:
    """Derivative J'_order(z)."""
    return _one_order(lambda orders, flat: _j_and_prime(orders, flat)[1], order, z)


def _bessel_y(order: int, z) -> float | np.ndarray:
    """Bessel function of the second kind (internal; used by the annular
    eigenvalue condition). Upward recurrence is stable for Y."""
    return _one_order(lambda orders, flat: _bessel_batch(orders, flat, "y"), order, z)


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


# Newton iterations without a new smallest |f| after which a root already
# within tolerance is taken to sit at the evaluation-noise floor. The J
# series carries ~1e-13 of cancellation noise just below the z = 12 split;
# there a converging zero goes at most 4 iterations without a new best.
_NEWTON_PATIENCE = 6


def _vector_newton(fdf, lo, hi, x0, tol_residual=1e-13, cap=90):
    """Safeguarded Newton on a batch of bracketed simple roots; `fdf(x)`
    returns (f, f'). Returns (roots, per-root iteration counts).

    A root is done when |f| <= tol_residual and the raw Newton step is
    below 1e-14 relative, or, at the noise floor where the step never
    gets that small, when its smallest |f| so far is within tolerance and
    has not improved for _NEWTON_PATIENCE iterations; it then takes the
    iterate of that smallest |f|."""
    lo = lo.copy()
    hi = hi.copy()
    x = np.clip(x0, lo, hi)
    slo = np.sign(fdf(lo)[0])
    iters = np.zeros(len(np.atleast_1d(x)), dtype=int)
    settled = np.zeros_like(iters, dtype=bool)
    best_f = np.full(len(iters), np.inf)
    best_x = x.copy()
    since_best = np.zeros_like(iters)
    for _ in range(cap):
        fx, d = fdf(x)
        same = np.sign(fx) == slo
        lo = np.where(same, x, lo)
        hi = np.where(same, hi, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            raw = x - fx / d
        # convergence judged on the raw Newton step, before safeguarding
        step_tiny = np.abs(raw - x) <= 1e-14 * np.maximum(1.0, np.abs(x))
        converged = (np.abs(fx) <= tol_residual) & np.isfinite(raw) & step_tiny
        better = np.abs(fx) < best_f
        best_f = np.where(better, np.abs(fx), best_f)
        best_x = np.where(better, x, best_x)
        since_best = np.where(better, 0, since_best + 1)
        stalled = (best_f <= tol_residual) & (since_best >= _NEWTON_PATIENCE)
        bad = ~np.isfinite(raw) | (raw < lo) | (raw > hi)
        xn = np.where(bad, 0.5 * (lo + hi), raw)
        iters += ~settled
        x = np.where(settled | converged, x, np.where(stalled, best_x, xn))
        settled |= converged | stalled
        if np.all(settled):
            return x, iters
    if np.all(np.abs(fdf(x)[0]) <= tol_residual):
        return x, iters
    raise RootError("batch root refinement stalled")


def _scan_zero_batch(orders, counts) -> list[list[tuple[float, int]]]:
    """First counts[i] positive zeros of J_orders[i] for every i (orders
    distinct), located by one sign-change scan over all the orders' grids
    (it guarantees the index) and Newton-polished as one batch; returns
    per-order lists of (value, iterations) pairs."""
    grids = []
    for m, count in zip(orders, counts):
        # J_m > 0 on (0, first zero); zero spacing is > 3.1 for all orders.
        start = m + 0.1 if m > 0 else 0.25
        top = bessel_zero_seed(m, count + 1) + 4.0
        if top > ARG_MAX:
            raise RootError(f"zero {count} of J_{m} outside validated range")
        grids.append(np.arange(start, top, 1.2))
    seg = np.repeat(np.arange(len(grids)), [len(g) for g in grids])
    grid = np.concatenate(grids)
    order_of = np.asarray(orders, dtype=int)[seg]
    vals = _bessel_batch(order_of, grid)
    flips = np.flatnonzero((seg[:-1] == seg[1:]) & (np.sign(vals[:-1]) != np.sign(vals[1:])))
    rank = np.arange(flips.size) - np.searchsorted(seg[flips], seg[flips])
    flips = flips[rank < np.asarray(counts)[seg[flips]]]
    missing = np.flatnonzero(np.bincount(seg[flips], minlength=len(grids)) < np.asarray(counts))
    if missing.size:
        i = missing[0]
        raise RootError(f"failed to bracket zero {counts[i]} of J_{orders[i]}")
    m = order_of[flips]
    seeds = np.array([bessel_zero_seed(o, k) for o, c in zip(orders, counts) for k in range(c)])
    roots, iters = _vector_newton(
        lambda x: _j_and_prime(m, x), grid[flips], grid[flips + 1], seeds
    )
    pairs = [(float(r), int(i)) for r, i in zip(roots, iters)]
    ends = np.cumsum(counts)
    return [pairs[e - c : e] for c, e in zip(counts, ends)]


BESSEL_ZERO_MAX = 200
_bessel_zero_cache: dict[int, list[RootResult]] = {}  # order -> validated zeros 0, 1, ...


def _grown_count(order: int, count: int) -> int:
    # grow geometrically so sequential requests stay linear overall
    return max(count, 2 * len(_bessel_zero_cache.get(order, ())), 16)


def _cache_zero_tables(orders, found) -> None:
    """Check the residuals of freshly refined zeros of J_m, m in `orders`,
    in one vectorised call and cache them; a batch with a residual above
    1e-12 raises and caches nothing."""
    counts = [len(pairs) for pairs in found]
    roots = np.array([value for pairs in found for value, _ in pairs])
    residuals = np.abs(_bessel_batch(np.repeat(orders, counts), roots))
    bad = np.flatnonzero(residuals > 1e-12)
    if bad.size:
        i = int(bad[0])
        j = int(np.searchsorted(np.cumsum(counts), i, side="right"))
        k = i - sum(counts[:j])
        raise RootError(f"zero {k} of J_{orders[j]} has residual {residuals[i]:.3e}")
    pos = 0
    for m, pairs in zip(orders, found):
        _bessel_zero_cache[m] = [
            RootResult(value=value, residual=float(e), iterations=iterations)
            for (value, iterations), e in zip(pairs, residuals[pos : pos + len(pairs)])
        ]
        pos += len(pairs)


def _bessel_zero_tables(orders: list[int], count: int) -> list[list[RootResult]]:
    """The cached zeros of J_m for every m in `orders`, each grown to at
    least `count` entries; the short tables are refined as one batch."""
    for order in orders:
        _check_order(order)
    short = [m for m in dict.fromkeys(orders) if len(_bessel_zero_cache.get(m, ())) < count]
    if short:
        counts = [_grown_count(m, count) for m in short]
        _cache_zero_tables(short, _scan_zero_batch(short, counts))
    return [_bessel_zero_cache[m] for m in orders]


def _check_zero_count(count: int) -> None:
    if count < 0 or count > BESSEL_ZERO_MAX + 1:
        raise RangeError(f"zero count {count} outside validated range (<= {BESSEL_ZERO_MAX + 1})")


def bessel_zeros(order: int, count: int) -> np.ndarray:
    """The first `count` positive zeros of J_order, as an array."""
    _check_zero_count(count)
    return np.array([r.value for r in _bessel_zero_tables([order], count)[0][:count]])


def bessel_zeros_batch(orders, count: int) -> np.ndarray:
    """The first `count` positive zeros of J_m for every m in `orders`, as
    a (len(orders), count) array; tables still short are filled by one
    scan and one Newton batch, then cached per order."""
    _check_zero_count(count)
    tables = _bessel_zero_tables([int(m) for m in orders], count)
    return np.array([[r.value for r in t[:count]] for t in tables]).reshape(len(tables), count)


def bessel_zero(order: int, n_r: int) -> RootResult:
    """n_r-th positive zero of J_order (n_r = 0 is the first zero)."""
    if n_r < 0 or n_r > BESSEL_ZERO_MAX:
        raise RangeError(f"zero index {n_r} outside validated range (<= {BESSEL_ZERO_MAX})")
    return _bessel_zero_tables([order], n_r + 1)[0][n_r]


# ----------------------------------------------------------------------
# Airy Ai
# ----------------------------------------------------------------------

_AIRY_SPLIT = 12.0               # the x > 0 asymptotic series from here up, the march below
_MARCH_STEP = 0.25
_MARCH_NODES = 85                # covers [-9, 12]
_TAYLOR_TERMS = 24


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
    """Taylor-march Ai and Ai' leftward from x = 12, seeded by the
    asymptotic series there, to -9; returns per-node Taylor coefficient
    tables. Ai is recessive for x > 0, so a leftward march damps the
    growing solution that rounding mixes in, and the negative axis is
    neutrally stable: the march does not amplify errors."""
    nodes = _AIRY_SPLIT - _MARCH_STEP * np.arange(_MARCH_NODES)
    coeffs = np.zeros((_MARCH_NODES, _TAYLOR_TERMS))
    top = np.array([_AIRY_SPLIT])
    f, fp = float(_airy_pos_asym(top)[0]), float(_airy_pos_asym(top, derivative=True)[0])
    for i, x0 in enumerate(nodes):
        c = _airy_taylor_coeffs(float(x0), f, fp, _TAYLOR_TERMS)
        coeffs[i] = c
        if i + 1 < _MARCH_NODES:
            h = -_MARCH_STEP
            powers = h ** np.arange(_TAYLOR_TERMS)
            f = float(np.dot(c, powers))
            fp = float(np.dot(c[1:] * np.arange(1, _TAYLOR_TERMS), powers[:-1]))
    return nodes, coeffs


def _airy_march_eval(x, derivative=False):
    idx = np.clip(np.rint((_AIRY_SPLIT - x) / _MARCH_STEP).astype(int), 0, _MARCH_NODES - 1)
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


def _airy_pos_asym(x, derivative=False, scaled=False):
    # scaled: drop the factor e^{-zeta}, which underflows for x > ~105
    zeta = (2.0 / 3.0) * x ** 1.5
    total = np.zeros_like(x)
    u = np.ones_like(x)
    for k in range(0, 14):
        term = u / zeta**k
        if derivative:
            term = term * (-(6 * k + 1) / (6 * k - 1) if k > 0 else 1.0)
        total += term if k % 2 == 0 else -term
        u = u * (6 * k + 5) * (6 * k + 1) / (72.0 * (k + 1))
    lead = 1.0 if scaled else np.exp(-zeta)
    if derivative:
        return -(x ** 0.25) * lead / (2.0 * np.sqrt(np.pi)) * total
    return lead / (2.0 * np.sqrt(np.pi) * x ** 0.25) * total


_march_nodes, _march_coeffs = _build_airy_march()
_march_deriv_coeffs = _march_coeffs[:, 1:] * np.arange(1, _TAYLOR_TERMS)


def _airy_eval(x, derivative=False):
    out = np.empty_like(x)
    big = x >= _AIRY_SPLIT
    march = (x < _AIRY_SPLIT) & (x >= -9.0)
    far = x < -9.0
    if np.any(big):
        out[big] = _airy_pos_asym(x[big], derivative)
    if np.any(march):
        out[march] = _airy_march_eval(x[march], derivative)
    if np.any(far):
        out[far] = _airy_neg_asym(-x[far], derivative)
    return out


def _airy_scaled(x):
    out = np.empty_like(x)
    big = x >= _AIRY_SPLIT
    out[big] = _airy_pos_asym(x[big], scaled=True)
    small = x[~big]
    out[~big] = _airy_eval(small) * np.exp((2.0 / 3.0) * np.maximum(small, 0.0) ** 1.5)
    return out


def airy_ai(x) -> float | np.ndarray:
    """Airy function Ai(x) for real x (scalar or ndarray)."""
    return _elementwise(_airy_eval, x)


def airy_ai_scaled(x) -> float | np.ndarray:
    """Ai(x) e^{(2/3) x^{3/2}} for real x > 0 and Ai(x) for x <= 0: finite
    and O(x^{-1/4}) where Ai itself underflows."""
    return _elementwise(_airy_scaled, x)


def airy_ai_prime(x) -> float | np.ndarray:
    """Derivative Ai'(x) for real x."""
    return _elementwise(lambda flat: _airy_eval(flat, derivative=True), x)


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
            lambda y: (airy_ai(-y), -airy_ai_prime(-y)), lo, hi, seeds
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
