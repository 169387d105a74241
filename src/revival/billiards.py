"""Two-dimensional billiard spectra (square/rectangle and their folds,
equilateral triangle and its fold, circular, half-circle, annular),
two-index revival times, closed-orbit geometry, and the 2D overlap
series."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import specfun
from .dynamics import _CHUNK, TimeSeries, _phase_block
from .errors import DomainError, OrbitUnsupportedError, RootError
from .packets import CoefficientSet2D
from .serialize import format_float
from .spectra import DEFAULT_UNITS, UnitSystem

GEOMETRIES = (
    "square",
    "rectangle",
    "isosceles_right",
    "equilateral",
    "triangle_30_60_90",
    "circle",
    "half_circle",
    "annulus",
)

# overall phase advance per radial-sector revival of a central packet,
# in units of pi: 1/4 + 1/pi^2
CIRCLE_REVIVAL_PHASE_F = 0.25 + 1.0 / math.pi**2

# billiard sizes whose squares, inverse squares and level energies are
# finite doubles
SIZE_RANGE = (1e-100, 1e100)


def _check_size(value: float) -> None:
    lo, hi = SIZE_RANGE
    if not lo <= value <= hi:
        raise DomainError(f"billiard size {value:g} outside the validated range [{lo:g}, {hi:g}]")


@dataclass(frozen=True)
class Spectrum2D:
    """Level set of a 2D billiard: analytic for the polygonal cases,
    tabulated for the circular family."""

    geometry: str
    params: dict
    units: UnitSystem = DEFAULT_UNITS
    table: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.geometry not in GEOMETRIES:
            raise DomainError(f"unknown geometry {self.geometry!r}")
        for key in ("L", "Lx", "Ly", "R"):
            if key in self.params:
                _check_size(self.params[key])

    # -- continuous energy (used for derivative-based times) -------------

    def energy(self, q1: float, q2: float) -> float:
        u = self.units
        p = self.params
        g = self.geometry
        if g in ("square", "rectangle", "isosceles_right"):
            lx = p["L"] if g != "rectangle" else p["Lx"]
            ly = p["L"] if g != "rectangle" else p["Ly"]
            c = u.hbar**2 * math.pi**2 / (2 * u.mass)
            return c * (q1**2 / lx**2 + q2**2 / ly**2)
        if g in ("equilateral", "triangle_30_60_90"):
            c = (u.hbar**2 / (2 * u.mass * p["L"] ** 2)) * (4 * math.pi / 3) ** 2
            return c * (q1**2 + q2**2 - q1 * q2)
        if g in ("circle", "half_circle", "annulus"):
            key = (int(round(q1)), int(round(q2)))
            if key not in self.table:
                raise DomainError(f"level {key} not tabulated")
            return self.table[key]
        raise DomainError(g)

    def index_ok(self, label) -> bool:
        g = self.geometry
        if g in ("square", "rectangle"):
            return label[0] >= 1 and label[1] >= 1
        if g == "isosceles_right":
            return 1 <= label[0] < label[1]
        if g == "equilateral":
            m, n = label[0], label[1]
            sym = label[2] if len(label) > 2 else "+"
            if n < 1 or m < 2 * n:
                return False
            return not (m == 2 * n and sym == "-")
        if g == "triangle_30_60_90":
            return label[1] >= 1 and label[0] > 2 * label[1]
        if g == "half_circle":
            return abs(label[0]) >= 1 and label[1] >= 0
        return label[1] >= 0

    def levels(self) -> list[tuple]:
        """(q1, q2, symmetry, energy) rows, deterministically ordered."""
        g = self.geometry
        rows = []
        if g in ("square", "rectangle", "isosceles_right"):
            cap = self.params.get("n_cap", 12)
            for nx in range(1, cap + 1):
                for ny in range(1, cap + 1):
                    if g == "isosceles_right" and not nx < ny:
                        continue
                    rows.append((nx, ny, "", self.energy(nx, ny)))
        elif g in ("equilateral", "triangle_30_60_90"):
            cap = self.params.get("m_cap", 12)
            for n in range(1, cap // 2 + 1):
                for m in range(2 * n, cap + 1):
                    e = self.energy(m, n)
                    if g == "triangle_30_60_90":
                        if m > 2 * n:
                            rows.append((m, n, "-", e))
                    elif m == 2 * n:
                        rows.append((m, n, "o", e))
                    else:
                        rows.append((m, n, "+", e))
                        rows.append((m, n, "-", e))
        else:
            for (m, k), e in sorted(self.table.items()):
                if g == "half_circle" and m < 1:
                    continue
                rows.append((m, k, "", e))
        return rows

    def write_levels_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("q1,q2,symmetry,energy\n")
            for q1, q2, sym, e in self.levels():
                fh.write(f"{q1},{q2},{sym},{format_float(e)}\n")


# ----------------------------------------------------------------------
# Spectrum factories
# ----------------------------------------------------------------------

def square_spectrum(L: float, units: UnitSystem = DEFAULT_UNITS, n_cap: int = 12) -> Spectrum2D:
    return Spectrum2D("square", {"L": L, "n_cap": n_cap}, units)


def rectangle_spectrum(
    Lx: float, Ly: float, units: UnitSystem = DEFAULT_UNITS, n_cap: int = 12
) -> Spectrum2D:
    return Spectrum2D("rectangle", {"Lx": Lx, "Ly": Ly, "n_cap": n_cap}, units)


def isosceles_right_spectrum(L: float, units: UnitSystem = DEFAULT_UNITS, n_cap: int = 12) -> Spectrum2D:
    """Fold of the square along its diagonal: antisymmetric combinations
    only (nx < ny), renormalized by sqrt(2) on the half domain."""
    return Spectrum2D("isosceles_right", {"L": L, "n_cap": n_cap}, units)


def equilateral_spectrum(L: float, units: UnitSystem = DEFAULT_UNITS, m_cap: int = 12) -> Spectrum2D:
    return Spectrum2D("equilateral", {"L": L, "m_cap": m_cap}, units)


def triangle_fold_spectrum(L: float, units: UnitSystem = DEFAULT_UNITS, m_cap: int = 12) -> Spectrum2D:
    """30-60-90 fold of the equilateral billiard: odd-parity states only,
    renormalized by sqrt(2)."""
    return Spectrum2D("triangle_30_60_90", {"L": L, "m_cap": m_cap}, units)


def circular_spectrum(
    R: float,
    m_cap: int,
    nr_cap: int,
    mode: str = "refined",
    units: UnitSystem = DEFAULT_UNITS,
) -> Spectrum2D:
    """Levels E = hbar^2 z^2 / (2 mu R^2).

    mode 'refined': z are the Newton-refined Bessel zeros; mode 'wkb':
    the inverse-power expansion seeds (with the fitted 1/(8 z0)
    correction for the zero-angular-momentum channel).
    """
    if mode not in ("refined", "wkb"):
        raise DomainError(f"unknown mode {mode!r}")
    _check_size(R)
    table = {}
    scale = units.hbar**2 / (2.0 * units.mass * R**2)
    if mode == "refined":
        zeros = specfun.bessel_zeros_batch(range(m_cap + 1), nr_cap + 1).tolist()
    for m in range(-m_cap, m_cap + 1):
        if mode == "refined":
            zs = zeros[abs(m)]
        elif m == 0:
            z0s = [(k + 0.75) * math.pi for k in range(nr_cap + 1)]
            zs = [z0 + 1.0 / (8.0 * z0) for z0 in z0s]
        else:
            zs = [specfun.bessel_zero_seed(abs(m), k) for k in range(nr_cap + 1)]
        for k, z in enumerate(zs):
            table[(m, k)] = scale * z * z
    return Spectrum2D("circle", {"R": R}, units, table)


def half_circle_spectrum(
    R: float, m_cap: int, nr_cap: int, units: UnitSystem = DEFAULT_UNITS
) -> Spectrum2D:
    """Diameter fold of the disk: sine angular states (m >= 1) only."""
    full = circular_spectrum(R, m_cap, nr_cap, "refined", units)
    table = {key: e for key, e in full.table.items() if key[0] >= 1}
    return Spectrum2D("half_circle", {"R": R}, units, table)


def circle_scales(R: float, units: UnitSystem = DEFAULT_UNITS) -> tuple[float, float, float]:
    """(T0, radial-sector revival 4*T0, angular-sector revival 2*pi^2*T0)
    with T0 = 2 mu R^2 / (hbar pi)."""
    t0 = 2.0 * units.mass * R**2 / (units.hbar * math.pi)
    return t0, 4.0 * t0, 2.0 * math.pi**2 * t0


def annulus_levels(
    R: float,
    f: float,
    m_cap: int,
    nr_cap: int,
    units: UnitSystem = DEFAULT_UNITS,
) -> Spectrum2D:
    """Ring billiard levels from the Bessel cross-product condition
    J_m(kR) Y_m(kfR) - J_m(kfR) Y_m(kR) = 0: a sign-change scan in k,
    then one batched Illinois regula falsi on the brackets of every
    order."""
    if not 0.0 < f < 1.0:
        raise DomainError("inner-radius fraction must satisfy 0 < f < 1")
    _check_size(R)
    table = {}
    scale = units.hbar**2 / (2.0 * units.mass)
    roots = _annulus_roots(range(m_cap + 1), R, f, nr_cap + 1)
    for m in range(-m_cap, m_cap + 1):
        for k_idx, kval in enumerate(roots[abs(m)]):
            table[(m, k_idx)] = scale * kval**2
    return Spectrum2D("annulus", {"R": R, "f": f}, units, table)


def _ring_condition(orders, k, R: float, f: float) -> np.ndarray:
    """The normalized cross-product at flat arrays of orders and k, from
    one J and one Y kernel call on the outer and inner arguments."""
    n = k.size
    z = np.concatenate([k * R, k * f * R])
    both = np.concatenate([orders, orders])
    j = specfun._bessel_batch(both, z)
    y = specfun._bessel_batch(both, z, "y")
    a = j[:n] * y[n:]
    b = j[n:] * y[:n]
    scale = np.abs(a) + np.abs(b)
    return np.where(scale > 0, (a - b) / np.where(scale > 0, scale, 1.0), 0.0)


def annulus_condition(m: int, k, R: float, f: float):
    """Normalized cross-product whose zeros are the ring eigenvalues; a
    float for a scalar k, an array for an array of k."""
    karr = np.asarray(k, dtype=float)
    flat = karr.ravel()
    g = _ring_condition(np.full(flat.shape, int(m)), flat, R, f).reshape(karr.shape)
    return float(g) if karr.ndim == 0 else g


_annulus_cache: dict = {}


def _annulus_roots(orders, R: float, f: float, count: int) -> dict[int, list[float]]:
    """The first `count` ring levels k of every order, from the cache or
    from one bracket scan and one Illinois batch over the missing orders.

    A level passes when |g| <= 1e-10, or when its final bracket is two
    adjacent floats across which g changes sign, so that k is known to
    one ulp although the condition's slope makes |g| at both ends larger
    than the gate."""
    todo = [m for m in orders if len(_annulus_cache.get((m, R, f), ())) < count]
    if todo:
        lo, hi, g_lo, g_hi, order_of = _annulus_brackets(todo, R, f, count)
        roots, residuals, pinned = _illinois(
            lambda x, idx: _ring_condition(order_of[idx], x, R, f), lo, hi, g_lo, g_hi
        )
        failed = np.flatnonzero((residuals > 1e-10) & ~pinned)
        if failed.size:
            raise RootError(f"ring level residual too large at m={order_of[failed[0]]}")
        for m in todo:
            _annulus_cache[(m, R, f)] = roots[order_of == m].tolist()
    return {m: _annulus_cache[(m, R, f)][:count] for m in orders}


def _annulus_brackets(orders, R: float, f: float, count: int):
    """Brackets (lo, hi, g(lo), g(hi), order) of the first `count` ring
    levels of every order, order-major. Each order's k grid is at a
    quarter of the asymptotic spacing pi / (R (1 - f)); all grids are
    scanned in one condition call per extension, and an order with too
    few sign changes is extended."""
    step = math.pi / (R * (1.0 - f)) / 4.0
    ks = [np.empty(0) for _ in orders]
    gs = [np.empty(0) for _ in orders]
    found = [None] * len(orders)
    short = list(range(len(orders)))
    while short:
        new = []
        for i in short:
            m = orders[i]
            k0 = max(1e-6, 0.5 * m / R)
            # levels lie above m / R; scan to about two spacings past the last
            width = 4 * (count + 2) + int(math.ceil(0.5 * m / (R * step)))
            grid = k0 + step * np.arange(len(ks[i]), len(ks[i]) + width)
            grid = grid[grid * R <= specfun.ARG_MAX]
            if grid.size == 0:
                raise RootError(f"failed to bracket {count} ring levels at m={m}")
            new.append(grid)
        sizes = [len(g) for g in new]
        vals = np.split(
            _ring_condition(np.repeat([orders[i] for i in short], sizes), np.concatenate(new), R, f),
            np.cumsum(sizes)[:-1],
        )
        for i, grid, g in zip(short, new, vals):
            ks[i] = np.concatenate([ks[i], grid])
            gs[i] = np.concatenate([gs[i], g])
            flips = np.flatnonzero(np.sign(gs[i][:-1]) != np.sign(gs[i][1:]))[:count]
            if len(flips) == count:
                found[i] = flips
        short = [i for i in short if found[i] is None]
    ends = [(k[i], k[i + 1], g[i], g[i + 1]) for k, g, i in zip(ks, gs, found)]
    lo, hi, g_lo, g_hi = (np.concatenate(part) for part in zip(*ends))
    return lo, hi, g_lo, g_hi, np.repeat(orders, count)


def _illinois(g, lo, hi, g_lo, g_hi):
    """Refine a batch of sign-change brackets by the Illinois regula
    falsi; each iteration makes one call g(x, idx) for the points x of
    the unfinished brackets idx.

    A bracket is finished when its ends are adjacent floats or one end
    has |g| <= 1e-14; its root is the end with the smaller |g|. Returns
    (roots, |g(roots)|, pinned), pinned marking the brackets that end on
    adjacent floats with g of strictly opposite signs.
    """
    lo, hi, g_lo, g_hi = (np.array(v, dtype=float) for v in (lo, hi, g_lo, g_hi))
    w_lo, w_hi = g_lo.copy(), g_hi.copy()  # end values the Illinois rule halves
    last = np.zeros(len(lo), dtype=int)  # end moved last: -1 lo, +1 hi
    for _ in range(200):
        done = (np.nextafter(lo, hi) >= hi) | (np.minimum(np.abs(g_lo), np.abs(g_hi)) <= 1e-14)
        todo = np.flatnonzero(~done)
        if todo.size == 0:
            break
        a, b, wa, wb = lo[todo], hi[todo], w_lo[todo], w_hi[todo]
        x = b - wb * (b - a) / (wb - wa)
        x = np.where((x > a) & (x < b), x, 0.5 * (a + b))
        gx = g(x, todo)
        to_lo = np.sign(gx) == np.sign(g_lo[todo])
        on_lo, on_hi = todo[to_lo], todo[~to_lo]
        # a second move of the same end halves the other end's weight
        w_hi[on_lo[last[on_lo] == -1]] *= 0.5
        w_lo[on_hi[last[on_hi] == 1]] *= 0.5
        lo[on_lo], g_lo[on_lo], w_lo[on_lo], last[on_lo] = x[to_lo], gx[to_lo], gx[to_lo], -1
        hi[on_hi], g_hi[on_hi], w_hi[on_hi], last[on_hi] = x[~to_lo], gx[~to_lo], gx[~to_lo], 1
    pick_lo = np.abs(g_lo) <= np.abs(g_hi)
    pinned = (np.nextafter(lo, hi) >= hi) & (np.sign(g_lo) * np.sign(g_hi) < 0)
    return np.where(pick_lo, lo, hi), np.where(pick_lo, np.abs(g_lo), np.abs(g_hi)), pinned


# ----------------------------------------------------------------------
# Revival times and closed orbits
# ----------------------------------------------------------------------

def revival_times_2d(s: Spectrum2D, center: tuple[float, float]) -> tuple[float, float, float]:
    """(t_rev_q1, t_rev_q2, t_rev_cross) from the quadratic index
    dependence; +inf where the second derivative vanishes.

    For the disk's zero-angular-momentum sector the radial entry is the
    full phase-realignment time 4*T0 (the derivative-based value halves
    it, but the linear radial phase is then misaligned by half a period
    for every level, so relocalization only completes at 4*T0).
    """
    u = s.units
    p = s.params
    g = s.geometry
    two_pi_hbar = 2.0 * math.pi * u.hbar

    def from_second(d2):
        return math.inf if abs(d2) < 1e-300 else two_pi_hbar / (abs(d2) / 2.0)

    if g in ("square", "rectangle", "isosceles_right"):
        lx = p["L"] if g != "rectangle" else p["Lx"]
        ly = p["L"] if g != "rectangle" else p["Ly"]
        c = u.hbar**2 * math.pi**2 / (2 * u.mass)
        return (
            from_second(2 * c / lx**2),
            from_second(2 * c / ly**2),
            math.inf,
        )
    if g in ("equilateral", "triangle_30_60_90"):
        c = (u.hbar**2 / (2 * u.mass * p["L"] ** 2)) * (4 * math.pi / 3) ** 2
        t = from_second(2 * c)
        cross = two_pi_hbar / c  # |d2E/dm dn| = c
        return (t, t, cross)
    if g in ("circle", "half_circle"):
        scale = u.hbar**2 * math.pi**2 / (2 * u.mass * p["R"] ** 2)
        t0, t_radial, _ = circle_scales(p["R"], u)
        m0 = abs(center[0])
        if g == "circle" and m0 < 0.5:
            t1 = t_radial
        else:
            t1 = from_second(2 * scale)
        t2 = from_second(scale * (0.5 - 2.0 / math.pi**2))  # d2E/dm2 at m != 0
        cross = two_pi_hbar / scale  # |d2E/dm dnr| = scale
        return (t1, t2, cross)
    raise DomainError(f"no closed-form revival times for {g!r}")


@dataclass(frozen=True)
class ClosedOrbit:
    p: int
    q: int
    path_length: float
    period: float
    r_min: float


def closed_orbit(
    geometry: str,
    p: int,
    q: int,
    speed_v0: float,
    *,
    L: float | None = None,
    R: float | None = None,
    f: float | None = None,
    family: str = "outer",
) -> ClosedOrbit:
    """Closed-path length, period, and distance of closest approach.

    square/equilateral take side L with p, q >= 1 (q = 0 allowed for the
    triangle's bisector family); circle/annulus take radius R with
    p >= 2q, and the annulus also inner-radius fraction f with family
    'outer' (skims the hole) or 'inner' (bounces off it).
    """
    if speed_v0 <= 0:
        raise DomainError("speed must be positive")
    if geometry == "square":
        if L is None or p < 1 or q < 1:
            raise DomainError("square orbits need L and p, q >= 1")
        length = 2.0 * L * math.hypot(p, q)
        r_min = 0.0
    elif geometry == "equilateral":
        if L is None or p < 1 or q < 0:
            raise DomainError("triangle orbits need L and p >= 1, q >= 0")
        length = L * math.sqrt(3.0) * math.sqrt(p * p + p * q + q * q)
        r_min = 0.0
    elif geometry in ("circle", "annulus"):
        if R is None or q < 1 or p < 2 * q:
            raise DomainError("disk orbits need R and p >= 2q >= 2")
        ang = math.pi * q / p
        if geometry == "circle":
            length = 2.0 * p * R * math.sin(ang)
            r_min = R * math.cos(ang)
        else:
            if f is None or not 0.0 < f < 1.0:
                raise DomainError("annulus orbits need 0 < f < 1")
            if f > math.cos(ang):
                raise OrbitUnsupportedError(
                    f"no ({p},{q}) orbit: inner radius exceeds cos(pi q/p) = {math.cos(ang):.4f}"
                )
            if family == "outer":
                length = 2.0 * p * R * math.sin(ang)
                r_min = R * math.cos(ang)
            elif family == "inner":
                chord = math.sqrt(1.0 + f * f - 2.0 * f * math.cos(ang))
                length = 2.0 * p * R * chord
                r_min = R * f * math.sin(ang) / chord
            else:
                raise DomainError(f"unknown orbit family {family!r}")
    else:
        raise DomainError(f"no closed-orbit formula for {geometry!r}")
    return ClosedOrbit(p=p, q=q, path_length=length, period=length / speed_v0, r_min=r_min)


def commensurate_indices(
    geometry: str,
    p: int,
    q: int,
    speed_v0: float,
    size: float,
    units: UnitSystem = DEFAULT_UNITS,
) -> tuple[float, float]:
    """Continuous index pair whose two angular frequencies beat as the
    (p, q) closed orbit; substituting back reproduces the geometric
    period."""
    if speed_v0 <= 0 or size <= 0:
        raise DomainError("speed and size must be positive")
    if geometry == "square":
        base = units.mass * size * speed_v0 / (units.hbar * math.pi)
        hyp = math.hypot(p, q)
        return base * p / hyp, base * q / hyp
    if geometry == "equilateral":
        # energy matching fixes the scale; the (2q+p)/(2p+q) split fixes
        # the ratio
        x = float(p * p + p * q + q * q)
        base = units.mass * speed_v0 * size * math.sqrt(3.0) / (4.0 * math.pi * units.hbar)
        return base * (2.0 * q + p) / math.sqrt(x), base * (2.0 * p + q) / math.sqrt(x)
    raise DomainError(f"no commensurate-index formula for {geometry!r}")


def orbit_period_from_indices(
    geometry: str, p: int, q: int, q1: float, q2: float, size: float, units: UnitSystem = DEFAULT_UNITS
) -> float:
    """Closed-orbit period rebuilt from the index pair (consistency check
    for commensurate_indices)."""
    two_pi_hbar = 2.0 * math.pi * units.hbar
    if geometry == "square":
        c = units.hbar**2 * math.pi**2 / (2 * units.mass * size**2)
        t_cl_x = two_pi_hbar / (2.0 * c * q1)
        return p * t_cl_x
    if geometry == "equilateral":
        c = (units.hbar**2 / (2 * units.mass * size**2)) * (4 * math.pi / 3) ** 2
        t_cl_m = two_pi_hbar / (c * abs(2.0 * q1 - q2))
        return q * t_cl_m
    raise DomainError(geometry)


def autocorrelation_2d(c: CoefficientSet2D, s: Spectrum2D, t_grid) -> TimeSeries:
    """A(t) = sum |a|^2 e^{+i E t / hbar} over the retained 2D modes."""
    energies = []
    for lab in c.labels:
        if not s.index_ok(lab):
            raise DomainError(f"label {lab} invalid for {s.geometry}")
        energies.append(s.energy(lab[0], lab[1]))
    # levels of exactly equal energy (the disk's +-m, the triangle's +-
    # pair, the square's swapped labels) share one phase row
    omegas, row = np.unique(np.asarray(energies) / s.units.hbar, return_inverse=True)
    w = np.bincount(row, weights=c.weights(), minlength=len(omegas))
    t = np.asarray(t_grid, dtype=float)
    vals = np.empty(len(t), dtype=complex)
    for start in range(0, len(t), _CHUNK):
        vals[start : start + _CHUNK] = w @ _phase_block(t[start : start + _CHUNK], omegas)
    return TimeSeries(t, vals)
