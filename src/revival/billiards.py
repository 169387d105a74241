"""Two-dimensional billiard spectra (square/rectangle and their folds,
equilateral triangle and its fold, circular, half-circle, annular),
two-index revival times, closed-orbit geometry, and the 2D overlap
series."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .dynamics import TimeSeries, _phase_sum
from .errors import DomainError, OrbitUnsupportedError, RootError, check_work_bytes
from .packets import CoefficientSet2D, label_array, triangle_state_labels
from .serialize import write_csv
from .spectra import DEFAULT_UNITS, UnitSystem

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
    """Level set of a 2D billiard: integer quadratic forms for the
    polygonal cases, tabulated for the circular family. The circular
    family's `table` holds E at (m, k) in row m - m_first, column k.

    All that depends on the geometry is its entry in GEOMETRIES, with four
    fields: `energy` (E at arrays of labels), `label_ok` (which labels are
    states), `candidates` (the labels that level_labels() filters) and
    `revival` (the two-index revival times)."""

    geometry: str
    params: dict
    units: UnitSystem = DEFAULT_UNITS
    table: np.ndarray | None = None
    m_first: int = 0

    def __post_init__(self):
        if self.geometry not in GEOMETRIES:
            raise DomainError(f"unknown geometry {self.geometry!r}")
        for key in ("L", "Lx", "Ly", "R"):
            if key in self.params:
                _check_size(self.params[key])

    def energy(self, q1, q2):
        """E at the label (q1, q2): a float for scalars, an array for
        arrays. The polygons take continuous indices too."""
        return GEOMETRIES[self.geometry].energy(self, q1, q2)

    def index_ok(self, labels) -> np.ndarray:
        """Which of the `packets.label_array` labels are states."""
        return GEOMETRIES[self.geometry].label_ok(labels["q1"], labels["q2"], labels["symmetry"])

    def level_labels(self) -> np.ndarray:
        """The geometry's candidate labels that its label rule keeps,
        deterministically ordered."""
        labels = GEOMETRIES[self.geometry].candidates(self)
        return labels[self.index_ok(labels)]

    def write_levels_csv(self, path) -> None:
        """q1,q2,symmetry,energy rows of level_labels(), the energies
        formed one block of rows at a time."""
        labels = self.level_labels()
        q1, q2 = labels["q1"], labels["q2"]
        write_csv(path, "q1,q2,symmetry,energy\n", "%s,%s,%s,%.17g\n",
                  (q1, q2, labels["symmetry"], lambda part: self.energy(q1[part], q2[part])))


# ----------------------------------------------------------------------
# The geometry table
# ----------------------------------------------------------------------

def _revival_times(hbar: float, *second) -> tuple[float, ...]:
    """2 pi hbar over |d|/2 for each second derivative d of E(q1, q2),
    the mixed one entered doubled; +inf where d vanishes."""
    return tuple(math.inf if abs(d) < 1e-300 else 2.0 * math.pi * hbar / (abs(d) / 2.0) for d in second)


@dataclass(frozen=True)
class _QuadraticForm:
    """E = c (q1^2/d1 + q2^2/d2 + k q1 q2), (c, d1, d2, k) = coefficients(params,
    units): the polygons are integer quadratic forms (Robinett 2004, sec. 5)."""

    coefficients: Callable

    def __call__(self, s: Spectrum2D, q1, q2):
        c, d1, d2, k = self.coefficients(s.params, s.units)
        return c * (q1**2 / d1 + q2**2 / d2 + k * q1 * q2)

    def gradient(self, s: Spectrum2D, q1, q2):
        c, d1, d2, k = self.coefficients(s.params, s.units)
        return c * (2 * q1 / d1 + k * q2), c * (2 * q2 / d2 + k * q1)

    def revival(self, s: Spectrum2D, center):
        c, d1, d2, k = self.coefficients(s.params, s.units)
        return _revival_times(s.units.hbar, 2 * c / d1, 2 * c / d2, 2 * c * k)


# hbar^2 pi^2 / (2 mu) (nx^2/Lx^2 + ny^2/Ly^2), the square's sides both L
_BOX = _QuadraticForm(lambda p, u: (
    u.hbar**2 * math.pi**2 / (2 * u.mass), p.get("Lx", p.get("L")) ** 2, p.get("Ly", p.get("L")) ** 2, 0.0))
# hbar^2 / (2 mu L^2) (4 pi / 3)^2 (m^2 + n^2 - m n)
_TRIANGLE = _QuadraticForm(lambda p, u: (
    (u.hbar**2 / (2 * u.mass * p["L"] ** 2)) * (4 * math.pi / 3) ** 2, 1.0, 1.0, -1.0))


def _tabulated(s: Spectrum2D, q1, q2):
    """s.table at the rounded labels."""
    m, k = (np.rint(q).astype(np.int64) for q in np.broadcast_arrays(q1, q2))
    row = m - s.m_first
    missing = np.flatnonzero((row < 0) | (row >= len(s.table)) | (k < 0) | (k >= s.table.shape[1]))
    if missing.size:
        raise DomainError(f"level ({m.flat[missing[0]]}, {k.flat[missing[0]]}) not tabulated")
    return float(s.table[row, k]) if m.ndim == 0 else s.table[row, k]


def _grid(s: Spectrum2D) -> np.ndarray:
    # (nx, ny) on the n_cap x n_cap grid, nx-major
    cap = max(s.params.get("n_cap", 12), 0)
    # 48 B per label: the levels table's tracemalloc peak at n_cap 1024 is
    # 41 B, the label array and its kept copy
    check_work_bytes(cap * cap * 48, f"label table of n_cap {cap}")
    n = np.arange(1, cap + 1)
    return label_array(n[:, None], n)


def _disk_revival(s: Spectrum2D, center, radial_sector: bool = False):
    """d2E/dnr2, d2E/dm2 at m != 0 and d2E/dm dnr of the disk. With
    radial_sector, a packet in the m = 0 sector gets the full realignment
    time 4*T0 as its radial entry: the derivative-based value halves it,
    but the linear radial phase is then misaligned by half a period for
    every level."""
    u, R = s.units, s.params["R"]
    scale = u.hbar**2 * math.pi**2 / (2 * u.mass * R**2)
    t1, t2, cross = _revival_times(u.hbar, 2 * scale, scale * (0.5 - 2.0 / math.pi**2), 2 * scale)
    return (circle_scales(R, u)[1] if radial_sector and abs(center[0]) < 0.5 else t1), t2, cross


def _no_revival(s: Spectrum2D, center):
    raise DomainError(f"no closed-form revival times for {s.geometry!r}")


class _Geometry(NamedTuple):
    energy: Callable      # (spectrum, q1, q2) -> E, on scalars or arrays
    label_ok: Callable    # (q1, q2, symmetry) arrays -> bool array
    candidates: Callable  # spectrum -> the label array level_labels() filters
    revival: Callable     # (spectrum, center) -> (t_rev_q1, t_rev_q2, t_rev_cross)


_pairs_ok = lambda q1, q2, sym: (q1 >= 1) & (q2 >= 1)
_radial_ok = lambda q1, q2, sym: q2 >= 0
_triangle_labels = lambda s: triangle_state_labels(s.params.get("m_cap", 12))
# every (m, k) of the table, m-major
_table_labels = lambda s: label_array(np.arange(len(s.table))[:, None] + s.m_first,
                                      np.arange(s.table.shape[1]))

GEOMETRIES = {
    "square": _Geometry(_BOX, _pairs_ok, _grid, _BOX.revival),
    "rectangle": _Geometry(_BOX, _pairs_ok, _grid, _BOX.revival),
    # the square's diagonal fold: antisymmetric combinations only
    "isosceles_right": _Geometry(_BOX, lambda q1, q2, sym: (q1 >= 1) & (q1 < q2), _grid, _BOX.revival),
    # m >= 2n: two states for m > 2n, a single symmetric one at m = 2n
    "equilateral": _Geometry(
        _TRIANGLE, lambda q1, q2, sym: (q2 >= 1) & (q1 >= 2 * q2) & ~((q1 == 2 * q2) & (sym == "-")),
        _triangle_labels, _TRIANGLE.revival),
    # the equilateral billiard's fold: odd states only
    "triangle_30_60_90": _Geometry(
        _TRIANGLE, lambda q1, q2, sym: (q2 >= 1) & (q1 > 2 * q2) & (sym != "+"),
        _triangle_labels, _TRIANGLE.revival),
    "circle": _Geometry(_tabulated, _radial_ok, _table_labels, partial(_disk_revival, radial_sector=True)),
    # the disk's diameter fold: sine angular states only
    "half_circle": _Geometry(
        _tabulated, lambda q1, q2, sym: (np.abs(q1) >= 1) & (q2 >= 0), _table_labels, _disk_revival),
    "annulus": _Geometry(_tabulated, _radial_ok, _table_labels, _no_revival),
}


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
    from . import specfun

    if mode not in ("refined", "wkb"):
        raise DomainError(f"unknown mode {mode!r}")
    _check_size(R)
    scale = units.hbar**2 / (2.0 * units.mass * R**2)
    if mode == "refined":
        zeros = specfun.bessel_zeros_batch(range(m_cap + 1), nr_cap + 1)
    else:
        z0 = (np.arange(nr_cap + 1) + 0.75) * math.pi
        seeds = [[specfun.bessel_zero_seed(m, k) for k in range(nr_cap + 1)] for m in range(1, m_cap + 1)]
        zeros = np.array([z0 + 1.0 / (8.0 * z0), *seeds])
    orders = np.abs(np.arange(-m_cap, m_cap + 1))
    return Spectrum2D("circle", {"R": R}, units, (scale * zeros * zeros)[orders], -m_cap)


def half_circle_spectrum(
    R: float, m_cap: int, nr_cap: int, units: UnitSystem = DEFAULT_UNITS
) -> Spectrum2D:
    """Diameter fold of the disk: sine angular states (m >= 1) only."""
    full = circular_spectrum(R, m_cap, nr_cap, "refined", units)
    return Spectrum2D("half_circle", {"R": R}, units, full.table[m_cap + 1 :], 1)


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
    scale = units.hbar**2 / (2.0 * units.mass)
    k = _annulus_roots(range(m_cap + 1), R, f, nr_cap + 1)[np.abs(np.arange(-m_cap, m_cap + 1))]
    # float_power is libm pow, as Python's k**2 is: the array square
    # rounds 12 of the 12,261 levels at (60, 200) the other way
    return Spectrum2D("annulus", {"R": R, "f": f}, units, scale * np.float_power(k, 2), -m_cap)


def _ring_condition(orders, k, R: float, f: float) -> np.ndarray:
    """The normalized cross-product at flat arrays of orders and k, from
    one J and one Y kernel call on the outer and inner arguments."""
    from . import specfun

    n = k.size
    z = np.concatenate([k * R, k * f * R])
    both = np.concatenate([orders, orders])
    j = specfun._bessel_batch(both, z)
    y = specfun._bessel_batch(both, z, "y")
    # a J that is exactly zero beside an overflowed Y gives a zero product
    a = np.multiply(j[:n], y[n:], out=np.zeros(n), where=j[:n] != 0)
    b = np.multiply(j[n:], y[:n], out=np.zeros(n), where=j[n:] != 0)
    scale = np.abs(a) + np.abs(b)
    ok = np.isfinite(scale) & (scale > 0)
    # beyond the double range (Y_m of a tiny inner argument) only the sign
    # of the dominant product is left
    g = np.where(np.isfinite(scale), 0.0, np.where(np.abs(a) >= np.abs(b), np.sign(a), -np.sign(b)))
    return np.divide(np.subtract(a, b, where=ok, out=np.zeros(n)), scale, where=ok, out=g)


def annulus_condition(m: int, k, R: float, f: float):
    """Normalized cross-product whose zeros are the ring eigenvalues; a
    float for a scalar k, an array for an array of k."""
    karr = np.asarray(k, dtype=float)
    flat = karr.ravel()
    g = _ring_condition(np.full(flat.shape, int(m)), flat, R, f).reshape(karr.shape)
    return float(g) if karr.ndim == 0 else g


def _annulus_roots(orders, R: float, f: float, count: int) -> np.ndarray:
    """The first `count` ring levels k of every order, as an (orders,
    count) array, from one bracket scan and one Illinois batch.

    A level passes when |g| <= 1e-10, or when its final bracket is two
    adjacent floats across which g changes sign, so that k is known to
    one ulp although the condition's slope makes |g| at both ends larger
    than the gate."""
    lo, hi, g_lo, g_hi, order_of = _annulus_brackets(orders, R, f, count)
    roots, residuals, pinned = _illinois(
        lambda x, idx: _ring_condition(order_of[idx], x, R, f), lo, hi, g_lo, g_hi
    )
    failed = np.flatnonzero((residuals > 1e-10) & ~pinned)
    if failed.size:
        raise RootError(f"ring level residual too large at m={order_of[failed[0]]}")
    return roots.reshape(len(orders), count)


def _annulus_brackets(orders, R: float, f: float, count: int):
    """Brackets (lo, hi, g(lo), g(hi), order) of the first `count` ring
    levels of every order, order-major. Each order's k grid is at a
    quarter of the asymptotic spacing pi / (R (1 - f)); all grids are
    scanned in one condition call per extension, and an order with too
    few sign changes is extended."""
    from . import specfun

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
    dependence about `center`; +inf where the second derivative vanishes."""
    return GEOMETRIES[s.geometry].revival(s, center)


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
    for commensurate_indices). Along a (p, q) orbit the two index
    frequencies |dE/dq|/hbar are 2 pi p/T and 2 pi q/T in some order, so
    T = 2 pi hbar (p + q) / (|dE/dq1| + |dE/dq2|) on the side-L polygon."""
    s = Spectrum2D(geometry, {"L": size}, units)
    form = GEOMETRIES[geometry].energy
    if not isinstance(form, _QuadraticForm):
        raise DomainError(f"no index-period formula for {geometry!r}")
    e1, e2 = form.gradient(s, q1, q2)
    return 2.0 * math.pi * units.hbar * (p + q) / (abs(e1) + abs(e2))


def autocorrelation_2d(c: CoefficientSet2D, s: Spectrum2D, t_grid) -> TimeSeries:
    """A(t) = sum |a|^2 e^{+i E t / hbar} over the retained 2D modes."""
    bad = np.flatnonzero(~s.index_ok(c.labels))
    if bad.size:
        q1, q2, sym = c.labels[bad[0]].tolist()
        raise DomainError(f"label {(q1, q2, sym) if sym else (q1, q2)} invalid for {s.geometry}")
    # levels of exactly equal energy (the disk's +-m, the triangle's +-
    # pair, the square's swapped labels) share one phase row
    omegas, row = np.unique(s.energy(c.labels["q1"], c.labels["q2"]) / s.units.hbar, return_inverse=True)
    w = np.bincount(row, weights=c.weights(), minlength=len(omegas))
    return TimeSeries(t_grid, _phase_sum(w, omegas, t_grid))
