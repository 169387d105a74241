"""2D billiard spectra, revival times, closed orbits, overlap series."""

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from revival.billiards import (
    CIRCLE_REVIVAL_PHASE_F,
    annulus_condition,
    annulus_levels,
    autocorrelation_2d,
    circle_scales,
    circular_spectrum,
    closed_orbit,
    commensurate_indices,
    equilateral_spectrum,
    half_circle_spectrum,
    isosceles_right_spectrum,
    orbit_period_from_indices,
    rectangle_spectrum,
    revival_times_2d,
    square_spectrum,
    triangle_fold_spectrum,
)
from revival import billiards, dynamics, specfun
from revival.errors import DomainError, OrbitUnsupportedError, RootError, TruncationError
from revival.packets import (
    CoefficientSet2D,
    circular_coefficients,
    label_array,
    square_coefficients,
    triangle_coefficients,
)
from revival.spectra import DEFAULT_UNITS

HBAR = DEFAULT_UNITS.hbar
MU = DEFAULT_UNITS.mass

GEOMETRY_NAMES = ("square", "rectangle", "isosceles_right", "equilateral", "triangle_30_60_90",
                  "circle", "half_circle", "annulus")


def _spectrum(geometry, size):
    """One spectrum per geometry at side or radius `size`, small caps."""
    return {
        "square": lambda: square_spectrum(size, n_cap=7),
        "rectangle": lambda: rectangle_spectrum(size, 1.3 * size, n_cap=6),
        "isosceles_right": lambda: isosceles_right_spectrum(size, n_cap=7),
        "equilateral": lambda: equilateral_spectrum(size, m_cap=9),
        "triangle_30_60_90": lambda: triangle_fold_spectrum(size, m_cap=9),
        "circle": lambda: circular_spectrum(size, 3, 4),
        "half_circle": lambda: half_circle_spectrum(size, 3, 4),
        "annulus": lambda: annulus_levels(size, 0.4, 2, 3),
    }[geometry]()


def _level_rows(s):
    """(q1, q2, symmetry, energy) rows of the spectrum's level labels."""
    labels = s.level_labels()
    energies = s.energy(labels["q1"], labels["q2"]).tolist()
    return [(*lab, e) for lab, e in zip(labels.tolist(), energies)]


def _table_items(s):
    """((m, k), E) of every tabulated level, m-major."""
    return [((m, k), e) for m, row in enumerate(s.table.tolist(), s.m_first) for k, e in enumerate(row)]


class TestRevivalTimes:
    def test_square(self):
        L = 1.0
        t1, t2, cross = revival_times_2d(square_spectrum(L), (10, 10))
        target = 4 * MU * L**2 / (HBAR * math.pi)
        assert t1 == pytest.approx(target, rel=1e-12)
        assert t2 == pytest.approx(target, rel=1e-12)
        assert cross == math.inf

    def test_equilateral_single_common_time(self):
        L = 1.0
        t1, t2, cross = revival_times_2d(equilateral_spectrum(L), (8, 3))
        target = 9 * MU * L**2 / (4 * HBAR * math.pi)
        for t in (t1, t2, cross):
            assert t == pytest.approx(target, rel=1e-12)

    def test_circle_m0_sector(self):
        R = 1.0
        s = circular_spectrum(R, 2, 8)
        t0, t_radial, _ = circle_scales(R)
        assert t0 == pytest.approx(2 * MU * R**2 / (HBAR * math.pi), rel=1e-12)
        t1, _, _ = revival_times_2d(s, (0, 4))
        assert t1 == pytest.approx(4 * t0, rel=1e-12)

    @pytest.mark.parametrize("size", [1.0, 0.7])
    @pytest.mark.parametrize("geometry", GEOMETRY_NAMES)
    def test_every_geometry(self, geometry, size):
        box = 4 * MU * size**2 / (HBAR * math.pi)  # 2 pi hbar / (pi^2 hbar^2 / (2 mu L^2))
        tri = 9 * MU * size**2 / (4 * HBAR * math.pi)
        # the disk: d2E/dnr2 = 2 s, d2E/dm2 = s (1/2 - 2/pi^2), d2E/dm dnr = s
        # with s = pi^2 hbar^2 / (2 mu R^2); the m = 0 sector takes 4 T0
        angular = 2 * box / (0.5 - 2 / math.pi**2)
        want = {
            "square": [(box, box, math.inf)] * 2,
            "rectangle": [(box, 1.69 * box, math.inf)] * 2,
            "isosceles_right": [(box, box, math.inf)] * 2,
            "equilateral": [(tri, tri, tri)] * 2,
            "triangle_30_60_90": [(tri, tri, tri)] * 2,
            "circle": [(2 * box, angular, box), (box, angular, box)],
            "half_circle": [(box, angular, box), (box, angular, box)],
        }
        s = _spectrum(geometry, size)
        for center, expected in zip([(0.0, 3.0), (2.0, 3.0)], want.get(geometry, [None, None])):
            if expected is None:
                with pytest.raises(DomainError, match="no closed-form revival times"):
                    revival_times_2d(s, center)
                continue
            assert revival_times_2d(s, center) == pytest.approx(expected, rel=1e-12)

    def test_circle_sector_ratio(self):
        # angular-sector realignment sits at (pi^2/2) x the radial one
        _, t_radial, t_angular = circle_scales(1.0)
        assert t_angular / t_radial == pytest.approx(math.pi**2 / 2.0, rel=1e-12)
        assert t_angular / t_radial == pytest.approx(4.93, abs=0.01)


class TestClosedOrbits:
    def test_square_diagonal(self):
        orb = closed_orbit("square", 1, 1, 2.0, L=1.0)
        assert orb.path_length == pytest.approx(2 * math.sqrt(2.0), rel=1e-12)
        assert orb.period == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_triangle_bisector_family(self):
        for p, q in [(1, 0), (0, 1)]:
            if p == 0:
                p, q = q, p  # p >= 1 convention; (p,q) label symmetric
            orb = closed_orbit("equilateral", p, q, 1.0, L=1.0)
            assert orb.path_length == pytest.approx(math.sqrt(3.0), rel=1e-12)

    def test_circle_diameter(self):
        orb = closed_orbit("circle", 2, 1, 1.0, R=1.0)
        assert orb.path_length == pytest.approx(4.0, rel=1e-12)
        assert orb.r_min == pytest.approx(0.0, abs=1e-12)

    def test_circle_triangle_orbit(self):
        orb = closed_orbit("circle", 3, 1, 1.0, R=2.0)
        assert orb.path_length == pytest.approx(6 * 2.0 * math.sin(math.pi / 3), rel=1e-12)
        assert orb.r_min == pytest.approx(2.0 * 0.5, rel=1e-12)

    def test_annulus_families_coalesce(self):
        p, q = 5, 2
        f = math.cos(math.pi * q / p)
        outer = closed_orbit("annulus", p, q, 1.0, R=1.0, f=f, family="outer")
        inner = closed_orbit("annulus", p, q, 1.0, R=1.0, f=f, family="inner")
        assert outer.path_length == pytest.approx(inner.path_length, abs=1e-12)

    def test_annulus_inner_longer(self):
        outer = closed_orbit("annulus", 5, 2, 1.0, R=1.0, f=0.2, family="outer")
        inner = closed_orbit("annulus", 5, 2, 1.0, R=1.0, f=0.2, family="inner")
        assert inner.path_length > outer.path_length
        assert inner.r_min < 0.2 + 1e-12

    def test_annulus_unsupported(self):
        with pytest.raises(OrbitUnsupportedError):
            closed_orbit("annulus", 5, 2, 1.0, R=1.0, f=0.5, family="outer")

    def test_disk_index_rule(self):
        with pytest.raises(DomainError):
            closed_orbit("circle", 3, 2, 1.0, R=1.0)


class TestCommensurateIndices:
    def test_square_formula(self):
        v0, L = 100.0, 1.0
        nx, ny = commensurate_indices("square", 2, 1, v0, L)
        base = MU * L * v0 / (HBAR * math.pi)
        assert nx == pytest.approx(base * 2 / math.sqrt(5.0), rel=1e-12)
        assert ny == pytest.approx(base * 1 / math.sqrt(5.0), rel=1e-12)

    def test_triangle_symmetric_orbit(self):
        m, n = commensurate_indices("equilateral", 1, 1, 50.0, 1.0)
        assert m == pytest.approx(n, rel=1e-12)

    @pytest.mark.parametrize("geometry,p,q", [("square", 2, 1), ("square", 3, 2), ("equilateral", 1, 1), ("equilateral", 3, 1), ("equilateral", 2, 3)])
    def test_round_trip_period(self, geometry, p, q):
        v0, size = 120.0, 1.0
        q1, q2 = commensurate_indices(geometry, p, q, v0, size)
        geom_period = closed_orbit(geometry, p, q, v0, L=size).period
        rebuilt = orbit_period_from_indices(geometry, p, q, q1, q2, size)
        assert rebuilt == pytest.approx(geom_period, rel=1e-10)

    def test_energy_matches_speed(self):
        v0, size = 80.0, 1.0
        for geometry, p, q in [("square", 2, 1), ("equilateral", 3, 2)]:
            q1, q2 = commensurate_indices(geometry, p, q, v0, size)
            s = square_spectrum(size) if geometry == "square" else equilateral_spectrum(size)
            e = s.energy(q1, q2)
            assert e == pytest.approx(0.5 * MU * v0**2, rel=1e-10)


class TestCircularSpectrum:
    def test_wkb_vs_refined(self):
        R = 1.0
        wkb = circular_spectrum(R, 0, 20, "wkb")
        ref = circular_spectrum(R, 0, 20, "refined")
        scale = HBAR**2 / (2 * MU * R**2)
        for k in range(10, 21):
            z_w = math.sqrt(wkb.energy(0, k) / scale)
            z_r = math.sqrt(ref.energy(0, k) / scale)
            assert abs(z_w - z_r) < 1e-3

    def test_wkb_nonzero_m(self):
        R = 1.0
        wkb = circular_spectrum(R, 8, 25, "wkb")
        ref = circular_spectrum(R, 8, 25, "refined")
        scale = HBAR**2 / (2 * MU * R**2)
        for m in (1, 5, 8):
            z_w = math.sqrt(wkb.energy(m, 20) / scale)
            z_r = math.sqrt(ref.energy(m, 20) / scale)
            assert abs(z_w - z_r) / z_r < 1e-4

    def test_degeneracy_pattern(self):
        s = circular_spectrum(1.0, 3, 4)
        for m in (1, 2, 3):
            for k in range(5):
                assert s.energy(m, k) == s.energy(-m, k)

    def test_half_circle_filters_m0(self):
        s = half_circle_spectrum(1.0, 3, 3)
        assert all(m >= 1 for (m, _), _ in _table_items(s))


class TestTriangleLevels:
    def test_degeneracy_bookkeeping(self):
        s = equilateral_spectrum(1.0, m_cap=12)
        rows = _level_rows(s)
        for m, n, sym, _ in rows:
            if m == 2 * n:
                assert sym == "o"
        from collections import Counter

        multiplicity = Counter((m, n) for m, n, _, _ in rows)
        for (m, n), count in multiplicity.items():
            assert count == (1 if m == 2 * n else 2)

    def test_fold_keeps_odd_only(self):
        s = triangle_fold_spectrum(1.0, m_cap=10)
        rows = _level_rows(s)
        assert all(sym == "-" for _, _, sym, _ in rows)
        assert all(m > 2 * n for m, n, _, _ in rows)

    def test_isosceles_fold(self):
        s = isosceles_right_spectrum(1.0, n_cap=6)
        assert all(q1 < q2 for q1, q2, _, _ in _level_rows(s))

    def test_rectangle_commensurate(self):
        s = rectangle_spectrum(1.0, 2.0, n_cap=4)
        t1, t2, _ = revival_times_2d(s, (2, 2))
        assert t2 / t1 == pytest.approx(4.0, rel=1e-12)


def _closed_form_levels(geometry, size, s):
    """_level_rows() written out from the closed forms, each in the
    spectra's order of operations: the box and triangle quadratic forms,
    the disk's hbar^2 z^2 / (2 mu R^2) over the Bessel zeros z, and the
    ring's sorted table."""
    if geometry in ("square", "rectangle", "isosceles_right"):
        c = HBAR**2 * math.pi**2 / (2 * MU)
        ly = 1.3 * size if geometry == "rectangle" else size
        pairs = itertools.product(range(1, s.params["n_cap"] + 1), repeat=2)
        return [(nx, ny, "", c * (nx**2 / size**2 + ny**2 / ly**2)) for nx, ny in pairs
                if geometry != "isosceles_right" or nx < ny]
    if geometry in ("equilateral", "triangle_30_60_90"):
        c = (HBAR**2 / (2 * MU * size**2)) * (4 * math.pi / 3) ** 2
        cap = s.params["m_cap"]
        # m >= 2n: one symmetric state at m = 2n, a +- pair above it; the
        # fold keeps the odd ones
        pairs = itertools.product(range(1, cap // 2 + 1), range(cap + 1))
        labels = [(m, n, sym) for n, m in pairs if m >= 2 * n for sym in ("o" if m == 2 * n else "+-")]
        keep = {"-"} if geometry == "triangle_30_60_90" else {"o", "+", "-"}
        return [(m, n, sym, c * (m**2 + n**2 - m * n)) for m, n, sym in labels if sym in keep]
    if geometry == "annulus":
        return [(m, k, "", e) for (m, k), e in _table_items(s)]
    scale = HBAR**2 / (2.0 * MU * size**2)
    zeros = specfun.bessel_zeros_batch(range(4), 5).tolist()  # m_cap 3, nr_cap 4
    ms = range(1, 4) if geometry == "half_circle" else range(-3, 4)
    return [(m, k, "", scale * z * z) for m in ms for k, z in enumerate(zeros[abs(m)])]


class TestGeometryTable:
    @pytest.mark.parametrize("size", [1.0, 0.7])
    @pytest.mark.parametrize("geometry", GEOMETRY_NAMES)
    def test_levels_match_closed_forms(self, geometry, size):
        s = _spectrum(geometry, size)
        want = _closed_form_levels(geometry, size, s)
        assert len(want) > 0 and _level_rows(s) == want

    def test_ring_table_holds_the_solver_roots(self):
        roots = billiards._annulus_roots(range(3), 0.7, 0.4, 4).tolist()
        scale = HBAR**2 / (2.0 * MU)
        want = [((m, k), scale * v**2) for m in range(-2, 3) for k, v in enumerate(roots[abs(m)])]
        assert _table_items(_spectrum("annulus", 0.7)) == want

    @pytest.mark.parametrize("geometry", GEOMETRY_NAMES)
    def test_vectorised_energy_is_the_per_label_energy(self, geometry):
        s = _spectrum(geometry, 0.7)
        q1, q2 = (np.array([row[i] for row in _level_rows(s)]) for i in (0, 1))
        for shift in (0.0, 0.25):  # continuous indices; the tables round them
            per_label = [s.energy(a, b) for a, b in zip((q1 + shift).tolist(), q2.tolist())]
            assert all(isinstance(e, float) for e in per_label)
            assert np.array_equal(s.energy(q1 + shift, q2), per_label)

    @pytest.mark.parametrize(
        "geometry, bad",
        [("square", (0, 2)), ("rectangle", (2, 0)), ("isosceles_right", (3, 3)),
         ("equilateral", (4, 2, "-")), ("triangle_30_60_90", (5, 2, "+")),
         ("triangle_30_60_90", (4, 2)), ("circle", (1, -1)), ("half_circle", (0, 2)),
         ("annulus", (2, -1))],
    )
    def test_batch_with_one_invalid_label_names_it(self, geometry, bad):
        s = _spectrum(geometry, 1.0)
        good = s.level_labels()[:4]
        bad_label = label_array(*bad)
        assert np.all(s.index_ok(good)) and not np.any(s.index_ok(bad_label))
        labels = np.concatenate([good[:2], bad_label, good[2:]])
        c = CoefficientSet2D(labels, np.full(len(labels), 0.5 + 0j), 0.0)
        with pytest.raises(DomainError, match=f"label {re.escape(str(bad))} invalid for {geometry}"):
            autocorrelation_2d(c, s, [0.0])

    def test_untabulated_level_is_named(self):
        with pytest.raises(DomainError, match=r"level \(4, 0\) not tabulated"):
            _spectrum("circle", 1.0).energy(np.array([1, 4]), np.array([0, 0]))


class TestAnnulus:
    def test_residuals(self):
        R, f = 1.0, 0.4
        s = annulus_levels(R, f, 2, 6)
        scale = HBAR**2 / (2 * MU)
        for (m, k), e in _table_items(s):
            kval = math.sqrt(e / scale)
            assert abs(annulus_condition(abs(m), kval, R, f)) < 1e-10

    def test_roots_match_scipy_oracle(self):
        import scipy.special as sp
        from scipy.optimize import brentq

        R, f = 1.0, 0.35
        ring = annulus_levels(R, f, 3, 4)
        scale = HBAR**2 / (2 * MU)
        cross = lambda m: (
            lambda k: sp.jv(m, k * R) * sp.yv(m, k * f * R)
            - sp.jv(m, k * f * R) * sp.yv(m, k * R)
        )
        for (m, k_idx), e in _table_items(ring):
            kval = math.sqrt(e / scale)
            ref = brentq(cross(abs(m)), kval - 0.2, kval + 0.2, xtol=1e-12)
            assert kval == pytest.approx(ref, abs=1e-9)

    def test_small_hole_limit_approaches_disk(self):
        # the point-hole limit converges only logarithmically in f: the
        # s-wave shift is ~ 1/ln(1/f), still ~10% at f = 1e-3
        R = 1.0
        disk = circular_spectrum(R, 0, 3)
        prev = None
        for f in (1e-2, 1e-4, 1e-8):
            ring = annulus_levels(R, f, 0, 3)
            rel = max(
                abs(math.sqrt(ring.energy(0, k)) - math.sqrt(disk.energy(0, k)))
                / math.sqrt(disk.energy(0, k))
                for k in range(3)
            )
            if prev is not None:
                assert rel < prev
            prev = rel
        assert prev < 0.05

    def test_thin_ring_matches_1d_box(self):
        R, f = 1.0, 0.9
        ring = annulus_levels(R, f, 0, 4)
        scale = HBAR**2 / (2 * MU)
        spacing = math.pi / (R * (1 - f))
        for k in range(3):
            k1 = math.sqrt(ring.energy(0, k + 1) / scale)
            k0 = math.sqrt(ring.energy(0, k) / scale)
            assert k1 - k0 == pytest.approx(spacing, rel=0.05)

    def test_bad_fraction(self):
        with pytest.raises(DomainError):
            annulus_levels(1.0, 1.5, 0, 2)

    def test_bad_size(self):
        for R in (0.0, -1.0, 1e-300, 1e160):
            with pytest.raises(DomainError):
                annulus_levels(R, 0.5, 1, 1)
            with pytest.raises(DomainError):
                circular_spectrum(R, 1, 1)
            with pytest.raises(DomainError):
                square_spectrum(R)


def _scipy_ring_levels(m, f, k_top):
    """Ring levels k < k_top of order m (R = 1) by a 0.01 scan and brentq
    on scipy's J and Y."""
    import scipy.special as sp
    from scipy.optimize import brentq

    def g(k):
        a = sp.jv(m, k) * sp.yv(m, f * k)
        b = sp.jv(m, f * k) * sp.yv(m, k)
        return (a - b) / (np.abs(a) + np.abs(b))

    ks = np.arange(max(0.5 * m, 1e-3), k_top, 0.01)
    vals = g(ks)
    flips = np.flatnonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))
    return np.array([brentq(g, ks[i], ks[i + 1], xtol=1e-15, rtol=1e-15) for i in flips])


def _ring_ks(ring, m):
    """Wavenumbers of order m's ring levels, in radial-index order."""
    scale = HBAR**2 / (2 * MU)
    return np.array([math.sqrt(e / scale) for (q1, _), e in _table_items(ring) if q1 == m])


class TestRingLevelOracle:
    R, F = 1.0, 0.5
    M_CAP, NR_CAP = 16, 6  # six levels per order reach past k = 30

    @pytest.fixture(scope="class")
    def ring(self):
        return annulus_levels(self.R, self.F, self.M_CAP, self.NR_CAP)

    @pytest.mark.parametrize("m", range(17))
    def test_levels_below_30_match_scipy(self, ring, m):
        want = _scipy_ring_levels(m, self.F, 30.0)
        got = _ring_ks(ring, m)
        assert len(want) >= 1 and got[len(want)] > 30.0
        np.testing.assert_allclose(got[: len(want)], want, rtol=1e-9, atol=0)
        np.testing.assert_array_equal(_ring_ks(ring, -m), got)

    def test_m15_first_level_under_residual_gate(self, ring):
        # the root whose 2.5e-10 residual made the default caps fail
        k = _ring_ks(ring, 15)[0]
        assert k == pytest.approx(19.9955, abs=1e-4)
        assert k == pytest.approx(_scipy_ring_levels(15, self.F, 21.0)[0], rel=1e-9)
        assert abs(annulus_condition(15, k, self.R, self.F)) <= 1e-10

    def test_scalar_and_array_condition_agree(self):
        ks = np.linspace(7.5, 30.0, 181)
        for m in (0, 3, 15, 16):
            arr = annulus_condition(m, ks, self.R, self.F)
            assert isinstance(annulus_condition(m, 20.0, self.R, self.F), float)
            scalar = np.array([annulus_condition(m, k, self.R, self.F) for k in ks])
            np.testing.assert_allclose(arr, scalar, rtol=0, atol=1e-14)

    def test_thin_ring_levels_near_the_argument_cap(self):
        # f = 0.99: levels ~314 apart, the sixth near k = 1900 of the 2000 cap
        ring = annulus_levels(self.R, 0.99, 0, 5)
        want = _scipy_ring_levels(0, 0.99, 2000.0)[:6]
        np.testing.assert_allclose(_ring_ks(ring, 0), want, rtol=1e-9)


class TestRingGate:
    # the normalized condition jumps by more than the 1e-10 gate between
    # adjacent floats at these levels; they pass because the final
    # bracket is two adjacent floats with a sign change of g
    @pytest.mark.parametrize("f, m_cap", [(0.5, 25), (0.5, 40), (1e-8, 2), (0.2, 40)])
    def test_steep_levels_match_scipy(self, f, m_cap):
        ring = annulus_levels(1.0, f, m_cap, 3)
        for m in range(m_cap + 1):
            got = _ring_ks(ring, m)
            assert len(got) == 4
            want = _scipy_ring_levels(m, f, got[-1] + 0.5)[:4]
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)
            np.testing.assert_array_equal(_ring_ks(ring, -m), got)

    def test_point_hole_beyond_the_double_range(self):
        # f = 1e-30: Y_m(k f R) overflows from m = 14 on, and only the sign of
        # the dominant product J_m(kR) Y_m(kfR) is left. The m >= 1 levels
        # are the disk's to within f^2m; m = 0 keeps its logarithmic shift
        ring = annulus_levels(1.0, 1e-30, 16, 30)
        for m in range(1, 17):
            np.testing.assert_allclose(_ring_ks(ring, m), specfun.bessel_zeros(m, 31), rtol=1e-10, atol=0)
        got = _ring_ks(ring, 0)
        want = _scipy_ring_levels(0, 1e-30, got[-1] + 0.5)[:31]
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)
        g = billiards._ring_condition(np.full(3, 14), np.array([10.0, 20.0, 30.0]), 1.0, 1e-30)
        assert np.array_equal(g, -np.sign(specfun.bessel_j(14, np.array([10.0, 20.0, 30.0]))))

    def test_batched_condition_is_bitwise_the_four_single_order_calls(self):
        # outer arguments all above 40, inner ones down to 20, whose Hankel
        # term counts differ (15 against 17) when taken apart
        rng = np.random.default_rng(3)
        orders = rng.integers(0, 17, 300)
        ks = rng.uniform(40.0, 80.0, 300)
        got = billiards._ring_condition(orders, ks, 1.0, 0.5)
        for m in range(17):
            k = ks[orders == m]
            a = specfun.bessel_j(m, k) * specfun._bessel_y(m, k * 0.5)
            b = specfun.bessel_j(m, k * 0.5) * specfun._bessel_y(m, k)
            assert np.array_equal(got[orders == m], (a - b) / (np.abs(a) + np.abs(b)))

    def test_pinned_bracket_of_a_step_is_accepted_to_one_ulp(self):
        step = lambda x, idx: np.where(x < 2.5, -1.0, 1.0)
        roots, residuals, pinned = billiards._illinois(step, [1.0], [4.0], [-1.0], [1.0])
        assert pinned[0] and residuals[0] == 1.0
        assert roots[0] in (np.nextafter(2.5, 0.0), 2.5)

    def test_level_with_residual_and_no_sign_change_fails(self, monkeypatch):
        real = billiards._illinois

        def unpinned(g, lo, hi, g_lo, g_hi):
            roots, residuals, pinned = real(g, lo, hi, g_lo, g_hi)
            return roots, residuals + 1.0, np.zeros_like(pinned)

        monkeypatch.setattr(billiards, "_illinois", unpinned)
        with pytest.raises(RootError, match="m=0"):
            annulus_levels(1.0, 0.5, 2, 2)


def _square_set(L, n_cap):
    return square_coefficients(0.3 * L, 0.4 * L, 20.0, 10.0, 0.05 * math.sqrt(2), L, n_cap)


class TestMergedAutocorrelation:
    """Levels of equal energy share one phase row; the sum over distinct
    energies must match the per-label sum."""

    T = np.linspace(0.0, 10.0, 4001)

    @staticmethod
    def _per_label(c, s, t):
        # one phase row per label, unmerged, through the same kernel
        omegas = np.array([s.energy(q1, q2) for q1, q2, _ in c.labels.tolist()]) / s.units.hbar
        return dynamics._phase_sum(c.weights(), omegas, t)

    def _check(self, c, s, distinct_below):
        got = autocorrelation_2d(c, s, self.T).values
        omegas = [s.energy(q1, q2) for q1, q2, _ in c.labels.tolist()]
        assert len(set(omegas)) < distinct_below * len(omegas)
        assert np.max(np.abs(got - self._per_label(c, s, self.T))) <= 1e-14
        assert abs(got[0] - np.sum(c.weights())) <= 1e-15

    def test_circle(self):
        c = circular_coefficients(0.3, 0.0, 0.0, 20.0, 0.05 * math.sqrt(2), 1.0, 16, 30)
        self._check(c, circular_spectrum(1.0, 16, 30), 0.6)

    def test_circle_peak_memory_is_bounded(self):
        # 437 phase rows x 4001 times: a whole-grid block and its float
        # temporaries would take ~70 MB; element-bounded chunks stay small
        c = circular_coefficients(0.3, 0.0, 0.0, 20.0, 0.05 * math.sqrt(2), 1.0, 16, 30)
        s = circular_spectrum(1.0, 16, 30)
        tracemalloc.start()
        try:
            autocorrelation_2d(c, s, self.T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24e6

    def test_one_phase_row_per_distinct_energy(self, monkeypatch):
        rows = []
        real = dynamics._phase_block

        def recording(ts, omegas, *rest):
            rows.append(len(omegas))
            return real(ts, omegas, *rest)

        monkeypatch.setattr(dynamics, "_phase_block", recording)
        c = _square_set(1.0, 16)
        s = square_spectrum(1.0, n_cap=16)
        autocorrelation_2d(c, s, self.T)
        distinct = len({s.energy(q1, q2) for q1, q2, _ in c.labels.tolist()})
        assert rows and rows == [distinct] * len(rows) and distinct < len(c.labels)

    def test_triangle(self):
        c = triangle_coefficients(0.0, 0.55, 20.0, 10.0, 0.05 * math.sqrt(2), 1.0, 16)
        self._check(c, equilateral_spectrum(1.0, m_cap=16), 0.6)

    def test_square(self):
        self._check(_square_set(1.0, 16), square_spectrum(1.0, n_cap=16), 0.6)


class TestKernelCallBudget:
    """Deterministic guard against de-batching: the number of calls into
    the order-batched Bessel kernel, with fresh caches at the bench caps.
    The builders make 17 (circle) and 48 (ring) calls; evaluating order
    by order would take hundreds (731 and 620 single-order J/Y calls)."""

    @pytest.fixture
    def calls(self, monkeypatch):
        monkeypatch.setattr(specfun, "_bessel_zero_cache", {})
        count = [0]
        kernel = specfun._bessel_batch

        def counting(*args, **kwargs):
            count[0] += 1
            return kernel(*args, **kwargs)

        monkeypatch.setattr(specfun, "_bessel_batch", counting)
        return count

    def test_circle_table_and_coefficients(self, calls):
        circular_spectrum(1.0, 16, 30)
        circular_coefficients(0.3, 0.0, 0.0, 20.0, 0.05 * math.sqrt(2), 1.0, 16, 30)
        assert calls[0] <= 20

    def test_ring_levels(self, calls):
        annulus_levels(1.0, 0.5, 8, 10)
        assert calls[0] <= 56


class TestAutocorrelation2D:
    def test_square_separability(self):
        from revival.dynamics import autocorrelation
        from revival.packets import PacketParams1D, infinite_well_coefficients
        from revival.spectra import Spectrum1D

        L = 1.0
        px = PacketParams1D(x0=0.5, p0=40 * math.pi, width_b=0.05 * math.sqrt(2))
        py = PacketParams1D(x0=0.4, p0=24 * math.pi, width_b=0.05 * math.sqrt(2))
        cx = infinite_well_coefficients(px, L, 90)
        cy = infinite_well_coefficients(py, L, 90)
        c2d = square_coefficients(px.x0, py.x0, px.p0, py.p0, px.width_b, L, 90)
        s2d = square_spectrum(L)
        grid = np.linspace(0.0, 0.02, 41)
        two_d = autocorrelation_2d(c2d, s2d, grid).values
        one_d = Spectrum1D.infinite_well(L)
        ax = autocorrelation(cx, one_d, grid).values
        ay = autocorrelation(cy, one_d, grid).values
        assert np.max(np.abs(two_d - ax * ay)) < 1e-10

    def test_square_diagonal_launch_recurs_at_root2_tau(self):
        # 45-degree launch: recurrences at multiples of sqrt(p^2+q^2) tau
        # with tau = 2L/v0, here the (1,1) orbit
        L = 1.0
        p0 = 200 * math.pi
        c2d = square_coefficients(0.5, 0.5, p0, p0, 0.05 * math.sqrt(2), L, 320)
        v0 = math.hypot(p0, p0) / MU
        tau = 2 * L / v0
        orbit = closed_orbit("square", 1, 1, v0, L=L)
        assert orbit.period == pytest.approx(math.sqrt(2.0) * tau, rel=1e-12)
        grid = np.linspace(0.0, 3.2 * orbit.period, 2200)
        vals_t = np.abs(autocorrelation_2d(c2d, square_spectrum(L), grid).values) ** 2
        for k in (1, 2, 3):
            near = np.abs(grid - k * orbit.period) < 0.12 * orbit.period
            away = (np.abs(grid - (k - 0.5) * orbit.period) < 0.2 * orbit.period)
            assert vals_t[near].max() > 0.5
            assert vals_t[away].max() < 0.25

    def test_central_disk_packet_revives(self):
        R = 1.0
        c = circular_coefficients(0.0, 0.0, 0.0, 0.0, 1 / (10 * math.sqrt(2)), R, 4, 24)
        s = circular_spectrum(R, 4, 24)
        _, t_radial, _ = circle_scales(R)
        ser = autocorrelation_2d(c, s, [t_radial])
        assert abs(ser.values[0]) >= 0.95
        phase = np.angle(ser.values[0])
        assert phase == pytest.approx(math.pi * CIRCLE_REVIVAL_PHASE_F, abs=0.02)

    def test_triangle_packet_revives(self):
        L = 1.0
        c = triangle_coefficients(
            0.0, L / math.sqrt(3.0), 0.0, 0.0, math.sqrt(2.0) * L / 20.0, L, 26
        )
        s = equilateral_spectrum(L)
        t_rev = 9 * MU * L**2 / (4 * HBAR * math.pi)
        ser = autocorrelation_2d(c, s, [t_rev])
        assert abs(ser.values[0]) >= 0.999 - c.norm_deficit

    def test_label_validation(self):
        c = CoefficientSet2D(label_array([0], [0]), np.array([1.0 + 0j]), 0.0)
        with pytest.raises(DomainError):
            autocorrelation_2d(c, square_spectrum(1.0), [0.0])


class TestLevelCSV:
    def test_columns(self, tmp_path):
        s = equilateral_spectrum(1.0, m_cap=6)
        path = tmp_path / "levels.csv"
        s.write_levels_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "q1,q2,symmetry,energy"
        assert lines[1].split(",")[2] in ("o", "+", "-")

    @pytest.mark.parametrize("spectrum, bound_mib", [
        (lambda: square_spectrum(1.0, n_cap=1024), 64),
        (lambda: equilateral_spectrum(1.0, m_cap=1024), 32),
    ], ids=["square", "equilateral"])
    def test_peak_memory_at_the_cap(self, tmp_path, spectrum, bound_mib):
        # 1,048,576 and 523,776 rows: the label array and its kept copy, with
        # the energies and the text formed one block at a time (43 and 23 MB;
        # tuple labels and whole Python-list columns took 139 and 64 MB)
        s = spectrum()
        tracemalloc.start()
        try:
            s.write_levels_csv(tmp_path / "levels.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2**20


@pytest.mark.parametrize("spectrum", [
    lambda: square_spectrum(1.0, n_cap=6000),       # 3.6e7 labels, ~1.6 GiB at 48 B each
    lambda: equilateral_spectrum(1.0, m_cap=10_000),  # ~5e7 labels, ~7.5 GiB at 160 B each
], ids=["square", "equilateral"])
def test_polygon_label_tables_are_bounded(spectrum):
    with pytest.raises(TruncationError, match="label table"):
        spectrum().level_labels()
