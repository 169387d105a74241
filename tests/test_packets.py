"""Coefficient builders: model Gaussian, box closed forms, bouncer
overlaps, and the 2D billiard overlaps."""

import itertools
import math
import operator

import numpy as np
import pytest

from revival import packets, specfun
from revival.errors import ContainmentError, DomainError, TruncationError
from revival.packets import (
    PacketParams1D,
    bouncer_coefficients,
    bouncer_norm,
    circular_coefficients,
    delta_n_estimate,
    gaussian_model_coefficients,
    infinite_well_coefficients,
    poisson_coefficients,
    square_coefficients,
    triangle_coefficients,
    triangle_wavefunction,
)
from revival.spectra import DEFAULT_UNITS as UNITS, Spectrum1D, eval_energy

L = 1.0
WELL_PACKET = PacketParams1D(x0=0.5, p0=400 * math.pi, width_b=0.05 * math.sqrt(2.0))


def _simpson_weights(x: np.ndarray) -> np.ndarray:
    """Composite Simpson weights on an odd-length uniform grid."""
    assert len(x) % 2 == 1
    w = np.ones_like(x)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (x[1] - x[0]) / 3.0


def _mp_bouncer_overlap(n: int, z0: float, b: float) -> float:
    """a_n as a 30-digit mpmath quadrature of N_n Ai(z - y_n) psi(z) over the
    whole line (rho = 1 in the default units), zeros and norms from mpmath."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        y = -mpmath.airyaizero(n + 1)
        norm = 1 / abs(mpmath.airyai(-y, derivative=1))
        f = lambda z: mpmath.airyai(z - y) * mpmath.exp(-((z - z0) ** 2) / (2 * b * b))
        pts = sorted({z0 - 10 * b, float(y) - 10, float(y), float(y) + 10, z0, z0 + 10 * b})
        return float(norm * mpmath.quad(f, pts) / mpmath.sqrt(b * mpmath.sqrt(mpmath.pi)))


def _floor_simpson_bouncer(z0: float, b: float, n_max: int) -> np.ndarray:
    """The former builder: Simpson's rule on 8193 points over
    [max(0, z0 - 9 dx0), z0 + 9 dx0], cut at the floor."""
    dx0 = b / math.sqrt(2.0)
    z = np.linspace(max(0.0, z0 - 9.0 * dx0), z0 + 9.0 * dx0, 8193)
    psi = (b * math.sqrt(math.pi)) ** -0.5 * np.exp(-((z - z0) ** 2) / (2 * b * b))
    n = np.arange(n_max + 1)
    y, norms = specfun.airy_zeros(n_max + 1), bouncer_norm(n, 1.0)
    return np.array([np.sum(_simpson_weights(z) * norms[k] * specfun.airy_ai(z - y[k]) * psi) for k in n])


class TestGaussianModel:
    def test_normalization(self):
        c = gaussian_model_coefficients(400, 6, 1e-8)
        assert abs(sum(c.weights()) - 1.0) < 1e-6
        assert c.norm_deficit >= 0.0

    def test_incoherent_sum(self):
        c = gaussian_model_coefficients(400, 6, 1e-8)
        assert sum(c.weights() ** 2) == pytest.approx(0.047, abs=1e-3)

    def test_peak_weight(self):
        c = gaussian_model_coefficients(400, 6, 1e-8)
        peak = c.weights().max()
        assert peak == pytest.approx(1.0 / (6 * math.sqrt(2 * math.pi)), rel=1e-12)
        assert peak == pytest.approx(0.0665, abs=2e-4)

    def test_truncation_warning_near_boundary(self):
        c = gaussian_model_coefficients(3, 6, 1e-8)
        assert c.warnings  # window clipped at n = 0 with visible deficit

    def test_bad_inputs(self):
        with pytest.raises(DomainError):
            gaussian_model_coefficients(0, 6)
        with pytest.raises(DomainError):
            gaussian_model_coefficients(10, 6, cutoff=2.0)


class TestInfiniteWell:
    def test_basis_size_guard(self):
        from revival.errors import WORK_MAX_BYTES

        with pytest.raises(DomainError):
            infinite_well_coefficients(WELL_PACKET, L, 0)
        for n_max in (WORK_MAX_BYTES // 64, 10**300):
            with pytest.raises(TruncationError):
                infinite_well_coefficients(WELL_PACKET, L, n_max)

    def test_even_coefficients_vanish_at_center(self):
        p = PacketParams1D(x0=0.5, p0=0.0, width_b=0.05 * math.sqrt(2.0))
        c = infinite_well_coefficients(p, L, 80)
        even = c.weights()[(c.indices % 2) == 0]
        assert np.all(even < 1e-28)

    def test_third_coefficients_vanish_at_third(self):
        p = PacketParams1D(x0=1.0 / 3.0, p0=0.0, width_b=0.05 * math.sqrt(2.0))
        c = infinite_well_coefficients(p, L, 80)
        thirds = c.weights()[(c.indices % 3) == 0]
        assert np.all(thirds < 1e-26)

    def test_moving_packet_matches_model_ladder(self):
        c = infinite_well_coefficients(WELL_PACKET, L, 600)
        dn = delta_n_estimate(WELL_PACKET, L)
        assert dn == pytest.approx(10 / math.pi, rel=1e-12)
        model = gaussian_model_coefficients(400, dn, 1e-8, index_min=1)
        lo = max(c.index_lo, model.index_lo)
        hi = min(c.indices[-1], model.indices[-1])
        ours = np.abs(c.coefficients[lo - c.index_lo : hi + 1 - c.index_lo])
        ref = np.abs(model.coefficients[lo - model.index_lo : hi + 1 - model.index_lo])
        assert np.max(np.abs(ours - ref)) < 1e-3

    def test_energy_expectation(self):
        c = infinite_well_coefficients(WELL_PACKET, L, 600)
        s = Spectrum1D.infinite_well(L)
        e_mean = float(np.sum(c.weights() * eval_energy(s, c.indices.astype(float))))
        units = WELL_PACKET.units
        expected = (WELL_PACKET.p0**2 + units.hbar**2 / (2 * WELL_PACKET.width_b**2)) / (
            2 * units.mass
        )
        assert e_mean == pytest.approx(expected, rel=1e-4)

    def test_mirror_symmetry_of_moduli(self):
        p1 = PacketParams1D(x0=0.3, p0=120.0, width_b=0.05)
        p2 = PacketParams1D(x0=L - 0.3, p0=-120.0, width_b=0.05)
        c1 = infinite_well_coefficients(p1, L, 300)
        c2 = infinite_well_coefficients(p2, L, 300)
        assert c1.index_lo == c2.index_lo
        assert np.max(np.abs(np.abs(c1.coefficients) - np.abs(c2.coefficients))) < 1e-12

    def test_containment_error(self):
        with pytest.raises(ContainmentError):
            infinite_well_coefficients(
                PacketParams1D(x0=0.05, p0=0.0, width_b=0.05 * math.sqrt(2)), L, 100
            )

    def test_norm_deficit_small_with_estimated_basis(self):
        c = infinite_well_coefficients(WELL_PACKET, L, 600)
        assert c.norm_deficit <= 1e-6

    def test_basis_size_warning(self):
        c = infinite_well_coefficients(WELL_PACKET, L, 405)
        assert c.warnings

    def test_delta_n_scalings(self):
        p = PacketParams1D(x0=0.5, p0=0.0, width_b=math.sqrt(2.0) / (2 * math.pi))
        assert delta_n_estimate(p, 1.0) == pytest.approx(1.0, rel=1e-12)
        half = PacketParams1D(x0=0.5, p0=0.0, width_b=0.025 * math.sqrt(2.0))
        assert delta_n_estimate(half, 1.0) == pytest.approx(20 / math.pi, rel=1e-12)


class TestPoisson:
    def test_weights_sum_to_one(self):
        c = poisson_coefficients(36.0)
        assert abs(sum(c.weights()) - 1.0) < 1e-10

    def test_mean(self):
        c = poisson_coefficients(12.5)
        mean = float(np.sum(c.weights() * c.indices))
        assert mean == pytest.approx(12.5, rel=1e-9)


class TestLogPoisson:
    """log_poisson's Stirling form against 40-digit mpmath over the jc level
    window; the lgamma form lost ~n ulp (4.4e-8 at nbar 1e7)."""

    @pytest.mark.parametrize("nbar, tol", [(0.5, 5e-14), (50.0, 5e-14), (4e5, 5e-12), (1e7, 2e-11), (9.99e7, 6e-11)])
    def test_matches_mpmath(self, nbar, tol):
        mpmath = pytest.importorskip("mpmath")
        half = 12.0 * math.sqrt(max(nbar, 1.0))
        lo, hi = max(0, math.floor(nbar - half)), max(math.ceil(nbar + half), 40)
        got = packets.log_poisson(nbar, hi, lo)
        with mpmath.workdps(40):
            nb = mpmath.mpf(nbar)
            for k in np.unique(np.linspace(0, len(got) - 1, 301).astype(int)):
                n = lo + int(k)
                want = -nb + n * mpmath.log(nb) - mpmath.loggamma(n + 1)
                assert abs(got[k] - float(want)) <= tol, n
        assert abs(1.0 - math.fsum(np.exp(got))) <= 1e-14

    def test_forms_meet_at_twenty(self):
        # lgamma below n = 20, Stirling from it: both sides within an ulp-scale step
        got = packets.log_poisson(20.0, 22, 17)
        want = [-20.0 + n * math.log(20.0) - math.lgamma(n + 1.0) for n in range(17, 23)]
        assert np.max(np.abs(got - want)) <= 1e-14
        assert np.array_equal(packets.log_poisson(0.0, 3), [0.0, -np.inf, -np.inf, -np.inf])


class TestBouncer:
    def test_norm_and_energy(self):
        c = bouncer_coefficients(z0=25.0, width_b=math.sqrt(2.0))
        assert abs(sum(c.weights()) - 1.0) < 1e-6
        s = Spectrum1D.bouncer_airy(F=1.0)
        e_mean = float(
            np.sum(c.weights() * [eval_energy(s, int(n)) for n in c.indices])
        )
        # E = F z0 + <p^2>/2m + width corrections; dominated by F z0 = 25
        assert e_mean == pytest.approx(25.0 + 0.25, abs=0.05)

    def test_norm_against_simpson(self):
        # N_n = 1/(sqrt(rho) |Ai'(-y_n)|) against Simpson's rule on 4097
        # points out to where Ai^2 < 1e-30
        rho = (UNITS.hbar**2 / (2.0 * UNITS.mass)) ** (1.0 / 3.0)
        n = np.arange(60)
        got = bouncer_norm(n, rho)
        for k in n:
            y = specfun.airy_zero(int(k)).value
            z = np.linspace(0.0, rho * (y + 11.5), 4097)
            want = 1.0 / math.sqrt(np.sum(_simpson_weights(z) * specfun.airy_ai(z / rho - y) ** 2))
            assert got[k] == pytest.approx(want, rel=1e-12), k
            assert bouncer_norm(int(k), rho) == got[k]

    def test_center_index_matches_semiclassical_identification(self):
        c = bouncer_coefficients(z0=25.0, width_b=math.sqrt(2.0))
        n_peak = c.indices[np.argmax(c.weights())]
        n0 = 2.0 / (3 * math.pi) * 25.0**1.5 - 0.75
        assert abs(n_peak - n0) < 1.5

    @pytest.mark.parametrize("n", [10, 15, 20, 30, 50])
    def test_closed_form_against_mpmath(self, n):
        c = bouncer_coefficients(z0=25.0, width_b=math.sqrt(2.0))
        got = c.coefficients[n - c.index_lo]
        assert got.imag == 0.0
        assert got.real == pytest.approx(_mp_bouncer_overlap(n, 25.0, math.sqrt(2.0)), rel=1e-13, abs=0.0)

    def test_wide_packet_takes_the_log_space_path(self):
        # tau = b^2 / 2 = 30: at n = 0, tau a = 1130 and e^{tau a} overflows,
        # yet the coefficient is 3e-6 and retained
        z0, b = 40.0, math.sqrt(60.0)
        c = bouncer_coefficients(z0=z0, width_b=b, n_max=200)
        assert c.index_lo == 0 and c.norm_deficit < 1e-9 and not c.warnings
        assert 30.0 * (z0 - specfun.airy_zero(0).value) > math.log(np.finfo(float).max)
        for n in (0, 40):
            want = _mp_bouncer_overlap(n, z0, b)
            assert c.coefficients[n].real == pytest.approx(want, rel=1e-11), n

    def test_max_error_against_former_simpson_below_the_window_error(self):
        # the former builder's largest error at z0 = 20 is its +-9-spread window
        c = bouncer_coefficients(z0=20.0, width_b=math.sqrt(2.0), n_max=60)
        old = _floor_simpson_bouncer(20.0, math.sqrt(2.0), 60)[c.indices]
        assert np.max(np.abs(c.coefficients.real - old)) < 2e-10

    @pytest.mark.parametrize("spreads, want", [(3, 1.17e-2), (9, 1.23e-10)])
    def test_containment_edge_against_floor_cut(self, spreads, want):
        # the closed form counts the Gaussian's tail below the floor, the
        # former Simpson builder cut it off: their difference is pinned
        b = math.sqrt(2.0)  # dx0 = 1
        c = bouncer_coefficients(z0=float(spreads), width_b=b, n_max=60)
        old = _floor_simpson_bouncer(float(spreads), b, 60)[c.indices]
        assert np.max(np.abs(c.coefficients.real - old)) == pytest.approx(want, rel=0.05)

    def test_deficit_warning_fires_at_the_edge(self):
        edge = bouncer_coefficients(z0=3.0, width_b=math.sqrt(2.0), n_max=60)
        assert edge.norm_deficit > 1e-4 and "n_max may be too small" in edge.warnings[0]
        assert not bouncer_coefficients(z0=9.0, width_b=math.sqrt(2.0), n_max=60).warnings

    def test_containment(self):
        with pytest.raises(ContainmentError):
            bouncer_coefficients(z0=2.0, width_b=math.sqrt(2.0))


def _triangle_loop(x0, y0, p0x, p0y, b, L, m_cap, units=UNITS):
    """The former builder: six scalar gaussian_transform calls per label in
    a Python loop, over labels from nested loops."""
    labels = []
    for n in range(1, m_cap // 2 + 1):
        for m in range(2 * n, m_cap + 1):
            labels.extend([(m, n, "o")] if m == 2 * n else [(m, n, "+"), (m, n, "-")])
    kx, ky = p0x / units.hbar, p0y / units.hbar
    cx, cy = 2 * math.pi / (3 * L), 2 * math.pi / (math.sqrt(3.0) * L)
    norm = math.sqrt(16.0 / (L**2 * 3.0 * math.sqrt(3.0)))
    norm_o = math.sqrt(8.0 / (L**2 * 3.0 * math.sqrt(3.0)))
    gauss_norm = 1.0 / (b * math.sqrt(math.pi))
    line = b * math.sqrt(2 * math.pi)
    g = packets.gaussian_transform
    ix_cos = lambda C: line / 2.0 * (g(C, x0, kx, b) + g(-C, x0, kx, b))
    ix_sin = lambda C: line / 2j * (g(C, x0, kx, b) - g(-C, x0, kx, b))
    iy_sin = lambda C: line / 2j * (g(C, y0, ky, b) - g(-C, y0, ky, b))
    vals = np.empty(len(labels), dtype=complex)
    for i, (m, n, sym) in enumerate(labels):
        if sym == "-":
            val = (ix_sin(cx * (2 * m - n)) * iy_sin(cy * n) - ix_sin(cx * (2 * n - m)) * iy_sin(cy * m)
                   - ix_sin(cx * (m + n)) * iy_sin(cy * (m - n))) * norm
        elif sym == "+":
            val = (ix_cos(cx * (2 * m - n)) * iy_sin(cy * n) - ix_cos(cx * (2 * n - m)) * iy_sin(cy * m)
                   + ix_cos(cx * (m + n)) * iy_sin(cy * (m - n))) * norm
        else:
            val = (2.0 * ix_cos(2 * math.pi * n / L) * iy_sin(cy * n) - ix_cos(0.0) * iy_sin(2 * cy * n)) * norm_o
        vals[i] = gauss_norm * val
    return packets._finish_2d(packets.label_array(*zip(*labels)), vals, 1e-4, "m_cap")


class TestTriangle:
    B = math.sqrt(2.0) * L / 20.0
    CENTROID = (0.0, L / math.sqrt(3.0))

    @pytest.mark.parametrize("args", [
        (0.0, 0.55, 20.0, 10.0, 0.05 * math.sqrt(2.0), L, 16),   # the bench packet
        (0.0, 0.55, 20.0, 10.0, 0.05 * math.sqrt(2.0), L, 64),
        (0.1, 0.65, 3.0, -7.0, 0.05 * math.sqrt(2.0), L, 64),
        (-0.05, 0.5, 0.0, 0.0, 0.05, L, 41),
    ], ids=["bench", "bench_64", "off_axis_64", "odd_cap"])
    def test_label_arrays_match_the_loop(self, args):
        # the same bits as the scalar loop; only values far below the
        # retention floor (~1e-33 and less) may round differently, where
        # numpy-scalar ** 2 and the array square differ in the last bit
        got, want = triangle_coefficients(*args), _triangle_loop(*args)
        assert got.labels.tolist() == want.labels.tolist()
        assert np.array_equal(got.coefficients.view(np.int64), want.coefficients.view(np.int64))
        assert (got.norm_deficit, got.warnings) == (want.norm_deficit, want.warnings)

    def test_label_table_is_bounded(self):
        # about 4.3e9 labels would need ~690 GiB; refused before any allocation
        with pytest.raises(TruncationError, match="label table"):
            packets.triangle_state_labels(100_000)
        assert packets.triangle_state_labels(6).tolist() == [
            (2, 1, "o"), (3, 1, "+"), (3, 1, "-"), (4, 1, "+"), (4, 1, "-"), (5, 1, "+"), (5, 1, "-"),
            (6, 1, "+"), (6, 1, "-"), (4, 2, "o"), (5, 2, "+"), (5, 2, "-"), (6, 2, "+"), (6, 2, "-"), (6, 3, "o")]

    def test_odd_states_vanish_for_symmetric_packet(self, monkeypatch):
        # below the retention floor, every odd state is dropped; with no
        # floor they are all kept, and each is below 1e-12
        c = triangle_coefficients(*self.CENTROID, 0.0, 0.0, self.B, L, 26)
        assert all(lab[2] != "-" for lab in c.labels.tolist())
        monkeypatch.setattr(packets, "RELATIVE_FLOOR", 0.0)
        c = triangle_coefficients(*self.CENTROID, 0.0, 0.0, self.B, L, 26)
        odd = [abs(a) for lab, a in zip(c.labels.tolist(), c.coefficients) if lab[2] == "-"]
        assert max(odd) <= 1e-12

    def test_trimmed_autocorrelation_within_dropped_weight(self, monkeypatch):
        # the equilateral packet of the CLI runs: at m_cap 64 the floor keeps
        # 394 of the 2,016 labels, and A(t) over one revival time moves by no
        # more than the weight of the labels it drops
        from revival.billiards import autocorrelation_2d, equilateral_spectrum

        args = (0.0, 0.55, 20.0, 10.0, 0.05 * math.sqrt(2.0), L, 64)
        kept = triangle_coefficients(*args)
        monkeypatch.setattr(packets, "RELATIVE_FLOOR", 0.0)
        full = triangle_coefficients(*args)
        assert (len(kept.labels), len(full.labels)) == (394, 2016)
        retained = set(kept.labels.tolist())
        dropped = sum(w for lab, w in zip(full.labels.tolist(), full.weights()) if lab not in retained)
        assert 0.0 < dropped < 1e-17
        s = equilateral_spectrum(L, m_cap=64)
        t = np.linspace(0.0, 9 * UNITS.mass * L**2 / (4 * UNITS.hbar * math.pi), 2001)
        gap = autocorrelation_2d(kept, s, t).values - autocorrelation_2d(full, s, t).values
        assert np.max(np.abs(gap)) <= dropped

    def test_norm_captured(self):
        c = triangle_coefficients(*self.CENTROID, 0.0, 0.0, self.B, L, 26)
        assert abs(sum(c.weights()) - 1.0) < 1e-4

    def test_norm_against_quadrature_oracle(self):
        # independent check: the packet's probability inside the triangle
        x0, y0 = 0.1, 0.65
        c = triangle_coefficients(x0, y0, 0.0, 0.0, self.B, L, 30)
        n = 801
        xs = np.linspace(-L / 2, L / 2, n)
        ys = np.linspace(0.0, math.sqrt(3) * L / 2, n)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        inside = (Y >= math.sqrt(3) * np.abs(X)) & (Y <= math.sqrt(3) * L / 2)
        b = self.B
        dens = (1.0 / (math.pi * b**2)) * np.exp(-((X - x0) ** 2 + (Y - y0) ** 2) / b**2)
        captured = float(np.sum(dens * inside) * (xs[1] - xs[0]) * (ys[1] - ys[0]))
        assert sum(c.weights()) == pytest.approx(captured, abs=1e-4)

    def test_odd_coefficient_flips_with_center(self):
        ca = triangle_coefficients(0.1, 0.65, 0.0, 0.0, self.B, L, 20)
        cb = triangle_coefficients(-0.1, 0.65, 0.0, 0.0, self.B, L, 20)
        for lab, a, b in zip(ca.labels.tolist(), ca.coefficients, cb.coefficients):
            if lab[2] == "-":
                assert a == pytest.approx(-b, abs=1e-13)
            else:
                assert a == pytest.approx(b, abs=1e-13)

    def test_wavefunctions_vanish_on_walls(self):
        s3 = math.sqrt(3.0)
        ts = np.linspace(0.02, 0.98, 41)
        for lab in [(3, 1, "+"), (3, 1, "-"), (4, 2, "o"), (12, 5, "-")]:
            top = triangle_wavefunction(lab, (ts - 0.5) * L, np.full_like(ts, s3 * L / 2), L)
            right = triangle_wavefunction(lab, 0.5 * ts * L, s3 * 0.5 * ts * L, L)
            left = triangle_wavefunction(lab, -0.5 * ts * L, s3 * 0.5 * ts * L, L)
            assert np.max(np.abs(np.concatenate([top, right, left]))) < 1e-10

    def test_kinetic_stencil_reproduces_energy(self):
        # 5-point Laplacian vs E * w on interior points, h = L/400
        h = L / 400.0
        units = Spectrum1D.infinite_well().units
        pref = units.hbar**2 / (2 * units.mass * L**2) * (4 * math.pi / 3) ** 2
        xs = np.arange(-L / 2 + 6 * h, L / 2 - 5 * h, 4 * h)
        ys = np.arange(6 * h, math.sqrt(3) * L / 2 - 5 * h, 4 * h)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        interior = Y - 6 * h >= math.sqrt(3) * np.abs(X) + 6 * h
        for lab in [(3, 1, "-"), (7, 2, "+"), (12, 5, "-"), (10, 5, "o")]:
            m, n, _ = lab
            energy = pref * (m**2 + n**2 - m * n)
            w = triangle_wavefunction(lab, X, Y, L)
            lap = (
                triangle_wavefunction(lab, X + h, Y, L)
                + triangle_wavefunction(lab, X - h, Y, L)
                + triangle_wavefunction(lab, X, Y + h, L)
                + triangle_wavefunction(lab, X, Y - h, L)
                - 4 * w
            ) / h**2
            kinetic = -(units.hbar**2 / (2 * units.mass)) * lap
            resid = np.abs(kinetic - energy * w)[interior]
            scale = np.max(np.abs(energy * w[interior]))
            assert np.max(resid) / scale < 0.01

    def test_containment(self):
        with pytest.raises(ContainmentError):
            triangle_coefficients(0.0, 0.02, 0.0, 0.0, self.B, L, 12)


def _disk_overlaps(x0, y0, p0x, p0y, b, R, m_cap, nr_cap, n_r=128, n_t=256):
    """Brute-force reference: the packet projected onto every circle mode
    over the disk only, by radial Gauss-Legendre x angular FFT quadrature,
    with scipy's Bessel functions and zeros. Returns {(m, n): a_mn}."""
    import scipy.special as sp

    nodes, wts = np.polynomial.legendre.leggauss(n_r)
    r, wr = 0.5 * R * (nodes + 1.0), 0.5 * R * wts
    theta = 2.0 * math.pi * np.arange(n_t) / n_t
    x, y = r[:, None] * np.cos(theta), r[:, None] * np.sin(theta)
    psi = np.exp(-((x - x0) ** 2 + (y - y0) ** 2) / (2 * b * b) + 1j * (p0x * (x - x0) + p0y * (y - y0)))
    angular = np.fft.fft(psi / (b * math.sqrt(math.pi)), axis=1) * (2.0 * math.pi / n_t)
    out = {}
    for m in range(-m_cap, m_cap + 1):
        for n, z in enumerate(sp.jn_zeros(abs(m), nr_cap + 1)):
            norm = math.sqrt(2.0) / (R * abs(sp.jv(abs(m) + 1, z)))
            radial = wr * r * sp.jv(abs(m), z * r / R)
            out[(m, n)] = norm / math.sqrt(2.0 * math.pi) * np.sum(radial * angular[:, m % n_t])
    return out


def _retained_gap(c, ref) -> float:
    """Largest |a - reference| over the labels the builder retained."""
    return max(abs(a - ref[lab[:2]]) for lab, a in zip(c.labels.tolist(), c.coefficients))


class TestCircular:
    B = 1.0 / (10.0 * math.sqrt(2.0))
    BENCH = (0.3, 0.0, 0.0, 20.0, 0.05 * math.sqrt(2.0), 1.0, 16, 30)
    HIGH_MOMENTUM = (0.5, 0.0, 300.0, 0.0, 0.05 * math.sqrt(2.0), 1.0, 59, 200)

    def test_central_packet_pure_m0(self):
        c = circular_coefficients(0.0, 0.0, 0.0, 0.0, self.B, 1.0, 6, 25)
        bad = [abs(a) for (m, k, _), a in zip(c.labels.tolist(), c.coefficients) if m != 0]
        assert not bad or max(bad) <= 1e-12
        assert abs(sum(c.weights()) - 1.0) < 1e-3

    def test_radial_mode_norm_against_quadrature(self):
        import scipy.integrate as si
        import scipy.special as sp

        R = 1.0
        zs, norms = packets._disk_modes(11, 7, R)
        for m, k in [(0, 0), (0, 7), (3, 2), (11, 5)]:
            z = sp.jn_zeros(m, k + 1)[k]
            assert zs[m, k] == pytest.approx(z, rel=1e-12)
            val = si.quad(lambda r: (norms[m, k] * sp.jv(m, z * r / R)) ** 2 * r, 0, R, limit=200)[0]
            assert val == pytest.approx(1.0, abs=1e-10)

    def test_vectorised_norms_match_scalar_norm(self):
        # the builder's norm table against one scalar J_{|m|+1} call per mode
        for R in (1.0, 2.5):
            _, norms = packets._disk_modes(16, 30, R)
            for m in range(17):
                scalar = np.array([
                    math.sqrt(2.0) / (R * abs(specfun.bessel_j(m + 1, specfun.bessel_zero(m, k).value)))
                    for k in range(31)
                ])
                assert np.all(np.abs(norms[m] - scalar) <= 4 * np.spacing(scalar))

    def test_full_caps_norm(self):
        c = circular_coefficients(0.0, 0.0, 0.0, 0.0, self.B, 1.0, 40, 60)
        assert abs(sum(c.weights()) - 1.0) < 1e-3

    def test_off_center_norm_against_oracle(self):
        # packet fully inside -> captured probability is 1 up to tails
        c = circular_coefficients(0.25, 0.0, 0.0, 0.0, self.B, 1.0, 16, 30)
        assert abs(sum(c.weights()) - 1.0) < 1e-3

    @pytest.mark.parametrize("packet", [BENCH, (0.1, -0.2, 15.0, -20.0, 0.05 * math.sqrt(2.0), 1.0, 12, 20)],
                             ids=["bench", "oblique"])
    def test_matches_brute_force_disk_overlaps(self, packet):
        c = circular_coefficients(*packet)
        ref = _disk_overlaps(*packet)
        assert _retained_gap(c, ref) < 1e-12
        # what the builder dropped is below its relative floor there too
        floor = packets.RELATIVE_FLOOR * np.max(np.abs(c.coefficients))
        kept = {lab[:2] for lab in c.labels.tolist()}
        assert max([abs(a) for lab, a in ref.items() if lab not in kept] + [0.0]) < 1.01 * floor

    @pytest.mark.parametrize("spreads, want", [(3, 1.38e-3), (9, 9.5e-12)])
    def test_containment_edge_against_disk(self, spreads, want):
        # the closed form integrates over the plane, the reference over the
        # disk: their gap at 3 and 9 spreads of wall clearance, pinned
        b = 0.05 * math.sqrt(2.0)  # dx0 = 0.05
        packet = (1.0 - spreads * 0.05, 0.0, 0.0, 0.0, b, 1.0, 16, 30)
        gap = _retained_gap(circular_coefficients(*packet), _disk_overlaps(*packet))
        assert gap == pytest.approx(want, rel=0.1)

    def test_deficit_warning_fires_at_the_edge(self):
        b = 0.05 * math.sqrt(2.0)
        edge = circular_coefficients(0.85, 0.0, 0.0, 0.0, b, 1.0, 30, 45)
        assert edge.norm_deficit > 1e-3 and "m_cap or nr_cap may be too small" in edge.warnings[0]
        assert not circular_coefficients(0.55, 0.0, 0.0, 0.0, b, 1.0, 30, 45).warnings

    @pytest.mark.parametrize("packet", [BENCH, HIGH_MOMENTUM], ids=["bench", "high_momentum"])
    def test_ring_size_resolves_the_ring(self, packet, monkeypatch):
        # the former 128 x 256 quadrature gave sum |a|^2 = 1.9997 at high momentum
        c = circular_coefficients(*packet)
        assert np.sum(c.weights()) <= 1.0 and c.norm_deficit >= 0.0
        ring_size = packets._ring_size
        monkeypatch.setattr(packets, "_ring_size", lambda *args: 2 * ring_size(*args))
        doubled = circular_coefficients(*packet)
        assert doubled.labels.tolist() == c.labels.tolist()
        peak = np.max(np.abs(c.coefficients))
        assert np.max(np.abs(doubled.coefficients - c.coefficients)) <= 1e-14 * peak

    @pytest.mark.parametrize("packet, bound_mb", [(BENCH, 4.0), (HIGH_MOMENTUM, 32.0)],
                             ids=["bench", "high_momentum"])
    def test_working_memory(self, packet, bound_mb):
        # one (n_k, M) ring per order; the former quadrature peaked at 8.5 MB
        # (bench) and 172 MB (caps 59/200). Zero tables are warmed first.
        import tracemalloc

        circular_coefficients(*packet)
        tracemalloc.start()
        try:
            circular_coefficients(*packet)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mb * 2**20

    def test_containment(self):
        with pytest.raises(ContainmentError):
            circular_coefficients(0.9, 0.0, 0.0, 0.0, self.B, 1.0, 4, 10)


class TestSquare:
    def test_outer_product_of_the_box_sets(self):
        b = 0.05 * math.sqrt(2.0)
        cx = infinite_well_coefficients(PacketParams1D(0.3, 20.0, b), L, 16)
        cy = infinite_well_coefficients(PacketParams1D(0.4, 10.0, b), L, 16)
        c = square_coefficients(0.3, 0.4, 20.0, 10.0, b, L, 16)
        assert c.labels.tolist() == [(nx, ny, "") for nx, ny in itertools.product(cx.indices.tolist(),
                                                                                 cy.indices.tolist())]
        # bitwise the products of numpy complex scalars, label by label
        scalar = np.frompyfunc(operator.mul, 2, 1).outer(list(cx.coefficients), list(cy.coefficients))
        assert np.array_equal(c.coefficients, scalar.ravel().astype(complex))
        assert c.norm_deficit == pytest.approx(1.0 - np.sum(c.weights()), abs=1e-15)

    def test_short_basis_warns(self):
        c = square_coefficients(0.5, 0.5, 200 * math.pi, 0.0, 0.05 * math.sqrt(2.0), L, 150)
        assert c.norm_deficit > 1e-4 and "m_cap may be too small" in c.warnings[-1]


class TestWarningsNameTheKey:
    # a deficit warning names the billiard2d key that widens the basis
    @pytest.mark.parametrize("build, key", [
        (lambda: square_coefficients(0.3, 0.4, 20.0, 10.0, 0.05 * math.sqrt(2.0), L, m_cap=16), "m_cap"),
        (lambda: triangle_coefficients(0.0, 0.55, 20.0, 10.0, 0.05 * math.sqrt(2.0), L, m_cap=10), "m_cap"),
        (lambda: circular_coefficients(0.3, 0.0, 0.0, 20.0, 0.05 * math.sqrt(2.0), 1.0, 16, 30),
         "m_cap or nr_cap"),
    ], ids=["square", "triangle", "circle"])
    def test_deficit_warning_names_the_cap_key(self, build, key):
        c = build()
        assert c.warnings == (f"norm deficit {c.norm_deficit:.2e}: {key} may be too small",)


class TestPacketOutsideTheBasis:
    # a momentum far past what the basis spans leaves every coefficient 0:
    # an all-zero set gave A(t) = 0 with a norm deficit of 1 and no error.
    # At 1e300 the exponents overflow, silently (warnings are errors here)
    BUILDERS = {
        "box": lambda p0, b: infinite_well_coefficients(PacketParams1D(0.5, p0, b), L, 16),
        "square": lambda p0, b: square_coefficients(0.3, 0.4, p0, 10.0, b, L, 16),
        "triangle": lambda p0, b: triangle_coefficients(0.0, 0.55, p0, 10.0, b, L, 16),
        "circle": lambda p0, b: circular_coefficients(0.3, 0.4, p0, 0.0, b, 1.0, 16, 30),
    }

    @pytest.mark.parametrize("p0", [1e3, 1e300])
    @pytest.mark.parametrize("builder", sorted(BUILDERS))
    def test_all_zero_set_is_domain_error(self, builder, p0):
        with pytest.raises(DomainError, match="no coefficient is nonzero and finite"):
            self.BUILDERS[builder](p0, 0.05 * math.sqrt(2.0))

    def test_unbounded_ring_size_is_truncation_error(self):
        # b^2 underflows to 0 and (p - k)^2 overflows: the aliasing bound is 0 * inf
        with pytest.raises(TruncationError, match="ring FFT size"):
            circular_coefficients(0.3, 0.4, 1e300, 0.0, 1e-170, 1.0, 4, 4)


class TestSerialization:
    def test_csv_roundtrip_columns(self, tmp_path):
        c = gaussian_model_coefficients(10, 2)
        path = tmp_path / "coeff.csv"
        c.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "index1,index2,re,im"
        first = lines[1].split(",")
        assert int(first[0]) == c.index_lo
        assert first[1] == ""
        assert float(first[2]) == pytest.approx(abs(c.coefficients[0]), rel=1e-15)

    def test_2d_csv(self, tmp_path):
        c = triangle_coefficients(0.0, L / math.sqrt(3), 0.0, 0.0, 0.08, L, 10)
        path = tmp_path / "tri.csv"
        c.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header.startswith("index1,index2,re,im")


class TestTriangleContainment:
    B = math.sqrt(2.0) * 0.05

    @pytest.mark.parametrize("center", [(0.5, 0.3), (5.0, 0.0)])
    def test_center_outside_triangle_rejected(self, center):
        # both points lie beyond the right wall y = sqrt(3) x
        with pytest.raises(ContainmentError):
            triangle_coefficients(*center, 0.0, 0.0, self.B, L, 10)

    def test_interior_center_accepted(self):
        c = triangle_coefficients(0.0, 0.55, 20.0, 10.0, self.B, L, 16)
        assert len(c.labels) > 0
