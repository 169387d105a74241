"""Coefficient builders: model Gaussian, box closed forms, bouncer
overlaps, and the 2D billiard overlaps."""

import math

import numpy as np
import pytest

from revival import specfun
from revival.errors import ContainmentError, DomainError, TruncationError
from revival.packets import (
    PacketParams1D,
    _simpson_weights,
    bouncer_coefficients,
    bouncer_norm,
    circular_coefficients,
    circular_mode_norm,
    delta_n_estimate,
    gaussian_model_coefficients,
    infinite_well_coefficients,
    poisson_coefficients,
    triangle_coefficients,
    triangle_wavefunction,
)
from revival.spectra import DEFAULT_UNITS as UNITS, Spectrum1D, eval_energy

L = 1.0
WELL_PACKET = PacketParams1D(x0=0.5, p0=400 * math.pi, width_b=0.05 * math.sqrt(2.0))


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
        from revival.packets import BOX_MAX_BYTES

        with pytest.raises(DomainError):
            infinite_well_coefficients(WELL_PACKET, L, 0)
        for n_max in (BOX_MAX_BYTES // 64, 10**300):
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


class TestTriangle:
    B = math.sqrt(2.0) * L / 20.0
    CENTROID = (0.0, L / math.sqrt(3.0))

    def test_odd_states_vanish_for_symmetric_packet(self):
        c = triangle_coefficients(*self.CENTROID, 0.0, 0.0, self.B, L, 26)
        odd = [abs(a) for lab, a in zip(c.labels, c.coefficients) if lab[2] == "-"]
        assert max(odd) <= 1e-12

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
        for lab, a, b in zip(ca.labels, ca.coefficients, cb.coefficients):
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


class TestCircular:
    B = 1.0 / (10.0 * math.sqrt(2.0))

    def test_central_packet_pure_m0(self):
        c = circular_coefficients(0.0, 0.0, 0.0, 0.0, self.B, 1.0, 6, 25)
        bad = [abs(a) for (m, k), a in zip(c.labels, c.coefficients) if m != 0]
        assert not bad or max(bad) <= 1e-12
        assert abs(sum(c.weights()) - 1.0) < 1e-3

    def test_radial_mode_norm_against_quadrature(self):
        import scipy.integrate as si
        import scipy.special as sp

        R = 1.0
        for m, k in [(0, 0), (0, 7), (3, 2), (11, 5)]:
            z = sp.jn_zeros(m, k + 1)[k]
            norm = circular_mode_norm(m, k, R)
            val = si.quad(lambda r: (norm * sp.jv(m, z * r / R)) ** 2 * r, 0, R, limit=200)[0]
            assert val == pytest.approx(1.0, abs=1e-10)

    def test_vectorised_norms_match_scalar_norm(self):
        # the builder's norms: one J_{|m|+1} call over the order's zeros
        from revival import specfun

        for R in (1.0, 2.5):
            for m in range(17):
                zs = specfun.bessel_zeros(m, 31)
                vec = math.sqrt(2.0) / (R * np.abs(specfun.bessel_j(m + 1, zs)))
                scalar = np.array([circular_mode_norm(m, k, R) for k in range(31)])
                assert np.all(np.abs(vec - scalar) <= 4 * np.spacing(scalar))

    def test_full_caps_norm(self):
        c = circular_coefficients(0.0, 0.0, 0.0, 0.0, self.B, 1.0, 40, 60)
        assert abs(sum(c.weights()) - 1.0) < 1e-3

    def test_off_center_norm_against_oracle(self):
        # packet fully inside -> captured probability is 1 up to tails
        c = circular_coefficients(0.25, 0.0, 0.0, 0.0, self.B, 1.0, 16, 30)
        assert abs(sum(c.weights()) - 1.0) < 1e-3

    def test_containment(self):
        with pytest.raises(ContainmentError):
            circular_coefficients(0.9, 0.0, 0.0, 0.0, self.B, 1.0, 4, 10)


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
