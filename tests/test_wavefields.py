"""Position-space synthesis, observables, phase-space grids, rasters."""

import math

import numpy as np
import pytest

from revival import specfun
from revival.dynamics import _phase_block
from revival.errors import DomainError, TruncationError
from revival.packets import (
    PacketParams1D,
    _simpson_weights,
    bouncer_coefficients,
    infinite_well_coefficients,
)
from revival.spectra import Spectrum1D, eval_energy, time_scales
from revival.wavefields import (
    WIGNER_MAX_BYTES,
    AxisSpec,
    BouncerBasis,
    FieldGrid,
    InfiniteWellBasis,
    carpet,
    default_momentum_span,
    momentum_density,
    observables,
    psi_xt,
    wigner_infinite_well,
    wigner_marginals,
    wigner_term,
    _wigner_work_bytes,
)

L = 1.0
WELL = InfiniteWellBasis(L)
TREV = time_scales(Spectrum1D.infinite_well(L), 400).t_revival
PACKET = PacketParams1D(x0=2.0 / 3.0, p0=400 * math.pi, width_b=0.05 * math.sqrt(2.0))


@pytest.fixture(scope="module")
def cset():
    return infinite_well_coefficients(PACKET, L, 600)


class TestPsiXt:
    def test_initial_reconstruction(self, cset):
        x = np.linspace(0.0, L, 801)
        psi = psi_xt(cset, WELL, x, 0.0)
        b = PACKET.width_b
        target = (
            (b * math.sqrt(math.pi)) ** -0.5
            * np.exp(-((x - PACKET.x0) ** 2) / (2 * b**2))
        )
        assert np.max(np.abs(np.abs(psi) ** 2 - target**2)) < 1e-4

    def test_boundaries_exact_zero(self, cset):
        psi = psi_xt(cset, WELL, np.array([0.0, L]), 0.37)
        assert abs(psi[0]) < 1e-12 and abs(psi[1]) < 1e-12

    def test_mirror_at_half_revival(self, cset):
        x = np.linspace(0.0, L, 701)
        early = np.abs(psi_xt(cset, WELL, x, 0.0)) ** 2
        half = np.abs(psi_xt(cset, WELL, x[::-1], TREV / 2)) ** 2
        assert np.max(np.abs(half - early)) < 1e-8

    def test_norm_conserved(self, cset):
        x = np.linspace(0.0, L, 4097)
        for t in (0.0, 0.1 * TREV, 0.37 * TREV):
            psi = psi_xt(cset, WELL, x, t)
            norm = np.trapezoid(np.abs(psi) ** 2, x)
            assert norm == pytest.approx(1.0 - cset.norm_deficit, abs=1e-6)


class TestMatrixElementOracle:
    def test_closed_forms_match_quadrature(self):
        # x, x^2, p elements vs a fine composite-Simpson quadrature
        n = np.arange(1, 51)
        count = 16385
        x = np.linspace(0.0, L, count)
        h = x[1] - x[0]
        w = np.ones(count)
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        w *= h / 3.0
        u = WELL.functions(n, x)
        du = np.sqrt(2.0 / L) * (n[:, None] * math.pi / L) * np.cos(
            n[:, None] * math.pi * x[None, :] / L
        )
        x_quad = (u * w * x) @ u.T
        x2_quad = (u * w * x**2) @ u.T
        p_quad = -1j * WELL.units.hbar * (u * w) @ du.T
        assert np.max(np.abs(WELL.x_matrix(n) - x_quad)) < 1e-10
        assert np.max(np.abs(WELL.x2_matrix(n) - x2_quad)) < 1e-10
        assert np.max(np.abs(WELL.p_matrix(n) - p_quad)) < 1e-9


class TestObservables:
    def test_initial_values(self, cset):
        obs = observables(cset, WELL, [0.0])
        assert obs.mean_x[0] == pytest.approx(PACKET.x0, abs=1e-6)
        assert obs.mean_p[0] == pytest.approx(PACKET.p0, rel=1e-6)
        assert obs.sd_x[0] == pytest.approx(PACKET.dx0, rel=1e-5)
        assert obs.sd_p[0] == pytest.approx(PACKET.dp0, rel=1e-3)

    @pytest.mark.parametrize("which", ["box", "bouncer"])
    def test_batched_forms_match_per_time_loop(self, cset, which):
        # reference: four quadratic forms per time, as before the einsum
        if which == "box":
            c, basis, grid = cset, WELL, np.linspace(0.0, 0.3 * TREV, 37)
        else:
            c, basis = bouncer_coefficients(z0=20.0, width_b=math.sqrt(2.0), n_max=60), BouncerBasis()
            grid = np.linspace(0.0, 400.0, 37)
        obs = observables(c, basis, grid)
        n = c.indices
        mats = [basis.x_matrix(n), basis.x2_matrix(n), basis.p_matrix(n), basis.p2_matrix(n)]
        for i, t in enumerate(grid):
            a = c.coefficients * np.conj(_phase_block([t], n, basis.spectrum)[:, 0])
            mx, x2, mp, p2 = (float(np.real(np.conj(a) @ m @ a)) for m in mats)
            assert obs.mean_x[i] == pytest.approx(mx, rel=1e-9, abs=1e-12)
            assert obs.mean_p[i] == pytest.approx(mp, rel=1e-9, abs=1e-9)
            assert obs.sd_x[i] == pytest.approx(math.sqrt(max(x2 - mx**2, 0.0)), rel=1e-9)
            assert obs.sd_p[i] == pytest.approx(math.sqrt(max(p2 - mp**2, 0.0)), rel=1e-9)

    def test_uncertainty_product(self, cset):
        rng = np.random.default_rng(3)
        grid = np.sort(rng.uniform(0.0, TREV, 60))
        obs = observables(cset, WELL, grid)
        hbar = WELL.units.hbar
        assert np.all(obs.sd_x * obs.sd_p >= hbar / 2 - 1e-9)

    def test_collapsed_window_classical_values(self, cset):
        lo, hi = 0.35 * TREV, 0.45 * TREV
        t_cl = TREV / 800.0
        exclude = [(f, q) for q in range(1, 9) for f in range(1, q) if math.gcd(f, q) == 1]
        grid = np.linspace(lo, hi, 600)
        keep = np.ones(len(grid), dtype=bool)
        for f, q in exclude:
            center = (f / q) * TREV
            keep &= np.abs(grid - center) > t_cl
        obs = observables(cset, WELL, grid[keep])
        assert np.mean(obs.sd_x) == pytest.approx(L / math.sqrt(12.0), rel=0.02)
        assert np.mean(obs.mean_x) == pytest.approx(L / 2.0, rel=0.02)
        assert abs(np.mean(obs.mean_p)) < 0.02 * PACKET.p0
        assert np.mean(obs.sd_p) == pytest.approx(PACKET.p0, rel=0.03)

    def test_momentum_flip_at_half_revival(self, cset):
        obs = observables(cset, WELL, [0.0, TREV / 2.0])
        assert obs.mean_p[1] == pytest.approx(-obs.mean_p[0], rel=1e-3)
        assert obs.sd_p[1] == pytest.approx(obs.sd_p[0], rel=1e-6)


class TestMomentumDensity:
    def test_initial_gaussian(self, cset):
        p = np.linspace(PACKET.p0 - 60.0, PACKET.p0 + 60.0, 301)
        dens = momentum_density(cset, WELL, p, 0.0)
        dp = PACKET.dp0
        target = np.exp(-((p - PACKET.p0) ** 2) / (2 * dp**2)) / (dp * math.sqrt(2 * math.pi))
        assert np.max(np.abs(dens - target)) / target.max() < 1e-3

    def test_mirror_momentum(self, cset):
        p = np.linspace(-1400.0, 1400.0, 701)
        d0 = momentum_density(cset, WELL, p, 0.1 * TREV)
        dhalf = momentum_density(cset, WELL, p[::-1], 0.1 * TREV + TREV / 2.0)
        assert np.max(np.abs(dhalf - d0)) / d0.max() < 1e-6


class TestMomentumTransform:
    def test_poles_against_mpmath(self):
        # q = +-k_n, where the k (1 - (-1)^n e^{-iqL}) / (k^2 - q^2) form is 0/0
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 20
        hbar = WELL.units.hbar
        nodes = mpmath.linspace(0, L, 21)
        for k in (1, 2, 7, 40):
            kk = k * mpmath.pi / L
            for sign in (1, -1):
                p = sign * k * math.pi * hbar / L
                q = mpmath.mpf(p) / hbar
                f = lambda x: mpmath.sin(kk * x) * mpmath.expj(-q * x)
                integral = mpmath.quad(f, nodes, method="gauss-legendre")
                want = complex(mpmath.sqrt(2 / mpmath.mpf(L)) * integral / mpmath.sqrt(2 * mpmath.pi * hbar))
                got = WELL.momentum_transform(np.array([k]), np.array([p]))[0, 0]
                assert abs(got - want) < 1e-13, (k, sign)

class TestWigner:
    N0 = 40

    @pytest.fixture(scope="class")
    @staticmethod
    def packet40():
        p = PacketParams1D(x0=0.5, p0=40 * math.pi, width_b=0.05 * math.sqrt(2.0))
        return p, infinite_well_coefficients(p, L, 160)

    def test_hermitian_pairing_of_terms(self):
        x = np.linspace(0.1, 0.9, 9)
        p = np.linspace(-30.0, 30.0, 7)
        for m, n in [(3, 5), (10, 11), (7, 2)]:
            a = wigner_term(m, n, L, x, p)
            b = wigner_term(n, m, L, x, p)
            assert np.max(np.abs(np.conj(a) - b)) < 1e-14

    def test_diagonal_reduces_to_single_mode_form(self):
        # diagonal term integrates over p to u_n(x)^2
        n = 6
        x = np.linspace(0.05, 0.95, 19)
        p = np.linspace(-900.0, 900.0, 20001)
        term = wigner_term(n, n, L, x, p)
        marg = np.trapezoid(term.real, p, axis=1)
        target = (2.0 / L) * np.sin(n * math.pi * x / L) ** 2
        assert np.max(np.abs(marg - target)) < 5e-3

    def test_removable_singularities_finite(self):
        # p exactly at (m +- n) pi hbar / (2 L) hits the 0/0 points
        vals = wigner_term(4, 2, L, np.array([0.3]), np.array([3 * math.pi / 2, math.pi]))
        assert np.all(np.isfinite(vals))

    def test_assembled_real_and_marginals(self, packet40):
        p, c = packet40
        t = 0.3 * (2 * 0.5 * L**2 / (math.pi * self.N0))  # fraction of t_cl
        span = default_momentum_span(p.p0, p.dp0)
        x = np.linspace(L / 257, L * (1 - 1 / 257), 256)
        pg = np.linspace(-span, span, 256)
        grid = wigner_infinite_well(c, L, x, pg, t)
        assert np.isrealobj(grid.values)
        pos, mom = wigner_marginals(grid)
        psi2 = np.abs(psi_xt(c, WELL, x, t)) ** 2
        dens = momentum_density(c, WELL, pg, t)
        # rows within 4% of a wall carry 1/(x p) momentum tails that no
        # finite span can capture; compare away from them
        inner = slice(10, 246)
        assert np.max(np.abs(pos - psi2)[inner]) / psi2.max() < 1e-3
        assert np.max(np.abs(mom - dens)) / dens.max() < 1e-3

    def test_explicit_complex_assembly_is_real(self, packet40):
        # ordered double sum without the Hermitian shortcut
        _, c = packet40
        idx = c.indices
        keep = c.weights() > 1e-6
        idx = idx[keep]
        avals = c.coefficients[keep]
        x = np.linspace(0.2, 0.8, 24)
        pg = np.linspace(-200.0, 200.0, 25)
        total = np.zeros((len(x), len(pg)), dtype=complex)
        for i, m in enumerate(idx):
            for j, n in enumerate(idx):
                total += np.conj(avals[i]) * avals[j] * wigner_term(int(m), int(n), L, x, pg)
        assert np.max(np.abs(total.imag)) < 1e-10


class TestWignerFastPath:
    # modes 1..26, so m + n spans 2..52 and m - n spans -25..25
    PACKET = PacketParams1D(x0=0.4, p0=8 * math.pi, width_b=0.08 * math.sqrt(2.0))
    T_CL = time_scales(Spectrum1D.infinite_well(L), 8).t_classical

    @pytest.mark.parametrize("frac", [0.0, 0.3])
    def test_matches_ordered_pair_oracle(self, frac):
        c = infinite_well_coefficients(self.PACKET, L, 40)
        t = frac * self.T_CL
        x = np.arange(1, 22) / 22.0  # holds the mirror point L/2
        # p = k pi hbar/(2L) puts b = 2pL/hbar on -j pi exactly for every
        # shift |j| <= 20: p = 0, all of the m - n range, m + n up to 20
        p = np.arange(-20, 21) * (math.pi / 2.0)
        a_t = c.coefficients * np.exp(-1j * eval_energy(Spectrum1D.infinite_well(L), c.indices) * t)
        oracle = np.zeros((len(x), len(p)), dtype=complex)
        for i, m in enumerate(c.indices):
            for j, n in enumerate(c.indices):
                oracle += np.conj(a_t[i]) * a_t[j] * wigner_term(int(m), int(n), L, x, p)
        got = wigner_infinite_well(c, L, x, p, t).values
        assert np.max(np.abs(oracle.imag)) < 1e-12
        assert np.max(np.abs(got - oracle.real)) <= 1e-12 * np.max(np.abs(oracle.real))

    def test_grid_guard_just_above_cap(self):
        c = infinite_well_coefficients(self.PACKET, L, 40)
        count = len(c.indices)
        assert _wigner_work_bytes(2759, 2759, count) <= WIGNER_MAX_BYTES
        assert _wigner_work_bytes(2760, 2760, count) > WIGNER_MAX_BYTES
        x = np.linspace(0.01, 0.99, 2760)
        with pytest.raises(TruncationError, match="GiB"):
            wigner_infinite_well(c, L, x, np.linspace(-50.0, 50.0, 2760), 0.0)


class TestCarpet:
    def test_decomposition_identity(self, cset):
        tot, cls, qc = carpet(cset, L, 96, 96, TREV / 2)
        assert np.max(np.abs(cls.values + qc.values - tot.values)) < 1e-12
        x = np.linspace(0.0, L, 96)
        ts = np.linspace(0.0, TREV / 2, 96)
        worst = 0.0
        for j in (0, 31, 77, 95):
            psi2 = np.abs(psi_xt(cset, WELL, x, ts[j])) ** 2
            worst = max(worst, np.max(np.abs(tot.values[:, j] - psi2)))
        assert worst < 1e-10

    def test_mirror_time_symmetry_real_coefficients(self):
        p = PacketParams1D(x0=0.4, p0=0.0, width_b=0.05 * math.sqrt(2.0))
        c = infinite_well_coefficients(p, L, 200)
        tot, _, _ = carpet(c, L, 96, 96, TREV / 2)
        # t -> T_rev/2 - t combined with x -> L - x
        assert np.max(np.abs(tot.values - tot.values[::-1, ::-1])) < 1e-8

    def test_single_eigenstate_stationary(self):
        from revival.packets import CoefficientSet

        c = CoefficientSet(5, np.array([1.0 + 0j]), 0.0)
        tot, cls, qc = carpet(c, L, 64, 64, 0.01)
        x = np.linspace(0.0, L, 64)
        u2 = (2.0 / L) * np.sin(5 * math.pi * x / L) ** 2
        assert np.max(np.abs(tot.values - u2[:, None])) < 1e-12
        assert np.max(np.abs(cls.values - 1.0 / L)) < 1e-12
        standing = -np.cos(2 * 5 * math.pi * x / L) / L
        assert np.max(np.abs(qc.values - standing[:, None])) < 1e-12

    def test_minimum_grid_enforced(self, cset):
        with pytest.raises(DomainError):
            carpet(cset, L, 32, 96, 0.1)


def _bouncer_quadrature(basis, n):
    """x, x^2 and p matrices by Simpson's rule on 8193 points out to 14
    units of rho past the top level's turning point, with the levels
    normalised on the same grid and p = -i hbar d/dz from Ai'."""
    y = np.array([specfun.airy_zero(int(k)).value for k in n])
    z = np.linspace(0.0, basis.rho * (y.max() + 14.0), 8193)
    w = _simpson_weights(z)
    arg = z[None, :] / basis.rho - y[:, None]
    ai = specfun.airy_ai(arg)
    norms = 1.0 / np.sqrt(np.sum(w * ai**2, axis=1))[:, None]
    u = norms * ai
    du = norms * specfun.airy_ai_prime(arg) / basis.rho
    return (u * w * z) @ u.T, (u * w * z**2) @ u.T, -1j * basis.units.hbar * (u * w) @ du.T


class TestBouncerBasis:
    @pytest.fixture(scope="class")
    @staticmethod
    def bouncer():
        basis = BouncerBasis(F=1.0)
        c = bouncer_coefficients(z0=25.0, width_b=math.sqrt(2.0))
        return basis, c

    def test_initial_observables(self, bouncer):
        basis, c = bouncer
        obs = observables(c, basis, [0.0])
        assert obs.mean_x[0] == pytest.approx(25.0, abs=0.02)
        assert obs.sd_x[0] == pytest.approx(1.0, abs=0.01)
        assert obs.mean_p[0] == pytest.approx(0.0, abs=1e-6)

    def test_norm_of_eigenfunctions(self, bouncer):
        basis, _ = bouncer
        n = np.arange(0, 30, 7)
        z = np.linspace(0.0, 60.0, 12001)
        u = basis.functions(n, z)
        norms = np.trapezoid(u**2, z, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-8

    def test_classical_turning_behavior(self, bouncer):
        basis, c = bouncer
        # over one classical period the packet comes back
        t_cl = 10.0
        obs = observables(c, basis, [0.0, t_cl])
        assert obs.mean_x[1] == pytest.approx(obs.mean_x[0], abs=0.15)


    def test_closed_forms_match_quadrature(self, bouncer):
        basis, c = bouncer
        n = c.indices
        x_quad, x2_quad, p_quad = _bouncer_quadrature(basis, n)
        for got, want, rel in (
            (basis.x_matrix(n), x_quad, 1e-10),
            (basis.x2_matrix(n), x2_quad, 1e-10),
            (basis.p_matrix(n), p_quad, 1e-8),
        ):
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= rel * scale

    def test_momentum_elements_against_mpmath(self, bouncer):
        # i m (E_n - E_m) <n|z|m> / hbar on mpmath's zeros, 30 digits
        mpmath = pytest.importorskip("mpmath")
        basis, _ = bouncer
        mpmath.mp.dps = 30
        u = basis.units
        rho = mpmath.cbrt(mpmath.mpf(u.hbar) ** 2 / (2 * mpmath.mpf(u.mass) * basis.F))
        for n, m in [(55, 54), (40, 43), (10, 59), (3, 0)]:
            yn, ym = (-mpmath.airyaizero(k + 1) for k in (n, m))
            z_nm = 2 * rho * (-1) ** (n - m + 1) / (yn - ym) ** 2
            want = complex(1j * u.mass * basis.F * rho * (yn - ym) * z_nm / u.hbar)
            got = basis.p_matrix(np.array([n, m]))[0, 1]
            assert abs(got - want) <= 1e-12 * abs(want), (n, m)

    def test_quadrature_table_follows_the_indices(self, bouncer):
        basis, c = bouncer
        n = c.indices
        basis.x_matrix(n[:5])
        basis.p_matrix(n[3:])
        for name in ("x_matrix", "x2_matrix", "p_matrix", "p2_matrix"):
            got = getattr(basis, name)(n)
            want = getattr(BouncerBasis(F=1.0), name)(n)
            assert np.array_equal(got, want), name


class TestFieldGrid:
    def test_axis_validation(self):
        with pytest.raises(DomainError):
            AxisSpec("x", 1.0, 0.0, 8)
        with pytest.raises(DomainError):
            AxisSpec("x", 0.0, 1.0, 1)

    def test_shape_validation(self):
        ax = AxisSpec("x", 0.0, 1.0, 4)
        with pytest.raises(DomainError):
            FieldGrid(ax, ax, np.zeros((4, 5)))

    def test_pgm_writer(self, tmp_path):
        ax1 = AxisSpec("x", 0.0, 1.0, 3)
        ax2 = AxisSpec("t", 0.0, 1.0, 2)
        grid = FieldGrid(ax1, ax2, np.array([[0.0, 1.0], [2.0, 3.0], [4.0, -1.0]]))
        path = tmp_path / "g.pgm"
        grid.to_pgm(path)
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n# max=4\n3 2\n65535\n")
        pixels = np.frombuffer(blob.split(b"65535\n", 1)[1], dtype=">u2").reshape(2, 3)
        assert pixels[0, 2] == 65535  # value 4.0 -> full scale
        assert pixels[1, 2] == 0      # negative clips to black

    def test_csv_writer(self, tmp_path):
        ax1 = AxisSpec("x", 0.0, 1.0, 2)
        ax2 = AxisSpec("y", 0.0, 1.0, 2)
        grid = FieldGrid(ax1, ax2, np.array([[1.0, 2.0], [3.0, 4.0]]))
        path = tmp_path / "g.csv"
        grid.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,value"
        assert lines[1].split(",")[2] == "1"


class TestEvolutionAgainstOracles:
    def test_box_mean_momentum_against_mpmath_phases(self):
        # The CLI's observables scenario (n0 400, dx0 0.05, 2000 steps to
        # t = 1). The oracle evolves the same coefficients with mpmath
        # phases 2 pi q_n t from the spectrum's own frequency polynomial.
        mpmath = pytest.importorskip("mpmath")
        packet = PacketParams1D(0.5, 400 * math.pi / L, 0.05 * math.sqrt(2.0))
        n_max = int(400 + 12 * L / (2.0 * math.pi * packet.dx0)) + 8
        c = infinite_well_coefficients(packet, L, n_max)
        t = np.linspace(0.0, 1.0, 2001)
        obs = observables(c, WELL, t)
        g = WELL.spectrum.frequency_polynomial()
        pm = WELL.p_matrix(c.indices)
        mpmath.mp.dps = 30
        for i in list(range(0, 2001, 47)) + [500, 1333, 2000]:
            tt = mpmath.mpf(float(t[i]))
            q = [sum(mpmath.mpf(gj) * int(k) ** j for j, gj in enumerate(g)) for k in c.indices]
            phases = np.array([complex(mpmath.expj(-2 * mpmath.pi * qk * tt)) for qk in q])
            a = c.coefficients * phases
            want = float(np.real(np.conj(a) @ pm @ a))
            assert abs(obs.mean_p[i] - want) <= 1e-9, (i, obs.mean_p[i], want)

    def test_bouncer_momentum_spread_from_full_p2_matrix(self):
        # <p^2> = 2m(<H> - F<z>) needs the off-diagonal z elements: a packet
        # released at rest with width b has dp(0) = hbar/(b sqrt 2) = 0.5,
        # and dz dp >= hbar/2 must hold at every time.
        width_b = math.sqrt(2.0)
        c = bouncer_coefficients(z0=20.0, width_b=width_b, n_max=60)
        n0 = int(c.indices[int(np.argmax(c.weights()))])
        t_rev = time_scales(Spectrum1D.bouncer_airy(), n0).t_revival
        obs = observables(c, BouncerBasis(), np.linspace(0.0, t_rev, 500))
        dp0 = 1.0 / (width_b * math.sqrt(2.0))
        assert obs.sd_p[0] == pytest.approx(dp0, rel=1e-6)
        assert np.all(obs.sd_x * obs.sd_p >= 0.5 - 1e-9)
