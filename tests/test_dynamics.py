"""Overlap series, closed forms, collapse estimates, and the overlap
lower bound."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from revival import dynamics
from revival.dynamics import (
    TimeSeries,
    accelerating_A,
    anticorrelation_infinite_well,
    autocorrelation,
    collapse_time,
    delta_h_from_coefficients,
    free_particle_A,
    incoherent_plateau,
    mandelstam_check,
    nauenberg_A,
    sho_A,
    uniform_grid,
)
from revival.errors import DomainError, TruncationError
from revival.packets import (
    PacketParams1D,
    gaussian_model_coefficients,
    infinite_well_coefficients,
)
from revival.spectra import Spectrum1D, eval_energy, time_scales

CASE_A = Spectrum1D.case_a()
MODEL_SET = gaussian_model_coefficients(400, 6, 1e-8)
WELL_PACKET = PacketParams1D(x0=2.0 / 3.0, p0=400 * math.pi, width_b=0.05 * math.sqrt(2.0))


class TestAutocorrelation:
    def test_value_at_zero(self):
        ser = autocorrelation(MODEL_SET, CASE_A, [0.0])
        assert ser.values[0] == pytest.approx(1.0 - MODEL_SET.norm_deficit, abs=1e-14)

    def test_exact_revival(self):
        ser = autocorrelation(MODEL_SET, CASE_A, [1600.0])
        assert abs(ser.values[0]) == pytest.approx(1.0 - MODEL_SET.norm_deficit, abs=1e-10)

    def test_third_revival_window_peak(self):
        trev = 1600.0
        tcl = 2.0
        grid = uniform_grid(trev / 3 + tcl, tcl, 120, t_lo=trev / 3 - tcl)
        peak = np.max(autocorrelation(MODEL_SET, CASE_A, grid).abs2())
        assert peak == pytest.approx(1.0 / 3.0, abs=0.02)

    def test_periodicity_to_1e10(self):
        # dyadic offsets so t + T_rev carries no sum rounding of its own
        tt = np.array([13.375, 401.125, 777.25, 1122.0625])
        a1 = autocorrelation(MODEL_SET, CASE_A, tt).values
        a2 = autocorrelation(MODEL_SET, CASE_A, tt + 1600.0).values
        assert np.max(np.abs(a1 - a2)) < 1e-11

    @pytest.mark.parametrize("t", [13.375, 401.125, 1122.0625, 1600.0, 123456.789, 1e6 + 0.3])
    def test_mpmath_oracle(self, t):
        # the same float weights and model coefficients, phases at 40 digits
        g = CASE_A.frequency_polynomial()
        n = MODEL_SET.indices.astype(float)
        with mpmath.workdps(40):
            tt = mpmath.mpf(t)
            want = complex(mpmath.fsum(
                mpmath.mpf(float(w)) * mpmath.expj(2 * mpmath.pi * tt * mpmath.fsum(
                    mpmath.mpf(gj) * mpmath.mpf(k) ** j for j, gj in enumerate(g)))
                for w, k in zip(MODEL_SET.weights(), n)))
        got = autocorrelation(MODEL_SET, CASE_A, [t]).values[0]
        assert abs(got - want) < 1e-14

    def test_modulus_bounded(self):
        rng = np.random.default_rng(7)
        grid = np.sort(rng.uniform(0, 5000.0, 400))
        for s in (CASE_A, Spectrum1D.case_b(), Spectrum1D.bouncer_wkb()):
            vals = autocorrelation(MODEL_SET, s, grid).values
            assert np.max(np.abs(vals)) <= 1.0 + 1e-12

    def test_collapsed_window_mean(self):
        grid = uniform_grid(0.40 * 1600, 2.0, 40, t_lo=0.35 * 1600)
        mean = float(np.mean(autocorrelation(MODEL_SET, CASE_A, grid).abs2()))
        assert mean == pytest.approx(incoherent_plateau(MODEL_SET), rel=0.10)

    def test_symmetry_about_half_revival(self):
        grid = np.linspace(0.0, 1600.0, 3201)
        vals = np.abs(autocorrelation(MODEL_SET, CASE_A, grid).values)
        assert np.max(np.abs(vals - vals[::-1])) < 1e-10

    def test_index_below_ground_raises(self):
        from revival.packets import CoefficientSet

        c = CoefficientSet(0, np.array([0.6, 0.8], dtype=complex), 0.0)
        with pytest.raises(DomainError):
            autocorrelation(c, Spectrum1D.rydberg(), [0.0, 1.0])


class TestAnticorrelation:
    WELL = Spectrum1D.infinite_well()

    def test_half_revival_unity(self):
        c = infinite_well_coefficients(WELL_PACKET, 1.0, 600)
        trev = time_scales(self.WELL, 400).t_revival
        ser = anticorrelation_infinite_well(c, self.WELL, [trev / 2])
        assert abs(ser.values[0]) == pytest.approx(1.0 - c.norm_deficit, abs=1e-10)

    def test_initial_value_suppressed_off_center(self):
        c = infinite_well_coefficients(WELL_PACKET, 1.0, 600)
        ser = anticorrelation_infinite_well(c, self.WELL, [0.0])
        assert abs(ser.values[0]) <= 1e-6

    def test_equals_autocorrelation_for_odd_only_set(self):
        p = PacketParams1D(x0=0.5, p0=0.0, width_b=0.05 * math.sqrt(2.0))
        c = infinite_well_coefficients(p, 1.0, 120)
        grid = np.linspace(0.0, 0.3, 50)
        a = autocorrelation(c, self.WELL, grid).values
        abar = anticorrelation_infinite_well(c, self.WELL, grid).values
        assert np.max(np.abs(a - abar)) < 1e-12


class TestIncoherentPlateau:
    def test_model_delta_n_six(self):
        assert incoherent_plateau(MODEL_SET) == pytest.approx(0.047, abs=1e-3)

    def test_well_packet(self):
        c = infinite_well_coefficients(WELL_PACKET, 1.0, 600)
        assert incoherent_plateau(c) == pytest.approx(0.089, abs=2e-3)

    def test_single_eigenstate(self):
        from revival.packets import CoefficientSet

        c = CoefficientSet(7, np.array([1.0 + 0j]), 0.0)
        assert incoherent_plateau(c) == 1.0


class TestFreeParticle:
    P = PacketParams1D(x0=0.0, p0=0.0, width_b=0.2)

    def test_t_zero(self):
        assert free_particle_A(0.0, self.P) == pytest.approx(1.0, abs=1e-15)

    def test_two_spreading_times(self):
        t0 = self.P.units.mass * self.P.units.hbar * (self.P.width_b / self.P.units.hbar) ** 2
        val = abs(free_particle_A(2.0 * t0, self.P)) ** 2
        assert val == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)

    def test_saturation(self):
        p = PacketParams1D(x0=0.0, p0=3.0, width_b=0.5)
        alpha = p.width_b / p.units.hbar
        t0 = p.units.mass * p.units.hbar * alpha**2
        t = 5000.0 * t0
        target = (2 * t0 / t) * math.exp(-(p.p0 / p.dp0) ** 2)
        assert abs(free_particle_A(t, p)) ** 2 == pytest.approx(target, rel=1e-3)


class TestAccelerating:
    def test_reduces_to_free(self):
        p = PacketParams1D(x0=0.4, p0=7.0, width_b=0.3)
        ts = np.linspace(0.0, 30.0, 77)
        assert np.max(np.abs(accelerating_A(ts, p, 0.0) - free_particle_A(ts, p))) < 1e-14

    def test_t_zero(self):
        p = PacketParams1D(x0=0.4, p0=7.0, width_b=0.3)
        assert accelerating_A(0.0, p, 2.0) == pytest.approx(1.0, abs=1e-15)

    def test_momentum_shift_rule(self):
        # |A|^2 with force equals the free form with p0^2 -> p0^2 + (F t0)^2 (1 + (t/2t0)^2)
        p = PacketParams1D(x0=0.0, p0=0.0, width_b=0.3)
        alpha = p.width_b / p.units.hbar
        t0 = p.units.mass * p.units.hbar * alpha**2
        force = 1.0
        t = 2.0 * t0
        tau = t / (2 * t0)
        shifted = (force * t0) ** 2 * (1 + tau**2)
        target = (1 / math.sqrt(1 + tau**2)) * math.exp(
            -2 * alpha**2 * shifted * tau**2 / (1 + tau**2)
        )
        assert abs(accelerating_A(t, p, force)) ** 2 == pytest.approx(target, rel=1e-12)


class TestOscillator:
    def test_pulsating_ground_state(self):
        ts = np.linspace(0.0, 3.0, 31)
        vals = sho_A(ts, "pulsating", {"r": 1.0, "omega": 1.0})
        assert np.max(np.abs(vals - np.exp(0.5j * ts))) < 1e-14

    def test_pulsating_half_period_unity(self):
        for r in (0.3, 1.0, 4.0):
            val = sho_A(math.pi, "pulsating", {"r": r, "omega": 1.0})
            assert abs(val) == pytest.approx(1.0, abs=1e-14)

    def test_pulsating_width_inversion_invariance(self):
        ts = np.linspace(0.0, 6.0, 64)
        a = sho_A(ts, "pulsating", {"r": 0.25, "omega": 1.3})
        b = sho_A(ts, "pulsating", {"r": 4.0, "omega": 1.3})
        assert np.max(np.abs(a - b)) < 1e-14

    def test_pulsating_bad_r(self):
        with pytest.raises(DomainError):
            sho_A(0.1, "pulsating", {"r": -1.0, "omega": 1.0})

    def test_min_uncertainty_periodicity(self):
        params = {"omega": 2.0, "x0": 0.7, "p0": 3.0}
        ts = np.linspace(0.0, 2 * math.pi, 40)
        a = np.abs(sho_A(ts, "min_uncertainty", params))
        b = np.abs(sho_A(ts + math.pi, "min_uncertainty", params))
        assert np.max(np.abs(a - b)) < 1e-12

    def test_inverted_t_zero_and_saturation(self):
        params = {"omega": 1.0, "p0": 1.0}
        assert sho_A(0.0, "inverted", params) == pytest.approx(1.0, abs=1e-14)
        # long-time modulus ~ 2 e^{-wt} exp(-p0^2 / (m w hbar))
        units = Spectrum1D.harmonic(1.0).units
        t = 20.0
        target = 2 * math.exp(-t) * math.exp(-params["p0"] ** 2 / (units.mass * 1.0 * units.hbar))
        assert abs(sho_A(t, "inverted", params)) ** 2 == pytest.approx(target, rel=1e-6)


class TestNauenberg:
    def test_matches_exact_well_series(self):
        c = infinite_well_coefficients(WELL_PACKET, 1.0, 600)
        well = Spectrum1D.infinite_well()
        ts = time_scales(well, 400)
        grid = np.linspace(0.0, ts.t_classical, 101)
        exact = autocorrelation(c, well, grid).abs2()
        approx = np.abs(nauenberg_A(grid, 400, 10 / math.pi, ts.t_classical, ts.t_revival, 8)) ** 2
        assert np.max(np.abs(exact - approx)) < 0.02

    def test_periodic_peaks_without_dispersion(self):
        t_cl = 1.0
        for k in (0, 1, 3):
            val = nauenberg_A(k * t_cl, 400, 5.0, t_cl, math.inf, 10)
            assert abs(val) == pytest.approx(1.0, abs=1e-12)

    def test_short_time_gaussian_limit(self):
        t_cl, dn = 1.0, 5.0
        ts = np.linspace(0.0, 0.05, 21)
        vals = np.abs(nauenberg_A(ts, 400, dn, t_cl, math.inf, 6))
        target = np.exp(-(dn**2) * (2 * math.pi / t_cl) ** 2 * ts**2 / 2)
        assert np.max(np.abs(vals - target)) < 1e-9

    def test_window_too_small(self):
        with pytest.raises(TruncationError):
            nauenberg_A(10.0, 400, 5.0, 1.0, 100.0, 5)


class TestCollapseTime:
    def test_box_normalization(self):
        assert collapse_time(1.0, 4 * math.sqrt(12.0), "infinite_well") == pytest.approx(1.0, rel=1e-14)

    def test_identity_with_spreading_time_form(self):
        dn, t_rev = 3.7, 900.0
        t0 = t_rev / (8 * math.pi * dn**2)
        assert collapse_time(dn, t_rev, "infinite_well") == pytest.approx(
            math.sqrt(math.pi * t_rev * t0 / 24.0), rel=1e-12
        )

    def test_bouncer_normalization(self):
        assert collapse_time(math.pi / 8.0, 1.0, "bouncer") == pytest.approx(1.0, rel=1e-14)

    def test_envelope_flavor(self):
        assert collapse_time(6.0, 1600.0, "envelope") == pytest.approx(
            1600.0 / (2 * math.sqrt(math.pi) * 6.0), rel=1e-14
        )

    def test_unknown_flavor(self):
        with pytest.raises(DomainError):
            collapse_time(1.0, 1.0, "nope")


class TestMandelstam:
    def test_free_particle_satisfies_bound(self):
        p = PacketParams1D(x0=0.0, p0=2.0, width_b=0.5)
        alpha = p.width_b / p.units.hbar
        m = p.units.mass
        dh = math.sqrt((1 / (2 * m)) ** 2 * (2 / alpha**2) * (p.p0**2 + 1 / (4 * alpha**2)))
        t_max = math.pi * p.units.hbar / (2 * dh)
        grid = np.linspace(0.0, t_max, 400)
        series = TimeSeries(grid, free_particle_A(grid, p))
        ok, first = mandelstam_check(series, dh, p.units.hbar)
        assert ok and first is None

    def test_single_eigenstate_trivial(self):
        grid = np.linspace(0.0, 10.0, 200)
        series = TimeSeries(grid, np.exp(1j * 3.0 * grid))
        ok, _ = mandelstam_check(series, 0.0)
        assert ok

    def test_model_packet_first_order_spread(self):
        # |E'(n0)| delta_n underestimates the true energy spread by
        # ~6e-5 relative, which shows up as an O(1e-8) dip below the
        # bound; the check only holds strictly for the exact spread
        # (previous test), so allow that estimation error here.
        dh = abs(2 * math.pi * 0.5) * 6.0
        grid = np.linspace(0.0, math.pi / (2 * dh), 300)
        a2 = autocorrelation(MODEL_SET, CASE_A, grid).abs2()
        assert np.all(a2 >= np.cos(dh * grid) ** 2 - 1e-7)

    def test_exact_spread_from_coefficients(self):
        dh = delta_h_from_coefficients(MODEL_SET, CASE_A)
        assert dh == pytest.approx(2 * math.pi * 0.5 * 6.0, rel=0.01)
        t_max = math.pi / (2 * dh)
        grid = np.linspace(0.0, t_max, 250)
        ok, _ = mandelstam_check(autocorrelation(MODEL_SET, CASE_A, grid), dh)
        assert ok

    def test_sparse_coverage_rejected(self):
        grid = np.linspace(0.0, 0.001, 150)
        series = autocorrelation(MODEL_SET, CASE_A, grid)
        with pytest.raises(TruncationError):
            mandelstam_check(series, 1.0)


class TestTimeSeries:
    def test_monotonic_required(self):
        with pytest.raises(DomainError):
            TimeSeries([0.0, 0.0, 1.0], [1, 1, 1])

    def test_csv_format(self, tmp_path):
        ser = TimeSeries([0.0, 0.5], [1 + 0j, 0.5 - 0.25j])
        path = tmp_path / "s.csv"
        ser.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,re,im,abs2"
        row = lines[2].split(",")
        assert float(row[1]) == 0.5
        assert float(row[2]) == -0.25
        assert float(row[3]) == pytest.approx(0.3125, rel=1e-15)


# the module's 2200-bit 2 pi as a rational, for the reference reductions
TWO_PI_2200 = Fraction(dynamics._TWO_PI_SCALED, 1 << 2200)


def _fraction_phase(omega: float, t: float) -> float:
    """The reference reduction: exact rational omega * t mod 2 pi, rounded once."""
    return float((Fraction(omega) * Fraction(t)) % TWO_PI_2200)


def _mp_phase(omega: float, t: float) -> mpmath.mpf:
    """omega * t mod 2 pi with mpmath's own pi, at enough digits for |omega t| <= 1e310."""
    with mpmath.workdps(360):
        return mpmath.fmod(mpmath.mpf(omega) * mpmath.mpf(t), 2 * mpmath.pi) % (2 * mpmath.pi)


def _two_pi_convergents(lo: float, hi: float) -> list[int]:
    """Numerators p of the continued-fraction convergents p/q of 2 pi with
    lo < p < hi: integers that lie unusually close to multiples of 2 pi."""
    out = []
    with mpmath.workdps(80):
        x = 2 * mpmath.pi
        p0, p1 = 1, int(mpmath.floor(x))
        y = 1 / (x - p1)
        while p1 < hi:
            a = int(mpmath.floor(y))
            y = 1 / (y - a)
            p0, p1 = p1, a * p1 + p0
            if p1 > lo:
                out.append(p1)
    return out


@pytest.fixture
def no_fraction(monkeypatch):
    def refuse(*args):
        raise AssertionError("Fraction constructed on the vectorised path")

    monkeypatch.setattr(dynamics, "Fraction", refuse, raising=False)


class TestExactArithmetic:
    def test_two_sum_is_error_free(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal(20000) * 10.0 ** rng.integers(-20, 20, 20000)
        b = rng.standard_normal(20000) * 10.0 ** rng.integers(-20, 20, 20000)
        s, e = dynamics._two_sum(a, b)
        assert all(Fraction(x) + Fraction(y) == Fraction(p) + Fraction(q)
                   for x, y, p, q in zip(a, b, s, e))

    @pytest.mark.parametrize("g", [
        Spectrum1D.case_a().frequency_polynomial(),
        Spectrum1D.case_b().frequency_polynomial(),
        [0.5216456408716835, -0.010873346050071174, -5.225271947579381e-06, -6.966470921883104e-10],
    ], ids=["caseA", "caseB", "cubic"])
    def test_dd_cycles_is_double_double(self, g):
        n = np.arange(0, 3000, dtype=float)
        hi, lo = dynamics._dd_cycles(g, n)
        for k, h, l in zip(n, hi, lo):
            exact = sum(Fraction(gj) * Fraction(k) ** j for j, gj in enumerate(g))
            assert abs(Fraction(h) + Fraction(l) - exact) <= 1e-30 * abs(exact)


class TestReducedPhase:
    CAP = 2.0**52 * dynamics.TWO_PI  # 2.8e16, where a second exact path once took over

    def test_random_products_match_fraction_bitwise(self, no_fraction):
        rng = np.random.default_rng(20)
        omega = 10.0 ** rng.uniform(-3, 3, 12000) * rng.choice([-1.0, 1.0], 12000)
        t = 10.0 ** rng.uniform(8, 16.4, 12000) / np.abs(omega) * rng.choice([-1.0, 1.0], 12000)
        got = dynamics.reduced_phase(omega, t)
        assert np.count_nonzero((np.abs(omega * t) > 1e8) & (np.abs(omega * t) < self.CAP)) > 10000
        want = np.array([_fraction_phase(o, tt) for o, tt in zip(omega, t)])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("scale", [1.0, 0.5, 3.0, 1.0 / 3.0, 7.0, 1e-3, 123.456])
    def test_convergents_of_two_pi(self, scale, no_fraction):
        # products within ~1e-15 of a multiple of 2 pi, either sign
        for p in _two_pi_convergents(1e8, self.CAP):
            for sign in (1.0, -1.0):
                omega, t = scale, sign * float(p) / scale
                got = float(dynamics.reduced_phase(omega, t))
                assert abs(got - _fraction_phase(omega, t)) <= 1e-20
                assert abs(got - float(_mp_phase(omega, t))) <= 1e-20

    def test_convergent_results_are_tiny(self, no_fraction):
        # the oracle comparison above is only adversarial if some products
        # sit much closer to a multiple of 2 pi than one ulp of it
        r = dynamics.reduced_phase(1.0, np.array(_two_pi_convergents(1e8, self.CAP), dtype=float))
        assert np.count_nonzero(np.minimum(r, dynamics.TWO_PI - r) < 1e-10) >= 8

    def test_negative_products_match_fraction(self, no_fraction):
        rng = np.random.default_rng(22)
        omega = rng.uniform(0.5, 50.0, 1000)
        t = -(10.0 ** rng.uniform(8, 16, 1000)) / omega
        want = [_fraction_phase(o, tt) for o, tt in zip(omega, t)]
        assert np.array_equal(dynamics.reduced_phase(omega, t), want)

    def test_both_sides_of_the_fast_path_switch(self, no_fraction):
        omega = np.array([1.0, 3.0, -7.0, 0.1])
        below = np.nextafter(1e8, 0.0) / omega
        above = np.nextafter(1e8, 2e8) / omega
        want_below = [_fraction_phase(o, tt) for o, tt in zip(omega, below)]
        want_above = [_fraction_phase(o, tt) for o, tt in zip(omega, above)]
        # Cody-Waite below 1e8 is within a few ulps of 2 pi; exact above
        assert np.max(np.abs(dynamics.reduced_phase(omega, below) - want_below)) <= 4e-15
        assert np.array_equal(dynamics.reduced_phase(omega, above), want_above)

    def test_both_sides_of_the_exact_cap(self, monkeypatch):
        omega = np.array([1.0, -1.0, 1.0, -1.0])
        t = np.array([np.nextafter(self.CAP, 0.0), np.nextafter(self.CAP, 0.0),
                      np.nextafter(self.CAP, 1e17), 2.0 * self.CAP])
        want = np.array([_fraction_phase(o, tt) for o, tt in zip(omega, t)])
        built = []
        monkeypatch.setattr(dynamics, "Fraction", lambda x: built.append(x) or Fraction(x), raising=False)
        assert np.array_equal(dynamics.reduced_phase(omega, t), want)
        assert built == []  # one exact path on both sides: no Fraction at run time

    def test_broadcast_grid_below_the_cap(self, no_fraction):
        omega = np.array([[1.0], [2.5], [-40.0]])
        t = np.linspace(1e8, 1e14, 500)[None, :]
        got = dynamics.reduced_phase(omega, t)
        want = [[_fraction_phase(o, tt) for tt in t[0]] for o in omega[:, 0]]
        assert got.shape == (3, 500) and np.array_equal(got, want)

    def test_tail_product_at_1e300(self, no_fraction):
        omega, t = 3.0, 1e300 / 3.0
        got = float(dynamics.reduced_phase(omega, t))
        assert got == _fraction_phase(omega, t)
        assert abs(got - float(_mp_phase(omega, t))) <= 1e-15

    def test_overflowing_products_take_the_tail(self, no_fraction):
        omega = np.array([1e10, 1e-300, 2.0])
        t = np.array([1.7e308, 1.7e308, 1e16])
        with np.errstate(all="raise"):
            got = dynamics.reduced_phase(omega, t)
        want = [_fraction_phase(o, tt) for o, tt in zip(omega, t)]
        assert np.array_equal(got, want)

    def test_fold_just_below_multiples_of_two_pi(self, no_fraction):
        # hi sits just below K * 2 pi, so floor(hi / 2 pi) = K - 1, and lo
        # lifts hi + lo to within 1e-21 of K * 2 pi on either side: the fold
        # must still land in [0, 2 pi) where Fraction.__mod__ puts it
        his, los = [], []
        for k in range(2**25, 2**25 + 400):
            x = k * TWO_PI_2200
            h = float(x)
            while math.floor(h / dynamics.TWO_PI) >= k:
                h = math.nextafter(h, 0.0)
            for d in (1e-21, -1e-21):
                his.append(h)
                los.append(float(x - Fraction(h)) + d)
        for sign in (1.0, -1.0):
            hi, lo = sign * np.array(his), sign * np.array(los)
            want = [float((Fraction(h) + Fraction(l)) % TWO_PI_2200)
                    for h, l in zip(hi, lo)]
            assert np.array_equal(dynamics._payne_hanek(hi, lo, np.zeros(len(hi), np.int32)), want)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_every_operand_exponent_matches_fraction_bitwise(self, seed, no_fraction):
        # operands of either sign up to 1.7e308, products from just above
        # 1e8 to past 2^1024 (1e10 x 1.7e308 overflows fl(omega * t) to inf)
        rng = np.random.default_rng(seed)
        count = 6000
        log_omega = rng.uniform(-300.0, 308.2, count)
        log_t = np.clip(rng.uniform(8.0, 616.5, count) - log_omega, -300.0, 308.2)
        omega = 10.0**log_omega * rng.choice([-1.0, 1.0], count)
        t = 10.0**log_t * rng.choice([-1.0, 1.0], count)
        omega = np.append(omega, [1e10, -1e10, 1.7e308, -1.7e308, 3.0])
        t = np.append(t, [1.7e308, 1.7e308, -1.7e308, -1.7e308, 1.7e308])
        with np.errstate(all="raise"):
            got = dynamics.reduced_phase(omega, t)
        bits = np.log2(np.abs(omega)) + np.log2(np.abs(t))  # log2 |omega t|
        assert np.count_nonzero(bits > 1024) > 1000 and np.count_nonzero(bits < math.log2(self.CAP)) > 100
        want = np.array([_fraction_phase(o, tt) for o, tt in zip(omega, t)])
        assert np.array_equal(got, want)

    def test_the_old_cap_on_a_grid_matches_fraction_bitwise(self, no_fraction):
        # omega t within a few thousand ulps of 2^52 * 2 pi on either side
        omega = np.array([[1.0], [-3.0], [0.5]])
        t = np.array([np.nextafter(self.CAP, 0.0), self.CAP, np.nextafter(self.CAP, 1e17)]
                     + list(self.CAP + np.arange(-2000, 2000, 97) * 4.0))[None, :] / omega
        got = dynamics.reduced_phase(omega, t)
        want = [[_fraction_phase(o, tt) for tt in row] for o, row in zip(omega[:, 0], t)]
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("omega, t", [(np.inf, 1.0), (1.0, -np.inf), (np.nan, 2e8),
                                          (np.array([1.0, np.inf]), 0.0), (2.0, np.array([[1e9], [np.nan]]))])
    def test_non_finite_operands_are_domain_errors(self, omega, t):
        with pytest.raises(DomainError, match="finite"):
            dynamics.reduced_phase(omega, t)

    def test_large_operands_of_a_small_product_match_cody_waite(self, no_fraction):
        # |omega| past 2^997 overflows a direct Dekker split of omega; the
        # mantissa product does not, so these stay on the Cody-Waite path
        omega = np.array([1e300, 1.7e308, -1e305, 3e300])
        t = np.array([1e-295, 1e-301, 3e-298, -1e-300])
        with np.errstate(all="raise"):
            got = dynamics.reduced_phase(omega, t)
        want = np.array([_fraction_phase(o, tt) for o, tt in zip(omega, t)])
        assert np.all(np.abs(got - want + np.where(got < 0, 2 * np.pi, 0.0)) <= 4e-15)


class TestPhaseChunks:
    """Every phase sum and evolution gives the same bits whatever the
    element budget of a phase block: one time per chunk, ragged chunks,
    or the whole grid in one block."""

    BUDGETS = (1, 12345)

    @staticmethod
    def _under(monkeypatch, budget, compute):
        monkeypatch.setattr(dynamics, "_PHASE_ELEMENTS", budget)
        return compute()

    def _check(self, monkeypatch, compute):
        whole = self._under(monkeypatch, 1 << 62, compute)
        for budget in self.BUDGETS:
            got = self._under(monkeypatch, budget, compute)
            assert all(np.array_equal(g, w) for g, w in zip(got, whole)), budget

    def test_chunks_cover_the_grid(self):
        for times, rows, align in ((1, 5, 1), (1000, 7, 1), (1000, 1 << 20, 1), (1000, 300, 32)):
            chunks = list(dynamics._phase_chunks(times, rows, align))
            assert np.array_equal(np.concatenate([np.arange(times)[c] for c in chunks]),
                                  np.arange(times))
            assert all((c.stop - c.start) % align == 0 for c in chunks)
            assert all((c.stop - c.start) * rows <= max(dynamics._PHASE_ELEMENTS, rows * align)
                       for c in chunks)

    def test_autocorrelation_polynomial_path(self, monkeypatch):
        grid = np.linspace(0.0, 1600.0, 1001)
        self._check(monkeypatch, lambda: [autocorrelation(MODEL_SET, CASE_A, grid).values])

    def test_autocorrelation_exact_reduction_path(self, monkeypatch):
        # |omega t| up to ~1e9: most products take _payne_hanek
        s = Spectrum1D.bouncer_airy()
        c = gaussian_model_coefficients(20, 2, 1e-8, 1)
        grid = np.linspace(0.0, 1e8, 501)
        self._check(monkeypatch, lambda: [autocorrelation(c, s, grid).values])

    def test_autocorrelation_2d(self, monkeypatch):
        from revival.billiards import autocorrelation_2d, circular_spectrum
        from revival.packets import circular_coefficients

        c = circular_coefficients(0.3, 0.0, 0.0, 20.0, 0.05 * math.sqrt(2), 1.0, 4, 6)
        s = circular_spectrum(1.0, 4, 6)
        grid = np.linspace(0.0, 1.0, 401)
        self._check(monkeypatch, lambda: [autocorrelation_2d(c, s, grid).values])

    def test_observables(self, monkeypatch):
        from revival.wavefields import InfiniteWellBasis, observables

        c = infinite_well_coefficients(WELL_PACKET, 1.0, 460)
        grid = np.linspace(0.0, 0.01, 301)

        def compute():
            obs = observables(c, InfiniteWellBasis(1.0), grid)
            return [obs.mean_x, obs.sd_x, obs.mean_p, obs.sd_p]

        self._check(monkeypatch, compute)

    def test_carpet(self, monkeypatch):
        from revival.wavefields import carpet

        c = infinite_well_coefficients(WELL_PACKET, 1.0, 460)
        self._check(monkeypatch, lambda: [g.values for g in carpet(c, 1.0, 64, 200, 0.01)])


def _exp_block(ts, n, s=None):
    """The complex-exponential kernel that the cos/sin step replaced: the
    same angles, then np.exp of a complex block."""
    ts = np.asarray(ts, dtype=float)[None, :]
    g = None if s is None else s.frequency_polynomial()
    if g is None:
        omegas = n if s is None else eval_energy(s, n.astype(float)) / s.units.hbar
        return np.exp(1j * dynamics.reduced_phase(omegas[:, None], ts))
    q_hi, q_lo = dynamics._dd_cycles(g, n.astype(float))
    hi, lo = dynamics._two_product(q_hi[:, None], ts)
    lo = lo + q_lo[:, None] * ts
    return np.exp((2j * math.pi) * ((hi - np.rint(hi)) + lo))


class TestPhaseKernel:
    """The angle function and the cos/sin step give the bits of the
    complex-exponential kernel, and reused buffers carry nothing from one
    block to the next."""

    BOUNCER = Spectrum1D.bouncer_airy()
    CASES = {
        "caseA": (MODEL_SET.indices, CASE_A, np.linspace(0.0, 1600.0, 3001)),
        "well": (np.arange(1, 120), Spectrum1D.infinite_well(1.0), np.linspace(0.0, 0.3, 2001)),
        # ~95 % of the products take the exact far-phase reduction
        "bouncer": (gaussian_model_coefficients(20, 2, 1e-8, 1).indices, BOUNCER, np.linspace(0.0, 1e8, 2001)),
        # angular frequencies, as jc and the billiards pass them
        "frequencies": (2.0 * np.sqrt(np.arange(0.0, 136.0)), None, np.linspace(0.0, 30 * math.pi, 2001)),
    }

    def test_unit_phases_are_the_bits_of_exp(self):
        rng = np.random.default_rng(5)
        # no angle is -0.0 (a sum that cancels rounds to +0.0), the one
        # input where sin keeps a sign that np.exp(1j * theta) drops
        theta = np.concatenate([rng.uniform(0.0, dynamics.TWO_PI, 20000), rng.uniform(-1e4, 1e4, 20000),
                                [0.0, 5e-324, math.pi, dynamics.TWO_PI, 1e-300]]).reshape(5, -1)
        got = dynamics._unit_phases(theta, dynamics._Buffers())
        assert np.array_equal(got.view(np.int64), np.exp(1j * theta).view(np.int64))

    @pytest.mark.parametrize("case", list(CASES))
    def test_block_matches_the_exp_kernel(self, case):
        n, s, ts = self.CASES[case]
        got = dynamics._phase_block(ts, n, s)
        assert np.array_equal(got.view(np.int64), _exp_block(ts, n, s).view(np.int64))

    @pytest.mark.parametrize("case", list(CASES))
    def test_shared_buffers_match_fresh_ones(self, case):
        # a large block, then smaller ones: each must be wholly rewritten
        n, s, ts = self.CASES[case]
        buf = dynamics._Buffers()
        for cols in (slice(0, 1700), slice(1700, 1900), slice(1900, 1901), slice(1901, 2001)):
            got = dynamics._phase_block(ts[cols], n, s, buf)
            assert np.array_equal(got, dynamics._phase_block(ts[cols], n, s)), cols


class TestLinspaceRows:
    @pytest.mark.parametrize("stop, num", [
        (1600.0, 64001), (1e8, 2001), (1.0, 2), (3.0, 4097), (30 * math.pi, 6001), (0.3, 637),
        (1e-320, 11), (5e-324, 3), (0.0, 11), (-0.0, 5), (-0.5, 301), (1.7e308, 11), (7.25e-5, 9999),
        (1.7976931348623157e308, 8)])
    def test_blocks_are_np_linspace_bit_for_bit(self, stop, num):
        # at the largest stop np.linspace's last row overflows before it is set to stop;
        # linspace_rows must give those bits without the warning
        with np.errstate(over="ignore"):
            want = np.linspace(0.0, stop, num).view(np.int64)  # -0.0 and 0.0 differ here
        for block in (1, 7, 4096, num):
            got = np.concatenate([dynamics.linspace_rows(stop, num, slice(lo, min(lo + block, num)))
                                  for lo in range(0, num, block)])
            assert np.array_equal(got.view(np.int64), want), block


def _direct_phase_sum(w, n, t, s=None):
    """The phase sum without the base x offset factoring: one phase per
    (level, time), summed over levels by the same einsum."""
    vals = np.empty(len(t), dtype=complex)
    buf = dynamics._Buffers()
    for cols in dynamics._phase_chunks(len(t), len(n)):
        vals[cols] = np.einsum("n,nt->t", w, dynamics._phase_block(t[cols], n, s, buf).view(float)).view(complex)
    return vals


def _mp_sum(w, omegas, t, cycles=None):
    """sum_n w_n e^{i omega_n t} at 40 digits; `cycles` gives the phase as
    2 pi q_n t with q_n the model's cycle polynomial at n instead."""
    with mpmath.workdps(40):
        tt = mpmath.mpf(float(t))
        if cycles is None:
            phases = [mpmath.mpf(float(o)) * tt for o in omegas]
        else:
            phases = [2 * mpmath.pi * tt * mpmath.fsum(mpmath.mpf(g) * mpmath.mpf(float(k)) ** j
                                                       for j, g in enumerate(cycles)) for k in omegas]
        return complex(mpmath.fsum(mpmath.mpf(float(x)) * mpmath.expj(p) for x, p in zip(w, phases)))


class TestFactoredPhaseSum:
    """_phase_sum's base x offset factoring: 40-digit mpmath on the factored
    path, one 1024-level block and two, the bits of the direct sum wherever
    a run falls back, and a tracemalloc bound."""

    @staticmethod
    def _runs(monkeypatch):
        taken = []
        real = dynamics._factored_run

        def recording(*args):
            taken.append(real(*args))
            return taken[-1]

        monkeypatch.setattr(dynamics, "_factored_run", recording)
        return taken

    @staticmethod
    def _sampled(count, size):
        return np.sort(np.random.default_rng(11).choice(size, count, replace=False))

    def test_case_a_matches_mpmath(self, monkeypatch):
        taken = self._runs(monkeypatch)
        t = np.linspace(0.0, 1600.0, 64001)
        got = autocorrelation(MODEL_SET, CASE_A, t).values
        assert taken == [True] * 16
        w, g = MODEL_SET.weights(), CASE_A.frequency_polynomial()
        for k in self._sampled(160, len(t)):
            assert abs(got[k] - _mp_sum(w, MODEL_SET.indices, t[k], g)) <= 1e-15 * w.sum(), k

    def test_general_path_matches_mpmath(self, monkeypatch):
        # the jc frequencies 2 sqrt(n) at nbar 50 and its bench grid
        from revival.packets import log_poisson

        taken = self._runs(monkeypatch)
        w, omegas = np.exp(log_poisson(50.0, 135)), 2.0 * np.sqrt(np.arange(136.0))
        t = np.linspace(0.0, 60 * math.pi, 6001)
        got = dynamics._phase_sum(w, omegas, t)
        assert taken == [True, True]
        for k in self._sampled(150, len(t)):
            assert abs(got[k] - _mp_sum(w, omegas, t[k])) <= 1e-15 * w.sum(), k

    def test_bouncer_exact_step_matches_mpmath(self, monkeypatch):
        # the step 50,000 is exact, so every residual r is 0; ~95 % of the
        # base and offset phases take the exact far-phase reduction
        taken = self._runs(monkeypatch)
        s, c = Spectrum1D.bouncer_airy(), gaussian_model_coefficients(20, 2, 1e-8, 1)
        t = np.linspace(0.0, 1e8, 2001)
        assert np.array_equal(t, 50000.0 * np.arange(2001))
        got = autocorrelation(c, s, t).values
        assert taken == [True]
        w, omegas = c.weights(), eval_energy(s, c.indices.astype(float)) / s.units.hbar
        for k in self._sampled(150, len(t)):
            assert abs(got[k] - _mp_sum(w, omegas, t[k])) <= 1e-15 * w.sum(), k

    def _falls_back(self, monkeypatch, w, n, t, s, runs):
        taken = self._runs(monkeypatch)
        got = dynamics._phase_sum(w, n, t, s)
        assert taken == [False] * runs
        assert np.array_equal(got.view(np.int64), _direct_phase_sum(w, n, t, s).view(np.int64))

    def test_nonuniform_grid_falls_back(self, monkeypatch):
        t = np.sort(np.random.default_rng(2).uniform(0.0, 1600.0, 5000))
        self._falls_back(monkeypatch, MODEL_SET.weights(), MODEL_SET.indices, t, CASE_A, runs=2)

    def test_large_residual_phase_falls_back(self, monkeypatch):
        # a uniform grid up to ~1e8 whose step is not exact: r ~ 1e-8 and
        # omega ~ 10, past the 2^-27 guard
        s, c = Spectrum1D.bouncer_airy(), gaussian_model_coefficients(20, 2, 1e-8, 1)
        t = np.linspace(0.0, 1e8 + 0.3, 2001)
        self._falls_back(monkeypatch, c.weights(), c.indices, t, s, runs=1)

    def test_many_levels_take_level_blocks(self, monkeypatch):
        # 1100 levels: a 1024-level block and a 76-level one, each factored
        taken = self._runs(monkeypatch)
        n = np.linspace(1.0, 40.0, 1100)
        w = np.full(len(n), 1.0 / len(n))
        t = np.linspace(0.0, 3.0, 1000)
        got = dynamics._phase_sum(w, n, t)
        assert taken == [True, True]
        for k in self._sampled(60, len(t)):
            assert abs(got[k] - _mp_sum(w, n, t[k])) <= 1e-15 * w.sum(), k

    def test_short_runs_are_direct(self, monkeypatch):
        # a 4097-row grid: one factored run and a one-row direct run
        taken = self._runs(monkeypatch)
        t = np.linspace(0.0, 1600.0, 4097)
        got = autocorrelation(MODEL_SET, CASE_A, t).values
        assert taken == [True]
        assert got[-1] == _direct_phase_sum(MODEL_SET.weights(), MODEL_SET.indices, t[-1:], CASE_A)[0]

    @pytest.mark.parametrize("budget", [1 << 10, 1 << 16])
    def test_table_budget_leaves_the_bits(self, monkeypatch, budget):
        # 103 levels: (9 offsets, 9 bases) or (64, 64) per table in place
        # of (64, 32); every value keeps its bits
        t = np.linspace(0.0, 1600.0, 5000)
        want = autocorrelation(MODEL_SET, CASE_A, t).values
        taken = self._runs(monkeypatch)
        monkeypatch.setattr(dynamics, "_FACTOR_ELEMENTS", budget)
        got = autocorrelation(MODEL_SET, CASE_A, t).values
        assert taken == [True, True]
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_no_levels(self):
        assert np.array_equal(dynamics._phase_sum(np.zeros(0), np.zeros(0), np.linspace(0.0, 1.0, 300)),
                              np.zeros(300, dtype=complex))

    @pytest.mark.parametrize("case, bound", [("circle", 1.27e6), ("caseA", 1.95e6)])
    def test_peak_memory_within_direct_kernel(self, case, bound):
        # bounds: the direct kernel's tracemalloc peaks (1.274 and 1.952 MB)
        import tracemalloc

        if case == "circle":  # the billiard2d default: 437 distinct levels x 4001 times
            from revival.billiards import circular_spectrum
            from revival.packets import circular_coefficients

            c = circular_coefficients(0.3, 0.0, 0.0, 20.0, 0.05 * math.sqrt(2), 1.0, 16, 30)
            s = circular_spectrum(1.0, 16, 30)
            omegas, row = np.unique([s.energy(q1, q2) for q1, q2, _ in c.labels.tolist()], return_inverse=True)
            args = (np.bincount(row, weights=c.weights()), omegas, np.linspace(0.0, 10.0, 4001))
            assert len(omegas) == 437
        else:
            args = (MODEL_SET.weights(), MODEL_SET.indices, np.linspace(0.0, 1600.0, 64001), CASE_A)
        dynamics._phase_sum(*args)
        tracemalloc.start()
        try:
            dynamics._phase_sum(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, peak
