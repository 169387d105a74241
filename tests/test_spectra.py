"""Spectrum models and time-scale extraction."""

import math

import numpy as np
import pytest

from revival import specfun
from revival.errors import DomainError, RangeError
from revival.spectra import (
    Spectrum1D,
    UnitSystem,
    energy_derivatives,
    eval_energy,
    power_law_ratios,
    power_law_spectrum,
    rydberg_times,
    stark_period,
    time_scales,
)


class TestEvalEnergy:
    def test_infinite_well_ground(self):
        s = Spectrum1D.infinite_well()
        assert eval_energy(s, 1) == pytest.approx(math.pi**2, rel=1e-14)

    def test_anharmonic_case_a_at_400(self):
        s = Spectrum1D.case_a()
        assert eval_energy(s, 400) == pytest.approx(2 * math.pi * 300, rel=1e-14)

    def test_bouncer_airy_ground(self):
        s = Spectrum1D.bouncer_airy(F=1.0)
        assert eval_energy(s, 0) == pytest.approx(2.338107, abs=1e-6)
        assert eval_energy(s, 0) == pytest.approx(specfun.airy_zero(0).value, rel=1e-14)

    def test_below_ground_raises(self):
        with pytest.raises(DomainError):
            eval_energy(Spectrum1D.infinite_well(), 0.5)
        with pytest.raises(DomainError):
            eval_energy(Spectrum1D.rydberg(), 0.5)

    def test_rotor(self):
        s = Spectrum1D.rotor(inertia=1.0)
        assert eval_energy(s, 3) == pytest.approx(4.5, rel=1e-14)

    @pytest.mark.parametrize(
        "make",
        [lambda: Spectrum1D.rotor(1e-320), lambda: Spectrum1D.pendulum(1e-320, 1.0),
         lambda: Spectrum1D.infinite_well(0.0), lambda: Spectrum1D.infinite_well(1e200)],
        ids=["rotor", "pendulum", "well_zero", "well_huge"],
    )
    def test_non_finite_energy_scale_raises(self, make):
        with pytest.raises(DomainError, match="non-finite energy scale"):
            make()


class TestTimeScales:
    def test_case_a(self):
        ts = time_scales(Spectrum1D.case_a(), 400)
        assert ts.t_classical == pytest.approx(2.0, rel=1e-12)
        assert ts.t_revival == pytest.approx(1600.0, rel=1e-12)
        assert ts.t_super == math.inf

    def test_case_b(self):
        ts = time_scales(Spectrum1D.case_b(), 400)
        assert ts.t_classical == pytest.approx(1.515, abs=5e-4)
        assert ts.t_revival == pytest.approx(4444.4, abs=0.1)
        assert ts.t_super == pytest.approx(6.0 / 2.0e-6, rel=1e-12)

    def test_harmonic_all_higher_scales_infinite(self):
        ts = time_scales(Spectrum1D.harmonic(omega=3.0), 17)
        assert ts.t_classical == pytest.approx(2 * math.pi / 3.0, rel=1e-12)
        assert ts.t_revival == math.inf
        assert ts.t_super == math.inf

    @pytest.mark.parametrize("n0", [5, 40, 321])
    def test_infinite_well_revival_ratio_exact(self, n0):
        ts = time_scales(Spectrum1D.infinite_well(), n0)
        assert ts.t_revival == pytest.approx(2 * n0 * ts.t_classical, rel=1e-12)

    def test_pendulum_revival_is_8x_rotor(self):
        inertia = 2.7
        t_pend = time_scales(Spectrum1D.pendulum(inertia), 10).t_revival
        t_rot = time_scales(Spectrum1D.rotor(inertia), 10).t_revival
        assert t_pend == pytest.approx(32 * math.pi * inertia, rel=1e-12)
        assert t_rot == pytest.approx(4 * math.pi * inertia, rel=1e-12)
        assert t_pend == pytest.approx(8 * t_rot, rel=1e-12)

    def test_pendulum_revival_independent_of_v0(self):
        inertia = 1.0
        a = time_scales(Spectrum1D.pendulum(inertia, V0=0.0), 6).t_revival
        b = time_scales(Spectrum1D.pendulum(inertia, V0=5.0), 6).t_revival
        assert a == pytest.approx(b, rel=1e-12)


class TestDerivativesAgainstFiniteDifferences:
    MODELS = [
        Spectrum1D.case_b(),
        Spectrum1D.infinite_well(),
        Spectrum1D.bouncer_wkb(F=1.0),
        Spectrum1D.rotor(inertia=1.3),
        Spectrum1D.pendulum(inertia=0.8, V0=2.0),
        Spectrum1D.harmonic(omega=2.0),
        Spectrum1D.rydberg(),
        power_law_spectrum(4.0, 1.0, 1.0),
    ]

    @staticmethod
    def _stencil(f, n0, h, order):
        vals = np.array([f(n0 + j * h) for j in (-2, -1, 0, 1, 2)])
        if order == 1:
            return (vals[0] - 8 * vals[1] + 8 * vals[3] - vals[4]) / (12 * h)
        if order == 2:
            return (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3] - vals[4]) / (12 * h**2)
        return (-vals[0] + 2 * vals[1] - 2 * vals[3] + vals[4]) / (2 * h**3)

    @pytest.mark.parametrize("s", MODELS, ids=lambda s: s.model + str(s.params.get("k", "")))
    @pytest.mark.parametrize("n0", [20.0, 100.0, 400.0])
    def test_five_point_stencil(self, s, n0):
        # E' at h = 1e-3; the higher derivatives need larger steps or the
        # difference drowns in float64 cancellation (~|E| eps / h^order).
        f = lambda x: eval_energy(s, x)
        e, e1, e2, e3 = energy_derivatives(s, n0)
        d1 = self._stencil(f, n0, 1e-3, 1)
        d2 = self._stencil(f, n0, 2e-3 * n0, 2)
        d3 = self._stencil(f, n0, 2e-3 * n0, 3)
        scale = max(abs(e1), abs(e) / n0)
        assert d1 == pytest.approx(e1, rel=1e-6, abs=1e-9 * scale)
        if abs(e2) > 1e-10 * scale:
            assert d2 == pytest.approx(e2, rel=1e-6, abs=1e-9 * scale)
        else:
            assert abs(d2) < 1e-7 * scale
        if abs(e3) > 1e-10 * scale:
            assert d3 == pytest.approx(e3, rel=1e-4, abs=1e-9 * scale)
        else:
            assert abs(d3) < 1e-6 * scale


class TestPowerLaw:
    def test_ratio_hard_wall_limit(self):
        assert power_law_ratios(math.inf, 17.0)[0] == pytest.approx(34.0, rel=1e-14)

    def test_ratio_coulomb(self):
        assert power_law_ratios(-1.0, 30.0)[0] == pytest.approx(20.0, rel=1e-14)

    def test_ratio_harmonic_diverges(self):
        rev, sup = power_law_ratios(2.0, 11.0)
        assert rev == math.inf
        assert sup == pytest.approx(33.0, rel=1e-14)

    def test_scaling_exponent_k6(self):
        s = power_law_spectrum(6.0, 1.0, 1.0)
        assert s.params["exponent"] == pytest.approx(1.5, rel=1e-14)

    def test_harmonic_match_exact(self):
        # V0/L^2 = m*omega^2/2 must reproduce the (n + 1/2) ladder.
        units = UnitSystem()
        omega = 3.0
        L = 2.0
        V0 = units.mass * omega**2 * L**2 / 2
        s = power_law_spectrum(2.0, V0, L, units)
        for n in (0, 1, 7):
            assert eval_energy(s, n) == pytest.approx(
                units.hbar * omega * (n + 0.5), rel=1e-12
            )

    def test_infinite_limit_scaling(self):
        # k -> inf with hard walls: E_n ~ (n+1)^2 for a box of width 2L.
        units = UnitSystem()
        L = 1.0
        s = power_law_spectrum(math.inf, 1.0, L, units)
        e0 = units.hbar**2 * math.pi**2 / (2 * units.mass * (2 * L) ** 2)
        for n in (0, 3, 10):
            assert eval_energy(s, n) == pytest.approx(e0 * (n + 1) ** 2, rel=1e-12)

    def test_wkb_vs_airy_bouncer(self):
        wkb = Spectrum1D.bouncer_wkb(F=1.0)
        airy = Spectrum1D.bouncer_airy(F=1.0)
        for n in range(10, 201, 10):
            a = eval_energy(airy, n)
            w = eval_energy(wkb, n)
            assert abs(w - a) / a < 1e-3

    def test_k_minus_2_rejected(self):
        with pytest.raises(DomainError):
            power_law_spectrum(-2.0, 1.0, 1.0)


class TestPhysicalUnits:
    def test_rydberg_85(self):
        t_cl, t_rev = rydberg_times(85)
        assert t_cl == pytest.approx(93.5e-12, rel=0.01)
        assert t_rev == pytest.approx(5.3e-9, rel=0.02)

    def test_rydberg_72(self):
        t_cl, t_rev = rydberg_times(72)
        assert t_cl == pytest.approx(57e-12, rel=0.01)
        assert t_rev == pytest.approx(2.7e-9, rel=0.02)

    def test_rydberg_50(self):
        assert rydberg_times(50)[0] == pytest.approx(20e-12, rel=0.1)

    def test_rydberg_spectrum_period_matches_formula(self):
        s = Spectrum1D.rydberg()
        for n0 in (50.0, 85.0):
            assert time_scales(s, n0).t_classical == pytest.approx(
                rydberg_times(n0)[0], rel=1e-12
            )

    def test_stark(self):
        assert stark_period(1, 1) == pytest.approx(2.6e-12, rel=1e-14)
        assert stark_period(2, 1) == pytest.approx(1.3e-12, rel=1e-14)
        assert stark_period(1, 2) == pytest.approx(1.3e-12, rel=1e-14)


class TestPolynomialModelsAgainstClosedForms:
    """E..E''' derived from frequency_polynomial() against the hand-written
    closed forms of each polynomial model."""

    @staticmethod
    def _closed_form(s, n):
        u, p = s.units, s.params
        if s.model == "AnharmonicPoly":
            a, b = p["alpha"], p["beta"]
            return (
                2 * np.pi * (n - a * n**2 / 2 + b * n**3 / 6),
                2 * np.pi * (1 - a * n + b * n**2 / 2),
                2 * np.pi * (-a + b * n),
                2 * np.pi * b,
            )
        if s.model == "InfiniteWell":
            e0 = u.hbar**2 * np.pi**2 / (2 * u.mass * p["L"] ** 2)
            return e0 * n**2, 2 * e0 * n, 2 * e0, 0.0
        if s.model == "Rotor2D":
            c = u.hbar**2 / (2 * p["inertia"])
            return c * n**2, 2 * c * n, 2 * c, 0.0
        if s.model == "PendulumLowEnergy":
            c = u.hbar**2 / (32 * p["inertia"])
            omega0 = math.sqrt(p["V0"] / p["inertia"]) if p["V0"] > 0 else 0.0
            return (
                u.hbar * omega0 * (n + 0.5) + c * (2 * n**2 + 2 * n + 1),
                u.hbar * omega0 + c * (4 * n + 2),
                4 * c,
                0.0,
            )
        w = p["omega"]  # Harmonic
        return u.hbar * w * (n + 0.5), u.hbar * w, 0.0, 0.0

    MODELS = [
        Spectrum1D.case_a(),
        Spectrum1D.case_b(),
        Spectrum1D.anharmonic(0.001, 1.0e-6, UnitSystem(hbar=0.7, mass=1.3)),
        Spectrum1D.infinite_well(),
        Spectrum1D.infinite_well(2.5, UnitSystem(hbar=1.7, mass=0.9)),
        Spectrum1D.rotor(inertia=1.3),
        Spectrum1D.pendulum(inertia=0.8, V0=2.0),
        Spectrum1D.pendulum(inertia=2.7),
        Spectrum1D.harmonic(omega=2.0),
        Spectrum1D.harmonic(omega=0.3, units=UnitSystem(hbar=2.0)),
    ]

    @pytest.mark.parametrize("s", MODELS, ids=lambda s: s.model)
    @pytest.mark.parametrize("n0", [1.0, 7.0, 20.0, 100.0, 400.0, 12.5])
    def test_derivatives_match(self, s, n0):
        got = energy_derivatives(s, n0)
        want = self._closed_form(s, n0)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-15 * abs(w), (got, want)


class TestAiryLevelsOnePath:
    S = Spectrum1D.bouncer_airy(F=2.0)
    SCALE = (1.0**2 * 2.0**2 / (2 * 0.5)) ** (1.0 / 3.0)

    def test_integer_levels_are_scaled_zeros_for_scalars_and_arrays(self):
        n = [0, 1, 37, 499, 500]
        want = [self.SCALE * specfun.airy_zero(k).value for k in n]
        assert [eval_energy(self.S, k) for k in n] == want
        assert list(eval_energy(self.S, np.array(n))) == want

    def test_index_above_zero_table_raises(self):
        with pytest.raises(RangeError):
            eval_energy(self.S, 500.4)
