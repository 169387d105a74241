"""Cavity-QED inversion revivals and coherent matter-field revivals."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from revival.analogs import (
    BEC_MAX_LEVELS,
    CoherentState,
    JCParams,
    bec_cat_fidelity,
    bec_field,
    bec_overlap_grid,
    bec_overlap_peaks,
    bec_overlap_point,
    bec_state_coefficients,
    default_n_cap,
    jc_bound,
    jc_gaussian_envelope,
    jc_inversion,
    jc_revival_time,
)
from revival.cli import main
from revival.errors import DomainError, TruncationError
from revival.wavefields import AxisSpec

JC = JCParams(nbar=36.0, coupling=0.01)


def tau_grid(tau_max, samples_per_unit=220):
    # tau = coupling * t / pi
    t_max = tau_max * math.pi / JC.coupling
    return np.linspace(0.0, t_max, int(tau_max * samples_per_unit) + 1)


class TestJaynesCummings:
    def test_initial_inversion(self):
        ser = jc_inversion(JC, [0.0])
        assert ser.values[0].real == pytest.approx(1.0, abs=1e-10)

    def test_population_bounded(self):
        ser = jc_inversion(JC, tau_grid(30.0, 60))
        pe = ser.values.real
        assert np.all(pe >= -1e-12) and np.all(pe <= 1.0 + 1e-12)

    def test_revival_time_formula(self):
        assert jc_revival_time(JC) == pytest.approx(2 * math.pi * 6.0 / 0.01, rel=1e-12)
        assert jc_revival_time(JCParams(1.0, 1.0)) == pytest.approx(2 * math.pi, rel=1e-12)
        detuned = JCParams(4.0, 1.0, detuning=100.0)
        assert jc_revival_time(detuned) == pytest.approx(
            2 * math.pi * math.sqrt(4.0 + 2500.0), rel=1e-12
        )

    @pytest.mark.parametrize(
        "params, expected",
        [(JCParams(1e-300, 1e300), 2 * math.pi * 1e-150 / 1e300),  # coupling^2 overflows
         (JCParams(50.0, 1e-300), 2 * math.pi * math.sqrt(50.0) * 1e300),  # and underflows
         (JCParams(0.0, 1e-200, detuning=2e-200), 2 * math.pi * 1e200)],
        ids=["huge_coupling", "tiny_coupling", "tiny_detuned"],
    )
    def test_revival_time_squares_no_rate(self, params, expected):
        assert jc_revival_time(params) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_revival_envelope_maxima_near_12k(self):
        grid = tau_grid(30.0)
        ser = jc_inversion(JC, grid)
        tau = grid * JC.coupling / math.pi
        dev = np.abs(ser.values.real - 0.5)
        for k in (1, 2):
            window = (tau > 12 * k - 2.0) & (tau < 12 * k + 2.0)
            peak_tau = tau[window][np.argmax(dev[window])]
            assert abs(peak_tau - 12 * k) <= 0.5

    def test_within_suppression_bounds(self):
        grid = tau_grid(30.0)
        pe = jc_inversion(JC, grid).values.real
        lower, upper = jc_bound(JC, grid)
        assert np.all(pe >= lower - 0.02)
        assert np.all(pe <= upper + 0.02)

    def test_bounds_at_zero_and_infinity(self):
        lo, hi = jc_bound(JC, 0.0)
        assert (lo, hi) == (pytest.approx(0.0), pytest.approx(1.0))
        lo, hi = jc_bound(JC, 1e9)
        assert lo == pytest.approx(0.5, abs=1e-3)
        assert hi == pytest.approx(0.5, abs=1e-3)

    def test_short_time_gaussian_envelope(self):
        t = np.linspace(0.0, 1.0 / JC.coupling, 400)
        pe = jc_inversion(JC, t).values.real
        env = jc_gaussian_envelope(JC, t)
        # compare windowed extremes of 2|P_e - 1/2| against the envelope
        rabi_period = math.pi / (JC.coupling * math.sqrt(JC.nbar))
        worst = 0.0
        for lo in np.arange(0.0, t[-1] - rabi_period, rabi_period):
            sel = (t >= lo) & (t <= lo + rabi_period)
            measured = 2.0 * np.max(np.abs(pe[sel] - 0.5))
            target = env[sel].max()
            worst = max(worst, abs(measured - target))
        assert worst < 0.02

    def test_rescaling_invariance(self):
        # P_e depends only on (coupling * t, nbar) at zero detuning
        t = np.linspace(0.0, 512.0, 257)  # dyadic grid
        a = jc_inversion(JCParams(9.0, 0.5), t).values.real
        b = jc_inversion(JCParams(9.0, 0.25), 2.0 * t).values.real
        assert np.max(np.abs(a - b)) == 0.0

    def test_detuned_inversion_unsupported(self):
        with pytest.raises(DomainError):
            jc_inversion(JCParams(4.0, 1.0, detuning=0.5), [0.0])

    @staticmethod
    def _mpmath_inversion(nbar, coupling, t):
        # P_e(t) at 30 digits over nbar +- 20 sqrt(nbar), weights by recurrence
        mpmath.mp.dps = 30
        nb = mpmath.mpf(nbar)
        half = 20.0 * math.sqrt(nbar)
        lo, hi = max(0, int(nbar - half)), int(nbar + half) + 20
        w = mpmath.exp(-nb + lo * mpmath.log(nb) - mpmath.loggamma(lo + 1))
        arg, total = 2 * mpmath.mpf(coupling) * mpmath.mpf(t), mpmath.mpf(0)
        for n in range(lo, hi + 1):
            total += w * mpmath.cos(arg * mpmath.sqrt(n))
            w = w * nb / (n + 1)
        return float(0.5 + 0.5 * total)

    @pytest.mark.parametrize(
        "nbar, times, rows, tol",
        # 4e5 was refused while the weights' lgamma rounding (1 - sum w =
        # 1.2e-10 at 3e5) was read as a Poisson tail; with the Stirling-form
        # weights its error fell from 7.0e-11 to 1.8e-14. The few-point grids
        # are summed directly; 1e6 (24,001 levels in 24 level blocks) on a
        # 256-row grid takes the factored sum, checked on four rows
        [(50.0, (0.0, 1.7, 33.3, 0.37 * 60 * math.pi, 94.0), slice(None), 2e-14),
         (4e5, (0.0, 33.3, 94.0), slice(None), 3e-14),
         (1e6, np.linspace(0.0, 30.0, 256), slice(None, None, 85), 3e-14)],
        ids=["nbar50", "nbar4e5", "nbar1e6"],
    )
    def test_inversion_matches_mpmath(self, nbar, times, rows, tol):
        got = jc_inversion(JCParams(nbar, 1.0), np.array(times)).values
        assert np.all(got.imag == 0.0)
        for t, value in zip(np.array(times)[rows], got.real[rows]):
            assert abs(value - self._mpmath_inversion(nbar, 1.0, t)) <= tol, t

    @pytest.mark.parametrize("nbar", [0.9, 1.0, 1.1])
    def test_small_nbar_window_holds_the_tail(self, nbar):
        # 12 levels above nbar left a Poisson tail of 4e-12 at nbar = 1
        assert jc_inversion(JCParams(nbar, 1.0), [0.0]).values[0].real == pytest.approx(1.0, abs=1e-12)

    def test_inversion_memory_is_bounded(self):
        # 6001 times x 136 levels, the default jc run at nbar 50. Measured
        # peaks (CPython 3.11, numpy 2.4): 2.2 MB through the blocked phase
        # sum, 12.5 MB with the full (6001, 136) cosine table.
        t = np.linspace(0.0, 30.0 * math.pi, 6001)
        tracemalloc.start()
        try:
            jc_inversion(JCParams(50.0, 1.0), t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3_000_000


class TestCoherentState:
    def test_cap_invariant(self):
        with pytest.raises(DomainError):
            CoherentState(alpha=6.0, u0_over_hbar=1.0, n_cap=40)

    def test_ladder_cap(self):
        assert default_n_cap(4.0) == 76
        assert default_n_cap(3.0 + 4.0j) == 95
        # alpha 1e6 asks for 1e12 levels; past ~1e154 |alpha|^2 is not a double
        for alpha in (1e6, 1e200):
            with pytest.raises(TruncationError, match="ladder levels"):
                default_n_cap(alpha)
        with pytest.raises(TruncationError, match="ladder levels"):
            CoherentState(alpha=4.0, u0_over_hbar=1.0, n_cap=BEC_MAX_LEVELS + 1)
        with pytest.raises(DomainError):
            CoherentState(alpha=1e200, u0_over_hbar=1.0, n_cap=5)

    def test_poisson_norm(self):
        for a in (0.0, 1.0, 4.0, 8.0):
            cs = CoherentState(alpha=a, u0_over_hbar=1.0, n_cap=int(a * a + 10 * a) + 20)
            w = np.exp(cs.log_poisson())
            assert abs(w.sum() - 1.0) < 1e-10

    def test_field_values(self):
        cs = CoherentState(alpha=3.0, u0_over_hbar=2 * math.pi / 8.0, n_cap=80)
        assert bec_field(cs, 0.0) == pytest.approx(3.0, abs=1e-14)
        assert bec_field(cs, cs.t_revival) == pytest.approx(3.0, abs=1e-12)
        half = abs(bec_field(cs, cs.t_revival / 2.0))
        assert half == pytest.approx(3.0 * math.exp(-2 * 9.0), rel=1e-10)

    def test_exact_periodicity_componentwise(self):
        # dyadic revival period so t and t + T sum exactly
        cs = CoherentState(alpha=2.0 + 1.0j, u0_over_hbar=2 * math.pi / 8.0, n_cap=64)
        assert cs.t_revival == pytest.approx(8.0, abs=1e-12)
        for t in (0.625, 1.25, 3.0625):
            c1 = bec_state_coefficients(cs, t)
            c2 = bec_state_coefficients(cs, t + 8.0)
            assert np.max(np.abs(c1 - c2)) < 1e-12


class TestOverlapStructure:
    CS = CoherentState(alpha=3.0, u0_over_hbar=2 * math.pi / 8.0, n_cap=100)

    def test_initial_peak_at_alpha(self):
        assert bec_overlap_point(self.CS, 3.0, 0.0) == pytest.approx(1.0, abs=1e-10)

    def test_half_period_cat_peaks(self):
        peaks = bec_overlap_peaks(self.CS, self.CS.t_revival / 2.0)
        assert len(peaks) == 2
        centers = sorted((round(c.real, 2), round(c.imag, 2)) for c, _ in peaks)
        assert centers == [(0.0, -3.0), (0.0, 3.0)]
        assert abs(peaks[0][1] - peaks[1][1]) < 1e-8

    def test_third_period_three_equal_peaks(self):
        # at |alpha| = 3 the three clones still talk to each other at the
        # e^{-3|alpha|^2/2} ~ 1.4e-6 level, so their heights genuinely
        # differ by that much
        peaks = bec_overlap_peaks(self.CS, self.CS.t_revival / 3.0)
        assert len(peaks) == 3
        heights = [h for _, h in peaks]
        assert max(heights) - min(heights) < 3e-6

    def test_third_period_peaks_alpha4(self):
        cs = CoherentState(alpha=4.0, u0_over_hbar=2 * math.pi / 8.0, n_cap=120)
        peaks = bec_overlap_peaks(cs, cs.t_revival / 3.0)
        assert len(peaks) == 3
        heights = [h for _, h in peaks]
        assert max(heights) - min(heights) < 1e-6

    def test_grid_writer_shape(self):
        ax = AxisSpec("re", -5.0, 5.0, 41)
        ay = AxisSpec("im", -5.0, 5.0, 41)
        grid = bec_overlap_grid(self.CS, 0.0, ax, ay)
        assert grid.values.shape == (41, 41)
        i = np.unravel_index(np.argmax(grid.values), grid.values.shape)
        assert ax.points()[i[0]] == pytest.approx(3.0, abs=0.25)


def overlap_oracle(cs, t, beta, dps=40):
    """e^{-|a|^2 - |b|^2} |sum_n (a b*)^n / n! e^{-i pi k_n}|^2 in mpmath, with
    the kernel's reduced phase cycles k_n (exact in binary)."""
    with mpmath.workdps(dps):
        n = np.arange(cs.n_cap + 1)
        cycles = np.mod((n * (n - 1)).astype(float) * np.mod(t / cs.t_revival, 1.0), 2.0)
        a = mpmath.mpc(cs.alpha.real, cs.alpha.imag)
        b = mpmath.mpc(beta.real, -beta.imag)
        term, total = mpmath.mpc(1), mpmath.mpc(0)
        for k in range(cs.n_cap + 1):
            total += term * mpmath.expjpi(-mpmath.mpf(cycles[k]))
            term *= a * b / (k + 1)
        return float(mpmath.exp(-abs(a) ** 2 - abs(b) ** 2) * abs(total) ** 2)


class TestOverlapOracle:
    # The result is exp of a sum of terms as large as |beta|^2, whose
    # rounding sets the error: ~20 at |alpha| = 4, ~900 at |alpha| = 30,
    # where it moves a 0.457 peak by ~2e-13. There the coefficients
    # c_n R^n / sqrt(n!) reach e^445, so a plain Horner sum overflows; at
    # |alpha| = 40 they would pass the double range without the shift
    @pytest.mark.parametrize(
        "alpha, frac, tol",
        [(4.0, 0.5, 3e-15), (4.0, 1.0 / 3.0, 3e-15), (2.0 * np.exp(0.7j), 0.25, 3e-15),
         (30.0, 0.5, 5e-13), (40.0, 0.0, 1e-12)],
        ids=["alpha4_half", "alpha4_third", "complex_alpha", "alpha30_half", "alpha40_start"],
    )
    def test_grid_matches_mpmath_and_point(self, alpha, frac, tol):
        a = abs(alpha)
        cs = CoherentState(alpha=alpha, u0_over_hbar=1.0, n_cap=int(a * a + 10 * a) + 20)
        t = frac * cs.t_revival
        axis = AxisSpec("re", -a - 3.0, a + 3.0, 21)
        pts = axis.points()
        assert pts[10] == 0.0
        grid = bec_overlap_grid(cs, t, axis, AxisSpec("im", -a - 3.0, a + 3.0, 21)).values
        assert np.all(np.isfinite(grid))
        peak = np.unravel_index(np.argmax(grid), grid.shape)
        rng = np.random.default_rng(7)
        cells = [(10, 10), peak] + [tuple(rng.integers(0, 21, 2)) for _ in range(6)]
        for i, j in cells:
            beta = complex(pts[i], pts[j])
            assert grid[i, j] == pytest.approx(overlap_oracle(cs, t, beta), abs=tol)
            assert grid[i, j] == pytest.approx(bec_overlap_point(cs, beta, t), abs=tol)
        assert grid[10, 10] == pytest.approx(math.exp(-a * a), rel=1e-13)
        assert grid.max() > 0.1

    def test_cli_large_alpha_is_finite(self, tmp_path):
        assert main(["bec", "--alpha_re", "30", "--u0", "1", "--grid_count", "21",
                     "--out", str(tmp_path)]) == 0
        rows = np.loadtxt(tmp_path / "bec.csv", delimiter=",", skiprows=1)
        assert np.all(np.isfinite(rows)) and len(rows) == 21 * 21
        cs = CoherentState(alpha=30.0, u0_over_hbar=1.0, n_cap=1220)
        for r in rows[np.argsort(-rows[:, 2])[:3]]:
            beta = complex(r[0], r[1])
            assert r[2] == pytest.approx(overlap_oracle(cs, 0.5 * cs.t_revival, beta), abs=5e-13)


class TestCatFidelity:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0, 6.0])
    def test_unit_fidelity(self, alpha):
        n_cap = max(120, int(alpha * alpha + 10 * alpha) + 10)
        cs = CoherentState(alpha=alpha, u0_over_hbar=1.0, n_cap=n_cap)
        assert bec_cat_fidelity(cs) == pytest.approx(1.0, abs=1e-8)

    def test_vacuum(self):
        cs = CoherentState(alpha=0.0, u0_over_hbar=1.0, n_cap=10)
        assert bec_cat_fidelity(cs) == pytest.approx(1.0, abs=1e-12)

    def test_complex_alpha(self):
        cs = CoherentState(alpha=2.0 * np.exp(1j * 0.7), u0_over_hbar=1.0, n_cap=80)
        assert bec_cat_fidelity(cs) == pytest.approx(1.0, abs=1e-10)
