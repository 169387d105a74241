"""Clone-amplitude algebra and peak detection."""

import math
from math import gcd

import mpmath

import numpy as np
import pytest

from revival.dynamics import autocorrelation, uniform_grid
from revival.errors import DomainError
from revival.fractional import (
    clone_structure,
    detect_peaks,
    gauss_coefficients,
    resolvable,
    verify_recursion,
)
from revival.packets import gaussian_model_coefficients
from revival.spectra import Spectrum1D


def coprime_pairs(q_max):
    for q in range(1, q_max + 1):
        for p in range(1, q + 1):
            if gcd(p, q) == 1:
                yield p, q


class TestGaussCoefficients:
    def test_one_third(self):
        tab = gauss_coefficients(1, 3)
        b0 = -1j / math.sqrt(3.0)
        assert tab.period_l == 3
        assert tab.b[0] == pytest.approx(b0, abs=1e-14)
        rot = np.exp(2j * np.pi / 3.0) * b0
        assert tab.b[1] == pytest.approx(rot, abs=1e-14)
        assert tab.b[2] == pytest.approx(rot, abs=1e-14)

    def test_one_half(self):
        tab = gauss_coefficients(1, 2)
        assert tab.period_l == 2
        assert tab.b[0] == 0.0
        assert tab.b[1] == pytest.approx(1.0, abs=1e-14)

    def test_one_quarter(self):
        tab = gauss_coefficients(1, 4)
        assert tab.period_l == 2
        assert tab.b[0] == pytest.approx(np.exp(-1j * np.pi / 4) / math.sqrt(2), abs=1e-14)
        assert tab.b[1] == pytest.approx(np.exp(+1j * np.pi / 4) / math.sqrt(2), abs=1e-14)
        triple = tab.amplitudes_mod_q()
        assert triple[0] == pytest.approx(np.exp(-1j * np.pi / 4) / math.sqrt(2), abs=1e-14)
        assert triple[1] == 0.0
        assert triple[2] == pytest.approx(np.exp(+1j * np.pi / 4) / math.sqrt(2), abs=1e-14)

    def test_non_coprime_reduced_with_report(self):
        tab = gauss_coefficients(2, 6)
        assert (tab.p, tab.q) == (1, 3)
        assert tab.reduced_from == (2, 6)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            gauss_coefficients(0, 3)
        with pytest.raises(DomainError):
            gauss_coefficients(1, -2)

    @pytest.mark.parametrize("p,q", list(coprime_pairs(50)))
    def test_parseval_reconstruction_and_moduli(self, p, q):
        tab = gauss_coefficients(p, q)
        l = tab.period_l
        assert abs(np.sum(np.abs(tab.b) ** 2) - 1.0) < 1e-12
        k = np.arange(l)
        recon = tab.b @ np.exp(-2j * np.pi * np.outer(np.arange(l), k) / l)
        target = np.exp(-2j * np.pi * p * (k**2 % (2 * q)) / q)
        assert np.max(np.abs(recon - target)) < 1e-12
        if q % 2 == 1:
            assert np.max(np.abs(np.abs(tab.b) ** 2 - 1.0 / q)) < 1e-12
        if q % 4 == 2:
            assert np.all(np.abs(tab.b[::2]) <= 1e-12)

    @pytest.mark.parametrize("p,q", list(coprime_pairs(50)))
    def test_recursion(self, p, q):
        assert verify_recursion(gauss_coefficients(p, q))


class TestCloneStructure:
    def test_examples(self):
        assert clone_structure(1, 3) == (3, pytest.approx(1 / 3), pytest.approx(1 / 3))
        assert clone_structure(1, 4) == (2, pytest.approx(1 / 2), pytest.approx(1 / 2))
        assert clone_structure(1, 2) == (1, pytest.approx(1.0), pytest.approx(1.0))

    def test_counts_match_table_support(self):
        for p, q in coprime_pairs(24):
            count, _, peak = clone_structure(p, q)
            tab = gauss_coefficients(p, q)
            nonzero = np.count_nonzero(np.abs(tab.b) > 1e-10)
            assert nonzero == count
            assert np.max(np.abs(tab.b) ** 2) == pytest.approx(peak, abs=1e-12)


class TestResolvable:
    def test_low_q_resolved(self):
        assert resolvable(3, 6.0)

    def test_high_q_unresolved(self):
        assert not resolvable(37, 6.0)

    def test_q_one_always(self):
        assert resolvable(1, 0.01)


class TestDetectPeaks:
    @pytest.fixture(scope="class")
    @staticmethod
    def series():
        c = gaussian_model_coefficients(400, 6, 1e-8)
        s = Spectrum1D.case_a()
        grid = uniform_grid(1600.0, 2.0, 60)
        return autocorrelation(c, s, grid)

    def test_half_revival(self, series):
        # T_rev/(2 T_cl) is an integer here, so the lone clone sits half a
        # classical period away from the aligned time; the still-running
        # quadratic phase costs exp(-(pi T_cl/T_rev)^2 * 2 Var(k^2)), i.e.
        # a peak of 0.9623 rather than 1 for delta_n = 6.
        reports = {(r.p, r.q): r for r in detect_peaks(series, 2.0, 1600.0, 4)}
        c = gaussian_model_coefficients(400, 6, 1e-8)
        k = (c.indices - 400).astype(float)
        finite_spread = abs(np.sum(c.weights() * np.exp(2j * np.pi * k**2 / 1600.0))) ** 2
        assert reports[(1, 2)].measured_peak == pytest.approx(finite_spread, abs=1e-9)
        assert reports[(1, 2)].measured_peak == pytest.approx(0.9623, abs=1e-3)

    def test_quarter_revival(self, series):
        reports = {(r.p, r.q): r for r in detect_peaks(series, 2.0, 1600.0, 4)}
        assert reports[(1, 4)].measured_peak == pytest.approx(0.5, abs=0.03)
        assert reports[(1, 4)].predicted_peak == pytest.approx(0.5)

    def test_unresolvable_37_is_plateau(self, series):
        reports = {(r.p, r.q): r for r in detect_peaks(series, 2.0, 1600.0, 40)}
        rep = reports[(14, 37)]
        # collapsed background: the window mean tracks sum |a|^4, not the
        # 1/37 clone prediction
        assert rep.window_mean == pytest.approx(0.047, abs=0.02)
        assert rep.window_mean > 1.3 * (1.0 / 37.0)

    def test_coarse_grid_rejected(self, series):
        sparse = autocorrelation(
            gaussian_model_coefficients(400, 6, 1e-8),
            Spectrum1D.case_a(),
            np.linspace(0.0, 1600.0, 2000),
        )
        with pytest.raises(DomainError):
            detect_peaks(sparse, 2.0, 1600.0, 4)


class TestTableCSV:
    def test_csv(self, tmp_path):
        tab = gauss_coefficients(1, 3)
        path = tmp_path / "tab.csv"
        tab.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "r,re,im,abs2"
        row = lines[1].split(",")
        assert float(row[2]) == pytest.approx(-1 / math.sqrt(3), rel=1e-14)


class TestGaussSumFFT:
    @pytest.mark.parametrize("p, q", [(1, 101), (3, 1000), (7, 4096)])
    def test_matches_mpmath(self, p, q):
        # the direct sum b_r = (1/l) sum_k e^{2 pi i (r k / l - p k^2 / q)} at
        # 30 digits, on a spread of r; the FFT table is within 1.4e-16
        tab = gauss_coefficients(p, q)
        l = tab.period_l
        with mpmath.workdps(30):
            for r in sorted({0, 1, l // 3, l // 2, l - 1}):
                want = mpmath.fsum(mpmath.expjpi(2 * (mpmath.mpf(r * k) / l - mpmath.mpf(p * k * k) / q))
                                   for k in range(l)) / l
                assert abs(tab.b[r] - complex(want)) <= 3e-16

    @pytest.mark.parametrize("p, q", [(1, 1002), (5, 1002), (7, 4094)])
    def test_half_the_entries_vanish_exactly_at_q_2_mod_4(self, p, q):
        # l = q and b_r = 0 for every r of one parity; the direct sum left
        # 46 of the 501 zeros at (1, 1002) above the 1e-14 cut
        tab = gauss_coefficients(p, q)
        assert tab.period_l == q
        assert np.count_nonzero(tab.b) == q // 2
        assert np.all(np.abs(tab.b[tab.b != 0]) > 1e-3)

    def test_huge_p_is_reduced_exactly(self):
        # p k^2 mod q in integers: a p past 2^63 gives the table of p mod q
        big = 7 * 10**30 + 3
        assert np.array_equal(gauss_coefficients(big, 101).b, gauss_coefficients(big % 101, 101).b)
