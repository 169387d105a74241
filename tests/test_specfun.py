"""Special-function backbone checked against scipy as an independent oracle."""

import math

import numpy as np
import pytest
import scipy.special as sp

from revival import specfun
from revival.errors import QuadratureError, RangeError, RootError


class TestBesselJ:
    def test_j0_at_origin(self):
        assert specfun.bessel_j(0, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_j1_at_origin(self):
        assert specfun.bessel_j(1, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_near_first_zero(self):
        # 2.40482556 is a bisection-refined zero of the ascending series.
        assert abs(specfun.bessel_j(0, 2.40482556)) < 1e-8

    @pytest.mark.parametrize("order", [0, 1, 2, 5, 13, 30, 60])
    def test_against_scipy_grid(self, order):
        z = np.linspace(0.01, 200.0, 641)
        ours = specfun.bessel_j(order, z)
        ref = sp.jv(order, z)
        assert np.max(np.abs(ours - ref)) < 1e-10

    def test_large_argument_spot_checks(self):
        for order, z in [(0, 700.0), (10, 725.0), (60, 750.0)]:
            assert specfun.bessel_j(order, z) == pytest.approx(
                sp.jv(order, z), abs=5e-10
            )

    def test_derivative_against_scipy(self):
        z = np.linspace(0.1, 150.0, 301)
        for order in (0, 1, 4, 22):
            assert np.max(np.abs(specfun.bessel_j_prime(order, z) - sp.jvp(order, z))) < 1e-9

    def test_range_errors(self):
        with pytest.raises(RangeError):
            specfun.bessel_j(61, 1.0)
        with pytest.raises(RangeError):
            specfun.bessel_j(0, -1.0)
        with pytest.raises(RangeError):
            specfun.bessel_j(0, 1e7)


class TestBesselY:
    @pytest.mark.parametrize("order", [0, 1, 3, 12, 40])
    def test_against_scipy(self, order):
        z = np.linspace(0.05, 120.0, 481)
        ours = specfun._bessel_y(order, z)
        ref = sp.yv(order, z)
        scale = np.maximum(1.0, np.abs(ref))
        assert np.max(np.abs(ours - ref) / scale) < 1e-9


class TestBesselZeros:
    def test_first_zero_of_j0(self):
        r = specfun.bessel_zero(0, 0)
        assert r.value == pytest.approx(2.404826, abs=1e-6)
        assert r.residual <= 1e-12

    def test_seed_is_lowest_order_value(self):
        assert specfun.bessel_zero_seed(0, 0) == pytest.approx(0.75 * math.pi, abs=1e-12)

    def test_seed_close_to_refined(self):
        seed = specfun.bessel_zero_seed(5, 10)
        refined = specfun.bessel_zero(5, 10)
        assert abs(seed - refined.value) < 1e-2
        assert refined.residual <= 1e-12

    @pytest.mark.parametrize("order", [0, 1, 2, 7, 25, 60])
    def test_against_scipy_zeros(self, order):
        ref = sp.jn_zeros(order, 30)
        ours = [specfun.bessel_zero(order, k).value for k in range(30)]
        assert np.max(np.abs(np.array(ours) - ref)) < 1e-9

    def test_interlacing(self):
        for m in range(0, 11):
            for k in range(0, 20):
                a = specfun.bessel_zero(m, k).value
                b = specfun.bessel_zero(m + 1, k).value
                c = specfun.bessel_zero(m, k + 1).value
                assert a < b < c

    def test_monotone_in_index(self):
        for m in (0, 9, 41):
            vals = [specfun.bessel_zero(m, k).value for k in range(25)]
            assert all(x < y for x, y in zip(vals, vals[1:]))

    def test_deep_index(self):
        r = specfun.bessel_zero(0, 200)
        assert r.value == pytest.approx(sp.jn_zeros(0, 201)[200], abs=1e-8)


def _hankel_pq_array_rule(z, m):
    # the array-wide stopping rule, evaluated on every term: the reference
    # for the scalar term count of specfun._hankel_pq
    mu = 4.0 * m * m
    p = np.ones_like(z)
    q = np.zeros_like(z)
    a = np.ones_like(z)
    zinv = 1.0 / z
    prev = np.full_like(z, np.inf)
    for j in range(1, 18):
        a = a * (mu - (2 * j - 1) ** 2) / (8.0 * j) * zinv
        mag = np.max(np.abs(a))
        if mag >= np.max(prev):
            break
        prev = np.abs(a)
        sgn = 1.0 if (j // 2) % 2 == 0 else -1.0
        if j % 2 == 1:
            q += sgn * a
        else:
            p += sgn * a
        if mag < 1e-18:
            break
    return p, q


class TestHankelTerms:
    @pytest.mark.parametrize("m", [0, 1])
    def test_scalar_term_count_matches_array_rule_bitwise(self, m):
        rng = np.random.default_rng(5 + m)
        arrays = [
            np.array([12.0]),
            np.array([12.0, 2000.0]),
            rng.uniform(12.0, 2000.0, 300),
            rng.uniform(12.0, 15.0, 50),
            np.concatenate([rng.uniform(200.0, 2000.0, 40), [19.9955]]),
        ]
        for z in arrays:
            p, q = specfun._hankel_pq(z, m)
            p_ref, q_ref = _hankel_pq_array_rule(z, m)
            assert np.array_equal(p, p_ref) and np.array_equal(q, q_ref)

    @pytest.mark.parametrize("order", [0, 1, 2, 7, 16, 30, 45, 60])
    def test_mixed_size_arrays_against_scipy(self, order):
        # one array spans the expansion's whole range, so every z gets the
        # term count of the smallest one
        rng = np.random.default_rng(order)
        z = np.concatenate([[12.0, 2000.0], rng.uniform(12.0, 40.0, 60), rng.uniform(40.0, 2000.0, 60)])
        assert np.max(np.abs(specfun.bessel_j(order, z) - sp.jv(order, z))) < 1e-10
        ref = sp.yv(order, z)  # Y_60(12) ~ -1e40: absolute below 1, relative above
        scale = np.maximum(1.0, np.abs(ref))
        assert np.max(np.abs(specfun._bessel_y(order, z) - ref) / scale) < 1e-10


class TestBesselZeroTable:
    @pytest.mark.parametrize("order", range(17))
    def test_batch_equals_sequential_lookups_bitwise(self, order, monkeypatch):
        # sequential lookups grow the table 16 -> 32; one batch of 31 is
        # refined with other array shapes and must give the same bits
        monkeypatch.setattr(specfun, "_bessel_zero_cache", {})
        sequential = [specfun.bessel_zero(order, k).value for k in range(31)]
        monkeypatch.setattr(specfun, "_bessel_zero_cache", {})
        batch = specfun.bessel_zeros(order, 31)
        assert batch.tolist() == sequential
        ref = sp.jn_zeros(order, 31)
        assert np.max(np.abs(batch - ref) / ref) < 1e-12

    def test_cached_results_keep_their_residuals(self, monkeypatch):
        monkeypatch.setattr(specfun, "_bessel_zero_cache", {})
        zs = specfun.bessel_zeros(4, 20)
        for k in range(20):
            r = specfun.bessel_zero(4, k)
            assert r.value == zs[k]
            assert r.residual <= 1e-12
            assert abs(sp.jv(4, r.value)) <= 1e-12

    def test_range_errors(self):
        for order, count in [(61, 3), (-1, 3), (0, -1), (0, 202)]:
            with pytest.raises(RangeError):
                specfun.bessel_zeros(order, count)
        with pytest.raises(RangeError):
            specfun.bessel_zero(0, 201)
        assert specfun.bessel_zeros(0, 0).shape == (0,)

    def test_bad_batch_raises_and_is_not_cached(self, monkeypatch):
        monkeypatch.setattr(specfun, "_bessel_zero_cache", {})
        good = specfun._scan_bessel_zeros
        shifted = lambda order, count: [(v + 1e-6, i) for v, i in good(order, count)]
        monkeypatch.setattr(specfun, "_scan_bessel_zeros", shifted)
        with pytest.raises(RootError):
            specfun.bessel_zeros(3, 5)
        assert specfun._bessel_zero_cache.get(3, []) == []
        monkeypatch.setattr(specfun, "_scan_bessel_zeros", good)
        assert specfun.bessel_zeros(3, 5) == pytest.approx(sp.jn_zeros(3, 5), rel=1e-12)


class TestAiry:
    def test_against_scipy_dense(self):
        x = np.linspace(-170.0, 12.0, 4001)
        ours = specfun.airy_ai(x)
        ref = sp.airy(x)[0]
        assert np.max(np.abs(ours - ref)) < 5e-12
        away = np.abs(ref) > 1e-2
        assert np.max(np.abs(ours - ref)[away] / np.abs(ref)[away]) < 1e-10

    def test_prime_against_scipy(self):
        x = np.linspace(-120.0, 8.0, 2001)
        ours = specfun.airy_ai_prime(x)
        ref = sp.airy(x)[1]
        assert np.max(np.abs(ours - ref)) < 1e-11
        away = np.abs(ref) > 1e-2
        assert np.max(np.abs(ours - ref)[away] / np.abs(ref)[away]) < 1e-9

    def test_zero_seed(self):
        assert specfun.airy_zero_seed(0) == pytest.approx((9 * math.pi / 8) ** (2 / 3), abs=1e-12)
        assert specfun.airy_zero_seed(0) == pytest.approx(2.3203, abs=1e-4)

    def test_first_zero(self):
        r = specfun.airy_zero(0)
        assert r.value == pytest.approx(2.338107, abs=1e-6)
        assert r.residual <= 1e-12

    def test_seed_relative_accuracy_at_20(self):
        seed = specfun.airy_zero_seed(20)
        refined = specfun.airy_zero(20).value
        assert abs(seed - refined) / refined < 1e-4

    def test_zeros_against_scipy(self):
        ref = -sp.ai_zeros(60)[0]
        ours = np.array([specfun.airy_zero(n).value for n in range(60)])
        assert np.max(np.abs(ours - ref)) < 1e-9

    def test_deep_zero(self):
        r = specfun.airy_zero(500)
        assert r.residual <= 1e-12

    def test_residual_invariant_resampled(self):
        for n in range(0, 30, 3):
            r = specfun.airy_zero(n)
            assert abs(specfun.airy_ai(-r.value)) <= 1e-12


    def test_cached_zero_is_the_first_result(self):
        first = specfun.airy_zero(37)
        assert specfun.airy_zero(37) == first
        assert first.residual <= 1e-12

    def test_zero_array_is_the_zero_table(self):
        for count in (1, 7, 61):
            zs = specfun.airy_zeros(count)
            assert zs.shape == (count,)
            assert all(zs[n] == specfun.airy_zero(n).value for n in range(count))
        assert specfun.airy_zeros(0).shape == (0,)

    def test_zero_array_count_range(self):
        assert len(specfun.airy_zeros(specfun.AIRY_ZERO_MAX + 1)) == specfun.AIRY_ZERO_MAX + 1
        for count in (-1, specfun.AIRY_ZERO_MAX + 2):
            with pytest.raises(RangeError):
                specfun.airy_zeros(count)

    def test_oscillatory_expansion_at_its_edge_against_mpmath(self):
        # x = -9 starts the asymptotic branch; y_5 = 9.02 lies just past it
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        y = np.linspace(9.0, 12.0, 31)
        val = [float(mpmath.airyai(-mpmath.mpf(v))) for v in y]
        der = [float(mpmath.airyai(-mpmath.mpf(v), derivative=1)) for v in y]
        assert np.max(np.abs(specfun.airy_ai(-y) - val)) < 1e-14
        assert np.max(np.abs(specfun.airy_ai_prime(-y) - der)) < 1e-14

    def test_zeros_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        ns = [0, 3, 5, 6, 7, 8, 20, 59]
        want = np.array([float(-mpmath.airyaizero(n + 1)) for n in ns])
        assert np.max(np.abs(specfun.airy_zeros(60)[ns] - want)) < 2e-14


class TestIntegrate:
    def test_constant(self):
        assert specfun.integrate(lambda x: 1.0, 0.0, 1.0, 1e-10) == pytest.approx(1.0, abs=1e-12)

    def test_sine_squared(self):
        f = lambda x: math.sin(math.pi * x) ** 2
        assert specfun.integrate(f, 0.0, 1.0, 1e-10) == pytest.approx(0.5, abs=1e-10)

    def test_narrow_gaussian(self):
        mu, sig = 0.5, 0.05
        f = lambda x: math.exp(-0.5 * ((x - mu) / sig) ** 2) / (sig * math.sqrt(2 * math.pi))
        exact = 0.5 * (math.erf((1 - mu) / (sig * math.sqrt(2))) - math.erf(-mu / (sig * math.sqrt(2))))
        assert specfun.integrate(f, 0.0, 1.0, 1e-10) == pytest.approx(exact, abs=1e-8)
        assert exact == pytest.approx(1.0, abs=1e-8)

    def test_oscillatory_against_scipy(self):
        import scipy.integrate as si

        f = lambda x: math.cos(40.0 * x) * math.exp(-x)
        ref = si.quad(f, 0.0, 3.0, epsabs=1e-13)[0]
        assert specfun.integrate(f, 0.0, 3.0, 1e-11) == pytest.approx(ref, abs=1e-10)

    def test_bad_interval(self):
        with pytest.raises(RangeError):
            specfun.integrate(lambda x: x, 1.0, 0.0, 1e-8)

    def test_depth_cap(self):
        # Step discontinuity cannot reach 1e-15 -> must raise, not loop.
        f = lambda x: 0.0 if x < 0.5 else 1.0
        with pytest.raises(QuadratureError):
            specfun.integrate(f, 0.0, 1.0, 1e-15)


class TestRootResult:
    def test_fields(self):
        r = specfun.bessel_zero(3, 2)
        assert r.residual <= 1e-12
        assert r.iterations >= 0
