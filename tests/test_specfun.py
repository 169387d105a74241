"""Special-function backbone checked against scipy as an independent oracle."""

import math

import numpy as np
import pytest
import scipy.special as sp

from revival import specfun
from revival.errors import RangeError, RootError


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
    # for the fixed term count of specfun._hankel_pq
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
    def test_fixed_term_count_matches_array_rule_bitwise(self, m):
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
        # one array spans the expansion's whole range
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
        good = specfun._scan_zero_batch
        shifted = lambda orders, counts: [[(v + 1e-6, i) for v, i in pairs] for pairs in good(orders, counts)]
        monkeypatch.setattr(specfun, "_scan_zero_batch", shifted)
        with pytest.raises(RootError):
            specfun.bessel_zeros(3, 5)
        assert specfun._bessel_zero_cache.get(3, []) == []
        monkeypatch.setattr(specfun, "_scan_zero_batch", good)
        assert specfun.bessel_zeros(3, 5) == pytest.approx(sp.jn_zeros(3, 5), rel=1e-12)


def _kernel_arrays(m, rng):
    # one order's arguments: both sides of the 1e-12 floor and of z = m,
    # spreads below 12, and Hankel-range arguments from a per-order floor
    # (some orders straddle the z = 12 split, others start far above it)
    low = 12.0 + 7.0 * (m % 9)
    return np.concatenate([
        [0.0, 1e-13, 1e-12, 2e-12],
        [11.999999999, 12.0, 12.000000001] if m % 9 == 0 else [low],
        [max(m - 1e-9, 0.0), float(m), m + 1e-9] if m > 0 else [],
        rng.uniform(max(m - 4.0, 0.0), m + 4.0, 24),
        rng.uniform(0.0, 12.0, 12),
        rng.uniform(low, 2000.0, 24),
    ])


class TestOrderBatchedKernel:
    ORDERS = range(61)

    def test_mixed_orders_equal_single_order_calls_bitwise(self):
        rng = np.random.default_rng(8)
        per_order = {m: _kernel_arrays(m, rng) for m in self.ORDERS}
        orders = np.concatenate([np.full(len(z), m) for m, z in per_order.items()])
        z = np.concatenate(list(per_order.values()))
        mix = rng.permutation(len(z))  # interleave the orders
        j = np.empty_like(z)
        j[mix] = specfun._bessel_batch(orders[mix], z[mix])
        pos = z > 0
        y = np.empty_like(z)
        with np.errstate(over="ignore", invalid="ignore"):  # Y_60 near 0 overflows
            y[mix[pos[mix]]] = specfun._bessel_batch(orders[mix][pos[mix]], z[mix][pos[mix]], "y")
            start = 0
            for m, zm in per_order.items():
                part = slice(start, start + len(zm))
                assert np.array_equal(j[part], specfun.bessel_j(m, zm))
                ym = specfun._bessel_y(m, zm[zm > 0])
                assert np.array_equal(y[part][zm > 0], ym, equal_nan=True)
                start += len(zm)

    def test_range_errors(self):
        with pytest.raises(RangeError):
            specfun._bessel_batch(np.array([61]), np.array([1.0]))
        with pytest.raises(RangeError):
            specfun._bessel_batch(np.array([2]), np.array([2001.0]))
        with pytest.raises(RangeError):
            specfun._bessel_batch(np.array([2]), np.array([0.0]), "y")


def _step_rule_newton(f, fp, lo, hi, x0, tol=1e-13, cap=90):
    """Newton with the step-size stop alone (no noise-floor stop): the
    oracle for every root that converges under that rule."""
    lo, hi = lo.copy(), hi.copy()
    x = np.clip(x0, lo, hi)
    slo = np.sign(f(lo))
    iters = np.zeros(len(x), dtype=int)
    settled = np.zeros(len(x), dtype=bool)
    for _ in range(cap):
        fx = f(x)
        same = np.sign(fx) == slo
        lo, hi = np.where(same, x, lo), np.where(same, hi, x)
        raw = x - fx / fp(x)
        done = (np.abs(fx) <= tol) & (np.abs(raw - x) <= 1e-14 * np.maximum(1.0, np.abs(x)))
        bad = (raw < lo) | (raw > hi)
        iters += ~settled
        settled |= done
        x = np.where(done, x, np.where(bad, 0.5 * (lo + hi), raw))
        if np.all(done):
            break
    return x, np.where(settled, iters, cap)


class TestNewtonStopRule:
    def test_every_zero_below_31_settles_within_16_iterations(self, monkeypatch):
        # J_0 zero 3 (11.79) and J_2 zero 2 (11.62) sit in the J series'
        # ~1e-13 cancellation noise just below z = 12; under the step rule
        # alone they ran to the 90-iteration cap
        monkeypatch.setattr(specfun, "_bessel_zero_cache", {})
        zeros = specfun.bessel_zeros_batch(range(61), 31)
        for m in range(61):
            table = specfun._bessel_zero_cache[m]
            assert max(r.iterations for r in table) <= 16
            ref = sp.jn_zeros(m, 31)
            assert np.max(np.abs(zeros[m] - ref) / ref) < 1e-12
        assert specfun._bessel_zero_cache[0][3].iterations <= 16
        assert specfun._bessel_zero_cache[2][2].iterations <= 16

    @pytest.mark.parametrize("order", [0, 2, 6, 7, 16, 33, 60])
    def test_zeros_converging_under_the_step_rule_keep_their_bits(self, order, monkeypatch):
        monkeypatch.setattr(specfun, "_bessel_zero_cache", {})
        got = specfun.bessel_zeros(order, 31)
        start = order + 0.1 if order > 0 else 0.25
        grid = np.arange(start, specfun.bessel_zero_seed(order, 32) + 4.0, 1.2)
        vals = specfun.bessel_j(order, grid)
        flips = np.flatnonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))[:31]
        seeds = np.array([specfun.bessel_zero_seed(order, k) for k in range(31)])
        want, iters = _step_rule_newton(
            lambda x: specfun.bessel_j(order, x), lambda x: specfun.bessel_j_prime(order, x),
            grid[flips], grid[flips + 1], seeds,
        )
        converged = iters < 90
        assert np.count_nonzero(~converged) == {0: 1, 2: 1}.get(order, 0)
        assert np.array_equal(got[converged], want[converged])

    def test_airy_table_unchanged_by_the_noise_floor_stop(self, monkeypatch):
        monkeypatch.setattr(specfun, "_airy_zero_cache", [])
        got = specfun.airy_zeros(501)
        ks = np.arange(501)
        seeds = np.array([specfun.airy_zero_seed(int(k)) for k in ks])
        below = np.array([specfun.airy_zero_seed(int(k) - 1) if k > 0 else 0.0 for k in ks])
        above = np.array([specfun.airy_zero_seed(int(k) + 1) for k in ks])
        lo = np.where(ks > 0, 0.5 * (below + seeds), 0.4 * seeds)
        hi = 0.5 * (seeds + above)
        want, iters = _step_rule_newton(
            lambda y: specfun.airy_ai(-y), lambda y: -specfun.airy_ai_prime(-y), lo, hi, seeds
        )
        assert np.max(iters) <= 3
        assert np.array_equal(got, want)


class TestBatchedZeroTables:
    def test_batch_equals_per_order_tables_bitwise(self, monkeypatch):
        monkeypatch.setattr(specfun, "_bessel_zero_cache", {})
        batch = specfun.bessel_zeros_batch(range(17), 31)
        batch_iters = [[r.iterations for r in specfun._bessel_zero_cache[m]] for m in range(17)]
        monkeypatch.setattr(specfun, "_bessel_zero_cache", {})
        for m in range(17):
            assert specfun.bessel_zeros(m, 31).tolist() == batch[m].tolist()
            assert [r.iterations for r in specfun._bessel_zero_cache[m]] == batch_iters[m]

    def test_mixed_cache_states_and_repeated_orders(self, monkeypatch):
        monkeypatch.setattr(specfun, "_bessel_zero_cache", {})
        specfun.bessel_zeros(3, 40)  # one order already deep, one short
        specfun.bessel_zeros(5, 4)
        got = specfun.bessel_zeros_batch([5, 3, 0, 5], 20)
        assert got.shape == (4, 20)
        for row, m in zip(got, [5, 3, 0, 5]):
            assert np.max(np.abs(row - sp.jn_zeros(m, 20)) / sp.jn_zeros(m, 20)) < 1e-12
        assert len(specfun._bessel_zero_cache[3]) == 40
        assert specfun.bessel_zeros_batch([], 5).shape == (0, 5)

    def test_range_errors(self, monkeypatch):
        monkeypatch.setattr(specfun, "_bessel_zero_cache", {})
        with pytest.raises(RangeError):
            specfun.bessel_zeros_batch([0, 61], 3)
        with pytest.raises(RangeError):
            specfun.bessel_zeros_batch([0, 1], 202)
        assert specfun._bessel_zero_cache == {}

    def test_bad_batch_raises_and_caches_nothing(self, monkeypatch):
        monkeypatch.setattr(specfun, "_bessel_zero_cache", {})
        good = specfun._scan_zero_batch

        def shifted(orders, counts):
            found = good(orders, counts)
            found[1] = [(v + 1e-6, i) for v, i in found[1]]
            return found

        monkeypatch.setattr(specfun, "_scan_zero_batch", shifted)
        with pytest.raises(RootError, match="zero 0 of J_4"):
            specfun.bessel_zeros_batch([2, 4, 6], 5)
        assert specfun._bessel_zero_cache == {}


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

    @pytest.mark.parametrize("lo, hi", [(-9.0, -3.0), (-3.0, 0.0), (0.0, 3.0), (3.0, 5.7), (5.7, 12.0)])
    def test_march_against_scipy_dense(self, lo, hi):
        # the Taylor march from x = 12 covers [-9, 12): Ai, Ai' and the scaled
        # Ai within 1e-13 of their local envelope, which is the modulus
        # sqrt(Ai^2 + Bi^2) (sqrt(Ai'^2 + Bi'^2)) on the oscillatory side
        # and the function itself above 0. Most of what remains on [0, 3)
        # is scipy's own error (1.5e-14 there against mpmath).
        x = np.linspace(lo, hi, 12001)[:-1]
        ai, aip, bi, bip = sp.airy(x)
        neg = x < 0
        scaled = np.where(neg, ai, sp.airye(np.maximum(x, 0.0))[0])
        env = np.where(neg, np.hypot(ai, bi), np.abs(ai))
        env_prime = np.where(neg, np.hypot(aip, bip), np.abs(aip))
        assert np.max(np.abs(specfun.airy_ai(x) - ai) / env) < 1e-13
        assert np.max(np.abs(specfun.airy_ai_prime(x) - aip) / env_prime) < 1e-13
        assert np.max(np.abs(specfun.airy_ai_scaled(x) - scaled) / np.where(neg, env, scaled)) < 1e-13

    def test_scaled_against_scipy(self):
        # Ai(x) e^{(2/3) x^{3/2}} is scipy's airye for x > 0; the relative
        # error is Ai's own
        x = np.linspace(0.0, 1e3, 20001)
        ref = sp.airye(x)[0]
        assert np.max(np.abs(specfun.airy_ai_scaled(x) / ref - 1.0)) < 1e-13
        far = np.geomspace(12.0, 1e5, 400)  # Ai itself underflows past x ~ 105
        assert np.max(np.abs(specfun.airy_ai_scaled(far) / sp.airye(far)[0] - 1.0)) < 1e-14
        # past scipy's range: the leading asymptotic term, off by 5/(72 zeta)
        lead = 1.0 / (2.0 * math.sqrt(math.pi) * 1e8**0.25)
        assert specfun.airy_ai_scaled(1e8) == pytest.approx(lead, rel=1e-12)
        assert specfun.airy_ai(1e8) == 0.0

    def test_scaled_is_ai_on_the_negative_axis(self):
        x = np.linspace(-170.0, 0.0, 3001)
        assert np.array_equal(specfun.airy_ai_scaled(x), specfun.airy_ai(x))
        assert isinstance(specfun.airy_ai_scaled(-2.0), float)
        assert specfun.airy_ai_scaled(-2.0) == specfun.airy_ai(-2.0)

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


class TestRootResult:
    def test_fields(self):
        r = specfun.bessel_zero(3, 2)
        assert r.residual <= 1e-12
        assert r.iterations >= 0
