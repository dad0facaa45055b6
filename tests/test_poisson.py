"""Poissonized statistics and their expectation oracles."""

import math
import threading
import time

import numpy as np
import pytest
from scipy import stats as spstats

from enttest.core import DiscreteDistribution, SampleStream, Sampler, StreamSampler
from enttest.poisson import (
    CountPair,
    NonConvergent,
    batch_t,
    batch_z,
    exact_expected_z,
    expected_log1p_poisson,
    expected_t_closed_form,
    factorial_moment_check,
    poissonized_counts,
    statistic_l2,
    statistic_t,
    statistic_z,
    z_bias_bound,
)


def pair(x, y, m):
    return CountPair(np.asarray(x), np.asarray(y), m)


def _recording(sampler, label, calls):
    """Record (label, thread id) on each of the sampler's count draws."""
    draw = sampler.poisson_counts

    def recorded(m):
        calls.append((label, threading.get_ident()))
        return draw(m)

    sampler.poisson_counts = recorded
    return sampler


class TestPoissonizedCounts:
    def test_budget_validation(self):
        d = DiscreteDistribution.uniform(4)
        with pytest.raises(ValueError):
            poissonized_counts(Sampler(d, 1), Sampler(d, 2), 0)

    def test_domain_declaration_checked(self):
        from enttest.core import DomainMismatch

        d = DiscreteDistribution.uniform(4)
        with pytest.raises(DomainMismatch):
            poissonized_counts(Sampler(d, 1), Sampler(DiscreteDistribution.uniform(5), 2), 10)

    def test_determinism(self):
        d = DiscreteDistribution.zipf(20)
        a = poissonized_counts(Sampler(d, 1), Sampler(d, 2), 500)
        b = poissonized_counts(Sampler(d, 1), Sampler(d, 2), 500)
        assert np.array_equal(a.x_counts, b.x_counts)
        assert np.array_equal(a.y_counts, b.y_counts)

    def test_poissonized_draw_replay(self):
        d = DiscreteDistribution.zipf(12)
        a = SampleStream.poisson_counts(Sampler(d, 33), 200)
        b = SampleStream.poisson_counts(Sampler(d, 33), 200)
        assert np.array_equal(a, b)
        # the literal draw tabulates N ~ Poi(200) samples, N drawn first
        assert a.shape == (12,) and a.sum() == np.random.default_rng(33).poisson(200)

    def test_point_mass_counts(self):
        d = DiscreteDistribution.point_mass(5, 2)
        c = poissonized_counts(Sampler(d, 1), Sampler(d, 2), 100)
        assert c.x_counts[2] == c.x_total
        assert c.y_counts[2] == c.y_total

    def test_totals_are_not_parameters(self):
        with pytest.raises(TypeError):
            CountPair(np.ones(3, dtype=np.int64), np.ones(3, dtype=np.int64), 3, x_total=5)

    def test_poisson_mean_concentration(self):
        # uniform(2), m = 1e6: the mean of X_1 over 200 draws is within
        # 3 sigma of 5e5
        d = DiscreteDistribution.uniform(2)
        s = Sampler(d, 3)
        xs = np.array([s.poisson_counts(10**6)[0] for _ in range(200)])
        assert abs(xs.mean() - 5e5) <= 3 * math.sqrt(5e5 / 200)

    def test_direct_and_stream_agree_in_law(self):
        # identical marginal law for the fast path and the literal
        # draw-then-tabulate path
        d = DiscreteDistribution([0.6, 0.3, 0.1])
        m, reps = 60, 3000
        direct = np.array([Sampler(d, 10 + t).poisson_counts(m) for t in range(reps)])
        streamed = np.array([SampleStream.poisson_counts(Sampler(d, 20000 + t), m) for t in range(reps)])
        for i in range(3):
            lam = m * d.probs[i]
            se = math.sqrt(lam / reps)
            assert abs(direct[:, i].mean() - lam) <= 4.5 * se
            assert abs(streamed[:, i].mean() - lam) <= 4.5 * se
            # two-sample KS on the count distribution
            ks = spstats.ks_2samp(direct[:, i], streamed[:, i])
            assert ks.pvalue > 1e-4

    def test_independence_across_elements(self):
        # Poissonization decorrelates counts: empirical correlations are
        # within 4 stderr of zero
        d = DiscreteDistribution([0.4, 0.35, 0.25])
        reps = 10**5
        rng = np.random.default_rng(9)
        counts = rng.poisson(30 * d.probs, size=(reps, 3))
        for i in range(3):
            for j in range(i + 1, 3):
                r = np.corrcoef(counts[:, i], counts[:, j])[0, 1]
                assert abs(r) <= 4 / math.sqrt(reps)

    def test_numpy_poisson_matches_cdf_oracle(self):
        # validates the library Poisson sampler (inversion / PTRS regimes)
        # against the truncated-series CDF
        rng = np.random.default_rng(10)
        for lam in (0.5, 8.0, 25.0, 200.0):
            reps = 200_000
            draws = rng.poisson(lam, size=reps)
            for q in (0.25, 0.5, 0.9):
                k = int(spstats.poisson.ppf(q, lam))
                pmf = math.exp(-lam)
                cdf, j = 0.0, 0
                p = pmf
                while j <= k:
                    cdf += p
                    j += 1
                    p *= lam / j
                emp = (draws <= k).mean()
                se = math.sqrt(cdf * (1 - cdf) / reps)
                assert abs(emp - cdf) <= 5 * se + 1e-9

    def test_exact_pairs_draw_x_then_y_on_the_calling_thread(self):
        n, m = 2**16, 3 * 2**16
        p, q = DiscreteDistribution.zipf(n), DiscreteDistribution.uniform(n)
        calls = []
        sp, sq = _recording(Sampler(p, 1), "x", calls), _recording(Sampler(q, 2), "y", calls)
        pair = poissonized_counts(sp, sq, m)
        assert np.array_equal(pair.x_counts, Sampler(p, 1).poisson_counts(m))
        assert np.array_equal(pair.y_counts, Sampler(q, 2).poisson_counts(m))
        assert calls == [("x", threading.get_ident()), ("y", threading.get_ident())]

    def test_shared_generator_keeps_serial_order(self):
        # two Samplers over one Generator: x's variates first, then y's
        n, m = 2**14, 3 * 2**14
        p, q = DiscreteDistribution.zipf(n), DiscreteDistribution.uniform(n)
        gen = np.random.default_rng(7)
        calls = []
        sp, sq = _recording(Sampler(p, gen), "x", calls), _recording(Sampler(q, gen), "y", calls)
        pair = poissonized_counts(sp, sq, m)
        ref = np.random.default_rng(7)
        assert np.array_equal(pair.x_counts, Sampler(p, ref).poisson_counts(m))
        assert np.array_equal(pair.y_counts, Sampler(q, ref).poisson_counts(m))
        assert calls == [("x", threading.get_ident()), ("y", threading.get_ident())]

    def test_stream_pools_keep_serial_order(self):
        n, m = 2**14, 2**12
        rng = np.random.default_rng(8)
        pools = rng.integers(0, n, size=(2, 4 * m))
        calls = []
        sp = _recording(StreamSampler(pools[0], n, rng_seed=9), "x", calls)
        sq = _recording(StreamSampler(pools[1], n, rng_seed=10), "y", calls)
        pair = poissonized_counts(sp, sq, m)
        rx, ry = StreamSampler(pools[0], n, rng_seed=9), StreamSampler(pools[1], n, rng_seed=10)
        assert np.array_equal(pair.x_counts, rx.poisson_counts(m))
        assert np.array_equal(pair.y_counts, ry.poisson_counts(m))
        assert calls == [("x", threading.get_ident()), ("y", threading.get_ident())]


class TestStatisticT:
    def test_balanced_counts_cancel(self):
        assert statistic_t(pair([3, 1], [1, 3], 10)) == pytest.approx(0.0)

    def test_pinned_value(self):
        assert statistic_t(pair([5, 1], [1, 5], 10)) == pytest.approx(10 / 3, abs=1e-12)

    def test_all_zero(self):
        assert statistic_t(pair([0, 0], [0, 0], 10)) == 0.0

    def test_subset_restriction(self):
        c = pair([5, 1, 7], [1, 5, 7], 10)
        assert statistic_t(c, np.array([0, 1])) == pytest.approx(10 / 3, abs=1e-12)
        assert statistic_t(c, np.array([True, True, False])) == pytest.approx(10 / 3, abs=1e-12)

    def test_null_mean_zero(self):
        # E[T] = 0 when p = q: empirical mean within 4 stderr over 1e5 reps
        rng = np.random.default_rng(21)
        p = DiscreteDistribution.zipf(30)
        reps = 10**5
        x = rng.poisson(80 * p.probs, size=(reps, 30))
        y = rng.poisson(80 * p.probs, size=(reps, 30))
        t = batch_t(x, y)
        assert abs(t.mean()) <= 4 * t.std(ddof=1) / math.sqrt(reps)


class TestStatisticZ:
    def test_equal_counts(self):
        assert statistic_z(pair([4, 7], [4, 7], 10)) == 0.0

    def test_pinned_value(self):
        assert statistic_z(pair([6], [2], 10)) == pytest.approx(0.4 * math.log(1 / 8), abs=1e-9)
        assert statistic_z(pair([6], [2], 10)) == pytest.approx(-0.831777, abs=1e-6)

    def test_antisymmetric_cancellation(self):
        assert statistic_z(pair([4, 2], [2, 4], 10)) == pytest.approx(0.0, abs=1e-12)


def _masked_t(x, y):
    # reference: the two-pass np.where forms of T and Z
    j = x + y
    d = (x - y).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(j > 0, (d * d - j) / np.where(j > 0, j, 1), 0.0).sum(axis=-1)


def _masked_z(x, y, m):
    j = x + y
    d = (x - y).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(j > 0, -d * np.log(np.where(j > 0, j, 1)), 0.0).sum(axis=-1) / m


class TestBatchKernels:
    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_bit_identical_to_masked_form(self, dtype):
        # sparse and dense rows, int counts (oracle suite) and float counts
        # (Bayes-net marginals), on a 3-D (subset, block, cell) stack
        rng = np.random.default_rng(31)
        for lam in (0.05, 0.7, 4.0, 60.0):
            x = rng.poisson(lam, size=(7, 5, 16)).astype(dtype)
            y = rng.poisson(lam, size=(7, 5, 16)).astype(dtype)
            # an all-zero row and j = 0 cells at every lam: the in-place
            # divide and log must leave their terms at 0
            x[0, 0] = y[0, 0] = 0
            x[1, 2, :3] = y[1, 2, :3] = 0
            assert batch_t(x, y).tobytes() == _masked_t(x, y).tobytes()
            assert np.array_equal(batch_z(x, y, 13.5), _masked_z(x, y, 13.5))

    def test_rows_match_one_dimensional_statistics(self):
        rng = np.random.default_rng(32)
        x = rng.poisson(1.5, size=(40, 12))
        y = rng.poisson(1.5, size=(40, 12))
        x[0] = y[0] = 0  # an all-zero row scores 0
        t, z = batch_t(x, y), batch_z(x, y, 25)
        assert t.shape == z.shape == (40,)
        assert t[0] == 0.0 and z[0] == 0.0
        for i in range(40):
            c = pair(x[i], y[i], 25)
            assert t[i] == pytest.approx(statistic_t(c), rel=1e-12, abs=1e-12)
            assert z[i] == pytest.approx(statistic_z(c), rel=1e-12, abs=1e-12)


class TestStatisticL2:
    def test_direct_arithmetic(self):
        assert statistic_l2(pair([5, 1], [1, 5], 10)) == 20.0
        assert statistic_l2(pair([0, 0], [0, 0], 10)) == 0.0

    def test_unbiased_for_l2_distance(self):
        p = DiscreteDistribution([0.7, 0.3])
        q = DiscreteDistribution([0.3, 0.7])
        rng = np.random.default_rng(31)
        m, reps = 200, 20000
        x = rng.poisson(m * p.probs, size=(reps, 2))
        y = rng.poisson(m * q.probs, size=(reps, 2))
        d = (x - y).astype(float)
        vals = (d * d - x - y).sum(axis=1) / m**2
        truth = float(((p.probs - q.probs) ** 2).sum())
        assert abs(vals.mean() - truth) <= 4 * vals.std(ddof=1) / math.sqrt(reps)


def _compacted_t(x, y):
    # reference: the compact-then-convert forms of T, Z and l2
    j = x + y
    nz = j > 0
    d = (x[nz] - y[nz]).astype(np.float64)
    jn = j[nz].astype(np.float64)
    return float(((d * d - jn) / jn).sum())


def _compacted_z(x, y, m):
    j = x + y
    nz = j > 0
    d = (x[nz] - y[nz]).astype(np.float64)
    return float(-(d * np.log(j[nz])).sum() / m)


def _compacted_l2(x, y):
    d = (x - y).astype(np.float64)
    return float((d * d - x - y).sum())


class TestInPlaceKernels:
    @pytest.mark.parametrize("n", [1, 5, 2**10, 2**14])
    def test_bit_identical_to_compacted_form(self, n):
        # sparse to dense counts, unrestricted and on bool masks and index
        # arrays: the in-place kernels keep every term and its order
        rng = np.random.default_rng(n)
        for lam in (0.05, 0.7, 4.0, 60.0, 650.0):
            x = rng.poisson(lam, n)
            y = rng.poisson(lam * rng.uniform(0.5, 1.5, n))
            c = pair(x, y, 97)
            assert statistic_l2(c) == _compacted_l2(x, y)
            mask = rng.random(n) < 0.5
            for s_set in (None, mask, np.flatnonzero(mask)):
                xs, ys = (x, y) if s_set is None else (x[s_set], y[s_set])
                assert statistic_t(c, s_set) == _compacted_t(xs, ys)
                assert statistic_z(c, s_set) == _compacted_z(xs, ys, 97)

    def test_blocks_equal_one_pass(self):
        # 3B + 5 cells: three full blocks and a short one, with zero cells
        # in some blocks only (at block edges) or in all of them
        from enttest.core import _BLOCK as B

        n = 3 * B + 5
        rng = np.random.default_rng(17)
        dense = rng.poisson(150.0, (2, n)) + 1
        dense[:, [B - 1, B, 2 * B + 7, n - 1]] = 0
        for x, y in (dense, rng.poisson(0.3, (2, n))):
            c = pair(x, y, 97)
            mask = rng.random(n) < 0.7
            for s_set in (None, mask, np.flatnonzero(mask)):
                xs, ys = (x, y) if s_set is None else (x[s_set], y[s_set])
                assert statistic_t(c, s_set) == _compacted_t(xs, ys)
                assert statistic_z(c, s_set) == _compacted_z(xs, ys, 97)

    def test_counts_are_not_written(self):
        x, y = np.array([3, 0, 5]), np.array([1, 0, 5])
        c = pair(x, y, 10)
        statistic_t(c), statistic_z(c), statistic_l2(c)
        assert x.tolist() == [3, 0, 5] and y.tolist() == [1, 0, 5]


class TestExpectedTClosedForm:
    def test_equal_distributions(self):
        p = DiscreteDistribution.zipf(6)
        assert expected_t_closed_form(p, p, 100) == 0.0

    def test_pinned_disjoint_value(self):
        p = DiscreteDistribution([1.0, 0.0])
        q = DiscreteDistribution([0.0, 1.0])
        v = expected_t_closed_form(p, q, 10)
        assert v == pytest.approx(2 * (10 - 1 + math.exp(-10)), abs=1e-9)
        assert v == pytest.approx(18.0001, abs=1e-4)

    def test_zero_budget(self):
        p = DiscreteDistribution([1.0, 0.0])
        q = DiscreteDistribution([0.0, 1.0])
        assert expected_t_closed_form(p, q, 0) == pytest.approx(0.0, abs=1e-12)

    def test_against_monte_carlo(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            n = int(rng.integers(2, 51))
            p = DiscreteDistribution.random_dense(n, rng)
            q = DiscreteDistribution.random_dense(n, rng)
            s = int(rng.integers(10, 300))
            reps = 4000
            x = rng.poisson(s * p.probs, size=(reps, n))
            y = rng.poisson(s * q.probs, size=(reps, n))
            j = x + y
            d = (x - y).astype(float)
            with np.errstate(divide="ignore", invalid="ignore"):
                t = np.where(j > 0, (d * d - j) / np.where(j > 0, j, 1), 0.0).sum(axis=1)
            se = t.std(ddof=1) / math.sqrt(reps)
            assert abs(t.mean() - expected_t_closed_form(p, q, s)) <= 4 * se


class TestExactExpectedZ:
    def test_equal_distributions(self):
        p = DiscreteDistribution.uniform(4)
        assert exact_expected_z(p, p, 50) == 0.0

    def test_zero_mass(self):
        p = DiscreteDistribution([1.0, 0.0])
        q = DiscreteDistribution([1.0, 0.0])
        assert exact_expected_z(p, q, 50) == 0.0

    def test_series_vs_monte_carlo(self):
        p = DiscreteDistribution([0.7, 0.3])
        q = DiscreteDistribution([0.3, 0.7])
        m = 50
        exact = exact_expected_z(p, q, m, tail_tol=1e-12)
        rng = np.random.default_rng(51)
        reps = 10**7
        z_sum = 0.0
        z_sq = 0.0
        chunk = 10**6
        done = 0
        while done < reps:
            k = min(chunk, reps - done)
            x = rng.poisson(m * p.probs, size=(k, 2))
            y = rng.poisson(m * q.probs, size=(k, 2))
            j = x + y
            d = (x - y).astype(float)
            with np.errstate(divide="ignore", invalid="ignore"):
                z = np.where(j > 0, -d * np.log(np.where(j > 0, j, 1)), 0.0).sum(axis=1) / m
            z_sum += z.sum()
            z_sq += (z * z).sum()
            done += k
        mean = z_sum / reps
        var = z_sq / reps - mean**2
        se = math.sqrt(var / reps)
        assert abs(mean - exact) <= 3 * se

    def test_series_helper_small_lambda(self):
        # E[log(J+1)] at lambda=0 is log(1) = 0
        assert expected_log1p_poisson(0.0) == 0.0
        # brute-force cross-check at moderate lambda
        lam = 3.7
        brute = sum(
            math.exp(-lam + j * math.log(lam) - math.lgamma(j + 1)) * math.log(j + 1)
            for j in range(200)
        )
        assert expected_log1p_poisson(lam, 1e-13) == pytest.approx(brute, abs=1e-12)

    def test_huge_lambda_converges(self):
        v = expected_log1p_poisson(5e4, 1e-10)
        # concentration: E[log(J+1)] ~ log(lambda) for large lambda
        assert abs(v - math.log(5e4)) < 0.01

    @pytest.mark.parametrize("lam", [5e5, 1e6, 1e7])
    def test_very_large_lambda_total(self, lam):
        start = time.perf_counter()
        v = expected_log1p_poisson(lam)
        elapsed = time.perf_counter() - start
        assert math.isfinite(v)
        # delta method; the next terms are O(1/lambda^2)
        assert v == pytest.approx(math.log(lam + 1) - lam / (2 * (lam + 1) ** 2), abs=1e-9)
        assert elapsed < 1.0

    @pytest.mark.parametrize("lam", [712.0, 730.0, 744.5])
    def test_subnormal_zero_term(self, lam):
        # exp(-lambda) is subnormal above 708.4; the brute force works in log space
        brute = sum(
            math.exp(-lam + j * math.log(lam) - math.lgamma(j + 1)) * math.log(j + 1)
            for j in range(3000)
        )
        assert expected_log1p_poisson(lam, 1e-13) == pytest.approx(brute, abs=1e-10)

    def test_nonfinite_lambda_rejected(self):
        for lam in (math.inf, math.nan, -1.0):
            with pytest.raises(ValueError):
                expected_log1p_poisson(lam)

    def test_nonconvergent_guard(self):
        with pytest.raises((NonConvergent, ValueError)):
            expected_log1p_poisson(1.0, 0.0)


class TestBiasBound:
    def test_deterministic_bias_bound(self):
        # |sum (p-q) log(1/(m(p+q))) - E[Z]| <= sum |p-q|/(m(p+q)),
        # checked with the truncated-series oracle: zero violations
        rng = np.random.default_rng(61)
        for _ in range(50):
            n = int(rng.integers(2, 21))
            p = DiscreteDistribution.random_dense(n, rng)
            q = DiscreteDistribution.random_dense(n, rng)
            m = int(rng.integers(5, 201))
            target, bound = z_bias_bound(p, q, m)
            ez = exact_expected_z(p, q, m, tail_tol=1e-13)
            assert abs(target - ez) <= bound + 1e-12


class TestVarianceBound:
    def test_t_variance_bound(self):
        # Var[T] <= 2 min(n, s) + 5 s sum (p-q)^2/(p+q), checked by Monte
        # Carlo with a 10% allowance for sample-variance noise (the bound
        # is tight for p = q at large per-element rates)
        rng = np.random.default_rng(81)
        for _ in range(10):
            n = int(rng.integers(2, 40))
            p = DiscreteDistribution.random_dense(n, rng)
            q = DiscreteDistribution.random_dense(n, rng) if rng.random() < 0.5 else p
            s = int(rng.integers(20, 400))
            reps = 50_000
            x = rng.poisson(s * p.probs, size=(reps, n))
            y = rng.poisson(s * q.probs, size=(reps, n))
            t = batch_t(x, y)
            tot = p.probs + q.probs
            nz = tot > 0
            bound = 2 * min(n, s) + 5 * s * float(
                ((p.probs[nz] - q.probs[nz]) ** 2 / tot[nz]).sum()
            )
            assert t.var(ddof=1) <= 1.1 * bound

    def test_z_variance_at_frozen_constant(self):
        # Var[Z] <= 16 (log^2 m ||p-q||_2^2 + log^2 m / m)
        rng = np.random.default_rng(71)
        for _ in range(20):
            n = int(rng.integers(2, 21))
            p = DiscreteDistribution.random_dense(n, rng)
            q = DiscreteDistribution.random_dense(n, rng) if rng.random() < 0.5 else p
            m = int(rng.integers(10, 201))
            reps = 10**5
            x = rng.poisson(m * p.probs, size=(reps, n))
            y = rng.poisson(m * q.probs, size=(reps, n))
            z = batch_z(x, y, m)
            log_m = math.log(m)
            bound = 16 * (log_m**2 * float(((p.probs - q.probs) ** 2).sum()) + log_m**2 / m)
            assert z.var(ddof=1) <= bound


class TestFactorialMoment:
    def test_order_zero(self):
        res = factorial_moment_check(2.0, 0, lambda x: np.log1p(x), 10**5, seed=1)
        assert abs(res.lhs_mc - res.rhs_mc) <= 4 * res.stderr

    def test_constant_function_moments(self):
        # E[(X)_2] = lambda^2 with f = 1
        res = factorial_moment_check(3.0, 2, lambda x: np.ones_like(x), 10**6, seed=2)
        assert res.lhs_mc == pytest.approx(9.0, abs=0.15)
        assert res.rhs_mc == pytest.approx(9.0, abs=1e-9)

    def test_log1p_identity(self):
        res = factorial_moment_check(2.0, 1, lambda x: np.log1p(x), 10**6, seed=3)
        assert abs(res.lhs_mc - res.rhs_mc) <= 3 * res.stderr

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            factorial_moment_check(-1.0, 1, lambda x: x, 100)
        with pytest.raises(ValueError):
            factorial_moment_check(1.0, -1, lambda x: x, 100)
