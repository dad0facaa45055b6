"""Distribution, functional, and sampler tests."""

import math

import numpy as np
import pytest

from enttest.core import (
    BudgetExhausted,
    DiscreteDistribution,
    DistributionError,
    DomainMismatch,
    FairMixSampler,
    InvalidEpsilon,
    MassFloorSampler,
    Sampler,
    StreamSampler,
    conditional_rejection_sample,
    divergences,
    entropy,
    fair_mix,
    lambda_term,
    load_distribution,
    mass_floor_eta,
    mass_floor_mix,
    mix_sample,
    save_distribution,
    triangle_discrepancy,
)


class TestDiscreteDistribution:
    def test_validation(self):
        with pytest.raises(DistributionError):
            DiscreteDistribution([0.5, 0.6])
        with pytest.raises(DistributionError):
            DiscreteDistribution([-0.1, 1.1])
        with pytest.raises(DistributionError):
            DiscreteDistribution([])

    def test_silent_renormalization_below_tolerance(self):
        v = np.full(4, 0.25)
        v[0] += 2e-13
        d = DiscreteDistribution(v)
        assert abs(d.probs.sum() - 1.0) < 1e-15

    def test_immutable(self):
        d = DiscreteDistribution.uniform(4)
        with pytest.raises(AttributeError):
            d.probs = np.ones(4)
        assert not d.probs.flags.writeable

    def test_callers_array_stays_writeable(self):
        a = np.array([0.5, 0.5])
        d = DiscreteDistribution(a)
        assert a.flags.writeable
        assert np.array_equal(d.probs, a)
        a[0] = 0.9
        assert d.probs[0] == 0.5

    def test_mass_and_conditional(self):
        d = DiscreteDistribution([0.1, 0.2, 0.3, 0.4])
        assert d.mass([1, 3]) == pytest.approx(0.6)
        child = Sampler(d, 0).conditional_sampler(np.array([False, False, True, True]))
        assert child.probs == pytest.approx([3 / 7, 4 / 7])
        with pytest.raises(DistributionError):
            Sampler(DiscreteDistribution([1.0, 0.0]), 0).conditional_sampler(np.array([False, True]))

    def test_file_roundtrip(self, tmp_path):
        d = DiscreteDistribution.zipf(17)
        path = tmp_path / "d.dist"
        save_distribution(d, path)
        back = load_distribution(path)
        assert np.array_equal(back.probs, d.probs)
        assert open(path).readline().strip() == "n=17"


class TestEntropy:
    def test_uniform(self):
        assert entropy(DiscreteDistribution.uniform(4)) == pytest.approx(math.log(4), abs=1e-12)

    def test_point_mass(self):
        assert entropy(DiscreteDistribution.point_mass(8, 3)) == 0.0

    def test_half_support_gap(self):
        p = DiscreteDistribution([0.5, 0.5, 0.0, 0.0])
        q = DiscreteDistribution.uniform(4)
        assert entropy(q) - entropy(p) == pytest.approx(math.log(2), abs=1e-12)


class TestDivergences:
    def test_identical(self):
        p = DiscreteDistribution.zipf(9)
        d = divergences(p, p)
        assert (d.tv, d.hellinger_sq, d.kl, d.chi_sq, d.l2_sq) == (0, 0, 0, 0, 0)

    def test_disjoint(self):
        d = divergences(DiscreteDistribution([1, 0]), DiscreteDistribution([0, 1]))
        assert d.tv == 1.0
        assert d.hellinger_sq == pytest.approx(1.0)
        assert d.kl == math.inf
        assert d.chi_sq == math.inf

    def test_skewed_pair_direct_evaluation(self):
        d = divergences(DiscreteDistribution([0.75, 0.25]), DiscreteDistribution([0.25, 0.75]))
        assert d.tv == pytest.approx(0.5, abs=1e-12)
        assert d.l2_sq == pytest.approx(0.5, abs=1e-12)

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatch):
            divergences(DiscreteDistribution.uniform(3), DiscreteDistribution.uniform(4))

    def test_inequality_chain_random_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(2, 40))
            p = DiscreteDistribution.random_dense(n, rng)
            q = DiscreteDistribution.random_dense(n, rng)
            d = divergences(p, q)
            assert d.tv <= math.sqrt(2 * d.hellinger_sq) + 1e-12
            assert d.hellinger_sq <= d.tv + 1e-12
            assert d.tv <= math.sqrt(d.chi_sq) + 1e-12
            assert d.kl <= d.chi_sq + 1e-12
            assert d.tv <= math.sqrt(d.kl / 2) + 1e-12

    def test_triangle_bracket(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            n = int(rng.integers(2, 30))
            p = DiscreteDistribution.random_dense(n, rng)
            q = DiscreteDistribution.random_dense(n, rng)
            tri = triangle_discrepancy(p, q)
            h2 = divergences(p, q).hellinger_sq
            assert h2 - 1e-12 <= tri <= 2 * h2 + 1e-12

    def test_entropy_decomposition_frozen_constant(self):
        # |H(p)-H(q)| <= 4 d_H^2 + Lambda, the frozen decomposition constant
        rng = np.random.default_rng(9)
        for _ in range(500):
            n = int(rng.integers(2, 50))
            p = DiscreteDistribution.random_dense(n, rng)
            q = DiscreteDistribution.random_dense(n, rng)
            lhs = abs(entropy(p) - entropy(q))
            rhs = 4.0 * divergences(p, q).hellinger_sq + lambda_term(p, q)
            assert lhs <= rhs + 1e-9


class TestLambdaTerm:
    def test_identical(self):
        p = DiscreteDistribution.zipf(5)
        assert lambda_term(p, p) == 0.0

    def test_symmetric_cancellation(self):
        p = DiscreteDistribution([0.75, 0.25])
        q = DiscreteDistribution([0.25, 0.75])
        assert lambda_term(p, q) == pytest.approx(0.0, abs=1e-12)

    def test_pinned_value(self):
        p = DiscreteDistribution([0.75, 0.25])
        q = DiscreteDistribution([0.5, 0.5])
        expected = abs(0.25 * math.log(8 / 5) - 0.25 * math.log(8 / 3))
        assert lambda_term(p, q) == pytest.approx(expected, abs=1e-9)
        assert lambda_term(p, q) == pytest.approx(0.12770, abs=1e-4)


class TestMassFloor:
    def test_uniform_fixed_point(self):
        u = DiscreteDistribution.uniform(8)
        assert mass_floor_mix(u, 0.3).probs == pytest.approx(u.probs, abs=1e-15)

    def test_pinned_two_point_example(self):
        d = DiscreteDistribution([1.0, 0.0])
        eta = mass_floor_eta(2, 0.2)
        assert eta == pytest.approx(0.2 / math.log(10), abs=1e-9)
        mixed = mass_floor_mix(d, 0.2)
        assert mixed.probs == pytest.approx([0.956571, 0.043429], abs=5e-7)

    def test_floor_guarantee(self):
        rng = np.random.default_rng(11)
        for n in (4, 64, 1024):
            for eps in (0.05, 0.2, 0.5):
                d = DiscreteDistribution.random_dense(n, rng)
                floor = eps / (n * math.log(n / eps))
                assert mass_floor_mix(d, eps).probs.min() >= floor - 1e-15

    def test_entropy_drift_at_most_twice_eps(self):
        # the floor lemma's 2 eps bound; the point mass is the extreme case
        rng = np.random.default_rng(12)
        for n in (16, 256, 4096):
            for eps in (0.05, 0.2, 0.5):
                for d in (
                    DiscreteDistribution.uniform(n),
                    DiscreteDistribution.point_mass(n, 0),
                    DiscreteDistribution.zipf(n),
                    DiscreteDistribution.random_dense(n, rng),
                ):
                    drift = abs(entropy(mass_floor_mix(d, eps)) - entropy(d))
                    assert drift <= 2 * eps

    def test_invalid_eps(self):
        with pytest.raises(InvalidEpsilon):
            mass_floor_mix(DiscreteDistribution.uniform(4), 0.6)
        with pytest.raises(InvalidEpsilon):
            mass_floor_mix(DiscreteDistribution.uniform(4), 0.0)


class TestSampler:
    def test_reproducible_stream(self):
        d = DiscreteDistribution.zipf(50)
        a = Sampler(d, 123).draw(1000)
        b = Sampler(d, 123).draw(1000)
        assert np.array_equal(a, b)
        c = Sampler(d, 124).draw(1000)
        assert not np.array_equal(a, c)

    def test_empirical_frequencies(self):
        # max_i |freq_i - d_i| <= 5 sqrt(d_i/N) + 10/N at N = 1e6
        rng = np.random.default_rng(13)
        d = DiscreteDistribution.random_dense(100, rng)
        counts = np.bincount(Sampler(d, 5).draw(10**6), minlength=100)
        freq = counts / 1e6
        bound = 5 * np.sqrt(d.probs / 1e6) + 10 / 1e6
        assert np.all(np.abs(freq - d.probs) <= bound)

    def test_poisson_counts_law(self):
        d = DiscreteDistribution([0.5, 0.3, 0.2])
        s = Sampler(d, 77)
        reps, m = 4000, 50
        counts = np.array([s.poisson_counts(m) for _ in range(reps)])
        means = counts.mean(axis=0)
        for i in range(3):
            lam = m * d.probs[i]
            assert abs(means[i] - lam) <= 4 * math.sqrt(lam / reps)
            assert abs(counts[:, i].var() - lam) <= 5 * lam / math.sqrt(reps)

    def test_multinomial_counts_total(self):
        s = Sampler(DiscreteDistribution.uniform(10), 3)
        c = s.multinomial_counts(1234)
        assert c.sum() == 1234

    def test_binomial_hits(self):
        s = Sampler(DiscreteDistribution.uniform(4), 3)
        hits = s.binomial_hits(10**5, np.array([0, 1]))
        assert abs(hits / 1e5 - 0.5) < 0.01


class TestMixSampler:
    def test_stream_matches_mixture_law(self):
        # point mass on 0, n=2, eps=0.2: element 1 appears at rate eta/2
        d = DiscreteDistribution.point_mass(2, 0)
        ms = mix_sample(Sampler(d, 1), 0.2, rng_seed=2)
        draws = ms.draw(10**6)
        freq = (draws == 1).mean()
        eta = mass_floor_eta(2, 0.2)
        assert abs(freq - eta / 2) <= 3 * math.sqrt(eta / 2 / 1e6)
        assert ms.distribution == mass_floor_mix(d, 0.2)

    def test_replay_determinism(self):
        d = DiscreteDistribution.zipf(12)
        a = mix_sample(Sampler(d, 4), 0.3, rng_seed=9).draw(500)
        b = mix_sample(Sampler(d, 4), 0.3, rng_seed=9).draw(500)
        assert np.array_equal(a, b)

    def test_stream_backed_counts(self):
        # a mass-floor wrapper over a pool-backed sampler has no exact
        # distribution and must stream its counts
        pool = StreamSampler(np.zeros(200_000, dtype=np.int64), 2, rng_seed=5)
        ms = MassFloorSampler(pool, 0.2, rng_seed=6)
        assert ms.distribution is None
        counts = ms.poisson_counts(50_000)
        eta = mass_floor_eta(2, 0.2)
        assert abs(counts[1] / counts.sum() - eta / 2) < 0.005

    def test_fair_mix(self):
        sp = Sampler(DiscreteDistribution.point_mass(2, 0), 1)
        sq = Sampler(DiscreteDistribution.point_mass(2, 1), 2)
        mix = FairMixSampler(sp, sq, 3)
        counts = mix.multinomial_counts(10**5)
        assert abs(counts[0] / 1e5 - 0.5) < 0.01

    def test_fair_mix_of_exact_laws_is_exact(self):
        sp, sq = _exact(12, 1), Sampler(DiscreteDistribution.uniform(12), 2)
        mix = fair_mix(sp, sq, 3)
        assert isinstance(mix, Sampler)
        assert mix.distribution == DiscreteDistribution(0.5 * (sp.probs + sq.probs))
        for other in (_pool(12, 4), mix_sample(_pool(12, 5), 0.2, rng_seed=6)):
            assert type(fair_mix(sp, other, 7)) is FairMixSampler
            assert type(fair_mix(other, sq, 7)) is FairMixSampler
        with pytest.raises(DomainMismatch):
            fair_mix(sp, _exact(13, 8), 9)

    def test_exact_mixture_counts_match_literal_counts_in_law(self):
        # k draws from (p + q)/2 have Multinomial(k, (p + q)/2) counts whether
        # drawn in one exact-law step or coin by coin: per cell, the mean
        # count and the frequency of a zero count match that law
        n, k, draws = 160, 160, 10_000
        rng = np.random.default_rng(1)
        sp, sq = (Sampler(DiscreteDistribution.random_dense(n, rng), seed) for seed in (2, 3))
        r = 0.5 * (sp.probs + sq.probs)
        lam, p0 = k * r, (1 - r) ** k
        for mix in (fair_mix(sp, sq, 4), FairMixSampler(sp, sq, 5)):
            sums = np.zeros(n)
            zeros = np.zeros(n)
            for _ in range(draws):
                c = mix.multinomial_counts(k)
                sums += c
                zeros += c == 0
            z_mean = (sums / draws - lam) / np.sqrt(lam * (1 - r) / draws)
            z_zero = (zeros / draws - p0) / np.sqrt(p0 * (1 - p0) / draws)
            # mean z^2 over 320 cells is 1 with sd 0.08 under the right law
            assert 0.75 <= np.mean(np.concatenate([z_mean, z_zero]) ** 2) <= 1.3


class TestMixtureLaws:
    @pytest.mark.parametrize("n", [2**10, 2**12, 2**14])
    def test_unchecked_mixtures_match_checked_constructor(self, n):
        # mass_floor_mix and fair_mix skip the constructor's checks but must
        # keep its renormalization bit for bit
        rng = np.random.default_rng(n)
        laws = [DiscreteDistribution.uniform(n), DiscreteDistribution.zipf(n),
                DiscreteDistribution.random_dense(n, rng)]
        for d in laws:
            eta = mass_floor_eta(n, 0.2)
            floored = mass_floor_mix(d, 0.2).probs
            assert np.array_equal(floored, DiscreteDistribution((1.0 - eta) * d.probs + eta / n).probs)
            assert not floored.flags.writeable
            for e in laws:
                mixed = fair_mix(Sampler(d, 1), Sampler(e, 2)).probs
                assert np.array_equal(mixed, DiscreteDistribution(0.5 * (d.probs + e.probs)).probs)
                assert not mixed.flags.writeable


class TestConditionalRejectionSampling:
    def test_full_domain_passthrough(self):
        s = Sampler(DiscreteDistribution.uniform(4), 1)
        samples, consumed = conditional_rejection_sample(s, np.arange(4), 100, 10**6)
        assert samples.size == 100
        assert consumed == 100

    def test_expected_consumption(self):
        # conditional uniform on {0,1} from uniform(4): acceptance rate 1/2
        totals = []
        for seed in range(40):
            s = Sampler(DiscreteDistribution.uniform(4), seed)
            samples, consumed = conditional_rejection_sample(s, np.array([0, 1]), 1000, 10**6)
            assert set(np.unique(samples)) <= {0, 1}
            totals.append(consumed)
        assert abs(np.mean(totals) - 2000) < 100

    def test_zero_mass_support(self):
        s = Sampler(DiscreteDistribution([1.0, 0.0]), 1)
        with pytest.raises(BudgetExhausted):
            conditional_rejection_sample(s, np.array([1]), 10, 100)

    def test_budget_exhausted_on_rare_support(self):
        v = np.array([1 - 1e-9, 1e-9])
        s = Sampler(DiscreteDistribution(v), 1)
        with pytest.raises(BudgetExhausted):
            conditional_rejection_sample(s, np.array([1]), 50, 1000)

    def test_stream_backed_rejection(self):
        rng = np.random.default_rng(17)
        pool = StreamSampler(rng.integers(0, 4, size=100_000), 4, rng_seed=1)
        samples, consumed = conditional_rejection_sample(pool, np.array([2, 3]), 500, 50_000)
        assert samples.size == 500
        assert set(np.unique(samples)) <= {2, 3}
        assert consumed >= 500

    def test_pool_running_dry_reports_draws_of_this_call(self):
        # nothing in the pool is accepted, so the loop draws 64-sample chunks
        # until the 192 samples left after the first 8 cannot fill one more
        pool = StreamSampler(np.zeros(200, dtype=np.int64), 4, rng_seed=1)
        pool.draw(8)
        with pytest.raises(BudgetExhausted) as exc:
            conditional_rejection_sample(pool, np.array([1]), 10, 10**6)
        assert exc.value.consumed == 192
        assert pool.remaining == 0


class TestStreamSampler:
    def test_exhaustion(self):
        pool = StreamSampler(np.arange(10), 16)
        pool.draw(8)
        with pytest.raises(BudgetExhausted):
            pool.draw(5)

    def test_negative_draw_leaves_pool_alone(self):
        pool = StreamSampler(np.arange(10), 16)
        with pytest.raises(ValueError):
            pool.draw(-1)
        assert pool.remaining == 10
        assert pool.draw(0).shape == (0,)
        assert pool.remaining == 10

    def test_counts_consume_pool(self):
        pool = StreamSampler(np.zeros(1000, dtype=np.int64), 2, rng_seed=0)
        c = pool.multinomial_counts(600)
        assert c[0] == 600
        assert pool.remaining == 400


def _exact(n, seed):
    return Sampler(DiscreteDistribution.zipf(n), seed)


def _pool(n, seed):
    return StreamSampler(np.random.default_rng(seed).integers(0, n, size=50_000), n, rng_seed=seed)


# every sampler kind the testers take, built over a domain of size n
SAMPLER_KINDS = {
    "sampler": lambda n: _exact(n, 1),
    "mix-over-sampler": lambda n: mix_sample(_exact(n, 1), 0.2, rng_seed=2),
    "mix-over-stream": lambda n: mix_sample(_pool(n, 3), 0.2, rng_seed=4),
    "stream": lambda n: _pool(n, 5),
    "fair-mix": lambda n: FairMixSampler(_exact(n, 6), _pool(n, 7), 8),
}


class TestSamplerProtocol:
    @pytest.mark.parametrize("kind", sorted(SAMPLER_KINDS))
    def test_count_draws_conform(self, kind):
        n = 12
        s = SAMPLER_KINDS[kind](n)
        assert (s.distribution is not None) == isinstance(s, Sampler)
        assert s.n == n
        counts = s.poisson_counts(300.0)
        assert counts.shape == (n,) and counts.min() >= 0
        for k in (0, 1, 257):
            c = s.multinomial_counts(k)
            assert c.shape == (n,) and c.sum() == k
        assert 0 <= s.binomial_hits(500, np.arange(n) < 3) <= 500

    @pytest.mark.parametrize("kind", sorted(SAMPLER_KINDS))
    def test_draw_size_checked(self, kind):
        s = SAMPLER_KINDS[kind](12)
        assert s.draw(0).shape == (0,)
        for draw in (s.draw, s.multinomial_counts, lambda k: s.binomial_hits(k, np.arange(12) < 3)):
            with pytest.raises(ValueError):
                draw(-1)

    def test_mix_sample_floors_an_exact_law_exactly(self):
        base = _exact(12, 1)
        floored = mix_sample(base, 0.2, rng_seed=2)
        assert isinstance(floored, Sampler)
        assert floored.distribution == mass_floor_mix(base.distribution, 0.2)
        # an exact-law floor has the rejection sampler's exact-law path
        samples, consumed = conditional_rejection_sample(floored, np.arange(12) >= 6, 50, 10**6)
        assert samples.size == 50 and consumed >= 50 and samples.min() >= 6
