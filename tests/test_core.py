"""Distribution, functional, and sampler tests."""

import copy
import math
import pickle
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import stats as spstats

from enttest import core
from enttest.core import (
    BudgetExhausted,
    DiscreteDistribution,
    DistributionError,
    DomainMismatch,
    MixtureStream,
    ParameterOutOfRange,
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

    @pytest.mark.parametrize("roundtrip", [lambda d: pickle.loads(pickle.dumps(d)), copy.deepcopy, copy.copy])
    def test_pickle_and_copy_keep_the_bits(self, roundtrip):
        # a law whose float sum is not 1 (a floor mixture, as a file loads
        # it): the constructor would renormalize and move its low bits
        v = np.array([0.7, 0.2, 0.1])
        assert v.sum() != 1.0
        d = core._unchecked(v, renormalize=False)
        for law in (d, DiscreteDistribution.uniform(3), mass_floor_mix(DiscreteDistribution.zipf(9), 0.2)):
            back = roundtrip(law)
            assert type(back) is DiscreteDistribution
            assert back.probs.tobytes() == law.probs.tobytes()
            assert not back.probs.flags.writeable
            with pytest.raises(AttributeError):
                back.probs = np.ones(law.n)
            mine, theirs = back.levels(), law.levels()
            assert mine.values == theirs.values and mine.bounds == theirs.bounds
            assert np.array_equal(mine.order, theirs.order)

    def test_file_roundtrip(self, tmp_path):
        d = DiscreteDistribution.zipf(17)
        path = tmp_path / "d.dist"
        save_distribution(d, path)
        back = load_distribution(path)
        assert np.array_equal(back.probs, d.probs)
        assert open(path).readline().strip() == "n=17"

    @pytest.mark.parametrize("text, field", [("n=abc\n0.5\n0.5\n", "'abc'"), ("n=2\n0.5\nhalf\n", "'half'")],
                             ids=["header", "probability"])
    def test_bad_number_names_its_field(self, tmp_path, text, field):
        # a bad number once raised a bare ValueError from int() or float()
        path = tmp_path / "d.dist"
        path.write_text(text)
        with pytest.raises(DistributionError, match=f"bad field {field}"):
            load_distribution(path)


class TestEntropy:
    def test_uniform(self):
        assert entropy(DiscreteDistribution.uniform(4)) == pytest.approx(math.log(4), abs=1e-12)

    def test_point_mass(self):
        assert entropy(DiscreteDistribution.point_mass(8, 3)) == 0.0
        # -(1 log 1) is -0.0, which once printed as "-0"
        assert math.copysign(1.0, entropy(DiscreteDistribution.point_mass(4))) == 1.0

    def test_half_support_gap(self):
        p = DiscreteDistribution([0.5, 0.5, 0.0, 0.0])
        q = DiscreteDistribution.uniform(4)
        assert entropy(q) - entropy(p) == pytest.approx(math.log(2), abs=1e-12)


class TestDivergences:
    def test_kl_is_the_vector_kl(self):
        rng = np.random.default_rng(5)
        infinite = 0
        for n in (2, 17, 300):
            for _ in range(10):
                laws = []
                for _ in range(2):
                    w = rng.exponential(size=n) * (rng.random(n) < 0.7)
                    w[0] += 1.0
                    laws.append(DiscreteDistribution(w / w.sum()))
                p, q = laws
                for a, b in ((p, q), (q, p), (p, p)):
                    kl = divergences(a, b).kl
                    assert np.float64(kl).tobytes() == np.float64(core.kl_divergence_vectors(a.probs, b.probs)).tobytes()
                    infinite += kl == math.inf
        assert infinite > 0

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
        with pytest.raises(ParameterOutOfRange):
            mass_floor_mix(DiscreteDistribution.uniform(4), 0.6)
        with pytest.raises(ParameterOutOfRange):
            mass_floor_mix(DiscreteDistribution.uniform(4), 0.0)

    def test_law_keeps_its_last_floored_law(self):
        d = DiscreteDistribution.zipf(50)
        first = mass_floor_mix(d, 0.2)
        assert mass_floor_mix(d, 0.2) is first
        other = mass_floor_mix(d, 0.3)
        eta = mass_floor_eta(50, 0.3)
        assert other.probs.tobytes() == DiscreteDistribution((1.0 - eta) * d.probs + eta / 50).probs.tobytes()
        assert mass_floor_mix(d, 0.3) is other
        again = mass_floor_mix(d, 0.2)  # one entry: 0.3 replaced 0.2
        assert again is not first and again.probs.tobytes() == first.probs.tobytes()
        with pytest.raises(ParameterOutOfRange):  # eps is checked on every call
            mass_floor_mix(d, 0.6)
        assert mass_floor_mix(d, 0.2) is again

    def test_threads_sharing_a_law_get_their_own_eps(self):
        # trial threads floor one shared law; the entry is read once, so no
        # thread pairs its eps with the law of another thread's eps
        laws = [DiscreteDistribution.zipf(64), _mixed_law()]
        epss = (0.1, 0.2, 0.3)
        want = {(i, e): mass_floor_mix(copy.copy(d), e).probs.tobytes() for i, d in enumerate(laws) for e in epss}

        def job(k):
            i, e = k % 2, epss[k % 3]
            return (i, e), mass_floor_mix(laws[i], e).probs.tobytes()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(job, range(3000), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert len(got) == 3000 and all(want[key] == bits for key, bits in got)

    @pytest.mark.parametrize("roundtrip", [lambda d: pickle.loads(pickle.dumps(d)), copy.deepcopy, copy.copy])
    def test_pickled_or_copied_law_keeps_no_floored_law(self, roundtrip):
        d = DiscreteDistribution.zipf(6)
        floored = mass_floor_mix(d, 0.2)
        back = roundtrip(d)
        assert back._floored == (None, None)
        mine = mass_floor_mix(back, 0.2)
        assert mine is not floored and mine.probs.tobytes() == floored.probs.tobytes()


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


def _one_pass_alias_draw(rng, alias, threshold, k):
    # the whole draw from one random_raw call: per variate, the column from
    # the top b bits of a word, the coin from the low 53 bits of the same
    # word (b <= 11) or of the next one
    b = alias.size.bit_length() - 1
    words = 1 if b <= 11 else 2
    raw = rng.bit_generator.random_raw(words * k).reshape(k, words)
    cols = (raw[:, 0] >> np.uint64(64 - b)).astype(np.int64)
    coins = raw[:, -1] & np.uint64(2**53 - 1)
    return np.where(coins < threshold[cols], cols, alias[cols])


def _implied_law(alias, threshold):
    """The law an alias draw realizes, column by column."""
    cut = threshold / 2.0**53
    law = cut.copy()
    np.add.at(law, alias, 1.0 - cut)
    return law / alias.size


def _numpy_scalar_alias_tables(probs):
    # the Vose loop on numpy scalars that _alias_tables replaced, kept as
    # the reference for its list form
    size = max(2, 1 << (probs.size - 1).bit_length())
    scaled = np.zeros(size)
    scaled[:probs.size] = probs * size
    alias = np.arange(size, dtype=np.int64)
    cut = scaled.copy()
    small = [i for i in range(size) if scaled[i] < 1.0]
    large = [i for i in range(size) if scaled[i] >= 1.0]
    while small and large:
        s = small.pop()
        l = large.pop()
        alias[s] = l
        cut[l] -= 1.0 - cut[s]
        (small if cut[l] < 1.0 else large).append(l)
    for i in small + large:
        cut[i] = 1.0
    threshold = np.ceil(np.minimum(cut, 1.0) * 2.0**53).astype(np.uint64)
    return alias, threshold


class _Words:
    """A stand-in generator whose bit generator hands out given words."""

    def __init__(self, words):
        self.bit_generator = self
        self._words = np.asarray(words, dtype=np.uint64)

    def random_raw(self, size):
        out, self._words = self._words[:size], self._words[size:]
        return out


class TestBlockedAliasDraw:
    B = core._BLOCK

    @pytest.mark.parametrize("k", [0, 1, B - 1, B, B + 1, 3 * B + 5])
    def test_equals_one_pass_on_a_poisson_table(self, k):
        _, alias, threshold = core._poisson_table(37.5)
        ref = np.random.default_rng(11)
        got = np.random.default_rng(11)
        assert np.array_equal(core._alias_draw(got, alias, threshold, k),
                              _one_pass_alias_draw(ref, alias, threshold, k))
        assert got.bit_generator.state == ref.bit_generator.state

    def test_sampler_draw_equals_one_pass(self):
        # 2^15 cells: the two-word path
        d = DiscreteDistribution.random_dense(2**15, np.random.default_rng(4))
        alias, threshold = core._alias_tables(d.probs)
        for k in (2**15, 3 * self.B + 5):
            got = Sampler(d, 8)
            ref = np.random.default_rng(8)
            assert np.array_equal(got.draw(k), _one_pass_alias_draw(ref, alias, threshold, k))
            assert got._rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("cut", [0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53, 1.0])
    def test_coin_rule_is_the_float_rule(self, cut):
        # column 0 of the law (cut/2, 1 - cut/2) has cut `cut` exactly and
        # alias 1; a coin c keeps it iff c 2^-53 < cut, as Generator.random's
        # u < cut does on its 53-bit grid
        alias, threshold = core._alias_tables(np.array([cut / 2, 1.0 - cut / 2]))
        assert threshold[0] == math.ceil(cut * 2.0**53)
        edge = int(threshold[0])
        coins = sorted({c for c in (0, 1, edge - 1, edge, edge + 1, 2**52, 2**53 - 1) if 0 <= c < 2**53})
        # column 0 is the top bit clear; the bits between it and the coin are noise
        words = [c | (0x2A5 << 53) for c in coins]
        got = core._alias_draw(_Words(words), alias, threshold, len(words))
        want = [0 if c * 2.0**-53 < cut else int(alias[0]) for c in coins]
        assert got.tolist() == want

    @pytest.mark.parametrize("n", [1, 2, 3, 1341, 2**16 + 1])
    @pytest.mark.parametrize("law", ["exponential", "zipf", "point"])
    def test_alias_tables_equal_numpy_scalar_loop(self, n, law):
        if law == "point":
            probs = np.zeros(n)
            probs[n // 2] = 1.0
        else:
            x = np.arange(1, n + 1, dtype=np.float64)
            w = np.exp(-x / max(1.0, n / 8.0)) if law == "exponential" else 1.0 / x
            probs = w / w.sum()
        alias, threshold = core._alias_tables(probs)
        ref_alias, ref_threshold = _numpy_scalar_alias_tables(probs)
        assert alias.dtype == ref_alias.dtype and threshold.dtype == ref_threshold.dtype
        assert np.array_equal(alias, ref_alias) and np.array_equal(threshold, ref_threshold)

    def test_sampler_draw_chi_square_two_words(self):
        # 4,099 cells pad to 2^13 columns, past the one-word limit of 2^11
        n, k = 4099, 10**6
        d = DiscreteDistribution.random_dense(n, np.random.default_rng(21))
        alias, _ = core._alias_tables(d.probs)
        assert alias.size == 2**13
        draws = Sampler(d, 22).draw(k)
        assert 0 <= draws.min() and draws.max() < n
        observed = np.bincount(draws, minlength=n)
        assert spstats.chisquare(observed, k * d.probs).pvalue > 1e-4

    @pytest.mark.parametrize("rate", [0.05, 3.5, 611.0, core._TABLE_MAX_RATE])
    def test_no_draw_outside_the_window(self, rate):
        lo, alias, threshold = core._poisson_table(rate)
        entries = math.ceil(rate + 10.0 * math.sqrt(rate) + 30.0) - lo + 1
        assert alias.size // 2 < entries <= alias.size
        draws = core._alias_draw(np.random.default_rng(5), alias, threshold, 2**17)
        assert 0 <= draws.min() and draws.max() < entries
        # and a law with zero cells, inside and past its end, never draws them
        v = np.r_[np.ones(5), 0.0, np.ones(5), np.zeros(4)]
        draws = Sampler(DiscreteDistribution(v / v.sum()), 6).draw(10**5)
        assert set(np.unique(draws)) == set(np.flatnonzero(v))


def _sure_and_unsure_law():
    # at k = 2,000 and theta = 20.5 over 40 cells the sure floor is near
    # 0.048: five sure cells of 0.1, five unsure cells of 0.04 that nearly
    # always pass, and thirty of 0.01 that pass about half the time
    return DiscreteDistribution(np.r_[np.full(5, 0.1), np.full(5, 0.04), np.full(30, 0.01)])


class TestCountAtLeast:
    K, THETA = 2000, 20.5

    def test_sampler_and_stream_masks_agree_in_law(self):
        d = _sure_and_unsure_law()
        sure = d.probs >= core._sure_floor(self.K, self.THETA, d.n)
        assert sure.sum() == 5 and sure[:5].all()
        seeds = 200
        exact = np.zeros(d.n)
        literal = np.zeros(d.n)
        for seed in range(seeds):
            exact += Sampler(d, seed).count_at_least(self.K, self.THETA)
            # the base class's mask: every count of one Multinomial(k, p)
            literal += core.SampleStream.count_at_least(Sampler(d, seeds + seed), self.K, self.THETA)
        assert exact[:5].min() == seeds
        want = spstats.binom.sf(math.ceil(self.THETA) - 1, self.K, d.probs)
        for freq in (exact / seeds, literal / seeds):
            assert np.all(np.abs(freq - want) <= 5 * np.sqrt(want * (1 - want) / seeds) + 1e-9)
        # the two masks' per-cell frequencies, cell by cell, within sampling noise
        z = (exact - literal) / np.sqrt(2 * seeds * np.maximum(want * (1 - want), 1e-9))
        assert np.mean(z[10:] ** 2) <= 2.0

    def test_all_sure_law_draws_nothing(self):
        s = Sampler(DiscreteDistribution.uniform(16), 3)
        state = s._rng.bit_generator.state
        assert s.count_at_least(10**5, 100.0).all()
        assert s._rng.bit_generator.state == state

    def test_sure_floor_is_the_boundary(self):
        # an element at the floor draws nothing; one just below it draws
        floor = core._sure_floor(10**5, 100.0, 2)
        for p, draws in ((floor, False), (floor * (1 - 1e-9), True)):
            s = Sampler(DiscreteDistribution([p, 1.0 - p]), 3)
            state = s._rng.bit_generator.state
            s.count_at_least(10**5, 100.0)
            assert (s._rng.bit_generator.state != state) == draws

    def test_theta_outside_the_count_range_draws_nothing(self):
        d = _sure_and_unsure_law()
        for k, theta, want in ((self.K, 0.0, True), (self.K, -3.0, True), (self.K, self.K + 0.5, False),
                               (0, 0.5, False), (0, 0.0, True)):
            s = Sampler(d, 4)
            state = s._rng.bit_generator.state
            mask = s.count_at_least(k, theta)
            assert mask.dtype == bool and mask.shape == (d.n,) and np.all(mask == want)
            assert s._rng.bit_generator.state == state
            # the literal mask agrees
            assert np.all(core.SampleStream.count_at_least(Sampler(d, 5), k, theta) == want)
        with pytest.raises(ValueError):
            Sampler(d, 6).count_at_least(-1, 1.0)

    def test_zero_cells_never_pass(self):
        v = np.r_[np.full(4, 0.2), np.zeros(3), np.full(20, 0.01)]
        mask = Sampler(DiscreteDistribution(v), 7).count_at_least(self.K, self.THETA)
        assert mask[:4].all() and not mask[4:7].any()


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
        # a mass floor over a pool-backed sampler has no exact
        # distribution and must stream its counts
        pool = StreamSampler(np.zeros(200_000, dtype=np.int64), 2, rng_seed=5)
        ms = mix_sample(pool, 0.2, rng_seed=6)
        assert type(ms) is MixtureStream and ms.distribution is None
        counts = ms.poisson_counts(50_000)
        eta = mass_floor_eta(2, 0.2)
        assert abs(counts[1] / counts.sum() - eta / 2) < 0.005

    def test_fair_mix(self):
        sp = Sampler(DiscreteDistribution.point_mass(2, 0), 1)
        sq = Sampler(DiscreteDistribution.point_mass(2, 1), 2)
        mix = MixtureStream(2, 0.5, sp.draw, sq.draw, np.random.default_rng(3))
        counts = mix.multinomial_counts(10**5)
        assert abs(counts[0] / 1e5 - 0.5) < 0.01

    def test_fair_mix_of_exact_laws_is_exact(self):
        sp, sq = _exact(12, 1), Sampler(DiscreteDistribution.uniform(12), 2)
        mix = fair_mix(sp, sq, 3)
        assert isinstance(mix, Sampler)
        assert mix.distribution == DiscreteDistribution(0.5 * (sp.probs + sq.probs))
        for other in (_pool(12, 4), mix_sample(_pool(12, 5), 0.2, rng_seed=6)):
            assert type(fair_mix(sp, other, 7)) is MixtureStream
            assert type(fair_mix(other, sq, 7)) is MixtureStream
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
        for mix in (fair_mix(sp, sq, 4), MixtureStream(n, 0.5, sp.draw, sq.draw, np.random.default_rng(5))):
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
        # nothing in the pool is accepted, so the loop draws chunks of the
        # 10 accepts still needed until the 2 samples left of the 192 after
        # the first 8 cannot fill one more
        pool = StreamSampler(np.zeros(200, dtype=np.int64), 4, rng_seed=1)
        pool.draw(8)
        with pytest.raises(BudgetExhausted) as exc:
            conditional_rejection_sample(pool, np.array([1]), 10, 10**6)
        assert exc.value.consumed == 190
        assert pool.remaining == 2


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
    "fair-mix": lambda n: fair_mix(_exact(n, 6), _pool(n, 7), 8),
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
            mask = s.count_at_least(k, 20.0)
            assert mask.shape == (n,) and mask.dtype == bool
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
        # the rejection loop draws from it as from any stream
        samples, consumed = conditional_rejection_sample(floored, np.arange(12) >= 6, 50, 10**6)
        assert samples.size == 50 and consumed >= 50 and samples.min() >= 6


def _partition(probs):
    """(values, cells per value) by np.unique: the reference grouping."""
    values, inverse = np.unique(probs, return_inverse=True)
    return values, [np.flatnonzero(inverse == j) for j in range(values.size)]


def _assert_levels_are_partition(levels, probs):
    values, cells = _partition(probs)
    assert np.array_equal(levels.values, values)
    assert len(levels.bounds) == values.size + 1
    for j, want in enumerate(cells):
        assert np.array_equal(levels.cells(j), want)


def _mixed_law():
    # one large level, five singletons of distinct mass and a zero level
    v = np.r_[np.full(3000, 1.0), [40.0, 55.0, 70.0, 85.0, 100.0], np.zeros(500)]
    return DiscreteDistribution(v / v.sum())


class TestPoissonLevels:
    def test_levels_are_the_unique_partition(self):
        rng = np.random.default_rng(3)
        laws = [DiscreteDistribution.uniform(7), _mixed_law(), DiscreteDistribution.point_mass(9, 4)]
        for _ in range(20):
            w = rng.integers(0, 4, size=int(rng.integers(2, 300))).astype(float)
            w[0] += 1.0
            laws.append(DiscreteDistribution(w / w.sum()))
        for d in laws:
            _assert_levels_are_partition(d.levels(), d.probs)
        assert DiscreteDistribution.zipf(100).levels() is None

    def test_floored_levels_are_the_unique_partition(self):
        # 0.3 and the float above it merge under some floors (eps 0.36 and
        # 0.41), and the merged level's cells must come out ascending
        tiny = np.array([np.nextafter(0.3, 1.0), 0.1, 0.3, 0.1, 0.1, 0.1])
        merged = 0
        for base in (_mixed_law(), DiscreteDistribution(tiny), DiscreteDistribution.uniform(64)):
            for eps in (0.05, 0.1, 0.2, 0.36, 0.41, 0.5):
                floored = mass_floor_mix(base, eps)
                _assert_levels_are_partition(floored.levels(), floored.probs)
                merged += len(floored.levels().values) < len(base.levels().values)
        assert merged > 0
        assert mass_floor_mix(DiscreteDistribution.zipf(100), 0.2).levels() is None

    def test_floored_levels_match_the_base_derivation(self):
        # the floor x -> (1 - eta) x + eta / n is monotone after rounding,
        # so sorting the floored law gives the grouping derived from its
        # base's: each base level stays a level, neighbours whose floored
        # values round equal merge, and a merged level's cells ascend
        tiny = np.array([np.nextafter(0.3, 1.0), 0.1, 0.3, 0.1, 0.1, 0.1])
        rng = np.random.default_rng(8)
        bases = [_mixed_law(), DiscreteDistribution(tiny), DiscreteDistribution.uniform(64)]
        for _ in range(10):
            w = rng.integers(0, 6, size=int(rng.integers(2, 500))).astype(float)
            w[0] += 1.0
            bases.append(DiscreteDistribution(w / w.sum()))
        for base in bases:
            for eps in (0.05, 0.1, 0.2, 0.36, 0.41, 0.5):
                floored = mass_floor_mix(base, eps)
                mine, lv = floored.levels(), base.levels()
                values = floored.probs[lv.order[lv.bounds[:-1]]].tolist()
                starts = [j for j, v in enumerate(values) if j == 0 or v != values[j - 1]]
                bounds = [lv.bounds[j] for j in starts] + [base.n]
                order = np.concatenate([np.sort(lv.order[lo:hi]) for lo, hi in zip(bounds, bounds[1:])])
                assert mine.values == [values[j] for j in starts] and mine.bounds == bounds
                assert mine.order.dtype == np.int32 and np.array_equal(mine.order, order)

    @pytest.mark.parametrize("rate", [0.05, 3.5, 611.0, core._TABLE_MAX_RATE])
    def test_table_is_the_truncated_pmf(self, rate):
        lo, alias, threshold = core._poisson_table(rate)
        assert alias.dtype == np.int32 and threshold.dtype == np.uint64
        # the table has 2^b columns; the pmf's entries come first and the
        # padded columns carry no mass at all
        size = alias.size
        entries = math.ceil(rate + 10.0 * math.sqrt(rate) + 30.0) - lo + 1
        assert size & (size - 1) == 0 and size // 2 < entries <= size
        law = _implied_law(alias, threshold)
        ks = np.arange(lo, lo + entries)
        pmf = spstats.poisson.pmf(ks, rate)
        assert np.max(np.abs(law[:entries] - pmf / pmf.sum())) < 1e-12
        assert np.all(law[entries:] == 0.0)
        tail = spstats.poisson.cdf(lo - 1, rate) + spstats.poisson.sf(lo + entries - 1, rate)
        assert tail < 2.0**-60

    @pytest.mark.parametrize("rate", [0.05, 3.5, 611.0, core._TABLE_MAX_RATE])
    def test_level_counts_chi_square(self, rate):
        # 2e5 cells of one level: a chi-square of their counts against the
        # exact pmf, bins of at least 20 expected counts
        n = 200_000
        core._poisson_table.cache_clear()
        counts = Sampler(DiscreteDistribution.uniform(n), 41).poisson_counts(rate * n)
        assert core._poisson_table.cache_info().currsize == 1  # the table path ran
        ks = np.arange(counts.max() + 2)
        expected = n * spstats.poisson.pmf(ks, rate)
        expected[-1] = n * spstats.poisson.sf(ks[-2], rate)
        observed = np.bincount(counts, minlength=ks.size).astype(float)
        edges = [0]
        acc = 0.0
        for k, e in enumerate(expected):
            acc += e
            if acc >= 20 and expected[k + 1:].sum() >= 20:
                edges.append(k + 1)
                acc = 0.0
        edges.append(ks.size)
        obs = np.add.reduceat(observed, edges[:-1])
        exp = np.add.reduceat(expected, edges[:-1])
        chi2 = float(((obs - exp) ** 2 / exp).sum())
        assert spstats.chi2.sf(chi2, len(obs) - 1) > 1e-4

    def test_mixed_law_level_moments(self):
        d = _mixed_law()
        m, reps = 40_000.0, 400
        s = Sampler(d, 17)
        counts = np.array([s.poisson_counts(m) for _ in range(reps)])
        big = counts[:, :3000].ravel()
        lam = m * d.probs[0]
        assert abs(big.mean() - lam) <= 5 * math.sqrt(lam / big.size)
        assert abs(big.var() - lam) <= 5 * math.sqrt((lam + 2 * lam**2) / big.size)
        for i in range(3000, 3005):
            lam = m * d.probs[i]
            assert abs(counts[:, i].mean() - lam) <= 5 * math.sqrt(lam / reps)
            assert abs(counts[:, i].var() - lam) <= 5 * math.sqrt((lam + 2 * lam**2) / reps)
        assert not counts[:, 3005:].any()

    def test_counts_independent_of_table_cache(self):
        d = _mixed_law()
        floored = mass_floor_mix(DiscreteDistribution.uniform(5000), 0.2)
        core._poisson_table.cache_clear()
        cold = [Sampler(d, 5).poisson_counts(9e4), Sampler(floored, 6).poisson_counts(3e5)]
        assert core._poisson_table.cache_info().currsize == 2
        warm = [Sampler(d, 5).poisson_counts(9e4), Sampler(floored, 6).poisson_counts(3e5)]
        for a, b in zip(cold, warm):
            assert np.array_equal(a, b)

    def test_threaded_counts_equal_serial(self):
        # fresh laws and a cold cache each time, so threads sharing a law
        # race to group its levels and to build its tables
        def jobs():
            laws = [_mixed_law(), DiscreteDistribution.uniform(4096),
                    mass_floor_mix(_mixed_law(), 0.3), DiscreteDistribution.zipf(300)]
            return [(laws[seed % 4], seed, 1e3 * (1 + seed % 7)) for seed in range(40)]

        def run(job):
            d, seed, m = job
            s = Sampler(d, seed)
            return [s.poisson_counts(m) for _ in range(3)]

        core._poisson_table.cache_clear()
        serial = [run(job) for job in jobs()]
        core._poisson_table.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                threaded = list(pool.map(run, jobs(), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(serial, threaded):
            assert all(np.array_equal(x, y) for x, y in zip(a, b))
