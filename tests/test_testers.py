"""Sub-tester behavior: coin-bias budget, heavy set, mass comparison, the
T-statistic closeness tests, and the low-mass conditional cascade."""

import copy
import math
import pickle
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from scipy import stats as spstats

from enttest import core
from enttest.core import DiscreteDistribution, Sampler, fair_mix, mix_sample
from enttest.pipeline import make_eet_plan
from enttest.testers import (
    DEFAULT_CONFIG,
    ConfigError,
    ParameterOutOfRange,
    Stage,
    TestVerdict as Verdict,
    ThresholdConfig,
    _majority,
    amplification_reps,
    coin_bias_budget,
    heavy_set_budget,
    heavy_threshold_unit,
    hellinger_budget,
    hellinger_closeness_test,
    identify_heavy_set,
    l2_closeness_test,
    load_config,
    lowmass_conditional_test,
    mass_compare,
    save_config,
    tv_budget,
    tv_closeness_test,
)


def samplers(p, q, seed):
    seq = np.random.SeedSequence(seed)
    a, b = seq.spawn(2)
    return Sampler(p, a), Sampler(q, b)


class TestThresholdConfig:
    def test_defaults_valid(self):
        cfg = ThresholdConfig()
        assert cfg.c_heavy_high >= 2 * cfg.c_heavy_low
        with pytest.raises(FrozenInstanceError):
            DEFAULT_CONFIG.mult_heavy = 0.0

    def test_heavy_constraint(self):
        with pytest.raises(ConfigError):
            ThresholdConfig(c_heavy_low=1.0, c_heavy_high=1.5)

    def test_positivity(self):
        with pytest.raises(ConfigError):
            ThresholdConfig(c_Z_threshold=0.0)

    @pytest.mark.parametrize("key", ["c_T_threshold", "mult_tv"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_values_are_rejected(self, key, value, tmp_path):
        # NaN once passed the positivity check, and NaN or inf budgets or
        # thresholds ended in tracebacks or in testers that never reject
        with pytest.raises(ConfigError, match=key):
            ThresholdConfig(**{key: value})
        path = tmp_path / "cfg.txt"
        path.write_text(f"{key} = {value}\n")
        with pytest.raises(ConfigError, match=key):
            load_config(path)

    def test_unknown_multiplier(self):
        with pytest.raises(TypeError):
            ThresholdConfig(mult_bogus=1.0)

    def test_file_roundtrip(self, tmp_path):
        cfg = replace(DEFAULT_CONFIG, mult_tv=12.0)
        path = tmp_path / "cfg.txt"
        save_config(cfg, path, header_lines=["calibration record"])
        back = load_config(path)
        assert back == cfg

    def test_unknown_key_is_hard_error(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("c_T_threshold = 4.0\nc_bogus = 1.0\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unknown_key_is_named_before_its_value_is_read(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("c_T_threshold = 4.0\nbogus = abc\n")
        with pytest.raises(ConfigError, match=r":2: unknown key 'bogus'"):
            load_config(path)

    def test_repeated_key_is_hard_error(self, tmp_path):
        # the last line once won without a word
        path = tmp_path / "cfg.txt"
        path.write_text("mult_tv = 8.0\n# edited by hand\nmult_tv = 64.0\n")
        with pytest.raises(ConfigError, match="mult_tv set twice, on lines 1 and 3"):
            load_config(path)

    def test_retired_coin_multiplier_is_hard_error(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("c_T_threshold = 4.0\nmult_coin = 8.0\n")
        with pytest.raises(ConfigError, match="mult_coin"):
            load_config(path)

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("# provenance\n\nc_T_threshold = 5.5  # inline\n")
        assert load_config(path).c_T_threshold == 5.5

    def test_default_file_text_is_pinned(self, tmp_path):
        # the keys are the dataclass fields; their order is the file's
        # line order
        path = tmp_path / "cfg.txt"
        save_config(DEFAULT_CONFIG, path)
        scalars = {"c_hellinger_reject": 4.0, "c_heavy_low": 1.0, "c_heavy_high": 2.0, "c_lowmass_mass": 1.0,
                   "c_mass_diff": 1.0, "c_T_threshold": 4.0, "c_l2_threshold": 0.5, "c_massS_diff": 1.0,
                   "c_Z_threshold": 1.0, "c_dec": 4.0}
        mults = {"hellinger": 2.0, "tv": 16.0, "l2": 32.0, "heavy": 2.0, "lowmass_mass": 8.0, "mass_diff": 8.0,
                 "bias_s": 4.0, "stage5": 32.0, "z_m4_poly": 2.0, "z_m4_log": 32.0}
        want = [f"{k} = {v!r}" for k, v in scalars.items()] + [f"mult_{k} = {v!r}" for k, v in mults.items()]
        assert path.read_text().splitlines() == want

    @pytest.mark.parametrize("roundtrip", [lambda c: pickle.loads(pickle.dumps(c)), copy.deepcopy, copy.copy])
    def test_pickle_and_copy_keep_equality_and_hash(self, roundtrip):
        cfg = replace(DEFAULT_CONFIG, mult_l2=12.5, c_T_threshold=3.0)
        back = roundtrip(cfg)
        assert back == cfg and hash(back) == hash(cfg)
        assert back.mult_l2 == 12.5 and back.c_T_threshold == 3.0


class TestVerdictInvariants:
    def test_reject_requires_stage(self):
        with pytest.raises(ValueError):
            Verdict("reject", None, [])

    def test_accept_forbids_stage(self):
        with pytest.raises(ValueError):
            Verdict("accept", "anything", [])

    def test_samples_used_sums_the_records(self):
        v = Verdict("accept", None, [Stage("a", 1.0, 2.0, 3), Stage("note", 0.5, 0.0), Stage("b", 0.0, 1.0, 4)])
        assert v.samples_used == 7
        assert Verdict("accept", None, []).samples_used == 0

    def test_amplification_reps(self):
        assert amplification_reps(0.1) == 1
        assert amplification_reps(1.0) == 1
        k = amplification_reps(0.001)
        assert k % 2 == 1
        assert k >= 18 * math.log(1000)
        with pytest.raises(ParameterOutOfRange):
            amplification_reps(0.0)

    def test_majority_is_strict(self):
        assert _majority([True])
        assert not _majority([True, False])  # a tie does not reject
        assert _majority([True, False, True])
        votes = np.array([[True, True, False], [False, False, True]])
        assert _majority(votes).tolist() == [True, False]
        assert _majority(votes, axis=0).tolist() == [False, False, False]


class TestCoinBiasBudget:
    def test_budget_formula(self):
        b = coin_bias_budget(0.25, 1.0, 0.05, 8.0)
        assert b == math.ceil(8.0 * math.log(20) / 0.25)


class TestIdentifyHeavySet:
    def test_uniform_everything_heavy(self):
        p = DiscreteDistribution.uniform(4)
        sp, sq = samplers(p, p, 10)
        mix = fair_mix(sp, sq, 11)
        mask, used = identify_heavy_set(mix, 4, 0.2)
        assert mask.all()
        assert used == heavy_set_budget(4, 0.2, DEFAULT_CONFIG)

    def test_point_mass_singleton(self):
        # only the charged atom survives; 100 trials, >= 95 exact hits
        n = 2**12
        p = DiscreteDistribution.point_mass(n, 0)
        hits = 0
        for t in range(100):
            sp, sq = samplers(p, p, 100 + t)
            mix = fair_mix(sp, sq, 200 + t)
            mask, _ = identify_heavy_set(mix, n, 0.2)
            hits += mask[0] and mask.sum() == 1
        assert hits >= 95

    def test_sandwich_on_known_masses(self):
        # elements well above the high threshold always land in S, ones
        # well below the low threshold never do
        n = 1024
        eps = 0.2
        tau = heavy_threshold_unit(n, eps)
        k_heavy = 16
        light = 0.02 * tau  # per-atom tail mass far below the low threshold
        heavy_mass = (1.0 - light * (n - k_heavy)) / k_heavy
        assert 2 * heavy_mass > 40 * tau
        v = np.full(n, light)
        v[:k_heavy] = heavy_mass
        p = DiscreteDistribution(v)
        good = 0
        for t in range(100):
            sp, sq = samplers(p, p, 300 + t)
            mix = fair_mix(sp, sq, 400 + t)
            mask, _ = identify_heavy_set(mix, n, eps)
            s1 = 2 * p.probs >= DEFAULT_CONFIG.c_heavy_low * tau
            s2 = 2 * p.probs >= DEFAULT_CONFIG.c_heavy_high * tau
            good += bool(np.all(mask[s2]) and not np.any(mask[~s1]))
        assert good >= 95

    @pytest.mark.parametrize("eps", [0.2, 0.4])
    @pytest.mark.parametrize("n", [2**10, 2**12, 2**14])
    def test_sure_floor_bound_at_grid_cells(self, n, eps):
        # the (k, theta) the grid suite's cascade asks for: an element at
        # the sure floor falls short of theta with probability <= 2^-60 / n
        calls = []

        class Recording(Sampler):
            def count_at_least(self, k, theta):
                calls.append((k, theta))
                return super().count_at_least(k, theta)

        mix = Recording(DiscreteDistribution.uniform(n), 1)
        mask, _ = identify_heavy_set(mix, n, make_eet_plan(n, eps).eps_internal)
        [(k, theta)] = calls
        p_star = core._sure_floor(k, theta, n)
        assert theta / k < p_star < 1.0
        assert spstats.binom.cdf(math.ceil(theta) - 1, k, p_star) <= 2.0**-60 / n
        # a uniform law's elements are all sure at these cells
        assert 1.0 / n >= p_star and mask.all()

    def test_parameter_validation(self):
        p = DiscreteDistribution.uniform(4)
        sp, sq = samplers(p, p, 1)
        mix = fair_mix(sp, sq, 2)
        with pytest.raises(ParameterOutOfRange):
            identify_heavy_set(mix, 4, 0.0)
        with pytest.raises(ConfigError):
            replace(DEFAULT_CONFIG, mult_heavy=0.0)


class TestMassCompare:
    def test_identical_masses(self):
        p = DiscreteDistribution.uniform(100)
        flags = 0
        for t in range(100):
            sp, sq = samplers(p, p, 500 + t)
            res = mass_compare(sp, sq, np.arange(50), tol=0.1, budget=math.ceil(4 / 0.1**2))
            flags += res.diff_flag
        assert flags <= 10

    def test_disjoint_masses(self):
        p = DiscreteDistribution.point_mass(4, 0)
        q = DiscreteDistribution.point_mass(4, 3)
        sp, sq = samplers(p, q, 7)
        res = mass_compare(sp, sq, np.array([0]), tol=0.1, budget=50)
        assert res.diff_flag
        assert res.samples_used == 100

    def test_gap_detection(self):
        # p(S) = 0.6 vs q(S) = 0.4 at tol 0.1, budget 1e4: flags >= 95/100
        p = DiscreteDistribution([0.6, 0.4])
        q = DiscreteDistribution([0.4, 0.6])
        flags = 0
        for t in range(100):
            sp, sq = samplers(p, q, 900 + t)
            flags += mass_compare(sp, sq, np.array([0]), tol=0.1, budget=10**4).diff_flag
        assert flags >= 95

    def test_budget_validation(self):
        p = DiscreteDistribution.uniform(2)
        sp, sq = samplers(p, p, 1)
        with pytest.raises(ParameterOutOfRange):
            mass_compare(sp, sq, np.array([0]), 0.1, 0)


class TestHellingerCloseness:
    def test_null_accepts(self):
        p = DiscreteDistribution.uniform(1000)
        accepts = sum(
            hellinger_closeness_test(*samplers(p, p, 1000 + t), 1000, 0.1).accepted
            for t in range(200)
        )
        assert accepts >= 170

    def test_disjoint_rejects(self):
        p = DiscreteDistribution.point_mass(8, 0)
        q = DiscreteDistribution.point_mass(8, 1)
        rejects = sum(
            hellinger_closeness_test(*samplers(p, q, 2000 + t), 8, 0.5).rejected
            for t in range(200)
        )
        assert rejects >= 170

    def test_single_atom_accepts(self):
        p = DiscreteDistribution.uniform(1)
        v = hellinger_closeness_test(*samplers(p, p, 1), 1, 0.5)
        assert v.accepted

    def test_eps_validation(self):
        p = DiscreteDistribution.uniform(4)
        with pytest.raises(ParameterOutOfRange):
            hellinger_closeness_test(*samplers(p, p, 1), 4, 0.0)

    def test_threshold_form_in_trace(self):
        p = DiscreteDistribution.uniform(64)
        v = hellinger_closeness_test(*samplers(p, p, 3), 64, 0.2)
        budget = hellinger_budget(64, 0.2, DEFAULT_CONFIG)
        record = v.trace[0]
        assert record.name == "hellinger"
        assert record.threshold == pytest.approx(
            DEFAULT_CONFIG.c_hellinger_reject * math.sqrt(min(64, budget) + 1)
        )


class TestTvCloseness:
    def test_null_accepts(self):
        p = DiscreteDistribution.uniform(1000)
        accepts = sum(
            tv_closeness_test(*samplers(p, p, 3000 + t), 1000, 0.1).accepted for t in range(200)
        )
        assert accepts >= 170

    def test_disjoint_rejects(self):
        p = DiscreteDistribution([1.0, 0.0])
        q = DiscreteDistribution([0.0, 1.0])
        rejects = sum(
            tv_closeness_test(*samplers(p, q, 4000 + t), 2, 0.5).rejected for t in range(200)
        )
        assert rejects >= 170

    def test_single_atom(self):
        p = DiscreteDistribution.uniform(1)
        assert tv_closeness_test(*samplers(p, p, 1), 1, 0.5).accepted

    def test_shares_t_statistic_with_hellinger(self):
        # identical seeds and budgets: the two testers differ only by
        # threshold, so forcing equal budgets makes traces coincide
        cfg = DEFAULT_CONFIG
        p = DiscreteDistribution.uniform(256)
        b_h = hellinger_budget(256, 0.2, cfg)
        v_h = hellinger_closeness_test(*samplers(p, p, 5), 256, 0.2, cfg=cfg)
        v_t = tv_closeness_test(*samplers(p, p, 5), 256, 0.2, cfg=cfg)
        assert v_h.trace[0][0] == "hellinger" and v_t.trace[0][0] == "tv"
        b_t = tv_budget(256, 0.2, cfg)
        assert v_t.trace[0][2] == pytest.approx(cfg.c_T_threshold * math.sqrt(min(256, b_t) + 1))

    def test_seed_determinism(self):
        p = DiscreteDistribution.zipf(100)
        q = DiscreteDistribution.uniform(100)
        a = tv_closeness_test(*samplers(p, q, 42), 100, 0.2)
        b = tv_closeness_test(*samplers(p, q, 42), 100, 0.2)
        assert a.decision == b.decision
        assert a.trace == b.trace
        assert a.samples_used == b.samples_used

    def test_amplified_delta(self):
        p = DiscreteDistribution.uniform(32)
        v = tv_closeness_test(*samplers(p, p, 9), 32, 0.3, delta=0.01)
        assert len(v.trace) == amplification_reps(0.01)

    def test_samples_used_tracks_budget(self):
        # realized draws match the configured Poissonized budget up to
        # Poisson fluctuation
        p = DiscreteDistribution.uniform(500)
        for tester, budget_fn, eps in (
            (tv_closeness_test, tv_budget, 0.2),
            (hellinger_closeness_test, hellinger_budget, 0.2),
        ):
            budget = budget_fn(500, eps, DEFAULT_CONFIG)
            v = tester(*samplers(p, p, 13), 500, eps)
            assert abs(v.samples_used - 2 * budget) <= 8 * math.sqrt(2 * budget)


class TestL2Closeness:
    def test_null_accepts(self):
        p = DiscreteDistribution.uniform(1000)
        accepts = sum(
            l2_closeness_test(*samplers(p, p, 5000 + t), 1000, 0.1).accepted for t in range(200)
        )
        assert accepts >= 170

    def test_far_rejects(self):
        # ||p - q||_2^2 = 2 >= 0.5 = eps_l2^2
        p = DiscreteDistribution([1.0, 0.0])
        q = DiscreteDistribution([0.0, 1.0])
        rejects = sum(
            l2_closeness_test(*samplers(p, q, 6000 + t), 2, math.sqrt(0.5)).rejected
            for t in range(200)
        )
        assert rejects >= 170

    def test_unreachable_threshold_accepts(self):
        p = DiscreteDistribution([1.0, 0.0])
        q = DiscreteDistribution([0.0, 1.0])
        v = l2_closeness_test(*samplers(p, q, 1), 2, math.sqrt(2.0))
        assert v.accepted
        assert v.samples_used == 0

    def test_eps_validation(self):
        p = DiscreteDistribution.uniform(4)
        with pytest.raises(ParameterOutOfRange):
            l2_closeness_test(*samplers(p, p, 1), 4, 0.0)


class TestLowmassConditional:
    def _light_tail_pair(self, n=1024, tail_mass=0.5, same=True):
        # mass `tail_mass` spread over the top half, rest concentrated:
        # the top half is far below the heavy threshold
        k = n // 2
        v = np.zeros(n)
        v[:4] = (1.0 - tail_mass) / 4
        v[k:] = tail_mass / (n - k)
        p = DiscreteDistribution(v)
        if same:
            return p, p, np.arange(k, n)
        w = v.copy()
        w[k : k + (n - k) // 2] = tail_mass / (n - k) * 1.5
        w[k + (n - k) // 2 :] = tail_mass / (n - k) * 0.5
        return p, DiscreteDistribution(w), np.arange(k, n)

    def test_zero_mass_accepts(self):
        p = DiscreteDistribution([0.5, 0.5, 0.0, 0.0])
        sp, sq = samplers(p, p, 1)
        v = lowmass_conditional_test(sp, sq, np.array([2, 3]), 4, 0.2, rng=2)
        assert v.accepted
        assert v.trace[0][0] == "lowmass-mass-floor"

    def test_empty_complement_accepts_before_any_draw(self):
        p = DiscreteDistribution([0.5, 0.5, 0.0, 0.0])
        sp, sq = samplers(p, p, 1)
        states = [s._rng.bit_generator.state for s in (sp, sq)]
        v = lowmass_conditional_test(sp, sq, np.zeros(4, dtype=bool), 4, 0.2, rng=2)
        assert v.accepted
        assert v.trace == [("lowmass-mass-floor", 0.0, 0.0, 0)]
        # neither stream drew
        assert [s._rng.bit_generator.state for s in (sp, sq)] == states

    def test_one_sided_mass_rejects(self):
        p = DiscreteDistribution([0.7, 0.3, 0.0])
        q = DiscreteDistribution([1.0, 0.0, 0.0])
        rejects = 0
        for t in range(100):
            sp, sq = samplers(p, q, 7000 + t)
            v = lowmass_conditional_test(sp, sq, np.array([1]), 3, 0.2, rng=t)
            rejects += v.rejected and v.fired_stage == "lowmass-one-sided"
        assert rejects >= 90

    def test_mass_gap_rejects(self):
        p = DiscreteDistribution([0.5, 0.5, 0.0])
        q = DiscreteDistribution([0.8, 0.2, 0.0])
        rejects = 0
        for t in range(50):
            sp, sq = samplers(p, q, 8000 + t)
            v = lowmass_conditional_test(sp, sq, np.array([1]), 3, 0.2, rng=t)
            rejects += v.rejected
        assert rejects >= 45

    def test_null_with_heavy_tail_reaches_conditional_and_accepts(self):
        p, q, sbar = self._light_tail_pair(same=True)
        accepts = 0
        saw_cond = 0
        for t in range(200):
            sp, sq = samplers(p, q, 9000 + t)
            v = lowmass_conditional_test(sp, sq, sbar, 1024, 0.2, rng=t)
            accepts += v.accepted
            saw_cond += any(record.name == "lowmass-cond-tv" for record in v.trace)
        assert saw_cond == 200  # the cascade reaches the conditional tester
        assert accepts >= 170

    def test_conditional_tv_detects_far_tails(self):
        p, q, sbar = self._light_tail_pair(same=False)
        # conditional TV on the tail is 1/2 at equal tail masses
        rejects = 0
        for t in range(100):
            sp, sq = samplers(p, q, 11000 + t)
            v = lowmass_conditional_test(sp, sq, sbar, 1024, 0.2, rng=t)
            rejects += v.rejected
        assert rejects >= 85

    def test_mass_floored_exact_samplers_reach_conditional_tv(self):
        # the cascade hands this stage mix_sample outputs; over exact-law
        # samplers those are exact Samplers, so stage (iv) takes the
        # negative-binomial path
        p, q, sbar = self._light_tail_pair(same=True)
        sp, sq = samplers(p, q, 9000)
        sp_f, sq_f = mix_sample(sp, 0.2, 1), mix_sample(sq, 0.2, 2)
        v = lowmass_conditional_test(sp_f, sq_f, sbar, 1024, 0.2, rng=3)
        assert v.trace[-1].name == "lowmass-cond-tv"

    def test_empty_sbar_accepts(self):
        p = DiscreteDistribution.uniform(4)
        sp, sq = samplers(p, p, 1)
        v = lowmass_conditional_test(sp, sq, np.zeros(4, dtype=bool), 4, 0.2, rng=1)
        assert v.accepted
