"""End-to-end entropy equivalence testers: the staged cascade, the TV
baseline, and the combined tester."""

import copy
import hashlib
import math
import pickle

from dataclasses import replace

import numpy as np
import pytest

from enttest import pipeline
from enttest.core import (
    DiscreteDistribution,
    DomainMismatch,
    MassFloorSampler,
    Sampler,
    StreamSampler,
    entropy,
)
from enttest.instances import make_correlated_pair, make_entropy_gap_pair
from enttest.pipeline import (
    combined_budgets,
    make_eet_plan,
    run_eet,
    run_eet_combined,
    run_eet_tv_baseline,
    solve_tv_threshold,
)
from enttest.testers import (
    DEFAULT_CONFIG,
    ParameterOutOfRange,
    amplification_reps,
    l2_closeness_test,
    lowmass_conditional_test,
)


def samplers(p, q, seed):
    a, b = np.random.SeedSequence(seed).spawn(2)
    return Sampler(p, a), Sampler(q, b)


class TestEetPlan:
    def test_eps_validation(self):
        with pytest.raises(ParameterOutOfRange):
            make_eet_plan(100, 0.7)
        with pytest.raises(ParameterOutOfRange):
            make_eet_plan(100, 0.0)

    def test_budgets_positive(self):
        plan = make_eet_plan(4096, 0.3)
        assert [s.name for s in plan.stages] == [
            "hellinger", "heavy-set", "lowmass-mass-floor", "lowmass-mass-gap", "bias-T", "mass-S", "l2", "z",
        ]
        assert min(s.budget for s in plan.stages) >= 1
        assert [s.streams for s in plan.stages] == [2, 1, 2, 2, 2, 2, 2, 2]
        assert plan.eps_internal == pytest.approx(0.3 / 8)

    @pytest.mark.parametrize(
        "n, totals",
        [(2**10, (67356551, 14791212)), (2**12, (81332964, 20072901)), (2**14, (116321259, 35266862))],
    )
    def test_total_nominal_pinned(self, n, totals):
        assert (make_eet_plan(n, 0.2).total_nominal, make_eet_plan(n, 0.4).total_nominal) == totals

    def test_total_nominal_counts_amplification(self):
        plan = make_eet_plan(64, 0.3, delta=0.01)
        assert plan.total_nominal == make_eet_plan(64, 0.3).total_nominal * amplification_reps(0.01)
        assert combined_budgets(64, 0.3) == (21271985, 154030)

    def test_budget_monotonicity(self):
        # non-decreasing in n, non-increasing in eps
        for eps in (0.2, 0.3, 0.4):
            totals = [make_eet_plan(n, eps).total_nominal for n in (2**10, 2**12, 2**14, 2**16)]
            assert totals == sorted(totals)
        for n in (2**10, 2**14):
            totals = [make_eet_plan(n, eps).total_nominal for eps in (0.5, 0.4, 0.3, 0.2)]
            assert totals == sorted(totals)

    def test_deterministic(self):
        a = make_eet_plan(1000, 0.25)
        b = make_eet_plan(1000, 0.25)
        assert a.stages == b.stages and a.total_nominal == b.total_nominal


class TestPlanCache:
    def test_equal_config_gets_the_same_plan(self):
        cfg = replace(DEFAULT_CONFIG, mult_tv=16.0)
        plan = make_eet_plan(2**12, 0.3, 0.1, cfg)
        for twin in (copy.deepcopy(cfg), pickle.loads(pickle.dumps(cfg))):
            assert twin is not cfg and twin == cfg and hash(twin) == hash(cfg)
            assert make_eet_plan(2**12, 0.3, 0.1, twin) is plan

    def test_changed_multiplier_gets_a_new_plan(self):
        plan = make_eet_plan(2**12, 0.3)
        other = make_eet_plan(2**12, 0.3, 0.1, replace(DEFAULT_CONFIG, mult_bias_s=8.0))
        assert other is not plan
        assert other.budget("bias-T") > plan.budget("bias-T")
        assert other.cfg.mult_bias_s == 8.0

    def test_invalid_arguments_raise_on_every_call(self):
        for _ in range(2):
            with pytest.raises(ParameterOutOfRange):
                make_eet_plan(100, 0.7)
            with pytest.raises(ParameterOutOfRange):
                solve_tv_threshold(100, 0.0)

    def test_cached_threshold_is_the_bisection_root(self):
        x = solve_tv_threshold(2**14, 0.3)
        assert solve_tv_threshold(2**14, 0.3) == x
        assert solve_tv_threshold.__wrapped__(2**14, 0.3) == x

    def test_bisection_tolerance_is_not_a_parameter(self):
        with pytest.raises(TypeError):
            solve_tv_threshold(2**14, 0.3, tol=1e-6)


class TestRunEet:
    def test_null_uniform_accepts(self):
        p = DiscreteDistribution.uniform(4096)
        plan = make_eet_plan(4096, 0.3)
        accepts = sum(
            run_eet(*samplers(p, p, 100 + t), plan, rng=t).accepted for t in range(60)
        )
        assert accepts >= 52  # 0.85 target measured at reduced trials

    def test_half_support_far_rejects(self):
        # H gap log 2 ~ 0.693 >= eps = 0.3
        q = DiscreteDistribution.uniform(4096)
        half = np.zeros(4096)
        half[:2048] = 1 / 2048
        p = DiscreteDistribution(half)
        assert entropy(q) - entropy(p) == pytest.approx(math.log(2))
        plan = make_eet_plan(4096, 0.3)
        rejects = sum(
            run_eet(*samplers(p, q, 200 + t), plan, rng=t).rejected for t in range(60)
        )
        assert rejects >= 52

    def test_trace_records_stages(self):
        p = DiscreteDistribution.uniform(256)
        plan = make_eet_plan(256, 0.3)
        v = run_eet(*samplers(p, p, 5), plan, rng=6)
        stages = [record.name for record in v.trace]
        assert "hellinger" in stages
        assert "heavy-set" in stages
        assert "bias-T" in stages
        assert "z" in stages

    def test_seed_determinism(self):
        p = DiscreteDistribution.zipf(512)
        plan = make_eet_plan(512, 0.25)
        a = run_eet(*samplers(p, p, 9), plan, rng=10)
        b = run_eet(*samplers(p, p, 9), plan, rng=10)
        assert a.decision == b.decision and a.trace == b.trace

    def test_reject_names_single_stage(self):
        q = DiscreteDistribution.uniform(1024)
        p, _ = make_entropy_gap_pair(1024, 0.5)
        plan = make_eet_plan(1024, 0.5)
        for t in range(10):
            v = run_eet(*samplers(p, q, 300 + t), plan, rng=t)
            if v.rejected:
                assert isinstance(v.fired_stage, str) and v.fired_stage

    def test_amplified_delta_majority(self):
        p = DiscreteDistribution.uniform(64)
        plan = make_eet_plan(64, 0.4, delta=0.02)
        v = run_eet(*samplers(p, p, 11), plan, rng=12)
        assert v.accepted

    def test_plan_domain_must_match_samplers(self):
        p = DiscreteDistribution.uniform(8)
        plan = make_eet_plan(16, 0.3)
        with pytest.raises(DomainMismatch):
            run_eet(*samplers(p, p, 13), plan, rng=14)
        big = DiscreteDistribution.uniform(16)
        sp, _ = samplers(big, big, 15)
        _, sq = samplers(p, p, 15)
        with pytest.raises(DomainMismatch):
            run_eet(sp, sq, plan, rng=16)


class TestTvBaseline:
    def test_threshold_root_by_substitution(self):
        # the root of x log(n/x) = eps, certified by plugging back in
        for n, eps in ((100, 0.5), (4096, 0.3), (2**16, 0.2)):
            x = solve_tv_threshold(n, eps)
            assert x * math.log(n / x) == pytest.approx(eps, abs=1e-9)
        # pinned value for (100, 0.5); the defining equation is the oracle
        assert solve_tv_threshold(100, 0.5) == pytest.approx(0.06864, abs=1e-4)

    def test_null_accepts(self):
        p = DiscreteDistribution.uniform(1024)
        accepts = sum(
            run_eet_tv_baseline(*samplers(p, p, 400 + t), 1024, 0.3).accepted
            for t in range(100)
        )
        assert accepts >= 88

    def test_entropy_gap_far_rejects(self):
        # gap log 2 at n = 4096: the TV scale reduction certifies
        # d_TV >= eps_tv, so the TV tester must fire
        p, q = make_entropy_gap_pair(4096, math.log(2))
        rejects = sum(
            run_eet_tv_baseline(*samplers(p, q, 500 + t), 4096, 0.3).rejected
            for t in range(100)
        )
        assert rejects >= 88

    def test_eps_validation(self):
        p = DiscreteDistribution.uniform(8)
        with pytest.raises(ParameterOutOfRange):
            run_eet_tv_baseline(*samplers(p, p, 1), 8, 0.7)


class TestCombined:
    def test_branch_matches_budget_comparison(self):
        # the tester takes the branch with the smaller nominal budget; a
        # costlier TV budget sends it to the cascade
        taken = set()
        for cfg in (DEFAULT_CONFIG, replace(DEFAULT_CONFIG, mult_tv=1e4)):
            for n in (64, 1024, 2**14):
                for eps in (0.2, 0.5):
                    eet_total, base_total = combined_budgets(n, eps, cfg=cfg)
                    p = DiscreteDistribution.uniform(n)
                    branch = run_eet_combined(*samplers(p, p, n), n, eps, cfg=cfg, rng=0).trace[0]
                    want = "tv-baseline" if base_total <= eet_total else "cascade"
                    assert branch.name == f"combined-branch: {want}"
                    taken.add(want)
        assert taken == {"tv-baseline", "cascade"}

    def test_trace_records_branch_and_budgets(self):
        p = DiscreteDistribution.uniform(512)
        v = run_eet_combined(*samplers(p, p, 600), 512, 0.3, rng=1)
        branch = v.trace[0]
        assert branch.name.startswith("combined-branch")
        assert branch.statistic <= branch.threshold  # chosen branch has the smaller nominal budget
        assert branch.samples == 0

    def test_null_accepts_either_branch(self):
        p = DiscreteDistribution.uniform(256)
        accepts = sum(
            run_eet_combined(*samplers(p, p, 700 + t), 256, 0.3, rng=t).accepted
            for t in range(100)
        )
        assert accepts >= 88

    def test_mi_far_rejects(self):
        pair = make_correlated_pair(512, 2, 0.4)
        p, q = pair.joint, pair.product_of_marginals()
        rejects = sum(
            run_eet_combined(*samplers(p, q, 800 + t), 1024, 0.4, rng=t).rejected
            for t in range(100)
        )
        assert rejects >= 88

    def test_eps_validation(self):
        p = DiscreteDistribution.uniform(8)
        with pytest.raises(ParameterOutOfRange):
            run_eet_combined(*samplers(p, p, 1), 8, 0.6)


class TestLightTailNull:
    # 99% of the mass on 100 atoms, 1% over the other 3,996: the light part
    # is below the heavy threshold but above the low-mass floor, so the
    # cascade runs the conditional TV stage on mass-floored exact samplers,
    # and its trace reaches every sampling stage
    N = 4096

    def _run(self):
        v = np.full(self.N, 0.01 / (self.N - 100))
        v[:100] = 0.99 / 100
        d = DiscreteDistribution(v)
        plan = make_eet_plan(self.N, 0.5)
        return plan, run_eet(*samplers(d, d, 1), plan, rng=3)

    def test_cascade_runs_the_conditional_stage(self):
        _, verdict = self._run()
        stages = [record.name for record in verdict.trace]
        assert "lowmass-cond-tv" in stages
        assert stages[-1] == "z"

    def test_plan_matches_the_run(self):
        plan, verdict = self._run()
        drawn = {record.name: record.samples for record in verdict.trace}
        heavy = next(record.statistic for record in verdict.trace if record.name == "heavy-set")
        assert 0 < heavy < self.N  # so the mass-S guard draws
        assert {stage.name for stage in plan.stages} <= set(drawn)
        # the stages that draw fixed counts record exactly their planned draws
        for stage in plan.stages:
            if stage.name in ("heavy-set", "lowmass-mass-floor", "lowmass-mass-gap", "mass-S"):
                assert drawn[stage.name] == stage.streams * stage.budget


class TestMassGuardSkip:
    # p(S) = q(S) when the heavy set S is [n] or empty, so the mass-S guard
    # records a gap of 0 and draws nothing

    def _hits_calls(self, monkeypatch):
        calls = []
        hits = Sampler.binomial_hits
        monkeypatch.setattr(Sampler, "binomial_hits", lambda self, k, s: calls.append(k) or hits(self, k, s))
        return calls

    def _guard(self, verdict):
        (record,) = [record for record in verdict.trace if record.name == "mass-S"]
        return record

    def test_whole_domain(self, monkeypatch):
        # the eet-null golden law: uniform on 256 atoms, every atom heavy
        calls = self._hits_calls(monkeypatch)
        plan = make_eet_plan(256, 0.5)
        v = run_eet(*samplers(_U256, _U256, 1), plan, rng=2)
        assert ("heavy-set", 256.0) in [(record.name, record.statistic) for record in v.trace]
        assert self._guard(v) == ("mass-S", 0.0, plan.cfg.c_massS_diff * plan.eps_internal / plan.log_m, 0)
        assert calls == []

    def test_whole_domain_low_mass_record(self, monkeypatch):
        # the low-mass complement is empty: the cascade hands it to
        # lowmass_conditional_test, whose accept record it keeps as is
        masks = []
        lowmass = pipeline.lowmass_conditional_test
        monkeypatch.setattr(pipeline, "lowmass_conditional_test",
                            lambda sp, sq, sbar, *args: masks.append(sbar) or lowmass(sp, sq, sbar, *args))
        v = run_eet(*samplers(_U256, _U256, 1), make_eet_plan(256, 0.5), rng=2)
        assert [mask.any() for mask in masks] == [False]
        low = [record for record in v.trace if record.name.startswith("lowmass")]
        assert low == [("lowmass-mass-floor", 0.0, 0.0, 0)]

    def test_empty_heavy_set(self, monkeypatch):
        # the low-mass stages run on all of [n] and draw their coins; the
        # guard draws nothing, and neither do bias-T and z, whose
        # statistics over an empty set are 0
        heavy = pipeline.identify_heavy_set
        monkeypatch.setattr(pipeline, "identify_heavy_set",
                            lambda mix, n, eps, cfg: (np.zeros(n, dtype=bool), heavy(mix, n, eps, cfg)[1]))
        counts = []
        draw = pipeline.poissonized_counts
        monkeypatch.setattr(pipeline, "poissonized_counts", lambda sp, sq, m: counts.append(m) or draw(sp, sq, m))
        plan = make_eet_plan(256, 0.5)
        v = run_eet(*samplers(_U256, _U256, 1), plan, rng=2)
        assert v.accepted
        assert "lowmass-mass-floor" in [record.name for record in v.trace]
        assert self._guard(v)[1::2] == (0.0, 0)
        records = {record.name: record for record in v.trace}
        assert records["bias-T"] == ("bias-T", 0.0, plan.cfg.c_T_threshold * math.sqrt(256), 0)
        assert records["z"] == ("z", 0.0, plan.cfg.c_Z_threshold * plan.eps_internal, 0)
        assert counts == []


# ---------------------------------------------------------------------------
# Golden verdicts: every field of a verdict of the cascade, the TV baseline,
# the combined tester, the l2 test and the low-mass cascade is pinned, so a
# change in RNG consumption, in a statistic's bits or in the vote rule shows
# up here.
# ---------------------------------------------------------------------------

_U256 = DiscreteDistribution.uniform(256)
_GAP = make_entropy_gap_pair(256, 0.5)
_U1 = DiscreteDistribution.uniform(1)
_SKEW64 = DiscreteDistribution([0.5, 0.3, 0.2] + [0.0] * 61)


def _lowmass_on_pools(pool_size):
    # two stream pools behind mass floors: every count-level draw consumes
    # pool samples, so the conditional TV stage runs the literal rejection
    # loop; 17,100 samples run dry in its second chunk, 100,000 do not, and
    # 2,000 run dry before it, in the stage (iii) mass comparison
    n, eps = 64, 0.3
    draws = np.random.default_rng(5).integers(0, n, size=(2, 100_000))[:, :pool_size]
    sp, sq = (
        MassFloorSampler(StreamSampler(draws[i], n, rng_seed=i + 1), eps, 10 + i) for i in (0, 1)
    )
    return lowmass_conditional_test(sp, sq, np.arange(n) >= n // 2, n, eps, rng=3)


GOLDEN_CASES = {
    "eet-null": lambda: run_eet(*samplers(_U256, _U256, 1), make_eet_plan(256, 0.5), rng=2),
    "eet-far": lambda: run_eet(*samplers(*_GAP, 1), make_eet_plan(256, 0.5), rng=2),
    "eet-null-amplified": lambda: run_eet(
        *samplers(_U256, _U256, 1), make_eet_plan(256, 0.5, 0.01), rng=2
    ),
    "eet-far-amplified": lambda: run_eet(*samplers(*_GAP, 1), make_eet_plan(256, 0.5, 0.01), rng=2),
    "tv-baseline": lambda: run_eet_tv_baseline(*samplers(*_GAP, 3), 256, 0.5),
    "combined-tv-baseline": lambda: run_eet_combined(*samplers(_U256, _U256, 5), 256, 0.5, rng=6),
    "combined-cascade": lambda: run_eet_combined(*samplers(_U1, _U1, 7), 1, 0.5, rng=8),
    "l2-far": lambda: l2_closeness_test(
        *samplers(_SKEW64, DiscreteDistribution.uniform(64), 9), 64, 0.3
    ),
    "l2-null-amplified": lambda: l2_closeness_test(
        *samplers(_SKEW64, _SKEW64, 10), 64, 0.3, delta=0.01
    ),
    "lowmass-budget": lambda: _lowmass_on_pools(17_100),
    "lowmass-budget-screen": lambda: _lowmass_on_pools(2_000),
    "lowmass-cond-tv": lambda: _lowmass_on_pools(100_000),
}

# name -> (decision, fired_stage, samples_used, trace); traces longer than 12
# entries are pinned by the SHA-256 of their canonical repr
GOLDEN = {
    "eet-null": ("accept", None, 4315580, [
        ("hellinger", 1.8993348932317815, 64.1248781675256),
        ("heavy-set", 256.0, 256.0),
        ("lowmass-mass-floor", 0.0, 0.0),
        ("bias-T", -11.690213683783018, 64.0),
        ("stage5-scale: log-m", 0.004707276876404423, 0.007514036671296685),
        ("mass-S", 0.0, 0.004707276876404423),
        ("l2", -1.6966156595403913e-07, 1.107922779556589e-05),
        ("z", 0.050325314965184643, 0.0625),
    ]),
    "eet-far": ("reject", "hellinger", 4005, [
        ("hellinger", 875.4686701846291, 64.1248781675256),
    ]),
    "eet-null-amplified": ("accept", None, 354309528, "6e9293a70b2fbd61354dfc0f1991b13ccddb745686058f2a17675375e0bb27a5"),
    "eet-far-amplified": ("reject", "hellinger", 340328, "53baf56d2d0c74fe436c1a82266c4ea67427035e8f7d96fb2b83ade52fcd9603"),
    "tv-baseline": ("reject", "tv-baseline", 143615, [
        ("tv-baseline-scale", 0.05979412680289985, 0.5),
        ("tv", 34893.57917476326, 64.1248781675256),
    ]),
    "combined-tv-baseline": ("accept", None, 143264, [
        ("combined-branch: tv-baseline", 143204.0, 7496576.0),
        ("tv-baseline-scale", 0.05979412680289985, 0.5),
        ("tv", 0.810488937112126, 64.1248781675256),
    ]),
    "combined-cascade": ("accept", None, 2128117, [
        ("combined-branch: cascade", 4163256.0, 0.0),
        ("hellinger", 0.0, 0.0),
        ("heavy-set", 1.0, 1.0),
        ("lowmass-mass-floor", 0.0, 0.0),
        ("bias-T", 0.015228426395939087, 4.0),
        ("stage5-scale: log-m", 0.0056551415907413385, 0.022542110013890053),
        ("mass-S", 0.0, 0.0056551415907413385),
        ("l2", -1.9117342759998396e-06, 1.5990313205666238e-05),
        ("z", 0.001303481021053745, 0.0625),
    ]),
    "l2-far": ("reject", "l2", 684, [
        ("l2", 0.3595032192904936, 0.045),
    ]),
    "l2-null-amplified": ("accept", None, 59138, "4ea92c362f4ebc90e358953141d727f295490aa4ea746c0a95e28617655c0843"),
    "lowmass-budget": ("reject", "lowmass-budget", 35998, [
        ("lowmass-mass-floor", 0.5018939393939394, 0.08391051511067207),
        ("lowmass-mass-gap", 0.006257332811888894, 0.05594034340711472),
        ("lowmass-budget", 29828.0, 234384.0),
    ]),
    "lowmass-budget-screen": ("reject", "lowmass-budget", 1056, [
        ("lowmass-mass-floor", 0.5018939393939394, 0.08391051511067207),
        ("lowmass-budget", 502.0, 0.0),
    ]),
    "lowmass-cond-tv": ("accept", None, 36062, [
        ("lowmass-mass-floor", 0.5018939393939394, 0.08391051511067207),
        ("lowmass-mass-gap", 0.006257332811888894, 0.05594034340711472),
        ("lowmass-cond-tv", -6.827727866814778, 22.978250586152114),
    ]),
}


# each record's samples, for the cases pinned record by record; they sum to
# the pinned samples_used
GOLDEN_SAMPLES = {
    "eet-null": [4071, 188922, 0, 67550, 0, 0, 2887919, 1167118],
    "eet-far": [4005],
    "tv-baseline": [0, 143615],
    "combined-tv-baseline": [0, 0, 143264],
    "combined-cascade": [0, 0, 178, 0, 394, 0, 0, 2001668, 125877],
    "l2-far": [684],
    "lowmass-budget": [1056, 5114, 29828],
    "lowmass-budget-screen": [1056, 0],
    "lowmass-cond-tv": [1056, 5114, 29892],
}


def _canonical(trace):
    return [(str(record.name), float(record.statistic), float(record.threshold)) for record in trace]


class TestGoldenVerdicts:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_verdict_pinned(self, name):
        decision, fired, samples, trace = GOLDEN[name]
        v = GOLDEN_CASES[name]()
        assert (v.decision, v.fired_stage, v.samples_used) == (decision, fired, samples)
        got = _canonical(v.trace)
        if isinstance(trace, str):
            got = hashlib.sha256(repr(got).encode()).hexdigest()
        else:
            assert [record.samples for record in v.trace] == GOLDEN_SAMPLES[name]
        assert got == trace


class TestDryPool:
    def _pools(self, n):
        # the low-mass golden cases' 2,000-sample pools, without the mass floor
        draws = np.random.default_rng(5).integers(0, n, size=(2, 100_000))[:, :2_000]
        return [StreamSampler(draws[i], n, rng_seed=i + 1) for i in (0, 1)]

    def test_cascade_rejects_as_budget(self):
        # the pools run dry in the heavy-set stage, after the Hellinger
        # screen; only the screen's samples count
        v = run_eet(*self._pools(64), make_eet_plan(64, 0.3), rng=3)
        assert (v.decision, v.fired_stage) == ("reject", "budget")
        assert [record.name for record in v.trace] == ["hellinger", "budget"]
        assert v.trace[-1] == ("budget", 1202.0, 0.0, 0)
        assert v.samples_used == v.trace[0].samples == 2_444

    def test_every_amplified_run_ends_in_budget(self):
        v = run_eet(*self._pools(64), make_eet_plan(64, 0.3, 0.01), rng=3)
        assert (v.decision, v.fired_stage) == ("reject", "budget")
        budget = [record for record in v.trace if record.name == "budget"]
        assert len(budget) == amplification_reps(0.01)
        assert all(record.samples == 0 for record in budget)
