"""End-to-end entropy equivalence testers: the staged cascade, the TV
baseline, and the combined tester."""

import math

import numpy as np
import pytest

from enttest.core import DiscreteDistribution, DomainMismatch, Sampler, entropy
from enttest.instances import make_correlated_pair, make_entropy_gap_pair
from enttest.pipeline import (
    combined_branch_choice,
    combined_budgets,
    make_eet_plan,
    run_eet,
    run_eet_combined,
    run_eet_tv_baseline,
    solve_tv_threshold,
)
from enttest.testers import ParameterOutOfRange


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
        b = plan.budgets
        assert min(b.m_hell, b.m1_mix_total, b.m2_coin, b.m3_mass,
                   b.s_bias, b.m5_guard, b.m5_l2, b.m4_z) >= 1
        assert plan.eps_internal == pytest.approx(0.3 / 8)

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
        assert a.budgets == b.budgets and a.total_nominal == b.total_nominal


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
        stages = [s for s, _, _ in v.trace]
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
            run_eet_tv_baseline(*samplers(p, p, 400 + t), 1024, 0.3, rng=t).accepted
            for t in range(100)
        )
        assert accepts >= 88

    def test_entropy_gap_far_rejects(self):
        # gap log 2 at n = 4096: the TV scale reduction certifies
        # d_TV >= eps_tv, so the TV tester must fire
        p, q = make_entropy_gap_pair(4096, math.log(2))
        rejects = sum(
            run_eet_tv_baseline(*samplers(p, q, 500 + t), 4096, 0.3, rng=t).rejected
            for t in range(100)
        )
        assert rejects >= 88

    def test_eps_validation(self):
        p = DiscreteDistribution.uniform(8)
        with pytest.raises(ParameterOutOfRange):
            run_eet_tv_baseline(*samplers(p, p, 1), 8, 0.7)


class TestCombined:
    def test_branch_matches_budget_comparison(self):
        for n in (64, 1024, 2**14, 2**16, 2**20):
            for eps in (0.05, 0.2, 0.5):
                eet_total, base_total = combined_budgets(n, eps)
                choice = combined_branch_choice(n, eps)
                assert choice == ("tv-baseline" if base_total <= eet_total else "cascade")

    def test_trace_records_branch_and_budgets(self):
        p = DiscreteDistribution.uniform(512)
        v = run_eet_combined(*samplers(p, p, 600), 512, 0.3, rng=1)
        stage, chosen, other = v.trace[0]
        assert str(stage).startswith("combined-branch")
        assert chosen <= other  # chosen branch has the smaller nominal budget

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
