"""The entropy equivalence tester end to end.

Runs the staged cascade and the TV-reduction baseline on equal and
entropy-separated pairs, shows the per-stage trace, and lets the combined
tester pick the cheaper branch.
"""

from enttest import DiscreteDistribution, Sampler, make_eet_plan, run_eet, run_eet_combined
from enttest.instances import make_correlated_pair, make_entropy_gap_pair

n, eps = 4096, 0.3
plan = make_eet_plan(n, eps)
print(f"cascade plan at n={n}, eps={eps}: internal accuracy {plan.eps_internal}")
for stage in plan.stages:  # one record per sampling stage, in cascade order
    print(f"  {stage.name:20s} {stage.budget:>12,} draws x {stage.streams} stream(s)")
print(f"  nominal total: {plan.total_nominal:,} samples")

# Equal distributions: the cascade should accept.
uniform = DiscreteDistribution.uniform(n)
v = run_eet(Sampler(uniform, 1), Sampler(uniform, 2), plan, rng=3)
print(f"\nnull verdict: {v.decision} ({v.samples_used:,} samples)")
for record in v.trace:
    print(f"  {record.name:22s} stat {record.statistic:12.4f}  threshold {record.threshold:12.4f}")

# An entropy gap of exactly eps: the cascade should reject.
far_p, far_q = make_entropy_gap_pair(n, eps)
v = run_eet(Sampler(far_p, 4), Sampler(far_q, 5), plan, rng=6)
print(f"\nentropy-gap verdict: {v.decision} at stage {v.fired_stage!r}")

# A correlated joint vs the product of its marginals (gap = the mutual
# information), driven through the combined tester.
pair = make_correlated_pair(n // 2, 2, eps)
v = run_eet_combined(
    Sampler(pair.joint, 7), Sampler(pair.product_of_marginals(), 8), n, eps, rng=9
)
print(f"\nMI-instance verdict: {v.decision}; branch entry: {v.trace[0].name}")

# Acceptance rates over repeated trials.
accepts = sum(
    run_eet(Sampler(uniform, 2 * t), Sampler(uniform, 2 * t + 1), plan, rng=t).accepted
    for t in range(40)
)
rejects = sum(
    run_eet(Sampler(far_p, 3 * t), Sampler(far_q, 3 * t + 1), plan, rng=t).rejected
    for t in range(40)
)
print(f"\nover 40 trials: null accepted {accepts}/40, far rejected {rejects}/40")
