"""Entropy equivalence testing for discrete distributions.

Distinguishes p = q from |H(p) - H(q)| >= eps given samples from both
unknown distributions, at sublinear sample cost; builds a closeness tester
for bounded in-degree Bayesian networks on top; ships the Monte Carlo
harness that calibrates every threshold constant and verifies the
statistical guarantees at desk scale.
"""

from .core import (
    BudgetExhausted,
    DiscreteDistribution,
    Divergences,
    DistributionError,
    DomainMismatch,
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
from .poisson import (
    CountPair,
    FactorialMomentResult,
    NonConvergent,
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
from .testers import (
    DEFAULT_CONFIG,
    ConfigError,
    MassCompareResult,
    Stage,
    TestVerdict,
    ThresholdConfig,
    hellinger_closeness_test,
    identify_heavy_set,
    l2_closeness_test,
    load_config,
    lowmass_conditional_test,
    mass_compare,
    save_config,
    tv_closeness_test,
)
from .pipeline import (
    EetPlan,
    StagePlan,
    combined_budgets,
    make_eet_plan,
    run_eet,
    run_eet_combined,
    run_eet_tv_baseline,
    solve_tv_threshold,
)

__version__ = "0.1.0"
