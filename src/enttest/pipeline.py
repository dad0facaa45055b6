"""End-to-end entropy equivalence testers.

Three entry points:

* :func:`run_eet` — the staged cascade (mass floor, Hellinger screen,
  heavy-set split, low-mass conditional test, bias check, mass/l2 guards,
  and the plug-in entropy-difference statistic Z).
* :func:`run_eet_tv_baseline` — the reduction to plain TV closeness testing
  through the entropy-vs-TV inequality.
* :func:`run_eet_combined` — runs whichever of the two has the smaller
  nominal budget for the given (n, eps); the choice is recorded in the
  verdict trace.

The cascade internally rescales the accuracy parameter to ``eps / 8``: the
mass floor spends part of the gap and the two decomposition splits spend a
factor four, so every stage tests at the rescaled accuracy.  Budgets use
natural logs clamped below at e.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import BudgetExhausted, DomainMismatch, ParameterOutOfRange, check_range, fair_mix, log_ratio, mix_sample
from .poisson import poissonized_counts, statistic_t, statistic_z
from .testers import (
    DEFAULT_CONFIG,
    Stage,
    TestVerdict,
    ThresholdConfig,
    _majority,
    amplification_reps,
    heavy_set_budget,
    hellinger_budget,
    hellinger_closeness_test,
    identify_heavy_set,
    l2_budget,
    l2_closeness_test,
    lowmass_budgets,
    lowmass_conditional_test,
    mass_compare,
    tv_budget,
    tv_closeness_test,
)

EPS_SPLIT = 8.0  # internal accuracy rescaling of the cascade


class StagePlan(NamedTuple):
    """One sampling stage of the cascade: the name its trace record carries,
    its nominal draws per stream, and the streams it draws from (the
    heavy-set pool draws from the fair mixture, one stream)."""

    name: str
    budget: int
    streams: int = 2


@dataclass(frozen=True)
class EetPlan:
    """Deterministic budget plan for one cascade invocation: one
    :class:`StagePlan` per sampling stage, in cascade order."""

    n: int
    eps: float
    delta: float
    cfg: ThresholdConfig
    stages: tuple  # of StagePlan

    @property
    def eps_internal(self) -> float:
        return self.eps / EPS_SPLIT

    @property
    def total_nominal(self) -> int:
        """Nominal draws over every stage, stream and amplification repetition.

        It counts the ``mass-S`` guard's 2 x budget, which a pass whose heavy
        set is [n] or empty does not draw, so such a verdict's
        ``samples_used`` falls below it by that much."""
        return sum(s.budget * s.streams for s in self.stages) * amplification_reps(self.delta)

    @property
    def log_m(self) -> float:
        """log of the Z budget: the stage-5 guards test at eps / log m."""
        return _log_m(self.budget("z"))

    def budget(self, name: str) -> int:
        return next(s.budget for s in self.stages if s.name == name)


def _log_m(m_z: int) -> float:
    return math.log(max(m_z, 3))


@functools.lru_cache(maxsize=256, typed=True)
def make_eet_plan(n: int, eps: float, delta: float = 0.1, cfg: ThresholdConfig = DEFAULT_CONFIG) -> EetPlan:
    """Compute all stage budgets for domain size n at accuracy eps.

    Budgets are ceilings of the asymptotic formulas scaled by the config's
    sample multipliers; the low-mass conditional TV stage has no record
    because its raw-draw cost is data dependent (bounded by its Markov
    cutoff at run time).

    Plans are cached by the value of the arguments: a config compares and
    hashes by value, so every trial of a cell, in any thread or pool
    worker, gets one plan object.  Invalid arguments raise on every call.
    """
    check_range("eps", eps, 0.5)
    check_range("delta", delta)
    if n < 1:
        raise ParameterOutOfRange("domain size must be >= 1")
    e_i = eps / EPS_SPLIT
    log_r = log_ratio(n, e_i)
    n34 = n**0.75
    _, coin_n, m3 = lowmass_budgets(n, e_i, cfg)
    m_z = math.ceil(cfg.mult_z_m4_poly * n34 * log_r / e_i + cfg.mult_z_m4_log * log_r**2 / e_i**2)
    log_m = _log_m(m_z)
    stages = (
        StagePlan("hellinger", hellinger_budget(n, e_i, cfg)),
        StagePlan("heavy-set", heavy_set_budget(n, e_i, cfg), streams=1),
        StagePlan("lowmass-mass-floor", coin_n),
        StagePlan("lowmass-mass-gap", m3),
        StagePlan("bias-T", math.ceil(cfg.mult_bias_s * n34 * log_r / e_i)),
        StagePlan("mass-S", math.ceil(cfg.mult_stage5 * log_m**2 / e_i**2)),
        StagePlan("l2", l2_budget(e_i / log_m, cfg)),
        StagePlan("z", m_z),
    )
    return EetPlan(n=n, eps=eps, delta=delta, cfg=cfg, stages=stages)


def _run_eet_once(sp, sq, plan: EetPlan, rng, trace) -> str | None:
    """One pass of the cascade, appending each stage's record to ``trace``;
    returns the stage that fired, or None."""
    cfg = plan.cfg
    n = plan.n
    e_i = plan.eps_internal
    log_m = plan.log_m

    # stage 0: mass floor both streams (one floored draw costs one raw draw)
    sp_f = mix_sample(sp, e_i, rng.integers(0, 2**63 - 1))
    sq_f = mix_sample(sq, e_i, rng.integers(0, 2**63 - 1))

    # stage 1: Hellinger screen
    v = hellinger_closeness_test(sp_f, sq_f, n, e_i, 0.1, cfg)
    trace.extend(v.trace)
    if v.rejected:
        return "hellinger"

    # stage 2: heavy-set identification off the fair mixture
    mix = fair_mix(sp_f, sq_f, rng.integers(0, 2**63 - 1))
    heavy_mask, used = identify_heavy_set(mix, n, e_i, cfg)
    trace.append(Stage("heavy-set", float(heavy_mask.sum()), float(n), used))

    # stage 3: low-mass cascade on the complement (an empty one accepts
    # before any draw)
    v = lowmass_conditional_test(sp_f, sq_f, ~heavy_mask, n, e_i, cfg, rng)
    trace.extend(v.trace)
    if v.rejected:
        return v.fired_stage

    # stage 4: bias check, T over the heavy set against c_T sqrt(n); T and
    # Z over an empty set are 0, below their positive thresholds, so an
    # empty S draws nothing for them
    empty = not heavy_mask.any()
    t_thr = cfg.c_T_threshold * math.sqrt(n)
    if empty:
        trace.append(Stage("bias-T", 0.0, t_thr, 0))
    else:
        pair = poissonized_counts(sp_f, sq_f, plan.budget("bias-T"))
        t_stat = statistic_t(pair, heavy_mask)
        trace.append(Stage("bias-T", t_stat, t_thr, pair.samples_used))
        if t_stat > t_thr:
            return "bias-T"

    # stage 5: |p(S) - q(S)| and l2 guards at the eps/log(m) scale; the
    # trace records the chosen scale next to the log(n/eps) alternative
    trace.append(Stage("stage5-scale: log-m", e_i / log_m, e_i / log_ratio(n, e_i)))
    guard_tol = cfg.c_massS_diff * e_i / log_m
    if empty or heavy_mask.all():
        # p(S) = q(S) when S is [n] or empty: the guard draws nothing
        trace.append(Stage("mass-S", 0.0, guard_tol, 0))
    else:
        cmp_res = mass_compare(sp_f, sq_f, heavy_mask, guard_tol, plan.budget("mass-S"))
        gap = abs(cmp_res.p_mass_est - cmp_res.q_mass_est)
        trace.append(Stage("mass-S", gap, guard_tol, cmp_res.samples_used))
        if cmp_res.diff_flag:
            return "mass-S"

    v = l2_closeness_test(sp_f, sq_f, n, e_i / log_m, 0.1, cfg)
    trace.extend(v.trace)
    if v.rejected:
        return "l2"

    # stage 6: entropy-difference statistic Z over the heavy set
    z_thr = cfg.c_Z_threshold * e_i
    if empty:
        trace.append(Stage("z", 0.0, z_thr, 0))
        return None
    pair = poissonized_counts(sp_f, sq_f, plan.budget("z"))
    z_stat = statistic_z(pair, heavy_mask)
    trace.append(Stage("z", z_stat, z_thr, pair.samples_used))
    return "z" if abs(z_stat) > z_thr else None


def run_eet(sp, sq, plan: EetPlan, rng=None) -> TestVerdict:
    """Run the full cascade; majority-amplified when plan.delta < 1/10.

    A sample pool running dry in any stage rejects: in the low-mass
    stages as ``lowmass-budget``, elsewhere as ``budget``."""
    if sp.n != plan.n or sq.n != plan.n:
        raise DomainMismatch(f"plan domain {plan.n} != sampler domains {sp.n}, {sq.n}")
    rng = np.random.default_rng(rng)
    trace = []
    fired = []
    for _ in range(amplification_reps(plan.delta)):
        try:
            fired.append(_run_eet_once(sp, sq, plan, rng, trace))
        except BudgetExhausted as exc:
            # only the completed stages' samples count
            trace.append(Stage("budget", float(exc.consumed), 0.0))
            fired.append("budget")
    if _majority([stage is not None for stage in fired]):
        return TestVerdict("reject", next(stage for stage in fired if stage), trace)
    return TestVerdict("accept", None, trace)


# ---------------------------------------------------------------------------
# TV-reduction baseline
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=256, typed=True)
def solve_tv_threshold(n: int, eps: float) -> float:
    """Root of x log(n/x) = eps on (0, 1/2], by monotone bisection to
    within 1e-12.

    Any pair with |H(p) - H(q)| >= eps has TV distance at least this root,
    so testing TV at the root is sound for the entropy promise.  Cached by
    value, as :func:`make_eet_plan`.
    """
    check_range("eps", eps, 0.5)
    f = lambda x: x * math.log(n / x)
    lo, hi = 1e-15, 0.5
    if f(hi) < eps:
        return hi  # tiny domains: test at the largest admissible scale
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < eps:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12:
            break
    return 0.5 * (lo + hi)


def tv_baseline_budget(n: int, eps: float, delta: float, cfg: ThresholdConfig) -> int:
    """Nominal total (both streams) of the TV-reduction tester."""
    if n == 1:
        return 0
    eps_tv = solve_tv_threshold(n, eps)
    return 2 * tv_budget(n, eps_tv, cfg) * amplification_reps(delta)


def run_eet_tv_baseline(sp, sq, n: int, eps: float, delta: float = 0.1, cfg: ThresholdConfig = DEFAULT_CONFIG) -> TestVerdict:
    """Entropy equivalence via a plain TV closeness test at the reduced scale."""
    check_range("eps", eps, 0.5)
    eps_tv = solve_tv_threshold(n, eps)
    verdict = tv_closeness_test(sp, sq, n, eps_tv, delta, cfg)
    trace = [Stage("tv-baseline-scale", eps_tv, eps)] + verdict.trace
    if verdict.rejected:
        return TestVerdict("reject", "tv-baseline", trace)
    return TestVerdict("accept", None, trace)


# ---------------------------------------------------------------------------
# Combined tester
# ---------------------------------------------------------------------------


def combined_budgets(n: int, eps: float, delta: float = 0.1, cfg: ThresholdConfig = DEFAULT_CONFIG) -> tuple[int, int]:
    """(cascade nominal, baseline nominal) total budgets for the pair."""
    return make_eet_plan(n, eps, delta, cfg).total_nominal, tv_baseline_budget(n, eps, delta, cfg)


def combined_branch(n: int, eps: float, delta: float = 0.1, cfg: ThresholdConfig = DEFAULT_CONFIG) -> tuple[str, int, int]:
    """(branch, its nominal total, the other branch's) of :func:`run_eet_combined`:
    ``"tv-baseline"`` when its total is at most the cascade's (and n > 1),
    else ``"cascade"``."""
    eet_total, base_total = combined_budgets(n, eps, delta, cfg)
    if n > 1 and base_total <= eet_total:
        return "tv-baseline", base_total, eet_total
    return "cascade", eet_total, base_total


def run_eet_combined(sp, sq, n: int, eps: float, delta: float = 0.1, cfg: ThresholdConfig = DEFAULT_CONFIG, rng=None) -> TestVerdict:
    """Run whichever of the cascade and the TV baseline is nominally cheaper
    (:func:`combined_branch`).

    The leading trace record notes both nominal budgets (the chosen branch's
    as its statistic) and draws no samples.
    """
    rng = np.random.default_rng(rng)
    branch, total, other = combined_branch(n, eps, delta, cfg)
    if branch == "tv-baseline":
        verdict = run_eet_tv_baseline(sp, sq, n, eps, delta, cfg)
    else:
        verdict = run_eet(sp, sq, make_eet_plan(n, eps, delta, cfg), rng)
    verdict.trace.insert(0, Stage(f"combined-branch: {branch}", float(total), float(other)))
    return verdict
