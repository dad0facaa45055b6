"""Reusable sub-testers: heavy-set identification, mass comparison, and the
T-statistic closeness tests (Hellinger / TV / l2), plus the low-mass
conditional cascade.

Every threshold the theory leaves inside an O(.) or Omega(.) lives in
:class:`ThresholdConfig`.  The shipped defaults were frozen by the
calibration protocol (see ``experiments.calibrate``): thresholds are chosen
so the null (p = q, uniform reference) accepts in >= 90% of 400 trials while
the far calibration family rejects in >= 90%, doubling a tester's sample
multiplier whenever no threshold satisfies both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .core import (
    LOG_FLOOR,
    BudgetExhausted,
    ParameterOutOfRange,
    Sampler,
    _as_mask,
    check_range,
    conditional_rejection_sample,
    log_ratio,
)
from .poisson import poissonized_counts, statistic_l2, statistic_t


class ConfigError(ValueError):
    """Malformed threshold-config file or unknown key."""


@dataclass(frozen=True)
class ThresholdConfig:
    """Every constant hidden by the theory's asymptotic notation, one field
    per config-file key, in the file's line order.

    ``c_heavy_low``/``c_heavy_high`` play the roles of the two heavy-set
    constants (the high one at least twice the low one); the remaining
    ``c_*`` fields are statistic thresholds; each ``mult_*`` field scales
    one sub-test's asymptotic budget formula.  Every field must be finite
    and strictly positive.  Change a value with ``dataclasses.replace``.
    A config compares and hashes by value, so plan caches
    (``pipeline.make_eet_plan``) hit on an equal config unpickled in a pool
    worker.
    """

    c_hellinger_reject: float = 4.0
    c_heavy_low: float = 1.0
    c_heavy_high: float = 2.0
    c_lowmass_mass: float = 1.0
    c_mass_diff: float = 1.0
    c_T_threshold: float = 4.0
    c_l2_threshold: float = 0.5
    c_massS_diff: float = 1.0
    c_Z_threshold: float = 1.0
    c_dec: float = 4.0
    # calibrated 2026-08-08 (seed 20260808, protocol in experiments.calibrate)
    mult_hellinger: float = 2.0
    mult_tv: float = 16.0
    mult_l2: float = 32.0
    mult_heavy: float = 2.0
    mult_lowmass_mass: float = 8.0
    mult_mass_diff: float = 8.0
    mult_bias_s: float = 4.0
    mult_stage5: float = 32.0
    mult_z_m4_poly: float = 2.0
    mult_z_m4_log: float = 32.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{f.name} must be finite and strictly positive, got {value!r}")
        if self.c_heavy_high < 2 * self.c_heavy_low:
            raise ConfigError("c_heavy_high must be at least 2 * c_heavy_low")


DEFAULT_CONFIG = ThresholdConfig()


def save_config(cfg: ThresholdConfig, path, header_lines=()):
    with open(path, "w") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        for f in fields(cfg):
            fh.write(f"{f.name} = {getattr(cfg, f.name)!r}\n")


def load_config(path) -> ThresholdConfig:
    keys = {f.name for f in fields(ThresholdConfig)}
    values, lines = {}, {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in keys:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in lines:
                raise ConfigError(f"{path}:{lineno}: {key} set twice, on lines {lines[key]} and {lineno}")
            lines[key] = lineno
            try:
                values[key] = float(value.strip())
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}") from exc
    return ThresholdConfig(**values)


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


class Stage(NamedTuple):
    """One trace record: a stage's statistic against its threshold, and the
    samples the stage drew (0 for a record that only notes a choice)."""

    name: str
    statistic: float
    threshold: float
    samples: int = 0


@dataclass
class TestVerdict:
    """Accept/reject outcome with its per-stage trace of :class:`Stage` records."""

    decision: str  # "accept" | "reject"
    fired_stage: str | None
    trace: list  # of Stage

    def __post_init__(self):
        if self.decision not in ("accept", "reject"):
            raise ValueError(f"bad decision {self.decision!r}")
        if self.decision == "reject" and not self.fired_stage:
            raise ValueError("reject verdicts must name the firing stage")
        if self.decision == "accept" and self.fired_stage:
            raise ValueError("accept verdicts must not name a firing stage")

    @property
    def samples_used(self) -> int:
        return sum(record.samples for record in self.trace)

    @property
    def accepted(self) -> bool:
        return self.decision == "accept"

    @property
    def rejected(self) -> bool:
        return self.decision == "reject"


def _majority(votes, axis=-1):
    """True where a strict majority of the boolean ``votes`` along ``axis`` is."""
    votes = np.asarray(votes)
    return 2 * np.count_nonzero(votes, axis=axis) > votes.shape[axis]


def amplification_reps(delta: float) -> int:
    """Independent repetitions for majority amplification below delta = 1/10."""
    check_range("delta", delta)
    if delta >= 0.1:
        return 1
    k = math.ceil(18.0 * math.log(1.0 / delta))
    return k + 1 if k % 2 == 0 else k


# ---------------------------------------------------------------------------
# Heavy-set identification
# ---------------------------------------------------------------------------


def heavy_threshold_unit(n: int, eps: float) -> float:
    """tau = eps / (n^{3/4} log(n/eps)); heavy means p_i + q_i >= C * tau."""
    return eps / (n**0.75 * log_ratio(n, eps))


def heavy_set_budget(n: int, eps: float, cfg: ThresholdConfig) -> int:
    log_n = math.log(max(n, LOG_FLOOR))
    return math.ceil(cfg.mult_heavy * 2.0 * n**0.75 * log_ratio(n, eps) * log_n / eps)


def identify_heavy_set(mix_sampler, n: int, eps: float, cfg: ThresholdConfig = DEFAULT_CONFIG):
    """Select elements with p_i + q_i above the heavy threshold.

    ``mix_sampler`` must stream the uniform mixture (p + q)/2.  One shared
    pool of draws backs the per-element decisions, exactly as the
    selection lemma prescribes; an exact-law mixture decides the elements
    whose count is all but sure to pass without drawing them
    (``Sampler.count_at_least``).  Returns ``(mask, samples_used)`` where the
    mask satisfies the S2-subset-of-S-subset-of-S1 sandwich with high
    probability (boundary constants ``c_heavy_low``/``c_heavy_high``).
    """
    check_range("eps", eps)
    if n < 1:
        raise ParameterOutOfRange("domain size must be >= 1")
    budget = heavy_set_budget(n, eps, cfg)
    tau = heavy_threshold_unit(n, eps)
    # mixture mean at boundary C*tau is budget*C*tau/2; cut at the midpoint
    theta = budget * tau * (cfg.c_heavy_low + cfg.c_heavy_high) / 4.0
    return mix_sampler.count_at_least(budget, theta), budget


# ---------------------------------------------------------------------------
# Mass comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MassCompareResult:
    p_mass_est: float
    q_mass_est: float
    diff_flag: bool
    samples_used: int


def mass_compare(sp, sq, s_set, tol: float, budget: int) -> MassCompareResult:
    """Empirical |p(S) - q(S)| comparison from ``budget`` draws per stream."""
    if budget < 1:
        raise ParameterOutOfRange("mass_compare budget must be >= 1")
    mask = _as_mask(s_set, sp.n)
    p_est = sp.binomial_hits(budget, mask) / budget
    q_est = sq.binomial_hits(budget, mask) / budget
    return MassCompareResult(
        p_mass_est=p_est,
        q_mass_est=q_est,
        diff_flag=abs(p_est - q_est) > tol,
        samples_used=2 * budget,
    )


# ---------------------------------------------------------------------------
# T-statistic closeness tests
# ---------------------------------------------------------------------------


def hellinger_budget(n: int, eps_h: float, cfg: ThresholdConfig) -> int:
    return math.ceil(cfg.mult_hellinger * min(n**0.75 / eps_h, n ** (2.0 / 3.0) / eps_h ** (4.0 / 3.0)))


def tv_budget(n: int, eps_tv: float, cfg: ThresholdConfig) -> int:
    return math.ceil(cfg.mult_tv * max(n ** (2.0 / 3.0) / eps_tv ** (4.0 / 3.0), math.sqrt(n) / eps_tv**2))


def _t_noise_floor(n: int, s: int) -> float:
    # null fluctuation scale of T: Var[T] <= 2 min(n, s)
    return math.sqrt(min(n, s) + 1.0)


def _run_t_test(sp, sq, budget, threshold, stage, delta, statistic):
    """Majority vote of ``statistic(pair) > threshold`` over independent
    Poissonized count pairs of nominal size ``budget``."""
    trace = []
    for _ in range(amplification_reps(delta)):
        pair = poissonized_counts(sp, sq, budget)
        trace.append(Stage(stage, statistic(pair), threshold, pair.samples_used))
    if _majority([record.statistic > threshold for record in trace]):
        return TestVerdict("reject", stage, trace)
    return TestVerdict("accept", None, trace)


def hellinger_closeness_test(sp, sq, n: int, eps_h: float, delta: float = 0.1, cfg: ThresholdConfig = DEFAULT_CONFIG) -> TestVerdict:
    """Distinguish p = q from squared Hellinger distance >= eps_h."""
    check_range("eps_h", eps_h)
    if n == 1:
        return TestVerdict("accept", None, [Stage("hellinger", 0.0, 0.0)])
    budget = hellinger_budget(n, eps_h, cfg)
    threshold = cfg.c_hellinger_reject * _t_noise_floor(n, budget)
    return _run_t_test(sp, sq, budget, threshold, "hellinger", delta, statistic_t)


def tv_closeness_test(sp, sq, n: int, eps_tv: float, delta: float = 0.1, cfg: ThresholdConfig = DEFAULT_CONFIG) -> TestVerdict:
    """Distinguish p = q from total variation distance >= eps_tv."""
    check_range("eps_tv", eps_tv)
    if n == 1:
        return TestVerdict("accept", None, [Stage("tv", 0.0, 0.0)])
    budget = tv_budget(n, eps_tv, cfg)
    threshold = cfg.c_T_threshold * _t_noise_floor(n, budget)
    return _run_t_test(sp, sq, budget, threshold, "tv", delta, statistic_t)


def l2_budget(eps_l2: float, cfg: ThresholdConfig) -> int:
    return math.ceil(cfg.mult_l2 / eps_l2**2)


def l2_closeness_test(sp, sq, n: int, eps_l2: float, delta: float = 0.1, cfg: ThresholdConfig = DEFAULT_CONFIG) -> TestVerdict:
    """Distinguish p = q from ||p - q||_2^2 >= eps_l2^2 (collision statistic)."""
    check_range("eps_l2", eps_l2, math.inf)
    if eps_l2**2 >= 2.0:
        # no pair of distributions reaches squared l2 distance 2
        return TestVerdict("accept", None, [Stage("l2", 0.0, eps_l2**2)])
    budget = l2_budget(eps_l2, cfg)
    threshold = cfg.c_l2_threshold * eps_l2**2
    return _run_t_test(sp, sq, budget, threshold, "l2", delta, lambda pair: statistic_l2(pair) / budget**2)


# ---------------------------------------------------------------------------
# Low-mass conditional cascade
# ---------------------------------------------------------------------------


class _RejectionBackedSampler:
    """Conditional-stream view of a base sampler over a support set.

    Implements the count-level sampler interface on the conditional domain
    while charging every raw draw against a shared budget; raises
    :class:`BudgetExhausted` when the cap is hit.  The raw draws charged
    for w accepts follow w + NegBin(w, mass): an exact-law base draws them
    as one negative binomial and its counts from its conditional child
    sampler, any other base runs :func:`conditional_rejection_sample`.
    """

    def __init__(self, base, support_mask, raw_cap: int, rng_seed):
        self.base = base
        self.mask = support_mask
        self.raw_cap = int(raw_cap)
        self.consumed = 0
        self._rng = np.random.default_rng(rng_seed)
        self._exact = isinstance(base, Sampler)
        if self._exact:
            self._child = base.conditional_sampler(support_mask)
        self.n = int(np.count_nonzero(support_mask))

    def _charge(self, raw: int):
        self.consumed += int(raw)
        if self.consumed > self.raw_cap:
            raise BudgetExhausted(self.consumed)

    def poisson_counts(self, m: float) -> np.ndarray:
        wanted = int(self._rng.poisson(m))
        if wanted == 0:
            return np.zeros(self.n, dtype=np.int64)
        if self._exact:
            raw = self.base.negative_binomial_consumed(wanted, self.mask)
            self._charge(raw)
            return self._child.multinomial_counts(wanted)
        try:
            samples, raw = conditional_rejection_sample(
                self.base, self.mask, wanted, self.raw_cap - self.consumed
            )
        except BudgetExhausted as exc:
            self.consumed += exc.consumed
            raise BudgetExhausted(self.consumed) from None
        self._charge(raw)
        positions = np.cumsum(self.mask) - 1  # domain index -> conditional index
        return np.bincount(positions[samples], minlength=self.n)


def coin_bias_budget(alpha: float, eps: float, delta: float, mult: float) -> int:
    """Draws that tell a coin of bias <= alpha from one of bias
    >= alpha (1 + eps) with probability >= 1 - delta."""
    return math.ceil(mult * math.log(max(1.0 / delta, 2.0)) / (alpha * eps * eps))


def lowmass_budgets(n: int, eps: float, cfg: ThresholdConfig) -> tuple[float, int, int]:
    """(alpha, coin budget, m3) of the low-mass cascade at accuracy eps:
    the mass floor of stages (i)/(ii), the per-stream draws of their coin
    test, and the per-stream draws of the stage (iii) mass comparison."""
    log_r = log_ratio(n, eps)
    alpha = min(cfg.c_lowmass_mass * eps / log_r, 0.5)
    coin_n = coin_bias_budget(alpha, 1.0, 1.0 / 40.0, cfg.mult_lowmass_mass)
    m3 = math.ceil(cfg.mult_mass_diff * log_r**2 / eps**2)
    return alpha, coin_n, m3


def lowmass_conditional_test(sp, sq, sbar, n: int, eps: float, cfg: ThresholdConfig = DEFAULT_CONFIG, rng=None) -> TestVerdict:
    """Full low-mass cascade on the complement of the heavy set.

    (i) if both streams put mass below the floor on ``sbar``, accept;
    (ii) if exactly one does, reject; (iii) compare the two masses and
    reject on a gap; (iv) otherwise run the conditional TV test through
    rejection sampling.  A blown raw-sample budget in (iv), or a sample
    pool running dry in any stage, rejects as ``lowmass-budget``.
    """
    check_range("eps", eps)
    rng = np.random.default_rng(rng)
    mask = _as_mask(sbar, sp.n)
    log_r = log_ratio(n, eps)
    if not mask.any():
        return TestVerdict("accept", None, [Stage("lowmass-mass-floor", 0.0, 0.0)])

    alpha, coin_n, m3 = lowmass_budgets(n, eps, cfg)
    cut = alpha * 1.5
    trace = []
    try:
        # (i)/(ii): coin-test both masses against the floor alpha
        p_mean = sp.binomial_hits(coin_n, mask) / coin_n
        q_mean = sq.binomial_hits(coin_n, mask) / coin_n
        trace.append(Stage("lowmass-mass-floor", max(p_mean, q_mean), cut, 2 * coin_n))
        p_large = p_mean >= cut
        q_large = q_mean >= cut
        if not p_large and not q_large:
            return TestVerdict("accept", None, trace)
        if p_large != q_large:
            return TestVerdict("reject", "lowmass-one-sided", trace)

        # (iii): the masses must approximately match
        tol = cfg.c_mass_diff * eps / log_r
        cmp_res = mass_compare(sp, sq, mask, tol, m3)
    except BudgetExhausted as exc:
        # only the completed stages' samples count; the statistic is the
        # raw draws the exhausted pool had served
        trace.append(Stage("lowmass-budget", float(exc.consumed), 0.0))
        return TestVerdict("reject", "lowmass-budget", trace)
    gap = abs(cmp_res.p_mass_est - cmp_res.q_mass_est)
    trace.append(Stage("lowmass-mass-gap", gap, tol, cmp_res.samples_used))
    if cmp_res.diff_flag:
        return TestVerdict("reject", "lowmass-mass-gap", trace)

    # (iv): conditional TV test at threshold eps / (q(sbar) log(n/eps))
    mass_guess = max(min(cmp_res.p_mass_est, cmp_res.q_mass_est), alpha / 2.0)
    eps_cond = min(eps / (mass_guess * log_r), 1.0)
    n_cond = int(mask.sum())
    if n_cond == 1:
        return TestVerdict("accept", None, trace + [Stage("lowmass-cond-tv", 0.0, 0.0)])
    per_stream = tv_budget(n_cond, eps_cond, cfg) * amplification_reps(0.1)
    raw_cap = math.ceil(8.0 * per_stream / mass_guess)
    wrap_p = _RejectionBackedSampler(sp, mask, raw_cap, rng.integers(0, 2**63 - 1))
    wrap_q = _RejectionBackedSampler(sq, mask, raw_cap, rng.integers(0, 2**63 - 1))
    try:
        verdict = tv_closeness_test(wrap_p, wrap_q, n_cond, eps_cond, 0.1, cfg)
    except BudgetExhausted:
        raw = wrap_p.consumed + wrap_q.consumed
        trace.append(Stage("lowmass-budget", float(raw), float(2 * raw_cap), raw))
        return TestVerdict("reject", "lowmass-budget", trace)
    # one vote at delta = 0.1, charged the raw draws of both wrappers
    (vote,) = verdict.trace
    trace.append(vote._replace(name="lowmass-cond-tv", samples=wrap_p.consumed + wrap_q.consumed))
    if verdict.rejected:
        return TestVerdict("reject", "lowmass-cond-tv", trace)
    return TestVerdict("accept", None, trace)
