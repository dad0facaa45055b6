"""Experiment harness: calibration, error-rate grids, scaling sweeps,
Bayes-net suites, and the deterministic oracle suite.

All suites write a ``results.csv`` whose content is a pure function of
(spec, master seed, threshold config): per-trial seeds derive from
(master seed, cell index, trial index), never from worker identity, so
1-worker and N-worker runs agree byte for byte.  Wall-clock measurements
go to a separate ``timings.csv`` (excluded from the determinism contract);
the ``wall_ms`` column of results.csv is fixed at 0 for that reason.
No seed passes through Python's ``hash``, so the CSV does not depend on
``PYTHONHASHSEED`` either.  Plots are SVG files regenerated from the CSV
contents.

Each cell's instance pair is built at most once per process and shared
read-only by that cell's trials (see :func:`make_instance_pair`); building
a pair draws no trial randomness.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .core import DiscreteDistribution, Sampler, entropy, divergences, lambda_term, mass_floor_mix, triangle_discrepancy
from .poisson import (
    CountPair,
    batch_t,
    batch_z,
    exact_expected_z,
    expected_t_closed_form,
    factorial_moment_check,
    statistic_l2,
    statistic_t,
    z_bias_bound,
)
from .testers import (
    DEFAULT_CONFIG,
    ConfigError,
    ThresholdConfig,
    hellinger_budget,
    l2_budget,
    load_config,
    save_config,
    tv_budget,
)
from .pipeline import (
    combined_budgets,
    make_eet_plan,
    run_eet,
    run_eet_combined,
)
from . import bayesnet as bn
from . import instances as inst


class CalibrationFailed(RuntimeError):
    """No threshold constant satisfied the protocol within the multiplier cap."""


CSV_COLUMNS = (
    "kind",
    "tester",
    "n",
    "eps",
    "d",
    "instance_family",
    "trials",
    "accept_rate",
    "reject_rate",
    "mean_samples",
    "wall_ms",
    "seed",
)


@dataclass
class ExperimentSpec:
    """Declarative description of one experiment run."""

    kind: str
    n_values: list = field(default_factory=list)
    eps_values: list = field(default_factory=list)
    d_values: list = field(default_factory=list)
    trials: int = 200
    seed: int = 20260808
    cfg_path: str | None = None
    out_dir: str = "enttest-out"

    def validate(self):
        if self.kind not in VALID_KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.kind in ("error_grid", "scaling") and (not self.n_values or not self.eps_values):
            raise ConfigError(f"{self.kind} needs non-empty n and eps grids")
        if self.kind == "scaling" and (len(set(self.n_values)) < 2 or len(self.eps_values) > 1):
            raise ConfigError("scaling fits its slope at one eps over two or more distinct n values")
        if self.kind == "bayesnet" and (not self.n_values or not self.eps_values or not self.d_values):
            raise ConfigError("bayesnet needs n, eps and d grids")
        if any(int(n) < 1 for n in self.n_values):
            raise ConfigError("domain sizes must be >= 1")
        return self

    @staticmethod
    def from_json(path) -> "ExperimentSpec":
        with open(path) as fh:
            data = json.load(fh)
        unknown = set(data) - set(ExperimentSpec.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown spec fields: {sorted(unknown)}")
        return ExperimentSpec(**data).validate()

    def to_json(self, path):
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")


def default_spec(kind: str) -> ExperimentSpec:
    """The pinned acceptance-suite grids for each experiment kind."""
    if kind == "oracle_suite":
        return ExperimentSpec(kind=kind, trials=200)
    if kind == "error_grid":
        return ExperimentSpec(
            kind=kind, n_values=[2**10, 2**12, 2**14], eps_values=[0.2, 0.4], trials=200
        )
    if kind == "scaling":
        return ExperimentSpec(
            kind=kind,
            n_values=[2**k for k in range(10, 17)],
            eps_values=[0.3],
            trials=100,
        )
    if kind == "bayesnet":
        return ExperimentSpec(
            kind=kind, n_values=[8], eps_values=[0.3], d_values=[2], trials=50
        )
    if kind == "calibrate":
        return ExperimentSpec(kind=kind, n_values=[1000, 10000], eps_values=[0.1], trials=400)
    raise ConfigError(f"unknown experiment kind {kind!r}")


# ---------------------------------------------------------------------------
# Rows and files
# ---------------------------------------------------------------------------


@dataclass
class Row:
    kind: str
    tester: str
    n: int
    eps: float
    d: int
    instance_family: str
    trials: int
    accept_rate: float
    reject_rate: float
    mean_samples: float
    seed: int

    def csv_line(self) -> str:
        return ",".join(
            [
                self.kind,
                self.tester,
                str(self.n),
                f"{self.eps:.6g}",
                str(self.d),
                self.instance_family,
                str(self.trials),
                f"{self.accept_rate:.6f}",
                f"{self.reject_rate:.6f}",
                f"{self.mean_samples:.6f}",
                "0",  # wall_ms: the measured value lives in timings.csv
                str(self.seed),
            ]
        )


def _write_results(rows, out_dir, timings):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "results.csv")
    with open(path, "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            fh.write(row.csv_line() + "\n")
    with open(os.path.join(out_dir, "timings.csv"), "w") as fh:
        fh.write("label,wall_ms\n")
        for label, ms in timings:
            fh.write(f"{label},{ms:.3f}\n")
    return path


def _trial_seed(master: int, cell: int, trial: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([int(master), int(cell), int(trial)])


# ---------------------------------------------------------------------------
# Instance families
# ---------------------------------------------------------------------------

NULL_FAMILIES = ("null:uniform", "null:zipf", "null:dense")
FAR_FAMILIES = ("far:entropy-gap", "far:mi")


@functools.lru_cache(maxsize=1)
def make_instance_pair(family: str, n: int, eps: float, master: int, cell: int):
    """(p, q) for a family; far instances carry exact certificates.

    Memoized for the last arguments seen: trials reach a process in cell
    order, so each cell's pair is built once per process.  The returned
    distributions are immutable and safe to share between trials.
    """
    if family == "null:uniform":
        p = DiscreteDistribution.uniform(n)
        return p, p
    if family == "null:zipf":
        p = DiscreteDistribution.zipf(n)
        return p, p
    if family == "null:dense":
        rng = np.random.default_rng(np.random.SeedSequence([master, cell, 0xD15E]))
        p = DiscreteDistribution.random_dense(n, rng)
        return p, p
    if family == "far:entropy-gap":
        return inst.make_entropy_gap_pair(n, eps)
    if family == "far:mi":
        if n % 2:
            raise ConfigError("far:mi needs an even domain size")
        pair = inst.make_correlated_pair(n // 2, 2, eps)
        return pair.joint, pair.product_of_marginals()
    raise ConfigError(f"unknown instance family {family!r}")


# ---------------------------------------------------------------------------
# Trial executors (top level for process pools)
# ---------------------------------------------------------------------------


def _grid_trial(payload):
    seq = _trial_seed(payload["master"], payload["cell"], payload["trial"])
    child = seq.spawn(4)
    cfg = payload["cfg"]
    p, q = make_instance_pair(
        payload["family"], payload["n"], payload["eps"], payload["master"], payload["cell"]
    )
    sp = Sampler(p, child[0])
    sq = Sampler(q, child[1])
    rng = np.random.default_rng(child[2])
    if payload["tester"] == "cascade":
        plan = make_eet_plan(payload["n"], payload["eps"], 0.1, cfg)
        return run_eet(sp, sq, plan, rng)
    return run_eet_combined(sp, sq, payload["n"], payload["eps"], 0.1, cfg, rng)


def _bn_trial(payload):
    seq = _trial_seed(payload["master"], payload["cell"], payload["trial"])
    child = seq.spawn(6)
    cfg = payload["cfg"]
    n, d, eps = payload["n"], payload["d"], payload["eps"]
    gen = np.random.default_rng(child[0])
    family = payload["family"]
    if family in ("bn-null", "bn-id-null"):
        base = bn.random_bayesnet(n, d, gen)
        other = base
    else:
        base, other, _tv = bn.make_far_net_pair(n, d, eps, gen)
    if family.startswith("bn-id"):
        side = other if family == "bn-id-far" else base
        return bn.bn_identity_test(
            bn.BnSampler(side, child[1]), base, n, d, eps, cfg, rng=np.random.default_rng(child[3])
        )
    return bn.bn_closeness_test(
        bn.BnSampler(base, child[1]), bn.BnSampler(other, child[2]), n, d, eps, cfg,
        rng=np.random.default_rng(child[3]),
    )


def _reduction_trial(payload):
    seq = _trial_seed(payload["master"], payload["cell"], payload["trial"])
    child = seq.spawn(4)
    cfg = payload["cfg"]
    n, eps = payload["n"], payload["eps"]
    if payload["family"] == "mi-product":
        pair = inst.make_correlated_pair(n // 2, 2, 0.0)
    else:
        pair = inst.make_correlated_pair(2, 2, math.log(2.0))
        n = 4
    eet_budget, base_budget = combined_budgets(n, eps, 0.1, cfg)
    per_stream = min(eet_budget, base_budget) // 2 + 1
    t = int(per_stream + 10 * math.sqrt(per_stream) + 200)
    sp, sq = inst.mi_reduction_stream_samplers(pair, t, child[0])
    return run_eet_combined(sp, sq, n, eps, 0.1, cfg, np.random.default_rng(child[1]))


_TRIAL_OPS = {"grid": _grid_trial, "bn": _bn_trial, "reduction": _reduction_trial}


def _run_trial(payload) -> dict:
    """One trial's outcome; ``branch`` is the combined tester's branch, if any."""
    verdict = _TRIAL_OPS[payload["op"]](payload)
    head = str(verdict.trace[0][0]) if verdict.trace else ""
    return {
        "cell": payload["cell"],
        "trial": payload["trial"],
        "accepted": verdict.accepted,
        "samples": verdict.samples_used,
        "branch": head.split(": ", 1)[1] if head.startswith("combined-branch") else "",
    }


def _execute(tasks, workers: int):
    """Run trial payloads; output order is deterministic regardless of workers."""
    if workers <= 1:
        results = [_run_trial(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_trial, tasks, chunksize=8))
    return sorted(results, key=lambda r: (r["cell"], r["trial"]))


def _aggregate(results, cell: int):
    rs = [r for r in results if r["cell"] == cell]
    accepts = sum(1 for r in rs if r["accepted"])
    total = len(rs)
    mean_samples = sum(r["samples"] for r in rs) / total if total else 0.0
    return accepts / total, 1.0 - accepts / total, mean_samples, total


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def run_error_grid(spec: ExperimentSpec, cfg: ThresholdConfig, workers: int):
    families = list(NULL_FAMILIES) + list(FAR_FAMILIES)
    cells = [
        (n, eps, fam)
        for n in spec.n_values
        for eps in spec.eps_values
        for fam in families
    ]
    tasks = []
    for cell_idx, (n, eps, fam) in enumerate(cells):
        for trial in range(spec.trials):
            tasks.append({
                "op": "grid", "tester": "cascade", "family": fam, "n": int(n),
                "eps": float(eps), "cfg": cfg, "master": spec.seed,
                "cell": cell_idx, "trial": trial,
            })
    results = _execute(tasks, workers)
    rows, violations = [], []
    for cell_idx, (n, eps, fam) in enumerate(cells):
        acc, rej, mean_s, total = _aggregate(results, cell_idx)
        rows.append(Row("error_grid", "cascade", int(n), float(eps), 0, fam,
                        total, acc, rej, mean_s, spec.seed))
        if fam.startswith("null") and acc < 0.85:
            violations.append(f"grid null cell n={n} eps={eps} {fam}: accept {acc:.3f} < 0.85")
        if fam.startswith("far") and rej < 0.85:
            violations.append(f"grid far cell n={n} eps={eps} {fam}: reject {rej:.3f} < 0.85")
    return rows, violations


def run_scaling(spec: ExperimentSpec, cfg: ThresholdConfig, workers: int):
    eps = float(spec.eps_values[0])
    families = ("null:uniform", "far:entropy-gap")
    cells = [(n, fam) for n in spec.n_values for fam in families]
    tasks = []
    for cell_idx, (n, fam) in enumerate(cells):
        for trial in range(spec.trials):
            tasks.append({
                "op": "grid", "tester": "combined", "family": fam, "n": int(n),
                "eps": eps, "cfg": cfg, "master": spec.seed,
                "cell": cell_idx, "trial": trial,
            })
    results = _execute(tasks, workers)
    rows, violations = [], []
    budgets, expected_branch = {}, {}
    for n in spec.n_values:
        eet_total, base_total = combined_budgets(int(n), eps, 0.1, cfg)
        budgets[int(n)] = min(eet_total, base_total)
        expected_branch[int(n)] = "tv-baseline" if n > 1 and base_total <= eet_total else "cascade"
        rows.append(Row("scaling", "combined", int(n), eps, 0, "budget:nominal",
                        0, 0.0, 0.0, float(budgets[int(n)]), spec.seed))
    for cell_idx, (n, fam) in enumerate(cells):
        acc, rej, mean_s, total = _aggregate(results, cell_idx)
        rows.append(Row("scaling", "combined", int(n), eps, 0, fam,
                        total, acc, rej, mean_s, spec.seed))
        branches = {r["branch"] for r in results if r["cell"] == cell_idx}
        want = expected_branch[int(n)]
        if branches != {want}:
            violations.append(f"scaling trace branch mismatch at n={n}: {branches} != {want}")
        if fam.startswith("null") and acc < 0.85:
            violations.append(f"scaling null n={n}: accept {acc:.3f} < 0.85")
        if fam.startswith("far") and rej < 0.85:
            violations.append(f"scaling far n={n}: reject {rej:.3f} < 0.85")
    ns = np.array(sorted(budgets), dtype=np.float64)
    bs = np.array([budgets[int(nv)] for nv in sorted(budgets)], dtype=np.float64)
    slope = float(np.polyfit(np.log(ns), np.log(bs), 1)[0])
    rows.append(Row("scaling", "combined", 0, eps, 0, "regression:slope",
                    len(ns), 0.0, 0.0, slope, spec.seed))
    if not 0.60 <= slope <= 0.90:
        violations.append(f"scaling slope {slope:.4f} outside [0.60, 0.90]")
    return rows, violations


def run_bayesnet_suite(spec: ExperimentSpec, cfg: ThresholdConfig, workers: int):
    n = int(spec.n_values[0])
    d = int(spec.d_values[0])
    eps = float(spec.eps_values[0])
    families = ("bn-null", "bn-far", "bn-id-null", "bn-id-far")
    tasks = []
    for cell_idx, fam in enumerate(families):
        for trial in range(spec.trials):
            tasks.append({
                "op": "bn", "family": fam, "n": n, "d": d, "eps": eps,
                "cfg": cfg, "master": spec.seed, "cell": cell_idx, "trial": trial,
            })
    results = _execute(tasks, workers)
    rows, violations = [], []
    for cell_idx, fam in enumerate(families):
        acc, rej, mean_s, total = _aggregate(results, cell_idx)
        tester = "bn-identity" if fam.startswith("bn-id") else "bn-closeness"
        rows.append(Row("bayesnet", tester, n, eps, d, fam, total, acc, rej, mean_s, spec.seed))
        if fam.endswith("null") and acc < 0.8:
            violations.append(f"bayesnet {fam}: accept {acc:.3f} < 0.8")
        if fam.endswith("far") and rej < 0.8:
            violations.append(f"bayesnet {fam}: reject {rej:.3f} < 0.8")

    # deterministic structure checks ride along with the statistical cells
    for name, ok, value in bn_exact_checks(spec.seed, eps, d):
        rows.append(Row("bayesnet", "oracle", n, eps, d, name, 1,
                        1.0 if ok else 0.0, 0.0 if ok else 1.0, value, spec.seed))
        if not ok:
            violations.append(f"bayesnet exact check failed: {name} (value {value:.3e})")
    return rows, violations


def bn_exact_checks(seed: int, eps: float, d: int):
    """Exact (non-statistical) Bayes-net suite checks.

    Mixture atom floor at n <= 12; local-KL telescoping at n = 8 to 1e-9;
    mixture KL-to-projection drift at most 8 eps^2 on 20 random nets.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB41E5]))
    checks = []

    worst_margin = math.inf
    for n_small in (6, 12):
        net = bn.random_bayesnet(n_small, d, rng)
        w = bn.bn_mixture_weight(n_small, d, eps)
        joint = (1.0 - w) * bn.bn_exact_joint(net) + w / 2**n_small
        floor = eps**2 / (
            2 ** (d + 1) * d * n_small * math.log(max(n_small / eps, math.e))
        )
        min_atom = float(bn._subset_tables(joint, n_small, d + 1).min())
        worst_margin = min(worst_margin, min_atom - floor)
    checks.append(("exact:atom-floor", worst_margin >= 0, worst_margin))

    worst_gap = 0.0
    for _ in range(5):
        a = bn.random_bayesnet(8, d, rng)
        b = bn.random_bayesnet(8, d, rng)
        w = bn.bn_mixture_weight(8, d, eps)
        pj = (1.0 - w) * bn.bn_exact_joint(a) + w / 256
        qj = (1.0 - w) * bn.bn_exact_joint(b) + w / 256
        g = bn.random_bayesnet(8, d, rng)
        lhs, rhs = bn.local_kl_telescoping(pj, qj, g)
        worst_gap = max(worst_gap, abs(lhs - rhs))
    checks.append(("exact:telescoping", worst_gap <= 1e-9, worst_gap))

    worst_drift = 0.0
    for _ in range(20):
        n_small = int(rng.integers(4, 9))
        net = bn.random_bayesnet(n_small, min(d, 2), rng)
        g = bn.random_bayesnet(n_small, min(d, 2), rng)
        for eps_c in (0.2, 0.4):
            w = bn.bn_mixture_weight(n_small, min(d, 2), eps_c)
            joint = bn.bn_exact_joint(net)
            mixed = (1.0 - w) * joint + w / 2**n_small
            drift = abs(bn.bn_kl_to_projection(mixed, g) - bn.bn_kl_to_projection(joint, g))
            worst_drift = max(worst_drift, drift / eps_c**2)
    checks.append(("exact:mixture-kl-drift", worst_drift <= 8.0, worst_drift))
    return checks


# ---------------------------------------------------------------------------
# Oracle suite (deterministic and fast statistical checks)
# ---------------------------------------------------------------------------


def run_oracle_suite(spec: ExperimentSpec, cfg: ThresholdConfig, workers: int):
    rows, violations = [], []
    seed = spec.seed

    def record(name, ok, value, trials=1):
        rows.append(Row("oracle_suite", "oracle", 0, 0.0, 0, name, trials,
                        1.0 if ok else 0.0, 0.0 if ok else 1.0, float(value), seed))
        if not ok:
            violations.append(f"oracle check failed: {name} (value {value:.6g})")

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x04AC1E]))

    # 1a. divergence identities and the inequality chain on random pairs
    worst = 0.0
    ok = True
    for _ in range(1000):
        nloc = int(rng.integers(2, 60))
        p = DiscreteDistribution.random_dense(nloc, rng)
        q = DiscreteDistribution.random_dense(nloc, rng)
        dv = divergences(p, q)
        chain = (
            dv.tv <= math.sqrt(2.0 * dv.hellinger_sq) + 1e-12
            and dv.hellinger_sq <= dv.tv + 1e-12
            and dv.tv <= math.sqrt(dv.chi_sq) + 1e-12
            and dv.kl <= dv.chi_sq + 1e-12
            and dv.tv <= math.sqrt(dv.kl / 2.0) + 1e-12
        )
        tri = triangle_discrepancy(p, q)
        bracket = dv.hellinger_sq - 1e-12 <= tri <= 2.0 * dv.hellinger_sq + 1e-12
        dec = abs(entropy(p) - entropy(q)) <= cfg.c_dec * dv.hellinger_sq + lambda_term(p, q) + 1e-9
        ok = ok and chain and bracket and dec
        worst = max(worst, dv.tv - math.sqrt(2.0 * dv.hellinger_sq))
    record("divergence-chain+decomposition", ok, worst, trials=1000)

    # 1b. mass-floor entropy drift, exact, on dense grids.  The enforced
    # bound is the 2 eps of the floor lemma's statement; the tighter
    # one-distribution eps bound fails on near-degenerate inputs (a point
    # mass at n = 16, eps = 0.5 drifts by 0.7625), so the worst
    # drift-to-eps ratio is reported as the check value instead.
    worst_ratio = 0.0
    for nloc in (16, 256, 4096):
        for eps in (0.05, 0.2, 0.5):
            for dist in (
                DiscreteDistribution.uniform(nloc),
                DiscreteDistribution.point_mass(nloc, 0),
                DiscreteDistribution.zipf(nloc),
                DiscreteDistribution.random_dense(nloc, rng),
            ):
                drift = abs(entropy(mass_floor_mix(dist, eps)) - entropy(dist))
                worst_ratio = max(worst_ratio, drift / eps)
    record("mass-floor-entropy-drift", worst_ratio <= 2.0, worst_ratio, trials=36)

    # 1c. pinned cross-entropy term values
    lam = lambda_term(DiscreteDistribution([0.75, 0.25]), DiscreteDistribution([0.5, 0.5]))
    pinned = abs(0.25 * math.log(8.0 / 5.0) - 0.25 * math.log(8.0 / 3.0))
    record("lambda-pinned-example", abs(lam - pinned) <= 1e-9, abs(lam - pinned))

    # 2a. factorial-moment identity at the pinned (lambda, order) grid
    worst_z = 0.0
    for lam_v in (0.5, 2.0, 10.0):
        for order in (1, 2, 3):
            res = factorial_moment_check(lam_v, order, lambda x: np.log1p(x), 10**6,
                                         seed=np.random.SeedSequence([seed, int(lam_v * 10), order]))
            worst_z = max(worst_z, abs(res.lhs_mc - res.rhs_mc) / res.stderr)
    # nine independent |z| <= 3 checks: a correct program still fails this
    # gate on 1 - 0.9973^9, about 2.4% of master seeds
    record("factorial-moment-identity", worst_z <= 3.0, worst_z, trials=9)

    # 2b. closed-form E[T] against Monte Carlo on random triples
    worst_z = 0.0
    for _ in range(20):
        nloc = int(rng.integers(2, 51))
        p = DiscreteDistribution.random_dense(nloc, rng)
        q = DiscreteDistribution.random_dense(nloc, rng) if rng.random() < 0.5 else p
        s = int(rng.integers(5, 400))
        reps = 3000
        x = rng.poisson(s * p.probs, size=(reps, nloc))
        y = rng.poisson(s * q.probs, size=(reps, nloc))
        t_samples = batch_t(x, y)
        mc = float(t_samples.mean())
        se = float(t_samples.std(ddof=1) / math.sqrt(reps))
        exact = expected_t_closed_form(p, q, s)
        worst_z = max(worst_z, abs(mc - exact) / max(se, 1e-12))
    record("expected-T-closed-form", worst_z <= 4.0, worst_z, trials=20)

    # 3. deterministic bias bound for Z on random instances
    worst = -math.inf
    for _ in range(60):
        nloc = int(rng.integers(2, 21))
        p = DiscreteDistribution.random_dense(nloc, rng)
        q = DiscreteDistribution.random_dense(nloc, rng)
        m = int(rng.integers(5, 201))
        target, bound = z_bias_bound(p, q, m)
        ez = exact_expected_z(p, q, m, tail_tol=1e-13)
        worst = max(worst, abs(target - ez) - bound)
    record("z-bias-bound", worst <= 1e-12, worst, trials=60)

    # 4. variance bound for Z at the frozen constant
    worst_ratio = 0.0
    for _ in range(20):
        nloc = int(rng.integers(2, 21))
        p = DiscreteDistribution.random_dense(nloc, rng)
        q = DiscreteDistribution.random_dense(nloc, rng) if rng.random() < 0.5 else p
        m = int(rng.integers(10, 201))
        reps = 10**5
        x = rng.poisson(m * p.probs, size=(reps, nloc))
        y = rng.poisson(m * q.probs, size=(reps, nloc))
        z_samples = batch_z(x, y, m)
        var = float(z_samples.var(ddof=1))
        log_m = math.log(m)
        bound = 16.0 * (log_m**2 * float(((p.probs - q.probs) ** 2).sum()) + log_m**2 / m)
        worst_ratio = max(worst_ratio, var / bound)
    record("z-variance-bound", worst_ratio <= 1.0, worst_ratio, trials=20)

    # 8. reduction sanity: entropy tester driven by the MI reduction streams
    red_trials = min(spec.trials, 200)
    tasks = []
    for cell_idx, fam in enumerate(("mi-product", "mi-correlated")):
        for trial in range(red_trials):
            tasks.append({
                "op": "reduction", "family": fam, "n": 64, "eps": 0.3,
                "cfg": cfg, "master": seed, "cell": cell_idx, "trial": trial,
            })
    results = _execute(tasks, workers)
    acc0, _, mean0, tot0 = _aggregate(results, 0)
    acc1, rej1, mean1, tot1 = _aggregate(results, 1)
    rows.append(Row("oracle_suite", "combined", 64, 0.3, 0, "mi-product",
                    tot0, acc0, 1 - acc0, mean0, seed))
    rows.append(Row("oracle_suite", "combined", 4, 0.3, 0, "mi-correlated",
                    tot1, acc1, rej1, mean1, seed))
    if acc0 < 0.85:
        violations.append(f"reduction product accept {acc0:.3f} < 0.85")
    if rej1 < 0.85:
        violations.append(f"reduction correlated reject {rej1:.3f} < 0.85")
    return rows, violations


# ---------------------------------------------------------------------------
# Calibration protocol
# ---------------------------------------------------------------------------


def _paired_bump(n: int, c: float) -> DiscreteDistribution:
    v = np.full(n, 1.0 / n)
    v[0::2] *= 1.0 + c
    v[1::2] *= 1.0 - c
    return DiscreteDistribution(v)


def _concentrated_pair(n: int, e: float):
    a = np.zeros(n)
    b = np.zeros(n)
    a[0], a[1] = 0.5 + e, 0.5 - e
    b[0], b[1] = 0.5 - e, 0.5 + e
    return DiscreteDistribution(a), DiscreteDistribution(b)


def _tester_statistics(tester: str, n: int, eps_cal: float, cfg: ThresholdConfig,
                       trials: int, rng) -> tuple[np.ndarray, np.ndarray, float]:
    """(null statistics, far statistics, threshold unit) for one tester."""
    uniform = DiscreteDistribution.uniform(n)
    if tester == "hellinger":
        budget = hellinger_budget(n, eps_cal, cfg)
        c_bump = math.sqrt(max(2.0 * eps_cal - eps_cal**2, 0.0))
        far_p, far_q = _paired_bump(n, c_bump), uniform
        unit = math.sqrt(min(n, budget) + 1.0)
    elif tester == "tv":
        budget = tv_budget(n, eps_cal, cfg)
        far_p, far_q = _paired_bump(n, eps_cal), uniform
        unit = math.sqrt(min(n, budget) + 1.0)
    elif tester == "l2":
        budget = l2_budget(eps_cal, cfg)
        far_p, far_q = _concentrated_pair(n, eps_cal / (2.0 * math.sqrt(2.0)))
        unit = eps_cal**2
    else:
        raise ValueError(tester)

    def stats_for(p, q):
        out = np.empty(trials)
        for t in range(trials):
            x = rng.poisson(budget * p.probs)
            y = rng.poisson(budget * q.probs)
            pair = CountPair(x_counts=x, y_counts=y, m_nominal=budget)
            if tester == "l2":
                out[t] = statistic_l2(pair) / budget**2
            else:
                out[t] = statistic_t(pair)
        return out

    null_stats = stats_for(uniform, uniform)
    far_stats = stats_for(far_p, far_q)
    return null_stats, far_stats, unit


def calibrate(spec: ExperimentSpec, mult_cap: float = 64.0):
    """Freeze the statistic threshold constants by the documented protocol.

    For each primitive tester, with its sample multiplier starting at 1:
    pick the largest threshold constant for which the far calibration
    family still rejects in >= 90% of trials, then verify the null accepts
    in >= 90%; double the multiplier and retry when no constant satisfies
    both; fail beyond the cap.  Returns (config, provenance lines, rows).
    """
    if mult_cap < 1:
        raise CalibrationFailed(f"multiplier cap {mult_cap} leaves no budget to search")
    trials = spec.trials
    eps_cal = float(spec.eps_values[0]) if spec.eps_values else 0.1
    n_values = [int(v) for v in (spec.n_values or [1000, 10000])]
    field_for = {"hellinger": "c_hellinger_reject", "tv": "c_T_threshold", "l2": "c_l2_threshold"}
    tester_tag = {"hellinger": 1, "tv": 2, "l2": 3}
    # preferred landing points inside the feasible window: large enough that
    # per-stage false fires stay well under the cascade's union budget
    c_pref = {"hellinger": 4.0, "tv": 4.0, "l2": 0.5}
    rows = []
    provenance = []
    cfg = DEFAULT_CONFIG
    for tester in ("hellinger", "tv", "l2"):
        mult = 1.0
        frozen = None
        while True:
            work = cfg.with_multiplier(tester, mult)
            lo_bounds, hi_bounds, stats_cache = [], [], []
            for idx, n in enumerate(n_values):
                rng = np.random.default_rng(
                    np.random.SeedSequence([spec.seed, tester_tag[tester], idx])
                )
                null_stats, far_stats, unit = _tester_statistics(
                    tester, n, eps_cal, work, trials, rng
                )
                stats_cache.append((n, null_stats, far_stats, unit))
                # smallest c accepting >= 90% of nulls / largest c rejecting
                # >= 90% of the far family, in threshold units
                lo_bounds.append(float(np.quantile(null_stats, 0.90)) / unit * 1.001)
                hi_bounds.append(float(np.quantile(far_stats, 0.10)) / unit * 0.999)
            c_lo = max(lo_bounds + [1e-9])
            c_hi = min(hi_bounds)
            if c_hi > c_lo:
                # feasible: land on the preferred constant when the window
                # allows it, the geometric midpoint otherwise; keep widening
                # the window while the preferred point is still above it
                if c_pref[tester] > c_hi and mult * 2.0 <= mult_cap:
                    mult *= 2.0
                    continue
                c_star = min(max(c_pref[tester], c_lo), c_hi)
                if c_pref[tester] > c_hi:
                    c_star = math.sqrt(c_lo * c_hi)
                ok = True
                for n, null_stats, far_stats, unit in stats_cache:
                    null_acc = float((null_stats <= c_star * unit).mean())
                    far_rej = float((far_stats > c_star * unit).mean())
                    rows.append(Row("calibrate", tester, n, eps_cal, 0,
                                    f"cal:{tester}:mult={mult:g}", trials,
                                    null_acc, far_rej, c_star, spec.seed))
                    ok = ok and null_acc >= 0.90 and far_rej >= 0.90
                if ok:
                    frozen = (c_star, mult)
                    break
            mult *= 2.0
            if mult > mult_cap:
                raise CalibrationFailed(
                    f"{tester}: no threshold met the 90/90 targets within multiplier cap {mult_cap}"
                )
        c_star, mult = frozen
        cfg = replace(cfg, **{field_for[tester]: c_star})
        cfg = cfg.with_multiplier(tester, mult)
        provenance.append(
            f"{field_for[tester]} = {c_star!r} at mult_{tester} = {mult:g} "
            f"(null>=90%, far>=90% on n in {n_values}, eps={eps_cal}, {trials} trials)"
        )
    return cfg, provenance, rows


def _calibration_date() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    t = int(epoch) if epoch else int(time.time())
    return time.strftime("%Y-%m-%d", time.gmtime(t))


def run_calibration_suite(spec: ExperimentSpec, cfg: ThresholdConfig, workers: int):
    """Calibrate from the default config (``cfg`` and ``workers`` are unused);
    write the frozen config and its provenance to ``calibrated_config.txt``."""
    new_cfg, provenance, rows = calibrate(spec)
    os.makedirs(spec.out_dir, exist_ok=True)
    header = [
        f"calibrated by enttest on {_calibration_date()}",
        f"seed = {spec.seed}, trials = {spec.trials}",
        f"grid: n in {[int(v) for v in (spec.n_values or [1000, 10000])]}, "
        f"eps = {spec.eps_values[0] if spec.eps_values else 0.1}",
    ] + provenance
    save_config(new_cfg, os.path.join(spec.out_dir, "calibrated_config.txt"), header)
    return rows, []


# ---------------------------------------------------------------------------
# SVG plotting (self-contained, no plotting dependency)
# ---------------------------------------------------------------------------


def write_scaling_plot(csv_path, path):
    """Render the log-log budget chart from results.csv (the CSV is the
    source of truth; the plot is a derived view)."""
    import csv as _csv

    with open(csv_path) as fh:
        rows = list(_csv.DictReader(fh))
    pts = sorted(
        (math.log(int(r["n"])), math.log(float(r["mean_samples"])))
        for r in rows
        if r["instance_family"] == "budget:nominal" and int(r["n"]) > 0
    )
    if len(pts) < 2:
        return
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    width, height, margin = 640, 420, 60

    def sx(x):
        return margin + (x - min(xs)) / (max(xs) - min(xs)) * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - min(ys)) / (max(ys) - min(ys)) * (height - 2 * margin)

    poly = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height-margin}" x2="{width-margin}" y2="{height-margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height-margin}" stroke="black"/>',
        f'<polyline points="{poly}" fill="none" stroke="#1f6fb2" stroke-width="2"/>',
    ]
    for x, y in pts:
        parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="#1f6fb2"/>')
    parts.append(
        f'<text x="{width/2:.0f}" y="{height-15}" text-anchor="middle" font-size="13">log n</text>'
    )
    parts.append(
        f'<text x="18" y="{height/2:.0f}" font-size="13" transform="rotate(-90 18 {height/2:.0f})" text-anchor="middle">log nominal budget</text>'
    )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


# kind -> suite(spec, cfg, workers) returning (rows, violations)
SUITES = {
    "calibrate": run_calibration_suite,
    "error_grid": run_error_grid,
    "scaling": run_scaling,
    "bayesnet": run_bayesnet_suite,
    "oracle_suite": run_oracle_suite,
}
VALID_KINDS = tuple(SUITES)


def resolve_workers(workers=None) -> int:
    """The worker count: ``workers``, else ``ENTTEST_WORKERS``, else 1.

    Raises ``ConfigError`` for a value that is not an integer or is below 1.
    """
    if workers is None:
        workers = os.environ.get("ENTTEST_WORKERS") or 1
    try:
        count = int(workers) if isinstance(workers, str) else operator.index(workers)
    except (TypeError, ValueError):
        raise ConfigError(f"worker count (--workers, ENTTEST_WORKERS) must be an integer, got {workers!r}") from None
    if count < 1:
        raise ConfigError(f"worker count (--workers, ENTTEST_WORKERS) must be at least 1, got {count}")
    return count


def run_experiment(spec: ExperimentSpec, workers=None, check: bool = False) -> int:
    """Execute a suite; write results.csv (and derived artifacts).

    Returns the process exit code: 0 on success, 2 when ``check`` is set
    and any acceptance threshold was violated.
    """
    spec.validate()
    workers = resolve_workers(workers)
    cfg = load_config(spec.cfg_path) if spec.cfg_path else DEFAULT_CONFIG
    t0 = time.perf_counter()
    rows, violations = SUITES[spec.kind](spec, cfg, workers)
    wall = (time.perf_counter() - t0) * 1e3
    csv_path = _write_results(rows, spec.out_dir, [(spec.kind, wall)])
    if spec.kind == "scaling":
        write_scaling_plot(csv_path, os.path.join(spec.out_dir, "plot_scaling.svg"))
    for v in violations:
        print(f"CHECK FAIL: {v}")
    if check and violations:
        return 2
    return 0
