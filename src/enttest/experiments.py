"""Experiment harness: calibration, error-rate grids, scaling sweeps,
Bayes-net suites, and the deterministic oracle suite.

All suites write a ``results.csv`` whose content is a pure function of
(spec, master seed, threshold config): per-trial seeds derive from
(master seed, cell index, trial index), never from worker or thread
identity, so 1-worker and N-worker runs agree byte for byte.  A worker is
one process, which runs its exact-law and small Bayes-net trials on its
share of the cores (see :func:`_execute`).  Wall-clock measurements go to
a separate ``timings.csv``, outside the determinism contract.  No seed
passes through Python's ``hash``, so the CSV does not depend on
``PYTHONHASHSEED`` either.

Each cell's instance pair is built at most once per process and shared
read-only by that cell's trials (see :func:`make_instance_pair`); building
a pair draws no trial randomness.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import operator
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Callable, NamedTuple

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
    _t_noise_floor,
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
    solve_tv_threshold,
)
from . import bayesnet as bn
from . import instances as inst


class CalibrationFailed(RuntimeError):
    """No threshold constant satisfied the protocol within the multiplier cap."""


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
        if self.kind not in SUITES:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        self.seed = _as_integer(self.seed, "seed")
        self.trials = _as_integer(self.trials, "trials")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        self.n_values = [_as_integer(n, "n") for n in self.n_values]
        self.d_values = [_as_integer(d, "d") for d in self.d_values]
        top = 0.5 if self.kind in ("error_grid", "scaling") else 1.0
        self.eps_values = [_as_eps(eps, top) for eps in self.eps_values]
        if self.kind in ("error_grid", "scaling") and (not self.n_values or not self.eps_values):
            raise ConfigError(f"{self.kind} needs non-empty n and eps grids")
        if self.kind == "scaling" and (len(set(self.n_values)) < 2 or len(self.eps_values) > 1):
            raise ConfigError("scaling fits its slope at one eps over two or more distinct n values")
        if self.kind == "calibrate":
            if len(self.eps_values) > 1:
                raise ConfigError("calibrate freezes the constants at one eps: give at most one")
            self.n_values = self.n_values or [1000, 10000]  # the default calibration grid
            self.eps_values = self.eps_values or [0.1]
        if self.kind == "bayesnet":
            if not len(self.n_values) == len(self.eps_values) == len(self.d_values) == 1:
                raise ConfigError("bayesnet runs one (n, eps, d) cell: give one value of each")
            if self.n_values[0] > bn.EXACT_GUARD:
                raise ConfigError(f"bayesnet needs n <= {bn.EXACT_GUARD}: far pairs are certified on exact joints")
        if any(n < 1 for n in self.n_values):
            raise ConfigError("domain sizes must be >= 1")
        if self.kind == "calibrate" and any(n % 2 for n in self.n_values):
            raise ConfigError("calibrate's far families pair up cells: domain sizes must be even")
        if any(d < 1 or d >= min(self.n_values, default=math.inf) for d in self.d_values):
            raise ConfigError(f"in-degree bounds d must satisfy 1 <= d <= n - 1, got d in {self.d_values}")
        for family in SUITE_FAMILIES.get(self.kind, ()):
            for n in self.n_values if FAMILIES[family].reach else ():
                reach, eps = FAMILIES[family].reach(n), max(self.eps_values)
                if eps > reach:
                    raise ConfigError(f"{family} cannot certify eps = {eps:g} at n = {n}: "
                                      f"it reaches at most {reach:.10g} there")
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
    """The pinned acceptance-suite grids for each experiment kind
    (``validate`` fills calibrate's)."""
    grids = {
        "oracle_suite": {"trials": 200},
        "error_grid": {"n_values": [2**10, 2**12, 2**14], "eps_values": [0.2, 0.4], "trials": 200},
        "scaling": {"n_values": [2**k for k in range(10, 17)], "eps_values": [0.3], "trials": 100},
        "bayesnet": {"n_values": [8], "eps_values": [0.3], "d_values": [2], "trials": 50},
        "calibrate": {"trials": 400},
    }
    if kind not in grids:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    return ExperimentSpec(kind=kind, **grids[kind])


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
        return ",".join(_CSV_FORMATS.get(name, "{}").format(getattr(self, name)) for name in CSV_COLUMNS)


# results.csv has one column per Row field; the ones not listed print with str()
CSV_COLUMNS = tuple(f.name for f in fields(Row))
_CSV_FORMATS = {"eps": "{:.6g}", "accept_rate": "{:.6f}", "reject_rate": "{:.6f}", "mean_samples": "{:.6f}"}


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


def _trial_seed(master: int, cell: int, trial: int) -> np.random.SeedSequence:
    """A trial's root seed; each trial spawns only the children it uses (a
    spawned child depends only on its index)."""
    return np.random.SeedSequence([int(master), int(cell), int(trial)])


# ---------------------------------------------------------------------------
# Instance families
# ---------------------------------------------------------------------------

class Family(NamedTuple):
    """An instance family: ``null`` when its two laws are equal, else its
    pair carries a certificate of at least eps (an entropy gap, a mutual
    information or a joint TV).  ``build(n, eps, master, cell)`` makes a flat
    family's (p, q); ``reach(n)`` is the largest eps a far family's builder
    certifies at domain size n; ``tester`` is the net tester a net family runs."""

    null: bool
    build: Callable | None = None
    reach: Callable | None = None
    tester: str = ""


def _mi_pair(n, eps, master, cell):
    if n % 2:
        raise ConfigError("far:mi needs an even domain size")
    pair = inst.make_correlated_pair(n // 2, 2, eps)
    return pair.joint, pair.product_of_marginals()


FAMILIES = {
    "null:uniform": Family(True, lambda n, eps, master, cell: (DiscreteDistribution.uniform(n),) * 2),
    "null:zipf": Family(True, lambda n, eps, master, cell: (DiscreteDistribution.zipf(n),) * 2),
    "null:dense": Family(True, lambda n, eps, master, cell: (DiscreteDistribution.random_dense(
        n, np.random.default_rng(np.random.SeedSequence([master, cell, 0xD15E]))),) * 2),
    # the entropy gap reaches log n
    "far:entropy-gap": Family(False, lambda n, eps, master, cell: inst.make_entropy_gap_pair(n, eps), math.log),
    # the MI pair reaches H(a mod 2) over n // 2 values of a (log 2 when n // 2
    # is even, 0 at n = 2), and nothing at odd n
    "far:mi": Family(False, _mi_pair, lambda n: inst.max_mutual_information(n // 2, 2) if n % 2 == 0 else 0.0),
    "bn-null": Family(True, tester="bn-closeness"),
    "bn-far": Family(False, reach=bn.far_pair_reach, tester="bn-closeness"),
    "bn-id-null": Family(True, tester="bn-identity"),
    "bn-id-far": Family(False, reach=bn.far_pair_reach, tester="bn-identity"),
    # the MI-reduction streams: a product law, and one with log 2 of mutual information
    "mi-product": Family(True),
    "mi-correlated": Family(False),
}
SUITE_FAMILIES = {
    "error_grid": ("null:uniform", "null:zipf", "null:dense", "far:entropy-gap", "far:mi"),
    "scaling": ("null:uniform", "far:entropy-gap"),
    "bayesnet": ("bn-null", "bn-far", "bn-id-null", "bn-id-far"),
}


def _cpus() -> int:  # the cores this process may run on
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


_pair_lock = threading.Lock()


def make_instance_pair(family: str, n: int, eps: float, master: int, cell: int):
    """(p, q) for a family; far instances carry exact certificates.

    Built once per cell and process: trials reach a process in cell order,
    the cache keeps one cell per core (per trial thread), and the lock
    stops two threads building one cell.  The pair is immutable and shared.
    """
    with _pair_lock:
        return _instance_pair(family, n, eps, master, cell)


@functools.lru_cache(maxsize=_cpus())
def _instance_pair(family: str, n: int, eps: float, master: int, cell: int):
    build = FAMILIES[family].build if family in FAMILIES else None
    if build is None:
        raise ConfigError(f"unknown flat instance family {family!r}")
    return build(n, eps, master, cell)


# ---------------------------------------------------------------------------
# Trial executors (top level for process pools)
# ---------------------------------------------------------------------------


def _grid_trial(payload):
    seq = _trial_seed(payload["master"], payload["cell"], payload["trial"])
    child = seq.spawn(3)
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
    child = seq.spawn(4)
    cfg = payload["cfg"]
    n, d, eps = payload["n"], payload["d"], payload["eps"]
    gen = np.random.default_rng(child[0])
    if FAMILIES[payload["family"]].null:
        base = other = bn.random_bayesnet(n, d, gen)
    else:
        try:
            base, other, _tv = bn.make_far_net_pair(n, d, eps, gen)
        except RuntimeError as exc:  # far_pair_reach bounds TV from above; no pair may reach it
            raise ConfigError(f"{payload['family']} at n = {n}, d = {d}: {exc}") from None
    if payload["tester"] == "bn-identity":  # ``other`` is ``base`` itself on a null cell
        return bn.bn_identity_test(
            bn.BnSampler(other, child[1]), base, n, d, eps, cfg, rng=np.random.default_rng(child[3])
        )
    return bn.bn_closeness_test(
        bn.BnSampler(base, child[1]), bn.BnSampler(other, child[2]), n, d, eps, cfg,
        rng=np.random.default_rng(child[3]),
    )


def _reduction_trial(payload):
    seq = _trial_seed(payload["master"], payload["cell"], payload["trial"])
    child = seq.spawn(2)
    cfg = payload["cfg"]
    n, eps = payload["n"], payload["eps"]
    # a null family's pair has no mutual information; a far one's log 2
    pair = inst.make_correlated_pair(n // 2, 2, 0.0 if FAMILIES[payload["family"]].null else math.log(2.0))
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


# Trials run on threads only where a trial's numpy calls are long: two
# threads making many short calls hand the GIL back and forth.  Not every
# draw lets two threads run at once.  Two threads each drawing
# Generator.poisson over 16,384 rates got 0.88-1.12 times one thread's
# throughput, while scalar-parameter binomial, integers and multinomial
# draws got up to about 2 times (numpy 2.4.6, 2 cores).  So the per-cell
# Poisson draws of null:zipf and null:dense run one at a time even on two
# trial threads; the gain below is the rest of the trial overlapping them.
# An exact-law ("grid") trial of the error-grid or scaling suite is
# threaded from _THREAD_MIN_CELLS cells, where one Generator.poisson call
# of null:zipf or null:dense takes about 1 ms.  The benchmark's pinned
# cells (seed 4099) at one worker on 2 shared cores, numpy 2.4.6, serial
# against two trial threads, 4 alternating runs after a warm-up, identical
# results.csv:
#
#   grid, n = 2^10, 80 trials a family      0.26-0.27 s   0.38-0.49 s
#   grid, n = 2^12                          0.47-0.76 s   0.53-0.70 s
#   grid, n = 2^14                          1.66-1.90 s   1.18-1.41 s
#   scaling, n = 2^10 to 2^13, 100 trials   0.19-0.26 s   0.38-0.41 s
#   scaling, n = 2^14 to 2^16               0.66-0.76 s   0.63-0.71 s
#
# Below 2^14 cells the threads spent 1.5 to 2.3 times the serial CPU time.
# A Bayes-net trial is threaded when ``bayesnet._small_sweep`` calls its
# sweep small (its measurements are there).  MI-reduction trials hold
# whole-sample pools and stay serial.
_THREAD_MIN_CELLS = 2**14


def _threaded(task) -> bool:
    if task["op"] == "bn":
        return bn._small_sweep(task["n"], task["d"])
    return task["op"] == "grid" and task["n"] >= _THREAD_MIN_CELLS


def _run_trials(tasks, threads: int):
    """The outcomes of ``tasks``, in no set order (``_execute`` sorts them).
    The calling thread first runs the trials ``_threaded`` rejects.  It then
    runs the rest beside ``threads - 1`` helper threads, and each takes the
    next task from one shared iterator, so the trials in flight sit on
    adjacent cells and the pair cache (one cell per core) holds them.  The
    first trial error stops the other threads from taking tasks and is
    raised here, once they have finished their trials."""
    if threads <= 1:
        return [_run_trial(t) for t in tasks]
    results = [_run_trial(t) for t in tasks if not _threaded(t)]
    shared = [t for t in tasks if _threaded(t)]
    if not shared:
        return results
    pending = iter(shared)
    errors = []
    lock = threading.Lock()

    def work():
        try:
            while True:
                with lock:
                    task = None if errors else next(pending, None)
                if task is None:
                    return
                results.append(_run_trial(task))
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    helpers = [threading.Thread(target=work) for _ in range(threads - 1)]
    for helper in helpers:
        helper.start()
    work()
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[0]
    return results


def _execute(tasks, workers: int):
    """Run trial payloads; output order is deterministic regardless of
    workers and threads."""
    # trials run serially while _run_trial is wrapped (functools.wraps sets
    # __wrapped__), as a tracer's span wraps it: a wrapper may not be
    # thread-safe
    wrapped = hasattr(_run_trial, "__wrapped__")
    threads = 1 if wrapped else max(1, _cpus() // workers)  # a worker's share of the cores
    if workers <= 1:
        results = _run_trials(tasks, threads)
    else:
        size = 8 * threads
        chunks = [tasks[i:i + size] for i in range(0, len(tasks), size)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = [r for chunk in pool.map(_run_trials, chunks, [threads] * len(chunks)) for r in chunk]
    return sorted(results, key=lambda r: (r["cell"], r["trial"]))


class CellStats(NamedTuple):
    """One cell's tally over its trials; ``branches`` holds the combined
    tester's branches its trials took ("" for the other testers)."""

    accept_rate: float
    reject_rate: float
    mean_samples: float
    trials: int
    branches: set


def _run_cells(spec: ExperimentSpec, cfg: ThresholdConfig, workers: int, op: str, cells, trials=None):
    """Run ``trials`` (default ``spec.trials``) trials of ``op`` on each cell,
    a dict of payload fields; return each cell's :class:`CellStats`."""
    trials = spec.trials if trials is None else trials
    tasks = [
        {"op": op, **cell, "cfg": cfg, "master": spec.seed, "cell": idx, "trial": trial}
        for idx, cell in enumerate(cells)
        for trial in range(trials)
    ]
    results = _execute(tasks, workers)
    stats = []
    for idx in range(len(cells)):
        rs = results[idx * trials:(idx + 1) * trials]
        accept = sum(r["accepted"] for r in rs) / trials
        mean_samples = sum(r["samples"] for r in rs) / trials
        stats.append(CellStats(accept, 1.0 - accept, mean_samples, trials, {r["branch"] for r in rs}))
    return stats


def _cell_row(kind: str, cell: dict, stats: CellStats, seed: int) -> Row:
    return Row(kind, cell["tester"], cell["n"], cell["eps"], cell.get("d", 0), cell["family"],
               stats.trials, stats.accept_rate, stats.reject_rate, stats.mean_samples, seed)


def _gate(violations, label: str, cell: dict, stats: CellStats, bar: float = 0.85):
    """A null family's cell must accept, and a far one's reject, in ``bar`` of its trials."""
    verb, rate = ("accept", stats.accept_rate) if FAMILIES[cell["family"]].null else ("reject", stats.reject_rate)
    if rate < bar:
        violations.append(f"{label}: {verb} {rate:.3f} < {bar}")


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def run_error_grid(spec: ExperimentSpec, cfg: ThresholdConfig, workers: int):
    cells = [
        {"tester": "cascade", "family": fam, "n": n, "eps": eps}
        for n in spec.n_values
        for eps in spec.eps_values
        for fam in SUITE_FAMILIES["error_grid"]
    ]
    rows, violations = [], []
    for cell, stats in zip(cells, _run_cells(spec, cfg, workers, "grid", cells)):
        rows.append(_cell_row("error_grid", cell, stats, spec.seed))
        _gate(violations, f"grid cell n={cell['n']} eps={cell['eps']} {cell['family']}", cell, stats)
    return rows, violations


def run_scaling(spec: ExperimentSpec, cfg: ThresholdConfig, workers: int):
    eps = spec.eps_values[0]
    cells = [
        {"tester": "combined", "family": fam, "n": n, "eps": eps}
        for n in spec.n_values
        for fam in SUITE_FAMILIES["scaling"]
    ]
    stats = _run_cells(spec, cfg, workers, "grid", cells)
    rows, violations = [], []
    budgets, expected_branch = {}, {}
    for n in spec.n_values:
        eet_total, base_total = combined_budgets(n, eps, 0.1, cfg)
        budgets[n] = min(eet_total, base_total)
        expected_branch[n] = "tv-baseline" if n > 1 and base_total <= eet_total else "cascade"
        rows.append(Row("scaling", "combined", n, eps, 0, "budget:nominal",
                        0, 0.0, 0.0, float(budgets[n]), spec.seed))
    for cell, cell_stats in zip(cells, stats):
        n = cell["n"]
        rows.append(_cell_row("scaling", cell, cell_stats, spec.seed))
        if cell_stats.branches != {expected_branch[n]}:
            violations.append(f"scaling trace branch mismatch at n={n}: "
                              f"{cell_stats.branches} != {expected_branch[n]}")
        _gate(violations, f"scaling {cell['family']} n={n}", cell, cell_stats)
    ns = np.array(sorted(budgets), dtype=np.float64)
    bs = np.array([budgets[n] for n in sorted(budgets)], dtype=np.float64)
    slope = float(np.polyfit(np.log(ns), np.log(bs), 1)[0])
    rows.append(Row("scaling", "combined", 0, eps, 0, "regression:slope",
                    len(ns), 0.0, 0.0, slope, spec.seed))
    if not 0.60 <= slope <= 0.90:
        violations.append(f"scaling slope {slope:.4f} outside [0.60, 0.90]")
    return rows, violations


def run_bayesnet_suite(spec: ExperimentSpec, cfg: ThresholdConfig, workers: int):
    n, d, eps = spec.n_values[0], spec.d_values[0], spec.eps_values[0]
    cells = [
        {"tester": FAMILIES[fam].tester, "family": fam, "n": n, "d": d, "eps": eps}
        for fam in SUITE_FAMILIES["bayesnet"]
    ]
    stats = _run_cells(spec, cfg, workers, "bn", cells)
    # deterministic structure checks ride along with the statistical cells
    checks = bn_exact_checks(spec.seed, eps, d)

    rows, violations = [], []
    for cell, cell_stats in zip(cells, stats):
        rows.append(_cell_row("bayesnet", cell, cell_stats, spec.seed))
        _gate(violations, f"bayesnet {cell['family']}", cell, cell_stats, bar=0.8)
    for name, ok, value in checks:
        rows.append(Row("bayesnet", "oracle", n, eps, d, name, 1,
                        1.0 if ok else 0.0, 0.0 if ok else 1.0, value, spec.seed))
        if not ok:
            violations.append(f"bayesnet exact check failed: {name} (value {value:.3e})")
    return rows, violations


@functools.lru_cache(maxsize=16)
def bn_exact_checks(seed: int, eps: float, d: int) -> tuple:
    """Exact (non-statistical) Bayes-net suite checks, as ``(name, ok,
    value)`` tuples.

    Mixture atom floor at n = 6 and 12; local-KL telescoping at n = 8 to
    1e-9; mixture KL-to-projection drift at most 8 eps^2 on 20 random nets.
    The first two take each net at n >= d + 2, so that it has (d+1)-subsets
    and in-degree d is within reach.  The checks depend on (seed, eps, d)
    alone, not on the suite's n, so they are memoized per process (16
    entries): suites at several n in one process run them once.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB41E5]))
    checks = []

    worst_margin = math.inf
    for n_small in (max(6, d + 2), max(12, d + 2)):
        net = bn.random_bayesnet(n_small, d, rng)
        w = bn.bn_mixture_weight(n_small, d, eps)
        joint = (1.0 - w) * bn.bn_exact_joint(net) + w / 2**n_small
        floor = w / 2 ** (d + 1)
        min_atom = float(bn._marginal_counts(joint[:, None], n_small, d + 1).min())
        worst_margin = min(worst_margin, min_atom - floor)
    checks.append(("exact:atom-floor", worst_margin >= 0, worst_margin))

    worst_gap = 0.0
    n_small = max(8, d + 2)
    for _ in range(5):
        a = bn.random_bayesnet(n_small, d, rng)
        b = bn.random_bayesnet(n_small, d, rng)
        w = bn.bn_mixture_weight(n_small, d, eps)
        pj = (1.0 - w) * bn.bn_exact_joint(a) + w / 2**n_small
        qj = (1.0 - w) * bn.bn_exact_joint(b) + w / 2**n_small
        g = bn.random_bayesnet(n_small, d, rng)
        lhs, rhs = bn.local_kl_telescoping(pj, qj, g)
        worst_gap = max(worst_gap, abs(lhs - rhs))
    checks.append(("exact:telescoping", worst_gap <= 1e-9, worst_gap))

    worst_drift = 0.0
    for _ in range(20):
        n_small = int(rng.integers(4, 9))
        net = bn.random_bayesnet(n_small, min(d, 2), rng)
        g = bn.random_bayesnet(n_small, min(d, 2), rng)
        joint = bn.bn_exact_joint(net)
        kl_unmixed = bn.bn_kl_to_projection(joint, g)
        for eps_c in (0.2, 0.4):
            w = bn.bn_mixture_weight(n_small, min(d, 2), eps_c)
            mixed = (1.0 - w) * joint + w / 2**n_small
            drift = abs(bn.bn_kl_to_projection(mixed, g) - kl_unmixed)
            worst_drift = max(worst_drift, drift / eps_c**2)
    checks.append(("exact:mixture-kl-drift", worst_drift <= 8.0, worst_drift))
    return tuple(checks)


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
    cells = [{"tester": "combined", "family": "mi-product", "n": 64, "eps": 0.3},
             {"tester": "combined", "family": "mi-correlated", "n": 4, "eps": 0.3}]
    for cell, stats in zip(cells, _run_cells(spec, cfg, workers, "reduction", cells, min(spec.trials, 200))):
        rows.append(_cell_row("oracle_suite", cell, stats, seed))
        _gate(violations, f"reduction {cell['family']}", cell, stats)
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
    elif tester == "tv":
        budget = tv_budget(n, eps_cal, cfg)
        far_p, far_q = _paired_bump(n, eps_cal), uniform
    elif tester == "l2":
        budget = l2_budget(eps_cal, cfg)
        far_p, far_q = _concentrated_pair(n, eps_cal / (2.0 * math.sqrt(2.0)))
    else:
        raise ValueError(tester)
    # the T testers' threshold unit is their own noise floor
    unit = eps_cal**2 if tester == "l2" else _t_noise_floor(n, budget)

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


_MULT_CAP = 64.0  # calibrate's largest sample multiplier


def calibrate(spec: ExperimentSpec):
    """Freeze the statistic threshold constants by the documented protocol.

    For each primitive tester, with its sample multiplier starting at 1:
    pick the largest threshold constant for which the far calibration
    family still rejects in >= 90% of trials, then verify the null accepts
    in >= 90%; double the multiplier and retry when no constant satisfies
    both; fail beyond the cap.  ``spec`` must be validated (its grid
    filled).  Returns (config, provenance lines, rows).
    """
    trials = spec.trials
    eps_cal = spec.eps_values[0]
    n_values = spec.n_values
    field_for = {"hellinger": "c_hellinger_reject", "tv": "c_T_threshold", "l2": "c_l2_threshold"}
    tester_tag = {"hellinger": 1, "tv": 2, "l2": 3}
    # preferred landing points inside the feasible window: large enough that
    # per-stage false fires stay well under the cascade's union budget
    c_pref = {"hellinger": 4.0, "tv": 4.0, "l2": 0.5}
    rows = []
    provenance = []
    cfg = DEFAULT_CONFIG
    for tester in ("hellinger", "tv", "l2"):
        mult_key = f"mult_{tester}"
        for mult in (2.0**k for k in range(int(_MULT_CAP).bit_length())):  # 1, 2, 4, ... <= _MULT_CAP
            work = replace(cfg, **{mult_key: mult})
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
            if not c_hi > c_lo:
                continue
            # feasible: land on the preferred constant when the window
            # allows it, the geometric midpoint otherwise; keep widening
            # the window while the preferred point is still above it
            if c_pref[tester] > c_hi and mult * 2.0 <= _MULT_CAP:
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
                break
        else:
            raise CalibrationFailed(
                f"{tester}: no threshold met the 90/90 targets within multiplier cap {_MULT_CAP:g}"
            )
        cfg = replace(cfg, **{field_for[tester]: c_star, mult_key: mult})
        provenance.append(
            f"{field_for[tester]} = {c_star!r} at {mult_key} = {mult:g} "
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
        f"grid: n in {spec.n_values}, eps = {spec.eps_values[0]}",
    ] + provenance
    save_config(new_cfg, os.path.join(spec.out_dir, "calibrated_config.txt"), header)
    return rows, []


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


def _as_integer(value, what: str) -> int:
    """An integer (not a bool) or a string of one as an int, else ``ConfigError``."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return int(value) if isinstance(value, str) else operator.index(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{what} must be an integer, got {value!r}") from None


def _as_eps(value, top: float) -> float:
    """A real number (not a bool) in (0, top] as a float, else ``ConfigError``."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and 0 < value <= top:
        return float(value)
    raise ConfigError(f"eps values must be numbers in (0, {top:g}], got {value!r}")


def resolve_workers(workers=None) -> int:
    """The worker count: ``workers``, else ``ENTTEST_WORKERS``, else 1.

    A worker is one process, which runs its exact-law trials on its share
    of the cores (see :func:`_execute`).  Raises ``ConfigError`` for a
    value that is not an integer or is below 1.
    """
    if workers is None:
        workers = os.environ.get("ENTTEST_WORKERS") or 1
    count = _as_integer(workers, "worker count (--workers, ENTTEST_WORKERS)")
    if count < 1:
        raise ConfigError(f"worker count (--workers, ENTTEST_WORKERS) must be at least 1, got {count}")
    return count


_MAX_DRAW = 9.2e18  # numpy's Poisson rates stop near 9.22e18, binomial sizes at 2^63


def _check_draws(spec: ExperimentSpec, cfg: ThresholdConfig):
    """``ConfigError`` for a cell one of whose draws numpy cannot make: a
    stage's per-stream budget, or a Bayes-net block's, reaches ``_MAX_DRAW``."""
    if spec.kind == "oracle_suite":  # its cells are fixed
        return
    top = replace(DEFAULT_CONFIG, mult_hellinger=_MULT_CAP, mult_tv=_MULT_CAP, mult_l2=_MULT_CAP)
    for n in spec.n_values:
        for eps in spec.eps_values:
            for d in spec.d_values or [0]:
                try:
                    if spec.kind == "bayesnet":
                        draw = max(bn.bn_budget(n, d, eps), bn.bn_identity_budget(n, d, eps)) / bn._sweep_blocks(n, d)
                    elif spec.kind == "calibrate":  # each multiplier may double up to the cap
                        draw = max(hellinger_budget(n, eps, top), tv_budget(n, eps, top), l2_budget(eps, top))
                    else:
                        stages = make_eet_plan(n, eps, 0.1, cfg).stages
                        draw = max([s.budget for s in stages] + [tv_budget(n, solve_tv_threshold(n, eps), cfg)])
                except (ZeroDivisionError, OverflowError):  # eps**2 underflows, or a budget is inf
                    draw = math.inf
                if not draw < _MAX_DRAW:
                    raise ConfigError(f"eps = {eps:g} at n = {n} needs draws of {draw:.3g} samples: "
                                      f"numpy draws at most {_MAX_DRAW:.3g} at once")


def run_experiment(spec: ExperimentSpec, workers=None, check: bool = False) -> int:
    """Execute a suite; write results.csv (and derived artifacts).

    Returns the process exit code: 0 on success, 2 when ``check`` is set
    and any acceptance threshold was violated.
    """
    spec.validate()
    workers = resolve_workers(workers)
    cfg = load_config(spec.cfg_path) if spec.cfg_path else DEFAULT_CONFIG
    _check_draws(spec, cfg)
    t0 = time.perf_counter()
    rows, violations = SUITES[spec.kind](spec, cfg, workers)
    wall = (time.perf_counter() - t0) * 1e3
    _write_results(rows, spec.out_dir, [(spec.kind, wall)])
    for v in violations:
        print(f"CHECK FAIL: {v}")
    if check and violations:
        return 2
    return 0
