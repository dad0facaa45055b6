"""Benchmark-side spans around the calls into each enttest layer.

The tracer wraps public functions at every binding site the suites call
through: the defining module's attribute, every name other enttest modules
imported it under, and methods of ``Sampler`` and ``DiscreteDistribution``.  The private
``experiments._run_trial`` is wrapped as well, because it is where a trial
begins and the only place the trial id ``(cell, trial)`` is known.  The
private ``core._alias_tables`` is wrapped to count alias-table builds by
domain size.  Wrappers read the clock and the arguments and results, and
never touch a random generator, so a traced suite writes the same
results.csv as an untraced one.  Spans only nest correctly in one thread,
so traced suites run at one worker.

Each span records its name, start, end, parent span and trial id, and is
kept in memory until the run ends.  Self time is a span's duration minus
the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import pickle
import sys
from time import perf_counter

LAYERS = ("core", "poisson", "testers", "pipeline", "instances", "bayesnet", "experiments")

# Stages the cascade and the TV baseline can fire; "none" is an accept.
FIRED_STAGES = (
    "hellinger", "lowmass-one-sided", "lowmass-mass-gap", "lowmass-budget", "lowmass-cond-tv",
    "bias-T", "mass-S", "l2", "z", "tv-baseline", "none", "other",
)
BRANCHES = ("tv-baseline", "cascade")
_DECISIONS = ("pipeline.run_eet", "pipeline.tv_baseline", "pipeline.combined")
_BN_TESTERS = ("bayesnet.closeness", "bayesnet.identity")
_KEYED = ("instances.entropy_gap", "instances.correlated")


def _verdict(fn, args, kwargs, result):
    return {"samples": result.samples_used, "fired": result.fired_stage or "none"}


def _combined(fn, args, kwargs, result):
    info = _verdict(fn, args, kwargs, result)
    head = str(result.trace[0][0]) if result.trace else ""
    info["branch"] = head.split(": ", 1)[1] if head.startswith("combined-branch: ") else ""
    return info


def _argument_key(fn, args, kwargs, result):
    return {"key": (fn.__name__, repr(inspect.signature(fn).bind(*args, **kwargs).arguments))}


def _subsets(fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs).arguments
    return {"subsets": math.comb(int(bound["n"]), int(bound["d"]) + 1)}


# metric name -> list of (module, attribute path, info hook or None).  An
# info hook turns (function, args, kwargs, result) into the span's counts.
TARGETS = {
    "core.poisson_counts": [("core", "Sampler.poisson_counts", lambda fn, a, k, r: {"cells": r.size})],
    "core.multinomial_counts": [("core", "Sampler.multinomial_counts", None)],
    "core.alias_build": [("core", "_alias_tables", lambda fn, a, k, r: {"n": a[0].size})],
    "core.distribution": [("core", "DiscreteDistribution.__init__", None)],
    **{
        f"poisson.statistic_{s}": [("poisson", f"statistic_{s}", lambda fn, a, k, r: {"cells": a[0].n})]
        for s in ("t", "z", "l2")
    },
    "testers.hellinger": [("testers", "hellinger_closeness_test", _verdict)],
    "testers.heavy_set": [("testers", "identify_heavy_set", lambda fn, a, k, r: {"samples": r[1]})],
    "testers.lowmass": [("testers", "lowmass_conditional_test", _verdict)],
    "testers.mass_compare": [("testers", "mass_compare", lambda fn, a, k, r: {"samples": r.samples_used})],
    "testers.tv": [("testers", "tv_closeness_test", _verdict)],
    "pipeline.run_eet": [("pipeline", "run_eet", _verdict)],
    "pipeline.tv_baseline": [("pipeline", "run_eet_tv_baseline", _verdict)],
    "pipeline.combined": [("pipeline", "run_eet_combined", _combined)],
    "pipeline.plan": [("pipeline", "make_eet_plan", None), ("pipeline", "combined_budgets", None)],
    "instances.entropy_gap": [("instances", "make_entropy_gap_pair", _argument_key)],
    "instances.correlated": [("instances", "make_correlated_pair", _argument_key)],
    "bayesnet.closeness": [("bayesnet", "bn_closeness_test", _subsets)],
    "bayesnet.identity": [("bayesnet", "bn_identity_test", _subsets)],
    "bayesnet.net_build": [("bayesnet", "random_bayesnet", None), ("bayesnet", "make_far_net_pair", None)],
    "bayesnet.exact_joint": [("bayesnet", "bn_exact_joint", None)],
    "bayesnet.joint_marginal": [("bayesnet", "joint_marginal", None)],
    "bayesnet.sample": [("bayesnet", "bn_sample", None)],
    "experiments.instance_pair": [("experiments", "make_instance_pair", None)],
}

# Every per-layer metric a traced run reports, with its unit.
_TIMED = ("s", "self_s", "calls", "ms.p50", "ms.p90")
_UNITS = {"s": "s", "self_s": "s", "calls": "count", "ms.p50": "ms", "ms.p90": "ms",
          "cells": "cells", "samples": "samples"}
PER_LAYER = [
    (f"{base}.{field}", _UNITS.get(field, unit))
    for base, fields, unit in (
        ("core.poisson_counts", ("s", "calls", "cells"), None),
        ("core.multinomial_counts", ("s", "calls"), None),
        ("core.distribution", ("s", "calls"), None),
        ("poisson.statistic_t", ("s", "calls", "cells"), None),
        ("poisson.statistic_z", ("s", "calls", "cells"), None),
        ("poisson.statistic_l2", ("s", "calls", "cells"), None),
        ("testers.hellinger", ("s", "calls", "samples"), None),
        ("testers.heavy_set", ("s", "calls", "samples"), None),
        ("testers.lowmass", ("s", "calls", "samples"), None),
        ("testers.mass_compare", ("s", "calls", "samples"), None),
        ("testers.tv", ("s", "calls", "samples"), None),
        ("pipeline.run_eet", _TIMED, None),
        ("pipeline.tv_baseline", _TIMED, None),
        ("pipeline.combined", _TIMED, None),
        ("pipeline.plan", ("s", "calls"), None),
        ("pipeline.fired", FIRED_STAGES, "count"),
        ("pipeline.branch", BRANCHES, "count"),
        ("instances.entropy_gap", ("s", "calls"), None),
        ("instances.correlated", ("s", "calls"), None),
        ("instances", ("rebuild_ratio",), "ratio"),
        ("bayesnet.closeness", _TIMED, None),
        ("bayesnet.identity", _TIMED, None),
        ("bayesnet.net_build", ("s", "calls"), None),
        ("bayesnet.exact_joint", ("s", "calls"), None),
        ("bayesnet.joint_marginal", ("s", "calls"), None),
        ("bayesnet.sample", ("s", "calls"), None),
        ("bayesnet", ("subsets_swept",), "count"),
        ("bayesnet.path", ("dense", "streaming"), "count"),
        ("experiments", ("self_s",), None),
        ("experiments", ("tasks",), "count"),
        ("experiments", ("payload_bytes",), "B"),
        ("experiments.instance_pair", ("s", "calls"), None),
    )
    for field in fields
] + [(f"{layer}.share", "fraction") for layer in LAYERS] + [
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "trial", "info")

    def __init__(self, name, parent, trial):
        self.name = name
        self.parent = parent
        self.trial = trial
        self.info = None
        self.start = self.end = 0.0


class Tracer:
    """Collects spans in memory; ``installed()`` puts the wrappers in place."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._trial = None

    def wrap(self, name, fn, info=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None, self._trial)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if info is not None:
                span.info = info(fn, args, kwargs, result)
            return result

        return traced

    def _wrap_trial(self, fn):
        traced = self.wrap("experiments.trial", fn, lambda fn, a, k, r: {"payload": a[0]})

        @functools.wraps(fn)
        def trial(payload):
            self._trial = (payload["cell"], payload["trial"])
            try:
                return traced(payload)
            finally:
                self._trial = None

        return trial

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        restore = []
        try:
            for name, targets in TARGETS.items():
                for module, path, hook in targets:
                    owner = importlib.import_module(f"enttest.{module}")
                    cls_name, _, attr = path.rpartition(".")
                    if cls_name:
                        cls = getattr(owner, cls_name)
                        orig = cls.__dict__[attr]
                        setattr(cls, attr, self.wrap(name, orig, hook))
                        restore.append((cls, attr, orig))
                    else:
                        orig = getattr(owner, attr)
                        _rebind(orig, self.wrap(name, orig, hook), restore)
            experiments = importlib.import_module("enttest.experiments")
            orig = experiments._run_trial
            _rebind(orig, self._wrap_trial(orig), restore)
            yield self
        finally:
            for owner, attr, orig in reversed(restore):
                setattr(owner, attr, orig)

    def run(self, fn, *args, **kwargs):
        """Call ``fn`` as a root span (the suite run); return its result."""
        return self.wrap("experiments.run", fn)(*args, **kwargs)


def _rebind(orig, new, restore):
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "enttest" and not mod_name.startswith("enttest."):
            continue
        for attr, value in list(vars(module).items()):
            if value is orig:
                setattr(module, attr, new)
                restore.append((module, attr, orig))


# ---------------------------------------------------------------------------
# Span analysis
# ---------------------------------------------------------------------------


def self_times(spans):
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    return [span.end - span.start - c for span, c in zip(spans, covered)]


def _ancestors(spans, i):
    parent = spans[i].parent
    while parent is not None:
        yield parent
        parent = spans[parent].parent


def _percentile(sorted_values, q):
    if not sorted_values:
        return 0.0
    return sorted_values[max(math.ceil(q * len(sorted_values)) - 1, 0)]


def analyse(spans):
    """Per-layer metrics (every ``PER_LAYER`` name but ``trace.*``) plus a
    traffic record of the histograms behind them."""
    self_t = self_times(spans)
    wall = sum(s.end - s.start for s in spans if s.parent is None)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)

    metrics = {}
    for base in TARGETS:
        idx = by_name.get(base, [])
        outer = [i for i in idx if all(spans[a].name != base for a in _ancestors(spans, i))]
        durations = sorted((spans[i].end - spans[i].start) * 1e3 for i in idx)
        metrics[f"{base}.s"] = sum(spans[i].end - spans[i].start for i in outer)
        metrics[f"{base}.self_s"] = sum(self_t[i] for i in idx)
        metrics[f"{base}.calls"] = len(idx)
        metrics[f"{base}.ms.p50"] = _percentile(durations, 0.5)
        metrics[f"{base}.ms.p90"] = _percentile(durations, 0.9)
        for key in ("cells", "samples"):
            metrics[f"{base}.{key}"] = sum(spans[i].info[key] for i in idx if spans[i].info and key in spans[i].info)

    alias_sizes = {}
    for i in by_name.get("core.alias_build", []):
        n = spans[i].info["n"]
        alias_sizes[n] = alias_sizes.get(n, 0) + 1

    fired = dict.fromkeys(FIRED_STAGES, 0)
    branches = dict.fromkeys(BRANCHES, 0)
    for name in _DECISIONS:
        for i in by_name.get(name, []):
            if any(spans[a].name in _DECISIONS for a in _ancestors(spans, i)):
                continue
            stage = spans[i].info["fired"]
            fired[stage if stage in fired else "other"] += 1
    for i in by_name.get("pipeline.combined", []):
        branch = spans[i].info["branch"]
        branches[branch] = branches.get(branch, 0) + 1
    metrics.update({f"pipeline.fired.{k}": v for k, v in fired.items()})
    metrics.update({f"pipeline.branch.{k}": branches[k] for k in BRANCHES})

    keys = [spans[i].info["key"] for name in _KEYED for i in by_name.get(name, [])]
    metrics["instances.rebuild_ratio"] = len(keys) / len(set(keys)) if keys else 0.0

    streaming = set()
    for i in by_name.get("bayesnet.sample", []):
        tester = next((a for a in _ancestors(spans, i) if spans[a].name in _BN_TESTERS), None)
        if tester is not None:
            streaming.add(tester)
    paths = []
    for name in _BN_TESTERS:
        for i in by_name.get(name, []):
            span = spans[i]
            path = "streaming" if i in streaming else "dense"
            paths.append((name, span.info["subsets"], path, (span.end - span.start) * 1e3))
    metrics["bayesnet.subsets_swept"] = sum(p[1] for p in paths)
    metrics["bayesnet.path.dense"] = sum(p[2] == "dense" for p in paths)
    metrics["bayesnet.path.streaming"] = sum(p[2] == "streaming" for p in paths)

    trials = by_name.get("experiments.trial", [])
    metrics["experiments.tasks"] = len(trials)
    metrics["experiments.payload_bytes"] = sum(len(pickle.dumps(spans[i].info["payload"])) for i in trials)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for span, t in zip(spans, self_t):
        layer_self[span.name.split(".", 1)[0]] += t
    metrics["experiments.self_s"] = layer_self["experiments"]
    metrics.update({f"{layer}.share": layer_self[layer] / wall if wall else 0.0 for layer in LAYERS})

    traffic = {
        "layer_share": {layer: metrics[f"{layer}.share"] for layer in LAYERS},
        "branch_split": {k: metrics[f"pipeline.branch.{k}"] for k in BRANCHES},
        "fired_stage": {k: v for k, v in fired.items() if v},
        "instances.rebuild_ratio": metrics["instances.rebuild_ratio"],
        "alias_builds_by_n": {str(n): c for n, c in sorted(alias_sizes.items())},
        "bayesnet_projection_paths": _count(paths),
        "far_trials_fired": _far_trial_stages(spans, by_name),
    }
    return metrics, traffic


def _count(paths):
    """Calls, mean milliseconds and projection path per Bayes-net tester and
    subset count."""
    out = {}
    for name, subsets, path, ms in paths:
        entry = out.setdefault(f"{name}/{subsets}-subsets/{path}", {"calls": 0, "mean_ms": 0.0})
        entry["calls"] += 1
        entry["mean_ms"] += (ms - entry["mean_ms"]) / entry["calls"]
    return out


def _far_trial_stages(spans, by_name):
    """Which stage fired, per far-family trial (the decision made directly
    under the trial span)."""
    out = {}
    for name in _DECISIONS:
        for i in by_name.get(name, []):
            parent = spans[i].parent
            if parent is None or spans[parent].name != "experiments.trial":
                continue
            if str(spans[parent].info["payload"].get("family", "")).startswith("far"):
                stage = spans[i].info["fired"]
                out[stage] = out.get(stage, 0) + 1
    return out


def span_rows(spans):
    """Spans as JSON-ready rows: name, start, end, parent index, trial id."""
    return [[s.name, s.start, s.end, s.parent, s.trial] for s in spans]
