"""The enttest benchmark: one command per workload, run from the repository root.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 25 --trace 0

With ``--trace 0`` each suite execution of the workload runs untraced in a
fresh interpreter (``child.py``), repeatedly until ``--seconds`` is used up
(at least three times), and the end-to-end metrics are medians over those
runs.  With ``--trace 1`` the workload runs in this process at one worker,
once untraced and once with the tracer's wrappers installed, and the
per-layer metrics come from the traced run's spans.  Either way the pinned
suite gates are on: a cell that violates its gate, or whose suite raised,
counts as a failed operation.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Full
records (environment stamp, per-run values, digests, traffic histograms,
spans) are written under ``.bench_out/records/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

END_TO_END = [
    ("wall_s", "s"),
    ("wall_s.w1", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("samples_per_decision", "samples"),
]
MIN_RUNS = 3
SETUP_PROBES = 3  # set-up-only launches after each repetition
CHILD_TIMEOUT_S = 150


# ---------------------------------------------------------------------------
# results.csv checks
# ---------------------------------------------------------------------------


def _rows(csv_text):
    lines = csv_text.splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def digest(csv_text):
    return hashlib.sha256(csv_text.encode()).hexdigest()


def samples_per_decision(outputs):
    """Mean samples_used per tester decision, weighted by trials, over
    (results.csv text, suite kind) pairs."""
    cells = [r for csv_text, kind in outputs for r in _rows(csv_text)
             if r["instance_family"] in workloads.DECISION_FAMILIES[kind]]
    trials = sum(int(r["trials"]) for r in cells)
    return sum(int(r["trials"]) * float(r["mean_samples"]) for r in cells) / trials


def _cell_outcome(code, violations, csv_text):
    """(cells attempted, cells failed) for one suite execution."""
    total = len(_rows(csv_text)) if csv_text else 1
    if code not in (0, 2):
        return total, total
    return total, min(len(violations), total)


# ---------------------------------------------------------------------------
# Untraced runs: fresh interpreter per suite execution
# ---------------------------------------------------------------------------


def _run_child(execution, spec_path, out_dir):
    results = out_dir / "results.csv"
    results.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(SRC), execution.command, str(spec_path),
           str(execution.workers)]
    launch = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out, err = "", f"suite execution exceeded {CHILD_TIMEOUT_S} s"
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)  # pool workers left by a crash
        proc.wait()
    try:
        record = json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        record = {"error": err.strip() or "no result from the suite process"}
    if "error" not in record and record.get("code") not in (0, 2):
        record["error"] = err.strip() or f"suite exited with code {record.get('code')}"
    if "error" in record:
        sys.stderr.write(f"{execution.label}: {record['error']}\n")
    csv_text = results.read_text() if results.exists() else ""
    attempted, failed = _cell_outcome(record.get("code", 1), record.get("violations", []), csv_text)
    ok = "ready" in record and "end" in record
    return {
        "label": execution.label,
        "setup_s": record["ready"] - launch if ok else None,
        "wall_s": record["end"] - record["ready"] if ok else None,
        "peak_rss_mb": max(record.get("rss_self_kb", 0), record.get("rss_children_kb", 0)) / 1024.0,
        "csv": csv_text,
        "attempted": attempted,
        "failed": failed,
        "violations": record.get("violations", []),
        "error": record.get("error"),
    }


def _setup_probe(execution, spec_path):
    """Seconds from launch until the suite would start, or None on failure."""
    cmd = [sys.executable, str(HERE / "child.py"), str(SRC), execution.command, str(spec_path),
           str(execution.workers), "--setup-only"]
    launch = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        return json.loads(proc.stdout.strip().splitlines()[-1])["ready"] - launch
    except (subprocess.TimeoutExpired, IndexError, KeyError, json.JSONDecodeError):
        sys.stderr.write(f"{execution.label}: set-up probe failed\n")
        return None


def untraced(workload, seed, seconds, work):
    execs = workloads.executions(workload, seed)
    specs = {}
    for e in execs:
        out_dir = work / e.label
        out_dir.mkdir(parents=True, exist_ok=True)
        specs[e.label] = work / f"{e.label}.spec.json"
        specs[e.label].write_text(json.dumps(dict(e.spec, out_dir=str(out_dir))))
    runs = []
    probes = []
    start = time.monotonic()
    while True:
        runs.append([_run_child(e, specs[e.label], work / e.label) for e in execs])
        probes += [_setup_probe(execs[0], specs[execs[0].label]) for _ in range(SETUP_PROBES)]
        elapsed = time.monotonic() - start
        if len(runs) >= MIN_RUNS and elapsed + elapsed / len(runs) > seconds:
            break

    flat = [r for run in runs for r in run]
    attempted = sum(r["attempted"] for r in flat)
    failed = sum(r["failed"] for r in flat)
    errors = [r["error"] for r in flat if r["error"]] + ["set-up probe failed" for p in probes if p is None]
    record = {"runs": [], "checks": {}}
    correct = not errors and failed == 0
    metrics = {}
    if not errors:
        per_run = []
        for run in runs:
            main = [(e, r) for e, r in zip(execs, run) if e.main]
            per_run.append({
                "wall_s": sum(r["wall_s"] for _, r in main),
                "wall_s.w1": sum(r["wall_s"] for e, r in zip(execs, run) if e.workers == 1),
                "peak_rss_mb": max(r["peak_rss_mb"] for _, r in main),
                "samples_per_decision": samples_per_decision([(r["csv"], e.kind) for e, r in main]),
            })
        metrics = {name: statistics.median(p[name] for p in per_run) for name in
                   ("wall_s", "wall_s.w1", "peak_rss_mb", "samples_per_decision")}
        setups = [r["setup_s"] for r in flat] + probes
        metrics["setup_s"] = statistics.median(setups)
        record["runs"] = per_run
        record["setup_s"] = setups
        correct &= _check_digests(execs, runs, record)
    record["violations"] = sorted({v for r in flat for v in r["violations"]})
    record["errors"] = errors
    return correct, attempted, failed, metrics, record, len(runs)


def _check_digests(execs, runs, record):
    """Same spec and seed must give the same results.csv in every process,
    and on the scaling workload at 1 and at 2 workers."""
    ok = True
    for i, e in enumerate(execs):
        digests = sorted({digest(run[i]["csv"]) for run in runs})
        record["checks"][f"{e.label}.sha256"] = digests
        record["checks"][f"{e.label}.agree_across_runs"] = len(digests) == 1
        ok &= len(digests) == 1
    mains = [i for i, e in enumerate(execs) if e.main]
    baselines = [i for i, e in enumerate(execs) if not e.main]
    for i, j in zip(mains, baselines):
        agree = all(digest(run[i]["csv"]) == digest(run[j]["csv"]) for run in runs)
        record["checks"][f"{execs[i].label}_vs_{execs[j].label}.agree"] = agree
        ok &= agree
    return ok


# ---------------------------------------------------------------------------
# Traced runs: this process, one worker
# ---------------------------------------------------------------------------


def _suite(run_experiment, spec):
    """Run one suite with its gates on; return (wall, cells attempted, failed, csv)."""
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = run_experiment(spec, workers=1, check=True)
    wall = time.perf_counter() - start
    violations = [line for line in out.getvalue().splitlines() if line.startswith("CHECK FAIL: ")]
    csv_text = (Path(spec.out_dir) / "results.csv").read_text()
    return (wall, *_cell_outcome(code, violations, csv_text), csv_text)


def traced(workload, seed, seconds, work):
    sys.path.insert(0, str(SRC))
    from enttest.experiments import ExperimentSpec, run_experiment

    execs = [e for e in workloads.executions(workload, seed) if e.workers == 1]

    def spec(e, tag):
        return ExperimentSpec(**dict(e.spec, out_dir=str(work / f"{e.label}-{tag}")))

    pairs = []
    attempted = failed = 0
    identical = True
    start = time.monotonic()
    try:
        # the first suite run in a process pays one-time costs (first-touch
        # memory, lazy imports); a discarded untraced run takes them
        warm = [_suite(run_experiment, spec(e, "warm")) for e in execs]
        attempted += sum(r[1] for r in warm)
        failed += sum(r[2] for r in warm)
        warmed = time.monotonic()
        while True:
            plain = [_suite(run_experiment, spec(e, "plain")) for e in execs]
            t = tracer.Tracer()
            with t.installed():
                with_spans = [_suite(lambda s, **kw: t.run(run_experiment, s, **kw), spec(e, "traced"))
                              for e in execs]
            attempted += sum(r[1] for r in plain + with_spans)
            failed += sum(r[2] for r in plain + with_spans)
            identical &= all(a[3] == b[3] for a, b in zip(plain, with_spans))
            metrics, traffic = tracer.analyse(t.spans)
            metrics["trace.wall_s"] = sum(s.end - s.start for s in t.spans if s.parent is None)
            metrics["trace.untraced_wall_s"] = sum(r[0] for r in plain)
            metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
            metrics["trace.spans"] = len(t.spans)
            pairs.append((metrics, traffic, t.spans))
            now = time.monotonic()
            if now - start + (now - warmed) / len(pairs) > seconds:
                break
    except Exception as exc:  # a suite raised: every cell of the run failed
        traceback.print_exc()
        return False, max(attempted, 1), max(attempted, 1), {}, {"errors": [repr(exc)]}, len(pairs)

    names = [name for name, _ in tracer.PER_LAYER]
    metrics = {name: statistics.median(p[0][name] for p in pairs) for name in names}
    last_spans = pairs[-1][2]
    spans_path = OUT / "records" / f"{workload}-s{seed}-spans.json"
    spans_path.write_text(json.dumps(tracer.span_rows(last_spans)))
    record = {
        "traffic": pairs[-1][1],
        "traced_csv_identical": identical,
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return identical and failed == 0, attempted, failed, metrics, record, len(pairs)


# ---------------------------------------------------------------------------
# Environment stamp
# ---------------------------------------------------------------------------


def _version(package):
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "absent"


def _git_head():
    """HEAD read from .git without running git; a plain checkout has none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[len("ref: "):]
            loose = git / ref
            if loose.exists():
                return loose.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
        return head
    except OSError:
        return "unavailable"


def environment(workload, seed, trace):
    execs = workloads.executions(workload, seed)
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "git_head": _git_head(),
        "seed": seed,
        "trace": trace,
        "executions": [
            {"label": e.label, "kind": e.kind, "workers": 1 if trace else e.workers,
             "trials_per_cell": e.spec["trials"]}
            for e in execs if not trace or e.workers == 1
        ],
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "enttest" / "__init__.py").is_file():
        sys.stderr.write(f"error: no enttest sources under {SRC}; run from a full checkout\n")
        return 2

    work = OUT / f"work-{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    (OUT / "records").mkdir(parents=True, exist_ok=True)
    try:
        run = traced if args.trace else untraced
        correct, attempted, failed, values, record, repeats = run(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    catalog = tracer.PER_LAYER if args.trace else END_TO_END
    env = environment(args.workload, args.seed, args.trace)
    record.update(env=env, correct=correct, attempted=attempted, failed=failed, metrics=values)
    record_path = OUT / "records" / f"{args.workload}-s{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, default=str))

    print(f"workload {args.workload}, seed {args.seed}, {repeats} run(s); python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, nproc {env['nproc']}, git {env['git_head']}, "
          f"src {env['src_lines']} lines; "
          + ", ".join(f"{e['label']}: {e['workers']} worker(s), {e['trials_per_cell']} trials/cell"
                      for e in env["executions"]))
    for name, unit in catalog:
        if name in values:
            print(f"{name} = {values[name]:.6g} {unit}")
    print(f"cells_failed = {failed} of cells_total = {attempted}")
    for key, value in record.get("checks", {}).items():
        print(f"check {key}: {value}")
    for line in record.get("violations", []):
        print(f"violation: {line}")
    if "traced_csv_identical" in record:
        print(f"traced results.csv identical to untraced: {record['traced_csv_identical']}")
    print(f"record: {record_path.relative_to(ROOT)}")
    if len(values) != len(catalog):
        correct = False
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in catalog if name in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
