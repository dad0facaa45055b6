"""Benchmark a change against a parent revision in alternating pairs, and
write the record as ``BENCH_<label>.json``.

    python3 tools/bench_pairs.py --workload bayesnet --parent HEAD --seed 7 \\
        --label bayesnet --claim peak_rss_mb --change "what changed"

The parent's committed files are exported with ``git archive`` into a
temporary directory (nothing is registered in the repository), and
``perfbench/run.py --trace 0`` runs on that copy and on the working tree in
turn: ten pairs of one run each, the parent first in even pairs and the
change first in odd ones, so that a drift in machine load falls on both
sides.  Each run's values are the medians ``run.py`` reports.  Per
end-to-end metric the record holds both sides' median and quartiles over
the pairs and ``change_lower_in``, the number of pairs whose change value
is below its parent value.  It also holds the ``src/`` line counts, the
git HEAD, the numpy version, the core count, and the BLAS numpy was built
with beside the BLAS thread variables the runs inherit
(``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``, ``MKL_NUM_THREADS``; null
where unset).  Every run lasts the benchmark's own ``run_seconds``
(``BENCHMARK.json``), so records stay comparable with the benchmark's
bounds.

Each seed's pairs carry ``src_digest``, a hash of the working tree's
``src/``.  A new seed is added to an existing record only when the record
holds the same parent and workload and every seed in it has the same
digest; otherwise the command stops before running anything, and the
record has to be given a new ``--label``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
PAIRS = 10
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def summarize(runs):
    """Per metric, the two sides' medians and quartiles over ``runs`` (a
    list of ``{"parent": values, "change": values}`` pairs) and the pairs
    whose change value is lower.  A metric missing from any run is left out."""
    summary = {}
    for name in (key for key in runs[0]["parent"] if key not in ("correct", "failed")):
        if not all(name in run[side] for run in runs for side in ("parent", "change")):
            continue
        parent = [run["parent"][name] for run in runs]
        change = [run["change"][name] for run in runs]
        summary[name] = {
            "parent_median": statistics.median(parent),
            "parent_quartiles": _quartiles(parent),
            "change_median": statistics.median(change),
            "change_quartiles": _quartiles(change),
            "change_lower_in": sum(c < p for p, c in zip(parent, change)),
            "pairs": len(runs),
        }
    return summary


def _quartiles(values):
    if len(values) < 2:
        return [values[0]] * 2
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def parse_run(stdout: str) -> dict:
    """One run's values from ``perfbench/run.py``'s last line of output."""
    last = json.loads(stdout.strip().splitlines()[-1])
    values = {name: metric["value"] for name, metric in last["metrics"].items()}
    return dict(values, correct=last["correct"], failed=last["failed"])


def src_lines(tree: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((tree / "src").rglob("*.py")))


def src_digest(tree: Path) -> str:
    """sha256 over the paths and bytes of the ``src/`` files of ``tree``."""
    digest = hashlib.sha256()
    for path in sorted((tree / "src").rglob("*.py")):
        digest.update(str(path.relative_to(tree)).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def blas_fields(environ, config: dict) -> dict:
    """The BLAS name and version from ``config``, numpy's
    ``show_config(mode="dicts")``, and each of ``BLAS_THREAD_VARS`` in
    ``environ`` (None where unset or unknown)."""
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version"),
            **{var: environ.get(var) for var in BLAS_THREAD_VARS}}


def _numpy_config() -> dict:
    import numpy

    try:
        return numpy.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 prints its configuration only
        return {}


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: Path):
    """The committed files of ``rev`` under ``dest``."""
    with tempfile.TemporaryFile() as archive:
        subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, stdout=archive)
        archive.seek(0)
        with tarfile.open(fileobj=archive) as tar:
            tar.extractall(dest)


def bench(tree: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench/run.py failed in {tree}:\n{proc.stderr}")
    return parse_run(proc.stdout)


def check_mergeable(old: dict, fields: dict, digest: str):
    """Stop unless this run's pairs may join the record ``old``: the same
    parent and workload, and every seed in it run on a ``src/`` with the
    same digest."""
    if not old:
        return
    for key in ("parent_commit", "workload"):
        if old.get(key) != fields[key]:
            raise SystemExit(f"the record holds {key} {old.get(key)!r}, not {fields[key]!r}; "
                             "give this run a new --label")
    if any(seed.get("src_digest") != digest for seed in old.get("alternating_pairs", {}).values()):
        raise SystemExit("the record's pairs were run on another src/ tree; give this run a new --label")


def record(old: dict, fields: dict, seed: int, runs, digest: str) -> dict:
    """The BENCH record: ``fields`` with this seed's pairs, added to the
    record ``old`` (see ``check_mergeable``)."""
    check_mergeable(old, fields, digest)
    seeds = dict(old.get("alternating_pairs", {}))
    seeds[f"seed {seed}"] = {"pairs": len(runs), "src_digest": digest, "summary": summarize(runs), "runs": runs}
    return dict(old, **fields, alternating_pairs=seeds)


def _fields(args, parent: str, parent_tree: Path) -> dict:
    dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
    return {
        "workload": args.workload,
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed SEED "
                   f"--seconds {SECONDS} --trace 0",
        "parent_commit": parent,
        "head": _git("rev-parse", "HEAD") + (" with uncommitted changes" if dirty else ""),
        "machine": f"{_cores()} cores ({platform.system()}), Python {platform.python_version()}, "
                   f"numpy {metadata.version('numpy')}",
        "blas": blas_fields(os.environ, _numpy_config()),
        "change": args.change,
        "claim": args.claim,
        "src_lines": {"parent": src_lines(parent_tree), "change": src_lines(ROOT)},
    }


def _cores() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("grid", "scaling", "bayesnet"))
    parser.add_argument("--parent", required=True, help="the revision to compare against")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json at the repository root")
    parser.add_argument("--change", required=True, help="one line on what the change does")
    parser.add_argument("--claim", default="", help="the metric the change claims to improve")
    parser.add_argument("--tmpdir", type=Path, default=None,
                        help="the directory to export the parent under (default: the system's)")
    args = parser.parse_args(argv)
    parent = _git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    path = ROOT / f"BENCH_{args.label}.json"
    old = json.loads(path.read_text()) if path.exists() else {}
    digest = src_digest(ROOT)
    with tempfile.TemporaryDirectory(dir=args.tmpdir) as tmp:
        parent_tree = Path(tmp) / "parent"
        export(parent, parent_tree)
        fields = _fields(args, parent, parent_tree)
        check_mergeable(old, fields, digest)
        runs = []
        for i in range(PAIRS):
            sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {side: bench(parent_tree if side == "parent" else ROOT, args.workload, args.seed)
                    for side in sides}
            runs.append({"parent": pair["parent"], "change": pair["change"]})
            print(f"pair {i + 1}/{PAIRS}: " + ", ".join(
                f"{side} {pair[side].get(args.claim or 'wall_s')}" for side in ("parent", "change")), flush=True)
        if src_digest(ROOT) != digest:
            raise SystemExit("src/ changed while the pairs ran; nothing written")
        path.write_text(json.dumps(record(old, fields, args.seed, runs, digest), indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    for name, s in summarize(runs).items():
        print(f"{name}: parent {s['parent_median']:.6g} {s['parent_quartiles']}, change {s['change_median']:.6g} "
              f"{s['change_quartiles']}, change lower in {s['change_lower_in']} of {s['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
