"""tools/bench_pairs.py on canned runs and throwaway trees; no benchmark runs here."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _pair(parent_rss, change_rss, wall=1.0):
    values = {"wall_s": wall, "wall_s.w1": wall, "setup_s": 0.2, "samples_per_decision": 100.0,
              "correct": True, "failed": 0}
    return {"parent": dict(values, peak_rss_mb=parent_rss), "change": dict(values, peak_rss_mb=change_rss)}


RUNS = [_pair(p, c) for p, c in [(55.5, 51.5), (55.6, 51.4), (55.7, 51.3), (55.4, 51.6), (55.8, 55.9)]]


def test_summary_medians_quartiles_and_lower_pairs():
    rss = bench_pairs.summarize(RUNS)["peak_rss_mb"]
    assert rss["parent_median"] == 55.6 and rss["change_median"] == 51.5
    # statistics.quantiles' default (exclusive) method
    assert rss["parent_quartiles"] == pytest.approx([55.45, 55.75])
    assert rss["change_quartiles"] == pytest.approx([51.35, 53.75])
    assert rss["change_lower_in"] == 4 and rss["pairs"] == 5


def test_ties_are_not_lower_and_missing_metrics_are_left_out():
    runs = [_pair(50.0, 50.0) for _ in range(3)]
    del runs[1]["change"]["setup_s"]
    summary = bench_pairs.summarize(runs)
    assert summary["wall_s"]["change_lower_in"] == 0 and summary["peak_rss_mb"]["change_lower_in"] == 0
    assert "setup_s" not in summary
    assert list(summary) == ["wall_s", "wall_s.w1", "samples_per_decision", "peak_rss_mb"]


def test_parse_run_reads_the_last_line():
    last = {"correct": True, "attempted": 10, "failed": 0,
            "metrics": {"wall_s": {"value": 0.9, "unit": "s"}, "peak_rss_mb": {"value": 51.4, "unit": "MB"}}}
    stdout = "workload bayesnet, seed 7\nwall_s = 0.9 s\n" + json.dumps(last) + "\n"
    assert bench_pairs.parse_run(stdout) == {"wall_s": 0.9, "peak_rss_mb": 51.4, "correct": True, "failed": 0}


def test_record_adds_a_seed_only_to_the_same_parent_and_tree():
    fields = {"workload": "bayesnet", "parent_commit": "abc", "change": "c", "claim": "peak_rss_mb"}
    first = bench_pairs.record({}, fields, 7, RUNS, "d1")
    assert list(first["alternating_pairs"]) == ["seed 7"]
    assert first["alternating_pairs"]["seed 7"]["runs"] == RUNS
    assert first["alternating_pairs"]["seed 7"]["src_digest"] == "d1"
    second = bench_pairs.record(json.loads(json.dumps(first)), fields, 11, RUNS[:2], "d1")
    assert list(second["alternating_pairs"]) == ["seed 7", "seed 11"]
    assert second["alternating_pairs"]["seed 11"]["pairs"] == 2
    with pytest.raises(SystemExit, match="parent_commit"):
        bench_pairs.record(second, dict(fields, parent_commit="def"), 13, RUNS, "d1")
    with pytest.raises(SystemExit, match="workload"):
        bench_pairs.record(second, dict(fields, workload="grid"), 13, RUNS, "d1")
    with pytest.raises(SystemExit, match="another src/ tree"):
        bench_pairs.record(second, fields, 13, RUNS, "d2")
    assert list(second["alternating_pairs"]) == ["seed 7", "seed 11"]


def test_src_digest_follows_src_files_only(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "a.py").write_text("x = 1\n")
    before = bench_pairs.src_digest(tmp_path)
    (tmp_path / "README.md").write_text("notes\n")
    assert bench_pairs.src_digest(tmp_path) == before
    (tmp_path / "src" / "pkg" / "a.py").write_text("x = 2\n")
    assert bench_pairs.src_digest(tmp_path) != before


def test_blas_fields_read_the_config_and_the_thread_variables():
    config = {"Build Dependencies": {"blas": {"name": "scipy-openblas", "found": True, "version": "0.3.31"},
                                     "lapack": {"name": "scipy-openblas"}}}
    environ = {"OMP_NUM_THREADS": "1", "PATH": "/usr/bin"}
    assert bench_pairs.blas_fields(environ, config) == {
        "name": "scipy-openblas", "version": "0.3.31",
        "OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": None,
    }
    unknown = bench_pairs.blas_fields({"MKL_NUM_THREADS": "2"}, {})
    assert unknown["name"] is None and unknown["version"] is None and unknown["MKL_NUM_THREADS"] == "2"
    assert json.loads(json.dumps(unknown)) == unknown


def test_paired_block_reads_within_pair_ratios():
    rss = bench_pairs.summarize(RUNS)["peak_rss_mb"]["paired"]
    ratios = sorted(c / p for p, c in [(55.5, 51.5), (55.6, 51.4), (55.7, 51.3), (55.4, 51.6), (55.8, 55.9)])
    assert rss["median_ratio"] == ratios[2] == 51.5 / 55.5
    # statistics.quantiles' default (exclusive) method: positions 1.5 and 4.5
    assert rss["ratio_quartiles"] == pytest.approx([(ratios[0] + ratios[1]) / 2, (ratios[3] + ratios[4]) / 2])
    # 4 lower against 1 higher: 2 * (1 + 5) / 32
    assert rss["sign_test_p"] == pytest.approx(0.375)
    # equal runs: every ratio is 1 and no pair is lower or higher
    wall = bench_pairs.summarize(RUNS)["wall_s"]["paired"]
    assert wall == {"median_ratio": 1.0, "ratio_quartiles": [1.0, 1.0], "sign_test_p": 1.0}


def test_sign_test_is_two_sided_and_exact():
    assert bench_pairs.sign_test(10, 0) == bench_pairs.sign_test(0, 10) == pytest.approx(2 / 1024)
    assert bench_pairs.sign_test(9, 1) == pytest.approx(2 * 11 / 1024)
    assert bench_pairs.sign_test(5, 5) == 1.0 and bench_pairs.sign_test(0, 0) == 1.0


def test_paired_ratios_skip_a_zero_parent():
    runs = [_pair(0.0, 1.0), _pair(2.0, 1.0), _pair(4.0, 1.0)]
    block = bench_pairs.summarize(runs)["peak_rss_mb"]["paired"]
    # the exclusive quartiles of two ratios, 0.25 and 0.5, reach past them
    assert block["median_ratio"] == pytest.approx(0.375)
    assert block["ratio_quartiles"] == pytest.approx([0.1875, 0.5625])
    none = bench_pairs.paired([0.0, 0.0], [1.0, 2.0])
    assert none["median_ratio"] is None and none["ratio_quartiles"] is None and none["sign_test_p"] == 0.5


def test_recompute_rewrites_summaries_from_stored_runs(tmp_path, monkeypatch):
    def no_runs(*args):
        raise AssertionError("recompute ran the benchmark")

    monkeypatch.setattr(bench_pairs, "bench", no_runs)
    old = bench_pairs.record({}, {"workload": "bayesnet", "parent_commit": "abc"}, 7, RUNS, "d1")
    old["alternating_pairs"]["seed 7"]["summary"] = {"wall_s": {"parent": {"median": 1.0}}}
    old["alternating_pairs"]["seed 9"] = {"pairs": 0, "summary": {"note": "kept"}}
    path = tmp_path / "BENCH_x.json"
    path.write_text(json.dumps(old))
    assert bench_pairs.main(["--recompute", str(path)]) == 0
    new = json.loads(path.read_text())
    assert new["alternating_pairs"]["seed 7"]["summary"] == json.loads(json.dumps(bench_pairs.summarize(RUNS)))
    assert new["alternating_pairs"]["seed 9"] == old["alternating_pairs"]["seed 9"]
    del new["alternating_pairs"], old["alternating_pairs"]
    assert new == old


def test_a_benchmark_run_needs_its_arguments():
    with pytest.raises(SystemExit):
        bench_pairs.main(["--workload", "bayesnet"])


def test_change_side_is_an_export_of_the_working_tree(tmp_path):
    # tracked files as they are on disk, untracked files git does not
    # ignore, and nothing it ignores or a deleted tracked file
    root, dest = tmp_path / "tree", tmp_path / "export"
    (root / "src" / "pkg").mkdir(parents=True)
    subprocess.run(["git", "init", "-q", str(root)], check=True)
    (root / ".gitignore").write_text("__pycache__/\n*.out\n")
    (root / "src" / "pkg" / "a.py").write_text("x = 1\n")
    (root / "gone.py").write_text("y = 1\n")
    subprocess.run(["git", "add", "-A"], cwd=root, check=True)
    (root / "src" / "pkg" / "a.py").write_text("x = 2\n")
    (root / "new.py").write_text("z = 1\n")
    (root / "run.out").write_text("left by a run\n")
    (root / "src" / "pkg" / "__pycache__").mkdir()
    (root / "src" / "pkg" / "__pycache__" / "a.pyc").write_bytes(b"\0")
    (root / "gone.py").unlink()
    bench_pairs.export_worktree(dest, root)
    files = sorted(str(p.relative_to(dest)) for p in dest.rglob("*") if p.is_file())
    assert files == [".gitignore", "new.py", "src/pkg/a.py"]
    assert (dest / "src" / "pkg" / "a.py").read_text() == "x = 2\n"
    assert bench_pairs.src_digest(dest) == bench_pairs.src_digest(root)
