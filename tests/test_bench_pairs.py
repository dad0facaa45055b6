"""The summary of tools/bench_pairs.py on canned runs; no benchmark runs here."""

import importlib.util
import json
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
