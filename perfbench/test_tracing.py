"""Tests of the benchmark itself: the tracer must not change what a suite
writes, and its spans must add up.  Run from the repository root:

    python3 -m pytest perfbench/test_tracing.py
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
from enttest import core, experiments, pipeline  # noqa: E402

# Each workload's suite kind at a size that runs in seconds.
SMALL = {
    "grid": dict(kind="error_grid", n_values=[1024], eps_values=[0.4], trials=2),
    "scaling": dict(kind="scaling", n_values=[1024, 4096], eps_values=[0.3], trials=2),
    "bayesnet": dict(kind="bayesnet", n_values=[6], eps_values=[0.3], d_values=[2], trials=2),
}


@pytest.fixture(scope="module", params=sorted(SMALL))
def traced_suite(request, tmp_path_factory):
    """One untraced and one traced run of the same spec in this process."""
    out = tmp_path_factory.mktemp(request.param)
    spec = dict(SMALL[request.param], seed=20260808)
    experiments.run_experiment(experiments.ExperimentSpec(**spec, out_dir=str(out / "plain")), workers=1)
    t = tracer.Tracer()
    with t.installed():
        t.run(experiments.run_experiment, experiments.ExperimentSpec(**spec, out_dir=str(out / "traced")),
              workers=1)
    return out, t.spans


def test_traced_results_csv_is_byte_identical(traced_suite):
    out, _ = traced_suite
    assert (out / "traced" / "results.csv").read_bytes() == (out / "plain" / "results.csv").read_bytes()


def test_child_spans_lie_inside_their_parent(traced_suite):
    _, spans = traced_suite
    assert len(spans) > 1
    for span in spans:
        assert span.start <= span.end
        if span.parent is not None:
            parent = spans[span.parent]
            assert parent.start <= span.start and span.end <= parent.end
            if parent.name == "experiments.trial":
                assert span.trial == parent.trial is not None


def test_self_times_sum_to_traced_wall(traced_suite):
    _, spans = traced_suite
    wall = sum(s.end - s.start for s in spans if s.parent is None)
    assert [s.name for s in spans if s.parent is None] == ["experiments.run"]
    assert sum(tracer.self_times(spans)) == pytest.approx(wall, rel=1e-9)
    metrics, _ = tracer.analyse(spans)
    assert sum(metrics[f"{layer}.share"] for layer in tracer.LAYERS) == pytest.approx(1.0)


def test_wrappers_are_removed_after_the_run(traced_suite):
    assert experiments.run_eet is pipeline.run_eet
    assert not hasattr(pipeline.run_eet, "__wrapped__")
    assert not hasattr(core.Sampler.poisson_counts, "__wrapped__")
    assert not hasattr(experiments._run_trial, "__wrapped__")


def test_metric_catalogs_match_benchmark_json(traced_suite):
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == tracer.PER_LAYER
    metrics, _ = tracer.analyse(traced_suite[1])
    missing = [name for name, _ in tracer.PER_LAYER if name not in metrics and not name.startswith("trace.")]
    assert missing == []
