"""Experiment harness: spec validation, CSV determinism, worker
equivalence, calibration, and the CLI surface."""

import functools
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import threading
import time

import pytest

import enttest
from enttest import bayesnet as bn
from enttest import experiments
from enttest import instances as inst
from enttest.cli import main as cli_main
from enttest.experiments import (
    CSV_COLUMNS,
    CalibrationFailed,
    ConfigError,
    ExperimentSpec,
    calibrate,
    default_spec,
    make_instance_pair,
    resolve_workers,
    run_experiment,
)
from enttest.testers import DEFAULT_CONFIG, load_config
from enttest.testers import TestVerdict as Verdict  # not a test class

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestExperimentSpec:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ExperimentSpec(kind="nonsense").validate()
        with pytest.raises(ConfigError):
            ExperimentSpec(kind="error_grid", n_values=[], eps_values=[0.2]).validate()
        with pytest.raises(ConfigError):
            ExperimentSpec(kind="error_grid", n_values=[128], eps_values=[0.2], trials=0).validate()

    @pytest.mark.parametrize("field", ["seed", "trials"])
    @pytest.mark.parametrize("value", [1.5, 2.0, True, None, "abc", "1.5"])
    def test_non_integer_seed_or_trials_rejected(self, field, value):
        # a float seed once ran from int(seed) while results.csv recorded the float
        spec = ExperimentSpec(kind="error_grid", n_values=[128], eps_values=[0.2])
        setattr(spec, field, value)
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            spec.validate()

    def test_decimal_strings_become_integers(self):
        spec = ExperimentSpec(kind="error_grid", n_values=[128], eps_values=[0.2], trials="7", seed="11")
        assert (spec.validate().trials, spec.seed) == (7, 11)

    def test_far_reach_error_reads_zero(self):
        # core.entropy once gave -0.0 for a point mass, and this read "-0"
        with pytest.raises(ConfigError, match="far:mi .* it reaches at most 0 there"):
            ExperimentSpec(kind="error_grid", n_values=[64, 2], eps_values=[0.3]).validate()

    def test_negative_seed_rejected(self):
        # SeedSequence takes non-negative integers only
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            ExperimentSpec(kind="error_grid", n_values=[128], eps_values=[0.2], seed=-1).validate()

    def test_eps_range_depends_on_kind(self):
        # bad values of every grid are in TestCli.test_bad_grid_value_exits_one
        # (eps 1 is out of the far Bayes-net pairs' reach: bn-eps-1 there)
        assert ExperimentSpec(kind="bayesnet", n_values=[8], eps_values=[0.9], d_values=[2]).validate().eps_values == [0.9]
        assert ExperimentSpec(kind="error_grid", n_values=[8], eps_values=[0.5]).validate().eps_values == [0.5]

    def test_scaling_needs_two_distinct_n(self):
        # one n gives no slope to fit (np.polyfit warns and fits one point)
        for n_values in ([64], [64, 64]):
            with pytest.raises(ConfigError, match="two or more distinct n"):
                ExperimentSpec(kind="scaling", n_values=n_values, eps_values=[0.3]).validate()

    def test_scaling_takes_one_eps(self):
        # the sweep runs at eps_values[0]; further values would be dropped
        with pytest.raises(ConfigError, match="at one eps"):
            ExperimentSpec(kind="scaling", n_values=[64, 128], eps_values=[0.3, 0.1]).validate()

    def test_json_roundtrip(self, tmp_path):
        spec = default_spec("error_grid")
        path = tmp_path / "spec.json"
        spec.to_json(path)
        back = ExperimentSpec.from_json(path)
        assert back == spec

    def test_unknown_json_field(self, tmp_path):
        path = tmp_path / "spec.json"
        json.dump({"kind": "error_grid", "bogus": 1}, open(path, "w"))
        with pytest.raises(ConfigError):
            ExperimentSpec.from_json(path)

    @pytest.mark.parametrize("field", ["budget_scale", "identity_budget_scale"])
    def test_retired_budget_scale_fields_rejected(self, tmp_path, field):
        path = tmp_path / "spec.json"
        json.dump({"kind": "bayesnet", field: 0.25}, open(path, "w"))
        with pytest.raises(ConfigError, match=field):
            ExperimentSpec.from_json(path)

    def test_default_specs_valid(self):
        for kind in ("oracle_suite", "error_grid", "scaling", "bayesnet", "calibrate"):
            default_spec(kind).validate()


class TestInstanceFamilies:
    def test_null_families_identical(self):
        flat_nulls = [f for f, fam in experiments.FAMILIES.items() if fam.null and fam.build]
        assert flat_nulls
        for fam in flat_nulls:
            p, q = make_instance_pair(fam, 64, 0.3, master=1, cell=0)
            assert p == q

    def test_suite_families_are_in_the_table(self):
        for kind, families in experiments.SUITE_FAMILIES.items():
            assert set(families) <= set(experiments.FAMILIES), kind

    def test_benchmark_decision_families_match_the_suites(self, monkeypatch):
        # the benchmark counts samples_per_decision over the rows of these
        # families; a renamed family would silently drop its rows there
        path = os.path.join(REPO, "perfbench", "workloads.py")
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks itself up there
        monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read the file, write nothing beside it
        spec.loader.exec_module(workloads)
        assert workloads.DECISION_FAMILIES == experiments.SUITE_FAMILIES

    @pytest.mark.parametrize("family", [f for f, fam in experiments.FAMILIES.items() if fam.reach])
    def test_validate_refuses_eps_just_above_reach(self, family, monkeypatch):
        # an n at which the family's reach lies below its suite's top eps
        n = {"far:entropy-gap": 1, "far:mi": 2, "bn-far": 8, "bn-id-far": 8}[family]
        kind = next(k for k, families in experiments.SUITE_FAMILIES.items() if family in families)
        monkeypatch.setitem(experiments.SUITE_FAMILIES, kind, (family,))  # no other family refuses first
        reach = experiments.FAMILIES[family].reach(n)

        def spec(eps):
            return ExperimentSpec(kind=kind, n_values=[n], eps_values=[eps],
                                  d_values=[2] if kind == "bayesnet" else [])

        with pytest.raises(ConfigError, match=f"^{family} cannot certify eps"):
            spec(math.nextafter(reach, 1.0)).validate()
        if reach > 0:
            spec(reach).validate()

    def test_gate_reads_null_from_the_table(self):
        def stats(accept):
            return experiments.CellStats(accept, 1.0 - accept, 0.0, 10, {""})

        violations = []
        for family, accept in [("far:mi", 1.0), ("bn-id-null", 0.0), ("mi-correlated", 0.0), ("null:zipf", 1.0),
                               ("mi-product", 0.9), ("bn-far", 0.1)]:
            experiments._gate(violations, family, {"family": family}, stats(accept))
        assert violations == ["far:mi: reject 0.000 < 0.85", "bn-id-null: accept 0.000 < 0.85"]

    def test_dense_family_deterministic_per_cell(self):
        a, _ = make_instance_pair("null:dense", 64, 0.3, master=1, cell=0)
        b, _ = make_instance_pair("null:dense", 64, 0.3, master=1, cell=0)
        c, _ = make_instance_pair("null:dense", 64, 0.3, master=1, cell=1)
        assert a == b
        assert a != c

    def test_far_families_certified(self):
        from enttest.core import entropy

        p, q = make_instance_pair("far:entropy-gap", 256, 0.3, master=1, cell=0)
        assert entropy(q) - entropy(p) == pytest.approx(0.3, abs=1e-10)
        p, q = make_instance_pair("far:mi", 256, 0.3, master=1, cell=0)
        assert abs(entropy(p) - entropy(q)) == pytest.approx(0.3, abs=1e-8)

    def test_pair_built_once_per_cell(self, tmp_path, monkeypatch):
        # the benchmark grid's cells: on two or more cores, trial threads
        # meet at every cell boundary, and each cell's pair is still built once
        experiments._instance_pair.cache_clear()  # entries outlive other tests
        calls = []
        build = inst.make_correlated_pair

        def counted(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(inst, "make_correlated_pair", counted)
        spec = ExperimentSpec(
            kind="error_grid", n_values=[2**10, 2**12, 2**14], eps_values=[0.2, 0.4], trials=10,
            seed=2024, out_dir=str(tmp_path / "memo"),
        )
        run_experiment(spec, workers=1)
        far_mi = [(n // 2, 2, eps) for n in spec.n_values for eps in spec.eps_values]
        assert sorted(calls) == sorted(far_mi)  # one build per far:mi cell
        assert experiments._instance_pair.cache_info().misses == 30  # one per cell


class TestReproducibility:
    def _grid_spec(self, out):
        return ExperimentSpec(
            kind="error_grid", n_values=[128], eps_values=[0.3], trials=12,
            seed=2024, out_dir=str(out),
        )

    def test_rerun_byte_identical(self, tmp_path):
        s1 = self._grid_spec(tmp_path / "a")
        s2 = self._grid_spec(tmp_path / "b")
        assert run_experiment(s1, workers=1) == 0
        assert run_experiment(s2, workers=1) == 0
        a = (tmp_path / "a" / "results.csv").read_bytes()
        b = (tmp_path / "b" / "results.csv").read_bytes()
        assert a == b

    def test_worker_count_invariance(self, tmp_path):
        s1 = self._grid_spec(tmp_path / "w1")
        s4 = self._grid_spec(tmp_path / "w4")
        run_experiment(s1, workers=1)
        run_experiment(s4, workers=4)
        assert (tmp_path / "w1" / "results.csv").read_bytes() == (
            tmp_path / "w4" / "results.csv"
        ).read_bytes()

    def test_bayesnet_exact_checks_reused_across_n(self, tmp_path):
        # the checks depend on (seed, eps, d) alone, so a second n at the
        # same (seed, eps, d) reuses them and writes the rows a cold run does
        def spec(n, out):
            return ExperimentSpec(kind="bayesnet", n_values=[n], eps_values=[0.3], d_values=[1], trials=2,
                                  seed=11, out_dir=str(tmp_path / out))

        checks = experiments.bn_exact_checks
        checks.cache_clear()
        run_experiment(spec(5, "first"), workers=1)
        run_experiment(spec(4, "warm"), workers=1)
        assert (checks.cache_info().hits, checks.cache_info().misses) == (1, 1)
        checks.cache_clear()
        run_experiment(spec(4, "cold"), workers=1)
        assert (tmp_path / "warm" / "results.csv").read_bytes() == (tmp_path / "cold" / "results.csv").read_bytes()
        rows = checks(11, 0.3, 1)
        assert isinstance(rows, tuple) and rows == tuple(checks.__wrapped__(11, 0.3, 1))
        assert [name for name, _, _ in rows] == ["exact:atom-floor", "exact:telescoping", "exact:mixture-kl-drift"]

    def test_reduction_trial_independent_of_hash_seed(self):
        # the MI-reduction streams must not be seeded through str hashing
        src = os.path.dirname(os.path.dirname(enttest.__file__))
        code = (
            "from enttest.experiments import _reduction_trial\n"
            "from enttest.testers import DEFAULT_CONFIG\n"
            "print(_reduction_trial({'family': 'mi-product', 'n': 64, 'eps': 0.3,"
            " 'cfg': DEFAULT_CONFIG, 'master': 20260808, 'cell': 0, 'trial': 0}))\n"
        )
        outs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                  text=True, check=True)
            outs.append(proc.stdout)
        assert outs[0] == outs[1]

    # The SHA-256 of each results.csv is pinned: a change in RNG use or in
    # the CSV bytes must re-pin these and say so.  They were made with numpy
    # 2.4.6: numpy does not promise that Generator streams stay the same
    # across versions (NEP 19), so another numpy may change them.
    @pytest.mark.parametrize(
        "spec, sha256",
        [
            ("kind='bayesnet', n_values=[6], eps_values=[0.3], d_values=[2], trials=2",
             "89f4a5924973a72d305e73abbf3687a303f5795119056abcfab6dfbf2dc709c8"),
            # n = 12 draws each group of blocks as atom totals plus labels
            # among the group's blocks
            ("kind='bayesnet', n_values=[12], eps_values=[0.3], d_values=[2], trials=1",
             "006cd6affb7c2bb4b0193801890765c387999352fa2cd12d07e20bf592dcdffa"),
            ("kind='error_grid', n_values=[64], eps_values=[0.4], trials=2",
             "6f1a3c9d342e6f1f0269dcf7b7124e73ed97f7dd54d4e3e808692cc8b11952e2"),
            # tabled Poisson levels, and heavy-set draws of both sure and
            # unsure elements (null:zipf and null:dense)
            ("kind='error_grid', n_values=[4096], eps_values=[0.4], trials=1",
             "db8c3562f51c166dd17de5e39fed0175dadc47ec2da7968ce7c6ad80486ee44c"),
            ("kind='scaling', n_values=[64, 256], eps_values=[0.3], trials=2",
             "db7e4b96c854ef8ebb478ecdf60002e08d88a1353c75b3bcdb1a41c2430574fa"),
            # large-n count pairs, on trial threads when the process has two cores
            ("kind='scaling', n_values=[2**13, 2**14], eps_values=[0.3], trials=2",
             "8491711286bcf70bc1d7ec6d477c8b51bdccf5ea7c03d94e32042bb10e0707e9"),
            ("kind='calibrate', n_values=[64], eps_values=[0.1], trials=40",
             "8bb7efe42ec03544b8dcaaea52a714bd616377faf85700a3fc33fd0b75326cd8"),
        ],
        ids=["bayesnet", "bayesnet-n12", "error_grid", "error_grid-n4096", "scaling", "scaling-large-n",
             "calibrate"],
    )
    def test_suite_independent_of_hash_seed(self, spec, sha256, tmp_path):
        src = os.path.dirname(os.path.dirname(enttest.__file__))
        csvs = []
        for hash_seed in ("1", "2"):
            out = tmp_path / f"hash{hash_seed}"
            code = (
                "from enttest.experiments import ExperimentSpec, run_experiment\n"
                f"run_experiment(ExperimentSpec({spec}, seed=20260808, out_dir={str(out)!r}),"
                " workers=1)\n"
            )
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True)
            csvs.append((out / "results.csv").read_bytes())
        assert csvs[0] == csvs[1]
        assert hashlib.sha256(csvs[0]).hexdigest() == sha256

    def test_csv_header(self, tmp_path):
        spec = self._grid_spec(tmp_path / "h")
        run_experiment(spec, workers=1)
        header = open(tmp_path / "h" / "results.csv").readline().strip()
        assert header == ",".join(CSV_COLUMNS)
        assert header == "kind,tester,n,eps,d,instance_family,trials,accept_rate,reject_rate,mean_samples,seed"


class TestTrialThreads:
    def _spec(self, kind, out):
        if kind == "bayesnet":
            return ExperimentSpec(kind="bayesnet", n_values=[6], eps_values=[0.3], d_values=[2], trials=3,
                                  seed=7, out_dir=str(out))
        if kind == "bayesnet-n12":
            return ExperimentSpec(kind="bayesnet", n_values=[12], eps_values=[0.3], d_values=[2], trials=2,
                                  seed=7, out_dir=str(out))
        # grid trials run on threads from n = 2^14 cells
        if kind == "scaling":
            return ExperimentSpec(kind="scaling", n_values=[64, 2**14], eps_values=[0.3], trials=6,
                                  seed=7, out_dir=str(out))
        return ExperimentSpec(kind="error_grid", n_values=[64, 2**14], eps_values=[0.3], trials=6,
                              seed=7, out_dir=str(out))

    def _recording(self, monkeypatch, op, sizes=None):
        # the thread of each trial, and of each trial of n cells in sizes[n]
        threads = []
        trial = experiments._TRIAL_OPS[op]

        def recorded(payload):
            threads.append(threading.get_ident())
            if sizes is not None:
                sizes.setdefault(payload["n"], []).append(threading.get_ident())
            return trial(payload)

        monkeypatch.setitem(experiments._TRIAL_OPS, op, recorded)
        return threads

    @pytest.mark.parametrize("kind", ["error_grid", "scaling", "bayesnet", "bayesnet-n12"])
    def test_threaded_run_equals_serial_run(self, kind, tmp_path, monkeypatch):
        # more threads than cores, switching often, share the pair cache
        outs = {}
        interval = sys.getswitchinterval()
        try:
            for cpus in (1, 8):
                monkeypatch.setattr(experiments, "_cpus", lambda cpus=cpus: cpus)
                sys.setswitchinterval(1e-5 if cpus > 1 else interval)
                run_experiment(self._spec(kind, tmp_path / f"c{cpus}"), workers=1)
                outs[cpus] = (tmp_path / f"c{cpus}" / "results.csv").read_bytes()
        finally:
            sys.setswitchinterval(interval)
        assert outs[1] == outs[8]

    def test_wrapped_trial_runs_on_the_calling_thread(self, tmp_path, monkeypatch):
        # a profiler's or tracer's span over _run_trial may not be thread-safe
        monkeypatch.setattr(experiments, "_cpus", lambda: 4)
        trial, threads = experiments._run_trial, []

        @functools.wraps(trial)
        def wrapped(payload):
            threads.append(threading.get_ident())
            return trial(payload)

        monkeypatch.setattr(experiments, "_run_trial", wrapped)
        run_experiment(self._spec("error_grid", tmp_path / "w"), workers=1)
        assert threads == [threading.get_ident()] * 60

    def test_bayesnet_exact_checks_run_on_the_calling_thread(self, tmp_path, monkeypatch):
        # the checks once ran on a side thread beside the trials
        monkeypatch.setattr(experiments, "_cpus", lambda: 4)
        checks, threads = experiments.bn_exact_checks, []

        def recorded(*args):
            threads.append(threading.get_ident())
            return checks(*args)

        monkeypatch.setattr(experiments, "bn_exact_checks", recorded)
        spec = ExperimentSpec(kind="bayesnet", n_values=[4], eps_values=[0.3], d_values=[1], trials=2,
                              seed=7, out_dir=str(tmp_path / "b"))
        run_experiment(spec, workers=1)
        assert threads == [threading.get_ident()]

    @pytest.mark.skipif(experiments._cpus() < 2, reason="needs two cores")
    def test_grid_trials_share_the_cores(self, tmp_path, monkeypatch):
        threads = self._recording(monkeypatch, "grid")
        run_experiment(self._spec("error_grid", tmp_path / "g"), workers=1)
        assert len(threads) == 60 and len(set(threads)) > 1

    @pytest.mark.skipif(experiments._cpus() < 2, reason="needs two cores")
    @pytest.mark.parametrize("kind, trials", [("bayesnet", 12), ("bayesnet-n12", 8)])
    def test_small_bayesnet_trials_share_the_cores(self, kind, trials, tmp_path, monkeypatch):
        threads = self._recording(monkeypatch, "bn")
        run_experiment(self._spec(kind, tmp_path / "bn"), workers=1)
        assert len(threads) == trials and len(set(threads)) > 1

    def test_caller_is_one_of_the_trial_threads(self, tmp_path, monkeypatch):
        # a 1-worker run on two cores runs trials on the calling thread and
        # on one helper, not on two pool threads beside an idle caller
        monkeypatch.setattr(experiments, "_cpus", lambda: 2)
        threads = self._recording(monkeypatch, "grid")
        run_experiment(self._spec("error_grid", tmp_path / "g"), workers=1)
        assert len(threads) == 60 and len(set(threads)) == 2
        assert threading.get_ident() in threads

    def test_small_grid_cells_run_on_the_calling_thread(self, tmp_path, monkeypatch):
        # n = 256 trials make many short numpy calls, which two threads slow
        # down; n = 2^14 trials share the cores
        monkeypatch.setattr(experiments, "_cpus", lambda: 2)
        sizes = {}
        self._recording(monkeypatch, "grid", sizes)
        spec = ExperimentSpec(kind="error_grid", n_values=[256, 2**14], eps_values=[0.3], trials=6,
                              seed=7, out_dir=str(tmp_path / "m"))
        run_experiment(spec, workers=1)
        assert sizes[256] == [threading.get_ident()] * 30
        assert len(sizes[2**14]) == 30 and len(set(sizes[2**14])) == 2
        assert threading.get_ident() in sizes[2**14]

    @pytest.mark.parametrize("task, threaded", [
        ({"op": "grid", "n": 2**13}, False),
        ({"op": "grid", "n": 2**14}, True),
        ({"op": "grid", "n": 2**16}, True),
        ({"op": "reduction", "n": 2**14}, False),
    ])
    def test_thread_rule(self, task, threaded):
        # Bayes-net trials: test_one_size_rule_for_chunks_and_threads
        assert experiments._threaded(task) == threaded

    def test_trial_error_stops_the_other_threads(self, monkeypatch):
        monkeypatch.setattr(experiments, "_cpus", lambda: 2)
        ran = []

        def stub(payload):
            ran.append(payload["trial"])
            if payload["trial"] == 0:
                raise RuntimeError("first trial failed")
            time.sleep(0.002)
            return Verdict("accept", None, [])

        monkeypatch.setitem(experiments._TRIAL_OPS, "grid", stub)
        tasks = [{"op": "grid", "n": 2**14, "cell": 0, "trial": t} for t in range(60)]
        with pytest.raises(RuntimeError, match="first trial failed"):
            experiments._execute(tasks, workers=1)
        assert len(ran) < 10

    @pytest.mark.parametrize("kind", ["bayesnet", "bayesnet-n12"])
    def test_bayesnet_worker_count_invariance(self, kind, tmp_path):
        for workers in (1, 2):
            run_experiment(self._spec(kind, tmp_path / f"w{workers}"), workers=workers)
        assert (tmp_path / "w1" / "results.csv").read_bytes() == (tmp_path / "w2" / "results.csv").read_bytes()

    @pytest.mark.parametrize("n, d, small", [(12, 2, True), (8, 2, True), (13, 2, False), (12, 3, False),
                                             (8, 3, False)])
    def test_one_size_rule_for_chunks_and_threads(self, n, d, small):
        assert bn._small_sweep(n, d) == small
        assert experiments._threaded({"op": "bn", "n": n, "d": d}) == small

    @pytest.mark.parametrize("n, d", [(13, 2), (16, 1), (9, 3), (12, 3), (10, 4), (8, 3), (8, 4)])
    def test_large_bayesnet_trials_stay_serial(self, n, d, monkeypatch):
        # larger sweeps stay serial, as measured when they contracted every
        # block at once on OpenBLAS's own threads: at d >= 3 two trials in
        # flight gained little and raised peak memory by a tenth to a half;
        # a stub keeps the check cheap
        monkeypatch.setattr(experiments, "_cpus", lambda: 4)
        threads = []

        def stub(payload):
            threads.append(threading.get_ident())
            return Verdict("accept", None, [])

        monkeypatch.setitem(experiments._TRIAL_OPS, "bn", stub)
        tasks = [{"op": "bn", "n": n, "d": d, "cell": 0, "trial": t} for t in range(8)]
        assert len(experiments._execute(tasks, workers=1)) == 8
        assert threads == [threading.get_ident()] * 8

    def test_trial_error_propagates(self, tmp_path, monkeypatch):
        monkeypatch.setattr(experiments, "_cpus", lambda: 4)
        trial = experiments._TRIAL_OPS["grid"]

        def failing(payload):
            if (payload["cell"], payload["trial"]) == (3, 2):
                raise RuntimeError("trial 3/2 failed")
            return trial(payload)

        monkeypatch.setitem(experiments._TRIAL_OPS, "grid", failing)
        with pytest.raises(RuntimeError, match="trial 3/2 failed"):
            run_experiment(self._spec("error_grid", tmp_path / "e"), workers=1)

    def test_pool_after_trial_threads(self, tmp_path):
        # the 1-worker run starts trial threads (n = 2^14 cells); the
        # 2-worker run of the same spec then forks its pool from that
        # process, and each worker runs its trials on two threads of its
        # own; neither may hang or change a byte
        src = os.path.dirname(os.path.dirname(enttest.__file__))
        code = (
            "from enttest import experiments\n"
            "from enttest.experiments import ExperimentSpec, run_experiment\n"
            "experiments._cpus = lambda: 4\n"
            "for workers in (1, 2):\n"
            "    spec = ExperimentSpec(kind='error_grid', n_values=[2**14], eps_values=[0.4],"
            f" trials=4, seed=3, out_dir={str(tmp_path)!r} + f'/w{{workers}}')\n"
            "    run_experiment(spec, workers=workers)\n"
        )
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=300)
        assert (tmp_path / "w1" / "results.csv").read_bytes() == (tmp_path / "w2" / "results.csv").read_bytes()

    def test_bayesnet_pool_in_a_fresh_process(self, tmp_path):
        # numpy imports numpy.random on first use; a pool forked while the
        # exact checks' side thread held that import's lock once hung
        src = os.path.dirname(os.path.dirname(enttest.__file__))
        code = (
            "from enttest.experiments import ExperimentSpec, run_experiment\n"
            "for workers in (2, 1):\n"
            "    spec = ExperimentSpec(kind='bayesnet', n_values=[4], eps_values=[0.3], d_values=[1],"
            f" trials=2, seed=3, out_dir={str(tmp_path)!r} + f'/w{{workers}}')\n"
            "    run_experiment(spec, workers=workers)\n"
        )
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
        assert (tmp_path / "w1" / "results.csv").read_bytes() == (tmp_path / "w2" / "results.csv").read_bytes()


class TestScalingSuite:
    def test_small_scaling_run(self, tmp_path):
        spec = ExperimentSpec(
            kind="scaling", n_values=[2**10, 2**12, 2**14], eps_values=[0.3],
            trials=10, seed=5, out_dir=str(tmp_path / "s"),
        )
        assert run_experiment(spec, workers=1) == 0
        # a scaling run writes its two CSVs and nothing else
        assert sorted(os.listdir(tmp_path / "s")) == ["results.csv", "timings.csv"]


class TestCalibration:
    def test_impossible_cap(self, monkeypatch):
        # a cap below 1 leaves no multiplier to try: calibrate fails before any draw
        monkeypatch.setattr(experiments, "_MULT_CAP", 0.5)
        monkeypatch.setattr(experiments, "_tester_statistics", lambda *args: pytest.fail("drew statistics"))
        with pytest.raises(CalibrationFailed):
            calibrate(default_spec("calibrate").validate())

    def test_validate_fills_the_default_grid(self):
        spec = ExperimentSpec(kind="calibrate").validate()
        assert (spec.n_values, spec.eps_values) == ([1000, 10000], [0.1])

    def test_small_calibration_deterministic(self):
        spec = ExperimentSpec(kind="calibrate", n_values=[256], eps_values=[0.1],
                              trials=80, seed=99)
        cfg1, prov1, _ = calibrate(spec)
        cfg2, prov2, _ = calibrate(spec)
        assert cfg1 == cfg2
        assert prov1 == prov2

    def test_calibrate_kind_writes_config(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1754600000")
        spec = ExperimentSpec(kind="calibrate", n_values=[256], eps_values=[0.1],
                              trials=60, seed=7, out_dir=str(tmp_path / "cal"))
        assert run_experiment(spec, workers=1) == 0
        cfg_path = tmp_path / "cal" / "calibrated_config.txt"
        cfg = load_config(cfg_path)
        assert cfg.c_T_threshold > 0
        text = cfg_path.read_text()
        assert text.startswith("#")
        # idempotent under the pinned date
        spec2 = ExperimentSpec(kind="calibrate", n_values=[256], eps_values=[0.1],
                               trials=60, seed=7, out_dir=str(tmp_path / "cal2"))
        run_experiment(spec2, workers=1)
        assert (tmp_path / "cal2" / "calibrated_config.txt").read_bytes() == cfg_path.read_bytes()


class TestCli:
    def test_grid_subcommand(self, tmp_path):
        spec = {
            "kind": "error_grid", "n_values": [128], "eps_values": [0.4],
            "trials": 8, "seed": 3, "out_dir": str(tmp_path / "out"),
        }
        path = tmp_path / "spec.json"
        json.dump(spec, open(path, "w"))
        assert cli_main(["grid", "--spec", str(path), "--check"]) == 0
        assert (tmp_path / "out" / "results.csv").exists()

    def test_bad_spec_exits_one(self, tmp_path):
        path = tmp_path / "spec.json"
        json.dump({"kind": "error_grid", "n_values": [], "eps_values": [0.2]}, open(path, "w"))
        assert cli_main(["grid", "--spec", str(path)]) == 1

    @pytest.mark.parametrize(
        "spec",
        [
            # eps 1.5 once ended in a traceback from inside the first trial
            {"kind": "error_grid", "n_values": [64], "eps_values": [1.5]},
            {"kind": "error_grid", "n_values": [64], "eps_values": ["abc"]},
            {"kind": "error_grid", "n_values": [64], "eps_values": [0.6]},
            {"kind": "error_grid", "n_values": [64], "eps_values": [float("nan")]},
            {"kind": "error_grid", "n_values": [64], "eps_values": [True]},
            {"kind": "bayesnet", "n_values": [8], "eps_values": [0.0], "d_values": [2]},
            # n 64.7 and d 2.5 once ran silently at their integer parts
            {"kind": "error_grid", "n_values": [64.7], "eps_values": [0.3]},
            {"kind": "bayesnet", "n_values": [8], "eps_values": [0.3], "d_values": [2.5]},
            {"kind": "bayesnet", "n_values": [8], "eps_values": [0.3], "d_values": [0]},
            {"kind": "bayesnet", "n_values": [8], "eps_values": [0.3], "d_values": [8]},
            # the suite once ran only the first value of each grid, silently
            {"kind": "bayesnet", "n_values": [6, 7], "eps_values": [0.3, 0.4], "d_values": [2, 1]},
            {"kind": "bayesnet", "n_values": [6], "eps_values": [0.3], "d_values": [2, 1]},
            # n 25 once drew 3M samples a trial before the far pair raised
            {"kind": "bayesnet", "n_values": [25], "eps_values": [0.3], "d_values": [2]},
            # far families out of reach once raised from inside the trials:
            # far:mi has no mutual information at n = 2 and needs an even n,
            # far:entropy-gap has no gap at n = 1, and no far net pair is at TV 1
            {"kind": "error_grid", "n_values": [2], "eps_values": [0.3]},
            {"kind": "error_grid", "n_values": [63], "eps_values": [0.3]},
            {"kind": "scaling", "n_values": [1, 64], "eps_values": [0.3]},
            {"kind": "bayesnet", "n_values": [7], "eps_values": [1.0], "d_values": [5]},
            # within far_pair_reach, but no random net pair certifies these
            # eps, so make_far_net_pair once raised from inside the trials
            {"kind": "bayesnet", "n_values": [3], "eps_values": [0.95], "d_values": [2]},
            {"kind": "bayesnet", "n_values": [2], "eps_values": [0.98], "d_values": [1]},
            {"kind": "bayesnet", "n_values": [4], "eps_values": [0.97], "d_values": [3]},
            # budgets beyond numpy's draws once ended in an OverflowError, a
            # "lam value too large" or a division by eps**2 == 0
            {"kind": "error_grid", "n_values": [64], "eps_values": [1e-7]},
            {"kind": "scaling", "n_values": [16, 64], "eps_values": [1e-300]},
            {"kind": "bayesnet", "n_values": [8], "eps_values": [1e-6], "d_values": [2]},
            {"kind": "calibrate", "n_values": [64], "eps_values": [1e-10]},
            {"kind": "calibrate", "eps_values": [1e-10]},  # at its default n
            # calibrate's far families once failed as odd-n distributions
            {"kind": "calibrate", "n_values": [1], "eps_values": [0.5]},
            # calibrate once froze its constants at the first eps and dropped the rest
            {"kind": "calibrate", "n_values": [64], "eps_values": [0.3, 0.2]},
        ],
        ids=["eps-1.5", "eps-abc", "grid-eps-0.6", "eps-nan", "eps-bool", "eps-0",
             "n-64.7", "d-2.5", "d-0", "d-n", "bn-grids", "bn-two-d", "bn-n-25",
             "grid-n-2", "grid-n-odd", "scaling-n-1", "bn-eps-1",
             "bn-far-n3", "bn-far-n2", "bn-far-n4",
             "grid-eps-tiny", "scaling-eps-tiny", "bn-eps-tiny", "cal-eps-tiny", "cal-default-n-eps-tiny",
             "cal-n-odd", "cal-two-eps"],
    )
    def test_bad_grid_value_exits_one(self, spec, tmp_path, capsys):
        out = tmp_path / "out"
        path = tmp_path / "spec.json"
        json.dump(dict(spec, trials=2, out_dir=str(out)), open(path, "w"))
        command = "grid" if spec["kind"] == "error_grid" else spec["kind"]
        assert cli_main([command, "--spec", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not (out / "results.csv").exists()

    def test_bayesnet_degree_six_runs(self, tmp_path, capsys):
        # d = 6 once ended in a traceback from the exact checks' n = 6 net,
        # which has no 7-subsets
        out = tmp_path / "out"
        path = tmp_path / "spec.json"
        json.dump({"kind": "bayesnet", "n_values": [9], "eps_values": [0.3], "d_values": [6],
                   "trials": 1, "seed": 3, "out_dir": str(out)}, open(path, "w"))
        assert cli_main(["bayesnet", "--spec", str(path)]) == 0
        assert capsys.readouterr().err == ""
        rows = (out / "results.csv").read_text().splitlines()[1:]
        assert [row.split(",")[5] for row in rows] == [
            "bn-null", "bn-far", "bn-id-null", "bn-id-far",
            "exact:atom-floor", "exact:telescoping", "exact:mixture-kl-drift",
        ]

    def test_bayesnet_suite_never_imports_numpy_ma(self, tmp_path):
        # numpy.ma costs 12-15 ms a process; np.median and np.unique import it
        src = os.path.dirname(os.path.dirname(enttest.__file__))
        code = (
            "import sys\n"
            "from enttest.experiments import ExperimentSpec, run_experiment\n"
            "run_experiment(ExperimentSpec(kind='bayesnet', n_values=[8], eps_values=[0.3], d_values=[2],"
            f" trials=1, seed=5, out_dir={str(tmp_path / 'ma')!r}), workers=1)\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "False"

    def test_kind_mismatch_exits_one(self, tmp_path, capsys):
        # a valid scaling spec, so the kind mismatch alone fails it
        path = tmp_path / "spec.json"
        json.dump({"kind": "scaling", "n_values": [64, 128], "eps_values": [0.3]}, open(path, "w"))
        assert cli_main(["grid", "--spec", str(path)]) == 1
        assert "does not match the grid subcommand" in capsys.readouterr().err

    def test_missing_spec_file(self):
        assert cli_main(["grid", "--spec", "/nonexistent/spec.json"]) == 1

    def test_seed_and_out_overrides(self, tmp_path):
        out = tmp_path / "ovr"
        code = cli_main([
            "grid", "--spec", _write_tiny_grid(tmp_path), "--seed", "11",
            "--out", str(out), "--trials", "5",
        ])
        assert code == 0
        content = open(out / "results.csv").readlines()[1]
        assert content.strip().endswith(",11")

    @pytest.mark.parametrize("flag", ["--seed", "--trials"])
    @pytest.mark.parametrize("value", ["abc", "1.5"])
    def test_non_integer_seed_or_trials_exits_one(self, flag, value, capsys):
        assert cli_main(["oracle", flag, value]) == 1
        assert f"{flag[2:]} must be an integer" in capsys.readouterr().err

    def test_check_failure_exit_two(self, tmp_path, monkeypatch):
        # sabotage: a config whose Z threshold fires on everything
        from enttest.testers import save_config, DEFAULT_CONFIG
        import dataclasses

        bad = dataclasses.replace(DEFAULT_CONFIG, c_Z_threshold=1e-9)
        cfg_path = tmp_path / "bad.cfg"
        save_config(bad, cfg_path)
        spec = {
            "kind": "error_grid", "n_values": [128], "eps_values": [0.4],
            "trials": 6, "seed": 3, "out_dir": str(tmp_path / "badout"),
            "cfg_path": str(cfg_path),
        }
        path = tmp_path / "spec.json"
        json.dump(spec, open(path, "w"))
        assert cli_main(["grid", "--spec", str(path), "--check"]) == 2

    @pytest.mark.parametrize("line", ["mult_tv = nan", "c_T_threshold = nan"])
    def test_non_finite_config_exits_one(self, line, tmp_path, capsys):
        # mult_tv = nan once ended in a traceback from tv_budget, and
        # c_T_threshold = nan in a scaling run that never rejected
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(line + "\n")
        out = tmp_path / "out"
        spec = {"kind": "scaling", "n_values": [64, 128], "eps_values": [0.3], "trials": 2,
                "out_dir": str(out), "cfg_path": str(cfg_path)}
        path = tmp_path / "spec.json"
        json.dump(spec, open(path, "w"))
        assert cli_main(["scaling", "--spec", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and line.split()[0] in err[0]
        assert not (out / "results.csv").exists()


class TestWorkers:
    @pytest.mark.parametrize("workers", [0, -3, 2.5, "abc", True])
    def test_invalid_count_raises(self, workers):
        with pytest.raises(ConfigError, match="worker count"):
            resolve_workers(workers)

    @pytest.mark.parametrize("value", ["abc", "0", "-3", "2.5"])
    def test_invalid_environment_exits_one(self, value, monkeypatch, capsys):
        monkeypatch.setenv("ENTTEST_WORKERS", value)
        assert cli_main(["oracle"]) == 1
        assert "ENTTEST_WORKERS" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    def test_invalid_flag_exits_one(self, value, capsys):
        assert cli_main(["oracle", "--workers", value]) == 1
        assert "worker count" in capsys.readouterr().err


def _write_tiny_grid(tmp_path):
    spec = {
        "kind": "error_grid", "n_values": [64], "eps_values": [0.4],
        "trials": 5, "seed": 1, "out_dir": str(tmp_path / "tiny"),
    }
    path = tmp_path / "tiny.json"
    json.dump(spec, open(path, "w"))
    return str(path)
