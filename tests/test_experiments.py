"""Experiment harness: spec validation, CSV determinism, worker
equivalence, calibration, and the CLI surface."""

import json
import os
import subprocess
import sys

import pytest

import enttest
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


class TestExperimentSpec:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ExperimentSpec(kind="nonsense").validate()
        with pytest.raises(ConfigError):
            ExperimentSpec(kind="error_grid", n_values=[], eps_values=[0.2]).validate()
        with pytest.raises(ConfigError):
            ExperimentSpec(kind="error_grid", n_values=[128], eps_values=[0.2], trials=0).validate()

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
        for fam in ("null:uniform", "null:zipf", "null:dense"):
            p, q = make_instance_pair(fam, 64, 0.3, master=1, cell=0)
            assert p == q

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
        make_instance_pair.cache_clear()  # the single entry outlives other tests
        calls = []
        build = inst.make_correlated_pair

        def counted(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(inst, "make_correlated_pair", counted)
        spec = ExperimentSpec(
            kind="error_grid", n_values=[1024], eps_values=[0.3], trials=10,
            seed=2024, out_dir=str(tmp_path / "memo"),
        )
        run_experiment(spec, workers=1)
        assert calls == [(512, 2, 0.3)]  # one far:mi cell, one build


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

    def test_pool_after_helper_thread(self, tmp_path):
        # a 1-worker grid at n = 2**13 starts the count-pair helper thread;
        # the 2-worker run of the same spec then forks its pool from that
        # process, whose workers start their own helpers, and must neither
        # hang nor change a byte
        src = os.path.dirname(os.path.dirname(enttest.__file__))
        code = (
            "from enttest import poisson\n"
            "from enttest.experiments import ExperimentSpec, run_experiment\n"
            "for workers in (1, 2):\n"
            "    spec = ExperimentSpec(kind='error_grid', n_values=[2**13], eps_values=[0.4],"
            f" trials=2, seed=3, out_dir={str(tmp_path)!r} + f'/w{{workers}}')\n"
            "    run_experiment(spec, workers=workers)\n"
            "    print(poisson._helper is not None)\n"
            # a forked child that draws pairs on two threads starts its own helper
            "import os, numpy as np\n"
            "from enttest.core import DiscreteDistribution, Sampler\n"
            "d = DiscreteDistribution.uniform(2**14)\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    pair = poisson.poissonized_counts(Sampler(d, 1), Sampler(d, 2), 2**16)\n"
            "    os._exit(0 if np.array_equal(pair.y_counts, Sampler(d, 2).poisson_counts(2**16)) else 1)\n"
            "print(os.waitpid(pid, 0)[1] == 0)\n"
        )
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True, timeout=300)
        assert proc.stdout.split() == ["True", "True", "True"]
        assert (tmp_path / "w1" / "results.csv").read_bytes() == (tmp_path / "w2" / "results.csv").read_bytes()

    @pytest.mark.parametrize(
        "spec",
        [
            "kind='bayesnet', n_values=[6], eps_values=[0.3], d_values=[2], trials=2",
            # n = 12 draws its block counts as atom totals plus block labels
            "kind='bayesnet', n_values=[12], eps_values=[0.3], d_values=[2], trials=1",
            "kind='error_grid', n_values=[64], eps_values=[0.4], trials=2",
            "kind='scaling', n_values=[64, 256], eps_values=[0.3], trials=2",
            # n >= 2**13 draws each count pair on two threads
            "kind='scaling', n_values=[2**13, 2**14], eps_values=[0.3], trials=2",
            "kind='calibrate', n_values=[64], eps_values=[0.1], trials=40",
        ],
        ids=["bayesnet", "bayesnet-n12", "error_grid", "scaling", "scaling-concurrent-pairs", "calibrate"],
    )
    def test_suite_independent_of_hash_seed(self, spec, tmp_path):
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

    def test_csv_header(self, tmp_path):
        spec = self._grid_spec(tmp_path / "h")
        run_experiment(spec, workers=1)
        header = open(tmp_path / "h" / "results.csv").readline().strip()
        assert header == ",".join(CSV_COLUMNS)
        assert all(line.split(",")[10] == "0" for line in
                   open(tmp_path / "h" / "results.csv").readlines()[1:])


class TestScalingSuite:
    def test_small_scaling_run(self, tmp_path):
        spec = ExperimentSpec(
            kind="scaling", n_values=[2**10, 2**12, 2**14], eps_values=[0.3],
            trials=10, seed=5, out_dir=str(tmp_path / "s"),
        )
        assert run_experiment(spec, workers=1) == 0
        assert (tmp_path / "s" / "plot_scaling.svg").exists()
        svg = (tmp_path / "s" / "plot_scaling.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg


class TestCalibration:
    def test_impossible_cap(self):
        with pytest.raises(CalibrationFailed):
            calibrate(default_spec("calibrate"), mult_cap=0)

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


class TestWorkers:
    @pytest.mark.parametrize("workers", [0, -3, 2.5, "abc"])
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
