"""The installed package needs numpy only: scipy is a test dependency."""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

_CODE = """
import sys
import numpy as np
import enttest
from enttest.bayesnet import BnSampler, bn_closeness_test, random_bayesnet
from enttest.experiments import ExperimentSpec, run_experiment

u = enttest.DiscreteDistribution.uniform(64)
enttest.run_eet(enttest.Sampler(u, 1), enttest.Sampler(u, 2), enttest.make_eet_plan(64, 0.3), rng=3)
net = random_bayesnet(4, 1, np.random.default_rng(0))
bn_closeness_test(BnSampler(net, 1), BnSampler(net, 2), 4, 1, 0.3, rng=3)
spec = ExperimentSpec(kind="scaling", n_values=[64, 128], eps_values=[0.3], trials=2, out_dir=sys.argv[1])
assert run_experiment(spec, workers=1) == 0
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, loaded
"""


def test_runtime_does_not_import_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", _CODE, str(tmp_path / "out")], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
