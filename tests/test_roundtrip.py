"""Property tests: distribution, Bayes-net and threshold-config files
round-trip bit for bit."""

import os
from dataclasses import fields

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from enttest.bayesnet import BayesNet, load_bayesnet, random_bayesnet, save_bayesnet
from enttest.core import DiscreteDistribution, load_distribution, save_distribution
from enttest.testers import ThresholdConfig, load_config, save_config

PROPERTY = settings(max_examples=200, deadline=None)
seeds = st.integers(0, 2**32 - 1)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("roundtrip")


def _reload(save, load, obj, directory):
    path = os.path.join(directory, "file")
    save(obj, path)
    return load(path)


weights = st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=1, max_size=60).filter(
    lambda w: sum(w) > 0
)
distributions = st.one_of(
    st.builds(lambda n, seed: DiscreteDistribution.random_dense(n, np.random.default_rng(seed)),
              st.integers(1, 49), seeds),
    st.builds(DiscreteDistribution.zipf, st.integers(1, 199)),
    st.builds(lambda w: DiscreteDistribution(np.asarray(w) / sum(w)), weights),
)


@PROPERTY
@given(distributions)
def test_distribution_file_roundtrip(scratch, d):
    assert _reload(save_distribution, load_distribution, d, scratch) == d


@PROPERTY
@given(st.integers(2, 8).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1), seeds)))
def test_bayesnet_file_roundtrip(scratch, case):
    n, d, seed = case
    rng = np.random.default_rng(seed)
    shape = random_bayesnet(n, d, rng)  # CPT entries from the whole of [0, 1), not its range
    net = BayesNet(n, shape.parents, [rng.uniform(0, 1, c.size) for c in shape.cpts])
    back = _reload(save_bayesnet, load_bayesnet, net, scratch)
    assert back.parents == net.parents
    assert all(np.array_equal(a, b) for a, b in zip(back.cpts, net.cpts))


positive = st.floats(1e-6, 1e6, allow_nan=False)


@st.composite
def configs(draw):
    values = {f.name: draw(positive) for f in fields(ThresholdConfig)}
    values["c_heavy_high"] = 2 * values["c_heavy_low"] + draw(st.floats(0.0, 1e6))
    return ThresholdConfig(**values)


@PROPERTY
@given(configs())
def test_config_file_roundtrip(scratch, cfg):
    assert _reload(save_config, load_config, cfg, scratch) == cfg
