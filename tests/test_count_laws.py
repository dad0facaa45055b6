"""Property test: on laws with few probability levels, the exact-law
Poisson counts (``Sampler.poisson_counts``, alias tables per level) and
the literal route (``SampleStream.poisson_counts``: N ~ Poi(m) draws,
tabulated) agree in law."""

import math

import numpy as np
import pytest
from scipy import stats as spstats

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from enttest import core
from enttest.core import DiscreteDistribution, SampleStream, Sampler


@st.composite
def few_level_laws(draw):
    # the first level is large enough for the table path
    first = draw(st.integers(core._TABLE_MIN_LEVEL, core._TABLE_MIN_LEVEL + 1000))
    sizes = [first] + draw(st.lists(st.integers(1, 3000), max_size=3))
    weights = [draw(st.floats(0.05, 10.0))] + [draw(st.floats(0.0, 10.0)) for _ in sizes[1:]]
    v = np.repeat(weights, sizes)
    m = draw(st.floats(0.05, 20.0)) * v.size
    return sizes, DiscreteDistribution(v / v.sum()), m, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(few_level_laws())
def test_direct_and_literal_counts_agree_in_law(case):
    sizes, d, m, seed = case
    reps = 60
    direct = Sampler(d, seed)
    literal = Sampler(d, seed + 1)
    paths = [
        np.array([direct.poisson_counts(m) for _ in range(reps)]),
        np.array([SampleStream.poisson_counts(literal, m) for _ in range(reps)]),
    ]
    edges = np.cumsum([0] + sizes)
    for lo, hi in zip(edges[:-1], edges[1:]):
        rate = m * d.probs[lo]
        level = [counts[:, lo:hi] for counts in paths]
        for counts in level:
            # the level's total over all draws is Poi(reps * size * rate)
            total = reps * (hi - lo) * rate
            assert abs(counts.sum() - total) <= 6 * math.sqrt(total) + 3
        if rate > 0:
            assert spstats.ks_2samp(level[0].ravel(), level[1].ravel()).pvalue > 1e-6
