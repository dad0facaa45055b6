"""Law tests of the fast count paths against literal samples.

On laws with few probability levels, the exact-law Poisson counts
(``Sampler.poisson_counts``, alias tables per level) and the literal route
(``SampleStream.poisson_counts``: N ~ Poi(m) draws, tabulated) agree in
law.  The Bayes-net sweep's grouped dense block counts, drawn from the
exact mixture joint, and its streamed blocks of literal ``bn_sample``
rows give the same laws of the per-(subset, block) statistics."""

import math

import numpy as np
import pytest
from scipy import stats as spstats

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from enttest import bayesnet, core
from enttest.core import DiscreteDistribution, SampleStream, Sampler
from enttest.poisson import batch_t, batch_z


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


def _sweep_statistics(mixes, q_joint, m, k, sweeps, rng):
    # per (subset, block): T and |Z| of the two streams, and the identity
    # test's Miller-Madow gap of the first against q's exact tables, over
    # `sweeps` whole sweeps drawn in the testers' groups
    n, width = mixes[0].n, 3
    q_tables = bayesnet._marginal_counts(q_joint[:, None], n, width)
    h_q = -(q_tables * np.log(q_tables)).sum(axis=-1)
    parts = []
    for _ in range(sweeps):
        for g in bayesnet._group_sizes(k):
            x, y = (bayesnet._block_tables(bayesnet._blocked_subset_counts(mix, m, k, g, width, rng)[0], n, width,
                                           slice(None)) for mix in mixes)
            parts.append((batch_t(x, y), np.abs(batch_z(x, y, m / k)), np.abs(bayesnet._miller_madow(x, h_q) - h_q)))
    return [np.concatenate(stat, axis=1) for stat in zip(*parts)]


# Two-sample KS per (statistic, subset) on each branch: 3 statistics x 56
# subsets x 2 branches = 336 tests, each at 1e-3 / 336, so under equal laws
# the two cases together fail with probability at most 1e-3 (Bonferroni;
# ties in the counts only make KS conservative).  The seeds are fixed.
_BN_KS_LEVEL = 1e-3 / (3 * 56 * 2)


@pytest.mark.parametrize("m", [20_000, 170_427], ids=["sparse", "per-cell"])
def test_grouped_bn_draws_match_literal_samples_in_law(m, monkeypatch):
    # n = 8, d = 2 (k = 127 blocks, 56 subsets); the dense draw is sparse
    # below k 2^n = 32,512 samples and per cell above (170,427 is the
    # closeness suite's m at eps = 0.3)
    n, d, sweeps = 8, 2, 6
    k, weight = bayesnet._sweep_blocks(n, d), bayesnet.bn_mixture_weight(n, d, 0.3)
    nets = [bayesnet.random_bayesnet(n, d, np.random.default_rng(seed)) for seed in (80, 81)]

    def mixes(seed):
        return [bayesnet.BnMixtureSampler(bayesnet.BnSampler(net, seed + i), weight, seed + 2 + i)
                for i, net in enumerate(nets)]

    q_joint = mixes(0)[1].exact_joint()
    dense = _sweep_statistics(mixes(1), q_joint, m, k, sweeps, np.random.default_rng(2))
    monkeypatch.setattr(bayesnet, "_DENSE_ATOM_CELLS", 0)
    literal = _sweep_statistics(mixes(11), q_joint, m, k, sweeps, np.random.default_rng(12))
    for name, a, b in zip(("T", "|Z|", "Miller-Madow gap"), dense, literal):
        assert a.shape == b.shape == (56, sweeps * k)
        worst = min(spstats.ks_2samp(a[s], b[s]).pvalue for s in range(56))
        assert worst >= _BN_KS_LEVEL, f"{name}: KS p {worst:.3g}"
