"""Law tests of the fast count paths against literal samples.

On laws with few probability levels, the exact-law Poisson counts
(``Sampler.poisson_counts``, alias tables per level) and the literal route
(``SampleStream.poisson_counts``: N ~ Poi(m) draws, tabulated) agree in
law.  The Bayes-net sweep's grouped dense block counts, drawn from the
exact mixture joint, and its streamed blocks of literal ``bn_sample``
rows give the same laws of the per-(subset, block) statistics.  The
whole cascade on exact-law samplers and on pools of literal draws gives
the same laws of its verdicts, stage statistics and samples used."""

import math
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy import stats as spstats

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from enttest import bayesnet, core
from enttest.core import DiscreteDistribution, SampleStream, Sampler, StreamSampler
from enttest.instances import make_entropy_gap_pair
from enttest.pipeline import make_eet_plan, run_eet
from enttest.poisson import batch_t, batch_z
from enttest.testers import DEFAULT_CONFIG


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


# The cascade at eps = 0.5 with every sample multiplier cut by 32: nominal
# 124,309 draws a trial at n = 64 and 321,999 at n = 4096, and a null
# reject rate high enough that several stages fire.
_SMALL_CFG = replace(DEFAULT_CONFIG, **{f.name: getattr(DEFAULT_CONFIG, f.name) / 32
                                        for f in fields(DEFAULT_CONFIG) if f.name.startswith("mult_")})
_CASCADE_LAWS = {
    "null:uniform": lambda n: (DiscreteDistribution.uniform(n),) * 2,
    "null:zipf": lambda n: (DiscreteDistribution.zipf(n),) * 2,
    "entropy-gap": lambda n: make_entropy_gap_pair(n, 0.02),
}


def _cascade_trials(p, q, n, trials, literal, seed):
    # fired stages, per-record statistics and samples used of `trials`
    # cascades; the literal side runs each on fresh pools of draws from
    # the same laws (0.6 of the nominal total a stream, which no trial
    # here runs dry)
    plan = make_eet_plan(n, 0.5, cfg=_SMALL_CFG)
    pool = plan.total_nominal * 6 // 10
    source = [Sampler(d, s) for d, s in zip((p, q), np.random.SeedSequence(seed).spawn(2))]
    fired, records, used = [], {}, []
    for child in np.random.SeedSequence(seed + 1).spawn(trials):
        a, b, c = child.spawn(3)
        if literal:
            sp, sq = (StreamSampler(s.draw(pool), n, rng) for s, rng in zip(source, (a, b)))
        else:
            sp, sq = Sampler(p, a), Sampler(q, b)
        v = run_eet(sp, sq, plan, c)
        fired.append(str(v.fired_stage))
        used.append(v.samples_used)
        for record in v.trace:
            records.setdefault(record.name, []).append(record.statistic)
    return fired, records, used


def _stage_table_p(a, b):
    # chi-square of the two fired-stage distributions; stages fired fewer
    # than 10 times in all are pooled, and one remaining bin is no test
    counts = Counter(a + b)
    pooled = [[stage if counts[stage] >= 10 else "rare" for stage in side] for side in (a, b)]
    bins = sorted(set(pooled[0] + pooled[1]))
    if len(bins) < 2:
        return 1.0
    return spstats.chi2_contingency([[side.count(name) for name in bins] for side in pooled]).pvalue


def test_cascade_on_exact_samplers_matches_literal_pools_in_law():
    # Per (law, n): chi-square of the fired stages, two-sample KS of every
    # trace record's statistic seen at least 10 times on each side, and KS
    # of samples_used.  Bonferroni over every test run keeps the chance
    # that equal laws fail below 1e-3.  Uniform at n = 4096 is one
    # 4,096-cell level, so its exact side draws from the Poisson tables.
    pvalues = {}
    for n, trials in ((64, 150), (4096, 60)):
        for name, build in _CASCADE_LAWS.items():
            p, q = build(n)
            exact, literal = (_cascade_trials(p, q, n, trials, side, 100 * n + i)
                              for i, side in enumerate((False, True)))
            assert "budget" not in literal[0]
            case = f"{name} n={n}"
            pvalues[f"{case} fired"] = _stage_table_p(exact[0], literal[0])
            for record in sorted(set(exact[1]) & set(literal[1])):
                x, y = exact[1][record], literal[1][record]
                if min(len(x), len(y)) >= 10:
                    pvalues[f"{case} {record}"] = spstats.ks_2samp(x, y).pvalue
            pvalues[f"{case} samples_used"] = spstats.ks_2samp(exact[2], literal[2]).pvalue
    worst = min(pvalues, key=pvalues.get)
    assert pvalues[worst] * len(pvalues) >= 1e-3, f"{worst}: p {pvalues[worst]:.3g} over {len(pvalues)} tests"
