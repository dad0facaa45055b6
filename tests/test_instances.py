"""Promise-instance generators and their exact certificates."""

import math

import numpy as np
import pytest
from scipy import stats as spstats

from enttest.core import Sampler, entropy
from enttest.instances import (
    Unachievable,
    make_correlated_pair,
    make_entropy_gap_pair,
    mi_reduction_stream_samplers,
    mi_reduction_streams,
)


class TestCorrelatedPair:
    def test_zero_target_is_exact_product(self):
        pair = make_correlated_pair(8, 4, 0.0)
        grid = pair.grid()
        outer = np.outer(grid.sum(axis=1), grid.sum(axis=0))
        assert np.allclose(grid, outer, atol=1e-15)
        assert pair.mutual_information() == pytest.approx(0.0, abs=1e-12)

    def test_maximal_target_is_deterministic_coupling(self):
        pair = make_correlated_pair(2, 2, math.log(2))
        assert pair.mutual_information() == pytest.approx(math.log(2), abs=1e-9)
        grid = pair.grid()
        assert grid[0, 1] == 0.0 and grid[1, 0] == 0.0

    def test_bisection_hits_target(self):
        pair = make_correlated_pair(1024, 2, 0.3)
        assert pair.mutual_information() == pytest.approx(0.3, abs=1e-9)

    def test_unachievable(self):
        with pytest.raises(Unachievable):
            make_correlated_pair(4, 2, math.log(2) + 0.05)
        with pytest.raises(Unachievable):
            make_correlated_pair(4, 2, -0.1)

    def test_entropy_gap_equals_mi(self):
        # |H(P) - H(Q)| = I(A:C) for Q the product of marginals
        pair = make_correlated_pair(32, 2, 0.25)
        q = pair.product_of_marginals()
        assert abs(entropy(pair.joint) - entropy(q)) == pytest.approx(0.25, abs=1e-9)


class _CountingSampler:
    """Sampler wrapper that records raw draws consumed."""

    def __init__(self, inner):
        self.inner = inner
        self.consumed = 0

    def draw(self, k):
        self.consumed += int(k)
        return self.inner.draw(k)


class TestMiReductionStreams:
    def test_budget_accounting(self):
        # t output pairs per stream cost exactly 3 t joint samples
        pair = make_correlated_pair(4, 2, 0.1)
        for t in (1, 50):
            js = _CountingSampler(Sampler(pair.joint, 3))
            p_stream, q_stream = mi_reduction_streams(js, pair.k_c, t)
            assert p_stream.size == t and q_stream.size == t
            assert js.consumed == 3 * t

    def test_product_stream_law(self):
        # chi-square goodness of fit of the q-stream against the exact
        # product distribution at significance 0.01
        pair = make_correlated_pair(8, 4, 0.35)
        t = 10**5
        _, q_stream = mi_reduction_streams(Sampler(pair.joint, 17), pair.k_c, t)
        counts = np.bincount(q_stream, minlength=32)
        expected = t * pair.product_of_marginals().probs
        chi = float(((counts - expected) ** 2 / expected).sum())
        pvalue = 1.0 - spstats.chi2.cdf(chi, df=31)
        assert pvalue > 0.01

    def test_product_joint_streams_identically_distributed(self):
        # with a product joint, p-stream and q-stream share one law
        pair = make_correlated_pair(4, 4, 0.0)
        p_stream, q_stream = mi_reduction_streams(Sampler(pair.joint, 23), pair.k_c, 50_000)
        cp = np.bincount(p_stream, minlength=16)
        cq = np.bincount(q_stream, minlength=16)
        expected = 50_000 * pair.joint.probs
        for counts in (cp, cq):
            chi = float(((counts - expected) ** 2 / expected).sum())
            assert 1.0 - spstats.chi2.cdf(chi, df=15) > 0.005

    def test_stream_samplers(self):
        pair = make_correlated_pair(16, 2, 0.2)
        sp, sq = mi_reduction_stream_samplers(pair, 5000, 7)
        assert sp.n == 32 and sq.n == 32
        a = sp.draw(100)
        assert a.size == 100 and a.max() < 32


class TestEntropyGapPair:
    def test_half_support_special_case(self):
        p, q = make_entropy_gap_pair(4096, math.log(2))
        assert (p.probs > 0).sum() == 2048
        assert np.allclose(p.probs[:2048], 1 / 2048)
        assert entropy(q) - entropy(p) == pytest.approx(math.log(2), abs=1e-12)

    def test_zero_gap(self):
        p, q = make_entropy_gap_pair(64, 0.0)
        assert p == q

    def test_generic_gap_exact(self):
        p, q = make_entropy_gap_pair(1000, 0.3)
        assert entropy(q) - entropy(p) == pytest.approx(0.3, abs=1e-11)
        # two-level support of the predicted size
        k = math.ceil(1000 * math.exp(-0.3))
        assert (p.probs > 0).sum() == k

    def test_unachievable(self):
        with pytest.raises(Unachievable):
            make_entropy_gap_pair(8, math.log(8) + 0.1)

    def test_tolerances_are_not_parameters(self):
        with pytest.raises(TypeError):
            make_entropy_gap_pair(64, 0.3, tol=1e-6)
        with pytest.raises(TypeError):
            make_correlated_pair(8, 2, 0.1, tol=1e-6)

    def test_gap_grid(self):
        for n in (64, 1024):
            for gap in (0.1, 0.4, 1.0, math.log(17)):
                p, q = make_entropy_gap_pair(n, gap)
                assert entropy(q) - entropy(p) == pytest.approx(gap, abs=1e-11)
