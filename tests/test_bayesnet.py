"""Bayesian network representation, sampling, exact oracles, and the
subset-sweep closeness/identity testers."""

import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from enttest import bayesnet
from enttest.bayesnet import (
    BayesNet,
    BayesNetError,
    BnMixtureSampler,
    BnSampler,
    TooLargeForExact,
    bn_closeness_test,
    bn_exact_joint,
    bn_identity_test,
    bn_kl_to_projection,
    bn_mixture_weight,
    bn_sample,
    joint_marginal,
    load_bayesnet,
    local_kl_telescoping,
    make_far_net_pair,
    perturb_one_cpt,
    projection_joint,
    random_bayesnet,
    save_bayesnet,
)
from enttest.core import entropy
from enttest.poisson import batch_t, batch_z
from enttest.testers import DEFAULT_CONFIG, ParameterOutOfRange


def fair_coins(n):
    return BayesNet(n, [()] * n, [[0.5]] * n)


def copy_chain():
    # X1 = X0 deterministically
    return BayesNet(2, [(), (0,)], [[0.5], [0.0, 1.0]])


class TestBayesNetStructure:
    def test_cycle_detection(self):
        with pytest.raises(BayesNetError):
            BayesNet(2, [(1,), (0,)], [[0.5, 0.5], [0.5, 0.5]])

    def test_cpt_shape_validation(self):
        with pytest.raises(BayesNetError):
            BayesNet(2, [(), (0,)], [[0.5], [0.3]])

    def test_cpt_range_validation(self):
        with pytest.raises(BayesNetError):
            BayesNet(1, [()], [[1.5]])

    def test_self_parent(self):
        with pytest.raises(BayesNetError):
            BayesNet(1, [(0,)], [[0.5, 0.5]])

    def test_in_degree(self):
        net = BayesNet(3, [(), (0,), (0, 1)], [[0.5], [0.2, 0.8], [0.1, 0.2, 0.3, 0.4]])
        assert net.in_degree == 2


class TestSampling:
    def test_fair_coins_uniform(self):
        net = fair_coins(3)
        bits = bn_sample(net, 1, count=10**6)
        atoms = bits @ (1 << np.arange(3))
        freq = np.bincount(atoms, minlength=8) / 1e6
        emp_entropy = -(freq[freq > 0] * np.log(freq[freq > 0])).sum()
        assert abs(emp_entropy - 3 * math.log(2)) <= 0.01 * 3 * math.log(2)

    def test_deterministic_chain_emits_only_agreeing_pairs(self):
        bits = bn_sample(copy_chain(), 7, count=5000)
        assert np.all(bits[:, 0] == bits[:, 1])

    def test_fixed_seed_identical(self):
        net = random_bayesnet(6, 2, np.random.default_rng(1))
        a = bn_sample(net, 42, count=100)
        b = bn_sample(net, 42, count=100)
        assert np.array_equal(a, b)


class TestExactJointAndMarginals:
    def test_fair_coins_joint(self):
        assert np.allclose(bn_exact_joint(fair_coins(3)), 1 / 8)

    def test_chain_joint(self):
        j = bn_exact_joint(copy_chain())
        assert j == pytest.approx([0.5, 0.0, 0.0, 0.5])

    def test_marginal_independence(self):
        m = joint_marginal(bn_exact_joint(fair_coins(4)), (0, 2), 4)
        assert m == pytest.approx([0.25] * 4)

    def test_chain_marginal_correlated(self):
        m = joint_marginal(bn_exact_joint(copy_chain()), (0, 1), 2)
        assert m == pytest.approx([0.5, 0.0, 0.0, 0.5])

    def test_exact_guard(self):
        with pytest.raises(TooLargeForExact):
            bn_exact_joint(fair_coins(30))

    @pytest.mark.parametrize("subset,n", [((0, 7), 4), ((1, 1), 4), ((-1,), 4), ((0, 1), 5)],
                             ids=["out-of-range", "repeated", "negative", "wrong-n"])
    def test_marginal_rejects_bad_input(self, subset, n):
        with pytest.raises(ValueError):
            joint_marginal(np.full(16, 1 / 16), subset, n)

    def test_exact_marginal_rejects_variable_out_of_range(self):
        with pytest.raises(ValueError):
            joint_marginal(bn_exact_joint(fair_coins(4)), (0, 9), 4)

    @pytest.mark.parametrize("n", [6, 8, 12, 16])
    def test_marginal_counts_match_joint_marginal(self, n):
        # a probability joint as one column: the GEMMs sum it in their own
        # order, so the tables agree with the index-order oracle to rounding
        net = random_bayesnet(n, 2, np.random.default_rng(n))
        w = bn_mixture_weight(n, 2, 0.3)
        joint = (1 - w) * bn_exact_joint(net) + w / 2**n
        for width in range(2, 6):
            tables = bayesnet._marginal_counts(joint[:, None], n, width)
            assert tables.shape == (math.comb(n, width), 1, 2**width)
            ref = np.array([joint_marginal(joint, sub, n) for sub in combinations(range(n), width)])
            assert np.allclose(tables[:, 0], ref, rtol=1e-13, atol=0)

    def test_row_sum_entropies_bit_identical_to_entropy(self):
        # the identity test's exact local entropies: one row sum over the
        # mixed tables, every entry of which is positive
        net = random_bayesnet(12, 2, np.random.default_rng(4))
        w = bn_mixture_weight(12, 2, 0.3)
        joint = (1 - w) * bn_exact_joint(net) + w / 2**12
        tables = bayesnet._marginal_counts(joint[:, None], 12, 3)
        assert (tables > 0).all()
        ref = np.array([[entropy(table[0])] for table in tables])
        assert (-(tables * np.log(tables)).sum(axis=-1)).tobytes() == ref.tobytes()

    def test_joint_matches_sampling(self):
        rng = np.random.default_rng(3)
        net = random_bayesnet(5, 2, rng)
        joint = bn_exact_joint(net)
        bits = bn_sample(net, 9, count=200_000)
        atoms = bits @ (1 << np.arange(5))
        freq = np.bincount(atoms, minlength=32) / 200_000
        assert np.max(np.abs(freq - joint)) <= 5 * math.sqrt(joint.max() / 200_000)


class TestMixture:
    def test_pinned_weight(self):
        w = bn_mixture_weight(8, 2, 0.3)
        assert w == pytest.approx(0.09 / (16 * math.log(8 / 0.3)), abs=1e-9)
        assert w == pytest.approx(0.001713, abs=2e-6)

    def test_atom_floor_exact(self):
        from itertools import combinations

        rng = np.random.default_rng(4)
        for n, d in ((8, 2), (12, 3)):
            net = random_bayesnet(n, d, rng)
            eps = 0.3
            w = bn_mixture_weight(n, d, eps)
            joint = (1 - w) * bn_exact_joint(net) + w / 2**n
            floor = eps**2 / (2 ** (d + 1) * d * n * math.log(n / eps))
            for sub in combinations(range(n), d + 1):
                assert joint_marginal(joint, sub, n).min() >= floor - 1e-15

    def test_mixture_sampler_law(self):
        net = copy_chain()
        w = bn_mixture_weight(2, 1, 0.5)
        bits = BnMixtureSampler(BnSampler(net, 5), w, 0).sample(200_000)
        disagree = (bits[:, 0] != bits[:, 1]).mean()
        assert abs(disagree - w / 2) <= 4 * math.sqrt(w / 2 / 200_000) + 1e-4

    def test_replay_identical(self):
        net = random_bayesnet(5, 2, np.random.default_rng(6))
        a = BnMixtureSampler(BnSampler(net, 7), 0.01, 8).sample(256)
        b = BnMixtureSampler(BnSampler(net, 7), 0.01, 8).sample(256)
        assert np.array_equal(a, b)


class TestProjections:
    def test_markov_projection_is_identity(self):
        rng = np.random.default_rng(11)
        net = random_bayesnet(6, 2, rng)
        assert bn_kl_to_projection(net, net) == pytest.approx(0.0, abs=1e-12)

    def test_correlated_pair_onto_empty_graph(self):
        assert bn_kl_to_projection(copy_chain(), [(), ()]) == pytest.approx(math.log(2), abs=1e-12)

    def test_product_markov_wrt_everything(self):
        rng = np.random.default_rng(12)
        g = random_bayesnet(4, 2, rng)
        assert bn_kl_to_projection(fair_coins(4), g) == pytest.approx(0.0, abs=1e-12)

    def test_projection_is_distribution(self):
        rng = np.random.default_rng(13)
        p = random_bayesnet(6, 2, rng)
        g = random_bayesnet(6, 2, rng)
        proj = projection_joint(p, g)
        assert proj.sum() == pytest.approx(1.0, abs=1e-9)
        assert proj.min() >= 0

    def test_chow_liu_decomposition_form(self):
        # KL(p || p_G) = -sum I(X_i; Pi_i) + sum H(X_i) - H(p)
        rng = np.random.default_rng(14)
        p_net = random_bayesnet(6, 2, rng)
        g = random_bayesnet(6, 2, rng)
        joint = bn_exact_joint(p_net)
        direct = bn_kl_to_projection(p_net, g)
        total = -entropy(joint)
        for i in range(6):
            fam = tuple(sorted(set(g.parents[i]) | {i}))
            h_i = entropy(joint_marginal(joint, (i,), 6))
            h_fam = entropy(joint_marginal(joint, fam, 6))
            h_par = entropy(joint_marginal(joint, g.parents[i], 6))
            mi = h_i + h_par - h_fam
            total += h_i - mi
        assert direct == pytest.approx(total, abs=1e-10)

    def test_telescoping_identity(self):
        rng = np.random.default_rng(15)
        for _ in range(5):
            a = random_bayesnet(8, 2, rng)
            b = random_bayesnet(8, 2, rng)
            g = random_bayesnet(8, 2, rng)
            w = bn_mixture_weight(8, 2, 0.3)
            pj = (1 - w) * bn_exact_joint(a) + w / 256
            qj = (1 - w) * bn_exact_joint(b) + w / 256
            lhs, rhs = local_kl_telescoping(pj, qj, g)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_mixture_drift_bound(self):
        # |KL(p~ || p~_G) - KL(p || p_G)| <= 8 eps^2 on random nets
        rng = np.random.default_rng(16)
        for _ in range(20):
            n = int(rng.integers(4, 9))
            net = random_bayesnet(n, 2, rng)
            g = random_bayesnet(n, 2, rng)
            joint = bn_exact_joint(net)
            for eps in (0.2, 0.4):
                w = bn_mixture_weight(n, 2, eps)
                mixed = (1 - w) * joint + w / 2**n
                drift = abs(bn_kl_to_projection(mixed, g) - bn_kl_to_projection(joint, g))
                assert drift <= 8 * eps**2


class TestClosenessTester:
    def test_identical_nets_accept(self):
        rng = np.random.default_rng(21)
        accepts = 0
        for t in range(25):
            net = random_bayesnet(8, 2, rng)
            v = bn_closeness_test(BnSampler(net, 2 * t), BnSampler(net, 2 * t + 1),
                                  8, 2, 0.3, rng=t)
            accepts += v.accepted
        assert accepts >= 21

    def test_certified_far_nets_reject(self):
        rng = np.random.default_rng(22)
        rejects = 0
        for t in range(25):
            a, b, tv = make_far_net_pair(8, 2, 0.3, rng)
            assert tv >= 0.3
            v = bn_closeness_test(BnSampler(a, 3 * t), BnSampler(b, 3 * t + 1),
                                  8, 2, 0.3, rng=t)
            rejects += v.rejected
        assert rejects >= 21

    def test_exhaustive_mode_single_subset(self):
        # d = n-1: one subset, still runs
        net = random_bayesnet(4, 3, np.random.default_rng(23))
        v = bn_closeness_test(BnSampler(net, 1), BnSampler(net, 2), 4, 3, 0.5, rng=3)
        sweep = [t for t in v.trace if t[0] == "bn-sweep"]
        assert sweep and sweep[0][1] == 1.0

    def test_shared_budget_accounting(self):
        # total samples = the two shared multisets, not per-subset draws
        net = random_bayesnet(8, 2, np.random.default_rng(24))
        v = bn_closeness_test(BnSampler(net, 1), BnSampler(net, 2), 8, 2, 0.3, rng=5)
        m = [t[1] for t in v.trace if t[0] == "bn-shared-m"][0]
        assert v.samples_used <= 2 * m + 8 * math.sqrt(2 * m) + 10
        assert v.samples_used >= 2 * m - 8 * math.sqrt(2 * m) - 10

    def test_parameter_validation(self):
        net = fair_coins(4)
        with pytest.raises(ParameterOutOfRange):
            bn_closeness_test(BnSampler(net, 1), BnSampler(net, 2), 4, 2, 0.0)
        with pytest.raises(ParameterOutOfRange):
            bn_closeness_test(BnSampler(net, 1), BnSampler(net, 2), 4, 4, 0.3)


class TestIdentityTester:
    def test_matching_stream_accepts(self):
        rng = np.random.default_rng(31)
        accepts = 0
        for t in range(25):
            net = random_bayesnet(8, 2, rng)
            v = bn_identity_test(BnSampler(net, 5 * t), net, 8, 2, 0.3, rng=t)
            accepts += v.accepted
        assert accepts >= 21

    def test_flipped_cpt_rejects(self):
        rng = np.random.default_rng(32)
        rejects = 0
        for t in range(25):
            base, far, tv = make_far_net_pair(8, 2, 0.3, rng)
            v = bn_identity_test(BnSampler(far, 7 * t), base, 8, 2, 0.3, rng=t)
            rejects += v.rejected
        assert rejects >= 21

    def test_exact_guard(self):
        net = fair_coins(4)
        with pytest.raises(ParameterOutOfRange):
            bn_identity_test(BnSampler(net, 1), net, 4, 0, 0.3)


# Verdicts of the per-subset sweep, recorded before the sweep was batched:
# (accepted, fired stage, samples_used, trace) on each counting path.  The
# identity-far chi statistics moved by one ulp when the exact q tables came
# from the GEMM marginalization instead of index-order bincounts.
_SHARED = [("bn-shared-m", 170427.0, 127.0), ("bn-eps1", 0.5560620396340937, 0.01125)]
_ID_SHARED = [("bn-id-shared-m", 85360.0, 127.0), ("bn-id-eps1", 0.7102812960045428, 0.01125)]
GOLDEN = {
    ("closeness-null", "dense"): (True, None, 340158, _SHARED + [("bn-sweep", 56.0, 0.0)]),
    ("closeness-far", "dense"): (
        False, "bn-eet:0,1,6", 339907, _SHARED + [("bn-eet:0,1,6", 1913.0456154991725, 12.0)]),
    ("closeness-far-hellinger", "dense"): (
        False, "bn-hellinger:0,1,2", 342013,
        _SHARED + [("bn-hellinger:0,1,2", 40.40575846238259, 12.0)]),
    ("identity-null", "dense"): (True, None, 85501, _ID_SHARED + [("bn-id-sweep", 56.0, 0.0)]),
    ("identity-far", "dense"): (
        False, "bn-id-chi:0,1,6", 85360, _ID_SHARED + [("bn-id-chi:0,1,6", 4001.8398667499487, 12.0)]),
    ("identity-far-entropy", "dense"): (
        False, "bn-id-entropy:3,5,6", 85599,
        _ID_SHARED + [("bn-id-entropy:3,5,6", 0.7120868626860921, 0.7102812960045428)]),
    ("identity-far-both", "dense"): (
        False, "bn-id-entropy:0,1,6", 85360,
        _ID_SHARED + [("bn-id-entropy:0,1,6", 0.311134269992277, 0.14205625920090856)]),
    ("closeness-null", "streaming"): (True, None, 339937, _SHARED + [("bn-sweep", 56.0, 0.0)]),
    ("closeness-far", "streaming"): (
        False, "bn-eet:0,1,6", 341665, _SHARED + [("bn-eet:0,1,6", 1922.3719475548965, 12.0)]),
    ("closeness-far-hellinger", "streaming"): (
        False, "bn-hellinger:0,1,2", 340600,
        _SHARED + [("bn-hellinger:0,1,2", 37.360191339056065, 12.0)]),
    ("identity-null", "streaming"): (True, None, 85158, _ID_SHARED + [("bn-id-sweep", 56.0, 0.0)]),
    ("identity-far", "streaming"): (
        False, "bn-id-chi:0,1,6", 85092, _ID_SHARED + [("bn-id-chi:0,1,6", 3924.7281686101956, 12.0)]),
    ("identity-far-entropy", "streaming"): (
        False, "bn-id-entropy:3,5,6", 85186,
        _ID_SHARED + [("bn-id-entropy:3,5,6", 0.7139697963848808, 0.7102812960045428)]),
    ("identity-far-both", "streaming"): (
        False, "bn-id-entropy:0,1,6", 85092,
        _ID_SHARED + [("bn-id-entropy:0,1,6", 0.3057250937632714, 0.14205625920090856)]),
}


def _golden_verdict(case):
    # the Hellinger vote only fires once the EET thresholds are raised, and
    # the entropy vote once the chi threshold is raised or its own lowered
    # (then both vote on the same subset, and the entropy vote is reported)
    hellinger_only = replace(DEFAULT_CONFIG, c_T_threshold=50.0, c_Z_threshold=50.0)
    entropy_only = replace(DEFAULT_CONFIG, c_T_threshold=1e6)
    both = replace(DEFAULT_CONFIG, c_Z_threshold=0.2)
    null = random_bayesnet(8, 2, np.random.default_rng(100))
    if case == "closeness-null":
        return bn_closeness_test(BnSampler(null, 1), BnSampler(null, 2), 8, 2, 0.3, rng=0)
    if case == "identity-null":
        return bn_identity_test(BnSampler(null, 3), null, 8, 2, 0.3, rng=0)
    seed, cfg = {
        "closeness-far": (10, DEFAULT_CONFIG),
        "closeness-far-hellinger": (1, hellinger_only),
        "identity-far": (10, DEFAULT_CONFIG),
        "identity-far-entropy": (2, entropy_only),
        "identity-far-both": (10, both),
    }[case]
    base, far, _ = make_far_net_pair(8, 2, 0.3, np.random.default_rng(200 + seed))
    if case.startswith("closeness"):
        return bn_closeness_test(BnSampler(base, 1), BnSampler(far, 2), 8, 2, 0.3, cfg=cfg, rng=seed)
    return bn_identity_test(BnSampler(far, 3), base, 8, 2, 0.3, cfg=cfg, rng=seed)


class TestGoldenVerdicts:
    @pytest.mark.parametrize("path", ["dense", "streaming"])
    @pytest.mark.parametrize("case", sorted({case for case, _ in GOLDEN}))
    def test_verdict_and_trace_pinned(self, case, path, monkeypatch):
        if path == "streaming":
            monkeypatch.setattr(bayesnet, "_DENSE_ATOM_CELLS", 0)
        accepted, stage, samples, trace = GOLDEN[case, path]
        v = _golden_verdict(case)
        assert v.accepted == accepted
        assert v.fired_stage == stage
        assert v.samples_used == samples
        assert [record[:3] for record in v.trace] == trace
        # the shared multiset carries every sample; the other records note choices
        assert [record.samples for record in v.trace] == [samples] + [0] * (len(trace) - 1)


class TestBlockedSubsetCounts:
    def _mixture(self, n, seed):
        net = random_bayesnet(n, 2, np.random.default_rng(seed))
        return BnMixtureSampler(BnSampler(net, seed), 0.01, seed + 1)

    @staticmethod
    def _cells(values, sub):
        # values: (..., n) bits; cell index with bit j = variable sub[j]
        return sum(values[..., v].astype(np.int64) << j for j, v in enumerate(sub))

    def test_dense_counts_match_per_subset_bincount(self):
        n, width, k, m = 8, 3, 9, 5000
        per_atom, total = bayesnet._blocked_subset_counts(self._mixture(n, 61), m, k, width,
                                                         np.random.default_rng(7))
        # the same per-block atom counts, projected one subset at a time
        per_block = np.random.default_rng(7).poisson(
            np.outer(np.full(k, m / k), self._mixture(n, 61).exact_joint()))
        atom_bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
        subsets = list(combinations(range(n), width))
        assert np.array_equal(per_atom, per_block.T)
        counts = bayesnet._block_tables(per_atom, n, width, slice(None))
        assert counts.shape == (len(subsets), k, 2**width)
        assert total == per_block.sum()
        for s, sub in enumerate(subsets):
            cells = self._cells(atom_bits, sub)
            for b in range(k):
                ref = np.bincount(cells, weights=per_block[b], minlength=2**width)
                assert np.array_equal(counts[s, b], ref)

    def test_streaming_counts_match_per_sample_tally(self, monkeypatch):
        monkeypatch.setattr(bayesnet, "_DENSE_ATOM_CELLS", 0)
        n, width, k, m = 6, 3, 5, 2000
        counts, total = bayesnet._blocked_subset_counts(self._mixture(n, 62), m, k, width,
                                                       np.random.default_rng(8))
        rng = np.random.default_rng(8)
        realized = int(rng.poisson(m))
        bits = self._mixture(n, 62).sample(realized)
        blocks = rng.integers(0, k, size=realized)
        assert total == realized
        for s, sub in enumerate(combinations(range(n), width)):
            ref = np.zeros((k, 2**width))
            np.add.at(ref, (blocks, self._cells(bits, sub)), 1.0)
            assert np.array_equal(counts[s], ref)

    @pytest.mark.parametrize("ncells", [4, 8, 16])
    def test_miller_madow_matches_per_row_loop(self, ncells):
        rng = np.random.default_rng(ncells)
        # sparse rows, so most have unseen cells and some are empty
        sparse = rng.poisson(rng.uniform(0, 2, size=ncells), size=(3, 200, ncells)).astype(np.float64)
        sparse[0, :5] = 0.0
        # dense rows, almost all fully seen (summed whole), beside partial and empty ones
        dense = rng.poisson(rng.uniform(20, 60, size=ncells), size=(3, 200, ncells)).astype(np.float64)
        dense[0, :5] = 0.0
        dense[1, :7, : ncells // 2] = 0.0
        dense[2, 9, 1] = 0.0
        empty = np.arange(3.0)[:, None]
        for x in (sparse, dense):
            got = bayesnet._miller_madow(x, empty)
            for s in range(3):
                for b in range(200):
                    tot = x[s, b].sum()
                    if tot == 0:
                        assert got[s, b] == empty[s, 0]
                        continue
                    freq = x[s, b] / tot
                    nz = freq > 0
                    plugin = float(-(freq[nz] * np.log(freq[nz])).sum())
                    assert got[s, b] == plugin + (int(nz.sum()) - 1) / (2.0 * tot)

    @pytest.mark.parametrize("n,width", [
        (n, width) for n in (3, 4, 7, 8, 9, 12) for width in (1, 2, 3, 4) if width <= n
    ])
    def test_dense_counts_match_per_subset_bincount_any_split(self, n, width):
        # odd n, width = n and a low half with fewer bits than width
        k = 3
        per_atom = np.random.default_rng(9).poisson(400 * 2**width / k / 2**n, size=(2**n, k))
        counts = bayesnet._marginal_counts(per_atom, n, width)
        atom_bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
        for s, sub in enumerate(combinations(range(n), width)):
            cells = self._cells(atom_bits, sub)
            ref = [np.bincount(cells, weights=col, minlength=2**width) for col in per_atom.T]
            assert np.array_equal(counts[s], ref)

    @pytest.mark.parametrize("n", [11, 12])
    @pytest.mark.parametrize("layout", ["int32", "transposed-int64"])
    def test_chunked_counts_match_per_subset_bincount(self, n, layout):
        # n = 11 and 12 score 16 blocks at a time: 37 blocks leave a short
        # last chunk; per-atom counts may come as a transposed view
        width, k = 3, 37
        step = bayesnet._block_step(n, width)
        assert step == 16
        draw = np.random.default_rng(8).poisson(2000 / k / 2**n, size=(k, 2**n))
        per_atom = draw.T if layout == "transposed-int64" else np.ascontiguousarray(draw.T, dtype=np.int32)
        counts = np.concatenate(
            [bayesnet._block_tables(per_atom, n, width, slice(b, b + step)) for b in range(0, k, step)], axis=1)
        atom_bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
        for s, sub in enumerate(combinations(range(n), width)):
            cells = self._cells(atom_bits, sub)
            ref = [np.bincount(cells, weights=col, minlength=2**width) for col in draw]
            assert counts[s].tobytes() == np.array(ref).tobytes()

    def test_n8_chunks_equal_one_pass(self):
        # n = 8, d = 2 has 127 blocks, which the cell bound alone would
        # score in one pass; chunks of at most 64 give the same tables
        n, width = 8, 3
        k, step = bayesnet._sweep_blocks(n, width - 1), bayesnet._block_step(n, width)
        assert (k, step) == (127, 64)
        draw = np.random.default_rng(12).poisson(170_000 / k / 2**n, size=(k, 2**n))
        per_atom = np.ascontiguousarray(draw.T, dtype=np.int32)
        chunks = [bayesnet._block_tables(per_atom, n, width, slice(b, b + step)) for b in range(0, k, step)]
        assert len(chunks) == 2
        assert np.concatenate(chunks, axis=1).tobytes() == bayesnet._marginal_counts(per_atom, n, width).tobytes()

    @staticmethod
    def _sparse_reference(joint, m, k, rng):
        # each atom's Poi(m p_a) samples, then one uniform block label each
        totals = rng.poisson(m * joint)
        labels = rng.integers(0, k, size=int(totals.sum()))
        ref = np.zeros((joint.size, k), dtype=np.int64)
        np.add.at(ref, (np.repeat(np.arange(joint.size), totals), labels), 1)
        return ref

    def test_block_counts_branch_switches_at_cell_count(self):
        n, k = 6, 5
        joint = self._mixture(n, 64).exact_joint()
        for m in (k * 2**n - 1, k * 2**n - 0.5, k * 2**n, k * 2**n + 1):
            got = bayesnet._block_atom_counts(joint, m, k, np.random.default_rng(10))
            sparse = self._sparse_reference(joint, m, k, np.random.default_rng(10))
            per_cell = np.random.default_rng(10).poisson(m / k * joint, size=(k, 2**n)).T
            assert got.shape == (2**n, k)
            assert np.array_equal(got, sparse) == (m < k * 2**n)
            assert np.array_equal(got, per_cell) == (m >= k * 2**n)

    def test_per_cell_counts_widen_past_int32(self):
        # a block rate past 2^30 keeps the counts int64, so none wraps
        n, k = 3, 3
        joint = self._mixture(n, 72).exact_joint()
        for m, dtype in ((k * 2.0**30, np.int32), (k * 2.0**34, np.int64)):
            got = bayesnet._block_atom_counts(joint, m, k, np.random.default_rng(16))
            assert got.dtype == dtype
            assert np.array_equal(got, np.random.default_rng(16).poisson(m / k * joint, size=(k, 2**n)).T)

    def test_sparse_block_counts_tabulated_in_atom_chunks(self):
        # k = 153 blocks at n = 10: three chunks of at most 428 atoms
        n, k, m = 10, 153, 100_000
        assert m < k * 2**n and 2**n > 2 * (bayesnet._TABLE_CHUNK // k)
        joint = self._mixture(n, 67).exact_joint()
        got = bayesnet._block_atom_counts(joint, m, k, np.random.default_rng(14))
        assert got.dtype == np.uint16
        assert np.array_equal(got, self._sparse_reference(joint, m, k, np.random.default_rng(14)))
        tables = bayesnet._block_tables(got, n, 3, slice(None))
        assert tables.tobytes() == bayesnet._block_tables(got.astype(np.int32), n, 3, slice(None)).tobytes()

    def test_sparse_counts_past_uint16_stay_int32(self):
        # one atom holds 0.9 of the mass, so its total is near 90,000 > 2^16
        n, k, m = 10, 153, 100_000
        joint = np.full(2**n, 0.1 / 2**n)
        joint[5] += 0.9
        assert m < k * 2**n
        got = bayesnet._block_atom_counts(joint, m, k, np.random.default_rng(18))
        ref = self._sparse_reference(joint, m, k, np.random.default_rng(18))
        assert got.dtype == np.int32 and ref[5].sum() >= 2**16
        assert np.array_equal(got, ref)
        tables = bayesnet._block_tables(got, n, 3, slice(None))
        assert tables.tobytes() == bayesnet._block_tables(ref.astype(np.int32), n, 3, slice(None)).tobytes()

    @pytest.mark.parametrize("top, dtype", [(2**16 - 1, np.uint16), (2**16, np.int32)])
    def test_sparse_count_dtype_edge(self, top, dtype):
        # one block, so atom 0's count is its whole total
        class Totals:
            def __init__(self, totals):
                self.totals, self.gen = totals, np.random.default_rng(19)

            def poisson(self, lam):
                return self.totals

            def integers(self, *args, **kwargs):
                return self.gen.integers(*args, **kwargs)

        totals = np.array([top, 0, 3, 1])
        got = bayesnet._block_atom_counts(np.full(4, 0.25), 2.0, 1, Totals(totals))
        assert got.dtype == dtype
        assert got[:, 0].tolist() == totals.tolist()

    @pytest.mark.parametrize("m", [483_929, 10_924_272])
    def test_block_counts_memory_bound(self, m):
        # the bayesnet benchmark's n = 12 size, both branches: the counts are
        # kept as uint16 (sparse, 1.2 MiB) or int32 (per-cell, 2.4 MiB), and
        # the labels or the Poisson rows are drawn a chunk at a time (all
        # labels at once as int64 take 3.9 MB, one whole Poisson draw 4.8 MB)
        n, k = 12, 153
        assert (m < k * 2**n) == (m == 483_929)
        joint = self._mixture(n, 68).exact_joint()
        tracemalloc.start()
        try:
            bayesnet._block_atom_counts(joint, m, k, np.random.default_rng(15))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 2**20

    def test_sparse_block_counts_follow_per_cell_poisson_law(self):
        # Poisson splitting: uniform labels on Poi(m p_a) samples give
        # independent Poi(m/k p_a) counts in each of the k blocks
        n, k, m, draws = 6, 5, 200, 40_000
        assert m < k * 2**n
        joint = self._mixture(n, 65).exact_joint()
        rng = np.random.default_rng(11)
        sums = np.zeros((2**n, k))
        zeros = np.zeros((2**n, k))
        totals = np.empty(draws)
        for i in range(draws):
            x = bayesnet._block_atom_counts(joint, m, k, rng)
            sums += x
            zeros += x == 0
            totals[i] = x.sum()
        lam = m / k * joint[:, None]
        p0 = np.exp(-lam)
        z_mean = (sums / draws - lam) / np.sqrt(lam / draws)
        z_zero = (zeros / draws - p0) / np.sqrt(p0 * (1 - p0) / draws)
        # mean z^2 over 320 cells is 1 with sd 0.08 under the right law
        for z in (z_mean, z_zero):
            assert 0.75 <= np.mean(z**2) <= 1.3
        # the total is Poi(m), not a fixed m: its variance is m (sd of the
        # sample variance sqrt((2 m^2 + m) / draws))
        assert abs(totals.var() - m) <= 4 * math.sqrt((2 * m**2 + m) / draws)

    def test_sparse_counts_total_and_replay(self):
        n, width, k, m = 8, 3, 9, 1000
        assert m < k * 2**n
        counts, total = bayesnet._blocked_subset_counts(self._mixture(n, 66), m, k, width,
                                                       np.random.default_rng(12))
        per_atom = bayesnet._block_atom_counts(self._mixture(n, 66).exact_joint(), m, k,
                                               np.random.default_rng(12))
        assert total == per_atom.sum()
        assert np.array_equal(counts, per_atom)
        # every subset's cells hold every sample once
        tables = bayesnet._block_tables(counts, n, width, slice(None))
        assert np.array_equal(tables.sum(axis=(1, 2)), np.full(len(tables), total))
        # a fixed seed replays the same counts, another seed does not
        again, total_again = bayesnet._blocked_subset_counts(self._mixture(n, 66), m, k, width,
                                                             np.random.default_rng(12))
        other, _ = bayesnet._blocked_subset_counts(self._mixture(n, 66), m, k, width,
                                                   np.random.default_rng(13))
        assert total_again == total and again.tobytes() == counts.tobytes()
        assert not np.array_equal(other, counts)

    def test_marginal_plan_cached_read_only(self):
        splits = bayesnet._marginal_plan(7, 3)
        assert bayesnet._marginal_plan(7, 3) is splits
        assert [j for j, *_ in splits] == [0, 1, 2, 3]
        sweeps = np.concatenate([sweep for *_, sweep in splits])
        assert np.array_equal(np.sort(sweeps), np.arange(math.comb(7, 3)))
        for j, lo_map, hi_map, sweep in splits:
            assert not (lo_map.flags.writeable or hi_map.flags.writeable or sweep.flags.writeable)
            assert lo_map.shape == (2**3, math.comb(3, j) << j)
            assert hi_map.shape == (2**4, math.comb(4, 3 - j) << (3 - j))
            # one-hot: every atom lands in one cell of every subset
            assert np.array_equal(lo_map.sum(axis=1), np.full(2**3, math.comb(3, j)))
            assert np.array_equal(hi_map.sum(axis=1), np.full(2**4, math.comb(4, 3 - j)))

    def test_threads_at_two_plan_keys_get_serial_tables(self):
        # trial threads of one Bayes-net suite marginalize at once, so two
        # plan keys take turns at _marginal_plan's one cached entry
        jobs = [
            (np.random.default_rng(16).poisson(3.0, size=(2**12, 16)), 12, 3),
            (self._mixture(6, 69).exact_joint()[:, None], 6, 3),
        ]
        serial = [bayesnet._marginal_counts(*job).tobytes() for job in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                got = list(pool.map(lambda job: [bayesnet._marginal_counts(*job).tobytes() for _ in range(40)], jobs))
        finally:
            sys.setswitchinterval(interval)
        assert got == [[table] * 40 for table in serial]


class TestChunkedSweep:
    def test_generator_streams_split_like_one_call(self):
        # the chunked draws of _block_atom_counts rest on this: int32 label
        # chunks equal one int64 call, and Poisson row groups equal one
        # call, leaving the generator in the same state (NEP 19 does not
        # promise it across numpy versions)
        k, rates = 153, np.random.default_rng(0).uniform(0, 3, size=64)
        one = np.random.default_rng(1)
        split = np.random.default_rng(1)
        labels = one.integers(0, k, size=1001)
        chunks = [split.integers(0, k, size=size, dtype=np.int32) for size in (1, 400, 0, 333, 267)]
        assert np.array_equal(np.concatenate(chunks), labels)
        assert split.bit_generator.state == one.bit_generator.state
        rows = one.poisson(rates, size=(11, 64))
        groups = [split.poisson(rates, size=(g, 64)) for g in (4, 4, 3)]
        assert np.array_equal(np.concatenate(groups), rows)
        assert split.bit_generator.state == one.bit_generator.state

    @pytest.mark.parametrize("step", [1, 7, 16])
    def test_chunked_scores_equal_one_pass(self, step, monkeypatch):
        # every (subset, block) statistic is the float of one pass over the
        # whole tables, whatever the chunk
        n, width, k = 8, 3, 37
        rng = np.random.default_rng(17)
        p, q = (rng.poisson(rng.uniform(0, 6, size=2**n), size=(k, 2**n)).T for _ in range(2))
        full_p, full_q = (bayesnet._marginal_counts(c, n, width) for c in (p, q))
        empty = np.arange(math.comb(n, width))[:, None] / 7.0
        monkeypatch.setattr(bayesnet, "_block_step", lambda n, width: step)
        t, z = bayesnet._sweep_scores(lambda x, y: (batch_t(x, y), batch_z(x, y, 50.0)), (p, q), n, width, k)
        h, total = bayesnet._sweep_scores(lambda x: (bayesnet._miller_madow(x, empty), x.sum(axis=-1)), (p,),
                                          n, width, k)
        assert t.tobytes() == batch_t(full_p, full_q).tobytes()
        assert z.tobytes() == batch_z(full_p, full_q, 50.0).tobytes()
        assert h.tobytes() == bayesnet._miller_madow(full_p, empty).tobytes()
        assert total.tobytes() == full_p.sum(axis=-1).tobytes()

    @pytest.mark.parametrize("eps", [0.3, 0.15])
    @pytest.mark.parametrize("tester", ["closeness", "identity"])
    def test_memory_flat_in_m(self, tester, eps):
        # n = 12, d = 2: eps 0.3 takes the sparse draw and eps 0.15 the
        # per-cell one, at 22 times the samples (closeness m = 484k and
        # 10.9M).  Both streams' int32 counts take 4.8 MiB; holding them as
        # int64, or scoring every block in one pass, exceeds the bound.  The
        # sparse draw keeps them as uint16 (2.4 MiB) and stays under 6 MiB.
        n, d = 12, 2
        net = random_bayesnet(n, d, np.random.default_rng(70))
        budget = bayesnet.bn_budget if tester == "closeness" else bayesnet.bn_identity_budget
        assert (budget(n, d, eps) < bayesnet._sweep_blocks(n, d) * 2**n) == (eps == 0.3)
        tracemalloc.start()
        try:
            if tester == "closeness":
                bn_closeness_test(BnSampler(net, 1), BnSampler(net, 2), n, d, eps, rng=0)
            else:
                bn_identity_test(BnSampler(net, 1), net, n, d, eps, rng=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (6 if eps == 0.3 else 8) * 2**20

    def test_dense_limit_keeps_n16_d2(self):
        limit = bayesnet._DENSE_ATOM_CELLS
        assert 2**16 * bayesnet._sweep_blocks(16, 2) <= limit < 2**17 * bayesnet._sweep_blocks(17, 2)

    @pytest.mark.parametrize("n, d", [(12, 4), (16, 2)])
    def test_large_nets_take_the_dense_path(self, n, d, monkeypatch):
        def no_stream(self, count):
            raise AssertionError("streamed samples")

        monkeypatch.setattr(BnMixtureSampler, "sample", no_stream)
        base, far, _ = make_far_net_pair(n, d, 0.3, np.random.default_rng(71))
        assert not bn_closeness_test(BnSampler(base, 1), BnSampler(far, 2), n, d, 0.3, rng=0).accepted
        assert not bn_identity_test(BnSampler(far, 3), base, n, d, 0.3, rng=0).accepted


class TestNetFiles:
    def test_roundtrip_bytes_stable(self, tmp_path):
        net = random_bayesnet(6, 2, np.random.default_rng(41))
        p1 = tmp_path / "net1.bn"
        p2 = tmp_path / "net2.bn"
        save_bayesnet(net, p1)
        back = load_bayesnet(p1)
        save_bayesnet(back, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert back.parents == net.parents
        for a, b in zip(back.cpts, net.cpts):
            assert np.array_equal(a, b)

    def test_header_format(self, tmp_path):
        net = random_bayesnet(5, 2, np.random.default_rng(42))
        path = tmp_path / "net.bn"
        save_bayesnet(net, path)
        assert open(path).readline().strip() == f"n=5 d={net.in_degree}"

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.bn"
        path.write_text("nope\n")
        with pytest.raises(BayesNetError):
            load_bayesnet(path)


    @pytest.mark.parametrize(
        "body",
        [
            "node 5 parents \ncpt 0 0.5\n",
            "node 0 parents \ncpt 0 0.5\nnode 1 parents \ncpt 0 0.5\nnode 0 parents \ncpt 0 0.7\n",
            "node 0 parents \ncpt 0 0.5\nnode 1 parents 0\ncpt 0 0.5\ncpt 2 0.5\n",
            "node 0 parents \ncpt 0 0.5\ncpt 0 0.7\nnode 1 parents \ncpt 0 0.5\n",
            "node 0 parents \ncpt 0 0.5\nnode 1 parents 0\ncpt 0 0.5\n",
            "node 0 parents \ncpt 0 0.5\nnode 1 parents 0,2\n"
            "cpt 0 0.5\ncpt 1 0.5\ncpt 2 0.5\ncpt 3 0.5\nnode 2 parents \ncpt 0 0.5\n",
            "node x parents \ncpt 0 0.5\nnode 1 parents \ncpt 0 0.5\n",
            "node 0 parents \ncpt 0 half\nnode 1 parents \ncpt 0 0.5\n",
        ],
        ids=["node-out-of-range", "node-repeated", "cpt-mask-out-of-range",
             "cpt-repeated", "missing-cpt", "in-degree-above-header",
             "non-numeric-node", "non-numeric-cpt"],
    )
    def test_malformed_file_rejected(self, tmp_path, body):
        n = 3 if "node 2" in body else 2
        path = tmp_path / "bad.bn"
        path.write_text(f"n={n} d=1\n" + body)
        with pytest.raises(BayesNetError):
            load_bayesnet(path)


class TestFarPairGenerator:
    def test_certificate_enforced(self):
        rng = np.random.default_rng(51)
        a, b, tv = make_far_net_pair(8, 2, 0.3, rng)
        assert tv >= 0.3
        assert 0.5 * np.abs(bn_exact_joint(a) - bn_exact_joint(b)).sum() == pytest.approx(tv)

    def test_unset_parameters_are_gone(self):
        with pytest.raises(TypeError):
            make_far_net_pair(8, 2, 0.3, np.random.default_rng(51), max_tries=1)
        with pytest.raises(TypeError):
            bayesnet._as_joint(np.full(8, 0.125), n_hint=3)

    def test_reach_bound_keeps_its_bits(self):
        # derived from the CPT range and the flip targets, it is still 0.12
        for n in range(1, 11):
            assert bayesnet.far_pair_reach(n) == 1 - 0.12 ** min(8, n)

    def test_cpt_entries_lie_in_the_range(self):
        net = random_bayesnet(8, 3, np.random.default_rng(53))
        entries = np.concatenate(net.cpts)
        assert ((entries >= 0.1) & (entries <= 0.9)).all()
        with pytest.raises(TypeError):
            random_bayesnet(8, 3, np.random.default_rng(53), cpt_low=0.0)

    def test_perturbation_changes_exactly_one_cpt(self):
        rng = np.random.default_rng(52)
        net = random_bayesnet(6, 2, rng)
        far = perturb_one_cpt(net, rng)
        diffs = sum(not np.array_equal(a, b) for a, b in zip(net.cpts, far.cpts))
        assert diffs == 1
