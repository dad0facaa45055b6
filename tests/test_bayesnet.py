"""Bayesian network representation, sampling, exact oracles, and the
subset-sweep closeness/identity testers."""

import math
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
    bn_exact_marginal,
    bn_identity_test,
    bn_kl_to_projection,
    bn_mixture_sampler,
    bn_mixture_weight,
    bn_sample,
    exact_joint_tv,
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
        m = bn_exact_marginal(fair_coins(4), (0, 2))
        assert m == pytest.approx([0.25] * 4)

    def test_chain_marginal_correlated(self):
        m = bn_exact_marginal(copy_chain(), (0, 1))
        assert m == pytest.approx([0.5, 0.0, 0.0, 0.5])

    def test_exact_guard(self):
        with pytest.raises(TooLargeForExact):
            bn_exact_joint(fair_coins(30))

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
        mix = bn_mixture_sampler(BnSampler(net, 5), 2, 1, 0.5)
        bits = mix.sample(200_000)
        disagree = (bits[:, 0] != bits[:, 1]).mean()
        w = bn_mixture_weight(2, 1, 0.5)
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
# (accepted, fired stage, samples_used, trace) on each counting path.
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
        False, "bn-id-chi:0,1,6", 85360, _ID_SHARED + [("bn-id-chi:0,1,6", 4001.839866749948, 12.0)]),
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
        False, "bn-id-chi:0,1,6", 85092, _ID_SHARED + [("bn-id-chi:0,1,6", 3924.7281686101946, 12.0)]),
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
            monkeypatch.setattr(bayesnet, "_PROJECTION_CELL_CAP", 0)
        accepted, stage, samples, trace = GOLDEN[case, path]
        v = _golden_verdict(case)
        assert v.accepted == accepted
        assert v.fired_stage == stage
        assert v.samples_used == samples
        assert v.trace == trace


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
        counts, total = bayesnet._blocked_subset_counts(self._mixture(n, 61), m, k, width,
                                                       np.random.default_rng(7))
        # the same per-block atom counts, projected one subset at a time
        per_block = np.random.default_rng(7).poisson(
            np.outer(np.full(k, m / k), self._mixture(n, 61).exact_joint()))
        atom_bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
        subsets = list(combinations(range(n), width))
        assert counts.shape == (len(subsets), k, 2**width)
        assert total == per_block.sum()
        for s, sub in enumerate(subsets):
            cells = self._cells(atom_bits, sub)
            for b in range(k):
                ref = np.bincount(cells, weights=per_block[b], minlength=2**width)
                assert np.array_equal(counts[s, b], ref)

    def test_streaming_counts_match_per_sample_tally(self, monkeypatch):
        monkeypatch.setattr(bayesnet, "_PROJECTION_CELL_CAP", 0)
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
        x = rng.poisson(rng.uniform(0, 2, size=ncells), size=(3, 200, ncells)).astype(np.float64)
        x[0, :5] = 0.0
        empty = np.arange(3.0)[:, None]
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

    def test_projection_cached_read_only(self):
        proj = bayesnet._subset_projection(6, 3)
        assert proj is bayesnet._subset_projection(6, 3)
        assert not proj.flags.writeable
        assert proj.shape == (64, 20 * 8)
        assert np.array_equal(proj.sum(axis=1), np.full(64, 20.0))


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
        assert exact_joint_tv(a, b) == pytest.approx(tv)

    def test_perturbation_changes_exactly_one_cpt(self):
        rng = np.random.default_rng(52)
        net = random_bayesnet(6, 2, rng)
        far = perturb_one_cpt(net, rng)
        diffs = sum(not np.array_equal(a, b) for a, b in zip(net.cpts, far.cpts))
        assert diffs == 1
