"""Bounded in-degree Bayesian networks over {0,1}^n.

Representation with per-node conditional probability tables, ancestral
sampling, exact joint/marginal computation on small nets, the
subset-sweep closeness tester (local entropy-difference and Hellinger
tests over every (d+1)-subset, fed by one shared sample multiset), its
identity-test variant against a fully known net, and the exact
KL-to-projection oracle used by the verification suites.

The sweep is batched: one (subset, block, cell) count array holds every
subset's per-block counts (on small nets one matmul of the per-atom block
counts with a cached one-hot projection), each local statistic is
computed for all subsets at once, and the verdict names the first
rejecting subset in ``combinations`` order.

CPT layout: for node i with sorted parent tuple (p_0 < p_1 < ...), entry
``cpt[i][mask]`` is P(X_i = 1 | parents), where bit j of ``mask`` carries
the value of parent p_j.  Joint atoms are indexed with variable i on bit i.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations

import numpy as np

from .core import LOG_FLOOR, entropy
from .testers import (
    DEFAULT_CONFIG,
    ParameterOutOfRange,
    TestVerdict,
    ThresholdConfig,
    amplification_reps,
)

EXACT_GUARD = 24  # exact joints are 2^n vectors; refuse beyond this


class BayesNetError(ValueError):
    """Structural invariant violated (cycle, bad CPT, bad parent set)."""


class TooLargeForExact(ValueError):
    """Exact-mode operation requested beyond the 2^n guard."""


class BayesNet:
    """DAG over n binary variables with per-node CPTs."""

    __slots__ = ("n", "parents", "cpts", "topo_order")

    def __init__(self, n: int, parents, cpts):
        if n < 1:
            raise BayesNetError("need at least one variable")
        parents = tuple(tuple(sorted(int(p) for p in ps)) for ps in parents)
        if len(parents) != n or len(cpts) != n:
            raise BayesNetError("need one parent set and one CPT per variable")
        for i, ps in enumerate(parents):
            if any(p < 0 or p >= n or p == i for p in ps):
                raise BayesNetError(f"node {i}: invalid parent set {ps}")
            if len(set(ps)) != len(ps):
                raise BayesNetError(f"node {i}: duplicate parents")
        tables = []
        for i, (ps, tab) in enumerate(zip(parents, cpts)):
            arr = np.asarray(tab, dtype=np.float64)
            if arr.shape != (2 ** len(ps),):
                raise BayesNetError(
                    f"node {i}: CPT must have 2^{len(ps)} entries, got {arr.shape}"
                )
            if np.any(arr < 0) or np.any(arr > 1) or not np.all(np.isfinite(arr)):
                raise BayesNetError(f"node {i}: CPT entries must lie in [0, 1]")
            arr = arr.copy()
            arr.setflags(write=False)
            tables.append(arr)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "parents", parents)
        object.__setattr__(self, "cpts", tuple(tables))
        object.__setattr__(self, "topo_order", self._toposort())

    def __setattr__(self, name, value):
        raise AttributeError("BayesNet is immutable")

    def _toposort(self):
        indeg = [len(ps) for ps in self.parents]
        children = [[] for _ in range(self.n)]
        for i, ps in enumerate(self.parents):
            for p in ps:
                children[p].append(i)
        order = [i for i in range(self.n) if indeg[i] == 0]
        head = 0
        while head < len(order):
            node = order[head]
            head += 1
            for ch in children[node]:
                indeg[ch] -= 1
                if indeg[ch] == 0:
                    order.append(ch)
        if len(order) != self.n:
            raise BayesNetError("graph has a cycle")
        return tuple(order)

    @property
    def in_degree(self) -> int:
        return max(len(ps) for ps in self.parents)

    def __repr__(self):
        return f"BayesNet(n={self.n}, d={self.in_degree})"


def _parent_masks(bits: np.ndarray, parent_set) -> np.ndarray:
    """Parent-configuration bitmask per row of a (k, n) bit matrix."""
    if not parent_set:
        return np.zeros(bits.shape[0], dtype=np.int64)
    mask = np.zeros(bits.shape[0], dtype=np.int64)
    for j, p in enumerate(parent_set):
        mask |= bits[:, p].astype(np.int64) << j
    return mask


def bn_sample(net: BayesNet, rng, count: int = 1) -> np.ndarray:
    """Ancestral sampling in topological order; (count, n) uint8 matrix."""
    rng = np.random.default_rng(rng)
    out = np.zeros((count, net.n), dtype=np.uint8)
    for i in net.topo_order:
        p1 = net.cpts[i][_parent_masks(out, net.parents[i])]
        out[:, i] = rng.random(count) < p1
    return out


def bn_exact_joint(net: BayesNet) -> np.ndarray:
    """Exact joint as a 2^n vector (variable i on bit i of the atom index)."""
    if net.n > EXACT_GUARD:
        raise TooLargeForExact(f"exact joint needs n <= {EXACT_GUARD}, got {net.n}")
    atoms = np.arange(2**net.n, dtype=np.int64)
    probs = np.ones(2**net.n)
    for i in range(net.n):
        pmask = np.zeros(atoms.size, dtype=np.int64)
        for j, p in enumerate(net.parents[i]):
            pmask |= ((atoms >> p) & 1) << j
        p1 = net.cpts[i][pmask]
        xi = (atoms >> i) & 1
        probs *= np.where(xi == 1, p1, 1.0 - p1)
    return probs


def joint_marginal(joint: np.ndarray, subset, n: int) -> np.ndarray:
    """Marginalize a 2^n joint onto sorted ``subset`` (bit j = subset[j])."""
    subset = tuple(sorted(subset))
    atoms = np.arange(joint.size, dtype=np.int64)
    cells = np.zeros(atoms.size, dtype=np.int64)
    for j, v in enumerate(subset):
        cells |= ((atoms >> v) & 1) << j
    out = np.zeros(2 ** len(subset))
    np.add.at(out, cells, joint)
    return out


def bn_exact_marginal(net: BayesNet, subset) -> np.ndarray:
    """Exact marginal table over ``subset`` (bit j = j-th smallest variable)."""
    return joint_marginal(bn_exact_joint(net), subset, net.n)


# ---------------------------------------------------------------------------
# Mixture with the uniform distribution
# ---------------------------------------------------------------------------


def bn_mixture_weight(n: int, d: int, eps: float) -> float:
    """Uniform-mixture weight eps^2 / (d n log(n/eps))."""
    if not 0 < eps <= 1:
        raise ParameterOutOfRange(f"eps must lie in (0, 1], got {eps}")
    if d < 1:
        raise ParameterOutOfRange("in-degree bound must be >= 1")
    return eps**2 / (d * n * math.log(max(n / eps, LOG_FLOOR)))


class BnSampler:
    """Reproducible ancestral sampler for a net, with an exact-joint cache."""

    def __init__(self, net: BayesNet, rng_seed):
        self.net = net
        self._rng = np.random.default_rng(rng_seed)
        self._joint = None

    @property
    def n(self) -> int:
        return self.net.n

    def exact_joint(self) -> np.ndarray:
        if self._joint is None:
            self._joint = bn_exact_joint(self.net)
        return self._joint

    def sample(self, count: int) -> np.ndarray:
        return bn_sample(self.net, self._rng, count)


class BnMixtureSampler:
    """Stream from (1 - w) p + w U over {0,1}^n, built per draw."""

    def __init__(self, base: BnSampler, weight: float, rng_seed):
        self.base = base
        self.weight = float(weight)
        self._rng = np.random.default_rng(rng_seed)

    @property
    def n(self) -> int:
        return self.base.n

    def exact_joint(self) -> np.ndarray:
        joint = self.base.exact_joint()
        return (1.0 - self.weight) * joint + self.weight / joint.size

    def sample(self, count: int) -> np.ndarray:
        out = self.base.sample(count)
        from_uniform = self._rng.random(count) < self.weight
        k = int(from_uniform.sum())
        if k:
            out[from_uniform] = self._rng.integers(0, 2, size=(k, self.n), dtype=np.uint8)
        return out


def bn_mixture_sampler(net_sampler: BnSampler, n: int, d: int, eps: float, rng_seed=0) -> BnMixtureSampler:
    """Mass-floored net stream; every (d+1)-marginal atom gets
    probability at least eps^2 / (2^{d+1} d n log(n/eps))."""
    if n != net_sampler.n:
        raise ParameterOutOfRange("declared n does not match the sampler")
    return BnMixtureSampler(net_sampler, bn_mixture_weight(n, d, eps), rng_seed)


# ---------------------------------------------------------------------------
# Shared-sample projected counts
# ---------------------------------------------------------------------------


# memory guard for the dense projection: the (2^n, C(n, d+1) 2^{d+1})
# one-hot map must stay modest
_PROJECTION_CELL_CAP = 2**26


@functools.lru_cache(maxsize=1)
def _subset_projection(n: int, width: int) -> np.ndarray:
    """Read-only one-hot map from the 2^n atoms to every subset's cells.

    Column ``s * 2^width + c`` is 1 on the atoms whose bits on the s-th
    ``width``-subset (in ``combinations`` order) spell cell ``c``, so
    ``counts @ proj`` projects per-atom counts onto all subsets at once.
    """
    atoms = np.arange(2**n, dtype=np.int64)
    subsets = list(combinations(range(n), width))
    proj = np.zeros((atoms.size, len(subsets) << width))
    for s, sub in enumerate(subsets):
        cells = np.full(atoms.size, s << width, dtype=np.int64)
        for j, v in enumerate(sub):
            cells |= ((atoms >> v) & 1) << j
        proj[atoms, cells] = 1.0
    proj.setflags(write=False)
    return proj


def _blocked_subset_counts(mix: BnMixtureSampler, m: int, k_blocks: int, width: int, rng):
    """Counts[subset, block, cell] for every ``width``-subset of the
    variables, from one shared Poissonized multiset.

    The multiset of ``Poi(m)`` samples is split uniformly into ``k_blocks``
    majority-vote blocks (Poisson thinning keeps blocks independent).  When
    the exact mixture joint fits the memory guard the per-atom block counts
    are drawn directly as ``Poi(m/k * p_atom)``, identical in law to
    sampling, and projected onto every subset by one matmul with the cached
    one-hot map (the counts are integers far below 2^53, so the product is
    exact); otherwise samples are streamed and each subset is bincounted.
    Subsets run in ``combinations(range(n), width)`` order.  Returns
    ``(float64 array of shape (C(n, width), k_blocks, 2^width), total
    samples drawn)``.
    """
    n = mix.n
    ncells = 2**width
    subsets = list(combinations(range(n), width))
    if n <= EXACT_GUARD and len(subsets) * 2 ** (n + width) <= _PROJECTION_CELL_CAP:
        joint = mix.exact_joint()
        per_block = rng.poisson(np.outer(np.full(k_blocks, m / k_blocks), joint))
        total = int(per_block.sum())
        flat = per_block @ _subset_projection(n, width)
        counts = flat.reshape(k_blocks, len(subsets), ncells).transpose(1, 0, 2)
        return np.ascontiguousarray(counts), total
    realized = int(rng.poisson(m))
    bits = mix.sample(realized)
    blocks = rng.integers(0, k_blocks, size=realized)
    counts = np.empty((len(subsets), k_blocks, ncells))
    for s, sub in enumerate(subsets):
        cells = np.zeros(realized, dtype=np.int64)
        for j, v in enumerate(sub):
            cells |= bits[:, v].astype(np.int64) << j
        flat = np.bincount(blocks * ncells + cells, minlength=k_blocks * ncells)
        counts[s] = flat.reshape(k_blocks, ncells)
    return counts, realized


def bn_budget(n: int, d: int, eps: float, budget_scale: float) -> int:
    """Shared multiset size: scaled version of the asymptotic budget formula."""
    log_r = math.log(max(n / eps, LOG_FLOOR))
    lead = min(2 ** (0.75 * d) * n / eps**2, 2 ** (2 * d / 3.0) * n ** (4.0 / 3.0) / eps ** (8.0 / 3.0))
    tail = d**3 * n**2 * log_r**2 / eps**4
    return math.ceil(budget_scale * (lead + tail))


def _local_noise_floor(s_block: float) -> float:
    # entropy-scale statistical resolution of one block
    return math.log(max(s_block, 3.0)) * math.sqrt(8.0 / max(s_block, 1.0))


def _block_t_statistic(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    j = x + y
    d = x - y
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(j > 0, (d * d - j) / np.where(j > 0, j, 1.0), 0.0)
    return terms.sum(axis=-1)


def _block_z_statistic(x: np.ndarray, y: np.ndarray, m_block: float) -> np.ndarray:
    j = x + y
    d = x - y
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(j > 0, -d * np.log(np.where(j > 0, j, 1.0)), 0.0)
    return terms.sum(axis=-1) / m_block


def _miller_madow(x: np.ndarray, empty) -> np.ndarray:
    """Miller-Madow entropy of each count row of ``x`` (last axis = cells);
    rows with no counts get ``empty`` (broadcast against the row shape).

    Rows with the same number of seen cells are summed over those cells
    alone, so every plug-in sum adds the same terms in the same order as a
    loop over single rows would.
    """
    totals = x.sum(axis=-1)
    seen = x > 0
    observed = seen.sum(axis=-1)
    plugin = np.zeros(totals.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        freq = x / totals[..., None]
        terms = freq * np.log(np.where(seen, freq, 1.0))
        for c in np.unique(observed[observed > 0]):
            rows = observed == c
            plugin[rows] = -terms[rows][seen[rows]].reshape(-1, c).sum(axis=-1)
        return np.where(totals > 0, plugin + (observed - 1) / (2.0 * totals), empty)


def bn_closeness_test(
    sp: BnSampler,
    sq: BnSampler,
    n: int,
    d: int,
    eps: float,
    cfg: ThresholdConfig = DEFAULT_CONFIG,
    budget_scale: float = 0.25,
    rng=None,
) -> TestVerdict:
    """Closeness test for two unknown in-degree-d nets over {0,1}^n.

    One shared multiset of samples per stream feeds, for every subset T of
    d+1 variables, a local entropy-difference test and a local Hellinger
    test on the projected counts of the uniform mixtures; any local
    rejection rejects the pair.  Per-subset failure probability is
    1/(20 C(n, d+1)), met by majority vote over sample blocks.
    """
    if not 0 < eps <= 1:
        raise ParameterOutOfRange(f"eps must lie in (0, 1], got {eps}")
    if not 1 <= d <= n - 1:
        raise ParameterOutOfRange(f"need 1 <= d <= n-1, got d={d}")
    if sp.n != n or sq.n != n:
        raise ParameterOutOfRange("sampler dimension does not match n")
    rng = np.random.default_rng(rng)

    subsets = list(combinations(range(n), d + 1))
    delta_local = 1.0 / (20.0 * len(subsets))
    k_blocks = amplification_reps(delta_local)
    m = bn_budget(n, d, eps, budget_scale)
    m_block = m / k_blocks
    ncells = 2 ** (d + 1)

    weight = bn_mixture_weight(n, d, eps)
    mix_p = BnMixtureSampler(sp, weight, rng.integers(0, 2**63 - 1))
    mix_q = BnMixtureSampler(sq, weight, rng.integers(0, 2**63 - 1))
    counts_p, used_p = _blocked_subset_counts(mix_p, m, k_blocks, d + 1, rng)
    counts_q, used_q = _blocked_subset_counts(mix_q, m, k_blocks, d + 1, rng)
    samples = used_p + used_q

    eps1 = max(eps**2 / n, _local_noise_floor(m_block))
    t_floor = math.sqrt(min(ncells, m_block) + 1.0)
    tau_eet = cfg.c_T_threshold * t_floor
    tau_hell = cfg.c_hellinger_reject * t_floor
    tau_z = cfg.c_Z_threshold * eps1

    trace = [
        ("bn-shared-m", float(m), float(k_blocks)),
        ("bn-eps1", eps1, eps**2 / n),
    ]
    # (subset, block) statistics in one pass; the verdict names the first
    # rejecting subset in sweep order, the EET vote before the Hellinger one
    t_blocks = _block_t_statistic(counts_p, counts_q)
    z_blocks = np.abs(_block_z_statistic(counts_p, counts_q, m_block))
    eet_votes = 2 * ((t_blocks > tau_eet) | (z_blocks > tau_z)).sum(axis=1) > k_blocks
    hell_votes = 2 * (t_blocks > tau_hell).sum(axis=1) > k_blocks
    fired = np.flatnonzero(eet_votes | hell_votes)
    if fired.size:
        s = int(fired[0])
        kind, tau = ("bn-eet", tau_eet) if eet_votes[s] else ("bn-hellinger", tau_hell)
        stage = f"{kind}:{','.join(map(str, subsets[s]))}"
        trace.append((stage, float(np.median(t_blocks[s])), tau))
        return TestVerdict("reject", stage, samples, trace)
    trace.append(("bn-sweep", float(len(subsets)), 0.0))
    return TestVerdict("accept", None, samples, trace)


def bn_identity_budget(n: int, d: int, eps: float, budget_scale: float) -> int:
    log_r = math.log(max(n / eps, LOG_FLOOR))
    return math.ceil(budget_scale * (2 ** (d / 2.0) * n / eps**2 + n**2 * log_r**2 / eps**4))


def bn_identity_test(
    sp: BnSampler,
    q_known: BayesNet,
    n: int,
    d: int,
    eps: float,
    cfg: ThresholdConfig = DEFAULT_CONFIG,
    budget_scale: float = 1.0,
    rng=None,
) -> TestVerdict:
    """Identity variant: the q side of every local statistic is computed
    exactly from the known net's mixture marginals.

    Per subset, a chi-square-style statistic against the exact local table
    (the Hellinger side) and a Miller-Madow entropy gap against the exact
    local entropy (the entropy side); majority over blocks as above.
    """
    if not 0 < eps <= 1:
        raise ParameterOutOfRange(f"eps must lie in (0, 1], got {eps}")
    if not 1 <= d <= n - 1:
        raise ParameterOutOfRange(f"need 1 <= d <= n-1, got d={d}")
    if q_known.n != n or sp.n != n:
        raise ParameterOutOfRange("net dimension does not match n")
    if n > EXACT_GUARD:
        raise TooLargeForExact("identity test needs exact q marginals")
    rng = np.random.default_rng(rng)

    subsets = list(combinations(range(n), d + 1))
    delta_local = 1.0 / (20.0 * len(subsets))
    k_blocks = amplification_reps(delta_local)
    m = bn_identity_budget(n, d, eps, budget_scale)
    m_block = m / k_blocks
    ncells = 2 ** (d + 1)

    weight = bn_mixture_weight(n, d, eps)
    mix_p = BnMixtureSampler(sp, weight, rng.integers(0, 2**63 - 1))
    x, samples = _blocked_subset_counts(mix_p, m, k_blocks, d + 1, rng)
    q_joint = (1.0 - weight) * bn_exact_joint(q_known) + weight / 2**n

    eps1 = max(eps**2 / n, _local_noise_floor(m_block))
    tau_chi = cfg.c_T_threshold * math.sqrt(ncells + 1.0)
    tau_ent = cfg.c_Z_threshold * eps1

    trace = [("bn-id-shared-m", float(m), float(k_blocks)), ("bn-id-eps1", eps1, eps**2 / n)]
    q_tables = np.array([joint_marginal(q_joint, sub, n) for sub in subsets])
    h_q = np.array([entropy(table) for table in q_tables])[:, None]
    lam = m_block * q_tables[:, None, :]
    chi_blocks = (((x - lam) ** 2 - x) / lam).sum(axis=-1)
    # an empty block gets h_q and so never votes to reject
    gap_blocks = np.abs(_miller_madow(x, h_q) - h_q)
    ent_votes = 2 * (gap_blocks > tau_ent).sum(axis=1) > k_blocks
    chi_votes = 2 * (chi_blocks > tau_chi).sum(axis=1) > k_blocks
    fired = np.flatnonzero(ent_votes | chi_votes)
    if fired.size:
        s = int(fired[0])
        if ent_votes[s]:
            kind, stat, tau = "bn-id-entropy", gap_blocks[s], tau_ent
        else:
            kind, stat, tau = "bn-id-chi", chi_blocks[s], tau_chi
        stage = f"{kind}:{','.join(map(str, subsets[s]))}"
        trace.append((stage, float(np.median(stat)), tau))
        return TestVerdict("reject", stage, int(samples), trace)
    trace.append(("bn-id-sweep", float(len(subsets)), 0.0))
    return TestVerdict("accept", None, int(samples), trace)


# ---------------------------------------------------------------------------
# Exact projection / KL oracles
# ---------------------------------------------------------------------------


def _as_joint(p, n_hint=None) -> tuple[np.ndarray, int]:
    if isinstance(p, BayesNet):
        return bn_exact_joint(p), p.n
    joint = np.asarray(p, dtype=np.float64)
    n = int(round(math.log2(joint.size)))
    if 2**n != joint.size:
        raise ValueError("joint vector length must be a power of two")
    if n > EXACT_GUARD:
        raise TooLargeForExact(f"exact mode needs n <= {EXACT_GUARD}")
    return joint, n


def projection_joint(p, structure) -> np.ndarray:
    """Project a distribution onto a DAG: the product of p's conditionals
    along the DAG's parent sets.  ``structure`` is a parent-set list or a
    BayesNet whose structure is borrowed."""
    joint, n = _as_joint(p)
    if isinstance(structure, BayesNet):
        parent_sets = structure.parents
    else:
        parent_sets = tuple(tuple(sorted(ps)) for ps in structure)
    if len(parent_sets) != n:
        raise ValueError("structure size does not match the distribution")
    atoms = np.arange(2**n, dtype=np.int64)
    out = np.ones(2**n)
    for i in range(n):
        fam = tuple(sorted(set(parent_sets[i]) | {i}))
        fam_marg = joint_marginal(joint, fam, n)
        par_marg = joint_marginal(joint, parent_sets[i], n)
        fam_cells = np.zeros(atoms.size, dtype=np.int64)
        for j, v in enumerate(fam):
            fam_cells |= ((atoms >> v) & 1) << j
        par_cells = np.zeros(atoms.size, dtype=np.int64)
        for j, v in enumerate(parent_sets[i]):
            par_cells |= ((atoms >> v) & 1) << j
        num = fam_marg[fam_cells]
        den = par_marg[par_cells]
        # parent configs never seen under p: any valid conditional works,
        # and p-null atoms never enter the KL sum
        cond = np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.5)
        out *= cond
    return out


def kl_divergence_vectors(p: np.ndarray, q: np.ndarray) -> float:
    sup = p > 0
    if np.any(q[sup] <= 0):
        return math.inf
    return float((p[sup] * np.log(p[sup] / q[sup])).sum())


def bn_kl_to_projection(p, structure) -> float:
    """d_KL(p || p_G) where p_G is p's projection onto the DAG; zero iff
    p is Markov with respect to the structure."""
    joint, _ = _as_joint(p)
    return kl_divergence_vectors(joint, projection_joint(p, structure))


def local_kl_telescoping(p_joint: np.ndarray, q_joint: np.ndarray, structure) -> tuple[float, float]:
    """Both sides of the local-KL telescoping identity for a structure G:

    sum_i [KL(p_{X_i,Pi_i} || q_{X_i,Pi_i}) - KL(p_{Pi_i} || q_{Pi_i})]
        = KL(p || q_G) - KL(p || p_G).

    Returns (lhs, rhs); they agree to numerical precision whenever the
    involved quantities are finite (e.g., for uniform-mixture smoothed
    inputs).
    """
    p_joint, n = _as_joint(p_joint)
    q_joint, nq = _as_joint(q_joint)
    if n != nq:
        raise ValueError("joint sizes differ")
    if isinstance(structure, BayesNet):
        parent_sets = structure.parents
    else:
        parent_sets = tuple(tuple(sorted(ps)) for ps in structure)
    lhs = 0.0
    for i in range(n):
        fam = tuple(sorted(set(parent_sets[i]) | {i}))
        lhs += kl_divergence_vectors(
            joint_marginal(p_joint, fam, n), joint_marginal(q_joint, fam, n)
        )
        lhs -= kl_divergence_vectors(
            joint_marginal(p_joint, parent_sets[i], n),
            joint_marginal(q_joint, parent_sets[i], n),
        )
    rhs = kl_divergence_vectors(p_joint, projection_joint(p_joint, parent_sets)) * -1.0
    rhs += kl_divergence_vectors(p_joint, projection_joint(q_joint, parent_sets))
    return lhs, rhs


# ---------------------------------------------------------------------------
# Random nets and certified perturbations
# ---------------------------------------------------------------------------


def random_bayesnet(n: int, d: int, rng, cpt_low: float = 0.1, cpt_high: float = 0.9) -> BayesNet:
    """Random DAG (random topological order, up to d parents each) with
    CPT entries uniform in [cpt_low, cpt_high]."""
    rng = np.random.default_rng(rng)
    order = rng.permutation(n)
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n)
    parents = []
    for i in range(n):
        earlier = [j for j in range(n) if position[j] < position[i]]
        k = int(rng.integers(0, min(d, len(earlier)) + 1))
        ps = sorted(rng.choice(earlier, size=k, replace=False).tolist()) if k else []
        parents.append(tuple(ps))
    cpts = [rng.uniform(cpt_low, cpt_high, size=2 ** len(ps)) for ps in parents]
    return BayesNet(n, parents, cpts)


def perturb_one_cpt(net: BayesNet, rng) -> BayesNet:
    """Flip one CPT entry toward its far extreme (same structure)."""
    rng = np.random.default_rng(rng)
    node = int(rng.integers(0, net.n))
    cpts = [c.copy() for c in net.cpts]
    row = int(rng.integers(0, cpts[node].size))
    cpts[node][row] = 0.98 if cpts[node][row] < 0.5 else 0.02
    return BayesNet(net.n, net.parents, cpts)


def exact_joint_tv(a: BayesNet, b: BayesNet) -> float:
    return 0.5 * float(np.abs(bn_exact_joint(a) - bn_exact_joint(b)).sum())


def make_far_net_pair(n: int, d: int, min_tv: float, rng, max_tries: int = 200):
    """A random net and a perturbation with certified joint TV >= min_tv."""
    rng = np.random.default_rng(rng)
    for _ in range(max_tries):
        base = random_bayesnet(n, d, rng)
        far = perturb_one_cpt(base, rng)
        for _ in range(8):  # pile on flips until the promise certifies
            tv = exact_joint_tv(base, far)
            if tv >= min_tv:
                return base, far, tv
            far = perturb_one_cpt(far, rng)
    raise RuntimeError(f"could not certify a pair with TV >= {min_tv}")


# ---------------------------------------------------------------------------
# Net files
# ---------------------------------------------------------------------------


def save_bayesnet(net: BayesNet, path):
    with open(path, "w") as fh:
        fh.write(f"n={net.n} d={net.in_degree}\n")
        for i in range(net.n):
            plist = ",".join(str(p) for p in net.parents[i])
            fh.write(f"node {i} parents {plist}\n")
            for mask, val in enumerate(net.cpts[i]):
                fh.write(f"cpt {mask} {val:.17g}\n")


def _parse_field(convert, text: str, line: str):
    try:
        return convert(text)
    except ValueError:
        raise BayesNetError(f"bad field {text!r} in {line!r}") from None


def load_bayesnet(path) -> BayesNet:
    """Parse a net file written by :func:`save_bayesnet`.

    Raises ``BayesNetError`` on a bad header or number, a node index out
    of range or listed twice, a ``cpt`` mask out of range or listed twice,
    a node with missing ``cpt`` lines, or a node with more parents than
    the header's d.
    """
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2 or not header[0].startswith("n=") or not header[1].startswith("d="):
            raise BayesNetError(f"bad net file header: {header}")
        n, d = (_parse_field(int, h[2:], " ".join(header)) for h in header)
        parents: list = [None] * n
        cpts: list = [None] * n
        current = None
        for raw in fh:
            tok = raw.split()
            if not tok:
                continue
            if tok[0] == "node":
                if len(tok) not in (3, 4) or tok[2] != "parents":
                    raise BayesNetError(f"bad node line: {raw!r}")
                current = _parse_field(int, tok[1], raw)
                if not 0 <= current < n:
                    raise BayesNetError(f"node index {current} out of range for n={n}")
                if parents[current] is not None:
                    raise BayesNetError(f"node {current} listed twice")
                plist = tok[3] if len(tok) > 3 else ""
                ps = tuple(_parse_field(int, x, raw) for x in plist.split(",") if x != "")
                if len(ps) > d:
                    raise BayesNetError(f"node {current}: {len(ps)} parents exceed d={d}")
                parents[current] = ps
                cpts[current] = [None] * 2 ** len(ps)
            elif tok[0] == "cpt":
                if current is None:
                    raise BayesNetError("cpt line before any node line")
                if len(tok) != 3:
                    raise BayesNetError(f"bad cpt line: {raw!r}")
                mask, table = _parse_field(int, tok[1], raw), cpts[current]
                if not 0 <= mask < len(table):
                    raise BayesNetError(f"node {current}: cpt mask {mask} out of range")
                if table[mask] is not None:
                    raise BayesNetError(f"node {current}: cpt mask {mask} listed twice")
                table[mask] = _parse_field(float, tok[2], raw)
            else:
                raise BayesNetError(f"unrecognized line: {raw!r}")
    if any(p is None for p in parents):
        raise BayesNetError("missing node lines")
    for i, table in enumerate(cpts):
        if any(v is None for v in table):
            raise BayesNetError(f"node {i}: missing cpt lines")
    return BayesNet(n, parents, cpts)
