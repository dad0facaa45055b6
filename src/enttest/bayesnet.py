"""Bounded in-degree Bayesian networks over {0,1}^n.

Representation with per-node conditional probability tables, ancestral
sampling, exact joint/marginal computation on small nets, the
subset-sweep closeness tester (local entropy-difference and Hellinger
tests over every (d+1)-subset, fed by one shared sample multiset), its
identity-test variant against a fully known net, and the exact
KL-to-projection oracle used by the verification suites.

The sweep is batched: one (subset, block, cell) count array holds every
subset's per-block counts, each local statistic is computed for all
subsets at once (T and Z by the shared batched kernels
``poisson.batch_t``/``batch_z``), each subset's blocks are majority-voted
by ``testers._majority``, and the verdict names the first rejecting subset
in ``combinations`` order.  One batched primitive, ``_marginal_counts``,
marginalizes onto every (d+1)-subset at once: on small nets the sampled
per-atom block counts, and the exact mixture joints of the identity test's
q side and the suite's atom-floor check.  It splits the atoms in half: the
low n//2 variables and the high ones each get a small cached one-hot map
onto their own j-subsets, and every (d+1)-subset with j low variables
comes from two contractions, one per half.  ``joint_marginal`` is the
exact one-subset oracle of the projection and telescoping checks.

CPT layout: for node i with sorted parent tuple (p_0 < p_1 < ...), entry
``cpt[i][mask]`` is P(X_i = 1 | parents), where bit j of ``mask`` carries
the value of parent p_j.  Joint atoms are indexed with variable i on bit i.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations

import numpy as np

from .core import LOG_FLOOR, ParameterOutOfRange, check_range, kl_divergence_vectors
from .poisson import batch_t, batch_z
from .testers import (
    DEFAULT_CONFIG,
    Stage,
    TestVerdict,
    ThresholdConfig,
    _majority,
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
            if not ((arr >= 0) & (arr <= 1)).all():  # NaN fails both
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
    """Configuration of the variables ``parent_set`` (the j-th on bit j)
    per row of a (k, n) bit matrix."""
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
        cpt = net.cpts[i]  # factor[mask << 1 | x] = P(X_i = x | parents spell mask)
        factor = np.empty(2 * cpt.size)
        factor[0::2] = 1.0 - cpt
        factor[1::2] = cpt
        cell = (atoms >> i) & 1
        for j, p in enumerate(net.parents[i]):
            cell |= ((atoms >> p) & 1) << (j + 1)
        probs *= factor[cell]
    return probs


def joint_marginal(joint: np.ndarray, subset, n: int) -> np.ndarray:
    """Marginalize a 2^n joint onto sorted ``subset`` (bit j = subset[j]).

    Raises ``ValueError`` when ``joint`` does not have 2^n entries or a
    variable of ``subset`` is out of ``[0, n)`` or repeated.
    """
    if joint.size != 2**n:
        raise ValueError(f"joint has {joint.size} entries, not 2^{n}")
    return np.bincount(_atom_cells(n, tuple(sorted(subset))), joint, minlength=2 ** len(subset))


def _subset_cells(atoms: np.ndarray, subsets: np.ndarray, width: int) -> np.ndarray:
    """Cell of each atom on each row of ``subsets`` (sorted variables, bit j
    = j-th variable), offset by ``s * 2^width`` on row s: a
    ``(len(subsets), atoms.size)`` int64 array."""
    cells = np.empty((len(subsets), atoms.size), dtype=np.int64)
    cells[:] = (np.arange(len(subsets), dtype=np.int64) << width)[:, None]
    for j in range(width):
        # the j-th smallest variable is at least j
        cells |= (atoms >> (subsets[:, j, None] - j)) & (1 << j)
    return cells


def _atom_cells(n: int, subset: tuple) -> np.ndarray:
    """Cell of each of the 2^n atoms on one sorted ``subset`` (read-only);
    ``ValueError`` when a variable is out of ``[0, n)`` or repeated.  Up to
    n = 12 the cells are memoized (at most 512 tables, 16 MB): the exact
    checks of every Bayes-net suite look up the same few hundred tables
    thousands of times."""
    if n <= 12:
        return _memo_atom_cells(n, subset)
    return _build_atom_cells(n, subset)


def _build_atom_cells(n: int, subset: tuple) -> np.ndarray:
    if len(set(subset)) != len(subset) or any(not 0 <= v < n for v in subset):
        raise ValueError(f"subset {subset} must hold distinct variables in [0, {n})")
    atoms = np.arange(2**n, dtype=np.int64)
    cells = _subset_cells(atoms, np.array([subset], dtype=np.int64), len(subset))[0]
    cells.setflags(write=False)
    return cells


_memo_atom_cells = functools.lru_cache(maxsize=512)(_build_atom_cells)


# One chunk of tabulation work: atoms times blocks per bincount in
# _block_atom_counts, and high-half atoms squared times blocks per GEMM
# chunk in _marginal_counts (16 blocks at n = 11 and 12)
_TABLE_CHUNK = 2**16


def _small_sweep(n: int, d: int) -> bool:
    """The one size rule of the in-degree-d sweep over n variables: width
    d + 1 <= 3 and n <= 12.  ``_marginal_counts`` then contracts in block
    chunks and ``experiments._threaded`` runs the trials on trial threads.

    There a chunk of ``_TABLE_CHUNK / 4^(n - n//2)`` blocks holds at least
    16 blocks and keeps every GEMM on the calling thread (on 2 cores twice
    that woke OpenBLAS's worker thread at n = 9 to 14, d = 2), so two
    trials in flight do not fight OpenBLAS's threads.  Serial -> threaded
    suite wall on 2 shared cores (median of 3 fresh runs, 10 trials a
    cell, 5 at n = 12) and peak RSS: n = 9, d = 2 0.54 -> 0.36 s (43 ->
    48 MB); n = 10, d = 2 0.89 -> 0.55 s (44 -> 51 MB); n = 12, d = 1
    0.26 -> 0.22 s, d = 2 0.55 -> 0.36 s (51 -> 63 MB).  Larger sweeps run
    serially: past n = 12 one pass on OpenBLAS's threads is faster (n = 13:
    7 ms a call against 27 ms in 4-block chunks), and at d >= 3 threads
    gained little for much memory (n = 8, d = 3 0.74 -> 0.77 s, 45 -> 51 MB;
    d = 4 1.46 -> 1.44 s, 47 -> 58 MB; n = 10, d = 4 3.04 -> 2.48 s, 83 ->
    138 MB).
    """
    return d + 1 <= 3 and n <= 12


# ---------------------------------------------------------------------------
# Mixture with the uniform distribution
# ---------------------------------------------------------------------------


def bn_mixture_weight(n: int, d: int, eps: float) -> float:
    """Uniform-mixture weight eps^2 / (d n log(n/eps)); the mixture gives
    every (d+1)-marginal atom mass at least weight / 2^(d+1)."""
    check_range("eps", eps)
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


# ---------------------------------------------------------------------------
# Shared-sample projected counts
# ---------------------------------------------------------------------------


# Path switch, not a memory guard: nets with C(n, d+1) 2^{n+d+1} at most
# this count draw per-atom block counts from the exact mixture joint (the
# dense path), larger ones stream samples.  The two paths consume the
# generator differently, so the value fixes each n's random stream.
_PROJECTION_CELL_CAP = 2**26


def _half_map(bits: int, j: int) -> np.ndarray:
    """Read-only one-hot map from the atoms of ``bits`` variables to the
    cells of each of their j-subsets: column ``s * 2^j + c`` is 1 on the
    atoms whose bits on the s-th subset (in ``combinations`` order) spell
    cell c."""
    atoms = np.arange(2**bits, dtype=np.int64)
    subsets = np.array(list(combinations(range(bits), j)), dtype=np.int64)
    out = np.zeros((atoms.size, len(subsets) << j))
    out[atoms, _subset_cells(atoms, subsets, j)] = 1.0
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=1)
def _marginal_plan(n: int, width: int):
    """Split-half plan for marginalizing 2^n atoms onto every
    ``width``-subset, as a tuple of splits ``(j, lo_map, hi_map, sweep)``.

    A subset with j of its variables among the low ``n // 2`` is a j-subset
    of the low half followed by a (width - j)-subset of the high half, so
    its cell is ``c_lo | c_hi << j``.  ``lo_map`` and ``hi_map`` are the two
    halves' maps for that j, and ``sweep`` holds the index in
    ``combinations(range(n), width)`` of each (high, low) subset pair,
    high-major.
    """
    low_bits = n // 2
    index = {sub: s for s, sub in enumerate(combinations(range(n), width))}
    splits = []
    for j in range(max(0, width - (n - low_bits)), min(width, low_bits) + 1):
        sweep = np.array([
            index[lo + hi]
            for hi in combinations(range(low_bits, n), width - j)
            for lo in combinations(range(low_bits), j)
        ])
        sweep.setflags(write=False)
        splits.append((j, _half_map(low_bits, j), _half_map(n - low_bits, width - j), sweep))
    return tuple(splits)


def _marginal_counts(per_atom: np.ndarray, n: int, width: int) -> np.ndarray:
    """Counts[subset, block, cell] of per-block atom counts ``per_atom`` of
    shape ``(2^n, k)`` (any integer or float dtype and strides, as
    ``_block_atom_counts`` returns them), for every ``width``-subset in
    ``combinations`` order.  A probability joint as one column,
    ``joint[:, None]``, gives its exact tables on every subset.

    The atom index is high half times low half, so a C-ordered float64
    copy of a chunk of blocks reshapes to ``(2^(n - n//2), 2^(n//2),
    blocks)``, and each split contracts it with its two half maps, the one
    with fewer columns first.  Counts are integers far below 2^53, so every
    order of summation gives the same floats; a probability joint is summed
    in GEMM order, within about 1e-14 relative of ``joint_marginal``'s.

    Under ``_small_sweep`` a chunk holds ``_TABLE_CHUNK / 4^(n - n//2)``
    blocks (16 at n = 11 and 12), which keeps every GEMM on the calling
    thread; other sizes take one pass on OpenBLAS's threads.  At n = 8
    (127 blocks) the chunk is one pass: 64-block chunks took 0.25-0.32 ms
    a call against 0.57 ms on one thread, but the n = 8 suite, whose
    trials run on two threads, was no faster with them (0.414 against
    0.402 s, median of 24 fresh processes).
    """
    k = per_atom.shape[1]
    step = _TABLE_CHUNK >> 2 * (n - n // 2) if _small_sweep(n, width - 1) else k
    out = np.empty((math.comb(n, width), k, 2**width))
    shape = (2 ** (n - n // 2), 2 ** (n // 2))
    for b in range(0, k, step):
        x = np.ascontiguousarray(per_atom[:, b : b + step], dtype=np.float64)
        kc = x.shape[1]
        x = x.reshape(*shape, kc)
        for j, lo_map, hi_map, sweep in _marginal_plan(n, width):
            if lo_map.shape[1] <= hi_map.shape[1]:
                z = hi_map.T @ (lo_map.T @ x).reshape(x.shape[0], -1)
            else:
                z = lo_map.T @ (hi_map.T @ x.reshape(x.shape[0], -1)).reshape(-1, x.shape[1], kc)
            # z[(s_hi, c_hi), (s_lo, c_lo), b] -> out[(s_hi, s_lo), b, c_lo | c_hi << j]
            n_hi, n_lo = hi_map.shape[1] >> (width - j), lo_map.shape[1] >> j
            z = z.reshape(n_hi, 2 ** (width - j), n_lo, 2**j, kc).transpose(0, 2, 4, 1, 3)
            out[sweep, b : b + kc] = z.reshape(n_hi * n_lo, kc, 2**width)
    return out


def _block_atom_counts(joint: np.ndarray, m: float, k_blocks: int, rng) -> np.ndarray:
    """Independent ``Poi(m/k * joint[a])`` counts of atom a in each of
    ``k_blocks`` blocks, by the rule of ``_blocked_subset_counts``: an
    integer array of shape ``(joint.size, k_blocks)``, which
    ``_marginal_counts`` reads in block chunks.

    Sparse branch: the block labels of all samples come from one
    ``rng.integers`` call and are narrowed to int32; the samples are atom-
    major, so each chunk of ``_TABLE_CHUNK`` atom-block cells is one
    bincount over a contiguous run of labels into an int32 array (a count
    is at most the sample total, below ``k_blocks * 2^n``, which the dense
    path keeps far below 2^31).
    Per-cell branch: the transposed view of the ``(k_blocks, 2^n)`` draw.
    """
    atoms = joint.size
    if m >= k_blocks * atoms:
        return rng.poisson(m / k_blocks * joint, size=(k_blocks, atoms)).T
    totals = rng.poisson(m * joint)
    labels = rng.integers(0, k_blocks, size=int(totals.sum())).astype(np.int32)
    counts = np.empty((atoms, k_blocks), dtype=np.int32)
    step = max(1, _TABLE_CHUNK // k_blocks)
    first = 0  # the chunk's first label
    for a in range(0, atoms, step):
        chunk = totals[a : a + step]
        cells = np.repeat(np.arange(0, chunk.size * k_blocks, k_blocks, dtype=np.int32), chunk)
        cells += labels[first : first + cells.size]
        first += cells.size
        counts[a : a + chunk.size] = np.bincount(cells, minlength=chunk.size * k_blocks).reshape(-1, k_blocks)
    return counts


def _blocked_subset_counts(mix: BnMixtureSampler, m: int, k_blocks: int, width: int, rng):
    """Counts[subset, block, cell] for every ``width``-subset of the
    variables, from one shared Poissonized multiset.

    The multiset of ``Poi(m)`` samples is split uniformly into ``k_blocks``
    majority-vote blocks (Poisson thinning keeps blocks independent).  On
    the dense path (``C(n, width) 2^(n+width)`` at most
    ``_PROJECTION_CELL_CAP``) the per-atom block counts, independent
    ``Poi(m/k * p_atom)``, come from the exact mixture joint by whichever
    draw needs fewer variates:

    - ``m < k_blocks * 2^n`` (sparse): each atom's total ``Poi(m * p_atom)``,
      then a uniform block label for each of the about m samples, as the
      streaming path labels its samples; by Poisson splitting this is the
      per-cell law, and the label array is no larger than the per-block
      array, so memory does not grow with m;
    - otherwise (per cell): one ``Poi(m/k * p_atom)`` per block and atom.

    Either way the counts are marginalized onto every subset by
    ``_marginal_counts``, two half-width contractions per split of the
    subset between the low and high variables.  Above the cap, samples are
    streamed and each subset is bincounted.  Subsets run in
    ``combinations(range(n), width)`` order.  Returns ``(float64 array of
    shape (C(n, width), k_blocks, 2^width), total samples drawn)``.
    """
    n = mix.n
    ncells = 2**width
    subsets = list(combinations(range(n), width))
    if n <= EXACT_GUARD and len(subsets) * 2 ** (n + width) <= _PROJECTION_CELL_CAP:
        counts = _marginal_counts(_block_atom_counts(mix.exact_joint(), m, k_blocks, rng), n, width)
        return counts, int(counts[0].sum())  # each subset's cells hold every sample
    realized = int(rng.poisson(m))
    bits = mix.sample(realized)
    offsets = rng.integers(0, k_blocks, size=realized) * ncells
    counts = np.empty((len(subsets), k_blocks, ncells))
    for s, sub in enumerate(subsets):
        flat = np.bincount(offsets + _parent_masks(bits, sub), minlength=k_blocks * ncells)
        counts[s] = flat.reshape(k_blocks, ncells)
    return counts, realized


def bn_budget(n: int, d: int, eps: float) -> int:
    """Shared multiset size: a quarter of the asymptotic budget formula."""
    log_r = math.log(max(n / eps, LOG_FLOOR))
    lead = min(2 ** (0.75 * d) * n / eps**2, 2 ** (2 * d / 3.0) * n ** (4.0 / 3.0) / eps ** (8.0 / 3.0))
    tail = d**3 * n**2 * log_r**2 / eps**4
    return math.ceil(0.25 * (lead + tail))


def _local_noise_floor(s_block: float) -> float:
    # entropy-scale statistical resolution of one block
    return math.log(max(s_block, 3.0)) * math.sqrt(8.0 / max(s_block, 1.0))


def _miller_madow(x: np.ndarray, empty) -> np.ndarray:
    """Miller-Madow entropy of each count row of ``x`` (last axis = cells);
    rows with no counts get ``empty`` (broadcast against the row shape).

    Rows with every cell seen (almost all of them) are summed whole; the
    partly seen ones, grouped by their number of seen cells, are summed
    over those cells alone.  Either way every plug-in sum adds the same
    terms in the same order as a loop over single rows would.
    """
    totals = x.sum(axis=-1)
    seen = x > 0
    observed = seen.sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = x / totals[..., None]
        terms *= np.log(terms, out=np.zeros(terms.shape), where=seen)
        plugin = -terms.sum(axis=-1)
        # the partly seen counts, in increasing order
        for c in np.flatnonzero(np.bincount(observed.ravel(), minlength=x.shape[-1] + 1)[1:-1]) + 1:
            rows = observed == c
            plugin[rows] = -terms[rows][seen[rows]].reshape(-1, c).sum(axis=-1)
        return np.where(totals > 0, plugin + (observed - 1) / (2.0 * totals), empty)


def _sweep_setup(n: int, d: int, eps: float, budget, dims, what: str):
    """Check a sweep's inputs (``dims`` must equal n), then size it:
    ``(subsets, m, k_blocks, m_block, weight, eps1)`` for a shared multiset
    of ``m = budget(n, d, eps)`` samples in k_blocks blocks."""
    check_range("eps", eps)
    if not 1 <= d <= n - 1:
        raise ParameterOutOfRange(f"need 1 <= d <= n-1, got d={d}")
    if any(k != n for k in dims):
        raise ParameterOutOfRange(f"{what} dimension does not match n")
    subsets = list(combinations(range(n), d + 1))
    # per-subset failure probability 1/(20 C(n, d+1)), by majority over blocks
    k_blocks = amplification_reps(1.0 / (20.0 * len(subsets)))
    m = budget(n, d, eps)
    m_block = m / k_blocks
    eps1 = max(eps**2 / n, _local_noise_floor(m_block))
    return subsets, m, k_blocks, m_block, bn_mixture_weight(n, d, eps), eps1


def _sweep_verdict(prefix: str, tests, subsets, trace) -> TestVerdict:
    """Reject at the first subset in sweep order where one of ``tests``
    (``(kind, votes, per-block statistic, threshold)``, in priority order)
    votes to reject, recording the statistic's median over the blocks (an
    odd count, so the middle one, as ``np.median`` gives it without its
    ``numpy.ma`` import); otherwise accept after the whole sweep."""
    fired = np.flatnonzero(np.logical_or.reduce([votes for _, votes, _, _ in tests]))
    if fired.size:
        s = int(fired[0])
        kind, _, stat, tau = next(test for test in tests if test[1][s])
        stage = f"{prefix}-{kind}:{','.join(map(str, subsets[s]))}"
        mid = stat.shape[1] // 2
        trace.append(Stage(stage, float(np.partition(stat[s], mid)[mid]), tau))
        return TestVerdict("reject", stage, trace)
    trace.append(Stage(f"{prefix}-sweep", float(len(subsets)), 0.0))
    return TestVerdict("accept", None, trace)


def bn_closeness_test(
    sp: BnSampler,
    sq: BnSampler,
    n: int,
    d: int,
    eps: float,
    cfg: ThresholdConfig = DEFAULT_CONFIG,
    rng=None,
) -> TestVerdict:
    """Closeness test for two unknown in-degree-d nets over {0,1}^n.

    One shared multiset of samples per stream feeds, for every subset T of
    d+1 variables, a local entropy-difference test and a local Hellinger
    test on the projected counts of the uniform mixtures; any local
    rejection rejects the pair.  Per-subset failure probability is
    1/(20 C(n, d+1)), met by majority vote over sample blocks.
    """
    subsets, m, k_blocks, m_block, weight, eps1 = _sweep_setup(
        n, d, eps, bn_budget, (sp.n, sq.n), "sampler"
    )
    rng = np.random.default_rng(rng)
    mix_p = BnMixtureSampler(sp, weight, rng.integers(0, 2**63 - 1))
    mix_q = BnMixtureSampler(sq, weight, rng.integers(0, 2**63 - 1))
    counts_p, used_p = _blocked_subset_counts(mix_p, m, k_blocks, d + 1, rng)
    counts_q, used_q = _blocked_subset_counts(mix_q, m, k_blocks, d + 1, rng)

    t_floor = math.sqrt(min(2 ** (d + 1), m_block) + 1.0)
    tau_eet = cfg.c_T_threshold * t_floor
    tau_hell = cfg.c_hellinger_reject * t_floor
    tau_z = cfg.c_Z_threshold * eps1
    trace = [
        Stage("bn-shared-m", float(m), float(k_blocks), used_p + used_q),
        Stage("bn-eps1", eps1, eps**2 / n),
    ]
    # (subset, block) statistics in one pass; the EET vote outranks the
    # Hellinger one at the same subset
    t_blocks = batch_t(counts_p, counts_q)
    z_blocks = np.abs(batch_z(counts_p, counts_q, m_block))
    eet_votes = _majority((t_blocks > tau_eet) | (z_blocks > tau_z))
    hell_votes = _majority(t_blocks > tau_hell)
    tests = [("eet", eet_votes, t_blocks, tau_eet), ("hellinger", hell_votes, t_blocks, tau_hell)]
    return _sweep_verdict("bn", tests, subsets, trace)


def bn_identity_budget(n: int, d: int, eps: float) -> int:
    log_r = math.log(max(n / eps, LOG_FLOOR))
    return math.ceil(2 ** (d / 2.0) * n / eps**2 + n**2 * log_r**2 / eps**4)


def bn_identity_test(
    sp: BnSampler,
    q_known: BayesNet,
    n: int,
    d: int,
    eps: float,
    cfg: ThresholdConfig = DEFAULT_CONFIG,
    rng=None,
) -> TestVerdict:
    """Identity variant: the q side of every local statistic is computed
    exactly from the known net's mixture marginals.

    Per subset, a chi-square-style statistic against the exact local table
    (the Hellinger side) and a Miller-Madow entropy gap against the exact
    local entropy (the entropy side); majority over blocks as above.
    """
    subsets, m, k_blocks, m_block, weight, eps1 = _sweep_setup(
        n, d, eps, bn_identity_budget, (q_known.n, sp.n), "net"
    )
    if n > EXACT_GUARD:
        raise TooLargeForExact("identity test needs exact q marginals")
    rng = np.random.default_rng(rng)
    mix_p = BnMixtureSampler(sp, weight, rng.integers(0, 2**63 - 1))
    x, samples = _blocked_subset_counts(mix_p, m, k_blocks, d + 1, rng)
    q_joint = (1.0 - weight) * bn_exact_joint(q_known) + weight / 2**n

    tau_chi = cfg.c_T_threshold * math.sqrt(2 ** (d + 1) + 1.0)
    tau_ent = cfg.c_Z_threshold * eps1
    trace = [
        Stage("bn-id-shared-m", float(m), float(k_blocks), samples),
        Stage("bn-id-eps1", eps1, eps**2 / n),
    ]
    q_tables = _marginal_counts(q_joint[:, None], n, d + 1)  # (subset, 1, cell)
    # core.entropy of each table as one row sum: the uniform mixture makes
    # every entry positive, so the same terms add in the same order
    h_q = -(q_tables * np.log(q_tables)).sum(axis=-1)
    lam = m_block * q_tables
    chi = x - lam
    chi *= chi
    chi -= x
    chi /= lam
    chi_blocks = chi.sum(axis=-1)
    # an empty block gets h_q and so never votes to reject
    gap_blocks = np.abs(_miller_madow(x, h_q) - h_q)
    tests = [
        ("entropy", _majority(gap_blocks > tau_ent), gap_blocks, tau_ent),
        ("chi", _majority(chi_blocks > tau_chi), chi_blocks, tau_chi),
    ]
    return _sweep_verdict("bn-id", tests, subsets, trace)


# ---------------------------------------------------------------------------
# Exact projection / KL oracles
# ---------------------------------------------------------------------------


def _as_joint(p) -> tuple[np.ndarray, int]:
    if isinstance(p, BayesNet):
        return bn_exact_joint(p), p.n
    joint = np.asarray(p, dtype=np.float64)
    n = int(round(math.log2(joint.size)))
    if 2**n != joint.size:
        raise ValueError("joint vector length must be a power of two")
    if n > EXACT_GUARD:
        raise TooLargeForExact(f"exact mode needs n <= {EXACT_GUARD}")
    return joint, n


def _families(structure, n: int) -> list:
    """Each node's ``(parents, family)``, sorted, from a BayesNet or a
    parent-set list of n nodes; a node's family is it and its parents."""
    parents = structure.parents if isinstance(structure, BayesNet) else [tuple(sorted(ps)) for ps in structure]
    if len(parents) != n:
        raise ValueError("structure size does not match the distribution")
    return [(pa, tuple(sorted(set(pa) | {i}))) for i, pa in enumerate(parents)]


def projection_joint(p, structure) -> np.ndarray:
    """Project a distribution onto a DAG: the product of p's conditionals
    along the DAG's parent sets.  ``structure`` is a parent-set list or a
    BayesNet whose structure is borrowed."""
    joint, n = _as_joint(p)
    out = np.ones(2**n)
    for pa, fam in _families(structure, n):
        num = joint_marginal(joint, fam, n)[_atom_cells(n, fam)]
        den = joint_marginal(joint, pa, n)[_atom_cells(n, pa)]
        # parent configs never seen under p: any valid conditional works,
        # and p-null atoms never enter the KL sum
        cond = np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.5)
        out *= cond
    return out


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
    lhs = 0.0
    for pa, fam in _families(structure, n):
        lhs += kl_divergence_vectors(joint_marginal(p_joint, fam, n), joint_marginal(q_joint, fam, n))
        lhs -= kl_divergence_vectors(joint_marginal(p_joint, pa, n), joint_marginal(q_joint, pa, n))
    rhs = kl_divergence_vectors(p_joint, projection_joint(p_joint, structure)) * -1.0
    rhs += kl_divergence_vectors(p_joint, projection_joint(q_joint, structure))
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


_MAX_FLIPS = 8  # CPT entries make_far_net_pair flips at most
_MAX_TRIES = 200  # random nets it tries


def far_pair_reach(n: int) -> float:
    """The largest joint TV :func:`make_far_net_pair` can certify on n nodes.

    Its two nets differ in at most ``_MAX_FLIPS`` flipped CPT entries, and
    a flip moves an entry by at most 0.88 (entries lie in [0.1, 0.9] and
    flip to 0.02 or 0.98).  Sampling both nets node by node, with each
    flipped node's two coins maximally coupled, the samples agree with
    probability at least 0.12 per flipped node, so TV <= 1 - 0.12^min(8, n).
    """
    return 1.0 - 0.12 ** min(_MAX_FLIPS, n)


def make_far_net_pair(n: int, d: int, min_tv: float, rng):
    """A random net and a perturbation with certified joint TV >= min_tv,
    from at most ``_MAX_TRIES`` random nets."""
    rng = np.random.default_rng(rng)
    for _ in range(_MAX_TRIES):
        base = random_bayesnet(n, d, rng)
        base_joint = bn_exact_joint(base)
        far = perturb_one_cpt(base, rng)
        for _ in range(_MAX_FLIPS):  # pile on flips until the promise certifies
            tv = 0.5 * float(np.abs(base_joint - bn_exact_joint(far)).sum())
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
