"""Bounded in-degree Bayesian networks over {0,1}^n.

Representation with per-node conditional probability tables, ancestral
sampling, exact joint/marginal computation on small nets, the
subset-sweep closeness tester (one local vote over every (d+1)-subset,
fed by one shared sample multiset: T, the statistic of the cascade's
Hellinger screen, or the local entropy difference Z), its identity-test
variant against a fully known net, and the exact KL-to-projection oracle
used by the verification suites.

The sweep draws its majority-vote blocks in groups: (k+1)/2 blocks, then
``_SETTLE_GROUP`` at a time.  Each group gives each stream's per-atom
block counts (or, past the dense path, its streamed per-subset counts),
and the local statistics are computed for all subsets at once, one chunk
of blocks at a time (T and Z by the shared batched kernels
``poisson.batch_t``/``batch_z``).  After each group ``_settle`` checks
whether the blocks still to come could change a vote that matters; once
none can, the sweep stops, with the verdict a majority over all k blocks
(``testers._majority``) would give: the first rejecting subset in
``combinations`` order, or accept.  One batched primitive, ``_marginal_counts``,
marginalizes onto every (d+1)-subset at once: on small nets each chunk of
sampled per-atom block counts, and the exact mixture joints of the
identity test's q side and the suite's atom-floor check.  It splits the
atoms in half: the low n//2 variables and the high ones each get a small
cached one-hot map onto their own j-subsets, and every (d+1)-subset with
j low variables comes from two contractions, one per half.
``joint_marginal`` is the exact one-subset oracle of the projection and
telescoping checks: a sum over the joint's ``(2,)*n`` view.

CPT layout: for node i with sorted parent tuple (p_0 < p_1 < ...), entry
``cpt[i][mask]`` is P(X_i = 1 | parents), where bit j of ``mask`` carries
the value of parent p_j.  Joint atoms are indexed with variable i on bit i.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations

import numpy as np

from .core import ParameterOutOfRange, _parse_field, check_range, kl_divergence_vectors, log_ratio
from .poisson import batch_t, batch_z
from .testers import (
    DEFAULT_CONFIG,
    Stage,
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
    return _view_marginal(joint.reshape((2,) * n), subset).ravel()


def _view_marginal(view: np.ndarray, subset, keepdims: bool = False) -> np.ndarray:
    """Sum the ``(2,)*n`` view of a joint, variable i on axis n-1-i, over
    the variables outside ``subset``; ``keepdims`` keeps their axes, so the
    marginal broadcasts against the view."""
    n = view.ndim
    if len(set(subset)) != len(subset) or any(not 0 <= v < n for v in subset):
        raise ValueError(f"subset {tuple(subset)} must hold distinct variables in [0, {n})")
    return view.sum(axis=tuple(n - 1 - i for i in range(n) if i not in subset), keepdims=keepdims)


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


# One chunk of tabulation work: atom-block cells per bincount or Poisson
# draw in _block_atom_counts, and per chunk of the sweep's scoring,
# high-half atoms squared (or subset cells) times blocks
_TABLE_CHUNK = 2**16


def _block_step(n: int, width: int) -> int:
    """Blocks per chunk of the sweep's scoring: at most ``_TABLE_CHUNK``
    high-half atoms squared times blocks, and as many subset cells times
    blocks, so that a chunk's float64 tables and GEMM temporaries stay
    near ``_TABLE_CHUNK`` entries whatever m is: 16 blocks at n = 11 and
    12, d = 2.  Chunks 16 times as large saved up to 0.13 s of a 0.25-0.41 s
    call at n = 12, d = 4 and n = 16, d = 2, and cost 10-32 MB more peak RSS.

    The sweep scores one draw group at a time (``_group_sizes``), and the
    largest group is (k+1)/2 blocks: 64 at n = 8, d = 2, where this bound
    allows 146, so no chunk there holds more than 64 blocks (scoring all
    127 in one pass took 0.50-0.55 ms a call against 0.30-0.46 ms in
    chunks of 64, from page faults on its ~260 KB temporaries).
    """
    return max(1, _TABLE_CHUNK // max(4 ** (n - n // 2), math.comb(n, width) << width))


# ---------------------------------------------------------------------------
# Mixture with the uniform distribution
# ---------------------------------------------------------------------------


def bn_mixture_weight(n: int, d: int, eps: float) -> float:
    """Uniform-mixture weight eps^2 / (d n log(n/eps)); the mixture gives
    every (d+1)-marginal atom mass at least weight / 2^(d+1)."""
    check_range("eps", eps)
    if d < 1:
        raise ParameterOutOfRange("in-degree bound must be >= 1")
    return eps**2 / (d * n * log_ratio(n, eps))


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


# Path switch: nets whose per-atom block counts, 2^n k entries, number at
# most this many draw them from the exact mixture joint (the dense path);
# larger ones stream samples.  It keeps d = 2 dense up to n = 16 (k = 169),
# and a dense net has n <= 24 = EXACT_GUARD.  The two paths consume the
# generator differently, so the value fixes each size's random stream.
_DENSE_ATOM_CELLS = 2**24


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
    shape ``(2^n, k)`` (any integer or float dtype and strides), for every
    ``width``-subset in ``combinations`` order.  A probability joint as one
    column, ``joint[:, None]``, gives its exact tables on every subset.

    The atom index is high half times low half, so a C-ordered float64
    copy of the blocks reshapes to ``(2^(n - n//2), 2^(n//2), k)``, and
    each split contracts it with its two half maps, the one with fewer
    columns first.  Counts are integers far below 2^53, so every order of
    summation, and every split of the blocks into chunks, gives the same
    floats; a probability joint is summed in GEMM order, within about
    1e-14 relative of ``joint_marginal``'s.
    """
    k = per_atom.shape[1]
    out = np.empty((math.comb(n, width), k, 2**width))
    x = np.ascontiguousarray(per_atom, dtype=np.float64).reshape(2 ** (n - n // 2), 2 ** (n // 2), k)
    for j, lo_map, hi_map, sweep in _marginal_plan(n, width):
        if lo_map.shape[1] <= hi_map.shape[1]:
            z = hi_map.T @ (lo_map.T @ x).reshape(x.shape[0], -1)
        else:
            z = lo_map.T @ (hi_map.T @ x.reshape(x.shape[0], -1)).reshape(-1, x.shape[1], k)
        # z[(s_hi, c_hi), (s_lo, c_lo), b] -> out[(s_hi, s_lo), b, c_lo | c_hi << j]
        n_hi, n_lo = hi_map.shape[1] >> (width - j), lo_map.shape[1] >> j
        z = z.reshape(n_hi, 2 ** (width - j), n_lo, 2**j, k).transpose(0, 2, 4, 1, 3)
        out[sweep] = z.reshape(n_hi * n_lo, k, 2**width)
    return out


def _block_atom_counts(joint: np.ndarray, m: float, k_blocks: int, blocks: int, rng) -> np.ndarray:
    """Independent ``Poi(m/k * joint[a])`` counts of atom a in each of
    ``blocks`` of the ``k_blocks`` blocks of a ``Poi(m)`` multiset, by the
    rule of ``_blocked_subset_counts``: an array of shape ``(joint.size,
    blocks)``, the transposed view of block-major counts.  The counts are
    int32 (int64 when a block's rate m/k passes 2^30), or uint16 on the
    sparse branch when every atom's total is below 2^16, since a count is
    at most its atom's total.

    Both branches draw a chunk of about ``_TABLE_CHUNK`` atom-block cells
    at a time, and the chunked calls give the stream of one call.  Sparse
    branch: each atom's total ``Poi(m * blocks/k * joint[a])``, then the
    block labels of a chunk of atoms' samples (atom-major, so one
    contiguous run of the label stream), bincounted.  Per-cell branch:
    ``rng.poisson(m/k * joint, size=(blocks, 2^n))``, a group of rows at a
    time.
    """
    atoms = joint.size
    wide = np.int32 if m / k_blocks <= 2**30 else np.int64
    if m >= k_blocks * atoms:
        counts = np.empty((blocks, atoms), dtype=wide)
        rate = m / k_blocks * joint
        rows = max(1, _TABLE_CHUNK // atoms)
        for b in range(0, blocks, rows):
            counts[b : b + rows] = rng.poisson(rate, size=(min(rows, blocks - b), atoms))
        return counts.T
    totals = rng.poisson(m * blocks / k_blocks * joint)
    counts = np.empty((blocks, atoms), dtype=np.uint16 if totals.max() < 2**16 else wide)
    step = max(1, _TABLE_CHUNK // blocks)
    for a in range(0, atoms, step):
        chunk = totals[a : a + step]
        cells = rng.integers(0, blocks, size=int(chunk.sum()), dtype=np.int32)
        cells *= chunk.size  # label b of the chunk's atom i is cell b * size + i
        cells += np.repeat(np.arange(chunk.size, dtype=np.int32), chunk)
        counts[:, a : a + chunk.size] = np.bincount(cells, minlength=chunk.size * blocks).reshape(blocks, -1)
    return counts.T


def _blocked_subset_counts(mix: BnMixtureSampler, m: int, k_blocks: int, blocks: int, width: int, rng):
    """Counts of ``blocks`` of the ``k_blocks`` blocks of one shared
    Poissonized multiset, for every ``width``-subset of the variables.

    The multiset of ``Poi(m)`` samples is split uniformly into ``k_blocks``
    majority-vote blocks (Poisson thinning keeps blocks independent), so
    the ``blocks`` drawn here hold ``Poi(m * blocks/k)`` samples, and a
    later call draws the next blocks independently.  On the dense path
    (``2^n k_blocks`` per-atom counts at most ``_DENSE_ATOM_CELLS``, so n
    is within ``EXACT_GUARD``) the per-atom block counts, independent
    ``Poi(m/k * p_atom)``, come from the exact mixture joint by whichever
    draw needs fewer variates:

    - ``m < k_blocks * 2^n`` (sparse): each atom's total
      ``Poi(m * blocks/k * p_atom)``, then a uniform label among the
      ``blocks`` for each sample, as the streaming path labels its
      samples; by Poisson splitting this is the per-cell law, and the
      labels are drawn and tabulated a chunk of atoms at a time, so memory
      does not grow with m;
    - otherwise (per cell): one ``Poi(m/k * p_atom)`` per block and atom.

    The dense path returns those per-atom counts, of shape ``(2^n,
    blocks)``; ``_block_tables`` marginalizes them onto every subset a
    chunk of blocks at a time.  Past the limit, ``Poi(m * blocks/k)``
    samples are streamed, each with a uniform label among the ``blocks``,
    and each subset is bincounted into float64 tables of shape ``(C(n,
    width), blocks, 2^width)``.  Subsets run in ``combinations(range(n),
    width)`` order.  Returns ``(counts, samples drawn)``.
    """
    n = mix.n
    if 2**n * k_blocks <= _DENSE_ATOM_CELLS:
        counts = _block_atom_counts(mix.exact_joint(), m, k_blocks, blocks, rng)
        return counts, int(counts.sum())
    ncells = 2**width
    realized = int(rng.poisson(m * blocks / k_blocks))
    bits = mix.sample(realized)
    offsets = rng.integers(0, blocks, size=realized) * ncells
    counts = np.empty((math.comb(n, width), blocks, ncells))
    for s, sub in enumerate(combinations(range(n), width)):
        flat = np.bincount(offsets + _parent_masks(bits, sub), minlength=blocks * ncells)
        counts[s] = flat.reshape(blocks, ncells)
    return counts, realized


def _block_tables(counts: np.ndarray, n: int, width: int, blocks: slice) -> np.ndarray:
    """Float64 counts[subset, block, cell] of the blocks in ``blocks``, from
    either form ``_blocked_subset_counts`` returns."""
    if counts.ndim == 3:
        return counts[:, blocks]
    return _marginal_counts(counts[:, blocks], n, width)


def _sweep_scores(score, counts, n: int, width: int, k_blocks: int) -> list:
    """The two (subset, block) statistics ``score`` returns on the tables
    of the streams in ``counts`` (``k_blocks`` blocks each), one chunk of
    ``_block_step(n, width)`` blocks at a time.  Each statistic is a sum
    over one (subset, block) row, so the chunks give the floats of one
    pass."""
    step = _block_step(n, width)
    out = [np.empty((math.comb(n, width), k_blocks)) for _ in range(2)]
    for b in range(0, k_blocks, step):
        blocks = slice(b, b + step)
        for whole, part in zip(out, score(*(_block_tables(c, n, width, blocks) for c in counts))):
            whole[:, blocks] = part
    return out


_SETTLE_GROUP = 8  # blocks per group of the sweep's draws after the first (k+1)/2


def _group_sizes(k_blocks: int):
    """The sweep's draw schedule over k_blocks blocks: (k+1)/2 blocks, the
    fewest after which a vote can be settled, then groups of
    ``_SETTLE_GROUP`` (the last one shorter) up to k."""
    first = (k_blocks + 1) // 2
    yield first
    for start in range(first, k_blocks, _SETTLE_GROUP):
        yield min(_SETTLE_GROUP, k_blocks - start)


def _settle(groups, k_blocks: int):
    """The verdict of majority votes over ``k_blocks`` (odd) blocks, read
    as soon as the blocks drawn so far fix it.

    ``groups`` yields boolean reject votes of shape ``(subsets, g, kinds)``,
    g blocks at a time, subsets in sweep order and kinds in priority
    order.  With r of the g blocks drawn so far rejecting, a vote is
    settled reject when 2r > k and settled accept when 2(r + k - g) < k,
    whatever the blocks still to come say.  The verdict is settled when
    every vote is settled accept, or when, at the first subset with a
    settled-reject vote, that subset's first such vote and every vote
    ranked before it (at that subset or an earlier one) are settled.
    ``groups`` is read no further than the first group after which the
    verdict is settled, and reading all k blocks settles every vote.

    Returns ``(fired, drawn)``: the (subset, kind) whose vote rejects, or
    None for accept, exactly as ``testers._majority`` over all k blocks
    would give, and the number of blocks drawn.
    """
    rejects, drawn = 0, 0
    for votes in groups:
        rejects = rejects + np.count_nonzero(votes, axis=1)
        drawn += votes.shape[1]
        accept = 2 * (rejects + k_blocks - drawn) < k_blocks
        hits = np.argwhere(2 * rejects > k_blocks)  # in sweep order, then priority order
        if hits.size:
            s, kind = map(int, hits[0])
            if accept[:s].all() and accept[s, :kind].all():
                return (s, kind), drawn
        elif accept.all():
            return None, drawn
    raise ValueError(f"{drawn} blocks drawn of {k_blocks}, and the votes are not settled")


def bn_budget(n: int, d: int, eps: float) -> int:
    """Shared multiset size m: a quarter of the asymptotic budget formula.

    m is the nominal multiset of each stream.  The sweep stops drawing
    blocks once its votes are settled, so a closeness call draws about 55%
    of 2m at the suite's cells (n = 8 and 12, d = 2, eps = 0.3)."""
    log_r = log_ratio(n, eps)
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


def _sweep_blocks(n: int, d: int) -> int:
    """The sweep's block count: per-subset failure probability
    1/(20 C(n, d+1)), by majority over blocks."""
    return amplification_reps(1.0 / (20.0 * math.comb(n, d + 1)))


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
    k_blocks = _sweep_blocks(n, d)
    m = budget(n, d, eps)
    m_block = m / k_blocks
    eps1 = max(eps**2 / n, _local_noise_floor(m_block))
    return subsets, m, k_blocks, m_block, bn_mixture_weight(n, d, eps), eps1


def _sweep_verdict(prefix: str, mixes, rng, score, tests, subsets, m: int, k_blocks: int, trace) -> TestVerdict:
    """Draw and score the sweep's blocks a group at a time (see
    ``_group_sizes``) until ``_settle`` reads the verdict.

    Each group draws each of the ``mixes`` streams' next blocks of the
    shared multiset in turn from ``rng``; ``score`` turns a chunk of their
    tables into two (subset, block) statistics, and each of ``tests``,
    ``(kind, rule, record, threshold)`` in priority order, votes with
    ``rule(*statistics)`` per block.  A reject names the first rejecting
    subset in sweep order and records the middle value over its g drawn
    blocks (``np.partition`` at g // 2, without ``np.median``'s ``numpy.ma``
    import) of ``record(*statistics)``, which passes ``threshold`` where
    ``rule`` votes; more than half of those blocks voted, so the record
    reads above its threshold.  An accept records the sweep.  ``trace``'s
    first record notes the shared multiset and gets the samples drawn.
    """
    n, width = mixes[0].n, len(subsets[0])
    drawn = []  # each group's statistics and samples

    def groups():
        for g in _group_sizes(k_blocks):
            counts = [_blocked_subset_counts(mix, m, k_blocks, g, width, rng) for mix in mixes]
            stats = _sweep_scores(score, [c for c, _ in counts], n, width, g)
            drawn.append((stats, sum(samples for _, samples in counts)))
            yield np.stack([rule(*stats) for _, rule, _, _ in tests], axis=-1)

    fired, blocks = _settle(groups(), k_blocks)
    trace[0] = trace[0]._replace(samples=sum(samples for _, samples in drawn))
    if fired is None:
        trace.append(Stage(f"{prefix}-sweep", float(len(subsets)), 0.0))
        return TestVerdict("accept", None, trace)
    s, i = fired
    kind, _, record, tau = tests[i]
    stage = f"{prefix}-{kind}:{','.join(map(str, subsets[s]))}"
    stat = np.concatenate([record(*(x[s] for x in stats)) for stats, _ in drawn])
    trace.append(Stage(stage, float(np.partition(stat, blocks // 2)[blocks // 2]), tau))
    return TestVerdict("reject", stage, trace)


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

    One shared multiset of samples per stream feeds, for every subset of
    d+1 variables, one local vote on each block's projected counts of the
    uniform mixtures: reject when T (``batch_t``, the statistic of the
    cascade's Hellinger screen) passes ``c_T_threshold`` times its noise
    floor, or the local entropy difference |Z| passes ``c_Z_threshold``
    times eps1.  Any local rejection rejects the pair, recorded as
    ``bn-eet`` with max(T / its threshold, |Z| / its threshold) against 1.
    Per-subset failure probability is 1/(20 C(n, d+1)), met by majority
    vote over k sample blocks.

    The blocks are drawn and scored in groups, p's group and then q's,
    and the sweep stops once the blocks drawn fix every vote the verdict
    depends on (``_settle``): the verdict is the one all k blocks would
    give on the same blocks, and ``samples_used`` counts only the drawn
    blocks' samples, about 55% of the nominal 2m at the suite's cells.
    """
    subsets, m, k_blocks, m_block, weight, eps1 = _sweep_setup(
        n, d, eps, bn_budget, (sp.n, sq.n), "sampler"
    )
    rng = np.random.default_rng(rng)
    mixes = [BnMixtureSampler(s, weight, rng.integers(0, 2**63 - 1)) for s in (sp, sq)]

    t_floor = math.sqrt(min(2 ** (d + 1), m_block) + 1.0)
    tau_eet = cfg.c_T_threshold * t_floor
    tau_z = cfg.c_Z_threshold * eps1
    trace = [Stage("bn-shared-m", float(m), float(k_blocks)), Stage("bn-eps1", eps1, eps**2 / n)]
    tests = [("eet", lambda t, z: (t > tau_eet) | (z > tau_z),
              lambda t, z: np.maximum(t / tau_eet, z / tau_z), 1.0)]
    return _sweep_verdict(
        "bn", mixes, rng, lambda x, y: (batch_t(x, y), np.abs(batch_z(x, y, m_block))), tests,
        subsets, m, k_blocks, trace,
    )


def bn_identity_budget(n: int, d: int, eps: float) -> int:
    log_r = log_ratio(n, eps)
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
    local entropy (the entropy side); majority over blocks, drawn in groups
    until the votes are settled, as above.
    """
    subsets, m, k_blocks, m_block, weight, eps1 = _sweep_setup(
        n, d, eps, bn_identity_budget, (q_known.n, sp.n), "net"
    )
    if n > EXACT_GUARD:
        raise TooLargeForExact("identity test needs exact q marginals")
    rng = np.random.default_rng(rng)
    mix_p = BnMixtureSampler(sp, weight, rng.integers(0, 2**63 - 1))
    q_joint = (1.0 - weight) * bn_exact_joint(q_known) + weight / 2**n

    tau_chi = cfg.c_T_threshold * math.sqrt(2 ** (d + 1) + 1.0)
    tau_ent = cfg.c_Z_threshold * eps1
    trace = [Stage("bn-id-shared-m", float(m), float(k_blocks)), Stage("bn-id-eps1", eps1, eps**2 / n)]
    q_tables = _marginal_counts(q_joint[:, None], n, d + 1)  # (subset, 1, cell)
    # core.entropy of each table as one row sum: the uniform mixture makes
    # every entry positive, so the same terms add in the same order
    h_q = -(q_tables * np.log(q_tables)).sum(axis=-1)
    lam = m_block * q_tables

    def score(x):
        chi = x - lam
        chi *= chi
        chi -= x
        chi /= lam
        # an empty block gets h_q and so never votes to reject
        return np.abs(_miller_madow(x, h_q) - h_q), chi.sum(axis=-1)

    tests = [
        ("entropy", lambda gap, chi: gap > tau_ent, lambda gap, chi: gap, tau_ent),
        ("chi", lambda gap, chi: chi > tau_chi, lambda gap, chi: chi, tau_chi),
    ]
    return _sweep_verdict("bn-id", [mix_p], rng, score, tests, subsets, m, k_blocks, trace)


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
    view = joint.reshape((2,) * n)
    out = np.ones(view.shape)
    for pa, fam in _families(structure, n):
        num = _view_marginal(view, fam, keepdims=True)
        den = _view_marginal(view, pa, keepdims=True)
        # parent configs never seen under p: any valid conditional works,
        # and p-null atoms never enter the KL sum
        out *= np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.5)
    return out.ravel()


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


_CPT_RANGE = (0.1, 0.9)  # random_bayesnet's CPT entries lie in this range
_FLIP_TO = (0.02, 0.98)  # perturb_one_cpt's flipped entries


def random_bayesnet(n: int, d: int, rng) -> BayesNet:
    """Random DAG (random topological order, up to d parents each) with
    CPT entries uniform in ``_CPT_RANGE``."""
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
    cpts = [rng.uniform(*_CPT_RANGE, size=2 ** len(ps)) for ps in parents]
    return BayesNet(n, parents, cpts)


def perturb_one_cpt(net: BayesNet, rng) -> BayesNet:
    """Flip one CPT entry toward its far extreme (same structure)."""
    rng = np.random.default_rng(rng)
    node = int(rng.integers(0, net.n))
    cpts = [c.copy() for c in net.cpts]
    row = int(rng.integers(0, cpts[node].size))
    cpts[node][row] = _FLIP_TO[1] if cpts[node][row] < 0.5 else _FLIP_TO[0]
    return BayesNet(net.n, net.parents, cpts)


_MAX_FLIPS = 8  # CPT entries make_far_net_pair flips at most
_MAX_TRIES = 200  # random nets it tries


def far_pair_reach(n: int) -> float:
    """The largest joint TV :func:`make_far_net_pair` can certify on n nodes.

    Its two nets differ in at most ``_MAX_FLIPS`` flipped CPT entries, and
    a flip moves an entry from ``_CPT_RANGE`` to ``_FLIP_TO`` by at most
    0.88.  Sampling both nets node by node, with each flipped node's two
    coins maximally coupled, the samples agree with probability at least
    1 - 0.88 = 0.12 per flipped node, so TV <= 1 - 0.12^min(8, n).
    """
    (low, high), (flip_low, flip_high) = _CPT_RANGE, _FLIP_TO
    agree = 1.0 - max(flip_high - low, high - flip_low)
    return 1.0 - agree ** min(_MAX_FLIPS, n)


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


# core's bad-number parser, raising BayesNetError
_parse_field = functools.partial(_parse_field, error=BayesNetError)


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
