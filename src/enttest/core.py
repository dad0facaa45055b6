"""Exact discrete distributions, samplers, and ground-truth functionals.

Everything downstream (the testers, the experiment harness, the verification
suites) consumes the objects defined here.  Distributions are exact numpy
probability vectors.  Every sampler has ``n``, ``draw`` and the count draws
of :class:`SampleStream`, and its type alone says whether its law is known:
a :class:`Sampler` (alias method, reproducible stream) draws counts from its
exact distribution; any other sampler is a stream whose counts tabulate its
draws.  :func:`mix_sample` and :func:`fair_mix` build mass floors and fair
mixtures of either kind.  The functionals (entropy, five divergences, the
cross-entropy term) are building blocks and oracles for the randomized tests.

Design notes:

* Natural logarithm throughout.
* ``0 * log(1/0) := 0`` by continuity in entropy and the cross-entropy term.
* KL and chi-square return ``inf`` rather than raising when absolute
  continuity fails, so the oracles stay total.
* Probability vectors are renormalized silently when the deviation from 1 is
  below ``PROB_ATOL``, and rejected above it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

PROB_ATOL = 1e-12

# lower clamp for log arguments in budget formulas: never let log(n/eps)
# drop below 1
LOG_FLOOR = math.e


def log_ratio(n: float, eps: float) -> float:
    """log(n / eps), clamped below at 1: the log factor of the budget formulas."""
    return math.log(max(n / eps, LOG_FLOOR))


class DistributionError(ValueError):
    """Probability vector violates the construction invariants."""


class DomainMismatch(ValueError):
    """Two distributions with different domain sizes were combined."""


class ParameterOutOfRange(ValueError):
    """Accuracy, confidence or size parameter outside its documented range."""


def check_range(name: str, value: float, top: float = 1.0):
    """Raise ``ParameterOutOfRange`` unless ``0 < value <= top`` (NaN fails)."""
    if not 0 < value <= top:
        raise ParameterOutOfRange(f"{name} must lie in (0, {top:g}], got {value}")


class BudgetExhausted(RuntimeError):
    """Rejection sampling ran out of raw draws before producing the request.

    Carries ``consumed``, the number of raw draws spent.  Callers running a
    statistical test treat this as a failed trial (Markov-cutoff semantics).
    """

    def __init__(self, consumed: int, message: str = "sampling budget exhausted"):
        super().__init__(f"{message} (consumed={consumed})")
        self.consumed = int(consumed)


def _as_prob_vector(probs, renormalize: bool = True) -> np.ndarray:
    # a copy, so freezing it leaves the caller's own array writeable
    v = np.array(probs, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise DistributionError("probability vector must be 1-D and non-empty")
    if not np.all(np.isfinite(v)):
        raise DistributionError("probability vector contains non-finite entries")
    if np.any(v < 0):
        raise DistributionError("probability vector contains negative entries")
    total = float(v.sum())
    if abs(total - 1.0) > PROB_ATOL:
        raise DistributionError(f"probabilities sum to {total!r}, not 1")
    if renormalize and total != 1.0 and total > 0:
        v /= total
    v.setflags(write=False)
    return v


def _unchecked(v: np.ndarray, renormalize: bool = True) -> "DiscreteDistribution":
    """A distribution over ``v``, a fresh float64 vector already known to be
    a probability vector up to rounding (a mixture of valid laws, or a
    checked file), without the constructor's checks.  With ``renormalize``
    it is divided by its float sum as the constructor does, so ``probs`` is
    bit-identical to ``DiscreteDistribution(v)``."""
    total = float(v.sum()) if renormalize else 1.0
    if total != 1.0:
        v /= total
    v.setflags(write=False)
    d = object.__new__(DiscreteDistribution)
    object.__setattr__(d, "probs", v)
    object.__setattr__(d, "_levels", _UNGROUPED)
    object.__setattr__(d, "_floored", (None, None))
    return d


# More distinct probabilities than this and a law keeps no level grouping,
# and its counts take the per-cell path (``Sampler.poisson_counts``): each
# draw loops over the levels in Python, and a law of one value a cell
# (null:zipf, null:dense) would hold its cell order for nothing.
_MAX_LEVELS = 64
_UNGROUPED = object()  # a level grouping not yet computed


class Levels(NamedTuple):
    """A law's cells grouped by equal probability, the partition
    ``np.unique(probs)`` gives: level j has probability ``values[j]``
    (ascending) and cells ``order[bounds[j]:bounds[j + 1]]`` (ascending).
    ``values`` and ``bounds`` are Python lists, cheaper than numpy arrays
    at a few dozen entries."""

    values: list
    bounds: list
    order: np.ndarray

    def cells(self, j: int) -> np.ndarray:
        return self.order[self.bounds[j] : self.bounds[j + 1]]


def _group_levels(probs: np.ndarray) -> Levels | None:
    # a stable sort keeps each level's cells ascending
    order = np.argsort(probs, kind="stable")
    ranked = probs[order]
    starts = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
    if starts.size > _MAX_LEVELS:
        return None
    if probs.size <= np.iinfo(np.int32).max:  # half the memory held per law
        order = order.astype(np.int32)
    return Levels(ranked[starts].tolist(), starts.tolist() + [probs.size], order)


class DiscreteDistribution:
    """An exact probability distribution over ``{0, ..., n-1}``.

    Immutable after construction and safe to share across workers: a
    pickled or copied law keeps the bits of ``probs`` and computes its
    level grouping and floored law again on first use.
    """

    __slots__ = ("probs", "_levels", "_floored")

    def __init__(self, probs):
        object.__setattr__(self, "probs", _as_prob_vector(probs))
        object.__setattr__(self, "_levels", _UNGROUPED)
        object.__setattr__(self, "_floored", (None, None))  # (eps, mass_floor_mix(self, eps))

    def __setattr__(self, name, value):
        raise AttributeError("DiscreteDistribution is immutable")

    def __reduce__(self):
        # pickle and copy rebuild the law from its probabilities as they
        # are: the constructor's renormalization could move their low bits
        return _unchecked, (self.probs, False)

    @property
    def n(self) -> int:
        return self.probs.size

    def __len__(self) -> int:
        return self.probs.size

    def __repr__(self) -> str:
        return f"DiscreteDistribution(n={self.n})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DiscreteDistribution)
            and self.n == other.n
            and np.array_equal(self.probs, other.probs)
        )

    def levels(self) -> Levels | None:
        """The cells grouped by equal probability (:class:`Levels`), or None
        when the law has more than ``_MAX_LEVELS`` distinct values.

        Computed on first use and held by the distribution, by one stable
        sort of ``probs``.
        """
        if self._levels is _UNGROUPED:
            # two threads may both compute it; they store equal groupings
            object.__setattr__(self, "_levels", _group_levels(self.probs))
        return self._levels

    def mass(self, index_set) -> float:
        """Total probability of an index set (array of indices or bool mask)."""
        idx = np.asarray(index_set)
        if idx.dtype == bool:
            return float(self.probs[idx].sum())
        return float(self.probs[idx.astype(np.int64)].sum())

    # -- constructors ------------------------------------------------------

    @staticmethod
    def uniform(n: int) -> "DiscreteDistribution":
        if n < 1:
            raise DistributionError("domain size must be >= 1")
        return DiscreteDistribution(np.full(n, 1.0 / n))

    @staticmethod
    def point_mass(n: int, index: int = 0) -> "DiscreteDistribution":
        if not 0 <= index < n:
            raise DistributionError("point-mass index out of range")
        v = np.zeros(n)
        v[index] = 1.0
        return DiscreteDistribution(v)

    @staticmethod
    def zipf(n: int, exponent: float = 1.0) -> "DiscreteDistribution":
        w = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** exponent
        return DiscreteDistribution(w / w.sum())

    @staticmethod
    def random_dense(n: int, rng: np.random.Generator) -> "DiscreteDistribution":
        """A fully supported random distribution (exponential weights)."""
        w = rng.exponential(size=n) + 1e-9
        return DiscreteDistribution(w / w.sum())


# ---------------------------------------------------------------------------
# Functionals
# ---------------------------------------------------------------------------


def entropy(d: DiscreteDistribution | np.ndarray) -> float:
    """Shannon entropy in nats, with the 0 log(1/0) = 0 convention."""
    p = d.probs if isinstance(d, DiscreteDistribution) else np.asarray(d, dtype=np.float64)
    nz = p[p > 0]
    return float(0.0 - (nz * np.log(nz)).sum())  # 0.0 - s, not -s: a point mass gives 0.0, not -0.0


@dataclass(frozen=True)
class Divergences:
    """The five exact distances/divergences between a pair of distributions."""

    tv: float
    hellinger_sq: float
    kl: float
    chi_sq: float
    l2_sq: float


def _check_same_domain(p: DiscreteDistribution, q: DiscreteDistribution):
    if p.n != q.n:
        raise DomainMismatch(f"domain sizes differ: {p.n} vs {q.n}")


def divergences(p: DiscreteDistribution, q: DiscreteDistribution) -> Divergences:
    """Exact TV, squared Hellinger, KL(p||q), chi-square(p,q) and squared l2.

    KL and chi-square are ``inf`` when q has a zero where p does not.
    """
    _check_same_domain(p, q)
    pv, qv = p.probs, q.probs
    diff = pv - qv
    tv = 0.5 * float(np.abs(diff).sum())
    hell = 0.5 * float(((np.sqrt(pv) - np.sqrt(qv)) ** 2).sum())
    l2 = float((diff * diff).sum())
    qsup = qv > 0
    chi = math.inf if np.any(pv[~qsup] > 0) else float((diff[qsup] ** 2 / qv[qsup]).sum())
    return Divergences(tv=tv, hellinger_sq=hell, kl=kl_divergence_vectors(pv, qv), chi_sq=chi, l2_sq=l2)


def kl_divergence_vectors(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p || q) of probability vectors; ``inf`` when q is 0 where p is not."""
    sup = p > 0
    if np.any(q[sup] <= 0):
        return math.inf
    return float((p[sup] * np.log(p[sup] / q[sup])).sum())


def lambda_term(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Cross-entropy term |sum_i (p_i - q_i) log(1 / ((p_i + q_i)/2))|.

    Indices with ``p_i + q_i == 0`` contribute zero.
    """
    _check_same_domain(p, q)
    s = p.probs + q.probs
    nz = s > 0
    return abs(float(((p.probs[nz] - q.probs[nz]) * np.log(2.0 / s[nz])).sum()))


def triangle_discrepancy(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """(1/2) sum_i (p_i - q_i)^2 / (p_i + q_i); within factors [1, 2] of d_H^2."""
    _check_same_domain(p, q)
    s = p.probs + q.probs
    nz = s > 0
    d = p.probs[nz] - q.probs[nz]
    return 0.5 * float((d * d / s[nz]).sum())


def mass_floor_eta(n: int, eps: float) -> float:
    """Mixing weight eps / log(n/eps) used by the mass floor."""
    check_range("eps", eps, 0.5)
    return eps / log_ratio(n, eps)


def mass_floor_mix(d: DiscreteDistribution, eps: float) -> DiscreteDistribution:
    """Mix with the uniform distribution so every atom gets mass
    at least ``eps / (n log(n/eps))``; shifts the entropy by at most eps.

    ``d`` keeps its last result, so a cascade that floors a law on every
    pass builds the floored law, and groups its levels, once per eps.
    """
    eta = mass_floor_eta(d.n, eps)
    last_eps, last = d._floored
    if last_eps == eps:
        return last
    floored = _unchecked((1.0 - eta) * d.probs + eta / d.n)
    # two threads may both build it; they store equal laws
    object.__setattr__(d, "_floored", (eps, floored))
    return floored


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------


def _alias_tables(probs: np.ndarray):
    """Vose alias tables (1991): O(n) setup, O(1) per draw.

    Returns ``(alias, threshold)`` over 2^b >= max(n, 2) columns: the law is
    padded with zero-probability columns, which are always replaced by
    their alias.  Column i is kept with probability ``cut[i]``, stored as
    the uint64 ``threshold[i] = ceil(cut[i] 2^53)``: a 53-bit coin c keeps
    it iff ``c < threshold[i]``, which is ``c 2^-53 < cut[i]`` exactly.
    The loop runs on Python lists of floats: the float64 arithmetic of
    numpy scalars, faster (2^20 columns on 2 shared cores: 0.5-0.8 s,
    against 0.9-1.1 s on numpy scalars).
    """
    size = max(2, 1 << (probs.size - 1).bit_length())
    scaled = np.zeros(size)
    scaled[:probs.size] = probs * size
    alias = list(range(size))
    cut = scaled.tolist()
    small = [i for i, c in enumerate(cut) if c < 1.0]
    large = [i for i, c in enumerate(cut) if c >= 1.0]
    while small and large:
        s = small.pop()
        l = large.pop()
        alias[s] = l
        cut[l] -= 1.0 - cut[s]
        (small if cut[l] < 1.0 else large).append(l)
    # numerical leftovers are self-aliased with acceptance 1
    for i in small + large:
        cut[i] = 1.0
    threshold = np.ceil(np.minimum(cut, 1.0) * 2.0**53).astype(np.uint64)
    return np.array(alias, dtype=np.int64), threshold


# Elements per block of the large-n count path (``_alias_draw``, and T and Z
# in ``poisson._terms``), so that 128 KB temporaries stay in cache.  On 2
# shared cores, numpy 2.4.6: a draw of 2^14 Poisson-table alias variates
# costs 9.0-10.6 ns a variate (rates 30 to 3000), against 14.0-21.2 when it
# took one ``Generator.integers`` and one ``Generator.random`` a variate;
# T in the serial `scaling` spec costs 9.4 ns a cell in one pass and 8.2
# blocked.
_BLOCK = 2**14
_COIN_MASK = np.uint64(2**53 - 1)


def _alias_draw(rng, alias: np.ndarray, threshold: np.ndarray, k: int) -> np.ndarray:
    """k i.i.d. indices into the tables of :func:`_alias_tables`.

    A variate takes one 64-bit word r of the bit generator when the table
    has 2^b <= 2^11 columns: the column is the top b bits of r, exactly
    uniform, and the coin the low 53 bits.  A larger table takes two words
    in turn, the column from the first and the coin from the second's low
    53 bits.  The words come ``_BLOCK`` variates at a time from
    ``random_raw``, which fills in order, so the draw is the same in
    blocks or in one pass.
    """
    b = alias.size.bit_length() - 1
    words = 1 if b <= 11 else 2
    shift = np.uint64(64 - b)
    bits = rng.bit_generator
    out = np.empty(k, dtype=np.int64)
    for lo in range(0, k, _BLOCK):
        cols = out[lo:lo + _BLOCK]
        raw = bits.random_raw(words * cols.size)
        np.right_shift(raw[::words], shift, out=cols.view(np.uint64))
        coins = raw[words - 1::words]
        coins &= _COIN_MASK
        np.copyto(cols, alias[cols], where=coins >= threshold[cols])
    return out


# Poisson counts of equal-probability cells (``Sampler.poisson_counts``),
# measured on 2 shared cores with numpy 2.4.6: ``Generator.poisson`` costs
# 36-79 ns a variate at rates 1 to 10^4 (15 ns near rate 0), an alias draw
# 9-11 ns, and the Vose build of a table about 0.8 us an entry.  The table
# path makes about ten numpy calls a level against the per-cell path's two,
# and each call that releases the interpreter lock costs more when two
# trial threads share it.  A two-level law at rates 67 and 133, per-cell
# against table, medians of 11 runs: on one thread 41 against 38 us a call
# at 128 cells a level, 234 against 129 at 2,048 and 680 against 205 at
# 4,096; on two threads, each drawing its own law, 237 against 408 at
# 1,024, 427 against 528 at 2,048 and 790 against 559 at 4,096 (with the
# former two-call alias draw, 390 against 498 at 2,048).
# The pinned grid spec in process at one worker, on two trial threads, ran
# in 3.80 s at 2,048 and 3.69 s at 4,096 (medians of 6 alternating runs);
# 2,048 stayed, since a `scaling` pool worker draws on one thread, where a
# 2,048-cell level draws 1.8 times as fast from its table.  The two-thread
# figures above now describe trials of 2^14 cells or more, and smaller
# laws drawn while such a trial runs: smaller laws run on the calling
# thread (``experiments._THREAD_MIN_CELLS``), beside the helper threads'
# trials when a run has both.  Alone on one thread the table matched the
# per-cell draw from 16 cells a level and won from 256.
# The value stays until the random streams may change (moving it changes
# which levels draw from tables).
# _TABLE_MAX_RATE caps a table at 1,341 entries, whose ~1 ms build the
# ~30 ns a variate saving repays within 2^15 variates.
_TABLE_MIN_LEVEL = 2048
_TABLE_MAX_RATE = 4096.0


@functools.lru_cache(maxsize=64)
def _poisson_table(rate: float):
    """``(lo, alias, threshold)``: the alias tables (:func:`_alias_tables`,
    int32 aliases) of the Poi(rate) pmf on ``lo, lo + 1, ..., hi``, for
    rate > 0; a draw from them plus ``lo`` is a truncated Poi(rate) variate.

    The window is rate +- x with x = 10 sqrt(rate) + 30, clipped at 0.
    Bernstein's bound P(|X - rate| >= x) <= 2 exp(-x^2 / (2 (rate + x/3)))
    gives an exponent of at least 45 for every rate, so the truncated tail
    mass is below 2 e^-45 < 2^-60; the pmf is renormalized on the window.
    Built without randomness, so a draw does not depend on whether its
    table was cached.
    """
    half = 10.0 * math.sqrt(rate) + 30.0
    lo = max(0, math.floor(rate - half))
    hi = math.ceil(rate + half)
    # log pmf(k) - log pmf(lo) = sum_{j=lo+1..k} log(rate / j)
    logp = np.zeros(hi - lo + 1)
    np.cumsum(math.log(rate) - np.log(np.arange(lo + 1, hi + 1, dtype=np.float64)), out=logp[1:])
    pmf = np.exp(logp - logp.max())
    alias, threshold = _alias_tables(pmf / pmf.sum())
    return lo, alias.astype(np.int32), threshold


@functools.lru_cache(maxsize=64)
def _sure_floor(k: int, theta: float, n: int) -> float:
    """The smallest p, to bisection precision, whose element falls short
    of theta among k draws with probability at most 2^-60 / n, by the
    Chernoff bound P(X <= a k) <= exp(-k KL(a || p)) for a < p, where
    a = (ceil(theta) - 1) / k and 0 < theta <= k.

    Scalar and deterministic, so a mask does not depend on whether the
    floor was cached.
    """
    a = (math.ceil(theta) - 1) / k
    target = (60 * math.log(2) + math.log(n)) / k

    def kl(p):
        out = (1 - a) * math.log((1 - a) / (1 - p))
        return out + a * math.log(a / p) if a > 0 else out

    lo, hi = a, 1.0  # KL(a || a) = 0, KL(a || 1) = inf
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if kl(mid) >= target:
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    return hi


def _draw_count(k) -> int:
    """``k`` as the size of a ``draw``; raises ``ValueError`` when k < 0."""
    k = int(k)
    if k < 0:
        raise ValueError(f"cannot draw a negative number of samples ({k})")
    return k


class SampleStream:
    """Count-level draws realized literally from a sample stream.

    Subclasses supply ``n``, ``draw(k)`` and the generator ``_rng``; every
    count tabulates ``draw`` output, and every ``draw`` checks its size with
    ``_draw_count`` (``draw(0)`` is empty, ``draw(-1)`` an error).  A
    stream's law is unknown (``distribution`` is None); :class:`Sampler`,
    the one exact-law sampler, overrides the count draws with their
    exact-law forms.
    """

    distribution = None

    def poisson_counts(self, m: float) -> np.ndarray:
        """Per-element counts of a Poissonized batch of nominal size m: the
        literal procedure, ``N ~ Poi(m)`` draws tabulated."""
        return np.bincount(self.draw(int(self._rng.poisson(m))), minlength=self.n)

    def multinomial_counts(self, k: int) -> np.ndarray:
        """Per-element counts of exactly k draws."""
        return np.bincount(self.draw(int(k)), minlength=self.n)

    def count_at_least(self, k: int, theta: float) -> np.ndarray:
        """Bool mask of the elements drawn at least ``theta`` times among
        exactly k draws."""
        return self.multinomial_counts(k) >= theta

    def binomial_hits(self, k: int, index_set) -> int:
        """Number of hits in ``index_set`` among exactly k draws."""
        return int(_as_mask(index_set, self.n)[self.draw(int(k))].sum())


class Sampler(SampleStream):
    """Reproducible categorical sampler over an exact distribution.

    A fixed ``(distribution, seed)`` pair always reproduces the same stream.
    Samplers are single-owner: parallel workers each build their own from a
    seed they derive themselves (for instance a spawned ``SeedSequence``).

    Besides the literal sample stream (:meth:`draw`), the sampler exposes
    count-level draws (:meth:`poisson_counts`, :meth:`multinomial_counts`,
    :meth:`binomial_hits`, :meth:`negative_binomial_consumed`) whose joint
    laws match the corresponding stream procedures exactly, and
    :meth:`count_at_least`, within 2^-60 total variation of its stream
    procedure; the testers use these for speed on large budgets.
    """

    def __init__(self, distribution: DiscreteDistribution, rng_seed):
        self.distribution = distribution
        self._rng = np.random.default_rng(rng_seed)
        self._alias = None  # built lazily; only .draw() needs it

    @property
    def n(self) -> int:
        return self.distribution.n

    @property
    def probs(self) -> np.ndarray:
        return self.distribution.probs

    def draw(self, k: int) -> np.ndarray:
        """k i.i.d. samples as an int64 index array."""
        k = _draw_count(k)
        if k == 0:
            return np.empty(0, dtype=np.int64)
        if self._alias is None:
            self._alias = _alias_tables(self.probs)
        return _alias_draw(self._rng, *self._alias, k)

    def poisson_counts(self, m: float) -> np.ndarray:
        """Per-element counts of a Poissonized batch of nominal size m.

        Identical in law to drawing ``N ~ Poi(m)`` samples and tabulating:
        counts are independent ``Poi(m * p_i)``.

        Cells of one probability level (:meth:`DiscreteDistribution.levels`)
        share a rate.  Every level of at least ``_TABLE_MIN_LEVEL`` cells
        with rate in (0, ``_TABLE_MAX_RATE``] draws its counts from the
        rate's cached alias table of the Poisson pmf (:func:`_poisson_table`,
        exact up to a truncated tail below 2^-60), in ascending level
        order; the remaining cells then draw one ``Generator.poisson`` each,
        in index order.  Cells of rate 0 get 0 and draw nothing.  A law
        with no such level draws every cell per-cell, as one
        ``Generator.poisson`` call.
        """
        levels = self.distribution.levels()
        if levels is not None:
            bounds = levels.bounds
            rates = [m * v for v in levels.values]
            tabled = [hi - lo >= _TABLE_MIN_LEVEL and 0 < rate <= _TABLE_MAX_RATE
                      for rate, lo, hi in zip(rates, bounds, bounds[1:])]
            if any(tabled):
                return self._level_counts(m, levels, rates, tabled)
        return self._rng.poisson(m * self.probs)

    def _level_counts(self, m, levels: Levels, rates, tabled) -> np.ndarray:
        out = np.zeros(self.n, dtype=np.int64)
        rest = []
        for j, rate in enumerate(rates):
            cells = levels.cells(j)
            if tabled[j]:
                lo, alias, threshold = _poisson_table(rate)
                draw = _alias_draw(self._rng, alias, threshold, cells.size)
                if lo:
                    draw += lo
                if cells.size == self.n:  # the only level: cells 0, ..., n - 1
                    return draw
                out[cells] = draw
            elif rate > 0:
                rest.append(cells)
        if rest:
            cells = rest[0] if len(rest) == 1 else np.sort(np.concatenate(rest))
            out[cells] = self._rng.poisson(m * self.probs[cells])
        return out

    def multinomial_counts(self, k: int) -> np.ndarray:
        k = _draw_count(k)
        if k == 0:
            return np.zeros(self.n, dtype=np.int64)
        return self._rng.multinomial(k, self.probs)

    def count_at_least(self, k: int, theta: float) -> np.ndarray:
        """The mask of elements drawn at least theta times among k draws,
        within 2^-60 total variation of the literal one.

        An element of probability at least ``_sure_floor(k, theta, n)``
        falls short of theta with probability at most 2^-60 / n, so it
        counts as reached without a draw.  The other elements with positive
        probability, the unsure set U, draw their counts' exact joint law:
        ``N ~ Bin(k, p(U))`` draws land in U, split by
        ``Multinomial(N, p_U / p(U))``.  With no sure element this is one
        ``multinomial_counts(k)``; a law whose every element is sure, or a
        theta outside (0, k], draws nothing.
        """
        k = _draw_count(k)
        if theta <= 0 or theta > k:
            return np.full(self.n, theta <= 0)
        probs = self.probs
        sure = probs >= _sure_floor(k, float(theta), self.n)
        if not sure.any():
            return self.multinomial_counts(k) >= theta
        unsure = np.flatnonzero(~sure & (probs > 0))
        if unsure.size:
            p_u = probs[unsure]
            mass = float(p_u.sum())
            hits = int(self._rng.binomial(k, min(mass, 1.0)))
            sure[unsure] = self._rng.multinomial(hits, p_u / mass) >= theta
        return sure

    def binomial_hits(self, k: int, index_set) -> int:
        k = _draw_count(k)
        if k == 0:
            return 0
        mass = self.distribution.mass(index_set)
        return int(self._rng.binomial(k, min(mass, 1.0)))

    def negative_binomial_consumed(self, successes: int, index_set) -> int:
        """Raw draws needed for ``successes`` hits in ``index_set`` (exact law)."""
        mass = self.distribution.mass(index_set)
        if mass <= 0:
            raise BudgetExhausted(0, "target set has zero mass")
        if successes <= 0:
            return 0
        return int(successes) + int(self._rng.negative_binomial(int(successes), min(mass, 1.0)))

    def conditional_sampler(self, mask) -> "Sampler":
        """Child sampler of the distribution conditioned on the bool ``mask``,
        over the mask's positions in index order."""
        mass = self.distribution.mass(mask)
        if mass <= 0:
            raise DistributionError("zero mass on the conditioning set")
        child = DiscreteDistribution(self.probs[mask] / mass)
        return Sampler(child, self._rng.integers(0, 2**63 - 1))


class StreamSampler(SampleStream):
    """Stream over a finite pre-drawn sample pool.

    Used where the algorithm only has genuine sample access (the mutual
    information reduction): count-level draws consume pool entries, so the
    number of raw samples spent is explicit.  Raises ``BudgetExhausted``
    when the pool runs dry.
    """

    def __init__(self, samples: np.ndarray, n: int, rng_seed=0):
        self.pool = np.asarray(samples, dtype=np.int64)
        self._n = int(n)
        self._pos = 0
        self._rng = np.random.default_rng(rng_seed)

    @property
    def n(self) -> int:
        return self._n

    @property
    def remaining(self) -> int:
        return self.pool.size - self._pos

    def draw(self, k: int) -> np.ndarray:
        k = _draw_count(k)
        if k > self.remaining:
            raise BudgetExhausted(self._pos, "sample pool exhausted")
        out = self.pool[self._pos : self._pos + k]
        self._pos += k
        return out


def _as_mask(index_set, n: int) -> np.ndarray:
    idx = np.asarray(index_set)
    if idx.dtype == bool:
        if idx.size != n:
            raise ValueError("boolean mask has wrong length")
        return idx
    mask = np.zeros(n, dtype=bool)
    mask[idx.astype(np.int64)] = True
    return mask


def _coin_mix(rng, k: int, heads: float, draw_heads, draw_tails) -> np.ndarray:
    """k draws, each from ``draw_heads`` with probability ``heads`` and
    from ``draw_tails`` otherwise: one coin per draw, then both sources."""
    k = _draw_count(k)
    from_heads = rng.random(k) < heads
    out = np.empty(k, dtype=np.int64)
    n_heads = int(from_heads.sum())
    out[from_heads] = draw_heads(n_heads)
    out[~from_heads] = draw_tails(k - n_heads)
    return out


class MassFloorSampler(SampleStream):
    """Stream from ``(1-eta) * base + eta * uniform`` built per-draw.

    One output sample costs at most one base sample, matching the
    simulation argument for the mass floor.  Build it through
    :func:`mix_sample`, which floors an exact-law base exactly instead.
    """

    def __init__(self, base, eps: float, rng_seed):
        self.base = base
        self.eta = mass_floor_eta(base.n, eps)
        self._rng = np.random.default_rng(rng_seed)

    @property
    def n(self) -> int:
        return self.base.n

    def draw(self, k: int) -> np.ndarray:
        uniform = lambda count: self._rng.integers(0, self.n, size=count)
        return _coin_mix(self._rng, k, self.eta, uniform, self.base.draw)


def mix_sample(base_sampler, eps: float, rng_seed=0) -> SampleStream:
    """Mass-floored sampler whose law is ``mass_floor_mix`` of the base's.

    An exact-law :class:`Sampler` base gives a :class:`Sampler` over the
    exact mixture; any other stream gives the per-draw
    :class:`MassFloorSampler` view over it.
    """
    if isinstance(base_sampler, Sampler):
        seed = np.random.default_rng(rng_seed).integers(0, 2**63 - 1)
        return Sampler(mass_floor_mix(base_sampler.distribution, eps), seed)
    return MassFloorSampler(base_sampler, eps, rng_seed)


class FairMixSampler(SampleStream):
    """Stream from the mixture (p + q)/2: each draw flips a fair coin
    between one p-sample and one q-sample.  Build it through :func:`fair_mix`."""

    def __init__(self, sp, sq, rng_seed):
        if sp.n != sq.n:
            raise DomainMismatch(f"domain sizes differ: {sp.n} vs {sq.n}")
        self.sp = sp
        self.sq = sq
        self._rng = np.random.default_rng(rng_seed)

    @property
    def n(self) -> int:
        return self.sp.n

    def draw(self, k: int) -> np.ndarray:
        return _coin_mix(self._rng, k, 0.5, self.sp.draw, self.sq.draw)


def fair_mix(sp, sq, rng_seed=0) -> SampleStream:
    """Sampler of the mixture (p + q)/2: a :class:`Sampler` of the exact
    mixture when both sides are exact-law samplers, else a :class:`FairMixSampler`."""
    if isinstance(sp, Sampler) and isinstance(sq, Sampler):
        _check_same_domain(sp.distribution, sq.distribution)
        return Sampler(_unchecked(0.5 * (sp.probs + sq.probs)), rng_seed)
    return FairMixSampler(sp, sq, rng_seed)


def conditional_rejection_sample(sampler, support, count: int, budget: int):
    """Draw ``count`` samples from the conditional distribution on ``support``.

    Returns ``(samples, consumed)`` where ``consumed`` is the number of raw
    draws spent; raises :class:`BudgetExhausted` if the budget (or a sample
    pool) runs out first, carrying the raw draws this call spent.
    ``samples`` are indices into the original domain.
    """
    count = int(count)
    budget = int(budget)
    mask = _as_mask(support, sampler.n)
    if count <= 0:
        return np.empty(0, dtype=np.int64), 0

    if isinstance(sampler, Sampler):
        # exact-law shortcut: raw draws to reach `count` accepts is
        # count + NegBin(count, mass); accepted draws are conditional i.i.d.
        try:
            consumed = sampler.negative_binomial_consumed(count, mask)
        except BudgetExhausted:
            raise BudgetExhausted(budget)
        if consumed > budget:
            raise BudgetExhausted(budget)
        child = sampler.conditional_sampler(mask)
        return np.flatnonzero(mask)[child.draw(count)], consumed

    # generic path: literal chunked rejection on the sample stream
    collected = []
    got = 0
    consumed = 0
    while got < count:
        chunk = min(max(2 * (count - got), 64), budget - consumed)
        if chunk <= 0:
            raise BudgetExhausted(consumed)
        try:
            raw = sampler.draw(chunk)
        except BudgetExhausted:
            raise BudgetExhausted(consumed, "sample pool exhausted") from None
        consumed += chunk
        acc = raw[mask[raw]]
        if acc.size:
            collected.append(acc)
            got += acc.size
    samples = np.concatenate(collected)[:count]
    return samples, consumed


# ---------------------------------------------------------------------------
# Distribution files: header line "n=<int>", one probability per line
# ---------------------------------------------------------------------------


def save_distribution(d: DiscreteDistribution, path):
    with open(path, "w") as fh:
        fh.write(f"n={d.n}\n")
        for x in d.probs:
            fh.write(f"{float(x)!r}\n")


def _parse_field(convert, text: str, line: str, error=DistributionError):
    """``convert(text)``, raising ``error`` that names the bad field and its line."""
    try:
        return convert(text)
    except ValueError:
        raise error(f"bad field {text!r} in {line!r}") from None


def load_distribution(path) -> DiscreteDistribution:
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("n="):
            raise DistributionError(f"bad distribution file header: {header!r}")
        n = _parse_field(int, header[2:], header)
        probs = np.array([_parse_field(float, line.strip(), line) for line in fh if line.strip()])
    if probs.size != n:
        raise DistributionError(f"expected {n} probabilities, found {probs.size}")
    # the file holds a constructed vector: check it, but keep its bits, since
    # dividing a normalized vector by its float sum again moves low bits
    return _unchecked(_as_prob_vector(probs, renormalize=False), renormalize=False)
