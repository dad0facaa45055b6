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

import math
from dataclasses import dataclass

import numpy as np

PROB_ATOL = 1e-12

# lower clamp for log arguments in budget formulas: never let log(n/eps)
# drop below 1
LOG_FLOOR = math.e


class DistributionError(ValueError):
    """Probability vector violates the construction invariants."""


class DomainMismatch(ValueError):
    """Two distributions with different domain sizes were combined."""


class InvalidEpsilon(ValueError):
    """Accuracy parameter outside its documented range."""


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
    return d


class DiscreteDistribution:
    """An exact probability distribution over ``{0, ..., n-1}``.

    Immutable after construction and safe to share across workers.
    """

    __slots__ = ("probs",)

    def __init__(self, probs):
        object.__setattr__(self, "probs", _as_prob_vector(probs))

    def __setattr__(self, name, value):
        raise AttributeError("DiscreteDistribution is immutable")

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
    return float(-(nz * np.log(nz)).sum())


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
    if np.any((qv == 0) & (pv > 0)):
        kl = math.inf
        chi = math.inf
    else:
        sup = pv > 0
        kl = float((pv[sup] * np.log(pv[sup] / qv[sup])).sum())
        qsup = qv > 0
        chi = float((diff[qsup] ** 2 / qv[qsup]).sum())
    return Divergences(tv=tv, hellinger_sq=hell, kl=kl, chi_sq=chi, l2_sq=l2)


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
    if not 0 < eps <= 0.5:
        raise InvalidEpsilon(f"eps must lie in (0, 1/2], got {eps}")
    return eps / math.log(max(n / eps, LOG_FLOOR))


def mass_floor_mix(d: DiscreteDistribution, eps: float) -> DiscreteDistribution:
    """Mix with the uniform distribution so every atom gets mass
    at least ``eps / (n log(n/eps))``; shifts the entropy by at most eps."""
    eta = mass_floor_eta(d.n, eps)
    return _unchecked((1.0 - eta) * d.probs + eta / d.n)


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------


def _alias_tables(probs: np.ndarray):
    """Vose alias tables: O(n) setup, O(1) per draw."""
    n = probs.size
    scaled = probs * n
    alias = np.arange(n, dtype=np.int64)
    cut = scaled.copy()
    small = [i for i in range(n) if scaled[i] < 1.0]
    large = [i for i in range(n) if scaled[i] >= 1.0]
    while small and large:
        s = small.pop()
        l = large.pop()
        alias[s] = l
        cut[l] -= 1.0 - cut[s]
        (small if cut[l] < 1.0 else large).append(l)
    # numerical leftovers are self-aliased with acceptance 1
    for i in small + large:
        cut[i] = 1.0
    return alias, np.minimum(cut, 1.0)


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
    laws match the corresponding stream procedures exactly; the testers use
    these for speed on large budgets.
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
        alias, cut = self._alias
        idx = self._rng.integers(0, self.n, size=k)
        keep = self._rng.random(k) < cut[idx]
        return np.where(keep, idx, alias[idx])

    def poisson_counts(self, m: float) -> np.ndarray:
        """Per-element counts of a Poissonized batch of nominal size m.

        Identical in law to drawing ``N ~ Poi(m)`` samples and tabulating:
        counts are independent ``Poi(m * p_i)``.
        """
        return self._rng.poisson(m * self.probs)

    def multinomial_counts(self, k: int) -> np.ndarray:
        k = _draw_count(k)
        if k == 0:
            return np.zeros(self.n, dtype=np.int64)
        return self._rng.multinomial(k, self.probs)

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


def load_distribution(path) -> DiscreteDistribution:
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("n="):
            raise DistributionError(f"bad distribution file header: {header!r}")
        n = int(header[2:])
        probs = np.array([float(line) for line in fh if line.strip()])
    if probs.size != n:
        raise DistributionError(f"expected {n} probabilities, found {probs.size}")
    # the file holds a constructed vector: check it, but keep its bits, since
    # dividing a normalized vector by its float sum again moves low bits
    return _unchecked(_as_prob_vector(probs, renormalize=False), renormalize=False)
