"""Promise-instance generators for calibration and soundness suites.

Every far instance ships with an exact certificate (entropy gap, mutual
information, or joint TV) recomputed by the exact oracles before use;
generation fails hard when the certificate misses the promise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DiscreteDistribution, Sampler, StreamSampler, entropy

_MI_TOL = 1e-9  # how far make_correlated_pair may miss its target
_GAP_TOL = 1e-12  # make_entropy_gap_pair's slack at the ends of the gap's range


class Unachievable(ValueError):
    """Requested certificate value exceeds what the family can reach."""


class CertificateError(RuntimeError):
    """A generated instance failed its own exact certificate check."""


# ---------------------------------------------------------------------------
# Correlated joint pairs (mutual-information instances)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JointPair:
    """A joint distribution over [k_a] x [k_c], flattened row-major
    (pair (a, c) sits at index a * k_c + c)."""

    joint: DiscreteDistribution
    k_a: int
    k_c: int

    def __post_init__(self):
        if self.k_a * self.k_c != self.joint.n:
            raise ValueError("flattened size must equal k_a * k_c")

    def grid(self) -> np.ndarray:
        return self.joint.probs.reshape(self.k_a, self.k_c)

    def marginal_a(self) -> DiscreteDistribution:
        return DiscreteDistribution(self.grid().sum(axis=1))

    def marginal_c(self) -> DiscreteDistribution:
        return DiscreteDistribution(self.grid().sum(axis=0))

    def product_of_marginals(self) -> DiscreteDistribution:
        return DiscreteDistribution(
            np.outer(self.grid().sum(axis=1), self.grid().sum(axis=0)).ravel()
        )

    def mutual_information(self) -> float:
        """I(A : C) = H(A) + H(C) - H(A, C), computed exactly."""
        return (
            entropy(self.marginal_a())
            + entropy(self.marginal_c())
            - entropy(self.joint)
        )


def _max_correlated_grid(k_a: int, k_c: int) -> np.ndarray:
    """Deterministic coupling c = a mod k_c with uniform a."""
    grid = np.zeros((k_a, k_c))
    for a in range(k_a):
        grid[a, a % k_c] = 1.0 / k_a
    return grid


def max_mutual_information(k_a: int, k_c: int) -> float:
    """The largest I(A : C) :func:`make_correlated_pair` reaches at these
    factor sizes: that of the maximally correlated coupling, where
    C = A mod k_c is a function of the uniform A, so I(A : C) = H(C)
    (0 at k_a = 1)."""
    q, r = divmod(k_a, k_c)
    return entropy(np.repeat([(q + 1) / k_a, q / k_a], [r, k_c - r]))


def make_correlated_pair(k_a: int, k_c: int, target_mi: float) -> JointPair:
    """Joint with I(A : C) within ``_MI_TOL`` of the target.

    Mixes the maximally correlated coupling (c = a mod k_c, a uniform) with
    the product of its marginals; the mixing weight is found by monotone
    bisection against the exact mutual information.
    """
    if k_a < 1 or k_c < 1:
        raise ValueError("factor sizes must be >= 1")
    if target_mi < 0:
        raise Unachievable("mutual information cannot be negative")
    coupled = _max_correlated_grid(k_a, k_c)
    marg_a = coupled.sum(axis=1)
    marg_c = coupled.sum(axis=0)
    product = np.outer(marg_a, marg_c)

    def mi_at(w: float) -> float:
        return JointPair(
            joint=DiscreteDistribution(((1.0 - w) * product + w * coupled).ravel()),
            k_a=k_a,
            k_c=k_c,
        ).mutual_information()

    cap = max_mutual_information(k_a, k_c)
    if target_mi > cap + _MI_TOL:
        raise Unachievable(
            f"target MI {target_mi} exceeds this family's maximum {cap:.6f}"
        )
    if target_mi == 0:
        pair = JointPair(DiscreteDistribution(product.ravel()), k_a, k_c)
    elif abs(target_mi - cap) <= _MI_TOL:
        pair = JointPair(DiscreteDistribution(coupled.ravel()), k_a, k_c)
    else:
        lo, hi = 0.0, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mi_at(mid) < target_mi:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-15:
                break
        w = 0.5 * (lo + hi)
        pair = JointPair(
            DiscreteDistribution(((1.0 - w) * product + w * coupled).ravel()), k_a, k_c
        )
    achieved = pair.mutual_information()
    if abs(achieved - target_mi) > _MI_TOL:
        raise CertificateError(
            f"MI certificate missed: wanted {target_mi}, got {achieved}"
        )
    return pair


def mi_reduction_streams(joint_sampler, k_c: int, t: int):
    """Sample streams realizing the reduction from MI testing.

    Draws 3t joint samples; the p-stream is the first t pairs, the q-stream
    pairs the a-coordinate of sample t+2i-1 with the c-coordinate of sample
    t+2i (so it is exactly distributed as the product of marginals).
    ``joint_sampler`` must expose ``draw`` over the flattened domain, whose
    second factor has ``k_c`` values (``JointPair.k_c``).
    Returns ``(p_stream, q_stream)`` of flattened indices, t each.
    """
    if t < 1:
        raise ValueError("stream length must be >= 1")
    if k_c < 1:
        raise ValueError("factor size k_c must be >= 1")
    raw = joint_sampler.draw(3 * t)
    p_stream = raw[:t]
    a_part = raw[t + 0 : 3 * t : 2] // k_c  # samples t+1, t+3, ... (a-coordinates)
    c_part = raw[t + 1 : 3 * t : 2] % k_c  # samples t+2, t+4, ... (c-coordinates)
    q_stream = a_part * k_c + c_part
    return p_stream, q_stream


def mi_reduction_stream_samplers(pair: JointPair, t: int, rng_seed):
    """StreamSampler pair backing an entropy-equivalence run on the reduction.

    The joint draws use ``rng_seed`` itself; the two pools' own generators
    use children spawned from it.
    """
    seq = rng_seed if isinstance(rng_seed, np.random.SeedSequence) else np.random.SeedSequence(rng_seed)
    p_stream, q_stream = mi_reduction_streams(Sampler(pair.joint, seq), pair.k_c, t)
    p_seed, q_seed = seq.spawn(2)
    n = pair.joint.n
    return StreamSampler(p_stream, n, rng_seed=p_seed), StreamSampler(q_stream, n, rng_seed=q_seed)


# ---------------------------------------------------------------------------
# Entropy-gap pairs
# ---------------------------------------------------------------------------


def make_entropy_gap_pair(n: int, gap: float):
    """(p, q) with q uniform over [n] and H(q) - H(p) equal to ``gap``.

    p is a two-level distribution supported on the first
    k = ceil(n exp(-gap)) elements: equal mass on the first k-1 and a
    reduced mass on the k-th, solved by bisection so the gap is exact.
    """
    if gap < 0 or gap > math.log(n) + _GAP_TOL:
        raise Unachievable(f"gap must lie in [0, log n] = [0, {math.log(n):.6f}]")
    q = DiscreteDistribution.uniform(n)
    target_h = math.log(n) - gap
    if gap <= _GAP_TOL:
        return q, q
    k = math.ceil(n * math.exp(-gap))
    if k <= 1:
        p = DiscreteDistribution.point_mass(n, 0)
    elif abs(target_h - math.log(k)) <= _GAP_TOL:
        v = np.zeros(n)
        v[:k] = 1.0 / k
        p = DiscreteDistribution(v)
    else:
        # H is increasing in the k-th level v on (0, 1/k]; bisect it
        def h_of(v: float) -> float:
            u = (1.0 - v) / (k - 1)
            return -(k - 1) * u * math.log(u) - (v * math.log(v) if v > 0 else 0.0)

        lo, hi = 1e-300, 1.0 / k
        for _ in range(500):
            mid = 0.5 * (lo + hi)
            if h_of(mid) < target_h:
                lo = mid
            else:
                hi = mid
        v = 0.5 * (lo + hi)
        vec = np.zeros(n)
        vec[: k - 1] = (1.0 - v) / (k - 1)
        vec[k - 1] = v
        p = DiscreteDistribution(vec)
    achieved = entropy(q) - entropy(p)
    if abs(achieved - gap) > 1e-11:
        raise CertificateError(f"entropy-gap certificate missed: wanted {gap}, got {achieved}")
    return p, q
