"""Poissonized count statistics and their exact expectation oracles.

The two-sample statistics T and Z both consume a :class:`CountPair`:
Poissonized empirical counts of the two sample streams.  :func:`batch_t`
and :func:`batch_z` are the same statistics over the last axis of
``(..., n)`` count arrays; the Bayes-net testers apply them to every
(subset, block) count row at once, and the oracle suite to stacks of Monte
Carlo draws.  Alongside the
statistics themselves, this module carries deterministic oracles for their
expectations (a closed form for ``E[T]``, a truncated-series evaluation for
``E[Z]``) and a Monte Carlo checker for the Poisson factorial-moment
identity ``E[(X)_m f(X)] = lambda^m E[f(X+m)]``, all of which back the
verification suites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import _BLOCK, DomainMismatch

MAX_SERIES_TERMS = 1_000_000


class NonConvergent(RuntimeError):
    """Series truncation could not meet the tolerance within the term cap."""


@dataclass(frozen=True)
class CountPair:
    """Per-element Poissonized counts for the p-stream and the q-stream."""

    x_counts: np.ndarray
    y_counts: np.ndarray
    m_nominal: int
    x_total: int = field(default=0)
    y_total: int = field(default=0)

    def __post_init__(self):
        if self.x_counts.shape != self.y_counts.shape:
            raise DomainMismatch("count vectors have different lengths")
        object.__setattr__(self, "x_total", int(self.x_counts.sum()))
        object.__setattr__(self, "y_total", int(self.y_counts.sum()))

    @property
    def n(self) -> int:
        return self.x_counts.size

    @property
    def samples_used(self) -> int:
        return self.x_total + self.y_total


def poissonized_counts(sp, sq, m: int) -> CountPair:
    """Poissonized counts of nominal size m from each stream, x then y.

    Each sampler draws its own counts: a :class:`~enttest.core.Sampler`
    draws independent ``Poi(m * p_i)`` counts straight from its known
    distribution, and any other stream tabulates ``N ~ Poi(m)`` literal
    draws (``SampleStream.poisson_counts``, the reference procedure).  The
    two are identical in law.
    """
    if m < 1:
        raise ValueError(f"nominal budget must be >= 1, got {m}")
    if sp.n != sq.n:
        raise DomainMismatch(f"domain sizes differ: {sp.n} vs {sq.n}")
    return CountPair(x_counts=sp.poisson_counts(m), y_counts=sq.poisson_counts(m), m_nominal=int(m))


def batch_t(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """T over the last axis of ``(..., n)`` count arrays, 0-terms skipped.

    Works in place on float64 ``x - y``: counts are non-negative, so a cell
    with ``x + y = 0`` has ``x = y = 0`` and its term stays 0.
    """
    j = np.add(x, y, dtype=np.float64)
    d = np.subtract(x, y, dtype=np.float64)
    d *= d
    d -= j
    np.divide(d, j, out=d, where=j > 0)
    return d.sum(axis=-1)


def batch_z(x: np.ndarray, y: np.ndarray, m: float) -> np.ndarray:
    """Z over the last axis of ``(..., n)`` count arrays at nominal size m,
    0-terms skipped (their log is left at 0, in place)."""
    j = np.add(x, y, dtype=np.float64)
    np.log(j, out=j, where=j > 0)
    d = np.subtract(x, y, dtype=np.float64)
    d *= j
    return -d.sum(axis=-1) / m


# The 1-D statistics below sum over the nonzero cells only: on sparse counts
# at large n that is faster than the masked batch kernels, and summing over
# all n cells instead would change the low bits of the cascade's statistics.


def _diff_total(x, y, d=None, j=None):
    """Float X - Y and X + Y (written to ``d`` and ``j`` when given), kept
    where X + Y > 0 (no copy when all are)."""
    d = np.subtract(x, y, out=d, dtype=np.float64)
    j = np.add(x, y, out=j, dtype=np.float64)
    if j.all():
        return d, j
    nz = j > 0
    return d[nz], j[nz]


def _terms(counts: CountPair, s_set, kernel) -> np.ndarray:
    """The terms ``kernel(d, j, out)`` writes to ``out`` from
    ``_diff_total``'s d and j on ``s_set`` (a bool mask or an index array;
    every cell when None), in cell order.  Past ``core._BLOCK`` cells they
    are computed block by block, in cache; each is the float one pass gives.
    """
    x, y = counts.x_counts, counts.y_counts
    if s_set is not None:
        idx = np.asarray(s_set)
        idx = idx if idx.dtype == bool else idx.astype(np.int64)
        x, y = x[idx], y[idx]
    if x.size <= _BLOCK:
        d, j = _diff_total(x, y)
        return kernel(d, j, d)
    out = np.empty(x.size)
    d, j = np.empty(_BLOCK), np.empty(_BLOCK)
    kept = 0
    for lo in range(0, x.size, _BLOCK):
        xs, ys = x[lo:lo + _BLOCK], y[lo:lo + _BLOCK]
        db, jb = _diff_total(xs, ys, d[:xs.size], j[:xs.size])
        kept += kernel(db, jb, out[kept:kept + db.size]).size
    return out[:kept]


def _t_terms(d, j, out):
    d *= d
    d -= j
    return np.divide(d, j, out=out)


def _z_terms(d, j, out):
    return np.multiply(d, np.log(j, out=j), out=out)


def statistic_t(counts: CountPair, s_set=None) -> float:
    """T = sum_i ((X_i - Y_i)^2 - (X_i + Y_i)) / (X_i + Y_i), 0-terms skipped;
    past 2^14 cells the terms are computed in cache-sized blocks, then summed once."""
    return float(_terms(counts, s_set, _t_terms).sum())


def statistic_z(counts: CountPair, s_set=None) -> float:
    """Z = sum_i ((X_i - Y_i)/m) log(1/(X_i + Y_i)), 0-terms skipped;
    blocked as :func:`statistic_t`."""
    return float(-_terms(counts, s_set, _z_terms).sum() / counts.m_nominal)


def statistic_l2(counts: CountPair) -> float:
    """Collision statistic sum_i ((X_i - Y_i)^2 - X_i - Y_i); E = m^2 ||p-q||_2^2."""
    d = np.subtract(counts.x_counts, counts.y_counts, dtype=np.float64)
    d *= d
    d -= counts.x_counts
    d -= counts.y_counts
    return float(d.sum())


def expected_t_closed_form(p, q, s: float) -> float:
    """Exact E[T] under Poissonization at per-stream budget s.

    E[T] = sum_i delta_i^2 (lambda_i - 1 + exp(-lambda_i)) with
    lambda_i = s (p_i + q_i) and delta_i = (p_i - q_i)/(p_i + q_i).
    """
    if p.probs.size != q.probs.size:
        raise DomainMismatch(f"domain sizes differ: {p.probs.size} vs {q.probs.size}")
    pv, qv = p.probs, q.probs
    tot = pv + qv
    nz = tot > 0
    delta = (pv[nz] - qv[nz]) / tot[nz]
    lam = s * tot[nz]
    return float((delta * delta * (lam - 1.0 + np.exp(-lam))).sum())


def expected_log1p_poisson(lam: float, tail_tol: float = 1e-12) -> float:
    """E[log(J + 1)] for J ~ Poi(lam), by series with a certified remainder.

    The series walks down and then up from the mode over pmf weights
    relative to the mode's and returns their log-weighted mean, so no pmf
    underflows.  Past the mode consecutive pmf ratios are at most
    ``j / lam`` downward and ``lam / (j + 1)`` upward, so each unsummed
    tail is bounded by a geometric series; each walk stops once its bound,
    relative to the weight summed so far, is below ``tail_tol / 2``, which
    keeps the result within ``tail_tol``.  By the Poisson Chernoff bound
    the walks stop within lam +- O(sqrt(lam log(1/tail_tol))), so the cost
    is O(sqrt(lam)) terms; past ``MAX_SERIES_TERMS`` terms (lam above about
    4e9 at the default tolerance) ``NonConvergent`` is raised.
    """
    if tail_tol <= 0:
        raise ValueError("tail_tol must be positive")
    if not 0 <= lam < math.inf:
        raise ValueError("lambda must be finite and non-negative")
    if lam == 0:
        return 0.0
    mode = math.floor(lam)
    log_cap = math.log(lam + 1.0)  # Jensen: E[log(J + 1)] <= log(lam + 1)
    mass = total = 0.0
    terms = 0
    # downward from the mode; w is pmf(j) / pmf(mode)
    w, j = 1.0, mode
    while j >= 0 and terms < MAX_SERIES_TERMS:
        mass += w
        total += w * math.log(j + 1.0)
        w *= j / lam
        j -= 1
        terms += 1
        if log_cap * w / (1.0 - j / lam) < 0.5 * tail_tol * mass:
            break
    # upward; the remaining terms sum to at most w (log(j+1)/(1-r) + r/((j+1)(1-r)^2))
    w, j = 1.0, mode
    while terms < MAX_SERIES_TERMS:
        w *= lam / (j + 1.0)
        j += 1
        r = lam / (j + 1.0)
        if w * (math.log(j + 1.0) / (1.0 - r) + r / ((j + 1.0) * (1.0 - r) ** 2)) < 0.5 * tail_tol * mass:
            return total / mass
        mass += w
        total += w * math.log(j + 1.0)
        terms += 1
    raise NonConvergent(f"series for lambda={lam} did not converge in {MAX_SERIES_TERMS} terms")


def exact_expected_z(p, q, m: int, tail_tol: float = 1e-12) -> float:
    """Deterministic E[Z] oracle: sum_i -(p_i - q_i) E[log(J_i + 1)]."""
    if p.probs.size != q.probs.size:
        raise DomainMismatch(f"domain sizes differ: {p.probs.size} vs {q.probs.size}")
    total = 0.0
    for pi, qi in zip(p.probs, q.probs):
        lam = m * (pi + qi)
        if lam == 0 or pi == qi:
            continue
        total += -(pi - qi) * expected_log1p_poisson(lam, tail_tol)
    return total


def z_bias_bound(p, q, m: int) -> tuple[float, float]:
    """(target, bound) of the bias inequality for Z.

    target = sum_i (p_i - q_i) log(1/(m (p_i + q_i))),
    bound  = sum_i |p_i - q_i| / (m (p_i + q_i)); skipping zero-mass terms.
    """
    pv, qv = p.probs, q.probs
    tot = pv + qv
    nz = tot > 0
    d = pv[nz] - qv[nz]
    lam = m * tot[nz]
    target = float(-(d * np.log(lam)).sum())
    bound = float((np.abs(d) / lam).sum())
    return target, bound


@dataclass(frozen=True)
class FactorialMomentResult:
    lhs_mc: float
    rhs_mc: float
    stderr: float


def factorial_moment_check(
    lam: float, order: int, f, trials: int, seed=0
) -> FactorialMomentResult:
    """Monte Carlo both sides of E[(X)_order f(X)] = lam^order E[f(X + order)].

    ``stderr`` is the combined standard error of the difference, suitable
    for a |lhs - rhs| <= 3 * stderr acceptance check.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if order < 0:
        raise ValueError("order must be >= 0")
    rng = np.random.default_rng(seed)
    x = rng.poisson(lam, size=trials).astype(np.float64)
    falling = np.ones_like(x)
    for k in range(order):
        falling *= x - k
    lhs_samples = falling * f(x)
    x2 = rng.poisson(lam, size=trials).astype(np.float64)
    rhs_samples = lam**order * f(x2 + order)
    lhs = float(lhs_samples.mean())
    rhs = float(rhs_samples.mean())
    se = math.sqrt(lhs_samples.var(ddof=1) / trials + rhs_samples.var(ddof=1) / trials)
    return FactorialMomentResult(lhs_mc=lhs, rhs_mc=rhs, stderr=se)
