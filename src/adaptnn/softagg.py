"""Scalar aggregation: exact top-K averages, the soft aggregate b(gamma), and
the gamma* solver.

b(gamma) = -(1/gamma) * ln( (1/n) * sum_i exp(-gamma * a_i) ) interpolates
between the minimum (gamma -> +inf), the mean (gamma -> 0) and the maximum
(gamma -> -inf) of a list, and for every K there is a gamma* at which it
equals the average of the K smallest (gamma* > 0) or K largest (gamma* < 0)
values. gamma = 0 itself is excluded; callers use the plain mean there.
Every top-K average, the K-NN scorer's included, is taken by _topk_means.
"""

from __future__ import annotations

import math

import numpy as np

from .core import _check_count

# solve_gamma_star's residual target, relative to 1 + |target|.
RESIDUAL_RTOL = 1e-8


def _check_values(values) -> np.ndarray:
    a = np.asarray(values, dtype=float)
    if a.ndim != 1:
        a = a.ravel()
    if a.size == 0:
        raise ValueError("values must be non-empty")
    if not np.all(np.isfinite(a)):
        raise ValueError("values must be finite")
    return a


def _topk_means(part: np.ndarray, k: int) -> np.ndarray:
    """Mean of the first k entries of each row of a 2-D array, each row summed
    left to right: an accumulate is sequential whatever the row count or
    memory layout, where a sum over a row may go pairwise. With part
    partitioned at k - 1, this is each row's average of its K smallest
    values, as topk_avg_smallest and the K-NN scorer take it."""
    return np.add.accumulate(part[:, :k].T, axis=0)[-1] / k


def topk_avg_smallest(values, k: int) -> float:
    """Average of the K smallest values; ties resolved by value, not index.
    The one-row case of _topk_means."""
    a = _check_values(values)
    _check_count(k, "K")
    if k > a.size:
        raise ValueError("K must be in [1, %d], got %d" % (a.size, k))
    return float(_topk_means(np.partition(a, k - 1)[None], k)[0])


def topk_avg_largest(values, k: int) -> float:
    """Average of the K largest values: minus the average of the K smallest
    of the negated values."""
    return -topk_avg_smallest(-_check_values(values), k)


def soft_agg(values, gamma: float) -> float:
    """The soft aggregate b(gamma), computed with a min/max shift.

    Shifting by m* = min(a) for gamma > 0 (max(a) for gamma < 0) keeps every
    exponent <= 0, so no intermediate overflows:

        b(gamma) = m* - (1/gamma) * ln( (1/n) * sum exp(-gamma (a_i - m*)) )

    The result always lies in [min(a), max(a)]. This is the one-segment case
    of the per-sample aggregate that the training objective uses.
    """
    a = _check_values(values)
    if not math.isfinite(gamma):
        raise ValueError("gamma must be finite, got %g" % gamma)
    if gamma == 0:
        raise ValueError("gamma must be nonzero; use the plain mean for gamma=0")
    b, _, _ = _segment_soft_agg(a, gamma, np.array([0, a.size]), np.array([a.size]))
    return float(b[0])


def _segment_soft_agg(q: np.ndarray, a: float, ptr: np.ndarray, counts: np.ndarray):
    """Soft aggregate b(a) of each CSR segment q[ptr[i]:ptr[i + 1]]; the
    segments are non-empty and counts holds their sizes.

    Returns (b, e, total): e = exp(-a (q - shift)) per entry and total its
    per-segment sum, so e / total is each entry's softmax weight.
    """
    starts = ptr[:-1]
    lo = np.minimum.reduceat(q, starts)
    hi = np.maximum.reduceat(q, starts)
    shift = lo if a > 0 else hi
    # exp(-a (q - shift)) in one buffer: shift - q is exactly -(q - shift),
    # and a (-x) is exactly (-a) x
    e = shift.repeat(counts)
    np.subtract(e, q, out=e)
    if a != 1.0:
        np.multiply(e, a, out=e)
    np.exp(e, out=e)
    total = np.add.reduceat(e, starts)
    b = np.log(total / counts)
    if a != 1.0:
        b /= a
    b = shift - b
    # the shift bounds b on one side; clamp float drift on the other
    b = np.minimum(b, hi) if a > 0 else np.maximum(b, lo)
    return b, e, total


def solve_gamma_star(values, k: int, mode: str = "smallest") -> float:
    """Find gamma* with b(gamma*) equal to the average of the K smallest
    (mode="smallest", gamma* > 0) or K largest (mode="largest", gamma* < 0)
    values, to the residual |b(gamma*) - target| <= 1e-8 * (1 + |target|).

    The largest mode is the smallest mode of the negated values: b(-g; a) =
    -b(g; -a), and the K largest of a are minus the K smallest of -a.

    Sentinel: 0.0 when the target equals the plain mean (K = n, or constant
    values), attained only in the gamma -> 0 limit.

    Every other solve is one bisection of f = b - target on (0, hi] with
    hi = 2 ln(n) / max(target - min(a), res_tol). b is strictly decreasing
    and tends to the mean > target as gamma -> 0, so f > 0 near 0. The sum
    in b holds the term exp(0) = 1, so b(gamma) - min(a) <= ln(n) / gamma,
    and at hi that bound is half of max(target - min(a), res_tol): either
    f(hi) <= -(target - min(a)) / 2 < 0, or the target is within res_tol of
    the minimum (K = 1 always) and |f(hi)| <= res_tol. The bisection returns
    the first midpoint that meets the residual, or the midpoint that rounds
    to an end of the bracket, which is then two adjacent floats; so the
    loop always ends.
    """
    a = _check_values(values)
    if mode == "largest":
        # 0.0 - keeps the 0 sentinel at +0.0
        return 0.0 - solve_gamma_star(-a, k, "smallest")
    if mode != "smallest":
        raise ValueError("mode must be 'smallest' or 'largest', got %r" % (mode,))
    target = topk_avg_smallest(a, k)
    if k == a.size or a.min() == a.max() or target == float(a.mean()):
        return 0.0

    res_tol = RESIDUAL_RTOL * (1.0 + abs(target))
    lo = 0.0
    hi = 2.0 * math.log(a.size) / max(target - float(a.min()), res_tol)
    while True:
        mid = (lo + hi) / 2.0
        fm = soft_agg(a, mid) - target
        if abs(fm) <= res_tol or mid == lo or mid == hi:
            return mid
        if fm > 0:
            lo = mid
        else:
            hi = mid
