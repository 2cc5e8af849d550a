"""The adaptive nearest-neighbor (ANN) objective J(M), its analytic gradient,
loss functions, and the NCA/PNCA objectives.

Per sample i the model aggregates the similar-side distances into
ds_i = b(alpha) and the dissimilar-side distances into dd_i = b(1) (soft
top-K averages), then penalizes ds_i exceeding dd_i:

    J(M) = sum_i loss((ds_i - dd_i) / gamma) + lam * sum_i sum_{j in S_i} d_M(x_i, x_j)

:class:`PairEvaluator` is the one place that turns (M, data, neighbor sets)
into soft sides, J and its gradient. The gradient is a weighted sum of pair
outer products (x_i-x_j)(x_i-x_j)^T with softmax weights; it is accumulated
as a weighted Gram matrix of the pair-difference rows, which keeps the
per-pair cost at d^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, HyperParams, MetricMatrix, NeighborSets
from .metric import pairwise_sq


# ---------------------------------------------------------------------------
# Loss functions


class Loss:
    """Scalar loss with a (sub)derivative, vectorized over numpy arrays."""

    def value(self, x):
        raise NotImplementedError

    def derivative(self, x):
        raise NotImplementedError


@dataclass(frozen=True)
class HingeLoss(Loss):
    """l(x) = max(0, x + margin). Subgradient at the kink is 0, so an exactly
    satisfied constraint exerts no descent pressure."""

    margin: float = 1.0

    def __post_init__(self):
        if self.margin < 0:
            raise ValueError("hinge margin must be >= 0")

    def value(self, x):
        return np.maximum(np.asarray(x, dtype=float) + self.margin, 0.0)

    def derivative(self, x):
        return (np.asarray(x, dtype=float) + self.margin > 0).astype(float)


@dataclass(frozen=True)
class IdentityLoss(Loss):
    """l(x) = x."""

    def value(self, x):
        return np.asarray(x, dtype=float)

    def derivative(self, x):
        return np.ones_like(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class SoftplusLoss(Loss):
    """l(x) = (1/s) * ln(1 + exp(s*(x + margin))), a smooth hinge."""

    margin: float = 0.0
    sharpness: float = 1.0

    def __post_init__(self):
        if not self.sharpness > 0:
            raise ValueError("softplus sharpness must be > 0")

    def value(self, x):
        z = self.sharpness * (np.asarray(x, dtype=float) + self.margin)
        return np.logaddexp(0.0, z) / self.sharpness

    def derivative(self, x):
        z = self.sharpness * (np.asarray(x, dtype=float) + self.margin)
        return _sigmoid(z)


def _sigmoid(z):
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# ---------------------------------------------------------------------------
# Vectorized evaluation over flattened neighbor pairs


def _segment_soft_agg(q: np.ndarray, a: float, ptr: np.ndarray, counts: np.ndarray):
    """Soft aggregate b(a) of each CSR segment of q (segments are non-empty),
    computed as :func:`adaptnn.softagg.soft_agg` does.

    Returns (b, e, total): e = exp(-a (q - shift)) per entry and total its
    per-segment sum, so e / total is each entry's softmax weight.
    """
    starts = ptr[:-1]
    lo = np.minimum.reduceat(q, starts)
    hi = np.maximum.reduceat(q, starts)
    shift = lo if a > 0 else hi
    e = np.exp(-a * (q - np.repeat(shift, counts)))
    total = np.add.reduceat(e, starts)
    b = shift - np.log(total / counts) / a
    # the shift bounds b on one side; clamp float drift on the other
    b = np.minimum(b, hi) if a > 0 else np.maximum(b, lo)
    return b, e, total


class PairEvaluator:
    """The library's single evaluator of soft sides, J(M) and dJ/dM.

    The pair-difference rows are gathered once up front, so the per-call work
    is a weighted Gram matrix. Reuse one instance across optimizer
    iterations: the differences depend only on (data, nbrs), never on the
    metric. Every method accepts a MetricMatrix or a raw square array (needed
    by finite-difference checks, which step off the PSD cone).
    """

    def __init__(self, data: Dataset, nbrs: NeighborSets, hp: HyperParams):
        if nbrs.n_samples != data.n_samples:
            raise ValueError("neighbor sets cover %d samples, dataset has %d"
                             % (nbrs.n_samples, data.n_samples))
        self.hp = hp
        x = data.features
        self.diff_s = x[nbrs.sim_owner] - x[nbrs.sim_nbr]
        self.diff_d = x[nbrs.dis_owner] - x[nbrs.dis_nbr]
        self.sim_owner, self.dis_owner = nbrs.sim_owner, nbrs.dis_owner
        self.sim_ptr, self.dis_ptr = nbrs.sim_ptr, nbrs.dis_ptr
        self.sim_counts = np.diff(nbrs.sim_ptr)
        self.dis_counts = np.diff(nbrs.dis_ptr)

    def _quadforms(self, m):
        mm = m.m if isinstance(m, MetricMatrix) else np.asarray(m, dtype=float)
        q_s = np.einsum("pi,pi->p", self.diff_s @ mm, self.diff_s)
        q_d = np.einsum("pi,pi->p", self.diff_d @ mm, self.diff_d)
        return np.maximum(q_s, 0.0), np.maximum(q_d, 0.0)

    def _soft_sides(self, q_s, q_d):
        sim = _segment_soft_agg(q_s, self.hp.alpha, self.sim_ptr, self.sim_counts)
        dis = _segment_soft_agg(q_d, 1.0, self.dis_ptr, self.dis_counts)
        return sim, dis

    def soft_sides(self, m):
        """(ds, dd): per-sample soft aggregates b(alpha) over the similar-side
        distances and b(1) over the dissimilar-side distances."""
        (ds, _, _), (dd, _, _) = self._soft_sides(*self._quadforms(m))
        return ds, dd

    def objective(self, m) -> float:
        q_s, q_d = self._quadforms(m)
        (ds, _, _), (dd, _, _) = self._soft_sides(q_s, q_d)
        u = (ds - dd) / self.hp.gamma
        return float(self.hp.loss.value(u).sum()) + self.hp.lam * float(q_s.sum())

    def gradient(self, m) -> np.ndarray:
        hp = self.hp
        q_s, q_d = self._quadforms(m)
        (ds, e_s, tot_s), (dd, e_d, tot_d) = self._soft_sides(q_s, q_d)
        u = (ds - dd) / hp.gamma
        xi = hp.loss.derivative(u) / hp.gamma
        # softmax weight of each pair inside its own segment (in place)
        r_s = np.divide(e_s, np.repeat(tot_s, self.sim_counts), out=e_s)
        r_d = np.divide(e_d, np.repeat(tot_d, self.dis_counts), out=e_d)
        w_s = xi[self.sim_owner] * r_s + hp.lam
        w_d = xi[self.dis_owner] * r_d
        grad = ((self.diff_s * w_s[:, None]).T @ self.diff_s
                - (self.diff_d * w_d[:, None]).T @ self.diff_d)
        return (grad + grad.T) / 2.0


def ann_objective(m, data: Dataset, nbrs: NeighborSets, hp: HyperParams) -> float:
    """J(M) = sum_i loss((ds_i - dd_i)/gamma) + lam * sum of similar-side
    distances, through a one-off :class:`PairEvaluator`."""
    return PairEvaluator(data, nbrs, hp).objective(m)


def ann_gradient(m, data: Dataset, nbrs: NeighborSets, hp: HyperParams) -> np.ndarray:
    """Analytic gradient dJ/dM, an exactly symmetric d x d array.

    Each pair (i, j in S_i) contributes (xi_i r^s_ij + lam) X_ij and each
    (i, l in D_i) contributes -xi_i r^d_il X_il, with X_ab the outer product
    of the difference vector and xi_i = loss'((ds_i - dd_i)/gamma) / gamma.
    """
    return PairEvaluator(data, nbrs, hp).gradient(m)


# ---------------------------------------------------------------------------
# NCA and PNCA objectives (reporting and equivalence checks; not trained)


def nca_objective(m, data: Dataset) -> float:
    """Expected leave-one-out score sum_i sum_{j ~ i} p_ij with softmax
    neighbor probabilities p_ij = exp(-d_ij) / sum_{k != i} exp(-d_ik)."""
    full = pairwise_sq(m, data.features)
    z = -full
    np.fill_diagonal(z, -np.inf)
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    same = data.labels[:, None] == data.labels[None, :]
    np.fill_diagonal(same, False)
    return float(p[same].sum())


def pnca_objective(m, data: Dataset, nbrs: NeighborSets, alpha: float) -> float:
    """sum_i A_i / (A_i + B_i) with A_i = (sum_{j in S_i} e^{-alpha d})^(1/alpha)
    and B_i = sum_{l in D_i} e^{-d}, evaluated in log space.

    With alpha = 1 and S_i/D_i the full same/other-class sets this equals
    :func:`nca_objective`. Each summand lies in (0, 1).
    """
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    ds, dd = PairEvaluator(data, nbrs, HyperParams(alpha=alpha)).soft_sides(m)
    # ln A_i = ln|S_i|/alpha - ds_i and ln B_i = ln|D_i| - dd_i
    log_a = np.log(np.diff(nbrs.sim_ptr)) / alpha - ds
    log_b = np.log(np.diff(nbrs.dis_ptr)) - dd
    return float(_sigmoid(log_a - log_b).sum())
