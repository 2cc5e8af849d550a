"""The adaptive nearest-neighbor (ANN) objective J(M), its analytic gradient,
soft per-sample distances, softmax neighbor weights, loss functions, and the
NCA/PNCA objectives.

Per sample i the model aggregates the similar-side distances into
ds_i = b(alpha) and the dissimilar-side distances into dd_i = b(1) (soft
top-K averages), then penalizes ds_i exceeding dd_i:

    J(M) = sum_i loss((ds_i - dd_i) / gamma) + lam * sum_i sum_{j in S_i} d_M(x_i, x_j)

The gradient is a weighted sum of pair outer products (x_i-x_j)(x_i-x_j)^T
with softmax weights; it is accumulated as a weighted Gram matrix of the
pair-difference rows, which keeps the per-pair cost at d^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, HyperParams, NeighborSets
from .metric import mahalanobis_sq, pairwise_sq
from .softagg import soft_agg


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
# Per-sample reference operations


def neighbor_weights(distances, alpha: float) -> np.ndarray:
    """softmax(-alpha * distances), computed with a max shift; sums to 1.

    The dissimilar side uses alpha = 1.
    """
    d = np.asarray(distances, dtype=float)
    if d.size == 0:
        raise ValueError("distances must be non-empty")
    z = -alpha * d
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def soft_distances(m, data: Dataset, nbrs: NeighborSets, alpha: float, i: int):
    """(ds_i, dd_i): soft aggregates of the similar/dissimilar distance lists.

    ds_i = b(alpha) over {d_M(x_i, x_j) : j in S_i} and dd_i = b(1) over D_i,
    both via the shifted log-sum-exp in :func:`adaptnn.softagg.soft_agg`.
    """
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    x = data.features
    sim = [mahalanobis_sq(m, x[i], x[j]) for j in nbrs.similar[i]]
    dis = [mahalanobis_sq(m, x[i], x[l]) for l in nbrs.dissimilar[i]]
    return soft_agg(sim, alpha), soft_agg(dis, 1.0)


@dataclass(frozen=True)
class PerSampleTerms:
    """Everything sample i contributes: soft distances, the loss derivative
    factor xi, and the softmax weights over S_i and D_i."""

    ds: float
    dd: float
    xi: float
    ws: np.ndarray
    wd: np.ndarray


def per_sample_terms(m, data: Dataset, nbrs: NeighborSets, hp: HyperParams,
                     i: int) -> PerSampleTerms:
    x = data.features
    sim = np.array([mahalanobis_sq(m, x[i], x[j]) for j in nbrs.similar[i]])
    dis = np.array([mahalanobis_sq(m, x[i], x[l]) for l in nbrs.dissimilar[i]])
    ds = soft_agg(sim, hp.alpha)
    dd = soft_agg(dis, 1.0)
    xi = float(hp.loss.derivative((ds - dd) / hp.gamma)) / hp.gamma
    return PerSampleTerms(ds=ds, dd=dd, xi=xi,
                          ws=neighbor_weights(sim, hp.alpha),
                          wd=neighbor_weights(dis, 1.0))


# ---------------------------------------------------------------------------
# Vectorized evaluation over flattened neighbor pairs


def _segment_lse(vals: np.ndarray, ptr: np.ndarray, counts: np.ndarray):
    """Per-segment log-sum-exp with max shift; segments are CSR slices of
    vals and are guaranteed non-empty."""
    starts = ptr[:-1]
    seg_max = np.maximum.reduceat(vals, starts)
    seg_sum = np.add.reduceat(np.exp(vals - np.repeat(seg_max, counts)), starts)
    return seg_max + np.log(seg_sum)


class PairEvaluator:
    """Objective/gradient evaluator with the pair-difference rows gathered
    once up front; the per-call work is then a weighted Gram matrix.

    Reuse one instance across optimizer iterations: the differences depend
    only on (data, nbrs), never on the metric.
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

    def _quadforms(self, mm):
        q_s = np.einsum("pi,pi->p", self.diff_s @ mm, self.diff_s)
        q_d = np.einsum("pi,pi->p", self.diff_d @ mm, self.diff_d)
        return np.maximum(q_s, 0.0), np.maximum(q_d, 0.0)

    def _soft_sides(self, q_s, q_d):
        hp = self.hp
        lse_s = _segment_lse(-hp.alpha * q_s, self.sim_ptr, self.sim_counts)
        lse_d = _segment_lse(-q_d, self.dis_ptr, self.dis_counts)
        ds = -(lse_s - np.log(self.sim_counts)) / hp.alpha
        dd = -(lse_d - np.log(self.dis_counts))
        return ds, dd, lse_s, lse_d

    def objective(self, m) -> float:
        mm = m.m if hasattr(m, "m") else np.asarray(m, dtype=float)
        q_s, q_d = self._quadforms(mm)
        ds, dd, _, _ = self._soft_sides(q_s, q_d)
        u = (ds - dd) / self.hp.gamma
        return float(self.hp.loss.value(u).sum()) + self.hp.lam * float(q_s.sum())

    def gradient(self, m) -> np.ndarray:
        mm = m.m if hasattr(m, "m") else np.asarray(m, dtype=float)
        hp = self.hp
        q_s, q_d = self._quadforms(mm)
        ds, dd, lse_s, lse_d = self._soft_sides(q_s, q_d)
        u = (ds - dd) / hp.gamma
        xi = hp.loss.derivative(u) / hp.gamma
        # softmax weight of each pair inside its own segment
        r_s = np.exp(-hp.alpha * q_s - np.repeat(lse_s, self.sim_counts))
        r_d = np.exp(-q_d - np.repeat(lse_d, self.dis_counts))
        w_s = xi[self.sim_owner] * r_s + hp.lam
        w_d = xi[self.dis_owner] * r_d
        grad = ((self.diff_s * w_s[:, None]).T @ self.diff_s
                - (self.diff_d * w_d[:, None]).T @ self.diff_d)
        return (grad + grad.T) / 2.0


def ann_objective(m, data: Dataset, nbrs: NeighborSets, hp: HyperParams) -> float:
    """J(M) = sum_i loss((ds_i - dd_i)/gamma) + lam * sum of similar-side
    distances.

    Accepts a MetricMatrix or a raw square array (needed by finite-difference
    checks, which step off the PSD cone).
    """
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
    ev = PairEvaluator(data, nbrs, HyperParams(alpha=alpha))
    mm = m.m if hasattr(m, "m") else np.asarray(m, dtype=float)
    q_s, q_d = ev._quadforms(mm)
    log_a = _segment_lse(-alpha * q_s, nbrs.sim_ptr, ev.sim_counts) / alpha
    log_b = _segment_lse(-q_d, nbrs.dis_ptr, ev.dis_counts)
    return float(_sigmoid(log_a - log_b).sum())
