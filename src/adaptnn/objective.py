"""The adaptive nearest-neighbor (ANN) objective J(M), its analytic gradient,
loss functions, and the NCA/PNCA objectives.

Per sample i the model aggregates the similar-side distances into
ds_i = b(alpha) and the dissimilar-side distances into dd_i = b(1) (soft
top-K averages), then penalizes ds_i exceeding dd_i:

    J(M) = sum_i loss((ds_i - dd_i) / gamma) + lam * sum_i sum_{j in S_i} d_M(x_i, x_j)

:class:`PairEvaluator` is the one place that turns (M, data, neighbor sets)
into soft sides, J and its gradient. The gradient is a weighted sum of pair
outer products (x_i-x_j)(x_i-x_j)^T with softmax weights w_ij. Scattered
into an N x N matrix w and symmetrized as W = w + w^T, that sum is the
weighted-Laplacian form X^T (diag(W 1) - W) X (the identity NCA
implementations use), so the per-call gradient work is O(P + N^2 d) instead
of d^2 per pair. X is centred first: the Laplacian annihilates constant
columns, so the result is the same, but without the centring a large common
offset in the features cancels catastrophically. The descent loop asks for J
and then dJ/dM at each accepted iterate; the evaluator computes that
iterate's quadratic forms and soft sides once and hands them from the one
call to the other.

The evaluator reads the neighbor sets as their CSR arrays and reduces every
sample's segment of distances with the per-segment soft aggregate of
:mod:`adaptnn.softagg`; its :func:`~adaptnn.softagg.soft_agg` is the
one-segment case. Since d_M is symmetric, it keeps one difference row per
unordered pair {i, j}, however many of the two sides list it as (i, j) or
(j, i), and two inverse maps from the similar and the dissimilar pairs to
those rows. D_i is every other-class sample, so each dissimilar pair is
listed twice, and so is each similar pair under "all_same_class": each
quadratic form is computed once instead. The pass runs over the rows in
fixed-size blocks, so its product with M stays cache-sized at any N. The
gradient sums each row's pair weights through the same maps and scatters
them once, to the row's (min, max) entry of w.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, HyperParams, MetricMatrix, NeighborSets
from .metric import _as_array, pairwise_sq
from .softagg import _segment_soft_agg


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
# Vectorized evaluation over the neighbor pairs, one row per unordered pair


# unique pair rows per quadratic-form block: the block's (rows x d) product
# with M stays cache-sized instead of growing with the pair count
_BLOCK_ROWS = 8192


def _blocks(rows):
    return [slice(lo, lo + _BLOCK_ROWS) for lo in range(0, rows, _BLOCK_ROWS)]


class PairEvaluator:
    """The library's single evaluator of soft sides, J(M) and dJ/dM.

    The difference rows ``diff`` (one per unordered pair, x_min - x_max),
    their keys min*N + max, the maps ``inv_s``/``inv_d`` from each similar
    and dissimilar pair to its row and the centred features are built once
    up front; each pair's owner is derived from the CSR pointers only to
    key the rows. Reuse one instance across optimizer iterations: none of
    them depends on the metric. Every method accepts a MetricMatrix or a
    raw square array (needed by finite-difference checks, which step off
    the PSD cone).

    The quadratic forms d_M of the pairs are the only per-pair d^2 work and
    always come from the difference rows, which keeps J free of
    cancellation. They are computed once per row, block by block, and read
    out per pair through the inverse maps; negating a row is exact, so they
    equal the per-pair forms bit for bit. The gradient is formed as the
    centred weighted Laplacian Xc^T (diag(W 1) - W) Xc, where W is the
    symmetrized N x N matrix of pair weights. Each row's weights are summed
    and written to its (min, max) entry before w + w^T; when every
    unordered pair is listed on one side only and at most once each way,
    as in every set :func:`~adaptnn.data.build_neighbor_sets` makes, W
    equals the per-listed-pair scatter bit for bit.

    :meth:`objective` keeps a one-entry memo of the soft sides it computed
    at a MetricMatrix (immutable, so identity means the same matrix); a
    :meth:`gradient` call at that same object reuses them, which is the
    descent loop's objective-then-gradient pattern, and drops the memo.
    Raw arrays are never memoized, since they can be changed in place. The
    memo makes an instance unfit for concurrent use from several threads.
    """

    def __init__(self, data: Dataset, nbrs: NeighborSets, hp: HyperParams):
        if nbrs.n_samples != data.n_samples:
            raise ValueError("neighbor sets cover %d samples, dataset has %d"
                             % (nbrs.n_samples, data.n_samples))
        self.hp = hp
        x = data.features
        n = data.n_samples
        self.sim_ptr, self.dis_ptr = nbrs.sim_ptr, nbrs.dis_ptr
        self.sim_counts = nbrs.sim_ptr[1:] - nbrs.sim_ptr[:-1]
        self.dis_counts = nbrs.dis_ptr[1:] - nbrs.dis_ptr[:-1]
        # one row per unordered pair, keyed min*n + max; a pair listed as both
        # (i, j) and (j, i) shares its row
        s_owner = np.repeat(np.arange(n), self.sim_counts)
        d_owner = np.repeat(np.arange(n), self.dis_counts)
        key_s = np.minimum(s_owner * n + nbrs.sim_nbr, nbrs.sim_nbr * n + s_owner)
        key_d = np.minimum(d_owner * n + nbrs.dis_nbr, nbrs.dis_nbr * n + d_owner)
        del s_owner, d_owner
        seen = np.zeros(n * n, dtype=bool)
        seen[key_s] = True
        seen[key_d] = True
        self.keys = np.flatnonzero(seen)
        row = np.empty(n * n, dtype=np.intp)
        row[self.keys] = np.arange(self.keys.size)
        self.inv_s, self.inv_d = row[key_s], row[key_d]
        del seen, row, key_s, key_d  # before the rows are allocated
        lo, hi = np.divmod(self.keys, n)
        self.diff = np.empty((self.keys.size, x.shape[1]))
        for b in _blocks(self.keys.size):
            np.subtract(x[lo[b]], x[hi[b]], out=self.diff[b])
        self.xc = x - x.mean(axis=0)
        self._memo = None  # (MetricMatrix, sim, dis, u) of the last objective

    def _quadforms(self, m):
        mm = _as_array(m)
        q = np.empty(self.diff.shape[0])
        for b in _blocks(q.size):
            np.einsum("pi,pi->p", self.diff[b] @ mm, self.diff[b], out=q[b])
        np.maximum(q, 0.0, out=q)
        return q[self.inv_s], q[self.inv_d]

    def _soft_sides(self, q_s, q_d):
        sim = _segment_soft_agg(q_s, self.hp.alpha, self.sim_ptr, self.sim_counts)
        dis = _segment_soft_agg(q_d, 1.0, self.dis_ptr, self.dis_counts)
        return sim, dis

    def soft_sides(self, m):
        """(ds, dd): per-sample soft aggregates b(alpha) over the similar-side
        distances and b(1) over the dissimilar-side distances."""
        (ds, _, _), (dd, _, _) = self._soft_sides(*self._quadforms(m))
        return ds, dd

    def _evaluate(self, m):
        q_s, q_d = self._quadforms(m)
        sim, dis = self._soft_sides(q_s, q_d)
        u = (sim[0] - dis[0]) / self.hp.gamma
        return q_s, sim, dis, u

    def objective(self, m) -> float:
        self._memo = None  # free the last iterate's arrays before new ones
        q_s, sim, dis, u = self._evaluate(m)
        if isinstance(m, MetricMatrix):
            self._memo = (m, sim, dis, u)
        return float(self.hp.loss.value(u).sum()) + self.hp.lam * float(q_s.sum())

    def gradient(self, m) -> np.ndarray:
        hp = self.hp
        memo, self._memo = self._memo, None
        if memo is not None and memo[0] is m:
            _, (_, e_s, tot_s), (_, e_d, tot_d), u = memo
        else:
            _, (_, e_s, tot_s), (_, e_d, tot_d), u = self._evaluate(m)
        xi = hp.loss.derivative(u) / hp.gamma
        # softmax weight of each pair inside its own segment (in place)
        r_s = np.divide(e_s, np.repeat(tot_s, self.sim_counts), out=e_s)
        r_d = np.divide(e_d, np.repeat(tot_d, self.dis_counts), out=e_d)
        w_s = np.repeat(xi, self.sim_counts) * r_s + hp.lam
        w_d = np.repeat(xi, self.dis_counts) * r_d
        # each unordered pair's weight, summed over its listings, lands in the
        # upper triangle; w + w.T mirrors it
        rows = self.keys.size
        n = self.xc.shape[0]
        w = np.zeros(n * n)
        w[self.keys] = (np.bincount(self.inv_s, w_s, rows)
                        - np.bincount(self.inv_d, w_d, rows))
        w = w.reshape(n, n)
        w = w + w.T
        grad = (self.xc.T * w.sum(axis=1)) @ self.xc - self.xc.T @ (w @ self.xc)
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
    ds, dd = PairEvaluator(data, nbrs, HyperParams(alpha=alpha)).soft_sides(m)
    # ln A_i = ln|S_i|/alpha - ds_i and ln B_i = ln|D_i| - dd_i
    log_a = np.log(np.diff(nbrs.sim_ptr)) / alpha - ds
    log_b = np.log(np.diff(nbrs.dis_ptr)) - dd
    return float(_sigmoid(log_a - log_b).sum())
