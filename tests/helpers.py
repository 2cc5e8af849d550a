"""Shared test fixtures: random labeled instances and PSD matrices, plus the
reference paths that tests compare the vectorized PairEvaluator against: the
per-sample one (one pair and one sample at a time) and the listed-pair one
(every (owner, neighbor) pair scattered on its own)."""

from dataclasses import dataclass

import numpy as np

from adaptnn import Dataset, MetricMatrix, build_neighbor_sets, soft_agg
from adaptnn.softagg import _segment_soft_agg


def make_dataset(rng, n=15, d=4, classes=2, scale=1.0):
    """Random Gaussian dataset with every class guaranteed non-empty."""
    X = rng.normal(scale=scale, size=(n, d))
    y = rng.integers(1, classes + 1, size=n)
    y[:classes] = np.arange(1, classes + 1)  # every class present
    # bump tiny classes up to 2 members so neighbor sets exist
    for c in range(1, classes + 1):
        if (y == c).sum() < 2:
            y[np.flatnonzero(y != c)[-1]] = c
    return Dataset(X, y)


def make_instance(rng, n=15, d=4, classes=2, mode="all_same_class", k0=10):
    data = make_dataset(rng, n, d, classes)
    return data, build_neighbor_sets(data, mode=mode, k0=k0)


def random_psd(rng, d, jitter=0.0):
    a = rng.normal(size=(d, d))
    return a @ a.T + jitter * np.eye(d)


# ---------------------------------------------------------------------------
# Per-sample reference oracle


def mahalanobis_sq(m, a, b) -> float:
    """Squared distance (a-b)^T M (a-b); tiny negative rounding is clamped to 0.

    Accepts a MetricMatrix or a plain square array.
    """
    mm = m.m if isinstance(m, MetricMatrix) else np.asarray(m, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.shape != (mm.shape[0],):
        raise ValueError("dimension mismatch: M is %s, a is %s, b is %s"
                         % (mm.shape, a.shape, b.shape))
    diff = a - b
    return max(float(diff @ mm @ diff), 0.0)


def pairwise_sq_oracle(m, x, y=None):
    """The two-product distance table: x_i M x_i + y_j M y_j minus
    x M y^T + x M^T y^T, clamped at 0, as plain expressions with no buffers
    reused."""
    mm = m.m if isinstance(m, MetricMatrix) else np.asarray(m, dtype=float)
    x = np.asarray(x, dtype=float)
    y = x if y is None else np.asarray(y, dtype=float)
    xm = x @ mm
    qx = np.einsum("ij,ij->i", xm, x)
    qy = np.einsum("ij,ij->i", y @ mm, y)
    cross = xm @ y.T + (x @ mm.T) @ y.T
    return np.maximum(qx[:, None] + qy[None, :] - cross, 0.0)


def knn_predictions_oracle(train, metric, queries, k):
    """K-NN predictions from the whole oracle table: each class's K smallest
    distances (K capped at the class size) averaged with np.partition, argmin
    over classes."""
    table = pairwise_sq_oracle(metric, queries, train.features)
    scores = []
    for c in range(1, train.n_classes + 1):
        block = table[:, train.class_indices(c)]
        kc = min(k, block.shape[1])
        scores.append(np.partition(block, kc - 1, axis=1)[:, :kc].mean(axis=1))
    return np.argmin(np.stack(scores, axis=1), axis=1) + 1


def owners(ptr):
    """The sample that owns each pair of a CSR side with pointers ptr."""
    ptr = np.asarray(ptr)
    return np.repeat(np.arange(ptr.size - 1), np.diff(ptr))


def pair_quadforms(m, data, nbrs):
    """(q_s, q_d): d_M over every listed (owner, neighbor) pair in list
    order, one difference row x_owner - x_nbr per pair, clamped at 0."""
    mm = m.m if isinstance(m, MetricMatrix) else np.asarray(m, dtype=float)
    x = data.features

    def side(owner, nbr):
        d = x[owner] - x[nbr]
        return np.maximum(np.einsum("pi,pi->p", d @ mm, d), 0.0)

    return (side(owners(nbrs.sim_ptr), nbrs.sim_nbr),
            side(owners(nbrs.dis_ptr), nbrs.dis_nbr))


def listed_pair_evaluation(m, data, nbrs, hp):
    """(ds, dd, J, dJ/dM) with each listed pair's gradient weight scattered
    on its own to [owner, neighbor] of an N x N matrix w, symmetrized as
    w + w^T: the evaluator's operations in its order, without the
    unordered-pair rows."""
    q_s, q_d = pair_quadforms(m, data, nbrs)
    ds, e_s, tot_s = _segment_soft_agg(q_s, hp.alpha, nbrs.sim_ptr, np.diff(nbrs.sim_ptr))
    dd, e_d, tot_d = _segment_soft_agg(q_d, 1.0, nbrs.dis_ptr, np.diff(nbrs.dis_ptr))
    u = (ds - dd) / hp.gamma
    j = float(hp.loss.value(u).sum()) + hp.lam * float(q_s.sum())
    xi = hp.loss.derivative(u) / hp.gamma
    s_owner, d_owner = owners(nbrs.sim_ptr), owners(nbrs.dis_ptr)
    w_s = xi[s_owner] * (e_s / tot_s[s_owner]) + hp.lam
    w_d = xi[d_owner] * (e_d / tot_d[d_owner])
    n = data.n_samples
    w = (np.bincount(s_owner * n + nbrs.sim_nbr, w_s, n * n)
         - np.bincount(d_owner * n + nbrs.dis_nbr, w_d, n * n)).reshape(n, n)
    w = w + w.T
    xc = data.features - data.features.mean(axis=0)
    grad = (xc.T * w.sum(axis=1)) @ xc - xc.T @ (w @ xc)
    return ds, dd, j, (grad + grad.T) / 2.0


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


def side_distances(m, data, nbrs, i):
    """(similar, dissimilar): d_M(x_i, x_j) over S_i and over D_i."""
    x = data.features
    sim = np.array([mahalanobis_sq(m, x[i], x[j]) for j in nbrs.similar[i]])
    dis = np.array([mahalanobis_sq(m, x[i], x[l]) for l in nbrs.dissimilar[i]])
    return sim, dis


def soft_distances(m, data, nbrs, alpha, i):
    """(ds_i, dd_i): soft_agg of the similar list at alpha and of the
    dissimilar list at 1."""
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    sim, dis = side_distances(m, data, nbrs, i)
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


def per_sample_terms(m, data, nbrs, hp, i) -> PerSampleTerms:
    sim, dis = side_distances(m, data, nbrs, i)
    ds = soft_agg(sim, hp.alpha)
    dd = soft_agg(dis, 1.0)
    xi = float(hp.loss.derivative((ds - dd) / hp.gamma)) / hp.gamma
    return PerSampleTerms(ds=ds, dd=dd, xi=xi,
                          ws=neighbor_weights(sim, hp.alpha),
                          wd=neighbor_weights(dis, 1.0))
