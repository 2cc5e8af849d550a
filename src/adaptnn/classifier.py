"""K-NN prediction under a learned metric.

The per-class score of a query is the average of its K smallest distances to
that class; the predicted label is the argmin over classes (a one-vs-rest
rule, with K capped at the class size). Scores scale linearly with the
metric, so predictions are invariant under positive rescaling of M.

Ties go to the smallest class id. Under the all-zero metric every distance
and so every class score is 0, and every query is assigned class 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, MetricMatrix
from .metric import pairwise_sq
from .softagg import topk_avg_smallest


@dataclass(frozen=True)
class FitKnn:
    """A frozen training set + metric + K, ready to answer queries."""

    train: Dataset
    metric: MetricMatrix
    k: int = 1

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.metric.dim != self.train.n_features:
            raise ValueError("metric dimension %d does not match %d features"
                             % (self.metric.dim, self.train.n_features))


def _class_score_table(train: Dataset, dists: np.ndarray, k: int) -> np.ndarray:
    """(n_queries, n_classes) table of average-K-smallest distances, from the
    query-to-train distance table."""
    scores = np.empty((dists.shape[0], train.n_classes))
    for c in range(1, train.n_classes + 1):
        cols = train.class_indices(c)
        kc = min(k, cols.size)
        part = np.partition(dists[:, cols], kc - 1, axis=1)[:, :kc]
        scores[:, c - 1] = part.mean(axis=1)
    return scores


def decision_score(fit: FitKnn, x, c: int) -> float:
    """Bi-class score: avg-K-smallest distance to class c minus the same for
    the complement; negative means x is assigned to class c."""
    if not 1 <= c <= fit.train.n_classes:
        raise ValueError("unknown class %d" % c)
    x = np.asarray(x, dtype=float)
    dists = pairwise_sq(fit.metric, x[None, :], fit.train.features)[0]
    in_c = fit.train.labels == c
    d_in = dists[in_c]
    d_out = dists[~in_c]
    k_in = min(fit.k, d_in.size)
    k_out = min(fit.k, d_out.size)
    return topk_avg_smallest(d_in, k_in) - topk_avg_smallest(d_out, k_out)


def predict(fit: FitKnn, x) -> int:
    """Predicted class id (ties broken toward the smallest id)."""
    return int(predict_batch(fit, x)[0])


def predict_batch(fit: FitKnn, x) -> np.ndarray:
    """Vectorized predict over rows of x."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    dists = pairwise_sq(fit.metric, x, fit.train.features)
    return np.argmin(_class_score_table(fit.train, dists, fit.k), axis=1) + 1


def accuracy_by_k(train: Dataset, metric: MetricMatrix, test: Dataset,
                  k_grid) -> dict:
    """{K: accuracy on test} for every K in k_grid, all scored from one
    test-to-train distance table."""
    fits = [FitKnn(train=train, metric=metric, k=int(k)) for k in k_grid]
    if test.n_features != train.n_features:
        raise ValueError("test has %d features, train has %d"
                         % (test.n_features, train.n_features))
    dists = pairwise_sq(metric, test.features, train.features)
    out = {}
    for fit in fits:
        pred = np.argmin(_class_score_table(train, dists, fit.k), axis=1) + 1
        out[fit.k] = float(np.mean(pred == test.labels))
    return out


def accuracy(fit: FitKnn, test: Dataset) -> float:
    """Fraction of test samples whose prediction matches their label."""
    return accuracy_by_k(fit.train, fit.metric, test, (fit.k,))[fit.k]
