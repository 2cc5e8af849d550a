"""K-NN prediction under a learned metric.

The per-class score of a query is the average of its K smallest distances to
that class; the predicted label is the argmin over classes (a one-vs-rest
rule, with K capped at the class size). Scores scale linearly with the
metric, so predictions are invariant under positive rescaling of M.
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


def _class_score_table(fit: FitKnn, x: np.ndarray) -> np.ndarray:
    """(n_queries, n_classes) table of average-K-smallest distances."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    dists = pairwise_sq(fit.metric, x, fit.train.features)
    scores = np.empty((x.shape[0], fit.train.n_classes))
    for c in range(1, fit.train.n_classes + 1):
        cols = fit.train.class_indices(c)
        kc = min(fit.k, cols.size)
        block = dists[:, cols]
        part = np.partition(block, kc - 1, axis=1)[:, :kc]
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
    scores = _class_score_table(fit, np.asarray(x, dtype=float))
    return int(np.argmin(scores[0]) + 1)


def predict_batch(fit: FitKnn, x) -> np.ndarray:
    """Vectorized predict over rows of x."""
    scores = _class_score_table(fit, x)
    return np.argmin(scores, axis=1) + 1


def accuracy(fit: FitKnn, test: Dataset) -> float:
    """Fraction of test samples whose prediction matches their label."""
    if test.n_features != fit.train.n_features:
        raise ValueError("test has %d features, train has %d"
                         % (test.n_features, fit.train.n_features))
    pred = predict_batch(fit, test.features)
    return float(np.mean(pred == test.labels))
