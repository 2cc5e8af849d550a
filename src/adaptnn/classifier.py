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

from .core import Dataset, MetricMatrix, _check_count, _require_metric
from .metric import _table_blocks
from .softagg import _topk_means


@dataclass(frozen=True)
class FitKnn:
    """A frozen training set + metric + K, ready to answer queries."""

    train: Dataset
    metric: MetricMatrix
    k: int = 1

    def __post_init__(self):
        _check_fit(self.train, self.metric, (self.k,))


def _check_fit(train: Dataset, metric: MetricMatrix, ks) -> None:
    """The checks FitKnn makes, once for every K in ks."""
    for k in ks:
        _check_count(k, "k")
    if _require_metric(metric, "metric").dim != train.n_features:
        raise ValueError("metric dimension %d does not match %d features"
                         % (metric.dim, train.n_features))


def _queries(train: Dataset, x, one: bool = False) -> np.ndarray:
    """x as float rows of train's features: a 1-D x is one row, and with
    one=True x must be a single feature vector (a scalar when d = 1). A row
    holding a NaN or an infinity raises ValueError naming the first one."""
    q = np.asarray(x, dtype=float)
    rows = np.atleast_2d(q)
    if q.ndim > (1 if one else 2) or rows.shape[1] != train.n_features:
        raise ValueError("expected %s with %d features, got shape %s"
                         % ("one feature vector" if one else "query rows",
                            train.n_features, q.shape))
    bad = ~np.isfinite(rows).all(axis=1)
    if bad.any():
        raise ValueError("query row %d is not finite" % np.argmax(bad))
    return rows


def _scores(train: Dataset, metric: MetricMatrix, queries: np.ndarray,
            groups, ks) -> np.ndarray:
    """(len(ks), n_queries, len(groups)): each query's average of its K smallest
    distances to each group of train's rows, K capped at the group's size.

    A group is a slice (one consecutive run of rows, see _group) or an
    increasing index array, and no two groups share a row. The
    query-to-train distance table is scored row block by row block as it is
    finished, while each block is still in cache. A slice group's columns
    are read as a view of the block; an index array gathers them once.
    Values of K with the same cap are scored once. Each cap but the last
    partitions a copy of the columns; the last partitions them in place,
    which is safe because the table is this call's own and the groups are
    disjoint. Each mean is softagg._topk_means of the partitioned columns,
    which sums every row left to right whatever the block's row count or
    layout. So every score holds the same bits as topk_avg_smallest of that
    query's row of the group's distances.
    """
    scores = np.empty((len(ks), len(queries), len(groups)))
    _, blocks = _table_blocks(metric, queries, train.features)
    for lo, block in blocks:
        rows = slice(lo, lo + len(block))
        for g, group in enumerate(groups):
            cols = block[:, group]
            caps = sorted({min(k, cols.shape[1]) for k in ks})
            means = {}
            for kc in caps:
                part = cols if kc == caps[-1] else cols.copy(order="K")
                part.partition(kc - 1, axis=1)
                means[kc] = _topk_means(part, kc)
            for i, k in enumerate(ks):
                scores[i, rows, g] = means[min(k, cols.shape[1])]
    return scores


def _group(idx: np.ndarray):
    """Increasing row indices idx as a slice when they are one consecutive
    run, which _scores reads as a view of the table, else idx itself."""
    if idx.size and idx[-1] - idx[0] == idx.size - 1:
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


def _predictions(train: Dataset, metric: MetricMatrix, queries: np.ndarray,
                 ks) -> np.ndarray:
    """(len(ks), n_queries) predicted class ids, one row per K in ks."""
    classes = [_group(train.class_indices(c)) for c in range(1, train.n_classes + 1)]
    return np.argmin(_scores(train, metric, queries, classes, ks), axis=2) + 1


def decision_score(fit: FitKnn, x, c: int) -> float:
    """Bi-class score: avg-K-smallest distance to class c minus the same for
    the complement; negative means x is assigned to class c."""
    if c not in range(1, fit.train.n_classes + 1):
        raise ValueError("unknown class %s" % (c,))
    in_c = fit.train.labels == c
    own, rest = _scores(fit.train, fit.metric, _queries(fit.train, x, one=True),
                        (_group(np.flatnonzero(in_c)), _group(np.flatnonzero(~in_c))),
                        (fit.k,))[0, 0]
    return float(own - rest)


def predict(fit: FitKnn, x) -> int:
    """Predicted class id (ties broken toward the smallest id)."""
    return int(predict_batch(fit, _queries(fit.train, x, one=True))[0])


def predict_batch(fit: FitKnn, x) -> np.ndarray:
    """Vectorized predict over rows of x."""
    return _predictions(fit.train, fit.metric, _queries(fit.train, x), (fit.k,))[0]


def accuracy_by_k(train: Dataset, metric: MetricMatrix, test: Dataset,
                  k_grid) -> dict:
    """{K: accuracy on test} for every K in k_grid, all scored from one
    test-to-train distance table."""
    ks = list(dict.fromkeys(k_grid))
    _check_fit(train, metric, ks)
    preds = _predictions(train, metric, _queries(train, test.features), ks)
    return {int(k): float(np.mean(pred == test.labels)) for k, pred in zip(ks, preds)}


def accuracy(fit: FitKnn, test: Dataset) -> float:
    """Fraction of test samples whose prediction matches their label."""
    return accuracy_by_k(fit.train, fit.metric, test, (fit.k,))[fit.k]
