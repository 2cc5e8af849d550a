"""Projected gradient descent with multiplicative step-size adaptation.

Each iteration forms the candidate psd_project(M - eta * grad J(M)) and keeps
it only if the objective strictly decreases; the step size grows by 1.05 on
acceptance and halves on rejection. The gradient is taken only at an accepted
iterate (a rejection leaves it unchanged), from the evaluation that scored it,
so each iterate's quadratic forms are computed once; each evaluation is
dropped once used, so the loop never holds two.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Optional

import numpy as np

from .core import (Dataset, HyperParams, MetricMatrix, NeighborSets, TrainReport,
                   _require_metric)
from .metric import psd_project
from .objective import PairEvaluator

ETA_MIN = 1e-12
MAX_CONSECUTIVE_REJECTIONS = 30


class DivergenceError(RuntimeError):
    """Objective or gradient became non-finite; carries the failing iteration."""

    def __init__(self, message, iteration, metric):
        super().__init__(message)
        self.iteration = iteration
        self.metric = metric


def default_init(data: Dataset) -> MetricMatrix:
    """Initial iterate I / sqrt(N)."""
    return MetricMatrix(np.eye(data.n_features) / np.sqrt(data.n_samples))


def train(data: Dataset, nbrs: NeighborSets, hp: HyperParams,
          init: Optional[MetricMatrix] = None,
          callback: Optional[Callable] = None,
          evaluator: Optional[PairEvaluator] = None) -> TrainReport:
    """Run the descent loop for hp.max_iters iterations (or until the step
    size collapses below ETA_MIN / 30 consecutive rejections); the report's
    stop_reason records which of the three ended it.

    callback, if given, receives (iteration, objective, eta, accepted) after
    every iteration.

    evaluator, if given, is a :class:`PairEvaluator` built from this data's
    features and this nbrs (a ValueError otherwise), and the fit reuses its
    pair structure, so fits of several hyperparameter cells on one
    cross-validation fold share one; if None, the fit builds its own. The
    report is the same either way, bit for bit.
    """
    if init is None:
        init = default_init(data)
    if _require_metric(init, "init").dim != data.n_features:
        raise ValueError("init metric is %dx%d but data has %d features"
                         % (init.dim, init.dim, data.n_features))
    if evaluator is not None and (evaluator.nbrs is not nbrs
                                  or evaluator.x is not data.features):
        raise ValueError("evaluator was built for other data or neighbor sets")

    start = time.perf_counter()
    if evaluator is None:
        evaluator = PairEvaluator(data, nbrs)  # pair differences gathered once
    m = init
    eta = hp.eta0
    at = evaluator.objective(m, hp)  # kept only while its gradient is due
    j_best = at.j
    if not math.isfinite(j_best):
        raise DivergenceError("objective non-finite at the initial iterate", 0, m)
    trace = [(0, j_best, eta, True)]
    rejections = 0
    iterations = 0
    stop_reason = "max_iters"

    for it in range(1, hp.max_iters + 1):
        if at is not None:
            grad = evaluator.gradient(at)
            at = None  # before the candidate's evaluation is allocated
            if not np.isfinite(grad).all():
                raise DivergenceError("gradient non-finite at iteration %d" % it, it, m)
        candidate = psd_project(m.m - eta * grad)
        at = evaluator.objective(candidate, hp)
        j_cand = at.j
        if not math.isfinite(j_cand):
            raise DivergenceError("objective non-finite at iteration %d" % it, it, m)
        accepted = j_cand < j_best
        trace.append((it, j_cand, eta, accepted))
        if callback is not None:
            callback(it, j_cand, eta, accepted)
        iterations = it
        if accepted:
            m = candidate
            j_best = j_cand
            eta *= 1.05
            rejections = 0
        else:
            at = None
            eta *= 0.5
            rejections += 1
        if eta < ETA_MIN:
            stop_reason = "eta_floor"
            break
        if rejections >= MAX_CONSECUTIVE_REJECTIONS:
            stop_reason = "rejection_cap"
            break

    return TrainReport(final_metric=m,
                       objective_trace=tuple(trace),
                       iterations_run=iterations,
                       wall_time_seconds=time.perf_counter() - start,
                       stop_reason=stop_reason)
