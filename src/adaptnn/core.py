"""Shared domain types: datasets, metric matrices, neighbor sets, hyperparameters.

All types are immutable after construction (arrays are marked read-only), so
they can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

SYMMETRY_TOL = 1e-9
EIG_FLOOR = -1e-10


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a)
    out.flags.writeable = False
    return out


class Dataset:
    """N labeled feature vectors in d dimensions.

    Labels are contiguous integers 1..C (loaders remap arbitrary tokens).
    Construction validates all invariants; see :func:`validate`.
    """

    __slots__ = ("features", "labels", "names", "n_samples", "n_features", "n_classes")

    def __init__(self, features, labels, names: Optional[Sequence[str]] = None):
        self.features = _readonly(np.asarray(features, dtype=float))
        self.labels = _readonly(np.asarray(labels, dtype=int))
        self.names = tuple(names) if names is not None else None
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D array, got ndim=%d" % self.features.ndim)
        self.n_samples, self.n_features = self.features.shape
        self.n_classes = int(self.labels.max(initial=0))
        validate(self)

    def class_indices(self, c: int) -> np.ndarray:
        """Indices of samples with label c."""
        return np.flatnonzero(self.labels == c)

    def __repr__(self):
        return "Dataset(n=%d, d=%d, classes=%d)" % (
            self.n_samples, self.n_features, self.n_classes)


def validate(dataset: Dataset) -> None:
    """Raise ValueError on the first violated Dataset invariant."""
    X, y = dataset.features, dataset.labels
    n, d = X.shape
    if n < 2:
        raise ValueError("N >= 2 required, got N=%d" % n)
    if d < 1:
        raise ValueError("d >= 1 required, got d=%d" % d)
    if y.shape != (n,):
        raise ValueError("labels must have shape (%d,), got %s" % (n, y.shape))
    if not np.all(np.isfinite(X)):
        i, j = np.argwhere(~np.isfinite(X))[0]
        raise ValueError("non-finite value at sample %d, feature %d" % (i, j))
    if y.min(initial=1) < 1:
        raise ValueError("labels must be >= 1, got %d" % y.min())
    c = int(y.max())
    if c < 2:
        raise ValueError("C >= 2 required, got C=%d" % c)
    counts = np.bincount(y, minlength=c + 1)[1:]
    if (counts == 0).any():
        raise ValueError("class %d has no samples" % (int(np.flatnonzero(counts == 0)[0]) + 1))
    if dataset.names is not None and len(dataset.names) != d:
        raise ValueError("expected %d column names, got %d" % (d, len(dataset.names)))


class MetricMatrix:
    """Symmetric positive-semidefinite d x d matrix parameterizing the distance.

    The input is symmetrized via (M + M^T)/2 to absorb floating-point drift,
    but inputs asymmetric beyond ``SYMMETRY_TOL`` or with an eigenvalue below
    ``EIG_FLOOR`` are rejected.
    """

    __slots__ = ("m", "dim")

    def __init__(self, m):
        m = np.asarray(m, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("metric must be square, got shape %s" % (m.shape,))
        if not np.all(np.isfinite(m)):
            raise ValueError("metric contains non-finite entries")
        asym = np.abs(m - m.T).max(initial=0.0)
        if asym > SYMMETRY_TOL:
            raise ValueError("metric not symmetric: max |M - M^T| = %g" % asym)
        sym = (m + m.T) / 2.0
        w = np.linalg.eigvalsh(sym)
        if w.min() < EIG_FLOOR:
            raise ValueError("metric not PSD: smallest eigenvalue = %g" % w.min())
        self.m = _readonly(sym)
        self.dim = sym.shape[0]

    @classmethod
    def _trusted(cls, sym: np.ndarray) -> "MetricMatrix":
        """Wrap a matrix that is exactly symmetric and PSD by construction
        (the output of :func:`adaptnn.metric.psd_project`) without the
        eigenvalue re-check; the stored matrix is the one __init__ would store."""
        out = cls.__new__(cls)
        out.m = _readonly(sym)
        out.dim = sym.shape[0]
        return out

    @classmethod
    def identity(cls, d: int) -> "MetricMatrix":
        return cls(np.eye(d))

    def scaled(self, c: float) -> "MetricMatrix":
        if c < 0:
            raise ValueError("scale must be >= 0 to stay on the PSD cone")
        return MetricMatrix(self.m * c)

    def __repr__(self):
        return "MetricMatrix(dim=%d)" % self.dim


class NeighborSets:
    """Per-sample similarity sets S_i (same class) and dissimilarity sets D_i.

    Stores one index array per sample plus flattened pair arrays (owner index,
    neighbor index, CSR-style segment pointers) precomputed for the vectorized
    objective and gradient paths.
    """

    __slots__ = ("similar", "dissimilar",
                 "sim_owner", "sim_nbr", "sim_ptr",
                 "dis_owner", "dis_nbr", "dis_ptr")

    def __init__(self, similar, dissimilar, labels=None):
        n = len(similar)
        if len(dissimilar) != n:
            raise ValueError("similar and dissimilar must have equal length")
        sim = tuple(_readonly(np.asarray(s, dtype=int)) for s in similar)
        dis = tuple(_readonly(np.asarray(d, dtype=int)) for d in dissimilar)
        for i in range(n):
            if sim[i].size == 0 or dis[i].size == 0:
                raise ValueError("empty neighbor set for sample %d" % i)
            if i in sim[i] or i in dis[i]:
                raise ValueError("sample %d contained in its own neighbor set" % i)
        self.sim_owner, self.sim_nbr, self.sim_ptr = self._flatten(sim)
        self.dis_owner, self.dis_nbr, self.dis_ptr = self._flatten(dis)
        for side, nbr in (("similar", self.sim_nbr), ("dissimilar", self.dis_nbr)):
            if nbr.min(initial=0) < 0 or nbr.max(initial=-1) >= n:
                raise ValueError("%s neighbor index out of range [0, %d)" % (side, n))
        if labels is not None:
            labels = np.asarray(labels)
            for i in range(n):
                if not np.all(labels[sim[i]] == labels[i]):
                    raise ValueError("S_%d contains a different-class sample" % i)
                if np.any(labels[dis[i]] == labels[i]):
                    raise ValueError("D_%d contains a same-class sample" % i)
        self.similar = sim
        self.dissimilar = dis

    @staticmethod
    def _flatten(sets):
        counts = np.array([s.size for s in sets], dtype=int)
        ptr = np.concatenate(([0], np.cumsum(counts)))
        owner = np.repeat(np.arange(len(sets)), counts)
        nbr = np.concatenate(sets) if sets else np.empty(0, dtype=int)
        return _readonly(owner), _readonly(nbr), _readonly(ptr)

    @property
    def n_samples(self) -> int:
        return len(self.similar)

    def __repr__(self):
        return "NeighborSets(n=%d, pairs=%d+%d)" % (
            self.n_samples, self.sim_nbr.size, self.dis_nbr.size)


@dataclass(frozen=True)
class HyperParams:
    """Training hyperparameters.

    alpha balances neighbor counts between S_i and D_i (sign selects the
    nearest/farthest-similar regimes), gamma rescales the loss argument,
    lam weights the regularizer, loss is a Loss instance from
    :mod:`adaptnn.objective`.
    """

    alpha: float
    gamma: float = 1.0
    lam: float = 0.0
    loss: object = None  # defaults to HingeLoss(1.0); set in __post_init__
    max_iters: int = 100
    eta0: float = 1e-3

    def __post_init__(self):
        if self.alpha == 0:
            raise ValueError("alpha must be nonzero")
        if not self.gamma > 0:
            raise ValueError("gamma must be > 0, got %g" % self.gamma)
        if self.lam < 0:
            raise ValueError("lam must be >= 0, got %g" % self.lam)
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.eta0 > 0:
            raise ValueError("eta0 must be > 0, got %g" % self.eta0)
        if self.loss is None:
            from .objective import HingeLoss
            object.__setattr__(self, "loss", HingeLoss(1.0))


@dataclass(frozen=True)
class TrainReport:
    """Outcome of a training run.

    objective_trace holds one (iteration, objective, step_size, accepted)
    entry per iteration, with iteration 0 recording the initial objective.
    Accepted entries are strictly decreasing in objective value.

    stop_reason says why the loop ended: "max_iters" (every iteration ran),
    "eta_floor" (the step size fell below the floor) or "rejection_cap" (too
    many consecutive rejected candidates); "eta_floor" wins when both of the
    last two hold at the same iteration.
    """

    final_metric: MetricMatrix
    objective_trace: tuple
    iterations_run: int
    wall_time_seconds: float
    stop_reason: str

    def accepted_objectives(self) -> list:
        return [j for (_, j, _, acc) in self.objective_trace if acc]
