"""Shared domain types: datasets, metric matrices, neighbor sets, hyperparameters.

All types are immutable after construction (arrays are marked read-only), so
they can be shared freely across threads.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

SYMMETRY_TOL = 1e-9
EIG_FLOOR = -1e-10


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a)
    out.flags.writeable = False
    return out


def _non_integral(a: np.ndarray) -> np.ndarray:
    """Flat indices of the float entries of a that are not integers (a
    fraction, or not finite), which a cast to int would silently truncate;
    2.0 passes."""
    if a.dtype.kind != "f":
        return np.empty(0, dtype=np.intp)
    return np.flatnonzero(~np.isfinite(a) | (a != np.trunc(a)))


class Dataset:
    """N labeled feature vectors in d dimensions.

    Labels are contiguous integers 1..C (loaders remap arbitrary tokens).
    Construction validates all invariants; see :func:`validate`.
    """

    __slots__ = ("features", "labels", "n_samples", "n_features", "n_classes")

    def __init__(self, features, labels):
        self.features = _readonly(np.asarray(features, dtype=float))
        labels = np.asarray(labels)
        bad = _non_integral(labels)
        if bad.size:
            raise ValueError("label of sample %d is not an integer: %g"
                             % (bad[0], labels.flat[bad[0]]))
        self.labels = _readonly(np.asarray(labels, dtype=int))
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


def _symmetrized(a, tol: float, name: str) -> np.ndarray:
    """(A + A^T) / 2 of a finite square array A whose asymmetry is at most
    tol; a ValueError naming ``name`` otherwise."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("%s must be square, got shape %s" % (name, a.shape))
    if not np.isfinite(a).all():
        raise ValueError("%s contains non-finite entries" % name)
    asym = np.abs(a - a.T).max(initial=0.0)
    if asym > tol:
        raise ValueError("%s not symmetric: max |A - A^T| = %g" % (name, asym))
    return (a + a.T) / 2.0


class MetricMatrix:
    """Symmetric positive-semidefinite d x d matrix parameterizing the distance.

    The input is symmetrized via (M + M^T)/2 to absorb floating-point drift,
    but inputs asymmetric beyond ``SYMMETRY_TOL`` or with an eigenvalue below
    ``EIG_FLOOR`` are rejected.
    """

    __slots__ = ("m", "dim")

    def __init__(self, m):
        sym = _symmetrized(m, SYMMETRY_TOL, "metric")
        w = np.linalg.eigvalsh(sym)
        if w.min() < EIG_FLOOR:
            raise ValueError("metric not PSD: smallest eigenvalue = %g" % w.min())
        self.m = _readonly(sym)
        self.dim = sym.shape[0]

    @classmethod
    def _trusted(cls, sym: np.ndarray) -> "MetricMatrix":
        """Wrap a fresh matrix that is exactly symmetric and PSD by
        construction (the output of :func:`adaptnn.metric.psd_project`)
        without the eigenvalue re-check; the stored matrix is the one
        __init__ would store. The metric takes ownership of sym: it is marked
        read-only and stored as it is, not copied, so the caller must hold no
        other reference that writes to it."""
        sym.flags.writeable = False
        out = cls.__new__(cls)
        out.m = sym
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


def _require_metric(m, name: str) -> MetricMatrix:
    """m if it is a MetricMatrix; a TypeError naming the argument otherwise."""
    if not isinstance(m, MetricMatrix):
        raise TypeError("%s must be a MetricMatrix, got %s" % (name, type(m).__name__))
    return m


class NeighborSets:
    """Per-sample similarity sets S_i (same class) and dissimilarity sets D_i.

    Stored CSR-style, one flat neighbor array and one segment-pointer array
    per side, so S_i is ``sim_nbr[sim_ptr[i]:sim_ptr[i + 1]]``; the pointers
    say which sample owns each pair, so no owner array is kept.
    :attr:`similar` and :attr:`dissimilar` are per-sample read-only views of
    the neighbor arrays.

    The constructor checks that ``labels``, if given, holds one label per
    sample, then checks the given sets in one scan over the samples and
    raises ValueError at the first fault: the lowest faulty sample, and at
    that sample the first of these checks that fails, each over S_i and D_i:
    a set that is not 1-D, an empty set, an entry that is not an integer
    (a fraction, a non-finite float, or a dtype that is neither integer nor
    float), the sample itself, an index out of range, and, given
    ``labels``, S_i holding a different-class sample, then D_i holding a
    same-class sample. :func:`adaptnn.data.build_neighbor_sets` holds these
    invariants by construction, so the sets it builds are not checked again.
    """

    __slots__ = ("sim_nbr", "sim_ptr", "dis_nbr", "dis_ptr")

    def __init__(self, similar, dissimilar, labels=None):
        n = len(similar)
        if len(dissimilar) != n:
            raise ValueError("similar and dissimilar must have equal length")
        similar = [np.asarray(s) for s in similar]
        dissimilar = [np.asarray(s) for s in dissimilar]
        if labels is not None:
            labels = np.asarray(labels)
            if labels.shape != (n,):
                raise ValueError("labels must have shape (%d,), got %s" % (n, labels.shape))
        for i, (s, d) in enumerate(zip(similar, dissimilar)):
            if s.ndim != 1 or d.ndim != 1:
                raise ValueError("the neighbor sets of sample %d must be 1-D, got ndim=%d "
                                 "and %d" % (i, s.ndim, d.ndim))
            if not (s.size and d.size):
                raise ValueError("empty neighbor set for sample %d" % i)
            # a bool, string or complex entry would otherwise cast to an index
            if any(a.dtype.kind not in "iuf" or _non_integral(a).size for a in (s, d)):
                raise ValueError("a neighbor index of sample %d is not an integer" % i)
            if (s == i).any() or (d == i).any():
                raise ValueError("sample %d contained in its own neighbor set" % i)
            for side, a in (("similar", s), ("dissimilar", d)):
                if a.min() < 0 or a.max() >= n:
                    raise ValueError("%s neighbor index out of range [0, %d)" % (side, n))
            if labels is not None:
                if (labels[s.astype(int, copy=False)] != labels[i]).any():
                    raise ValueError("S_%d contains a different-class sample" % i)
                if (labels[d.astype(int, copy=False)] == labels[i]).any():
                    raise ValueError("D_%d contains a same-class sample" % i)
        self.sim_nbr, self.sim_ptr = _flat(similar)
        self.dis_nbr, self.dis_ptr = _flat(dissimilar)

    @classmethod
    def _trusted(cls, similar, dissimilar) -> "NeighborSets":
        """Wrap sets that hold every invariant by construction (the integer
        arrays :func:`adaptnn.data.build_neighbor_sets` builds) without the
        scan; the stored arrays are the ones __init__ would store."""
        out = cls.__new__(cls)
        out.sim_nbr, out.sim_ptr = _flat(similar)
        out.dis_nbr, out.dis_ptr = _flat(dissimilar)
        return out

    @property
    def similar(self) -> tuple:
        """S_i for each sample i, as read-only views of ``sim_nbr``."""
        return _segments(self.sim_nbr, self.sim_ptr)

    @property
    def dissimilar(self) -> tuple:
        """D_i for each sample i, as read-only views of ``dis_nbr``."""
        return _segments(self.dis_nbr, self.dis_ptr)

    @property
    def n_samples(self) -> int:
        return self.sim_ptr.size - 1

    def __repr__(self):
        return "NeighborSets(n=%d, pairs=%d+%d)" % (
            self.n_samples, self.sim_nbr.size, self.dis_nbr.size)


def _flat(sets) -> tuple:
    """(nbr, ptr) of one side: its 1-D sets concatenated into one read-only
    integer array, and the read-only segment pointers."""
    counts = np.array([s.size for s in sets], dtype=int)
    ptr = np.concatenate(([0], np.cumsum(counts)))
    nbr = np.concatenate(sets) if sets else np.empty(0, dtype=int)
    return _readonly(np.asarray(nbr, dtype=int)), _readonly(ptr)


def _segments(nbr: np.ndarray, ptr: np.ndarray) -> tuple:
    return tuple(np.split(nbr, ptr[1:-1])) if ptr.size > 1 else ()


def _check_count(value, name: str) -> None:
    """A ValueError naming ``name`` unless value is an integer >= 1."""
    if not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError("%s must be an integer >= 1, got %r" % (name, value))


@dataclass(frozen=True)
class HyperParams:
    """Training hyperparameters.

    alpha balances neighbor counts between S_i and D_i (sign selects the
    nearest/farthest-similar regimes), gamma rescales the loss argument,
    lam weights the regularizer, and loss is any object with vectorized value
    and derivative methods, such as the losses of :mod:`adaptnn.objective`.
    """

    alpha: float
    gamma: float = 1.0
    lam: float = 0.0
    loss: object = None  # defaults to HingeLoss(1.0); set in __post_init__
    max_iters: int = 100
    eta0: float = 1e-3

    def __post_init__(self):
        for name in ("alpha", "gamma", "lam"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError("%s must be finite, got %g" % (name, value))
        if self.alpha == 0:
            raise ValueError("alpha must be nonzero")
        if not self.gamma > 0:
            raise ValueError("gamma must be > 0, got %g" % self.gamma)
        if self.lam < 0:
            raise ValueError("lam must be >= 0, got %g" % self.lam)
        _check_count(self.max_iters, "max_iters")
        if not (np.isfinite(self.eta0) and self.eta0 > 0):
            raise ValueError("eta0 must be finite and > 0, got %g" % self.eta0)
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
