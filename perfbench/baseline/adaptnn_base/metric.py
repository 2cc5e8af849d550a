"""Mahalanobis geometry: squared distances, per-neighbor distance tables, and
projection onto the PSD cone."""

from __future__ import annotations

import numpy as np

from .core import Dataset, MetricMatrix, NeighborSets

# Eigenvalues at or below this are dropped by the projection; numerically-PSD
# matrices routinely carry eigenvalues dipping this far negative.
EIG_DROP_TOL = 1e-12

PROJECT_SYM_TOL = 1e-6


def _as_array(m) -> np.ndarray:
    return m.m if isinstance(m, MetricMatrix) else np.asarray(m, dtype=float)


def mahalanobis_sq(m, a, b) -> float:
    """Squared distance (a-b)^T M (a-b); tiny negative rounding is clamped to 0.

    Accepts a MetricMatrix or a plain square array (the latter is what the
    finite-difference gradient checks perturb).
    """
    mm = _as_array(m)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.shape != (mm.shape[0],):
        raise ValueError("dimension mismatch: M is %s, a is %s, b is %s"
                         % (mm.shape, a.shape, b.shape))
    diff = a - b
    return max(float(diff @ mm @ diff), 0.0)


def pairwise_sq(m, x, y=None) -> np.ndarray:
    """All squared distances d_M(x_i, y_j) as an (n, k) table, clamped >= 0.

    With y omitted, the table is the full n x n self-distance matrix.
    """
    mm = _as_array(m)
    x = np.asarray(x, dtype=float)
    y = x if y is None else np.asarray(y, dtype=float)
    xm = x @ mm
    # d_ij = x_i M x_i + y_j M y_j - x_i (M + M^T) y_j; general M supported
    # because the gradient checker perturbs single entries.
    qx = np.einsum("ij,ij->i", xm, x)
    qy = np.einsum("ij,ij->i", y @ mm, y)
    cross = xm @ y.T + (x @ mm.T) @ y.T
    d = qx[:, None] + qy[None, :] - cross
    return np.maximum(d, 0.0)


class DistanceTable:
    """Distances from each inquiry sample to its S_i and D_i members, in the
    index-set ordering."""

    __slots__ = ("similar", "dissimilar")

    def __init__(self, similar, dissimilar):
        self.similar = similar
        self.dissimilar = dissimilar


def distance_table(m, data: Dataset, nbrs: NeighborSets) -> DistanceTable:
    """Batch d_M(x_i, x_j) over every j in S_i and l in D_i."""
    if nbrs.n_samples != data.n_samples:
        raise ValueError("neighbor sets cover %d samples, dataset has %d"
                         % (nbrs.n_samples, data.n_samples))
    full = pairwise_sq(m, data.features)
    sim = tuple(full[i, s] for i, s in enumerate(nbrs.similar))
    dis = tuple(full[i, d] for i, d in enumerate(nbrs.dissimilar))
    return DistanceTable(sim, dis)


def psd_project(m) -> MetricMatrix:
    """Project a symmetric matrix onto the PSD cone by eigenvalue clipping.

    Keeps only components with eigenvalue above ``EIG_DROP_TOL``; for
    symmetric input this is the nearest PSD matrix in Frobenius norm.
    """
    a = _as_array(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix, got shape %s" % (a.shape,))
    if not np.all(np.isfinite(a)):
        raise ValueError("cannot eigendecompose non-finite input")
    asym = np.abs(a - a.T).max(initial=0.0)
    if asym > PROJECT_SYM_TOL:
        raise ValueError("input not symmetric: max |A - A^T| = %g" % asym)
    sym = (a + a.T) / 2.0
    w, u = np.linalg.eigh(sym)
    w = np.where(w > EIG_DROP_TOL, w, 0.0)
    out = (u * w) @ u.T
    return MetricMatrix((out + out.T) / 2.0)
