"""Mahalanobis geometry: squared-distance tables and projection onto the PSD
cone."""

from __future__ import annotations

import numpy as np

from .core import MetricMatrix

# Eigenvalues at or below this are dropped by the projection; numerically-PSD
# matrices routinely carry eigenvalues dipping this far negative.
EIG_DROP_TOL = 1e-12

PROJECT_SYM_TOL = 1e-6


def _as_array(m) -> np.ndarray:
    return m.m if isinstance(m, MetricMatrix) else np.asarray(m, dtype=float)


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
    cross = xm @ y.T
    if isinstance(m, MetricMatrix):
        # M is exactly symmetric, so x M^T y^T is the same product bit for bit
        np.add(cross, cross, out=cross)
    else:
        cross += (x @ mm.T) @ y.T
    # the same operations in the same order as qx + qy - cross, but built in
    # place: at most two (n, k) tables are alive at once
    d = qx[:, None] + qy[None, :]
    d -= cross
    return np.maximum(d, 0.0, out=d)


def psd_project(m) -> MetricMatrix:
    """Project a symmetric matrix onto the PSD cone by eigenvalue clipping.

    Keeps only components with eigenvalue above ``EIG_DROP_TOL``; for
    symmetric input this is the nearest PSD matrix in Frobenius norm. The
    result is exactly symmetric and PSD by construction, so it is wrapped
    without a second eigendecomposition.
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
    return MetricMatrix._trusted((out + out.T) / 2.0)
