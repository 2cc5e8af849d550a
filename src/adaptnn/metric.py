"""Mahalanobis geometry: squared-distance tables and projection onto the PSD
cone."""

from __future__ import annotations

import numpy as np

from .core import MetricMatrix, _require_metric, _symmetrized

# Eigenvalues at or below this are dropped by the projection; numerically-PSD
# matrices routinely carry eigenvalues dipping this far negative.
EIG_DROP_TOL = 1e-12

PROJECT_SYM_TOL = 1e-6


def _as_array(m) -> np.ndarray:
    return m.m if isinstance(m, MetricMatrix) else np.asarray(m, dtype=float)


# Elements in one row block of a distance table (512 KiB of float64): each
# block is finished, and scored by the classifier, while it is still in L2.
_TABLE_BLOCK = 1 << 16


def _table_blocks(m: MetricMatrix, x, y=None):
    """(table, blocks) for the (n, k) squared-distance table d_M(x_i, y_j).

    m must be a MetricMatrix (a TypeError otherwise). Its M is exactly
    symmetric, so the cross term x (M + M^T) y^T is 2 x M y^T: one product
    over the whole table, doubled block by block, so no bit of it depends on
    the blocking. table holds the product, and the generator blocks finishes
    it in place: it yields (lo, block) once rows lo:lo + len(block) are final
    and clamped >= 0. The table is complete when blocks is drained.
    """
    mm = _require_metric(m, "metric").m
    x = np.asarray(x, dtype=float)
    y = x if y is None else np.asarray(y, dtype=float)
    xm = x @ mm
    # d_ij = x_i M x_i + y_j M y_j - 2 x_i M y_j
    qx = np.einsum("ij,ij->i", xm, x)
    qy = np.einsum("ij,ij->i", y @ mm, y)
    table = xm @ y.T
    return table, _finish_rows(table, qx, qy)


def _finish_rows(table, qx, qy):
    """The blocks generator of _table_blocks."""
    n, k = table.shape
    step = max(1, _TABLE_BLOCK // max(1, k))
    buf = np.empty((min(step, n), k))
    for lo in range(0, n, step):
        block = table[lo:lo + step]
        np.add(block, block, out=block)
        # the same operations in the same order as qx + qy - cross
        sums = np.add(qx[lo:lo + step, None], qy[None, :], out=buf[:len(block)])
        np.subtract(sums, block, out=block)
        yield lo, np.maximum(block, 0.0, out=block)


def pairwise_sq(m: MetricMatrix, x, y=None) -> np.ndarray:
    """All squared distances d_M(x_i, y_j) for a MetricMatrix m, as an (n, k)
    table clamped >= 0.

    With y omitted, the table is the full n x n self-distance matrix. Building
    it holds the table plus one row block of _TABLE_BLOCK elements.
    """
    table, blocks = _table_blocks(m, x, y)
    for _ in blocks:
        pass
    return table


def psd_project(m) -> MetricMatrix:
    """Project a symmetric matrix onto the PSD cone by eigenvalue clipping.

    Keeps only components with eigenvalue above ``EIG_DROP_TOL``; for
    symmetric input this is the nearest PSD matrix in Frobenius norm. The
    result is exactly symmetric and PSD by construction, so it is wrapped
    without a second eigendecomposition.
    """
    sym = _symmetrized(_as_array(m), PROJECT_SYM_TOL, "input")
    w, u = np.linalg.eigh(sym)
    w = np.where(w > EIG_DROP_TOL, w, 0.0)
    out = (u * w) @ u.T
    return MetricMatrix._trusted((out + out.T) / 2.0)
