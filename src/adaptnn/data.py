"""Dataset ingestion, z-score normalization, PCA reduction, and neighbor-set
construction.

File grammars
-------------
delimited:  one sample per line, fields split on a configurable delimiter
            (default comma), label in a configurable column (default last),
            '#'-prefixed lines and blank lines ignored.
sparse:     "label idx:val idx:val ..." with 1-based indices, each at most
            once per line, densified to the maximum index seen in the file;
            missing entries are 0.

Label tokens of either format are remapped to contiguous integers 1..C in
first-seen order. A malformed line raises ValueError naming the file and
the line.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Dataset, NeighborSets, _check_count

CONSTANT_COLUMN_TOL = 1e-12
_FORMATS = ("delimited", "sparse_index_value")  # the two grammars above


# ---------------------------------------------------------------------------
# Loading and serializing


def _check_format(format: str) -> None:
    if format not in _FORMATS:
        raise ValueError("unknown format %r; the formats are %s"
                         % (format, ", ".join(_FORMATS)))


def _read_lines(path, read) -> None:
    """Call read(lineno, line) on each stripped line of path that is neither
    blank nor a '#' comment. Lines end at '\n', '\r\n' or '\r', as in text
    mode. A ValueError that read raises, or a line that is not UTF-8, is
    raised as '<path>:<lineno>: <reason>'."""
    with open(path, "rb") as f:
        raw_lines = f.read().splitlines()
    for lineno, raw in enumerate(raw_lines, start=1):
        try:
            line = raw.decode("utf-8").strip()
            if line and not line.startswith("#"):
                read(lineno, line)
        except ValueError as exc:
            raise ValueError("%s:%d: %s" % (path, lineno, exc)) from None


def load(path, format: str = "delimited", delimiter: str = ",",
         label_column: int = -1) -> Dataset:
    """Parse a dataset file; see the module docstring for the two grammars."""
    _check_format(format)
    if not isinstance(label_column, numbers.Integral):
        raise ValueError("label_column must be an integer, got %r" % (label_column,))
    tokens, rows = [], []  # a sparse row is a dict {1-based index: value}
    width = col = None

    def delimited(lineno, line):
        nonlocal width, col
        fields = line.split(delimiter)
        if width is None:  # the first line fixes the width and label column
            width = len(fields)
            if width < 2:
                raise ValueError("need at least one feature and a label")
            col = label_column if label_column >= 0 else width + label_column
            if not 0 <= col < width:
                raise ValueError("label column %d out of range for %d fields"
                                 % (label_column, width))
        elif len(fields) != width:
            raise ValueError("expected %d fields, got %d" % (width, len(fields)))
        tokens.append(fields.pop(col).strip())
        try:
            rows.append([float(v) for v in fields])
        except ValueError:
            raise ValueError("unparseable feature value") from None

    def sparse(lineno, line):
        label, *items = line.split()
        row = {}
        for item in items:
            try:
                idx_s, val_s = item.split(":", 1)
                idx, val = int(idx_s), float(val_s)
            except ValueError:
                raise ValueError("bad index:value pair %r" % item) from None
            if idx < 1:
                raise ValueError("indices are 1-based, got %d" % idx)
            if idx in row:
                raise ValueError("repeated index %d" % idx)
            row[idx] = val
        tokens.append(label)
        rows.append(row)

    _read_lines(path, delimited if format == "delimited" else sparse)
    if not rows:
        raise ValueError("%s: no data lines" % path)
    if format == "delimited":
        X = np.array(rows, dtype=float)
    else:
        X = np.zeros((len(rows), max(max(row, default=0) for row in rows)))
        if X.shape[1] == 0:
            raise ValueError("%s: no feature entries in file" % path)
        for i, row in enumerate(rows):
            X[i, [idx - 1 for idx in row]] = list(row.values())
    ids = {}  # label token -> 1..C in first-seen order
    return Dataset(X, [ids.setdefault(t, len(ids) + 1) for t in tokens])


def save(dataset: Dataset, path, format: str = "delimited",
         delimiter: str = ",") -> None:
    """Serialize a Dataset so load() round-trips features bit-exactly
    (delimited writes repr() of each float). An unknown format raises
    ValueError before path is opened."""
    _check_format(format)
    with open(path, "w", encoding="utf-8") as f:
        if format == "delimited":
            for row, label in zip(dataset.features, dataset.labels):
                f.write(delimiter.join(repr(float(v)) for v in row))
                f.write(delimiter + str(int(label)) + "\n")
        else:
            for row, label in zip(dataset.features, dataset.labels):
                items = ["%d:%s" % (j + 1, repr(float(v)))
                         for j, v in enumerate(row) if v != 0.0]
                f.write(" ".join([str(int(label))] + items) + "\n")


# ---------------------------------------------------------------------------
# Preprocessing


@dataclass(frozen=True)
class Preprocessor:
    """Fitted normalization/PCA state; an apply-function rejects one that
    lacks the fields it needs (not fitted for that transform)."""

    means: Optional[np.ndarray] = None
    stds: Optional[np.ndarray] = None
    pca_basis: Optional[np.ndarray] = None


def fit_zscore(data: Dataset) -> Preprocessor:
    """Column means and sample (n-1) standard deviations of the fit split."""
    X = data.features
    means = X.mean(axis=0)
    stds = X.std(axis=0, ddof=1)
    return Preprocessor(means=means, stds=stds)


def apply_zscore(p: Preprocessor, data: Dataset) -> Dataset:
    """(x - mean) / std per column; near-constant columns (std below
    CONSTANT_COLUMN_TOL) are centered but not divided."""
    if p.means is None or p.stds is None:
        raise ValueError("preprocessor not fitted for z-scoring")
    X = data.features - p.means
    divisor = np.where(p.stds < CONSTANT_COLUMN_TOL, 1.0, p.stds)
    return Dataset(X / divisor, data.labels)


def fit_pca(data: Dataset, target_dim: int) -> Preprocessor:
    """Top-target_dim eigenvectors of the sample covariance, descending by
    eigenvalue; identity transform returned when d <= target_dim.

    Sign convention: each component's largest-magnitude entry is positive.
    """
    d = data.n_features
    _check_count(target_dim, "target_dim")
    if d <= target_dim:
        return Preprocessor(means=np.zeros(d), pca_basis=np.eye(d))
    X = data.features
    means = X.mean(axis=0)
    xc = X - means
    cov = xc.T @ xc / (data.n_samples - 1)
    w, u = np.linalg.eigh(cov)
    order = np.argsort(w)[::-1][:target_dim]
    basis = u[:, order]
    flip = basis[np.abs(basis).argmax(axis=0), np.arange(basis.shape[1])] < 0
    basis = basis * np.where(flip, -1.0, 1.0)
    return Preprocessor(means=means, pca_basis=basis)


def apply_pca(p: Preprocessor, data: Dataset) -> Dataset:
    if p.means is None or p.pca_basis is None:
        raise ValueError("preprocessor not fitted for PCA")
    if not p.means.any() and \
            p.pca_basis.shape == (data.n_features, data.n_features) and \
            np.array_equal(p.pca_basis, np.eye(data.n_features)):
        return data  # identity transform, bit-exact passthrough
    return Dataset((data.features - p.means) @ p.pca_basis, data.labels)


# ---------------------------------------------------------------------------
# Neighbor sets


def build_neighbor_sets(data: Dataset, mode: str = "all_same_class",
                        k0: int = 10) -> NeighborSets:
    """Construct S_i/D_i for training.

    mode="all_same_class": S_i is the whole class of i minus i itself.
    mode="knn_same_class": S_i is the k0 Euclidean-nearest same-class samples
    (capped at class size - 1, ties broken by lower index); k0 must then be
    an integer >= 1. Either way D_i is every sample of a different class.
    The sets hold every :class:`NeighborSets` invariant by construction, so
    they are wrapped without the constructor's checks.
    """
    if mode == "knn_same_class":
        _check_count(k0, "k0")
    elif mode != "all_same_class":
        raise ValueError("unknown mode %r" % (mode,))
    y = data.labels
    counts = np.bincount(y, minlength=data.n_classes + 1)[1:]
    if counts.min() < 2:
        raise ValueError("every class needs >= 2 samples to build S_i, class %d has %d"
                         % (int(np.argmin(counts)) + 1, int(counts.min())))
    similar, dissimilar = [], []
    by_class = {c: data.class_indices(c) for c in range(1, data.n_classes + 1)}
    # D_i depends only on the class of i: one array per class, shared
    others = {c: np.flatnonzero(y != c) for c in by_class}
    for i in range(data.n_samples):
        mates = by_class[y[i]]
        mates = mates[mates != i]
        if mode == "all_same_class":
            s = mates
        else:
            diffs = data.features[mates] - data.features[i]
            d2 = np.einsum("nd,nd->n", diffs, diffs)
            s = mates[np.argsort(d2, kind="stable")[:k0]]
        similar.append(s)
        dissimilar.append(others[y[i]])
    return NeighborSets._trusted(similar, dissimilar)
