"""Benchmark harness: repeated stratified 70/30 splits, hyperparameter grids
with k-fold cross-validated selection, training, K-NN evaluation, forward
smoothing of accuracy-vs-K curves, and report emission.

The whole pipeline is a pure function of (config, seed): splits and fold
assignments derive from per-repetition child seeds, and training itself is
deterministic. Preprocessing statistics and model selection only ever see the
training partition.
"""

from __future__ import annotations

import json
import numbers
import os
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import reduce
from operator import add
from pathlib import Path

import numpy as np

from .classifier import _predictions, accuracy_by_k
from .core import Dataset, HyperParams, MetricMatrix, _check_count
from .data import (_check_format, _read_lines, apply_zscore,
                   build_neighbor_sets, fit_pca, apply_pca, fit_zscore, load)
from .objective import PairEvaluator, nca_objective, pnca_objective
from .optimizer import train

METHODS = ("ann_plus", "ann_minus", "pnca_report", "euclidean_baseline")
ANN_MINUS_K0 = 10
PCA_THRESHOLD = 150

# Full sweep grids (2^-9 .. 2^10); the shipped configs subsample these, since
# the complete cross-product is a cluster-scale job, not a desk-scale one.
FULL_POWER_GRID = tuple(2.0 ** k for k in range(-9, 11))
FULL_NEGATIVE_POWER_GRID = tuple(-g for g in FULL_POWER_GRID)
FULL_K_GRID = tuple(range(1, 47, 3))


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: str
    path: str
    format: str = "delimited"
    method: str = "ann_plus"
    alpha_grid: tuple = (1.0,)
    gamma_grid: tuple = (1.0,)
    k_grid: tuple = FULL_K_GRID
    repetitions: int = 10
    split_fraction: float = 0.7
    cv_folds: int = 5
    seed: int = 0
    max_iters: int = 40
    eta0: float = 1e-3

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError("unknown method %r" % (self.method,))
        _check_format(self.format)
        for name in ("alpha_grid", "gamma_grid", "k_grid"):
            if len(getattr(self, name)) == 0:
                raise ValueError("%s must be non-empty" % name)
        if self.method == "ann_plus" and any(a <= 0 for a in self.alpha_grid):
            raise ValueError("ann_plus requires a positive alpha grid")
        if self.method == "ann_minus" and any(a >= 0 for a in self.alpha_grid):
            raise ValueError("ann_minus requires a negative alpha grid")
        for alpha in self.alpha_grid:  # each cell's HyperParams; lam is set per fit
            for gamma in self.gamma_grid:
                HyperParams(alpha, gamma, max_iters=self.max_iters, eta0=self.eta0)
        for k in self.k_grid:
            if isinstance(k, float) and not np.isfinite(k):
                raise ValueError("k_grid values must be finite")
            _check_count(k, "k_grid value")
        _check_count(self.repetitions, "repetitions")
        if not 0 < self.split_fraction < 1:
            raise ValueError("split_fraction must be in (0, 1)")
        _check_count(self.cv_folds, "cv_folds")
        if self.cv_folds < 2:
            raise ValueError("cv_folds must be >= 2")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValueError("seed must be an integer >= 0, got %r" % (self.seed,))


@dataclass
class AccuracyRecord:
    """One experiment's outcome; mean/std are recomputable from accuracies."""

    method: str
    dataset: str
    alpha: float
    gamma: float
    k: int
    accuracies: list
    mean: float
    std: float
    wall_time_seconds: float
    acc_by_k: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Splitting


def _deal(labels, rng, places) -> np.ndarray:
    """Each sample's part id: each class, in label order, is shuffled by one
    rng.permutation, and a class of n samples deals its i-th shuffled member
    to part places(n)[i]."""
    labels = np.asarray(labels)
    parts = np.empty(labels.size, dtype=int)
    for c in np.unique(labels):
        members = rng.permutation(np.flatnonzero(labels == c))
        parts[members] = places(members.size)
    return parts


def stratified_split(labels, fraction: float, rng) -> tuple:
    """Per-class shuffled split; train takes round(fraction * n_c) of each
    class, clamped so both sides stay non-empty. A class with fewer than 2
    samples cannot be split that way, and a fraction outside (0, 1) would be
    clamped to one sample per class; both raise ValueError."""
    if not 0 < fraction < 1:
        raise ValueError("fraction must be in (0, 1), got %s" % fraction)
    classes, sizes = np.unique(labels, return_counts=True)
    if (sizes < 2).any():
        raise ValueError("class %s has 1 sample; a stratified split needs "
                         "at least 2 per class" % classes[np.argmax(sizes < 2)])
    parts = _deal(labels, rng,  # part 0 is train, part 1 test
                  lambda n: np.arange(n) >= np.clip(round(fraction * n), 1, n - 1))
    return np.flatnonzero(parts == 0), np.flatnonzero(parts == 1)


def cv_fold_ids(labels, folds: int, rng) -> np.ndarray:
    """Stratified fold assignment: shuffle each class, deal it out round-robin.
    Before anything is drawn, a fold left empty or a class left with fewer
    than 2 samples in a fold's training part raises ValueError."""
    _check_count(folds, "folds")
    classes, sizes = np.unique(labels, return_counts=True)
    if folds > sizes.max():  # round robin fills folds 0 .. max n_c - 1
        raise ValueError("fold %d holds no samples: cv_folds=%d is more than the "
                         "%d training samples of the largest class"
                         % (sizes.max(), folds, sizes.max()))
    # a class of n keeps n - ceil(n / folds) = n + n // -folds in its emptiest
    # fold's training part; fewer than 2 would drop it out of that fold's neighbor sets
    for c, left in zip(classes, sizes + sizes // -folds):
        if left < 2:
            raise ValueError("class %d is left with %d training sample(s) in a "
                             "fold with cv_folds=%d; cross-validation needs >= 2 "
                             "per class in every fold's training part"
                             % (c, left, folds))
    return _deal(labels, rng, lambda n: np.arange(n) % folds)


def _subset(data: Dataset, idx) -> Dataset:
    return Dataset(data.features[idx], data.labels[idx])


# ---------------------------------------------------------------------------
# Per-method training / evaluation


def _neighbor_sets(ds: Dataset, method: str):
    if method == "ann_minus":
        return build_neighbor_sets(ds, mode="knn_same_class", k0=ANN_MINUS_K0)
    return build_neighbor_sets(ds, mode="all_same_class")


def _train_metric(train_ds: Dataset, nbrs, alpha: float, gamma: float,
                  cfg: ExperimentConfig, evaluator=None) -> MetricMatrix:
    hp = HyperParams(alpha=alpha, gamma=gamma, lam=1.0 / train_ds.n_samples ** 2,
                     max_iters=cfg.max_iters, eta0=cfg.eta0)
    return train(train_ds, nbrs, hp, evaluator=evaluator).final_metric


def _cv_select(train_ds: Dataset, cfg: ExperimentConfig, rng) -> tuple:
    """Pick the (alpha, gamma) cell with the highest mean best-K fold accuracy.
    Folds are the outer loop, so each fold's subsets, neighbor sets and pair
    structure (its :class:`PairEvaluator`) are built once for all cells,
    and a fold's pair structure is freed before the next fold's is built.
    Ties go to the first cell in (|alpha|, gamma) order: smaller |alpha|,
    then smaller gamma."""
    cells = sorted(((a, g) for a in cfg.alpha_grid for g in cfg.gamma_grid),
                   key=lambda t: (abs(t[0]), t[1]))
    if len(cells) == 1:
        return cells[0]
    folds = cv_fold_ids(train_ds.labels, cfg.cv_folds, rng)
    scores = np.empty((len(cells), cfg.cv_folds))  # best-K fold accuracies
    for f in range(cfg.cv_folds):
        tr = _subset(train_ds, folds != f)
        # the held-out rows are only scored, so no Dataset rules apply to them
        held_x, held_y = train_ds.features[folds == f], train_ds.labels[folds == f]
        nbrs = _neighbor_sets(tr, cfg.method)
        evaluator = PairEvaluator(tr, nbrs)
        for c, (alpha, gamma) in enumerate(cells):
            metric = _train_metric(tr, nbrs, alpha, gamma, cfg, evaluator)
            preds = _predictions(tr, metric, held_x, cfg.k_grid)
            scores[c, f] = np.mean(preds == held_y, axis=1).max()
        del evaluator  # before the next fold's is built
    return cells[int(np.argmax(scores.mean(axis=1)))]


def _preprocess(train_ds: Dataset, test_ds: Dataset) -> tuple:
    """Z-score (and PCA beyond PCA_THRESHOLD features), fitted on train only."""
    z = fit_zscore(train_ds)
    train_ds, test_ds = apply_zscore(z, train_ds), apply_zscore(z, test_ds)
    p = fit_pca(train_ds, PCA_THRESHOLD)  # the identity up to PCA_THRESHOLD
    return apply_pca(p, train_ds), apply_pca(p, test_ds)


def _repetition(full: Dataset, cfg: ExperimentConfig, rep: int) -> tuple:
    """Repetition rep: a seeded stratified split, preprocessing fitted on its
    training part, the method's metric and the K sweep on its test part.
    Returns what it chose: ({K: test accuracy}, (alpha, gamma), extras)."""
    rng = np.random.default_rng([cfg.seed, rep])
    tr_idx, te_idx = stratified_split(full.labels, cfg.split_fraction, rng)
    train_ds, test_ds = _preprocess(_subset(full, tr_idx), _subset(full, te_idx))
    extras = {}
    if cfg.method in ("ann_plus", "ann_minus"):
        alpha, gamma = _cv_select(train_ds, cfg, rng)
        metric = _train_metric(train_ds, _neighbor_sets(train_ds, cfg.method),
                               alpha, gamma, cfg)
    else:  # the baselines score the identity metric
        metric = MetricMatrix.identity(train_ds.n_features)
        alpha, gamma = cfg.alpha_grid[0], cfg.gamma_grid[0]
        if cfg.method == "pnca_report":
            nbrs = _neighbor_sets(train_ds, cfg.method)
            vals = {a: pnca_objective(metric, train_ds, nbrs, a)
                    for a in cfg.alpha_grid}
            alpha = max(vals, key=vals.get)
            extras = {"pnca_objective": vals[alpha],
                      "nca_objective": nca_objective(metric, train_ds)}
    return accuracy_by_k(train_ds, metric, test_ds, cfg.k_grid), (alpha, gamma), extras


def run_experiment(cfg: ExperimentConfig) -> list:
    """Run cfg.repetitions seeded stratified splits and return a list that
    holds one AccuracyRecord: each repetition's best-K test accuracy, the
    most frequent alpha, gamma and best K, the accuracy-vs-K curve averaged
    over repetitions, and each extra as a per-repetition list."""
    full = load(cfg.path, format=cfg.format)
    t0 = time.perf_counter()
    curves, cells, extras = zip(*(_repetition(full, cfg, rep)
                                  for rep in range(cfg.repetitions)))
    best_k = [max(accs, key=lambda k: (accs[k], -k)) for accs in curves]
    accuracies = [accs[k] for accs, k in zip(curves, best_k)]
    alphas, gammas = zip(*cells)
    return [AccuracyRecord(
        method=cfg.method,
        dataset=cfg.dataset,
        alpha=_mode(alphas),
        gamma=_mode(gammas),
        k=_mode(best_k),
        accuracies=accuracies,
        mean=float(np.mean(accuracies)),
        std=float(np.std(accuracies, ddof=1)) if len(accuracies) > 1 else 0.0,
        wall_time_seconds=time.perf_counter() - t0,
        # a plain left fold: from Python 3.12, sum() compensates its rounding
        acc_by_k={k: reduce(add, (accs[k] for accs in curves)) / cfg.repetitions
                  for k in curves[0]},
        extras={key: [e[key] for e in extras] for key in extras[0]},
    )]


def _mode(values):
    """Most frequent value; earliest-seen wins ties."""
    return Counter(values).most_common(1)[0][0]


# ---------------------------------------------------------------------------
# Smoothing and reports


def smooth_over_k(acc_by_k: dict) -> dict:
    """Forward 5-point mean: smoothed[K] = mean(acc[K+1..K+5]); K values
    without a complete window are omitted."""
    out = {}
    for k in sorted(acc_by_k):
        window = [acc_by_k.get(k + i) for i in range(1, 6)]
        if all(w is not None for w in window):
            out[k] = float(np.mean(window))
    return out


def emit_report(records, path) -> None:
    """Write one JSON object per record to path, plus an accuracy-vs-K
    plot-data file (raw and smoothed two-column blocks) at path + '.curves'.
    A NaN or infinity in a record raises ValueError before anything is
    written; both files go to '.tmp' siblings first and are then moved into
    place, so an existing report is never left half-overwritten."""
    path = str(path)
    lines = [json.dumps({**asdict(r),
                         "acc_by_k": {str(k): v for k, v in r.acc_by_k.items()}},
                        allow_nan=False) + "\n" for r in records]
    with open(path + ".tmp", "w", encoding="utf-8") as f:
        f.writelines(lines)
    with open(path + ".curves.tmp", "w", encoding="utf-8") as f:
        for idx, r in enumerate(records):
            for label, curve in (("raw", r.acc_by_k),
                                 ("smoothed", smooth_over_k(r.acc_by_k))):
                f.write("# record=%d method=%s dataset=%s curve=%s\n"
                        % (idx, r.method, r.dataset, label))
                for k in sorted(curve):
                    f.write("%d %.6f\n" % (k, curve[k]))
                f.write("\n")
    os.replace(path + ".tmp", path)
    os.replace(path + ".curves.tmp", path + ".curves")


def parse_report(path) -> list:
    """The records of an emitted report, skipping blank and '#' lines; a line
    that is not a record raises ValueError naming the file and the line."""
    records = []

    def read(lineno, line):
        fields = json.loads(line)
        try:
            fields["acc_by_k"] = {int(k): v for k, v in fields["acc_by_k"].items()}
            records.append(AccuracyRecord(**fields))
        except (AttributeError, KeyError, TypeError) as exc:
            raise ValueError("not a report record: %s" % exc) from None

    _read_lines(path, read)
    return records


# ---------------------------------------------------------------------------
# Config files


def _entries(path, form: str, read) -> dict:
    """{key: read(key, value)} over the 'key = value' lines of path, with
    blank and '#' lines skipped. A line without '=' raises ValueError naming
    form, the line's expected shape; so does a key given twice."""
    out, first = {}, {}

    def entry(lineno, line):
        key, eq, value = line.partition("=")
        if not eq:
            raise ValueError("%s, got %r" % (form, line))
        key = key.strip()
        if key in first:
            raise ValueError("repeated key %r (first on line %d)" % (key, first[key]))
        first[key] = lineno
        out[key] = read(key, value.strip())

    _read_lines(path, entry)
    return out


def load_registry(path) -> dict:
    """name -> (absolute path, format), one 'name = relpath format' per line."""
    base = Path(path).parent
    form = "registry line needs 'name = path format'"

    def read(name, rest):
        parts = rest.split()
        if len(parts) != 2:
            raise ValueError("%s, got %r" % (form, rest))
        return str(base / parts[0]), parts[1]

    return _entries(path, form, read)


def _grid(conv):
    """Reader of a grid: entries split on whitespace and commas, each conv'd."""
    return lambda value: tuple(conv(v) for v in value.replace(",", " ").split())


# every config key -> the reader of its value
_READERS = {"dataset": str, "dataset_path": str, "dataset_format": str,
            "registry": str, "method": str, "alpha_grid": _grid(float),
            "gamma_grid": _grid(float), "k_grid": _grid(int), "repetitions": int,
            "split_fraction": float, "cv_folds": int, "seed": int,
            "max_iters": int, "eta0": float}


def _read_value(key: str, value: str):
    if key not in _READERS:
        raise ValueError("unknown config key %r" % key)
    try:
        return _READERS[key](value)
    except ValueError as exc:
        raise ValueError("cannot read %s = %r: %s" % (key, value, exc)) from None


def load_config(path) -> ExperimentConfig:
    """Parse a 'key = value' config. The dataset is found through either
    dataset_path (with dataset_format, default delimited) or a registry, not
    both. Every ValueError names the config's or the registry's file, and
    the line and key of an unknown key or of a value its reader rejects."""
    def fault(reason):
        return ValueError("%s: %s" % (path, reason))

    kwargs = _entries(path, "expected 'key = value'", _read_value)
    if "dataset" not in kwargs:
        raise fault("config must name a dataset")
    where = {key: kwargs.pop(key) for key in ("dataset_path", "dataset_format",
                                               "registry") if key in kwargs}
    if "registry" in where and len(where) == 1:
        registry = load_registry(Path(path).parent / where["registry"])
        if kwargs["dataset"] not in registry:
            raise fault("dataset %r not in registry" % kwargs["dataset"])
        kwargs["path"], kwargs["format"] = registry[kwargs["dataset"]]
    elif "dataset_path" in where and "registry" not in where:
        kwargs["path"] = str(Path(path).parent / where["dataset_path"])
        kwargs["format"] = where.get("dataset_format", "delimited")
    else:
        raise fault("config needs either dataset_path or registry")
    try:
        return ExperimentConfig(**kwargs)
    except ValueError as exc:
        raise fault(exc) from None
