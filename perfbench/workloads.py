"""The benchmark's workloads and the checks on their outputs.

Each workload is built from ``(root, seed)`` by :func:`build`, which is the
whole of the timed set-up, and then runs identical passes. ``run_pass``
returns a pass's outputs, ``summary`` reduces them to the digits a report
prints, and ``check`` lists what is wrong with them.

- ``iris-plus-cv``: ``configs/iris_ann_plus.cfg`` as shipped (grids, folds,
  ``max_iters``), seed from the command line, the first of its stratified
  splits per pass. d = 4, so the per-call overhead of the CV loop
  dominates.
- ``wine-minus-cv``: ``configs/wine_ann_minus.cfg`` as shipped, the first
  split per pass. alpha < 0, k0 = 10 sparse similar sets against full
  dissimilar sets, d = 13; the gradient dominates.
- ``fit-n1500``: one ``train()`` on synthetic 3-class Gaussian data
  (N = 1500, d = 24, all same-class neighbors, alpha = gamma = 1,
  lam = 1/N^2, 2 iterations), then a 16-K accuracy sweep on an equal-sized
  held-out set. No CV loop: this isolates the evaluator's compute and
  memory.

Passes are kept short (one to a few seconds), so that each is timed close
in time to a pass of the frozen baseline (see ``run.py``). Repetition r of
a CV run does not depend on the repetition count, so a pass at the
config's own seed is repetition 0 of the shipped config.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

import adaptnn

DEFAULT_SEED = 7
# Splits per pass. The work per split hardly depends on the seed (every
# fit runs max_iters), so one split instead of the shipped 10 does not add
# seed-to-seed spread.
CV_REPETITIONS = {"iris-plus-cv": 1, "wine-minus-cv": 1}
CV_CONFIGS = {"iris-plus-cv": "iris_ann_plus.cfg",
              "wine-minus-cv": "wine_ann_minus.cfg"}
NAMES = ("iris-plus-cv", "wine-minus-cv", "fit-n1500")

FIT_N, FIT_D, FIT_CLASSES, FIT_ITERS = 1500, 24, 3, 2
FIT_INFORMATIVE = 4  # feature columns that carry the class means
FIT_SEPARATION = 2.5  # distance of each class mean from the origin
FIT_K_GRID = tuple(range(1, 47, 3))  # the shipped configs' k_grid

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
# The PSD floor MetricMatrix enforces, fixed here so that a change to
# adaptnn.core cannot loosen this check.
EIG_FLOOR = -1e-10


def _fmt(x):
    """A value as ``adaptnn report`` prints it."""
    return "%.4f" % x


def _train_invariants(reports):
    errors = []
    for n, rep in enumerate(reports):
        acc = rep.accepted_objectives()
        if not all(np.isfinite(acc)) or any(b >= a for a, b in zip(acc, acc[1:])):
            errors.append("fit %d: accepted objectives not strictly decreasing" % n)
        w = np.linalg.eigvalsh(rep.final_metric.m)
        if w.min() < EIG_FLOOR:
            errors.append("fit %d: final metric not PSD (min eig %g)" % (n, w.min()))
    return errors


def _acc_by_k_invariants(acc_by_k, k_grid):
    errors = []
    if sorted(acc_by_k) != sorted(int(k) for k in k_grid):
        errors.append("acc_by_k keys %s != k_grid" % sorted(acc_by_k))
    if not all(0.0 <= v <= 1.0 for v in acc_by_k.values()):
        errors.append("acc_by_k value outside [0, 1]")
    return errors


class CvWorkload:
    """run_experiment on a shipped config, seed from the command line."""

    def __init__(self, name, root, seed, lib):
        self.name = name
        self.lib = lib
        cfg = lib.load_config(Path(root) / "configs" / CV_CONFIGS[name])
        self.cfg = dataclasses.replace(cfg, seed=seed,
                                       repetitions=CV_REPETITIONS[name])
        self.seed = seed
        lib.load(self.cfg.path, format=self.cfg.format)  # dataset parses

    def run_pass(self):
        (record,) = self.lib.run_experiment(self.cfg)
        return record

    def summary(self, record):
        return {"alpha": record.alpha, "gamma": record.gamma, "k": record.k,
                "accuracies": [_fmt(a) for a in record.accuracies],
                "mean": _fmt(record.mean), "std": _fmt(record.std),
                "acc_by_k": {str(k): _fmt(v) for k, v in sorted(record.acc_by_k.items())}}

    def accuracy(self, record):
        return record.mean

    def check(self, record, reports):
        cfg = self.cfg
        accs = np.asarray(record.accuracies, dtype=float)
        errors = []
        if accs.size != cfg.repetitions:
            errors.append("%d accuracies for %d repetitions" % (accs.size, cfg.repetitions))
        if not np.all((accs >= 0) & (accs <= 1)):
            errors.append("accuracy outside [0, 1]")
        if abs(record.mean - accs.mean()) > 1e-12:
            errors.append("mean %r is not the mean of the accuracies" % record.mean)
        std = float(np.std(accs, ddof=1)) if accs.size > 1 else 0.0
        if abs(record.std - std) > 1e-12:
            errors.append("std %r is not the std of the accuracies" % record.std)
        errors += _acc_by_k_invariants(record.acc_by_k, cfg.k_grid)
        if record.acc_by_k and max(record.acc_by_k.values()) > record.mean + 1e-12:
            errors.append("a fixed K beats the per-repetition best K on average")
        if record.alpha not in cfg.alpha_grid or record.gamma not in cfg.gamma_grid \
                or record.k not in cfg.k_grid:
            errors.append("selected (alpha, gamma, K) outside the grids")
        if len(reports) < cfg.repetitions:
            errors.append("%d fits seen for %d repetitions" % (len(reports), cfg.repetitions))
        return errors + _train_invariants(reports)


class FitWorkload:
    """One large train() and a K sweep on synthetic Gaussian classes."""

    name = "fit-n1500"

    def __init__(self, root, seed, lib):
        self.seed = seed
        self.lib = lib
        rng = np.random.default_rng(seed)
        # Orthonormal rows of a seeded random rotation in the informative
        # columns, whose noise is isotropic: the seed moves the class means
        # but not their geometry, so every seed is equally hard and
        # accuracy_mean stays comparable across seeds.
        rotation, _ = np.linalg.qr(rng.normal(size=(FIT_INFORMATIVE, FIT_INFORMATIVE)))
        means = np.zeros((FIT_CLASSES, FIT_D))
        means[:, :FIT_INFORMATIVE] = FIT_SEPARATION * rotation[:FIT_CLASSES]
        scales = np.concatenate([np.ones(FIT_INFORMATIVE),
                                 np.linspace(1.0, 3.0, FIT_D - FIT_INFORMATIVE)])
        train, test = (self._sample(rng, means, scales) for _ in range(2))
        z = lib.fit_zscore(train)
        self.train, self.test = lib.apply_zscore(z, train), lib.apply_zscore(z, test)
        n = self.train.n_samples
        self.hp = lib.HyperParams(alpha=1.0, gamma=1.0, lam=1.0 / n ** 2,
                                  loss=lib.HingeLoss(1.0),
                                  max_iters=FIT_ITERS, eta0=1e-3)

    def _sample(self, rng, means, scales):
        labels = np.repeat(np.arange(1, FIT_CLASSES + 1), FIT_N // FIT_CLASSES)
        x = means[labels - 1] + rng.normal(0.0, 1.0, (labels.size, FIT_D)) * scales
        return self.lib.Dataset(x, labels)

    def run_pass(self):
        lib = self.lib
        nbrs = lib.build_neighbor_sets(self.train, mode="all_same_class")
        report = lib.train(self.train, nbrs, self.hp, lib.default_init(self.train))
        acc_by_k = {k: lib.accuracy(lib.FitKnn(train=self.train,
                                               metric=report.final_metric, k=k),
                                    self.test)
                    for k in FIT_K_GRID}
        return {"acc_by_k": acc_by_k, "report": report}

    def summary(self, out):
        report, acc_by_k = out["report"], out["acc_by_k"]
        return {"iterations": report.iterations_run,
                "accepted": len(report.accepted_objectives()) - 1,
                "objective": "%.6g" % report.accepted_objectives()[-1],
                "acc_by_k": {str(k): _fmt(v) for k, v in sorted(acc_by_k.items())}}

    def accuracy(self, out):
        return max(out["acc_by_k"].values())

    def check(self, out, reports):
        errors = _acc_by_k_invariants(out["acc_by_k"], FIT_K_GRID)
        if len(reports) != 1 or reports[0] is not out["report"]:
            errors.append("expected exactly one fit, saw %d" % len(reports))
        return errors + _train_invariants([out["report"]])


def build(name, root, seed, lib=adaptnn):
    """The workload's inputs, built and run with ``lib``: adaptnn, or the
    frozen baseline copy of it that ``run.py`` times against."""
    if name in CV_CONFIGS:
        return CvWorkload(name, root, seed, lib)
    if name == FitWorkload.name:
        return FitWorkload(root, seed, lib)
    raise ValueError("unknown workload %r (choose from %s)" % (name, ", ".join(NAMES)))


def _load_reference():
    if not REFERENCE_PATH.is_file():
        return {}
    with open(REFERENCE_PATH, encoding="utf-8") as f:
        return json.load(f)


def reference_errors(workload, summary):
    """Differences from the stored default-seed outputs, to the printed
    digits; empty at any other seed."""
    if workload.seed != DEFAULT_SEED:
        return []
    want = _load_reference().get(workload.name)
    if want is None:
        return ["no reference stored for %s" % workload.name]
    return ["%s: %r != reference %r" % (key, summary.get(key), value)
            for key, value in want.items() if summary.get(key) != value]


def write_reference(workload):
    """Run one pass at the default seed and store its summary."""
    if workload.seed != DEFAULT_SEED:
        raise ValueError("the reference is for seed %d" % DEFAULT_SEED)
    ref = _load_reference()
    ref[workload.name] = workload.summary(workload.run_pass())
    with open(REFERENCE_PATH, "w", encoding="utf-8") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")
