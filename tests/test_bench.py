import dataclasses
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adaptnn import (Dataset, emit_report, load_config, load_registry,
                     parse_report, run_experiment, smooth_over_k,
                     stratified_split, save)
import adaptnn.bench as bench
from adaptnn.bench import AccuracyRecord, ExperimentConfig, cv_fold_ids
from adaptnn.objective import PairEvaluator
from helpers import make_dataset


def _write_synthetic(tmp_path, rng, n=40, d=3, classes=2):
    # two well-separated blobs so ANN converges quickly in tests
    ds = make_dataset(rng, n=n, d=d, classes=classes)
    X = ds.features + 4.0 * ds.labels[:, None]
    ds = Dataset(X, ds.labels)
    p = tmp_path / "synth.csv"
    save(ds, p)
    return ds, str(p)


def test_stratified_split_counts():
    labels = np.repeat([1, 2, 3], 50)
    rng = np.random.default_rng(0)
    tr, te = stratified_split(labels, 0.7, rng)
    assert tr.size == 105 and te.size == 45
    for c in (1, 2, 3):
        assert (labels[tr] == c).sum() == 35
        assert (labels[te] == c).sum() == 15
    assert np.intersect1d(tr, te).size == 0


def test_stratified_split_proportions_within_one():
    rng = np.random.default_rng(1)
    labels = np.array([1] * 13 + [2] * 7 + [3] * 29)
    tr, te = stratified_split(labels, 0.7, rng)
    for c, n_c in ((1, 13), (2, 7), (3, 29)):
        got = (labels[tr] == c).sum()
        assert abs(got - 0.7 * n_c) <= 1.0


def test_stratified_split_rejects_singleton_class():
    labels = np.array([1] * 10 + [2] * 10 + [3])
    with pytest.raises(ValueError, match="class 3 has 1 sample"):
        stratified_split(labels, 0.7, np.random.default_rng(0))


@pytest.mark.parametrize("fraction", [-1.0, 0.0, 1.0, 7.0, float("nan")])
def test_stratified_split_rejects_a_fraction_outside_the_unit_interval(fraction):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=r"fraction must be in \(0, 1\), got %s"
                                         % fraction):
        stratified_split(np.repeat([1, 2], 10), fraction, rng)
    # rejected before anything is drawn
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


def test_cv_folds_stratified():
    labels = np.repeat([1, 2], 25)
    ids = cv_fold_ids(labels, 5, np.random.default_rng(2))
    for f in range(5):
        assert (labels[ids == f] == 1).sum() == 5
        assert (labels[ids == f] == 2).sum() == 5


def _loop_split(labels, fraction, rng):
    # the per-class loop stratified_split ran before it dealt through _deal
    labels = np.asarray(labels)
    train_idx, test_idx = [], []
    for c in np.unique(labels):
        members = np.flatnonzero(labels == c)
        if members.size < 2:
            raise ValueError("class %s has 1 sample; a stratified split needs "
                             "at least 2 per class" % c)
        perm = rng.permutation(members)
        n_train = int(round(fraction * members.size))
        n_train = min(max(n_train, 1), members.size - 1)
        train_idx.append(perm[:n_train])
        test_idx.append(perm[n_train:])
    return np.sort(np.concatenate(train_idx)), np.sort(np.concatenate(test_idx))


def _loop_fold_ids(labels, folds, rng):
    # the round-robin loop of cv_fold_ids before _deal, followed by the
    # checks cross-validation then made on the drawn ids
    ids = np.empty(labels.size, dtype=int)
    for c in np.unique(labels):
        members = rng.permutation(np.flatnonzero(labels == c))
        ids[members] = np.arange(members.size) % folds
    empty = np.flatnonzero(np.bincount(ids, minlength=folds) == 0)
    if empty.size:
        raise ValueError("fold %d holds no samples: cv_folds=%d is more than the "
                         "%d training samples of the largest class"
                         % (empty[0], folds, ids.max() + 1))
    for c in np.unique(labels):
        in_c = ids[labels == c]
        fewest = in_c.size - np.bincount(in_c).max()
        if fewest < 2:
            raise ValueError("class %d is left with %d training sample(s) in a "
                             "fold with cv_folds=%d; cross-validation needs >= 2 "
                             "per class in every fold's training part"
                             % (c, fewest, folds))
    return ids


def _outcome(fn, *args):
    """fn's arrays as a tuple, or the message of the ValueError it raised."""
    try:
        out = fn(*args)
    except ValueError as exc:
        return str(exc)
    return out if isinstance(out, tuple) else (out,)


@st.composite
def _dealer_cases(draw):
    sizes = draw(st.lists(st.integers(1, 30), min_size=1, max_size=4))
    labels = np.repeat(np.arange(1, len(sizes) + 1), sizes)
    order = draw(st.permutations(range(labels.size)))
    return (labels[list(order)], draw(st.integers(2, 8)),
            draw(st.floats(0, 1, exclude_min=True, exclude_max=True)),
            draw(st.integers(0, 2 ** 32 - 1)))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(case=_dealer_cases())
def test_dealer_matches_the_per_class_loops(case):
    # equal rng states give equal arrays and leave equal rng states, and
    # cv_fold_ids raises exactly when the checks on the drawn ids did, with
    # the same message, but before anything is drawn
    labels, folds, fraction, seed = case
    for ours, loop, arg in ((stratified_split, _loop_split, fraction),
                            (cv_fold_ids, _loop_fold_ids, folds)):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got, want = _outcome(ours, labels, arg, rng), _outcome(loop, labels, arg, ref_rng)
        if isinstance(want, str):
            assert got == want
            if ours is cv_fold_ids:
                assert rng.bit_generator.state == np.random.default_rng(seed).bit_generator.state
            continue
        for a, b in zip(got, want, strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_cv_fold_ids_checks_folds_as_a_count():
    labels = np.repeat([1, 2], 10)
    for folds in (2.5, 0, None):
        with pytest.raises(ValueError, match="folds must be an integer >= 1, got %r"
                                             % (folds,)):
            cv_fold_ids(labels, folds, np.random.default_rng(0))


def test_run_experiment_deterministic(tmp_path):
    rng = np.random.default_rng(3)
    _, path = _write_synthetic(tmp_path, rng)
    cfg = ExperimentConfig(dataset="synth", path=path, method="ann_plus",
                           alpha_grid=(1.0, 4.0), gamma_grid=(1.0,),
                           k_grid=(1, 3), repetitions=2, cv_folds=2,
                           seed=11, max_iters=5)
    r1 = run_experiment(cfg)[0]
    r2 = run_experiment(cfg)[0]
    assert r1.accuracies == r2.accuracies
    assert (r1.alpha, r1.gamma, r1.k) == (r2.alpha, r2.gamma, r2.k)
    assert r1.acc_by_k == r2.acc_by_k


@pytest.mark.parametrize("method,alpha_grid", [("ann_plus", (1.0, 4.0)),
                                               ("ann_minus", (-1.0, -4.0))])
def test_cv_builds_each_fold_once(tmp_path, monkeypatch, method, alpha_grid):
    counts = {"nbrs": 0, "fits": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(bench, "build_neighbor_sets",
                        counted("nbrs", bench.build_neighbor_sets))
    monkeypatch.setattr(bench, "train", counted("fits", bench.train))
    _, path = _write_synthetic(tmp_path, np.random.default_rng(12), n=60)
    cfg = ExperimentConfig(dataset="synth", path=path, method=method,
                           alpha_grid=alpha_grid, gamma_grid=(1.0,),
                           k_grid=(1, 3), repetitions=2, cv_folds=5,
                           seed=3, max_iters=3)
    run_experiment(cfg)
    cells = len(cfg.alpha_grid) * len(cfg.gamma_grid)
    # per repetition: one neighbor-set build per fold plus the final fit's
    assert counts["nbrs"] == cfg.repetitions * (cfg.cv_folds + 1)
    assert counts["fits"] == cfg.repetitions * (cells * cfg.cv_folds + 1)


def test_cv_rejects_class_too_small_for_folds(tmp_path, monkeypatch):
    # class 3 keeps 2 of its 3 samples in the split's train part, and each
    # of folds 0 and 1 holds one of them out, leaving 1 in that fold's train
    rng = np.random.default_rng(13)
    labels = np.repeat([1, 2, 3], [20, 20, 3])
    p = tmp_path / "small.csv"
    save(Dataset(rng.normal(size=(labels.size, 3)) + labels[:, None], labels), p)
    fits = []
    monkeypatch.setattr(bench, "train", lambda *a, **k: fits.append(a))
    cfg = ExperimentConfig(dataset="small", path=str(p), method="ann_plus",
                           alpha_grid=(1.0, 2.0), repetitions=1)
    with pytest.raises(ValueError, match=r"class 3 is left with 1 training "
                                         r"sample\(s\) in a fold with cv_folds=5"):
        run_experiment(cfg)
    assert fits == []


def _cv_config(tmp_path, sizes, seed):
    labels = np.repeat(np.arange(1, len(sizes) + 1), sizes)
    rng = np.random.default_rng(seed)
    p = tmp_path / "cv.csv"
    save(Dataset(rng.normal(size=(labels.size, 3)) + labels[:, None], labels), p)
    return ExperimentConfig(dataset="cv", path=str(p), method="ann_plus",
                            alpha_grid=(1.0, 2.0), k_grid=(1, 3), repetitions=1,
                            cv_folds=5, max_iters=3)


@pytest.mark.parametrize("sizes", [(6, 30, 30), (30, 6, 30), (30, 30, 6)])
def test_cv_scores_held_out_folds_that_miss_a_class(tmp_path, sizes):
    # the small class has 4 training samples, so one of the 5 held-out folds
    # holds none of it; that fold is still scored, whichever class it misses
    record = run_experiment(_cv_config(tmp_path, sizes, seed=14))[0]
    assert record.alpha in (1.0, 2.0)
    assert 0.0 <= record.accuracies[0] <= 1.0


def test_cv_empty_held_out_fold_is_rejected_before_any_fit(tmp_path, monkeypatch):
    # 4 training samples per class deal out over folds 0-3, leaving fold 4 empty
    fits = []
    monkeypatch.setattr(bench, "train", lambda *a, **k: fits.append(a))
    with pytest.raises(ValueError, match=r"fold 4 holds no samples: cv_folds=5 is "
                                         r"more than the 4 training samples"):
        run_experiment(_cv_config(tmp_path, (6, 6), seed=15))
    assert fits == []


def test_cv_single_cell_skips_the_fold_check(tmp_path, monkeypatch):
    # the data of the test above: with one (alpha, gamma) cell there is
    # nothing to select, so no fold is trained and the fold check never runs
    rng = np.random.default_rng(13)
    labels = np.repeat([1, 2, 3], [20, 20, 3])
    p = tmp_path / "small.csv"
    save(Dataset(rng.normal(size=(labels.size, 3)) + labels[:, None], labels), p)
    fits = []
    train = bench.train

    def counted_train(*args, **kwargs):
        fits.append(args)
        return train(*args, **kwargs)

    monkeypatch.setattr(bench, "train", counted_train)
    cfg = ExperimentConfig(dataset="small", path=str(p), method="ann_plus",
                           alpha_grid=(2.0,), gamma_grid=(0.5,), k_grid=(1, 3),
                           repetitions=2, max_iters=3)
    record = run_experiment(cfg)[0]
    assert (record.alpha, record.gamma) == (2.0, 0.5)
    assert len(fits) == cfg.repetitions
    with pytest.raises(ValueError, match=r"class 3 is left with 1 training sample"):
        run_experiment(dataclasses.replace(cfg, alpha_grid=(2.0, 4.0)))


@pytest.mark.parametrize("alpha_grid, gamma_grid, builds", [
    ((1.0, 2.0), (0.5, 1.0), 3),  # one evaluator per fold, shared by 4 cells
    ((2.0,), (0.5,), 0)])         # one cell: nothing to select, nothing built
def test_cv_builds_one_evaluator_per_fold(monkeypatch, alpha_grid, gamma_grid,
                                          builds):
    built, used = [], []
    init, train = PairEvaluator.__init__, bench.train

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def spied_train(*args, evaluator=None, **kwargs):
        used.append(evaluator)
        return train(*args, evaluator=evaluator, **kwargs)

    monkeypatch.setattr(PairEvaluator, "__init__", counted_init)
    monkeypatch.setattr(bench, "train", spied_train)
    labels = np.repeat([1, 2], 15)
    rng = np.random.default_rng(33)
    data = Dataset(rng.normal(size=(30, 3)) + labels[:, None], labels)
    cfg = ExperimentConfig(dataset="cv", path="unused.csv", method="ann_plus",
                           alpha_grid=alpha_grid, gamma_grid=gamma_grid,
                           k_grid=(1, 3), cv_folds=3, max_iters=3)
    bench._cv_select(data, cfg, np.random.default_rng(0))
    assert len(built) == builds
    cells = len(alpha_grid) * len(gamma_grid)
    assert used == [ev for ev in built for _ in range(cells)]


def test_euclidean_baseline_skips_training(tmp_path):
    rng = np.random.default_rng(4)
    _, path = _write_synthetic(tmp_path, rng)
    cfg = ExperimentConfig(dataset="synth", path=path,
                           method="euclidean_baseline",
                           alpha_grid=(1.0,), gamma_grid=(1.0,),
                           k_grid=(1, 3), repetitions=3, seed=5)
    rec = run_experiment(cfg)[0]
    assert rec.method == "euclidean_baseline"
    assert len(rec.accuracies) == 3
    assert all(a > 0.9 for a in rec.accuracies)  # blobs are separable


def test_pnca_report_records_objectives(tmp_path):
    rng = np.random.default_rng(5)
    _, path = _write_synthetic(tmp_path, rng)
    cfg = ExperimentConfig(dataset="synth", path=path, method="pnca_report",
                           alpha_grid=(0.5, 1.0, 2.0), gamma_grid=(1.0,),
                           k_grid=(1,), repetitions=2, seed=5)
    rec = run_experiment(cfg)[0]
    assert len(rec.extras["pnca_objective"]) == 2
    assert len(rec.extras["nca_objective"]) == 2
    assert rec.alpha in (0.5, 1.0, 2.0)


# Both baselines score the identity metric on the same seed-7 splits, so
# they share every accuracy; pnca_report adds the per-repetition objectives.
_IRIS_BASELINE = {
    "gamma": 1.0, "k": 4,
    "accuracies": [0.9777777777777777, 0.9777777777777777, 0.9777777777777777,
                   0.9333333333333333],
    "mean": 0.9666666666666666, "std": 0.022222222222222202,
    "acc_by_k": dict(zip(range(1, 47, 3), [
        0.9388888888888889, 0.9555555555555555, 0.9555555555555555,
        0.961111111111111, 0.961111111111111, 0.9666666666666666,
        0.961111111111111, 0.9388888888888889, 0.9111111111111111,
        0.8999999999999999, 0.8888888888888888, 0.8833333333333333,
        0.8833333333333333, 0.8833333333333333, 0.8833333333333333,
        0.8833333333333333])),
}


@pytest.mark.parametrize("name, alpha, extras", [
    ("iris_euclidean", 1.0, []),
    ("iris_pnca_report", 0.5, [
        ("pnca_objective", [103.5274731033288, 103.41711991056553,
                            103.43298928210332, 103.46468170872879]),
        ("nca_objective", [85.38863082228923, 84.25555550635912,
                           85.07979322867297, 84.6000916329172])]),
])
def test_baseline_records_are_unchanged(name, alpha, extras):
    # the records of the two untrained methods at their shipped seed,
    # reduced to 4 repetitions
    root = pathlib.Path(__file__).resolve().parent.parent
    cfg = dataclasses.replace(load_config(root / "configs" / (name + ".cfg")),
                              repetitions=4)
    rec = run_experiment(cfg)[0]
    got = {"gamma": rec.gamma, "k": rec.k, "accuracies": rec.accuracies,
           "mean": rec.mean, "std": rec.std, "acc_by_k": rec.acc_by_k}
    assert got == _IRIS_BASELINE
    assert rec.alpha == alpha
    assert list(rec.extras.items()) == extras


def test_mean_std_recomputable(tmp_path):
    rng = np.random.default_rng(6)
    _, path = _write_synthetic(tmp_path, rng)
    cfg = ExperimentConfig(dataset="synth", path=path,
                           method="euclidean_baseline",
                           alpha_grid=(1.0,), gamma_grid=(1.0,),
                           k_grid=(1,), repetitions=4, seed=9)
    rec = run_experiment(cfg)[0]
    assert rec.mean == pytest.approx(np.mean(rec.accuracies), abs=1e-12)
    assert rec.std == pytest.approx(np.std(rec.accuracies, ddof=1), abs=1e-12)


def test_no_test_leakage_into_preprocessing(tmp_path):
    # poisoning the would-be test rows must not change the fitted statistics
    from adaptnn.bench import _preprocess, _subset
    rng = np.random.default_rng(7)
    ds, _ = _write_synthetic(tmp_path, rng, n=30)
    tr_idx, te_idx = stratified_split(ds.labels, 0.7, np.random.default_rng(0))
    train1, _ = _preprocess(_subset(ds, tr_idx), _subset(ds, te_idx))
    poisoned = ds.features.copy()
    poisoned[te_idx] = 1e9
    ds2 = Dataset(poisoned, ds.labels)
    train2, test2 = _preprocess(_subset(ds2, tr_idx), _subset(ds2, te_idx))
    assert np.array_equal(train1.features, train2.features)
    assert np.all(np.abs(test2.features) > 1e3)  # poison scaled by train stats only


def test_smooth_over_k_example():
    acc = {0: 0.5, 1: 0.8, 2: 0.9, 3: 1.0, 4: 0.7, 5: 0.6}
    out = smooth_over_k(acc)
    assert out == {0: pytest.approx(0.8)}  # mean of K+1..K+5; others lack windows


def test_smooth_over_k_constant_curve():
    acc = {k: 0.75 for k in range(1, 12)}
    out = smooth_over_k(acc)
    assert all(v == pytest.approx(0.75) for v in out.values())
    assert sorted(out) == list(range(1, 7))  # 7..11 lack complete windows


def test_smooth_over_k_matches_sliding_oracle():
    rng = np.random.default_rng(8)
    ks = list(range(1, 30, 3))
    acc = {k: float(rng.uniform(0.5, 1.0)) for k in ks}
    out = smooth_over_k(acc)
    for k in ks:
        window = [acc[k + i] for i in range(1, 6) if (k + i) in acc]
        if len(window) == 5:
            assert out[k] == pytest.approx(np.mean(window))
        else:
            assert k not in out


def test_report_roundtrip(tmp_path):
    rec = AccuracyRecord(method="ann_plus", dataset="synth", alpha=4.0,
                         gamma=0.5, k=7, accuracies=[0.9, 1.0, 0.95],
                         mean=0.95, std=0.05, wall_time_seconds=1.25,
                         acc_by_k={1: 0.9, 4: 0.95}, extras={"note": [1.0]})
    out = tmp_path / "report.jsonl"
    emit_report([rec], out)
    back = parse_report(out)
    assert len(back) == 1
    assert back[0] == rec
    curves = (tmp_path / "report.jsonl.curves").read_text()
    assert "curve=raw" in curves and "curve=smoothed" in curves


def test_emit_report_line_bytes(tmp_path):
    # the report format: the record's fields in declaration order, K keys as
    # strings, extras as given
    out = tmp_path / "r.jsonl"
    emit_report([_record(extras={"nca_objective": [12.5, 13.0], "note": "x"})], out)
    assert out.read_bytes() == (
        b'{"method": "ann_plus", "dataset": "synth", "alpha": 4.0, "gamma": 0.5, '
        b'"k": 7, "accuracies": [0.9, 1.0], "mean": 0.95, "std": 0.05, '
        b'"wall_time_seconds": 1.25, "acc_by_k": {"1": 0.9, "4": 0.95}, '
        b'"extras": {"nca_objective": [12.5, 13.0], "note": "x"}}\n')


def test_emit_report_empty(tmp_path):
    out = tmp_path / "empty.jsonl"
    emit_report([], out)
    assert parse_report(out) == []


def test_parse_report_skips_blank_and_comment_lines(tmp_path):
    out = tmp_path / "r.jsonl"
    emit_report([_record(), _record(alpha=1.0)], out)
    first, second = out.read_text().splitlines(keepends=True)
    out.write_text("# two records\n\n" + first + "\n" + second)
    assert parse_report(out) == [_record(), _record(alpha=1.0)]


@pytest.mark.parametrize("bad, message", [
    ('{"method" "ann_plus"}', "r.jsonl:4: Expecting ':' delimiter"),
    ('{"method": "ann_plus"}', "r.jsonl:4: not a report record: 'acc_by_k'"),
    ('[1, 2]', "r.jsonl:4: not a report record"),
    ('{"acc_by_k": {"x": 0.5}}', "r.jsonl:4: invalid literal for int")])
def test_parse_report_names_a_malformed_line(tmp_path, bad, message):
    out = tmp_path / "r.jsonl"
    emit_report([_record()], out)
    out.write_text("# report\n" + out.read_text() + "\n" + bad + "\n")
    with pytest.raises(ValueError, match=message):
        parse_report(out)


def _record(**changes):
    rec = AccuracyRecord(method="ann_plus", dataset="synth", alpha=4.0,
                         gamma=0.5, k=7, accuracies=[0.9, 1.0], mean=0.95,
                         std=0.05, wall_time_seconds=1.25,
                         acc_by_k={1: 0.9, 4: 0.95}, extras={"note": [1.0]})
    return dataclasses.replace(rec, **changes)


def _dir_contents(path):
    return {p.name: p.read_bytes() for p in path.iterdir()}


@pytest.mark.parametrize("changes", [
    {"mean": float("nan")},
    {"std": float("inf")},
    {"acc_by_k": {1: 0.9, 4: float("nan")}},
    {"extras": {"note": [float("nan")]}},
])
def test_emit_report_rejects_non_finite_and_keeps_existing(tmp_path, changes):
    out = tmp_path / "r.jsonl"
    emit_report([_record()], out)
    before = _dir_contents(tmp_path)
    with pytest.raises(ValueError):
        emit_report([_record(alpha=1.0), _record(**changes)], out)
    assert _dir_contents(tmp_path) == before
    assert parse_report(out) == [_record()]


def test_emit_report_failure_mid_write_keeps_existing(tmp_path, monkeypatch):
    out = tmp_path / "r.jsonl"
    emit_report([_record()], out)
    before = _dir_contents(tmp_path)

    def broken(acc_by_k):
        raise OSError("disk full")

    # the records file is already written when the curves file fails
    monkeypatch.setattr(bench, "smooth_over_k", broken)
    with pytest.raises(OSError):
        emit_report([_record(alpha=1.0)], out)
    for name, data in before.items():
        assert (tmp_path / name).read_bytes() == data
    monkeypatch.undo()
    emit_report([_record(alpha=1.0)], out)
    assert parse_report(out) == [_record(alpha=1.0)]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(before)


def test_full_run_report_consistency(tmp_path):
    rng = np.random.default_rng(9)
    _, path = _write_synthetic(tmp_path, rng)
    cfg = ExperimentConfig(dataset="synth", path=path,
                           method="euclidean_baseline", alpha_grid=(1.0,),
                           gamma_grid=(1.0,), k_grid=(1, 3, 5),
                           repetitions=3, seed=2)
    records = run_experiment(cfg)
    out = tmp_path / "r.jsonl"
    emit_report(records, out)
    back = parse_report(out)[0]
    assert back.mean == pytest.approx(np.mean(back.accuracies), abs=1e-12)
    assert back.std == pytest.approx(np.std(back.accuracies, ddof=1), abs=1e-12)


def test_load_config_and_registry(tmp_path):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    ds = make_dataset(np.random.default_rng(10), n=12, d=2, classes=2)
    save(ds, data_dir / "toy.csv")
    (data_dir / "registry.cfg").write_text("toy = toy.csv delimited\n")
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(
        "# comment\n"
        "dataset = toy\n"
        "registry = data/registry.cfg\n"
        "method = ann_minus\n"
        "alpha_grid = -1, -4\n"
        "gamma_grid = 0.5 2\n"
        "k_grid = 1 4 7\n"
        "repetitions = 3\n"
        "split_fraction = 0.7\n"
        "cv_folds = 2\n"
        "seed = 42\n"
        "max_iters = 15\n"
        "eta0 = 5e-4\n")
    cfg = load_config(cfg_file)
    assert cfg.dataset == "toy"
    assert cfg.format == "delimited"
    assert cfg.alpha_grid == (-1.0, -4.0)
    assert cfg.k_grid == (1, 4, 7)
    assert cfg.seed == 42 and cfg.eta0 == 5e-4
    reg = load_registry(data_dir / "registry.cfg")
    assert reg["toy"][1] == "delimited"


def test_config_validation(tmp_path):
    with pytest.raises(ValueError):
        ExperimentConfig(dataset="x", path="p", method="nope")
    with pytest.raises(ValueError):
        ExperimentConfig(dataset="x", path="p", method="ann_plus",
                         alpha_grid=(-1.0,))
    with pytest.raises(ValueError):
        ExperimentConfig(dataset="x", path="p", method="ann_minus",
                         alpha_grid=(1.0,))
    with pytest.raises(ValueError):
        ExperimentConfig(dataset="x", path="p", split_fraction=1.5)
    for grids in ({"alpha_grid": (1.0, float("nan"))},
                  {"method": "ann_minus", "alpha_grid": (float("nan"),)},
                  {"alpha_grid": (float("inf"),)},
                  {"gamma_grid": (float("inf"),)},
                  {"gamma_grid": (float("nan"),)},
                  {"k_grid": (1, float("inf"))}):
        with pytest.raises(ValueError, match="must be finite"):
            ExperimentConfig(dataset="x", path="p", **grids)
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("dataset = toy\n")
    with pytest.raises(ValueError, match="dataset_path or registry"):
        load_config(cfg_file)


def test_repeated_config_key_is_an_error(tmp_path):
    # a repeated key is an error, not an override by the later line
    cfg_file = tmp_path / "dup.cfg"
    cfg_file.write_text("dataset = toy\n"
                        "dataset_path = toy.csv\n"
                        "alpha_grid = 0.25 1\n"
                        "\n"
                        "alpha_grid = 4 16\n")
    with pytest.raises(ValueError, match=r"dup.cfg:5: repeated key 'alpha_grid' "
                                         r"\(first on line 3\)"):
        load_config(cfg_file)
    cfg_file.write_text("dataset = toy\nmax_iters\n")
    with pytest.raises(ValueError, match="dup.cfg:2: expected 'key = value'"):
        load_config(cfg_file)


@pytest.mark.parametrize("line, message", [
    ("alpha = 1", r"exp.cfg:3: unknown config key 'alpha'"),
    ("repetitions = 2.5", r"exp.cfg:3: cannot read repetitions = '2.5'"),
    ("seed = 1.5", r"exp.cfg:3: cannot read seed = '1.5'"),
    ("alpha_grid = 1 x", r"exp.cfg:3: cannot read alpha_grid = '1 x': .*'x'"),
    ("k_grid = 1, 4.0", r"exp.cfg:3: cannot read k_grid = '1, 4.0': .*'4.0'"),
    ("eta0 = fast", r"exp.cfg:3: cannot read eta0 = 'fast'")])
def test_config_line_errors_name_file_line_and_key(tmp_path, line, message):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("dataset = toy\ndataset_path = toy.csv\n%s\n" % line)
    with pytest.raises(ValueError, match=message):
        load_config(cfg_file)


@pytest.mark.parametrize("location", [
    "dataset_path = toy.csv\nregistry = registry.cfg\n",
    "registry = registry.cfg\ndataset_format = delimited\n",
    "dataset_format = delimited\n"])
def test_config_dataset_location_is_path_or_registry(tmp_path, location):
    (tmp_path / "registry.cfg").write_text("toy = toy.csv delimited\n")
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("dataset = toy\n" + location)
    with pytest.raises(ValueError, match="config needs either dataset_path or registry"):
        load_config(cfg_file)


def test_repeated_registry_name_is_an_error(tmp_path):
    reg = tmp_path / "registry.cfg"
    reg.write_text("# datasets\ntoy = a.csv delimited\ntoy = b.csv delimited\n")
    with pytest.raises(ValueError, match=r"registry.cfg:3: repeated key 'toy'"):
        load_registry(reg)
    for line in ("toy a.csv delimited\n", "toy = a.csv\n"):
        reg.write_text(line)
        with pytest.raises(ValueError, match="registry.cfg:1: registry line needs "
                                             "'name = path format'"):
            load_registry(reg)


@pytest.mark.parametrize("text, message", [
    ("dataset_path = toy.csv\n", "config must name a dataset"),
    ("dataset = other\nregistry = registry.cfg\n", "dataset 'other' not in registry"),
    ("dataset = toy\n", "config needs either dataset_path or registry"),
    ("dataset = toy\ndataset_path = toy.csv\nseed = -1\n",
     "seed must be an integer >= 0, got -1"),
    ("dataset = toy\ndataset_path = toy.csv\nalpha_grid = -1\n",
     "ann_plus requires a positive alpha grid")])
def test_config_errors_after_the_line_pass_name_the_config(tmp_path, text, message):
    (tmp_path / "registry.cfg").write_text("toy = toy.csv delimited\n")
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(text)
    with pytest.raises(ValueError, match=r"exp\.cfg: " + message):
        load_config(cfg_file)


def test_registry_error_in_a_config_names_the_registry(tmp_path):
    (tmp_path / "registry.cfg").write_text("# datasets\ntoy = toy.csv\n")
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("dataset = toy\nregistry = registry.cfg\n")
    with pytest.raises(ValueError, match=r"registry\.cfg:2: registry line needs "
                                         r"'name = path format', got 'toy.csv'") as err:
        load_config(cfg_file)
    assert "exp.cfg" not in str(err.value)


def test_config_eta0_must_be_finite(tmp_path):
    save(make_dataset(np.random.default_rng(10), n=12, d=2, classes=2),
         tmp_path / "toy.csv")
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("dataset = toy\ndataset_path = toy.csv\nrepetitions = 1\n"
                        "cv_folds = 2\neta0 = inf\n")
    with pytest.raises(ValueError, match="eta0 must be finite"):
        run_experiment(load_config(cfg_file))


@pytest.mark.parametrize("method", ["ann_plus", "euclidean_baseline"])
def test_config_checks_eta0_and_max_iters(method):
    # checked when the config is built, under every method, before any data
    # is read; euclidean_baseline trains nothing and would never reach them
    for eta0 in (float("inf"), float("nan"), 0.0, -1e-3):
        with pytest.raises(ValueError, match="eta0 must be finite and > 0"):
            ExperimentConfig(dataset="x", path="p", method=method, eta0=eta0)
    for max_iters in (0, -3, 2.5):
        with pytest.raises(ValueError, match="max_iters must be an integer >= 1"):
            ExperimentConfig(dataset="x", path="p", method=method,
                             max_iters=max_iters)



def test_config_rejects_fractional_counts():
    # checked when the config is built, before any data is read; a fractional
    # K would otherwise be cast down to K = 1 in the sweep
    for kwargs, message in (({"k_grid": (1.5, 4)}, "k_grid value must be an integer >= 1"),
                            ({"k_grid": (1, 0)}, "k_grid value must be an integer >= 1"),
                            ({"repetitions": 2.5}, "repetitions must be an integer >= 1"),
                            ({"repetitions": 0}, "repetitions must be an integer >= 1"),
                            ({"cv_folds": 2.5}, "cv_folds must be an integer >= 1"),
                            ({"cv_folds": 1}, "cv_folds must be >= 2")):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(dataset="x", path="p", **kwargs)

@pytest.mark.parametrize("k_grid", [("a",), (None,), (1, "4")])
def test_config_rejects_a_k_grid_value_that_is_not_a_number(k_grid):
    with pytest.raises(ValueError, match="k_grid value must be an integer >= 1, "
                                         "got %r" % (k_grid[-1],)):
        ExperimentConfig(dataset="x", path="p", k_grid=k_grid)


def test_config_file_k_beyond_the_float_range_is_a_count(tmp_path):
    # int() reads any integer, and K is capped at the class size, so a K
    # that no float can hold sweeps like K = the largest class
    save(make_dataset(np.random.default_rng(10), n=12, d=2, classes=2),
         tmp_path / "toy.csv")
    big = 10 ** 400
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("dataset = toy\ndataset_path = toy.csv\n"
                        "method = euclidean_baseline\nrepetitions = 1\n"
                        "k_grid = 1 %d %d\n" % (big, 12))
    cfg = load_config(cfg_file)
    assert cfg.k_grid == (1, big, 12)
    acc_by_k = run_experiment(cfg)[0].acc_by_k
    assert acc_by_k[big] == acc_by_k[12]


@pytest.mark.parametrize("kwargs, message", [
    ({"seed": -1}, "seed must be an integer >= 0, got -1"),
    ({"seed": 1.5}, "seed must be an integer >= 0, got 1.5"),
    ({"seed": None}, "seed must be an integer >= 0, got None"),
    ({"format": "csv"}, "unknown format 'csv'")])
def test_config_checks_seed_and_format(kwargs, message):
    # checked when the config is built, before any data is read
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(dataset="x", path="p", **kwargs)
    ExperimentConfig(dataset="x", path="p", seed=np.int64(0))


@pytest.mark.parametrize("line, message", [
    ("seed = -1", "seed must be an integer >= 0, got -1"),
    ("dataset_format = csv", "unknown format 'csv'")])
def test_config_file_seed_and_format_checked_at_load(tmp_path, line, message):
    # the dataset file does not exist: the error comes before it is read
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("dataset = toy\ndataset_path = absent.csv\n%s\n" % line)
    with pytest.raises(ValueError, match=message):
        load_config(cfg_file)


@pytest.mark.parametrize("method", bench.METHODS)
def test_config_rejects_alpha_zero_under_every_method(tmp_path, method):
    # every (alpha, gamma) cell must make valid HyperParams, so alpha = 0 is
    # caught when the config is built, before the dataset (absent here) is read
    with pytest.raises(ValueError, match="alpha"):
        ExperimentConfig(dataset="x", path="p", method=method, alpha_grid=(0.0, 1.0))
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("dataset = toy\ndataset_path = absent.csv\n"
                        "method = %s\nalpha_grid = 0 1\n" % method)
    with pytest.raises(ValueError, match=r"exp\.cfg: .*alpha"):
        load_config(cfg_file)


@pytest.mark.parametrize("gamma_grid", [(0.0,), (1.0, -2.0)])
def test_config_rejects_gamma_grid_through_hyperparams(gamma_grid):
    with pytest.raises(ValueError, match="gamma must be > 0"):
        ExperimentConfig(dataset="x", path="p", method="euclidean_baseline",
                         gamma_grid=gamma_grid)


def test_config_file_with_bytes_that_are_not_utf8_names_the_line(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_bytes(b"dataset = toy\n# caf\xe9\ndataset_path = toy.csv\n")
    with pytest.raises(ValueError, match=r"exp\.cfg:2: 'utf-8' codec can't decode"):
        load_config(cfg_file)


def test_config_file_eta0_checked_at_load(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("dataset = toy\ndataset_path = toy.csv\n"
                        "method = euclidean_baseline\neta0 = inf\n")
    with pytest.raises(ValueError, match="eta0 must be finite"):
        load_config(cfg_file)


def test_sparse_format_through_harness(tmp_path):
    rng = np.random.default_rng(12)
    ds = make_dataset(rng, n=24, d=3, classes=2)
    shifted = Dataset(ds.features + 3.0 * ds.labels[:, None], ds.labels)
    p = tmp_path / "synth.sparse"
    save(shifted, p, format="sparse_index_value")
    cfg = ExperimentConfig(dataset="synth", path=str(p),
                           format="sparse_index_value",
                           method="euclidean_baseline", alpha_grid=(1.0,),
                           gamma_grid=(1.0,), k_grid=(1, 3), repetitions=2,
                           seed=1)
    rec = run_experiment(cfg)[0]
    assert len(rec.accuracies) == 2
    assert all(0.0 <= a <= 1.0 for a in rec.accuracies)


def test_pca_beyond_threshold_features(tmp_path, monkeypatch):
    # z-scoring then PCA to PCA_THRESHOLD components, fitted on the train part
    rng = np.random.default_rng(13)
    ds = make_dataset(rng, n=30, d=bench.PCA_THRESHOLD + 10, classes=2)
    p = tmp_path / "wide.csv"
    save(ds, p)
    seen = []
    sweep = bench.accuracy_by_k

    def recording_sweep(train, metric, test, k_grid):
        seen.append((train.n_features, test.n_features, metric.dim))
        return sweep(train, metric, test, k_grid)

    monkeypatch.setattr(bench, "accuracy_by_k", recording_sweep)
    cfg = ExperimentConfig(dataset="wide", path=str(p), method="euclidean_baseline",
                           k_grid=(1, 3), repetitions=2, seed=4)
    rec = run_experiment(cfg)[0]
    assert seen == [(bench.PCA_THRESHOLD,) * 3] * 2
    assert len(rec.accuracies) == 2


def test_full_grids():
    from adaptnn.bench import (FULL_K_GRID, FULL_NEGATIVE_POWER_GRID,
                               FULL_POWER_GRID)
    assert FULL_POWER_GRID[0] == 2.0 ** -9
    assert FULL_POWER_GRID[-1] == 2.0 ** 10
    assert len(FULL_POWER_GRID) == 20
    assert FULL_NEGATIVE_POWER_GRID == tuple(-g for g in FULL_POWER_GRID)
    assert FULL_K_GRID == (1, 4, 7, 10, 13, 16, 19, 22, 25, 28, 31, 34, 37,
                           40, 43, 46)
    # the full grids are valid configurations for their matching methods
    ExperimentConfig(dataset="x", path="p", method="ann_plus",
                     alpha_grid=FULL_POWER_GRID, gamma_grid=FULL_POWER_GRID)
    ExperimentConfig(dataset="x", path="p", method="ann_minus",
                     alpha_grid=FULL_NEGATIVE_POWER_GRID,
                     gamma_grid=FULL_POWER_GRID)


def test_shipped_configs_parse():
    import pathlib
    root = pathlib.Path(__file__).resolve().parent.parent
    for name in ("iris_ann_plus", "wine_ann_minus", "iris_euclidean",
                 "wine_euclidean", "iris_pnca_report"):
        cfg = load_config(root / "configs" / ("%s.cfg" % name))
        assert cfg.repetitions >= 1
