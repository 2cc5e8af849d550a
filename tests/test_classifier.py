import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adaptnn import (Dataset, FitKnn, MetricMatrix, accuracy, accuracy_by_k,
                     decision_score, predict, predict_batch, topk_avg_smallest)
from adaptnn.classifier import _group, _scores
from adaptnn.metric import _TABLE_BLOCK, pairwise_sq
from helpers import knn_predictions_oracle, make_dataset, random_psd


def _line_dataset():
    # class 1 = {0, 1}, class 2 = {10, 11} on the real line
    return Dataset([[0.0], [1.0], [10.0], [11.0]], [1, 1, 2, 2])


def test_hand_computed_decision_score():
    fit = FitKnn(train=_line_dataset(), metric=MetricMatrix.identity(1), k=2)
    # distances from x=0.4: class 1 {0.16, 0.36}, class 2 {92.16, 112.36}
    h = decision_score(fit, [0.4], 1)
    expected = (0.16 + 0.36) / 2 - (92.16 + 112.36) / 2
    assert h == pytest.approx(expected, abs=1e-10)
    assert h < 0
    assert predict(fit, [0.4]) == 1


def test_negative_score_iff_predicted():
    fit = FitKnn(train=_line_dataset(), metric=MetricMatrix.identity(1), k=2)
    assert decision_score(fit, [10.6], 2) < 0
    assert decision_score(fit, [10.6], 1) > 0
    assert predict(fit, [10.6]) == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_queries_are_rejected(bad):
    # each used to be answered silently: class 1 from predict and
    # predict_batch whichever class is nearest, nan from decision_score
    fit = FitKnn(train=_line_dataset(), metric=MetricMatrix.identity(1), k=2)
    for call in (lambda: predict(fit, [bad]), lambda: decision_score(fit, [bad], 2)):
        with pytest.raises(ValueError, match="query row 0 is not finite"):
            call()
    with pytest.raises(ValueError, match="query row 2 is not finite"):
        predict_batch(fit, [[10.6], [0.4], [bad], [bad]])
    assert predict_batch(fit, [[10.6], [0.4]]).tolist() == [2, 1]


def test_equidistant_symmetric_score_is_zero():
    fit = FitKnn(train=_line_dataset(), metric=MetricMatrix.identity(1), k=2)
    assert decision_score(fit, [5.5], 1) == pytest.approx(0.0, abs=1e-9)


def test_coincident_point_scores_strongly_negative():
    # query on top of a class-1 member, the other class far away: the score is
    # 0 minus a large complement distance
    fit = FitKnn(train=_line_dataset(), metric=MetricMatrix.identity(1), k=1)
    assert decision_score(fit, [0.0], 1) == pytest.approx(-100.0)


def test_coincident_training_point():
    ds = make_dataset(np.random.default_rng(0), n=12, d=3, classes=3)
    fit = FitKnn(train=ds, metric=MetricMatrix.identity(3), k=1)
    for i in range(ds.n_samples):
        assert predict(fit, ds.features[i]) == ds.labels[i]


def test_k_capped_at_class_size():
    ds = _line_dataset()
    fit = FitKnn(train=ds, metric=MetricMatrix.identity(1), k=50)
    assert predict(fit, [0.2]) == 1  # still defined, per-class K capped at 2


def test_unknown_class_rejected():
    fit = FitKnn(train=_line_dataset(), metric=MetricMatrix.identity(1), k=1)
    with pytest.raises(ValueError, match="unknown class"):
        decision_score(fit, [0.0], 7)


def test_non_integer_class_id_rejected():
    fit = FitKnn(train=_line_dataset(), metric=MetricMatrix.identity(1), k=1)
    # 1.5 lies between class ids 1 and 2 but names neither
    with pytest.raises(ValueError, match="unknown class 1.5"):
        decision_score(fit, [0.0], 1.5)


@pytest.mark.parametrize("k", [1.5, 0, -2])
def test_fractional_or_nonpositive_k_rejected(k):
    ds = _line_dataset()
    metric = MetricMatrix.identity(1)
    with pytest.raises(ValueError, match="k must be an integer >= 1"):
        FitKnn(train=ds, metric=metric, k=k)
    # a cast to int would silently score K = 1 for 1.5
    with pytest.raises(ValueError, match="k must be an integer >= 1"):
        accuracy_by_k(ds, metric, ds, (k, 2))


def test_k1_equals_bruteforce_1nn():
    rng = np.random.default_rng(1)
    for _ in range(10):
        ds = make_dataset(rng, n=20, d=4, classes=3)
        m = random_psd(rng, 4, jitter=0.2)
        fit = FitKnn(train=ds, metric=MetricMatrix(m), k=1)
        for _ in range(5):
            q = rng.normal(size=4)
            diffs = ds.features - q
            dists = np.einsum("nd,de,ne->n", diffs, m, diffs)
            assert predict(fit, q) == ds.labels[np.argmin(dists)]


def test_prediction_invariant_under_metric_scaling():
    rng = np.random.default_rng(2)
    ds = make_dataset(rng, n=25, d=3, classes=3)
    m = MetricMatrix(random_psd(rng, 3, jitter=0.1))
    for k in (1, 3, 5):
        fit = FitKnn(train=ds, metric=m, k=k)
        fit3 = FitKnn(train=ds, metric=m.scaled(3.0), k=k)
        queries = rng.normal(size=(30, 3))
        assert np.array_equal(predict_batch(fit, queries),
                              predict_batch(fit3, queries))


def test_decision_score_consistent_with_predict():
    rng = np.random.default_rng(3)
    ds = make_dataset(rng, n=18, d=3, classes=3)
    fit = FitKnn(train=ds, metric=MetricMatrix.identity(3), k=2)
    for _ in range(20):
        q = rng.normal(size=3)
        c_hat = predict(fit, q)
        # at most one class can have a negative one-vs-rest score, and the
        # predicted class minimizes the per-class average
        negatives = [c for c in range(1, 4) if decision_score(fit, q, c) < 0]
        assert len(negatives) <= 1
        if negatives:
            assert negatives[0] == c_hat


@pytest.mark.parametrize("k", [1, 3, 7, 40])
def test_two_class_decision_score_is_predict(k):
    # with two classes the complement of class 1 is class 2, so the score is
    # the difference of the two class scores that predict compares: its sign
    # gives the prediction exactly, ties (toward class 1) and K above a
    # class's size included
    rng = np.random.default_rng(21)
    ds = make_dataset(rng, n=14, d=2, classes=2)
    fit = FitKnn(train=ds, metric=MetricMatrix(random_psd(rng, 2)), k=k)
    queries = np.vstack([rng.normal(size=(40, 2)), ds.features, [[0.0, 0.0]]])
    for q, pred in zip(queries, predict_batch(fit, queries)):
        assert (decision_score(fit, q, 1) <= 0) == (pred == 1)
        assert (decision_score(fit, q, 2) < 0) == (pred == 2)


def test_accuracy_on_train_is_perfect_with_k1():
    ds = make_dataset(np.random.default_rng(4), n=15, d=3, classes=2)
    fit = FitKnn(train=ds, metric=MetricMatrix.identity(3), k=1)
    assert accuracy(fit, ds) == 1.0


def test_accuracy_in_unit_interval_and_dimension_check():
    rng = np.random.default_rng(5)
    train = make_dataset(rng, n=20, d=3, classes=2)
    test = make_dataset(rng, n=10, d=3, classes=2)
    fit = FitKnn(train=train, metric=MetricMatrix.identity(3), k=3)
    assert 0.0 <= accuracy(fit, test) <= 1.0
    bad = make_dataset(rng, n=10, d=4, classes=2)
    with pytest.raises(ValueError):
        accuracy(fit, bad)


@pytest.mark.parametrize("classes", [2, 3])
def test_accuracy_by_k_matches_per_k_predictions(classes):
    rng = np.random.default_rng(20 + classes)
    # unequal classes, in blocks and interleaved: interleaved labels make each
    # class's columns of the distance table non-contiguous
    blocks = np.repeat(np.arange(1, classes + 1), 4 * np.arange(1, classes + 1))
    for labels in (blocks, rng.permutation(blocks)):
        _check_accuracy_by_k(rng, Dataset(rng.normal(size=(labels.size, 3)), labels),
                             make_dataset(rng, n=17, d=3, classes=classes))


def _check_accuracy_by_k(rng, train, test):
    metric = MetricMatrix(random_psd(rng, 3, jitter=0.1))
    before = [a.copy() for a in (train.features, train.labels, test.features,
                                 test.labels, metric.m)]
    smallest = min(train.class_indices(c).size
                   for c in range(1, train.n_classes + 1))
    # K = 1, K inside every class, K past the smallest class, K past them all
    k_grid = sorted({1, smallest - 1, smallest + 2, train.n_samples + 5} - {0})
    got = accuracy_by_k(train, metric, test, k_grid)
    assert list(got) == k_grid
    for k in k_grid:
        fit = FitKnn(train=train, metric=metric, k=k)
        queries = test.features.copy()
        pred = predict_batch(fit, queries)
        assert np.array_equal(queries, test.features)
        assert got[k] == float(np.mean(pred == test.labels))
        assert accuracy(fit, test) == got[k]
        assert accuracy_by_k(train, metric, test, (k,)) == {k: got[k]}
    after = (train.features, train.labels, test.features, test.labels, metric.m)
    assert all(np.array_equal(a, b) for a, b in zip(before, after))


def test_block_scoring_matches_whole_table_oracle():
    # 3 interleaved classes of unequal size: each row block of the
    # 150 x 700 table holds _TABLE_BLOCK // 700 = 93 rows, so the queries
    # span two blocks, the second ragged
    rng = np.random.default_rng(26)
    labels = rng.permutation(np.repeat([1, 2, 3], [500, 150, 50]))
    train = Dataset(rng.normal(size=(labels.size, 3)), labels)
    test = make_dataset(rng, n=150, d=3, classes=3)
    assert _TABLE_BLOCK // train.n_samples < test.n_samples
    metric = MetricMatrix(random_psd(rng, 3, jitter=0.1))
    for k in (1, 7, 60):  # 60 is above the smallest class
        pred = predict_batch(FitKnn(train=train, metric=metric, k=k), test.features)
        assert np.array_equal(pred, knn_predictions_oracle(train, metric,
                                                           test.features, k))
    _check_accuracy_by_k(rng, train, test)


def test_accuracy_by_k_validates_inputs():
    rng = np.random.default_rng(25)
    train = make_dataset(rng, n=20, d=3, classes=3)
    metric = MetricMatrix.identity(3)
    with pytest.raises(ValueError, match="query rows with 3 features"):
        accuracy_by_k(train, metric, make_dataset(rng, n=8, d=4, classes=3), (1, 3))
    with pytest.raises(ValueError):
        accuracy_by_k(train, metric, make_dataset(rng, n=8, d=3, classes=3), (1, 0))


def test_raw_array_metric_is_a_type_error():
    # the distance table relies on MetricMatrix's exact symmetry
    rng = np.random.default_rng(26)
    train, test = (make_dataset(rng, n=n, d=3, classes=3) for n in (20, 8))
    with pytest.raises(TypeError, match="metric must be a MetricMatrix"):
        FitKnn(train=train, metric=np.eye(3))
    with pytest.raises(TypeError, match="metric must be a MetricMatrix"):
        accuracy_by_k(train, np.eye(3), test, (1, 3))


def test_tie_breaks_toward_smaller_class_id():
    ds = Dataset([[0.0], [2.0], [0.0], [2.0]], [1, 1, 2, 2])
    fit = FitKnn(train=ds, metric=MetricMatrix.identity(1), k=2)
    assert predict(fit, [1.0]) == 1
    # the zero metric ties every class score at 0: every query goes to class 1
    rng = np.random.default_rng(5)
    train, test = (make_dataset(rng, n=n, d=3, classes=3) for n in (30, 20))
    zero = MetricMatrix(np.zeros((3, 3)))
    assert predict_batch(FitKnn(train=train, metric=zero, k=3),
                         test.features).tolist() == [1] * 20
    share = float(np.mean(test.labels == 1))
    assert accuracy_by_k(train, zero, test, (1, 5)) == {1: share, 5: share}


def test_queries_are_checked_against_the_feature_count():
    fit = FitKnn(train=_line_dataset(), metric=MetricMatrix.identity(1), k=2)
    one = "expected one feature vector with 1 features"
    # two features, or two queries where one is expected
    for x in ([1.0, 2.0], [[1.0]], [[0.0], [11.0]]):
        with pytest.raises(ValueError, match=one):
            predict(fit, x)
        with pytest.raises(ValueError, match=one):
            decision_score(fit, x, 1)
    for x in ([[1.0, 2.0]], np.zeros((1, 1, 1))):
        with pytest.raises(ValueError, match="expected query rows with 1 features"):
            predict_batch(fit, x)
    # a scalar is one query when d = 1, and a 1-D x is one row
    assert predict(fit, 10.6) == 2
    assert decision_score(fit, 0.4, 1) == decision_score(fit, [0.4], 1)
    assert predict_batch(fit, [0.4]).tolist() == [1]
    assert predict_batch(fit, [[0.0], [11.0]]).tolist() == [1, 2]


def _scores_oracle(train, metric, queries, groups, ks):
    """_scores from the whole table: for every K, np.partition of each
    group's freshly gathered columns, K capped at the group's size, and the
    K smallest of each row added one column after another, left to right."""
    table = pairwise_sq(metric, queries, train.features)
    out = np.empty((len(ks), len(queries), len(groups)))
    for g, idx in enumerate(groups):
        for i, k in enumerate(ks):
            kc = min(k, idx.size)
            part = np.partition(table[:, idx], kc - 1, axis=1)[:, :kc]
            out[i, :, g] = functools.reduce(np.add, part.T) / kc
    return out


def _class_indices(train):
    return [train.class_indices(c) for c in range(1, train.n_classes + 1)]


@st.composite
def _scoring_cases(draw):
    """Classes of 2-40 samples, class-sorted or shuffled; K grids with a
    repeated K and a K capped at the largest class; a row block of `step`
    queries, with the queries spanning at least two blocks and the last one
    ragged, one row included."""
    sizes = draw(st.lists(st.integers(2, 40), min_size=2, max_size=4))
    labels = np.repeat(np.arange(1, len(sizes) + 1), sizes).tolist()
    shuffled = draw(st.booleans())
    if shuffled:
        labels = draw(st.permutations(labels))
    ks = draw(st.lists(st.integers(1, 45), min_size=1, max_size=5))
    ks += [ks[0], max(sizes) + draw(st.integers(0, 5))]
    step = draw(st.integers(3, 7))
    n_queries = step * draw(st.integers(1, 3)) + draw(st.integers(1, step - 1))
    return np.array(labels), shuffled, ks, step, n_queries, draw(st.integers(0, 2 ** 16))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(case=_scoring_cases())
def test_run_views_score_as_gathered_columns_and_whole_table(case):
    # a run group is read as a view of the block and partitioned in place;
    # every score must hold the same bits as gathered columns and as the
    # whole-table oracle, kc >= 8 included (where numpy's sum of a row may
    # go pairwise)
    labels, shuffled, ks, step, n_queries, seed = case
    rng = np.random.default_rng(seed)
    d = 3
    train = Dataset(rng.normal(size=(labels.size, d)), labels)
    metric = MetricMatrix(random_psd(rng, d, jitter=0.1))
    queries = rng.normal(size=(n_queries, d))
    indices = _class_indices(train)
    groups = [_group(idx) for idx in indices]
    if not shuffled:
        assert all(isinstance(g, slice) for g in groups)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("adaptnn.metric._TABLE_BLOCK", step * train.n_samples)
        as_runs = _scores(train, metric, queries, groups, ks)
        as_indices = _scores(train, metric, queries, indices, ks)
    assert np.array_equal(as_runs, as_indices)
    assert np.array_equal(as_runs, _scores_oracle(train, metric, queries, indices, ks))


def test_group_is_a_slice_only_for_one_run():
    assert _group(np.array([2, 3, 4])) == slice(2, 5)
    assert _group(np.array([5])) == slice(5, 6)
    for idx in ([0, 1, 3], [0, 2], []):
        gathered = _group(np.array(idx, dtype=np.intp))
        assert isinstance(gathered, np.ndarray) and gathered.tolist() == idx


def test_runs_gaps_and_a_run_at_the_last_column_score_as_the_oracle():
    # class 1 has a gap (stays gathered), class 2 is a run of 2 samples, and
    # class 4, a run of 2, ends at the last column of the table
    rng = np.random.default_rng(32)
    labels = np.array([1, 1, 2, 2, 1] + [3] * 10 + [4, 4])
    train = Dataset(rng.normal(size=(labels.size, 2)), labels)
    metric = MetricMatrix(random_psd(rng, 2, jitter=0.1))
    queries = rng.normal(size=(25, 2))
    groups = [_group(idx) for idx in _class_indices(train)]
    assert groups[0].tolist() == [0, 1, 4]
    assert groups[1:] == [slice(2, 4), slice(5, 15), slice(15, 17)]
    ks = (1, 2, 3, 9, 9, 12)
    assert np.array_equal(_scores(train, metric, queries, groups, ks),
                          _scores_oracle(train, metric, queries,
                                         _class_indices(train), ks))


@pytest.mark.parametrize("k", [1, 5, 9, 12, 40])
def test_decision_score_of_a_run_whose_complement_is_two_runs(k):
    # class 2 is rows 10..21; its complement, rows 0..9 and 22..30, is gathered
    rng = np.random.default_rng(33)
    labels = np.repeat([1, 2, 3], [10, 12, 9])
    train = Dataset(rng.normal(size=(labels.size, 3)), labels)
    fit = FitKnn(train=train, metric=MetricMatrix(random_psd(rng, 3, jitter=0.1)), k=k)
    own, rest = np.flatnonzero(labels == 2), np.flatnonzero(labels != 2)
    assert _group(own) == slice(10, 22) and isinstance(_group(rest), np.ndarray)
    for q in rng.normal(size=(10, 3)):
        expected = _scores_oracle(train, fit.metric, q[None], (own, rest), (k,))[0, 0]
        assert decision_score(fit, q, 2) == float(expected[0] - expected[1])


def test_a_query_alone_in_its_row_block_sums_as_the_whole_table():
    # 4-row blocks and 9 queries: the last block holds one row, whose K
    # smallest values are summed left to right like every other row's (a
    # numpy sum over a 1-row array would go pairwise for kc >= 8)
    rng = np.random.default_rng(35)
    train = Dataset(rng.normal(size=(60, 3)), np.repeat([1, 2], 30))
    metric = MetricMatrix(random_psd(rng, 3, jitter=0.1))
    queries = rng.normal(size=(9, 3))
    indices = _class_indices(train)
    ks = tuple(range(8, 31))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("adaptnn.metric._TABLE_BLOCK", 4 * train.n_samples)
        got = _scores(train, metric, queries, indices, ks)
    assert np.array_equal(got, _scores_oracle(train, metric, queries, indices, ks))


def test_one_k_accuracy_copies_no_class_columns():
    # class-sorted: every class is a view of the table block, so beyond
    # building the table (the table, _finish_rows's block buffer and its
    # iterator buffers, measured here) the call holds only the scores and,
    # per group, the running sums of the K smallest values; a gathered
    # class (one row block x 400 columns, about 170 KiB) would not fit
    rng = np.random.default_rng(34)
    labels = np.repeat([1, 2, 3], 400)
    features = rng.normal(size=(labels.size, 3))
    test = make_dataset(rng, n=300, d=3, classes=3)
    metric = MetricMatrix(random_psd(rng, 3, jitter=0.1))
    k = 5
    fit = FitKnn(train=Dataset(features, labels), metric=metric, k=k)

    def traced(run):
        tracemalloc.start()
        try:
            return run(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    _, table_peak = traced(lambda: pairwise_sq(metric, test.features, features))
    got, peak = traced(lambda: accuracy(fit, test))
    rows = _TABLE_BLOCK // labels.size
    assert peak < table_peak + 8 * (test.n_samples * 3 + rows * k) + 16 * 1024
    # the same training set in shuffled order is gathered, and scores the same
    order = rng.permutation(labels.size)
    shuffled = FitKnn(train=Dataset(features[order], labels[order]), metric=metric, k=k)
    assert accuracy(shuffled, test) == got


@pytest.mark.parametrize("shuffle", [False, True])
def test_each_capped_k_partitions_fresh_columns(shuffle):
    # classes of up to 300 samples and a grid with repeated and capped K:
    # partitioning columns that an earlier K already partitioned can leave
    # the K smallest in another order, and so sum them in another order
    rng = np.random.default_rng(36)
    labels = np.repeat([1, 2, 3], [300, 170, 45])
    if shuffle:
        labels = rng.permutation(labels)
    train = Dataset(rng.normal(size=(labels.size, 4)), labels)
    metric = MetricMatrix(random_psd(rng, 4, jitter=0.1))
    queries = rng.normal(size=(260, 4))
    ks = (9, 1, 2, 3, 8, 9, 45, 46, 170, 300, 5000, 46)
    groups = [_group(idx) for idx in _class_indices(train)]
    assert np.array_equal(_scores(train, metric, queries, groups, ks),
                          _scores_oracle(train, metric, queries,
                                         _class_indices(train), ks))


@pytest.mark.parametrize("shuffle", [False, True])
@pytest.mark.parametrize("n_queries", [1, 2, 9])
def test_each_score_is_topk_avg_smallest_of_its_distances(shuffle, n_queries):
    # the scorer and topk_avg_smallest take one mean, so each score holds the
    # bits of topk_avg_smallest of the query's row of distances to the
    # class: a query alone or in a batch, in 4-row blocks (9 queries leave a
    # 1-row last block), and K below, at and above each class's size
    rng = np.random.default_rng(37)
    labels = np.repeat([1, 2, 3], [30, 12, 21])
    if shuffle:
        labels = rng.permutation(labels)
    train = Dataset(rng.normal(size=(labels.size, 3)), labels)
    metric = MetricMatrix(random_psd(rng, 3, jitter=0.1))
    queries = rng.normal(size=(n_queries, 3))
    indices = _class_indices(train)
    groups = [_group(idx) for idx in indices]
    ks = (1, 7, 8, 11, 12, 13, 20, 21, 22, 29, 30, 31, 64)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("adaptnn.metric._TABLE_BLOCK", 4 * train.n_samples)
        got = _scores(train, metric, queries, groups, ks)
    table = pairwise_sq(metric, queries, train.features)
    for i, k in enumerate(ks):
        for g, idx in enumerate(indices):
            expected = [topk_avg_smallest(row, min(k, idx.size)) for row in table[:, idx]]
            assert np.array_equal(got[i, :, g], expected), (k, g)
