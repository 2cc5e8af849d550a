import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from adaptnn import (Dataset, NeighborSets, apply_pca, apply_zscore,
                     build_neighbor_sets, fit_pca, fit_zscore, load, save)
from adaptnn.data import Preprocessor
from helpers import make_dataset


# ---------------------------------------------------------------------------
# loading


def test_load_sparse_example(tmp_path):
    p = tmp_path / "s.txt"
    p.write_text("1 1:0.5 3:2.0\n2 2:1.0\n")
    ds = load(p, format="sparse_index_value")
    assert ds.features.tolist() == [[0.5, 0.0, 2.0], [0.0, 1.0, 0.0]]
    assert ds.labels.tolist() == [1, 2]


def test_load_delimited_label_last(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("# comment\n5.1,3.5,1.4,0.2,Iris-setosa\n6.0,2.0,5.0,1.5,Iris-virginica\n")
    ds = load(p)
    assert ds.n_features == 4
    assert ds.labels.tolist() == [1, 2]  # first-seen order


def test_load_delimited_label_column(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,1.0,2.0\nb,3.0,4.0\n")
    ds = load(p, label_column=0)
    assert ds.features.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_load_empty_file(tmp_path):
    p = tmp_path / "e.csv"
    p.write_text("# nothing here\n")
    with pytest.raises(ValueError, match="no data"):
        load(p)


def test_load_inconsistent_width(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1.0,2.0,a\n1.0,b\n")
    with pytest.raises(ValueError, match="bad.csv:2"):
        load(p)


def test_load_bad_sparse_pair(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1 1:0.5\n1 oops\n2 1:1.0\n")
    with pytest.raises(ValueError, match="bad.txt:2"):
        load(p, format="sparse_index_value")


@pytest.mark.parametrize("text, kwargs, message", [
    ("1.0,1\n", {"format": "csv"}, "unknown format 'csv'"),
    ("# header\n1.0\n", {}, "bad.txt:2: need at least one feature and a label"),
    ("1.0,2.0,1\n", {"label_column": 3}, "label column 3 out of range for 3 fields"),
    ("1.0,2.0,1\n", {"label_column": -4}, "label column -4 out of range for 3 fields"),
    ("1.0,2.0,1\n1.0,x,2\n", {}, "bad.txt:2: unparseable feature value"),
    ("1 1:0.5\n2 0:1.0\n", {"format": "sparse_index_value"},
     "bad.txt:2: indices are 1-based, got 0"),
    ("# only a comment\n", {"format": "sparse_index_value"}, "bad.txt: no data lines"),
    ("1\n2\n", {"format": "sparse_index_value"}, "bad.txt: no feature entries"),
])
def test_load_errors_name_the_fault(tmp_path, text, kwargs, message):
    p = tmp_path / "bad.txt"
    p.write_text(text)
    with pytest.raises(ValueError, match=message):
        load(p, **kwargs)


@pytest.mark.parametrize("label_column", [3, -4])
def test_label_column_checked_once_at_the_first_line(tmp_path, label_column):
    # the first data line fixes the width, so the column is checked there
    p = tmp_path / "lc.csv"
    p.write_text("# header\n\n1.0,2.0,1\n3.0,4.0,2\n")
    with pytest.raises(ValueError, match=r"lc.csv:3: label column %d out of range "
                                         r"for 3 fields" % label_column):
        load(p, label_column=label_column)


@pytest.mark.parametrize("label_column", [1.5, "0", None])
def test_label_column_must_be_an_integer_before_the_file_is_read(tmp_path,
                                                                 label_column):
    # the file does not exist: the column is checked before it is opened
    with pytest.raises(ValueError, match="label_column must be an integer, got %r"
                                         % (label_column,)):
        load(tmp_path / "absent.csv", label_column=label_column)
    p = tmp_path / "lc.csv"
    p.write_text("a,1.0,2.0\nb,3.0,4.0\n")
    assert load(p, label_column=np.int64(0)).features.tolist() == [[1.0, 2.0],
                                                                   [3.0, 4.0]]


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_bytes_that_are_not_utf8_name_the_file_and_line(tmp_path, newline):
    # the line with the bad byte is named, not the last line read
    p = tmp_path / "bad.csv"
    p.write_bytes(newline.join(["1.0,a", "2.0,b", "3.\xff,a", "4.0,b", ""])
                  .encode("latin-1"))
    with pytest.raises(ValueError, match=r"bad\.csv:3: 'utf-8' codec can't decode "
                                         r"byte 0xff in position 2"):
        load(p)
    p.write_bytes(newline.join(["1.0,a", "2.0,b", "3.0,\u00e9", "4.0,b", ""])
                  .encode("utf-8"))
    assert load(p).labels.tolist() == [1, 2, 3, 2]


def test_load_sparse_rejects_repeated_index(tmp_path):
    # a repeated index is an error, not a silent overwrite
    p = tmp_path / "dup.txt"
    p.write_text("1 1:0.5 2:1.0\n2 1:0.5 3:1.0 1:0.7\n")
    with pytest.raises(ValueError, match="dup.txt:2: repeated index 1"):
        load(p, format="sparse_index_value")


def test_save_rejects_unknown_format_before_writing(tmp_path):
    p = tmp_path / "kept.csv"
    p.write_text("kept\n")
    with pytest.raises(ValueError, match="unknown format 'csv'"):
        save(make_dataset(np.random.default_rng(0), n=4, d=1), p, format="csv")
    assert p.read_text() == "kept\n"


def test_dataset_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    ds = make_dataset(rng, n=10, d=5, classes=3)
    p = tmp_path / "rt.csv"
    save(ds, p)
    back = load(p)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)


def test_sparse_roundtrip(tmp_path):
    X = np.array([[0.5, 0.0, 2.0], [1.25, 3.5, 0.0]])
    ds = Dataset(X, [1, 2])
    p = tmp_path / "rt.txt"
    save(ds, p, format="sparse_index_value")
    back = load(p, format="sparse_index_value")
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)


# ---------------------------------------------------------------------------
# z-score


def test_zscore_column_example():
    ds = Dataset([[1.0], [2.0], [3.0]], [1, 2, 1])
    out = apply_zscore(fit_zscore(ds), ds)
    assert out.features[:, 0].tolist() == [-1.0, 0.0, 1.0]  # sample std = 1


def test_zscore_constant_column_centered_only():
    ds = Dataset([[4.0, 1.0], [4.0, 2.0], [4.0, 3.0]], [1, 2, 1])
    out = apply_zscore(fit_zscore(ds), ds)
    assert np.all(out.features[:, 0] == 0.0)


def test_zscore_statistics_oracle():
    rng = np.random.default_rng(1)
    ds = make_dataset(rng, n=40, d=6, classes=2, scale=3.0)
    out = apply_zscore(fit_zscore(ds), ds)
    assert np.abs(out.features.mean(axis=0)).max() <= 1e-10
    assert np.abs(out.features.std(axis=0, ddof=1) - 1.0).max() <= 1e-10


def test_zscore_never_reads_apply_target():
    rng = np.random.default_rng(2)
    train = make_dataset(rng, n=20, d=3, classes=2)
    test = make_dataset(rng, n=10, d=3, classes=2)
    p = fit_zscore(train)
    out1 = apply_zscore(p, test)
    poisoned = Dataset(test.features * 1e6, test.labels)
    p2 = fit_zscore(train)
    assert np.array_equal(p.means, p2.means) and np.array_equal(p.stds, p2.stds)
    out2 = apply_zscore(p2, test)
    assert np.array_equal(out1.features, out2.features)
    # the poisoned rows transform under the same statistics
    out3 = apply_zscore(p2, poisoned)
    assert np.allclose(out3.features,
                       (poisoned.features - p.means) / p.stds)


def test_unfitted_preprocessor_rejected():
    ds = Dataset([[1.0], [2.0]], [1, 2])
    with pytest.raises(ValueError, match="not fitted"):
        apply_zscore(Preprocessor(), ds)
    with pytest.raises(ValueError, match="not fitted"):
        apply_pca(Preprocessor(), ds)


# ---------------------------------------------------------------------------
# PCA


def test_pca_identity_below_threshold():
    ds = Dataset(np.random.default_rng(3).normal(size=(10, 4)),
                 [1 + i % 2 for i in range(10)])
    p = fit_pca(ds, 150)
    out = apply_pca(p, ds)
    assert np.array_equal(out.features, ds.features)


def test_pca_rank1_lossless():
    rng = np.random.default_rng(4)
    direction = rng.normal(size=3)
    t = rng.normal(size=12)
    X = np.outer(t, direction)
    ds = Dataset(X, [1 + i % 2 for i in range(12)])
    p = fit_pca(ds, 1)
    out = apply_pca(p, ds)
    for i in range(5):
        for j in range(5):
            orig = np.sum((X[i] - X[j]) ** 2)
            proj = np.sum((out.features[i] - out.features[j]) ** 2)
            assert proj == pytest.approx(orig, abs=1e-8)


def test_pca_reconstruction_error_equals_dropped_eigenvalues():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(20, 200))
    ds = Dataset(X, [1 + i % 2 for i in range(20)])
    target = 150
    p = fit_pca(ds, target)
    out = apply_pca(p, ds)
    xc = X - X.mean(axis=0)
    cov = xc.T @ xc / 19
    w = np.sort(np.linalg.eigvalsh(cov))[::-1]
    dropped = w[target:].sum()
    recon = xc @ p.pca_basis @ p.pca_basis.T
    err = np.sum((xc - recon) ** 2) / 19
    assert err == pytest.approx(dropped, abs=1e-6)
    # projected data preserves what the retained subspace carries
    gram_kept = (xc @ p.pca_basis) @ (xc @ p.pca_basis).T
    assert np.abs(gram_kept - out.features @ out.features.T).max() <= 1e-8


def test_pca_basis_orthonormal_and_sign_fixed():
    rng = np.random.default_rng(6)
    ds = Dataset(rng.normal(size=(30, 160)), [1 + i % 2 for i in range(30)])
    p = fit_pca(ds, 10)
    b = p.pca_basis
    assert np.abs(b.T @ b - np.eye(10)).max() <= 1e-8
    peak = b[np.abs(b).argmax(axis=0), np.arange(10)]
    assert np.all(peak > 0)


def test_pca_target_dim_validation():
    ds = Dataset(np.random.default_rng(7).normal(size=(5, 3)), [1, 2, 1, 2, 1])
    with pytest.raises(ValueError):
        fit_pca(ds, 0)
    # target beyond the dimension is the identity-transform case, not an error
    out = apply_pca(fit_pca(ds, 4), ds)
    assert np.array_equal(out.features, ds.features)


@pytest.mark.parametrize("target_dim", [2.5, "2", None])
def test_pca_target_dim_must_be_an_integer(target_dim):
    ds = Dataset(np.random.default_rng(7).normal(size=(5, 3)), [1, 2, 1, 2, 1])
    with pytest.raises(ValueError, match="target_dim must be an integer >= 1, got %r"
                                         % (target_dim,)):
        fit_pca(ds, target_dim)
    assert fit_pca(ds, np.int64(2)).pca_basis.shape == (3, 2)


# ---------------------------------------------------------------------------
# neighbor sets


def test_all_same_class_sets():
    ds = Dataset([[0.0], [1.0], [2.0], [9.0], [10.0]], [1, 1, 1, 2, 2])
    ns = build_neighbor_sets(ds, mode="all_same_class")
    assert all(s.size == 2 for s in ns.similar[:3])
    assert ns.similar[3].tolist() == [4]
    assert ns.dissimilar[0].tolist() == [3, 4]


def test_knn_same_class_capped():
    ds = Dataset(np.arange(8, dtype=float)[:, None],
                 [1, 1, 1, 1, 1, 1, 2, 2])
    ns = build_neighbor_sets(ds, mode="knn_same_class", k0=10)
    assert all(ns.similar[i].size == 5 for i in range(6))  # class size 6 -> 5


@pytest.mark.parametrize("k0", [2.5, 0, -1, None])
def test_knn_same_class_rejects_bad_k0(k0):
    ds = Dataset(np.arange(8, dtype=float)[:, None], [1, 1, 1, 1, 2, 2, 2, 2])
    with pytest.raises(ValueError, match="k0 must be an integer >= 1"):
        build_neighbor_sets(ds, mode="knn_same_class", k0=k0)
    # the whole-class mode never reads k0
    assert build_neighbor_sets(ds, mode="all_same_class", k0=k0).sim_nbr.size == 24


IRIS = Path(__file__).resolve().parent.parent / "datasets" / "iris.csv"
# the pointers fix each pair's owner, so equal pointers mean equal owners
CSR_ARRAYS = ("sim_nbr", "sim_ptr", "dis_nbr", "dis_ptr")


def _per_sample_sets(ds, mode, k0):
    """S_i and D_i built one sample at a time, straight from the definitions."""
    similar, dissimilar = [], []
    for i in range(ds.n_samples):
        mates = np.flatnonzero((ds.labels == ds.labels[i])
                               & (np.arange(ds.n_samples) != i))
        if mode == "knn_same_class":
            # summed in the library's order: on iris a different order
            # rounds near-ties differently and swaps mates at the k0 cut
            diffs = ds.features[mates] - ds.features[i]
            d2 = np.einsum("nd,nd->n", diffs, diffs)
            mates = mates[np.argsort(d2, kind="stable")[:min(k0, mates.size)]]
        similar.append(mates)
        dissimilar.append(np.flatnonzero(ds.labels != ds.labels[i]))
    return NeighborSets(similar, dissimilar, labels=ds.labels)


def _assert_csr_matches_bruteforce(mode):
    rng = np.random.default_rng(8)
    # the tied set has only 4 distinct points, so equal distances cross the
    # k0 cut and the lower-index tie rule decides which mates are kept
    tied = Dataset(rng.integers(0, 2, size=(30, 2)).astype(float), 1 + np.arange(30) % 3)
    k0 = 3
    for ds in (make_dataset(rng, n=30, d=4, classes=3), tied, load(IRIS)):
        got = build_neighbor_sets(ds, mode=mode, k0=k0)
        expect = _per_sample_sets(ds, mode, k0)
        for name in CSR_ARRAYS:
            a, b = getattr(got, name), getattr(expect, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_knn_same_class_matches_bruteforce():
    _assert_csr_matches_bruteforce("knn_same_class")


def test_all_same_class_matches_bruteforce():
    _assert_csr_matches_bruteforce("all_same_class")


def test_build_holds_about_two_copies_of_its_output():
    # 359,400 listed pairs at N = 600: each side's sets are concatenated once
    # and copied into its read-only array, with no pair-sized owner array,
    # label gather or fault flags next to them
    data = make_dataset(np.random.default_rng(0), n=600, d=4, classes=3)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        nbrs = build_neighbor_sets(data)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    out = sum(getattr(nbrs, name).nbytes for name in CSR_ARRAYS)
    assert out <= peak < 2.5 * out


def test_unknown_mode_rejected():
    ds = make_dataset(np.random.default_rng(0), n=6, d=1)
    with pytest.raises(ValueError, match="unknown mode 'knn'"):
        build_neighbor_sets(ds, mode="knn")


def test_singleton_class_rejected():
    ds = Dataset([[0.0], [1.0], [2.0]], [1, 1, 2])
    with pytest.raises(ValueError, match="class 2"):
        build_neighbor_sets(ds)
