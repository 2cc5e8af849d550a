import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from adaptnn import MetricMatrix, load, pairwise_sq, psd_project
from adaptnn.metric import _TABLE_BLOCK
from helpers import mahalanobis_sq, pairwise_sq_oracle, random_psd

IRIS = Path(__file__).resolve().parent.parent / "datasets" / "iris.csv"


def test_euclidean_squared_norm():
    m = MetricMatrix.identity(2)
    assert mahalanobis_sq(m, [0.0, 0.0], [3.0, 4.0]) == pytest.approx(25.0)


def test_zero_difference():
    m = MetricMatrix(random_psd(np.random.default_rng(0), 3, jitter=0.1))
    assert mahalanobis_sq(m, [1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0


def test_diagonal_quadratic_form():
    m = MetricMatrix(np.diag([2.0, 1.0]))
    assert mahalanobis_sq(m, [1.0, 0.0], [0.0, 0.0]) == pytest.approx(2.0)


def test_dimension_mismatch():
    m = MetricMatrix.identity(2)
    with pytest.raises(ValueError, match="dimension mismatch"):
        mahalanobis_sq(m, [1.0, 2.0, 3.0], [0.0, 0.0, 0.0])


def test_symmetry_exact():
    rng = np.random.default_rng(5)
    m = MetricMatrix(random_psd(rng, 4))
    for _ in range(20):
        a, b = rng.normal(size=4), rng.normal(size=4)
        assert mahalanobis_sq(m, a, b) == mahalanobis_sq(m, b, a)


def test_linearity_in_metric():
    rng = np.random.default_rng(6)
    base = random_psd(rng, 3)
    a, b = rng.normal(size=3), rng.normal(size=3)
    v = mahalanobis_sq(MetricMatrix(base), a, b)
    for c in (0.5, 2.0, 7.25):
        vc = mahalanobis_sq(MetricMatrix(c * base), a, b)
        assert abs(vc - c * v) <= 1e-12 * max(1.0, abs(c * v))


def test_distance_table_single_pair():
    table = pairwise_sq(MetricMatrix.identity(2), [[0.0, 0.0], [3.0, 4.0]])
    assert table.tolist() == [[0.0, 25.0], [25.0, 0.0]]


def test_distance_table_duplicate_points():
    X = [[1.0], [1.0], [5.0]]
    table = pairwise_sq(MetricMatrix.identity(1), X)
    assert table[0, 1] == 0.0 and table[1, 0] == 0.0
    assert table[0, 2] == 16.0


def test_distance_table_matches_pairwise_oracle():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(5, 3))
    Y = rng.normal(size=(4, 3))
    m = MetricMatrix(random_psd(rng, 3, jitter=0.2))
    for rows, cols in ((X, None), (X, Y)):
        table = pairwise_sq(m, rows, cols)
        cols = rows if cols is None else cols
        assert table.shape == (len(rows), len(cols))
        for i, a in enumerate(rows):
            for j, b in enumerate(cols):
                assert table[i, j] == pytest.approx(mahalanobis_sq(m, a, b), abs=1e-10)


def _metrics(rng, d):
    a = rng.normal(size=(d, d))
    return (MetricMatrix(a @ a.T),)


@pytest.mark.parametrize("n, k, d", [
    (59, 119, 13),     # a wine split: held-out rows against its train rows
    (1500, 1500, 24),  # the N = 1500, d = 24 sweep
    (40, None, 5),
    (7, 1, 3),
    # several row blocks of the table, the last one ragged
    (3 * (_TABLE_BLOCK // 300) + 5, 300, 6),
    (1, 3 * _TABLE_BLOCK // 2, 3),  # one row wider than a whole block
    (2 * _TABLE_BLOCK + 3, 1, 3),   # one column, three blocks
    (0, 5, 3),                      # no query rows
])
def test_distance_table_equals_two_product_oracle(n, k, d):
    rng = np.random.default_rng(n + d)
    x = rng.normal(size=(n, d))
    y = None if k is None else rng.normal(size=(k, d))
    for m in _metrics(rng, d):
        table = pairwise_sq(m, x, y)
        assert table.shape == (n, n if k is None else k)
        assert np.array_equal(table, pairwise_sq_oracle(m, x, y))


def test_distance_table_equals_oracle_on_iris():
    x = load(IRIS).features
    for m in _metrics(np.random.default_rng(9), x.shape[1]):
        assert np.array_equal(pairwise_sq(m, x), pairwise_sq_oracle(m, x))
        assert np.array_equal(pairwise_sq(m, x[::3], x[1::3]),
                              pairwise_sq_oracle(m, x[::3], x[1::3]))


def test_distance_table_rejects_raw_array():
    # a raw array has no symmetry guarantee, so the one-product table would
    # be wrong for it; it is refused rather than served by a second product
    x = np.random.default_rng(14).normal(size=(4, 3))
    for raw in (np.eye(3), np.triu(np.ones((3, 3))), [[1.0, 0.0], [0.0, 1.0]]):
        with pytest.raises(TypeError, match="metric must be a MetricMatrix"):
            pairwise_sq(raw, x)


def test_distance_table_peak_memory():
    # the result plus one (n, k) working table; three or more means a
    # temporary table per term
    rng = np.random.default_rng(10)
    x, y = rng.normal(size=(600, 10)), rng.normal(size=(700, 10))
    m = MetricMatrix(random_psd(rng, 10))
    pairwise_sq(m, x, y)
    tracemalloc.start()
    try:
        table = pairwise_sq(m, x, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * table.nbytes


def test_distance_table_holds_one_block_buffer():
    # the table plus one row block of working space; 5% of the table covers
    # the (n + k) x d operand products and numpy's ufunc buffers
    rng = np.random.default_rng(11)
    x, y = rng.normal(size=(1200, 10)), rng.normal(size=(1400, 10))
    m = MetricMatrix(random_psd(rng, 10))
    pairwise_sq(m, x, y)
    tracemalloc.start()
    try:
        table = pairwise_sq(m, x, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * table.nbytes + 8 * _TABLE_BLOCK


def test_psd_project_drops_negative_eigenvalue():
    out = psd_project(np.diag([1.0, -1.0]))
    assert np.allclose(out.m, np.diag([1.0, 0.0]), atol=1e-12)


def test_psd_project_identity_on_cone():
    rng = np.random.default_rng(9)
    m = random_psd(rng, 5, jitter=0.5)
    out = psd_project(m)
    assert np.abs(out.m - m).max() <= 1e-10


def test_psd_project_idempotent():
    rng = np.random.default_rng(10)
    for _ in range(20):
        a = rng.normal(size=(6, 6))
        once = psd_project((a + a.T) / 2)
        twice = psd_project(once.m)
        assert np.abs(twice.m - once.m).max() <= 1e-10


def test_psd_project_nearest_in_frobenius():
    # projection of a symmetric matrix onto the cone is eigenvalue clipping
    rng = np.random.default_rng(12)
    for _ in range(20):
        a = rng.normal(size=(6, 6))
        sym = (a + a.T) / 2
        w, u = np.linalg.eigh(sym)
        oracle = (u * np.maximum(w, 0.0)) @ u.T
        out = psd_project(sym)
        assert np.abs(out.m - oracle).max() <= 1e-10


def test_psd_project_output_needs_no_recheck():
    # the trusted wrap stores exactly what the checked constructor would
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.normal(size=(6, 6))
        out = psd_project((a + a.T) / 2)
        assert np.array_equal(out.m, MetricMatrix(out.m).m)
        assert not out.m.flags.writeable and out.dim == 6


def test_psd_project_rejects_asymmetric_and_nonfinite():
    bad = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="not symmetric"):
        psd_project(bad)
    with pytest.raises(ValueError, match="non-finite"):
        psd_project(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_psd_project_and_metric_share_the_symmetry_check():
    for check in (psd_project, MetricMatrix):
        with pytest.raises(ValueError, match="must be square"):
            check(np.ones((2, 3)))
        with pytest.raises(ValueError, match="non-finite"):
            check(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    # each keeps its own tolerance: an asymmetry of 1e-7 is drift to the
    # projection but too much for a metric
    drift = np.array([[1.0, 1e-7], [0.0, 1.0]])
    assert np.allclose(psd_project(drift).m, [[1.0, 5e-8], [5e-8, 1.0]],
                       rtol=0.0, atol=1e-15)
    with pytest.raises(ValueError, match="not symmetric"):
        MetricMatrix(drift)
    rng = np.random.default_rng(15)
    a = random_psd(rng, 4)
    a[0, 1] += 1e-10
    assert np.array_equal(MetricMatrix(a).m, (a + a.T) / 2.0)


def test_distances_nonnegative_under_psd():
    rng = np.random.default_rng(13)
    m = MetricMatrix(random_psd(rng, 4))
    for _ in range(50):
        a, b = rng.normal(size=4), rng.normal(size=4)
        assert mahalanobis_sq(m, a, b) >= 0.0
