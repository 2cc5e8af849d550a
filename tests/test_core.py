import numpy as np
import pytest

from adaptnn import Dataset, HyperParams, MetricMatrix, NeighborSets, validate
from helpers import owners


def test_valid_small_dataset():
    ds = Dataset([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]], [1, 2, 1])
    validate(ds)
    assert (ds.n_samples, ds.n_features, ds.n_classes) == (3, 2, 2)


def test_nan_feature_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        Dataset([[0.0, np.nan], [1.0, 0.0]], [1, 2])


def test_single_class_rejected():
    with pytest.raises(ValueError, match="C >= 2"):
        Dataset([[0.0], [1.0]], [1, 1])


def test_empty_class_rejected():
    # labels {1, 3} leave class 2 without samples
    with pytest.raises(ValueError, match="class 2"):
        Dataset([[0.0], [1.0]], [1, 3])


def test_label_below_one_rejected():
    with pytest.raises(ValueError):
        Dataset([[0.0], [1.0]], [0, 1])


@pytest.mark.parametrize("labels, sample", [([1.0, 1.9, 2.2, 2.0], 1),
                                            ([1, 2, 2.5, 2], 2),
                                            ([1, 2, 1, np.nan], 3),
                                            ([1, 2, np.inf, 2], 2)])
def test_non_integral_label_rejected(labels, sample):
    # a cast to int would truncate 1.9 to 1 and 2.5 to 2 without a word
    with pytest.raises(ValueError, match="label of sample %d is not an integer" % sample):
        Dataset([[0.0], [1.0], [2.0], [3.0]], labels)


def test_integral_float_labels_accepted():
    ds = Dataset([[0.0], [1.0], [2.0], [3.0]], np.array([1.0, 2.0, 1.0, 2.0]))
    assert ds.labels.dtype.kind == "i"
    assert ds.labels.tolist() == [1, 2, 1, 2]


def test_too_few_samples_rejected():
    with pytest.raises(ValueError, match="N >= 2"):
        Dataset([[1.0]], [1])


def test_no_features_rejected():
    with pytest.raises(ValueError, match="d >= 1 required, got d=0"):
        Dataset(np.empty((3, 0)), [1, 2, 1])


@pytest.mark.parametrize("features, labels, message", [
    (np.zeros(4), [1, 1, 2, 2], "features must be a 2-D array, got ndim=1"),
    (np.zeros((2, 2, 2)), [1, 2], "features must be a 2-D array, got ndim=3"),
    (np.zeros((4, 2)), [1, 1, 2], r"labels must have shape \(4,\), got \(3,\)"),
    (np.zeros((4, 2)), [[1, 1], [2, 2]], r"labels must have shape \(4,\)")])
def test_dataset_rejects_misshapen_arrays(features, labels, message):
    with pytest.raises(ValueError, match=message):
        Dataset(features, labels)


def test_dataset_arrays_are_readonly():
    ds = Dataset([[0.0], [1.0]], [1, 2])
    with pytest.raises(ValueError):
        ds.features[0, 0] = 9.0
    with pytest.raises(ValueError):
        ds.labels[0] = 2


def test_metric_non_symmetric_rejected():
    m = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError, match="not symmetric"):
        MetricMatrix(m)


def test_metric_negative_definite_rejected():
    with pytest.raises(ValueError, match="not PSD"):
        MetricMatrix(-np.eye(3))


def test_metric_symmetrizes_float_drift():
    drift = np.array([[1.0, 0.3 + 1e-12], [0.3, 1.0]])
    m = MetricMatrix(drift)
    assert np.array_equal(m.m, m.m.T)


def test_metric_scaled():
    m = MetricMatrix(np.diag([2.0, 1.0]))
    assert np.allclose(m.scaled(3.0).m, np.diag([6.0, 3.0]))
    with pytest.raises(ValueError):
        m.scaled(-1.0)


def test_neighbor_sets_validation():
    with pytest.raises(ValueError, match="own neighbor set"):
        NeighborSets([[0]], [[1]])
    with pytest.raises(ValueError, match="empty"):
        NeighborSets([[1], []], [[1], [0]])
    # several faults: the lowest faulty sample is reported, whatever its
    # kind; within one sample an empty set comes before an own-set member
    with pytest.raises(ValueError, match="sample 0 .*own neighbor set"):
        NeighborSets([[0], []], [[1], [0]])
    with pytest.raises(ValueError, match="empty .*sample 0"):
        NeighborSets([[], [1]], [[1], [0]])
    with pytest.raises(ValueError, match="empty .*sample 0"):
        NeighborSets([[]], [[0]])
    labels = [1, 1, 2]
    with pytest.raises(ValueError, match="different-class"):
        NeighborSets([[2], [0], [0]], [[2], [2], [0]], labels=labels)
    with pytest.raises(ValueError, match="same-class"):
        NeighborSets([[1], [0], [0]], [[1], [2], [0]], labels=labels)
    # S_0 and D_0 are both wrong: S_i is checked before D_i
    with pytest.raises(ValueError, match="S_0 contains a different-class"):
        NeighborSets([[2], [0], [0]], [[1], [2], [0]], labels=labels)
    # -1 would alias sample 3 itself; 7 is past N = 4
    labels = [1, 1, 2, 2]
    with pytest.raises(ValueError, match="out of range"):
        NeighborSets([[1], [0], [3], [-1]], [[2], [3], [0], [1]], labels=labels)
    with pytest.raises(ValueError, match="out of range"):
        NeighborSets([[1], [0], [3], [7]], [[2], [3], [0], [1]], labels=labels)
    with pytest.raises(ValueError, match="out of range"):
        NeighborSets([[1], [0], [3], [2]], [[2], [3], [0], [4]], labels=labels)
    with pytest.raises(ValueError, match="similar and dissimilar must have equal length"):
        NeighborSets([[1], [0], [3], [2]], [[2], [3], [0]])


def test_neighbor_sets_reject_non_integral_index():
    labels = [1, 1, 2, 2]
    dissimilar = [[2], [3], [0], [1]]
    # a cast to int would store neighbor 1 for sample 0
    with pytest.raises(ValueError, match="neighbor index of sample 0 is not an integer"):
        NeighborSets([[1.6], [0], [3], [2]], dissimilar, labels=labels)
    with pytest.raises(ValueError, match="neighbor index of sample 3 is not an integer"):
        NeighborSets([[1], [0], [3], [2]], [[2], [3], [0], [1, np.nan]], labels=labels)
    # the lowest faulty sample is reported, on either side
    with pytest.raises(ValueError, match="sample 1 is not an integer"):
        NeighborSets([[1], [0.5], [3], [2.5]], dissimilar, labels=labels)
    ns = NeighborSets([[1.0], [0], [3], [2.0]], dissimilar, labels=labels)
    assert ns.sim_nbr.dtype.kind == "i"
    assert ns.sim_nbr.tolist() == [1, 0, 3, 2]


def test_neighbor_sets_flat_arrays():
    ns = NeighborSets([[1, 2], [0], [0, 1]], [[2], [0], [1]])
    assert owners(ns.sim_ptr).tolist() == [0, 0, 1, 2, 2]
    assert ns.sim_nbr.tolist() == [1, 2, 0, 0, 1]
    assert ns.sim_ptr.tolist() == [0, 2, 3, 5]
    assert ns.dis_ptr.tolist() == [0, 1, 2, 3]
    assert ns.dis_nbr.tolist() == [2, 0, 1]


def test_neighbor_sets_store_only_flat_arrays():
    assert set(NeighborSets.__slots__) == {"sim_nbr", "sim_ptr", "dis_nbr", "dis_ptr"}
    similar, dissimilar = [[1, 2], [0], [0, 1]], [[2], [0], [1]]
    ns = NeighborSets(similar, dissimilar)
    assert ns.n_samples == 3
    for views, flat, sets in ((ns.similar, ns.sim_nbr, similar),
                              (ns.dissimilar, ns.dis_nbr, dissimilar)):
        assert [v.tolist() for v in views] == sets
        for v in views:
            assert not v.flags.writeable
            assert np.shares_memory(v, flat)


def test_hyperparams_validation():
    with pytest.raises(ValueError, match="alpha must be nonzero"):
        HyperParams(alpha=0.0)
    with pytest.raises(ValueError, match="gamma must be > 0"):
        HyperParams(alpha=1.0, gamma=0.0)
    with pytest.raises(ValueError, match="gamma must be > 0"):
        HyperParams(alpha=1.0, gamma=-1.0)
    with pytest.raises(ValueError, match="lam must be >= 0"):
        HyperParams(alpha=1.0, lam=-0.1)
    with pytest.raises(ValueError):
        HyperParams(alpha=1.0, max_iters=0)
    with pytest.raises(ValueError):
        HyperParams(alpha=1.0, eta0=0.0)
    hp = HyperParams(alpha=-2.0)
    assert hp.loss is not None and hp.loss.margin == 1.0


@pytest.mark.parametrize("field", ["alpha", "gamma", "lam", "eta0"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_hyperparams_reject_non_finite(field, value):
    with pytest.raises(ValueError, match="%s must be finite" % field):
        HyperParams(**{"alpha": 1.0, field: value})


@pytest.mark.parametrize("value", [2.5, 3.0, "3", None])
def test_hyperparams_reject_non_integer_max_iters(value):
    # a float would construct and then fail inside train's range()
    with pytest.raises(ValueError, match="max_iters must be an integer"):
        HyperParams(alpha=1.0, max_iters=value)
    assert HyperParams(alpha=1.0, max_iters=np.int64(3)).max_iters == 3
