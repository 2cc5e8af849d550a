import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adaptnn import Dataset, HyperParams, MetricMatrix, NeighborSets, validate
from adaptnn.core import _non_integral
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


@pytest.mark.parametrize("bad", [[True], ["1"], [1 + 0j], np.array([1], dtype=object)])
def test_neighbor_sets_reject_non_numeric_index(bad):
    # a cast to int would store True as neighbor 1 and "1" as 1, and a
    # complex entry with only a warning
    with pytest.raises(ValueError, match="neighbor index of sample 0 is not an integer"):
        NeighborSets([bad, [0], [3], [2]], [[2], [3], [0], [1]], labels=[1, 1, 2, 2])


@pytest.mark.parametrize("index", [2 ** 70, -2 ** 70])
@pytest.mark.parametrize("side", ["similar", "dissimilar"])
def test_neighbor_sets_name_an_index_beyond_int64_out_of_range(side, index):
    # np.asarray holds such an index as a Python int in an object array
    sets = {"similar": [[1], [0], [3], [2]], "dissimilar": [[2], [3], [0], [1]]}
    sets[side][0] = [index]
    with pytest.raises(ValueError, match=r"^%s neighbor index out of range \[0, 4\)"
                                         % side):
        NeighborSets(sets["similar"], sets["dissimilar"])


@pytest.mark.parametrize("sets, message", [
    (([[1], [[0]], [3], [2]], [[2], [3], [0], [1]]), "sample 1 must be 1-D, got ndim=2 and 1"),
    (([[1], [0], [3], [2]], [[[2]], [[3]], [[0]], [[1]]]),
     "sample 0 must be 1-D, got ndim=1 and 2"),
    (([np.int64(1), [0], [3], [2]], [[2], [3], [0], [1]]),
     "sample 0 must be 1-D, got ndim=0 and 1")])
def test_neighbor_sets_reject_sets_that_are_not_1d(sets, message):
    with pytest.raises(ValueError, match=message):
        NeighborSets(*sets, labels=[1, 1, 2, 2])


@pytest.mark.parametrize("labels", [[1, 1, 2], [1, 1, 2, 2, 1], [[1, 1], [2, 2]]])
def test_neighbor_sets_need_one_label_per_sample(labels):
    # a short array raised a bare IndexError, and extra labels were ignored
    with pytest.raises(ValueError, match=r"labels must have shape \(4,\)"):
        NeighborSets([[1], [0], [3], [2]], [[2], [3], [0], [1]], labels=labels)


@pytest.mark.parametrize("similar, dissimilar, labels, message", [
    # a range fault at sample 0 comes before an empty set at sample 2
    ([[1, 4], [0], [], [2]], [[2], [3], [0], [1]], None,
     r"similar neighbor index out of range \[0, 4\)"),
    # a label fault at sample 0 comes before sample 1 in its own set
    ([[2], [1], [3], [2]], [[3], [2], [0], [1]], [1, 1, 2, 2],
     "S_0 contains a different-class sample"),
    # a dissimilar range fault at sample 0 comes before a similar one at 3
    ([[1], [0], [3], [-1]], [[5], [3], [0], [1]], None,
     r"dissimilar neighbor index out of range \[0, 4\)")])
def test_neighbor_sets_report_the_lowest_faulty_sample(similar, dissimilar, labels,
                                                        message):
    # every kind of fault is found by the scan at its sample, so the lowest
    # faulty sample wins whatever the kinds of the faults after it
    with pytest.raises(ValueError, match=message):
        NeighborSets(similar, dissimilar, labels=labels)
    case = (similar, dissimilar, labels)
    assert _outcome(_pairwise_csr, *case) != _outcome(_csr, *case)


def _pairwise_csr(similar, dissimilar, labels=None):
    """The four CSR arrays of the constructor that checked the sets with
    pair-sized flags over all samples at once instead of a scan: the lowest
    flagged sample is reported for the empty, integer and own-set checks,
    but range and label faults only once no sample fails those."""
    n = len(similar)
    if len(dissimilar) != n:
        raise ValueError("similar and dissimilar must have equal length")

    def flatten(sets):
        sets = [np.asarray(s) for s in sets]
        counts = np.array([s.size for s in sets], dtype=int)
        ptr = np.concatenate(([0], np.cumsum(counts)))
        owner = np.repeat(np.arange(len(sets)), counts)
        nbr = np.concatenate(sets) if sets else np.empty(0, dtype=int)
        bad = _non_integral(nbr)
        if not bad.size:
            nbr = np.asarray(nbr, dtype=int)
        return owner, nbr, ptr, bad

    def owns(owner, bad):
        return np.bincount(owner[bad], minlength=n) > 0

    def raise_first(*checks):
        flagged = np.flatnonzero(np.any([f for f, _ in checks], axis=0))
        if flagged.size:
            i = flagged[0]
            raise ValueError(next(msg for f, msg in checks if f[i]) % i)

    s_owner, s_nbr, s_ptr, s_bad = flatten(similar)
    d_owner, d_nbr, d_ptr, d_bad = flatten(dissimilar)
    raise_first(((np.diff(s_ptr) == 0) | (np.diff(d_ptr) == 0),
                 "empty neighbor set for sample %d"),
                (owns(s_owner, s_bad) | owns(d_owner, d_bad),
                 "a neighbor index of sample %d is not an integer"),
                (owns(s_owner, s_owner == s_nbr) | owns(d_owner, d_owner == d_nbr),
                 "sample %d contained in its own neighbor set"))
    for side, nbr in (("similar", s_nbr), ("dissimilar", d_nbr)):
        if nbr.min(initial=0) < 0 or nbr.max(initial=-1) >= n:
            raise ValueError("%s neighbor index out of range [0, %d)" % (side, n))
    if labels is not None:
        labels = np.asarray(labels)
        raise_first((owns(s_owner, labels[s_nbr] != labels[s_owner]),
                     "S_%d contains a different-class sample"),
                    (owns(d_owner, labels[d_nbr] == labels[d_owner]),
                     "D_%d contains a same-class sample"))
    return s_nbr, s_ptr, d_nbr, d_ptr


def _csr(similar, dissimilar, labels=None):
    ns = NeighborSets(similar, dissimilar, labels)
    return ns.sim_nbr, ns.sim_ptr, ns.dis_nbr, ns.dis_ptr


def _outcome(build, *case):
    """The CSR arrays build makes, or the message of the ValueError it raises."""
    try:
        return build(*case)
    except ValueError as exc:
        return str(exc)


# how a drawn set is passed: a list, or an array of one of these dtypes
_SET_TYPES = (list, np.int64, np.int32, np.uint16, np.float64)
# faults planted at one sample, each on S_i (side 0) or D_i (side 1)
_FAULTS = ("empty", "not_integer", "self", "negative", "past_n", "label")


@st.composite
def _neighbor_set_cases(draw):
    """(similar, dissimilar, labels or None) holding every invariant, or
    with one or two faults planted at one sample; labels are given whenever
    a label fault is planted."""
    sizes = draw(st.lists(st.integers(2, 4), min_size=2, max_size=3))
    labels = np.repeat(np.arange(1, len(sizes) + 1), sizes)
    labels = labels[list(draw(st.permutations(range(labels.size))))]
    n = labels.size
    sides = ([], [])
    for i in range(n):
        mates = np.flatnonzero((labels == labels[i]) & (np.arange(n) != i))
        for pool, sets in ((mates, sides[0]), (np.flatnonzero(labels != labels[i]), sides[1])):
            picks = draw(st.lists(st.sampled_from(pool.tolist()), min_size=1, max_size=4))
            sets.append(picks)
    with_labels = draw(st.booleans())
    faulty = draw(st.none() | st.integers(0, n - 1))
    if faulty is not None:
        fault = st.tuples(st.sampled_from(_FAULTS), st.integers(0, 1))
        for kind, side in [draw(fault)] + ([draw(fault)] if draw(st.booleans()) else []):
            picks = sides[side][faulty]
            if kind == "empty":
                picks.clear()
                continue
            other = labels != labels[faulty] if side == 0 else labels == labels[faulty]
            other &= np.arange(n) != faulty
            with_labels |= kind == "label"
            picks.insert(draw(st.integers(0, len(picks))), {
                "not_integer": draw(st.sampled_from([0.5, np.nan])), "self": faulty,
                "negative": -1, "past_n": n, "label": int(np.flatnonzero(other)[0])}[kind])
    for sets in sides:
        for i, picks in enumerate(sets):
            kind = draw(st.sampled_from(_SET_TYPES))
            if kind is not list and not all(float(p).is_integer() for p in picks):
                kind = np.float64
            if kind is np.uint16 and min(picks, default=0) < 0:
                kind = np.int64
            sets[i] = picks if kind is list else np.array(picks, dtype=kind)
    return sides[0], sides[1], labels if with_labels else None


@settings(derandomize=True, deadline=None, max_examples=300)
@given(case=_neighbor_set_cases())
def test_neighbor_sets_match_the_pairwise_checks(case):
    # valid sets give the same arrays in the same dtypes, and faults at one
    # sample the same message, as the checks over all pairs at once did
    got, want = _outcome(_csr, *case), _outcome(_pairwise_csr, *case)
    if isinstance(want, str):
        assert got == want
        return
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)
        assert not a.flags.writeable


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
