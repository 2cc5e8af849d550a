import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adaptnn import (Dataset, HingeLoss, HyperParams, IdentityLoss, MetricMatrix,
                     NeighborSets, SoftplusLoss, ann_gradient, ann_objective,
                     build_neighbor_sets, nca_objective, pnca_objective, soft_agg)
from adaptnn import objective
from adaptnn.objective import PairEvaluator
from helpers import (listed_pair_evaluation, mahalanobis_sq, make_dataset,
                     make_instance, neighbor_weights, owners, pair_quadforms,
                     per_sample_terms, random_psd, side_distances, soft_distances)


# ---------------------------------------------------------------------------
# losses


def test_hinge_loss_values_and_kink():
    loss = HingeLoss(1.0)
    assert loss.value(-2.0) == 0.0
    assert loss.value(0.5) == 1.5
    assert loss.derivative(-1.0) == 0.0  # argument + margin == 0: no descent pressure
    assert loss.derivative(-0.5) == 1.0


def test_identity_loss():
    loss = IdentityLoss()
    assert loss.value(-3.5) == -3.5
    assert loss.derivative(100.0) == 1.0


def test_softplus_loss_matches_limits():
    loss = SoftplusLoss(margin=0.0, sharpness=50.0)
    assert loss.value(2.0) == pytest.approx(2.0, abs=1e-6)
    assert loss.value(-2.0) == pytest.approx(0.0, abs=1e-6)
    assert float(loss.derivative(0.0)) == pytest.approx(0.5)
    # large arguments must not overflow
    assert np.isfinite(loss.value(1e6))


@pytest.mark.parametrize("loss, field", [(HingeLoss, "margin"),
                                         (SoftplusLoss, "margin"),
                                         (SoftplusLoss, "sharpness")])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_losses_reject_non_finite_parameters(loss, field, value):
    # caught at construction, not blamed on the initial iterate by train
    with pytest.raises(ValueError, match=field + " must be finite"):
        loss(**{field: value})


# ---------------------------------------------------------------------------
# neighbor weights (the per-sample oracle in helpers)


def test_weights_uniform_on_equal_distances():
    w = neighbor_weights([2.0, 2.0, 2.0, 2.0], alpha=3.0)
    assert np.allclose(w, 0.25)


def test_weights_concentrate_on_argmin():
    w = neighbor_weights([1.0, 2.0], alpha=1e3)
    assert abs(w[0] - 1.0) <= 1e-6 and abs(w[1]) <= 1e-6


def test_weights_direct_value():
    w = neighbor_weights([0.5, 1.5], alpha=1.0)
    e = np.exp([-0.5, -1.5])
    assert np.allclose(w, e / e.sum(), atol=1e-4)
    assert w[0] == pytest.approx(0.7311, abs=1e-4)


def test_weights_sum_to_one_property():
    rng = np.random.default_rng(0)
    for _ in range(50):
        d = rng.uniform(0, 20, size=rng.integers(1, 15))
        alpha = rng.choice([-1, 1]) * 10.0 ** rng.uniform(-3, 3)
        w = neighbor_weights(d, alpha)
        assert abs(w.sum() - 1.0) <= 1e-10
        assert np.all(w >= 0) and np.all(w <= 1)


def test_weights_empty_input():
    with pytest.raises(ValueError):
        neighbor_weights([], 1.0)


# ---------------------------------------------------------------------------
# soft distances: the ds and dd of PairEvaluator.objective


def _soft_sides(m, data, nbrs, alpha):
    at = PairEvaluator(data, nbrs).objective(m, HyperParams(alpha=alpha))
    return at.ds, at.dd


def test_soft_distances_constant_collapse():
    # two classes of coincident points: all similar distances 0, dissimilar equal
    X = np.array([[0.0], [0.0], [3.0], [3.0]])
    ds = Dataset(X, [1, 1, 2, 2])
    ns = build_neighbor_sets(ds)
    m = MetricMatrix.identity(1)
    for alpha in (0.5, -4.0):
        s, d = _soft_sides(m, ds, ns, alpha)
        assert s == pytest.approx(np.zeros(4), abs=1e-12)
        assert d == pytest.approx(np.full(4, 9.0), abs=1e-12)


def test_soft_distances_alpha_to_minus_inf_is_max():
    X = np.array([[0.0], [1.0], [np.sqrt(2.0)], [np.sqrt(3.0)], [10.0], [11.0]])
    ds = Dataset(X, [1, 1, 1, 1, 2, 2])
    ns = build_neighbor_sets(ds)
    m = MetricMatrix.identity(1)
    # similar-side distances from sample 0 are {1, 2, 3}
    s, _ = _soft_sides(m, ds, ns, -1e4)
    assert s[0] == pytest.approx(3.0, abs=1e-2)  # ln(3)/1e4 bias remains


def test_soft_distances_match_composition_oracle():
    rng = np.random.default_rng(1)
    data, nbrs = make_instance(rng, n=12, d=3, classes=2)
    m = MetricMatrix(random_psd(rng, 3, jitter=0.1))
    for alpha in (2.0, -2.0, 0.3):
        s, d = _soft_sides(m, data, nbrs, alpha)
        for i in range(data.n_samples):
            sim, dis = side_distances(m, data, nbrs, i)
            assert s[i] == pytest.approx(soft_agg(sim, alpha), abs=1e-12)
            assert d[i] == pytest.approx(soft_agg(dis, 1.0), abs=1e-12)


def test_soft_distance_bounds():
    rng = np.random.default_rng(2)
    data, nbrs = make_instance(rng, n=14, d=4, classes=3)
    m = MetricMatrix(random_psd(rng, 4, jitter=0.1))
    for alpha in (5.0, -5.0, 0.01):
        s, _ = _soft_sides(m, data, nbrs, alpha)
        for i in range(data.n_samples):
            sim, _ = side_distances(m, data, nbrs, i)
            assert min(sim) - 1e-12 <= s[i] <= max(sim) + 1e-12


@st.composite
def _edge_instances(draw):
    """Small instances at the edges the (alpha, gamma) grids reach.

    Features and metric entries are integers times a power of two, so every
    squared distance is exact and the evaluator and the oracle aggregate the
    very same sets; the [min, max] bounds then need no tolerance.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    classes = draw(st.integers(2, 3))
    n = draw(st.integers(2 * classes, 12))
    d = draw(st.integers(1, 4))
    labels = rng.permutation(np.arange(n) % classes + 1)
    # unit scale puts squared distances past 1e4; at 2^-30 they carry bits
    # below the ulp of ln|S_i|, which the log-sum-exp rounds away
    x = rng.integers(-50, 51, size=(n, d)) * draw(st.sampled_from([2.0 ** -30, 2.0 ** -10, 1.0]))
    if draw(st.booleans()):  # duplicate samples: class 1 collapses to a point
        x[labels == 1] = x[np.flatnonzero(labels == 1)[0]]
    if draw(st.booleans()):  # a constant feature column
        x[:, 0] = 3.0
    data = Dataset(x, labels)
    mode = draw(st.sampled_from(["all_same_class", "knn_same_class"]))
    nbrs = build_neighbor_sets(data, mode=mode, k0=3)
    a = rng.integers(-2, 3, size=(d, d)).astype(float)
    m = a @ a.T if draw(st.booleans()) else np.zeros((d, d))
    return data, nbrs, m


@settings(derandomize=True, deadline=None)
@given(inst=_edge_instances(),
       alpha=st.sampled_from([2.0 ** 10, -2.0 ** 10, 2.0 ** -9, -2.0 ** -9]))
def test_soft_sides_edge_properties(inst, alpha):
    data, nbrs, m = inst
    ds, dd = _soft_sides(m, data, nbrs, alpha)
    for i in range(data.n_samples):
        sim, dis = side_distances(m, data, nbrs, i)
        for got, vals, a in ((ds[i], sim, alpha), (dd[i], dis, 1.0)):
            assert np.isfinite(got)
            assert vals.min() <= got <= vals.max()
            # soft_agg is the evaluator's aggregate on one segment; only the
            # last bits of the oracle's distances differ from the evaluator's
            tol = 8 * np.finfo(float).eps * (vals.max() + vals.size / abs(a))
            assert got == pytest.approx(soft_agg(vals, a), rel=0.0, abs=tol)


def test_soft_sides_clamp_float_drift():
    # similar distances from sample 0 are {1, 1+u, 1+u, 1+u} with u = 2^-52;
    # unclamped, the shifted log-sum-exp lands one ulp above their maximum
    t = 2.0 ** -26
    X = [[0.0, 0.0], [1.0, 0.0], [1.0, t], [1.0, t], [1.0, t], [10.0, 0.0], [11.0, 0.0]]
    data = Dataset(X, [1, 1, 1, 1, 1, 2, 2])
    s, _ = _soft_sides(MetricMatrix.identity(2), data, build_neighbor_sets(data), 0.3)
    assert 1.0 <= s[0] <= 1.0 + 2.0 ** -52


def test_soft_distance_monotone_improvement():
    # decreasing one similar-side distance never increases the aggregate
    rng = np.random.default_rng(3)
    for _ in range(30):
        sim = rng.uniform(0.1, 10, size=6)
        alpha = rng.choice([-1, 1]) * 10.0 ** rng.uniform(-2, 2)
        before = soft_agg(sim, alpha)
        j = rng.integers(0, 6)
        sim2 = sim.copy()
        sim2[j] *= rng.uniform(0.1, 0.99)
        assert soft_agg(sim2, alpha) <= before + 1e-12


def test_per_sample_terms_invariants():
    rng = np.random.default_rng(4)
    data, nbrs = make_instance(rng, n=13, d=3, classes=2)
    m = MetricMatrix(random_psd(rng, 3, jitter=0.1))
    hp = HyperParams(alpha=-3.0, gamma=2.0, lam=0.01)
    for i in range(data.n_samples):
        t = per_sample_terms(m, data, nbrs, hp, i)
        assert abs(t.ws.sum() - 1.0) <= 1e-10
        assert abs(t.wd.sum() - 1.0) <= 1e-10
        assert np.all((0 <= t.ws) & (t.ws <= 1))
        assert t.ws.size == nbrs.similar[i].size
        assert t.wd.size == nbrs.dissimilar[i].size


# ---------------------------------------------------------------------------
# objective


def test_objective_zero_when_margins_vanish():
    # unit square: each sample's single similar and single dissimilar distance
    # are both 1, so ds_i == dd_i and the identity loss sums to zero
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    ds = Dataset(X, [1, 1, 2, 2])
    ns = NeighborSets([[1], [0], [3], [2]], [[2], [3], [0], [1]])
    hp = HyperParams(alpha=1.0, gamma=1.0, lam=0.0, loss=IdentityLoss())
    val = ann_objective(MetricMatrix.identity(2), ds, ns, hp)
    assert val == pytest.approx(0.0, abs=1e-12)


def test_objective_inactive_hinge():
    X = np.array([[0.0], [0.1], [10.0], [10.1]])
    ds = Dataset(X, [1, 1, 2, 2])
    ns = build_neighbor_sets(ds)
    hp = HyperParams(alpha=1.0, gamma=1.0, lam=0.0, loss=HingeLoss(1.0))
    # ds ~ 0.01, dd ~ 100: argument + margin is far below zero for all samples
    assert ann_objective(MetricMatrix.identity(1), ds, ns, hp) == 0.0


def test_objective_matches_per_sample_recomputation():
    rng = np.random.default_rng(5)
    data, nbrs = make_instance(rng, n=8, d=3, classes=2)
    m = MetricMatrix(random_psd(rng, 3, jitter=0.1))
    hp = HyperParams(alpha=1.7, gamma=0.8, lam=0.03, loss=IdentityLoss())
    total = 0.0
    for i in range(data.n_samples):
        s, d = soft_distances(m, data, nbrs, hp.alpha, i)
        total += (s - d) / hp.gamma
        total += hp.lam * side_distances(m, data, nbrs, i)[0].sum()
    assert ann_objective(m, data, nbrs, hp) == pytest.approx(total, rel=1e-10)


# ---------------------------------------------------------------------------
# gradient


def test_gradient_zero_when_all_hinges_inactive():
    X = np.array([[0.0], [0.1], [10.0], [10.1]])
    ds = Dataset(X, [1, 1, 2, 2])
    ns = build_neighbor_sets(ds)
    hp = HyperParams(alpha=1.0, gamma=1.0, lam=0.0, loss=HingeLoss(1.0))
    g = ann_gradient(MetricMatrix.identity(1), ds, ns, hp)
    assert np.all(g == 0.0)


def test_gradient_singleton_sets_closed_form():
    # two 2-sample classes: every S_i is a singleton (weight 1), D_i has two
    # members with softmax weights; identity loss gives xi = 1/gamma
    rng = np.random.default_rng(6)
    X = rng.normal(size=(4, 3))
    ds = Dataset(X, [1, 1, 2, 2])
    ns = build_neighbor_sets(ds)
    m = random_psd(rng, 3, jitter=0.2)
    gamma = 1.3
    hp = HyperParams(alpha=2.0, gamma=gamma, lam=0.0, loss=IdentityLoss())

    expected = np.zeros((3, 3))
    for i in range(4):
        mate = ns.similar[i][0]
        diff = X[i] - X[mate]
        expected += (1.0 / gamma) * np.outer(diff, diff)
        dis = ns.dissimilar[i]
        d_vals = np.array([(X[i] - X[l]) @ m @ (X[i] - X[l]) for l in dis])
        w = np.exp(-d_vals - (-d_vals).max())
        w = w / w.sum()
        for wl, l in zip(w, dis):
            dl = X[i] - X[l]
            expected -= (1.0 / gamma) * wl * np.outer(dl, dl)
    got = ann_gradient(m, ds, ns, hp)
    assert np.allclose(got, expected, atol=1e-10)


def _fd_gradient(m, data, nbrs, hp, h=1e-5):
    d = m.shape[0]
    g = np.zeros((d, d))
    for p in range(d):
        for q in range(d):
            e = np.zeros((d, d))
            e[p, q] = h
            g[p, q] = (ann_objective(m + e, data, nbrs, hp)
                       - ann_objective(m - e, data, nbrs, hp)) / (2 * h)
    return g


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    losses = [IdentityLoss(), SoftplusLoss(margin=0.5, sharpness=2.0)]
    for trial in range(6):
        n = int(rng.integers(8, 20))
        d = int(rng.integers(2, 6))
        from helpers import make_dataset
        data = make_dataset(rng, n=n, d=d, classes=2)
        nbrs = build_neighbor_sets(data)
        alpha = 2.0 if trial % 2 == 0 else -2.0
        lam = 0.0 if trial % 4 < 2 else 1.0 / n ** 2
        hp = HyperParams(alpha=alpha, gamma=1.0, lam=lam,
                         loss=losses[trial % 2])
        m = random_psd(rng, d, jitter=0.3)
        analytic = ann_gradient(m, data, nbrs, hp)
        fd = _fd_gradient(m, data, nbrs, hp)
        denom = np.maximum(np.abs(fd), 1e-8 * (1 + np.abs(fd).max()))
        assert (np.abs(analytic - fd) / denom).max() <= 1e-4


def _oracle_gradient(m, data, nbrs, hp):
    """dJ/dM summed one pair outer product at a time from per_sample_terms."""
    x = data.features
    expected = np.zeros((data.n_features, data.n_features))
    for i in range(data.n_samples):
        t = per_sample_terms(m, data, nbrs, hp, i)
        for w, j in zip(t.ws, nbrs.similar[i]):
            expected += (t.xi * w + hp.lam) * np.outer(x[i] - x[j], x[i] - x[j])
        for w, l in zip(t.wd, nbrs.dissimilar[i]):
            expected -= t.xi * w * np.outer(x[i] - x[l], x[i] - x[l])
    return expected


def _assert_matches_oracle(got, expected):
    assert np.abs(got - expected).max() <= 1e-10 * np.abs(expected).max()


@pytest.mark.parametrize("mode", ["all_same_class", "knn_same_class"])
@pytest.mark.parametrize("loss", [HingeLoss(1.0), IdentityLoss(),
                                  SoftplusLoss(margin=0.5, sharpness=2.0)])
@pytest.mark.parametrize("alpha", [2.0, -2.0, 0.3])
def test_gradient_matches_per_sample_oracle(alpha, loss, mode):
    rng = np.random.default_rng(13)
    data, nbrs = make_instance(rng, n=14, d=3, classes=3, mode=mode, k0=3)
    m = random_psd(rng, 3, jitter=0.1)
    hp = HyperParams(alpha=alpha, gamma=1.5, lam=0.01, loss=loss)
    got = ann_gradient(m, data, nbrs, hp)
    _assert_matches_oracle(got, _oracle_gradient(m, data, nbrs, hp))


def test_gradient_translation_invariant():
    # the Laplacian form works on centred features: a common offset of 1e6
    # must not cost accuracy (uncentred, it cancels to ~5e-4 relative error)
    rng = np.random.default_rng(14)
    base, _ = make_instance(rng, n=20, d=4, classes=3)
    data = Dataset(base.features + 1e6, base.labels)
    nbrs = build_neighbor_sets(data)
    m = random_psd(rng, 4, jitter=0.1)
    hp = HyperParams(alpha=2.0, gamma=1.5, lam=0.01, loss=IdentityLoss())
    got = ann_gradient(m, data, nbrs, hp)
    _assert_matches_oracle(got, _oracle_gradient(m, data, nbrs, hp))


def _listed_pairs(ptr, nbr):
    return set(zip(owners(ptr).tolist(), nbr.tolist()))


def _mutual_knn_case():
    # unequal classes and k-NN similar sets: mutual neighbors put weight on
    # both (i, j) and (j, i), which the symmetrized pair-weight matrix adds up
    rng = np.random.default_rng(15)
    labels = np.repeat([1, 2, 3, 4], [40, 25, 15, 10])
    data = Dataset(rng.normal(size=(90, 6)), rng.permutation(labels))
    nbrs = build_neighbor_sets(data, mode="knn_same_class", k0=5)
    pairs = _listed_pairs(nbrs.sim_ptr, nbrs.sim_nbr)
    assert any((j, i) in pairs for (i, j) in pairs)
    return data, nbrs, random_psd(rng, 6, jitter=0.1)


def test_gradient_matches_oracle_with_mutual_neighbors():
    data, nbrs, m = _mutual_knn_case()
    hp = HyperParams(alpha=2.0, gamma=1.5, lam=0.01,
                     loss=SoftplusLoss(margin=0.5, sharpness=2.0))
    got = ann_gradient(m, data, nbrs, hp)
    _assert_matches_oracle(got, _oracle_gradient(m, data, nbrs, hp))


# ---------------------------------------------------------------------------
# Quadratic forms: one per unordered pair, computed in blocks


def _unordered_pairs(nbrs):
    listed = (_listed_pairs(nbrs.sim_ptr, nbrs.sim_nbr)
              | _listed_pairs(nbrs.dis_ptr, nbrs.dis_nbr))
    return {(min(i, j), max(i, j)) for i, j in listed}


def _quadform_case(case):
    rng = np.random.default_rng(17)
    m = MetricMatrix(random_psd(rng, 4, jitter=0.1))
    if case == "all_same_class":
        data, nbrs = make_instance(rng, n=24, d=4, classes=3)
    elif case == "knn_non_mutual":
        data, nbrs = make_instance(rng, n=40, d=4, classes=3,
                                   mode="knn_same_class", k0=3)
        pairs = _listed_pairs(nbrs.sim_ptr, nbrs.sim_nbr)
        assert any((j, i) not in pairs for (i, j) in pairs)
    elif case == "blocks":
        # more unique pairs than one block holds, and a ragged last block
        data, nbrs = make_instance(rng, n=200, d=4, classes=3)
        rows = len(_unordered_pairs(nbrs))
        assert rows > 8192 and rows % 8192 != 0
    elif case == "duplicates":
        base = make_dataset(rng, n=24, d=4, classes=3)
        x = base.features.copy()
        x[1] = x[0]
        x[5] = x[2]
        data = Dataset(x, base.labels)
        nbrs = build_neighbor_sets(data)
    else:  # a raw, non-symmetric, indefinite array
        data, nbrs = make_instance(rng, n=24, d=4, classes=3,
                                   mode="knn_same_class", k0=4)
        m = rng.normal(size=(4, 4))
    return data, nbrs, m


@pytest.mark.parametrize("case", ["all_same_class", "knn_non_mutual", "blocks",
                                  "duplicates", "raw_array"])
def test_quadforms_equal_per_pair_oracle(case):
    # the quadratic forms are computed once per unordered pair and read out
    # per listed pair; they must equal the per-pair forms bit for bit
    data, nbrs, m = _quadform_case(case)
    q_s, q_d = PairEvaluator(data, nbrs)._quadforms(m)
    e_s, e_d = pair_quadforms(m, data, nbrs)
    assert np.array_equal(q_s, e_s)
    assert np.array_equal(q_d, e_d)


@pytest.mark.parametrize("case", ["all_same_class", "knn_non_mutual", "blocks",
                                  "duplicates", "raw_array", "mutual_knn"])
@pytest.mark.parametrize("hp", [
    HyperParams(alpha=2.0, gamma=1.5, lam=0.01),
    HyperParams(alpha=-2.0, gamma=0.5, lam=0.003,
                loss=SoftplusLoss(margin=0.5, sharpness=2.0))])
def test_evaluator_equals_listed_pair_scatter(case, hp):
    # the gradient sums each unordered pair's weights and scatters them once;
    # soft sides, J and dJ/dM must equal the per-listed-pair scatter bit for bit
    data, nbrs, m = _mutual_knn_case() if case == "mutual_knn" else _quadform_case(case)
    ds, dd, j, grad = listed_pair_evaluation(m, data, nbrs, hp)
    ev = PairEvaluator(data, nbrs)
    at = ev.objective(m, hp)
    assert np.array_equal(at.ds, ds) and np.array_equal(at.dd, dd)
    assert at.j == j
    assert np.array_equal(ev.gradient(at), grad)


def test_quadform_pass_sees_each_unordered_pair_once(monkeypatch):
    rng = np.random.default_rng(18)
    data, nbrs = make_instance(rng, n=30, d=3, classes=3)
    rows = []
    einsum = np.einsum

    def counting_einsum(subscripts, *operands, **kwargs):
        if subscripts == "pi,pi->p":
            rows.append(operands[0].shape[0])
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", counting_einsum)
    PairEvaluator(data, nbrs).objective(MetricMatrix.identity(3), HyperParams(alpha=2.0))
    # all_same_class lists every pair from both ends, on either side
    n_listed = nbrs.sim_nbr.size + nbrs.dis_nbr.size
    assert sum(rows) == len(_unordered_pairs(nbrs)) == n_listed // 2


def test_evaluator_rejects_neighbor_sets_of_another_size():
    rng = np.random.default_rng(8)
    data = make_dataset(rng, n=10, d=2)
    nbrs = build_neighbor_sets(make_dataset(rng, n=12, d=2))
    with pytest.raises(ValueError, match="neighbor sets cover 12 samples, "
                                         "dataset has 10"):
        PairEvaluator(data, nbrs)


# ---------------------------------------------------------------------------
# Streamed difference rows: the stored rows' bits without storing them


def _stored_and_streamed(monkeypatch, data, nbrs, hp, m):
    """(q_s, q_d, ds, dd, j, gradient) with the rows stored, then streamed."""
    out = []
    for limit, streamed in ((1 << 62, False), (0, True)):
        monkeypatch.setattr(objective, "_STREAM_ELEMENTS", limit)
        ev = PairEvaluator(data, nbrs)
        assert (ev.diff is None) == streamed
        at = ev.objective(m, hp)
        out.append(ev._quadforms(m) + (at.ds, at.dd, at.j, ev.gradient(at)))
    return out


@pytest.mark.parametrize("n, d, mode", [
    # 28,680 rows: three whole stored blocks and a ragged 4,104-row last one;
    # at d = 33 BLAS rounds a lone 8-row tail differently from the same rows
    # inside that last block
    (240, 33, "all_same_class"),
    # ragged at both block sizes, with non-mutual similar pairs
    (300, 5, "knn_same_class"),
    # fewer rows than one stored block
    (40, 4, "all_same_class")])
@pytest.mark.parametrize("hp", [
    HyperParams(alpha=2.0, gamma=1.5, lam=0.01),
    HyperParams(alpha=-2.0, gamma=0.5, lam=0.003,
                loss=SoftplusLoss(margin=0.5, sharpness=2.0))])
def test_streamed_rows_equal_stored_rows(monkeypatch, n, d, mode, hp):
    rng = np.random.default_rng(n + d)
    data, nbrs = make_instance(rng, n=n, d=d, classes=3, mode=mode, k0=5)
    m = MetricMatrix(random_psd(rng, d, jitter=0.1))
    stored, streamed = _stored_and_streamed(monkeypatch, data, nbrs, hp, m)
    for a, b in zip(stored, streamed):
        assert np.array_equal(a, b)


def test_streamed_evaluator_holds_no_rows():
    # N = 900, d = 24: 404,550 rows x 24 is over the streaming threshold, and
    # the stored rows alone would take 77.7 MB
    rng = np.random.default_rng(23)
    data, nbrs = make_instance(rng, n=900, d=24, classes=3)
    tracemalloc.start()
    try:
        ev = PairEvaluator(data, nbrs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ev.keys.size * 24 > objective._STREAM_ELEMENTS
    # the row maps are traced, so the peak is a real measurement
    assert ev.inv_s.nbytes + ev.inv_d.nbytes <= peak < ev.keys.size * 24 * 8 / 2


# ---------------------------------------------------------------------------
# Transient memory: one N x N buffer per gradient, one side's keys in setup


def _traced_peak(call):
    """(result, peak traced bytes above the traced bytes at entry)."""
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        out = call()
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    return out, peak


def test_evaluator_setup_holds_one_side_of_keys(monkeypatch):
    # streamed, so the stored difference rows do not hide the setup's peak:
    # the N^2 row map, the unique keys, both inverse maps and the keys of
    # the side being mapped; the owners and a second side's keys are gone
    monkeypatch.setattr(objective, "_STREAM_ELEMENTS", 0)
    n = 600
    data, nbrs = make_instance(np.random.default_rng(29), n=n, d=8, classes=3)
    ev, peak = _traced_peak(lambda: PairEvaluator(data, nbrs))
    sides = (nbrs.sim_nbr.size, nbrs.dis_nbr.size)
    held = n * n + ev.keys.size + sum(sides) + max(sides)
    assert 8 * held <= peak < 1.02 * 8 * held


def test_gradient_holds_one_square_buffer():
    # w and the unordered-pair sums, never w next to a second N x N array
    n = 600
    rng = np.random.default_rng(29)
    data, nbrs = make_instance(rng, n=n, d=8, classes=3)
    ev = PairEvaluator(data, nbrs)
    at = ev.objective(MetricMatrix(random_psd(rng, 8, jitter=0.1)),
                      HyperParams(alpha=1.0, lam=0.01))
    _, peak = _traced_peak(lambda: ev.gradient(at))
    assert 8 * n * n <= peak < 8 * (1.5 * n * n + ev.keys.size)


_B = objective._MIRROR_ROWS


@pytest.mark.parametrize("n", [_B - 1, _B, _B + 1, 2 * _B + _B // 2])
def test_mirror_equals_w_plus_wt(n):
    # below one row block, exactly one, one row over, and a ragged multiple
    rng = np.random.default_rng(n)
    w = np.triu(rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.7))
    expected = w + w.T
    objective._mirror_upper(w)
    assert np.array_equal(w, expected)
    # and through the evaluator, against the listed-pair w + w^T oracle
    data, nbrs = make_instance(rng, n=n, d=3, classes=3, mode="knn_same_class",
                               k0=5)
    hp = HyperParams(alpha=-2.0, gamma=0.5, lam=0.003)
    m = MetricMatrix(random_psd(rng, 3, jitter=0.1))
    ev = PairEvaluator(data, nbrs)
    assert np.array_equal(ev.gradient(ev.objective(m, hp)),
                          listed_pair_evaluation(m, data, nbrs, hp)[3])


# ---------------------------------------------------------------------------
# Evaluations: objective returns one, gradient only reads it


def test_gradient_leaves_its_evaluation_unchanged():
    rng = np.random.default_rng(16)
    data, nbrs = make_instance(rng, n=16, d=3, classes=3, mode="knn_same_class",
                               k0=4)
    hp = HyperParams(alpha=-2.0, gamma=1.5, lam=0.01,
                     loss=SoftplusLoss(margin=0.5, sharpness=2.0))
    ev = PairEvaluator(data, nbrs)
    at = ev.objective(MetricMatrix(random_psd(rng, 3, jitter=0.1)), hp)
    arrays = (at.ds, at.dd, at.u) + at.sim + at.dis
    before = [a.copy() for a in arrays]
    g1 = ev.gradient(at)
    g2 = ev.gradient(at)
    assert np.array_equal(g1, g2)
    assert all(np.array_equal(a, b) for a, b in zip(arrays, before))


def test_gradient_reads_the_hyperparameters_of_its_evaluation():
    # one evaluator, two hyperparameter sets: evaluating under hp2 must not
    # change the gradient of an evaluation made earlier under hp1
    rng = np.random.default_rng(17)
    data, nbrs = make_instance(rng, n=16, d=3, classes=3, mode="knn_same_class",
                               k0=4)
    hp1 = HyperParams(alpha=2.0, gamma=0.5, lam=0.01)
    hp2 = HyperParams(alpha=-2.0, gamma=1.5, lam=0.003,
                      loss=SoftplusLoss(margin=0.5, sharpness=2.0))
    m = MetricMatrix(random_psd(rng, 3, jitter=0.1))
    ev = PairEvaluator(data, nbrs)
    at1 = ev.objective(m, hp1)
    at2 = ev.objective(m, hp2)
    assert at1.hp is hp1 and at2.hp is hp2
    g1 = ann_gradient(m, data, nbrs, hp1)
    assert not np.array_equal(g1, ann_gradient(m, data, nbrs, hp2))
    assert np.array_equal(ev.gradient(at1), g1)


def test_gradient_exactly_symmetric():
    rng = np.random.default_rng(8)
    data, nbrs = make_instance(rng, n=16, d=5, classes=3)
    hp = HyperParams(alpha=-1.5, gamma=2.0, lam=0.01)
    g = ann_gradient(random_psd(rng, 5, jitter=0.1), data, nbrs, hp)
    assert np.array_equal(g, g.T)


def test_convexity_for_negative_alpha():
    rng = np.random.default_rng(9)
    data, nbrs = make_instance(rng, n=12, d=3, classes=2)
    hp = HyperParams(alpha=-2.0, gamma=1.0, lam=1.0 / 144, loss=IdentityLoss())
    for _ in range(25):
        m1 = random_psd(rng, 3)
        m2 = random_psd(rng, 3)
        mid = (m1 + m2) / 2
        j1 = ann_objective(m1, data, nbrs, hp)
        j2 = ann_objective(m2, data, nbrs, hp)
        jm = ann_objective(mid, data, nbrs, hp)
        assert jm <= (j1 + j2) / 2 + 1e-8 * (1 + abs(jm))


# ---------------------------------------------------------------------------
# The paper's special cases: b(alpha) between the mean and the min or max


def _segments(q, ptr):
    return [q[ptr[i]:ptr[i + 1]] for i in range(ptr.size - 1)]


def _special_case(mode):
    rng = np.random.default_rng(19)
    data, nbrs = make_instance(rng, n=24, d=3, classes=3, mode=mode, k0=4)
    return data, nbrs, MetricMatrix(random_psd(rng, 3, jitter=0.1))


def _float_slack(v, a):
    # the shifted log-sum-exp loses about size / |a| ulps of the list's scale
    return 8 * np.finfo(float).eps * (v.max() + v.size / abs(a))


@pytest.mark.parametrize("mode", ["all_same_class", "knn_same_class"])
@pytest.mark.parametrize("alpha", [2.0 ** -20, 2.0 ** -9, 1.0, 2.0 ** 10,
                                   -2.0 ** -20, -2.0 ** -9, -1.0, -2.0 ** 10])
def test_soft_sides_between_mean_and_extreme(mode, alpha):
    # for a list v of n values and a > 0 (a < 0 mirrors every bound):
    #   mean(v) - a range(v)^2 / 8 <= b(a) <= mean(v)   (Hoeffding, Jensen)
    #   min(v) <= b(a) <= min(v) + ln(n) / a
    # so a -> 0 gives the mean of S_i, the pairwise-constraint sum, and
    # a -> +inf (-inf) its min (max); D_i is always aggregated at a = 1
    data, nbrs, m = _special_case(mode)
    at = PairEvaluator(data, nbrs).objective(m, HyperParams(alpha=alpha))
    q_s, q_d = pair_quadforms(m, data, nbrs)
    for got, q, ptr, a in ((at.ds, q_s, nbrs.sim_ptr, alpha),
                           (at.dd, q_d, nbrs.dis_ptr, 1.0)):
        for b, v in zip(got, _segments(q, ptr)):
            slack = _float_slack(v, a)
            spread = abs(a) * (v.max() - v.min()) ** 2 / 8
            if a > 0:
                assert v.mean() - spread - slack <= b <= v.mean() + slack
                assert v.min() - slack <= b <= v.min() + np.log(v.size) / a + slack
            else:
                assert v.mean() - slack <= b <= v.mean() + spread + slack
                assert v.max() + np.log(v.size) / a - slack <= b <= v.max() + slack


@pytest.mark.parametrize("mode", ["all_same_class", "knn_same_class"])
@pytest.mark.parametrize("alpha", [2.0 ** -20, -2.0 ** -20])
def test_small_alpha_objective_is_the_pairwise_constraint_sum(mode, alpha):
    # identity loss at alpha -> 0: ds_i -> mean(S_i), so
    #   J -> sum_i (mean(S_i) - dd_i) / gamma + lam * sum_i sum_{j in S_i} d_ij,
    # within N alpha range^2 / (8 gamma) and on the side Jensen gives
    data, nbrs, m = _special_case(mode)
    gamma, lam = 1.5, 0.01
    hp = HyperParams(alpha=alpha, gamma=gamma, lam=lam, loss=IdentityLoss())
    at = PairEvaluator(data, nbrs).objective(m, hp)
    q_s, _ = pair_quadforms(m, data, nbrs)
    segments = _segments(q_s, nbrs.sim_ptr)
    closed = (sum(v.mean() for v in segments) - at.dd.sum()) / gamma + lam * q_s.sum()
    spread = data.n_samples * abs(alpha) * max(np.ptp(v) for v in segments) ** 2 / (8 * gamma)
    slack = (sum(_float_slack(v, alpha) for v in segments) / gamma
             + 64 * np.finfo(float).eps * (np.abs(at.u).sum() + lam * q_s.sum()))
    if alpha > 0:
        assert closed - spread - slack <= at.j <= closed + slack
    else:
        assert closed - slack <= at.j <= closed + spread + slack


@pytest.mark.parametrize("mode", ["all_same_class", "knn_same_class"])
@pytest.mark.parametrize("loss", [IdentityLoss(), HingeLoss(1.0)])
def test_large_alpha_objective_is_the_extreme_neighbor_sum(mode, loss):
    # at alpha = s 2^k, ds_i lies within ln|S_i| / |alpha| of e_i = min(S_i)
    # (s = +1) or max(S_i) (s = -1), on the inner side; a monotone
    # 1-Lipschitz loss carries that over to J:
    #   0 <= s (J - J_inf) <= sum_i ln|S_i| / (|alpha| gamma),
    #   J_inf = sum_i loss((e_i - dd_i) / gamma) + lam * sum_i sum_{j in S_i} d_ij
    data, nbrs, m = _special_case(mode)
    gamma, lam = 1.5, 0.01
    q_s, _ = pair_quadforms(m, data, nbrs)
    segments = _segments(q_s, nbrs.sim_ptr)
    log_sizes = sum(np.log(v.size) for v in segments)
    for s, extreme in ((1.0, np.min), (-1.0, np.max)):
        e = np.array([extreme(v) for v in segments])
        for k in range(1, 11):
            alpha = s * 2.0 ** k
            hp = HyperParams(alpha=alpha, gamma=gamma, lam=lam, loss=loss)
            at = PairEvaluator(data, nbrs).objective(m, hp)
            j_inf = float(loss.value((e - at.dd) / gamma).sum()) + lam * q_s.sum()
            slack = (sum(_float_slack(v, alpha) for v in segments) / gamma
                     + 64 * np.finfo(float).eps
                     * ((np.abs(at.ds) + np.abs(at.dd)).sum() / gamma
                        + np.abs(loss.value(at.u)).sum() + lam * q_s.sum()))
            gap = s * (at.j - j_inf)
            assert -slack <= gap <= log_sizes / (abs(alpha) * gamma) + slack


# ---------------------------------------------------------------------------
# NCA / PNCA


def test_nca_two_samples_different_classes():
    ds = Dataset([[0.0], [1.0]], [1, 2])
    assert nca_objective(MetricMatrix.identity(1), ds) == 0.0


def test_nca_two_samples_same_class():
    ds = Dataset([[0.0], [1.0], [9.0]], [1, 1, 2])
    # restrict to the same-class pair: each p_ij < 1 because class 2 competes
    val = nca_objective(MetricMatrix.identity(1), ds)
    assert 0.0 < val < 3.0


def test_pnca_equals_nca_at_alpha_one():
    rng = np.random.default_rng(10)
    for _ in range(10):
        data, nbrs = make_instance(rng, n=12, d=3, classes=3)
        m = MetricMatrix(random_psd(rng, 3, jitter=0.1))
        a = nca_objective(m, data)
        b = pnca_objective(m, data, nbrs, 1.0)
        assert abs(a - b) <= 1e-10 * data.n_samples


def test_pnca_symmetric_half():
    # equal distances everywhere and |S_i| == |D_i| make each summand 1/2
    X = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    # pairwise squared distances all equal 2; classes 1,1? need |S|=|D|=1
    ds = Dataset(np.vstack([X, X + 10]), [1, 1, 2, 2, 1, 2])
    # hand-built sets: one similar, one dissimilar, engineered equal distances
    ns = NeighborSets([[1], [0], [3], [2], [5], [4]],
                      [[2], [3], [0], [1], [5], [4]])
    # use a metric of zeros: every distance collapses to 0, so A = B
    m = MetricMatrix(np.zeros((3, 3)))
    val = pnca_objective(m, ds, ns, 1.0)
    assert val == pytest.approx(0.5 * 6, abs=1e-12)


def test_pnca_matches_direct_recomputation():
    rng = np.random.default_rng(11)
    data, nbrs = make_instance(rng, n=10, d=3, classes=2)
    m = MetricMatrix(random_psd(rng, 3, jitter=0.1))
    alpha = 4.0
    total = 0.0
    for i in range(data.n_samples):
        a_sum = sum(np.exp(-alpha * mahalanobis_sq(m, data.features[i], data.features[j]))
                    for j in nbrs.similar[i]) ** (1.0 / alpha)
        b_sum = sum(np.exp(-mahalanobis_sq(m, data.features[i], data.features[l]))
                    for l in nbrs.dissimilar[i])
        total += a_sum / (a_sum + b_sum)
    assert pnca_objective(m, data, nbrs, alpha) == pytest.approx(total, rel=1e-10)


def test_pnca_rejects_zero_alpha():
    rng = np.random.default_rng(12)
    data, nbrs = make_instance(rng, n=8, d=2, classes=2)
    for alpha in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            pnca_objective(MetricMatrix.identity(2), data, nbrs, alpha)


def test_nca_rejects_raw_array_metric():
    # NCA builds a distance table; the pair evaluator's objectives do not
    rng = np.random.default_rng(13)
    data, nbrs = make_instance(rng, n=8, d=2, classes=2)
    with pytest.raises(TypeError, match="metric must be a MetricMatrix"):
        nca_objective(np.eye(2), data)
    assert pnca_objective(np.eye(2), data, nbrs, 1.0) == \
        pnca_objective(MetricMatrix.identity(2), data, nbrs, 1.0)
