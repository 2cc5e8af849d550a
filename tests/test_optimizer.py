from pathlib import Path

import numpy as np
import pytest

from adaptnn import (Dataset, DivergenceError, HingeLoss, HyperParams,
                     IdentityLoss, MetricMatrix, SoftplusLoss, apply_zscore,
                     build_neighbor_sets, default_init, fit_zscore, load, train)
from adaptnn import objective
from adaptnn.objective import PairEvaluator
from helpers import make_instance

IRIS = Path(__file__).resolve().parent.parent / "datasets" / "iris.csv"


def test_default_init_values():
    ds = Dataset(np.zeros((4, 2)) + np.arange(4)[:, None], [1, 2, 1, 2])
    assert np.allclose(default_init(ds).m, np.diag([0.5, 0.5]))
    ds100 = Dataset(np.arange(300, dtype=float).reshape(100, 3),
                    [1 + i % 2 for i in range(100)])
    assert np.allclose(default_init(ds100).m, 0.1 * np.eye(3))


def test_stationary_point_never_moves():
    # hinge far from active and lam = 0: gradient is identically zero, no
    # candidate can strictly decrease J, so the iterate never changes
    X = np.array([[0.0], [0.1], [10.0], [10.1]])
    ds = Dataset(X, [1, 1, 2, 2])
    ns = build_neighbor_sets(ds)
    hp = HyperParams(alpha=1.0, gamma=1.0, lam=0.0, loss=HingeLoss(1.0),
                     max_iters=20)
    init = default_init(ds)
    report = train(ds, ns, hp, init)
    assert np.allclose(report.final_metric.m, init.m)
    assert all(not acc for (it, _, _, acc) in report.objective_trace if it > 0)


def test_one_eigendecomposition_per_step(monkeypatch):
    # psd_project's eigh is the only one per iteration: its output is not
    # re-checked with eigvalsh; default_init's construction checks once
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(a, *args, **kwargs):
        calls.append(1)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    rng = np.random.default_rng(1)
    data, nbrs = make_instance(rng, n=20, d=3, classes=2)
    report = train(data, nbrs, HyperParams(alpha=2.0, max_iters=10))
    assert report.iterations_run == 10
    assert len(calls) == 1


def test_quadratic_forms_once_per_iterate(monkeypatch):
    # the gradient at an accepted iterate reuses the soft sides its objective
    # call computed: one quadratic-form pass per objective call, none extra
    calls = []
    quadforms = PairEvaluator._quadforms

    def counting_quadforms(self, m):
        calls.append(1)
        return quadforms(self, m)

    monkeypatch.setattr(PairEvaluator, "_quadforms", counting_quadforms)
    rng = np.random.default_rng(1)
    data, nbrs = make_instance(rng, n=20, d=3, classes=2)
    report = train(data, nbrs, HyperParams(alpha=2.0, max_iters=10))
    assert report.iterations_run == 10
    assert any(acc for (it, _, _, acc) in report.objective_trace if it > 0)
    assert len(calls) == report.iterations_run + 1


@pytest.fixture(scope="module")
def edge_datasets():
    """z-scored iris, and a degenerate copy of it: one constant feature more,
    sample 0 repeated under class 2's label, and sample 120 repeated in its
    own class."""
    raw = load(IRIS)
    iris = apply_zscore(fit_zscore(raw), raw)
    x = np.hstack([iris.features, np.ones((iris.n_samples, 1))])
    degenerate = Dataset(np.vstack([x, x[[0, 120]]]),
                         np.concatenate([iris.labels, [2, iris.labels[120]]]))
    return iris, degenerate


@pytest.mark.parametrize("mode", ["all_same_class", "knn_same_class"])
@pytest.mark.parametrize("gamma", [2.0 ** -9, 2.0 ** 10])
@pytest.mark.parametrize("alpha", [2.0 ** -9, -2.0 ** -9, 2.0 ** 10, -2.0 ** 10])
def test_train_at_grid_edges(edge_datasets, alpha, gamma, mode):
    # the extreme alpha/gamma the full grids reach, on clean and on
    # degenerate data: train must not diverge, must only accept decreasing
    # finite objectives and must stay PSD
    for data in edge_datasets:
        nbrs = build_neighbor_sets(data, mode=mode)
        hp = HyperParams(alpha=alpha, gamma=gamma, lam=1.0 / data.n_samples ** 2,
                         max_iters=40)
        report = train(data, nbrs, hp, default_init(data))
        accepted = report.accepted_objectives()
        assert np.all(np.isfinite(accepted))
        assert all(a > b for a, b in zip(accepted, accepted[1:]))
        m = report.final_metric.m
        assert np.abs(m - m.T).max() <= 1e-9
        assert np.linalg.eigvalsh(m).min() >= -1e-10


def test_step_size_follows_accept_reject_rule():
    rng = np.random.default_rng(0)
    data, nbrs = make_instance(rng, n=20, d=3, classes=2)
    hp = HyperParams(alpha=2.0, gamma=1.0, lam=1.0 / 400, max_iters=60,
                     eta0=1e-3)
    report = train(data, nbrs, hp)
    eta = hp.eta0
    for (it, _, eta_used, accepted) in report.objective_trace[1:]:
        assert eta_used == pytest.approx(eta, rel=1e-15)
        eta = eta * 1.05 if accepted else eta * 0.5
    assert report.iterations_run >= 1


def test_accepted_objectives_strictly_decreasing():
    rng = np.random.default_rng(1)
    data, nbrs = make_instance(rng, n=25, d=4, classes=3)
    hp = HyperParams(alpha=-2.0, gamma=1.0, lam=1.0 / 625, max_iters=80)
    report = train(data, nbrs, hp)
    accepted = report.accepted_objectives()
    assert len(accepted) >= 2  # at least one real step on this instance
    assert all(a > b for a, b in zip(accepted, accepted[1:]))


def test_iterates_stay_on_psd_cone():
    rng = np.random.default_rng(2)
    data, nbrs = make_instance(rng, n=18, d=4, classes=2)
    hp = HyperParams(alpha=2.0, gamma=0.5, lam=1e-3, max_iters=50)
    report = train(data, nbrs, hp)
    m = report.final_metric.m
    assert np.abs(m - m.T).max() <= 1e-9
    assert np.linalg.eigvalsh(m).min() >= -1e-10


def test_deterministic_trace():
    rng = np.random.default_rng(3)
    data, nbrs = make_instance(rng, n=15, d=3, classes=2)
    hp = HyperParams(alpha=-1.0, gamma=1.0, lam=1e-3, max_iters=30)
    r1 = train(data, nbrs, hp)
    r2 = train(data, nbrs, hp)
    t1 = [(it, j, e, a) for (it, j, e, a) in r1.objective_trace]
    t2 = [(it, j, e, a) for (it, j, e, a) in r2.objective_trace]
    assert t1 == t2
    assert np.array_equal(r1.final_metric.m, r2.final_metric.m)


def test_convex_case_reaches_common_optimum_from_two_inits():
    # alpha < 0 with identity loss is convex: different PSD starting points
    # must reach the same objective value
    rng = np.random.default_rng(4)
    data, nbrs = make_instance(rng, n=30, d=3, classes=2)
    hp = HyperParams(alpha=-2.0, gamma=1.0, lam=1.0 / 900,
                     loss=IdentityLoss(), max_iters=400, eta0=1e-2)
    a = rng.normal(size=(3, 3))
    init2 = MetricMatrix((a @ a.T) / 10 + 0.05 * np.eye(3))
    j1 = train(data, nbrs, hp, default_init(data)).accepted_objectives()[-1]
    j2 = train(data, nbrs, hp, init2).accepted_objectives()[-1]
    assert abs(j1 - j2) <= 1e-4 * max(1.0, abs(j1), abs(j2))


def test_divergence_raises_with_diagnostics():
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    ds = Dataset(X, [1, 1, 2, 2])
    ns = build_neighbor_sets(ds)
    hp = HyperParams(alpha=1.0, max_iters=5)

    class ExplodingLoss(IdentityLoss):
        def value(self, x):
            return np.full_like(np.asarray(x, dtype=float), np.nan)

    bad = HyperParams(alpha=1.0, max_iters=5, loss=ExplodingLoss())
    with pytest.raises(DivergenceError) as err:
        train(ds, ns, bad)
    assert err.value.iteration == 0

    # finite setup trains fine
    train(ds, ns, hp)


class _TurningLoss(IdentityLoss):
    """IdentityLoss whose value or derivative turns NaN from call n on."""

    def __init__(self, method, n):
        self.method, self.n, self.calls = method, n, 0

    def _out(self, name, out):
        if name == self.method:
            self.calls += 1
            if self.calls >= self.n:
                return np.full_like(out, np.nan)
        return out

    def value(self, x):
        return self._out("value", super().value(x))

    def derivative(self, x):
        return self._out("derivative", super().derivative(x))


@pytest.mark.parametrize("method, n, message, iteration", [
    ("value", 3, "objective non-finite at iteration 2", 2),
    ("derivative", 2, "gradient non-finite at iteration 2", 2)])
def test_divergence_mid_loop_names_the_iteration(method, n, message, iteration):
    # value is called once per iterate scored (the initial one first) and
    # derivative once per gradient; iteration 1 is accepted on this instance
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    ds = Dataset(X, [1, 1, 2, 2])
    ns = build_neighbor_sets(ds)
    hp = HyperParams(alpha=1.0, lam=0.1, max_iters=5, loss=_TurningLoss(method, n))
    with pytest.raises(DivergenceError, match=message) as err:
        train(ds, ns, hp)
    assert err.value.iteration == iteration
    assert isinstance(err.value.metric, MetricMatrix)


def test_callback_receives_every_iteration():
    rng = np.random.default_rng(5)
    data, nbrs = make_instance(rng, n=12, d=2, classes=2)
    hp = HyperParams(alpha=2.0, gamma=1.0, lam=1e-3, max_iters=10)
    seen = []
    report = train(data, nbrs, hp,
                   callback=lambda it, j, eta, acc: seen.append((it, j, eta, acc)))
    assert [s[0] for s in seen] == list(range(1, report.iterations_run + 1))
    assert seen == list(report.objective_trace[1:])


def test_early_stop_on_rejection_streak():
    # zero-gradient instance rejects every candidate and must stop after the
    # rejection cap, well before max_iters
    X = np.array([[0.0], [0.1], [10.0], [10.1]])
    ds = Dataset(X, [1, 1, 2, 2])
    ns = build_neighbor_sets(ds)
    hp = HyperParams(alpha=1.0, gamma=1.0, lam=0.0, loss=HingeLoss(1.0),
                     max_iters=10_000)
    report = train(ds, ns, hp)
    assert report.iterations_run == 30


def _separated_pair_classes():
    # hinge inactive everywhere and lam = 0: the gradient is 0, J stays 0 and
    # every candidate is rejected, so eta only halves
    X = np.array([[0.0], [0.1], [10.0], [10.1]])
    ds = Dataset(X, [1, 1, 2, 2])
    return ds, build_neighbor_sets(ds)


@pytest.mark.parametrize("eta0, max_iters, reason, iterations", [
    (1.0, 5, "max_iters", 5),
    (1.0, 10_000, "rejection_cap", 30),   # eta = 2^-30 ~ 9.3e-10 > ETA_MIN
    (1e-10, 10_000, "eta_floor", 7),      # 1e-10 * 2^-7 < 1e-12
    (1e-3, 10_000, "eta_floor", 30),      # both hold at 30: eta_floor wins
])
def test_stop_reason(eta0, max_iters, reason, iterations):
    ds, ns = _separated_pair_classes()
    hp = HyperParams(alpha=1.0, gamma=1.0, lam=0.0, loss=HingeLoss(1.0),
                     max_iters=max_iters, eta0=eta0)
    report = train(ds, ns, hp)
    assert report.stop_reason == reason
    assert report.iterations_run == iterations


@pytest.mark.parametrize("eta0, reason", [(1.0, "rejection_cap"), (1e-10, "eta_floor")])
def test_callback_sees_the_iteration_that_stops_the_loop(eta0, reason):
    # an early stop breaks out after the callback, so the stopping iteration
    # is reported too, and the calls are the trace after its initial entry
    ds, ns = _separated_pair_classes()
    hp = HyperParams(alpha=1.0, lam=0.0, max_iters=10_000, eta0=eta0)
    seen = []
    report = train(ds, ns, hp, callback=lambda *entry: seen.append(entry))
    assert report.stop_reason == reason
    assert len(seen) == report.iterations_run < hp.max_iters
    assert seen == list(report.objective_trace[1:])


def test_raw_array_init_is_a_type_error():
    ds, ns = _separated_pair_classes()
    with pytest.raises(TypeError, match="init must be a MetricMatrix"):
        train(ds, ns, HyperParams(alpha=1.0), init=np.eye(1))


def test_init_of_another_dimension_rejected():
    ds, ns = _separated_pair_classes()
    with pytest.raises(ValueError, match="init metric is 2x2 but data has 1 features"):
        train(ds, ns, HyperParams(alpha=1.0), init=MetricMatrix.identity(2))


# ---------------------------------------------------------------------------
# One evaluator shared by the fits of several grid cells


def _report_bits(report):
    """The final metric's and the trace's bytes, stop reason and count."""
    return (report.final_metric.m.tobytes(),
            np.array(report.objective_trace, dtype=float).tobytes(),
            report.iterations_run, report.stop_reason)


@pytest.mark.parametrize("streamed", [False, True])
def test_cells_sharing_an_evaluator_train_as_fresh_fits(monkeypatch, streamed):
    # two (alpha, gamma) cells trained one after the other from one
    # evaluator, as a cross-validation fold runs them: each report equals
    # that of a fit that builds its own evaluator, bit for bit, whether the
    # difference rows are stored or streamed
    if streamed:
        monkeypatch.setattr(objective, "_STREAM_ELEMENTS", 0)
    rng = np.random.default_rng(31)
    data, nbrs = make_instance(rng, n=30, d=4, classes=3, mode="knn_same_class",
                               k0=4)
    shared = PairEvaluator(data, nbrs)
    assert (shared.diff is None) == streamed
    for hp in (HyperParams(alpha=2.0, gamma=0.5, lam=0.01, max_iters=15),
               HyperParams(alpha=-4.0, gamma=2.0, lam=0.003, max_iters=15,
                           loss=SoftplusLoss(margin=0.5, sharpness=2.0))):
        got = train(data, nbrs, hp, evaluator=shared)
        assert any(acc for (it, _, _, acc) in got.objective_trace if it > 0)
        assert _report_bits(got) == _report_bits(train(data, nbrs, hp))


def test_train_rejects_an_evaluator_of_other_data_or_neighbor_sets():
    rng = np.random.default_rng(32)
    data, nbrs = make_instance(rng, n=20, d=3, classes=2)
    shifted = Dataset(data.features + 1.0, data.labels)
    hp = HyperParams(alpha=1.0, max_iters=2)
    for ev in (PairEvaluator(shifted, nbrs),
               PairEvaluator(data, build_neighbor_sets(data))):
        with pytest.raises(ValueError, match="evaluator was built for other "
                                             "data or neighbor sets"):
            train(data, nbrs, hp, evaluator=ev)
