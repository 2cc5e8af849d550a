import functools
import math
import operator

import numpy as np
import pytest

from adaptnn import soft_agg, solve_gamma_star, topk_avg_largest, topk_avg_smallest
from adaptnn.softagg import _segment_soft_agg, _topk_means


def test_topk_smallest_examples():
    assert topk_avg_smallest([3, 1, 2], 2) == 1.5
    assert topk_avg_smallest([5], 1) == 5
    assert topk_avg_smallest([4, 4, 4, 1], 3) == 3.0


def test_topk_largest_examples():
    assert topk_avg_largest([3, 1, 2], 2) == 2.5
    assert topk_avg_largest([1, 1], 2) == 1.0
    assert topk_avg_largest([-1, 0, 7], 1) == 7


def test_topk_k_out_of_range():
    with pytest.raises(ValueError):
        topk_avg_smallest([1, 2], 0)
    with pytest.raises(ValueError):
        topk_avg_smallest([1, 2], 3)
    with pytest.raises(ValueError):
        topk_avg_largest([1, 2], 5)


def test_fractional_k_is_a_value_error():
    # a fractional K used to reach np.partition and raise its TypeError
    for call in (lambda: topk_avg_smallest([1.0, 2.0, 3.0], 1.5),
                 lambda: topk_avg_largest([1.0, 2.0, 3.0], 1.5),
                 lambda: solve_gamma_star([1.0, 2.0, 3.0], 1.5, "smallest"),
                 lambda: solve_gamma_star([1.0, 2.0, 3.0], 1.5, "largest")):
        with pytest.raises(ValueError, match="K must be an integer >= 1, got 1.5"):
            call()
    with pytest.raises(ValueError, match=r"K must be in \[1, 2\], got 3"):
        topk_avg_smallest([1, 2], 3)


def test_topk_means_sums_each_row_left_to_right():
    # the same bits for a row alone, in a C- or F-ordered block and from a
    # plain left-to-right sum, at k below and past the 8 entries from which
    # a numpy sum over a row may go pairwise
    rng = np.random.default_rng(19)
    block = rng.uniform(0, 10, size=(5, 40))
    for k in (1, 2, 7, 8, 9, 33, 40):
        expected = [functools.reduce(operator.add, row[:k].tolist()) / k
                    for row in block]
        for p in (block, np.asfortranarray(block)):
            assert _topk_means(p, k).tolist() == expected
        assert [_topk_means(block[i:i + 1], k)[0] for i in range(5)] == expected


def test_topk_ties_broken_by_value():
    # multiplicity of the value decides, not position
    assert topk_avg_smallest([4, 1, 4, 4], 3) == pytest.approx((1 + 4 + 4) / 3)


def test_soft_agg_constant_list_collapses():
    for gamma in (5.0, -5.0, 1e-7, 1e7):
        assert soft_agg([2.7, 2.7, 2.7], gamma) == pytest.approx(2.7, abs=1e-12)


def test_soft_agg_mean_limit():
    assert soft_agg([1, 2, 3], 1e-8) == pytest.approx(2.0, abs=1e-6)


def test_soft_agg_finite_gamma_exact_value():
    # At gamma=1e3 the aggregate sits ln(n)/gamma above the minimum (the
    # non-minimal terms underflow, leaving -ln(1/n)/gamma); the limit laws
    # only promise min/max as gamma -> +-inf.
    expected = 1.0 + math.log(3) / 1e3
    assert soft_agg([1, 2, 3], 1e3) == pytest.approx(expected, abs=1e-12)
    assert soft_agg([1, 2, 3], -1e3) == pytest.approx(3.0 - math.log(3) / 1e3, abs=1e-12)


def test_soft_agg_min_max_convergence():
    # ln(n)/gamma bias below 1e-6 requires gamma >= ln(n)/1e-6
    v = [1.0, 2.0, 3.0]
    assert soft_agg(v, 1e8) == pytest.approx(1.0, abs=1e-6)
    assert soft_agg(v, -1e8) == pytest.approx(3.0, abs=1e-6)


def test_soft_agg_errors():
    with pytest.raises(ValueError):
        soft_agg([], 1.0)
    with pytest.raises(ValueError):
        soft_agg([1.0, 2.0], 0.0)
    with pytest.raises(ValueError):
        soft_agg([1.0, np.inf], 1.0)


@pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf])
def test_soft_agg_rejects_non_finite_gamma(gamma):
    # each used to return nan with only a RuntimeWarning
    with pytest.raises(ValueError, match="gamma must be finite, got %s" % gamma):
        soft_agg([1.0, 2.0, 5.0], gamma)


def test_soft_agg_no_overflow_at_extreme_gamma():
    v = [1e8, -1e8, 3.0]
    for gamma in (1e6, -1e6, 1e-12, -1e-12):
        b = soft_agg(v, gamma)
        assert np.isfinite(b)
        assert -1e8 <= b <= 1e8


def test_soft_agg_bounds_property():
    rng = np.random.default_rng(42)
    for _ in range(100):
        v = rng.uniform(-50, 50, size=rng.integers(1, 12))
        gamma = rng.choice([-1, 1]) * 10.0 ** rng.uniform(-6, 6)
        b = soft_agg(v, gamma)
        assert v.min() - 1e-12 <= b <= v.max() + 1e-12


def test_soft_agg_strictly_decreasing_in_gamma():
    rng = np.random.default_rng(7)
    for _ in range(20):
        v = rng.uniform(-5, 5, size=rng.integers(2, 10))
        if v.min() == v.max():
            continue
        gammas = np.linspace(-20, 20, 41)
        gammas = gammas[gammas != 0]
        vals = [soft_agg(v, g) for g in gammas]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_segment_soft_agg_mirror_is_bitwise():
    # b(-a; -q) = -b(a; q) with the same softmax terms, bit for bit: the
    # farthest side is the nearest side of the negated list
    rng = np.random.default_rng(13)
    alphas = [s * 2.0 ** k for s in (1.0, -1.0) for k in range(-9, 11)]
    for _ in range(40):
        counts = rng.integers(1, 9, size=rng.integers(1, 6))
        ptr = np.concatenate(([0], np.cumsum(counts)))
        q = rng.uniform(0, 20, size=ptr[-1])
        for a in alphas:
            b, e, total = _segment_soft_agg(q, a, ptr, counts)
            mb, me, mtotal = _segment_soft_agg(-q, -a, ptr, counts)
            assert mb.tobytes() == (-b).tobytes()
            assert me.tobytes() == e.tobytes()
            assert mtotal.tobytes() == total.tobytes()


def test_largest_is_smallest_of_negated_values():
    rng = np.random.default_rng(17)
    for _ in range(20):
        v = np.unique(rng.uniform(-6, 6, size=rng.integers(2, 10)))
        for k in range(1, v.size + 1):
            assert topk_avg_largest(v, k) == -topk_avg_smallest(-v, k)
            g = solve_gamma_star(v, k, "largest")
            assert g == -solve_gamma_star(-v, k, "smallest")


def test_soft_agg_shift_equivariance():
    rng = np.random.default_rng(3)
    for _ in range(50):
        v = rng.uniform(-5, 5, size=6)
        c = rng.uniform(-10, 10)
        g = rng.choice([-1, 1]) * 10.0 ** rng.uniform(-3, 3)
        assert soft_agg(v + c, g) == pytest.approx(soft_agg(v, g) + c, abs=1e-12 * (1 + abs(c) + np.abs(v).max()))


def test_solver_example_smallest():
    v = [1.0, 2.0, 3.0, 4.0]
    g = solve_gamma_star(v, 2, "smallest")
    assert g > 0
    assert abs(soft_agg(v, g) - 1.5) <= 1e-8 * (1 + 1.5)


def test_solver_example_largest():
    v = [1.0, 2.0, 3.0, 4.0]
    g = solve_gamma_star(v, 2, "largest")
    assert g < 0
    assert abs(soft_agg(v, g) - 3.5) <= 1e-8 * (1 + 3.5)


def test_solver_constant_list_sentinel():
    assert solve_gamma_star([4.0, 4.0, 4.0], 2, "smallest") == 0.0
    assert solve_gamma_star([4.0, 4.0, 4.0], 1, "largest") == 0.0


def test_solver_k_equals_n_sentinel():
    # target is the plain mean, attained only in the gamma -> 0 limit
    assert solve_gamma_star([1.0, 2.0, 5.0], 3, "smallest") == 0.0
    assert solve_gamma_star([1.0, 2.0, 5.0], 3, "largest") == 0.0
    # both modes return +0.0, not -0.0
    assert math.copysign(1.0, solve_gamma_star([1.0, 2.0, 5.0], 3, "largest")) == 1.0


def test_solver_bad_mode_and_k():
    with pytest.raises(ValueError):
        solve_gamma_star([1.0, 2.0], 1, "middle")
    with pytest.raises(ValueError):
        solve_gamma_star([1.0, 2.0], 3, "smallest")


def test_solver_consistency_property():
    # plugging gamma* back into soft_agg reproduces the exact top-K average
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 13))
        v = np.unique(rng.uniform(-6, 6, size=n))
        n = v.size
        if n < 2:
            continue
        for k in range(1, n):
            for mode, oracle in (("smallest", topk_avg_smallest),
                                 ("largest", topk_avg_largest)):
                target = oracle(v, k)
                g = solve_gamma_star(v, k, mode)
                assert np.isfinite(g), (v, k, mode)
                assert abs(soft_agg(v, g) - target) <= 1e-8 * (1 + abs(target))
                if mode == "smallest":
                    assert g > 0
                else:
                    assert g < 0
