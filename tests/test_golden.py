"""Fixed-seed regression anchor: two reduced shipped configs must reproduce
their full records exactly.

The expected values are the records these configs produce at their fixed
seed. Any refactor of the harness, classifier or optimizer must leave them
bit-identical; a change that alters them is a change of results, not a
refactor. Both configs have two grid cells, so the cross-validated
selection runs rather than short-circuiting on a single cell.
"""

import dataclasses
from pathlib import Path

import pytest

from adaptnn import load_config, run_experiment

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

K_GRID = (1, 4, 7, 10, 13, 16, 19, 22, 25, 28, 31, 34, 37, 40, 43, 46)

IRIS_PLUS = {
    "alpha": 4.0, "gamma": 1.0, "k": 16,
    "accuracies": [0.9777777777777777, 1.0],
    "mean": 0.9888888888888889,
    "std": 0.015713484026367745,
    "acc_by_k": dict(zip(K_GRID, [
        0.9666666666666667, 0.9555555555555555, 0.9555555555555555,
        0.9666666666666667, 0.9666666666666667, 0.9777777777777777,
        0.9777777777777777, 0.9777777777777777, 0.9777777777777777,
        0.9666666666666667, 0.9444444444444444, 0.9222222222222223,
        0.9222222222222223, 0.9222222222222223, 0.9222222222222223,
        0.9222222222222223])),
}

WINE_MINUS = {
    "alpha": -1.0, "gamma": 1.0, "k": 4,
    "accuracies": [0.9811320754716981],
    "mean": 0.9811320754716981,
    "std": 0.0,
    "acc_by_k": dict(zip(K_GRID, [
        0.9433962264150944, 0.9811320754716981, 0.9811320754716981,
        0.9811320754716981, 0.9811320754716981, 0.9811320754716981,
        0.9811320754716981, 0.9811320754716981, 0.9811320754716981,
        0.9811320754716981, 0.9811320754716981, 0.9622641509433962,
        0.9622641509433962, 0.9622641509433962, 0.9433962264150944,
        0.9622641509433962])),
}

CASES = {
    "iris_ann_plus": (dict(repetitions=2, alpha_grid=(1.0, 4.0),
                           gamma_grid=(1.0,)), IRIS_PLUS),
    "wine_ann_minus": (dict(repetitions=1, alpha_grid=(-1.0, -4.0),
                            gamma_grid=(1.0,)), WINE_MINUS),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_reduced_config_record_is_unchanged(name):
    overrides, expected = CASES[name]
    cfg = dataclasses.replace(load_config(CONFIGS / (name + ".cfg")), **overrides)
    assert cfg.k_grid == K_GRID
    rec = run_experiment(cfg)[0]
    got = {"alpha": rec.alpha, "gamma": rec.gamma, "k": rec.k,
           "accuracies": rec.accuracies, "mean": rec.mean, "std": rec.std,
           "acc_by_k": rec.acc_by_k}
    assert got == expected
