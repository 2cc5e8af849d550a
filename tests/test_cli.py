import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import adaptnn
from adaptnn import Dataset, save
from adaptnn.cli import main


def _write_toy_setup(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(30, 2)) + 4.0 * (np.arange(30) % 2)[:, None]
    ds = Dataset(X, 1 + np.arange(30) % 2)
    save(ds, tmp_path / "toy.csv")
    (tmp_path / "registry.cfg").write_text("toy = toy.csv delimited\n")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "dataset = toy\n"
        "registry = registry.cfg\n"
        "method = euclidean_baseline\n"
        "alpha_grid = 1\n"
        "gamma_grid = 1\n"
        "k_grid = 1 3\n"
        "repetitions = 2\n"
        "seed = 3\n")
    return cfg


def test_run_and_report_subcommands(tmp_path, capsys):
    cfg = _write_toy_setup(tmp_path)
    out = tmp_path / "report.jsonl"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.exists() and (tmp_path / "report.jsonl.curves").exists()
    assert main(["report", "--in", str(out)]) == 0
    text = capsys.readouterr().out
    assert "euclidean_baseline" in text and "mean=" in text


def test_run_seed_override(tmp_path):
    from adaptnn import parse_report

    cfg = _write_toy_setup(tmp_path)
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["run", "--config", str(cfg), "--seed", "99", "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg), "--seed", "99", "--out", str(out2)]) == 0
    r1, r2 = parse_report(out1)[0], parse_report(out2)[0]
    assert r1.accuracies == r2.accuracies  # wall time may differ, results not
    assert r1.acc_by_k == r2.acc_by_k


def test_run_rejects_negative_seed_before_running(tmp_path):
    cfg = _write_toy_setup(tmp_path)
    out = tmp_path / "report.jsonl"
    with pytest.raises(ValueError, match="seed must be an integer >= 0, got -1"):
        main(["run", "--config", str(cfg), "--seed", "-1", "--out", str(out)])
    assert not out.exists()


def test_module_entry_point_lists_subcommands():
    # `python -m adaptnn` runs __main__.py against the same package import
    src = Path(adaptnn.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-m", "adaptnn", "--help"], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert "{run,report}" in out.stdout
    assert "selftest" not in out.stdout
