"""End-to-end coverage for the attribute pathway and the grid worker pool."""
import json

import numpy as np
import pytest

from kgalign.cli import main
from kgalign.datasets import DatasetDescriptor, load
from kgalign.runner import RunConfig, run_grid, run_single


@pytest.fixture
def attr_dataset(jape_style_dir):
    # two shared predicates plus a side-specific one
    (jape_style_dir / "attrs_1").write_text(
        "10\tpopulation\n10\tarea\n11\tpopulation\n12\tarea\n13\televation\n",
        encoding="utf-8",
    )
    (jape_style_dir / "attrs_2").write_text(
        "20\tpopulation\n21\tpopulation\n22\tarea\n23\televation\n",
        encoding="utf-8",
    )
    return jape_style_dir


def attr_config(root, **overrides):
    flat = {
        "dataset.family": "dbp15k-jape",
        "dataset.subset": "zh-en",
        "dataset.root": str(root),
        "encoder.dim": 8,
        "encoder.n_layers": 2,
        "training.optimizer": "adam",
        "training.learning_rate": 0.5,
        "training.n_negatives": 2,
        "training.n_epochs": 40,
        "score.beta": 0.7,
        "attribute_margin": 1.0,
        "train_fraction": 0.5,
        "val_fraction": 0.5,
        "seed": 0,
    }
    flat.update(overrides)
    return RunConfig.from_flat(flat)


def test_attribute_tables_loaded(attr_dataset):
    pair = load(DatasetDescriptor("dbp15k-jape", "zh-en", root_path=attr_dataset))
    assert pair.attributes_left is not None
    assert pair.attributes_left.attribute_dim == pair.attributes_right.attribute_dim == 3
    assert pair.attributes_left.features.sum() == 5.0


def test_blended_run_trains_attribute_pathway(tmp_path, attr_dataset):
    cfg = attr_config(attr_dataset)
    result = run_single(cfg, tmp_path)
    assert result.test is not None
    report = json.loads((result.run_dir / "report.json").read_text())
    assert report["config"]["score.beta"] == 0.7
    assert report["config"]["attribute_margin"] == 1.0
    # both pathways persisted
    with np.load(result.run_dir / "state.npz") as data:
        assert "features_left" in data
        assert "attr_features_left" in data
        assert data["attr_features_left"].shape == (4, 3)


def test_blended_run_deterministic(tmp_path, attr_dataset):
    cfg = attr_config(attr_dataset)
    a = run_single(cfg, tmp_path / "a")
    b = run_single(cfg, tmp_path / "b")
    assert a.test.to_dict() == b.test.to_dict()


def test_evaluate_cli_uses_attribute_state(tmp_path, attr_dataset, capsys):
    cfg = attr_config(attr_dataset)
    result = run_single(cfg, tmp_path)
    assert main(["evaluate", str(result.run_dir)]) == 0
    out = capsys.readouterr().out
    assert "H@1" in out
    written = json.loads(
        (result.run_dir / "evaluation-test-only-test.json").read_text()
    )
    # identical protocol re-applied to the persisted state reproduces the report
    assert written == result.test.to_dict()


def test_evaluate_cli_reproduces_blended_report_test_block(tmp_path, attr_dataset, capsys):
    result = run_single(attr_config(attr_dataset), tmp_path)
    assert main(["evaluate", str(result.run_dir)]) == 0
    written = json.loads((result.run_dir / "evaluation-test-only-test.json").read_text())
    report = json.loads((result.run_dir / "report.json").read_text())
    assert written == report["test"]


def test_grid_with_worker_pool_matches_sequential(tmp_path):
    flat = {
        "dataset.family": "toy",
        "dataset.subset": "cycle-8-4",
        "encoder.dim": 8,
        "training.learning_rate": 0.5,
        "training.n_negatives": 2,
        "training.n_epochs": 20,
        "train_fraction": 0.5,
        "val_fraction": 0.5,
        "seed": 0,
    }
    base = RunConfig.from_flat(flat)
    axes = {"training.n_epochs": [10, 20]}
    seq = run_grid(base, tmp_path / "seq", axes=axes, workers=1)
    par = run_grid(base, tmp_path / "par", axes=axes, workers=2)
    assert seq.n_runs == par.n_runs == 8
    assert seq.n_failures == par.n_failures == 0
    for cell, cfg in seq.best_per_cell.items():
        assert par.best_per_cell[cell].run_hash() == cfg.run_hash()
    # per-run reports are identical regardless of executor
    for cfg in seq.best_per_cell.values():
        h = RunConfig.from_flat({**cfg.to_flat(), "save_state": False,
                                 "evaluate_test": False}).run_hash()
        a = (tmp_path / "seq" / h / "report.json").read_bytes()
        b = (tmp_path / "par" / h / "report.json").read_bytes()
        assert a == b
