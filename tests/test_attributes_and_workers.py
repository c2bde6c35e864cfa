"""End-to-end coverage for the attribute pathway and the grid worker pool."""
import hashlib
import json

import numpy as np
import pytest

from kgalign.cli import main
from kgalign.datasets import ATTRIBUTE_VOCABULARY_SIZE, DatasetDescriptor, load
from kgalign.runner import RunConfig, run_grid, run_single

from conftest import write_dataset


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


def test_evaluate_blend_state_without_attribute_arrays_names_both_files(
        tmp_path, attr_dataset, capsys):
    result = run_single(attr_config(attr_dataset), tmp_path)
    state_path = result.run_dir / "state.npz"
    with np.load(state_path) as data:
        arrays = {k: data[k] for k in data.files if not k.startswith("attr_")}
    np.savez(state_path, **arrays)
    assert main(["evaluate", str(result.run_dir)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "config", "message": (
        f"{state_path} does not fit {result.run_dir / 'config.txt'}: "
        "pathways: 1 in the state, 2 in the config")}
    assert not (result.run_dir / "evaluation-test-only-test.json").exists()


def test_evaluate_blend_run_whose_dataset_lost_its_tables_says_so(tmp_path, attr_dataset, capsys):
    result = run_single(attr_config(attr_dataset), tmp_path)
    for name in ("attrs_1", "attrs_2"):
        (attr_dataset / name).unlink()
    assert main(["evaluate", str(result.run_dir)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "config",
                   "message": "score.beta < 1 but the dataset has no attribute tables"}
    assert not (result.run_dir / "evaluation-test-only-test.json").exists()


def test_weighted_blend_run_outputs_keep_their_bits(tmp_path, attr_dataset, capsys):
    # the weighted variant puts attr_weight_<layer> through the archive
    _check_weighted_blend_bits(tmp_path, attr_dataset, "unit",
                               ["5f199ee261028b6d", "c451ee4e31e6d0ea", "7102c4773d33b497"])


def test_weighted_blend_run_outputs_keep_their_bits_under_scaled_init(tmp_path, attr_dataset, capsys):
    # unit's std is 1.0 already; under scaled, the attribute pathway's
    # std differs from the structure's, yet its tables replace the drawn
    # features and a normal draw takes the same bits at any std
    _check_weighted_blend_bits(tmp_path, attr_dataset, "scaled",
                               ["5748a260a8560ff7", "6b3f42452359195f", "a12bceaab80b50f4"])


def _check_weighted_blend_bits(tmp_path, attr_dataset, init, expected):
    """A weighted blend run under init gives the expected digests of its
    loss trace, report metrics and state.npz, and evaluate reproduces
    its test block."""
    overrides = {"encoder.use_weights": True, "encoder.init": init}
    result = run_single(attr_config(attr_dataset, **overrides), tmp_path)
    report = json.loads((result.run_dir / "report.json").read_text())
    metrics = json.dumps([report[k] for k in ("validation", "test", "final_loss")], sort_keys=True)
    with np.load(result.run_dir / "state.npz") as data:
        assert {"attr_weight_0", "attr_weight_1"} <= set(data.files)
        arrays = b"".join(name.encode() + data[name].tobytes() for name in sorted(data.files))
    digests = [hashlib.sha256(blob).hexdigest()[:16] for blob in (
        (result.run_dir / "loss_trace.tsv").read_bytes(), metrics.encode(), arrays)]
    assert digests == expected
    assert main(["evaluate", str(result.run_dir)]) == 0
    written = json.loads((result.run_dir / "evaluation-test-only-test.json").read_text())
    assert written == report["test"]


def test_attribute_listed_twice_counts_once(attr_dataset):
    with (attr_dataset / "attrs_1").open("a", encoding="utf-8") as f:
        f.write("10\tpopulation\n")
    pair = load(DatasetDescriptor("dbp15k-jape", "zh-en", root_path=attr_dataset))
    column = pair.attributes_left.column_labels.index("population")
    assert pair.attributes_left.features[0, column] == 1.0
    assert pair.attributes_left.features.sum() == 5.0


def _blend_pair(root, n=300):
    """A dbp15k-jape subset of two aligned n-entity graphs whose left
    side lists more distinct predicates than ATTRIBUTE_VOCABULARY_SIZE,
    most of them once, so the cut falls among frequency ties; entity 0
    lists one predicate twice. Built by arithmetic alone, so its bytes
    do not depend on a random generator."""
    n_left_predicates = ATTRIBUTE_VOCABULARY_SIZE + 200
    edges = [(i, i % 3, (i * 7 + 3) % n) for i in range(n)] + [(i, 3, i + 1) for i in range(n - 1)]
    attrs_1 = [(k % n, f"lp{k}") for k in range(n_left_predicates)]
    attrs_1 += [(e, f"lp{(e * e) % 50}") for e in range(n)] + [(0, "lp7")]
    attrs_2 = [(1000 + (k * 13) % n, f"rp{k}") for k in range(800)]
    attrs_2 += [(1000 + e, f"lp{(e * e + 1) % 60}") for e in range(n)]
    attrs_2 += [(1005, "lp999"), (1006, "lp998")]  # cut on the left, kept on the right
    return write_dataset(
        root,
        triples_1=edges,
        triples_2=[(1000 + h, 10 + r, 1000 + t) for h, r, t in edges],
        ents_1=[(i, f"e:{i}") for i in range(n)],
        ents_2=[(1000 + i, f"f:{i}") for i in range(n)],
        rels_1=[(r, f"r:{r}") for r in range(4)],
        rels_2=[(10 + r, f"s:{r}") for r in range(4)],
        files={
            "sup_ent_ids": [(i, 1000 + i) for i in range(0, n, 2)],
            "ref_ent_ids": [(i, 1000 + i) for i in range(1, n, 2)],
            "attrs_1": attrs_1,
            "attrs_2": attrs_2,
        },
    )


def test_blend_run_outputs_keep_their_bits(tmp_path):
    root = _blend_pair(tmp_path / "pair")
    pair = load(DatasetDescriptor("dbp15k-jape", "zh-en", root_path=root))
    labels = pair.attributes_left.column_labels
    assert pair.attributes_left.attribute_dim == len(labels) == 1802
    assert labels.index("lp999") >= ATTRIBUTE_VOCABULARY_SIZE
    assert pair.attributes_left.features[0, labels.index("lp7")] == 1.0
    cfg = attr_config(root, **{"training.n_epochs": 5, "training.n_negatives": 5,
                               "score.beta": 0.9, "save_state": True})
    result = run_single(cfg, tmp_path / "runs")
    report = json.loads((result.run_dir / "report.json").read_text())
    metrics = json.dumps([report[k] for k in ("validation", "test", "final_loss")], sort_keys=True)
    with np.load(result.run_dir / "state.npz") as data:
        arrays = b"".join(name.encode() + data[name].tobytes() for name in sorted(data.files))
    digests = [hashlib.sha256(blob).hexdigest()[:16] for blob in (
        (result.run_dir / "loss_trace.tsv").read_bytes(), metrics.encode(), arrays)]
    # taken before the tables were held sparse
    assert digests == ["c057a2f4e3921027", "069841e4b5299838", "cb4c237ab6c06cf6"]


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
