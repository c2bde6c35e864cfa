import gc
import hashlib
import json
import re
import shutil
import warnings
import zipfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from kgalign.adjacency import build_adjacency
from kgalign.configfile import format_config, parse_config_text
from kgalign.datasets import DatasetDescriptor
from kgalign.encoder import EmbeddingState
from kgalign.errors import ConfigError
from kgalign.presets import ABLATION_CELLS, tuned_hyperparameters
from kgalign.runner import (
    DEFAULT_GRID_AXES,
    RunConfig,
    _save_state,
    ablation_table,
    apply_overrides,
    enumerate_grid,
    evaluate_run,
    load_state,
    prepare_pair,
    run_ablation,
    run_grid,
    run_single,
    write_atomic,
)

from conftest import write_dataset


def toy_config(**overrides):
    flat = {
        "dataset.family": "toy",
        "dataset.subset": "cycle-8-4",
        "encoder.dim": 16,
        "encoder.n_layers": 2,
        "encoder.use_weights": False,
        "encoder.init": "unit",
        "training.optimizer": "adam",
        "training.learning_rate": 0.5,
        "training.n_negatives": 2,
        "training.n_epochs": 120,
        "training.margin": 3.0,
        "seed": 0,
        "n_seeds": 2,
    }
    flat.update(overrides)
    return RunConfig.from_flat(flat)


def test_config_flat_roundtrip():
    cfg = toy_config()
    again = RunConfig.from_flat(cfg.to_flat())
    assert again == cfg
    assert again.run_hash() == cfg.run_hash()


def test_config_text_roundtrip():
    cfg = toy_config()
    text = cfg.canonical_text()
    parsed = RunConfig.from_flat(parse_config_text(text))
    assert parsed == cfg


def test_config_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config keys"):
        RunConfig.from_flat({**toy_config().to_flat(), "typo.key": 1})


def test_config_requires_dataset():
    with pytest.raises(ConfigError, match="dataset.family"):
        RunConfig.from_flat({})


def test_configfile_parse_errors():
    with pytest.raises(ConfigError, match="expected"):
        parse_config_text("just a line")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("a.b = 1\na.b = 2")
    parsed = parse_config_text("x = 2  # comment\n# full comment\n\ny = true\ngrid.z = 1,  b ")
    assert parsed == {"x": "2", "y": "true", "grid.z": ["1", "b"]}  # typed by the fields they set


def test_format_config_is_sorted_and_stable():
    text = format_config({"b": 1.5, "a": True, "c": "s"})
    assert text == "a = true\nb = 1.5\nc = s\n"


def test_run_single_persists_artifacts(tmp_path):
    cfg = toy_config()
    result = run_single(cfg, tmp_path)
    assert result.run_dir.is_dir()
    assert (result.run_dir / "config.txt").is_file()
    assert (result.run_dir / "loss_trace.tsv").is_file()
    assert (result.run_dir / "state.npz").is_file()
    report = json.loads((result.run_dir / "report.json").read_text())
    assert report["config"] == {
        k: v for k, v in cfg.to_flat().items()
    }
    assert report["test"]["directions"]["left_to_right"]["n_test"] == 4
    states = load_state(result.run_dir / "state.npz")
    assert states[0].features_left.shape == (8, 16)
    assert len(states) == 1  # no attribute state


def test_run_single_resumes_from_cache(tmp_path):
    cfg = toy_config()
    first = run_single(cfg, tmp_path)
    second = run_single(cfg, tmp_path)
    assert not first.resumed and second.resumed
    assert second.test.to_dict() == first.test.to_dict()


def test_run_single_force_recomputes_identically(tmp_path):
    cfg = toy_config()
    first = run_single(cfg, tmp_path)
    report_bytes = (first.run_dir / "report.json").read_bytes()
    second = run_single(cfg, tmp_path, force=True)
    assert not second.resumed
    assert (second.run_dir / "report.json").read_bytes() == report_bytes


def test_run_zero_epochs_reports_random_init_metrics(tmp_path):
    cfg = toy_config(**{"training.n_epochs": 0})
    result = run_single(cfg, tmp_path)
    assert result.final_loss is None

    # the report must equal a direct evaluation of the random init
    from dataclasses import replace

    from kgalign.adjacency import build_adjacency
    from kgalign.encoder import forward, init_state
    from kgalign.evaluation import evaluate
    from kgalign.graphs import Role
    from kgalign.runner import _derive_seeds, prepare_pair

    pair = prepare_pair(cfg)
    enc_seed = _derive_seeds(cfg.seed, 4)[0]
    enc_cfg = replace(cfg.encoder, seed=enc_seed)
    state = init_state(enc_cfg, 8, 8)
    adjs = (build_adjacency(pair.left, cfg.adjacency),
            build_adjacency(pair.right, cfg.adjacency))
    out_l, out_r, _ = forward(*adjs, state, enc_cfg)
    expected = evaluate(out_l, out_r, pair, cfg.score, split=Role.TEST)
    assert result.test.to_dict() == expected.to_dict()


def attributeless_blend(root):
    """A score.beta < 1 config of the dataset directory root, which holds
    no attribute tables: it fails at run time, before training."""
    return toy_config(**{"dataset.family": "dbp15k-jape", "dataset.subset": "zh-en",
                         "dataset.root": str(root), "score.beta": 0.5})


def test_run_single_persists_failure_record(tmp_path, jape_style_dir):
    cfg = attributeless_blend(jape_style_dir)
    with pytest.raises(ConfigError):
        run_single(cfg, tmp_path)
    record = json.loads((tmp_path / cfg.run_hash() / "error.json").read_text())
    assert record["category"] == "config"
    assert "attribute" in record["message"]


def test_attribute_less_dataset_fails_before_training(tmp_path, jape_style_dir, monkeypatch):
    from kgalign import runner

    def train(*args, **kwargs):
        raise AssertionError("trained before the attribute tables were checked")

    monkeypatch.setattr(runner, "start", train)
    cfg = attributeless_blend(jape_style_dir)
    with pytest.raises(ConfigError, match="attribute"):
        run_single(cfg, tmp_path)
    assert (tmp_path / cfg.run_hash() / "error.json").is_file()


@pytest.mark.parametrize("kept", [{"save_state": True}, {"evaluate_test": True},
                                  {"val_fraction": 0.5}], ids=["state", "test", "validation"])
def test_run_without_validation_pairs_must_keep_something_else(tmp_path, monkeypatch, kept):
    from kgalign import runner

    # round(0.1 * 4 train pairs) = 0 validation pairs
    nothing = {"val_fraction": 0.1, "save_state": False, "evaluate_test": False,
               "training.n_epochs": 3}
    monkeypatch.setattr(runner, "start", lambda *a: pytest.fail("trained a run that keeps nothing"))
    cfg = toy_config(**nothing)
    with pytest.raises(ConfigError, match=r"^val_fraction = 0.1 leaves no validation pairs"):
        run_single(cfg, tmp_path)
    record = json.loads((tmp_path / cfg.run_hash() / "error.json").read_text())
    assert record["category"] == "config" and "val_fraction" in record["message"]
    monkeypatch.undo()
    assert run_single(toy_config(**{**nothing, **kept}), tmp_path).final_loss is not None


def _functionality_pair(root):
    """A dbp15k-jape subset of two 24-entity graphs whose relations have
    functionality scores below and above the clamp floor: a hub out
    of entity 0 (fun 1/12), a hub into entity 13 (ifun 1/10), a chain
    and a two-tailed relation (fun 1/2). The right graph is the left one
    relabeled by e -> 5e mod 24. Built by arithmetic alone."""
    n = 24
    edges = [(0, 0, t) for t in range(1, 13)] + [(h, 1, 13) for h in range(14, n)]
    edges += [(i, 2, i + 1) for i in range(n - 1)]
    edges += [(i, 3, (i * k + 2) % n) for i in range(0, n, 3) for k in (5, 7)]
    right = [(100 + h * 5 % n, 10 + r, 100 + t * 5 % n) for h, r, t in edges]
    return write_dataset(
        root,
        triples_1=edges,
        triples_2=right,
        ents_1=[(i, f"e:{i}") for i in range(n)],
        ents_2=[(100 + i * 5 % n, f"f:{i}") for i in range(n)],
        rels_1=[(r, f"r:{r}") for r in range(4)],
        rels_2=[(10 + r, f"s:{r}") for r in range(4)],
        files={
            "sup_ent_ids": [(i, 100 + i * 5 % n) for i in range(0, n, 2)],
            "ref_ent_ids": [(i, 100 + i * 5 % n) for i in range(1, n, 2)],
        },
    )


def test_weighted_functionality_clamp_run_outputs_keep_their_bits(tmp_path):
    # the adjacency grid-small trains on, under the weighted encoder
    root = _functionality_pair(tmp_path / "pair")
    cfg = toy_config(**{"dataset.family": "dbp15k-jape", "dataset.subset": "zh-en",
                        "dataset.root": str(root), "adjacency.variant": "functionality",
                        "adjacency.clamp": True, "encoder.use_weights": True,
                        "training.n_epochs": 40})
    pair = prepare_pair(cfg)
    unclamped = replace(cfg.adjacency, clamp=False)
    for g in (pair.left, pair.right):  # the floor changes both matrices
        assert (build_adjacency(g, cfg.adjacency) != build_adjacency(g, unclamped)).nnz > 0
    result = run_single(cfg, tmp_path / "runs")
    report = json.loads((result.run_dir / "report.json").read_text())
    metrics = json.dumps([report[k] for k in ("validation", "test", "final_loss")], sort_keys=True)
    with np.load(result.run_dir / "state.npz") as data:
        assert {"weight_0", "weight_1"} <= set(data.files)
        arrays = b"".join(name.encode() + data[name].tobytes() for name in sorted(data.files))
    digests = [hashlib.sha256(blob).hexdigest()[:16] for blob in (
        (result.run_dir / "loss_trace.tsv").read_bytes(), metrics.encode(), arrays)]
    # taken while the scores were floored inside compute_functionality
    assert digests == ["8ffda84c32a945fc", "35019982a608e533", "0a8b1f9bb9dc795e"]
    assert evaluate_run(result.run_dir)[0].to_dict() == report["test"]


def _edit_report(text, edit):
    data = json.loads(text)
    edit(data)
    return json.dumps(data)


@pytest.mark.parametrize(
    "damage, reason",
    [
        (lambda text: text[: len(text) // 2], "cannot be read"),
        (lambda text: text.replace('"format": 1', '"format": 0'), "format"),
        (lambda text: "[]\n", "not a report object"),
        (lambda text: _edit_report(text, lambda d: d.pop("test")), "not a complete report"),
        (lambda text: _edit_report(text, lambda d: d.update(validation=[1])), "not a complete report"),
    ],
    ids=["truncated", "other-format", "list", "no-test-key", "validation-not-mapping"],
)
def test_run_single_recomputes_unusable_report(tmp_path, damage, reason):
    cfg = toy_config()
    first = run_single(cfg, tmp_path)
    report_path = first.run_dir / "report.json"
    good = report_path.read_text(encoding="utf-8")
    report_path.write_text(damage(good), encoding="utf-8")
    with pytest.warns(UserWarning, match=reason):
        second = run_single(cfg, tmp_path)
    assert not second.resumed
    assert report_path.read_text(encoding="utf-8") == good
    assert second.test.to_dict() == first.test.to_dict()


@pytest.mark.parametrize(
    "damage",
    [
        lambda d: [],
        lambda d: {k: v for k, v in d.items() if k != "test"},
        lambda d: {**d, "validation": "not a mapping"},
    ],
    ids=["list", "no-test-key", "validation-not-mapping"],
)
def test_grid_resume_recomputes_incomplete_report(tmp_path, damage):
    base = toy_config(**{"training.n_epochs": 5})
    axes = {"training.n_epochs": [5]}
    first = run_grid(base, tmp_path, axes=axes)
    ledger = first.leaderboard_path.read_text(encoding="utf-8")
    report_path = next(tmp_path.glob("*/report.json"))
    good = report_path.read_text(encoding="utf-8")
    report_path.write_text(json.dumps(damage(json.loads(good))), encoding="utf-8")
    with pytest.warns(UserWarning, match="recomputing the run"):
        again = run_grid(base, tmp_path, axes=axes)
    assert again.n_failures == 0
    assert not (report_path.parent / "error.json").exists()
    assert report_path.read_text(encoding="utf-8") == good
    assert again.leaderboard_path.read_text(encoding="utf-8") == ledger


def test_run_single_validates_the_pair_once(tmp_path, monkeypatch):
    from kgalign import graphs

    calls = []
    real = graphs.validate_pair

    def counting(pair):
        calls.append(pair)
        return real(pair)

    monkeypatch.setattr(graphs, "validate_pair", counting)
    run_single(toy_config(), tmp_path)
    assert len(calls) == 1


def _record_renames(monkeypatch) -> list[str]:
    """Names of the files moved into place by os.replace from now on."""
    import os

    renamed, real_replace = [], os.replace

    def replace(src, dst):
        renamed.append(Path(dst).name)
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    return renamed


def test_run_single_leaves_only_its_artifacts(tmp_path, monkeypatch):
    renamed = _record_renames(monkeypatch)
    result = run_single(toy_config(), tmp_path)
    names = sorted(p.name for p in result.run_dir.iterdir())
    assert names == ["config.txt", "loss_trace.tsv", "report.json", "state.npz"]
    # every artifact, the saved state included, is written atomically
    assert sorted(renamed) == names


def test_grid_and_evaluate_leave_no_temp_files(tmp_path, capsys, monkeypatch):
    from kgalign.cli import main

    renamed = _record_renames(monkeypatch)
    # the val_fraction = 0.1 runs have no validation pairs and fail, so
    # every atomically written file kind appears: report, error record,
    # grid_best.json, the saved state, the evaluate command's output
    # and the ablation table
    base = toy_config(**{"train_fraction": 0.5, "val_fraction": 0.5,
                         "training.n_epochs": 5})
    result = run_grid(base, tmp_path / "grid", axes={"val_fraction": [0.5, 0.1]})
    assert result.n_failures == 4
    run_dir = run_single(toy_config(), tmp_path / "single").run_dir
    assert main(["evaluate", str(run_dir)]) == 0
    config = tmp_path / "ablate.cfg"
    config.write_text(toy_config(**{"training.n_epochs": 5}).canonical_text(), encoding="utf-8")
    assert main(["ablate", str(config), "--runs-root", str(tmp_path / "ablate"),
                 "--seeds", "1"]) == 0
    capsys.readouterr()
    names = {p.name for p in tmp_path.rglob("*")}
    atomic = {"config.txt", "loss_trace.tsv", "state.npz", "report.json", "error.json",
              "grid_best.json", "evaluation-test-only-test.json", "ablation.json",
              "ablation.txt"}
    assert atomic <= names
    assert set(renamed) == atomic
    assert [n for n in names if n.endswith(".tmp")] == []


@pytest.mark.parametrize(
    "exc", [OSError(28, "No space left on device"), KeyboardInterrupt()], ids=["disk-full", "ctrl-c"]
)
def test_write_atomic_failure_keeps_old_file_and_no_temp(tmp_path, exc):
    target = tmp_path / "state.npz"
    target.write_bytes(b"old")

    def writer(f):
        f.write(b"part")
        raise exc

    with pytest.raises(type(exc)):
        write_atomic(target, writer)
    assert target.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["state.npz"]


def test_run_single_recomputes_report_of_another_run(tmp_path):
    # a run directory copied under the hash of another config: its
    # report belongs to the run it was copied from
    trained = run_single(toy_config(**{"training.n_epochs": 20}), tmp_path / "a")
    cfg = toy_config(**{"training.n_epochs": 0})
    expected = run_single(cfg, tmp_path / "b")
    shutil.copytree(trained.run_dir, tmp_path / "c" / cfg.run_hash())
    with pytest.warns(UserWarning, match="run_hash"):
        result = run_single(cfg, tmp_path / "c")
    assert not result.resumed
    assert result.test.to_dict() == expected.test.to_dict()
    assert result.test.to_dict() != trained.test.to_dict()
    assert json.loads((result.run_dir / "report.json").read_text())["run_hash"] == cfg.run_hash()


@pytest.mark.parametrize("weighted, with_attr", [(False, False), (True, False), (True, True)])
def test_state_roundtrip_keeps_keys_and_arrays(tmp_path, weighted, with_attr):
    rng = np.random.default_rng(0)

    def state(dim, n_layers):
        return EmbeddingState(
            features_left=rng.normal(size=(5, dim)),
            features_right=rng.normal(size=(6, dim)),
            weights=[rng.normal(size=(dim, dim)) for _ in range(n_layers)] if weighted else [],
        )

    saved = [state(4, 3), state(2, 2)] if with_attr else [state(4, 3)]
    path = tmp_path / "state.npz"
    _save_state(path, saved)
    keys = {"features_left", "features_right"}
    keys |= {f"weight_{i}" for i in range(3)} if weighted else set()
    if with_attr:
        keys |= {"attr_features_left", "attr_features_right", "attr_weight_0", "attr_weight_1"}
    with np.load(path) as data:
        assert set(data.files) == keys
    loaded = load_state(path)
    assert len(loaded) == len(saved)  # no attribute state unless one was saved
    for before, after in zip(saved, loaded):
        assert len(after.weights) == len(before.weights)
        for a, b in zip(before.parameters(), after.parameters(), strict=True):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_state_archive_is_stored_and_a_compressed_one_loads_alike(tmp_path):
    # deflating float embeddings saves a few percent of the bytes at many
    # times the time, so state.npz is stored; the compressed archives of
    # older run directories still load to the same bits
    rng = np.random.default_rng(0)
    saved = EmbeddingState(rng.normal(size=(5, 4)), rng.normal(size=(6, 4)),
                           [rng.normal(size=(4, 4)) for _ in range(2)])
    attr = EmbeddingState(rng.normal(size=(5, 2)), rng.normal(size=(6, 2)))
    stored, compressed = tmp_path / "stored.npz", tmp_path / "compressed.npz"
    _save_state(stored, [saved, attr])
    with np.load(stored) as data:
        np.savez_compressed(compressed, **data)
    for path, kind in ((stored, zipfile.ZIP_STORED), (compressed, zipfile.ZIP_DEFLATED)):
        with zipfile.ZipFile(path) as archive:
            assert {info.compress_type for info in archive.infolist()} == {kind}
    (a, a_attr), (b, b_attr) = (load_state(path) for path in (stored, compressed))
    for x, y in zip([*a.parameters(), *a_attr.parameters()],
                    [*b.parameters(), *b_attr.parameters()], strict=True):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


def test_load_state_closes_a_truncated_archive(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "state.npz"
    _save_state(path, [EmbeddingState(rng.normal(size=(5, 4)), rng.normal(size=(6, 4)))])
    path.write_bytes(path.read_bytes()[:300])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ConfigError, match="not a complete state archive"):
            load_state(path)
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_error_record_carries_traceback(tmp_path, monkeypatch):
    import kgalign.runner as runner

    cfg = toy_config()

    def broken_prepare_pair(_cfg):
        raise RuntimeError("dataset went away")

    monkeypatch.setattr(runner, "prepare_pair", broken_prepare_pair)
    with pytest.raises(RuntimeError):
        run_single(cfg, tmp_path)
    record = json.loads((tmp_path / cfg.run_hash() / "error.json").read_text())
    assert sorted(record) == ["category", "config", "message", "traceback"]
    assert record["category"] == "internal"
    assert record["message"] == "dataset went away"
    assert record["config"] == cfg.to_flat()
    assert "in broken_prepare_pair" in record["traceback"]
    assert record["traceback"].endswith("RuntimeError: dataset went away\n")


def test_run_single_clears_stale_error_record(tmp_path, monkeypatch):
    import kgalign.runner as runner

    cfg = toy_config()

    def broken(_cfg):
        raise RuntimeError("dataset went away")

    monkeypatch.setattr(runner, "prepare_pair", broken)
    with pytest.raises(RuntimeError):
        run_single(cfg, tmp_path)
    error_path = tmp_path / cfg.run_hash() / "error.json"
    assert json.loads(error_path.read_text())["category"] == "internal"
    monkeypatch.undo()
    result = run_single(cfg, tmp_path, force=True)
    assert not error_path.exists()
    assert (result.run_dir / "report.json").is_file()


def test_failed_forced_rerun_does_not_leave_stale_report(tmp_path, monkeypatch):
    import kgalign.runner as runner

    cfg = toy_config()
    first = run_single(cfg, tmp_path)

    def broken(_cfg):
        raise RuntimeError("dataset went away")

    monkeypatch.setattr(runner, "prepare_pair", broken)
    with pytest.raises(RuntimeError):
        run_single(cfg, tmp_path, force=True)
    assert not (first.run_dir / "report.json").exists()
    assert (first.run_dir / "error.json").is_file()
    monkeypatch.undo()
    assert run_single(cfg, tmp_path).resumed is False


def test_different_seeds_get_different_run_dirs(tmp_path):
    a = toy_config(seed=0)
    b = toy_config(seed=1)
    assert a.run_hash() != b.run_hash()


def test_enumerate_default_grid_cardinality():
    cfg = toy_config()
    configs = enumerate_grid(cfg, DEFAULT_GRID_AXES)
    assert len(configs) == 1440
    assert len({c.run_hash() for c in configs}) == 1440


def test_enumerate_grid_single_point_gives_one_per_cell():
    cfg = toy_config()
    configs = enumerate_grid(cfg, {"training.n_epochs": [5]})
    assert len(configs) == 4
    cells = {(c.encoder.use_weights, c.encoder.init) for c in configs}
    assert cells == set(ABLATION_CELLS)


def test_enumerate_grid_empty_axis_rejected():
    with pytest.raises(ConfigError, match="empty"):
        enumerate_grid(toy_config(), {"training.n_epochs": []})


@pytest.mark.parametrize("key, values", [
    ("training.learning_rate", [1, 1.0]),
    ("training.n_epochs", [5, 5.0]),
    ("encoder.init", ["unit", "scaled", "unit"]),
])
def test_enumerate_grid_rejects_an_axis_with_equal_typed_values(key, values):
    with pytest.raises(ConfigError, match=f"grid axis '{key}' repeats a value"):
        enumerate_grid(toy_config(), {key: values, "training.optimizer": ["adam", "sgd"]})


def test_run_grid_selects_best_and_writes_leaderboard(tmp_path):
    base = toy_config(
        **{
            "dataset.subset": "cycle-8-4",
            "train_fraction": 0.5,
            "val_fraction": 0.5,
            "training.n_epochs": 40,
        }
    )
    axes = {"training.learning_rate": [0.05, 0.5]}
    result = run_grid(base, tmp_path, axes=axes)
    assert result.n_runs == 8
    assert result.n_failures == 0
    assert set(result.best_per_cell) == set(ABLATION_CELLS)
    lines = result.leaderboard_path.read_text().strip().split("\n")
    assert len(lines) == 9  # header + 8 runs
    best_file = json.loads((tmp_path / "grid_best.json").read_text())
    assert len(best_file) == 4
    # best configs are re-runnable with full evaluation enabled
    for cfg in result.best_per_cell.values():
        assert cfg.evaluate_test and cfg.save_state


def test_run_grid_records_failures_and_continues(tmp_path):
    # val_fraction = 0.1 leaves the toy no validation pairs, which fails
    # at run time, so half the grid fails while the other half still
    # gets selected
    base = toy_config(**{"train_fraction": 0.5, "val_fraction": 0.5,
                         "training.n_epochs": 5})
    axes = {"val_fraction": [0.5, 0.1]}
    result = run_grid(base, tmp_path, axes=axes)
    assert result.n_failures == 4  # the val_fraction = 0.1 run of every cell
    assert set(result.best_per_cell) == set(ABLATION_CELLS)
    failed_lines = [
        line for line in result.leaderboard_path.read_text().splitlines()
        if "ConfigError" in line
    ]
    assert len(failed_lines) == 4


def test_run_single_recomputes_save_state_run_without_state(tmp_path):
    cfg = toy_config()
    first = run_single(cfg, tmp_path)
    report = (first.run_dir / "report.json").read_bytes()
    (first.run_dir / "state.npz").unlink()
    with pytest.warns(UserWarning, match="no state.npz"):
        second = run_single(cfg, tmp_path)
    assert not second.resumed
    assert (second.run_dir / "state.npz").is_file()
    assert (second.run_dir / "report.json").read_bytes() == report
    assert run_single(cfg, tmp_path).resumed


def _count_prepare_pair(monkeypatch) -> list:
    """The configs runner.prepare_pair is called with from now on."""
    import kgalign.runner as runner

    calls = []
    real = runner.prepare_pair

    def counting(cfg):
        calls.append(cfg)
        return real(cfg)

    monkeypatch.setattr(runner, "prepare_pair", counting)
    return calls


def test_grid_prepares_shared_inputs_once(tmp_path, monkeypatch):
    calls = _count_prepare_pair(monkeypatch)
    base = toy_config(**{"train_fraction": 0.5, "val_fraction": 0.5, "training.n_epochs": 5})
    result = run_grid(base, tmp_path, axes={"training.learning_rate": [0.05, 0.5]})
    assert result.n_runs == 8 and result.n_failures == 0
    assert len(calls) == 1


def test_grid_runs_with_another_split_or_adjacency_get_their_own_inputs(tmp_path, monkeypatch):
    calls = _count_prepare_pair(monkeypatch)
    base = toy_config(**{"train_fraction": 0.5, "val_fraction": 0.5, "training.n_epochs": 5})
    axes = {"split_seed": [0, 1], "adjacency.variant": ["count", "functionality"]}
    result = run_grid(base, tmp_path / "grid", axes=axes)
    # the one kept entry changes with every run, in enumeration order
    assert len(calls) == result.n_runs == 16
    monkeypatch.undo()
    # each report is the one the run gives with inputs built for it alone
    for cfg in enumerate_grid(base, axes):
        fresh = run_single(cfg, tmp_path / "fresh")
        shared = tmp_path / "grid" / cfg.run_hash() / "report.json"
        assert shared.read_bytes() == (fresh.run_dir / "report.json").read_bytes()


def test_grid_worker_prepares_inputs_once_per_process(tmp_path, monkeypatch):
    import functools
    import multiprocessing
    import os

    import kgalign.runner as runner

    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the fork start method is unavailable")
    # forked workers inherit the counting prepare_pair; each call appends
    # its process id
    log = tmp_path / "prepared.txt"
    real = runner.prepare_pair

    def counting(cfg):
        with open(log, "a", encoding="utf-8") as f:
            f.write(f"{os.getpid()}\n")
        return real(cfg)

    monkeypatch.setattr(runner, "prepare_pair", counting)
    monkeypatch.setattr(runner, "ProcessPoolExecutor", functools.partial(
        runner.ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")))
    base = toy_config(**{"train_fraction": 0.5, "val_fraction": 0.5, "training.n_epochs": 5})
    result = run_grid(base, tmp_path / "runs", axes={"training.learning_rate": [0.05, 0.5]},
                      workers=2)
    assert result.n_failures == 0
    pids = log.read_text(encoding="utf-8").split()
    assert 1 <= len(pids) <= 2 and len(set(pids)) == len(pids)
    assert str(os.getpid()) not in pids


def test_shared_adjacencies_are_read_only(tmp_path, monkeypatch):
    import kgalign.runner as runner

    cfg = toy_config()
    # the runs of one executor in this process get the same inputs
    monkeypatch.setattr(runner, "run_single", lambda cfg, runs_root: runner.prepare_run(cfg))
    (_, (pair, adjacencies)), (_, (_, again)) = runner._execute("grid", [cfg, cfg], tmp_path, 1)
    assert again is adjacencies
    for adj in adjacencies:
        for arr in (adj.data, adj.indices, adj.indptr):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[0]
    assert not pair.left.triples.flags.writeable
    # a run outside a grid or an ablation builds its own, writable inputs
    _, fresh = runner.prepare_run(cfg)
    assert fresh[0] is not adjacencies[0] and fresh[0].data.flags.writeable


def test_grid_prepare_failure_records_every_run(tmp_path, monkeypatch):
    import kgalign.runner as runner
    from kgalign.errors import DataFormatError

    calls = []

    def broken(cfg):
        calls.append(cfg)
        raise DataFormatError("triples_1 went away")

    monkeypatch.setattr(runner, "prepare_pair", broken)
    base = toy_config(**{"training.n_epochs": 5})
    result = run_grid(base, tmp_path, axes={"training.learning_rate": [0.05, 0.5]})
    assert result.n_failures == result.n_runs == 8
    assert len(calls) == 8  # a failed build is not kept
    rows = result.leaderboard_path.read_text(encoding="utf-8").splitlines()[1:]
    assert len(rows) == 8
    assert all(row.endswith("DataFormatError: triples_1 went away") for row in rows)
    for cfg in enumerate_grid(base, {"training.learning_rate": [0.05, 0.5]}):
        record = json.loads((tmp_path / cfg.run_hash() / "error.json").read_text())
        assert record["category"] == "dataset"
    assert json.loads((tmp_path / "grid_best.json").read_text()) == {}


def _chain_config(root, **overrides):
    return RunConfig.from_flat({
        "dataset.family": "dbp15k-jape",
        "dataset.subset": "zh-en",
        "dataset.root": str(root),
        "encoder.dim": 8,
        "training.n_negatives": 2,
        "training.n_epochs": 5,
        "val_fraction": 0.5,
        "n_seeds": 1,
        **overrides,
    })


@pytest.mark.parametrize("command", ["grid", "ablation"])
def test_dataset_rewritten_between_calls_is_read_again(tmp_path, monkeypatch, command):
    from conftest import jape_chain

    import kgalign.runner as runner

    root = jape_chain(tmp_path / "data", 6)
    cfg = _chain_config(root)
    sizes = []
    real = runner.prepare_pair

    def recording(cfg):
        pair = real(cfg)
        sizes.append(pair.left.entity_count)
        return pair

    monkeypatch.setattr(runner, "prepare_pair", recording)
    for n, runs in ((6, "first"), (10, "second")):
        jape_chain(root, n)
        if command == "grid":
            run_grid(cfg, tmp_path / runs, axes={"training.learning_rate": [0.5]})
        else:
            run_ablation(cfg, [cfg.dataset], tmp_path / runs, use_tuned=False)
    assert sizes == [6, 10]


def test_sharing_ends_with_serial_grid_and_ablation(tmp_path, jape_style_dir, monkeypatch):
    import kgalign.runner as runner

    seen = []
    real = runner.run_single

    def spying(cfg, runs_root, force=False):
        seen.append(runner._shared is not None)
        return real(cfg, runs_root, force)

    monkeypatch.setattr(runner, "run_single", spying)
    base = toy_config(**{"training.n_epochs": 5})
    run_grid(base, tmp_path / "grid", axes={"training.n_epochs": [5]})
    assert runner._shared is None
    run_ablation(base, [base.dataset], tmp_path / "ablation", n_seeds=1)
    assert runner._shared is None
    assert seen == [True] * 8

    # and when they raise: beta < 1 fails on a dataset without attribute tables
    bad = attributeless_blend(jape_style_dir)
    with pytest.raises(ConfigError, match="attribute"):
        run_ablation(bad, [bad.dataset], tmp_path / "bad")
    assert runner._shared is None

    def interrupted(cfg, runs_root, force=False):
        raise KeyboardInterrupt  # not caught by the executor

    monkeypatch.setattr(runner, "run_single", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_grid(base, tmp_path / "grid", axes={"training.n_epochs": [5]})
    assert runner._shared is None


def test_grid_prints_one_progress_line_per_run(tmp_path, capsys):
    base = toy_config(**{"train_fraction": 0.5, "val_fraction": 0.5, "training.n_epochs": 5})
    result = run_grid(base, tmp_path, axes={"val_fraction": [0.5, 0.1]})
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == result.n_runs == 8
    failed = 0
    for done, (line, row) in enumerate(
        zip(lines, result.leaderboard_path.read_text().splitlines()[1:]), start=1
    ):
        failed += row.endswith("loss trace")
        assert line.startswith(f"grid: {done}/8 runs, {failed} failed, ")
        assert "s elapsed, ETA " in line and line.endswith("s")
    assert failed == result.n_failures == 4



def test_grid_eta_weighs_the_epochs_left(tmp_path, monkeypatch, capsys):
    import time

    import kgalign.runner as runner

    # a job takes 10 s per epoch of its largest run; the runs of the
    # 4-epoch job arrive together, 40 s in, and 1 epoch is left
    clock = [100.0]
    monkeypatch.setattr(time, "perf_counter", lambda: clock[0])
    real = runner._run_job

    def timed(job, runs_root):
        clock[0] += 10.0 * job[-1].training.n_epochs
        return real(job, runs_root)

    monkeypatch.setattr(runner, "_run_job", timed)
    base = toy_config(**{"train_fraction": 0.5, "val_fraction": 0.5})
    configs = [
        apply_overrides(base, {"training.n_epochs": 1}),
        apply_overrides(base, {"training.n_epochs": 4}),
        apply_overrides(base, {"training.n_epochs": 1, "training.learning_rate": 0.05}),
    ]
    assert all(not isinstance(o, Exception) for _, o in runner._execute("grid", configs, tmp_path, 1))
    assert capsys.readouterr().err.splitlines() == [
        "grid: 1/3 runs, 0 failed, 40.0s elapsed, ETA 10.0s",
        "grid: 2/3 runs, 0 failed, 40.0s elapsed, ETA 10.0s",
        "grid: 3/3 runs, 0 failed, 50.0s elapsed, ETA 0.0s",
    ]


@pytest.mark.parametrize("workers, n_jobs, pool", [(8, 2, (2, 4)), (8, 1, (1, 8)), (3, 2, (2, 4))],
                         ids=["8-workers-2-jobs", "8-workers-1-job", "3-workers-2-jobs"])
def test_pool_has_at_most_one_worker_per_job(tmp_path, monkeypatch, workers, n_jobs, pool):
    import functools
    import multiprocessing
    import os

    import kgalign.runner as runner

    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the fork start method is unavailable")
    pools = []
    fork_pool = functools.partial(
        runner.ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork"))

    def recording(max_workers, initializer, initargs):
        pools.append((max_workers, initargs))
        return fork_pool(max_workers=max_workers, initializer=initializer, initargs=initargs)

    monkeypatch.setattr(runner, "ProcessPoolExecutor", recording)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    base = toy_config(**{"train_fraction": 0.5, "val_fraction": 0.5, "training.n_epochs": 5})
    configs = [apply_overrides(base, {"training.learning_rate": lr}) for lr in (0.05, 0.5)[:n_jobs]]
    outcomes = [o for _, o in runner._execute("grid", configs, tmp_path, workers)]
    assert len(outcomes) == n_jobs and not any(isinstance(o, Exception) for o in outcomes)
    max_workers, share = pool
    assert pools == [(max_workers, (share,))]


def _fake_libc(monkeypatch, log: Path, mallopt_returns: int | None):
    """Patch ctypes so that the process's own libc is a fake: its mallopt
    appends "<pid> <param> <value>" to log and returns mallopt_returns,
    and it has no mallopt where that is None. Forked workers inherit it."""
    import ctypes
    import os
    import types

    real = ctypes.CDLL

    def mallopt(param, value):
        with open(log, "a", encoding="utf-8") as f:
            f.write(f"{os.getpid()} {param} {value}\n")
        return mallopt_returns

    def cdll(name, *args, **kwargs):
        if name is not None:
            return real(name, *args, **kwargs)
        return types.SimpleNamespace(**({} if mallopt_returns is None else {"mallopt": mallopt}))

    monkeypatch.setattr(ctypes, "CDLL", cdll)


def _logged_mallopt_calls(log: Path) -> list[tuple[str, int, int]]:
    if not log.exists():
        return []
    return [(pid, int(param), int(value))
            for pid, param, value in (line.split() for line in log.read_text().splitlines())]


def _init_worker_here(monkeypatch, share: int = 1):
    """runner._init_worker(share) in this process, its settings undone after."""
    import kgalign.parallel as parallel
    import kgalign.runner as runner

    monkeypatch.setattr(parallel, "_process_share", None)
    monkeypatch.setattr(runner, "_shared", None)
    runner._init_worker(share)


# M_MMAP_THRESHOLD at 32 MiB, then M_TRIM_THRESHOLD at 64 MiB; a worker
# of more threads keeps glibc's own, or its helper threads' malloc arenas
# would keep what they free
@pytest.mark.parametrize("share, calls", [(1, [(-3, 32 << 20), (-1, 64 << 20)]), (2, [])],
                         ids=["one-thread", "two-threads"])
def test_worker_initializer_pins_the_malloc_thresholds(tmp_path, monkeypatch, share, calls):
    log = tmp_path / "mallopt.log"
    _fake_libc(monkeypatch, log, mallopt_returns=1)
    _init_worker_here(monkeypatch, share)
    assert [call[1:] for call in _logged_mallopt_calls(log)] == calls


@pytest.mark.parametrize("mallopt_returns", [None, 0], ids=["no-mallopt", "mallopt-refuses"])
def test_worker_initializer_runs_where_libc_has_no_mallopt_or_refuses_it(
        tmp_path, monkeypatch, mallopt_returns):
    log = tmp_path / "mallopt.log"
    _fake_libc(monkeypatch, log, mallopt_returns)
    _init_worker_here(monkeypatch)
    # a refused call ends the helper: the trim threshold is not tried
    expected = [] if mallopt_returns is None else [(-3, 32 << 20)]
    assert [call[1:] for call in _logged_mallopt_calls(log)] == expected


def test_only_grid_workers_call_mallopt(tmp_path, monkeypatch):
    import functools
    import multiprocessing
    import os

    import kgalign.runner as runner

    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the fork start method is unavailable")
    log = tmp_path / "mallopt.log"
    _fake_libc(monkeypatch, log, mallopt_returns=1)
    # train, evaluate and a one-worker grid run in this process and keep
    # its allocator as it is
    cfg = toy_config(**{"training.n_epochs": 5})
    run_single(cfg, tmp_path / "runs")
    runner.evaluate_run(tmp_path / "runs" / cfg.run_hash(), "all-entities")
    base = toy_config(**{"train_fraction": 0.5, "val_fraction": 0.5, "training.n_epochs": 5})
    axes = {"training.learning_rate": [0.05, 0.5]}
    run_grid(base, tmp_path / "serial", axes=axes, workers=1)
    assert _logged_mallopt_calls(log) == []
    # each one-thread worker of a pool makes the two calls, once
    monkeypatch.setattr(runner, "ProcessPoolExecutor", functools.partial(
        runner.ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    run_grid(base, tmp_path / "pool", axes=axes, workers=2)
    calls = _logged_mallopt_calls(log)
    pids = sorted({pid for pid, _, _ in calls})
    assert 1 <= len(pids) <= 2 and str(os.getpid()) not in pids
    assert sorted(calls) == sorted((pid, param, value) for pid in pids
                                   for param, value in ((-3, 32 << 20), (-1, 64 << 20)))


def test_forkserver_grid_matches_serial_grid(tmp_path, monkeypatch):
    import functools
    import multiprocessing

    import kgalign.runner as runner

    if "forkserver" not in multiprocessing.get_all_start_methods():
        pytest.skip("the forkserver start method is unavailable")
    base = toy_config(**{"train_fraction": 0.5, "val_fraction": 0.5, "training.n_epochs": 20})
    axes = {"training.learning_rate": [0.05, 0.5], "split_seed": [0, 1]}
    run_grid(base, tmp_path / "serial", axes=axes)
    monkeypatch.setattr(runner, "ProcessPoolExecutor", functools.partial(
        runner.ProcessPoolExecutor, mp_context=multiprocessing.get_context("forkserver")))
    run_grid(base, tmp_path / "pool", axes=axes, workers=2)
    for name in ("leaderboard.tsv", "grid_best.json"):
        assert (tmp_path / "pool" / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()


def test_pool_failures_match_serial_grid(tmp_path):
    # val_fraction = 0.1 leaves the toy no validation pairs: the pool
    # workers send those runs' exceptions back, and they land on the
    # same ledger rows
    base = toy_config(**{"train_fraction": 0.5, "val_fraction": 0.5, "training.n_epochs": 5})
    axes = {"val_fraction": [0.5, 0.1]}
    for workers in (1, 2):
        result = run_grid(base, tmp_path / str(workers), axes=axes, workers=workers)
        assert result.n_failures == 4
    for name in ("leaderboard.tsv", "grid_best.json"):
        assert (tmp_path / "2" / name).read_bytes() == (tmp_path / "1" / name).read_bytes()
    rows = (tmp_path / "2" / "leaderboard.tsv").read_text(encoding="utf-8").splitlines()[1:]
    assert sum(row.endswith("ConfigError: val_fraction = 0.1 leaves no validation pairs, and "
                            "with save_state and evaluate_test off the run would keep only its "
                            "loss trace") for row in rows) == 4


def test_run_ablation_aggregates_match_persisted_reports(tmp_path):
    base = toy_config(**{"training.n_epochs": 60})
    desc = DatasetDescriptor("toy", "cycle-8-4")
    cells = run_ablation(base, [desc], tmp_path, n_seeds=2)
    assert len(cells) == 4
    for cell in cells:
        assert cell["n_seeds"] == 2
        # recompute the aggregate from the persisted per-seed reports
        h1 = []
        for run_hash in cell["run_hashes"]:
            report = json.loads((tmp_path / run_hash / "report.json").read_text())
            h1.append(report["test"]["directions"]["left_to_right"]["hits_at"]["1"])
        agg = cell["aggregates"]["left_to_right"]["h1"]
        assert agg["mean"] == pytest.approx(float(np.mean(h1)))
        assert agg["std"] == pytest.approx(float(np.std(h1, ddof=1)))


def test_ablation_single_seed_omits_std(tmp_path):
    base = toy_config(**{"training.n_epochs": 30})
    desc = DatasetDescriptor("toy", "cycle-6-3")
    cells = run_ablation(base, [desc], tmp_path, n_seeds=1)
    assert len(cells) == 4
    assert all(cell["aggregates"]["left_to_right"]["h1"]["std"] is None for cell in cells)
    table = ablation_table(cells)
    assert "+-" not in table
    assert "no-weights/unit" in table


def test_ablation_table_contains_all_cells(tmp_path):
    base = toy_config(**{"training.n_epochs": 30})
    desc = DatasetDescriptor("toy", "cycle-6-3")
    cells = run_ablation(base, [desc], tmp_path, n_seeds=2)
    table = ablation_table(cells)
    for header in ("no-weights/unit", "no-weights/scaled", "weights/unit", "weights/scaled"):
        assert header in table
    for metric in ("[H@1]", "[H@10]", "[MR]", "[MRR]"):
        assert metric in table


def _column_edges(line):
    """Where each column of a table line starts (the first) or ends."""
    spans = [m.span() for m in re.finditer(r"\S+(?: \S+)*", line)]
    return [spans[0][0]] + [end for _, end in spans[1:]]


def test_ablation_table_widens_a_column_for_a_wide_entry():
    def cell(dataset, use_weights, mr, mr_std):
        one = {"mean": 50.0, "std": 1.0}
        metrics = {"h1": one, "h10": one, "mr": {"mean": mr, "std": mr_std}, "mrr": one}
        return {"use_weights": use_weights, "init_preset": "unit", "dataset": dataset,
                "n_seeds": 2, "run_hashes": [], "aggregates": {"left_to_right": metrics}}

    # "12345.68 +- 1234.50" is 19 characters, one more than the column floor
    cells = [cell("toy:cycle-8-4", False, 1.0, 0.0), cell("toy:cycle-8-4", True, 2.0, 0.5),
             cell("dwy100k:dbp-wd", False, 12345.678, 1234.5), cell("dwy100k:dbp-wd", True, 812.0, 3.0)]
    blocks = ablation_table(cells).split("\n\n")
    assert [b.splitlines()[0] for b in blocks[:4]] == [
        "[H@1] (left_to_right)", "[H@10] (left_to_right)", "[MR] (left_to_right)",
        "[MRR] (left_to_right)",
    ]
    for block in blocks[:4]:
        lines = block.splitlines()[1:]
        assert len(lines) == 3
        assert len({tuple(_column_edges(line)) for line in lines}) == 1, block
    mr = blocks[2].splitlines()
    assert "12345.68 +- 1234.50" in mr[3]
    # the wide column is one wider than in a block without a wide entry
    assert _column_edges(mr[1])[1] == _column_edges(blocks[0].splitlines()[1])[1] + 1


def test_tuned_hyperparameters_resolution():
    base = tuned_hyperparameters("dbp15k-jape", "zh-en", False, "unit")
    assert base == {
        "training.optimizer": "adam",
        "training.n_negatives": 50,
        "training.n_epochs": 2000,
        "encoder.n_layers": 2,
        "training.learning_rate": 1.0,
    }
    scaled = tuned_hyperparameters("dbp15k-jape", "zh-en", False, "scaled")
    assert scaled["training.optimizer"] == "sgd"
    assert scaled["training.n_negatives"] == 100
    assert scaled["training.n_epochs"] == 3000
    finetuned = tuned_hyperparameters("wk3l-15k", "en-fr", False, "unit")
    assert finetuned["training.learning_rate"] == 10.0


def test_apply_overrides_creates_new_config():
    cfg = toy_config()
    out = apply_overrides(cfg, {"training.n_epochs": 7})
    assert out.training.n_epochs == 7
    assert cfg.training.n_epochs == 120


# ---- epoch siblings: configs that differ only in training.n_epochs ----

EPOCH_AXES = {"training.optimizer": ["adam", "sgd"], "training.n_epochs": [0, 1, 3, 5]}


@pytest.fixture
def blend_base(jape_style_dir):
    """An attribute-blend (score.beta < 1) base over a tiny pair."""
    (jape_style_dir / "attrs_1").write_text(
        "10\tpopulation\n11\tarea\n12\tarea\n13\televation\n", encoding="utf-8")
    (jape_style_dir / "attrs_2").write_text(
        "20\tpopulation\n21\tarea\n22\tpopulation\n23\televation\n", encoding="utf-8")
    return RunConfig.from_flat({
        "dataset.family": "dbp15k-jape",
        "dataset.subset": "zh-en",
        "dataset.root": str(jape_style_dir),
        "encoder.dim": 8,
        "training.learning_rate": 0.5,
        "training.n_negatives": 2,
        "score.beta": 0.7,
        "val_fraction": 0.5,
    })


def _alone(monkeypatch):
    """From now on every run of an executor is a job of its own."""
    import kgalign.runner as runner

    monkeypatch.setattr(runner, "_jobs", lambda configs: [[i] for i in range(len(configs))])


def _files(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


def test_epoch_siblings_give_the_bytes_of_runs_alone(tmp_path, monkeypatch, blend_base):
    import functools
    import multiprocessing

    import kgalign.runner as runner

    run_grid(blend_base, tmp_path / "serial", axes=EPOCH_AXES)
    run_grid(blend_base, tmp_path / "pool", axes=EPOCH_AXES, workers=2)
    if "forkserver" in multiprocessing.get_all_start_methods():
        with monkeypatch.context() as m:
            m.setattr(runner, "ProcessPoolExecutor", functools.partial(
                runner.ProcessPoolExecutor, mp_context=multiprocessing.get_context("forkserver")))
            run_grid(blend_base, tmp_path / "forkserver", axes=EPOCH_AXES, workers=2)
    _alone(monkeypatch)
    run_grid(blend_base, tmp_path / "alone", axes=EPOCH_AXES)
    alone = _files(tmp_path / "alone")
    assert sum(name.endswith("/loss_trace.tsv") for name in alone) == 32
    assert b"ConfigError" not in alone["leaderboard.tsv"]
    for root in tmp_path.iterdir():
        if root.name != "alone" and root.name != "zh_en":
            assert _files(root) == alone, root.name
    assert runner._carried is None


def test_epoch_siblings_train_once_to_their_largest_count(tmp_path, monkeypatch):
    from kgalign import training

    epochs = []
    real = training.sample_negatives

    def counting(*args, **kwargs):
        epochs.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(training, "sample_negatives", counting)
    result = run_grid(toy_config(), tmp_path, axes=EPOCH_AXES)
    assert result.n_runs == 32 and result.n_failures == 0
    # 8 jobs of the epoch counts {0, 1, 3, 5} train 5 epochs each, not 9
    assert len(epochs) == 8 * 5


def test_grid_calls_run_single_once_per_config(tmp_path, monkeypatch):
    import kgalign.runner as runner

    calls = []
    real = runner.run_single

    def counting(cfg, runs_root, force=False):
        calls.append(cfg.run_hash())
        return real(cfg, runs_root, force)

    monkeypatch.setattr(runner, "run_single", counting)
    base = toy_config(**{"train_fraction": 0.5, "val_fraction": 0.5})
    result = run_grid(base, tmp_path, axes=EPOCH_AXES)
    assert sorted(calls) == sorted(c.run_hash() for c in enumerate_grid(base, EPOCH_AXES))
    assert len(set(calls)) == len(calls) == result.n_runs == 32


def test_a_sibling_failing_mid_trajectory_fails_as_alone(tmp_path, monkeypatch):
    from kgalign import training
    from kgalign.errors import NumericError

    real = training.optimizer_step

    def failing_at_epoch_2(params, grads, state, cfg, context=""):
        if context == "epoch 2":
            raise NumericError(f"non-finite gradient in parameter 0 ({context})")
        return real(params, grads, state, cfg, context)

    monkeypatch.setattr(training, "optimizer_step", failing_at_epoch_2)
    base = toy_config(**{"train_fraction": 0.5, "val_fraction": 0.5})
    shared = run_grid(base, tmp_path / "shared", axes=EPOCH_AXES)
    _alone(monkeypatch)
    alone = run_grid(base, tmp_path / "alone", axes=EPOCH_AXES)
    # the runs of 3 and 5 epochs fail, those of 0 and 1 succeed
    assert shared.n_failures == alone.n_failures == 16
    for cfg in enumerate_grid(base, EPOCH_AXES):
        run_dirs = [tmp_path / root / cfg.run_hash() for root in ("shared", "alone")]
        if cfg.training.n_epochs < 3:
            assert all((d / "report.json").is_file() for d in run_dirs)
            continue
        messages = [json.loads((d / "error.json").read_text())["message"] for d in run_dirs]
        assert messages[0] == messages[1] == "non-finite gradient in parameter 0 (epoch 2)"
    for name in ("leaderboard.tsv", "grid_best.json"):
        assert (tmp_path / "shared" / name).read_bytes() == (tmp_path / "alone" / name).read_bytes()


def test_a_sibling_failing_after_training_hands_on_its_trajectory(tmp_path, monkeypatch):
    import kgalign.runner as runner
    from kgalign import training
    from kgalign.errors import NumericError

    n_epochs = []
    real_prepare, real_evaluate = runner.prepare_run, runner.evaluate

    def failing_after_3_epochs(*args, **kwargs):
        if n_epochs[-1] == 3:
            raise NumericError("evaluation failed after 3 epochs")
        return real_evaluate(*args, **kwargs)

    epochs = []
    real_sample = training.sample_negatives
    monkeypatch.setattr(runner, "prepare_run",
                        lambda cfg: n_epochs.append(cfg.training.n_epochs) or real_prepare(cfg))
    monkeypatch.setattr(runner, "evaluate", failing_after_3_epochs)
    monkeypatch.setattr(training, "sample_negatives",
                        lambda *args: epochs.append(1) or real_sample(*args))
    base = toy_config(**{"train_fraction": 0.5, "val_fraction": 0.5})
    axes = {"training.n_epochs": [0, 1, 3, 5]}
    shared = run_grid(base, tmp_path / "shared", axes=axes)
    # the 3-epoch run fails with its trajectory whole, so the 5-epoch run
    # continues it: each job trains 5 epochs, not 1 + 2 + 5
    assert len(epochs) == 4 * 5
    _alone(monkeypatch)
    alone = run_grid(base, tmp_path / "alone", axes=axes)
    assert shared.n_failures == alone.n_failures == 4
    assert _files(tmp_path / "shared") == _files(tmp_path / "alone")


def _report_stamps(root: Path) -> dict:
    return {p.parent.name: (p.stat().st_mtime_ns, p.read_bytes())
            for p in root.glob("*/report.json")}


@pytest.mark.parametrize("deleted, trained", [
    # its siblings are served from their reports, so it trains from epoch 0
    ((5,), 5),
    # the run of 1 epoch hands its trajectory past the resumed run of 3
    # to the run of 5, which trains the 4 epochs left
    ((1, 5), 5),
])
def test_deleted_reports_recompute_only_their_runs(tmp_path, monkeypatch, deleted, trained):
    from kgalign import training

    base = toy_config(**{"train_fraction": 0.5, "val_fraction": 0.5})
    axes = {"training.n_epochs": [0, 1, 3, 5]}
    run_grid(base, tmp_path, axes=axes)
    before = _report_stamps(tmp_path)
    gone = sorted(c.run_hash() for c in enumerate_grid(base, axes)
                  if c.training.n_epochs in deleted)
    for run_hash in gone:
        (tmp_path / run_hash / "report.json").unlink()

    epochs = []
    real = training.sample_negatives
    monkeypatch.setattr(training, "sample_negatives",
                        lambda *args: epochs.append(1) or real(*args))
    run_grid(base, tmp_path, axes=axes)
    after = _report_stamps(tmp_path)
    assert after.keys() == before.keys() and len(after) == 16
    assert sorted(h for h in after if after[h] != before[h]) == gone
    assert all(after[h][1] == before[h][1] for h in gone)
    assert len(epochs) == 4 * trained


class TwoArgumentError(Exception):
    """An exception that does not unpickle: pickle calls the class with
    its args, one message."""

    def __init__(self, what, why):
        super().__init__(f"{what} failed: {why}")


def test_an_exception_that_does_not_unpickle_lands_on_its_ledger_row(tmp_path, monkeypatch):
    import functools
    import multiprocessing
    import pickle

    import kgalign.runner as runner

    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the fork start method is unavailable")
    with pytest.raises(TypeError):
        pickle.loads(pickle.dumps(TwoArgumentError("a", "b")))
    real = runner.start

    def failing(pair, adj_cfg, enc_cfg, train_cfg, *args, **kwargs):
        if train_cfg.learning_rate == 0.5:
            raise TwoArgumentError("training", f"lr {train_cfg.learning_rate}")
        return real(pair, adj_cfg, enc_cfg, train_cfg, *args, **kwargs)

    # forked workers inherit the failing start
    monkeypatch.setattr(runner, "start", failing)
    monkeypatch.setattr(runner, "ProcessPoolExecutor", functools.partial(
        runner.ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")))
    base = toy_config(**{"train_fraction": 0.5, "val_fraction": 0.5})
    axes = {"training.learning_rate": [0.05, 0.5], "training.n_epochs": [1, 3]}
    for workers in (1, 2):
        result = run_grid(base, tmp_path / str(workers), axes=axes, workers=workers)
        assert result.n_failures == 8
    for name in ("leaderboard.tsv", "grid_best.json"):
        assert (tmp_path / "2" / name).read_bytes() == (tmp_path / "1" / name).read_bytes()
    rows = (tmp_path / "2" / "leaderboard.tsv").read_text(encoding="utf-8").splitlines()[1:]
    assert sum(row.endswith("\tTwoArgumentError: training failed: lr 0.5") for row in rows) == 8


@pytest.mark.parametrize("root", ["data/run#2/zh-en", "data/a\nb", "data/a\rb", " data", "data\t"],
                         ids=["hash", "newline", "carriage-return", "leading-space", "trailing-tab"])
def test_config_value_that_would_not_read_back_fails_before_any_run(tmp_path, root):
    # parse_config_text would read "data/run#2/zh-en" back as "data/run",
    # so evaluate would load another directory than the run trained on
    cfg = RunConfig(dataset=DatasetDescriptor("dbp15k-jape", "zh-en", root_path=root))
    with pytest.raises(ConfigError, match="^dataset.root = "):
        cfg.canonical_text()
    with pytest.raises(ConfigError, match="^dataset.root = "):
        run_single(cfg, tmp_path / "runs")
    with pytest.raises(ConfigError, match="^dataset.root = "):
        enumerate_grid(cfg, {"training.n_epochs": [1, 2]})
    assert not (tmp_path / "runs").exists()
