import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kgalign
from kgalign.cli import main

from conftest import jape_chain

TOY_CONFIG = """\
dataset.family = toy
dataset.subset = cycle-8-4
encoder.dim = 16
encoder.n_layers = 2
encoder.use_weights = false
encoder.init = unit
training.optimizer = adam
training.learning_rate = 0.5
training.n_negatives = 2
training.n_epochs = 120
seed = 0
n_seeds = 2
"""


def test_stats_toy(capsys):
    assert main(["stats", "toy", "cycle-8-4"]) == 0
    out = capsys.readouterr().out
    assert "alignments: 8" in out
    assert "triples" in out


def test_stats_json(capsys):
    assert main(["stats", "toy", "cycle-6-3", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["left"]["entities"] == 6
    assert data["alignments"] == 6


def test_stats_compact_dataset_token(capsys):
    assert main(["stats", "toy:cycle-6-3"]) == 0
    assert "alignments: 6" in capsys.readouterr().out
    assert main(["stats", "no-subset-here"]) == 2


def test_stats_missing_dataset_exit_code(capsys):
    code = main(["stats", "dbp15k-jape", "zh-en", "--root", "/nonexistent"])
    assert code == 3  # dataset category
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "dataset"


@pytest.mark.parametrize(
    "name, content, culprit",
    [
        ("ent_ids_1", b"10\te:\xff\n", "ent_ids_1:1"),
        ("manifest.json", b"{not json", "manifest.json"),
        ("manifest.json", b"[]", "manifest.json"),
        ("manifest.json", b'{"sha256": ["triples_1"]}', "manifest.json"),
        ("manifest.json", b'{"sha256": {"attrs_1": "00"}}', "attrs_1"),
        # a file outside the layout, reached through the parent directory
        ("manifest.json", b'{"sha256": {"../zh_en/triples_1": "00"}}',
         "manifest.json: pins a checksum for ../zh_en/triples_1, which is not a file of the"),
    ],
    ids=["non-utf8", "manifest-not-json", "manifest-not-object",
         "manifest-sha256-not-mapping", "manifest-pins-absent-file", "manifest-pins-outside-file"],
)
def test_stats_unreadable_dataset_file_exit_code(jape_style_dir, capsys, name, content, culprit):
    (jape_style_dir / name).write_bytes(content)
    code = main(["stats", "dbp15k-jape", "zh-en", "--root", str(jape_style_dir)])
    err = json.loads(capsys.readouterr().err)
    assert code == 3 and err["error"] == "dataset"
    assert culprit in err["message"]


@pytest.mark.parametrize(
    "lone, partner", [("attrs_1", "attrs_2"), ("attrs_2", "attrs_1")],
    ids=["attrs_1-only", "attrs_2-only"],
)
def test_stats_lone_attribute_file_exit_code(jape_style_dir, capsys, lone, partner):
    (jape_style_dir / lone).write_text("10\tpop\n", encoding="utf-8")
    code = main(["stats", "dbp15k-jape", "zh-en", "--root", str(jape_style_dir)])
    err = json.loads(capsys.readouterr().err)
    assert code == 3 and err["error"] == "dataset"
    assert f"{lone} needs its partner file {partner}" in err["message"]


def test_train_and_evaluate_cycle(tmp_path, capsys):
    config = tmp_path / "toy.cfg"
    config.write_text(TOY_CONFIG, encoding="utf-8")
    runs = tmp_path / "runs"
    assert main(["train", str(config), "--runs-root", str(runs)]) == 0
    out = capsys.readouterr().out
    assert "test metrics" in out and "H@1" in out

    run_dirs = [p for p in runs.iterdir() if p.is_dir()]
    assert len(run_dirs) == 1
    run_dir = run_dirs[0]

    assert main(["evaluate", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "H@1" in out
    assert (run_dir / "evaluation-test-only-test.json").is_file()

    # all-entities policy re-evaluation from the persisted state
    assert main(["evaluate", str(run_dir), "--policy", "all-entities"]) == 0
    report = json.loads(
        (run_dir / "evaluation-all-entities-test.json").read_text()
    )
    assert report["candidate_policy"] == "all-entities"


def test_train_rerun_resumes(tmp_path, capsys):
    config = tmp_path / "toy.cfg"
    config.write_text(TOY_CONFIG, encoding="utf-8")
    runs = tmp_path / "runs"
    assert main(["train", str(config), "--runs-root", str(runs)]) == 0
    capsys.readouterr()
    assert main(["train", str(config), "--runs-root", str(runs)]) == 0
    assert "resumed" in capsys.readouterr().out


def test_train_bad_config_exit_code(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("dataset.family = toy\n", encoding="utf-8")  # no subset
    assert main(["train", str(config)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"


def test_train_badly_typed_value_exit_code(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text(
        TOY_CONFIG.replace("encoder.use_weights = false", "encoder.use_weights = no"),
        encoding="utf-8",
    )
    runs = tmp_path / "runs"
    assert main(["train", str(config), "--runs-root", str(runs)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert "encoder.use_weights" in err["message"]
    assert not runs.exists() or not any(runs.iterdir())


# The run-level values (policy, n_seeds, attribute_margin) once parsed,
# trained the whole run and only failed, if at all, afterwards.
@pytest.mark.parametrize(
    "line, message",
    [
        ("encoder.dim = 0", "dim must be positive"),
        ("score.beta = 1.5", "beta must lie in"),
        ("candidate_policy = test_only", "unknown candidate policy"),
        ("n_seeds = 0", "n_seeds must be at least 1"),
        ("attribute_margin = -1.0", "attribute_margin must be non-negative"),
        ("training.margin = nan", "margin must be non-negative and finite"),
        ("training.learning_rate = inf", "learning_rate must be positive and finite"),
        ("encoder.init = 0.0", "init std must be positive and finite"),
        ("encoder.init = -1.0", "init std must be positive and finite"),
        ("adjacency.clamp_floor = -1.0", "clamp_floor must lie in (0, 1]"),
        ("attribute_margin = nan", "attribute_margin must be non-negative and finite"),
    ],
    ids=["dim", "beta", "policy", "n-seeds", "attribute-margin", "margin-nan", "learning-rate-inf",
         "init-zero", "init-negative", "clamp-floor-negative", "attribute-margin-nan"],
)
def test_train_out_of_range_value_names_config_file(tmp_path, capsys, line, message):
    key = line.split(" = ")[0]
    kept = [kv for kv in TOY_CONFIG.splitlines() if kv.split(" = ")[0] != key]
    config = tmp_path / "bad.cfg"
    config.write_text("\n".join(kept + [line]) + "\n", encoding="utf-8")
    runs = tmp_path / "runs"
    assert main(["train", str(config), "--runs-root", str(runs)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert err["message"].startswith(f"{config}: {message}")
    assert not runs.exists()


def test_evaluate_missing_state_errors(tmp_path, capsys):
    config = tmp_path / "toy.cfg"
    config.write_text(TOY_CONFIG + "save_state = false\n", encoding="utf-8")
    runs = tmp_path / "runs"
    assert main(["train", str(config), "--runs-root", str(runs)]) == 0
    capsys.readouterr()
    run_dir = next(p for p in runs.iterdir() if p.is_dir())
    assert main(["evaluate", str(run_dir)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert "state.npz" in err["message"]


def _train_toy(tmp_path, capsys):
    config = tmp_path / "toy.cfg"
    config.write_text(TOY_CONFIG, encoding="utf-8")
    runs = tmp_path / "runs"
    assert main(["train", str(config), "--runs-root", str(runs)]) == 0
    capsys.readouterr()
    return next(p for p in runs.iterdir() if p.is_dir())


def test_evaluate_reproduces_report_test_block(tmp_path, capsys):
    run_dir = _train_toy(tmp_path, capsys)
    assert main(["evaluate", str(run_dir)]) == 0
    written = json.loads((run_dir / "evaluation-test-only-test.json").read_text())
    report = json.loads((run_dir / "report.json").read_text())
    assert written == report["test"]


@pytest.mark.parametrize("policy", ["test-only", "all-entities"])
def test_evaluate_reads_a_compressed_state_alike(tmp_path, capsys, policy):
    # run directories written before state.npz was stored hold a
    # np.savez_compressed archive of the same arrays
    run_dir = _train_toy(tmp_path, capsys)
    out = run_dir / f"evaluation-{policy}-test.json"
    assert main(["evaluate", str(run_dir), "--policy", policy]) == 0
    written = out.read_bytes()
    out.unlink()
    with np.load(run_dir / "state.npz") as data:
        arrays = dict(data)
    np.savez_compressed(run_dir / "state.npz", **arrays)
    assert main(["evaluate", str(run_dir), "--policy", policy]) == 0
    assert out.read_bytes() == written


@pytest.mark.parametrize("root", ["2024", "007", "1e3", "nan", "inf", "true"])
def test_dataset_root_is_taken_as_written(tmp_path, monkeypatch, capsys, root):
    # each of these once parsed into a number or a boolean and was
    # rejected as no path
    monkeypatch.chdir(tmp_path)
    jape_chain(tmp_path / root, 6)
    config = tmp_path / "jape.cfg"
    config.write_text(
        "dataset.family = dbp15k-jape\n"
        "dataset.subset = zh-en\n"
        f"dataset.root = {root}\n"
        "encoder.dim = 8\n"
        "training.n_negatives = 2\n"
        "training.n_epochs = 3\n",
        encoding="utf-8",
    )
    assert main(["train", str(config), "--runs-root", "runs"]) == 0
    capsys.readouterr()
    (run_dir,) = (tmp_path / "runs").iterdir()
    assert f"dataset.root = {root}\n" in (run_dir / "config.txt").read_text()
    assert main(["evaluate", str(run_dir)]) == 0
    capsys.readouterr()
    written = json.loads((run_dir / "evaluation-test-only-test.json").read_text())
    assert written == json.loads((run_dir / "report.json").read_text())["test"]


def test_evaluate_hint_names_new_run_directory_for_stateless_run(tmp_path, capsys):
    config = tmp_path / "toy.cfg"
    config.write_text(TOY_CONFIG + "save_state = false\n", encoding="utf-8")
    runs = tmp_path / "runs"
    assert main(["train", str(config), "--runs-root", str(runs)]) == 0
    capsys.readouterr()
    run_dir = next(p for p in runs.iterdir() if p.is_dir())
    assert main(["evaluate", str(run_dir)]) == 2
    message = json.loads(capsys.readouterr().err)["message"]
    assert "save_state = false" in message and "new run directory" in message


def test_train_recomputes_run_whose_state_is_gone(tmp_path, capsys):
    run_dir = _train_toy(tmp_path, capsys)
    (run_dir / "state.npz").unlink()
    assert main(["evaluate", str(run_dir)]) == 2
    message = json.loads(capsys.readouterr().err)["message"]
    assert f"--runs-root {run_dir.parent}" in message
    config = tmp_path / "toy.cfg"
    with pytest.warns(UserWarning, match="no state.npz"):
        assert main(["train", str(config), "--runs-root", str(run_dir.parent)]) == 0
    assert "completed" in capsys.readouterr().out
    assert (run_dir / "state.npz").is_file()
    assert main(["evaluate", str(run_dir)]) == 0


def test_evaluate_rejects_state_that_disagrees_with_config(tmp_path, capsys):
    run_dir = _train_toy(tmp_path, capsys)
    state_path = run_dir / "state.npz"
    with np.load(state_path) as data:
        arrays = dict(data)
    arrays["weight_0"] = np.eye(16)
    arrays["weight_1"] = np.eye(16)
    np.savez_compressed(state_path, **arrays)
    assert main(["evaluate", str(run_dir)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert "weights" in err["message"]
    assert not (run_dir / "evaluation-test-only-test.json").exists()


@pytest.mark.parametrize(
    "key, cut, reason",
    [
        ("features_left", np.s_[:, :8], "features have width 8, config says 16"),
        ("features_right", np.s_[:5], "adjacency is (8, 8) but features have 5 rows"),
    ],
    ids=["narrow-features-left", "short-features-right"],
)
def test_evaluate_state_of_wrong_shape_exits_2_naming_both_files(tmp_path, capsys, key, cut, reason):
    run_dir = _train_toy(tmp_path, capsys)
    with np.load(run_dir / "state.npz") as data:
        arrays = dict(data)
    arrays[key] = arrays[key][cut]
    np.savez(run_dir / "state.npz", **arrays)
    assert main(["evaluate", str(run_dir)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "config", "message": (
        f"{run_dir / 'state.npz'} does not fit {run_dir / 'config.txt'}: {reason}")}
    assert not (run_dir / "evaluation-test-only-test.json").exists()


def test_evaluate_without_config_names_it(tmp_path, capsys):
    run_dir = _train_toy(tmp_path, capsys)
    (run_dir / "config.txt").unlink()
    assert main(["evaluate", str(run_dir)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "config", "message": f"config file not found: {run_dir / 'config.txt'}"}


@pytest.mark.parametrize(
    "damage", [lambda path: path.unlink(), lambda path: path.write_text("{\"format\": 1, ")],
    ids=["no-report", "truncated-report"],
)
@pytest.mark.filterwarnings("error")  # such as the one a resume check gives
def test_evaluate_reads_only_config_and_state(tmp_path, capsys, damage):
    run_dir = _train_toy(tmp_path, capsys)
    out = run_dir / "evaluation-test-only-test.json"
    assert main(["evaluate", str(run_dir)]) == 0
    written = out.read_bytes()
    out.unlink()
    damage(run_dir / "report.json")
    assert main(["evaluate", str(run_dir)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == written
    assert not (run_dir / "error.json").exists()


def _drop_features_right(path):
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files if k != "features_right"}
    np.savez_compressed(path, **arrays)


@pytest.mark.parametrize(
    "damage",
    [lambda path: path.write_bytes(path.read_bytes()[:300]), _drop_features_right],
    ids=["truncated", "no-features-right"],
)
def test_evaluate_unreadable_state_exits_2_naming_it(tmp_path, capsys, damage):
    run_dir = _train_toy(tmp_path, capsys)
    damage(run_dir / "state.npz")
    assert main(["evaluate", str(run_dir)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert str(run_dir / "state.npz") in err["message"]


def _grid_config(tmp_path, axis="grid.training.n_epochs = 10, 40"):
    config = tmp_path / "grid.cfg"
    config.write_text(
        TOY_CONFIG
        + "train_fraction = 0.5\nval_fraction = 0.5\n"
        + axis + "\n",
        encoding="utf-8",
    )
    return config


def test_grid_command(tmp_path, capsys):
    runs = tmp_path / "runs"
    assert main(["grid", str(_grid_config(tmp_path)), "--runs-root", str(runs)]) == 0
    out = capsys.readouterr().out
    assert "8 runs, 0 failures" in out
    assert (runs / "leaderboard.tsv").is_file()
    assert (runs / "grid_best.json").is_file()


def test_grid_axis_of_text_is_taken_as_written(tmp_path, capsys):
    # these roots once parsed into numbers and exited 2; the toy dataset
    # reads no root
    runs = tmp_path / "runs"
    config = _grid_config(tmp_path, "grid.dataset.root = 2024, 2025")
    assert main(["grid", str(config), "--runs-root", str(runs)]) == 0
    assert "8 runs, 0 failures" in capsys.readouterr().out
    roots = [
        line for run_dir in runs.iterdir() if run_dir.is_dir()
        for line in (run_dir / "config.txt").read_text().splitlines()
        if line.startswith("dataset.root ")
    ]
    assert sorted(roots) == ["dataset.root = 2024"] * 4 + ["dataset.root = 2025"] * 4


@pytest.mark.parametrize(
    "axis, flags, complaint",
    [
        ("grid.training.learning_rate = 0.5, 0.50\n", ["--workers", "2"], "repeats a value"),
        ("grid.training.learning_rate = 1, 1.0\n", [], "repeats a value"),
        ("grid.training.n_epochs = 10, 40\n", ["--workers", "-4"], "workers must be at least 1"),
        ("grid.training.n_epochs = 10, 40\n", ["--workers", "0"], "workers must be at least 1"),
        ("grid.encoder.dim = 16.9, 32\n", [], "{config}: encoder.dim must be int, got '16.9'"),
        ("grid.training.margin = 3, nan\n", [], "{config}: margin must be non-negative"),
        ("grid.typo = 1, 2\n", [], "{config}: unknown config keys ['grid.typo']"),
        ("grid.encoder.init = 1, unit\n", [], "grid axis 'encoder.init' sets a key of the ablation"),
        ("grid.encoder.use_weights = true\n", [],
         "grid axis 'encoder.use_weights' sets a key of the ablation"),
    ],
    ids=["equal-values", "equal-once-typed", "negative-workers", "no-workers", "badly-typed-axis",
         "out-of-range-axis", "unknown-axis", "cell-key-axis", "one-valued-cell-key-axis"],
)
def test_grid_arguments_that_cannot_be_right_exit_2_before_any_run(
    tmp_path, capsys, axis, flags, complaint
):
    config = tmp_path / "grid.cfg"
    config.write_text(TOY_CONFIG + "train_fraction = 0.5\nval_fraction = 0.5\n" + axis,
                      encoding="utf-8")
    runs = tmp_path / "runs"
    assert main(["grid", str(config), "--runs-root", str(runs), *flags]) == 2
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["error"] == "config" and complaint.format(config=config) in err["message"]
    assert not runs.exists()


def test_grid_progress_goes_to_stderr_only(tmp_path, capsys):
    runs = tmp_path / "runs"
    assert main(["grid", str(_grid_config(tmp_path)), "--runs-root", str(runs)]) == 0
    out, err = capsys.readouterr()
    assert "grid:" not in out
    assert out.splitlines()[:2] == [
        "grid finished: 8 runs, 0 failures", f"leaderboard: {runs / 'leaderboard.tsv'}"
    ]
    lines = err.splitlines()
    assert [line.split(",")[0] for line in lines] == [f"grid: {k}/8 runs" for k in range(1, 9)]


def test_failed_grid_ends_stderr_with_error_record(tmp_path, capsys):
    runs = tmp_path / "runs"
    (runs / "grid_best.json").mkdir(parents=True)  # the grid cannot write its result
    assert main(["grid", str(_grid_config(tmp_path)), "--runs-root", str(runs)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 9 and lines[-2].startswith("grid: 8/8 runs")
    assert json.loads(lines[-1])["error"] == "internal"


def test_ablate_command(tmp_path, capsys):
    config = tmp_path / "ablate.cfg"
    config.write_text(TOY_CONFIG, encoding="utf-8")
    runs = tmp_path / "runs"
    assert main(["ablate", str(config), "--runs-root", str(runs), "--seeds", "2"]) == 0
    out, err = capsys.readouterr()
    assert "no-weights/unit" in out
    # stdout holds the table and where it went; progress goes to stderr
    assert out == (runs / "ablation.txt").read_text() + f"written: {runs / 'ablation.json'}\n"
    assert [line.split(",")[0] for line in err.splitlines()] == [
        f"ablate: {k}/8 runs" for k in range(1, 9)
    ]
    cells = json.loads((runs / "ablation.json").read_text())
    assert len(cells) == 4
    assert all(c["n_seeds"] == 2 for c in cells)


def test_failed_ablate_ends_stderr_with_error_record(tmp_path, capsys):
    # beta < 1 fails on the attribute-less toy, in the first run
    config = tmp_path / "ablate.cfg"
    config.write_text(TOY_CONFIG + "score.beta = 0.5\n", encoding="utf-8")
    argv = ["ablate", str(config), "--runs-root", str(tmp_path / "runs"), "--seeds", "1"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 2 and lines[0].startswith("ablate: 1/4 runs, 1 failed, ")
    assert json.loads(lines[1]) == {
        "error": "config", "message": "score.beta < 1 but the dataset has no attribute tables"
    }


@pytest.mark.parametrize("extra, argv, message", [
    ("", ["--seeds", "0"], "n_seeds must be at least 1"),
    ("evaluate_test = false\n", [], "ablation runs must evaluate the test split"),
    # a typo of ablate.datasets once tabulated the base dataset alone
    ("ablate.dataset = toy:cycle-8-4, toy:cycle-10-5\n", [],
     "{config}: unknown config keys ['ablate.dataset']"),
], ids=["no-seeds", "no-test-split", "unknown-ablate-key"])
def test_ablate_rejects_before_any_run(tmp_path, capsys, extra, argv, message):
    config = tmp_path / "ablate.cfg"
    config.write_text(TOY_CONFIG + extra, encoding="utf-8")
    runs = tmp_path / "runs"
    assert main(["ablate", str(config), "--runs-root", str(runs), *argv]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "config", "message": message.format(config=config)
    }
    assert not runs.exists()


def _jape_ablate_config(tmp_path, root):
    config = tmp_path / "ablate.cfg"
    config.write_text(
        "dataset.family = dbp15k-jape\n"
        "dataset.subset = zh-en\n"
        f"dataset.root = {root}\n"
        "encoder.dim = 8\n"
        "training.n_negatives = 2\n"
        "training.n_epochs = 5\n"
        "ablate.datasets = dbp15k-jape:zh-en, dbp15k-jape:ja-en\n",
        encoding="utf-8",
    )
    return config


def test_ablate_datasets_load_their_own_directories(tmp_path, capsys):
    data = tmp_path / "data" / "dbp15k-jape"
    roots = {"dbp15k-jape:zh-en": jape_chain(data / "zh-en", 6),
             "dbp15k-jape:ja-en": jape_chain(data / "ja-en", 10)}
    runs = tmp_path / "runs"
    argv = ["ablate", str(_jape_ablate_config(tmp_path, roots["dbp15k-jape:zh-en"])),
            "--runs-root", str(runs), "--seeds", "1", "--no-tuned"]
    assert main(argv) == 0
    capsys.readouterr()
    cells = json.loads((runs / "ablation.json").read_text())
    assert sorted({c["dataset"] for c in cells}) == sorted(roots)
    for cell in cells:
        root = roots[cell["dataset"]]
        (run_hash,) = cell["run_hashes"]
        assert f"dataset.root = {root}\n" in (runs / run_hash / "config.txt").read_text()
        report = json.loads((runs / run_hash / "report.json").read_text())
        n_test = len((root / "ref_ent_ids").read_text().splitlines())
        assert report["test"]["directions"]["left_to_right"]["n_test"] == n_test


def test_ablate_dataset_without_directory_exits_2(tmp_path, capsys):
    # the root does not end in dbp15k-jape/zh-en, so ja-en has no place
    root = jape_chain(tmp_path / "zh", 6)
    runs = tmp_path / "runs"
    argv = ["ablate", str(_jape_ablate_config(tmp_path, root)), "--runs-root", str(runs),
            "--seeds", "1", "--no-tuned"]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert "'dbp15k-jape:ja-en'" in err["message"]
    assert not runs.exists()


def test_cli_subprocess_entrypoint(tmp_path):
    # one end-to-end smoke test through a real process, importing the
    # same package this test process imported
    src = str(Path(kgalign.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-m", "kgalign", "stats", "toy", "cycle-6-3"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    assert "alignments: 6" in result.stdout
