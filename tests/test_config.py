"""The flat run-config form: typed coercion and pinned run hashes."""
import hashlib
import re
from dataclasses import replace
from pathlib import Path

import pytest

from kgalign.configfile import parse_config_text
from kgalign.datasets import FAMILIES, DatasetDescriptor
from kgalign.encoder import EncoderConfig
from kgalign.errors import ConfigError
from kgalign.runner import RunConfig, apply_overrides, enumerate_grid, run_ablation, run_single

from conftest import record_run_single

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

TOY_DATASET = "dataset.family = toy\ndataset.subset = cycle-8-4\n"

# Each of these once parsed silently into a different value (or escaped
# as a raw ValueError) instead of being rejected.
MALFORMED = [
    ("encoder.use_weights", "no"),
    ("save_state", "off"),
    ("encoder.dim", "16.9"),
    ("seed", "1.7"),
    ("score.beta", "yes"),
]


@pytest.mark.parametrize("key, token", MALFORMED)
def test_malformed_value_rejected_naming_its_key(key, token):
    # a grid axis value is typed as its key's own value, naming the file
    # and the line
    for line in (f"{key} = {token}", f"grid.{key} = {token}"):
        flat = parse_config_text(TOY_DATASET + line + "\n")
        with pytest.raises(ConfigError, match=rf"^bad\.cfg:3: {re.escape(key)} must be "):
            RunConfig.from_flat(flat, source="bad.cfg")


# A section checks its values once assembled, so its range error once
# named neither the line nor the section: "m.cfg: margin must be ...".
@pytest.mark.parametrize("text, line", [
    ("training.margin = -1\n", 13),
    ("training.margin = 1\ngrid.training.margin = 1, -1\n", 14),
], ids=["value", "grid-axis"])
def test_range_error_names_its_line_and_dotted_key(text, line):
    flat = parse_config_text(TOY_DATASET + "# padding\n" * 10 + text)
    message = "training.margin must be non-negative and finite, got -1.0"
    with pytest.raises(ConfigError) as error:
        RunConfig.from_flat(flat, source="m.cfg")
    assert str(error.value) == f"m.cfg:{line}: {message}"
    # a flat dict that no file gave names the key alone
    with pytest.raises(ConfigError) as error:
        RunConfig.from_flat(dict(flat))
    assert str(error.value) == f"<config>: {message}"


def test_typed_values_accepted():
    cfg = RunConfig.from_flat(parse_config_text(
        TOY_DATASET
        + "encoder.use_weights = true\nencoder.dim = 16.0\n"
        + "training.learning_rate = 1\nencoder.init = 1\nattribute_margin = 2\n"
    ))
    assert cfg.encoder.use_weights is True
    assert cfg.encoder.dim == 16 and isinstance(cfg.encoder.dim, int)
    assert cfg.training.learning_rate == 1.0 and isinstance(cfg.training.learning_rate, float)
    assert cfg.encoder.init == 1.0 and isinstance(cfg.encoder.init, float)
    assert cfg.to_flat()["attribute_margin"] == 2.0
    assert "dataset.root" not in cfg.to_flat()
    # a grid types each axis value through apply_overrides
    flat = parse_config_text(TOY_DATASET + "grid.encoder.init = 1, unit\n")
    base = RunConfig.from_flat(flat)
    typed = {apply_overrides(base, {"encoder.init": v}).encoder.init
             for v in flat["grid.encoder.init"]}
    assert {(type(v), v) for v in typed} == {(float, 1.0), (str, "unit")}


def test_encoder_init_derives_the_std():
    scaled = EncoderConfig(dim=100, init="scaled")
    assert scaled.init_std == pytest.approx(0.1)
    assert replace(scaled, dim=25).init_std == pytest.approx(0.2)
    assert EncoderConfig(init=2).init == 2.0
    with pytest.raises(ConfigError, match="init must be a std or one of the presets"):
        EncoderConfig(init="uniform")


# Existing run directories are named by these hashes; a change to the
# flat form would orphan them.
def test_golden_run_hashes():
    assert RunConfig.from_file(CONFIGS / "toy.cfg").run_hash() == "5c42739817e88c34"
    assert (
        RunConfig.from_file(CONFIGS / "dbp15k-jape-zh-en.cfg").run_hash()
        == "50f22b5904358ad1"
    )
    grid = enumerate_grid(RunConfig.from_file(CONFIGS / "grid-zh-en.cfg"))
    hashes = sorted({cfg.run_hash() for cfg in grid})
    assert len(hashes) == 1440
    digest = hashlib.sha256("\n".join(hashes).encode("utf-8")).hexdigest()[:16]
    assert digest == "2657ec14d2ae7467"
    every_optional_key = {
        "dataset.family": "dbp15k-jape",
        "dataset.subset": "zh-en",
        "dataset.root": "data/x",
        "encoder.init": 0.05,
        "attribute_margin": 1.5,
        "score.beta": 0.9,
        "adjacency.variant": "functionality",
        "adjacency.clamp": True,
        "adjacency.normalization": "symmetric",
        "encoder.use_weights": True,
        "encoder.normalize_features": False,
        "training.optimizer": "sgd",
    }
    assert RunConfig.from_flat(every_optional_key).run_hash() == "6da5efb5588c371f"


# The seeded toy run's artifacts, byte for byte; numeric refactors must
# leave them unchanged.
def test_golden_toy_run_outputs(tmp_path):
    result = run_single(RunConfig.from_file(CONFIGS / "toy.cfg"), tmp_path)

    def sha256(name):
        return hashlib.sha256((result.run_dir / name).read_bytes()).hexdigest()

    assert sha256("report.json") == (
        "d3a4e468fb3a4d0ca34ab295a34d4ec6d6d82783497d0e872f27391f4c596aee"
    )
    assert sha256("loss_trace.tsv") == (
        "e99bb8d357f94fe0c24201b9d84f157a9d39d88fae22ad44756632272a8894b8"
    )


# `kgalign evaluate` of the seeded toy run, byte for byte, with and
# without the tie diagnostics.
@pytest.mark.parametrize(
    "policy, tie, digest",
    [
        ("test-only", False, "b978452e40b179d811013e1b6babf493fe7c12f63c37bed27a80c155f207155a"),
        ("all-entities", False, "d62e8c3af094b71acaa986fbfcf3d1c30a0284a90a34f5ffb07dca987270926c"),
        ("test-only", True, "11b3b614f6a2446d73e370f3645a64512c0f47ec01fc051f417d4eafebe58d17"),
        ("all-entities", True, "ec0deda9dc56029398a8376adb0eaf2eb0031d9f643e766cae7a1d01a705ee14"),
    ],
)
def test_golden_toy_evaluate_outputs(tmp_path, capsys, policy, tie, digest):
    from kgalign.cli import main

    run_dir = run_single(RunConfig.from_file(CONFIGS / "toy.cfg"), tmp_path).run_dir
    argv = ["evaluate", str(run_dir), "--policy", policy]
    assert main(argv + ["--tie-diagnostics"] * tie) == 0
    capsys.readouterr()
    written = (run_dir / f"evaluation-{policy}-test.json").read_bytes()
    assert hashlib.sha256(written).hexdigest() == digest


# `kgalign ablate` of the seeded toy config over 2 seeds and the four
# cells, byte for byte.
def test_golden_toy_ablation_outputs(tmp_path, capsys):
    from kgalign.cli import main

    argv = ["ablate", str(CONFIGS / "toy.cfg"), "--runs-root", str(tmp_path), "--seeds", "2"]
    assert main(argv) == 0
    capsys.readouterr()

    def sha256(name):
        return hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()

    assert sha256("ablation.json") == (
        "0eaaa52a8c0cc62e943f9c77162c679fb0571529f08798dbffd7a3ab6270d60f"
    )
    assert sha256("ablation.txt") == (
        "e58eac138e114ec245498daf046775493db2c1897fe7aa412c9f58a4d845d2c1"
    )


# The runs `run_ablation` asks for with tuned presets, for every subset
# of every family: a change to the preset plumbing would orphan them.
def test_golden_tuned_ablation_run_hashes(tmp_path, monkeypatch):
    asked = record_run_single(monkeypatch, tmp_path)
    datasets = [
        DatasetDescriptor(family, subset, Path("data") / family / subset)
        for family, (subsets, *_) in FAMILIES.items()
        for subset in subsets
    ]
    run_ablation(RunConfig.from_file(CONFIGS / "ablate.cfg"), datasets, tmp_path, n_seeds=2)
    hashes = [cfg.run_hash() for cfg in asked]
    assert len(hashes) == len(set(hashes)) == 96
    digest = hashlib.sha256("\n".join(hashes).encode("utf-8")).hexdigest()[:16]
    assert digest == "7987e557277e640b"
