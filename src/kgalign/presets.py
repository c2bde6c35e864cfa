"""Tuned hyperparameters for every benchmark/cell combination.

Each of the four ablation cells (convolution weights on/off times
unit/scaled embedding init) carries the settings found by validation-H@1
search on dbp15k-jape zh-en; per-dataset fine-tuning then adjusted
epochs, layer count and learning rate. The ablation command uses these
so the headline tables are reproducible without re-running the search.
"""
from __future__ import annotations

from .errors import ConfigError

# (use_weights, init_preset) -> search winner on dbp15k-jape zh-en, as
# run-config overrides
CELL_BASELINES = {
    (False, "unit"): {"training.optimizer": "adam", "training.n_negatives": 50,
                      "training.n_epochs": 2000, "encoder.n_layers": 2, "training.learning_rate": 1.0},
    (False, "scaled"): {"training.optimizer": "sgd", "training.n_negatives": 100,
                        "training.n_epochs": 3000, "encoder.n_layers": 2, "training.learning_rate": 1.0},
    (True, "unit"): {"training.optimizer": "adam", "training.n_negatives": 50,
                     "training.n_epochs": 2000, "encoder.n_layers": 3, "training.learning_rate": 1.0},
    (True, "scaled"): {"training.optimizer": "adam", "training.n_negatives": 50,
                       "training.n_epochs": 2000, "encoder.n_layers": 2, "training.learning_rate": 1.0},
}

# (family, subset, use_weights, init_preset) -> per-dataset fine-tune of
# the FINETUNED_KEYS; optimizer and negative count stay at the cell
# baseline.
FINETUNED_KEYS = ("training.n_epochs", "encoder.n_layers", "training.learning_rate")
FINETUNED = {
    ("dbp15k-full", "fr-en", False, "unit"): (2000, 2, 1.0),
    ("dbp15k-full", "ja-en", False, "unit"): (2000, 3, 1.0),
    ("dbp15k-full", "zh-en", False, "unit"): (2000, 4, 1.0),
    ("dbp15k-jape", "fr-en", False, "unit"): (2000, 2, 1.0),
    ("dbp15k-jape", "ja-en", False, "unit"): (2000, 2, 1.0),
    ("dbp15k-jape", "zh-en", False, "unit"): (2000, 2, 1.0),
    ("dwy100k", "dbp-wd", False, "unit"): (2000, 2, 1.0),
    ("dwy100k", "dbp-yg", False, "unit"): (2000, 2, 1.0),
    ("wk3l-120k", "en-de", False, "unit"): (2000, 2, 1.0),
    ("wk3l-120k", "en-fr", False, "unit"): (2000, 2, 1.0),
    ("wk3l-15k", "en-de", False, "unit"): (2000, 2, 1.0),
    ("wk3l-15k", "en-fr", False, "unit"): (2000, 2, 10.0),
    ("dbp15k-full", "fr-en", True, "unit"): (2000, 4, 1.0),
    ("dbp15k-full", "ja-en", True, "unit"): (2000, 4, 1.0),
    ("dbp15k-full", "zh-en", True, "unit"): (2000, 3, 1.0),
    ("dbp15k-jape", "fr-en", True, "unit"): (2000, 2, 10.0),
    ("dbp15k-jape", "ja-en", True, "unit"): (2000, 3, 1.0),
    ("dbp15k-jape", "zh-en", True, "unit"): (2000, 3, 1.0),
    ("dwy100k", "dbp-wd", True, "unit"): (2000, 2, 1.0),
    ("dwy100k", "dbp-yg", True, "unit"): (2000, 2, 1.0),
    ("wk3l-120k", "en-de", True, "unit"): (2000, 2, 1.0),
    ("wk3l-120k", "en-fr", True, "unit"): (2000, 2, 1.0),
    ("wk3l-15k", "en-de", True, "unit"): (2000, 2, 1.0),
    ("wk3l-15k", "en-fr", True, "unit"): (2000, 2, 1.0),
    ("dbp15k-full", "fr-en", False, "scaled"): (3000, 2, 1.0),
    ("dbp15k-full", "ja-en", False, "scaled"): (3000, 2, 1.0),
    ("dbp15k-full", "zh-en", False, "scaled"): (2000, 4, 1.0),
    ("dbp15k-jape", "fr-en", False, "scaled"): (3000, 2, 1.0),
    ("dbp15k-jape", "ja-en", False, "scaled"): (2000, 2, 1.0),
    ("dbp15k-jape", "zh-en", False, "scaled"): (3000, 2, 1.0),
    ("dwy100k", "dbp-wd", False, "scaled"): (3000, 2, 1.0),
    ("dwy100k", "dbp-yg", False, "scaled"): (3000, 2, 1.0),
    ("wk3l-120k", "en-de", False, "scaled"): (3000, 2, 0.5),
    ("wk3l-120k", "en-fr", False, "scaled"): (3000, 2, 1.0),
    ("wk3l-15k", "en-de", False, "scaled"): (3000, 2, 0.5),
    ("wk3l-15k", "en-fr", False, "scaled"): (3000, 2, 1.0),
    ("dbp15k-full", "fr-en", True, "scaled"): (2000, 4, 1.0),
    ("dbp15k-full", "ja-en", True, "scaled"): (2000, 4, 1.0),
    ("dbp15k-full", "zh-en", True, "scaled"): (2000, 4, 1.0),
    ("dbp15k-jape", "fr-en", True, "scaled"): (2000, 2, 1.0),
    ("dbp15k-jape", "ja-en", True, "scaled"): (2000, 2, 1.0),
    ("dbp15k-jape", "zh-en", True, "scaled"): (2000, 2, 1.0),
    ("dwy100k", "dbp-wd", True, "scaled"): (2000, 2, 1.0),
    ("dwy100k", "dbp-yg", True, "scaled"): (3000, 2, 0.5),
    ("wk3l-120k", "en-de", True, "scaled"): (2000, 2, 1.0),
    ("wk3l-120k", "en-fr", True, "scaled"): (2000, 2, 1.0),
    ("wk3l-15k", "en-de", True, "scaled"): (2000, 2, 1.0),
    ("wk3l-15k", "en-fr", True, "scaled"): (2000, 2, 1.0),
}

ABLATION_CELLS = tuple(CELL_BASELINES)


def tuned_hyperparameters(family: str, subset: str, use_weights: bool, init_preset: str) -> dict:
    """Run-config overrides (dotted keys) tuned for one dataset/cell
    combination."""
    cell = (use_weights, init_preset)
    if cell not in CELL_BASELINES:
        raise ConfigError(f"unknown ablation cell {cell}")
    row = FINETUNED.get((family, subset, use_weights, init_preset), ())
    return {**CELL_BASELINES[cell], **dict(zip(FINETUNED_KEYS, row))}
