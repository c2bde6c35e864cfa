"""Experiment orchestration: single runs, grid search, ablation tables.

Every run is keyed by a hash of its fully resolved configuration
(including the seed), and its artifacts live under
runs_root/<hash>/: the canonical config text, a JSON report, the loss
trace, and optionally the trained state. A run whose report already
exists is not recomputed, which makes large grids resumable after a
crash; failures leave a persisted error record instead of a report.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import sys
import time
import traceback
import warnings
import zipfile
import zlib
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, replace
from itertools import product
from pathlib import Path

import numpy as np

from .adjacency import AdjacencyConfig, build_adjacency
from .configfile import config_from_flat, config_to_flat, format_config, read_config_file
from .datasets import DatasetDescriptor, load, split
from .encoder import EmbeddingState, EncoderConfig, forward
from .errors import ConfigError, KgalignError
from .evaluation import CANDIDATE_POLICIES, DIRECTIONS, MetricsReport, ScoreConfig, evaluate
from .graphs import GraphPair, Role, require_valid
from .parallel import set_process_share, thread_count
from .presets import ABLATION_CELLS, tuned_hyperparameters
from .training import TrainConfig, loss_trace_tsv, train

REPORT_FORMAT = 1

# Search axes of the large-scale sweep; together with the four ablation
# cells these enumerate 1,440 configurations.
DEFAULT_GRID_AXES = {
    "training.optimizer": ["adam", "sgd"],
    "training.learning_rate": [0.1, 0.5, 1.0, 10.0, 20.0],
    "encoder.n_layers": [1, 2, 3],
    "training.n_negatives": [5, 50, 100],
    "training.n_epochs": [10, 500, 2000, 3000],
}


@dataclass(frozen=True)
class RunConfig:
    dataset: DatasetDescriptor
    adjacency: AdjacencyConfig = AdjacencyConfig()
    encoder: EncoderConfig = EncoderConfig()
    training: TrainConfig = TrainConfig()
    score: ScoreConfig = ScoreConfig()
    candidate_policy: str = "test-only"
    seed: int = 0
    n_seeds: int = 5
    split_seed: int = 0
    train_fraction: float = 0.3
    val_fraction: float = 0.2
    attribute_margin: float | None = None
    save_state: bool = True
    evaluate_test: bool = True

    # checked here so a bad value fails at parse time, not after training
    def __post_init__(self):
        if self.candidate_policy not in CANDIDATE_POLICIES:
            raise ConfigError(f"unknown candidate policy {self.candidate_policy!r}")
        if self.n_seeds < 1:
            raise ConfigError("n_seeds must be at least 1")
        if self.attribute_margin is not None and not 0 <= self.attribute_margin < math.inf:
            raise ConfigError(
                f"attribute_margin must be non-negative and finite, got {self.attribute_margin}"
            )

    def to_flat(self) -> dict:
        """Flat dotted-key mapping; the canonical serialized form."""
        return config_to_flat(self)

    @classmethod
    def from_flat(cls, flat: dict, source: str = "<config>") -> RunConfig:
        return config_from_flat(cls, flat, source)

    @classmethod
    def from_file(cls, path: Path) -> RunConfig:
        return cls.from_flat(read_config_file(path), source=str(path))

    def canonical_text(self) -> str:
        return format_config(self.to_flat())

    def run_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode("utf-8")).hexdigest()[:16]


def apply_overrides(cfg: RunConfig, overrides: dict) -> RunConfig:
    """New config with dotted-key overrides applied."""
    flat = cfg.to_flat()
    flat.update(overrides)
    return RunConfig.from_flat(flat)


def with_cell(cfg: RunConfig, use_weights: bool, init_preset: str) -> RunConfig:
    return apply_overrides(
        cfg, {"encoder.use_weights": use_weights, "encoder.init": init_preset}
    )


@dataclass
class RunResult:
    config: RunConfig
    run_dir: Path
    validation: MetricsReport | None
    test: MetricsReport | None
    final_loss: float | None
    resumed: bool = False

    def report_dict(self) -> dict:
        return {
            "format": REPORT_FORMAT,
            "config": self.config.to_flat(),
            "run_hash": self.config.run_hash(),
            "validation": None if self.validation is None else self.validation.to_dict(),
            "test": None if self.test is None else self.test.to_dict(),
            "final_loss": self.final_loss,
        }


def _derive_seeds(seed: int, n: int) -> list[int]:
    children = np.random.SeedSequence(seed).spawn(n)
    return [int(c.generate_state(1)[0]) for c in children]


# state.npz holds the structure state under no prefix and the optional
# attribute state under "attr_": <prefix>features_left,
# <prefix>features_right and <prefix>weight_<layer> per weight matrix
_STATE_PREFIXES = ("", "attr_")


def _save_state(path: Path, state: EmbeddingState, attr_state: EmbeddingState | None):
    arrays = {}
    for prefix, s in zip(_STATE_PREFIXES, (state, attr_state)):
        if s is not None:
            arrays[f"{prefix}features_left"] = s.features_left
            arrays[f"{prefix}features_right"] = s.features_right
            for i, w in enumerate(s.weights or ()):
                arrays[f"{prefix}weight_{i}"] = w
    write_atomic(path, lambda f: np.savez_compressed(f, **arrays))


def load_state(path: Path) -> tuple[EmbeddingState, EmbeddingState | None]:
    """(structure state, attribute state or None) saved in path; an
    archive that cannot be read or lacks an array is a ConfigError."""
    try:
        with open(path, "rb") as f, np.load(f) as data:
            def saved(prefix):  # only the attribute state is optional
                if prefix and f"{prefix}features_left" not in data:
                    return None
                weight = f"{prefix}weight_"
                layers = sorted(int(k[len(weight):]) for k in data.files if k.startswith(weight))
                return EmbeddingState(
                    features_left=data[f"{prefix}features_left"],
                    features_right=data[f"{prefix}features_right"],
                    weights=[data[f"{weight}{i}"] for i in layers] or None,
                )

            state, attr_state = (saved(prefix) for prefix in _STATE_PREFIXES)
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile, zlib.error) as exc:
        raise ConfigError(f"{path} is not a complete state archive "
                          f"({type(exc).__name__}: {exc}); re-train with --force") from None
    return state, attr_state


def prepare_pair(cfg: RunConfig) -> GraphPair:
    """Load, validate and role-split the dataset of a run config."""
    pair = load(cfg.dataset)
    require_valid(pair)
    alignment = split(
        pair.alignment,
        train_fraction=cfg.train_fraction,
        val_fraction_of_train=cfg.val_fraction,
        seed=cfg.split_seed,
    )
    return dataclasses.replace(pair, alignment=alignment)


# the inputs prepare_run built last, by their key, while a grid or an
# ablation runs in this process; None when inputs are built afresh
_shared: dict | None = None


@contextmanager
def _sharing_inputs():
    """Let prepare_run share its inputs between runs until the block
    ends, also when it raises."""
    global _shared
    _shared = {}
    try:
        yield
    finally:
        _shared = None


def _init_grid_worker(share: int) -> None:
    """Pool initializer: the worker's thread share, and inputs shared by
    its runs until the pool shuts down."""
    global _shared
    set_process_share(share)
    _shared = {}


def prepare_run(cfg: RunConfig):
    """The inputs of a run: its role-split pair and the pair's (left,
    right) propagation matrices. The matrices hold no trainable
    parameters, so training and final encoding share them.

    Inside a grid or an ablation, runs with the same dataset, split and
    adjacency config get the same inputs, built once; the matrices are
    then read-only, like the pair's arrays, so a run cannot change them
    for the next. A build that raises is not kept.
    """
    key = (cfg.dataset, cfg.adjacency, cfg.train_fraction, cfg.val_fraction, cfg.split_seed)
    if _shared is not None and key in _shared:
        return _shared[key]
    pair = prepare_pair(cfg)
    adjacencies = (
        build_adjacency(pair.left, cfg.adjacency),
        build_adjacency(pair.right, cfg.adjacency),
    )
    if _shared is not None:
        for adj in adjacencies:
            for arr in (adj.data, adj.indices, adj.indptr):
                arr.flags.writeable = False
        _shared.clear()  # one pair per process at a time
        _shared[key] = (pair, adjacencies)
    return pair, adjacencies


def _attribute_encoder(cfg: RunConfig, pair: GraphPair) -> EncoderConfig:
    """The attribute pathway's encoder: the structure encoder at the
    attribute width."""
    if pair.attributes_left is None or pair.attributes_right is None:
        raise ConfigError("score.beta < 1 but the dataset has no attribute tables")
    return replace(cfg.encoder, dim=pair.attributes_left.attribute_dim)


def encode(cfg: RunConfig, pair: GraphPair, adjacencies, state, attr_state=None):
    """Final embeddings of trained states: ((out_l, out_r), (a_l, a_r)).

    The attribute embeddings are (None, None) without an attribute
    state. A state whose layout disagrees with the config raises
    ConfigError.
    """
    out_l, out_r, _ = forward(*adjacencies, state, cfg.encoder)
    if attr_state is None:
        return (out_l, out_r), (None, None)
    a_l, a_r, _ = forward(*adjacencies, attr_state, _attribute_encoder(cfg, pair))
    return (out_l, out_r), (a_l, a_r)


def _train_pathways(cfg: RunConfig, pair: GraphPair, adjacencies):
    """Structure training plus the optional independent attribute run."""
    enc_seed, train_seed, attr_enc_seed, attr_train_seed = _derive_seeds(cfg.seed, 4)
    enc_cfg = replace(cfg.encoder, seed=enc_seed)
    train_cfg = replace(cfg.training, seed=train_seed)
    # derived first, so a dataset without attribute tables fails untrained
    attr_enc = None
    if cfg.score.beta < 1.0:
        attr_enc = replace(_attribute_encoder(cfg, pair), seed=attr_enc_seed, init=1.0)
    state, losses = train(pair, cfg.adjacency, enc_cfg, train_cfg, adjacencies=adjacencies)

    attr_state = None
    if attr_enc is not None:
        attr_train = replace(
            cfg.training,
            seed=attr_train_seed,
            margin=cfg.attribute_margin if cfg.attribute_margin is not None else cfg.training.margin,
        )
        attr_state, _ = train(
            pair,
            cfg.adjacency,
            attr_enc,
            attr_train,
            initial_features=(
                pair.attributes_left.features,
                pair.attributes_right.features,
            ),
            adjacencies=adjacencies,
        )
    return (state, attr_state, losses, *encode(cfg, pair, adjacencies, state, attr_state))


def _resume(cfg: RunConfig, run_dir: Path) -> RunResult | None:
    """The result persisted in run_dir, or None when there is none.

    A report that cannot be read, is not a complete report object, was
    written in another report format or records another run's hash
    counts as absent, and so does the report of a save_state run whose
    state.npz is gone: a warning names the reason and the run is
    recomputed.
    """
    report_path = run_dir / "report.json"
    if not report_path.is_file():
        return None
    try:
        data = json.loads(report_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or encoding
        warnings.warn(f"{report_path} cannot be read ({exc}); recomputing the run")
        return None
    if not isinstance(data, dict):
        warnings.warn(f"{report_path} holds a JSON {type(data).__name__}, "
                      "not a report object; recomputing the run")
        return None
    # a report copied in from another run directory belongs to that run
    for key, expected in (("format", REPORT_FORMAT), ("run_hash", cfg.run_hash())):
        if data.get(key) != expected:
            warnings.warn(
                f"{report_path} has {key} {data.get(key)!r}, "
                f"expected {expected!r}; recomputing the run"
            )
            return None
    try:
        validation, test = (
            None if data[split] is None else MetricsReport.from_dict(data[split])
            for split in ("validation", "test")
        )
        final_loss = data["final_loss"]
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        warnings.warn(f"{report_path} is not a complete report "
                      f"({type(exc).__name__}: {exc}); recomputing the run")
        return None
    if cfg.save_state and not (run_dir / "state.npz").is_file():
        warnings.warn(f"{run_dir} has a report but no state.npz; recomputing the run")
        return None
    return RunResult(cfg, run_dir, validation, test, final_loss, resumed=True)


def write_atomic(path: Path, content) -> None:
    """Write content to path through a temporary sibling and os.replace,
    so a reader sees the old file or the whole new one, never a part.

    content is text, or a function that writes the file's bytes to the
    binary file object it is given.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            if callable(content):
                content(f)
            else:
                f.write(content.encode("utf-8"))
        os.replace(tmp, path)
    except BaseException:  # a full disk or Ctrl-C leaves no temp file behind
        tmp.unlink(missing_ok=True)
        raise


def run_single(cfg: RunConfig, runs_root: Path, force: bool = False) -> RunResult:
    """Execute one run end to end and persist its artifacts.

    Returns the cached result when the run directory already holds a
    usable report (unless force is set). Failures persist an error
    record in the run directory and re-raise; a later success removes
    it.
    """
    runs_root = Path(runs_root)
    run_dir = runs_root / cfg.run_hash()
    if not force:
        cached = _resume(cfg, run_dir)
        if cached is not None:
            return cached
    run_dir.mkdir(parents=True, exist_ok=True)
    # a recompute that fails must not leave the old report to resume from
    (run_dir / "report.json").unlink(missing_ok=True)
    write_atomic(run_dir / "config.txt", cfg.canonical_text())
    try:
        pair, adjacencies = prepare_run(cfg)
        state, attr_state, losses, (out_l, out_r), (a_l, a_r) = _train_pathways(
            cfg, pair, adjacencies
        )
        validation, test = (
            evaluate(
                out_l, out_r, pair, cfg.score,
                policy=cfg.candidate_policy, split=split,
                attr_emb_left=a_l, attr_emb_right=a_r,
            ) if wanted else None
            for split, wanted in (
                (Role.VALIDATION, len(pair.alignment.validation_pairs) > 0),
                (Role.TEST, cfg.evaluate_test),
            )
        )
        write_atomic(run_dir / "loss_trace.tsv", loss_trace_tsv(losses))
        if cfg.save_state:
            _save_state(run_dir / "state.npz", state, attr_state)
        result = RunResult(
            config=cfg,
            run_dir=run_dir,
            validation=validation,
            test=test,
            final_loss=losses[-1] if losses else None,
        )
        # the report marks a complete run, so it appears whole or not at all
        write_atomic(
            run_dir / "report.json",
            json.dumps(result.report_dict(), indent=2, sort_keys=True) + "\n",
        )
        (run_dir / "error.json").unlink(missing_ok=True)
        return result
    except Exception as exc:
        category = exc.category if isinstance(exc, KgalignError) else "internal"
        record = {
            "category": category,
            "message": str(exc),
            "config": cfg.to_flat(),
            "traceback": traceback.format_exc(),
        }
        write_atomic(
            run_dir / "error.json", json.dumps(record, indent=2, sort_keys=True) + "\n"
        )
        raise


def enumerate_grid(
    base: RunConfig, axes: dict[str, list] | None = None, cells=ABLATION_CELLS
) -> list[RunConfig]:
    """All run configs of the search: Cartesian product of the axes,
    repeated for every ablation cell."""
    axes = dict(axes if axes is not None else DEFAULT_GRID_AXES)
    for key, values in axes.items():
        if not values:
            raise ConfigError(f"grid axis {key!r} is empty")
    keys = sorted(axes)
    configs = []
    for use_weights, init_preset in cells:
        cell_cfg = with_cell(base, use_weights, init_preset)
        for combo in product(*(axes[k] for k in keys)):
            overrides = dict(zip(keys, combo))
            overrides["save_state"] = False
            overrides["evaluate_test"] = False
            configs.append(apply_overrides(cell_cfg, overrides))
    # values equal once typed (1 and 1.0 on a float field) run a config twice
    flats = [cfg.to_flat() for cfg in configs]
    for key in keys:
        if len({flat.get(key) for flat in flats}) < len(axes[key]):
            raise ConfigError(f"grid axis {key!r} repeats a value: {axes[key]}")
    return configs


def _grid_worker(args):
    cfg, runs_root = args
    try:
        result = run_single(cfg, runs_root)
        h1 = None
        if result.validation is not None:
            h1 = result.validation.mean.hits_at[1]
        return (cfg.run_hash(), h1, None)
    except Exception as exc:  # recorded, grid continues
        return (cfg.run_hash(), None, f"{type(exc).__name__}: {exc}")


@dataclass
class GridResult:
    best_per_cell: dict[tuple[bool, str], RunConfig]
    leaderboard_path: Path
    n_runs: int
    n_failures: int


def run_grid(
    base: RunConfig,
    runs_root: Path,
    axes: dict[str, list] | None = None,
    workers: int = 1,
) -> GridResult:
    """Run the full search and select the best config per ablation cell
    by validation H@1 (mean of the two directions).

    Individual run failures are recorded on the leaderboard and the grid
    continues. The leaderboard file is written only by this process,
    which also prints a progress line to stderr per finished run.
    """
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    configs = enumerate_grid(base, axes)
    runs_root = Path(runs_root)
    runs_root.mkdir(parents=True, exist_ok=True)
    jobs = [(cfg, runs_root) for cfg in configs]
    by_hash = {cfg.run_hash(): cfg for cfg in configs}
    best: dict[tuple[bool, str], tuple[float, RunConfig]] = {}
    n_failures = 0
    leaderboard = runs_root / "leaderboard.tsv"
    # the ledger is append-only while the grid runs, written by this
    # process alone; workers only produce (hash, h1, error) outcomes
    start = time.perf_counter()
    with leaderboard.open("w", encoding="utf-8") as ledger, ExitStack() as stack:
        ledger.write("run_hash\tuse_weights\tinit\tvalidation_h1\terror\n")
        if workers > 1:
            # each worker gets its share of the cores for its own threads
            pool = stack.enter_context(ProcessPoolExecutor(
                max_workers=workers,
                initializer=_init_grid_worker,
                initargs=(max(1, thread_count() // workers),),
            ))
            outcomes = pool.map(_grid_worker, jobs)
        else:
            stack.enter_context(_sharing_inputs())
            outcomes = map(_grid_worker, jobs)
        for done, (run_hash, h1, err) in enumerate(outcomes, start=1):
            cfg = by_hash[run_hash]
            cell = (cfg.encoder.use_weights, cfg.encoder.init)
            ledger.write(
                f"{run_hash}\t{cfg.encoder.use_weights}\t{cfg.encoder.init}"
                f"\t{'' if h1 is None else repr(h1)}\t{err or ''}\n"
            )
            ledger.flush()
            if err is not None:
                n_failures += 1
            elif h1 is not None and (cell not in best or h1 > best[cell][0]):
                best[cell] = (h1, cfg)
            elapsed = time.perf_counter() - start
            eta = elapsed / done * (len(jobs) - done)
            print(f"grid: {done}/{len(jobs)} runs, {n_failures} failed, "
                  f"{elapsed:.1f}s elapsed, ETA {eta:.1f}s", file=sys.stderr, flush=True)

    best_cfgs = {
        cell: apply_overrides(cfg, {"save_state": True, "evaluate_test": True})
        for cell, (_, cfg) in best.items()
    }
    best_flat = {
        f"weights={int(c[0])},init={c[1]}": cfg.to_flat() for c, cfg in best_cfgs.items()
    }
    write_atomic(
        runs_root / "grid_best.json", json.dumps(best_flat, indent=2, sort_keys=True) + "\n"
    )
    return GridResult(
        best_per_cell=best_cfgs,
        leaderboard_path=leaderboard,
        n_runs=len(configs),
        n_failures=n_failures,
    )


@dataclass
class AblationCell:
    use_weights: bool
    init_preset: str
    dataset: str
    n_seeds: int
    # direction -> metric -> {"mean": ..., "std": ...}; std is None for a
    # single seed
    aggregates: dict[str, dict[str, dict[str, float | None]]]
    run_hashes: list[str]

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


# metric -> (table label, its value in one direction's metrics)
_ABLATION_METRICS = {
    "h1": ("H@1", lambda m: m.hits_at[1]),
    "h10": ("H@10", lambda m: m.hits_at[10]),
    "mr": ("MR", lambda m: m.mean_rank),
    "mrr": ("MRR", lambda m: m.mrr),
}


def _aggregate(reports: list[MetricsReport]) -> dict:
    def stats(vals):
        vals = np.array(vals)
        return {
            "mean": float(vals.mean()),
            "std": float(np.std(vals, ddof=1)) if len(vals) >= 2 else None,
        }

    return {
        direction: {
            metric: stats([value(r.direction(direction)) for r in reports])
            for metric, (_, value) in _ABLATION_METRICS.items()
        }
        for direction in DIRECTIONS
    }


def run_ablation(
    base: RunConfig,
    datasets: list[DatasetDescriptor],
    runs_root: Path,
    n_seeds: int | None = None,
    cells=ABLATION_CELLS,
    use_tuned: bool = True,
) -> list[AblationCell]:
    """Seed-aggregated results for every dataset and ablation cell.

    Hyperparameters per cell come from the tuned presets unless
    use_tuned is off (then the base config's values apply everywhere).
    """
    runs_root = Path(runs_root)
    n = n_seeds if n_seeds is not None else base.n_seeds
    if n < 1:
        raise ConfigError("n_seeds must be at least 1")
    if not base.evaluate_test:
        raise ConfigError("ablation runs must evaluate the test split")
    results = []
    with _sharing_inputs():
        for desc in datasets:
            ds_base = apply_overrides(base, config_to_flat(desc, "dataset."))
            for use_weights, init_preset in cells:
                cfg = with_cell(ds_base, use_weights, init_preset)
                if use_tuned and not desc.is_toy:
                    cfg = apply_overrides(cfg, tuned_hyperparameters(
                        desc.family, desc.subset, use_weights, init_preset))
                seed_cfgs = [apply_overrides(cfg, {"seed": base.seed + s}) for s in range(n)]
                reports = [run_single(seed_cfg, runs_root).test for seed_cfg in seed_cfgs]
                results.append(
                    AblationCell(
                        use_weights=use_weights,
                        init_preset=init_preset,
                        dataset=desc.key(),
                        n_seeds=n,
                        aggregates=_aggregate(reports),
                        run_hashes=[seed_cfg.run_hash() for seed_cfg in seed_cfgs],
                    )
                )
    return results


def ablation_table(cells: list[AblationCell], direction: str = "left_to_right") -> str:
    """Aligned-column text table, one block per metric, one column per
    ablation cell; entries are mean or mean +- std over seeds."""
    cell_keys = list(dict.fromkeys((c.use_weights, c.init_preset) for c in cells))
    datasets = list(dict.fromkeys(c.dataset for c in cells))
    by_key = {(c.dataset, c.use_weights, c.init_preset): c for c in cells}
    headers = [f"{'weights' if w else 'no-weights'}/{init}" for w, init in cell_keys]
    widths = [max(len(h), 18) for h in headers]
    col0 = max([len(d) for d in datasets] + [len("dataset")])

    def row(first, entries):
        return first.ljust(col0) + "  " + "  ".join(e.rjust(w) for e, w in zip(entries, widths))

    def entry(c, metric):
        if c is None:
            return "-"
        agg = c.aggregates[direction][metric]
        digits = 4 if metric == "mrr" else 2
        text = f"{agg['mean']:.{digits}f}"
        return text if agg["std"] is None else text + f" +- {agg['std']:.{digits}f}"

    lines = []
    for metric, (label, _) in _ABLATION_METRICS.items():
        lines.append(f"[{label}] ({direction})")
        lines.append(row("dataset", headers))
        for ds in datasets:
            lines.append(row(ds, [entry(by_key.get((ds, *key)), metric) for key in cell_keys]))
        lines.append("")
    return "\n".join(lines)
