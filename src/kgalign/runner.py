"""Experiment orchestration: single runs, grid search, ablation tables.

Every run is keyed by a hash of its fully resolved configuration
(including the seed), and its artifacts live under
runs_root/<hash>/: config.txt, report.json, loss_trace.tsv, the
optional state.npz, and the evaluation-<policy>-<split>.json files that
evaluate_run writes from config.txt and state.npz alone. A run whose
report exists is not recomputed, which makes large grids resumable
after a crash; a failure leaves error.json instead of a report. No
other module reads or writes a run directory.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import pickle
import sys
import time
import traceback
import warnings
import zipfile
import zlib
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, replace
from itertools import product, repeat
from pathlib import Path

import numpy as np

from .adjacency import AdjacencyConfig, build_adjacency
from .configfile import config_from_flat, config_to_flat, format_config, read_config_file
from .datasets import DatasetDescriptor, load, split
from .encoder import EmbeddingState, EncoderConfig, forward
from .errors import ConfigError, KgalignError
from .evaluation import CANDIDATE_POLICIES, DIRECTIONS, MetricsReport, ScoreConfig, evaluate, text_table
from .graphs import GraphPair, Role, require_valid
from .parallel import set_process_share, thread_count
from .presets import ABLATION_CELLS, tuned_hyperparameters
from .training import TrainConfig, advance, loss_trace_tsv, start

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
        if not self.dataset.is_toy and self.dataset.root_path is None:
            raise ConfigError(f"dataset {self.dataset.key()} needs dataset.root, its directory")
        if self.dataset.is_toy and self.score.beta < 1.0:
            raise ConfigError(f"score.beta = {self.score.beta} blends in attribute tables, "
                              f"which toy dataset {self.dataset.key()} does not have")
        if self.candidate_policy not in CANDIDATE_POLICIES:
            raise ConfigError(f"candidate_policy must be one of {CANDIDATE_POLICIES}, "
                              f"got {self.candidate_policy!r}")
        for name in ("seed", "split_seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative, got {getattr(self, name)}")
        if self.n_seeds < 1:
            raise ConfigError(f"n_seeds must be at least 1, got {self.n_seeds}")
        if self.attribute_margin is not None and not 0 <= self.attribute_margin < math.inf:
            raise ConfigError(
                f"attribute_margin must be non-negative and finite, got {self.attribute_margin}"
            )
        # the rule split applies, checked before any dataset is read
        for name, f in (("train_fraction", self.train_fraction),
                        ("val_fraction", self.val_fraction)):
            if not 0.0 < f < 1.0:
                raise ConfigError(f"{name} must lie strictly between 0 and 1, got {f}")

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


_CELL_KEYS = ("encoder.use_weights", "encoder.init")  # what an ablation cell sets
# what every grid run sets: it keeps no state and is not tested; run_grid
# turns both on for each cell's best
_GRID_RUN_KEYS = {"save_state": False, "evaluate_test": False}


def with_cell(cfg: RunConfig, use_weights: bool, init_preset: str) -> RunConfig:
    return apply_overrides(cfg, dict(zip(_CELL_KEYS, (use_weights, init_preset))))


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


# state.npz holds one state per pathway of _pathways, each under its
# prefix: <prefix>features_left, <prefix>features_right and
# <prefix>weight_<layer> per weight matrix
_STATE_PREFIXES = ("", "attr_")


def _save_state(path: Path, states: list[EmbeddingState]):
    arrays = {}
    for prefix, s in zip(_STATE_PREFIXES, states):
        arrays[f"{prefix}features_left"] = s.features_left
        arrays[f"{prefix}features_right"] = s.features_right
        for i, w in enumerate(s.weights):
            arrays[f"{prefix}weight_{i}"] = w
    write_atomic(path, lambda f: np.savez(f, **arrays))


def load_state(path: Path) -> list[EmbeddingState]:
    """The pathway states saved in path, the structure's first; an
    archive that cannot be read or lacks an array is a ConfigError."""
    states = []
    try:
        with open(path, "rb") as f, np.load(f) as data:
            for prefix in _STATE_PREFIXES:
                if prefix and f"{prefix}features_left" not in data:
                    break  # only the structure state is always there
                weight = f"{prefix}weight_"
                layers = sorted(int(k[len(weight):]) for k in data.files if k.startswith(weight))
                states.append(EmbeddingState(
                    features_left=data[f"{prefix}features_left"],
                    features_right=data[f"{prefix}features_right"],
                    weights=[data[f"{weight}{i}"] for i in layers],
                ))
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile, zlib.error) as exc:
        raise ConfigError(f"{path} is not a complete state archive "
                          f"({type(exc).__name__}: {exc}); re-train with --force") from None
    return states


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
    return replace(pair, alignment=alignment)


# the inputs prepare_run built last, by their key, while a grid or an
# ablation runs in this process; None when inputs are built afresh
_shared: dict | None = None


def _init_worker(share: int) -> None:
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


def _pathways(cfg: RunConfig, pair: GraphPair) -> list[tuple]:
    """(encoder config, training config, initial features) per pathway:
    the structure, then, when score.beta < 1, the attribute tables'
    independent embedding, each with its own seeds. A blend on a dataset
    without attribute tables is a ConfigError."""
    enc_seed, train_seed, attr_enc_seed, attr_train_seed = _derive_seeds(cfg.seed, 4)
    pathways = [(replace(cfg.encoder, seed=enc_seed), replace(cfg.training, seed=train_seed), None)]
    if cfg.score.beta < 1.0:
        left, right = pair.attributes_left, pair.attributes_right
        if left is None or right is None:
            raise ConfigError("score.beta < 1 but the dataset has no attribute tables")
        margin = cfg.training.margin if cfg.attribute_margin is None else cfg.attribute_margin
        pathways.append((
            replace(cfg.encoder, dim=left.attribute_dim, seed=attr_enc_seed),
            replace(cfg.training, seed=attr_train_seed, margin=margin),
            (left.features, right.features),
        ))
    return pathways


def encode(pathways: list[tuple], adjacencies, states: list[EmbeddingState]) -> list[tuple]:
    """Final embeddings of trained states, one (left, right) per pathway;
    a state count other than the pathway count, or a state whose layout
    disagrees with its pathway's encoder, is a ConfigError."""
    if len(states) != len(pathways):
        raise ConfigError(f"pathways: {len(states)} in the state, {len(pathways)} in the config")
    return [forward(*adjacencies, state, enc_cfg)[:2]
            for (enc_cfg, _, _), state in zip(pathways, states)]


def _score(cfg: RunConfig, pair: GraphPair, embeddings: list[tuple], split: Role,
           policy: str | None = None, tie_diagnostics: bool = False) -> MetricsReport:
    """evaluate() of encode's embeddings on split under policy (default:
    the run's own); a second pathway's are the attribute embeddings."""
    attributes = embeddings[1] if len(embeddings) > 1 else (None, None)
    return evaluate(*embeddings[0], pair, cfg.score, policy=policy or cfg.candidate_policy,
                    split=split, attr_emb_left=attributes[0], attr_emb_right=attributes[1],
                    tie_diagnostics=tie_diagnostics)


def _sibling_key(cfg: RunConfig) -> RunConfig:
    """What cfg shares with the configs that differ from it in
    training.n_epochs alone: its siblings, which follow one trajectory."""
    return replace(cfg, training=replace(cfg.training, n_epochs=0))


# the pathways' trajectories the last run of the job in progress left, by
# the sibling key of its config; None outside a job with more than one run
_carried: dict | None = None


def _train_pathways(cfg: RunConfig, pathways: list[tuple], pair: GraphPair, adjacencies):
    """Trains every pathway; returns (their states, the structure losses).

    Inside a job, the pathways continue the trajectories a shorter
    sibling left, and leave theirs for the next.
    """
    key = _sibling_key(cfg)
    # taken, not read, so a run that raises hands nothing on
    trajectories = (_carried or {}).pop(key, None) or [
        start(pair, cfg.adjacency, enc_cfg, train_cfg, features, adjacencies)
        for enc_cfg, train_cfg, features in pathways
    ]
    for trajectory in trajectories:
        advance(trajectory, cfg.training.n_epochs)
    if _carried is not None:
        _carried[key] = trajectories
    return [t.state for t in trajectories], trajectories[0].losses


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
    problem = "cannot be read"  # until the JSON is parsed
    try:
        data = json.loads(report_path.read_text(encoding="utf-8"))
        problem = "is not a complete report of this run"
        if not isinstance(data, dict):
            raise TypeError(f"a JSON {type(data).__name__}, not a report object")
        # a report copied in from another run directory belongs to that run
        for key, expected in (("format", REPORT_FORMAT), ("run_hash", cfg.run_hash())):
            if data.get(key) != expected:
                raise ValueError(f"{key} {data.get(key)!r}, expected {expected!r}")
        validation, test = (
            None if data[split] is None else MetricsReport.from_dict(data[split])
            for split in ("validation", "test")
        )
        final_loss = data["final_loss"]
        if cfg.save_state and not (run_dir / "state.npz").is_file():
            raise FileNotFoundError(f"no state.npz in {run_dir}")
    # OSError: unreadable file or no state; ValueError: bad JSON, encoding or key
    except (OSError, KeyError, TypeError, AttributeError, ValueError) as exc:
        warnings.warn(f"{report_path} {problem} ({type(exc).__name__}: {exc}); "
                      "recomputing the run")
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


def write_json(path: Path, obj) -> None:
    """Write obj to path as JSON, indented with sorted keys and a final
    newline, through write_atomic."""
    write_atomic(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


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
        has_validation = len(pair.alignment.validation_pairs) > 0
        if not (has_validation or cfg.save_state or cfg.evaluate_test):
            # every grid run is such a run
            raise ConfigError(
                f"val_fraction = {cfg.val_fraction} leaves no validation pairs, and with "
                "save_state and evaluate_test off the run would keep only its loss trace"
            )
        # built before training, so a blend without attribute tables fails untrained
        pathways = _pathways(cfg, pair)
        states, losses = _train_pathways(cfg, pathways, pair, adjacencies)
        embeddings = encode(pathways, adjacencies, states)
        validation, test = (
            _score(cfg, pair, embeddings, split) if wanted else None
            for split, wanted in ((Role.VALIDATION, has_validation), (Role.TEST, cfg.evaluate_test))
        )
        write_atomic(run_dir / "loss_trace.tsv", loss_trace_tsv(losses))
        if cfg.save_state:
            _save_state(run_dir / "state.npz", states)
        result = RunResult(cfg, run_dir, validation, test, losses[-1] if losses else None)
        # the report marks a complete run, so it appears whole or not at all
        write_json(run_dir / "report.json", result.report_dict())
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
        write_json(run_dir / "error.json", record)
        raise


def evaluate_run(run_dir: Path, policy: str | None = None, split: Role = Role.TEST,
                 tie_diagnostics: bool = False) -> tuple[MetricsReport, Path]:
    """(report, path): run_dir's state re-scored under policy (default:
    the run's own) on split, written to path. A missing config.txt or
    state.npz, or a state.npz that does not fit config.txt, is a
    ConfigError naming the file."""
    run_dir = Path(run_dir)
    config_path, state_path = run_dir / "config.txt", run_dir / "state.npz"
    cfg = RunConfig.from_file(config_path)
    if not state_path.is_file():
        # save_state is part of the run hash, so turning it on names another run
        hint = (
            f"train {config_path} again with --runs-root {run_dir.parent} to recompute it"
            if cfg.save_state else
            f"it ran with save_state = false; training {config_path} with save_state = true "
            "writes a new run directory, which evaluate can then read"
        )
        raise ConfigError(f"no state.npz in {run_dir}; {hint}")
    pair, adjacencies = prepare_run(cfg)
    # outside the try: a dataset that lost its attribute tables is its own error
    pathways = _pathways(cfg, pair)
    states = load_state(state_path)
    try:
        embeddings = encode(pathways, adjacencies, states)
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"{state_path} does not fit {config_path}: {exc}") from None
    report = _score(cfg, pair, embeddings, split, policy, tie_diagnostics)
    path = run_dir / f"evaluation-{report.candidate_policy}-{report.split}.json"
    write_json(path, report.to_dict())
    return report, path


def enumerate_grid(base: RunConfig, axes: dict[str, list] | None = None) -> list[RunConfig]:
    """All run configs of the search: Cartesian product of the axes,
    repeated for every ablation cell. An axis that is empty, repeats a
    value once typed (1 and 1.0 on a float key), or sets a key that each
    cell or every grid run sets itself is refused before any is built."""
    axes = axes if axes is not None else DEFAULT_GRID_AXES
    for key, values in axes.items():
        if not values:
            raise ConfigError(f"grid axis {key!r} is empty")
        if len({apply_overrides(base, {key: v}).run_hash() for v in values}) < len(values):
            raise ConfigError(f"grid axis {key!r} repeats a value: {values}")
        if key in _CELL_KEYS:
            raise ConfigError(
                f"grid axis {key!r} sets a key of the ablation cells, so two cells run one config")
        if key in _GRID_RUN_KEYS:
            raise ConfigError(f"grid axis {key!r} sets a key that every grid run sets to false; "
                              "grid_best.json gives each cell's best with it true")
    keys = sorted(axes)
    return [
        apply_overrides(base, {**dict(zip(_CELL_KEYS, cell)), **dict(zip(keys, values)),
                               **_GRID_RUN_KEYS})
        for cell in ABLATION_CELLS
        for values in product(*(axes[k] for k in keys))
    ]


def _outcome(cfg: RunConfig, runs_root: Path):
    """run_single's result, or the exception it raised."""
    try:
        return run_single(cfg, runs_root)
    except Exception as exc:
        # a pool worker sends it back pickled, and one that does not
        # unpickle would break the pool: its stand-in renders the same
        # "TypeName: message" in every process
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            return _stand_in(type(exc).__name__, str(exc))
        return exc


def _stand_in(name: str, message: str) -> Exception:
    """An exception of a class named name, with message as its text; it
    pickles as this call."""
    cls = type(name, (Exception,), {"__reduce__": lambda self: (_stand_in, (name, message))})
    return cls(message)


def _jobs(configs: list[RunConfig]) -> list[list[int]]:
    """The indices of configs in jobs of siblings, each job in ascending
    epoch order, the jobs in the order of their first config."""
    jobs: dict[RunConfig, list[int]] = {}
    for i, cfg in enumerate(configs):
        jobs.setdefault(_sibling_key(cfg), []).append(i)
    return [sorted(job, key=lambda i: configs[i].training.n_epochs) for job in jobs.values()]


def _run_job(job: list[RunConfig], runs_root: Path) -> list:
    """The outcomes of a job's runs, in its order. A run continues the
    last trajectory a shorter sibling left whole: a sibling served from
    its report leaves none, and one that raises while training takes its
    trajectory with it. The last trajectory ends with the job.
    """
    global _carried
    _carried = {} if len(job) > 1 else None
    try:
        return [_outcome(cfg, runs_root) for cfg in job]
    finally:
        _carried = None


def _execute(label: str, configs: list[RunConfig], runs_root: Path, workers: int):
    """Yield (config, RunResult or the exception its run raised) for
    every config, in order, and print a progress line to stderr per run.

    Configs that differ only in training.n_epochs form one job, which
    runs in one process and trains once, to its largest epoch count.
    More than one worker runs the jobs in a process pool of at most one
    worker per job, each worker with its share of the cores; one runs
    them in this process. The runs of a process share their inputs until
    the caller stops, also part-way. The ETA weighs each job by the
    epochs it trains, its largest count.
    """
    global _shared
    began = time.perf_counter()
    n_failures = 0
    jobs = _jobs(configs)
    job_configs = ([configs[i] for i in job] for job in jobs)
    job_epochs = [max(1, configs[job[-1]].training.n_epochs) for job in jobs]
    epochs_left = sum(job_epochs)
    with ExitStack() as stack:
        if workers > 1:
            processes = min(workers, len(jobs))
            pool = stack.enter_context(ProcessPoolExecutor(
                max_workers=processes,
                initializer=_init_worker,
                initargs=(max(1, thread_count() // processes),),
            ))
            finished = zip(jobs, job_epochs, pool.map(_run_job, job_configs, repeat(runs_root)))
        else:
            _shared = {}
            finished = zip(jobs, job_epochs, map(_run_job, job_configs, repeat(runs_root)))
        try:
            outcomes = {}
            epochs_done = 0
            for done, cfg in enumerate(configs, start=1):
                # jobs come in the order of their first configs, so this
                # config's job is among those up to its own
                while done - 1 not in outcomes:
                    job, epochs, job_outcomes = next(finished)
                    outcomes.update(zip(job, job_outcomes))
                    epochs_done += epochs
                    epochs_left -= epochs
                outcome = outcomes.pop(done - 1)
                n_failures += isinstance(outcome, Exception)
                elapsed = time.perf_counter() - began
                eta = elapsed * epochs_left / epochs_done
                print(f"{label}: {done}/{len(configs)} runs, {n_failures} failed, "
                      f"{elapsed:.1f}s elapsed, ETA {eta:.1f}s", file=sys.stderr, flush=True)
                yield cfg, outcome
        finally:
            _shared = None


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
    best: dict[tuple[bool, str], tuple[float, RunConfig]] = {}
    n_failures = 0
    leaderboard = runs_root / "leaderboard.tsv"
    # the ledger is append-only while the grid runs, written by this
    # process alone
    with leaderboard.open("w", encoding="utf-8") as ledger:
        ledger.write("run_hash\tuse_weights\tinit\tvalidation_h1\terror\n")
        for cfg, outcome in _execute("grid", configs, runs_root, workers):
            failed = isinstance(outcome, Exception)
            h1 = None if failed or outcome.validation is None else outcome.validation.mean.hits_at[1]
            err = f"{type(outcome).__name__}: {outcome}" if failed else ""
            ledger.write(
                f"{cfg.run_hash()}\t{cfg.encoder.use_weights}\t{cfg.encoder.init}"
                f"\t{'' if h1 is None else repr(h1)}\t{err}\n"
            )
            ledger.flush()
            n_failures += failed
            cell = (cfg.encoder.use_weights, cfg.encoder.init)
            if h1 is not None and (cell not in best or h1 > best[cell][0]):
                best[cell] = (h1, cfg)

    best_cfgs = {
        cell: apply_overrides(cfg, dict.fromkeys(_GRID_RUN_KEYS, True))
        for cell, (_, cfg) in best.items()
    }
    best_flat = {
        f"weights={int(c[0])},init={c[1]}": cfg.to_flat() for c, cfg in best_cfgs.items()
    }
    write_json(runs_root / "grid_best.json", best_flat)
    return GridResult(
        best_per_cell=best_cfgs,
        leaderboard_path=leaderboard,
        n_runs=len(configs),
        n_failures=n_failures,
    )


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
    use_tuned: bool = True,
) -> list[dict]:
    """Seed-aggregated results for every dataset and ablation cell: the
    entries of ablation.json, each with use_weights, init_preset,
    dataset, n_seeds, run_hashes and aggregates (direction -> metric ->
    {"mean": ..., "std": ...}; std is None for a single seed).

    Hyperparameters per cell come from the tuned presets unless
    use_tuned is off (then the base config's values apply everywhere).
    The first failed run ends the ablation with that run's exception.
    """
    n = n_seeds if n_seeds is not None else base.n_seeds
    # only --seeds can be under 1: RunConfig rejects such a config's n_seeds
    if n < 1:
        raise ConfigError(f"--seeds must be at least 1, got {n}")
    if not base.evaluate_test:
        raise ConfigError("ablation runs must evaluate the test split")
    cells, configs = [], []
    for desc in datasets:
        ds_base = apply_overrides(base, config_to_flat(desc, "dataset."))
        for use_weights, init_preset in ABLATION_CELLS:
            cfg = with_cell(ds_base, use_weights, init_preset)
            if use_tuned and not desc.is_toy:
                cfg = apply_overrides(cfg, tuned_hyperparameters(
                    desc.family, desc.subset, use_weights, init_preset))
            seed_cfgs = [apply_overrides(cfg, {"seed": base.seed + s}) for s in range(n)]
            configs += seed_cfgs
            cells.append({"use_weights": use_weights, "init_preset": init_preset,
                          "dataset": desc.key(), "n_seeds": n,
                          "run_hashes": [c.run_hash() for c in seed_cfgs]})
    reports = []
    for _, outcome in _execute("ablate", configs, runs_root, workers=1):
        if isinstance(outcome, Exception):
            raise outcome
        reports.append(outcome.test)
    for i, cell in enumerate(cells):
        cell["aggregates"] = _aggregate(reports[i * n:(i + 1) * n])
    return cells


def ablation_table(cells: list[dict], direction: str = "left_to_right") -> str:
    """Aligned-column text table, one block per metric, one column per
    ablation cell, each at least 18 wide; entries are mean or
    mean +- std over seeds."""
    cell_keys = list(dict.fromkeys((c["use_weights"], c["init_preset"]) for c in cells))
    datasets = list(dict.fromkeys(c["dataset"] for c in cells))
    by_key = {(c["dataset"], c["use_weights"], c["init_preset"]): c for c in cells}
    headers = [f"{'weights' if w else 'no-weights'}/{init}" for w, init in cell_keys]

    def entry(c, metric):
        if c is None:
            return "-"
        agg = c["aggregates"][direction][metric]
        digits = 4 if metric == "mrr" else 2
        text = f"{agg['mean']:.{digits}f}"
        return text if agg["std"] is None else text + f" +- {agg['std']:.{digits}f}"

    lines = []
    for metric, (label, _) in _ABLATION_METRICS.items():
        rows = [("dataset", *(f"{h:>18}" for h in headers))]
        rows += [(ds, *(entry(by_key.get((ds, *key)), metric) for key in cell_keys))
                 for ds in datasets]
        lines += [f"[{label}] ({direction})", text_table(rows), ""]
    return "\n".join(lines)
