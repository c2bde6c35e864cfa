"""Command line interface.

Commands: stats, train, evaluate, grid, ablate. Exit code 0 on success;
failures print a one-line JSON error record to stderr and exit with a
code mapped from the error category.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .configfile import format_value, read_config_file
from .datasets import DatasetDescriptor, statistics_for
from .errors import ConfigError, KgalignError
from .evaluation import CANDIDATE_POLICIES, DIRECTIONS, text_table
from .graphs import Role
from .runner import (
    DEFAULT_GRID_AXES,
    RunConfig,
    ablation_table,
    evaluate_run,
    run_ablation,
    run_grid,
    run_single,
    write_atomic,
    write_json,
)

EXIT_CODES = {
    "config": 2,
    "dataset": 3,
    "validation": 4,
    "numeric": 5,
    "internal": 1,
}


def _descriptor_from_args(args) -> DatasetDescriptor:
    family, subset = args.family, args.subset
    if subset is None:
        family, _, subset = family.partition(":")
        if not subset:
            raise ConfigError(
                "dataset must be given as '<family> <subset>' or '<family>:<subset>'"
            )
    root = Path(args.root) if args.root else None
    return DatasetDescriptor(family=family, subset=subset, root_path=root)


def cmd_stats(args) -> int:
    stats = statistics_for(_descriptor_from_args(args))
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    columns = ("triples", "entities", "relations")
    rows = [("side", *columns)]
    rows += [(side, *(f"{stats[side][c]:,}" for c in columns)) for side in ("left", "right")]
    print(text_table(rows))
    print(f"alignments: {stats['alignments']:,}")
    if stats["symmetrized_alignments"] is not None:
        print(f"symmetrized alignments: {stats['symmetrized_alignments']:,}")
    return 0


def cmd_train(args) -> int:
    cfg = RunConfig.from_file(args.config)
    result = run_single(cfg, Path(args.runs_root), force=args.force)
    status = "resumed" if result.resumed else "completed"
    print(f"run {result.config.run_hash()} {status}: {result.run_dir}")
    if result.final_loss is not None:
        print(f"final train loss: {result.final_loss:.6f}")
    if result.validation is not None:
        print("validation metrics")
        print(result.validation.to_text())
    if result.test is not None:
        print("test metrics")
        print(result.test.to_text())
    return 0


def cmd_evaluate(args) -> int:
    report, path = evaluate_run(Path(args.run_dir), args.policy, Role(args.split),
                                args.tie_diagnostics)
    print(report.to_text())
    print(f"written: {path}")
    return 0


def cmd_grid(args) -> int:
    flat = read_config_file(args.config)
    axes = {
        key[len("grid."):]: values
        for key, values in flat.items()
        if key.startswith("grid.")
    }
    base = RunConfig.from_flat(flat, source=args.config)
    try:
        result = run_grid(base, Path(args.runs_root), axes=axes or None, workers=args.workers)
    except ConfigError as exc:
        # an axis refusal names its axis; the prefix names the axis's line
        axis = [key for key in axes if str(exc).startswith(f"grid axis {key!r} ")]
        if not axis:
            raise
        raise ConfigError(f"{args.config}:{flat.lines['grid.' + axis[0]]}: {exc}") from None
    print(f"grid finished: {result.n_runs} runs, {result.n_failures} failures")
    print(f"leaderboard: {result.leaderboard_path}")
    for (weights, init), cfg in sorted(result.best_per_cell.items()):
        flat = cfg.to_flat()
        values = " ".join(f"{k}={format_value(flat[k])}" for k in sorted(axes or DEFAULT_GRID_AXES))
        print(f"best weights={'yes' if weights else 'no'} init={init}: {values} ({cfg.run_hash()})")
    return 0


def _ablation_datasets(base: RunConfig, tokens: list, source: str) -> list[DatasetDescriptor]:
    """The descriptors of the ablate.datasets entries. The config's own
    dataset keeps its root. When that root ends in <family>/<subset>,
    every other entry resolves to the sibling directory
    <root>/../../<family>/<subset>; otherwise any other entry but a toy
    one is a ConfigError."""
    own = base.dataset
    root = own.root_path
    family_root = None
    if root is not None and root.parts[-2:] == (own.family, own.subset):
        family_root = root.parent.parent
    descriptors = []
    for token in tokens:
        family, _, subset = token.partition(":")
        if not subset:
            raise ConfigError(
                f"{source}: ablate.datasets entries look like family:subset, got {token!r}"
            )
        try:
            desc = DatasetDescriptor(family=family, subset=subset)
        except ConfigError as exc:
            raise ConfigError(f"{source}: ablate.datasets entry {token!r}: {exc}") from None
        if desc.key() == own.key():
            desc = own
        elif not desc.is_toy:
            if family_root is None:
                raise ConfigError(
                    f"{source}: ablate.datasets entry {token!r} has no directory; other "
                    f"datasets sit next to dataset.root only if it ends in {own.family}/{own.subset}"
                )
            desc = DatasetDescriptor(desc.family, desc.subset, family_root / desc.family / desc.subset)
        descriptors.append(desc)
    return descriptors


def cmd_ablate(args) -> int:
    flat = read_config_file(args.config)
    base = RunConfig.from_flat(flat, source=args.config)
    descriptors = [base.dataset]
    if "ablate.datasets" in flat:
        descriptors = _ablation_datasets(base, flat["ablate.datasets"],
                                         f"{args.config}:{flat.lines['ablate.datasets']}")
    cells = run_ablation(
        base,
        descriptors,
        Path(args.runs_root),
        n_seeds=args.seeds,
        use_tuned=not args.no_tuned,
    )
    table = ablation_table(cells, direction=args.direction)
    print(table)
    out_dir = Path(args.runs_root)
    write_json(out_dir / "ablation.json", cells)
    write_atomic(out_dir / "ablation.txt", table + "\n")
    print(f"written: {out_dir / 'ablation.json'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgalign",
        description="Knowledge graph entity alignment with a weightless GCN encoder.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="dataset statistics")
    p.add_argument("family", help="dataset family, or combined '<family>:<subset>'")
    p.add_argument("subset", nargs="?", default=None)
    p.add_argument("--root", default=None, help="dataset directory")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("train", help="run one training configuration")
    p.add_argument("config")
    p.add_argument("--runs-root", default="runs")
    p.add_argument("--force", action="store_true", help="recompute even if cached")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="re-evaluate a persisted run")
    p.add_argument("run_dir")
    p.add_argument("--policy", choices=CANDIDATE_POLICIES, default=None)
    p.add_argument("--split", choices=["validation", "test"], default="test")
    p.add_argument("--tie-diagnostics", action="store_true")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("grid", help="hyperparameter search over all ablation cells")
    p.add_argument("config")
    p.add_argument("--runs-root", default="runs")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("ablate", help="seed-aggregated ablation table")
    p.add_argument("config")
    p.add_argument("--runs-root", default="runs")
    p.add_argument("--seeds", type=int, default=None, help="override n_seeds")
    p.add_argument("--direction", default="left_to_right", choices=DIRECTIONS)
    p.add_argument("--no-tuned", action="store_true",
                   help="use the base config everywhere instead of tuned presets")
    p.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KgalignError as exc:
        print(json.dumps({"error": exc.category, "message": str(exc)}), file=sys.stderr)
        return EXIT_CODES.get(exc.category, 1)
    except Exception as exc:  # pragma: no cover - last resort
        print(json.dumps({"error": "internal", "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
