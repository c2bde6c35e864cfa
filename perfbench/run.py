"""kgalign benchmark: one workload per run, or all three with --workload all.

    python3 perfbench/run.py --workload train-zh-en --seed 1 --seconds 10 --trace 0

Runs from the root of a checkout and imports the program from its
`src/`. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics of a traced run with --trace 1.
Lines before it report the environment, the workload's metrics under
their own names, and any failed check. Scratch files live under
.perfbench-work/ and are removed at exit; a traced run writes its spans
to .perfbench-out/. The exit code is 0 only when every check passed.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("train-zh-en", "evaluate-zh-en", "grid-small")
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def import_program():
    """Put the checkout's src/ first on sys.path; refuse to run without it."""
    src = ROOT / "src"
    if not (src / "kgalign" / "__init__.py").is_file():
        print(f"perfbench: no kgalign sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import kgalign

    if Path(kgalign.__file__).resolve().parent != src / "kgalign":
        print(f"perfbench: imported kgalign from {kgalign.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "nproc": len(os.sched_getaffinity(0)),
        # as found: the benchmark sets none of them for the program
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def run_one(args) -> int:
    import_program()
    import workloads
    from tracing import Tracer

    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    ctx = workloads.Context(work=work, seed=args.seed, seconds=args.seconds, tracer=tracer)
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    try:
        if tracer is not None:
            workloads.attach_counters(tracer, ctx.counters)
            with tracer:
                workloads.WORKLOADS[args.workload](ctx)
            metrics = workloads.layer_metrics(ctx)
            out = ROOT / ".perfbench-out" / f"trace-{args.workload}-{args.seed}.json"
            tracer.write(out, {"environment": env, "metrics": metrics, "extra": ctx.extra})
            print(f"trace written: {out}")
        else:
            workloads.WORKLOADS[args.workload](ctx)
            ctx.metrics["peak_rss_mb"] = (workloads.peak_rss_mb(), "MB")
            metrics = ctx.metrics
    except Exception:
        traceback.print_exc()
        ctx.ops(failed=1)
        ctx.problems.append("the workload raised an exception")
        metrics = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    names = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    correct = ctx.failed == 0 and all(name in metrics for name in names)
    for name, (value, unit) in {**ctx.report, **metrics}.items():
        print(f"metric {args.workload} {name} {value!r} {unit}")
    for name, value in ctx.extra.items():
        print(f"detail {args.workload} {name} {value!r}")
    print(f"metric {args.workload} failed_frac {ctx.failed / max(ctx.attempted, 1)!r} ratio")
    for problem in ctx.problems:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": correct,
        "attempted": max(ctx.attempted, 1),
        "failed": ctx.failed,
        "metrics": {
            name: {"value": metrics[name][0], "unit": metrics[name][1]}
            for name in names
            if name in metrics
        },
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh process, one after the other."""
    import_program()
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status |= proc.returncode != 0
        try:
            last = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            last = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
            status = 1
        results[name] = last
    print(json.dumps({
        "correct": status == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()
        },
    }, sort_keys=True))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
