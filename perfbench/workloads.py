"""The three benchmark workloads, each a closed loop with a single client.

Every workload generates its inputs from the seed, times its set-up
(load, validate, split, both propagation matrices), then repeats its
operation until the time budget is spent, checking every output on the
way. End-to-end numbers come from untraced runs; with a tracer the same
workload reports per-layer numbers instead (see `layer_metrics`).
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import resource
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist

import synth
from tracing import LAYERS, Tracer

# Imported after run.py has put the checkout's src/ on sys.path.
from kgalign import adjacency, cli, encoder, evaluation, graphs, runner, training
from kgalign.graphs import Role

# set-up is timed at least SETUP_REPEATS times and for at least
# SETUP_SECONDS, and reported as the median
SETUP_REPEATS = 3
SETUP_SECONDS = 1.5
NPROC = len(os.sched_getaffinity(0))

# headline config (count/row adjacency, 2 layers, dim 200, weightless,
# unit init, Adam lr 1, 50 negatives, margin 3); a repetition trains this
# many epochs, enough for the loss to fall and validation H@1 to rise
TRAIN_EPOCHS = 3
HEADLINE = {
    "adjacency.variant": "count",
    "adjacency.normalization": "row",
    "encoder.n_layers": 2,
    "encoder.dim": 200,
    "encoder.use_weights": False,
    "encoder.init": "unit",
    "training.optimizer": "adam",
    "training.learning_rate": 1.0,
    "training.n_negatives": 50,
    "training.margin": 3.0,
}
# the all-entities command takes ~3 s against ~8 s for the test split;
# it is repeated within a repetition and the median of all its runs taken
ALL_ENTITIES_REPEATS = 2
# The persisted run that evaluate-zh-en re-scores. Width 32 keeps the
# 10,500 x 10,500 test-split ranking near 6 s on two cores (width 200
# takes ~60 s); the entity and alignment counts, which set the ranking
# shapes, stay at zh-en.
RESCORE_RUN = {
    **HEADLINE,
    "encoder.dim": 32,
    "training.n_epochs": 8,
    "evaluate_test": False,
    "save_state": True,
}
# grid-small: functionality adjacency with clamp at dim 64; lr 0.1 keeps
# the weighted SGD cells finite
GRID_BASE = {
    "adjacency.variant": "functionality",
    "adjacency.clamp": True,
    "encoder.dim": 64,
    "training.learning_rate": 0.1,
}
GRID_AXES = {
    "training.optimizer": ["adam", "sgd"],
    "encoder.n_layers": [1, 2],
    "training.n_epochs": [1, 4],
}
GRID_RUNS = 32  # the axes above times the four ablation cells
# a resume pass takes ~50 ms, mostly starting the worker pool; it is
# repeated over the completed root and the median of all passes reported
RESUME_REPEATS = 3


@dataclass
class Context:
    work: Path
    seed: int
    seconds: float
    tracer: Tracer | None
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    # end-to-end metrics: name -> (value, unit)
    metrics: dict = field(default_factory=dict)
    # the workload's own metric names (epoch_s, rescore_*, grid_*), for the
    # human report
    report: dict = field(default_factory=dict)
    # per-layer numbers only this workload has (human report, trace file)
    extra: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def ops(self, n: int = 1, failed: int = 0) -> None:
        self.attempted += n
        self.failed += failed

    @contextlib.contextmanager
    def untraced(self):
        if self.tracer is None:
            yield
            return
        self.tracer.uninstall()
        try:
            yield
        finally:
            self.tracer.install()

    def repeat(self, body, minimum: int) -> list:
        """Closed loop: run body until the time budget is spent, at least
        `minimum` times; returns every result, untraced ones first.

        In a traced run every repetition runs twice, traced and untraced
        in alternating order, and the median ratio of their first values
        (the workload's primary time) is the tracing overhead.
        """
        plain, traced = [], []
        started = time.perf_counter()
        while len(plain) < minimum or time.perf_counter() - started < self.seconds:
            if self.tracer is None:
                plain.append(body())
                continue
            for with_trace in (True, False) if len(plain) % 2 else (False, True):
                if with_trace:
                    traced.append(body())
                else:
                    with self.untraced():
                        plain.append(body())
        if traced:
            self.counters["trace.overhead_frac"] = (
                statistics.median(r[0] for r in traced) / statistics.median(r[0] for r in plain) - 1.0
            )
        return plain + traced


def run_cli(ctx: Context, argv: list[str]) -> tuple[int, str, float]:
    """One in-process `kgalign` command; returns (exit code, stdout, seconds)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        t0 = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - t0
    ctx.ops(failed=int(code != 0))
    return code, out.getvalue(), elapsed


def prepare(ctx: Context, shape: synth.Shape, overrides: dict):
    """Generate the pair, self-check it, and time the set-up (median of
    several)."""
    data_dir = synth.generate(ctx.work / "data", shape, ctx.seed)
    cfg = runner.RunConfig.from_flat(
        {
            "dataset.family": "dbp15k-jape",
            "dataset.subset": "zh-en",
            "dataset.root": str(data_dir),
            "seed": ctx.seed,
            **overrides,
        }
    )
    code, out, _ = run_cli(ctx, ["stats", "dbp15k-jape:zh-en", "--root", str(data_dir), "--json"])
    ctx.check(code == 0 and json.loads(out) == shape.expected_statistics(),
              "generated pair does not have the requested statistics")
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        t0 = time.perf_counter()
        pair = runner.prepare_pair(cfg)
        adj = (
            adjacency.build_adjacency(pair.left, cfg.adjacency),
            adjacency.build_adjacency(pair.right, cfg.adjacency),
        )
        times.append(time.perf_counter() - t0)
    ctx.ops(len(times))
    ctx.check(graphs.validate_pair(pair) == [], "generated pair has structural violations")
    ctx.metrics["setup_s"] = (statistics.median(times), "s")
    ctx.counters["adjacency.nnz"] = adj[0].nnz + adj[1].nnz
    return cfg, pair, adj


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


# ---- train-zh-en ----------------------------------------------------

def train_zh_en(ctx: Context) -> None:
    cfg, pair, adj = prepare(ctx, synth.ZH_EN, HEADLINE)
    enc_cfg = replace(cfg.encoder, seed=ctx.seed)
    train_cfg = replace(cfg.training, n_epochs=TRAIN_EPOCHS, seed=ctx.seed)

    def repetition():
        t0 = time.perf_counter()
        state, losses = training.train(pair, cfg.adjacency, enc_cfg, train_cfg, adjacencies=adj)
        t1 = time.perf_counter()
        out_l, out_r, _ = encoder.forward(*adj, state, enc_cfg)
        val = evaluation.evaluate(out_l, out_r, pair, cfg.score, policy="test-only", split=Role.VALIDATION)
        t2 = time.perf_counter()
        ctx.ops(3)
        ctx.extra["dtype"] = str(out_l.dtype)
        return (t1 - t0) / TRAIN_EPOCHS, t2 - t0, val, losses

    reps = ctx.repeat(repetition, minimum=2)
    # in a traced run this also compares traced with untraced traces
    ctx.check(len({repr(r[3]) for r in reps}) == 1, "loss trace differs between repetitions")
    losses = reps[0][3]
    ctx.check(losses[-1] < losses[0], "loss did not fall during training")
    val = reps[-1][2].mean
    chance = 100.0 / val.n_test  # test-only: the split's own entities are the candidates
    ctx.check(val.hits_at[1] > 20 * chance, "validation H@1 is not far above chance")
    epoch_s = statistics.median(r[0] for r in reps)
    ctx.metrics["primary_s"] = (epoch_s, "s")
    # the wait for a validated result: train, encode, score the validation
    # split (scoring alone, ~0.2 s, is too short to time steadily here)
    ctx.metrics["secondary_s"] = (statistics.median(r[1] for r in reps), "s")
    ctx.report["epoch_s"] = (epoch_s, "s/epoch")
    ctx.report["val_h1"] = (val.hits_at[1], "%")


# ---- evaluate-zh-en -------------------------------------------------

def _independent_ranks(queries, cands, cand_ids, truths, width):
    """Ranks by blockwise cdist and the documented tie rule: higher score
    first, ties broken by ascending candidate index."""
    truth_pos = np.searchsorted(cand_ids, truths)

    def block(lo):
        hi = min(lo + 256, len(queries))
        scores = -(1.0 / width * cdist(queries[lo:hi], cands, "cityblock"))
        s_t = scores[np.arange(hi - lo), truth_pos[lo:hi]][:, None]
        ties_before = (scores == s_t) & (cand_ids[None, :] < truths[lo:hi, None])
        return (scores > s_t).sum(axis=1) + ties_before.sum(axis=1) + 1

    with ThreadPoolExecutor(max_workers=NPROC) as pool:
        return np.concatenate(list(pool.map(block, range(0, len(queries), 256))))


def _independent_metrics(out_l, out_r, pair, split, policy) -> dict:
    pairs = pair.alignment.by_role(split)
    if policy == "test-only":
        cand_r, cand_l = np.unique(pairs[:, 1]), np.unique(pairs[:, 0])
    else:
        cand_r, cand_l = np.arange(pair.right.entity_count), np.arange(pair.left.entity_count)
    width = out_l.shape[1]
    directions = {}
    for name, q, c, ids, truth in (
        ("left_to_right", out_l[pairs[:, 0]], out_r[cand_r], cand_r, pairs[:, 1]),
        ("right_to_left", out_r[pairs[:, 1]], out_l[cand_l], cand_l, pairs[:, 0]),
    ):
        ranks = _independent_ranks(q, c, ids, truth, width).astype(np.float64)
        directions[name] = {
            "hits_at": {str(k): float((ranks <= k).mean() * 100.0) for k in (1, 10, 50)},
            "mean_rank": float(ranks.mean()),
            "mrr": float((1.0 / ranks).mean()),
            "n_test": int(ranks.size),
        }
    lr, rl = directions["left_to_right"], directions["right_to_left"]
    directions["mean"] = {
        "hits_at": {k: (lr["hits_at"][k] + rl["hits_at"][k]) / 2.0 for k in lr["hits_at"]},
        "mean_rank": (lr["mean_rank"] + rl["mean_rank"]) / 2.0,
        "mrr": (lr["mrr"] + rl["mrr"]) / 2.0,
        "n_test": lr["n_test"],
    }
    return {"candidate_policy": policy, "split": Role(split).value, "directions": directions}


def evaluate_zh_en(ctx: Context) -> None:
    cfg, pair, adj = prepare(ctx, synth.ZH_EN, RESCORE_RUN)
    run = runner.run_single(cfg, ctx.work / "runs")
    ctx.ops()
    test_cmd = ["evaluate", str(run.run_dir)]
    val_cmd = ["evaluate", str(run.run_dir), "--split", "validation", "--policy", "all-entities"]
    test_json = run.run_dir / "evaluation-test-only-test.json"
    val_json = run.run_dir / "evaluation-all-entities-validation.json"

    def repetition():
        code, _, test_s = run_cli(ctx, test_cmd)
        ctx.check(code == 0, "test-split evaluate command exited non-zero")
        val_s = []
        for _ in range(ALL_ENTITIES_REPEATS):
            code, _, seconds = run_cli(ctx, val_cmd)
            ctx.check(code == 0, "all-entities evaluate command exited non-zero")
            val_s.append(seconds)
        return test_s, val_s, test_json.read_bytes(), val_json.read_bytes()

    reps = ctx.repeat(repetition, minimum=2)
    ctx.check(len({r[2:] for r in reps}) == 1, "re-scoring is not repeatable")

    test_report = json.loads(reps[0][2])
    val_report = json.loads(reps[0][3])
    ctx.check(test_report["directions"]["mean"]["n_test"] == synth.ZH_EN.ref,
              "test re-score did not rank the whole test split")
    with ctx.untraced():
        with np.load(run.run_dir / "state.npz") as saved:
            state = encoder.EmbeddingState(saved["features_left"], saved["features_right"])
        out_l, out_r, _ = encoder.forward(*adj, state, cfg.encoder)
        expected = _independent_metrics(out_l, out_r, pair, Role.VALIDATION, "all-entities")
    ctx.check(val_report == expected,
              "all-entities validation metrics differ from the independent ranking")
    val_h1 = val_report["directions"]["mean"]["hits_at"]["1"]
    ctx.check(val_h1 > 20 * 100.0 / pair.right.entity_count,
              "all-entities validation H@1 is not far above chance")
    # quality from the test split: 10,500 queries per direction
    test_h1 = test_report["directions"]["mean"]["hits_at"]["1"]
    ctx.check(test_h1 > 20 * 100.0 / synth.ZH_EN.ref, "test H@1 is not far above chance")
    ctx.extra["dtype"] = str(out_l.dtype)
    ctx.extra["val_h1_all_entities"] = val_h1

    test_s = statistics.median(r[0] for r in reps)
    val_s = statistics.median(t for r in reps for t in r[1])
    ctx.metrics["primary_s"] = (test_s, "s")
    ctx.metrics["secondary_s"] = (val_s, "s")
    ctx.extra["test_h1"] = test_h1
    ctx.report["rescore_test_only_s"] = (test_s, "s")
    ctx.report["rescore_all_entities_s"] = (val_s, "s")


# ---- grid-small -----------------------------------------------------

def _report_stamps(root: Path) -> dict:
    return {
        p.parent.name: (p.stat().st_mtime_ns, p.read_bytes())
        for p in sorted(root.glob("*/report.json"))
    }


def _ledger_rows(root: Path) -> list[list[str]]:
    lines = (root / "leaderboard.tsv").read_text(encoding="utf-8").splitlines()
    return [line.split("\t") for line in lines[1:]]


def grid_small(ctx: Context) -> None:
    cfg, _, _ = prepare(ctx, synth.ZH_EN_TENTH, GRID_BASE)

    # one pass with a single worker: the serial per-run cost, next to the
    # nproc-worker passes below (in a traced run, the spans of each run)
    t0 = time.perf_counter()
    serial = runner.run_grid(cfg, ctx.work / "serial", GRID_AXES, workers=1)
    serial_s = time.perf_counter() - t0
    ctx.ops(serial.n_runs, failed=serial.n_failures)
    serial_ledger = (ctx.work / "serial" / "leaderboard.tsv").read_bytes()

    def repetition():
        root = ctx.work / f"grid-{next(roots)}"
        t0 = time.perf_counter()
        fresh = runner.run_grid(cfg, root, GRID_AXES, workers=NPROC)
        t1 = time.perf_counter()
        ctx.ops(fresh.n_runs, failed=fresh.n_failures)
        stamps = _report_stamps(root)
        best = (root / "grid_best.json").read_bytes()
        rows = _ledger_rows(root)
        ctx.check(fresh.n_runs == GRID_RUNS and len(rows) == GRID_RUNS and len(stamps) == GRID_RUNS,
                  "fresh grid did not complete 32 runs with reports and ledger rows")
        ctx.check((root / "leaderboard.tsv").read_bytes() == serial_ledger,
                  "ledger differs between one worker and nproc workers")
        resume_s, hits = [], []
        for _ in range(RESUME_REPEATS):
            t2 = time.perf_counter()
            again = runner.run_grid(cfg, root, GRID_AXES, workers=NPROC)
            resume_s.append(time.perf_counter() - t2)
            ctx.ops(again.n_runs, failed=again.n_failures)
            after = _report_stamps(root)
            hits.append(sum(after.get(run_hash) == stamp for run_hash, stamp in stamps.items()))
            ctx.check(hits[-1] == GRID_RUNS, "resume pass recomputed a completed run")
            ctx.check((root / "grid_best.json").read_bytes() == best,
                      "grid_best.json changed on resume")
            ctx.check(len(_ledger_rows(root)) == GRID_RUNS, "resume ledger does not have 32 rows")
        return (t1 - t0) / fresh.n_runs, resume_s, rows, min(hits)

    roots = itertools.count()
    reps = ctx.repeat(repetition, minimum=2)

    rows = reps[-1][2]
    # validation pairs are the candidates; 1 and 4 epochs at lr 0.1 give a
    # best run of 8-19x chance on seeds 101-110
    chance = 100.0 / round(0.2 * synth.ZH_EN_TENTH.sup)
    ctx.check(max(float(r[3]) for r in rows) > 5 * chance, "best grid validation H@1 is not far above chance")
    per_run_s = statistics.median(r[0] for r in reps)
    resume_s = statistics.median(t for r in reps for t in r[1])
    ctx.metrics["primary_s"] = (per_run_s, "s")
    ctx.metrics["secondary_s"] = (serial_s / serial.n_runs, "s")
    ctx.report["grid_runs_per_s"] = (1.0 / per_run_s, "runs/s")
    ctx.report["grid_resume_s"] = (resume_s, "s")
    ctx.extra["mean_val_h1"] = statistics.fmean(float(r[3]) for r in rows)
    ctx.extra["runner.worker_efficiency"] = serial_s / (NPROC * per_run_s * GRID_RUNS)
    ctx.extra["runner.resume_ms_per_run"] = 1000.0 * resume_s / GRID_RUNS
    ctx.extra["runner.cache_hit_frac"] = reps[-1][3] / GRID_RUNS
    if ctx.tracer is not None:
        # the serial pass comes first; later passes run in the workers
        run_s = ctx.tracer.durations("runner.run_single")[:GRID_RUNS]
        ctx.extra["runner.run_single_p50_s"] = float(np.percentile(run_s, 50))
        ctx.extra["runner.run_single_p90_s"] = float(np.percentile(run_s, 90))


WORKLOADS = {
    "train-zh-en": train_zh_en,
    "evaluate-zh-en": evaluate_zh_en,
    "grid-small": grid_small,
}


# ---- per-layer metrics from a traced run ----------------------------

def attach_counters(tracer: Tracer, counters: dict) -> None:
    """Hooks that compute per-call counts from the traced calls' arguments."""
    counters.update(loss_bytes=[], spmm_flops=[], eval=[], last_loss=None)

    def on_loss(args, result, span):
        emb, neg = args["emb_left"], args["negatives"]
        m, k = neg.shape[0], neg.shape[1]
        # rows gathered: positive and negative difference rows, both sides
        counters["loss_bytes"].append(2 * (m + m * k) * emb.shape[1] * emb.itemsize)
        counters["last_loss"] = args

    def on_forward(args, result, span):
        if args["keep_tape"]:  # a training epoch: forward and backward spmm
            cfg = args["cfg"]
            nnz = args["adj_left"].nnz + args["adj_right"].nnz
            counters["spmm_flops"].append(2 * 2 * nnz * cfg.dim * cfg.n_layers)

    def on_evaluate(args, result, span):
        pairs = args["pair"].alignment.by_role(args["split"])
        if args["policy"] == "test-only":
            cands = len(np.unique(pairs[:, 0])) + len(np.unique(pairs[:, 1]))
        else:
            cands = args["pair"].left.entity_count + args["pair"].right.entity_count
        counters["eval"].append((args["policy"], len(pairs) * cands, span[2] - span[1]))

    tracer.hooks.update({
        "training.margin_rank_loss": on_loss,
        "encoder.forward": on_forward,
        "evaluation.evaluate": on_evaluate,
    })


def _active_frac(args) -> float:
    """Share of hinge terms with positive slack, recomputed for one call."""
    el, er, pos, neg = args["emb_left"], args["emb_right"], args["positives"], args["negatives"]
    pos_dist = np.abs(el[pos[:, 0]] - er[pos[:, 1]]).sum(axis=1)
    neg_dist = np.abs(el[neg[:, :, 0].ravel()] - er[neg[:, :, 1].ravel()]).sum(axis=1)
    terms = pos_dist[:, None] + args["margin"] - neg_dist.reshape(neg.shape[0], neg.shape[1])
    return float((terms > 0.0).mean())


def layer_metrics(ctx: Context) -> dict:
    tracer, c = ctx.tracer, ctx.counters

    def median_s(name):
        return statistics.median(tracer.durations(name))

    test_only = [e for e in c["eval"] if e[0] == "test-only"]
    all_entities = [e for e in c["eval"] if e[0] == "all-entities"]
    if all_entities:
        ctx.extra["evaluation.all_entities_s"] = statistics.median(e[2] for e in all_entities)
    if tracer.durations("cli.cmd_evaluate"):
        ctx.extra["runner.load_state_s"] = median_s("runner.load_state")
        calls = len(tracer.durations("cli.cmd_evaluate"))
        ctx.extra["cli.evaluate_self_s"] = tracer.self_times()["cli.cmd_evaluate"] / calls

    out = {
        "datasets.load_s": (median_s("datasets.load"), "s"),
        "datasets.split_s": (median_s("datasets.split"), "s"),
        "graphs.validate_s": (median_s("graphs.validate_pair"), "s"),
        "adjacency.build_s": (median_s("adjacency.build_adjacency"), "s"),
        "adjacency.nnz": (c["adjacency.nnz"], "count"),
        "training.sample_s": (median_s("training.sample_negatives"), "s"),
        "training.loss_s": (median_s("training.margin_rank_loss"), "s"),
        "training.optimizer_s": (median_s("training.optimizer_step"), "s"),
        "training.loss_bytes": (statistics.median(c["loss_bytes"]), "B"),
        "training.active_frac": (_active_frac(c["last_loss"]), "ratio"),
        "encoder.forward_s": (median_s("encoder.forward"), "s"),
        "encoder.backward_s": (median_s("encoder.backward"), "s"),
        "encoder.spmm_flops": (statistics.median(c["spmm_flops"]), "flop"),
        "evaluation.test_only_s": (statistics.median(e[2] for e in test_only), "s"),
        "evaluation.pairs_per_s": (
            sum(e[1] for e in c["eval"]) / sum(e[2] for e in c["eval"]), "1/s"),
    }
    for layer, value in tracer.layer_self_times().items():
        out[f"{layer}.self_s"] = (value, "s")
    out["trace.overhead_frac"] = (c["trace.overhead_frac"], "ratio")
    out["trace.spans"] = (len(tracer.spans), "count")
    return out


PER_LAYER = (
    "datasets.load_s", "datasets.split_s", "graphs.validate_s", "adjacency.build_s",
    "adjacency.nnz", "training.sample_s", "training.loss_s", "training.optimizer_s",
    "training.loss_bytes", "training.active_frac", "encoder.forward_s", "encoder.backward_s",
    "encoder.spmm_flops", "evaluation.test_only_s", "evaluation.pairs_per_s",
    *(f"{layer}.self_s" for layer in LAYERS), "trace.overhead_frac", "trace.spans",
)
END_TO_END = ("setup_s", "primary_s", "secondary_s", "peak_rss_mb")
