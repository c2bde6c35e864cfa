"""Training on threads gives the bits of training on one.

The loss blocks, the encoder's two graphs and the optimizer's
parameters run on parallel.thread_count() threads. These tests run the
same work at several patched core counts and require byte-identical
results, and pin the weightless run to digests taken before training
used threads.
"""
import hashlib
import json
import os
import sys
import threading

import numpy as np
import pytest

from kgalign import parallel, training
from kgalign.adjacency import AdjacencyConfig, build_adjacency
from kgalign.encoder import EncoderConfig, forward, init_state
from kgalign.runner import RunConfig, load_state, run_grid, run_single
from kgalign.training import TrainConfig, margin_rank_loss, sample_negatives, train

from conftest import random_pair, write_dataset

# one core, two, and more than this machine may have
CPU_SETS = ({0}, {0, 1}, set(range(8)))


@pytest.fixture
def each_core_count(monkeypatch):
    """Yields once per entry of CPU_SETS with the affinity patched to it;
    a short switch interval interleaves the threads densely."""

    # items of any size go to the threads
    monkeypatch.setattr(parallel, "MIN_ITEM_SIZE", 0)

    def run(body):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = []
            for cpus in CPU_SETS:
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
                assert parallel.thread_count() == len(cpus)
                results.append(body(len(cpus)))
            return results
        finally:
            sys.setswitchinterval(interval)

    return run


def _mid_pair():
    # 400 train pairs x 100 negatives: loss blocks of 40, 40 and 20
    # columns, ten chunks of negatives
    return random_pair(np.random.default_rng(3), n=500, n_train=400, n_test=50, n_triples=2500)


def _train_digest(state, losses) -> str:
    h = hashlib.sha256(repr(losses).encode())
    for p in state.parameters():
        h.update(p.tobytes())
    return h.hexdigest()


def test_weightless_adam_training_independent_of_thread_count(each_core_count):
    pair = _mid_pair()
    enc = EncoderConfig(n_layers=2, dim=16, seed=1)
    tc = TrainConfig(optimizer="adam", learning_rate=0.5, n_negatives=100, n_epochs=4, seed=2)
    digests = each_core_count(lambda cores: _train_digest(*train(pair, AdjacencyConfig(), enc, tc)))
    # taken from the single-threaded implementation this replaced
    assert digests == [
        "2d5c103aca5d32f0cb11f3a11513ac2991245f55929af71c72631d65ca889911"
    ] * 3


def test_weighted_sgd_training_independent_of_thread_count(each_core_count):
    # the shared weight gradient gathers both graphs' contributions
    pair = _mid_pair()
    enc = EncoderConfig(n_layers=2, dim=16, use_weights=True, seed=1)
    tc = TrainConfig(optimizer="sgd", learning_rate=0.001, n_negatives=100, n_epochs=4, seed=2)
    digests = each_core_count(lambda cores: _train_digest(*train(pair, AdjacencyConfig(), enc, tc)))
    assert digests[0] == digests[1] == digests[2]


@pytest.fixture
def mid_attr_dataset(tmp_path):
    """A dbp15k-jape directory with 300 entities per side and attribute
    files; 160 train pairs x 120 negatives make two loss blocks."""
    rng = np.random.default_rng(4)
    n = 300
    perm = rng.permutation(n)

    def triples(offset):
        return [(offset + int(h), 10 + int(r), offset + int(t))
                for h, r, t in zip(rng.integers(0, n, 1200), rng.integers(0, 3, 1200),
                                   rng.integers(0, n, 1200))]

    def attrs(offset):
        return [(offset + e, f"p{int(p)}") for e in range(n)
                for p in rng.choice(10, size=int(rng.integers(1, 4)), replace=False)]

    return write_dataset(
        tmp_path / "data",
        triples_1=triples(1000), triples_2=triples(5000),
        ents_1=[(1000 + e, f"l:{e}") for e in range(n)],
        ents_2=[(5000 + e, f"r:{e}") for e in range(n)],
        rels_1=[(10 + r, f"rl:{r}") for r in range(3)],
        rels_2=[(10 + r, f"rr:{r}") for r in range(3)],
        files={
            "sup_ent_ids": [(1000 + e, 5000 + int(perm[e])) for e in range(200)],
            "ref_ent_ids": [(1000 + e, 5000 + int(perm[e])) for e in range(200, n)],
            "attrs_1": attrs(1000),
            "attrs_2": attrs(5000),
        },
    )


def test_attribute_blend_run_independent_of_thread_count(tmp_path, mid_attr_dataset, each_core_count):
    cfg = RunConfig.from_flat({
        "dataset.family": "dbp15k-jape",
        "dataset.subset": "zh-en",
        "dataset.root": str(mid_attr_dataset),
        "encoder.dim": 16,
        "training.learning_rate": 0.5,
        "training.n_negatives": 120,
        "training.n_epochs": 3,
        "score.beta": 0.7,
        "attribute_margin": 1.0,
    })

    def run(cores):
        result = run_single(cfg, tmp_path / f"runs-{cores}")
        files = {name: (result.run_dir / name).read_bytes()
                 for name in ("config.txt", "report.json", "loss_trace.tsv")}
        state, attr_state = load_state(result.run_dir / "state.npz")
        return files, _train_digest(state, []), _train_digest(attr_state, [])

    outputs = each_core_count(run)
    assert outputs[0] == outputs[1] == outputs[2]
    # the metrics, without the config and its temporary dataset root,
    # as the single-threaded implementation reported them
    report = json.loads(outputs[0][0]["report.json"])
    metrics = json.dumps({k: report[k] for k in ("validation", "test", "final_loss")}, sort_keys=True)
    assert hashlib.sha256(metrics.encode()).hexdigest() == (
        "943b3f4587cd748efcfc7a57e8499c3ddfd34e68af267bacc8cad462e769cefa"
    )


def test_loss_gradient_is_integer_valued_and_order_free(monkeypatch):
    # the invariant behind per-thread gradients: any accumulation order
    # gives the same bits, and only the loss sum keeps block order
    pair = _mid_pair()
    enc = EncoderConfig(n_layers=2, dim=16, seed=1)
    adj = tuple(build_adjacency(g, AdjacencyConfig()) for g in (pair.left, pair.right))
    state = init_state(enc, pair.left.entity_count, pair.right.entity_count)
    out_l, out_r, _ = forward(*adj, state, enc)
    pos = pair.alignment.train_pairs
    neg = sample_negatives(pos, len(out_l), len(out_r), 100, np.random.default_rng(0))

    monkeypatch.setattr(training, "threads_for", lambda n_items, item_size: 1)
    serial = margin_rank_loss(out_l, out_r, pos, neg, 3.0)
    # one "thread" per chunk of negatives, the chunks visited last to first
    monkeypatch.setattr(training, "threads_for", lambda n_items, item_size: n_items)
    monkeypatch.setattr(training, "thread_map",
                        lambda fn, items, item_size: [fn(x) for x in reversed(list(items))][::-1])
    reverse = margin_rank_loss(out_l, out_r, pos, neg, 3.0)

    assert serial[0] == reverse[0]
    for a, b in zip(serial[1:], reverse[1:]):
        assert a.any() and np.array_equal(a, np.round(a))
        assert np.array_equal(a, b)
        assert not np.signbit(a[a == 0.0]).any()  # no -0.0


def test_grid_workers_share_the_cores(tmp_path, monkeypatch):
    # two workers on two cores get one thread each: no thread pool in them
    class NoPool:
        def __init__(self, *args, **kwargs):
            raise RuntimeError("a thread pool was started")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(parallel, "ThreadPoolExecutor", NoPool)
    monkeypatch.setattr(parallel, "MIN_ITEM_SIZE", 0)
    base = RunConfig.from_flat({
        "dataset.family": "toy",
        "dataset.subset": "cycle-8-4",
        "encoder.dim": 8,
        "training.n_negatives": 2,
        "training.n_epochs": 3,
        "train_fraction": 0.5,
        "val_fraction": 0.5,
    })
    axes = {"training.n_epochs": [2, 3]}
    assert run_grid(base, tmp_path / "two", axes=axes, workers=2).n_failures == 0
    # the same grid in this process has both cores, so its encoder wants a pool
    assert run_grid(base, tmp_path / "one", axes=axes, workers=1).n_failures == 8
    assert "a thread pool was started" in (tmp_path / "one" / "leaderboard.tsv").read_text()


def test_small_items_stay_on_the_calling_thread(monkeypatch):
    pools = []

    class RecordingPool(parallel.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    monkeypatch.setattr(parallel, "ThreadPoolExecutor", RecordingPool)
    ran_on = {}

    def record(x):
        ran_on[x] = threading.get_ident()
        return x * x

    small = parallel.MIN_ITEM_SIZE - 1
    assert parallel.thread_map(record, range(5), small) == [0, 1, 4, 9, 16]
    assert set(ran_on.values()) == {threading.get_ident()} and pools == []
    assert parallel.thread_map(record, range(5), parallel.MIN_ITEM_SIZE) == [0, 1, 4, 9, 16]
    assert pools == [4]  # five items on the calling thread and four helpers
    assert ran_on[0] == threading.get_ident()  # item 0 runs on the calling thread


def test_loss_gradient_copies_stay_within_their_budget(monkeypatch):
    # every loss thread holds a gradient pair; on many cores the pairs
    # beyond the first are capped by bytes, not by the core count
    pair = _mid_pair()
    rng = np.random.default_rng(0)
    out_l = rng.normal(size=(pair.left.entity_count, 16))
    out_r = rng.normal(size=(pair.right.entity_count, 16))
    pos = pair.alignment.train_pairs
    neg = sample_negatives(pos, len(out_l), len(out_r), 100, rng)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    monkeypatch.setattr(parallel, "MIN_ITEM_SIZE", 0)
    threads = []

    def counting_map(fn, items, item_size):
        items = list(items)
        threads.append(len(items))
        return parallel.thread_map(fn, items, item_size)

    monkeypatch.setattr(training, "thread_map", counting_map)
    unbounded = margin_rank_loss(out_l, out_r, pos, neg, 3.0)
    pair_bytes = out_l.nbytes + out_r.nbytes
    monkeypatch.setattr(training, "GRAD_COPY_BYTES", 2 * pair_bytes + pair_bytes // 2)
    bounded = margin_rank_loss(out_l, out_r, pos, neg, 3.0)
    monkeypatch.setattr(training, "GRAD_COPY_BYTES", pair_bytes - 1)
    serial = margin_rank_loss(out_l, out_r, pos, neg, 3.0)

    # ten chunks on eight cores, then two extra pairs, then none
    assert threads == [8, 3, 1]
    for a, b, c in zip(unbounded, bounded, serial):
        assert np.array_equal(a, b) and np.array_equal(a, c)
