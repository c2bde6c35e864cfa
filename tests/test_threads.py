"""Training on threads gives the bits of training on one.

The loss's chunks of negatives, the encoder's column blocks of both
graphs and the optimizer's parameter blocks are the items of
parallel.thread_map, which shares them out to parallel.thread_count()
threads. These tests run the same work at several patched core counts
and block sizes and require byte-identical results, and pin the
weightless run to digests taken before training used threads. BLAS runs on one thread
inside them, so weighted runs do not depend on the caller's BLAS
threads or on the grid's workers either.
"""
import hashlib
import json
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from kgalign import encoder, parallel, training
from kgalign.adjacency import AdjacencyConfig, build_adjacency
from kgalign.encoder import EncoderConfig, backward, forward, init_state
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
    # columns; at dim 16, three chunks of negatives
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


def _block_digest(pair, enc, upstream) -> str:
    """The forward outputs and backward gradients of a fresh state, then
    a 5-epoch training run, hashed."""
    adj = tuple(build_adjacency(g, AdjacencyConfig()) for g in (pair.left, pair.right))
    state = init_state(enc, pair.left.entity_count, pair.right.entity_count)
    out_l, out_r, tape = forward(*adj, state, enc, keep_tape=True)
    grads = backward(*upstream, tape)
    tc = TrainConfig(optimizer="adam", learning_rate=0.5, n_negatives=100, n_epochs=5, seed=2)
    h = hashlib.sha256(_train_digest(*train(pair, AdjacencyConfig(), enc, tc)).encode())
    for a in (out_l, out_r, *grads.parameters()):
        h.update(a.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("n_layers", [1, 2, 3])
@pytest.mark.parametrize("normalize", [True, False])
def test_column_blocks_change_no_bit(each_core_count, monkeypatch, n_layers, normalize):
    # a weightless graph runs in column blocks of about COLUMN_BLOCK
    # elements: blocks of 1 column, blocks of 5 with a last one of 1, and
    # one block of exactly COLUMN_BLOCK give the bits of the default's one
    # block, on 1, 2 and 8 cores
    pair = _mid_pair()
    n, dim = pair.left.entity_count, 16
    assert pair.right.entity_count == n and n * dim <= encoder.COLUMN_BLOCK
    enc = EncoderConfig(n_layers=n_layers, dim=dim, normalize_features=normalize, seed=1)
    rng = np.random.default_rng(0)
    upstream = [rng.integers(-60, 61, (n, dim)).astype(np.int16) for _ in range(2)]
    reference = _block_digest(pair, enc, upstream)

    cuts = []
    forward_one = encoder._forward_one

    def recording(*args):
        cuts.append(args[-2:])  # the block's columns lo, hi
        return forward_one(*args)

    monkeypatch.setattr(encoder, "_forward_one", recording)
    for block, edges in ((1, range(17)), (5 * n, (0, 5, 10, 15, 16)), (n * dim, (0, 16))):
        monkeypatch.setattr(encoder, "COLUMN_BLOCK", block)
        cuts.clear()
        assert each_core_count(lambda cores: _block_digest(pair, enc, upstream)) == [reference] * 3
        # both graphs, every forward of the 3 runs, in these blocks
        expected = list(zip(edges[:-1], edges[1:]))
        assert sorted(set(cuts)) == expected and len(cuts) % (2 * len(expected)) == 0


def test_column_blocks_hold_no_whole_float_temporary(monkeypatch):
    # weightless forward with its tape, then backward: the traced peak is
    # the outputs, masks and gradients, plus a few blocks per thread; a
    # float64 matrix of a whole graph beyond those breaks the bound. The
    # masks are bits, a byte per 8 entries of each block: 64,000 bytes
    # in all, against 512,000 as bool
    n, dim, width = 4000, 64, 8
    pair = random_pair(np.random.default_rng(6), n=n, n_train=10, n_triples=4 * n)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(encoder, "COLUMN_BLOCK", width * n)
    enc = EncoderConfig(n_layers=2, dim=dim, seed=1)
    adj = tuple(build_adjacency(g, AdjacencyConfig()) for g in (pair.left, pair.right))
    state = init_state(enc, n, n)
    rng = np.random.default_rng(0)
    upstream = [rng.integers(-60, 61, (n, dim)).astype(np.int16) for _ in range(2)]
    tracemalloc.start()
    try:
        out_l, out_r, tape = forward(*adj, state, enc, keep_tape=True)
        grads = backward(*upstream, tape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    whole = n * dim * 8
    masks = sum(m.nbytes for t in (tape.left, tape.right) for m in t.relu_masks)
    assert masks == 2 * n * dim // 8 == 64_000
    assert [(m.dtype, m.shape) for m in tape.left.relu_masks] == [(np.uint8, (n,))] * 8
    kept = 2 * whole + masks + 2 * whole + 2 * n * 8  # outputs, masks, gradients, norms
    blocks = 2 * 3 * n * width * 8  # three blocks per thread
    assert peak - kept < blocks < whole


def _weighted_sgd_digests(each_core_count) -> list[str]:
    pair = _mid_pair()
    enc = EncoderConfig(n_layers=2, dim=16, use_weights=True, seed=1)
    tc = TrainConfig(optimizer="sgd", learning_rate=0.001, n_negatives=100, n_epochs=4, seed=2)
    return each_core_count(lambda cores: _train_digest(*train(pair, AdjacencyConfig(), enc, tc)))


def test_weighted_sgd_training_independent_of_thread_count(each_core_count):
    # the shared weight gradient gathers both graphs' contributions
    digests = _weighted_sgd_digests(each_core_count)
    assert digests[0] == digests[1] == digests[2]


def test_weighted_sgd_training_without_openblas_symbols(each_core_count, monkeypatch):
    # where numpy's BLAS exports no thread-count calls the pin does
    # nothing, and these products are too small for BLAS threads anyway
    pinned = _weighted_sgd_digests(each_core_count)
    monkeypatch.setattr(parallel, "_find_blas_calls", lambda: ())
    monkeypatch.setattr(parallel, "_blas_calls", None)
    assert _weighted_sgd_digests(each_core_count) == pinned
    assert parallel._blas_calls == ()


def _attr_dataset(root, n, n_triples, n_sup):
    """A dbp15k-jape directory with n entities and n_triples triples per
    side, attribute files, and n_sup of the n alignments for training."""
    rng = np.random.default_rng(4)
    perm = rng.permutation(n)

    def triples(offset):
        return [(offset + int(h), 10 + int(r), offset + int(t))
                for h, r, t in zip(rng.integers(0, n, n_triples), rng.integers(0, 3, n_triples),
                                   rng.integers(0, n, n_triples))]

    def attrs(offset):
        return [(offset + e, f"p{int(p)}") for e in range(n)
                for p in rng.choice(10, size=int(rng.integers(1, 4)), replace=False)]

    return write_dataset(
        root,
        triples_1=triples(1000), triples_2=triples(5000),
        ents_1=[(1000 + e, f"l:{e}") for e in range(n)],
        ents_2=[(5000 + e, f"r:{e}") for e in range(n)],
        rels_1=[(10 + r, f"rl:{r}") for r in range(3)],
        rels_2=[(10 + r, f"rr:{r}") for r in range(3)],
        files={
            "sup_ent_ids": [(1000 + e, 5000 + int(perm[e])) for e in range(n_sup)],
            "ref_ent_ids": [(1000 + e, 5000 + int(perm[e])) for e in range(n_sup, n)],
            "attrs_1": attrs(1000),
            "attrs_2": attrs(5000),
        },
    )


@pytest.fixture
def mid_attr_dataset(tmp_path):
    """300 entities per side with attribute files; 160 train pairs x 120
    negatives make two loss blocks."""
    return _attr_dataset(tmp_path / "data", 300, 1200, 200)


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
    # the invariant behind the shared gradient: any accumulation order
    # gives the same bits, and only the loss sum keeps block order
    pair = _mid_pair()
    enc = EncoderConfig(n_layers=2, dim=16, seed=1)
    adj = tuple(build_adjacency(g, AdjacencyConfig()) for g in (pair.left, pair.right))
    state = init_state(enc, pair.left.entity_count, pair.right.entity_count)
    out_l, out_r, _ = forward(*adj, state, enc)
    pos = pair.alignment.train_pairs
    neg = sample_negatives(pos, len(out_l), len(out_r), 100, np.random.default_rng(0))

    # the chunks of negatives in order, on one thread's buffers
    monkeypatch.setattr(training, "thread_map", lambda fn, items, work, scratch:
                        [fn(x, s) for s in [scratch()] for x in items])
    serial = margin_rank_loss(out_l, out_r, pos, neg, 3.0)
    # one "thread" per chunk, the chunks visited last to first
    monkeypatch.setattr(training, "thread_map", lambda fn, items, work, scratch:
                        [fn(x, scratch()) for x in reversed(list(items))][::-1])
    reverse = margin_rank_loss(out_l, out_r, pos, neg, 3.0)

    assert serial[0] == reverse[0]
    for a, b in zip(serial[1:], reverse[1:]):
        assert a.any() and np.array_equal(a, np.round(a))
        assert np.array_equal(a, b)
        assert not np.signbit(a[a == 0.0]).any()  # no -0.0


def _varied_loss_inputs():
    # 40,000 negatives at dim 16, rows of widely varied length, so a loss
    # summed in another order would show in its bits
    pair = _mid_pair()
    rng = np.random.default_rng(4)
    out_l, out_r = (rng.normal(size=(500, 16)) * np.exp(rng.normal(size=(500, 1))) for _ in range(2))
    pos = pair.alignment.train_pairs
    return out_l, out_r, pos, sample_negatives(pos, len(out_l), len(out_r), 100, rng)


def test_loss_independent_of_chunk_size_and_cores(each_core_count, monkeypatch):
    # chunks of 256, 4,096 (the shipped size), 16,384 and 262,144 rows of
    # the 40,000 negatives, on 1, 2 and 8 cores
    out_l, out_r, pos, neg = _varied_loss_inputs()
    results = []
    for elements in (1 << 12, training.CHUNK_ELEMENTS, 1 << 18, 1 << 22):
        monkeypatch.setattr(training, "CHUNK_ELEMENTS", elements)
        results += each_core_count(lambda cores: margin_rank_loss(out_l, out_r, pos, neg, 3.0))
    loss, grad_l, grad_r = results[0]
    assert grad_l.any() and grad_r.any()
    for other in results:
        assert other[0] == loss
        for got, first in zip(other[1:], (grad_l, grad_r)):
            assert got.dtype == np.int16 and np.array_equal(got, first)


@pytest.mark.parametrize("elements", [1 << 12, parallel.MIN_ITEM_SIZE - 1])
def test_loss_runs_on_every_core_with_chunks_under_the_item_size(monkeypatch, elements):
    # MIN_ITEM_SIZE as shipped: each chunk is under it, but the 40,000 x
    # 16 elements of the stream are almost ten times over it, so the loss
    # is worth a thread per core: one pool of cores - 1 helpers
    out_l, out_r, pos, neg = _varied_loss_inputs()
    monkeypatch.setattr(training, "CHUNK_ELEMENTS", elements)
    n, d = neg.size // 2, out_l.shape[1]
    assert elements // d * d < parallel.MIN_ITEM_SIZE < n * d // 8
    pools = []

    class RecordingPool(parallel.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(parallel, "ThreadPoolExecutor", RecordingPool)
    results = []
    for cores in (1, 2, 8):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cores=cores: set(range(cores)))
        pools.clear()
        results.append(margin_rank_loss(out_l, out_r, pos, neg, 3.0))
        assert pools == ([cores - 1] if cores > 1 else [])
    for other in results[1:]:
        assert other[0] == results[0][0]
        for got, first in zip(other[1:], results[0][1:]):
            assert np.array_equal(got, first)


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

    # a scratch is made once per thread, on the calling thread, and item
    # i runs with thread i % threads's: here scratch t is the t-th made
    made = []

    def scratch():
        made.append(threading.get_ident())
        return len(made) - 1

    def record_scratch(x, s):
        ran_on[x] = threading.get_ident()
        return s

    ran_on.clear()
    got = parallel.thread_map(record_scratch, range(20), parallel.MIN_ITEM_SIZE, scratch=scratch)
    assert got == [i % 8 for i in range(20)] and pools == [4, 7]
    assert made == [threading.get_ident()] * 8
    # the pool may run two helper shares on one of its threads
    assert all(ran_on[i] == ran_on[i % 8] for i in range(20))
    assert [ran_on[i] == threading.get_ident() for i in range(8)] == [True] + [False] * 7
    # small items: the calling thread, with one scratch
    made.clear()
    ran_on.clear()
    assert parallel.thread_map(record_scratch, range(5), small, scratch=scratch) == [0] * 5
    assert made == [threading.get_ident()] and set(ran_on.values()) == {threading.get_ident()}
    assert pools == [4, 7]


def test_loss_holds_one_gradient_accumulator_on_any_core_count(each_core_count, monkeypatch):
    # every loss thread adds into one integer accumulator of both sides'
    # rows, so a thread beyond the first adds only its chunk buffers and
    # one chunk's temporaries, smaller than those, to the traced peak
    rng = np.random.default_rng(0)
    n, d = 5000, 16
    out_l, out_r = rng.normal(size=(n, d)), rng.normal(size=(n, d))
    pos = np.stack([rng.choice(n, 400, replace=False), rng.choice(n, 400, replace=False)], axis=1)
    neg = sample_negatives(pos, n, n, 100, rng)
    # chunks of 256 rows: 157 of the 40,000 rows, so 8 cores run 8 threads
    monkeypatch.setattr(training, "CHUNK_ELEMENTS", 256 * d)
    buffers = 256 * d * (8 + 8 + 2 + 2)  # two float64 and two int16 buffers
    threads = []  # per loss, the threads that got buffers

    def counting_map(fn, items, work, scratch):
        threads.append(0)

        def counted():
            threads[-1] += 1
            return scratch()

        return parallel.thread_map(fn, items, work, scratch=counted)

    monkeypatch.setattr(training, "thread_map", counting_map)

    def peak(cores):
        tracemalloc.start()
        try:
            result = margin_rank_loss(out_l, out_r, pos, neg, 3.0)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    (first, serial), *others = each_core_count(peak)
    assert threads == [1, 2, 8]
    # an int16 accumulator of both sides' rows is larger than a thread's
    # allowance, so an accumulator per thread would break the bound
    assert first[1].dtype == np.int16 and 2 * n * d * 2 > 2 * buffers
    for t, (result, traced) in zip(threads[1:], others):
        assert traced - serial <= (t - 1) * 2 * buffers
        for a, b in zip(first, result):
            assert np.array_equal(a, b)


@pytest.fixture
def blas_at_two():
    """Yields OpenBLAS's (get, set) thread-count calls with the count set
    to 2, and restores the count found."""
    if (os.cpu_count() or 1) < 2:
        pytest.skip("one CPU: OpenBLAS has no second thread to differ with")
    with parallel.one_blas_thread():  # resolves the calls
        pass
    if not parallel._blas_calls:
        pytest.skip("numpy's BLAS exports no OpenBLAS thread-count calls (not OpenBLAS)")
    get, set_ = parallel._blas_calls
    found = get()
    set_(2)
    try:
        yield get, set_
    finally:
        set_(found)


def test_one_blas_thread_restores_the_callers_count(blas_at_two):
    get, _ = blas_at_two
    with parallel.one_blas_thread():
        assert get() == 1
    assert get() == 2
    with pytest.raises(KeyError):
        with parallel.one_blas_thread():
            raise KeyError("body")
    assert get() == 2
    assert parallel._blas_depth == 0


def test_one_blas_thread_is_shared_by_concurrent_callers(blas_at_two):
    # the count is global to the process: a caller that leaves must not
    # restore it while another is still inside
    get, _ = blas_at_two
    inside, leave = threading.Event(), threading.Event()

    def other():
        with parallel.one_blas_thread():
            inside.set()
            leave.wait()

    thread = threading.Thread(target=other)
    thread.start()
    try:
        assert inside.wait(timeout=10)
        with parallel.one_blas_thread():
            assert get() == 1
        assert get() == 1
    finally:
        leave.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert get() == 2


def test_weighted_forward_and_backward_run_on_one_blas_thread(blas_at_two, monkeypatch):
    get, _ = blas_at_two
    seen = []

    def reading(fn):
        def wrapped(*args):
            seen.append((fn.__name__, get()))
            return fn(*args)
        return wrapped

    monkeypatch.setattr(encoder, "_forward_one", reading(encoder._forward_one))
    monkeypatch.setattr(encoder, "_backward_one", reading(encoder._backward_one))
    pair = _mid_pair()
    enc = EncoderConfig(n_layers=2, dim=16, use_weights=True, seed=1)
    adj = tuple(build_adjacency(g, AdjacencyConfig()) for g in (pair.left, pair.right))
    state = init_state(enc, pair.left.entity_count, pair.right.entity_count)
    out_l, out_r, tape = forward(*adj, state, enc, keep_tape=True)
    backward(np.ones_like(out_l), np.ones_like(out_r), tape)
    assert seen == [("_forward_one", 1)] * 2 + [("_backward_one", 1)] * 2
    assert get() == 2


def test_weighted_training_independent_of_callers_blas_threads(blas_at_two):
    # products of 2,000 x 32 x 32 are large enough for OpenBLAS to
    # split them over its threads, which changes the last bits
    _, set_ = blas_at_two
    pair = random_pair(np.random.default_rng(5), n=2000, n_train=1000, n_triples=10000)
    enc = EncoderConfig(n_layers=2, dim=32, use_weights=True, seed=1)
    tc = TrainConfig(optimizer="sgd", learning_rate=0.001, n_negatives=20, n_epochs=4, seed=2)
    digests = []
    for count in (2, 1):
        set_(count)
        digests.append(_train_digest(*train(pair, AdjacencyConfig(), enc, tc)))
    assert digests[0] == digests[1]


def test_weighted_grid_independent_of_workers_and_blas_threads(tmp_path, blas_at_two):
    # the workers inherit the caller's BLAS count; at dim 64 the weight
    # products of these 1,000-entity graphs are split over BLAS threads.
    # The grid crosses its axes with the four ablation cells, two weighted.
    _, set_ = blas_at_two
    base = RunConfig.from_flat({
        "dataset.family": "dbp15k-jape",
        "dataset.subset": "zh-en",
        "dataset.root": str(_attr_dataset(tmp_path / "data", 1000, 5000, 500)),
        "encoder.dim": 64,
        "training.optimizer": "sgd",
        "training.learning_rate": 0.01,
        "training.n_negatives": 20,
        "training.n_epochs": 4,
    })
    axes = {"encoder.n_layers": [1, 2]}

    def grid(name, workers):
        root = tmp_path / name
        assert run_grid(base, root, axes=axes, workers=workers).n_failures == 0
        return {str(path.relative_to(root)): path.read_bytes()
                for path in sorted(root.glob("*/*"))
                if path.name in ("report.json", "loss_trace.tsv")}

    outputs = [grid("one", 1), grid("two", 2)]
    set_(1)
    outputs.append(grid("serial-blas", 1))
    assert len(outputs[0]) == 16
    assert outputs[0] == outputs[1] == outputs[2]


def test_importing_kgalign_leaves_blas_alone():
    # the thread-count calls are looked up on first use, not at import
    code = (
        "import ctypes, numpy\n"
        "def refuse(*args, **kwargs):\n"
        "    raise AssertionError('a library was loaded')\n"
        "ctypes.CDLL = refuse\n"
        "import kgalign\n"
        "from kgalign import parallel\n"
        "assert parallel._blas_calls is None\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
