import os
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from kgalign import parallel, training
from kgalign.adjacency import AdjacencyConfig, build_adjacency
from kgalign.datasets import toy_cycle_pair
from kgalign.encoder import EmbeddingState, EncoderConfig, backward, forward, init_state
from kgalign.errors import ConfigError, NumericError
from kgalign.training import (
    OptimizerState,
    TrainConfig,
    loss_trace_tsv,
    margin_rank_loss,
    optimizer_step,
    sample_negatives,
    train,
)

from conftest import random_pair


def test_negative_counting():
    rng = np.random.default_rng(0)
    pairs = np.stack([np.arange(10), np.arange(10)], axis=1)
    neg = sample_negatives(pairs, 20, 20, 5, rng)
    assert neg.shape == (10, 5, 2)


def test_negatives_stay_in_their_graph_and_exclude_original():
    rng = np.random.default_rng(1)
    pairs = np.array([[3, 7]])
    neg = sample_negatives(pairs, 5, 9, 2000, rng)
    corrupted_left = neg[0, :, 0] != 3
    corrupted_right = neg[0, :, 1] != 7
    # exactly one side changes per sample
    assert np.all(corrupted_left ^ corrupted_right)
    assert np.all((neg[0, :, 0] >= 0) & (neg[0, :, 0] < 5))
    assert np.all((neg[0, :, 1] >= 0) & (neg[0, :, 1] < 9))
    assert not np.any(neg[0, corrupted_left, 0] == 3)
    assert not np.any(neg[0, corrupted_right, 1] == 7)


def test_replacement_frequencies_within_three_sigma_of_uniform():
    # fixed seed: a fair fraction of seeds trips the 3-sigma bound on
    # some bin purely by chance (99 bins), determinism keeps this stable
    rng = np.random.default_rng(0)
    n = 100
    pairs = np.array([[17, 42]])
    neg = sample_negatives(pairs, n, n, 100_000, rng)
    for side, orig in ((0, 17), (1, 42)):
        corrupted = neg[0, :, side] != orig
        draws = neg[0, corrupted, side]
        counts = np.bincount(draws, minlength=n).astype(float)
        counts = np.delete(counts, orig)  # original excluded by construction
        n_draws = len(draws)
        p = 1.0 / (n - 1)
        expected = n_draws * p
        sigma = np.sqrt(n_draws * p * (1 - p))
        assert np.all(np.abs(counts - expected) <= 3 * sigma)


def test_single_entity_side_errors():
    rng = np.random.default_rng(2)
    with pytest.raises(ConfigError, match="single-entity"):
        sample_negatives(np.array([[0, 0]]), 1, 5, 1, rng)


def test_loss_hand_example_active_hinge():
    # positive distance 1.0, negative distance 2.5, margin 3 -> term 1.5
    emb_l = np.array([[0.0], [0.0]])
    emb_r = np.array([[1.0], [2.5]])
    pos = np.array([[0, 0]])
    neg = np.array([[[1, 1]]])  # left 1 (0.0) vs right 1 (2.5)
    loss, _, _ = margin_rank_loss(emb_l, emb_r, pos, neg, margin=3.0)
    assert loss == pytest.approx(1.5)


def test_loss_inactive_hinge_zero_gradient():
    emb_l = np.array([[0.0], [0.0]])
    emb_r = np.array([[1.0], [9.0]])  # negative is margin-far already
    pos = np.array([[0, 0]])
    neg = np.array([[[1, 1]]])
    loss, gl, gr = margin_rank_loss(emb_l, emb_r, pos, neg, margin=3.0)
    assert loss == 0.0
    assert np.all(gl == 0.0) and np.all(gr == 0.0)


def _loss_reference(emb_l, emb_r, pos, neg, margin):
    total = 0.0
    for i, (l, r) in enumerate(pos):
        d_pos = np.abs(emb_l[l] - emb_r[r]).sum()
        for nl, nr in neg[i]:
            d_neg = np.abs(emb_l[nl] - emb_r[nr]).sum()
            total += max(0.0, d_pos + margin - d_neg)
    return total


def test_loss_matches_bruteforce_reference():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n, d = 6, 4
        emb_l = rng.normal(size=(n, d))
        emb_r = rng.normal(size=(n, d))
        pos = np.array([[0, 1], [2, 3]])
        neg = rng.integers(0, n, size=(2, 2, 2))
        loss, _, _ = margin_rank_loss(emb_l, emb_r, pos, neg, margin=1.5)
        assert loss == pytest.approx(_loss_reference(emb_l, emb_r, pos, neg, 1.5))


def test_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    n, d = 6, 3
    emb_l = rng.normal(size=(n, d))
    emb_r = rng.normal(size=(n, d))
    pos = np.array([[0, 1], [2, 3], [4, 5]])
    neg = rng.integers(0, n, size=(3, 4, 2))
    loss, gl, gr = margin_rank_loss(emb_l, emb_r, pos, neg, margin=2.0)
    h = 1e-6
    for emb, grad in ((emb_l, gl), (emb_r, gr)):
        numeric = np.zeros_like(emb)
        for i in range(emb.shape[0]):
            for j in range(emb.shape[1]):
                orig = emb[i, j]
                emb[i, j] = orig + h
                up = _loss_reference(emb_l, emb_r, pos, neg, 2.0)
                emb[i, j] = orig - h
                down = _loss_reference(emb_l, emb_r, pos, neg, 2.0)
                emb[i, j] = orig
                numeric[i, j] = (up - down) / (2 * h)
        assert np.allclose(grad, numeric, atol=1e-5)


def test_loss_nonnegative_random():
    rng = np.random.default_rng(5)
    for _ in range(20):
        emb_l = rng.normal(size=(5, 3))
        emb_r = rng.normal(size=(5, 3))
        pos = np.array([[0, 0], [1, 1]])
        neg = rng.integers(0, 5, size=(2, 3, 2))
        loss, _, _ = margin_rank_loss(emb_l, emb_r, pos, neg, margin=1.0)
        assert loss >= 0.0


def _blocked_loss_reference(emb_l, emb_r, pos, neg, margin):
    """The loss and gradients of margin_rank_loss in plain numpy: the
    float loss summed per column block of negatives, in block order, and
    the gradients from np.add.at."""
    m, k, _ = neg.shape
    pos_diff = emb_l[pos[:, 0]] - emb_r[pos[:, 1]]
    neg_diff = emb_l[neg[:, :, 0]] - emb_r[neg[:, :, 1]]  # (m, k, dim)
    terms = np.abs(pos_diff).sum(axis=1)[:, None] + margin - np.abs(neg_diff).sum(axis=2)
    block_k = max(1, min(k, 16384 // m))
    loss = 0.0
    for j in range(0, k, block_k):
        block = terms[:, j : j + block_k].ravel()
        loss += block[block > 0.0].sum()
    active = terms > 0.0
    neg_sign = np.sign(neg_diff[active])
    pos_sign = np.sign(pos_diff) * active.sum(axis=1)[:, None]
    grad_l, grad_r = np.zeros_like(emb_l), np.zeros_like(emb_r)
    np.add.at(grad_l, neg[:, :, 0][active], -neg_sign)
    np.add.at(grad_r, neg[:, :, 1][active], neg_sign)
    np.add.at(grad_l, pos[:, 0], pos_sign)
    np.add.at(grad_r, pos[:, 1], -pos_sign)
    return loss, grad_l, grad_r


@pytest.mark.parametrize("cpus", [1, 2, 8])
@pytest.mark.parametrize(
    "m, k, shared",
    [(333, 57, False), (2000, 20, False), (7, 3, False), (300, 1, False),
     (1, 70_000, False), (50, 0, False), (7, 3, True), (2000, 20, True)],
    ids=["ragged-last-block", "chunks-inside-blocks", "single-block", "one-negative",
         "int32-accumulator", "no-negatives", "shared-positive-7-pairs",
         "shared-positive-selector"],
)
def test_loss_equals_blocked_reference_bit_for_bit(monkeypatch, cpus, m, k, shared):
    # 333 x 57: blocks of 49 and 8 columns, a chunk across their boundary;
    # 2000 x 20: blocks of 8, 8 and 4 columns, each of several chunks;
    # 1 x 70,000: each side's positive entity is named by ~35,000 rows,
    # more than an int16 accumulator can count; 50 x 0: no hinge term, so
    # a zero loss and zero gradients; shared: pairs 0 and 1 share their
    # right entity and pairs 0 and 2 their left one, so the positives'
    # scatter repeats an index among 7 rows and among 2000, both through
    # the kernel
    monkeypatch.setattr(parallel, "MIN_ITEM_SIZE", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    rng = np.random.default_rng(m + k)
    # rows of widely varied length, so that summing the hinge terms in
    # another order changes the loss's bits (at 333 x 57, one flat sum does)
    emb_l = rng.normal(size=(2500, 8)) * np.exp(rng.normal(size=(2500, 1)))
    emb_r = rng.normal(size=(2600, 8)) * np.exp(rng.normal(size=(2600, 1)))
    pos = np.stack([rng.permutation(2500)[:m], rng.permutation(2600)[:m]], axis=1)
    if m == 1:
        # the pair far apart, so that every negative is active and each
        # side's gradient row sums ~35,000 equal signs
        emb_l[pos[0, 0]], emb_r[pos[0, 1]] = 100.0, -100.0
    if shared:
        pos[1, 1], pos[2, 0] = pos[0, 1], pos[0, 0]
    if k:
        neg = sample_negatives(pos, 2500, 2600, k, rng)
    else:  # sample_negatives refuses k = 0
        neg = np.empty((m, 0, 2), dtype=np.int64)
    inputs = (emb_l, emb_r, pos, neg)
    kept = [x.copy() for x in inputs]
    loss, grad_l, grad_r = margin_rank_loss(emb_l, emb_r, pos, neg, 3.0)
    # the loss writes none of its arguments: perfbench recomputes
    # training.active_frac from them after the run
    assert all(np.array_equal(x, y) for x, y in zip(inputs, kept))
    ref_loss, ref_l, ref_r = _blocked_loss_reference(emb_l, emb_r, pos, neg, 3.0)
    assert loss == ref_loss and (loss > 0.0) == (k > 0)
    assert np.array_equal(grad_l, ref_l) and np.array_equal(grad_r, ref_r)
    assert (k > 0) == (grad_l.any() and grad_r.any())


def test_positive_counts_enter_the_accumulator_bound():
    # one positive and 2**15 active negatives: the positive's left entity
    # gets -2**15 from its own signs times its active count and about
    # -2**14 from the negatives that keep it, past int16, though no entity
    # is named by 2**15 rows of negatives
    k = 2**15
    emb_l, emb_r = np.zeros((10, 2)), np.full((10, 2), -1.0)
    emb_r[0] = 100.0
    pos = np.array([[0, 0]])
    neg = sample_negatives(pos, 10, 10, k, np.random.default_rng(0))
    assert max(np.bincount(neg[0, :, 0]).max(), np.bincount(neg[0, :, 1]).max()) < 2**15
    loss, grad_l, grad_r = margin_rank_loss(emb_l, emb_r, pos, neg, 50.0)
    ref_loss, ref_l, ref_r = _blocked_loss_reference(emb_l, emb_r, pos, neg, 50.0)
    assert grad_l.dtype == grad_r.dtype == np.int32 and ref_l.min() < -(2**15)
    assert loss == ref_loss
    assert np.array_equal(grad_l, ref_l) and np.array_equal(grad_r, ref_r)


@pytest.mark.parametrize("named, dtype", [(127, np.int8), (128, np.int16),
                                           (2**15 - 1, np.int16), (2**15, np.int32)])
def test_accumulator_is_the_narrowest_type_that_holds_named(named, dtype):
    # one positive (0, 0) and `named` negatives that all keep left entity
    # 1 and spread their right one over entities 1-9, every hinge active:
    # left 0 gets +named from the positive's signs times its active count,
    # left 1 gets -named from the negatives' signs, and no entity is named
    # by more rows, so each bound is met exactly
    emb_l, emb_r = np.zeros((10, 2)), np.full((10, 2), -1.0)
    emb_l[0], emb_r[0] = 1.0, 0.0
    pos = np.array([[0, 0]])
    neg = np.stack([np.ones(named, dtype=np.int64), 1 + np.arange(named) % 9], axis=1)[None]
    loss, grad_l, grad_r = margin_rank_loss(emb_l, emb_r, pos, neg, 50.0)
    ref_loss, ref_l, ref_r = _blocked_loss_reference(emb_l, emb_r, pos, neg, 50.0)
    assert grad_l.dtype == grad_r.dtype == dtype
    assert grad_l[0].max() == -grad_l[1].min() == -grad_r[0].min() == named
    assert loss == ref_loss
    assert np.array_equal(grad_l, ref_l) and np.array_equal(grad_r, ref_r)


def test_float32_epoch_stays_float32():
    # float32 features and propagation matrices through one epoch's four
    # stages: every (n, dim) array comes back float32, and on a toy whose
    # float32 outputs keep every hinge's and every difference's sign, the
    # loss's integer gradient is the float64 path's
    pair = random_pair(np.random.default_rng(14), n=300, n_train=60, n_triples=1200)
    enc, tc = EncoderConfig(n_layers=2, dim=16, seed=1), TrainConfig(n_negatives=5)
    adj = [build_adjacency(g, AdjacencyConfig()) for g in (pair.left, pair.right)]
    state = init_state(enc, 300, 300)
    state32 = EmbeddingState(*(f.astype(np.float32) for f in state.parameters()))
    pos = pair.alignment.train_pairs
    neg = sample_negatives(pos, 300, 300, 5, np.random.default_rng(15))
    out64 = forward(*adj, state, enc)[:2]
    out_l, out_r, tape = forward(*(a.astype(np.float32) for a in adj), state32, enc,
                                 keep_tape=True)
    assert out_l.dtype == out_r.dtype == np.float32

    def signs(emb_l, emb_r):
        diffs = [emb_l[p[..., 0]] - emb_r[p[..., 1]] for p in (pos, neg)]
        terms = np.abs(diffs[0]).sum(axis=1)[:, None] + 3.0 - np.abs(diffs[1]).sum(axis=2)
        return [np.sign(x) for x in (*diffs, terms)]

    assert all(np.array_equal(a, b) for a, b in zip(signs(out_l, out_r), signs(*out64)))
    loss, g_l, g_r = margin_rank_loss(out_l, out_r, pos, neg, 3.0)
    loss64, g64_l, g64_r = margin_rank_loss(*out64, pos, neg, 3.0)
    assert np.array_equal(g_l, g64_l) and np.array_equal(g_r, g64_r) and g_l.any()
    assert type(loss) is float and loss == pytest.approx(loss64, rel=1e-5)
    grads = backward(g_l, g_r, tape)
    assert [g.dtype for g in grads.parameters()] == [np.float32] * 2
    params = state32.parameters()
    before = [p.copy() for p in params]
    opt = OptimizerState(params, tc)
    optimizer_step(params, grads.parameters(), opt, tc)
    assert [x.dtype for x in params + opt.m + opt.v] == [np.float32] * 6
    assert all(not np.array_equal(p, b) for p, b in zip(params, before))


@pytest.mark.parametrize("bad", [(0, 0, 0, -1), (0, 1, 0, 5), (1, 0, 1, 7)])
def test_loss_rejects_out_of_range_negatives(bad):
    # the gathers clip rather than check, so the loss checks first
    emb_l, emb_r = np.ones((5, 3)), np.ones((7, 3))
    neg = np.zeros((2, 2, 2), dtype=np.int64)
    neg[bad[:3]] = bad[3]
    with pytest.raises(IndexError, match="negative"):
        margin_rank_loss(emb_l, emb_r, np.array([[0, 0], [1, 1]]), neg, margin=1.0)


@pytest.mark.parametrize("side, bad", [(0, -1), (1, -1), (0, 5), (1, 7)],
                         ids=["left-minus-one", "right-minus-one", "left-length", "right-length"])
def test_loss_rejects_out_of_range_positives(side, bad):
    # the kernel does not check its targets, so the loss checks the
    # positives too, before the accumulator's dtype is chosen from them
    emb_l, emb_r = np.ones((5, 3)), np.ones((7, 3))
    pos = np.array([[0, 0], [1, 1]])
    pos[1, side] = bad
    with pytest.raises(IndexError, match="positive"):
        margin_rank_loss(emb_l, emb_r, pos, np.zeros((2, 2, 2), dtype=np.int64), margin=1.0)


def test_sgd_single_step():
    cfg = TrainConfig(optimizer="sgd", learning_rate=0.1, n_epochs=1)
    theta = np.array([1.0])
    state = OptimizerState([theta], cfg)
    optimizer_step([theta], [np.array([0.5])], state, cfg)
    assert theta[0] == pytest.approx(0.95)


def test_adam_first_step_closed_form():
    cfg = TrainConfig(optimizer="adam", learning_rate=0.1, n_epochs=1)
    theta = np.array([0.0])
    state = OptimizerState([theta], cfg)
    optimizer_step([theta], [np.array([0.5])], state, cfg)
    # bias-corrected first step moves by about lr * sign(g)
    assert theta[0] == pytest.approx(-0.1, abs=1e-7)


def test_zero_gradient_is_noop():
    for opt in ("sgd", "adam"):
        cfg = TrainConfig(optimizer=opt, learning_rate=0.5, n_epochs=1)
        theta = np.array([1.0, -2.0])
        state = OptimizerState([theta], cfg)
        optimizer_step([theta], [np.zeros(2)], state, cfg)
        assert np.array_equal(theta, [1.0, -2.0])


def test_non_finite_gradient_errors_with_context():
    cfg = TrainConfig(optimizer="sgd", learning_rate=0.5, n_epochs=1)
    theta = np.array([1.0])
    state = OptimizerState([theta], cfg)
    with pytest.raises(NumericError, match="epoch 3"):
        optimizer_step([theta], [np.array([np.nan])], state, cfg, context="epoch 3")


def test_zero_epochs_returns_initial_state():
    pair = toy_cycle_pair(6, 3, seed=0)
    enc = EncoderConfig(n_layers=2, dim=8, seed=5)
    tc = TrainConfig(n_epochs=0, seed=6)
    state, losses = train(pair, AdjacencyConfig(), enc, tc)
    assert losses == []
    fresh = init_state(enc, 6, 6)
    # seeds inside train() come from the configs, so states must agree
    ref = init_state(EncoderConfig(n_layers=2, dim=8, seed=5), 6, 6)
    assert np.array_equal(state.features_left, ref.features_left)
    assert np.array_equal(fresh.features_right, state.features_right)


def test_training_descends_on_toy_instance():
    pair = toy_cycle_pair(4, 2, seed=0)
    enc = EncoderConfig(n_layers=2, dim=8, seed=1)
    tc = TrainConfig(optimizer="adam", learning_rate=0.5, n_negatives=2, n_epochs=200, seed=2)
    state, losses = train(pair, AdjacencyConfig(), enc, tc)
    assert losses[-1] < losses[0]


def test_training_is_deterministic():
    pair = toy_cycle_pair(6, 3, seed=1)
    enc = EncoderConfig(n_layers=2, dim=8, seed=3)
    tc = TrainConfig(optimizer="adam", learning_rate=0.5, n_negatives=3, n_epochs=30, seed=4)
    s1, l1 = train(pair, AdjacencyConfig(), enc, tc)
    s2, l2 = train(pair, AdjacencyConfig(), enc, tc)
    assert l1 == l2
    assert np.array_equal(s1.features_left, s2.features_left)
    assert np.array_equal(s1.features_right, s2.features_right)


def test_each_epoch_drops_its_arrays_once_they_are_used(monkeypatch):
    # by weak reference, what each stage of the last epoch returned:
    # "forward[2]" is the tape, "margin_rank_loss[1]" the left gradient
    made = {}

    def stage(name, dead):
        real = getattr(training, name)

        def wrapped(*args, **kwargs):
            for key in dead:
                ref = made.get(key)
                assert ref is None or ref() is None, f"{key} is alive when {name} starts"
            result = real(*args, **kwargs)
            for i, x in enumerate(result if isinstance(result, tuple) else (result,)):
                if x is not None and not isinstance(x, float):
                    made[f"{name}[{i}]"] = weakref.ref(x)
            return result

        monkeypatch.setattr(training, name, wrapped)

    stage("sample_negatives", ["backward[0]", "forward[2]", "margin_rank_loss[1]"])
    stage("forward", ["backward[0]", "forward[0]", "forward[1]", "forward[2]"])
    stage("backward", ["sample_negatives[0]", "forward[0]", "forward[1]"])
    stage("optimizer_step", ["forward[2]", "margin_rank_loss[1]", "margin_rank_loss[2]"])
    pair = toy_cycle_pair(6, 3, seed=1)
    tc = TrainConfig(n_negatives=3, n_epochs=3, seed=4)
    _, losses = train(pair, AdjacencyConfig(), EncoderConfig(n_layers=2, dim=8, seed=3), tc)
    assert len(losses) == 3 and {"backward[0]", "forward[2]"} <= set(made)


def test_one_epoch_peaks_within_five_embedding_arrays(monkeypatch):
    # an epoch's working set over what it starts with, counted in (n, dim)
    # float64 arrays: forward's outputs, the loss's integer gradients and
    # backward's float copy and products, on two cores. It peaks at 3.95
    # arrays; int16 gradients with bool masks would peak at 4.41, past the bound
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    n, dim = 20_000, 64
    pair = random_pair(np.random.default_rng(11), n=n, n_train=n // 5, n_triples=3 * n)
    traj = training.start(pair, AdjacencyConfig(), EncoderConfig(dim=dim, seed=1),
                          TrainConfig(n_negatives=10, seed=2))
    tracemalloc.start()
    try:
        training.advance(traj, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj.losses) == 1 and peak <= 4.2 * n * dim * 8


@pytest.mark.parametrize("use_weights", [False, True])
def test_attribute_pathway_start_draws_no_features_it_discards(use_weights):
    # the attribute pathway's features are its tables, densified: start
    # keeps them and the weights, init_state's bit for bit, and never
    # holds random features in their place, so its traced peak stays
    # below one (n, width) float64 array over what it keeps
    n, width = 4000, 256
    pair = random_pair(np.random.default_rng(12), n=n, n_train=50, n_triples=3 * n)
    rng = np.random.default_rng(13)
    tables = tuple(sp.csr_array((np.ones(n), (np.arange(n), rng.integers(0, width, n))),
                                shape=(n, width)) for _ in range(2))
    adjacencies = tuple(build_adjacency(g, AdjacencyConfig()) for g in (pair.left, pair.right))
    enc = EncoderConfig(dim=width, use_weights=use_weights, seed=1)
    tracemalloc.start()
    try:
        traj = training.start(pair, AdjacencyConfig(), enc, TrainConfig(optimizer="sgd"),
                              tables, adjacencies)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(p.nbytes for p in traj.state.parameters())
    assert peak - kept < n * width * 8
    drawn = init_state(enc, n, n)
    for got, expected in zip(traj.state.parameters(), [t.toarray() for t in tables] + drawn.weights):
        assert got.tobytes() == expected.tobytes()


def test_empty_train_split_errors():
    rng = np.random.default_rng(6)
    pair = random_pair(rng, n=6, n_train=0, n_test=4)
    with pytest.raises(ConfigError, match="train split"):
        train(pair, AdjacencyConfig(), EncoderConfig(dim=4), TrainConfig(n_epochs=1))


def test_disconnected_unsampled_entities_get_zero_gradient():
    # node left:5 is isolated (self-loop only) and never appears in any
    # positive or negative pair of the epoch
    from kgalign.graphs import AlignmentSet, GraphPair, KnowledgeGraph, Role
    from kgalign.encoder import backward
    from kgalign.training import margin_rank_loss

    left = KnowledgeGraph(6, 1, [(0, 0, 1), (1, 0, 2), (2, 0, 3), (3, 0, 4)])
    right = KnowledgeGraph(6, 1, [(0, 0, 1), (1, 0, 2), (2, 0, 3), (3, 0, 4)])
    align = AlignmentSet.from_records([(0, 0, Role.TRAIN), (1, 1, Role.TRAIN)])
    pair = GraphPair(left, right, align)
    adj_l = build_adjacency(left, AdjacencyConfig())
    adj_r = build_adjacency(right, AdjacencyConfig())
    enc = EncoderConfig(n_layers=2, dim=4, seed=0)
    state = init_state(enc, 6, 6)
    pos = align.train_pairs
    neg = np.array([[[2, 1]], [[3, 1]]])  # avoids entity 5 everywhere
    out_l, out_r, tape = forward(adj_l, adj_r, state, enc, keep_tape=True)
    loss, gl, gr = margin_rank_loss(out_l, out_r, pos, neg, margin=3.0)
    grads = backward(gl, gr, tape)
    assert np.all(grads.features_left[5] == 0.0)
    assert np.all(grads.features_right[5] == 0.0)


def test_loss_trace_tsv_roundtrip():
    text = loss_trace_tsv([1.5, 0.25])
    lines = text.strip().split("\n")
    assert lines[0] == "epoch\tloss"
    assert lines[1].split("\t") == ["0", "1.5"]
    assert lines[2].split("\t") == ["1", "0.25"]


@pytest.mark.parametrize("optimizer, use_weights", [("adam", False), ("sgd", True)])
def test_advance_in_steps_equals_train(optimizer, use_weights):
    pair = toy_cycle_pair(6, 3, seed=1)
    enc = EncoderConfig(n_layers=2, dim=8, use_weights=use_weights, seed=3)
    tc = TrainConfig(optimizer=optimizer, learning_rate=0.5, n_negatives=3, n_epochs=5, seed=4)
    state, losses = train(pair, AdjacencyConfig(), enc, tc)
    traj = training.start(pair, AdjacencyConfig(), enc, tc)
    assert training.advance(traj, 2) is traj and len(traj.losses) == 2
    training.advance(traj, 5)
    assert traj.losses == losses and traj.optimizer.step_count == 5
    for a, b in zip(traj.state.parameters(), state.parameters()):
        assert a.tobytes() == b.tobytes()
    with pytest.raises(ValueError, match="past 4"):
        training.advance(traj, 4)
