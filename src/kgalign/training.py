"""Margin-rank training over seed alignments with uniform negative sampling.

The loss is a full-batch double sum over train pairs and their sampled
corruptions: hinge(pos_L1 + margin - neg_L1). Subgradient conventions:
|x| has slope 0 at x = 0, and the hinge contributes nothing when exactly
at its boundary. Negatives are resampled fresh every epoch.

The loss's one stream of negatives and the optimizer's flat parameter
blocks are shared out to the threads of the budget
(parallel.thread_count). No result depends on the thread count: the
loss gradient is integer-valued (sums of signs and hinge counts, far
below 2**53), and each loss thread adds up its signs exactly in an
integer accumulator, so their order cannot change a bit; the float loss
is summed per column block of the stream, in block order, on the
calling thread; and the optimizer's update is elementwise. The training
loop drops each array of an epoch as soon as the epoch is done with it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .adjacency import AdjacencyConfig, build_adjacency
from .configfile import FLAT_KEY
from .encoder import (
    EmbeddingState,
    EncoderConfig,
    backward,
    forward,
    init_state,
)
from .errors import ConfigError, NumericError
from .graphs import GraphPair, require_valid
from .linalg import scatter_add_rows
from .parallel import thread_map, threads_for

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    optimizer: str = "adam"  # 'adam' or 'sgd'
    learning_rate: float = 1.0
    n_negatives: int = 50
    n_epochs: int = 2000
    margin: float = 3.0
    # per run, derived from RunConfig.seed; not part of the flat form
    seed: int = field(default=0, metadata={FLAT_KEY: None})

    def __post_init__(self):
        if self.optimizer not in ("adam", "sgd"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError(
                f"learning_rate must be positive and finite, got {self.learning_rate}"
            )
        if self.n_negatives < 1:
            raise ConfigError("n_negatives must be at least 1")
        if not 0 <= self.margin < math.inf:
            raise ConfigError(f"margin must be non-negative and finite, got {self.margin}")
        if self.n_epochs < 0:
            raise ConfigError("n_epochs must be non-negative")


class OptimizerState:
    """Per-parameter accumulators plus a step counter.

    SGD keeps nothing; Adam keeps first/second moment estimates shaped
    like each parameter.
    """

    def __init__(self, params: list[np.ndarray], cfg: TrainConfig):
        self.step_count = 0
        if cfg.optimizer == "adam":
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]
        else:
            self.m = None
            self.v = None


def optimizer_step(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    state: OptimizerState,
    cfg: TrainConfig,
    context: str = "",
) -> None:
    """One in-place update of all parameters.

    SGD: p -= lr * g. Adam: bias-corrected moment update with the usual
    constants (0.9, 0.999, 1e-8). Every parameter, with its gradient and
    moments, is updated in flat blocks of OPT_BLOCK elements, thread t
    taking blocks t, t + threads, ...; the update is elementwise, so the
    blocks and threads cannot change a bit. Parameters must be
    C-contiguous, so that their flat blocks are views.
    """
    if len(params) != len(grads):
        raise ValueError("params and grads must align")
    where = f" ({context})" if context else ""
    for i, (p, g) in enumerate(zip(params, grads)):
        if p.shape != g.shape:
            raise ValueError(f"parameter {i} shape {p.shape} vs gradient {g.shape}")
        if not p.flags.c_contiguous:
            raise ValueError(f"parameter {i} is not C-contiguous")
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient in parameter {i}{where}")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    lr = cfg.learning_rate

    def sgd(p, g, a):
        p -= np.multiply(lr, g, out=a)  # p -= lr * g

    def adam(p, g, m, v, a, b):
        m *= ADAM_BETA1
        m += np.multiply(1.0 - ADAM_BETA1, g, out=a)
        v *= ADAM_BETA2
        v += np.multiply(1.0 - ADAM_BETA2, np.square(g, out=a), out=a)
        # p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
        np.multiply(lr, np.divide(m, bc1, out=a), out=a)
        np.add(np.sqrt(np.divide(v, bc2, out=b), out=b), ADAM_EPS, out=b)
        p -= np.divide(a, b, out=a)

    if cfg.optimizer == "adam":
        step, moments, temporaries = adam, (state.m, state.v), 2
    else:
        step, moments, temporaries = sgd, (), 1
    flat = [[x.reshape(-1) for x in arrays] for arrays in zip(params, grads, *moments)]
    blocks = [(i, lo) for i, p in enumerate(params) for lo in range(0, p.size, OPT_BLOCK)]
    size = sum(p.size for p in params)
    threads = threads_for(len(blocks), size)
    # each thread's temporary blocks come from the calling thread, so the
    # updating threads allocate nothing
    scratch = [[np.empty(OPT_BLOCK) for _ in range(temporaries)] for _ in range(threads)]

    def update(t):
        for i, lo in blocks[t::threads]:
            views = [x[lo : lo + OPT_BLOCK] for x in flat[i]]
            step(*views, *(a[: len(views[0])] for a in scratch[t]))

    thread_map(update, range(threads), size)


# elements per block of optimizer_step: Adam's six arrays of one block,
# 1.5 MB in float64, stay in a core's 2 MB L2 cache between its passes.
# A zh-en step on 2 cores took 54 ms against 153 ms for whole parameters
# (104 ms at 8k elements, 55 ms at 128k)
OPT_BLOCK = 1 << 15


def sample_negatives(
    train_pairs: np.ndarray,
    n_left: int,
    n_right: int,
    k: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """k corrupted pairs per positive, shape (n_pos, k, 2).

    Each corruption flips a fair coin to pick the side, then replaces
    that side's entity with a uniform draw over the same graph's other
    entities (the original entity itself is excluded).
    """
    if k < 1:
        raise ConfigError("need at least one negative per positive")
    if n_left < 2 or n_right < 2:
        raise ConfigError("cannot corrupt a side of a single-entity graph")
    m = train_pairs.shape[0]
    corrupt_left = rng.integers(0, 2, size=(m, k)) == 0
    rl = rng.integers(0, n_left - 1, size=(m, k))
    rl += rl >= train_pairs[:, None, 0]
    rr = rng.integers(0, n_right - 1, size=(m, k))
    rr += rr >= train_pairs[:, None, 1]
    neg = np.empty((m, k, 2), dtype=np.int64)
    neg[:, :, 0] = np.where(corrupt_left, rl, train_pairs[:, None, 0])
    neg[:, :, 1] = np.where(corrupt_left, train_pairs[:, None, 1], rr)
    return neg


def margin_rank_loss(
    emb_left: np.ndarray,
    emb_right: np.ndarray,
    positives: np.ndarray,
    negatives: np.ndarray,
    margin: float,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Hinge loss over all (positive, negative) pairs and its gradient.

    positives: (m, 2) index pairs; negatives: (m, k, 2), row i holding
    the corruptions of positive i. Returns (loss, grad_left, grad_right)
    with gradients shaped like the embedding matrices.
    """
    m, k = negatives.shape[0], negatives.shape[1]
    if positives.shape[0] != m:
        raise ValueError("negatives must align with positives row-wise")
    if negatives.size and (
        negatives.min() < 0
        or negatives[:, :, 0].max() >= len(emb_left)
        or negatives[:, :, 1].max() >= len(emb_right)
    ):
        raise IndexError("negative entity index out of range")
    pl, pr = positives[:, 0], positives[:, 1]
    pos_diff = emb_left[pl] - emb_right[pr]
    pos_dist = np.abs(pos_diff).sum(axis=1)

    # the negatives form one stream of column blocks of roughly 16k rows
    # (one empty block when k = 0); row r belongs to positive owner[r].
    # Each block's loss is summed on its own, in block order. Thread t
    # takes chunks t, t + threads, ... of CHUNK_ROWS rows; a chunk may
    # cross a block boundary.
    block_k = max(1, min(k, 16384 // max(m, 1)))
    starts = range(0, max(k, 1), block_k)
    stream = np.concatenate([negatives[:, j : j + block_k].reshape(-1, 2) for j in starts])
    owner = np.concatenate([np.repeat(np.arange(m), min(block_k, k - j)) for j in starts])
    terms = pos_dist[owner] + margin  # minus each row's distance below: its hinge term
    n, d = len(stream), emb_left.shape[1]
    n_left = len(emb_left)
    # The negatives' part of the gradient is a sum of hinge signs, so
    # each thread adds them up in one integer accumulator, left rows
    # first and right rows after: int16 while no entity is named by 2**15
    # rows of one side, which bounds every entry and every sum of the
    # threads' copies, else int32.
    named = max(np.bincount(stream[:, 0], minlength=1).max(),
                np.bincount(stream[:, 1], minlength=1).max())
    acc = np.int16 if named < 2**15 else np.int32
    rows = min(n, CHUNK_ROWS)
    acc_bytes = max(1, (n_left + len(emb_right)) * d * np.dtype(acc).itemsize)
    threads = min(threads_for(-(-n // CHUNK_ROWS), rows * d), 1 + GRAD_COPY_BYTES // acc_bytes)
    # each thread's two (rows, dim) float gather buffers, two integer sign
    # buffers and accumulator are allocated here on the calling thread;
    # the accumulators beyond the first stay within GRAD_COPY_BYTES
    buffers = [(np.empty((rows, d)), np.empty((rows, d)),
                np.empty((rows, d), dtype=acc), np.empty((rows, d), dtype=acc))
               for _ in range(threads)]
    accs = [np.zeros((n_left + len(emb_right), d), dtype=acc) for _ in range(threads)]

    def chunks_of(t):
        diff, other, signs, picked = buffers[t]
        for lo in range(t * CHUNK_ROWS, n, threads * CHUNK_ROWS):
            nl, nr = stream[lo : lo + CHUNK_ROWS].T
            chunk = terms[lo : lo + CHUNK_ROWS]
            x, y = diff[: len(nl)], other[: len(nl)]
            # mode="clip" lets take write into out without a copy; the
            # indices were range-checked above
            np.take(emb_left, nl, axis=0, out=x, mode="clip")
            np.take(emb_right, nr, axis=0, out=y, mode="clip")
            np.subtract(x, y, out=x)
            chunk -= np.abs(x, out=y).sum(axis=1)
            active = np.flatnonzero(chunk > 0.0)
            s = np.subtract(x > 0.0, x < 0.0, dtype=acc, out=signs[: len(nl)])
            s = np.take(s, active, axis=0, out=picked[: len(active)], mode="clip")
            # d loss / d left row = -sign, d loss / d right row = +sign
            scatter_add_rows(accs[t], np.stack([nl[active], nr[active] + n_left]), s, (-1, 1))

    thread_map(chunks_of, range(threads), rows * d)
    # the buffers and the other copies go before the float gradients come
    del buffers
    total = accs.pop(0)
    while accs:
        total += accs.pop()
    grad_left = total[:n_left].astype(np.float64)
    grad_right = total[n_left:].astype(np.float64)
    loss = 0.0
    for j in starts:
        block = terms[m * j : m * min(j + block_k, k)]
        loss += block[block > 0.0].sum()
    active_counts = np.bincount(owner[terms > 0.0], minlength=m)

    pos_sign = np.sign(pos_diff) * active_counts[:, None]
    scatter_add_rows(grad_left, pl, pos_sign)
    scatter_add_rows(grad_right, pr, -pos_sign)
    return float(loss), grad_left, grad_right


# negatives gathered at a time by margin_rank_loss: two (rows, dim)
# float buffers per thread, 6.5 MB each at dim 200
CHUNK_ROWS = 4096
# bytes of the integer accumulators margin_rank_loss's threads may hold
# beyond the first, whatever the core count: eight extra int16 ones at
# zh-en and dim 200 (15.6 MB each), one at the DWY100k shape
GRAD_COPY_BYTES = 128 << 20


def train(
    pair: GraphPair,
    adj_cfg: AdjacencyConfig,
    enc_cfg: EncoderConfig,
    train_cfg: TrainConfig,
    initial_features: tuple[np.ndarray, np.ndarray] | None = None,
    adjacencies=None,
) -> tuple[EmbeddingState, list[float]]:
    """Full-batch training loop; returns the trained state and the
    per-epoch loss trace.

    Deterministic given the configs' seeds. initial_features overrides
    the random feature init (used for the attribute pathway, where the
    inputs are fixed multi-hot rows rather than random draws).
    adjacencies, when given, are the prebuilt (left, right) propagation
    matrices; they never change during training, so callers that also
    encode afterwards can share them, and they were built from a pair
    the caller has validated; without them the pair is validated here.
    """
    positives = pair.alignment.train_pairs
    if positives.shape[0] == 0:
        raise ConfigError("train split is empty; nothing to optimize")

    if adjacencies is None:
        require_valid(pair)
        adj_left = build_adjacency(pair.left, adj_cfg)
        adj_right = build_adjacency(pair.right, adj_cfg)
    else:
        adj_left, adj_right = adjacencies

    state = init_state(enc_cfg, pair.left.entity_count, pair.right.entity_count)
    if initial_features is not None:
        fl, fr = initial_features
        state.features_left = np.array(fl, dtype=np.float64)
        state.features_right = np.array(fr, dtype=np.float64)

    params = state.parameters()
    opt_state = OptimizerState(params, train_cfg)
    rng = np.random.default_rng(train_cfg.seed)

    losses: list[float] = []
    for epoch in range(train_cfg.n_epochs):
        negatives = sample_negatives(
            positives,
            pair.left.entity_count,
            pair.right.entity_count,
            train_cfg.n_negatives,
            rng,
        )
        out_l, out_r, tape = forward(adj_left, adj_right, state, enc_cfg, keep_tape=True)
        loss, g_l, g_r = margin_rank_loss(
            out_l, out_r, positives, negatives, train_cfg.margin
        )
        # each array is dropped once the epoch is done with it, so no stage
        # holds what an earlier one left (at zh-en, ~250 MB in all)
        del out_l, out_r, negatives
        grads = backward(g_l, g_r, tape, enc_cfg, state)
        del g_l, g_r, tape
        optimizer_step(params, grads.parameters(), opt_state, train_cfg, context=f"epoch {epoch}")
        del grads
        losses.append(loss)
    return state, losses


def loss_trace_tsv(losses: list[float]) -> str:
    """Loss trace as TSV text: epoch, loss per line."""
    lines = ["epoch\tloss"]
    lines.extend(f"{i}\t{loss!r}" for i, loss in enumerate(losses))
    return "\n".join(lines) + "\n"
