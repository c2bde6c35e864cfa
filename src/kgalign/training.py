"""Margin-rank training over seed alignments with uniform negative sampling.

The loss is a full-batch double sum over train pairs and their sampled
corruptions: hinge(pos_L1 + margin - neg_L1). Subgradient conventions:
|x| has slope 0 at x = 0, and the hinge contributes nothing when exactly
at its boundary. Negatives are resampled fresh every epoch.

The loss's chunks of negatives, walked as sampled, and the optimizer's
flat parameter blocks are the items of parallel.thread_map, which shares
them out to the threads of the budget and hands each thread the scratch
buffers it reuses from item to item. No result depends on the thread
count: the loss gradient is integer-valued (sums of signs and hinge
counts), added exactly by every loss thread into one accumulator of the
narrowest integer type that holds it, under a lock, so the threads' order
cannot change a bit; the float loss is summed in float64 per column block
of the (positive, negative) hinge terms, in block order, on the calling
thread; and the optimizer's update is elementwise. Float buffers take the
embeddings' dtype. The training loop drops each array of an epoch once done.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

# a private module's kernel, the one behind csc @ dense, which adds into
# an existing array: y[i] += a[i, j] * x[j], entry by entry in storage order
from scipy.sparse._sparsetools import csc_matvecs

from .adjacency import AdjacencyConfig, build_adjacency
from .configfile import FLAT_KEY
from .encoder import (
    EmbeddingState,
    EncoderConfig,
    _state_with_features,
    backward,
    forward,
    init_state,
)
from .errors import ConfigError, NumericError
from .graphs import GraphPair, require_valid
from .parallel import thread_map

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
            raise ConfigError(f"optimizer must be adam or sgd, got {self.optimizer!r}")
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError(
                f"learning_rate must be positive and finite, got {self.learning_rate}"
            )
        if self.n_negatives < 1:
            raise ConfigError(f"n_negatives must be at least 1, got {self.n_negatives}")
        if not 0 <= self.margin < math.inf:
            raise ConfigError(f"margin must be non-negative and finite, got {self.margin}")
        if self.n_epochs < 0:
            raise ConfigError(f"n_epochs must be non-negative, got {self.n_epochs}")


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
    moments, is updated in flat blocks of OPT_BLOCK elements, the items
    of one thread_map; the update is elementwise, so the blocks and
    threads cannot change a bit. Parameters must be C-contiguous, so
    that their flat blocks are views.
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
    blocks = [[x[lo : lo + OPT_BLOCK] for x in arrays]
              for arrays in flat for lo in range(0, len(arrays[0]), OPT_BLOCK)]

    def update(views, scratch):
        step(*views, *(a[: len(views[0])] for a in scratch))

    # a thread's scratch is its temporary blocks, in the parameters' dtype
    thread_map(update, blocks, sum(p.size for p in params), scratch=lambda: [
        np.empty(OPT_BLOCK, np.result_type(*params)) for _ in range(temporaries)])


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


def _selector(scales, m: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """The data and column starts of a CSC selector of m columns, each
    holding scales in order; cut to their first lines * a and a + 1
    entries, they are those of a selector of a <= m columns."""
    lines = len(scales)
    return np.tile(np.asarray(scales, dtype=dtype), m), np.arange(0, lines * m + 1, lines)


def _add_rows(out, targets, rows, data, starts) -> None:
    """out[targets[t, i]] += data[i] * rows[t] for each row t and line i,
    repeated targets accumulated, exact in out, a C-contiguous integer
    matrix. targets is a C-contiguous (m, lines) int64 array that the
    caller has range-checked, rows a C-contiguous (m, width) array in
    out's dtype, and data and starts a _selector of at least m columns.

    The CSC selector whose column t holds data's scales at rows
    targets[t] is multiplied into out in place by the compiled sparse
    kernel: much faster than numpy's ufunc.at, and with no temporary the
    size of out.
    """
    m, lines = targets.shape
    csc_matvecs(out.shape[0], m, out.shape[1], starts[: m + 1], targets.ravel(),
                data[: lines * m], rows.ravel(), out.ravel())


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
    with gradients shaped like the embedding matrices. The gradients are
    integer-valued, in the narrowest signed type that holds them (views of
    the one array every loss thread adds into), which backward() takes as
    they are. The gathers keep the embeddings' dtype; the loss is float64.
    No input is written.
    """
    m, k = negatives.shape[0], negatives.shape[1]
    if positives.shape[0] != m:
        raise ValueError("negatives must align with positives row-wise")
    # the gathers clip and the kernel does not check, so every index is checked here
    for name, pairs in (("positive", positives), ("negative", negatives)):
        if pairs.size and (pairs.min() < 0 or pairs[..., 0].max() >= len(emb_left)
                           or pairs[..., 1].max() >= len(emb_right)):
            raise IndexError(f"{name} entity index out of range")
    pl, pr = positives[:, 0], positives[:, 1]
    pos_diff = emb_left[pl] - emb_right[pr]
    pos_dist = np.abs(pos_diff).sum(axis=1)

    # the negatives are walked as sampled, row r belonging to positive
    # r // k, in chunks of `rows` rows: the items of one thread_map
    stream = negatives.reshape(-1, 2)
    terms = np.repeat(pos_dist + margin, k)  # minus each row's distance below: its hinge term
    n, d = len(stream), emb_left.shape[1]
    n_left = len(emb_left)
    # The gradient, hinge signs plus each positive's signs times its
    # active count, is summed in one integer accumulator of both sides'
    # rows, left rows first and right rows after, of the narrowest signed
    # type whose maximum is the most any entity is named or more: its rows
    # of negatives plus k per positive, which bound every entry and partial sum
    named = max((np.bincount(s, minlength=len(e)) + k * np.bincount(p, minlength=len(e))).max()
                for s, p, e in ((stream[:, 0], pl, emb_left), (stream[:, 1], pr, emb_right)))
    acc = next(t for t in (np.int8, np.int16, np.int32, np.int64) if np.iinfo(t).max >= named)
    rows = max(1, min(n, CHUNK_ELEMENTS // d))
    # made once per call: each negative row's two accumulator rows, in
    # range since the negatives are, and a selector of a whole chunk
    # (d loss / d left row = -sign, d loss / d right row = +sign)
    targets = np.add(stream, (0, n_left), dtype=np.int64)
    data, starts = _selector((-1, 1), rows, acc)
    total = np.zeros((n_left + len(emb_right), d), dtype=acc)
    lock = threading.Lock()

    def add_chunk(lo, buffers):
        diff, other, signs, picked, where = buffers
        nl, nr = stream[lo : lo + rows].T
        chunk = terms[lo : lo + rows]
        x, y = diff[: len(nl)], other[: len(nl)]
        # mode="clip" lets take write into out without a copy; the
        # indices were range-checked above
        np.take(emb_left, nl, axis=0, out=x, mode="clip")
        np.take(emb_right, nr, axis=0, out=y, mode="clip")
        np.subtract(x, y, out=x)
        chunk -= np.abs(x, out=y).sum(axis=1)
        active = np.flatnonzero(chunk > 0.0)
        a = len(active)
        s = np.subtract(x > 0.0, x < 0.0, dtype=acc, out=signs[: len(nl)])
        s = np.take(s, active, axis=0, out=picked[:a], mode="clip")
        to = np.take(targets[lo : lo + rows], active, axis=0, out=where[:a], mode="clip")
        with lock:
            _add_rows(total, to, s, data, starts)

    # a thread's two (rows, dim) gather buffers in the embeddings' dtype, two
    # integer sign buffers (see CHUNK_ELEMENTS), and its chunk's active
    # targets; the threads add into one accumulator, one at a time
    thread_map(add_chunk, range(0, n, rows), n * d, scratch=lambda: (
        *(np.empty((rows, d), t) for t in (emb_left.dtype, emb_left.dtype, acc, acc)),
        np.empty((rows, 2), dtype=np.int64)))
    # the loss is summed per column block of roughly 16k terms, in block
    # order, each block's terms taken positive by positive, summed in float64
    by_positive = terms.reshape(m, k)
    hinged = by_positive > 0.0
    block_k = max(1, min(k, 16384 // max(m, 1)))
    loss = 0.0
    for j in range(0, k, block_k):
        cols = slice(j, j + block_k)
        loss += by_positive[:, cols][hinged[:, cols]].sum(dtype=np.float64)

    pos_sign = np.subtract(pos_diff > 0.0, pos_diff < 0.0, dtype=acc)
    pos_sign *= np.count_nonzero(hinged, axis=1).astype(acc)[:, None]
    # through the same kernel, with a two-line selector (+ left row, - right row)
    _add_rows(total, np.add(positives, (0, n_left), dtype=np.int64), pos_sign,
              *_selector((1, -1), m, acc))
    return float(loss), total[:n_left], total[n_left:]


# elements of the negatives gathered at a time by margin_rank_loss, 327
# rows at dim 200, 1,024 at dim 64 and 2,048 at dim 32: a thread's two
# float64 gather buffers and two sign buffers, 1.2 MB in int8 (1.3 in
# int16), stay in a core's 2 MB L2 cache (at 1 << 18, 5.2 MB). See BENCH_35.json
CHUNK_ELEMENTS = 1 << 16


@dataclass
class Trajectory:
    """A training run in progress: its inputs, and the state that
    advance() carries from epoch to epoch. Only the state changes: the
    parameters in place, the optimizer's moments and step count, the
    sampling generator and the loss list, one entry per epoch run.
    """

    pair: GraphPair
    adjacencies: tuple
    enc_cfg: EncoderConfig
    train_cfg: TrainConfig
    state: EmbeddingState
    optimizer: OptimizerState
    rng: np.random.Generator
    losses: list[float]


def start(
    pair: GraphPair,
    adj_cfg: AdjacencyConfig,
    enc_cfg: EncoderConfig,
    train_cfg: TrainConfig,
    initial_features: tuple[sp.csr_array, sp.csr_array] | None = None,
    adjacencies=None,
) -> Trajectory:
    """The trajectory of train() at epoch 0; train_cfg.n_epochs is not
    read. Takes the arguments of train() and initial_features, a sparse
    float64 table per side that, densified, overrides the random feature
    init (the attribute pathway, whose inputs are fixed multi-hot rows)."""
    if pair.alignment.train_pairs.shape[0] == 0:
        raise ConfigError("train split is empty; nothing to optimize")
    if adjacencies is None:
        require_valid(pair)
        adjacencies = (build_adjacency(pair.left, adj_cfg), build_adjacency(pair.right, adj_cfg))

    if initial_features is None:
        state = init_state(enc_cfg, pair.left.entity_count, pair.right.entity_count)
    else:  # the random features init_state would draw are never made
        state = _state_with_features(enc_cfg, *(f.toarray() for f in initial_features))
    return Trajectory(
        pair, tuple(adjacencies), enc_cfg, train_cfg, state,
        OptimizerState(state.parameters(), train_cfg),
        np.random.default_rng(train_cfg.seed), [],
    )


def advance(traj: Trajectory, n_epochs: int) -> Trajectory:
    """Run epochs len(traj.losses) .. n_epochs - 1 of traj, in place.

    Nothing an epoch does depends on the epoch count: the negatives are
    the generator's next draws and Adam's bias correction follows the
    step count. So advancing to n and then to m > n gives the bits of
    advancing to m at once.
    """
    if n_epochs < len(traj.losses):
        raise ValueError(f"trajectory is at epoch {len(traj.losses)}, past {n_epochs}")
    pair, (adj_left, adj_right), enc_cfg, train_cfg = (
        traj.pair, traj.adjacencies, traj.enc_cfg, traj.train_cfg)
    positives = pair.alignment.train_pairs
    state = traj.state
    params = state.parameters()
    for epoch in range(len(traj.losses), n_epochs):
        negatives = sample_negatives(
            positives,
            pair.left.entity_count,
            pair.right.entity_count,
            train_cfg.n_negatives,
            traj.rng,
        )
        out_l, out_r, tape = forward(adj_left, adj_right, state, enc_cfg, keep_tape=True)
        loss, g_l, g_r = margin_rank_loss(
            out_l, out_r, positives, negatives, train_cfg.margin
        )
        # each array is dropped once the epoch is done with it, so no stage
        # holds what an earlier one left (at zh-en, ~250 MB in all)
        del out_l, out_r, negatives
        grads = backward(g_l, g_r, tape)
        del g_l, g_r, tape
        optimizer_step(params, grads.parameters(), traj.optimizer, train_cfg,
                       context=f"epoch {epoch}")
        del grads
        traj.losses.append(loss)
    return traj


def train(
    pair: GraphPair,
    adj_cfg: AdjacencyConfig,
    enc_cfg: EncoderConfig,
    train_cfg: TrainConfig,
    adjacencies=None,
) -> tuple[EmbeddingState, list[float]]:
    """Full-batch training loop; returns the trained state and the
    per-epoch loss trace.

    Deterministic given the configs' seeds. adjacencies, when given, are
    the prebuilt (left, right) propagation matrices; they never change
    during training, so callers that also encode afterwards can share
    them, and they were built from a pair the caller has validated;
    without them the pair is validated here.
    """
    traj = advance(start(pair, adj_cfg, enc_cfg, train_cfg, adjacencies=adjacencies),
                   train_cfg.n_epochs)
    return traj.state, traj.losses


def loss_trace_tsv(losses: list[float]) -> str:
    """Loss trace as TSV text: epoch, loss per line."""
    lines = ["epoch\tloss"]
    lines.extend(f"{i}\t{loss!r}" for i, loss in enumerate(losses))
    return "\n".join(lines) + "\n"
