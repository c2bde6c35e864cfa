"""Margin-rank training over seed alignments with uniform negative sampling.

The loss is a full-batch double sum over train pairs and their sampled
corruptions: hinge(pos_L1 + margin - neg_L1). Subgradient conventions:
|x| has slope 0 at x = 0, and the hinge contributes nothing when exactly
at its boundary. Negatives are resampled fresh every epoch.
"""
from __future__ import annotations

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
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.n_negatives < 1:
            raise ConfigError("n_negatives must be at least 1")
        if self.margin < 0:
            raise ConfigError("margin must be non-negative")
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
    constants (0.9, 0.999, 1e-8).
    """
    if len(params) != len(grads):
        raise ValueError("params and grads must align")
    where = f" ({context})" if context else ""
    for i, (p, g) in enumerate(zip(params, grads)):
        if p.shape != g.shape:
            raise ValueError(f"parameter {i} shape {p.shape} vs gradient {g.shape}")
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient in parameter {i}{where}")
    state.step_count += 1
    if cfg.optimizer == "sgd":
        for p, g in zip(params, grads):
            p -= cfg.learning_rate * g
        return
    t = state.step_count
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * np.square(g)
        p -= cfg.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


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
    pl, pr = positives[:, 0], positives[:, 1]
    pos_diff = emb_left[pl] - emb_right[pr]
    pos_dist = np.abs(pos_diff).sum(axis=1)

    grad_left = np.zeros_like(emb_left)
    grad_right = np.zeros_like(emb_right)
    loss = 0.0
    active_counts = np.zeros(m)
    # negatives are processed in column blocks of roughly 16k rows: large
    # enough that each scatter amortizes, small enough that the diff/sign
    # buffers stay cache-friendly
    block_k = max(1, min(k, 16384 // max(m, 1)))
    for j0 in range(0, k, block_k):
        block = negatives[:, j0 : j0 + block_k, :]
        bk = block.shape[1]
        nl = block[:, :, 0].ravel()
        nr = block[:, :, 1].ravel()
        neg_diff = emb_left[nl] - emb_right[nr]
        neg_dist = np.abs(neg_diff).sum(axis=1)
        terms = pos_dist[:, None] + margin - neg_dist.reshape(m, bk)
        active = terms > 0.0
        if not active.any():
            continue
        loss += terms[active].sum()
        active_counts += active.sum(axis=1)
        flat_active = active.ravel()
        np.sign(neg_diff, out=neg_diff)
        neg_sign = neg_diff[flat_active]
        scatter_add_rows(grad_left, nl[flat_active], -neg_sign)
        scatter_add_rows(grad_right, nr[flat_active], neg_sign)

    pos_sign = np.sign(pos_diff) * active_counts[:, None]
    scatter_add_rows(grad_left, pl, pos_sign)
    scatter_add_rows(grad_right, pr, -pos_sign)
    return float(loss), grad_left, grad_right


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
    encode afterwards can share them.
    """
    require_valid(pair)
    positives = pair.alignment.train_pairs
    if positives.shape[0] == 0:
        raise ConfigError("train split is empty; nothing to optimize")

    if adjacencies is None:
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
        grads = backward(g_l, g_r, tape, enc_cfg, state)
        optimizer_step(params, grads.parameters(), opt_state, train_cfg, context=f"epoch {epoch}")
        losses.append(loss)
    return state, losses


def loss_trace_tsv(losses: list[float]) -> str:
    """Loss trace as TSV text: epoch, loss per line."""
    lines = ["epoch\tloss"]
    lines.extend(f"{i}\t{loss!r}" for i, loss in enumerate(losses))
    return "\n".join(lines) + "\n"
