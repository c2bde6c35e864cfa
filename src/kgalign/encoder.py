"""Multi-layer graph convolutional encoder with hand-derived gradients.

Layer rule per graph: H_{i+1} = act(A_hat @ H_i @ W_i), where the weight
product is skipped entirely in the weightless variant. ReLU on every
layer except the last, identity on the last. Node features are re-scaled
to unit Euclidean row length at the start of every forward pass (when
enabled), so the trainable features parameterize directions only; a
non-finite feature is then an error naming its graph and row.

Both graphs run through the same layer stack; the weight matrices, when
present, are shared between them. In the weightless variant the encoder
has no parameters of its own: the node feature matrices are the only
trainable state. The two graphs are encoded and differentiated on two
threads when the thread budget allows; scipy's sparse product releases
the GIL, and neither graph reads what the other writes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .configfile import FLAT_KEY
from .errors import ConfigError, NumericError
from .linalg import unit_rows
from .parallel import thread_map

INIT_PRESETS = ("unit", "scaled")


def resolve_init_std(init: str | float, dim: int) -> float:
    """Embedding initialization std for a named preset or a literal std.

    'unit' is the standard normal; 'scaled' shrinks with the embedding
    width as dim**-0.5 (reading the width as the scaling variable and
    the quantity as a standard deviation).
    """
    if not isinstance(init, str):
        if not 0 < init < math.inf:
            raise ConfigError(f"init std must be positive and finite, got {init}")
        return float(init)
    if init == "unit":
        return 1.0
    if init == "scaled":
        return float(dim) ** -0.5
    raise ConfigError(f"unknown init preset {init!r}; expected one of {INIT_PRESETS}")


@dataclass(frozen=True)
class EncoderConfig:
    n_layers: int = 2
    dim: int = 200
    use_weights: bool = False
    init: str | float = "unit"  # a preset of INIT_PRESETS or a literal std
    normalize_features: bool = True
    # per run, derived from RunConfig.seed; not part of the flat form
    seed: int = field(default=0, metadata={FLAT_KEY: None})

    def __post_init__(self):
        if self.dim <= 0:
            raise ConfigError(f"dim must be positive, got {self.dim}")
        if not 1 <= self.n_layers <= 4:
            raise ConfigError(f"n_layers must be in 1..4, got {self.n_layers}")
        if not isinstance(self.init, str):
            object.__setattr__(self, "init", float(self.init))
        resolve_init_std(self.init, self.dim)  # rejects unknown presets

    @property
    def init_std(self) -> float:
        return resolve_init_std(self.init, self.dim)


@dataclass
class EmbeddingState:
    """Trainable parameters: per-graph node features, plus the shared
    layer weights when the weighted variant is in use."""

    features_left: np.ndarray
    features_right: np.ndarray
    weights: list[np.ndarray] | None = None

    def parameters(self) -> list[np.ndarray]:
        params = [self.features_left, self.features_right]
        if self.weights is not None:
            params.extend(self.weights)
        return params

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters())


def init_state(cfg: EncoderConfig, n_left: int, n_right: int) -> EmbeddingState:
    """Fresh trainable state, fully determined by cfg.seed.

    Features are i.i.d. normal with std cfg.init_std; weight matrices,
    when enabled, use the uniform(-s, s) fan-based range
    s = sqrt(6 / (fan_in + fan_out)).
    """
    rng = np.random.default_rng(cfg.seed)
    fl = rng.normal(0.0, cfg.init_std, size=(n_left, cfg.dim))
    fr = rng.normal(0.0, cfg.init_std, size=(n_right, cfg.dim))
    weights = None
    if cfg.use_weights:
        s = np.sqrt(6.0 / (cfg.dim + cfg.dim))
        weights = [
            rng.uniform(-s, s, size=(cfg.dim, cfg.dim)) for _ in range(cfg.n_layers)
        ]
    return EmbeddingState(features_left=fl, features_right=fr, weights=weights)


@dataclass
class _GraphTape:
    # when normalizing, the features themselves (not a copy) and their row
    # norms, from which backward rebuilds the normalized rows; else None
    features: np.ndarray | None
    norms: np.ndarray | None
    relu_masks: list[np.ndarray]  # one bool mask per non-final layer
    propagated: list[np.ndarray] | None  # A_hat @ H_i per layer, weighted runs only
    adj: sp.csr_array


@dataclass
class ForwardTape:
    cfg: EncoderConfig
    left: _GraphTape
    right: _GraphTape


def _forward_one(
    side: str, adj: sp.csr_array, features: np.ndarray, weights, cfg: EncoderConfig
) -> tuple[np.ndarray, _GraphTape]:
    if adj.shape[1] != features.shape[0]:
        raise ValueError(
            f"adjacency is {adj.shape} but features have {features.shape[0]} rows"
        )
    if features.shape[1] != cfg.dim:
        raise ValueError(f"features have width {features.shape[1]}, config says {cfg.dim}")

    if cfg.normalize_features:
        features = np.asarray(features, dtype=np.float64)
        norms = np.linalg.norm(features, axis=1)
        bad = np.flatnonzero(~np.isfinite(norms))
        # a finite row whose squares overflow has an infinite norm too
        bad = bad[~np.isfinite(features[bad]).all(axis=1)]
        if bad.size:
            raise NumericError(f"non-finite feature in row {bad[0]} of the {side} graph")
        h = unit_rows(features, norms)
    else:
        h, features, norms = features, None, None

    masks: list[np.ndarray] = []
    propagated: list[np.ndarray] | None = [] if cfg.use_weights else None
    for layer in range(cfg.n_layers):
        p = adj @ h
        if cfg.use_weights:
            propagated.append(p)
            p = p @ weights[layer]
        if layer < cfg.n_layers - 1:
            mask = p > 0.0
            masks.append(mask)
            # in place, as p is this layer's own product; a NaN stays NaN
            # and fails the finite check below
            h = np.maximum(p, 0.0, out=p)
        else:
            h = p
    if not np.all(np.isfinite(h)):
        raise NumericError("encoder produced non-finite embeddings")
    return h, _GraphTape(features, norms, masks, propagated, adj)


def forward(
    adj_left: sp.csr_array,
    adj_right: sp.csr_array,
    state: EmbeddingState,
    cfg: EncoderConfig,
    keep_tape: bool = False,
) -> tuple[np.ndarray, np.ndarray, ForwardTape | None]:
    """Encode both graphs; returns (emb_left, emb_right, tape).

    The tape is None unless keep_tape is set; backward() requires it.
    """
    if cfg.use_weights and (state.weights is None or len(state.weights) != cfg.n_layers):
        raise ConfigError("config expects weights but state carries none (or wrong count)")
    if not cfg.use_weights and state.weights is not None:
        raise ConfigError("state carries weights but config disables them")
    (out_l, tape_l), (out_r, tape_r) = thread_map(
        lambda graph: _forward_one(*graph, state.weights, cfg),
        (("left", adj_left, state.features_left), ("right", adj_right, state.features_right)),
        max(state.features_left.size, state.features_right.size),
    )
    tape = ForwardTape(cfg=cfg, left=tape_l, right=tape_r) if keep_tape else None
    return out_l, out_r, tape


def _backward_one(
    grad_out: np.ndarray, tape: _GraphTape, weights, grad_weights, cfg: EncoderConfig
) -> np.ndarray:
    if grad_out.shape != (tape.adj.shape[0], cfg.dim):
        raise ValueError(
            f"upstream gradient shape {grad_out.shape} does not match "
            f"forward output ({tape.adj.shape[0]}, {cfg.dim})"
        )
    adj_t = tape.adj.T  # a CSC view, no copy
    g = grad_out
    for layer in range(cfg.n_layers - 1, -1, -1):
        if layer < cfg.n_layers - 1:
            np.multiply(g, tape.relu_masks[layer], out=g)  # g is the adj_t product below
        if cfg.use_weights:
            grad_weights[layer] += tape.propagated[layer].T @ g
            g = g @ weights[layer].T
        g = adj_t @ g

    if tape.norms is None:
        return g
    # through row normalization x -> xhat = x / |x|:
    # g -> (g - (g . xhat) xhat) / |x|, in place (g is the adj_t product
    # above), a block of rows at a time with xhat rebuilt as forward built
    # it; each step is per row or per element, so the blocks cannot change
    # a bit
    rows = max(1, NORM_BLOCK // cfg.dim)
    for lo in range(0, len(g), rows):
        block, norms = g[lo : lo + rows], tape.norms[lo : lo + rows]
        xhat = unit_rows(tape.features[lo : lo + rows], norms)
        xhat *= np.einsum("ij,ij->i", block, xhat)[:, None]
        block -= xhat
        block /= np.where(norms > 0.0, norms, 1.0)[:, None]
        block[norms == 0.0] = 0.0
    return g


# elements per row block of the normalization's backward: its rebuilt
# unit rows, 256 KB in float64, stay in a core's L2 cache
NORM_BLOCK = 1 << 15


def backward(
    grad_out_left: np.ndarray,
    grad_out_right: np.ndarray,
    tape: ForwardTape,
    cfg: EncoderConfig,
    state: EmbeddingState,
) -> EmbeddingState:
    """Exact reverse-mode gradients of forward() wrt all parameters, in
    the parameter layout of the state.

    The tape must come from a forward() call with the same config and
    state; the shared weight matrices accumulate gradient from both
    graphs.

    Each graph accumulates its weight gradient in a zeroed buffer of
    its own, and the shared gradient is left += right: the bits of
    (0 + left) + (0 + right), whichever graph finishes first.
    """
    if tape is None:
        raise ValueError("backward requires the tape from forward(..., keep_tape=True)")
    if tape.cfg != cfg:
        raise ConfigError("tape was produced under a different encoder config")

    def one_graph(graph):
        grad_out, graph_tape = graph
        own = [np.zeros_like(w) for w in state.weights] if cfg.use_weights else None
        return _backward_one(grad_out, graph_tape, state.weights, own, cfg), own

    (gl, own_l), (gr, own_r) = thread_map(
        one_graph,
        ((grad_out_left, tape.left), (grad_out_right, tape.right)),
        max(grad_out_left.size, grad_out_right.size),
    )
    if cfg.use_weights:
        for left, right in zip(own_l, own_r):
            left += right
    return EmbeddingState(features_left=gl, features_right=gr, weights=own_l)
