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
trainable state. A weightless layer acts on each column alone, so both
graphs run in column blocks that the threads share, and no block size or
thread count changes a bit; scipy's sparse product releases the GIL.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .configfile import FLAT_KEY
from .errors import ConfigError, NumericError
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
    raise ConfigError(f"init must be a std or one of the presets {INIT_PRESETS}, got {init!r}")


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
    weights: list[np.ndarray] = field(default_factory=list)  # empty when weightless

    def parameters(self) -> list[np.ndarray]:
        return [self.features_left, self.features_right, *self.weights]


def init_state(cfg: EncoderConfig, n_left: int, n_right: int) -> EmbeddingState:
    """Fresh trainable state, fully determined by cfg.seed.

    Features are i.i.d. normal with std cfg.init_std; weight matrices,
    when enabled, use the uniform(-s, s) fan-based range
    s = sqrt(6 / (fan_in + fan_out)).
    """
    rng = np.random.default_rng(cfg.seed)
    fl = rng.normal(0.0, cfg.init_std, size=(n_left, cfg.dim))
    fr = rng.normal(0.0, cfg.init_std, size=(n_right, cfg.dim))
    return EmbeddingState(fl, fr, _draw_weights(cfg, rng))


def _state_with_features(cfg: EncoderConfig, fl: np.ndarray, fr: np.ndarray) -> EmbeddingState:
    """init_state's state with features fl, fr in place of its random
    ones and its weights bit for bit. The feature draws are skipped
    through one 512 KiB buffer, as standard normals that normal(0, std)
    would scale; weightless, nothing is drawn."""
    rng = np.random.default_rng(cfg.seed)
    skip = (len(fl) + len(fr)) * cfg.dim if cfg.use_weights else 0
    buffer = np.empty(1 << 16)
    for lo in range(0, skip, len(buffer)):
        rng.standard_normal(out=buffer[: skip - lo])
    return EmbeddingState(fl, fr, _draw_weights(cfg, rng))


def _draw_weights(cfg: EncoderConfig, rng: np.random.Generator) -> list[np.ndarray]:
    s = np.sqrt(6.0 / (cfg.dim + cfg.dim))
    n_weights = cfg.n_layers if cfg.use_weights else 0
    return [rng.uniform(-s, s, size=(cfg.dim, cfg.dim)) for _ in range(n_weights)]


@dataclass
class _GraphTape:
    # when normalizing, the features themselves (not a copy) and their row
    # norms, from which backward rebuilds the normalized rows; else None
    features: np.ndarray | None
    norms: np.ndarray | None
    relu_masks: list[np.ndarray]  # np.packbits bits, per non-final layer of each block
    propagated: list[np.ndarray] | None  # A_hat @ H_i per layer, weighted runs only
    adj: sp.csr_array


@dataclass
class ForwardTape:
    cfg: EncoderConfig
    left: _GraphTape
    right: _GraphTape


# elements per row block of the row norms and the normalization's
# backward: 256 KB in float64, which stays in a core's L2 cache
NORM_BLOCK = 1 << 15
# elements per column block of a weightless graph, 27 columns at zh-en:
# a thread's two float64 blocks take 8 MB, not each graph's 62 MB, and
# train-zh-en's peak RSS on a 2-core VM fell from 433-449 to 387-391 MB
COLUMN_BLOCK = 1 << 19


def _map_blocks(fn, rows: tuple[int, int], cfg: EncoderConfig, dtype):
    """fn(graph, k, lo, hi) -> (block, extra) for block k, columns lo:hi, of
    graph 0 (left) and 1 (right), in one thread_map: about COLUMN_BLOCK
    elements, or all columns where weights mix them. Returns both graphs'
    dtype matrices, with the blocks copied in, and per graph its blocks' extras."""
    widths = [cfg.dim if cfg.use_weights else max(1, COLUMN_BLOCK // max(n, 1)) for n in rows]
    items = [(g, lo // w, lo, min(lo + w, cfg.dim))
             for g, w in enumerate(widths) for lo in range(0, cfg.dim, w)]
    whole = [np.empty((n, cfg.dim), dtype) if w < cfg.dim else None for n, w in zip(rows, widths)]

    def run(item):
        g, _, lo, hi = item
        block, extra = fn(*item)
        if whole[g] is None:  # a graph's only block is its matrix
            whole[g] = block
        else:
            whole[g][:, lo:hi] = block
        return extra

    extras = thread_map(run, items, sum(rows) * cfg.dim)
    return whole, [[e for item, e in zip(items, extras) if item[0] == g] for g in (0, 1)]


def _unit_rows(m: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """The rows of m divided by their given Euclidean norms; rows of norm
    0 pass through. Elementwise, so a block of rows or columns with the
    rows' norms gives the bits of that block of the whole."""
    return m / np.where(norms > 0.0, norms, 1.0)[:, None]


def _checked_input(side: str, adj: sp.csr_array, features: np.ndarray, cfg: EncoderConfig):
    """(features, their row norms) when normalizing, else (features, None).
    The norms sum each row as np.linalg.norm does, a row block at a time."""
    if adj.shape[1] != features.shape[0]:
        raise ValueError(f"adjacency is {adj.shape} but features have {features.shape[0]} rows")
    if features.shape[1] != cfg.dim:
        raise ValueError(f"features have width {features.shape[1]}, config says {cfg.dim}")
    if not cfg.normalize_features:
        return features, None
    step = max(1, NORM_BLOCK // cfg.dim)
    norms = np.concatenate([np.sqrt(np.add.reduce(rows * rows, axis=1))
                            for rows in np.split(features, range(step, len(features), step))])
    bad = np.flatnonzero(~np.isfinite(norms))
    # a finite row whose squares overflow has an infinite norm too
    bad = bad[~np.isfinite(features[bad]).all(axis=1)]
    if bad.size:
        raise NumericError(f"non-finite feature in row {bad[0]} of the {side} graph")
    return features, norms


def _forward_one(adj: sp.csr_array, features, norms, weights, cfg: EncoderConfig, lo, hi):
    """Columns lo:hi of one graph through every layer: (output, (masks, propagated))."""
    h = features[:, lo:hi] if norms is None else _unit_rows(features[:, lo:hi], norms)
    masks: list[np.ndarray] = []
    propagated: list[np.ndarray] | None = [] if cfg.use_weights else None
    for layer in range(cfg.n_layers):
        p = adj @ h
        if cfg.use_weights:
            propagated.append(p)
            p = p @ weights[layer]
        if layer < cfg.n_layers - 1:
            masks.append(np.packbits(p > 0.0))  # flat, so only a block's last byte pads
            # in place, as p is this layer's own product; a NaN stays NaN
            # and fails the finite check below
            h = np.maximum(p, 0.0, out=p)
        else:
            h = p
    if not np.all(np.isfinite(h)):
        raise NumericError("encoder produced non-finite embeddings")
    return h, (masks, propagated)


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
    expected = cfg.n_layers if cfg.use_weights else 0
    if len(state.weights) != expected:
        raise ConfigError(f"state carries {len(state.weights)} layer weights, "
                          f"config expects {expected}")
    graphs = (("left", adj_left, state.features_left), ("right", adj_right, state.features_right))
    inputs = thread_map(lambda graph: _checked_input(*graph, cfg), graphs,
                        state.features_left.size + state.features_right.size)
    (out_l, out_r), blocks = _map_blocks(
        lambda g, k, lo, hi: _forward_one(graphs[g][1], *inputs[g], state.weights, cfg, lo, hi),
        (adj_left.shape[0], adj_right.shape[0]), cfg, state.features_left.dtype)
    tape_l, tape_r = (_GraphTape(*inputs[g], [m for masks, _ in blocks[g] for m in masks],
                                 blocks[g][0][1], graphs[g][1]) for g in (0, 1))
    return out_l, out_r, ForwardTape(cfg, tape_l, tape_r) if keep_tape else None


def _backward_one(grad_out, tape, weights, grad_weights, cfg: EncoderConfig, k=0, dtype=None):
    """Block k of one graph's output gradient back through every layer."""
    masks = tape.relu_masks[k * (cfg.n_layers - 1) :]
    adj_t = tape.adj.T  # a CSC view, no copy
    # an integer upstream gradient (the loss's) becomes a copy in dtype, the
    # features', that the first product below frees; a float one is read only
    g = np.asarray(grad_out, dtype)
    for layer in range(cfg.n_layers - 1, -1, -1):
        if layer < cfg.n_layers - 1:  # g is the adj_t product below
            g *= np.unpackbits(masks[layer], count=g.size).reshape(g.shape).view(bool)
        if cfg.use_weights:
            grad_weights[layer] += tape.propagated[layer].T @ g
            g = g @ weights[layer].T
        g = adj_t @ g
    return g


def _unnormalized(g: np.ndarray, tape: _GraphTape, cfg: EncoderConfig) -> np.ndarray:
    if tape.norms is None:
        return g
    # through row normalization x -> xhat = x / |x|: g -> (g - (g . xhat)
    # xhat) / |x|, in place, a block of rows at a time with xhat rebuilt as
    # forward built it; per row or per element, so no block changes a bit
    rows = max(1, NORM_BLOCK // cfg.dim)
    for lo in range(0, len(g), rows):
        block, norms = g[lo : lo + rows], tape.norms[lo : lo + rows]
        xhat = _unit_rows(tape.features[lo : lo + rows], norms)
        xhat *= np.einsum("ij,ij->i", block, xhat)[:, None]
        block -= xhat
        block /= np.where(norms > 0.0, norms, 1.0)[:, None]
        block[norms == 0.0] = 0.0
    return g


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
    graphs. The upstream gradients are never written; integer ones (the
    loss's) become copies in the features' dtype, a block at a time.

    Each graph accumulates its weight gradient in a zeroed buffer of
    its own, and the shared gradient is left += right: the bits of
    (0 + left) + (0 + right), whichever graph finishes first.
    """
    if tape is None:
        raise ValueError("backward requires the tape from forward(..., keep_tape=True)")
    if tape.cfg != cfg:
        raise ConfigError("tape was produced under a different encoder config")
    graphs = ((grad_out_left, tape.left), (grad_out_right, tape.right))
    dtype = state.features_left.dtype
    for grad_out, graph_tape in graphs:
        if grad_out.shape != (graph_tape.adj.shape[0], cfg.dim):
            raise ValueError(f"upstream gradient shape {grad_out.shape} does not match "
                             f"forward output ({graph_tape.adj.shape[0]}, {cfg.dim})")

    def block(g, k, lo, hi):
        own = [np.zeros_like(w) for w in state.weights]
        return _backward_one(graphs[g][0][:, lo:hi], graphs[g][1], state.weights, own, cfg, k,
                             dtype), own

    (gl, gr), ((own_l, *_), (own_r, *_)) = _map_blocks(
        block, (tape.left.adj.shape[0], tape.right.adj.shape[0]), cfg, dtype)
    # the normalization's backward takes whole rows, so it waits for every block
    gl, gr = thread_map(lambda x: _unnormalized(*x, cfg), ((gl, tape.left), (gr, tape.right)),
                        gl.size + gr.size)
    for left, right in zip(own_l, own_r):
        left += right
    return EmbeddingState(features_left=gl, features_right=gr, weights=own_l)
