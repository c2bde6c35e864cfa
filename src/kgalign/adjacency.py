"""Propagation-matrix construction from one graph's triples.

Two variants are supported. The functionality variant weights each
directed edge by per-relation statistics: an edge (h, r, t) contributes
the relation's inverse functionality to entry (h, t) and its
functionality to the reverse entry (t, h). The count variant simply
counts triples per ordered pair and symmetrizes. Both then add
self-loops and degree-normalize.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, NumericError
from .graphs import KnowledgeGraph
from .linalg import degree_normalize


@dataclass(frozen=True)
class RelationWeights:
    """Per-relation functionality scores.

    fun[r] is the number of distinct head entities of r divided by the
    number of triples containing r; ifun[r] is the same with distinct
    tails. When clamping is enabled both are floored at clamp_floor.
    """

    fun: np.ndarray
    ifun: np.ndarray
    clamp_floor: float = 0.3
    clamped: bool = False

    def __post_init__(self):
        for name in ("fun", "ifun"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class AdjacencyConfig:
    variant: str = "count"  # 'functionality' or 'count'
    clamp: bool = False
    clamp_floor: float = 0.3
    normalization: str = "row"  # 'row' or 'symmetric'
    add_self_loops: bool = True

    def __post_init__(self):
        if self.variant not in ("functionality", "count"):
            raise ConfigError(f"unknown adjacency variant {self.variant!r}")
        if self.normalization not in ("row", "symmetric"):
            raise ConfigError(f"unknown normalization {self.normalization!r}")
        if not 0 < self.clamp_floor <= 1:  # a functionality score lies in (0, 1]
            raise ConfigError(f"clamp_floor must lie in (0, 1], got {self.clamp_floor}")


def compute_functionality(
    g: KnowledgeGraph, clamp: bool = False, clamp_floor: float = 0.3
) -> RelationWeights:
    """Per-relation functionality and inverse functionality scores.

    Every relation in the vocabulary must occur in at least one triple.
    """
    heads, rels, tails = g.triples[:, 0], g.triples[:, 1], g.triples[:, 2]
    n_rel = g.relation_count
    triple_counts = np.bincount(rels, minlength=n_rel).astype(np.float64)
    if np.any(triple_counts == 0):
        r = int(np.flatnonzero(triple_counts == 0)[0])
        raise NumericError(f"relation {r} occurs in no triple; functionality undefined")

    def distinct_count(endpoints):
        # distinct (relation, endpoint) combinations, grouped by relation
        combo = np.unique(np.stack([rels, endpoints], axis=1), axis=0)
        return np.bincount(combo[:, 0], minlength=n_rel).astype(np.float64)

    fun = distinct_count(heads) / triple_counts
    ifun = distinct_count(tails) / triple_counts
    if clamp:
        fun = np.maximum(fun, clamp_floor)
        ifun = np.maximum(ifun, clamp_floor)
    return RelationWeights(fun=fun, ifun=ifun, clamp_floor=clamp_floor, clamped=clamp)


def build_adjacency_unnormalized(
    g: KnowledgeGraph,
    cfg: AdjacencyConfig,
    relation_weights: RelationWeights | None = None,
) -> sp.csr_array:
    """A-hat before degree normalization: edge weights plus self-loops.

    relation_weights overrides the computed functionality scores; useful
    for diagnostics such as forcing every score to one.
    """
    n = g.entity_count
    heads, rels, tails = g.triples[:, 0], g.triples[:, 1], g.triples[:, 2]

    if cfg.variant == "functionality":
        w = relation_weights
        if w is None:
            w = compute_functionality(g, clamp=cfg.clamp, clamp_floor=cfg.clamp_floor)
        forward_vals = w.ifun[rels]
        reverse_vals = w.fun[rels]
    else:
        # count variant: ones per directed triple, symmetrized as A + A^T
        forward_vals = np.ones(len(heads))
        reverse_vals = forward_vals

    rows = np.concatenate([heads, tails])
    cols = np.concatenate([tails, heads])
    vals = np.concatenate([forward_vals, reverse_vals])

    if cfg.add_self_loops:
        diag = np.arange(n, dtype=np.int64)
        rows = np.concatenate([rows, diag])
        cols = np.concatenate([cols, diag])
        vals = np.concatenate([vals, np.ones(n)])

    a = sp.coo_array((vals, (rows, cols)), shape=(n, n)).tocsr()
    a.sum_duplicates()  # also sorts the column indices of every row
    return a


def build_adjacency(
    g: KnowledgeGraph,
    cfg: AdjacencyConfig,
    relation_weights: RelationWeights | None = None,
) -> sp.csr_array:
    """Normalized propagation matrix of one graph.

    Returns degree-normalized A-hat where A-hat = A + I (self-loops) and
    A is either the functionality-weighted or the symmetrized count
    matrix of the triples.
    """
    return degree_normalize(
        build_adjacency_unnormalized(g, cfg, relation_weights), cfg.normalization
    )
