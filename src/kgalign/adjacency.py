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


@dataclass(frozen=True)
class AdjacencyConfig:
    variant: str = "count"  # 'functionality' or 'count'
    clamp: bool = False
    clamp_floor: float = 0.3
    normalization: str = "row"  # 'row' or 'symmetric'
    add_self_loops: bool = True

    def __post_init__(self):
        if self.variant not in ("functionality", "count"):
            raise ConfigError(f"variant must be functionality or count, got {self.variant!r}")
        if self.normalization not in ("row", "symmetric"):
            raise ConfigError(f"normalization must be row or symmetric, got {self.normalization!r}")
        if not 0 < self.clamp_floor <= 1:  # a functionality score lies in (0, 1]
            raise ConfigError(f"clamp_floor must lie in (0, 1], got {self.clamp_floor}")


def compute_functionality(g: KnowledgeGraph) -> tuple[np.ndarray, np.ndarray]:
    """Per-relation functionality scores (fun, ifun): fun[r] is the
    number of distinct head entities of r divided by the number of
    triples containing r; ifun[r] is the same with distinct tails.

    Every relation in the vocabulary must occur in at least one triple.
    """
    heads, rels, tails = g.triples[:, 0], g.triples[:, 1], g.triples[:, 2]
    n_rel = g.relation_count
    triple_counts = np.bincount(rels, minlength=n_rel).astype(np.float64)
    if np.any(triple_counts == 0):
        r = int(np.flatnonzero(triple_counts == 0)[0])
        raise NumericError(f"relation {r} occurs in no triple; functionality undefined")

    def distinct_count(endpoints):
        # distinct (relation, endpoint) combinations as one int64 key each,
        # relation-major; an endpoint out of range raises ValueError
        combo = np.unique(np.ravel_multi_index((rels, endpoints), (n_rel, g.entity_count)))
        return np.bincount(combo // g.entity_count, minlength=n_rel).astype(np.float64)

    return distinct_count(heads) / triple_counts, distinct_count(tails) / triple_counts


def build_adjacency_unnormalized(g: KnowledgeGraph, cfg: AdjacencyConfig) -> sp.csr_array:
    """A-hat before degree normalization: edge weights plus self-loops.
    With cfg.clamp, both functionality scores are floored at
    cfg.clamp_floor."""
    n = g.entity_count
    heads, rels, tails = g.triples[:, 0], g.triples[:, 1], g.triples[:, 2]

    if cfg.variant == "functionality":
        fun, ifun = compute_functionality(g)
        if cfg.clamp:
            fun, ifun = np.maximum(fun, cfg.clamp_floor), np.maximum(ifun, cfg.clamp_floor)
        forward_vals = ifun[rels]
        reverse_vals = fun[rels]
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


def build_adjacency(g: KnowledgeGraph, cfg: AdjacencyConfig) -> sp.csr_array:
    """Normalized propagation matrix of one graph.

    Returns degree-normalized A-hat where A-hat = A + I (self-loops) and
    A is either the functionality-weighted or the symmetrized count
    matrix of the triples.
    """
    return _degree_normalize(build_adjacency_unnormalized(g, cfg), cfg.normalization)


def _degree_normalize(a: sp.csr_array, mode: str) -> sp.csr_array:
    """Degree-normalize a square CSR matrix with D_ii = sum_j a_ij.

    mode, as AdjacencyConfig checked it: 'symmetric' returns D^-1/2 A
    D^-1/2, 'row' returns D^-1 A, whose rows each sum to one. Rows with
    non-positive degree raise, which signals a missing self-loop. The
    sparsity structure is kept.
    """
    deg = a.sum(axis=1)
    if np.any(deg <= 0.0):
        bad = int(np.flatnonzero(deg <= 0.0)[0])
        raise NumericError(f"row {bad} has degree {deg[bad]}; cannot normalize "
                           "(missing self-loop?)")
    f = 1.0 / deg if mode == "row" else 1.0 / np.sqrt(deg)
    data = a.data * np.repeat(f, np.diff(a.indptr))
    if mode == "symmetric":
        data = data * f[a.indices]
    return sp.csr_array((data, a.indices, a.indptr), shape=a.shape)
