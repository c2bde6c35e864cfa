"""Ranking evaluation in both alignment directions.

Scores are negated dimension-normalized L1 distances, optionally blended
with an attribute-embedding distance. Ranking follows the closed-world
protocol: by default only entities that occur in the evaluated split's
alignment are admitted as candidates. Ties are broken deterministically
by ascending candidate entity index; an optional diagnostic exposes how
much tie placement could move the mean rank.
"""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import ConfigError
from .graphs import GraphPair, Role
from .parallel import thread_map

HITS_KS = (1, 10, 50)
CANDIDATE_POLICIES = ("test-only", "all-entities")
# the two ranking directions, then their average
DIRECTIONS = ("left_to_right", "right_to_left", "mean")


@dataclass(frozen=True)
class ScoreConfig:
    beta: float = 1.0  # weight of the structure distance; 1 - beta on attributes

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigError(f"beta must lie in [0, 1], got {self.beta}")


def score(
    s_l: np.ndarray,
    s_r: np.ndarray,
    cfg: ScoreConfig,
    a_l: np.ndarray | None = None,
    a_r: np.ndarray | None = None,
) -> float:
    """Similarity of one candidate pair; higher is better.

    Negated blend of the per-dimension-normalized L1 distances of the
    structure embeddings and (when beta < 1) the attribute embeddings.
    """
    s_l = np.asarray(s_l, dtype=np.float64)
    s_r = np.asarray(s_r, dtype=np.float64)
    if s_l.shape != s_r.shape:
        raise ValueError(f"embedding shapes differ: {s_l.shape} vs {s_r.shape}")
    total = cfg.beta * np.abs(s_l - s_r).sum() / s_l.shape[-1]
    if cfg.beta < 1.0:
        if a_l is None or a_r is None:
            raise ConfigError("beta < 1 requires attribute embeddings")
        a_l = np.asarray(a_l, dtype=np.float64)
        a_r = np.asarray(a_r, dtype=np.float64)
        if a_l.shape != a_r.shape:
            raise ValueError(f"attribute embedding shapes differ: {a_l.shape} vs {a_r.shape}")
        total += (1.0 - cfg.beta) * np.abs(a_l - a_r).sum() / a_l.shape[-1]
    return float(-total)


def rank_of(query, truth, candidates, scores) -> int:
    """1-based rank of the truth among candidates sorted by descending
    score, ties broken by ascending candidate index."""
    candidates = np.asarray(candidates, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    if candidates.shape != scores.shape:
        raise ValueError("candidates and scores must align")
    matches = np.flatnonzero(candidates == truth)
    if matches.size == 0:
        raise ValueError(f"truth entity {truth} missing from candidate set (query {query})")
    t = matches[0]
    s_t = scores[t]
    better = int(np.count_nonzero(scores > s_t))
    tied_before = int(np.count_nonzero((scores == s_t) & (candidates < truth)))
    return better + tied_before + 1


@dataclass
class DirectionMetrics:
    hits_at: dict[int, float]  # k -> percentage in [0, 100]
    mean_rank: float
    mrr: float
    n_test: int

    # the fields serialize as themselves, except that JSON keys are strings
    def to_dict(self) -> dict:
        return {**dataclasses.asdict(self), "hits_at": {str(k): v for k, v in self.hits_at.items()}}

    @classmethod
    def from_dict(cls, d) -> DirectionMetrics:
        fields = {f.name: d[f.name] for f in dataclasses.fields(cls)}
        return cls(**{**fields, "hits_at": {int(k): v for k, v in d["hits_at"].items()}})


@dataclass
class MetricsReport:
    candidate_policy: str
    split: str
    left_to_right: DirectionMetrics
    right_to_left: DirectionMetrics
    mean: DirectionMetrics
    tie_diagnostics: dict | None = None

    def direction(self, name: str) -> DirectionMetrics:
        if name not in DIRECTIONS:
            raise KeyError(name)
        return getattr(self, name)

    def to_dict(self) -> dict:
        d = {
            "candidate_policy": self.candidate_policy,
            "split": self.split,
            "directions": {name: self.direction(name).to_dict() for name in DIRECTIONS},
        }
        if self.tie_diagnostics is not None:
            d["tie_diagnostics"] = self.tie_diagnostics
        return d

    @classmethod
    def from_dict(cls, d) -> MetricsReport:
        return cls(
            candidate_policy=d["candidate_policy"],
            split=d["split"],
            **{name: DirectionMetrics.from_dict(d["directions"][name]) for name in DIRECTIONS},
            tie_diagnostics=d.get("tie_diagnostics"),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_text(self) -> str:
        """Fixed-width table, percentages with two decimals."""
        ms = [self.direction(name) for name in DIRECTIONS]
        rows = [("metric", "L->R", "R->L", "mean")]
        rows += [(f"H@{k}", *(f"{m.hits_at[k]:.2f}" for m in ms)) for k in sorted(ms[0].hits_at)]
        rows.append(("MR", *(f"{m.mean_rank:.2f}" for m in ms)))
        rows.append(("MRR", *(f"{m.mrr:.4f}" for m in ms)))
        widths = [max(len(r[c]) for r in rows) for c in range(4)]
        lines = [
            "  ".join(cell.rjust(w) if c else cell.ljust(w) for c, (cell, w) in enumerate(zip(r, widths)))
            for r in rows
        ]
        header = f"candidates: {self.candidate_policy}, split: {self.split}"
        return header + "\n" + "\n".join(lines) + "\n"


def metrics_from_ranks(ranks: np.ndarray) -> DirectionMetrics:
    """MR, MRR, and H@k percentages from a vector of 1-based ranks."""
    ranks = np.asarray(ranks, dtype=np.float64)
    hits = {k: float((ranks <= k).mean() * 100.0) for k in HITS_KS}
    return DirectionMetrics(
        hits_at=hits,
        mean_rank=float(ranks.mean()),
        mrr=float((1.0 / ranks).mean()),
        n_test=int(ranks.size),
    )


def _ranks_one_direction(
    query_emb, cand_emb, candidates, truths, query_attr, cand_attr, cfg, block=512
):
    """Vectorized equivalent of rank_of over all queries, in row blocks so
    the full query-candidate distance matrix is never materialized.

    candidates must be sorted ascending by entity index. Returns the
    deterministic ranks plus optimistic/pessimistic tie bounds. The
    blocks are independent and cdist releases the GIL, so they run on
    the threads of parallel.thread_map, each block writing only its own
    rows. The result does not depend on the thread count.
    """
    truths = np.asarray(truths, dtype=np.int64)
    nq = query_emb.shape[0]
    d = query_emb.shape[1]
    truth_pos = np.searchsorted(candidates, truths)
    in_range = truth_pos < len(candidates)
    if not (in_range.all() and np.array_equal(candidates[truth_pos], truths)):
        bad = int(np.flatnonzero(~in_range | (candidates[np.minimum(truth_pos, len(candidates) - 1)] != truths))[0])
        raise ValueError(f"truth entity {truths[bad]} missing from candidate set")

    # candidates are sorted, so "candidate index < truth" is "column < truth_pos"
    columns = np.arange(len(candidates))
    ranks = np.empty(nq, dtype=np.int64)
    optimistic = np.empty(nq, dtype=np.int64)
    pessimistic = np.empty(nq, dtype=np.int64)

    def rank_block(lo):
        hi = min(lo + block, nq)
        dist = cdist(query_emb[lo:hi], cand_emb, "cityblock")
        dist *= cfg.beta / d
        if cfg.beta < 1.0:
            attr = cdist(query_attr[lo:hi], cand_attr, "cityblock")
            attr *= (1.0 - cfg.beta) / query_attr.shape[1]
            dist += attr
        # a higher score is a smaller distance: -a > -b is exactly a < b
        d_t = dist[np.arange(hi - lo), truth_pos[lo:hi]][:, None]
        better = (dist < d_t).sum(axis=1)
        tied = dist == d_t  # includes the truth itself
        tied_before = (tied & (columns < truth_pos[lo:hi, None])).sum(axis=1)
        ranks[lo:hi] = better + tied_before + 1
        optimistic[lo:hi] = better + 1
        pessimistic[lo:hi] = better + tied.sum(axis=1)

    thread_map(rank_block, range(0, nq, block), block * len(candidates))
    return ranks, optimistic, pessimistic


def evaluate(
    emb_left: np.ndarray,
    emb_right: np.ndarray,
    pair: GraphPair,
    cfg: ScoreConfig,
    policy: str = "test-only",
    split: Role = Role.TEST,
    attr_emb_left: np.ndarray | None = None,
    attr_emb_right: np.ndarray | None = None,
    tie_diagnostics: bool = False,
) -> MetricsReport:
    """Rank every pair of the chosen split in both directions.

    Under the 'test-only' policy the candidate set is restricted to the
    entities appearing in that split's alignment; 'all-entities' ranks
    against every entity of the opposite graph.
    """
    if policy not in CANDIDATE_POLICIES:
        raise ConfigError(f"unknown candidate policy {policy!r}")
    if cfg.beta < 1.0 and (attr_emb_left is None or attr_emb_right is None):
        raise ConfigError("beta < 1 requires attribute embeddings")
    eval_pairs = pair.alignment.by_role(split)
    if eval_pairs.shape[0] == 0:
        raise ConfigError(f"no pairs with role {Role(split).value!r} to evaluate")

    # candidates per side: index 0 is the left graph, 1 the right
    if policy == "test-only":
        cands = (np.unique(eval_pairs[:, 0]), np.unique(eval_pairs[:, 1]))
    else:
        cands = tuple(np.arange(g.entity_count, dtype=np.int64) for g in (pair.left, pair.right))
    embs = (emb_left, emb_right)
    attrs = (attr_emb_left, attr_emb_right)

    def attr_rows(emb, idx):
        return None if emb is None else emb[idx]

    metrics, diag = {}, {}
    for name, q, c in (("left_to_right", 0, 1), ("right_to_left", 1, 0)):
        ranks, optimistic, pessimistic = _ranks_one_direction(
            embs[q][eval_pairs[:, q]],
            embs[c][cands[c]],
            cands[c],
            eval_pairs[:, c],
            attr_rows(attrs[q], eval_pairs[:, q]),
            attr_rows(attrs[c], cands[c]),
            cfg,
        )
        metrics[name] = metrics_from_ranks(ranks)
        diag[name] = {
            "mean_rank_optimistic": float(optimistic.mean()),
            "mean_rank_pessimistic": float(pessimistic.mean()),
        }

    lr, rl = metrics["left_to_right"], metrics["right_to_left"]
    mean = DirectionMetrics(
        hits_at={k: (lr.hits_at[k] + rl.hits_at[k]) / 2.0 for k in lr.hits_at},
        mean_rank=(lr.mean_rank + rl.mean_rank) / 2.0,
        mrr=(lr.mrr + rl.mrr) / 2.0,
        n_test=lr.n_test,
    )
    return MetricsReport(
        candidate_policy=policy,
        split=Role(split).value,
        left_to_right=lr,
        right_to_left=rl,
        mean=mean,
        tie_diagnostics=diag if tie_diagnostics else None,
    )
