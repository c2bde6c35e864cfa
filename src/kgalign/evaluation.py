"""Ranking evaluation in both alignment directions.

Scores are negated dimension-normalized L1 distances, optionally blended
with an attribute-embedding distance. Ranking follows the closed-world
protocol: by default only entities that occur in the evaluated split's
alignment are admitted as candidates. Ties are broken deterministically
by ascending candidate entity index; an optional diagnostic exposes how
much tie placement could move the mean rank. Each line of a ranking
holds one pair: a split with an entity outside its graph or in two pairs
is refused, as is a non-finite embedding row, under which every truth
would rank first.

Under test-only, both directions share one distance matrix, the split's
left entities by its right entities: left to right is counted along its
rows and right to left along its columns. Under all-entities the two
query sets differ, so each direction has a matrix of its own, counted
along its rows. Either way the matrix is built in blocks of at most
about BLOCK_ELEMENTS distances (8 MiB), whatever the numbers of queries
and candidates, and of at most a thread's share of its rows, so that a
small matrix still has a block for every thread. The threads add into
one running count of the columns. A block is counted in its own layout,
along axis 1 for its rows and along axis 0 for its columns, so no count
reads a transposed copy.
"""
from __future__ import annotations

import dataclasses
import threading
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import ConfigError, GraphValidationError, NumericError
from .graphs import GraphPair, Role
from .parallel import thread_count, thread_map

HITS_KS = (1, 10, 50)
CANDIDATE_POLICIES = ("test-only", "all-entities")
# the two ranking directions, then their average
DIRECTIONS = ("left_to_right", "right_to_left", "mean")
# distances computed at once: a block holds max(1, BLOCK_ELEMENTS //
# candidates) rows of the matrix, or a thread's share of them if fewer
BLOCK_ELEMENTS = 1 << 20


@dataclass(frozen=True)
class ScoreConfig:
    beta: float = 1.0  # weight of the structure distance; 1 - beta on attributes

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigError(f"beta must lie in [0, 1], got {self.beta}")


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

    def to_text(self) -> str:
        """Fixed-width table, percentages with two decimals."""
        ms = [self.direction(name) for name in DIRECTIONS]
        rows = [("metric", "L->R", "R->L", "mean")]
        rows += [(f"H@{k}", *(f"{m.hits_at[k]:.2f}" for m in ms)) for k in sorted(ms[0].hits_at)]
        rows.append(("MR", *(f"{m.mean_rank:.2f}" for m in ms)))
        rows.append(("MRR", *(f"{m.mrr:.4f}" for m in ms)))
        header = f"candidates: {self.candidate_policy}, split: {self.split}"
        return header + "\n" + text_table(rows) + "\n"


def text_table(rows) -> str:
    """Rows of str cells as lines, each column as wide as its widest cell
    and two spaces apart: the first left-aligned, the others right."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "\n".join(
        "  ".join(cell.rjust(w) if c else cell.ljust(w) for c, (cell, w) in enumerate(zip(r, widths)))
        for r in rows
    )


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


def _distances(emb, attr, rows, cols, cfg):
    """Blended distances of the rows of emb[0] to the rows of emb[1].
    cdist computes each element on its own, so an element has the same
    bits in any matrix that holds it, and |a - b| = |b - a| makes the
    transposed matrix the one of the opposite direction."""
    dist = cdist(emb[0][rows], emb[1][cols], "cityblock")
    dist *= cfg.beta / emb[0].shape[1]
    if cfg.beta < 1.0:
        blend = cdist(attr[0][rows], attr[1][cols], "cityblock")
        blend *= (1.0 - cfg.beta) / attr[0].shape[1]
        dist += blend
    return dist


def _count(dist, d_t, pos, axis):
    """Per line of dist along axis (its rows for axis 1, its columns for
    axis 0), the candidate distances of one pair whose truth sits at
    position pos (which may lie outside the line): how many lie below
    d_t, how many equal it, and how many equal it before pos. The block
    is compared in its own layout, the truth distances broadcast across
    the lines, and the masks are summed as bytes; a line is shorter than
    2**31."""
    n = dist.shape[axis]

    def per_line(v):  # a value per line, broadcast along it
        return np.expand_dims(v, axis)

    def count(mask):
        return np.add.reduce(mask.view(np.uint8), axis=axis, dtype=np.int32)

    better = count(dist < per_line(d_t))
    tied = count(dist <= per_line(d_t)) - better
    # every tie of a line lies before a truth past its end; only a line
    # that holds its truth and a tie besides it needs the positions
    before = np.where(pos >= n, tied, 0)
    ties = np.flatnonzero((tied > 1) & (0 <= pos) & (pos < n))
    before[ties] = count(
        (dist.take(ties, axis=1 - axis) == per_line(d_t[ties]))
        & (np.expand_dims(np.arange(n), 1 - axis) < per_line(pos[ties]))
    )
    return np.stack([better, tied, before])


def _rank_counts(emb, attr, ids, pairs, cfg, columns):
    """Counts of each pair's truth in the matrix of the sorted entities
    ids[0] of emb[0] by the sorted entities ids[1] of emb[1]: along its
    row, and with columns also along its column. Returns per direction a
    (3, pairs) array: better, tied (the truth included) and tied before.

    The truth distances come first, from the diagonals of small per-pair
    blocks, since every block's column counts need them. The blocks are
    parallel.thread_map's items, and each adds its column counts into
    one running count under a lock; a pair's row counts come from one
    block and its column counts are integers summed over blocks, so
    neither the block size nor the thread count can change a bit. Each
    line holds one pair, so each direction of a block is counted at once,
    as it is.
    """
    pos = [np.searchsorted(i, p) for i, p in zip(ids, pairs.T)]
    # ids are sorted unique, so as many ids as rows name every row: read in place
    emb = [e if len(i) == len(e) else e[i] for e, i in zip(emb, ids)]
    attr = [a if a is None or len(i) == len(a) else a[i] for a, i in zip(attr, ids)]
    n_pairs = len(pairs)  # one row each

    # off the diagonals of 16 x 16 blocks: 16 distances per pair in all
    d_t = np.concatenate([
        _distances(emb, attr, pos[0][lo:lo + 16], pos[1][lo:lo + 16], cfg).diagonal()
        for lo in range(0, n_pairs, 16)
    ])
    by_row, by_column = (np.argsort(p, kind="stable") for p in pos)
    row_counts = np.empty((3, n_pairs), dtype=np.int64)
    column_counts = np.zeros((3, n_pairs), dtype=np.int64)  # in line order
    lock = threading.Lock()
    # a block is at most a thread's share of the rows, so that a matrix
    # smaller than one budget still gives every thread a block
    rows = max(1, min(BLOCK_ELEMENTS // len(ids[1]), -(-n_pairs // thread_count())))

    def count_block(lo):
        dist = _distances(emb, attr, slice(lo, lo + rows), slice(None), cfg)
        p = by_row[lo:lo + rows]
        row_counts[:, p] = _count(dist, d_t[p], pos[1][p], axis=1)
        if columns:
            counts = _count(dist, d_t[by_column], pos[0][by_column] - lo, axis=0)
            with lock:
                np.add(column_counts, counts, out=column_counts)

    # a block's arrays are freed when count_block returns, before its
    # thread computes the next
    thread_map(count_block, range(0, n_pairs, rows), n_pairs * len(ids[1]))
    # the column counts are summed in line order, then put back in pair order
    return (row_counts, column_counts[:, pos[1]]) if columns else (row_counts,)


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
    against every entity of the opposite graph. A split with an entity
    out of range or in two pairs is a GraphValidationError, and a
    non-finite embedding row a NumericError.
    """
    if policy not in CANDIDATE_POLICIES:
        raise ConfigError(f"unknown candidate policy {policy!r}")
    if cfg.beta < 1.0 and (attr_emb_left is None or attr_emb_right is None):
        raise ConfigError("beta < 1 requires attribute embeddings")
    eval_pairs = pair.alignment.by_role(split)
    if eval_pairs.shape[0] == 0:
        raise ConfigError(f"no pairs with role {Role(split).value!r} to evaluate")

    # a pair out of range, or an entity in two pairs, has no line of its own
    ids = [np.unique(eval_pairs[:, side]) for side in (0, 1)]
    graphs = (pair.left, pair.right)
    for side, (name, i, g) in enumerate(zip(("left", "right"), ids, graphs)):
        where = f"{Role(split).value} split: {name} entity"
        if i[0] < 0 or i[-1] >= g.entity_count:
            raise GraphValidationError(f"{where} {i[0] if i[0] < 0 else i[-1]} out of range "
                                       f"0..{g.entity_count - 1}")
        if len(i) < len(eval_pairs):
            values, counts = np.unique(eval_pairs[:, side], return_counts=True)
            raise GraphValidationError(f"{where} {values[counts > 1][0]} sits in more than one pair")
    embs, attrs = (emb_left, emb_right), (attr_emb_left, attr_emb_right)
    # a non-finite distance is neither below nor equal to the truth's
    for name, m in zip(("left", "right", "left attribute", "right attribute"), (*embs, *attrs)):
        finite = m is None or np.isfinite(m).all(axis=1)
        if not np.all(finite):
            raise NumericError(f"{name} embeddings: row {np.argmin(finite)} is not finite")
    if policy == "test-only":
        # one matrix: left to right along its rows, right to left along its columns
        counts = _rank_counts(embs, attrs, ids, eval_pairs, cfg, columns=True)
    else:
        # the two query sets differ, so each direction has a matrix of its own
        counts = [
            _rank_counts((embs[q], embs[c]), (attrs[q], attrs[c]),
                         (ids[q], np.arange(graphs[c].entity_count)),
                         eval_pairs[:, [q, c]], cfg, columns=False)[0]
            for q, c in ((0, 1), (1, 0))
        ]

    metrics, diag = {}, {}
    for name, (better, tied, before) in zip(DIRECTIONS, counts):
        metrics[name] = metrics_from_ranks(better + before + 1)
        diag[name] = {
            "mean_rank_optimistic": float((better + 1).mean()),
            "mean_rank_pessimistic": float((better + tied).mean()),
        }

    lr, rl = metrics["left_to_right"], metrics["right_to_left"]
    mean = DirectionMetrics(
        hits_at={k: (lr.hits_at[k] + rl.hits_at[k]) / 2.0 for k in lr.hits_at},
        mean_rank=(lr.mean_rank + rl.mean_rank) / 2.0,
        mrr=(lr.mrr + rl.mrr) / 2.0,
        n_test=lr.n_test,
    )
    return MetricsReport(policy, Role(split).value, lr, rl, mean,
                         diag if tie_diagnostics else None)
