"""Seeded synthetic entity-alignment pairs in the on-disk dbp15k-jape layout.

The real DBP15k files cannot be shipped with the benchmark, so each
workload generates a pair with the published zh-en shape (or a 1/10
scale of it) from the workload seed. The program only ever sees the
written files, so the manifest check and the parser stay on the
measured path.

Construction: a fixed share of the entities on each side is aligned.
The left graph gets random triples with a skewed degree distribution;
every left triple whose head and tail are both aligned is copied to the
right graph through the alignment (with relations mapped many-to-one),
and the right graph is topped up with random triples. The copied
triples give the encoder a real neighbourhood signal to learn from.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Shape:
    entities: tuple[int, int]
    triples: tuple[int, int]
    relations: tuple[int, int]
    sup: int  # train alignments (sup_ent_ids)
    ref: int  # test alignments (ref_ent_ids)

    def expected_statistics(self) -> dict:
        """The dict `kgalign stats --json` must print for this shape."""
        return {
            "left": {
                "triples": self.triples[0],
                "entities": self.entities[0],
                "relations": self.relations[0],
            },
            "right": {
                "triples": self.triples[1],
                "entities": self.entities[1],
                "relations": self.relations[1],
            },
            "alignments": self.sup + self.ref,
            "symmetrized_alignments": None,
        }


# DBP15k zh-en as published (JAPE split: 30% train, 70% test).
ZH_EN = Shape(
    entities=(19388, 19572),
    triples=(70414, 95142),
    relations=(1701, 1323),
    sup=4500,
    ref=10500,
)
ZH_EN_TENTH = Shape(
    entities=(1939, 1957),
    triples=(7041, 9514),
    relations=(170, 132),
    sup=450,
    ref=1050,
)


def _skewed_draw(rng, n, size):
    """Indices in [0, n) with a heavy-tailed popularity, like KG degrees."""
    weights = 1.0 / (1.0 + rng.permutation(n)) ** 0.8
    return rng.choice(n, size=size, p=weights / weights.sum())


def _random_triples(rng, n_ent, n_rel, m, cover_ent, cover_rel):
    """m triples whose heads include every entity of cover_ent and whose
    relations include every relation of cover_rel (when they fit)."""
    heads = _skewed_draw(rng, n_ent, m)
    tails = _skewed_draw(rng, n_ent, m)
    rels = _skewed_draw(rng, n_rel, m)
    heads[: len(cover_ent)] = rng.permutation(cover_ent)
    rels[: len(cover_rel)] = rng.permutation(cover_rel)
    # a self-loop triple adds nothing but a diagonal entry; re-draw tails
    loops = heads == tails
    tails[loops] = (tails[loops] + 1 + rng.integers(0, n_ent - 1, loops.sum())) % n_ent
    return np.stack([heads, rels, tails], axis=1)


def _write_rows(path: Path, rows) -> None:
    path.write_text("".join("\t".join(map(str, r)) + "\n" for r in rows), encoding="utf-8")


def generate(root: Path, shape: Shape, seed: int) -> Path:
    """Write one dbp15k-jape directory under root; returns its path.

    The same (shape, seed) always writes the same bytes.
    """
    rng = np.random.default_rng(seed)
    (n1, n2), (m1, m2), (r1, r2) = shape.entities, shape.triples, shape.relations
    n_align = shape.sup + shape.ref

    left_aligned = rng.choice(n1, size=n_align, replace=False)
    right_aligned = rng.choice(n2, size=n_align, replace=False)
    to_right = np.full(n1, -1, dtype=np.int64)
    to_right[left_aligned] = right_aligned

    t1 = _random_triples(rng, n1, r1, m1, np.arange(n1), np.arange(r1))
    rel_map = rng.integers(0, r2, size=r1)
    copyable = t1[(to_right[t1[:, 0]] >= 0) & (to_right[t1[:, 2]] >= 0)]
    copied = np.stack(
        [to_right[copyable[:, 0]], rel_map[copyable[:, 1]], to_right[copyable[:, 2]]], axis=1
    )[: m2 // 2]
    untouched = np.setdiff1d(np.arange(n2), np.concatenate([copied[:, 0], copied[:, 2]]))
    fill = _random_triples(rng, n2, r2, m2 - len(copied), untouched, np.arange(r2))
    t2 = np.concatenate([copied, fill])[rng.permutation(m2)]

    # raw ids as in JAPE: one id space across both sides
    ent_off, rel_off = n1, r1
    out = Path(root) / "dbp15k-jape" / "zh-en"
    out.mkdir(parents=True, exist_ok=True)
    _write_rows(out / "ent_ids_1", ((i, f"http://zh.dbpedia.org/resource/E{i}") for i in range(n1)))
    _write_rows(out / "ent_ids_2", ((ent_off + j, f"http://dbpedia.org/resource/E{j}") for j in range(n2)))
    _write_rows(out / "rel_ids_1", ((i, f"http://zh.dbpedia.org/property/P{i}") for i in range(r1)))
    _write_rows(out / "rel_ids_2", ((rel_off + j, f"http://dbpedia.org/property/P{j}") for j in range(r2)))
    _write_rows(out / "triples_1", t1.tolist())
    _write_rows(out / "triples_2", (t2 + [ent_off, rel_off, ent_off]).tolist())
    pairs = np.stack([left_aligned, right_aligned + ent_off], axis=1).tolist()
    _write_rows(out / "sup_ent_ids", pairs[: shape.sup])
    _write_rows(out / "ref_ent_ids", pairs[shape.sup :])
    return out
