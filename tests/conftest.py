import os
from pathlib import Path

import numpy as np
import pytest

from kgalign.errors import ConfigError
from kgalign.graphs import AlignmentSet, GraphPair, KnowledgeGraph, Role

# One (criterion number, status, detail) entry per acceptance criterion,
# echoed at the end of the run so every criterion gets a visible line.
ACCEPTANCE_LOG: list[tuple[int, str, str]] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LOG:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number, status, detail in sorted(ACCEPTANCE_LOG):
        terminalreporter.write_line(f"criterion {number:2d} [{status}] {detail}")


@pytest.fixture
def tiny_pair():
    """Two 3-node graphs, one triple each, fully aligned."""
    left = KnowledgeGraph(3, 1, [(0, 0, 1)])
    right = KnowledgeGraph(3, 1, [(2, 0, 0)])
    align = AlignmentSet.from_records(
        [(0, 2, Role.TRAIN), (1, 0, Role.TRAIN), (2, 1, Role.TEST)]
    )
    return GraphPair(left=left, right=right, alignment=align)


def row_l2_normalize(m):
    """Every row scaled to unit Euclidean length, all-zero rows passed
    through: the encoder's feature normalization, as an oracle."""
    m = np.asarray(m, dtype=np.float64)
    norms = np.linalg.norm(m, axis=1)
    return m / np.where(norms > 0.0, norms, 1.0)[:, None]


def rank_of(query, truth, candidates, scores) -> int:
    """1-based rank of the truth among candidates sorted by descending
    score, ties broken by ascending candidate index: the ranking rule of
    evaluation.evaluate, one query at a time, as an oracle."""
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


def add_rows_reference(out, targets, rows, scales):
    """out[targets[t, i]] += scales[i] * rows[t] for each row t and line
    i, repeated targets accumulated, in out's dtype: the scatter-add of
    training._add_rows, with np.add.at one line at a time, as an
    oracle."""
    for i, scale in enumerate(scales):
        np.add.at(out, targets[:, i], scale * rows)


def score(s_l, s_r, cfg, a_l=None, a_r=None) -> float:
    """Similarity of one candidate pair, higher is better: the negated
    blend of the per-dimension-normalized L1 distances of the structure
    embeddings and (when cfg.beta < 1) the attribute embeddings. The
    scoring rule of evaluation.evaluate, one pair at a time, as an
    oracle."""
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


def random_graph(rng, n_entities, n_relations, n_triples):
    triples = np.stack(
        [
            rng.integers(0, n_entities, n_triples),
            rng.integers(0, n_relations, n_triples),
            rng.integers(0, n_entities, n_triples),
        ],
        axis=1,
    )
    # make sure every relation occurs at least once
    triples[:n_relations, 1] = np.arange(n_relations)
    return KnowledgeGraph(n_entities, n_relations, triples)


def random_pair(rng, n=8, n_train=4, n_test=0, n_triples=12):
    left = random_graph(rng, n, 1, n_triples)
    right = random_graph(rng, n, 1, n_triples)
    perm = rng.permutation(n)
    records = [
        (i, int(perm[i]), Role.TRAIN if i < n_train else Role.TEST)
        for i in range(n_train + n_test)
    ]
    return GraphPair(left=left, right=right, alignment=AlignmentSet.from_records(records))


def write_dataset(root: Path, *, triples_1, triples_2, ents_1, ents_2,
                  rels_1, rels_2, files):
    """Materialize a dataset directory from in-memory rows.

    ents/rels are lists of (raw_id, label); files maps extra file names
    to row lists (each row a tuple of columns).
    """
    root.mkdir(parents=True, exist_ok=True)

    def dump(name, rows):
        text = "\n".join("\t".join(str(c) for c in row) for row in rows)
        (root / name).write_text(text + "\n", encoding="utf-8")

    dump("triples_1", triples_1)
    dump("triples_2", triples_2)
    dump("ent_ids_1", ents_1)
    dump("ent_ids_2", ents_2)
    dump("rel_ids_1", rels_1)
    dump("rel_ids_2", rels_2)
    for name, rows in files.items():
        dump(name, rows)
    return root


def jape_chain(root, n):
    """A dbp15k-jape subset of two aligned n-entity chains: the first
    half of the pairs revealed for training, the rest for test."""
    return write_dataset(
        root,
        triples_1=[(i, 100, i + 1) for i in range(n - 1)],
        triples_2=[(50 + i, 200, 51 + i) for i in range(n - 1)],
        ents_1=[(i, f"e:{i}") for i in range(n)],
        ents_2=[(50 + i, f"f:{i}") for i in range(n)],
        rels_1=[(100, "r:p")],
        rels_2=[(200, "s:p")],
        files={
            "sup_ent_ids": [(i, 50 + i) for i in range(n // 2)],
            "ref_ent_ids": [(i, 50 + i) for i in range(n // 2, n)],
        },
    )


@pytest.fixture
def jape_style_dir(tmp_path):
    """Minimal dbp15k-jape layout: 4 entities per side, official split."""
    return write_dataset(
        tmp_path / "zh_en",
        triples_1=[(10, 100, 11), (11, 100, 12), (12, 101, 13)],
        triples_2=[(20, 200, 21), (21, 200, 22), (23, 201, 20)],
        ents_1=[(10, "e:a"), (11, "e:b"), (12, "e:c"), (13, "e:d")],
        ents_2=[(20, "f:a"), (21, "f:b"), (22, "f:c"), (23, "f:d")],
        rels_1=[(100, "r:p"), (101, "r:q")],
        rels_2=[(200, "s:p"), (201, "s:q")],
        files={
            "sup_ent_ids": [(10, 20), (11, 21)],
            "ref_ent_ids": [(12, 22), (13, 23)],
        },
    )


def golden_data_root():
    """Directory with real benchmark downloads, or None.

    Layout: $KGALIGN_DATA/<family>/<subset>/ with the canonical files.
    """
    root = os.environ.get("KGALIGN_DATA")
    if root and Path(root).is_dir():
        return Path(root)
    return None


def require_golden(family, subset):
    root = golden_data_root()
    if root is None:
        pytest.skip("set KGALIGN_DATA to a directory with downloaded benchmarks")
    path = root / family / subset
    if not path.is_dir():
        pytest.skip(f"dataset {family}/{subset} not present under KGALIGN_DATA")
    return path


def record_run_single(monkeypatch, run_dir):
    """Replace runner.run_single with a stub that trains nothing: it
    appends each config it is asked for to the returned list and reports
    rank 1 everywhere."""
    from kgalign import runner
    from kgalign.evaluation import MetricsReport, metrics_from_ranks

    asked = []

    def run_single(cfg, runs_root, force=False):
        asked.append(cfg)
        m = metrics_from_ranks(np.array([1]))
        test = MetricsReport("test-only", "test", m, m, m)
        return runner.RunResult(cfg, run_dir, None, test, None)

    monkeypatch.setattr(runner, "run_single", run_single)
    return asked
