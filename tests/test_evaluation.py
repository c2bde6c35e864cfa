import hashlib
import json
import os
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from kgalign import evaluation, parallel
from kgalign.errors import ConfigError, GraphValidationError, NumericError
from kgalign.evaluation import (
    DirectionMetrics,
    MetricsReport,
    ScoreConfig,
    evaluate,
    metrics_from_ranks,
)
from kgalign.graphs import AlignmentSet, GraphPair, KnowledgeGraph, Role, validate_pair

from conftest import rank_of, score


def test_score_identical_embeddings_is_zero():
    v = np.array([1.0, -2.0, 3.0])
    assert score(v, v, ScoreConfig(beta=1.0)) == 0.0


def test_score_blend_hand_computation():
    cfg = ScoreConfig(beta=0.5)
    s_l, s_r = np.array([0.0, 0.0]), np.array([1.0, 1.0])  # L1 distance 2
    a_l, a_r = np.array([0.0, 0.0]), np.array([2.0, 2.0])  # L1 distance 4
    assert score(s_l, s_r, cfg, a_l, a_r) == pytest.approx(-1.5)


def test_score_beta_one_ignores_attributes():
    v = np.array([1.0, 2.0])
    w = np.array([0.0, 0.0])
    with_attrs = score(v, w, ScoreConfig(beta=1.0), np.array([9.0]), np.array([-9.0]))
    assert with_attrs == score(v, w, ScoreConfig(beta=1.0))


def test_score_beta_below_one_requires_attributes():
    v = np.array([1.0])
    with pytest.raises(ConfigError, match="attribute"):
        score(v, v, ScoreConfig(beta=0.5))


def test_rank_of_top():
    r = rank_of(0, truth=5, candidates=[3, 5, 9], scores=[0.1, 0.9, 0.2])
    assert r == 1


def test_rank_of_documented_tie_break():
    # all tied: order by ascending candidate index, truth has the middle one
    r = rank_of(0, truth=5, candidates=[3, 5, 9], scores=[0.5, 0.5, 0.5])
    assert r == 2


def test_rank_of_missing_truth_errors():
    with pytest.raises(ValueError, match="missing"):
        rank_of(0, truth=4, candidates=[1, 2], scores=[0.0, 1.0])


def _rank_oracle(truth, candidates, scores):
    """Sort-based oracle: descending score, ascending index on ties."""
    order = sorted(range(len(candidates)), key=lambda i: (-scores[i], candidates[i]))
    for position, i in enumerate(order, start=1):
        if candidates[i] == truth:
            return position
    raise AssertionError("truth not found")


def test_rank_of_matches_sort_oracle_random():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 21))
        candidates = rng.choice(1000, size=n, replace=False)
        # draw from a tiny value set so ties actually happen
        scores = rng.choice([0.0, 0.25, 0.5], size=n)
        truth = int(candidates[rng.integers(n)])
        got = rank_of(0, truth, candidates, scores)
        assert got == _rank_oracle(truth, list(candidates), list(scores))


def test_rank_of_invariant_under_monotone_transforms():
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(2, 15))
        candidates = np.arange(n)
        scores = rng.choice([0.0, 0.5, 1.0], size=n)
        truth = int(rng.integers(n))
        base = rank_of(0, truth, candidates, scores)
        assert rank_of(0, truth, candidates, 3.0 * scores + 7.0) == base
        assert rank_of(0, truth, candidates, np.exp(scores)) == base


def test_metrics_hand_computation():
    m = metrics_from_ranks(np.array([1, 2, 4]))
    assert m.mean_rank == pytest.approx(7 / 3, abs=5e-5)
    assert m.mrr == pytest.approx((1 + 0.5 + 0.25) / 3, abs=5e-5)
    assert m.hits_at[1] == pytest.approx(33.33, abs=5e-3)
    assert m.hits_at[10] == pytest.approx(100.0)
    assert m.hits_at[50] == pytest.approx(100.0)


def _pair_with_embeddings(n=6, n_test=4, seed=0):
    rng = np.random.default_rng(seed)
    left = KnowledgeGraph(n, 1, [(0, 0, 1)])
    right = KnowledgeGraph(n, 1, [(0, 0, 1)])
    records = [(i, i, Role.TEST if i < n_test else Role.TRAIN) for i in range(n)]
    pair = GraphPair(left, right, AlignmentSet.from_records(records))
    emb_l = rng.normal(size=(n, 5))
    emb_r = rng.normal(size=(n, 5))
    return pair, emb_l, emb_r


def test_perfect_alignment_metrics():
    pair, emb_l, _ = _pair_with_embeddings()
    report = evaluate(emb_l, emb_l.copy(), pair, ScoreConfig(), split=Role.TEST)
    for m in (report.left_to_right, report.right_to_left, report.mean):
        assert m.mean_rank == 1.0
        assert m.mrr == 1.0
        assert all(v == 100.0 for v in m.hits_at.values())


def test_all_entities_ranks_at_least_test_only():
    pair, emb_l, emb_r = _pair_with_embeddings(n=10, n_test=4, seed=3)
    restricted = evaluate(emb_l, emb_r, pair, ScoreConfig(), policy="test-only")
    full = evaluate(emb_l, emb_r, pair, ScoreConfig(), policy="all-entities")
    assert full.left_to_right.mean_rank >= restricted.left_to_right.mean_rank
    assert full.right_to_left.mean_rank >= restricted.right_to_left.mean_rank
    assert full.left_to_right.hits_at[1] <= restricted.left_to_right.hits_at[1]


def test_candidate_restriction_excludes_non_test_entities():
    # entity 5 is train-only; make it the nearest neighbor of test query 0
    pair, emb_l, emb_r = _pair_with_embeddings(n=6, n_test=4, seed=4)
    emb_r[5] = emb_l[0]  # would rank first if admitted
    emb_r[0] = emb_l[0] + 0.01
    report = evaluate(emb_l, emb_r, pair, ScoreConfig(), policy="test-only")
    assert report.left_to_right.hits_at[1] >= 25.0  # query 0 still hits rank 1


def test_rank_invariant_under_monotone_score_transform():
    pair, emb_l, emb_r = _pair_with_embeddings(n=8, n_test=5, seed=5)
    base = evaluate(emb_l, emb_r, pair, ScoreConfig())
    scaled = evaluate(3.0 * emb_l, 3.0 * emb_r, pair, ScoreConfig())
    # scaling all embeddings scales every distance by the same factor
    assert base.left_to_right.mean_rank == scaled.left_to_right.mean_rank
    assert base.right_to_left.mrr == scaled.right_to_left.mrr


def test_mrr_and_mr_bounds():
    rng = np.random.default_rng(6)
    pair, emb_l, emb_r = _pair_with_embeddings(n=12, n_test=6, seed=7)
    report = evaluate(emb_l, emb_r, pair, ScoreConfig())
    n_cand = 6
    for m in (report.left_to_right, report.right_to_left):
        assert 1.0 <= m.mean_rank <= n_cand
        assert 1.0 / n_cand <= m.mrr <= 1.0
        assert m.hits_at[1] <= m.hits_at[10] <= m.hits_at[50]
        # reciprocal-rank mean can never fall below the H@1 fraction
        assert m.mrr >= m.hits_at[1] / 100.0 - 1e-12


def test_evaluate_empty_split_errors():
    pair, emb_l, emb_r = _pair_with_embeddings(n=4, n_test=4)
    with pytest.raises(ConfigError, match="validation"):
        evaluate(emb_l, emb_r, pair, ScoreConfig(), split=Role.VALIDATION)


def test_evaluate_rejects_an_unknown_policy_and_a_blend_without_attributes():
    pair, emb_l, emb_r = _pair_with_embeddings()
    with pytest.raises(ConfigError, match="^unknown candidate policy 'nearest'$"):
        evaluate(emb_l, emb_r, pair, ScoreConfig(), policy="nearest")
    with pytest.raises(ConfigError, match="^beta < 1 requires attribute embeddings$"):
        evaluate(emb_l, emb_r, pair, ScoreConfig(beta=0.5), attr_emb_left=emb_l)


@pytest.mark.parametrize("policy", ["test-only", "all-entities"])
@pytest.mark.parametrize("test_pairs, message", [
    ([(0, 0), (1, 1), (2, 2), (3, -1)], "right entity -1 out of range 0..5"),
    ([(0, 0), (1, 1), (2, 2), (3, 6)], "right entity 6 out of range 0..5"),
    ([(0, 0), (1, 1), (2, 2), (3, 3), (0, 4)], "left entity 0 sits in more than one pair"),
    ([(0, 0), (1, 1), (2, 2), (3, 3), (4, 2)], "right entity 2 sits in more than one pair"),
], ids=["right-minus-one", "right-six", "left-twice", "right-twice"])
def test_evaluate_refuses_a_split_without_a_line_per_pair(policy, test_pairs, message):
    # a pair out of range has no line of the matrix, and an entity in two
    # pairs shares one; validate_pair flags the split, and evaluate
    # refuses it under both policies, as a run's require_valid does
    pair, emb_l, emb_r = _pair_with_embeddings()
    records = [(l, r, Role.TEST) for l, r in test_pairs] + [(4, 4, Role.TRAIN), (5, 5, Role.TRAIN)]
    bad = GraphPair(pair.left, pair.right, AlignmentSet.from_records(records))
    assert validate_pair(bad)
    with pytest.raises(GraphValidationError, match=f"^test split: {message}$"):
        evaluate(emb_l, emb_r, bad, ScoreConfig(), policy=policy)


@pytest.mark.parametrize("policy", ["test-only", "all-entities"])
@pytest.mark.parametrize("side, row, message", [
    ("left", slice(None), "left embeddings: row 0"),
    ("right", 3, "right embeddings: row 3"),
    ("left attribute", 5, "left attribute embeddings: row 5"),
    ("right attribute", 1, "right attribute embeddings: row 1"),
], ids=["left", "right", "left-attribute", "right-attribute"])
def test_evaluate_refuses_non_finite_embeddings(policy, side, row, message):
    # NaN is neither below nor equal to a truth's distance, so every
    # truth would rank first; a clean copy ranks as usual
    pair, emb_l, emb_r = _pair_with_embeddings()
    matrices = {"left": emb_l, "right": emb_r, "left attribute": emb_l.copy(),
                "right attribute": emb_r.copy()}
    args = (pair, ScoreConfig(beta=0.5))
    kwargs = {"policy": policy, "attr_emb_left": matrices["left attribute"],
              "attr_emb_right": matrices["right attribute"]}
    clean = evaluate(emb_l.copy(), emb_r.copy(), *args, **kwargs)
    assert clean.mean.hits_at[1] < 100.0
    matrices[side][row] = np.nan if side == "left" else np.inf
    with pytest.raises(NumericError, match=f"^{message} is not finite$"):
        evaluate(emb_l, emb_r, *args, **kwargs)


def test_tie_diagnostics_present_when_requested():
    pair, emb_l, emb_r = _pair_with_embeddings()
    report = evaluate(emb_l, emb_r, pair, ScoreConfig(), tie_diagnostics=True)
    diag = report.tie_diagnostics
    assert diag is not None
    lr = diag["left_to_right"]
    assert lr["mean_rank_optimistic"] <= report.left_to_right.mean_rank
    assert lr["mean_rank_pessimistic"] >= report.left_to_right.mean_rank


def _json(report):
    """The bytes kgalign evaluate writes for report, less the final newline."""
    return json.dumps(report.to_dict(), indent=2, sort_keys=True)


def test_report_json_roundtrip_and_text():
    pair, emb_l, emb_r = _pair_with_embeddings()
    for tie_diagnostics in (True, False):
        report = evaluate(emb_l, emb_r, pair, ScoreConfig(), tie_diagnostics=tie_diagnostics)
        back = MetricsReport.from_dict(json.loads(_json(report)))
        assert back == report
        assert _json(back) == _json(report)
        assert ("tie_diagnostics" in report.to_dict()) == tie_diagnostics
    assert set(report.to_dict()["directions"]) == {"left_to_right", "right_to_left", "mean"}
    assert all(isinstance(k, int) for k in back.mean.hits_at)
    text = report.to_text()
    assert "H@1" in text and "MRR" in text and "L->R" in text
    # two-decimal percentage formatting
    assert f"{report.left_to_right.hits_at[1]:.2f}" in text


def test_report_text_is_a_fixed_width_table():
    # each column as wide as its widest cell, two spaces apart, the
    # first left-aligned and the others right-aligned
    def direction(h1, mr, mrr):
        return DirectionMetrics({1: h1, 10: 100.0, 50: 100.0}, mr, mrr, 12)

    report = MetricsReport("test-only", "test", direction(8.333333, 12.5, 0.123456),
                           direction(100.0, 1.0, 1.0), direction(54.1666, 6.75, 0.561728))
    assert report.to_text() == (
        "candidates: test-only, split: test\n"
        "metric    L->R    R->L    mean\n"
        "H@1       8.33  100.00   54.17\n"
        "H@10    100.00  100.00  100.00\n"
        "H@50    100.00  100.00  100.00\n"
        "MR       12.50    1.00    6.75\n"
        "MRR     0.1235  1.0000  0.5617\n"
    )


def test_evaluate_matches_rank_of_per_query():
    pair, emb_l, emb_r = _pair_with_embeddings(n=9, n_test=5, seed=8)
    report = evaluate(emb_l, emb_r, pair, ScoreConfig(), policy="test-only")
    test_pairs = pair.alignment.by_role(Role.TEST)
    candidates = np.unique(test_pairs[:, 1])
    ranks = []
    for l, r in test_pairs:
        scores = [
            score(emb_l[l], emb_r[c], ScoreConfig()) for c in candidates
        ]
        ranks.append(rank_of(l, r, candidates, scores))
    expected = metrics_from_ranks(np.array(ranks))
    assert report.left_to_right.mean_rank == pytest.approx(expected.mean_rank)
    assert report.left_to_right.mrr == pytest.approx(expected.mrr)
    assert report.left_to_right.hits_at == pytest.approx(expected.hits_at)


def test_evaluate_blended_matches_per_query_scores():
    rng = np.random.default_rng(11)
    pair, emb_l, emb_r = _pair_with_embeddings(n=7, n_test=4, seed=10)
    attr_l = rng.normal(size=(7, 3))
    attr_r = rng.normal(size=(7, 3))
    cfg = ScoreConfig(beta=0.6)
    report = evaluate(
        emb_l, emb_r, pair, cfg,
        attr_emb_left=attr_l, attr_emb_right=attr_r,
    )
    test_pairs = pair.alignment.by_role(Role.TEST)
    candidates = np.unique(test_pairs[:, 1])
    ranks = []
    for l, r in test_pairs:
        scores = [
            score(emb_l[l], emb_r[c], cfg, attr_l[l], attr_r[c])
            for c in candidates
        ]
        ranks.append(rank_of(l, r, candidates, scores))
    expected = metrics_from_ranks(np.array(ranks))
    assert report.left_to_right.mean_rank == pytest.approx(expected.mean_rank)
    assert report.left_to_right.mrr == pytest.approx(expected.mrr)


def _tied_pair(n=1400, n_test=1300, seed=12):
    """A pair whose 1,300 test pairs span two ranking blocks at the
    default budget, with integer-valued embeddings so that ties are common. The widths (4 and
    2) and the betas used with it are powers of two or exact binary
    fractions, so every distance is exact whatever the order of the
    arithmetic, and the oracle and the kernel see the same ties."""
    rng = np.random.default_rng(seed)
    left = KnowledgeGraph(n, 1, [(0, 0, 1)])
    right = KnowledgeGraph(n, 1, [(0, 0, 1)])
    order = rng.permutation(n)
    right_ids = rng.permutation(n)
    records = [
        (int(i), int(right_ids[i]), Role.TEST if k < n_test else Role.TRAIN)
        for k, i in enumerate(order)
    ]
    pair = GraphPair(left, right, AlignmentSet.from_records(records))
    emb = [rng.integers(0, 3, size=(n, 4)).astype(float) for _ in range(2)]
    attr = [rng.integers(0, 2, size=(n, 2)).astype(float) for _ in range(2)]
    return pair, emb, attr


def _oracle_direction(queries, truths, candidates, emb_q, emb_c, attr_q, attr_c, cfg):
    """Per-query rank_of over scores that follow score()'s formula, plus
    the tie bounds counted from the same scores."""
    ranks, optimistic, pessimistic = [], [], []
    for q, t in zip(queries, truths):
        scores = -(cfg.beta * np.abs(emb_q[q] - emb_c[candidates]).sum(axis=1) / emb_q.shape[1])
        if cfg.beta < 1.0:
            scores -= (1.0 - cfg.beta) * np.abs(attr_q[q] - attr_c[candidates]).sum(axis=1) / attr_q.shape[1]
        ranks.append(rank_of(q, t, candidates, scores))
        s_t = scores[np.flatnonzero(candidates == t)[0]]
        better = int((scores > s_t).sum())
        optimistic.append(better + 1)
        pessimistic.append(better + int((scores == s_t).sum()))
    return ranks, np.array(optimistic), np.array(pessimistic)


def _assert_matches_oracle(report, pair, emb, attr, cfg, policy):
    test_pairs = pair.alignment.by_role(Role.TEST)
    (emb_l, emb_r), (attr_l, attr_r) = emb, attr
    for name, q_col, t_col, embs, attrs, n_cand in (
        ("left_to_right", 0, 1, (emb_l, emb_r), (attr_l, attr_r), pair.right.entity_count),
        ("right_to_left", 1, 0, (emb_r, emb_l), (attr_r, attr_l), pair.left.entity_count),
    ):
        if policy == "test-only":
            candidates = np.unique(test_pairs[:, t_col])
        else:
            candidates = np.arange(n_cand)
        # the scalar reference agrees with the vectorized oracle scores
        q, c = test_pairs[0, q_col], candidates[-1]
        assert score(embs[0][q], embs[1][c], cfg, attrs[0][q], attrs[1][c]) == -(
            cfg.beta * np.abs(embs[0][q] - embs[1][c]).sum() / 4
            + (1.0 - cfg.beta) * np.abs(attrs[0][q] - attrs[1][c]).sum() / 2
        )
        ranks, optimistic, pessimistic = _oracle_direction(
            test_pairs[:, q_col], test_pairs[:, t_col], candidates, *embs, *attrs, cfg
        )
        assert report.direction(name).to_dict() == metrics_from_ranks(np.array(ranks)).to_dict()
        assert report.tie_diagnostics[name] == {
            "mean_rank_optimistic": float(optimistic.mean()),
            "mean_rank_pessimistic": float(pessimistic.mean()),
        }
        assert (pessimistic > optimistic).any()  # ties do occur


@pytest.mark.parametrize("beta", [1.0, 0.75])
@pytest.mark.parametrize("policy", ["test-only", "all-entities"])
def test_evaluate_across_blocks_matches_oracle(beta, policy):
    pair, emb, attr = _tied_pair()
    assert len(pair.alignment.by_role(Role.TEST)) > evaluation.BLOCK_ELEMENTS // pair.right.entity_count
    cfg = ScoreConfig(beta=beta)
    report = evaluate(
        *emb, pair, cfg, policy=policy,
        attr_emb_left=attr[0], attr_emb_right=attr[1], tie_diagnostics=True,
    )
    _assert_matches_oracle(report, pair, emb, attr, cfg, policy)


def test_evaluate_report_independent_of_thread_count(monkeypatch):
    import os
    import sys

    import kgalign.parallel as parallel

    pools = []

    class RecordingPool(parallel.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(parallel, "ThreadPoolExecutor", RecordingPool)
    # blocks of 512 rows under test-only (1,300 candidates) and of 475
    # under all-entities (1,400): three blocks for the 1,300 queries
    monkeypatch.setattr(evaluation, "BLOCK_ELEMENTS", 512 * 1300)
    pair, emb, attr = _tied_pair()
    cfg = ScoreConfig(beta=0.75)
    # one and two CPUs keep those blocks. Eight CPUs, more than this
    # machine may have, cap a block at a thread's share of the queries,
    # ceil(1,300 / 8) = 163 rows, so the 1,300 queries make eight blocks
    # on eight threads: the calling thread and seven helpers. A short
    # switch interval interleaves them densely
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        # test-only counts both directions from one matrix, all-entities
        # builds a matrix per direction; each matrix takes one pool for
        # its blocks (the truth distances come first, on the calling
        # thread), and none on one core
        for policy, matrices in (("test-only", 1), ("all-entities", 2)):
            texts = []
            for cpus, helpers in (({0}, []), ({0, 1}, [1]), (set(range(8)), [7])):
                pools.clear()
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
                report = evaluate(
                    *emb, pair, cfg, policy=policy,
                    attr_emb_left=attr[0], attr_emb_right=attr[1], tie_diagnostics=True,
                )
                assert pools == helpers * matrices
                texts.append(_json(report))
            assert texts[0] == texts[1] == texts[2]
            _assert_matches_oracle(report, pair, emb, attr, cfg, policy)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("width", [4, 32, 200])
def test_cdist_elements_do_not_depend_on_their_matrix(width):
    """Test-only ranking computes one matrix and reads right-to-left
    distances down its columns, and takes the truth distances from the
    diagonals of small per-pair blocks. That is exact only because
    cdist computes each element on its own and |a - b| = |b - a|."""
    rng = np.random.default_rng(width)
    x, y = rng.normal(size=(23, width)), rng.normal(size=(31, width))
    bits = lambda a: np.asarray(a).view(np.uint64)
    full = cdist(x, y, "cityblock")
    assert np.array_equal(bits(full), bits(cdist(y, x, "cityblock").T))
    for i in range(len(x)):
        for j in range(len(y)):
            assert bits(cdist(x[i:i + 1], y[j:j + 1], "cityblock"))[0, 0] == bits(full)[i, j]
    rows, cols = rng.integers(len(x), size=40), rng.integers(len(y), size=40)
    assert np.array_equal(bits(cdist(x[rows], y[cols], "cityblock").diagonal()), bits(full[rows, cols]))


def _full_row_ranks(emb_q, emb_c, attr_q, attr_c, candidates, truths, beta):
    """Ranks and tie bounds from one cdist over all queries and
    candidates, by the documented rule: higher score first, ties broken
    by ascending candidate index."""
    dist = beta / emb_q.shape[1] * cdist(emb_q, emb_c, "cityblock")
    dist += (1.0 - beta) / attr_q.shape[1] * cdist(attr_q, attr_c, "cityblock")
    d_t = dist[np.arange(len(truths)), np.searchsorted(candidates, truths)][:, None]
    better = (dist < d_t).sum(axis=1)
    tied = dist == d_t
    before = (tied & (candidates[None, :] < truths[:, None])).sum(axis=1)
    return better + before + 1, better + 1, better + tied.sum(axis=1)


def _float_pair():
    """1,100 test pairs of float embeddings, which span two ranking blocks
    at the default budget; width 200 and beta 0.7 give scales that are
    not powers of two, and copied rows give exact ties on both sides."""
    n, n_test = 1200, 1100
    rng = np.random.default_rng(21)
    graph = KnowledgeGraph(n, 1, [(0, 0, 1)])
    right_ids = rng.permutation(n)
    records = [(i, int(right_ids[i]), Role.TEST if i < n_test else Role.TRAIN) for i in range(n)]
    pair = GraphPair(graph, graph, AlignmentSet.from_records(records))
    emb = [rng.normal(size=(n, 200)) for _ in range(2)]
    attr = [rng.normal(size=(n, 24)) for _ in range(2)]
    # identical rows give exact ties on float data, on both sides
    copies = rng.integers(60, n_test, size=60)
    for side in (emb, attr):
        side[0][copies] = side[0][:60]
        side[1][right_ids[copies]] = side[1][right_ids[:60]]
    return pair, emb, attr


def test_evaluate_float_data_matches_full_row_reference():
    pair, emb, attr = _float_pair()
    beta = 0.7
    report = evaluate(
        *emb, pair, ScoreConfig(beta=beta),
        attr_emb_left=attr[0], attr_emb_right=attr[1], tie_diagnostics=True,
    )
    test_pairs = pair.alignment.by_role(Role.TEST)
    for name, q, c in (("left_to_right", 0, 1), ("right_to_left", 1, 0)):
        candidates = np.unique(test_pairs[:, c])
        ranks, optimistic, pessimistic = _full_row_ranks(
            emb[q][test_pairs[:, q]], emb[c][candidates],
            attr[q][test_pairs[:, q]], attr[c][candidates],
            candidates, test_pairs[:, c], beta,
        )
        assert (pessimistic > optimistic).any()  # ties do occur
        assert report.direction(name).to_dict() == metrics_from_ranks(ranks).to_dict()
        assert report.tie_diagnostics[name] == {
            "mean_rank_optimistic": float(optimistic.mean()),
            "mean_rank_pessimistic": float(pessimistic.mean()),
        }
    # pinned from the per-direction ranking, which computed each distance twice
    assert hashlib.sha256(_json(report).encode()).hexdigest() == (
        "d969e6cf2e734c1f1af8e0b775f92ff6a8f7adf0867f784bebbebc480e3007d1"
    )


@pytest.mark.parametrize("data", ["tied", "float"])
def test_evaluate_report_independent_of_block_size(monkeypatch, data):
    """Blocks of one row, of three and of 150 or so, on 1, 2 and 8
    threads, give the bytes of a ranking in one block under both
    policies, tie diagnostics included."""
    if data == "float":
        (pair, emb, attr), cfg = _float_pair(), ScoreConfig(beta=0.7)
    else:
        (pair, emb, attr), cfg = _tied_pair(), ScoreConfig(beta=0.75)
    monkeypatch.setattr(parallel, "MIN_ITEM_SIZE", 0)

    def report(policy, budget, cpus):
        monkeypatch.setattr(evaluation, "BLOCK_ELEMENTS", budget)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        return _json(evaluate(
            *emb, pair, cfg, policy=policy,
            attr_emb_left=attr[0], attr_emb_right=attr[1], tie_diagnostics=True,
        ))

    for policy in ("test-only", "all-entities"):
        whole = report(policy, 1 << 40, 1)
        for budget in (300, 4096, 200_000):
            for cpus in (1, 2, 8):
                assert report(policy, budget, cpus) == whole, (policy, budget, cpus)


@pytest.mark.parametrize("cpus", [1, 2])
def test_all_entities_ranking_holds_a_few_blocks_per_thread(monkeypatch, cpus):
    """The all-entities ranking's traced peak is its per-query and
    per-candidate arrays plus a few distance blocks per thread: it does
    not grow with queries x candidates, and it copies no candidate
    embedding, since the candidates are every entity."""
    budget = 1 << 14
    monkeypatch.setattr(evaluation, "BLOCK_ELEMENTS", budget)
    monkeypatch.setattr(parallel, "MIN_ITEM_SIZE", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    for n in (1000, 4000):
        rng = np.random.default_rng(n)
        graph = KnowledgeGraph(n, 1, [(0, 0, 1)])
        right_ids = rng.permutation(n)
        records = [(i, int(right_ids[i]), Role.TEST if i < n // 2 else Role.TRAIN) for i in range(n)]
        pair = GraphPair(graph, graph, AlignmentSet.from_records(records))
        emb = [rng.normal(size=(n, 64)) for _ in range(2)]
        tracemalloc.start()
        try:
            evaluate(*emb, pair, ScoreConfig(), policy="all-entities")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the gathered query embeddings, 128 bytes per query and
        # candidate, and four blocks of float64 per thread: at most 1.5 MB
        # at n = 1000 and 2.8 MB at n = 4000 on 2 threads, where one
        # matrix of all distances takes 4 MB and 64 MB, and a copy of the
        # candidate embeddings 0.5 MB and 2 MB
        bound = (n // 2) * 8 * 64 + (n // 2 + n) * 128 + cpus * 4 * 8 * budget
        assert peak < bound
