import numpy as np
import pytest

from kgalign.adjacency import (
    AdjacencyConfig,
    build_adjacency,
    build_adjacency_unnormalized,
    compute_functionality,
)
from kgalign.errors import ConfigError, NumericError
from kgalign.graphs import KnowledgeGraph


def test_functionality_enumeration():
    # heads {a, d} and tails {b, c} over 3 triples of the same relation
    g = KnowledgeGraph(4, 1, [(0, 0, 1), (0, 0, 2), (3, 0, 1)])
    fun, ifun = compute_functionality(g)
    assert fun[0] == pytest.approx(2 / 3)
    assert ifun[0] == pytest.approx(2 / 3)


def test_functionality_single_triple():
    g = KnowledgeGraph(2, 1, [(0, 0, 1)])
    fun, ifun = compute_functionality(g)
    assert fun[0] == 1.0 and ifun[0] == 1.0


def test_functionality_clamp_floor():
    # one head, ten triples: raw functionality 0.1 is lifted to the floor
    triples = [(0, 0, t % 3) for t in range(10)]
    g = KnowledgeGraph(3, 1, triples)
    fun, _ = compute_functionality(g)
    assert fun[0] == pytest.approx(0.1)
    # three triples end in entity 1, each reverse edge carries the floored fun
    clamped = build_adjacency_unnormalized(
        g, AdjacencyConfig(variant="functionality", clamp=True, add_self_loops=False)
    )
    assert clamped[1, 0] == pytest.approx(3 * 0.3)


def test_functionality_zero_triple_relation_errors():
    g = KnowledgeGraph(2, 2, [(0, 0, 1)])  # relation 1 unused
    with pytest.raises(NumericError, match="relation 1"):
        compute_functionality(g)


@pytest.mark.parametrize("seed", range(5))
def test_functionality_counts_equal_the_stacked_unique_formula(seed):
    # duplicate triples, and a relation with one endpoint only, count once
    rng = np.random.default_rng(seed)
    n, n_rel = 9, 4
    triples = np.stack([rng.integers(0, n, 60), rng.integers(0, n_rel, 60),
                        rng.integers(0, 3, 60)], axis=1)
    triples[:n_rel, 1] = np.arange(n_rel)
    triples = np.concatenate([triples, triples[::3], [[8, 3, 8]] * 4])
    g = KnowledgeGraph(n, n_rel, triples)
    counts = np.bincount(triples[:, 1], minlength=n_rel).astype(np.float64)

    def distinct(endpoints):
        combo = np.unique(np.stack([triples[:, 1], endpoints], axis=1), axis=0)
        return np.bincount(combo[:, 0], minlength=n_rel).astype(np.float64)

    fun, ifun = compute_functionality(g)
    assert np.array_equal(fun, distinct(triples[:, 0]) / counts)
    assert np.array_equal(ifun, distinct(triples[:, 2]) / counts)


def test_functionality_rejects_an_endpoint_out_of_range():
    with pytest.raises(ValueError):
        compute_functionality(KnowledgeGraph(2, 1, [(0, 0, 2)]))


def test_empty_graph_count_variant_is_identity():
    g = KnowledgeGraph(3, 1, np.zeros((0, 3), dtype=np.int64))
    out = build_adjacency(g, AdjacencyConfig(variant="count", normalization="row"))
    assert np.allclose(out.toarray(), np.eye(3))


def test_single_triple_count_prenormalization():
    g = KnowledgeGraph(2, 1, [(0, 0, 1)])
    a_hat = build_adjacency_unnormalized(g, AdjacencyConfig(variant="count"))
    assert np.allclose(a_hat.toarray(), [[1.0, 1.0], [1.0, 1.0]])


def test_single_triple_functionality_equals_count_when_weights_one():
    g = KnowledgeGraph(2, 1, [(0, 0, 1)])
    count = build_adjacency_unnormalized(g, AdjacencyConfig(variant="count"))
    func = build_adjacency_unnormalized(g, AdjacencyConfig(variant="functionality"))
    # fun = ifun = 1 for the single triple
    assert np.allclose(func.toarray(), count.toarray())


def _random_graph(rng):
    n = int(rng.integers(3, 12))
    n_rel = int(rng.integers(1, 4))
    m = int(rng.integers(n_rel, 25))
    triples = np.stack(
        [rng.integers(0, n, m), rng.integers(0, n_rel, m), rng.integers(0, n, m)],
        axis=1,
    )
    triples[:n_rel, 1] = np.arange(n_rel)
    return KnowledgeGraph(n, n_rel, triples)


def test_functionality_with_unit_scores_equals_count_variant():
    # force all scores to one by building single-occurrence relations
    rng = np.random.default_rng(0)
    for _ in range(50):
        g = _random_graph(rng)
        # give every triple its own relation so fun = ifun = 1 exactly
        triples = g.triples.copy()
        triples[:, 1] = np.arange(len(triples))
        g1 = KnowledgeGraph(g.entity_count, len(triples), triples)
        func = build_adjacency_unnormalized(
            g1, AdjacencyConfig(variant="functionality", clamp=False)
        )
        count = build_adjacency_unnormalized(g1, AdjacencyConfig(variant="count"))
        assert np.allclose(func.toarray(), count.toarray(), atol=1e-12)


def test_positive_diagonal_before_normalization():
    rng = np.random.default_rng(1)
    for _ in range(10):
        g = _random_graph(rng)
        for variant in ("count", "functionality"):
            a_hat = build_adjacency_unnormalized(g, AdjacencyConfig(variant=variant))
            assert np.all(a_hat.diagonal() > 0)


def test_row_normalized_rows_sum_to_one():
    rng = np.random.default_rng(2)
    for _ in range(10):
        g = _random_graph(rng)
        out = build_adjacency(g, AdjacencyConfig(variant="count", normalization="row"))
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-9)


def test_clamping_never_decreases_entries():
    rng = np.random.default_rng(3)
    for _ in range(10):
        g = _random_graph(rng)
        plain = build_adjacency_unnormalized(
            g, AdjacencyConfig(variant="functionality", clamp=False)
        ).toarray()
        clamped = build_adjacency_unnormalized(
            g, AdjacencyConfig(variant="functionality", clamp=True)
        ).toarray()
        assert np.all(clamped >= plain - 1e-15)


def test_no_self_loops_isolated_node_errors():
    g = KnowledgeGraph(3, 1, [(0, 0, 1)])  # node 2 isolated
    cfg = AdjacencyConfig(variant="count", add_self_loops=False)
    with pytest.raises(NumericError, match="self-loop"):
        build_adjacency(g, cfg)


def test_directed_weighting_uses_both_scores():
    # two triples (0, r, 1), (0, r, 2): fun = 1/2, ifun = 2/2 = 1
    g = KnowledgeGraph(3, 1, [(0, 0, 1), (0, 0, 2)])
    fun, ifun = compute_functionality(g)
    assert fun[0] == pytest.approx(0.5)
    assert ifun[0] == pytest.approx(1.0)
    a_hat = build_adjacency_unnormalized(
        g, AdjacencyConfig(variant="functionality", add_self_loops=False)
    ).toarray()
    # forward edges carry ifun, reverse edges carry fun
    assert a_hat[0, 1] == pytest.approx(1.0)
    assert a_hat[1, 0] == pytest.approx(0.5)
    assert a_hat[0, 2] == pytest.approx(1.0)
    assert a_hat[2, 0] == pytest.approx(0.5)


def test_invalid_config_rejected():
    with pytest.raises(ConfigError):
        AdjacencyConfig(variant="other")
    with pytest.raises(ConfigError):
        AdjacencyConfig(normalization="none")
