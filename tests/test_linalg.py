"""The numeric kernels: scipy's sparse products as the encoder uses
them, and the private helpers of encoder (unit rows), adjacency (degree
normalization) and training (_add_rows, the loss's one integer
scatter-add, against an np.add.at reference)."""
import numpy as np
import pytest
import scipy.sparse as sp

from kgalign import training
from kgalign.adjacency import AdjacencyConfig, _degree_normalize, build_adjacency_unnormalized
from kgalign.encoder import EncoderConfig, _unit_rows, forward, init_state
from kgalign.errors import NumericError
from kgalign.graphs import KnowledgeGraph
from kgalign.training import _add_rows, _selector

from conftest import add_rows_reference, row_l2_normalize


def test_identity_spmm_returns_operand():
    b = np.arange(12, dtype=float).reshape(4, 3)
    assert np.array_equal(sp.eye_array(4, format="csr") @ b, b)


def test_all_ones_spmm_hand_sum():
    a = sp.csr_array(np.ones((2, 2)))
    out = a @ np.array([[1.0], [3.0]])
    assert out.tolist() == [[4.0], [4.0]]


def test_spmm_matches_dense_reference():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n, m, d = rng.integers(1, 51), rng.integers(1, 51), rng.integers(1, 8)
        dense = np.where(rng.random((n, m)) < 0.2, rng.normal(size=(n, m)), 0.0)
        b = rng.normal(size=(m, d))
        expected = dense @ b  # dense brute-force oracle
        got = sp.csr_array(dense) @ b
        assert np.allclose(got, expected, rtol=1e-10, atol=1e-12)


def test_spmm_dimension_mismatch():
    adj_left, adj_right = sp.eye_array(4, format="csr"), sp.eye_array(3, format="csr")
    cfg = EncoderConfig(n_layers=1, dim=2, seed=0)
    state = init_state(cfg, 4, 4)  # right features have 4 rows, adj is 3x3
    with pytest.raises(ValueError, match=r"\(3, 3\) but features have 4 rows"):
        forward(adj_left, adj_right, state, cfg)


def test_csr_canonicalization_from_shuffled_duplicates():
    rng = np.random.default_rng(1)
    # duplicate and reversed triples, so both the count and its symmetric
    # partner land on the same entries several times
    triples = np.array(
        [(0, 0, 1), (1, 0, 2), (1, 0, 2), (0, 0, 1), (2, 0, 0), (1, 0, 0), (0, 0, 2)]
    )
    cfg = AdjacencyConfig(add_self_loops=False)

    def build(order):
        return build_adjacency_unnormalized(KnowledgeGraph(3, 1, triples[order]), cfg)

    shuffled = build(rng.permutation(len(triples)))
    in_order = build(np.arange(len(triples)))
    expected = np.zeros((3, 3))
    np.add.at(expected, (triples[:, 0], triples[:, 2]), 1.0)
    assert np.array_equal(shuffled.toarray(), expected + expected.T)
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(shuffled, name), getattr(in_order, name))
    # strictly increasing column indices within each row
    assert shuffled.nnz == 6
    for i in range(3):
        cols_i = shuffled.indices[shuffled.indptr[i]:shuffled.indptr[i + 1]]
        assert np.all(np.diff(cols_i) > 0)


def unit_rows(m):
    """The encoder's feature normalization, as its forward pass calls it."""
    return _unit_rows(m, np.linalg.norm(m, axis=1))


# the encoder's helper and the tests' oracle, each on its own
NORMALIZERS = (unit_rows, row_l2_normalize)


def test_row_l2_normalize_345():
    for normalize in NORMALIZERS:
        assert np.allclose(normalize(np.array([[3.0, 4.0]])), [[0.6, 0.8]])


def test_row_l2_normalize_zero_row_unchanged():
    for normalize in NORMALIZERS:
        assert normalize(np.array([[0.0, 0.0]])).tolist() == [[0.0, 0.0]]


def test_row_l2_normalize_random_norms():
    rng = np.random.default_rng(2)
    m = rng.normal(size=(40, 7))
    for normalize in NORMALIZERS:
        assert np.allclose(np.linalg.norm(normalize(m), axis=1), 1.0, atol=1e-6)
    assert np.array_equal(unit_rows(m), row_l2_normalize(m))


def test_degree_normalize_row_uniform():
    a = sp.csr_array(np.ones((2, 2)))
    out = _degree_normalize(a, "row").toarray()
    assert np.allclose(out, [[0.5, 0.5], [0.5, 0.5]])


def test_degree_normalize_symmetric_hand():
    # degrees are both 2, so every entry is 1 / sqrt(2 * 2)
    a = sp.csr_array(np.ones((2, 2)))
    out = _degree_normalize(a, "symmetric").toarray()
    assert np.allclose(out, [[0.5, 0.5], [0.5, 0.5]])


def test_degree_normalize_identity_fixed_point():
    a = sp.eye_array(4, format="csr")
    for mode in ("row", "symmetric"):
        assert np.allclose(_degree_normalize(a, mode).toarray(), np.eye(4))


def test_degree_normalize_row_sums_one():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 30))
        dense = np.where(rng.random((n, n)) < 0.3, rng.random((n, n)), 0.0)
        dense += np.eye(n)  # self-loops keep degrees positive
        out = _degree_normalize(sp.csr_array(dense), "row")
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-9)


def test_degree_normalize_symmetric_matches_dense_reference():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(2, 25))
        dense = np.where(rng.random((n, n)) < 0.3, rng.random((n, n)), 0.0)
        dense += np.eye(n)
        deg = dense.sum(axis=1)
        d_inv_sqrt = np.diag(1.0 / np.sqrt(deg))
        expected = d_inv_sqrt @ dense @ d_inv_sqrt
        got = _degree_normalize(sp.csr_array(dense), "symmetric").toarray()
        assert np.allclose(got, expected, atol=1e-12)


def test_degree_normalize_zero_degree_errors():
    a = sp.csr_array(([1.0], ([0], [0])), shape=(2, 2))  # row 1 empty
    with pytest.raises(NumericError, match="self-loop"):
        _degree_normalize(a, "row")


def test_transpose_roundtrip():
    rng = np.random.default_rng(4)
    dense = np.where(rng.random((5, 7)) < 0.4, rng.normal(size=(5, 7)), 0.0)
    a = sp.csr_array(dense)
    b = rng.normal(size=(5, 3))
    assert np.allclose(a.T.toarray(), dense.T)
    # the backward pass multiplies through the transposed view; it must
    # give the same bits as a materialized, index-sorted transpose
    materialized = a.T.tocsr()
    materialized.sort_indices()
    assert np.array_equal(a.T @ b, materialized @ b)


def test_spmm_deterministic():
    rng = np.random.default_rng(6)
    dense = np.where(rng.random((30, 30)) < 0.2, rng.normal(size=(30, 30)), 0.0)
    a = sp.csr_array(dense)
    b = rng.normal(size=(30, 5))
    first = a @ b
    for _ in range(3):
        assert np.array_equal(a @ b, first)


# one line, the negatives' scales (-1 left, +1 right) and the positives'
# (+1 left, -1 right); the loss's two accumulator dtypes; a few rows and
# many; the sparse kernel and the np.add.at fallback
@pytest.mark.parametrize("kernel", [True, False], ids=["kernel", "add-at"])
@pytest.mark.parametrize("m", [10, 5000])
@pytest.mark.parametrize("dtype", [np.int16, np.int32])
@pytest.mark.parametrize("scales", [(1,), (-1, 1), (1, -1)], ids=["one-line", "negatives", "positives"])
def test_add_rows_is_add_at_bit_for_bit(monkeypatch, scales, dtype, m, kernel):
    # targets repeat within and across lines, added onto what out holds
    rng = np.random.default_rng(10)
    targets = rng.integers(0, 50, (m, len(scales)))
    rows = rng.integers(-1, 2, (m, 3)).astype(dtype)
    start = rng.integers(-100, 100, (50, 3)).astype(dtype)
    expected = start.copy()
    add_rows_reference(expected, targets, rows, scales)
    if not kernel:
        monkeypatch.setattr(training, "csc_matvecs", None)
    out = start.copy()
    # a selector longer than m, cut to m columns as a short chunk's is
    _add_rows(out, targets, rows, *_selector(scales, m + 7, dtype))
    assert out.dtype == dtype
    assert out.tobytes() == expected.tobytes()
