import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from kgalign import encoder, parallel
from kgalign.adjacency import AdjacencyConfig, build_adjacency
from kgalign.encoder import (
    EncoderConfig,
    backward,
    forward,
    init_state,
)
from kgalign.errors import ConfigError, NumericError
from kgalign.linalg import row_l2_normalize

from conftest import random_graph


def _adj(graph):
    return build_adjacency(graph, AdjacencyConfig())


def test_init_deterministic():
    cfg = EncoderConfig(dim=8, seed=42, use_weights=True)
    a = init_state(cfg, 5, 7)
    b = init_state(cfg, 5, 7)
    assert np.array_equal(a.features_left, b.features_left)
    assert np.array_equal(a.features_right, b.features_right)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


def test_unit_preset_empirical_std():
    cfg = EncoderConfig(dim=100, init="unit", seed=0)
    state = init_state(cfg, 10_000, 1)
    std = state.features_left.std()
    assert abs(std - 1.0) < 0.05


def test_scaled_preset_empirical_std():
    # width 100 shrinks the std to 100 ** -0.5 = 0.1
    cfg = EncoderConfig(dim=100, init="scaled", seed=0)
    state = init_state(cfg, 10_000, 1)
    std = state.features_left.std()
    assert abs(std - 0.1) < 0.005


def test_weight_init_range_is_fan_based():
    cfg = EncoderConfig(dim=50, use_weights=True, n_layers=2, seed=3)
    state = init_state(cfg, 4, 4)
    bound = np.sqrt(6.0 / 100)
    for w in state.weights:
        assert w.shape == (50, 50)
        assert w.min() >= -bound and w.max() <= bound


def test_weightless_parameter_count():
    cfg = EncoderConfig(dim=16, use_weights=False)
    state = init_state(cfg, 9, 11)
    assert state.weights is None
    assert state.parameter_count() == (9 + 11) * 16


def test_single_node_identity_propagation():
    adj = sp.eye_array(1, format="csr")
    cfg = EncoderConfig(n_layers=1, dim=3, seed=1)
    state = init_state(cfg, 1, 1)
    out_l, _, _ = forward(adj, adj, state, cfg)
    assert np.allclose(out_l, row_l2_normalize(state.features_left))


def test_fully_mixed_two_nodes_average():
    adj = sp.csr_array(np.full((2, 2), 0.5))
    cfg = EncoderConfig(n_layers=1, dim=4, seed=2)
    state = init_state(cfg, 2, 2)
    out_l, _, _ = forward(adj, adj, state, cfg)
    mean = row_l2_normalize(state.features_left).mean(axis=0)
    assert np.allclose(out_l[0], mean)
    assert np.allclose(out_l[1], mean)


def test_forward_is_pure():
    rng = np.random.default_rng(0)
    g = random_graph(rng, 6, 1, 10)
    adj = _adj(g)
    cfg = EncoderConfig(n_layers=2, dim=5, seed=4)
    state = init_state(cfg, 6, 6)
    out1 = forward(adj, adj, state, cfg)
    out2 = forward(adj, adj, state, cfg)
    assert np.array_equal(out1[0], out2[0])
    assert np.array_equal(out1[1], out2[1])


def test_activation_schedule_relu_then_identity():
    # reconstruct the two-layer weightless forward by hand: ReLU after
    # the first propagation, identity after the last
    rng = np.random.default_rng(1)
    g = random_graph(rng, 7, 1, 12)
    adj = _adj(g)
    cfg = EncoderConfig(n_layers=2, dim=6, seed=5)
    state = init_state(cfg, 7, 7)
    out_l, _, _ = forward(adj, adj, state, cfg)

    h0 = row_l2_normalize(state.features_left)
    h1 = np.maximum(adj @ h0, 0.0)
    assert np.all(h1 >= 0.0)
    expected = adj @ h1  # identity activation on the last layer
    assert np.allclose(out_l, expected, atol=1e-12)


def test_permutation_equivariance():
    rng = np.random.default_rng(2)
    g = random_graph(rng, 8, 1, 14)
    adj = _adj(g)
    cfg = EncoderConfig(n_layers=2, dim=5, seed=6)
    state = init_state(cfg, 8, 8)
    out_l, _, _ = forward(adj, adj, state, cfg)

    perm = rng.permutation(8)
    p_dense = np.eye(8)[perm]  # row i of output is row perm[i] of input
    adj_p = sp.csr_array(p_dense @ adj.toarray() @ p_dense.T)
    state_p = init_state(cfg, 8, 8)
    state_p.features_left = state.features_left[perm]
    out_lp, _, _ = forward(adj_p, adj, state_p, cfg)
    assert np.allclose(out_lp, out_l[perm], atol=1e-12)


def test_shape_mismatch_errors():
    adj = sp.eye_array(3, format="csr")
    cfg = EncoderConfig(n_layers=1, dim=4, seed=0)
    state = init_state(cfg, 4, 3)  # left features have 4 rows, adj is 3x3
    with pytest.raises(ValueError, match="rows"):
        forward(adj, adj, state, cfg)


def test_non_finite_output_errors():
    adj = sp.eye_array(2, format="csr")
    cfg = EncoderConfig(n_layers=1, dim=2, normalize_features=False, seed=0)
    state = init_state(cfg, 2, 2)
    state.features_left[0, 0] = np.inf
    with pytest.raises(NumericError, match="non-finite"):
        forward(adj, adj, state, cfg)


@pytest.mark.parametrize(
    "bad, normalize",
    [(np.nan, True), (np.nan, False), (np.inf, True), (-np.inf, True), (np.inf, False)],
)
def test_non_finite_features_are_not_hidden_by_relu(bad, normalize):
    # a hidden layer's ReLU must pass NaN on to the finite check rather
    # than map it to 0; normalizing an infinite row gives NaN
    rng = np.random.default_rng(12)
    adj = _adj(random_graph(rng, 6, 1, 10))
    cfg = EncoderConfig(n_layers=2, dim=3, normalize_features=normalize, seed=0)
    state = init_state(cfg, 6, 6)
    state.features_left[0, 0] = bad
    with pytest.raises(NumericError, match="non-finite"):
        forward(adj, adj, state, cfg)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_feature_names_its_graph_and_first_row(bad):
    # under normalization the check runs on the row norms, before any layer
    rng = np.random.default_rng(12)
    adj = _adj(random_graph(rng, 6, 1, 10))
    cfg = EncoderConfig(n_layers=2, dim=3, seed=0)
    state = init_state(cfg, 6, 6)
    state.features_right[[4, 2], 1] = bad
    with pytest.raises(NumericError, match="non-finite feature in row 2 of the right graph"):
        forward(adj, adj, state, cfg)
    # rows whose squares overflow (numpy warns of it) are finite, as
    # before: they normalize to 0
    state.features_right[[4, 2], 1] = 1e200
    with np.errstate(over="ignore"):
        out_l, out_r, _ = forward(adj, adj, state, cfg)
    assert np.all(np.isfinite(out_r))


def test_relu_maps_minus_infinity_to_zero():
    rng = np.random.default_rng(12)
    adj = _adj(random_graph(rng, 6, 1, 10))
    cfg = EncoderConfig(n_layers=2, dim=3, normalize_features=False, seed=0)
    state = init_state(cfg, 6, 6)
    state.features_left[0, 0] = -np.inf
    out_l, _, _ = forward(adj, adj, state, cfg)
    assert np.all(np.isfinite(out_l))


def test_zero_upstream_gradient_gives_zero_parameter_gradient():
    rng = np.random.default_rng(3)
    g = random_graph(rng, 6, 1, 9)
    adj = _adj(g)
    cfg = EncoderConfig(n_layers=2, dim=4, use_weights=True, seed=7)
    state = init_state(cfg, 6, 6)
    out_l, out_r, tape = forward(adj, adj, state, cfg, keep_tape=True)
    grads = backward(np.zeros_like(out_l), np.zeros_like(out_r), tape, cfg, state)
    for g_arr in grads.parameters():
        assert np.all(g_arr == 0.0)


def test_single_node_normalization_jacobian():
    adj = sp.eye_array(1, format="csr")
    cfg = EncoderConfig(n_layers=1, dim=3, seed=8)
    state = init_state(cfg, 1, 1)
    out_l, out_r, tape = forward(adj, adj, state, cfg, keep_tape=True)
    upstream = np.array([[0.3, -1.2, 0.5]])
    grads = backward(upstream, np.zeros_like(out_r), tape, cfg, state)
    x = state.features_left[0]
    norm = np.linalg.norm(x)
    jac = np.eye(3) / norm - np.outer(x, x) / norm**3
    assert np.allclose(grads.features_left[0], jac @ upstream[0], atol=1e-12)


def test_tape_config_mismatch_errors():
    adj = sp.eye_array(2, format="csr")
    cfg = EncoderConfig(n_layers=1, dim=2, seed=9)
    state = init_state(cfg, 2, 2)
    out_l, out_r, tape = forward(adj, adj, state, cfg, keep_tape=True)
    other = EncoderConfig(n_layers=2, dim=2, seed=9)
    with pytest.raises(ConfigError, match="different encoder config"):
        backward(np.zeros_like(out_l), np.zeros_like(out_r), tape, other, state)


def test_state_weights_config_consistency():
    adj = sp.eye_array(2, format="csr")
    cfg_w = EncoderConfig(n_layers=1, dim=2, use_weights=True, seed=0)
    state_plain = init_state(EncoderConfig(n_layers=1, dim=2, seed=0), 2, 2)
    with pytest.raises(ConfigError):
        forward(adj, adj, state_plain, cfg_w)


@pytest.mark.parametrize("n_layers", [1, 2, 3])
@pytest.mark.parametrize("use_weights", [False, True])
@pytest.mark.parametrize("normalize", [True, False])
def test_gradients_match_finite_differences(n_layers, use_weights, normalize):
    rng = np.random.default_rng(10)
    g_l = random_graph(rng, 8, 1, 14)
    g_r = random_graph(rng, 8, 1, 14)
    adj_l, adj_r = _adj(g_l), _adj(g_r)
    cfg = EncoderConfig(
        n_layers=n_layers,
        dim=4,
        use_weights=use_weights,
        normalize_features=normalize,
        seed=11,
    )
    state = init_state(cfg, 8, 8)
    coeff_l = rng.normal(size=(8, 4))
    coeff_r = rng.normal(size=(8, 4))

    def objective():
        out_l, out_r, _ = forward(adj_l, adj_r, state, cfg)
        return float((coeff_l * out_l).sum() + (coeff_r * out_r).sum())

    out_l, out_r, tape = forward(adj_l, adj_r, state, cfg, keep_tape=True)
    grads = backward(coeff_l, coeff_r, tape, cfg, state)

    h = 1e-5
    for p, g_analytic in zip(state.parameters(), grads.parameters()):
        numeric = np.zeros_like(p)
        flat_p, flat_n = p.ravel(), numeric.ravel()
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + h
            up = objective()
            flat_p[i] = orig - h
            down = objective()
            flat_p[i] = orig
            flat_n[i] = (up - down) / (2 * h)
        scale = max(np.abs(numeric).max(), 1.0)
        assert np.abs(numeric - g_analytic).max() / scale < 1e-4


@pytest.mark.parametrize("n_layers", [1, 2, 3])
@pytest.mark.parametrize("use_weights", [False, True])
@pytest.mark.parametrize("n, dim, block", [(5000, 16, None), (50, 8, 24)])
def test_blocked_normalization_backward_matches_full_formula(monkeypatch, n_layers, use_weights, n, dim, block):
    """The normalization's backward, run in row blocks on unit rows rebuilt
    from the features, gives the bits of the full-matrix formula on the
    normalized features: three blocks of 2,048, 2,048 and 904 rows at
    the default size, and seventeen of 3 rows (with a zero row)."""
    if block is not None:
        monkeypatch.setattr(encoder, "NORM_BLOCK", block)
    assert n > 2 * max(1, encoder.NORM_BLOCK // dim)
    rng = np.random.default_rng(n_layers)
    adj_l, adj_r = (_adj(random_graph(rng, n, 2, 4 * n)) for _ in range(2))
    cfg = EncoderConfig(n_layers=n_layers, dim=dim, use_weights=use_weights, seed=5)
    state = init_state(cfg, n, n)
    state.features_left[n // 2] = 0.0
    upstream = [rng.normal(size=(n, dim)) for _ in range(2)]
    out_l, out_r, tape = forward(adj_l, adj_r, state, cfg, keep_tape=True)
    grads = backward(*(u.copy() for u in upstream), tape, cfg, state)

    for graph_tape, features, u, got in (
        (tape.left, state.features_left, upstream[0], grads.features_left),
        (tape.right, state.features_right, upstream[1], grads.features_right),
    ):
        # the tape holds the features themselves and, weightless, no
        # other float matrix
        assert graph_tape.features is features
        if not use_weights:
            held = [getattr(graph_tape, f.name) for f in dataclasses.fields(graph_tape)
                    if f.name not in ("features", "adj")]
            arrays = [a for x in held if x is not None for a in (x if isinstance(x, list) else [x])]
            assert not any(a.dtype.kind == "f" and a.ndim == 2 for a in arrays)
        # the gradient reaching the normalized features, from the same tape
        # cut before the normalization, then the full-matrix formula
        cut = dataclasses.replace(graph_tape, features=None, norms=None)
        own = [np.zeros_like(w) for w in state.weights] if use_weights else None
        with parallel.one_blas_thread():
            g = encoder._backward_one(u.copy(), cut, state.weights, own, cfg)
        norms = np.linalg.norm(features, axis=1)
        xhat = row_l2_normalize(features)
        dots = np.einsum("ij,ij->i", g, xhat)
        g -= dots[:, None] * xhat
        g /= np.where(norms > 0.0, norms, 1.0)[:, None]
        g[norms == 0.0] = 0.0
        assert np.array_equal(got.view(np.uint64), g.view(np.uint64))
