"""Whole-pipeline check on a mid-size instance: alignment structure has
to emerge from training, far above the random baseline.
"""
import numpy as np

from kgalign.adjacency import AdjacencyConfig, build_adjacency
from kgalign.encoder import EncoderConfig, forward
from kgalign.evaluation import ScoreConfig, evaluate
from kgalign.graphs import AlignmentSet, GraphPair, KnowledgeGraph, Role
from kgalign.training import TrainConfig, train


def _isomorphic_instance(n=600, m_triples=2400, n_train=180, seed=3):
    """Two isomorphic graphs with zipf-skewed degrees; 30% revealed."""
    rng = np.random.default_rng(seed)
    heads = rng.zipf(1.7, size=m_triples * 2) % n
    tails = rng.integers(0, n, m_triples * 2)
    keep = heads != tails
    heads, tails = heads[keep][:m_triples], tails[keep][:m_triples]
    rels = rng.integers(0, 4, len(heads))
    rels[:4] = np.arange(4)
    perm = rng.permutation(n)
    left = KnowledgeGraph(n, 4, np.stack([heads, rels, tails], 1))
    right = KnowledgeGraph(n, 4, np.stack([perm[heads], rels, perm[tails]], 1))
    order = rng.permutation(n)
    records = [
        (int(i), int(perm[i]), Role.TRAIN if j < n_train else Role.TEST)
        for j, i in enumerate(order)
    ]
    return GraphPair(left, right, AlignmentSet.from_records(records))


def test_alignment_emerges_on_midsize_isomorphic_graphs():
    pair = _isomorphic_instance()
    adj_cfg = AdjacencyConfig()
    enc = EncoderConfig(n_layers=2, dim=32, use_weights=False, init=1.0, seed=0)
    tc = TrainConfig(optimizer="adam", learning_rate=1.0, n_negatives=25,
                     n_epochs=120, seed=1)
    state, losses = train(pair, adj_cfg, enc, tc)
    # fresh negatives every epoch keep the loss floor noisy; clear
    # descent plus the ranking quality below is the real signal
    assert losses[-1] < 0.6 * losses[0]

    adjs = (build_adjacency(pair.left, adj_cfg), build_adjacency(pair.right, adj_cfg))
    out_l, out_r, _ = forward(*adjs, state, enc)
    report = evaluate(out_l, out_r, pair, ScoreConfig(), split=Role.TEST)
    # ~420 candidates: random would sit near 0.24; training reaches ~79
    assert report.left_to_right.hits_at[1] > 40.0
    assert report.right_to_left.hits_at[1] > 40.0
    assert report.left_to_right.hits_at[10] > 70.0
