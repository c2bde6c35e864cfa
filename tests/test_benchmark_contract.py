"""The names and call forms that perfbench/ relies on.

The benchmark runs unchanged against every revision of src/, so a
refactor that renames or reshapes one of these breaks it. perfbench
traces kgalign by replacing public module functions wherever they are
bound, which is why cmd_evaluate must reach load_state through a
binding of runner.load_state.
"""
import inspect

import numpy as np

from kgalign import adjacency, cli, datasets, encoder, evaluation, graphs, runner, training
from kgalign.runner import RunConfig

TOY = {
    "dataset.family": "toy",
    "dataset.subset": "cycle-8-4",
    "encoder.dim": 8,
    "training.n_negatives": 2,
    "training.n_epochs": 2,
}

# Every function perfbench times as a span, with the parameters it
# passes or its trace hooks read, in their order of declaration.
SIGNATURES = [
    (datasets.load, []),
    (datasets.split, []),
    (graphs.validate_pair, []),
    (adjacency.build_adjacency, []),
    (runner.prepare_pair, ["cfg"]),
    (runner.run_single, ["cfg", "runs_root"]),
    (runner.run_grid, ["base", "runs_root", "axes", "workers"]),
    (runner.load_state, ["path"]),
    (training.train, ["pair", "adj_cfg", "enc_cfg", "train_cfg", "adjacencies"]),
    (training.sample_negatives, []),
    (training.margin_rank_loss, ["emb_left", "emb_right", "positives", "negatives", "margin"]),
    (training.optimizer_step, []),
    (encoder.forward, ["adj_left", "adj_right", "state", "cfg", "keep_tape"]),
    (encoder.backward, []),
    (evaluation.evaluate, ["emb_left", "emb_right", "pair", "cfg", "policy", "split"]),
    (cli.cmd_evaluate, ["args"]),
    (cli.main, ["argv"]),
]


def test_traced_functions_keep_their_names_and_parameters():
    for fn, params in SIGNATURES:
        module = fn.__module__.rsplit(".", 1)[1]
        assert vars(globals()[module])[fn.__name__] is fn
        assert not fn.__name__.startswith("_")
        declared = [p for p in inspect.signature(fn).parameters if p in params]
        assert declared == params, fn.__qualname__
    assert callable(RunConfig.from_flat)


def test_prepare_pair_and_train_call_forms():
    cfg = RunConfig.from_flat(TOY)
    pair = runner.prepare_pair(cfg)
    assert isinstance(pair, graphs.GraphPair)
    adj = (adjacency.build_adjacency(pair.left, cfg.adjacency),
           adjacency.build_adjacency(pair.right, cfg.adjacency))
    state, losses = training.train(pair, cfg.adjacency, cfg.encoder, cfg.training, adjacencies=adj)
    assert len(losses) == 2
    assert isinstance(state, encoder.EmbeddingState)


def test_cmd_evaluate_calls_runner_load_state(tmp_path, monkeypatch, capsys):
    import kgalign

    run = runner.run_single(RunConfig.from_flat(TOY), tmp_path)
    calls = []
    real = runner.load_state

    def recording(path):
        calls.append(path)
        return real(path)

    # rebind it in every kgalign namespace, the way the perfbench tracer does
    for module in (kgalign, adjacency, cli, datasets, encoder, evaluation, graphs, runner,
                   training):
        for name, value in list(vars(module).items()):
            if value is real:
                monkeypatch.setattr(module, name, recording)
    assert cli.main(["evaluate", str(run.run_dir)]) == 0
    capsys.readouterr()
    assert calls == [run.run_dir / "state.npz"]
    # perfbench also reads the structure features straight from the file
    with np.load(run.run_dir / "state.npz") as saved:
        encoder.EmbeddingState(saved["features_left"], saved["features_right"])
