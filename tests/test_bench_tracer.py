"""The benchmark's tracer (perfbench/tracing.py) wraps occlm functions by
module and name; renaming or deleting one of them must fail here, not only
in a traced benchmark run."""

import importlib
import os

import numpy as np

from occlm import bpe, cli, corpus, model, train

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def _tracing(monkeypatch):
    monkeypatch.syspath_prepend(os.path.abspath(PERFBENCH))
    return importlib.import_module("tracing")


def test_tracer_installs_and_uninstalls(monkeypatch):
    tracing = _tracing(monkeypatch)
    before = (model.save_checkpoint, cli.write_manifest)
    tracer = tracing.Tracer("t")
    tracer.install()
    try:
        assert model.save_checkpoint is not before[0]
        assert cli.write_manifest is not before[1]
    finally:
        tracer.uninstall()
    assert (model.save_checkpoint, cli.write_manifest) == before


def test_tracer_records_op_and_forward_spans_of_a_train_step(monkeypatch):
    """The traced benchmark times each kernel and its tape entry's backward;
    a change to how kernels record on the tape must keep both visible."""
    tracing = _tracing(monkeypatch)
    cfg = model.ModelConfig(vocab_size=16, block_size=8, d_model=8, n_layers=1,
                            n_heads=2, dropout=0.0, ffn_mult=2).check()
    tcfg = train.TrainConfig(batch_size=2, seed=0).check()
    params = model.init(cfg, seed=0)
    state = train.init_state(params, tcfg)
    ids = np.arange(3, 19).reshape(2, 8) % 16
    batch = corpus.Batch(ids, np.roll(ids, -1, axis=1),
                         np.zeros(ids.shape, dtype=bool))
    tracer = tracing.Tracer("t")
    tracer.install()
    try:
        train.train_step(params, state, batch, tcfg)
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"tensor.matmul.fwd", "tensor.matmul.bwd",
            "model.forward.train"} <= names


def test_tracer_counts_the_tokens_of_a_traced_encode(monkeypatch):
    """bpe.encode_tokens_per_s divides the traced encode time by the ids the
    wrapper counts from encode(...).ids."""
    tracing = _tracing(monkeypatch)
    vocab = bpe.train_bpe(["ke a tseba gore o tla re hwetsa"] * 4, 280)
    tracer = tracing.Tracer("t")
    tracer.install()
    try:
        ids = bpe.encode(vocab, "Ke a tseba gore o tla").ids
    finally:
        tracer.uninstall()
    assert ids and tracer.counts["encode_tokens"] == len(ids)
    assert "bpe.encode" in {span[0] for span in tracer.spans}
