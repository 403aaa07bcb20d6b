"""Model tests: init, forward oracles, causality, grads, checkpoints."""

import contextlib
import dataclasses
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from helpers import edit_checkpoint_config, fd_grad, max_rel_err
from occlm import metrics, model
from occlm import tensor as T
from occlm.errors import (
    CheckpointError,
    ConfigError,
    LengthError,
    NumericsError,
    ShapeError,
    TokenIndexError,
)

TINY = model.ModelConfig(
    vocab_size=11, block_size=6, d_model=8, n_layers=1, n_heads=2,
    dropout=0.0, ffn_mult=2,
)


def test_config_validation():
    with pytest.raises(ConfigError) as exc:
        model.ModelConfig(vocab_size=10, d_model=10, n_heads=3).check()
    assert "n_heads" in str(exc.value)
    with pytest.raises(ConfigError):
        model.ModelConfig(vocab_size=10, dropout=1.0).check()
    with pytest.raises(ConfigError):
        model.ModelConfig(vocab_size=10, n_layers=0).check()


def test_init_deterministic_per_seed():
    a = model.init(TINY, seed=3)
    b = model.init(TINY, seed=3)
    c = model.init(TINY, seed=4)
    for name in a.names():
        np.testing.assert_array_equal(a[name].data, b[name].data)
    assert any(not np.array_equal(a[n].data, c[n].data) for n in a.names())


def test_init_biases_zero_ln_scale_one():
    p = model.init(TINY, seed=0)
    np.testing.assert_array_equal(p["block0.ffn.b1"].data, 0.0)
    np.testing.assert_array_equal(p["block0.ln1.g"].data, 1.0)
    np.testing.assert_array_equal(p["ln_f.b"].data, 0.0)


def test_param_count_hand_oracle():
    # V*d + block*d                          = 3200 + 512
    # per block: 4 d^2 attn                  = 4096
    #   ffn 32*128 + 128 + 128*32 + 32       = 8352
    #   ln pairs 4*32                        = 128
    # final ln 64; head tied
    cfg = model.ModelConfig(
        vocab_size=100, block_size=16, d_model=32, n_layers=2, n_heads=4,
        dropout=0.0, ffn_mult=4,
    )
    assert model.param_count(cfg) == 28_928
    assert sum(t.size for _, t in model.init(cfg, 0).items()) == 28_928


def test_forward_minimal_shape():
    p = model.init(TINY, seed=0)
    out = model.forward(p, TINY, np.array([[4]]))
    assert out.shape == (1, 1, TINY.vocab_size)


def test_forward_shape_contract():
    p = model.init(TINY, seed=0)
    for B, S in [(1, 1), (2, 3), (4, 6)]:
        ids = np.zeros((B, S), dtype=np.int64)
        assert model.forward(p, TINY, ids).shape == (B, S, TINY.vocab_size)


def test_forward_rejects_long_sequence():
    p = model.init(TINY, seed=0)
    with pytest.raises(LengthError):
        model.forward(p, TINY, np.zeros((1, TINY.block_size + 1), dtype=np.int64))


def test_forward_rejects_bad_ids():
    p = model.init(TINY, seed=0)
    for bad in (TINY.vocab_size, -1):
        with pytest.raises(TokenIndexError):
            model.forward(p, TINY, np.array([[1, bad]]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", [
    "tok_emb",  # layer_norm's row sum overflows
    # inside the fused kernels: q and k reach the guard through the scores,
    # v through its own check, w1 through the pre-activation; w2's output
    # stays finite here and overflows the final layer_norm
    "block0.attn.wq", "block0.attn.wk", "block0.attn.wv",
    "block0.ffn.w1", "block0.ffn.w2",
])
def test_forward_overflow_raises_numerics_error_without_warning(name):
    p = model.init(TINY, seed=0)
    p[name].data[:] = 3e38
    with pytest.raises(NumericsError):
        model.forward(p, TINY, np.array([[4, 5, 6]]))


def test_forward_enters_errstate_at_most_once(monkeypatch):
    entered = []
    errstate = np.errstate

    def counting(**kwargs):
        entered.append(kwargs)
        return errstate(**kwargs)

    monkeypatch.setattr(np, "errstate", counting)
    model.forward(model.init(TINY, seed=0), TINY, np.array([[4, 5, 6]]))
    assert len(entered) <= 1


def hand_forward(p, cfg, ids):
    """Independent straight-line float64 numpy forward, one sequence."""
    w = {name: t.data.astype(np.float64) for name, t in p.items()}
    S = len(ids)
    H, hd = cfg.n_heads, cfg.d_model // cfg.n_heads

    def ln(x, g, b):
        mu = x.mean(-1, keepdims=True)
        var = x.var(-1, keepdims=True)
        return (x - mu) / np.sqrt(var + 1e-5) * g + b

    x = w["tok_emb"][ids] + w["pos_emb"][:S]
    for i in range(cfg.n_layers):
        b = f"block{i}"
        h = ln(x, w[f"{b}.ln1.g"], w[f"{b}.ln1.b"])
        q = (h @ w[f"{b}.attn.wq"]).reshape(S, H, hd).transpose(1, 0, 2)
        k = (h @ w[f"{b}.attn.wk"]).reshape(S, H, hd).transpose(1, 0, 2)
        v = (h @ w[f"{b}.attn.wv"]).reshape(S, H, hd).transpose(1, 0, 2)
        scores = q @ k.transpose(0, 2, 1) / np.sqrt(hd)
        for r in range(S):
            scores[:, r, r + 1 :] = -1e9
        e = np.exp(scores - scores.max(-1, keepdims=True))
        att = e / e.sum(-1, keepdims=True)
        ctx = (att @ v).transpose(1, 0, 2).reshape(S, cfg.d_model)
        x = x + ctx @ w[f"{b}.attn.wo"]
        h = ln(x, w[f"{b}.ln2.g"], w[f"{b}.ln2.b"])
        a = h @ w[f"{b}.ffn.w1"] + w[f"{b}.ffn.b1"]
        act = 0.5 * a * (1 + np.tanh(np.sqrt(2 / np.pi) * (a + 0.044715 * a**3)))
        x = x + act @ w[f"{b}.ffn.w2"] + w[f"{b}.ffn.b2"]
    x = ln(x, w["ln_f.g"], w["ln_f.b"])
    return x @ w["tok_emb"].T


def hand_loss(p, cfg, ids, targets):
    """float64 mean cross-entropy over every position, via hand_forward."""
    total = 0.0
    count = 0
    for row_ids, row_t in zip(ids, targets):
        z = hand_forward(p, cfg, row_ids)
        z = z - z.max(-1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(-1, keepdims=True))
        total -= logp[np.arange(len(row_ids)), row_t].sum()
        count += len(row_ids)
    return total / count


def test_forward_matches_hand_computation():
    cfg = model.ModelConfig(
        vocab_size=9, block_size=5, d_model=4, n_layers=1, n_heads=1,
        dropout=0.0, ffn_mult=2,
    )
    p = model.init(cfg, seed=12)
    ids = np.array([1, 7, 3, 0])
    got = model.forward(p, cfg, ids).data[0]
    want = hand_forward(p, cfg, ids)
    np.testing.assert_allclose(got, want, atol=1e-5)


def test_causal_invariance_quantified():
    rng = np.random.default_rng(0)
    checked = 0
    while checked < 100:
        d = int(rng.choice([4, 8]))
        cfg = model.ModelConfig(
            vocab_size=int(rng.integers(8, 20)),
            block_size=8,
            d_model=d,
            n_layers=int(rng.integers(1, 3)),
            n_heads=int(rng.choice([1, 2])),
            dropout=0.0,
            ffn_mult=2,
        )
        p = model.init(cfg, seed=int(rng.integers(1 << 30)))
        S = int(rng.integers(2, cfg.block_size + 1))
        ids = rng.integers(0, cfg.vocab_size, size=S)
        t = int(rng.integers(0, S - 1))
        base = model.forward(p, cfg, ids).data[0]
        other = ids.copy()
        other[t + 1 :] = rng.integers(0, cfg.vocab_size, size=S - t - 1)
        pert = model.forward(p, cfg, other).data[0]
        np.testing.assert_array_equal(base[: t + 1], pert[: t + 1])
        checked += 1


def test_tied_embeddings_share_storage():
    p = model.init(TINY, seed=1)
    assert "head.w" not in p
    ids = np.array([[2, 3]])
    before = model.forward(p, TINY, ids).data.copy()
    p["tok_emb"].data[5] += 1.0
    after = model.forward(p, TINY, ids).data
    assert not np.array_equal(before, after)


def test_whole_model_gradient_check():
    # numeric side runs central differences over the independent float64
    # forward, so float32 readout noise cannot mask a backward bug
    cfg = TINY
    p = model.init(cfg, seed=5)
    rng = np.random.default_rng(2)
    ids = rng.integers(0, cfg.vocab_size, size=(2, 4))
    targets = rng.integers(0, cfg.vocab_size, size=(2, 4))

    engine = float(T.cross_entropy(model.forward(p, cfg, ids), targets).data)
    np.testing.assert_allclose(engine, hand_loss(p, cfg, ids, targets), rtol=1e-5)

    with T.Tape() as tape:
        loss = T.cross_entropy(model.forward(p, cfg, ids), targets)
        grads = T.backward(loss, tape)

    def oracle():
        return hand_loss(p, cfg, ids, targets)

    for name in p.names():
        t = p[name]
        num = fd_grad(oracle, [t], h=5e-4)[0]
        err = max_rel_err(grads[t], num, floor=1e-3)
        assert err <= 1e-2, f"{name}: rel err {err:.3e}"


def test_backward_frees_activations_as_it_goes():
    # one ac4 row shard (16 rows of 64 positions, d_model 64, 2 layers);
    # with the tape still referenced, what is live after backward is the
    # logits, the leaves' gradients and little else
    cfg = model.ModelConfig(vocab_size=512, block_size=64, d_model=64,
                            n_layers=2, n_heads=2, dropout=0.1, ffn_mult=4)
    p = model.init(cfg, seed=0)
    rng = np.random.default_rng(0)
    ids = rng.integers(0, cfg.vocab_size, size=(16, 64))
    targets = rng.integers(0, cfg.vocab_size, size=(16, 64))
    tracemalloc.start()
    try:
        with T.Tape() as tape:
            logits = model.forward(p, cfg, ids, train=True, rng=rng)
            loss = T.cross_entropy(logits, targets)
            after_forward = tracemalloc.get_traced_memory()[0]
            grads = T.backward(loss, tape)
            after_backward = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after_backward < 0.25 * after_forward, (after_forward, after_backward)


AC4_SHARD = model.ModelConfig(vocab_size=512, block_size=64, d_model=64,
                              n_layers=2, n_heads=2, dropout=0.1, ffn_mult=4)


def _ac4_shard():
    """ac4 parameters and one 16-row shard of ids and targets."""
    rng = np.random.default_rng(0)
    ids = rng.integers(0, AC4_SHARD.vocab_size, size=(16, 64))
    targets = rng.integers(0, AC4_SHARD.vocab_size, size=(16, 64))
    return model.init(AC4_SHARD, seed=0), ids, targets


def test_tape_pins_no_op_output(monkeypatch):
    # no backward reads these outputs, so once the forward stops using them
    # nothing may hold them: not the tape, not a backward closure
    p, ids, targets = _ac4_shard()
    refs = {}

    def tracking(op):
        kernel = getattr(T, op)

        def wrapper(*args):
            out = kernel(*args)
            refs.setdefault(op, []).append(weakref.ref(out.data))
            return out

        return wrapper

    # model.forward calls matmul only for the head
    for op in ("add", "attention", "ffn", "embedding_lookup", "dropout", "matmul"):
        monkeypatch.setattr(T, op, tracking(op))
    with T.Tape() as tape:
        loss = T.cross_entropy(
            model.forward(p, AC4_SHARD, ids, train=True,
                          rng=np.random.default_rng(1)), targets)
        counts = {op: len(r) for op, r in refs.items()}
        alive = {op: sum(ref() is not None for ref in r) for op, r in refs.items()}
        T.backward(loss, tape)
    assert counts == {"add": 5, "attention": 2, "ffn": 2, "embedding_lookup": 2,
                      "dropout": 1, "matmul": 1}
    assert alive == dict.fromkeys(counts, 0)


def test_forward_without_a_tape_builds_no_handle(monkeypatch):
    made = []

    class CountingHandle(T._GradHandle):
        __slots__ = ()

        def __init__(self, shape):
            made.append(shape)
            super().__init__(shape)

    monkeypatch.setattr(T, "_GradHandle", CountingHandle)
    p, ids, targets = _ac4_shard()
    for train in (False, True):
        T.cross_entropy(model.forward(p, AC4_SHARD, ids[:1], train=train,
                                      rng=np.random.default_rng(1)), targets[:1])
    assert made == []
    with T.Tape() as tape:
        model.forward(p, AC4_SHARD, ids[:1])
    assert len(made) == len(tape) == 14


def test_tape_saves_each_block_activation_once(monkeypatch):
    # on one 16-row ac4 shard each FFN closure holds the pre-activation as
    # its one (16, 64, 256) float array, not GELU's t or output, and the
    # blocks' four layer-norm outputs are freed once their kernel returns:
    # backward rebuilds them from the saved xhat
    p, ids, targets = _ac4_shard()
    normed = []
    affine = T._layer_norm_affine

    def tracking(*args):
        out = affine(*args)
        normed.append(weakref.ref(out))
        return out

    monkeypatch.setattr(T, "_layer_norm_affine", tracking)
    with T.Tape() as tape:
        loss = T.cross_entropy(
            model.forward(p, AC4_SHARD, ids, train=True,
                          rng=np.random.default_rng(1)), targets)
        saved = {}
        for entry in tape.entries:
            fn = entry.backward_fn
            arrays = [cell.cell_contents for cell in fn.__closure__ or ()
                      if isinstance(cell.cell_contents, np.ndarray)]
            saved.setdefault(fn.__qualname__.split(".")[0], []).append(arrays)
        block_normed = [ref() for ref in normed[:4]]
        T.backward(loss, tape)
    # five layer norms in forward (four in the blocks, then ln_f), and the
    # blocks' four rebuilt in backward
    assert len(normed) == 9
    assert sum(map(len, saved.values())) == 16
    assert len(saved["ffn"]) == 2
    for arrays in saved["ffn"]:
        wide = [a for a in arrays if a.shape == (16, 64, 256)]
        assert len(wide) == 1 and wide[0].dtype == T.DTYPE
    assert block_normed == [None] * 4


# the ac4 model and the sweep's 2-layer model, with dropout on for train mode
PINNED_SHAPES = {
    "ac4": dict(vocab_size=512, block_size=64, d_model=64, n_layers=2,
                dropout=0.1, ffn_mult=4),
    "sweep": dict(vocab_size=384, block_size=32, d_model=32, n_layers=2,
                  dropout=0.1, ffn_mult=2),
}


def _pinned_params(shape, n_heads, seed=0):
    """A checked config and its parameters, every one (layer-norm gains and
    biases too) moved off its init value."""
    cfg = model.ModelConfig(n_heads=n_heads, **PINNED_SHAPES[shape]).check()
    params = model.init(cfg, seed=seed)
    rng = np.random.default_rng(seed + 1)
    for _, t in params.items():
        t.data += rng.normal(0.0, 0.05, size=t.shape).astype(T.DTYPE)
    return cfg, params


def _outcomes(params, cfg, ids, train=False, seed=None):
    """model.forward with no tape open, then inside one: per path, the
    logits' dtype, shape and bytes and the rng's final state, or the
    exception's type and message."""
    seen = []
    for taped in (False, True):
        rng = None if seed is None else np.random.default_rng(seed)
        with contextlib.ExitStack() as stack:
            if taped:
                stack.enter_context(T.Tape())
            try:
                out = model.forward(params, cfg, ids, train=train, rng=rng).data
            except Exception as exc:  # compared across the two paths
                seen.append((type(exc), str(exc)))
                continue
        seen.append((out.dtype, out.shape, out.tobytes(),
                     rng and rng.bit_generator.state))
    return seen


@pytest.mark.parametrize("table", ["c-order", "decoding"])
@pytest.mark.parametrize("n_heads", [1, 2, 4])
@pytest.mark.parametrize("shape", list(PINNED_SHAPES))
def test_forward_without_a_tape_equals_the_kernel_path(shape, n_heads, table):
    """With no tape open forward runs the kernels' array forwards directly;
    its logits (and, in train mode, its dropout draws) are the kernel
    path's bit for bit, at batch 1 and 16, length 1 and block_size, on the
    caller's table and on generate's column-major copy."""
    cfg, params = _pinned_params(shape, n_heads)
    if table == "decoding":
        params = metrics._decoding_params(params)
        assert params["tok_emb"].data.flags.f_contiguous
    rng = np.random.default_rng(7)
    for rows in (1, 16):
        for length in (1, cfg.block_size):
            ids = rng.integers(0, cfg.vocab_size, size=(rows, length))
            untaped, taped = _outcomes(params, cfg, ids)
            assert untaped[0] == T.DTYPE and untaped[1] == (rows, length,
                                                             cfg.vocab_size)
            assert untaped == taped
            untaped, taped = _outcomes(params, cfg, ids, train=True, seed=3)
            assert untaped[3] is not None and untaped == taped


def test_forward_without_a_tape_runs_no_kernel(monkeypatch):
    """The two paths the test above compares are two: with no tape open no
    kernel runs and only the logits become a Tensor."""
    calls = []
    for op in ("attention", "ffn", "embedding_lookup", "add", "dropout",
               "layer_norm", "matmul", "transpose"):
        kernel = getattr(T, op)
        monkeypatch.setattr(T, op, lambda *a, _k=kernel, _op=op, **kw:
                            calls.append(_op) or _k(*a, **kw))
    wrapped = []
    result = T._result
    monkeypatch.setattr(T, "_result", lambda *a: wrapped.append(a[1]) or result(*a))
    cfg, params = _pinned_params("sweep", 2)
    ids = np.arange(8)[None, :]
    model.forward(params, cfg, ids, train=True, rng=np.random.default_rng(0))
    assert calls == [] and wrapped == ["matmul"]
    with T.Tape():
        model.forward(params, cfg, ids)
    assert calls.count("attention") == calls.count("ffn") == cfg.n_layers


@pytest.mark.parametrize("name", model.param_shapes(model.ModelConfig(
    n_heads=2, **PINNED_SHAPES["sweep"])))
def test_forward_paths_raise_alike_on_a_planted_nan(name):
    cfg, params = _pinned_params("sweep", 2)
    t = params[name]
    t.data.reshape(-1)[t.size // 2] = np.nan
    ids = np.random.default_rng(0).integers(0, cfg.vocab_size,
                                            size=(2, cfg.block_size))
    untaped, taped = _outcomes(params, cfg, ids)
    assert untaped[0] is NumericsError and untaped == taped


@pytest.mark.parametrize("bad", [384, -1, 10**6])
def test_forward_paths_raise_alike_on_an_out_of_range_id(bad):
    cfg, params = _pinned_params("sweep", 2)
    untaped, taped = _outcomes(params, cfg, np.array([[3, bad, 4]]))
    assert untaped[0] is TokenIndexError and untaped == taped


@pytest.mark.parametrize("name, shape", [
    ("tok_emb", (384, 33)), ("pos_emb", (31, 32)), ("block1.attn.wo", (32, 16)),
    ("block0.ffn.b1", (64, 1)),
    # used to broadcast through the final layer norm without an error
    ("ln_f.g", (1,)),
])
def test_forward_paths_raise_alike_on_a_wrong_shaped_parameter(name, shape):
    cfg, params = _pinned_params("sweep", 2)
    tensors = dict(params.items())
    tensors[name] = T.Tensor(np.ones(shape))
    bad = model.ParameterSet(cfg, tensors)
    untaped, taped = _outcomes(bad, cfg, np.array([[3, 4, 5]]))
    assert untaped == taped == (
        ShapeError, f"parameter {name} has shape {shape}, config implies "
                    f"{params[name].shape}")


def test_one_shard_step_stays_under_its_memory_bound():
    # live traced memory of one 16-row ac4 shard after forward and
    # cross-entropy, with no name holding the logits as in loss_and_grads,
    # and the peak through backward (21.7 and 22.1 MiB when the tape held
    # every op output, float32 dropout masks and attention's dropped weights;
    # 14.3 and 15.3 MiB when the FFN saved GELU's t and output and each
    # block's layer-norm output was saved next to its xhat)
    p, ids, targets = _ac4_shard()
    mib = 2 ** 20
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        with T.Tape() as tape:
            loss = T.cross_entropy(
                model.forward(p, AC4_SHARD, ids, train=True,
                              rng=np.random.default_rng(1)), targets)
            live = tracemalloc.get_traced_memory()[0] - start
            tracemalloc.reset_peak()
            grads = T.backward(loss, tape)
            peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert live < 10 * mib and peak < 12 * mib, (live / mib, peak / mib)


def test_sequence_logprob_uniform_model():
    # zeroed embeddings and unit layer norm give uniform logits
    cfg = TINY
    p = model.init(cfg, seed=0)
    for name, t in p.items():
        leaf = name.split(".")[-1]
        t.data[...] = 1.0 if leaf == "g" else 0.0
    n = 5
    ids = np.arange(n) % cfg.vocab_size
    lp = model.sequence_logprob(p, cfg, ids)
    np.testing.assert_allclose(lp, -(n - 1) * np.log(cfg.vocab_size), rtol=1e-6)


def test_sequence_logprob_bounded_and_matches_direct_product():
    cfg = TINY
    p = model.init(cfg, seed=9)
    rng = np.random.default_rng(3)
    for _ in range(5):
        ids = rng.integers(0, cfg.vocab_size, size=int(rng.integers(2, 7)))
        lp = model.sequence_logprob(p, cfg, ids)
        assert np.exp(lp) <= 1.0 + 1e-12
        # independent direct product of per-step softmax probabilities
        prod = 1.0
        for t in range(1, len(ids)):
            logits = model.forward(p, cfg, ids[:t]).data[0, -1].astype(np.float64)
            e = np.exp(logits - logits.max())
            prod *= (e / e.sum())[ids[t]]
        np.testing.assert_allclose(lp, np.log(prod), rtol=1e-5)


def test_sequence_logprob_rejects_short():
    p = model.init(TINY, seed=0)
    with pytest.raises(LengthError):
        model.sequence_logprob(p, TINY, np.array([1]))


# -------------------------------------------------------------- checkpoint


def test_checkpoint_round_trip(tmp_path):
    p = model.init(TINY, seed=7)
    path = tmp_path / "m.ckpt"
    model.save_checkpoint(
        path, p, vocab_hash="abc123", metadata={"epoch": 4},
        extras={"m.tok_emb": np.ones((11, 8), dtype=np.float32)},
    )
    loaded, header, extras = model.load_checkpoint(path)
    assert header["metadata"]["epoch"] == 4
    assert header["vocab_hash"] == "abc123"
    for name in p.names():
        np.testing.assert_array_equal(loaded[name].data, p[name].data)
    np.testing.assert_array_equal(extras["m.tok_emb"], 1.0)
    assert loaded.config == TINY


def test_checkpoint_bytes_deterministic(tmp_path):
    p = model.init(TINY, seed=7)
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    model.save_checkpoint(a, p, vocab_hash="h", metadata={"k": 1})
    model.save_checkpoint(b, p, vocab_hash="h", metadata={"k": 1})
    assert a.read_bytes() == b.read_bytes()


def test_checkpoint_config_mismatch_fails(tmp_path):
    p = model.init(TINY, seed=0)
    path = tmp_path / "m.ckpt"
    model.save_checkpoint(path, p, vocab_hash="h")
    other = model.ModelConfig(
        vocab_size=11, block_size=6, d_model=8, n_layers=2, n_heads=2,
        dropout=0.0, ffn_mult=2,
    )
    with pytest.raises(CheckpointError) as exc:
        model.load_checkpoint(path, expect_config=other)
    assert "n_layers" in str(exc.value)


def test_checkpoint_vocab_hash_mismatch_fails(tmp_path):
    p = model.init(TINY, seed=0)
    path = tmp_path / "m.ckpt"
    model.save_checkpoint(path, p, vocab_hash="aaaabbbbccccdddd")
    with pytest.raises(CheckpointError):
        model.load_checkpoint(path, expect_vocab_hash="ddddccccbbbbaaaa")


def test_checkpoint_garbage_fails(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(CheckpointError):
        model.load_checkpoint(path)


def test_checkpoint_missing_config_field_fails(tmp_path):
    p = model.init(TINY, seed=0)
    path = tmp_path / "m.ckpt"
    model.save_checkpoint(path, p, vocab_hash="h")
    edit_checkpoint_config(path, lambda c: c.pop("vocab_size"))
    with pytest.raises(CheckpointError, match="vocab_size"):
        model.load_checkpoint(path)
    with pytest.raises(CheckpointError, match="vocab_size"):
        model.read_checkpoint_header(path)


@pytest.mark.parametrize("field, value", [
    ("n_layers", True), ("d_model", "8"), ("ffn_mult", 2.0), ("heads", 2),
])
def test_checkpoint_header_config_is_type_checked(tmp_path, field, value):
    path = tmp_path / "m.ckpt"
    model.save_checkpoint(path, model.init(TINY, seed=0), vocab_hash="h")
    edit_checkpoint_config(path, lambda c: c.update({field: value}))
    with pytest.raises(ConfigError, match=re.escape(f"{path} config: ") + ".*" + field):
        model.read_checkpoint_header(path)


def test_checkpoint_header_with_tied_head_key_loads(tmp_path):
    # headers written while the head could be untied say so; a tied one
    # loads as the same model, and the key is gone from the header returned
    p = model.init(TINY, seed=3)
    path = tmp_path / "m.ckpt"
    model.save_checkpoint(path, p, vocab_hash="h")
    edit_checkpoint_config(path, lambda c: c.update(tie_embeddings=True))
    loaded, header, _ = model.load_checkpoint(path, expect_config=TINY)
    assert header["config"] == dataclasses.asdict(TINY)
    for name in p.names():
        np.testing.assert_array_equal(loaded[name].data, p[name].data)


def test_checkpoint_save_failure_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "m.ckpt"
    model.save_checkpoint(path, model.init(TINY, seed=0), vocab_hash="h")
    before = path.read_bytes()
    real, calls = np.ascontiguousarray, []

    def fail_on_third(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise OSError("device full")
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "ascontiguousarray", fail_on_third)
    with pytest.raises(OSError, match="device full"):
        model.save_checkpoint(path, model.init(TINY, seed=1), vocab_hash="h")
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]


def test_checkpoint_truncated_fails(tmp_path):
    p = model.init(TINY, seed=0)
    path = tmp_path / "m.ckpt"
    model.save_checkpoint(path, p, vocab_hash="h")
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 50])
    with pytest.raises(CheckpointError):
        model.load_checkpoint(path)
