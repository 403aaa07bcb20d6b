"""The fused decoder kernels T.embed, T.attention, T.ffn and T.head against
the chains of primitive kernels they replace (the blocks' with their
pre-layer norm and residual): same outputs, same input gradients (the
layer-norm gains and biases and both embedding tables included) and the
same rng draws, bit for bit, in eval and in train mode."""

import numpy as np
import pytest

from occlm import tensor as T
from occlm.errors import ContractError, ShapeError


def primitive_embed(tok_emb, pos_emb, ids, p, train, rng):
    """The decoder's input composed from primitive kernels only."""
    tok = T.embedding_lookup(tok_emb, ids)
    pos = T.embedding_lookup(pos_emb, np.arange(ids.shape[-1]))
    return T.dropout(T.add(tok, pos), p, train, rng)


def primitive_attention(x, ln_g, ln_b, wq, wk, wv, wo, n_heads, p, train, rng):
    """x plus the causal self-attention of layer_norm(x), composed from
    primitive kernels only."""
    B, S, d = x.shape
    H, hd = n_heads, d // n_heads
    h = T.layer_norm(x, ln_g, ln_b)
    q = T.matmul(h, wq)
    k = T.matmul(h, wk)
    v = T.matmul(h, wv)
    # (B,S,d) -> (B,H,S,hd)
    q = T.transpose(T.reshape(q, (B, S, H, hd)), (0, 2, 1, 3))
    k = T.transpose(T.reshape(k, (B, S, H, hd)), (0, 2, 1, 3))
    v = T.transpose(T.reshape(v, (B, S, H, hd)), (0, 2, 1, 3))
    scores = T.scale(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(hd))
    att = T.softmax_lastdim(T.causal_mask_fill(scores))
    att = T.dropout(att, p, train, rng)
    ctx = T.matmul(att, v)
    ctx = T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (B, S, d))
    out = T.matmul(ctx, wo)
    return T.add(x, T.dropout(out, p, train, rng))


def primitive_ffn(x, ln_g, ln_b, w1, b1, w2, b2, p, train, rng):
    """x plus the position-wise feed-forward of layer_norm(x), composed from
    primitive kernels only."""
    h = T.layer_norm(x, ln_g, ln_b)
    h = T.gelu(T.add(T.matmul(h, w1), b1))
    h = T.add(T.matmul(h, w2), b2)
    return T.add(x, T.dropout(h, p, train, rng))


def primitive_head(x, ln_g, ln_b, tok_emb):
    """The tied output head composed from primitive kernels only."""
    return T.matmul(T.layer_norm(x, ln_g, ln_b), T.transpose(tok_emb, (1, 0)))


# kind -> (fused kernel, reference chain, whether it takes p, train, rng)
KINDS = {"embed": (T.embed, primitive_embed, True),
         "attention": (T.attention, primitive_attention, True),
         "ffn": (T.ffn, primitive_ffn, True),
         "head": (T.head, primitive_head, False)}


# (rows, positions, d_model, heads, ffn_mult): one ac4 row shard, and the
# sweep's 1-layer base model; their vocabularies
SHAPES = {"ac4": (16, 64, 64, 2, 4), "sweep": (8, 32, 32, 2, 2)}
VOCAB = {"ac4": 512, "sweep": 384}


def _inputs(kind, rows, seq, d, heads, mult, seed, vocab=16):
    """The kernel's tensor inputs and the arguments that follow them (the
    head count, or the id grid for embed, which takes it after the tables)."""
    rng = np.random.default_rng(seed)

    def t(*shape, scale=1.0):
        return T.Tensor(rng.normal(0.0, scale, size=shape))

    if kind == "embed":
        # a table longer than the sequence, and ids that repeat
        ids = rng.integers(0, min(vocab, rows * seq // 2), size=(rows, seq))
        return [t(vocab, d), t(seq + 3, d)], (ids,)
    x = t(rows, seq, d)
    ln = [T.Tensor(1.0 + rng.normal(0.0, 0.1, size=d)),
          t(d, scale=0.1)]
    if kind == "attention":
        return [x, *ln] + [t(d, d, scale=0.2) for _ in range(4)], (heads,)
    if kind == "head":
        return [x, *ln, t(vocab, d, scale=0.2)], ()
    f = mult * d
    return [x, *ln, t(d, f, scale=0.2), t(f, scale=0.1), t(f, d, scale=0.2),
            t(d, scale=0.1)], ()


def _call(kind, kernel, inputs, extra, p, train, rng):
    if KINDS[kind][2]:
        return kernel(*inputs, *extra, p, train, rng)
    return kernel(*inputs, *extra)


def _run(kind, kernel, inputs, extra, p, train, seed):
    """Output, every input's gradient, the gradient a second consumer of the
    output received, and the rng's end state."""
    rng = np.random.default_rng(seed)
    with T.Tape() as tape:
        out = _call(kind, kernel, inputs, extra, p, train, rng)
        probe = T.Tensor(np.random.default_rng(1).choice([-1.0, 1.0],
                                                         size=out.shape))
        # `other` shares the output's incoming gradient array, so a kernel
        # that wrote into it in place would change other's returned gradient
        other = T.Tensor(np.zeros(out.shape))
        grads = T.backward(T.sum_all(T.mul(T.add(out, other), probe)), tape)
    return out.data, [grads[t] for t in [*inputs, other]], rng.bit_generator.state


def _assert_bit_identical(kind, inputs, extra, p, train):
    fused, reference, _ = KINDS[kind]
    with np.errstate(all="ignore"):
        got_out, got_grads, got_state = _run(kind, fused, inputs, extra, p,
                                             train, 11)
        want_out, want_grads, want_state = _run(kind, reference, inputs, extra,
                                                p, train, 11)
    np.testing.assert_array_equal(got_out, want_out)
    assert len(got_grads) == len(want_grads)
    for got, want in zip(got_grads, want_grads):
        np.testing.assert_array_equal(got, want)
    assert got_state == want_state


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("kind", ["embed", "attention", "ffn", "head"])
@pytest.mark.parametrize("train, p", [(False, 0.3), (True, 0.3)])
def test_fused_kernel_is_bit_identical_to_primitive_chain(kind, shape, train, p):
    inputs, extra = _inputs(kind, *SHAPES[shape], seed=7, vocab=VOCAB[shape])
    _assert_bit_identical(kind, inputs, extra, p, train)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_head_on_a_column_major_table_is_bit_identical(shape):
    # generate decodes from a column-major copy of the tied table, whose
    # transpose the head multiplies by without copying it
    inputs, extra = _inputs("head", *SHAPES[shape], seed=7, vocab=VOCAB[shape])
    inputs[3] = T.Tensor(np.asfortranarray(inputs[3].data))
    assert inputs[3].data.flags.f_contiguous
    _assert_bit_identical("head", inputs, extra, 0.0, False)


def test_fused_kernels_record_one_tape_entry():
    for kind, (kernel, _, _) in KINDS.items():
        inputs, extra = _inputs(kind, 2, 5, 8, 2, 2, seed=0)
        with T.Tape() as tape:
            _call(kind, kernel, inputs, extra, 0.3, True, np.random.default_rng(0))
        assert len(tape) == 1


@pytest.mark.parametrize("kind", ["attention", "ffn"])
def test_fused_kernel_rejects_mismatched_shapes(kind):
    # a layer-norm gain, then the first weight
    for i, shape in ((1, (4,)), (3, (4, 8))):
        inputs, extra = _inputs(kind, 2, 3, 8, 2, 2, seed=0)
        inputs[i] = T.Tensor(np.zeros(shape))
        with pytest.raises(ShapeError):
            (T.attention if kind == "attention" else T.ffn)(
                *inputs, *extra, 0.0, False, None)


def test_fused_kernel_train_dropout_needs_rng():
    inputs, extra = _inputs("ffn", 2, 3, 8, 2, 2, seed=0)
    with pytest.raises(ContractError):
        T.ffn(*inputs, *extra, 0.3, True, None)
