"""Tensor engine tests: pinned small cases plus finite-difference checks."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import check_op_grads, fd_grad, max_rel_err
from occlm import tensor as T
from occlm.errors import (
    ContractError,
    NumericsError,
    ShapeError,
    TokenIndexError,
)

SEEDS = list(range(10))


def randt(rng, *shape):
    return T.Tensor(rng.standard_normal(shape), requires_grad=True)


# ---------------------------------------------------------------- forward


def test_matmul_identity():
    a = T.Tensor(np.eye(3))
    b = T.Tensor(np.arange(9, dtype=np.float32).reshape(3, 3))
    out = T.matmul(a, b)
    np.testing.assert_array_equal(out.data, b.data)


def test_matmul_pinned():
    a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = T.Tensor([[1.0], [1.0]])
    out = T.matmul(a, b)
    np.testing.assert_array_equal(out.data, [[3.0], [7.0]])


def test_matmul_shape_error_names_shapes():
    a = T.Tensor(np.zeros((2, 3)))
    b = T.Tensor(np.zeros((4, 2)))
    with pytest.raises(ShapeError) as exc:
        T.matmul(a, b)
    assert "(2, 3)" in str(exc.value) and "(4, 2)" in str(exc.value)


def test_softmax_uniform():
    out = T.softmax_lastdim(T.Tensor([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, [1 / 3] * 3, rtol=1e-6)


def test_softmax_large_logit_stable():
    out = T.softmax_lastdim(T.Tensor([1000.0, 0.0]))
    np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-30)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    out = T.softmax_lastdim(T.Tensor(rng.standard_normal((4, 5, 6))))
    np.testing.assert_allclose(out.data.sum(axis=-1), np.ones((4, 5)), rtol=1e-5)


def test_cross_entropy_uniform_logits():
    logits = T.Tensor(np.zeros((2, 3, 7)))
    targets = np.zeros((2, 3), dtype=np.int64)
    loss = T.cross_entropy(logits, targets)
    np.testing.assert_allclose(loss.data, np.log(7.0), rtol=1e-6)


def test_cross_entropy_rejects_bad_target():
    logits = T.Tensor(np.zeros((1, 2, 5)))
    with pytest.raises(TokenIndexError):
        T.cross_entropy(logits, np.array([[0, 5]]))


def test_layer_norm_zero_mean_unit_var():
    rng = np.random.default_rng(3)
    x = T.Tensor(rng.standard_normal((4, 8)) * 5 + 2)
    g = T.Tensor(np.ones(8))
    b = T.Tensor(np.zeros(8))
    out = T.layer_norm(x, g, b)
    np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-5)
    np.testing.assert_allclose(out.data.var(axis=-1), 1.0, atol=1e-3)


def test_gelu_pinned_points():
    out = T.gelu(T.Tensor([0.0, 100.0, -100.0]))
    np.testing.assert_allclose(out.data, [0.0, 100.0, 0.0], atol=1e-5)


def test_causal_mask_upper_triangle_filled():
    x = T.Tensor(np.zeros((2, 4, 4)))
    out = T.causal_mask_fill(x)
    for i in range(4):
        for j in range(4):
            expect = 0.0 if j <= i else -1e9
            assert out.data[0, i, j] == expect


def test_causal_mask_is_cached_and_read_only():
    T.causal_mask_fill(T.Tensor(np.zeros((1, 5, 5))))
    allowed = T._causal_allowed(5)
    assert allowed is T._causal_allowed(5)
    with pytest.raises(ValueError):
        allowed[0, 1] = True


def test_transpose_returns_a_view():
    x = T.Tensor(np.arange(24.0).reshape(2, 3, 4))
    out = T.transpose(x, (2, 0, 1))
    assert np.shares_memory(out.data, x.data)
    np.testing.assert_array_equal(out.data, np.transpose(x.data, (2, 0, 1)))


def test_matmul_of_a_view_is_bit_identical_to_its_copy():
    # OpenBLAS sums a transposed operand in another order at some sizes
    # (here the batch-1 decoding head); matmul must not depend on the view
    rng = np.random.default_rng(0)
    w = T.Tensor(rng.standard_normal((512, 64)) * 0.02, requires_grad=True)
    # the view's gradient reaches only its leaf w, so w.grad is compared
    # with the transposed gradient of the copy (itself a leaf)
    for s in (1, 2, 10, 21):
        x = T.Tensor(rng.standard_normal((1, s, 64)), requires_grad=True)
        grads = []
        for view in (True, False):
            with T.Tape() as tape:
                b = (T.transpose(w, (1, 0)) if view
                     else T.Tensor(w.data.T.copy(), requires_grad=True))
                out = T.matmul(x, b)
                T.backward(T.sum_all(T.mul(out, out)), tape)
            grads.append((out.data, x.grad, w.grad if view else b.grad.T))
            x.grad = w.grad = None
        for got, want in zip(*grads):
            np.testing.assert_array_equal(got, want)


def test_causal_mask_requires_square():
    with pytest.raises(ShapeError):
        T.causal_mask_fill(T.Tensor(np.zeros((2, 3, 4))))


def test_embedding_lookup_gathers_rows():
    table = T.Tensor(np.arange(12, dtype=np.float32).reshape(4, 3))
    out = T.embedding_lookup(table, np.array([[3, 0], [1, 1]]))
    np.testing.assert_array_equal(out.data[0, 0], table.data[3])
    np.testing.assert_array_equal(out.data[1, 1], table.data[1])


def test_embedding_lookup_rejects_out_of_range():
    table = T.Tensor(np.zeros((4, 3)))
    with pytest.raises(TokenIndexError):
        T.embedding_lookup(table, np.array([4]))
    with pytest.raises(TokenIndexError):
        T.embedding_lookup(table, np.array([-1]))


def test_outputs_are_float32():
    rng = np.random.default_rng(1)
    x = T.Tensor(rng.standard_normal((3, 3)))
    for out in (T.add(x, x), T.matmul(x, x), T.gelu(x), T.softmax_lastdim(x)):
        assert out.data.dtype == np.float32


def test_nan_rejected_at_construction():
    with pytest.raises(NumericsError):
        T.Tensor([1.0, np.nan, 2.0])
    with pytest.raises(NumericsError):
        T.Tensor([np.inf])


def test_overflow_raises_numerics_error():
    """Called directly, outside an engine pass (model.forward, a training
    shard, backward), a kernel runs under numpy's default error state, so
    this add warns about the overflow before raising NumericsError."""
    x = T.Tensor(np.full((2,), 3e38))
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(NumericsError):
            T.add(x, x)


def test_layer_norm_variance_overflow_raises_numerics_error():
    """A row whose variance overflows would normalize to 0 and return the
    bias row; the kernel must raise instead."""
    x = T.Tensor([[1e20, -1e20, 3e19, 0.5]])
    gain, bias = T.Tensor(np.ones(4)), T.Tensor(np.full(4, 0.25))
    with np.errstate(over="ignore"):
        with pytest.raises(NumericsError, match="layer_norm"):
            T.layer_norm(x, gain, bias)


# --------------------------------------------------------------- backward


def test_backward_sum_gives_ones():
    x = T.Tensor(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)
    with T.Tape() as tape:
        loss = T.sum_all(x)
        T.backward(loss, tape)
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_sum_of_squares():
    x = T.Tensor([1.0, 2.0, 3.0], requires_grad=True)
    with T.Tape() as tape:
        loss = T.sum_all(T.mul(x, x))
        T.backward(loss, tape)
    np.testing.assert_array_equal(x.grad, [2.0, 4.0, 6.0])


def test_backward_requires_scalar():
    x = T.Tensor(np.ones(3), requires_grad=True)
    with T.Tape() as tape:
        y = T.add(x, x)
        with pytest.raises(ShapeError):
            T.backward(y, tape)


def test_backward_without_tape_raises():
    x = T.Tensor(np.ones(1), requires_grad=True)
    with pytest.raises(ContractError):
        T.backward(T.sum_all(x))


def test_grads_accumulate_across_backward_calls():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    for _ in range(2):
        with T.Tape() as tape:
            loss = T.sum_all(T.mul(x, x))
            T.backward(loss, tape)
    np.testing.assert_allclose(x.grad, [4.0, 8.0], rtol=1e-6)


def test_backward_uses_up_its_tape():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    with T.Tape() as tape:
        loss = T.sum_all(T.mul(x, x))
        T.backward(loss, tape)
        assert len(tape) == 0
        with pytest.raises(ContractError):
            T.backward(loss, tape)
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])


def test_backward_fills_only_leaves():
    x = T.Tensor([1.0, -2.0, 3.0], requires_grad=True)
    w = T.Tensor([0.5, 4.0, -1.0], requires_grad=True)
    with T.Tape() as tape:
        y = T.mul(x, w)
        z = T.add(y, x)
        loss = T.sum_all(T.mul(z, z))
        T.backward(loss, tape)
    assert y.grad is None and z.grad is None and loss.grad is None
    # dloss/dz = 2z, so x gets 2z (w + 1) and w gets 2z x
    zd = x.data * w.data + x.data
    np.testing.assert_array_equal(x.grad, 2 * zd * (w.data + 1))
    np.testing.assert_array_equal(w.grad, 2 * zd * x.data)


def test_backward_of_a_leaf_root_fills_it():
    x = T.Tensor(3.0, requires_grad=True)
    with T.Tape() as tape:
        T.backward(x, tape)
    assert x.grad == 1.0


def test_no_tape_records_nothing():
    x = T.Tensor(np.ones(3), requires_grad=True)
    y = T.add(x, x)
    assert y.data is not None
    with T.Tape() as tape:
        T.add(x, x)
    assert len(tape.entries) == 1


def test_tape_is_active_only_on_its_own_thread():
    x = T.Tensor(np.ones(3), requires_grad=True)
    seen = {}

    def other_thread():
        seen["tape"] = T.active_tape()
        T.add(x, x)  # must not land on the main thread's tape
        with T.Tape() as own:
            seen["own"] = T.active_tape() is own

    with T.Tape() as tape:
        worker = threading.Thread(target=other_thread)
        worker.start()
        worker.join()
        assert T.active_tape() is tape
    assert seen == {"tape": None, "own": True}
    assert len(tape) == 0
    assert T.active_tape() is None


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_matmul(seed):
    rng = np.random.default_rng(seed)
    a = randt(rng, 3, 4)
    b = randt(rng, 4, 2)
    check_op_grads(lambda a, b: T.matmul(a, b), [a, b], h=1e-3, seed=seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_matmul_batched_broadcast(seed):
    rng = np.random.default_rng(seed)
    a = randt(rng, 2, 3, 4)
    b = randt(rng, 4, 3)
    check_op_grads(lambda a, b: T.matmul(a, b), [a, b], h=1e-3, seed=seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_add_broadcast(seed):
    rng = np.random.default_rng(seed)
    a = randt(rng, 3, 4)
    b = randt(rng, 4)
    check_op_grads(lambda a, b: T.add(a, b), [a, b], h=1e-3, seed=seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_mul(seed):
    rng = np.random.default_rng(seed)
    a = randt(rng, 2, 5)
    b = randt(rng, 2, 5)
    check_op_grads(lambda a, b: T.mul(a, b), [a, b], h=1e-3, seed=seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_softmax(seed):
    rng = np.random.default_rng(seed)
    x = randt(rng, 3, 6)
    check_op_grads(lambda x: T.softmax_lastdim(x), [x], h=1e-2, seed=seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_layer_norm(seed):
    rng = np.random.default_rng(seed)
    x = randt(rng, 4, 6)
    g = randt(rng, 6)
    b = randt(rng, 6)
    check_op_grads(lambda x, g, b: T.layer_norm(x, g, b), [x, g, b], h=1e-2, seed=seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_gelu(seed):
    rng = np.random.default_rng(seed)
    x = randt(rng, 5, 5)
    check_op_grads(lambda x: T.gelu(x), [x], h=1e-2, seed=seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_transpose_reshape(seed):
    rng = np.random.default_rng(seed)
    x = randt(rng, 2, 3, 4)

    def op(x):
        return T.reshape(T.transpose(x, (0, 2, 1)), (4, 6))

    check_op_grads(op, [x], h=1e-3, seed=seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_embedding(seed):
    rng = np.random.default_rng(seed)
    table = randt(rng, 7, 4)
    ids = rng.integers(0, 7, size=(2, 3))
    check_op_grads(lambda t: T.embedding_lookup(t, ids), [table], h=1e-3, seed=seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_cross_entropy(seed):
    rng = np.random.default_rng(seed)
    logits = randt(rng, 2, 4, 9)
    targets = rng.integers(0, 9, size=(2, 4))
    ignore = rng.random((2, 4)) < 0.2
    ignore[0, 0] = False

    def f64_loss():
        return float(T.cross_entropy(logits, targets, ignore_mask=ignore).data)

    with T.Tape() as tape:
        loss = T.cross_entropy(logits, targets, ignore_mask=ignore)
        T.backward(loss, tape)
    num = fd_grad(f64_loss, [logits], h=1e-2)[0]
    assert max_rel_err(logits.grad, num, floor=0.5) <= 1e-3
    ignored_cols = np.where(ignore)
    assert np.all(logits.grad[ignored_cols] == 0.0)


def test_cross_entropy_matches_manual_logsumexp():
    rng = np.random.default_rng(11)
    raw = rng.standard_normal((3, 5, 8)).astype(np.float32)
    targets = rng.integers(0, 8, size=(3, 5))
    loss = T.cross_entropy(T.Tensor(raw), targets)
    x = raw.astype(np.float64)
    lse = np.log(np.exp(x - x.max(-1, keepdims=True)).sum(-1)) + x.max(-1)
    picked = np.take_along_axis(x, targets[..., None], axis=-1)[..., 0]
    np.testing.assert_allclose(float(loss.data), (lse - picked).mean(), rtol=1e-5)


# ---------------------------------------------------------------- dropout


def test_dropout_identity_in_eval():
    x = T.Tensor(np.ones((4, 4)))
    out = T.dropout(x, 0.5, train=False, rng=None)
    np.testing.assert_array_equal(out.data, x.data)


def test_dropout_zero_prob_identity():
    x = T.Tensor(np.ones((4, 4)))
    out = T.dropout(x, 0.0, train=True, rng=np.random.default_rng(0))
    np.testing.assert_array_equal(out.data, x.data)


def test_dropout_requires_rng_in_train():
    x = T.Tensor(np.ones(4))
    with pytest.raises(ContractError):
        T.dropout(x, 0.5, train=True, rng=None)


def test_dropout_rejects_bad_prob():
    x = T.Tensor(np.ones(4))
    for p in (-0.1, 1.0, 1.5):
        with pytest.raises(ContractError):
            T.dropout(x, p, train=True, rng=np.random.default_rng(0))


def test_dropout_kept_fraction_and_scale():
    n = 100_000
    p = 0.3
    x = T.Tensor(np.ones(n))
    out = T.dropout(x, p, train=True, rng=np.random.default_rng(42))
    kept = out.data != 0.0
    frac = kept.mean()
    sigma = np.sqrt(p * (1 - p) / n)
    assert abs(frac - (1 - p)) < 3 * sigma
    np.testing.assert_allclose(out.data[kept], 1.0 / (1 - p), rtol=1e-5)


def test_dropout_grad_masks_match_forward():
    rng = np.random.default_rng(7)
    x = T.Tensor(np.ones(64), requires_grad=True)
    with T.Tape() as tape:
        out = T.dropout(x, 0.5, train=True, rng=rng)
        T.backward(T.sum_all(out), tape)
    np.testing.assert_allclose(x.grad, (out.data != 0) * 2.0, rtol=1e-6)


@pytest.mark.parametrize("p", [0.1, 0.3, 0.5])
def test_dropout_bool_mask_equals_float_multiplier(p):
    # the float32 multiplier (rng.random(shape) >= p) * 1/(1-p), applied to
    # inputs and gradients of both signs: same values and same zero signs
    rng = np.random.default_rng(3)
    x = T.Tensor(rng.standard_normal((32, 64)), requires_grad=True)
    probe = T.Tensor(rng.standard_normal((32, 64)))
    with T.Tape() as tape:
        out = T.dropout(x, p, train=True, rng=np.random.default_rng(11))
        T.backward(T.sum_all(T.mul(out, probe)), tape)
    mult = (np.random.default_rng(11).random((32, 64)) >= p).astype(np.float32)
    mult *= np.float32(1.0 / (1.0 - p))
    for got, want in ((out.data, x.data * mult), (x.grad, probe.data * mult)):
        assert (got == 0).any() and (np.signbit(want) & (want == 0)).any()
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def test_sink_stages_a_matching_gradient_without_unbroadcast(monkeypatch):
    calls = []
    unbroadcast = T._unbroadcast

    def counting(grad, shape):
        calls.append(shape)
        return unbroadcast(grad, shape)

    monkeypatch.setattr(T, "_unbroadcast", counting)
    x = T.Tensor(np.ones((2, 3)), requires_grad=True)
    b = T.Tensor(np.ones(3), requires_grad=True)
    with T.Tape() as tape:
        T.backward(T.sum_all(T.mul(T.add(x, x), x)), tape)
    # sum_all's broadcast view has the root's shape; every other grad matches
    assert calls == []
    np.testing.assert_array_equal(x.grad, np.full((2, 3), 4.0))
    with T.Tape() as tape:
        T.backward(T.sum_all(T.add(x, b)), tape)
    assert calls == [(3,)]
    np.testing.assert_array_equal(b.grad, [2.0, 2.0, 2.0])


def test_an_entry_holds_handles_not_outputs():
    x = T.Tensor(np.ones((2, 3)), requires_grad=True)
    c = T.Tensor(np.ones((2, 3)))
    with T.Tape() as tape:
        y = T.add(x, c)
        z = T.mul(y, y)
    first, second = tape.entries
    assert first.output is y._handle and first.output.shape == (2, 3)
    assert first.inputs == (x, None)
    assert second.inputs == (y._handle, y._handle) and second.output is z._handle
    assert not isinstance(y._handle, T.Tensor)


# ------------------------------------------------------------- properties


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_softmax_invariant_to_shift(seed):
    # integer logits so the +100 shift is exact in float32
    rng = np.random.default_rng(seed)
    x = rng.integers(-5, 6, size=(2, 5)).astype(np.float32)
    a = T.softmax_lastdim(T.Tensor(x))
    b = T.softmax_lastdim(T.Tensor(x + 100.0))
    np.testing.assert_array_equal(a.data, b.data)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_same_seed_same_dropout(seed):
    x = T.Tensor(np.ones(256))
    a = T.dropout(x, 0.4, train=True, rng=np.random.default_rng(seed))
    b = T.dropout(x, 0.4, train=True, rng=np.random.default_rng(seed))
    np.testing.assert_array_equal(a.data, b.data)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_matmul_grad_property(seed):
    rng = np.random.default_rng(seed)
    m, k, n = rng.integers(1, 5, size=3)
    a = T.Tensor(rng.standard_normal((m, k)), requires_grad=True)
    b = T.Tensor(rng.standard_normal((k, n)), requires_grad=True)
    probe = rng.standard_normal((m, n)).astype(np.float32)
    with T.Tape() as tape:
        loss = T.sum_all(T.mul(T.matmul(a, b), T.Tensor(probe)))
        T.backward(loss, tape)
    np.testing.assert_allclose(
        a.grad, probe.astype(np.float64) @ b.data.T.astype(np.float64), rtol=1e-4, atol=1e-5
    )
    np.testing.assert_allclose(
        b.grad, a.data.T.astype(np.float64) @ probe.astype(np.float64), rtol=1e-4, atol=1e-5
    )
