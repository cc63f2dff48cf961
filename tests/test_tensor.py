import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deskrl import tensor as T
from deskrl.rng import Rng
from deskrl.tensor import ShapeError, Tensor

from conftest import central_diff_grad, loop_conv, loop_maxpool, rel_err


# -- elementwise and linear algebra ----------------------------------------

def test_add_mul_values_and_grads():
    a = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    b = Tensor(np.array([4.0, 5.0, -6.0]), requires_grad=True)
    out = T.tsum(T.mul(T.add(a, b), b))  # sum((a+b)*b)
    out.backward()
    assert out.item() == (1 + 4) * 4 + (-2 + 5) * 5 + (3 - 6) * -6
    np.testing.assert_allclose(a.grad, b.data)            # d/da = b
    np.testing.assert_allclose(b.grad, a.data + 2 * b.data)  # d/db = a + 2b


def test_broadcast_gradient_is_summed_down():
    a = Tensor(np.ones((3, 4)), requires_grad=True)
    b = Tensor(np.ones(4), requires_grad=True)
    T.tsum(T.add(a, b)).backward()
    np.testing.assert_array_equal(a.grad, np.ones((3, 4)))
    np.testing.assert_array_equal(b.grad, np.full(4, 3.0))  # summed over rows


def test_dense_identity_passthrough():
    x = np.arange(6.0).reshape(2, 3)
    out = T.dense(Tensor(x), Tensor(np.eye(3)), Tensor(np.zeros(3)))
    np.testing.assert_array_equal(out.data, x)


def test_dense_hand_computed():
    x = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    w = Tensor(np.array([[3.0, 4.0], [5.0, 6.0]]), requires_grad=True)
    b = Tensor(np.array([0.5, -0.5]), requires_grad=True)
    out = T.dense(x, w, b)
    np.testing.assert_array_equal(out.data, [[1 * 3 + 2 * 5 + 0.5, 1 * 4 + 2 * 6 - 0.5]])
    T.tsum(out).backward()
    np.testing.assert_array_equal(x.grad, [[3 + 4, 5 + 6]])
    np.testing.assert_array_equal(w.grad, [[1, 1], [2, 2]])
    np.testing.assert_array_equal(b.grad, [1, 1])


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_relu_values_and_zero_subgradient():
    x = Tensor(np.array([-1.0, 0.0, 2.0]), requires_grad=True)
    out = T.relu(x)
    np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])
    T.tsum(out).backward()
    np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])  # subgradient at 0 is 0


def test_mean_grad_is_one_over_n():
    x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    T.tmean(x).backward()
    np.testing.assert_allclose(x.grad, np.full((3, 4), 1.0 / 12.0))


def test_mean_axis_matches_numpy():
    x = Tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
    out = T.mean_axis(x, 1)
    np.testing.assert_allclose(out.data, x.data.mean(axis=1))
    T.tsum(out).backward()
    np.testing.assert_allclose(x.grad, np.full((2, 3, 4), 1.0 / 3.0))


def test_clip_min_max_values():
    x = np.array([-2.0, 0.5, 3.0])
    np.testing.assert_array_equal(T.clip(Tensor(x), -1.0, 1.0).data, [-1.0, 0.5, 1.0])
    np.testing.assert_array_equal(
        T.minimum(Tensor(x), Tensor(np.zeros(3))).data, [-2.0, 0.0, 0.0])
    np.testing.assert_array_equal(
        T.maximum(Tensor(x), Tensor(np.zeros(3))).data, [0.0, 0.5, 3.0])


def test_gradients_accumulate_across_backward_calls():
    x = Tensor(np.array([2.0]), requires_grad=True)
    T.tsum(T.square(x)).backward()
    np.testing.assert_allclose(x.grad, [4.0])
    T.tsum(T.square(x)).backward()
    np.testing.assert_allclose(x.grad, [8.0])


def test_backward_frees_the_tape_and_a_second_walk_raises():
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    h = T.square(x)
    r = T.relu(h)
    loss = T.tsum(r)
    loss.backward()
    for node in (h, r, loss):
        assert node.grad is None and node._parents == ()
    np.testing.assert_allclose(x.grad, [2.0, -4.0])
    with pytest.raises(RuntimeError, match="consumed"):
        loss.backward()
    with pytest.raises(RuntimeError, match="consumed"):
        T.tsum(T.mul(h, x)).backward()  # a new graph through a consumed node
    np.testing.assert_allclose(x.grad, [2.0, -4.0])  # no leaf moved


def test_the_tape_keeps_no_activation_its_backward_does_not_read():
    # relu, add, dropout and the pool keep masks, shapes or an index, so the
    # conv outputs, the sum and the pool input die with their names; gc is
    # off, so refcounting alone must free them.
    spec = T.ConvSpec((3, 3, 3), (1, 1, 1), (1, 1, 1), 2, 2)
    rng = Rng(5)
    x = Tensor(rng.normal(size=(2, 2, 3, 4, 4)))
    kernels = [rng.normal(size=(2, 2, 3, 3, 3)) for _ in range(2)]

    def build():
        k0, k1 = (Tensor(k, requires_grad=True) for k in kernels)
        c0 = T.conv3d(x, k0, spec)
        c1 = T.conv3d(T.relu(c0), k1, spec)
        s = T.add(x, c1)
        d = T.dropout(s, 0.25, Rng(6))
        return T.tsum(T.square(T.maxpool2x2(d))), (k0, k1), [c0, c1, s, d]

    held_loss, held_kernels, held = build()
    held_loss.backward()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        loss, free_kernels, dropped = build()
        refs = [weakref.ref(t.data) for t in dropped]
        del dropped
        assert [r() is None for r in refs] == [True] * 4
        loss.backward()
    finally:
        if gc_was_enabled:
            gc.enable()
    for k, ref in zip(free_kernels, held_kernels):
        assert k.grad.tobytes() == ref.grad.tobytes()


def test_no_grad_records_no_tape_and_restores_on_raise():
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    with T.no_grad():
        with pytest.raises(KeyError):
            with T.no_grad():
                raise KeyError("inner")
        y = T.relu(x)  # the outer block is still tape-free
    assert not y.requires_grad and y._parents == () and y._backward_fn is None
    with pytest.raises(KeyError):
        with T.no_grad():
            raise KeyError("outer")
    z = T.relu(x)
    assert z.requires_grad and z._parents == (x,)


_CONV2 = T.ConvSpec((3, 3), (1, 1), (1, 1), 2, 3)
_CONV3 = T.ConvSpec((2, 3, 3), (1, 1, 1), (0, 1, 1), 2, 3)
# Every differentiable op: (call on its tensor operands, operand shapes).
_TAPING_CASES = {
    "add": (T.add, [(2, 3), (3,)]),
    "sub": (T.sub, [(2, 3), (2, 3)]),
    "mul": (T.mul, [(2, 3), (2, 3)]),
    "matmul": (T.matmul, [(2, 3), (3, 4)]),
    "dense": (T.dense, [(2, 3), (3, 4), (4,)]),
    "relu": (T.relu, [(2, 3)]),
    "exp": (T.exp, [(2, 3)]),
    "square": (T.square, [(2, 3)]),
    "clip": (lambda x: T.clip(x, -0.5, 0.5), [(2, 3)]),
    "minimum": (T.minimum, [(2, 3), (2, 3)]),
    "maximum": (T.maximum, [(2, 3), (2, 3)]),
    "tsum": (T.tsum, [(2, 3)]),
    "tmean": (T.tmean, [(2, 3)]),
    "mean_axis": (lambda x: T.mean_axis(x, 1), [(2, 3)]),
    "reshape": (lambda x: T.reshape(x, (3, 2)), [(2, 3)]),
    "conv2d": (lambda x, k: T.conv2d(x, k, _CONV2), [(1, 2, 4, 4), (3, 2, 3, 3)]),
    "conv2d_bias": (lambda x, k, b: T.conv2d(x, k, _CONV2, b),
                    [(1, 2, 4, 4), (3, 2, 3, 3), (3,)]),
    "conv3d": (lambda x, k: T.conv3d(x, k, _CONV3), [(1, 2, 2, 4, 4), (3, 2, 2, 3, 3)]),
    "conv3d_bias": (lambda x, k, b: T.conv3d(x, k, _CONV3, b),
                    [(1, 2, 2, 4, 4), (3, 2, 2, 3, 3), (3,)]),
    "maxpool2x2": (T.maxpool2x2, [(1, 2, 4, 4)]),
    "dropout": (lambda x: T.dropout(x, 0.25, Rng(0)), [(2, 3)]),
    "categorical_logprob": (lambda z: T.categorical_logprob(z, np.array([0, 2])), [(2, 3)]),
    "softmax_entropy": (T.softmax_entropy, [(2, 3)]),
    "sample_categorical": (lambda z: T.sample_categorical(z, Rng(0))[1], [(2, 3)]),
}


_NOT_OPS = {"Tensor", "ShapeError", "softmax_probs", "backward", "no_grad"}


# Drawn from __all__, so an op added without a case fails here.
@pytest.mark.parametrize("name", sorted(set(T.__all__) - _NOT_OPS) + ["conv2d_bias",
                                                                     "conv3d_bias"])
def test_an_op_is_taped_only_when_a_parent_needs_a_gradient(name):
    op, shapes = _TAPING_CASES[name]
    rng = Rng(1)
    arrays = [rng.normal(size=s) for s in shapes]

    def call(needs_grad):
        operands = [Tensor(a, requires_grad=r) for a, r in zip(arrays, needs_grad)]
        return op(*operands), operands

    def untaped(out):
        return type(out) is Tensor and out._backward_fn is None and out._parents == ()

    with T.no_grad():
        assert untaped(call([True] * len(arrays))[0])
    assert untaped(call([False] * len(arrays))[0])
    for i in range(len(arrays)):
        out, operands = call([j == i for j in range(len(arrays))])
        assert out.requires_grad and out._backward_fn is not None
        assert out._parents == tuple(p if j == i else None for j, p in enumerate(operands))


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ShapeError):
        T.relu(x).backward()


def test_shared_node_gradient_sums_both_paths():
    x = Tensor(np.array([3.0]), requires_grad=True)
    y = T.add(T.square(x), T.mul(x, x))  # x^2 + x*x = 2x^2
    T.tsum(y).backward()
    np.testing.assert_allclose(x.grad, [12.0])  # d/dx 2x^2 = 4x


def test_a_residual_adds_parents_get_distinct_gradient_arrays():
    # add hands one array to both parents; neither may adopt it.
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    h = T.relu(T.square(x))
    T.tsum(T.mul(T.add(h, x), Tensor(np.array([1.0, 2.0, 3.0])))).backward()
    np.testing.assert_array_equal(x.grad, [3.0, -6.0, 21.0])  # g * (2x + 1)
    a, b = Tensor(np.ones((2, 3)), requires_grad=True), Tensor(np.ones((2, 3)), requires_grad=True)
    T.tsum(T.add(a, b)).backward()
    assert not np.shares_memory(a.grad, b.grad)
    a.grad *= 0.5
    np.testing.assert_array_equal(b.grad, np.ones((2, 3)))


def test_scaling_one_gradient_leaves_every_other_unchanged():
    # clip_grad_norm scales each gradient in place; an adopted gradient
    # must be owned by its leaf alone.
    r = np.random.default_rng(3)
    spec = T.ConvSpec((3, 3), (1, 1), (1, 1), 2, 3)
    leaves = [Tensor(r.normal(size=s), requires_grad=True)
              for s in [(4, 2, 6, 6), (3, 2, 3, 3), (3,), (27, 5), (5,)]]
    x, k, kb, w, wb = leaves
    c = T.conv2d(x, k, spec, kb)
    h = T.maxpool2x2(T.relu(T.add(c, c)))
    y = T.dense(T.reshape(h, (4, 27)), w, wb)
    T.tsum(T.mul(T.add(y, T.exp(y)), Tensor(r.normal(size=(4, 5))))).backward()
    for i, leaf in enumerate(leaves):
        before = [t.grad.copy() for t in leaves]
        leaf.grad *= 0.5
        for j, t in enumerate(leaves):
            if j != i:
                assert t.grad.tobytes() == before[j].tobytes()


# -- convolution ------------------------------------------------------------

def test_conv2d_identity_kernel():
    x = Rng(0).normal(size=(2, 3, 8, 8))
    k = np.zeros((3, 3, 3, 3))
    for c in range(3):
        k[c, c, 1, 1] = 1.0
    spec = T.ConvSpec((3, 3), (1, 1), (1, 1), 3, 3)
    out = T.conv2d(Tensor(x), Tensor(k), spec)
    np.testing.assert_allclose(out.data, x, atol=1e-15)


def test_conv2d_matches_loop_oracle_random_cases(rng):
    for _ in range(10):
        stride = tuple(int(rng.integers(1, 3)) for _ in range(2))
        pad = tuple(int(rng.integers(0, 3)) for _ in range(2))
        ksh = tuple(int(rng.integers(1, 5)) for _ in range(2))
        insh = tuple(int(rng.integers(k, 10)) for k in ksh)
        c, o = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        x = rng.normal(size=(2, c) + insh)
        k = rng.normal(size=(o, c) + ksh)
        got = T.conv2d(Tensor(x), Tensor(k), T.ConvSpec(ksh, stride, pad, c, o))
        np.testing.assert_allclose(got.data, loop_conv(x, k, stride, pad), atol=1e-12)


def test_conv3d_matches_loop_oracle_random_cases(rng):
    for _ in range(5):
        stride = tuple(int(rng.integers(1, 3)) for _ in range(3))
        pad = tuple(int(rng.integers(0, 2)) for _ in range(3))
        ksh = tuple(int(rng.integers(1, 4)) for _ in range(3))
        insh = tuple(int(rng.integers(k, 7)) for k in ksh)
        c, o = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        x = rng.normal(size=(2, c) + insh)
        k = rng.normal(size=(o, c) + ksh)
        got = T.conv3d(Tensor(x), Tensor(k), T.ConvSpec(ksh, stride, pad, c, o))
        np.testing.assert_allclose(got.data, loop_conv(x, k, stride, pad), atol=1e-12)


def test_conv3d_depth1_equals_conv2d(rng):
    x = rng.normal(size=(3, 2, 1, 6, 6))
    k = rng.normal(size=(4, 2, 1, 3, 3))
    y3 = T.conv3d(Tensor(x), Tensor(k), T.ConvSpec((1, 3, 3), (1, 1, 1), (0, 1, 1), 2, 4))
    y2 = T.conv2d(Tensor(x[:, :, 0]), Tensor(k[:, :, 0]),
                  T.ConvSpec((3, 3), (1, 1), (1, 1), 2, 4))
    np.testing.assert_allclose(y3.data[:, :, 0], y2.data, atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       a=st.floats(-3, 3, allow_nan=False),
       b=st.floats(-3, 3, allow_nan=False))
def test_conv2d_is_linear_in_input(seed, a, b):
    r = Rng(seed)
    x1 = r.normal(size=(1, 2, 5, 5))
    x2 = r.normal(size=(1, 2, 5, 5))
    k = r.normal(size=(3, 2, 3, 3))
    spec = T.ConvSpec((3, 3), (1, 1), (1, 1), 2, 3)
    combined = T.conv2d(Tensor(a * x1 + b * x2), Tensor(k), spec).data
    separate = (a * T.conv2d(Tensor(x1), Tensor(k), spec).data
                + b * T.conv2d(Tensor(x2), Tensor(k), spec).data)
    np.testing.assert_allclose(combined, separate, atol=1e-10)


def test_conv2d_gradients_match_finite_differences(rng):
    x = rng.normal(size=(2, 2, 5, 6))
    k = rng.normal(size=(3, 2, 3, 3))
    spec = T.ConvSpec((3, 3), (2, 1), (1, 0), 2, 3)

    xt, kt = Tensor(x.copy(), requires_grad=True), Tensor(k.copy(), requires_grad=True)
    T.tsum(T.square(T.conv2d(xt, kt, spec))).backward()

    def loss_x(xv):
        return float((loop_conv(xv, k, (2, 1), (1, 0)) ** 2).sum())

    def loss_k(kv):
        return float((loop_conv(x, kv, (2, 1), (1, 0)) ** 2).sum())

    assert rel_err(xt.grad, central_diff_grad(loss_x, x.copy())) < 1e-6
    assert rel_err(kt.grad, central_diff_grad(loss_k, k.copy())) < 1e-6


def _random_conv_case(seed):
    r = np.random.default_rng(seed)
    nd = 2 + seed % 2
    ksh = tuple(int(v) for v in r.integers(1, 4, size=nd))
    stride = tuple(int(v) for v in r.integers(1, 4, size=nd))
    pad = tuple(int(v) for v in r.integers(0, 3, size=nd))
    insh = tuple(int(r.integers(max(1, k - 2 * p), 8)) for k, p in zip(ksh, pad))
    return ksh, stride, pad, insh


CONV_GRAD_CASES = [
    # (kernel, stride, padding, input extents); remainders of
    # (extent + 2 * padding - kernel) by stride are uneven in most cases
    ((3, 3), (1, 1), (1, 1), (5, 6)),
    ((3, 2), (2, 3), (0, 1), (8, 7)),
    ((1, 2), (3, 1), (2, 2), (4, 5)),      # padding >= kernel extent
    ((4, 3), (3, 2), (2, 0), (9, 6)),
    ((3, 3, 3), (1, 1, 1), (1, 1, 1), (4, 5, 5)),
    ((3, 3, 3), (2, 1, 1), (1, 0, 1), (5, 6, 5)),
    ((2, 1, 3), (1, 3, 2), (2, 2, 0), (4, 7, 6)),  # padding >= kernel extent
    ((1, 3, 2), (3, 2, 3), (0, 2, 1), (7, 5, 6)),
] + [_random_conv_case(seed) for seed in range(8)]


@pytest.mark.parametrize("ksh,stride,pad,insh", CONV_GRAD_CASES)
def test_conv_gradients_satisfy_adjoint_identity(ksh, stride, pad, insh):
    r = np.random.default_rng(sum(ksh + stride + pad + insh))
    c, o = int(r.integers(1, 4)), int(r.integers(1, 4))
    _check_adjoint(r, r.normal(size=(2, c) + insh), r.normal(size=(o, c) + ksh), stride, pad)


def _check_adjoint(r, x, k, stride, pad, bias=None):
    # conv is bilinear, so for any probes x', W' and upstream g:
    # <conv(x', W), g> = <x', dX> and <conv(x, W'), g> = <W', dW>. A bias
    # b adds b broadcast over batch and space, so <b', db> = <b' bcast, g>.
    o, c = k.shape[:2]
    ksh = k.shape[2:]
    op = T.conv2d if len(ksh) == 2 else T.conv3d
    xt, kt = Tensor(x, requires_grad=True), Tensor(k, requires_grad=True)
    spec = T.ConvSpec(ksh, stride, pad, c, o)
    bt = None if bias is None else Tensor(bias, requires_grad=True)
    y = op(xt, kt, spec, bt)
    g = r.normal(size=y.shape)
    T.tsum(T.mul(y, Tensor(g))).backward()
    x_probe, k_probe = r.normal(size=x.shape), r.normal(size=k.shape)
    lhs_x = np.vdot(loop_conv(x_probe, k, stride, pad), g)
    lhs_k = np.vdot(loop_conv(x, k_probe, stride, pad), g)
    assert rel_err(lhs_x, np.vdot(x_probe, xt.grad)) <= 1e-10
    assert rel_err(lhs_k, np.vdot(k_probe, kt.grad)) <= 1e-10
    if bt is not None:
        b_probe = r.normal(size=bias.shape)
        lhs_b = np.vdot(np.broadcast_to(b_probe.reshape((o,) + (1,) * len(ksh)), g.shape), g)
        assert rel_err(lhs_b, np.vdot(b_probe, bt.grad)) <= 1e-10


@pytest.mark.parametrize("ksh,stride,pad,insh", [CONV_GRAD_CASES[1], CONV_GRAD_CASES[5]])
def test_biased_conv_gradients_satisfy_adjoint_identity(ksh, stride, pad, insh):
    r = np.random.default_rng(sum(ksh + stride + pad + insh) + 1)
    c, o = int(r.integers(1, 4)), int(r.integers(2, 4))
    _check_adjoint(r, r.normal(size=(2, c) + insh), r.normal(size=(o, c) + ksh),
                   stride, pad, bias=r.normal(size=o))


@pytest.mark.parametrize("nd", [2, 3])
def test_conv_bias_is_added_to_the_bias_free_conv(nd):
    r = np.random.default_rng(nd)
    n, c, o = 3, 2, 4
    ksh, insh = (3,) * nd, (5,) * (nd - 1) + (6,)
    x, k, b = r.normal(size=(n, c) + insh), r.normal(size=(o, c) + ksh), r.normal(size=o)
    op = T.conv2d if nd == 2 else T.conv3d
    spec = T.ConvSpec(ksh, (1,) * nd, (1,) * nd, c, o)
    plain = op(Tensor(x), Tensor(k), spec)  # the three-argument call
    bt = Tensor(b, requires_grad=True)
    y = op(Tensor(x), Tensor(k), spec, bt)
    np.testing.assert_array_equal(y.data, plain.data + b.reshape((o,) + (1,) * nd))
    g = r.normal(size=y.shape)
    T.tsum(T.mul(y, Tensor(g))).backward()
    np.testing.assert_array_equal(bt.grad, g.sum(axis=(0,) + tuple(range(2, nd + 2))))
    with pytest.raises(ShapeError, match="bias"):
        op(Tensor(x), Tensor(k), spec, Tensor(np.zeros(o + 1)))


# (N, C, O, kernel, stride, padding, input extents), each over several
# chunks of columns: one sample's columns exceed the budget; chunks of two
# samples with an uneven last chunk; a first-axis stride of 2.
MULTI_CHUNK_CASES = [
    (3, 10, 2, (3, 5, 5), (1, 1, 1), (1, 2, 2), (3, 24, 24)),
    (5, 16, 2, (5, 7), (1, 1), (2, 3), (32, 48)),
    (3, 6, 2, (3, 3, 3), (2, 1, 1), (1, 1, 1), (8, 24, 24)),
    # Every spatial extent differs, so an axis swapped in the batch-last
    # columns or accumulator cannot go unseen.
    (10, 16, 2, (3, 3, 5), (1, 2, 2), (1, 1, 2), (6, 10, 14)),
    (12, 32, 3, (3, 5), (1, 2), (1, 2), (20, 34)),
]


def _column_chunks(n, c, ksh, stride, pad, insh):
    """How many chunks of COLUMN_BUDGET bytes of columns a forward takes."""
    out = [(e + 2 * p - k) // s + 1 for e, k, s, p in zip(insh, ksh, stride, pad)]
    used0 = stride[0] * (out[0] - 1) + ksh[0]
    per_sample = 8 * c * math.prod(ksh[1:]) * used0 * math.prod(out[1:])
    return math.ceil(n / max(1, T.COLUMN_BUDGET // per_sample))


@pytest.mark.parametrize("n,c,o,ksh,stride,pad,insh", MULTI_CHUNK_CASES)
def test_multi_chunk_conv_matches_loop_oracle_and_adjoint(n, c, o, ksh, stride, pad, insh):
    assert _column_chunks(n, c, ksh, stride, pad, insh) > 1
    r = np.random.default_rng(n + c + o)
    x, k = r.normal(size=(n, c) + insh), r.normal(size=(o, c) + ksh)
    op = T.conv2d if len(ksh) == 2 else T.conv3d
    got = op(Tensor(x), Tensor(k), T.ConvSpec(ksh, stride, pad, c, o))
    np.testing.assert_allclose(got.data, loop_conv(x, k, stride, pad), atol=1e-12)
    _check_adjoint(r, x, k, stride, pad)


def test_conv_memory_is_bounded_by_the_column_budget():
    # The whole batch's columns are more than 10 budgets; a forward and
    # backward may hold only a few budgets beyond its own outputs.
    n, c, o, ksh, pad, insh = 64, 4, 2, (3, 5, 5), (1, 2, 2), (2, 16, 16)
    stride = (1, 1, 1)
    whole = 8 * c * math.prod(ksh[1:]) * (insh[0] + 2) * math.prod(insh[1:]) * n
    assert whole >= 10 * T.COLUMN_BUDGET
    r = np.random.default_rng(0)
    x = Tensor(r.normal(size=(n, c) + insh), requires_grad=True)
    k = Tensor(r.normal(size=(o, c) + ksh), requires_grad=True)
    g = Tensor(r.normal(size=(n, o) + insh))
    tracemalloc.start()
    try:
        y = T.conv3d(x, k, T.ConvSpec(ksh, stride, pad, c, o))
        T.tsum(T.mul(y, g)).backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - (y.data.nbytes + x.grad.nbytes + k.grad.nbytes) <= 3 * T.COLUMN_BUDGET


def test_conv_spec_validation():
    with pytest.raises(ShapeError):
        T.ConvSpec((3, 3), (1,), (1, 1), 2, 3)  # rank mismatch
    with pytest.raises(ShapeError):
        T.ConvSpec((0, 3), (1, 1), (1, 1), 2, 3)  # bad kernel
    with pytest.raises(ShapeError):
        T.ConvSpec((3, 3), (1, 1), (-1, 0), 2, 3)  # negative padding
    spec = T.ConvSpec((5, 5), (1, 1), (0, 0), 1, 1)
    with pytest.raises(ShapeError):
        spec.out_extent((4, 8))  # kernel larger than input


def test_conv_channel_mismatch_raises(rng):
    spec = T.ConvSpec((3, 3), (1, 1), (1, 1), 4, 2)
    with pytest.raises(ShapeError):
        T.conv2d(Tensor(rng.normal(size=(1, 3, 8, 8))),
                 Tensor(rng.normal(size=(2, 4, 3, 3))), spec)


# -- pooling ----------------------------------------------------------------

def test_maxpool_hand_example():
    x = Tensor(np.array([[[[1.0, 2, 5, 6],
                           [3, 4, 7, 8],
                           [9, 10, 13, 14],
                           [11, 12, 15, 16]]]]), requires_grad=True)
    out = T.maxpool2x2(x)
    np.testing.assert_array_equal(out.data, [[[[4.0, 8.0], [12.0, 16.0]]]])
    T.tsum(out).backward()
    expected = np.zeros((1, 1, 4, 4))
    expected[0, 0, 1, 1] = expected[0, 0, 1, 3] = 1.0
    expected[0, 0, 3, 1] = expected[0, 0, 3, 3] = 1.0
    np.testing.assert_array_equal(x.grad, expected)


def _tied_pool_input(shape, seed):
    """Small integers, so most windows tie, plus two hand-set tied windows."""
    x = np.random.default_rng(seed).integers(0, 3, size=shape).astype(float)
    first = (0,) * (len(shape) - 2)
    x[first + (slice(0, 2), slice(0, 2))] = 5.0                 # all four equal
    x[first + (slice(0, 2), slice(2, 4))] = [[1.0, 7.0], [0.0, 7.0]]  # (0,1) and (1,1)
    return x


@pytest.mark.parametrize("shape", [(2, 3, 6, 8), (2, 2, 3, 4, 6)])
def test_maxpool_ties_route_to_the_first_maximal_entry(shape):
    x = _tied_pool_input(shape, len(shape))
    xt = Tensor(x, requires_grad=True)
    out = T.maxpool2x2(xt)
    g = np.random.default_rng(1).normal(size=out.shape)
    T.tsum(T.mul(out, Tensor(g))).backward()
    ref_out, ref_dx = loop_maxpool(x, g)
    np.testing.assert_array_equal(out.data, ref_out)
    np.testing.assert_array_equal(xt.grad, ref_dx)
    lead = (0,) * (len(shape) - 2)
    assert xt.grad[lead + (0, 0)] == g[lead + (0, 0)]
    assert xt.grad[lead + (0, 3)] == g[lead + (0, 1)]
    assert xt.grad[lead + (1, 3)] == 0.0


def test_maxpool_odd_extent_raises():
    with pytest.raises(ShapeError):
        T.maxpool2x2(Tensor(np.zeros((1, 1, 5, 4))))


def test_maxpool_3d_input_pools_spatially_only(rng):
    x = rng.normal(size=(2, 3, 4, 6, 8))
    out = T.maxpool2x2(Tensor(x))
    assert out.shape == (2, 3, 4, 3, 4)
    ref = x.reshape(2, 3, 4, 3, 2, 4, 2).max(axis=(4, 6))
    np.testing.assert_array_equal(out.data, ref)


# -- dropout ----------------------------------------------------------------

def test_dropout_eval_and_zero_rate_are_identity(rng):
    x = Tensor(rng.normal(size=(5, 7)))
    np.testing.assert_array_equal(T.dropout(x, 0.0, rng).data, x.data)


def test_dropout_preserves_mean_within_binomial_bound():
    # survivors scaled by 1/(1-rate): E[out] = x. SE of the mean of n masked
    # ones is sqrt(rate/(1-rate))/sqrt(n); require agreement within 4 SE.
    rate, n = 0.3, 200_000
    x = Tensor(np.ones(n))
    out = T.dropout(x, rate, Rng(99))
    se = math.sqrt(rate / (1.0 - rate) / n)
    assert abs(out.data.mean() - 1.0) < 4 * se


def test_dropout_backward_uses_same_mask():
    x = Tensor(np.ones(1000), requires_grad=True)
    out = T.dropout(x, 0.5, Rng(7))
    T.tsum(out).backward()
    np.testing.assert_array_equal(x.grad, out.data)  # mask * 1 either way


def test_dropout_equals_the_float_mask_product_byte_for_byte():
    # Negative inputs give signed zeros where units drop; output and
    # gradient must match the products with a float mask exactly.
    rate, shape = 0.3, (6, 50)
    x = Tensor(np.random.default_rng(0).normal(size=shape), requires_grad=True)
    g = np.random.default_rng(1).normal(size=shape)
    out = T.dropout(x, rate, Rng(7))
    T.tsum(T.mul(out, Tensor(g))).backward()
    mask = (Rng(7).random(shape) >= rate) * (1.0 / (1.0 - rate))
    assert out.data.tobytes() == (x.data * mask).tobytes()
    assert x.grad.tobytes() == (np.zeros(shape) + g * mask).tobytes()


def test_dropout_validation():
    x = Tensor(np.ones(3))
    with pytest.raises(ValueError):
        T.dropout(x, 1.0, Rng(0))
    with pytest.raises(ValueError):
        T.dropout(x, -0.1, Rng(0))
    with pytest.raises(ValueError):
        T.dropout(x, 0.5, None)


# -- categorical ops --------------------------------------------------------

def test_categorical_logprob_matches_direct_softmax():
    logits = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
    actions = np.array([2, 1])
    lp = T.categorical_logprob(Tensor(logits), actions)
    z0 = math.exp(1) + math.exp(2) + math.exp(3)
    np.testing.assert_allclose(
        lp.data, [math.log(math.exp(3) / z0), math.log(1.0 / 3.0)], atol=1e-12)


def test_entropy_uniform_and_peaked():
    ent = T.softmax_entropy(Tensor(np.zeros((1, 5))))
    np.testing.assert_allclose(ent.data, [math.log(5)], atol=1e-12)
    peaked = T.softmax_entropy(Tensor(np.array([[100.0, 0.0, 0.0]])))
    assert peaked.data[0] < 1e-10


def test_softmax_probs_sum_to_one(rng):
    p = T.softmax_probs(rng.normal(size=(10, 6)) * 10)
    np.testing.assert_allclose(p.sum(axis=1), np.ones(10), atol=1e-12)
    assert np.all(p >= 0)


def test_softmax_is_shift_invariant(rng):
    logits = rng.normal(size=(4, 5))
    np.testing.assert_allclose(T.softmax_probs(logits),
                               T.softmax_probs(logits + 1000.0), atol=1e-12)


def test_sample_categorical_frequencies_match_probs():
    logits = np.log(np.array([[0.1, 0.2, 0.7]]))
    r = Rng(42)
    counts = np.zeros(3)
    n = 20_000
    for _ in range(200):
        acts, _ = T.sample_categorical(Tensor(np.repeat(logits, 100, 0)), r)
        counts += np.bincount(acts, minlength=3)
    freq = counts / n
    # 4-sigma binomial bound per category
    for p, f in zip([0.1, 0.2, 0.7], freq):
        assert abs(f - p) < 4 * math.sqrt(p * (1 - p) / n)


def test_sample_categorical_deterministic_and_validates():
    logits = Tensor(Rng(1).normal(size=(6, 4)))
    a1, _ = T.sample_categorical(logits, Rng(5).split("s"))
    a2, _ = T.sample_categorical(logits, Rng(5).split("s"))
    np.testing.assert_array_equal(a1, a2)
    with pytest.raises(ValueError):
        T.sample_categorical(Tensor(np.array([[np.nan, 0.0]])), Rng(0))
