"""Dense fp64 tensors with reverse-mode automatic differentiation.

Minimal engine with exactly the operator set the networks need: elementwise
arithmetic, matmul/dense, relu, dropout, 2D/3D cross-correlation with an
optional per-channel bias, 2x2 spatial max pooling, reductions, and the
categorical-distribution ops used by the policy heads. Forward, kernel
gradient and input gradient of every convolution run through one
correlation routine: im2col over all spatial axes but the first
(Chellapilla et al., 2006), then one BLAS GEMM per first-axis kernel offset
on a slice of those columns. Inside the routine a chunk of samples is laid
out (C, E0, E1, ..., N), batch innermost as in cuda-convnet's CHWN layout
(Krizhevsky et al., 2012): each contiguous run the gather copies is then
out_last * N values long instead of out_last, which cut the gather's time
by 30% to 90% on the `vsop3d` net's layers at minibatch 32 (one BLAS
thread). At batch 1 the layout is the batch-major one. The input gradient is the correlation of the
zero-dilated upstream gradient with the flipped, channel-swapped kernel;
the kernel gradient gathers the columns again instead of retaining them,
trading a little compute for a lot of memory. A conv given a bias adds it
in place to its fresh output, so the tape holds no pre-bias output; the
bias gradient is the upstream gradient summed over batch and space.

Max pooling takes the elementwise max of the four strided corner views of
the 2x2 windows. Backward sends each window's gradient to the first
corner, in the order (0,0), (0,1), (1,0), (1,1), whose value equals the
max. That is `argmax`'s tie rule; ties are common, since a flat background
gives equal conv outputs. A taped pool keeps that corner's index per
window as uint8, not its input or output. Dropout keeps its mask as bools.

Every convolution pass runs over chunks of samples whose columns fit
`COLUMN_BUDGET`, so the live column memory is max(budget, one sample)
whatever the batch. A batch that fits is one chunk. The kernel gradient is
summed over chunks. The budget is set for memory, not speed: on a `vsop3d`
training step at minibatch 32, budgets from 1 MiB up to the whole batch
timed alike, and 4 MiB is small beside the tape.

The columns are gathered into one module-level buffer that only grows, so
no call pays page faults on fresh column memory. Rule: columns are read
only by the GEMMs of the chunk that gathered them, and nothing on the tape
holds a view of the buffer; the kernel gradient gathers its columns again
rather than keeping them.

The tape keeps only what backward reads. A taped op output's graph node
(`_Node`) holds its gradient, parent nodes, closure and shape, but not its
array; a leaf is its own node. Each closure captures exactly the arrays
its gradient formula reads: a conv its input and kernel, dense its input
and weight, relu/clip/minimum/maximum/dropout bool masks, the pool its
corner index, add/sub/reshape/mean_axis/tsum/tmean shapes only. No
closure holds a tensor, and a parent that needs no gradient is kept as
None, so an activation that no backward reads dies with its last name,
by refcount. The small outputs of exp and softmax_entropy are
kept as arrays, since their gradients read them. `_make` alone decides,
for every op, whether its output is taped. A closure never returns an
array it keeps: what it returns belongs to the walk.

`backward` frees the tape as it walks it: a node's gradient is dropped
before its closure's gradients are handed on, and its parents and closure
with it, so interior gradients and saved arrays die as soon as they are
used. A parent with no gradient yet adopts a fresh returned array (one
that is no view, of its shape, and not handed to another parent of the
same op, as `add` hands one array to both) instead of adding it into
zeros; `+= 0.0` first gives the same bytes, -0.0 as 0.0. Walking a graph
a second time raises. Under `no_grad()` no op keeps a node or closure,
and the pool computes only the max, for forwards whose outputs are only
read (acting, evaluation).

Everything is float64. Leaf gradients accumulate additively across
backward calls, matching the usual autograd convention.
"""

from __future__ import annotations

import contextlib
import math
from typing import Optional, Sequence

import numpy as np

from .rng import Rng

__all__ = [
    "Tensor",
    "ShapeError",
    "add", "sub", "mul", "matmul", "dense", "relu", "exp", "square",
    "clip", "minimum", "maximum", "tsum", "tmean", "mean_axis", "reshape",
    "conv2d", "conv3d", "maxpool2x2", "dropout",
    "categorical_logprob", "softmax_entropy", "softmax_probs",
    "sample_categorical", "backward", "no_grad",
]

# Most bytes of im2col columns one chunk of a correlation gathers, unless
# one sample needs more (see the module docstring for why 4 MiB).
COLUMN_BUDGET = 4 * 2**20


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible with an operation."""


class Tensor:
    """A dense float64 array, optionally tracked for reverse-mode autodiff.

    A leaf (or any tensor no op taped) is its own graph node: `grad`,
    `_parents` and `_backward_fn` are its own slots. A taped op output is a
    `_Output`, whose node is a separate `_Node` that the tape keeps.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backward_fn = None

    @property
    def _node(self):
        """This tensor's graph node: itself, unless a `_Output` says otherwise."""
        return self

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        self.grad = None

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def backward(self) -> None:
        backward(self)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def __neg__(self):
        return mul(self, Tensor(np.asarray(-1.0)))


class _Node:
    """What the tape keeps of a taped op output: everything but its array."""

    __slots__ = ("grad", "_parents", "_backward_fn", "shape")

    def __init__(self, parents: tuple, backward_fn, shape: tuple):
        self.grad: Optional[np.ndarray] = None
        self._parents = parents
        self._backward_fn = backward_fn
        self.shape = shape


def _node_field(name: str) -> property:
    return property(lambda t: getattr(t._node, name),
                    lambda t, value: setattr(t._node, name, value))


class _Output(Tensor):
    """A taped op output. Its tape fields read and write its `_Node`; the
    tape holds only the node, so dropping the tensor frees its array unless
    a consumer's closure captured that array."""

    __slots__ = ("_node",)
    grad = _node_field("grad")
    _parents = _node_field("_parents")
    _backward_fn = _node_field("_backward_fn")

    def __init__(self, data: np.ndarray, parents: tuple, backward_fn):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.requires_grad = True
        self._node = _Node(parents, backward_fn, self.data.shape)


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Record no tape inside the block: outputs keep no parents or closure."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def _taped(*parents: Tensor) -> bool:
    """Whether an op on `parents` records a tape entry."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def _make(data: np.ndarray, parents: Sequence[Tensor], backward_fn) -> Tensor:
    """An op's output: a plain Tensor when nothing needs a gradient, else a
    taped one. backward_fn(g) returns one gradient per parent; a parent that
    needs none is kept as None, so the tape does not hold it."""
    if not _taped(*parents):
        return Tensor(data)
    return _Output(data, tuple(p._node if p.requires_grad else None for p in parents),
                   backward_fn)


def _accumulate(node, g: np.ndarray) -> None:
    if node.grad is None:
        node.grad = np.zeros(node.shape)
    node.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to `shape`, undoing numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


_CONSUMED = object()  # the closure slot of a node a backward has walked


def backward(loss: Tensor) -> None:
    """Reverse accumulation from a scalar loss into every tracked parent.

    The walk frees the tape: each interior node's gradient, parents and
    closure go as soon as it has passed its gradient on. A parent with no
    gradient yet adopts a returned array that is fresh (`base` is None),
    of its shape and not returned for another parent of the same call;
    any other gradient is added into the parent's. A node that a previous
    backward consumed makes this raise before any gradient moves.
    """
    if loss.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    root = loss._node
    # Iterative topological sort; graphs can be deep for long loss chains.
    topo: list = []
    visited: set[int] = set()
    stack: list[tuple[object, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        if node._backward_fn is _CONSUMED:
            raise RuntimeError("backward through a graph a previous backward consumed")
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p is not None and id(p) not in visited:
                stack.append((p, False))
    _accumulate(root, np.ones(root.shape))
    while topo:
        node = topo.pop()  # popped, so the list stops holding walked nodes
        fn, parents, g = node._backward_fn, node._parents, node.grad
        if fn is None:
            continue  # a leaf keeps its accumulated gradient
        node.grad, node._parents, node._backward_fn = None, (), _CONSUMED
        if g is None:
            continue
        grads = fn(g)
        del g, fn  # the node's gradient dies here unless a parent adopts it
        for i, (p, gp) in enumerate(zip(parents, grads)):
            if p is None:
                continue
            if (p.grad is None and gp.base is None and gp.shape == p.shape
                    and not any(gp is other for j, other in enumerate(grads) if j != i)):
                gp += 0.0  # the bytes of np.zeros + gp: -0.0 becomes 0.0
                p.grad = gp  # a fresh array nothing else holds: adopt it
            else:
                _accumulate(p, gp)


# ---------------------------------------------------------------------------
# elementwise / linear algebra
# ---------------------------------------------------------------------------
#
# Each op hands `_make` its output and a closure over exactly what its
# gradient reads; `_make` tapes the output only in grad mode with a parent
# that requires a gradient, else drops the closure. Only `clip` and
# `maxpool2x2` check `_taped` first: their masks are computed from the
# input array, which the closure must not keep, so untaped they skip them.

def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data
    sa, sb = a.shape, b.shape
    return _make(out, (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data
    sa, sb = a.shape, b.shape
    return _make(out, (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(-g, sb)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data
    ad, bd = a.data, b.data
    return _make(out, (a, b), lambda g: (_unbroadcast(g * bd, ad.shape),
                                         _unbroadcast(g * ad, bd.shape)))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shapes incompatible: {a.shape} @ {b.shape}")
    out = a.data @ b.data
    ad, bd = a.data, b.data
    return _make(out, (a, b), lambda g: (g @ bd.T, ad.T @ g))


def dense(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map x @ weight + bias for x: (N, F), weight: (F, G), bias: (G,)."""
    if x.data.ndim != 2 or weight.data.ndim != 2 or x.shape[1] != weight.shape[0]:
        raise ShapeError(f"dense shapes incompatible: {x.shape} @ {weight.shape}")
    if bias.shape != (weight.shape[1],):
        raise ShapeError(f"dense bias shape {bias.shape} != ({weight.shape[1]},)")
    out = x.data @ weight.data + bias.data
    xd, wd = x.data, weight.data
    return _make(out, (x, weight, bias), lambda g: (g @ wd.T, xd.T @ g, g.sum(axis=0)))


def relu(x: Tensor) -> Tensor:
    # Subgradient at 0 is 0 by convention.
    mask = x.data > 0.0
    out = np.where(mask, x.data, 0.0)
    return _make(out, (x,), lambda g: (g * mask,))


def exp(x: Tensor) -> Tensor:
    out = np.exp(x.data)
    return _make(out, (x,), lambda g: (g * out,))  # the output array, not the tensor


def square(x: Tensor) -> Tensor:
    out = x.data * x.data
    xd = x.data
    return _make(out, (x,), lambda g: (g * 2.0 * xd,))


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    out = np.clip(x.data, lo, hi)
    if not _taped(x):  # the mask must be built now, or the closure keeps the input
        return Tensor(out)
    inside = (x.data > lo) & (x.data < hi)
    return _make(out, (x,), lambda g: (g * inside,))


def _select(a: Tensor, b: Tensor, out: np.ndarray, take_a: np.ndarray) -> Tensor:
    """An elementwise choice between a and b; the gradient goes to a where
    the bool mask `take_a` holds, else to b."""
    sa, sb = a.shape, b.shape
    return _make(out, (a, b), lambda g: (_unbroadcast(g * take_a, sa),
                                         _unbroadcast(g * ~take_a, sb)))


def minimum(a: Tensor, b: Tensor) -> Tensor:
    # Ties route to the first operand.
    return _select(a, b, np.minimum(a.data, b.data), a.data <= b.data)


def maximum(a: Tensor, b: Tensor) -> Tensor:
    return _select(a, b, np.maximum(a.data, b.data), a.data >= b.data)


def tsum(x: Tensor) -> Tensor:
    out = np.asarray(x.data.sum())
    shape = x.shape
    return _make(out, (x,), lambda g: (np.full(shape, float(np.sum(g))),))


def tmean(x: Tensor) -> Tensor:
    out = np.asarray(x.data.mean())
    shape, n = x.shape, x.size
    return _make(out, (x,), lambda g: (np.full(shape, float(np.sum(g)) / n),))


def mean_axis(x: Tensor, axis: int) -> Tensor:
    out = x.data.mean(axis=axis)
    n = x.shape[axis]
    return _make(out, (x,), lambda g: (np.repeat(np.expand_dims(g / n, axis), n, axis=axis),))


def reshape(x: Tensor, shape: tuple) -> Tensor:
    out = x.data.reshape(shape)
    in_shape = x.shape
    return _make(out, (x,), lambda g: (g.reshape(in_shape),))


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

class ConvSpec:
    """Geometry of a cross-correlation: kernel extents, strides, paddings."""

    def __init__(self, kernel, stride, padding, in_channels: int, out_channels: int):
        self.kernel = tuple(int(k) for k in kernel)
        self.stride = tuple(int(s) for s in stride)
        self.padding = tuple(int(p) for p in padding)
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        if len(self.kernel) != len(self.stride) or len(self.kernel) != len(self.padding):
            raise ShapeError("kernel/stride/padding must have equal rank")
        if any(k < 1 for k in self.kernel) or any(s < 1 for s in self.stride):
            raise ShapeError("kernel extents and strides must be positive")
        if any(p < 0 for p in self.padding):
            raise ShapeError("padding must be non-negative")
        if self.in_channels < 1 or self.out_channels < 1:
            raise ShapeError("channel counts must be positive")

    def out_extent(self, in_extents: Sequence[int]) -> tuple:
        out = []
        for n, k, s, p in zip(in_extents, self.kernel, self.stride, self.padding):
            e = (n + 2 * p - k) // s + 1
            if e < 1 or n + 2 * p < k:
                raise ShapeError(
                    f"kernel {self.kernel} does not fit input extents {tuple(in_extents)} "
                    f"with padding {self.padding}")
            out.append(e)
        return tuple(out)


def _embed(a: np.ndarray, extents: tuple, lo: tuple, step: tuple) -> np.ndarray:
    """Zero buffer (C, E0, E1, ..., N) holding `a` (N, C, *spatial), batch innermost.

    Along spatial axis i, a[..., y, ...] lands at lo[i] + y * step[i] of a
    buffer of extent extents[i]; entries that land outside are dropped, so a
    negative `lo` crops. Forward passes pad with it (lo = padding, step 1),
    the input gradient zero-dilates with it (step = stride).
    """
    n, c = a.shape[:2]
    buf = np.zeros((c,) + tuple(extents) + (n,))
    src, dst = [], []
    for size, e, first_pos, s in zip(a.shape[2:], extents, lo, step):
        first = max(0, -(first_pos // s))
        stop = min(size, (e - 1 - first_pos) // s + 1)
        if first >= stop:
            return buf  # nothing lands: every entry is cropped away
        src.append(slice(first, stop))
        dst.append(slice(first_pos + first * s, first_pos + (stop - 1) * s + 1, s))
    every = (slice(None),)
    buf[every + tuple(dst) + every] = \
        a.transpose(tuple(range(1, a.ndim)) + (0,))[every + tuple(src) + every]
    return buf


def _chunks(n: int, channels: int, kshape: tuple, stride: tuple, out_shape: tuple) -> list:
    """Slices of a batch of n whose `_columns` fit COLUMN_BUDGET, one sample at least."""
    used0 = stride[0] * (out_shape[0] - 1) + kshape[0]
    per_sample = 8 * channels * math.prod(kshape[1:]) * used0 * math.prod(out_shape[1:])
    step = max(1, COLUMN_BUDGET // per_sample)
    return [slice(a, min(a + step, n)) for a in range(0, n, step)]


# The one column buffer; it only grows (see the no-aliasing rule in the
# module docstring).
_column_buffer = np.empty(0)


def _columns(src: np.ndarray, kshape: tuple, stride: tuple, out_shape: tuple) -> list:
    """The k0 column matrices of a correlation over channel-major `src`.

    src is (C, E0, E1, ..., N), already padded. Every spatial axis but the
    first is lowered im2col-style into one gather of layout
    (C*k1*..., E0, out1*...*N); the first axis keeps its full extent, so the
    matrix for first-axis kernel offset i is a slice of those columns,
    (C*k1*..., out0*out1*...*N), not another copy (a copy only when the
    first-axis stride exceeds 1). A 3x3x3 kernel at depth 8 and padding 1
    thus copies each input value 9 * 10 / 8 ~ 11 times instead of 27.
    With the batch innermost, each contiguous run the gather copies is
    out_last * N values long, not out_last as with the batch between the
    spatial axes. The gather lands in the shared column buffer, so the
    matrices are valid only until the next call.
    """
    global _column_buffer
    c, n = src.shape[0], src.shape[-1]
    k0, s0, out0 = kshape[0], stride[0], out_shape[0]
    used0 = s0 * (out0 - 1) + k0
    tail = src.strides[2:-1]
    # A strided view built directly; `as_strided` costs several times more per call.
    view = np.ndarray((c,) + kshape[1:] + (used0,) + out_shape[1:] + (n,), np.float64, src,
                      0, (src.strides[0],) + tail + (src.strides[1],)
                      + tuple(st * s for st, s in zip(tail, stride[1:])) + (src.strides[-1],))
    if _column_buffer.size < view.size:
        _column_buffer = np.empty(view.size)
    cols = _column_buffer[:view.size].reshape(view.shape)
    np.copyto(cols, view)
    cols = cols.reshape(c * math.prod(kshape[1:]), used0, -1)
    return [cols[:, i:i + s0 * (out0 - 1) + 1:s0].reshape(cols.shape[0], -1)
            for i in range(k0)]


def _correlate(a: np.ndarray, place: tuple, kernel: np.ndarray, stride: tuple,
               out_shape: tuple) -> np.ndarray:
    """Cross-correlation of batch-major `a` (N, C, ...) with kernel (O, C, *k).

    Runs over the chunks of `_chunks`: each chunk is laid out by
    `_embed(chunk, *place)`, and every first-axis kernel offset adds one
    GEMM on a slice of the chunk's columns. Returns (N, O, *out_shape).
    """
    n = a.shape[0]
    o, c, k0 = kernel.shape[:3]
    kshape = kernel.shape[2:]
    w = kernel.transpose((2, 0, 1) + tuple(range(3, kernel.ndim))).reshape(k0, o, -1)
    out = np.empty((n, o) + out_shape)
    for sl in _chunks(n, c, kshape, stride, out_shape):
        slabs = _columns(_embed(a[sl], *place), kshape, stride, out_shape)
        acc = w[0] @ slabs[0]
        term = np.empty_like(acc)
        for wi, slab in zip(w[1:], slabs[1:]):
            acc += np.matmul(wi, slab, out=term)
        out[sl] = _batch_major(acc.reshape((o,) + out_shape + (-1,)))
    return out


def _batch_major(a: np.ndarray) -> np.ndarray:
    """(C, S0, S1, ..., N) -> a (N, C, S0, S1, ...) view."""
    return a.transpose((a.ndim - 1,) + tuple(range(a.ndim - 1)))


def _convnd(x: Tensor, kernel: Tensor, spec: ConvSpec, ndim: int,
            bias: Optional[Tensor]) -> Tensor:
    if x.data.ndim != ndim + 2:
        raise ShapeError(f"conv{ndim}d input must be {ndim + 2}-D, got shape {x.shape}")
    if kernel.data.ndim != ndim + 2:
        raise ShapeError(f"conv{ndim}d kernel must be {ndim + 2}-D, got shape {kernel.shape}")
    n, c_in = x.shape[:2]
    o, c_k = kernel.shape[:2]
    kshape = kernel.shape[2:]
    if c_in != spec.in_channels or c_k != spec.in_channels:
        raise ShapeError(
            f"channel mismatch: input has {c_in}, kernel has {c_k}, spec expects {spec.in_channels}")
    if o != spec.out_channels or kshape != spec.kernel:
        raise ShapeError(f"kernel shape {kernel.shape} does not match spec")
    if bias is not None and bias.shape != (o,):
        raise ShapeError(f"conv{ndim}d bias shape {bias.shape} != ({o},)")
    in_shape = x.shape[2:]
    out_shape = spec.out_extent(in_shape)
    ones = (1,) * ndim
    pad = (tuple(e + 2 * p for e, p in zip(in_shape, spec.padding)), spec.padding, ones)

    out_data = _correlate(x.data, pad, kernel.data, spec.stride, out_shape)
    if bias is not None:
        out_data += bias.data.reshape((o,) + ones)
    parents = (x, kernel) if bias is None else (x, kernel, bias)
    xd, kd, has_bias = x.data, kernel.data, bias is not None
    need_x, need_k = x.requires_grad, kernel.requires_grad

    def bw(g):
        dx = dw = db = None
        if has_bias:
            db = g.sum(axis=(0,) + tuple(range(2, ndim + 2)))
        if need_k:
            # dW for first-axis offset i: g against the column slice for i,
            # summed over the forward's chunks. The columns are gathered
            # again; keeping them would dominate memory.
            for sl in _chunks(n, c_in, kshape, spec.stride, out_shape):
                g_mat = g[sl].transpose(tuple(range(1, g.ndim)) + (0,)).reshape(o, -1)
                slabs = _columns(_embed(xd[sl], *pad), kshape, spec.stride, out_shape)
                # slab @ g.T runs faster in BLAS than g @ slab.T for these shapes.
                part = np.stack([slab @ g_mat.T for slab in slabs])  # (k0, C*k1*..., O)
                dw = part if dw is None else dw + part
            dw = dw.reshape((kshape[0], c_in) + kshape[1:] + (o,))
            dw = dw.transpose((ndim + 1, 1, 0) + tuple(range(2, ndim + 1)))
        if need_x:
            # dX is the stride-1 correlation of g, zero-dilated by the stride
            # and padded by k-1-p (negative crops), with the kernel flipped
            # and its channel axes swapped (Dumoulin & Visin, 2016).
            dilate = (tuple(e + k - 1 for e, k in zip(in_shape, kshape)),
                      tuple(k - 1 - p for k, p in zip(kshape, spec.padding)), spec.stride)
            flipped = kd[(slice(None), slice(None)) + (slice(None, None, -1),) * ndim]
            dx = _correlate(g, dilate, flipped.swapaxes(0, 1), ones, in_shape)
        return dx, dw, db

    return _make(out_data, parents, bw)


def conv2d(x: Tensor, kernel: Tensor, spec: ConvSpec,
           bias: Optional[Tensor] = None) -> Tensor:
    """2D cross-correlation plus an optional per-channel bias.

    x: (N,C,H,W), kernel: (O,C,kh,kw), bias: (O,).
    """
    return _convnd(x, kernel, spec, 2, bias)


def conv3d(x: Tensor, kernel: Tensor, spec: ConvSpec,
           bias: Optional[Tensor] = None) -> Tensor:
    """3D cross-correlation plus an optional per-channel bias.

    x: (N,C,D,H,W), kernel: (O,C,kd,kh,kw), bias: (O,).
    """
    return _convnd(x, kernel, spec, 3, bias)


# The four corners of every 2x2 window as strided views, in tie order.
_CORNERS = [(Ellipsis, slice(i, None, 2), slice(j, None, 2)) for i in (0, 1) for j in (0, 1)]


def maxpool2x2(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2 over the last two (spatial) axes.

    The output is the elementwise max of the four strided corner views.
    Each window's gradient goes to its first corner, in the order (0,0),
    (0,1), (1,0), (1,1), whose value equals the max: `argmax`'s tie rule.
    A taped pool keeps only that corner's index, as uint8.
    """
    h, w = x.shape[-2], x.shape[-1]
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2x2 needs even spatial extents, got {h}x{w}")
    views = [x.data[c] for c in _CORNERS]
    out_data = np.maximum(views[0], views[1])
    np.maximum(out_data, views[2], out=out_data)
    np.maximum(out_data, views[3], out=out_data)
    if not _taped(x):  # the index must be built now, or the closure keeps the input
        return Tensor(out_data)
    first = np.full(out_data.shape, 3, dtype=np.uint8)
    for k in (2, 1, 0):  # later writes win, so the first maximal corner does
        np.copyto(first, k, where=views[k] == out_data)
    in_shape = x.shape

    def bw(g):
        gx = np.zeros(in_shape)
        for k, corner in enumerate(_CORNERS):
            np.copyto(gx[corner], g, where=first == k)
        return (gx,)

    return _make(out_data, (x,), bw)


# ---------------------------------------------------------------------------
# dropout and categorical-distribution ops
# ---------------------------------------------------------------------------

def dropout(x: Tensor, rate: float, rng: Optional[Rng]) -> Tensor:
    """Inverted dropout: survivors are scaled by 1/(1-rate)."""
    if not (0.0 <= rate < 1.0):
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rng is None:
        raise ValueError("dropout requires an rng")
    scale = 1.0 / (1.0 - rate)
    keep = rng.random(x.shape) >= rate  # bool: an eighth of a float mask on the tape
    out = x.data * keep * scale
    return _make(out, (x,), lambda g: (g * keep * scale,))


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def softmax_probs(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis of a 2-D array."""
    return np.exp(_log_softmax(logits))


def categorical_logprob(logits: Tensor, actions: np.ndarray) -> Tensor:
    """Per-row log-probability of the given action indices. logits: (N, A)."""
    if logits.data.ndim != 2:
        raise ShapeError(f"logits must be (N, A), got {logits.shape}")
    n = logits.shape[0]
    actions = np.asarray(actions, dtype=np.int64)
    ls = _log_softmax(logits.data)
    out = ls[np.arange(n), actions]

    def bw(g):
        gl = -np.exp(ls) * g[:, None]
        gl[np.arange(n), actions] += g
        return (gl,)
    return _make(out, (logits,), bw)


def softmax_entropy(logits: Tensor) -> Tensor:
    """Per-row entropy of the softmax distribution. logits: (N, A)."""
    if logits.data.ndim != 2:
        raise ShapeError(f"logits must be (N, A), got {logits.shape}")
    ls = _log_softmax(logits.data)
    probs = np.exp(ls)
    ent = -(probs * ls).sum(axis=1)
    # dH/dz_j = -p_j (log p_j + H)
    return _make(ent, (logits,), lambda g: (-probs * (ls + ent[:, None]) * g[:, None],))


def sample_categorical(logits: Tensor, rng: Rng):
    """Sample actions from softmax(logits) rowwise.

    Returns (actions int array, logprob Tensor); the logprob is
    differentiable w.r.t. the logits.
    """
    if not np.all(np.isfinite(logits.data)):
        raise ValueError("non-finite logits")
    probs = softmax_probs(logits.data)
    u = rng.random(probs.shape[0])
    cdf = probs.cumsum(axis=1)
    actions = (cdf < u[:, None]).sum(axis=1)
    actions = np.minimum(actions, probs.shape[1] - 1)
    return actions, categorical_logprob(logits, actions)
