"""Dense fp64 tensors with reverse-mode automatic differentiation.

Minimal engine with exactly the operator set the networks need: elementwise
arithmetic, matmul/dense, relu, dropout, 2D/3D cross-correlation, spatial
max pooling, reductions, and the categorical-distribution ops used by the
policy heads. Forward, kernel gradient and input gradient of every
convolution run through one correlation routine: im2col over all spatial
axes but the first (Chellapilla et al., 2006), then one BLAS GEMM per
first-axis kernel offset on a slice of those columns. The input gradient is
the correlation of the zero-dilated upstream gradient with the flipped,
channel-swapped kernel; the kernel gradient gathers the columns again
instead of retaining them, trading a little compute for a lot of memory.

Everything is float64. Gradients accumulate additively across backward
calls, matching the usual autograd convention.
"""

from __future__ import annotations

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
    "sample_categorical", "backward",
]


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible with an operation."""


class Tensor:
    """A dense float64 array, optionally tracked for reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backward_fn = None

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

    # Convenience arithmetic; constants are wrapped as untracked tensors.
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __neg__(self):
        return mul(self, Tensor(np.asarray(-1.0)))


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _make(data: np.ndarray, parents: Sequence[Tensor], backward_fn) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


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


def backward(loss: Tensor) -> None:
    """Reverse accumulation from a scalar loss into every tracked parent."""
    if loss.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    # Iterative topological sort; graphs can be deep for long loss chains.
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    _accumulate(loss, np.ones_like(loss.data))
    for node in reversed(topo):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)


# ---------------------------------------------------------------------------
# elementwise / linear algebra
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    def bw(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(g, b.shape))
    return _make(a.data + b.data, (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def bw(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(-g, b.shape))
    return _make(a.data - b.data, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def bw(g):
        _accumulate(a, _unbroadcast(g * b.data, a.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.shape))
    return _make(a.data * b.data, (a, b), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shapes incompatible: {a.shape} @ {b.shape}")

    def bw(g):
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)
    return _make(a.data @ b.data, (a, b), bw)


def dense(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map x @ weight + bias for x: (N, F), weight: (F, G), bias: (G,)."""
    if x.data.ndim != 2 or weight.data.ndim != 2 or x.shape[1] != weight.shape[0]:
        raise ShapeError(f"dense shapes incompatible: {x.shape} @ {weight.shape}")
    if bias.shape != (weight.shape[1],):
        raise ShapeError(f"dense bias shape {bias.shape} != ({weight.shape[1]},)")

    def bw(g):
        _accumulate(x, g @ weight.data.T)
        _accumulate(weight, x.data.T @ g)
        _accumulate(bias, g.sum(axis=0))
    return _make(x.data @ weight.data + bias.data, (x, weight, bias), bw)


def relu(x: Tensor) -> Tensor:
    # Subgradient at 0 is 0 by convention.
    mask = x.data > 0.0

    def bw(g):
        _accumulate(x, g * mask)
    return _make(np.where(mask, x.data, 0.0), (x,), bw)


def exp(x: Tensor) -> Tensor:
    out_data = np.exp(x.data)

    def bw(g):
        _accumulate(x, g * out_data)
    return _make(out_data, (x,), bw)


def square(x: Tensor) -> Tensor:
    def bw(g):
        _accumulate(x, g * 2.0 * x.data)
    return _make(x.data * x.data, (x,), bw)


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    inside = (x.data > lo) & (x.data < hi)

    def bw(g):
        _accumulate(x, g * inside)
    return _make(np.clip(x.data, lo, hi), (x,), bw)


def minimum(a: Tensor, b: Tensor) -> Tensor:
    take_a = a.data <= b.data  # ties route to the first operand

    def bw(g):
        _accumulate(a, _unbroadcast(g * take_a, a.shape))
        _accumulate(b, _unbroadcast(g * ~take_a, b.shape))
    return _make(np.minimum(a.data, b.data), (a, b), bw)


def maximum(a: Tensor, b: Tensor) -> Tensor:
    take_a = a.data >= b.data

    def bw(g):
        _accumulate(a, _unbroadcast(g * take_a, a.shape))
        _accumulate(b, _unbroadcast(g * ~take_a, b.shape))
    return _make(np.maximum(a.data, b.data), (a, b), bw)


def tsum(x: Tensor) -> Tensor:
    def bw(g):
        _accumulate(x, np.full_like(x.data, float(np.sum(g))))
    return _make(np.asarray(x.data.sum()), (x,), bw)


def tmean(x: Tensor) -> Tensor:
    n = x.data.size

    def bw(g):
        _accumulate(x, np.full_like(x.data, float(np.sum(g)) / n))
    return _make(np.asarray(x.data.mean()), (x,), bw)


def mean_axis(x: Tensor, axis: int) -> Tensor:
    n = x.shape[axis]

    def bw(g):
        _accumulate(x, np.repeat(np.expand_dims(g / n, axis), n, axis=axis))
    return _make(x.data.mean(axis=axis), (x,), bw)


def reshape(x: Tensor, shape: tuple) -> Tensor:
    def bw(g):
        _accumulate(x, g.reshape(x.shape))
    return _make(x.data.reshape(shape), (x,), bw)


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
    """Zero buffer (C, E0, N, E1, ...) holding `a` (N, C, *spatial) channel-major.

    Along spatial axis i, a[..., y, ...] lands at lo[i] + y * step[i] of a
    buffer of extent extents[i]; entries that land outside are dropped, so a
    negative `lo` crops. Forward passes pad with it (lo = padding, step 1),
    the input gradient zero-dilates with it (step = stride).
    """
    n, c = a.shape[:2]
    buf = np.zeros((c, extents[0], n) + tuple(extents[1:]))
    src, dst = [], []
    for size, e, first_pos, s in zip(a.shape[2:], extents, lo, step):
        first = max(0, -(first_pos // s))
        stop = min(size, (e - 1 - first_pos) // s + 1)
        if first >= stop:
            return buf  # nothing lands: every entry is cropped away
        src.append(slice(first, stop))
        dst.append(slice(first_pos + first * s, first_pos + (stop - 1) * s + 1, s))
    order = (1, 2, 0) + tuple(range(3, a.ndim))
    buf[(slice(None), dst[0], slice(None)) + tuple(dst[1:])] = \
        a.transpose(order)[(slice(None), src[0], slice(None)) + tuple(src[1:])]
    return buf


def _columns(src: np.ndarray, kshape: tuple, stride: tuple, out_shape: tuple) -> list:
    """The k0 column matrices of a correlation over channel-major `src`.

    src is (C, E0, N, E1, ...), already padded. Every spatial axis but the
    first is lowered im2col-style into one gather of layout
    (C*k1*..., E0, N*out1*...); the first axis keeps its full extent, so the
    matrix for first-axis kernel offset i is a slice of those columns,
    (C*k1*..., out0*N*out1*...), not another copy (a copy only when the
    first-axis stride exceeds 1). A 3x3x3 kernel at depth 8 and padding 1
    thus copies each input value 9 * 10 / 8 ~ 11 times instead of 27.
    """
    c, _, n = src.shape[:3]
    k0, s0, out0 = kshape[0], stride[0], out_shape[0]
    used0 = s0 * (out0 - 1) + k0
    tail = src.strides[3:]
    view = np.lib.stride_tricks.as_strided(
        src,
        shape=(c,) + kshape[1:] + (used0, n) + out_shape[1:],
        strides=((src.strides[0],) + tail + src.strides[1:3]
                 + tuple(st * s for st, s in zip(tail, stride[1:]))))
    cols = view.reshape(c * int(np.prod(kshape[1:])), used0, -1)
    return [cols[:, i:i + s0 * (out0 - 1) + 1:s0].reshape(cols.shape[0], -1)
            for i in range(k0)]


def _correlate(src: np.ndarray, kernel: np.ndarray, stride: tuple,
               out_shape: tuple) -> np.ndarray:
    """Cross-correlation of channel-major `src` with kernel (O, C, *k).

    Returns (O, out0, N, out1, ...): the sum over first-axis kernel offsets
    of one GEMM each on the column slices of `_columns`.
    """
    o, k0 = kernel.shape[0], kernel.shape[2]
    w = np.moveaxis(kernel, 2, 0).reshape(k0, o, -1)
    slabs = _columns(src, kernel.shape[2:], stride, out_shape)
    acc = w[0] @ slabs[0]
    term = np.empty_like(acc)
    for wi, slab in zip(w[1:], slabs[1:]):
        acc += np.matmul(wi, slab, out=term)
    return acc.reshape((o, out_shape[0], src.shape[2]) + out_shape[1:])


def _batch_major(a: np.ndarray) -> np.ndarray:
    """(C, S0, N, S1, ...) -> a (N, C, S0, S1, ...) view."""
    return a.transpose((2, 0, 1) + tuple(range(3, a.ndim)))


def _convnd(x: Tensor, kernel: Tensor, spec: ConvSpec, ndim: int) -> Tensor:
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
    in_shape = x.shape[2:]
    out_shape = spec.out_extent(in_shape)
    ones = (1,) * ndim

    def padded_input() -> np.ndarray:
        extents = tuple(e + 2 * p for e, p in zip(in_shape, spec.padding))
        return _embed(x.data, extents, spec.padding, ones)

    out_data = _batch_major(_correlate(padded_input(), kernel.data, spec.stride, out_shape))

    def bw(g):
        if kernel.requires_grad:
            # dW for first-axis offset i: g against the column slice for i.
            # The columns are gathered again; keeping them would dominate memory.
            g_mat = g.transpose((1, 2, 0) + tuple(range(3, g.ndim))).reshape(o, -1)
            slabs = _columns(padded_input(), kshape, spec.stride, out_shape)
            # slab @ g.T runs faster in BLAS than g @ slab.T for these shapes.
            dw = np.stack([slab @ g_mat.T for slab in slabs])  # (k0, C*k1*..., O)
            dw = dw.reshape((kshape[0], c_in) + kshape[1:] + (o,))
            _accumulate(kernel, dw.transpose((ndim + 1, 1, 0) + tuple(range(2, ndim + 1))))
        if x.requires_grad:
            # dX is the stride-1 correlation of g, zero-dilated by the stride
            # and padded by k-1-p (negative crops), with the kernel flipped
            # and its channel axes swapped (Dumoulin & Visin, 2016).
            extents = tuple(e + k - 1 for e, k in zip(in_shape, kshape))
            lo = tuple(k - 1 - p for k, p in zip(kshape, spec.padding))
            flipped = kernel.data[(slice(None), slice(None)) + (slice(None, None, -1),) * ndim]
            dx = _correlate(_embed(g, extents, lo, spec.stride),
                            flipped.swapaxes(0, 1), ones, in_shape)
            _accumulate(x, _batch_major(dx))

    return _make(out_data, (x, kernel), bw)


def conv2d(x: Tensor, kernel: Tensor, spec: ConvSpec) -> Tensor:
    """Bias-free 2D cross-correlation. x: (N,C,H,W), kernel: (O,C,kh,kw)."""
    return _convnd(x, kernel, spec, 2)


def conv3d(x: Tensor, kernel: Tensor, spec: ConvSpec) -> Tensor:
    """Bias-free 3D cross-correlation. x: (N,C,D,H,W), kernel: (O,C,kd,kh,kw)."""
    return _convnd(x, kernel, spec, 3)


def maxpool2x2(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2 over the last two (spatial) axes."""
    h, w = x.shape[-2], x.shape[-1]
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2x2 needs even spatial extents, got {h}x{w}")
    lead = x.shape[:-2]
    windows = x.data.reshape(lead + (h // 2, 2, w // 2, 2))
    windows = np.moveaxis(windows, -3, -2).reshape(lead + (h // 2, w // 2, 4))
    idx = windows.argmax(axis=-1)
    out_data = np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]

    def bw(g):
        gw = np.zeros(lead + (h // 2, w // 2, 4))
        np.put_along_axis(gw, idx[..., None], g[..., None], axis=-1)
        gw = gw.reshape(lead + (h // 2, w // 2, 2, 2))
        gw = np.moveaxis(gw, -2, -3).reshape(x.shape)
        _accumulate(x, gw)

    return _make(out_data, (x,), bw)


# ---------------------------------------------------------------------------
# dropout and categorical-distribution ops
# ---------------------------------------------------------------------------

def dropout(x: Tensor, rate: float, mode: str, rng: Optional[Rng] = None) -> Tensor:
    """Inverted dropout: train-mode survivors are scaled by 1/(1-rate)."""
    if not (0.0 <= rate < 1.0):
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    if mode == "eval" or rate == 0.0:
        def bw_id(g):
            _accumulate(x, g)
        return _make(x.data.copy(), (x,), bw_id)
    if rng is None:
        raise ValueError("train-mode dropout requires an rng")
    scale = 1.0 / (1.0 - rate)
    mask = (rng.random(x.shape) >= rate) * scale

    def bw(g):
        _accumulate(x, g * mask)
    return _make(x.data * mask, (x,), bw)


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
    probs = np.exp(ls)

    def bw(g):
        gl = -probs * g[:, None]
        gl[np.arange(n), actions] += g
        _accumulate(logits, gl)
    return _make(ls[np.arange(n), actions], (logits,), bw)


def softmax_entropy(logits: Tensor) -> Tensor:
    """Per-row entropy of the softmax distribution. logits: (N, A)."""
    if logits.data.ndim != 2:
        raise ShapeError(f"logits must be (N, A), got {logits.shape}")
    ls = _log_softmax(logits.data)
    probs = np.exp(ls)
    ent = -(probs * ls).sum(axis=1)

    def bw(g):
        # dH/dz_j = -p_j (log p_j + H)
        _accumulate(logits, -probs * (ls + ent[:, None]) * g[:, None])
    return _make(ent, (logits,), bw)


def sample_categorical(logits: Tensor, rng: Rng):
    """Sample actions from softmax(logits) rowwise.

    Returns (actions int array, logprob Tensor, entropy Tensor); the latter
    two are differentiable w.r.t. the logits.
    """
    if not np.all(np.isfinite(logits.data)):
        raise ValueError("non-finite logits")
    probs = softmax_probs(logits.data)
    u = rng.random(probs.shape[0])
    cdf = probs.cumsum(axis=1)
    actions = (cdf < u[:, None]).sum(axis=1)
    actions = np.minimum(actions, probs.shape[1] - 1)
    return actions, categorical_logprob(logits, actions), softmax_entropy(logits)
