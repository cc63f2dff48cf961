"""Shared oracles for the test suite.

These are written independently of the library internals (explicit loops,
finite differences) so they stay valid even if the fast paths change.
"""

import numpy as np
import pytest

from deskrl.rng import Rng


def loop_conv(x: np.ndarray, k: np.ndarray, stride, pad) -> np.ndarray:
    """Cross-correlation by explicit loops over every output position."""
    ndim = x.ndim - 2
    n = x.shape[0]
    o = k.shape[0]
    kk = k.shape[2:]
    xp = np.pad(x, [(0, 0), (0, 0)] + [(p, p) for p in pad])
    outsh = tuple((x.shape[2 + i] + 2 * pad[i] - kk[i]) // stride[i] + 1
                  for i in range(ndim))
    out = np.zeros((n, o) + outsh)
    for ni in range(n):
        for oi in range(o):
            for idx in np.ndindex(*outsh):
                sl = tuple(slice(idx[i] * stride[i], idx[i] * stride[i] + kk[i])
                           for i in range(ndim))
                out[(ni, oi) + idx] = (xp[(ni, slice(None)) + sl] * k[oi]).sum()
    return out


def loop_maxpool(x: np.ndarray, g: np.ndarray):
    """2x2 stride-2 max pooling over the last two axes by explicit loops.

    Returns (output, input gradient for upstream g). Each window's gradient
    goes to its first maximal entry in row-major order.
    """
    out = np.zeros(x.shape[:-2] + (x.shape[-2] // 2, x.shape[-1] // 2))
    dx = np.zeros(x.shape)
    for idx in np.ndindex(*out.shape):
        lead, (i, j) = idx[:-2], idx[-2:]
        window = [(2 * i + a, 2 * j + b) for a in (0, 1) for b in (0, 1)]
        best = window[0]
        for pos in window[1:]:
            if x[lead + pos] > x[lead + best]:
                best = pos
        out[idx] = x[lead + best]
        dx[lead + best] = g[idx]
    return out, dx


def central_diff_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Gradient of scalar f(x) by central differences, element by element."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * h)
    return g


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float(np.max(np.abs(a - b) / denom))


@pytest.fixture
def rng():
    return Rng(12345)
