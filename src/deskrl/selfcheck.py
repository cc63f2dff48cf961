"""Fast self-contained oracle checks, runnable from the CLI.

Each check compares a library computation against an independent oracle
(naive loops, finite differences, brute-force definitions) and reports one
pass/fail line. The whole battery runs in well under two minutes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .rng import Rng
from .rollout import compute_gae
from .stats import interquartile_mean, optimality_gap

__all__ = ["run_selfcheck", "CheckResult"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _naive_conv(x: np.ndarray, k: np.ndarray, stride, pad) -> np.ndarray:
    """Reference cross-correlation by explicit loops (any spatial rank)."""
    ndim = x.ndim - 2
    n, _ = x.shape[:2]
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


def _check_conv(ndim: int, rng: Rng) -> CheckResult:
    name = f"conv{ndim}d"
    worst = 0.0
    for _ in range(10):
        stride = tuple(int(rng.integers(1, 3)) for _ in range(ndim))
        pad = tuple(int(rng.integers(0, 2)) for _ in range(ndim))
        ksh = tuple(int(rng.integers(1, 4)) for _ in range(ndim))
        insh = tuple(int(rng.integers(k + 1, 8)) for k in ksh)
        c, o = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        x = rng.normal(size=(2, c) + insh)
        k = rng.normal(size=(o, c) + ksh)
        spec = T.ConvSpec(ksh, stride, pad, c, o)
        op = T.conv2d if ndim == 2 else T.conv3d
        got = op(T.Tensor(x), T.Tensor(k), spec).data
        worst = max(worst, float(np.abs(got - _naive_conv(x, k, stride, pad)).max()))
    return CheckResult(name, worst < 1e-12, f"max abs err vs naive loop oracle: {worst:.2e}")


def _check_conv3d_depth1(rng: Rng) -> CheckResult:
    x = rng.normal(size=(2, 3, 1, 6, 6))
    k = rng.normal(size=(4, 3, 1, 3, 3))
    y3 = T.conv3d(T.Tensor(x), T.Tensor(k),
                  T.ConvSpec((1, 3, 3), (1, 1, 1), (0, 1, 1), 3, 4))
    y2 = T.conv2d(T.Tensor(x[:, :, 0]), T.Tensor(k[:, :, 0]),
                  T.ConvSpec((3, 3), (1, 1), (1, 1), 3, 4))
    err = float(np.abs(y3.data[:, :, 0] - y2.data).max())
    return CheckResult("conv3d_depth1_equals_conv2d", err < 1e-12, f"max abs err {err:.2e}")


def _gradcheck(name: str, build_loss, params: list[T.Tensor],
               tol: float = 1e-4) -> CheckResult:
    for p in params:
        p.zero_grad()
    loss = build_loss()
    loss.backward()
    worst = 0.0
    h = 1e-5
    for p in params:
        flat = p.data.reshape(-1)
        for j in range(0, flat.size, max(1, flat.size // 5)):
            orig = flat[j]
            flat[j] = orig + h
            lp = build_loss().item()
            flat[j] = orig - h
            lm = build_loss().item()
            flat[j] = orig
            fd = (lp - lm) / (2 * h)
            denom = max(abs(fd), abs(float(p.grad.reshape(-1)[j])), 1e-8)
            worst = max(worst, abs(float(p.grad.reshape(-1)[j]) - fd) / denom)
    return CheckResult(name, worst < tol, f"max rel err vs central differences: {worst:.2e}")


def _check_gradients(rng: Rng) -> list[CheckResult]:
    out = []
    x = T.Tensor(rng.normal(size=(3, 4)) + 0.1, requires_grad=True)
    w = T.Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    b = T.Tensor(rng.normal(size=2), requires_grad=True)
    out.append(_gradcheck("grad_dense_relu",
                          lambda: T.tsum(T.relu(T.dense(x, w, b))), [x, w, b]))
    xc = T.Tensor(rng.normal(size=(2, 2, 5, 5)), requires_grad=True)
    kc = T.Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
    spec = T.ConvSpec((3, 3), (1, 1), (1, 1), 2, 3)
    out.append(_gradcheck("grad_conv2d",
                          lambda: T.tsum(T.square(T.conv2d(xc, kc, spec))), [xc, kc]))
    # Stride 2 on the first axis and unequal padding exercise the input
    # gradient's zero dilation on the 3D path too.
    x3 = T.Tensor(rng.normal(size=(2, 2, 5, 4, 5)), requires_grad=True)
    k3 = T.Tensor(rng.normal(size=(3, 2, 3, 3, 3)), requires_grad=True)
    spec3 = T.ConvSpec((3, 3, 3), (2, 1, 1), (1, 0, 1), 2, 3)
    out.append(_gradcheck("grad_conv3d",
                          lambda: T.tsum(T.square(T.conv3d(x3, k3, spec3))), [x3, k3]))
    # Distinct values a step of 0.1 apart: no window has a tie, and the
    # difference step cannot change which corner is the max.
    xp = T.Tensor(0.1 * rng.permutation(2 * 3 * 4 * 6).reshape(2, 3, 4, 6),
                  requires_grad=True)
    wp = T.Tensor(rng.normal(size=(2, 3, 2, 3)))
    out.append(_gradcheck("grad_maxpool2x2",
                          lambda: T.tsum(T.mul(T.maxpool2x2(xp), wp)), [xp]))
    # A residual block as the 3D network has it; a fresh stream of a fixed
    # seed gives every evaluation the same dropout mask.
    xr = T.Tensor(rng.normal(size=(2, 2, 3, 4, 4)), requires_grad=True)
    kr = [T.Tensor(rng.normal(size=(2, 2, 3, 3, 3)), requires_grad=True) for _ in range(2)]
    br = T.Tensor(rng.normal(size=2), requires_grad=True)
    specr = T.ConvSpec((3, 3, 3), (1, 1, 1), (1, 1, 1), 2, 2)
    wr = T.Tensor(rng.normal(size=xr.shape))  # nonzero upstream gradient where units drop

    def residual_block():
        h = T.conv3d(T.relu(T.conv3d(xr, kr[0], specr, br)), kr[1], specr)
        return T.tsum(T.mul(T.dropout(T.add(xr, h), 0.25, Rng(7)), wr))
    out.append(_gradcheck("grad_residual_block", residual_block, [xr, *kr, br]))
    lg = T.Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    acts = np.array([0, 2, 4, 1])
    out.append(_gradcheck("grad_categorical",
                          lambda: T.tsum(T.categorical_logprob(lg, acts)), [lg]))
    out.append(_gradcheck("grad_entropy",
                          lambda: T.tsum(T.softmax_entropy(lg)), [lg]))
    return out


def _check_gae(rng: Rng) -> CheckResult:
    worst = 0.0
    for _ in range(20):
        t_len, e = int(rng.integers(2, 16)), int(rng.integers(1, 4))
        rewards = rng.normal(size=(t_len, e))
        values = rng.normal(size=(t_len, e))
        dones = rng.random((t_len, e)) < 0.2
        boot = rng.normal(size=e)
        gamma, lam = float(rng.uniform(0.9, 1.0)), float(rng.uniform(0.8, 1.0))
        adv, _ = compute_gae(rewards, values, dones, boot, gamma, lam)
        # closed form: A_t = sum_k (gamma*lam)^k delta_{t+k}, masked at dones
        ref = np.zeros_like(adv)
        for ei in range(e):
            for t0 in range(t_len):
                acc, w = 0.0, 1.0
                for tt in range(t0, t_len):
                    nv = boot[ei] if tt == t_len - 1 else values[tt + 1, ei]
                    mask = 0.0 if dones[tt, ei] else 1.0
                    acc += w * (rewards[tt, ei] + gamma * mask * nv - values[tt, ei])
                    if dones[tt, ei]:
                        break
                    w *= gamma * lam
                ref[t0, ei] = acc
        worst = max(worst, float(np.abs(adv - ref).max()))
    return CheckResult("gae_closed_form", worst < 1e-10, f"max abs err {worst:.2e}")


def _check_stats(rng: Rng) -> list[CheckResult]:
    worst_iqm = 0.0
    for _ in range(50):
        x = rng.normal(size=int(rng.integers(2, 40)))
        # independent oracle: replicate 4x so the 25% trim is an exact count
        rep = np.sort(np.repeat(x, 4))
        ref = rep[x.size:-x.size].mean()
        worst_iqm = max(worst_iqm, abs(interquartile_mean(x) - ref))
    x = rng.uniform(0, 1, size=40)
    gap_err = abs(optimality_gap(x) - (1.0 - x.mean()))
    return [
        CheckResult("iqm_brute_force", worst_iqm < 1e-12,
                    f"max abs err vs trim-and-average oracle: {worst_iqm:.2e}"),
        CheckResult("optimality_gap_identity", gap_err < 1e-12,
                    f"|gap - (1 - mean)| = {gap_err:.2e} for scores in [0,1]"),
    ]


def run_selfcheck() -> list[CheckResult]:
    rng = Rng(20240817)
    t0 = time.time()
    results: list[CheckResult] = []
    results.append(_check_conv(2, rng.split("conv2d")))
    results.append(_check_conv(3, rng.split("conv3d")))
    results.append(_check_conv3d_depth1(rng.split("depth1")))
    results.extend(_check_gradients(rng.split("grad")))
    results.append(_check_gae(rng.split("gae")))
    results.extend(_check_stats(rng.split("stats")))
    results.append(CheckResult(
        "runtime_under_120s", time.time() - t0 < 120.0,
        f"elapsed {time.time() - t0:.1f}s"))
    return results
