"""Adam optimizer and global gradient-norm clipping."""

from __future__ import annotations

import math

import numpy as np

from .tensor import Tensor

__all__ = ["Adam", "clip_grad_norm", "global_grad_norm"]


def global_grad_norm(params: list[Tensor]) -> float:
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    return math.sqrt(total)


def clip_grad_norm(params: list[Tensor], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm.

    Returns the pre-clip norm.
    """
    if max_norm <= 0.0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    norm = global_grad_norm(params)
    if norm > max_norm:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= scale
    return norm


class Adam:
    """Adam with bias correction and fixed betas and eps."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params: list[Tensor], lr: float):
        self.params = list(params)
        self.lr = float(lr)
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.BETA1 ** self.t
        bc2 = 1.0 - self.BETA2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                continue
            g = p.grad
            m *= self.BETA1
            m += (1.0 - self.BETA1) * g
            v *= self.BETA2
            v += (1.0 - self.BETA2) * g * g
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.EPS)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    # -- checkpointing ----------------------------------------------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {"adam_t": np.asarray([float(self.t)])}
        for i, (m, v) in enumerate(zip(self.m, self.v)):
            out[f"adam_m_{i}"] = m
            out[f"adam_v_{i}"] = v
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        self.t = int(arrays["adam_t"][0])
        for i in range(len(self.params)):
            self.m[i] = np.array(arrays[f"adam_m_{i}"], dtype=np.float64)
            self.v[i] = np.array(arrays[f"adam_v_{i}"], dtype=np.float64)
