"""Residual convolutional policy/value networks in 2D and 3D variants.

The backbone follows the IMPALA recipe: three stages with base channel
counts (16, 32, 32) scaled by a width multiplier, each stage being a conv,
a stride-2 spatial max pool, and two residual blocks. The 2D variant stacks
frames along the channel axis (frames x 3 input channels); the 3D variant
keeps frames as a temporal depth axis with 3 input channels, uses temporal
kernel extent 3 (stride 1, padding 1) in every conv so the depth is
preserved through the trunk, pools spatially only, and averages over the
temporal axis before the flatten.

The network is built straight from checked hyperparameters (an
`agents.AgentHyperparams`, or any object with its `frames`, `conv_kind`,
`width_multiplier` and `dropout_rate`); its only check of its own is the
observation geometry. It owns the dropout rate: dropout sits after each
residual block and after the dense trunk layer, and runs at that rate in
train-mode forward passes only, so a rate-0 network (PPO) draws nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .rng import Rng
from .tensor import Tensor

OBS_CHANNELS = 3  # RGB
STAGE_CHANNELS = (16, 32, 32)
TRUNK_UNITS = 256

__all__ = ["PolicyValueOutput", "PolicyValueNet"]


@dataclass
class PolicyValueOutput:
    logits: Tensor  # (N, num_actions)
    value: Tensor   # (N,)


def _orthogonal(rng: Rng, rows: int, cols: int, gain: float) -> np.ndarray:
    a = rng.normal(size=(max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))  # fix the sign ambiguity for determinism
    if rows < cols:
        q = q.T
    return gain * q[:rows, :cols]


class ConvLayer:
    """A conv layer: kernel, bias and geometry for one `conv2d`/`conv3d` call."""

    def __init__(self, name: str, kind: str, in_ch: int, out_ch: int,
                 rng: Rng, gain: float):
        self.name = name
        self.kind = kind
        if kind == "conv2d":
            kshape, stride, pad = (3, 3), (1, 1), (1, 1)
        else:
            kshape, stride, pad = (3, 3, 3), (1, 1, 1), (1, 1, 1)
        self.spec = T.ConvSpec(kshape, stride, pad, in_ch, out_ch)
        fan_in = in_ch * int(np.prod(kshape))
        w = _orthogonal(rng, out_ch, fan_in, gain).reshape((out_ch, in_ch) + kshape)
        self.kernel = Tensor(w, requires_grad=True)
        self.bias = Tensor(np.zeros(out_ch), requires_grad=True)
        self.out_channels = out_ch

    def __call__(self, x: Tensor) -> Tensor:
        conv = T.conv2d if self.kind == "conv2d" else T.conv3d
        return conv(x, self.kernel, self.spec, self.bias)

    def params(self):
        return [(f"{self.name}.kernel", self.kernel), (f"{self.name}.bias", self.bias)]


class DenseLayer:
    def __init__(self, name: str, in_f: int, out_f: int, rng: Rng, gain: float):
        self.name = name
        self.weight = Tensor(_orthogonal(rng, in_f, out_f, gain), requires_grad=True)
        self.bias = Tensor(np.zeros(out_f), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.dense(x, self.weight, self.bias)

    def params(self):
        return [(f"{self.name}.weight", self.weight), (f"{self.name}.bias", self.bias)]


class PolicyValueNet:
    """IMPALA-style backbone with categorical policy and scalar value heads."""

    def __init__(self, hp, obs_size: int, num_actions: int, rng: Rng):
        if obs_size % 8 or obs_size < 8:
            raise ValueError(
                f"observation {obs_size}x{obs_size} too small for three stride-2 "
                "pools (extents must be multiples of 8)")
        self.frames = hp.frames
        self.conv_kind = kind = hp.conv_kind
        self.dropout_rate = hp.dropout_rate
        # 2D consumers see stacked frames as extra channels.
        self.input_channels = hp.frames * OBS_CHANNELS if kind == "conv2d" else OBS_CHANNELS
        w = hp.width_multiplier
        init = rng.split("init")
        gain = float(np.sqrt(2.0))

        self.stages: list[dict] = []
        in_ch = self.input_channels
        for si, base in enumerate(STAGE_CHANNELS):
            out_ch = base * w
            stage = {
                "entry": ConvLayer(f"stage{si}.entry", kind, in_ch, out_ch, init, gain),
                "blocks": [],
            }
            for bi in range(2):
                stage["blocks"].append((
                    ConvLayer(f"stage{si}.block{bi}.conv0", kind, out_ch, out_ch, init, gain),
                    ConvLayer(f"stage{si}.block{bi}.conv1", kind, out_ch, out_ch, init, gain),
                ))
            self.stages.append(stage)
            in_ch = out_ch

        flat = in_ch * (obs_size // 8) ** 2
        self.trunk = DenseLayer("trunk", flat, TRUNK_UNITS * w, init, gain)
        self.policy_head = DenseLayer("policy", TRUNK_UNITS * w, num_actions, init, 0.01)
        self.value_head = DenseLayer("value", TRUNK_UNITS * w, 1, init, 1.0)

    # -- parameter registry ----------------------------------------------

    def named_params(self) -> list[tuple[str, Tensor]]:
        out: list[tuple[str, Tensor]] = []
        for stage in self.stages:
            out.extend(stage["entry"].params())
            for c0, c1 in stage["blocks"]:
                out.extend(c0.params())
                out.extend(c1.params())
        out.extend(self.trunk.params())
        out.extend(self.policy_head.params())
        out.extend(self.value_head.params())
        return out

    def params(self) -> list[Tensor]:
        return [p for _, p in self.named_params()]

    def parameter_count(self) -> int:
        return sum(p.size for p in self.params())

    def conv_layers(self) -> list[ConvLayer]:
        out = []
        for stage in self.stages:
            out.append(stage["entry"])
            for c0, c1 in stage["blocks"]:
                out.extend([c0, c1])
        return out

    # -- forward ----------------------------------------------------------

    def format_obs(self, frames: np.ndarray) -> np.ndarray:
        """Shape a raw frame stack (N, k, H, W, C) for this network's input.

        2D: frames concatenated along channels, oldest first -> (N, k*C, H, W).
        3D: frames become the temporal depth axis -> (N, C, k, H, W).
        """
        if frames.ndim != 5:
            raise T.ShapeError(f"expected (N, k, H, W, C) frame stack, got {frames.shape}")
        n, k, h, wd, c = frames.shape
        if k != self.frames:
            raise T.ShapeError(f"stack depth {k} != configured frames {self.frames}")
        if self.conv_kind == "conv2d":
            return np.ascontiguousarray(
                frames.transpose(0, 1, 4, 2, 3).reshape(n, k * c, h, wd))
        return np.ascontiguousarray(frames.transpose(0, 4, 1, 2, 3))

    def forward(self, obs_batch, mode: str = "eval",
                rng: Rng | None = None) -> PolicyValueOutput:
        """`mode="train"` drops out at the network's rate, drawing from `rng`."""
        x = obs_batch if isinstance(obs_batch, Tensor) else Tensor(obs_batch)
        expected_ndim = 4 if self.conv_kind == "conv2d" else 5
        if x.data.ndim != expected_ndim or x.shape[1] != self.input_channels:
            raise T.ShapeError(
                f"obs batch shape {x.shape} does not match the network "
                f"(want {expected_ndim}-D with {self.input_channels} channels)")

        def drop(t: Tensor) -> Tensor:
            if mode == "train" and self.dropout_rate > 0.0:
                return T.dropout(t, self.dropout_rate, rng)
            return t

        for stage in self.stages:
            x = stage["entry"](x)
            x = T.maxpool2x2(x)
            for c0, c1 in stage["blocks"]:
                y = c1(T.relu(c0(T.relu(x))))
                x = T.add(x, y)
                x = drop(x)

        if self.conv_kind == "conv3d":
            x = T.mean_axis(x, 2)  # collapse the temporal axis
        n = x.shape[0]
        x = T.reshape(x, (n, int(np.prod(x.shape[1:]))))
        x = T.relu(x)
        x = T.relu(self.trunk(x))
        x = drop(x)
        logits = self.policy_head(x)
        value = T.reshape(self.value_head(x), (n,))
        return PolicyValueOutput(logits=logits, value=value)

