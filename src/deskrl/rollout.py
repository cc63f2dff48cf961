"""Frame stacking, trajectory collection, and generalized advantage estimation."""

from __future__ import annotations

import numpy as np

from .envs import VecEnv

__all__ = ["FrameStack", "RolloutBuffer", "compute_gae", "Collector"]


class FrameStack:
    """Ring of the last `capacity` observations per environment instance.

    At episode start the ring is filled with copies of the reset frame, so
    the stack always holds exactly `capacity` frames ordered oldest to
    newest. Frames never leak across episode boundaries.
    """

    def __init__(self, capacity: int, num_envs: int, obs_shape: tuple):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.frames = np.zeros((num_envs, capacity) + tuple(obs_shape))

    def reset_all(self, obs: np.ndarray) -> None:
        self.frames[:] = obs[:, None]

    def push(self, obs: np.ndarray, dones: np.ndarray) -> None:
        """Append new frames; done slots restart from their reset frame."""
        self.frames[:, :-1] = self.frames[:, 1:]
        self.frames[:, -1] = obs
        for i in np.flatnonzero(dones):
            self.frames[i] = obs[i]

    def stacked(self) -> np.ndarray:
        """A copy of the current stacks (E, capacity, H, W, C), oldest first."""
        return self.frames.copy()


class RolloutBuffer:
    """Fixed-horizon on-policy store with post-hoc advantages and returns."""

    def __init__(self, horizon: int, num_envs: int, stack_shape: tuple):
        self.horizon = horizon
        self.num_envs = num_envs
        self.obs = np.zeros((horizon, num_envs) + tuple(stack_shape))
        self.actions = np.zeros((horizon, num_envs), dtype=np.int64)
        self.logprobs = np.zeros((horizon, num_envs))
        self.rewards = np.zeros((horizon, num_envs))
        self.dones = np.zeros((horizon, num_envs), dtype=bool)
        self.values = np.zeros((horizon, num_envs))
        self.advantages = None
        self.returns = None

    def finalize(self, bootstrap_value: np.ndarray, gamma: float, lam: float) -> None:
        self.advantages, self.returns = compute_gae(
            self.rewards, self.values, self.dones, bootstrap_value, gamma, lam)

    def flat(self) -> dict[str, np.ndarray]:
        """Flatten (T, E, ...) arrays to (T*E, ...) for minibatching."""
        if self.advantages is None:
            raise RuntimeError("finalize() must run before flat()")
        n = self.horizon * self.num_envs
        return {
            "obs": self.obs.reshape((n,) + self.obs.shape[2:]),
            "actions": self.actions.reshape(n),
            "logprobs": self.logprobs.reshape(n),
            "values": self.values.reshape(n),
            "advantages": self.advantages.reshape(n),
            "returns": self.returns.reshape(n),
        }


def compute_gae(rewards: np.ndarray, values: np.ndarray, dones: np.ndarray,
                bootstrap_value: np.ndarray, gamma: float, lam: float):
    """Backward-scan GAE.

    delta_t = r_t + gamma * (1 - done_t) * V_{t+1} - V_t
    A_t     = delta_t + gamma * lam * (1 - done_t) * A_{t+1}
    returns = advantages + values

    V_{T} is the bootstrap value; done_t masks both terms so no reward or
    value after a terminal influences earlier advantages.
    """
    for arr in (rewards, values, bootstrap_value):
        if not np.all(np.isfinite(arr)):
            raise ValueError("non-finite inputs to compute_gae")
    if not (0.0 <= gamma <= 1.0 and 0.0 <= lam <= 1.0):
        raise ValueError("gamma and lam must lie in [0, 1]")
    horizon, num_envs = rewards.shape
    advantages = np.zeros((horizon, num_envs))
    next_value = np.asarray(bootstrap_value, dtype=np.float64)
    acc = np.zeros(num_envs)
    for t in range(horizon - 1, -1, -1):
        mask = 1.0 - dones[t].astype(np.float64)
        delta = rewards[t] + gamma * mask * next_value - values[t]
        acc = delta + gamma * lam * mask * acc
        advantages[t] = acc
        next_value = values[t]
    return advantages, advantages + values


class Collector:
    """Steps a vectorized env with a persistent frame stack across rollouts.

    `step` is the one place an agent acts on an env: training collection
    and held-out evaluation both go through it, so both see the same stacks.
    """

    def __init__(self, vec: VecEnv, frames: int):
        self.vec = vec
        obs_shape = (vec.spec.obs_height, vec.spec.obs_width, 3)
        self.stack = FrameStack(frames, vec.num_envs, obs_shape)
        self.stack.reset_all(vec.reset_all())

    def step(self, select_action):
        """Act on the current stacks, step every env once, push the new frames.

        select_action maps stacked frames (E, k, H, W, C) to (actions,
        logprobs, values) as numpy arrays. Returns (stacks acted on, that
        triple, rewards, dones, returns of the episodes that ended).
        """
        stacked = self.stack.stacked()
        acted = select_action(stacked)
        obs, rewards, dones, done_returns = self.vec.step(acted[0])
        self.stack.push(obs, dones)
        return stacked, acted, rewards, dones, done_returns

    def collect(self, select_action, horizon: int) -> tuple[RolloutBuffer, list[float]]:
        """Gather horizon * num_envs transitions, one `step` per buffer row.

        Episodes crossing collection boundaries continue seamlessly; returns
        the buffer and the episodic returns of episodes that completed
        inside it.
        """
        buf = RolloutBuffer(horizon, self.vec.num_envs, self.stack.frames.shape[1:])
        finished: list[float] = []
        for t in range(horizon):
            (buf.obs[t], (buf.actions[t], buf.logprobs[t], buf.values[t]),
             buf.rewards[t], buf.dones[t], done_returns) = self.step(select_action)
            finished.extend(done_returns)
        return buf, finished
