"""PPO and VSOP agents: hyperparameter presets, action selection, updates.

The five presets (ppo, ppo3d, vsop, vsop3d, vsop3d_plus) pin every cell of
the published hyperparameter table. PPO uses the clipped-ratio surrogate
with per-minibatch advantage normalization and clipped value loss. VSOP is
a REINFORCE variant: only positive advantages drive the policy gradient
(relu gate), there is no ratio clipping or advantage normalization, and
dropout stays active during action selection so each decision samples a
subnetwork (Thompson-sampling exploration).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from . import tensor as T
from .networks import PolicyValueNet
from .optim import Adam, clip_grad_norm
from .rng import Rng
from .rollout import RolloutBuffer
from .tensor import Tensor

__all__ = ["AgentHyperparams", "UpdateStats", "PRESETS", "preset", "Agent", "is_int"]


def is_int(value) -> bool:
    """An int that is not a bool (YAML 1.1 reads `yes`, `on` and `true` as True)."""
    return isinstance(value, int) and not isinstance(value, bool)


_POSITIVE_INT_FIELDS = ("frames", "width_multiplier", "batch_size",
                        "epochs_per_update", "num_minibatches")
_RANGE_FIELDS = (
    ("gamma", lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]"),
    ("gae_lambda", lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]"),
    ("learning_rate", lambda v: v > 0.0, "must be > 0"),
    ("max_grad_norm", lambda v: v > 0.0, "must be > 0"),
    ("dropout_rate", lambda v: 0.0 <= v < 1.0, "must lie in [0, 1)"),
    ("entropy_coeff", lambda v: v >= 0.0, "must be >= 0"),
    ("value_loss_coeff", lambda v: v >= 0.0, "must be >= 0"),
)


@dataclass(frozen=True)
class AgentHyperparams:
    """One cell of the hyperparameter table, checked when it is built.

    `__post_init__` raises one `ValueError` listing every problem, so an
    invalid set (a preset, an override through `dataclasses.replace`, or a
    direct construction) never reaches an `Agent` or a network.
    """

    algo: str  # "ppo" | "vsop"
    frames: int
    width_multiplier: int
    conv_kind: str  # "conv2d" | "conv3d"
    learning_rate: float
    batch_size: int
    epochs_per_update: int
    gamma: float
    gae_lambda: float
    normalize_advantages: bool
    clip_value_loss: bool
    clip_coeff: float | None
    entropy_coeff: float
    value_loss_coeff: float
    max_grad_norm: float
    dropout_rate: float
    num_minibatches: int = 8  # not a table cell; split of batch per epoch

    def __post_init__(self) -> None:
        v = vars(self)
        numbers = {key for key, value in v.items() if isinstance(value, float) or is_int(value)}
        bad_ints = [key for key in _POSITIVE_INT_FIELDS if not is_int(v[key]) or v[key] <= 0]
        problems = [f"{key} must be a positive integer" for key in bad_ints]
        if self.conv_kind not in ("conv2d", "conv3d"):
            problems.append("conv_kind must be 'conv2d' or 'conv3d'")
        problems += [f"{key} {rule}" for key, ok, rule in _RANGE_FIELDS
                     if key not in numbers or not ok(v[key])]
        problems += [f"{key} must be a bool" for key in ("normalize_advantages", "clip_value_loss")
                     if not isinstance(v[key], bool)]
        if self.algo == "ppo":
            if self.dropout_rate != 0.0:
                problems.append("ppo configs forbid dropout")
            if self.clip_coeff is None:
                problems.append("ppo configs require a clip coefficient")
            elif "clip_coeff" not in numbers or not self.clip_coeff > 0.0:
                problems.append("clip_coeff must be > 0")
        elif self.algo == "vsop":
            if self.clip_coeff is not None:
                problems.append("vsop configs have no ratio clipping (N/A)")
            if self.normalize_advantages:
                problems.append("vsop configs do not normalize advantages (N/A)")
            if self.clip_value_loss:
                problems.append("vsop configs do not clip the value loss (N/A)")
        else:
            problems.append(f"unknown algo {self.algo!r}")
        if ("batch_size" not in bad_ints and "num_minibatches" not in bad_ints
                and self.batch_size % self.num_minibatches):
            problems.append("batch_size must divide evenly into minibatches")
        if problems:
            raise ValueError("invalid AgentHyperparams: " + "; ".join(problems))

    @property
    def minibatch_size(self) -> int:
        return self.batch_size // self.num_minibatches


_PPO = AgentHyperparams(
    algo="ppo", frames=1, width_multiplier=1, conv_kind="conv2d",
    learning_rate=5e-4, batch_size=2048, epochs_per_update=3,
    gamma=0.999, gae_lambda=0.95, normalize_advantages=True,
    clip_value_loss=True, clip_coeff=0.2, entropy_coeff=1e-2,
    value_loss_coeff=0.5, max_grad_norm=0.5, dropout_rate=0.0)
_VSOP = AgentHyperparams(
    algo="vsop", frames=1, width_multiplier=1, conv_kind="conv2d",
    learning_rate=4.5e-4, batch_size=2048, epochs_per_update=3,
    gamma=0.999, gae_lambda=0.881, normalize_advantages=False,
    clip_value_loss=False, clip_coeff=None, entropy_coeff=1e-5,
    value_loss_coeff=0.5, max_grad_norm=0.5, dropout_rate=0.075)

# The 3D presets are overrides of their algorithm's 2D cell, derived as
# `RunConfig.hyperparams()` derives `hyperparam_overrides`.
PRESETS: dict[str, AgentHyperparams] = {
    "ppo": _PPO,
    "ppo3d": replace(_PPO, frames=8, conv_kind="conv3d"),
    "vsop": _VSOP,
    "vsop3d": replace(_VSOP, frames=8, conv_kind="conv3d"),
    "vsop3d_plus": replace(_VSOP, frames=16, conv_kind="conv3d", width_multiplier=2,
                           learning_rate=2.0e-4, batch_size=512, epochs_per_update=1),
}


def preset(name: str) -> AgentHyperparams:
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; known: {sorted(PRESETS)}")
    return PRESETS[name]


@dataclass
class UpdateStats:
    policy_loss: float
    value_loss: float
    entropy: float
    grad_norm: float
    approx_kl: float

    def validate(self) -> None:
        for k, v in asdict(self).items():
            if not np.isfinite(v):
                raise FloatingPointError(f"non-finite update stat {k}={v}")


class Agent:
    """A policy/value network plus its optimizer and update rule."""

    def __init__(self, hp: AgentHyperparams, obs_size: int, num_actions: int, rng: Rng):
        self.hp = hp
        self.net = PolicyValueNet(hp, obs_size, num_actions, rng.split("net"))
        self.optimizer = Adam(self.net.params(), lr=hp.learning_rate)
        self._action_rng = rng.split("actions")
        self._dropout_rng = rng.split("dropout")
        self._shuffle_rng = rng.split("minibatch")

    # -- action selection -------------------------------------------------

    def select_action(self, stacked_frames: np.ndarray, thompson: bool = True,
                      action_rng: Rng | None = None, dropout_rng: Rng | None = None):
        """Choose actions for a batch of frame stacks (E, k, H, W, C).

        With `thompson` the network runs in train mode, so VSOP's dropout
        mask samples a subnetwork per decision; PPO has no dropout, so its
        train-mode forward draws nothing and equals eval mode.
        `thompson=False` runs an eval-mode (mean network) forward. Returns
        numpy (actions, logprobs, values). Callers (e.g. evaluation) may
        supply their own rng streams so they cannot perturb the training
        streams.
        """
        x = self.net.format_obs(stacked_frames)
        with T.no_grad():
            out = self.net.forward(x, mode="train" if thompson else "eval",
                                   rng=dropout_rng or self._dropout_rng)
            actions, logprob = T.sample_categorical(
                out.logits, action_rng or self._action_rng)
        return actions, logprob.data, out.value.data

    def value_estimate(self, stacked_frames: np.ndarray) -> np.ndarray:
        """Eval-mode value for bootstrapping at collection boundaries."""
        x = self.net.format_obs(stacked_frames)
        with T.no_grad():
            return self.net.forward(x, mode="eval").value.data

    # -- updates ----------------------------------------------------------

    def update(self, buffer: RolloutBuffer) -> UpdateStats:
        data = buffer.flat()
        n = data["actions"].shape[0]
        if n != self.hp.batch_size:
            raise ValueError(f"buffer holds {n} transitions, "
                             f"batch_size is {self.hp.batch_size}")
        mb = self.hp.minibatch_size
        stats = np.zeros(5)
        count = 0
        for _ in range(self.hp.epochs_per_update):
            order = self._shuffle_rng.permutation(n)
            for start in range(0, n, mb):
                idx = order[start:start + mb]
                s = self._update_minibatch(
                    {k: v[idx] for k, v in data.items()})
                stats += np.array([s.policy_loss, s.value_loss, s.entropy,
                                   s.grad_norm, s.approx_kl])
                count += 1
        out = UpdateStats(*(stats / count))
        out.validate()
        return out

    def _update_minibatch(self, mb: dict[str, np.ndarray]) -> UpdateStats:
        out = self.net.forward(self.net.format_obs(mb["obs"]), mode="train",
                               rng=self._dropout_rng)
        new_lp = T.categorical_logprob(out.logits, mb["actions"])
        entropy = T.tmean(T.softmax_entropy(out.logits))
        if self.hp.algo == "ppo":
            policy_loss, value_loss = self._ppo_losses(out, new_lp, mb)
        else:
            policy_loss, value_loss = self._vsop_losses(out, new_lp, mb)
        total = T.sub(
            T.add(policy_loss, T.mul(Tensor(np.asarray(self.hp.value_loss_coeff)),
                                     value_loss)),
            T.mul(Tensor(np.asarray(self.hp.entropy_coeff)), entropy))
        self.optimizer.zero_grad()
        total.backward()
        grad_norm = clip_grad_norm(self.net.params(), self.hp.max_grad_norm)
        self.optimizer.step()
        approx_kl = float(np.mean(mb["logprobs"] - new_lp.data))
        return UpdateStats(policy_loss.item(), value_loss.item(),
                           entropy.item(), grad_norm, approx_kl)

    def _ppo_losses(self, out, new_lp, mb):
        adv = mb["advantages"]
        if self.hp.normalize_advantages:
            adv = (adv - adv.mean()) / (adv.std() + 1e-8)
        adv_t = Tensor(adv)
        c = self.hp.clip_coeff
        ratio = T.exp(T.sub(new_lp, Tensor(mb["logprobs"])))
        surr = T.minimum(T.mul(ratio, adv_t),
                         T.mul(T.clip(ratio, 1.0 - c, 1.0 + c), adv_t))
        policy_loss = -T.tmean(surr)
        returns = Tensor(mb["returns"])
        err = T.square(T.sub(out.value, returns))
        if self.hp.clip_value_loss:
            old_v = Tensor(mb["values"])
            v_clipped = T.add(old_v, T.clip(T.sub(out.value, old_v), -c, c))
            err = T.maximum(err, T.square(T.sub(v_clipped, returns)))
        value_loss = T.mul(Tensor(np.asarray(0.5)), T.tmean(err))
        return policy_loss, value_loss

    def _vsop_losses(self, out, new_lp, mb):
        gated_adv = np.maximum(mb["advantages"], 0.0)  # advantage clipping
        policy_loss = -T.tmean(T.mul(Tensor(gated_adv), new_lp))
        err = T.square(T.sub(out.value, Tensor(mb["returns"])))
        value_loss = T.mul(Tensor(np.asarray(0.5)), T.tmean(err))
        return policy_loss, value_loss

    # -- checkpointing ----------------------------------------------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        arrays = {name: p.data for name, p in self.net.named_params()}
        arrays.update(self.optimizer.state_arrays())
        return arrays

    def rng_states(self) -> dict:
        return {
            "actions": self._action_rng.get_state(),
            "dropout": self._dropout_rng.get_state(),
            "minibatch": self._shuffle_rng.get_state(),
        }

    def load_state(self, arrays: dict[str, np.ndarray], rng_states: dict) -> None:
        for name, p in self.net.named_params():
            p.data = np.array(arrays[name], dtype=np.float64)
        self.optimizer.load_state_arrays(arrays)
        self._action_rng.set_state(rng_states["actions"])
        self._dropout_rng.set_state(rng_states["dropout"])
        self._shuffle_rng.set_state(rng_states["minibatch"])
