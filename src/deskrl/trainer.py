"""The per-seed training loop: collect, GAE, update, periodic evaluation.

Alternates fixed-horizon collection with policy updates until the step
budget is exhausted, evaluating on held-out test levels at fixed step
intervals. Writes a metrics CSV (one row per completed episode, train and
eval) plus a JSON sidecar of per-update statistics, and can checkpoint and
resume on update boundaries with bit-identical continuation.

Checkpoints are deskrl's one checkpoint format. Before it loads anything or
touches `metrics.csv`, resume rejects a checkpoint whose `hp`/`config`
(bar `total_steps`) or whose array names and shapes differ from this run's.

Evaluation keeps VSOP's dropout sampling active by default (the acting
policy is the Thompson-sampling policy); `eval_mode="mean"` switches to
deterministic eval-mode forwards for ablation.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from .agents import Agent, AgentHyperparams
from .envs import VecEnv, normalized_return
from .rng import Rng
from .rollout import Collector, FrameStack
from .serialize import read_container, write_container

__all__ = ["TrainConfig", "train", "evaluate_policy", "METRICS_COLUMNS"]

METRICS_COLUMNS = ("step", "split", "env", "seed", "episodic_return", "normalized_return")


@dataclass
class TrainConfig:
    env: str
    seed: int
    total_steps: int
    num_envs: int = 8
    num_train_levels: int = 50
    eval_interval: int = 8192
    eval_episodes: int = 10
    eval_mode: str = "thompson"  # "thompson" | "mean"
    obs_size: int = 16
    checkpoint_interval: int = 0  # updates between checkpoints; 0 disables

    def resolved_horizon(self, hp: AgentHyperparams) -> int:
        h = hp.batch_size // self.num_envs
        if h * self.num_envs != hp.batch_size:
            raise ValueError(
                f"horizon {h} x num_envs {self.num_envs} != batch_size {hp.batch_size}")
        return h


def _fmt(x: float) -> str:
    return repr(float(x))


class _MetricsWriter:
    def __init__(self, path, append: bool = False):
        self.path = path
        mode = "a" if append else "w"
        self.f = open(path, mode)
        if not append:
            self.f.write(",".join(METRICS_COLUMNS) + "\n")

    def row(self, step: int, split: str, env: str, seed: int,
            ret: float, norm: float) -> None:
        self.f.write(f"{step},{split},{env},{seed},{_fmt(ret)},{_fmt(norm)}\n")

    def offset(self) -> int:
        self.f.flush()
        return self.f.tell()

    def close(self) -> None:
        self.f.close()


def evaluate_policy(agent: Agent, config: TrainConfig, eval_rng: Rng,
                    num_episodes: int) -> list[float]:
    """Run complete episodes on test levels; returns their episodic returns.

    Uses fresh env/stack state and caller-provided rng streams so evaluation
    never perturbs training state.
    """
    vec = VecEnv(config.env, min(num_episodes, config.num_envs), "test",
                 config.num_train_levels, eval_rng.split("envs"),
                 obs_size=config.obs_size)
    stack = FrameStack(agent.hp.frames, vec.num_envs,
                       (vec.spec.obs_height, vec.spec.obs_width, 3))
    stack.reset_all(vec.reset_all())
    action_rng = eval_rng.split("actions")
    dropout_rng = eval_rng.split("dropout")
    thompson = agent.hp.algo == "vsop" and config.eval_mode == "thompson"
    returns: list[float] = []
    # Step until the num_episodes-th episode completes, and no further.
    while len(returns) < num_episodes:
        actions, _, _ = agent.select_action(
            stack.stacked(), thompson=thompson,
            action_rng=action_rng, dropout_rng=dropout_rng)
        obs, _, dones, finished = vec.step(actions)
        returns.extend(finished)
        stack.push(obs, dones)
    return returns[:num_episodes]


def _check_resume_matches(path, meta: dict, hp: AgentHyperparams,
                          config: TrainConfig) -> None:
    """Raise unless the checkpoint was written with this `hp` and `config`.

    `total_steps` is exempt: a resume may extend the budget.
    """
    diffs = []
    for section, current in (("hp", asdict(hp)), ("config", asdict(config))):
        # Compare in the JSON form the checkpoint stores (tuples read back as lists).
        current = json.loads(json.dumps(current))
        stored = meta.get(section, {})
        for key in sorted(set(stored) | set(current)):
            if section == "config" and key == "total_steps":
                continue
            if stored.get(key) != current.get(key):
                diffs.append(f"{section}.{key} (checkpoint {stored.get(key)!r}, "
                             f"now {current.get(key)!r})")
    if diffs:
        raise ValueError(f"{path}: checkpoint does not match this run: " + "; ".join(diffs))


def _check_resume_arrays(path, stored: dict[str, np.ndarray],
                         current: dict[str, np.ndarray]) -> None:
    """Raise unless the checkpoint holds exactly this run's arrays, shape for
    shape (a missing or unexpected array shows as shape None)."""
    have = {name: a.shape for name, a in stored.items()}
    want = {name: a.shape for name, a in current.items()}
    diffs = [f"{name} (checkpoint {have.get(name)}, now {want.get(name)})"
             for name in sorted(have.keys() | want.keys())
             if have.get(name) != want.get(name)]
    if diffs:
        raise ValueError(f"{path}: checkpoint arrays do not match this run: "
                         + "; ".join(diffs))


def train(config: TrainConfig, hp: AgentHyperparams, out_dir,
          resume_from=None) -> dict:
    """Run one seed to completion; returns a small summary dict.

    Artifacts in out_dir: metrics.csv, updates.json, optional checkpoints
    (ckpt_update<k>.bin). `resume_from` restores a checkpoint written by
    this function and continues as if uninterrupted.
    """
    os.makedirs(out_dir, exist_ok=True)
    horizon = config.resolved_horizon(hp)
    root = Rng(config.seed)
    agent = Agent(hp, config.obs_size, num_actions=5, rng=root.split("agent"))

    vec = VecEnv(config.env, config.num_envs, "train", config.num_train_levels,
                 root.split("train_envs"), obs_size=config.obs_size)
    spec = vec.spec
    collector = Collector(vec, hp.frames)
    eval_master = root.split("eval")

    steps_done = 0
    update_idx = 0
    next_eval = config.eval_interval
    update_log: list[dict] = []
    csv_path = os.path.join(out_dir, "metrics.csv")

    if resume_from is not None:
        meta, arrays = read_container(resume_from)
        _check_resume_matches(resume_from, meta, hp, config)
        _check_resume_arrays(resume_from, arrays,
                             {**agent.state_arrays(), "frame_stack": collector.stack.frames})
        state = meta["trainer_state"]
        agent.load_state(arrays, state["agent_rngs"])
        collector.set_state(state["vec"], arrays["frame_stack"])
        eval_master.set_state(state["eval_rng"])
        steps_done = state["steps_done"]
        update_idx = state["update_idx"]
        next_eval = state["next_eval"]
        update_log = state["update_log"]
        with open(csv_path, "r+") as f:
            f.truncate(state["csv_offset"])
        metrics = _MetricsWriter(csv_path, append=True)
    else:
        metrics = _MetricsWriter(csv_path)

    def run_eval() -> None:
        # A fresh labelled stream per eval round: deterministic, and
        # independent of how much training happened in between.
        returns = evaluate_policy(
            agent, config, eval_master.split(f"round{next_eval}"),
            config.eval_episodes)
        for r in returns:
            metrics.row(steps_done, "test", config.env, config.seed,
                        r, normalized_return(spec, r))

    def save_ckpt() -> None:
        vec_state, frame_stack = collector.get_state()
        state = {
            "steps_done": steps_done,
            "update_idx": update_idx,
            "next_eval": next_eval,
            "update_log": update_log,
            "agent_rngs": agent.rng_states(),
            "eval_rng": eval_master.get_state(),
            "vec": vec_state,
            "csv_offset": metrics.offset(),
        }
        arrays = agent.state_arrays()
        arrays["frame_stack"] = frame_stack
        write_container(
            os.path.join(out_dir, f"ckpt_update{update_idx}.bin"),
            {"trainer_state": state, "hp": asdict(hp), "config": asdict(config)},
            arrays)

    while steps_done < config.total_steps:
        buf, finished = collector.collect(agent.select_action, horizon)
        steps_done += horizon * config.num_envs
        for r in finished:
            metrics.row(steps_done, "train", config.env, config.seed,
                        r, normalized_return(spec, r))
        bootstrap = agent.value_estimate(collector.stack.stacked())
        buf.finalize(bootstrap, hp.gamma, hp.gae_lambda)
        stats = agent.update(buf)
        update_idx += 1
        update_log.append({"update": update_idx, "step": steps_done,
                           **asdict(stats)})
        while next_eval <= steps_done:
            run_eval()
            next_eval += config.eval_interval
        if config.checkpoint_interval and update_idx % config.checkpoint_interval == 0:
            save_ckpt()

    metrics.close()
    with open(os.path.join(out_dir, "updates.json"), "w") as f:
        json.dump(update_log, f, indent=1, sort_keys=True)
    return {
        "env": config.env, "seed": config.seed, "steps": steps_done,
        "updates": update_idx,
        "files": ["metrics.csv", "updates.json"] + sorted(
            p for p in os.listdir(out_dir) if p.startswith("ckpt_")),
    }
