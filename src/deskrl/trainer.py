"""The per-seed training loop: collect, GAE, update, periodic evaluation.

Alternates fixed-horizon collection with policy updates until the step
budget is exhausted, evaluating on held-out test levels at fixed step
intervals. Writes a metrics CSV (one row per completed episode, train and
eval) plus a JSON sidecar of per-update statistics, and can checkpoint and
resume on update boundaries with bit-identical continuation.

`CellSettings` declares the settings all cells of a run share: `TrainConfig`
adds a cell's `env` and `seed`, the CLI's `RunConfig` the run grid. Each
checks every field however it is built (YAML, API call or `replace`) and
raises one `ValueError` listing every problem, so none reaches `train()`.

Checkpoints are deskrl's one checkpoint format. Before it loads anything or
touches `metrics.csv`, resume rejects a checkpoint whose `hp`/`config`
(bar `total_steps`) or whose array names and shapes differ from this run's,
or whose csv offset lies past the end of `metrics.csv`.

Evaluation keeps VSOP's dropout sampling active by default (the acting
policy is the Thompson-sampling policy); `eval_mode="mean"` switches to
deterministic eval-mode forwards for ablation.
"""

from __future__ import annotations

import functools
import json
import os
import re
from dataclasses import asdict, dataclass, fields

import numpy as np

from .agents import Agent, AgentHyperparams, is_int
from .envs import ENV_REGISTRY, GRID, NUM_ACTIONS, VecEnv, normalized_return
from .rng import Rng
from .rollout import Collector
from .serialize import atomic_write, read_container, write_container

__all__ = ["CellSettings", "TrainConfig", "grid_problems", "train", "evaluate_policy",
           "METRICS_COLUMNS"]

METRICS_COLUMNS = ("step", "split", "env", "seed", "episodic_return", "normalized_return")
_CHECKPOINT_NAME = re.compile(r"ckpt_update(\d+)\.bin")
_POSITIVE_INT_SETTINGS = ("total_steps", "num_envs", "num_train_levels",
                          "eval_interval", "eval_episodes", "obs_size")


def grid_problems(envs: list, seeds: list) -> list[str]:
    """Every problem with the (env, seed) cells of `envs` x `seeds`: each must
    be a non-empty list of distinct registered envs or ints in [0, 2**64)."""
    problems = []
    for name, cells, ok, rule in (
            ("envs", envs, lambda e: isinstance(e, str) and e in ENV_REGISTRY,
             f"unknown env {{!r}}; known: {sorted(ENV_REGISTRY)}"),
            ("seeds", seeds, lambda s: is_int(s) and 0 <= s < 2**64,
             "seed {!r} must be an integer in [0, 2**64)")):
        if not cells or not isinstance(cells, list):
            problems.append(f"missing required field: {name} (non-empty list)")
        elif not all(map(ok, cells)):
            problems += [rule.format(c) for c in cells if not ok(c)]
        elif len(set(cells)) != len(cells):
            problems.append(f"{name} must be distinct")
    return problems


@dataclass(kw_only=True)
class CellSettings:
    """The settings every cell of a run shares, checked when they are built."""

    total_steps: int = None  # required: None fails the check
    num_envs: int = 8
    num_train_levels: int = 50
    eval_interval: int = 8192
    eval_episodes: int = 10
    eval_mode: str = "thompson"  # "thompson" | "mean"
    obs_size: int = 16
    checkpoint_interval: int = 0  # updates between checkpoints; 0 disables

    def __post_init__(self) -> None:
        problems = self.problems()
        if problems:
            raise ValueError(f"invalid {type(self).__name__}: " + "; ".join(problems))

    def problems(self) -> list[str]:
        v = vars(self)
        problems = [f"{key} must be a positive integer" for key in _POSITIVE_INT_SETTINGS
                    if not is_int(v[key]) or v[key] <= 0]
        if is_int(self.obs_size) and self.obs_size % GRID:
            problems.append(f"obs_size must be a multiple of {GRID}")
        if not is_int(self.checkpoint_interval) or self.checkpoint_interval < 0:
            problems.append("checkpoint_interval must be a non-negative integer")
        if self.eval_mode not in ("thompson", "mean"):
            problems.append("eval_mode must be 'thompson' or 'mean'")
        return problems

    def cell_settings(self) -> dict:  # to build each cell's TrainConfig
        return {f.name: getattr(self, f.name) for f in fields(CellSettings)}


@dataclass(kw_only=True)
class TrainConfig(CellSettings):
    env: str
    seed: int

    def problems(self) -> list[str]:
        return super().problems() + grid_problems([self.env], [self.seed])

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

    Acts through `Collector.step`, as training collection does, on a fresh
    env and stack with caller-provided rng streams, so evaluation builds its
    frame stacks the way training does and never perturbs training state.
    """
    vec = VecEnv(config.env, min(num_episodes, config.num_envs), "test",
                 config.num_train_levels, eval_rng.split("envs"),
                 obs_size=config.obs_size)
    collector = Collector(vec, agent.hp.frames)
    select_action = functools.partial(
        agent.select_action, thompson=config.eval_mode == "thompson",
        action_rng=eval_rng.split("actions"), dropout_rng=eval_rng.split("dropout"))
    returns: list[float] = []
    # Step until the num_episodes-th episode completes, and no further.
    while len(returns) < num_episodes:
        returns.extend(collector.step(select_action)[-1])
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


def _check_resume_csv(path, csv_path, offset: int) -> None:
    """Raise unless `csv_path` holds at least the checkpoint's `offset` bytes;
    truncating a shorter file to the offset would pad it with NUL bytes."""
    size = os.path.getsize(csv_path) if os.path.exists(csv_path) else None
    if size is None or size < offset:
        found = "missing" if size is None else f"{size} bytes"
        raise ValueError(f"{path}: checkpoint csv offset {offset} lies past the end "
                         f"of {csv_path} ({found})")


def train(config: TrainConfig, hp: AgentHyperparams, out_dir,
          resume_from=None) -> dict:
    """Run one seed to completion; returns a small summary dict.

    Artifacts in out_dir: metrics.csv, updates.json, optional checkpoints
    (ckpt_update<k>.bin). `resume_from` restores a checkpoint written by
    this function and continues as if uninterrupted. A run first removes
    the checkpoints an earlier run left in out_dir past its own start (all
    of them, for a fresh run), whose csv offsets point into the metrics.csv
    it rewrites.
    """
    horizon = config.resolved_horizon(hp)
    os.makedirs(out_dir, exist_ok=True)
    root = Rng(config.seed)
    agent = Agent(hp, config.obs_size, NUM_ACTIONS, root.split("agent"))

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

    def ckpt_arrays() -> dict[str, np.ndarray]:
        return {**agent.state_arrays(), "frame_stack": collector.stack.frames}

    if resume_from is not None:
        meta, arrays = read_container(resume_from)
        _check_resume_matches(resume_from, meta, hp, config)
        _check_resume_arrays(resume_from, arrays, ckpt_arrays())
        state = meta["trainer_state"]
        _check_resume_csv(resume_from, csv_path, state["csv_offset"])
        agent.load_state(arrays, state["agent_rngs"])
        vec.set_state(state["vec"])
        collector.stack.frames = arrays["frame_stack"]
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
    # Checkpoints past this run's start belong to an earlier run: their csv
    # offsets point into the metrics.csv this run rewrites.
    for name in os.listdir(out_dir):
        found = _CHECKPOINT_NAME.fullmatch(name)
        if found and (resume_from is None or int(found[1]) > update_idx):
            os.remove(os.path.join(out_dir, name))

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
        state = {
            "steps_done": steps_done,
            "update_idx": update_idx,
            "next_eval": next_eval,
            "update_log": update_log,
            "agent_rngs": agent.rng_states(),
            "eval_rng": eval_master.get_state(),
            "vec": vec.get_state(),
            "csv_offset": metrics.offset(),
        }
        write_container(
            os.path.join(out_dir, f"ckpt_update{update_idx}.bin"),
            {"trainer_state": state, "hp": asdict(hp), "config": asdict(config)},
            ckpt_arrays())

    # Closed however the loop ends, so a failed cell's rows reach the disk
    # even while its exception is still held.
    try:
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
    finally:
        metrics.close()
    with atomic_write(os.path.join(out_dir, "updates.json")) as f:
        json.dump(update_log, f, indent=1, sort_keys=True)
    return {
        "env": config.env, "seed": config.seed, "steps": steps_done,
        "updates": update_idx,
        "files": ["metrics.csv", "updates.json"] + sorted(
            filter(_CHECKPOINT_NAME.fullmatch, os.listdir(out_dir))),
    }
