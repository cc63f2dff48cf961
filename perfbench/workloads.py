"""The benchmark's three workloads, each a fixed job built from the seed.

A workload object is created in a fresh process from (seed, work dir). Its
`run` drives deskrl only through public functions and returns the
operations it attempted and those that failed; `check` then verifies the
job's outputs with the independent checks in `checks.py`; `artifact_paths`
names the deterministic outputs whose hash must repeat.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil

import yaml

from deskrl import cli, trainer
from deskrl.agents import Agent, preset
from deskrl.envs import ENV_REGISTRY, normalized_return
from deskrl.rng import Rng

import checks

GAMES = ("chase_dot", "blink_door", "corridor_dodge")
OBS_SIZE = 16
NUM_ACTIONS = 5
EVAL_OFF = 10**9  # an eval interval no job reaches


def derive_seed(workload: str, seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


def score_bounds() -> dict:
    specs = {g: ENV_REGISTRY[g].spec(OBS_SIZE) for g in GAMES}
    return {g: (s.score_min, s.score_max) for g, s in specs.items()}


def read_json(path):
    with open(path) as f:
        return json.load(f)


class Ops:
    """Counts the job's operations; a failed one is recorded, not raised."""

    def __init__(self):
        self.attempted = 0
        self.errors: list[str] = []

    def run(self, name: str, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # the job goes on; the failure is counted
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return None


class GridPPO2D:
    """`deskrl train` over 3 games x 2 seeds of `ppo`, then aggregate and resume.

    Every cell runs 2 updates of batch 32 on 8 envs, and after each update
    evaluates 8 held-out episodes on 8 envs and writes a checkpoint.
    """

    name = "grid_ppo2d"
    BATCH = 32
    UPDATES = 2
    EVAL_EPISODES = 8

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        self.seeds = [derive_seed(self.name, seed, i) for i in range(2)]
        self.run_dir = os.path.join(workdir, "grid")
        self.report_dir = os.path.join(workdir, "report")
        self.resume_dir = os.path.join(workdir, "resume")
        self.rerun_dir = os.path.join(workdir, "rerun")
        self.config_path = os.path.join(workdir, "grid.yaml")
        with open(self.config_path, "w") as f:
            yaml.safe_dump({
                "preset": "ppo", "envs": list(GAMES), "seeds": self.seeds,
                "total_steps": self.BATCH * self.UPDATES,
                "eval_interval": self.BATCH, "eval_episodes": self.EVAL_EPISODES,
                "checkpoint_interval": 1, "obs_size": OBS_SIZE,
                "hyperparam_overrides": {"batch_size": self.BATCH},
                "output_dir": self.run_dir}, f)
        self.resume_cell = (GAMES[0], self.seeds[0])

    def cell_dir(self, env: str, seed: int) -> str:
        return os.path.join(self.run_dir, env, f"seed{seed}")

    def train_config(self, cfg, env: str, seed: int):
        return trainer.TrainConfig(
            env=env, seed=seed, total_steps=cfg.total_steps, num_envs=cfg.num_envs,
            num_train_levels=cfg.num_train_levels, eval_interval=cfg.eval_interval,
            eval_episodes=cfg.eval_episodes, eval_mode=cfg.eval_mode,
            obs_size=cfg.obs_size, checkpoint_interval=cfg.checkpoint_interval)

    def run(self, ops: Ops) -> None:
        self.cfg = cli.load_run_config(self.config_path)
        try:
            cli.run_training(self.cfg, quiet=True)
        except Exception as exc:  # cells that did not finish count as failed
            ops.errors.append(f"run_training: {type(exc).__name__}: {exc}")
        status = read_json(os.path.join(self.run_dir, "manifest.json"))["status"]
        for cell, state in sorted(status.items()):
            ops.attempted += 1
            if state != "done":
                ops.errors.append(f"cell {cell}: {state}")
        ops.run("aggregate", self._aggregate)
        ops.run("resume", self._resume)

    def _aggregate(self) -> None:
        rc = cli.main(["aggregate", f"ppo={self.run_dir}", "--out", self.report_dir])
        if rc != 0:
            raise RuntimeError(f"deskrl aggregate exited {rc}")

    def _resume(self) -> None:
        env, seed = self.resume_cell
        src = self.cell_dir(env, seed)
        os.makedirs(self.resume_dir)
        for name in ("ckpt_update1.bin", "metrics.csv"):
            shutil.copyfile(os.path.join(src, name), os.path.join(self.resume_dir, name))
        trainer.train(self.train_config(self.cfg, env, seed), self.cfg.hyperparams(),
                      self.resume_dir,
                      resume_from=os.path.join(self.resume_dir, "ckpt_update1.bin"))

    def _rerun(self) -> list[str]:
        """Train the resume cell again from scratch; its bytes must repeat.

        A job takes most of a run, so a run rarely has two jobs whose
        hashes could be compared; this covers determinism within the job.
        """
        env, seed = self.resume_cell
        try:
            trainer.train(self.train_config(self.cfg, env, seed), self.cfg.hyperparams(),
                          self.rerun_dir)
        except Exception as exc:
            return [f"rerun: {type(exc).__name__}: {exc}"]
        return checks.check_same_bytes(self.cell_dir(env, seed), self.rerun_dir,
                                       ("metrics.csv", "updates.json"), "rerun")

    def agent_for_conv_check(self):
        return Agent(self.cfg.hyperparams(), OBS_SIZE, NUM_ACTIONS,
                     Rng(self.seeds[0]).split("agent"))

    def artifact_paths(self) -> list[str]:
        paths = [os.path.join(self.cell_dir(e, s), n)
                 for e in GAMES for s in self.seeds for n in ("metrics.csv", "updates.json")]
        paths += [os.path.join(self.report_dir, "report.json"),
                  os.path.join(self.resume_dir, "metrics.csv"),
                  os.path.join(self.resume_dir, "updates.json")]
        return paths

    def check(self) -> list[str]:
        bounds = score_bounds()
        problems = []
        csvs = {}
        for e in GAMES:
            for s in self.seeds:
                d = self.cell_dir(e, s)
                csvs[(e, s)] = os.path.join(d, "metrics.csv")
                problems += checks.check_metrics_csv_bounds(csvs[(e, s)], bounds)
                problems += checks.check_counts(
                    read_json(os.path.join(d, "updates.json")),
                    self.cfg.total_steps, self.BATCH, d)
        report = read_json(os.path.join(self.report_dir, "report.json"))
        problems += checks.check_aggregate(report, "ppo", csvs)
        problems += checks.check_same_bytes(
            self.cell_dir(*self.resume_cell), self.resume_dir,
            ("metrics.csv", "updates.json"), "resume")
        problems += self._rerun()
        return problems


class TrainVSOP3D:
    """One `vsop3d` cell on chase_dot: 1 update of batch 64, no eval, no checkpoints.

    Two minibatches of 32, the minibatch of the profile behind ROADMAP's
    baseline; the preset's batch of 2048 would take minutes a job.
    """

    name = "train_vsop3d"
    BATCH = 64
    MINIBATCHES = 2
    UPDATES = 1

    def __init__(self, seed: int, workdir: str):
        self.cell_dir = os.path.join(workdir, "cell")
        self.hp = dataclasses.replace(preset("vsop3d"), batch_size=self.BATCH,
                                      num_minibatches=self.MINIBATCHES)
        self.config = trainer.TrainConfig(
            env="chase_dot", seed=derive_seed(self.name, seed, 0),
            total_steps=self.BATCH * self.UPDATES, num_envs=8,
            eval_interval=EVAL_OFF, checkpoint_interval=0, obs_size=OBS_SIZE)

    def run(self, ops: Ops) -> None:
        ops.run("train", trainer.train, self.config, self.hp, self.cell_dir)

    def agent_for_conv_check(self):
        return Agent(self.hp, OBS_SIZE, NUM_ACTIONS, Rng(self.config.seed).split("agent"))

    def artifact_paths(self) -> list[str]:
        return [os.path.join(self.cell_dir, n) for n in ("metrics.csv", "updates.json")]

    def check(self) -> list[str]:
        problems = checks.check_metrics_csv_bounds(
            os.path.join(self.cell_dir, "metrics.csv"), score_bounds())
        problems += checks.check_counts(
            read_json(os.path.join(self.cell_dir, "updates.json")),
            self.config.total_steps, self.BATCH, self.cell_dir)
        return problems


class EvalVSOP3D:
    """Held-out evaluation of a fixed-seed `vsop3d` agent with Thompson dropout.

    One episode per game on one env. The agent, the held-out levels and the
    eval streams are fixed: an episode's length follows from every draw
    that touches its trajectory, and the job's work is the sum of those
    lengths, so a seed-dependent draw would make the job's size, not the
    program's speed, vary from run to run.
    """

    name = "eval_vsop3d"
    AGENT_SEED = 0
    EVAL_SEED = 1

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        self.hp = preset("vsop3d")
        self.returns: dict[str, list[float]] = {}

    def config(self, game: str):
        return trainer.TrainConfig(env=game, seed=self.AGENT_SEED, total_steps=1,
                                   num_envs=1, eval_episodes=1, obs_size=OBS_SIZE)

    def run(self, ops: Ops) -> None:
        self.agent = Agent(self.hp, OBS_SIZE, NUM_ACTIONS,
                           Rng(self.AGENT_SEED).split("agent"))
        for game in GAMES:
            got = ops.run(game, trainer.evaluate_policy, self.agent, self.config(game),
                          Rng(self.EVAL_SEED).split(f"heldout:{game}"), 1)
            if got is not None:
                self.returns[game] = got
        with open(os.path.join(self.workdir, "eval_returns.json"), "w") as f:
            json.dump(self.returns, f, sort_keys=True)

    def agent_for_conv_check(self):
        return self.agent

    def artifact_paths(self) -> list[str]:
        return [os.path.join(self.workdir, "eval_returns.json")]

    def check(self) -> list[str]:
        problems = []
        for game, rets in self.returns.items():
            spec = ENV_REGISTRY[game].spec(OBS_SIZE)
            if len(rets) != 1:
                problems.append(f"eval {game}: {len(rets)} returns, expected 1")
            problems += checks.check_bounds(
                rets, [normalized_return(spec, r) for r in rets],
                spec.score_min, spec.score_max, f"eval {game}")
        return problems


WORKLOADS = {w.name: w for w in (GridPPO2D, TrainVSOP3D, EvalVSOP3D)}
