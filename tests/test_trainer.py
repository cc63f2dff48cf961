import dataclasses
import json
import os
import shutil

import numpy as np
import pytest

from deskrl.agents import Agent, preset
from deskrl.envs import VecEnv
from deskrl.rng import Rng
from deskrl.serialize import read_container, write_container
from deskrl.trainer import METRICS_COLUMNS, TrainConfig, evaluate_policy, train

SMALL_HP = dataclasses.replace(preset("vsop"), batch_size=256)
SMALL_PPO = dataclasses.replace(preset("ppo"), batch_size=256)


def small_config(**over):
    base = dict(env="chase_dot", seed=123, total_steps=512, num_envs=8,
                num_train_levels=10, eval_interval=256, eval_episodes=4,
                obs_size=16)
    base.update(over)
    return TrainConfig(**base)


def read_rows(path):
    with open(path) as f:
        header = f.readline().strip().split(",")
        assert tuple(header) == METRICS_COLUMNS
        return [line.strip().split(",") for line in f]


def test_horizon_must_tile_batch():
    cfg = small_config(num_envs=7)
    with pytest.raises(ValueError, match="horizon"):
        cfg.resolved_horizon(SMALL_HP)
    assert small_config().resolved_horizon(SMALL_HP) == 32


def test_train_writes_metrics_and_update_log(tmp_path):
    out = tmp_path / "run"
    summary = train(small_config(), SMALL_HP, out)
    assert summary["steps"] == 512 and summary["updates"] == 2
    rows = read_rows(out / "metrics.csv")
    splits = {r[1] for r in rows}
    assert splits == {"train", "test"}
    test_rows = [r for r in rows if r[1] == "test"]
    assert len(test_rows) == 2 * 4  # two eval rounds x eval_episodes
    for r in rows:
        assert r[2] == "chase_dot" and int(r[3]) == 123
        assert 0.0 <= float(r[5]) <= 1.0
    log = json.loads((out / "updates.json").read_text())
    assert [u["update"] for u in log] == [1, 2]
    assert all(np.isfinite(u["policy_loss"]) for u in log)


def test_train_is_byte_deterministic(tmp_path):
    train(small_config(), SMALL_HP, tmp_path / "a")
    train(small_config(), SMALL_HP, tmp_path / "b")
    assert (tmp_path / "a" / "metrics.csv").read_bytes() == \
        (tmp_path / "b" / "metrics.csv").read_bytes()
    assert (tmp_path / "a" / "updates.json").read_bytes() == \
        (tmp_path / "b" / "updates.json").read_bytes()


def test_different_seeds_produce_different_runs(tmp_path):
    train(small_config(seed=1), SMALL_HP, tmp_path / "a")
    train(small_config(seed=2), SMALL_HP, tmp_path / "b")
    assert (tmp_path / "a" / "metrics.csv").read_bytes() != \
        (tmp_path / "b" / "metrics.csv").read_bytes()


def test_resume_from_checkpoint_is_bit_identical(tmp_path):
    # uninterrupted reference run: 2 updates with a checkpoint after each
    ref = tmp_path / "ref"
    train(small_config(checkpoint_interval=1), SMALL_HP, ref)

    # interrupted run: stop after update 1, then resume to the full budget
    part = tmp_path / "part"
    train(small_config(total_steps=256, checkpoint_interval=1), SMALL_HP, part)
    assert (part / "ckpt_update1.bin").exists()
    train(small_config(checkpoint_interval=1), SMALL_HP, part,
          resume_from=part / "ckpt_update1.bin")

    assert (ref / "metrics.csv").read_bytes() == (part / "metrics.csv").read_bytes()
    assert (ref / "updates.json").read_bytes() == (part / "updates.json").read_bytes()
    assert (ref / "ckpt_update2.bin").read_bytes() == \
        (part / "ckpt_update2.bin").read_bytes()


def test_resume_rejects_a_checkpoint_from_another_config(tmp_path):
    run = tmp_path / "run"
    cfg = small_config(total_steps=256, eval_interval=10**9, checkpoint_interval=1)
    train(cfg, SMALL_PPO, run)
    ckpt = run / "ckpt_update1.bin"
    with pytest.raises(ValueError, match=r"config\.env .*chase_dot.*blink_door"):
        train(dataclasses.replace(cfg, env="blink_door"), SMALL_PPO, run, resume_from=ckpt)
    with pytest.raises(ValueError, match=r"hp\.learning_rate"):
        train(cfg, dataclasses.replace(SMALL_PPO, learning_rate=1.0), run, resume_from=ckpt)
    with pytest.raises(ValueError) as err:
        train(dataclasses.replace(cfg, seed=124, num_envs=4, total_steps=512), SMALL_PPO,
              run, resume_from=ckpt)
    assert "config.seed" in str(err.value) and "config.num_envs" in str(err.value)
    assert "total_steps" not in str(err.value)


def test_resume_rejects_misshapen_arrays(tmp_path):
    run = tmp_path / "run"
    cfg = small_config(total_steps=256, eval_interval=10**9, checkpoint_interval=1)
    train(cfg, SMALL_PPO, run)
    meta, arrays = read_container(run / "ckpt_update1.bin")
    csv_before = (run / "metrics.csv").read_bytes()

    def edited(name, edit):
        changed = dict(arrays)
        edit(changed)
        path = tmp_path / f"{name}.bin"
        write_container(path, meta, changed)
        return path

    cases = {
        "trunk.bias": lambda a: a.update({"trunk.bias": a["trunk.bias"][:-1]}),
        "stage0.entry.kernel": lambda a: a.pop("stage0.entry.kernel"),
        "junk": lambda a: a.update({"junk": np.zeros(3)}),
    }
    for name, edit in cases.items():
        path = edited(name, edit)
        with pytest.raises(ValueError) as err:
            train(cfg, SMALL_PPO, run, resume_from=path)
        assert str(path) in str(err.value) and f"{name} (" in str(err.value)
        assert (run / "metrics.csv").read_bytes() == csv_before


def test_evaluate_policy_uses_test_split_and_is_repeatable():
    agent = Agent(SMALL_PPO, obs_size=16, num_actions=5, rng=Rng(0))
    cfg = small_config()
    r1 = evaluate_policy(agent, cfg, Rng(5).split("eval"), num_episodes=6)
    r2 = evaluate_policy(agent, cfg, Rng(5).split("eval"), num_episodes=6)
    assert len(r1) == 6
    assert r1 == r2
    r3 = evaluate_policy(agent, cfg, Rng(6).split("eval"), num_episodes=6)
    assert r1 != r3  # different eval levels/streams


def test_evaluate_policy_does_not_perturb_training_streams(tmp_path):
    # Training with eval rounds and training with eval disabled must produce
    # identical training rows: evaluation draws only from its own streams.
    a = tmp_path / "with_eval"
    b = tmp_path / "no_eval"
    train(small_config(), SMALL_HP, a)
    train(small_config(eval_interval=10**9), SMALL_HP, b)
    rows_a = [r for r in read_rows(a / "metrics.csv") if r[1] == "train"]
    rows_b = [r for r in read_rows(b / "metrics.csv") if r[1] == "train"]
    assert rows_a == rows_b


def test_evaluate_policy_stops_at_the_last_episode(monkeypatch):
    # With one env and one episode, the step that ends the episode is the
    # last step evaluation takes.
    dones = []
    step = VecEnv.step

    def spy(self, actions):
        out = step(self, actions)
        dones.append(bool(out[2][0]))
        return out

    monkeypatch.setattr(VecEnv, "step", spy)
    agent = Agent(SMALL_PPO, obs_size=16, num_actions=5, rng=Rng(0))
    cfg = small_config(env="corridor_dodge", num_envs=1)
    assert len(evaluate_policy(agent, cfg, Rng(5).split("eval"), num_episodes=1)) == 1
    assert dones[-1] and not any(dones[:-1])
