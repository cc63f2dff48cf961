import dataclasses
import json
import os
import shutil

import numpy as np
import pytest

from deskrl import agents, tensor
from deskrl.agents import Agent, preset
from deskrl.envs import VecEnv
from deskrl.rng import Rng
from deskrl.rollout import Collector
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


def test_train_config_rejects_invalid_settings():
    # eval_interval=0 used to make train() loop forever, and eval_mode="greedy"
    # to run silently; every problem is reported in one error at construction.
    with pytest.raises(ValueError) as err:
        small_config(num_envs=0, eval_interval=0, eval_episodes=0, eval_mode="greedy")
    msg = str(err.value)
    for key in ("num_envs", "eval_interval", "eval_episodes", "eval_mode"):
        assert key in msg, key
    with pytest.raises(ValueError, match="checkpoint_interval"):
        small_config(checkpoint_interval=-1)


@pytest.mark.parametrize("field,value", [
    ("env", "pong"), ("env", None), ("seed", -1), ("seed", 1.5), ("seed", "a"),
    ("seed", 2**64), ("seed", True), ("num_envs", True), ("total_steps", None)])
def test_train_config_rejects_a_bad_cell(field, value):
    # seed=1.5 used to train and write "1.5" into metrics.csv's seed column,
    # which report.read_metrics_csv then skipped as malformed.
    with pytest.raises(ValueError, match=field):
        small_config(**{field: value})


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


def test_a_fresh_run_removes_the_checkpoints_of_an_earlier_one(tmp_path):
    # They used to stay and be listed in the summary's files, though their
    # csv offsets point into a metrics.csv the fresh run has overwritten.
    hp = dataclasses.replace(SMALL_PPO, batch_size=32)
    train(small_config(total_steps=96, eval_interval=10**9, checkpoint_interval=1), hp,
          tmp_path)
    assert sorted(p.name for p in tmp_path.glob("ckpt_*")) == \
        [f"ckpt_update{k}.bin" for k in (1, 2, 3)]
    summary = train(small_config(total_steps=64, eval_interval=10**9), hp, tmp_path)
    assert summary["updates"] == 2
    assert summary["files"] == ["metrics.csv", "updates.json"]
    assert not list(tmp_path.glob("ckpt_*"))


def test_a_resume_removes_the_checkpoints_past_its_start(tmp_path):
    # ckpt_update3.bin used to stay and be listed, though the resumed run
    # ends at update 2 and its csv offset points past the rewritten csv.
    hp = dataclasses.replace(SMALL_PPO, batch_size=32)
    cfg = small_config(total_steps=96, eval_interval=10**9, checkpoint_interval=1)
    train(cfg, hp, tmp_path)
    summary = train(dataclasses.replace(cfg, total_steps=64), hp, tmp_path,
                    resume_from=tmp_path / "ckpt_update1.bin")
    assert summary["updates"] == 2
    names = [f"ckpt_update{k}.bin" for k in (1, 2)]
    assert summary["files"] == ["metrics.csv", "updates.json"] + names
    assert sorted(p.name for p in tmp_path.glob("ckpt_*")) == names


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


def test_resume_rejects_a_metrics_csv_shorter_than_its_offset(tmp_path):
    # Truncating a short csv up to the checkpoint's offset used to pad it
    # with NUL bytes and run on; read_metrics_csv then read no rows.
    hp = dataclasses.replace(SMALL_PPO, batch_size=32)
    cfg = small_config(total_steps=96, eval_interval=10**9, checkpoint_interval=1)
    train(cfg, hp, tmp_path)
    csv = tmp_path / "metrics.csv"
    ckpt = tmp_path / "ckpt_update2.bin"
    offset = read_container(ckpt)[0]["trainer_state"]["csv_offset"]
    short = csv.read_bytes()[:40]
    assert offset > len(short)
    csv.write_bytes(short)
    with pytest.raises(ValueError) as err:
        train(cfg, hp, tmp_path, resume_from=ckpt)
    assert all(s in str(err.value) for s in (str(ckpt), str(csv), "40 bytes", str(offset)))
    assert csv.read_bytes() == short
    csv.unlink()
    with pytest.raises(ValueError, match="missing"):
        train(cfg, hp, tmp_path, resume_from=ckpt)


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


def reference_evaluate_policy(agent, config, eval_rng, num_episodes):
    """Evaluation written out by hand: act on the stacks, step the envs and
    push their frames until num_episodes episodes have completed."""
    vec = VecEnv(config.env, min(num_episodes, config.num_envs), "test",
                 config.num_train_levels, eval_rng.split("envs"),
                 obs_size=config.obs_size)
    stack = Collector(vec, agent.hp.frames).stack
    action_rng = eval_rng.split("actions")
    dropout_rng = eval_rng.split("dropout")
    thompson = config.eval_mode == "thompson"
    returns = []
    while len(returns) < num_episodes:
        actions, _, _ = agent.select_action(
            stack.stacked(), thompson=thompson,
            action_rng=action_rng, dropout_rng=dropout_rng)
        obs, _, dones, finished = vec.step(actions)
        returns.extend(finished)
        stack.push(obs, dones)
    return returns[:num_episodes]


@pytest.mark.parametrize("eval_mode", ["thompson", "mean"])
@pytest.mark.parametrize("hp", [SMALL_PPO, dataclasses.replace(SMALL_HP, frames=4)],
                         ids=["ppo-1frame", "vsop-4frames"])
def test_evaluate_policy_matches_the_loop_written_out(hp, eval_mode):
    agent = Agent(hp, obs_size=16, num_actions=5, rng=Rng(0))
    cfg = small_config(env="blink_door", num_envs=3, eval_mode=eval_mode)
    got = evaluate_policy(agent, cfg, Rng(5).split("eval"), num_episodes=5)
    assert len(got) == 5
    assert got == reference_evaluate_policy(agent, cfg, Rng(5).split("eval"), 5)


def test_vsop_evaluation_samples_dropout_only_in_thompson_mode(monkeypatch):
    calls = []
    dropout = tensor.dropout

    def counting(*args):
        calls.append(1)
        return dropout(*args)

    monkeypatch.setattr(tensor, "dropout", counting)
    agent = Agent(SMALL_HP, obs_size=16, num_actions=5, rng=Rng(0))
    evaluate_policy(agent, small_config(eval_mode="mean"), Rng(5).split("eval"), 2)
    assert not calls
    evaluate_policy(agent, small_config(eval_mode="thompson"), Rng(5).split("eval"), 2)
    assert calls


def test_failed_cell_leaves_its_rows_on_disk(tmp_path, monkeypatch):
    # The rows must reach the disk while the exception is still held: a
    # worker process that ends in os._exit never releases it.
    update = agents.Agent.update
    calls = []

    def update_then_fail(self, buf):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("update 2 failed")
        return update(self, buf)

    monkeypatch.setattr(agents.Agent, "update", update_then_fail)
    cfg = small_config(total_steps=768)  # evaluates after update 1
    with pytest.raises(RuntimeError, match="update 2 failed") as err:
        train(cfg, SMALL_PPO, tmp_path)
    rows = read_rows(tmp_path / "metrics.csv")
    assert err.value is not None
    assert [r[0] for r in rows if r[1] == "test"] == ["256"] * cfg.eval_episodes
