import dataclasses
import json
import math
import os
import types

import numpy as np
import pytest

from deskrl import tensor as T
from deskrl.agents import PRESETS, Agent, AgentHyperparams, preset
from deskrl.networks import PolicyValueOutput
from deskrl.rng import Rng
from deskrl.rollout import RolloutBuffer
from deskrl.tensor import Tensor

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "presets_golden.json")


# -- presets -----------------------------------------------------------------

def test_presets_match_golden_file():
    with open(GOLDEN) as f:
        golden = json.load(f)
    current = {name: dataclasses.asdict(hp) for name, hp in PRESETS.items()}
    assert current == golden


def test_preset_lookup():
    assert preset("vsop3d").frames == 8
    with pytest.raises(KeyError):
        preset("dqn")


def test_all_presets_validate():
    # replace() rebuilds each preset, re-running every check.
    for hp in PRESETS.values():
        assert dataclasses.replace(hp) == hp


def test_ppo_forbids_dropout_and_requires_clip():
    with pytest.raises(ValueError, match="dropout"):
        dataclasses.replace(preset("ppo"), dropout_rate=0.1)
    with pytest.raises(ValueError, match="clip"):
        dataclasses.replace(preset("ppo"), clip_coeff=None)


def test_vsop_forbids_ppo_only_fields():
    with pytest.raises(ValueError, match="clipping"):
        dataclasses.replace(preset("vsop"), clip_coeff=0.2)
    with pytest.raises(ValueError, match="normalize"):
        dataclasses.replace(preset("vsop"), normalize_advantages=True)
    with pytest.raises(ValueError, match="value loss"):
        dataclasses.replace(preset("vsop"), clip_value_loss=True)


def test_minibatch_split_must_be_even():
    with pytest.raises(ValueError, match="minibatch"):
        dataclasses.replace(preset("ppo"), batch_size=100, num_minibatches=3)
    assert preset("ppo").minibatch_size == 2048 // 8


def test_construction_reports_every_problem_at_once():
    with pytest.raises(ValueError) as err:
        dataclasses.replace(preset("vsop"), frames=0, gamma=2.0, learning_rate=0.0)
    msg = str(err.value)
    assert msg.count("invalid AgentHyperparams") == 1
    for frag in ("frames must be a positive integer", "gamma must lie in [0, 1]",
                 "learning_rate must be > 0"):
        assert frag in msg, frag


@pytest.mark.parametrize("name,field,value", [
    ("vsop", "algo", "dqn"), ("vsop", "conv_kind", "conv4d"),
    ("vsop", "width_multiplier", 0), ("vsop", "batch_size", 0),
    ("vsop", "epochs_per_update", 0), ("vsop", "num_minibatches", 0),
    ("vsop", "frames", 1.5), ("vsop", "gamma", -0.1), ("vsop", "gae_lambda", 1.5),
    ("vsop", "max_grad_norm", 0.0), ("vsop", "dropout_rate", 1.0),
    ("vsop", "learning_rate", float("nan")), ("vsop", "entropy_coeff", -1.0),
    ("vsop", "value_loss_coeff", "x"), ("ppo", "clip_coeff", -0.2),
    # a bool is not a number (YAML 1.1 reads `yes` as True), and the two
    # switches must be bools
    ("ppo", "frames", True), ("ppo", "learning_rate", True), ("ppo", "clip_coeff", True),
    ("ppo", "normalize_advantages", "yes"), ("ppo", "clip_value_loss", 1)])
def test_construction_rejects_each_bad_field(name, field, value):
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(preset(name), **{field: value})


# -- loss oracles ------------------------------------------------------------

def scalar_log_softmax(row):
    m = max(row)
    z = sum(math.exp(v - m) for v in row)
    return [v - m - math.log(z) for v in row]


def make_minibatch():
    logits = [[0.2, -0.1, 0.3, 0.0, -0.4], [0.0, 0.5, -0.5, 0.1, 0.2]]
    mb = {
        "actions": np.array([2, 0]),
        "logprobs": np.array([-1.0, -1.2]),
        "advantages": np.array([1.5, -0.7]),
        "returns": np.array([0.9, -0.3]),
        "values": np.array([0.7, -0.1]),
    }
    new_values = [1.0, 0.2]
    return logits, mb, new_values


def build_out(logits, new_values):
    lt = Tensor(np.array(logits), requires_grad=True)
    vt = Tensor(np.array(new_values), requires_grad=True)
    return PolicyValueOutput(logits=lt, value=vt)


def hand_ppo(logits, mb, new_values, c=0.2, vcoef=0.5, ecoef=1e-2):
    n = len(logits)
    adv = list(mb["advantages"])
    mean_a = sum(adv) / n
    std_a = math.sqrt(sum((a - mean_a) ** 2 for a in adv) / n)
    adv = [(a - mean_a) / (std_a + 1e-8) for a in adv]
    pl, vl, ent = 0.0, 0.0, 0.0
    for i in range(n):
        lp = scalar_log_softmax(logits[i])
        new_lp = lp[mb["actions"][i]]
        ratio = math.exp(new_lp - mb["logprobs"][i])
        clipped = min(max(ratio, 1 - c), 1 + c)
        pl -= min(ratio * adv[i], clipped * adv[i]) / n
        err = (new_values[i] - mb["returns"][i]) ** 2
        v_clip = mb["values"][i] + min(max(new_values[i] - mb["values"][i], -c), c)
        err = max(err, (v_clip - mb["returns"][i]) ** 2)
        vl += 0.5 * err / n
        ent -= sum(math.exp(v) * v for v in lp) / n
    return pl, vl, pl + vcoef * vl - ecoef * ent


def hand_vsop(logits, mb, new_values, vcoef=0.5, ecoef=1e-5):
    n = len(logits)
    pl, vl, ent = 0.0, 0.0, 0.0
    for i in range(n):
        lp = scalar_log_softmax(logits[i])
        pl -= max(mb["advantages"][i], 0.0) * lp[mb["actions"][i]] / n
        vl += 0.5 * (new_values[i] - mb["returns"][i]) ** 2 / n
        ent -= sum(math.exp(v) * v for v in lp) / n
    return pl, vl, pl + vcoef * vl - ecoef * ent


def run_losses(hp, logits, mb, new_values):
    out = build_out(logits, new_values)
    new_lp = T.categorical_logprob(out.logits, mb["actions"])
    ns = types.SimpleNamespace(hp=hp)
    if hp.algo == "ppo":
        pl, vl = Agent._ppo_losses(ns, out, new_lp, mb)
    else:
        pl, vl = Agent._vsop_losses(ns, out, new_lp, mb)
    ent = T.tmean(T.softmax_entropy(out.logits))
    total = (pl.item() + hp.value_loss_coeff * vl.item()
             - hp.entropy_coeff * ent.item())
    return out, pl, vl, total


def test_ppo_losses_match_hand_computation():
    logits, mb, new_values = make_minibatch()
    _, pl, vl, total = run_losses(preset("ppo"), logits, mb, new_values)
    ref_pl, ref_vl, ref_total = hand_ppo(logits, mb, new_values)
    assert abs(pl.item() - ref_pl) < 1e-10
    assert abs(vl.item() - ref_vl) < 1e-10
    assert abs(total - ref_total) < 1e-10


def test_vsop_losses_match_hand_computation():
    logits, mb, new_values = make_minibatch()
    _, pl, vl, total = run_losses(preset("vsop"), logits, mb, new_values)
    ref_pl, ref_vl, ref_total = hand_vsop(logits, mb, new_values)
    assert abs(pl.item() - ref_pl) < 1e-10
    assert abs(vl.item() - ref_vl) < 1e-10
    assert abs(total - ref_total) < 1e-10


def test_ppo_unit_ratio_gives_near_zero_policy_loss():
    logits, mb, new_values = make_minibatch()
    lp_rows = [scalar_log_softmax(r) for r in logits]
    mb["logprobs"] = np.array([lp_rows[0][2], lp_rows[1][0]])  # ratio exactly 1
    _, pl, _, _ = run_losses(preset("ppo"), logits, mb, new_values)
    # normalized advantages have mean ~0, so -mean(1 * adv) ~ 0
    assert abs(pl.item()) < 1e-8


def test_vsop_negative_advantages_contribute_zero_policy_gradient():
    logits, mb, new_values = make_minibatch()
    mb["advantages"] = np.array([2.0, -1.0])  # sample 1 gated off
    out = build_out(logits, new_values)
    new_lp = T.categorical_logprob(out.logits, mb["actions"])
    ns = types.SimpleNamespace(hp=preset("vsop"))
    pl, _ = Agent._vsop_losses(ns, out, new_lp, mb)
    pl.backward()
    assert np.all(out.logits.grad[1] == 0.0)  # exactly zero, not just small
    assert np.any(out.logits.grad[0] != 0.0)


def test_vsop_all_negative_advantages_policy_loss_is_zero():
    logits, mb, new_values = make_minibatch()
    mb["advantages"] = np.array([-0.5, -2.0])
    _, pl, _, _ = run_losses(preset("vsop"), logits, mb, new_values)
    assert pl.item() == 0.0


def test_ppo_clip_binds_only_outside_band():
    # Single sample with ratio far above 1+c and positive advantage: the
    # clipped branch wins, so the surrogate is (1+c) * adv.
    logits = [[5.0, 0.0, 0.0, 0.0, 0.0]]
    mb = {"actions": np.array([0]), "logprobs": np.array([-5.0]),
          "advantages": np.array([2.0]), "returns": np.array([0.0]),
          "values": np.array([0.0])}
    hp = dataclasses.replace(preset("ppo"), normalize_advantages=False,
                             clip_value_loss=False)
    _, pl, _, _ = run_losses(hp, logits, mb, [0.0])
    assert pl.item() == pytest.approx(-(1 + 0.2) * 2.0, abs=1e-12)


# -- agent behaviour ---------------------------------------------------------

def small_hp(name):
    return dataclasses.replace(preset(name), batch_size=16, num_minibatches=2)


def stacked_obs(frames, n=4):
    return Rng(3).random((n, frames, 16, 16, 3))


def test_ppo_action_selection_is_deterministic_eval_mode():
    agent = Agent(small_hp("ppo"), obs_size=16, num_actions=5, rng=Rng(1))
    obs = stacked_obs(1)
    a1, lp1, v1 = agent.select_action(obs, action_rng=Rng(9).split("a"))
    a2, lp2, v2 = agent.select_action(obs, action_rng=Rng(9).split("a"))
    np.testing.assert_array_equal(a1, a2)
    np.testing.assert_array_equal(lp1, lp2)
    np.testing.assert_array_equal(v1, v2)


def test_vsop_thompson_sampling_draws_fresh_subnetworks():
    agent = Agent(small_hp("vsop"), obs_size=16, num_actions=5, rng=Rng(1))
    obs = stacked_obs(1)
    # identical action rng, internal dropout rng advances between calls
    _, lp1, v1 = agent.select_action(obs, action_rng=Rng(9).split("a"))
    _, lp2, v2 = agent.select_action(obs, action_rng=Rng(9).split("a"))
    assert not np.array_equal(v1, v2)
    # thompson=False bypasses dropout: deterministic like PPO
    _, _, v3 = agent.select_action(obs, thompson=False, action_rng=Rng(9).split("a"))
    _, _, v4 = agent.select_action(obs, thompson=False, action_rng=Rng(9).split("a"))
    np.testing.assert_array_equal(v3, v4)


@pytest.mark.parametrize("name", ["vsop", "vsop3d"])
def test_acting_is_tape_free_and_matches_a_taped_forward(name, monkeypatch):
    agent = Agent(small_hp(name), obs_size=16, num_actions=5, rng=Rng(1))
    obs = stacked_obs(agent.hp.frames)
    x = agent.net.format_obs(obs)
    taped = agent.net.forward(x, mode="train", rng=Rng(7).split("d"))
    assert taped.logits._parents  # the reference forward does build a tape
    ref_actions, ref_lp = T.sample_categorical(taped.logits, Rng(7).split("a"))
    ref_value = agent.net.forward(x, mode="eval").value.data

    seen = []
    forward = agent.net.forward
    monkeypatch.setattr(agent.net, "forward",
                        lambda *a, **k: seen.append(forward(*a, **k)) or seen[-1])
    actions, lp, value = agent.select_action(
        obs, action_rng=Rng(7).split("a"), dropout_rng=Rng(7).split("d"))
    assert actions.tobytes() == ref_actions.tobytes()
    assert lp.tobytes() == ref_lp.data.tobytes()
    assert value.tobytes() == taped.value.data.tobytes()
    assert agent.value_estimate(obs).tobytes() == ref_value.tobytes()
    assert len(seen) == 2
    for out in seen:
        for t in (out.logits, out.value):
            assert t._parents == () and t._backward_fn is None


def synthetic_buffer(agent, horizon=4, num_envs=4):
    rng = Rng(8)
    buf = RolloutBuffer(horizon, num_envs, (agent.hp.frames, 16, 16, 3))
    buf.obs[:] = rng.random(buf.obs.shape)
    buf.actions[:] = rng.integers(0, 5, size=(horizon, num_envs))
    buf.logprobs[:] = -1.6
    buf.rewards[:] = rng.normal(size=(horizon, num_envs))
    buf.values[:] = rng.normal(size=(horizon, num_envs))
    buf.finalize(np.zeros(num_envs), agent.hp.gamma, agent.hp.gae_lambda)
    return buf


@pytest.mark.parametrize("name", ["ppo", "vsop"])
def test_update_runs_and_moves_parameters(name):
    agent = Agent(small_hp(name), obs_size=16, num_actions=5, rng=Rng(2))
    before = [p.data.copy() for p in agent.net.params()]
    stats = agent.update(synthetic_buffer(agent))
    stats.validate()
    assert any(not np.array_equal(b, p.data)
               for b, p in zip(before, agent.net.params()))
    assert stats.entropy > 0.0


def test_update_rejects_wrong_batch_size():
    agent = Agent(small_hp("ppo"), obs_size=16, num_actions=5, rng=Rng(2))
    with pytest.raises(ValueError, match="batch_size"):
        agent.update(synthetic_buffer(agent, horizon=3, num_envs=4))


def test_update_is_deterministic():
    def run():
        agent = Agent(small_hp("vsop"), obs_size=16, num_actions=5, rng=Rng(2))
        agent.update(synthetic_buffer(agent))
        return np.concatenate([p.data.ravel() for p in agent.net.params()])
    np.testing.assert_array_equal(run(), run())


def test_agent_state_round_trip():
    agent = Agent(small_hp("vsop"), obs_size=16, num_actions=5, rng=Rng(2))
    agent.update(synthetic_buffer(agent))
    arrays = {k: v.copy() for k, v in agent.state_arrays().items()}
    rngs = agent.rng_states()

    # resume always rebuilds from the same root seed, so stream identities match
    clone = Agent(small_hp("vsop"), obs_size=16, num_actions=5, rng=Rng(2))
    clone.load_state(arrays, rngs)
    s1 = agent.update(synthetic_buffer(agent))
    s2 = clone.update(synthetic_buffer(clone))
    assert s1 == s2
    for (n1, p1), (_, p2) in zip(agent.net.named_params(), clone.net.named_params()):
        np.testing.assert_array_equal(p1.data, p2.data, err_msg=n1)
