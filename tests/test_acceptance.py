"""Acceptance gate: ten numbered criteria with explicit tolerances.

Each test prints one summary line. Criteria 9 and 10 at their full step
budget exceed what a single CPU core can run inside a test session by two
orders of magnitude (measured: the 3D network costs ~100 ms of update
compute per environment step, so 200k steps x 20 runs is multi-day work);
they run only when DESKRL_FULL_ACCEPT=1 is set. A structural smoke version
of the ablation harness always runs.
"""

import dataclasses
import json
import math
import os
import time

import numpy as np
import pytest
import yaml

from deskrl import tensor as T
from deskrl.agents import PRESETS, preset
from deskrl.cli import load_run_config, main, run_training
from deskrl.networks import BackboneConfig, PolicyValueNet
from deskrl.report import collect_run_scores
from deskrl.rng import Rng
from deskrl.rollout import compute_gae
from deskrl.stats import RunMatrix, bootstrap_ci, interquartile_mean, metric_value
from deskrl.tensor import Tensor

from conftest import loop_conv
from test_agents import hand_ppo, hand_vsop, make_minibatch, run_losses
from test_rollout import reference_gae

FULL = os.environ.get("DESKRL_FULL_ACCEPT") == "1"
FULL_REASON = (
    "full-budget run (200k steps x 2 envs x 5 seeds x 2 agents) needs "
    "multi-hour CPU time (measured ~100 ms update compute per env step for "
    "the 3D network on one core); set DESKRL_FULL_ACCEPT=1 to run")


# =========================================================================
# Criterion 1: every differentiable op passes central finite differences
# (fp64, h=1e-5) with relative error < 1e-4, >=20 random instances, < 60 s.
# =========================================================================

def _away_from(rng, shape, gap=0.05):
    """Standard normals resampled so no coordinate sits within `gap` of 0."""
    x = rng.normal(size=shape)
    x = np.where(np.abs(x) < gap, np.sign(x) * gap + x, x)
    return x


def _weighted_sum(out, c):
    return T.tsum(T.mul(out, Tensor(c)))


def _op_cases(rng):
    """name -> (params, build_loss). build_loss reads params' current data."""
    n, m, k = 3, 4, 2
    c_nm = rng.normal(size=(n, m))
    c_nk = rng.normal(size=(n, k))
    c_n = rng.normal(size=n)
    a = Tensor(rng.normal(size=(n, m)), requires_grad=True)
    b = Tensor(rng.normal(size=(n, m)), requires_grad=True)
    w = Tensor(rng.normal(size=(m, k)), requires_grad=True)
    bias = Tensor(rng.normal(size=k), requires_grad=True)
    sep = Tensor(_away_from(rng, (n, m)), requires_grad=True)  # off the kinks
    far = Tensor(_away_from(rng, (n, m)) * 0.4 + 3.0, requires_grad=True)
    logits = Tensor(rng.normal(size=(n, 5)), requires_grad=True)
    actions = rng.integers(0, 5, size=n)
    xc = Tensor(rng.normal(size=(1, 2, 6, 6)), requires_grad=True)
    kc = Tensor(rng.normal(size=(2, 2, 3, 3)), requires_grad=True)
    spec2 = T.ConvSpec((3, 3), (2, 1), (1, 1), 2, 2)
    c_conv2 = rng.normal(size=(1, 2, 3, 6))
    x3 = Tensor(rng.normal(size=(1, 2, 3, 4, 4)), requires_grad=True)
    k3 = Tensor(rng.normal(size=(2, 2, 3, 3, 3)), requires_grad=True)
    spec3 = T.ConvSpec((3, 3, 3), (1, 1, 1), (1, 1, 1), 2, 2)
    c_conv3 = rng.normal(size=(1, 2, 3, 4, 4))
    xp = Tensor(_away_from(rng, (1, 2, 4, 4), 0.2), requires_grad=True)
    c_pool = rng.normal(size=(1, 2, 2, 2))
    drop_rng = rng.split("drop")
    drop_state = drop_rng.get_state()
    c_nm2 = rng.normal(size=(n, m))

    def frozen_dropout():
        drop_rng.set_state(drop_state)
        return T.dropout(a, 0.35, "train", drop_rng)

    return {
        "add": ([a, b], lambda: _weighted_sum(T.add(a, b), c_nm)),
        "sub": ([a, b], lambda: _weighted_sum(T.sub(a, b), c_nm)),
        "mul": ([a, b], lambda: _weighted_sum(T.mul(a, b), c_nm)),
        "matmul": ([a, w], lambda: _weighted_sum(T.matmul(a, w), c_nk)),
        "dense": ([a, w, bias], lambda: _weighted_sum(T.dense(a, w, bias), c_nk)),
        "relu": ([sep], lambda: _weighted_sum(T.relu(sep), c_nm)),
        "exp": ([a], lambda: _weighted_sum(T.exp(a), c_nm)),
        "square": ([a], lambda: _weighted_sum(T.square(a), c_nm)),
        "clip": ([sep], lambda: _weighted_sum(T.clip(sep, -1.0, 1.0), c_nm)),
        "minimum": ([a], lambda: _weighted_sum(T.minimum(a, Tensor(a.data.round() + 0.5)), c_nm)),
        "maximum": ([a], lambda: _weighted_sum(T.maximum(a, Tensor(a.data.round() - 0.5)), c_nm)),
        "tsum": ([a], lambda: T.tsum(a)),
        "tmean": ([a], lambda: T.tmean(T.square(a))),
        "mean_axis": ([a], lambda: _weighted_sum(T.mean_axis(a, 1), c_n)),
        "reshape": ([a], lambda: _weighted_sum(T.reshape(a, (m, n)), c_nm.T)),
        "conv2d": ([xc, kc], lambda: _weighted_sum(T.conv2d(xc, kc, spec2), c_conv2)),
        "conv3d": ([x3, k3], lambda: _weighted_sum(T.conv3d(x3, k3, spec3), c_conv3)),
        "maxpool2x2": ([xp], lambda: _weighted_sum(T.maxpool2x2(xp), c_pool)),
        "dropout": ([a], lambda: _weighted_sum(frozen_dropout(), c_nm2)),
        "categorical_logprob": ([logits], lambda: _weighted_sum(
            T.categorical_logprob(logits, actions), c_n)),
        "softmax_entropy": ([logits], lambda: _weighted_sum(
            T.softmax_entropy(logits), c_n)),
    }


def _gradcheck_worst(params, build_loss, fd_rng, h=1e-5, coords=3):
    for p in params:
        p.zero_grad()
    build_loss().backward()
    worst = 0.0
    for p in params:
        flat = p.data.reshape(-1)
        gflat = p.grad.reshape(-1)
        n_check = min(coords, flat.size)
        for j in fd_rng.choice(flat.size, size=n_check, replace=False):
            orig = flat[j]
            flat[j] = orig + h
            lp = build_loss().item()
            flat[j] = orig - h
            lm = build_loss().item()
            flat[j] = orig
            fd = (lp - lm) / (2 * h)
            denom = max(abs(fd), abs(gflat[j]), 1e-3)
            worst = max(worst, abs(gflat[j] - fd) / denom)
    return worst


def test_criterion_1_gradient_correctness():
    t0 = time.time()
    root = Rng(101)
    fd_rng = root.split("fd")
    worst_by_op: dict[str, float] = {}
    for i in range(20):
        for name, (params, build_loss) in _op_cases(root.split_index(i)).items():
            w = _gradcheck_worst(params, build_loss, fd_rng)
            worst_by_op[name] = max(worst_by_op.get(name, 0.0), w)
    elapsed = time.time() - t0
    assert len(worst_by_op) == 21
    for name, w in worst_by_op.items():
        assert w < 1e-4, f"{name}: rel err {w:.2e}"
    assert elapsed < 60.0
    print(f"\n[criterion 1] PASS gradcheck 21 ops x 20 instances, "
          f"worst rel err {max(worst_by_op.values()):.2e} < 1e-4, "
          f"{elapsed:.1f}s < 60s")


# =========================================================================
# Criterion 2: conv2d/conv3d match naive loop oracles within 1e-12 on >=50
# random shape/stride/padding cases; depth-1 conv3d equals conv2d.
# =========================================================================

def test_criterion_2_convolution_oracles():
    rng = Rng(202)
    worst = 0.0
    for ndim, cases in ((2, 50), (3, 50)):
        for _ in range(cases):
            stride = tuple(int(rng.integers(1, 4)) for _ in range(ndim))
            pad = tuple(int(rng.integers(0, 3)) for _ in range(ndim))
            ksh = tuple(int(rng.integers(1, 5 if ndim == 2 else 4)) for _ in range(ndim))
            insh = tuple(int(rng.integers(k, (11 if ndim == 2 else 8))) for k in ksh)
            c, o = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            x = rng.normal(size=(int(rng.integers(1, 3)), c) + insh)
            k = rng.normal(size=(o, c) + ksh)
            op = T.conv2d if ndim == 2 else T.conv3d
            got = op(Tensor(x), Tensor(k), T.ConvSpec(ksh, stride, pad, c, o)).data
            worst = max(worst, float(np.abs(got - loop_conv(x, k, stride, pad)).max()))
    assert worst < 1e-12

    x = rng.normal(size=(2, 3, 1, 8, 8))
    k = rng.normal(size=(4, 3, 1, 3, 3))
    y3 = T.conv3d(Tensor(x), Tensor(k),
                  T.ConvSpec((1, 3, 3), (1, 1, 1), (0, 1, 1), 3, 4)).data
    y2 = T.conv2d(Tensor(x[:, :, 0]), Tensor(k[:, :, 0]),
                  T.ConvSpec((3, 3), (1, 1), (1, 1), 3, 4)).data
    depth1 = float(np.abs(y3[:, :, 0] - y2).max())
    assert depth1 < 1e-12
    print(f"\n[criterion 2] PASS conv oracles 100 cases, worst abs err "
          f"{worst:.2e} < 1e-12; depth-1 equivalence {depth1:.2e} < 1e-12")


# =========================================================================
# Criterion 3: GAE matches the independent backward recursion and the
# closed-form (gamma*lam)-weighted sum within 1e-10 on 100 random
# instances (T<=16, E<=4) including done masking.
# =========================================================================

def backward_recursion_gae(rewards, values, dones, boot, gamma, lam):
    """Independent oracle: the textbook recursion written directly."""
    t_len, e = rewards.shape
    adv = np.zeros((t_len, e))
    for ei in range(e):
        nxt_adv = 0.0
        nxt_val = boot[ei]
        for t in range(t_len - 1, -1, -1):
            mask = 0.0 if dones[t, ei] else 1.0
            delta = rewards[t, ei] + gamma * mask * nxt_val - values[t, ei]
            nxt_adv = delta + gamma * lam * mask * nxt_adv
            adv[t, ei] = nxt_adv
            nxt_val = values[t, ei]
    return adv


def test_criterion_3_gae_oracle():
    rng = Rng(303)
    worst = 0.0
    for i in range(100):
        t_len, e = int(rng.integers(1, 17)), int(rng.integers(1, 5))
        rewards = rng.normal(size=(t_len, e))
        values = rng.normal(size=(t_len, e))
        dones = rng.random((t_len, e)) < (0.3 if i % 2 else 0.0)
        boot = rng.normal(size=e)
        gamma, lam = float(rng.uniform(0.8, 1.0)), float(rng.uniform(0.0, 1.0))
        adv, ret = compute_gae(rewards, values, dones, boot, gamma, lam)
        rec = backward_recursion_gae(rewards, values, dones, boot, gamma, lam)
        closed = reference_gae(rewards, values, dones, boot, gamma, lam)
        worst = max(worst,
                    float(np.abs(adv - rec).max()),
                    float(np.abs(adv - closed).max()),
                    float(np.abs(ret - (adv + values)).max()))
    assert worst < 1e-10
    print(f"\n[criterion 3] PASS GAE vs recursion + closed form, 100 instances, "
          f"worst abs err {worst:.2e} < 1e-10")


# =========================================================================
# Criterion 4: update losses match hand-computed 2-sample minibatch values
# within 1e-10; VSOP negative advantages give exactly zero policy gradient.
# =========================================================================

def test_criterion_4_loss_oracles():
    logits, mb, new_values = make_minibatch()
    _, pl, vl, total = run_losses(preset("ppo"), logits, mb, new_values)
    _, _, ref_total = hand_ppo(logits, mb, new_values)
    ppo_err = abs(total - ref_total)
    assert ppo_err < 1e-10

    _, pl, vl, total = run_losses(preset("vsop"), logits, mb, new_values)
    _, _, ref_total = hand_vsop(logits, mb, new_values)
    vsop_err = abs(total - ref_total)
    assert vsop_err < 1e-10

    mb["advantages"] = np.array([-3.0, 1.0])
    out, pl, _, _ = run_losses(preset("vsop"), logits, mb, new_values)
    pl.backward()
    assert np.all(out.logits.grad[0] == 0.0)  # exactly zero, no tolerance
    print(f"\n[criterion 4] PASS loss totals vs hand computation: ppo err "
          f"{ppo_err:.2e}, vsop err {vsop_err:.2e} (< 1e-10); "
          "negative-advantage policy gradient exactly 0")


# =========================================================================
# Criterion 5: aggregate metrics match brute force within 1e-12 on 1000
# samples; gap = 1 - mean identity; bootstrap coverage in [0.90, 0.99].
# =========================================================================

def test_criterion_5_statistics_oracles():
    rng = Rng(505)
    worst = 0.0
    for _ in range(1000):
        x = rng.normal(size=int(rng.integers(1, 30))) * float(rng.uniform(0.1, 10))
        s = np.sort(x)
        n = s.size
        med = s[n // 2] if n % 2 else 0.5 * (s[n // 2 - 1] + s[n // 2])
        rep = np.sort(np.repeat(x, 4))
        iqm = rep[n:-n].mean()
        gap = sum(1.0 - min(v, 1.0) for v in x) / n
        worst = max(worst,
                    abs(metric_value(x[None], "median") - med),
                    abs(interquartile_mean(x) - iqm),
                    abs(metric_value(x[None], "mean") - x.sum() / n),
                    abs(metric_value(x[None], "optimality_gap") - gap))
    assert worst < 1e-12

    unit = rng.uniform(0, 1, size=(8, 4))
    identity_err = abs(metric_value(unit, "optimality_gap")
                       - (1.0 - metric_value(unit, "mean")))
    assert identity_err < 1e-15
    scaled = np.full((5, 3), 0.64)
    assert metric_value(scaled, "mean") == pytest.approx(0.64)
    assert metric_value(scaled, "optimality_gap") == pytest.approx(0.36)

    # coverage of a known mean (uniform(0,1) -> 0.5) at nominal 95%
    trials, hits = 500, 0
    boot_rng = Rng(606)
    for t in range(trials):
        scores = boot_rng.uniform(0, 1, size=(10, 3))
        m = RunMatrix(scores, list(range(10)), ["a", "b", "c"])
        lo, hi = bootstrap_ci(m, "mean", 300, 0.95, boot_rng.split_index(t))
        hits += lo <= 0.5 <= hi
    coverage = hits / trials
    assert 0.90 <= coverage <= 0.99
    print(f"\n[criterion 5] PASS stats brute force worst err {worst:.2e} < 1e-12; "
          f"gap identity err {identity_err:.1e}; mean 0.64 <-> gap 0.36; "
          f"bootstrap coverage {coverage:.3f} in [0.90, 0.99]")


# =========================================================================
# Criterion 6: the 10k-step train -> aggregate pipeline is byte-identical
# across two runs with the same config and seeds; runtime < 5 min CPU.
# =========================================================================

def test_criterion_6_pipeline_determinism(tmp_path):
    t0 = time.time()
    cfg = {
        "preset": "ppo", "envs": ["chase_dot"], "seeds": [7],
        "total_steps": 10240, "num_envs": 8, "num_train_levels": 50,
        "eval_interval": 4096, "eval_episodes": 6,
    }
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    for run in ("one", "two"):
        assert main(["train", str(cfg_path),
                     "--set", f"output_dir={tmp_path / run}"]) == 0
        assert main(["aggregate", f"ppo={tmp_path / run}",
                     "--out", str(tmp_path / f"rep_{run}"),
                     "--resamples", "300"]) == 0
    csv_same = ((tmp_path / "one" / "chase_dot" / "seed7" / "metrics.csv").read_bytes()
                == (tmp_path / "two" / "chase_dot" / "seed7" / "metrics.csv").read_bytes())
    json_same = ((tmp_path / "one" / "chase_dot" / "seed7" / "updates.json").read_bytes()
                 == (tmp_path / "two" / "chase_dot" / "seed7" / "updates.json").read_bytes())
    report_same = ((tmp_path / "rep_one" / "report.json").read_bytes()
                   == (tmp_path / "rep_two" / "report.json").read_bytes())
    elapsed = time.time() - t0
    assert csv_same and json_same and report_same
    assert elapsed < 300.0
    print(f"\n[criterion 6] PASS 10k-step pipeline byte-identical twice "
          f"(csv/updates/report), {elapsed:.0f}s < 300s")


# =========================================================================
# Criterion 7: the five presets reproduce every published table cell,
# verified against a golden file of serialized presets.
# =========================================================================

def test_criterion_7_preset_table_fidelity():
    golden_path = os.path.join(os.path.dirname(__file__), "data",
                               "presets_golden.json")
    with open(golden_path) as f:
        golden = json.load(f)
    current = {name: dataclasses.asdict(hp) for name, hp in PRESETS.items()}
    assert set(current) == {"ppo", "ppo3d", "vsop", "vsop3d", "vsop3d_plus"}
    mismatches = [
        f"{name}.{key}" for name in golden for key in golden[name]
        if current[name][key] != golden[name][key]]
    assert not mismatches, mismatches
    print("\n[criterion 7] PASS 5 presets x 17 fields match the golden file "
          "exactly")


# =========================================================================
# Criterion 8: width_multiplier 2 exactly doubles every conv layer's output
# channels; frames=8 conv2d first layer has 24 input channels.
# =========================================================================

def test_criterion_8_scaling_fidelity():
    for kind, frames in (("conv2d", 1), ("conv3d", 8)):
        base = PolicyValueNet(BackboneConfig(
            frames=frames, conv_kind=kind, width_multiplier=1,
            obs_height=16, obs_width=16), Rng(0))
        wide = PolicyValueNet(BackboneConfig(
            frames=frames, conv_kind=kind, width_multiplier=2,
            obs_height=16, obs_width=16), Rng(0))
        for b, w in zip(base.conv_layers(), wide.conv_layers()):
            assert w.out_channels == 2 * b.out_channels, b.name
    stacked = PolicyValueNet(BackboneConfig(
        frames=8, conv_kind="conv2d", obs_height=16, obs_width=16), Rng(0))
    assert stacked.conv_layers()[0].spec.in_channels == 24
    print("\n[criterion 8] PASS width x2 doubles all 15 conv layers' output "
          "channels (2D and 3D); frames=8 conv2d first layer has 24 input "
          "channels")


# =========================================================================
# Criterion 9: directional generalization at the stated budget (200k steps,
# 50 train levels, 5 seeds, chase_dot + blink_door): VSOP-3D beats VSOP on
# test final_score in >=4/5 seeds per env, < 60 min. Runs only under
# DESKRL_FULL_ACCEPT=1; see module docstring for the measured cost analysis.
# =========================================================================

REFERENCE_DELTAS = "full-scale reference deltas: 65.9% / 62.8% / 52.5% / 37.9%"


def directional_config(tmp_path, preset_name, total_steps):
    raw = {
        "preset": preset_name, "envs": ["chase_dot", "blink_door"],
        "seeds": [0, 1, 2, 3, 4], "total_steps": total_steps,
        "num_train_levels": 50, "output_dir": str(tmp_path / preset_name),
    }
    path = tmp_path / f"{preset_name}.yaml"
    path.write_text(yaml.safe_dump(raw))
    return load_run_config(path)


@pytest.mark.skipif(not FULL, reason=FULL_REASON)
def test_criterion_9_directional_generalization(tmp_path):
    t0 = time.time()
    dirs = {}
    for name in ("vsop", "vsop3d"):
        dirs[name] = run_training(directional_config(tmp_path, name, 200_000),
                                  quiet=True)
    scores = {name: collect_run_scores(dirs[name], window=100)[0]
              for name in dirs}
    elapsed = time.time() - t0
    print(f"\n[criterion 9] {REFERENCE_DELTAS}")
    for env in ("chase_dot", "blink_door"):
        wins = sum(scores["vsop3d"][(env, s)] > scores["vsop"][(env, s)]
                   for s in range(5))
        print(f"[criterion 9] {env}: vsop3d beats vsop in {wins}/5 seeds")
        assert wins >= 4, env
    assert elapsed < 3600.0
    print(f"[criterion 9] PASS in {elapsed:.0f}s < 3600s")


# =========================================================================
# Criterion 10: the ablation harness completes and emits the paired
# per-seed sign table (no numeric threshold on the PPO-3D outcome).
# Full budget behind DESKRL_FULL_ACCEPT=1; a small-budget structural run
# always executes.
# =========================================================================

def _run_ablation(tmp_path, total_steps, seeds, envs, overrides):
    raw = {
        "preset": "ppo", "envs": envs, "seeds": seeds,
        "total_steps": total_steps, "num_train_levels": 10,
        "eval_interval": max(256, total_steps // 4), "eval_episodes": 3,
        "output_dir": str(tmp_path / "ablation"),
        "hyperparam_overrides": overrides,
    }
    path = tmp_path / "ablate.yaml"
    path.write_text(yaml.safe_dump(raw))
    assert main(["ablate", str(path)]) == 0
    with open(tmp_path / "ablation" / "ablation.json") as f:
        return json.load(f)


def check_sign_table(result, seeds, envs):
    assert set(result["pairs"]) == {"ppo3d_vs_ppo", "vsop3d_vs_vsop"}
    for table in result["pairs"].values():
        assert set(table) == set(envs)
        for row in table.values():
            assert len(row["per_seed_delta"]) == len(seeds)
            assert all(s in "+-0" for s in row["signs"])
            assert 0 <= row["wins"] <= len(seeds)


def test_criterion_10_ablation_harness_smoke(tmp_path):
    result = _run_ablation(tmp_path, total_steps=256, seeds=[0],
                           envs=["chase_dot"],
                           overrides={"batch_size": 256})
    check_sign_table(result, [0], ["chase_dot"])
    print("\n[criterion 10] PASS (smoke budget) ablation harness emitted the "
          "paired per-seed sign table for ppo3d_vs_ppo and vsop3d_vs_vsop")


@pytest.mark.skipif(not FULL, reason=FULL_REASON)
def test_criterion_10_ablation_harness_full(tmp_path):
    result = _run_ablation(tmp_path, total_steps=200_000,
                           seeds=[0, 1, 2, 3, 4],
                           envs=["chase_dot", "blink_door"], overrides={})
    check_sign_table(result, [0, 1, 2, 3, 4], ["chase_dot", "blink_door"])
    print("\n[criterion 10] PASS (full budget) ablation sign table emitted")
