import dataclasses
import json
import os

import numpy as np
import pytest
import yaml

from deskrl import cli, tensor
from deskrl.agents import preset
from deskrl.cli import RunConfig, load_run_config, main
from deskrl.trainer import TrainConfig

SMALL_CONFIG = {
    "preset": "vsop",
    "envs": ["chase_dot"],
    "seeds": [0, 1],
    "total_steps": 256,
    "num_envs": 8,
    "num_train_levels": 10,
    "eval_interval": 256,
    "eval_episodes": 3,
    "hyperparam_overrides": {"batch_size": 256},
}


def write_config(tmp_path, **over):
    cfg = {**SMALL_CONFIG, **over}
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


# -- config loading ----------------------------------------------------------

def test_load_config_applies_defaults(tmp_path):
    cfg = load_run_config(write_config(tmp_path))
    assert cfg.obs_size == 16 and cfg.window == 100
    assert cfg.eval_mode == "thompson"
    assert cfg.hyperparams().batch_size == 256


def test_load_config_reports_all_problems_at_once(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump({
        "preset": "dqn", "envs": ["pong"], "total_steps": -5,
        "eval_mode": "greedy"}))
    with pytest.raises(ValueError) as err:
        load_run_config(path)
    msg = str(err.value)
    for frag in ("unknown preset", "unknown env", "seeds",
                 "total_steps", "eval_mode"):
        assert frag in msg, frag


def test_load_config_rejects_unknown_fields(tmp_path):
    with pytest.raises(ValueError, match="unknown config fields"):
        load_run_config(write_config(tmp_path, learning_rate=0.1))


def test_load_config_rejects_duplicate_seeds(tmp_path):
    with pytest.raises(ValueError, match="distinct"):
        load_run_config(write_config(tmp_path, seeds=[1, 1]))


def test_load_config_rejects_inconsistent_overrides(tmp_path):
    with pytest.raises(ValueError, match="dropout"):
        load_run_config(write_config(
            tmp_path, preset="ppo",
            hyperparam_overrides={"dropout_rate": 0.5}))


def test_config_hash_is_stable_and_sensitive(tmp_path):
    c1 = load_run_config(write_config(tmp_path))
    c2 = load_run_config(write_config(tmp_path))
    assert c1.config_hash() == c2.config_hash()
    c3 = load_run_config(write_config(tmp_path, total_steps=512))
    assert c1.config_hash() != c3.config_hash()


def test_output_root_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("DESKRL_OUTPUT_ROOT", str(tmp_path / "root"))
    cfg = load_run_config(write_config(tmp_path))
    assert cfg.resolved_output_dir() == str(tmp_path / "root" / "vsop")


# -- subcommands -------------------------------------------------------------

def test_error_is_machine_readable_json_on_stderr(tmp_path, capsys):
    code = main(["train", str(tmp_path / "missing.yaml")])
    assert code == 2
    err = capsys.readouterr().err.strip()
    payload = json.loads(err)
    assert payload["error"] == "FileNotFoundError"
    assert "missing.yaml" in payload["message"]


def test_train_then_aggregate_then_plot(tmp_path, capsys):
    out = tmp_path / "run"
    cfg_path = write_config(tmp_path, output_dir=str(out))
    assert main(["train", cfg_path]) == 0

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == {"chase_dot/seed0": "done",
                                  "chase_dot/seed1": "done"}
    assert "metrics.csv" in manifest["files"]["chase_dot/seed0"]
    assert manifest["config"]["hyperparams"]["batch_size"] == 256
    assert len(manifest["config_hash"]) == 16

    rep = tmp_path / "report"
    assert main(["aggregate", f"vsop={out}", "--out", str(rep),
                 "--resamples", "200"]) == 0
    captured = capsys.readouterr().out
    assert "median" in captured and "full-scale reference" in captured
    report = json.loads((rep / "report.json").read_text())
    assert report["agents"]["vsop"]["seed_ids"] == [0, 1]
    svg_before = (rep / "report.svg").read_text()

    (rep / "report.svg").unlink()
    assert main(["plot", str(rep / "report.json")]) == 0
    assert (rep / "report.svg").read_text() == svg_before


def test_train_preset_and_set_flags_override_config(tmp_path):
    out = tmp_path / "run2"
    cfg_path = write_config(tmp_path)
    assert main(["train", cfg_path, "--set", f"output_dir={out}",
                 "--set", "seeds=[5]", "--set", "total_steps=256"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert list(manifest["status"]) == ["chase_dot/seed5"]


BAD_CONFIGS = [
    ({"hyperparam_overrides": {"learning_rate": -1.0}}, "learning_rate"),
    ({"hyperparam_overrides": {"frames": 0}}, "frames"),
    ({"hyperparam_overrides": {"conv_kind": "conv4d"}}, "conv_kind"),
    ({"hyperparam_overrides": {"epochs_per_update": 0}}, "epochs_per_update"),
    ({"hyperparam_overrides": {"gamma": 2.0}}, "gamma"),
    ({"hyperparam_overrides": {"width_multiplier": 0}}, "width_multiplier"),
    ({"hyperparam_overrides": {"max_grad_norm": 0.0}}, "max_grad_norm"),
    ({"obs_size": 24}, "obs_size"),
    ({"num_envs": 7}, "num_envs"),
    ({"seeds": [-1]}, "seed -1"),
    ({"seeds": [1.5]}, "seed 1.5"),
    ({"seeds": ["a"]}, "seed 'a'"),
    ({"seeds": [2**64]}, f"seed {2**64}"),
    ({"envs": ["chase_dot", "chase_dot"]}, "envs must be distinct"),
    ({"num_envs": True}, "num_envs must be a positive integer"),
]


@pytest.mark.parametrize("over,setting", BAD_CONFIGS,
                         ids=[setting for _, setting in BAD_CONFIGS])
def test_bad_config_fails_before_any_file_is_written(tmp_path, capsys, over, setting):
    out = tmp_path / "run"
    over = {"preset": "ppo", "output_dir": str(out), **over}
    over["hyperparam_overrides"] = {**SMALL_CONFIG["hyperparam_overrides"],
                                    **over.get("hyperparam_overrides", {})}
    path = write_config(tmp_path, **over)
    assert main(["train", path]) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "ValueError"
    assert payload["message"].startswith(path) and setting in payload["message"]
    assert not out.exists() or not any(out.iterdir())
    # The same values fail a direct construction too.
    with pytest.raises(ValueError, match="invalid RunConfig"):
        RunConfig(**{**SMALL_CONFIG, **over})


@pytest.mark.parametrize("config_preset,override,bad_preset", [
    ("ppo", {"clip_coeff": 0.1}, "vsop"), ("vsop", {"dropout_rate": 0.1}, "ppo")])
def test_ablate_checks_every_preset_before_training(tmp_path, capsys, config_preset,
                                                    override, bad_preset):
    # hyperparam_overrides apply to all four presets; one that only some of
    # them accept used to fail after the others had trained.
    out = tmp_path / "ablation"
    path = write_config(tmp_path, preset=config_preset, output_dir=str(out),
                        hyperparam_overrides={"batch_size": 256, **override})
    assert main(["ablate", path]) == 2
    msg = json.loads(capsys.readouterr().err.strip())["message"]
    assert msg.startswith(path) and f"preset {bad_preset}" in msg
    assert not out.exists()


CONFIG_OWNERS = {
    "TrainConfig": TrainConfig(env="chase_dot", seed=0, total_steps=256),
    "RunConfig": RunConfig(**SMALL_CONFIG),
    "AgentHyperparams[ppo]": preset("ppo"),
    "AgentHyperparams[vsop]": preset("vsop"),
}


@pytest.mark.parametrize("owner,field", [
    (owner, f.name) for owner, obj in CONFIG_OWNERS.items() for f in dataclasses.fields(obj)])
def test_every_config_field_is_checked(owner, field):
    # A field added without a check fails here.
    with pytest.raises(ValueError):
        dataclasses.replace(CONFIG_OWNERS[owner], **{field: object()})


def test_failed_seed_is_recorded_in_manifest(tmp_path, monkeypatch):
    out = tmp_path / "run3"
    # training raises after the manifest marks the seed running, so the
    # failure status must be persisted
    def broken_train(*args, **kwargs):
        raise RuntimeError("cell failed")
    monkeypatch.setattr(cli, "train", broken_train)
    cfg_path = write_config(tmp_path, output_dir=str(out))
    assert main(["train", cfg_path]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"]["chase_dot/seed0"] == "failed"


def test_selfcheck_passes_and_mutation_is_caught(capsys, monkeypatch):
    assert main(["selfcheck"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out and "FAIL" not in out
    # A taped but wrong conv2d (off by a constant) must fail its oracle check.
    conv2d = tensor.conv2d
    monkeypatch.setattr(tensor, "conv2d", lambda x, k, spec: tensor.add(
        conv2d(x, k, spec), tensor.Tensor(np.asarray(1e-3))))
    assert main(["selfcheck"]) == 1
    out = capsys.readouterr().out
    assert "FAIL conv2d" in out


def test_aggregate_missing_dir_fails_cleanly(tmp_path, capsys):
    assert main(["aggregate", f"x={tmp_path / 'nope'}"]) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] in ("FileNotFoundError", "ValueError")
