import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

from deskrl import cli, tensor
from deskrl.agents import preset
from deskrl.cli import RunConfig, load_run_config, main
from deskrl.envs import VecEnv
from deskrl.trainer import TrainConfig

SRC = str(Path(__file__).resolve().parents[1] / "src")

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
    # canonical() is what run_training hashes into manifest.json's config_hash.
    c1 = load_run_config(write_config(tmp_path))
    c2 = load_run_config(write_config(tmp_path))
    assert c1.canonical() == c2.canonical()
    c3 = load_run_config(write_config(tmp_path, total_steps=512))
    assert c1.canonical() != c3.canonical()


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


def test_a_runs_config_yaml_trains_the_same_cell_again(tmp_path):
    # config.yaml used to hold the resolved hyperparams as well, a field
    # load_run_config rejects, so `deskrl train <run>/config.yaml` exited 2.
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["train", write_config(tmp_path, seeds=[0], output_dir=str(first))]) == 0
    assert main(["train", str(first / "config.yaml"), "--set", f"output_dir={second}"]) == 0
    for name in ("metrics.csv", "updates.json"):
        assert (first / "chase_dot" / "seed0" / name).read_bytes() == \
            (second / "chase_dot" / "seed0" / name).read_bytes()


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


def test_aggregate_rejects_a_window_below_one(tmp_path, capsys):
    cell = tmp_path / "run" / "chase_dot" / "seed0"
    cell.mkdir(parents=True)
    (cell / "metrics.csv").write_text("step,split,env,seed,episodic_return,normalized_return\n"
                                      "64,test,chase_dot,0,1.0,0.5\n")
    assert main(["aggregate", f"x={tmp_path / 'run'}", "--out", str(tmp_path / "rep"),
                 "--window", "0"]) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload == {"error": "ValueError",
                       "message": "window must be a positive integer, got 0"}
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize("labelled", [False, True])
def test_aggregate_rejects_two_runs_with_one_label(tmp_path, capsys, labelled):
    # x/vsop and y/vsop both default to the label "vsop"; a=... a=... repeat "a".
    runs = [tmp_path / d / "vsop" for d in ("x", "y")]
    for run in runs:
        cell = run / "chase_dot" / "seed0"
        cell.mkdir(parents=True)
        (cell / "metrics.csv").write_text("step,split,env,seed,episodic_return,"
                                          "normalized_return\n64,test,chase_dot,0,1.0,0.5\n")
    args = [f"a={run}" if labelled else str(run) for run in runs]
    assert main(["aggregate", *args, "--out", str(tmp_path / "rep")]) == 2
    label = "a" if labelled else "vsop"
    assert json.loads(capsys.readouterr().err.strip()) == {
        "error": "ValueError",
        "message": f"two run dirs have the label {label!r}: {runs[0]} and {runs[1]}"}
    assert not (tmp_path / "rep").exists()


# -- parallel cells ------------------------------------------------------------

# 2 envs x 2 seeds of ppo, evaluated and checkpointed after every update.
GRID_CONFIG = {"preset": "ppo", "envs": ["chase_dot", "blink_door"], "seeds": [3, 4],
               "total_steps": 64, "eval_interval": 32, "eval_episodes": 4,
               "checkpoint_interval": 1, "hyperparam_overrides": {"batch_size": 32}}


def tree_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_parallel_grid_is_byte_identical_to_one_worker(tmp_path, monkeypatch):
    # Both runs write to the same output_dir, so config.yaml and
    # manifest.json must match too.
    run = tmp_path / "run"
    cfg = load_run_config(write_config(tmp_path, output_dir=str(run), **GRID_CONFIG))
    trees = {}
    for workers in (2, 1):
        monkeypatch.setattr(cli, "_cpu_count", lambda: workers)
        assert cli.run_training(cfg, quiet=True) == str(run)
        trees[workers] = tree_bytes(run)
        run.rename(tmp_path / f"workers{workers}")
    assert sorted(trees[2]) == sorted(trees[1])
    assert "manifest.json" in trees[2] and "chase_dot/seed3/ckpt_update2.bin" in trees[2]
    assert [name for name in trees[2] if trees[2][name] != trees[1][name]] == []
    manifest = json.loads(trees[2]["manifest.json"])
    assert set(manifest["status"].values()) == {"done"}


def fake_summary(cell_dir) -> dict:
    return {"files": ["metrics.csv", "updates.json"], "steps": 0, "updates": 0}


def recording_fork(monkeypatch) -> list[int]:
    forked = []
    fork = os.fork

    def record():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", record)
    return forked


def test_more_workers_than_cores_train_each_cell_once(tmp_path, monkeypatch):
    def train(tc, hp, cell_dir):
        os.makedirs(cell_dir)  # raises if a second worker took the same cell
        time.sleep(0.01)
        return fake_summary(cell_dir)

    monkeypatch.setattr(cli, "train", train)
    monkeypatch.setattr(cli, "_cpu_count", lambda: 4)
    forked = recording_fork(monkeypatch)
    run = tmp_path / "run"
    cfg = load_run_config(write_config(tmp_path, output_dir=str(run),
                                       envs=["chase_dot", "blink_door"], seeds=list(range(12))))
    cli.run_training(cfg, quiet=True)
    assert len(forked) == 3
    manifest = json.loads((run / "manifest.json").read_text())
    assert set(manifest["status"].values()) == {"done"} and len(manifest["status"]) == 24
    assert sorted(p.name for p in run.glob("*/seed*")) == sorted(
        f"seed{s}" for s in range(12) for _ in range(2))


def test_set_blas_threads_returns_the_count_it_replaces():
    previous = cli._set_blas_threads(1)
    if previous is None:
        pytest.skip("numpy's bundled OpenBLAS exports no thread-count setter")
    try:
        assert cli._set_blas_threads(3) == 1
    finally:
        assert cli._set_blas_threads(previous) == 3


@pytest.mark.parametrize("workers,cell_threads", [(2, 1), (1, 3)])
def test_workers_run_one_blas_thread_and_the_caller_gets_its_count_back(
        tmp_path, monkeypatch, workers, cell_threads):
    previous = cli._set_blas_threads(3)
    if previous is None:
        pytest.skip("numpy's bundled OpenBLAS exports no thread-count setter")

    def train(tc, hp, cell_dir):
        os.makedirs(cell_dir)
        threads = cli._set_blas_threads(1)  # the count this cell runs with
        cli._set_blas_threads(threads)
        (Path(cell_dir) / "threads").write_text(str(threads))
        return fake_summary(cell_dir)

    monkeypatch.setattr(cli, "train", train)
    monkeypatch.setattr(cli, "_cpu_count", lambda: workers)
    run = tmp_path / "run"
    cfg = load_run_config(write_config(tmp_path, output_dir=str(run),
                                       envs=["chase_dot"], seeds=[0, 1, 2, 3]))
    try:
        cli.run_training(cfg, quiet=True)
    finally:
        restored = cli._set_blas_threads(previous)
    assert restored == 3
    counts = [int(p.read_text()) for p in sorted(run.glob("*/seed*/threads"))]
    assert counts == [cell_threads] * 4


class StopAtFirstStep(BaseException):
    """Like the benchmark's set-up probe: raised at the caller's first env step."""


def test_base_exception_in_the_callers_cell_leaves_no_worker(tmp_path, monkeypatch):
    caller = os.getpid()
    step = VecEnv.step

    def first_step(self, actions):
        if os.getpid() == caller:
            raise StopAtFirstStep
        return step(self, actions)

    monkeypatch.setattr(VecEnv, "step", first_step)
    monkeypatch.setattr(cli, "_cpu_count", lambda: 2)
    forked = recording_fork(monkeypatch)
    ends = []
    waitpid = os.waitpid

    def recording_waitpid(pid, options):
        ends.append(waitpid(pid, options))
        return ends[-1]

    monkeypatch.setattr(os, "waitpid", recording_waitpid)
    cfg = load_run_config(write_config(tmp_path, output_dir=str(tmp_path / "run")))
    with pytest.raises(StopAtFirstStep):
        cli.run_training(cfg, quiet=True)
    assert len(forked) == 1
    # The worker was stopped, not waited for, and reaped: it is no longer a
    # child of this process.
    assert [(pid, os.WIFSIGNALED(status) and os.WTERMSIG(status)) for pid, status in ends] \
        == [(forked[0], signal.SIGKILL)]
    with pytest.raises(ChildProcessError):
        waitpid(forked[0], os.WNOHANG)


def proc_stat(pid) -> tuple[str, int] | None:
    """(state, parent pid) of a process, or None if it is gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    state, ppid = stat.rsplit(")", 1)[1].split()[:2]
    return state, int(ppid)


def is_live(pid) -> bool:
    stat = proc_stat(pid)
    return stat is not None and stat[0] not in "ZX"


def live_children(parent: int) -> set[int]:
    stats = {int(pid): proc_stat(pid) for pid in os.listdir("/proc") if pid.isdigit()}
    return {pid for pid, stat in stats.items()
            if stat and stat[1] == parent and stat[0] not in "ZX"}


def test_killed_train_leaves_no_worker(tmp_path):
    run = tmp_path / "run"
    cfg_path = write_config(tmp_path, output_dir=str(run), total_steps=10**7)
    # `deskrl train` with two workers on any machine.
    code = ("import sys; from deskrl import cli; cli._cpu_count = lambda: 2; "
            f"sys.exit(cli.main(['train', {cfg_path!r}]))")
    proc = subprocess.Popen([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": SRC},
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        status = {}
        while time.monotonic() < deadline and set(status.values()) != {"running"}:
            time.sleep(0.05)
            try:
                status = json.loads((run / "manifest.json").read_text())["status"]
            except (OSError, ValueError):
                pass
        assert set(status.values()) == {"running"}, status
        workers = live_children(proc.pid)
        assert len(workers) == 1
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait()
    deadline = time.monotonic() + 2
    while time.monotonic() < deadline and any(map(is_live, workers)):
        time.sleep(0.02)
    assert not any(map(is_live, workers))


def wait_for_status(run: Path, cell: str, states: set[str]) -> None:
    """Wait until the manifest shows `cell` in one of `states`, so that the
    caller's cell does not end before the worker has taken its own."""
    deadline = time.monotonic() + 30
    while json.loads((run / "manifest.json").read_text())["status"][cell] not in states:
        assert time.monotonic() < deadline, f"{cell} never reached {states}"
        time.sleep(0.01)


def test_a_worker_that_dies_without_raising_fails_its_cell(tmp_path, monkeypatch):
    caller = os.getpid()
    run = tmp_path / "run"

    def train(tc, hp, cell_dir):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        wait_for_status(run, "chase_dot/seed1", {"running"})
        return fake_summary(cell_dir)

    monkeypatch.setattr(cli, "train", train)
    monkeypatch.setattr(cli, "_cpu_count", lambda: 2)
    forked = recording_fork(monkeypatch)
    cfg = load_run_config(write_config(tmp_path, output_dir=str(run)))
    with pytest.raises(RuntimeError,
                       match="^the worker training chase_dot seed1 exited before it finished$"):
        cli.run_training(cfg, quiet=True)
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["status"] == {"chase_dot/seed0": "done", "chase_dot/seed1": "failed"}
    assert len(forked) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(forked[0], os.WNOHANG)
    assert not (run / ".manifest.json.tmp").exists()


def test_a_failed_cell_in_a_worker_is_recorded_and_reported(tmp_path, monkeypatch, capsys):
    caller = os.getpid()
    out = tmp_path / "run"

    def train(tc, hp, cell_dir):
        if os.getpid() != caller:
            raise ZeroDivisionError(f"{tc.env} seed{tc.seed} broke in a worker")
        wait_for_status(out, "chase_dot/seed1", {"running", "failed"})
        return fake_summary(cell_dir)

    monkeypatch.setattr(cli, "train", train)
    monkeypatch.setattr(cli, "_cpu_count", lambda: 2)
    assert main(["train", write_config(tmp_path, output_dir=str(out))]) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload == {"error": "ZeroDivisionError",
                       "message": "chase_dot seed1 broke in a worker"}
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == {"chase_dot/seed0": "done", "chase_dot/seed1": "failed"}


def test_earliest_failed_cell_is_raised_and_unpicklable_errors_keep_their_name(
        tmp_path, monkeypatch):
    caller = os.getpid()
    run = tmp_path / "run"

    class Unpicklable(Exception):  # a local class does not pickle
        pass

    def train(tc, hp, cell_dir):
        if os.getpid() != caller:
            raise Unpicklable(f"seed{tc.seed} failed")
        # The caller's cell 0 fails after the worker's cell 1 has.
        wait_for_status(run, "chase_dot/seed1", {"failed"})
        if fail_in_caller:
            raise KeyError("seed0 failed")
        return fake_summary(cell_dir)

    monkeypatch.setattr(cli, "train", train)
    monkeypatch.setattr(cli, "_cpu_count", lambda: 2)
    cfg = load_run_config(write_config(tmp_path, output_dir=str(run), seeds=[0, 1, 2]))
    fail_in_caller = True
    with pytest.raises(KeyError, match="seed0 failed"):
        cli.run_training(cfg, quiet=True)
    manifest = json.loads((run / "manifest.json").read_text())
    # seed2 is never handed out once a cell has failed
    assert manifest["status"] == {"chase_dot/seed0": "failed", "chase_dot/seed1": "failed",
                                  "chase_dot/seed2": "pending"}

    fail_in_caller = False
    with pytest.raises(RuntimeError, match="^Unpicklable: seed1 failed$"):
        cli.run_training(cfg, quiet=True)
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["status"] == {"chase_dot/seed0": "done", "chase_dot/seed1": "failed",
                                  "chase_dot/seed2": "pending"}
