"""Command-line harness: train / aggregate / selfcheck / ablate / plot.

Configs are YAML key-value files; `--set` overrides file values.
`RunConfig` owns the run grid: it shares `trainer.CellSettings` (the
per-cell settings, their defaults and their checks) with `TrainConfig`,
and checks the grid and the hyperparameters, `hyperparam_overrides`
included, on every construction (`load_run_config`, a direct call or
`dataclasses.replace`), so every problem is reported at once before any
file is written. Runs are laid out as
<output_dir>/<env>/seed<k>/ with a manifest.json recording the config hash,
per-seed status, and the complete file inventory. Errors exit nonzero with
a machine-readable JSON object on stderr.

`run_training` trains a grid's cells in parallel, one per CPU of the
process's affinity mask (`taskset -c 0 deskrl train ...` trains one at a
time). The workers are the calling process and forked children; each takes
the first pending cell in grid order and runs `trainer.train` on it, so
every file is byte-identical to a one-worker run. With more than one
worker, each runs numpy's bundled OpenBLAS on one thread, and the caller
restores its own thread count when the pool ends. manifest.json is the
queue and the status record: a worker claims a cell and records its end
there itself, each time under a lock on the run directory. A failed cell
stops the hand-out; the cells already running finish, and the earliest
failure in grid order is re-raised. A cell whose worker died without
raising is marked failed once every worker has ended. No worker outlives
the call.

The DESKRL_OUTPUT_ROOT environment variable sets the default output root.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import fcntl
import functools
import glob
import hashlib
import json
import os
import pickle
import signal
import sys

import numpy as np
import yaml

from . import __version__
from .agents import PRESETS, AgentHyperparams, is_int, preset
from .report import build_report, collect_run_scores, render_svg
from .selfcheck import run_selfcheck
from .serialize import atomic_write
from .trainer import CellSettings, TrainConfig, grid_problems, train

__all__ = ["main", "load_run_config", "RunConfig"]


@dataclasses.dataclass(kw_only=True)
class RunConfig(CellSettings):
    """The (env, seed) grid of a run and the settings its cells share."""

    preset: str = None  # required fields default to None, reported as missing
    envs: list[str] = None
    seeds: list[int] = None
    window: int = 100
    hyperparam_overrides: dict = dataclasses.field(default_factory=dict)
    output_dir: str | None = None

    def problems(self) -> list[str]:
        problems = super().problems()
        known_preset = isinstance(self.preset, str) and self.preset in PRESETS
        if not self.preset:
            problems.append("missing required field: preset")
        elif not known_preset:
            problems.append(f"unknown preset {self.preset!r}; known: {sorted(PRESETS)}")
        problems += grid_problems(self.envs, self.seeds)
        if not is_int(self.window) or self.window <= 0:
            problems.append("window must be a positive integer")
        if not isinstance(self.output_dir, (str, type(None))):
            problems.append("output_dir must be a string or null")
        if not isinstance(self.hyperparam_overrides, dict):
            problems.append("hyperparam_overrides must be a mapping")
        elif known_preset:
            try:
                hp = self.hyperparams()
            except (TypeError, ValueError) as exc:
                problems.append(f"hyperparam_overrides for preset {self.preset}: {exc}")
            else:
                if is_int(self.num_envs) and self.num_envs > 0 and hp.batch_size % self.num_envs:
                    problems.append(f"batch_size {hp.batch_size} must be a multiple of "
                                    f"num_envs {self.num_envs}")
        return problems

    def hyperparams(self) -> AgentHyperparams:
        # replace() re-runs AgentHyperparams' checks on the overridden set.
        return dataclasses.replace(preset(self.preset), **self.hyperparam_overrides)

    def resolved_output_dir(self) -> str:
        if self.output_dir:
            return self.output_dir
        root = os.environ.get("DESKRL_OUTPUT_ROOT", "runs")
        return os.path.join(root, self.preset)

    def canonical(self) -> dict:
        return {**dataclasses.asdict(self), "hyperparams": dataclasses.asdict(self.hyperparams())}


def _digest(canonical: dict) -> str:
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def load_run_config(path, overrides: dict | None = None) -> RunConfig:
    """Read a run config, apply `overrides`; raises with every problem listed."""
    with open(path) as f:
        raw = yaml.safe_load(f) or {}
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: config must be a mapping")
    raw = {**raw, **(overrides or {})}
    unknown = set(raw) - {f.name for f in dataclasses.fields(RunConfig)}
    if unknown:
        raise ValueError(f"{path}: unknown config fields: {sorted(unknown)}")
    if raw.get("hyperparam_overrides", {}) is None:
        raw["hyperparam_overrides"] = {}
    try:
        return RunConfig(**raw)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _write_manifest(out_dir, canonical: dict, keys: list[str]) -> None:
    """The first manifest: every cell pending, with no files."""
    manifest = {
        "artifact_version": __version__,
        "config_hash": _digest(canonical),
        "config": canonical,
        "status": dict.fromkeys(keys, "pending"),
        "files": {**{key: [] for key in keys}, ".": ["manifest.json", "config.yaml"]},
    }
    with atomic_write(os.path.join(out_dir, "manifest.json")) as f:
        json.dump(manifest, f, indent=1, sort_keys=True)


# -- the worker pool ----------------------------------------------------------
#
# manifest.json is the pool's only shared state, both the cell queue and the
# status record. Every change to it is a read-modify-write under an
# exclusive flock on the run directory. Each change opens the directory
# anew, so no two processes share the locked descriptor (a lock on an
# inherited one would not exclude the other process), and the kernel drops
# the lock if its holder dies. Each forked worker has one pipe to the
# caller, on which it writes one pickled (cell, exception) if a cell of its
# own fails, and nothing otherwise.

_PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>


@functools.cache
def _libc() -> ctypes.CDLL:
    """The C library, for `prctl` and `sched_getcpu`, which `os` lacks. Used
    only to fork, and only a process whose affinity mask `os` reads forks."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes, libc.prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
    libc.sched_getcpu.argtypes, libc.sched_getcpu.restype = (), ctypes.c_int
    return libc


def _set_blas_threads(count: int) -> int | None:
    """Limit numpy's bundled OpenBLAS to `count` threads; returns the previous
    count. Changes nothing and returns None where the install has no such
    library or it lacks the calls. Loading the library numpy already loaded
    returns that same library."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas64_*"))
    try:
        lib = ctypes.CDLL(libs[0])
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (IndexError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = (), ctypes.c_int
    put.argtypes, put.restype = (ctypes.c_int,), None
    previous = get()
    put(count)
    return previous


def _cpu_count() -> int:
    """The CPUs of the process's affinity mask; 1 where `os` cannot read it."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


@contextlib.contextmanager
def _locked_manifest(out_dir):
    """Yield the run's manifest with the run directory locked; it is written
    back when the block ends without raising."""
    path = os.path.join(out_dir, "manifest.json")
    fd = os.open(out_dir, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        with open(path) as f:
            manifest = json.load(f)
        yield manifest
        with atomic_write(path) as f:  # the first manifest's bytes, round-tripped
            json.dump(manifest, f, indent=1, sort_keys=True)
    finally:
        os.close(fd)  # and with it the lock


def _claim(out_dir, keys: list[str]) -> int | None:
    """Mark the first pending cell running and return it; None once none is
    pending or any cell has failed."""
    with _locked_manifest(out_dir) as manifest:
        status = manifest["status"]
        if "failed" not in status.values():
            for cell, key in enumerate(keys):
                if status[key] == "pending":
                    status[key] = "running"
                    return cell
    return None


def _portable(exc: BaseException) -> BaseException:
    """`exc` if it survives pickling, else a RuntimeError naming its type."""
    try:
        return pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _child_work(parent: int, parent_cpu: int, report: int, work) -> None:
    """A forked worker's whole life; it ends in os._exit, never returns."""
    code = 1
    try:
        if _libc().prctl(_PR_SET_PDEATHSIG, signal.SIGKILL) != 0:
            raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")
        if os.getppid() == parent:  # else the caller died before prctl
            # Move off the caller's CPU, then take the whole mask back. Left
            # where fork put it, a child shares the caller's CPU for tens of
            # ms; kept pinned, its BLAS threads would share its few CPUs.
            mask = os.sched_getaffinity(0)
            if mask - {parent_cpu}:
                os.sched_setaffinity(0, mask - {parent_cpu})
                os.sched_setaffinity(0, mask)
            failure = work()
            if failure is not None:
                with open(report, "wb") as f:
                    pickle.dump((failure[0], _portable(failure[1])), f)
            code = 0
    finally:
        os._exit(code)


def run_training(cfg: RunConfig, quiet: bool = False) -> str:
    """Train every (env, seed) cell of the run grid; returns the run dir.

    Uses min(cells, CPUs in the affinity mask) workers: this process and
    forked children, started after config.yaml and the first manifest are
    written. With one worker nothing is forked. Raises the exception of the
    earliest failed cell in grid order once every worker has ended; one
    that does not pickle comes back as RuntimeError("<Type>: <message>"),
    and a cell whose worker ended without finishing it as a RuntimeError
    naming the cell.
    """
    out_dir = cfg.resolved_output_dir()
    os.makedirs(out_dir, exist_ok=True)
    # config.yaml holds the RunConfig fields only, so `deskrl train` can run
    # it again; the resolved hyperparameters are in manifest.json's config.
    with open(os.path.join(out_dir, "config.yaml"), "w") as f:
        yaml.safe_dump(dataclasses.asdict(cfg), f, sort_keys=True)
    hp = cfg.hyperparams()
    cells = [(env, seed) for env in cfg.envs for seed in cfg.seeds]
    keys = [f"{env}/seed{seed}" for env, seed in cells]
    _write_manifest(out_dir, cfg.canonical(), keys)

    def work(cell: int | None) -> tuple[int, Exception] | None:
        """Train cells from `cell` on until none is left or one fails;
        returns the failed cell and its exception."""
        while cell is not None:
            env, seed = cells[cell]
            try:
                tc = TrainConfig(env=env, seed=seed, **cfg.cell_settings())
                summary = train(tc, hp, os.path.join(out_dir, env, f"seed{seed}"))
            except Exception as exc:
                with _locked_manifest(out_dir) as manifest:
                    manifest["status"][keys[cell]] = "failed"
                return cell, exc
            with _locked_manifest(out_dir) as manifest:
                manifest["status"][keys[cell]] = "done"
                manifest["files"][keys[cell]] = summary["files"]
            if not quiet:
                print(f"[train] {cfg.preset} {env} seed{seed}: {summary['steps']} steps, "
                      f"{summary['updates']} updates", flush=True)
            cell = _claim(out_dir, keys)
        return None

    # Taken before the forks, so the caller trains a cell however fast the
    # children start.
    mine = _claim(out_dir, keys)
    caller = os.getpid()
    children: list[int] = []
    reports = []  # read ends of the children's pipes
    workers = min(len(cells), _cpu_count())
    # One BLAS thread per worker, or W workers would run W x CPUs threads;
    # the children inherit the caller's setting at the fork.
    blas_threads = _set_blas_threads(1) if workers > 1 else None
    sys.stdout.flush()
    sys.stderr.flush()
    try:
        for _ in range(workers - 1):
            r, w = os.pipe()
            reports.append(open(r, "rb"))
            try:
                cpu = _libc().sched_getcpu()
                pid = os.fork()
                if pid == 0:
                    _child_work(caller, cpu, w, lambda: work(_claim(out_dir, keys)))
            finally:
                os.close(w)
            children.append(pid)
        failure = work(mine)
        failures = dict([failure] if failure else [])
        for report in reports:  # each read ends when its worker does
            if message := report.read():
                cell, exc = pickle.loads(message)
                failures[cell] = exc
        while children:
            os.waitpid(children[-1], 0)
            children.pop()
    finally:
        for pid in children:  # only after an exception: stop and reap the rest
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)
        for report in reports:
            report.close()
        if blas_threads is not None:
            _set_blas_threads(blas_threads)
        # Every worker has ended, so a cell still running lost its worker: it
        # crashed, was killed, or the caller's cell raised a BaseException.
        with _locked_manifest(out_dir) as manifest:
            lost = [cell for cell, key in enumerate(keys) if manifest["status"][key] == "running"]
            for cell in lost:
                manifest["status"][keys[cell]] = "failed"
    for cell in lost:
        env, seed = cells[cell]
        failures.setdefault(cell, RuntimeError(
            f"the worker training {env} seed{seed} exited before it finished"))
    if failures:
        raise failures[min(failures)]
    return out_dir


# -- subcommands ------------------------------------------------------------

def _parse_overrides(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        out[key] = yaml.safe_load(value)
    return out


def cmd_train(args) -> int:
    run_dir = run_training(load_run_config(args.config, _parse_overrides(args.set)))
    print(f"[train] run complete: {run_dir}")
    return 0


def cmd_aggregate(args) -> int:
    agent_dirs = {}
    for entry in args.run_dirs:
        if "=" in entry:
            label, path = entry.split("=", 1)
        else:
            label, path = os.path.basename(os.path.normpath(entry)), entry
        if label in agent_dirs:
            raise ValueError(f"two run dirs have the label {label!r}: "
                             f"{agent_dirs[label]} and {path}")
        agent_dirs[label] = path
    report = build_report(agent_dirs, window=args.window, num_resamples=args.resamples)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "report.json"), "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    with open(os.path.join(args.out, "report.svg"), "w") as f:
        f.write(render_svg(report))
    for label, agent in report["agents"].items():
        m = agent["metrics"]
        print(f"[aggregate] {label}: median {m['median']:.3f} iqm {m['iqm']:.3f} "
              f"mean {m['mean']:.3f} gap {m['optimality_gap']:.3f}")
    ref = report["full_scale_reference"]
    print("[aggregate] full-scale reference (baseline -> scaled): "
          + " ".join(f"{k} {v['baseline']:.2f}->{v['scaled']:.2f}"
                     for k, v in ref.items()))
    print(f"[aggregate] wrote {args.out}/report.json and report.svg")
    return 0


def cmd_selfcheck(args) -> int:
    results = run_selfcheck()
    failed = [r for r in results if not r.passed]
    for r in results:
        print(f"[selfcheck] {'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
    print(f"[selfcheck] {len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def cmd_ablate(args) -> int:
    cfg = load_run_config(args.config, _parse_overrides(args.set))
    presets = ["ppo", "ppo3d", "vsop", "vsop3d"]
    root = cfg.resolved_output_dir()
    # hyperparam_overrides apply to every preset alike, so paired
    # comparisons stay apples-to-apples even at reduced budgets; every
    # preset's config is checked before any of them trains
    try:
        subs = {name: dataclasses.replace(cfg, preset=name, output_dir=os.path.join(root, name))
                for name in presets}
    except ValueError as exc:
        raise ValueError(f"{args.config}: {exc}") from None
    run_dirs = {name: run_training(sub) for name, sub in subs.items()}

    scores = {name: collect_run_scores(run_dirs[name], cfg.window)[0]
              for name in presets}
    comparisons = [("ppo3d", "ppo"), ("vsop3d", "vsop")]
    result = {"budget_steps": cfg.total_steps, "envs": cfg.envs,
              "seeds": cfg.seeds, "pairs": {}}
    for new, base in comparisons:
        table = {}
        for env in cfg.envs:
            deltas = [scores[new][(env, s)] - scores[base][(env, s)]
                      for s in cfg.seeds]
            table[env] = {
                "per_seed_delta": deltas,
                "signs": ["+" if d > 0 else "-" if d < 0 else "0" for d in deltas],
                "wins": int(sum(d > 0 for d in deltas)),
            }
        result["pairs"][f"{new}_vs_{base}"] = table
    out_path = os.path.join(root, "ablation.json")
    with open(out_path, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    for pair, table in result["pairs"].items():
        for env, row in table.items():
            print(f"[ablate] {pair} {env}: signs {' '.join(row['signs'])} "
                  f"({row['wins']}/{len(cfg.seeds)} seeds improved)")
    print(f"[ablate] wrote {out_path}")
    return 0


def cmd_plot(args) -> int:
    with open(args.report) as f:
        report = json.load(f)
    out = args.out or os.path.join(os.path.dirname(args.report), "report.svg")
    with open(out, "w") as f:
        f.write(render_svg(report))
    print(f"[plot] wrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="deskrl", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="run the (env x seed) training grid from a config")
    t.add_argument("config")
    t.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override any config field")
    t.set_defaults(fn=cmd_train)

    a = sub.add_parser("aggregate", help="aggregate completed runs into a metrics report")
    a.add_argument("run_dirs", nargs="+", metavar="LABEL=DIR")
    a.add_argument("--out", default="report")
    a.add_argument("--window", type=int, default=100)
    a.add_argument("--resamples", type=int, default=2000)
    a.set_defaults(fn=cmd_aggregate)

    s = sub.add_parser("selfcheck", help="run the fast oracle battery")
    s.set_defaults(fn=cmd_selfcheck)

    ab = sub.add_parser("ablate", help="ppo vs ppo3d vs vsop vs vsop3d comparison")
    ab.add_argument("config")
    ab.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    ab.set_defaults(fn=cmd_ablate)

    pl = sub.add_parser("plot", help="re-render the SVG figure from a report.json")
    pl.add_argument("report")
    pl.add_argument("--out")
    pl.set_defaults(fn=cmd_plot)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # uniform machine-readable failure surface
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
