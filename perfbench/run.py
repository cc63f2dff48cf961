"""deskrl benchmark: one workload, measured for a set time, checked, reported.

    python3 perfbench/run.py [--workload W|all] [--seed 0] [--seconds 30] [--trace 0|1]

Run from the root of a deskrl checkout; deskrl is imported from ./src.
Each job runs in a fresh process (job.py), one after another, with one
BLAS/OpenMP thread. With --trace 0 the run first starts three set-up
probes, then whole jobs until the next one would end past --seconds, and
reports the end-to-end metrics as medians over them (at least MIN_JOBS). With --trace 1 it
runs one plain and one traced job and reports the per-layer metrics and
the tracing overhead. The last line of stdout is the result as JSON. With
--workload all (the default) the three workloads run one after another,
each ending in its own result line, which then also names the workload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("grid_ppo2d", "train_vsop3d", "eval_vsop3d")
# Jobs a --trace 0 run makes at least, so that their artifact hashes are
# compared. A grid_ppo2d job takes most of a run; it re-trains one cell
# from scratch in its checks and compares the bytes instead.
MIN_JOBS = {"grid_ppo2d": 1, "train_vsop3d": 2, "eval_vsop3d": 2}
SETUP_PROBES = 3
DEADLINE_S = 170.0  # every child is stopped by then; the run must end within 180 s
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def declared_metrics(kind: str) -> dict:
    """Name -> unit of the metrics BENCHMARK.json declares ("end_to_end" or "per_layer")."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


class Runner:
    def __init__(self, workload: str, seed: int, workdir: str):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.start = time.monotonic()
        self.count = 0
        self.env = dict(os.environ, **ONE_THREAD, PYTHONHASHSEED="0",
                        PYTHONDONTWRITEBYTECODE="1",
                        PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), HERE]))

    def spawn(self, trace: int = 0, probe: bool = False) -> dict:
        """Run one child to its end; returns its result or raises."""
        self.count += 1
        name = f"job{self.count}"
        out = os.path.join(self.workdir, f"{name}.json")
        log = os.path.join(self.workdir, f"{name}.log")
        remaining = DEADLINE_S - (time.monotonic() - self.start)
        if remaining <= 1.0:
            raise RuntimeError("no time left for another job")
        cmd = [sys.executable, os.path.join(HERE, "job.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--workdir", os.path.join(self.workdir, name), "--out", out,
               "--trace", str(trace)] + (["--probe"] if probe else [])
        with open(log, "w") as lf:
            t0 = time.monotonic()
            # subprocess.run kills the child on timeout and waits for it.
            proc = subprocess.run(cmd + ["--t0", repr(t0)], env=self.env, cwd=ROOT,
                                  stdout=lf, stderr=subprocess.STDOUT, timeout=remaining)
        if proc.returncode != 0 or not os.path.exists(out):
            with open(log) as lf:
                tail = lf.read()[-2000:]
            raise RuntimeError(f"{name} exited {proc.returncode}:\n{tail}")
        with open(out) as f:
            result = json.load(f)
        result["elapsed_s"] = time.monotonic() - t0
        if not probe:
            shutil.rmtree(os.path.join(self.workdir, name), ignore_errors=True)
        return result


def verdict(results: list[dict], jobs: list[dict]) -> tuple[bool, list[str]]:
    problems = [p for r in results for p in r.get("problems", [])]
    hashes = {j["hash"] for j in jobs}
    if len(hashes) > 1:
        problems.append(f"artifacts differ between identical jobs: {sorted(hashes)}")
    return not problems, problems


def measure(runner: Runner, seconds: int) -> tuple[list[dict], dict]:
    probes = [runner.spawn(probe=True) for _ in range(SETUP_PROBES)]
    jobs = []
    while True:
        jobs.append(runner.spawn())
        if (len(jobs) >= MIN_JOBS[runner.workload]
                and time.monotonic() - runner.start + jobs[-1]["elapsed_s"] > seconds):
            break
    metrics = {name: statistics.median(j[name] for j in jobs)
               for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    metrics["setup_s"] = statistics.median(r["setup_s"] for r in probes + jobs)
    return probes + jobs, {k: {"value": metrics[k], "unit": u}
                           for k, u in declared_metrics("end_to_end").items()}


def measure_layers(runner: Runner, facts: dict, keep_dir: str) -> tuple[list[dict], dict]:
    plain = runner.spawn()
    traced = runner.spawn(trace=1)
    layers = dict(traced["layers"])
    layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    layers["machine.gemm_gflops"] = facts["gemm_gflops"]
    layers["machine.nproc"] = facts["nproc"]
    os.makedirs(keep_dir, exist_ok=True)
    kept = os.path.join(keep_dir, f"{runner.workload}-seed{runner.seed}.spans.json")
    shutil.move(traced["spans_path"], kept)
    # Each timed layer's share of the traced job's wall time. Spans that
    # began before the first env step, in set-up, can exceed 1.
    shares = {k: round(v / traced["wall_s"], 4) for k, v in sorted(layers.items())
              if k.endswith("_s") and k != "trace.overhead_s"}
    print(json.dumps({"spans": os.path.relpath(kept, ROOT), "traced_wall_s": traced["wall_s"],
                      "share_of_wall": shares}))
    units = declared_metrics("per_layer")
    return [plain, traced], {k: {"value": layers[k], "unit": u} for k, u in units.items()}


def run_workload(workload: str, args, facts: dict) -> dict | None:
    """One run of one workload; returns its result, or None if a job failed to run."""
    base = os.path.join(ROOT, ".perfbench_work")
    workdir = os.path.join(base, f"{workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    runner = Runner(workload, args.seed, workdir)
    try:
        if args.trace:
            results, metrics = measure_layers(runner, facts, os.path.join(base, "trace"))
        else:
            results, metrics = measure(runner, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {workload}: {exc}", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    jobs = [r for r in results if "wall_s" in r]
    correct, problems = verdict(results, jobs)
    errors = [e for r in results for e in r.get("errors", [])]
    print(json.dumps({"workload": workload, "jobs": len(jobs),
                      "wall_s": [j["wall_s"] for j in jobs],
                      "setup_samples": len(results),
                      "artifact_hash": jobs[0]["hash"], "problems": problems,
                      "errors": errors}))
    return {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = p.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "deskrl", "__init__.py")):
        print(f"perfbench: no deskrl sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    os.environ.update(ONE_THREAD)  # before numpy loads, for the GEMM base rate
    sys.path.insert(0, HERE)
    sys.dont_write_bytecode = True  # leave the checkout as it was, like the children
    import machine
    facts = machine.facts()
    print(json.dumps({"machine": facts}))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result = run_workload(name, args, facts)
        if result is None:
            return 1
        print(json.dumps({"workload": name, **result} if len(names) > 1 else result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
