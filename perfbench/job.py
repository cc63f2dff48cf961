"""One job of one workload, in a fresh process; started by run.py.

Set-up runs from process start (the --t0 the parent passes, on the
system-wide monotonic clock) to the start of the first env step. The job's
wall and CPU time run from there to the end of the job. After the timed
part the job checks its outputs and writes one JSON result to --out.

  --probe      stop at the first env step; only set-up is measured
  --trace 1    record spans around deskrl's public functions and time
               each conv layer in isolation at the shapes it saw
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time

import numpy as np

from deskrl import tensor as T
from deskrl.envs import VecEnv
from deskrl.networks import ConvLayer
from deskrl.rng import Rng
from deskrl.rollout import Collector, RolloutBuffer

import checks
import spans as tracing
from workloads import GAMES, Ops, WORKLOADS


class SetupDone(BaseException):
    """Raised at the first env step of a set-up probe."""


def cpu_seconds() -> float:
    self_, kids = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(
        resource.RUSAGE_CHILDREN)
    return self_.ru_utime + self_.ru_stime + kids.ru_utime + kids.ru_stime


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--probe", action="store_true")
    args = p.parse_args()

    os.makedirs(args.workdir)
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()

    mark: dict = {}

    def first_step(_, call):
        mark["t"], mark["cpu"] = time.monotonic(), cpu_seconds()
        if args.probe:
            raise SetupDone
        return call()

    capture: dict = {}

    def first_finalize(fargs, call):
        buf, bootstrap, gamma, lam = fargs
        call()
        capture.update(
            rewards=buf.rewards.copy(), values=buf.values.copy(), dones=buf.dones.copy(),
            bootstrap=np.array(bootstrap, dtype=np.float64), gamma=gamma, lam=lam,
            advantages=buf.advantages.copy(), returns=buf.returns.copy(),
            obs=buf.obs[0, :2].copy())

    ops = Ops()
    result: dict = {"workload": args.workload, "seed": args.seed}
    try:
        with tracing.once(VecEnv, "step", first_step), \
                tracing.once(RolloutBuffer, "finalize", first_finalize):
            workload.run(ops)
    except SetupDone:
        result.update(setup_s=mark["t"] - args.t0, attempted=1, failed=0, problems=[])
        return write(args.out, result)
    t_end, cpu_end = time.monotonic(), cpu_seconds()
    # rusage gives the peak of the largest waited-for child, not a sum.
    peak_kb = max(resource.getrusage(who).ru_maxrss
                  for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    if tracer:
        tracer.uninstall()

    result.update(
        setup_s=mark["t"] - args.t0, wall_s=t_end - mark["t"], cpu_s=cpu_end - mark["cpu"],
        peak_rss_mb=peak_kb / 1024.0, attempted=ops.attempted, failed=len(ops.errors),
        errors=ops.errors)

    # A failed operation leaves outputs missing, so the checks cannot speak
    # for the job; the verdict says so instead of passing unchecked.
    problems = (workload.check() if not ops.errors
                else [f"checks skipped: {len(ops.errors)} failed operation(s)"])
    if capture:
        problems += checks.check_gae(capture)
    problems += checks.check_conv(conv_records(workload, capture.get("obs")))
    result["problems"] = problems
    result["hash"] = artifact_hash(workload.artifact_paths())

    if tracer:
        spans_path = os.path.splitext(args.out)[0] + ".spans.json"
        tracer.write(spans_path)
        result["spans_path"] = spans_path
        result["layers"] = {**tracing.layer_metrics(tracer.spans),
                            **conv_kernel_metrics(tracing.conv_shapes(tracer.spans))}
    return write(args.out, result)


def write(path, result) -> int:
    with open(path, "w") as f:
        json.dump(result, f)
    return 0


def artifact_hash(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        if os.path.exists(path):
            h.update(os.path.basename(path).encode())
            with open(path, "rb") as f:
                h.update(f.read())
        else:
            h.update(b"missing")
    return h.hexdigest()


def conv_records(workload, obs) -> list[dict]:
    """Each conv layer's input, parameters and output for a 2-sample forward."""
    agent = workload.agent_for_conv_check()
    if obs is None:
        vec = VecEnv(GAMES[0], 2, "test", 50, Rng(0).split("conv-check"))
        obs = Collector(vec, agent.hp.frames).stack.stacked()
    records: list[dict] = []

    def recording(orig):
        def record(layer, x):
            y = orig(layer, x)
            records.append({"name": layer.name, "x": x.data.copy(),
                            "kernel": layer.kernel.data, "bias": layer.bias.data,
                            "stride": layer.spec.stride, "padding": layer.spec.padding,
                            "y": y.data.copy()})
            return y
        return record

    with tracing.patched(ConvLayer, "__call__", recording):
        agent.net.forward(agent.net.format_obs(obs), mode="eval")
    return records


def _median_time(fn, setup=None, min_reps=5, max_reps=30, budget_s=0.2) -> float:
    times = []
    while len(times) < max_reps and (len(times) < min_reps or sum(times) < budget_s):
        arg = setup() if setup else None
        t = time.perf_counter()
        fn(arg)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def conv_kernel_metrics(shapes: dict) -> dict:
    """Forward and backward ms of each conv layer, timed alone through the
    public tensor functions at the input shape it saw in the job."""
    rng = np.random.default_rng(0)
    out: dict[str, float] = {}
    flops_f = flops_b = time_f = time_b = 0.0
    gathered = 0
    for name, s in sorted(shapes.items()):
        op = T.conv2d if s["kind"] == "conv2d" else T.conv3d
        o, c = s["kernel"][:2]
        ksize = s["kernel"][2:]
        spec = T.ConvSpec(ksize, s["stride"], s["padding"], c, o)
        x = rng.standard_normal(s["fwd_shape"])
        k = rng.standard_normal(s["kernel"])
        fwd = _median_time(lambda _: op(T.Tensor(x), T.Tensor(k), spec))

        def graph():
            y = op(T.Tensor(x, requires_grad=True), T.Tensor(k, requires_grad=True), spec)
            return T.tsum(y)

        bwd = _median_time(T.backward, setup=graph)
        out[f"tensor.conv_fwd_ms.{name}"] = fwd * 1e3
        out[f"tensor.conv_bwd_ms.{name}"] = bwd * 1e3
        positions = s["fwd_shape"][0] * int(np.prod(spec.out_extent(s["fwd_shape"][2:])))
        cols = c * int(np.prod(ksize)) * positions
        flops = 2.0 * o * cols
        flops_f += flops
        flops_b += 2.0 * flops  # one GEMM for the kernel gradient, one for the input's
        time_f += fwd
        time_b += bwd
        # The backward pass gathers the columns again for the kernel gradient.
        gathered += cols * 8 * (2 if s["trained"] else 1)
    out["tensor.conv_fwd_gflops"] = flops_f / time_f / 1e9 if time_f else 0.0
    out["tensor.conv_bwd_gflops"] = flops_b / time_b / 1e9 if time_b else 0.0
    out["tensor.im2col_mb"] = gathered / 2**20
    return out


if __name__ == "__main__":
    sys.exit(main())
