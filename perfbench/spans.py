"""Span tracing around deskrl's public functions, from outside the program.

`patched` is the benchmark's one way to replace a module function or class
method for a while. `Tracer.install` uses it to wrap deskrl's public
functions so that each call records a span (name, start, end, parent,
attributes), and `Tracer.uninstall` puts the originals back. Spans stay in
memory until `write` saves them. `layer_metrics` turns the spans into the
per-layer numbers the benchmark reports.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import time
import weakref

_NOW = time.perf_counter


@contextlib.contextmanager
def patched(owner, attr: str, make):
    """Replace owner.attr with make(original) inside the block."""
    orig = owner.__dict__[attr]
    setattr(owner, attr, make(orig))
    try:
        yield
    finally:
        setattr(owner, attr, orig)


def once(owner, attr: str, hook):
    """Like `patched`, but only the first call goes through hook(args, call);
    that call puts the original back, so later calls cost nothing extra."""
    def make(orig):
        def first(*args, **kwargs):
            setattr(owner, attr, orig)
            return hook(args, lambda: orig(*args, **kwargs))
        return first
    return patched(owner, attr, make)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, attrs]
        self._open: list[int] = []
        self._patches = contextlib.ExitStack()

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Trace owner.attr; before(args) and after(args, result) return attrs."""
        self._patches.enter_context(
            patched(owner, attr, lambda orig: self.traced(orig, name, before, after)))

    def traced(self, orig, name: str, before=None, after=None):
        """orig wrapped so that each call records a span."""
        spans, open_ = self.spans, self._open

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, _NOW(), 0.0, open_[-1] if open_ else -1,
                          before(args) if before else None])
            open_.append(idx)
            try:
                result = orig(*args, **kwargs)
            finally:
                spans[idx][2] = _NOW()
                open_.pop()
            if after:
                extra = after(args, result)
                spans[idx][4] = {**(spans[idx][4] or {}), **extra}
            return result

        return traced

    def install(self) -> None:
        from deskrl import agents, cli, envs, networks, optim, rollout, stats, tensor, trainer

        ep_steps: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

        def step_after(args, result):
            # Per-slot step counts, so the lengths of finished episodes are
            # known in the order the collector reports them.
            vec = args[0]
            counts = ep_steps.setdefault(vec, [0] * vec.num_envs)
            lengths = []
            for i, done in enumerate(result[2]):
                counts[i] += 1
                if done:
                    lengths.append(counts[i])
                    counts[i] = 0
            return {"n": vec.num_envs, "done_lengths": lengths}

        def conv_before(args):
            layer, x = args[0], args[1]
            return {"layer": layer.name, "kind": layer.kind, "shape": list(x.shape),
                    "kernel": list(layer.kernel.shape),
                    "stride": list(layer.spec.stride), "padding": list(layer.spec.padding)}

        def finalize_after(args, _):
            buf = args[0]
            arrays = [buf.obs, buf.actions, buf.logprobs, buf.rewards, buf.dones,
                      buf.values, buf.advantages, buf.returns]
            return {"bytes": sum(a.nbytes for a in arrays)}

        def conv_op(orig):
            # The output's backward closure gets a span of its own, a child
            # of tensor.backward, so conv backward time is known apart.
            def op(*args):
                out = orig(*args)
                if out._backward_fn is not None:
                    out._backward_fn = self.traced(out._backward_fn, "tensor.conv_bwd")
                return out
            return op

        def write_after(args, _):
            return {"bytes": os.path.getsize(args[0])}

        def eval_after(args, result):
            return {"episodes": len(result)}

        self.wrap(cli, "run_training", "cli.run_training")
        self.wrap(cli, "build_report", "report.build_report")
        self.wrap(stats, "bootstrap_ci", "stats.bootstrap_ci")
        self.wrap(trainer, "train", "trainer.train")
        self.wrap(trainer, "evaluate_policy", "trainer.evaluate_policy", after=eval_after)
        self.wrap(trainer, "write_container", "serialize.write", after=write_after)
        self.wrap(trainer, "read_container", "serialize.read")
        self.wrap(agents.Agent, "select_action", "agents.select_action")
        self.wrap(agents.Agent, "value_estimate", "agents.value_estimate")
        self.wrap(agents.Agent, "update", "agents.update")
        self.wrap(agents, "clip_grad_norm", "optim.clip_grad_norm")
        self.wrap(optim.Adam, "step", "optim.adam_step")
        self.wrap(tensor, "backward", "tensor.backward")
        self._patches.enter_context(patched(tensor, "conv2d", conv_op))
        self._patches.enter_context(patched(tensor, "conv3d", conv_op))
        self.wrap(networks.PolicyValueNet, "forward", "networks.forward")
        self.wrap(networks.ConvLayer, "__call__", "networks.conv", before=conv_before)
        self.wrap(rollout.Collector, "collect", "rollout.collect")
        self.wrap(rollout, "compute_gae", "rollout.gae")
        self.wrap(rollout.RolloutBuffer, "finalize", "rollout.finalize", after=finalize_after)
        self.wrap(envs.VecEnv, "step", "envs.step", after=step_after)

    def uninstall(self) -> None:
        self._patches.close()

    def write(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "attrs"],
                       "spans": self.spans}, f)


P90_MIN_CALLS = 100


def _p90(xs):
    """90th percentile by nearest rank; 0 (not measured) below 100 calls."""
    s = sorted(xs)
    if len(s) < P90_MIN_CALLS:
        return 0.0
    return s[-(-9 * len(s) // 10) - 1]


class SpanIndex:
    """Durations, self times and ancestry over a list of spans."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.child_time = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                self.child_time[s[3]] += s[2] - s[1]

    def named(self, name: str):
        return [i for i, s in enumerate(self.spans) if s[0] == name]

    def duration(self, i: int) -> float:
        return self.spans[i][2] - self.spans[i][1]

    def self_time(self, i: int) -> float:
        return self.duration(i) - self.child_time[i]

    def total(self, name: str) -> float:
        return sum(self.duration(i) for i in self.named(name))

    def ancestors(self, i: int):
        p = self.spans[i][3]
        while p >= 0:
            yield p
            p = self.spans[p][3]

    def has_ancestor(self, i: int, name: str) -> bool:
        return any(self.spans[p][0] == name for p in self.ancestors(i))


def layer_metrics(spans: list[list]) -> dict:
    """Per-layer numbers from one traced job (conv kernel timings excluded)."""
    ix = SpanIndex(spans)
    m: dict[str, float] = {}

    m["tensor.backward_s"] = ix.total("tensor.backward")
    m["tensor.backward_calls"] = len(ix.named("tensor.backward"))
    m["tensor.conv_bwd_s"] = ix.total("tensor.conv_bwd")

    fwd = ix.named("networks.forward")
    act = [i for i in fwd if not ix.has_ancestor(i, "agents.update")]
    train = [i for i in fwd if ix.has_ancestor(i, "agents.update")]
    m["networks.forward_act_s"] = sum(ix.duration(i) for i in act)
    m["networks.forward_act_calls"] = len(act)
    m["networks.forward_train_s"] = sum(ix.duration(i) for i in train)
    m["networks.conv_fwd_s"] = ix.total("networks.conv")

    sel = [ix.duration(i) * 1e3 for i in ix.named("agents.select_action")]
    m["agents.select_action_calls"] = len(sel)
    m["agents.select_action_ms"] = statistics.median(sel) if sel else 0.0
    m["agents.select_action_ms_p90"] = _p90(sel)
    m["agents.value_estimate_s"] = ix.total("agents.value_estimate")
    m["agents.update_s"] = ix.total("agents.update")
    m["agents.minibatches"] = len(train)

    collect = ix.named("rollout.collect")
    m["rollout.collect_s"] = sum(ix.duration(i) for i in collect)
    m["rollout.collect_self_s"] = sum(ix.self_time(i) for i in collect)
    m["rollout.gae_s"] = ix.total("rollout.gae")
    buf = [spans[i][4]["bytes"] for i in ix.named("rollout.finalize")]
    m["rollout.buffer_mb"] = max(buf) / 2**20 if buf else 0.0

    steps = ix.named("envs.step")
    m["envs.step_s"] = sum(ix.duration(i) for i in steps)
    m["envs.env_steps"] = sum(spans[i][4]["n"] for i in steps)

    m["optim.adam_s"] = ix.total("optim.adam_step")
    m["optim.clip_s"] = ix.total("optim.clip_grad_norm")

    evals = ix.named("trainer.evaluate_policy")
    m["trainer.eval_s"] = sum(ix.duration(i) for i in evals)
    eval_steps = [i for i in steps if ix.has_ancestor(i, "trainer.evaluate_policy")]
    ran = sum(spans[i][4]["n"] for i in eval_steps)
    m["trainer.eval_env_steps"] = ran
    # evaluate_policy returns the first N completions in the order the
    # collector saw them, so the useful steps are those episodes' lengths.
    useful = 0
    for e in evals:
        lengths = [n for i in eval_steps if e in ix.ancestors(i)
                   for n in spans[i][4]["done_lengths"]]
        useful += sum(lengths[:spans[e][4]["episodes"]])
    m["trainer.eval_useful_step_ratio"] = useful / ran if ran else 0.0

    writes = ix.named("serialize.write")
    m["serialize.write_s"] = sum(ix.duration(i) for i in writes)
    m["serialize.read_s"] = ix.total("serialize.read")
    sizes = [spans[i][4]["bytes"] for i in writes]
    m["serialize.checkpoint_mb"] = statistics.median(sizes) / 2**20 if sizes else 0.0

    m["stats.bootstrap_s"] = ix.total("stats.bootstrap_ci")
    m["report.build_s"] = ix.total("report.build_report")
    m["cli.run_training_s"] = ix.total("cli.run_training")
    return m


def conv_shapes(spans: list[list]) -> dict:
    """Per conv layer: its geometry, and the input shapes it saw most often
    when acting (outside Agent.update) and when training (inside it)."""
    ix = SpanIndex(spans)
    layers: dict[str, dict] = {}
    for i in ix.named("networks.conv"):
        a = spans[i][4]
        entry = layers.setdefault(a["layer"], {
            "kind": a["kind"], "kernel": a["kernel"], "stride": a["stride"],
            "padding": a["padding"], "act": {}, "train": {}})
        side = "train" if ix.has_ancestor(i, "agents.update") else "act"
        key = tuple(a["shape"])
        entry[side][key] = entry[side].get(key, 0) + 1
    out = {}
    for name, e in layers.items():
        pick = {side: max(c.items(), key=lambda kv: (kv[1], kv[0]))[0]
                for side, c in (("act", e["act"]), ("train", e["train"])) if c}
        out[name] = {k: e[k] for k in ("kind", "kernel", "stride", "padding")}
        out[name]["fwd_shape"] = list(pick.get("train", pick.get("act")))
        out[name]["trained"] = "train" in pick
    return out
