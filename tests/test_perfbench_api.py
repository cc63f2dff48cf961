"""The names the benchmark drives still exist and still work.

`perfbench/` wraps deskrl's public functions by name (`spans.patched` reads
`owner.__dict__[attr]`) and records conv layers through `ConvLayer.__call__`,
so a rename would otherwise fail only a benchmark run, not the test suite.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import checks
    import job
    import spans
    import workloads
    return checks, job, spans, workloads


def test_tracer_installs_over_every_wrapped_name(perfbench):
    _, _, spans, _ = perfbench
    tracer = spans.Tracer()
    try:
        tracer.install()  # raises KeyError on a name deskrl no longer has
    finally:
        tracer.uninstall()


def test_conv_records_of_an_eval_agent_pass_the_conv_check(perfbench, tmp_path):
    checks, job, _, workloads = perfbench
    from deskrl.agents import Agent
    from deskrl.rng import Rng

    w = workloads.EvalVSOP3D(0, str(tmp_path))
    w.agent = Agent(w.hp, workloads.OBS_SIZE, workloads.NUM_ACTIONS,
                    Rng(w.AGENT_SEED).split("agent"))
    records = job.conv_records(w, None)
    assert len(records) == 15
    assert checks.check_conv(records) == []


def test_conv_hooks_see_every_layer_and_keep_its_bias_gradient(perfbench):
    # The benchmark wraps tensor.conv3d with a wrapper that passes positional
    # arguments through; ConvLayer must reach the conv through the module
    # attribute, with its bias, and the wrapped backward must still fill it.
    _, _, spans, _ = perfbench
    from deskrl import tensor as T
    from deskrl.agents import preset
    from deskrl.networks import PolicyValueNet
    from deskrl.rng import Rng

    x = np.random.default_rng(0).normal(size=(1, 2, 3, 4, 4))
    k = np.random.default_rng(1).normal(size=(2, 2, 3, 3, 3))
    y = T.conv3d(T.Tensor(x), T.Tensor(k), T.ConvSpec((3, 3, 3), (1, 1, 1), (1, 1, 1), 2, 2))
    assert y.shape == (1, 2, 3, 4, 4)

    calls = []

    def counting(orig):
        def op(*args):
            calls.append(len(args))
            return orig(*args)
        return op

    net = PolicyValueNet(preset("vsop3d"), 16, 5, Rng(0))
    obs = net.format_obs(np.random.default_rng(2).random((2, 8, 16, 16, 3)))
    with spans.patched(T, "conv3d", counting):
        net.forward(obs)
    assert calls == [4] * 15

    tracer = spans.Tracer()
    tracer.install()
    try:
        out = net.forward(obs)
        T.backward(T.add(T.tsum(out.logits), T.tsum(out.value)))
    finally:
        tracer.uninstall()
    assert any(s[0] == "tensor.conv_bwd" for s in tracer.spans)
    for layer in net.conv_layers():
        assert layer.bias.grad is not None and np.any(layer.bias.grad != 0.0), layer.name


def test_build_report_records_one_bootstrap_span_per_metric_and_agent(perfbench, tmp_path):
    # stats.bootstrap_s sums these spans; folding the per-metric calls into
    # one would leave it reading zero.
    _, _, spans, _ = perfbench
    from deskrl import cli

    for agent in ("a", "b"):
        for seed in (0, 1):
            cell = tmp_path / agent / "chase_dot" / f"seed{seed}"
            cell.mkdir(parents=True)
            (cell / "metrics.csv").write_text(
                "step,split,env,seed,episodic_return,normalized_return\n"
                f"64,test,chase_dot,{seed},1.0,{0.3 + 0.2 * seed}\n")
    tracer = spans.Tracer()
    tracer.install()
    try:
        cli.build_report({a: str(tmp_path / a) for a in ("a", "b")}, num_resamples=200)
    finally:
        tracer.uninstall()
    assert sum(s[0] == "stats.bootstrap_ci" for s in tracer.spans) == 8
    assert sum(s[0] == "report.build_report" for s in tracer.spans) == 1


def test_every_env_step_is_inside_collection_or_evaluation(perfbench, tmp_path):
    # rollout.collect_self_s and trainer.eval_env_steps read envs.step spans
    # by their ancestors; a step taken anywhere else would fall out of both.
    _, _, spans, _ = perfbench
    from deskrl import trainer
    from deskrl.agents import preset

    cfg = trainer.TrainConfig(env="chase_dot", seed=0, total_steps=64, num_envs=8,
                              num_train_levels=10, eval_interval=32, eval_episodes=2)
    hp = dataclasses.replace(preset("ppo"), batch_size=32)
    tracer = spans.Tracer()
    tracer.install()
    try:
        trainer.train(cfg, hp, tmp_path)
    finally:
        tracer.uninstall()
    ix = spans.SpanIndex(tracer.spans)
    steps = ix.named("envs.step")
    collected = [i for i in steps if ix.has_ancestor(i, "rollout.collect")]
    evaluated = [i for i in steps if ix.has_ancestor(i, "trainer.evaluate_policy")]
    assert collected and evaluated
    assert sorted(collected + evaluated) == steps
