"""The names the benchmark drives still exist and still work.

`perfbench/` wraps deskrl's public functions by name (`spans.patched` reads
`owner.__dict__[attr]`) and records conv layers through `ConvLayer.__call__`,
so a rename would otherwise fail only a benchmark run, not the test suite.
"""

from pathlib import Path

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
