"""Hand-worked cases for the benchmark's correctness checks.

    python3 -m pytest perfbench/test_checks.py
"""

import json
import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402


def test_gae_closed_form_hand_case():
    # gamma = lam = 0.5, so gamma * lam = 0.25; the episode ends at t = 1.
    # delta = [1 + 0.5*1.0 - 0.5, 2 - 1.0, 3 + 0.5*2.0 - 1.5] = [1.0, 1.0, 2.5]
    # A_2 = 2.5; A_1 = 1.0 (terminal); A_0 = 1.0 + 0.25 * 1.0 = 1.25
    rewards = np.array([[1.0], [2.0], [3.0]])
    values = np.array([[0.5], [1.0], [1.5]])
    dones = np.array([[False], [True], [False]])
    adv = checks.gae_closed_form(rewards, values, dones, np.array([2.0]), 0.5, 0.5)
    assert adv[:, 0].tolist() == [1.25, 1.0, 2.5]

    capture = dict(rewards=rewards, values=values, dones=dones,
                   bootstrap=np.array([2.0]), gamma=0.5, lam=0.5,
                   advantages=adv, returns=adv + values)
    assert checks.check_gae(capture) == []
    capture["advantages"] = adv + np.array([[0.0], [1e-9], [0.0]])
    assert len(checks.check_gae(capture)) == 1


def test_conv_by_offsets_2d_hand_cases():
    x = np.arange(1.0, 10.0).reshape(1, 1, 3, 3)
    k = np.array([[[[1.0, 2.0], [0.0, 0.0]]]])
    # out[i, j] = x[i, j] + 2 x[i, j+1]
    assert checks.conv_by_offsets(x, k, (1, 1), (0, 0))[0, 0].tolist() == \
        [[5.0, 8.0], [14.0, 17.0]]
    # padding 1, stride 2: out[i, j] = xp[2i, 2j] + 2 xp[2i, 2j+1]; row 0 of xp is zero
    assert checks.conv_by_offsets(x, k, (2, 2), (1, 1))[0, 0].tolist() == \
        [[0.0, 0.0], [8.0, 17.0]]


def test_conv_by_offsets_3d_and_channels():
    x = np.arange(1.0, 9.0).reshape(1, 1, 2, 2, 2)  # x[d, h, w] = 1 + 4d + 2h + w
    k = np.array([1.0, -1.0]).reshape(1, 1, 2, 1, 1)
    assert checks.conv_by_offsets(x, k, (1, 1, 1), (0, 0, 0)).tolist() == \
        [[[[[-4.0, -4.0], [-4.0, -4.0]]]]]
    x = np.array([3.0, 5.0]).reshape(1, 2, 1, 1)
    k = np.array([[1.0, 1.0], [2.0, -1.0]]).reshape(2, 2, 1, 1)
    assert checks.conv_by_offsets(x, k, (1, 1), (0, 0)).ravel().tolist() == [8.0, 1.0]


def test_check_conv_flags_a_wrong_output():
    x = np.arange(1.0, 10.0).reshape(1, 1, 3, 3)
    k = np.array([[[[1.0, 2.0], [0.0, 0.0]]]])
    rec = {"name": "c", "x": x, "kernel": k, "bias": np.array([1.0]),
           "stride": (1, 1), "padding": (0, 0),
           "y": np.array([[[[6.0, 9.0], [15.0, 18.0]]]])}
    assert checks.check_conv([rec]) == []
    rec["y"] = rec["y"] + np.array([[[[0.0, 0.0], [0.0, 1e-6]]]])
    assert len(checks.check_conv([rec])) == 1
    assert checks.check_conv([]) != []


def write_csv(path, rows):
    with open(path, "w") as f:
        f.write("step,split,env,seed,episodic_return,normalized_return\n")
        for split, norm in rows:
            f.write(f"1,{split},g,0,0.0,{norm!r}\n")


@pytest.fixture
def three_cells(tmp_path):
    # window 2: scores 0.3 = mean(0.2, 0.4), 0.5, 0.95 = mean(0.9, 1.0)
    rows = {"a": [("test", 0.1), ("train", 0.9), ("test", 0.2), ("test", 0.4)],
            "b": [("test", 0.5)],
            "c": [("test", 0.9), ("test", 1.0)]}
    paths = {}
    for name, r in rows.items():
        paths[(name, 0)] = tmp_path / f"{name}.csv"
        write_csv(paths[(name, 0)], r)
    return paths


def test_aggregate_brute_force_hand_case(three_cells):
    got = checks.aggregate_brute_force(three_cells, window=2)
    # sorted scores [0.3, 0.5, 0.95]; the IQM trims 0.75 of a sample at each
    # end: (0.25*0.3 + 0.5 + 0.25*0.95) / 1.5
    assert got["median"] == 0.5
    assert math.isclose(got["iqm"], (0.075 + 0.5 + 0.2375) / 1.5, abs_tol=1e-15)
    assert math.isclose(got["mean"], 1.75 / 3, abs_tol=1e-15)
    assert math.isclose(got["optimality_gap"], (0.7 + 0.5 + 0.05) / 3, abs_tol=1e-15)


def test_check_aggregate_compares_and_checks_cis(three_cells):
    ref = checks.aggregate_brute_force(three_cells, window=2)
    report = {"window": 2, "agents": {"x": {"metrics": dict(
        ref, ci_low={k: v - 0.1 for k, v in ref.items()},
        ci_high={k: v + 0.1 for k, v in ref.items()})}}}
    assert checks.check_aggregate(report, "x", three_cells) == []
    m = report["agents"]["x"]["metrics"]
    m["median"] = 0.5 + 1e-9
    m["ci_high"]["mean"] = ref["mean"] - 0.01
    problems = checks.check_aggregate(report, "x", three_cells)
    assert len(problems) == 2
    assert json.dumps(problems)


def test_check_bounds():
    assert checks.check_bounds([-1.0, 0.0, 4.0], [0.0, 0.5, 1.0], -1.0, 4.0, "w") == []
    problems = checks.check_bounds([5.0, 0.0], [0.5, 1.2], -1.0, 4.0, "w")
    assert len(problems) == 2


def test_check_counts():
    ok = [{"update": 1, "loss": 0.5}, {"update": 2, "loss": -1.0}]
    assert checks.check_counts(ok, 64, 32, "w") == []
    assert len(checks.check_counts(ok, 96, 32, "w")) == 1
    assert len(checks.check_counts(ok, 70, 32, "w")) == 1
    bad = [{"update": 1, "loss": float("nan")}, {"update": 2, "loss": float("inf")}]
    assert len(checks.check_counts(bad, 64, 32, "w")) == 2


def test_check_same_bytes(tmp_path):
    for d, body in (("a", b"x,1\n"), ("b", b"x,1\n"), ("c", b"x,2\n")):
        (tmp_path / d).mkdir()
        (tmp_path / d / "f").write_bytes(body)
    assert checks.check_same_bytes(tmp_path / "a", tmp_path / "b", ["f"], "resume") == []
    assert len(checks.check_same_bytes(tmp_path / "a", tmp_path / "c", ["f"], "resume")) == 1
