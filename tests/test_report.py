import json
import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from deskrl.report import (FULL_SCALE_REFERENCE, build_report, build_run_matrix,
                           collect_run_scores, read_metrics_csv, render_svg)

HEADER = "step,split,env,seed,episodic_return,normalized_return\n"


def write_run(root, envs, seeds, score_fn, rows_per_seed=6):
    """Lay out <root>/<env>/seed<k>/metrics.csv with synthetic test rows."""
    for env in envs:
        for seed in seeds:
            d = os.path.join(root, env, f"seed{seed}")
            os.makedirs(d, exist_ok=True)
            with open(os.path.join(d, "metrics.csv"), "w") as f:
                f.write(HEADER)
                for i in range(rows_per_seed):
                    s = score_fn(env, seed, i)
                    f.write(f"{(i + 1) * 1000},test,{env},{seed},{s * 4},{s}\n")
                    f.write(f"{(i + 1) * 1000},train,{env},{seed},9.9,0.99\n")


def test_read_metrics_csv_skips_malformed_rows(tmp_path):
    p = tmp_path / "metrics.csv"
    p.write_text(HEADER
                 + "100,test,chase_dot,1,2.5,0.8\n"
                 + "garbage line without commas\n"
                 + "200,test,chase_dot,1,not_a_number,0.9\n"
                 + "300,train,chase_dot,1,1.0,0.4\n")
    rows, skipped = read_metrics_csv(p)
    assert len(rows) == 2
    assert skipped == 2
    assert rows[0] == {"step": 100, "split": "test", "env": "chase_dot",
                       "seed": 1, "episodic_return": 2.5,
                       "normalized_return": 0.8}


def test_collect_run_scores_final_window(tmp_path):
    write_run(tmp_path, ["chase_dot"], [0], lambda e, s, i: 0.1 * i)
    scores, skipped = collect_run_scores(tmp_path, window=3)
    # last 3 of [0, .1, .2, .3, .4, .5] -> mean 0.4
    assert scores[("chase_dot", 0)] == pytest.approx(0.4)
    assert skipped == 0


def test_collect_run_scores_requires_test_rows(tmp_path):
    d = tmp_path / "chase_dot" / "seed0"
    d.mkdir(parents=True)
    (d / "metrics.csv").write_text(HEADER + "100,train,chase_dot,0,1.0,0.5\n")
    with pytest.raises(ValueError, match="no test-split"):
        collect_run_scores(tmp_path)


def test_collect_run_scores_empty_dir_raises(tmp_path):
    with pytest.raises(ValueError, match="no metrics"):
        collect_run_scores(tmp_path)


def test_build_run_matrix_detects_missing_cells():
    with pytest.raises(ValueError, match="missing score"):
        build_run_matrix({("a", 0): 0.5, ("a", 1): 0.6, ("b", 0): 0.7})


def test_build_report_end_to_end(tmp_path):
    envs = ["blink_door", "chase_dot"]
    write_run(tmp_path / "base", envs, [0, 1, 2], lambda e, s, i: 0.4)
    write_run(tmp_path / "new", envs, [0, 1, 2], lambda e, s, i: 0.8)
    report = build_report({"base": str(tmp_path / "base"),
                           "new": str(tmp_path / "new")}, num_resamples=200)
    assert report["agents"]["base"]["metrics"]["mean"] == pytest.approx(0.4)
    assert report["agents"]["new"]["metrics"]["mean"] == pytest.approx(0.8)
    assert report["agents"]["new"]["metrics"]["optimality_gap"] == pytest.approx(0.2)
    assert report["full_scale_reference"]["median"] == {
        "baseline": 0.44, "scaled": 0.75}
    json.dumps(report)  # fully serializable


def test_build_report_rejects_mismatched_env_sets(tmp_path):
    write_run(tmp_path / "a", ["chase_dot"], [0, 1], lambda e, s, i: 0.5)
    write_run(tmp_path / "b", ["blink_door"], [0, 1], lambda e, s, i: 0.5)
    with pytest.raises(ValueError, match="mismatched env sets"):
        build_report({"a": str(tmp_path / "a"), "b": str(tmp_path / "b")},
                     num_resamples=200)


def test_full_scale_reference_values():
    assert FULL_SCALE_REFERENCE == {
        "median": (0.44, 0.75),
        "iqm": (0.43, 0.70),
        "mean": (0.42, 0.64),
        "optimality_gap": (0.58, 0.36),
    }


def test_render_svg_layout_and_stability(tmp_path):
    write_run(tmp_path / "a", ["chase_dot"], [0, 1, 2], lambda e, s, i: 0.3 + 0.1 * s)
    report = build_report({"a": str(tmp_path / "a")}, num_resamples=200)
    svg1 = render_svg(report)
    svg2 = render_svg(report)
    assert svg1 == svg2  # byte-stable for golden comparisons
    assert svg1.startswith("<svg ") and svg1.endswith("</svg>")
    assert 'width="1000"' in svg1 and 'height="260"' in svg1
    for metric in ("median", "iqm", "mean", "optimality_gap"):
        assert f">{metric}</text>" in svg1
    assert svg1.count("<rect") >= 5  # background + one bar per metric group
    assert "<line" in svg1  # axes and CI whiskers


def test_render_svg_escapes_agent_labels(tmp_path):
    write_run(tmp_path / "a", ["chase_dot"], [0, 1], lambda e, s, i: 0.5)
    report = build_report({"a&b<c": str(tmp_path / "a")}, num_resamples=200)
    root = ET.fromstring(render_svg(report))
    texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    assert texts.count("a&b<c") == 4  # one label under each metric group
