"""Builds evaluation reports from training metrics files.

Ingests the per-seed metrics CSVs, reduces each (agent, env, seed) test
timeline to a final score (mean of the last `window` evaluation episodes),
assembles per-agent seed x env run matrices, and emits a JSON report plus
an aligned-bar SVG: one group per aggregate metric, one bar per agent,
whiskers for bootstrap confidence intervals.

The SVG uses a fixed, documented coordinate layout (1000x260 canvas,
metric groups left to right) and no plotting dependency, so golden-file
comparisons are stable.
"""

from __future__ import annotations

import os
from dataclasses import asdict

import numpy as np

from .rng import Rng
from .stats import METRIC_NAMES, RunMatrix, aggregate_with_ci, final_score

__all__ = [
    "read_metrics_csv", "collect_run_scores", "build_run_matrix",
    "build_report", "render_svg", "FULL_SCALE_REFERENCE",
]

# Published full-scale reference values (baseline -> scaled variant), shown
# alongside desk-scale results for qualitative comparison only.
FULL_SCALE_REFERENCE = {
    "median": (0.44, 0.75),
    "iqm": (0.43, 0.70),
    "mean": (0.42, 0.64),
    "optimality_gap": (0.58, 0.36),
}
CONFIDENCE = 0.95
BOOTSTRAP_SEED = 1234


def read_metrics_csv(path) -> tuple[list[dict], int]:
    """Parse a metrics CSV; malformed rows are skipped and counted."""
    rows: list[dict] = []
    skipped = 0
    with open(path) as f:
        header = f.readline().strip().split(",")
        for line in f:
            parts = line.rstrip("\n").split(",")
            if len(parts) != len(header):
                skipped += 1
                continue
            try:
                rows.append({
                    "step": int(parts[0]), "split": parts[1], "env": parts[2],
                    "seed": int(parts[3]), "episodic_return": float(parts[4]),
                    "normalized_return": float(parts[5]),
                })
            except ValueError:
                skipped += 1
    return rows, skipped


def collect_run_scores(run_dir, window: int = 100) -> tuple[dict, int]:
    """Scan one agent's run directory for per-(env, seed) final scores.

    Expects run_dir/<env>/seed<k>/metrics.csv. Returns
    ({(env, seed): final_score}, skipped_row_count).
    """
    scores: dict[tuple[str, int], float] = {}
    skipped = 0
    for env_name in sorted(os.listdir(run_dir)):
        env_dir = os.path.join(run_dir, env_name)
        if not os.path.isdir(env_dir):
            continue
        for seed_name in sorted(os.listdir(env_dir)):
            csv_path = os.path.join(env_dir, seed_name, "metrics.csv")
            if not os.path.exists(csv_path):
                continue
            rows, bad = read_metrics_csv(csv_path)
            skipped += bad
            timeline = [r["normalized_return"] for r in rows if r["split"] == "test"]
            if not timeline:
                raise ValueError(f"{csv_path}: no test-split evaluation records")
            seed = int(seed_name.removeprefix("seed"))
            scores[(env_name, seed)] = final_score(np.asarray(timeline), window)
    if not scores:
        raise ValueError(f"{run_dir}: no metrics.csv files found")
    return scores, skipped


def build_run_matrix(scores: dict) -> RunMatrix:
    envs = sorted({e for e, _ in scores})
    seeds = sorted({s for _, s in scores})
    mat = np.empty((len(seeds), len(envs)))
    for i, s in enumerate(seeds):
        for j, e in enumerate(envs):
            if (e, s) not in scores:
                raise ValueError(f"missing score for env={e} seed={s}")
            mat[i, j] = scores[(e, s)]
    return RunMatrix(mat, seeds, envs)


def build_report(agent_dirs: dict, window: int = 100,
                 num_resamples: int = 2000) -> dict:
    """Aggregate several agents' run directories into one comparison report.

    agent_dirs maps agent label -> run directory. All agents must cover the
    same environment set.
    """
    report: dict = {"window": window, "confidence": CONFIDENCE,
                    "num_resamples": num_resamples, "agents": {},
                    "full_scale_reference": {
                        k: {"baseline": v[0], "scaled": v[1]}
                        for k, v in FULL_SCALE_REFERENCE.items()},
                    "skipped_rows": 0}
    env_sets = {}
    for label, run_dir in agent_dirs.items():
        scores, skipped = collect_run_scores(run_dir, window)
        report["skipped_rows"] += skipped
        matrix = build_run_matrix(scores)
        env_sets[label] = tuple(matrix.env_names)
        metrics = aggregate_with_ci(
            matrix, num_resamples, CONFIDENCE,
            Rng(BOOTSTRAP_SEED).split(f"agent:{label}"))
        report["agents"][label] = {
            "metrics": asdict(metrics),
            "env_names": matrix.env_names,
            "seed_ids": matrix.seed_ids,
            "scores": matrix.scores.tolist(),
        }
    if len(set(env_sets.values())) > 1:
        raise ValueError(f"mismatched env sets across runs: {env_sets}")
    return report


# -- SVG rendering ----------------------------------------------------------

_CANVAS_W, _CANVAS_H = 1000, 260
_PLOT_X0, _PLOT_Y0, _PLOT_H = 40, 30, 180  # plot box; y grows downward
_GROUP_W = 230
_COLORS = ("#4c72b0", "#dd8452", "#55a868", "#c44e52", "#8172b3")


def _bar_y(v: float) -> float:
    v = min(1.0, max(0.0, v))
    return _PLOT_Y0 + _PLOT_H * (1.0 - v)


def _xml_text(text: str) -> str:
    # What xml.sax.saxutils.escape does; importing that module loads
    # urllib.request, http.client and ssl, about 7 MB of RSS in every process
    # that imports deskrl.cli.
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_svg(report: dict) -> str:
    """Aligned-bar comparison of all four metrics across agents."""
    labels = list(report["agents"])
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_CANVAS_W}" '
        f'height="{_CANVAS_H}" viewBox="0 0 {_CANVAS_W} {_CANVAS_H}">',
        f'<rect width="{_CANVAS_W}" height="{_CANVAS_H}" fill="white"/>',
    ]
    for gi, metric in enumerate(METRIC_NAMES):
        gx = _PLOT_X0 + gi * _GROUP_W
        parts.append(
            f'<text x="{gx + _GROUP_W / 2:.1f}" y="20" text-anchor="middle" '
            f'font-size="14" font-family="sans-serif">{metric}</text>')
        parts.append(
            f'<line x1="{gx}" y1="{_PLOT_Y0 + _PLOT_H}" x2="{gx + _GROUP_W - 30}" '
            f'y2="{_PLOT_Y0 + _PLOT_H}" stroke="black" stroke-width="1"/>')
        bar_w = (_GROUP_W - 40) / max(len(labels), 1)
        for ai, label in enumerate(labels):
            m = report["agents"][label]["metrics"]
            v = m[metric]
            x = gx + 5 + ai * bar_w
            y = _bar_y(v)
            color = _COLORS[ai % len(_COLORS)]
            parts.append(
                f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_w - 6:.1f}" '
                f'height="{_PLOT_Y0 + _PLOT_H - y:.1f}" fill="{color}"/>')
            if m.get("ci_low"):
                ylo, yhi = _bar_y(m["ci_low"][metric]), _bar_y(m["ci_high"][metric])
                cx = x + (bar_w - 6) / 2
                parts.append(
                    f'<line x1="{cx:.1f}" y1="{ylo:.1f}" x2="{cx:.1f}" '
                    f'y2="{yhi:.1f}" stroke="black" stroke-width="1.5"/>')
            parts.append(
                f'<text x="{x + (bar_w - 6) / 2:.1f}" y="{_PLOT_Y0 + _PLOT_H + 14}" '
                f'text-anchor="middle" font-size="9" '
                f'font-family="sans-serif">{_xml_text(label)}</text>')
            parts.append(
                f'<text x="{x + (bar_w - 6) / 2:.1f}" y="{y - 3:.1f}" '
                f'text-anchor="middle" font-size="9" '
                f'font-family="sans-serif">{v:.2f}</text>')
    parts.append(
        f'<text x="{_PLOT_X0}" y="{_CANVAS_H - 8}" font-size="10" '
        f'font-family="sans-serif">whiskers: bootstrap CIs; '
        'reference full-scale values in report JSON</text>')
    parts.append("</svg>")
    return "\n".join(parts)
