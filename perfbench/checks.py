"""Correctness checks the benchmark applies to every job's outputs.

Each check recomputes a result with plain numpy and the standard library,
by a method other than the one deskrl uses, or tests a property the method
must have. None of them compares against a stored copy of earlier output.
Every check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np

TOL = 1e-12


def gae_closed_form(rewards, values, dones, bootstrap, gamma, lam):
    """Advantages as the masked sum A_t = sum_l (gamma*lam)^l delta_{t+l}.

    delta_t = r_t + gamma * (1 - d_t) * V_{t+1} - V_t, with V_T the
    bootstrap value; the sum stops after the first terminal step, so
    nothing past an episode's end reaches an earlier advantage.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    horizon, num_envs = rewards.shape
    adv = np.zeros((horizon, num_envs))
    for e in range(num_envs):
        for t in range(horizon):
            total, weight = 0.0, 1.0
            for k in range(t, horizon):
                nxt = bootstrap[e] if k == horizon - 1 else values[k + 1, e]
                live = 0.0 if dones[k, e] else 1.0
                total += weight * (rewards[k, e] + gamma * live * nxt - values[k, e])
                if dones[k, e]:
                    break
                weight *= gamma * lam
            adv[t, e] = total
    return adv


def check_gae(capture: dict) -> list[str]:
    """capture: rewards, values, dones, bootstrap, gamma, lam, advantages, returns."""
    ref = gae_closed_form(capture["rewards"], capture["values"], capture["dones"],
                          capture["bootstrap"], capture["gamma"], capture["lam"])
    problems = []
    err = float(np.max(np.abs(ref - capture["advantages"])))
    if not err <= TOL:
        problems.append(f"gae: advantages differ from the closed form by {err:.3e}")
    err = float(np.max(np.abs(ref + capture["values"] - capture["returns"])))
    if not err <= TOL:
        problems.append(f"gae: returns differ from advantages + values by {err:.3e}")
    return problems


def conv_by_offsets(x, kernel, stride, padding):
    """Cross-correlation as a sum over kernel offsets of channel contractions.

    x: (N, C, *spatial), kernel: (O, C, *k). Works for any spatial rank.
    """
    x = np.asarray(x, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    ndim = x.ndim - 2
    kshape = kernel.shape[2:]
    xp = np.pad(x, [(0, 0), (0, 0)] + [(p, p) for p in padding])
    out_shape = tuple((x.shape[2 + i] + 2 * padding[i] - kshape[i]) // stride[i] + 1
                      for i in range(ndim))
    out = np.zeros((x.shape[0], kernel.shape[0]) + out_shape)
    for offset in np.ndindex(*kshape):
        window = xp[(slice(None), slice(None)) + tuple(
            slice(o, o + s * (n - 1) + 1, s)
            for o, s, n in zip(offset, stride, out_shape))]
        w = kernel[(slice(None), slice(None)) + offset]
        out += np.einsum("nc...,oc->no...", window, w)
    return out


def check_conv(records: list[dict]) -> list[str]:
    """records: per conv layer its input x, kernel, bias, stride, padding, output y."""
    problems = []
    if not records:
        return ["conv: no conv layer outputs were captured"]
    for r in records:
        ref = conv_by_offsets(r["x"], r["kernel"], r["stride"], r["padding"])
        ref += r["bias"].reshape((1, -1) + (1,) * (ref.ndim - 2))
        if ref.shape != r["y"].shape:
            problems.append(f"conv {r['name']}: shape {r['y'].shape} != {ref.shape}")
            continue
        err = float(np.max(np.abs(ref - r["y"])))
        if not err <= TOL * max(1.0, float(np.max(np.abs(ref)))):
            problems.append(f"conv {r['name']}: differs from the offset sum by {err:.3e}")
    return problems


def read_metrics_rows(path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _median(xs):
    s = sorted(xs)
    n = len(s)
    return s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2.0


def _iqm(xs):
    # Four copies of each value make the 25% trim an exact count of n
    # values at each end, which equals fractional weighting of the
    # boundary order statistics.
    s = sorted(x for x in xs for _ in range(4))
    n = len(xs)
    middle = s[n:len(s) - n]
    return math.fsum(middle) / len(middle)


def aggregate_brute_force(cell_csvs: dict, window: int) -> dict:
    """cell_csvs maps (env, seed) -> metrics.csv path; returns the four metrics."""
    scores = []
    for path in cell_csvs.values():
        test = [float(r["normalized_return"]) for r in read_metrics_rows(path)
                if r["split"] == "test"]
        last = test[-window:]
        scores.append(math.fsum(last) / len(last))
    return {
        "median": _median(scores),
        "iqm": _iqm(scores),
        "mean": math.fsum(scores) / len(scores),
        "optimality_gap": math.fsum(1.0 - min(s, 1.0) for s in scores) / len(scores),
    }


def check_aggregate(report: dict, label: str, cell_csvs: dict) -> list[str]:
    agent = report["agents"][label]
    got = agent["metrics"]
    ref = aggregate_brute_force(cell_csvs, report["window"])
    problems = []
    for name, value in ref.items():
        if not abs(got[name] - value) <= TOL:
            problems.append(f"aggregate {name}: report {got[name]!r} != brute force {value!r}")
        lo, hi = got["ci_low"][name], got["ci_high"][name]
        if not lo <= got[name] <= hi:
            problems.append(f"aggregate {name}: CI [{lo}, {hi}] misses {got[name]}")
    return problems


def check_bounds(returns, normalized, score_min: float, score_max: float,
                 where: str) -> list[str]:
    problems = []
    for r in returns:
        if not score_min <= r <= score_max:
            problems.append(f"{where}: return {r} outside [{score_min}, {score_max}]")
    for v in normalized:
        if not 0.0 <= v <= 1.0:
            problems.append(f"{where}: normalized return {v} outside [0, 1]")
    return problems


def check_metrics_csv_bounds(path, score_bounds: dict) -> list[str]:
    """score_bounds maps env name -> (score_min, score_max)."""
    problems = []
    for r in read_metrics_rows(path):
        lo, hi = score_bounds[r["env"]]
        problems += check_bounds([float(r["episodic_return"])],
                                 [float(r["normalized_return"])], lo, hi, path)
    return problems


def check_counts(updates: list[dict], total_steps: int, batch_size: int,
                 where: str) -> list[str]:
    problems = []
    expected = total_steps // batch_size
    if total_steps % batch_size or len(updates) != expected:
        problems.append(f"{where}: {len(updates)} updates, expected "
                        f"{total_steps} / {batch_size} = {total_steps / batch_size}")
    for u in updates:
        for k, v in u.items():
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                problems.append(f"{where}: update {u.get('update')} has {k}={v!r}")
    return problems


def check_same_bytes(dir_a, dir_b, names, what: str) -> list[str]:
    problems = []
    for name in names:
        with open(os.path.join(dir_a, name), "rb") as fa, \
                open(os.path.join(dir_b, name), "rb") as fb:
            if fa.read() != fb.read():
                problems.append(f"{what}: {name} differs between {dir_a} and {dir_b}")
    return problems
