"""Facts about the machine a run measured on, and a fp64 GEMM rate as a base."""

from __future__ import annotations

import os
import platform
import statistics
import time

import numpy as np

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_build() -> str:
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{cfg.get('name')} {cfg.get('version')}"
    except (TypeError, KeyError):  # numpy builds that cannot report it
        return "unknown"


def gemm_gflops(n: int = 512, reps: int = 9) -> float:
    """Median rate of an n x n x n fp64 matmul, in GF/s."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    a @ b
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t)
    return 2.0 * n**3 / statistics.median(times) / 1e9


def facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": blas_build(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "gemm_gflops": gemm_gflops(),
    }
