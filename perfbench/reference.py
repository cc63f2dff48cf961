"""Reference figures, measured once and not as workloads.

    python3 perfbench/reference.py [PRESET ...]

For each preset (default: vsop, vsop3d, vsop3d_plus), one fresh process
trains one update on chase_dot at obs_size 16 with evaluation and
checkpoints off and one BLAS thread, and reports ms per env step and the
process's peak RSS. `vsop` and `vsop3d` run at batch 256 (overridden);
`vsop3d_plus` keeps its preset batch of 512. Needs about 2 GB of memory
for vsop3d_plus and several minutes in all.
"""

from __future__ import annotations

import dataclasses
import json
import os
import resource
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BATCH = {"vsop": 256, "vsop3d": 256, "vsop3d_plus": None}


def one(name: str) -> dict:
    from deskrl.agents import preset
    from deskrl.trainer import TrainConfig, train

    hp = preset(name)
    if BATCH[name]:
        hp = dataclasses.replace(hp, batch_size=BATCH[name])
    out = os.path.join(ROOT, ".perfbench_work", "reference", name)
    shutil.rmtree(out, ignore_errors=True)
    cfg = TrainConfig(env="chase_dot", seed=0, total_steps=hp.batch_size,
                      eval_interval=10**9, checkpoint_interval=0, obs_size=16)
    t = time.perf_counter()
    train(cfg, hp, out)
    wall = time.perf_counter() - t
    shutil.rmtree(out, ignore_errors=True)
    return {"preset": name, "batch_size": hp.batch_size,
            "ms_per_env_step": wall / cfg.total_steps * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def main(argv) -> int:
    if argv[:1] == ["--one"]:
        print(json.dumps(one(argv[1])))
        return 0
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=os.path.join(ROOT, "src"))
    for name in argv or list(BATCH):
        proc = subprocess.run([sys.executable, __file__, "--one", name], env=env,
                              capture_output=True, text=True)
        if proc.returncode:
            print(proc.stderr, file=sys.stderr)
            return 1
        print(proc.stdout.strip().splitlines()[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
