"""Play the three grid games with the built-in oracle and a random policy.

Shows seeded level generation, the train/test seed split, analytic score
bounds, and the headroom between oracle and random play.

Run: python3 demos/02_environments.py
"""

import numpy as np

from deskrl.envs import (ENV_REGISTRY, NUM_ACTIONS, LevelSeed, make_env,
                         normalized_return, sample_level_seed)
from deskrl.rng import Rng


def play(env, policy):
    while not env.done:
        res = env.step(policy(env))
    return res.episode_return


rng = Rng(0)
for name, cls in sorted(ENV_REGISTRY.items()):
    spec = cls.spec()
    print(f"\n=== {name} ===")
    print(f"  obs {spec.obs_height}x{spec.obs_width}x3, "
          f"{spec.num_actions} actions, max {spec.max_episode_steps} steps, "
          f"score range [{spec.score_min:.3f}, {spec.score_max:.3f}]")

    oracle_scores, random_scores = [], []
    act_rng = rng.split(f"{name}:random")
    for s in range(40):
        level = LevelSeed(name, s, "train")
        oracle_scores.append(normalized_return(
            spec, play(make_env(level), lambda e: e.oracle_action())))
        random_scores.append(normalized_return(
            spec, play(make_env(LevelSeed(name, s + 100, "train")),
                       lambda e: int(act_rng.integers(0, NUM_ACTIONS)))))
    print(f"  oracle policy : {np.mean(oracle_scores):.3f} mean normalized return")
    print(f"  random policy : {np.mean(random_scores):.3f} mean normalized return")

    test_level = sample_level_seed(name, "test", 50, rng.split(f"{name}:seed"))
    print(f"  example held-out level seed: {test_level.seed} "
          f"(train seeds are 0..49)")

# Same seed -> same level, different seed -> different level.
a = make_env(LevelSeed("chase_dot", 3, "train")).reset_obs()
b = make_env(LevelSeed("chase_dot", 3, "train")).reset_obs()
c = make_env(LevelSeed("chase_dot", 4, "train")).reset_obs()
print(f"\nlevel determinism: seed3 == seed3 is {np.array_equal(a, b)}, "
      f"seed3 == seed4 is {np.array_equal(a, c)}")
