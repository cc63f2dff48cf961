"""Seeded, procedurally generated, partially observable grid games.

A desk-scale analog of level-based generalization benchmarks: every level is
a pure function of (env name, 64-bit seed), train and test levels come from
disjoint seed ranges, and per-game score bounds are fixed analytically from
the reward rules so episodic returns can be normalized to [0, 1].

All three games hide dynamics information from single frames: chase_dot's
target velocity, blink_door's opening phase, and corridor_dodge's hazard
motion are only inferable from consecutive observations.

Observations are (H, W, 3) float grids in [0, 1], one pixel per grid cell
at the default 16x16 size (32x32 renders 2x2 pixel cells). Levels vary in
layout and in a seeded color palette.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import Rng

NUM_ACTIONS = 5  # noop, up, down, left, right
ACTION_DELTAS = ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1))
GRID = 16
DEFAULT_MAX_STEPS = 256
TRAIN_SEED_SPACE = 2**63  # test seeds draw from [num_train_levels, 2**63)

__all__ = [
    "EnvSpec", "StepResult", "LevelSeed", "GridGame", "VecEnv",
    "ENV_REGISTRY", "make_env", "sample_level_seed", "normalized_return",
]


@dataclass(frozen=True)
class EnvSpec:
    name: str
    obs_height: int
    obs_width: int
    num_actions: int
    max_episode_steps: int
    score_min: float
    score_max: float


@dataclass
class StepResult:
    observation: np.ndarray
    reward: float
    done: bool
    episode_return: float


@dataclass(frozen=True)
class LevelSeed:
    env_name: str
    seed: int
    split: str  # "train" | "test"


def sample_level_seed(env_name: str, split: str, num_train_levels: int, rng: Rng) -> LevelSeed:
    """Draw a level seed; train seeds lie in [0, num_train_levels), test seeds above."""
    if split == "train":
        seed = int(rng.integers(0, num_train_levels))
    elif split == "test":
        seed = int(rng.integers(num_train_levels, TRAIN_SEED_SPACE))
    else:
        raise ValueError(f"unknown split {split!r}")
    return LevelSeed(env_name, seed, split)


def normalized_return(spec: EnvSpec, episodic_return: float) -> float:
    """Map a return to [0, 1] via the spec's analytic bounds (clamping outliers)."""
    span = spec.score_max - spec.score_min
    x = (episodic_return - spec.score_min) / span
    return float(min(1.0, max(0.0, x)))


def _moved(pos: tuple[int, int], action: int) -> tuple[int, int]:
    """`pos` after one move of `action`, clamped to the grid."""
    dr, dc = ACTION_DELTAS[action]
    return min(GRID - 1, max(0, pos[0] + dr)), min(GRID - 1, max(0, pos[1] + dc))


def _torus_l1(a, b, size: int) -> int:
    d = 0
    for x, y in zip(a, b):
        dd = abs(x - y) % size
        d += min(dd, size - dd)
    return d


class GridGame:
    """Base class: deterministic dynamics, analytic score bounds, rendering."""

    name = "base"
    success_reward = 3.0
    step_cost = 1.0 / 1024.0
    shaping_coeff = 0.01
    max_episode_steps = DEFAULT_MAX_STEPS

    def __init__(self, level: LevelSeed, obs_size: int = GRID):
        if obs_size % GRID:
            raise ValueError(f"obs_size must be a multiple of {GRID}")
        if level.env_name != self.name:
            raise ValueError(f"level {level.env_name!r} does not match game {self.name!r}")
        self.level = level
        self.obs_size = obs_size
        self.cell = obs_size // GRID
        self._rng = Rng(level.seed).split(f"level:{self.name}")
        self.t = 0
        self.done = False
        self.episode_return = 0.0
        # Seeded background jitter gives the train/test visual shift.
        self.palette = {
            "bg": 0.05 + 0.18 * self._rng.random(3),
            "wall": np.array([0.5, 0.5, 0.55]) + 0.08 * (self._rng.random(3) - 0.5),
        }
        self._generate(self._rng)

    # -- per-game hooks ---------------------------------------------------

    def _generate(self, rng: Rng) -> None:
        raise NotImplementedError

    def _advance(self, action: int) -> tuple[float, bool]:
        """Apply one action; return (reward, done)."""
        raise NotImplementedError

    def _draw(self, img: np.ndarray) -> None:
        """Paint everything but the agent, which `_render` draws on top."""
        raise NotImplementedError

    def oracle_action(self) -> int:
        """Full-state-access policy used only for testing headroom."""
        raise NotImplementedError

    @classmethod
    def spec(cls, obs_size: int = GRID) -> EnvSpec:
        lo, hi = cls.score_bounds(cls.max_episode_steps)
        return EnvSpec(cls.name, obs_size, obs_size, NUM_ACTIONS,
                       cls.max_episode_steps, lo, hi)

    @classmethod
    def score_bounds(cls, max_steps: int) -> tuple[float, float]:
        raise NotImplementedError

    # -- shared machinery -------------------------------------------------

    def reset_obs(self) -> np.ndarray:
        return self._render()

    def step(self, action: int) -> StepResult:
        if self.done:
            raise RuntimeError("step() on a finished episode; reset required")
        if not (0 <= int(action) < NUM_ACTIONS):
            raise ValueError(f"action {action} out of range [0, {NUM_ACTIONS})")
        reward, done = self._advance(int(action))
        reward -= self.step_cost
        self.t += 1
        if self.t >= self.max_episode_steps:
            done = True
        self.done = done
        self.episode_return += reward
        return StepResult(self._render(), reward, done,
                          self.episode_return if done else 0.0)

    def _render(self) -> np.ndarray:
        img = np.empty((GRID, GRID, 3))
        img[:] = self.palette["bg"]
        self._draw(img)
        img[self.agent] = (1.0, 1.0, 1.0)
        if self.cell > 1:
            img = np.repeat(np.repeat(img, self.cell, axis=0), self.cell, axis=1)
        return img

    # -- checkpointing ----------------------------------------------------

    _STATE_FIELDS: tuple[str, ...] = ()

    def get_state(self) -> dict:
        state = {
            "level": {"env_name": self.level.env_name, "seed": self.level.seed,
                      "split": self.level.split},
            "t": self.t, "done": self.done, "episode_return": self.episode_return,
        }
        for f in self._STATE_FIELDS:
            v = getattr(self, f)
            state[f] = list(v) if isinstance(v, tuple) else v
        return state

    def set_state(self, state: dict) -> None:
        self.t = state["t"]
        self.done = state["done"]
        self.episode_return = state["episode_return"]
        for f in self._STATE_FIELDS:
            v = state[f]
            setattr(self, f, tuple(v) if isinstance(v, list) else v)


class ChaseDot(GridGame):
    """Intercept a dot that drifts with a constant per-level velocity.

    The dot wraps around the torus; its velocity is visible only across
    consecutive frames. Reward: interception bonus, distance-potential
    shaping (exactly telescoping), and a small per-step cost.
    """

    name = "chase_dot"
    max_episode_steps = 128  # at 256 a random walk catches the dot too often
    _STATE_FIELDS = ("agent", "target")

    @classmethod
    def score_bounds(cls, max_steps: int) -> tuple[float, float]:
        shaping_span = cls.shaping_coeff * 16  # max torus L1 distance
        return (-max_steps * cls.step_cost - shaping_span,
                cls.success_reward + shaping_span)

    def _generate(self, rng: Rng) -> None:
        self.agent = (int(rng.integers(0, GRID)), int(rng.integers(0, GRID)))
        while True:
            self.target = (int(rng.integers(0, GRID)), int(rng.integers(0, GRID)))
            if _torus_l1(self.agent, self.target, GRID) >= 4:
                break
        vels = [(dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1) if (dr, dc) != (0, 0)]
        self.velocity = vels[int(rng.integers(0, len(vels)))]

    def _dist(self) -> int:
        return _torus_l1(self.agent, self.target, GRID)

    def _advance(self, action: int):
        d_prev = self._dist()
        self.agent = _moved(self.agent, action)
        caught = self.agent == self.target
        if not caught:
            self.target = ((self.target[0] + self.velocity[0]) % GRID,
                           (self.target[1] + self.velocity[1]) % GRID)
            caught = self.agent == self.target
        reward = self.shaping_coeff * (d_prev - self._dist())
        if caught:
            return reward + self.success_reward, True
        return reward, False

    def _draw(self, img: np.ndarray) -> None:
        img[self.target] = (1.0, 0.15, 0.1)

    def _target_at(self, dt: int) -> tuple[int, int]:
        return ((self.target[0] + dt * self.velocity[0]) % GRID,
                (self.target[1] + dt * self.velocity[1]) % GRID)

    def oracle_action(self) -> int:
        # Aim at the earliest future target position we can reach in time.
        for dt in range(1, 4 * GRID):
            goal = self._target_at(dt)
            if abs(goal[0] - self.agent[0]) + abs(goal[1] - self.agent[1]) <= dt:
                break
        if goal[0] != self.agent[0]:
            return 1 if goal[0] < self.agent[0] else 2
        if goal[1] != self.agent[1]:
            return 3 if goal[1] < self.agent[1] else 4
        return 0


class BlinkDoor(GridGame):
    """Exit through a door that is open for a single step once per period.

    Pushing into the closed door teleports the agent back to its start cell,
    so blind pushing is costly; the opening phase is only inferable from the
    observed history of door colors.
    """

    name = "blink_door"
    success_reward = 4.0
    WALL_COL = 11
    _STATE_FIELDS = ("agent",)

    @classmethod
    def score_bounds(cls, max_steps: int) -> tuple[float, float]:
        shaping_span = cls.shaping_coeff * 32  # generous bound on L1 distance swing
        return (-max_steps * cls.step_cost - shaping_span,
                cls.success_reward + shaping_span)

    def _generate(self, rng: Rng) -> None:
        self.start = (int(rng.integers(0, GRID)), int(rng.integers(0, 9)))
        self.agent = self.start
        self.door_row = int(rng.integers(1, GRID - 1))
        self.period = int(rng.integers(4, 7))  # 4..6
        self.phase = int(rng.integers(0, self.period))

    def _door_open(self, t: int) -> bool:
        return (t + self.phase) % self.period == 0

    def _door_dist(self, pos) -> int:
        return abs(pos[0] - self.door_row) + abs(pos[1] - self.WALL_COL)

    def _advance(self, action: int):
        d_prev = self._door_dist(self.agent)
        nxt = _moved(self.agent, action)
        done = False
        if nxt[1] == self.WALL_COL:
            if nxt[0] == self.door_row:
                if self._door_open(self.t):
                    self.agent = nxt
                    done = True
                else:
                    self.agent = self.start  # bounced back to the start cell
            # other wall cells simply block
        else:
            self.agent = nxt
        reward = self.shaping_coeff * (d_prev - self._door_dist(self.agent))
        if done:
            return reward + self.success_reward, True
        return reward, False

    def _draw(self, img: np.ndarray) -> None:
        img[:, self.WALL_COL] = self.palette["wall"]
        if self._door_open(self.t):
            img[self.door_row, self.WALL_COL] = (0.1, 1.0, 0.2)
        else:
            img[self.door_row, self.WALL_COL] = (0.55, 0.05, 0.05)

    def oracle_action(self) -> int:
        r, c = self.agent
        if c == self.WALL_COL - 1 and r == self.door_row:
            # Enter exactly on an open tick (door state checked at current t).
            return 4 if self._door_open(self.t) else 0
        if r != self.door_row:
            return 1 if self.door_row < r else 2
        if c < self.WALL_COL - 1:
            return 4
        return 3  # right of the wall cannot happen pre-exit; retreat safeguard


class CorridorDodge(GridGame):
    """Cross left-to-right past columns of vertically moving hazards.

    Hazards wrap around their column with per-level speed and phase; a single
    frame cannot distinguish their direction or speed. Collision ends the
    episode with a penalty.
    """

    name = "corridor_dodge"
    collision_penalty = 1.0
    shaping_coeff = 0.02
    HAZARD_COLS = (4, 7, 10, 13)
    _STATE_FIELDS = ("agent",)

    @classmethod
    def score_bounds(cls, max_steps: int) -> tuple[float, float]:
        shaping_span = cls.shaping_coeff * (GRID - 1)
        return (-cls.collision_penalty - max_steps * cls.step_cost,
                cls.success_reward + shaping_span)

    def _generate(self, rng: Rng) -> None:
        self.agent = (int(rng.integers(0, GRID)), 0)
        self.hazard_rows = tuple(int(rng.integers(0, GRID)) for _ in self.HAZARD_COLS)
        self.hazard_vels = tuple(int(rng.choice([-2, -1, 1, 2])) for _ in self.HAZARD_COLS)

    def _hazard_row(self, i: int, t: int) -> int:
        return (self.hazard_rows[i] + t * self.hazard_vels[i]) % GRID

    def _advance(self, action: int):
        c_prev = self.agent[1]
        self.agent = _moved(self.agent, action)
        reward = self.shaping_coeff * (self.agent[1] - c_prev)
        # Hazards move after the agent; collision is checked on the new board.
        t_next = self.t + 1
        for i, col in enumerate(self.HAZARD_COLS):
            if self.agent[1] == col and self.agent[0] == self._hazard_row(i, t_next):
                return reward - self.collision_penalty, True
        if self.agent[1] == GRID - 1:
            return reward + self.success_reward, True
        return reward, False

    def _draw(self, img: np.ndarray) -> None:
        for i, col in enumerate(self.HAZARD_COLS):
            img[self._hazard_row(i, self.t), col] = (1.0, 0.6, 0.05)

    def oracle_action(self) -> int:
        r, c = self.agent
        nxt_col = c + 1
        if nxt_col in self.HAZARD_COLS:
            i = self.HAZARD_COLS.index(nxt_col)
            if self._hazard_row(i, self.t + 1) == r:
                # Sidestep rather than wait so we never sit in a blocked row.
                return 1 if r > 0 else 2
        return 4


ENV_REGISTRY: dict[str, type[GridGame]] = {
    ChaseDot.name: ChaseDot,
    BlinkDoor.name: BlinkDoor,
    CorridorDodge.name: CorridorDodge,
}


def make_env(level: LevelSeed, obs_size: int = GRID) -> GridGame:
    if level.env_name not in ENV_REGISTRY:
        raise KeyError(f"unknown environment {level.env_name!r}; "
                       f"known: {sorted(ENV_REGISTRY)}")
    return ENV_REGISTRY[level.env_name](level, obs_size)


class VecEnv:
    """E independent game instances stepping together, with auto-reset.

    Each instance owns its own level-sampling stream so results do not
    depend on how many instances exist or in what order they step.
    """

    def __init__(self, env_name: str, num_envs: int, split: str,
                 num_train_levels: int, rng: Rng,
                 obs_size: int = GRID):
        self.env_name = env_name
        self.num_envs = num_envs
        self.split = split
        self.num_train_levels = num_train_levels
        self.obs_size = obs_size
        self._level_rngs = [rng.split("levels").split_index(i) for i in range(num_envs)]
        self.envs: list[GridGame] = [self._new_env(i) for i in range(num_envs)]
        self.spec = self.envs[0].spec(obs_size)

    def _new_env(self, i: int) -> GridGame:
        level = sample_level_seed(self.env_name, self.split,
                                  self.num_train_levels, self._level_rngs[i])
        return make_env(level, self.obs_size)

    def reset_all(self) -> np.ndarray:
        self.envs = [self._new_env(i) for i in range(self.num_envs)]
        return np.stack([e.reset_obs() for e in self.envs])

    def step(self, actions) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[float]]:
        """Step every instance; finished episodes auto-reset to a fresh level.

        Returns (observations, rewards, dones, finished_returns) where
        observations for done slots are the reset frame of the next episode
        and finished_returns lists the episodic returns that completed.
        """
        obs = np.empty((self.num_envs, self.spec.obs_height, self.spec.obs_width, 3))
        rewards = np.empty(self.num_envs)
        dones = np.zeros(self.num_envs, dtype=bool)
        finished: list[float] = []
        for i, (env, a) in enumerate(zip(self.envs, actions)):
            res = env.step(int(a))
            rewards[i] = res.reward
            dones[i] = res.done
            if res.done:
                finished.append(res.episode_return)
                self.envs[i] = self._new_env(i)
                obs[i] = self.envs[i].reset_obs()
            else:
                obs[i] = res.observation
        return obs, rewards, dones, finished

    # -- checkpointing ----------------------------------------------------

    def get_state(self) -> dict:
        return {
            "env_states": [e.get_state() for e in self.envs],
            "level_rngs": [r.get_state() for r in self._level_rngs],
        }

    def set_state(self, state: dict) -> None:
        for r, s in zip(self._level_rngs, state["level_rngs"]):
            r.set_state(s)
        self.envs = []
        for s in state["env_states"]:
            lv = LevelSeed(**s["level"])
            env = make_env(lv, self.obs_size)
            env.set_state(s)
            self.envs.append(env)
