import numpy as np
import pytest

from deskrl.envs import (ENV_REGISTRY, GRID, NUM_ACTIONS, LevelSeed, VecEnv,
                         make_env, normalized_return, sample_level_seed)
from deskrl.rng import Rng

ALL_GAMES = sorted(ENV_REGISTRY)


def level(name, seed, split="train"):
    return LevelSeed(name, seed, split)


def rollout(env, rng=None):
    """Play one episode to completion, by the game's oracle or, given rng,
    uniformly at random; returns the episodic return."""
    while not env.done:
        a = env.oracle_action() if rng is None else int(rng.integers(0, NUM_ACTIONS))
        res = env.step(a)
    return res.episode_return


# -- level seeding ----------------------------------------------------------

def test_train_and_test_seed_ranges_are_disjoint():
    rng = Rng(0)
    for _ in range(200):
        tr = sample_level_seed("chase_dot", "train", 50, rng)
        te = sample_level_seed("chase_dot", "test", 50, rng)
        assert 0 <= tr.seed < 50
        assert 50 <= te.seed < 2**63
    with pytest.raises(ValueError):
        sample_level_seed("chase_dot", "validation", 50, rng)


@pytest.mark.parametrize("name", ALL_GAMES)
def test_same_seed_same_level_different_seeds_differ(name):
    a = make_env(level(name, 7)).reset_obs()
    b = make_env(level(name, 7)).reset_obs()
    np.testing.assert_array_equal(a, b)
    diffs = sum(
        not np.array_equal(make_env(level(name, s)).reset_obs(),
                           make_env(level(name, s + 1)).reset_obs())
        for s in range(0, 60, 2))
    assert diffs >= 28  # near-certain layout/palette variation across seeds


@pytest.mark.parametrize("name", ALL_GAMES)
def test_episode_dynamics_are_deterministic(name):
    def play(env):
        out = []
        r = Rng(5)
        while not env.done:
            res = env.step(int(r.integers(0, NUM_ACTIONS)))
            out.append((res.reward, res.done, res.observation.sum()))
        return out
    assert play(make_env(level(name, 3))) == play(make_env(level(name, 3)))


# -- step contract ----------------------------------------------------------

def test_step_after_done_raises():
    env = make_env(level("chase_dot", 0))
    rollout(env, rng=Rng(0))
    with pytest.raises(RuntimeError):
        env.step(0)


def test_out_of_range_action_raises():
    env = make_env(level("chase_dot", 0))
    with pytest.raises(ValueError):
        env.step(5)
    with pytest.raises(ValueError):
        env.step(-1)


@pytest.mark.parametrize("name", ALL_GAMES)
def test_observation_format(name):
    for size in (16, 32):
        env = make_env(level(name, 1), obs_size=size)
        obs = env.reset_obs()
        assert obs.shape == (size, size, 3)
        assert obs.min() >= 0.0 and obs.max() <= 1.0
        res = env.step(0)
        assert res.observation.shape == (size, size, 3)


def test_obs_size_must_be_multiple_of_grid():
    with pytest.raises(ValueError):
        make_env(level("chase_dot", 0), obs_size=20)


def test_episode_truncates_at_max_steps():
    env = make_env(level("blink_door", 2), max_episode_steps=7)
    for _ in range(7):
        res = env.step(0)  # noop far from the door never terminates early
    assert res.done and env.t == 7


def test_unknown_env_name_raises():
    with pytest.raises(KeyError, match="unknown environment"):
        make_env(level("pong", 0))


# -- score bounds and normalization -----------------------------------------

@pytest.mark.parametrize("name", ALL_GAMES)
def test_returns_stay_inside_analytic_bounds(name):
    cls = ENV_REGISTRY[name]
    spec = cls.spec()
    rng = Rng(17)
    returns = []
    for s in range(120):
        env = make_env(level(name, s))
        # mix of random and oracle play to probe both ends of the range
        ret = rollout(env, rng=rng) if s % 2 else rollout(env)
        returns.append(ret)
        assert spec.score_min <= ret <= spec.score_max, (name, s, ret)
    assert len(returns) == 120


def test_normalized_return_clamps_to_unit_interval():
    spec = ENV_REGISTRY["chase_dot"].spec()
    assert normalized_return(spec, spec.score_min) == 0.0
    assert normalized_return(spec, spec.score_max) == 1.0
    assert normalized_return(spec, spec.score_max + 100) == 1.0
    assert normalized_return(spec, spec.score_min - 100) == 0.0
    mid = (spec.score_min + spec.score_max) / 2
    assert normalized_return(spec, mid) == pytest.approx(0.5)


@pytest.mark.parametrize("name", ALL_GAMES)
def test_oracle_dominates_random_with_headroom(name):
    spec = ENV_REGISTRY[name].spec()
    rng = Rng(23)
    oracle_scores = [
        normalized_return(spec, rollout(make_env(level(name, s))))
        for s in range(60)]
    random_scores = [
        normalized_return(spec, rollout(make_env(level(name, s + 60)), rng=rng))
        for s in range(60)]
    assert np.mean(oracle_scores) > 0.9, name
    assert np.mean(random_scores) < 0.5, name
    assert np.mean(oracle_scores) - np.mean(random_scores) > 0.4, name


# -- single-frame ambiguity --------------------------------------------------

def test_chase_dot_velocity_not_visible_in_one_frame():
    # Two levels that share agent/target positions but differ in velocity
    # must render identical first frames (given identical palettes we only
    # check that the dynamic state is invisible: frame depends on positions).
    env = make_env(level("chase_dot", 4))
    frame = env.reset_obs()
    marked = (frame != frame[0, 0]).any(axis=2).sum()
    assert marked <= 2 * env.cell ** 2  # only agent + target pixels differ from bg


def test_blink_door_phase_only_visible_over_time():
    env = make_env(level("blink_door", 9))
    colors = []
    for _ in range(12):
        obs = env.step(0).observation
        colors.append(tuple(obs[env.door_row, env.WALL_COL]))
    assert len(set(colors)) == 2  # open and closed renders alternate over time


# -- state snapshot / restore ------------------------------------------------

@pytest.mark.parametrize("name", ALL_GAMES)
def test_state_round_trip_resumes_identically(name):
    env = make_env(level(name, 13))
    r = Rng(3)
    for _ in range(5):
        if env.done:
            break
        env.step(int(r.integers(0, NUM_ACTIONS)))
    snap = env.get_state()
    env2 = make_env(level(name, 13))
    env2.set_state(snap)
    r1, r2 = Rng(8), Rng(8)
    while not env.done:
        a = int(r1.integers(0, NUM_ACTIONS))
        res1 = env.step(a)
        res2 = env2.step(int(r2.integers(0, NUM_ACTIONS)))
        assert res1.reward == res2.reward and res1.done == res2.done
        np.testing.assert_array_equal(res1.observation, res2.observation)


# -- vectorized wrapper ------------------------------------------------------

def test_vecenv_determinism_and_autoreset():
    def run():
        vec = VecEnv("chase_dot", 4, "train", 10, Rng(77))
        obs = vec.reset_all()
        trace = [obs.sum()]
        finished = []
        r = Rng(1)
        for _ in range(200):
            obs, rew, dones, fin = vec.step(r.integers(0, NUM_ACTIONS, size=4))
            trace.append((obs.sum(), rew.sum(), dones.sum()))
            finished.extend(fin)
        return trace, finished
    t1, f1 = run()
    t2, f2 = run()
    assert t1 == t2 and f1 == f2
    assert len(f1) > 0  # episodes completed and auto-reset inside the window


def test_vecenv_instances_play_different_levels():
    vec = VecEnv("blink_door", 6, "test", 10, Rng(5))
    obs = vec.reset_all()
    sums = {float(obs[i].sum()) for i in range(6)}
    assert len(sums) >= 5  # near-certainly distinct sampled levels


def test_vecenv_state_round_trip():
    vec = VecEnv("corridor_dodge", 3, "train", 10, Rng(9))
    vec.reset_all()
    r = Rng(2)
    for _ in range(20):
        vec.step(r.integers(0, NUM_ACTIONS, size=3))
    snap = vec.get_state()
    rng_tail = r.get_state()

    vec2 = VecEnv("corridor_dodge", 3, "train", 10, Rng(9))
    vec2.set_state(snap)
    r2 = Rng(2)
    r2.set_state(rng_tail)
    for _ in range(50):
        a = r.integers(0, NUM_ACTIONS, size=3)
        o1, w1, d1, f1 = vec.step(a)
        o2, w2, d2, f2 = vec2.step(r2.integers(0, NUM_ACTIONS, size=3))
        np.testing.assert_array_equal(o1, o2)
        np.testing.assert_array_equal(w1, w2)
        np.testing.assert_array_equal(d1, d2)
        assert f1 == f2
