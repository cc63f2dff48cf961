import numpy as np
import pytest

from deskrl.rng import Rng


def test_same_seed_same_sequence():
    a = Rng(7).split("x").normal(size=100)
    b = Rng(7).split("x").normal(size=100)
    np.testing.assert_array_equal(a, b)


def test_different_labels_differ():
    a = Rng(7).split("x").normal(size=100)
    b = Rng(7).split("y").normal(size=100)
    assert not np.array_equal(a, b)


def test_different_seeds_differ():
    a = Rng(1).normal(size=100)
    b = Rng(2).normal(size=100)
    assert not np.array_equal(a, b)


def test_split_is_insensitive_to_parent_draws():
    r1 = Rng(3)
    child_before = r1.split("c").normal(size=10)
    r2 = Rng(3)
    r2.normal(size=1000)  # consume the parent heavily
    child_after = r2.split("c").normal(size=10)
    np.testing.assert_array_equal(child_before, child_after)


def test_split_index_streams_are_distinct():
    root = Rng(5).split("envs")
    draws = [root.split_index(i).random(50) for i in range(8)]
    for i in range(8):
        for j in range(i + 1, 8):
            assert not np.array_equal(draws[i], draws[j])


def test_state_round_trip_resumes_exactly():
    r = Rng(11).split("stream")
    r.normal(size=37)  # advance to an arbitrary position
    state = r.get_state()
    tail = r.normal(size=64)
    r2 = Rng(11).split("stream")
    r2.set_state(state)
    np.testing.assert_array_equal(tail, r2.normal(size=64))


def test_set_state_rejects_foreign_stream():
    state = Rng(1).split("a").get_state()
    with pytest.raises(ValueError):
        Rng(1).split("b").set_state(state)


def test_seed_range_validation():
    with pytest.raises(ValueError):
        Rng(-1)
    with pytest.raises(ValueError):
        Rng(2**64)
    Rng(0)
    Rng(2**64 - 1)


def test_permutation_is_a_permutation():
    p = Rng(4).permutation(100)
    assert sorted(p.tolist()) == list(range(100))


def test_integers_respect_bounds():
    draws = Rng(6).integers(3, 9, size=1000)
    assert draws.min() >= 3 and draws.max() < 9
