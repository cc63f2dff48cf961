"""Seeded, splittable random number streams.

Every source of randomness in the library (env generation, dropout masks,
action sampling, bootstrap resampling, ...) draws from an `Rng`. Streams are
derived from a root seed by *labelled splits*, so adding a new consumer or
reordering draws in one subsystem cannot perturb any other subsystem.

The underlying bit generator is Philox (counter based), which gives identical
sequences across platforms for a fixed seed.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["Rng"]


def _label_key(label: str) -> int:
    # Stable across platforms and python versions (unlike hash()).
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class Rng:
    """A deterministic random stream identified by (seed, split path)."""

    def __init__(self, seed: int, _path: tuple[int, ...] = ()):
        if not (0 <= int(seed) < 2**64):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
        self.seed = int(seed)
        self.path = tuple(_path)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        self._gen = np.random.Generator(np.random.Philox(ss))

    def split(self, label: str) -> "Rng":
        """Derive an independent child stream. Same (seed, labels) => same stream."""
        return Rng(self.seed, self.path + (_label_key(label),))

    def split_index(self, index: int) -> "Rng":
        """Derive a child stream by integer index (for per-env / per-worker streams)."""
        return Rng(self.seed, self.path + (int(index),))

    # -- draws ------------------------------------------------------------

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high, size=size)

    def uniform(self, low=0.0, high=1.0, size=None) -> np.ndarray:
        return self._gen.uniform(low, high, size=size)

    def normal(self, loc=0.0, scale=1.0, size=None) -> np.ndarray:
        return self._gen.normal(loc, scale, size=size)

    def random(self, size=None):
        return self._gen.random(size)

    def choice(self, a, size=None, replace=True, p=None):
        return self._gen.choice(a, size=size, replace=replace, p=p)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    # -- checkpointing ----------------------------------------------------

    def get_state(self) -> dict:
        state = self._gen.bit_generator.state
        # plain python ints so states are JSON-serializable in checkpoints
        return {
            "seed": self.seed,
            "path": list(self.path),
            "counter": [int(v) for v in state["state"]["counter"]],
            "key": [int(v) for v in state["state"]["key"]],
            "buffer": [int(v) for v in state["buffer"]],
            "buffer_pos": int(state["buffer_pos"]),
            "has_uint32": int(state["has_uint32"]),
            "uinteger": int(state["uinteger"]),
        }

    def set_state(self, state: dict) -> None:
        if state["seed"] != self.seed or tuple(state["path"]) != self.path:
            raise ValueError("rng state belongs to a different stream")
        bg_state = self._gen.bit_generator.state
        bg_state["state"]["counter"] = np.array(state["counter"], dtype=np.uint64)
        bg_state["state"]["key"] = np.array(state["key"], dtype=np.uint64)
        bg_state["buffer"] = np.array(state["buffer"], dtype=np.uint64)
        bg_state["buffer_pos"] = state["buffer_pos"]
        bg_state["has_uint32"] = state["has_uint32"]
        bg_state["uinteger"] = state["uinteger"]
        self._gen.bit_generator.state = bg_state

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed}, path={self.path})"
