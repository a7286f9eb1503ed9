"""Seedable random streams with a counter-style splitting rule.

A single master seed governs every random draw in a run.  Independent
sub-streams are derived by *splitting*: each split extends an integer key
tuple, and the (seed, key) pair is fed to ``numpy.random.SeedSequence`` as
``(entropy, spawn_key)``.  Two streams with different key tuples are
statistically independent, and the derivation is pure arithmetic on the key,
so any component can recreate its stream from the master seed alone.

The backing generator is PCG64 (128-bit state plus 128-bit stream selector);
a given (seed, key) pair yields the identical sample sequence on the same
platform and numpy build.
"""

from __future__ import annotations

import numpy as np

# Top-level stream ids, one per subsystem, so that e.g. adding a task never
# perturbs the training stream.
STREAM_TASKS = 0
STREAM_TRAIN = 1
STREAM_CERTIFY = 2
STREAM_SWEEP = 3


class Rng:
    """One random stream, identified by (master seed, key tuple), both
    non-negative.

    The generator is built on the first draw, so a stream that is only split
    never builds one.
    """

    def __init__(self, seed: int, key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.key = tuple(int(k) for k in key)
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if any(k < 0 for k in self.key):
            raise ValueError("split indices must be non-negative")
        self._generator: np.random.Generator | None = None

    @property
    def _gen(self) -> np.random.Generator:
        if self._generator is None:
            seq = np.random.SeedSequence(self.seed, spawn_key=self.key)
            self._generator = np.random.Generator(np.random.PCG64(seq))
        return self._generator

    def split(self, *indices: int) -> "Rng":
        """Derive an independent child stream by extending the key tuple."""
        return Rng(self.seed, self.key + tuple(indices))

    # -- sampling helpers (all consume this stream's state) ---------------

    def normal(self, shape=()) -> np.ndarray:
        return self._gen.standard_normal(size=shape)

    def uniform(self, low: float, high: float, shape=()) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Rng(seed={self.seed}, key={self.key})"
