"""Deterministic RNG derivation and float sums.

Every random draw in the simulator comes from a generator derived from the
experiment master seed plus a purpose tag (and usually a round / client id),
so that any output is a pure function of (config, seed) regardless of the
order in which components consume randomness. Float sums that reach an
output add from left to right (`left_sum`), so the bytes do not depend on
the Python version either.
"""

from __future__ import annotations

import numpy as np

# Purpose tags. Values are arbitrary but must never change between releases,
# otherwise previously recorded traces stop being reproducible.
TAG_DATASET = 1
TAG_PARTITION = 2
TAG_SPEEDS = 3
TAG_MODEL_INIT = 4
TAG_SELECTION = 5
TAG_BATCHES = 6
TAG_PROFILE = 7


def spawn_rng(*keys: int) -> np.random.Generator:
    """Return a generator keyed by the given integer tuple.

    Args:
        *keys: non-negative integers, typically (master_seed, tag, ...).
    """
    entropy = [int(k) for k in keys]
    for k in entropy:
        if k < 0:
            raise ValueError(f"rng keys must be non-negative, got {k}")
    if all(k < 2**32 for k in entropy):
        # SeedSequence reads a list of such keys as this array, one word
        # each, and coerces the array about twice as fast.
        entropy = np.array(entropy, dtype=np.uint32)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def left_sum(values):
    """Sum from left to right in plain float arithmetic.

    This is `sum` up to Python 3.11; from 3.12 `sum` compensates float
    rounding and can differ in the last bit, which would move outputs.
    """
    total = 0
    for v in values:
        total += v
    return total
