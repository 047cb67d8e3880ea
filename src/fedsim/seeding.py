"""Deterministic RNG derivation and float sums.

Every random draw in the simulator comes from a generator derived from the
experiment master seed plus a purpose tag (and usually a round / client id),
so that any output is a pure function of (config, seed) regardless of the
order in which components consume randomness. Float sums that reach an
output add from left to right (`left_sum`), so the bytes do not depend on
the Python version either.

`spawn_rngs` opens the generators of a whole cohort, `spawn_rng(*keys, i)`
for each client id i, in one pass. It reproduces numpy's `SeedSequence`
mixing, which numpy documents as stable across releases, on arrays of
uint32 words, one per client, with the words the cohort shares mixed once
as Python ints, and hands each client's four generated state words to
`np.random.PCG64`, which seeds itself from them as it does from a
`SeedSequence`. The pass uses integer operations only, so its generators do
not depend on the host.
"""

from __future__ import annotations

from functools import lru_cache

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


# numpy's SeedSequence: a pool of four uint32 words, the hash constants
# that mixing the entropy in and generating the state out step through,
# and the mixing multipliers. `_L`, `_R` and `_SHIFT` are the constants
# every uint32 array meets, as arrays: numpy applies an operation with
# another array about twice as fast as one with a Python int.
_MASK = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_L, _R, _SHIFT = (np.array(c, np.uint32) for c in (_MIX_L, _MIX_R, 16))


@lru_cache(maxsize=None)
def _hash_constants(init: int, mult: int, count: int):
    """The first `count` (xor, multiplier) pairs a hash constant steps
    through, as Python ints, and as their two columns of uint32 arrays."""
    pairs, const = [], init
    for _ in range(count):
        nxt = const * mult & _MASK
        pairs.append((const, nxt))
        const = nxt
    xor, mul = (np.array(column, np.uint32) for column in zip(*pairs))
    return pairs, xor, mul


def _hashmix(value, xor, mul):
    """SeedSequence's hashmix of a Python int, or of a uint32 array."""
    if isinstance(value, int):
        value = (value ^ xor) * mul & _MASK
        return value ^ value >> 16
    value = (value ^ xor) * mul
    return value ^ (value >> _SHIFT)


def _mix(x, y):
    """SeedSequence's mix of two Python ints, or of uint32 arrays or ints."""
    if isinstance(x, int) and isinstance(y, int):
        value = (_MIX_L * x - _MIX_R * y) & _MASK
        return value ^ value >> 16
    value = (_MIX_L * x & _MASK if isinstance(x, int) else x * _L) - (
        _MIX_R * y & _MASK if isinstance(y, int) else y * _R
    )
    return value ^ (value >> _SHIFT)


def _mix_in(pool: list, dsts: list[int], value, constants) -> None:
    """`pool[d] = mix(pool[d], hashmix(value))` for each d of `dsts`, each
    hashmix taking the next of `constants`. A word the cohort shares is a
    Python int; a client's word is a uint32 array with one entry per client,
    and is hashed for every destination in one (clients, dsts) operation."""
    pairs, xor, mul = constants
    if isinstance(value, int):
        for d, (c, m) in zip(dsts, pairs):
            pool[d] = _mix(pool[d], _hashmix(value, c, m))
        return
    mixed = _mix(_columns([pool[d] for d in dsts], len(value)), _hashmix(value[:, None], xor, mul))
    for j, d in enumerate(dsts):
        pool[d] = mixed[:, j]


def _columns(values: list, rows: int) -> np.ndarray:
    """A (rows, len(values)) uint32 array whose column j is values[j]."""
    out = np.empty((rows, len(values)), np.uint32)
    for j, value in enumerate(values):
        out[:, j] = value
    return out


def _key_words(key: int) -> list[int]:
    """A key as SeedSequence reads it: its uint32 words, lowest first."""
    key = int(key)
    if key < 0:
        raise ValueError(f"rng keys must be non-negative, got {key}")
    words = [key & _MASK]
    while key > _MASK:
        key >>= 32
        words.append(key & _MASK)
    return words


@lru_cache(maxsize=None)
def _state_words() -> type:
    """The seed sequence that hands PCG64 one client's state words, worked
    out ahead. It is made on first use, when numpy.random is imported, as
    for `spawn_rng`: importing numpy.random along with fedsim raised the
    peak memory of the benchmark's library pass by about 0.4 MB."""

    class StateWords(np.random.bit_generator.ISeedSequence):
        __slots__ = ("_words",)

        def __init__(self, words: np.ndarray) -> None:
            self._words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("holds the four uint64 words that PCG64 seeds from")
            return self._words

    return StateWords


def spawn_rngs(keys, ids) -> list[np.random.Generator]:
    """The generators `spawn_rng(*keys, i)` for each i of `ids`, in order,
    bitwise, opened in one pass over the ids (see the module docstring).

    Args:
        keys: the non-negative integer keys every generator shares.
        ids: integers in [0, 2**32), such as client ids.
    """
    ids = list(ids)
    if ids and (min(ids) < 0 or max(ids) > _MASK):
        bad = min(ids) if min(ids) < 0 else max(ids)
        raise ValueError(f"a cohort's ids must lie in [0, 2**32), got {bad}")
    words = np.array(ids, dtype=np.uint32)
    entropy = [w for k in keys for w in _key_words(k)] + [words]
    # Mixing in: the pool starts as the first four words hashed, zeros past
    # the entropy's end; each word then mixes into every other, and each
    # word past the pool into all four.
    extra = max(0, len(entropy) - _POOL)
    pairs, xor, mul = _hash_constants(_INIT_A, _MULT_A, _POOL * _POOL + _POOL * extra)
    pool = [_hashmix(entropy[i] if i < len(entropy) else 0, *pairs[i]) for i in range(_POOL)]
    at = _POOL
    for src in range(_POOL):
        dsts = [d for d in range(_POOL) if d != src]
        step = slice(at, at + len(dsts))
        _mix_in(pool, dsts, pool[src], (pairs[step], xor[step], mul[step]))
        at += len(dsts)
    for word in entropy[_POOL:]:
        step = slice(at, at + _POOL)
        _mix_in(pool, list(range(_POOL)), word, (pairs[step], xor[step], mul[step]))
        at += _POOL
    # Generating out: eight uint32 words from the pool, cycled, read in
    # little-endian pairs as the four uint64 words PCG64 asks for.
    _, xor, mul = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)
    state = _hashmix(_columns(pool, words.size)[:, None, :], xor.reshape(2, -1), mul.reshape(2, -1))
    state = state.reshape(-1, 2 * _POOL).astype("<u4", copy=False).view("<u8")
    sequence = _state_words()
    return [
        np.random.Generator(np.random.PCG64(sequence(w)))
        for w in state.astype(np.uint64, copy=False)
    ]


def left_sum(values):
    """Sum from left to right in plain float arithmetic.

    This is `sum` up to Python 3.11; from 3.12 `sum` compensates float
    rounding and can differ in the last bit, which would move outputs.
    """
    total = 0
    for v in values:
        total += v
    return total
