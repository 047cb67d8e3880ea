"""Deterministic RNG derivation and float sums.

Every random draw in the simulator comes from a generator derived from the
experiment master seed plus a purpose tag (and usually a round / client id),
so that any output is a pure function of (config, seed) regardless of the
order in which components consume randomness. Float sums that reach an
output add from left to right (`left_sum`), so the bytes do not depend on
the Python version either.

`spawn_rngs` opens the generators of a whole cohort, `spawn_rng(*keys, i)`
for each client id i, in one pass. It reproduces numpy's `SeedSequence`
mixing, which numpy documents as stable across releases, on Python ints:
a word the cohort shares is one int, and a word that depends on the
client's id is one int that holds each client's word in a 64-bit lane of
its own, so each hash and mix of the pass is a few integer operations for
the whole cohort, and the pass runs about as many of them for 3 clients
as for 100. Each client's four generated state words go to
`np.random.PCG64`, which seeds itself from them as it does from a
`SeedSequence`. The pass uses integer operations only, so its generators
do not depend on the host.
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
# and the mixing multipliers.
_MASK = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# One lane of a cohort's word, holding 1: 64 bits, little-endian.
_LANE = (1).to_bytes(8, "little")


@lru_cache(maxsize=None)
def _hash_constants(init: int, mult: int, count: int) -> list[tuple[int, int]]:
    """The first `count` (xor, multiplier) pairs a hash constant steps through."""
    pairs, const = [], init
    for _ in range(count):
        nxt = const * mult & _MASK
        pairs.append((const, nxt))
        const = nxt
    return pairs


def _hashmix(value: int, xor: int, mul: int, lanes: tuple[int, int, int]) -> int:
    """SeedSequence's hashmix of each lane of `value` (see `spawn_rngs`).

    A lane is 64 bits wide and holds one 32-bit word, so a word times a
    constant fits its lane, and the mask drops the bits that a shift brings
    down from the lane above."""
    ones, mask, _ = lanes
    value = (value ^ xor * ones) * mul & mask
    return value ^ value >> 16 & mask


def _mix(x: int, y: int, lanes: tuple[int, int, int]) -> int:
    """SeedSequence's mix of each lane of `x` with that lane of `y`. Its
    (L * x - R * y) mod 2**32 is L * x mod 2**32 + R * (2**32 - 1 - y) + R,
    modulo 2**32, a sum that fits a lane, so no lane borrows from the next."""
    _, mask, r = lanes
    value = ((_MIX_L * x & mask) + _MIX_R * (mask - y) + r) & mask
    return value ^ value >> 16 & mask


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
def _mixing_steps(extra: int) -> list[tuple[int, int]]:
    """The (source, destination) of each step of SeedSequence's mixing in,
    in order, with `extra` entropy words past the pool, numbered from
    `_POOL` on."""
    steps = [(src, dst) for src in range(_POOL) for dst in range(_POOL) if dst != src]
    return steps + [(_POOL + i, dst) for i in range(extra) for dst in range(_POOL)]


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
        ids: integers in [0, 2**32), such as client ids; repeated ids
            give separate generators of the same stream.
    """
    ids = list(ids)
    if not ids:
        return []
    if min(ids) < 0 or max(ids) > _MASK:
        bad = min(ids) if min(ids) < 0 else max(ids)
        raise ValueError(f"a cohort's ids must lie in [0, 2**32), got {bad}")
    # A word is an int and its lanes: one lane for a word the cohort
    # shares, one per client, the first lowest, for a word that depends on
    # the client's id. The lanes are a 1, 2**32 - 1 and `_MIX_R` in each.
    # A shared word meets a client's as that many copies of itself.
    n = len(ids)
    ones = int.from_bytes(_LANE * n, "little")
    shared, cohort = (1, _MASK, _MIX_R), (ones, ones * _MASK, ones * _MIX_R)
    entropy = [(w, shared) for k in keys for w in _key_words(k)]
    entropy.append((int.from_bytes(np.array(ids, "<u8").tobytes(), "little"), cohort))
    # Mixing in: the pool starts as the first four words hashed, zeros past
    # the entropy's end; each word then mixes into every other, and each
    # word past the pool into all four. The words past the pool follow it
    # in `pool`, where the steps read them.
    extra = entropy[_POOL:]
    consts = _hash_constants(_INIT_A, _MULT_A, _POOL * _POOL + _POOL * len(extra))
    pool = [
        (_hashmix(value, *c, lanes), lanes)
        for c, (value, lanes) in zip(consts, (entropy + [(0, shared)] * _POOL)[:_POOL])
    ]
    pool += extra
    for (xor, mul), (src, dst) in zip(consts[_POOL:], _mixing_steps(len(extra))):
        (x, lanes), (y, y_lanes) = pool[dst], pool[src]
        y = _hashmix(y, xor, mul, y_lanes)
        # A shared word meets the cohort's as one copy of itself per lane.
        if lanes is not y_lanes:
            if lanes is shared:
                x, lanes = x * ones, cohort
            else:
                y *= ones
        pool[dst] = (_mix(x, y, lanes), lanes)
    # Generating out: eight words from the pool, cycled, hashed; every pool
    # word holds the cohort's lanes by now, as the ids' word mixed into
    # each. Each pair, low word first, is one of the four uint64 words
    # PCG64 asks for, and a client's four are one row of `state`.
    gen = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)
    words = [_hashmix(pool[i % _POOL][0], c, m, cohort) for i, (c, m) in enumerate(gen)]
    state = b"".join(
        (words[i] | words[i + 1] << 32).to_bytes(8 * n, "little") for i in range(0, 2 * _POOL, 2)
    )
    state = np.frombuffer(state, "<u8").reshape(_POOL, n).T
    state = np.ascontiguousarray(state, dtype=np.uint64)
    sequence, generator, pcg = _state_words(), np.random.Generator, np.random.PCG64
    return [generator(pcg(sequence(row))) for row in state]


def left_sum(values):
    """Sum from left to right in plain float arithmetic.

    This is `sum` up to Python 3.11; from 3.12 `sum` compensates float
    rounding and can differ in the last bit, which would move outputs.
    """
    total = 0
    for v in values:
        total += v
    return total
