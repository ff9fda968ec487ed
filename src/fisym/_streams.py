"""Per-trial RNG streams keyed by (seed, trial index), seeded in bulk.

The stream of key (seed, i) is that of ``np.random.default_rng((seed, i))``:
PCG64 seeded from ``SeedSequence((seed, i)).generate_state(4, np.uint64)``.
NumPy hashes one key at a time, which costs far more than the draws of a
trial.  :func:`stream_states` reimplements its mixing (NEP 19;
``numpy/random/bit_generator.pyx``) in uint32 array arithmetic, so the
seeds of every trial of a run are hashed in one pass, and
:func:`seeded_rng` hands a key's hashed words to PCG64, whose own code
still turns them into the 128-bit state.  The pass works on the four
pool words of every key as one (4, keys) array: the hash constants
follow a fixed sequence, so the mixes that do not depend on each other
(the three of one pool word into the others, the four of each word past
the pool, the eight output words) are each one array operation.

Importing this module imports ``numpy.random``; the simulation imports it
when it first runs, so the commands that draw nothing do not pay for it.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# SeedSequence's constants: a pool of 4 words, mixed by hashmix and mix.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _int_words(n: int) -> list[int]:
    """The little-endian 32-bit words SeedSequence splits n >= 0 into: as
    many as n needs, and one for n = 0."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _constants(init: int, mult: int, n: int) -> tuple:
    """The xor and multiply constants of n successive hashmix calls of a
    sequence that starts at ``init``, as two (n, 1) uint32 arrays."""
    c = [init]
    for _ in range(n):
        c.append(c[-1] * mult & _MASK32)
    c = np.array(c, dtype=np.uint32)[:, None]
    return c[:-1], c[1:]


def _hashmix(value, xor, mult):
    value = (value ^ xor) * mult
    return value ^ (value >> 16)


def _mix(x, y):
    r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return r ^ (r >> 16)


def _hash_entropy(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(e).generate_state(4, np.uint64)`` for every row e of
    a (keys, length) uint32 entropy array, shape (keys, 4).

    The pool is a (4, keys) array, one row per pool word.  Every hashmix
    call advances one sequence of constants, so the constants of all
    calls are known up front, and the calls that do not depend on each
    other run as one array operation: the first hash of the pool, the
    three mixes of one pool word into the others, the four mixes of each
    word past the pool, and the eight output words.
    """
    n_keys, length = entropy.shape
    words = np.zeros((max(length, _POOL_SIZE), n_keys), dtype=np.uint32)
    words[:length] = entropy.T
    xor, mult = _constants(_INIT_A, _MULT_A, _POOL_SIZE * len(words))

    # mix_entropy: hash the first words into the pool (zeros past the end
    # of short entropy), mix every pool word into every other, then mix
    # each word past the pool into every pool word
    pool = _hashmix(words[:_POOL_SIZE], xor[:4], mult[:4])
    for src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != src]
        at = slice(4 + 3 * src, 7 + 3 * src)
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], xor[at], mult[at]))
    for src in range(_POOL_SIZE, length):
        at = slice(4 * src, 4 * src + 4)
        pool = _mix(pool, _hashmix(words[src], xor[at], mult[at]))

    # generate_state: 8 words drawn cyclically from the pool, paired
    # little-endian into 4 uint64
    out = _hashmix(np.concatenate([pool, pool]), *_constants(
        _INIT_B, _MULT_B, 2 * _POOL_SIZE)).astype(np.uint64)
    return (out[0::2] | (out[1::2] << np.uint64(32))).T


def stream_states(seeds, trials) -> np.ndarray:
    """``np.random.SeedSequence((seed, i)).generate_state(4, np.uint64)``
    for every seed in ``seeds`` (nonnegative ints) and every index i in
    ``trials`` (below 2**64), shape (len(seeds), len(trials), 4).

    A key's entropy is the words of its seed and then those of its index,
    and the hash depends on its length, so the keys are hashed in one
    group per pair of word counts: one group when every seed and index
    fits in one word.
    """
    trials = np.asarray(trials, dtype=np.uint64).reshape(-1)
    tails = np.stack([trials & np.uint64(_MASK32), trials >> np.uint64(32)],
                     axis=1).astype(np.uint32)
    widths = np.where(tails[:, 1] > 0, 2, 1)
    heads = [_int_words(int(seed)) for seed in seeds]
    out = np.empty((len(heads), trials.size, _POOL_SIZE), dtype=np.uint64)
    for h in set(map(len, heads)):
        a = [k for k, head in enumerate(heads) if len(head) == h]
        head = np.array([heads[k] for k in a], dtype=np.uint32)
        for w in (1, 2):
            i = np.nonzero(widths == w)[0]
            if i.size:
                rows = np.empty((len(a), i.size, h + w), dtype=np.uint32)
                rows[:, :, :h] = head[:, None, :]
                rows[:, :, h:] = tails[i, :w]
                out[np.ix_(a, i)] = _hash_entropy(
                    rows.reshape(-1, h + w)).reshape(rows.shape[:2] + (-1,))
    return out


class _HashedSeed(ISeedSequence):
    """A seed sequence whose state is already hashed: ``state`` is a
    contiguous row of :func:`stream_states`."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 reads exactly this request's buffer
        if (n_words, dtype) != (_POOL_SIZE, np.uint64):
            raise ValueError("a hashed seed holds 4 uint64 words only")
        return self.state


def seeded_rng(state: np.ndarray) -> np.random.Generator:
    """The generator ``np.random.default_rng(key)`` returns, from a row of
    :func:`stream_states` for that key."""
    return np.random.Generator(np.random.PCG64(_HashedSeed(state)))
