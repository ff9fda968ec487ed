"""Per-trial RNG streams keyed by (seed, trial index), seeded in bulk.

The stream of key (seed, i) is that of ``np.random.default_rng((seed, i))``:
PCG64 seeded from ``SeedSequence((seed, i)).generate_state(4, np.uint64)``.
NumPy hashes one key at a time, which costs far more than the draws of a
trial.  :func:`stream_states` reimplements its mixing (NEP 19;
``numpy/random/bit_generator.pyx``) in uint32 array arithmetic, so the
seeds of every trial of a run are hashed in one pass, and
:func:`seeded_rng` hands a key's hashed words to PCG64, whose own code
still turns them into the 128-bit state.

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


def _hash_entropy(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(e).generate_state(4, np.uint64)`` for every row e of
    a (keys, length) uint32 entropy array, shape (keys, 4)."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> 16)

    def mix(x, y):
        r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return r ^ (r >> 16)

    # mix_entropy: hash the first words into the pool (zeros past the end
    # of short entropy), mix every pool word into every other, then mix
    # each word past the pool into every pool word
    n_keys, length = entropy.shape
    zero = np.zeros(n_keys, dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < length else zero)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, length):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))

    # generate_state: 8 words drawn cyclically from the pool, paired
    # little-endian into 4 uint64
    hash_const = _INIT_B
    words = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        words.append((value ^ (value >> 16)).astype(np.uint64))
    return np.stack([words[2 * j] | (words[2 * j + 1] << np.uint64(32))
                     for j in range(_POOL_SIZE)], axis=1)


def stream_states(seeds, trials) -> np.ndarray:
    """``np.random.SeedSequence((seed, i)).generate_state(4, np.uint64)``
    for every seed in ``seeds`` (nonnegative ints) and every index i in
    ``trials`` (below 2**64), shape (len(seeds), len(trials), 4).

    A key's entropy is the words of its seed and then those of its index,
    and the hash depends on its length, so the keys are hashed in one
    group per entropy length.
    """
    trials = np.asarray(trials, dtype=np.uint64).reshape(-1)
    high = trials >> np.uint64(32)
    tails = np.stack([trials & np.uint64(_MASK32), high],
                     axis=1).astype(np.uint32)
    two_words = high > 0
    shape = (len(seeds), trials.size)
    keys = np.arange(np.prod(shape)).reshape(shape)
    groups = {}  # entropy length -> [(key indices, entropy rows)]
    for a, seed in enumerate(seeds):
        head = _int_words(int(seed))
        for sel, width in ((~two_words, 1), (two_words, 2)):
            if not sel.any():
                continue
            rows = np.empty((np.count_nonzero(sel), len(head) + width),
                            dtype=np.uint32)
            rows[:, :len(head)] = head
            rows[:, len(head):] = tails[sel, :width]
            groups.setdefault(rows.shape[1], []).append((keys[a, sel], rows))
    out = np.empty((keys.size, _POOL_SIZE), dtype=np.uint64)
    for parts in groups.values():
        out[np.concatenate([k for k, _ in parts])] = _hash_entropy(
            np.concatenate([e for _, e in parts]))
    return out.reshape(*shape, _POOL_SIZE)


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
