"""Deterministic seeds, and numpy's seed hash run for many seeds at once.

All stochastic code paths draw from numpy's PCG64 generator, seeded either
directly by the caller or through :func:`derive_seed`. Derivation hashes the
parent seed together with a component path (e.g. a task id), so results are
reproducible regardless of scheduling order or device count.

Most of the cost of ``np.random.default_rng(seed)`` is its ``SeedSequence``: a
fixed 32-bit mixing hash (NEP 19) that turns the seed into PCG64's four-word
state. :func:`seed_words` runs that hash for a batch of seeds with array
arithmetic, and a :class:`SeedState` hands one seed's words to PCG64 in its
place, so the runtime hashes a graph's sampling seeds in one pass at submit
and every sampled task still draws exactly what ``default_rng(seed)`` draws.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_SEED_MASK = (1 << 63) - 1


def derive_seed(base: int, *components: int | str) -> int:
    """Derive a child seed from ``base`` and a component path.

    Uses SHA-256 over the decimal/text rendering of the inputs, joined by
    ``:``, and keeps the low 63 bits, so the mapping is stable across
    platforms and releases.
    """
    *path, last = base, *components
    return seed_deriver(*path)(last)


def seed_deriver(*path: int | str) -> Callable[[int | str], int]:
    """``derive_seed(*path, c)`` as a function of ``c``: the text before ``c``
    is hashed once, and each call copies that hash state."""
    prefix = hashlib.sha256("".join(f"{p}:" for p in path).encode("utf-8"))

    def derive(last: int | str) -> int:
        child = prefix.copy()
        child.update(str(last).encode("utf-8"))
        return int.from_bytes(child.digest()[:8], "big") & _SEED_MASK

    return derive


# numpy's SeedSequence (numpy/random/bit_generator.pyx). Each call of its hash
# xors a word with a running constant, multiplies it by the constant's next
# value and xors in its own top half; the constants never depend on the data.
_M32 = 0xFFFFFFFF
_POOL_WORDS = 4
_STATE_WORDS = 4  # uint64 words that PCG64 takes from generate_state
_U32 = np.uint32


def _hash_calls(init: int, mult: int, count: int) -> np.ndarray:
    """The xors (row 0) and multipliers (row 1) of ``count`` successive hash calls."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _M32)
    return np.array([consts[:-1], consts[1:]], _U32)


# A seed below 2**64 is two 32-bit words, so it fills at most two pool words;
# the others hash zero, as a shorter seed's do, and no entropy is left over.
_ENTROPY = _hash_calls(0x43B0D7E5, 0x931E8875, 16)
_MIX_L, _MIX_R = np.array(0xCA01F9DD, _U32), np.array(0x4973F715, _U32)
_SHIFT = np.array(16, _U32)


def _mixing(calls: np.ndarray) -> list[tuple[np.ndarray, ...]]:
    """Per source pool word, the (4, 1) xors and multipliers of the hashes that mix
    it into the other words, in ascending order; its own slot holds a zero."""
    three = calls.reshape(2, _POOL_WORDS, _POOL_WORDS - 1)
    return [tuple(np.insert(three[:, src], src, 0, axis=1)[:, :, None]) for src in range(_POOL_WORDS)]


_FILL = tuple(_ENTROPY[:, :_POOL_WORDS, None])
_MIXING = _mixing(_ENTROPY[:, _POOL_WORDS:])
# generate_state(4, uint64) cycles the pool twice: output word 4a + b hashes pool word b
_OUTPUT = tuple(_hash_calls(0x8B51F9DD, 0x58F38DED, 2 * _STATE_WORDS).reshape(2, 2, _POOL_WORDS, 1))


def _hash(words: np.ndarray, calls: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    xor, mult = calls
    out = words ^ xor
    out *= mult
    out ^= out >> _SHIFT
    return out


def seed_words(seeds: Sequence[int]) -> np.ndarray:
    """The (n, 4) uint64 states of ``n`` seeds in [0, 2**64): row i equals
    ``np.random.SeedSequence(seeds[i]).generate_state(4, np.uint64)``.

    The pool is a (4, n) array, so each step of numpy's hash is one array
    operation for every seed, and each source word's three mixing hashes are
    one broadcast.
    """
    pool = np.zeros((_POOL_WORDS, len(seeds)), _U32)
    pool[:2] = np.array(seeds, "<u8").view("<u4").reshape(-1, 2).T
    pool = _hash(pool, _FILL)
    for src, calls in enumerate(_MIXING):
        source = pool[src]
        mixed = pool * _MIX_L
        mixed -= _hash(source, calls) * _MIX_R
        mixed ^= mixed >> _SHIFT
        mixed[src] = source
        pool = mixed
    out = _hash(pool, _OUTPUT)  # (2, 4, n): output word 4a + b of each seed
    words = np.ascontiguousarray(out.transpose(2, 0, 1).reshape(-1, 2 * _STATE_WORDS), "<u4")
    # numpy reads the 32-bit words as little-endian pairs, on every platform
    return words.view("<u8").astype(np.uint64, copy=False)


class SeedState(ISeedSequence):
    """One seed's row of :func:`seed_words`, which PCG64 takes in place of the
    seed: :meth:`generator` is the generator that ``default_rng(seed)`` makes."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != _STATE_WORDS or np.dtype(dtype) != np.uint64:
            raise ValueError("a SeedState holds PCG64's state only: 4 uint64 words")
        return self.words

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(self))


def seed_states(seeds: Sequence[int]) -> list[SeedState | None]:
    """A :class:`SeedState` per seed, from one :func:`seed_words` pass over the
    ints in [0, 2**64); None for any other seed, which ``default_rng(seed)``
    must take itself (it rejects a negative one)."""
    inside = [i for i, seed in enumerate(seeds) if type(seed) is int and 0 <= seed < 1 << 64]
    states: list[SeedState | None] = [None] * len(seeds)
    if inside:
        for i, words in zip(inside, seed_words([seeds[i] for i in inside])):
            states[i] = SeedState(words)
    return states
