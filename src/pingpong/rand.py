"""Counter-based random streams for bit-reproducible experiments.

Every stochastic operation in the package draws from an explicit stream
handle. Streams are Philox generators keyed by a tuple of integers, so a
(seed, purpose, index) key always reproduces the same draws regardless of
what any other stream consumed.

`stream(*key)` hashes its key with numpy's `SeedSequence` into the 128-bit
Philox key. A session draws from one stream per cycle, `(seed, SESSION_TAG,
k)`; `cycle_streams` gives the same streams without a `SeedSequence` per
cycle. It computes the keys of a block of cycles in one vectorized pass of
the `SeedSequence` hash (a fixed mixing function of 32-bit words, with
numpy's constants and pool size) and resets one Philox generator to each key
in turn, with its counter at 0 and its buffers empty, as a fresh generator
starts. The generator it yields is therefore valid only until the next one
is requested.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

import numpy as np

# Fixed purpose tags for derived streams; part of the reproducibility contract.
SESSION_TAG = 1
PDET_TAG = 2
SCORE_TAG = 3
MESSAGE_TAG = 4

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF

# Cycles whose keys are computed in one pass.
_KEY_BLOCK = 1024


def stream(*key: int) -> np.random.Generator:
    """Return an independent generator keyed by non-negative integers."""
    if any(k < 0 for k in key):
        raise ValueError(f"stream key must be non-negative, got {key}")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


def _words(n: int) -> list[int]:
    """The 32-bit entropy words SeedSequence reads from a non-negative int."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


@lru_cache(maxsize=None)
def _constants(init: int, mult: int, count: int) -> np.ndarray:
    """The first `count` hash constants, each the last one times `mult`,
    as a read-only uint32 column."""
    out = [init]
    for _ in range(count - 1):
        out.append(out[-1] * mult & _MASK32)
    column = np.array(out, dtype=np.uint32)[:, None]
    column.flags.writeable = False
    return column


def _hash(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of `values` row by row; row i uses constants
    i and i + 1."""
    values = (values ^ consts[:-1]) * consts[1:]
    return values ^ (values >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def cycle_keys(seed: int, tag: int, ks) -> np.ndarray:
    """The Philox keys of `stream(seed, tag, k)` for each cycle index in
    `ks` (each below 2**32), as a (len(ks), 2) uint64 array.

    Equal to `SeedSequence((seed, tag, k)).generate_state(2, np.uint64)`.
    """
    if seed < 0 or tag < 0:
        raise ValueError(f"stream key must be non-negative, got {(seed, tag)}")
    ks = np.asarray(ks, dtype=np.int64).reshape(-1)
    if ks.size and not (0 <= ks.min() and ks.max() <= _MASK32):
        raise ValueError("cycle index must be in [0, 2**32)")
    pool = _POOL_SIZE
    prefix = _words(int(seed)) + _words(int(tag))
    n_entropy = len(prefix) + 1
    entropy = np.empty((max(n_entropy, pool), ks.size), dtype=np.uint32)
    entropy[: len(prefix)] = np.array(prefix, dtype=np.uint32)[:, None]
    entropy[len(prefix)] = ks
    entropy[n_entropy:] = 0  # the pool is longer than the entropy

    n_extra = max(n_entropy - pool, 0)
    consts = _constants(_INIT_A, _MULT_A, pool * pool + pool * n_extra + 1)
    mixer = _hash(entropy[:pool], consts[: pool + 1])
    used = pool
    # Mix all words together: each source word into every other pool word.
    for src in range(pool):
        dst = [i for i in range(pool) if i != src]
        mixer[dst] = _mix(mixer[dst], _hash(mixer[src], consts[used : used + pool]))
        used += pool - 1
    # Entropy beyond the pool, each word mixed into every pool word.
    for src in range(pool, n_entropy):
        mixer = _mix(mixer, _hash(entropy[src], consts[used : used + pool + 1]))
        used += pool

    # generate_state(2, uint64): four words, read back as little-endian pairs.
    state = _hash(mixer, _constants(_INIT_B, _MULT_B, pool + 1))
    return np.ascontiguousarray(state.T).astype("<u4").view("<u8").astype(np.uint64)


def cycle_streams(seed: int, tag: int, n: int) -> Iterator[np.random.Generator]:
    """Yield generators that draw as `stream(seed, tag, k)` for k = 0 .. n-1.

    The same generator object is yielded each time, reset to the next
    cycle's key, so each one is valid only until the next is requested.
    """
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    fresh = bitgen.state  # counter 0, empty buffers
    for start in range(0, n, _KEY_BLOCK):
        for key in cycle_keys(seed, tag, np.arange(start, min(start + _KEY_BLOCK, n))):
            fresh["state"]["key"] = key
            bitgen.state = fresh
            yield gen
