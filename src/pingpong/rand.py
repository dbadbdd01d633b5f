"""Counter-based random streams for bit-reproducible experiments.

Every stochastic operation in the package draws from an explicit stream
handle. Streams are Philox generators keyed by a tuple of integers, so a
(seed, purpose, index) key always reproduces the same draws regardless of
what any other stream consumed.

`stream(*key)` hashes its key with numpy's `SeedSequence` into the 128-bit
Philox key. A session draws from one stream per cycle, `(seed, SESSION_TAG,
k)`; `cycle_draws` gives those draws for a chunk of cycles at a time, with no
generator per cycle. It computes the chunk's keys in one vectorized pass of
the `SeedSequence` hash (a fixed mixing function of 32-bit words, with
numpy's constants and pool size), and their Philox4x64-10 output words in
another: Philox output is a pure function of key and counter, and a fresh
generator's block j is the one at counter j + 1. Blocks past the first are
computed only for the cycles that reach them. The draws are decoded as
numpy's `Generator` decodes them: `random()` is one 64-bit word w as
(w >> 11) * 2**-53, and `integers(n)` is Lemire's bounded draw on 32-bit
halves, a fresh word's low half first and its high half kept for the next
`integers` (`random()` skips that buffer). Because a word depends on the
counter only, `skip` moves a `stream` generator past draws that nothing reads
by advancing its counter.
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

# Cycles whose keys and words are computed in one pass.
CHUNK = 4096

# Philox4x64-10 (Salmon et al., SC'11): the multipliers of counter lanes 0 and
# 2, and the key increments between rounds.
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_PHILOX_ROUNDS = 10
_LOW = np.uint64(_MASK32)
_HALF = np.uint64(32)


def stream(*key: int) -> np.random.Generator:
    """Return an independent generator keyed by non-negative integers."""
    if any(k < 0 for k in key):
        raise ValueError(f"stream key must be non-negative, got {key}")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


def skip(rng: np.random.Generator, n: int) -> None:
    """Move a `stream` generator past n `random()` draws without making them.

    Each draw is one 64-bit Philox word. The words left in the generator's
    4-word buffer are drawn, whole blocks are skipped by advancing the
    counter, and the last (n - head) % 4 words are drawn, so the generator
    ends where n draws would leave it; the half word `integers` keeps, which
    `advance` clears and `random()` never touches, is put back.
    """
    bitgen = rng.bit_generator
    if not isinstance(bitgen, np.random.Philox):
        raise TypeError(f"skip needs a Philox generator, got {type(bitgen).__name__}")
    state = bitgen.state
    head = min(n, 4 - state["buffer_pos"])
    bitgen.random_raw(head)
    blocks, tail = divmod(n - head, 4)
    if blocks:
        bitgen.advance(blocks)
        after = bitgen.state
        after["has_uint32"], after["uinteger"] = state["has_uint32"], state["uinteger"]
        bitgen.state = after
    bitgen.random_raw(tail)


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


def philox(keys: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """The Philox4x64-10 output block at counter (c, 0, 0, 0) under each key,
    for (n, 2) uint64 keys and n counters, as an (n, 4) uint64 array.

    Block j of `stream(*key)`, that is words 4j .. 4j + 3 of
    `bit_generator.random_raw`, is the block at counter j + 1.
    """
    key = np.array(keys, dtype=np.uint64).T  # (2, n), like each lane pair below
    shape = key.shape
    # Constants at full shape and results into buffers made once: a ufunc on
    # equal shapes is cheaper than one that broadcasts a column, and
    # allocating ~190 results per call would cost as much as computing them.
    bump = np.broadcast_to(_PHILOX_W, shape).copy()
    mult = np.broadcast_to(_PHILOX_M, shape).copy()
    low, half = np.full(shape, _MASK32, dtype=np.uint64), np.full(shape, 32, dtype=np.uint64)
    m_lo, m_hi = mult & low, mult >> half
    even = np.zeros(shape, dtype=np.uint64)  # lanes 0 and 2
    even[0] = counters
    odd = np.zeros(shape, dtype=np.uint64)  # lanes 1 and 3
    b_lo, b_hi, ll, hl, cross, hi, lo, tmp = np.empty((8, *shape), dtype=np.uint64)
    for r in range(_PHILOX_ROUNDS):
        if r:
            np.add(key, bump, out=key)
        # hi and lo words of mult * even, from 32-bit limbs; cross < 2**64
        np.bitwise_and(even, low, out=b_lo)
        np.right_shift(even, half, out=b_hi)
        np.multiply(m_lo, b_lo, out=ll)
        np.multiply(m_hi, b_lo, out=hl)
        np.right_shift(ll, half, out=cross)
        np.add(cross, np.bitwise_and(hl, low, out=tmp), out=cross)
        np.add(cross, np.multiply(m_lo, b_hi, out=tmp), out=cross)
        np.multiply(m_hi, b_hi, out=hi)
        np.add(hi, np.right_shift(hl, half, out=tmp), out=hi)
        np.add(hi, np.right_shift(cross, half, out=tmp), out=hi)
        np.multiply(mult, even, out=lo)  # wraps to the low word
        # lane 0 takes lane 2's product and lane 2 lane 0's
        np.bitwise_xor(hi[::-1], odd, out=even)
        np.bitwise_xor(even, key, out=even)
        odd[:] = lo[::-1]
    return np.stack((even, odd), axis=1).reshape(4, -1).T


class CycleDraws:
    """The draws of `stream(seed, tag, k)` for the cycles k of one chunk.

    Cycles are named by their position in the chunk. Each call makes one draw
    for every cycle it lists (each listed once), from wherever that cycle's
    stream stands, and returns what the same call on each cycle's own
    generator would.
    """

    def __init__(self, seed: int, tag: int, start: int, stop: int):
        self.keys = cycle_keys(seed, tag, np.arange(start, stop))
        n = stop - start
        self.words = philox(self.keys, np.ones(n, dtype=np.uint64))
        self.filled = np.full(n, 4)  # words computed per cycle
        self.pos = np.zeros(n, dtype=np.int64)  # next word per cycle
        self.half = np.zeros(n, dtype=np.uint64)  # a kept high half
        self.has_half = np.zeros(n, dtype=bool)

    def __len__(self) -> int:
        return len(self.pos)

    def _next(self, cycles: np.ndarray) -> np.ndarray:
        """Each listed cycle's next 64-bit word, computing its next block
        when it has used up the ones it has."""
        pos = self.pos[cycles]
        self.pos[cycles] = pos + 1
        late = pos >= self.filled[cycles]
        if late.any():
            rows = cycles[late]
            block = self.filled[rows] // 4
            short = 4 * (int(block.max()) + 1) - self.words.shape[1]
            if short > 0:
                self.words = np.pad(self.words, ((0, 0), (0, short)))
            cols = 4 * block[:, None] + np.arange(4)
            self.words[rows[:, None], cols] = philox(self.keys[rows], block + 1)
            self.filled[rows] += 4
        return self.words[cycles, pos]

    def random(self, cycles: np.ndarray) -> np.ndarray:
        """One `random()` per listed cycle."""
        return (self._next(cycles) >> np.uint64(11)) * (1.0 / 9007199254740992.0)

    def _uint32(self, cycles: np.ndarray) -> np.ndarray:
        """One buffered 32-bit draw per listed cycle: a kept high half, or a
        fresh word's low half, keeping its high half."""
        out = self.half[cycles]
        fresh = ~self.has_half[cycles]
        self.has_half[cycles] = fresh
        rows = cycles[fresh]
        words = self._next(rows)
        out[fresh] = words & _LOW
        self.half[rows] = words >> _HALF
        return out

    def integers(self, cycles: np.ndarray, n: int) -> np.ndarray:
        """One `integers(n)` per listed cycle, for 1 <= n < 2**32: Lemire's
        multiply-shift of a 32-bit draw, drawing again while the product's
        low half is under (2**32 - n) % n. A one-value range draws nothing."""
        if not 1 <= n <= _MASK32:
            raise ValueError(f"integers bound must be in [1, 2**32), got {n}")
        out = np.zeros(len(cycles), dtype=np.int64)
        threshold = (_MASK32 + 1 - n) % n
        todo = np.arange(len(cycles) if n > 1 else 0)
        while todo.size:
            product = self._uint32(cycles[todo]) * np.uint64(n)
            out[todo] = product >> _HALF
            todo = todo[product & _LOW < threshold]
        return out


def cycle_draws(seed: int, tag: int, n: int) -> Iterator[CycleDraws]:
    """The draws of cycles 0 .. n-1 in chunks of `CHUNK` cycles, in order."""
    for start in range(0, n, CHUNK):
        yield CycleDraws(seed, tag, start, min(start + CHUNK, n))
