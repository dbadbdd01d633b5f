"""Counter-based random streams for bit-reproducible experiments.

Every stochastic operation in the package draws from an explicit stream
handle. Streams are Philox generators keyed by a tuple of integers, so a
(seed, purpose, index) key always reproduces the same draws regardless of
what any other stream consumed.

`stream(*key)` hashes its key with numpy's `SeedSequence` into the 128-bit
Philox key. A session draws from one stream per cycle, `(seed, SESSION_TAG,
k)`; `CycleDraws` gives those draws for a chunk of (seed, k) cycles of one
or many sessions at a time, with no generator per cycle. It computes the
chunk's keys in one vectorized pass of the `SeedSequence` hash (a fixed
mixing function of 32-bit words, with numpy's constants and pool size) per
seed word count, and every block each cycle reserves in one pass of
Philox4x64-10: Philox output is a pure function of key and counter (Salmon
et al., SC'11), and a fresh generator's block j is the one at counter j + 1.
The blocks are a table read by position; the pass holds 176 bytes per row
for the 32 it returns: 11 arrays of two words a row. numpy's `Generator`
decodes `random()` from one 64-bit word w as (w >> 11) * 2**-53, and
`integers(n)` by Lemire's bounded draw on 32-bit halves, a fresh word's low
half first and its high half kept for the next `integers` (`random()` skips
that buffer). So when no half is rejected, the word and half each draw reads
are fixed by the draws before it. A cycle whose draws meet a half Lemire's
rule rejects (a half is, with probability at most 31 / 2**32 at bounds up to
32) is re-drawn in full from its own `stream`.

A run's message and scoring draws are one `stream(seed, tag).integers(n,
size=m)` each; `run_integers` makes them for many runs at once. For the runs
of few draws, the keys come from the same hash pass without the cycle word
and the first blocks from one `philox` pass, decoded by the same Lemire rule.
A run whose prefix holds too few kept halves, or that needs more draws than
a prefix holds, draws all of them from its own `stream`, so a long run keeps
numpy's speed and memory.
"""

from __future__ import annotations

from functools import lru_cache

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

# Philox blocks per run that `run_integers` computes in one pass at most: a
# run of more draws than they hold (8 halves a block) draws from its own stream.
PREFIX_BLOCKS = 16

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


def cycle_keys(seeds, tag: int, ks=None) -> np.ndarray:
    """The Philox keys of `stream(seed, tag, k)`, that is
    `SeedSequence((seed, tag, k)).generate_state(2, np.uint64)`, for each k in
    `ks` (below 2**32) and its seed in `seeds` (one int, or one per k; an
    integer array, or of object dtype for ints of any size), as a (len(ks), 2)
    uint64 array; without `ks`, those of `stream(seed, tag)`, one per seed.
    Seeds of as many 32-bit words hash together."""
    seeds = seeds if isinstance(seeds, np.ndarray) else np.asarray(seeds, dtype=object)
    cycle = ks is not None  # a cycle word ends the entropy
    ks = np.asarray(ks if cycle else np.zeros(seeds.size), dtype=np.int64).reshape(-1)
    seeds = np.broadcast_to(seeds if cycle else seeds.reshape(-1), ks.shape)
    if tag < 0 or (ks.size and seeds.min() < 0):
        raise ValueError(f"stream key must be non-negative, got seed {seeds.min()} and tag {tag}")
    if ks.size and not (0 <= ks.min() and ks.max() <= _MASK32):
        raise ValueError("cycle index must be in [0, 2**32)")
    width, top, bound = np.ones(ks.size, dtype=np.int64), 1, _MASK32  # 32-bit words per seed, and most
    while (wide := seeds > bound).any():
        width, top, bound = width + wide, top + 1, bound << 32 | _MASK32
    suffix = _words(int(tag))
    keys = np.empty((ks.size, 2), dtype=np.uint64)
    for n_words in range(1, top + 1):  # a class may be empty
        cols = np.flatnonzero(width == n_words) if top > 1 else slice(None)
        rest, n_entropy = seeds[cols], n_words + len(suffix) + cycle
        entropy = np.zeros((max(n_entropy, _POOL_SIZE), len(rest)), dtype=np.uint32)
        for row in range(n_words - 1):
            entropy[row], rest = rest & _MASK32, rest >> 32
        entropy[n_words - 1] = rest
        entropy[n_words : n_words + len(suffix)] = np.array(suffix, dtype=np.uint32)[:, None]
        if cycle:
            entropy[n_entropy - 1] = ks[cols]
        keys[cols] = _seed_sequence_keys(entropy, n_entropy)
    return keys


def _seed_sequence_keys(entropy: np.ndarray, n_entropy: int) -> np.ndarray:
    """Each column's `SeedSequence(first n_entropy words).generate_state(2, np.uint64)`."""
    pool = _POOL_SIZE
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
    key = np.array(np.asarray(keys, dtype=np.uint64).T, order="C")  # (2, n), like each lane pair below
    shape = key.shape
    # Lane constants at full shape, the key contiguous (a ufunc that broadcasts
    # a column or mixes strides is slower, and may buffer) and ~190 results in
    # four buffers made once: 11 (2, n) arrays in all, 176 bytes a row.
    bump = np.broadcast_to(_PHILOX_W, shape).copy()
    mult = np.broadcast_to(_PHILOX_M, shape).copy()
    m_lo, m_hi = mult & _LOW, mult >> _HALF
    even = np.zeros(shape, dtype=np.uint64)  # lanes 0 and 2
    even[0] = counters
    odd = np.zeros(shape, dtype=np.uint64)  # lanes 1 and 3
    a, b, hl, cross = np.empty((4, *shape), dtype=np.uint64)
    for r in range(_PHILOX_ROUNDS):
        if r:
            np.add(key, bump, out=key)
        # hi and lo words of mult * even, from 32-bit limbs; cross < 2**64
        np.bitwise_and(even, _LOW, out=a)  # a, b: even's limbs, then their products
        np.right_shift(even, _HALF, out=b)
        np.multiply(m_hi, a, out=hl)
        np.multiply(m_lo, a, out=a)
        np.right_shift(a, _HALF, out=cross)
        np.add(cross, np.bitwise_and(hl, _LOW, out=a), out=cross)
        np.add(cross, np.multiply(m_lo, b, out=a), out=cross)
        np.multiply(m_hi, b, out=b)  # b: the hi word from here
        np.add(b, np.right_shift(hl, _HALF, out=a), out=b)
        np.add(b, np.right_shift(cross, _HALF, out=a), out=b)
        np.multiply(mult, even, out=a)  # a: the lo word, wrapping
        # lane 0 takes lane 2's product and lane 2 lane 0's
        np.bitwise_xor(b, odd[::-1], out=even[::-1])
        np.bitwise_xor(even, key, out=even)
        odd[:] = a[::-1]
    del bump, mult, m_lo, m_hi, a, b, hl, cross  # freed before the (n, 4) table is made
    return np.stack((even, odd), axis=1).reshape(4, -1).T


def run_integers(seeds, tag: int, n, sizes) -> np.ndarray:
    """`stream(seed, tag).integers(n, size=m)` for each run's seed, bound n
    (1 <= n < 2**32) and size m, concatenated in run order; `seeds` and `n`
    are one for every run or one per run.

    A run of m at most 8 * PREFIX_BLOCKS (8 halves a block) is short. The
    short runs' keys come from one `cycle_keys` pass, and their first blocks
    from one `philox` pass, read as numpy's Generator reads them, in 32-bit
    halves, a word's low half first: a half h is kept iff
    (h n mod 2**32) >= (2**32 - n) mod n, and then draws (h n) >> 32
    (Lemire's rule), so a run's draws are its kept halves in order. A short
    run with fewer kept halves than m, and a longer run, draw from their own
    `stream`, whose one key costs less than a share of the passes.
    """
    sizes = np.asarray(sizes, dtype=np.int64).reshape(-1)
    bound = np.broadcast_to(np.asarray(n, dtype=np.int64), sizes.shape)
    if bound.size and not (1 <= bound.min() and bound.max() <= _MASK32):
        raise ValueError(f"integers bound must be in [1, 2**32), got {n}")
    seeds = np.broadcast_to(seeds if isinstance(seeds, np.ndarray) else np.asarray(seeds, dtype=object), sizes.shape)
    out, starts = np.zeros(int(sizes.sum()), dtype=np.int64), np.cumsum(sizes) - sizes
    drawn = (sizes > 0) & (bound > 1)  # a one-value range draws nothing
    short = np.flatnonzero(drawn & (sizes <= 8 * PREFIX_BLOCKS))
    made = np.zeros(len(sizes), dtype=np.int64)
    if short.size:
        width = -(-int(sizes[short].max()) // 8)  # the prefix's blocks
        keys = np.repeat(cycle_keys(seeds[short], tag), width, axis=0)
        words = philox(keys, np.tile(np.arange(1, width + 1, dtype=np.uint64), len(short)))
        halves = np.stack((words & _LOW, words >> _HALF), axis=-1).reshape(len(short), -1)
        n_run = bound[short, None].astype(np.uint64)
        product = halves * n_run
        kept = (product & _LOW) >= (np.uint64(_MASK32 + 1) - n_run) % n_run
        rank = np.cumsum(kept, axis=1)  # draws made up to each half
        taken = kept & (rank <= sizes[short, None])
        out[(starts[short, None] + rank - 1)[taken]] = (product >> _HALF)[taken]
        made[short] = rank[:, -1]
    for run in np.flatnonzero(drawn & (made < sizes)).tolist():
        out[starts[run] : starts[run] + sizes[run]] = stream(int(seeds[run]), tag).integers(bound[run], size=sizes[run])
    return out


def blocks(calls) -> int:
    """The Philox blocks a cycle stream's draws `calls` read when no half is
    rejected: `random()` is None in `calls`, `integers(n)` an int n."""
    return -(-_positions(tuple(calls))[1] // 4)


@lru_cache(maxsize=None)
def _positions(calls: tuple) -> tuple:
    """Where each draw of `calls`, made from a fresh cycle stream, reads when
    no half is rejected, as (word, shift, n) per draw, and the words read in
    all: `random()` reads word `word` whole (shift None); `integers(n)` the
    half of word `word` at `shift` (None for n = 1, which reads nothing)."""
    out, word, kept = [], 0, None  # kept: the word whose high half is kept
    for n in calls:
        if n is None:
            out.append((word, None, None))
            word += 1
        elif not 1 <= n <= _MASK32:
            raise ValueError(f"integers bound must be in [1, 2**32), got {n}")
        elif n == 1:
            out.append((None, None, n))
        elif kept is not None:
            out.append((kept, _HALF, n))
            kept = None
        else:
            out.append((word, np.uint64(0), n))
            kept, word = word, word + 1
    return tuple(out), word


class CycleDraws:
    """A reserved table of the words of `stream(seed, tag, k)` for one
    chunk's cycles, read by position: k from `ks`, the seed from `seeds` and
    the Philox blocks reserved from `blocks` (each one for every cycle, or
    one per cycle; `blocks(calls)` counts a call list's).

    The keys take one `cycle_keys` pass and every reserved block one `philox`
    pass, cycle c's blocks being the consecutive rows from `first[c]`. Cycles
    are named by their position in the chunk. `read` takes each draw from the word and
    half that the draws before it fix (`_positions`). A cycle whose draws,
    or those made before them, meet a half Lemire's rule rejects is re-drawn
    in full from its own `stream` (`_rejected` tells which), so every draw
    is the generator's. Reading past a listed cycle's reserved words raises
    a ValueError.
    """

    def __init__(self, seeds, tag: int, ks, blocks):
        self.tag, self.ks = tag, np.asarray(ks, dtype=np.int64).reshape(-1)
        n = len(self.ks)
        self.seeds = np.broadcast_to(seeds if isinstance(seeds, np.ndarray) else np.asarray(seeds, dtype=object), n)
        self.blocks = np.broadcast_to(np.asarray(blocks, dtype=np.int64), n)
        self.least = int(self.blocks.min(initial=_MASK32))  # every cycle holds the words below 4 * least
        self.first = np.cumsum(self.blocks) - self.blocks  # each cycle's first row
        counters = np.arange(1, self.blocks.sum() + 1, dtype=np.uint64) - np.repeat(self.first.astype(np.uint64), self.blocks)
        self.words = philox(np.repeat(cycle_keys(self.seeds, tag, self.ks), self.blocks, axis=0), counters)

    def read(self, calls: tuple, cycles: np.ndarray, after: tuple = ()) -> list:
        """The draws `calls` of the listed cycles' streams (None: `random()`,
        n: `integers(n)` for 1 <= n < 2**32), each made after the draws
        `after`, as a column per call, in order."""
        plan, used = _positions(after + calls)
        if used > 4 * self.least and len(cycles) and used > 4 * self.blocks[cycles].min():
            raise ValueError(f"the draws read {used} words, past a listed cycle's reserved blocks")
        rows = self.first[cycles]
        out, checked = [], []  # checked: (half times n, n) of each draw Lemire's rule may reject
        for i, (word, shift, n) in enumerate(plan):
            asked = i >= len(after)
            if word is None:  # integers(1) reads nothing
                if asked:
                    out.append(np.zeros(len(cycles), dtype=np.int64))
                continue
            threshold = 0 if shift is None else (_MASK32 + 1 - n) % n
            if not (asked or threshold):  # an earlier draw with nothing to check
                continue
            words = self.words[rows + word // 4, word % 4]
            if shift is None:
                out.append((words >> np.uint64(11)) * (1.0 / 9007199254740992.0))
                continue
            product = (words >> shift & _LOW) * np.uint64(n)
            if threshold:
                checked.append((product, n))
            if asked:
                out.append((product >> _HALF).astype(np.int64))
        for i in np.flatnonzero(self._rejected(cycles, checked)).tolist():
            c = cycles[i]
            gen = stream(int(self.seeds[c]), self.tag, int(self.ks[c]))
            for n in after:
                gen.random() if n is None else gen.integers(n)
            for column, n in zip(out, calls):
                column[i] = gen.random() if n is None else gen.integers(n)
        return out

    def _rejected(self, cycles: np.ndarray, checked: list) -> np.ndarray:
        """Which listed cycles meet a half that Lemire's rule rejects, given
        each (product, n) of `checked`, an `integers(n)` draw's 32-bit half
        times n per cycle: one whose low half is under (2**32 - n) % n."""
        rejected = np.zeros(len(cycles), dtype=bool)
        for product, n in checked:
            rejected |= product & _LOW < np.uint64((_MASK32 + 1 - n) % n)
        return rejected
