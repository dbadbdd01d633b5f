"""Counter-based random streams for bit-reproducible experiments.

Every stochastic operation in the package draws from an explicit stream
handle. Streams are Philox generators keyed by a tuple of integers, so a
(seed, purpose, index) key always reproduces the same draws regardless of
what any other stream consumed.

`stream(*key)` hashes its key with numpy's `SeedSequence` into the 128-bit
Philox key. A session draws from one stream per cycle, `(seed, SESSION_TAG,
k)`; `CycleDraws` gives those draws for a chunk of (seed, k) cycles of one or
many sessions at a time, with no generator per cycle. It computes the chunk's
keys in one vectorized pass of the `SeedSequence` hash (a fixed mixing
function of 32-bit words, with numpy's constants and pool size) per seed word
count, and their Philox4x64-10 output words in another: Philox output is a
pure function of key and counter (Salmon et al., SC'11), and a fresh
generator's block j is the one at counter j + 1. Blocks past the first are
computed only for the cycles that reach them. The draws are decoded as
numpy's `Generator` decodes them: `random()` is one 64-bit word w as
(w >> 11) * 2**-53, and `integers(n)` is Lemire's bounded draw on 32-bit
halves, a fresh word's low half first and its high half kept for the next
`integers` (`random()` skips that buffer). Because a word depends on the
counter only, `skip` moves a `stream` generator past draws that nothing reads
by advancing its counter.

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


class CycleDraws:
    """The draws of `stream(seed, tag, k)` for one chunk's cycles, k from `ks`
    and its seed from `seeds` (one int for every cycle, or one per cycle).

    Cycles are named by their position in the chunk. Each call makes one draw
    for every cycle it lists (each listed once), from wherever that cycle's
    stream stands, and returns what the same call on each cycle's own
    generator would.
    """

    def __init__(self, seeds, tag: int, ks):
        self.keys = cycle_keys(seeds, tag, ks)
        n = len(self.keys)
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
