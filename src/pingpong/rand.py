"""Counter-based random streams for bit-reproducible experiments.

Every seeded draw in the package reads numpy's own Philox4x64-10 (Salmon et
al., SC'11), whose output is a pure function of a 128-bit key and a 256-bit
counter, and whose raw words numpy's RNG policy (NEP 19) keeps fixed across
versions. Stream (seed, tag) is the Philox under the tag's key,
`SeedSequence((tag,)).generate_state(2, np.uint64)`, made once per process,
with the seed (below 2**192) in counter words 1-3. Counter word 0
is the position in the stream, in blocks of four 64-bit words, so distinct
(seed, tag) pairs are disjoint streams, none needs a hash of its own, and
any stretch of a stream is read where it lies.

`words(seed, tag, start, n)` reads n words of a stream from block `start`
on; `stream(seed, tag)` is numpy's `Generator` over the same stream from its
start, for detection's one `binomial` draw. Every other draw reads one whole
word w and is decoded here: a uniform in [0, 1) is (w >> 11) * 2**-53, and
an integer below n is ((w >> 32) * n) >> 32, whose every value has
probability within 2**-32 of 1/n (a relative bias below n / 2**32). No draw
is rejected. Session cycle k of a configuration that reserves B blocks a
cycle reads its i-th draw at word i from block k * B of its session stream
(`CycleDraws`); a run's message and scoring draws are the first words of its
message and score streams.
"""

from __future__ import annotations

import threading
from functools import cache

import numpy as np

# Fixed purpose tags for derived streams; part of the reproducibility contract.
SESSION_TAG = 1
PDET_TAG = 2
SCORE_TAG = 3
MESSAGE_TAG = 4

# Seeds fill the three 64-bit counter words above the position.
SEED_BOUND = 2**192

# Cycles whose words are read in one chunk.
CHUNK = 4096

_MASK64 = 2**64 - 1
_EMPTY = np.zeros(4, dtype=np.uint64)
_LOCK = threading.Lock()  # held by `words` from setting the state until its words are read


@cache
def _philox() -> tuple:
    """Each tag's Philox key, and the bit generator whose state `words`
    sets on each call, made on first use: importing numpy.random takes
    ~12 ms, which a process that draws nothing need not pay."""
    keys = {tag: np.random.SeedSequence((tag,)).generate_state(2, np.uint64)
            for tag in (SESSION_TAG, PDET_TAG, SCORE_TAG, MESSAGE_TAG)}
    return keys, np.random.Philox(key=keys[SESSION_TAG])


def _counter(seed: int, start: int) -> np.ndarray:
    """The Philox counter of stream `seed` at block `start`."""
    seed = int(seed)
    if not 0 <= seed < SEED_BOUND:
        raise ValueError(f"seed must be in [0, 2**192), got {seed}")
    if not 0 <= start <= _MASK64:
        raise ValueError(f"stream position must be in [0, 2**64), got {start}")
    return np.array([start, seed & _MASK64, seed >> 64 & _MASK64, seed >> 128], dtype=np.uint64)


def words(seed: int, tag: int, start: int, n: int) -> np.ndarray:
    """Words 4 * start .. 4 * start + n - 1 of stream (seed, tag), as a new
    uint64 array: `random_raw(n)` from counter word 0 = `start`."""
    keys, bits = _philox()
    state = {"bit_generator": "Philox", "state": {"counter": _counter(seed, start), "key": keys[tag]},
             "buffer": _EMPTY, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    with _LOCK:
        bits.state = state
        return bits.random_raw(n)


def stream(seed: int, tag: int) -> np.random.Generator:
    """A generator of its own over stream (seed, tag) from its start."""
    return np.random.Generator(np.random.Philox(key=_philox()[0][tag], counter=_counter(seed, 0)))


def uniform(w: np.ndarray) -> np.ndarray:
    """The uniforms in [0, 1) that words `w` decode to."""
    return (w >> np.uint64(11)) * (1.0 / 9007199254740992.0)


def below(w: np.ndarray, n: int) -> np.ndarray:
    """The integers below n (1 <= n < 2**32) that words `w` decode to, as
    int64, made in `w`'s own memory."""
    if not 1 <= n < 2**32:
        raise ValueError(f"integers bound must be in [1, 2**32), got {n}")
    w >>= np.uint64(32)
    w *= np.uint64(n)
    w >>= np.uint64(32)
    return w.view(np.int64)


def blocks(calls) -> int:
    """The Philox blocks a cycle's draws `calls` read, one word each."""
    return -(-len(calls) // 4)


class CycleDraws:
    """The words of one chunk's session cycles, read by position. Cycle c is
    cycle ks[c] of the session with seed seeds[c] (one int, or one per
    cycle; an integer array, or of object dtype for ints of any size), whose
    configuration reserves blocks[c] Philox blocks a cycle (`blocks(calls)`
    counts a call list's): its words are 4 * blocks[c] of stream (seed, tag)
    from block ks[c] * blocks[c] on. Each run of a session's consecutive
    cycles takes one `words` call. Cycles are named by their position in the
    chunk, and a cycle's i-th draw reads its word i. Reading past a listed
    cycle's reserved words raises a ValueError.
    """

    def __init__(self, seeds, tag: int, ks, blocks):
        ks = np.asarray(ks, dtype=np.int64).reshape(-1)
        seeds = np.broadcast_to(seeds if isinstance(seeds, np.ndarray) else np.asarray(seeds, dtype=object), len(ks))
        self.width = 4 * np.broadcast_to(np.asarray(blocks, dtype=np.int64), len(ks))  # words per cycle
        ends = np.cumsum(self.width)
        self.first = ends - self.width  # each cycle's first word
        new = np.ones(len(ks), dtype=bool)  # where a run of one session's cycles starts
        new[1:] = (ks[1:] != ks[:-1] + 1) | (seeds[1:] != seeds[:-1]) | (self.width[1:] != self.width[:-1])
        runs = np.flatnonzero(new).tolist()
        self.words = np.concatenate([
            words(seeds[a], tag, int(ks[a] * self.width[a]) // 4, int(ends[b - 1] - self.first[a]))
            for a, b in zip(runs, runs[1:] + [len(ks)])
        ] or [_EMPTY[:0]])

    def read(self, calls: tuple, cycles: np.ndarray, after: tuple = ()) -> list:
        """The draws `calls` of the listed cycles (None: a uniform, n: an
        integer below n), each made after the draws `after`, as a column
        per call, in order."""
        if len(cycles) and len(after) + len(calls) > self.width[cycles].min():
            raise ValueError(f"the draws read {len(after) + len(calls)} words, past a listed cycle's reserved blocks")
        first = self.first[cycles] + len(after)
        return [uniform(self.words[first + i]) if n is None else below(self.words[first + i], n)
                for i, n in enumerate(calls)]
