import sys
import tracemalloc

import numpy as np
import pytest

import oracles
from oracles import draw_message
from conftest import qubit_cfg
from pingpong import rand
from pingpong.attacks import cnot_attack
from pingpong.control import two_basis_control
from pingpong.protocol import MAX_CYCLES
from pingpong.session import run_session
from pingpong.rand import (
    CHUNK,
    MESSAGE_TAG,
    PDET_TAG,
    PREFIX_BLOCKS,
    SCORE_TAG,
    SESSION_TAG,
    CycleDraws,
    blocks,
    cycle_keys,
    philox,
    run_integers,
    stream,
)

TAGS = (SESSION_TAG, PDET_TAG, SCORE_TAG, MESSAGE_TAG)


def seed_sequence_key(*key):
    return np.random.SeedSequence(key).generate_state(2, np.uint64)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", [0, 7, 2**31 - 1, 2**32 + 5, 2**70 + 3])
@pytest.mark.parametrize("tag", TAGS)
def test_keys_equal_seed_sequence(seed, tag):
    ks = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, MAX_CYCLES - 1]
    expected = np.array([seed_sequence_key(seed, tag, k) for k in ks])
    got = cycle_keys(seed, tag, ks)
    assert got.dtype == np.uint64 and got.shape == (len(ks), 2)
    np.testing.assert_array_equal(got, expected)


def test_keys_are_the_philox_keys_of_stream():
    key = stream(7, SESSION_TAG, 3).bit_generator.state["state"]["key"]
    np.testing.assert_array_equal(cycle_keys(7, SESSION_TAG, [3])[0], key)


def test_keys_reject_out_of_range_indices():
    with pytest.raises(ValueError):
        cycle_keys(-1, SESSION_TAG, [0])
    with pytest.raises(ValueError):
        cycle_keys(0, SESSION_TAG, [2**32])
    with pytest.raises(ValueError):
        cycle_keys([3, -1], SESSION_TAG, [0, 1])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", [1, 2**32 + 5, 2**70 + 3])
def test_philox_words_equal_random_raw(seed):
    """Blocks 0 and 1 of each cycle's stream, on both sides of a chunk
    boundary and at the largest cycle index."""
    ks = np.array([0, 1, CHUNK - 1, CHUNK, CHUNK + 1, MAX_CYCLES - 1])
    keys = cycle_keys(seed, SESSION_TAG, ks)
    words = np.hstack([philox(keys, np.full(len(ks), block, dtype=np.uint64)) for block in (1, 2)])
    expected = [stream(seed, SESSION_TAG, k).bit_generator.random_raw(8) for k in ks.tolist()]
    np.testing.assert_array_equal(words, expected)


def test_philox_over_a_two_block_chunk_equals_random_raw():
    """One pass over a full chunk's table of two blocks a cycle, laid out as
    `CycleDraws` lays it: rows at the first and last cycles, on both sides of
    the middle row and spread between, each cycle's two blocks together.
    Thousands of rows in one pass catch a scratch buffer that one round
    leaves holding what a later round still reads."""
    ks = np.arange(CHUNK)
    keys = np.repeat(cycle_keys(11, SESSION_TAG, ks), 2, axis=0)
    words = philox(keys, np.tile(np.array([1, 2], dtype=np.uint64), CHUNK)).reshape(CHUNK, 8)
    picked = [0, 1, CHUNK // 2 - 1, CHUNK // 2, *range(97, CHUNK, 331), CHUNK - 2, CHUNK - 1]
    expected = [stream(11, SESSION_TAG, k).bit_generator.random_raw(8) for k in picked]
    np.testing.assert_array_equal(words[picked], expected)


def _traced_peak(run):
    """The tracemalloc peak of `run()` after one untraced call, in bytes."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_philox_peaks_under_200_bytes_a_row():
    """It returns 32 bytes a row, and its rounds hold eleven (2, n) uint64
    arrays, 176 bytes a row; seventeen such arrays took ~305."""
    n = CHUNK
    keys, counters = cycle_keys(3, SESSION_TAG, np.arange(n)), np.ones(n, dtype=np.uint64)
    assert _traced_peak(lambda: philox(keys, counters)) < 200 * n


def test_cycle_draws_build_peaks_under_240_bytes_a_cycle():
    """A full chunk of one block a cycle: its keys, counters and `philox`
    pass beside the table it keeps; ~350 bytes a cycle with seventeen arrays
    in `philox` and an int64 copy of the counters."""
    ks = np.arange(CHUNK)
    assert _traced_peak(lambda: CycleDraws(3, SESSION_TAG, ks, 1)) < 240 * CHUNK


def _stream_draws(seed, start, stop, calls):
    """Each cycle's draws from its own generator, one per call in order."""
    out = []
    for k in range(start, stop):
        gen = stream(seed, SESSION_TAG, k)
        out.append([gen.random() if n is None else gen.integers(n) for n in calls])
    return np.array(out, dtype=object)


def _chunk_draws(draws, cycles, calls):
    """The same draws from a `CycleDraws`, all cycles per read: one read per
    call, after the calls before it, and one read of them all."""
    one_by_one = [draws.read(calls[i:i + 1], cycles, calls[:i])[0] for i in range(len(calls))]
    at_once = draws.read(calls, cycles)
    assert all(a.dtype == b.dtype and a.tolist() == b.tolist() for a, b in zip(one_by_one, at_once))
    return np.array(at_once, dtype=object).T


# None is a `random()` call, an int n an `integers(n)` call. 2**31 + 1 rejects
# about half its 32-bit draws; 1 draws nothing.
MIXED_CALLS = [
    (3, None, 3),
    (None, 2, 2, None, 5, 5, 5),
    (2**31 + 1, None, 2**31 + 1, 2**31 + 1, None, 3),
    (1, None, 1, 7, None),
    (None,) * 6 + (4, None),  # a second block for every cycle
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", [1, 2**32 + 5])
@pytest.mark.parametrize("calls", MIXED_CALLS)
def test_decoded_draws_equal_the_generators(seed, calls):
    start, stop = CHUNK - 40, CHUNK + 40
    draws = CycleDraws(seed, SESSION_TAG, np.arange(start, stop), blocks(calls))
    got = _chunk_draws(draws, np.arange(stop - start), calls)
    assert got.tolist() == _stream_draws(seed, start, stop, calls).tolist()
    # cycles reserving more blocks than they read, one or two more, read the same words
    extra = blocks(calls) + 1 + np.arange(stop - start) % 2
    wide = _chunk_draws(CycleDraws(seed, SESSION_TAG, np.arange(start, stop), extra), np.arange(stop - start), calls)
    assert wide.tolist() == got.tolist()


def _rejecting_cycles(seed, ks, n, halves):
    """The cycles among `ks` whose first `halves` 32-bit halves hold one that
    Lemire's rule rejects for integers(n)."""
    threshold = (2**32 - n) % n
    rejected = []
    for k in ks:
        words = stream(seed, SESSION_TAG, k).bit_generator.random_raw(-(-halves // 2)).tolist()
        firsts = [half for w in words for half in (w & 0xFFFFFFFF, w >> 32)][:halves]
        if any(h * n % 2**32 < threshold for h in firsts):
            rejected.append(k)
    return rejected


def test_lemire_rejection_redraws_exactly_the_cycles_that_meet_it(monkeypatch):
    """Under rejection a cycle's draws leave their fixed halves: exactly the
    cycles whose draws meet a rejected half are re-drawn from their own
    stream, some but not all of them, and each still equals its generator."""
    n, bound = 64, 2**31 + 1
    calls = (bound,) * 4
    redrawn = []

    def recording(*key):
        redrawn.append(key[2])
        return stream(*key)

    monkeypatch.setattr(rand, "stream", recording)
    draws = CycleDraws(5, SESSION_TAG, np.arange(n), blocks(calls))
    got = np.array(draws.read(calls, np.arange(n)), dtype=object).T
    assert got.tolist() == _stream_draws(5, 0, n, calls).tolist()
    assert redrawn == _rejecting_cycles(5, range(n), bound, len(calls))
    assert 0 < len(redrawn) < n
    # a later read re-draws the same cycles: the rejection sits in its earlier draws
    redrawn.clear()
    [later] = draws.read((None,), np.arange(n), calls)
    assert later.tolist() == [row[-1] for row in _stream_draws(5, 0, n, calls + (None,)).tolist()]
    assert redrawn == _rejecting_cycles(5, range(n), bound, len(calls))


def test_draws_for_subsets_advance_only_those_cycles():
    """Each cycle's stream stands where its own calls left it: a read gives
    the draws made after the ones it names."""
    n = 30
    draws = CycleDraws(9, SESSION_TAG, np.arange(n), 1)
    evens, odds = np.arange(0, n, 2), np.arange(1, n, 2)
    [first] = draws.read((6,), evens)
    [second] = draws.read((None,), odds)
    [third_even] = draws.read((6,), evens, (6,))
    [third_odd] = draws.read((6,), odds, (None,))
    for k in range(n):
        gen = stream(9, SESSION_TAG, k)
        if k % 2 == 0:
            assert (first[k // 2], third_even[k // 2]) == (gen.integers(6), gen.integers(6))
        else:
            assert (second[k // 2], third_odd[k // 2]) == (gen.random(), gen.integers(6))


def test_integers_bound_is_checked():
    draws = CycleDraws(1, SESSION_TAG, np.arange(2), 1)
    for n in (0, 2**32):
        with pytest.raises(ValueError):
            draws.read((n,), np.arange(2))


def test_reads_stay_within_the_reserved_blocks():
    """Draws past a listed cycle's reserved words are refused, not read from
    its neighbour's; an unlisted cycle's reservation does not count."""
    draws = CycleDraws(1, SESSION_TAG, np.arange(4), [1, 2, 1, 2])
    assert blocks((None,) * 5) == 2
    assert len(draws.read((None,) * 5, np.array([1, 3]))) == 5
    with pytest.raises(ValueError, match="reserved"):
        draws.read((None,), np.array([1, 2]), (None,) * 4)
    assert blocks((3,) * 8) == 1 and blocks((3,) * 8 + (1, None)) == 2


# Seeds of one, two and three 32-bit words, each side of a word boundary: the
# SeedSequence entropy is one word longer for each.
MIXED_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 3)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tag", TAGS)
def test_keys_with_a_seed_axis_equal_seed_sequence(tag):
    """One call over every (seed, k) pair of mixed word counts, the seeds
    interleaved, at the chunk edges."""
    ks = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, MAX_CYCLES - 1]
    pairs = [(seed, k) for k in ks for seed in MIXED_SEEDS]
    seeds, cycles = zip(*pairs)
    got = cycle_keys(list(seeds), tag, cycles)
    assert got.dtype == np.uint64 and got.shape == (len(pairs), 2)
    np.testing.assert_array_equal(got, [seed_sequence_key(seed, tag, k) for seed, k in pairs])
    # a seed given once keys every index, as a seed per index does
    np.testing.assert_array_equal(cycle_keys(2**32, tag, ks), cycle_keys([2**32] * len(ks), tag, ks))
    # integer arrays take the same path as Python ints
    for dtype, top in ((np.int64, 2**63 - 1), (np.uint64, 2**64 - 1)):
        wide = [0, 1, 2**32 - 1, 2**32, top]
        numeric = cycle_keys(np.repeat(np.array(wide, dtype=dtype), len(ks)), tag, ks * len(wide))
        np.testing.assert_array_equal(numeric, [seed_sequence_key(s, tag, k) for s in wide for k in ks])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("calls", MIXED_CALLS)
def test_draws_over_mixed_seeds_equal_each_seeds_own(calls):
    """A chunk of several seeds' cycles, one seed after another as sessions
    lay them out, draws what each seed's own chunk draws."""
    lengths = (3, 40, 1, 25, 12)
    seeds = np.repeat(np.array(MIXED_SEEDS, dtype=object), lengths)
    ks = np.concatenate([np.arange(CHUNK - 20, CHUNK - 20 + n) for n in lengths])
    mixed = _chunk_draws(CycleDraws(seeds, SESSION_TAG, ks, blocks(calls)), np.arange(len(ks)), calls)
    own = [
        _chunk_draws(CycleDraws(seed, SESSION_TAG, np.arange(CHUNK - 20, CHUNK - 20 + n), blocks(calls)), np.arange(n), calls)
        for seed, n in zip(MIXED_SEEDS, lengths)
    ]
    assert mixed.tolist() == np.concatenate(own).tolist()
    assert mixed[:3].tolist() == _stream_draws(0, CHUNK - 20, CHUNK - 17, calls).tolist()


def test_run_session_makes_no_stream_call(monkeypatch):
    calls = []

    def counting(*key):
        calls.append(key)
        return stream(*key)

    # every binding of `stream` in the package and in the stepwise reference
    for name, module in list(sys.modules.items()):
        if (name.startswith("pingpong") or module is oracles) and vars(module).get("stream") is stream:
            monkeypatch.setattr(module, "stream", counting)
    cfg = qubit_cfg(n_cycles=200, seed=5, control_prob=0.3)
    message = [(k % 2, (k // 2) % 2) for k in range(200)]
    eve, control = cnot_attack(), two_basis_control(cfg)
    transcript = run_session(cfg, message, eve, control)
    assert calls == []
    # the counter sees the reference's one stream per cycle
    assert oracles.stepwise_session(cfg, message, eve, control) == oracles.records(transcript)
    assert calls == [(5, SESSION_TAG, k) for k in range(200)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tag", TAGS)
def test_keys_without_a_cycle_word_are_those_of_stream(tag):
    np.testing.assert_array_equal(
        cycle_keys(list(MIXED_SEEDS), tag), [np.random.SeedSequence((s, tag)).generate_state(2, np.uint64) for s in MIXED_SEEDS]
    )
    np.testing.assert_array_equal(cycle_keys(7, tag), [stream(7, tag).bit_generator.state["state"]["key"]])


# The prefix is 8 halves per block; sizes on both sides of it, and of one block.
PREFIX_HALVES = 8 * PREFIX_BLOCKS
SIZES = (0, 1, 7, 8, 9, 33, PREFIX_HALVES - 1, PREFIX_HALVES, PREFIX_HALVES + 1, 3 * PREFIX_HALVES + 5)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [1, 2, 3, 32, 2**31 + 1])
@pytest.mark.parametrize("seed", [5, 2**32 + 5, 2**64 + 3])
def test_run_integers_equal_the_generators(n, seed):
    """Each size alone, and all of them in one call with a seed each, draw
    what `stream(seed, tag).integers(n, size=m)` draws."""
    for m in SIZES:
        np.testing.assert_array_equal(run_integers([seed], SCORE_TAG, n, [m]), stream(seed, SCORE_TAG).integers(n, size=m))
    seeds = [seed + i for i in range(len(SIZES))]
    want = np.concatenate([stream(s, SCORE_TAG).integers(n, size=m) for s, m in zip(seeds, SIZES)])
    got = run_integers(seeds, SCORE_TAG, n, SIZES)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_run_integers_take_a_bound_per_run():
    seeds, bounds, sizes = [1, 2**40, 3, 2**70], [2, 2**31 + 1, 1, 17], [40, PREFIX_HALVES + 3, 9, 0]
    want = [stream(s, MESSAGE_TAG).integers(n, size=m) for s, n, m in zip(seeds, bounds, sizes)]
    np.testing.assert_array_equal(run_integers(np.array(seeds, dtype=object), MESSAGE_TAG, bounds, sizes), np.concatenate(want))
    assert run_integers([], MESSAGE_TAG, [], []).shape == (0,)
    for bad in (0, 2**32):
        with pytest.raises(ValueError):
            run_integers([1], MESSAGE_TAG, bad, [3])


def test_run_integers_continue_past_a_prefix_that_ends_on_a_rejected_half():
    """At n = 2**31 + 1 about half the halves are rejected. A prefix whose
    last half is rejected ends on no draw: a run of more draws than it made
    draws them all from its stream."""
    n = 2**31 + 1
    threshold = (2**32 - n) % n
    for seed in range(100):
        words = stream(seed, SCORE_TAG).bit_generator.random_raw(4 * PREFIX_BLOCKS)
        halves = np.stack((words & 0xFFFFFFFF, words >> np.uint64(32)), axis=-1).reshape(-1).astype(object)
        kept = [h * n % 2**32 >= threshold for h in halves]
        if not kept[-1]:
            break
    assert not kept[-1] and kept.count(True) < PREFIX_HALVES
    made = kept.count(True)  # the prefix's draws
    for m in (made, made + 1, PREFIX_HALVES, 4 * PREFIX_HALVES):
        np.testing.assert_array_equal(run_integers([seed], SCORE_TAG, n, [m]), stream(seed, SCORE_TAG).integers(n, size=m))


@pytest.mark.parametrize("dim,length,seed", [(2, 0, 1), (2, 1, 7), (3, 63, 2**33), (32, 64, 5), (5, 1000, 2**64 + 1)])
def test_draw_message_is_the_message_streams_pairs(dim, length, seed):
    np.testing.assert_array_equal(draw_message(dim, length, seed), stream(seed, MESSAGE_TAG).integers(0, dim, size=(length, 2)))
