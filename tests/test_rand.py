import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oracles
from oracles import CycleStream, draw_message
from conftest import qubit_cfg
from pingpong import rand
from pingpong.attacks import cnot_attack
from pingpong.cli import draw_messages
from pingpong.control import two_basis_control
from pingpong.protocol import MAX_CYCLES
from pingpong.session import run_session
from pingpong.rand import (
    CHUNK,
    MESSAGE_TAG,
    PDET_TAG,
    SCORE_TAG,
    SEED_BOUND,
    SESSION_TAG,
    CycleDraws,
    below,
    blocks,
    stream,
    uniform,
    words,
)

TAGS = (SESSION_TAG, PDET_TAG, SCORE_TAG, MESSAGE_TAG)

# Seeds that fill one, two and three counter words, each side of a word boundary.
SEEDS = (0, 2**64 - 1, 2**64, 2**128 + 3, 2**192 - 1)


def philox(seed, tag, start=0):
    """numpy's Philox of stream (seed, tag) at block `start`, built from its
    key and counter."""
    key = np.random.SeedSequence((tag,)).generate_state(2, np.uint64)
    counter = [start, seed % 2**64, seed >> 64 & 2**64 - 1, seed >> 128]
    return np.random.Philox(key=key, counter=np.array(counter, dtype=np.uint64))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("tag", TAGS)
def test_words_are_numpys_philox_at_the_seeds_counter(seed, tag):
    got = words(seed, tag, 0, 13)
    assert got.dtype == np.uint64 and got.shape == (13,)
    np.testing.assert_array_equal(got, philox(seed, tag).random_raw(13))
    np.testing.assert_array_equal(got, stream(seed, tag).bit_generator.random_raw(13))
    for start in (1, 7, MAX_CYCLES * 2):
        np.testing.assert_array_equal(words(seed, tag, start, 9), philox(seed, tag, start).random_raw(9))


@pytest.mark.parametrize("seed", SEEDS)
def test_consecutive_reads_equal_one_read(seed):
    """Reads of whole blocks one after another give the words of one read
    over them all, and block `start` is word 4 * start of the stream."""
    whole = words(seed, SESSION_TAG, 3, 40)
    parts = [words(seed, SESSION_TAG, 3, 12), words(seed, SESSION_TAG, 6, 28)]
    np.testing.assert_array_equal(np.concatenate(parts), whole)
    np.testing.assert_array_equal(words(seed, SESSION_TAG, 0, 52)[12:], whole)
    # a stream generator is not disturbed by reads in between
    gen = stream(seed, SCORE_TAG)
    first = gen.bit_generator.random_raw(4)
    words(seed + 1 if seed < SEED_BOUND - 1 else 0, SCORE_TAG, 0, 8)
    np.testing.assert_array_equal(np.concatenate([first, gen.bit_generator.random_raw(4)]), words(seed, SCORE_TAG, 0, 8))


def test_distinct_seeds_and_tags_give_distinct_words():
    pairs = [(seed, tag) for seed in (*SEEDS, 1, 2, 2**64 + 1) for tag in TAGS]
    firsts = {tuple(words(seed, tag, 0, 4).tolist()) for seed, tag in pairs}
    assert len(firsts) == len(pairs)
    # a seed's stream at a later block is not another seed's start
    assert words(1, SESSION_TAG, 1, 4).tolist() != words(2, SESSION_TAG, 0, 4).tolist()


@pytest.mark.parametrize("bad", [-1, SEED_BOUND, 2**200])
def test_seeds_outside_the_counter_are_refused(bad):
    with pytest.raises(ValueError, match="seed"):
        words(bad, SESSION_TAG, 0, 4)
    with pytest.raises(ValueError, match="seed"):
        stream(bad, PDET_TAG)
    for start in (-1, 2**64):
        with pytest.raises(ValueError, match="position"):
            words(1, SESSION_TAG, start, 4)


@pytest.mark.parametrize("seed", SEEDS)
def test_decoding_reads_one_whole_word_a_draw(seed):
    """A uniform is numpy's `random()` of the same word, (w >> 11) * 2**-53;
    an integer below n is ((w >> 32) * n) >> 32, computed here in plain
    Python."""
    raw = words(seed, SCORE_TAG, 0, 64)
    np.testing.assert_array_equal(uniform(raw), stream(seed, SCORE_TAG).random(64))
    for n in (1, 2, 3, 32, 2**31 + 1, 2**32 - 1):
        got = below(raw.copy(), n)
        assert got.dtype == np.int64
        assert got.tolist() == [(w >> 32) * n >> 32 for w in raw.tolist()]
    for n in (0, 2**32):
        with pytest.raises(ValueError):
            below(raw.copy(), n)


@pytest.mark.parametrize("n", [2, 3, 5, 7, 32, 1000, 2**31 + 1, 2**32 - 1])
def test_each_integer_takes_the_high_halves_of_one_interval(n):
    """Value v is drawn from the high halves h in [ceil(v 2**32 / n),
    ceil((v + 1) 2**32 / n)): floor(2**32 / n) or one more of the 2**32, so
    its probability is within 2**-32 of 1/n. Checked at each end of the
    first, middle and last intervals."""
    for v in sorted({0, n // 2, n - 1}):
        lo, hi = -(-v * 2**32 // n), -(-(v + 1) * 2**32 // n)
        assert hi - lo in (2**32 // n, 2**32 // n + 1)
        ends = np.array([lo << 32, (lo << 32) | 0xFFFFFFFF, (hi - 1) << 32, ((hi - 1) << 32) | 0xFFFFFFFF], dtype=np.uint64)
        assert below(ends, n).tolist() == [v] * 4
        if hi < 2**32:
            assert below(np.array([hi << 32], dtype=np.uint64), n).tolist() == [v + 1]


def test_uniforms_lie_in_the_unit_interval():
    ends = np.array([0, 2**11 - 1, 2**11, 2**64 - 1], dtype=np.uint64)
    assert uniform(ends).tolist() == [0.0, 0.0, 2.0**-53, 1.0 - 2.0**-53]


@pytest.mark.parametrize("dtype", [np.int64, np.uint64, np.int32])
def test_integer_seeds_of_any_type_read_the_same_words(dtype):
    for seed in (0, 5, np.iinfo(dtype).max):
        np.testing.assert_array_equal(words(dtype(seed), MESSAGE_TAG, 2, 8), words(int(seed), MESSAGE_TAG, 2, 8))


def test_words_read_from_threads_are_each_streams_own():
    """`words` shares one bit generator, so threads that read at once, with
    the interpreter switching threads every microsecond, must still each
    get their own stream's words."""
    want = {seed: words(seed, SESSION_TAG, seed, 12).tolist() for seed in range(6)}
    got, interval = {seed: [] for seed in want}, sys.getswitchinterval()

    def read(seed):
        for _ in range(300):
            got[seed].append(words(seed, SESSION_TAG, seed, 12).tolist())

    threads = [threading.Thread(target=read, args=(seed,)) for seed in want]
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(got[seed] == [want[seed]] * 300 for seed in want)


def test_importing_the_package_does_not_import_numpy_random():
    """numpy.random takes ~12 ms to import, paid by the first draw and not
    by a process that only imports the package or builds handles."""
    code = "import sys, pingpong.cli, pingpong.session; print('numpy.random' in sys.modules)"
    src = str(Path(rand.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.split() == ["False"]


def test_each_stream_generator_is_its_own():
    """Two generators of `stream` and a `words` call in between do not share
    a state."""
    first, second = stream(1, PDET_TAG), stream(2, PDET_TAG)
    words(3, PDET_TAG, 0, 4)
    np.testing.assert_array_equal(first.bit_generator.random_raw(4), words(1, PDET_TAG, 0, 4))
    np.testing.assert_array_equal(second.bit_generator.random_raw(4), words(2, PDET_TAG, 0, 4))


def _reference(seeds, ks, width, calls):
    """Each cycle's draws `calls` from its own `CycleStream`."""
    out = []
    for seed, k, b in zip(seeds, ks, width):
        rng = CycleStream(int(seed), int(k), int(b))
        out.append([rng.random() if n is None else rng.integers(n) for n in calls])
    return out


def _chunk_draws(draws, calls, n):
    """The same draws from a `CycleDraws`, all cycles per read: one read per
    call, after the calls before it, and one read of them all."""
    cycles = np.arange(n)
    one_by_one = [draws.read(calls[i:i + 1], cycles, calls[:i])[0] for i in range(len(calls))]
    at_once = draws.read(calls, cycles)
    assert all(a.dtype == b.dtype and a.tolist() == b.tolist() for a, b in zip(one_by_one, at_once))
    return np.array(at_once, dtype=object).T.tolist()


# None is a uniform, an int n an integer below n.
MIXED_CALLS = [
    (3, None, 3),
    (None, 2, 2, None, 5, 5, 5),
    (2**31 + 1, None, 2**31 + 1, 2**31 + 1, None, 3),
    (1, None, 1, 7, None),
    (None,) * 6 + (4, None),  # a second block for every cycle
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("calls", MIXED_CALLS)
def test_chunk_reads_equal_each_cycles_own_decode(calls, monkeypatch):
    """A chunk of sessions one after another, as `run_sessions` lays them
    out: seeds on both sides of each counter word boundary, the cycles of
    one seed across a chunk edge, and block counts of one to three, mixed
    within a chunk. Each session takes one `words` call, also where two of
    one seed and block count follow each other."""
    lengths = (3, 40, 1, 25, 12, 9, 5, 6)
    seeds = np.repeat(np.array([*SEEDS, 7, 7, 7], dtype=object), lengths)
    starts = (CHUNK - 20, CHUNK - 20, 0, MAX_CYCLES - 25, 5, 0, 20, 14)
    ks = np.concatenate([np.arange(s, s + n) for s, n in zip(starts, lengths)])
    width = np.repeat([blocks(calls), blocks(calls) + 1, blocks(calls) + 2, blocks(calls), blocks(calls) + 1,
                       blocks(calls), blocks(calls), blocks(calls)], lengths)
    made = []
    monkeypatch.setattr(rand, "words", lambda *args: made.append(args[0]) or words(*args))
    got = _chunk_draws(CycleDraws(seeds, SESSION_TAG, ks, width), calls, len(ks))
    assert made == [*SEEDS, 7, 7, 7]
    assert got == _reference(seeds, ks, width, calls)
    # a seed given once for every cycle, and integer seed arrays, read the same words
    one = _chunk_draws(CycleDraws(5, SESSION_TAG, np.arange(30), blocks(calls)), calls, 30)
    assert one == _reference([5] * 30, range(30), [blocks(calls)] * 30, calls)
    numeric = CycleDraws(np.full(30, 5, dtype=np.int64), SESSION_TAG, np.arange(30), blocks(calls))
    assert _chunk_draws(numeric, calls, 30) == one


def test_draws_for_subsets_advance_only_those_cycles():
    """Each cycle's draws stand where its own calls left them: a read gives
    the draws made after the ones it names."""
    n = 30
    draws = CycleDraws(9, SESSION_TAG, np.arange(n), 1)
    evens, odds = np.arange(0, n, 2), np.arange(1, n, 2)
    [first] = draws.read((6,), evens)
    [second] = draws.read((None,), odds)
    [third_even] = draws.read((6,), evens, (6,))
    [third_odd] = draws.read((6,), odds, (None,))
    for k in range(n):
        rng = CycleStream(9, k, 1)
        if k % 2 == 0:
            assert (first[k // 2], third_even[k // 2]) == (rng.integers(6), rng.integers(6))
        else:
            assert (second[k // 2], third_odd[k // 2]) == (rng.random(), rng.integers(6))


def test_integers_bound_is_checked():
    draws = CycleDraws(1, SESSION_TAG, np.arange(2), 1)
    for n in (0, 2**32):
        with pytest.raises(ValueError):
            draws.read((n,), np.arange(2))


@pytest.mark.parametrize("width", [1, 2, 3])
def test_a_cycle_reads_exactly_its_reserved_words(width):
    """A cycle of `width` blocks reads 4 * width draws, whether in one read
    or after earlier ones, and not one more."""
    draws = CycleDraws(2**64, SESSION_TAG, np.arange(3), width)
    cycles = np.arange(3)
    assert len(draws.read((None,) * 4 * width, cycles)) == 4 * width
    assert len(draws.read((5,), cycles, (None,) * (4 * width - 1))) == 1
    with pytest.raises(ValueError, match="reserved"):
        draws.read((5,), cycles, (None,) * 4 * width)
    with pytest.raises(ValueError, match="reserved"):
        draws.read((None,) * (4 * width + 1), cycles[:1])


def test_reads_stay_within_the_reserved_blocks():
    """Draws past a listed cycle's reserved words are refused, not read from
    its neighbour's; an unlisted cycle's reservation does not count."""
    draws = CycleDraws(1, SESSION_TAG, np.arange(4), [1, 2, 1, 2])
    assert blocks((None,) * 5) == 2 and blocks((3,) * 4) == 1 and blocks(()) == 0
    assert len(draws.read((None,) * 5, np.array([1, 3]))) == 5
    with pytest.raises(ValueError, match="reserved"):
        draws.read((None,), np.array([1, 2]), (None,) * 4)
    rng = CycleStream(1, 0, 1)  # so does the reference, past its four words
    [rng.random() for _ in range(4)]
    with pytest.raises(ValueError, match="reserved"):
        rng.integers(3)


def test_an_empty_chunk_reads_nothing():
    draws = CycleDraws(np.zeros(0, dtype=np.int64), SESSION_TAG, [], 1)
    assert draws.words.shape == (0,)
    assert [column.tolist() for column in draws.read((None, 3), np.zeros(0, dtype=np.intp))] == [[], []]


def _traced_peak(run):
    """The tracemalloc peak of `run()` after one untraced call, in bytes."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cycle_draws_build_peaks_under_120_bytes_a_cycle():
    """A full chunk of one block a cycle: the 32-byte table it keeps, the
    run's words it is joined from and the cycles' int64 index arrays
    (~90 bytes a cycle)."""
    ks = np.arange(CHUNK)
    assert _traced_peak(lambda: CycleDraws(3, SESSION_TAG, ks, 1)) < 120 * CHUNK


def test_run_session_makes_no_stream_call(monkeypatch):
    """A session reads words only; the generator `stream` builds is for
    detection's binomial draw."""
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
    assert oracles.stepwise_session(cfg, message, eve, control) == oracles.records(transcript)
    assert calls == []


MESSAGES = [(2, 0, 1), (2, 1, 7), (3, 63, 2**33), (32, 64, 5), (5, 1000, 2**64 + 1)]


def test_messages_drawn_together_are_each_runs_own():
    dims, lengths, seeds = zip(*MESSAGES)
    together = draw_messages(dims, lengths, seeds)
    assert [m.tolist() for m in together] == [draw_message(*run).tolist() for run in MESSAGES]
    assert draw_messages([], [], []) == []


@pytest.mark.parametrize("dim,length,seed", MESSAGES)
def test_draw_message_is_the_message_streams_pairs(dim, length, seed):
    """Pair i is words 2i and 2i + 1 of the message stream, decoded below dim."""
    raw = philox(seed, MESSAGE_TAG).random_raw(2 * length).tolist()
    want = np.array([(w >> 32) * dim >> 32 for w in raw], dtype=np.int64).reshape(-1, 2)
    np.testing.assert_array_equal(draw_message(dim, length, seed), want)
