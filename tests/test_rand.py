import sys

import numpy as np
import pytest

import oracles
from conftest import qubit_cfg
from pingpong.attacks import cnot_attack
from pingpong.control import two_basis_control
from pingpong.protocol import MAX_CYCLES, run_session
from pingpong.rand import (
    CHUNK,
    MESSAGE_TAG,
    PDET_TAG,
    SCORE_TAG,
    SESSION_TAG,
    CycleDraws,
    cycle_draws,
    cycle_keys,
    philox,
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


def _stream_draws(seed, start, stop, calls):
    """Each cycle's draws from its own generator, one per call in order."""
    out = []
    for k in range(start, stop):
        gen = stream(seed, SESSION_TAG, k)
        out.append([gen.random() if n is None else gen.integers(n) for n in calls])
    return np.array(out, dtype=object)


def _chunk_draws(draws, cycles, calls):
    """The same draws from a `CycleDraws`, all cycles per call."""
    return np.array(
        [draws.random(cycles) if n is None else draws.integers(cycles, n) for n in calls],
        dtype=object,
    ).T


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
    draws = CycleDraws(seed, SESSION_TAG, start, stop)
    got = _chunk_draws(draws, np.arange(stop - start), calls)
    assert got.tolist() == _stream_draws(seed, start, stop, calls).tolist()


def test_lemire_rejection_takes_a_second_block_only_where_reached():
    """Under rejection cycles use different numbers of words: only those that
    run past their first block compute a second, and each still equals its
    generator."""
    n = 64
    draws = CycleDraws(5, SESSION_TAG, 0, n)
    calls = (2**31 + 1,) * 4
    got = _chunk_draws(draws, np.arange(n), calls)
    assert got.tolist() == _stream_draws(5, 0, n, calls).tolist()
    words_used = draws.pos
    assert words_used.min() <= 4 < words_used.max()
    np.testing.assert_array_equal(draws.filled, 4 * -(-words_used // 4))


def test_draws_for_subsets_advance_only_those_cycles():
    """Each cycle's stream stands where its own calls left it."""
    n = 30
    draws = CycleDraws(9, SESSION_TAG, 0, n)
    evens, odds = np.arange(0, n, 2), np.arange(1, n, 2)
    first = draws.integers(evens, 6)
    second = draws.random(odds)
    third = draws.integers(np.arange(n), 6)
    for k in range(n):
        gen = stream(9, SESSION_TAG, k)
        if k % 2 == 0:
            assert (first[k // 2], third[k]) == (gen.integers(6), gen.integers(6))
        else:
            assert (second[k // 2], third[k]) == (gen.random(), gen.integers(6))


def test_integers_bound_is_checked():
    draws = CycleDraws(1, SESSION_TAG, 0, 2)
    for n in (0, 2**32):
        with pytest.raises(ValueError):
            draws.integers(np.arange(2), n)


def test_cycle_draws_cover_the_cycles_in_chunks():
    chunks = list(cycle_draws(3, SESSION_TAG, 2 * CHUNK + 5))
    assert [len(d) for d in chunks] == [CHUNK, CHUNK, 5]
    assert list(cycle_draws(3, SESSION_TAG, 0)) == []
    last = chunks[-1].random(np.arange(5))
    assert last.tolist() == [stream(3, SESSION_TAG, 2 * CHUNK + k).random() for k in range(5)]


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
    records = run_session(cfg, message, eve, control)
    assert calls == []
    # the counter sees the reference's one stream per cycle
    assert oracles.stepwise_session(cfg, message, eve, control) == records
    assert calls == [(5, SESSION_TAG, k) for k in range(200)]
