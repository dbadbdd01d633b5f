import sys

import numpy as np
import pytest

import oracles
from conftest import qubit_cfg
from pingpong import rand
from pingpong.attacks import cnot_attack
from pingpong.control import two_basis_control
from pingpong.protocol import MAX_CYCLES, run_session
from pingpong.rand import (
    MESSAGE_TAG,
    PDET_TAG,
    SCORE_TAG,
    SESSION_TAG,
    cycle_keys,
    cycle_streams,
    stream,
)

TAGS = (SESSION_TAG, PDET_TAG, SCORE_TAG, MESSAGE_TAG)
BLOCK = rand._KEY_BLOCK


def seed_sequence_key(*key):
    return np.random.SeedSequence(key).generate_state(2, np.uint64)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", [0, 7, 2**31 - 1, 2**32 + 5, 2**70 + 3])
@pytest.mark.parametrize("tag", TAGS)
def test_keys_equal_seed_sequence(seed, tag):
    ks = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, MAX_CYCLES - 1]
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


@pytest.mark.parametrize("seed", [1, 2**32 + 5])
@pytest.mark.parametrize("dim", [2, 5])
def test_cycle_draws_equal_stream(seed, dim):
    p = np.arange(1, dim + 1) / (dim * (dim + 1) / 2)

    def draws(gen):
        return gen.random(), gen.integers(dim), gen.choice(dim, p=p), gen.integers(dim)

    n = BLOCK + 3
    for k, rng in enumerate(cycle_streams(seed, SESSION_TAG, n)):
        assert draws(rng) == draws(stream(seed, SESSION_TAG, k)), k
    assert k == n - 1


def test_one_generator_is_reused():
    gens = [id(rng) for rng in cycle_streams(3, SESSION_TAG, 5)]
    assert len(set(gens)) == 1 and len(gens) == 5


def test_zero_cycles_yield_nothing():
    assert list(cycle_streams(3, SESSION_TAG, 0)) == []


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
