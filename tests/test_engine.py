"""The session engine's branch tree against the per-cycle reference stepper.

`run_session` builds each node of a session's branch tree once and walks
each chunk of cycles through it one level at a time; `oracles.stepwise_session`
evolves fresh state vectors on every cycle. Both draw from the same per-cycle
streams, so the iterated transcript and the errors they raise, with the
cycle that raises them, must be identical. Edge by edge, `protocol.follow`
from a fresh node must give what `oracles.step` gives on the node's state,
and the columnar `cli.score_session` what the record-by-record
`oracles.score_records` gives.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import oracles
from conftest import FixedUniform, rand_family, rand_state, rand_unitary
from pingpong import attacks
from pingpong import control as control_mode
from pingpong import protocol, rand
from pingpong.attacks import generic_coupling
from pingpong.cli import draw_message, score_session
from pingpong.protocol import (
    CoherenceBreakError,
    DrawEdge,
    MeasureEdge,
    ProtocolConfig,
    Transcript,
    UnitaryEdge,
    algebra,
    draw_leg,
    follow,
    run_session,
)
from pingpong.qstate import Basis, Operator, StateVector, SubsystemLayout, born_table, pick
from pingpong.rand import SESSION_TAG, CycleDraws, stream

CYCLES = 100
SEEDS = (1, 2, 99)

# (attack, control, dim, kind)
COUPLINGS = [
    ("none", "computational", 2, "qubit_psi_minus"),
    ("none", "two-basis", 2, "qubit_psi_minus"),
    ("cnot", "computational", 2, "qubit_psi_minus"),
    ("cnot", "two-basis", 2, "qubit_psi_minus"),
    ("pavicic", "computational", 2, "qubit_psi_minus"),
    ("pavicic", "two-basis", 2, "qubit_psi_minus"),
    *[("qudit-shift", "computational", d, "qudit_beta00") for d in range(2, 8)],
    ("generic", "computational", 3, "qudit_beta00"),
]
INTERCEPT_RESEND = [
    ("intercept-resend", "computational", 2, "qubit_psi_minus"),
    ("intercept-resend", "two-basis", 2, "qubit_psi_minus"),
    ("intercept-resend", "computational", 3, "qudit_beta00"),
]


def _setup(case, control_prob, seed, cycles=CYCLES):
    attack, control, dim, kind = case
    cfg = ProtocolConfig(dim=dim, control_prob=control_prob, n_cycles=cycles, seed=seed,
                         initial_state_kind=kind)
    if attack == "generic":
        rng = np.random.default_rng(seed)
        eve = generic_coupling(dim, rand_family(rng, 4, dim), rand_family(rng, 4, dim))
    else:
        eve = attacks.from_name(attack, dim)
    return cfg, eve, control_mode.from_name(control, cfg)


def _result(session, cfg, message, eve, mode):
    """The transcript's records, or the type and message of the error raised."""
    try:
        return list(session(cfg, message, eve, mode))
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)


def _both(cfg, message, eve, mode):
    engine = _result(run_session, cfg, message, eve, mode)
    assert engine == _result(oracles.stepwise_session, cfg, message, eve, mode)
    return engine


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("control_prob", (0.0, 0.25, 1.0))
@pytest.mark.parametrize("case", COUPLINGS, ids=lambda c: f"{c[0]}-{c[1]}-d{c[2]}")
def test_coupling_transcripts_match_stepper(case, control_prob, seed):
    cfg, eve, mode = _setup(case, control_prob, seed)
    records = _both(cfg, draw_message(cfg.dim, CYCLES, seed), eve, mode)
    assert len(records) == CYCLES


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", INTERCEPT_RESEND, ids=lambda c: f"{c[1]}-d{c[2]}")
def test_all_control_intercept_resend_matches_stepper(case, seed):
    cfg, eve, mode = _setup(case, 1.0, seed)
    records = _both(cfg, [], eve, mode)
    assert len(records) == CYCLES


@pytest.mark.parametrize("seed", SEEDS)
def test_intercept_resend_message_cycle_raises_the_same_error(seed):
    cfg, eve, mode = _setup(INTERCEPT_RESEND[0], 0.25, seed)
    error = _both(cfg, draw_message(2, CYCLES, seed), eve, mode)
    assert error[0] is CoherenceBreakError and "pair was disturbed" in error[1]


def test_exhausted_message_raises_the_same_error():
    cfg, eve, mode = _setup(COUPLINGS[3], 0.25, 7, cycles=40)
    assert _both(cfg, [(0, 1)] * 5, eve, mode) == (
        ValueError, "message exhausted before the session finished"
    )


@pytest.mark.parametrize("symbols", [(2, 0), (0, -1)])
def test_out_of_range_symbols_raise_the_same_error(symbols):
    cfg, eve, mode = _setup(COUPLINGS[3], 0.25, 7, cycles=40)
    error = _both(cfg, [(0, 0), symbols], eve, mode)
    assert error == (ValueError, f"message symbols {symbols} out of range for dim 2")


# Chunks this short put every session below across several of them.
SMALL_CHUNK = 37


@pytest.mark.parametrize("control_prob", (0.0, 0.25, 1.0))
@pytest.mark.parametrize("case", COUPLINGS + INTERCEPT_RESEND, ids=lambda c: f"{c[0]}-{c[1]}-d{c[2]}")
def test_transcripts_across_chunks_match_stepper(case, control_prob, monkeypatch):
    monkeypatch.setattr(rand, "CHUNK", SMALL_CHUNK)
    cycles = 3 * SMALL_CHUNK + 5
    cfg, eve, mode = _setup(case, control_prob, 11, cycles=cycles)
    result = _both(cfg, draw_message(cfg.dim, cycles, 11), eve, mode)
    if case in INTERCEPT_RESEND and control_prob < 1.0:
        assert result[0] is CoherenceBreakError
    else:
        assert len(result) == cycles


def _first_failing_cycle(cfg, message, eve, mode):
    """The first cycle the stepwise reference raises on, by bisection on the
    session length: a session of that many cycles runs, one more fails."""
    lo, hi = 0, cfg.n_cycles
    while hi - lo > 1:
        mid = (lo + hi) // 2
        outcome = _result(oracles.stepwise_session, replace(cfg, n_cycles=mid), message, eve, mode)
        lo, hi = (mid, hi) if isinstance(outcome, list) else (lo, mid)
    return lo


@pytest.mark.parametrize(
    "case,control_prob,n_pairs,seed,error",
    [
        (INTERCEPT_RESEND[0], 0.97, 200, 2, CoherenceBreakError),
        (COUPLINGS[3], 0.25, 40, 3, ValueError),
    ],
    ids=["coherence-break", "exhausted-message"],
)
def test_errors_come_from_the_first_failing_cycle(case, control_prob, n_pairs, seed, error, monkeypatch):
    """The engine raises the stepwise error at the same cycle, past the first
    chunk, and builds no node in the chunks after the one that raises."""
    chunk = 16
    monkeypatch.setattr(rand, "CHUNK", chunk)
    cfg, eve, mode = _setup(case, control_prob, seed, cycles=200)
    message = draw_message(cfg.dim, n_pairs, seed)
    first = _first_failing_cycle(cfg, message, eve, mode)
    assert first >= chunk
    assert len(_both(replace(cfg, n_cycles=first), message, eve, mode)) == first
    raised = _both(replace(cfg, n_cycles=first + 1), message, eve, mode)
    assert raised[0] is error
    assert _both(cfg, message, eve, mode) == raised

    calls = []
    original = protocol.apply

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(protocol, "apply", counting)
    built = []
    for n in (cfg.n_cycles, (first // chunk + 1) * chunk):
        calls.clear()
        _result(run_session, replace(cfg, n_cycles=n), message, eve, mode)
        built.append(len(calls))
    assert built[0] == built[1]


def test_states_evolve_only_when_a_node_is_built(monkeypatch):
    """Once every branch is built, more cycles apply no further unitaries."""
    calls = []
    original = protocol.apply

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(protocol, "apply", counting)
    counts = []
    for cycles in (400, 800):
        cfg, eve, mode = _setup(COUPLINGS[3], 0.25, 5, cycles=cycles)
        calls.clear()
        run_session(cfg, draw_message(2, cycles, 5), eve, mode)
        counts.append(len(calls))
    assert counts[0] == counts[1] < 20


# A 12-outcome measurement whose zero-probability outcomes sit between the
# supported ones; with this seed a running sum over the supported outcomes
# alone differs from the full table's in the last bit.
SPARSE_SUPPORT = (0, 2, 3, 6, 7, 9, 11)
SPARSE_SEED = 2


def _sparse_state():
    rng = np.random.default_rng(SPARSE_SEED)
    amps = np.zeros((12, 2), dtype=np.complex128)
    amps[list(SPARSE_SUPPORT)] = rng.normal(size=(7, 2)) + 1j * rng.normal(size=(7, 2))
    layout = SubsystemLayout.of(("t", 12), ("e", 2))
    return StateVector(layout, amps.reshape(-1) / np.linalg.norm(amps))


def _edge_case(kind):
    """An edge of the given kind and a state to take it on."""
    rng = np.random.default_rng(3)
    layout = SubsystemLayout.of(("h", 3), ("t", 3), ("e", 2))
    state = rand_state(rng, layout)
    if kind == "unitary":
        return UnitaryEdge(Operator.unitary(rand_unitary(rng, 6)), ("t", "e")), state
    if kind == "measure":
        return MeasureEdge(("t", "e"), Basis(rand_unitary(rng, 6)), "alice"), state
    if kind == "draw":
        shifts = (None,) + tuple(algebra(3).encoding(f, 0) for f in (1, 2))
        return DrawEdge("fake", shifts, ("t",)), state
    return MeasureEdge(("t",), Basis.computational(12), "genuine"), _sparse_state()


class _Uniforms:
    """A stand-in for `CycleDraws` whose cycle k draws `us[k]` from `random`."""

    def __init__(self, us):
        self.us = np.asarray(us)

    def __len__(self):
        return len(self.us)

    def random(self, cycles):
        return self.us[cycles]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", ("unitary", "measure", "draw", "measure-sparse"))
def test_follow_from_a_fresh_node_matches_step(kind, seed):
    edge, state = _edge_case(kind)
    n = 20
    for k in range(n):
        draws, rng_step = CycleDraws(seed, SESSION_TAG, 0, n), stream(seed, SESSION_TAG, k)
        node, cycles = protocol._Node(state, {"earlier": 1}), np.array([k])
        [(succ, cycles)] = follow((edge,), node, cycles, draw_leg((edge,), draws, cycles))
        notes = {"earlier": 1}
        post = oracles.step(edge, state, rng_step, notes)
        assert np.array_equal(succ.state.amps, post.amps)
        assert succ.notes == notes and cycles.tolist() == [k]
        assert draws.random(cycles)[0] == rng_step.random()
    # all cycles from one fresh node at once: each goes where `step` takes it
    draws, cycles = CycleDraws(seed, SESSION_TAG, 0, n), np.arange(n)
    reached = list(follow((edge,), protocol._Node(state, {}), cycles, draw_leg((edge,), draws, cycles)))
    assert sorted(k for _, cycles in reached for k in cycles.tolist()) == list(range(n))
    for succ, cycles in reached:
        for k in cycles.tolist():
            notes = {}
            oracles.step(edge, state, stream(seed, SESSION_TAG, k), notes)
            assert succ.notes == notes


def test_measure_follow_picks_from_the_full_born_table():
    """At every running-sum boundary of a sparse table, and one ulp to either
    side, `follow` picks the outcome `step` picks."""
    edge, state = _edge_case("measure-sparse")
    table = born_table(state, edge.labels, edge.basis)
    uniforms = [u for c in table.cum[:-1] for u in (np.nextafter(c, 0.0), c, np.nextafter(c, 1.0))]
    cycles = np.arange(len(uniforms))
    taken = draw_leg((edge,), _Uniforms(uniforms), cycles)
    reached = list(follow((edge,), protocol._Node(state, {}), cycles, taken))
    assert sum(len(cycles) for _, cycles in reached) == len(uniforms)
    for succ, cycles in reached:
        for k in cycles.tolist():
            notes = {}
            oracles.step(edge, state, FixedUniform(uniforms[k]), notes)
            assert succ.notes == notes
    # the boundaries tell the full table from one over the supported outcomes
    support = np.array(SPARSE_SUPPORT)
    supported = table.probs[support]
    short_cum = np.cumsum(supported / supported.sum())
    assert any(
        support[pick(supported, short_cum, u)] != pick(table.probs, table.cum, u) for u in uniforms
    )


# Intercept-resend runs only all-control sessions: a message cycle breaks
# Bob's decoder.
SCORED = [(case, p) for case in COUPLINGS for p in (0.0, 0.25, 1.0)] + [(INTERCEPT_RESEND[0], 1.0)]


@pytest.mark.parametrize("case,control_prob", SCORED, ids=lambda c: str(c))
def test_score_session_equals_the_record_scorer(case, control_prob):
    cfg, eve, mode = _setup(case, control_prob, 4)
    transcript = run_session(cfg, draw_message(cfg.dim, CYCLES, 4), eve, mode)
    for seed in (4, 2**32 + 5):
        expected = oracles.score_records(list(transcript), cfg.dim, seed)
        assert score_session(transcript, cfg.dim, seed) == expected


def test_score_session_interleaves_abstentions_like_the_record_scorer():
    """Mixed abstaining and guessing message cycles between control cycles:
    the scoring draws are taken in the record scorer's order."""
    rng = np.random.default_rng(8)
    control = rng.random(300) < 0.3
    n_msg, n_ctrl = int((~control).sum()), int(control.sum())
    transcript = Transcript(
        control=control,
        symbols=rng.integers(0, 3, size=(n_msg, 2)),
        decoded=rng.integers(0, 3, size=(n_msg, 2)),
        guess=rng.integers(-1, 3, size=n_msg),
        basis_ids=("computational",),
        basis=np.zeros(n_ctrl, dtype=np.int64),
        outcomes=rng.integers(0, 3, size=(n_ctrl, 2)),
        passed=rng.random(n_ctrl) < 0.9,
    )
    assert score_session(transcript, 3, 6) == oracles.score_records(list(transcript), 3, 6)


def test_long_session_memory_is_its_columns_and_one_chunk():
    """A long session's transient peak is the transcript's columns, their
    per-chunk copies and one chunk's words and draws, not a record per cycle."""
    cycles = 20 * rand.CHUNK
    cfg, eve, mode = _setup(COUPLINGS[3], 0.25, 5, cycles=cycles)
    message = draw_message(cfg.dim, cycles, 5)
    run_session(replace(cfg, n_cycles=rand.CHUNK), message, eve, mode)  # warm caches
    tracemalloc.start()
    try:
        transcript = run_session(cfg, message, eve, mode)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    columns = sum(
        column.nbytes
        for column in (transcript.control, transcript.decoded, transcript.guess,
                       transcript.basis, transcript.outcomes, transcript.passed)
    )
    chunk_words = rand.CHUNK * 8 * 8  # two Philox blocks of four 64-bit words
    assert peak < 2 * columns + 8 * chunk_words
    assert peak < 100 * cycles  # a CycleRecord per cycle takes several times this


def test_session_holds_the_states_of_one_path_not_of_a_tree_level():
    """The walk is depth-first: a D=16 session whose message cycles reach
    ~250 of the 256 symbol pairs holds a few encoded states at a time, not
    one per pair (256 states of D^3 amplitudes would be ~16 MiB)."""
    dim, cycles = 16, 1200
    cfg, eve, mode = _setup(("qudit-shift", "computational", dim, "qudit_beta00"), 0.0, 5, cycles=cycles)
    message = draw_message(dim, cycles, 5)
    assert len({tuple(pair) for pair in message.tolist()}) > 240
    run_session(cfg, message, eve, mode)  # build the cached operators first
    tracemalloc.start()
    try:
        run_session(cfg, message, eve, mode)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * dim**3 * np.dtype(np.complex128).itemsize
