"""The session engine's branch tree against the per-cycle reference stepper.

`run_session` builds each node of a configuration's branch tree once and walks
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
    SessionTree,
    Transcript,
    UnitaryEdge,
    algebra,
    draw_leg,
    follow,
    run_session,
    run_sessions,
)
from pingpong.qstate import Basis, Operator, StateVector, SubsystemLayout, born_table, pick, running_sum
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
        draws, rng_step = CycleDraws(seed, SESSION_TAG, np.arange(n)), stream(seed, SESSION_TAG, k)
        node, cycles = protocol._Node({"earlier": 1}), np.array([k])
        taken = draw_leg((edge,), draws, cycles)
        [(succ, built, cycles)] = follow((edge,), node, lambda: state, cycles, taken)
        notes = {"earlier": 1}
        post = oracles.step(edge, state, rng_step, notes)
        assert np.array_equal(built().amps, post.amps)
        assert succ.notes == notes and cycles.tolist() == [k]
        assert draws.random(cycles)[0] == rng_step.random()
    # all cycles from one fresh node at once: each goes where `step` takes it
    draws, cycles = CycleDraws(seed, SESSION_TAG, np.arange(n)), np.arange(n)
    taken = draw_leg((edge,), draws, cycles)
    reached = list(follow((edge,), protocol._Node({}), lambda: state, cycles, taken))
    assert sorted(k for _, _, cycles in reached for k in cycles.tolist()) == list(range(n))
    for succ, post, cycles in reached:
        for k in cycles.tolist():
            notes = {}
            stepped = oracles.step(edge, state, stream(seed, SESSION_TAG, k), notes)
            assert succ.notes == notes
            assert np.array_equal(post().amps, stepped.amps)


def test_measure_follow_picks_from_the_full_born_table():
    """At every running-sum boundary of a sparse table, and one ulp to either
    side, `follow` picks the outcome `step` picks."""
    edge, state = _edge_case("measure-sparse")
    table = born_table(state, edge.labels, edge.basis)
    cum = running_sum(table.probs)
    uniforms = [u for c in cum[:-1] for u in (np.nextafter(c, 0.0), c, np.nextafter(c, 1.0))]
    cycles = np.arange(len(uniforms))
    taken = draw_leg((edge,), _Uniforms(uniforms), cycles)
    reached = list(follow((edge,), protocol._Node({}), lambda: state, cycles, taken))
    assert sum(len(cycles) for _, _, cycles in reached) == len(uniforms)
    for succ, post, cycles in reached:
        for k in cycles.tolist():
            notes = {}
            stepped = oracles.step(edge, state, FixedUniform(uniforms[k]), notes)
            assert succ.notes == notes
            assert np.array_equal(post().amps, stepped.amps)
    # the boundaries tell the full table from one over the supported outcomes
    support = np.array(SPARSE_SUPPORT)
    supported = table.probs[support]
    short_cum = np.cumsum(supported / supported.sum())
    assert any(
        support[pick(supported, short_cum, u)] != pick(table.probs, cum, u) for u in uniforms
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


def _traced_peak(run):
    """The tracemalloc peak of `run()`, in bytes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _nodes(node):
    """Every node of the tree under `node`, itself included."""
    todo, seen = [node], []
    while todo:
        seen.append(todo.pop())
        todo.extend(seen[-1].next.values())
    return seen


def test_a_longer_session_grows_nodes_not_states():
    """A D=16 generic session with a 16-level ancilla reaches more symbol
    pairs and readout outcomes at 300 cycles than at 50, and its peak grows
    by those nodes' notes and tables only, under 1 KiB a node: no node keeps
    one of its 64 KiB states."""
    dim = anc = 16
    rng = np.random.default_rng(0)
    eve = generic_coupling(dim, rand_family(rng, anc, dim), rand_family(rng, anc, dim))
    grown = []
    for cycles in (50, 300):
        cfg = ProtocolConfig(dim, 0.0, cycles, 5, "qudit_beta00")
        mode = control_mode.from_name("computational", cfg)
        message = draw_message(dim, cycles, 5)
        run_session(replace(cfg, n_cycles=1), message, eve, mode)  # build the cached operators first
        tree = SessionTree(cfg, eve, mode)
        grown.append((_traced_peak(lambda: run_session(cfg, message, eve, mode, tree)), len(_nodes(tree.root))))
    (short_peak, short_nodes), (long_peak, long_nodes) = grown
    assert long_nodes > short_nodes + 1500
    assert long_peak - short_peak < 1024 * (long_nodes - short_nodes)


def test_all_control_intercept_resend_peaks_near_detection():
    """An all-control D=16 intercept-resend session reaches all D^2 = 256
    post-forward nodes, each with its own D^3-amplitude state, and peaks
    within a few dozen states of the detection walk over the same branches,
    which holds one branch at a time (keeping the 256 states is ~16 MiB)."""
    dim = 16
    cfg, eve, mode = _setup(("intercept-resend", "computational", dim, "qudit_beta00"), 1.0, 5, cycles=2000)
    state_bytes = dim**3 * np.dtype(np.complex128).itemsize
    control_mode.analytic_pdet(eve, mode, cfg)  # build the cached operators first
    detection = _traced_peak(lambda: control_mode.analytic_pdet(eve, mode, cfg))
    tree = SessionTree(cfg, eve, mode)
    session = _traced_peak(lambda: run_session(cfg, [], eve, mode, tree))
    [swapped] = tree.root.next.values()
    sent = [node for genuine in swapped.next.values() for node in genuine.next.values()]
    assert len(sent) == dim**2 and all("computational" in node.next for node in sent)
    assert session < detection + 32 * state_bytes


# Sessions of one configuration that differ in everything else: seed, cycle
# count and control probability.
SESSIONS = [(1, 60, 0.25), (2, 25, 1.0), (3, 90, 0.0), (4, 45, 0.5)]


@pytest.mark.parametrize("case", COUPLINGS + INTERCEPT_RESEND, ids=lambda c: f"{c[0]}-{c[1]}-d{c[2]}")
def test_sessions_sharing_a_tree_match_stepper(case):
    """Sessions that walk and grow one tree in turn each give the stepwise
    transcript or error, as with a tree of their own. Intercept-resend's
    message cycles leave a coherence break part-way through the tree."""
    cfg, eve, mode = _setup(case, 0.0, 0)
    tree = SessionTree(cfg, eve, mode)
    for seed, cycles, control_prob in SESSIONS:
        session = replace(cfg, seed=seed, n_cycles=cycles, control_prob=control_prob)
        message = draw_message(cfg.dim, cycles, seed)
        shared = _result(lambda *args: run_session(*args, tree), session, message, eve, mode)
        assert shared == _both(session, message, eve, mode)


def _together(cfgs, messages, eve, mode, tree=None):
    """Each session's records from one `run_sessions` walk, or the type and
    message of the error that ends it."""
    return [
        list(result) if isinstance(result, Transcript) else (type(result), str(result))
        for result in run_sessions(cfgs, messages, eve, mode, tree)
    ]


def _apart(cfgs, messages, eve, mode):
    """The same from the stepwise reference, one session at a time."""
    return [_result(oracles.stepwise_session, cfg, msg, eve, mode) for cfg, msg in zip(cfgs, messages)]


def _sessions(case, control_probs=None):
    """`SESSIONS` of one configuration, with drawn messages."""
    cfg, eve, mode = _setup(case, 0.0, 0)
    cfgs = [replace(cfg, seed=seed, n_cycles=cycles, control_prob=p) for seed, cycles, p in SESSIONS]
    if control_probs is not None:
        cfgs = [replace(c, control_prob=p) for c, p in zip(cfgs, control_probs)]
    return cfgs, [draw_message(cfg.dim, c.n_cycles, c.seed) for c in cfgs], eve, mode


@pytest.mark.parametrize("case", COUPLINGS + INTERCEPT_RESEND, ids=lambda c: f"{c[0]}-{c[1]}-d{c[2]}")
def test_sessions_walked_together_match_stepper(case, monkeypatch):
    """Sessions whose cycles share chunks (each straddles a chunk boundary)
    each give the stepwise transcript or error. Intercept-resend's message
    cycles break Bob's decoder; its all-control session is left intact."""
    monkeypatch.setattr(rand, "CHUNK", SMALL_CHUNK)
    cfgs, messages, eve, mode = _sessions(case)
    together = _together(cfgs, messages, eve, mode)
    assert together == _apart(cfgs, messages, eve, mode)
    failed = [isinstance(result, tuple) for result in together]
    assert failed == [case in INTERCEPT_RESEND and cfg.control_prob < 1.0 for cfg in cfgs]
    assert [len(result) for result, bad in zip(together, failed) if not bad] == [
        cfg.n_cycles for cfg, bad in zip(cfgs, failed) if not bad
    ]


def test_a_coherence_break_ends_only_its_own_session(monkeypatch):
    """One intercept-resend session carries message cycles and breaks part-way
    through a chunk it shares with the others, which run to their end."""
    monkeypatch.setattr(rand, "CHUNK", SMALL_CHUNK)
    cfgs, messages, eve, mode = _sessions(INTERCEPT_RESEND[2], (1.0, 0.5, 1.0, 1.0))
    together = _together(cfgs, messages, eve, mode)
    assert together == _apart(cfgs, messages, eve, mode)
    assert together[1][0] is CoherenceBreakError
    assert [len(together[i]) for i in (0, 2, 3)] == [cfgs[i].n_cycles for i in (0, 2, 3)]


def test_a_message_that_runs_out_ends_only_its_own_session(monkeypatch):
    """An explicit message too short for its session, and one with a symbol
    out of range, end those sessions alone."""
    monkeypatch.setattr(rand, "CHUNK", SMALL_CHUNK)
    cfgs, messages, eve, mode = _sessions(COUPLINGS[3])
    messages[2] = [(1, 0), (0, 1)] * 25  # 50 pairs for 90 message cycles
    messages[3] = [(0, 0), (2, 1)]
    together = _together(cfgs, messages, eve, mode)
    assert together == _apart(cfgs, messages, eve, mode)
    assert together[2] == (ValueError, "message exhausted before the session finished")
    assert together[3] == (ValueError, "message symbols (2, 1) out of range for dim 2")
    assert [len(together[i]) for i in (0, 1)] == [cfgs[i].n_cycles for i in (0, 1)]


@pytest.mark.parametrize(
    "case,control_prob,n_pairs,seed,error",
    [
        (INTERCEPT_RESEND[2], 0.97, 200, 2, CoherenceBreakError),
        (COUPLINGS[10], 0.25, 40, 3, ValueError),
    ],
    ids=["coherence-break", "exhausted-message"],
)
def test_a_failed_session_grows_no_node_in_later_chunks(case, control_prob, n_pairs, seed, error, monkeypatch):
    """A session that fails takes no cycles into the chunks after the one it
    fails in: no later chunk keys its streams, and the tree grows as if the
    session had ended with that chunk, while a session after it goes on."""
    monkeypatch.setattr(rand, "CHUNK", SMALL_CHUNK)
    cfg, eve, mode = _setup(case, control_prob, seed, cycles=300)
    message = draw_message(cfg.dim, n_pairs, seed)
    first = _first_failing_cycle(cfg, message, eve, mode)
    assert SMALL_CHUNK <= first < cfg.n_cycles - SMALL_CHUNK
    after = replace(cfg, seed=seed + 1, n_cycles=50, control_prob=1.0)
    keyed = []  # the seeds each chunk keys streams for
    original = rand.CycleDraws

    def recording(seeds, tag, ks):
        keyed.append(set(seeds.tolist()))
        return original(seeds, tag, ks)

    monkeypatch.setattr(rand, "CycleDraws", recording)
    grown = []
    for n in (cfg.n_cycles, (first // SMALL_CHUNK + 1) * SMALL_CHUNK):
        tree = SessionTree(cfg, eve, mode)
        cfgs, messages = [replace(cfg, n_cycles=n), after], [message, []]
        keyed.clear()
        together = _together(cfgs, messages, eve, mode, tree)
        assert together == _apart(cfgs, messages, eve, mode)
        assert together[0][0] is error and len(together[1]) == after.n_cycles
        failing = first // SMALL_CHUNK
        assert [seed in chunk for chunk in keyed] == [True] * (failing + 1) + [False] * (len(keyed) - failing - 1)
        assert seed + 1 in keyed[-1]
        grown.append(len(_nodes(tree.root)))
    assert grown[0] == grown[1]


def test_a_tree_walks_only_its_own_configuration():
    cfg, eve, mode = _setup(("qudit-shift", "computational", 2, "qudit_beta00"), 0.25, 1)
    tree = SessionTree(cfg, eve, mode)
    message = draw_message(2, CYCLES, 1)
    assert run_session(cfg, message, eve, mode, tree) == run_session(cfg, message, eve, mode)
    other_cfg, other_eve, other_mode = _setup(("qudit-shift", "computational", 3, "qudit_beta00"), 0.25, 1)
    qubit_cfg = replace(cfg, initial_state_kind="qubit_psi_minus")
    for args in [
        (cfg, message, attacks.qudit_shift_attack(2), mode),  # an equal handle, not the same one
        (cfg, message, eve, control_mode.from_name("computational", cfg)),
        (qubit_cfg, message, eve, control_mode.from_name("computational", qubit_cfg)),
        (other_cfg, draw_message(3, CYCLES, 1), other_eve, other_mode),
    ]:
        with pytest.raises(ValueError, match="another configuration"):
            run_session(*args, tree)


@pytest.mark.parametrize("case", COUPLINGS + INTERCEPT_RESEND, ids=lambda c: f"{c[0]}-{c[1]}-d{c[2]}")
def test_control_cycles_read_one_joint_table_and_collapse_no_state(case, monkeypatch):
    """A control cycle picks Alice's and Bob's outcomes from its post-forward
    node's joint table, so an all-control session collapses no state on a
    control path: its only collapses are intercept-resend's `genuine`
    measurements, one per outcome the walk goes on from (a short session
    leaves some unreached). Each reached (post-forward node, basis) calls
    `pair_probs` exactly once, also when a second session walks the tree,
    and transcripts still equal the stepper's."""
    collapsed, tabled = [], []
    original_collapse, original_pair_probs = protocol.collapse, protocol.pair_probs

    def counting_collapse(table, outcome):
        collapsed.append(table.labels)
        return original_collapse(table, outcome)

    def counting_pair_probs(state, basis):
        tabled.append(basis)
        return original_pair_probs(state, basis)

    # the stepper measures through qstate's own bindings
    monkeypatch.setattr(protocol, "collapse", counting_collapse)
    monkeypatch.setattr(protocol, "pair_probs", counting_pair_probs)
    cfg, eve, mode = _setup(case, 1.0, 6)
    tree = SessionTree(cfg, eve, mode)
    run_session(replace(cfg, n_cycles=5), [], eve, mode, tree)
    genuine = [node for node in _nodes(tree.root) if node.next and list(node.notes)[-1:] == ["genuine"]]
    assert collapsed == [eve.ancilla_labels[:1]] * len(genuine)
    assert (case[0] == "intercept-resend") == bool(genuine)

    session = replace(cfg, seed=7)
    assert run_session(session, [], eve, mode, tree) == oracles.stepwise_session(session, [], eve, mode)
    assert set(collapsed) <= {eve.ancilla_labels[:1]}
    basis_ids = {cb.basis_id for cb in mode.bases}
    checks = [succ for node in _nodes(tree.root) for key, succ in node.next.items() if key in basis_ids]
    assert checks and all(check.leaf.shape == (cfg.dim, cfg.dim) for check in checks)
    assert len(tabled) == len(checks)
