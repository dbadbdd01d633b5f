"""The session engine's branch tree against the per-cycle reference stepper.

`run_session` builds each node of a configuration's branch tree once and walks
each chunk of cycles through it one level at a time; `oracles.stepwise_session`
evolves fresh state vectors on every cycle. Both draw from the same per-cycle
streams, so the transcript's records (`oracles.records`) and the errors they
raise, with the cycle that raises them, must be identical. Edge by edge,
`protocol.follow` from a fresh node must give what `oracles.step` gives on
the node's state, and the columnar `cli.score_session` what the
record-by-record `oracles.score_records` gives.
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
    ReadoutEdge,
    SessionTree,
    Transcript,
    UnitaryEdge,
    algebra,
    draw_leg,
    follow,
    run_session,
    run_sessions,
)
from pingpong.qstate import Basis, Operator, StateVector, SubsystemLayout, born_table, factor, pick, running_sum
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
    if attack == "generic":  # a random family on max(4, D) ancilla levels
        rng = np.random.default_rng(seed)
        anc = max(4, dim)
        eve = generic_coupling(dim, rand_family(rng, anc, dim), rand_family(rng, anc, dim))
    else:
        eve = attacks.from_name(attack, dim)
    return cfg, eve, control_mode.from_name(control, cfg)


def _result(session, cfg, message, eve, mode):
    """The session's records, or the type and message of the error raised."""
    try:
        return session(cfg, message, eve, mode)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)


def _records(*args):
    """`run_session`'s transcript as records."""
    return oracles.records(run_session(*args))


def _both(cfg, message, eve, mode):
    engine = _result(_records, cfg, message, eve, mode)
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


# Large dimensions, where no golden report or workload hash runs sessions.
LARGE = [(attack, "computational", dim, "qudit_beta00")
         for dim in (16, 32) for attack in ("qudit-shift", "generic", "intercept-resend")]


@pytest.mark.parametrize("case", LARGE, ids=lambda c: f"{c[0]}-d{c[2]}")
def test_large_dimension_transcripts_match_stepper(case):
    """40 cycles at seed 5: qudit-shift, a generic family with A = D, and
    all-control intercept-resend."""
    cfg, eve, mode = _setup(case, 1.0 if case[0] == "intercept-resend" else 0.25, 5, cycles=40)
    assert len(_both(cfg, draw_message(cfg.dim, 40, 5), eve, mode)) == 40


def test_a_d32_session_replays_across_chunks_with_the_shared_handle(monkeypatch):
    """Chunks of 4 cycles: each later chunk reaches new symbol pairs of the
    post-forward node the first built, and replays the path to it. Run twice,
    the second session gets the same handles and the same records."""
    monkeypatch.setattr(rand, "CHUNK", 4)
    replays, original = [], protocol._replay
    monkeypatch.setattr(protocol, "_replay", lambda leg, *args: replays.append(len(leg)) or original(leg, *args))
    runs = []
    for _ in range(2):
        cfg, eve, mode = _setup(("qudit-shift", "computational", 32, "qudit_beta00"), 0.25, 5, cycles=40)
        runs.append((eve, mode, _both(cfg, draw_message(32, 40, 5), eve, mode)))
    (eve, mode, records), again = runs
    assert again[0] is eve and again[1] is mode and again[2] == records and len(records) == 40
    assert len(eve.forward_leg) in replays


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


def _followed(edge, node, state, cycles, taken):
    """`follow` over the one edge from `node`, whose state is `state`: each
    (successor, its state, its cycles)."""
    def source(starts):
        return state.take(np.zeros(len(starts), dtype=np.intp))

    walk = follow((edge,), [(node, cycles)], taken, source, state.layout.dim)
    return [(succ, states.take(i), sub) for ends, states in walk for i, (succ, sub) in enumerate(ends)]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", ("unitary", "measure", "draw", "measure-sparse"))
def test_follow_from_a_fresh_node_matches_step(kind, seed):
    edge, state = _edge_case(kind)
    n = 20
    for k in range(n):
        draws, rng_step = CycleDraws(seed, SESSION_TAG, np.arange(n)), stream(seed, SESSION_TAG, k)
        node, cycles = protocol._Node({"earlier": 1}), np.array([k])
        taken = draw_leg((edge,), draws, cycles)
        [(succ, built, cycles)] = _followed(edge, node, state, cycles, taken)
        notes = {"earlier": 1}
        post = oracles.step(edge, state, rng_step, notes)
        assert np.array_equal(built.amps, post.amps)
        assert succ.notes == notes and cycles.tolist() == [k]
        assert draws.random(cycles)[0] == rng_step.random()
    # all cycles from one fresh node at once: each goes where `step` takes it
    draws, cycles = CycleDraws(seed, SESSION_TAG, np.arange(n)), np.arange(n)
    taken = draw_leg((edge,), draws, cycles)
    reached = _followed(edge, protocol._Node({}), state, cycles, taken)
    assert sorted(k for _, _, cycles in reached for k in cycles.tolist()) == list(range(n))
    for succ, post, cycles in reached:
        for k in cycles.tolist():
            notes = {}
            stepped = oracles.step(edge, state, stream(seed, SESSION_TAG, k), notes)
            assert succ.notes == notes
            assert np.array_equal(post.amps, stepped.amps)


def test_measure_follow_picks_from_the_full_born_table():
    """At every running-sum boundary of a sparse table, and one ulp to either
    side, `follow` picks the outcome `step` picks."""
    edge, state = _edge_case("measure-sparse")
    table = born_table(state, edge.labels, edge.basis)
    cum = running_sum(table.probs)
    uniforms = [u for c in cum[:-1] for u in (np.nextafter(c, 0.0), c, np.nextafter(c, 1.0))]
    cycles = np.arange(len(uniforms))
    taken = draw_leg((edge,), _Uniforms(uniforms), cycles)
    reached = _followed(edge, protocol._Node({}), state, cycles, taken)
    assert sum(len(cycles) for _, _, cycles in reached) == len(uniforms)
    for succ, post, cycles in reached:
        for k in cycles.tolist():
            notes = {}
            stepped = oracles.step(edge, state, FixedUniform(uniforms[k]), notes)
            assert succ.notes == notes
            assert np.array_equal(post.amps, stepped.amps)
    # the boundaries tell the full table from one over the supported outcomes
    support = np.array(SPARSE_SUPPORT)
    supported = table.probs[support]
    short_cum = np.cumsum(supported / supported.sum())
    assert any(
        support[pick(supported, short_cum, u)] != pick(table.probs, cum, u) for u in uniforms
    )


def _float_edge_row(dim):
    """A row with no mass in its last cell whose running sum ends below 1."""
    rng = np.random.default_rng(0)
    while running_sum(row := np.append(rng.random(dim - 1), 0.0))[-1] >= 1.0:
        pass
    return row


@pytest.mark.filterwarnings("error")
def test_check_nodes_pick_bob_as_pick_does_row_by_row():
    """A check node picks Bob's outcomes for all of a basis's cycles at once,
    from running sums normalized by the row masses it keeps: at every edge of
    Alice's row's running sum and one ulp to either side, at 0 and at the
    largest uniform, where the edge row's sum ends below 1 and lands on a
    cell with no mass. A row with no mass is never picked."""
    dim = 4
    cfg = ProtocolConfig(dim=dim, control_prob=1.0, n_cycles=1, seed=1, initial_state_kind="qudit_beta00")
    eve, mode = attacks.from_name("none", dim), control_mode.from_name("computational", cfg)
    table = np.array([[0.1, 0.0, 0.2, 0.0], np.zeros(dim), _float_edge_row(dim), [0.0, 0.25, 0.0, 0.05]])
    node = protocol._Node({})
    check = node.child(mode.bases[0].basis_id)
    check.tabulate(table)
    assert check.masses.tolist() == [row.sum() for row in table] and check.masses[1] == 0.0
    steps = np.concatenate([[0.0], check.cum])
    cycles = [((steps[a] + steps[a + 1]) / 2, a, u)  # Alice's uniform lands inside row a's step
              for a in np.flatnonzero(table.sum(axis=1) > 0).tolist()
              for u in [0.0, np.nextafter(1.0, 0.0)] + [v for c in running_sum(table[a])
                                                        for v in (np.nextafter(c, 0.0), c, np.nextafter(c, 1.0)) if v < 1.0]]
    alice_u, alice, bob_u = map(np.array, zip(*cycles))
    n = len(cycles)
    chunk = protocol._Chunk(np.zeros(n, dtype=np.int64), np.zeros(0, dtype=np.int64), [None])
    chunk.chosen[:], chunk.alice_u[:], chunk.bob_u[:], chunk.rank = 0, alice_u, bob_u, np.arange(n)
    chunk.decoded, chunk.guess, chunk.basis, chunk.outcomes, chunk.passed = protocol._columns(0, n)
    SessionTree(cfg, eve).checks(chunk, mode, node, np.arange(n), None)
    assert chunk.outcomes[:, 0].tolist() == alice.tolist()
    want = [int(pick(table[a], running_sum(table[a]), u)) for a, u in zip(alice.tolist(), bob_u)]
    assert chunk.outcomes[:, 1].tolist() == want
    assert chunk.passed.tolist() == (~mode.bases[0].fail[alice, want]).tolist()
    # the float edge is reached: a uniform past a row's last sum lands on a cell with no mass
    landed = [min(int(running_sum(table[a]).searchsorted(u, side="right")), dim - 1) for a, u in zip(alice, bob_u)]
    assert any(table[a, b] <= 0.0 for a, b in zip(alice, landed))


# Intercept-resend runs only all-control sessions: a message cycle breaks
# Bob's decoder.
SCORED = [(case, p) for case in COUPLINGS for p in (0.0, 0.25, 1.0)] + [(INTERCEPT_RESEND[0], 1.0)]


@pytest.mark.parametrize("case,control_prob", SCORED, ids=lambda c: str(c))
def test_score_session_equals_the_record_scorer(case, control_prob):
    cfg, eve, mode = _setup(case, control_prob, 4)
    transcript = run_session(cfg, draw_message(cfg.dim, CYCLES, 4), eve, mode)
    for seed in (4, 2**32 + 5):
        expected = oracles.score_records(oracles.records(transcript), cfg.dim, seed)
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
    assert score_session(transcript, 3, 6) == oracles.score_records(oracles.records(transcript), 3, 6)


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
    assert peak < 100 * cycles  # a record object per cycle takes several times this


@pytest.mark.usefixtures("fresh_trees")
def test_session_holds_the_states_of_one_path_not_of_a_tree_level():
    """The walk takes each stack of at most `SLICE_AMPS` amplitudes to the
    end of the leg before building the next: a D=16 session whose message
    cycles reach ~250 of the 256 symbol pairs holds a few encoded states at
    a time, not one per pair (256 states of D^3 amplitudes would be ~16 MiB)."""
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


def _built_trees(monkeypatch):
    """The trees `run_sessions` builds from here on, in the order it builds
    them; each is kept, so its nodes can be inspected after the walk."""
    trees = []

    class Kept(SessionTree):
        def __init__(self, *args):
            super().__init__(*args)
            trees.append(self)

    monkeypatch.setattr(protocol, "SessionTree", Kept)
    return trees


def _nodes(node):
    """Every node of the tree under `node`, itself included."""
    todo, seen = [node], []
    while todo:
        seen.append(todo.pop())
        todo.extend(seen[-1].next.values())
    return seen


@pytest.mark.usefixtures("fresh_trees")
def test_a_longer_session_grows_nodes_not_states(monkeypatch):
    """A D=16 generic session with a 16-level ancilla reaches more symbol
    pairs and readout outcomes at 300 cycles than at 50, and its peak grows
    by those nodes' notes and tables only, under 1 KiB a node: no node keeps
    one of its 64 KiB states."""
    dim = anc = 16
    rng = np.random.default_rng(0)
    eve = generic_coupling(dim, rand_family(rng, anc, dim), rand_family(rng, anc, dim))
    trees, grown = _built_trees(monkeypatch), []
    for cycles in (50, 300):
        cfg = ProtocolConfig(dim, 0.0, cycles, 5, "qudit_beta00")
        mode = control_mode.from_name("computational", cfg)
        message = draw_message(dim, cycles, 5)
        run_session(replace(cfg, n_cycles=1), message, eve, mode)  # build the cached operators first
        grown.append((_traced_peak(lambda: run_session(cfg, message, eve, mode)), len(_nodes(trees[-1].root))))
    (short_peak, short_nodes), (long_peak, long_nodes) = grown
    assert long_nodes > short_nodes + 1500
    assert long_peak - short_peak < 1024 * (long_nodes - short_nodes)


@pytest.mark.usefixtures("fresh_trees")
def test_all_control_intercept_resend_peaks_near_detection(monkeypatch):
    """An all-control D=16 intercept-resend session reaches all D^2 = 256
    post-forward nodes, each with its own D^3-amplitude state, and peaks
    within a few dozen states of the detection walk over the same branches,
    which holds one branch at a time (keeping the 256 states is ~16 MiB)."""
    dim = 16
    cfg, eve, mode = _setup(("intercept-resend", "computational", dim, "qudit_beta00"), 1.0, 5, cycles=2000)
    state_bytes = dim**3 * np.dtype(np.complex128).itemsize
    control_mode.analytic_pdet(eve, mode, cfg)  # build the cached operators first
    detection = _traced_peak(lambda: control_mode.analytic_pdet(eve, mode, cfg))
    trees = _built_trees(monkeypatch)
    session = _traced_peak(lambda: run_session(cfg, [], eve, mode))
    [swapped] = trees[0].root.next.values()
    sent = [node for genuine in swapped.next.values() for node in genuine.next.values()]
    assert len(sent) == dim**2 and all("computational" in node.next for node in sent)
    assert session < detection + 32 * state_bytes


# Sessions of one configuration that differ in everything else: seed, cycle
# count and control probability.
SESSIONS = [(1, 60, 0.25), (2, 25, 1.0), (3, 90, 0.0), (4, 45, 0.5)]


def _together(cfgs, messages, eve, mode):
    """Each session's records from one `run_sessions` walk, or the type and
    message of the error that ends it."""
    return [
        oracles.records(result) if isinstance(result, Transcript) else (type(result), str(result))
        for result in run_sessions(cfgs, messages, [eve] * len(cfgs), [mode] * len(cfgs))
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


@pytest.mark.usefixtures("fresh_trees")
def test_sessions_of_several_configurations_walked_together_match_stepper(monkeypatch):
    """Interleaved sessions of five configurations, two of them cnot under
    either control mode with one handle, share and straddle chunks: each
    gives the stepwise transcript or error, and the walk builds one tree per
    handle, dim and kind, so the two cnot configurations share theirs."""
    monkeypatch.setattr(rand, "CHUNK", SMALL_CHUNK)
    cases = [COUPLINGS[2], COUPLINGS[3], COUPLINGS[8], COUPLINGS[-1], INTERCEPT_RESEND[2]]
    setups = [_setup(case, 0.0, 0) for case in cases]
    setups[1] = (setups[1][0], setups[0][1], setups[1][2])  # cnot's handle, under two-basis control
    sessions = [(0, 1, 40, 0.25), (3, 2, 30, 0.5), (1, 3, 60, 0.25), (4, 4, 45, 1.0), (2, 5, 25, 0.0),
                (0, 6, 35, 1.0), (4, 7, 50, 0.25), (1, 8, 20, 0.5)]  # (configuration, seed, cycles, control_prob)
    cfgs = [replace(setups[c][0], seed=seed, n_cycles=cycles, control_prob=p) for c, seed, cycles, p in sessions]
    messages = [draw_message(cfg.dim, cfg.n_cycles, cfg.seed) for cfg in cfgs]
    eves, modes = [setups[c][1] for c, *_ in sessions], [setups[c][2] for c, *_ in sessions]
    trees = _built_trees(monkeypatch)
    together = [
        oracles.records(result) if isinstance(result, Transcript) else (type(result), str(result))
        for result in run_sessions(cfgs, messages, eves, modes)
    ]
    assert together == [_result(oracles.stepwise_session, *args) for args in zip(cfgs, messages, eves, modes)]
    assert [isinstance(result, tuple) for result in together] == [False] * 6 + [True, False]
    assert len(trees) == 4


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


@pytest.mark.usefixtures("fresh_trees")
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
    trees, grown = _built_trees(monkeypatch), []
    for n in (cfg.n_cycles, (first // SMALL_CHUNK + 1) * SMALL_CHUNK):
        cfgs, messages = [replace(cfg, n_cycles=n), after], [message, []]
        keyed.clear()
        together = _together(cfgs, messages, eve, mode)
        assert together == _apart(cfgs, messages, eve, mode)
        assert together[0][0] is error and len(together[1]) == after.n_cycles
        failing = first // SMALL_CHUNK
        assert [seed in chunk for chunk in keyed] == [True] * (failing + 1) + [False] * (len(keyed) - failing - 1)
        assert seed + 1 in keyed[-1]
        grown.append(len(_nodes(trees[-1].root)))
    assert grown[0] == grown[1]


@pytest.mark.usefixtures("fresh_trees")
@pytest.mark.parametrize("case", COUPLINGS + INTERCEPT_RESEND, ids=lambda c: f"{c[0]}-{c[1]}-d{c[2]}")
def test_control_cycles_read_one_joint_table_and_collapse_no_state(case, monkeypatch):
    """A control cycle picks Alice's and Bob's outcomes from its post-forward
    node's joint table, so an all-control session collapses no state on a
    control path: its only collapses are intercept-resend's `genuine`
    measurements, one per outcome the walk goes on from (a short session
    leaves some unreached). Each reached (post-forward node, basis) calls
    `pair_probs` exactly once, also when two sessions walk the tree
    together, and transcripts still equal the stepper's."""
    collapsed, tabled = [], []
    original_collapse, original_pair_probs = protocol.collapse, protocol.pair_probs

    def counting_collapse(table, outcome, rows=None):
        collapsed.extend([table.labels] * np.size(outcome))  # one entry per collapsed state
        return original_collapse(table, outcome, rows)

    def counting_pair_probs(state, basis):
        tabled.append(basis)
        return original_pair_probs(state, basis)

    # the stepper measures through qstate's own bindings
    monkeypatch.setattr(protocol, "collapse", counting_collapse)
    monkeypatch.setattr(protocol, "pair_probs", counting_pair_probs)
    cfg, eve, mode = _setup(case, 1.0, 6)
    trees = _built_trees(monkeypatch)
    run_session(replace(cfg, n_cycles=5), [], eve, mode)
    genuine = [node for node in _nodes(trees[-1].root) if node.next and list(node.notes)[-1:] == ["genuine"]]
    assert collapsed == [eve.ancilla_labels[:1]] * len(genuine)
    assert (case[0] == "intercept-resend") == bool(genuine)

    tabled.clear()
    cfgs = [replace(cfg, n_cycles=5), replace(cfg, seed=7)]
    assert _together(cfgs, [[], []], eve, mode) == _apart(cfgs, [[], []], eve, mode)
    assert set(collapsed) <= {eve.ancilla_labels[:1]}
    basis_ids = {cb.basis_id for cb in mode.bases}
    checks = [succ for node in _nodes(trees[-1].root) for key, succ in node.next.items() if key in basis_ids]
    assert checks and all(check.leaf.shape == (cfg.dim, cfg.dim) for check in checks)
    assert len(tabled) == len(checks)


def _reference_walk(node, state, leg):
    """(node, state) at the end of `leg` for each grown path from `node`,
    whose state is `state`, by the single-state reference routes; each grown
    node on the way is checked: its successors are its state's outcomes with
    support, with their probabilities, each recording its outcome."""
    if not leg:
        yield node, state
        return
    if not node.next:
        return
    edge = leg[0]
    assert {outcome: succ.prob for outcome, succ in node.next.items()} == oracles.branches(edge, state)
    for outcome, succ in node.next.items():
        assert succ.notes == (node.notes if edge.key is None else {**node.notes, edge.key: outcome})
        yield from _reference_walk(succ, oracles.take(edge, state, outcome), leg[1:])


def _check_tree(tree, cfg, eve, mode):
    """Every node the walk grew, against the reference routes: branch
    probabilities and notes, each control node's joint table, and each
    message leaf's decode and guess. Returns the message leaves' count of
    readout outcomes with support."""
    supports = []
    for post, state in _reference_walk(tree.root, tree.state, tree.forward):
        for key, succ in post.next.items():
            if isinstance(key, str):
                entry = next(entry for entry in mode.bases if entry.basis_id == key)
                assert np.array_equal(succ.leaf, protocol.pair_probs(state, entry.basis))
                continue
            encoded = protocol.dense_encode(state, *key)
            ends = list(_reference_walk(succ, encoded, tree.returned))
            for leaf, final in ends:
                if leaf.leaf is not None:
                    guess = eve.guess(leaf.notes)
                    assert leaf.leaf == (protocol.bob_decode(factor(final, ("h", "t")), cfg), -1 if guess is None else guess)
            supports.append(len(ends))
    return supports



# (attack, dim, kind): every coupling attack whose readout measures all of Eve's registers.
READOUTS = [
    *[(attack, 2, kind) for attack in ("cnot", "pavicic", "qudit-shift", "generic") for kind in protocol.KINDS],
    *[("qudit-shift", d, "qudit_beta00") for d in range(3, 8)],
    ("generic", 3, "qudit_beta00"),
]


@pytest.mark.parametrize("case", READOUTS, ids=lambda c: f"{c[0]}-d{c[1]}-{c[2]}")
def test_the_readout_pair_is_the_factor_of_the_collapsed_state(case):
    """A coupling attack's return leg ends in a `ReadoutEdge`, whose
    post-states are (home, travel) pairs equal, up to a global phase, to
    `factor` of `collapse`'s state: for each symbol pair after Q^-1 (one
    outcome with support) and before it (several), every outcome with
    support."""
    attack, dim, kind = case
    cfg, eve, _ = _setup((attack, "computational", dim, kind), 0.0, 5)
    tree = SessionTree(cfg, eve)
    readout = tree.returned[-1]
    assert type(readout) is ReadoutEdge and tree.returned[:-1] == eve.backward_leg
    assert (readout.labels, readout.basis, readout.key) == (eve.readout_leg[0].labels, eve.readout_leg[0].basis, "readout")
    mu, nu = np.divmod(np.arange(dim * dim), dim)
    encoded = protocol.dense_encode(oracles.run_leg(tree.forward, tree.state, None, {}), mu, nu)
    returned = oracles.run_leg(eve.backward_leg, encoded, None, {})
    states = StateVector(encoded.layout, np.concatenate([returned.amps, encoded.amps]))
    table = born_table(states, readout.labels, readout.basis)
    rows, outcomes = np.nonzero(table.probs > 0.0)
    assert len(rows) > len(states.amps)
    pairs = readout.post(table, rows, outcomes)
    want = factor(protocol.collapse(table, outcomes, rows), ("h", "t"))
    assert pairs.layout == want.layout == protocol.pair_layout(dim)
    assert np.min(np.abs(np.sum(pairs.amps.conj() * want.amps, axis=1))) >= 1 - 1e-12


@pytest.mark.usefixtures("fresh_trees")
@pytest.mark.parametrize("case", [COUPLINGS[0], COUPLINGS[2], COUPLINGS[4], COUPLINGS[9], COUPLINGS[-1], INTERCEPT_RESEND[2]],
                         ids=lambda c: f"{c[0]}-d{c[2]}")
def test_coupling_message_leaves_collapse_nothing_and_factor_does_no_work(case, monkeypatch):
    """A coupling attack's message leaves take their pairs off the readout
    table: no `collapse`, and `factor` returns each stack it is given as it
    is. No attack (no readout) and intercept-resend (a return leg that ends
    in the swap) still factor the full state, and intercept-resend still
    collapses. Transcripts equal the stepper's either way."""
    collapsed, factored = [], []
    original_collapse, original_factor = protocol.collapse, protocol.factor

    def counting_collapse(table, outcome, rows=None):
        collapsed.append(table.labels)
        return original_collapse(table, outcome, rows)

    def counting_factor(state, keep):
        got = original_factor(state, keep)
        factored.append((state.layout.labels, got is state))
        return got

    monkeypatch.setattr(protocol, "collapse", counting_collapse)
    monkeypatch.setattr(protocol, "factor", counting_factor)
    cfg, eve, mode = _setup(case, 0.0, 4, cycles=30)
    _both(cfg, draw_message(cfg.dim, 30, 4), eve, mode)
    assert factored
    if case in INTERCEPT_RESEND:
        assert collapsed and set(factored) == {(("h", "t", "e"), False)}
    elif eve.readout_leg:
        assert collapsed == [] and set(factored) == {(("h", "t"), True)}
    else:
        assert collapsed == [] and set(factored) == {(("h", "t", "e"), False)}

def test_stacked_readouts_with_several_supported_outcomes_match_the_reference(monkeypatch):
    """A random generic family: each readout leaves several outcomes with
    support (float leakage gives the unpicked ones tiny probabilities), so
    stacked states grow different numbers of successors. Transcripts equal
    the stepper's, and every grown node equals the single-state routes."""
    monkeypatch.setattr(rand, "CHUNK", SMALL_CHUNK)
    trees = _built_trees(monkeypatch)
    for dim, anc in ((3, 4), (4, 7)):
        rng = np.random.default_rng(dim)
        eve = generic_coupling(dim, rand_family(rng, anc, dim), rand_family(rng, anc, dim))
        cfg = ProtocolConfig(dim, 0.2, 3 * SMALL_CHUNK, 3, "qudit_beta00")
        mode = control_mode.from_name("computational", cfg)
        assert len(_both(cfg, draw_message(dim, cfg.n_cycles, 3), eve, mode)) == cfg.n_cycles
        supports = _check_tree(trees[-1], cfg, eve, mode)
        assert len(supports) > dim and max(supports) > 1


@pytest.mark.usefixtures("fresh_trees")
@pytest.mark.parametrize("case", [COUPLINGS[8], INTERCEPT_RESEND[2]], ids=lambda c: f"{c[0]}-d{c[2]}")
def test_a_later_chunk_replays_the_path_to_a_node_it_first_reaches(case, monkeypatch):
    """2 x CHUNK cycles. A qudit-shift message of one pair for the first
    chunk, then every pair: the second chunk reaches new symbol pairs of a
    post-forward node the first chunk built. All-control intercept-resend
    with a first chunk of few cycles: the second chunk reaches `genuine`
    outcomes the first only grew. Either replays a path from its start
    state; transcripts and nodes equal the references."""
    chunk = 4
    monkeypatch.setattr(rand, "CHUNK", chunk)
    control_prob = 1.0 if case in INTERCEPT_RESEND else 0.0
    cfg, eve, mode = _setup(case, control_prob, 2, cycles=2 * chunk)
    pairs = [(mu, nu) for mu in range(cfg.dim) for nu in range(cfg.dim)]
    message = [(0, 0)] * chunk + pairs[::-1][:chunk]
    replays, original = [], protocol._replay

    def recording(leg, states, nodes):
        replays.append((len(leg), len(nodes)))
        return original(leg, states, nodes)

    monkeypatch.setattr(protocol, "_replay", recording)
    trees = _built_trees(monkeypatch)
    assert len(_both(cfg, message, eve, mode)) == cfg.n_cycles
    _check_tree(trees[-1], cfg, eve, mode)
    replays = [depth for depth, _ in replays if depth]  # past a start state
    if case in INTERCEPT_RESEND:
        # a `genuine` outcome (through the swap) and a post-forward node
        assert sorted(replays) == [2, 3]
    else:
        # the post-forward node, for its new pairs
        assert replays == [len(eve.forward_leg)]


@pytest.mark.usefixtures("fresh_trees")
def test_no_stack_holds_more_than_the_slice_bound(monkeypatch):
    """Every state a session's kernels take or give is one state, or a
    stack of at most SLICE_AMPS amplitudes; stacks of several states do
    occur."""
    stacks = []

    def recording(name):
        original = getattr(protocol, name)

        def kernel(*args):
            out = original(*args)
            for value in (*args, out):
                if isinstance(value, StateVector) and value.amps.ndim == 2:
                    stacks.append(value.amps.shape)
            return out

        monkeypatch.setattr(protocol, name, kernel)

    for name in ("apply", "born_table", "collapse", "factor", "dense_encode", "bob_decode"):
        recording(name)
    for dim, cycles in ((7, 400), (16, 300)):
        cfg, eve, mode = _setup(("qudit-shift", "computational", dim, "qudit_beta00"), 0.1, 4, cycles=cycles)
        run_session(cfg, draw_message(dim, cycles, 4), eve, mode)
    assert max(rows for rows, _ in stacks) > 1
    assert all(rows == 1 or rows * size <= protocol.SLICE_AMPS for rows, size in stacks)
