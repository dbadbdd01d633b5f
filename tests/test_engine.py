"""The session engine's branch tree against the per-cycle reference stepper.

`run_session` builds each node of a session's branch tree once and then only
samples; `oracles.stepwise_session` evolves fresh state vectors on every
cycle. Both draw from the same per-cycle streams, so their transcripts, and
the errors they raise, must be identical. Edge by edge, `protocol.follow`
from a fresh node must give what `oracles.step` gives on the node's state.
"""

import numpy as np
import pytest

import oracles
from conftest import rand_family, rand_state, rand_unitary
from pingpong import attacks
from pingpong import control as control_mode
from pingpong import protocol
from pingpong.attacks import generic_coupling
from pingpong.cli import draw_message
from pingpong.protocol import (
    CoherenceBreakError,
    DrawEdge,
    MeasureEdge,
    ProtocolConfig,
    UnitaryEdge,
    algebra,
    follow,
    run_session,
)
from pingpong.qstate import Basis, Operator, StateVector, SubsystemLayout, born_table, pick
from pingpong.rand import SESSION_TAG, stream

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
    """The transcript, or the type and message of the error raised."""
    try:
        return session(cfg, message, eve, mode)
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


class _Uniform:
    """A stand-in generator whose `random()` returns one fixed value."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", ("unitary", "measure", "draw", "measure-sparse"))
def test_follow_from_a_fresh_node_matches_step(kind, seed):
    edge, state = _edge_case(kind)
    for k in range(20):
        rng_follow, rng_step = stream(seed, SESSION_TAG, k), stream(seed, SESSION_TAG, k)
        node = protocol._Node(state, {"earlier": 1})
        succ = follow((edge,), node, rng_follow)
        notes = {"earlier": 1}
        post = oracles.step(edge, state, rng_step, notes)
        assert np.array_equal(succ.state.amps, post.amps)
        assert succ.notes == notes
        assert rng_follow.random() == rng_step.random()


def test_measure_follow_picks_from_the_full_born_table():
    """At every running-sum boundary of a sparse table, and one ulp to either
    side, `follow` picks the outcome `step` picks."""
    edge, state = _edge_case("measure-sparse")
    table = born_table(state, edge.labels, edge.basis)
    uniforms = [u for c in table.cum[:-1] for u in (np.nextafter(c, 0.0), c, np.nextafter(c, 1.0))]
    for u in uniforms:
        succ = follow((edge,), protocol._Node(state, {}), _Uniform(u))
        notes = {}
        oracles.step(edge, state, _Uniform(u), notes)
        assert succ.notes == notes
    # the boundaries tell the full table from one over the supported outcomes
    support = np.array(SPARSE_SUPPORT)
    supported = table.probs[support]
    short_cum = np.cumsum(supported / supported.sum())
    assert any(
        support[pick(supported, short_cum, u)] != pick(table.probs, table.cum, u) for u in uniforms
    )
