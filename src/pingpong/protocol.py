"""Ping-pong protocol state machine for arbitrary qudit dimension.

Bob keeps the home qudit (label "h") and sends the travel qudit ("t") to
Alice, who either dense-codes a symbol pair onto it (message mode) or
measures it for a correlation check (control mode). An eavesdropper handle
acts on the travel leg in both directions, described as the branch edges
defined here; `run_session` follows them through a per-session branch tree,
and `walk_leg` yields the exact ensemble a leg leaves behind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

import numpy as np

from .qstate import (
    Basis,
    BornTable,
    Operator,
    StateVector,
    SubsystemLayout,
    apply,
    born_table,
    collapse,
    factor,
    measure,
    pick,
)
from .rand import SESSION_TAG, stream

if TYPE_CHECKING:  # pragma: no cover
    from .attacks import EavesdropperHandle
    from .control import ControlModeHandle

HOME = "h"
TRAVEL = "t"

QUBIT_SINGLET = "qubit_psi_minus"
QUDIT_CORRELATED = "qudit_beta00"
KINDS = (QUBIT_SINGLET, QUDIT_CORRELATED)

# Bell-basis match threshold for Bob's decoder.
DECODE_ATOL = 1e-9


class CoherenceBreakError(RuntimeError):
    """Bob's collective measurement found no encoded Bell state.

    Signals a detectable disturbance of the shared pair, not a code bug.
    """


@dataclass(frozen=True)
class ProtocolConfig:
    dim: int
    control_prob: float
    n_cycles: int
    seed: int
    initial_state_kind: str = QUBIT_SINGLET

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"dimension must be >= 2, got {self.dim}")
        if not 0.0 <= self.control_prob <= 1.0:
            raise ValueError(f"control_prob must be in [0, 1], got {self.control_prob}")
        if self.n_cycles < 0:
            raise ValueError(f"n_cycles must be non-negative, got {self.n_cycles}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.initial_state_kind not in KINDS:
            raise ValueError(f"unknown initial state kind {self.initial_state_kind!r}")
        if self.initial_state_kind == QUBIT_SINGLET and self.dim != 2:
            raise ValueError("qubit_psi_minus requires dim = 2")


@dataclass(frozen=True)
class QuditAlgebra:
    """Generalized cyclic-shift X and phase Z gates for one qudit."""

    dim: int
    omega: complex
    shift: Operator
    phase: Operator

    def encoding(self, mu: int, nu: int) -> Operator:
        """Dense-coding unitary X^mu Z^nu (phase first, then shift)."""
        if not (0 <= mu < self.dim and 0 <= nu < self.dim):
            raise ValueError(f"symbols ({mu}, {nu}) out of range for dim {self.dim}")
        return _encoding_operator(self.dim, mu, nu)


@lru_cache(maxsize=None)
def _encoding_operator(dim: int, mu: int, nu: int) -> Operator:
    alg = algebra(dim)
    m = np.linalg.matrix_power(alg.shift.matrix, mu) @ np.linalg.matrix_power(
        alg.phase.matrix, nu
    )
    return Operator.unitary(m)


@lru_cache(maxsize=None)
def algebra(dim: int) -> QuditAlgebra:
    if dim < 2:
        raise ValueError("algebra requires dim >= 2")
    omega = np.exp(2j * np.pi / dim)
    shift = np.zeros((dim, dim), dtype=np.complex128)
    for k in range(dim):
        shift[(k + 1) % dim, k] = 1.0
    phase = np.diag(omega ** np.arange(dim))
    return QuditAlgebra(dim, complex(omega), Operator.unitary(shift), Operator.unitary(phase))


@dataclass(frozen=True)
class ControlOutcome:
    basis_id: str
    alice_outcome: int
    bob_outcome: int
    passed: bool


@dataclass(frozen=True)
class CycleRecord:
    index: int
    mode: str  # "message" | "control"
    alice_symbols: Optional[tuple[int, int]] = None
    bob_decoded: Optional[tuple[int, int]] = None
    control: Optional[ControlOutcome] = None
    eve_guess: Optional[int] = None

    def __post_init__(self):
        if self.mode == "message":
            if self.control is not None or self.alice_symbols is None:
                raise ValueError("message record must carry symbols and no control outcome")
        elif self.mode == "control":
            if self.control is None or self.alice_symbols is not None or self.bob_decoded is not None:
                raise ValueError("control record must carry a control outcome only")
        else:
            raise ValueError(f"unknown mode {self.mode!r}")


def pair_layout(dim: int) -> SubsystemLayout:
    return SubsystemLayout.of((HOME, dim), (TRAVEL, dim))


def make_initial_state(cfg: ProtocolConfig) -> StateVector:
    """Bob's shared pair: the singlet for the qubit kind, (1/sqrt D) sum |kk>
    for the qudit kind."""
    layout = pair_layout(cfg.dim)
    amps = np.zeros(layout.dim, dtype=np.complex128)
    if cfg.initial_state_kind == QUBIT_SINGLET:
        amps[0 * 2 + 1] = 1.0 / math.sqrt(2)
        amps[1 * 2 + 0] = -1.0 / math.sqrt(2)
    else:
        for k in range(cfg.dim):
            amps[k * cfg.dim + k] = 1.0 / math.sqrt(cfg.dim)
    return StateVector(layout, amps)


def dense_encode(state: StateVector, mu: int, nu: int, alg: QuditAlgebra) -> StateVector:
    """Alice's dense coding: apply X^mu Z^nu on the travel register only."""
    return apply(state, alg.encoding(mu, nu), TRAVEL)


@lru_cache(maxsize=None)
def _bell_matrix(dim: int, kind: str) -> np.ndarray:
    """Columns are the encoded Bell states, ordered by mu*dim + nu."""
    cfg = ProtocolConfig(dim=dim, control_prob=0.0, n_cycles=1, seed=0, initial_state_kind=kind)
    init = make_initial_state(cfg)
    alg = algebra(dim)
    cols = [
        dense_encode(init, mu, nu, alg).amps
        for mu in range(dim)
        for nu in range(dim)
    ]
    mat = np.column_stack(cols)
    mat.flags.writeable = False
    return mat


def bell_states(cfg: ProtocolConfig) -> Basis:
    """The generalized Bell basis used by Bob's collective measurement."""
    return Basis(_bell_matrix(cfg.dim, cfg.initial_state_kind), "bell")


def bob_decode(state: StateVector, cfg: ProtocolConfig) -> tuple[int, int]:
    """Identify the symbol pair whose encoded Bell state matches `state`.

    The match is by squared overlap, so global phases are ignored. Raises
    CoherenceBreakError when no Bell-basis element reaches overlap
    1 - 1e-9, which is how a disturbed pair shows up.
    """
    if state.layout.labels != (HOME, TRAVEL):
        raise ValueError(f"decoder expects labels (h, t), got {state.layout.labels}")
    overlaps = np.abs(_bell_matrix(cfg.dim, cfg.initial_state_kind).conj().T @ state.amps)
    best = int(np.argmax(overlaps))
    if overlaps[best] <= 1.0 - DECODE_ATOL:
        raise CoherenceBreakError(
            f"no Bell state matches (best overlap {overlaps[best]:.6f}); pair was disturbed"
        )
    return divmod(best, cfg.dim)


# --- branch edges ---------------------------------------------------------------
#
# An eavesdropper handle describes each leg of its attack as a tuple of edges.
# `branches` lists an edge's outcomes from one state as (outcome, probability,
# post-state), lazily: `walk_leg` reads it for the exact ensemble a leg leaves
# behind, and `follow` for the successors of a node of a session's branch
# tree, which it builds on the first visit and afterwards only draws among.
# `run` takes the edge on one state, the per-cycle reference; `run` and
# `follow` make the same draws from `rng`.


class _Node:
    """A state of a session's branch tree and the nodes it leads to.

    Each node is left by one edge only, except the post-forward node, whose
    successors `run_session` keys by control basis and by symbol pair. A node
    gives up its state once its successors or its leaf record are built.
    """

    __slots__ = ("state", "notes", "next", "probs", "cum", "leaf")

    def __init__(self, state: StateVector, notes: dict):
        self.state = state
        self.notes = notes  # outcomes recorded on the path to this node
        self.next: dict = {}
        self.probs = self.cum = self.leaf = None

    def grow(self, branches: Iterable, key: Optional[str] = None) -> None:
        """One successor per edge branch; `key` records the outcome in its notes."""
        self.next = {
            outcome: _Node(state, self.notes if key is None else {**self.notes, key: outcome})
            for outcome, _, state in branches
        }
        self.state = None

    def child(self, key, make) -> "_Node":
        """The successor under `key`, from `make(state)` on first use."""
        node = self.next.get(key)
        if node is None:
            node = self.next[key] = _Node(make(self.state), self.notes)
        return node


@dataclass(frozen=True, eq=False)
class UnitaryEdge:
    """A fixed unitary on the target registers; draws nothing."""

    op: Operator
    targets: tuple[str, ...]

    def branches(self, state: StateVector) -> Iterator:
        yield None, 1.0, apply(state, self.op, self.targets)

    def run(self, state: StateVector, rng, notes: dict) -> StateVector:
        return apply(state, self.op, self.targets)

    def follow(self, node: _Node, rng) -> _Node:
        if not node.next:
            node.grow(self.branches(node.state))
        return node.next[None]


@dataclass(frozen=True, eq=False)
class MeasureEdge:
    """A projective measurement of `labels` in `basis`; one uniform draw.

    `key` records the outcome in the notes.
    """

    labels: tuple[str, ...]
    basis: Basis
    key: str

    def branches(self, state: StateVector) -> Iterator:
        return self._collapses(born_table(state, self.labels, self.basis))

    @staticmethod
    def _collapses(table: BornTable) -> Iterator:
        """Each outcome with support, its Born probability and collapsed state."""
        for outcome in np.flatnonzero(table.probs > 0.0).tolist():
            yield outcome, float(table.probs[outcome]), collapse(table, outcome).state

    def run(self, state: StateVector, rng, notes: dict) -> StateVector:
        got = measure(state, self.labels, self.basis, rng)
        notes[self.key] = got.outcome
        return got.state

    def follow(self, node: _Node, rng) -> _Node:
        if node.probs is None:
            table = born_table(node.state, self.labels, self.basis)
            node.probs, node.cum = table.probs, table.cum
            node.grow(self._collapses(table), self.key)
        return node.next[pick(node.probs, node.cum, rng.random())]


@dataclass(frozen=True, eq=False)
class DrawEdge:
    """One uniform draw f of `integers(len(ops))`, then ops[f] on the targets.

    None in `ops` applies nothing. `key` records f in the notes.
    """

    key: str
    ops: tuple[Optional[Operator], ...]
    targets: tuple[str, ...]

    def _take(self, state: StateVector, f: int) -> StateVector:
        op = self.ops[f]
        return state if op is None else apply(state, op, self.targets)

    def branches(self, state: StateVector) -> Iterator:
        n = len(self.ops)
        for f in range(n):
            yield f, 1.0 / n, self._take(state, f)

    def run(self, state: StateVector, rng, notes: dict) -> StateVector:
        f = int(rng.integers(len(self.ops)))
        notes[self.key] = f
        return self._take(state, f)

    def follow(self, node: _Node, rng) -> _Node:
        if not node.next:
            node.grow(self.branches(node.state), self.key)
        return node.next[int(rng.integers(len(self.ops)))]


def run_leg(leg: Sequence, state: StateVector, rng, notes: dict) -> StateVector:
    """Take the edges of one handle leg on `state`, in order."""
    for edge in leg:
        state = edge.run(state, rng, notes)
    return state


def walk_leg(leg: Sequence, state: StateVector, prob: float = 1.0) -> Iterator:
    """Every branch one handle leg makes of `state`, as (probability, state),
    depth-first and one at a time."""
    if not leg:
        yield prob, state
        return
    for _, p, post in leg[0].branches(state):
        yield from walk_leg(leg[1:], post, prob * p)


def _follow(leg: Sequence, node: _Node, rng) -> _Node:
    for edge in leg:
        node = edge.follow(node, rng)
    return node


def run_session(
    cfg: ProtocolConfig,
    message: Sequence[tuple[int, int]],
    eve: "EavesdropperHandle",
    control: "ControlModeHandle",
) -> list[CycleRecord]:
    """Run n_cycles of the protocol and return the per-cycle transcript.

    Each cycle draws from its own derived stream, so transcripts are
    reproducible cycle-by-cycle. The states a cycle can reach form a branch
    tree: Eve's forward leg; then per control basis Alice's and Bob's
    measurements, or per symbol pair the encoded state, Eve's backward and
    readout legs and Bob's decode. A node builds its Born table and its
    successors on the first cycle that reaches it; later cycles only draw.
    Message symbols are consumed from `message` in order; running out
    raises. A coherence break in Bob's decoder propagates from the first
    cycle that reaches the disturbed state.
    """
    for mu, nu in message:
        if not (0 <= mu < cfg.dim and 0 <= nu < cfg.dim):
            raise ValueError(f"message symbols ({mu}, {nu}) out of range for dim {cfg.dim}")
    alg = algebra(cfg.dim)
    root = _Node(eve.attach(make_initial_state(cfg)), {})
    forward, backward, readout = eve.forward_leg, eve.backward_leg, eve.readout_leg
    checks = {
        cb.basis_id: (MeasureEdge((TRAVEL,), cb.basis, "alice"), MeasureEdge((HOME,), cb.basis, "bob"))
        for cb in control.bases
    }
    records: list[CycleRecord] = []
    msg_idx = 0
    for k in range(cfg.n_cycles):
        rng = stream(cfg.seed, SESSION_TAG, k)
        sent = _follow(forward, root, rng)
        if rng.random() < cfg.control_prob:
            chosen = control.draw(rng)
            alice, bob = checks[chosen.basis_id]
            node = sent.child(chosen.basis_id, lambda state: state)
            node = bob.follow(alice.follow(node, rng), rng)
            if node.leaf is None:
                a, b = node.notes["alice"], node.notes["bob"]
                node.leaf = ControlOutcome(
                    basis_id=chosen.basis_id,
                    alice_outcome=a,
                    bob_outcome=b,
                    passed=control.passes(chosen.basis_id, a, b),
                )
                node.state = None
            records.append(CycleRecord(index=k, mode="control", control=node.leaf))
        else:
            if msg_idx >= len(message):
                raise ValueError("message exhausted before the session finished")
            mu, nu = message[msg_idx]
            msg_idx += 1
            node = sent.child((mu, nu), lambda state: dense_encode(state, mu, nu, alg))
            node = _follow(readout, _follow(backward, node, rng), rng)
            if node.leaf is None:
                decoded = bob_decode(factor(node.state, (HOME, TRAVEL)), cfg)
                node.leaf = (decoded, eve.guess(node.notes))
                node.state = None
            decoded, guess = node.leaf
            records.append(
                CycleRecord(
                    index=k,
                    mode="message",
                    alice_symbols=(mu, nu),
                    bob_decoded=decoded,
                    eve_guess=guess,
                )
            )
    return records
