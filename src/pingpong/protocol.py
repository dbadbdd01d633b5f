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
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

import numpy as np

from .qstate import (
    Basis,
    Operator,
    StateVector,
    SubsystemLayout,
    apply,
    born_table,
    collapse,
    factor,
    pick,
    running_sum,
)
from .rand import SESSION_TAG, cycle_streams

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

# Upper bounds on a session's size. MAX_DIM also bounds the length of a generic
# family's ancilla states, so a coupling on travel (x) ancilla is at most a
# 16 MB matrix. The cycle bound keeps each cycle index within the one 32-bit
# word `rand.cycle_keys` hashes.
MAX_DIM = 32
MAX_CYCLES = 10**6


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
        if self.dim > MAX_DIM:
            raise ValueError(f"dim must be <= {MAX_DIM}, got {self.dim}")
        if not 0.0 <= self.control_prob <= 1.0:
            raise ValueError(f"control_prob must be in [0, 1], got {self.control_prob}")
        if self.n_cycles < 0:
            raise ValueError(f"n_cycles must be non-negative, got {self.n_cycles}")
        if self.n_cycles > MAX_CYCLES:
            raise ValueError(f"n_cycles must be <= {MAX_CYCLES}, got {self.n_cycles}")
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
        """Dense-coding unitary X^mu Z^nu (phase first, then shift), built in
        closed form: |k> goes to exp(2 pi i ((nu k) mod D) / D) |k + mu mod D>.
        It is monomial, so `apply` moves amplitudes instead of multiplying by
        the matrix."""
        if not (0 <= mu < self.dim and 0 <= nu < self.dim):
            raise ValueError(f"symbols ({mu}, {nu}) out of range for dim {self.dim}")
        return _encoding_operator(self.dim, mu, nu)


def _weyl_phases(dim: int, nu) -> np.ndarray:
    """exp(2 pi i ((nu k) mod D) / D) over the levels k, for each nu given."""
    return np.exp(2j * np.pi * (np.multiply.outer(nu, np.arange(dim)) % dim) / dim)


@lru_cache(maxsize=None)
def _encoding_operator(dim: int, mu: int, nu: int) -> Operator:
    levels = np.arange(dim)
    m = np.zeros((dim, dim), dtype=np.complex128)
    m[(levels + mu) % dim, levels] = _weyl_phases(dim, nu)
    return Operator.unitary(m)


@lru_cache(maxsize=None)
def algebra(dim: int) -> QuditAlgebra:
    if dim < 2:
        raise ValueError("algebra requires dim >= 2")
    omega = complex(np.exp(2j * np.pi / dim))
    return QuditAlgebra(dim, omega, _encoding_operator(dim, 1, 0), _encoding_operator(dim, 0, 1))


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


def _bell_matrix(dim: int, kind: str) -> np.ndarray:
    """Columns are the encoded Bell states, ordered by mu*dim + nu: the pair
    with its travel axis phased by nu, then rolled by mu."""
    cfg = ProtocolConfig(dim=dim, control_prob=0.0, n_cycles=1, seed=0, initial_state_kind=kind)
    pair = make_initial_state(cfg).amps.reshape(dim, dim)
    h, t = np.nonzero(pair)
    levels = np.arange(dim)
    # X^mu Z^nu takes each |h, t> of the pair's support to
    # exp(2 pi i ((nu t) mod D) / D) |h, t + mu>; as [h, t + mu, mu, nu].
    mat = np.zeros((dim, dim, dim, dim), dtype=np.complex128)
    amps = (pair[h, t] * _weyl_phases(dim, levels)[:, t]).T  # [support, nu]
    mat[h[:, None], (t[:, None] + levels) % dim, levels] = amps[:, None, :]
    return mat.reshape(dim * dim, dim * dim)


@lru_cache(maxsize=None)
def _decoder_matrix(dim: int, kind: str) -> np.ndarray:
    """The conjugate transpose of `_bell_matrix`, kept per (dim, kind) in
    place of the Bell matrix: row mu*dim + nu gives an encoded Bell state's
    overlap with a pair."""
    dec = _bell_matrix(dim, kind).conj().T
    dec.flags.writeable = False
    return dec


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
    overlaps = np.abs(_decoder_matrix(cfg.dim, cfg.initial_state_kind) @ state.amps)
    best = int(np.argmax(overlaps))
    if overlaps[best] <= 1.0 - DECODE_ATOL:
        raise CoherenceBreakError(
            f"no Bell state matches (best overlap {overlaps[best]:.6f}); pair was disturbed"
        )
    return divmod(best, cfg.dim)


# --- branch edges ---------------------------------------------------------------
#
# An eavesdropper handle describes each leg of its attack as a tuple of edges.
# An edge states two things. `branches` lists its outcomes from one state as
# (outcome, probability, post-state), lazily; `walk_leg` reads them for the
# exact ensemble a leg leaves behind. `draw` picks one outcome with the
# edge's draws from a cycle's `rng` (None: the edge draws nothing and has one
# outcome, None); `key` names the notes entry that records it. `follow` walks
# a leg's edges through a session's branch tree: a node's first visit grows
# its successors from the edge's `branches`, and every visit picks one by the
# edge's `draw`. The per-cycle stepwise reference is `tests/oracles.py::step`.


class _Node:
    """A state of a session's branch tree and the nodes it leads to.

    Each node is left by one edge only, except the post-forward node, whose
    successors `run_session` keys by control basis and by symbol pair. A node
    gives up its state once its successors or its leaf record are built.
    """

    __slots__ = ("state", "notes", "prob", "next", "draw", "probs", "cum", "leaf")

    def __init__(self, state: StateVector, notes: dict, prob: float = 1.0):
        self.state = state
        self.notes = notes  # outcomes recorded on the path to this node
        self.prob = prob  # probability of the branch from the parent
        self.next: dict = {}
        self.draw = self.probs = self.cum = self.leaf = None

    def child(self, key, make) -> "_Node":
        """The successor under `key`, from `make(state)` on first use."""
        node = self.next.get(key)
        if node is None:
            node = self.next[key] = _Node(make(self.state), self.notes)
        return node


def follow(leg: Sequence, node: _Node, rng) -> _Node:
    """The node the edges of `leg` lead to from `node`, each edge's draw from
    `rng` selecting a successor.

    A node's first visit grows one successor per branch of the edge that
    leaves it, with the outcome recorded under `edge.key`, keeps the edge's
    draw and drops the node's state.
    """
    for edge in leg:
        if not node.next:
            key, notes = edge.key, node.notes
            node.next = {
                outcome: _Node(state, notes if key is None else {**notes, key: outcome}, p)
                for outcome, p, state in edge.branches(node.state)
            }
            node.draw, node.state = edge.draw, None
        draw = node.draw
        node = node.next[None if draw is None else draw(rng, node)]
    return node


@dataclass(frozen=True, eq=False)
class UnitaryEdge:
    """A fixed unitary on the target registers; draws nothing."""

    op: Operator
    targets: tuple[str, ...]
    key = draw = None

    def branches(self, state: StateVector) -> Iterator:
        yield None, 1.0, apply(state, self.op, self.targets)


@dataclass(frozen=True, eq=False)
class MeasureEdge:
    """A projective measurement of `labels` in `basis`; one uniform draw.

    `key` records the outcome in the notes.
    """

    labels: tuple[str, ...]
    basis: Basis
    key: str

    def branches(self, state: StateVector) -> Iterator:
        """Each outcome with support, its Born probability and collapsed state."""
        table = born_table(state, self.labels, self.basis)
        for outcome in np.flatnonzero(table.probs > 0.0).tolist():
            yield outcome, float(table.probs[outcome]), collapse(table, outcome).state

    def draw(self, rng, node: _Node) -> int:
        """The outcome one uniform picks from the node's Born table. The first
        draw rebuilds the table over every outcome, zeros included, from the
        successors' probabilities, so it equals `born_table`'s bit for bit."""
        if node.cum is None:
            node.probs = np.zeros(self.basis.dim)
            for outcome, succ in node.next.items():
                node.probs[outcome] = succ.prob
            node.cum = running_sum(node.probs)
        return pick(node.probs, node.cum, rng.random())


@dataclass(frozen=True, eq=False)
class DrawEdge:
    """One uniform draw f of `integers(len(ops))`, then ops[f] on the targets.

    None in `ops` applies nothing. `key` records f in the notes.
    """

    key: str
    ops: tuple[Optional[Operator], ...]
    targets: tuple[str, ...]

    def branches(self, state: StateVector) -> Iterator:
        n = len(self.ops)
        for f, op in enumerate(self.ops):
            yield f, 1.0 / n, state if op is None else apply(state, op, self.targets)

    def draw(self, rng, node: _Node) -> int:
        """f from one `integers` draw; reads no table."""
        return int(rng.integers(len(self.ops)))


def walk_leg(leg: Sequence, state: StateVector, prob: float = 1.0) -> Iterator:
    """Every branch one handle leg makes of `state`, as (probability, state),
    depth-first and one at a time."""
    if not leg:
        yield prob, state
        return
    for _, p, post in leg[0].branches(state):
        yield from walk_leg(leg[1:], post, prob * p)


def run_session(
    cfg: ProtocolConfig,
    message: Sequence[tuple[int, int]],
    eve: "EavesdropperHandle",
    control: "ControlModeHandle",
) -> list[CycleRecord]:
    """Run n_cycles of the protocol and return the per-cycle transcript.

    Each cycle draws from its own derived stream, the draws of
    `stream(seed, SESSION_TAG, k)` (see `rand.cycle_streams`), so transcripts
    are reproducible cycle-by-cycle. The states a cycle can reach form a branch
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
    forward, returned = eve.forward_leg, eve.backward_leg + eve.readout_leg
    checks = {
        cb.basis_id: (MeasureEdge((TRAVEL,), cb.basis, "alice"), MeasureEdge((HOME,), cb.basis, "bob"))
        for cb in control.bases
    }
    records: list[CycleRecord] = []
    msg_idx = 0
    for k, rng in enumerate(cycle_streams(cfg.seed, SESSION_TAG, cfg.n_cycles)):
        sent = follow(forward, root, rng)
        if rng.random() < cfg.control_prob:
            chosen = control.draw(rng)
            node = sent.child(chosen.basis_id, lambda state: state)
            node = follow(checks[chosen.basis_id], node, rng)
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
            node = follow(returned, node, rng)
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
