"""Ping-pong protocol state machine for arbitrary qudit dimension.

Bob keeps the home qudit (label "h") and sends the travel qudit ("t") to
Alice, who either dense-codes a symbol pair onto it (message mode) or
measures it for a correlation check (control mode). An eavesdropper handle
acts on the travel leg in both directions, described as the branch edges
defined here; `walk_leg` yields the exact ensemble a leg leaves behind.

`run_session` follows the edges through a per-session branch tree for a
chunk of cycles at a time: each tree level's draws come from the cycles'
streams in one vectorized call (`rand.CycleDraws`), each node splits its
cycles among its successors with array operations, and the session comes
back as a columnar `Transcript`, which yields a `CycleRecord` per cycle
when iterated.
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
from .rand import SESSION_TAG, cycle_draws

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
# An edge states three things. `branches` lists its outcomes from one state
# as (outcome, probability, post-state), lazily; `walk_leg` reads them for
# the exact ensemble a leg leaves behind. `draw` takes the edge's draw for
# each of a group of cycles from a `rand.CycleDraws` (None: the edge draws
# nothing and has one outcome, None), and `outcomes` maps those draws to
# outcomes at one node; `key` names the notes entry that records the
# outcome. `draw_leg` takes a leg's draws for a group of cycles one edge, so
# one tree level, at a time, and `follow` walks the leg's edges through a
# session's branch tree with them: a node's first visit grows its successors
# from the edge's `branches`, and each node splits its cycles among its
# successors by their outcomes. The per-cycle stepwise reference is
# `tests/oracles.py::step`.


class _Node:
    """A state of a session's branch tree and the nodes it leads to.

    Each node is left by one edge only, except the post-forward node, whose
    successors `run_session` keys by control basis and by symbol pair. A node
    gives up its state once its successors or its leaf values are built.
    """

    __slots__ = ("state", "notes", "prob", "next", "probs", "cum", "leaf")

    def __init__(self, state: StateVector, notes: dict, prob: float = 1.0):
        self.state = state
        self.notes = notes  # outcomes recorded on the path to this node
        self.prob = prob  # probability of the branch from the parent
        self.next: dict = {}
        self.probs = self.cum = self.leaf = None

    def child(self, key, make) -> "_Node":
        """The successor under `key`, from `make(state)` on first use."""
        node = self.next.get(key)
        if node is None:
            node = self.next[key] = _Node(make(self.state), self.notes)
        return node


def _split(cycles: np.ndarray, values: np.ndarray) -> list:
    """(value, cycles) for each distinct value, smallest first, keeping the
    cycles in order."""
    if len(values) == 0:
        return []
    if len(values) == 1 or values.min() == values.max():
        return [(int(values[0]), cycles)]
    order = np.argsort(values, kind="stable")
    ranked = values[order]
    bounds = [0, *(np.flatnonzero(ranked[1:] != ranked[:-1]) + 1).tolist(), len(cycles)]
    return [(int(ranked[lo]), cycles[order[lo:hi]]) for lo, hi in zip(bounds, bounds[1:])]


def draw_leg(leg: Sequence, draws, cycles: np.ndarray) -> list:
    """Each edge's draw for every listed cycle, one call per edge in leg
    order, as columns indexed by the chunk's cycles (None for an edge that
    draws nothing). Every cycle takes every edge of a leg, so its draws do
    not depend on the outcomes."""
    taken = []
    for edge in leg:
        if edge.draw is None:
            taken.append(None)
            continue
        values = edge.draw(draws, cycles)
        column = np.empty(len(draws), dtype=values.dtype)
        column[cycles] = values
        taken.append(column)
    return taken


def follow(leg: Sequence, node: _Node, cycles: np.ndarray, taken: list) -> Iterator:
    """Each (node, cycles) the edges of `leg` lead the given cycles to from
    `node`, depth-first, with the draws `draw_leg` took for them.

    A node's first visit grows one successor per branch of the edge that
    leaves it, with the outcome recorded under `edge.key`, and drops the
    node's state; a node's cycles are split among its successors by their
    outcomes. Going depth-first, a caller that consumes each end node before
    asking for the next holds the states of one path and its siblings, not
    of a whole tree level.
    """
    if not leg:
        yield node, cycles
        return
    edge, rest = leg[0], leg[1:]
    if not node.next:
        key, notes = edge.key, node.notes
        node.next = {
            outcome: _Node(state, notes if key is None else {**notes, key: outcome}, p)
            for outcome, p, state in edge.branches(node.state)
        }
        node.state = None
    if len(node.next) == 1:  # every draw picks the one successor
        [succ] = node.next.values()
        yield from follow(rest, succ, cycles, taken[1:])
        return
    for outcome, sub in _split(cycles, edge.outcomes(node, taken[0][cycles])):
        yield from follow(rest, node.next[outcome], sub, taken[1:])


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

    def draw(self, draws, cycles: np.ndarray) -> np.ndarray:
        """One uniform per cycle."""
        return draws.random(cycles)

    def outcomes(self, node: _Node, uniforms: np.ndarray) -> np.ndarray:
        """The outcome each uniform picks from the node's Born table. The
        first pick rebuilds the table over every outcome, zeros included,
        from the successors' probabilities, so it equals `born_table`'s bit
        for bit."""
        if node.cum is None:
            node.probs = np.zeros(self.basis.dim)
            for outcome, succ in node.next.items():
                node.probs[outcome] = succ.prob
            node.cum = running_sum(node.probs)
        return pick(node.probs, node.cum, uniforms)


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

    def draw(self, draws, cycles: np.ndarray) -> np.ndarray:
        """One `integers(len(ops))` per cycle."""
        return draws.integers(cycles, len(self.ops))

    def outcomes(self, node: _Node, fs: np.ndarray) -> np.ndarray:
        """f itself; reads no table."""
        return fs


def walk_leg(leg: Sequence, state: StateVector, prob: float = 1.0) -> Iterator:
    """Every branch one handle leg makes of `state`, as (probability, state),
    depth-first and one at a time."""
    if not leg:
        yield prob, state
        return
    for _, p, post in leg[0].branches(state):
        yield from walk_leg(leg[1:], post, prob * p)


@dataclass(frozen=True, eq=False)
class Transcript:
    """A session's cycles as columns.

    `control` marks each cycle's mode. Message cycles, in order, have
    Alice's `symbols`, Bob's `decoded` pair and Eve's shift `guess` (-1:
    she abstains); control cycles, in order, have the menu index `basis`
    into `basis_ids`, Alice's and Bob's `outcomes` and whether they
    `passed`. Iterating yields one `CycleRecord` per cycle; a transcript
    equals another, or a list, with the same records.
    """

    control: np.ndarray
    symbols: np.ndarray
    decoded: np.ndarray
    guess: np.ndarray
    basis_ids: tuple[str, ...]
    basis: np.ndarray
    outcomes: np.ndarray
    passed: np.ndarray

    def __len__(self) -> int:
        return len(self.control)

    def __iter__(self) -> Iterator[CycleRecord]:
        messages = zip(self.symbols.tolist(), self.decoded.tolist(), self.guess.tolist())
        controls = zip(self.basis.tolist(), self.outcomes.tolist(), self.passed.tolist())
        for k, is_control in enumerate(self.control.tolist()):
            if is_control:
                basis, (alice, bob), passed = next(controls)
                outcome = ControlOutcome(self.basis_ids[basis], alice, bob, passed)
                yield CycleRecord(index=k, mode="control", control=outcome)
            else:
                sent, decoded, guess = next(messages)
                yield CycleRecord(
                    index=k,
                    mode="message",
                    alice_symbols=tuple(sent),
                    bob_decoded=tuple(decoded),
                    eve_guess=None if guess < 0 else guess,
                )

    def __eq__(self, other) -> bool:
        if isinstance(other, (Transcript, list)):
            return list(self) == list(other)
        return NotImplemented


def _message_pairs(message, dim: int) -> np.ndarray:
    """`message` as an (m, 2) integer array of symbols below `dim`."""
    pairs = np.asarray(message, dtype=np.int64)
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("message must be a sequence of (mu, nu) pairs")
    bad = np.flatnonzero(((pairs < 0) | (pairs >= dim)).any(axis=1))
    if bad.size:
        mu, nu = pairs[bad[0]].tolist()
        raise ValueError(f"message symbols ({mu}, {nu}) out of range for dim {dim}")
    return pairs


def _columns(n_msg: int, n_ctrl: int) -> tuple:
    """Unfilled `Transcript` columns for n_msg message and n_ctrl control
    cycles: decoded, guess, basis, outcomes, passed."""
    return (
        np.empty((n_msg, 2), dtype=np.int64),
        np.empty(n_msg, dtype=np.int64),
        np.empty(n_ctrl, dtype=np.int64),
        np.empty((n_ctrl, 2), dtype=np.int64),
        np.empty(n_ctrl, dtype=bool),
    )


def run_session(
    cfg: ProtocolConfig,
    message,
    eve: "EavesdropperHandle",
    control: "ControlModeHandle",
) -> Transcript:
    """Run n_cycles of the protocol and return the transcript as columns.

    Each cycle draws from its own derived stream, the draws of
    `stream(seed, SESSION_TAG, k)` (see `rand.cycle_draws`), so transcripts
    are reproducible cycle-by-cycle. The states a cycle can reach form a
    branch tree: Eve's forward leg; then per control basis Alice's and Bob's
    measurements, or per symbol pair the encoded state, Eve's backward and
    readout legs and Bob's decode. The cycles are walked through the tree a
    chunk at a time (`rand.CHUNK`): the chunk's cycles take each tree
    level's draws in one call, the tree is walked depth-first, and a node
    builds its Born table and successors on its first visit. Message
    symbols, an (m, 2) array or sequence of pairs, are consumed in order;
    running out raises. A coherence break in Bob's decoder is raised by the
    first cycle that reaches the disturbed state. A session raises the error
    of its earliest failing cycle, and builds no node in the chunks after
    that cycle's.
    """
    message = _message_pairs(message, cfg.dim)
    alg = algebra(cfg.dim)
    root = _Node(eve.attach(make_initial_state(cfg)), {})
    forward, returned = eve.forward_leg, eve.backward_leg + eve.readout_leg
    checks = [
        (MeasureEdge((TRAVEL,), cb.basis, "alice"), MeasureEdge((HOME,), cb.basis, "bob"))
        for cb in control.bases
    ]
    chunks = [(np.zeros(0, dtype=bool), *_columns(0, 0))]
    n_sent = 0  # message pairs consumed by earlier chunks
    n_pairs = cfg.dim * cfg.dim
    for draws in cycle_draws(cfg.seed, SESSION_TAG, cfg.n_cycles):
        n = len(draws)
        everyone = np.arange(n)
        sent = list(follow(forward, root, everyone, draw_leg(forward, draws, everyone)))
        at = np.empty(n, dtype=np.int64)  # each cycle's post-forward node in `sent`
        for i, (_, cycles) in enumerate(sent):
            at[cycles] = i
        is_control = draws.random(everyone) < cfg.control_prob
        ctrl, msg = np.flatnonzero(is_control), np.flatnonzero(~is_control)
        rank = np.empty(n, dtype=np.int64)  # each cycle's place among its mode's
        rank[ctrl], rank[msg] = np.arange(len(ctrl)), np.arange(len(msg))
        decoded, guess, basis, outcomes, passed = _columns(len(msg), len(ctrl))
        limit, error = n, None  # the chunk's first failing cycle and its error
        if n_sent + len(msg) > len(message):
            limit = int(msg[len(message) - n_sent])
            error = ValueError("message exhausted before the session finished")

        cycles = msg[msg < limit]
        taken = draw_leg(returned, draws, cycles)
        pairs = message[n_sent + rank[cycles]]
        for key, group in _split(cycles, at[cycles] * n_pairs + pairs[:, 0] * cfg.dim + pairs[:, 1]):
            if group[0] >= limit:  # every cycle here comes after a failure
                continue
            i, code = divmod(key, n_pairs)
            mu, nu = divmod(code, cfg.dim)
            node = sent[i][0].child((mu, nu), lambda state: dense_encode(state, mu, nu, alg))
            for leaf, reached in follow(returned, node, group, taken):
                if leaf.leaf is None:
                    try:
                        got = bob_decode(factor(leaf.state, (HOME, TRAVEL)), cfg)
                    except CoherenceBreakError as exc:
                        if reached[0] < limit:
                            limit, error = int(reached[0]), exc
                        continue
                    mu_hat = eve.guess(leaf.notes)
                    leaf.leaf = (got, -1 if mu_hat is None else mu_hat)
                    leaf.state = None
                at_rank = rank[reached]
                decoded[at_rank], guess[at_rank] = leaf.leaf

        cycles = ctrl[ctrl < limit]
        for b, group in _split(cycles, control.choose(draws.random(cycles))):
            entry = control.bases[b]
            taken = draw_leg(checks[b], draws, group)
            for i, sub in _split(group, at[group]):
                node = sent[i][0].child(entry.basis_id, lambda state: state)
                for leaf, reached in follow(checks[b], node, sub, taken):
                    if leaf.leaf is None:
                        a, o = leaf.notes["alice"], leaf.notes["bob"]
                        leaf.leaf = ((a, o), control.passes(entry.basis_id, a, o))
                        leaf.state = None
                    at_rank = rank[reached]
                    basis[at_rank] = b
                    outcomes[at_rank], passed[at_rank] = leaf.leaf
        if error is not None:
            raise error
        chunks.append((is_control, decoded, guess, basis, outcomes, passed))
        n_sent += len(msg)

    is_control, decoded, guess, basis, outcomes, passed = map(np.concatenate, zip(*chunks))
    return Transcript(
        control=is_control,
        symbols=message[:n_sent],
        decoded=decoded,
        guess=guess,
        basis_ids=tuple(cb.basis_id for cb in control.bases),
        basis=basis,
        outcomes=outcomes,
        passed=passed,
    )
