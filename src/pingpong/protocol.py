"""Ping-pong protocol state machine for arbitrary qudit dimension.

Bob keeps the home qudit (label "h") and sends the travel qudit ("t") to
Alice, who either dense-codes a symbol pair onto it (message mode) or
measures it for a correlation check (control mode). An eavesdropper handle
acts on the travel leg in both directions, described as the branch edges
defined here; `walk_leg` yields the exact ensemble a leg leaves behind.

`run_sessions` walks the sessions of one configuration together through its
branch tree (`SessionTree`), a chunk of their cycles at a time: each tree
level's draws come from the cycles' streams in one vectorized call
(`rand.CycleDraws`), each node splits its cycles among its successors with
array operations, and each session comes back as a columnar `Transcript`,
which yields a `CycleRecord` per cycle when iterated; `run_session` is the
one-session call. A control cycle reads the joint table P(alice, bob) of its
post-forward node (`pair_probs`, the table detection sums), picks Alice's
outcome from its marginal and Bob's from her row, and is judged by the
menu basis's failing-pair mask; it collapses no state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
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
from . import rand

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
# family's ancilla states, so a coupling on travel (x) ancilla is at most D
# blocks of 32x32, 512 KiB (its dense matrix, built only on request, would be
# 16 MiB). The cycle bound keeps each cycle index within the one 32-bit word
# `rand.cycle_keys` hashes.
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
        It is built monomial, so `apply` moves amplitudes instead of
        multiplying by a matrix."""
        if not (0 <= mu < self.dim and 0 <= nu < self.dim):
            raise ValueError(f"symbols ({mu}, {nu}) out of range for dim {self.dim}")
        return _encoding_operator(self.dim, mu, nu)


def _weyl_phases(dim: int, nu) -> np.ndarray:
    """exp(2 pi i ((nu k) mod D) / D) over the levels k, for each nu given."""
    return np.exp(2j * np.pi * (np.multiply.outer(nu, np.arange(dim)) % dim) / dim)


@lru_cache(maxsize=None)
def _encoding_operator(dim: int, mu: int, nu: int) -> Operator:
    return Operator.monomial((np.arange(dim) + mu) % dim, _weyl_phases(dim, nu))


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


def pair_probs(state: StateVector, basis: Basis) -> np.ndarray:
    """P(alice, bob) of an (h, t, rest) state when Alice measures travel and
    Bob home, both in `basis`, marginalized over the rest."""
    dim = basis.dim
    proj = basis.matrix.conj().T
    step = (proj @ state.amps.reshape(dim, -1)).reshape(dim, dim, -1)  # [bob, t, rest]
    coeffs = np.matmul(proj, step)  # [bob, alice, rest]
    return np.einsum("ijr,ijr->ji", coeffs, coeffs.conj()).real


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
    if not overlaps[best] > 1.0 - DECODE_ATOL:
        raise CoherenceBreakError(
            f"no Bell state matches (best overlap {overlaps[best]:.6f}); pair was disturbed"
        )
    return divmod(best, cfg.dim)


# --- branch edges ---------------------------------------------------------------
#
# An eavesdropper handle describes each leg of its attack as a tuple of edges.
# An edge states three things. `branches` lists its outcomes from one state
# as (outcome, probability, post-state thunk), lazily; `walk_leg` calls the
# thunks for the exact ensemble a leg leaves behind (`deferred` first drops
# the measurements a marginal does not need). `draw` takes the edge's
# draw for each of a group of cycles from a `rand.CycleDraws` (None: the edge
# draws nothing and has one outcome, None), and `outcomes` maps those draws
# to outcomes at one node; `key` names the notes entry that records the
# outcome. `draw_leg` takes a leg's draws one edge, so one tree level, at a
# time, and `follow` walks the leg's edges through a configuration's branch
# tree with them. The per-cycle stepwise reference is `tests/oracles.py::step`.


class _Node:
    """A branch of a configuration's tree and the nodes it leads to; no state.

    Each node is left by one edge only, except the post-forward node, whose
    successors `run_session` keys by control basis and by symbol pair. A
    control basis's node is an end node: its `leaf` is the joint table
    P(alice, bob), and `probs` and `cum` are Alice's marginal and its
    running sum.
    """

    __slots__ = ("notes", "prob", "next", "probs", "cum", "leaf", "__weakref__")

    def __init__(self, notes: dict, prob: float = 1.0):
        self.notes = notes  # outcomes recorded on the path to this node
        self.prob = prob  # probability of the branch from the parent
        self.next: dict = {}
        self.probs = self.cum = self.leaf = None

    def child(self, key) -> "_Node":
        """The successor under `key`, made with this node's notes on first use."""
        node = self.next.get(key)
        if node is None:
            node = self.next[key] = _Node(self.notes)
        return node


def _memo(make):
    """`make` as a zero-argument function that calls it at most once."""
    kept = []
    return lambda: kept[0] if kept else kept.append(make()) or kept[0]


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


def follow(leg: Sequence, node: _Node, state, cycles: np.ndarray, taken: list) -> Iterator:
    """Each (node, state, cycles) the edges of `leg` lead the given cycles to
    from `node`, depth-first, with the draws `draw_leg` took for them. Each
    `state` is a zero-argument function for its node's state, called at most
    once here.

    A node's first visit grows one successor per branch of the edge that
    leaves it, recording the outcome under `edge.key`; its cycles are split
    among its successors by their outcomes. A state is built only where a
    node has no successors yet or the caller asks, so a caller that consumes
    each end node before the next holds the states of one path.
    """
    if not leg:
        yield node, state, cycles
        return
    edge, rest = leg[0], leg[1:]
    posts = {}  # this visit's post-state thunks by outcome

    def post(outcome):
        if not posts:
            posts.update((o, make) for o, _, make in edge.branches(state()))
        return posts[outcome]()

    if not node.next:
        key, notes = edge.key, node.notes
        for outcome, p, make in edge.branches(state()):
            node.next[outcome] = _Node(notes if key is None else {**notes, key: outcome}, p)
            posts[outcome] = make
    if len(node.next) == 1:  # every draw picks the one successor
        groups = [(next(iter(node.next)), cycles)]
    else:
        groups = _split(cycles, edge.outcomes(node, taken[0][cycles]))
    for outcome, sub in groups:
        yield from follow(rest, node.next[outcome], partial(post, outcome), sub, taken[1:])


@dataclass(frozen=True, eq=False)
class UnitaryEdge:
    """A fixed unitary on the target registers; draws nothing."""

    op: Operator
    targets: tuple[str, ...]
    key = draw = None

    def branches(self, state: StateVector) -> Iterator:
        yield None, 1.0, partial(apply, state, self.op, self.targets)


@dataclass(frozen=True, eq=False)
class MeasureEdge:
    """A projective measurement of `labels` in `basis`; one uniform draw.
    `key` records the outcome in the notes."""

    labels: tuple[str, ...]
    basis: Basis
    key: str

    def branches(self, state: StateVector) -> Iterator:
        """Each outcome with support, its Born probability and a thunk for
        its collapsed state."""
        table = born_table(state, self.labels, self.basis)
        for outcome in np.flatnonzero(table.probs > 0.0).tolist():
            yield outcome, float(table.probs[outcome]), partial(collapse, table, outcome)

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
            yield f, 1.0 / n, (lambda: state) if op is None else partial(apply, state, op, self.targets)

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
        yield from walk_leg(leg[1:], post(), prob * p)


def deferred(leg: Sequence, keep: Sequence[str]) -> tuple:
    """`leg` without each measurement of registers outside `keep` that no
    later edge of the leg acts on.

    The branches `walk_leg` yields for the result are exact for the marginal
    on `keep`. No edge conditions on an earlier outcome, since outcomes only
    go to the notes, so a dropped measurement is averaged over where it
    stands. Its registers are left alone from there on, so the average
    commutes to the end of the leg and goes in the trace over them
    (deferred measurement).
    """

    def acts(edge) -> set:
        return set(edge.labels if isinstance(edge, MeasureEdge) else edge.targets)

    return tuple(
        edge
        for i, edge in enumerate(leg)
        if not isinstance(edge, MeasureEdge)
        or acts(edge) & set(keep)
        or any(acts(edge) & acts(later) for later in leg[i + 1:])
    )


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


class SessionTree:
    """The branches a cycle can take from the attached pair `state` at `root`:
    Eve's forward leg; then per control basis the joint table of Alice's and
    Bob's outcomes, or per symbol pair the encoding, Eve's `returned` legs and
    Bob's decode. Nodes depend on Eve's handle, the control mode, `dim` and
    `kind` only, so the sessions of that configuration may share one tree."""

    def __init__(self, cfg: ProtocolConfig, eve: "EavesdropperHandle", control: "ControlModeHandle"):
        self.eve, self.control = eve, control
        self.dim, self.kind = cfg.dim, cfg.initial_state_kind
        self.state = eve.attach(make_initial_state(cfg))
        self.root = _Node({})
        self.forward, self.returned = eve.forward_leg, eve.backward_leg + eve.readout_leg


def run_sessions(cfgs: Sequence[ProtocolConfig], messages, eve: "EavesdropperHandle",
                 control: "ControlModeHandle", tree: Optional[SessionTree] = None) -> Iterator:
    """Walk sessions of one configuration through its branch tree together;
    yield each session's `Transcript`, or the error that ends it, in order.

    Sessions may differ in seed, n_cycles, control_prob and message (an (m, 2)
    array or sequence of pairs, consumed in order); cycle k draws from
    `stream(seed, SESSION_TAG, k)`. Their cycles, one session after another,
    go through `tree` (built for `eve`, `control` and the configs' dim and
    kind) or a new one a chunk (`rand.CHUNK`) at a time: a tree level's draws
    in one call, then depth-first, one post-forward node at a time. A session
    fails at its first cycle that runs out of message or reaches a coherence
    break in Bob's decoder, and takes no cycles into later chunks; the others
    go on. It is yielded once the chunk with its last cycle has been walked."""
    if not cfgs:
        return
    tree = SessionTree(cfgs[0], eve, control) if tree is None else tree
    if (tree.eve is not eve or tree.control is not control
            or any((cfg.dim, cfg.initial_state_kind) != (tree.dim, tree.kind) for cfg in cfgs)):
        raise ValueError("session tree was built for another configuration")
    dim, alg = tree.dim, algebra(tree.dim)
    attached, forward, returned = tree.state, tree.forward, tree.returned
    errors, pairs = [None] * len(cfgs), []  # each session's error, and its message
    for s, message in enumerate(messages):
        try:
            pairs.append(_message_pairs(message, dim))
        except ValueError as exc:
            pairs.append(np.zeros((0, 2), dtype=np.int64))
            errors[s] = exc.with_traceback(None)
    n_pairs = np.array([len(p) for p in pairs])
    message, first_pair = np.concatenate(pairs), np.cumsum(n_pairs) - n_pairs
    seeds = np.array([cfg.seed for cfg in cfgs], dtype=object)
    seeds = seeds.astype(np.int64) if seeds.max() < 2**63 else seeds  # numeric unless a seed is wider
    prob = np.array([cfg.control_prob for cfg in cfgs])
    counts = np.array([cfg.n_cycles for cfg in cfgs])
    ends = np.cumsum(counts)  # each session's cycles, one session after another, end here
    sent = np.zeros(len(cfgs), dtype=np.int64)  # message pairs consumed by earlier chunks
    chunks = [[(np.zeros(0, dtype=bool), *_columns(0, 0))] for _ in cfgs]
    basis_ids = tuple(cb.basis_id for cb in control.bases)
    yielded = 0  # sessions yielded, each once the chunks before `start` hold all its cycles
    for start in range(0, int(ends[-1]) + rand.CHUNK, rand.CHUNK):
        while yielded < len(cfgs) and ends[yielded] <= start:
            s, yielded = yielded, yielded + 1
            is_control, decoded, guess, basis, outcomes, passed = map(np.concatenate, zip(*chunks[s]))
            chunks[s] = None
            symbols = pairs[s][: sent[s]]
            yield errors[s] or Transcript(is_control, symbols, decoded, guess, basis_ids, basis, outcomes, passed)
        live = np.array([error is None for error in errors])
        cycle = np.arange(start, min(start + rand.CHUNK, int(ends[-1])))
        owner = np.searchsorted(ends, cycle, side="right")  # each cycle's session
        cycle, owner = cycle[live[owner]], owner[live[owner]]
        if not (n := len(owner)):
            continue
        draws = rand.CycleDraws(seeds[owner], rand.SESSION_TAG, cycle - (ends - counts)[owner])
        everyone = np.arange(n)
        there = draw_leg(forward, draws, everyone)
        is_control = draws.random(everyone) < prob[owner]
        ctrl, msg = np.flatnonzero(is_control), np.flatnonzero(~is_control)
        back = draw_leg(returned, draws, msg)
        chosen = np.empty(n, dtype=np.int64)  # each control cycle's menu index
        chosen[ctrl] = control.choose(draws.random(ctrl))
        alice_u, bob_u = np.empty(n), np.empty(n)  # each control cycle's two uniforms
        alice_u[ctrl] = draws.random(ctrl)
        bob_u[ctrl] = draws.random(ctrl)
        rank = np.empty(n, dtype=np.int64)  # each cycle's place among the chunk's of its mode
        rank[ctrl], rank[msg] = np.arange(len(ctrl)), np.arange(len(msg))
        # A session's message cycles are consecutive in `msg`, from `first` on.
        per = np.bincount(owner[msg], minlength=len(cfgs))
        first = np.cumsum(per) - per
        at = (first_pair + sent - first)[owner] + rank  # each message cycle's pair in `message`
        decoded, guess, basis, outcomes, passed = _columns(len(msg), len(ctrl))
        limit = np.full(len(cfgs), n)  # each session's first failing cycle in the chunk
        for s in np.flatnonzero(live & (sent + per > n_pairs)).tolist():
            limit[s] = msg[first[s] + n_pairs[s] - sent[s]]
            errors[s] = ValueError("message exhausted before the session finished")

        for node, state, group in follow(forward, tree.root, lambda: attached, everyone, there):
            state, group = _memo(state), group[group < limit[owner[group]]]  # the state is shared below
            mode = is_control[group]
            cycles = group[~mode]
            codes = message[at[cycles]]
            for code, sub in _split(cycles, codes[:, 0] * dim + codes[:, 1]):
                mu, nu = divmod(code, dim)
                walk = follow(returned, node.child((mu, nu)),
                              lambda: dense_encode(state(), mu, nu, alg), sub, back)
                for leaf, final, reached in walk:
                    if leaf.leaf is None:
                        try:
                            got = bob_decode(factor(final(), (HOME, TRAVEL)), cfgs[0])
                        except CoherenceBreakError as exc:  # each session's first cycle here fails
                            hit, where = np.unique(owner[reached], return_index=True)
                            for s, k in zip(hit.tolist(), reached[where].tolist()):
                                if k < limit[s]:
                                    limit[s], errors[s] = k, exc.with_traceback(None)
                            continue
                        mu_hat = eve.guess(leaf.notes)
                        leaf.leaf = (got, -1 if mu_hat is None else mu_hat)
                    at_rank = rank[reached]
                    decoded[at_rank], guess[at_rank] = leaf.leaf

            cycles = group[mode]
            for b, sub in _split(cycles, chosen[cycles]):
                entry = control.bases[b]
                check = node.child(entry.basis_id)
                if check.leaf is None:
                    check.leaf = pair_probs(state(), entry.basis)
                    check.probs = check.leaf.sum(axis=1)
                    check.cum = running_sum(check.probs)
                for a, reached in _split(sub, pick(check.probs, check.cum, alice_u[sub])):
                    row = check.leaf[a]
                    bob = pick(row, running_sum(row), bob_u[reached])
                    at_rank = rank[reached]
                    basis[at_rank], outcomes[at_rank, 0], outcomes[at_rank, 1] = b, a, bob
                    passed[at_rank] = ~entry.fail[a, bob]

        present = np.flatnonzero(np.bincount(owner))  # each session's cycles are consecutive in every column
        bounds = [np.searchsorted(key, present).tolist() + [len(key)] for key in (owner, owner[msg], owner[ctrl])]
        for i, s in enumerate(present.tolist()):
            c, m, k = (slice(b[i], b[i + 1]) for b in bounds)
            chunks[s].append((is_control[c], decoded[m], guess[m], basis[k], outcomes[k], passed[k]))
        sent += per


def run_session(cfg: ProtocolConfig, message, eve: "EavesdropperHandle", control: "ControlModeHandle",
                tree: Optional[SessionTree] = None) -> Transcript:
    """Run n_cycles of the protocol and return the transcript as columns:
    `run_sessions` for this one session, raising the error that ends it."""
    [result] = run_sessions([cfg], [message], eve, control, tree)
    if isinstance(result, Transcript):
        return result
    try:
        raise result
    finally:  # no reference cycle through the traceback keeps the tree alive
        del result
