"""Ping-pong protocol state machine for arbitrary qudit dimension.

Bob keeps the home qudit (label "h") and sends the travel qudit ("t") to
Alice, who either dense-codes a symbol pair onto it (message mode) or
measures it for a correlation check (control mode). An eavesdropper handle
acts on the travel leg in both directions, described as the branch edges
defined here; `walk_leg` yields the exact ensemble a leg leaves behind.

`run_sessions` walks the sessions of several configurations a chunk of their
cycles at a time: `_cuts` plans the chunks, `_Call.walk` walks one, and
`SessionTree` takes a configuration's cycles through its attack's branch
tree. A cycle's draws follow one program, derived once per tree from the
edges' declared draws: the forward leg's, the mode uniform, then the return
legs' or three control uniforms. So each cycle reserves the Philox blocks of
the program's longer branch, the chunk's blocks are computed in one pass
(`rand.CycleDraws`), and a tree reads its cycles' draws by position in a
few vectorized reads. Each node
splits its cycles among its successors with array operations, and each
session comes back as a columnar `Transcript`; `run_session` is the
one-session call. `follow` walks a leg a tree level at a time: the nodes of
a level with nothing built below them take its edge together, their states
stacked, so the symbol pairs a post-forward node's cycles reach take their
encoding, Eve's return legs, `factor` and Bob's decode in a few kernel calls
(`SessionTree.leaves`); a return leg that ends in Eve's readout of all her
registers (`ReadoutEdge`) hands Bob the (home, travel) pairs with no
collapse. A control cycle reads the joint table P(alice, bob) of its
post-forward node (`pair_probs`, the table detection sums), picks Alice's
outcome from its marginal and Bob's from her row, and is judged by the menu
basis's failing-pair mask (`SessionTree.checks`); it collapses no state.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence

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
    pick_rows,
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


def as_integer(field: str, value) -> int:
    """An integer field: integral floats such as 1e5 pass; bools, strings and
    fractional values are rejected rather than truncated."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{field} must be an integer, got {value!r}")


def as_real(field: str, value) -> float:
    """A real-number field: bools, strings and None are rejected rather than
    coerced."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"{field} must be a number, got {value!r}")


@dataclass(frozen=True)
class ProtocolConfig:
    dim: int
    control_prob: float
    n_cycles: int
    seed: int
    initial_state_kind: str = QUBIT_SINGLET

    def __post_init__(self):
        for name in ("dim", "n_cycles", "seed"):
            object.__setattr__(self, name, as_integer(name, getattr(self, name)))
        object.__setattr__(self, "control_prob", as_real("control_prob", self.control_prob))
        if self.dim < 2:
            raise ValueError(f"dim must be >= 2, got {self.dim}")
        if self.dim > MAX_DIM:
            raise ValueError(f"dim must be <= {MAX_DIM}, got {self.dim}")
        if not 0.0 <= self.control_prob <= 1.0:  # NaN fails both comparisons
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
    """Dense-coding unitaries X^mu Z^nu of one qudit, built from the
    generalized cyclic shift X and phase Z."""

    dim: int

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
    return QuditAlgebra(dim)


@lru_cache(maxsize=None)
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
    Bob home, both in `basis`, marginalized over the rest, as a real array
    of its own. In an identity basis the coefficients are the amplitudes,
    with no matrix product."""
    dim = basis.dim
    coeffs = state.amps.reshape(dim, dim, -1)  # [bob, alice, rest]
    if not basis.is_identity:
        proj = basis.matrix.conj().T
        step = (proj @ state.amps.reshape(dim, -1)).reshape(dim, dim, -1)  # [bob, t, rest]
        coeffs = np.matmul(proj, step)
    return np.einsum("ijr,ijr->ji", coeffs, coeffs.conj()).real.copy()


def dense_encode(state: StateVector, mu, nu) -> StateVector:
    """Alice's dense coding: X^mu Z^nu on the travel register only, at its
    dimension in `state`. Given arrays of symbols, the stack of `state`
    encoded under each pair, from one gather on a (lead, travel, trail) view
    of the amplitudes: each travel level's amplitudes times its phase move to
    the level mu above it, the values `apply` gives for the monomial encoding."""
    dim = state.layout.dim_of(TRAVEL)
    mu, nu = np.asarray(mu), np.asarray(nu)
    if not ((0 <= mu) & (mu < dim) & (0 <= nu) & (nu < dim)).all():
        raise ValueError(f"symbols ({mu}, {nu}) out of range for dim {dim}")
    at = state.layout.position(TRAVEL)
    mat = state.amps.reshape(math.prod(state.layout.dims[:at]), dim, -1)
    source = (np.arange(dim) - mu[..., None]) % dim  # the level each level's amplitudes come from
    phases = np.take_along_axis(_weyl_phases(dim, nu), source, axis=-1)
    moved = mat[np.arange(len(mat))[:, None], source[..., None, :]]  # [..., lead, travel, trail]
    return StateVector(state.layout, (phases[..., None, :, None] * moved).reshape(source.shape[:-1] + (-1,)))


@lru_cache(maxsize=None)
def _bell_table(dim: int, kind: str) -> tuple:
    """The encoded Bell states in closed form, kept per (dim, kind). X^mu Z^nu takes
    each |h_s, t_s> of the pair's support to exp(2 pi i ((nu t_s) mod D) / D) |h_s, t_s + mu>:
    entry s lands at pair index at[mu, s], its amplitude times that phase is coeffs[s, nu]."""
    pair = make_initial_state(ProtocolConfig(dim, 0.0, 1, 0, kind)).amps.reshape(dim, dim)
    h, t = np.nonzero(pair)
    at = h * dim + (t + np.arange(dim)[:, None]) % dim
    coeffs = (pair[h, t] * _weyl_phases(dim, np.arange(dim))[:, t]).T
    at.flags.writeable = coeffs.flags.writeable = False
    return at, coeffs


def bell_states(cfg: ProtocolConfig) -> Basis:
    """Bob's generalized Bell basis: column mu*dim + nu is the pair encoded under (mu, nu)."""
    dim = cfg.dim
    at, coeffs = _bell_table(dim, cfg.initial_state_kind)
    mat = np.zeros((dim * dim, dim, dim), dtype=np.complex128)  # [h*dim + t, mu, nu]
    mat[at, np.arange(dim)[:, None]] = coeffs
    return Basis(mat.reshape(dim * dim, dim * dim), "bell")


def _bell_overlaps(amps: np.ndarray, dim: int, kind: str) -> np.ndarray:
    """|overlap| of each row of `amps` with each encoded Bell state, one gather and one product:
    column mu*dim + nu is |sum_s conj(coeffs[s, nu]) amps[at[mu, s]]| over the pair's support."""
    at, coeffs = _bell_table(dim, kind)
    return np.abs(amps.take(at, axis=1).reshape(-1, len(coeffs)) @ coeffs.conj()).reshape(len(amps), -1)


def bob_decode(state: StateVector, cfg: ProtocolConfig):
    """Identify the symbol pair whose encoded Bell state matches `state`.

    The match is by squared overlap, so global phases are ignored. Raises
    CoherenceBreakError when no Bell-basis element reaches overlap
    1 - 1e-9, which is how a disturbed pair shows up. For a stack of states,
    returns each row's pair, or the CoherenceBreakError it would raise, in a
    list.
    """
    if state.layout.labels != (HOME, TRAVEL):
        raise ValueError(f"decoder expects labels (h, t), got {state.layout.labels}")
    overlaps = _bell_overlaps(np.atleast_2d(state.amps), cfg.dim, cfg.initial_state_kind)
    found = [  # a NaN overlap is the row's max and matches nothing
        divmod(best, cfg.dim) if overlap > 1.0 - DECODE_ATOL else
        CoherenceBreakError(f"no Bell state matches (best overlap {overlap:.6f}); pair was disturbed")
        for best, overlap in zip(overlaps.argmax(axis=1).tolist(), overlaps.max(axis=1).tolist())
    ]
    if state.amps.ndim == 2:
        return found
    if isinstance(found[0], CoherenceBreakError):
        raise found[0]
    return found[0]


# --- branch edges ---------------------------------------------------------------
#
# An eavesdropper handle describes each leg of its attack as a tuple of edges.
# An edge states three things. `branches` takes a state, or a stack of them,
# over it: its table (the states with a unitary applied, or their Born table)
# and the outcome probabilities, a row per state, and `post` gives listed
# rows' post-states for listed outcomes from the table (for one state, rows
# None and one outcome). `draw` declares the edge's draw in a cycle's stream
# in `rand.CycleDraws.read`'s terms: (None,) for `random()`, (n,) for
# `integers(n)`, or () when the edge draws nothing and has one outcome,
# None. `outcomes` maps those draws to outcomes at one node; `key` names the
# notes entry that records the outcome. A `SessionTree` reads its legs'
# draws from those declarations (`leg_columns` puts them in columns), and
# `follow` walks the leg's edges through a configuration's branch tree with
# them; `walk_leg` gives the exact ensemble a leg leaves behind (`deferred`
# first drops the measurements a marginal does not need). The per-cycle
# stepwise reference is `tests/oracles.py::step`.

# Amplitudes a stack of states holds at most in `follow`; a stack holds at
# least one state. The 25 symbol pairs of a qudit-shift post-forward node at
# D = 5 fit in one stack of (h, t, e) states, those at D = 7 in five, and
# from D = 16 a stack is one state.
SLICE_AMPS = 1 << 12


class _Node:
    """A branch of a `SessionTree` and the nodes it leads to; no state.

    Each node is left by one edge only, except the post-forward node, whose
    successors `SessionTree.checks` keys by control basis and
    `SessionTree.leaves` by symbol pair. A control basis's node is an end
    node: its `leaf` is the joint table P(alice, bob), `probs` and `cum`
    are Alice's marginal and its running sum, and `masses` holds each row's
    sum, taken row by row, for Bob's picks (`pick_rows`). A message leaf's
    `leaf` is Bob's decoded pair and Eve's guess. A node with successors or
    a leaf needs no state to walk.
    """

    __slots__ = ("notes", "prob", "next", "probs", "cum", "masses", "leaf", "__weakref__")

    def __init__(self, notes: dict, prob: float = 1.0):
        self.notes = notes  # outcomes recorded on the path to this node
        self.prob = prob  # probability of the branch from the parent
        self.next: dict = {}
        self.probs = self.cum = self.masses = self.leaf = None

    def tabulate(self, table: np.ndarray) -> None:
        """Make this a control basis's node of joint table `table`."""
        self.leaf, self.probs = table, table.sum(axis=1)
        self.cum = running_sum(self.probs)
        self.masses = np.array([row.sum() for row in table])

    def child(self, key) -> "_Node":
        """The successor under `key`, made with this node's notes on first use."""
        node = self.next.get(key)
        if node is None:
            node = self.next[key] = _Node(self.notes)
        return node


def _split(cycles: np.ndarray, values: np.ndarray) -> list:
    """(value, cycles) for each distinct value of `values`, small
    non-negative integers, smallest first, keeping the cycles in order."""
    if len(values) == 0:
        return []
    counts = np.bincount(values)
    present = np.flatnonzero(counts)
    if len(present) == 1:
        return [(int(present[0]), cycles)]
    ranked = cycles[np.argsort(values, kind="stable")]
    bounds = np.cumsum(counts[present]).tolist()
    return [(value, ranked[lo:hi]) for value, lo, hi in zip(present.tolist(), [0, *bounds], bounds)]


def leg_columns(leg: Sequence, values: list, cycles: np.ndarray, size: int) -> list:
    """`values`, the draws of `leg`'s edges for `cycles` in leg order, as a
    column per edge indexed by a chunk's `size` cycles (None for an edge that
    draws nothing). Every cycle takes every edge of a leg, so its draws do
    not depend on the outcomes."""
    values, taken = iter(values), []
    for edge in leg:
        column = None
        if edge.draw:
            drawn = next(values)
            column = np.empty(size, dtype=drawn.dtype)
            column[cycles] = drawn
        taken.append(column)
    return taken


def _replay(leg: Sequence, states: StateVector, nodes: list) -> StateVector:
    """The stack of the states of `nodes`, each at the end of `leg` from its
    row of `states`: every edge is taken with the outcome the node's notes
    record."""
    rows = np.arange(len(nodes))
    for edge in leg:
        outcomes = None if edge.key is None else np.array([node.notes[edge.key] for node in nodes])
        states = edge.post(edge.branches(states)[0], rows, outcomes)
    return states


def follow(leg: Sequence, starts: list, taken: list, source: Callable, width: int) -> Iterator:
    """Walk the cycles of each (node, cycles) in `starts` through `leg` a
    tree level at a time, with their draws (`leg_columns`); yield the
    (node, cycles) ends they reach, a list at a time, with the stack of their
    states, or None where none was needed.

    A node with successors, or a leaf value, splits its cycles among its
    successors with no state. The nodes of a level with neither grow
    together: their stacked states take the edge in one kernel call, each
    state's outcomes with support become successors, and those its cycles
    reach go down with their post-states. A node reached without its
    parent's state (an earlier walk built the parent) has its path replayed
    from its start state, which `source(indices)` stacks for indices into
    `starts`. A stack holds at most SLICE_AMPS amplitudes of states of
    `width` amplitudes, or one state, and reaches the end of the leg before
    the next is built.
    """
    walk = _Walk(leg, taken, source, max(1, SLICE_AMPS // width))
    return walk.descend(0, [(node, cycles, i) for i, (node, cycles) in enumerate(starts)])


@dataclass(frozen=True)
class _Walk:
    """One `follow` call; an entry is (node, cycles, start index). Methods,
    not nested functions: recursive closures would form a reference cycle
    that keeps `source`, and the states it holds, until the next collection."""

    leg: Sequence
    taken: list
    source: Callable
    per: int

    def slices(self, entries: list) -> list:
        return [entries[lo:lo + self.per] for lo in range(0, len(entries), self.per)]

    def descend(self, level: int, bare: list) -> Iterator:
        """Take entries with no state from `level` to the end of the leg."""
        built = [entry for entry in bare if entry[0].next or entry[0].leaf is not None]
        if built and level == len(self.leg):
            yield [entry[:2] for entry in built], None
        elif built:
            yield from self.descend(level + 1, [(node.next[outcome], sub, start) for node, cycles, start in built
                                                for outcome, sub in _route(self.leg[level], self.taken[level], node, cycles)])
        for part in self.slices([entry for entry in bare if not (entry[0].next or entry[0].leaf is not None)]):
            nodes = [node for node, *_ in part]
            yield from self.grow(level, part, _replay(self.leg[:level], self.source([s for *_, s in part]), nodes))

    def grow(self, level: int, entries: list, states: StateVector) -> Iterator:
        """Grow the entries' successors from their stacked states and take
        those their cycles reach down with their post-states."""
        if level == len(self.leg):
            yield [entry[:2] for entry in entries], states
            return
        edge = self.leg[level]
        table, probs = edge.branches(states)
        del states  # only the table is read from here on
        rows, cols = np.nonzero(probs > 0.0)
        for row, col, p in zip(rows.tolist(), cols.tolist(), probs[rows, cols].tolist()):
            node, outcome = entries[row][0], None if edge.key is None else col
            node.next[outcome] = _Node(node.notes if edge.key is None else {**node.notes, edge.key: col}, p)
        reached = [(row, outcome, (node.next[outcome], sub, start)) for row, (node, cycles, start) in enumerate(entries)
                   for outcome, sub in _route(edge, self.taken[level], node, cycles)]  # (row, outcome, successor entry)
        if edge.key is not None:  # a stack of one outcome takes a `DrawEdge` in one `apply`
            reached.sort(key=lambda item: item[1])
        parts = self.slices(reached)
        for i, part in enumerate(parts):
            rows, outcomes, succ = zip(*part)
            below = self.grow(level + 1, list(succ), edge.post(table, np.array(rows), np.array(outcomes)))
            if i == len(parts) - 1:
                del table  # not held while the last stack goes down
            yield from below


def _route(edge, column, node: _Node, cycles: np.ndarray) -> list:
    """(outcome, cycles) for each successor of `node` the cycles reach by
    their draws in `column`."""
    if len(node.next) == 1:  # every draw picks the one successor
        return [(next(iter(node.next)), cycles)]
    return _split(cycles, edge.outcomes(node, column[cycles]))


@dataclass(frozen=True, eq=False)
class UnitaryEdge:
    """A fixed unitary on the target registers; draws nothing."""

    op: Operator
    targets: tuple[str, ...]
    key, draw = None, ()

    def branches(self, state: StateVector) -> tuple:
        """The states with the unitary applied; one outcome, None, each."""
        return apply(state, self.op, self.targets), np.ones(state.amps.shape[:-1] + (1,))

    def post(self, table: StateVector, rows, outcomes) -> StateVector:
        return table if rows is None else table.take(rows)


@dataclass(frozen=True, eq=False)
class MeasureEdge:
    """A projective measurement of `labels` in `basis`; one uniform draw,
    `random()`. `key` records the outcome in the notes."""

    labels: tuple[str, ...]
    basis: Basis
    key: str
    draw = (None,)

    def branches(self, state: StateVector) -> tuple:
        """The states' Born table, and its probabilities."""
        table = born_table(state, self.labels, self.basis)
        return table, table.probs

    def post(self, table, rows, outcomes) -> StateVector:
        """Row rows[i]'s collapsed state for outcomes[i]."""
        return collapse(table, outcomes, rows)

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
class ReadoutEdge(MeasureEdge):
    """A measurement of every register but home and travel, ending a return
    leg. It leaves a product state, so each post-state is the (home, travel)
    pair alone: its outcome's coefficient row, normalized. `factor` would
    give the same pair, up to a global phase, from `collapse`'s state."""

    def post(self, table, rows, outcomes) -> StateVector:
        index = (outcomes,) if rows is None else (rows, outcomes)
        pair = table.coeffs[index] / np.sqrt(table.probs[index])[..., None]
        return StateVector(pair_layout(table.layout.dim_of(HOME)), pair)


@dataclass(frozen=True, eq=False)
class DrawEdge:
    """One uniform draw f of `integers(len(ops))`, then ops[f] on the targets.

    None in `ops` applies nothing. `key` records f in the notes.
    """

    key: str
    ops: tuple[Optional[Operator], ...]
    targets: tuple[str, ...]

    def branches(self, state: StateVector) -> tuple:
        """The states themselves; each f with probability 1 / len(ops)."""
        return state, np.full(state.amps.shape[:-1] + (len(self.ops),), 1.0 / len(self.ops))

    def post(self, table: StateVector, rows, outcomes) -> StateVector:
        """Row rows[i] with ops[outcomes[i]] applied, one `apply` per
        distinct f."""
        fs = [outcomes] if rows is None else sorted(set(outcomes.tolist()))  # np.unique would import numpy.ma
        if len(fs) > 1:
            amps = np.empty((len(rows), table.layout.dim), dtype=np.complex128)
            for f in fs:
                amps[outcomes == f] = self.post(table, rows[outcomes == f], outcomes[outcomes == f]).amps
            return StateVector(table.layout, amps)
        part, op = table if rows is None else table.take(rows), self.ops[fs[0]]
        return part if op is None else apply(part, op, self.targets)

    @property
    def draw(self) -> tuple:
        """One `integers(len(ops))`."""
        return (len(self.ops),)

    def outcomes(self, node: _Node, fs: np.ndarray) -> np.ndarray:
        """f itself; reads no table."""
        return fs


def walk_leg(leg: Sequence, state: StateVector, prob: float = 1.0) -> Iterator:
    """Every branch one handle leg makes of `state`, as (probability, state),
    depth-first and one at a time."""
    if not leg:
        yield prob, state
        return
    table, probs = leg[0].branches(state)
    for outcome, p in enumerate(probs.tolist()):
        if p > 0.0:
            yield from walk_leg(leg[1:], leg[0].post(table, None, outcome), prob * p)


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
    `passed`. `walk_s` is the session's share of its walk's time.
    """

    control: np.ndarray
    symbols: np.ndarray
    decoded: np.ndarray
    guess: np.ndarray
    basis_ids: tuple[str, ...]
    basis: np.ndarray
    outcomes: np.ndarray
    passed: np.ndarray
    walk_s: float = 0.0

    def __len__(self) -> int:
        return len(self.control)


def message_pairs(message, dim: int) -> np.ndarray:
    """`message` as an (m, 2) integer array of symbols below `dim`; symbols
    that are not integers are rejected, not truncated."""
    pairs = np.asarray(message)
    if pairs.size == 0:
        return np.zeros((0, 2), dtype=np.int64)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("message must be a sequence of (mu, nu) pairs")
    if pairs.dtype.kind not in "iu":
        raise ValueError(f"message symbols must be integers, not {pairs.dtype}")
    bad = np.flatnonzero(((pairs < 0) | (pairs >= dim)).any(axis=1))
    if bad.size:
        mu, nu = pairs[bad[0]].tolist()
        raise ValueError(f"message symbols ({mu}, {nu}) out of range for dim {dim}")
    return pairs.astype(np.int64, copy=False)


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


def check_dims(eve: "EavesdropperHandle", control: "ControlModeHandle", dim: int) -> None:
    """Raise ValueError unless Eve's handle and the control mode act on `dim`."""
    if eve.dim != dim or control.dim != dim:
        raise ValueError(f"dimension mismatch: attack {eve.dim}, control {control.dim}, config {dim}")


def attached_width(dim: int, eve: "EavesdropperHandle") -> int:
    """The amplitudes of a session tree's state: the pair at `dim` attached to Eve's ancilla."""
    return dim * dim * eve.initial_ancilla.layout.dim


class SessionTree:
    """The branches a cycle can take from the attached pair `state` at `root`:
    Eve's forward leg; then per control basis the joint table of Alice's and
    Bob's outcomes, or per symbol pair the encoding, Eve's `returned` legs and
    Bob's decode. A readout of all of Eve's registers ending `returned` is
    taken as a `ReadoutEdge`. Nodes depend on Eve's handle, `dim`, `kind` and basis ids
    only, so the sessions of one attack share one tree under any control mode,
    and Eve's handle keeps a narrow tree (`_Call.tree`), which holds no
    handle. A chunk's cycles of a configuration take their `draw` and `walk`."""

    def __init__(self, cfg: ProtocolConfig, eve: "EavesdropperHandle"):
        self.cfg, self.state = cfg, eve.attach(make_initial_state(cfg))  # Bob's decode reads cfg's dim and kind
        self.root = _Node({})
        self.forward, self.returned = eve.forward_leg, eve.backward_leg + eve.readout_leg
        last = self.returned[-1] if self.returned else None
        if isinstance(last, MeasureEdge) and set(last.labels) == set(self.state.layout.labels) - {HOME, TRAVEL}:
            self.returned = self.returned[:-1] + (ReadoutEdge(last.labels, last.basis, last.key),)
        # a cycle's draws: the forward edges', the mode uniform, then the return edges' or three control uniforms
        self.ahead = sum((edge.draw for edge in self.forward), ()) + (None,)
        self.back = sum((edge.draw for edge in self.returned), ())
        self.blocks = max(rand.blocks(self.ahead + self.back), rand.blocks(self.ahead + (None,) * 3))

    def draw(self, chunk: "_Chunk", control: "ControlModeHandle", draws, sub: np.ndarray, prob) -> tuple:
        """(sub, forward draws, return draws) of a configuration's cycles `sub`, as `follow` takes them."""
        *there, mode = draws.read(self.ahead, sub)
        chunk.is_control[sub] = mode < prob[chunk.owner[sub]]
        ctrl, msg = sub[chunk.is_control[sub]], sub[~chunk.is_control[sub]]
        choice, chunk.alice_u[ctrl], chunk.bob_u[ctrl] = draws.read((None,) * 3, ctrl, self.ahead)
        chunk.chosen[ctrl] = control.choose(choice)
        back, n = draws.read(self.back, msg, self.ahead), len(chunk.owner)
        return sub, leg_columns(self.forward, there, sub, n), leg_columns(self.returned, back, msg, n)

    def walk(self, chunk: "_Chunk", control: "ControlModeHandle", guess: Callable, cycles, there, back) -> None:
        """A configuration's `cycles` down the forward leg, then each post-forward node's `leaves` and `checks`."""
        # the forward walk's one start is the attached pair: `take` stacks it once per index
        for nodes, states in follow(self.forward, [(self.root, cycles)], there, self.state.take, self.state.layout.dim):
            for i, (node, group) in enumerate(nodes):
                group = group[group < chunk.limit[chunk.owner[group]]]
                mode = chunk.is_control[group]  # the state goes to `checks` unnamed, so `del states` frees the stack
                self.checks(chunk, control, node, group[mode], self.leaves(
                    chunk, guess, node, group[~mode], back, None if states is None else states.take(i)))
            del states  # not held while the walk builds the next stack

    def replayed(self, node: _Node, state: Optional[StateVector]) -> StateVector:
        """A post-forward node's `state`, or if None (the forward walk did not build it), its replayed state."""
        return state if state is not None else _replay(self.forward, self.state.take([0]), [node]).take(0)

    def leaves(self, chunk: "_Chunk", guess: Callable, node: _Node, cycles, back, state) -> Optional[StateVector]:
        """A post-forward node's message `cycles` to Bob's decode and Eve's guess; returns the node's state, or None."""
        by_pair = _split(cycles, chunk.message[chunk.at[cycles]])
        mu, nu = np.divmod(np.array([code for code, _ in by_pair], dtype=np.int64), self.cfg.dim)
        starts = [(node.child(divmod(code, self.cfg.dim)), sub) for code, sub in by_pair]
        if not all(start.next for start, _ in starts):
            state = self.replayed(node, state)
        encoded = lambda rows: dense_encode(self.replayed(node, state), mu[rows], nu[rows])  # noqa: E731 - one gather
        for ends, finals in follow(self.returned, starts, back, encoded, self.state.layout.dim):
            if finals is not None:  # dropped before the walk builds the next stack
                found, finals = bob_decode(factor(finals, (HOME, TRAVEL)), self.cfg), None
                for (leaf, reached), got in zip(ends, found):
                    if isinstance(got, CoherenceBreakError):  # the pair was disturbed
                        chunk.fail(reached, got)
                        continue
                    mu_hat = guess(leaf.notes)
                    leaf.leaf = (got, -1 if mu_hat is None else mu_hat)
            for leaf, reached in ends:
                if leaf.leaf is not None:
                    at_rank = chunk.rank[reached]
                    chunk.decoded[at_rank], chunk.guess[at_rank] = leaf.leaf
        return state

    def checks(self, chunk: "_Chunk", control: "ControlModeHandle", node: _Node, cycles, state) -> None:
        """A post-forward node's control `cycles`: Alice's outcome from a menu basis's table, then Bob's from her row,
        for all of a basis's cycles at once."""
        for b, sub in _split(cycles, chunk.chosen[cycles]):
            entry = control.bases[b]
            check = node.child(entry.basis_id)
            if check.leaf is None:
                state = self.replayed(node, state)
                check.tabulate(pair_probs(state, entry.basis))
            alice = pick(check.probs, check.cum, chunk.alice_u[sub])
            bob = pick_rows(check.leaf, check.masses, alice, chunk.bob_u[sub])
            at_rank = chunk.rank[sub]
            chunk.basis[at_rank], chunk.outcomes[at_rank, 0], chunk.outcomes[at_rank, 1] = b, alice, bob
            chunk.passed[at_rank] = ~entry.fail[alice, bob]


class _Chunk:
    """A chunk of a `run_sessions` call: per cycle its session, reserved Philox blocks, mode, menu index, uniforms,
    `rank` in its mode and message code (`at`, into `message`); the transcript columns; per session its first
    failing cycle (`limit`); per configuration the time its steps took (`took`, by its first session)."""

    def __init__(self, owner: np.ndarray, message: np.ndarray, errors: list):
        self.owner, self.message, self.errors, self.limit = owner, message, errors, np.full(len(errors), len(owner))
        self.blocks = np.ones(len(owner), dtype=np.int64)  # Philox blocks reserved per cycle
        self.is_control, self.chosen = np.zeros(len(owner), dtype=bool), np.empty(len(owner), dtype=np.int64)
        self.alice_u, self.bob_u, self.took = np.empty(len(owner)), np.empty(len(owner)), np.zeros(len(errors))

    def fail(self, reached: np.ndarray, error: Exception) -> None:
        """A session fails with `error` at its first cycle in `reached`, unless at an earlier one already."""
        hit, where = np.unique(self.owner[reached], return_index=True)
        for s, k in zip(hit.tolist(), reached[where].tolist()):
            if k < self.limit[s]:
                self.limit[s], self.errors[s] = k, error


def _cuts(counts: np.ndarray, keys: list, wide: list) -> list:
    """Each chunk's first cycle, then the last chunk's end, for sessions of `counts` cycles one after another. A
    chunk holds at most `rand.CHUNK` cycles, and one starts before a session whose tree (`keys`, of `wide`
    amplitudes) would take the distinct trees of the chunk past SLICE_AMPS amplitudes."""
    ends, cuts, held = np.cumsum(counts), [0], {}  # held: the widths of the last chunk's trees
    for s in np.flatnonzero(counts).tolist():
        if held and keys[s] not in held and sum(held.values()) + wide[s] > SLICE_AMPS:
            cuts.append(int(ends[s] - counts[s]))
            held = {}
        held[keys[s]] = wide[s]
        while ends[s] - cuts[-1] > rand.CHUNK:
            cuts.append(cuts[-1] + rand.CHUNK)
            held = {keys[s]: wide[s]}
    return cuts + [int(ends[-1])]


class _Call:
    """The sessions of a `run_sessions` call, one after another. Per session: its tree's key and width, its
    configuration (`config`, the index of the configuration's first session), message pairs and those `sent` so
    far, error, columns in each chunk walked (`chunks`) and walk time (`spent`). `trees` holds the trees in use."""

    def __init__(self, cfgs: Sequence[ProtocolConfig], messages: list, eves: Sequence, controls: Sequence):
        self.cfgs, self.eves, self.controls, self.trees, self.chunks = cfgs, eves, controls, {}, [[] for _ in cfgs]
        self.keys = [(id(eve), cfg.dim, cfg.initial_state_kind) for cfg, eve in zip(cfgs, eves)]
        self.wide = [attached_width(cfg.dim, eve) for cfg, eve in zip(cfgs, eves)]
        heads, self.errors, self.pairs = {}, [None] * len(cfgs), []
        self.config = np.array([heads.setdefault((key, id(c)), s) for s, (key, c) in enumerate(zip(self.keys, controls))])
        for s, message in enumerate(messages):
            try:
                self.pairs.append(message_pairs(message, cfgs[s].dim))
            except ValueError as exc:
                self.pairs.append(np.zeros((0, 2), dtype=np.int64))
                self.errors[s] = exc.with_traceback(None)
        self.n_pairs = np.array([len(p) for p in self.pairs])
        self.message = np.concatenate([p[:, 0] * cfg.dim + p[:, 1] for p, cfg in zip(self.pairs, cfgs)])  # mu * dim + nu
        self.seeds = np.array([c.seed for c in cfgs], dtype=np.int64 if max(c.seed for c in cfgs) < 2**63 else object)
        self.prob, self.counts = np.array([cfg.control_prob for cfg in cfgs]), np.array([cfg.n_cycles for cfg in cfgs])
        self.ends, self.sent, self.spent = np.cumsum(self.counts), np.zeros(len(cfgs), dtype=np.int64), np.zeros(len(cfgs))

    def tree(self, head: int) -> SessionTree:
        """Configuration `head`'s tree: the call's, else the one Eve's handle keeps, else a new one, which the
        handle keeps if its attached state fits in one stack (SLICE_AMPS)."""
        key, eve = self.keys[head], self.eves[head]
        if key not in self.trees:
            tree = self.trees[key] = eve.session_trees.get(key[1:]) or SessionTree(self.cfgs[head], eve)
            if self.wide[head] <= SLICE_AMPS:
                eve.session_trees[key[1:]] = tree
        return self.trees[key]

    def guarded(self, chunk: _Chunk, head: int, step: Callable, *args):
        """`step(*args)` of configuration `head`, timed in `chunk.took`. If it raises, the configuration's sessions
        end with its error, Eve's handle drops their tree, and the result is None."""
        tick = time.perf_counter()
        try:
            return step(*args)
        except Exception as exc:  # noqa: BLE001 - the other configurations go on
            self.eves[head].session_trees.pop(self.keys[head][1:], None)
            for s in np.flatnonzero(self.config == head).tolist():
                self.errors[s] = self.errors[s] or exc.with_traceback(None)  # keeps no frame of the walk
        finally:
            chunk.took[head] += time.perf_counter() - tick

    def walk(self, start: int, stop: int) -> None:
        """The live sessions' cycles in [start, stop) as one chunk: each configuration's `tree` and its cycles'
        Philox blocks, one `rand.CycleDraws`, each configuration's `draw`, one ranking of the cycles by mode, the
        message check, each configuration's `walk`; then each session's column slices and share of the time."""
        tick, live, cycle = time.perf_counter(), np.array([error is None for error in self.errors]), np.arange(start, stop)
        owner = np.searchsorted(self.ends, cycle, side="right")  # each cycle's session
        cycle, owner = cycle[live[owner]], owner[live[owner]]
        if not (n := len(owner)):
            return
        chunk, config, n_pairs = _Chunk(owner, self.message, self.errors), self.config, self.n_pairs
        parts = [(h, sub, tree) for h, sub in _split(np.arange(n), config[owner])
                 if (tree := self.guarded(chunk, h, self.tree, h))]
        for h, sub, tree in parts:
            chunk.blocks[sub] = tree.blocks  # its cycles' Philox blocks
        draws = rand.CycleDraws(self.seeds[owner], rand.SESSION_TAG, cycle - (self.ends - self.counts)[owner], chunk.blocks)
        work = [(h, tree, taken) for h, sub, tree in parts
                if (taken := self.guarded(chunk, h, tree.draw, chunk, self.controls[h], draws, sub, self.prob))]
        del draws  # the words are not held through the walk
        ctrl, msg = np.flatnonzero(chunk.is_control), np.flatnonzero(~chunk.is_control)
        chunk.rank = np.where(chunk.is_control, np.cumsum(chunk.is_control), np.cumsum(~chunk.is_control)) - 1
        per = np.bincount(owner[msg], minlength=len(config))
        first = np.cumsum(per) - per - self.sent  # a session's message cycles run in a row in `msg`, pair k's at first + k
        chunk.at = (np.cumsum(n_pairs) - n_pairs - first)[owner] + chunk.rank  # each message cycle's code in `message`
        columns = chunk.decoded, chunk.guess, chunk.basis, chunk.outcomes, chunk.passed = _columns(len(msg), len(ctrl))
        for s in np.flatnonzero((self.sent + per > n_pairs) & [error is None for error in self.errors]).tolist():
            chunk.fail(msg[[first[s] + n_pairs[s]]], ValueError("message exhausted before the session finished"))
        for h, tree, taken in work:
            self.guarded(chunk, h, tree.walk, chunk, self.controls[h], self.eves[h].guess, *taken)
        del work  # not held while the next chunk's draws are computed

        mine = np.bincount(owner, minlength=len(config))  # each session's cycles, consecutive in every column
        present = np.flatnonzero(mine)
        bounds = [np.searchsorted(key, present).tolist() + [len(key)] for key in (owner, owner[msg], owner[ctrl])]
        for i, s in enumerate(present.tolist()):
            c, m, k = (slice(b[i], b[i + 1]) for b in bounds)
            self.chunks[s].append((chunk.is_control[c], *(col[m] for col in columns[:2]), *(col[k] for col in columns[2:])))
        self.sent += per
        by_config = np.maximum(np.bincount(config[owner], minlength=len(config)), 1)[config]  # cycles per configuration
        self.spent += mine * ((time.perf_counter() - tick - chunk.took.sum()) / n + chunk.took[config] / by_config)


def run_sessions(cfgs: Sequence[ProtocolConfig], messages, eves: Sequence["EavesdropperHandle"],
                 controls: Sequence["ControlModeHandle"]) -> Iterator:
    """Walk sessions of several configurations through one chunk sequence;
    yield each session's `Transcript`, or the error that ends it, in order,
    once the chunk with its last cycle has been walked.

    Session s takes cfgs[s], messages[s] (an (m, 2) array or sequence of
    pairs, consumed in order), eves[s] and controls[s], which must act on its
    dim; cycle k draws from `stream(seed, SESSION_TAG, k)`. The cycles, one
    session after another, go a chunk at a time (`_cuts`, `_Call.walk`), and
    the sessions of one Eve handle, dim and kind share a tree (`_Call.tree`).
    A session whose cycles lie in one chunk comes back as slices of that
    chunk's columns. A session fails at its first cycle that runs out of
    message or reaches a coherence break in Bob's decoder (`_Chunk.fail`), or
    when a step of its configuration raises (`_Call.guarded`); the others go
    on."""
    messages = list(messages)
    if len(messages) != len(cfgs):
        raise ValueError(f"need one message per session, got {len(messages)} for {len(cfgs)} sessions")
    for cfg, eve, control in zip(cfgs, eves, controls, strict=True):
        check_dims(eve, control, cfg.dim)
    if not cfgs:
        return
    call, yielded = _Call(cfgs, messages, eves, controls), 0
    last = {key: s for s, key in enumerate(call.keys)}  # each tree's last session
    cuts = _cuts(call.counts, call.keys, call.wide)
    for start, stop in zip(cuts, cuts[1:]):
        call.walk(start, stop)
        while yielded < len(cfgs) and call.ends[yielded] <= stop:
            s, yielded = yielded, yielded + 1
            pieces, call.chunks[s] = call.chunks[s] or [(np.zeros(0, dtype=bool), *_columns(0, 0))], None
            is_control, decoded, guess, basis, outcomes, passed = (  # one chunk's are its slices, with no copy
                pieces[0] if len(pieces) == 1 else map(np.concatenate, zip(*pieces)))
            if last[call.keys[s]] == s:
                call.trees.pop(call.keys[s], None)
            symbols, basis_ids = call.pairs[s][: call.sent[s]], tuple(cb.basis_id for cb in controls[s].bases)
            yield call.errors[s] or Transcript(is_control, symbols, decoded, guess, basis_ids, basis, outcomes, passed,
                                               call.spent[s])


def run_session(cfg: ProtocolConfig, message, eve: "EavesdropperHandle",
                control: "ControlModeHandle") -> Transcript:
    """Run n_cycles of the protocol and return the transcript as columns:
    `run_sessions` for this one session, raising the error that ends it."""
    [result] = run_sessions([cfg], [message], [eve], [control])
    if isinstance(result, Transcript):
        return result
    try:
        raise result
    finally:  # no reference cycle through the traceback keeps the tree alive
        del result
