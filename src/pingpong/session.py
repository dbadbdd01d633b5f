"""The session engine: many cycles of the protocol walked through a branch
tree of Eve's edges (`protocol`'s `UnitaryEdge`, `MeasureEdge`,
`DrawEdge`).

`run_sessions` walks the sessions of several configurations a chunk of their
cycles at a time: `_cuts` plans the chunks, `_Call.walk` walks one, and
`SessionTree` takes a configuration's cycles through its attack's branch
tree. A cycle's draws follow one program, derived once per tree from the
edges' declared draws: the forward leg's, the mode uniform, then the return
legs' or three control uniforms, a word each. So each cycle reserves the
Philox blocks of the program's longer branch, a chunk reads its sessions'
words with one `rand.words` call per session (`rand.CycleDraws`), and a
tree reads its cycles' draws by position in a few vectorized reads
(`leg_columns` puts a leg's in columns). Each node
splits its cycles among its successors with array operations, and each
session comes back as a columnar `protocol.Transcript`; `run_session` is
the one-session call. `follow` walks a leg a tree level at a time: the
nodes of a level with nothing built below them take its edge together,
their states stacked, so the symbol pairs a post-forward node's cycles
reach take their encoding, Eve's return legs, `factor` and Bob's decode in
a few kernel calls (`SessionTree.leaves`). A measurement with several
outcomes keeps its Born row on its node, and a successor is made only when
a cycle first reaches it. A control cycle reads the joint table of its
post-forward node (`protocol.pair_probs`), picks Alice's outcome from its
marginal and Bob's from her row, and is judged by the menu basis's
failing-pair mask (`SessionTree.checks`); it collapses no state.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence

import numpy as np

from .protocol import (
    HOME,
    TRAVEL,
    CoherenceBreakError,
    MeasureEdge,
    ProtocolConfig,
    ReadoutEdge,
    Transcript,
    _columns,
    attached_width,
    bob_decode,
    check_dims,
    dense_encode,
    make_initial_state,
    message_pairs,
    pair_probs,
)
from .qstate import StateVector, factor, pick, pick_rows, running_sum
from . import rand

if TYPE_CHECKING:  # pragma: no cover
    from .attacks import EavesdropperHandle
    from .control import ControlModeHandle

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
    `leaf` is Bob's decoded pair and Eve's guess. A node left by a
    measurement with several supported outcomes keeps its Born row as
    `probs` and its running sum as `cum`, and a successor is made when a
    cycle first reaches it (`grown`). A node with successors, a kept row or
    a leaf needs no state to walk (`built`).
    """

    __slots__ = ("notes", "next", "probs", "cum", "masses", "leaf", "__weakref__")

    def __init__(self, notes: dict):
        self.notes = notes  # outcomes recorded on the path to this node
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

    def grown(self, key, outcome) -> "_Node":
        """The successor under `outcome` of the edge that records it as `key`; made when a cycle first reaches
        it, as every other node's successors were made when it grew."""
        node = self.next.get(outcome)
        if node is None:
            node = self.next[outcome] = _Node({**self.notes, key: outcome})
        return node

    @property
    def built(self) -> bool:
        return bool(self.next) or self.leaf is not None or self.cum is not None


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


def _replay(leg: Sequence, states: StateVector, nodes: list, out=lambda level, post=False: None) -> StateVector:
    """The stack of the states of `nodes`, each at the end of `leg` from its
    row of `states`: every edge is taken with the outcome the node's notes
    record, writing where `out` says (`_Walk.out`)."""
    rows = np.arange(len(nodes))
    for level, edge in enumerate(leg):
        outcomes = None if edge.key is None else np.array([node.notes[edge.key] for node in nodes])
        states = edge.post(edge.branches(states, out(level))[0], rows, outcomes, out(level, True))
    return states


def follow(leg: Sequence, starts: list, taken: list, source: Callable, width: int) -> Iterator:
    """Walk the cycles of each (node, cycles) in `starts` through `leg` a
    tree level at a time, with their draws (`leg_columns`); yield the
    (node, cycles) ends they reach, a list at a time, with the stack of their
    states, or None where none was needed.

    A node with successors, a kept Born row or a leaf value splits its
    cycles among its successors with no state. The nodes of a level with
    none of these grow together: their stacked states take the edge in one
    kernel call. A measurement with several supported outcomes keeps a
    state's Born row on its node; any other edge makes a successor of each
    outcome with support. The successors the cycles reach, made on first
    reach from a kept row, go down with their post-states. A node reached
    without its parent's state (an earlier walk built the parent) has its
    path replayed from its start state, which `source(indices, out)` stacks
    for indices into `starts`, in the memory `out` if it writes a new array
    (`_Walk.out`). A stack holds at most SLICE_AMPS amplitudes of states of
    `width` amplitudes, or one state, and reaches the end of the leg before
    the next is built; a yielded stack is not used once the walk goes on.
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
    rooms: dict = field(default_factory=dict)

    def out(self, level: int, post: bool = False) -> Optional[Callable]:
        """The memory `level`'s table or post-states are written in
        (`qstate._out`), level -1's post-states being the stacks `source`
        makes; None for stacks of several states. A walk whose stacks hold
        one state keeps an array per level for the table and one for the
        post-states, and one for scratch (a Born table's conjugates, a
        collapse's product), made on first use and written again by every
        stack, so their pages are faulted once per walk."""
        return None if self.per > 1 else partial(self.room, (level, post))

    def room(self, key: tuple, shape: tuple, part: int = 0) -> np.ndarray:
        key, n = "scratch" if part else key, math.prod(shape)
        if len(self.rooms.get(key, ())) < n:
            self.rooms[key] = np.empty(n, dtype=np.complex128)
        return self.rooms[key][:n].reshape(shape)

    def slices(self, entries: list) -> list:
        return [entries[lo:lo + self.per] for lo in range(0, len(entries), self.per)]

    def descend(self, level: int, bare: list) -> Iterator:
        """Take entries with no state from `level` to the end of the leg."""
        built = [entry for entry in bare if entry[0].built]
        if built and level == len(self.leg):
            yield [entry[:2] for entry in built], None
        elif built:
            yield from self.descend(level + 1, [(succ, sub, start) for node, cycles, start in built
                                                for _, succ, sub in _route(self.leg[level], self.taken[level], node, cycles)])
        for part in self.slices([entry for entry in bare if not entry[0].built]):
            nodes, starts = [node for node, *_ in part], self.source([s for *_, s in part], self.out(-1, True))
            yield from self.grow(level, part, _replay(self.leg[:level], starts, nodes, self.out))

    def grow(self, level: int, entries: list, states: StateVector) -> Iterator:
        """Grow the entries' successors from their stacked states and take
        those their cycles reach down with their post-states."""
        if level == len(self.leg):
            yield [entry[:2] for entry in entries], states
            return
        edge = self.leg[level]
        table, probs = edge.branches(states, self.out(level))
        del states  # only the table is read from here on
        supported = probs > 0.0
        lazy = (supported.sum(axis=1) > 1) & isinstance(edge, MeasureEdge)  # rows that keep their Born row
        for row in np.flatnonzero(lazy).tolist():
            node = entries[row][0]
            node.probs = np.where(supported[row], probs[row], 0.0)
            node.cum = running_sum(node.probs)
        rows, cols = np.nonzero(supported & ~lazy[:, None])
        for row, col in zip(rows.tolist(), cols.tolist()):
            node, outcome = entries[row][0], None if edge.key is None else col
            node.next[outcome] = _Node(node.notes if edge.key is None else {**node.notes, edge.key: col})
        reached = [(row, outcome, (succ, sub, start)) for row, (node, cycles, start) in enumerate(entries)
                   for outcome, succ, sub in _route(edge, self.taken[level], node, cycles)]  # (row, outcome, successor entry)
        if edge.key is not None:  # a stack of one outcome takes a `DrawEdge` in one `apply`
            reached.sort(key=lambda item: item[1])
        parts = self.slices(reached)
        for i, part in enumerate(parts):
            rows, outcomes, succ = zip(*part)
            below = self.grow(level + 1, list(succ), edge.post(table, np.array(rows), np.array(outcomes),
                                                             self.out(level, True)))
            if i == len(parts) - 1:
                del table  # not held while the last stack goes down
            yield from below


def _route(edge, column, node: _Node, cycles: np.ndarray) -> list:
    """(outcome, successor, cycles) for each successor of `node` the cycles
    reach by their draws in `column`."""
    if node.cum is None and len(node.next) == 1:  # every draw picks the one successor
        return [(*next(iter(node.next.items())), cycles)]
    reached = _split(cycles, edge.outcomes(node, column[cycles]))
    return [(outcome, node.grown(edge.key, outcome), sub) for outcome, sub in reached]


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
        # the forward walk's one start is the attached pair: `take` stacks it once per index, writing nothing
        start = lambda rows, out: self.state.take(rows)  # noqa: E731
        for nodes, states in follow(self.forward, [(self.root, cycles)], there, start, self.state.layout.dim):
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
        if not all(start.built for start, _ in starts):
            state = self.replayed(node, state)
        encoded = lambda rows, out: dense_encode(self.replayed(node, state), mu[rows], nu[rows], out)  # noqa: E731
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
    dim; cycle k of a session whose tree reserves B blocks a cycle reads its
    draws from block k * B of stream (seed, SESSION_TAG). The cycles, one
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
