"""Ping-pong protocol state machine for arbitrary qudit dimension.

Bob keeps the home qudit (label "h") and sends the travel qudit ("t") to
Alice, who either dense-codes a symbol pair onto it (message mode) or
measures it for a correlation check (control mode). An eavesdropper handle
acts on the travel leg in both directions, described as the branch edges
defined here; `walk_leg` yields the exact ensemble a leg leaves behind.

The protocol itself lives here: the configuration and its checks, Bob's
pair, Alice's encodings, the Bell table and Bob's decode, the branch edges
and the columnar `Transcript` a session comes back as. The session engine
that walks many cycles through these edges is `session`, which this module
does not import. A control cycle reads the joint table P(alice, bob) of its
post-forward state (`pair_probs`, the table detection sums); a return leg
that ends in Eve's readout of all her registers (`ReadoutEdge`) hands Bob
the (home, travel) pairs with no collapse.
"""

from __future__ import annotations

import math
import numbers
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
    pick,
)

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
# notes entry that records the outcome. The session engine (`session`) reads
# a tree's draws from those declarations and walks the legs' edges through a
# configuration's branch tree with them; `walk_leg` gives the exact ensemble
# a leg leaves behind (`deferred` first drops the measurements a marginal
# does not need). The per-cycle stepwise reference is
# `tests/oracles.py::step`.


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

    def outcomes(self, node, uniforms: np.ndarray) -> np.ndarray:
        """The outcome each uniform picks from the Born row a session node
        keeps (`probs`, zeros where an outcome has no support, and its
        running sum `cum`), the row `born_table` gave, bit for bit."""
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

    def outcomes(self, node, fs: np.ndarray) -> np.ndarray:
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
