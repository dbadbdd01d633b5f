"""Eavesdropping strategies against the travel leg.

Coupling attacks entangle the travel qudit with an ancilla through a unitary
Q on the forward leg, undo it with Q^-1 on the return leg, and read the
bit-flip symbol off the ancilla. `generic_coupling` builds Q from any
orthonormal detection/probe families, one ancilla block per travel level;
the CNOT, controlled-shift and beam-splitter-circuit attacks are that one
builder called with their own named families. Intercept-resend is the
procedural baseline that control mode exists to defeat.
"""

from __future__ import annotations

import json
import math
import numbers
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache
from pathlib import Path
from typing import Iterator

import numpy as np

from .protocol import (
    HOME,
    MAX_DIM,
    TRAVEL,
    DrawEdge,
    MeasureEdge,
    UnitaryEdge,
    _encoding_operator,
    deferred,
    walk_leg,
)
from .qstate import (
    ATOL_BASIS,
    Basis,
    BasisError,
    Operator,
    StateVector,
    SubsystemLayout,
    orthonormal_completion,
    tensor,
)

# Trinary-rail levels: an empty rail, a horizontally and a vertically
# polarized photon. The index mapping is fixed package-wide.
VACUUM, H_POL, V_POL = 0, 1, 2
RAIL_DIM = 3


@dataclass(frozen=True)
class StateFamily:
    """Orthonormal ancilla states (a detection or probe family)."""

    states: tuple[StateVector, ...]

    def __post_init__(self):
        if not self.states:
            raise ValueError("family must contain at least one state")
        layout = self.states[0].layout
        if any(s.layout != layout for s in self.states):
            raise ValueError("family states must share one ancilla layout")
        mat = self.columns
        dev = np.max(np.abs(mat.conj().T @ mat - np.eye(len(self.states))))
        if not dev <= ATOL_BASIS:
            raise BasisError(f"family is not orthonormal (Gram deviation {dev:.3e})")

    @classmethod
    def computational(cls, layout: SubsystemLayout, size: int) -> "StateFamily":
        if size > layout.dim:
            raise ValueError("family larger than the ancilla dimension")
        states = []
        for k in range(size):
            amps = np.zeros(layout.dim, dtype=np.complex128)
            amps[k] = 1.0
            states.append(StateVector(layout, amps))
        return cls(tuple(states))

    @property
    def layout(self) -> SubsystemLayout:
        return self.states[0].layout

    @cached_property
    def columns(self) -> np.ndarray:
        mat = np.column_stack([s.amps for s in self.states])
        mat.flags.writeable = False
        return mat

    def __len__(self) -> int:
        return len(self.states)


@dataclass(frozen=True, eq=False)
class CouplingReport:
    """Residuals of the index-shift conditions on Q and Q^-1, as [k, m]
    arrays; `rows` lists them per (k, m), built on first use."""

    forward: np.ndarray
    backward: np.ndarray
    TOLERANCE = 1e-10  # a class constant, not a field: it has no annotation

    @property
    def _ok(self) -> np.ndarray:
        """Per (k, m), both residuals below TOLERANCE; a NaN one is not."""
        return (self.forward < self.TOLERANCE) & (self.backward < self.TOLERANCE)

    @property
    def passed(self) -> bool:
        return bool(self._ok.all())

    @cached_property
    def rows(self) -> tuple[tuple[int, int, float, float], ...]:
        dim = len(self.forward)
        ks, ms = np.divmod(np.arange(dim * dim), dim)
        return tuple(zip(ks.tolist(), ms.tolist(), self.forward.ravel().tolist(), self.backward.ravel().tolist()))

    def failures(self) -> list[tuple[int, int, float, float]]:
        return [self.rows[i] for i in np.flatnonzero(~self._ok.ravel()).tolist()]


@dataclass(frozen=True)
class EavesdropperHandle(ABC):
    """Eve's part of a cycle, described as branch edges.

    An implementation gives three legs, each a tuple of edges from
    `protocol` (`UnitaryEdge`, `MeasureEdge`, `DrawEdge`): `forward_leg` on
    the way to Alice, `backward_leg` on the way back and `readout_leg`
    before Bob's decode. `guess(notes)` is Eve's shift-symbol guess from
    the outcomes the edges recorded (None: abstain). The session engine
    walks these legs with `protocol.follow`, and detection reads the
    post-forward ensemble off the forward leg's edges (`coupled_branches`),
    without branching on a measurement that only the later legs read.
    Handles are immutable.
    """

    name: str
    dim: int
    initial_ancilla: StateVector

    @property
    @abstractmethod
    def forward_leg(self) -> tuple: ...

    @property
    @abstractmethod
    def backward_leg(self) -> tuple: ...

    @property
    @abstractmethod
    def readout_leg(self) -> tuple: ...

    @abstractmethod
    def guess(self, notes: dict) -> int | None: ...

    @property
    def ancilla_labels(self) -> tuple[str, ...]:
        return self.initial_ancilla.layout.labels

    def attach(self, state: StateVector) -> StateVector:
        return tensor(state, self.initial_ancilla)

    @cached_property
    def detection_plans(self) -> dict:
        """The sampler plans `control.detection_plan` keeps for this handle."""
        return {}

    @cached_property
    def session_trees(self) -> dict:
        """The narrow session trees `protocol.run_sessions` keeps for this handle."""
        return {}

    def coupled_branches(self, init: StateVector) -> Iterator[tuple[float, StateVector]]:
        """The post-forward ensemble of `init` as (probability, state) per
        branch, walked lazily and depth-first; exact for the (home, travel)
        marginal detection reads. A measurement that only Eve's later legs
        read is not branched on (`protocol.deferred`), so intercept-resend's
        ensemble has D branches, one per substitute, not D^2. Sessions
        still branch on it: each cycle's draws pick its outcome."""
        return walk_leg(deferred(self.forward_leg, (HOME, TRAVEL)), self.attach(init))


@dataclass(frozen=True)
class CouplingHandle(EavesdropperHandle):
    """Coupling attack: Q on the forward leg, Q^-1 on the return leg, then a
    readout of the ancilla.

    `coupling` acts on travel (x) ancilla with the travel axis first;
    `detection` is the readout family (None: abstain).
    """

    coupling: Operator
    detection: StateFamily | None = None
    _readout_basis: Basis | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        anc_dim = self.initial_ancilla.layout.dim
        if self.coupling.kind != "unitary":
            raise ValueError("coupling must be a unitary-tagged operator")
        if self.coupling.dim != self.dim * anc_dim:
            raise ValueError(
                f"coupling dim {self.coupling.dim} != travel*ancilla {self.dim * anc_dim}"
            )
        if self.detection is not None:
            if len(self.detection) != self.dim:
                raise ValueError("detection family must hold one state per travel level")
            completed = orthonormal_completion(self.detection.columns, anc_dim)
            object.__setattr__(self, "_readout_basis", Basis(completed, "detection"))

    @property
    def forward_leg(self) -> tuple:
        return (UnitaryEdge(self.coupling, (TRAVEL,) + self.ancilla_labels),)

    @cached_property
    def backward_leg(self) -> tuple:
        """Q^-1, built once per handle."""
        return (UnitaryEdge(self.coupling.inverse, (TRAVEL,) + self.ancilla_labels),)

    @property
    def readout_leg(self) -> tuple:
        """Measure the ancilla in the detection family."""
        if self.detection is None:
            return ()
        return (MeasureEdge(self.ancilla_labels, self._readout_basis, "readout"),)

    def guess(self, notes: dict) -> int | None:
        """Undo the index shift of the readout outcome."""
        got = notes.get("readout")
        if got is None or got >= self.dim:  # outside the family; unreachable in a clean run
            return None
        return (-got) % self.dim


@lru_cache(maxsize=None)
def _swap_operator(dim: int) -> Operator:
    """|a, b> -> |b, a> on two qudits: a permutation of the levels."""
    a, b = np.divmod(np.arange(dim * dim), dim)
    return Operator.monomial(b * dim + a)


@dataclass(frozen=True)
class InterceptResendHandle(EavesdropperHandle):
    """Measure-and-substitute attack.

    Forward leg: Eve swaps the genuine travel qudit into her storage
    register, measures it in the computational basis (keeping the outcome),
    and substitutes a fresh qudit prepared in a uniformly random
    computational state. Return leg: she measures the returning substitute,
    which reveals the shift symbol exactly, and hands the genuine particle
    back so Bob receives something.
    """

    @property
    def _swap(self) -> UnitaryEdge:
        return UnitaryEdge(_swap_operator(self.dim), (TRAVEL, self.ancilla_labels[0]))

    @property
    def forward_leg(self) -> tuple:
        shifts = (None,) + tuple(_encoding_operator(self.dim, f, 0) for f in range(1, self.dim))
        return (
            self._swap,
            MeasureEdge(self.ancilla_labels[:1], Basis.computational(self.dim), "genuine"),
            DrawEdge("fake", shifts, (TRAVEL,)),
        )

    @property
    def backward_leg(self) -> tuple:
        return (MeasureEdge((TRAVEL,), Basis.computational(self.dim), "returned"), self._swap)

    readout_leg = ()  # the guess needs no measurement beyond the two legs'

    def guess(self, notes: dict) -> int:
        """The returned substitute's shift from its prepared value."""
        return (notes["returned"] - notes["fake"]) % self.dim


def no_attack(dim: int = 2) -> EavesdropperHandle:
    """Baseline handle: one-dimensional scratch ancilla, identity coupling."""
    layout = SubsystemLayout.of(("e", 1))
    return CouplingHandle(
        name="none",
        dim=dim,
        initial_ancilla=StateVector.basis(layout, (0,)),
        coupling=Operator.monomial(np.arange(dim)),
        detection=None,
    )


def intercept_resend(dim: int) -> EavesdropperHandle:
    if dim < 2:
        raise ValueError("dim must be >= 2")
    layout = SubsystemLayout.of(("e", dim))
    return InterceptResendHandle(
        name="intercept-resend",
        dim=dim,
        initial_ancilla=StateVector.basis(layout, (0,)),
    )


def cnot_attack() -> EavesdropperHandle:
    """Single-qubit-ancilla attack: the generic coupling with computational
    families on one qubit, which is Q = CNOT with the travel qubit as control.
    Like every builder, it builds a new handle; `from_name` keeps one."""
    family = StateFamily.computational(SubsystemLayout.of(("x", 2)), 2)
    return generic_coupling(2, family, family, "cnot")


def qudit_shift_attack(dim: int) -> EavesdropperHandle:
    """Controlled-shift attack, Q|k_t, m_e> = |k_t, (m+k mod D)_e>: the generic
    coupling with computational families on one qudit."""
    if dim < 2:
        raise ValueError("dim must be >= 2")
    family = StateFamily.computational(SubsystemLayout.of(("e", dim)), dim)
    return generic_coupling(dim, family, family, "qudit-shift")


# --- photonic rail machinery -------------------------------------------------

def rail_layout() -> SubsystemLayout:
    return SubsystemLayout.of(("x", RAIL_DIM), ("y", RAIL_DIM))


def rail_state(x_level: int, y_level: int) -> StateVector:
    return StateVector.basis(rail_layout(), (x_level, y_level))


def _rail_superposition(*terms: tuple[int, int]) -> StateVector:
    amps = sum(rail_state(x, y).amps for x, y in terms) / math.sqrt(len(terms))
    return StateVector(rail_layout(), amps)


def chi_states() -> tuple[StateVector, StateVector]:
    """Detection states: empty x-rail / empty y-rail, photon horizontal."""
    return rail_state(VACUUM, H_POL), rail_state(H_POL, VACUUM)


def probe_states() -> tuple[StateVector, StateVector]:
    """The two equal superpositions the circuit maps the ancilla onto."""
    a_state = _rail_superposition((H_POL, VACUUM), (VACUUM, V_POL))
    d_state = _rail_superposition((VACUUM, H_POL), (V_POL, VACUUM))
    return a_state, d_state


def pavicic_circuit() -> EavesdropperHandle:
    """Beam-splitter-circuit attack on two trinary rails: the generic coupling
    from the chi states onto the equal superpositions; `from_name` keeps one.

    Each chi state maps onto one of the superpositions, swapped when the
    travel qubit is set. The rest of each travel level's 9-dimensional rail
    block is completed deterministically; protocol evolution never leaves
    the specified subspace, so the completion is unobservable.
    """
    return generic_coupling(2, StateFamily(chi_states()), StateFamily(probe_states()), "pavicic")


def generic_coupling(
    dim: int,
    detection: StateFamily,
    probes: StateFamily,
    name: str = "generic",
) -> EavesdropperHandle:
    """Build Eve's unitary from arbitrary detection/probe families.

    Q maps |k_t>|detection_m> to |k_t>|probe_{m+k mod D}> for every k, m, so
    it is block-diagonal in the travel level: Q = sum_k |k><k| (x) U_k with
    U_k = [p_{m+k} | C_p][d_m | C_d]^dagger on the ancilla, where C_d and C_p
    complete each family deterministically (`orthonormal_completion`). This
    is the canonical completion of the whole travel (x) ancilla space,
    which is block-diagonal with exactly these blocks. The result is checked
    with validate_coupling before it is returned.
    """
    if len(detection) != dim or len(probes) != dim:
        raise ValueError("need exactly one detection and one probe state per travel level")
    if detection.layout != probes.layout:
        raise ValueError("detection and probe families must share the ancilla layout")
    anc_dim = detection.layout.dim
    det = orthonormal_completion(detection.columns, anc_dim)
    prb = orthonormal_completion(probes.columns, anc_dim)
    levels = np.arange(dim)
    shift = (levels[:, None] + levels) % dim  # shift[k, m] = m + k mod D
    # Row k of `picks` selects block k's image columns [p_{m+k} | C_p].
    picks = np.hstack([shift, np.broadcast_to(np.arange(dim, anc_dim), (dim, anc_dim - dim))])
    blocks = prb[:, picks].transpose(1, 0, 2) @ det.conj().T
    coupling = Operator.block_unitary(blocks)
    report = validate_coupling(coupling, detection, probes, dim)
    if not report.passed:
        raise ArithmeticError(
            f"constructed coupling violates the shift conditions: {report.failures()[:3]}"
        )
    return CouplingHandle(
        name=name,
        dim=dim,
        initial_ancilla=detection.states[0],
        coupling=coupling,
        detection=detection,
    )


def validate_coupling(
    coupling: Operator, detection: StateFamily, probes: StateFamily, dim: int
) -> CouplingReport:
    """Residuals of Q|k, d_m> = |k, p_{m+k}> and the inverse condition.

    The coupling must be block-diagonal in the travel level, D blocks on the
    ancilla, as every coupling the paper defines is: Q = sum_k |k><k| (x) U_k.
    It then cannot leave a travel level's block, so each residual over the
    whole travel (x) ancilla space is read off its block U_k.
    """
    anc_dim = detection.layout.dim
    blocks = coupling.blocks
    if blocks is None or blocks.shape != (dim, anc_dim, anc_dim):
        raise ValueError(f"coupling must be {dim} travel blocks of {anc_dim}x{anc_dim} on the ancilla")
    det = detection.columns
    prb = probes.columns
    levels = np.arange(dim)
    shift = (levels[:, None] + levels) % dim  # shift[k, m] = m + k mod D
    # U_k d_m - p_{m+k} as [k, ancilla, m], and (U_k^dagger p_m - d_{m-k})^* as [k, m, ancilla]
    fwd = blocks @ det - prb[:, shift].transpose(1, 0, 2)
    bwd = prb.conj().T @ blocks - det.conj().T[(levels - levels[:, None]) % dim]
    return CouplingReport(np.linalg.norm(fwd, axis=1), np.linalg.norm(bwd, axis=2))


def family_from_json(contents: bytes) -> tuple[StateFamily, StateFamily]:
    """Load detection/probe families from a JSON file's contents.

    Schema: {"detection": [state, ...], "probes": [state, ...]} where each
    state is an array of [re, im] amplitude pairs. All states must share one
    length, at most `protocol.MAX_DIM`, which becomes the dimension of a
    single ancilla register "e".
    """
    payload = json.loads(contents)
    try:
        raw_det = payload["detection"]
        raw_prb = payload["probes"]
    except (TypeError, KeyError) as exc:
        raise ValueError("family file needs 'detection' and 'probes' arrays") from exc

    def build(key: str, raw) -> StateFamily:
        if not isinstance(raw, list) or not all(
            isinstance(state, list) and all(map(_is_number_pair, state)) for state in raw
        ):
            raise ValueError(
                f"family file field {key!r} must be a list of states, "
                "each a list of [re, im] number pairs"
            )
        if not all(math.isfinite(x) for state in raw for pair in state for x in pair):
            raise ValueError(f"family file field {key!r} holds a non-finite amplitude")
        lengths = {len(state) for state in raw}
        if len(lengths) != 1:
            raise ValueError("all family states must have the same length")
        length = lengths.pop()
        if length > MAX_DIM:
            raise ValueError(f"family states must have at most {MAX_DIM} amplitudes, got {length}")
        vectors = [np.array([complex(re, im) for re, im in state]) for state in raw]
        layout = SubsystemLayout.of(("e", length))
        return StateFamily(tuple(StateVector.from_amps(layout, v) for v in vectors))

    return build("detection", raw_det), build("probes", raw_prb)


def _is_number_pair(value) -> bool:
    return (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(x, numbers.Real) and not isinstance(x, bool) for x in value)
    )


def _qubit_only(name: str, build):
    """A registry builder for an attack defined on qubits only."""

    def make(dim: int) -> EavesdropperHandle:
        if dim != 2:
            raise ValueError(f"{name} attack requires dim = 2")
        return build()

    return make


# Attack builders by CLI name; each takes the travel dimension and keeps its
# handle at each for the process (a build that raises is not kept).
ATTACKS = {name: cache(build) for name, build in {
    "none": no_attack,
    "intercept-resend": intercept_resend,
    "cnot": _qubit_only("cnot", cnot_attack),
    "pavicic": _qubit_only("pavicic", pavicic_circuit),
    "qudit-shift": qudit_shift_attack,
}.items()}
# A name with this prefix builds the generic coupling from the family file
# named after it (see `family_from_json`); the handles of this many family
# file contents are kept.
GENERIC_PREFIX, GENERIC_KEPT = "generic:", 8
ATTACK_NAMES = (*ATTACKS, GENERIC_PREFIX + "<file>")


def check_name(name: str) -> None:
    """Reject a name that is neither an `ATTACKS` key nor `generic:<file>`;
    a generic attack's file is read only when its handle is built."""
    if not name.startswith(GENERIC_PREFIX) and name not in ATTACKS:
        raise ValueError(f"unknown attack name {name!r}; choose from {' | '.join(ATTACK_NAMES)}")


def from_name(name: str, dim: int) -> EavesdropperHandle:
    """Resolve an attack by its CLI name. A handle depends only on what builds
    it, so each is built once per process and shared: a registry attack's per
    (name, dim), a generic one's per (family file contents, dim), the
    `GENERIC_KEPT` last used kept. A build that raises is not kept."""
    check_name(name)
    if name.startswith(GENERIC_PREFIX):
        return _generic(Path(name[len(GENERIC_PREFIX):]).read_bytes(), dim)
    return ATTACKS[name](dim)


@lru_cache(maxsize=GENERIC_KEPT)
def _generic(contents: bytes, dim: int) -> EavesdropperHandle:
    return generic_coupling(dim, *family_from_json(contents))
