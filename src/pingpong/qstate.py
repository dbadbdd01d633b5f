"""Dense state-vector kernel for small composite systems.

Subsystems are named and may have different dimensions; amplitudes live in a
flat complex vector with row-major mixed-radix indexing following the layout
order. Everything is immutable: operations return new values.

An operator with exactly one nonzero entry per column, in distinct rows (a
permutation times phases: the Weyl encodings, CNOT, the controlled shift, the
swap), carries that monomial form beside its matrix, read off once when it is
built. `apply` moves amplitudes to their rows for it, O(N) where a dense
matmul is O(N*d); every other operator is applied by the matmul.

Tolerances are fixed globally: 1e-12 for algebraic identities, 1e-10 for
orthonormality of user-supplied bases and state families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

ATOL_ALGEBRA = 1e-12
ATOL_BASIS = 1e-10

# Residual norm above which a canonical basis vector starts a new direction
# during deterministic Gram-Schmidt completion.
_COMPLETION_CUTOFF = 1e-7


class LayoutError(ValueError):
    """Label collision, unknown label, or empty label selection."""


class BasisError(ValueError):
    """Supplied vectors are not orthonormal within tolerance."""


@dataclass(frozen=True)
class SubsystemLayout:
    """Ordered (label, dimension) register map of a composite system."""

    entries: tuple[tuple[str, int], ...]

    def __post_init__(self):
        labels = [lbl for lbl, _ in self.entries]
        if len(set(labels)) != len(labels):
            raise LayoutError(f"duplicate subsystem labels in {labels}")
        for lbl, d in self.entries:
            if d < 1:
                raise LayoutError(f"subsystem {lbl!r} has dimension {d} < 1")
        object.__setattr__(self, "entries", tuple((str(l), int(d)) for l, d in self.entries))

    @classmethod
    def of(cls, *entries: tuple[str, int]) -> "SubsystemLayout":
        return cls(tuple(entries))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lbl for lbl, _ in self.entries)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.entries)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    def position(self, label: str) -> int:
        for i, (lbl, _) in enumerate(self.entries):
            if lbl == label:
                return i
        raise LayoutError(f"unknown subsystem label {label!r} in {self.labels}")

    def dim_of(self, label: str) -> int:
        return self.entries[self.position(label)][1]

    def concat(self, other: "SubsystemLayout") -> "SubsystemLayout":
        clash = set(self.labels) & set(other.labels)
        if clash:
            raise LayoutError(f"label collision on {sorted(clash)}")
        return SubsystemLayout(self.entries + other.entries)

    def select(self, labels) -> "SubsystemLayout":
        return SubsystemLayout(tuple((lbl, self.dim_of(lbl)) for lbl in labels))


@dataclass(frozen=True)
class StateVector:
    """Complex amplitude vector over a SubsystemLayout. Treated as immutable."""

    layout: SubsystemLayout
    amps: np.ndarray

    def __post_init__(self):
        a = np.ascontiguousarray(self.amps, dtype=np.complex128)
        if a.shape != (self.layout.dim,):
            raise LayoutError(
                f"amplitude length {a.shape} does not match layout dimension {self.layout.dim}"
            )
        a.flags.writeable = False
        object.__setattr__(self, "amps", a)

    @classmethod
    def from_amps(cls, layout: SubsystemLayout, amps) -> "StateVector":
        """Construct and require unit norm (within 1e-9)."""
        state = cls(layout, np.asarray(amps, dtype=np.complex128))
        if abs(state.norm - 1.0) > 1e-9:
            raise ValueError(f"state vector is not normalized (norm {state.norm})")
        return state

    @classmethod
    def basis(cls, layout: SubsystemLayout, indices) -> "StateVector":
        """Computational basis state |indices[0], indices[1], ...>."""
        idx = tuple(indices)
        if len(idx) != len(layout.entries):
            raise LayoutError("one index per subsystem required")
        flat = 0
        for (lbl, d), k in zip(layout.entries, idx):
            if not 0 <= k < d:
                raise ValueError(f"index {k} out of range for subsystem {lbl!r} of dim {d}")
            flat = flat * d + k
        amps = np.zeros(layout.dim, dtype=np.complex128)
        amps[flat] = 1.0
        return cls(layout, amps)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def reshaped(self) -> np.ndarray:
        return self.amps.reshape(self.layout.dims)

    def overlap(self, other: "StateVector") -> complex:
        if self.layout != other.layout:
            raise LayoutError("overlap requires identical layouts")
        return complex(np.vdot(self.amps, other.amps))


@dataclass(frozen=True)
class Operator:
    """Square matrix acting on a factor of the composite space.

    The `kind` tag records what the constructor verified: `unitary` operators
    satisfy max|U^dag U - I| < 1e-12, `projector` operators satisfy P^2 = P
    and P^dag = P within 1e-12.

    The monomial form is read off the matrix at construction. When every
    column j holds one nonzero entry, in row `rows[j]`, and the rows form a
    permutation, `rows` is that permutation and `phases[j]` the entry (None
    when every entry is exactly 1); otherwise both are None.
    """

    dim: int
    matrix: np.ndarray
    kind: str = "general"
    rows: np.ndarray | None = field(init=False, default=None, repr=False, compare=False)
    phases: np.ndarray | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        m = np.ascontiguousarray(self.matrix, dtype=np.complex128)
        if m.shape != (self.dim, self.dim):
            raise ValueError(f"expected {self.dim}x{self.dim} matrix, got {m.shape}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        nonzero = m != 0
        # n nonzero entries reaching every column and every row: one per
        # column, in distinct rows.
        if np.count_nonzero(nonzero) != self.dim or not (
            nonzero.any(axis=0).all() and nonzero.any(axis=1).all()
        ):
            return
        rows = np.nonzero(nonzero.T)[1]  # column by column, the row of its entry
        entries = m[rows, np.arange(self.dim)]
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        if np.any(entries != 1):
            entries.flags.writeable = False
            object.__setattr__(self, "phases", entries)

    @classmethod
    def unitary(cls, matrix) -> "Operator":
        m = np.asarray(matrix, dtype=np.complex128)
        dev = np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0])))
        if dev >= ATOL_ALGEBRA:
            raise ValueError(f"matrix is not unitary (max deviation {dev:.3e})")
        return cls(m.shape[0], m, "unitary")

    @classmethod
    def projector(cls, matrix) -> "Operator":
        m = np.asarray(matrix, dtype=np.complex128)
        if np.max(np.abs(m - m.conj().T)) >= ATOL_ALGEBRA:
            raise ValueError("matrix is not hermitian")
        if np.max(np.abs(m @ m - m)) >= ATOL_ALGEBRA:
            raise ValueError("matrix is not idempotent")
        return cls(m.shape[0], m, "projector")

    @cached_property
    def inverse(self) -> "Operator":
        """U^dagger, built once per operator. A monomial U's inverse is the
        inverse permutation with conjugated phases, which the read-off of
        U^dagger finds."""
        if self.kind != "unitary":
            raise ValueError("inverse is defined for unitary operators only")
        return Operator(self.dim, self.matrix.conj().T, "unitary")


@dataclass(frozen=True)
class Basis:
    """Orthonormal measurement basis; columns of `matrix` are the states."""

    matrix: np.ndarray
    name: str = ""

    def __post_init__(self):
        m = np.ascontiguousarray(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise BasisError(f"basis matrix must be square, got {m.shape}")
        gram = m.conj().T @ m
        dev = np.max(np.abs(gram - np.eye(m.shape[0])))
        if dev > ATOL_BASIS:
            raise BasisError(f"basis is not orthonormal (Gram deviation {dev:.3e})")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @classmethod
    def computational(cls, dim: int) -> "Basis":
        return _computational_basis(dim)

    @classmethod
    def dual(cls) -> "Basis":
        """Qubit |+>, |-> basis (bit-flip eigenvectors)."""
        return _dual_basis()

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def state(self, index: int) -> np.ndarray:
        return self.matrix[:, index]


@lru_cache(maxsize=None)
def _computational_basis(dim: int) -> Basis:
    return Basis(np.eye(dim, dtype=np.complex128), "computational")


@lru_cache(maxsize=None)
def _dual_basis() -> Basis:
    m = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)
    return Basis(m, "dual")


@dataclass(frozen=True)
class MeasurementOutcome:
    """Result of a projective measurement on named subsystems."""

    labels: tuple[str, ...]
    outcome: int
    state: StateVector
    probability: float


@dataclass(frozen=True)
class DensityMatrix:
    """Reduced state over the kept subsystems."""

    layout: SubsystemLayout
    matrix: np.ndarray

    def __post_init__(self):
        m = np.ascontiguousarray(self.matrix, dtype=np.complex128)
        if m.shape != (self.layout.dim, self.layout.dim):
            raise LayoutError("density matrix shape does not match layout")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def expectation(self, op: Operator) -> float:
        return float(np.trace(op.matrix @ self.matrix).real)


def _normalize_labels(labels) -> tuple[str, ...]:
    if isinstance(labels, str):
        return (labels,)
    return tuple(labels)


def _to_front(state: StateVector, labels: tuple[str, ...]) -> tuple[np.ndarray, list[int], int]:
    """Reshape amplitudes with the target axes moved to the front, in order.

    The returned axis order is the target axes, then the rest in layout
    order; `_from_front` undoes it."""
    axes = [state.layout.position(lbl) for lbl in labels]
    order = axes + [i for i in range(len(state.layout.entries)) if i not in axes]
    psi = state.reshaped().transpose(order)
    front = math.prod(state.layout.dim_of(lbl) for lbl in labels)
    return psi.reshape(front, -1), order, front


def _from_front(mat: np.ndarray, state: StateVector, order: list[int]) -> np.ndarray:
    dims = state.layout.dims
    inverse = sorted(range(len(order)), key=order.__getitem__)
    return mat.reshape([dims[a] for a in order]).transpose(inverse).reshape(-1)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product state on the concatenated layout."""
    return StateVector(a.layout.concat(b.layout), np.kron(a.amps, b.amps))


def apply(state: StateVector, op: Operator, targets) -> StateVector:
    """Apply `op` on the ordered target subsystems, identity elsewhere.

    Unitary application preserves the norm within 1e-12 (verified). Applying
    a projector yields the unnormalized projected vector, whose squared norm
    is the associated outcome probability. A monomial operator moves each
    target row of amplitudes to its image row, times its phase; any other
    is a dense matmul.
    """
    targets = _normalize_labels(targets)
    target_dim = math.prod(state.layout.dim_of(lbl) for lbl in targets)
    if op.dim != target_dim:
        raise ValueError(f"operator dim {op.dim} does not match target dim {target_dim}")
    if op.kind not in ("unitary", "projector"):
        raise ValueError("apply requires a unitary- or projector-tagged operator")
    mat, order, _ = _to_front(state, targets)
    if op.rows is None:
        new = op.matrix @ mat
    else:
        new = np.empty_like(mat)
        new[op.rows] = mat if op.phases is None else op.phases[:, None] * mat
    out = StateVector(state.layout, _from_front(new, state, order))
    if op.kind == "unitary" and abs(out.norm - state.norm) > ATOL_ALGEBRA:
        raise ArithmeticError(f"unitary application drifted the norm by {abs(out.norm - state.norm):.3e}")
    return out


@dataclass(frozen=True, eq=False)
class BornTable:
    """Outcome probabilities of one projective measurement of a fixed state.

    `coeffs` holds one row of basis coefficients per outcome, taken over the
    amplitudes with their axes in `order`, the measured axes first.
    """

    state: StateVector
    labels: tuple[str, ...]
    basis: Basis
    order: list[int]
    coeffs: np.ndarray
    probs: np.ndarray
    cum: np.ndarray


def born_table(state: StateVector, labels, basis: Basis) -> BornTable:
    """Born probabilities and their normalized running sum for measuring
    `labels` of `state` in `basis`."""
    labels = _normalize_labels(labels)
    mat, order, front = _to_front(state, labels)
    if basis.dim != front:
        raise ValueError(f"basis dim {basis.dim} does not match measured dim {front}")
    coeffs = basis.matrix.conj().T @ mat
    probs = np.einsum("ij,ij->i", coeffs, coeffs.conj()).real
    probs = np.clip(probs, 0.0, None)
    return BornTable(state, labels, basis, order, coeffs, probs, running_sum(probs))


def running_sum(probs: np.ndarray) -> np.ndarray:
    """The normalized running sum `pick` searches. It is taken over every cell
    of a table: over the cells with support only, the sum can differ in the
    last bit."""
    return np.cumsum(probs / probs.sum())


def pick(probs: np.ndarray, cum: np.ndarray, u):
    """The outcome each uniform draw in `u` selects from a Born table (an
    array of outcomes, or one for a scalar `u`); never one without support."""
    outcome = np.minimum(cum.searchsorted(u, side="right"), len(probs) - 1)
    edge = probs[outcome] <= 0.0
    if edge.any():
        # float-precision edge: land on the last outcome with support
        outcome = np.where(edge, np.flatnonzero(probs > 0.0)[-1], outcome)
    return outcome


def collapse(table: BornTable, outcome: int) -> MeasurementOutcome:
    """The renormalized post-measurement state for one outcome with support."""
    state = table.state
    prob = float(table.probs[outcome])
    post = np.outer(table.basis.matrix[:, outcome], table.coeffs[outcome] / math.sqrt(prob))
    return MeasurementOutcome(
        labels=table.labels,
        outcome=outcome,
        state=StateVector(state.layout, _from_front(post, state, table.order)),
        probability=prob,
    )


def measure(state: StateVector, labels, basis: Basis, rng: np.random.Generator) -> MeasurementOutcome:
    """Projective measurement of the given subsystems in `basis`.

    The outcome is sampled from the Born probabilities using one uniform
    draw from `rng`; the returned state is renormalized.
    """
    table = born_table(state, labels, basis)
    return collapse(table, int(pick(table.probs, table.cum, rng.random())))


def partial_trace(state: StateVector, keep) -> DensityMatrix:
    """Reduced density matrix over `keep` (in the order given)."""
    keep = _normalize_labels(keep)
    if not keep:
        raise LayoutError("empty keep list")
    mat, _, _ = _to_front(state, keep)
    return DensityMatrix(state.layout.select(keep), mat @ mat.conj().T)


def factor(state: StateVector, keep) -> StateVector:
    """Extract the pure factor on `keep`, requiring a product structure.

    Raises ValueError when the state is entangled across the cut (residual
    above 1e-9). The returned factor carries the phase of its dominant
    component; callers that care about global phase should not factor.
    """
    keep = _normalize_labels(keep)
    mat, _, _ = _to_front(state, keep)
    col_norms = np.linalg.norm(mat, axis=0)
    j = int(np.argmax(col_norms))
    u = mat[:, j] / col_norms[j]
    residual = np.linalg.norm(mat - np.outer(u, u.conj() @ mat))
    if residual > 1e-9:
        raise ValueError(f"state does not factorize over {keep} (residual {residual:.3e})")
    return StateVector(state.layout.select(keep), u)


def orthonormal_completion(columns: np.ndarray, dim: int) -> np.ndarray:
    """Complete orthonormal columns to a full basis of C^dim.

    Deterministic: candidate directions are the canonical basis vectors in
    ascending index order, Gram-Schmidt-projected against the current set.
    """
    cols = np.array(columns, dtype=np.complex128)
    for j in range(dim):
        if cols.shape[1] == dim:
            break
        v = np.zeros(dim, dtype=np.complex128)
        v[j] = 1.0
        for _ in range(2):  # twice for numerical hygiene
            v = v - cols @ (cols.conj().T @ v)
        n = np.linalg.norm(v)
        if n > _COMPLETION_CUTOFF:
            cols = np.column_stack([cols, v / n])
    if cols.shape[1] != dim:
        raise ArithmeticError("orthonormal completion failed to span the space")
    return cols


def complete_isometry(domain_basis, image_basis) -> Operator:
    """Unitary extension of the partial isometry domain_k -> image_k.

    Both lists must be orthonormal within 1e-10 and of equal length; the
    completion maps the canonical Gram-Schmidt complements of the two sides
    onto each other in order, so the result is deterministic.
    """
    if len(domain_basis) != len(image_basis):
        raise ValueError("domain and image lists must have equal length")
    if not domain_basis:
        raise ValueError("empty partial isometry")
    dim = domain_basis[0].layout.dim
    if any(s.layout.dim != dim for s in list(domain_basis) + list(image_basis)):
        raise ValueError("all vectors must share one total dimension")

    def stack(states):
        m = np.column_stack([s.amps for s in states])
        dev = np.max(np.abs(m.conj().T @ m - np.eye(m.shape[1])))
        if dev > ATOL_BASIS:
            raise BasisError(f"input list is not orthonormal (Gram deviation {dev:.3e})")
        return m

    dom = orthonormal_completion(stack(domain_basis), dim)
    img = orthonormal_completion(stack(image_basis), dim)
    return Operator.unitary(img @ dom.conj().T)


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """(1/2)||a - b||_1 via the spectrum of the hermitian difference."""
    diff = a.matrix - b.matrix
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))
