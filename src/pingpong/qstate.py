"""Dense state-vector kernel for small composite systems.

Subsystems are named and may have different dimensions; amplitudes live in a
flat complex vector with row-major mixed-radix indexing following the layout
order. Everything is immutable: operations return new values.

An operator keeps the structure it is built with. A monomial one (a
permutation times phases: the Weyl encodings, the swap, and the block
couplings whose blocks are monomial, CNOT and the controlled shift) is
applied by moving amplitudes to their rows, O(N) where a dense matmul is
O(N*d). A block-diagonal one (a generic coupling, one ancilla block per
travel level) is applied one block at a time, d/b times fewer flops than
its dense matrix. Only a general operator is applied by the dense matmul;
a structured one builds its matrix only when asked.

Tolerances are fixed globally: 1e-12 for algebraic identities, 1e-10 for
orthonormality of user-supplied bases and state families. Each check asks
that a deviation be within its tolerance, so a NaN deviation fails it.
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
    """Label collision or unknown label."""


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
        if not abs(state.norm - 1.0) <= 1e-9:
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
        return math.sqrt(np.vdot(self.amps, self.amps).real)

    def reshaped(self) -> np.ndarray:
        return self.amps.reshape(self.layout.dims)

    def overlap(self, other: "StateVector") -> complex:
        if self.layout != other.layout:
            raise LayoutError("overlap requires identical layouts")
        return complex(np.vdot(self.amps, other.amps))


@dataclass(frozen=True, eq=False, init=False)
class Operator:
    """Square operator acting on a factor of the composite space, kept in
    one of three forms:

    - dense: a general matrix, given at construction;
    - block-diagonal: `blocks[k]` acts where the first target level is k,
      the operator is sum_k |k><k| (x) blocks[k];
    - monomial: column j holds one entry, in row `rows[j]`, the rows a
      permutation, and the entry is `phases[j]` (None when every entry is
      exactly 1). A block-diagonal operator whose blocks are monomial keeps
      this form beside its blocks.

    `matrix` is built from a structured form only on request. The `kind`
    tag records what the constructor verified: `unitary` operators satisfy
    max|U^dag U - I| < 1e-12, checked per block for blocks and as a
    bijection with unit phases for a monomial operator.
    """

    dim: int
    kind: str
    blocks: np.ndarray | None = field(repr=False)
    rows: np.ndarray | None = field(repr=False)
    phases: np.ndarray | None = field(repr=False)

    def __init__(self, dim: int, matrix=None, kind: str = "general", *, blocks=None, rows=None, phases=None):
        """A dense operator from `matrix`, or a structured one from `blocks`
        or from `rows` and `phases`; nothing is checked but the shapes."""
        if (matrix is None) + (blocks is None) + (rows is None) != 2:
            raise ValueError("give exactly one of matrix, blocks and rows")
        if matrix is not None:
            self.__dict__["matrix"] = _frozen(matrix, (dim, dim))
        if blocks is not None:
            b = np.shape(blocks)[-1]
            blocks = _frozen(blocks, (dim // b, b, b) if dim % b == 0 else None)
            nonzero = blocks != 0
            # one nonzero entry per column, reaching every row: monomial blocks
            if (nonzero.sum(axis=1) == 1).all() and nonzero.any(axis=2).all():
                local = nonzero.argmax(axis=1)
                rows = (local + b * np.arange(len(blocks))[:, None]).ravel()
                phases = np.take_along_axis(blocks, local[:, None], axis=1).ravel()
        if rows is not None:
            rows = _frozen(rows, (dim,), np.intp)
            phases = None if phases is None or np.all(np.equal(phases, 1)) else _frozen(phases, (dim,))
        for name, value in (("dim", dim), ("kind", kind), ("blocks", blocks), ("rows", rows), ("phases", phases)):
            object.__setattr__(self, name, value)

    @classmethod
    def unitary(cls, matrix) -> "Operator":
        m = np.asarray(matrix, dtype=np.complex128)
        dev = np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0])))
        if not dev < ATOL_ALGEBRA:
            raise ValueError(f"matrix is not unitary (max deviation {dev:.3e})")
        return cls(m.shape[0], m, "unitary")

    @classmethod
    def block_unitary(cls, blocks) -> "Operator":
        """sum_k |k><k| (x) blocks[k], checked one Gram product per block:
        the off-diagonal blocks of U^dag U are exactly zero."""
        b = np.asarray(blocks, dtype=np.complex128)
        dev = np.max(np.abs(b.conj().transpose(0, 2, 1) @ b - np.eye(b.shape[-1])))
        if not dev < ATOL_ALGEBRA:
            raise ValueError(f"matrix is not unitary (max deviation {dev:.3e})")
        return cls(b.shape[0] * b.shape[1], blocks=b, kind="unitary")

    @classmethod
    def monomial(cls, rows, phases=None) -> "Operator":
        """Column j to row rows[j] times phases[j]; unitary when the rows are
        a bijection and every phase has unit modulus."""
        rows = np.asarray(rows)
        if not np.array_equal(np.sort(rows), np.arange(len(rows))):
            raise ValueError("rows are not a permutation")
        if phases is not None:
            dev = np.max(np.abs(np.abs(phases) - 1.0))
            if not dev < ATOL_ALGEBRA:
                raise ValueError(f"matrix is not unitary (max deviation {dev:.3e})")
        return cls(len(rows), rows=rows, phases=phases, kind="unitary")

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense matrix, built once on request from a structured form."""
        m = np.zeros((self.dim, self.dim), dtype=np.complex128)
        if self.blocks is not None:
            n, b, _ = self.blocks.shape
            levels = np.arange(n)
            m.reshape(n, b, n, b)[levels, :, levels, :] = self.blocks
        else:
            m[self.rows, np.arange(self.dim)] = 1.0 if self.phases is None else self.phases
        m.flags.writeable = False
        return m

    @cached_property
    def inverse(self) -> "Operator":
        """U^dagger in the form of U, built once per operator: the blocks'
        conjugate transposes, or the inverse permutation with conjugated
        phases."""
        if self.kind != "unitary":
            raise ValueError("inverse is defined for unitary operators only")
        if self.blocks is not None:
            blocks = self.blocks.conj().transpose(0, 2, 1)
            return Operator(self.dim, blocks=np.ascontiguousarray(blocks), kind="unitary")
        if self.rows is not None:
            back = np.argsort(self.rows)
            phases = None if self.phases is None else self.phases.conj()[back]
            return Operator(self.dim, rows=back, phases=phases, kind="unitary")
        return Operator(self.dim, self.matrix.conj().T, "unitary")


def _frozen(values, shape, dtype=np.complex128) -> np.ndarray:
    """A read-only copy of `values`, which must have `shape`."""
    a = np.array(values, dtype=dtype)
    if a.shape != shape:
        raise ValueError(f"expected an operator array of shape {shape}, got {a.shape}")
    a.flags.writeable = False
    return a


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
        if not dev <= ATOL_BASIS:
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

    Application preserves the norm within 1e-12 (verified). A monomial
    operator moves each target row of amplitudes to its image row, times its
    phase; any other is a dense matmul.
    """
    targets = _normalize_labels(targets)
    target_dim = math.prod(state.layout.dim_of(lbl) for lbl in targets)
    if op.dim != target_dim:
        raise ValueError(f"operator dim {op.dim} does not match target dim {target_dim}")
    if op.kind != "unitary":
        raise ValueError("apply requires a unitary-tagged operator")
    mat, order, _ = _to_front(state, targets)
    if op.rows is not None:
        new = np.empty_like(mat)
        new[op.rows] = mat if op.phases is None else op.phases[:, None] * mat
    elif op.blocks is not None:
        new = np.matmul(op.blocks, mat.reshape(len(op.blocks), op.blocks.shape[1], -1))
    else:
        new = op.matrix @ mat
    out = StateVector(state.layout, _from_front(new, state, order))
    if not abs(out.norm - state.norm) <= ATOL_ALGEBRA:
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


def born_table(state: StateVector, labels, basis: Basis) -> BornTable:
    """Born probabilities for measuring `labels` of `state` in `basis`."""
    labels = _normalize_labels(labels)
    mat, order, front = _to_front(state, labels)
    if basis.dim != front:
        raise ValueError(f"basis dim {basis.dim} does not match measured dim {front}")
    coeffs = basis.matrix.conj().T @ mat
    probs = np.einsum("ij,ij->i", coeffs, coeffs.conj()).real
    probs = np.clip(probs, 0.0, None)
    return BornTable(state, labels, basis, order, coeffs, probs)


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


def collapse(table: BornTable, outcome: int) -> StateVector:
    """The renormalized post-measurement state for one outcome with support."""
    state = table.state
    amps = table.coeffs[outcome] / math.sqrt(table.probs[outcome])
    post = np.outer(table.basis.matrix[:, outcome], amps)
    return StateVector(state.layout, _from_front(post, state, table.order))


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
    if not residual <= 1e-9:
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
