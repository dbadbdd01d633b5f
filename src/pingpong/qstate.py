"""Dense state-vector kernel for small composite systems.

Subsystems are named and may have different dimensions; amplitudes live in a
flat complex vector with row-major mixed-radix indexing following the layout
order. Everything is immutable: operations return new values. A state may
also be a stack of states on one layout, one per row of a (k, N) amplitude
array; `apply`, `born_table`, `collapse` and `factor` act on every row in
one call, and a single state is their one-row case. Each row's arithmetic
does not depend on the rows beside it. `apply` acts on targets consecutive
in layout order through a (lead, targets, trail) reshape view, moving no
axis, and rejects other target orders; the registers `born_table` and
`factor` read are first moved to the front. `apply`, `born_table` and
`collapse` write their full-width arrays into memory a caller lends them
(`out`, see `_out`), so a caller that walks many states reuses its memory
instead of allocating it per state.

An operator keeps one form. A monomial one (a permutation times phases:
the Weyl encodings, the swap, and the block couplings whose blocks are
monomial, CNOT and the controlled shift) keeps its rows and phases alone,
O(d) memory, and is applied by moving amplitudes to their rows, O(N) where
a dense matmul is O(N*d). A block-diagonal one (a generic coupling, one
ancilla block per travel level) is applied one block at a time, d/b times
fewer flops than its dense matrix; a dense unitary is the block form with
one block. An operator builds its dense matrix only when asked.

Tolerances are fixed globally: 1e-12 for algebraic identities, 1e-10 for
orthonormality of user-supplied bases and state families, 1e-9 for a
supplied state's norm and a factored state's residual. Each check asks
that a deviation be within its tolerance, so a NaN deviation fails it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

ATOL_ALGEBRA = 1e-12
ATOL_BASIS = 1e-10
ATOL_STATE = 1e-9

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

    @cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(lbl for lbl, _ in self.entries)

    @cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.entries)

    @cached_property
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
    """Complex amplitude vector over a SubsystemLayout, or a stack of them as
    the rows of a (k, N) array. Treated as immutable."""

    layout: SubsystemLayout
    amps: np.ndarray

    def __post_init__(self):
        a = np.ascontiguousarray(self.amps, dtype=np.complex128)
        if a.ndim not in (1, 2) or a.shape[-1] != self.layout.dim:
            raise LayoutError(
                f"amplitude length {a.shape} does not match layout dimension {self.layout.dim}"
            )
        a.flags.writeable = False
        object.__setattr__(self, "amps", a)

    @classmethod
    def from_amps(cls, layout: SubsystemLayout, amps) -> "StateVector":
        """Construct and require unit norm (within ATOL_STATE)."""
        state = cls(layout, np.asarray(amps, dtype=np.complex128))
        if not abs(state.norm - 1.0) <= ATOL_STATE:
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
    def norm(self):
        """The norm, or for a stack each row's."""
        if self.amps.ndim == 1:
            return math.sqrt(np.vdot(self.amps, self.amps).real)
        parts = self.amps.view(np.float64)  # real and imaginary parts, with no copy
        return np.sqrt(np.matmul(parts[:, None, :], parts[:, :, None])[:, 0, 0])

    def reshaped(self) -> np.ndarray:
        return self.amps.reshape(self.amps.shape[:-1] + self.layout.dims)

    def take(self, rows) -> "StateVector":
        """Rows of a stack, a single state being its one row: a stack for an
        array of rows (the stack itself for all of them in order), a single
        state for one row."""
        amps = np.atleast_2d(self.amps)
        return StateVector(self.layout, amps if np.array_equal(rows, np.arange(len(amps))) else amps[rows])


@dataclass(frozen=True, eq=False, init=False)
class Operator:
    """Square operator acting on a factor of the composite space, kept in
    one of two forms:

    - block-diagonal: `blocks[k]` acts where the first target level is k,
      the operator is sum_k |k><k| (x) blocks[k];
    - monomial: column j holds one entry, in row `rows[j]`, the rows a
      permutation, and the entry is `phases[j]` (None when every entry is
      exactly 1), and `blocks` is None. Blocks that are monomial are kept
      in this form only.

    `matrix` is built from either form only on request. The `kind`
    tag records what the constructor verified: `unitary` operators satisfy
    max|U^dag U - I| < 1e-12, checked per block for blocks and as a
    bijection with unit phases for a monomial operator.
    """

    dim: int
    kind: str
    blocks: np.ndarray | None = field(repr=False)
    rows: np.ndarray | None = field(repr=False)
    phases: np.ndarray | None = field(repr=False)

    def __init__(self, dim: int, kind: str = "general", *, blocks=None, rows=None, phases=None):
        """An operator from `blocks`, or from `rows` and `phases`; nothing is
        checked but the shapes."""
        if (blocks is None) == (rows is None):
            raise ValueError("give exactly one of blocks and rows")
        if blocks is not None:
            b = np.shape(blocks)[-1]
            blocks = _frozen(blocks, (dim // b, b, b) if dim % b == 0 else None)
            nonzero = blocks != 0
            # one nonzero entry per column, reaching every row: monomial blocks
            if (nonzero.sum(axis=1) == 1).all() and nonzero.any(axis=2).all():
                local = nonzero.argmax(axis=1)
                rows = (local + b * np.arange(len(blocks))[:, None]).ravel()
                phases = np.take_along_axis(blocks, local[:, None], axis=1).ravel()
                blocks = None
        if rows is not None:
            rows = _frozen(rows, (dim,), np.intp)
            phases = None if phases is None or np.all(np.equal(phases, 1)) else _frozen(phases, (dim,))
        for name, value in (("dim", dim), ("kind", kind), ("blocks", blocks), ("rows", rows), ("phases", phases)):
            object.__setattr__(self, name, value)

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
        """The dense matrix, built once on request."""
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
        phases and no blocks."""
        if self.kind != "unitary":
            raise ValueError("inverse is defined for unitary operators only")
        if self.blocks is not None:
            blocks = self.blocks.conj().transpose(0, 2, 1)
            return Operator(self.dim, blocks=np.ascontiguousarray(blocks), kind="unitary")
        back = np.argsort(self.rows)
        phases = None if self.phases is None else self.phases.conj()[back]
        return Operator(self.dim, rows=back, phases=phases, kind="unitary")


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

    @cached_property
    def is_identity(self) -> bool:
        """Whether the basis is exactly the computational one, in order: its
        coefficients of a state are then the state's amplitudes."""
        return np.array_equal(self.matrix, np.eye(self.dim))


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


def _out(out, shape, part: int = 0) -> np.ndarray:
    """A complex array of `shape` to write into: a new one when `out` is None,
    else `out(shape, part)`, memory the caller owns and reuses. A kernel
    given `out` writes its full-width result in part 0 and may use part 1 as
    scratch."""
    return np.empty(shape, dtype=np.complex128) if out is None else out(shape, part)


def _copy(psi: np.ndarray, out) -> np.ndarray:
    """A contiguous copy of `psi`, in `out`'s part 0 if given (`_out`)."""
    copy = _out(out, psi.shape)
    np.copyto(copy, psi)
    return copy


def _to_front(state: StateVector, labels: tuple[str, ...], out=None, copy=False) -> tuple[np.ndarray, list[int], int]:
    """Reshape amplitudes with the target axes moved to the front, in order,
    behind a stack's row axis: (front, rest), or (k, front, rest); with
    `copy`, a copy of them (`_copy`).

    The returned axis order is the target axes, then the rest in layout
    order; `_from_front` undoes it."""
    axes = [state.layout.position(lbl) for lbl in labels]
    order = axes + [i for i in range(len(state.layout.entries)) if i not in axes]
    n = state.amps.ndim - 1  # 1 for a stack's row axis
    psi = state.reshaped().transpose(list(range(n)) + [n + a for a in order])
    front = math.prod(state.layout.dim_of(lbl) for lbl in labels)
    return (_copy(psi, out) if copy else psi).reshape(state.amps.shape[:-1] + (front, -1)), order, front


def _from_front(mat: np.ndarray, layout: SubsystemLayout, order: list[int], out=None) -> np.ndarray:
    """`_to_front` undone; given `out`, a copy in its part 0 (`_copy`)."""
    dims, lead = layout.dims, mat.shape[:-2]
    inverse = sorted(range(len(order)), key=order.__getitem__)
    psi = mat.reshape(lead + tuple(dims[a] for a in order))
    psi = psi.transpose(list(range(len(lead))) + [len(lead) + a for a in inverse])
    return (psi if out is None else _copy(psi, out)).reshape(lead + (-1,))


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product state on the concatenated layout."""
    return StateVector(a.layout.concat(b.layout), np.multiply.outer(a.amps, b.amps).reshape(-1))


def apply(state: StateVector, op: Operator, targets, out=None) -> StateVector:
    """Apply `op` on the ordered target subsystems, identity elsewhere, to a
    state or to each row of a stack.

    The targets must be consecutive in layout order (LayoutError names them
    otherwise); they are acted on in a (lead, targets, trail) reshape view,
    with no axis moved. Application preserves the norm within 1e-12 (verified per
    row). A monomial operator gathers each target row's amplitudes from its
    preimage row, times its phase; a block-diagonal one multiplies each
    block's rows by its block, for trailing targets one product per block
    over every leading row.
    """
    targets = _normalize_labels(targets)
    target_dim = math.prod(state.layout.dim_of(lbl) for lbl in targets)
    if op.dim != target_dim:
        raise ValueError(f"operator dim {op.dim} does not match target dim {target_dim}")
    if op.kind != "unitary":
        raise ValueError("apply requires a unitary-tagged operator")
    axes = [state.layout.position(lbl) for lbl in targets]
    if axes != list(range(axes[0], axes[0] + len(axes))):
        raise LayoutError(f"targets {targets} are not consecutive in layout order {state.layout.labels}")
    lead = math.prod(state.layout.dims[:axes[0]])
    mat = state.amps.reshape(state.amps.shape[:-1] + (lead, target_dim, -1))
    new = _out(out, mat.shape)
    if op.rows is not None:
        back = op.inverse.rows  # the row whose amplitudes each row takes
        np.take(mat, back, axis=-2, out=new, mode="wrap")  # in the default mode numpy copies `out`
        if op.phases is not None:
            np.multiply(op.phases[back, None], new, out=new)
    elif mat.shape[-1] == 1:  # as (block, rows, level), each block's rows a strided view
        n, b, _ = op.blocks.shape
        np.matmul(mat.reshape(-1, n, b).swapaxes(0, 1), op.blocks.transpose(0, 2, 1),
                  out=new.reshape(-1, n, b).swapaxes(0, 1))
    else:
        shape = mat.shape[:-2] + op.blocks.shape[:2] + (-1,)
        np.matmul(op.blocks, mat.reshape(shape), out=new.reshape(shape))
    out = StateVector(state.layout, new.reshape(state.amps.shape))
    drift = np.abs(out.norm - state.norm)
    if not np.all(drift <= ATOL_ALGEBRA):
        raise ArithmeticError(f"unitary application drifted the norm by {np.max(drift):.3e}")
    return out


@dataclass(frozen=True, eq=False)
class BornTable:
    """Outcome probabilities of one projective measurement of a fixed state,
    or of each row of a stack, on `layout`.

    `coeffs` holds one row of basis coefficients per outcome, taken over the
    amplitudes with their axes in `order`, the measured axes first; for a
    stack, `coeffs` and `probs` lead with the stack's row axis. The table
    keeps no reference to the measured states.
    """

    layout: SubsystemLayout
    labels: tuple[str, ...]
    basis: Basis
    order: list[int]
    coeffs: np.ndarray
    probs: np.ndarray


def born_table(state: StateVector, labels, basis: Basis, out=None) -> BornTable:
    """Born probabilities for measuring `labels` of `state` in `basis`. In an
    identity basis the coefficients are a copy of the amplitudes, with no
    matrix product. Given `out` (`_out`), the coefficients are written in
    its part 0 and their conjugates, which the probabilities read, in its
    part 1."""
    labels = _normalize_labels(labels)
    mat, order, front = _to_front(state, labels, out, copy=basis.is_identity)
    if basis.dim != front:
        raise ValueError(f"basis dim {basis.dim} does not match measured dim {front}")
    coeffs = mat if basis.is_identity else np.matmul(basis.matrix.conj().T, mat, out=_out(out, mat.shape))
    probs = np.einsum("...ij,...ij->...i", coeffs, np.conjugate(coeffs, out=_out(out, coeffs.shape, 1))).real
    probs = np.clip(probs, 0.0, None)
    return BornTable(state.layout, labels, basis, order, coeffs, probs)


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


def pick_rows(probs: np.ndarray, masses: np.ndarray, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """`pick` from row rows[i] of a table for each uniform u[i], in one pass.
    `masses` holds each row's sum taken on its own, as `running_sum` takes it
    (a sum over axis 1 can differ in the last bit), so each picked row's
    running sum is `running_sum`'s; on such a nondecreasing row,
    `searchsorted(cum, u, side="right")` is the count of sums at or below u."""
    picked = probs[rows]
    cum = np.cumsum(picked / masses[rows, None], axis=1)
    outcome = (cum[:, :-1] <= u[:, None]).sum(axis=1)  # past the last sum is the last outcome
    edge = picked[np.arange(len(rows)), outcome] <= 0.0
    if edge.any():
        # float-precision edge: land on the row's last outcome with support
        outcome[edge] = probs.shape[1] - 1 - np.argmax(picked[edge, ::-1] > 0.0, axis=1)
    return outcome


def collapse(table: BornTable, outcome, rows=None, out=None) -> StateVector:
    """The renormalized post-measurement state for one outcome with support.
    For a stack's table, the stack of row rows[i]'s state for outcome[i].
    Given `out` (`_out`), the states are written in its part 0, from the
    product in the measured order written in its part 1."""
    index = (outcome,) if rows is None else (rows, outcome)
    amps = table.coeffs[index] / np.sqrt(table.probs[index])[..., None]
    column = table.basis.matrix[:, outcome].T[..., :, None]
    post = np.multiply(column, amps[..., None, :], out=_out(out, column.shape[:-1] + amps.shape[-1:], 1))
    return StateVector(table.layout, _from_front(post, table.layout, table.order, out))


def factor(state: StateVector, keep) -> StateVector:
    """Extract the pure factor on `keep`, requiring a product structure, of
    a state or of each row of a stack.

    Raises ValueError when a state is entangled across the cut (residual
    above ATOL_STATE). The returned factor carries the phase of its dominant
    component; callers that care about global phase should not factor. A
    state already on `keep` is returned as it is.
    """
    keep = _normalize_labels(keep)
    if state.layout.labels == keep:
        return state
    mat, _, _ = _to_front(state, keep)
    col_norms = np.linalg.norm(mat, axis=-2)
    j = np.argmax(col_norms, axis=-1)[..., None]
    u = np.take_along_axis(mat, j[..., None, :], axis=-1)[..., 0] / np.take_along_axis(col_norms, j, axis=-1)
    rest = (u.conj()[..., None, :] @ mat)[..., 0, :]
    off = u[..., :, None] * rest[..., None, :]
    residual = np.linalg.norm(np.subtract(mat, off, out=off), axis=(-2, -1)).reshape(-1)
    bad = residual[~(residual <= ATOL_STATE)]  # a NaN residual fails too
    if bad.size:
        raise ValueError(f"state does not factorize over {keep} (residual {bad[0]:.3e})")
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
