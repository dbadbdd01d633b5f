"""Control-mode strategies and detection-probability computation.

A control mode is a weighted menu of measurement bases plus, per basis, the
set of (alice, bob) outcome pairs that an undisturbed pair can produce. The
pass predicates are derived from the configured initial state rather than
hard-coded, which settles the sign conventions for the singlet in the dual
basis automatically.

Detection uses one Born table P(alice, bob) per menu basis of the coupled
state, built per branch with two matmuls: analytic p_det is the menu-weighted
sum of the failing cells, and the empirical estimate (Wilson interval) is
seeded Monte Carlo over the same tables. The sampler draws the uniforms
per-trial `Generator.choice` would, in bounded chunks, and counts the hits
in the failing cells' intervals of each table's running sum, so its failure
count is choice's without materializing an outcome per trial.
The coupled state is the ensemble Eve's forward leg leaves behind, walked
branch by branch from the handle's edges (`coupled_branches`), so an attack
that measures or draws needs no second description of its forward leg. A
measurement that only Eve's later legs read is not branched on: averaged
over, it leaves the (home, travel) marginal unchanged, so intercept-resend
walks D branches, not D^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .attacks import EavesdropperHandle
from .protocol import QUBIT_SINGLET, ProtocolConfig, make_initial_state
from .qstate import Basis, StateVector
from .rand import PDET_TAG, stream

# Joint probabilities above this are treated as support of the clean state
# when deriving pass predicates; clean zeros sit at squared float error.
_SUPPORT_CUTOFF = 1e-9

# Uniforms the empirical sampler draws per call, which bounds its memory at
# any trial count; consecutive draws equal one draw of their total size.
_CHUNK = 1 << 16


@dataclass(frozen=True)
class ControlBasis:
    """One menu entry: a basis, its selection weight, and the passing pairs."""

    basis_id: str
    basis: Basis
    weight: float
    allowed: frozenset[tuple[int, int]]  # (alice_outcome, bob_outcome)


@dataclass(frozen=True)
class ControlModeHandle:
    name: str
    dim: int
    bases: tuple[ControlBasis, ...]

    def __post_init__(self):
        total = sum(b.weight for b in self.bases)
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"basis weights sum to {total}, expected 1")
        for b in self.bases:
            if b.basis.dim != self.dim:
                raise ValueError("every menu basis must match the travel dimension")

    @cached_property
    def _running_weights(self) -> np.ndarray:
        return np.array(list(accumulate(b.weight for b in self.bases)))

    def choose(self, u):
        """The menu index each uniform in `u` selects: the first basis whose
        running weight exceeds it, else the last."""
        return np.minimum(self._running_weights.searchsorted(u, side="right"), len(self.bases) - 1)

    def passes(self, basis_id: str, alice: int, bob: int) -> bool:
        for b in self.bases:
            if b.basis_id == basis_id:
                return (alice, bob) in b.allowed
        raise ValueError(f"unknown basis id {basis_id!r}")


@dataclass(frozen=True)
class DetectionReport:
    """Analytic and empirical single-cycle detection probability."""

    p_analytic: float
    p_empirical: float
    failures: int
    trials: int
    ci_low: float
    ci_high: float


def _allowed_pairs(init: StateVector, basis: Basis) -> frozenset[tuple[int, int]]:
    """Outcome pairs with support when both parties measure the clean state."""
    table = _joint_probs(init, basis, basis.dim)
    return frozenset((int(a), int(b)) for a, b in zip(*np.nonzero(table > _SUPPORT_CUTOFF)))


def computational_control(cfg: ProtocolConfig) -> ControlModeHandle:
    """Single-basis menu; the pass predicate follows the configured state."""
    basis = Basis.computational(cfg.dim)
    allowed = _allowed_pairs(make_initial_state(cfg), basis)
    return ControlModeHandle(
        name="computational",
        dim=cfg.dim,
        bases=(ControlBasis("computational", basis, 1.0, allowed),),
    )


def two_basis_control(cfg: ProtocolConfig) -> ControlModeHandle:
    """Computational and dual bases with equal selection probability."""
    if cfg.initial_state_kind != QUBIT_SINGLET or cfg.dim != 2:
        raise ValueError("two-basis control is defined for the qubit singlet kind only")
    init = make_initial_state(cfg)
    comp = Basis.computational(2)
    dual = Basis.dual()
    return ControlModeHandle(
        name="two-basis",
        dim=2,
        bases=(
            ControlBasis("computational", comp, 0.5, _allowed_pairs(init, comp)),
            ControlBasis("dual", dual, 0.5, _allowed_pairs(init, dual)),
        ),
    )


# Control-mode builders by CLI name; each takes the protocol configuration.
CONTROL_MODES = {
    "computational": computational_control,
    "two-basis": two_basis_control,
}


def from_name(name: str, cfg: ProtocolConfig) -> ControlModeHandle:
    """Resolve a control mode by its CLI name."""
    if name not in CONTROL_MODES:
        raise ValueError(f"unknown control mode {name!r}; choose from {' | '.join(CONTROL_MODES)}")
    return CONTROL_MODES[name](cfg)


def _joint_probs(state: StateVector, basis: Basis, dim: int) -> np.ndarray:
    """P(alice, bob) of an (h, t, rest) state measured in basis (x) basis,
    marginalized over the rest."""
    proj = basis.matrix.conj().T
    step = (proj @ state.amps.reshape(dim, -1)).reshape(dim, dim, -1)  # [bob, t, eve]
    coeffs = np.matmul(proj, step)  # [bob, alice, eve]
    return np.einsum("ijr,ijr->ji", coeffs, coeffs.conj()).real


def _born_tables(
    eve: EavesdropperHandle, control: ControlModeHandle, cfg: ProtocolConfig
) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """Per menu basis: weight, P(alice, bob) of the coupled state, failing-cell mask.

    Each branch of the coupled ensemble is taken once, as the walk yields it,
    and added to every basis's table.
    """
    if eve.dim != cfg.dim or control.dim != cfg.dim:
        raise ValueError(
            f"dimension mismatch: attack {eve.dim}, control {control.dim}, config {cfg.dim}"
        )
    sums = [np.zeros((cfg.dim, cfg.dim)) for _ in control.bases]
    for prob, state in eve.coupled_branches(make_initial_state(cfg)):
        for table, cb in zip(sums, control.bases):
            table += prob * _joint_probs(state, cb.basis, cfg.dim)
    tables = []
    for table, cb in zip(sums, control.bases):
        fail = np.ones((cfg.dim, cfg.dim), dtype=bool)
        for alice, bob in cb.allowed:
            fail[alice, bob] = False
        tables.append((cb.weight, np.clip(table, 0.0, None), fail))
    return tables


def _failing_mass(tables: list[tuple[float, np.ndarray, np.ndarray]]) -> float:
    return float(sum(weight * table[fail].sum() for weight, table, fail in tables))


def analytic_pdet(eve: EavesdropperHandle, control: ControlModeHandle, cfg: ProtocolConfig) -> float:
    """Menu-weighted Born probability of the failing outcome pairs."""
    return _failing_mass(_born_tables(eve, control, cfg))


def _cdf(probs: np.ndarray) -> np.ndarray:
    """The normalized running sum `Generator.choice` searches for weights `probs`."""
    if np.isnan(probs).any():
        raise ValueError("Probabilities contain NaN")
    if (probs < 0).any():
        raise ValueError("Probabilities are not non-negative")
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    return cdf


def _hits(rng: np.random.Generator, n: int, edges: np.ndarray) -> np.ndarray:
    """Draw n uniforms, _CHUNK at a time; per edge, how many fall below it."""
    counts = np.zeros(len(edges), dtype=np.int64)
    for start in range(0, n, _CHUNK):
        u = rng.random(min(_CHUNK, n - start))
        counts += np.array([np.count_nonzero(u < edge) for edge in edges], dtype=np.int64)
    return counts


def _sample_failures(
    rng: np.random.Generator, tables: list[tuple[float, np.ndarray, np.ndarray]], trials: int
) -> int:
    """Failing outcomes among `trials` control cycles drawn from `tables`.

    `rng.choice(n, size, p)` draws cell i exactly when cdf[i-1] <= u < cdf[i].
    With C(i) the number of uniforms below cdf[i], the failing count is
    sum_i fail[i] * (C(i) - C(i-1)) = sum_i (fail[i] - fail[i+1]) * C(i),
    which needs C only where the mask changes. The uniforms are choice's, in
    its order: `trials` for the basis, then `n_b` per basis drawn at least once.
    """
    weights = np.array([weight for weight, _, _ in tables])
    below = np.append(_hits(rng, trials, _cdf(weights / weights.sum())[:-1]), trials)
    failures = 0
    for n_b, (_, table, fail) in zip(np.diff(below, prepend=0), tables):
        if n_b == 0:
            continue
        flat = table.reshape(-1)
        mask = fail.reshape(-1).astype(np.int64)
        sign = mask - np.append(mask[1:], 0)
        at = np.flatnonzero(sign)
        failures += int(sign[at] @ _hits(rng, int(n_b), _cdf(flat / flat.sum())[at]))
    return failures


def empirical_pdet(
    eve: EavesdropperHandle,
    control: ControlModeHandle,
    cfg: ProtocolConfig,
    trials: int,
    tables: list | None = None,
) -> DetectionReport:
    """Seeded Monte Carlo over independent control cycles.

    The per-basis Born tables are computed once, or given as `tables` (from
    `_born_tables` for the same handles and config); each trial samples a basis
    and an outcome pair from the exact joint distribution, and the analytic
    value is read off the same tables. The sampler draws the uniforms
    per-trial `rng.choice` would, in bounded chunks, and counts those that
    land in the failing cells' intervals of each table's running sum, so
    the failure count is choice's with no outcome array. Deterministic for
    a fixed cfg.seed.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if tables is None:
        tables = _born_tables(eve, control, cfg)
    failures = _sample_failures(stream(cfg.seed, PDET_TAG), tables, trials)
    low, high = wilson_interval(failures, trials)
    return DetectionReport(
        p_analytic=_failing_mass(tables),
        p_empirical=failures / trials,
        failures=failures,
        trials=trials,
        ci_low=low,
        ci_high=high,
    )


def wilson_interval(failures: int, trials: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """Wilson 95% score interval; well-behaved at zero failures."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    phat = failures / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return center - half, center + half
