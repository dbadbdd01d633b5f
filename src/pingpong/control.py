"""Control-mode strategies and detection-probability computation.

A control mode is a weighted menu of measurement bases plus, per basis, a
read-only [alice, bob] mask of the outcome pairs that an undisturbed pair
cannot produce (`ControlBasis.fail`). The masks are read off the configured
initial state's joint table rather than hard-coded, which settles the sign
conventions for the singlet in the dual basis automatically.

Detection uses one Born table P(alice, bob) per menu basis of the coupled
state, built per branch by `protocol.pair_probs`, the table a session's
control cycle reads: analytic p_det is the menu-weighted sum of the cells
the mask fails, computed once per process per (Eve handle, control mode)
pair and kept on Eve's handle. Each control cycle fails with that
probability, so the empirical estimate is one seeded binomial draw at the
exact p_det, with its Wilson interval. The coupled state is the ensemble
Eve's forward leg leaves behind, walked branch by branch from the handle's
edges (`coupled_branches`), so an attack that measures or draws needs no
second description of its forward leg. A measurement that only Eve's later
legs read is not branched on: averaged over, it leaves the (home, travel)
marginal unchanged, so intercept-resend walks D branches, not D^2.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .attacks import EavesdropperHandle
from .protocol import QUBIT_SINGLET, ProtocolConfig, check_dims, make_initial_state, pair_probs
from .qstate import ATOL_ALGEBRA, Basis
from .rand import PDET_TAG, stream

# Joint probabilities above this are treated as support of the clean state
# when deriving the failing-pair masks; clean zeros sit at squared float error.
_SUPPORT_CUTOFF = 1e-9

# The two-sided 95% quantile of the standard normal, for the Wilson interval.
_WILSON_Z = 1.959963984540054


@dataclass(frozen=True)
class ControlBasis:
    """One menu entry: a basis, its selection weight, and the failing pairs."""

    basis_id: str
    basis: Basis
    weight: float
    fail: np.ndarray  # bool [alice_outcome, bob_outcome]; kept as a read-only copy

    def __post_init__(self):
        fail = np.array(self.fail, dtype=bool)
        fail.flags.writeable = False
        object.__setattr__(self, "fail", fail)


@dataclass(frozen=True)
class ControlModeHandle:
    name: str
    dim: int
    bases: tuple[ControlBasis, ...]

    def __post_init__(self):
        total = sum(b.weight for b in self.bases)
        if not abs(total - 1.0) <= ATOL_ALGEBRA:
            raise ValueError(f"basis weights sum to {total}, expected 1")
        for b in self.bases:
            if b.basis.dim != self.dim:
                raise ValueError("every menu basis must match the travel dimension")
            if b.fail.shape != (self.dim, self.dim):
                raise ValueError(f"failing-pair mask of {b.basis_id!r} must be {self.dim}x{self.dim}")

    @cached_property
    def _running_weights(self) -> tuple[float, ...]:
        return tuple(accumulate(b.weight for b in self.bases))

    def choose(self, u):
        """The menu index each uniform in `u` selects: the first basis whose
        running weight exceeds it, else the last."""
        return np.minimum(np.searchsorted(self._running_weights, u, side="right"), len(self.bases) - 1)


@dataclass(frozen=True)
class DetectionReport:
    """Analytic and empirical single-cycle detection probability."""

    p_analytic: float
    p_empirical: float
    failures: int
    trials: int
    ci_low: float
    ci_high: float


def computational_control(cfg: ProtocolConfig) -> ControlModeHandle:
    """Single-basis menu; the failing pairs follow the configured state."""
    basis = Basis.computational(cfg.dim)
    fail = pair_probs(make_initial_state(cfg), basis) <= _SUPPORT_CUTOFF
    return ControlModeHandle(
        name="computational",
        dim=cfg.dim,
        bases=(ControlBasis("computational", basis, 1.0, fail),),
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
            ControlBasis("computational", comp, 0.5, pair_probs(init, comp) <= _SUPPORT_CUTOFF),
            ControlBasis("dual", dual, 0.5, pair_probs(init, dual) <= _SUPPORT_CUTOFF),
        ),
    )


# Control-mode builders by CLI name; each takes the protocol configuration.
CONTROL_MODES = {
    "computational": computational_control,
    "two-basis": two_basis_control,
}
_BUILT: dict[tuple[str, int, str], ControlModeHandle] = {}  # what `from_name` has built


def check_name(name: str) -> None:
    """Reject a name that is not a `CONTROL_MODES` key."""
    if name not in CONTROL_MODES:
        raise ValueError(f"unknown control mode {name!r}; choose from {' | '.join(CONTROL_MODES)}")


def from_name(name: str, cfg: ProtocolConfig) -> ControlModeHandle:
    """Resolve a control mode by its CLI name. A mode reads only the config's
    dim and kind, so each (name, dim, kind) is built once per process and
    shared; a build that raises is not kept."""
    check_name(name)
    if (key := (name, cfg.dim, cfg.initial_state_kind)) not in _BUILT:
        _BUILT[key] = CONTROL_MODES[name](cfg)
    return _BUILT[key]


def _born_tables(
    eve: EavesdropperHandle, control: ControlModeHandle, cfg: ProtocolConfig
) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """Per menu basis: weight, P(alice, bob) of the coupled state, failing-cell mask.

    Each branch of the coupled ensemble is taken once, as the walk yields it,
    and added to every basis's table.
    """
    check_dims(eve, control, cfg.dim)
    sums = [np.zeros((cfg.dim, cfg.dim)) for _ in control.bases]
    for prob, state in eve.coupled_branches(make_initial_state(cfg)):
        for table, cb in zip(sums, control.bases):
            table += prob * pair_probs(state, cb.basis)
    return [(cb.weight, np.clip(table, 0.0, None), cb.fail) for table, cb in zip(sums, control.bases)]


def _failing_mass(tables: list[tuple[float, np.ndarray, np.ndarray]]) -> float:
    return float(sum(weight * table[fail].sum() for weight, table, fail in tables))


def analytic_pdet(eve: EavesdropperHandle, control: ControlModeHandle, cfg: ProtocolConfig) -> float:
    """Menu-weighted Born probability of the failing outcome pairs, computed
    once per process per (Eve handle, control mode) pair, dim and kind and
    kept on Eve's handle (`detection_plans`) by the mode's identity; its
    entry holds the mode, so a kept id is never reused. A build that raises
    is not kept."""
    kept, key = eve.detection_plans, (id(control), cfg.dim, cfg.initial_state_kind)
    if key not in kept:
        kept[key] = control, _failing_mass(_born_tables(eve, control, cfg))
    return kept[key][1]


def empirical_pdet(
    eve: EavesdropperHandle, control: ControlModeHandle, cfg: ProtocolConfig, trials: int
) -> DetectionReport:
    """Seeded Monte Carlo over independent control cycles.

    Each cycle fails with the exact p_det (`analytic_pdet`), so the failure
    count is one binomial draw from `stream(cfg.seed, PDET_TAG)` at p_det
    clipped to [0, 1], against the float sum's rounding. Deterministic for a
    fixed cfg.seed. A numpy integer `trials` is taken as the int it equals.
    """
    trials = operator.index(trials)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p_det = analytic_pdet(eve, control, cfg)
    failures = int(stream(cfg.seed, PDET_TAG).binomial(trials, min(max(p_det, 0.0), 1.0)))
    low, high = wilson_interval(failures, trials)
    return DetectionReport(
        p_analytic=p_det,
        p_empirical=failures / trials,
        failures=failures,
        trials=trials,
        ci_low=low,
        ci_high=high,
    )


def wilson_interval(failures: int, trials: int) -> tuple[float, float]:
    """Wilson 95% score interval; well-behaved at zero failures."""
    z = _WILSON_Z
    if trials < 1:
        raise ValueError("trials must be >= 1")
    phat = failures / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return center - half, center + half
