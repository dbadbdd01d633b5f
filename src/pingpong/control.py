"""Control-mode strategies and detection-probability computation.

A control mode is a weighted menu of measurement bases plus, per basis, a
read-only [alice, bob] mask of the outcome pairs that an undisturbed pair
cannot produce (`ControlBasis.fail`). The masks are read off the configured
initial state's joint table rather than hard-coded, which settles the sign
conventions for the singlet in the dual basis automatically.

Detection uses one Born table P(alice, bob) per menu basis of the coupled
state, built per branch by `protocol.pair_probs`, the table a session's
control cycle reads: analytic p_det is the menu-weighted sum of the cells
the mask fails, and the empirical estimate (Wilson interval) is seeded
Monte Carlo over the same tables. A configuration's tables become one
`SamplerPlan`: p_det, the menu's running-sum edges, and per table the edges
of its failing runs in the running sum, merged where equal, split into
those at 1.0 and the live ones in between. It is built once per process per
(Eve handle, control mode) pair and kept on Eve's handle, so a later run
only draws and counts. A run draws the uniforms per-trial
`Generator.choice` would, in bounded chunks, and counts the hits below the
live edges, so its failure count is choice's without materializing an
outcome per trial. Uniforms that no count reads are skipped by Philox
counter (`rand.skip`), not drawn, and the stream ends where choice would
leave it: a one-basis menu's basis draws, the outcome draws of a table with
no live edge (every table of an undetectable attack), and any menu's basis
draws when no table has a live edge and every basis the menu can draw fails
its trials alike. A plan that reads no uniform makes no stream. The coupled
state is the ensemble Eve's forward leg leaves behind, walked branch by
branch from the handle's edges (`coupled_branches`), so an attack that
measures or draws needs no second description of its forward leg. A
measurement that only Eve's later legs read is not branched on: averaged
over, it leaves the (home, travel) marginal unchanged, so intercept-resend
walks D branches, not D^2.
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
from .rand import PDET_TAG, skip, stream

# Joint probabilities above this are treated as support of the clean state
# when deriving the failing-pair masks; clean zeros sit at squared float error.
_SUPPORT_CUTOFF = 1e-9

# Uniforms the empirical sampler draws per call, which bounds its memory at
# any trial count; consecutive draws equal one draw of their total size.
_CHUNK = 1 << 16

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
    """Menu-weighted Born probability of the failing outcome pairs, read off
    the configuration's plan (`detection_plan`)."""
    return detection_plan(eve, control, cfg).p_analytic


def _cdf(probs: np.ndarray) -> np.ndarray:
    """The normalized running sum `Generator.choice` searches for weights `probs`."""
    if np.isnan(probs).any():
        raise ValueError("Probabilities contain NaN")
    if (probs < 0).any():
        raise ValueError("Probabilities are not non-negative")
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    return cdf


def _hits(rng: np.random.Generator, n: int, edges: np.ndarray) -> list[int]:
    """Draw n uniforms, _CHUNK at a time; per edge, how many fall below it.
    With no edges nothing reads them, so they are skipped by counter."""
    counts, edges = [0] * len(edges), edges.tolist()
    if not edges:
        skip(rng, n)
        return counts
    for start in range(0, n, _CHUNK):
        u = rng.random(min(_CHUNK, n - start))
        counts = [count + int(np.count_nonzero(u < edge)) for count, edge in zip(counts, edges)]
    return counts


def _net_edges(table: np.ndarray, fail: np.ndarray) -> dict[float, int]:
    """Each distinct running-sum edge above 0.0 where the failing mask
    changes, with its net sign (see `SamplerPlan`)."""
    flat = table.reshape(-1)
    mask = fail.reshape(-1).astype(np.int64)
    sign = mask - np.append(mask[1:], 0)
    at = np.flatnonzero(sign)
    net: dict[float, int] = {}
    for edge, step in zip(_cdf(flat / flat.sum())[at].tolist(), sign[at].tolist()):
        net[edge] = net.get(edge, 0) + step
    return {edge: step for edge, step in net.items() if step and edge > 0.0}


@dataclass(frozen=True)
class SamplerPlan:
    """What the sampler reads of one configuration's Born tables, built once per
    process per handle pair (`detection_plan`); a run only draws and counts.

    `rng.choice(n, size, p)` draws cell i exactly when cdf[i-1] <= u < cdf[i].
    With C(e) the number of uniforms below e, the failing count is
    sum_i fail[i] * (C(cdf[i]) - C(cdf[i-1])) = sum_i (fail[i] - fail[i+1]) * C(cdf[i]),
    which needs C only where the mask changes. Equal edges have equal C, so
    each distinct edge is taken once with its net sign: a failing run of no
    mass, or of less than the running sum resolves, cancels. As 0 <= u < 1,
    an edge at 1.0 counts all n_b uniforms and one at 0.0 none, so per basis
    `bases` holds the failures each of its trials adds for sure (the net
    sign of its edges at 1.0), then its live edges, those in between, and
    their net signs. `menu_edges` are the running-sum edges of the menu
    weights that the basis draws are counted at. When every basis of weight
    above 0 has no live edge and adds the same sure count, the basis draws
    decide nothing: the plan has no menu edge and one basis, and reads no
    uniform (`reads`).
    """

    p_analytic: float
    menu_edges: np.ndarray
    bases: tuple[tuple[int, np.ndarray, np.ndarray], ...]

    @classmethod
    def from_tables(cls, tables: list[tuple[float, np.ndarray, np.ndarray]]) -> "SamplerPlan":
        weights = np.array([weight for weight, _, _ in tables])
        menu_edges = _cdf(weights / weights.sum())[:-1]
        bases = []
        for weight, table, fail in tables:
            net = _net_edges(table, fail) if weight > 0 else {}
            live = [edge for edge in net if edge < 1.0]
            sure = sum(step for edge, step in net.items() if edge >= 1.0)
            bases.append((sure, np.array(live), np.array([net[edge] for edge in live], dtype=np.int64)))
        chosen = [basis for weight, basis in zip(weights, bases) if weight > 0]
        if not any(len(live) for _, live, _ in chosen) and len({sure for sure, _, _ in chosen}) == 1:
            menu_edges, bases = menu_edges[:0], chosen[:1]
        return cls(_failing_mass(tables), menu_edges, tuple(bases))

    @property
    def reads(self) -> bool:
        """Whether any count reads a uniform."""
        return bool(len(self.menu_edges)) or any(len(live) for _, live, _ in self.bases)


def detection_plan(eve: EavesdropperHandle, control: ControlModeHandle, cfg: ProtocolConfig) -> SamplerPlan:
    """The sampler plan of the configuration's Born tables (`_born_tables`),
    built once per process per (Eve handle, control mode) pair, dim and kind,
    and kept on Eve's handle (`detection_plans`) by the mode's identity; its
    entry holds the mode, so a kept id is never reused. A build that raises
    is not kept."""
    plans, key = eve.detection_plans, (id(control), cfg.dim, cfg.initial_state_kind)
    if key not in plans:
        plans[key] = control, SamplerPlan.from_tables(_born_tables(eve, control, cfg))
    return plans[key][1]


def _sample_failures(rng: np.random.Generator, plan: SamplerPlan, trials: int) -> int:
    """Failing outcomes among `trials` control cycles drawn as `plan` reads them.

    The uniforms are choice's, in its order: `trials` for the basis, then
    `n_b` per basis drawn at least once. Those no count reads are skipped by
    counter, so `rng` ends where choice would leave it.
    """
    failures = drawn = 0
    for below, (sure, live, steps) in zip(_hits(rng, trials, plan.menu_edges) + [trials], plan.bases):
        n_b, drawn = below - drawn, below
        if n_b:
            failures += n_b * sure + sum(step * hit for step, hit in zip(steps.tolist(), _hits(rng, n_b, live)))
    return failures


def empirical_pdet(
    eve: EavesdropperHandle, control: ControlModeHandle, cfg: ProtocolConfig, trials: int
) -> DetectionReport:
    """Seeded Monte Carlo over independent control cycles.

    The plan of the per-basis Born tables is built once per process per
    handle pair (`detection_plan`); each trial samples a basis and an
    outcome pair from the exact joint distribution, and the analytic value
    is read off the same tables. The sampler draws the uniforms per-trial
    `rng.choice` would, in bounded chunks, and counts those that land in the
    failing cells' intervals of each table's running sum, so the failure
    count is choice's with no outcome array. A plan that reads no uniform
    makes no stream. Deterministic for a fixed cfg.seed. A numpy integer
    `trials` is taken as the int it equals.
    """
    trials = operator.index(trials)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    plan = detection_plan(eve, control, cfg)
    if plan.reads:
        failures = _sample_failures(stream(cfg.seed, PDET_TAG), plan, trials)
    else:
        failures = trials * plan.bases[0][0]
    low, high = wilson_interval(failures, trials)
    return DetectionReport(
        p_analytic=plan.p_analytic,
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
