import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import oracles
import pingpong.control as control_module
from conftest import FixedUniform, qubit_cfg, qudit_cfg, rand_family, rand_state
from pingpong.attacks import cnot_attack, intercept_resend, no_attack, pavicic_circuit, qudit_shift_attack
from pingpong.attacks import from_name as attack_from_name
from pingpong.attacks import generic_coupling
from pingpong.control import (
    ControlBasis,
    ControlModeHandle,
    analytic_pdet,
    computational_control,
    empirical_pdet,
    from_name,
    two_basis_control,
    wilson_interval,
)
from pingpong.cli import MAX_TRIALS, sig12
from pingpong.protocol import HOME, TRAVEL, make_initial_state, pair_probs
from pingpong.session import run_session
from pingpong.qstate import Basis, SubsystemLayout, born_table
from pingpong.rand import PDET_TAG, stream


class TestFailMasks:
    def test_qubit_kind_expects_anticorrelation(self):
        [entry] = computational_control(qubit_cfg()).bases
        assert not entry.fail[0, 1]
        assert not entry.fail[1, 0]
        assert entry.fail[0, 0]
        assert entry.fail[1, 1]

    def test_qudit_kind_expects_correlation(self):
        [entry] = computational_control(qudit_cfg(3)).bases
        for k in range(3):
            assert not entry.fail[k, k]
        assert entry.fail[0, 1]

    def test_singlet_dual_basis_is_also_anticorrelated(self):
        _, entry = two_basis_control(qubit_cfg()).bases
        assert entry.basis_id == "dual"
        assert not entry.fail[0, 1]
        assert not entry.fail[1, 0]
        assert entry.fail[0, 0]
        assert entry.fail[1, 1]

    def test_mask_is_a_read_only_copy(self):
        given = np.array([[True, False], [False, True]])
        entry = ControlBasis("computational", Basis.computational(2), 1.0, given)
        given[0, 0] = False
        assert entry.fail[0, 0]
        with pytest.raises(ValueError):
            entry.fail[0, 0] = False

    def test_mask_shape_validated(self):
        entry = replace(computational_control(qubit_cfg()).bases[0], fail=np.zeros((3, 3)))
        with pytest.raises(ValueError, match="must be 2x2"):
            ControlModeHandle("bad", 2, (entry,))

    def test_clean_sessions_always_pass(self):
        for cfg in (qubit_cfg(control_prob=1.0, n_cycles=300),
                    qudit_cfg(4, control_prob=1.0, n_cycles=300)):
            transcript = run_session(cfg, [], no_attack(cfg.dim), computational_control(cfg))
            assert transcript.passed.all()

    def test_shift_attack_passes_computational_control(self):
        cfg = qudit_cfg(4, control_prob=1.0, n_cycles=300)
        transcript = run_session(cfg, [], qudit_shift_attack(4), computational_control(cfg))
        assert transcript.passed.all()

    def test_two_basis_requires_qubit_singlet(self):
        with pytest.raises(ValueError):
            two_basis_control(qudit_cfg(3))
        with pytest.raises(ValueError):
            two_basis_control(qudit_cfg(2))

    def test_menu_weights_validated(self):
        handle = two_basis_control(qubit_cfg())
        with pytest.raises(ValueError):
            ControlModeHandle("bad", 2, (handle.bases[0],) )
        with pytest.raises(ValueError):
            ControlModeHandle("bad", 2, (replace(handle.bases[0], weight=math.nan), handle.bases[1]))

    def test_choose_agrees_with_the_menu_loop(self):
        """At each running weight, one ulp to either side and the ends of
        [0, 1), with a zero-weight entry and weights whose running sum falls
        short of 1 by rounding."""
        handle = two_basis_control(qubit_cfg())
        comp, dual = handle.bases
        menus = [
            handle,
            ControlModeHandle("four", 2, (replace(comp, weight=0.7), replace(dual, weight=0.0),
                                          replace(comp, weight=0.2), replace(dual, weight=0.1))),
        ]
        for menu in menus:
            running = np.cumsum([b.weight for b in menu.bases])
            uniforms = [0.0, 1 - 2**-53] + [
                u for r in running for u in (np.nextafter(r, 0.0), r, np.nextafter(r, 1.0)) if u < 1.0
            ]
            assert menu is handle or running[-1] < 1.0
            chosen = menu.choose(np.array(uniforms))
            expected = [oracles.draw_basis(menu, FixedUniform(u)) for u in uniforms]
            assert [menu.bases[i] for i in chosen.tolist()] == expected

    def test_name_resolution(self):
        cfg = qubit_cfg()
        assert from_name("computational", cfg).name == "computational"
        assert from_name("two-basis", cfg).name == "two-basis"
        with pytest.raises(ValueError):
            from_name("bogus", cfg)


class TestAnalyticPdet:
    def test_cnot_computational_zero(self):
        cfg = qubit_cfg()
        assert abs(analytic_pdet(cnot_attack(), computational_control(cfg), cfg)) < 1e-12

    def test_cnot_two_basis_quarter(self):
        cfg = qubit_cfg()
        assert analytic_pdet(cnot_attack(), two_basis_control(cfg), cfg) == pytest.approx(0.25, abs=1e-12)

    def test_pavicic_two_basis_quarter(self):
        cfg = qubit_cfg()
        assert analytic_pdet(pavicic_circuit(), two_basis_control(cfg), cfg) == pytest.approx(0.25, abs=1e-12)

    def test_no_attack_zero_everywhere(self):
        cfg = qubit_cfg()
        for control in (computational_control(cfg), two_basis_control(cfg)):
            assert abs(analytic_pdet(no_attack(2), control, cfg)) < 1e-12

    def test_bounded(self):
        cfg = qubit_cfg()
        value = analytic_pdet(intercept_resend(2), two_basis_control(cfg), cfg)
        assert 0.0 <= value <= 1.0

    def test_dimension_mismatch(self):
        cfg = qubit_cfg()
        with pytest.raises(ValueError):
            analytic_pdet(qudit_shift_attack(3), computational_control(cfg), cfg)

    def test_linear_in_menu_weights(self):
        cfg = qubit_cfg()
        eve = cnot_attack()
        base = two_basis_control(cfg)
        comp, dual = base.bases
        values = {}
        for w in (0.0, 0.5, 1.0):
            entries = []
            if w < 1.0:
                entries.append(
                    type(comp)(comp.basis_id, comp.basis, 1.0 - w, comp.fail)
                )
            if w > 0.0:
                entries.append(type(dual)(dual.basis_id, dual.basis, w, dual.fail))
            handle = ControlModeHandle("mix", 2, tuple(entries))
            values[w] = analytic_pdet(eve, handle, cfg)
        assert values[0.0] == pytest.approx(0.0, abs=1e-12)
        assert values[1.0] == pytest.approx(0.5, abs=1e-12)
        assert values[0.5] == pytest.approx((values[0.0] + values[1.0]) / 2, abs=1e-12)


def projector_pdet(eve, control, cfg) -> float:
    """Reference route: fail-projector expectation on the reduced (h, t) state."""
    total = 0.0
    for prob, state in eve.coupled_branches(make_initial_state(cfg)):
        rho = oracles.partial_trace(state, (HOME, TRAVEL))
        for entry in control.bases:
            total += prob * entry.weight * np.trace(oracles.fail_projector(entry, cfg.dim) @ rho).real
    return total


def _generic_d3():
    rng = np.random.default_rng(5)
    return generic_coupling(3, rand_family(rng, 4, 3), rand_family(rng, 4, 3))


def _build(case):
    """(eve, control handle, cfg) for an (attack, control, cfg) case."""
    attack, control, cfg = case
    eve = _generic_d3() if attack == "generic" else attack_from_name(attack, cfg.dim)
    return eve, from_name(control, cfg), cfg


def _case_id(case):
    return f"{case[0]}-{case[1]}-{case[2].initial_state_kind}-d{case[2].dim}"


# (attack, control, cfg): every paper-matrix row, then qudit-shift and
# intercept-resend on the correlated pair up to D=6.
REFERENCE_CASES = [
    ("none", "computational", qubit_cfg()),
    ("none", "two-basis", qubit_cfg()),
    ("cnot", "computational", qubit_cfg()),
    ("cnot", "two-basis", qubit_cfg()),
    ("pavicic", "computational", qubit_cfg()),
    ("pavicic", "two-basis", qubit_cfg()),
    ("generic", "computational", qudit_cfg(3)),
    ("intercept-resend", "computational", qubit_cfg()),
    ("intercept-resend", "two-basis", qubit_cfg()),
] + [
    (attack, "computational", qudit_cfg(dim))
    for attack in ("qudit-shift", "intercept-resend")
    for dim in range(2, 7)
]


class TestBornTableReference:
    @pytest.fixture(params=REFERENCE_CASES, ids=_case_id)
    def case(self, request):
        return _build(request.param)

    def test_analytic_matches_projector_route(self, case):
        eve, control, cfg = case
        assert abs(analytic_pdet(eve, control, cfg) - projector_pdet(eve, control, cfg)) < 1e-12

    def test_empirical_reports_the_same_analytic_value(self, case):
        eve, control, cfg = case
        assert empirical_pdet(eve, control, cfg, 500).p_analytic == analytic_pdet(eve, control, cfg)

    @pytest.mark.parametrize("make_eve", [cnot_attack, lambda: intercept_resend(2)])
    def test_empirical_builds_the_coupled_ensemble_once(self, make_eve, monkeypatch):
        eve = make_eve()
        original = type(eve).coupled_branches
        calls = []

        def counting(self, init):
            calls.append(init)
            return original(self, init)

        monkeypatch.setattr(type(eve), "coupled_branches", counting)
        cfg = qubit_cfg()
        empirical_pdet(eve, two_basis_control(cfg), cfg, 500)
        assert len(calls) == 1

    def test_intercept_resend_ensemble_is_walked_one_branch_at_a_time(self):
        # the walk holds a few of its D branch states of D^3 amplitudes at
        # once (about 3 MiB at D=32); all D of them held at once would take
        # D^4 amplitudes (16 MiB at D=32)
        cfg = qudit_cfg(32)
        eve, control = intercept_resend(32), computational_control(cfg)
        analytic_pdet(eve, control, cfg)  # build the cached 16 MiB swap operator first
        eve.detection_plans.clear()  # so the traced call walks the ensemble again
        tracemalloc.start()
        try:
            analytic_pdet(eve, control, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestEmpiricalPdet:
    def test_no_attack_never_fails(self):
        cfg = qubit_cfg(seed=19)
        report = empirical_pdet(no_attack(2), computational_control(cfg), cfg, 100_000)
        assert report.failures == 0
        assert report.ci_low == pytest.approx(0.0, abs=1e-12)

    def test_cnot_two_basis_estimate(self):
        cfg = qubit_cfg(seed=23)
        report = empirical_pdet(cnot_attack(), two_basis_control(cfg), cfg, 100_000)
        assert abs(report.p_empirical - 0.25) < 0.006
        assert report.ci_low <= report.p_analytic <= report.ci_high

    def test_intercept_resend_estimate(self):
        cfg = qubit_cfg(seed=29)
        report = empirical_pdet(intercept_resend(2), computational_control(cfg), cfg, 100_000)
        assert abs(report.p_empirical - float(oracles.intercept_resend_pdet(2, "qubit_psi_minus"))) < 0.006

    def test_deterministic_for_fixed_seed(self):
        cfg = qubit_cfg(seed=77)
        first = empirical_pdet(cnot_attack(), two_basis_control(cfg), cfg, 5000)
        second = empirical_pdet(cnot_attack(), two_basis_control(cfg), cfg, 5000)
        assert first == second

    @pytest.mark.parametrize("count", [np.int64, np.int32, np.uint16])
    def test_numpy_integer_trials_give_the_int_report(self, count):
        """Intercept-resend at D=3 under computational control, with a numpy
        integer count as with an int one."""
        cfg = qudit_cfg(3, seed=5)
        eve, mode = intercept_resend(3), computational_control(cfg)
        want = empirical_pdet(eve, mode, cfg, 1000)
        assert want.failures == stream(5, PDET_TAG).binomial(1000, want.p_analytic) == 669
        assert empirical_pdet(eve, mode, cfg, count(1000)) == want

    def test_trials_validated(self):
        cfg = qubit_cfg()
        with pytest.raises(ValueError):
            empirical_pdet(no_attack(2), computational_control(cfg), cfg, 0)

    def test_failures_only_in_dual_basis(self):
        cfg = qubit_cfg(control_prob=1.0, n_cycles=2000, seed=41)
        transcript = run_session(cfg, [], cnot_attack(), two_basis_control(cfg))
        failed = transcript.basis[~transcript.passed]
        assert len(failed), "the bit-flip coupling must be caught sometimes"
        assert {transcript.basis_ids[b] for b in failed.tolist()} == {"dual"}
        comp = transcript.basis == transcript.basis_ids.index("computational")
        assert transcript.passed[comp].all()


# (attack, control, cfg): every paper-matrix row, then qudit-shift and
# intercept-resend on the correlated pair at every dimension up to 16.
TABLE_CASES = REFERENCE_CASES[:10] + [
    (attack, "computational", qudit_cfg(dim))
    for attack in ("qudit-shift", "intercept-resend")
    for dim in range(2, 17)
]


class TestMatmulTables:
    @pytest.mark.parametrize("case", TABLE_CASES, ids=_case_id)
    def test_tables_equal_the_einsum_route(self, case):
        eve, control, cfg = _build(case)
        for _, state in eve.coupled_branches(make_initial_state(cfg)):
            for cb in control.bases:
                assert np.array_equal(
                    pair_probs(state, cb.basis),
                    oracles.einsum_joint_probs(state, cb.basis, cfg.dim),
                )


class TestIdentityTables:
    """Computational control reads the joint table off the amplitudes."""

    @pytest.mark.parametrize(
        "eve", [cnot_attack(), qudit_shift_attack(2), qudit_shift_attack(5)], ids=["cnot", "shift-2", "shift-5"]
    )
    def test_coupling_readout_bases_are_the_identity(self, eve):
        [edge] = eve.readout_leg
        assert edge.basis.is_identity

    @pytest.mark.parametrize("dim", range(2, 17))
    def test_pair_probs_equals_the_matmul_route(self, dim):
        rng = np.random.default_rng(dim)
        for ancilla in (1, 2, 3):
            layout = SubsystemLayout.of((HOME, dim), (TRAVEL, dim), ("e", ancilla))
            for _ in range(3):
                state = rand_state(rng, layout)
                basis = Basis.computational(dim)
                assert np.array_equal(pair_probs(state, basis), oracles.matmul_pair_probs(state, basis))


# Every case of either list once, by id.
DETECTION_CASES = list({_case_id(case): case for case in REFERENCE_CASES + TABLE_CASES}.values())


class TestDeferredEnsemble:
    @pytest.mark.parametrize("dim", range(2, 17))
    def test_intercept_resend_has_one_branch_per_substitute(self, dim):
        branches = list(intercept_resend(dim).coupled_branches(make_initial_state(qudit_cfg(dim))))
        assert len(branches) == dim

    @pytest.mark.parametrize("case", DETECTION_CASES, ids=_case_id)
    def test_tables_agree_with_the_exact_walk(self, case):
        eve, control, cfg = _build(case)
        got = control_module._born_tables(eve, control, cfg)
        want = oracles.exact_born_tables(eve, control, cfg)
        assert len(got) == len(want)
        for (weight, table, fail), (exact_weight, exact_table, exact_fail) in zip(got, want):
            assert weight == exact_weight
            assert np.max(np.abs(table - exact_table)) < 1e-12
            assert np.array_equal(fail, exact_fail)
        assert sig12(analytic_pdet(eve, control, cfg)) == sig12(control_module._failing_mass(want))


def _table(flat, fail):
    """A (weight 1, table, failing mask) entry over len(flat) = D^2 cells."""
    dim = math.isqrt(len(flat))
    return (1.0, np.array(flat, dtype=float).reshape(dim, dim), np.array(fail, dtype=bool).reshape(dim, dim))


# Synthetic Born tables: zero-probability cells inside and around failing
# runs, faint cells, and menus with a weight of 0.
_RAGGED = _table(
    [0.1, 0.0, 0.2, 0.0, 0.15, 0.0, 0.05, 0.0, 0.0, 0.1, 0.0, 0.1, 0.05, 0.1, 0.1, 0.05],
    [1, 1, 0, 1, 1, 1, 1, 0, 1, 0, 0, 1, 0, 1, 1, 1],
)
_FAINT = _table(
    [1e-300, 0.3, 0.0, 0.0, 0.2, 1e-20, 0.25, 0.1, 0.15],
    [1, 0, 1, 1, 0, 1, 0, 1, 1],
)
_ALL_FAIL = _table([0.4, 0.1, 0.3, 0.2], [1, 1, 1, 1])
_NO_FAIL = _table([0.0, 0.5, 0.5, 0.0], [0, 0, 0, 0])

SAMPLER_MENUS = {
    "ragged": [_RAGGED],
    "faint": [_FAINT],
    "all-fail": [_ALL_FAIL],
    "no-fail": [_NO_FAIL],
    "three-bases": [(0.2, *_RAGGED[1:]), (0.5, *_ALL_FAIL[1:]), (0.3, *_NO_FAIL[1:])],
    "first-basis-unchosen": [(0.0, *_ALL_FAIL[1:]), (1.0, *_RAGGED[1:])],
    "last-basis-unchosen": [(1.0, *_RAGGED[1:]), (0.0, *_ALL_FAIL[1:])],
    "all-fail-twice": [(0.4, *_ALL_FAIL[1:]), (0.6, *_ALL_FAIL[1:])],
    # failing masses a float sum can round to just outside [0, 1], where
    # Generator.binomial raises
    "mass-above-one": [_table([0.5, 0.5 + 2**-52, 0.0, 0.0], [1, 1, 0, 0])],
    "mass-below-zero": [_table([-1e-18, 0.5, 0.5, 0.0], [1, 0, 0, 0])],
}
SAMPLER_TRIALS = (1, 17, 3 * 2**16 + 17)


class _TablesEve:
    """An Eve handle's p_det store alone, for Born tables patched in."""

    def __init__(self):
        self.detection_plans = {}


def _exact_mass(tables) -> float:
    """The menu-weighted mass of the failing cells, clipped to [0, 1]."""
    mass = sum(weight * float(np.sum(np.where(fail, table, 0.0))) for weight, table, fail in tables)
    return min(max(mass, 0.0), 1.0)


class TestBinomialCount:
    """The failure count is one binomial draw at the exact p_det."""

    @pytest.mark.parametrize("count", [int, np.int64, np.uint32])
    @pytest.mark.parametrize("trials", SAMPLER_TRIALS)
    @pytest.mark.parametrize("menu", SAMPLER_MENUS)
    def test_failures_are_one_binomial_draw(self, menu, trials, count, monkeypatch):
        tables = SAMPLER_MENUS[menu]
        monkeypatch.setattr(control_module, "_born_tables", lambda eve, control, cfg: tables)
        p_det = _exact_mass(tables)
        for seed in (3, 2**32 + 5):
            report = empirical_pdet(_TablesEve(), None, qubit_cfg(seed=seed), count(trials))
            assert report.failures == stream(seed, PDET_TAG).binomial(trials, p_det)
            assert type(report.trials) is int and report.trials == trials
            assert report.p_empirical == report.failures / trials

    def test_a_mass_rounded_above_one_fails_every_trial(self, monkeypatch):
        tables = SAMPLER_MENUS["mass-above-one"]
        monkeypatch.setattr(control_module, "_born_tables", lambda eve, control, cfg: tables)
        report = empirical_pdet(_TablesEve(), None, qubit_cfg(), MAX_TRIALS)
        assert report.p_analytic == 1 + 2**-52
        assert report.failures == MAX_TRIALS

    def test_the_all_fail_configuration_gives_a_report(self):
        """The singlet's computational mask fails every pair of the
        correlated state, a mass the float sum rounds below 1."""
        singlet, beta00 = qubit_cfg(), qudit_cfg(2, seed=3)
        report = empirical_pdet(no_attack(2), computational_control(singlet), beta00, MAX_TRIALS)
        assert report.p_analytic == pytest.approx(1.0, abs=1e-12)
        assert report.failures == stream(3, PDET_TAG).binomial(MAX_TRIALS, report.p_analytic) == MAX_TRIALS

    @pytest.mark.parametrize(
        "case",
        [("qudit-shift", "computational", qudit_cfg(dim)) for dim in range(2, 17)]
        + [("generic", "computational", qudit_cfg(3))]
        + [(attack, "computational", qubit_cfg()) for attack in ("none", "cnot", "pavicic")]
        + [("none", "two-basis", qubit_cfg())],
        ids=_case_id,
    )
    def test_undetectable_rows_never_fail(self, case):
        eve, control, cfg = _build(case)
        report = empirical_pdet(eve, control, cfg, MAX_TRIALS)
        assert abs(report.p_analytic) < 1e-12
        assert report.failures == 0 and report.p_empirical == 0.0

    def test_memory_bounded_at_max_trials(self):
        # per-trial outcome arrays took ~190 MiB here
        cfg = qubit_cfg(seed=1)
        eve, control = cnot_attack(), two_basis_control(cfg)
        tracemalloc.start()
        try:
            report = empirical_pdet(eve, control, cfg, MAX_TRIALS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.trials == MAX_TRIALS
        assert abs(report.p_empirical - 0.25) < 0.001
        assert peak < 8 * 2**20


class TestWilson:
    def test_zero_failures_interval(self):
        low, high = wilson_interval(0, 100_000)
        assert abs(low) < 1e-12
        assert 0 < high < 1e-3

    def test_covers_estimate(self):
        low, high = wilson_interval(250, 1000)
        assert low < 0.25 < high

    def test_matches_independent_formula(self):
        for k, n in ((0, 10), (3, 50), (250, 1000), (99_999, 100_000)):
            assert wilson_interval(k, n) == pytest.approx(oracles.wilson_interval(k, n), abs=1e-12)


def dual_components(state):
    """Coefficients of an (h, t, ancilla) qubit state in the |+->(x)|+-> frame,
    indexed [home_sign, travel_sign, ancilla] with + as 0."""
    dual = Basis.dual().matrix
    return born_table(state, (HOME, TRAVEL), Basis(np.kron(dual, dual))).coeffs.reshape(2, 2, -1)


class TestDualBasisExpand:
    def test_cnot_branches_are_uniform(self):
        cfg = qubit_cfg()
        eve = cnot_attack()
        coupled = oracles.forward(eve, eve.attach(make_initial_state(cfg)), None, {})
        coeffs = dual_components(coupled)
        for home_sign in range(2):
            for travel_sign in range(2):
                assert np.linalg.norm(coeffs[home_sign, travel_sign]) == pytest.approx(0.5, abs=1e-12)

    def test_no_attack_cross_terms_vanish(self):
        cfg = qubit_cfg()
        eve = no_attack(2)
        coupled = oracles.forward(eve, eve.attach(make_initial_state(cfg)), None, {})
        norms = np.linalg.norm(dual_components(coupled), axis=2)
        assert norms[0, 0] < 1e-12
        assert norms[1, 1] < 1e-12
        assert norms[0, 1] == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_probe_difference_norm_pattern(self):
        # coefficient of |+_h>(d - a)|+_t> has norm |d - a| / (2 sqrt 2)
        rng = np.random.default_rng(6)
        detection = rand_family(rng, 3, 2)
        probes = rand_family(rng, 3, 2)
        eve = generic_coupling(2, detection, probes)
        cfg = qubit_cfg()
        coupled = oracles.forward(eve, eve.attach(make_initial_state(cfg)), None, {})
        component = dual_components(coupled)[0, 0]
        a_vec = probes.states[0].amps
        d_vec = probes.states[1].amps
        expected = np.linalg.norm(d_vec - a_vec) / (2 * math.sqrt(2))
        assert np.linalg.norm(component) == pytest.approx(expected, abs=1e-12)
        target = (d_vec - a_vec) / (2 * math.sqrt(2))
        assert np.allclose(component, target, atol=1e-12) or np.allclose(component, -target, atol=1e-12)
