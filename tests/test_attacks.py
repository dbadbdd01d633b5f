import json
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from conftest import (
    all_pairs,
    coupling_zoo,
    qubit_cfg,
    qudit_cfg,
    rand_family,
    rand_state,
    rand_unitary,
)
from pingpong import attacks
from pingpong.attacks import (
    H_POL,
    V_POL,
    VACUUM,
    StateFamily,
    chi_states,
    cnot_attack,
    cpbs,
    family_from_json,
    from_name,
    generic_coupling,
    intercept_resend,
    no_attack,
    pavicic_circuit,
    probe_states,
    qudit_shift_attack,
    rail_state,
    validate_coupling,
)
from pingpong.control import analytic_pdet, computational_control, empirical_pdet
from pingpong.protocol import (
    MAX_DIM,
    CoherenceBreakError,
    algebra,
    dense_encode,
    make_initial_state,
    run_session,
)
from pingpong.qstate import (
    Operator,
    StateVector,
    SubsystemLayout,
    apply,
    factor,
    partial_trace,
    tensor,
    trace_distance,
)
from pingpong.rand import stream


def drive_message_cycle(eve, cfg, mu, nu, rng):
    """One forward/encode/return pass; returns the pre-readout state and notes."""
    notes = {}
    state = eve.attach(make_initial_state(cfg))
    state = oracles.forward(eve, state, rng, notes)
    state = dense_encode(state, mu, nu, algebra(cfg.dim))
    state = oracles.backward(eve, state, rng, notes)
    return state, notes


class TestNoAttack:
    def test_zero_detection(self):
        cfg = qubit_cfg()
        eve = no_attack(2)
        assert abs(analytic_pdet(eve, computational_control(cfg), cfg)) < 1e-12

    def test_message_integrity(self):
        cfg = qubit_cfg(control_prob=0.0, n_cycles=4)
        records = run_session(cfg, all_pairs(2), no_attack(2), computational_control(cfg))
        assert all(r.bob_decoded == r.alice_symbols for r in records)

    def test_readout_abstains(self):
        cfg = qubit_cfg(control_prob=0.0, n_cycles=1)
        [record] = run_session(cfg, [(1, 1)], no_attack(2), computational_control(cfg))
        assert record.eve_guess is None


class TestCnot:
    def test_shift_conditions(self):
        eve = cnot_attack()
        report = validate_coupling(eve.coupling, eve.detection, eve.detection, 2)
        assert report.max_residual < 1e-14

    def test_explicit_actions(self):
        # chi=|0>, phi=|1> map onto probes a=|0>, d=|1> with the bit-dependent swap
        q = cnot_attack().coupling.matrix
        for (t, anc), (t2, anc2) in {
            (0, 0): (0, 0),
            (1, 0): (1, 1),
            (0, 1): (0, 1),
            (1, 1): (1, 0),
        }.items():
            src = np.zeros(4)
            src[t * 2 + anc] = 1.0
            dst = np.zeros(4)
            dst[t2 * 2 + anc2] = 1.0
            assert np.allclose(q @ src, dst, atol=1e-15)

    def test_invisible_to_computational_control(self):
        cfg = qubit_cfg()
        assert abs(analytic_pdet(cnot_attack(), computational_control(cfg), cfg)) < 1e-12

    def test_recovers_bit_symbol_exactly(self):
        cfg = qubit_cfg(control_prob=0.0, n_cycles=4)
        records = run_session(cfg, all_pairs(2), cnot_attack(), computational_control(cfg))
        assert [r.eve_guess for r in records] == [mu for mu, _ in all_pairs(2)]


class TestPavicicCircuit:
    def test_rail_action_on_initial_ancilla(self):
        eve = pavicic_circuit()
        chi0, _ = chi_states()
        a_state, d_state = probe_states()
        q = eve.coupling.matrix
        for t, target in ((0, a_state), (1, d_state)):
            travel = np.zeros(2)
            travel[t] = 1.0
            out = q @ np.kron(travel, chi0.amps)
            assert np.linalg.norm(out - np.kron(travel, target.amps)) < 1e-12

    def test_rail_action_on_orthogonal_ancilla(self):
        eve = pavicic_circuit()
        _, chi1 = chi_states()
        a_state, d_state = probe_states()
        q = eve.coupling.matrix
        for t, target in ((0, d_state), (1, a_state)):
            travel = np.zeros(2)
            travel[t] = 1.0
            out = q @ np.kron(travel, chi1.amps)
            assert np.linalg.norm(out - np.kron(travel, target.amps)) < 1e-12

    def test_phase_flip_returns_ancilla_unchanged(self):
        cfg = qubit_cfg()
        eve = pavicic_circuit()
        chi0, _ = chi_states()
        state, _ = drive_message_cycle(eve, cfg, 0, 1, None)
        expected = tensor(dense_encode(make_initial_state(cfg), 0, 1, algebra(2)), chi0)
        assert np.max(np.abs(state.amps - expected.amps)) < 1e-12
        mu_hat, _ = oracles.readout(eve, state, np.random.default_rng(0), {})
        assert mu_hat == 0

    def test_bit_flip_moves_ancilla(self):
        cfg = qubit_cfg()
        eve = pavicic_circuit()
        _, chi1 = chi_states()
        state, _ = drive_message_cycle(eve, cfg, 1, 0, None)
        expected = tensor(dense_encode(make_initial_state(cfg), 1, 0, algebra(2)), chi1)
        assert np.max(np.abs(state.amps - expected.amps)) < 1e-12
        mu_hat, _ = oracles.readout(eve, state, np.random.default_rng(0), {})
        assert mu_hat == 1

    def test_shift_conditions_with_rail_families(self):
        eve = pavicic_circuit()
        detection = StateFamily(chi_states())
        probes = StateFamily(probe_states())
        assert validate_coupling(eve.coupling, detection, probes, 2).passed

    def test_evolution_stays_in_specified_subspace(self):
        # span{chi0, chi1, a, d} on the rails; the completion is unobservable
        eve = pavicic_circuit()
        cfg = qubit_cfg()
        chi0, chi1 = chi_states()
        a_state, d_state = probe_states()
        span = np.linalg.qr(
            np.column_stack([chi0.amps, chi1.amps, a_state.amps, d_state.amps])
        )[0]
        proj = span @ span.conj().T
        for mu, nu in all_pairs(2):
            notes = {}
            state = oracles.forward(eve, eve.attach(make_initial_state(cfg)), None, notes)
            for stage in range(2):
                arr = state.amps.reshape(4, 9)
                residual = np.linalg.norm(arr @ proj.T - arr)
                assert residual < 1e-10
                if stage == 0:
                    state = dense_encode(state, mu, nu, algebra(2))
                    state = oracles.backward(eve, state, None, notes)


class TestCpbs:
    def test_example_rows(self):
        op = cpbs()
        layout = SubsystemLayout.of(("t", 2), ("x", 3), ("y", 3))
        src = StateVector.basis(layout, (0, VACUUM, H_POL))
        dst = StateVector.basis(layout, (0, H_POL, VACUUM))
        assert np.allclose(op.matrix @ src.amps, dst.amps, atol=1e-15)
        fixed = StateVector.basis(layout, (1, VACUUM, H_POL))
        assert np.allclose(op.matrix @ fixed.amps, fixed.amps, atol=1e-15)

    def test_all_eight_rows(self):
        op = cpbs()
        layout = SubsystemLayout.of(("t", 2), ("x", 3), ("y", 3))
        rows = {
            (0, VACUUM, H_POL): (0, H_POL, VACUUM),
            (0, H_POL, VACUUM): (0, VACUUM, H_POL),
            (0, VACUUM, V_POL): (0, VACUUM, V_POL),
            (0, V_POL, VACUUM): (0, V_POL, VACUUM),
            (1, VACUUM, H_POL): (1, VACUUM, H_POL),
            (1, H_POL, VACUUM): (1, H_POL, VACUUM),
            (1, VACUUM, V_POL): (1, V_POL, VACUUM),
            (1, V_POL, VACUUM): (1, VACUUM, V_POL),
        }
        for src, dst in rows.items():
            out = op.matrix @ StateVector.basis(layout, src).amps
            assert np.linalg.norm(out - StateVector.basis(layout, dst).amps) < 1e-12

    def test_involution_on_specified_states(self):
        op = cpbs()
        layout = SubsystemLayout.of(("t", 2), ("x", 3), ("y", 3))
        square = op.matrix @ op.matrix
        for t in range(2):
            for x, y in ((VACUUM, H_POL), (H_POL, VACUUM), (VACUUM, V_POL), (V_POL, VACUUM)):
                v = StateVector.basis(layout, (t, x, y)).amps
                assert np.linalg.norm(square @ v - v) < 1e-12


class TestQuditShift:
    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_shift_conditions(self, dim):
        eve = qudit_shift_attack(dim)
        report = validate_coupling(eve.coupling, eve.detection, eve.detection, dim)
        assert report.max_residual < 1e-14

    def test_qutrit_shift_symbol_lands_two_positions_back(self):
        cfg = qudit_cfg(3)
        eve = qudit_shift_attack(3)
        state, _ = drive_message_cycle(eve, cfg, 1, 0, None)
        anc = factor(state, ("e",))
        assert abs(abs(anc.amps[2]) - 1.0) < 1e-12  # ancilla sits at |2>
        mu_hat, _ = oracles.readout(eve, state, np.random.default_rng(0), {})
        assert mu_hat == 1

    def test_dim_two_is_cnot(self):
        assert np.array_equal(cnot_attack().coupling.matrix, oracles.shift_permutation(2))

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_equals_permutation_reference(self, dim):
        assert np.array_equal(qudit_shift_attack(dim).coupling.matrix, oracles.shift_permutation(dim))


class TestGenericCoupling:
    def test_computational_families_reproduce_shift(self):
        for dim in (2, 3, 4):
            layout = SubsystemLayout.of(("e", dim))
            family = StateFamily.computational(layout, dim)
            built = generic_coupling(dim, family, family)
            assert np.array_equal(built.coupling.matrix, oracles.shift_permutation(dim))

    def test_rail_families_reproduce_full_space_circuit(self):
        reference = oracles.full_space_coupling(
            2, StateFamily(chi_states()), StateFamily(probe_states())
        )
        assert np.max(np.abs(pavicic_circuit().coupling.matrix - reference)) < 1e-12

    @pytest.mark.parametrize(
        "dim, anc_dim", [(d, a) for d in range(2, 6) for a in (d, d + 1, 9)]
    )
    def test_blocks_match_full_space_completion(self, dim, anc_dim):
        rng = np.random.default_rng(100 * dim + anc_dim)
        detection, probes = rand_family(rng, anc_dim, dim), rand_family(rng, anc_dim, dim)
        built = generic_coupling(dim, detection, probes).coupling.matrix
        reference = oracles.full_space_coupling(dim, detection, probes)
        assert np.max(np.abs(built - reference)) < 1e-12

    def test_memory_bounded_at_max_dim(self):
        # The full-space completion peaked at 113 MiB here; the blockwise
        # build holds Q and one D^3*A residual array at a time (~48 MiB).
        rng = np.random.default_rng(32)
        detection = rand_family(rng, MAX_DIM, MAX_DIM)
        probes = rand_family(rng, MAX_DIM, MAX_DIM)
        tracemalloc.start()
        try:
            generic_coupling(MAX_DIM, detection, probes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_random_families_full_session(self):
        rng = np.random.default_rng(21)
        eve = generic_coupling(3, rand_family(rng, 4, 3), rand_family(rng, 4, 3))
        cfg = qudit_cfg(3, control_prob=0.0, n_cycles=9)
        control = computational_control(cfg)
        assert abs(analytic_pdet(eve, control, cfg)) < 1e-12
        records = run_session(cfg, all_pairs(3), eve, control)
        assert all(r.eve_guess == r.alice_symbols[0] for r in records)
        assert all(r.bob_decoded == r.alice_symbols for r in records)

    def test_family_size_checked(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError):
            generic_coupling(3, rand_family(rng, 4, 2), rand_family(rng, 4, 3))


class TestValidateCoupling:
    def test_identity_fails_for_shifting_rows(self):
        from pingpong.qstate import Operator

        dim = 3
        layout = SubsystemLayout.of(("e", dim))
        family = StateFamily.computational(layout, dim)
        report = validate_coupling(Operator.unitary(np.eye(dim * dim)), family, family, dim)
        assert not report.passed
        bad_rows = {(k, m) for k, m, f, b in report.rows if max(f, b) >= report.tolerance}
        assert bad_rows == {(k, m) for k in range(1, dim) for m in range(dim)}

    @pytest.mark.parametrize("case", ["identity", "dense", "generic"])
    def test_rows_match_per_pair_reference(self, case):
        rng = np.random.default_rng(9)
        dim, anc_dim = 3, 4
        detection, probes = rand_family(rng, anc_dim, dim), rand_family(rng, anc_dim, dim)
        coupling = {
            "identity": lambda: Operator.unitary(np.eye(dim * anc_dim)),
            "dense": lambda: Operator.unitary(rand_unitary(rng, dim * anc_dim)),
            "generic": lambda: generic_coupling(dim, detection, probes).coupling,
        }[case]()
        report = validate_coupling(coupling, detection, probes, dim)
        reference = oracles.coupling_residual_rows(coupling.matrix, detection, probes, dim)
        assert [row[:2] for row in report.rows] == [row[:2] for row in reference]
        assert np.max(np.abs(np.array(report.rows) - np.array(reference))) < 1e-12
        assert report.passed == (case == "generic")

    def test_report_lists_every_pair(self):
        eve = qudit_shift_attack(4)
        report = validate_coupling(eve.coupling, eve.detection, eve.detection, 4)
        assert len(report.rows) == 16
        assert report.passed


class TestInterceptResend:
    def test_pdet_matches_enumeration_oracle(self):
        cfg2 = qubit_cfg()
        got = analytic_pdet(intercept_resend(2), computational_control(cfg2), cfg2)
        assert abs(got - float(oracles.intercept_resend_pdet(2, "qubit_psi_minus"))) < 1e-12

        cfg3 = qudit_cfg(3)
        got3 = analytic_pdet(intercept_resend(3), computational_control(cfg3), cfg3)
        assert abs(got3 - float(oracles.intercept_resend_pdet(3, "qudit_beta00"))) < 1e-12

    def test_empirical_pdet_in_band(self):
        cfg = qubit_cfg(seed=31)
        report = empirical_pdet(intercept_resend(2), computational_control(cfg), cfg, 20000)
        assert abs(report.p_empirical - 0.5) < 4 * math.sqrt(0.25 / 20000)

    @pytest.mark.parametrize("dim,kind", [(2, "qubit_psi_minus"), (3, "qudit_beta00")])
    def test_shift_symbol_recovered_exactly(self, dim, kind):
        eve = intercept_resend(dim)
        cfg = qubit_cfg() if dim == 2 else qudit_cfg(dim)
        mu_acc, nu_acc = oracles.intercept_resend_symbol_stats(dim, kind)
        assert mu_acc == 1 and nu_acc == oracles.Fraction(1, dim)
        for trial in range(40):
            rng = stream(91, trial)
            mu, nu = int(rng.integers(dim)), int(rng.integers(dim))
            state, notes = drive_message_cycle(eve, cfg, mu, nu, rng)
            mu_hat, _ = oracles.readout(eve, state, rng, notes)
            assert mu_hat == mu

    def test_message_mode_breaks_coherence(self):
        cfg = qubit_cfg(control_prob=0.0, n_cycles=1)
        with pytest.raises(CoherenceBreakError):
            run_session(cfg, [(0, 0)], intercept_resend(2), computational_control(cfg))

    def test_substitute_is_uncorrelated_with_home(self):
        # over the exact branch ensemble, P(alice, bob) is uniform
        eve = intercept_resend(3)
        cfg = qudit_cfg(3)
        branches = list(eve.coupled_branches(make_initial_state(cfg)))
        assert abs(sum(p for p, _ in branches) - 1.0) < 1e-12
        joint = np.zeros((3, 3))
        for p, state in branches:
            rho = partial_trace(state, ("h", "t")).matrix
            joint += p * np.diag(rho).real.reshape(3, 3)
        assert np.allclose(joint, np.full((3, 3), 1 / 9), atol=1e-12)

    @pytest.mark.parametrize(
        "dim,kind", [(2, "qubit_psi_minus")] + [(dim, "qudit_beta00") for dim in range(2, 7)]
    )
    def test_coupled_ensemble_matches_branch_oracle(self, dim, kind):
        # each branch is the product state |home, fake, stored>, keyed by its levels
        cfg = qubit_cfg() if kind == "qubit_psi_minus" else qudit_cfg(dim)
        found = {}
        for prob, state in intercept_resend(dim).coupled_branches(make_initial_state(cfg)):
            amps = state.reshaped()  # (home, travel, stored)
            levels = tuple(int(i) for i in np.unravel_index(np.argmax(np.abs(amps)), amps.shape))
            assert abs(abs(amps[levels]) - 1.0) < 1e-12
            assert levels not in found
            found[levels] = prob
        expected = {
            (home, fake, stored): float(p)
            for p, home, fake, stored in oracles._branches_after_interception(dim, kind)
        }
        assert abs(sum(found.values()) - 1.0) < 1e-12
        assert found.keys() == expected.keys()
        assert all(abs(found[levels] - p) < 1e-12 for levels, p in expected.items())


class TestMonomialApply:
    """Permutations moved by the monomial `apply` equal the dense matmul bit
    for bit; phased ones agree within 1e-15."""

    @staticmethod
    def _check(op, layout, targets, exact):
        state = rand_state(np.random.default_rng(op.dim), layout)
        got = apply(state, op, targets).amps
        want = oracles.dense_apply(state, op.matrix, targets).amps
        if exact:
            assert np.array_equal(got, want)
        else:
            assert np.max(np.abs(got - want)) < 1e-15

    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_swap(self, dim):
        op = attacks._swap_operator(dim)
        assert np.array_equal(op.matrix, oracles.swap_permutation(dim))
        assert op.phases is None
        layout = SubsystemLayout.of(("h", dim), ("t", dim), ("e", dim))
        self._check(op, layout, ("t", "e"), exact=True)

    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_shifts(self, dim):
        layout = SubsystemLayout.of(("h", dim), ("t", dim), ("e", dim))
        for f in range(dim):
            self._check(algebra(dim).encoding(f, 0), layout, ("t",), exact=True)

    def test_cnot(self):
        q = cnot_attack().coupling
        assert q.rows is not None and q.phases is None
        layout = SubsystemLayout.of(("h", 2), ("t", 2), ("x", 2))
        self._check(q, layout, ("t", "x"), exact=True)
        self._check(q.inverse, layout, ("t", "x"), exact=True)

    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_qudit_shift_coupling(self, dim):
        q = qudit_shift_attack(dim).coupling
        assert q.rows is not None and q.phases is None
        layout = SubsystemLayout.of(("h", dim), ("t", dim), ("e", dim))
        self._check(q, layout, ("t", "e"), exact=True)
        self._check(q.inverse, layout, ("t", "e"), exact=True)

    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_phased_encodings(self, dim):
        layout = SubsystemLayout.of(("h", dim), ("t", dim), ("e", dim))
        for mu, nu in all_pairs(dim):
            op = algebra(dim).encoding(mu, nu)
            self._check(op, layout, ("t",), exact=nu == 0)

    def test_dense_couplings_keep_the_matmul(self):
        assert pavicic_circuit().coupling.rows is None
        rng = np.random.default_rng(4)
        assert generic_coupling(3, rand_family(rng, 4, 3), rand_family(rng, 4, 3)).coupling.rows is None

    def test_backward_edge_built_once_per_handle(self):
        eve = qudit_shift_attack(4)
        assert eve.backward_leg is eve.backward_leg
        assert eve.backward_leg[0].op is eve.coupling.inverse


class TestHandleInvariants:
    def test_couplings_unitary(self):
        for eve, _ in coupling_zoo() + [(no_attack(2), qubit_cfg())]:
            q = eve.coupling.matrix
            assert np.max(np.abs(q.conj().T @ q - np.eye(q.shape[0]))) < 1e-12

    def test_forward_backward_restores_state(self):
        for eve, cfg in coupling_zoo():
            state = eve.attach(make_initial_state(cfg))
            roundtrip = oracles.backward(eve, oracles.forward(eve, state, None, {}), None, {})
            assert np.max(np.abs(roundtrip.amps - state.amps)) < 1e-12

    def test_post_decoupling_state_factorizes(self):
        for eve, cfg in coupling_zoo():
            for mu, nu in all_pairs(cfg.dim):
                state, _ = drive_message_cycle(eve, cfg, mu, nu, None)
                rho = partial_trace(state, ("h", "t")).matrix
                purity = np.trace(rho @ rho).real
                assert purity > 1 - 1e-10

    def test_detection_state_indexing(self):
        for eve, cfg in coupling_zoo():
            for mu, nu in all_pairs(cfg.dim):
                state, _ = drive_message_cycle(eve, cfg, mu, nu, None)
                target = eve.detection.states[(-mu) % cfg.dim]
                expected = tensor(dense_encode(make_initial_state(cfg), mu, nu, algebra(cfg.dim)), target)
                fidelity = abs(np.vdot(expected.amps, state.amps))
                assert fidelity > 1 - 1e-10


class TestEquivalence:
    def test_reduced_dynamics_identical(self):
        cfg = qubit_cfg()
        circuit = pavicic_circuit()
        gate = cnot_attack()
        for mu, nu in all_pairs(2):
            rho_circuit = partial_trace(drive_message_cycle(circuit, cfg, mu, nu, None)[0], ("h", "t"))
            rho_gate = partial_trace(drive_message_cycle(gate, cfg, mu, nu, None)[0], ("h", "t"))
            assert trace_distance(rho_circuit, rho_gate) < 1e-12

    def test_detection_statistics_agree(self):
        from pingpong.control import two_basis_control

        cfg = qubit_cfg()
        for make_control in (computational_control, two_basis_control):
            control = make_control(cfg)
            p_circuit = analytic_pdet(pavicic_circuit(), control, cfg)
            p_gate = analytic_pdet(cnot_attack(), control, cfg)
            assert abs(p_circuit - p_gate) < 1e-12

    def test_symbol_recovery_agrees(self):
        cfg = qubit_cfg(control_prob=0.0, n_cycles=4)
        control = computational_control(cfg)
        rec_circuit = run_session(cfg, all_pairs(2), pavicic_circuit(), control)
        rec_gate = run_session(cfg, all_pairs(2), cnot_attack(), control)
        assert [r.eve_guess for r in rec_circuit] == [r.eve_guess for r in rec_gate]


class TestResolution:
    def test_names_resolve(self):
        assert from_name("none", 3).name == "none"
        assert from_name("intercept-resend", 2).name == "intercept-resend"
        assert from_name("cnot", 2).name == "cnot"
        assert from_name("pavicic", 2).name == "pavicic"
        assert from_name("qudit-shift", 4).dim == 4

    def test_dim_guard(self):
        with pytest.raises(ValueError):
            from_name("cnot", 3)
        with pytest.raises(ValueError):
            from_name("bogus", 2)

    def test_generic_from_file(self, tmp_path):
        rng = np.random.default_rng(3)
        detection = rand_family(rng, 3, 3)
        probes = rand_family(rng, 3, 3)
        payload = {
            "detection": [[[z.real, z.imag] for z in s.amps] for s in detection.states],
            "probes": [[[z.real, z.imag] for z in s.amps] for s in probes.states],
        }
        path = tmp_path / "families.json"
        path.write_text(json.dumps(payload))
        eve = from_name(f"generic:{path}", 3)
        assert eve.name == "generic"
        loaded_det, loaded_prb = family_from_json(path)
        assert np.allclose(loaded_det.columns, detection.columns)
        assert np.allclose(loaded_prb.columns, probes.columns)

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"detection": [[[1, 0]]]}, "needs 'detection' and 'probes'"),
            ({"detection": 5, "probes": 5}, "'detection' must be a list of states"),
            ({"detection": [[1, 2]], "probes": [[1, 2]]}, "'detection' must be a list of states"),
            (
                {"detection": [[[1, 0]]], "probes": [[["a", "b"]]]},
                r"'probes' must be a list of states, each a list of \[re, im\] number pairs",
            ),
        ],
    )
    def test_family_file_schema_errors(self, tmp_path, payload, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=message):
            family_from_json(path)

    def test_family_length_bounded_before_coupling(self, tmp_path, monkeypatch):
        def no_coupling(*args):
            raise AssertionError("a coupling was built")

        monkeypatch.setattr(attacks, "orthonormal_completion", no_coupling)
        rng = np.random.default_rng(4)
        family = rand_family(rng, MAX_DIM + 1, 2)
        states = [[[z.real, z.imag] for z in s.amps] for s in family.states]
        path = tmp_path / "long.json"
        path.write_text(json.dumps({"detection": states, "probes": states}))
        with pytest.raises(ValueError, match=f"at most {MAX_DIM} amplitudes, got {MAX_DIM + 1}"):
            from_name(f"generic:{path}", 2)

    def test_rail_state_index_convention(self):
        assert np.argmax(np.abs(rail_state(VACUUM, H_POL).amps)) == 1
        assert np.argmax(np.abs(rail_state(H_POL, VACUUM).amps)) == 3
