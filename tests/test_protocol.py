import math

import numpy as np
import pytest

import oracles
from conftest import all_pairs, qubit_cfg, qudit_cfg
from pingpong.attacks import cnot_attack, no_attack
from pingpong.control import computational_control
from pingpong.protocol import (
    CoherenceBreakError,
    ControlOutcome,
    CycleRecord,
    MAX_CYCLES,
    MAX_DIM,
    QUDIT_CORRELATED,
    ProtocolConfig,
    algebra,
    bell_states,
    bob_decode,
    dense_encode,
    make_initial_state,
    pair_layout,
    run_session,
)
from pingpong.qstate import StateVector, SubsystemLayout


class TestConfig:
    def test_qubit_kind_requires_dim_two(self):
        with pytest.raises(ValueError):
            ProtocolConfig(dim=3, control_prob=0.0, n_cycles=1, seed=0,
                           initial_state_kind="qubit_psi_minus")

    @pytest.mark.parametrize("bad", [
        dict(dim=1), dict(control_prob=1.5), dict(n_cycles=-1), dict(seed=-1),
        dict(initial_state_kind="bogus"),
    ])
    def test_invalid_fields(self, bad):
        params = dict(dim=2, control_prob=0.5, n_cycles=1, seed=0)
        params.update(bad)
        with pytest.raises(ValueError):
            ProtocolConfig(**params)

    @pytest.mark.parametrize("field, bound", [("dim", MAX_DIM), ("n_cycles", MAX_CYCLES)])
    def test_size_bounds(self, field, bound):
        params = dict(dim=3, control_prob=0.5, n_cycles=1, seed=0,
                      initial_state_kind=QUDIT_CORRELATED)
        assert getattr(ProtocolConfig(**{**params, field: bound}), field) == bound
        with pytest.raises(ValueError, match=f"^{field} must be <= {bound}, got {bound + 1}$"):
            ProtocolConfig(**{**params, field: bound + 1})


class TestInitialState:
    def test_qubit_singlet_amplitudes(self):
        state = make_initial_state(qubit_cfg())
        assert np.allclose(state.amps, [0, 1 / math.sqrt(2), -1 / math.sqrt(2), 0], atol=1e-15)

    def test_qudit_three(self):
        state = make_initial_state(qudit_cfg(3))
        expected = np.zeros(9, dtype=complex)
        expected[[0, 4, 8]] = 1 / math.sqrt(3)
        assert np.allclose(state.amps, expected, atol=1e-15)

    def test_qudit_two_is_phi_plus(self):
        state = make_initial_state(qudit_cfg(2))
        assert np.allclose(state.amps, [1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)], atol=1e-15)


class TestAlgebra:
    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_cyclic_orders(self, dim):
        alg = algebra(dim)
        eye = np.eye(dim)
        assert np.max(np.abs(np.linalg.matrix_power(alg.shift.matrix, dim) - eye)) < 1e-12
        assert np.max(np.abs(np.linalg.matrix_power(alg.phase.matrix, dim) - eye)) < 1e-12

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_commutation_phase(self, dim):
        alg = algebra(dim)
        zx = alg.phase.matrix @ alg.shift.matrix
        xz = alg.shift.matrix @ alg.phase.matrix
        assert np.max(np.abs(zx - alg.omega * xz)) < 1e-12

    def test_symbol_range(self):
        with pytest.raises(ValueError):
            algebra(3).encoding(3, 0)


class TestDenseEncode:
    def test_identity_symbols(self):
        init = make_initial_state(qubit_cfg())
        out = dense_encode(init, 0, 0, algebra(2))
        assert np.allclose(out.amps, init.amps, atol=1e-15)

    def test_phase_flip_gives_minus_psi_plus(self):
        init = make_initial_state(qubit_cfg())
        out = dense_encode(init, 0, 1, algebra(2))
        minus_psi_plus = -np.array([0, 1, 1, 0]) / math.sqrt(2)
        assert np.max(np.abs(out.amps - minus_psi_plus)) < 1e-12

    def test_qutrit_encoding(self):
        init = make_initial_state(qudit_cfg(3))
        out = dense_encode(init, 1, 2, algebra(3))
        omega = np.exp(2j * np.pi / 3)
        expected = np.zeros(9, dtype=complex)
        for k in range(3):
            expected[k * 3 + (k + 1) % 3] = omega ** (2 * k) / math.sqrt(3)
        assert np.max(np.abs(out.amps - expected)) < 1e-12


class TestBobDecode:
    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_roundtrip_exhaustive(self, dim):
        cfg = qudit_cfg(dim)
        init = make_initial_state(cfg)
        alg = algebra(dim)
        for mu, nu in all_pairs(dim):
            assert bob_decode(dense_encode(init, mu, nu, alg), cfg) == (mu, nu)

    def test_undisturbed_state_decodes_to_zero(self):
        cfg = qubit_cfg()
        assert bob_decode(make_initial_state(cfg), cfg) == (0, 0)

    def test_collapsed_state_breaks_coherence(self):
        cfg = qubit_cfg()
        collapsed = StateVector.basis(pair_layout(2), (0, 0))
        # the collapsed pair overlaps two Bell states equally, never reaching 1
        table = oracles.bell_overlap_squared(2, (0, 0))
        assert max(table.values()) == oracles.Fraction(1, 2)
        with pytest.raises(CoherenceBreakError):
            bob_decode(collapsed, cfg)

    def test_bell_basis_orthonormal(self):
        for cfg in (qubit_cfg(), qudit_cfg(3), qudit_cfg(5)):
            mat = bell_states(cfg).matrix
            gram = mat.conj().T @ mat
            assert np.max(np.abs(gram - np.eye(cfg.dim**2))) < 1e-12

    def test_global_phase_invariance(self):
        cfg = qudit_cfg(3)
        state = dense_encode(make_initial_state(cfg), 2, 1, algebra(3))
        for theta in (0.3, 1.2, 4.4):
            rotated = StateVector(state.layout, np.exp(1j * theta) * state.amps)
            assert bob_decode(rotated, cfg) == (2, 1)

    def test_wrong_labels_rejected(self):
        cfg = qubit_cfg()
        flipped = StateVector.basis(SubsystemLayout.of(("t", 2), ("h", 2)), (0, 1))
        with pytest.raises(ValueError):
            bob_decode(flipped, cfg)


class TestRunSession:
    def test_all_message_cycles_decode(self):
        cfg = qubit_cfg(control_prob=0.0, n_cycles=8)
        message = [(k % 2, (k // 2) % 2) for k in range(8)]
        records = run_session(cfg, message, no_attack(2), computational_control(cfg))
        assert all(r.mode == "message" for r in records)
        assert [r.alice_symbols for r in records] == message
        assert all(r.bob_decoded == r.alice_symbols for r in records)

    def test_all_control_cycles_pass_clean(self):
        cfg = qubit_cfg(control_prob=1.0, n_cycles=200)
        records = run_session(cfg, [], no_attack(2), computational_control(cfg))
        assert all(r.mode == "control" for r in records)
        assert all(r.control.passed for r in records)

    def test_coupled_attack_passes_computational_control(self):
        cfg = qubit_cfg(control_prob=1.0, n_cycles=200)
        records = run_session(cfg, [], cnot_attack(), computational_control(cfg))
        assert all(r.control.passed for r in records)

    def test_deterministic_transcript(self):
        cfg = qubit_cfg(control_prob=0.4, n_cycles=50, seed=99)
        message = [(1, 0)] * 50
        first = run_session(cfg, message, cnot_attack(), computational_control(cfg))
        second = run_session(cfg, message, cnot_attack(), computational_control(cfg))
        assert first == second

    def test_mode_mix_follows_probability(self):
        cfg = qubit_cfg(control_prob=0.5, n_cycles=400, seed=13)
        records = run_session(cfg, [(0, 0)] * 400, no_attack(2), computational_control(cfg))
        n_ctrl = sum(r.mode == "control" for r in records)
        assert 120 < n_ctrl < 280

    def test_zero_cycles_give_empty_transcript(self):
        cfg = qubit_cfg(control_prob=0.25, n_cycles=0)
        assert run_session(cfg, [], cnot_attack(), computational_control(cfg)) == []

    def test_message_exhaustion(self):
        cfg = qubit_cfg(control_prob=0.0, n_cycles=3)
        with pytest.raises(ValueError, match="exhausted"):
            run_session(cfg, [(0, 0)], no_attack(2), computational_control(cfg))

    def test_out_of_range_symbols(self):
        cfg = qubit_cfg(control_prob=0.0, n_cycles=1)
        with pytest.raises(ValueError):
            run_session(cfg, [(2, 0)], no_attack(2), computational_control(cfg))


class TestCycleRecord:
    def test_message_record_shape(self):
        with pytest.raises(ValueError):
            CycleRecord(index=0, mode="message")  # missing symbols

    def test_control_record_shape(self):
        outcome = ControlOutcome("computational", 0, 1, True)
        with pytest.raises(ValueError):
            CycleRecord(index=0, mode="control", control=outcome, alice_symbols=(0, 0))

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            CycleRecord(index=0, mode="other")
