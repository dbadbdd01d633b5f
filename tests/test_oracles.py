"""Pin the oracles' outputs before trusting them elsewhere."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import qubit_cfg, qudit_cfg, rand_state, rand_unitary
from pingpong.attacks import H_POL, V_POL, VACUUM, chi_states, probe_states
from pingpong.control import computational_control, two_basis_control
from pingpong.protocol import make_initial_state
from pingpong.qstate import BasisError, StateVector, SubsystemLayout

HT = SubsystemLayout.of(("h", 2), ("t", 2))
RAILS = SubsystemLayout.of(("x", 3), ("y", 3))
CIRCUIT = SubsystemLayout.of(("t", 2), ("x", 3), ("y", 3))


class TestInterceptResendOracle:
    def test_qubit_detection_probability(self):
        assert oracles.intercept_resend_pdet(2, "qubit_psi_minus") == Fraction(1, 2)

    @pytest.mark.parametrize("dim,expected", [
        (2, Fraction(1, 2)),
        (3, Fraction(2, 3)),
        (5, Fraction(4, 5)),
    ])
    def test_qudit_detection_probability(self, dim, expected):
        assert oracles.intercept_resend_pdet(dim, "qudit_beta00") == expected

    @pytest.mark.parametrize("dim,kind", [
        (2, "qubit_psi_minus"),
        (2, "qudit_beta00"),
        (3, "qudit_beta00"),
        (5, "qudit_beta00"),
    ])
    def test_symbol_statistics(self, dim, kind):
        mu_acc, nu_acc = oracles.intercept_resend_symbol_stats(dim, kind)
        assert mu_acc == Fraction(1)
        assert nu_acc == Fraction(1, dim)

    def test_branch_probabilities_sum_to_one(self):
        total = sum(p for p, *_ in oracles._branches_after_interception(3, "qudit_beta00"))
        assert total == Fraction(1)

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            oracles.intercept_resend_pdet(3, "qubit_psi_minus")
        with pytest.raises(ValueError):
            oracles.intercept_resend_pdet(2, "other")


class TestBellOverlapOracle:
    def test_collapsed_pair_never_matches(self):
        for pair in ((0, 0), (0, 1), (1, 0), (1, 1)):
            table = oracles.bell_overlap_squared(2, pair)
            assert max(table.values()) == Fraction(1, 2)
            assert sum(table.values()) == Fraction(1)

    def test_qutrit_spread(self):
        table = oracles.bell_overlap_squared(3, (0, 2))
        hits = {key for key, value in table.items() if value > 0}
        assert hits == {(2, 0), (2, 1), (2, 2)}


class TestWilsonOracle:
    def test_zero_failure_interval(self):
        low, high = oracles.wilson_interval(0, 100)
        assert low == pytest.approx(0.0, abs=1e-12)
        assert high == pytest.approx(0.0370, abs=5e-4)


class TestPartialTrace:
    def test_singlet_marginal_is_maximally_mixed(self):
        singlet = make_initial_state(qubit_cfg())
        assert np.allclose(oracles.partial_trace(singlet, "h"), np.eye(2) / 2, atol=1e-12)

    def test_coupled_control_state_marginal(self):
        # (|0_h 1_t>|d> + |1_h 0_t>|a>)/sqrt2 traced over the rails
        a_state, d_state = probe_states()
        amps = (
            np.kron(StateVector.basis(HT, (0, 1)).amps, d_state.amps)
            + np.kron(StateVector.basis(HT, (1, 0)).amps, a_state.amps)
        ) / math.sqrt(2)
        rho = oracles.partial_trace(StateVector(HT.concat(RAILS), amps), ("h", "t"))
        assert np.allclose(rho, np.diag([0, 0.5, 0.5, 0]), atol=1e-12)

    def test_full_keep_is_projector_onto_state(self):
        state = make_initial_state(qubit_cfg())
        rho = oracles.partial_trace(state, ("h", "t"))
        assert np.allclose(rho, np.outer(state.amps, state.amps.conj()), atol=1e-12)
        assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)

    def test_trace_and_hermiticity(self):
        rng = np.random.default_rng(9)
        state = rand_state(rng, SubsystemLayout.of(("a", 2), ("b", 3)))
        rho = oracles.partial_trace(state, "b")
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(rho, rho.conj().T, atol=1e-12)
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-12

    def test_trace_distance_of_orthogonal_pure_states(self):
        rho0 = oracles.partial_trace(StateVector.basis(HT, (0, 0)), ("h", "t"))
        rho1 = oracles.partial_trace(StateVector.basis(HT, (1, 1)), ("h", "t"))
        assert oracles.trace_distance(rho0, rho1) == pytest.approx(1.0, abs=1e-12)


class TestCompleteIsometry:
    def test_identity_case(self):
        layout = SubsystemLayout.of(("q", 2))
        basis = [StateVector.basis(layout, (k,)) for k in range(2)]
        op = oracles.complete_isometry(basis, basis)
        assert np.allclose(op.matrix, np.eye(2), atol=1e-12)

    def test_circuit_mappings_give_unitary(self):
        domain, image = _circuit_mappings()
        op = oracles.complete_isometry(domain, image)
        dev = np.max(np.abs(op.matrix.conj().T @ op.matrix - np.eye(18)))
        assert dev < 1e-12

    def test_extends_partial_isometry(self):
        domain, image = _circuit_mappings()
        op = oracles.complete_isometry(domain, image)
        for d, i in zip(domain, image):
            assert np.linalg.norm(op.matrix @ d.amps - i.amps) < 1e-12

    def test_non_orthonormal_rejected(self):
        layout = SubsystemLayout.of(("q", 2))
        skew = StateVector(layout, np.array([1, 1]) / math.sqrt(2))
        zero = StateVector.basis(layout, (0,))
        with pytest.raises(BasisError):
            oracles.complete_isometry([zero, skew], [zero, skew])

    def test_length_mismatch_rejected(self):
        layout = SubsystemLayout.of(("q", 2))
        zero = StateVector.basis(layout, (0,))
        with pytest.raises(ValueError):
            oracles.complete_isometry([zero], [])


def _circuit_mappings():
    """Pavicic's rail mapping: chi_0 -> a, d and chi_1 -> d, a by travel level."""
    (chi0, chi1), (a_state, d_state) = chi_states(), probe_states()

    def lift(t, anc):
        return StateVector(CIRCUIT, np.kron(np.eye(2)[t], anc.amps))

    domain = [lift(0, chi0), lift(1, chi0), lift(0, chi1), lift(1, chi1)]
    image = [lift(0, a_state), lift(1, d_state), lift(0, d_state), lift(1, a_state)]
    return domain, image


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_completion_extends_partial_isometry(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(3, 9))
    k = int(rng.integers(1, dim))
    layout = SubsystemLayout.of(("q", dim))
    dom_mat = rand_unitary(rng, dim)[:, :k]
    img_mat = rand_unitary(rng, dim)[:, :k]
    domain = [StateVector(layout, dom_mat[:, j]) for j in range(k)]
    image = [StateVector(layout, img_mat[:, j]) for j in range(k)]
    op = oracles.complete_isometry(domain, image)
    assert np.max(np.abs(op.matrix.conj().T @ op.matrix - np.eye(dim))) < 1e-12
    for d, i in zip(domain, image):
        assert np.linalg.norm(op.matrix @ d.amps - i.amps) < 1e-12


class TestCpbs:
    def test_example_rows(self):
        op = oracles.cpbs()
        src = StateVector.basis(CIRCUIT, (0, VACUUM, H_POL))
        dst = StateVector.basis(CIRCUIT, (0, H_POL, VACUUM))
        assert np.allclose(op.matrix @ src.amps, dst.amps, atol=1e-15)
        fixed = StateVector.basis(CIRCUIT, (1, VACUUM, H_POL))
        assert np.allclose(op.matrix @ fixed.amps, fixed.amps, atol=1e-15)

    def test_all_eight_rows(self):
        op = oracles.cpbs()
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
            out = op.matrix @ StateVector.basis(CIRCUIT, src).amps
            assert np.linalg.norm(out - StateVector.basis(CIRCUIT, dst).amps) < 1e-12

    def test_involution_on_specified_states(self):
        op = oracles.cpbs()
        square = op.matrix @ op.matrix
        for t in range(2):
            for x, y in ((VACUUM, H_POL), (H_POL, VACUUM), (VACUUM, V_POL), (V_POL, VACUUM)):
                v = StateVector.basis(CIRCUIT, (t, x, y)).amps
                assert np.linalg.norm(square @ v - v) < 1e-12


class TestFailProjector:
    @pytest.mark.parametrize("make_cfg", [qubit_cfg, lambda: qudit_cfg(3)])
    def test_annihilates_legitimate_state(self, make_cfg):
        cfg = make_cfg()
        init = make_initial_state(cfg)
        for entry in computational_control(cfg).bases:
            proj = oracles.fail_projector(entry, cfg.dim)
            assert np.linalg.norm(proj @ init.amps) < 1e-12

    def test_dual_basis_projector_annihilates_singlet(self):
        cfg = qubit_cfg()
        init = make_initial_state(cfg)
        for entry in two_basis_control(cfg).bases:
            proj = oracles.fail_projector(entry, 2)
            assert np.linalg.norm(proj @ init.amps) < 1e-12

    def test_is_projector(self):
        entry = two_basis_control(qubit_cfg()).bases[1]
        proj = oracles.fail_projector(entry, 2)
        assert np.max(np.abs(proj - proj.conj().T)) < 1e-12
        assert np.max(np.abs(proj @ proj - proj)) < 1e-12
