import math
import os
import subprocess
import sys

import numpy as np
import pytest

import oracles
import pingpong
from conftest import all_pairs, qubit_cfg, qudit_cfg
from pingpong.attacks import cnot_attack, intercept_resend, no_attack, qudit_shift_attack
from pingpong.control import computational_control
from pingpong.protocol import (
    HOME,
    TRAVEL,
    CoherenceBreakError,
    DrawEdge,
    MAX_CYCLES,
    MAX_DIM,
    QUBIT_SINGLET,
    QUDIT_CORRELATED,
    MeasureEdge,
    ProtocolConfig,
    UnitaryEdge,
    _bell_overlaps,
    _encoding_operator,
    algebra,
    bell_states,
    bob_decode,
    deferred,
    dense_encode,
    make_initial_state,
    pair_layout,
)
from pingpong.session import run_session, run_sessions
from pingpong.qstate import Basis, StateVector, SubsystemLayout


class TestConfig:
    @pytest.mark.parametrize("field", ["dim", "n_cycles", "seed"])
    @pytest.mark.parametrize("value", [2.5, True, "3"])
    def test_integer_fields_are_not_truncated(self, field, value):
        params = dict(dim=3, control_prob=0.5, n_cycles=4, seed=1, initial_state_kind=QUDIT_CORRELATED)
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
            ProtocolConfig(**{**params, field: value})

    @pytest.mark.parametrize("value", [True, "0.5", None])
    def test_control_prob_must_be_a_number(self, value):
        params = dict(dim=3, n_cycles=4, seed=1, initial_state_kind=QUDIT_CORRELATED)
        with pytest.raises(ValueError, match=f"^control_prob must be a number, got {value!r}$"):
            ProtocolConfig(control_prob=value, **params)

    def test_integral_floats_become_integers(self):
        cfg = ProtocolConfig(dim=3.0, control_prob=0.5, n_cycles=1e1, seed=np.int64(1),
                             initial_state_kind=QUDIT_CORRELATED)
        assert (cfg.dim, cfg.n_cycles, cfg.seed) == (3, 10, 1)
        assert all(type(value) is int for value in (cfg.dim, cfg.n_cycles, cfg.seed))

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


def weyl(dim):
    """The shift X = X^1 Z^0 and phase Z = X^0 Z^1 as matrices, and omega."""
    alg = algebra(dim)
    return alg.encoding(1, 0).matrix, alg.encoding(0, 1).matrix, np.exp(2j * np.pi / dim)


class TestAlgebra:
    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_cyclic_orders(self, dim):
        shift, phase, _ = weyl(dim)
        eye = np.eye(dim)
        assert np.max(np.abs(np.linalg.matrix_power(shift, dim) - eye)) < 1e-12
        assert np.max(np.abs(np.linalg.matrix_power(phase, dim) - eye)) < 1e-12

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_commutation_phase(self, dim):
        shift, phase, omega = weyl(dim)
        zx = phase @ shift
        xz = shift @ phase
        assert np.max(np.abs(zx - omega * xz)) < 1e-12

    def test_symbol_range(self):
        with pytest.raises(ValueError):
            algebra(3).encoding(3, 0)
        with pytest.raises(ValueError, match="out of range for dim 4"):  # dense_encode reads D off the state
            dense_encode(make_initial_state(qudit_cfg(4)), 4, 0)

    @pytest.mark.parametrize("dim", range(2, MAX_DIM + 1))
    def test_closed_form_encodings_match_matrix_power(self, dim):
        want = oracles.matrix_power_encodings(dim)
        # the uncached builder: every D's encodings together would hold ~100 MB
        for mu, nu in all_pairs(dim):
            got = _encoding_operator.__wrapped__(dim, mu, nu)
            assert np.max(np.abs(got.matrix - want[mu, nu])) < 1e-12
            assert np.array_equal(got.rows, (np.arange(dim) + mu) % dim)
            assert (got.phases is None) == (nu == 0)

    def test_shift_and_phase_are_the_unit_encodings(self):
        shift, phase, omega = weyl(5)
        assert np.array_equal(shift, np.roll(np.eye(5), 1, axis=0))  # X|k> = |k + 1>
        assert np.max(np.abs(phase - np.diag(omega ** np.arange(5)))) < 1e-12  # Z|k> = omega^k |k>


class TestDenseEncode:
    def test_identity_symbols(self):
        init = make_initial_state(qubit_cfg())
        out = dense_encode(init, 0, 0)
        assert np.allclose(out.amps, init.amps, atol=1e-15)

    def test_phase_flip_gives_minus_psi_plus(self):
        init = make_initial_state(qubit_cfg())
        out = dense_encode(init, 0, 1)
        minus_psi_plus = -np.array([0, 1, 1, 0]) / math.sqrt(2)
        assert np.max(np.abs(out.amps - minus_psi_plus)) < 1e-12

    def test_qutrit_encoding(self):
        init = make_initial_state(qudit_cfg(3))
        out = dense_encode(init, 1, 2)
        omega = np.exp(2j * np.pi / 3)
        expected = np.zeros(9, dtype=complex)
        for k in range(3):
            expected[k * 3 + (k + 1) % 3] = omega ** (2 * k) / math.sqrt(3)
        assert np.max(np.abs(out.amps - expected)) < 1e-12


    @pytest.mark.parametrize("dim", range(2, 17))
    def test_view_route_matches_the_transpose_route_bit_for_bit(self, dim):
        """On the pair, the session layout (h, t, e) and the rail layout
        (t, x, y), for one symbol pair and for a stack of them."""
        rng = np.random.default_rng(dim)
        layouts = (pair_layout(dim), SubsystemLayout.of((HOME, dim), (TRAVEL, dim), ("e", 3)),
                   SubsystemLayout.of((TRAVEL, dim), ("x", 3), ("y", 3)))
        for layout in layouts:
            v = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
            state = StateVector(layout, v / np.linalg.norm(v))
            mu, nu = rng.integers(dim, size=(2, 5))
            for symbols in ((mu[0], nu[0]), (mu, nu)):
                want = oracles.transpose_dense_encode(state, *symbols, dim).amps
                assert np.array_equal(dense_encode(state, *symbols).amps, want), layout.labels

class TestBobDecode:
    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 8, 16, MAX_DIM])
    def test_roundtrip_exhaustive(self, dim):
        cfg = qudit_cfg(dim)
        init = make_initial_state(cfg)
        for mu, nu in all_pairs(dim):
            assert bob_decode(dense_encode(init, mu, nu), cfg) == (mu, nu)

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
        # a NaN overlap matches nothing; it must not decode to index 0
        with pytest.raises(CoherenceBreakError):
            bob_decode(StateVector(pair_layout(2), [math.nan] * 4), cfg)

    @pytest.mark.parametrize("dim", range(2, MAX_DIM + 1))
    def test_bell_matrix_matches_dense_encodings(self, dim):
        got = bell_states(qudit_cfg(dim)).matrix
        want = oracles.dense_encode_bell_matrix(dim, QUDIT_CORRELATED)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_qubit_bell_matrix_matches_dense_encodings(self):
        want = oracles.dense_encode_bell_matrix(2, QUBIT_SINGLET)
        assert np.max(np.abs(bell_states(qubit_cfg()).matrix - want)) < 1e-12

    CFGS = pytest.mark.parametrize(
        "cfg", [qubit_cfg(), qudit_cfg(3), qudit_cfg(8), qudit_cfg(MAX_DIM)], ids=["qubit", "d3", "d8", "d32"]
    )

    @CFGS
    def test_overlaps_match_dense_encodings(self, cfg):
        # random states, then a few encoded Bell states, as one stack and one at a time
        dim, kind = cfg.dim, cfg.initial_state_kind
        bell = oracles.dense_encode_bell_matrix(dim, kind)
        rng = np.random.default_rng(5)
        amps = rng.normal(size=(6, dim**2)) + 1j * rng.normal(size=(6, dim**2))
        amps = np.vstack([amps / np.linalg.norm(amps, axis=1, keepdims=True), bell[:, [0, dim**2 // 2, -1]].T])
        want = np.abs(amps @ bell.conj())
        assert np.max(np.abs(_bell_overlaps(amps, dim, kind) - want)) < 1e-12
        for row, want_row in zip(amps, want):
            assert np.max(np.abs(_bell_overlaps(row[None], dim, kind)[0] - want_row)) < 1e-12

    @CFGS
    def test_each_row_of_a_stack_decodes_as_alone(self, cfg):
        dim, layout = cfg.dim, pair_layout(cfg.dim)
        rng = np.random.default_rng(6)
        codes = rng.integers(dim, size=(4, 2))
        encoded = dense_encode(make_initial_state(cfg), codes[:, 0], codes[:, 1]).amps
        noise = rng.normal(size=(2, dim**2)) + 1j * rng.normal(size=(2, dim**2))
        noise /= np.linalg.norm(noise, axis=1, keepdims=True)
        stack = np.vstack([encoded[:2], noise[:1], encoded[2:], np.full((1, dim**2), np.nan), noise[1:]])
        found = bob_decode(StateVector(layout, stack), cfg)
        assert len(found) == len(stack)
        assert [found[i] for i in (0, 1, 3, 4)] == [tuple(code) for code in codes.tolist()]
        for row, got in zip(stack, found):
            try:
                alone = bob_decode(StateVector(layout, row), cfg)
            except CoherenceBreakError as exc:
                assert isinstance(got, CoherenceBreakError) and str(got) == str(exc)
            else:
                assert got == alone

    def test_first_decode_at_max_dim_allocates_under_a_mebibyte(self):
        # in a fresh process, so the decode builds what it caches; a dense
        # D^2 x D^2 decoder would be 16 MiB at D=32
        code = (
            "import tracemalloc\n"
            "from pingpong.protocol import MAX_DIM, ProtocolConfig, bob_decode, dense_encode, make_initial_state\n"
            "cfg = ProtocolConfig(MAX_DIM, 0.0, 1, 0, 'qudit_beta00')\n"
            "state = dense_encode(make_initial_state(cfg), 3, 5)\n"
            "tracemalloc.start()\n"
            "print(bob_decode(state, cfg), tracemalloc.get_traced_memory()[1])\n"
        )
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(pingpong.__file__))}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        found, peak = done.stdout.rsplit(maxsplit=1)
        assert found == "(3, 5)"
        assert int(peak) < 2**20

    def test_bell_basis_orthonormal(self):
        for cfg in (qubit_cfg(), qudit_cfg(3), qudit_cfg(5)):
            mat = bell_states(cfg).matrix
            gram = mat.conj().T @ mat
            assert np.max(np.abs(gram - np.eye(cfg.dim**2))) < 1e-12

    def test_global_phase_invariance(self):
        cfg = qudit_cfg(3)
        state = dense_encode(make_initial_state(cfg), 2, 1)
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
        transcript = run_session(cfg, message, no_attack(2), computational_control(cfg))
        assert not transcript.control.any() and len(transcript) == 8
        assert np.array_equal(transcript.symbols, message)
        assert np.array_equal(transcript.decoded, message)

    def test_all_control_cycles_pass_clean(self):
        cfg = qubit_cfg(control_prob=1.0, n_cycles=200)
        transcript = run_session(cfg, [], no_attack(2), computational_control(cfg))
        assert transcript.control.all() and len(transcript) == 200
        assert transcript.passed.all()

    def test_coupled_attack_passes_computational_control(self):
        cfg = qubit_cfg(control_prob=1.0, n_cycles=200)
        transcript = run_session(cfg, [], cnot_attack(), computational_control(cfg))
        assert transcript.passed.all()

    def test_deterministic_transcript(self):
        cfg = qubit_cfg(control_prob=0.4, n_cycles=50, seed=99)
        message = [(1, 0)] * 50
        first = run_session(cfg, message, cnot_attack(), computational_control(cfg))
        second = run_session(cfg, message, cnot_attack(), computational_control(cfg))
        assert oracles.records(first) == oracles.records(second)

    def test_mode_mix_follows_probability(self):
        cfg = qubit_cfg(control_prob=0.5, n_cycles=400, seed=13)
        transcript = run_session(cfg, [(0, 0)] * 400, no_attack(2), computational_control(cfg))
        assert 120 < transcript.control.sum() < 280

    def test_zero_cycles_give_empty_transcript(self):
        cfg = qubit_cfg(control_prob=0.25, n_cycles=0)
        assert len(run_session(cfg, [], cnot_attack(), computational_control(cfg))) == 0

    def test_message_exhaustion(self):
        cfg = qubit_cfg(control_prob=0.0, n_cycles=3)
        with pytest.raises(ValueError, match="exhausted"):
            run_session(cfg, [(0, 0)], no_attack(2), computational_control(cfg))

    def test_out_of_range_symbols(self):
        cfg = qubit_cfg(control_prob=0.0, n_cycles=1)
        with pytest.raises(ValueError):
            run_session(cfg, [(2, 0)], no_attack(2), computational_control(cfg))

    @pytest.mark.parametrize("message", [[(1.9, 0.2)], [(0, 0), (1, 0.5)], [("1", "0")], [(True, False)]],
                             ids=["fractional", "one-fractional", "strings", "bools"])
    def test_symbols_that_are_not_integers_are_rejected(self, message):
        cfg = qubit_cfg(control_prob=0.0, n_cycles=len(message))
        with pytest.raises(ValueError, match="message symbols must be integers"):
            run_session(cfg, message, no_attack(2), computational_control(cfg))

    @pytest.mark.parametrize("n_messages", [0, 1, 3])
    def test_one_message_per_session(self, n_messages):
        cfgs = [qubit_cfg(control_prob=0.0, n_cycles=2, seed=s) for s in (1, 2)]
        messages, eves, controls = [[(0, 0)] * 2] * 2, [no_attack(2)] * 2, [computational_control(cfgs[0])] * 2
        with pytest.raises(ValueError, match=f"one message per session, got {n_messages} for 2"):
            list(run_sessions(cfgs, messages[:1] * n_messages, eves, controls))
        for handles in ([eves[:1] * n_messages, controls], [eves, controls[:1] * n_messages]):
            with pytest.raises(ValueError):  # one attack and one control mode per session too
                list(run_sessions(cfgs, messages, *handles))

    def test_handles_of_another_dimension_are_rejected(self):
        cfg, other = qubit_cfg(n_cycles=4), qudit_cfg(3, n_cycles=4)
        mismatch = "^dimension mismatch: attack {}, control {}, config {}$"
        for eve, control, want in [
            (qudit_shift_attack(3), computational_control(cfg), (3, 2, 2)),
            (no_attack(2), computational_control(other), (2, 3, 2)),
        ]:
            with pytest.raises(ValueError, match=mismatch.format(*want)):
                run_session(cfg, [(0, 0)] * 4, eve, control)
        with pytest.raises(ValueError, match="dimension mismatch: attack 2, control 2, config 3"):
            list(run_sessions([cfg, other], [[(0, 0)] * 4] * 2, [no_attack(2)] * 2, [computational_control(cfg)] * 2))


class TestDeferred:
    KEEP = (HOME, TRAVEL)

    @staticmethod
    def _measure(*labels):
        return MeasureEdge(labels, Basis.computational(2), "m")

    def test_intercept_resend_drops_its_genuine_measurement(self):
        leg = intercept_resend(3).forward_leg
        assert [edge.key for edge in leg if isinstance(edge, MeasureEdge)] == ["genuine"]
        assert deferred(leg, self.KEEP) == (leg[0], leg[2])

    @pytest.mark.parametrize("labels", [(HOME,), (TRAVEL,), ("e", TRAVEL)])
    def test_measurement_meeting_keep_is_kept(self, labels):
        leg = (self._measure(*labels),)
        assert deferred(leg, self.KEEP) == leg

    @pytest.mark.parametrize("later", [
        UnitaryEdge(algebra(2).encoding(1, 0), ("e",)),
        DrawEdge("f", (None, algebra(2).encoding(1, 0)), ("e",)),
    ], ids=["unitary", "draw"])
    def test_measurement_acted_on_later_is_kept(self, later):
        leg = (self._measure("e"), later)
        assert deferred(leg, self.KEEP) == leg

    def test_measurement_measured_again_is_kept(self):
        # the later measurement, which nothing follows, is the one dropped
        first, again = self._measure("e"), MeasureEdge(("e",), Basis.dual(), "again")
        assert deferred((first, again), self.KEEP) == (first,)

    def test_later_edge_on_another_register_does_not_keep_it(self):
        first, later = self._measure("e"), UnitaryEdge(algebra(2).encoding(1, 0), ("x",))
        assert deferred((first, later), self.KEEP) == (later,)

    @pytest.mark.parametrize("eve", [cnot_attack(), qudit_shift_attack(3), no_attack(2)],
                             ids=lambda eve: eve.name)
    def test_leg_without_measurements_comes_back_equal(self, eve):
        leg = eve.forward_leg
        assert deferred(leg, self.KEEP) == leg
