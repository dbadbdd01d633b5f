import math

import numpy as np
import pytest

import oracles
from conftest import rand_state, rand_unitary
from pingpong.protocol import algebra
from pingpong.qstate import (
    Basis,
    BasisError,
    LayoutError,
    Operator,
    StateVector,
    SubsystemLayout,
    apply,
    born_table,
    collapse,
    factor,
    pick,
    running_sum,
    tensor,
)

HT = SubsystemLayout.of(("h", 2), ("t", 2))
RAILS = SubsystemLayout.of(("x", 3), ("y", 3))


def singlet() -> StateVector:
    amps = np.zeros(4, dtype=complex)
    amps[1] = 1 / math.sqrt(2)
    amps[2] = -1 / math.sqrt(2)
    return StateVector(HT, amps)


def rail_vec(*index_weight_pairs) -> np.ndarray:
    v = np.zeros(9, dtype=complex)
    for idx, w in index_weight_pairs:
        v[idx] = w
    return v


# index map for a trinary rail pair: vacuum=0, horizontal=1, vertical=2,
# flat index = 3*x + y
CHI0 = rail_vec((1, 1.0))                                      # |v_x 0_y>
A_VEC = rail_vec((3, 1 / math.sqrt(2)), (2, 1 / math.sqrt(2)))  # (|0_x v_y>+|v_x 1_y>)/sqrt2


class TestLayout:
    def test_total_dimension(self):
        layout = SubsystemLayout.of(("a", 2), ("b", 3), ("c", 5))
        assert layout.dim == 30
        assert layout.dims == (2, 3, 5)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(LayoutError):
            SubsystemLayout.of(("a", 2), ("a", 3))

    def test_unknown_label(self):
        with pytest.raises(LayoutError):
            HT.position("z")


class TestTensor:
    def test_computational_product(self):
        h = StateVector.basis(SubsystemLayout.of(("h", 2)), (0,))
        t = StateVector.basis(SubsystemLayout.of(("t", 2)), (1,))
        out = tensor(h, t)
        assert np.allclose(out.amps, [0, 1, 0, 0])
        assert out.layout == HT

    def test_precoupling_state(self):
        # singlet (x) chi_0 with the ancilla on two rails
        chi = StateVector(RAILS, CHI0)
        out = tensor(singlet(), chi)
        expected = np.kron(singlet().amps, CHI0)
        assert np.allclose(out.amps, expected, atol=1e-15)
        assert abs(out.norm - 1.0) < 1e-12

    def test_norm_multiplicative(self):
        rng = np.random.default_rng(3)
        a = rand_state(rng, SubsystemLayout.of(("a", 3)))
        b = rand_state(rng, SubsystemLayout.of(("b", 4)))
        assert abs(tensor(a, b).norm - 1.0) < 1e-12

    @pytest.mark.parametrize("dim", [2, 5, 32])
    @pytest.mark.parametrize("levels", [1, 2, 9, None], ids=["1", "2", "9", "D"])
    def test_equals_kron_bit_for_bit(self, dim, levels):
        # a pair attached to an ancilla of 1, 2, 9 or D levels
        rng = np.random.default_rng(dim)
        pair = rand_state(rng, SubsystemLayout.of(("h", dim), ("t", dim)))
        ancilla = rand_state(rng, SubsystemLayout.of(("e", levels or dim)))
        assert np.array_equal(tensor(pair, ancilla).amps, np.kron(pair.amps, ancilla.amps))

    def test_label_collision(self):
        a = StateVector.basis(SubsystemLayout.of(("a", 2)), (0,))
        with pytest.raises(LayoutError):
            tensor(a, a)


class TestApply:
    def test_bit_flip_on_travel(self):
        state = StateVector.basis(HT, (0, 1))
        flip = oracles.unitary(np.array([[0, 1], [1, 0]]))
        out = apply(state, flip, "t")
        assert np.allclose(out.amps, StateVector.basis(HT, (0, 0)).amps)

    def test_cnot_coupling_matches_trivial_form(self):
        # CNOT on (t, x) sends singlet (x) |0_x> to the coupled state with
        # probe states |0>, |1>
        layout = HT.concat(SubsystemLayout.of(("x", 2)))
        state = tensor(singlet(), StateVector.basis(SubsystemLayout.of(("x", 2)), (0,)))
        cnot = oracles.unitary(np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]))
        out = apply(state, cnot, ("t", "x"))
        expected = np.zeros(8, dtype=complex)
        expected[0b011] = 1 / math.sqrt(2)   # |0_h 1_t 1_x>
        expected[0b100] = -1 / math.sqrt(2)  # |1_h 0_t 0_x>
        assert np.allclose(out.amps, expected, atol=1e-15)
        assert out.layout == layout

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(17)
        layout = SubsystemLayout.of(("a", 2), ("b", 3), ("c", 2))
        state = rand_state(rng, layout)
        u = oracles.unitary(rand_unitary(rng, 6))
        forth = apply(state, u, ("b", "c"))
        back = apply(forth, u.inverse, ("b", "c"))
        assert np.max(np.abs(back.amps - state.amps)) < 1e-12

    def test_dimension_mismatch(self):
        op = oracles.unitary(np.eye(3))
        with pytest.raises(ValueError):
            apply(singlet(), op, "t")

    def test_unknown_label(self):
        op = oracles.unitary(np.eye(2))
        with pytest.raises(LayoutError):
            apply(singlet(), op, "z")

    def test_targets_out_of_layout_order_rejected(self):
        state = rand_state(np.random.default_rng(2), SubsystemLayout.of(("a", 2), ("b", 3), ("c", 2)))
        op = oracles.unitary(np.eye(4))
        for targets in (("c", "a"), ("a", "c")):
            with pytest.raises(LayoutError, match="not consecutive in layout order") as raised:
                apply(state, op, targets)
            assert str(targets) in str(raised.value)

    def test_untagged_operator_rejected(self):
        op = Operator(2, blocks=[np.eye(2)])
        with pytest.raises(ValueError):
            apply(singlet(), op, "t")


class TestMonomialForm:
    """Monomial operators: built from a permutation and phases, or read off
    a block-diagonal operator whose blocks are monomial."""

    def test_permutation_read_off_without_phases(self):
        cnot = Operator.block_unitary([np.eye(2), [[0, 1], [1, 0]]])
        assert cnot.rows.tolist() == [0, 1, 3, 2]
        assert cnot.phases is None
        assert np.array_equal(cnot.matrix, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])

    def test_phases_kept_when_an_entry_is_not_one(self):
        op = Operator.block_unitary([[[0, 1j], [-1, 0]]])
        assert op.rows.tolist() == [1, 0]
        assert op.phases.tolist() == [-1, 1j]
        assert not op.rows.flags.writeable and not op.phases.flags.writeable

    def test_repeated_row_has_no_monomial_form(self):
        # one nonzero entry per column, but both in row 0
        op = Operator(2, blocks=[[[1, 1], [0, 0]]])
        assert op.rows is None and op.phases is None

    def test_dense_operators_have_no_monomial_form(self):
        rng = np.random.default_rng(3)
        assert oracles.unitary(rand_unitary(rng, 4)).rows is None
        assert Operator(2, blocks=[np.diag([1.0, 0.0])]).rows is None
        hadamard = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        assert oracles.unitary(hadamard).rows is None
        assert Operator.block_unitary([hadamard, np.eye(2)]).rows is None

    def test_inverse_is_inverse_permutation_with_conjugate_phases(self):
        rng = np.random.default_rng(8)
        perm = rng.permutation(6)
        phases = np.exp(2j * np.pi * rng.random(6))
        m = np.zeros((6, 6), dtype=complex)
        m[perm, np.arange(6)] = phases
        op = Operator.monomial(perm, phases)
        assert np.array_equal(op.matrix, m)
        inv = op.inverse
        assert inv is op.inverse  # built once
        assert np.array_equal(inv.rows, np.argsort(perm))
        assert np.array_equal(inv.phases, phases.conj()[np.argsort(perm)])
        assert np.array_equal(inv.matrix, m.conj().T)

    def test_monomial_apply_on_inner_targets(self):
        # the rows move on the target axes brought to the front, in target
        # order; `apply` takes consecutive targets only, so the reordered
        # ones read the transpose route
        rng = np.random.default_rng(21)
        state = rand_state(rng, SubsystemLayout.of(("a", 2), ("b", 3), ("c", 2)))
        perm, phases = rng.permutation(6), np.exp(2j * np.pi * rng.random(6))
        m = np.zeros((6, 6), dtype=complex)
        m[perm, np.arange(6)] = phases
        op = Operator.monomial(perm, phases)
        for targets, route in ((("c", "b"), oracles.transpose_apply), (("b", "a"), oracles.transpose_apply),
                               (("a", "b"), apply)):
            want = oracles.dense_apply(state, m, targets).amps
            assert np.max(np.abs(route(state, op, targets).amps - want)) < 1e-15

    def test_all_one_phases_are_dropped(self):
        assert Operator.monomial([1, 2, 0], np.ones(3)).phases is None

    @pytest.mark.parametrize(
        "rows,phases",
        [([0, 0, 2], None), ([0, 1, 3], None), ([0, 1, 2], [1, 1j, 1.5]), ([0, 1, 2], [1, 1, math.nan])],
        ids=["repeated-row", "row-out-of-range", "phase-off-the-circle", "nan-phase"],
    )
    def test_monomial_rejects_what_is_not_unitary(self, rows, phases):
        with pytest.raises(ValueError):
            Operator.monomial(rows, phases)


def _runs(labels):
    """Every set of consecutive labels, in order."""
    return [labels[i:j] for i in range(len(labels)) for j in range(i + 1, len(labels) + 1)]


def _view_layouts(dim):
    """The session layout (h, t, e) and the rail layout (t, x, y) at `dim`."""
    return SubsystemLayout.of(("h", dim), ("t", dim), ("e", dim)), SubsystemLayout.of(("t", dim), ("x", 3), ("y", 3))


class TestViewRoute:
    """`apply` on consecutive targets acts on a reshape view of the
    amplitudes; it equals the transpose route it replaced
    (`oracles.transpose_apply`) on single states and stacks."""

    @staticmethod
    def _states(rng, layout):
        stack = np.array([rand_state(rng, layout).amps for _ in range(3)])
        return rand_state(rng, layout), StateVector(layout, stack)

    @pytest.mark.parametrize("dim", range(2, 17))
    def test_monomial_operators_match_bit_for_bit(self, dim):
        rng = np.random.default_rng(dim)
        for layout in _view_layouts(dim):
            for targets in _runs(layout.labels):
                n = math.prod(layout.dim_of(lbl) for lbl in targets)
                perm = rng.permutation(n)
                ops = [Operator.monomial(perm), Operator.monomial(perm, np.exp(2j * np.pi * rng.random(n)))]
                if targets == ("t",):
                    ops += [algebra(dim).encoding(*rng.integers(dim, size=2)) for _ in range(3)]
                for state in self._states(rng, layout):
                    for op in ops:
                        want = oracles.transpose_apply(state, op, targets).amps
                        assert np.array_equal(apply(state, op, targets).amps, want), (layout.labels, targets)

    @pytest.mark.parametrize("dim", range(2, 17))
    def test_block_operators_match_within_1e_14(self, dim):
        rng = np.random.default_rng(dim)
        for layout in _view_layouts(dim):
            for targets in _runs(layout.labels):
                n = layout.dim_of(targets[0])
                b = math.prod(layout.dim_of(lbl) for lbl in targets) // n
                if b > 64:  # (h, t, e) at D > 8: D blocks of D^2 levels, checked on the smaller runs
                    continue
                op = Operator.block_unitary(np.array([rand_unitary(rng, b) for _ in range(n)]))
                for state in self._states(rng, layout):
                    for u in (op, op.inverse):
                        want = oracles.transpose_apply(state, u, targets).amps
                        assert np.max(np.abs(apply(state, u, targets).amps - want)) < 1e-14, (layout.labels, targets)


class TestBlockForm:
    """Block-diagonal operators: sum_k |k><k| (x) blocks[k], checked and
    applied block by block, their dense matrix built only on request."""

    @staticmethod
    def _blocks(rng, n, b):
        return np.array([rand_unitary(rng, b) for _ in range(n)])

    def test_matrix_is_built_on_request(self):
        rng = np.random.default_rng(5)
        blocks = self._blocks(rng, 3, 2)
        op = Operator.block_unitary(blocks)
        assert op.dim == 6 and op.rows is None
        assert "matrix" not in op.__dict__
        want = np.zeros((6, 6), dtype=complex)
        for k in range(3):
            want[2 * k:2 * k + 2, 2 * k:2 * k + 2] = blocks[k]
        assert np.array_equal(op.matrix, want)
        assert op.matrix is op.matrix and not op.matrix.flags.writeable

    @pytest.mark.parametrize("targets", [("b", "c"), ("c", "b"), ("b", "a")])
    def test_apply_and_inverse_equal_the_dense_matmul(self, targets):
        # `apply` takes consecutive targets only; reordered ones read the transpose route
        route = apply if targets == ("b", "c") else oracles.transpose_apply
        rng = np.random.default_rng(6)
        state = rand_state(rng, SubsystemLayout.of(("a", 2), ("b", 3), ("c", 2)))
        n = SubsystemLayout.of(("a", 2), ("b", 3), ("c", 2)).dim_of(targets[0])
        op = Operator.block_unitary(self._blocks(rng, n, 6 // n))
        for u in (op, op.inverse):
            want = oracles.dense_apply(state, u.matrix, targets).amps
            assert np.max(np.abs(route(state, u, targets).amps - want)) < 1e-14
        assert np.array_equal(op.inverse.matrix, op.matrix.conj().T)
        back = route(route(state, op, targets), op.inverse, targets)
        assert np.max(np.abs(back.amps - state.amps)) < 1e-12

    def test_non_unitary_block_rejected(self):
        blocks = self._blocks(np.random.default_rng(7), 3, 2)
        blocks[1, 0, 0] += 1e-9
        with pytest.raises(ValueError, match="matrix is not unitary"):
            Operator.block_unitary(blocks)

    def test_one_form_per_operator(self):
        with pytest.raises(ValueError, match="exactly one"):
            Operator(2, blocks=[np.eye(2)], rows=[0, 1])
        with pytest.raises(ValueError, match="exactly one"):
            Operator(2)
        for blocks in (np.zeros((2, 2, 2)), np.zeros((2, 3, 2)), np.zeros((2, 4, 4))):
            with pytest.raises(ValueError, match="shape"):
                Operator(6, blocks=blocks)
        with pytest.raises(ValueError, match="shape"):
            Operator(3, blocks=[np.eye(2)])

    def test_a_dense_unitary_is_one_block(self):
        rng = np.random.default_rng(4)
        u = rand_unitary(rng, 6)
        op = oracles.unitary(u)
        assert op.blocks.shape == (1, 6, 6) and op.dim == 6 and op.kind == "unitary"
        assert np.array_equal(op.matrix, u)
        assert np.array_equal(op.inverse.matrix, u.conj().T)


class TestMeasure:
    """A measurement as the run path takes it: a Born table, a pick from its
    running sum and a collapse onto the picked outcome."""

    def test_deterministic_outcome(self):
        state = StateVector.basis(SubsystemLayout.of(("q", 2)), (0,))
        table = born_table(state, "q", Basis.computational(2))
        assert table.probs.tolist() == pytest.approx([1.0, 0.0], abs=1e-12)
        assert pick(table.probs, running_sum(table.probs), np.random.default_rng(0).random()) == 0
        assert np.allclose(collapse(table, 0).amps, state.amps, atol=1e-12)

    def test_singlet_travel_is_unbiased(self):
        table = born_table(singlet(), "t", Basis.computational(2))
        assert table.probs.tolist() == pytest.approx([0.5, 0.5], abs=1e-12)
        uniforms = np.random.default_rng(0).random(30)
        assert {int(pick(table.probs, running_sum(table.probs), u)) for u in uniforms} == {0, 1}

    def test_singlet_anticorrelation(self):
        first = born_table(singlet(), "h", Basis.computational(2))
        for outcome in range(2):
            post = collapse(first, outcome)
            expected = StateVector.basis(HT, (outcome, 1 - outcome))
            assert abs(np.vdot(post.amps, expected.amps)) == pytest.approx(1.0, abs=1e-12)
            second = born_table(post, "t", Basis.computational(2))
            assert second.probs[1 - outcome] == pytest.approx(1.0, abs=1e-12)
            assert second.probs[outcome] == pytest.approx(0.0, abs=1e-12)

    def test_post_state_renormalized(self):
        rng = np.random.default_rng(5)
        state = rand_state(rng, SubsystemLayout.of(("a", 3), ("b", 2)))
        table = born_table(state, "a", Basis.computational(3))
        for outcome in range(3):
            assert abs(collapse(table, outcome).norm - 1.0) < 1e-12

    def test_non_orthonormal_basis_rejected(self):
        with pytest.raises(BasisError):
            Basis(np.array([[1, 1], [0, 1]], dtype=complex))
        with pytest.raises(BasisError):
            Basis(np.array([[math.nan, 0], [0, 1]], dtype=complex))

    def test_multi_label_measurement(self):
        state = tensor(singlet(), StateVector(RAILS, A_VEC))
        table = born_table(state, ("x", "y"), Basis.computational(9))
        assert np.flatnonzero(table.probs > 1e-12).tolist() == [2, 3]
        assert table.probs[[2, 3]].tolist() == pytest.approx([0.5, 0.5], abs=1e-12)
        assert pick(table.probs, running_sum(table.probs), np.random.default_rng(1).random()) in (2, 3)

    def test_pick_never_lands_without_support(self):
        # a running sum that stops short of 1 or ends on empty outcomes
        short = 1 - 2**-52
        assert pick(np.array([0.5, 0.5, 0.0]), np.array([0.5, short, short]), 1 - 2**-53) == 1
        assert pick(np.array([0.5, 0.0, 0.5]), np.array([0.5, 0.5, 1.0]), 0.5) == 2
        assert pick(np.array([0.5, 0.0, 0.5]), np.array([0.5, 0.5, 1.0]), 0.25) == 0


class TestIdentityBasis:
    """A basis that is exactly the computational one reads its coefficients
    off the amplitudes, with no matrix product."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 16, 32])
    def test_computational_basis_is_the_identity(self, dim):
        assert Basis.computational(dim).is_identity

    def test_other_bases_are_not(self):
        assert not Basis.dual().is_identity
        assert not Basis(np.eye(3)[:, [1, 0, 2]]).is_identity
        assert not Basis(np.diag([1, 1j, 1])).is_identity

    @pytest.mark.parametrize("dim", range(2, 17))
    def test_born_table_equals_the_matmul_route(self, dim):
        rng = np.random.default_rng(dim)
        layout = SubsystemLayout.of(("h", dim), ("t", dim), ("e", 3))
        single = rand_state(rng, layout)
        stack = StateVector(layout, np.stack([rand_state(rng, layout).amps for _ in range(3)]))
        for state in (single, stack):
            for labels, front in (("h", dim), ("t", dim), ("e", 3), (("e", "h"), 3 * dim)):
                table = born_table(state, labels, Basis.computational(front))
                coeffs, probs = oracles.matmul_born_table(state, labels, Basis.computational(front))
                assert np.array_equal(table.coeffs, coeffs) and np.array_equal(table.probs, probs)

    @pytest.mark.parametrize("labels", ["h", "t", ("h", "t")])
    def test_born_table_keeps_no_view_of_the_state(self, labels):
        state = rand_state(np.random.default_rng(2), SubsystemLayout.of(("h", 3), ("t", 3)))
        table = born_table(state, labels, Basis.computational(9 if labels == ("h", "t") else 3))
        assert not np.shares_memory(table.coeffs, state.amps)


class TestHelpers:
    def test_factor_extracts_pure_component(self):
        rng = np.random.default_rng(4)
        a = rand_state(rng, SubsystemLayout.of(("a", 3)))
        b = rand_state(rng, SubsystemLayout.of(("b", 2)))
        joint = tensor(a, b)
        got = factor(joint, "a")
        assert abs(abs(np.vdot(got.amps, a.amps)) - 1.0) < 1e-12

    def test_factor_rejects_entangled_cut(self):
        with pytest.raises(ValueError):
            factor(singlet(), "h")
        with pytest.raises(ValueError), np.errstate(invalid="ignore"):
            factor(StateVector(HT, [math.nan, 0, 0, 0]), "h")

    def test_unitary_tag_validation(self):
        with pytest.raises(ValueError):
            oracles.unitary(np.array([[1, 0], [0, 2]]))
        with pytest.raises(ValueError):
            oracles.unitary(np.array([[math.nan, 0], [0, 1]]))

    @pytest.mark.parametrize("amps", [[1, 1, 0, 0], [math.nan, 0, 0, 0]], ids=["norm-2", "nan"])
    def test_from_amps_requires_unit_norm(self, amps):
        with pytest.raises(ValueError, match="not normalized"):
            StateVector.from_amps(HT, amps)

    def test_apply_rejects_a_nan_norm(self):
        with pytest.raises(ArithmeticError, match="drifted the norm"):
            apply(StateVector(HT, [math.nan, 0, 0, 0]), oracles.unitary(np.eye(2)), "t")

    @pytest.mark.parametrize(
        "op",
        [
            oracles.unitary(np.eye(2)),
            Operator.monomial(np.array([1, 0])),
            Operator.block_unitary(np.array([[[1, 1], [1, -1]]]) / math.sqrt(2)),
        ],
        ids=["dense", "monomial", "block"],
    )
    @pytest.mark.parametrize("at", [0, 2])
    def test_apply_rejects_a_nan_amplitude_in_every_form(self, op, at):
        """A NaN among unit-norm amplitudes fails the check whichever way the
        operator moves it."""
        amps = np.array([0.6, 0, 0.8, 0], dtype=complex)
        amps[at] = complex(math.nan, 0)
        with pytest.raises(ArithmeticError, match="drifted the norm"):
            apply(StateVector(HT, amps), op, "t")

    def test_norm_is_the_euclidean_norm(self):
        rng = np.random.default_rng(6)
        amps = rng.normal(size=32768) + 1j * rng.normal(size=32768)
        state = StateVector(SubsystemLayout.of(("a", 32768)), amps)
        assert state.norm == pytest.approx(np.linalg.norm(amps), rel=1e-14)
