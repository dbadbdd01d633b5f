"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np

import oracles
from oracles import draw_message, score_session
from conftest import SEEDS, all_pairs, coupling_zoo, paper_matrix, qubit_cfg, qudit_cfg, rand_state, rand_unitary
from pingpong.attacks import (
    H_POL,
    V_POL,
    VACUUM,
    StateFamily,
    chi_states,
    cnot_attack,
    intercept_resend,
    pavicic_circuit,
    probe_states,
    qudit_shift_attack,
    validate_coupling,
)
from pingpong.attacks import from_name as attack_from_name
from pingpong.control import (
    analytic_pdet,
    computational_control,
    empirical_pdet,
    two_basis_control,
)
from pingpong.control import from_name as control_from_name
from pingpong.protocol import dense_encode, make_initial_state
from pingpong.session import run_session
from pingpong.qstate import (
    Basis,
    Operator,
    StateVector,
    SubsystemLayout,
    apply,
    born_table,
    pick,
    running_sum,
    tensor,
)


def _check(criterion: int, label: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {label}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def test_criterion_1_zero_detection_under_single_basis_control():
    start = time.perf_counter()
    for eve, base_cfg in coupling_zoo(seed=5):
        cfg = replace(base_cfg, control_prob=1.0, seed=101)
        control = computational_control(cfg)
        analytic = analytic_pdet(eve, control, cfg)
        report = empirical_pdet(eve, control, cfg, 100_000)
        _check(
            1,
            f"{eve.name} (D={eve.dim}) invisible to computational control",
            abs(analytic) < 1e-12 and report.failures == 0,
            f"analytic={analytic:.2e}, failures={report.failures}/100000",
        )
    elapsed = time.perf_counter() - start
    _check(1, "runtime within 30 s", elapsed < 30.0, f"{elapsed:.2f} s")


def test_criterion_2_eve_recovers_half_the_message():
    for eve, base_cfg in coupling_zoo(seed=5):
        cfg = replace(base_cfg, control_prob=0.0, n_cycles=10_000, seed=202)
        message = draw_message(cfg.dim, cfg.n_cycles, cfg.seed)
        transcript = run_session(cfg, message, eve, computational_control(cfg))
        stats = score_session(transcript, cfg.dim, cfg.seed)
        chance = 1.0 / cfg.dim
        _check(
            2,
            f"{eve.name} (D={eve.dim}) shift symbol exact, phase symbol at chance",
            stats["eve_mu_accuracy"] == 1.0
            and abs(stats["eve_nu_accuracy"] - chance) <= 0.02,
            f"mu={stats['eve_mu_accuracy']}, nu={stats['eve_nu_accuracy']:.4f} vs {chance:.4f}",
        )


def test_criterion_3_message_transparency_exhaustive():
    zoo = coupling_zoo(seed=5) + [(qudit_shift_attack(4), qudit_cfg(4))]
    for eve, base_cfg in zoo:
        pairs = all_pairs(base_cfg.dim)
        cfg = replace(base_cfg, control_prob=0.0, n_cycles=len(pairs), seed=303)
        transcript = run_session(cfg, pairs, eve, computational_control(cfg))
        intact = np.array_equal(transcript.decoded, pairs)
        _check(
            3,
            f"{eve.name} (D={eve.dim}) transparent on all {len(pairs)} symbol pairs",
            intact,
        )


def test_criterion_4_dual_basis_detects_at_one_quarter():
    cfg = qubit_cfg(control_prob=1.0, seed=404)
    control = two_basis_control(cfg)
    results = {}
    for eve in (cnot_attack(), pavicic_circuit()):
        analytic = analytic_pdet(eve, control, cfg)
        report = empirical_pdet(eve, control, cfg, 100_000)
        results[eve.name] = (analytic, report)
        _check(
            4,
            f"{eve.name} caught by two-basis control at 1/4",
            abs(analytic - 0.25) < 1e-12
            and abs(report.p_empirical - 0.25) < 0.006
            and report.ci_low <= 0.25 <= report.ci_high,
            f"analytic={analytic:.15f}, empirical={report.p_empirical:.5f}, "
            f"CI=({report.ci_low:.5f}, {report.ci_high:.5f})",
        )
    gate, circuit = results["cnot"], results["pavicic"]
    _check(
        4,
        "circuit attack reproduces the gate attack's numbers",
        abs(gate[0] - circuit[0]) < 1e-12 and gate[1].failures == circuit[1].failures,
        f"failures {gate[1].failures} vs {circuit[1].failures}",
    )


def test_criterion_5_circuit_truth_tables():
    layout = SubsystemLayout.of(("t", 2), ("x", 3), ("y", 3))
    beam_splitter = oracles.cpbs().matrix
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
    worst = max(
        np.linalg.norm(
            beam_splitter @ StateVector.basis(layout, src).amps
            - StateVector.basis(layout, dst).amps
        )
        for src, dst in rows.items()
    )
    _check(5, "all 8 beam-splitter rows exact", worst < 1e-12, f"worst residual {worst:.2e}")

    eve = pavicic_circuit()
    chi0, chi1 = chi_states()
    a_state, d_state = probe_states()
    mapping = [(0, chi0, a_state), (1, chi0, d_state), (0, chi1, d_state), (1, chi1, a_state)]
    worst = 0.0
    for t, src_anc, dst_anc in mapping:
        travel = np.zeros(2)
        travel[t] = 1.0
        out = eve.coupling.matrix @ np.kron(travel, src_anc.amps)
        worst = max(worst, float(np.linalg.norm(out - np.kron(travel, dst_anc.amps))))
    _check(5, "all 4 circuit-unitary rows exact", worst < 1e-12, f"worst residual {worst:.2e}")

    cfg = qubit_cfg()
    init = make_initial_state(cfg)
    for label, (mu, nu), target_anc, expected_symbol in (
        ("phase flip", (0, 1), chi0, 0),
        ("bit flip", (1, 0), chi1, 1),
    ):
        state = oracles.forward(eve, eve.attach(init), None, {})
        state = dense_encode(state, mu, nu)
        state = oracles.backward(eve, state, None, {})
        expected = tensor(dense_encode(init, mu, nu), target_anc)
        residual = float(np.max(np.abs(state.amps - expected.amps)))
        mu_hat, _ = oracles.readout(eve, state, np.random.default_rng(0), {})
        _check(
            5,
            f"{label} end state and ancilla outcome",
            residual < 1e-12 and mu_hat == expected_symbol,
            f"residual {residual:.2e}, readout {mu_hat}",
        )


def test_criterion_6_circuit_and_gate_attacks_equivalent():
    cfg = qubit_cfg()
    init = make_initial_state(cfg)
    worst = 0.0
    for mu, nu in all_pairs(2):
        reduced = []
        for eve in (pavicic_circuit(), cnot_attack()):
            state = oracles.forward(eve, eve.attach(init), None, {})
            state = dense_encode(state, mu, nu)
            state = oracles.backward(eve, state, None, {})
            reduced.append(oracles.partial_trace(state, ("h", "t")))
        worst = max(worst, oracles.trace_distance(reduced[0], reduced[1]))
    _check(6, "post-decoupling states identical for all 4 symbol pairs", worst < 1e-12,
           f"worst trace distance {worst:.2e}")


def test_criterion_7_intercept_resend_oracle():
    expected_qubit = oracles.intercept_resend_pdet(2, "qubit_psi_minus")
    expected_qutrit = oracles.intercept_resend_pdet(3, "qudit_beta00")
    _check(
        7,
        "enumeration oracle pins 1/2 and 2/3",
        expected_qubit == Fraction(1, 2) and expected_qutrit == Fraction(2, 3),
    )

    cfg2 = qubit_cfg(seed=707)
    cfg3 = qudit_cfg(3, seed=707)
    for cfg, expected in ((cfg2, expected_qubit), (cfg3, expected_qutrit)):
        eve = intercept_resend(cfg.dim)
        control = computational_control(cfg)
        analytic = analytic_pdet(eve, control, cfg)
        report = empirical_pdet(eve, control, cfg, 100_000)
        _check(
            7,
            f"simulator matches oracle at D={cfg.dim}",
            abs(analytic - float(expected)) < 1e-12
            and abs(report.p_empirical - float(expected)) < 0.006,
            f"analytic={analytic:.12f}, empirical={report.p_empirical:.5f}, oracle={float(expected):.12f}",
        )


def test_criterion_8_property_suites_across_seeds():
    for seed in SEEDS:
        rng = np.random.default_rng(seed)

        # unitarity and shift residuals across the attack zoo
        zoo_ok = True
        for eve, _ in coupling_zoo(seed):
            q = eve.coupling.matrix
            zoo_ok &= float(np.max(np.abs(q.conj().T @ q - np.eye(q.shape[0])))) < 1e-12
            if eve.detection is not None and eve.name in ("cnot", "qudit-shift"):
                zoo_ok &= validate_coupling(eve.coupling, eve.detection, eve.detection, eve.dim).passed
        _check(8, f"seed {seed}: coupling unitarity and shift residuals", bool(zoo_ok))

        # norm preservation under random unitaries
        layout = SubsystemLayout.of(("a", 2), ("b", 3))
        norm_ok = True
        for _ in range(25):
            state = rand_state(rng, layout)
            u = oracles.unitary(rand_unitary(rng, 6))
            norm_ok &= abs(apply(state, u, ("a", "b")).norm - 1.0) < 1e-12
        _check(8, f"seed {seed}: norm preserved under unitary application", bool(norm_ok))

        # Born frequencies over 1e5 seeded trials within 4/sqrt(N)
        n = 100_000
        band = 4 / math.sqrt(n)
        init = make_initial_state(qubit_cfg())
        table = born_table(init, "t", Basis.computational(2))
        uniforms = np.random.default_rng(seed).random(n).tolist()
        cum = running_sum(table.probs)
        outcomes = [pick(table.probs, cum, u) for u in uniforms]
        # the same outcomes one-uniform measurements draw from a same-seeded generator
        measure_rng = np.random.default_rng(seed)
        _check(8, f"seed {seed}: batched Born draws match measure", outcomes[:1000] == [
            oracles.measure(init, "t", Basis.computational(2), measure_rng)[0] for _ in range(1000)
        ])
        counts = np.bincount(outcomes, minlength=2)
        deviation = float(np.max(np.abs(counts / n - 0.5)))
        _check(8, f"seed {seed}: Born frequencies within 4/sqrt(N)", deviation < band,
               f"deviation {deviation:.5f} < {band:.5f}")

        # deterministic unitary completion extends its partial isometry
        dim = 7
        k = 4
        lay = SubsystemLayout.of(("q", dim))
        dom = rand_unitary(rng, dim)[:, :k]
        img = rand_unitary(rng, dim)[:, :k]
        op = oracles.complete_isometry(
            [StateVector(lay, dom[:, j]) for j in range(k)],
            [StateVector(lay, img[:, j]) for j in range(k)],
        )
        completion_ok = float(np.max(np.abs(op.matrix.conj().T @ op.matrix - np.eye(dim)))) < 1e-12
        for j in range(k):
            completion_ok &= float(np.linalg.norm(op.matrix @ dom[:, j] - img[:, j])) < 1e-12
        _check(8, f"seed {seed}: partial-isometry completion correct", bool(completion_ok))

        # validate_coupling rejects a wrong unitary
        family = StateFamily.computational(SubsystemLayout.of(("e", 3)), 3)
        wrong = Operator.block_unitary([np.eye(3)] * 3)
        _check(8, f"seed {seed}: validator flags a non-shifting coupling",
               not validate_coupling(wrong, family, family, 3).passed)


def test_criterion_9_sessions_fail_control_at_the_analytic_rate(tmp_path):
    # every paper-matrix row as an all-control session: the failing fraction
    # of Transcript.passed lies within 5 binomial SE of p_det_analytic
    cycles = 2000
    for spec in paper_matrix(tmp_path, cycles, 1, 909):
        cfg = replace(spec.config, control_prob=1.0, n_cycles=cycles)  # intercept-resend rows have none
        eve, control = attack_from_name(spec.attack, cfg.dim), control_from_name(spec.control, cfg)
        analytic = analytic_pdet(eve, control, cfg)
        transcript = run_session(cfg, [], eve, control)
        failing = 1.0 - float(np.mean(transcript.passed))
        band = 5 * math.sqrt(analytic * (1 - analytic) / cycles)
        _check(
            9,
            f"{eve.name} under {control.name} (D={cfg.dim}) fails sessions at p_det",
            len(transcript.passed) == cycles and abs(failing - analytic) <= band + 1e-12,
            f"failing={failing:.4f}, analytic={analytic:.6f}, 5 SE={band:.4f}",
        )
