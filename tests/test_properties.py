"""Property suites: algebraic invariants under random inputs and fixed seeds."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

import oracles
from conftest import all_pairs, coupling_zoo, qubit_cfg, qudit_cfg, rand_family, rand_state, rand_unitary
from pingpong.attacks import no_attack, validate_coupling
from pingpong.control import computational_control
from pingpong.protocol import bob_decode, dense_encode, make_initial_state
from pingpong.session import run_session
from pingpong.qstate import (
    Basis,
    StateVector,
    SubsystemLayout,
    apply,
    born_table,
    collapse,
    pick,
    running_sum,
    tensor,
)

rng_seeds = st.integers(min_value=0, max_value=2**31 - 1)


@settings(max_examples=60, deadline=None)
@given(rng_seeds)
def test_tensor_norm_multiplicative(seed):
    rng = np.random.default_rng(seed)
    a = rand_state(rng, SubsystemLayout.of(("a", int(rng.integers(2, 5)))))
    b = rand_state(rng, SubsystemLayout.of(("b", int(rng.integers(2, 5)))))
    assert abs(tensor(a, b).norm - 1.0) < 1e-12


@settings(max_examples=60, deadline=None)
@given(rng_seeds)
def test_unitary_roundtrip_is_identity(seed):
    rng = np.random.default_rng(seed)
    layout = SubsystemLayout.of(("a", 2), ("b", 3))
    state = rand_state(rng, layout)
    u = oracles.unitary(rand_unitary(rng, 6))
    back = apply(apply(state, u, ("a", "b")), u.inverse, ("a", "b"))
    assert np.max(np.abs(back.amps - state.amps)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(rng_seeds)
def test_unitary_apply_preserves_norm(seed):
    rng = np.random.default_rng(seed)
    layout = SubsystemLayout.of(("a", 3), ("b", 2))
    state = rand_state(rng, layout)
    u = oracles.unitary(rand_unitary(rng, 3))
    assert abs(apply(state, u, "a").norm - 1.0) < 1e-12


@settings(max_examples=40, deadline=None)
@given(rng_seeds, st.floats(min_value=0.0, max_value=2 * math.pi))
def test_decode_ignores_global_phase(seed, theta):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 5))
    cfg = qudit_cfg(dim)
    mu, nu = int(rng.integers(dim)), int(rng.integers(dim))
    state = dense_encode(make_initial_state(cfg), mu, nu)
    rotated = StateVector(state.layout, np.exp(1j * theta) * state.amps)
    assert bob_decode(rotated, cfg) == (mu, nu)


@settings(max_examples=40, deadline=None)
@given(rng_seeds)
def test_measurement_probability_matches_amplitudes(seed):
    rng = np.random.default_rng(seed)
    layout = SubsystemLayout.of(("a", 3), ("b", 2))
    state = rand_state(rng, layout)
    table = born_table(state, "a", Basis.computational(3))
    marginal = np.sum(np.abs(state.reshaped()) ** 2, axis=1)
    assert np.max(np.abs(table.probs - marginal)) < 1e-12
    outcome = int(pick(table.probs, running_sum(table.probs), rng.random()))
    assert marginal[outcome] > 0
    # the collapsed state is the renormalized outcome row, zero elsewhere
    post = collapse(table, outcome).reshaped()
    expected = state.reshaped()[outcome] / math.sqrt(marginal[outcome])
    assert np.max(np.abs(post[outcome] - expected)) < 1e-12
    assert np.max(np.abs(np.delete(post, outcome, axis=0))) == 0


@settings(max_examples=40, deadline=None)
@given(rng_seeds)
def test_partial_trace_of_product_is_rank_one(seed):
    rng = np.random.default_rng(seed)
    a = rand_state(rng, SubsystemLayout.of(("a", 3)))
    b = rand_state(rng, SubsystemLayout.of(("b", 4)))
    rho = oracles.partial_trace(tensor(a, b), "a")
    eigs = np.linalg.eigvalsh(rho)
    assert abs(eigs[-1] - 1.0) < 1e-10


# --- seeded suites (run once per seed in SEEDS) -------------------------------


def test_born_frequencies_match_probabilities(seed):
    n = 20_000
    band = 4 / math.sqrt(n)
    uniforms = np.random.default_rng(seed).random(2 * n)

    init = make_initial_state(qubit_cfg())
    outcomes = _born_draws(init, "t", 2, uniforms[:n], seed, skip=0)
    counts = np.bincount(outcomes, minlength=2)
    assert np.max(np.abs(counts / n - 0.5)) < band

    layout = SubsystemLayout.of(("q", 3))
    biased = StateVector(layout, np.sqrt([0.5, 0.3, 0.2]).astype(complex))
    outcomes = _born_draws(biased, "q", 3, uniforms[n:], seed, skip=n)
    counts = np.bincount(outcomes, minlength=3)
    assert np.max(np.abs(counts / n - [0.5, 0.3, 0.2])) < band


def _born_draws(state, label, dim, uniforms, seed, skip):
    """Computational outcomes of `label` picked from one Born table by the
    given uniforms; the first ones must be what one-uniform measurements
    (`oracles.measure`) draw from a `seed` generator after `skip` uniforms."""
    basis = Basis.computational(dim)
    table = born_table(state, label, basis)
    cum = running_sum(table.probs)
    outcomes = [pick(table.probs, cum, u) for u in uniforms.tolist()]
    rng = np.random.default_rng(seed)
    rng.random(skip)
    assert outcomes[:1000] == [oracles.measure(state, label, basis, rng)[0] for _ in range(1000)]
    return outcomes


def test_coupling_zoo_unitarity(seed):
    for eve, _ in coupling_zoo(seed):
        q = eve.coupling.matrix
        assert np.max(np.abs(q.conj().T @ q - np.eye(q.shape[0]))) < 1e-12


def test_coupling_zoo_shift_residuals(seed):
    for eve, _ in coupling_zoo(seed):
        if eve.detection is None:
            continue
        probes = _implied_probes(eve)
        report = validate_coupling(eve.coupling, eve.detection, probes, eve.dim)
        assert report.passed


def _implied_probes(eve):
    """Probe family read off the coupling: Q|0_t, d_m> = |0_t>|p_m>."""
    from pingpong.attacks import StateFamily
    from pingpong.qstate import factor

    travel_layout = SubsystemLayout.of(("t", eve.dim))
    probes = []
    for m in range(eve.dim):
        src = tensor(StateVector.basis(travel_layout, (0,)), eve.detection.states[m])
        out = StateVector(src.layout, eve.coupling.matrix @ src.amps)
        probes.append(factor(out, eve.ancilla_labels))
    return StateFamily(tuple(probes))


def test_random_unitaries_keep_apply_reversible(seed):
    rng = np.random.default_rng(seed)
    layout = SubsystemLayout.of(("a", 2), ("b", 2), ("c", 3))
    for _ in range(20):
        state = rand_state(rng, layout)
        u = oracles.unitary(rand_unitary(rng, 6))
        targets = ("b", "c")
        back = apply(apply(state, u, targets), u.inverse, targets)
        assert np.max(np.abs(back.amps - state.amps)) < 1e-12


def test_session_transcripts_deterministic(seed):
    cfg = qubit_cfg(control_prob=0.3, n_cycles=60, seed=seed)
    message = all_pairs(2) * 15
    control = computational_control(cfg)
    first, second = (run_session(cfg, message, no_attack(2), control) for _ in range(2))
    assert oracles.records(first) == oracles.records(second)


def test_generic_families_keep_protocol_transparent(seed):
    rng = np.random.default_rng(seed)
    from pingpong.attacks import generic_coupling
    from pingpong.control import analytic_pdet

    eve = generic_coupling(3, rand_family(rng, 5, 3), rand_family(rng, 5, 3))
    cfg = qudit_cfg(3, control_prob=0.0, n_cycles=9)
    assert abs(analytic_pdet(eve, computational_control(cfg), cfg)) < 1e-12
    transcript = run_session(cfg, all_pairs(3), eve, computational_control(cfg))
    assert np.array_equal(transcript.decoded, all_pairs(3))
    assert np.array_equal(transcript.guess, transcript.symbols[:, 0])


def test_generic_couplings_invisible_for_every_dimension(seed):
    rng = np.random.default_rng(seed)
    from pingpong.attacks import generic_coupling
    from pingpong.control import analytic_pdet

    for dim in (2, 3, 4, 5):
        eve = generic_coupling(dim, rand_family(rng, dim + 1, dim), rand_family(rng, dim + 1, dim))
        cfg = qudit_cfg(dim)
        value = analytic_pdet(eve, computational_control(cfg), cfg)
        assert 0.0 <= value + 1e-15 and abs(value) < 1e-12
