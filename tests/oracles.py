"""Independent oracles used to pin expected values before the simulator existed.

The enumeration oracles are exhaustive over measurement branches with exact
rational probabilities and use nothing from the package under test, on
purpose: these results must stay independent of the code paths they validate.
`stepwise_session` is the one reference built from the package: a per-cycle
state-vector loop that `run_session`'s transcripts are compared with. It takes
a handle's legs with `step`, which applies or measures one edge on one state
(`run_leg`, `forward`, `backward` and `readout` take whole legs), the route
`protocol.follow` must agree with draw for draw, and the menu loop
`draw_basis`. `score_records` is the record-by-record scorer the columnar
`cli.score_session` must equal.
`einsum_joint_probs` and `choice_failures` are the detection path's earlier
formulas, kept as references the matmul tables and the counting sampler
must equal exactly.
`shift_permutation`, `full_space_coupling` and `coupling_residual_rows` are
the coupling builder's earlier routes: the controlled-shift permutation
filled entry by entry, the unitary completion of the whole travel (x)
ancilla space, and one pair of dense matrix-vector products per (k, m).
The blockwise `generic_coupling` and the vectorized `validate_coupling`
must agree with them.
`matrix_power_encodings`, `dense_apply`, `dense_encode_bell_matrix` and
`swap_permutation` are the earlier routes to the Weyl operators, the Bell
basis and the swap: X^mu Z^nu as two `matrix_power`s, every operator applied
by a dense matmul, one encoding per Bell column, and the swap filled entry
by entry. The closed forms and the monomial `apply` must agree with them.
"""

from fractions import Fraction
from itertools import product

import numpy as np

from pingpong.cli import sig12
from pingpong.protocol import (
    HOME,
    TRAVEL,
    ControlOutcome,
    CycleRecord,
    MeasureEdge,
    ProtocolConfig,
    UnitaryEdge,
    algebra,
    bob_decode,
    dense_encode,
    make_initial_state,
)
from pingpong.qstate import (
    StateVector,
    SubsystemLayout,
    _from_front,
    _to_front,
    apply,
    complete_isometry,
    factor,
    measure,
    tensor,
)
from pingpong.rand import SCORE_TAG, SESSION_TAG, stream


def _branches_after_interception(dim, kind):
    """Enumerate Eve's forward-leg branches for the intercept-resend attack.

    Eve measures the genuine travel qudit in the computational basis (outcome
    m1, collapsing the home qudit), keeps it, and substitutes a fresh qudit
    prepared in a uniformly random computational state f.

    Yields (probability, home_value, fake_value, m1).
    """
    if kind == "qubit_psi_minus":
        if dim != 2:
            raise ValueError("qubit_psi_minus requires dim 2")
        collapse = [(Fraction(1, 2), 1 - m1, m1) for m1 in range(2)]
    elif kind == "qudit_beta00":
        collapse = [(Fraction(1, dim), m1, m1) for m1 in range(dim)]
    else:
        raise ValueError(f"unknown kind {kind!r}")
    for p_m1, home, m1 in collapse:
        for fake in range(dim):
            yield p_m1 * Fraction(1, dim), home, fake, m1


def intercept_resend_pdet(dim, kind):
    """Exact single-cycle detection probability under computational control.

    Alice measures the substituted qudit (outcome = its preparation value),
    Bob measures home; the cycle passes on anticorrelation for the qubit
    singlet and on correlation for the qudit correlated pair.
    """
    p_fail = Fraction(0)
    for prob, home, fake, _ in _branches_after_interception(dim, kind):
        alice, bob = fake, home
        passed = (alice != bob) if kind == "qubit_psi_minus" else (alice == bob)
        if not passed:
            p_fail += prob
    return p_fail


def intercept_resend_symbol_stats(dim, kind):
    """Exact (mu accuracy, nu accuracy) for message cycles, uniform symbols.

    Alice encodes shift mu / phase nu on the fake qudit |f>, sending it back
    as |f + mu mod D> up to a phase; Eve's second computational measurement
    yields m2 = f + mu, so mu_hat = m2 - f mod D. The phase power nu never
    shows up in a computational outcome, so Eve's nu guess is uniform.
    """
    n_correct = Fraction(0)
    total = Fraction(0)
    for prob, _, fake, _ in _branches_after_interception(dim, kind):
        for mu in range(dim):
            branch = prob * Fraction(1, dim)
            m2 = (fake + mu) % dim
            mu_hat = (m2 - fake) % dim
            total += branch
            if mu_hat == mu:
                n_correct += branch
    assert total == 1
    return n_correct, Fraction(1, dim)


def bell_overlap_squared(dim, state_pairs):
    """|<beta^{mu,nu}|psi>|^2 for a computational product state |a_h b_t>.

    `state_pairs` is the (a, b) pair; used to pin the coherence-break case:
    a collapsed product state never reaches overlap 1 with any generalized
    Bell state because each |beta> spreads over D computational pairs.
    """
    a, b = state_pairs
    # <beta^{mu,nu}| a_h b_t> = omega^{-a nu} delta(b, a+mu) / sqrt(D); its
    # squared modulus is 1/D whenever mu = b - a mod D and 0 otherwise.
    return {
        (mu, nu): (Fraction(1, dim) if (a + mu) % dim == b else Fraction(0))
        for mu, nu in product(range(dim), repeat=2)
    }


def wilson_interval(failures, trials, z=1.959963984540054):
    """Wilson 95% score interval, float. Kept here for cross-checking."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    phat = failures / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * ((phat * (1 - phat) / trials + z * z / (4 * trials * trials)) ** 0.5) / denom
    return center - half, center + half


def step(edge, state, rng, notes):
    """Take one branch edge on one state: a unitary is applied, a measurement
    draws one uniform and a `DrawEdge` one integer from `rng`; the outcome is
    recorded in `notes` under the edge's key."""
    if isinstance(edge, UnitaryEdge):
        return apply(state, edge.op, edge.targets)
    if isinstance(edge, MeasureEdge):
        got = measure(state, edge.labels, edge.basis, rng)
        notes[edge.key] = got.outcome
        return got.state
    f = int(rng.integers(len(edge.ops)))
    notes[edge.key] = f
    op = edge.ops[f]
    return state if op is None else apply(state, op, edge.targets)


def run_leg(leg, state, rng, notes):
    """Take the edges of one handle leg on `state`, in order."""
    for edge in leg:
        state = step(edge, state, rng, notes)
    return state


def forward(eve, state, rng, notes):
    return run_leg(eve.forward_leg, state, rng, notes)


def backward(eve, state, rng, notes):
    return run_leg(eve.backward_leg, state, rng, notes)


def readout(eve, state, rng, notes):
    """Eve's guess and the state after her readout leg."""
    state = run_leg(eve.readout_leg, state, rng, notes)
    return eve.guess(notes), state


def draw_basis(control, rng):
    """The control menu entry one uniform from `rng` selects: the first whose
    running weight exceeds it, else the last. `ControlModeHandle.choose`
    must agree for every uniform."""
    u = rng.random()
    acc = 0.0
    for entry in control.bases:
        acc += entry.weight
        if u < acc:
            return entry
    return control.bases[-1]


def stepwise_session(cfg, message, eve, control):
    """Reference for `run_session`: every cycle evolves fresh state vectors.

    Each cycle draws from its own `stream(seed, SESSION_TAG, k)` and takes
    the handle's legs, Alice's and Bob's measurements, the encoding and Bob's
    decode on new states, so the engine's branch tree must give the same
    transcript and raise the same errors.
    """
    for mu, nu in message:
        if not (0 <= mu < cfg.dim and 0 <= nu < cfg.dim):
            raise ValueError(f"message symbols ({mu}, {nu}) out of range for dim {cfg.dim}")
    alg = algebra(cfg.dim)
    init = make_initial_state(cfg)
    records = []
    msg_idx = 0
    for k in range(cfg.n_cycles):
        rng = stream(cfg.seed, SESSION_TAG, k)
        notes = {}
        state = eve.attach(init)
        state = forward(eve, state, rng, notes)
        if rng.random() < cfg.control_prob:
            chosen = draw_basis(control, rng)
            alice = measure(state, TRAVEL, chosen.basis, rng)
            bob = measure(alice.state, HOME, chosen.basis, rng)
            outcome = ControlOutcome(
                basis_id=chosen.basis_id,
                alice_outcome=alice.outcome,
                bob_outcome=bob.outcome,
                passed=control.passes(chosen.basis_id, alice.outcome, bob.outcome),
            )
            records.append(CycleRecord(index=k, mode="control", control=outcome))
        else:
            if msg_idx >= len(message):
                raise ValueError("message exhausted before the session finished")
            mu, nu = message[msg_idx]
            msg_idx += 1
            state = dense_encode(state, mu, nu, alg)
            state = backward(eve, state, rng, notes)
            mu_hat, state = readout(eve, state, rng, notes)
            decoded = bob_decode(factor(state, (HOME, TRAVEL)), cfg)
            records.append(
                CycleRecord(
                    index=k,
                    mode="message",
                    alice_symbols=(mu, nu),
                    bob_decoded=decoded,
                    eve_guess=mu_hat,
                )
            )
    return records


def score_records(records, dim, seed):
    """Reference for `cli.score_session`: the record-by-record scorer. Each
    message record takes a uniform mu guess from the scoring stream when Eve
    abstains, then a uniform nu guess, from one batched draw."""
    messages = [record for record in records if record.mode == "message"]
    n_msg, n_ctrl = len(messages), len(records) - len(messages)
    n_draws = n_msg + sum(record.eve_guess is None for record in messages)
    guesses = iter(stream(seed, SCORE_TAG).integers(dim, size=n_draws).tolist())
    mu_hits = nu_hits = intact = 0
    for record in messages:
        mu, nu = record.alice_symbols
        mu_hat = record.eve_guess
        if mu_hat is None:
            mu_hat = next(guesses)
        nu_hat = next(guesses)
        mu_hits += mu_hat == mu
        nu_hits += nu_hat == nu
        intact += record.bob_decoded == record.alice_symbols
    return {
        "n_message_cycles": n_msg,
        "n_control_cycles": n_ctrl,
        "eve_mu_accuracy": sig12(mu_hits / n_msg) if n_msg else None,
        "eve_nu_accuracy": sig12(nu_hits / n_msg) if n_msg else None,
        "message_integrity": sig12(intact / n_msg) if n_msg else None,
    }


def einsum_joint_probs(state, basis, dim):
    """P(alice, bob) of an (h, t, rest) state measured in basis (x) basis,
    marginalized over the rest, by three `einsum` contractions."""
    conj = basis.matrix.conj()
    step = np.einsum("hi,htr->itr", conj, state.amps.reshape(dim, dim, -1))
    coeffs = np.einsum("tj,itr->ijr", conj, step)  # [bob, alice, eve]
    return np.einsum("ijr,ijr->ji", coeffs, coeffs.conj()).real


def choice_failures(rng, tables, trials):
    """Failing outcomes among `trials` control cycles, each drawn with
    `Generator.choice`: a basis per trial by weight, then an outcome pair per
    trial from that basis's (weight, P(alice, bob), failing mask) table."""
    weights = np.array([weight for weight, _, _ in tables])
    chosen = rng.choice(len(tables), size=trials, p=weights / weights.sum())
    failures = 0
    for b_idx, (_, table, fail) in enumerate(tables):
        n_b = int(np.sum(chosen == b_idx))
        if n_b == 0:
            continue
        flat = table.reshape(-1)
        outcomes = rng.choice(flat.size, size=n_b, p=flat / flat.sum())
        failures += int(np.sum(fail.reshape(-1)[outcomes]))
    return failures


def shift_permutation(dim):
    """The controlled-shift coupling Q|k, a> = |k, a+k mod D> on a qudit
    ancilla, filled entry by entry."""
    m = np.zeros((dim * dim, dim * dim), dtype=np.complex128)
    for k in range(dim):
        for a in range(dim):
            m[k * dim + (a + k) % dim, k * dim + a] = 1.0
    return m


def full_space_coupling(dim, detection, probes):
    """The generic coupling matrix as one `complete_isometry` of the partial
    isometry |k, d_m> -> |k, p_{m+k}> on the whole travel (x) ancilla space."""
    travel_layout = SubsystemLayout.of((TRAVEL, dim))
    domain, image = [], []
    for k in range(dim):
        travel = StateVector.basis(travel_layout, (k,))
        for m in range(dim):
            domain.append(tensor(travel, detection.states[m]))
            image.append(tensor(travel, probes.states[(m + k) % dim]))
    return complete_isometry(domain, image).matrix


def coupling_residual_rows(matrix, detection, probes, dim):
    """(k, m, forward, backward) residuals of Q|k, d_m> = |k, p_{m+k}> and
    Q^dagger|k, p_m> = |k, d_{m-k}>, one dense matrix-vector product each."""
    det, prb = detection.columns, probes.columns
    inv = matrix.conj().T
    rows = []
    for k in range(dim):
        e_k = np.zeros(dim)
        e_k[k] = 1.0
        for m in range(dim):
            fwd_in, fwd_out = np.kron(e_k, det[:, m]), np.kron(e_k, prb[:, (m + k) % dim])
            bwd_in, bwd_out = np.kron(e_k, prb[:, m]), np.kron(e_k, det[:, (m - k) % dim])
            fwd = float(np.linalg.norm(matrix @ fwd_in - fwd_out))
            bwd = float(np.linalg.norm(inv @ bwd_in - bwd_out))
            rows.append((k, m, fwd, bwd))
    return rows


def matrix_power_encodings(dim):
    """X^mu Z^nu as [mu, nu, row, column]: `matrix_power`s of the cyclic
    shift, filled entry by entry, times those of the phase gate diag(omega^k)."""
    shift = np.zeros((dim, dim), dtype=np.complex128)
    for k in range(dim):
        shift[(k + 1) % dim, k] = 1.0
    phase = np.diag(np.exp(2j * np.pi / dim) ** np.arange(dim))
    shifts = np.array([np.linalg.matrix_power(shift, mu) for mu in range(dim)])
    phases = np.array([np.linalg.matrix_power(phase, nu) for nu in range(dim)])
    return shifts[:, None] @ phases[None, :]


def dense_apply(state, matrix, targets):
    """`matrix` on the ordered target registers by one dense matmul."""
    mat, order, _ = _to_front(state, tuple(targets))
    return StateVector(state.layout, _from_front(matrix @ mat, state, order))


def dense_encode_bell_matrix(dim, kind):
    """The encoded Bell states as columns ordered by mu*dim + nu, each the
    pair with its `matrix_power_encodings` entry applied densely to the
    travel qudit."""
    cfg = ProtocolConfig(dim=dim, control_prob=0.0, n_cycles=1, seed=0, initial_state_kind=kind)
    init = make_initial_state(cfg)
    encodings = matrix_power_encodings(dim)
    return np.column_stack([
        dense_apply(init, encodings[mu, nu], (TRAVEL,)).amps
        for mu, nu in product(range(dim), repeat=2)
    ])


def swap_permutation(dim):
    """The two-qudit swap |a, b> -> |b, a>, filled entry by entry."""
    m = np.zeros((dim * dim, dim * dim), dtype=np.complex128)
    for a in range(dim):
        for b in range(dim):
            m[b * dim + a, a * dim + b] = 1.0
    return m
