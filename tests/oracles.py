"""Independent oracles used to pin expected values before the simulator existed.

The enumeration oracles are exhaustive over measurement branches with exact
rational probabilities and use nothing from the package under test, on
purpose: these results must stay independent of the code paths they validate.
`stepwise_session` is the one reference built from the package: a per-cycle
state-vector loop that `run_session`'s transcripts are compared with.
`einsum_joint_probs` and `choice_failures` are the detection path's earlier
formulas, kept as references the matmul tables and the counting sampler
must equal exactly.
"""

from fractions import Fraction
from itertools import product

import numpy as np

from pingpong.protocol import (
    HOME,
    TRAVEL,
    ControlOutcome,
    CycleRecord,
    algebra,
    bob_decode,
    dense_encode,
    make_initial_state,
)
from pingpong.qstate import factor, measure
from pingpong.rand import SESSION_TAG, stream


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
        state = eve.forward(state, rng, notes)
        if rng.random() < cfg.control_prob:
            chosen = control.draw(rng)
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
            state = eve.backward(state, rng, notes)
            mu_hat, state = eve.readout(state, rng, notes)
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
