"""Independent oracles used to pin expected values before the simulator existed.

The enumeration oracles are exhaustive over measurement branches with exact
rational probabilities and use nothing from the package under test, on
purpose: these results must stay independent of the code paths they validate.
`stepwise_session` is the session reference built from the package: a per-cycle
state-vector loop that `run_session`'s transcripts are compared with. It takes
a handle's legs with `step`, which applies or measures one edge on one state
(`run_leg`, `forward`, `backward` and `readout` take whole legs), the route
`protocol.follow` must agree with draw for draw, and the menu loop
`draw_basis`. A cycle draws from its `CycleStream`, which decodes its
words one at a time in plain Python. `branches` and `take` give one edge's
outcomes and one outcome's state from one state, the reference a grown tree
node is checked against. `measure` is its one measurement on one uniform, built from
`born_table`, `running_sum`, `pick` and `collapse`; a control cycle measures
Alice and then Bob this way and is judged by the basis's failing-pair mask.
Both give each cycle as a record, a plain dict in the shape of
`tests/golden/transcripts.json`; `records` reads the same dicts off a
`run_session` transcript's columns. `score_records` is the record-by-record
scorer the columnar `cli.score_sessions` must equal.
`draw_message` and `score_session` are `cli.draw_messages` and
`cli.score_sessions` for one run, and `unitary` is a dense unitary as an
`Operator` of one block: the one-run and one-matrix forms the tests call.
`partial_trace` and `trace_distance` compare reduced states as plain
matrices. `fail_projector` is the projector onto a control basis's failing
outcome pairs; its expectation on the reduced pair is the reference route
`analytic_pdet`'s Born tables must agree with.
`complete_isometry` extends a partial isometry to a unitary. `cpbs`, the
controlled polarization beam splitter of Pavicic's explicit circuit, is
built with it from its truth table.
`einsum_joint_probs` is the detection path's earlier formula, kept as a
reference the matmul tables must equal exactly. `matmul_pair_probs` and
`matmul_born_table` are the joint table's and the Born table's
matrix-product routes, which the identity-basis path that reads the
amplitudes directly must equal bit for bit. `exact_born_tables` is the
detection tables' earlier route: a sum over every branch of Eve's forward leg as written, her
measurements that only her later legs read included, which the tables
walked over the deferred leg must agree with.
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
`transpose_apply` and `transpose_dense_encode` are `apply`'s and
`dense_encode`'s routes through the target axes moved to the front and
back, which the in-place view routes must equal.
"""

from fractions import Fraction
from itertools import product

import numpy as np

from pingpong.cli import draw_messages, score_sessions, sig12
from pingpong.protocol import (
    HOME,
    TRAVEL,
    MeasureEdge,
    ProtocolConfig,
    UnitaryEdge,
    _weyl_phases,
    bob_decode,
    dense_encode,
    make_initial_state,
    walk_leg,
)
from pingpong.attacks import H_POL, RAIL_DIM, V_POL, VACUUM
from pingpong.qstate import (
    ATOL_BASIS,
    BasisError,
    Operator,
    StateVector,
    SubsystemLayout,
    _from_front,
    _to_front,
    apply,
    born_table,
    collapse,
    factor,
    orthonormal_completion,
    pick,
    running_sum,
    tensor,
)
from pingpong.rand import SCORE_TAG, SESSION_TAG, words


def unitary(matrix) -> Operator:
    """A dense unitary: `Operator.block_unitary` with one block."""
    return Operator.block_unitary(np.asarray(matrix)[None])


def draw_message(dim, length, seed):
    """One run's message, a (length, 2) integer array: `cli.draw_messages` for that run."""
    return draw_messages([dim], [length], [seed])[0]


def score_session(transcript, dim, seed):
    """One transcript's scores: `cli.score_sessions` for that transcript."""
    return score_sessions([transcript], [dim], [seed])[0]


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


def measure(state, labels, basis, rng):
    """A projective measurement of `labels` in `basis` on one uniform from
    `rng`: the outcome and the renormalized post-measurement state."""
    table = born_table(state, labels, basis)
    outcome = int(pick(table.probs, running_sum(table.probs), rng.random()))
    return outcome, collapse(table, outcome)


def partial_trace(state, keep):
    """The reduced density matrix over the registers in `keep`, in order."""
    mat, _, _ = _to_front(state, tuple(keep))
    return mat @ mat.conj().T


def trace_distance(a, b):
    """(1/2)||a - b||_1 of two density matrices, from the spectrum of the
    hermitian difference."""
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(a - b))))


def step(edge, state, rng, notes):
    """Take one branch edge on one state: a unitary is applied, a measurement
    draws one uniform and a `DrawEdge` one integer from `rng`; the outcome is
    recorded in `notes` under the edge's key."""
    if isinstance(edge, UnitaryEdge):
        return apply(state, edge.op, edge.targets)
    if isinstance(edge, MeasureEdge):
        notes[edge.key], state = measure(state, edge.labels, edge.basis, rng)
        return state
    f = int(rng.integers(len(edge.ops)))
    notes[edge.key] = f
    op = edge.ops[f]
    return state if op is None else apply(state, op, edge.targets)


def branches(edge, state):
    """One branch edge's outcomes with support from one state and their
    probabilities, by the reference routes: a unitary's one outcome, None; a
    `DrawEdge`'s uniform f; a measurement's Born probabilities above 0."""
    if isinstance(edge, UnitaryEdge):
        return {None: 1.0}
    if isinstance(edge, MeasureEdge):
        probs = born_table(state, edge.labels, edge.basis).probs
        return {outcome: float(probs[outcome]) for outcome in np.flatnonzero(probs > 0.0).tolist()}
    return {f: 1.0 / len(edge.ops) for f in range(len(edge.ops))}


def take(edge, state, outcome):
    """One branch edge on one state with its outcome given: the state
    `step` leaves when its draw picks `outcome`."""
    if isinstance(edge, UnitaryEdge):
        return apply(state, edge.op, edge.targets)
    if isinstance(edge, MeasureEdge):
        return collapse(born_table(state, edge.labels, edge.basis), outcome)
    op = edge.ops[outcome]
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


class CycleStream:
    """Session cycle k's draws: the 4 * blocks words of stream (seed,
    SESSION_TAG) from block k * blocks on, one a draw in order, decoded in
    plain Python. A uniform is (w >> 11) * 2**-53 and an integer below n
    (w >> 32) * n >> 32; a draw past the cycle's words raises ValueError."""

    def __init__(self, seed, k, blocks):
        self.words, self.used = words(seed, SESSION_TAG, k * blocks, 4 * blocks).tolist(), 0

    def _next(self):
        if self.used == len(self.words):
            raise ValueError("a draw past the cycle's reserved words")
        self.used += 1
        return self.words[self.used - 1]

    def random(self):
        return (self._next() >> 11) * 2.0**-53

    def integers(self, n):
        return (self._next() >> 32) * n >> 32


def reserved_blocks(eve):
    """The Philox blocks a session cycle reserves under Eve's handle: a word
    for each draw of the longer branch, forward draws and the mode uniform
    then the return legs' draws or three control uniforms."""
    drawn = lambda leg: sum(len(edge.draw) for edge in leg)  # noqa: E731
    return -(-(drawn(eve.forward_leg) + 1 + max(drawn(eve.backward_leg + eve.readout_leg), 3)) // 4)


def stepwise_session(cfg, message, eve, control):
    """Reference for `run_session`: every cycle evolves fresh state vectors.

    Each cycle draws from its own `CycleStream` and takes the handle's legs,
    Alice's and Bob's measurements, the encoding and Bob's decode on new
    states, so the engine's branch tree must give the same transcript and
    raise the same errors.
    """
    for mu, nu in message:
        if not (0 <= mu < cfg.dim and 0 <= nu < cfg.dim):
            raise ValueError(f"message symbols ({mu}, {nu}) out of range for dim {cfg.dim}")
    init = make_initial_state(cfg)
    records = []
    msg_idx = 0
    blocks = reserved_blocks(eve)
    for k in range(cfg.n_cycles):
        rng = CycleStream(cfg.seed, k, blocks)
        notes = {}
        state = eve.attach(init)
        state = forward(eve, state, rng, notes)
        if rng.random() < cfg.control_prob:
            chosen = draw_basis(control, rng)
            alice, state = measure(state, TRAVEL, chosen.basis, rng)
            bob, _ = measure(state, HOME, chosen.basis, rng)
            passed = not chosen.fail[alice, bob]
            records.append(control_record(k, chosen.basis_id, alice, bob, passed))
        else:
            if msg_idx >= len(message):
                raise ValueError("message exhausted before the session finished")
            mu, nu = message[msg_idx]
            msg_idx += 1
            state = dense_encode(state, mu, nu)
            state = backward(eve, state, rng, notes)
            mu_hat, state = readout(eve, state, rng, notes)
            decoded = bob_decode(factor(state, (HOME, TRAVEL)), cfg)
            records.append(message_record(k, (mu, nu), decoded, mu_hat))
    return records


def message_record(index, sent, decoded, guess):
    """A message cycle's record: Alice's symbols, Bob's decoded pair and
    Eve's shift guess (None: she abstains)."""
    return {"index": index, "mode": "message", "alice_symbols": tuple(sent),
            "bob_decoded": tuple(decoded), "control": None, "eve_guess": guess}


def control_record(index, basis_id, alice, bob, passed):
    """A control cycle's record: the menu basis, Alice's and Bob's outcomes
    and whether they passed."""
    outcome = {"basis_id": basis_id, "alice_outcome": alice, "bob_outcome": bob, "passed": passed}
    return {"index": index, "mode": "control", "alice_symbols": None,
            "bob_decoded": None, "control": outcome, "eve_guess": None}


def records(transcript):
    """A `Transcript`'s cycles as the records `stepwise_session` gives."""
    messages = zip(transcript.symbols.tolist(), transcript.decoded.tolist(), transcript.guess.tolist())
    controls = zip(transcript.basis.tolist(), transcript.outcomes.tolist(), transcript.passed.tolist())
    out = []
    for k, is_control in enumerate(transcript.control.tolist()):
        if is_control:
            basis, (alice, bob), passed = next(controls)
            out.append(control_record(k, transcript.basis_ids[basis], alice, bob, passed))
        else:
            sent, decoded, guess = next(messages)
            out.append(message_record(k, sent, decoded, None if guess < 0 else guess))
    return out


def score_records(records, dim, seed):
    """Reference for `cli.score_sessions`: the record-by-record scorer. Each
    message record takes a uniform mu guess from the score stream's words
    when Eve abstains, then a uniform nu guess, each word w decoded in plain
    Python as (w >> 32) * dim >> 32."""
    messages = [record for record in records if record["mode"] == "message"]
    n_msg, n_ctrl = len(messages), len(records) - len(messages)
    n_draws = n_msg + sum(record["eve_guess"] is None for record in messages)
    guesses = iter((w >> 32) * dim >> 32 for w in words(seed, SCORE_TAG, 0, n_draws).tolist())
    mu_hits = nu_hits = intact = 0
    for record in messages:
        mu, nu = record["alice_symbols"]
        mu_hat = record["eve_guess"]
        if mu_hat is None:
            mu_hat = next(guesses)
        nu_hat = next(guesses)
        mu_hits += mu_hat == mu
        nu_hits += nu_hat == nu
        intact += record["bob_decoded"] == record["alice_symbols"]
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


def matmul_pair_probs(state, basis):
    """`protocol.pair_probs` by its two matrix products with the conjugated
    basis, whatever the basis."""
    dim = basis.dim
    proj = basis.matrix.conj().T
    step = (proj @ state.amps.reshape(dim, -1)).reshape(dim, dim, -1)  # [bob, t, rest]
    coeffs = np.matmul(proj, step)  # [bob, alice, rest]
    return np.einsum("ijr,ijr->ji", coeffs, coeffs.conj()).real


def matmul_born_table(state, labels, basis):
    """`qstate.born_table`'s coefficients and probabilities by the matrix
    product with the conjugated basis, whatever the basis."""
    mat, _, _ = _to_front(state, (labels,) if isinstance(labels, str) else tuple(labels))
    coeffs = basis.matrix.conj().T @ mat
    probs = np.einsum("...ij,...ij->...i", coeffs, coeffs.conj()).real
    return coeffs, np.clip(probs, 0.0, None)


def exact_born_tables(eve, control, cfg):
    """Per menu basis: (weight, P(alice, bob), failing mask), with P summed
    over every branch `walk_leg` yields for Eve's forward leg as written."""
    dim = cfg.dim
    sums = [np.zeros((dim, dim)) for _ in control.bases]
    for prob, state in walk_leg(eve.forward_leg, eve.attach(make_initial_state(cfg))):
        for table, entry in zip(sums, control.bases):
            table += prob * einsum_joint_probs(state, entry.basis, dim)
    return [(entry.weight, np.clip(table, 0.0, None), entry.fail) for table, entry in zip(sums, control.bases)]


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


def complete_isometry(domain_basis, image_basis):
    """Unitary extension of the partial isometry domain_k -> image_k.

    Both lists must be orthonormal within 1e-10 and of equal length; the
    completion maps the canonical Gram-Schmidt complements of the two sides
    onto each other in order, so the result is deterministic.
    """
    if len(domain_basis) != len(image_basis):
        raise ValueError("domain and image lists must have equal length")
    if not domain_basis:
        raise ValueError("empty partial isometry")
    dim = domain_basis[0].layout.dim
    if any(s.layout.dim != dim for s in list(domain_basis) + list(image_basis)):
        raise ValueError("all vectors must share one total dimension")

    def stack(states):
        m = np.column_stack([s.amps for s in states])
        dev = np.max(np.abs(m.conj().T @ m - np.eye(m.shape[1])))
        if dev > ATOL_BASIS:
            raise BasisError(f"input list is not orthonormal (Gram deviation {dev:.3e})")
        return m

    dom = orthonormal_completion(stack(domain_basis), dim)
    img = orthonormal_completion(stack(image_basis), dim)
    return unitary(img @ dom.conj().T)


def cpbs():
    """Controlled polarization beam splitter on the travel qubit and two
    rails, the element of Pavicic's explicit circuit.

    With the control at 0 the horizontal photon hops rails and the vertical
    one stays; with the control at 1 the roles are exchanged. All basis
    states outside the eight-row truth table are left untouched.
    """
    table = {
        (0, VACUUM, H_POL): (0, H_POL, VACUUM),
        (0, H_POL, VACUUM): (0, VACUUM, H_POL),
        (0, VACUUM, V_POL): (0, VACUUM, V_POL),
        (0, V_POL, VACUUM): (0, V_POL, VACUUM),
        (1, VACUUM, H_POL): (1, VACUUM, H_POL),
        (1, H_POL, VACUUM): (1, H_POL, VACUUM),
        (1, VACUUM, V_POL): (1, V_POL, VACUUM),
        (1, V_POL, VACUUM): (1, VACUUM, V_POL),
    }
    layout = SubsystemLayout.of((TRAVEL, 2), ("x", RAIL_DIM), ("y", RAIL_DIM))
    levels = list(product(range(2), range(RAIL_DIM), range(RAIL_DIM)))
    domain = [StateVector.basis(layout, src) for src in levels]
    image = [StateVector.basis(layout, table.get(src, src)) for src in levels]
    return complete_isometry(domain, image)


def fail_projector(entry, dim):
    """Projector onto the (alice, bob) outcome pairs a control menu entry's
    failing-pair mask marks, on the (h, t) pair; its expectation on the
    reduced pair state is the reference for the detection Born tables."""
    failing = np.zeros((dim * dim, dim * dim), dtype=np.complex128)
    for alice, bob in zip(*np.nonzero(entry.fail)):
        b_vec = entry.basis.matrix[:, bob]
        a_vec = entry.basis.matrix[:, alice]
        failing += np.kron(np.outer(b_vec, b_vec.conj()), np.outer(a_vec, a_vec.conj()))
    return failing


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
    return StateVector(state.layout, _from_front(matrix @ mat, state.layout, order))


def transpose_apply(state, op, targets):
    """`qstate.apply`'s earlier route: the target axes moved to the front and
    back by `_to_front` and `_from_front`, a monomial operator's rows
    scattered to their images, a block operator's blocks multiplied one per
    block and state."""
    mat, order, _ = _to_front(state, tuple(targets))
    if op.rows is not None:
        new = np.empty_like(mat)
        new[..., op.rows, :] = mat if op.phases is None else op.phases[:, None] * mat
    else:
        new = np.matmul(op.blocks, mat.reshape(mat.shape[:-2] + op.blocks.shape[:2] + (-1,))).reshape(mat.shape)
    return StateVector(state.layout, _from_front(new, state.layout, order))


def transpose_dense_encode(state, mu, nu, dim):
    """`protocol.dense_encode`'s earlier route: the travel axis moved to the
    front, gathered there for each symbol pair, and moved back."""
    mu, nu = np.asarray(mu), np.asarray(nu)
    mat, order, _ = _to_front(state, (TRAVEL,))
    source = (np.arange(dim) - mu[..., None]) % dim
    phases = np.take_along_axis(_weyl_phases(dim, nu), source, axis=-1)
    return StateVector(state.layout, _from_front(phases[..., None] * mat[source], state.layout, order))


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
