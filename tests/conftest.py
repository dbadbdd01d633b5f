"""Shared fixtures and builders for the test suite."""

import numpy as np
import pytest

from pingpong.attacks import (
    StateFamily,
    cnot_attack,
    generic_coupling,
    pavicic_circuit,
    qudit_shift_attack,
)
from pingpong.protocol import ProtocolConfig
from pingpong.qstate import StateVector, SubsystemLayout

# The seeded property suites run under each of these.
SEEDS = (11, 23, 47)


def rand_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rand_state(rng: np.random.Generator, layout: SubsystemLayout) -> StateVector:
    v = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
    return StateVector(layout, v / np.linalg.norm(v))


def rand_family(rng: np.random.Generator, ancilla_dim: int, size: int, label: str = "e") -> StateFamily:
    layout = SubsystemLayout.of((label, ancilla_dim))
    q = rand_unitary(rng, ancilla_dim)
    return StateFamily(tuple(StateVector(layout, q[:, i]) for i in range(size)))


def qubit_cfg(**overrides) -> ProtocolConfig:
    params = dict(dim=2, control_prob=0.0, n_cycles=1, seed=7, initial_state_kind="qubit_psi_minus")
    params.update(overrides)
    return ProtocolConfig(**params)


def qudit_cfg(dim: int, **overrides) -> ProtocolConfig:
    params = dict(dim=dim, control_prob=0.0, n_cycles=1, seed=7, initial_state_kind="qudit_beta00")
    params.update(overrides)
    return ProtocolConfig(**params)


def all_pairs(dim: int) -> list[tuple[int, int]]:
    return [(mu, nu) for mu in range(dim) for nu in range(dim)]


def coupling_zoo(seed: int = 5):
    """The coupling attacks exercised by the sweeping invariants.

    Returns (eve, cfg) pairs; the generic instance uses random orthonormal
    families on a 4-dimensional ancilla, derived from `seed`.
    """
    rng = np.random.default_rng(seed)
    generic = generic_coupling(3, rand_family(rng, 4, 3), rand_family(rng, 4, 3))
    return [
        (cnot_attack(), qubit_cfg()),
        (pavicic_circuit(), qubit_cfg()),
        (qudit_shift_attack(2), qudit_cfg(2)),
        (qudit_shift_attack(3), qudit_cfg(3)),
        (qudit_shift_attack(5), qudit_cfg(5)),
        (generic, qudit_cfg(3)),
    ]


@pytest.fixture(params=SEEDS)
def seed(request) -> int:
    return request.param


class FixedUniform:
    """A stand-in generator whose `random()` returns one fixed value."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u
