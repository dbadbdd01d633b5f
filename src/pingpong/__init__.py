"""Simulation laboratory for the ping-pong quantum direct communication
protocol: qubit and qudit variants, dense coding, eavesdropping couplings,
and control-mode detection statistics."""

from .qstate import (
    Basis,
    Operator,
    StateVector,
    SubsystemLayout,
    apply,
    factor,
    tensor,
)
from .protocol import (
    CoherenceBreakError,
    ProtocolConfig,
    QuditAlgebra,
    Transcript,
    algebra,
    bob_decode,
    dense_encode,
    make_initial_state,
)
from .session import run_session
from .attacks import (
    EavesdropperHandle,
    StateFamily,
    cnot_attack,
    generic_coupling,
    intercept_resend,
    no_attack,
    pavicic_circuit,
    qudit_shift_attack,
    validate_coupling,
)
from .control import (
    ControlModeHandle,
    DetectionReport,
    analytic_pdet,
    computational_control,
    empirical_pdet,
    two_basis_control,
)

__version__ = "0.1.0"

__all__ = [
    "Basis",
    "CoherenceBreakError",
    "ControlModeHandle",
    "DetectionReport",
    "EavesdropperHandle",
    "Operator",
    "ProtocolConfig",
    "QuditAlgebra",
    "StateFamily",
    "StateVector",
    "SubsystemLayout",
    "Transcript",
    "algebra",
    "analytic_pdet",
    "apply",
    "bob_decode",
    "cnot_attack",
    "computational_control",
    "dense_encode",
    "empirical_pdet",
    "factor",
    "generic_coupling",
    "intercept_resend",
    "make_initial_state",
    "no_attack",
    "pavicic_circuit",
    "qudit_shift_attack",
    "run_session",
    "tensor",
    "two_basis_control",
    "validate_coupling",
]
