"""Machine-speed calibration for the timed sweeps.

On a shared machine the speed of a core drifts by tens of percent over a
few minutes as other tenants come and go, so ten back-to-back runs of the
same sweep can trend by 40% from first to last. The sweep processes time a
fixed numpy kernel in a burst before and after every sweep, and multiply the
sweep's wall time by the kernel's speed at that moment over its speed on the
reference machine. The scaled time reads in seconds at the reference
machine's speed. Neither kernel touches the package, so a change to the
package moves the scaled time by the same factor as the wall time.

Two kernels, because the two kinds of work slow down differently:
- `session` mirrors one protocol cycle: a keyed Philox stream, a few small
  reshapes and a 4x4 product on a 16-amplitude state, and a cumulative-sum
  draw, all dominated by per-call overhead, as `run_session` is.
- `detection` mirrors one intercept-resend branch at D=16: a 256x16 reduced
  density matrix and a 256x256 complex product, as in `analytic_pdet`.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel operations per second on the reference machine: a shared 2-core
# Intel Xeon virtual machine at 2.1 GHz, Python 3.11.7, numpy 2.4.6, one
# BLAS thread. Fixed, so that scaled times compare across commits.
REFERENCE_RATE = {"session": 20000.0, "detection": 340.0}

_UNITARY = np.linalg.qr(np.arange(16.0).reshape(4, 4) + 1j * np.eye(4))[0]
_STATE = np.zeros(16, dtype=np.complex128)
_STATE[1] = _STATE[6] = 2**-0.5
_AMPS = np.linalg.qr(np.arange(256 * 16, dtype=float).reshape(256, 16) % 7 + 1j)[0]
_PROJECTOR = np.eye(256, dtype=np.complex128) - _AMPS @ _AMPS.conj().T


def _session_ops(start: int, count: int) -> None:
    for k in range(start, start + count):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((7, 1, k))))
        psi = np.moveaxis(_STATE.reshape(2, 2, 2, 2), (1, 2), (0, 1)).reshape(4, -1)
        psi = np.moveaxis((_UNITARY @ psi).reshape(2, 2, 2, 2), (0, 1), (1, 2)).reshape(-1)
        cdf = np.cumsum((np.abs(psi.reshape(4, 4)) ** 2).sum(axis=1))
        np.searchsorted(cdf, rng.random() * cdf[-1])


def _detection_ops(start: int, count: int) -> None:
    for _ in range(count):
        rho = _AMPS @ _AMPS.conj().T
        np.trace(_PROJECTOR @ rho)


# kernel -> (operations, operations per timing check)
_KERNELS = {"session": (_session_ops, 200), "detection": (_detection_ops, 4)}


def speed(kernel: str, seconds: float) -> float:
    """The kernel's speed now over its reference speed, timed over `seconds` or more."""
    ops, chunk = _KERNELS[kernel]
    done = 0
    tick = time.perf_counter()
    while True:
        ops(done, chunk)
        done += chunk
        elapsed = time.perf_counter() - tick
        if elapsed >= seconds:
            return done / elapsed / REFERENCE_RATE[kernel]
