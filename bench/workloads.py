"""Workload generators: seeded spec lists for the three benchmark workloads.

Each generator takes the workload seed and a scale, writes any input file
it needs under the work directory, and returns raw run dicts in the CLI's
spec schema. Spec seeds and the generic-coupling family are derived from the
workload seed, so the same seed always gives the same inputs. The rows are
defined here rather than imported from `scripts/run_matrix.py` so that the
benchmark's inputs cannot change when the code under test does.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

WORKLOADS = ("paper-sweep", "dim-ladder", "short-sessions")
# The calibration kernel (see calibrate.py) whose work is most like each
# workload's: sessions are bound by per-call overhead, the ladder by BLAS.
KERNEL = {"paper-sweep": "session", "dim-ladder": "detection", "short-sessions": "session"}

# Sizes per scale. "full" is what the benchmark measures; "toy" keeps every
# row kind but makes each run tiny, for the self-test.
SCALES = {
    "full": {
        "paper_cycles": 1000,
        "paper_trials": 100_000,
        "ladder_dims": tuple(range(2, 17)),
        "ladder_trials": 100_000,
        "short_cycles": (20, 30, 40, 50),
        "short_trials": 2000,
    },
    "toy": {
        "paper_cycles": 12,
        "paper_trials": 2000,
        "ladder_dims": (2, 3, 4),
        "ladder_trials": 2000,
        "short_cycles": (6,),
        "short_trials": 500,
    },
}


def family_file(path: Path, dim: int, ancilla_dim: int, rng: np.random.Generator) -> Path:
    """Write a random orthonormal detection/probe family pair as JSON."""

    def random_family():
        m = rng.normal(size=(ancilla_dim, ancilla_dim)) + 1j * rng.normal(
            size=(ancilla_dim, ancilla_dim)
        )
        q, _ = np.linalg.qr(m)
        return [[[z.real, z.imag] for z in q[:, k]] for k in range(dim)]

    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"detection": random_family(), "probes": random_family()}))
    return path


def _paper_sweep(generic: str, scale: dict) -> list[dict]:
    cycles, trials = scale["paper_cycles"], scale["paper_trials"]
    rows = [
        {"attack": "none", "control": "computational", "dim": 2},
        {"attack": "none", "control": "two-basis", "dim": 2},
        {"attack": "cnot", "control": "computational", "dim": 2},
        {"attack": "cnot", "control": "two-basis", "dim": 2},
        {"attack": "pavicic", "control": "computational", "dim": 2},
        {"attack": "pavicic", "control": "two-basis", "dim": 2},
        {"attack": "qudit-shift", "control": "computational", "dim": 2, "kind": "qudit_beta00"},
        {"attack": "qudit-shift", "control": "computational", "dim": 3},
        {"attack": "qudit-shift", "control": "computational", "dim": 4},
        {"attack": "qudit-shift", "control": "computational", "dim": 5},
        {"attack": generic, "control": "computational", "dim": 3},
        {"attack": "intercept-resend", "control": "computational", "dim": 2, "cycles": 0},
        {"attack": "intercept-resend", "control": "computational", "dim": 3, "cycles": 0},
        {"attack": "intercept-resend", "control": "two-basis", "dim": 2, "cycles": 0},
    ]
    for row in rows:
        row.setdefault("cycles", cycles)
        row["trials"] = trials
    return rows


def _dim_ladder(generic: str, scale: dict) -> list[dict]:
    trials = scale["ladder_trials"]
    rows = []
    for dim in scale["ladder_dims"]:
        kind = {"kind": "qudit_beta00"} if dim == 2 else {}
        rows.append({"attack": "qudit-shift", "control": "computational", "dim": dim, **kind})
        rows.append({"attack": "intercept-resend", "control": "computational", "dim": dim, **kind})
    for attack in ("none", "cnot", "pavicic"):
        rows.append({"attack": attack, "control": "two-basis", "dim": 2})
    for row in rows:
        row.update(cycles=0, trials=trials)
    return rows


def _short_sessions(generic: str, scale: dict) -> list[dict]:
    templates = [
        {"attack": "none", "control": "computational", "dim": 2},
        {"attack": "none", "control": "two-basis", "dim": 2},
        {"attack": "cnot", "control": "computational", "dim": 2},
        {"attack": "cnot", "control": "two-basis", "dim": 2},
        {"attack": "pavicic", "control": "computational", "dim": 2},
        {"attack": "pavicic", "control": "two-basis", "dim": 2},
        {"attack": "qudit-shift", "control": "computational", "dim": 2, "kind": "qudit_beta00"},
        {"attack": "qudit-shift", "control": "computational", "dim": 3},
        {"attack": "qudit-shift", "control": "computational", "dim": 5},
        {"attack": "qudit-shift", "control": "computational", "dim": 7},
        {"attack": generic, "control": "computational", "dim": 3},
        # Intercept-resend reaches run_session only as all-control sessions:
        # a message cycle breaks Bob's decoder by design.
        {"attack": "intercept-resend", "control": "computational", "dim": 2, "control_prob": 1.0},
        {"attack": "intercept-resend", "control": "computational", "dim": 3, "control_prob": 1.0},
        {"attack": "intercept-resend", "control": "two-basis", "dim": 2, "control_prob": 1.0},
    ]
    control_probs = (0.1, 0.25, 0.5)
    rows = []
    for rep, cycles in enumerate(scale["short_cycles"]):
        for index, template in enumerate(templates):
            row = dict(template)
            row.setdefault("control_prob", control_probs[(rep + index) % len(control_probs)])
            row.update(cycles=cycles, trials=scale["short_trials"])
            rows.append(row)
    return rows


_GENERATORS = {
    "paper-sweep": _paper_sweep,
    "dim-ladder": _dim_ladder,
    "short-sessions": _short_sessions,
}


def build(workload: str, seed: int, work_dir: Path, scale: str = "full") -> list[dict]:
    """Raw run dicts for `workload`, fully determined by `seed` and `scale`.

    The generic-coupling family file is written under `work_dir`, which
    should be relative to the process's working directory so that the
    `attack` field of a report row, and hence the report hash, does not
    depend on where the checkout lives.
    """
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    family = family_file(work_dir / f"generic-d3-{workload}-{seed}.json", 3, 4, rng)
    rows = _GENERATORS[workload](f"generic:{family.as_posix()}", SCALES[scale])
    for row, spec_seed in zip(rows, rng.integers(0, 2**31, size=len(rows))):
        row["seed"] = int(spec_seed)
    return rows
