"""Sweep the attack x control x dimension matrix and write the report.

Reproduces the headline numbers in one go:
  p_det = 0 for every shift-condition coupling under computational control,
  p_det = 1/4 for cnot and pavicic under two-basis control,
  p_det = 1/2 (2/3) for intercept-resend at D=2 (D=3),
  exact recovery of the shift symbol by the coupled attacks.

Intercept-resend rows run control cycles only (message cycles under that
attack break Bob's decoder by design, which the runner reports as an error).
"""

import argparse
import json
from pathlib import Path

import numpy as np

from pingpong.cli import REPORT_FIELDS, RunSpec, emit, run_experiments


def _family_file(path: Path, dim: int, ancilla_dim: int, seed: int) -> Path:
    """Write a random orthonormal detection/probe family pair as JSON."""
    rng = np.random.default_rng(seed)

    def random_family():
        m = rng.normal(size=(ancilla_dim, ancilla_dim)) + 1j * rng.normal(
            size=(ancilla_dim, ancilla_dim)
        )
        q, _ = np.linalg.qr(m)
        return [[[z.real, z.imag] for z in q[:, k]] for k in range(dim)]

    path.write_text(json.dumps({"detection": random_family(), "probes": random_family()}))
    return path


def build_specs(out_dir: Path, cycles: int, trials: int, seed: int) -> list[RunSpec]:
    family_path = _family_file(out_dir / "generic_families_d3.json", 3, 4, seed)
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
        {"attack": f"generic:{family_path}", "control": "computational", "dim": 3},
        {"attack": "intercept-resend", "control": "computational", "dim": 2, "cycles": 0},
        {"attack": "intercept-resend", "control": "computational", "dim": 3, "cycles": 0},
        {"attack": "intercept-resend", "control": "two-basis", "dim": 2, "cycles": 0},
    ]
    specs = []
    for offset, row in enumerate(rows):
        row.setdefault("cycles", cycles)
        row.setdefault("trials", trials)
        row["seed"] = seed + offset
        specs.append(RunSpec.from_dict(row))
    return specs


def print_table(rows: list[dict]) -> None:
    columns = ("attack", "control", "dim", "p_det_analytic", "p_det_empirical",
               "eve_mu_accuracy", "message_integrity", "status")
    widths = {c: max(len(c), 16) for c in columns}
    print("  ".join(c.ljust(widths[c]) for c in columns))
    for row in rows:
        cells = []
        for c in columns:
            v = row[c]
            if isinstance(v, float):
                cells.append(f"{v:.6g}".ljust(widths[c]))
            else:
                cells.append(str(v if v is not None else "-").ljust(widths[c]))
        print("  ".join(cells))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output-dir", default="results", help="where reports are written")
    parser.add_argument("--cycles", type=int, default=2000)
    parser.add_argument("--trials", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=20160706)
    args = parser.parse_args()

    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    specs = build_specs(out_dir, args.cycles, args.trials, args.seed)
    rows = run_experiments(specs)
    emit(rows, "json", out_dir / "matrix.json")
    emit(rows, "csv", out_dir / "matrix.csv")
    print_table(rows)
    print(f"\nwrote {out_dir / 'matrix.json'} and {out_dir / 'matrix.csv'}")
    bad = [r for r in rows if r["status"] != "ok"]
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
