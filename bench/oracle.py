"""Oracle gate and report fingerprint.

The gate checks every report row against the paper's exact values; the
fingerprint lets two runs (or two commits) show that their seeded output is
bit-identical, `wall_clock_s` excepted.
"""

from __future__ import annotations

import hashlib
import json
import math

ANALYTIC_ATOL = 1e-9
# Allowed distance of the empirical rate from the analytic value, in
# binomial standard errors. At 5 SE a correct row trips the gate with
# probability below 1e-6, so no seed should fail it by chance.
EMPIRICAL_SE = 5.0

COUPLING_ATTACKS = ("cnot", "pavicic", "qudit-shift")


def is_coupling(attack: str) -> bool:
    return attack in COUPLING_ATTACKS or attack.startswith("generic:")


def expected_pdet(row: dict) -> float | None:
    """The paper's exact detection probability for a row, or None if unknown."""
    attack, control, dim = row["attack"], row["control"], row["dim"]
    if control == "computational":
        if attack == "none" or is_coupling(attack):
            return 0.0
        if attack == "intercept-resend":
            return 1.0 - 1.0 / dim
    if control == "two-basis":
        if attack == "none":
            return 0.0
        if attack in ("cnot", "pavicic"):
            return 0.25
        if attack == "intercept-resend":
            return 0.5
    return None


def violations(row: dict) -> list[str]:
    """Every way `row` contradicts the paper's exact values (empty when clean)."""
    problems = []
    if row.get("status") != "ok":
        problems.append(f"status {row.get('status')!r}: {row.get('error')}")
        return problems
    expected = expected_pdet(row)
    if expected is None:
        return [f"no oracle for {row['attack']} under {row['control']} at D={row['dim']}"]
    analytic = row["p_det_analytic"]
    if analytic is None or abs(analytic - expected) > ANALYTIC_ATOL:
        problems.append(f"p_det_analytic {analytic} != {expected}")
    empirical = row["p_det_empirical"]
    tolerance = EMPIRICAL_SE * math.sqrt(expected * (1.0 - expected) / row["trials"])
    if empirical is None or abs(empirical - expected) > tolerance:
        problems.append(f"p_det_empirical {empirical} not within {tolerance:.3g} of {expected}")
    if row.get("n_message_cycles"):
        if is_coupling(row["attack"]) and row["eve_mu_accuracy"] != 1.0:
            problems.append(f"eve_mu_accuracy {row['eve_mu_accuracy']} != 1")
        if row["message_integrity"] != 1.0:
            problems.append(f"message_integrity {row['message_integrity']} != 1")
    return problems


def gate(rows: list[dict]) -> list[str]:
    """One line per violated row, naming the row and what it contradicts."""
    lines = []
    for index, row in enumerate(rows):
        problems = violations(row)
        if problems:
            where = f"row {index} ({row['attack']}, {row['control']}, D={row['dim']})"
            lines.append(f"{where}: {'; '.join(problems)}")
    return lines


def report_hash(rows: list[dict]) -> str:
    """SHA-256 of the report with `wall_clock_s` removed from every row."""
    stripped = [{k: v for k, v in row.items() if k != "wall_clock_s"} for row in rows]
    payload = json.dumps(stripped, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()
