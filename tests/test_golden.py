"""Seeded output pinned by committed fixtures under tests/golden/.

`run_session` transcripts and a reduced `scripts/run_matrix.py` report are
compared field by field with the recorded files, so a rewrite that re-rolls
any seeded number fails here even when it is reproducible run to run. The
large-dimension transcripts (D = 16 and 32) pin the paths that only large D
takes: stacks of one state, trailing-block products of a generic coupling
with A = D, and the post-forward nodes of all-control intercept-resend.
The stepwise reference in `test_engine.py` shares `apply` and the handles
with the engine, so only these fixtures catch a fault there.
`wall_clock_s` is the only field left out. After an intended change of
output, record the fixtures again from the repository root with

    PYTHONPATH=src python tests/test_golden.py

and explain every changed value in the change's description.
"""

import json
import os
import tempfile
from pathlib import Path

import numpy as np

import oracles
from oracles import draw_message
from conftest import paper_matrix, rand_family
from pingpong import attacks
from pingpong import control as control_mode
from pingpong.attacks import generic_coupling
from pingpong.cli import emit, run_experiments
from pingpong.protocol import ProtocolConfig
from pingpong.session import run_session

GOLDEN = Path(__file__).resolve().parent / "golden"

MATRIX_CYCLES = 200
MATRIX_TRIALS = 20_000
MATRIX_SEED = 20160706

SESSION_CYCLES = 200
# name -> (attack, control, dim, kind, control_prob, seed)
SESSIONS = {
    "cnot": ("cnot", "two-basis", 2, "qubit_psi_minus", 0.25, 101),
    "pavicic": ("pavicic", "two-basis", 2, "qubit_psi_minus", 0.25, 102),
    "qudit-shift-d5": ("qudit-shift", "computational", 5, "qudit_beta00", 0.25, 103),
    "generic-d3": ("generic", "computational", 3, "qudit_beta00", 0.25, 104),
    "intercept-resend": ("intercept-resend", "two-basis", 2, "qubit_psi_minus", 1.0, 105),
}

LARGE_CYCLES = 40
# As SESSIONS: qudit-shift, a generic family with A = D, and all-control
# intercept-resend, at seed 5, the cases of test_engine.py's large-D check.
LARGE_SESSIONS = {
    f"{attack}-d{dim}": (attack, "computational", dim, "qudit_beta00", control_prob, 5)
    for dim in (16, 32)
    for attack, control_prob in (("qudit-shift", 0.25), ("generic", 0.25), ("intercept-resend", 1.0))
}


def matrix_report() -> list[dict]:
    """The 14-row sweep at reduced size, run in the current directory.

    The generic row's family file is written to a relative path, so its
    attack name does not depend on where the sweep runs.
    """
    rows = run_experiments(paper_matrix(Path("."), MATRIX_CYCLES, MATRIX_TRIALS, MATRIX_SEED))
    return [{k: v for k, v in row.items() if k != "wall_clock_s"} for row in rows]


def session_transcript(name: str, sessions=SESSIONS, cycles=SESSION_CYCLES) -> list[dict]:
    attack, control, dim, kind, control_prob, seed = sessions[name]
    cfg = ProtocolConfig(dim=dim, control_prob=control_prob, n_cycles=cycles,
                         seed=seed, initial_state_kind=kind)
    if attack == "generic":  # a random family on max(4, D) ancilla levels
        rng = np.random.default_rng(seed)
        anc = max(4, dim)
        eve = generic_coupling(dim, rand_family(rng, anc, dim), rand_family(rng, anc, dim))
    else:
        eve = attacks.from_name(attack, dim)
    message = draw_message(dim, cycles, seed)
    transcript = run_session(cfg, message, eve, control_mode.from_name(control, cfg))
    return json.loads(json.dumps(oracles.records(transcript)))


def _transcripts_json(transcripts: dict[str, list[dict]]) -> str:
    """Valid JSON with one record per line, so a changed cycle diffs as one line."""
    parts = []
    for name, records in transcripts.items():
        body = ",\n  ".join(json.dumps(r, sort_keys=True) for r in records)
        parts.append(f"{json.dumps(name)}: [\n  {body}\n]")
    return "{\n" + ",\n".join(parts) + "\n}\n"


def test_matrix_report_matches_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    expected = json.loads((GOLDEN / "matrix.json").read_text())
    assert json.loads(emit(matrix_report(), "json", None)) == expected


def test_session_transcripts_match_golden():
    expected = json.loads((GOLDEN / "transcripts.json").read_text())
    assert list(expected) == list(SESSIONS)
    for name in SESSIONS:
        assert session_transcript(name) == expected[name], name


def large_transcript(name: str) -> list[dict]:
    return session_transcript(name, LARGE_SESSIONS, LARGE_CYCLES)


def test_large_dimension_transcripts_match_golden():
    expected = json.loads((GOLDEN / "large_transcripts.json").read_text())
    assert list(expected) == list(LARGE_SESSIONS)
    for name in LARGE_SESSIONS:
        assert large_transcript(name) == expected[name], name


def main() -> None:
    GOLDEN.mkdir(exist_ok=True)
    transcripts = {name: session_transcript(name) for name in SESSIONS}
    (GOLDEN / "transcripts.json").write_text(_transcripts_json(transcripts))
    large = {name: large_transcript(name) for name in LARGE_SESSIONS}
    (GOLDEN / "large_transcripts.json").write_text(_transcripts_json(large))
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            rows = matrix_report()
        finally:
            os.chdir(cwd)
    emit(rows, "json", GOLDEN / "matrix.json")


if __name__ == "__main__":
    main()
