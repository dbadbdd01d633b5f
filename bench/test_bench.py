"""Self-test of the benchmark at toy size.

  python3 -m pytest -q bench/test_bench.py

Checks that every named metric appears for every workload, that the oracle
gate trips on corrupted rows, that the tracer restores every binding it
wrapped, and that the benchmark refuses to run without the package source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "toy"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["command"] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_named_metric_appears(workload, trace):
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    shown = {line.split()[0] for line in done.stdout.splitlines()[:-1] if line.strip()}
    assert {"failed_run_frac", "oracle_violations", "report_sha256", "pingpong_file"} <= shown
    if not trace:
        assert ("cycles_per_s" in shown) == (workload != "dim-ladder")
        assert result["metrics"]["setup_s"]["value"] > 0


@pytest.fixture(scope="module")
def clean_rows(tmp_path_factory):
    from pingpong.cli import RunSpec, run_experiments

    rows = workloads.build("paper-sweep", 5, tmp_path_factory.mktemp("work"), "toy")
    return run_experiments([RunSpec.from_dict(row) for row in rows])


def test_oracle_gate_passes_clean_rows(clean_rows):
    assert oracle.gate(clean_rows) == []


@pytest.mark.parametrize(
    "field, value",
    [
        ("p_det_analytic", 0.1),
        ("p_det_empirical", 0.5),
        ("eve_mu_accuracy", 0.75),
        ("message_integrity", 0.99),
        ("status", "error"),
    ],
)
def test_oracle_gate_trips_on_corrupted_row(clean_rows, field, value):
    index = next(i for i, row in enumerate(clean_rows) if row["attack"] == "cnot" and row["n_message_cycles"])
    corrupted = [dict(row) for row in clean_rows]
    corrupted[index][field] = value
    lines = oracle.gate(corrupted)
    assert len(lines) == 1 and lines[0].startswith(f"row {index} ")


def test_report_hash_ignores_only_wall_clock(clean_rows):
    digest = oracle.report_hash(clean_rows)
    retimed = [{**row, "wall_clock_s": 123.0} for row in clean_rows]
    assert oracle.report_hash(retimed) == digest
    changed = [{**row, "seed": row["seed"] + 1} for row in clean_rows]
    assert oracle.report_hash(changed) != digest


def _bindings(package: str = "pingpong") -> dict:
    """Every attribute of every package module and handle class, by identity."""
    import pingpong.attacks as attacks

    owners = spans.package_modules(package)
    owners += [getattr(attacks, name) for name in spans.HANDLE_CLASSES]
    return {(id(owner), attr): value for owner in owners for attr, value in vars(owner).items()}


def test_tracer_wraps_every_binding_and_restores_it(tmp_path):
    from pingpong import cli

    before = _bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        wrapped = {(id(owner), attr) for owner, attr, _ in tracer.patched}
        originals = {id(original) for _, _, original in tracer.patched}
        # No binding of a wrapped function escaped the wrapper.
        assert not [key for key, value in _bindings().items() if id(value) in originals]
        rows = workloads.build("short-sessions", 2, tmp_path, "toy")
        cli.run_experiments([cli.RunSpec.from_dict(row) for row in rows])
    finally:
        tracer.restore()
    assert tracer.unrestored() == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert len(wrapped) == len(tracer.patched)
    assert set(tracer.names) == set(spans.SPAN_NAMES)
    assert min(tracer.self_times()) > -1e-9
    # Every span ran inside some report row's execute_run span.
    assert min(tracer.rows) == 0 and max(tracer.rows) == len(rows) - 1


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("paper-sweep", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
