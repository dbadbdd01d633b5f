"""Benchmark of the pingpong lab: one workload per invocation.

  python3 bench/run.py --workload paper-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Each role runs in its own fresh,
single-threaded process (`bench/worker.py`) that imports the package from
the checkout's `src/`:

  --trace 0  set-up time (median of several fresh processes), then repeated
             untraced sweeps; prints the end-to-end metrics.
  --trace 1  untraced and traced sweeps in adjacent pairs; prints the
             per-layer metrics from the first traced sweep's spans.

Every report row is checked against the paper's exact values, and every
repetition must reproduce the first report bit for bit (`wall_clock_s`
aside). The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 only when
the output is correct. Everything is written under `.bench_work/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK_DIR = ROOT / ".bench_work"
SETUP_REPS = 7
# Each sweep process measures for --seconds / SWEEP_SLICES (at least one
# sweep); processes are started until --seconds is used up.
SWEEP_SLICES = 8
MIN_SWEEP_PROCESSES = 3
# Hard limit on one invocation; each child gets what is left of it.
DEADLINE_S = 170.0
# Worker environment: one BLAS/OpenMP thread, and a fixed string-hash seed,
# because a random one changes a process's speed by up to 15% from one
# process to the next.
WORKER_ENV = {
    **{
        var: "1"
        for var in (
            "OMP_NUM_THREADS",
            "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS",
        )
    },
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    pass


def run_worker(role: str, args, deadline: float, seconds: float = 0.0) -> dict:
    """Run one worker role in a fresh process and return its JSON result."""
    command = [
        sys.executable, str(BENCH / "worker.py"), role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--scale", args.scale,
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"out of time before the {role} worker")
    try:
        done = subprocess.run(
            command, cwd=ROOT, env={**os.environ, **WORKER_ENV},
            stdout=subprocess.PIPE, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{role} worker did not finish in {remaining:.0f} s") from exc
    if done.returncode != 0:
        raise BenchError(f"{role} worker exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{role} worker printed no result")
    return json.loads(lines[-1])


def provenance(args) -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as info:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in info if line.startswith("model name")),
                None,
            )
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "src_sha256": source.hexdigest(),
        **git_state(),
    }


def git_state() -> dict:
    """Commit and dirty flag, when the checkout is a git repository."""
    if not (ROOT / ".git").exists():
        return {"git_commit": None, "git_dirty": None}
    env = {
        **os.environ,
        "GIT_CEILING_DIRECTORIES": str(ROOT.parent),
        "GIT_CONFIG_NOSYSTEM": "1",
        "GIT_CONFIG_GLOBAL": os.devnull,
    }

    def git(*argv):
        return subprocess.run(
            ["git", *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )

    try:
        head = git("rev-parse", "HEAD")
        status = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.TimeoutExpired):
        return {"git_commit": None, "git_dirty": None}
    if head.returncode != 0:
        return {"git_commit": None, "git_dirty": None}
    return {"git_commit": head.stdout.strip(), "git_dirty": bool(status.stdout.strip())}


def end_to_end(args, deadline: float) -> tuple[dict, dict, dict]:
    setups = [run_worker("setup", args, deadline)["setup_s"] for _ in range(SETUP_REPS)]
    # Sweeps are spread over several fresh processes: a process's speed
    # varies with its memory layout and hash seed by more than its sweeps
    # vary among themselves.
    workers = []
    began = time.monotonic()
    while True:
        workers.append(run_worker("sweep", args, deadline, args.seconds / SWEEP_SLICES))
        elapsed = time.monotonic() - began
        if len(workers) >= MIN_SWEEP_PROCESSES and elapsed * (len(workers) + 1) / len(workers) > args.seconds:
            break

    times = [t for w in workers for t in w["sweep_times"]]
    wall = [t for w in workers for t in w["sweep_wall_times"]]
    speeds = [v for w in workers for v in w["speeds"]]
    sweep_s = statistics.median(times)
    cycles = workers[0]["cycles"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "sweep_s": (sweep_s, "s"),
        "peak_rss_mb": (max(w["peak_rss_mb"] for w in workers), "MB"),
    }
    shown = dict(metrics)
    shown["sweep_s_max"] = (max(times), "s")
    if cycles:
        shown["cycles_per_s"] = (cycles / sweep_s, "1/s")
    shown["sweep_wall_s"] = (statistics.median(wall), "s")
    shown["machine_speed"] = (statistics.median(speeds), "ratio")
    digests = {w["report_sha256"] for w in workers}
    detail = {
        "report_sha256": workers[0]["report_sha256"],
        "determinism_mismatches": sum(w["determinism_mismatches"] for w in workers) + len(digests) - 1,
        "violations": workers[0]["violations"],
        "attempted": sum(w["attempted"] for w in workers),
        "failed": sum(w["failed"] for w in workers),
        "sweep_times": times,
        "sweep_wall_times": wall,
        "speeds": speeds,
        "sweeps_per_process": [len(w["sweep_times"]) for w in workers],
        "setup_times": setups,
        "cycles": cycles,
        "numpy_version": workers[0]["numpy_version"],
        "pingpong_file": workers[0]["pingpong_file"],
    }
    return metrics, shown, detail


def per_layer(args, deadline: float) -> tuple[dict, dict, dict]:
    trace = run_worker("trace", args, deadline, args.seconds)
    metrics = {name: (m["value"], m["unit"]) for name, m in trace.pop("metrics").items()}
    return metrics, dict(metrics), trace


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="toy shrinks every run, for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "pingpong" / "__init__.py").is_file():
        print(f"error: no pingpong package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    info = provenance(args)
    try:
        if args.trace:
            metrics, shown, detail = per_layer(args, deadline)
        else:
            metrics, shown, detail = end_to_end(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    violations = detail["violations"]
    deterministic = detail["determinism_mismatches"] == 0
    restored = not detail.get("unrestored")
    correct = not violations and deterministic and restored
    shown["failed_run_frac"] = (detail["failed"] / detail["attempted"], "fraction")
    shown["oracle_violations"] = (len(violations), "count")
    info.update(numpy=detail["numpy_version"], pingpong_file=detail["pingpong_file"])

    for key, value in info.items():
        print(f"{key:<24} {value}")
    for name, (value, unit) in shown.items():
        print(f"{name:<48} {value:>14.6g} {unit}")
    print(f"{'sweeps':<48} {len(detail['sweep_times']):>14d} count")
    if "sweeps_per_process" in detail:
        print(f"{'sweep_processes':<48} {len(detail['sweeps_per_process']):>14d} count")
    print(f"{'report_sha256':<24} {detail['report_sha256']}")
    print(f"{'deterministic':<24} {deterministic}")
    if args.trace:
        print(f"{'bindings_wrapped':<24} {detail['bindings_wrapped']}")
        print(f"{'bindings_restored':<24} {restored}")
        print(f"{'missing_targets':<24} {detail['missing_targets']}")
        print(f"{'spans_file':<24} {detail['spans_file']} ({detail['spans']} spans)")
    for line in violations:
        print(f"oracle violation: {line}")

    WORK_DIR.mkdir(exist_ok=True)
    record = {
        "provenance": info,
        "correct": correct,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in shown.items()},
        "detail": detail,
    }
    out = WORK_DIR / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": correct,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
