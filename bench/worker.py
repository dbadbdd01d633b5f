"""One benchmark role in a fresh process; prints a JSON object as its last line.

Roles:
  setup  time to import pingpong from the checkout, generate the workload's
         inputs and build every handle and cached per-dimension table;
  sweep  a short warm-up, then untraced `run_experiments(specs)` calls for
         --seconds (at least one);
  trace  untraced and traced calls in adjacent pairs for --seconds (at least
         one pair); spans and per-layer metrics from the first traced call.

Run by `run.py`, with the checkout root as working directory:
  python3 bench/worker.py <role> --workload W --seed N --seconds S
"""

import time

START = time.perf_counter()  # before numpy or the package is imported

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = Path(".bench_work")  # relative, so report rows do not name the checkout
# The warm-up runs every spec this short, which builds each per-dimension
# table and takes every code path before the timed sweeps.
WARM_CYCLES = 8
WARM_TRIALS = 1000
# A calibration burst lasts this long, or this share of the sweep before it.
MIN_BURST_S = 0.2
BURST_SHARE = 0.1


def import_package():
    """Import pingpong from the checkout's src/ and prove it came from there."""
    sys.path.insert(0, str(SRC))
    import pingpong

    origin = Path(pingpong.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"pingpong was imported from {origin}, not from {SRC}")
    return pingpong


def build_specs(args):
    from pingpong.cli import RunSpec

    rows = workloads.build(args.workload, args.seed, WORK_DIR, args.scale)
    return [RunSpec.from_dict(row) for row in rows]


def role_setup(args) -> dict:
    import_package()
    from pingpong import attacks, control, protocol

    for spec in build_specs(args):
        cfg = protocol.ProtocolConfig(
            dim=spec.dim,
            control_prob=spec.control_prob,
            n_cycles=max(spec.cycles, 1),
            seed=spec.seed,
            initial_state_kind=spec.resolved_kind,
        )
        attacks.from_name(spec.attack, spec.dim)
        control.from_name(spec.control, cfg)
        protocol.make_initial_state(cfg)
        protocol.algebra(spec.dim)
        protocol.bell_states(cfg)
    return {"setup_s": time.perf_counter() - START}


def _warm_up(run_experiments, specs) -> None:
    """Fill the package's lazy caches with a short copy of every run."""
    run_experiments([
        dataclasses.replace(spec, cycles=min(spec.cycles, WARM_CYCLES), trials=min(spec.trials, WARM_TRIALS))
        for spec in specs
    ])


def _sweeps(run_experiments, specs, seconds: float, kernel: str) -> dict:
    """Timed sweeps while the next one fits in `seconds`; at least one.

    Each sweep sits between two calibration bursts; its scaled time is its
    wall time times the mean speed the bursts measured.
    """
    wall, speeds, digests, failed, attempted = [], [], [], 0, 0
    violations = None
    before = calibrate.speed(kernel, MIN_BURST_S)
    began = time.perf_counter()
    while not wall or time.perf_counter() - began + statistics.median(wall) <= seconds:
        tick = time.perf_counter()
        rows = run_experiments(specs)
        wall.append(time.perf_counter() - tick)
        after = calibrate.speed(kernel, max(MIN_BURST_S, BURST_SHARE * wall[-1]))
        speeds.append((before + after) / 2)
        before = after
        attempted += len(rows)
        failed += sum(row["status"] == "error" for row in rows)
        digests.append(oracle.report_hash(rows))
        if violations is None:
            violations = oracle.gate(rows)
    return {
        "report_sha256": digests[0],
        "determinism_mismatches": sum(digest != digests[0] for digest in digests),
        "sweep_times": [w * v for w, v in zip(wall, speeds)],
        "sweep_wall_times": wall,
        "speeds": speeds,
        "attempted": attempted,
        "failed": failed,
        "violations": violations,
    }


def _totals(specs) -> dict:
    return {
        "runs": len(specs),
        "cycles": sum(spec.cycles for spec in specs),
        "trials": sum(spec.trials for spec in specs),
    }


def _versions(pingpong) -> dict:
    import numpy

    return {
        "numpy_version": numpy.__version__,
        "pingpong_file": Path(pingpong.__file__).resolve().relative_to(ROOT).as_posix(),
    }


def role_sweep(args) -> dict:
    pingpong = import_package()
    from pingpong.cli import run_experiments

    specs = build_specs(args)
    _warm_up(run_experiments, specs)
    result = _sweeps(run_experiments, specs, args.seconds, workloads.KERNEL[args.workload])
    result.update(_totals(specs), **_versions(pingpong))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def role_trace(args) -> dict:
    """Untraced and traced sweeps in adjacent pairs; metrics from the first traced one.

    Pairing makes `trace_overhead` compare sweeps that ran seconds apart,
    so a drift in the machine's speed does not pass for tracing cost.
    """
    pingpong = import_package()
    from pingpong import cli
    from spans import Tracer

    specs = build_specs(args)
    _warm_up(cli.run_experiments, specs)
    kernel = workloads.KERNEL[args.workload]
    result = _sweeps(cli.run_experiments, specs, 0.0, kernel)
    untraced, traced, unrestored = result["sweep_wall_times"], [], []
    first = None
    began = time.perf_counter()
    while first is None or time.perf_counter() - began + untraced[-1] + traced[-1] <= args.seconds:
        if first is not None:
            extra = _sweeps(cli.run_experiments, specs, 0.0, kernel)
            untraced += extra["sweep_wall_times"]
            result["attempted"] += extra["attempted"]
            result["failed"] += extra["failed"]
            result["determinism_mismatches"] += extra["report_sha256"] != result["report_sha256"]
        tracer = Tracer()
        tracer.install()
        try:
            tick = time.perf_counter()
            rows = cli.run_experiments(specs)
            traced.append(time.perf_counter() - tick)
        finally:
            tracer.restore()
        unrestored += tracer.unrestored()
        result["attempted"] += len(rows)
        result["failed"] += sum(row["status"] == "error" for row in rows)
        result["determinism_mismatches"] += oracle.report_hash(rows) != result["report_sha256"]
        if first is None:
            first = tracer
    overhead = statistics.median(t / u for t, u in zip(traced, untraced))
    spans_file = WORK_DIR / f"spans-{args.workload}-{args.seed}.json"
    first.dump(spans_file)
    totals = _totals(specs)
    metrics = first.summarize(traced[0], overhead, totals["cycles"], totals["trials"], totals["runs"])
    result.update(totals, **_versions(pingpong))
    result.update(
        sweep_times=untraced,
        sweep_wall_times=untraced,
        traced_sweep_times=traced,
        metrics={name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        bindings_wrapped=len(first.patched),
        missing_targets=first.missing,
        unrestored=unrestored,
        spans=len(first.names),
        spans_file=str(spans_file),
    )
    return result


ROLES = {"setup": role_setup, "sweep": role_sweep, "trace": role_trace}


def main() -> int:
    parser = argparse.ArgumentParser(description="one benchmark role in a fresh process")
    parser.add_argument("role", choices=sorted(ROLES))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--scale", default="full")
    args = parser.parse_args()
    result = ROLES[args.role](args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
