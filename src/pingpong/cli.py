"""Experiment runner and report emitter.

Runs are configured either from a JSON spec file or from single-run flags,
executed in order, and written as JSON or CSV with a stable schema. Every
run carries its own seed; reports echo it so any row can be replayed exactly.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import numbers
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import attacks
from . import control as control_mode
from .protocol import (
    KINDS,
    MAX_CYCLES,
    MAX_DIM,
    QUBIT_SINGLET,
    QUDIT_CORRELATED,
    ProtocolConfig,
    Transcript,
    run_sessions,
)
from .rand import MESSAGE_TAG, SCORE_TAG, stream

REPORT_FIELDS = (
    "attack",
    "control",
    "dim",
    "kind",
    "cycles",
    "control_prob",
    "trials",
    "seed",
    "status",
    "p_det_analytic",
    "p_det_empirical",
    "ci_low",
    "ci_high",
    "eve_mu_accuracy",
    "eve_nu_accuracy",
    "message_integrity",
    "n_message_cycles",
    "n_control_cycles",
    "wall_clock_s",
    "error",
)

_RUN_DEFAULTS = {"cycles": 1000, "control_prob": 0.25, "trials": 10000, "kind": "auto"}

# Upper bound on a run's detection trials. The sampler draws its uniforms in
# fixed-size chunks, so memory stays bounded while time grows with the count:
# a CLI run at the bound takes ~0.4-0.5 s on a 2-core machine, both for cnot
# under two-basis control (2 x 10^7 uniforms drawn) and for qudit-shift at
# D=32 under computational control (10^7 drawn, the one-basis menu's 10^7
# basis uniforms skipped by counter). MAX_DIM and MAX_CYCLES come from
# `protocol`.
MAX_TRIALS = 10**7


def _integer(field: str, value) -> int:
    """A spec integer: integral floats such as 1e5 pass; bools, strings and
    fractional values are rejected rather than truncated."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{field} must be an integer, got {value!r}")


def _real(field: str, value) -> float:
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"{field} must be a number, got {value!r}")


def _message(value) -> tuple[tuple[int, int], ...]:
    """A spec message: a list of [mu, nu] pairs of spec integers."""
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(pair, (list, tuple)) and len(pair) == 2 for pair in value
    ):
        raise ValueError("message must be a list of [mu, nu] integer pairs")
    return tuple((_integer("message", mu), _integer("message", nu)) for mu, nu in value)


def sig12(value: float) -> float:
    """Round to 12 significant digits, the report's numeric precision."""
    return float(f"{value:.12g}")


@dataclass(frozen=True)
class RunSpec:
    attack: str
    control: str
    dim: int
    kind: str
    cycles: int
    control_prob: float
    trials: int
    seed: int
    message: Optional[tuple[tuple[int, int], ...]] = None

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("dim must be >= 2")
        if self.dim > MAX_DIM:
            raise ValueError(f"dim must be <= {MAX_DIM}, got {self.dim}")
        if self.cycles < 0:
            raise ValueError("cycles must be >= 0")
        if self.cycles > MAX_CYCLES:
            raise ValueError(f"cycles must be <= {MAX_CYCLES}, got {self.cycles}")
        if not 0.0 <= self.control_prob <= 1.0:  # NaN fails both comparisons
            raise ValueError(f"control_prob must be in [0, 1], got {self.control_prob}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.trials > MAX_TRIALS:
            raise ValueError(f"trials must be <= {MAX_TRIALS}, got {self.trials}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        kind = self.resolved_kind
        if kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")

    @property
    def resolved_kind(self) -> str:
        if self.kind != "auto":
            return self.kind
        return QUBIT_SINGLET if self.dim == 2 else QUDIT_CORRELATED

    @classmethod
    def from_dict(cls, raw: dict) -> "RunSpec":
        known = {"attack", "control", "dim", "seed", *_RUN_DEFAULTS, "message"}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown run fields: {sorted(unknown)}")
        for required in ("attack", "control", "dim", "seed"):
            if required not in raw:
                raise ValueError(f"run is missing required field {required!r}")
        merged = {**_RUN_DEFAULTS, **raw}
        message = merged.get("message")
        if message is not None:
            message = _message(message)
        return cls(
            attack=str(merged["attack"]),
            control=str(merged["control"]),
            dim=_integer("dim", merged["dim"]),
            kind=str(merged["kind"]),
            cycles=_integer("cycles", merged["cycles"]),
            control_prob=_real("control_prob", merged["control_prob"]),
            trials=_integer("trials", merged["trials"]),
            seed=_integer("seed", merged["seed"]),
            message=message,
        )


def load_spec(path: str | Path) -> list[RunSpec]:
    """Runs from a JSON spec: a list of run objects, or an object whose
    'runs' field is one."""
    payload = json.loads(Path(path).read_text())
    runs = payload.get("runs") if isinstance(payload, dict) else payload
    if not isinstance(runs, list) or not all(isinstance(raw, dict) for raw in runs):
        raise ValueError("spec must be a list of run objects or an object with a 'runs' list")
    return [RunSpec.from_dict(raw) for raw in runs]


def draw_message(dim: int, length: int, seed: int) -> np.ndarray:
    """Uniform symbol pairs from the dedicated message stream, as a
    (length, 2) integer array."""
    return stream(seed, MESSAGE_TAG).integers(0, dim, size=(length, 2))


def score_session(transcript: Transcript, dim: int, seed: int) -> dict:
    """Per-symbol eavesdropper accuracy and message integrity of a transcript.

    Abstaining readouts and the phase symbol are scored with uniform guesses
    drawn from the scoring stream, one per guess in cycle order: a message
    cycle takes the mu guess first when Eve abstains, then the nu guess.
    """
    n_msg = len(transcript.guess)
    abstain = transcript.guess < 0
    takes = 1 + abstain  # scoring draws per message cycle
    draws = stream(seed, SCORE_TAG).integers(dim, size=n_msg + int(abstain.sum()))
    first = np.cumsum(takes) - takes
    mu_hat = np.where(abstain, draws[first], transcript.guess)
    nu_hat = draws[first + abstain]
    sent = transcript.symbols
    mu_hits = int(np.count_nonzero(mu_hat == sent[:, 0]))
    nu_hits = int(np.count_nonzero(nu_hat == sent[:, 1]))
    intact = int(np.count_nonzero((transcript.decoded == sent).all(axis=1)))
    return {
        "n_message_cycles": n_msg,
        "n_control_cycles": len(transcript) - n_msg,
        "eve_mu_accuracy": sig12(mu_hits / n_msg) if n_msg else None,
        "eve_nu_accuracy": sig12(nu_hits / n_msg) if n_msg else None,
        "message_integrity": sig12(intact / n_msg) if n_msg else None,
    }


def _group_key(spec: RunSpec) -> tuple:
    """A run's configuration: the attack (and a digest of a generic family
    file's contents), the control, dim and kind. A key lives for one call,
    so the process's 64-bit hash of the contents serves as the digest."""
    digest = None
    if spec.attack.startswith(attacks.GENERIC_PREFIX):
        family = Path(spec.attack[len(attacks.GENERIC_PREFIX):])
        try:
            digest = hash(family.read_bytes())
        except OSError:
            pass  # each run reports the error when it loads the file
    return (spec.attack, digest, spec.control, spec.dim, spec.resolved_kind)


def _walk(specs: list[RunSpec], eve, mode) -> dict:
    """Each run's session fields and seconds, for runs of one configuration
    walked together: a transcript is scored as soon as it is yielded, and a
    run is charged its scoring time plus its cycles' share of the walk."""
    cfgs = [ProtocolConfig(s.dim, s.control_prob, s.cycles, s.seed, s.resolved_kind) for s in specs]
    messages = (s.message if s.message is not None else draw_message(s.dim, s.cycles, s.seed) for s in specs)
    fields, start = {}, time.perf_counter()
    for spec, result in zip(specs, run_sessions(cfgs, messages, eve, mode)):
        tick = time.perf_counter()
        done = (score_session(result, spec.dim, spec.seed) if isinstance(result, Transcript)
                else {"status": "error", "error": f"{type(result).__name__}: {result}"})
        fields[spec] = [done, time.perf_counter() - tick]
    share = (time.perf_counter() - start - sum(t for _, t in fields.values())) / sum(s.cycles for s in specs)
    for spec in specs:
        fields[spec][1] += share * spec.cycles
    return fields


def execute_run(spec: RunSpec, group: Optional[dict] = None) -> dict:
    """Execute one run; errors are reported in the row, not raised. `group`
    keeps what the runs of one configuration, `group["runs"]`, share: the
    handles and detection tables the first builds (a build that fails is not
    kept), and the session fields of them all, which the first run with cycles
    walks. `wall_clock_s` is the row's own detection and scoring time plus its
    cycles' share of that walk."""
    group = {} if group is None else group
    row = {field: None for field in REPORT_FIELDS}
    row.update(
        attack=spec.attack,
        control=spec.control,
        dim=spec.dim,
        kind=spec.resolved_kind,
        cycles=spec.cycles,
        control_prob=sig12(spec.control_prob),
        trials=spec.trials,
        seed=spec.seed,
        status="ok",
    )
    start = time.perf_counter()
    try:
        cfg = ProtocolConfig(spec.dim, spec.control_prob, spec.cycles, spec.seed, spec.resolved_kind)
        if "tables" not in group:
            eve = attacks.from_name(spec.attack, spec.dim)
            mode = control_mode.from_name(spec.control, cfg)
            group.update(eve=eve, mode=mode, tables=control_mode._born_tables(eve, mode, cfg))
        eve, mode = group["eve"], group["mode"]
        detection = control_mode.empirical_pdet(eve, mode, cfg, spec.trials, group["tables"])
        row.update(
            p_det_analytic=sig12(detection.p_analytic),
            p_det_empirical=sig12(detection.p_empirical),
            ci_low=sig12(detection.ci_low),
            ci_high=sig12(detection.ci_high),
        )
        if spec.cycles > 0:
            if "sessions" not in group:
                runs = dict.fromkeys(group.get("runs", [spec]))  # equal specs, equal sessions
                tick = time.perf_counter()
                group["sessions"] = _walk([run for run in runs if run.cycles > 0], eve, mode)
                start += time.perf_counter() - tick  # the walk is charged to its runs by their shares
            fields, spent = group["sessions"][spec]
            row.update(fields)
            start -= spent
    except Exception as exc:  # noqa: BLE001 - per-run isolation is the contract
        row["status"] = "error"
        row["error"] = f"{type(exc).__name__}: {exc}"
    row["wall_clock_s"] = sig12(time.perf_counter() - start)
    return row


def run_experiments(specs: Sequence[RunSpec]) -> list[dict]:
    """Execute runs one after another; rows keep the spec order. Runs of one
    configuration (`_group_key`) share one group, which lists them and is
    dropped after their last: only groups with runs to come are held."""
    keys = [_group_key(spec) for spec in specs]
    last = {key: i for i, key in enumerate(keys)}
    groups: dict = {}
    for spec, key in zip(specs, keys):
        groups.setdefault(key, {"runs": []})["runs"].append(spec)
    rows = []
    for i, (spec, key) in enumerate(zip(specs, keys)):
        rows.append(execute_run(spec, groups[key]))
        if last[key] == i:
            del groups[key]
    return rows


def emit(rows: list[dict], fmt: str, path: str | Path | None) -> str:
    """Serialize rows as JSON (array of objects) or CSV; write when given a path."""
    if fmt == "json":
        text = json.dumps(rows, indent=2) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=REPORT_FIELDS, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _csv_cell(row.get(k)) for k in REPORT_FIELDS})
        text = buf.getvalue()
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if path is not None:
        Path(path).write_text(text)
    return text


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pingpong-sim",
        description="Run ping-pong protocol eavesdropping experiments.",
    )
    parser.add_argument("--spec", help="JSON experiment spec file (excludes single-run flags)")
    parser.add_argument("--attack", help=" | ".join(attacks.ATTACK_NAMES))
    parser.add_argument("--control", help=" | ".join(control_mode.CONTROL_MODES))
    parser.add_argument("--dim", type=int)
    parser.add_argument("--kind", choices=("auto",) + KINDS, default=None)
    parser.add_argument("--cycles", type=int, default=None)
    parser.add_argument("--control-prob", type=float, default=None)
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--message", default=None, help="fixed symbols, e.g. '01,10,23' (digit pairs)")
    parser.add_argument("--output", default=None, help="report path (stdout when omitted)")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def _parse_message(text: str) -> tuple[tuple[int, int], ...]:
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if len(chunk) != 2 or not chunk.isdigit():
            raise ValueError(f"message chunk {chunk!r} is not a digit pair")
        pairs.append((int(chunk[0]), int(chunk[1])))
    return tuple(pairs)


def _specs(args: argparse.Namespace) -> list[RunSpec]:
    """The runs the parsed flags ask for; usage errors raise ValueError."""
    single_flags = (args.attack, args.control, args.dim, args.seed)
    if args.spec is not None:
        if any(v is not None for v in single_flags) or args.message is not None:
            raise ValueError("--spec excludes single-run flags")
        return load_spec(args.spec)
    if any(v is None for v in single_flags):
        raise ValueError("single-run mode requires --attack, --control, --dim and --seed")
    raw = {
        "attack": args.attack,
        "control": args.control,
        "dim": args.dim,
        "seed": args.seed,
    }
    if args.kind is not None:
        raw["kind"] = args.kind
    if args.cycles is not None:
        raw["cycles"] = args.cycles
    if args.control_prob is not None:
        raw["control_prob"] = args.control_prob
    if args.trials is not None:
        raw["trials"] = args.trials
    if args.message is not None:
        raw["message"] = _parse_message(args.message)
    return [RunSpec.from_dict(raw)]


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        specs = _specs(args)
        if args.output is not None and not Path(args.output).parent.is_dir():
            raise ValueError(f"no directory {str(Path(args.output).parent)!r} for --output")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    rows = run_experiments(specs)
    text = emit(rows, args.format, args.output)
    if args.output is None:
        sys.stdout.write(text)
    errors = [(i, row["error"]) for i, row in enumerate(rows) if row["status"] != "ok"]
    for index, message in errors:
        print(f"run {index} failed: {message}", file=sys.stderr)
    return 0 if not errors else 1


if __name__ == "__main__":
    raise SystemExit(main())
