"""Experiment runner and report emitter.

Runs are configured either from a JSON spec file or from single-run flags,
executed in order, and written as JSON or CSV with a stable schema. Every
run carries its own seed; reports echo it so any row can be replayed exactly.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
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
    MAX_DIM,  # noqa: F401 - re-exported beside MAX_CYCLES and MAX_TRIALS
    QUBIT_SINGLET,
    QUDIT_CORRELATED,
    ProtocolConfig,
    Transcript,
    as_integer,
    message_pairs,
)
from .rand import CHUNK, MESSAGE_TAG, SCORE_TAG, below, words
from .session import run_sessions

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

# Upper bound on a run's detection trials. The failure count is one binomial
# draw, so neither time nor memory grows with it. MAX_DIM and MAX_CYCLES come
# from `protocol`.
MAX_TRIALS = 10**7


def _message(value) -> tuple[tuple[int, int], ...]:
    """A spec message: a list of [mu, nu] pairs of spec integers."""
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(pair, (list, tuple)) and len(pair) == 2 for pair in value
    ):
        raise ValueError("message must be a list of [mu, nu] integer pairs")
    return tuple((as_integer("message", mu), as_integer("message", nu)) for mu, nu in value)


def sig12(value: float) -> float:
    """Round to 12 significant digits, the report's numeric precision."""
    return float(f"{value:.12g}")


@dataclass(frozen=True)
class RunSpec:
    """One run. `config` is its ProtocolConfig, built once here; that checks
    dim, kind, control_prob and seed, and the spec checks the rest: the
    attack and control names against their registries (a `generic:<file>`
    attack's file is read when the run builds it) and a fixed message's
    symbols against dim. A message too short for the session's message
    cycles, whose number depends on the draws, is an error of its run."""

    attack: str
    control: str
    dim: int
    seed: int
    kind: str = "auto"
    cycles: int = 1000
    control_prob: float = 0.25
    trials: int = 10000
    message: Optional[tuple[tuple[int, int], ...]] = None
    config: ProtocolConfig = dataclasses.field(init=False, compare=False, repr=False)

    def __post_init__(self):
        for name in ("attack", "control", "kind"):
            object.__setattr__(self, name, str(getattr(self, name)))
        for name in ("cycles", "trials"):
            object.__setattr__(self, name, as_integer(name, getattr(self, name)))
        if self.cycles < 0:
            raise ValueError("cycles must be >= 0")
        if self.cycles > MAX_CYCLES:
            raise ValueError(f"cycles must be <= {MAX_CYCLES}, got {self.cycles}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.trials > MAX_TRIALS:
            raise ValueError(f"trials must be <= {MAX_TRIALS}, got {self.trials}")
        if self.message is not None:
            object.__setattr__(self, "message", _message(self.message))
        attacks.check_name(self.attack)
        control_mode.check_name(self.control)
        kind = self.kind
        if kind == "auto":
            kind = QUBIT_SINGLET if self.dim == 2 else QUDIT_CORRELATED
        config = ProtocolConfig(self.dim, self.control_prob, self.cycles, self.seed, kind)
        for name in ("dim", "control_prob", "seed"):
            object.__setattr__(self, name, getattr(config, name))
        object.__setattr__(self, "config", config)
        if self.message is not None:
            message_pairs(self.message, self.dim)

    @property
    def resolved_kind(self) -> str:
        return self.config.initial_state_kind

    @classmethod
    def from_dict(cls, raw: dict) -> "RunSpec":
        names = [f for f in dataclasses.fields(cls) if f.init]
        unknown = set(raw) - {f.name for f in names}
        if unknown:
            raise ValueError(f"unknown run fields: {sorted(unknown)}")
        for f in names:
            if f.default is dataclasses.MISSING and f.name not in raw:
                raise ValueError(f"run is missing required field {f.name!r}")
        return cls(**raw)


def load_spec(path: str | Path) -> list[RunSpec]:
    """Runs from a JSON spec: a list of run objects, or an object whose
    'runs' field is one."""
    payload = json.loads(Path(path).read_text())
    runs = payload.get("runs") if isinstance(payload, dict) else payload
    if not isinstance(runs, list) or not all(isinstance(raw, dict) for raw in runs):
        raise ValueError("spec must be a list of run objects or an object with a 'runs' list")
    return [RunSpec.from_dict(raw) for raw in runs]


def draw_messages(dims, lengths, seeds) -> list:
    """Each run's message, a (length, 2) array: the first 2 * length words
    of its message stream, decoded below dim, in pair order."""
    return [below(words(seed, MESSAGE_TAG, 0, 2 * length), dim).reshape(-1, 2)
            for dim, length, seed in zip(dims, lengths, seeds)]


def score_sessions(transcripts: Sequence[Transcript], dims, seeds) -> list[dict]:
    """Each transcript's per-symbol eavesdropper accuracy and message integrity.

    Abstaining readouts and the phase symbol are scored with uniform guesses
    below dim, the words of each transcript's score stream in cycle order:
    a message cycle takes the mu guess first when Eve abstains, then the nu
    guess. The hits are counted by transcript in one pass over their
    columns, which a lone transcript is scored off without a copy.
    """
    one = len(transcripts) == 1
    join = (lambda cols: cols[0]) if one else np.concatenate
    guess, sent, decoded = (join([getattr(t, name) for t in transcripts]) for name in ("guess", "symbols", "decoded"))
    n_msg = np.array([len(t.guess) for t in transcripts], dtype=np.int64)
    run = None if one else np.repeat(np.arange(len(transcripts)), n_msg)  # each message cycle's transcript
    count = (lambda hit: [np.count_nonzero(hit)]) if one else (lambda hit: np.bincount(run[hit], minlength=len(transcripts)))
    abstain = guess < 0
    takes = 1 + abstain  # scoring draws per message cycle
    draws = join([below(words(seed, SCORE_TAG, 0, m), dim) for seed, dim, m in zip(seeds, dims, n_msg + count(abstain))])
    first = np.cumsum(takes) - takes
    mu_hat = np.where(abstain, draws[first], guess)
    nu_hat = draws[first + abstain]
    hits = (count(mu_hat == sent[:, 0]), count(nu_hat == sent[:, 1]), count((decoded == sent).all(axis=1)))
    return [
        {
            "n_message_cycles": n,
            "n_control_cycles": len(t) - n,
            "eve_mu_accuracy": sig12(mu_hits / n) if n else None,
            "eve_nu_accuracy": sig12(nu_hits / n) if n else None,
            "message_integrity": sig12(intact / n) if n else None,
        }
        for t, n, mu_hits, nu_hits, intact in zip(transcripts, n_msg.tolist(), *(np.asarray(h).tolist() for h in hits))
    ]


def _handles(spec: RunSpec) -> tuple:
    """The run's Eve handle and control mode, which their registries build once per process."""
    return attacks.from_name(spec.attack, spec.dim), control_mode.from_name(spec.control, spec.config)


def _scored(group: dict) -> dict:
    """The session fields of each run in `group`, a dict of runs to their
    transcripts, from one `score_sessions` call."""
    return dict(zip(group, score_sessions(list(group.values()), [s.dim for s in group], [s.seed for s in group])))


def _walk(batch: dict) -> dict:
    """Each run's session fields from one `run_sessions` walk of `batch`'s
    runs, by session tree (Eve's handle, dim, kind) in order of first
    appearance, and its time: its transcript's `walk_s` plus its cycles'
    share of the rest. A run whose handles fail to build is left out: its
    row reports the error from detection. The messages come from one
    `draw_messages` call, and the transcripts are scored as they are
    yielded, in groups of at most `rand.CHUNK` cycles (a longer one alone),
    with one `score_sessions` call a group."""
    start, fields, group, held, trees, spent = time.perf_counter(), {}, {}, 0, {}, {}
    for spec in batch:
        try:
            eve, mode = _handles(spec)
        except Exception:  # noqa: BLE001 - left out: detection reports it
            continue
        trees.setdefault((id(eve), spec.dim, spec.resolved_kind), []).append((spec, eve, mode))
    runs, eves, modes = zip(*(run for tree in trees.values() for run in tree))  # holds at least the calling run
    fresh = [spec for spec in runs if spec.message is None]
    drawn = iter(draw_messages([s.dim for s in fresh], [s.cycles for s in fresh], [s.seed for s in fresh]))
    messages = [next(drawn) if s.message is None else s.message for s in runs]
    for spec, result in zip(runs, run_sessions([run.config for run in runs], messages, eves, modes)):
        if not isinstance(result, Transcript):
            fields[spec] = {"status": "error", "error": f"{type(result).__name__}: {result}"}
            continue
        if group and held + len(result) > CHUNK:
            fields.update(_scored(group))
            group, held = {}, 0
        group[spec], held, spent[spec] = result, held + len(result), result.walk_s
        if held >= CHUNK:  # a long transcript is not held while the walk goes on
            fields.update(_scored(group))
            group, held = {}, 0
    fields.update(_scored(group) if group else {})
    share = (time.perf_counter() - start - sum(spent.values())) / sum(s.cycles for s in runs)
    return {spec: [fields[spec], spent.get(spec, 0.0) + share * spec.cycles] for spec in runs}


def execute_run(spec: RunSpec, batch: Optional[dict] = None) -> dict:
    """Execute one run; errors are reported in the row, not raised. `batch`
    maps the call's distinct runs with cycles to their session fields and
    times, None until the first of them to need its own walks them all
    (`_walk`); without it the run walks alone. The handles are the
    registries' (`_handles`), and p_det is computed once per process per
    handle pair (`control.analytic_pdet`), so a later run makes only its
    binomial draw. `wall_clock_s` is the row's own detection time plus the
    walk time `_walk` charges it."""
    batch = {spec: None} if batch is None else batch
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
        detection = control_mode.empirical_pdet(*_handles(spec), spec.config, spec.trials)
        row.update(
            p_det_analytic=sig12(detection.p_analytic),
            p_det_empirical=sig12(detection.p_empirical),
            ci_low=sig12(detection.ci_low),
            ci_high=sig12(detection.ci_high),
        )
        if spec.cycles > 0:
            if batch[spec] is None:
                tick = time.perf_counter()
                batch.update(_walk(batch))
                start += time.perf_counter() - tick  # the walk is charged to its runs by their shares
            fields, spent = batch[spec]
            row.update(fields)
            start -= spent
    except Exception as exc:  # noqa: BLE001 - per-run isolation is the contract
        row["status"] = "error"
        row["error"] = f"{type(exc).__name__}: {exc}"
    row["wall_clock_s"] = sig12(time.perf_counter() - start)
    return row


def run_experiments(specs: Sequence[RunSpec]) -> list[dict]:
    """Execute runs one after another; rows keep the spec order. Each run
    takes one dict of the call's distinct runs with cycles (`execute_run`),
    which does not outlive the call. Each handle is built inside a run; the
    registries build each once per process, and Eve's handles keep their
    p_det values and narrow session trees, so a later call builds none."""
    batch = dict.fromkeys(spec for spec in specs if spec.cycles)
    return [execute_run(spec, batch) for spec in specs]


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
    run_fields = [f for f in dataclasses.fields(RunSpec) if f.init]
    raw = {f.name: getattr(args, f.name) for f in run_fields if getattr(args, f.name) is not None}
    if args.spec is not None:
        if raw:
            raise ValueError("--spec excludes single-run flags")
        return load_spec(args.spec)
    required = [f.name for f in run_fields if f.default is dataclasses.MISSING]
    if not raw.keys() >= set(required):
        raise ValueError("single-run mode requires " + ", ".join(f"--{name}" for name in required))
    if "message" in raw:
        raw["message"] = _parse_message(raw["message"])
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
