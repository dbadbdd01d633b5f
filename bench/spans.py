"""Span tracer for the calls into each module's public functions.

The tracer wraps every target function at every binding the package holds
it under (`pingpong.protocol.measure` as well as `pingpong.qstate.measure`),
and the handle methods on each handle class that defines them. Each call
records a span: name, start, end, parent span and report row. Spans are kept
in memory, summarized into per-layer metrics, and written out on request.
`restore` puts every original binding back.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

TARGETS = {
    "rand": ("stream",),
    "qstate": ("apply", "measure", "tensor", "factor", "partial_trace", "complete_isometry"),
    "protocol": ("run_session", "dense_encode", "bob_decode", "make_initial_state"),
    "attacks": ("from_name",),
    "control": ("from_name", "empirical_pdet", "analytic_pdet", "fail_projector"),
    "cli": ("execute_run", "draw_message", "score_session"),
}
HANDLE_CLASSES = ("EavesdropperHandle", "InterceptResendHandle")
HANDLE_METHODS = ("attach", "forward", "backward", "readout", "coupled_branches")

# The span that opens a report row; every span under it carries its row id.
ROW_SPAN = "cli.execute_run"

SPAN_NAMES = tuple(
    [f"{module}.{fn}" for module, fns in TARGETS.items() for fn in fns]
    + [f"attacks.{method}" for method in HANDLE_METHODS]
)

# Which layer group each span's self time counts towards, for the check that
# every workload stresses the layers it was chosen for.
GROUPS = {
    "session": (
        "rand.stream", "qstate.apply", "qstate.measure", "qstate.tensor", "qstate.factor",
        "attacks.attach", "attacks.forward", "attacks.backward", "attacks.readout",
        "protocol.dense_encode", "protocol.bob_decode", "protocol.run_session",
    ),
    "detection": (
        "control.analytic_pdet", "control.fail_projector", "control.empirical_pdet",
        "qstate.partial_trace", "attacks.coupled_branches",
    ),
    "construction": (
        "attacks.from_name", "qstate.complete_isometry", "control.from_name",
        "protocol.make_initial_state",
    ),
    "cli": ("cli.execute_run", "cli.draw_message", "cli.score_session"),
}


def package_modules(package: str) -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == package or name.startswith(package + "."))
    ]


class Tracer:
    """Records one span per call into a wrapped function."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.rows: list[int] = []
        self.row = -1
        self._next_row = 0
        self._stack = [-1]
        self.patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _wrap(self, name: str, fn):
        names, starts, ends, parents, rows, stack = (
            self.names, self.starts, self.ends, self.parents, self.rows, self._stack
        )
        clock = time.perf_counter
        opens_row = name == ROW_SPAN
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if opens_row:
                tracer.row = tracer._next_row
                tracer._next_row += 1
            index = len(names)
            names.append(name)
            parents.append(stack[-1])
            rows.append(tracer.row)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
                if opens_row:
                    tracer.row = -1

        return span

    def install(self, package: str = "pingpong") -> None:
        """Wrap every target at every binding in the imported package."""
        modules = package_modules(package)
        for module_name, functions in TARGETS.items():
            home = sys.modules[f"{package}.{module_name}"]
            for fn_name in functions:
                span_name = f"{module_name}.{fn_name}"
                original = vars(home).get(fn_name)
                if original is None:
                    self.missing.append(span_name)
                    continue
                wrapper = self._wrap(span_name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self.patched.append((module, attr, original))
        attacks = sys.modules[f"{package}.attacks"]
        for method in HANDLE_METHODS:
            found = False
            for cls_name in HANDLE_CLASSES:
                cls = getattr(attacks, cls_name)
                if method in vars(cls):
                    original = vars(cls)[method]
                    setattr(cls, method, self._wrap(f"attacks.{method}", original))
                    self.patched.append((cls, method, original))
                    found = True
            if not found:
                self.missing.append(f"attacks.{method}")

    def restore(self) -> None:
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)

    def unrestored(self) -> list[str]:
        """Bindings that do not hold their original object (empty after restore)."""
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self.patched
            if vars(owner).get(attr) is not original
        ]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        child = [0.0] * len(durations)
        for parent, duration in zip(self.parents, durations):
            if parent >= 0:
                child[parent] += duration
        return [d - c for d, c in zip(durations, child)]

    def summarize(self, sweep_s: float, overhead: float, cycles: int, trials: int, runs: int) -> dict:
        """Per-layer metrics as {name: (value, unit)} for one traced sweep.

        `sweep_s` is the traced sweep's wall time and `overhead` its ratio to
        an untraced sweep.
        """
        names, parents = self.names, self.parents
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        own = self.self_times()
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        in_session = [False] * len(names)
        session_calls = {"qstate.apply": 0, "rand.stream": 0}
        session_s = empirical_s = 0.0
        for i, name in enumerate(names):
            calls[name] += 1
            self_s[name] += own[i]
            parent = parents[i]
            inside = parent >= 0 and in_session[parent]
            in_session[i] = inside or name == "protocol.run_session"
            if inside and name in session_calls:
                session_calls[name] += 1
            if name == "protocol.run_session":
                session_s += durations[i]
            elif name == "control.empirical_pdet":
                empirical_s += durations[i]
            elif name == "control.analytic_pdet" and parent >= 0 and names[parent] == "control.empirical_pdet":
                # trials/s measures the sampler, not the analytic value it also computes
                empirical_s -= durations[i]

        metrics = {}
        for name in SPAN_NAMES:
            metrics[f"{name}.calls"] = (calls[name], "count")
            metrics[f"{name}.self_s"] = (self_s[name], "s")
        metrics["protocol.run_session.cycles_per_s"] = (cycles / session_s if session_s else 0.0, "1/s")
        metrics["control.empirical_pdet.trials_per_s"] = (trials / empirical_s if empirical_s else 0.0, "1/s")
        for name, count in session_calls.items():
            metrics[f"{name}.calls_per_cycle"] = (count / cycles if cycles else 0.0, "calls/cycle")
        metrics["attacks.coupled_branches.calls_per_run"] = (calls["attacks.coupled_branches"] / runs, "calls/run")
        attributed = sum(own)
        metrics["trace.sweep_s"] = (sweep_s, "s")
        metrics["trace.unattributed_s"] = (sweep_s - attributed, "s")
        metrics["trace_overhead"] = (overhead, "ratio")
        for group, members in GROUPS.items():
            share = sum(self_s[name] for name in members) / attributed if attributed else 0.0
            metrics[f"group.{group}.share"] = (share, "fraction")
        return metrics

    def dump(self, path: Path) -> None:
        """Write every span as [name index, start, end, parent, row]."""
        table = sorted(set(self.names))
        index = {name: i for i, name in enumerate(table)}
        origin = self.starts[0] if self.starts else 0.0
        spans = [
            [index[n], round(s - origin, 9), round(e - origin, 9), p, r]
            for n, s, e, p, r in zip(self.names, self.starts, self.ends, self.parents, self.rows)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"names": table, "fields": ["name", "start_s", "end_s", "parent", "row"], "spans": spans}))

