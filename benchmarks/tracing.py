"""Tracing for the benchmark's traced runs, from outside the program.

A Tracer replaces regretsim's public functions at the module attributes
through which the program looks them up (``regretsim.dynamics.run``, not
``regretsim.run``), and puts the originals back when it is uninstalled.

- Per-round functions are counted: a call count and a summed duration. The
  duration is also charged to the innermost open span of the calling thread.
- Coarser functions are recorded as spans with their parent span. A span's
  self time is its duration minus its child spans and the counted calls
  charged to it. Spans opened in ``batch_run``'s worker threads have no
  parent, because the pool does not carry the caller's span stack.

Spans stay in memory; the workload writes them out when the run ends. A name
that the program no longer has is skipped and reads as zero calls.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import itertools
import os
import threading
import time
from collections import defaultdict

# (module, attribute, counter name)
COUNTED = (
    ("regretsim.dynamics", "expected_loss_vector", "game.expected_loss_vector"),
    ("regretsim.dynamics", "validate_game", "game.validate_game"),
    ("regretsim.learners", "step", "learners.step"),
)

# (module, attribute); the span name is "<last module part>.<attribute>".
SPANNED = (
    ("regretsim.dynamics", "run"),
    ("regretsim.dynamics", "run_streaming"),
    ("regretsim.dynamics", "batch_run"),
    ("regretsim.dynamics", "regret_report"),
    ("regretsim.dynamics", "empirical_joint_distribution"),
    ("regretsim.dynamics", "cce_gap"),
    ("regretsim.dynamics", "trajectory_to_csv"),
    ("regretsim.dynamics", "regret_curves_to_csv"),
    ("regretsim.diagnostics", "fd_decay_profile"),
    ("regretsim.diagnostics", "regret_bound_terms"),
    ("regretsim.diagnostics", "check_variance_inequality"),
    ("regretsim.diagnostics", "consecutive_closeness"),
    ("regretsim.diagnostics", "fd_profile_values_csv"),
    ("regretsim.diagnostics", "fd_profile_norms_csv"),
    ("regretsim.cli", "parse_config"),
    ("regretsim.cli", "run_experiment"),
)

MB = 1e6


class Tracer:
    """Counts and spans recorded while installed; one instance per traced repetition."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, list] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _counted(self, name: str, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack = self._stack()
                if stack:
                    stack[-1]["counted_s"] += elapsed
                with self._lock:
                    entry = self.counts.setdefault(name, [0, 0.0])
                    entry[0] += 1
                    entry[1] += elapsed
        return wrapper

    def _spanned(self, name: str, fn):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            stack = self._stack()
            span = {"id": next(self._ids), "name": name,
                    "parent": stack[-1]["id"] if stack else None,
                    "thread": threading.get_ident(), "child_s": 0.0, "counted_s": 0.0}
            stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1]["child_s"] += span["end"] - span["start"]
                self.spans.append(span)
            span.update(_describe(signature, args, kwargs, result))
            return result
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for module_name, attr, name in COUNTED:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is not None:
                    saved.append((module, attr, fn))
                    setattr(module, attr, self._counted(name, fn))
            for module_name, attr in SPANNED:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is not None:
                    saved.append((module, attr, fn))
                    setattr(module, attr, self._spanned(f"{module_name.rsplit('.', 1)[-1]}.{attr}", fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)


def _describe(signature, args, kwargs, result) -> dict:
    """Work sizes of one span: rounds, games, bytes written, history bytes."""
    try:
        bound = signature.bind(*args, **kwargs).arguments
    except TypeError:
        bound = {}
    info = {}
    if isinstance(bound.get("rounds"), int):
        info["rounds"] = bound["rounds"]
    if "seeds" in bound:
        info["games"] = len(bound["seeds"])
    if "path" in bound and os.path.isfile(bound["path"]):
        info["bytes"] = os.path.getsize(bound["path"])
    history = getattr(result, "strategies", None), getattr(result, "losses", None)
    if all(isinstance(h, list) for h in history):
        info["history_bytes"] = sum(a.nbytes for h in history for a in h)
    return info


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced repetition, by the names BENCHMARK.json lists."""
    spans = defaultdict(list)
    for span in tracer.spans:
        spans[span["name"]].append(span)

    def duration(span):
        return span["end"] - span["start"]

    def self_time(span):
        return duration(span) - span["child_s"] - span["counted_s"]

    def total(name, of=duration):
        return sum(of(s) for s in spans[name])

    def per_game_round(name, of):
        game_rounds = sum(s.get("rounds", 0) * s.get("games", 1) for s in spans[name])
        return 1e6 * total(name, of) / game_rounds if game_rounds else 0.0

    def megabytes(name):
        return sum(s.get("bytes", 0) for s in spans[name]) / MB

    out: dict[str, float] = {}
    for name in ("game.expected_loss_vector", "learners.step"):
        calls, seconds = tracer.counts.get(name, (0, 0.0))
        out[f"{name}.calls"] = calls
        out[f"{name}.us_per_call"] = 1e6 * seconds / calls if calls else 0.0
    out["game.validate_game.calls"] = tracer.counts.get("game.validate_game", (0, 0.0))[0]
    out["dynamics.run.self_us_per_game_round"] = per_game_round("dynamics.run", self_time)
    out["dynamics.batch_run.us_per_game_round"] = per_game_round("dynamics.batch_run", duration)
    out["dynamics.run_streaming.self_us_per_game_round"] = per_game_round(
        "dynamics.run_streaming", self_time)
    for name in ("dynamics.regret_report", "dynamics.empirical_joint_distribution",
                 "dynamics.cce_gap", "diagnostics.regret_bound_terms",
                 "diagnostics.check_variance_inequality", "diagnostics.consecutive_closeness",
                 "diagnostics.fd_profile_norms_csv", "cli.parse_config"):
        out[f"{name}.s"] = total(name)
    out["dynamics.history_mb"] = max(
        (s.get("history_bytes", 0) for s in spans["dynamics.run"]), default=0) / MB
    for name in ("dynamics.trajectory_to_csv", "dynamics.regret_curves_to_csv",
                 "diagnostics.fd_profile_values_csv"):
        out[f"{name}.s"] = total(name)
        out[f"{name}.mb"] = megabytes(name)
    out["diagnostics.fd_decay_profile.calls"] = len(spans["diagnostics.fd_decay_profile"])
    out["diagnostics.fd_decay_profile.s"] = total("diagnostics.fd_decay_profile")
    out["cli.run_experiment.self_s"] = total("cli.run_experiment", self_time)
    return out
