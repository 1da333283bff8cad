"""Outside-in spans around replab's layer entry points, and the per-layer
metrics computed from them.

Each entry point is wrapped once, at the name its caller looks up:
``cli`` imports ``simulate`` and ``analytic_long_run_effort`` by name, and
``verifier`` imports ``compute_values`` by name, so those are wrapped in
the importing module; everything else is looked up as a module attribute
(``fei.check_fei`` from ``cli``, ``equilibria`` and ``bounds`` alike, since
all three hold the same ``replab.fei`` module object) and is wrapped there.
Wrapping one function at two names would count each call twice.

Spans carry name, start, end, parent and thread, plus a few figures read
off the call's arguments or result, and stay in memory until the run
ends. A span opened on a worker thread with no open span of its own takes
the root span (``cli.main``) as its parent.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    thread: int
    start: float
    end: float = 0.0
    notes: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _states(automaton) -> dict:
    return {"states": len(automaton.states)}


@dataclass(frozen=True)
class EntryPoint:
    name: str  # "<defining module>.<function>" as reported
    module: str  # module whose attribute the caller looks up
    attr: str
    note: Optional[Callable] = None  # (args, result) -> dict of span notes


ENTRY_POINTS = (
    EntryPoint("cli.main", "replab.cli", "main"),
    EntryPoint(
        "fei.check_fei", "replab.fei", "check_fei",
        lambda a, r: {"key": (a[0], a[1])},
    ),
    EntryPoint(
        "equilibria.construct_full_effort", "replab.equilibria", "construct_full_effort"
    ),
    EntryPoint(
        "equilibria.construct_non_efe", "replab.equilibria", "construct_non_efe",
        lambda a, r: _states(r[0]),
    ),
    EntryPoint(
        "equilibria.automaton_from_dict", "replab.equilibria", "automaton_from_dict",
        lambda a, r: _states(r[0]),
    ),
    EntryPoint(
        "equilibria.compute_values", "replab.verifier", "compute_values",
        lambda a, r: _states(a[0]),
    ),
    EntryPoint(
        "verifier.verify", "replab.verifier", "verify",
        lambda a, r: {"passed": bool(r.passed)},
    ),
    EntryPoint("bounds.outside_option_bound", "replab.bounds", "outside_option_bound"),
    EntryPoint("bounds.minimize_g", "replab.bounds", "minimize_g"),
    EntryPoint(
        "simulate.simulate", "replab.cli", "run_simulation",
        lambda a, r: {"path_periods": a[3].paths * a[3].horizon},
    ),
    EntryPoint(
        "simulate.analytic_long_run_effort", "replab.cli", "analytic_long_run_effort"
    ),
)


class Tracer:
    """Records spans while installed; ``with Tracer() as t:`` wraps every
    entry point and restores the originals on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: Optional[int] = None
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, entry: EntryPoint, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else self._root
            with self._lock:
                span = Span(next(self._ids), entry.name, parent,
                            threading.get_ident(), 0.0)
                self.spans.append(span)
            if self._root is None:
                self._root = span.id
            stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if self._root == span.id:
                    self._root = None
            if entry.note is not None:
                span.notes = entry.note(args, result)
            return result

        wrapper.__perfbench_entry__ = entry.name
        return wrapper

    def __enter__(self) -> "Tracer":
        for entry in ENTRY_POINTS:
            module = importlib.import_module(entry.module)
            func = getattr(module, entry.attr)
            if hasattr(func, "__perfbench_entry__"):
                self.__exit__(None, None, None)
                raise RuntimeError(f"{entry.module}.{entry.attr} is already wrapped")
            self._saved.append((module, entry.attr, func))
            setattr(module, entry.attr, self._wrap(entry, func))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, func = self._saved.pop()
            setattr(module, attr, func)


# --- per-layer metrics --------------------------------------------------------

# (name, unit, better); the order is the order BENCHMARK.json lists them in.
LAYER_METRICS = (
    ("simulate.simulate.s", "s", "lower"),
    ("simulate.simulate.path_periods_per_s", "1/s", "higher"),
    ("simulate.uniforms_mb", "MB-computed", "lower"),
    ("simulate.analytic_long_run_effort.s", "s", "lower"),
    ("equilibria.compute_values.s", "s", "lower"),
    ("equilibria.compute_values.calls", "count", "lower"),
    ("equilibria.compute_values.max_states", "count", "lower"),
    ("equilibria.compute_values.dense_mb", "MB-computed", "lower"),
    ("verifier.verify.s", "s", "lower"),
    ("verifier.verify.self_s", "s", "lower"),
    ("verifier.verify.calls", "count", "lower"),
    ("verifier.verify.passed_ratio", "ratio", "higher"),
    ("verifier.verify.p50_ms", "ms", "lower"),
    ("verifier.verify.p98_ms", "ms", "lower"),
    ("equilibria.construct_non_efe.s", "s", "lower"),
    ("equilibria.construct_non_efe.calls", "count", "lower"),
    ("equilibria.construct_non_efe.states", "count", "lower"),
    ("equilibria.construct_full_effort.s", "s", "lower"),
    ("equilibria.construct_full_effort.calls", "count", "lower"),
    ("equilibria.automaton_from_dict.s", "s", "lower"),
    ("equilibria.automaton_from_dict.calls", "count", "lower"),
    ("equilibria.automaton_from_dict.states", "count", "lower"),
    ("fei.check_fei.s", "s", "lower"),
    ("fei.check_fei.calls", "count", "lower"),
    ("fei.check_fei.distinct_ratio", "ratio", "higher"),
    ("fei.check_fei.p50_us", "us", "lower"),
    ("fei.check_fei.p98_us", "us", "lower"),
    ("bounds.outside_option_bound.s", "s", "lower"),
    ("bounds.outside_option_bound.calls", "count", "lower"),
    ("bounds.minimize_g.s", "s", "lower"),
    ("bounds.minimize_g.calls", "count", "lower"),
    ("cli.main.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.concurrency", "ratio", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

UNITS = {name: unit for name, unit, _ in LAYER_METRICS}

# Figures that are exact counts: they must repeat exactly between traced runs.
EXACT_SUFFIXES = (".calls", ".states", ".max_states")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the part of [lo, hi] that the union of ``intervals`` covers."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Every per-layer figure except ``trace.overhead_s`` from one traced
    run's spans. A layer that was never called reads 0."""
    by_name: dict[str, list[Span]] = {}
    children: dict[int, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def total(name: str) -> float:
        return sum(s.duration for s in by_name.get(name, ()))

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    def noted(name: str, key: str) -> list:
        return [s.notes[key] for s in by_name.get(name, ())]

    def self_time(s: Span) -> float:
        kids = [(k.start, k.end) for k in children.get(s.id, ())]
        return s.duration - _covered(kids, s.start, s.end)

    m: dict[str, float] = {}
    path_periods = sum(noted("simulate.simulate", "path_periods"))
    m["simulate.simulate.s"] = total("simulate.simulate")
    m["simulate.simulate.path_periods_per_s"] = _ratio(path_periods, m["simulate.simulate.s"])
    m["simulate.uniforms_mb"] = path_periods * 4 * 8 / 1e6
    m["simulate.analytic_long_run_effort.s"] = total("simulate.analytic_long_run_effort")

    solve_states = noted("equilibria.compute_values", "states")
    max_states = max(solve_states, default=0)
    m["equilibria.compute_values.s"] = total("equilibria.compute_values")
    m["equilibria.compute_values.calls"] = calls("equilibria.compute_values")
    m["equilibria.compute_values.max_states"] = max_states
    m["equilibria.compute_values.dense_mb"] = max_states * max_states * 8 / 1e6

    verify_ms = [s.duration * 1e3 for s in by_name.get("verifier.verify", ())]
    m["verifier.verify.s"] = total("verifier.verify")
    m["verifier.verify.self_s"] = sum(self_time(s) for s in by_name.get("verifier.verify", ()))
    m["verifier.verify.calls"] = calls("verifier.verify")
    m["verifier.verify.passed_ratio"] = _ratio(
        sum(noted("verifier.verify", "passed")), calls("verifier.verify")
    )
    m["verifier.verify.p50_ms"] = _percentile(verify_ms, 50)
    m["verifier.verify.p98_ms"] = _percentile(verify_ms, 98)

    for name in ("equilibria.construct_non_efe", "equilibria.construct_full_effort",
                 "equilibria.automaton_from_dict", "bounds.outside_option_bound",
                 "bounds.minimize_g"):
        m[f"{name}.s"] = total(name)
        m[f"{name}.calls"] = calls(name)
    m["equilibria.construct_non_efe.states"] = sum(noted("equilibria.construct_non_efe", "states"))
    m["equilibria.automaton_from_dict.states"] = sum(
        noted("equilibria.automaton_from_dict", "states")
    )

    fei_us = [s.duration * 1e6 for s in by_name.get("fei.check_fei", ())]
    m["fei.check_fei.s"] = total("fei.check_fei")
    m["fei.check_fei.calls"] = calls("fei.check_fei")
    m["fei.check_fei.distinct_ratio"] = _ratio(
        len(set(noted("fei.check_fei", "key"))), calls("fei.check_fei")
    )
    m["fei.check_fei.p50_us"] = _percentile(fei_us, 50)
    m["fei.check_fei.p98_us"] = _percentile(fei_us, 98)

    mains = by_name.get("cli.main", [])
    if len(mains) != 1:
        raise ValueError(f"expected one cli.main span, got {len(mains)}")
    main = mains[0]
    top = children.get(main.id, [])
    m["cli.main.s"] = main.duration
    m["cli.self_s"] = self_time(main)
    m["cli.concurrency"] = _ratio(sum(s.duration for s in top), main.duration)
    return m


def count_mismatches(runs: list[dict[str, float]]) -> list[str]:
    """Exact-count figures that differ between traced runs."""
    return sorted(
        name for name in runs[0]
        if name.endswith(EXACT_SUFFIXES) and len({r[name] for r in runs}) != 1
    )


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    return {name: float(statistics.median(r[name] for r in runs)) for name in runs[0]}
