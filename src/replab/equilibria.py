"""Construct the two benchmark equilibria as strategy automata.

Both constructions start from the cutoff witness (S*, v_bar) of the
full-effort-incentive check.

Full-effort: the incumbent works as long as every signal has passed the
cutoff test; the first failing signal triggers certain replacement. The
state reached by that first failing signal keeps the prior belief (the
predecessor retained with probability one, so the update pools); beliefs
after a certainly-replaced state are unconstrained and set to 0.

No-eventual-full-effort: three regimes within a career. Before the first
passing signal (FirstRegime) the voter replaces with fixed probability
x = 1 - v_tilde/v_hat, keeping the incumbent exactly indifferent, while
the opportunist's effort is set to hold the voter's expected effort at
the outside option net of the replacement cost, e* = pi0 + (1-pi0) a0 - c;
since reputation falls with each failing signal, effort rises along the
chain. From the first passing signal on (SecondRegime), play mirrors the
full-effort construction with frozen beliefs. A failing signal there
(ThirdRegime) triggers certain replacement. The closed forms:

    v_bar  = (1-delta)(1-kappa) / (1 - delta f1*)
    v_tilde = v_bar - ((1-delta)/delta) kappa / (f1* - f0*)
    v_hat  = (1-delta)(1-kappa) + delta [f1* v_bar + (1-f1*) v_tilde]
           = (1-delta)         + delta [f0* v_bar + (1-f0*) v_tilde]
    x      = 1 - v_tilde / v_hat

FirstRegime states are memoized by belief rounded to 1e-12; the chain of
failing signals therefore closes into a self-loop once beliefs underflow,
making desk-scale automata finite.

The tree of states (beliefs, efforts, regimes and next states) reads only
pi0, c, a0, f0, f1, S*, the depth and the state cap; a0 in turn reads only
(pi0, c, f0, f1). kappa and delta enter only through x, the FirstRegime
replacement probability. The last tree and the last a0 are kept, so a
sweep that moves kappa and delta under one precision builds one tree.
"""
from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass, field, replace
from itertools import repeat
from operator import itemgetter
from typing import Optional

import numpy as np

from . import fei
from .errors import (
    FeiFails,
    IndifferenceOutOfRange,
    NoFeasibleA0,
    ReplacementCostTooLargeForConstruction,
    ValidationError,
    Violation,
)
from .model import (
    GameParams, MonitoringStructure, _as_float, _bisect, _posterior, model_from_dict,
    model_to_dict,
)

REGIME_INITIAL = "Initial"
REGIME_FIRST = "FirstRegime"
REGIME_SECOND = "SecondRegime"
REGIME_THIRD = "ThirdRegime"
REGIME_PASS = "Pass"
REGIME_DEAD = "Dead"

BELIEF_KEY_DECIMALS = 12
A0_BISECTION_TOL = 1e-10  # width at which select_a0 stops bisecting
MAX_STATES = 100_000  # cap on a non-efe automaton's materialized states
DEFAULT_DEPTH = 200  # failing signals the FirstRegime tree extends to by default
_UNIT_FIELDS = ("replace_prob", "effort_prob", "belief")


def _violations(units, regime, kind, initial, n, name, middle) -> list[Violation]:
    """Violations in check order: numbers outside [0, 1], regimes that are not
    strings, a mistyped kind, ``middle``, the initial; ``name(i)`` is i's id."""
    bad, every = [], np.concatenate(units)
    if every.size and not (0.0 <= every.min() and every.max() <= 1.0):  # NaN is neither
        for field_name, values in zip(_UNIT_FIELDS, units):
            inside = (values >= 0.0) & (values <= 1.0)
            if not inside.all():
                out = np.flatnonzero(~inside)
                bad.append(Violation(
                    "BadState", f"{field_name} is not a number in [0, 1] in {len(out)} "
                    f"state(s), first {float(values[out[0]])!r} at state {name(out[0])!r}",
                ))
    labels = regime.tolist()
    try:
        "".join(labels)  # one C pass that refuses what isinstance(label, str) would
    except TypeError:
        not_str = [i for i, label in enumerate(labels) if not isinstance(label, str)]
        bad.append(Violation("BadState", f"regime is not a string in {len(not_str)} "
                             f"state(s), first at state {name(not_str[0])!r}"))
    if not isinstance(kind, str):
        bad.append(Violation("BadAutomatonFile", f"kind must be a string, got {kind!r}"))
    bad += middle
    if not (isinstance(initial, (int, np.integer)) and not isinstance(initial, bool)
            and 0 <= initial < n):
        bad.append(Violation("BadInitial", f"initial state {initial!r} outside [0, {n})"))
    return bad


@dataclass(eq=False)
class EquilibriumAutomaton:
    """Strategy automaton over career histories, held as arrays over states
    0 .. n-1: vectors ``replace_prob`` (the voter's, on arrival; ignored at
    the initial state), ``effort_prob`` (the opportunist's, if retained),
    ``belief`` and ``regime`` (each state's regime label, a string), and the
    (n, S) ``next_state`` array, columns in ``signals`` order, with -1 for
    an unmaterialized branch of a lazy tree (:attr:`complete` is then False).

    Building one copies the arrays into read-only ones (``regime`` of
    object dtype) and checks them with array expressions, raising
    :class:`ValidationError` with every violation: numbers outside [0, 1]
    (NaN too), regimes that are not strings, a mistyped ``kind``, one per
    next state outside [-1, n), and an initial state outside [0, n); arrays
    of the wrong shape or type first. Immutable, and safe to share across
    threads.
    """

    replace_prob: np.ndarray
    effort_prob: np.ndarray
    belief: np.ndarray
    next_state: np.ndarray
    regime: np.ndarray
    initial: int
    signals: tuple[str, ...]
    kind: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        units = [np.array(v, dtype=float) for v in
                 (self.replace_prob, self.effort_prob, self.belief)]
        regime, nxt = np.array(self.regime, dtype=object), np.array(self.next_state)
        n = len(units[2])
        if not (all(v.shape == (n,) for v in (*units, regime))
                and nxt.shape == (n, len(self.signals)) and nxt.dtype.kind in "iu"):
            raise ValidationError([Violation("BadState", "need float vectors and a regime "
                                             "of length n, integer next_state (n, S)")])
        middle = [] if not nxt.size or (nxt.min() >= -1 and nxt.max() < n) else [
            Violation("BadTransition", f"{q} --{self.signals[j]}--> {nxt[q, j]}: "
                      f"state outside [0, {n})")
            for q, j in np.argwhere((nxt < -1) | (nxt >= n)).tolist()
        ]
        bad = _violations(units, regime, self.kind, self.initial, n, int, middle)
        if bad:
            raise ValidationError(bad)
        self.replace_prob, self.effort_prob, self.belief = units
        self.next_state, self.regime = nxt, regime
        for array in (*units, nxt, regime):
            array.flags.writeable = False

    @property
    def states(self) -> range:
        """The state ids, 0 .. n-1."""
        return range(len(self.belief))

    @property
    def complete(self) -> bool:
        """Whether every branch is materialized: no -1 in ``next_state``."""
        return bool((self.next_state >= 0).all())


def check_signals(automaton: EquilibriumAutomaton, monitoring: MonitoringStructure) -> None:
    """Refuse a monitoring whose signals are not the automaton's in its
    column order (``SignalMismatch``): its next-state columns would be read
    against another signal's probabilities."""
    if tuple(automaton.signals) != tuple(monitoring.signals):
        raise ValidationError([Violation("SignalMismatch", f"automaton signals "
                                         f"{automaton.signals!r} are not {monitoring.signals!r}")])


@dataclass(frozen=True)
class NonEfeParameters:
    """Closed-form quantities pinning the no-eventual-full-effort automaton."""

    lam: float
    s_star: tuple[str, ...]
    f1_star: float
    f0_star: float
    v_bar: float
    v_tilde: float
    v_hat: float
    x: float
    a0: float


def construct_full_effort(
    params: GameParams, monitoring: MonitoringStructure
) -> EquilibriumAutomaton:
    """Full-effort equilibrium automaton.

    Requires the incentive check to hold and c <= 1 - pi0. Three states:
    the initial/passing state (work, retain), the state reached by the
    first failing signal (certain replacement, prior belief preserved by
    the pooling update), and an absorbing dead state with belief 0, which
    is unconstrained because its predecessor replaces with probability 1."""
    cert = fei.check_fei(params, monitoring)
    if not cert.holds:
        raise FeiFails("full-effort incentives fail; no full-effort equilibrium exists")
    if params.c > 1.0 - params.pi0:
        raise ReplacementCostTooLargeForConstruction(
            f"need c <= 1 - pi0, got c={params.c}, pi0={params.pi0}"
        )
    w = cert.witness
    dead = [2] * len(monitoring.signals)
    return EquilibriumAutomaton(
        replace_prob=[0.0, 1.0, 1.0], effort_prob=[1.0, 0.0, 0.0],
        belief=[params.pi0, params.pi0, 0.0],
        next_state=[[0 if s in w.s_star else 1 for s in monitoring.signals], dead, dead],
        regime=[REGIME_PASS, REGIME_DEAD, REGIME_DEAD], initial=0,
        signals=monitoring.signals, kind="full-effort",
        meta={"v_bar": w.v_bar, "s_star": list(w.s_star)},
    )


def non_efe_parameters(params: GameParams, monitoring: MonitoringStructure) -> NonEfeParameters:
    """Closed forms (v_bar, v_tilde, v_hat, x) from the cutoff witness,
    plus the default initial effort probability a0 (see :func:`select_a0`)."""
    cert = fei.check_fei(params, monitoring)
    if not cert.holds:
        raise FeiFails("full-effort incentives fail; construction unavailable")
    w = cert.witness
    delta, kappa = params.delta, params.kappa
    v_bar = w.v_bar
    v_tilde = v_bar - (1.0 - delta) / delta * kappa / (w.f1_star - w.f0_star)
    v_hat = (1.0 - delta) * (1.0 - kappa) + delta * (
        w.f1_star * v_bar + (1.0 - w.f1_star) * v_tilde
    )
    return NonEfeParameters(
        lam=w.lam, s_star=w.s_star, f1_star=w.f1_star, f0_star=w.f0_star, v_bar=v_bar,
        v_tilde=v_tilde, v_hat=v_hat, x=1.0 - v_tilde / v_hat, a0=select_a0(params, monitoring),
    )


def indifference_effort(e_star: float, belief: float) -> float:
    """Work probability that holds the voter's expected effort at ``e_star``
    given reputation ``belief``; must land strictly inside (0, 1), which
    no effort does at belief 1."""
    a = (e_star - belief) / (1.0 - belief) if belief < 1.0 else math.nan
    if not 0.0 < a < 1.0:
        raise IndifferenceOutOfRange(
            f"voter-indifferent effort {a!r} at belief {belief!r} not in (0, 1)"
        )
    return a


def _a0_slack(pi0: float, c: float, f0: tuple, f1: tuple, a: float) -> float:
    """Feasibility margin of an initial effort probability, -inf outside
    (c/(1-pi0), 1): the voter must prefer replacement at any belief one
    update can reach from the prior."""
    if not c / (1.0 - pi0) < a < 1.0:
        return -math.inf
    worst = max([_posterior(pi0, a, q1, q0) for q0, q1 in zip(f0, f1)])
    return pi0 + (1.0 - pi0) * a - c - worst


def select_a0(params: GameParams, monitoring: MonitoringStructure) -> float:
    """Default initial effort probability: bisect for the smallest feasible
    a_min over (c/(1-pi0), 1), then return the interior point (1+a_min)/2."""
    return _a0(params.pi0, params.c, tuple(monitoring.f0), tuple(monitoring.f1))


@functools.lru_cache(maxsize=1)
def _a0(pi0: float, c: float, f0: tuple, f1: tuple) -> float:
    """:func:`select_a0` on the only inputs it reads; the last answer is kept,
    since a sweep asks for one (pi0, c, f0, f1) many times in a row."""
    def feasible(a: float) -> bool:
        return _a0_slack(pi0, c, f0, f1, a) >= 0.0

    lo, hi = c / (1.0 - pi0) + 1e-12, 1.0 - 1e-12  # 1e-12 inside (c/(1-pi0), 1)
    if not feasible(hi):
        raise NoFeasibleA0("no feasible initial effort probability near 1")
    a_min = lo if feasible(lo) else _bisect(feasible, lo, hi, A0_BISECTION_TOL)[1]
    a0 = 0.5 * (1.0 + a_min)
    if not feasible(a0):
        raise NoFeasibleA0("midpoint rule landed on an infeasible a0")
    return a0


def check_depth(max_depth: int) -> None:
    """The FirstRegime tree's depth cap must be nonnegative."""
    if max_depth < 0:
        raise ValidationError([Violation("BadDepth", f"max_depth {max_depth!r} is negative")])


def construct_non_efe(
    params: GameParams,
    monitoring: MonitoringStructure,
    a0_override: Optional[float] = None,
    max_depth: int = DEFAULT_DEPTH,
) -> tuple[EquilibriumAutomaton, NonEfeParameters]:
    """No-eventual-full-effort equilibrium automaton.

    Requires the incentive check to hold and c < 1 - pi0. The FirstRegime
    tree extends lazily up to ``max_depth`` failing signals (``MAX_STATES``
    caps the total); belief-key memoization closes binary chains into a
    finite automaton well before the default depth. The tree is :func:`_tree`'s,
    kept from the last call with the same inputs; x is set on its FirstRegime states.
    """
    check_depth(max_depth)
    if params.c >= 1.0 - params.pi0:
        raise ReplacementCostTooLargeForConstruction(
            f"need c < 1 - pi0, got c={params.c}, pi0={params.pi0}"
        )
    base = non_efe_parameters(params, monitoring)
    pi0, f0, f1 = params.pi0, tuple(monitoring.f0), tuple(monitoring.f1)
    if a0_override is not None:
        if _a0_slack(pi0, params.c, f0, f1, a0_override) < 0.0:
            raise NoFeasibleA0(f"a0 override {a0_override!r} is outside (c/(1-pi0), 1) "
                               "or fails the feasibility bound")
        base = replace(base, a0=a0_override)
    e_star = pi0 + (1.0 - pi0) * base.a0 - params.c
    passing = tuple(s in base.s_star for s in monitoring.signals)
    regime, effort_prob, belief, nxt, first, third = _tree(
        pi0, base.a0, e_star, f1, f0, passing, max_depth, MAX_STATES)
    automaton = EquilibriumAutomaton(
        replace_prob=np.where(first, base.x, third),
        effort_prob=effort_prob, belief=belief, next_state=nxt, regime=regime,
        initial=0, signals=monitoring.signals, kind="non-efe",
        meta={**fei.cutoff_to_dict(base), "e_star": e_star},
    )
    return automaton, base


@functools.lru_cache(maxsize=1)
def _tree(pi0, a0, e_star, f1, f0, passing, max_depth, cap) -> tuple:
    """The non-efe automaton but for the FirstRegime replacement probability
    x, which is all that kappa and delta reach: read-only ``regime``,
    ``effort_prob``, ``belief`` and ``next_state`` arrays, then the
    FirstRegime and ThirdRegime masks that place x and certain replacement.
    At most ``cap`` states are built; a branch that would pass it, or a
    FirstRegime state deeper than ``max_depth``, is left at -1. The last
    tree built is kept, so a sweep that holds the precision while it moves
    kappa and delta builds each tree once."""
    n_signals = len(passing)
    likelihoods = list(enumerate(zip(f1, f0)))

    # per-state fields, and the next-state array flattened row by row
    regime, effort_prob, beliefs, nxt = [], [], [], []
    first_ids, second_ids = {}, {}  # state id by belief key

    def add_state(label, sigma_p, belief, row) -> int:
        regime.append(label)
        effort_prob.append(sigma_p)
        beliefs.append(belief)
        nxt.extend(row)
        return len(regime) - 1

    open_row = [-1] * n_signals  # filled in when the state is expanded
    initial = add_state(REGIME_INITIAL, a0, pi0, open_row)
    dead_row = [initial + 1] * n_signals  # the absorbing state, added next
    add_state(REGIME_THIRD, 0.0, 0.0, dead_row)

    # Breadth-first materialization of the pre-first-pass tree, a depth at a time.
    level, depth = [initial], 0
    while level:
        deeper = []
        for sid in level:
            belief, effort = beliefs[sid], effort_prob[sid]
            for j, (q1, q0) in likelihoods:
                nxt_belief = _posterior(belief, effort, q1, q0) if belief > 0.0 else 0.0
                b = round(nxt_belief, BELIEF_KEY_DECIMALS)
                if passing[j]:
                    if b not in second_ids:  # then the ThirdRegime state it fails into
                        if len(regime) + 2 > cap:
                            continue  # no room for the pair; the edge stays open
                        new = second_ids[b] = len(regime)
                        add_state(REGIME_SECOND, 1.0, b, [new if p else new + 1 for p in passing])
                        add_state(REGIME_THIRD, 0.0, b, dead_row)
                    nxt[sid * n_signals + j] = second_ids[b]
                    continue
                if b not in first_ids:
                    if depth + 1 > max_depth or len(regime) >= cap:
                        continue  # frontier left unmaterialized
                    first_ids[b] = add_state(
                        REGIME_FIRST, indifference_effort(e_star, b), b, open_row)
                    deeper.append(first_ids[b])
                nxt[sid * n_signals + j] = first_ids[b]
        level, depth = deeper, depth + 1

    labels = np.array(regime, dtype=object)
    arrays = (labels, np.array(effort_prob), np.array(beliefs),
              np.array(nxt, dtype=np.int64).reshape(-1, n_signals),
              labels == REGIME_FIRST, labels == REGIME_THIRD)
    for array in arrays:
        array.flags.writeable = False
    return arrays


# --- serialization ----------------------------------------------------------

def automaton_to_dict(
    automaton: EquilibriumAutomaton,
    params: GameParams,
    monitoring: MonitoringStructure,
) -> dict:
    """The automaton file's fields: states in id order, and transitions
    ordered by (from, signal name)."""
    by_name = sorted(range(len(automaton.signals)), key=automaton.signals.__getitem__)
    names, nxt = [automaton.signals[j] for j in by_name], automaton.next_state[:, by_name]
    src, col = np.nonzero(nxt >= 0)
    return {
        "states": [
            {"id": q, "regime": r, "replace_prob": v, "effort_prob": p, "belief": b}
            for q, r, v, p, b in zip(automaton.states, automaton.regime.tolist(),
                                     automaton.replace_prob.tolist(),
                                     automaton.effort_prob.tolist(), automaton.belief.tolist())
        ],
        "transitions": [
            {"from": q, "signal": names[j], "to": t}
            for q, j, t in zip(src.tolist(), col.tolist(), nxt[src, col].tolist())
        ],
        "initial": automaton.initial, "params_echo": model_to_dict(params, monitoring),
        "kind": automaton.kind, "complete": automaton.complete, "meta": automaton.meta,
    }


_FILE_FIELDS = ("params_echo", "states", "transitions", "initial")
_STATE_FIELDS = ("id", "regime", *_UNIT_FIELDS)


def _columns(rows: list, fields: tuple[str, ...]) -> list[list]:
    """Each field of every row, column by column. A malformed row raises the
    KeyError or TypeError that reading row by row would raise first."""
    try:
        return [list(map(itemgetter(name), rows)) for name in fields]
    except (KeyError, TypeError):
        [[row[name] for name in fields] for row in rows]  # raises the first row's error
        raise


def _unit_column(values: list) -> np.ndarray:
    """A state field as floats, with NaN, which the automaton refuses, for
    anything that is not a JSON number."""
    if set(map(type, values)) <= {float}:  # as automaton_to_dict writes it
        return np.array(values, dtype=float)
    return np.array([np.nan if x is None else x for x in map(_as_float, values)], dtype=float)


def automaton_from_dict(
    payload: dict,
) -> tuple[EquilibriumAutomaton, GameParams, MonitoringStructure]:
    """Inverse of :func:`automaton_to_dict` for a parsed automaton file,
    read column by column into arrays. States may come in any order of id;
    a transition listed twice keeps its last target.

    Raises :class:`ValidationError` for a malformed file: a missing or
    mistyped field, a ``params_echo`` that :func:`model_from_dict`
    rejects, a non-boolean ``complete`` (only type-checked: the transitions
    decide completeness), state ids other than 0 .. n-1, one violation per
    transition with a signal not in the model or a state outside [0, n),
    or an automaton that fails its own checks (:class:`EquilibriumAutomaton`).
    """
    if not isinstance(payload, dict):
        raise ValidationError([Violation("BadAutomatonFile", "not a JSON object")])
    missing = [name for name in _FILE_FIELDS if name not in payload]
    if missing:
        raise ValidationError(
            [Violation("MissingField", f"automaton file has no {name!r}") for name in missing]
        )
    params, monitoring = model_from_dict(payload["params_echo"])
    meta = payload.get("meta", {})
    if not isinstance(meta, dict):
        raise ValidationError([Violation("BadAutomatonFile", "meta is not a JSON object")])
    column = {s: j for j, s in enumerate(monitoring.signals)}
    try:
        rows = list(payload["states"])
        froms, signals, tos = _columns(list(payload["transitions"]), ("from", "signal", "to"))
        cols = np.fromiter(map(column.get, signals, repeat(-1)), np.int64, len(signals))
    except (KeyError, TypeError) as exc:
        raise ValidationError([Violation(
            "BadAutomatonFile", f"missing or mistyped field: {exc!r}")]) from exc
    try:
        ids, regimes, *units = _columns(rows, _STATE_FIELDS)
    except (KeyError, TypeError) as exc:
        raise ValidationError([Violation(
            "BadState", f"a state is not an object with {_STATE_FIELDS}: {exc!r}")]) from exc
    n, n_signals = len(rows), len(monitoring.signals)
    keys = [q if type(q) is int else -1 for q in ids]  # -1: refused below
    order = sorted(range(n), key=keys.__getitem__)
    kind, complete = payload.get("kind", "custom"), payload.get("complete", True)
    middle = [] if isinstance(complete, bool) else [
        Violation("BadAutomatonFile", f"complete must be a boolean, got {complete!r}")]
    if [keys[i] for i in order] != list(range(n)):
        middle.append(Violation("BadStateIds", "state ids must be 0 .. n-1"))

    def state_ids(values):  # each entry that is an integer in [0, n), else -1
        if set(map(type, values)) <= {int}:
            with contextlib.suppress(OverflowError):  # past int64: entry by entry below
                given = np.array(values, np.int64)
                return np.where((given >= 0) & (given < n), given, -1)
        return np.array([v if type(v) is int and 0 <= v < n else -1 for v in values], np.int64)

    src, dst = state_ids(froms), state_ids(tos)
    middle += [
        Violation("BadTransition", f"{froms[i]!r} --{signals[i]}--> {tos[i]!r}: " + (
            f"unknown signal {signals[i]!r}" if cols[i] < 0 else f"state outside [0, {n})"))
        for i in np.flatnonzero((cols < 0) | (src < 0) | (dst < 0)).tolist()
    ]
    units = [_unit_column(values)[order] for values in units]
    # fromiter keeps the array 1-D even where every entry is a list
    regime = np.fromiter(map(regimes.__getitem__, order), dtype=object, count=n)
    bad = _violations(units, regime, kind, payload["initial"], n,
                      lambda i: ids[order[i]], middle)
    if bad:
        raise ValidationError(bad)
    nxt = np.full((n, n_signals), -1, dtype=np.int64)
    last = np.full(nxt.size, -1)  # each edge's last entry in the file, which wins
    np.maximum.at(last, src * n_signals + cols, np.arange(len(src)))
    nxt.reshape(-1)[last >= 0] = dst[last[last >= 0]]
    automaton = EquilibriumAutomaton(
        replace_prob=units[0], effort_prob=units[1], belief=units[2], next_state=nxt,
        regime=regime, initial=payload["initial"], signals=monitoring.signals, kind=kind,
        meta=meta,
    )
    return automaton, params, monitoring
