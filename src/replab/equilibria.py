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
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import fei
from .errors import (
    FeiFails,
    IndifferenceOutOfRange,
    NoFeasibleA0,
    NonContractive,
    ReplacementCostTooLargeForConstruction,
    ValidationError,
    Violation,
)
from .model import (
    GameParams, MonitoringStructure, _as_float, bayes_update, model_from_dict, model_to_dict,
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
_UNIT_FIELDS = ("replace_prob", "effort_prob", "belief")


@dataclass(frozen=True)
class AutomatonState:
    id: int
    regime: str
    replace_prob: float  # voter's replacement probability on arrival; ignored at the initial state
    effort_prob: float   # opportunist's work probability if retained
    belief: float


@dataclass
class EquilibriumAutomaton:
    """Strategy automaton over career histories.

    ``transitions`` maps (state id, signal) to the successor id; a missing
    key marks an unmaterialized branch of a lazily generated tree
    (``complete`` is False in that case). Instances are immutable after
    construction and safe to share across threads.

    Building one checks it and raises :class:`ValidationError` listing
    every violation: state ids other than 0 .. n-1 in order, a probability
    or belief outside [0, 1] (NaN included), a regime or ``kind`` that is
    not a string, a ``complete`` that is not a bool, one violation per
    transition with a signal not in ``signals`` or a state outside [0, n),
    and an initial state outside [0, n).
    """

    states: list[AutomatonState]
    transitions: dict[tuple[int, str], int]
    initial: int
    signals: tuple[str, ...]
    kind: str
    complete: bool
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.states)
        units = [np.array([getattr(q, name) for q in self.states], dtype=float)
                 for name in _UNIT_FIELDS]
        bad = []
        for name, values in zip(_UNIT_FIELDS, units):
            out = np.flatnonzero(~((values >= 0.0) & (values <= 1.0)))  # NaN fails too
            if len(out):
                bad.append(Violation(
                    "BadState", f"{name} is not a number in [0, 1] in {len(out)} state(s), "
                    f"first {float(values[out[0]])!r} at state {self.states[out[0]].id!r}",
                ))
        not_str = [q.id for q in self.states if not isinstance(q.regime, str)]
        if not_str:
            bad.append(Violation("BadState", f"regime is not a string in {len(not_str)} "
                                 f"state(s), first at state {not_str[0]!r}"))
        if not (isinstance(self.kind, str) and isinstance(self.complete, bool)):
            bad.append(Violation("BadAutomatonFile", "kind must be a string and complete "
                                 f"a boolean, got {self.kind!r} and {self.complete!r}"))
        if any(type(q.id) is not int or q.id != i for i, q in enumerate(self.states)):
            bad.append(Violation("BadStateIds", "state ids must be 0 .. n-1"))

        def in_range(sid) -> bool:
            is_int = isinstance(sid, (int, np.integer)) and not isinstance(sid, bool)
            return is_int and 0 <= sid < n

        column = {s: i for i, s in enumerate(self.signals)}
        nxt = np.full((n, len(self.signals)), -1, dtype=np.int64)
        for (qid, sig), tid in self.transitions.items():
            if sig not in column:
                problem = f"unknown signal {sig!r}"
            elif not (in_range(qid) and in_range(tid)):
                problem = f"state outside [0, {n})"
            else:
                nxt[qid, column[sig]] = tid
                continue
            bad.append(Violation("BadTransition", f"{qid!r} --{sig}--> {tid!r}: {problem}"))
        if not in_range(self.initial):
            bad.append(Violation("BadInitial", f"initial state {self.initial!r} outside [0, {n})"))
        if bad:
            raise ValidationError(bad)
        self._arrays = (*units, nxt)
        for array in self._arrays:
            array.flags.writeable = False

    def state(self, state_id: int) -> AutomatonState:
        return self.states[state_id]

    def successor(self, state_id: int, signal: str) -> Optional[int]:
        return self.transitions.get((state_id, signal))

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(replace_prob, effort_prob, belief, next_state): per-state vectors
        and the (n, S) next-state array, columns in ``signals`` order, with
        -1 for a missing transition. Built once, when the automaton is, and
        read-only."""
        return self._arrays


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

    def to_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "s_star": list(self.s_star),
            "f1_star": self.f1_star,
            "f0_star": self.f0_star,
            "v_bar": self.v_bar,
            "v_tilde": self.v_tilde,
            "v_hat": self.v_hat,
            "x": self.x,
            "a0": self.a0,
        }


@dataclass
class ValueTable:
    """Continuation values of the opportunist at each automaton state,
    solving V(q) = (1-delta)(1 - kappa sigma_P(q))
                 + delta sum_s f_{sigma_P(q)}(s) [1 - sigma_V(succ)] V(succ).

    ``values`` and ``errors`` are indexed by state id. ``errors`` bounds
    the per-state truncation error from unmaterialized branches
    (identically 0 on complete automata).
    """

    values: np.ndarray
    errors: np.ndarray
    tail_bound: float


def construct_full_effort(
    params: GameParams, monitoring: MonitoringStructure
) -> EquilibriumAutomaton:
    """Full-effort equilibrium automaton.

    Requires the incentive check to hold and c <= 1 - pi0. Three states:
    the initial/passing state (work, retain), the state reached by the
    first failing signal (certain replacement, prior belief preserved by
    the pooling update), and an absorbing dead state with belief 0, which
    is unconstrained because its predecessor replaces with probability 1.
    """
    cert = fei.check_fei(params, monitoring)
    if not cert.holds:
        raise FeiFails("full-effort incentives fail; no full-effort equilibrium exists")
    if params.c > 1.0 - params.pi0:
        raise ReplacementCostTooLargeForConstruction(
            f"need c <= 1 - pi0, got c={params.c}, pi0={params.pi0}"
        )
    w = cert.witness
    s_star = set(w.s_star)
    states = [
        AutomatonState(0, REGIME_PASS, 0.0, 1.0, params.pi0),
        AutomatonState(1, REGIME_DEAD, 1.0, 0.0, params.pi0),
        AutomatonState(2, REGIME_DEAD, 1.0, 0.0, 0.0),
    ]
    transitions: dict[tuple[int, str], int] = {}
    for s in monitoring.signals:
        transitions[(0, s)] = 0 if s in s_star else 1
        transitions[(1, s)] = 2
        transitions[(2, s)] = 2
    return EquilibriumAutomaton(
        states=states,
        transitions=transitions,
        initial=0,
        signals=monitoring.signals,
        kind="full-effort",
        complete=True,
        meta={"v_bar": w.v_bar, "s_star": list(w.s_star)},
    )


def non_efe_parameters(
    params: GameParams, monitoring: MonitoringStructure
) -> NonEfeParameters:
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
    x = 1.0 - v_tilde / v_hat
    a0 = select_a0(params, monitoring)
    return NonEfeParameters(
        lam=w.lam,
        s_star=w.s_star,
        f1_star=w.f1_star,
        f0_star=w.f0_star,
        v_bar=v_bar,
        v_tilde=v_tilde,
        v_hat=v_hat,
        x=x,
        a0=a0,
    )


def indifference_effort(e_star: float, belief: float) -> float:
    """Work probability that holds the voter's expected effort at ``e_star``
    given reputation ``belief``; must land strictly inside (0, 1)."""
    a = (e_star - belief) / (1.0 - belief)
    if not 0.0 < a < 1.0:
        raise IndifferenceOutOfRange(
            f"voter-indifferent effort {a!r} at belief {belief!r} not in (0, 1)"
        )
    return a


def _a0_slack(params: GameParams, monitoring: MonitoringStructure, a: float) -> float:
    """Feasibility margin of an initial effort probability: the voter must
    prefer replacement at any belief one update can reach from the prior."""
    rhs = params.pi0 + (1.0 - params.pi0) * a - params.c
    worst = max(bayes_update(monitoring, params.pi0, a, s) for s in monitoring.signals)
    return rhs - worst


def select_a0(params: GameParams, monitoring: MonitoringStructure) -> float:
    """Default initial effort probability: bisect for the smallest feasible
    a_min over (c/(1-pi0), 1), then return the interior point (1+a_min)/2."""
    lo = params.c / (1.0 - params.pi0)
    hi = 1.0
    eps = 1e-12
    if _a0_slack(params, monitoring, hi - eps) < 0.0:
        raise NoFeasibleA0("no feasible initial effort probability near 1")
    if _a0_slack(params, monitoring, lo + eps) >= 0.0:
        a_min = lo + eps
    else:
        a, b = lo + eps, hi - eps
        while b - a > A0_BISECTION_TOL:
            mid = 0.5 * (a + b)
            if _a0_slack(params, monitoring, mid) >= 0.0:
                b = mid
            else:
                a = mid
        a_min = b
    a0 = 0.5 * (1.0 + a_min)
    if _a0_slack(params, monitoring, a0) < 0.0:
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
    max_depth: int = 200,
) -> tuple[EquilibriumAutomaton, NonEfeParameters]:
    """No-eventual-full-effort equilibrium automaton.

    Requires the incentive check to hold and c < 1 - pi0. The FirstRegime
    tree extends lazily up to ``max_depth`` failing signals (``MAX_STATES``
    caps the total); belief-key memoization closes binary chains into a
    finite automaton well before the default depth.
    """
    check_depth(max_depth)
    if params.c >= 1.0 - params.pi0:
        raise ReplacementCostTooLargeForConstruction(
            f"need c < 1 - pi0, got c={params.c}, pi0={params.pi0}"
        )
    base = non_efe_parameters(params, monitoring)
    if a0_override is not None:
        if not params.c / (1.0 - params.pi0) < a0_override < 1.0:
            raise NoFeasibleA0(f"a0 override {a0_override!r} outside (c/(1-pi0), 1)")
        if _a0_slack(params, monitoring, a0_override) < 0.0:
            raise NoFeasibleA0(f"a0 override {a0_override!r} fails the feasibility bound")
        base = NonEfeParameters(**{**base.__dict__, "a0": a0_override})
    a0, x = base.a0, base.x
    pi0, c = params.pi0, params.c
    e_star = pi0 + (1.0 - pi0) * a0 - c
    s_star = set(base.s_star)

    def key(belief: float) -> float:
        return round(belief, BELIEF_KEY_DECIMALS)

    states: list[AutomatonState] = []
    transitions: dict[tuple[int, str], int] = {}
    first_ids: dict[float, int] = {}
    second_ids: dict[float, int] = {}
    third_ids: dict[float, int] = {}
    complete = True

    def add_state(regime, replace_prob, effort_prob, belief) -> int:
        sid = len(states)
        states.append(AutomatonState(sid, regime, replace_prob, effort_prob, belief))
        return sid

    initial = add_state(REGIME_INITIAL, 0.0, a0, pi0)
    dead = add_state(REGIME_THIRD, 1.0, 0.0, 0.0)
    for s in monitoring.signals:
        transitions[(dead, s)] = dead

    def get_second(belief: float) -> int:
        b = key(belief)
        if b not in second_ids:
            second_ids[b] = add_state(REGIME_SECOND, 0.0, 1.0, b)
            sid = second_ids[b]
            tid = get_third(b)
            for s in monitoring.signals:
                transitions[(sid, s)] = sid if s in s_star else tid
        return second_ids[b]

    def get_third(belief: float) -> int:
        b = key(belief)
        if b not in third_ids:
            third_ids[b] = add_state(REGIME_THIRD, 1.0, 0.0, b)
            sid = third_ids[b]
            for s in monitoring.signals:
                transitions[(sid, s)] = dead
        return third_ids[b]

    # Breadth-first materialization of the pre-first-pass tree.
    queue: deque[tuple[int, float, float, int]] = deque()
    queue.append((initial, pi0, a0, 0))
    while queue:
        sid, belief, effort, depth = queue.popleft()
        for s in monitoring.signals:
            nxt_belief = bayes_update(monitoring, belief, effort, s) if belief > 0.0 else 0.0
            if s in s_star:
                transitions[(sid, s)] = get_second(nxt_belief)
                continue
            b = key(nxt_belief)
            if b in first_ids:
                transitions[(sid, s)] = first_ids[b]
                continue
            if depth + 1 > max_depth or len(states) >= MAX_STATES:
                complete = False  # frontier left unmaterialized
                continue
            nid = add_state(REGIME_FIRST, x, indifference_effort(e_star, b), b)
            first_ids[b] = nid
            transitions[(sid, s)] = nid
            queue.append((nid, b, states[nid].effort_prob, depth + 1))

    automaton = EquilibriumAutomaton(
        states=states,
        transitions=transitions,
        initial=initial,
        signals=monitoring.signals,
        kind="non-efe",
        complete=complete,
        meta={**base.to_dict(), "e_star": e_star},
    )
    return automaton, base


def compute_values(
    automaton: EquilibriumAutomaton,
    params: GameParams,
    monitoring: MonitoringStructure,
) -> ValueTable:
    """Solve the continuation-value recursion (I - M) V = b over the
    materialized states, sinks first.

    M's weight on the edge q -> succ is delta f_{sigma_P(q)}(s) (1 -
    sigma_V(succ)); self-loops fold into the diagonal. States with no
    weighted edge to another state are solved at once; the rest are solved
    by back-substitution in topological order (Kahn), each once all its
    successors are. States left over lie on or upstream of a cycle: they
    alone are factored with a sparse LU, their solved successors folded
    into the right-hand side. No automaton the constructions build has
    such a cycle.

    Unmaterialized successors contribute 0 to the solve; their worst-case
    influence is bounded exactly by a companion right-hand side, solved
    with the same matrix in the same pass, whose solution is reported per
    state in ``errors`` (all 0 when the automaton is complete).
    """
    delta, kappa = params.delta, params.kappa
    sv, sp, _, nxt = automaton.as_arrays()
    n = len(sv)
    law = delta * np.stack(monitoring.mixture(sp), axis=1)
    has = nxt >= 0
    weight = np.where(has, law * (1.0 - sv[nxt]), 0.0)  # nxt = -1 reads sv[-1], masked
    loop = nxt == np.arange(n)[:, None]
    diag = 1.0 - np.where(loop, weight, 0.0).sum(axis=1)
    edge = (weight != 0.0) & ~loop
    b = (1.0 - delta) * (1.0 - kappa * sp)
    miss = np.where(has, 0.0, law).sum(axis=1)  # successor value unknown in [0, 1]

    # States with no weighted edge to another state are solved in one step,
    # and folded into the right-hand side of their predecessors.
    src, col = np.nonzero(edge)
    dst, w = nxt[src, col], weight[src, col]
    leaf = ~edge.any(axis=1)
    values, errors = b / diag, miss / diag  # final at the leaves only
    into = leaf[dst]
    acc_b = b + np.bincount(src[into], w[into] * values[dst[into]], minlength=n)
    acc_miss = miss + np.bincount(src[into], w[into] * errors[dst[into]], minlength=n)
    # Kahn's order over the other states, renumbered 0, 1, ... among
    # themselves: a state is solved once its last successor is.
    rest = np.flatnonzero(~leaf)
    local = np.cumsum(~leaf) - 1
    src, dst, w = local[src[~into]], local[dst[~into]], w[~into]
    by_dst = np.argsort(dst, kind="stable")
    preds, pred_w = src[by_dst].tolist(), w[by_dst].tolist()
    starts = np.concatenate([[0], np.cumsum(np.bincount(dst, minlength=len(rest)))]).tolist()
    pending = np.bincount(src, minlength=len(rest))
    order = np.flatnonzero(pending == 0).tolist()
    pending = pending.tolist()
    acc_b, acc_miss, d = acc_b[rest].tolist(), acc_miss[rest].tolist(), diag[rest].tolist()
    solved_b, solved_miss = [], []
    for q in order:  # grows as states are solved
        v, e = acc_b[q] / d[q], acc_miss[q] / d[q]
        solved_b.append(v)
        solved_miss.append(e)
        for k in range(starts[q], starts[q + 1]):
            p = preds[k]
            acc_b[p] += pred_w[k] * v
            acc_miss[p] += pred_w[k] * e
            pending[p] -= 1
            if not pending[p]:
                order.append(p)
    values[rest[order]], errors[rest[order]] = solved_b, solved_miss
    if len(order) < len(rest):  # the states on or upstream of a cycle
        from scipy.sparse import csc_matrix
        from scipy.sparse.linalg import splu

        cyclic = np.ones(len(rest), dtype=bool)
        cyclic[order] = False
        ids = np.flatnonzero(cyclic)
        block_id = np.cumsum(cyclic) - 1
        inner = cyclic[src] & cyclic[dst]
        block = csc_matrix(
            (np.concatenate([diag[rest[ids]], -w[inner]]),
             (np.concatenate([block_id[ids], block_id[src[inner]]]),
              np.concatenate([block_id[ids], block_id[dst[inner]]]))),
            shape=(len(ids), len(ids)),
        )
        try:
            lu = splu(block)
        except RuntimeError as exc:  # pragma: no cover - delta<1 keeps A invertible
            raise NonContractive(str(exc)) from exc
        # acc_b and acc_miss already hold the solved successors' part
        rhs = np.column_stack([acc_b, acc_miss])[ids]
        values[rest[ids]], errors[rest[ids]] = lu.solve(rhs).T
    return ValueTable(values=values, errors=errors, tail_bound=float(errors.max()) if n else 0.0)


# --- serialization ----------------------------------------------------------

def automaton_to_dict(
    automaton: EquilibriumAutomaton,
    params: GameParams,
    monitoring: MonitoringStructure,
) -> dict:
    return {
        "states": [
            {
                "id": q.id,
                "regime": q.regime,
                "replace_prob": q.replace_prob,
                "effort_prob": q.effort_prob,
                "belief": q.belief,
            }
            for q in automaton.states
        ],
        "transitions": [
            {"from": qid, "signal": sig, "to": tid}
            for (qid, sig), tid in sorted(automaton.transitions.items())
        ],
        "initial": automaton.initial,
        "params_echo": model_to_dict(params, monitoring),
        "kind": automaton.kind,
        "complete": automaton.complete,
        "meta": automaton.meta,
    }


_FILE_FIELDS = ("params_echo", "states", "transitions", "initial")
_STATE_FIELDS = ("id", "regime", *_UNIT_FIELDS)


def _unit(value) -> float:
    """A state's number as a float; NaN, which the automaton refuses, for
    anything that is not a JSON number."""
    x = _as_float(value)
    return np.nan if x is None else x


def automaton_from_dict(
    payload: dict,
) -> tuple[EquilibriumAutomaton, GameParams, MonitoringStructure]:
    """Inverse of :func:`automaton_to_dict` for a parsed automaton file.

    Raises :class:`ValidationError` for a malformed file: a missing or
    mistyped field, a ``params_echo`` that :func:`model_from_dict`
    rejects, or an automaton that fails its own checks
    (:class:`EquilibriumAutomaton`). States may come in any order of id.
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
    try:
        raw_states = list(payload["states"])
        transitions = {
            (t["from"], t["signal"]): t["to"] for t in payload["transitions"]
        }
    except (KeyError, TypeError) as exc:
        raise ValidationError(
            [Violation("BadAutomatonFile", f"missing or mistyped field: {exc!r}")]
        ) from exc
    try:
        states = [
            AutomatonState(s["id"], s["regime"], _unit(s["replace_prob"]),
                           _unit(s["effort_prob"]), _unit(s["belief"]))
            for s in raw_states
        ]
    except (KeyError, TypeError) as exc:
        raise ValidationError(
            [Violation("BadState", f"a state is not an object with {_STATE_FIELDS}: {exc!r}")]
        ) from exc
    states.sort(key=lambda q: q.id if type(q.id) is int else -1)  # bad ids: checked when built
    automaton = EquilibriumAutomaton(
        states=states,
        transitions=transitions,
        initial=payload["initial"],
        signals=monitoring.signals,
        kind=payload.get("kind", "custom"),
        complete=payload.get("complete", True),
        meta=meta,
    )
    return automaton, params, monitoring
