"""Independently certify a strategy automaton as an equilibrium.

Three families of checks, each reduced to signed residuals with explicit
tolerances:

1. Officeholder one-shot deviations. At every state the work-minus-shirk
   value gap (computed from the automaton's own value table, never from
   construction closed forms) must match the prescribed action: zero gap
   (within tolerance) where effort mixes, nonnegative where effort is
   certain, nonpositive where shirking is certain.

2. Voter replacement choices. Expected incumbent effort e(q) is compared
   with the outside option net of the replacement cost, u0 - c, with u0
   read off the initial state. Mixing requires indifference; certain
   retention (replacement) requires e(q) to be weakly above (below) the
   net outside option. The initial state has no vote. States reachable
   only through a certain-replacement state are evaluated as informational
   only: the voter never actually moves there.

3. Bayes consistency. Along every edge out of a state that retains with
   positive probability (or out of the initial state),
   |f_e(s) pi(succ) - pi(q) f1(s)| must vanish; edges out of
   certain-replacement states carry unconstrained beliefs.

Officeholder tolerances are widened per state by the exact influence of
any unmaterialized branches on the value gap, so verification of lazily
truncated automata stays sound.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .equilibria import (  # noqa: F401 - perfbench/spans.py wraps compute_values here
    Batch, Case, EquilibriumAutomaton, batch_values, compute_values, join,
)
from .errors import ValidationError, Violation
from .model import GameParams, MonitoringStructure

DEFAULT_TOL = 1e-8  # residual tolerance of every check, widened per state for truncation


@dataclass(frozen=True)
class Offender:
    category: str  # "politician_ic" | "voter_ic" | "bayes"
    location: str  # state id or "state --signal--> state"
    residual: float
    tolerance: float

    def to_dict(self) -> dict:
        return dict(vars(self))


def _max(values: np.ndarray) -> float:
    """Largest entry other than NaN, 0.0 if there is none. Of equal entries
    the first in index order wins, as with Python's max; numpy's reduction
    may return either of -0.0 and 0.0."""
    return max(values[~np.isnan(values)].tolist(), default=0.0)


@dataclass
class VerificationReport:
    """Per-state arrays are indexed by state id; ``bayes`` is (states,
    signals) with columns in signal order."""

    passed: bool
    tol: float
    tail_bound: float
    outside_option: float
    politician_ic: np.ndarray          # violation magnitude per state
    voter_ic: np.ndarray               # violation magnitude; NaN at the initial state
    informational_states: np.ndarray   # mask: voter checks evaluated but non-binding
    bayes: np.ndarray                  # edge residual; NaN where no check applies
    offenders: list[Offender] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "tol": self.tol,
            "tail_bound": self.tail_bound,
            "outside_option": self.outside_option,
            "max_politician_residual": _max(self.politician_ic),
            "max_voter_residual": _max(self.voter_ic[~self.informational_states]),
            "max_bayes_residual": _max(self.bayes),
            "offenders": [o.to_dict() for o in self.offenders[:10]],
        }


def expected_effort(automaton: EquilibriumAutomaton | Batch) -> np.ndarray:
    """e(q) = pi + (1 - pi) sigma_P at every state q; at the initial state
    this is the voters' outside option."""
    _, sp, pi, _ = automaton.as_arrays()
    return pi + (1.0 - pi) * sp


def _on_path_states(automaton: EquilibriumAutomaton | Batch) -> np.ndarray:
    """Mask of the states reachable from the initial state (each case's, in
    a batch) without crossing a certain-replacement state; every other
    state is only consulted after the career has already ended. Found by a
    depth-first search over the next-state array's columns that enters, but
    does not leave, a certain-replacement state."""
    sv, _, _, nxt = automaton.as_arrays()
    expands = (sv < 1.0).tolist()
    columns = nxt.T.tolist()  # S lists rather than n: far fewer objects to build
    seen = [False] * len(sv)
    stack = np.atleast_1d(automaton.initial).tolist()  # expanded whatever their replace_prob
    for q in stack:
        seen[q] = True
    while stack:
        q = stack.pop()
        for column in columns:
            t = column[q]
            if t >= 0 and not seen[t]:
                seen[t] = True
                if expands[t]:
                    stack.append(t)
    return np.array(seen)


def _violation(gap: np.ndarray, mixed: np.ndarray, up: np.ndarray) -> np.ndarray:
    """Shortfall of a signed gap against a prescribed action: zero gap where
    the action mixes, a nonnegative gap where the up action is certain, a
    nonpositive gap otherwise."""
    return np.where(mixed, np.abs(gap), np.maximum(0.0, np.where(up, -gap, gap)))


def check_tolerance(tol: float) -> None:
    """Refuse a ``tol`` that is not finite and >= 0: NaN would pass any check."""
    if not 0.0 <= tol < float("inf"):
        raise ValidationError([Violation("BadTolerance", f"tol {tol!r} is not finite and >= 0")])


def verify(
    automaton: EquilibriumAutomaton,
    params: GameParams,
    monitoring: MonitoringStructure,
    tol: float = DEFAULT_TOL,
) -> VerificationReport:
    """Check every equilibrium condition at every materialized state to
    ``tol``: :func:`verify_many` on the batch of this one case."""
    return verify_many([(automaton, params, monitoring)], tol)[0]


def verify_many(cases: list[Case], tol: float = DEFAULT_TOL) -> list[VerificationReport]:
    """One :class:`VerificationReport` per (automaton, params, monitoring)
    case, each bit for bit the report of its case alone. The cases are
    joined into one disjoint union (:func:`equilibria.join`; every case
    must have the same number of signals), and the value solve, the on-path
    search, the residuals and the offender ordering run once over it. Each
    report's arrays are slices of the union's."""
    check_tolerance(tol)
    if not cases:
        return []
    batch = join(cases)
    values, errors = batch_values(batch)
    sv, sp, pi, nxt = batch.as_arrays()
    delta, kappa, f0, f1 = batch.delta, batch.kappa, batch.f0, batch.f1
    n = len(sv)
    has = nxt >= 0
    succ = np.where(has, nxt, 0)
    surv = 1.0 - sv[succ]
    effort = expected_effort(batch)
    u0 = effort[batch.initial]
    target = (u0 - np.array([p.c for _, p, _ in cases]))[batch.owner]

    # -- one-shot deviation gap for the officeholder -------------------------
    cont = np.where(has, delta[:, None] * surv * values[succ], 0.0)
    gap = -(1.0 - delta) * kappa + (f1 * cont).sum(axis=1) - (f0 * cont).sum(axis=1)
    # widening from unmaterialized successors
    slack = delta[:, None] * (f1 + f0) * np.where(has, surv * errors[succ], 1.0)
    p_tol = tol + slack.sum(axis=1)
    p_viol = _violation(gap, (0.0 < sp) & (sp < 1.0), sp >= 1.0)

    # -- voter replacement choice at every state but the initial ones --------
    voters = np.ones(n, dtype=bool)
    voters[batch.initial] = False
    v_gap = effort - target
    v_viol = _violation(v_gap, (0.0 < sv) & (sv < 1.0), sv <= 0.0)
    on_path = _on_path_states(batch)

    # -- Bayes consistency along edges out of states that may retain ---------
    law = batch.mixture(effort)
    checked = has & ((sv < 1.0) | ~voters)[:, None]
    bayes_res = np.abs(law * pi[succ] - pi[:, None] * f1)

    # worst ratio first; ties in (state, check, signal) order
    owner, starts = batch.owner, batch.starts

    def local(q: int) -> int:  # the state's id in its own case
        return q - int(starts[owner[q]])

    found = [
        (q, 0, 0, Offender("politician_ic", str(local(q)), float(p_viol[q]), float(p_tol[q])))
        for q in np.flatnonzero(p_viol > p_tol).tolist()
    ]
    found += [
        (q, 1, 0, Offender("voter_ic", str(local(q)), float(v_viol[q]), tol))
        for q in np.flatnonzero(voters & on_path & (v_viol > tol)).tolist()
    ]
    found += [
        (q, 2, i, Offender("bayes", f"{local(q)} --{cases[owner[q]][2].signals[i]}--> "
                           f"{local(int(nxt[q, i]))}", float(bayes_res[q, i]), tol))
        for q, i in zip(*(a.tolist() for a in np.nonzero(checked & (bayes_res > tol))))
    ]
    found.sort(key=lambda c: (-c[3].residual / max(c[3].tolerance, 1e-300), *c[:3]))
    offenders = [[] for _ in cases]
    for q, *_, offender in found:
        offenders[owner[q]].append(offender)

    voter_ic = np.where(voters, v_viol, np.nan)
    informational, bayes = voters & ~on_path, np.where(checked, bayes_res, np.nan)
    tail_bounds = np.maximum.reduceat(errors, starts[:-1])  # no case is empty
    ends = starts.tolist()
    return [
        VerificationReport(
            passed=not offenders[k],
            tol=tol,
            tail_bound=float(tail_bounds[k]),
            outside_option=float(u0[k]),
            politician_ic=p_viol[a:b],
            voter_ic=voter_ic[a:b],
            informational_states=informational[a:b],
            bayes=bayes[a:b],
            offenders=offenders[k],
        )
        for k, (a, b) in enumerate(zip(ends, ends[1:]))
    ]
