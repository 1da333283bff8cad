"""Independently certify a strategy automaton as an equilibrium.

Three families of checks, each reduced to signed residuals with explicit
tolerances:

1. Officeholder one-shot deviations. At every state the work-minus-shirk
   value gap (from this module's value solve, :func:`batch_values`, never
   from construction closed forms) must match the prescribed action: zero gap
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

from .equilibria import EquilibriumAutomaton, check_signals
from .errors import NonContractive, ValidationError, Violation
from .model import GameParams, MonitoringStructure

DEFAULT_TOL = 1e-8  # residual tolerance of every check, widened per state for truncation


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


Case = tuple[EquilibriumAutomaton, GameParams, MonitoringStructure]


@dataclass(frozen=True)
class Batch:
    """Cases joined into one disjoint union: case k holds states
    ``starts[k]`` .. ``starts[k + 1] - 1`` and its initial state
    ``initial[k]``; next states are offset into the union (-1 stays -1).
    ``delta``, ``kappa``, ``f0`` and ``f1`` are per state, from ``owner``."""

    starts: np.ndarray
    owner: np.ndarray
    initial: np.ndarray
    replace_prob: np.ndarray
    effort_prob: np.ndarray
    belief: np.ndarray
    next_state: np.ndarray
    delta: np.ndarray
    kappa: np.ndarray
    f0: np.ndarray
    f1: np.ndarray

    def mixture(self, effort: np.ndarray) -> np.ndarray:
        """:meth:`MonitoringStructure.mixture` at each state, (states, signals)."""
        effort = effort[:, None]
        return effort * self.f1 + (1.0 - effort) * self.f0


def join(cases: list[Case]) -> Batch:
    """The union of (automaton, params, monitoring) cases. All must have one
    signal count (:class:`ValidationError`, ``BadBatch``, otherwise), and
    each automaton its monitoring's signals (:func:`check_signals`)."""
    counts = {a.next_state.shape[1] for a, _, _ in cases} | {len(m.signals) for *_, m in cases}
    if len(counts) != 1:
        raise ValidationError([Violation(
            "BadBatch", f"a batch needs one signal count, got {sorted(counts)}")])
    for automaton, _, monitoring in cases:
        check_signals(automaton, monitoring)
    automata = [a for a, _, _ in cases]
    sizes = [len(a.belief) for a in automata]
    starts = np.cumsum([0, *sizes])
    owner = np.repeat(np.arange(len(cases)), sizes)
    nxt = np.concatenate([a.next_state for a in automata])
    nxt = np.where(nxt >= 0, nxt + starts[owner][:, None], -1)
    return Batch(
        starts=starts, owner=owner,
        initial=starts[:-1] + [a.initial for a in automata],
        replace_prob=np.concatenate([a.replace_prob for a in automata]),
        effort_prob=np.concatenate([a.effort_prob for a in automata]),
        belief=np.concatenate([a.belief for a in automata]), next_state=nxt,
        delta=np.array([p.delta for _, p, _ in cases])[owner],
        kappa=np.array([p.kappa for _, p, _ in cases])[owner],
        f0=np.array([m.f0 for *_, m in cases])[owner],
        f1=np.array([m.f1 for *_, m in cases])[owner],
    )


def compute_values(
    automaton: EquilibriumAutomaton,
    params: GameParams,
    monitoring: MonitoringStructure,
) -> ValueTable:
    """:func:`batch_values` for the batch of one case."""
    values, errors = batch_values(join([(automaton, params, monitoring)]))
    return ValueTable(values=values, errors=errors, tail_bound=float(errors.max()))


def batch_values(batch: Batch) -> tuple[np.ndarray, np.ndarray]:
    """Solve the continuation-value recursion (I - M) V = b over the
    materialized states of every case at once, sinks first, for the union's
    ``values`` and ``errors`` (:class:`ValueTable`). No step mixes two
    cases, so each case's values are bit for bit its batch of one's.

    M's weight on the edge q -> succ is delta f_{sigma_P(q)}(s) (1 -
    sigma_V(succ)); self-loops fold into the diagonal. States with no
    weighted edge to another state are solved at once; the rest are solved
    by back-substitution in topological order (Kahn), each once all its
    successors are. States left over lie on or upstream of a cycle: they
    alone are factored with a sparse LU, one block per case, their solved
    successors folded into the right-hand side. No automaton the
    constructions build has such a cycle.

    Unmaterialized successors contribute 0 to the solve; their worst-case
    influence is bounded exactly by a companion right-hand side, solved
    with the same matrix in the same pass, whose solution is reported per
    state in ``errors`` (all 0 when the automaton is complete).
    """
    delta, kappa = batch.delta, batch.kappa
    sv, sp, nxt = batch.replace_prob, batch.effort_prob, batch.next_state
    n = len(sv)
    law = delta[:, None] * batch.mixture(sp)
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
    # themselves: a state is solved once its last successor is. Each case's
    # states keep the queue order of its batch of one.
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
    for q in order:  # grows as states are solved; a solved state's sums become its values
        v = acc_b[q] = acc_b[q] / d[q]
        e = acc_miss[q] = acc_miss[q] / d[q]
        for k in range(starts[q], starts[q + 1]):
            p = preds[k]
            acc_b[p] += pred_w[k] * v
            acc_miss[p] += pred_w[k] * e
            pending[p] -= 1
            if not pending[p]:
                order.append(p)
    values[rest[order]], errors[rest[order]] = np.take(acc_b, order), np.take(acc_miss, order)
    if len(order) < len(rest):  # the states on or upstream of a cycle
        from scipy.sparse import csc_matrix
        from scipy.sparse.linalg import splu

        cyclic = np.ones(len(rest), dtype=bool)
        cyclic[order] = False
        # acc_b and acc_miss already hold the solved successors' part
        rhs = np.column_stack([acc_b, acc_miss])
        owner = batch.owner[rest]
        for case in np.unique(owner[cyclic]).tolist():  # edges never join two cases
            block_of = cyclic & (owner == case)
            ids = np.flatnonzero(block_of)
            block_id = np.cumsum(block_of) - 1
            inner = block_of[src] & block_of[dst]
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
            values[rest[ids]], errors[rest[ids]] = lu.solve(rhs[ids]).T
    return values, errors


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
    pi = automaton.belief
    return pi + (1.0 - pi) * automaton.effort_prob


def _on_path_states(automaton: EquilibriumAutomaton | Batch) -> np.ndarray:
    """Mask of the states reachable from the initial state (each case's, in
    a batch) without crossing a certain-replacement state; every other
    state is only consulted after the career has already ended. Found by a
    depth-first search over the next-state array's columns that enters, but
    does not leave, a certain-replacement state."""
    expands = (automaton.replace_prob < 1.0).tolist()
    columns = automaton.next_state.T.tolist()  # S lists rather than n: far fewer objects
    seen = [False] * len(expands)
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
    joined into one disjoint union (:func:`join`; every case
    must have the same number of signals), and the value solve, the on-path
    search, the residuals and the offender ordering run once over it. Each
    report's arrays are slices of the union's."""
    check_tolerance(tol)
    if not cases:
        return []
    batch = join(cases)
    values, errors = batch_values(batch)
    sv, sp, pi, nxt = batch.replace_prob, batch.effort_prob, batch.belief, batch.next_state
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
