"""Seeded Monte Carlo careers under a strategy automaton, with analytic
stationary-chain oracles.

Period order follows the package-wide contract: at t > 0 the voter first
replaces (resetting the automaton to its initial state and drawing a fresh
type, good with probability pi0); the incumbent then acts (good types
always work, opportunists work with the state's effort probability); the
signal is drawn from the action's distribution and advances the state. At
t = 0 there is no vote.

Determinism contract: path p consumes a fixed layout of uniforms,
(horizon x 4) slots [vote, type, action, signal], from a counter-based
Philox stream keyed by (master_seed, p). Paths run in batches of
``_BATCH``; one Philox per batch is rekeyed to (master_seed, p) for each
path, and the batch is held period-major, (horizon, 4, paths), so that each
period reads contiguous slots. W contiguous ranges of paths run at once,
W the smaller of the batch count and the CPUs in the affinity mask (1 off
Linux): the first here, the others in forked children, each worker adding
its integer counts into its own row of shared memory. Every reduction is
exact or per path: per-period counts are integers, summed over the rows
once every child is reaped, ``mean_belief`` is formed once from the integer
state occupancy, and per-path aggregates are reduced once at the end. The
stats, ``mean_belief`` included, are therefore bit-identical under any
batching, worker count or scheduling.

The per-period kernel reads the automaton's own per-state arrays: one
lookup per table gives a state's replacement and effort probabilities and
whether a replacement there is favorable, and per edge (state * S +
signal) the next state and the belief increment. Each path carries its
incumbent's type as a flag, drawn at t = 0 and redrawn only on
replacement; a good type works whatever the state's effort probability.

The belief-martingale residual averages one-step increments of the acting
incumbent's reputation, pi(successor) - pi(state), over every acting
period. The successor belief forms before the next vote, so replacement
resets never enter the average and no retention selection biases it; under
Bayes-consistent beliefs the increments have mean zero exactly.
"""
from __future__ import annotations

import json
import mmap
import os
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .equilibria import EquilibriumAutomaton, check_signals
from .errors import DepthInsufficient, ValidationError, Violation
from .model import GameParams, MonitoringStructure
from .verifier import _on_path_states, expected_effort

# paths per batch and per staging block: at horizon 500 the (horizon, 4,
# _BATCH) batch is 61 MB and the (_BLOCK, horizon, 4) block 2 MB
_BATCH = 3840
_BLOCK = 128
_UNIFORM_SLOTS = 4  # vote, type, action, signal
TENURE_THRESHOLDS = (10, 50, 100, 200)


@dataclass(frozen=True)
class SimulationConfig:
    horizon: int
    paths: int
    master_seed: int

    def __post_init__(self):
        bad = []
        if self.horizon < 1 or self.paths < 1:
            bad.append(Violation("BadSimulationConfig", "horizon and paths must both be >= 1"))
        if not 0 <= self.master_seed < 2**64:
            bad.append(Violation("BadSimulationConfig", "master_seed must lie in [0, 2^64)"))
        if bad:
            raise ValidationError(bad)


@dataclass
class SimulationStats:
    """Per-period and aggregate measurements from seeded career runs."""

    horizon: int
    paths: int
    master_seed: int
    # per-period arrays (length horizon)
    mean_effort: np.ndarray
    replace_rate: np.ndarray
    mean_belief: np.ndarray
    favorable_replacements: np.ndarray  # counts of replacements at belief > pi0
    # aggregates
    favorable_total: int
    burn_in: int
    long_run_effort: float
    long_run_se: float
    burn_in_sensitivity: dict[int, float]
    martingale_mean: float
    martingale_se: float
    tenure_histogram: np.ndarray  # completed tenures, index = periods served
    censored_tenures: int  # tenures still running at the horizon, one per path
    final_tenure_exceeds: dict[int, float]
    first_replacement_histogram: np.ndarray  # index = period of first replacement
    first_politician_survival: dict[int, float]  # P(first career outlives t)
    # run counts for the manifest; never part of the stats JSON
    counts: dict = field(default_factory=dict, repr=False)

    def to_json(self) -> str:
        """Canonical JSON of every field but ``counts``: arrays as lists and
        dict keys as strings; byte-identical across reruns with equal inputs."""
        payload = dict(vars(self))
        del payload["counts"]
        for name, value in payload.items():
            if isinstance(value, np.ndarray):
                payload[name] = value.tolist()
            elif isinstance(value, dict):
                payload[name] = {str(k): v for k, v in value.items()}
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _fill_uniforms(master_seed: int, start: int, u: np.ndarray) -> None:
    """Fill the period-major batch ``u``, shape (horizon, 4, nb), with the
    streams of paths ``start`` .. ``start + nb - 1``.

    ``u[:, :, i]`` equals
    ``Generator(Philox(key=[master_seed, start + i])).random((horizon, 4))``.
    One Philox is rekeyed per path by assigning it a state with the path's
    key, a zero counter and an empty buffer; a fresh ``Philox(key=...)``
    would read OS entropy through ``SeedSequence`` for every path. Paths are
    drawn path-major in blocks of ``_BLOCK`` and each block is transposed
    into ``u`` while it is still in cache.
    """
    horizon, _, nb = u.shape
    bitgen = np.random.Philox(key=np.array([master_seed, start], dtype=np.uint64))
    gen = np.random.Generator(bitgen)
    # the state setter reads plain ints about 3x faster than arrays
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": [master_seed, 0]},
        "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    key = state["state"]["key"]
    block = np.empty((min(_BLOCK, nb), horizon, _UNIFORM_SLOTS))
    for lo in range(0, nb, len(block)):
        rows = block[: min(len(block), nb - lo)]
        for i, row in enumerate(rows):
            key[1] = start + lo + i
            bitgen.state = state
            gen.random(out=row)
        u[:, :, lo : lo + len(rows)] = rows.transpose(1, 2, 0)


def _signal_thresholds(monitoring: MonitoringStructure) -> np.ndarray:
    """(S - 1, 2) table: row k holds the k-th interior cdf point of the shirk
    law (column 0) and of the work law (column 1)."""
    return np.stack(
        [np.cumsum(monitoring.f0)[:-1], np.cumsum(monitoring.f1)[:-1]], axis=1
    )


def _signals(thresholds: np.ndarray, act: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Signal index per path: the number of interior cdf points of the path's
    action law at or below its uniform, which equals
    ``searchsorted(cdf, u, side="right")``."""
    law = act.view(np.uint8)
    sig = np.zeros(len(u), dtype=np.int64)
    for point in thresholds:
        sig += u >= point.take(law)
    return sig


def _cpus() -> int:
    """The CPUs this process may run on, or 1 where it cannot fork."""
    forks = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    return len(os.sched_getaffinity(0)) if forks else 1


def _shared(shape: tuple[int, int], dtype) -> np.ndarray:
    """A zeroed array in anonymous shared memory, written in place by forked
    workers; a size the map refuses raises MemoryError."""
    size = shape[0] * shape[1] * np.dtype(dtype).itemsize
    try:
        return np.frombuffer(mmap.mmap(-1, size), dtype).reshape(shape)
    except (OSError, OverflowError) as exc:
        raise MemoryError(f"cannot map {size} bytes of shared memory: {exc}") from exc


def _fork_join(run, workers: int) -> None:
    """Exhaust the generator ``run(0)`` here and each ``run(k)``, k = 1 ..
    ``workers - 1``, in a forked child, which stops between two steps once
    its parent is gone. Every child is reaped before this returns or raises,
    and killed first if anything fails. The lowest failing child's ``run``
    is then exhausted here, so that it raises what a serial run raises.
    """
    parent, children, failed = os.getpid(), [], 0
    try:
        for k in range(1, workers):
            with warnings.catch_warnings():
                # Python 3.12+ warns on a fork with live threads (OpenBLAS's idle
                # pool); the child runs numpy kernels only: no BLAS, no import, no lock
                warnings.filterwarnings(
                    "ignore", "This process .* is multi-threaded", DeprecationWarning)
                pid = os.fork()
            if pid == 0:  # the child: exit status 0 only if its range ran through
                try:
                    for _ in run(k):
                        if os.getppid() != parent:
                            os._exit(1)
                    os._exit(0)
                finally:
                    os._exit(1)
            children.append(pid)
        for _ in run(0):
            pass
        for k in range(1, workers):
            status = os.waitpid(children[0], 0)[1]
            children.pop(0)
            if status:
                failed = k
                break
    finally:
        for pid in children:
            os.kill(pid, 9)  # SIGKILL; the signal module costs 0.7 ms to import
            os.waitpid(pid, 0)
    if failed:
        for _ in run(failed):
            pass
        raise ChildProcessError(f"simulation worker {failed} of {workers} ended with exit "
                                f"code {os.waitstatus_to_exitcode(status)}")


def simulate(
    automaton: EquilibriumAutomaton,
    params: GameParams,
    monitoring: MonitoringStructure,
    config: SimulationConfig,
) -> SimulationStats:
    """Run ``config.paths`` independent careers for ``config.horizon``
    periods. The monitoring must have the automaton's signals (:func:`check_signals`)."""
    check_signals(automaton, monitoring)
    horizon, paths = config.horizon, config.paths
    pi0 = params.pi0
    pi, nxt = automaton.belief, automaton.next_state
    n, n_signals = nxt.shape
    thresholds = _signal_thresholds(monitoring)
    walks_off = not automaton.complete
    # belief increment per edge (state * S + signal); 0 on a missing edge
    step = np.where(nxt >= 0, pi.take(nxt) - pi[:, None], 0.0)

    burn_in = horizon // 5
    cutoffs = sorted({0, horizon // 10, burn_in, (2 * horizon) // 5})
    workers = min(_cpus(), -(-paths // _BATCH))
    starts = [range(paths * k // workers, paths * (k + 1) // workers, _BATCH)
              for k in range(workers)]  # each worker's batches

    try:
        # one row per worker: effort, replacement and favorable-replacement
        # counts per period, completed-tenure and first-replacement histograms
        # ([horizon] = censored), final-tenure exceed counts, state occupancy
        tally = _shared((workers, horizon * (n + 5) + 6), np.int64)
        # per-path aggregates, reduced once at the end in a batching-independent order
        per_path = _shared((len(cutoffs) + 1, paths), np.float64)
        batch = np.empty((horizon, _UNIFORM_SLOTS, min(_BATCH, paths)))
    except ValueError as exc:  # numpy's refusal of a size past its index range
        raise MemoryError(str(exc)) from exc
    sizes = np.cumsum([horizon] * 3 + [horizon + 1] * 2 + [len(TENURE_THRESHOLDS)])
    *parts, occupancy = np.split(tally, sizes, axis=1)
    parts.append(occupancy.reshape(workers, horizon, n))  # acting paths per state
    lr_means = dict(zip(cutoffs, per_path))
    mart_means = per_path[-1]

    def run(k):
        """Worker k's batches, tallied into row k; yields after each batch."""
        (effort_sum, replace_count, favorable_count, tenure_hist, first_rep_hist,
         exceed_counts, occupancy) = (part[k] for part in parts)
        for start in starts[k]:
            stop = min(start + _BATCH, starts[k].stop)
            nb = stop - start
            u = batch[:, :, :nb]
            _fill_uniforms(config.master_seed, start, u)

            state = np.full(nb, automaton.initial)
            good = u[0, 1] < pi0  # the incumbent's type
            since = np.zeros(nb, dtype=np.int64)  # period the incumbent took office
            path_effort = np.zeros(nb)
            prefix = {cut: np.zeros(nb) for cut in cutoffs}
            path_mart = np.zeros(nb)

            for t in range(horizon):
                vote, draw_type, draw_act, draw_sig = u[t]
                if t > 0:
                    out = np.flatnonzero(vote < automaton.replace_prob.take(state))  # voted out
                    if len(out):
                        favorable_count[t] += np.count_nonzero(pi.take(state.take(out)) > pi0)
                        began = since.take(out)
                        tenure_hist += np.bincount(t - began, minlength=horizon + 1)
                        first_rep_hist[t] += np.count_nonzero(began == 0)  # first careers
                        state[out] = automaton.initial
                        good[out] = draw_type.take(out) < pi0
                        since[out] = t
                    replace_count[t] += len(out)
                if t in prefix:
                    prefix[t][:] = path_effort

                occupancy[t] += np.bincount(state, minlength=n)
                act = (draw_act < automaton.effort_prob.take(state)) | good
                effort_sum[t] += np.count_nonzero(act)
                path_effort += act

                edge = state * n_signals + _signals(thresholds, act, draw_sig)
                state_next = nxt.take(edge)
                if walks_off and np.any(state_next < 0):
                    raise DepthInsufficient(
                        f"path walked off the materialized automaton at period {t}"
                    )
                path_mart += step.take(edge)
                state = state_next

            tenure_final = horizon - since
            for i, thr in enumerate(TENURE_THRESHOLDS):
                exceed_counts[i] += np.count_nonzero(tenure_final > thr)
            first_rep_hist[horizon] += np.count_nonzero(since == 0)  # never replaced

            for cut in cutoffs:
                lr_means[cut][start:stop] = (path_effort - prefix[cut]) / (horizon - cut)
            mart_means[start:stop] = path_mart / horizon
            yield

    _fork_join(run, workers)
    # integer sums over the workers' rows are exact in any order
    (effort_sum, replace_count, favorable_count, tenure_hist, first_rep_hist,
     exceed_counts, occupancy) = (part.sum(axis=0) for part in parts)

    long_run = float(lr_means[burn_in].mean())
    long_run_se = float(lr_means[burn_in].std(ddof=1) / np.sqrt(paths)) if paths > 1 else 0.0
    mart_mean = float(mart_means.mean())
    mart_se = float(mart_means.std(ddof=1) / np.sqrt(paths)) if paths > 1 else 0.0

    # survival[t] = P(first incumbent still in office after the period-t vote)
    survival_points = sorted(t for t in (50, 100, 200, horizon - 1) if 0 <= t < horizon)
    survival = {
        t: float(first_rep_hist[t + 1 :].sum() / paths) for t in survival_points
    }

    return SimulationStats(
        horizon=horizon,
        paths=paths,
        master_seed=config.master_seed,
        mean_effort=effort_sum / paths,
        replace_rate=replace_count / paths,
        mean_belief=(occupancy @ pi) / paths,
        favorable_replacements=favorable_count.astype(np.float64),  # floats in the JSON
        favorable_total=int(favorable_count.sum()),
        burn_in=burn_in,
        long_run_effort=long_run,
        long_run_se=long_run_se,
        burn_in_sensitivity={cut: float(lr_means[cut].mean()) for cut in cutoffs},
        martingale_mean=mart_mean,
        martingale_se=mart_se,
        tenure_histogram=tenure_hist,
        censored_tenures=paths,
        final_tenure_exceeds={
            thr: int(count) / paths for thr, count in zip(TENURE_THRESHOLDS, exceed_counts)
        },
        first_replacement_histogram=first_rep_hist,
        first_politician_survival=survival,
        counts={"batches": sum(map(len, starts)), "workers": workers},
    )


def martingale_diagnostic(stats: SimulationStats) -> float:
    """z-score of the mean one-step belief increment against the zero-drift
    null; identically-zero increments (pooling equilibria) score 0."""
    if stats.martingale_se == 0.0:
        return 0.0 if stats.martingale_mean == 0.0 else float("inf")
    return stats.martingale_mean / stats.martingale_se


@dataclass(frozen=True)
class AnalyticEffort:
    value: float
    method: str  # "lumped" | "direct" | "truncated"
    residual: float = 0.0


def _acting(automaton: EquilibriumAutomaton, monitoring: MonitoringStructure):
    """The states in which an incumbent acts, in id order: the initial state
    and every on-path state that may retain (see :func:`_on_path_states`);
    no other state is occupied when an incumbent acts. Returns (states,
    expected efforts, (states, S) signal laws)."""
    acting = _on_path_states(automaton) & (automaton.replace_prob < 1.0)
    acting[automaton.initial] = True
    states = np.flatnonzero(acting)
    efforts = expected_effort(automaton)[states]
    return states, efforts, np.stack(monitoring.mixture(efforts), axis=1)


def _acting_edges(automaton: EquilibriumAutomaton, states, law, fill):
    """The acting chain over the acting states (:func:`_acting`) as (from,
    to, mass) edges with mass, ``from`` and ``to`` positions in ``states``:
    each signal's retained mass goes to its successor and its replaced mass
    to the initial state, a missing successor read as ``fill``. A state's
    retained edges come before its replaced ones."""
    nxt = automaton.next_state[states]
    succ = np.where(nxt >= 0, nxt, fill)
    sv = automaton.replace_prob[succ]
    to = np.concatenate([succ, np.full_like(succ, automaton.initial)], axis=1).ravel()
    mass = np.concatenate([law * (1.0 - sv), law * sv], axis=1).ravel()
    live = mass > 0.0  # every edge with mass enters an acting state
    frm = np.repeat(np.arange(len(states)), 2 * law.shape[1])
    return frm[live], np.searchsorted(states, to[live]), mass[live]


def _no_unique_law(reason: str) -> ValidationError:
    """The refusal of an acting chain with more than one closed class: it
    has no single long-run effort."""
    return ValidationError([Violation(
        "NoUniqueStationaryLaw", f"the acting chain has no unique stationary law ({reason})")])


def _stationary(p: np.ndarray) -> np.ndarray:
    """Stationary law of a small dense chain ``p``."""
    a = p.T - np.eye(len(p))
    a[-1] = 1.0  # the last balance row becomes the normalization
    try:
        mu = np.clip(np.linalg.solve(a, np.eye(len(p))[-1]), 0.0, None)
    except np.linalg.LinAlgError as exc:
        raise _no_unique_law(str(exc)) from exc
    return mu / mu.sum()


def analytic_long_run_effort(
    automaton: EquilibriumAutomaton,
    params: GameParams,
    monitoring: MonitoringStructure,
) -> AnalyticEffort:
    """Stationary mean effort of the acting-state chain.

    A ``non-efe`` automaton whose chain lumps by regime label (checked on
    its arrays, see :func:`_try_lumped`) is solved over its regimes;
    otherwise the chain is solved directly over the materialized states,
    with any truncated mass redirected to renewal and reported as a
    residual; the method is then "truncated" if the residual is positive.
    The monitoring must have the automaton's signals (:func:`check_signals`).
    A chain with more than one closed class, and so no unique stationary
    law, is refused (``NoUniqueStationaryLaw``).
    """
    check_signals(automaton, monitoring)
    states, efforts, law = _acting(automaton, monitoring)
    lump = _try_lumped(automaton, states, efforts, law)
    if lump is not None:
        return lump
    from scipy.sparse import csc_matrix
    from scipy.sparse.csgraph import connected_components
    from scipy.sparse.linalg import splu

    n = len(states)
    frm, to, mass = _acting_edges(automaton, states, law, automaton.initial)
    # the closed classes are the strong components with no edge out
    graph = csc_matrix((mass, (frm, to)), shape=(n, n))
    count, part = connected_components(graph, connection="strong")
    closed = np.setdiff1d(np.arange(count), part[frm[part[frm] != part[to]]])
    if len(closed) > 1:
        raise _no_unique_law(f"{len(closed)} closed classes")
    # anchor r, the initial state if the closed class holds it: A = P^T - I
    # with r's balance row replaced by mu(r) = 1, duplicates summed
    start = np.searchsorted(states, automaton.initial)
    r = start if part[start] == closed[0] else np.argmax(part == closed[0])
    ids, keep = np.arange(n), to != r
    a = csc_matrix((np.concatenate([mass[keep], np.where(ids == r, 1.0, -1.0)]),
                    (np.concatenate([to[keep], ids]), np.concatenate([frm[keep], ids]))),
                   shape=(n, n))
    mu = np.clip(splu(a).solve((ids == r).astype(float)), 0.0, None)
    mu /= mu.sum()
    residual = float(mu @ np.where(automaton.next_state[states] < 0, law, 0.0).sum(axis=1))
    method = "truncated" if residual > 0.0 else "direct"
    return AnalyticEffort(value=float(mu @ efforts), method=method, residual=residual)


def _try_lumped(automaton: EquilibriumAutomaton, states, effort, law) -> Optional[AnalyticEffort]:
    """The acting chain lumped by regime label, or None if it does not lump.

    The blocks are the acting states' labels in sorted order, at most 2S of
    them, so the (acting states, blocks) rows never outgrow the edge list.
    The edges (:func:`_acting_edges`) are summed by the block they enter, a
    missing successor read as the state itself, as the lazy tree's next
    state would; the initial state must have every edge. It lumps if each
    block's acting states share one row and one effort.
    """
    if automaton.kind != "non-efe" or np.any(automaton.next_state[automaton.initial] < 0):
        return None
    _, first, block = np.unique(automaton.regime[states], return_index=True, return_inverse=True)
    if len(first) > 2 * law.shape[1]:
        return None
    frm, to, mass = _acting_edges(automaton, states, law, states[:, None])
    rows = np.zeros((len(states), len(first)))
    np.add.at(rows, (frm, block[to]), mass)
    same = first[block]  # the first acting state of each state's block
    if np.abs(rows - rows[same]).max() > 1e-12 or np.abs(effort - effort[same]).max() > 1e-10:
        return None
    mu = _stationary(rows[first])
    return AnalyticEffort(value=float(mu @ effort[first]), method="lumped", residual=0.0)
