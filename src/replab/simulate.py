"""Seeded Monte Carlo careers under a strategy automaton, with analytic
stationary-chain oracles.

Period order follows the package-wide contract: at t > 0 the voter first
replaces (resetting the automaton to its initial state and drawing a fresh
type, good with probability pi0); the incumbent then acts (good types
always work, opportunists work with the state's effort probability); the
signal is drawn from the action's distribution and advances the state. At
t = 0 there is no vote.

Determinism contract: path p consumes a fixed layout of 64-bit words x,
(horizon x 4) slots [vote, type, action, signal], from a counter-based
Philox stream keyed by (master_seed, p); period t's four slots are the
block at counter t + 1, and each decision is the one the slot's double u =
(x >> 11) * 2^-53 (``Generator.random``'s) gives. Paths run in batches of
``_BATCH``, and a batch's draws are held one window of ``_WINDOW`` periods
at a time, period-major, so that each period reads contiguous rows: the
vote and action codes floor(u * 2^16), the words' top 16 bits, (periods,
2, paths) uint16, and the type and signal decisions, exact integer
comparisons of the words, (periods, 3, paths) in the smallest unsigned
dtype that holds S - 1: good type (u < pi0) and the signal index under
shirking and under working. The kernel decides u < p on a code against the
state's cut min(floor(p * 2^16), 65535); only a code equal to its cut,
once in 2^16 draws, leaves the decision open, and that path's double is
drawn again and compared exactly. One Philox per window is rekeyed to
(master_seed, p) for each path with its counter at the window's first
period; a redraw rekeys one per worker the same way. W contiguous ranges
of paths run at once, W the smaller of the batch count and the CPUs in the
affinity mask (1 off Linux): the first here, the others in forked
children, each worker adding its integer counts into its own row of shared
memory. Every per-period statistic is an integer sum, added over the rows
once every child is reaped, and per-path aggregates are reduced once at
the end. The belief sum is one too: each belief is the integer pi * 2^k,
k = 53 - the least frexp exponent of a positive belief, split into 31-bit
limbs, and each period's mean is one correctly rounded integer division.
The stats are therefore bit-identical under any batching, window size,
worker count, BLAS thread count or scheduling.

The per-period kernel reads the automaton's own per-state arrays: one
lookup per table gives a state's replacement and effort cut points (its
probabilities only on a tie) and its belief, which a replacement there
compares with pi0, and per edge (state * S + signal) the next state and
the belief increment. Each path carries its incumbent's type as a flag,
drawn at t = 0 and redrawn only on replacement; a good type works whatever
the state's effort probability.

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
import sys
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import _one_blas_thread
from .equilibria import EquilibriumAutomaton, check_signals
from .errors import DepthInsufficient, ValidationError, Violation
from .model import GameParams, MonitoringStructure
from .verifier import _on_path_states, expected_effort

# paths per batch and per staging block, and periods per window: the window's
# (_WINDOW, 2, _BATCH) 16-bit draws and (_WINDOW, 3, _BATCH) codes are 6.9 MB up to
# 256 signals and the (_BLOCK, _WINDOW, 4) block of words 1 MB at any horizon; a
# window rekeys every path, about 0.5 us each on a 2 vCPU host
_BATCH = 3840
_BLOCK = 128
_WINDOW = 256
_UNIFORM_SLOTS = 4  # vote, type, action, signal
_TOP = 3 if sys.byteorder == "little" else 0  # a word's high 16-bit quarter
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
        if self.paths >= 2**32:  # a period's belief limb sum fits int64 below
            bad.append(Violation("BadSimulationConfig", "paths must be below 2^32"))
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


def _streams(master_seed: int):
    """``seek(path, t)``: one Philox, rekeyed to path ``path``'s stream (key
    [master_seed, path]) at counter ``t`` with an empty buffer, and its
    Generator, whose next four words or doubles are period t's four slots
    (one Philox block, drawn after the counter steps). Rekeying
    assigns a state; a fresh ``Philox(key=...)`` would read OS entropy
    through ``SeedSequence`` for every path."""
    bitgen = np.random.Philox(key=np.array([master_seed, 0], dtype=np.uint64))
    gen = np.random.Generator(bitgen)
    # the state setter reads plain ints about 3x faster than arrays
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": [master_seed, 0]},
        "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    counter, key = state["state"]["counter"], state["state"]["key"]

    def seek(path: int, t: int) -> np.random.Generator:
        counter[0], key[1] = t, path
        bitgen.state = state
        return gen

    return seek


def _fill_window(master_seed: int, start: int, t0: int, pi0: float, thresholds: np.ndarray,
                 draws: np.ndarray, codes: np.ndarray) -> None:
    """Fill the window ``draws``, (periods, 2, nb), and ``codes``, (periods,
    3, nb), by :func:`_encode` from counters ``t0 + 1`` .. ``t0 + periods``
    of each path ``start + i``'s stream (:func:`_streams`), in blocks of
    ``_BLOCK`` paths, each encoded while still in cache; ``pi0`` and the laws'
    interior cdf points ``thresholds`` are the type and signal cut points."""
    periods, _, nb = draws.shape
    seek = _streams(master_seed)
    # u >= p exactly when x >> 11 >= ceil(p * 2^53); no word reaches a point past 1 - 2^-53
    cuts = np.ceil(np.ldexp(thresholds, 53)).astype(np.uint64)
    type_cut = np.uint64(np.ceil(np.ldexp(pi0, 53))) << np.uint64(11)  # pi0 < 1: below 2^64
    block = np.empty((min(_BLOCK, nb), periods * _UNIFORM_SLOTS), np.uint64)
    signal = np.empty((periods, len(block)), np.uint64)
    for lo in range(0, nb, len(block)):
        rows = block[: min(len(block), nb - lo)]
        for i, row in enumerate(rows):
            row[:] = seek(start + lo + i, t0).bit_generator.random_raw(len(row))
        hi = lo + len(rows)
        _encode(rows.reshape(len(rows), periods, _UNIFORM_SLOTS), type_cut, cuts,
                draws[:, :, lo:hi], codes[:, :, lo:hi], signal[:, : len(rows)])


def _encode(words, type_cut, cuts, draws, codes, sig) -> None:
    """Write Philox words ``words``, (paths, periods, 4) slots [vote, type,
    action, signal], into ``draws`` as the vote and action words' top 16 bits
    and into ``codes`` as the decisions: good type (a word below ``type_cut``)
    and the signal index under shirking and under working, the number of the
    law's ``cuts`` at or below the signal word's top 53 bits (gathered in ``sig``)."""
    np.copyto(draws, words.view(np.uint16)[:, :, _TOP::8].transpose(1, 2, 0))
    words = words.transpose(1, 2, 0)
    np.less(words[:, 1], type_cut, out=codes[:, 0])
    np.copyto(sig, words[:, 3])  # shifted in place: a strided shift allocates a buffer
    np.right_shift(sig, np.uint64(11), out=sig)
    for j, row in enumerate(cuts, 1):  # the shirk law, then the work law
        np.greater_equal(sig, row[0], out=codes[:, j])
        for cut in row[1:]:
            codes[:, j] += sig >= cut


def _cuts(prob: np.ndarray) -> np.ndarray:
    """The 16-bit cut points min(floor(p * 2^16), 2^16 - 1) of probabilities
    ``prob``. A code c = floor(u * 2^16) below its cut has u < (c + 1) / 2^16
    <= p, and one above it has u >= c / 2^16 > p; only c equal to the cut
    leaves u < p open."""
    return np.minimum(np.floor(prob * 65536.0), 65535.0).astype(np.uint16)


def _decide(code: np.ndarray, state: np.ndarray, prob: np.ndarray, cut: np.ndarray,
            redraw) -> np.ndarray:
    """``u < prob[state]`` per path, for uniforms ``u`` held as the codes
    ``code`` and ``cut = _cuts(prob)``: decided on the code, except where it
    equals its state's cut; ``redraw(ties)`` gives those paths' uniforms,
    which are compared exactly."""
    cut = cut.take(state)
    below = code < cut
    ties = (code == cut).nonzero()[0]
    if len(ties):
        below[ties] = redraw(ties) < prob.take(state.take(ties))
    return below


def _redraw(seek, paths: np.ndarray, t: int, slot: int) -> np.ndarray:
    """Slot ``slot`` of period ``t`` of each path in ``paths``, drawn again
    through ``seek`` (:func:`_streams`)."""
    return np.array([seek(p, t).random(slot + 1)[slot] for p in paths.tolist()])


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
                # Python 3.12+ warns on a fork with live threads: OpenBLAS's pool, one
                # thread unless numpy was loaded before replab. The child runs numpy
                # kernels and the tally's gemv; it imports nothing and takes no lock
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
    # the interior cdf points of the shirk law (row 0) and of the work law (row 1)
    thresholds = np.cumsum([monitoring.f0, monitoring.f1], axis=1)[:, :-1]
    walks_off = not automaton.complete
    # belief increment per edge (state * S + signal); 0 on a missing edge
    step = np.where(nxt >= 0, pi.take(nxt) - pi[:, None], 0.0)
    vote_cut, act_cut = _cuts(automaton.replace_prob), _cuts(automaton.effort_prob)
    # limb i of the integer pi * 2^k as doubles, a shift outside [0, 84] giving 0
    # anyway, so none overflows; a batch's limb sums stay below 2^43, exact in any order
    mant, exp = np.frexp(pi)
    k = 53 - int(exp.min(where=pi > 0, initial=1))
    shifts = exp + k - 31 * np.arange(k // 31 + 1)[:, None]
    limbs = np.floor(np.ldexp(mant, np.clip(shifts, 0, 84))) % 2.0**31

    burn_in = horizon // 5
    cutoffs = sorted({0, horizon // 10, burn_in, (2 * horizon) // 5})
    workers = min(_cpus(), -(-paths // _BATCH))
    starts = [range(paths * k // workers, paths * (k + 1) // workers, _BATCH)
              for k in range(workers)]  # each worker's batches

    try:
        # one row per worker: effort, replacement and favorable-replacement
        # counts per period, completed-tenure and first-replacement histograms
        # ([horizon] = censored), final-tenure exceed counts, belief limb sums
        tally = _shared((workers, horizon * (len(limbs) + 5) + 6), np.int64)
        # per-path aggregates, reduced once at the end in a batching-independent order
        per_path = _shared((len(cutoffs) + 1, paths), np.float64)
        draws = np.empty((min(_WINDOW, horizon), 2, min(_BATCH, paths)), np.uint16)  # vote, action
        codes = np.empty((len(draws), 3, draws.shape[2]), np.min_scalar_type(n_signals - 1))
    except ValueError as exc:  # numpy's refusal of a size past its index range
        raise MemoryError(str(exc)) from exc
    sizes = np.cumsum([horizon] * 3 + [horizon + 1] * 2 + [len(TENURE_THRESHOLDS)])
    *parts, belief_sum = np.split(tally, sizes, axis=1)
    parts.append(belief_sum.reshape(workers, horizon, len(limbs)))
    lr_means = dict(zip(cutoffs, per_path))
    mart_means = per_path[-1]

    def run(w):
        """Worker w's batches, tallied into row w; yields after each batch."""
        (effort_sum, replace_count, favorable_count, tenure_hist, first_rep_hist,
         exceed_counts, belief_sum) = (part[w] for part in parts)
        seek = _streams(config.master_seed)  # for the doubles of tied codes
        for start in starts[w]:
            stop = min(start + _BATCH, starts[w].stop)
            nb = stop - start
            state = np.full(nb, automaton.initial)
            since = np.zeros(nb, dtype=np.int64)  # period the incumbent took office
            path_effort = np.zeros(nb, np.int64)  # counts, exact in the division
            prefix = {cut: np.zeros(nb, np.int64) for cut in cutoffs}
            path_mart = np.zeros(nb)

            for t in range(horizon):
                if t % len(draws) == 0:  # a new window, refilled from period t
                    u, c = draws[: horizon - t, :, :nb], codes[: horizon - t, :, :nb]
                    _fill_window(config.master_seed, start, t, pi0, thresholds, u, c)
                vote, draw_act = u[t % len(draws)]
                is_good, sig_shirk, sig_work = c[t % len(draws)]
                if t == 0:
                    good = is_good.astype(bool)  # the incumbent's type
                else:
                    out = _decide(  # voted out
                        vote, state, automaton.replace_prob, vote_cut,
                        lambda i: _redraw(seek, start + i, t, 0)).nonzero()[0]
                    if len(out):
                        favorable_count[t] += np.count_nonzero(pi.take(state.take(out)) > pi0)
                        began = since.take(out)
                        np.add.at(tenure_hist, t - began, 1)
                        first_rep_hist[t] += np.count_nonzero(began == 0)  # first careers
                        state[out] = automaton.initial
                        good[out] = is_good.take(out)
                        since[out] = t
                    replace_count[t] += len(out)
                if t in prefix:
                    prefix[t][:] = path_effort

                belief_sum[t] += (limbs @ np.bincount(state, minlength=n)).astype(np.int64)
                act = _decide(draw_act, state, automaton.effort_prob, act_cut,
                              lambda i: _redraw(seek, start + i, t, 2)) | good
                effort_sum[t] += np.count_nonzero(act)
                path_effort += act

                edge = state * n_signals + (sig_shirk ^ (act * (sig_work ^ sig_shirk)))
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
     exceed_counts, belief_sum) = (part.sum(axis=0) for part in parts)

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
        mean_belief=np.array([sum(c << 31 * i for i, c in enumerate(row)) / (paths << k)
                              for row in belief_sum.tolist()]),  # correctly rounded
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
    _one_blas_thread("scipy.linalg")
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
