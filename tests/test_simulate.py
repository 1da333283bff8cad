import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from replab import (
    EquilibriumAutomaton,
    GameParams,
    MonitoringStructure,
    SimulationConfig,
    analytic_long_run_effort,
    automaton_from_dict,
    automaton_to_dict,
    bayes_update,
    construct_non_efe,
    martingale_diagnostic,
    simulate,
    verify,
)
from replab.equilibria import REGIME_FIRST, REGIME_INITIAL, REGIME_SECOND, REGIME_THIRD
from replab.errors import DepthInsufficient, ValidationError
import importlib

from conftest import child_env

sim_module = importlib.import_module("replab.simulate")


@pytest.fixture(scope="module")
def small_run(non_efe_automaton, ref_params, binary75):
    config = SimulationConfig(horizon=500, paths=20_000, master_seed=42)
    return simulate(non_efe_automaton, ref_params, binary75, config)


class TestDeterminism:
    def test_identical_seeds_identical_bytes(self, fe_automaton, ref_params, binary75):
        config = SimulationConfig(horizon=100, paths=3000, master_seed=11)
        a = simulate(fe_automaton, ref_params, binary75, config)
        b = simulate(fe_automaton, ref_params, binary75, config)
        assert a.to_json() == b.to_json()

    def test_different_seeds_differ(self, non_efe_automaton, ref_params, binary75):
        a = simulate(non_efe_automaton, ref_params, binary75,
                     SimulationConfig(horizon=50, paths=500, master_seed=1))
        b = simulate(non_efe_automaton, ref_params, binary75,
                     SimulationConfig(horizon=50, paths=500, master_seed=2))
        assert a.to_json() != b.to_json()

    def test_batching_invariance(self, non_efe_automaton, ref_params, binary75,
                                 monkeypatch):
        # per-path streams are keyed by (seed, path), so regrouping the paths
        # cannot change any draw; per-period counts are integers and
        # per-path aggregates reduce once, so every field is exact
        config = SimulationConfig(horizon=60, paths=900, master_seed=5)
        monkeypatch.setattr(sim_module, "_cpus", lambda: 2)
        full = simulate(non_efe_automaton, ref_params, binary75, config)
        monkeypatch.setattr(sim_module, "_BATCH", 128)
        monkeypatch.setattr(sim_module, "_BLOCK", 50)
        rebatched = simulate(non_efe_automaton, ref_params, binary75, config)
        assert np.array_equal(full.mean_effort, rebatched.mean_effort)
        assert np.array_equal(full.replace_rate, rebatched.replace_rate)
        assert np.array_equal(full.tenure_histogram, rebatched.tenure_histogram)
        assert np.array_equal(
            full.first_replacement_histogram, rebatched.first_replacement_histogram
        )
        assert full.favorable_total == rebatched.favorable_total
        assert full.long_run_effort == rebatched.long_run_effort
        assert full.martingale_mean == rebatched.martingale_mean
        assert np.array_equal(full.mean_belief, rebatched.mean_belief)
        assert full.to_json() == rebatched.to_json()
        assert full.counts == {"batches": 1, "workers": 1}
        assert rebatched.counts == {"batches": 8, "workers": 2}  # 450 paths each

    def test_json_holds_every_field_but_counts(self, fe_automaton, ref_params, binary75):
        stats = simulate(fe_automaton, ref_params, binary75,
                         SimulationConfig(horizon=20, paths=50, master_seed=1))
        names = {f.name for f in dataclasses.fields(stats)} - {"counts"}
        assert set(json.loads(stats.to_json())) == names


def _walk_off_automaton(signals):
    """State 0 keeps the incumbent on the first signal and moves to state 1
    on any other; state 1 has no edges, so a path walks off one period after
    its first other signal. Nobody is ever replaced."""
    return EquilibriumAutomaton(
        replace_prob=[0.0, 0.0], effort_prob=[0.5, 0.5], belief=[0.3, 0.3],
        next_state=[[0] + [1] * (len(signals) - 1), [-1] * len(signals)],
        regime=["A", "B"], initial=0, signals=signals, kind="custom",
    )


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWorkers:
    """W contiguous path ranges run at once: the first in the calling
    process, the others in forked children writing to shared memory."""

    @pytest.mark.parametrize("three_signals", [False, True], ids=["reference", "three-signal"])
    def test_worker_count_invariance(self, non_efe_automaton, ref_params, binary75,
                                     monkeypatch, three_signals):
        # 1001 paths are a multiple of neither 97, 194 nor 291
        if three_signals:
            monitoring = MonitoringStructure(
                ("A", "B", "C"), f0=(0.2, 0.2, 0.6), f1=(0.5, 0.3, 0.2)
            )
            params = GameParams(0.1, 0.6, 0.3, 0.05)
            automaton, _ = construct_non_efe(params, monitoring)
        else:
            automaton, params, monitoring = non_efe_automaton, ref_params, binary75
        # windows of 1 and 3 periods and one window of the whole horizon
        config = SimulationConfig(horizon=40, paths=1001, master_seed=9)
        monkeypatch.setattr(sim_module, "_cpus", lambda: 1)
        serial = simulate(automaton, params, monitoring, config)
        monkeypatch.setattr(sim_module, "_BATCH", 97)
        monkeypatch.setattr(sim_module, "_BLOCK", 13)
        for window in (1, 3, 40):
            monkeypatch.setattr(sim_module, "_WINDOW", window)
            for workers in (1, 2, 3):
                monkeypatch.setattr(sim_module, "_cpus", lambda w=workers: w)
                stats = simulate(automaton, params, monitoring, config)
                assert stats.counts["workers"] == workers
                assert stats.to_json() == serial.to_json(), (window, workers)
                _assert_no_child_left()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_lowest_failing_range_gives_the_serial_message(self, ref_params, binary75,
                                                           monkeypatch, workers):
        # paths 400 .. 665 walk off at period 7 and paths 666 .. 999 at period
        # 3; with three workers (ranges from 0, 333 and 666) the child with
        # the lower range fails later but wins, as the serial run's first
        # failing batch (paths 388 .. 484) does; the steered periods 2 and 6
        # lie in the first and third windows of 3
        fill = sim_module._fill_window

        def steered(master_seed, start, t0, pi0, thresholds, draws, codes):
            fill(master_seed, start, t0, pi0, thresholds, draws, codes)
            codes[:, 1:] = 0  # the first signal under either action
            for i in range(codes.shape[2]):
                if start + i >= 400:
                    t = 6 if start + i < 666 else 2
                    if t0 <= t < t0 + len(codes):
                        codes[t - t0, 1:, i] = 1

        monkeypatch.setattr(sim_module, "_fill_window", steered)
        monkeypatch.setattr(sim_module, "_cpus", lambda: workers)
        monkeypatch.setattr(sim_module, "_BATCH", 97)
        monkeypatch.setattr(sim_module, "_WINDOW", 3)
        with pytest.raises(DepthInsufficient) as exc:
            simulate(_walk_off_automaton(binary75.signals), ref_params, binary75,
                     SimulationConfig(horizon=10, paths=1000, master_seed=1))
        assert str(exc.value) == "path walked off the materialized automaton at period 7"
        _assert_no_child_left()

    def test_failure_here_kills_and_reaps_every_child(self, non_efe_automaton, ref_params,
                                                      binary75, monkeypatch):
        here, fill = os.getpid(), sim_module._fill_window

        def failing(master_seed, start, t0, *window):
            if os.getpid() == here:
                raise RuntimeError("no uniforms")
            time.sleep(30)  # a child that is not killed holds the call up
            fill(master_seed, start, t0, *window)

        monkeypatch.setattr(sim_module, "_fill_window", failing)
        monkeypatch.setattr(sim_module, "_cpus", lambda: 3)
        monkeypatch.setattr(sim_module, "_BATCH", 100)
        began = time.perf_counter()
        with pytest.raises(RuntimeError, match="no uniforms"):
            simulate(non_efe_automaton, ref_params, binary75,
                     SimulationConfig(horizon=10, paths=300, master_seed=1))
        assert time.perf_counter() - began < 10
        _assert_no_child_left()

    def test_killed_child_is_reported_and_every_child_reaped(
        self, non_efe_automaton, ref_params, binary75, monkeypatch
    ):
        here, fill = os.getpid(), sim_module._fill_window

        def killing(master_seed, start, t0, *window):
            if os.getpid() != here and start >= 200:
                os.kill(os.getpid(), signal.SIGKILL)
            fill(master_seed, start, t0, *window)

        monkeypatch.setattr(sim_module, "_fill_window", killing)
        monkeypatch.setattr(sim_module, "_cpus", lambda: 3)
        monkeypatch.setattr(sim_module, "_BATCH", 100)
        with pytest.raises(ChildProcessError, match="worker 2 of 3 ended with exit code -9"):
            simulate(non_efe_automaton, ref_params, binary75,
                     SimulationConfig(horizon=10, paths=300, master_seed=1))
        _assert_no_child_left()

    @pytest.mark.probe
    def test_orphaned_child_stops_between_batches(self, tmp_path):
        # the parent dies once its child has begun 200 batches of 10 paths;
        # the child must see that between two batches and stop
        log = tmp_path / "child_batches"
        probe = f"""
import importlib, os, time
from replab import GameParams, MonitoringStructure, SimulationConfig, construct_non_efe

params, monitoring = GameParams(0.2, 0.5, 0.3, 0.05), MonitoringStructure.binary(0.75)
automaton, _ = construct_non_efe(params, monitoring)
sim = importlib.import_module("replab.simulate")
parent, fill = os.getpid(), sim._fill_window

def logged(master_seed, start, t0, *window):
    if os.getpid() == parent:
        while not os.path.exists({str(log)!r}):
            time.sleep(0.01)
        os._exit(0)
    if t0 == 0:  # a batch begins
        with open({str(log)!r}, "a") as f:
            f.write(f"{{start}} ")
    fill(master_seed, start, t0, *window)

sim._cpus, sim._BATCH, sim._fill_window = (lambda: 2), 10, logged
sim.simulate(automaton, params, monitoring,
             SimulationConfig(horizon=500, paths=4000, master_seed=1))
"""
        # the run ends when its output pipes close, so when the child has exited too
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              timeout=60, env=child_env())
        assert (done.returncode, done.stderr) == (0, "")
        assert 1 <= len(log.read_text().split()) < 50


def _stream(seed, path, horizon):
    """Path ``path``'s uniforms, (horizon, 4) slots [vote, type, action,
    signal], from its own freshly keyed Philox stream."""
    key = np.array([seed, path], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).random((horizon, 4))


def _signal_index(f, u):
    """The signal the law ``f`` gives each uniform ``u``: ``searchsorted`` on
    its cdf, whose last point is set to 1."""
    cdf = np.cumsum(f)
    cdf[-1] = 1.0
    return np.searchsorted(cdf, u, side="right")


class TestFastPathOracles:
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_batch_columns_are_fresh_philox_streams(
        self, non_efe_automaton, ref_params, binary75, monkeypatch, seed
    ):
        # 100 paths in batches of 40 (the last one partial), staged in blocks
        # of 16, over 7 periods in windows of 3 (from periods 0, 3 and 6) and
        # in one window: each fill must hold the 16-bit codes of its periods'
        # vote and action doubles of each path's own freshly keyed stream, and
        # the type and signal decisions its type and signal doubles give; one
        # worker, so that every fill is recorded in this process
        monkeypatch.setattr(sim_module, "_cpus", lambda: 1)
        monkeypatch.setattr(sim_module, "_BATCH", 40)
        monkeypatch.setattr(sim_module, "_BLOCK", 16)
        fill = sim_module._fill_window
        filled = {}

        def recording_fill(master_seed, start, t0, pi0, thresholds, draws, codes):
            fill(master_seed, start, t0, pi0, thresholds, draws, codes)
            filled[start, t0] = draws.copy(), codes.copy()

        monkeypatch.setattr(sim_module, "_fill_window", recording_fill)
        horizon = 7
        for window in (3, 256):
            monkeypatch.setattr(sim_module, "_WINDOW", window)
            filled.clear()
            simulate(non_efe_automaton, ref_params, binary75,
                     SimulationConfig(horizon=horizon, paths=100, master_seed=seed))
            t0s = list(range(0, horizon, window))
            assert sorted(filled) == [(start, t0) for start in (0, 40, 80) for t0 in t0s]
            periods = horizon - t0s[-1]
            assert [a.shape for a in filled[80, t0s[-1]]] == [(periods, 2, 20), (periods, 3, 20)]
            for (start, t0), (draws, codes) in filled.items():
                for i in range(draws.shape[2]):
                    u = _stream(seed, start + i, horizon)[t0 : t0 + len(draws)]
                    assert np.array_equal(draws[:, :, i], np.floor(u[:, ::2] * 2**16)), start + i
                    assert np.array_equal(codes[:, 0, i], u[:, 1] < ref_params.pi0), start + i
                    assert np.array_equal(codes[:, 1, i], _signal_index(binary75.f0, u[:, 3]))
                    assert np.array_equal(codes[:, 2, i], _signal_index(binary75.f1, u[:, 3]))

    def test_uniforms_are_held_one_window_at_a_time(
        self, non_efe_automaton, ref_params, binary75, monkeypatch
    ):
        # a batch's draws no longer grow with the horizon, and on binary
        # signals a path-period holds 7 bytes: two 16-bit draws and three codes
        monkeypatch.setattr(sim_module, "_cpus", lambda: 1)
        fill = sim_module._fill_window
        shapes = {}

        def recording_fill(master_seed, start, t0, pi0, thresholds, draws, codes):
            assert len(draws) <= sim_module._WINDOW
            assert (draws.dtype, codes.dtype) == (np.uint16, np.uint8)
            assert draws[0, :, 0].nbytes + codes[0, :, 0].nbytes == 7
            shapes[t0] = draws.shape, codes.shape
            fill(master_seed, start, t0, pi0, thresholds, draws, codes)

        monkeypatch.setattr(sim_module, "_fill_window", recording_fill)
        simulate(non_efe_automaton, ref_params, binary75,
                 SimulationConfig(horizon=1000, paths=50, master_seed=1))
        assert shapes == {t0: ((periods, 2, 50), (periods, 3, 50))
                          for t0, periods in [(0, 256), (256, 256), (512, 256), (768, 232)]}

    @pytest.mark.parametrize("pi0", [0.3, 5e-324, 1.0 - 2.0**-53])
    @pytest.mark.parametrize("f0, f1", [
        ((0.25, 0.75), (0.75, 0.25)),
        ((0.2, 0.2, 0.6), (0.5, 0.3, 0.2)),
        ((0.1, 0.2, 0.3, 0.4), (0.4, 0.3, 0.2, 0.1)),
        ((0.0, 0.4, 0.6), (0.5, 0.3, 0.2)),  # an interior cdf point of exactly 0.0
        ((0.4, 0.6, 0.0), (0.2, 0.3, 0.5)),  # ... of exactly 1.0
        ((0.0, 1.0, 0.0, 0.0), (0.4, 0.3, 0.2, 0.1)),  # 0.0, 1.0 and 1.0
        ((1.0, 0.0, 0.0), (0.2, 0.3, 0.5)),  # 1.0 and 1.0: no word reaches a cut
        ((0.5, 0.5 + 5e-13, 0.0), (0.5, 0.25, 0.25)),  # one past 1, within the simplex tol
    ])
    def test_signal_lookup_equals_searchsorted(self, f0, f1, pi0, monkeypatch):
        # every slot of a path's one-period window holds the same Philox word
        # x, built from a uniform; with u = (x >> 11) * 2^-53 its double, the
        # vote and action codes must be floor(u * 2^16) = x >> 48, the signal
        # codes searchsorted on each law's interior cdf points and the type
        # code u < pi0. The uniforms are random ones, each cut point, the
        # double below it, 0 and the largest double below 1; from each, the
        # words of the doubles at and around it, with low 11 bits 0 and 2047,
        # so that every cut has words on both sides of it
        MonitoringStructure(tuple("ABCD"[: len(f0)]), f0=f0, f1=f1)  # a valid law pair
        cdfs = [np.cumsum(f0)[:-1], np.cumsum(f1)[:-1]]
        interior = np.concatenate(cdfs + [[pi0]])
        u = np.concatenate([interior, np.nextafter(interior, 0.0), [0.0, np.nextafter(1.0, 0.0)]])
        near = np.concatenate([np.floor(u * 2**53) + d for d in (-1, 0, 1, 2)])
        m = np.concatenate([np.random.default_rng(0).random(5000) * 2**53,
                            np.clip(near, 0, 2**53 - 1)]).astype(np.uint64)
        words = np.concatenate([m << np.uint64(11), m << np.uint64(11) | np.uint64(2047)])
        exact = (words >> np.uint64(11)) * 2.0**-53
        for point in interior[(0.0 < interior) & (interior < 1.0)]:
            assert np.count_nonzero(exact < point) and np.count_nonzero(exact >= point)
        draws = np.empty((1, 2, len(words)), np.uint16)
        codes = np.empty((1, 3, len(words)), np.uint8)
        # a stand-in for the rekeyed Philox: path p's slots all hold words[p]
        monkeypatch.setattr(sim_module, "_streams", lambda seed: lambda path, t: SimpleNamespace(
            bit_generator=SimpleNamespace(random_raw=lambda n: np.full(n, words[path]))))
        sim_module._fill_window(0, 0, 0, pi0, np.array(cdfs), draws, codes)
        assert np.array_equal(draws[0], [words >> np.uint64(48)] * 2)
        assert np.array_equal(draws[0], np.floor([exact * 2**16] * 2))
        assert np.array_equal(codes[0, 0], exact < pi0)
        assert np.array_equal(codes[0, 1], np.searchsorted(cdfs[0], exact, side="right"))
        assert np.array_equal(codes[0, 2], np.searchsorted(cdfs[1], exact, side="right"))

    def test_xor_signal_select_equals_where(self):
        # the kernel picks the work signal where the incumbent acts and the
        # shirk signal elsewhere by shirk ^ (act * (work ^ shirk)): equal to
        # np.where for every pair of uint8 codes under either action
        work, shirk = (a.ravel() for a in np.meshgrid(*[np.arange(256, dtype=np.uint8)] * 2))
        alternating = np.arange(len(work)) % 2 == 1
        for act in (np.zeros(len(work), bool), np.ones(len(work), bool), alternating):
            picked = shirk ^ (act * (work ^ shirk))
            assert picked.dtype == np.uint8
            assert np.array_equal(picked, np.where(act, work, shirk))

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_generator_doubles_are_the_raw_words_shifted(self, seed):
        # the window decides on raw Philox words because Generator.random
        # forms each double as (x >> 11) * 2^-53 from one word x, and a
        # rekeyed Philox gives a fresh stream's words; a numpy release that
        # changes either fails here
        key = np.array([seed, 12345], dtype=np.uint64)
        doubles = np.random.Generator(np.random.Philox(key=key)).random(4000)
        words = np.random.Philox(key=key).random_raw(4000)
        assert np.array_equal(doubles, (words >> np.uint64(11)) * 2.0**-53)
        seek = sim_module._streams(seed)
        for path, t in [(12345, 0), (7, 3), (12345, 250), (2**63, 1)]:
            fresh = np.random.Philox(key=np.array([seed, path], dtype=np.uint64))
            expected = fresh.random_raw(4 * (t + 10))[4 * t:]
            assert np.array_equal(seek(path, t).bit_generator.random_raw(40), expected)

    def test_decision_on_16_bit_codes_equals_the_exact_comparison(self):
        # each probability against uniforms in its own 2^-16 cell on both
        # sides of it, the cell's ends, 0, the largest double below 1 and
        # random ones; a code equal to its cut is decided on the redrawn double
        half, ref = 0.5, 0.6417910447761195
        probs = np.array([0.0, np.nextafter(0.0, 1.0), 1.0, np.nextafter(1.0, 0.0),
                          *(np.nextafter(p, d) for p in (half, ref) for d in (0.0, p, 1.0))])
        assert half * 2**16 == 32768 and probs[4:].tolist().count(ref) == 1
        cell = np.floor(probs * 2**16) / 2**16
        u = np.unique(np.concatenate([
            cell, np.nextafter(cell + 2.0**-16, 0.0), probs, np.nextafter(probs, 0.0),
            np.nextafter(probs, 1.0), [0.0, 1.0 - 2.0**-53],
            np.random.default_rng(3).random(2000),
        ]))
        u = u[u < 1.0]
        state, i = (a.ravel() for a in np.meshgrid(np.arange(len(probs)), np.arange(len(u))))
        code = np.floor(u[i] * 2**16).astype(np.uint16)
        cut = sim_module._cuts(probs)
        asked = []

        def redraw(ties):
            asked.append(ties)
            return u[i[ties]]

        decided = sim_module._decide(code, state, probs, cut, redraw)
        assert np.array_equal(decided, u[i] < probs[state])
        # only the codes equal to their cut were redrawn, in one call
        assert len(asked) == 1 and np.array_equal(asked[0], np.flatnonzero(code == cut[state]))
        assert len(asked[0]) > 4 * len(probs)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_redraw_is_the_streams_double(self, seed):
        # one Philox, rekeyed for every (path, period) in any order, gives
        # the double a freshly keyed stream holds there
        rng = np.random.default_rng(seed % 1000)
        seek, horizon = sim_module._streams(seed), 40
        for _ in range(30):
            paths = rng.integers(0, 2**40, size=rng.integers(1, 4))
            t, slot = int(rng.integers(horizon)), int(rng.integers(4))
            redrawn = sim_module._redraw(seek, paths, t, slot)
            assert redrawn.tolist() == [_stream(seed, p, horizon)[t, slot] for p in paths]


def _replayed_means(automaton, params, monitoring, config):
    """Each period's exact mean belief and mean effort of the acting
    incumbents, replayed over all paths at once in plain numpy from each
    path's own freshly keyed Philox stream: the vote, a fresh type on
    replacement, the action, and the signal by ``searchsorted`` on the
    action law's cdf."""
    u = np.stack([_stream(config.master_seed, p, config.horizon) for p in range(config.paths)],
                 axis=2)
    state = np.full(config.paths, automaton.initial)
    good = np.zeros(config.paths, bool)
    beliefs, efforts = [], []
    for t, (vote, draw_type, draw_act, draw_sig) in enumerate(u):
        out = vote < automaton.replace_prob[state] if t else np.ones(config.paths, bool)
        state = np.where(out, automaton.initial, state)
        good = np.where(out, draw_type < params.pi0, good)
        beliefs.append(sum(map(Fraction, automaton.belief[state].tolist())) / config.paths)
        act = (draw_act < automaton.effort_prob[state]) | good
        efforts.append(np.count_nonzero(act) / config.paths)
        sig = np.where(act, _signal_index(monitoring.f1, draw_sig),
                       _signal_index(monitoring.f0, draw_sig))
        state = automaton.next_state[state, sig]
    return beliefs, efforts


class TestExactBeliefMeans:
    """``mean_belief`` is each period's correctly rounded mean of the acting
    incumbents' beliefs, formed from integer limb sums."""

    def test_reference_run_is_correctly_rounded(self, non_efe_automaton, ref_params,
                                                binary75, monkeypatch):
        # two workers of two batches each; a floating-point sum of the
        # beliefs misses the rounded mean in some periods
        monkeypatch.setattr(sim_module, "_cpus", lambda: 2)
        monkeypatch.setattr(sim_module, "_BATCH", 50)
        config = SimulationConfig(horizon=100, paths=200, master_seed=7)
        beliefs, efforts = _replayed_means(non_efe_automaton, ref_params, binary75, config)
        stats = simulate(non_efe_automaton, ref_params, binary75, config)
        assert stats.counts == {"batches": 4, "workers": 2}
        assert stats.mean_belief.tolist() == [float(mean) for mean in beliefs]
        assert stats.mean_effort.tolist() == efforts

    def test_zero_probability_signal_is_replayed_exactly(self, monkeypatch):
        # the shirk law never gives signal A: its first interior cdf point
        # is exactly 0.0, a cut every word reaches
        monitoring = MonitoringStructure(("A", "B", "C"), f0=(0.0, 0.4, 0.6),
                                         f1=(0.5, 0.3, 0.2))
        params = GameParams(0.1, 0.6, 0.3, 0.05)
        automaton, _ = construct_non_efe(params, monitoring)
        monkeypatch.setattr(sim_module, "_cpus", lambda: 2)
        monkeypatch.setattr(sim_module, "_BATCH", 150)
        config = SimulationConfig(horizon=80, paths=300, master_seed=5)
        stats = simulate(automaton, params, monitoring, config)
        beliefs, efforts = _replayed_means(automaton, params, monitoring, config)
        assert stats.mean_belief.tolist() == [float(mean) for mean in beliefs]
        assert stats.mean_effort.tolist() == efforts

    def test_extreme_beliefs_need_no_overflow(self, ref_params, binary75):
        # 1.0, the least subnormal and 0.0 give a 1,126-bit fixed point
        automaton = EquilibriumAutomaton(
            replace_prob=[0.1, 0.2, 0.3, 0.4], effort_prob=[0.5, 0.4, 0.3, 0.2],
            belief=[1.0, 0.3, 5e-324, 0.0], next_state=[[1, 2], [2, 3], [3, 0], [0, 1]],
            regime=["A", "B", "C", "D"], initial=0, signals=binary75.signals, kind="custom",
        )
        config = SimulationConfig(horizon=50, paths=300, master_seed=3)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            stats = simulate(automaton, ref_params, binary75, config)
        beliefs, _ = _replayed_means(automaton, ref_params, binary75, config)
        assert stats.mean_belief.tolist() == [float(mean) for mean in beliefs]
        assert 0.0 < stats.mean_belief.min() and stats.mean_belief.max() == 1.0

    def test_wide_signal_alphabet_holds_uint16_codes(self, ref_params, monkeypatch):
        # 300 signals: signal indices up to 299 need uint16 codes, and an index
        # off by one moves a path to another state
        signals = tuple(f"s{j}" for j in range(300))
        weights = np.arange(1.0, 301.0)
        monitoring = MonitoringStructure(signals, f0=tuple((weights / weights.sum()).tolist()),
                                         f1=(1 / 300,) * 300)
        automaton = EquilibriumAutomaton(
            replace_prob=[0.0, 0.1, 0.2, 0.3, 0.4], effort_prob=[0.9, 0.7, 0.5, 0.3, 0.1],
            belief=[0.3, 0.1, 0.45, 0.6, 0.8],
            next_state=(np.arange(5)[:, None] + np.arange(300)) % 5,
            regime=list("ABCDE"), initial=0, signals=signals, kind="custom",
        )
        fill, dtypes = sim_module._fill_window, set()

        def recording_fill(master_seed, start, t0, pi0, thresholds, draws, codes):
            dtypes.add(codes.dtype)
            fill(master_seed, start, t0, pi0, thresholds, draws, codes)

        monkeypatch.setattr(sim_module, "_fill_window", recording_fill)
        monkeypatch.setattr(sim_module, "_cpus", lambda: 1)
        config = SimulationConfig(horizon=60, paths=400, master_seed=13)
        stats = simulate(automaton, ref_params, monitoring, config)
        beliefs, efforts = _replayed_means(automaton, ref_params, monitoring, config)
        assert dtypes == {np.dtype(np.uint16)}
        assert stats.mean_belief.tolist() == [float(mean) for mean in beliefs]
        assert stats.mean_effort.tolist() == efforts


def _transient_curves(automaton, params, monitoring, horizon):
    """Exact per-period laws, pushed forward over the horizon: the law of
    (acting state, type) gives mean effort, mean belief and its variance,
    the pre-vote law gives the replacement rate, and the sub-law of paths
    whose first incumbent was never replaced gives that incumbent's survival
    after each vote."""
    from scipy.sparse import csr_matrix

    sv, sp, pi = automaton.replace_prob, automaton.effort_prob, automaton.belief
    nxt = automaton.next_state
    n, n_signals = nxt.shape
    f0, f1 = np.array(monitoring.f0), np.array(monitoring.f1)
    rows = np.repeat(np.arange(n), n_signals)
    cols = nxt.ravel()
    keep = cols >= 0

    def kernel(law):  # law[s, j] = P(signal j | state s)
        return csr_matrix(
            (law.ravel()[keep], (rows[keep], cols[keep])), shape=(n, n)
        ).T.tocsr()

    # row 0: opportunists, who work with the state's effort probability;
    # row 1: good types, who always work
    kernels = (
        kernel(sp[:, None] * f1 + (1.0 - sp[:, None]) * f0),
        kernel(np.broadcast_to(f1, (n, n_signals))),
    )
    fresh = np.zeros((2, n))
    fresh[:, automaton.initial] = (1.0 - params.pi0, params.pi0)

    def advance(law):
        return np.stack([k @ row for k, row in zip(kernels, law)])

    acting = fresh.copy()
    first = fresh.copy()
    curves = {key: np.zeros(horizon) for key in
              ("effort", "replace", "belief", "belief_var", "survival")}
    for t in range(horizon):
        if t > 0:
            arrived = advance(acting)
            out = arrived * sv
            curves["replace"][t] = out.sum()
            acting = arrived - out + fresh * out.sum()
            first = advance(first) * (1.0 - sv)
        occupancy = acting.sum(axis=0)
        mean = occupancy @ pi
        curves["effort"][t] = acting[1].sum() + acting[0] @ sp
        curves["belief"][t] = mean
        curves["belief_var"][t] = occupancy @ (pi - mean) ** 2
        curves["survival"][t] = first.sum()
    assert abs(acting.sum() - 1.0) < 1e-12  # no mass walked off
    return curves


def _curve_z(simulated, exact, variance, paths):
    """z-scores of a simulated per-period mean against its exact value;
    periods with zero variance must match exactly (to rounding)."""
    se = np.sqrt(np.clip(variance, 0.0, None) / paths)
    degenerate = se < 1e-12
    assert np.all(np.abs(simulated - exact)[degenerate] < 1e-12)
    return (simulated - exact)[~degenerate] / se[~degenerate]


def _assert_curves_match_transient_law(stats, automaton, params, monitoring):
    exact = _transient_curves(automaton, params, monitoring, stats.horizon)
    survival = 1.0 - np.cumsum(stats.first_replacement_histogram[: stats.horizon]) / stats.paths

    def bernoulli(p):
        return p * (1.0 - p)

    checks = {
        "effort": (stats.mean_effort, exact["effort"], bernoulli(exact["effort"])),
        "replace": (stats.replace_rate, exact["replace"], bernoulli(exact["replace"])),
        "belief": (stats.mean_belief, exact["belief"], exact["belief_var"]),
        "survival": (survival, exact["survival"], bernoulli(exact["survival"])),
    }
    for name, (simulated, value, variance) in checks.items():
        z = _curve_z(simulated, value, variance, stats.paths)
        # hundreds of periods per curve: a per-period tail bound plus a
        # mean-square bound that a bias of about 1.5 SE in every period fails
        assert np.max(np.abs(z)) <= 5.0, name
        assert np.mean(z**2) <= 2.0, name


class TestTransientOracle:
    def test_reference_curves(self, small_run, non_efe_automaton, ref_params, binary75):
        _assert_curves_match_transient_law(small_run, non_efe_automaton, ref_params, binary75)

    def test_three_signal_curves(self):
        monitoring = MonitoringStructure(
            ("A", "B", "C"), f0=(0.2, 0.2, 0.6), f1=(0.5, 0.3, 0.2)
        )
        params = GameParams(0.1, 0.6, 0.3, 0.05)
        auto, _ = construct_non_efe(params, monitoring)
        stats = simulate(auto, params, monitoring,
                         SimulationConfig(horizon=300, paths=5000, master_seed=31))
        _assert_curves_match_transient_law(stats, auto, params, monitoring)


class TestFullEffortInvariants:
    def test_effort_identically_one_and_no_favorable(self, fe_automaton, ref_params,
                                                     binary75):
        stats = simulate(fe_automaton, ref_params, binary75,
                         SimulationConfig(horizon=300, paths=5000, master_seed=9))
        assert np.all(stats.mean_effort == 1.0)
        assert stats.favorable_total == 0
        assert np.all(stats.favorable_replacements == 0)
        assert martingale_diagnostic(stats) == 0.0

    def test_type_has_no_effect_on_tenure_law(self, fe_automaton, ref_params, binary75):
        # all incumbents work under this automaton, so changing the type mix
        # must leave the signal-driven replacement process untouched
        config = SimulationConfig(horizon=200, paths=4000, master_seed=17)
        all_opportunists = GameParams(0.2, 0.5, 1e-12, 0.05)
        nearly_all_good = GameParams(0.2, 0.5, 1.0 - 1e-12, 0.05)
        a = simulate(fe_automaton, all_opportunists, binary75, config)
        b = simulate(fe_automaton, nearly_all_good, binary75, config)
        assert np.array_equal(a.tenure_histogram, b.tenure_histogram)
        assert np.array_equal(
            a.first_replacement_histogram, b.first_replacement_histogram
        )
        assert np.array_equal(a.replace_rate, b.replace_rate)


class TestNonEfeDynamics:
    def test_long_run_effort_matches_analytic(self, small_run, non_efe_automaton,
                                              ref_params, binary75):
        analytic = analytic_long_run_effort(non_efe_automaton, ref_params, binary75)
        assert analytic.method == "lumped"
        z = (small_run.long_run_effort - analytic.value) / small_run.long_run_se
        assert abs(z) <= 3.0
        # strictly below full effort by a wide margin
        assert (1.0 - small_run.long_run_effort) / small_run.long_run_se > 10.0

    def test_martingale_z_small(self, small_run):
        assert abs(martingale_diagnostic(small_run)) <= 3.0

    def test_favorable_replacements_positive(self, small_run, ref_params, binary75,
                                             non_efe_automaton):
        assert small_run.favorable_total > 0
        a0 = non_efe_automaton.effort_prob[non_efe_automaton.initial]
        assert bayes_update(binary75, ref_params.pi0, a0, "Pass") > ref_params.pi0

    def test_first_politician_survival_decays(self, small_run):
        assert small_run.first_politician_survival[200] < 1e-3
        assert small_run.first_politician_survival[50] <= (
            small_run.first_politician_survival.get(100, 1.0) + 1.0
        )  # keys exist
        # geometric-style decay visible on the histogram tail
        assert small_run.first_replacement_histogram[:50].sum() > 0.99 * small_run.paths

    def test_corrupted_beliefs_blow_up_the_z_score(self, non_efe_automaton, ref_params,
                                                   binary75):
        first = non_efe_automaton.regime == REGIME_FIRST
        belief = non_efe_automaton.belief.copy()
        belief[first] = np.minimum(belief[first] + 0.05, 1.0)
        corrupted = dataclasses.replace(non_efe_automaton, belief=belief)
        stats = simulate(corrupted, ref_params, binary75,
                         SimulationConfig(horizon=300, paths=5000, master_seed=3))
        assert abs(martingale_diagnostic(stats)) > 5.0

    def test_walk_off_raises(self, ref_params, binary75):
        shallow, _ = construct_non_efe(ref_params, binary75, max_depth=5)
        assert not shallow.complete
        with pytest.raises(DepthInsufficient):
            simulate(shallow, ref_params, binary75,
                     SimulationConfig(horizon=200, paths=2000, master_seed=1))

    def test_burn_in_sensitivity_reported(self, small_run):
        assert small_run.burn_in == 100
        assert set(small_run.burn_in_sensitivity) == {0, 50, 100, 200}
        spread = max(small_run.burn_in_sensitivity.values()) - min(
            small_run.burn_in_sensitivity.values()
        )
        assert spread < 0.005  # chain mixes fast; burn-in barely matters


class TestAnalyticOracle:
    def test_lumped_matches_direct_solve(self, non_efe_automaton, ref_params, binary75):
        lumped = analytic_long_run_effort(non_efe_automaton, ref_params, binary75)
        untagged = dataclasses.replace(non_efe_automaton, kind="custom", meta={})
        direct = analytic_long_run_effort(untagged, ref_params, binary75)
        assert direct.method == "direct"
        assert lumped.value == pytest.approx(direct.value, abs=1e-12)
        # frozen during the pre-build oracle pass: 4289/4630 at a0 = 9/14
        assert lumped.value == pytest.approx(4289.0 / 4630.0, abs=1e-9)

    def test_renamed_regimes_lump_alike(self, non_efe_automaton, ref_params, binary75):
        # the four labels renamed consistently, in reverse sorted order: the
        # blocks are numbered otherwise, the lumped chain is the same
        rename = {REGIME_FIRST: "d", REGIME_INITIAL: "c", REGIME_SECOND: "b", REGIME_THIRD: "a"}
        auto = non_efe_automaton
        renamed = dataclasses.replace(auto, regime=[rename[r] for r in auto.regime])
        lumped = analytic_long_run_effort(renamed, ref_params, binary75)
        assert lumped.method == "lumped"
        assert lumped.value == pytest.approx(
            analytic_long_run_effort(auto, ref_params, binary75).value, abs=1e-12)

    def test_rewired_second_regime_is_read_from_the_arrays(
        self, non_efe_automaton, ref_params, binary75
    ):
        # every SecondRegime Pass edge now ends the career: the regime still
        # lumps, but into a different chain than the construction's closed forms
        auto = non_efe_automaton
        sv, nxt = auto.replace_prob, auto.next_state
        dead = np.flatnonzero((sv == 1.0) & (nxt == np.arange(len(sv))[:, None]).all(axis=1))[0]
        nxt = nxt.copy()
        nxt[auto.regime == REGIME_SECOND, auto.signals.index("Pass")] = dead
        rewired = dataclasses.replace(auto, next_state=nxt)
        lumped = analytic_long_run_effort(rewired, ref_params, binary75)
        direct = analytic_long_run_effort(
            dataclasses.replace(rewired, kind="custom"), ref_params, binary75
        )
        assert lumped.method == "lumped" and direct.method == "direct"
        assert lumped.value == pytest.approx(direct.value, abs=1e-12)
        assert lumped.value == pytest.approx(0.84165, abs=1e-5)
        stats = simulate(rewired, ref_params, binary75,
                         SimulationConfig(horizon=300, paths=5000, master_seed=31))
        assert abs(stats.long_run_effort - lumped.value) <= 4 * stats.long_run_se

    def test_unreachable_regime_is_left_out(self, non_efe_automaton, ref_params, binary75):
        # an absorbing state no career reaches must not enter the lumped chain
        auto = non_efe_automaton
        orphan = len(auto.states)
        padded = dataclasses.replace(
            auto,
            replace_prob=[*auto.replace_prob, 0.0],
            effort_prob=[*auto.effort_prob, 0.0],
            belief=[*auto.belief, 0.5],
            next_state=[*auto.next_state, [orphan] * len(auto.signals)],
            regime=[*auto.regime, "Orphan"],
        )
        lumped = analytic_long_run_effort(padded, ref_params, binary75)
        assert lumped.method == "lumped"
        assert lumped.value == analytic_long_run_effort(auto, ref_params, binary75).value

    def test_unreachable_state_does_not_block_lumping(
        self, non_efe_automaton, ref_params, binary75
    ):
        # a retaining SecondRegime state that no career reaches, whose row (every
        # signal ends the career) differs from its peers': no incumbent ever acts
        # there, so the regime still lumps
        auto = non_efe_automaton
        dead = np.flatnonzero(auto.regime == REGIME_THIRD)[0]
        padded = dataclasses.replace(
            auto,
            replace_prob=[*auto.replace_prob, 0.0],
            effort_prob=[*auto.effort_prob, 1.0],
            belief=[*auto.belief, 0.5],
            next_state=[*auto.next_state, [dead] * len(auto.signals)],
            regime=[*auto.regime, REGIME_SECOND],
        )
        lumped = analytic_long_run_effort(padded, ref_params, binary75)
        direct = analytic_long_run_effort(
            dataclasses.replace(padded, kind="custom"), ref_params, binary75
        )
        assert lumped.method == "lumped" and direct.method == "direct"
        assert lumped.value == pytest.approx(direct.value, abs=1e-12)
        assert lumped.value == analytic_long_run_effort(auto, ref_params, binary75).value

    def test_open_initial_branch_is_not_lumped(self, ref_params, binary75):
        # depth 0 leaves the initial state's failing edge open; its successor
        # would be a FirstRegime state, not another initial state
        auto, _ = construct_non_efe(ref_params, binary75, max_depth=0)
        result = analytic_long_run_effort(auto, ref_params, binary75)
        assert result.method == "truncated" and result.residual > 0.0

    def test_full_effort_is_one(self, fe_automaton, ref_params, binary75):
        assert analytic_long_run_effort(
            fe_automaton, ref_params, binary75
        ).value == pytest.approx(1.0, abs=1e-12)

    def test_renewal_chain(self, ref_params, binary75):
        # shirk-always incumbents, replaced after every period: each period
        # is a fresh draw acting once, so long-run effort equals pi0
        auto = EquilibriumAutomaton(
            replace_prob=[0.0, 1.0], effort_prob=[0.0, 0.0],
            belief=[ref_params.pi0, ref_params.pi0], next_state=[[1, 1], [1, 1]],
            regime=["Initial", REGIME_THIRD], initial=0,
            signals=binary75.signals, kind="custom",
        )
        result = analytic_long_run_effort(auto, ref_params, binary75)
        assert result.value == pytest.approx(ref_params.pi0, abs=1e-12)
        stats = simulate(auto, ref_params, binary75,
                         SimulationConfig(horizon=200, paths=4000, master_seed=23))
        assert stats.long_run_effort == pytest.approx(ref_params.pi0, abs=0.02)

    @pytest.mark.parametrize("kind", ["custom", "non-efe"])
    def test_two_closed_classes_are_refused(self, two_closed_classes, ref_params, binary75,
                                            kind):
        # the long-run effort depends on which class a career enters: no
        # single value, whichever oracle solves the chain
        auto = dataclasses.replace(two_closed_classes, kind=kind)
        with pytest.raises(ValidationError) as exc:
            analytic_long_run_effort(auto, ref_params, binary75)
        assert [v.code for v in exc.value.violations] == ["NoUniqueStationaryLaw"]

    @pytest.mark.parametrize("kind, method", [("custom", "direct"), ("non-efe", "lumped")])
    def test_closed_class_that_avoids_the_initial_state(self, ref_params, binary75, kind,
                                                        method):
        # states 0 and 1 are transient and every career ends in {2, 3}: the
        # chain keeps a good incumbent (2) or one in doubt (3), with long-run
        # effort 22/23, and never renews
        auto = EquilibriumAutomaton(
            replace_prob=[0.0, 0.3, 0.0, 0.0], effort_prob=[0.5, 0.5, 1.0, 0.2],
            belief=[0.3, 0.2, 0.9, 0.8], next_state=[[1, 2], [1, 2], [3, 2], [3, 2]],
            regime=["A", "B", "C", "D"], initial=0, signals=binary75.signals, kind=kind,
        )
        result = analytic_long_run_effort(auto, ref_params, binary75)
        assert result.method == method
        assert result.value == pytest.approx(22 / 23, abs=1e-12)

    def test_label_per_state_ring_is_solved_in_edge_memory(self, ref_params, binary75):
        # 1,500 labels are more blocks than a state has edges (2S = 4), so the
        # direct oracle answers, with no (acting states x labels) array
        for module in ("scipy.sparse.csgraph", "scipy.sparse.linalg"):
            importlib.import_module(module)  # loaded before the trace
        n = 1500
        ring = EquilibriumAutomaton(
            replace_prob=[0.1] * n, effort_prob=[0.5] * n, belief=[0.3] * n,
            next_state=[[(i + 1) % n, i] for i in range(n)], regime=[str(i) for i in range(n)],
            initial=0, signals=binary75.signals, kind="non-efe",
        )
        tracemalloc.start()
        try:
            result = analytic_long_run_effort(ring, ref_params, binary75)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.method == "direct" and peak < 20e6
        one_label = analytic_long_run_effort(
            dataclasses.replace(ring, regime=["ring"] * n), ref_params, binary75)
        assert one_label.method == "lumped"
        assert result.value == pytest.approx(one_label.value, abs=1e-12)

    def test_truncated_tree_reports_residual(self):
        monitoring = MonitoringStructure(
            ("A", "B", "C", "D"), f0=(0.1, 0.2, 0.3, 0.4), f1=(0.4, 0.3, 0.2, 0.1)
        )
        params = GameParams(0.1, 0.7, 0.3, 0.05)
        auto, _ = construct_non_efe(params, monitoring, max_depth=8)
        lumped = analytic_long_run_effort(auto, params, monitoring)
        assert lumped.method == "lumped"
        stripped = dataclasses.replace(auto, kind="custom", meta={})
        truncated = analytic_long_run_effort(stripped, params, monitoring)
        assert truncated.method == "truncated"
        assert truncated.residual > 0.0
        assert truncated.value == pytest.approx(lumped.value, abs=10 * truncated.residual)

    def test_open_edge_is_truncated_whatever_the_file_says(
        self, non_efe_automaton, ref_params, binary75
    ):
        # a file's complete flag used to label this open chain "direct"
        payload = automaton_to_dict(non_efe_automaton, ref_params, binary75)
        payload["transitions"] = [t for t in payload["transitions"]
                                  if (t["from"], t["signal"]) != (2, "Fail")]
        payload.update(kind="custom", complete=True)
        auto = automaton_from_dict(payload)[0]
        assert not auto.complete
        result = analytic_long_run_effort(auto, ref_params, binary75)
        assert result.method == "truncated" and result.residual > 0.0

    def test_outputs_pinned(self, non_efe_automaton, fe_automaton, ref_params, binary75):
        # exact values: any change to either oracle's arithmetic shows here
        monitoring = MonitoringStructure(
            ("A", "B", "C", "D"), f0=(0.1, 0.2, 0.3, 0.4), f1=(0.4, 0.3, 0.2, 0.1)
        )
        params = GameParams(0.1, 0.7, 0.3, 0.05)
        two_fail, _ = construct_non_efe(params, monitoring, max_depth=8)

        def custom(auto):
            return dataclasses.replace(auto, kind="custom", meta={})

        cases = [
            (non_efe_automaton, ref_params, binary75, "lumped", 0.9263498920130506, 0.0),
            (custom(non_efe_automaton), ref_params, binary75, "direct", 0.9263498920130507, 0.0),
            (fe_automaton, ref_params, binary75, "direct", 1.0, 0.0),
            (two_fail, params, monitoring, "lumped", 0.9151367081263504, 0.0),
            (custom(two_fail), params, monitoring,
             "truncated", 0.9151368661381197, 4.098752692511605e-06),
        ]
        for auto, game, signals, method, value, residual in cases:
            result = analytic_long_run_effort(auto, game, signals)
            assert (result.method, result.value, result.residual) == (method, value, residual)

    def test_three_signal_sim_vs_lumped(self):
        monitoring = MonitoringStructure(
            ("A", "B", "C"), f0=(0.2, 0.2, 0.6), f1=(0.5, 0.3, 0.2)
        )
        params = GameParams(0.1, 0.6, 0.3, 0.05)
        auto, _ = construct_non_efe(params, monitoring)
        analytic = analytic_long_run_effort(auto, params, monitoring)
        stats = simulate(auto, params, monitoring,
                         SimulationConfig(horizon=300, paths=5000, master_seed=29))
        z = (stats.long_run_effort - analytic.value) / stats.long_run_se
        assert abs(z) <= 3.5


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_lumped_oracle_equals_direct_solve_after_any_rewire(
    non_efe_automaton, ref_params, binary75, data
):
    # one edge of the reference automaton rewired to any state: whenever the
    # regimes still lump, the lumped value is the direct solve's
    auto = non_efe_automaton
    edge = data.draw(st.sampled_from(np.argwhere(auto.next_state >= 0).tolist()))
    nxt = auto.next_state.copy()
    nxt[tuple(edge)] = data.draw(st.integers(0, len(auto.states) - 1))
    rewired = dataclasses.replace(auto, next_state=nxt)
    lumped = analytic_long_run_effort(rewired, ref_params, binary75)
    direct = analytic_long_run_effort(
        dataclasses.replace(rewired, kind="custom"), ref_params, binary75
    )
    assert direct.method == "direct"
    if lumped.method == "lumped":
        assert lumped.value == pytest.approx(direct.value, abs=1e-12)
    else:
        assert lumped == direct


class TestConfig:
    def test_rejects_degenerate_sizes(self):
        with pytest.raises(ValidationError):
            SimulationConfig(horizon=0, paths=10, master_seed=1)
        with pytest.raises(ValidationError):
            SimulationConfig(horizon=10, paths=0, master_seed=1)

    def test_rejects_paths_past_the_limb_sums(self):
        # every per-period belief limb sum fits in int64 below 2^32 paths
        SimulationConfig(horizon=10, paths=2**32 - 1, master_seed=1)
        with pytest.raises(ValidationError, match="BadSimulationConfig"):
            SimulationConfig(horizon=10, paths=2**32, master_seed=1)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_seeds_outside_philox_keys(self, seed):
        with pytest.raises(ValidationError):
            SimulationConfig(horizon=10, paths=10, master_seed=seed)


@pytest.mark.parametrize("call", [
    lambda *case: verify(*case),
    lambda *case: analytic_long_run_effort(*case),
    lambda *case: simulate(*case, SimulationConfig(horizon=300, paths=4000, master_seed=7)),
], ids=["verify", "analytic", "simulate"])
def test_signals_out_of_the_automaton_order_are_refused(non_efe_automaton, ref_params, call):
    # the reference model with its signals listed Pass first used to be read
    # with the columns swapped: verify failed with 183 offenders, and the
    # oracle and the simulation gave 0.8268 and 0.8365 where 0.9263 is right
    swapped = MonitoringStructure(("Pass", "Fail"), f0=(0.25, 0.75), f1=(0.75, 0.25))
    with pytest.raises(ValidationError, match="SignalMismatch"):
        call(non_efe_automaton, ref_params, swapped)
