import dataclasses

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
    bayes_update,
    construct_non_efe,
    martingale_diagnostic,
    simulate,
)
from replab.equilibria import REGIME_FIRST, REGIME_SECOND, REGIME_THIRD, AutomatonState
from replab.errors import DepthInsufficient, ValidationError
import importlib

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


class TestFastPathOracles:
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_batch_columns_are_fresh_philox_streams(
        self, non_efe_automaton, ref_params, binary75, monkeypatch, seed
    ):
        # 100 paths in batches of 40 (the last one partial), staged in blocks
        # of 16: each path's uniforms must equal its own freshly keyed stream
        monkeypatch.setattr(sim_module, "_BATCH", 40)
        monkeypatch.setattr(sim_module, "_BLOCK", 16)
        fill = sim_module._fill_uniforms
        filled = {}

        def recording_fill(master_seed, start, u):
            fill(master_seed, start, u)
            filled[start] = u.copy()

        monkeypatch.setattr(sim_module, "_fill_uniforms", recording_fill)
        horizon = 7
        simulate(non_efe_automaton, ref_params, binary75,
                 SimulationConfig(horizon=horizon, paths=100, master_seed=seed))
        assert sorted(filled) == [0, 40, 80]
        assert filled[80].shape == (horizon, 4, 20)
        for start, u in filled.items():
            for i in range(u.shape[2]):
                key = np.array([seed, start + i], dtype=np.uint64)
                expected = np.random.Generator(np.random.Philox(key=key)).random(
                    (horizon, 4)
                )
                assert np.array_equal(u[:, :, i], expected), start + i

    @pytest.mark.parametrize("f0, f1", [
        ((0.25, 0.75), (0.75, 0.25)),
        ((0.2, 0.2, 0.6), (0.5, 0.3, 0.2)),
        ((0.1, 0.2, 0.3, 0.4), (0.4, 0.3, 0.2, 0.1)),
    ])
    def test_signal_lookup_equals_searchsorted(self, f0, f1):
        monitoring = MonitoringStructure(tuple("ABCD"[: len(f0)]), f0=f0, f1=f1)
        cdfs = [np.cumsum(f0), np.cumsum(f1)]
        for cdf in cdfs:
            cdf[-1] = 1.0
        interior = np.concatenate([cdf[:-1] for cdf in cdfs])
        u = np.concatenate([
            np.random.default_rng(0).random(5000),
            interior,  # exactly on a cut point
            np.nextafter(interior, 0.0),
            [0.0, np.nextafter(1.0, 0.0)],
        ])
        u = np.concatenate([u, u])
        act = np.arange(len(u)) >= len(u) // 2
        expected = np.where(
            act,
            np.searchsorted(cdfs[1], u, side="right"),
            np.searchsorted(cdfs[0], u, side="right"),
        )
        thresholds = sim_module._signal_thresholds(monitoring)
        assert np.array_equal(sim_module._signals(thresholds, act, u), expected)


class TestRowIndex:
    """The kernel carries (state, type) as one row index; traces must still
    report automaton states and their beliefs, under any batching."""

    def test_traces_are_states_and_batching_invariant(
        self, non_efe_automaton, ref_params, binary75, monkeypatch
    ):
        config = SimulationConfig(horizon=80, paths=600, master_seed=13, record_traces=True)
        full = simulate(non_efe_automaton, ref_params, binary75, config)
        monkeypatch.setattr(sim_module, "_BATCH", 256)
        monkeypatch.setattr(sim_module, "_BLOCK", 16)
        rebatched = simulate(non_efe_automaton, ref_params, binary75, config)
        for name in ("state", "belief", "effort"):
            assert full.traces[name].dtype == rebatched.traces[name].dtype
            assert np.array_equal(full.traces[name], rebatched.traces[name]), name
        _, _, pi, _ = non_efe_automaton.as_arrays()
        assert full.traces["state"].max() < len(pi)
        assert np.array_equal(full.traces["belief"], pi[full.traces["state"]])
        assert full.counts == {"batches": 1}
        assert rebatched.counts == {"batches": 3}


def _transient_curves(automaton, params, monitoring, horizon):
    """Exact per-period laws, pushed forward over the horizon: the law of
    (acting state, type) gives mean effort, mean belief and its variance,
    the pre-vote law gives the replacement rate, and the sub-law of paths
    whose first incumbent was never replaced gives that incumbent's survival
    after each vote."""
    from scipy.sparse import csr_matrix

    sv, sp, pi, nxt = automaton.as_arrays()
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
        a0 = non_efe_automaton.state(non_efe_automaton.initial).effort_prob
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
        states = [
            dataclasses.replace(q, belief=min(q.belief + 0.05, 1.0))
            if q.regime == REGIME_FIRST
            else q
            for q in non_efe_automaton.states
        ]
        corrupted = EquilibriumAutomaton(
            states=states,
            transitions=dict(non_efe_automaton.transitions),
            initial=non_efe_automaton.initial,
            signals=non_efe_automaton.signals,
            kind=non_efe_automaton.kind,
            complete=non_efe_automaton.complete,
            meta=dict(non_efe_automaton.meta),
        )
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
        untagged = EquilibriumAutomaton(
            states=list(non_efe_automaton.states),
            transitions=dict(non_efe_automaton.transitions),
            initial=non_efe_automaton.initial,
            signals=non_efe_automaton.signals,
            kind="custom",
            complete=non_efe_automaton.complete,
            meta={},
        )
        direct = analytic_long_run_effort(untagged, ref_params, binary75)
        assert direct.method == "direct"
        assert lumped.value == pytest.approx(direct.value, abs=1e-12)
        # frozen during the pre-build oracle pass: 4289/4630 at a0 = 9/14
        assert lumped.value == pytest.approx(4289.0 / 4630.0, abs=1e-9)

    def test_rewired_second_regime_is_read_from_the_arrays(
        self, non_efe_automaton, ref_params, binary75
    ):
        # every SecondRegime Pass edge now ends the career: the regime still
        # lumps, but into a different chain than the construction's closed forms
        auto = non_efe_automaton
        dead = next(q.id for q in auto.states if q.replace_prob == 1.0
                    and all(auto.successor(q.id, s) == q.id for s in auto.signals))
        transitions = dict(auto.transitions)
        for q in auto.states:
            if q.regime == REGIME_SECOND:
                transitions[(q.id, "Pass")] = dead
        rewired = dataclasses.replace(auto, transitions=transitions)
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
            states=[*auto.states, AutomatonState(orphan, "Orphan", 0.0, 0.0, 0.5)],
            transitions={**auto.transitions, **{(orphan, s): orphan for s in auto.signals}},
        )
        lumped = analytic_long_run_effort(padded, ref_params, binary75)
        assert lumped.method == "lumped"
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
        states = [
            AutomatonState(0, "Initial", 0.0, 0.0, ref_params.pi0),
            AutomatonState(1, REGIME_THIRD, 1.0, 0.0, ref_params.pi0),
        ]
        transitions = {}
        for s in binary75.signals:
            transitions[(0, s)] = 1
            transitions[(1, s)] = 1
        auto = EquilibriumAutomaton(
            states=states, transitions=transitions, initial=0,
            signals=binary75.signals, kind="custom", complete=True,
        )
        result = analytic_long_run_effort(auto, ref_params, binary75)
        assert result.value == pytest.approx(ref_params.pi0, abs=1e-12)
        stats = simulate(auto, ref_params, binary75,
                         SimulationConfig(horizon=200, paths=4000, master_seed=23))
        assert stats.long_run_effort == pytest.approx(ref_params.pi0, abs=0.02)

    def test_truncated_tree_reports_residual(self):
        monitoring = MonitoringStructure(
            ("A", "B", "C", "D"), f0=(0.1, 0.2, 0.3, 0.4), f1=(0.4, 0.3, 0.2, 0.1)
        )
        params = GameParams(0.1, 0.7, 0.3, 0.05)
        auto, _ = construct_non_efe(params, monitoring, max_depth=8)
        lumped = analytic_long_run_effort(auto, params, monitoring)
        assert lumped.method == "lumped"
        stripped = EquilibriumAutomaton(
            states=list(auto.states), transitions=dict(auto.transitions),
            initial=auto.initial, signals=auto.signals,
            kind="custom", complete=False, meta={},
        )
        truncated = analytic_long_run_effort(stripped, params, monitoring)
        assert truncated.method == "truncated"
        assert truncated.residual > 0.0
        assert truncated.value == pytest.approx(lumped.value, abs=10 * truncated.residual)

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
    edge = data.draw(st.sampled_from(sorted(auto.transitions)))
    target = data.draw(st.integers(0, len(auto.states) - 1))
    rewired = dataclasses.replace(auto, transitions={**auto.transitions, edge: target})
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

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_seeds_outside_philox_keys(self, seed):
        with pytest.raises(ValidationError):
            SimulationConfig(horizon=10, paths=10, master_seed=seed)

    def test_traces_guarded(self, fe_automaton, ref_params, binary75):
        with pytest.raises(ValueError):
            simulate(fe_automaton, ref_params, binary75,
                     SimulationConfig(horizon=30_000, paths=1000, master_seed=1,
                                      record_traces=True))
        stats = simulate(fe_automaton, ref_params, binary75,
                         SimulationConfig(horizon=20, paths=50, master_seed=1,
                                          record_traces=True))
        assert stats.traces["effort"].shape == (50, 20)
        assert np.all(stats.traces["effort"] == 1)
