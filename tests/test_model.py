import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from replab import (
    EquilibriumAutomaton,
    GameParams,
    MonitoringStructure,
    SimulationConfig,
    automaton_from_dict,
    automaton_to_dict,
    bayes_update,
    belief_growth_bound,
    construct_full_effort,
    construct_non_efe,
    iterated_max_update,
    max_update,
    model_from_dict,
    model_to_dict,
)
from replab.errors import ReplacementCostTooLargeForConstruction, ValidationError


def codes(build, *args, **kwargs) -> set[str]:
    """The violation codes building an object raises; empty when it builds."""
    try:
        build(*args, **kwargs)
    except ValidationError as exc:
        return {v.code for v in exc.violations}
    return set()


class TestValidation:
    def test_reference_instance_is_valid(self, binary75, ref_params):
        assert GameParams(kappa=0.2, delta=0.5, pi0=0.3, c=0.05) == ref_params
        assert MonitoringStructure(binary75.signals, binary75.f0, binary75.f1) == binary75

    def test_uninformative_monitoring(self):
        m = (("a", "b"), (0.5, 0.5), (0.5, 0.5))
        assert "UninformativeMonitoring" in codes(MonitoringStructure, *m)

    def test_replacement_cost_bound_is_left_to_the_constructions(self, binary75):
        # c >= min(pi0, 1 - pi0) is a valid model; only the constructions
        # bound c, against 1 - pi0
        assert codes(GameParams, kappa=0.2, delta=0.5, pi0=0.3, c=0.4) == set()
        with pytest.raises(ReplacementCostTooLargeForConstruction):
            construct_non_efe(GameParams(0.2, 0.5, 0.3, 0.7), binary75)
        with pytest.raises(ReplacementCostTooLargeForConstruction):
            construct_full_effort(GameParams(0.2, 0.5, 0.3, 0.75), binary75)

    def test_non_simplex(self):
        assert "NonSimplex" in codes(MonitoringStructure, ("a", "b"), (0.7, 0.2), (0.25, 0.75))
        assert "NonSimplex" in codes(MonitoringStructure, ("a", "b"), (1.2, -0.2), (0.25, 0.75))

    def test_missing_full_support(self):
        m = (("a", "b"), (0.5, 0.5), (0.0, 1.0))
        assert "MissingFullSupport" in codes(MonitoringStructure, *m)

    def test_param_ranges(self):
        assert "ParamOutOfRange" in codes(GameParams, 1.5, 0.5, 0.3, 0.0)
        assert "ParamOutOfRange" in codes(GameParams, 0.2, 1.0, 0.3, 0.0)
        assert "ParamOutOfRange" in codes(GameParams, 0.2, 0.5, 0.3, -0.1)

    def test_build_raises_with_all_violations(self):
        with pytest.raises(ValidationError) as exc:
            MonitoringStructure(("a", "a"), f0=(0.5, 0.5), f1=(0.5, 0.5))
        got = [v.code for v in exc.value.violations]
        assert {"NonSimplex", "UninformativeMonitoring"} <= set(got)
        with pytest.raises(ValidationError) as exc:
            GameParams(1.5, 1.0, float("nan"), -0.1)
        assert [v.code for v in exc.value.violations] == ["ParamOutOfRange"] * 4

    def test_zero_f0_entry_is_allowed(self):
        assert codes(MonitoringStructure, ("a", "b"), f0=(0.0, 1.0), f1=(0.4, 0.6)) == set()
        assert MonitoringStructure(("a", "b"), f0=(0.0, 1.0), f1=(0.4, 0.6)).min_ratio == 0.0


def _automaton(**change) -> EquilibriumAutomaton:
    """A valid two-state automaton over the binary signals, built from its
    arrays with ``change`` applied to its fields."""
    fields = {
        "replace_prob": [0.0, 1.0], "effort_prob": [1.0, 0.0], "belief": [0.3, 0.0],
        "next_state": [[1, 0], [1, 1]], "regime": ["Pass", "Dead"],
        "initial": 0, "signals": ("Fail", "Pass"), "kind": "custom",
    }
    return EquilibriumAutomaton(**{**fields, **change})


def _loaded(state=None, transition=None, **top) -> EquilibriumAutomaton:
    """:func:`_automaton` read back from its file, with ``state`` replacing
    fields of state 1, ``transition`` appended to the transitions and
    ``top`` replacing top-level fields."""
    payload = automaton_to_dict(_automaton(), GameParams(0.2, 0.5, 0.3),
                                MonitoringStructure.binary(0.75))
    payload.update(top)
    payload["states"][1].update(state or {})
    payload["transitions"] += [transition] if transition else []
    return automaton_from_dict(payload)[0]


class TestBuiltObjectsCheckThemselves:
    @pytest.mark.parametrize("code, build", [
        ("NonSimplex", lambda: MonitoringStructure(("a",), (1.0,), (1.0,))),
        ("NonSimplex", lambda: MonitoringStructure(("a", "b"), (0.5, 0.6), (0.25, 0.75))),
        ("MissingFullSupport", lambda: MonitoringStructure(("a", "b"), (0.5, 0.5), (0.0, 1.0))),
        ("UninformativeMonitoring",
         lambda: MonitoringStructure(("a", "b"), (0.4, 0.6), (0.4, 0.6))),
        ("ParamOutOfRange", lambda: GameParams(0.2, 0.5, 0.0, 0.0)),
        ("ParamOutOfRange", lambda: GameParams(0.2, 0.5, 0.3, float("inf"))),
        ("BadState", lambda: _automaton(replace_prob=[0.0, float("nan")])),
        ("BadState", lambda: _automaton(belief=[0.3, -0.25])),
        ("BadState", lambda: _automaton(regime=[1, 3])),
        ("BadState", lambda: _automaton(regime=["Pass", 3])),
        ("BadState", lambda: _automaton(next_state=[[1, 0]])),
        ("BadState", lambda: _automaton(next_state=[[1.0, 0.0], [1.0, 1.0]])),
        ("BadState", lambda: _automaton(belief=[0.3])),
        ("BadState", lambda: _loaded(state={"replace_prob": float("nan")})),
        ("BadState", lambda: _loaded(state={"belief": -0.25})),
        ("BadState", lambda: _loaded(state={"regime": 3})),
        ("BadAutomatonFile", lambda: _automaton(kind=None)),
        ("BadAutomatonFile", lambda: _loaded(complete="false")),
        ("BadStateIds", lambda: _loaded(state={"id": 2})),
        ("BadStateIds", lambda: _loaded(state={"id": True})),
        ("BadTransition", lambda: _automaton(next_state=[[1, 2], [1, 1]])),
        ("BadTransition", lambda: _automaton(next_state=[[1, -2], [1, 1]])),
        ("BadTransition", lambda: _loaded(transition={"from": 0, "signal": "Maybe", "to": 1})),
        ("BadTransition", lambda: _loaded(transition={"from": 0, "signal": "Pass", "to": 2})),
        ("BadInitial", lambda: _automaton(initial=2)),
        ("BadSimulationConfig", lambda: SimulationConfig(horizon=0, paths=1, master_seed=1)),
        ("BadSimulationConfig", lambda: SimulationConfig(horizon=1, paths=1, master_seed=-1)),
    ])
    def test_every_violation_code_is_refused(self, code, build):
        assert codes(build) == {code}

    def test_the_base_objects_build(self):
        assert _automaton().next_state.tolist() == [[1, 0], [1, 1]]
        assert _loaded().next_state.tolist() == [[1, 0], [1, 1]]
        assert SimulationConfig(horizon=1, paths=1, master_seed=2**64 - 1).master_seed > 0

    def test_replace_checks_again(self, ref_params, binary75, fe_automaton):
        with pytest.raises(ValidationError):
            dataclasses.replace(ref_params, delta=1.0)
        with pytest.raises(ValidationError):
            dataclasses.replace(binary75, f1=binary75.f0)
        with pytest.raises(ValidationError):
            dataclasses.replace(fe_automaton, initial=3)


class TestModelMapping:
    def test_round_trip(self, binary75, ref_params):
        mapping = model_to_dict(ref_params, binary75)
        assert mapping["signals"] == [
            {"name": "Fail", "f0": 0.75, "f1": 0.25},
            {"name": "Pass", "f0": 0.25, "f1": 0.75},
        ]
        assert model_from_dict(mapping) == (ref_params, binary75)

    def test_integers_become_floats(self):
        # a TOML `c = 0` must serialize as 0.0, as a flag or JSON 0.0 does
        params, monitoring = model_from_dict({
            "kappa": 0.2, "delta": 0.5, "pi0": 0.3, "c": 0,
            "signals": [{"name": "a", "f0": 1, "f1": 0.5}, {"name": "b", "f0": 0, "f1": 0.5}],
        })
        assert [type(v) for v in (params.c, *monitoring.f0)] == [float, float, float]
        assert repr(model_to_dict(params, monitoring)["c"]) == "0.0"

    def test_binary_precision_wins_over_signals(self, binary75, ref_params):
        mapping = {**model_to_dict(ref_params, MonitoringStructure.binary(0.6)),
                   "binary_precision": 0.75}
        assert model_from_dict(mapping) == (ref_params, binary75)

    @pytest.mark.parametrize("change", [
        {"kappa": "0.2"}, {"delta": None}, {"pi0": True}, {"c": 10**400},
        {"signals": [{"name": "a", "f1": 0.5}]}, {"signals": [{"name": 1, "f0": 1, "f1": 0}]},
        {"signals": "ab"}, {"binary_precision": "0.75"}, {"kappa": 1.5}, {"pi0": float("nan")},
    ])
    def test_bad_mapping_raises(self, binary75, ref_params, change):
        with pytest.raises(ValidationError):
            model_from_dict({**model_to_dict(ref_params, binary75), **change})

    @pytest.mark.parametrize("mapping", [None, [1, 2], "kappa", {"kappa": 0.2}])
    def test_not_a_model_raises(self, mapping):
        with pytest.raises(ValidationError):
            model_from_dict(mapping)


class TestBayesUpdate:
    def test_hand_computed_value(self, binary75):
        assert bayes_update(binary75, 0.5, 0.0, "Pass") == pytest.approx(0.75, abs=1e-15)

    @given(pi=st.floats(0.01, 1.0), s=st.sampled_from(["Fail", "Pass"]))
    @settings(max_examples=100)
    def test_pooling_leaves_belief_unchanged(self, pi, s):
        m = MonitoringStructure.binary(0.75)
        assert bayes_update(m, pi, 1.0, s) == pytest.approx(pi, abs=1e-12)

    @given(a=st.floats(0.0, 1.0), s=st.sampled_from(["Fail", "Pass"]))
    @settings(max_examples=100)
    def test_degenerate_prior_stays_one(self, a, s):
        m = MonitoringStructure.binary(0.75)
        assert bayes_update(m, 1.0, a, s) == 1.0

    def test_zero_prior_rejected(self, binary75):
        with pytest.raises(ValueError):
            bayes_update(binary75, 0.0, 0.5, "Pass")

    @given(
        pi=st.floats(0.01, 0.99),
        a=st.floats(0.0, 1.0),
        data=st.data(),
    )
    @settings(max_examples=200)
    def test_martingale_identity(self, pi, a, data):
        n = data.draw(st.integers(2, 4))
        raw0 = data.draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
        raw1 = data.draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
        f0 = tuple(x / sum(raw0) for x in raw0)
        f1 = tuple(x / sum(raw1) for x in raw1)
        assume(any(abs(q0 - q1) > 1e-12 for q0, q1 in zip(f0, f1)))  # else not a model
        m = MonitoringStructure(tuple(f"s{i}" for i in range(n)), f0, f1)
        e = pi + (1 - pi) * a
        law = m.mixture(e)
        total = sum(law[i] * bayes_update(m, pi, a, s) for i, s in enumerate(m.signals))
        assert total == pytest.approx(pi, abs=1e-12)

    @given(lo=st.floats(0.01, 0.98), bump=st.floats(1e-6, 0.5))
    @settings(max_examples=100)
    def test_monotone_in_prior(self, lo, bump):
        m = MonitoringStructure.binary(0.75)
        hi = min(lo + bump, 1.0)
        for s in m.signals:
            assert bayes_update(m, hi, 0.3, s) >= bayes_update(m, lo, 0.3, s) - 1e-12

    @given(a_lo=st.floats(0.0, 0.99), bump=st.floats(1e-6, 1.0))
    @settings(max_examples=100)
    def test_nonincreasing_in_effort_on_good_news(self, a_lo, bump):
        m = MonitoringStructure.binary(0.75)
        a_hi = min(a_lo + bump, 1.0)
        # Pass has f1 > f0
        assert bayes_update(m, 0.4, a_hi, "Pass") <= bayes_update(m, 0.4, a_lo, "Pass") + 1e-12


class TestMaxUpdate:
    def test_eta_one_is_pooling(self, binary75):
        for pi in (0.1, 0.5, 0.9):
            assert max_update(binary75, pi, 1.0) == pytest.approx(pi, abs=1e-15)

    def test_eta_zero_matches_best_signal(self, binary75):
        assert max_update(binary75, 0.5, 0.0) == pytest.approx(0.75, abs=1e-15)
        best = max(
            bayes_update(binary75, 0.5, a, s)
            for a in (0.0, 1.0)
            for s in binary75.signals
        )
        assert max_update(binary75, 0.5, 0.0) == pytest.approx(best, abs=1e-12)

    def test_matches_brute_force_grid(self, binary75):
        closed = max_update(binary75, 0.3, 0.5)
        grid = max(
            bayes_update(binary75, 0.3, a, s)
            for a in np.arange(0.5, 1.0 + 1e-9, 1e-4)
            for s in binary75.signals
        )
        assert grid <= closed + 1e-12
        assert closed - grid <= 1e-4

    def test_iterated_composes(self, binary75):
        assert iterated_max_update(binary75, 0.3, 0.5, 0) == 0.3
        one = iterated_max_update(binary75, 0.3, 0.5, 1)
        assert one == max_update(binary75, 0.3, 0.5)
        two = iterated_max_update(binary75, 0.3, 0.5, 2)
        assert two == pytest.approx(max_update(binary75, one, 0.5), abs=1e-15)
        assert two == pytest.approx(0.49090909090909090, abs=1e-12)


class TestGrowthBound:
    def test_hand_computed_value(self):
        # (0.3 + 0.7/8) / (0.3 + 0.7/4) = 0.3875 / 0.475
        assert belief_growth_bound(0.3, 0.5, 2) == pytest.approx(
            0.8157894736842105, abs=1e-12
        )

    def test_t_zero_form(self):
        assert belief_growth_bound(0.3, 0.5, 0) == pytest.approx(
            0.3 + 0.7 * 0.5, abs=1e-15
        )

    def test_dominates_damped_iterate_randomized(self, binary75):
        rng = np.random.default_rng(20240811)
        for _ in range(2000):
            pi = rng.uniform(1e-3, 1 - 1e-3)
            eta = rng.uniform(1e-3, 1 - 1e-3)
            t = int(rng.integers(0, 51))
            b = iterated_max_update(binary75, pi, eta, t)
            assert b + (1 - b) * eta <= belief_growth_bound(pi, eta, t) + 1e-12

    def test_increasing_in_t(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            pi = rng.uniform(1e-3, 1 - 1e-3)
            eta = rng.uniform(1e-3, 1 - 1e-3)
            t = int(rng.integers(0, 50))
            assert belief_growth_bound(pi, eta, t + 1) > belief_growth_bound(pi, eta, t) - 1e-15
