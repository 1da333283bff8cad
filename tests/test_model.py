import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from replab import (
    GameParams,
    MonitoringStructure,
    bayes_update,
    belief_growth_bound,
    find_violations,
    iterated_max_update,
    max_update,
    model_from_dict,
    model_to_dict,
    validate,
)
from replab.errors import ValidationError
from replab.model import RELAXED


def codes(monitoring, params, level="strict"):
    return {v.code for v in find_violations(monitoring, params, level)}


class TestValidation:
    def test_reference_instance_is_valid(self, binary75, ref_params):
        model = validate(binary75, ref_params)
        assert model.params is ref_params

    def test_uninformative_monitoring(self, ref_params):
        m = MonitoringStructure(("a", "b"), f0=(0.5, 0.5), f1=(0.5, 0.5))
        assert "UninformativeMonitoring" in codes(m, ref_params)

    def test_replacement_cost_bound_is_strict_only(self, binary75):
        p = GameParams(kappa=0.2, delta=0.5, pi0=0.3, c=0.4)
        assert "ReplacementCostTooLarge" in codes(binary75, p, "strict")
        assert "ReplacementCostTooLarge" not in codes(binary75, p, RELAXED)

    def test_non_simplex(self, ref_params):
        m = MonitoringStructure(("a", "b"), f0=(0.7, 0.2), f1=(0.25, 0.75))
        assert "NonSimplex" in codes(m, ref_params)
        m = MonitoringStructure(("a", "b"), f0=(1.2, -0.2), f1=(0.25, 0.75))
        assert "NonSimplex" in codes(m, ref_params)

    def test_missing_full_support(self, ref_params):
        m = MonitoringStructure(("a", "b"), f0=(0.5, 0.5), f1=(0.0, 1.0))
        assert "MissingFullSupport" in codes(m, ref_params)

    def test_param_ranges(self, binary75):
        assert "ParamOutOfRange" in codes(binary75, GameParams(1.5, 0.5, 0.3, 0.0))
        assert "ParamOutOfRange" in codes(binary75, GameParams(0.2, 1.0, 0.3, 0.0))
        assert "ParamOutOfRange" in codes(binary75, GameParams(0.2, 0.5, 0.3, -0.1))

    def test_validate_raises_with_all_violations(self, ref_params):
        m = MonitoringStructure(("a", "b"), f0=(0.5, 0.5), f1=(0.5, 0.5))
        with pytest.raises(ValidationError) as exc:
            validate(m, GameParams(0.2, 0.5, 0.3, 0.4), "strict")
        got = {v.code for v in exc.value.violations}
        assert {"UninformativeMonitoring", "ReplacementCostTooLarge"} <= got

    def test_zero_f0_entry_is_allowed(self, ref_params):
        m = MonitoringStructure(("a", "b"), f0=(0.0, 1.0), f1=(0.4, 0.6))
        assert find_violations(m, ref_params) == []
        assert m.min_ratio == 0.0


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
