import json
import tracemalloc

import numpy as np
import pytest

from replab import (
    EquilibriumAutomaton,
    GameParams,
    MonitoringStructure,
    automaton_from_dict,
    automaton_to_dict,
    bayes_update,
    compute_values,
    construct_full_effort,
    construct_non_efe,
    non_efe_parameters,
    verify,
)
from replab.equilibria import (
    REGIME_DEAD,
    REGIME_FIRST,
    REGIME_INITIAL,
    REGIME_PASS,
    REGIME_SECOND,
    REGIME_THIRD,
    AutomatonState,
    indifference_effort,
    select_a0,
)
from replab.errors import (
    FeiFails,
    IndifferenceOutOfRange,
    NoFeasibleA0,
    ReplacementCostTooLargeForConstruction,
    ValidationError,
)

THREE_SIGNAL = MonitoringStructure(("A", "B", "C"), f0=(0.2, 0.2, 0.6), f1=(0.5, 0.3, 0.2))
THREE_SIGNAL_PARAMS = GameParams(kappa=0.1, delta=0.6, pi0=0.3, c=0.05)
TWO_FAIL = MonitoringStructure(
    ("A", "B", "C", "D"), f0=(0.1, 0.2, 0.3, 0.4), f1=(0.4, 0.3, 0.2, 0.1)
)
TWO_FAIL_PARAMS = GameParams(kappa=0.1, delta=0.7, pi0=0.3, c=0.05)


class TestClosedForms:
    def test_reference_values(self, non_efe_params_out):
        nep = non_efe_params_out
        assert nep.v_bar == pytest.approx(0.64, abs=1e-9)
        assert nep.v_tilde == pytest.approx(0.24, abs=1e-9)
        assert nep.v_hat == pytest.approx(0.67, abs=1e-9)
        assert nep.x == pytest.approx(43.0 / 67.0, abs=1e-9)

    def test_both_vhat_identities(self, non_efe_params_out):
        nep = non_efe_params_out
        delta, kappa = 0.5, 0.2
        lhs = (1 - delta) * (1 - kappa) + delta * (
            nep.f1_star * nep.v_bar + (1 - nep.f1_star) * nep.v_tilde
        )
        rhs = (1 - delta) + delta * (
            nep.f0_star * nep.v_bar + (1 - nep.f0_star) * nep.v_tilde
        )
        assert lhs == pytest.approx(nep.v_hat, abs=1e-12)
        assert rhs == pytest.approx(nep.v_hat, abs=1e-12)

    def test_parameter_invariants_randomized(self):
        rng = np.random.default_rng(2024)
        found = 0
        while found < 50:
            p = rng.uniform(0.55, 0.95)
            kappa = rng.uniform(0.05, 0.6)
            delta = rng.uniform(0.1, 0.95)
            m = MonitoringStructure.binary(p)
            params = GameParams(kappa, delta, rng.uniform(0.05, 0.6), 0.0)
            from replab import check_fei

            if not check_fei(params, m).holds:
                continue
            nep = non_efe_parameters(params, m)
            # promise-keeping with equality and incentive feasibility
            assert nep.v_bar == pytest.approx(
                (1 - delta) * (1 - kappa) + delta * nep.f1_star * nep.v_bar, abs=1e-12
            )
            assert nep.v_bar >= (1 - delta) + delta * nep.f0_star * nep.v_bar - 1e-12
            assert -1e-12 <= nep.v_tilde < nep.v_hat
            assert 0.0 < nep.x <= 1.0
            assert params.c / (1 - params.pi0) < nep.a0 < 1.0
            found += 1

    def test_a0_selection_matches_quadratic_root(self, ref_params, binary75):
        # feasibility boundary solves 0.245 a^2 + 0.3675 a - 0.125 = 0
        root = (-0.3675 + np.sqrt(0.3675**2 + 4 * 0.245 * 0.125)) / (2 * 0.245)
        assert root == pytest.approx(2.0 / 7.0, abs=1e-12)
        a0 = select_a0(ref_params, binary75)
        assert a0 == pytest.approx((1 + root) / 2, abs=1e-9)
        assert a0 == pytest.approx(9.0 / 14.0, abs=1e-9)

    def test_indifference_effort_guard(self):
        assert indifference_effort(0.7, 0.2) == pytest.approx(0.625, abs=1e-12)
        with pytest.raises(IndifferenceOutOfRange):
            indifference_effort(0.7, 0.75)
        with pytest.raises(IndifferenceOutOfRange):
            indifference_effort(1.2, 0.1)


class TestFullEffortConstruction:
    def test_shape(self, fe_automaton, ref_params):
        regimes = [q.regime for q in fe_automaton.states]
        assert regimes == [REGIME_PASS, REGIME_DEAD, REGIME_DEAD]
        pass_state, dead_entry, dead_deep = fe_automaton.states
        assert pass_state.effort_prob == 1.0 and pass_state.replace_prob == 0.0
        assert pass_state.belief == ref_params.pi0
        # first failing signal keeps the prior (pooled update); only the
        # certainly-replaced successor carries the unconstrained 0 belief
        assert dead_entry.replace_prob == 1.0 and dead_entry.belief == ref_params.pi0
        assert dead_deep.belief == 0.0
        assert fe_automaton.successor(0, "Pass") == 0
        assert fe_automaton.successor(0, "Fail") == 1
        assert fe_automaton.successor(1, "Pass") == 2
        assert fe_automaton.complete

    def test_values(self, fe_automaton, ref_params, binary75):
        vt = compute_values(fe_automaton, ref_params, binary75)
        assert vt.values[0] == pytest.approx(0.64, abs=1e-12)
        assert vt.values[1] == pytest.approx(0.5, abs=1e-12)  # shirk once, then out
        assert vt.tail_bound == 0.0
        # one-shot shirk at the pass state is dominated: 0.58 <= 0.64
        shirk = (1 - 0.5) + 0.5 * 0.25 * 0.64
        assert shirk == pytest.approx(0.58, abs=1e-12)
        assert shirk <= vt.values[0]

    def test_fei_failure_rejected(self, fail_params, binary75):
        with pytest.raises(FeiFails):
            construct_full_effort(fail_params, binary75)

    def test_replacement_cost_gate(self, binary75):
        with pytest.raises(ReplacementCostTooLargeForConstruction):
            construct_full_effort(GameParams(0.2, 0.5, 0.3, 0.75), binary75)
        # c <= 1 - pi0 is enough even where the strict model bound fails
        auto = construct_full_effort(GameParams(0.2, 0.5, 0.3, 0.5), binary75)
        assert verify(auto, GameParams(0.2, 0.5, 0.3, 0.5), binary75).passed


class TestNonEfeConstruction:
    def test_initial_state(self, non_efe_automaton, ref_params):
        init = non_efe_automaton.state(non_efe_automaton.initial)
        assert init.regime == REGIME_INITIAL
        assert init.belief == ref_params.pi0
        assert init.effort_prob == pytest.approx(9.0 / 14.0, abs=1e-9)

    def test_first_regime_chain_monotone(self, non_efe_automaton):
        # walk the failing-signal chain from the initial state
        chain = []
        sid = non_efe_automaton.successor(non_efe_automaton.initial, "Fail")
        while sid is not None and non_efe_automaton.state(sid).regime == REGIME_FIRST:
            q = non_efe_automaton.state(sid)
            if chain and chain[-1].id == q.id:
                break  # closed tail loop
            chain.append(q)
            sid = non_efe_automaton.successor(sid, "Fail")
        assert len(chain) > 20
        beliefs = [q.belief for q in chain]
        efforts = [q.effort_prob for q in chain]
        assert all(b1 > b2 for b1, b2 in zip(beliefs, beliefs[1:]))
        assert all(a1 < a2 for a1, a2 in zip(efforts, efforts[1:]))
        assert all(a < 1.0 for a in efforts)

    def test_first_fail_belief_and_effort(self, non_efe_automaton, ref_params, binary75):
        a0 = non_efe_automaton.state(non_efe_automaton.initial).effort_prob
        pi1 = bayes_update(binary75, ref_params.pi0, a0, "Fail")
        assert pi1 == pytest.approx(0.2, abs=1e-9)
        first = non_efe_automaton.state(
            non_efe_automaton.successor(non_efe_automaton.initial, "Fail")
        )
        assert first.belief == pytest.approx(pi1, abs=1e-12)
        assert first.effort_prob == pytest.approx(0.625, abs=1e-8)
        assert first.replace_prob == pytest.approx(43.0 / 67.0, abs=1e-9)

    def test_regime_transitions(self, non_efe_automaton):
        init = non_efe_automaton.initial
        second = non_efe_automaton.successor(init, "Pass")
        assert non_efe_automaton.state(second).regime == REGIME_SECOND
        assert non_efe_automaton.state(second).belief == pytest.approx(0.36, abs=1e-9)
        assert non_efe_automaton.successor(second, "Pass") == second
        third = non_efe_automaton.successor(second, "Fail")
        q3 = non_efe_automaton.state(third)
        assert q3.regime == REGIME_THIRD
        assert q3.replace_prob == 1.0 and q3.effort_prob == 0.0
        # entry keeps the frozen belief; only deeper states drop to 0
        assert q3.belief == pytest.approx(0.36, abs=1e-9)
        deeper = non_efe_automaton.successor(third, "Fail")
        assert non_efe_automaton.state(deeper).belief == 0.0

    def test_values_match_closed_forms(
        self, non_efe_automaton, ref_params, binary75, non_efe_params_out
    ):
        vt = compute_values(non_efe_automaton, ref_params, binary75)
        assert vt.values[non_efe_automaton.initial] == pytest.approx(0.67, abs=1e-9)
        for q in non_efe_automaton.states:
            if q.regime in (REGIME_INITIAL, REGIME_FIRST):
                assert vt.values[q.id] == pytest.approx(0.67, abs=1e-9)
            elif q.regime == REGIME_SECOND:
                assert vt.values[q.id] == pytest.approx(0.64, abs=1e-9)
            elif q.regime == REGIME_THIRD:
                # post-retention value per the recursion; the pre-vote value
                # (1 - sigma_V) V is 0 at certain replacement
                assert vt.values[q.id] == pytest.approx(1 - 0.5, abs=1e-9)
                assert (1 - q.replace_prob) * vt.values[q.id] == 0.0

    def test_all_replace_value_formula(self, ref_params, binary75):
        # single self-looping state under certain replacement:
        # V = (1-delta)(1 - kappa sigma_P)
        auto = EquilibriumAutomaton(
            states=[AutomatonState(0, REGIME_THIRD, 1.0, 0.4, 0.3)],
            transitions={(0, s): 0 for s in binary75.signals},
            initial=0,
            signals=binary75.signals,
            kind="custom",
            complete=True,
        )
        vt = compute_values(auto, ref_params, binary75)
        assert vt.values[0] == pytest.approx((1 - 0.5) * (1 - 0.2 * 0.4), abs=1e-12)

    def test_gates(self, fail_params, binary75):
        with pytest.raises(FeiFails):
            construct_non_efe(fail_params, binary75)
        with pytest.raises(ReplacementCostTooLargeForConstruction):
            construct_non_efe(GameParams(0.2, 0.5, 0.3, 0.7), binary75)

    def test_negative_depth_is_refused(self, ref_params, binary75):
        with pytest.raises(ValidationError):
            construct_non_efe(ref_params, binary75, max_depth=-1)
        auto, _ = construct_non_efe(ref_params, binary75, max_depth=0)
        assert not auto.complete  # the initial state's failing branch is left open

    def test_a0_override(self, ref_params, binary75):
        auto, nep = construct_non_efe(ref_params, binary75, a0_override=0.8)
        assert nep.a0 == 0.8
        assert verify(auto, ref_params, binary75).passed
        with pytest.raises(NoFeasibleA0):
            construct_non_efe(ref_params, binary75, a0_override=0.1)
        with pytest.raises(NoFeasibleA0):
            construct_non_efe(ref_params, binary75, a0_override=1.5)

    def test_three_signal_instance(self):
        auto, nep = construct_non_efe(THREE_SIGNAL_PARAMS, THREE_SIGNAL)
        assert nep.s_star == ("A", "B")
        assert auto.complete
        assert verify(auto, THREE_SIGNAL_PARAMS, THREE_SIGNAL).passed
        fe = construct_full_effort(THREE_SIGNAL_PARAMS, THREE_SIGNAL)
        assert verify(fe, THREE_SIGNAL_PARAMS, THREE_SIGNAL).passed

    def test_two_fail_signal_tree_truncates(self):
        auto, _ = construct_non_efe(TWO_FAIL_PARAMS, TWO_FAIL, max_depth=10)
        assert not auto.complete
        vt = compute_values(auto, TWO_FAIL_PARAMS, TWO_FAIL)
        assert vt.tail_bound > 0.0
        # verification stays sound: frontier tolerances widen as needed
        assert verify(auto, TWO_FAIL_PARAMS, TWO_FAIL).passed


class TestValueRecursion:
    def test_delta_out_of_range(self):
        # delta = 1 would make the value recursion non-contractive; such
        # params cannot be built, so no solve ever sees them
        with pytest.raises(ValidationError):
            GameParams(0.2, 1.0, 0.3, 0.05)

    def test_sparse_solve_matches_dense_oracle(self):
        auto, _ = construct_non_efe(TWO_FAIL_PARAMS, TWO_FAIL, max_depth=10)
        assert len(auto.states) == 836 and not auto.complete
        delta, kappa = TWO_FAIL_PARAMS.delta, TWO_FAIL_PARAMS.kappa
        sv, sp, _, nxt = auto.as_arrays()
        n, n_signals = nxt.shape
        m = np.zeros((n, n))
        miss = np.zeros(n)
        for q in range(n):
            for i in range(n_signals):
                w = delta * (sp[q] * TWO_FAIL.f1[i] + (1.0 - sp[q]) * TWO_FAIL.f0[i])
                if nxt[q, i] < 0:
                    miss[q] += w
                else:
                    m[q, nxt[q, i]] += w * (1.0 - sv[nxt[q, i]])
        a = np.eye(n) - m
        vt = compute_values(auto, TWO_FAIL_PARAMS, TWO_FAIL)
        np.testing.assert_allclose(
            vt.values, np.linalg.solve(a, (1.0 - delta) * (1.0 - kappa * sp)), rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(vt.errors, np.linalg.solve(a, miss), rtol=0, atol=1e-12)
        assert vt.tail_bound == vt.errors.max() > 0.0

    def test_default_depth_tree_solves_in_edge_memory(self):
        # a dense n x n value system for this tree would take about 18 GB
        auto, _ = construct_non_efe(TWO_FAIL_PARAMS, TWO_FAIL)
        assert len(auto.states) == 47_525
        tracemalloc.start()
        try:
            compute_values(auto, TWO_FAIL_PARAMS, TWO_FAIL)
            report = verify(auto, TWO_FAIL_PARAMS, TWO_FAIL)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 200e6


class TestArrayForm:
    def test_arrays_built_once_and_read_only(self, non_efe_automaton):
        arrays = non_efe_automaton.as_arrays()
        assert non_efe_automaton.as_arrays() is arrays
        sv, sp, pi, nxt = arrays
        assert nxt.shape == (len(non_efe_automaton.states), len(non_efe_automaton.signals))
        for (qid, sig), tid in non_efe_automaton.transitions.items():
            assert nxt[qid, non_efe_automaton.signals.index(sig)] == tid
        with pytest.raises(ValueError):
            sv[0] = 0.5

    def test_one_violation_per_bad_edge(self, fe_automaton):
        transitions = dict(fe_automaton.transitions)
        transitions[(0, "Fail")] = 99999
        transitions[(1, "Maybe")] = 2
        transitions[(-1, "Pass")] = 0
        with pytest.raises(ValidationError) as exc:
            EquilibriumAutomaton(
                states=list(fe_automaton.states), transitions=transitions, initial=0,
                signals=fe_automaton.signals, kind="custom", complete=True,
            )
        assert [v.code for v in exc.value.violations] == ["BadTransition"] * 3


class TestSerialization:
    def test_roundtrip(self, non_efe_automaton, ref_params, binary75):
        payload = automaton_to_dict(non_efe_automaton, ref_params, binary75)
        blob = json.dumps(payload)
        auto2, params2, monitoring2 = automaton_from_dict(json.loads(blob))
        assert params2 == ref_params
        assert monitoring2 == binary75
        assert auto2.transitions == non_efe_automaton.transitions
        assert auto2.states == non_efe_automaton.states
        assert verify(auto2, params2, monitoring2).passed

    def test_serialized_keys_present(self, fe_automaton, ref_params, binary75):
        payload = automaton_to_dict(fe_automaton, ref_params, binary75)
        assert set(payload) >= {"states", "transitions", "initial", "params_echo"}
        assert set(payload["states"][0]) == {
            "id", "regime", "replace_prob", "effort_prob", "belief",
        }
        assert set(payload["transitions"][0]) == {"from", "signal", "to"}
