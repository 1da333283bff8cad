import dataclasses
import functools
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from replab import cli, equilibria, fei
from replab.equilibria import (
    REGIME_DEAD,
    REGIME_FIRST,
    REGIME_INITIAL,
    REGIME_PASS,
    REGIME_SECOND,
    REGIME_THIRD,
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
# two passing and three failing signals: the uncapped depth-400 tree has over 100,000 states
FIVE_SIGNAL = MonitoringStructure(
    ("A", "B", "C", "D", "E"), f0=(0.05, 0.1, 0.2, 0.3, 0.35), f1=(0.4, 0.3, 0.15, 0.1, 0.05)
)


def _arrays(auto):
    """Every per-state array of an automaton."""
    return auto.replace_prob, auto.effort_prob, auto.belief, auto.next_state, auto.regime


def _dense_values(auto, params, monitoring):
    """(values, errors) from a dense solve of (I - M) [V, E] = [b, miss],
    with I - M built edge by edge."""
    delta, kappa = params.delta, params.kappa
    sv, sp, nxt = auto.replace_prob, auto.effort_prob, auto.next_state
    n, n_signals = nxt.shape
    m = np.zeros((n, n))
    miss = np.zeros(n)
    for q in range(n):
        for i in range(n_signals):
            w = delta * (sp[q] * monitoring.f1[i] + (1.0 - sp[q]) * monitoring.f0[i])
            if nxt[q, i] < 0:
                miss[q] += w
            else:
                m[q, nxt[q, i]] += w * (1.0 - sv[nxt[q, i]])
    b = (1.0 - delta) * (1.0 - kappa * sp)
    return np.linalg.solve(np.eye(n) - m, np.column_stack([b, miss])).T


def successor(auto, state, signal):
    """The next state after ``signal`` at ``state``; None if unmaterialized."""
    target = int(auto.next_state[state, auto.signals.index(signal)])
    return None if target < 0 else target


_REWIRABLE = {
    "reference": (GameParams(0.2, 0.5, 0.3, 0.05), MonitoringStructure.binary(0.75), 200),
    "two-fail-depth-6": (TWO_FAIL_PARAMS, TWO_FAIL, 6),
}


@functools.cache
def _rewirable(case):
    params, monitoring, depth = _REWIRABLE[case]
    return params, monitoring, construct_non_efe(params, monitoring, max_depth=depth)[0]


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

    def test_a0_bisects_to_the_feasibility_bound(self, monkeypatch):
        # a_min, the bracket's upper end, is feasible and its lower end is not
        brackets, bisect = [], equilibria._bisect

        def recorded(*args):
            brackets.append(bisect(*args))
            return brackets[-1]

        monkeypatch.setattr(equilibria, "_bisect", recorded)
        rng = np.random.default_rng(2029)
        for _ in range(300):
            n = int(rng.integers(2, 6))
            f0, f1 = tuple(rng.dirichlet(np.ones(n))), tuple(rng.dirichlet(np.ones(n)))
            pi0 = rng.uniform(0.01, 0.99)
            c = rng.uniform(0.0, 1.0 - pi0) * rng.choice([0.0, 0.1, 1.0])
            a0 = equilibria._a0.__wrapped__(pi0, c, f0, f1)
            (lo, a_min), = brackets  # one search per call
            brackets.clear()
            assert a0 == 0.5 * (1.0 + a_min)
            assert equilibria._a0_slack(pi0, c, f0, f1, a_min) >= 0.0
            assert equilibria._a0_slack(pi0, c, f0, f1, lo) < 0.0
            assert 0.0 < a_min - lo <= equilibria.A0_BISECTION_TOL

    @pytest.mark.parametrize("shrink, a0, bracketed", [
        (5e-12, 0.999999999998, True), (2e-12, 0.9999999999995, False),
    ])
    def test_a0_takes_a_feasible_lower_end(self, binary75, monkeypatch, shrink, a0, bracketed):
        # c just below 1 - pi0: the bound already holds at the lower end, so
        # a_min is that end and nothing is bisected; at 5e-12 the two ends
        # still form a bracket, where a bisection would return at once with
        # a_min at the upper end (a0 0.9999999999995) and a feasible lower end
        pi0, c = 0.3, 0.7 * (1.0 - shrink)
        f0, f1 = tuple(binary75.f0), tuple(binary75.f1)
        lo, hi = c / (1.0 - pi0) + 1e-12, 1.0 - 1e-12
        assert (lo < hi) == bracketed and equilibria._a0_slack(pi0, c, f0, f1, lo) >= 0.0
        monkeypatch.setattr(equilibria, "_bisect", None)  # never called
        assert equilibria._a0.__wrapped__(pi0, c, f0, f1) == a0 == 0.5 * (1.0 + lo)

    def test_indifference_effort_guard(self):
        assert indifference_effort(0.7, 0.2) == pytest.approx(0.625, abs=1e-12)
        with pytest.raises(IndifferenceOutOfRange):
            indifference_effort(0.7, 0.75)
        with pytest.raises(IndifferenceOutOfRange):
            indifference_effort(1.2, 0.1)
        with pytest.raises(IndifferenceOutOfRange):  # no effort moves a sure belief
            indifference_effort(0.9, 1.0)


class TestFullEffortConstruction:
    def test_shape(self, fe_automaton, ref_params):
        assert fe_automaton.regime.tolist() == [REGIME_PASS, REGIME_DEAD, REGIME_DEAD]
        sv, sp, pi = fe_automaton.replace_prob, fe_automaton.effort_prob, fe_automaton.belief
        assert sp[0] == 1.0 and sv[0] == 0.0
        assert pi[0] == ref_params.pi0
        # first failing signal keeps the prior (pooled update); only the
        # certainly-replaced successor carries the unconstrained 0 belief
        assert sv[1] == 1.0 and pi[1] == ref_params.pi0
        assert pi[2] == 0.0
        assert successor(fe_automaton, 0, "Pass") == 0
        assert successor(fe_automaton, 0, "Fail") == 1
        assert successor(fe_automaton, 1, "Pass") == 2
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
        init = non_efe_automaton.initial
        assert non_efe_automaton.regime[init] == REGIME_INITIAL
        assert non_efe_automaton.belief[init] == ref_params.pi0
        assert non_efe_automaton.effort_prob[init] == pytest.approx(9.0 / 14.0, abs=1e-9)

    def test_first_regime_chain_monotone(self, non_efe_automaton):
        # walk the failing-signal chain from the initial state
        auto = non_efe_automaton
        chain = []
        sid = successor(auto, auto.initial, "Fail")
        while sid is not None and auto.regime[sid] == REGIME_FIRST:
            if chain and chain[-1] == sid:
                break  # closed tail loop
            chain.append(sid)
            sid = successor(auto, sid, "Fail")
        assert len(chain) > 20
        beliefs = auto.belief[chain].tolist()
        efforts = auto.effort_prob[chain].tolist()
        assert all(b1 > b2 for b1, b2 in zip(beliefs, beliefs[1:]))
        assert all(a1 < a2 for a1, a2 in zip(efforts, efforts[1:]))
        assert all(a < 1.0 for a in efforts)

    def test_first_fail_belief_and_effort(self, non_efe_automaton, ref_params, binary75):
        auto = non_efe_automaton
        a0 = auto.effort_prob[auto.initial]
        pi1 = bayes_update(binary75, ref_params.pi0, a0, "Fail")
        assert pi1 == pytest.approx(0.2, abs=1e-9)
        first = successor(auto, auto.initial, "Fail")
        assert auto.belief[first] == pytest.approx(pi1, abs=1e-12)
        assert auto.effort_prob[first] == pytest.approx(0.625, abs=1e-8)
        assert auto.replace_prob[first] == pytest.approx(43.0 / 67.0, abs=1e-9)

    def test_regime_transitions(self, non_efe_automaton):
        auto = non_efe_automaton
        second = successor(auto, auto.initial, "Pass")
        assert auto.regime[second] == REGIME_SECOND
        assert auto.belief[second] == pytest.approx(0.36, abs=1e-9)
        assert successor(auto, second, "Pass") == second
        third = successor(auto, second, "Fail")
        assert auto.regime[third] == REGIME_THIRD
        assert auto.replace_prob[third] == 1.0 and auto.effort_prob[third] == 0.0
        # entry keeps the frozen belief; only deeper states drop to 0
        assert auto.belief[third] == pytest.approx(0.36, abs=1e-9)
        deeper = successor(auto, third, "Fail")
        assert auto.belief[deeper] == 0.0

    def test_values_match_closed_forms(
        self, non_efe_automaton, ref_params, binary75, non_efe_params_out
    ):
        vt = compute_values(non_efe_automaton, ref_params, binary75)
        assert vt.values[non_efe_automaton.initial] == pytest.approx(0.67, abs=1e-9)
        regime = non_efe_automaton.regime
        first = np.isin(regime, (REGIME_INITIAL, REGIME_FIRST))
        second, third = regime == REGIME_SECOND, regime == REGIME_THIRD
        assert (first | second | third).all() and third.sum() > 1
        np.testing.assert_allclose(vt.values[first], 0.67, rtol=0, atol=1e-9)
        np.testing.assert_allclose(vt.values[second], 0.64, rtol=0, atol=1e-9)
        # post-retention value per the recursion; the pre-vote value
        # (1 - sigma_V) V is 0 at certain replacement
        np.testing.assert_allclose(vt.values[third], 1 - 0.5, rtol=0, atol=1e-9)
        assert ((1 - non_efe_automaton.replace_prob[third]) * vt.values[third] == 0.0).all()

    def test_all_replace_value_formula(self, ref_params, binary75):
        # single self-looping state under certain replacement:
        # V = (1-delta)(1 - kappa sigma_P)
        auto = EquilibriumAutomaton(
            replace_prob=[1.0], effort_prob=[0.4], belief=[0.3],
            next_state=[[0] * len(binary75.signals)],
            regime=[REGIME_THIRD],
            initial=0,
            signals=binary75.signals,
            kind="custom",
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
        lo = ref_params.c / (1.0 - ref_params.pi0)  # a0 must lie in (lo, 1)
        for a0 in (0.1, 1.5, float("nan"), lo, 1.0):
            with pytest.raises(NoFeasibleA0):
                construct_non_efe(ref_params, binary75, a0_override=a0)

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


class TestTreeReuse:
    """The FirstRegime tree reads pi0, c, the monitoring and S*, never kappa
    or delta, which reach only x; one tree serves a run of such cells."""

    @staticmethod
    def _tree_arrays(auto):
        return auto.belief, auto.effort_prob, auto.next_state, auto.regime

    def test_cells_sharing_a_precision_share_the_tree(self, ref_params, binary75):
        a, nep_a = construct_non_efe(ref_params, binary75)
        other = GameParams(kappa=0.1, delta=0.8, pi0=ref_params.pi0, c=ref_params.c)
        b, nep_b = construct_non_efe(other, binary75)
        assert nep_a.x != nep_b.x
        for x, y in zip(self._tree_arrays(a), self._tree_arrays(b)):
            np.testing.assert_array_equal(x, y)
        first = a.regime == REGIME_FIRST
        assert first.any()
        assert (a.replace_prob[first] == nep_a.x).all()
        assert (b.replace_prob[first] == nep_b.x).all()
        np.testing.assert_array_equal(a.replace_prob[~first], b.replace_prob[~first])
        for array in (*_arrays(a), *_arrays(b)):
            assert not array.flags.writeable
        # the tree's masks place x as the regime labels did, on every holding cell
        holding = 0
        for precision, kappa, delta in itertools.product(
                (0.65, 0.75, 0.9), (0.1, 0.2, 0.3), (0.3, 0.6, 0.9)):
            params = GameParams(kappa, delta, ref_params.pi0, ref_params.c)
            monitoring = MonitoringStructure.binary(precision)
            if not fei.check_fei(params, monitoring).holds:
                continue
            auto, nep = construct_non_efe(params, monitoring)
            old = np.where(auto.regime == "FirstRegime", nep.x, auto.regime == "ThirdRegime")
            assert auto.replace_prob.tobytes() == old.tobytes()
            holding += 1
        assert 0 < holding < 27

    def test_rebuilt_tree_is_bit_identical(self, ref_params, binary75):
        a = construct_non_efe(ref_params, binary75)[0]
        construct_non_efe(THREE_SIGNAL_PARAMS, THREE_SIGNAL)  # evicts a's tree
        again = construct_non_efe(ref_params, binary75)[0]
        for x, y in zip(_arrays(a), _arrays(again)):
            assert x.tobytes() == y.tobytes()
        assert (a.complete, a.meta) == (again.complete, again.meta)

    def test_a0_override_builds_its_own_tree(self, ref_params, binary75):
        default = construct_non_efe(ref_params, binary75)[0]
        override = construct_non_efe(ref_params, binary75, a0_override=0.8)[0]
        assert override.effort_prob[override.initial] == 0.8
        assert not np.array_equal(default.effort_prob, override.effort_prob)
        assert construct_non_efe(ref_params, binary75)[0].effort_prob.tobytes() == (
            default.effort_prob.tobytes())

    def test_refusals_are_raised_on_every_call(self, ref_params, binary75, monkeypatch):
        too_costly = GameParams(0.2, 0.5, 0.3, 0.7)  # c = 1 - pi0: no a0 is feasible
        for _ in range(2):
            with pytest.raises(NoFeasibleA0):
                select_a0(too_costly, binary75)

        def refuse(e_star, belief):
            raise IndifferenceOutOfRange("refused")

        equilibria._tree.cache_clear()
        monkeypatch.setattr(equilibria, "indifference_effort", refuse)
        for _ in range(2):
            with pytest.raises(IndifferenceOutOfRange):
                construct_non_efe(ref_params, binary75)
        monkeypatch.undo()
        assert construct_non_efe(ref_params, binary75)[0].complete

    @pytest.mark.parametrize("cap", [2, 5, 50, 51])
    def test_state_cap_holds_for_passing_branches(self, cap, monkeypatch):
        monkeypatch.setattr(equilibria, "MAX_STATES", cap)
        auto, _ = construct_non_efe(TWO_FAIL_PARAMS, FIVE_SIGNAL, max_depth=400)
        assert len(auto.states) == cap and not auto.complete
        # a passing branch that found no room is left open
        passing = [j for j, s in enumerate(FIVE_SIGNAL.signals) if s in ("A", "B")]
        assert (auto.next_state[auto.initial, passing] < 0).all() == (cap < 4)
        assert verify(auto, TWO_FAIL_PARAMS, FIVE_SIGNAL).passed

    def test_phase_sweep_builds_one_tree_per_precision(self, capsys):
        equilibria._tree.cache_clear()
        assert cli.main(["phase-sweep", "--binary-precision", "0.7:0.9:0.2", "--kappa",
                         "0.1:0.2:0.1", "--delta", "0.3:0.9:0.3", "--pi0", "0.3",
                         "--c", "0.05"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert len(rows) == 12
        holding = {row[0] for row in rows if row[5] == "true"}
        assert len(holding) == 2 and len(holding) < sum(row[5] == "true" for row in rows)
        assert equilibria._tree.cache_info().misses == len(holding)
        # pi0 and c, which set a0 and so the tree, run outside kappa and delta
        equilibria._tree.cache_clear()
        assert cli.main(["phase-sweep", "--binary-precision", "0.7:0.9:0.2", "--pi0", "0.2,0.3",
                         "--c", "0:0.05:0.05", "--kappa", "0.1:0.2:0.1", "--delta",
                         "0.3:0.9:0.3"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert len(rows) == 48
        holding = {(row[0], row[3], row[4]) for row in rows if row[5] == "true"}
        assert len(holding) == 8 and len(holding) < sum(row[5] == "true" for row in rows)
        assert equilibria._tree.cache_info().misses == len(holding)


class TestValueRecursion:
    def test_delta_out_of_range(self):
        # delta = 1 would make the value recursion non-contractive; such
        # params cannot be built, so no solve ever sees them
        with pytest.raises(ValidationError):
            GameParams(0.2, 1.0, 0.3, 0.05)

    def test_sparse_solve_matches_dense_oracle(self):
        auto, _ = construct_non_efe(TWO_FAIL_PARAMS, TWO_FAIL, max_depth=10)
        assert len(auto.states) == 836 and not auto.complete
        vt = compute_values(auto, TWO_FAIL_PARAMS, TWO_FAIL)
        values, errors = _dense_values(auto, TWO_FAIL_PARAMS, TWO_FAIL)
        np.testing.assert_allclose(vt.values, values, rtol=0, atol=1e-12)
        np.testing.assert_allclose(vt.errors, errors, rtol=0, atol=1e-12)
        assert vt.tail_bound == vt.errors.max() > 0.0

    @given(
        case=st.sampled_from(sorted(_REWIRABLE)),
        source=st.integers(min_value=0, max_value=10**4),
        signal=st.integers(min_value=0, max_value=3),
        target=st.integers(min_value=0, max_value=10**4),
    )
    @example(case="reference", source=2, signal=0, target=0)  # FirstRegime fail -> initial
    @settings(max_examples=40, deadline=None)
    def test_rewired_edge_matches_dense_oracle(self, case, source, signal, target):
        # one edge sent to any state may close a cycle, which only the
        # sparse LU block can solve
        params, monitoring, auto = _rewirable(case)
        n, n_signals = auto.next_state.shape
        nxt = auto.next_state.copy()
        nxt[source % n, signal % n_signals] = target % n
        rewired = dataclasses.replace(auto, next_state=nxt)
        vt = compute_values(rewired, params, monitoring)
        values, errors = _dense_values(rewired, params, monitoring)
        np.testing.assert_allclose(vt.values, values, rtol=0, atol=1e-12)
        np.testing.assert_allclose(vt.errors, errors, rtol=0, atol=1e-12)

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
    def test_arrays_built_once_and_read_only(self, non_efe_automaton, ref_params, binary75):
        auto = non_efe_automaton
        sv, nxt = auto.replace_prob, auto.next_state
        assert nxt.shape == (len(auto.states), len(auto.signals))
        assert nxt.dtype == np.int64 and auto.regime.dtype == object
        edges = automaton_to_dict(auto, ref_params, binary75)["transitions"]
        assert len(edges) == (nxt >= 0).sum() == nxt.size  # complete: every edge present
        for edge in edges:
            assert nxt[edge["from"], auto.signals.index(edge["signal"])] == edge["to"]
        for array in _arrays(auto):
            assert not array.flags.writeable
        with pytest.raises(ValueError):
            sv[0] = 0.5

    def test_built_from_copies(self, fe_automaton):
        belief = fe_automaton.belief.copy()
        auto = dataclasses.replace(fe_automaton, belief=belief)
        belief[0] = 0.9
        assert auto.belief[0] == fe_automaton.belief[0] != 0.9

    def test_one_violation_per_bad_edge(self, fe_automaton):
        nxt = fe_automaton.next_state.copy()
        nxt[0, 0] = 99999
        nxt[1, 1] = -2
        nxt[2, 0] = 3
        with pytest.raises(ValidationError) as exc:
            dataclasses.replace(fe_automaton, next_state=nxt, kind="custom")
        assert [str(v) for v in exc.value.violations] == [
            "BadTransition: 0 --Fail--> 99999: state outside [0, 3)",
            "BadTransition: 1 --Pass--> -2: state outside [0, 3)",
            "BadTransition: 2 --Fail--> 3: state outside [0, 3)",
        ]

    def test_one_violation_per_bad_edge_in_a_file(self, fe_automaton, ref_params, binary75):
        payload = automaton_to_dict(fe_automaton, ref_params, binary75)
        payload["transitions"] += [{"from": 0, "signal": "Fail", "to": 99999},
                                   {"from": 1, "signal": "Maybe", "to": 2},
                                   {"from": -1, "signal": "Pass", "to": 0}]
        with pytest.raises(ValidationError) as exc:
            automaton_from_dict(payload)
        assert [str(v) for v in exc.value.violations] == [
            "BadTransition: 0 --Fail--> 99999: state outside [0, 3)",
            "BadTransition: 1 --Maybe--> 2: unknown signal 'Maybe'",
            "BadTransition: -1 --Pass--> 0: state outside [0, 3)",
        ]

    def test_repeated_edge_keeps_its_last_target(self, fe_automaton, ref_params, binary75):
        payload = automaton_to_dict(fe_automaton, ref_params, binary75)
        payload["transitions"] += [{"from": 0, "signal": "Pass", "to": 2},
                                   {"from": 0, "signal": "Pass", "to": 1}]
        auto, _, _ = automaton_from_dict(payload)
        assert auto.next_state.tolist() == [[1, 1], [2, 2], [2, 2]]


class TestSerialization:
    def test_roundtrip(self, non_efe_automaton, ref_params, binary75):
        payload = automaton_to_dict(non_efe_automaton, ref_params, binary75)
        blob = json.dumps(payload)
        auto2, params2, monitoring2 = automaton_from_dict(json.loads(blob))
        assert params2 == ref_params
        assert monitoring2 == binary75
        for loaded, built in zip(_arrays(auto2), _arrays(non_efe_automaton)):
            np.testing.assert_array_equal(loaded, built)
        assert auto2.regime.tolist() == non_efe_automaton.regime.tolist()
        assert (auto2.initial, auto2.kind, auto2.complete, auto2.meta) == (
            non_efe_automaton.initial, "non-efe", True, non_efe_automaton.meta)
        assert verify(auto2, params2, monitoring2).passed

    def test_custom_labels_round_trip(self, fe_automaton, ref_params, binary75):
        # labels a construction never writes, listed out of sorted order
        payload = automaton_to_dict(fe_automaton, ref_params, binary75)
        payload["kind"] = "custom"
        for state, label in zip(payload["states"], ["Zeta", "Alpha", "Zeta"]):
            state["regime"] = label
        text = json.dumps(payload, indent=2, sort_keys=True)
        auto, params, monitoring = automaton_from_dict(json.loads(text))
        assert auto.regime.tolist() == ["Zeta", "Alpha", "Zeta"]
        back = automaton_to_dict(auto, params, monitoring)
        assert json.dumps(back, indent=2, sort_keys=True) == text

    @pytest.mark.parametrize("params, monitoring, depth", [
        (GameParams(0.2, 0.5, 0.3, 0.05), MonitoringStructure.binary(0.75), 0),
        (GameParams(0.2, 0.5, 0.3, 0.05), MonitoringStructure.binary(0.75), 3),
        (GameParams(0.2, 0.5, 0.3, 0.05), MonitoringStructure.binary(0.75), 200),
        (TWO_FAIL_PARAMS, TWO_FAIL, 8),
    ])
    def test_written_complete_is_the_edges(self, params, monitoring, depth):
        auto, _ = construct_non_efe(params, monitoring, max_depth=depth)
        payload = automaton_to_dict(auto, params, monitoring)
        edges = len(payload["transitions"])
        assert payload["complete"] is (edges == auto.next_state.size) is (depth == 200)

    def test_serialized_keys_present(self, fe_automaton, ref_params, binary75):
        payload = automaton_to_dict(fe_automaton, ref_params, binary75)
        assert set(payload) >= {"states", "transitions", "initial", "params_echo"}
        assert set(payload["states"][0]) == {
            "id", "regime", "replace_prob", "effort_prob", "belief",
        }
        assert set(payload["transitions"][0]) == {"from", "signal", "to"}
