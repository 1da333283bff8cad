import dataclasses

import numpy as np
import pytest

from replab import EquilibriumAutomaton, GameParams, MonitoringStructure, verify
from replab.equilibria import (
    REGIME_FIRST,
    REGIME_SECOND,
    REGIME_THIRD,
    AutomatonState,
)
from replab.errors import ValidationError
from replab.verifier import expected_effort


def clone(auto, states=None, transitions=None):
    return EquilibriumAutomaton(
        states=list(states if states is not None else auto.states),
        transitions=dict(transitions if transitions is not None else auto.transitions),
        initial=auto.initial,
        signals=auto.signals,
        kind=auto.kind,
        complete=auto.complete,
        meta=dict(auto.meta),
    )


def patch_state(auto, sid, **fields):
    states = [
        dataclasses.replace(q, **fields) if q.id == sid else q for q in auto.states
    ]
    return clone(auto, states=states)


def first_ids(auto):
    return [q.id for q in auto.states if q.regime == REGIME_FIRST]


class TestSoundness:
    def test_full_effort_passes(self, fe_automaton, ref_params, binary75):
        report = verify(fe_automaton, ref_params, binary75, tol=1e-8)
        assert report.passed
        assert report.politician_ic.max() <= 1e-9
        assert np.nanmax(report.bayes) <= 1e-9

    def test_non_efe_passes(self, non_efe_automaton, ref_params, binary75):
        report = verify(non_efe_automaton, ref_params, binary75, tol=1e-8)
        assert report.passed
        assert report.outside_option == pytest.approx(0.75, abs=1e-9)

    def test_voter_indifference_constant_on_first_regime(
        self, non_efe_automaton, ref_params
    ):
        efforts = {
            expected_effort(non_efe_automaton, qid)
            for qid in first_ids(non_efe_automaton)
        }
        target = 0.75 - ref_params.c
        for e in efforts:
            assert e == pytest.approx(target, abs=1e-10)


    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-3])
    def test_tolerance_must_be_finite_and_nonnegative(self, fe_automaton, ref_params,
                                                      binary75, tol):
        with pytest.raises(ValidationError):
            verify(fe_automaton, ref_params, binary75, tol=tol)


class TestMutationCatalog:
    """Each catalogued corruption must fail with its expected category."""

    def test_perturb_effort_at_first_regime(self, non_efe_automaton, ref_params, binary75):
        sid = first_ids(non_efe_automaton)[0]
        bad = patch_state(
            non_efe_automaton, sid,
            effort_prob=non_efe_automaton.state(sid).effort_prob + 0.05,
        )
        report = verify(bad, ref_params, binary75)
        assert not report.passed
        assert any(
            o.category == "voter_ic" and o.location == str(sid)
            for o in report.offenders
        )

    def test_perturb_effort_at_initial(self, non_efe_automaton, ref_params, binary75):
        init = non_efe_automaton.initial
        bad = patch_state(
            non_efe_automaton, init,
            effort_prob=non_efe_automaton.state(init).effort_prob + 0.05,
        )
        report = verify(bad, ref_params, binary75)
        assert not report.passed
        firsts = {str(q) for q in first_ids(non_efe_automaton)}
        assert any(
            o.category in ("voter_ic", "politician_ic") and o.location in firsts
            for o in report.offenders
        )

    def test_perturb_replacement_probability(self, non_efe_automaton, ref_params, binary75):
        sid = first_ids(non_efe_automaton)[0]
        bad = patch_state(
            non_efe_automaton, sid,
            replace_prob=non_efe_automaton.state(sid).replace_prob + 0.02,
        )
        report = verify(bad, ref_params, binary75)
        assert not report.passed
        assert {o.category for o in report.offenders} == {"politician_ic"}

    def test_perturb_belief(self, non_efe_automaton, ref_params, binary75):
        sid = next(
            q.id for q in non_efe_automaton.states if q.regime == REGIME_SECOND
        )
        bad = patch_state(
            non_efe_automaton, sid, belief=non_efe_automaton.state(sid).belief + 0.03
        )
        report = verify(bad, ref_params, binary75)
        assert not report.passed
        assert any(o.category == "bayes" for o in report.offenders)

    def test_rewire_transition(self, non_efe_automaton, ref_params, binary75):
        sid = first_ids(non_efe_automaton)[0]
        transitions = dict(non_efe_automaton.transitions)
        transitions[(sid, "Pass")] = sid  # pass should move to the second regime
        report = verify(clone(non_efe_automaton, transitions=transitions),
                        ref_params, binary75)
        assert not report.passed
        assert any(o.category == "politician_ic" for o in report.offenders)

    def test_perturb_x_globally(self, non_efe_automaton, ref_params, binary75):
        states = [
            dataclasses.replace(q, replace_prob=q.replace_prob * 1.05)
            if q.regime == REGIME_FIRST
            else q
            for q in non_efe_automaton.states
        ]
        report = verify(clone(non_efe_automaton, states=states), ref_params, binary75)
        assert not report.passed
        assert {o.category for o in report.offenders} == {"politician_ic"}


class TestScope:
    def test_bayes_skipped_after_certain_replacement(
        self, non_efe_automaton, ref_params, binary75
    ):
        report = verify(non_efe_automaton, ref_params, binary75)
        third = [q.id for q in non_efe_automaton.states if q.regime == REGIME_THIRD]
        for qid in third:
            for s in binary75.signals:
                assert np.isnan(report.bayes[qid, binary75.index(s)])

    def test_post_replacement_states_are_informational(
        self, fe_automaton, ref_params, binary75
    ):
        report = verify(fe_automaton, ref_params, binary75)
        # the first failing state is an on-path vote point; its absorbing
        # successor is only reached off path
        assert not report.informational_states[1]
        assert report.informational_states[2]
        assert not np.isnan(report.voter_ic[2])  # still evaluated, reported as informational

    def test_informational_violation_does_not_fail(self, ref_params, binary75):
        # off-path state prescribes retention although effort there is far
        # below the outside option; weak scope keeps this non-binding
        states = [
            AutomatonState(0, "Pass", 0.0, 1.0, 0.3),
            AutomatonState(1, REGIME_THIRD, 1.0, 0.0, 0.3),
            AutomatonState(2, "Dead", 0.0, 0.0, 0.0),
        ]
        transitions = {}
        for s in binary75.signals:
            transitions[(0, s)] = 0 if s == "Pass" else 1
            transitions[(1, s)] = 2
            transitions[(2, s)] = 2
        auto = EquilibriumAutomaton(
            states=states, transitions=transitions, initial=0,
            signals=binary75.signals, kind="custom", complete=True,
        )
        report = verify(auto, ref_params, binary75)
        assert report.informational_states[2]
        assert report.voter_ic[2] > 0.1  # the violation is visible
        assert not any(o.location == "2" for o in report.offenders)


class TestExpectedEffort:
    def test_degenerate_good_state(self, binary75):
        auto = EquilibriumAutomaton(
            states=[AutomatonState(0, "Pass", 0.0, 0.0, 1.0)],
            transitions={(0, s): 0 for s in binary75.signals},
            initial=0,
            signals=binary75.signals,
            kind="custom",
            complete=True,
        )
        assert expected_effort(auto, 0) == 1.0

    def test_non_efe_reference_values(self, non_efe_automaton):
        assert expected_effort(
            non_efe_automaton, non_efe_automaton.initial
        ) == pytest.approx(0.75, abs=1e-9)
        for qid in first_ids(non_efe_automaton):
            assert expected_effort(non_efe_automaton, qid) == pytest.approx(
                0.7, abs=1e-9
            )
