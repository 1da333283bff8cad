import dataclasses

import numpy as np
import pytest

from replab import EquilibriumAutomaton, GameParams, MonitoringStructure, verify
from replab.equilibria import REGIME_FIRST, REGIME_SECOND, REGIME_THIRD
from replab.errors import ValidationError
from replab.verifier import expected_effort


def patch_state(auto, sid, **fields):
    """``auto`` with each named per-state field changed at state ``sid``."""
    changed = {}
    for name, value in fields.items():
        changed[name] = getattr(auto, name).copy()
        changed[name][sid] = value
    return dataclasses.replace(auto, **changed)


def in_regime(auto, label):
    return np.flatnonzero(np.array(auto.labels)[auto.regime] == label).tolist()


def first_ids(auto):
    return in_regime(auto, REGIME_FIRST)


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
        efforts = expected_effort(non_efe_automaton)[first_ids(non_efe_automaton)]
        assert len(efforts) > 20
        np.testing.assert_allclose(efforts, 0.75 - ref_params.c, rtol=0, atol=1e-10)


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
            effort_prob=non_efe_automaton.effort_prob[sid] + 0.05,
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
            effort_prob=non_efe_automaton.effort_prob[init] + 0.05,
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
            replace_prob=non_efe_automaton.replace_prob[sid] + 0.02,
        )
        report = verify(bad, ref_params, binary75)
        assert not report.passed
        assert {o.category for o in report.offenders} == {"politician_ic"}

    def test_perturb_belief(self, non_efe_automaton, ref_params, binary75):
        sid = in_regime(non_efe_automaton, REGIME_SECOND)[0]
        bad = patch_state(
            non_efe_automaton, sid, belief=non_efe_automaton.belief[sid] + 0.03
        )
        report = verify(bad, ref_params, binary75)
        assert not report.passed
        assert any(o.category == "bayes" for o in report.offenders)

    def test_rewire_transition(self, non_efe_automaton, ref_params, binary75):
        sid = first_ids(non_efe_automaton)[0]
        nxt = non_efe_automaton.next_state.copy()
        nxt[sid, binary75.index("Pass")] = sid  # pass should move to the second regime
        report = verify(dataclasses.replace(non_efe_automaton, next_state=nxt),
                        ref_params, binary75)
        assert not report.passed
        assert any(o.category == "politician_ic" for o in report.offenders)

    def test_perturb_x_globally(self, non_efe_automaton, ref_params, binary75):
        replace_prob = non_efe_automaton.replace_prob.copy()
        replace_prob[first_ids(non_efe_automaton)] *= 1.05
        report = verify(dataclasses.replace(non_efe_automaton, replace_prob=replace_prob),
                        ref_params, binary75)
        assert not report.passed
        assert {o.category for o in report.offenders} == {"politician_ic"}


class TestScope:
    def test_bayes_skipped_after_certain_replacement(
        self, non_efe_automaton, ref_params, binary75
    ):
        report = verify(non_efe_automaton, ref_params, binary75)
        third = in_regime(non_efe_automaton, REGIME_THIRD)
        assert len(third) > 1
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
        auto = EquilibriumAutomaton(
            replace_prob=[0.0, 1.0, 0.0], effort_prob=[1.0, 0.0, 0.0], belief=[0.3, 0.3, 0.0],
            next_state=[[0 if s == "Pass" else 1 for s in binary75.signals], [2, 2], [2, 2]],
            regime=[1, 2, 0], labels=("Dead", "Pass", REGIME_THIRD), initial=0,
            signals=binary75.signals, kind="custom", complete=True,
        )
        report = verify(auto, ref_params, binary75)
        assert report.informational_states[2]
        assert report.voter_ic[2] > 0.1  # the violation is visible
        assert not any(o.location == "2" for o in report.offenders)


class TestExpectedEffort:
    def test_degenerate_good_state(self, binary75):
        auto = EquilibriumAutomaton(
            replace_prob=[0.0], effort_prob=[0.0], belief=[1.0], next_state=[[0, 0]],
            regime=[0], labels=("Pass",), initial=0,
            signals=binary75.signals,
            kind="custom",
            complete=True,
        )
        assert expected_effort(auto).tolist() == [1.0]

    def test_non_efe_reference_values(self, non_efe_automaton):
        efforts = expected_effort(non_efe_automaton)
        assert efforts.shape == non_efe_automaton.belief.shape
        assert efforts[non_efe_automaton.initial] == pytest.approx(0.75, abs=1e-9)
        np.testing.assert_allclose(efforts[first_ids(non_efe_automaton)], 0.7,
                                   rtol=0, atol=1e-9)
        sv, sp, pi, _ = non_efe_automaton.as_arrays()
        for q in non_efe_automaton.states:
            assert efforts[q] == pi[q] + (1.0 - pi[q]) * sp[q]
