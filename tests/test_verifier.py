import dataclasses

import numpy as np
import pytest

from replab import (
    EquilibriumAutomaton, GameParams, MonitoringStructure, construct_non_efe, verify, verify_many,
)
from replab.equilibria import REGIME_FIRST, REGIME_SECOND, REGIME_THIRD
from replab.errors import ValidationError
from replab.verifier import expected_effort

FOUR_SIGNAL = MonitoringStructure(
    signals=("A", "B", "C", "D"), f0=(0.1, 0.2, 0.3, 0.4), f1=(0.4, 0.3, 0.2, 0.1)
)
FOUR_SIGNAL_PARAMS = GameParams(kappa=0.1, delta=0.7, pi0=0.3, c=0.05)


def patch_state(auto, sid, **fields):
    """``auto`` with each named per-state field changed at state ``sid``."""
    changed = {}
    for name, value in fields.items():
        changed[name] = getattr(auto, name).copy()
        changed[name][sid] = value
    return dataclasses.replace(auto, **changed)


def in_regime(auto, label):
    return np.flatnonzero(auto.regime == label).tolist()


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
            regime=["Pass", REGIME_THIRD, "Dead"], initial=0,
            signals=binary75.signals, kind="custom",
        )
        report = verify(auto, ref_params, binary75)
        assert report.informational_states[2]
        assert report.voter_ic[2] > 0.1  # the violation is visible
        assert not any(o.location == "2" for o in report.offenders)


class TestExpectedEffort:
    def test_degenerate_good_state(self, binary75):
        auto = EquilibriumAutomaton(
            replace_prob=[0.0], effort_prob=[0.0], belief=[1.0], next_state=[[0, 0]],
            regime=["Pass"], initial=0,
            signals=binary75.signals,
            kind="custom",
        )
        assert expected_effort(auto).tolist() == [1.0]

    def test_non_efe_reference_values(self, non_efe_automaton):
        efforts = expected_effort(non_efe_automaton)
        assert efforts.shape == non_efe_automaton.belief.shape
        assert efforts[non_efe_automaton.initial] == pytest.approx(0.75, abs=1e-9)
        np.testing.assert_allclose(efforts[first_ids(non_efe_automaton)], 0.7,
                                   rtol=0, atol=1e-9)
        sp, pi = non_efe_automaton.effort_prob, non_efe_automaton.belief
        for q in non_efe_automaton.states:
            assert efforts[q] == pi[q] + (1.0 - pi[q]) * sp[q]


def assert_same_report(got, want):
    """Field by field and bit for bit: arrays by dtype, shape and bytes (NaN
    positions included), floats by their bits, offenders in order."""
    for name, value in vars(want).items():
        other = getattr(got, name)
        if isinstance(value, np.ndarray):
            assert (other.dtype, other.shape) == (value.dtype, value.shape), name
            assert other.tobytes() == value.tobytes(), name
        elif isinstance(value, float):
            assert np.float64(other).tobytes() == np.float64(value).tobytes(), name
        else:
            assert other == value, name


def _broken_everywhere(auto):
    """The reference automaton with a voter, an officeholder and a Bayes fault."""
    first, second = first_ids(auto)[0], in_regime(auto, REGIME_SECOND)[0]
    bad = patch_state(auto, first, effort_prob=auto.effort_prob[first] + 0.05)
    bad = patch_state(bad, first_ids(auto)[1], replace_prob=auto.replace_prob[first] + 0.02)
    return patch_state(bad, second, belief=auto.belief[second] + 0.03)


def _cyclic(auto, source):
    """``auto`` with ``source``'s Fail edge sent back to the initial state."""
    nxt = auto.next_state.copy()
    nxt[source, 0] = auto.initial
    return dataclasses.replace(auto, next_state=nxt)


class TestVerifyMany:
    """A batch is one union of its cases, but each report is its case's own."""

    def test_each_report_is_its_case_alone(self, fe_automaton, non_efe_automaton,
                                           ref_params, binary75, fail_params):
        broken = _broken_everywhere(non_efe_automaton)
        other = construct_non_efe(GameParams(0.1, 0.7, 0.3, 0.05),
                                  MonitoringStructure.binary(0.6))[0]
        cases = [
            (fe_automaton, ref_params, binary75),
            (non_efe_automaton, ref_params, binary75),
            (broken, ref_params, binary75),
            (_cyclic(non_efe_automaton, 2), ref_params, binary75),
            (other, GameParams(0.1, 0.7, 0.3, 0.05), MonitoringStructure.binary(0.6)),
            (_cyclic(broken, first_ids(broken)[3]), ref_params, binary75),
            (fe_automaton, fail_params, binary75),
        ]
        reports = verify_many(cases, tol=1e-8)
        assert len(reports) == len(cases)
        for report, case in zip(reports, cases):
            assert_same_report(report, verify(*case, tol=1e-8))
        assert [r.passed for r in reports[:3]] == [True, True, False]
        assert {o.category for o in reports[2].offenders} == {
            "politician_ic", "voter_ic", "bayes",
        }

    def test_truncated_four_signal_batch(self):
        cases = [(construct_non_efe(FOUR_SIGNAL_PARAMS, FOUR_SIGNAL, max_depth=depth)[0],
                  FOUR_SIGNAL_PARAMS, FOUR_SIGNAL) for depth in (2, 5, 3)]
        reports = verify_many(cases, tol=1e-8)
        for report, case in zip(reports, cases):
            assert report.tail_bound > 0.0
            assert_same_report(report, verify(*case, tol=1e-8))

    def test_cyclic_cases_are_factored_alone(self):
        # randomly rewired trees hold large cycles; one sparse LU over the
        # union of their cyclic states would move last bits (seed 26 did)
        base = construct_non_efe(FOUR_SIGNAL_PARAMS, FOUR_SIGNAL, max_depth=6)[0]
        rng = np.random.default_rng(26)
        cases = []
        for _ in range(3):
            nxt = base.next_state.copy()
            for _ in range(40):
                nxt[rng.integers(0, len(nxt)), rng.integers(0, 4)] = rng.integers(0, len(nxt))
            cases.append((dataclasses.replace(base, next_state=nxt),
                          FOUR_SIGNAL_PARAMS, FOUR_SIGNAL))
        for report, case in zip(verify_many(cases), cases):
            assert_same_report(report, verify(*case))

    def test_mixed_signal_counts_are_refused(self, fe_automaton, ref_params, binary75):
        four = construct_non_efe(FOUR_SIGNAL_PARAMS, FOUR_SIGNAL, max_depth=2)[0]
        with pytest.raises(ValidationError, match="BadBatch"):
            verify_many([(fe_automaton, ref_params, binary75),
                         (four, FOUR_SIGNAL_PARAMS, FOUR_SIGNAL)])
        with pytest.raises(ValidationError, match="BadBatch"):
            verify_many([(fe_automaton, FOUR_SIGNAL_PARAMS, FOUR_SIGNAL)])

    def test_empty_batch(self):
        assert verify_many([]) == []
        with pytest.raises(ValidationError):
            verify_many([], tol=float("nan"))
