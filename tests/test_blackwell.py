"""The Blackwell order as an oracle for the FEI decision, the failure
horizon and the outside-option ceiling.

Let G garble the signals: signal s becomes k with probability G[s, k]. A
continuation schedule v on the garbled signals lifts to the fine ones as
v(s) = sum_k G[s, k] v(k), which keeps every expectation under f0 and f1.
So a garbling can only lose incentives: if FEI holds for the garbled
monitoring it holds for the fine one, the fine failure gap is at most the
garbled one (so the fine T is at least the garbled T), and the ceiling,
which rises with T, is at least the garbled one. Permuting the signals, or
splitting one into two with the same likelihood ratio, is a garbling both
ways, so nothing may change beyond rounding.

The oracle shares no code with ``fei`` or ``bounds``: it compares two
monitorings. Where the float decision is within ``FRONTIER_BAND`` of the
frontier, it is not exact (ROADMAP item 1), so such cells, and those that
``check_fei`` refuses with ``ResolutionTooCoarse``, are skipped and counted.
"""
import itertools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from replab import GameParams, MonitoringStructure, check_fei, outside_option_bound
from replab.errors import ResolutionTooCoarse, ValidationError

FRONTIER_BAND = 1e-9  # |best incentive slack| below which a cell is skipped
ROUNDING = 1e-12  # relative tolerance for quantities equal in exact arithmetic
EXAMPLES = 150

seeds = st.integers(0, 2**32 - 1)


def _monitoring(f0, f1) -> MonitoringStructure:
    return MonitoringStructure(tuple(f"s{i}" for i in range(len(f0))),
                               tuple(map(float, f0)), tuple(map(float, f1)))


def _margin(params: GameParams, monitoring: MonitoringStructure) -> float:
    """Best incentive slack (1-kappa)(1 - delta f0(A)) - (1 - delta f1(A))
    over every nonempty proper passing set A, by brute force: FEI holds iff
    it is >= 0, whatever order the likelihood ratios take."""
    kappa, delta, n = params.kappa, params.delta, len(monitoring.signals)
    return max(
        (1.0 - kappa) * (1.0 - delta * sum(monitoring.f0[i] for i in a))
        - (1.0 - delta * sum(monitoring.f1[i] for i in a))
        for size in range(1, n) for a in itertools.combinations(range(n), size)
    )


def _decided(params, *monitorings):
    """check_fei's certificates, or None where any monitoring lies in the
    frontier band or check_fei refuses it."""
    if any(abs(_margin(params, m)) < FRONTIER_BAND for m in monitorings):
        return None
    try:
        return [check_fei(params, m) for m in monitorings]
    except ResolutionTooCoarse:
        return None


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=ROUNDING, abs_tol=ROUNDING)


def _draw_fine(rng):
    n = int(rng.integers(3, 6))
    params = GameParams(rng.uniform(0.01, 0.99), rng.uniform(0.01, 0.99),
                        rng.uniform(0.01, 0.99), rng.uniform(0.0, 0.5))
    return params, rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))


def test_garbling_never_adds_incentives():
    tally = {"pairs": 0, "band": 0, "uninformative": 0, "garbled_holds": 0, "both_fail": 0,
             "gap_rounding": 0}

    @given(seed=seeds, blur=st.sampled_from([0.0, 0.1, 1.0]))
    @settings(max_examples=EXAMPLES, deadline=None, derandomize=True, database=None)
    def check(seed, blur):
        rng = np.random.default_rng(seed)
        params, f0, f1 = _draw_fine(rng)
        n = len(f0)
        k = int(rng.integers(2, n))
        # a random merge onto k signals, each hit, blurred toward Dirichlet rows,
        # so every column has mass and the garbled f1 is positive
        merge = np.eye(k)[np.concatenate([np.arange(k), rng.integers(0, k, n - k)])]
        garbling = (1.0 - blur) * merge[rng.permutation(n)] + blur * rng.dirichlet(
            np.ones(k), size=n)
        fine = _monitoring(f0, f1)
        try:
            coarse = _monitoring(f0 @ garbling, f1 @ garbling)
        except ValidationError:
            tally["uninformative"] += 1
            return
        tally["pairs"] += 1
        certificates = _decided(params, fine, coarse)
        if certificates is None:
            tally["band"] += 1
            return
        fine_cert, coarse_cert = certificates
        if coarse_cert.holds:
            tally["garbled_holds"] += 1
            assert fine_cert.holds
        elif not fine_cert.holds:
            tally["both_fail"] += 1
            fine_ref, coarse_ref = fine_cert.refutation, coarse_cert.refutation
            assert fine_ref.min_gap <= coarse_ref.min_gap * (1.0 + ROUNDING)
            if fine_ref.min_gap > coarse_ref.min_gap:  # by rounding only, as just checked
                tally["gap_rounding"] += 1
                return
            # T is monotone in the float gap, and the ceiling in T
            assert fine_ref.horizon_T >= coarse_ref.horizon_T
            assert (outside_option_bound(params, fine).bound_value
                    >= outside_option_bound(params, coarse).bound_value)

    check()
    # every branch ran, and the band left most pairs decided
    assert min(tally["garbled_holds"], tally["both_fail"]) > 0, tally
    assert tally["band"] + tally["gap_rounding"] <= tally["pairs"] // 10, tally


def _assert_same_decision(params, monitoring, same):
    cert, other = check_fei(params, monitoring), check_fei(params, same)
    assert cert.holds == other.holds
    if cert.holds:
        assert _close(cert.witness.v_bar, other.witness.v_bar)
        assert _close(cert.witness.slack, other.witness.slack)
    else:
        assert cert.refutation.horizon_T == other.refutation.horizon_T
        assert _close(cert.refutation.min_gap, other.refutation.min_gap)


def test_permuting_or_splitting_signals_changes_nothing():
    tally = {"cells": 0, "band": 0}

    @given(seed=seeds)
    @settings(max_examples=EXAMPLES, deadline=None, derandomize=True, database=None)
    def check(seed):
        rng = np.random.default_rng(seed)
        params, f0, f1 = _draw_fine(rng)
        n = len(f0)
        monitoring = _monitoring(f0, f1)
        order = rng.permutation(n)
        permuted = MonitoringStructure(tuple(monitoring.signals[i] for i in order),
                                       tuple(f0[order]), tuple(f1[order]))
        split, share = int(rng.integers(0, n)), rng.uniform(0.05, 0.95)
        halves = np.array([share, 1.0 - share])
        doubled = _monitoring(*(np.concatenate([np.delete(f, split), f[split] * halves])
                                for f in (f0, f1)))
        tally["cells"] += 1
        if _decided(params, monitoring, permuted, doubled) is None:
            tally["band"] += 1
            return
        _assert_same_decision(params, monitoring, permuted)
        _assert_same_decision(params, monitoring, doubled)

    check()
    assert tally["band"] <= tally["cells"] // 10, tally
