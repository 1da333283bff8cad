import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from replab import (
    GameParams,
    MonitoringStructure,
    binary_threshold,
    check_fei,
    construct_full_effort,
    construct_non_efe,
    fei,
    fei_oracle,
    non_efe_parameters,
    outside_option_bound,
    uniform_failure_horizon,
)
from replab.cli import _parse_range
from replab.errors import (
    FeiFails, FeiHoldsNoBound, FeiHoldsNoHorizon, ResolutionTooCoarse, ValidationError,
)


def random_instance(rng, n):
    """Informative monitoring with full support under effort."""
    while True:
        f1 = rng.dirichlet(np.ones(n))
        f0 = rng.dirichlet(np.ones(n))
        if f1.min() > 1e-3 and np.abs(f1 - f0).max() > 1e-3:
            break
    m = MonitoringStructure(
        tuple(f"s{i}" for i in range(n)), tuple(f0), tuple(f1)
    )
    params = GameParams(
        kappa=rng.uniform(0.05, 0.9),
        delta=rng.uniform(0.05, 0.95),
        pi0=0.3,
        c=0.0,
    )
    return params, m


class TestBinaryThreshold:
    def test_reference_value(self):
        t = binary_threshold(0.75, 0.2)
        assert t == pytest.approx(4.0 / 11.0, abs=1e-12)
        assert t == pytest.approx(0.2 / (0.75 - 0.25 * 0.8), abs=1e-15)

    def test_vanishing_effort_cost(self):
        assert binary_threshold(0.75, 1e-12) < 1e-11

    def test_threshold_above_one_means_never(self, binary75):
        t = binary_threshold(0.55, 0.5)
        assert t == pytest.approx(0.5 / 0.325, abs=1e-12)
        assert t > 1.0
        m = MonitoringStructure.binary(0.55)
        assert not check_fei(GameParams(0.5, 0.99, 0.3, 0.0), m).holds

    def test_domain_violations(self):
        with pytest.raises(ValueError):
            binary_threshold(0.5, 0.2)
        with pytest.raises(ValueError):
            binary_threshold(0.75, 0.0)


class TestCheckFei:
    def test_holds_at_040(self, binary75):
        cert = check_fei(GameParams(0.2, 0.4, 0.3, 0.05), binary75)
        assert cert.holds
        w = cert.witness
        assert w.s_star == ("Pass",)
        assert w.v_bar == pytest.approx(24.0 / 35.0, abs=1e-12)
        # both feasibility inequalities at the witness
        delta, kappa = 0.4, 0.2
        pk_lhs = (1 - delta) * (1 - kappa) + delta * w.f1_star * w.v_bar
        assert pk_lhs == pytest.approx(w.v_bar, abs=1e-12)
        ic_rhs = (1 - delta) + delta * w.f0_star * w.v_bar
        assert pk_lhs >= ic_rhs - 1e-12
        assert 0.0 < w.v_bar < 1 - kappa

    def test_fails_at_030(self, binary75, fail_params):
        cert = check_fei(fail_params, binary75)
        assert not cert.holds
        assert cert.refutation.horizon_T == 8
        assert 1.0 / cert.refutation.horizon_T < cert.refutation.min_gap

    def test_frontier_agrees_with_threshold(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            p = rng.uniform(0.55, 0.95)
            kappa = rng.uniform(0.05, 0.9)
            delta = rng.uniform(0.02, 0.98)
            thr = binary_threshold(p, kappa)
            if abs(delta - thr) < 1e-9:
                continue
            m = MonitoringStructure.binary(p)
            cert = check_fei(GameParams(kappa, delta, 0.3, 0.0), m)
            assert cert.holds == (delta >= thr), (p, kappa, delta, thr)

    def test_monotone_in_delta(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            params, m = random_instance(rng, int(rng.integers(2, 5)))
            d2 = rng.uniform(params.delta, 0.999)
            c1 = check_fei(params, m)
            c2 = check_fei(GameParams(params.kappa, d2, 0.3, 0.0), m)
            if c1.holds:
                assert c2.holds

    def test_rejects_invalid_inputs(self, binary75):
        with pytest.raises(ValidationError):
            check_fei(GameParams(1.5, 0.5, 0.3, 0.0), binary75)


class TestFeiOracle:
    def test_grid_agrees_on_reference_instances(self, binary75):
        assert fei_oracle(GameParams(0.2, 0.4, 0.3, 0.05), binary75, 1e-3, "grid")
        assert not fei_oracle(GameParams(0.2, 0.3, 0.3, 0.05), binary75, 1e-3, "grid")

    def test_lp_agrees_on_reference_instances(self, binary75):
        assert fei_oracle(GameParams(0.2, 0.4, 0.3, 0.05), binary75, method="lp")
        assert not fei_oracle(GameParams(0.2, 0.3, 0.3, 0.05), binary75, method="lp")

    def test_coarse_grid_near_frontier_raises(self, binary75):
        params = GameParams(0.2, 4.0 / 11.0 + 1e-6, 0.3, 0.05)
        with pytest.raises(ResolutionTooCoarse):
            fei_oracle(params, binary75, resolution=0.05, method="grid")

    def test_randomized_agreement(self):
        rng = np.random.default_rng(777)
        checked = 0
        while checked < 40:
            params, m = random_instance(rng, int(rng.integers(2, 5)))
            lp = fei_oracle(params, m, method="lp")
            auto = fei_oracle(params, m, resolution=5e-3, method="auto")
            cert = check_fei(params, m)
            assert cert.holds == lp == auto, (params, m)
            checked += 1

    def test_size_guard(self):
        m = MonitoringStructure(
            tuple(f"s{i}" for i in range(5)),
            (0.2,) * 5,
            (0.1, 0.1, 0.2, 0.3, 0.3),
        )
        with pytest.raises(ValueError):
            fei_oracle(GameParams(0.2, 0.5, 0.3, 0.0), m)


class TestUniformFailureHorizon:
    def test_tail_bound_binds_at_030(self, binary75, fail_params):
        ref = uniform_failure_horizon(fail_params, binary75)
        # gap = min(g1, g2) = min(49/300, 0.14) = 0.14 here
        assert ref.min_gap == pytest.approx(0.14, abs=1e-9)
        assert ref.horizon_T == 8

    def test_unit_box_lp_binds_at_035(self, binary75):
        # hand-derivable: v = (0, K) with K = (1-d)k/(d(2p-1)) minimizes the
        # promise-keeping gap, worth K(1 - d p) - (1-d)(1-k) = 39/1400
        ref = uniform_failure_horizon(GameParams(0.2, 0.35, 0.3, 0.05), binary75)
        assert ref.min_gap == pytest.approx(39.0 / 1400.0, abs=1e-9)
        assert ref.horizon_T == 36

    def test_gap_reproduced_by_independent_grid(self, binary75):
        # brute-force minimization over the same box, no LP involved
        delta, kappa = 0.35, 0.2
        f0 = np.array(binary75.f0)
        f1 = np.array(binary75.f1)
        v = np.linspace(0.0, 1.0, 1401)
        vf, vp = np.meshgrid(v, v, indexing="ij")
        ic = delta * ((f1[0] - f0[0]) * vf + (f1[1] - f0[1]) * vp) >= (1 - delta) * kappa - 1e-12
        gap = np.maximum(vf, vp) - (
            (1 - delta) * (1 - kappa) + delta * (f1[0] * vf + f1[1] * vp)
        )
        grid_min = gap[ic].min()
        assert grid_min == pytest.approx(39.0 / 1400.0, abs=2e-3)
        assert grid_min >= 39.0 / 1400.0 - 1e-12

    def test_gap_matches_reference_lp_randomized(self):
        # the packaged gap solve is a closed-form greedy; re-derive it here
        # with a generic LP over (v, m) as an independent route
        from scipy.optimize import linprog

        rng = np.random.default_rng(314)
        found = 0
        while found < 20:
            params, m = random_instance(rng, int(rng.integers(2, 5)))
            cert = check_fei(params, m)
            if cert.holds:
                continue
            n = len(m.signals)
            f0 = np.array(m.f0)
            f1 = np.array(m.f1)
            d, k = params.delta, params.kappa
            obj = np.concatenate([-d * f1, [1.0]])
            a_ub = np.zeros((n + 1, n + 1))
            b_ub = np.zeros(n + 1)
            for i in range(n):
                a_ub[i, i] = 1.0
                a_ub[i, n] = -1.0
            a_ub[n, :n] = -d * (f1 - f0)
            b_ub[n] = -(1 - d) * k
            res = linprog(obj, A_ub=a_ub, b_ub=b_ub,
                          bounds=[(0.0, 1.0)] * n + [(0.0, 1.0)])
            g1 = res.fun - (1 - d) * (1 - k) if res.success else np.inf
            g2 = (1 - d) * k
            assert cert.refutation.min_gap == pytest.approx(
                min(g1, g2), abs=1e-9
            )
            found += 1

    def test_definitional_recheck_randomized(self):
        rng = np.random.default_rng(99)
        found = 0
        while found < 25:
            params, m = random_instance(rng, int(rng.integers(2, 5)))
            cert = check_fei(params, m)
            if cert.holds:
                continue
            ref = uniform_failure_horizon(params, m)
            assert 1.0 / ref.horizon_T < ref.min_gap
            assert 1.0 / (ref.horizon_T - 1) >= ref.min_gap
            found += 1

    def test_horizon_is_past_the_gap_exactly(self):
        # 1/T < gap in exact arithmetic on the doubles, not only in floats, on
        # the benchmark's 525-cell phase grid and on a seeded 2-5-signal
        # sample. T need not be the least such integer: in 8 of the grid's
        # failing cells 1/(T-1) < gap holds exactly too (ROADMAP item 1)
        axes = [_parse_range(spec) for spec in ("0.60:0.90:0.05", "0.10:0.30:0.05",
                                                "0.20:0.90:0.05")]
        cases = [(GameParams(kappa, delta, 0.3, 0.05), MonitoringStructure.binary(p))
                 for p, kappa, delta in itertools.product(*axes)]
        rng = np.random.default_rng(2718)
        cases += [random_instance(rng, int(rng.integers(2, 6))) for _ in range(3000)]
        refutations = [cert.refutation for cert in itertools.starmap(check_fei, cases)
                       if not cert.holds]
        assert len(refutations) > 1000
        for ref in refutations:
            assert Fraction(1, ref.horizon_T) < Fraction(ref.min_gap)

    def test_strictness_guard_steps_past_a_float_edge(self, monkeypatch, binary75,
                                                      fail_params):
        # 1 / (1/93) rounds below 93, so floor(1/gap) + 1 is 93, but 1/93 is not
        # below the gap: the guard must move the horizon on to 94
        gap = 1.0 / 93.0
        assert math.floor(1.0 / gap) + 1 == 93 and 1.0 / 93 >= gap
        monkeypatch.setattr(fei, "_min_gap_unit_box", lambda *_: gap)
        fei.check_fei.cache_clear()  # a kept answer for this cell predates the patch
        ref = uniform_failure_horizon(fail_params, binary75)
        assert ref.min_gap == gap
        assert ref.horizon_T == 94 and 1.0 / ref.horizon_T < gap

    def test_raises_when_fei_holds(self, binary75, ref_params):
        with pytest.raises(FeiHoldsNoHorizon):
            uniform_failure_horizon(ref_params, binary75)


class TestDecidedWhereUsed:
    """The constructions and the ceiling decide FEI from their own
    (params, monitoring); check_fei keeps only its last answer."""

    def test_undecided_cell_is_not_kept(self):
        # one ulp from the full-effort frontier: raised each time, never kept
        params = GameParams(0.21043439909162676, 0.2612542990737442, 0.3, 0.0)
        monitoring = MonitoringStructure.binary(0.8913017037078852)
        check_fei.cache_clear()
        for _ in range(2):
            with pytest.raises(ResolutionTooCoarse):
                check_fei(params, monitoring)
        assert check_fei.cache_info().misses == 2

    def test_no_stale_decision_is_used(self, ref_params, fail_params, binary75):
        check_fei(ref_params, binary75)
        with pytest.raises(FeiFails):
            construct_full_effort(fail_params, binary75)
        check_fei(ref_params, binary75)
        with pytest.raises(FeiFails):
            construct_non_efe(fail_params, binary75)
        check_fei(fail_params, binary75)
        with pytest.raises(FeiHoldsNoBound):
            outside_option_bound(ref_params, binary75)

    @pytest.mark.parametrize("func", [
        construct_full_effort, non_efe_parameters, construct_non_efe, outside_option_bound,
    ])
    def test_no_certificate_parameter(self, func, ref_params, binary75):
        with pytest.raises(TypeError):
            func(ref_params, binary75, cert=check_fei(ref_params, binary75))
