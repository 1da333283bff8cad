import itertools
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from replab import (
    GameParams, MonitoringStructure, belief_growth_bound, bound_sweep, outside_option_bound,
)
from replab import bounds
from replab.bounds import minimize_g
from replab.errors import FeiHoldsNoBound, ReplabError, ValidationError


def eta_star_by_stationarity(pi0: float, horizon_T: int) -> float:
    """Independent minimizer: root of d/d_eta g = 0, which reduces to
    eta^(T+1) + (T+1) q eta - T q = 0 with q = pi0/(1-pi0)."""
    q = pi0 / (1.0 - pi0)
    t = horizon_T

    def f(eta):
        return eta ** (t + 1) + (t + 1) * q * eta - t * q

    return brentq(f, 1e-15, 1.0 - 1e-15, xtol=1e-14)


class TestOutsideOptionBound:
    def test_reference_failing_instance(self, fail_params, binary75):
        result = outside_option_bound(fail_params, binary75)
        assert result.horizon_T == 8
        ref_eta = eta_star_by_stationarity(0.3, 8)
        # the minimizer is a simple root of the stationarity condition, so
        # its location is pinned as tightly as the oracle's own root
        assert result.eta_star == pytest.approx(ref_eta, abs=1e-10)
        assert result.g_value == pytest.approx(belief_growth_bound(0.3, ref_eta, 8), abs=1e-12)
        assert result.bound_value == pytest.approx(0.05 + result.g_value, abs=1e-15)
        assert result.bound_value == pytest.approx(0.9913494616, abs=1e-7)
        assert result.bound_value < 1.0

    def test_small_prior_zero_cost(self, binary75):
        params = GameParams(0.2, 0.3, 1e-9, 0.0)
        result = outside_option_bound(params, binary75)
        ref_eta = eta_star_by_stationarity(1e-9, 8)
        assert result.eta_star == pytest.approx(ref_eta, rel=1e-6)
        assert result.bound_value == pytest.approx(belief_growth_bound(1e-9, ref_eta, 8), rel=1e-9)
        # pinned figures for this instance (T = 8)
        assert result.eta_star == pytest.approx(0.123908, abs=1e-5)
        assert result.bound_value == pytest.approx(0.1393964, abs=1e-6)

    def test_minimum_beats_random_draws(self, fail_params, binary75):
        result = outside_option_bound(fail_params, binary75)
        rng = np.random.default_rng(31)
        for eta in rng.uniform(1e-9, 1 - 1e-9, size=1000):
            assert result.g_value <= belief_growth_bound(0.3, eta, result.horizon_T) + 1e-12

    def test_interior_minimum(self, fail_params, binary75):
        result = outside_option_bound(fail_params, binary75)
        assert 0.0 < result.eta_star < 1.0
        assert belief_growth_bound(0.3, 1e-9, 8) > result.g_value
        assert belief_growth_bound(0.3, 1 - 1e-9, 8) > result.g_value

    def test_rejected_when_fei_holds(self, ref_params, binary75):
        with pytest.raises(FeiHoldsNoBound):
            outside_option_bound(ref_params, binary75)

    def test_relaxed_validation_allows_large_c(self, binary75):
        # the ceiling is meaningful even where c >= min(pi0, 1-pi0)
        params = GameParams(0.2, 0.3, 1e-6, 0.05)
        result = outside_option_bound(params, binary75)
        assert result.bound_value == pytest.approx(0.05 + result.g_value, abs=1e-15)


@pytest.mark.parametrize("horizon_T", [2, 3, 7, 8, 20, 100])
def test_minimize_g_matches_stationarity_root(horizon_T):
    for pi0 in [3.0 * 10.0**-k for k in range(1, 15)] + [0.3, 0.5, 0.9, 0.999]:
        eta_star, g_min = minimize_g(pi0, horizon_T)
        ref_eta = eta_star_by_stationarity(pi0, horizon_T)
        assert eta_star == pytest.approx(ref_eta, rel=1e-10)
        assert g_min == pytest.approx(belief_growth_bound(pi0, ref_eta, horizon_T), rel=1e-15)


def test_minimize_g_stays_inside_the_unit_interval_at_a_huge_horizon():
    # the stationarity root lies within rounding of 1, so the bracket's
    # midpoint rounds to 1.0; the bracket's lower end is returned instead
    eta_star, g_min = minimize_g(0.3, 14_411_518_807_585_590)
    assert 0.0 < eta_star < 1.0
    assert g_min == belief_growth_bound(0.3, eta_star, 14_411_518_807_585_590) <= 1.0


def _h(pi0: float, horizon_T: int, eta: float) -> float:
    q = pi0 / (1.0 - pi0)
    return eta ** (horizon_T + 1) + (horizon_T + 1) * q * eta - horizon_T * q


def test_eta_star_sits_on_the_sign_change_to_the_last_bit():
    # eta_star and one neighbouring double straddle the sign change of h; at the
    # huge-T fallback eta_star is the largest double below 1, and its upper neighbour 1.0
    rng = np.random.default_rng(2029)
    cases = [(float(10.0 ** rng.uniform(-12, -1e-9)), int(10.0 ** rng.uniform(0, 17.2)))
             for _ in range(2000)]
    cases += [(pi0, 14_411_518_807_585_590) for pi0 in (1e-9, 0.3, 0.999999)]
    for pi0, horizon_T in cases:
        eta_star = minimize_g(pi0, horizon_T)[0]
        below, above = math.nextafter(eta_star, 0.0), math.nextafter(eta_star, 1.0)
        assert 0.0 < eta_star < 1.0
        assert (_h(pi0, horizon_T, below) < 0.0 <= _h(pi0, horizon_T, eta_star)
                or _h(pi0, horizon_T, eta_star) < 0.0 <= _h(pi0, horizon_T, above))


class TestBoundSweep:
    def test_pi0_column_strictly_decreasing(self, fail_params, binary75):
        grid = [3.0 * 10.0**-k for k in range(1, 10)]
        rows = bound_sweep(fail_params, binary75, grid, [0.0])
        bounds = [r["bound"] for r in rows]
        assert all(b1 > b2 for b1, b2 in zip(bounds, bounds[1:]))
        assert all(r["bound"] < 1.0 for r in rows)

    def test_additive_in_c(self, fail_params, binary75):
        rows = bound_sweep(fail_params, binary75, [0.3], [0.0, 0.02, 0.05])
        base = rows[0]["bound"]
        assert rows[1]["bound"] == pytest.approx(base + 0.02, abs=1e-12)
        assert rows[2]["bound"] == pytest.approx(base + 0.05, abs=1e-12)
        assert len({r["eta_star"] for r in rows}) == 1

    def test_below_one_plus_c_everywhere(self, fail_params, binary75):
        rows = bound_sweep(fail_params, binary75, [0.3, 0.03], [0.0, 0.5, 0.9])
        for r in rows:
            assert r["bound"] < 1.0 + r["c"]

    def test_threshold_cost_separates_from_one(self, fail_params, binary75):
        g_min = minimize_g(0.3, 8)[1]
        c_bar = 1.0 - g_min
        below = bound_sweep(fail_params, binary75, [0.3], [0.99 * c_bar])[0]
        above = bound_sweep(fail_params, binary75, [0.3], [1.01 * c_bar])[0]
        assert below["bound"] < 1.0
        assert above["bound"] >= 1.0

    @pytest.mark.parametrize("pi0_grid, c_grid", [
        ([0.3, 5.0], [0.0]), ([0.3], [0.0, -1.0]), ([5.0, 0.3], [-1.0, 0.0]),
        ([0.3, 0.03, math.nan], [0.0, 0.05]), ([0.3, 0.03], [0.0, math.inf, -2.0]),
        ([math.inf], [math.nan]), ([0.3, 0.0], [0.05, -math.inf]), ([0.3, 0.1], [0.0, -1.0]),
    ])
    def test_every_cell_is_validated(self, fail_params, binary75, pi0_grid, c_grid):
        # refused as the first invalid cell in grid order (pi0 outer) is on its own
        def refusal(pi0, c):
            try:
                GameParams(fail_params.kappa, fail_params.delta, pi0, c)
            except ValidationError as exc:
                return str(exc)

        cells = itertools.product(pi0_grid, c_grid)
        first = next(filter(None, itertools.starmap(refusal, cells)))
        with pytest.raises(ValidationError) as refused:
            bound_sweep(fail_params, binary75, pi0_grid, c_grid)
        assert str(refused.value) == first

    def test_comparative_statics_violation_is_raised(self, fail_params, binary75, monkeypatch):
        # checked with a raised error, which survives python -O
        monkeypatch.setattr(bounds, "minimize_g", lambda pi0, horizon_T: (0.5, -pi0))
        with pytest.raises(ReplabError):
            bound_sweep(fail_params, binary75, [0.3, 0.03], [0.0])

    def test_vanishes_along_joint_path(self, binary75):
        # bound -> 0 monotonically as (c, pi0) -> (0, 0) jointly
        values = []
        for k in range(2, 8):
            params = GameParams(0.2, 0.3, 10.0**-k, 10.0**-k)
            values.append(outside_option_bound(params, binary75).bound_value)
        assert all(v1 > v2 for v1, v2 in zip(values, values[1:]))
        assert values[-1] < 0.25
