"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts. Expected values marked as frozen
were recomputed by independent oracles (brute-force grids, quadratic
roots, exact fractions, stationarity conditions) before the implementation
was written.

Criterion 7's target level 0.05 for the outside-option ceiling is
asserted at pi0 = 3e-14, not at the 3e-9 first set for it: no valid
failure horizon reaches 0.05 at 3e-9 (the sharpest, T = 7, gives 0.123),
and 3e-14 is where the closed-form envelope of the ceiling drops below
0.05 for the package's T = 8. The argument is in that test's docstring.
"""
import dataclasses
import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq, linprog

from replab import (
    GameParams,
    MonitoringStructure,
    SimulationConfig,
    analytic_long_run_effort,
    bayes_update,
    belief_growth_bound,
    binary_threshold,
    check_fei,
    construct_full_effort,
    construct_non_efe,
    fei_oracle,
    iterated_max_update,
    martingale_diagnostic,
    max_update,
    simulate,
    verify,
)
from replab.bounds import minimize_g, outside_option_bound
from replab.equilibria import REGIME_FIRST, REGIME_SECOND

BINARY = MonitoringStructure.binary(0.75)
REF = GameParams(kappa=0.2, delta=0.5, pi0=0.3, c=0.05)
FAIL = GameParams(kappa=0.2, delta=0.3, pi0=0.3, c=0.05)


def report(criterion: int, message: str) -> None:
    print(f"[criterion {criterion}] PASS - {message}")


def min_slack_lp(params, monitoring):
    """Signed distance to the feasibility frontier: max over v in [0,1]^S of
    the minimum (IC, PK) slack. Independent of the package's reduction."""
    f0 = np.asarray(monitoring.f0)
    f1 = np.asarray(monitoring.f1)
    n = len(monitoring.signals)
    kappa, delta = params.kappa, params.delta
    obj = np.zeros(n + 1)
    obj[n] = -1.0
    rows, rhs = [], []
    for i in range(n):
        row = -delta * f1.copy()
        row[i] += 1.0
        rows.append(np.concatenate([row, [1.0]]))
        rhs.append((1 - delta) * (1 - kappa))
    rows.append(np.concatenate([-delta * (f1 - f0), [1.0]]))
    rhs.append(-(1 - delta) * kappa)
    res = linprog(obj, A_ub=np.array(rows), b_ub=np.array(rhs),
                  bounds=[(0.0, 1.0)] * n + [(None, None)])
    assert res.success
    return float(-res.fun)


def test_criterion_1_fei_frontier():
    start = time.perf_counter()
    assert check_fei(GameParams(0.2, 0.40, 0.3, 0.05), BINARY).holds
    assert not check_fei(GameParams(0.2, 0.30, 0.3, 0.05), BINARY).holds
    elapsed = (time.perf_counter() - start) / 2
    thr = binary_threshold(0.75, 0.2)
    assert thr == pytest.approx(4.0 / 11.0, abs=1e-12)
    assert thr == pytest.approx(0.2 / (0.75 - 0.25 * (1 - 0.2)), abs=1e-12)
    assert elapsed < 1e-3
    report(1, f"frontier at 4/11, checks in {elapsed * 1e6:.0f} us each")


def test_criterion_2_oracle_agreement():
    start = time.perf_counter()
    rng = np.random.default_rng(20250810)
    agreements = 0
    while agreements < 200:
        n = int(rng.integers(2, 5))
        f1 = rng.dirichlet(np.ones(n))
        f0 = rng.dirichlet(np.ones(n))
        if f1.min() <= 1e-3 or np.abs(f1 - f0).max() <= 1e-3:
            continue
        m = MonitoringStructure(tuple(f"s{i}" for i in range(n)), tuple(f0), tuple(f1))
        params = GameParams(rng.uniform(0.05, 0.9), rng.uniform(0.05, 0.95), 0.3, 0.0)
        if abs(min_slack_lp(params, m)) < 1e-9:  # frontier band excluded
            continue
        assert check_fei(params, m).holds == fei_oracle(
            params, m, resolution=5e-3, method="auto"
        )
        agreements += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(2, f"200/200 agreement in {elapsed:.1f} s")


def test_criterion_3_non_efe_closed_forms():
    _, nep = construct_non_efe(REF, BINARY)
    assert nep.v_bar == pytest.approx(0.64, abs=1e-9)
    assert nep.v_tilde == pytest.approx(0.24, abs=1e-9)
    assert nep.v_hat == pytest.approx(0.67, abs=1e-9)
    assert nep.x == pytest.approx(0.6417910447761194, abs=1e-9)  # 43/67
    work = (1 - 0.5) * (1 - 0.2) + 0.5 * (
        nep.f1_star * nep.v_bar + (1 - nep.f1_star) * nep.v_tilde
    )
    shirk = (1 - 0.5) + 0.5 * (
        nep.f0_star * nep.v_bar + (1 - nep.f0_star) * nep.v_tilde
    )
    assert work == pytest.approx(nep.v_hat, abs=1e-12)
    assert shirk == pytest.approx(nep.v_hat, abs=1e-12)
    report(3, "v_bar/v_tilde/v_hat/x match the frozen closed forms")


def test_criterion_4_verifier_soundness():
    start = time.perf_counter()
    fe = construct_full_effort(REF, BINARY)
    bad, _ = construct_non_efe(REF, BINARY)
    assert verify(fe, REF, BINARY, tol=1e-8).passed
    assert verify(bad, REF, BINARY, tol=1e-8).passed

    def patched(auto, sid, **fields):
        changed = {}
        for name, value in fields.items():
            changed[name] = getattr(auto, name).copy()
            changed[name][sid] = value
        return dataclasses.replace(auto, **changed)

    regime = bad.regime
    first = int(np.flatnonzero(regime == REGIME_FIRST)[0])
    second = int(np.flatnonzero(regime == REGIME_SECOND)[0])
    x_perturbed = np.where(regime == REGIME_FIRST, bad.replace_prob * 1.05, bad.replace_prob)
    rewired = bad.next_state.copy()
    rewired[first, bad.signals.index("Pass")] = first
    mutations = [
        ("sigma_P at a first-regime state", "voter_ic",
         patched(bad, first, effort_prob=bad.effort_prob[first] + 0.05)),
        ("sigma_V at a first-regime state", "politician_ic",
         patched(bad, first, replace_prob=bad.replace_prob[first] + 0.02)),
        ("belief at a second-regime state", "bayes",
         patched(bad, second, belief=bad.belief[second] + 0.03)),
        ("transition rewiring", "politician_ic",
         dataclasses.replace(bad, next_state=rewired)),
        ("global x perturbation", "politician_ic",
         dataclasses.replace(bad, replace_prob=x_perturbed)),
        ("a0 perturbation at the initial state", "voter_ic",
         patched(bad, bad.initial, effort_prob=bad.effort_prob[bad.initial] + 0.05)),
    ]
    for name, category, corrupted in mutations:
        rep = verify(corrupted, REF, BINARY, tol=1e-8)
        assert not rep.passed, name
        assert any(o.category == category for o in rep.offenders), (
            f"{name}: expected a {category} offender, got "
            f"{[o.category for o in rep.offenders[:5]]}"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(4, f"constructions certified, 6/6 mutations rejected in {elapsed:.1f} s")


def test_criterion_5_simulation_vs_analytic_oracle():
    start = time.perf_counter()
    bad, _ = construct_non_efe(REF, BINARY)
    analytic = analytic_long_run_effort(bad, REF, BINARY)
    assert analytic.method == "lumped"
    # frozen pre-build oracle value (exact fractions at a0 = 9/14): 4289/4630
    assert analytic.value == pytest.approx(4289.0 / 4630.0, abs=1e-9)
    assert analytic.value == pytest.approx(0.9264, abs=2e-4)
    stats = simulate(bad, REF, BINARY,
                     SimulationConfig(horizon=500, paths=100_000,
                                      master_seed=20250810))
    z = (stats.long_run_effort - analytic.value) / stats.long_run_se
    assert abs(z) <= 3.0
    assert (1.0 - stats.long_run_effort) / stats.long_run_se > 10.0
    assert abs(martingale_diagnostic(stats)) <= 3.0
    assert stats.favorable_total > 0
    assert stats.first_politician_survival[200] < 1e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(
        5,
        f"effort {stats.long_run_effort:.6f} vs {analytic.value:.6f} "
        f"(|z|={abs(z):.2f}), martingale z={martingale_diagnostic(stats):.2f}, "
        f"{stats.favorable_total} favorable replacements, {elapsed:.1f} s",
    )


def test_criterion_6_full_effort_invariants():
    fe = construct_full_effort(REF, BINARY)
    stats = simulate(fe, REF, BINARY,
                     SimulationConfig(horizon=400, paths=20_000, master_seed=4))
    assert np.all(stats.mean_effort == 1.0)
    assert stats.favorable_total == 0
    assert np.all(stats.favorable_replacements == 0)
    report(6, "simulated effort identically 1, favorable replacements identically 0")


def test_criterion_7_outside_option_bound_below_one_and_monotone():
    start = time.perf_counter()
    result = outside_option_bound(FAIL, BINARY)
    c_bar = 1.0 - minimize_g(FAIL.pi0, result.horizon_T)[1]
    for c in (0.0, 0.5 * c_bar, 0.99 * c_bar):
        capped = outside_option_bound(
            GameParams(FAIL.kappa, FAIL.delta, FAIL.pi0, c), BINARY
        )
        assert capped.bound_value < 1.0
    values = []
    for k in range(1, 10):
        params = GameParams(FAIL.kappa, FAIL.delta, 3.0 * 10.0**-k, 0.0)
        values.append(outside_option_bound(params, BINARY).bound_value)
    assert all(a > b for a, b in zip(values, values[1:]))
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(7, f"bound < 1 below the threshold, sweep strictly decreasing "
              f"({values[0]:.4f} .. {values[-1]:.4f}) in {elapsed:.1f} s")


def sharp_failure_gap(params, monitoring):
    """Exact promise-keeping gap over IC vectors v >= 0, with no upper
    bound on v: min over (v, M) of M - [(1-delta)(1-kappa) + delta f1.v]
    subject to v(s) <= M and the IC constraint. Independent of the
    package's unit-box reduction and its tail term."""
    f0 = np.asarray(monitoring.f0)
    f1 = np.asarray(monitoring.f1)
    n = len(monitoring.signals)
    kappa, delta = params.kappa, params.delta
    obj = np.concatenate([-delta * f1, [1.0]])
    rows = [np.concatenate([np.eye(n)[i], [-1.0]]) for i in range(n)]
    rhs = [0.0] * n
    rows.append(np.concatenate([-delta * (f1 - f0), [0.0]]))
    rhs.append(-(1 - delta) * kappa)
    res = linprog(obj, A_ub=np.array(rows), b_ub=np.array(rhs),
                  bounds=[(0.0, None)] * n + [(None, None)])
    assert res.success
    return float(res.fun) - (1 - delta) * (1 - kappa)


def min_g_by_stationarity(pi0, horizon_T):
    """min over eta of g, at the root of eta^(T+1) + (T+1) q eta - T q = 0
    with q = pi0/(1-pi0), the stationarity condition of g."""
    q = pi0 / (1.0 - pi0)
    t = horizon_T
    eta = brentq(lambda e: e ** (t + 1) + (t + 1) * q * e - t * q,
                 0.0, 1.0, xtol=1e-15)
    return (q + eta ** (t + 1)) / (q + eta**t)


def vanishing_envelope(pi0, horizon_T):
    """(T+1) T^(-T/(T+1)) q^(1/(T+1)): the value at eta0 = (Tq)^(1/(T+1))
    of q/eta^T + eta, which bounds g(eta) from above."""
    q = pi0 / (1.0 - pi0)
    t = horizon_T
    return (t + 1) * t ** (-t / (t + 1)) * q ** (1 / (t + 1))


def test_criterion_7_vanishing_bound_reaches_005():
    """The outside-option ceiling vanishes as pi0 -> 0 and reaches 0.05.

    The level 0.05 cannot be reached at pi0 = 3e-9, the prior first set
    for it. The promise-keeping gap over incentive-compatible vectors
    v >= 0 is exactly 49/300, attained at v = (0, 14/15), so 1/T < 49/300
    forces T >= 7. min_eta g rises with T, and at T = 7 it is 0.123 at
    3e-9 (the package's conservative T = 8 gives 0.157); 0.05 there would
    need T <= 4. What the closed form does give is the rate: since
    g(eta) <= q/eta^T + eta, evaluating at eta0 = (Tq)^(1/(T+1)) yields
    min_eta g <= (T+1) T^(-T/(T+1)) q^(1/(T+1)). For T = 8 that envelope
    falls below 0.05 once q <= (0.05 * 8^(8/9) / 9)^9, about 8.46e-14,
    so the level is asserted at pi0 = 3e-14.
    """
    target, old_pi0, reach_pi0 = 0.05, 3e-9, 3e-14
    gap = sharp_failure_gap(FAIL, BINARY)
    assert gap == pytest.approx(49.0 / 300.0, abs=1e-9)
    t_min = math.floor(1.0 / gap) + 1
    assert t_min == 7

    # (a) the package's horizon is a valid one
    horizon_T = outside_option_bound(FAIL, BINARY).horizon_T
    assert horizon_T >= t_min

    # (b) no valid horizon reaches the target at the old prior
    assert min_g_by_stationarity(old_pi0, t_min) > target

    # (c) the ceiling vanishes at least at the closed-form rate
    for k in range(1, 15):
        pi0 = 3.0 * 10.0**-k
        result = outside_option_bound(
            GameParams(FAIL.kappa, FAIL.delta, pi0, 0.0), BINARY
        )
        assert result.bound_value <= vanishing_envelope(pi0, result.horizon_T), pi0

    # (d) the envelope, and so the ceiling, is below the target at reach_pi0
    assert vanishing_envelope(reach_pi0, horizon_T) <= target
    reached = outside_option_bound(
        GameParams(FAIL.kappa, FAIL.delta, reach_pi0, 0.0), BINARY
    )
    assert reached.bound_value <= target
    report(7, f"valid T={horizon_T} >= {t_min}, ceiling under the "
              f"pi0^(1/(T+1)) envelope, {reached.bound_value:.4f} <= {target} "
              f"at pi0={reach_pi0:g}")


def test_criterion_8_belief_operator_properties():
    rng = np.random.default_rng(8)
    # martingale identity, exact to 1e-12, over random instances
    pool = [BINARY]
    for _ in range(19):
        n = int(rng.integers(2, 5))
        f1 = rng.dirichlet(np.ones(n))
        f0 = rng.dirichlet(np.ones(n))
        if f1.min() <= 1e-3:
            continue
        pool.append(
            MonitoringStructure(tuple(f"s{i}" for i in range(n)), tuple(f0), tuple(f1))
        )
    for _ in range(10_000):
        m = pool[int(rng.integers(0, len(pool)))]
        pi = rng.uniform(1e-3, 1.0)
        a = rng.uniform(0.0, 1.0)
        law = m.mixture(pi + (1 - pi) * a)
        total = sum(law[i] * bayes_update(m, pi, a, s) for i, s in enumerate(m.signals))
        assert abs(total - pi) <= 1e-12

    # growth-bound inequality and t-monotonicity, zero violations
    for _ in range(10_000):
        pi = rng.uniform(1e-3, 1 - 1e-3)
        eta = rng.uniform(1e-3, 1 - 1e-3)
        t = int(rng.integers(0, 51))
        b = iterated_max_update(BINARY, pi, eta, t)
        bound = belief_growth_bound(pi, eta, t)
        assert b + (1 - b) * eta <= bound + 1e-12
        assert belief_growth_bound(pi, eta, t + 1) >= bound - 1e-15

    # closed-form one-step ceiling vs brute-force grid max
    a_grid = np.linspace(0.0, 1.0, 10_001)
    f0 = np.array(BINARY.f0)
    f1 = np.array(BINARY.f1)
    for _ in range(1_000):
        pi = rng.uniform(1e-3, 1.0)
        eta = rng.uniform(0.0, 1.0)
        grid_a = eta + (1 - eta) * a_grid
        denom = (pi + (1 - pi) * grid_a)[:, None] * f1 + (
            (1 - pi) * (1 - grid_a)
        )[:, None] * f0
        grid_max = float((pi * f1 / denom).max())
        closed = max_update(BINARY, pi, eta)
        assert closed >= grid_max - 1e-12
        assert closed - grid_max <= 1e-4
    report(8, "martingale exact, growth bound violation-free, ceiling matches grid")


def test_criterion_9_determinism():
    bad, _ = construct_non_efe(REF, BINARY)
    config = SimulationConfig(horizon=200, paths=3_000, master_seed=123)
    first = simulate(bad, REF, BINARY, config).to_json()
    second = simulate(bad, REF, BINARY, config).to_json()
    assert first.encode() == second.encode()
    report(9, "repeated runs byte-identical")
