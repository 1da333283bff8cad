"""Closed-form ceiling on the voters' outside option when incentives fail.

When full-effort incentives fail with uniform-failure horizon T, every
equilibrium's outside option (expected effort from a newly installed
incumbent) lies below

    c + inf_{eta in (0,1)} g(eta),
    g(eta) = (pi0 + (1-pi0) eta^(T+1)) / (pi0 + (1-pi0) eta^T).

g tends to 1 at both ends of (0,1) and has a unique interior minimum, at
the root of its stationarity condition (see :func:`minimize_g`). The
horizon produced by the fei module is conservative (possibly larger than
necessary); g's minimum increases with T, so the emitted value remains a
valid upper bound. T is surfaced in all outputs
so callers can substitute a sharper horizon.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import fei
from .errors import FeiHoldsNoBound, ReplabError
from .model import GameParams, MonitoringStructure, belief_growth_bound


@dataclass(frozen=True)
class OutsideOptionBound:
    horizon_T: int
    eta_star: float
    bound_value: float  # c + g(eta_star)
    g_value: float      # g(eta_star)

    def to_dict(self) -> dict:
        return {
            "horizon_T": self.horizon_T,
            "eta_star": self.eta_star,
            "bound_value": self.bound_value,
            "g_value": self.g_value,
        }


def minimize_g(pi0: float, horizon_T: int) -> tuple[float, float]:
    """(eta_star, g(eta_star)). g'(eta) = 0 reduces to the root of
    h(eta) = eta^(T+1) + (T+1) q eta - T q, q = pi0/(1-pi0), on (0, 1);
    h(0) < 0 < h(1) and h' > 0, so bisection finds it to the last bit."""
    q = pi0 / (1.0 - pi0)
    t = horizon_T
    lo, hi = 0.0, 1.0
    while True:
        eta_star = 0.5 * (lo + hi)
        if eta_star in (lo, hi):
            break
        if eta_star ** (t + 1) + (t + 1) * q * eta_star - t * q < 0.0:
            lo = eta_star
        else:
            hi = eta_star
    return eta_star, belief_growth_bound(pi0, eta_star, horizon_T)


def outside_option_bound(
    params: GameParams, monitoring: MonitoringStructure
) -> OutsideOptionBound:
    """Upper bound c + min_eta g(eta) on the outside option; requires the
    full-effort-incentive check to fail."""
    cert = fei.check_fei(params, monitoring)
    if cert.holds:
        raise FeiHoldsNoBound("full-effort incentives hold; the ceiling does not apply")
    horizon_T = cert.refutation.horizon_T
    eta_star, g_min = minimize_g(params.pi0, horizon_T)
    return OutsideOptionBound(
        horizon_T=horizon_T,
        eta_star=eta_star,
        bound_value=params.c + g_min,
        g_value=g_min,
    )


def bound_sweep(
    params: GameParams,
    monitoring: MonitoringStructure,
    pi0_grid: list[float],
    c_grid: list[float],
) -> list[dict]:
    """Bound table over a (pi0, c) grid for fixed (kappa, delta, monitoring).

    Sanity-checks the comparative statics the closed form guarantees:
    the bound weakly falls as pi0 falls (at fixed c) and moves exactly
    additively in c.
    """
    for pi0 in pi0_grid:
        for c in c_grid:
            GameParams(params.kappa, params.delta, pi0, c)  # refuses an invalid cell
    cert = fei.check_fei(params, monitoring)
    if cert.holds:
        raise FeiHoldsNoBound("full-effort incentives hold; the ceiling does not apply")
    horizon_T = cert.refutation.horizon_T

    g_by_pi0 = {}
    for pi0 in pi0_grid:
        eta_star, g_min = minimize_g(pi0, horizon_T)
        g_by_pi0[pi0] = (eta_star, g_min)
    ordered = sorted(pi0_grid, reverse=True)
    for hi, lo in zip(ordered, ordered[1:]):
        if g_by_pi0[hi][1] < g_by_pi0[lo][1]:
            raise ReplabError(f"bound rose as pi0 fell from {hi!r} to {lo!r}")

    rows = []
    for pi0 in pi0_grid:
        eta_star, g_min = g_by_pi0[pi0]
        for c in c_grid:
            rows.append(
                {
                    "pi0": pi0,
                    "c": c,
                    "T": horizon_T,
                    "eta_star": eta_star,
                    "bound": c + g_min,
                }
            )
    return rows
