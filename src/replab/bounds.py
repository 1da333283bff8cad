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

from dataclasses import dataclass, replace
from itertools import product

from . import fei
from .errors import FeiHoldsNoBound, ReplabError
from .model import GameParams, MonitoringStructure, _bisect, belief_growth_bound

G_RISE_TOL = 1e-12  # relative rise in g that bound_sweep calls a fault; rounding gives < 1e-15


@dataclass(frozen=True)
class OutsideOptionBound:
    horizon_T: int
    eta_star: float
    bound_value: float  # c + g(eta_star)
    g_value: float      # g(eta_star)


def minimize_g(pi0: float, horizon_T: int) -> tuple[float, float]:
    """(eta_star, g(eta_star)). g'(eta) = 0 reduces to the root of
    h(eta) = eta^(T+1) + (T+1) q eta - T q, q = pi0/(1-pi0), on (0, 1);
    h(0) < 0 < h(1) and h' > 0, so ``_bisect`` closes on it to two adjacent
    doubles, and eta_star is their rounded midpoint, one of the two. At a huge
    T the root lies within rounding of 1 and that midpoint can be 1.0;
    eta_star is then the lower end, the largest double below 1, so
    eta_star < 1 and c + g(eta_star) <= c + 1 is still a ceiling."""
    q = pi0 / (1.0 - pi0)
    t = horizon_T
    lo, hi = _bisect(lambda eta: eta ** (t + 1) + (t + 1) * q * eta - t * q >= 0.0,
                     0.0, 1.0, 0.0)
    eta_star = 0.5 * (lo + hi)
    if eta_star == 1.0:
        eta_star = lo
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
    return OutsideOptionBound(horizon_T=horizon_T, eta_star=eta_star,
                              bound_value=params.c + g_min, g_value=g_min)


def bound_sweep(
    params: GameParams,
    monitoring: MonitoringStructure,
    pi0_grid: list[float],
    c_grid: list[float],
) -> list[dict]:
    """Bound table over a (pi0, c) grid for fixed (kappa, delta, monitoring).

    Sanity-checks the comparative statics the closed form guarantees:
    the bound weakly falls as pi0 falls (at fixed c), up to a relative
    ``G_RISE_TOL`` for rounding in :func:`minimize_g`, and moves exactly
    additively in c.
    """
    for pi0, c in [*product(pi0_grid[:1], c_grid), *product(pi0_grid, c_grid[:1])]:
        GameParams(params.kappa, params.delta, pi0, c)  # refuses the grid's first invalid cell
    by_pi0 = {
        pi0: outside_option_bound(replace(params, pi0=pi0, c=0.0), monitoring)
        for pi0 in pi0_grid
    }
    ordered = sorted(pi0_grid, reverse=True)
    for hi, lo in zip(ordered, ordered[1:]):
        if by_pi0[lo].g_value > by_pi0[hi].g_value * (1.0 + G_RISE_TOL):
            raise ReplabError(f"bound rose as pi0 fell from {hi!r} to {lo!r}")

    return [
        {"pi0": pi0, "c": c, "T": by_pi0[pi0].horizon_T, "eta_star": by_pi0[pi0].eta_star,
         "bound": c + by_pi0[pi0].g_value}
        for pi0 in pi0_grid for c in c_grid
    ]
