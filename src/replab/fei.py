"""Decide whether full-effort incentives are feasible, with certificates.

Full-effort incentives (FEI) hold when some nonnegative continuation-value
vector v over signals satisfies both

    IC:  (1-delta)(1-kappa) + delta f1.v  >=  (1-delta) + delta f0.v
    PK:  (1-delta)(1-kappa) + delta f1.v  >=  max_s v(s)

The search reduces to likelihood-ratio cutoff tests: it is enough to try
two-valued vectors v(s) in {0, v_bar} where the passing set S* collects
the signals with the smallest ratios f0(s)/f1(s), contains every signal
with f0 <= f1, and excludes at least one signal. Imposing PK with equality
pins v_bar = (1-delta)(1-kappa) / (1 - delta f1*), and feasibility of a
candidate reduces to (1-kappa)(1 - delta f0*) >= 1 - delta f1*.

When FEI fails it fails uniformly: there is a positive lower bound on the
promise-keeping gap of every IC-satisfying vector, and hence an integer
horizon T with 1/T below that gap. The gap is the minimum of a small
linear program over [0,1]^S and the tail bound (1-delta) kappa covering
vectors with max >= 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    FeiHoldsNoHorizon,
    ResolutionTooCoarse,
    ThresholdUndefined,
)
from .model import GameParams, MonitoringStructure


def cutoff_to_dict(cutoff) -> dict:
    """The fields of a dataclass holding a cutoff test (``lam`` and
    ``s_star`` among them) as JSON: ``lam`` written as "lambda", ``s_star``
    as a list."""
    out = {"lambda": cutoff.lam, **vars(cutoff), "s_star": list(cutoff.s_star)}
    del out["lam"]
    return out


@dataclass(frozen=True)
class FeiWitness:
    """A feasible cutoff test: pass exactly the signals with likelihood
    ratio <= lam, reward them with continuation value v_bar."""

    lam: float
    s_star: tuple[str, ...]
    f1_star: float
    f0_star: float
    v_bar: float
    slack: float

    def to_dict(self) -> dict:
        return cutoff_to_dict(self)


@dataclass(frozen=True)
class FeiRefutation:
    """Uniform failure: every IC vector's promise-keeping gap exceeds
    min_gap > 1/horizon_T."""

    min_gap: float
    horizon_T: int

    def to_dict(self) -> dict:
        return dict(vars(self))


@dataclass(frozen=True)
class FeiCertificate:
    holds: bool
    witness: Optional[FeiWitness] = None
    refutation: Optional[FeiRefutation] = None

    def to_dict(self) -> dict:
        out: dict = {"holds": self.holds}
        if self.witness is not None:
            out["witness"] = self.witness.to_dict()
        if self.refutation is not None:
            out["refutation"] = self.refutation.to_dict()
        return out


def _cutoff_candidates(monitoring: MonitoringStructure):
    """Yield (lam, indices) for each admissible passing set: prefixes of the
    ascending distinct-ratio order that contain all f0<=f1 signals and
    exclude at least one signal."""
    n = len(monitoring.signals)
    ratios = [monitoring.f0[i] / monitoring.f1[i] for i in range(n)]
    good_max = max(r for r in ratios if r <= 1.0)
    for lam in sorted(set(ratios)):
        if lam < good_max:
            continue
        idx = tuple(i for i in range(n) if ratios[i] <= lam)
        if len(idx) == n:
            continue
        yield lam, idx


def check_fei(params: GameParams, monitoring: MonitoringStructure) -> FeiCertificate:
    """Decide FEI by cutoff enumeration, an exact reduction whose slacks
    and gap are computed in floating point.

    Returns the witness maximizing the incentive slack
    (1-kappa)(1 - delta f0*) - (1 - delta f1*), ties broken by the smallest
    passing set; on failure, attaches the uniform-failure refutation.
    Raises :class:`ResolutionTooCoarse` when every slack is negative but
    the failure gap is not positive, which rounding allows only at the
    frontier.
    """
    kappa, delta = params.kappa, params.delta
    best: Optional[FeiWitness] = None
    for lam, idx in _cutoff_candidates(monitoring):
        f1_star = sum(monitoring.f1[i] for i in idx)
        f0_star = sum(monitoring.f0[i] for i in idx)
        slack = (1.0 - kappa) * (1.0 - delta * f0_star) - (1.0 - delta * f1_star)
        if slack < 0.0:  # weak inequalities: boundary instances count as holding
            continue
        if best is not None and (
            slack < best.slack or (slack == best.slack and len(idx) >= len(best.s_star))
        ):
            continue
        v_bar = (1.0 - delta) * (1.0 - kappa) / (1.0 - delta * f1_star)
        best = FeiWitness(
            lam=lam,
            s_star=tuple(monitoring.signals[i] for i in idx),
            f1_star=f1_star,
            f0_star=f0_star,
            v_bar=v_bar,
            slack=slack,
        )
    if best is not None:
        return FeiCertificate(holds=True, witness=best)
    gap, horizon = _failure_gap_and_horizon(params, monitoring)
    return FeiCertificate(
        holds=False, refutation=FeiRefutation(min_gap=gap, horizon_T=horizon)
    )


def _min_gap_unit_box(kappa: float, delta: float, f0, f1) -> float:
    """Exact minimum of max v - [(1-d)(1-k) + d f1.v] over IC vectors in
    [0,1]^S (infinity when the box holds no IC vector).

    For a fixed ceiling M = max v, pushing every coordinate to M maximizes
    the on-path value, and the IC constraint is cheapest to restore by
    cutting the coordinates with the largest likelihood ratios first (a
    fractional-knapsack trade). The resulting objective is piecewise linear
    in M, so the minimum sits at a breakpoint of the greedy schedule or at
    an endpoint of [M_min, 1].
    """
    demand = (1.0 - delta) * kappa / delta  # required value of (f1-f0).v
    bad = sorted(
        (
            (f0[i] / f1[i], f1[i], f0[i] - f1[i])
            for i in range(len(f1))
            if f0[i] > f1[i]
        ),
        key=lambda t: t[0],
        reverse=True,
    )
    total_rate = sum(drop for _, _, drop in bad)
    if total_rate <= 0.0 or demand > total_rate:
        return math.inf
    m_min = demand / total_rate
    candidates = {1.0, m_min}
    prefix = 0.0
    for _, _, drop in bad:
        prefix += drop
        m_k = demand / prefix
        if m_min <= m_k <= 1.0:
            candidates.add(m_k)
    best = math.inf
    for m in candidates:
        need = demand
        cost = 0.0
        for _, mass, drop in bad:
            take = min(m, need / drop)
            cost += mass * take
            need -= take * drop
            if need <= 1e-18:
                break
        value = (1.0 - delta) * m + delta * cost - (1.0 - delta) * (1.0 - kappa)
        best = min(best, value)
    return best


def _failure_gap_and_horizon(
    params: GameParams, monitoring: MonitoringStructure
) -> tuple[float, int]:
    kappa, delta = params.kappa, params.delta
    g1 = _min_gap_unit_box(kappa, delta, monitoring.f0, monitoring.f1)
    g2 = (1.0 - delta) * kappa
    gap = min(g1, g2)
    if not gap > 0.0:  # a failing decision has a positive gap, up to rounding
        raise ResolutionTooCoarse(
            "the float decision lies within rounding of the full-effort frontier: "
            f"every cutoff fails but the promise-keeping gap is {gap!r}"
        )
    horizon = math.floor(1.0 / gap) + 1  # >= 2, as gap <= (1 - delta) kappa < 1
    while 1.0 / horizon >= gap:  # strictness guard against float edges
        horizon += 1
    return gap, horizon


def uniform_failure_horizon(
    params: GameParams, monitoring: MonitoringStructure
) -> FeiRefutation:
    """Smallest safe horizon T with 1/T < min(g1, g2) when FEI fails.

    g1 minimizes the promise-keeping gap over IC vectors in the unit box
    (small LP); g2 = (1-delta) kappa covers vectors with max >= 1. Raises
    :class:`FeiHoldsNoHorizon` when FEI holds.
    """
    cert = check_fei(params, monitoring)
    if cert.holds:
        raise FeiHoldsNoHorizon("full-effort incentives hold; no failure horizon")
    return cert.refutation


def binary_threshold(p: float, kappa: float) -> float:
    """Critical discount factor for two-signal monitoring of precision p:
    FEI holds iff delta >= kappa / (p - (1-p)(1-kappa)).

    The value may exceed 1, meaning FEI fails for every delta in (0, 1).
    Raises :class:`ThresholdUndefined` when the denominator is <= 0.
    """
    if not 0.5 < p < 1.0:
        raise ValueError(f"precision must be in (1/2, 1), got {p!r}")
    if not 0.0 < kappa < 1.0:
        raise ValueError(f"kappa must be in (0, 1), got {kappa!r}")
    den = p - (1.0 - p) * (1.0 - kappa)
    if den <= 0.0:
        raise ThresholdUndefined(f"denominator p - (1-p)(1-kappa) = {den!r} <= 0")
    return kappa / den


def fei_oracle(
    params: GameParams,
    monitoring: MonitoringStructure,
    resolution: float = 1e-3,
    method: str = "auto",
) -> bool:
    """Brute-force FEI check, independent of the cutoff reduction.

    Searches for any v in [0,1]^S satisfying IC and PK (values above
    1-kappa are never useful to PK, so the unit box is enough). Methods:

    - "grid": exhaustive grid at step ``resolution``. A feasible grid point
      proves holds; a grid whose best point is below the Lipschitz margin
      refutes; anything in between raises :class:`ResolutionTooCoarse`.
    - "lp": maximize the minimum constraint slack by linear programming and
      read the sign.
    - "auto": grid first (step coarsened to bound the grid size), LP to
      decide if the grid finds nothing.

    Intended for test harnesses at desk scale (|S| <= 4).
    """
    n = len(monitoring.signals)
    if n > 4:
        raise ValueError("fei_oracle is restricted to |S| <= 4")
    if method not in ("grid", "lp", "auto"):
        raise ValueError(f"unknown method {method!r}")

    if method == "lp":
        return _oracle_lp(params, monitoring)

    step = float(resolution)
    if method == "auto":
        # the grid is only a cheap screen here; the LP decides close calls
        step = max(step, (2e5) ** (-1.0 / n))
    axis = np.arange(0.0, 1.0 + step / 2.0, step)
    if float(len(axis)) ** n > 5e7:
        raise ValueError("grid too large; coarsen resolution or use method='lp'")

    kappa, delta = params.kappa, params.delta
    f0 = np.asarray(monitoring.f0)
    f1 = np.asarray(monitoring.f1)
    mesh = np.meshgrid(*([axis] * n), indexing="ij")
    v = np.stack([m.ravel() for m in mesh])  # (n, N)
    ic = delta * ((f1 - f0) @ v) - (1.0 - delta) * kappa
    pk = (1.0 - delta) * (1.0 - kappa) + delta * (f1 @ v) - v.max(axis=0)
    min_slack = np.minimum(ic, pk)
    best = float(min_slack.max())
    if best >= 0.0:
        return True
    if method == "auto":
        return _oracle_lp(params, monitoring)
    lipschitz = max(delta * float(np.abs(f1 - f0).sum()), 1.0 + delta)
    if best < -lipschitz * step / 2.0:
        return False
    raise ResolutionTooCoarse(
        f"best grid slack {best:.3e} within the Lipschitz margin of 0; refine the grid"
    )


def _oracle_lp(params: GameParams, monitoring: MonitoringStructure) -> bool:
    """Maximize the minimum slack t over (v, t), v in [0,1]^S; FEI holds iff
    the optimum is >= 0."""
    from scipy.optimize import linprog

    kappa, delta = params.kappa, params.delta
    f0 = np.asarray(monitoring.f0)
    f1 = np.asarray(monitoring.f1)
    n = len(monitoring.signals)
    obj = np.zeros(n + 1)
    obj[n] = -1.0  # maximize t
    rows = []
    rhs = []
    for i in range(n):  # PK per signal: v_i - delta f1.v + t <= (1-d)(1-k)
        row = -delta * f1.copy()
        row[i] += 1.0
        rows.append(np.concatenate([row, [1.0]]))
        rhs.append((1.0 - delta) * (1.0 - kappa))
    rows.append(np.concatenate([-delta * (f1 - f0), [1.0]]))  # IC
    rhs.append(-(1.0 - delta) * kappa)
    res = linprog(
        obj,
        A_ub=np.array(rows),
        b_ub=np.array(rhs),
        bounds=[(0.0, 1.0)] * n + [(None, None)],
    )
    if not res.success:  # pragma: no cover
        raise ResolutionTooCoarse(f"oracle LP did not converge: {res.message}")
    return float(-res.fun) >= 0.0
