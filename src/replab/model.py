"""Domain primitives: monitoring structures, game parameters, belief updates.

The game, shared by every module in this package: a pool of long-lived
officeholders faces a sequence of short-lived voters. Each officeholder is
a good type (always works) with probability ``pi0``, otherwise an
opportunist who trades off the effort cost ``kappa`` against holding
office, discounting at ``delta``. Effort generates a public signal from a
finite alphabet under ``f1`` (work) or ``f0`` (shirk); voters may replace
the incumbent at cost ``c``.

Period-order contract (binding for all modules): at period t > 0 the voter
first replaces with the state's replacement probability; the (possibly
new) incumbent then acts; the realized signal extends the incumbent's
career history. At t = 0 there is no vote.

All probabilities are double-precision floats; probability vectors must
sum to one within ``SIMPLEX_TOL``. Model objects check themselves when
built, raising :class:`ValidationError` with every violation; they are
immutable and safe to share across threads; operators are pure functions.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

from .errors import ValidationError, Violation

SIMPLEX_TOL = 1e-12

#: Beliefs are plain floats in [0, 1]; operators below restrict to (0, 1].
Belief = float


@dataclass(frozen=True)
class MonitoringStructure:
    """Signal alphabet with its two conditional distributions.

    ``f0`` is the signal distribution under shirking, ``f1`` under effort.
    Maintained assumptions, checked when built: both are probability
    vectors, ``f1`` has full support, and the two differ in at least one
    coordinate. Signals with ``f0(s) = 0`` are allowed; their likelihood
    ratio is 0.
    """

    signals: tuple[str, ...]
    f0: tuple[float, ...]
    f1: tuple[float, ...]

    def __post_init__(self):
        n = len(self.signals)
        if n < 2 or len(self.f0) != n or len(self.f1) != n:
            raise ValidationError(
                [Violation("NonSimplex", "need >= 2 signals and matching f0/f1 lengths")]
            )
        out: list[Violation] = []
        if len(set(self.signals)) != n:
            out.append(Violation("NonSimplex", "duplicate signal names"))
        for name, vec in (("f0", self.f0), ("f1", self.f1)):
            if not all(0.0 <= q < math.inf for q in vec):
                out.append(Violation("NonSimplex", f"{name} has negative or non-finite entries"))
            elif abs(sum(vec) - 1.0) > SIMPLEX_TOL:
                out.append(Violation("NonSimplex", f"{name} sums to {sum(vec)!r}, not 1"))
        if not all(q > 0.0 for q in self.f1):
            out.append(Violation("MissingFullSupport", "f1 must be strictly positive everywhere"))
        if all(abs(a - b) <= SIMPLEX_TOL for a, b in zip(self.f0, self.f1)):
            out.append(Violation("UninformativeMonitoring", "f0 and f1 coincide"))
        if out:
            raise ValidationError(out)

    @classmethod
    def binary(cls, precision: float) -> "MonitoringStructure":
        """Two-signal structure where each action produces its own signal
        with probability ``precision``: Pass indicates work, Fail shirk."""
        p = float(precision)
        return cls(signals=("Fail", "Pass"), f0=(p, 1.0 - p), f1=(1.0 - p, p))

    def index(self, signal: str) -> int:
        return self.signals.index(signal)

    @property
    def min_ratio(self) -> float:
        """Smallest likelihood ratio over the alphabet (most favorable signal)."""
        return min(self.f0[i] / self.f1[i] for i in range(len(self.signals)))

    def mixture(self, effort: float) -> tuple[float, ...]:
        """Signal distribution when effort is exerted with probability ``effort``."""
        return tuple(effort * q1 + (1.0 - effort) * q0 for q0, q1 in zip(self.f0, self.f1))


@dataclass(frozen=True)
class GameParams:
    """(kappa, delta, pi0, c): effort cost, discount factor, prior on the
    good type, replacement cost. Checked when built: kappa, delta and pi0
    lie in (0, 1) and c is finite and >= 0."""

    kappa: float
    delta: float
    pi0: float
    c: float = 0.0

    def __post_init__(self):
        out = [
            Violation("ParamOutOfRange", f"{name}={val!r} not in (0.0, 1.0)")
            for name, val in (("kappa", self.kappa), ("delta", self.delta), ("pi0", self.pi0))
            if not 0.0 < val < 1.0
        ]
        if not 0.0 <= self.c < math.inf:
            out.append(Violation("ParamOutOfRange", f"c={self.c!r} must be >= 0"))
        if out:
            raise ValidationError(out)


def _as_float(value) -> Optional[float]:
    """A JSON or TOML number as a float, NaN and infinities included; None
    for any other value (booleans and strings too) and for an integer too
    large for a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        return float(value)
    except OverflowError:
        return None


def _number(mapping, key: str) -> float:
    value = _as_float(mapping[key])
    if value is None:
        raise TypeError(f"{key}={mapping[key]!r} is not a number")
    return value


def model_from_dict(mapping) -> tuple[GameParams, MonitoringStructure]:
    """Parse a model mapping ``{kappa, delta, pi0, c, signals | binary_precision}``,
    the form of config files and of an automaton file's ``params_echo``.

    ``signals`` lists ``{name, f0, f1}`` entries; ``binary_precision``, when
    present, wins over ``signals`` (see :meth:`MonitoringStructure.binary`).
    Numbers must be JSON or TOML numbers, not strings or booleans, and come
    back as floats.
    Raises :class:`ValidationError` for a missing, mistyped or unknown key, or
    for the first of the monitoring and the params that fails its own checks.
    """
    try:
        unknown = [key for key in mapping
                   if key not in ("kappa", "delta", "pi0", "c", "binary_precision", "signals")]
        if unknown:
            raise ValidationError([Violation("BadModel", f"unknown model fields: {unknown!r}")])
        if "binary_precision" in mapping:
            monitoring = MonitoringStructure.binary(_number(mapping, "binary_precision"))
        else:
            entries = list(mapping["signals"])
            names = tuple(s["name"] for s in entries)
            if not all(isinstance(name, str) for name in names):
                raise TypeError(f"signal names {names!r} are not all strings")
            monitoring = MonitoringStructure(
                signals=names,
                f0=tuple(_number(s, "f0") for s in entries),
                f1=tuple(_number(s, "f1") for s in entries),
            )
        params = GameParams(*(_number(mapping, key) for key in ("kappa", "delta", "pi0", "c")))
    except (KeyError, TypeError) as exc:
        raise ValidationError(
            [Violation("BadModel", f"missing or mistyped model field: {exc!r}")]
        ) from exc
    return params, monitoring


def model_to_dict(params: GameParams, monitoring: MonitoringStructure) -> dict:
    """Inverse of :func:`model_from_dict`, with the signals spelled out."""
    return {
        **asdict(params),
        "signals": [
            {"name": s, "f0": q0, "f1": q1}
            for s, q0, q1 in zip(monitoring.signals, monitoring.f0, monitoring.f1)
        ],
    }


def bayes_update(monitoring: MonitoringStructure, pi: Belief, a: float, s: str) -> Belief:
    """Posterior reputation after signal ``s`` when the opportunist works
    with probability ``a``.

        beta_a(pi | s) = pi f1(s) / ([pi + (1-pi) a] f1(s) + (1-pi)(1-a) f0(s))

    Defined for pi in (0, 1]; pi = 0 is rejected (callers handle absorbing
    zero beliefs explicitly). Pooling (a = 1) and a degenerate prior
    (pi = 1) both leave the belief unchanged.
    """
    if not 0.0 < pi <= 1.0:
        raise ValueError(f"bayes_update requires pi in (0, 1], got {pi!r}")
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"effort probability must be in [0, 1], got {a!r}")
    i = monitoring.index(s)
    return _posterior(pi, a, monitoring.f1[i], monitoring.f0[i])


def _posterior(pi: Belief, a: float, q1: float, q0: float) -> Belief:
    """:func:`bayes_update` for a signal with likelihoods ``q1`` (work) and
    ``q0`` (shirk), without its range checks, for callers that keep pi and
    a in range themselves."""
    return pi * q1 / ((pi + (1.0 - pi) * a) * q1 + (1.0 - pi) * (1.0 - a) * q0)


def _bisect(holds, lo: float, hi: float, width: float) -> tuple[float, float]:
    """Halve [lo, hi] around the point where ``holds`` turns true: it fails at
    lo and holds at hi, as at the (lo, hi) returned once the bracket is no
    wider than ``width`` or no double lies strictly inside it."""
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        lo, hi = (lo, mid) if holds(mid) else (mid, hi)
    return lo, hi


def max_update(monitoring: MonitoringStructure, pi: Belief, eta: float) -> Belief:
    """Highest one-period posterior when the opportunist's effort is known
    to be at least ``eta``:

        Bbar_eta(pi) = pi / (pi + (1-pi) [eta + (1-eta) lambda]),

    with lambda the smallest likelihood ratio. Equals the maximum of
    ``bayes_update`` over effort in [eta, 1] and all signals.
    """
    if not 0.0 < pi <= 1.0:
        raise ValueError(f"max_update requires pi in (0, 1], got {pi!r}")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1], got {eta!r}")
    lam = monitoring.min_ratio
    return pi / (pi + (1.0 - pi) * (eta + (1.0 - eta) * lam))


def iterated_max_update(
    monitoring: MonitoringStructure, pi: Belief, eta: float, t: int
) -> Belief:
    """t-fold composition of :func:`max_update`; t = 0 returns ``pi``."""
    if t < 0:
        raise ValueError("t must be a nonnegative integer")
    out = pi
    for _ in range(t):
        out = max_update(monitoring, out, eta)
    return out


def belief_growth_bound(pi: Belief, eta: float, t: int) -> float:
    """Closed-form ceiling on eta-damped belief growth over t periods:

        (pi + (1-pi) eta^(t+1)) / (pi + (1-pi) eta^t)

    Dominates ``Bbar^t(pi) + (1 - Bbar^t(pi)) eta`` and increases in t.
    """
    if not 0.0 < pi < 1.0:
        raise ValueError(f"belief_growth_bound requires pi in (0, 1), got {pi!r}")
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must be in (0, 1), got {eta!r}")
    if t < 0:
        raise ValueError("t must be a nonnegative integer")
    return (pi + (1.0 - pi) * eta ** (t + 1)) / (pi + (1.0 - pi) * eta**t)
