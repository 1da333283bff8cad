"""A lattice oracle for selection under binary monitoring, sharing no code
with replab. Opportunists always shirk, good types always work, and voters
keep an incumbent while the belief stays at or above pi0 - c. Each Pass or
Fail moves the belief's log-odds by +-L, L = log(p / (1 - p)), so an
incumbent is replaced when its net passes first reach -k, with
k = floor(a / L) + 1 and a = logit(pi0) - logit(pi0 - c). This is Wald's
one-sided sequential test, and on the lattice the gambler's ruin (Feller,
vol. I, ch. XIV)."""
import math

import numpy as np
import pytest


def failures_to_replace(p, pi0, c):
    a = math.log(pi0 / (1.0 - pi0)) - math.log((pi0 - c) / (1.0 - pi0 + c))
    return math.floor(a / math.log(p / (1.0 - p))) + 1


def lattice_law(p, k, good, horizon, renew=None):
    """Push the law of (type, net passes) forward from one new incumbent,
    good with probability ``good``. Returns, for t = 0 .. horizon - 1,
    P(good incumbent at t), P(in office at t) and P(replaced after period
    t's signal). A replaced incumbent leaves, or, with ``renew`` = pi0, is
    followed at 0 net passes by a new one, good with probability pi0."""
    mass = np.zeros((2, k + horizon + 1))  # rows opportunist, good; column k + net passes
    mass[:, k] = (1.0 - good, good)
    passes = np.array([[1.0 - p], [p]])  # P(Pass) when shirking, when working
    law = np.zeros((3, horizon))
    for t in range(horizon):
        moved = np.zeros_like(mass)
        moved[:, 1:] = mass[:, :-1] * passes
        moved[:, :-1] += mass[:, 1:] * (1.0 - passes)
        law[:, t] = mass[1].sum(), mass.sum(), moved[:, 0].sum()
        if renew is not None:
            moved[:, k] += law[2, t] * np.array([1.0 - renew, renew])
        moved[:, 0], mass = 0.0, moved  # column 0 is -k net passes: replaced
    return law


@pytest.mark.parametrize("pi0, c, k", [(0.1, 0.05, 1), (0.3, 0.05, 1), (0.3, 0.2, 2),
                                       (0.5, 0.2, 1)])
def test_limits_are_the_gamblers_ruin(pi0, c, k):
    p, horizon = 0.75, 2000
    assert failures_to_replace(p, pi0, c) == k
    tenure = lattice_law(p, k, 0.0, horizon)[1].sum()  # an opportunist's periods in office
    good_replaced = lattice_law(p, k, 1.0, horizon)[2].sum()
    assert tenure == pytest.approx(k / (2 * p - 1), abs=1e-12)
    assert good_replaced == pytest.approx(((1 - p) / p) ** k, abs=1e-12)
    settles = pi0 * (1.0 - good_replaced)  # a career that is never replaced
    careers = 1.0 + lattice_law(p, k, pi0, horizon, renew=pi0)[2].sum()
    assert careers == pytest.approx(1.0 / settles, abs=1e-9)
    if (pi0, c) == (0.3, 0.05):
        assert settles == pytest.approx(0.2, abs=1e-12)


@pytest.mark.parametrize("pi0, c, t99", [(0.1, 0.0, 137), (0.1, 0.05, 137), (0.3, 0.0, 45),
                                         (0.3, 0.05, 45), (0.3, 0.2, 62), (0.5, 0.0, 26),
                                         (0.5, 0.05, 26), (0.5, 0.2, 26)])
def test_selection_times_are_the_measured_ones(pi0, c, t99):
    # the selection times of binary 0.75, kappa 0.6, delta 0.6 (ROADMAP item 13)
    k = failures_to_replace(0.75, pi0, c)
    good = lattice_law(0.75, k, pi0, 400, renew=pi0)[0]
    assert int(np.argmax(good >= 0.99)) == t99
    if (pi0, c) == (0.3, 0.05):
        assert good[[10, 25, 50, 100]].round(4).tolist() == [0.7627, 0.9413, 0.9941, 0.9999]
