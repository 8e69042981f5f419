"""Shared fixtures and independent oracles for the test suite.

The oracles recompute equilibria by solving the dense optimality systems
with a generic linear solver, deliberately avoiding the closed-form
expressions used by the library.  The drift oracles evaluate the model's
equations one agent at a time, with their own indexing, since every drift
form the library offers comes from one kernel.  The closed loop's fixed
point also has an exact reference, in rational arithmetic.

Hypothesis runs under one profile: no deadline, a fixed sequence of
examples and no example database, so that every run draws the same cases.
"""

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings, strategies as st

import energyshare as es
from energyshare.verification import WIDE_RANGES

settings.register_profile("energyshare", deadline=None, derandomize=True, database=None)
settings.load_profile("energyshare")

REPO_ROOT = Path(__file__).resolve().parent.parent
TABLE1_PATH = REPO_ROOT / "table1.json"


def markets():
    """Valid markets as a hypothesis strategy, over ``WIDE_RANGES``, ``random_market``'s own."""
    r = WIDE_RANGES
    agent = st.tuples(st.floats(r["q_lo"], r["q_hi"]), st.floats(r["c0_lo"], r["c0_hi"]),
                      st.floats(0.0, r["a_hi"]))
    return st.lists(agent, min_size=1, max_size=r["n_max"]).map(es.validate_market)


@pytest.fixture(scope="session")
def table1_config():
    return es.load_config(TABLE1_PATH)


@pytest.fixture(scope="session")
def table1_market(table1_config):
    return table1_config.market


def ce_oracle(market):
    """Competitive equilibrium via a dense solve of the optimality system.

    Stationarity rows [diag(q), 1] and the market-clearing row [1.T, 0]
    stacked into one linear system in (x, lam).
    """
    n = market.n
    kkt = np.zeros((n + 1, n + 1))
    kkt[:n, :n] = np.diag(market.q)
    kkt[:n, n] = 1.0
    kkt[n, :n] = 1.0
    rhs = np.append(-market.c0, market.sum_a)
    sol = np.linalg.solve(kkt, rhs)
    return sol[:n], float(sol[n])


def sce_oracle(market, cap):
    """Capped equilibrium via dense solves of both complementarity branches.

    Tries the price-at-cap branch first: solve for (x, nu) from the
    stationarity rows [diag(q), 1/q] and the clearing row, keep it if the
    scalar dual comes out nonnegative; otherwise the cap is slack and the
    uncapped equilibrium applies with nu = 0.
    """
    n = market.n
    kkt = np.zeros((n + 1, n + 1))
    kkt[:n, :n] = np.diag(market.q)
    kkt[:n, n] = 1.0 / market.q
    kkt[n, :n] = 1.0
    rhs = np.append(-market.c0 - cap, market.sum_a)
    sol = np.linalg.solve(kkt, rhs)
    x, nu = sol[:n], float(sol[n])
    if nu >= 0.0:
        lam = cap
    else:
        x, lam = ce_oracle(market)
        nu = 0.0
    return x, lam, nu / market.q, nu


def _rationals(market):
    """The columns ``q``, ``c0``, ``a`` as lists of exact rationals."""
    return ([Fraction(v) for v in col.tolist()] for col in (market.q, market.c0, market.a))


def exact_fixed_point(market, cap):
    """The closed loop's fixed point in exact rational arithmetic, by block.

    Returns ``lam``, ``nu``, ``x``, ``u``, ``pi`` and ``mu`` as
    :class:`Fraction` values (lists for the per-agent blocks); ``rho = lam``
    and ``eps = x - a``.  The price is ``min(lam_ce, cap)`` with ``lam_ce =
    -(sum c0/q + sum a) / sum 1/q``; ``nu`` is the aggregate slack at that
    price over ``s2 = sum 1/q**2``, which is 0 where the cap is slack.
    """
    q, c0, a = _rationals(market)
    cap = Fraction(cap)
    s1, s2 = sum(1 / qi for qi in q), sum(1 / qi**2 for qi in q)
    lam = min(-(sum(ci / qi for ci, qi in zip(c0, q)) + sum(a)) / s1, cap)
    nu = (sum(-(lam + ci) / qi for ci, qi in zip(c0, q)) - sum(a)) / s2
    return dict(
        lam=lam,
        nu=nu,
        x=[-(lam + ci) / qi - nu / qi**2 for ci, qi in zip(c0, q)],
        u=[nu / qi for qi in q],
        pi=[(lam - cap) / qi**2 for qi in q],
        mu=s2 * (cap - lam),
    )


def fixed_point_scales(market, cap):
    """Per block of :func:`exact_fixed_point`, the magnitudes of the terms it sums.

    The price's terms are ``|c0|/q`` and ``a`` over ``s1``; ``nu``'s are
    ``|cap|/q``, ``|c0|/q`` and ``a`` over ``s2``.  ``x`` sums ``|cap|``,
    ``|c0|`` and the price's terms over ``q``, and ``nu``'s over ``q**2``;
    ``u`` is ``nu``'s over ``q``; ``pi`` and ``mu`` take ``|cap|`` and the
    price's terms over ``q**2`` and times ``s2``.  A float evaluation in
    the library's order errs by a few ulps of these.
    """
    q, c0, a = _rationals(market)
    cap = abs(Fraction(cap))
    s1, s2 = sum(1 / qi for qi in q), sum(1 / qi**2 for qi in q)
    lam = (sum(abs(ci) / qi for ci, qi in zip(c0, q)) + sum(a)) / s1
    nu = (sum((cap + abs(ci)) / qi for ci, qi in zip(c0, q)) + sum(a)) / s2
    return dict(
        lam=lam,
        nu=nu,
        x=[(lam + cap + abs(ci)) / qi + nu / qi**2 for ci, qi in zip(c0, q)],
        u=[nu / qi for qi in q],
        pi=[(lam + cap) / qi**2 for qi in q],
        mu=s2 * (lam + cap),
    )


def _entry(*terms):
    """One drift entry: the sum of its terms and the sum of their magnitudes."""
    return sum(terms), sum(abs(t) for t in terms)


def closed_loop_drift_oracle(market, state, cap):
    """Closed-loop drift from the model's equations, one agent at a time.

    The state is read with its own indexing, ``[x, rho, eps, lam, u, pi,
    nu, mu]`` in blocks of N, and each entry is a scalar sum of its terms.
    On the free branch (``mu > 0``) ``dmu = -nu``; otherwise ``dmu =
    max(-nu, 0)``.  Returns the drift and, per entry, the sum of its terms'
    magnitudes, the scale that a rounded evaluation is held to.
    """
    n = market.n
    q, c0, a = (np.asarray(v, dtype=float).tolist() for v in (market.q, market.c0, market.a))
    s = np.asarray(state, dtype=float).tolist()
    x, rho, eps, lam = s[:n], s[n : 2 * n], s[2 * n : 3 * n], s[3 * n]
    u, pi, nu, mu = s[3 * n + 1 : 4 * n + 1], s[4 * n + 1 : 5 * n + 1], s[5 * n + 1], s[5 * n + 2]
    rows = (
        [_entry(-q[i] * x[i], -c0[i], -rho[i], -u[i]) for i in range(n)]
        + [_entry(x[i], -a[i], -eps[i]) for i in range(n)]
        + [_entry(rho[i], -lam) for i in range(n)]
        + [_entry(*eps)]
        + [_entry(-u[i] / q[i], -q[i] * pi[i], -x[i], -(c0[i] + cap) / q[i]) for i in range(n)]
        + [_entry(q[i] * u[i], -nu) for i in range(n)]
        + [_entry(*pi, mu)]
        + [_entry(-nu if mu > 0.0 else max(-nu, 0.0))]
    )
    drift, scale = zip(*rows)
    return np.array(drift), np.array(scale)


def reduced_drift_oracle(market, state):
    """Reduced drift ``(dx, dlam)`` from the model's equations, with its scale."""
    n = market.n
    q, c0, a = (np.asarray(v, dtype=float).tolist() for v in (market.q, market.c0, market.a))
    s = np.asarray(state, dtype=float).tolist()
    x, lam = s[:n], s[n]
    rows = [_entry(-q[i] * x[i], -c0[i], -lam) for i in range(n)] + [_entry(*x, *(-v for v in a))]
    drift, scale = zip(*rows)
    return np.array(drift), np.array(scale)


def assert_matches_oracle(got, oracle, rel=1e-12):
    """``got`` agrees with an oracle's ``(drift, scale)`` to ``rel`` of the scale, per entry."""
    drift, scale = oracle
    gap = np.abs(np.asarray(got) - drift)
    excess = float((gap - rel * scale).max())
    assert excess <= 0.0, f"worst gap exceeds the tolerance by {excess:.3e}"
