"""Shared fixtures and independent oracles for the test suite.

The oracles recompute equilibria by solving the dense optimality systems
with a generic linear solver, deliberately avoiding the closed-form
expressions used by the library.
"""

from pathlib import Path

import numpy as np
import pytest

import energyshare as es

REPO_ROOT = Path(__file__).resolve().parent.parent
TABLE1_PATH = REPO_ROOT / "table1.json"


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

