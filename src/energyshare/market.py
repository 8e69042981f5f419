"""Market data model for quadratic-utility energy sharing.

A market is a population of price-taking agents.  Agent ``i`` owns a
renewable source producing ``a_i`` at zero marginal cost and values
consuming ``x_i`` through the strictly concave utility

    f_i(x_i, u_i) = -1/2 * q_i * x_i**2 - (c0_i + u_i) * x_i,

where ``u_i`` is an (optional) adjustment of the linear coefficient.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyMarket,
    MissingField,
    NegativeGeneration,
    NonfiniteInput,
    NonpositiveCurvature,
)


class MarketWarning(UserWarning):
    """Non-fatal issue found while validating market data."""


@dataclass(frozen=True)
class AgentParams:
    """One agent's utility and generation parameters.

    Attributes:
        q: curvature of the quadratic utility (currency/energy^2); must be
            strictly positive.
        c0: nominal linear utility coefficient (currency/energy).  The usual
            sign convention is c0 <= 0; positive values are legal but flagged
            with a :class:`MarketWarning`.
        a: renewable generation (energy); must be nonnegative.
    """

    q: float
    c0: float
    a: float


@dataclass(frozen=True)
class SocialPriceCap:
    """Price threshold the market price should not exceed.

    Any finite real value is allowed, including negative ones.
    """

    lambda_max: float

    def __post_init__(self):
        if not math.isfinite(self.lambda_max):
            raise NonfiniteInput(f"lambda_max must be finite, got {self.lambda_max!r}")


@dataclass(frozen=True, eq=False)
class MarketInstance:
    """Validated, immutable collection of agents plus derived aggregates.

    The columns ``q``, ``c0`` and ``a`` are the only stored copy of the
    agents; ``agents`` rebuilds their records from the columns.  The
    aggregates are precomputed once at validation time:

    * ``sum_a``: total renewable generation, sum of a_i
    * ``s1``:    sum of 1/q_i
    * ``s2``:    sum of 1/q_i**2
    * ``sqc``:   sum of c0_i/q_i

    Instances are safe to share across threads: the arrays are marked
    read-only and the dataclass is frozen.
    """

    q: np.ndarray
    c0: np.ndarray
    a: np.ndarray
    sum_a: float
    s1: float
    s2: float
    sqc: float

    def __post_init__(self):
        for arr in (self.q, self.c0, self.a):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        """Number of agents."""
        return self.q.size

    @property
    def agents(self) -> tuple[AgentParams, ...]:
        """Each agent's record, built from the columns."""
        return tuple(map(AgentParams, self.q.tolist(), self.c0.tolist(), self.a.tolist()))


def _coerce_agent(record, index: int) -> tuple[float, float, float]:
    if isinstance(record, AgentParams):
        return float(record.q), float(record.c0), float(record.a)
    if isinstance(record, Mapping):
        try:
            return float(record["q"]), float(record["c0"]), float(record["a"])
        except KeyError as exc:
            raise MissingField(f"agent record {index} lacks required field {exc.args[0]!r}") from None
    if isinstance(record, (Sequence, np.ndarray)) and not isinstance(record, (str, bytes)):
        if len(record) != 3:
            raise MissingField(f"agent record {index} must have exactly (q, c0, a), got {len(record)} values")
        return float(record[0]), float(record[1]), float(record[2])
    raise MissingField(f"agent record {index} has unsupported type {type(record).__name__}")


# The least valid q, c0 and a; each must also be finite (NaN fails both tests).
_LEAST = np.array([[np.nextafter(0.0, 1.0)], [-np.inf], [0.0]])


def validate_market(records) -> MarketInstance:
    """Validate raw agent records and build a :class:`MarketInstance`.

    Args:
        records: iterable of :class:`AgentParams`, mappings with keys
            ``q``/``c0``/``a``, or (q, c0, a) triples; a float array of
            such triples, one a row, is taken whole.

    Returns:
        A validated market with derived aggregates.  Each agent with a
        positive ``c0`` is reported by a :class:`MarketWarning`.

    Raises:
        EmptyMarket: no records were supplied.
        NonfiniteInput: some value is NaN or infinite.
        NonpositiveCurvature: some q_i <= 0.
        NegativeGeneration: some a_i < 0.
    """
    if isinstance(records, np.ndarray) and records.dtype.kind == "f" and records.shape[1:] == (3,):
        rows = records
    else:
        rows = [_coerce_agent(rec, i) for i, rec in enumerate(records)]
    table = np.array(rows, dtype=float).reshape(-1, 3).T.copy()
    if not table.shape[1]:
        raise EmptyMarket("market must contain at least one agent")

    q, c0, a = table
    if not ((np.abs(table) < np.inf) & (table >= _LEAST)).all():  # else find the first fault
        for name, arr in (("q", q), ("c0", c0), ("a", a)):
            bad = np.nonzero(~np.isfinite(arr))[0]
            if bad.size:
                raise NonfiniteInput(f"agent {bad[0]}: {name} = {float(arr[bad[0]])!r} is not finite")
        bad = np.nonzero(q <= 0.0)[0]
        if bad.size:
            raise NonpositiveCurvature(f"agent {bad[0]}: q = {q[bad[0]]} must be strictly positive")
        bad = np.nonzero(a < 0.0)[0]
        raise NegativeGeneration(f"agent {bad[0]}: a = {a[bad[0]]} must be nonnegative")

    for i in np.nonzero(c0 > 0.0)[0]:
        warnings.warn(f"agent {i}: c0 = {c0[i]} is positive; the usual sign convention is c0 <= 0",
                      MarketWarning, stacklevel=2)

    # Inputs near float64's range overflow here; the solvers' callers
    # report the non-finite results, so numpy's warnings would only repeat it.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        s1, s2, sqc = float((1.0 / q).sum()), float((1.0 / q**2).sum()), float((c0 / q).sum())
    return MarketInstance(q=q, c0=c0, a=a, sum_a=float(a.sum()), s1=s1, s2=s2, sqc=sqc)


def conditional_projection(x: float, y: float) -> float:
    """Projection operator keeping a nonnegative state on its domain.

    Returns ``x`` when ``y > 0`` and ``max(0, x)`` when ``y = 0``.  Callers
    maintain ``y >= 0``; values ``y < 0`` (which can appear transiently in
    the raw stage states of a Runge-Kutta step) are treated like the
    boundary ``y = 0``.
    """
    if y > 0.0:
        return x
    return x if x > 0.0 else 0.0


def utility(agent: AgentParams, x: float, u: float = 0.0) -> float:
    """Utility of consuming ``x`` under linear-coefficient adjustment ``u``."""
    return -0.5 * agent.q * x * x - (agent.c0 + u) * x


def phi(market: MarketInstance, lam: float) -> np.ndarray:
    """Price-to-demand map: every agent's unconstrained best response.

    Component ``i`` equals ``-(lam + c0_i) / q_i``.  The map is affine and
    strictly decreasing in the price, componentwise.
    """
    return -(lam + market.c0) / market.q
