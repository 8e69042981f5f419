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

    A batch of ``K`` markets of ``N`` agents each is one instance whose
    columns are ``(K, N)`` and whose aggregates are ``(K,)`` arrays, one
    entry per market; the closed forms take it whole.  A single market's
    aggregates are floats.  Instances are safe to share across threads:
    the arrays are marked read-only and the dataclass is frozen.
    """

    q: np.ndarray
    c0: np.ndarray
    a: np.ndarray
    sum_a: float | np.ndarray
    s1: float | np.ndarray
    s2: float | np.ndarray
    sqc: float | np.ndarray

    def __post_init__(self):
        for arr in (self.q, self.c0, self.a, self.sum_a, self.s1, self.s2, self.sqc):
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)

    @property
    def n(self) -> int:
        """Number of agents (of each market, in a batch)."""
        return self.q.shape[-1]

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


def validate_market(records) -> MarketInstance:
    """Validate raw agent records and build a :class:`MarketInstance`.

    Coerces the records to one float ``(3, N)`` table, a fresh copy, and
    hands it to :func:`_validated`.

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
        table = np.array(records.T, dtype=float, order="C")
    else:
        rows = [_coerce_agent(rec, i) for i, rec in enumerate(records)]
        table = np.array(rows, dtype=float).reshape(-1, 3).T.copy()
    return _validated(table)


def _validated(table: np.ndarray) -> MarketInstance:
    """The market whose columns are the rows ``q``, ``c0``, ``a`` of a float ``(3, N)`` table.

    A ``(3, K, N)`` table holds ``K`` markets of ``N`` agents each, and
    gives their batch, market ``k`` from the columns ``table[:, k]``: one
    pass checks and sums them all, so a batch costs one market's numpy
    calls.  The market keeps views of the table as its columns, so
    ``table`` must be a fresh C-ordered array that nothing else writes.
    One ``min`` and one ``max`` per row check the whole table: ``0 < q``,
    ``-inf < c0``, ``0 <= a`` and every max finite, which NaN fails too;
    only a table that fails is searched for its first fault, in the order
    q, c0, a, and the fault names the agent's index within its market.
    The four aggregates are one ``(4, ..., N)`` array summed along its
    last axis, each market's sums the bytes of its own ``(3, N)`` table.
    Each agent with a positive ``c0`` gets a :class:`MarketWarning`,
    attributed to the caller of the function that called this one
    (:func:`validate_market`, ``verification.random_market`` or
    ``verification.random_markets``).  Raises as :func:`validate_market`.
    """
    n = table.shape[-1]
    if not n:
        raise EmptyMarket("market must contain at least one agent")
    q, c0, a = table
    rows = table.reshape(3, -1)
    lo, hi = rows.min(axis=1), rows.max(axis=1)
    if not (lo[0] > 0.0 and lo[1] > -np.inf and lo[2] >= 0.0 and (hi < np.inf).all()):
        for name, arr in (("q", q), ("c0", c0), ("a", a)):
            bad = np.flatnonzero(~np.isfinite(arr))
            if bad.size:
                value = float(arr.flat[bad[0]])
                raise NonfiniteInput(f"agent {bad[0] % n}: {name} = {value!r} is not finite")
        bad = np.flatnonzero(q <= 0.0)
        if bad.size:
            raise NonpositiveCurvature(f"agent {bad[0] % n}: q = {q.flat[bad[0]]} must be strictly positive")
        bad = np.flatnonzero(a < 0.0)
        raise NegativeGeneration(f"agent {bad[0] % n}: a = {a.flat[bad[0]]} must be nonnegative")

    if hi[1] > 0.0:
        for i in np.flatnonzero(c0 > 0.0):
            warnings.warn(f"agent {i % n}: c0 = {c0.flat[i]} is positive; the usual sign "
                          "convention is c0 <= 0", MarketWarning, stacklevel=3)

    # Rows a, 1/q, 1/q**2 and c0/q.  Inputs near float64's range overflow
    # here; the solvers' callers report the non-finite results, so numpy's
    # warnings would only repeat it.
    terms = np.empty((4, *table.shape[1:]))
    terms[0] = a
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        np.divide(1.0, q, out=terms[1])
        np.divide(1.0, np.square(q, out=terms[2]), out=terms[2])
        np.divide(c0, q, out=terms[3])
        sums = terms.sum(axis=-1)
    return MarketInstance(q, c0, a, *(sums.tolist() if table.ndim == 2 else sums))


def conditional_projection(x, y):
    """Projection operator keeping a nonnegative state on its domain.

    Returns ``x`` when ``y > 0`` and ``max(0, x)`` when ``y = 0``.  Callers
    maintain ``y >= 0``; values ``y < 0`` (which can appear transiently in
    the raw stage states of a Runge-Kutta step) are treated like the
    boundary ``y = 0``.  ``x`` and ``y`` may be arrays, projected entry by
    entry; two scalars give a float.
    """
    return _scalar(np.where((y > 0.0) | (x > 0.0), x, 0.0))


def utility(agent: AgentParams | MarketInstance, x: float | np.ndarray,
            u: float | np.ndarray = 0.0) -> float | np.ndarray:
    """Utility of consuming ``x`` under linear-coefficient adjustment ``u``.

    ``agent`` is an agent or a market (anything with ``q`` and ``c0``).
    """
    return -0.5 * agent.q * x * x - (agent.c0 + u) * x


def phi(market: MarketInstance, lam) -> np.ndarray:
    """Price-to-demand map: every agent's unconstrained best response.

    Component ``i`` equals ``-(lam + c0_i) / q_i``.  The map is affine and
    strictly decreasing in the price, componentwise.  ``lam`` holds one
    price per market of a batch, or any array of prices for one market;
    the result appends the agent axis to its shape.
    """
    return -(np.asarray(lam)[..., None] + market.c0) / market.q


def _scalar(value):
    """A per-market numpy result: a float for a single market, the array over a batch's axis."""
    return value if value.ndim else float(value)
