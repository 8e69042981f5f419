"""Closed-form equilibrium solvers and their verification tools.

Everything here is a pure function of an immutable market.  The central
object is the scalar complementarity relation

    0 <= aggregate_slack(lam)  perp  lambda_max - lam >= 0,

whose unique solution is the capped market price.  Because the aggregate
slack is affine and strictly decreasing in the price, the solution is
``min(ce_price, lambda_max)`` in closed form; an independent bracketing
oracle double-checks that shortcut.

Each solver takes a single market or a batch (``market.MarketInstance``),
with one cap per market of the batch, and computes every market of a
batch as it computes that market alone, bit for bit.  A single market's
scalar results are floats; a batch's are arrays with one entry per market,
and its per-agent results have the batch's ``(K, N)`` shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InconsistentDual, NonfiniteInput
from .market import MarketInstance, _scalar, phi

# Residual above which dual_to_primal_sw refuses to trust a candidate price.
DUAL_FEASIBILITY_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class CeSolution:
    """Competitive equilibrium: market-clearing allocation and price."""

    x_bar: np.ndarray
    lambda_bar: float


@dataclass(frozen=True, eq=False)
class SceSolution:
    """Optimal minimum-adjustment equilibrium under a price cap.

    ``u_star`` is the smallest (in Euclidean norm) shift of the agents'
    linear utility coefficients for which the market clears at a price not
    exceeding the cap.  The duals of the underlying program come along:
    ``nu_star`` (scalar, >= 0) for the adjustment-coupling constraint,
    ``pi1_star`` (scalar) for the price cap and ``pi2_star`` (vector) for
    the stationarity constraint.  Structurally, u_star = nu_star / q
    componentwise, pi1_star = s1 * nu_star and pi2_star = -u_star.
    """

    x_star: np.ndarray
    lambda_star: float
    u_star: np.ndarray
    nu_star: float
    pi1_star: float
    pi2_star: np.ndarray


@dataclass(frozen=True, eq=False)
class ModifiedPrimalSolution:
    """Optimizer of the slack-variable form of the capped welfare problem.

    ``y_bar`` is the allocation, ``s_bar`` the scalar oversupply slack,
    ``lambda_bar`` the price dual and ``mu_s_bar`` the dual of the slack's
    nonnegativity, with 0 <= mu_s_bar perp s_bar >= 0.
    """

    y_bar: np.ndarray
    s_bar: float
    lambda_bar: float
    mu_s_bar: float


@dataclass(frozen=True)
class KktResidualReport:
    """Numerical violation of each optimality condition, all >= 0."""

    stationarity_norm: float
    supply_demand_gap: float
    cap_violation: float
    complementarity_gap: float

    def max_violation(self) -> float:
        """The largest of the four residuals (per market); NaN if any of them is NaN."""
        return _scalar(np.max([
            self.stationarity_norm,
            self.supply_demand_gap,
            self.cap_violation,
            self.complementarity_gap,
        ], axis=0))


def solve_ce(market: MarketInstance) -> CeSolution:
    """Competitive equilibrium of the uncapped market.

    The price clears the market: it is the unique zero of the aggregate
    slack, :func:`solve_sw_dual`; the allocation is the demand response
    ``phi`` at that price.
    """
    lam = solve_sw_dual(market)
    return CeSolution(x_bar=phi(market, lam), lambda_bar=lam)


def aggregate_slack(market: MarketInstance, lam: float) -> float:
    """Total demand response minus total generation at price ``lam``.

    Affine in the price with slope ``-s1 < 0``.
    """
    return _scalar(phi(market, lam).sum(axis=-1) - market.sum_a)


def _check_cap(cap):
    """``cap`` as a float, or as a float array of one cap per market."""
    caps = np.asarray(cap, dtype=float)
    finite = np.isfinite(caps)
    if not finite.all():
        raise NonfiniteInput(f"price cap must be finite, got {float(caps[~finite].flat[0])!r}")
    return _scalar(caps)


def solve_scalar_lcp(market: MarketInstance, cap: float) -> float:
    """Unique price solving the scalar complementarity relation.

    Since the aggregate slack is affine and strictly decreasing, the
    solution is exactly ``min(ce_price, cap)``: below the cap the market
    clears (slack zero), at the cap the slack stays nonnegative.
    """
    cap = _check_cap(cap)
    lam_ce = solve_sw_dual(market)
    return _scalar(np.where(lam_ce <= cap, lam_ce, cap))


def _capped(market: MarketInstance, caps, lam_ce: float) -> tuple:
    """The capped equilibrium ``(lam, nu, x, u)`` at each of ``caps``, of any shape
    that broadcasts against the batch's.

    Where the competitive price ``lam_ce`` respects the cap, the market
    clears at it with ``nu = 0``.  Elsewhere, a NaN cap included, the price
    pins to the cap and the scalar dual ``nu = aggregate_slack(cap) / s2``
    absorbs the slack: ``x = phi(cap) - nu / q**2`` and ``u = nu / q``; at
    an idle cap ``x`` is the competitive allocation, bit for bit.
    ``x`` and ``u`` have a trailing agent axis.
    """
    active = ~(lam_ce <= np.asarray(caps))
    lam = np.where(active, caps, lam_ce)
    demand = phi(market, lam)
    # Divided only where the cap binds: s2 underflows to 0 when every q is
    # past ~1e154, and q**2 when some q is below ~1e-162.
    nu = np.divide(demand.sum(axis=-1) - market.sum_a, market.s2, out=np.zeros(active.shape),
                   where=active)
    column = nu[..., None]
    shift = np.divide(column, market.q**2, out=np.zeros(demand.shape), where=active[..., None])
    return lam, nu, demand - shift, column / market.q


def solve_sce(market: MarketInstance, cap: float) -> SceSolution:
    """Minimum-adjustment equilibrium under a price cap, with all duals.

    The one-cap case of :func:`_capped`'s closed form, which
    :func:`scenario.run_sweep` evaluates at a sweep's binding caps and the CE price.
    """
    lam, nu, x_star, u_star = _capped(market, _check_cap(cap), solve_sw_dual(market))
    nu_star = _scalar(nu)
    return SceSolution(x_star=x_star, lambda_star=_scalar(lam), u_star=u_star, nu_star=nu_star,
                       pi1_star=market.s1 * nu_star, pi2_star=-u_star)


def solve_sw_dual(market: MarketInstance) -> float:
    """Minimizer of the scalar dual of the welfare problem.

    The dual objective is the convex quadratic
    ``0.5 * s1 * lam**2 + (sqc + sum_a) * lam``; its stationary point is
    the competitive price.
    """
    return -(market.sqc + market.sum_a) / market.s1


def dual_to_primal_sw(market: MarketInstance, lambda_bar: float) -> np.ndarray:
    """Recover the welfare-optimal allocation from the optimal dual price, one per market.

    Raises:
        InconsistentDual: the candidate price does not clear the market,
            i.e. it is not the true dual optimum; on a batch, the first
            such market is named.
    """
    prices, gaps = np.broadcast_arrays(lambda_bar, abs(aggregate_slack(market, lambda_bar)))
    past = np.flatnonzero(gaps > DUAL_FEASIBILITY_TOL)
    if past.size:
        k = past[0]
        where = f"market {k}: " if gaps.ndim else ""
        raise InconsistentDual(f"{where}price {prices.flat[k]} leaves a supply-demand gap of "
                               f"{gaps.flat[k]:.3e} (tolerance {DUAL_FEASIBILITY_TOL:.0e})")
    return phi(market, lambda_bar)


def solve_modified_primal(market: MarketInstance, cap: float) -> ModifiedPrimalSolution:
    """Optimizer of the capped welfare problem in slack-variable form.

    All four fields follow in closed form from the capped price: the
    allocation is the demand response, the slack is the aggregate slack and
    the slack's dual is the cap headroom.
    """
    cap = _check_cap(cap)
    lam = solve_scalar_lcp(market, cap)
    y_bar = phi(market, lam)
    return ModifiedPrimalSolution(
        y_bar=y_bar,
        s_bar=_scalar(y_bar.sum(axis=-1) - market.sum_a),
        lambda_bar=lam,
        mu_s_bar=cap - lam,
    )


def change_of_variables_matrix(market: MarketInstance) -> np.ndarray:
    """Invertible map from (allocation, scalar dual) to (allocation, slack).

    Block structure ``[[I, 1/q**2], [0, s2]]`` of size (N+1, N+1), one per
    market of a batch; the determinant equals ``s2 > 0``.
    """
    n = market.n
    m = np.zeros((*market.q.shape[:-1], n + 1, n + 1))
    m[..., :n, :n] = np.eye(n)
    m[..., :n, n] = 1.0 / market.q**2
    m[..., n, n] = market.s2
    return m


def map_sce_to_modified_primal(
    market: MarketInstance, sce: SceSolution
) -> tuple[np.ndarray, float]:
    """Push a minimum-adjustment solution through the change of variables.

    Returns the (allocation, slack) pair of the slack-variable problem;
    must agree with :func:`solve_modified_primal` for a correct solver.
    """
    if sce.x_star.shape != market.q.shape:
        raise DimensionMismatch(
            f"x_star has shape {sce.x_star.shape}, expected {market.q.shape}"
        )
    stacked = np.concatenate([sce.x_star, np.asarray(sce.nu_star)[..., None]], axis=-1)
    # One matrix-vector product per market (numpy's matmul takes each as a gemv).
    image = (change_of_variables_matrix(market) @ stacked[..., None])[..., 0]
    return image[..., : market.n], _scalar(image[..., market.n])


def kkt_residual_sce(
    market: MarketInstance, cap: float, candidate: SceSolution
) -> KktResidualReport:
    """Quantify how far a candidate is from capped-equilibrium optimality.

    The four residuals are the stationarity infinity-norm, the absolute
    supply-demand gap, the cap overshoot ``max(0, lam - cap)`` and the
    complementarity gap ``|nu * (cap - lam)| + max(0, -nu)``, each ``max``
    taken by :func:`_positive_part`.  The cap is not checked here: a cap or
    a candidate that is not finite gives residuals that are not finite.
    """
    shape = market.q.shape
    if candidate.x_star.shape != shape:
        raise DimensionMismatch(f"x_star has shape {candidate.x_star.shape}, expected {shape}")
    if candidate.u_star.shape != shape:
        raise DimensionMismatch(f"u_star has shape {candidate.u_star.shape}, expected {shape}")
    lam = candidate.lambda_star
    nu = candidate.nu_star
    stationarity = market.q * candidate.x_star + market.c0 + candidate.u_star
    stationarity += np.asarray(lam)[..., None]
    return KktResidualReport(
        stationarity_norm=_scalar(np.abs(stationarity).max(axis=-1)),
        supply_demand_gap=_scalar(abs(candidate.x_star.sum(axis=-1) - market.sum_a)),
        cap_violation=_positive_part(lam - cap),
        complementarity_gap=abs(nu * (cap - lam)) + _positive_part(-nu),
    )


def _positive_part(value):
    """``max(0, value)`` as ``(|value| + value) / 2``, for a float or an array alike.

    Exact, with no clamp: ``+0.0`` wherever ``value <= 0`` (``-0.0``
    included), and ``value`` itself above 0, up to half of float64's range,
    past which it overflows to inf.  A NaN stays NaN.
    """
    return 0.5 * (abs(value) + value)


def _bracket_root(slack, lo, hi, slack_lo, slack_hi, tolerance):
    """Shrink ``[lo, hi]``, where ``slack(lo) > 0 >= slack(hi)``, to width <= ``tolerance``.

    Safeguarded false position (Dekker 1969, Brent 1973): each step is the
    bracket's secant point, kept ``tolerance / 4`` and at least one ulp
    inside it, or the midpoint after a secant step that did not halve the
    bracket, so the bracket halves at least every two calls.  Returns
    ``(lo, hi)``, early if they are adjacent floats.

    The ends may be arrays, one bracket per entry, and ``slack`` is then
    called on all of them at once: each bracket moves as it would alone,
    bit for bit, until it is done, and then stays.  A bracket of width 0
    is done from the start.
    """
    lo, hi, slack_lo, slack_hi = np.broadcast_arrays(lo, hi, slack_lo, slack_hi)
    margin = 0.25 * tolerance
    use_mid = np.zeros(lo.shape, dtype=bool)
    active = hi - lo > tolerance
    while active.any():
        mid = 0.5 * (lo + hi)
        active &= (mid != lo) & (mid != hi)  # adjacent floats: the bracket cannot shrink
        if not active.any():
            break
        # The secant point, clamped as Python's max and min would; a bracket
        # that is done may give NaN or inf here, which is never used.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            x = lo + slack_lo * (hi - lo) / (slack_lo - slack_hi)
        for bound in (lo + margin, np.nextafter(lo, hi)):
            x = np.where(bound > x, bound, x)
        for bound in (hi - margin, np.nextafter(hi, lo)):
            x = np.where(bound < x, bound, x)
        x = np.where(use_mid | ~((lo < x) & (x < hi)), mid, x)  # or the secant point is NaN
        width = hi - lo
        value = slack(x)
        up = active & (value > 0.0)
        down = active & ~up
        lo, slack_lo = np.where(up, x, lo), np.where(up, value, slack_lo)
        hi, slack_hi = np.where(down, x, hi), np.where(down, value, slack_hi)
        use_mid = ~use_mid & (hi - lo > 0.5 * width)  # a done bracket never reads it
        active &= hi - lo > tolerance
    return lo, hi


def lcp_oracle(market: MarketInstance, cap: float, tolerance: float = 1e-10) -> float:
    """Independent solver for the scalar complementarity relation.

    Treats the aggregate slack as a black-box decreasing function: either
    the price sits at the cap with nonnegative slack, or the slack has a
    root below the cap, bracketed by doubling steps leftward and closed by
    safeguarded false position (:func:`_bracket_root`): for any decreasing
    slack at most twice bisection's evaluations plus one, and about three
    for the affine one.  Deliberately avoids the closed-form ``min``
    shortcut so it can serve as an oracle for :func:`solve_scalar_lcp`.

    On a batch, each market keeps its own branch, bracket and steps, masked
    where it is done, and each slack call evaluates the whole batch.

    Args:
        market: validated market, or a batch.
        cap: finite price cap, or one per market of a batch.
        tolerance: width of the final bracket, whose midpoint is returned.
    """
    cap = _check_cap(cap)
    if not 0.0 < tolerance < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tolerance}")

    cap = np.broadcast_to(cap, np.broadcast_shapes(np.shape(cap), np.shape(market.sum_a)))
    slack_cap = np.asarray(aggregate_slack(market, cap))
    # Cap branch: price pinned at the cap, slack already nonnegative.
    # Elsewhere, the clearing branch: bracket the slack's root leftward of
    # the cap, then close the bracket.  The slack grows without bound as the
    # price drops, so the bracket expansion always terminates.
    clearing = ~(slack_cap >= 0.0)
    lo = hi = cap
    if clearing.any():
        step = 1.0 + 0.5 * np.abs(cap)
        lo = cap - step
        slack_lo = aggregate_slack(market, lo)
        grow = clearing & (slack_lo <= 0.0)
        while grow.any():
            step = np.where(grow, 2.0 * step, step)
            if (grow & (step > 1e30)).any():
                raise ArithmeticError("failed to bracket the market-clearing price")
            lo = cap - step
            slack_lo = aggregate_slack(market, lo)
            grow &= slack_lo <= 0.0
        lo = np.where(clearing, lo, cap)
        lo, hi = _bracket_root(
            lambda lam: aggregate_slack(market, lam), lo, cap, slack_lo, slack_cap, tolerance
        )
    lam = np.where(clearing, 0.5 * (lo + hi), cap)
    # At large prices one ulp may exceed the tolerance; audit at the
    # accuracy the bracket reached.
    accuracy = np.where(hi - lo > tolerance, hi - lo, tolerance)

    # Exhaustive audit: both complementarity factors must be (numerically)
    # nonnegative and at least one of them zero.
    slack = np.asarray(aggregate_slack(market, lam))
    headroom = cap - lam
    feas = 4.0 * np.where(market.s1 > 1.0, market.s1, 1.0) * accuracy
    nearer = np.where(np.abs(headroom) < np.abs(slack), np.abs(headroom), np.abs(slack))
    failed = (slack < -feas) | (headroom < -feas) | (nearer > feas)
    if failed.any():
        first = np.unravel_index(np.argmax(failed), failed.shape)
        raise ArithmeticError(
            f"complementarity audit failed: slack={slack[first]:.3e}, headroom={headroom[first]:.3e}"
        )
    return _scalar(lam)
