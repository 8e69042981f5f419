"""Closed-form equilibrium solvers and their verification tools.

Everything here is a pure function of an immutable market.  The central
object is the scalar complementarity relation

    0 <= aggregate_slack(lam)  perp  lambda_max - lam >= 0,

whose unique solution is the capped market price.  Because the aggregate
slack is affine and strictly decreasing in the price, the solution is
``min(ce_price, lambda_max)`` in closed form; an independent bracketing
oracle double-checks that shortcut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InconsistentDual, NonfiniteInput
from .market import MarketInstance, phi

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
        """The largest of the four residuals; NaN if any of them is NaN."""
        return float(np.max([
            self.stationarity_norm,
            self.supply_demand_gap,
            self.cap_violation,
            self.complementarity_gap,
        ]))


def solve_ce(market: MarketInstance) -> CeSolution:
    """Competitive equilibrium of the uncapped market.

    The price clears the market: it is the unique zero of the aggregate
    slack, ``-(sqc + sum_a) / s1``; the allocation is the demand response
    ``phi`` at that price.
    """
    lam = -(market.sqc + market.sum_a) / market.s1
    return CeSolution(x_bar=phi(market, lam), lambda_bar=lam)


def aggregate_slack(market: MarketInstance, lam: float) -> float:
    """Total demand response minus total generation at price ``lam``.

    Affine in the price with slope ``-s1 < 0``.
    """
    return float(phi(market, lam).sum() - market.sum_a)


def _check_cap(cap: float) -> float:
    cap = float(cap)
    if not np.isfinite(cap):
        raise NonfiniteInput(f"price cap must be finite, got {cap!r}")
    return cap


def solve_scalar_lcp(market: MarketInstance, cap: float) -> float:
    """Unique price solving the scalar complementarity relation.

    Since the aggregate slack is affine and strictly decreasing, the
    solution is exactly ``min(ce_price, cap)``: below the cap the market
    clears (slack zero), at the cap the slack stays nonnegative.
    """
    cap = _check_cap(cap)
    lam_ce = solve_ce(market).lambda_bar
    return lam_ce if lam_ce <= cap else cap


def solve_sce(market: MarketInstance, cap: float) -> SceSolution:
    """Minimum-adjustment equilibrium under a price cap, with all duals.

    When the competitive price already respects the cap the adjustment is
    identically zero and the allocation coincides with the competitive one.
    Otherwise the price pins to the cap and the positive slack is absorbed
    by the scalar dual ``nu_star = aggregate_slack(cap) / s2``.
    """
    cap = _check_cap(cap)
    lam_ce = solve_ce(market).lambda_bar
    if lam_ce <= cap:
        lam_star, nu_star = lam_ce, 0.0
    else:
        lam_star = cap
        nu_star = aggregate_slack(market, cap) / market.s2
    x_star = phi(market, lam_star) - nu_star / market.q**2
    u_star = nu_star / market.q
    return SceSolution(
        x_star=x_star,
        lambda_star=lam_star,
        u_star=u_star,
        nu_star=nu_star,
        pi1_star=market.s1 * nu_star,
        pi2_star=-u_star,
    )


def solve_sw_dual(market: MarketInstance) -> float:
    """Minimizer of the scalar dual of the welfare problem.

    The dual objective is the convex quadratic
    ``0.5 * s1 * lam**2 + (sqc + sum_a) * lam``; its stationary point is
    the competitive price.
    """
    return -(market.sqc + market.sum_a) / market.s1


def dual_to_primal_sw(market: MarketInstance, lambda_bar: float) -> np.ndarray:
    """Recover the welfare-optimal allocation from the optimal dual price.

    Raises:
        InconsistentDual: the candidate price does not clear the market,
            i.e. it is not the true dual optimum.
    """
    y_bar = phi(market, lambda_bar)
    gap = abs(float(y_bar.sum()) - market.sum_a)
    if gap > DUAL_FEASIBILITY_TOL:
        raise InconsistentDual(
            f"price {lambda_bar} leaves a supply-demand gap of {gap:.3e} "
            f"(tolerance {DUAL_FEASIBILITY_TOL:.0e})"
        )
    return y_bar


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
        s_bar=float(y_bar.sum()) - market.sum_a,
        lambda_bar=lam,
        mu_s_bar=cap - lam,
    )


def change_of_variables_matrix(market: MarketInstance) -> np.ndarray:
    """Invertible map from (allocation, scalar dual) to (allocation, slack).

    Block structure ``[[I, 1/q**2], [0, s2]]`` of size (N+1, N+1); the
    determinant equals ``s2 > 0``.
    """
    n = market.n
    m = np.zeros((n + 1, n + 1))
    m[:n, :n] = np.eye(n)
    m[:n, n] = 1.0 / market.q**2
    m[n, n] = market.s2
    return m


def map_sce_to_modified_primal(
    market: MarketInstance, sce: SceSolution
) -> tuple[np.ndarray, float]:
    """Push a minimum-adjustment solution through the change of variables.

    Returns the (allocation, slack) pair of the slack-variable problem;
    must agree with :func:`solve_modified_primal` for a correct solver.
    """
    if sce.x_star.shape != (market.n,):
        raise DimensionMismatch(
            f"x_star has shape {sce.x_star.shape}, expected ({market.n},)"
        )
    stacked = np.append(sce.x_star, sce.nu_star)
    image = change_of_variables_matrix(market) @ stacked
    return image[: market.n], float(image[market.n])


def kkt_residual_sce(
    market: MarketInstance, cap: float, candidate: SceSolution
) -> KktResidualReport:
    """Quantify how far a candidate is from capped-equilibrium optimality.

    The four residuals are the stationarity infinity-norm, the absolute
    supply-demand gap, the cap overshoot and the complementarity gap
    ``|nu * (cap - lam)| + max(0, -nu)``.
    """
    cap = _check_cap(cap)
    n = market.n
    if candidate.x_star.shape != (n,):
        raise DimensionMismatch(f"x_star has shape {candidate.x_star.shape}, expected ({n},)")
    if candidate.u_star.shape != (n,):
        raise DimensionMismatch(f"u_star has shape {candidate.u_star.shape}, expected ({n},)")
    lam = candidate.lambda_star
    nu = candidate.nu_star
    stationarity = market.q * candidate.x_star + market.c0 + candidate.u_star + lam
    return KktResidualReport(
        stationarity_norm=float(np.abs(stationarity).max()),
        supply_demand_gap=abs(float(candidate.x_star.sum()) - market.sum_a),
        cap_violation=max(0.0, lam - cap),
        complementarity_gap=abs(nu * (cap - lam)) + max(0.0, -nu),
    )


def _bracket_root(slack, lo, hi, slack_lo, slack_hi, tolerance):
    """Shrink ``[lo, hi]``, where ``slack(lo) > 0 >= slack(hi)``, to width <= ``tolerance``.

    Safeguarded false position (Dekker 1969, Brent 1973): each step is the
    bracket's secant point, kept ``tolerance / 4`` and at least one ulp
    inside it, or the midpoint after a secant step that did not halve the
    bracket, so the bracket halves at least every two calls.  Returns
    ``(lo, hi)``, early if they are adjacent floats.
    """
    margin = 0.25 * tolerance
    use_mid = False
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break  # adjacent floats: the bracket cannot shrink further
        x = mid
        if not use_mid:
            secant = lo + slack_lo * (hi - lo) / (slack_lo - slack_hi)
            x = min(max(secant, lo + margin, math.nextafter(lo, hi)),
                    hi - margin, math.nextafter(hi, lo))
            if not lo < x < hi:
                x = mid  # the secant point is NaN
        width = hi - lo
        value = slack(x)
        if value > 0.0:
            lo, slack_lo = x, value
        else:
            hi, slack_hi = x, value
        use_mid = not use_mid and hi - lo > 0.5 * width
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

    Args:
        market: validated market.
        cap: finite price cap.
        tolerance: width of the final bracket, whose midpoint is returned.
    """
    cap = _check_cap(cap)
    if tolerance <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")

    accuracy = tolerance
    slack_cap = aggregate_slack(market, cap)
    if slack_cap >= 0.0:
        # Cap branch: price pinned at the cap, slack already nonnegative.
        lam = cap
    else:
        # Clearing branch: bracket the slack's root leftward of the cap,
        # then close the bracket.  The slack grows without bound as the
        # price drops, so the bracket expansion always terminates.
        step = 1.0 + 0.5 * abs(cap)
        lo = cap - step
        while (slack_lo := aggregate_slack(market, lo)) <= 0.0:
            step *= 2.0
            lo = cap - step
            if step > 1e30:
                raise ArithmeticError("failed to bracket the market-clearing price")
        lo, hi = _bracket_root(
            lambda lam: aggregate_slack(market, lam), lo, cap, slack_lo, slack_cap, tolerance
        )
        lam = 0.5 * (lo + hi)
        # At large prices one ulp may exceed the tolerance; audit at the
        # accuracy the bracket reached.
        accuracy = max(accuracy, hi - lo)

    # Exhaustive audit: both complementarity factors must be (numerically)
    # nonnegative and at least one of them zero.
    slack = aggregate_slack(market, lam)
    headroom = cap - lam
    feas = 4.0 * max(1.0, market.s1) * accuracy
    if slack < -feas or headroom < -feas or min(abs(slack), abs(headroom)) > feas:
        raise ArithmeticError(
            f"complementarity audit failed: slack={slack:.3e}, headroom={headroom:.3e}"
        )
    return lam
