"""Self-verification battery: every documented invariant as a named check.

``CHECKS`` is the ordered registry of ``(name, check)`` pairs, each check a
function ``(config, rng, instances) -> (passed, detail)``.  ``run_verify``
runs it for the ``verify`` CLI subcommand; the test suite parametrizes over it.
Each check is the one statement of its invariant: the tests do not restate it.

Every algebraic check but the two projection checks is a per-market residual
held to a tolerance (:func:`_residual_check`); an exact property (``phi``
strictly decreasing, utility strictly concave, complementarity by structure,
the slack-cap identity) is a violation measure held to 0.  Such a check keeps
``residual`` and ``tol`` as attributes, and the test suite also evaluates each
residual on markets drawn by hypothesis.  A non-finite residual fails.  Each
such check draws all of its markets first, as one batch per agent count
(:func:`random_markets`), then evaluates its residual once per batch, over
the batch's leading market axis, as the closed forms take it.  The
references that stay independent of these checks live in the test suite: the
dense-solve oracles of the CE and the capped equilibrium, the per-agent drift
oracles, and table1's published values.

The closed-loop simulation checks are each one run of
:func:`dynamics.integrate`'s march from the zero state, judged by what the
run recorded: the final error and the dip of ``mu`` below zero, as
:func:`dynamics.convergence_report` reads them, and whether the Lyapunov
value is monotone.  The records pass through a window of about 1 MiB and are
folded into the report window by window, so a run's memory does not grow
with its horizon.
"""

from __future__ import annotations

import math
import tempfile
import time
import zlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import dynamics as dyn
from . import equilibrium as eq
from . import market as mkt
from . import scenario as scn
from .errors import EnergyShareError, ValidationError

CAP_RANGE = (-10.0, 30.0)

# Ranges of random_market's draws: WIDE_RANGES for the algebraic checks, and
# narrower ones for the simulation checks: moderate curvature spread keeps
# the settling times (and hence the battery's runtime) bounded.
WIDE_RANGES = dict(n_max=8, q_lo=0.1, q_hi=20.0, c0_lo=-100.0, c0_hi=0.0, a_hi=50.0)
SIM_RANGES = dict(n_max=5, q_lo=0.5, q_hi=4.0, c0_lo=-30.0, c0_hi=0.0, a_hi=20.0)

RESIDUAL_TOL = 1e-9
ORACLE_TOL = 1e-8

# run_verify's largest instance count.  The oracle-agreement check draws
# every instance and solves them in batches of one agent count, at ~1 us
# each on one core of a 2-vCPU Xeon VM (~40 us one market at a time), so
# this many take about 0.1 s, and the whole battery about 0.15 s.
MAX_INSTANCES = 10**5


@dataclass(frozen=True)
class CheckResult:
    """One check's outcome, its detail line and its wall time in seconds."""

    name: str
    passed: bool
    detail: str
    wall_s: float


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]
    seed: int
    num_random_instances: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary_lines(self) -> list[str]:
        lines = [
            f"[{'PASS' if c.passed else 'FAIL'}] {c.name}: {c.detail}" for c in self.checks
        ]
        n_fail = sum(not c.passed for c in self.checks)
        lines.append(
            f"{len(self.checks) - n_fail}/{len(self.checks)} checks passed "
            f"(seed={self.seed}, instances={self.num_random_instances})"
        )
        return lines


def _table_ranges(ranges) -> tuple[dict, np.ndarray, np.ndarray]:
    """``WIDE_RANGES | ranges``, with the low ends and spans of the rows ``q``, ``c0``, ``a``."""
    unknown = ranges.keys() - WIDE_RANGES.keys()
    if unknown:
        raise TypeError(f"random_market got unknown ranges {sorted(unknown)}")
    r = WIDE_RANGES | ranges
    low = np.array([[r["q_lo"]], [r["c0_lo"]], [0.0]])
    span = np.array([[r["q_hi"] - r["q_lo"]], [r["c0_hi"] - r["c0_lo"]], [r["a_hi"]]])
    return r, low, span


def random_market(rng, n=None, **ranges):
    """A valid random market of ``n`` agents, or 1 to ``n_max``, over ``WIDE_RANGES | ranges``.

    Draws ``n`` first when it is not given, then the rows ``q``, ``c0``
    and ``a`` of one ``(3, n)`` table as ``low + rng.random((3, n)) *
    span``: numpy's ``uniform`` computes each draw the same way, so these
    are the bytes, and the generator state, of one ``uniform`` call per
    row.  The table goes to ``market._validated`` without a copy.
    """
    r, low, span = _table_ranges(ranges)
    if n is None:
        n = int(rng.integers(1, r["n_max"] + 1))
    return mkt._validated(low + rng.random((3, n)) * span)


def random_markets(rng, count: int, **ranges) -> list:
    """``count`` valid random markets over ``WIDE_RANGES | ranges``, as one batch per agent count.

    Draws the ``count`` agent counts first, then, for each distinct count
    ``n`` in increasing order, the ``(3, k, n)`` table of the ``k`` markets
    of that size, as :func:`random_market` draws one.  Each table goes to
    ``market._validated`` in one pass, which makes it one batch: a
    ``MarketInstance`` with ``(k, n)`` columns.  Returns the batches in
    that order.  Markets of different sizes are not padded into one table:
    padding would reorder numpy's pairwise sums, and the aggregates would
    differ from the market's own by an ulp.
    """
    r, low, span = _table_ranges(ranges)
    sizes = rng.integers(1, r["n_max"] + 1, count)
    return [
        mkt._validated(low[..., None] + rng.random((3, k, n)) * span[..., None])
        for n, k in zip(*np.unique(sizes, return_counts=True))
    ]


def check_rng(seed: int, name: str) -> np.random.Generator:
    """The generator of check ``name``: keyed by the seed and a stable hash of the name."""
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def _residual_scale(market):
    return np.maximum(1.0, np.maximum(np.abs(market.c0), np.abs(market.a)).max(axis=-1))


def _per_market(market) -> tuple:
    """The batch shape of ``market``: ``()`` for one market, ``(k,)`` for a batch of ``k``."""
    return np.shape(market.sum_a)


def _worst(values) -> float:
    """The largest of the per-market ``values`` of some batches; NaN if any is NaN."""
    return float(np.max(np.concatenate([np.ravel(v) for v in values])))


def _residual_check(tol, detail, count=50):
    """Make ``residual(market, rng)`` a check: its worst value over min(count,
    instances) random markets, or all of them for ``count=None``, must stay
    within ``tol``; a non-finite value fails.  The markets are drawn first,
    as :func:`random_markets` batches, one per agent count, and the
    residual then evaluates each batch whole: it draws its own numbers
    (caps, prices, directions) from ``rng`` as one array per batch and
    returns one value per market.  ``detail`` is formatted with the worst
    value and the instance count.  The check keeps ``residual`` and ``tol``
    as attributes, so that the tests can draw their own markets; a single
    market is the batch of shape ``()``.
    """
    def decorate(residual):
        def check(config, rng, instances):
            batches = random_markets(rng, instances if count is None else min(count, instances))
            worst = _worst([residual(m, rng) for m in batches])
            return worst <= tol, detail.format(worst, instances)
        check.residual, check.tol = residual, tol
        return check
    return decorate


def _settling_horizon(rate, fixed) -> float:
    """Horizon for the closed loop to settle to ``SUMMARY_TOLERANCE`` of ``fixed`` at ``rate``."""
    start = max(1.0, float(np.abs(fixed).max()))
    return 1.2 * np.log(start / (0.3 * scn.SUMMARY_TOLERANCE)) / rate


def _closed_loop_run(market, cap, rate=None, h=0.02, t_end=None, method="rk4", record_stride=25):
    """Integrate the closed loop from zero to ``t_end``, or the settling horizon at ``rate``
    (by default the closed loop's decay rate at ``cap``).

    Returns the run's convergence report at ``SUMMARY_TOLERANCE``, whether its
    Lyapunov value is monotone, and a detail line.  The run's records pass
    through a window of about 1 MiB (``dynamics._march``).  Raises
    ``ValidationError`` if the fixed point or the settling horizon is not
    finite (an input or a cap past float64's range), and, as
    ``dynamics.integrate`` does, ``NonfiniteState`` for a run that
    overflows, with no numpy warning before it.
    """
    fixed = scn._fixed_point(market, cap)
    if t_end is None:
        if rate is None:
            rate = dyn.closed_loop_decay_rate(market, cap)
        horizon = _settling_horizon(rate, fixed)
        if not np.isfinite(horizon):
            raise ValidationError(f"settling horizon {horizon} at cap {cap:g} is not finite")
        t_end = max(50.0 * h, horizon)
    lay = dyn.state_layout(market.n)
    windows = dyn._march(
        dyn.closed_loop_rhs(market, cap), np.zeros(lay.dim), h, t_end, method=method,
        reference=fixed, mu_index=lay.mu, record_stride=record_stride, bounded=True,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        report, v_first, final_time = dyn._folded_report(windows, scn.SUMMARY_TOLERANCE)
    rise = report.worst_lyapunov_increase
    monotone = rise <= 1e-8 * max(1.0, v_first)
    return report, monotone, (
        f"err={report.final_error:.1e}@t={final_time:.0f}, "
        f"mu dip {report.mu_negativity:.1e}, V increase {rise:.1e} "
        f"({'' if monotone else 'not '}monotone)"
    )


# --- market model -----------------------------------------------------------
def _projection_passthrough(config, rng, instances):
    xs = rng.uniform(-100, 100, 200)
    ys = rng.uniform(1e-12, 50, 200)
    bad = int((mkt.conditional_projection(xs, ys) != xs).sum())
    return bad == 0, f"{bad} violations over 200 samples with y > 0"


def _projection_boundary(config, rng, instances):
    xs = rng.uniform(-100, 100, 200)
    vals = mkt.conditional_projection(xs, 0.0)
    ok = bool(((vals >= 0.0) & (vals == np.maximum(0.0, xs))).all())
    return ok, "boundary branch equals max(0, x) on 200 samples"


@_residual_check(0.0, "worst count of components of phi not strictly decreasing: {:g}")
def _phi_decreasing(m, rng):
    lam1 = rng.uniform(-20, 20, _per_market(m))
    lam2 = lam1 + rng.uniform(0.1, 10, _per_market(m))
    diff = mkt.phi(m, lam1) - mkt.phi(m, lam2)
    return np.count_nonzero(~(diff > 0), axis=-1).astype(float)


@_residual_check(1e-9, "max deviation from slope -s1, relative to s1 * delta: {:.2e}")
def _slack_affine(m, rng):
    lam = rng.uniform(-20, 20, _per_market(m))
    delta = rng.uniform(0.1, 5, _per_market(m))
    lhs = eq.aggregate_slack(m, lam + delta) - eq.aggregate_slack(m, lam)
    return np.abs(lhs + m.s1 * delta) / (m.s1 * delta)


@_residual_check(0.0, "worst count of agents whose utility is not strictly concave: {:g}")
def _utility_concave(m, rng):
    x1, x2 = rng.uniform(-20, 20, (2, *m.q.shape))
    theta = rng.uniform(0.05, 0.95, m.q.shape)
    u = rng.uniform(-5, 5, m.q.shape)
    chord = theta * mkt.utility(m, x1, u) + (1 - theta) * mkt.utility(m, x2, u)
    gap = mkt.utility(m, theta * x1 + (1 - theta) * x2, u) - chord
    return np.count_nonzero(~(gap > 0), axis=-1).astype(float)


# --- equilibrium solver -----------------------------------------------------
@_residual_check(RESIDUAL_TOL, "worst scaled KKT residual {:.2e}")
def _ce_kkt(m, rng):
    ce = eq.solve_ce(m)
    stat = np.abs(m.q * ce.x_bar + m.c0 + np.asarray(ce.lambda_bar)[..., None]).max(axis=-1)
    gap = np.abs(ce.x_bar.sum(axis=-1) - m.sum_a)
    return np.max([stat, gap], axis=0) / _residual_scale(m)


def _exact_sums(rows):
    """``math.fsum`` of each market's row of ``rows``, its last axis."""
    sums = map(math.fsum, np.reshape(rows, (-1, rows.shape[-1])).tolist())
    return np.reshape(list(sums), rows.shape[:-1])


@_residual_check(1e-12, "worst scaled |dual - exactly summed CE price| {:.2e}")
def _dual_equals_ce(m, rng):
    # The CE price -(sum c0/q + sum a) / sum 1/q from the columns, each sum
    # exact, so that a fault in the market's aggregates shows here.
    price = -(_exact_sums(m.c0 / m.q) + _exact_sums(m.a)) / _exact_sums(1.0 / m.q)
    return np.abs(eq.solve_sw_dual(m) - price) / _residual_scale(m)


@_residual_check(RESIDUAL_TOL, "worst residual field {:.2e}")
def _sce_kkt(m, rng):
    cap = rng.uniform(*CAP_RANGE, _per_market(m))
    return eq.kkt_residual_sce(m, cap, eq.solve_sce(m, cap)).max_violation()


@_residual_check(0.0, "worst min(|nu_star|, |cap - lambda_star|) {:.2e}, exactly 0")
def _complementarity_structure(m, rng):
    cap = rng.uniform(*CAP_RANGE, _per_market(m))
    sol = eq.solve_sce(m, cap)
    return np.minimum(np.abs(sol.nu_star), np.abs(sol.lambda_star - cap))


@_residual_check(0.0, "under a slack cap, worst |u*| or change of the allocation {:.2e}")
def _inactive_cap_identity(m, rng):
    ce = eq.solve_ce(m)
    sol = eq.solve_sce(m, ce.lambda_bar + rng.uniform(0.0, 10.0, _per_market(m)))
    return np.abs(np.concatenate([sol.u_star, sol.x_star - ce.x_bar], axis=-1)).max(axis=-1)


@_residual_check(1e-9, "slope s1/s2 per unit cap decrease, rel err {:.2e}")
def _nu_monotone(m, rng):
    # A nu_star that does not increase as the cap drops has a relative error >= 1.
    cap1 = eq.solve_ce(m).lambda_bar - rng.uniform(0.5, 10.0, _per_market(m))
    delta = rng.uniform(0.1, 3.0, _per_market(m))
    slope = (eq.solve_sce(m, cap1 - delta).nu_star - eq.solve_sce(m, cap1).nu_star) / delta
    return np.abs(slope - m.s1 / m.s2) / (m.s1 / m.s2)


@_residual_check(RESIDUAL_TOL, "worst mapping residual {:.2e}")
def _change_of_variables(m, rng):
    cap = rng.uniform(*CAP_RANGE, _per_market(m))
    y_img, s_img = eq.map_sce_to_modified_primal(m, eq.solve_sce(m, cap))
    mp = eq.solve_modified_primal(m, cap)
    return np.max([
        np.abs(y_img - mp.y_bar).max(axis=-1),
        np.abs(s_img - mp.s_bar),
        np.abs(np.linalg.det(eq.change_of_variables_matrix(m)) - m.s2) / m.s2,
    ], axis=0)


@_residual_check(RESIDUAL_TOL, "worst complementarity violation {:.2e}")
def _modified_primal_complementarity(m, rng):
    mp = eq.solve_modified_primal(m, rng.uniform(*CAP_RANGE, _per_market(m)))
    scale = _residual_scale(m)
    return np.max([
        np.maximum(0.0, -mp.s_bar) / scale,
        np.abs(mp.s_bar * mp.mu_s_bar) / scale,
        # Held tighter: the slack's dual (the cap headroom) is never below
        # zero, and the allocation is phi at the price to 1e-12 absolute.
        np.where(mp.mu_s_bar < 0.0, np.inf, 0.0),
        np.abs(mp.y_bar - mkt.phi(m, mp.lambda_bar)).max(axis=-1) * (RESIDUAL_TOL / 1e-12),
    ], axis=0)


@_residual_check(
    1e-12, "worst rival shortfall below |u*|, or scaled clearing gap: {:.2e}", count=20
)
def _min_norm(m, rng):
    shape = _per_market(m)
    cap = eq.solve_ce(m).lambda_bar - rng.uniform(0.5, 10.0, shape)
    sol = eq.solve_sce(m, cap)
    # Per-market values as columns against the agent axis.
    nu, s2 = np.asarray(sol.nu_star)[..., None], np.asarray(m.s2)[..., None]
    # Scaled copies of the minimum-norm direction with a larger dual.
    rivals = [scale * nu / m.q for scale in (1.5, 2.0, 5.0)]
    # Arbitrary adjustments at an admissible price; each must clear the market.
    lam_alt = np.asarray(cap - rng.uniform(0.0, 5.0, shape))
    base = (np.asarray(eq.aggregate_slack(m, lam_alt))[..., None] / s2) / m.q
    gaps = []
    for _ in range(5):
        v = rng.normal(size=m.q.shape)
        rival = base + (v - (1.0 / m.q) * (v / m.q).sum(axis=-1, keepdims=True) / s2)
        gaps.append(np.abs((-(m.c0 + rival + lam_alt[..., None]) / m.q).sum(axis=-1) - m.sum_a))
        rivals.append(rival)
    shortfall = np.linalg.norm(sol.u_star, axis=-1) - np.linalg.norm(rivals, axis=-1).min(axis=0)
    return np.max([shortfall, *np.divide(gaps, _residual_scale(m))], axis=0)


@_residual_check(
    ORACLE_TOL, "max |oracle - closed form| = {:.2e} over {} instances", count=None
)
def _oracle_agreement(m, rng):
    cap = rng.uniform(*CAP_RANGE, _per_market(m))
    return np.abs(eq.lcp_oracle(m, cap, 1e-9) - eq.solve_scalar_lcp(m, cap))


# --- dynamics ---------------------------------------------------------------
def _xsym_residual(m, rng):
    # Both bounds in one: the factorization to 1e-12, and the top eigenvalue
    # to 1e-10, or to dim * eps * ||X_sym||_2 where that is larger: a computed
    # eigenvalue is accurate only to about that.  X_sym's eigenvalues are 0
    # and -(q_i + 1/q_i), so ||X_sym||_2 = max(q + 1/q).
    cert = dyn.stability_certificate(m)
    spread = dyn.state_layout(m.n).dim * np.finfo(float).eps * (m.q + 1.0 / m.q).max(axis=-1)
    eig_scale = np.maximum(1.0, spread / 1e-10)
    return np.maximum(cert.factorization_residual, 1e-2 * cert.max_eigenvalue_x_sym / eig_scale)


def _xsym_factorization(config, rng, instances):
    worst = _worst([_xsym_residual(m, rng) for m in (config.market, *random_markets(rng, 10))])
    return worst <= _xsym_factorization.tol, (
        f"worst max(factorization residual, 1e-2 * scaled max eigenvalue) {worst:.2e} "
        "over the config and 10 draws"
    )


_xsym_factorization.residual, _xsym_factorization.tol = _xsym_residual, 1e-12


@_residual_check(RESIDUAL_TOL, "worst scaled drift at the fixed point {:.2e}")
def _fixed_point_residual(m, rng):
    cap = rng.uniform(*CAP_RANGE, _per_market(m))
    state = dyn.assemble_equilibrium(m, cap)
    return np.abs(dyn.rhs_closed_loop(m, state, cap)).max(axis=-1) / _residual_scale(m)


def _settling_instance(rng):
    # Reject draws whose slowest mode would need an excessive horizon.
    for _ in range(40):
        m = random_market(rng, **SIM_RANGES)
        cap = eq.solve_ce(m).lambda_bar + rng.uniform(-8.0, 4.0)
        rate = dyn.closed_loop_decay_rate(m, cap)
        if rate >= 0.008:
            break
    return m, cap, rate


def _closed_loop_random_limits(config, rng, instances):
    details = []
    for _ in range(3):
        m, cap, rate = _settling_instance(rng)
        report, monotone, detail = _closed_loop_run(m, cap, rate)
        if not (report.converged and report.mu_negativity == 0.0 and monotone):
            return False, f"{detail} (nu*={eq.solve_sce(m, cap).nu_star:.3f})"
        details.append(detail)
    return True, "final state matches the closed-form equilibrium: " + "; ".join(details)


def _closed_loop_config_convergence(config, rng, instances):
    report, monotone, detail = _closed_loop_run(config.market, config.cap.lambda_max)
    return report.converged and report.mu_negativity == 0.0 and monotone, detail


# The Euler check's run: Euler resolves the per-step Lyapunov slack only
# when h**2 * |drift|**2 stays below it, hence the small step on the early
# transient, and every step is recorded.
EULER_RUN = dict(h=1e-4, t_end=20.0, method="euler", record_stride=1)


def _euler_instance(rng):
    """The Euler check's market and a cap that binds on it."""
    m = random_market(rng, **SIM_RANGES)
    return m, eq.solve_ce(m).lambda_bar - rng.uniform(1.0, 5.0)


def _euler_lyapunov_monotone(config, rng, instances):
    report, monotone, detail = _closed_loop_run(*_euler_instance(rng), **EULER_RUN)
    return monotone and report.mu_negativity == 0.0, detail


def _open_loop_and_reduced_limits(config, rng, instances):
    m = config.market
    lay = dyn.state_layout(m.n)

    def end_state(matrices, reference):
        return dyn.integrate(
            dyn.affine_rhs(*matrices), np.zeros(matrices[1].size), 0.02, 700.0,
            method="rk4", reference=reference, record_stride=100,
        ).final_state

    full_end = end_state(dyn.open_loop_matrices(m), dyn.open_loop_equilibrium(m))
    red_end = end_state(dyn.reduced_matrices(m), dyn.reduced_equilibrium(m))
    # The reduced state (x, lam) is not a prefix of the layout.
    full_x, full_lam = full_end[lay.x], full_end[lay.lam]
    red_x, red_lam = red_end[: m.n], red_end[m.n]
    ce = eq.solve_ce(m)
    err_x = float(np.max([np.abs(full_x - ce.x_bar), np.abs(red_x - ce.x_bar)]))
    err_lam = float(np.max([abs(full_lam - ce.lambda_bar), abs(red_lam - ce.lambda_bar)]))
    agree = float(np.max([*np.abs(full_x - red_x), abs(full_lam - red_lam)]))
    ok = all(err <= scn.SUMMARY_TOLERANCE for err in (err_x, err_lam, agree))
    return ok, (
        f"x err {err_x:.2e}, lam err {err_lam:.2e} (both models), "
        f"the models agree to {agree:.2e}"
    )


def _step_halving_order(config, rng, instances):
    m = mkt.validate_market([(0.8, -10.0, 2.0), (1.6, -6.0, 5.0), (2.5, -15.0, 1.0)])
    lay = dyn.state_layout(m.n)
    rhs = dyn.closed_loop_rhs(m, 3.0)
    y0 = np.zeros(lay.dim)

    def end_state(h, method):
        return dyn.integrate(rhs, y0, h, 10.0, method=method, mu_index=lay.mu,
                             record_stride=10**6).final_state

    ref = end_state(1e-3, "rk4")
    e1, e2, r1, r2 = (
        float(np.abs(end_state(h, method) - ref).max())
        for h, method in ((0.02, "euler"), (0.01, "euler"), (0.2, "rk4"), (0.1, "rk4"))
    )
    euler_ratio = e1 / e2
    rk4_ratio = r1 / r2
    ok = 1.5 <= euler_ratio <= 3.0 and rk4_ratio >= 6.0
    return ok, f"halving h: euler err ratio {euler_ratio:.2f} (~2), rk4 {rk4_ratio:.1f} (~16)"


# --- scenario i/o -----------------------------------------------------------
def _config_roundtrip(config, rng, instances):
    text = scn.config_to_json(config)
    again = scn.config_to_json(scn.load_config(text))
    return text == again, "serialize(load(serialize(config))) is byte-identical"


def _solve_deterministic(config, rng, instances):
    outs = {scn.report_to_json(scn.run_solve(config)) for _ in range(3)}
    return len(outs) == 1, "3 consecutive solves byte-identical"


def _csv_schema(config, rng, instances):
    m = config.market
    eq_state = scn._fixed_point(m, config.cap.lambda_max)
    small = replace(config, sim=scn.SimSettings(
        h=0.01, t_end=0.5, method="rk4", record_stride=5, init=eq_state))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "traj.csv"
        scn.run_simulate(small, path)
        lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    expected = scn.trajectory_header(m.n)
    if header != expected:
        return False, f"header mismatch: {header[:3]}..."
    for line in lines[1:]:
        vals = [float(v) for v in line.split(",")]
        if len(vals) != len(expected) or not np.isfinite(vals).all():
            return False, "row failed to parse to finite floats"
    return True, f"{len(expected)} columns (5N+6 incl. t, V, eq_residual), all rows finite"


def _sweep_monotone(config, rng, instances):
    lam_ce = eq.solve_ce(config.market).lambda_bar
    caps = sorted(rng.uniform(lam_ce - 10.0, lam_ce + 5.0, 9))
    sweep = scn.run_sweep(config, caps)
    nus, lams = sweep.nu_star, sweep.lambda_star
    ok = bool((nus[:-1] >= nus[1:] - 1e-12).all() and (lams[:-1] <= lams[1:] + 1e-12).all()
              and (lams <= lam_ce + 1e-12).all())
    return ok, "nu_star nonincreasing, lambda_star nondecreasing and capped at the CE price"


CHECKS = (
    ("market.projection_passthrough", _projection_passthrough),
    ("market.projection_boundary", _projection_boundary),
    ("market.phi_decreasing", _phi_decreasing),
    ("market.slack_affine", _slack_affine),
    ("market.utility_concave", _utility_concave),
    ("equilibrium.ce_kkt", _ce_kkt),
    ("equilibrium.dual_equals_ce", _dual_equals_ce),
    ("equilibrium.sce_kkt", _sce_kkt),
    ("equilibrium.complementarity_structure", _complementarity_structure),
    ("equilibrium.inactive_cap_identity", _inactive_cap_identity),
    ("equilibrium.nu_monotone", _nu_monotone),
    ("equilibrium.change_of_variables", _change_of_variables),
    ("equilibrium.modified_primal_complementarity", _modified_primal_complementarity),
    ("equilibrium.min_norm", _min_norm),
    ("equilibrium.oracle_agreement", _oracle_agreement),
    ("dynamics.xsym_factorization", _xsym_factorization),
    ("dynamics.fixed_point_residual", _fixed_point_residual),
    ("dynamics.closed_loop_random_limits", _closed_loop_random_limits),
    ("dynamics.closed_loop_config_convergence", _closed_loop_config_convergence),
    ("dynamics.euler_lyapunov_monotone", _euler_lyapunov_monotone),
    ("dynamics.open_loop_and_reduced_limits", _open_loop_and_reduced_limits),
    ("dynamics.step_halving_order", _step_halving_order),
    ("scenario.config_roundtrip", _config_roundtrip),
    ("scenario.solve_deterministic", _solve_deterministic),
    ("scenario.csv_schema", _csv_schema),
    ("scenario.sweep_monotone", _sweep_monotone),
)


def run_verify(config, num_random_instances: int = 200) -> VerificationReport:
    """Run every check of ``CHECKS``, in order, and report per-check diagnostics.

    Each check draws from its own generator, ``check_rng(config.seed, name)``,
    so it draws the same instances alone as in the battery.  A check that
    raises an :class:`EnergyShareError` fails.  Each :class:`CheckResult`
    carries the check's wall time, ``wall_s``, which the summary lines leave
    out, so that ``verify``'s output stays the same from run to run.

    Args:
        config: scenario whose market anchors the instance-specific checks
            and whose ``seed`` seeds every check's generator.
        num_random_instances: sample size for the random-instance suites
            (the oracle-agreement check uses all of them; the purely
            algebraic ones use min(50, n) draws each); at most
            ``MAX_INSTANCES``.

    Raises:
        ValidationError: ``num_random_instances`` is below 1 or above
            ``MAX_INSTANCES``, the seed is below 0, or a value of the
            config's equilibria is not finite.
    """
    if not 1 <= num_random_instances <= MAX_INSTANCES:
        raise ValidationError(
            f"num_random_instances must be in [1, {MAX_INSTANCES}], got {num_random_instances}"
        )
    if config.seed < 0:
        raise ValidationError(f"seed must be >= 0, got {config.seed}")
    scn.run_solve(config)  # a market past float64's range is an input error, not a failed check
    results = []
    for name, check in CHECKS:
        start = time.perf_counter()
        try:
            passed, detail = check(config, check_rng(config.seed, name), num_random_instances)
        except EnergyShareError as exc:
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name=name, passed=bool(passed), detail=detail,
                                   wall_s=time.perf_counter() - start))
    return VerificationReport(
        checks=tuple(results), seed=config.seed, num_random_instances=num_random_instances
    )
