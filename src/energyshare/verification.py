"""Self-verification battery: every documented invariant as a named check.

``CHECKS`` is the ordered registry of ``(name, check)`` pairs, each check a
function ``(config, rng, instances) -> (passed, detail)``.  ``run_verify``
runs it for the ``verify`` CLI subcommand; the test suite parametrizes over it.

The closed-loop simulation checks are each one :func:`dynamics.integrate`
call from the zero state, judged by what the run recorded: the final error
and the dip of ``mu`` below zero from :func:`dynamics.convergence_report`,
and Lyapunov monotonicity from :func:`dynamics.stability_certificate`.
"""

from __future__ import annotations

import tempfile
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

# Narrower ranges for simulation checks: moderate curvature spread keeps the
# settling times (and hence the battery's runtime) bounded.
SIM_RANGES = dict(n_max=5, q_lo=0.5, q_hi=4.0, c0_lo=-30.0, c0_hi=0.0, a_hi=20.0)

RESIDUAL_TOL = 1e-9
ORACLE_TOL = 1e-8
SIM_TOL = 1e-3


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


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


def random_market(rng, n_max=8, q_lo=0.1, q_hi=20.0, c0_lo=-100.0, c0_hi=0.0, a_hi=50.0):
    """Draw a valid random market (the defaults are the algebraic checks' wide ranges)."""
    n = int(rng.integers(1, n_max + 1))
    q = rng.uniform(q_lo, q_hi, n)
    c0 = rng.uniform(c0_lo, c0_hi, n)
    a = rng.uniform(0.0, a_hi, n)
    return mkt.validate_market(list(zip(q, c0, a)))


def check_rng(seed: int, name: str) -> np.random.Generator:
    """The generator of check ``name``: keyed by the seed and a stable hash of the name."""
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def _residual_scale(market) -> float:
    return max(1.0, float(np.abs(market.c0).max()), float(np.abs(market.a).max()))


def _residual_check(tol, detail, all_instances=False):
    """Make ``residual(market, rng)`` a check: its worst value over min(50, instances)
    random markets, or all of them, must stay within ``tol``.  ``detail`` is
    formatted with that value and the instance count.
    """
    def decorate(residual):
        def check(config, rng, instances):
            worst = 0.0
            for _ in range(instances if all_instances else min(50, instances)):
                worst = max(worst, residual(random_market(rng), rng))
            return worst <= tol, detail.format(worst, instances)
        return check
    return decorate


def _settling_horizon(market, cap, tol=SIM_TOL) -> float:
    """Eigenvalue-informed horizon for the closed loop to settle to ``tol``."""
    rate = dyn.closed_loop_decay_rate(market, cap)
    start = max(1.0, float(np.abs(dyn.assemble_equilibrium(market, cap)).max()))
    return 1.2 * np.log(start / (0.3 * tol)) / rate


def _closed_loop_run(market, cap, h=0.02, t_end=None, method="rk4", record_stride=25):
    """Integrate the closed loop from zero (by default over the settling horizon).

    Returns the run's convergence report at ``SIM_TOL``, whether its
    certificate finds the Lyapunov value monotone, and a detail line.
    """
    if t_end is None:
        t_end = max(50.0 * h, _settling_horizon(market, cap))
    lay = dyn.state_layout(market.n)
    traj = dyn.integrate(
        dyn.closed_loop_rhs(market, cap), np.zeros(lay.dim), h, t_end, method=method,
        reference=dyn.assemble_equilibrium(market, cap), mu_index=lay.mu,
        record_stride=record_stride,
    )
    report = dyn.convergence_report(traj, SIM_TOL)
    cert = dyn.stability_certificate(market, traj)
    return report, cert.lyapunov_monotone, (
        f"err={report.final_error:.1e}@t={traj.final_time:.0f}, "
        f"mu dip {report.mu_negativity:.1e}, V increase {cert.worst_lyapunov_increase:.1e} "
        f"({'' if cert.lyapunov_monotone else 'not '}monotone)"
    )


# --- market model -----------------------------------------------------------
def _projection_passthrough(config, rng, instances):
    xs = rng.uniform(-50, 50, 200)
    ys = rng.uniform(1e-12, 10, 200)
    bad = sum(mkt.conditional_projection(x, y) != x for x, y in zip(xs, ys))
    return bad == 0, f"{bad} violations over 200 samples with y > 0"


def _projection_boundary(config, rng, instances):
    xs = rng.uniform(-50, 50, 200)
    vals = [mkt.conditional_projection(x, 0.0) for x in xs]
    ok = all(v >= 0.0 and v == max(0.0, x) for v, x in zip(vals, xs))
    return ok, "boundary branch equals max(0, x) on 200 samples"


def _phi_decreasing(config, rng, instances):
    n_alg = min(50, instances)
    for _ in range(n_alg):
        m = random_market(rng)
        lam1 = rng.uniform(-20, 20)
        lam2 = lam1 + rng.uniform(0.1, 10)
        diff = mkt.phi(m, lam1) - mkt.phi(m, lam2)
        if not (diff > 0).all():
            return False, f"phi not strictly decreasing at lam={lam1:.3f}<{lam2:.3f}"
    return True, f"componentwise decreasing on {n_alg} random markets"


@_residual_check(1e-9, "max relative deviation from slope -s1: {:.2e}")
def _slack_affine(m, rng):
    lam = rng.uniform(-20, 20)
    delta = rng.uniform(0.1, 5)
    lhs = eq.aggregate_slack(m, lam + delta) - eq.aggregate_slack(m, lam)
    return abs(lhs + m.s1 * delta) / max(1.0, m.s1 * delta)


def _utility_concave(config, rng, instances):
    n_alg = min(50, instances)
    for _ in range(n_alg):
        ag = mkt.AgentParams(q=rng.uniform(0.1, 20), c0=rng.uniform(-100, 0), a=0.0)
        x1, x2 = rng.uniform(-20, 20, 2)
        if abs(x1 - x2) < 1e-6:
            continue
        theta = rng.uniform(0.05, 0.95)
        u = rng.uniform(-5, 5)
        mix = theta * x1 + (1 - theta) * x2
        gap = mkt.utility(ag, mix, u) - (
            theta * mkt.utility(ag, x1, u) + (1 - theta) * mkt.utility(ag, x2, u)
        )
        if gap <= 0:
            return False, f"concavity gap {gap:.2e} not positive"
    return True, f"strict concavity on {n_alg} sampled mixes"


# --- equilibrium solver -----------------------------------------------------
@_residual_check(RESIDUAL_TOL, "worst scaled KKT residual {:.2e}")
def _ce_kkt(m, rng):
    ce = eq.solve_ce(m)
    stat = np.abs(m.q * ce.x_bar + m.c0 + ce.lambda_bar).max()
    gap = abs(ce.x_bar.sum() - m.sum_a)
    return max(stat, gap) / _residual_scale(m)


@_residual_check(1e-12, "worst |dual - ce| = {:.2e}")
def _dual_equals_ce(m, rng):
    return abs(eq.solve_sw_dual(m) - eq.solve_ce(m).lambda_bar)


@_residual_check(RESIDUAL_TOL, "worst residual field {:.2e}")
def _sce_kkt(m, rng):
    cap = rng.uniform(*CAP_RANGE)
    return eq.kkt_residual_sce(m, cap, eq.solve_sce(m, cap)).max_violation()


def _complementarity_structure(config, rng, instances):
    for _ in range(min(50, instances)):
        m = random_market(rng)
        cap = rng.uniform(*CAP_RANGE)
        sol = eq.solve_sce(m, cap)
        if not (sol.nu_star == 0.0 or sol.lambda_star == cap):
            return False, f"nu={sol.nu_star}, lam={sol.lambda_star}, cap={cap}"
    return True, "nu_star = 0 or lambda_star = cap, exactly, on every draw"


def _inactive_cap_identity(config, rng, instances):
    for _ in range(min(50, instances)):
        m = random_market(rng)
        cap = eq.solve_ce(m).lambda_bar + rng.uniform(0.0, 10.0)
        sol = eq.solve_sce(m, cap)
        if not (np.all(sol.u_star == 0.0) and np.array_equal(sol.x_star, eq.solve_ce(m).x_bar)):
            return False, f"inactive cap produced nonzero adjustment (cap={cap})"
    return True, "u* = 0 and allocation equals the uncapped one when the cap is slack"


@_residual_check(1e-9, "slope s1/s2 per unit cap decrease, rel err {:.2e}")
def _nu_monotone(m, rng):
    # A nu_star that does not increase as the cap drops has a relative error >= 1.
    cap1 = eq.solve_ce(m).lambda_bar - rng.uniform(0.5, 10.0)
    delta = rng.uniform(0.1, 3.0)
    slope = (eq.solve_sce(m, cap1 - delta).nu_star - eq.solve_sce(m, cap1).nu_star) / delta
    return abs(slope - m.s1 / m.s2) / (m.s1 / m.s2)


@_residual_check(RESIDUAL_TOL, "worst mapping residual {:.2e}")
def _change_of_variables(m, rng):
    cap = rng.uniform(*CAP_RANGE)
    y_img, s_img = eq.map_sce_to_modified_primal(m, eq.solve_sce(m, cap))
    mp = eq.solve_modified_primal(m, cap)
    return max(
        float(np.abs(y_img - mp.y_bar).max()),
        abs(s_img - mp.s_bar),
        abs(np.linalg.det(eq.change_of_variables_matrix(m)) - m.s2) / m.s2,
    )


@_residual_check(RESIDUAL_TOL, "worst complementarity violation {:.2e}")
def _modified_primal_complementarity(m, rng):
    mp = eq.solve_modified_primal(m, rng.uniform(*CAP_RANGE))
    scale = _residual_scale(m)
    return max(
        max(0.0, -mp.s_bar) / scale,
        max(0.0, -mp.mu_s_bar) / scale,
        abs(mp.s_bar * mp.mu_s_bar) / scale,
        float(np.abs(mp.y_bar - mkt.phi(m, mp.lambda_bar)).max()),
    )


def _min_norm(config, rng, instances):
    for _ in range(min(20, instances)):
        m = random_market(rng)
        lam_ce = eq.solve_ce(m).lambda_bar
        cap = lam_ce - rng.uniform(0.5, 10.0)
        sol = eq.solve_sce(m, cap)
        best = float(np.linalg.norm(sol.u_star))
        # Scaled copies of the minimum-norm direction with a larger dual.
        for scale in (1.5, 2.0, 5.0):
            rival = (scale * sol.nu_star) / m.q
            if np.linalg.norm(rival) < best - 1e-12:
                return False, "scaled rival beats the minimum-norm adjustment"
        # Arbitrary feasible adjustments at an admissible price.
        lam_alt = cap - rng.uniform(0.0, 5.0)
        base = (eq.aggregate_slack(m, lam_alt) / m.s2) / m.q
        for _ in range(5):
            v = rng.normal(size=m.n)
            tangent = v - (1.0 / m.q) * float((v / m.q).sum()) / m.s2
            rival = base + tangent
            if np.linalg.norm(rival) < best - 1e-9:
                return False, f"feasible rival with smaller norm at price {lam_alt:.3f}"
    return True, "no sampled feasible adjustment beats u*"


@_residual_check(
    ORACLE_TOL, "max |oracle - closed form| = {:.2e} over {} instances", all_instances=True
)
def _oracle_agreement(m, rng):
    cap = rng.uniform(*CAP_RANGE)
    return abs(eq.lcp_oracle(m, cap, 1e-9) - eq.solve_scalar_lcp(m, cap))


# --- dynamics ---------------------------------------------------------------
def _xsym_factorization(config, rng, instances):
    worst_res, worst_eig = 0.0, -np.inf
    for m in [config.market] + [random_market(rng) for _ in range(10)]:
        cert = dyn.stability_certificate(m)
        worst_res = max(worst_res, cert.factorization_residual)
        worst_eig = max(worst_eig, cert.max_eigenvalue_x_sym)
    return (worst_res <= 1e-12 and worst_eig <= 1e-10), (
        f"factorization residual {worst_res:.2e}, max eigenvalue {worst_eig:.2e}"
    )


@_residual_check(RESIDUAL_TOL, "worst scaled drift at the fixed point {:.2e}")
def _fixed_point_residual(m, rng):
    cap = rng.uniform(*CAP_RANGE)
    state = dyn.assemble_equilibrium(m, cap)
    return float(np.abs(dyn.rhs_closed_loop(m, state, cap)).max()) / _residual_scale(m)


def _settling_instance(rng):
    # Reject draws whose slowest mode would need an excessive horizon.
    for _ in range(40):
        m = random_market(rng, **SIM_RANGES)
        cap = eq.solve_ce(m).lambda_bar + rng.uniform(-8.0, 4.0)
        if dyn.closed_loop_decay_rate(m, cap) >= 0.008:
            return m, cap
    return m, cap


def _closed_loop_random_limits(config, rng, instances):
    details = []
    for _ in range(3):
        m, cap = _settling_instance(rng)
        report, monotone, detail = _closed_loop_run(m, cap)
        if not (report.converged and report.mu_negativity == 0.0 and monotone):
            return False, f"{detail} (nu*={eq.solve_sce(m, cap).nu_star:.3f})"
        details.append(detail)
    return True, "final state matches the closed-form equilibrium: " + "; ".join(details)


def _closed_loop_config_convergence(config, rng, instances):
    report, monotone, detail = _closed_loop_run(config.market, config.cap.lambda_max)
    return report.converged and report.mu_negativity == 0.0 and monotone, detail


def _euler_lyapunov_monotone(config, rng, instances):
    # Euler resolves the per-step Lyapunov slack only when h**2 * |drift|**2
    # stays below it, hence the small step on the early transient.
    m = random_market(rng, **SIM_RANGES)
    cap = eq.solve_ce(m).lambda_bar - rng.uniform(1.0, 5.0)
    report, monotone, detail = _closed_loop_run(
        m, cap, h=1e-4, t_end=20.0, method="euler", record_stride=1
    )
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
    ce = eq.solve_ce(m)
    err_x = float(np.abs(full_end[lay.x] - ce.x_bar).max())
    err_lam = abs(float(full_end[lay.lam]) - ce.lambda_bar)
    # The reduced state (x, lam) is not a prefix of the layout.
    agree = max(
        float(np.abs(full_end[lay.x] - red_end[: m.n]).max()),
        abs(float(full_end[lay.lam]) - float(red_end[m.n])),
    )
    ok = err_x <= SIM_TOL and err_lam <= SIM_TOL and agree <= SIM_TOL
    return ok, f"x err {err_x:.2e}, lam err {err_lam:.2e}, variants agree to {agree:.2e}"


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
    eq_state = dyn.assemble_equilibrium(m, config.cap.lambda_max)
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
    rows = scn.run_sweep(config, caps)
    nus = [r.nu_star for r in rows]
    lams = [r.lambda_star for r in rows]
    ok = all(nus[i] >= nus[i + 1] - 1e-12 for i in range(len(nus) - 1))
    ok = ok and all(lams[i] <= lams[i + 1] + 1e-12 for i in range(len(lams) - 1))
    ok = ok and all(lam <= lam_ce + 1e-12 for lam in lams)
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


def run_verify(config, num_random_instances: int = 200, seed: int | None = None) -> VerificationReport:
    """Run every check of ``CHECKS``, in order, and report per-check diagnostics.

    Each check draws from its own generator, ``check_rng(seed, name)``, so it
    draws the same instances alone as in the battery.  A check that raises an
    :class:`EnergyShareError` fails.

    Args:
        config: scenario whose market anchors the instance-specific checks.
        num_random_instances: sample size for the random-instance suites
            (the oracle-agreement check uses all of them; the purely
            algebraic ones use min(50, n) draws each).
        seed: RNG seed; defaults to the config's seed.

    Raises:
        ValidationError: ``num_random_instances`` is below 1 or the seed below 0.
    """
    if num_random_instances < 1:
        raise ValidationError(f"num_random_instances must be >= 1, got {num_random_instances}")
    if seed is None:
        seed = config.seed
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    results = []
    for name, check in CHECKS:
        try:
            passed, detail = check(config, check_rng(seed, name), num_random_instances)
        except EnergyShareError as exc:
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name=name, passed=bool(passed), detail=detail))
    return VerificationReport(
        checks=tuple(results), seed=seed, num_random_instances=num_random_instances
    )
