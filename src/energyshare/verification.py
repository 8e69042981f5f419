"""Self-verification battery: every documented invariant as a named check.

``run_verify`` executes the whole list against seeded random instances plus
the scenario's own market and returns per-check diagnostics.  It is wired
to the ``verify`` CLI subcommand; the test suite runs the same checks
through pytest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dynamics as dyn
from . import equilibrium as eq
from . import market as mkt
from . import scenario as scn
from .errors import EnergyShareError, ValidationError

# Sampling ranges for the algebraic checks (wide; match the oracle suite).
WIDE_RANGES = dict(n_max=8, q_lo=0.1, q_hi=20.0, c0_lo=-100.0, c0_hi=0.0, a_hi=50.0)
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
    """Draw a valid random market."""
    n = int(rng.integers(1, n_max + 1))
    q = rng.uniform(q_lo, q_hi, n)
    c0 = rng.uniform(c0_lo, c0_hi, n)
    a = rng.uniform(0.0, a_hi, n)
    return mkt.validate_market(list(zip(q, c0, a)))


def _residual_scale(market) -> float:
    return max(1.0, float(np.abs(market.c0).max()), float(np.abs(market.a).max()))


def _settling_horizon(market, cap, tol=SIM_TOL) -> float:
    """Eigenvalue-informed horizon for the closed loop to settle to ``tol``."""
    rate = dyn.closed_loop_decay_rate(market, cap)
    start = max(1.0, float(np.abs(dyn.assemble_equilibrium(market, cap).to_vector()).max()))
    return 1.2 * np.log(start / (0.3 * tol)) / rate


def _closed_loop_until(market, cap, h=0.02, chunk=None, max_t=None, method="rk4"):
    """Integrate the closed loop from zero until near the fixed point.

    The default chunk is an eigenvalue-informed settling estimate; the loop
    extends up to three chunks before giving up.  Returns (final error,
    worst Lyapunov increase per recorded step, minimum recorded mu,
    initial Lyapunov value, elapsed horizon).
    """
    if chunk is None:
        chunk = max(50.0 * h, _settling_horizon(market, cap))
    if max_t is None:
        max_t = 3.0 * chunk
    reference = dyn.assemble_equilibrium(market, cap).to_vector()
    rhs = dyn.closed_loop_rhs(market, cap)
    lay = dyn.state_layout(market.n)
    y = np.zeros(lay.dim)
    v0 = dyn.lyapunov_value(y, reference)
    v_last = v0
    worst_inc = 0.0
    min_mu = 0.0
    t = 0.0
    err = float(np.abs(y - reference).max())
    while t < max_t:
        traj = dyn.integrate(
            rhs, y, h, chunk, method=method, reference=reference,
            mu_index=lay.mu, record_stride=25,
        )
        increases = np.diff(np.concatenate([[v_last], traj.lyapunov]))
        worst_inc = max(worst_inc, float(increases.max()))
        v_last = float(traj.lyapunov[-1])
        min_mu = min(min_mu, float(traj.states[:, lay.mu].min()))
        y = traj.final_state.copy()
        t += chunk
        err = float(np.abs(y - reference).max())
        if err <= 0.5 * SIM_TOL:
            break
    return err, worst_inc, min_mu, v0, t


def run_verify(config, num_random_instances: int = 200, seed: int | None = None) -> VerificationReport:
    """Run every invariant check and report per-check diagnostics.

    Args:
        config: scenario whose market anchors the instance-specific checks.
        num_random_instances: sample size for the random-instance suites
            (the oracle-agreement check uses all of them; the purely
            algebraic ones use min(50, n) draws each).
        seed: RNG seed; defaults to the config's seed.

    Raises:
        ValidationError: ``num_random_instances`` is below 1.
    """
    if num_random_instances < 1:
        raise ValidationError(f"num_random_instances must be >= 1, got {num_random_instances}")
    if seed is None:
        seed = config.seed
    rng = np.random.default_rng(seed)
    checks: list[CheckResult] = []
    n_alg = min(50, num_random_instances)

    def run(name, fn):
        try:
            passed, detail = fn()
        except EnergyShareError as exc:
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        checks.append(CheckResult(name=name, passed=bool(passed), detail=detail))

    # --- market model -----------------------------------------------------

    def projection_passthrough():
        xs = rng.uniform(-50, 50, 200)
        ys = rng.uniform(1e-12, 10, 200)
        bad = sum(mkt.conditional_projection(x, y) != x for x, y in zip(xs, ys))
        return bad == 0, f"{bad} violations over 200 samples with y > 0"

    def projection_boundary():
        xs = rng.uniform(-50, 50, 200)
        vals = [mkt.conditional_projection(x, 0.0) for x in xs]
        ok = all(v >= 0.0 and v == max(0.0, x) for v, x in zip(vals, xs))
        return ok, "boundary branch equals max(0, x) on 200 samples"

    def phi_decreasing():
        for _ in range(n_alg):
            m = random_market(rng, **WIDE_RANGES)
            lam1 = rng.uniform(-20, 20)
            lam2 = lam1 + rng.uniform(0.1, 10)
            diff = mkt.phi(m, lam1) - mkt.phi(m, lam2)
            if not (diff > 0).all():
                return False, f"phi not strictly decreasing at lam={lam1:.3f}<{lam2:.3f}"
        return True, f"componentwise decreasing on {n_alg} random markets"

    def slack_affine():
        worst = 0.0
        for _ in range(n_alg):
            m = random_market(rng, **WIDE_RANGES)
            lam = rng.uniform(-20, 20)
            delta = rng.uniform(0.1, 5)
            lhs = eq.aggregate_slack(m, lam + delta) - eq.aggregate_slack(m, lam)
            worst = max(worst, abs(lhs + m.s1 * delta) / max(1.0, m.s1 * delta))
        return worst <= 1e-9, f"max relative deviation from slope -s1: {worst:.2e}"

    def utility_concave():
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

    run("market.projection_passthrough", projection_passthrough)
    run("market.projection_boundary", projection_boundary)
    run("market.phi_decreasing", phi_decreasing)
    run("market.slack_affine", slack_affine)
    run("market.utility_concave", utility_concave)

    # --- equilibrium solver -----------------------------------------------

    def ce_kkt():
        worst = 0.0
        for _ in range(n_alg):
            m = random_market(rng, **WIDE_RANGES)
            ce = eq.solve_ce(m)
            stat = np.abs(m.q * ce.x_bar + m.c0 + ce.lambda_bar).max()
            gap = abs(ce.x_bar.sum() - m.sum_a)
            worst = max(worst, max(stat, gap) / _residual_scale(m))
        return worst <= RESIDUAL_TOL, f"worst scaled KKT residual {worst:.2e}"

    def dual_equals_ce():
        worst = 0.0
        for _ in range(n_alg):
            m = random_market(rng, **WIDE_RANGES)
            worst = max(worst, abs(eq.solve_sw_dual(m) - eq.solve_ce(m).lambda_bar))
        return worst <= 1e-12, f"worst |dual - ce| = {worst:.2e}"

    def sce_kkt():
        worst = 0.0
        for _ in range(n_alg):
            m = random_market(rng, **WIDE_RANGES)
            cap = rng.uniform(*CAP_RANGE)
            rep = eq.kkt_residual_sce(m, cap, eq.solve_sce(m, cap))
            worst = max(worst, rep.max_violation())
        return worst <= RESIDUAL_TOL, f"worst residual field {worst:.2e}"

    def complementarity_structure():
        for _ in range(n_alg):
            m = random_market(rng, **WIDE_RANGES)
            cap = rng.uniform(*CAP_RANGE)
            sol = eq.solve_sce(m, cap)
            if not (sol.nu_star == 0.0 or sol.lambda_star == cap):
                return False, f"nu={sol.nu_star}, lam={sol.lambda_star}, cap={cap}"
        return True, "nu_star = 0 or lambda_star = cap, exactly, on every draw"

    def inactive_cap_identity():
        for _ in range(n_alg):
            m = random_market(rng, **WIDE_RANGES)
            cap = eq.solve_ce(m).lambda_bar + rng.uniform(0.0, 10.0)
            sol = eq.solve_sce(m, cap)
            if not (np.all(sol.u_star == 0.0) and np.array_equal(sol.x_star, eq.solve_ce(m).x_bar)):
                return False, f"inactive cap produced nonzero adjustment (cap={cap})"
        return True, "u* = 0 and allocation equals the uncapped one when the cap is slack"

    def nu_monotone():
        worst = 0.0
        for _ in range(n_alg):
            m = random_market(rng, **WIDE_RANGES)
            lam_ce = eq.solve_ce(m).lambda_bar
            cap1 = lam_ce - rng.uniform(0.5, 10.0)
            delta = rng.uniform(0.1, 3.0)
            nu1 = eq.solve_sce(m, cap1).nu_star
            nu2 = eq.solve_sce(m, cap1 - delta).nu_star
            if nu2 <= nu1:
                return False, f"nu_star not increasing as the cap drops (cap={cap1})"
            slope = (nu2 - nu1) / delta
            worst = max(worst, abs(slope - m.s1 / m.s2) / (m.s1 / m.s2))
        return worst <= 1e-9, f"slope s1/s2 per unit cap decrease, rel err {worst:.2e}"

    def change_of_variables():
        worst = 0.0
        for _ in range(n_alg):
            m = random_market(rng, **WIDE_RANGES)
            cap = rng.uniform(*CAP_RANGE)
            sol = eq.solve_sce(m, cap)
            y_img, s_img = eq.map_sce_to_modified_primal(m, sol)
            mp = eq.solve_modified_primal(m, cap)
            worst = max(
                worst,
                float(np.abs(y_img - mp.y_bar).max()),
                abs(s_img - mp.s_bar),
                abs(np.linalg.det(eq.change_of_variables_matrix(m)) - m.s2) / m.s2,
            )
        return worst <= RESIDUAL_TOL, f"worst mapping residual {worst:.2e}"

    def modified_primal_complementarity():
        worst = 0.0
        for _ in range(n_alg):
            m = random_market(rng, **WIDE_RANGES)
            cap = rng.uniform(*CAP_RANGE)
            mp = eq.solve_modified_primal(m, cap)
            scale = _residual_scale(m)
            worst = max(
                worst,
                max(0.0, -mp.s_bar) / scale,
                max(0.0, -mp.mu_s_bar) / scale,
                abs(mp.s_bar * mp.mu_s_bar) / scale,
                float(np.abs(mp.y_bar - mkt.phi(m, mp.lambda_bar)).max()),
            )
        return worst <= RESIDUAL_TOL, f"worst complementarity violation {worst:.2e}"

    def min_norm():
        for _ in range(min(20, n_alg)):
            m = random_market(rng, **WIDE_RANGES)
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

    def oracle_agreement():
        worst = 0.0
        for _ in range(num_random_instances):
            m = random_market(rng, **WIDE_RANGES)
            cap = rng.uniform(*CAP_RANGE)
            worst = max(
                worst, abs(eq.lcp_oracle(m, cap, 1e-9) - eq.solve_scalar_lcp(m, cap))
            )
        return worst <= ORACLE_TOL, (
            f"max |oracle - closed form| = {worst:.2e} over {num_random_instances} instances"
        )

    run("equilibrium.ce_kkt", ce_kkt)
    run("equilibrium.dual_equals_ce", dual_equals_ce)
    run("equilibrium.sce_kkt", sce_kkt)
    run("equilibrium.complementarity_structure", complementarity_structure)
    run("equilibrium.inactive_cap_identity", inactive_cap_identity)
    run("equilibrium.nu_monotone", nu_monotone)
    run("equilibrium.change_of_variables", change_of_variables)
    run("equilibrium.modified_primal_complementarity", modified_primal_complementarity)
    run("equilibrium.min_norm", min_norm)
    run("equilibrium.oracle_agreement", oracle_agreement)

    # --- dynamics ----------------------------------------------------------

    def factorization():
        worst_res, worst_eig = 0.0, -np.inf
        markets = [config.market] + [random_market(rng, **WIDE_RANGES) for _ in range(10)]
        for m in markets:
            cert = dyn.stability_certificate(m)
            worst_res = max(worst_res, cert.factorization_residual)
            worst_eig = max(worst_eig, cert.max_eigenvalue_x_sym)
        return (worst_res <= 1e-12 and worst_eig <= 1e-10), (
            f"factorization residual {worst_res:.2e}, max eigenvalue {worst_eig:.2e}"
        )

    def fixed_point():
        worst = 0.0
        for _ in range(n_alg):
            m = random_market(rng, **WIDE_RANGES)
            cap = rng.uniform(*CAP_RANGE)
            state = dyn.assemble_equilibrium(m, cap).to_vector()
            worst = max(
                worst,
                float(np.abs(dyn.rhs_closed_loop(m, state, cap)).max()) / _residual_scale(m),
            )
        return worst <= RESIDUAL_TOL, f"worst scaled drift at the fixed point {worst:.2e}"

    def _settling_instance():
        # Reject draws whose slowest mode would need an excessive horizon.
        for _ in range(40):
            m = random_market(rng, **SIM_RANGES)
            cap = eq.solve_ce(m).lambda_bar + rng.uniform(-8.0, 4.0)
            if dyn.closed_loop_decay_rate(m, cap) >= 0.008:
                return m, cap
        return m, cap

    def closed_loop_limits():
        details = []
        for _ in range(3):
            m, cap = _settling_instance()
            sol = eq.solve_sce(m, cap)
            err, worst_inc, min_mu, v0, horizon = _closed_loop_until(m, cap)
            slack = 1e-8 * max(1.0, v0)
            if err > SIM_TOL or min_mu < 0.0 or worst_inc > slack:
                return False, (
                    f"err={err:.2e} (nu*={sol.nu_star:.3f}), min mu={min_mu:.2e}, "
                    f"V increase={worst_inc:.2e} (slack {slack:.2e})"
                )
            details.append(f"err={err:.1e}@t={horizon:.0f}")
        return True, "final state matches the closed-form equilibrium: " + "; ".join(details)

    def closed_loop_config():
        m, cap = config.market, config.cap.lambda_max
        err, worst_inc, min_mu, v0, horizon = _closed_loop_until(m, cap, h=0.02)
        slack = 1e-8 * max(1.0, v0)
        ok = err <= SIM_TOL and min_mu >= 0.0 and worst_inc <= slack
        return ok, (
            f"err={err:.2e} at t={horizon:.0f}, min mu={min_mu:.2e}, "
            f"worst V increase={worst_inc:.2e} (slack {slack:.2e})"
        )

    def euler_lyapunov():
        # Euler resolves the per-step Lyapunov slack only when h**2 * |drift|**2
        # stays below it, hence the small step on the early transient.
        m = random_market(rng, **SIM_RANGES)
        cap = eq.solve_ce(m).lambda_bar - rng.uniform(1.0, 5.0)
        reference = dyn.assemble_equilibrium(m, cap).to_vector()
        lay = dyn.state_layout(m.n)
        traj = dyn.integrate(
            dyn.closed_loop_rhs(m, cap), np.zeros(lay.dim), 1e-4, 20.0,
            method="euler", reference=reference, mu_index=lay.mu, record_stride=1,
        )
        slack = 1e-8 * max(1.0, float(traj.lyapunov[0]))
        worst = float(np.diff(traj.lyapunov).max())
        mu_min = float(traj.states[:, lay.mu].min())
        ok = worst <= slack and mu_min >= 0.0
        return ok, f"worst V increase {worst:.2e} (slack {slack:.2e}), min mu {mu_min:.2e}"

    def open_loop_and_reduced():
        m = config.market
        mat, off = dyn.open_loop_matrices(m)
        traj = dyn.integrate(
            dyn.affine_rhs(mat, off), np.zeros(3 * m.n + 1), 0.02, 700.0,
            method="rk4", reference=dyn.open_loop_equilibrium(m), record_stride=100,
        )
        full_end = traj.final_state
        ce = eq.solve_ce(m)
        err_x = float(np.abs(full_end[: m.n] - ce.x_bar).max())
        err_lam = abs(float(full_end[3 * m.n]) - ce.lambda_bar)
        rmat, roff = dyn.reduced_matrices(m)
        rtraj = dyn.integrate(
            dyn.affine_rhs(rmat, roff), np.zeros(m.n + 1), 0.02, 700.0,
            method="rk4", reference=dyn.reduced_equilibrium(m), record_stride=100,
        )
        red_end = rtraj.final_state
        agree = max(
            float(np.abs(full_end[: m.n] - red_end[: m.n]).max()),
            abs(float(full_end[3 * m.n]) - float(red_end[m.n])),
        )
        ok = err_x <= SIM_TOL and err_lam <= SIM_TOL and agree <= SIM_TOL
        return ok, f"x err {err_x:.2e}, lam err {err_lam:.2e}, variants agree to {agree:.2e}"

    def step_order():
        m = mkt.validate_market([(0.8, -10.0, 2.0), (1.6, -6.0, 5.0), (2.5, -15.0, 1.0)])
        cap = 3.0
        lay = dyn.state_layout(m.n)
        rhs = dyn.closed_loop_rhs(m, cap)
        y0 = np.zeros(lay.dim)
        ref = dyn.integrate(rhs, y0, 1e-3, 10.0, method="rk4", mu_index=lay.mu,
                            record_stride=10**6).final_state
        def end_err(h, method):
            end = dyn.integrate(rhs, y0, h, 10.0, method=method, mu_index=lay.mu,
                                record_stride=10**6).final_state
            return float(np.abs(end - ref).max())
        e1, e2 = end_err(0.02, "euler"), end_err(0.01, "euler")
        r1, r2 = end_err(0.2, "rk4"), end_err(0.1, "rk4")
        euler_ratio = e1 / e2
        rk4_ratio = r1 / r2
        ok = 1.5 <= euler_ratio <= 3.0 and rk4_ratio >= 6.0
        return ok, f"halving h: euler err ratio {euler_ratio:.2f} (~2), rk4 {rk4_ratio:.1f} (~16)"

    run("dynamics.xsym_factorization", factorization)
    run("dynamics.fixed_point_residual", fixed_point)
    run("dynamics.closed_loop_random_limits", closed_loop_limits)
    run("dynamics.closed_loop_config_convergence", closed_loop_config)
    run("dynamics.euler_lyapunov_monotone", euler_lyapunov)
    run("dynamics.open_loop_and_reduced_limits", open_loop_and_reduced)
    run("dynamics.step_halving_order", step_order)

    # --- scenario i/o -------------------------------------------------------

    def roundtrip():
        text = scn.config_to_json(config)
        again = scn.config_to_json(scn.load_config(text))
        return text == again, "serialize(load(serialize(config))) is byte-identical"

    def solve_deterministic():
        outs = {scn.report_to_json(scn.run_solve(config)) for _ in range(3)}
        return len(outs) == 1, "3 consecutive solves byte-identical"

    def csv_schema():
        import tempfile, os
        m = config.market
        eq_state = dyn.assemble_equilibrium(m, config.cap.lambda_max).to_vector()
        small = scn.ScenarioConfig(
            market=m,
            cap=config.cap,
            sim=scn.SimSettings(h=0.01, t_end=0.5, method="rk4", record_stride=5,
                                init=eq_state),
            seed=config.seed,
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "traj.csv")
            scn.run_simulate(small, path)
            lines = open(path).read().splitlines()
        header = lines[0].split(",")
        expected = scn.trajectory_header(m.n)
        if header != expected:
            return False, f"header mismatch: {header[:3]}..."
        for line in lines[1:]:
            vals = [float(v) for v in line.split(",")]
            if len(vals) != len(expected) or not np.isfinite(vals).all():
                return False, "row failed to parse to finite floats"
        return True, f"{len(expected)} columns (5N+6 incl. t, V, eq_residual), all rows finite"

    def sweep_monotone():
        lam_ce = eq.solve_ce(config.market).lambda_bar
        caps = sorted(rng.uniform(lam_ce - 10.0, lam_ce + 5.0, 9))
        rows = scn.run_sweep(config, caps)
        nus = [r.nu_star for r in rows]
        lams = [r.lambda_star for r in rows]
        ok = all(nus[i] >= nus[i + 1] - 1e-12 for i in range(len(nus) - 1))
        ok = ok and all(lams[i] <= lams[i + 1] + 1e-12 for i in range(len(lams) - 1))
        ok = ok and all(lam <= lam_ce + 1e-12 for lam in lams)
        return ok, "nu_star nonincreasing, lambda_star nondecreasing and capped at the CE price"

    run("scenario.config_roundtrip", roundtrip)
    run("scenario.solve_deterministic", solve_deterministic)
    run("scenario.csv_schema", csv_schema)
    run("scenario.sweep_monotone", sweep_monotone)

    return VerificationReport(
        checks=tuple(checks), seed=seed, num_random_instances=num_random_instances
    )
