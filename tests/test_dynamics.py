"""Dynamics: right-hand sides, integrator, fixed points, certificates.

The convergence tests here use step sizes and horizons matched to the
system's spectrum (see closed_loop_decay_rate); explicit Euler at coarse
steps is unstable for stiff oscillatory instances such as the bundled
four-agent fixture, which is exercised separately in the acceptance suite.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import energyshare as es
from energyshare import dynamics
from energyshare.verification import SIM_RANGES, random_market
from conftest import assert_matches_oracle, closed_loop_drift_oracle, reduced_drift_oracle


def closed_loop_zero(market):
    return np.zeros(es.state_layout(market.n).dim)


def sized_market(rng, n):
    """An ``n``-agent market drawn from the simulation checks' ranges."""
    r = SIM_RANGES
    return es.validate_market(list(zip(
        rng.uniform(r["q_lo"], r["q_hi"], n),
        rng.uniform(r["c0_lo"], r["c0_hi"], n),
        rng.uniform(0.0, r["a_hi"], n),
    )))


def structured_rhs(market, cap):
    """``closed_loop_rhs`` evaluated from its block structure at any size."""
    with mock.patch.object(dynamics, "_DENSE_DRIFT_MAX_DIM", 0):
        return es.closed_loop_rhs(market, cap)


def affine_step(method, matrix, offset, h):
    """One step of ``method`` on ``y -> matrix @ y + offset`` as ``(step, shift)``.

    On an affine drift, rk4 advances by ``h`` times the drift multiplied by
    the degree-3 Taylor polynomial of ``(exp(hA) - I) / (hA)``.
    """
    eye = np.eye(offset.size)
    if method == "euler":
        return eye + h * matrix, h * offset
    ha = h * matrix
    poly = eye + ha / 2.0 + ha @ ha / 6.0 + ha @ ha @ ha / 24.0
    return eye + ha @ poly, h * poly @ offset


@pytest.fixture()
def block_steps(monkeypatch):
    """Count of the steps that integrate takes through its block path."""
    count = [0]
    advance = dynamics._Blocks.advance

    def counted(self, y, steps):
        y, taken = advance(self, y, steps)
        count[0] += taken
        return y, taken

    monkeypatch.setattr(dynamics._Blocks, "advance", counted)
    return count


class TestRhsOpenLoop:
    def test_zero_state_table1(self, table1_market):
        d = es.rhs_open_loop(table1_market, np.zeros(13))
        np.testing.assert_allclose(d[:4], [50.0, 60.0, 40.0, 20.0], atol=1e-15)
        np.testing.assert_allclose(d[4:8], -table1_market.a, atol=1e-15)
        np.testing.assert_allclose(d[8:], 0.0, atol=1e-15)

    def test_vanishes_at_ce_assembled_state(self, table1_market):
        state = es.open_loop_equilibrium(table1_market)
        assert np.abs(es.rhs_open_loop(table1_market, state)).max() <= 1e-9

    def test_single_agent_fixed_point(self):
        m = es.validate_market([(1.0, -10.0, 3.0)])
        lam = es.solve_ce(m).lambda_bar
        state = np.array([3.0, lam, 0.0, lam])
        np.testing.assert_allclose(es.rhs_open_loop(m, state), 0.0, atol=1e-12)

    def test_dimension_mismatch(self, table1_market):
        with pytest.raises(es.DimensionMismatch):
            es.rhs_open_loop(table1_market, np.zeros(12))


class TestRhsControlled:
    def test_zero_adjustment_matches_open_loop(self, table1_market):
        rng = np.random.default_rng(23)
        state = rng.normal(size=13)
        np.testing.assert_array_equal(
            es.rhs_controlled(table1_market, state, np.zeros(4)),
            es.rhs_open_loop(table1_market, state),
        )

    def test_unit_adjustment_shifts_consumption_drift(self, table1_market):
        d = es.rhs_controlled(table1_market, np.zeros(13), np.ones(4))
        np.testing.assert_allclose(d[:4], [49.0, 59.0, 39.0, 19.0], atol=1e-15)

    def test_vanishes_at_capped_equilibrium_with_optimal_adjustment(self, table1_market):
        sce = es.solve_sce(table1_market, 4.0)
        eq = es.assemble_equilibrium(table1_market, 4.0)
        state = eq[: es.state_layout(4).lam + 1]
        d = es.rhs_controlled(table1_market, state, sce.u_star)
        assert np.abs(d).max() <= 1e-9

    def test_dimension_mismatch(self, table1_market):
        with pytest.raises(es.DimensionMismatch):
            es.rhs_controlled(table1_market, np.zeros(13), np.zeros(3))


class TestRhsController:
    def test_zero_state_drift_is_demand_response_at_cap(self, table1_market):
        d = es.rhs_controller(table1_market, closed_loop_zero(table1_market), 4.0)
        np.testing.assert_allclose(d[:4], [46.0, 112.0 / 3.0, 3.6, 0.8], atol=1e-12)
        np.testing.assert_allclose(d[4:], 0.0, atol=1e-15)

    def test_vanishes_at_assembled_equilibrium(self, table1_market):
        state = es.assemble_equilibrium(table1_market, 4.0)
        assert np.abs(es.rhs_controller(table1_market, state, 4.0)).max() <= 1e-9

    def test_projection_clamps_on_boundary(self, table1_market):
        state = closed_loop_zero(table1_market)
        state[es.state_layout(4).nu] = 3.0  # mu = 0, nu = 3 -> mu drift clamps to 0
        d = es.rhs_controller(table1_market, state, 4.0)
        assert d[-1] == 0.0

    def test_negative_mu_rejected(self, table1_market):
        state = closed_loop_zero(table1_market)
        state[-1] = -0.1
        with pytest.raises(es.NegativeMu):
            es.rhs_controller(table1_market, state, 4.0)

    def test_dimension_mismatch(self, table1_market):
        with pytest.raises(es.DimensionMismatch):
            es.rhs_controller(table1_market, np.zeros(20), 4.0)


class TestRhsClosedLoop:
    def test_zero_state_is_concatenation(self, table1_market):
        d = es.rhs_closed_loop(table1_market, closed_loop_zero(table1_market), 4.0)
        top = es.rhs_controlled(table1_market, np.zeros(13), np.zeros(4))
        bottom = es.rhs_controller(table1_market, closed_loop_zero(table1_market), 4.0)
        np.testing.assert_array_equal(d, np.concatenate([top, bottom]))

    def test_vanishes_at_assembled_equilibrium(self, table1_market):
        state = es.assemble_equilibrium(table1_market, 4.0)
        assert np.abs(es.rhs_closed_loop(table1_market, state, 4.0)).max() <= 1e-9

    def test_market_block_matches_open_loop_when_controller_at_rest(self, table1_market):
        rng = np.random.default_rng(24)
        state = closed_loop_zero(table1_market)
        state[:13] = rng.normal(size=13)
        d = es.rhs_closed_loop(table1_market, state, 4.0)
        np.testing.assert_array_equal(d[:13], es.rhs_open_loop(table1_market, state[:13]))

    def test_fast_path_agrees_with_block_form(self, table1_market):
        rng = np.random.default_rng(25)
        fast = es.closed_loop_rhs(table1_market, 4.0)
        for _ in range(20):
            state = rng.normal(size=23)
            state[-1] = abs(state[-1])  # block form requires mu >= 0
            np.testing.assert_allclose(
                fast(state),
                es.rhs_closed_loop(table1_market, state, 4.0),
                atol=1e-12,
            )

    # Above the size rule the drift is evaluated from its block structure,
    # in the order of the block form, so the two agree exactly.
    @pytest.mark.parametrize("n", [70, 1000])
    def test_structured_drift_is_block_form_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        market = sized_market(rng, n)
        lay = es.state_layout(n)
        assert lay.dim > dynamics._DENSE_DRIFT_MAX_DIM
        cap = es.solve_ce(market).lambda_bar - 2.0
        fast = es.closed_loop_rhs(market, cap)
        for _ in range(10):
            state = rng.normal(scale=10.0, size=lay.dim)
            state[lay.mu] = abs(state[lay.mu])
            np.testing.assert_array_equal(fast(state), es.rhs_closed_loop(market, state, cap))

    @pytest.mark.parametrize("n", [4, 70])
    def test_nonpositive_mu_takes_the_projection(self, n):
        rng = np.random.default_rng(27)
        market = sized_market(rng, n)
        lay = es.state_layout(n)
        fast = es.closed_loop_rhs(market, 3.0)
        for mu in (0.0, -0.0, -1e-12, -2.5):
            for nu in (-1.5, 0.0, 1.5):
                state = rng.normal(size=lay.dim)
                state[lay.mu], state[lay.nu] = mu, nu
                assert fast(state)[lay.mu] == max(-nu, 0.0)

    def test_lazy_matrix_is_the_closed_loop_matrix(self):
        market = sized_market(np.random.default_rng(28), 70)
        assert es.state_layout(market.n).dim > dynamics._DENSE_DRIFT_MAX_DIM
        affine = es.closed_loop_rhs(market, 3.0).projected_affine
        mat, offset = dynamics.closed_loop_matrices(market, 3.0)
        np.testing.assert_array_equal(affine.matrix, mat)
        np.testing.assert_array_equal(affine.offset, offset)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 400), seed=st.integers(0, 2**32 - 1))
    def test_structured_drift_matches_matrix_over_wide_ranges(self, n, seed):
        rng = np.random.default_rng(seed)
        q, neg_c0, a = 10.0 ** rng.uniform(-3.0, 3.0, (3, n))
        market = es.validate_market(list(zip(q, -neg_c0, a)))
        cap = float(rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-3.0, 3.0))
        lay = es.state_layout(n)
        state = rng.normal(size=lay.dim) * 10.0 ** rng.uniform(-3.0, 3.0, lay.dim)
        state[lay.mu] = abs(state[lay.mu])
        d = structured_rhs(market, cap)(state)
        np.testing.assert_array_equal(d, es.rhs_closed_loop(market, state, cap))
        mat, offset = dynamics.closed_loop_matrices(market, cap)
        scale = np.abs(mat) @ np.abs(state) + np.abs(offset)
        assert (np.abs(d - (mat @ state + offset)) <= 1e-12 * scale).all()
        assert_matches_oracle(d, closed_loop_drift_oracle(market, state, cap))

    def test_affine_forms_agree_with_block_forms(self, table1_market):
        rng = np.random.default_rng(26)
        m = table1_market
        mat, off = es.open_loop_matrices(m)
        rmat, roff = es.reduced_matrices(m)
        for _ in range(10):
            s = rng.normal(size=13)
            np.testing.assert_allclose(mat @ s + off, es.rhs_open_loop(m, s), atol=1e-12)
            sr = rng.normal(size=5)
            np.testing.assert_allclose(rmat @ sr + roff, es.rhs_reduced(m, sr), atol=1e-12)


class TestDriftOracle:
    """Every form of the drift against the per-agent equations of conftest."""

    @staticmethod
    def instance(n):
        rng = np.random.default_rng(40 + n)
        market = sized_market(rng, n)
        return market, float(rng.uniform(1.0, 8.0)), rng

    @pytest.mark.parametrize("n", [1, 4, 70])
    def test_matrices(self, n):
        market, cap, rng = self.instance(n)
        lay = es.state_layout(n)
        mat, off = dynamics.closed_loop_matrices(market, cap)
        ol_mat, ol_off = es.open_loop_matrices(market)
        red_mat, red_off = es.reduced_matrices(market)
        for _ in range(5):
            y = rng.normal(scale=10.0, size=lay.dim)
            y[lay.mu] = abs(y[lay.mu])
            assert_matches_oracle(mat @ y + off, closed_loop_drift_oracle(market, y, cap))
            y[lay.u] = 0.0  # the open loop is the closed loop's prefix without control
            drift, scale = closed_loop_drift_oracle(market, y, cap)
            prefix = slice(0, lay.lam + 1)
            assert_matches_oracle(ol_mat @ y[prefix] + ol_off, (drift[prefix], scale[prefix]))
            yr = y[: n + 1]
            assert_matches_oracle(red_mat @ yr + red_off, reduced_drift_oracle(market, yr))

    @pytest.mark.parametrize("n", [1, 4, 70])
    def test_block_forms(self, n):
        market, cap, rng = self.instance(n)
        lay = es.state_layout(n)
        prefix = slice(0, lay.lam + 1)
        for k in range(5):
            y = rng.normal(scale=10.0, size=lay.dim)
            y[lay.mu] = abs(y[lay.mu]) if k else 0.0
            drift, scale = closed_loop_drift_oracle(market, y, cap)
            assert_matches_oracle(es.rhs_closed_loop(market, y, cap), (drift, scale))
            assert_matches_oracle(es.rhs_controlled(market, y[prefix], y[lay.u]),
                                  (drift[prefix], scale[prefix]))
            assert_matches_oracle(es.rhs_reduced(market, y[: n + 1]),
                                  reduced_drift_oracle(market, y[: n + 1]))

    @pytest.mark.parametrize("dense_max", [0, 10**9], ids=["structured", "dense"])
    @pytest.mark.parametrize("n", [1, 4, 70])
    def test_closed_loop_rhs_on_both_branches(self, n, dense_max):
        market, cap, rng = self.instance(n)
        lay = es.state_layout(n)
        with mock.patch.object(dynamics, "_DENSE_DRIFT_MAX_DIM", dense_max):
            fast = es.closed_loop_rhs(market, cap)
        for mu in (2.0, 1e-9, 0.0, -1e-12, -2.5):
            for nu in (-1.5, 0.0, 1.5):
                y = rng.normal(scale=10.0, size=lay.dim)
                y[lay.mu], y[lay.nu] = mu, nu
                assert_matches_oracle(fast(y), closed_loop_drift_oracle(market, y, cap))


class TestRhsReduced:
    def test_ce_is_fixed_point(self, table1_market):
        state = es.reduced_equilibrium(table1_market)
        assert np.abs(es.rhs_reduced(table1_market, state)).max() <= 1e-9

    def test_zero_state(self, table1_market):
        d = es.rhs_reduced(table1_market, np.zeros(5))
        np.testing.assert_allclose(d[:4], [50.0, 60.0, 40.0, 20.0], atol=1e-15)
        assert d[4] == -80.0

    def test_single_agent_balanced(self):
        m = es.validate_market([(1.0, -10.0, 3.0)])
        d = es.rhs_reduced(m, np.array([3.0, 0.0]))
        assert d[1] == 0.0


class TestStateLayout:
    @pytest.mark.parametrize("n", [1, 4, 7])
    def test_blocks_tile_the_state_in_order(self, n):
        lay = es.state_layout(n)
        covered, owners = [], []
        for name in ("x", "rho", "eps", "lam", "u", "pi", "nu", "mu"):
            block = getattr(lay, name)
            indices = range(block.start, block.stop) if isinstance(block, slice) else [block]
            covered += indices
            owners += [name] * len(indices)
        assert covered == list(range(5 * n + 3))
        assert lay.dim == 5 * n + 3
        # The CSV columns between t and (V, eq_residual) name the same blocks.
        columns = es.trajectory_header(n)[1:-2]
        assert [c.split("_")[0] for c in columns] == [
            "lambda" if name == "lam" else name for name in owners
        ]


class TestAssembleEquilibrium:
    def test_binding_cap_table1(self, table1_market):
        lay = es.state_layout(4)
        eq = es.assemble_equilibrium(table1_market, 4.0)
        assert eq[lay.mu] == 0.0
        np.testing.assert_array_equal(eq[lay.pi], np.zeros(4))
        assert eq[lay.nu] == pytest.approx(5.308, abs=5e-3)
        assert eq[lay.lam] == 4.0

    def test_slack_cap_table1(self, table1_market):
        lay = es.state_layout(4)
        eq = es.assemble_equilibrium(table1_market, 10.0)
        assert eq[lay.nu] == 0.0
        np.testing.assert_array_equal(eq[lay.u], np.zeros(4))
        assert eq[lay.mu] == pytest.approx(2.5396, abs=1e-3)

    def test_imbalance_estimates_sum_to_zero(self):
        rng = np.random.default_rng(27)
        for _ in range(50):
            m = random_market(rng)
            cap = rng.uniform(-10, 30)
            lay = es.state_layout(m.n)
            eq = es.assemble_equilibrium(m, cap)
            assert abs(eq[lay.eps].sum()) <= 1e-9 * max(1.0, m.sum_a)
            assert eq[lay.nu] * eq[lay.mu] == 0.0
            assert eq[lay.nu] >= 0.0 and eq[lay.mu] >= 0.0

    def test_drift_vanishes_on_random_instances(self):
        rng = np.random.default_rng(28)
        for _ in range(50):
            m = random_market(rng)
            cap = rng.uniform(-10, 30)
            state = es.assemble_equilibrium(m, cap)
            scale = max(1.0, np.abs(m.c0).max(), np.abs(m.a).max())
            assert np.abs(es.rhs_closed_loop(m, state, cap)).max() <= 1e-9 * scale


class TestIntegrate:
    def test_constant_at_equilibrium(self, table1_market):
        eq = es.assemble_equilibrium(table1_market, 4.0)
        lay = es.state_layout(4)
        traj = es.integrate(
            es.closed_loop_rhs(table1_market, 4.0), eq, 0.01, 1.0,
            method="euler", reference=eq, mu_index=lay.mu, record_stride=1,
        )
        assert np.abs(traj.states - eq).max() <= 1e-9

    def test_single_step_horizon_records_two_rows(self, table1_market):
        traj = es.integrate(
            es.closed_loop_rhs(table1_market, 4.0),
            closed_loop_zero(table1_market), 1e-3, 1e-3, record_stride=1,
        )
        assert len(traj) == 2
        assert traj.times[0] == 0.0
        assert traj.times[1] == pytest.approx(1e-3)

    def test_final_state_always_recorded(self, table1_market):
        traj = es.integrate(
            es.closed_loop_rhs(table1_market, 4.0),
            closed_loop_zero(table1_market), 0.01, 0.25, record_stride=10,
        )
        # steps 0, 10, 20 and the final 25th
        np.testing.assert_allclose(traj.times, [0.0, 0.1, 0.2, 0.25], atol=1e-12)

    def test_divergence_raises_with_partial_trajectory(self):
        growth = lambda y: y  # exponential blow-up
        with pytest.raises(es.NonfiniteState) as excinfo:
            es.integrate(growth, np.array([1.0]), 0.01, 50.0, divergence_limit=1e3)
        partial = excinfo.value.trajectory
        assert partial is not None
        assert len(partial) >= 1
        assert np.abs(partial.states).max() <= 1e3

    def test_recorded_columns_across_a_chunk_boundary(self, table1_market):
        lay = es.state_layout(4)
        eq = es.assemble_equilibrium(table1_market, 4.0)
        chunk = dynamics._DEVIATION_CHUNK_BYTES // (8 * lay.dim)
        h = 0.02
        traj = es.integrate(
            es.closed_loop_rhs(table1_market, 4.0), closed_loop_zero(table1_market),
            h, (chunk + 5) * h, method="rk4", reference=eq, mu_index=lay.mu, record_stride=1,
        )
        assert len(traj) > chunk + 1
        expected = [es.lyapunov_value(state, eq) for state in traj.states]
        np.testing.assert_array_equal(traj.lyapunov, expected)
        np.testing.assert_array_equal(traj.equilibrium_residuals, np.abs(traj.states - eq).max(1))

    def test_partial_trajectory_carries_recorded_columns(self):
        growth = lambda y: y  # exponential blow-up
        ref = np.array([0.5, -1.0])
        with pytest.raises(es.NonfiniteState) as excinfo:
            es.integrate(growth, np.array([1.0, 2.0]), 0.01, 50.0, reference=ref,
                         divergence_limit=1e3)
        partial = excinfo.value.trajectory
        assert len(partial) > 1
        np.testing.assert_array_equal(partial.reference, ref)
        np.testing.assert_array_equal(
            partial.lyapunov, [es.lyapunov_value(state, ref) for state in partial.states]
        )
        np.testing.assert_array_equal(
            partial.equilibrium_residuals, np.abs(partial.states - ref).max(1)
        )

    # Wrapping the drift hides its affine pieces from integrate, so the
    # wrapped run is the step-by-step reference for the block path.
    # Capped at the CE price, the fixed point has mu = nu = 0, so mu creeps
    # towards its boundary instead of crossing it.
    @pytest.mark.parametrize("at_ce_price", [False, True])
    @pytest.mark.parametrize("clamp", [True, False])
    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_blocks_match_step_loop_across_mu_switches(
        self, method, clamp, at_ce_price, block_steps
    ):
        market = es.validate_market([(0.8, -10.0, 2.0), (1.6, -6.0, 5.0), (2.5, -15.0, 1.0)])
        cap = es.solve_ce(market).lambda_bar if at_ce_price else 5.0
        lay = es.state_layout(market.n)
        mu_index = lay.mu if clamp else None  # unclamped, mu stays below 0 once there
        h = 0.5 * es.euler_stable_step(market) if method == "euler" else 0.02
        rhs = es.closed_loop_rhs(market, cap)
        eq = es.assemble_equilibrium(market, cap)
        block, loop = (
            es.integrate(
                f, np.zeros(lay.dim), h, 60.0,
                method=method, reference=eq, mu_index=mu_index, record_stride=250,
            )
            for f in (rhs, lambda y: rhs(y))
        )
        assert block_steps[0] > 0
        mu = loop.states[:, lay.mu]
        assert (mu > 0.0).any() and (mu <= 0.0).any()
        np.testing.assert_array_equal(block.times, loop.times)
        atol = 1e-9 * np.abs(loop.states).max()
        np.testing.assert_allclose(block.states, loop.states, rtol=0.0, atol=atol)
        np.testing.assert_allclose(block.final_state, loop.final_state, rtol=0.0, atol=atol)
        if clamp:
            assert block.states[:, lay.mu].min() >= 0.0

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_blocks_clamp_mu_at_a_block_end(self, method, block_steps):
        # On the free branch mu after j steps is affine in the initial mu.
        # Near its root the guard rows and the matrix powers of a block may
        # round to opposite signs, so sweep the floats around the root with
        # one block per record.
        market = es.validate_market([(0.8, -10.0, 2.0), (1.6, -6.0, 5.0), (2.5, -15.0, 1.0)])
        lay = es.state_layout(market.n)
        rhs = es.closed_loop_rhs(market, es.solve_ce(market).lambda_bar)
        affine = rhs.projected_affine
        h = 0.5 * es.euler_stable_step(market) if method == "euler" else 0.02
        step, offset = affine_step(method, affine.matrix, affine.offset, h)
        rng = np.random.default_rng(1)
        swept = 0
        while swept < 3:
            j, base = int(rng.integers(4, 120)), rng.normal(size=lay.dim)
            free, unit = base.copy(), np.zeros(lay.dim)
            free[lay.mu], unit[lay.mu] = 0.0, 1.0
            mu_free, mu_unit = [], []
            for _ in range(j):
                free, unit = step @ free + offset, step @ unit
                mu_free.append(free[lay.mu])
                mu_unit.append(unit[lay.mu])
            mu_free, mu_unit = np.array(mu_free), np.array(mu_unit)
            root = -mu_free[-1] / mu_unit[-1]
            if not (root > 0.0 and (mu_free[:-1] + root * mu_unit[:-1] > 0.0).all()):
                continue
            swept += 1
            for k in range(-32, 33):
                y0 = base.copy()
                y0[lay.mu] = root + k * np.spacing(root)
                traj = es.integrate(rhs, y0, h, 50 * j * h, method=method,
                                    mu_index=lay.mu, record_stride=j)
                assert traj.states[:, lay.mu].min() >= 0.0
        assert block_steps[0] > 0

    @pytest.mark.parametrize(
        "method, h", [("euler", 1e-3), ("rk4", 0.029)], ids=["euler", "rk4"]
    )
    def test_blocks_diverge_where_step_loop_does(self, method, h, block_steps):
        # Stiff: Euler at h = 1e-3 and rk4 at h = 0.029 (beyond its bound of
        # ~0.0278 here) are both unstable.
        market = es.validate_market([(100.0, -50.0, 1.0)])
        lay = es.state_layout(1)
        rhs = es.closed_loop_rhs(market, 0.2)
        eq = es.assemble_equilibrium(market, 0.2)
        errors = []
        for f in (rhs, lambda y: rhs(y)):
            with pytest.raises(es.NonfiniteState) as excinfo:
                es.integrate(
                    f, np.zeros(lay.dim), h, 50.0,
                    method=method, reference=eq, mu_index=lay.mu, record_stride=10,
                )
            errors.append(excinfo.value)
        assert block_steps[0] > 0
        block, loop = errors
        assert str(block) == str(loop)  # the message names the step's time
        np.testing.assert_array_equal(block.trajectory.times, loop.trajectory.times)
        atol = 1e-9 * np.abs(loop.trajectory.states).max()
        np.testing.assert_allclose(
            block.trajectory.states, loop.trajectory.states, rtol=0.0, atol=atol
        )

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_blocks_match_step_loop_on_affine_rhs(self, table1_market, method, block_steps):
        mat, off = es.open_loop_matrices(table1_market)
        eigs = np.linalg.eigvals(mat)
        euler_bound = float((-2.0 * eigs.real / np.abs(eigs) ** 2).min())
        h = 0.5 * euler_bound if method == "euler" else 0.02
        rhs = es.affine_rhs(mat, off)
        eq = es.open_loop_equilibrium(table1_market)
        block, loop = (
            es.integrate(f, np.zeros(mat.shape[0]), h, 100.0, method=method,
                         reference=eq, record_stride=100)
            for f in (rhs, lambda y: rhs(y))
        )
        assert block_steps[0] > 0
        np.testing.assert_array_equal(block.times, loop.times)
        atol = 1e-9 * np.abs(loop.states).max()
        np.testing.assert_allclose(block.states, loop.states, rtol=0.0, atol=atol)

    def test_blocks_match_step_loop_above_the_dense_size(self, block_steps):
        # The block path reads the dense matrix, which a large closed loop
        # builds only then; a long run at a large stride repays the tables.
        market = sized_market(np.random.default_rng(29), 70)
        cap = es.solve_ce(market).lambda_bar - 2.0
        lay = es.state_layout(market.n)
        assert lay.dim > dynamics._DENSE_DRIFT_MAX_DIM
        rhs = es.closed_loop_rhs(market, cap)
        eq = es.assemble_equilibrium(market, cap)
        block, loop = (
            es.integrate(
                f, np.zeros(lay.dim), 0.02, 160.0,
                method="rk4", reference=eq, mu_index=lay.mu, record_stride=256,
            )
            for f in (rhs, lambda y: rhs(y))
        )
        assert block_steps[0] > 0
        np.testing.assert_array_equal(block.times, loop.times)
        atol = 1e-9 * np.abs(loop.states).max()
        np.testing.assert_allclose(block.states, loop.states, rtol=0.0, atol=atol)

    def test_rejects_negative_initial_mu(self, table1_market):
        y0 = closed_loop_zero(table1_market)
        y0[-1] = -1.0
        with pytest.raises(es.NegativeMu):
            es.integrate(
                es.closed_loop_rhs(table1_market, 4.0), y0, 0.01, 1.0,
                mu_index=es.state_layout(4).mu,
            )

    def test_parameter_validation(self, table1_market):
        rhs = es.closed_loop_rhs(table1_market, 4.0)
        y0 = closed_loop_zero(table1_market)
        with pytest.raises(ValueError):
            es.integrate(rhs, y0, -0.1, 1.0)
        with pytest.raises(ValueError):
            es.integrate(rhs, y0, 0.1, 0.01)
        with pytest.raises(ValueError):
            es.integrate(rhs, y0, 0.1, 1.0, method="heun")
        with pytest.raises(ValueError):
            es.integrate(rhs, y0, 0.1, 1.0, record_stride=0)


class TestTrajectory:
    def test_times_must_increase(self):
        with pytest.raises(ValueError):
            es.Trajectory(
                times=np.array([0.0, 2.0, 1.0]),
                states=np.zeros((3, 2)),
                lyapunov=np.zeros(3),
                equilibrium_residuals=np.zeros(3),
            )

    def test_lengths_must_match(self):
        with pytest.raises(es.DimensionMismatch):
            es.Trajectory(
                times=np.array([0.0, 1.0]),
                states=np.zeros((3, 2)),
                lyapunov=np.zeros(2),
                equilibrium_residuals=np.zeros(2),
            )

    def test_mu_series(self, table1_market):
        lay = es.state_layout(4)
        traj = es.integrate(
            es.closed_loop_rhs(table1_market, 4.0), closed_loop_zero(table1_market),
            0.01, 0.1, mu_index=lay.mu, record_stride=1,
        )
        series = traj.mu_series()
        np.testing.assert_array_equal(series, traj.states[:, lay.mu])
        assert series.min() >= 0.0

    def test_mu_series_absent_without_index(self, table1_market):
        traj = es.integrate(
            es.affine_rhs(*es.reduced_matrices(table1_market)), np.zeros(5), 0.01, 0.1,
        )
        assert traj.mu_series() is None
        assert np.isnan(traj.lyapunov).all()  # no reference supplied


class TestLyapunov:
    def test_zero_at_reference(self, table1_market):
        eq = es.assemble_equilibrium(table1_market, 4.0)
        assert es.lyapunov_value(eq, eq) == 0.0

    def test_unit_offset(self, table1_market):
        eq = es.assemble_equilibrium(table1_market, 4.0)
        bumped = eq.copy()
        bumped[0] += 1.0
        assert es.lyapunov_value(bumped, eq) == pytest.approx(0.5, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(es.DimensionMismatch):
            es.lyapunov_value(np.zeros(3), np.zeros(4))


class TestStabilityCertificate:
    def test_table1(self, table1_market):
        cert = es.stability_certificate(table1_market)
        assert cert.factorization_residual <= 1e-12
        assert cert.max_eigenvalue_x_sym <= 1e-10
        assert cert.lyapunov_monotone

    def test_single_agent(self):
        m = es.validate_market([(1.0, -10.0, 3.0)])
        cert = es.stability_certificate(m)
        assert cert.factorization_residual <= 1e-12
        assert cert.max_eigenvalue_x_sym <= 1e-10

    def test_random_markets(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            cert = es.stability_certificate(random_market(rng))
            assert cert.factorization_residual <= 1e-12
            assert cert.max_eigenvalue_x_sym <= 1e-10

    def test_with_trajectory_evidence(self, table1_market):
        lay = es.state_layout(4)
        eq = es.assemble_equilibrium(table1_market, 4.0)
        traj = es.integrate(
            es.closed_loop_rhs(table1_market, 4.0), closed_loop_zero(table1_market),
            0.02, 50.0, method="rk4", reference=eq, mu_index=lay.mu, record_stride=10,
        )
        cert = es.stability_certificate(table1_market, trajectory=traj)
        assert cert.lyapunov_monotone
        assert cert.worst_lyapunov_increase <= 1e-8 * max(1.0, traj.lyapunov[0])


class TestConvergenceReport:
    def test_constant_equilibrium_trajectory(self, table1_market):
        eq = es.assemble_equilibrium(table1_market, 4.0)
        lay = es.state_layout(4)
        traj = es.integrate(
            es.closed_loop_rhs(table1_market, 4.0), eq, 0.01, 0.1,
            reference=eq, mu_index=lay.mu, record_stride=1,
        )
        rep = es.convergence_report(traj, 1e-3)
        assert rep.converged
        assert rep.first_time_within_tolerance == 0.0
        assert rep.mu_negativity == 0.0

    def test_diverging_trajectory_reported_honestly(self):
        times = np.array([0.0, 1.0, 2.0])
        states = np.array([[0.0], [10.0], [100.0]])
        traj = es.Trajectory(
            times=times, states=states,
            lyapunov=0.5 * states[:, 0] ** 2,
            equilibrium_residuals=np.abs(states[:, 0]),
        )
        rep = es.convergence_report(traj, 1e-3)
        assert not rep.converged
        assert rep.first_time_within_tolerance == 0.0  # started at the reference
        assert rep.final_error == 100.0
        assert rep.worst_lyapunov_increase > 0.0

    def test_requires_a_recorded_reference(self, table1_market):
        traj = es.integrate(
            es.closed_loop_rhs(table1_market, 4.0), closed_loop_zero(table1_market),
            0.01, 0.1, record_stride=1,
        )
        with pytest.raises(ValueError, match="no reference"):
            es.convergence_report(traj, 1e-3)


class TestConvergence:
    """Endpoint checks with spectrum-matched integrator parameters."""

    def test_closed_loop_reaches_capped_equilibrium_table1(self, table1_market):
        lay = es.state_layout(4)
        eq = es.assemble_equilibrium(table1_market, 4.0)
        traj = es.integrate(
            es.closed_loop_rhs(table1_market, 4.0), closed_loop_zero(table1_market),
            0.02, 1200.0, method="rk4", reference=eq, mu_index=lay.mu, record_stride=100,
        )
        assert np.abs(traj.final_state - eq).max() <= 1e-3
        assert traj.states[:, lay.mu].min() >= 0.0
        assert np.diff(traj.lyapunov).max() <= 1e-8 * max(1.0, traj.lyapunov[0])

    def test_closed_loop_limit_matches_solver_on_random_instances(self):
        rng = np.random.default_rng(30)
        done = 0
        while done < 2:
            m = random_market(rng, **SIM_RANGES)
            cap = es.solve_ce(m).lambda_bar + rng.uniform(-8.0, 4.0)
            rate = es.closed_loop_decay_rate(m, cap)
            if rate < 0.008:
                continue
            done += 1
            lay = es.state_layout(m.n)
            eq = es.assemble_equilibrium(m, cap)
            horizon = 1.2 * np.log(max(1.0, np.abs(eq).max()) / 3e-4) / rate
            traj = es.integrate(
                es.closed_loop_rhs(m, cap), np.zeros(lay.dim), 0.02, horizon,
                method="rk4", reference=eq, mu_index=lay.mu, record_stride=50,
            )
            end = traj.final_state
            sce = es.solve_sce(m, cap)
            assert np.abs(end[lay.x] - sce.x_star).max() <= 1e-3
            assert abs(end[lay.lam] - sce.lambda_star) <= 1e-3
            assert np.abs(end[lay.u] - sce.u_star).max() <= 1e-3
            assert traj.states[:, lay.mu].min() >= 0.0

    def test_open_loop_and_reduced_share_the_ce_limit(self, table1_market):
        m = table1_market
        ce = es.solve_ce(m)
        mat, off = es.open_loop_matrices(m)
        full = es.integrate(
            es.affine_rhs(mat, off), np.zeros(13), 0.02, 700.0,
            method="rk4", reference=es.open_loop_equilibrium(m), record_stride=100,
        ).final_state
        rmat, roff = es.reduced_matrices(m)
        red = es.integrate(
            es.affine_rhs(rmat, roff), np.zeros(5), 0.02, 700.0,
            method="rk4", reference=es.reduced_equilibrium(m), record_stride=100,
        ).final_state
        assert np.abs(full[:4] - ce.x_bar).max() <= 1e-3
        assert abs(full[12] - ce.lambda_bar) <= 1e-3
        assert np.abs(red[:4] - ce.x_bar).max() <= 1e-3
        assert abs(red[4] - ce.lambda_bar) <= 1e-3
        assert np.abs(full[:4] - red[:4]).max() <= 1e-3
        assert abs(full[12] - red[4]) <= 1e-3

    def test_step_halving_orders(self):
        m = es.validate_market([(0.8, -10.0, 2.0), (1.6, -6.0, 5.0), (2.5, -15.0, 1.0)])
        cap = 3.0
        lay = es.state_layout(3)
        rhs = es.closed_loop_rhs(m, cap)
        y0 = np.zeros(lay.dim)

        def endpoint(h, method):
            return es.integrate(
                rhs, y0, h, 10.0, method=method, mu_index=lay.mu, record_stride=10**6
            ).final_state

        ref = endpoint(1e-3, "rk4")
        euler_coarse = np.abs(endpoint(0.02, "euler") - ref).max()
        euler_fine = np.abs(endpoint(0.01, "euler") - ref).max()
        rk4_coarse = np.abs(endpoint(0.2, "rk4") - ref).max()
        rk4_fine = np.abs(endpoint(0.1, "rk4") - ref).max()
        assert euler_fine < euler_coarse
        assert 1.5 <= euler_coarse / euler_fine <= 3.0  # first order: ~2
        assert rk4_fine < rk4_coarse
        assert rk4_coarse / rk4_fine >= 6.0  # fourth order: ~16


class TestDecayRate:
    def test_table1_rate_matches_spectrum(self, table1_market):
        rate = es.closed_loop_decay_rate(table1_market, 4.0)
        assert rate == pytest.approx(0.0094, abs=5e-4)

    def test_positive_for_random_instances(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            m = random_market(rng)
            cap = rng.uniform(-10, 30)
            assert es.closed_loop_decay_rate(m, cap) > 0.0
