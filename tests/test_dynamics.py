"""Dynamics: right-hand sides, integrator, fixed points, certificates.

The closed-loop limits are ``verify`` checks, run here on several seeds; their
runs use step sizes and horizons matched to the system's spectrum (see
closed_loop_decay_rate).  Explicit Euler at coarse steps is unstable for
stiff oscillatory instances such as the bundled four-agent fixture, which is
exercised separately in the acceptance suite.
"""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import energyshare as es
from energyshare import _stepping, dynamics
from energyshare.verification import CAP_RANGE, CHECKS, check_rng, random_market
from conftest import (
    assert_matches_oracle, closed_loop_drift_oracle, reduced_drift_oracle, sized_market,
)


def closed_loop_zero(market):
    return np.zeros(es.state_layout(market.n).dim)


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


@contextlib.contextmanager
def counted_block_steps():
    """Steps that integrate takes in the ``with`` body through its block path.

    Yields ``[block, tail]``: ``block`` counts the steps of every block
    and of the tail, ``tail`` those of the tail alone.
    """
    count = [0, 0]
    advance, finish = _stepping._Blocks.advance, _stepping._Blocks.finish

    def counted(self, y, steps, records):
        y, taken = advance(self, y, steps, records)
        count[0] += taken
        return y, taken

    def counted_finish(self, y, k, n_steps, records):
        done = finish(self, y, k, n_steps, records)
        if done:
            count[0] += n_steps - k
            count[1] += n_steps - k
        return done

    with mock.patch.object(_stepping._Blocks, "advance", counted), \
            mock.patch.object(_stepping._Blocks, "finish", counted_finish):
        yield count


@pytest.fixture()
def block_steps():
    """``[block, tail]``: steps that integrate takes through blocks and the tail, and the tail."""
    with counted_block_steps() as count:
        yield count


def block_and_loop(rhs, y0, h, t_end, rel, diverges=False, **kwargs):
    """Run ``rhs`` through integrate and, wrapped, through its step loop; compare the runs.

    The wrapped drift is no ProjectedAffine, so the wrapped run takes no
    block step (asserted) and is the step-by-step reference.  Both runs must record the
    same times, and states within ``rel`` of the loop's largest component.
    With ``diverges`` both must raise NonfiniteState with the same message
    (it names the step's time), and their partial trajectories are
    compared.  Returns both trajectories and the ``[block, tail]`` steps of
    the first run (see counted_block_steps).
    """
    def run(f):
        if not diverges:
            return es.integrate(f, y0, h, t_end, **kwargs), None
        with pytest.raises(es.NonfiniteState) as excinfo:
            es.integrate(f, y0, h, t_end, **kwargs)
        return excinfo.value.trajectory, str(excinfo.value)

    with counted_block_steps() as count:
        block, block_error = run(rhs)
    with counted_block_steps() as loop_count:
        loop, loop_error = run(lambda y: rhs(y))
    assert loop_count == [0, 0]
    assert block_error == loop_error
    np.testing.assert_array_equal(block.times, loop.times)
    atol = rel * np.abs(loop.states).max()
    np.testing.assert_allclose(block.states, loop.states, rtol=0.0, atol=atol)
    return block, loop, count


def rk4_stage_maps(matrix, h):
    """Linear parts of rk4's four stage states on the drift ``matrix @ y + offset``."""
    eye = np.eye(matrix.shape[0])
    two = eye + 0.5 * h * matrix
    three = eye + 0.5 * h * matrix @ two
    return [eye, two, three, eye + h * matrix @ three]


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
        affine = es.closed_loop_rhs(market, 3.0)
        mat, offset = dynamics.closed_loop_matrices(market, 3.0)
        np.testing.assert_array_equal(affine.matrix, mat)
        np.testing.assert_array_equal(affine.offset, offset)

    @pytest.mark.parametrize("n", [4, 70])
    def test_closed_loop_and_affine_rhs_are_block_drifts(self, n):
        # integrate takes blocks only on a drift that is a ProjectedAffine.
        market = sized_market(np.random.default_rng(30), n)
        lay = es.state_layout(n)
        rhs = es.closed_loop_rhs(market, 3.0)
        assert isinstance(rhs, _stepping.ProjectedAffine)
        assert (rhs.nu, rhs.mu) == (lay.nu, lay.mu)
        assert (rhs.evaluate is None) == (lay.dim <= dynamics._DENSE_DRIFT_MAX_DIM)
        mat, off = es.open_loop_matrices(market)
        affine = es.affine_rhs(mat, off)
        assert isinstance(affine, _stepping.ProjectedAffine)
        assert affine.mu is None and affine.matrix is mat

    @settings(max_examples=40)
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
            cap = rng.uniform(*CAP_RANGE)
            lay = es.state_layout(m.n)
            eq = es.assemble_equilibrium(m, cap)
            assert abs(eq[lay.eps].sum()) <= 1e-9 * max(1.0, m.sum_a)
            assert eq[lay.nu] * eq[lay.mu] == 0.0
            assert eq[lay.nu] >= 0.0 and eq[lay.mu] >= 0.0


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
            es.integrate(growth, np.array([1.0]), 0.01, 50.0)
        partial = excinfo.value.trajectory
        assert partial is not None
        assert len(partial) >= 1
        assert np.abs(partial.states).max() <= dynamics.DIVERGENCE_LIMIT

    def test_recorded_columns_across_a_chunk_boundary(self, table1_market):
        lay = es.state_layout(4)
        eq = es.assemble_equilibrium(table1_market, 4.0)
        chunk = _stepping._DEVIATION_CHUNK_BYTES // (8 * lay.dim)
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
            es.integrate(growth, np.array([1.0, 2.0]), 0.01, 50.0, reference=ref)
        partial = excinfo.value.trajectory
        assert len(partial) > 1
        np.testing.assert_array_equal(
            partial.lyapunov, [es.lyapunov_value(state, ref) for state in partial.states]
        )
        np.testing.assert_array_equal(
            partial.equilibrium_residuals, np.abs(partial.states - ref).max(1)
        )

    # Capped at the CE price, the fixed point has mu = nu = 0, so mu creeps
    # towards its boundary instead of crossing it.  Only a run that clamps
    # mu takes blocks; unclamped, mu stays below 0 once there, and the run
    # is the step loop's, bit for bit.
    @pytest.mark.parametrize("at_ce_price", [False, True])
    @pytest.mark.parametrize("clamp", [True, False])
    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_blocks_match_step_loop_across_mu_switches(self, method, clamp, at_ce_price):
        market = es.validate_market([(0.8, -10.0, 2.0), (1.6, -6.0, 5.0), (2.5, -15.0, 1.0)])
        cap = es.solve_ce(market).lambda_bar if at_ce_price else 5.0
        lay = es.state_layout(market.n)
        h = 0.5 * es.euler_stable_step(market) if method == "euler" else 0.02
        block, loop, count = block_and_loop(
            es.closed_loop_rhs(market, cap), np.zeros(lay.dim), h, 60.0, 1e-9 if clamp else 0.0,
            method=method, reference=es.assemble_equilibrium(market, cap),
            mu_index=lay.mu if clamp else None, record_stride=250,
        )
        mu = loop.states[:, lay.mu]
        assert (mu > 0.0).any() and (mu <= 0.0).any()
        if clamp:
            assert count[0] > 0
            assert block.states[:, lay.mu].min() >= 0.0
        else:
            assert count == [0, 0]

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_blocks_clamp_mu_at_a_block_end(self, method, block_steps):
        # On the free branch mu after j steps is affine in the initial mu.
        # Near its root the guard rows, the recorded rows and the matrix
        # powers of a block may round to opposite signs, so sweep the floats
        # around the root with a record at step j.
        market = es.validate_market([(0.8, -10.0, 2.0), (1.6, -6.0, 5.0), (2.5, -15.0, 1.0)])
        lay = es.state_layout(market.n)
        rhs = es.closed_loop_rhs(market, es.solve_ce(market).lambda_bar)
        h = 0.5 * es.euler_stable_step(market) if method == "euler" else 0.02
        step, offset = affine_step(method, rhs.matrix, rhs.offset, h)
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
    def test_blocks_diverge_where_step_loop_does(self, method, h):
        # Stiff: Euler at h = 1e-3 and rk4 at h = 0.029 (beyond its bound of
        # ~0.0278 here) are both unstable.
        market = es.validate_market([(100.0, -50.0, 1.0)])
        lay = es.state_layout(1)
        _, _, count = block_and_loop(
            es.closed_loop_rhs(market, 0.2), np.zeros(lay.dim), h, 50.0, 1e-9, diverges=True,
            method=method, reference=es.assemble_equilibrium(market, 0.2), mu_index=lay.mu,
            record_stride=10,
        )
        assert count[0] > 0
        assert count[1] == 0

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_blocks_match_step_loop_on_affine_rhs(self, table1_market, method):
        mat, off = es.open_loop_matrices(table1_market)
        eigs = np.linalg.eigvals(mat)
        euler_bound = float((-2.0 * eigs.real / np.abs(eigs) ** 2).min())
        h = 0.5 * euler_bound if method == "euler" else 0.02
        _, _, count = block_and_loop(
            es.affine_rhs(mat, off), np.zeros(mat.shape[0]), h, 100.0, 1e-9, method=method,
            reference=es.open_loop_equilibrium(table1_market), record_stride=100,
        )
        assert count[0] > 0

    def test_blocks_match_step_loop_above_the_dense_size(self):
        # The block path reads the dense matrix, which a large closed loop
        # builds only then; a long run at a large stride repays the tables.
        market = sized_market(np.random.default_rng(29), 70)
        cap = es.solve_ce(market).lambda_bar - 2.0
        lay = es.state_layout(market.n)
        assert lay.dim > dynamics._DENSE_DRIFT_MAX_DIM
        _, _, count = block_and_loop(
            es.closed_loop_rhs(market, cap), np.zeros(lay.dim), 0.02, 160.0, 1e-9,
            method="rk4", reference=es.assemble_equilibrium(market, cap), mu_index=lay.mu,
            record_stride=256,
        )
        assert count[0] > 0

    # Random markets capped on both sides of their CE price, so that mu
    # switches inside blocks; strides that do not divide the block length
    # and horizons that the stride does not divide (a partial final record).
    @settings(max_examples=20)
    @given(
        n=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
        method=st.sampled_from(dynamics.METHODS),
        stride=st.sampled_from([1, 2, 3, 7, 100, 10**6]),
        n_steps=st.integers(5000, 6000),
    )
    def test_blocks_record_inside_as_the_step_loop_does(self, n, seed, method, stride, n_steps):
        rng = np.random.default_rng(seed)
        market = sized_market(rng, n)
        cap = es.solve_ce(market).lambda_bar + rng.uniform(-3.0, 3.0)
        lay = es.state_layout(n)
        h = 0.5 * es.euler_stable_step(market) if method == "euler" else 0.02
        block, loop, count = block_and_loop(
            es.closed_loop_rhs(market, cap), np.zeros(lay.dim), h, n_steps * h, 1e-12,
            method=method, mu_index=lay.mu, record_stride=stride,
        )
        assert count[0] > 0
        assert len(block) == len(loop) == -(-n_steps // stride) + 1
        assert block.states[:, lay.mu].min() >= 0.0

    # Started near the fixed point, the run is trapped at its first block
    # end, and the tail records the rest: a first stretch to the record
    # grid, whole strides, and a partial stride to the horizon.
    @pytest.mark.parametrize(
        "drift, stride",
        [("closed_loop", s) for s in (1, 7, 100, 4096, 10**4)] + [("affine", 100)],
    )
    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_tail_records_as_the_step_loop_does(self, table1_market, method, drift, stride):
        lay = es.state_layout(4)
        if drift == "closed_loop":
            rhs = es.closed_loop_rhs(table1_market, 4.0)
            eq, mu_index = es.assemble_equilibrium(table1_market, 4.0), lay.mu
            h = 0.5 * es.euler_stable_step(table1_market)
        else:
            mat, off = es.open_loop_matrices(table1_market)
            rhs = es.affine_rhs(mat, off)
            eq, mu_index = es.open_loop_equilibrium(table1_market), None
            eigs = np.linalg.eigvals(mat)
            h = 0.5 * float((-2.0 * eigs.real / np.abs(eigs) ** 2).min())
        h = h if method == "euler" else 0.02
        y0 = eq + 1e-3 * np.random.default_rng(0).normal(size=eq.size)
        if mu_index is not None:
            y0[mu_index] = 0.0  # the cap binds: the fixed point is pinned
        # Long enough for blocks that record every step to repay their tables.
        t_end = (stride + (2**14 if method == "euler" else 2**12) + 1) * h
        _, _, count = block_and_loop(rhs, y0, h, t_end, 1e-12, method=method,
                                     mu_index=mu_index, record_stride=stride)
        assert count[1] > 0

    # At the CE price the fixed point has mu = nu = 0: neither guard has a
    # margin, however close the run comes.
    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_no_tail_at_the_ce_price(self, method):
        market = es.validate_market([(0.8, -10.0, 2.0), (1.6, -6.0, 5.0), (2.5, -15.0, 1.0)])
        cap = es.solve_ce(market).lambda_bar
        lay = es.state_layout(market.n)
        h = 0.5 * es.euler_stable_step(market) if method == "euler" else 0.02
        y0 = es.assemble_equilibrium(market, cap) + 1e-6 * np.random.default_rng(1).normal(
            size=lay.dim
        )
        y0[lay.mu] = 0.0
        _, _, count = block_and_loop(es.closed_loop_rhs(market, cap), y0, h, 60.0, 1e-12,
                                     method=method, mu_index=lay.mu, record_stride=250)
        assert count[0] > 0
        assert count[1] == 0

    def test_pinned_growth_is_bounded_on_its_subspace(self, table1_market):
        # nu reads mu's column, so the pinned step map has norm 1.010; on
        # mu = 0, where every pinned block starts, it is nonexpansive.
        lay = es.state_layout(4)
        affine = es.closed_loop_rhs(table1_market, 4.0)
        blocks = _stepping._Blocks(affine, _stepping._rk4_step, 0.02, 4096, 10**4)
        growth = blocks.pinned.growth
        matrix, offset = affine.matrix.copy(), affine.offset.copy()
        matrix[lay.mu], offset[lay.mu] = 0.0, 0.0
        step, _ = affine_step("rk4", matrix, offset, 0.02)
        assert np.linalg.norm(step, 2) > 1.01
        keep = np.arange(lay.dim) != lay.mu
        power = np.eye(lay.dim)
        for j in range(1, 65):
            power = step @ power
            assert np.linalg.norm(power[np.ix_(keep, keep)], 2) <= growth[j] * (1.0 + 1e-12)
        assert growth[-1] <= 1.0 + 1e-8

    # A binding cap pins mu at the fixed point, guarded by nu; a slack one
    # leaves mu free, guarded by mu itself.
    @pytest.mark.parametrize("cap, guard", [(4.0, "nu"), (10.0, "mu")], ids=["pinned", "free"])
    def test_trap_radius(self, table1_market, cap, guard):
        # Half the margin over the guard rows' norm on S and over
        # K = sup_j ||step**j|_S||, each found here from the closed-form
        # fixed point, rk4's stage maps and the powers themselves.
        lay, h = es.state_layout(4), 0.02
        affine = es.closed_loop_rhs(table1_market, cap)
        blocks = _stepping._Blocks(affine, _stepping._rk4_step, h, 512, 100)
        matrix, offset = affine.matrix.copy(), affine.offset.copy()
        keep = np.ones(lay.dim, dtype=bool)
        if guard == "nu":
            matrix[lay.mu], offset[lay.mu], keep[lay.mu] = 0.0, 0.0, False
        eq = es.assemble_equilibrium(table1_market, cap)
        g = getattr(lay, guard)
        row_norm = max(np.linalg.norm(stage[g, keep]) for stage in rk4_stage_maps(matrix, h))
        step, _ = affine_step("rk4", matrix, offset, h)
        sub, power, bound = step[np.ix_(keep, keep)], np.eye(keep.sum()), 1.0
        for _ in range(64):  # the powers contract from the second on
            power = sub @ power
            bound = max(bound, np.linalg.norm(power, 2))
        center, radius = (blocks.pinned if guard == "nu" else blocks.free).ball
        np.testing.assert_allclose(center, eq, rtol=0.0, atol=1e-10 * np.abs(eq).max())
        assert eq[g] > 1.0
        assert radius == pytest.approx(eq[g] / (2.0 * row_norm * bound), rel=1e-8)

    @pytest.mark.parametrize("seed", range(20))
    def test_euler_lyapunov_check_passes_in_blocks(self, table1_config, seed, block_steps):
        name = "dynamics.euler_lyapunov_monotone"
        passed, detail = dict(CHECKS)[name](table1_config, check_rng(seed, name), 200)
        assert passed, detail
        assert block_steps[0] > 0

    def test_step_halving_reference_runs_in_blocks(self, table1_config, block_steps,
                                                   monkeypatch):
        name = "dynamics.step_halving_order"
        runs = []
        integrate = dynamics.integrate

        def recorded(rhs, y0, h, t_end, **kwargs):
            before = block_steps[0]
            traj = integrate(rhs, y0, h, t_end, **kwargs)
            runs.append((h, kwargs["method"], block_steps[0] - before))
            return traj

        monkeypatch.setattr(dynamics, "integrate", recorded)
        passed, detail = dict(CHECKS)[name](table1_config, check_rng(0, name), 200)
        assert passed, detail
        assert (1e-3, "rk4", 10_000) in runs

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

    def test_single_agent(self):
        m = es.validate_market([(1.0, -10.0, 3.0)])
        cert = es.stability_certificate(m)
        assert cert.factorization_residual <= 1e-12
        assert cert.max_eigenvalue_x_sym <= 1e-10


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
    @pytest.mark.parametrize("seed", range(5))
    def test_closed_loop_random_limits_check_passes(self, table1_config, seed):
        name = "dynamics.closed_loop_random_limits"
        passed, detail = dict(CHECKS)[name](table1_config, check_rng(seed, name), 200)
        assert passed, detail


class TestDecayRate:
    def test_table1_rate_matches_spectrum(self, table1_market):
        rate = es.closed_loop_decay_rate(table1_market, 4.0)
        assert rate == pytest.approx(0.0094, abs=5e-4)

    def test_positive_for_random_instances(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            m = random_market(rng)
            cap = rng.uniform(*CAP_RANGE)
            assert es.closed_loop_decay_rate(m, cap) > 0.0
