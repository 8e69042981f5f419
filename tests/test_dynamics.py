"""Dynamics: right-hand sides, integrator, fixed points, certificates.

The closed-loop limits are ``verify`` checks, run here on several seeds; their
runs use step sizes and horizons matched to the system's spectrum (see
closed_loop_decay_rate).  Explicit Euler at coarse steps is unstable for
stiff oscillatory instances such as the bundled four-agent fixture, which is
exercised separately in the acceptance suite.
"""

import contextlib
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import energyshare as es
from energyshare import _stepping, dynamics
from energyshare.market import conditional_projection
from energyshare.scenario import SUMMARY_TOLERANCE
from energyshare.verification import (
    CAP_RANGE, CHECKS, EULER_RUN, SIM_RANGES, _euler_instance, check_rng, random_market,
)
from conftest import (
    assert_matches_oracle, closed_loop_drift_oracle, exact_fixed_point, fixed_point_scales, markets,
    reduced_drift_oracle,
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
    advance, finish = _stepping._Branch.advance, _stepping._Branch.finish

    def counted(self, y, steps, records):
        y, taken = advance(self, y, steps, records)
        count[0] += taken
        return y, taken

    def counted_finish(self, y, k, n_steps, rows):
        done = finish(self, y, k, n_steps, rows)
        if done is not None:
            count[0] += n_steps - k
            count[1] += n_steps - k
        return done

    with mock.patch.object(_stepping._Branch, "advance", counted), \
            mock.patch.object(_stepping._Branch, "finish", counted_finish):
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


def generic_projected():
    """A three-component ProjectedAffine whose free ``mu`` row is not ``-e_nu``.

    ``(a, b)`` turn in a damped rotation that ``mu`` pushes on, and the free
    ``mu`` row reads ``a``, ``b`` and ``mu`` itself, so from ``(2, 0, 0)``
    ``mu`` leaves its boundary and returns to it many times.
    """
    matrix = np.array([[-0.05, 1.0, -0.4], [-1.0, -0.05, 0.2], [0.8, -0.3, -0.1]])
    return _stepping.ProjectedAffine(lambda: matrix, np.array([0.3, -0.2, 0.05]), 2)


def fixed_point_ulps(n):
    """Ulps of its terms (conftest.fixed_point_scales) that a component of
    ``assemble_equilibrium`` may err by on ``n`` agents.

    The first-order rounding bound of the library's order of evaluation:
    the price sums ``n`` terms and ``n`` generations over ``s1``, itself a
    sum of ``n``, about ``1.5 * n`` ulps, and the other components add
    ``nu``'s sums and a few roundings of their own.  Over some 39 000
    hypothesis draws, half over WIDE_RANGES and half at magnitudes from
    1e-9 to 1e9, the worst error seen was 4.1 ulps, at ``n = 5``.
    """
    return 2 * n + 2


# Magnitudes from 1e-9 to 1e9, log-uniform.
MAGNITUDES = st.floats(-9.0, 9.0).map(lambda e: 10.0**e)


def assert_near_exact_fixed_point(market, cap, near_ce):
    """``assemble_equilibrium`` within :func:`fixed_point_ulps` of the exact fixed point.

    With ``near_ce`` not None the cap is that many ulps from the CE price,
    where the float and the exact price may fall on opposite sides of it.
    """
    if near_ce is not None:
        lam = es.solve_ce(market).lambda_bar
        cap = lam + near_ce * np.spacing(lam)
    # Quotients of values near the subnormal range round by more than an ulp
    # of their size.
    values = np.concatenate([market.c0, market.a, [cap]])
    assume(((values == 0.0) | (np.abs(values) >= 1e-290)).all())
    lay = es.state_layout(market.n)
    fixed = es.assemble_equilibrium(market, cap)
    exact, terms = exact_fixed_point(market, cap), fixed_point_scales(market, cap)
    a = [Fraction(v) for v in market.a.tolist()]
    # rho is the price, and eps the allocation less the generation.
    exact.update(rho=[exact["lam"]] * market.n, eps=[x - ai for x, ai in zip(exact["x"], a)])
    terms.update(rho=[terms["lam"]] * market.n, eps=[x + ai for x, ai in zip(terms["x"], a)])
    # An ulp of t is 2**-52 * t, and at least the smallest subnormal.
    ulp, tiny, ulps = Fraction(2) ** -52, Fraction(2) ** -1074, fixed_point_ulps(market.n)
    for name, want in exact.items():
        got = np.atleast_1d(fixed[getattr(lay, name)]).tolist()
        scale = terms[name] if isinstance(want, list) else [terms[name]]
        for g, w, t in zip(got, want if isinstance(want, list) else [want], scale, strict=True):
            bound = ulps * max(ulp * t, tiny)
            assert abs(Fraction(g) - w) <= bound, (name, g, float(w))


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
        market = random_market(rng, n=n, **SIM_RANGES)
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
        market = random_market(rng, n=n, **SIM_RANGES)
        lay = es.state_layout(n)
        fast = es.closed_loop_rhs(market, 3.0)
        for mu in (0.0, -0.0, -1e-12, -2.5):
            for nu in (-1.5, 0.0, 1.5):
                state = rng.normal(size=lay.dim)
                state[lay.mu], state[lay.nu] = mu, nu
                assert fast(state)[lay.mu] == max(-nu, 0.0)

    def test_generic_projected_row_takes_the_conditional_projection(self):
        rhs = generic_projected()
        rng = np.random.default_rng(31)
        for mu in (1.0, 1e-9, 0.0, -0.0, -1e-12, -2.5):
            for _ in range(20):
                y = rng.normal(scale=3.0, size=3)
                y[rhs.mu] = mu
                free = rhs.matrix @ y + rhs.offset
                d = rhs(y)
                assert d[rhs.mu] == conditional_projection(free[rhs.mu], mu)
                np.testing.assert_array_equal(d[:rhs.mu], free[:rhs.mu])

    def test_lazy_matrix_is_the_closed_loop_matrix(self):
        market = random_market(np.random.default_rng(28), n=70, **SIM_RANGES)
        assert es.state_layout(market.n).dim > dynamics._DENSE_DRIFT_MAX_DIM
        affine = es.closed_loop_rhs(market, 3.0)
        mat, offset = dynamics.closed_loop_matrices(market, 3.0)
        np.testing.assert_array_equal(affine.matrix, mat)
        np.testing.assert_array_equal(affine.offset, offset)

    @pytest.mark.parametrize("n", [4, 70])
    def test_closed_loop_and_affine_rhs_are_block_drifts(self, n):
        # integrate takes blocks only on a drift that is a ProjectedAffine.
        market = random_market(np.random.default_rng(30), n=n, **SIM_RANGES)
        lay = es.state_layout(n)
        rhs = es.closed_loop_rhs(market, 3.0)
        assert isinstance(rhs, _stepping.ProjectedAffine)
        assert rhs.mu == lay.mu
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
        market = random_market(rng, n=n, **SIM_RANGES)
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

    @settings(max_examples=150)
    @given(market=markets(), cap=st.floats(*CAP_RANGE), near_ce=st.none() | st.integers(-3, 3))
    def test_within_ulps_of_the_exact_fixed_point(self, market, cap, near_ce):
        assert_near_exact_fixed_point(market, cap, near_ce)

    @settings(max_examples=150)
    @given(
        agents=st.lists(st.tuples(MAGNITUDES, st.just(0.0) | MAGNITUDES,
                                  st.just(0.0) | MAGNITUDES), min_size=1, max_size=8),
        cap=MAGNITUDES, sign=st.sampled_from([-1.0, 1.0]), near_ce=st.none() | st.integers(-3, 3),
    )
    def test_within_ulps_of_the_exact_fixed_point_at_magnitudes_up_to_1e9(
        self, agents, cap, sign, near_ce
    ):
        market = es.validate_market([(q, -c, a) for q, c, a in agents])
        assert_near_exact_fixed_point(market, sign * cap, near_ce)

    # The first agent's q**2 underflows to 0.  At the CE price the idle
    # controller's pi and mu are 0, written without dividing, so no 0/0
    # shows up in the blocks that open_loop_equilibrium drops.
    def test_open_loop_keeps_the_ce_blocks_where_q_squared_underflows(self):
        m = es.validate_market([(1e-200, -1.0, 1.0), (1.0, -10.0, 1.0)])
        ce = es.solve_ce(m)
        lay = es.state_layout(m.n)
        state = es.open_loop_equilibrium(m)
        assert state.size == lay.lam + 1
        assert state[lay.x].tobytes() == ce.x_bar.tobytes()
        assert state[lay.rho].tobytes() == np.full(m.n, ce.lambda_bar).tobytes()
        assert state[lay.eps].tobytes() == (ce.x_bar - m.a).tobytes()
        assert state[lay.lam] == ce.lambda_bar


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

    @pytest.mark.parametrize("method, h", [("euler", 0.002), ("rk4", 0.02)], ids=["euler", "rk4"])
    def test_blocks_match_step_loop_on_a_generic_projected_row(self, method, h):
        rhs = generic_projected()
        _, loop, count = block_and_loop(rhs, np.array([2.0, 0.0, 0.0]), h, 80.0, 1e-12,
                                        method=method, mu_index=rhs.mu, record_stride=5)
        assert np.count_nonzero(np.diff(loop.states[:, rhs.mu] > 0.0)) >= 10
        assert count[0] > 0

    def test_blocks_match_step_loop_above_the_dense_size(self):
        # The block path reads the dense matrix, which a large closed loop
        # builds only then; a long run at a large stride repays the tables.
        market = random_market(np.random.default_rng(29), n=70, **SIM_RANGES)
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
        market = random_market(rng, n=n, **SIM_RANGES)
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

    # From mu = 0 with nu = -1 the free drift lifts mu: the first block, on
    # the pinned branch, fails its first guard and takes no step, and the
    # single step that follows puts the run on the free branch.
    def test_lifted_pinned_start_takes_an_empty_block(self, table1_config):
        sim, lay = table1_config.sim, es.state_layout(4)
        y0 = np.zeros(lay.dim)
        y0[lay.nu] = -1.0
        advances, advance = [], _stepping._Branch.advance

        def logged(self, y, steps, records):
            y, taken = advance(self, y, steps, records)
            advances.append((self.pinned, taken))
            return y, taken

        with mock.patch.object(_stepping._Branch, "advance", logged):
            block_and_loop(es.closed_loop_rhs(table1_config.market, 4.0), y0, sim.h, sim.t_end,
                           1e-12, method=sim.method, mu_index=lay.mu,
                           record_stride=sim.record_stride)
        assert advances[0] == (True, 0)
        assert advances[1][0] is False and advances[1][1] > 0

    def test_each_branch_is_built_at_most_once_per_run(self, table1_config, tmp_path):
        built, init = [], _stepping._Branch.__init__

        def counted(self, affine, method_step, h, pinned, length, stride):
            built.append(pinned)
            init(self, affine, method_step, h, pinned, length, stride)

        name = "dynamics.euler_lyapunov_monotone"
        with mock.patch.object(_stepping._Branch, "__init__", counted):
            for run in (lambda: es.run_simulate(table1_config, tmp_path / "table1.csv"),
                        lambda: dict(CHECKS)[name](table1_config, check_rng(0, name), 200)):
                built.clear()
                run()
                assert built and len(built) == len(set(built))

    def test_pinned_growth_is_bounded_on_its_subspace(self, table1_market):
        # nu reads mu's column, so the pinned step map has norm 1.010; on
        # mu = 0, where every pinned block starts, it is nonexpansive.
        lay = es.state_layout(4)
        affine = es.closed_loop_rhs(table1_market, 4.0)
        growth = _stepping._Branch(affine, _stepping._rk4_step, 0.02, True, 4096, 10**4).growth
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
        branch = _stepping._Branch(affine, _stepping._rk4_step, h, guard == "nu", 512, 100)
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
        center, radius = branch.ball
        np.testing.assert_allclose(center, eq, rtol=0.0, atol=1e-10 * np.abs(eq).max())
        assert eq[g] > 1.0
        assert radius == pytest.approx(eq[g] / (2.0 * row_norm * bound), rel=1e-8)

    @pytest.mark.parametrize("seed", range(20))
    def test_euler_lyapunov_check_passes_in_blocks(self, table1_config, seed, block_steps):
        name = "dynamics.euler_lyapunov_monotone"
        passed, detail = dict(CHECKS)[name](table1_config, check_rng(seed, name), 200)
        assert passed, detail
        assert block_steps[0] > 0

    # The step-halving runs (dim 18, at most 10 000 steps, only their ends
    # recorded) are short enough that the step loop's cost is mostly the
    # interpreter's: each takes blocks, and each agrees with the step loop.
    def test_step_halving_reference_runs_in_blocks(self, table1_config, block_steps,
                                                   monkeypatch):
        name = "dynamics.step_halving_order"
        runs = []
        integrate = dynamics.integrate

        def recorded(rhs, y0, h, t_end, **kwargs):
            before = block_steps[0]
            traj = integrate(rhs, y0, h, t_end, **kwargs)
            runs.append((rhs, y0, h, t_end, kwargs, block_steps[0] - before))
            return traj

        monkeypatch.setattr(dynamics, "integrate", recorded)
        passed, detail = dict(CHECKS)[name](table1_config, check_rng(0, name), 200)
        assert passed, detail
        assert [(h, kwargs["method"]) for _, _, h, _, kwargs, _ in runs] == [
            (1e-3, "rk4"), (0.02, "euler"), (0.01, "euler"), (0.2, "rk4"), (0.1, "rk4")]
        assert runs[0][-1] == 10_000
        for rhs, y0, h, t_end, kwargs, steps in runs:
            assert steps > 0
            _, _, count = block_and_loop(rhs, y0, h, t_end, 1e-12, **kwargs)
            assert count[0] == steps

    # The block lengths of the runs whose path the bench times: table1.json's
    # (bound by the record cap), the large market's (no tables fit), the
    # Euler check's (record cap), csv_schema's (its 50 steps do not repay
    # tables that record inside) and the step-halving runs'.
    @pytest.mark.parametrize("sizes, length", [
        ((23, 100, 60_000, 4, 4), 512),
        ((5003, 1, 25, 4, 4), 0),
        ((8, 1, 200_000, 1, 1), 512),
        ((23, 5, 50, 4, 4), 0),
        ((18, 10**6, 10_000, 4, 4), 4096),
        ((18, 10**6, 500, 1, 1), 256),
        ((18, 10**6, 1000, 1, 1), 512),
        ((18, 10**6, 50, 4, 4), 32),
        ((18, 10**6, 100, 4, 4), 64),
    ], ids=["table1", "large_market", "euler_check", "csv_schema", "halving_reference",
            "halving_euler_0.02", "halving_euler_0.01", "halving_rk4_0.2", "halving_rk4_0.1"])
    def test_block_length(self, sizes, length):
        assert _stepping._block_length(*sizes) == length

    # The growth bound, built by doubling, against the table of binary
    # digits it replaced: bit for bit, products past float64's range included.
    @settings(max_examples=300)
    @given(
        length=st.integers(16, 4096),
        norms=st.lists(st.one_of(st.floats(0.0, 2.0), st.floats(1.0, 1e300), st.just(math.inf)),
                       min_size=1, max_size=14),
    )
    def test_growth_matches_the_digit_table(self, length, norms):
        digits = np.arange(length + 1)[:, None] >> np.arange(len(norms)) & 1
        with np.errstate(over="ignore"):
            bound = np.where(digits, np.maximum(1.0, norms), 1.0).prod(axis=1)
        expected = np.maximum.accumulate(bound)
        np.testing.assert_array_equal(_stepping._growth(norms, length), expected)

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

    # Each was an OverflowError or numpy's "cannot convert float NaN to
    # integer", a record of 1e20 rows numpy's "Maximum allowed dimension
    # exceeded", and a NaN in y0 a divergence at the first step.
    @pytest.mark.parametrize("h, t_end, bad, error, match", [
        (math.nan, 1.0, None, ValueError, "step size h"),
        (math.inf, 1.0, None, ValueError, "step size h"),
        (0.1, math.nan, None, ValueError, "t_end"),
        (0.1, math.inf, None, ValueError, "t_end"),
        (1e-300, 1e300, None, ValueError, "t_end / h"),
        (1e-10, 1e10, None, ValueError, r"t_end = 1\d+\.0 and h = 1e-10 at record_stride = 1 "),
        (0.1, 1.0, "y0", es.NonfiniteInput, "y0"),
        (0.1, 1.0, "reference", es.NonfiniteInput, "reference"),
    ], ids=["h_nan", "h_inf", "t_end_nan", "t_end_inf", "ratio_inf", "record_too_large", "y0_nan",
            "reference_inf"])
    def test_refuses_nonfinite_inputs(self, table1_market, h, t_end, bad, error, match):
        lay = es.state_layout(4)
        y0, reference = np.zeros(lay.dim), np.zeros(lay.dim)
        if bad == "y0":
            y0[lay.nu] = math.nan
        elif bad == "reference":
            reference[0] = math.inf
        with pytest.raises(error, match=match):
            es.integrate(es.closed_loop_rhs(table1_market, 4.0), y0, h, t_end, method="rk4",
                         reference=reference, mu_index=lay.mu)


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


EULER_CHECK = "dynamics.euler_lyapunov_monotone"


def bounded_windows_match(rhs, y0, **run) -> list[int]:
    """The sizes of the bounded march's windows, each checked against ``integrate``'s rows."""
    traj = es.integrate(rhs, y0, **run)
    sizes = []
    for window in dynamics._march(rhs, y0, bounded=True, **run):
        start = sum(sizes)
        for column in ("times", "states", "lyapunov", "equilibrium_residuals"):
            np.testing.assert_array_equal(getattr(window, column),
                                          getattr(traj, column)[start : start + len(window)])
        sizes.append(len(window))
    assert sum(sizes) == len(traj)
    return sizes


class TestBoundedMarch:
    # The window (1 MiB), its deviations from the reference (1 MiB), the
    # tables of blocks that record every step (1 MiB) and of the tail
    # (1 MiB): the check's 200 001 records take 12.8 MB at N = 1 and 44.8
    # MB at N = 5.  Seed 0 is the fixture's and draws N = 1; seed 5 draws 5.
    @pytest.mark.parametrize("seed, n", [(0, 1), (5, 5)])
    def test_euler_check_memory_does_not_grow_with_its_horizon(self, table1_config, seed, n):
        assert _euler_instance(check_rng(seed, EULER_CHECK))[0].n == n
        tracemalloc.start()
        try:
            passed, detail = dict(CHECKS)[EULER_CHECK](
                table1_config, check_rng(seed, EULER_CHECK), 200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert passed, detail
        assert peak < 6 * 2**20

    @pytest.mark.parametrize("seed", range(5))
    def test_euler_check_report_is_that_of_the_whole_trajectory(self, seed):
        market, cap = _euler_instance(check_rng(seed, EULER_CHECK))
        lay = es.state_layout(market.n)
        rhs, y0 = es.closed_loop_rhs(market, cap), np.zeros(lay.dim)
        run = dict(reference=es.assemble_equilibrium(market, cap), mu_index=lay.mu, **EULER_RUN)
        folded = dynamics._folded_report(dynamics._march(rhs, y0, bounded=True, **run),
                                         SUMMARY_TOLERANCE)
        traj = es.integrate(rhs, y0, **run)
        assert folded == (es.convergence_report(traj, SUMMARY_TOLERANCE),
                          float(traj.lyapunov[0]), float(traj.times[-1]))

    def test_tail_batches_cross_windows(self, table1_market, block_steps):
        lay = es.state_layout(table1_market.n)
        sizes = bounded_windows_match(
            es.closed_loop_rhs(table1_market, 4.0), np.zeros(lay.dim), h=0.02, t_end=1200.0,
            method="rk4", reference=es.assemble_equilibrium(table1_market, 4.0),
            mu_index=lay.mu, record_stride=1,
        )
        assert len(sizes) > 5 and block_steps[1] > 0  # trapped, with windows to spare

    def test_step_loop_crosses_windows(self):
        market = es.validate_market([(1.0, -10.0, 3.0)])
        rhs = es.closed_loop_rhs(market, 5.0)
        lay = es.state_layout(1)
        sizes = bounded_windows_match(
            lambda y: rhs(y), np.zeros(lay.dim), h=1e-3, t_end=20.0,
            reference=es.assemble_equilibrium(market, 5.0), mu_index=lay.mu,
        )
        assert sizes == [2**20 // (8 * lay.dim), 20001 - 2**20 // (8 * lay.dim)]


class TestConvergence:
    @pytest.mark.parametrize("seed", range(5))
    def test_closed_loop_random_limits_check_passes(self, table1_config, seed):
        name = "dynamics.closed_loop_random_limits"
        passed, detail = dict(CHECKS)[name](table1_config, check_rng(seed, name), 200)
        assert passed, detail


def assembled_branch_spectrum(market, cap):
    """The closed loop's spectrum on the branches that ``assemble_equilibrium`` shows.

    The rule that :func:`closed_loop_spectrum` once applied to the
    assembled fixed point: free where ``mu > 0`` or ``nu == 0``, pinned
    where ``mu == 0``, each branch's eigenvalues from its own dense matrix,
    the free one first.
    """
    lay = es.state_layout(market.n)
    fixed = es.assemble_equilibrium(market, cap)
    drift = dynamics.closed_loop_matrix(market)
    spectra = []
    if fixed[lay.mu] > 0.0 or fixed[lay.nu] == 0.0:
        spectra.append(np.linalg.eigvals(drift))
    if fixed[lay.mu] == 0.0:
        keep = np.arange(lay.dim) != lay.mu
        spectra.append(np.linalg.eigvals(drift[np.ix_(keep, keep)]))
    return np.concatenate(spectra)


class TestClosedLoopSpectrum:
    # Below table1's CE price the cap binds and mu is pinned at 0, at it
    # the fixed point lies on both branches, and above it mu is free.
    @pytest.mark.parametrize("cap, size", [(4.0, 22), (8.256880733944953, 45), (20.0, 23)],
                             ids=["pinned", "both", "free"])
    def test_table1_branches(self, table1_market, cap, size):
        assert es.closed_loop_spectrum(table1_market, cap).size == size

    @given(market=markets(), cap=st.floats(*CAP_RANGE), near_ce=st.none() | st.integers(-1, 1))
    def test_branches_are_those_of_the_assembled_fixed_point(self, market, cap, near_ce):
        if near_ce is not None:
            lam = es.solve_ce(market).lambda_bar
            cap = lam + near_ce * np.spacing(lam)
        lay = es.state_layout(market.n)
        fixed = es.assemble_equilibrium(market, cap)
        # Where s2 * (cap - lam*) underflows, the assembled mu reads 0 below
        # the cap; the next test pins that case.
        assume(fixed[lay.mu] > 0.0 or fixed[lay.lam] == cap)
        np.testing.assert_array_equal(es.closed_loop_spectrum(market, cap),
                                      assembled_branch_spectrum(market, cap))

    # The market clears at price 0, one subnormal below the cap, and
    # mu* = s2 * (cap - lam*) = 0.25 * 5e-324 rounds to 0 though it is
    # positive: the fixed point is on the free branch only.
    def test_free_branch_only_where_mu_underflows(self):
        m = es.validate_market([(2.0, 0.0, 0.0)])
        cap = 5e-324
        assert es.assemble_equilibrium(m, cap)[es.state_layout(1).mu] == 0.0
        assert assembled_branch_spectrum(m, cap).size == 15
        spectrum = es.closed_loop_spectrum(m, cap)
        np.testing.assert_array_equal(spectrum, np.linalg.eigvals(dynamics.closed_loop_matrix(m)))

    # The first agent's q**2 underflows to 0, so the assembled fixed point's
    # pi divides by zero; the branches come from the capped equilibrium,
    # which does not divide where the cap is slack.  The suite turns any
    # warning into an error.
    def test_no_warning_where_q_squared_underflows(self):
        m = es.validate_market([(1e-200, -1.0, 1.0), (1.0, -10.0, 1.0)])
        assert es.closed_loop_spectrum(m, 1e300).size == es.state_layout(m.n).dim
        assert math.isfinite(es.closed_loop_decay_rate(m, 1e300))


class TestEulerStableStep:
    # Criterion 3's step is half of this bound.
    def test_table1_bound_is_pinned(self, table1_market):
        assert es.euler_stable_step(table1_market) == 6.210613289718287e-05

    # With q spanning many decades the dense spectrum's bound came out
    # negative (-2.54e-16 at 1e-100, -0.95 at 1e150) or |lam|**2 overflowed
    # (1e-160).  The suite turns any warning into an error.
    @pytest.mark.parametrize("q", [1e-100, 1e150, 1e-160])
    def test_no_bound_is_nan(self, q):
        m = es.validate_market([(q, -1.0, 1.0), (1.0, -10.0, 1.0)])
        assert math.isnan(es.euler_stable_step(m))


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
