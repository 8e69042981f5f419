"""Equilibrium solvers against independent oracles and frozen values."""

import math
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import energyshare as es
from energyshare import equilibrium
from energyshare.verification import CAP_RANGE, WIDE_RANGES, _residual_scale, random_market
from conftest import (
    _rationals, ce_oracle, exact_fixed_point, fixed_point_scales, markets, sce_oracle,
)

# Published two-decimal case-study values for the four-agent fixture.
CE_X = np.array([41.74, 34.5, 3.17, 0.59])
CE_PRICE = 8.26
SCE_X = np.array([40.69, 34.98, 3.55, 0.79])
SCE_U = np.array([5.31, 3.54, 0.53, 0.26])


# Magnitudes from 1e-150 to 1e150, log-uniform: s2 = sum 1/q**2 and every
# allocation stay within float64's range.
WIDE_MAGNITUDES = st.floats(-150.0, 150.0).map(lambda e: 10.0**e)


class TestSolveCe:
    # The exact price is -(sum c0/q + sum a) / s1 and x_i = -(price + c0_i) / q_i;
    # each float is held within 2n + 2 ulps of the terms it sums, the
    # first-order rounding bound of its order of evaluation.
    @settings(max_examples=150)
    @given(agents=st.lists(st.tuples(WIDE_MAGNITUDES, st.just(0.0) | WIDE_MAGNITUDES,
                                     st.just(0.0) | WIDE_MAGNITUDES), min_size=1, max_size=8))
    def test_within_ulps_of_the_exact_ce(self, agents):
        market = es.validate_market([(q, -c, a) for q, c, a in agents])
        ce = es.solve_ce(market)
        q, c0, a = _rationals(market)
        s1 = sum(1 / qi for qi in q)
        lam = -(sum(ci / qi for ci, qi in zip(c0, q)) + sum(a)) / s1
        lam_terms = (sum(abs(ci) / qi for ci, qi in zip(c0, q)) + sum(a)) / s1
        ulp, tiny, ulps = Fraction(2) ** -52, Fraction(2) ** -1074, 2 * market.n + 2

        def near(got, want, terms):
            return abs(Fraction(got) - want) <= ulps * max(ulp * terms, tiny)

        assert near(ce.lambda_bar, lam, lam_terms)
        for got, ci, qi in zip(ce.x_bar.tolist(), c0, q, strict=True):
            assert near(got, -(lam + ci) / qi, (lam_terms + abs(ci)) / qi), (got, ci, qi)

    def test_table1_matches_published_values(self, table1_market):
        ce = es.solve_ce(table1_market)
        np.testing.assert_allclose(ce.x_bar, CE_X, atol=0.01)
        assert ce.lambda_bar == pytest.approx(CE_PRICE, abs=0.01)

    def test_table1_matches_dense_oracle(self, table1_market):
        ce = es.solve_ce(table1_market)
        x_ref, lam_ref = ce_oracle(table1_market)
        np.testing.assert_allclose(ce.x_bar, x_ref, atol=1e-9)
        assert ce.lambda_bar == pytest.approx(lam_ref, abs=1e-12)

    def test_single_agent(self):
        m = es.validate_market([(1.0, -10.0, 3.0)])
        ce = es.solve_ce(m)
        assert ce.x_bar[0] == pytest.approx(3.0, abs=1e-12)
        assert ce.lambda_bar == pytest.approx(7.0, abs=1e-12)

    def test_two_identical_agents_split_symmetrically(self):
        m = es.validate_market([(2.0, -8.0, 1.0), (2.0, -8.0, 3.0)])
        ce = es.solve_ce(m)
        np.testing.assert_allclose(ce.x_bar, [2.0, 2.0], atol=1e-12)
        assert ce.lambda_bar == pytest.approx(4.0, abs=1e-12)

    def test_negative_consumption_is_reported_unclamped(self):
        # consumption is unconstrained: an agent with little appetite can
        # come out negative (net seller beyond its generation); no clamping
        m = es.validate_market([(1.0, -1.0, 5.0), (1.0, -9.0, 0.0)])
        ce = es.solve_ce(m)
        assert ce.lambda_bar == pytest.approx(2.5, abs=1e-12)
        assert ce.x_bar[0] == pytest.approx(-1.5, abs=1e-12)
        assert ce.x_bar.sum() == pytest.approx(5.0, abs=1e-12)


class TestAggregateSlack:
    def test_zero_at_exact_ce_price(self, table1_market):
        lam = es.solve_ce(table1_market).lambda_bar
        assert abs(es.aggregate_slack(table1_market, lam)) <= 1e-12

    def test_table1_at_price_4(self, table1_market):
        assert es.aggregate_slack(table1_market, 4.0) == pytest.approx(116.0 / 15.0, abs=1e-3)

    def test_grows_as_price_drops(self, table1_market):
        assert es.aggregate_slack(table1_market, -1e6) > 1e5


class TestSolveScalarLcp:
    def test_binding_cap(self, table1_market):
        assert es.solve_scalar_lcp(table1_market, 4.0) == 4.0

    def test_slack_cap_returns_ce_price(self, table1_market):
        lam = es.solve_scalar_lcp(table1_market, 10.0)
        assert lam == pytest.approx(CE_PRICE, abs=0.01)
        assert lam == es.solve_ce(table1_market).lambda_bar

    def test_boundary_cap_equals_ce_price(self, table1_market):
        lam_ce = es.solve_ce(table1_market).lambda_bar
        lam = es.solve_scalar_lcp(table1_market, lam_ce)
        assert lam == lam_ce
        assert abs(es.aggregate_slack(table1_market, lam)) <= 1e-12
        assert lam_ce - lam == 0.0

    def test_complementarity_residual(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            m = random_market(rng)
            cap = rng.uniform(*CAP_RANGE)
            lam = es.solve_scalar_lcp(m, cap)
            slack = es.aggregate_slack(m, lam)
            headroom = cap - lam
            assert slack >= -1e-12 * _residual_scale(m)
            assert headroom >= 0.0
            assert abs(slack * headroom) <= 1e-12 * _residual_scale(m) ** 2

    def test_nonfinite_cap_rejected(self, table1_market):
        with pytest.raises(es.NonfiniteInput):
            es.solve_scalar_lcp(table1_market, np.nan)


class TestSolveSce:
    def test_table1_matches_published_values(self, table1_market):
        sce = es.solve_sce(table1_market, 4.0)
        assert sce.lambda_star == 4.0
        np.testing.assert_allclose(sce.x_star, SCE_X, atol=0.01)
        np.testing.assert_allclose(sce.u_star, SCE_U, atol=0.01)

    def test_table1_scalar_dual(self, table1_market):
        sce = es.solve_sce(table1_market, 4.0)
        assert sce.nu_star == pytest.approx(5.308, abs=5e-3)
        # q_i * u_i is the same scalar for every agent
        np.testing.assert_allclose(table1_market.q * sce.u_star, sce.nu_star, rtol=1e-12)

    def test_table1_matches_dense_oracle(self, table1_market):
        sce = es.solve_sce(table1_market, 4.0)
        x_ref, lam_ref, u_ref, nu_ref = sce_oracle(table1_market, 4.0)
        np.testing.assert_allclose(sce.x_star, x_ref, atol=1e-9)
        np.testing.assert_allclose(sce.u_star, u_ref, atol=1e-9)
        assert sce.lambda_star == pytest.approx(lam_ref, abs=1e-12)
        assert sce.nu_star == pytest.approx(nu_ref, abs=1e-9)

    def test_single_agent_binding_cap(self):
        m = es.validate_market([(1.0, -10.0, 3.0)])
        sce = es.solve_sce(m, 5.0)
        assert sce.lambda_star == 5.0
        assert sce.nu_star == pytest.approx(2.0, abs=1e-12)
        assert sce.u_star[0] == pytest.approx(2.0, abs=1e-12)
        assert sce.x_star[0] == pytest.approx(3.0, abs=1e-12)

    def test_structural_duals_on_random_instances(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            m = random_market(rng)
            cap = rng.uniform(*CAP_RANGE)
            sce = es.solve_sce(m, cap)
            np.testing.assert_allclose(sce.u_star, sce.nu_star / m.q, atol=1e-12)
            assert sce.pi1_star == pytest.approx(m.s1 * sce.nu_star, rel=1e-12, abs=1e-12)
            np.testing.assert_array_equal(sce.pi2_star, -sce.u_star)
            assert sce.nu_star >= 0.0

    def test_matches_dense_oracle_on_random_instances(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            m = random_market(rng)
            cap = rng.uniform(*CAP_RANGE)
            sce = es.solve_sce(m, cap)
            x_ref, lam_ref, u_ref, nu_ref = sce_oracle(m, cap)
            scale = _residual_scale(m)
            np.testing.assert_allclose(sce.x_star, x_ref, atol=1e-9 * scale)
            np.testing.assert_allclose(sce.u_star, u_ref, atol=1e-9 * scale)
            assert sce.lambda_star == pytest.approx(lam_ref, abs=1e-9 * scale)

    # _capped over a list of caps, each held to conftest.exact_fixed_point's
    # lam, nu, x and u within 2n + 2 ulps of the terms it sums
    # (conftest.fixed_point_scales).  lam* is the cap or the CE price (2n + 2
    # ulps, as in TestSolveCe); nu* sums n demands at it and the generation,
    # over s2 = sum 1/q**2; x* and u* add two roundings each.  Caps fall on
    # both sides of the CE price, and within 3 ulps of it, where the float
    # and the exact price may pin on opposite branches.  Over 20 000 draws
    # the worst error seen was 1.9 ulps, in lam* at n = 7.
    @settings(max_examples=150)
    @given(market=markets(), data=st.data())
    def test_capped_within_ulps_of_the_exact_sce(self, market, data):
        lam_ce = es.solve_sw_dual(market)
        width = max(1.0, abs(lam_ce))
        cap = (st.floats(*CAP_RANGE) | st.floats(-2.0, 2.0).map(lambda t: lam_ce + t * width)
               | st.integers(-3, 3).map(lambda k: lam_ce + k * np.spacing(lam_ce)))
        caps = data.draw(st.lists(cap, min_size=1, max_size=6))
        # Quotients of values near the subnormal range round by more than an
        # ulp of their size.
        values = np.concatenate([market.c0, market.a, caps])
        assume(((values == 0.0) | (np.abs(values) >= 1e-290)).all())
        lam, nu, x, u = equilibrium._capped(market, np.array(caps), lam_ce)
        ulp, tiny, ulps = Fraction(2) ** -52, Fraction(2) ** -1074, 2 * market.n + 2
        for row, cap in enumerate(caps):
            exact, terms = exact_fixed_point(market, cap), fixed_point_scales(market, cap)
            got = dict(lam=[lam[row]], nu=[nu[row]], x=x[row].tolist(), u=u[row].tolist())
            for name, floats in got.items():
                want, scale = exact[name], terms[name]
                if not isinstance(want, list):
                    want, scale = [want], [scale]
                for g, w, t in zip(floats, want, scale, strict=True):
                    assert abs(Fraction(g) - w) <= ulps * max(ulp * t, tiny), (name, cap, g, float(w))

    def test_inactive_cap_reduces_to_ce(self, table1_market):
        ce = es.solve_ce(table1_market)
        sce = es.solve_sce(table1_market, 10.0)
        assert np.all(sce.u_star == 0.0)
        assert sce.nu_star == 0.0
        np.testing.assert_array_equal(sce.x_star, ce.x_bar)
        assert sce.lambda_star == ce.lambda_bar

    # q**2 of the first agent underflows to 0, where x = phi - nu / q**2
    # read 0/0 = NaN at an idle cap; the division now happens only where
    # the cap binds, so numpy has nothing to warn about.
    @pytest.mark.filterwarnings("error")
    def test_idle_cap_keeps_the_ce_allocation_where_q_squared_underflows(self):
        m = es.validate_market([(1e-200, -1.0, 1.0), (1.0, -10.0, 1.0)])
        sce = es.solve_sce(m, 1e300)
        assert sce.x_star.tobytes() == es.solve_ce(m).x_bar.tobytes()
        assert sce.nu_star == 0.0 and not sce.u_star.any()


class TestDualityChain:
    def test_sw_dual_equals_ce_price(self, table1_market):
        assert es.solve_sw_dual(table1_market) == pytest.approx(CE_PRICE, abs=0.01)

    def test_sw_dual_single_agent(self):
        m = es.validate_market([(1.0, -10.0, 3.0)])
        assert es.solve_sw_dual(m) == pytest.approx(7.0, abs=1e-12)

    def test_sw_dual_constructed_root(self):
        # all linear coefficients equal to -k and zero generation force price k
        k = 3.75
        m = es.validate_market([(2.0, -k, 0.0), (0.5, -k, 0.0), (7.0, -k, 0.0)])
        assert es.solve_sw_dual(m) == pytest.approx(k, abs=1e-12)

    def test_dual_to_primal_recovers_allocation(self, table1_market):
        lam = es.solve_sw_dual(table1_market)
        y = es.dual_to_primal_sw(table1_market, lam)
        np.testing.assert_allclose(y, es.solve_ce(table1_market).x_bar, atol=1e-9)

    def test_dual_to_primal_single_agent(self):
        m = es.validate_market([(1.0, -10.0, 3.0)])
        assert es.dual_to_primal_sw(m, 7.0)[0] == pytest.approx(3.0, abs=1e-12)

    def test_dual_to_primal_rejects_wrong_price(self, table1_market):
        with pytest.raises(es.InconsistentDual, match=r"^price 0\.0 leaves a supply-demand gap of "
                                                      r"1\.500e\+01 \(tolerance 1e-06\)$"):
            es.dual_to_primal_sw(table1_market, 0.0)

    # A batch is refused at its first market whose price leaves a gap.
    def test_dual_to_primal_names_the_first_market_of_a_batch_it_refuses(self):
        batch = es.market._validated(np.array([[[1.0], [2.0], [1.0]], [[-10.0], [-4.0], [-1.0]],
                                               [[3.0], [1.0], [0.0]]]))
        prices = es.solve_ce(batch).lambda_bar + [0.0, 1.0, 1.0]
        with pytest.raises(es.InconsistentDual, match=r"^market 1: price 3\.0 leaves a "
                                                      r"supply-demand gap of 5\.000e-01 "):
            es.dual_to_primal_sw(batch, prices)


class TestModifiedPrimal:
    def test_table1_binding_cap(self, table1_market):
        mp = es.solve_modified_primal(table1_market, 4.0)
        assert mp.lambda_bar == 4.0
        assert mp.s_bar == pytest.approx(116.0 / 15.0, abs=1e-9)
        assert mp.mu_s_bar == 0.0

    def test_table1_slack_cap(self, table1_market):
        mp = es.solve_modified_primal(table1_market, 10.0)
        assert abs(mp.s_bar) <= 1e-9
        assert mp.mu_s_bar == pytest.approx(10.0 - 900.0 / 109.0, abs=1e-9)

    def test_boundary_cap_doubly_degenerate(self, table1_market):
        lam_ce = es.solve_ce(table1_market).lambda_bar
        mp = es.solve_modified_primal(table1_market, lam_ce)
        assert abs(mp.s_bar) <= 1e-9
        assert mp.mu_s_bar == 0.0


class TestChangeOfVariables:
    def test_table1_determinant(self, table1_market):
        det = np.linalg.det(es.change_of_variables_matrix(table1_market))
        assert det == pytest.approx(1.456944, abs=1e-6)

    def test_single_agent_matrix(self):
        m = es.validate_market([(2.0, -1.0, 0.0)])
        np.testing.assert_allclose(
            es.change_of_variables_matrix(m), [[1.0, 0.25], [0.0, 0.25]], atol=1e-15
        )

    def test_structure_and_determinant_random(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            m = random_market(rng)
            mat = es.change_of_variables_matrix(m)
            n = m.n
            np.testing.assert_array_equal(mat[:n, :n], np.eye(n))
            assert np.all(mat[n, :n] == 0.0)
            assert np.linalg.det(mat) == pytest.approx(m.s2, rel=1e-12)

    def test_maps_sce_onto_modified_primal(self, table1_market):
        sce = es.solve_sce(table1_market, 4.0)
        y_img, s_img = es.map_sce_to_modified_primal(table1_market, sce)
        mp = es.solve_modified_primal(table1_market, 4.0)
        np.testing.assert_allclose(y_img, mp.y_bar, atol=1e-9)
        assert s_img == pytest.approx(mp.s_bar, abs=1e-9)

    def test_map_is_identity_when_cap_slack(self, table1_market):
        sce = es.solve_sce(table1_market, 10.0)
        y_img, s_img = es.map_sce_to_modified_primal(table1_market, sce)
        np.testing.assert_array_equal(y_img, sce.x_star)
        assert s_img == 0.0

    def test_map_single_agent(self):
        m = es.validate_market([(1.0, -10.0, 3.0)])
        y_img, s_img = es.map_sce_to_modified_primal(m, es.solve_sce(m, 5.0))
        assert y_img[0] == pytest.approx(5.0, abs=1e-12)
        assert s_img == pytest.approx(2.0, abs=1e-12)


class TestKktResidual:
    def test_solver_output_is_clean(self, table1_market):
        sce = es.solve_sce(table1_market, 4.0)
        rep = es.kkt_residual_sce(table1_market, 4.0, sce)
        assert rep.max_violation() <= 1e-9

    def test_uncapped_solution_violates_binding_cap(self, table1_market):
        ce = es.solve_ce(table1_market)
        candidate = es.SceSolution(
            x_star=ce.x_bar,
            lambda_star=ce.lambda_bar,
            u_star=np.zeros(4),
            nu_star=0.0,
            pi1_star=0.0,
            pi2_star=np.zeros(4),
        )
        rep = es.kkt_residual_sce(table1_market, 4.0, candidate)
        assert rep.cap_violation == pytest.approx(4.26, abs=0.01)
        assert rep.stationarity_norm <= 1e-9
        assert rep.supply_demand_gap <= 1e-9

    def test_nan_dual_is_the_max_violation(self, table1_market):
        sce = es.solve_sce(table1_market, 4.0)
        candidate = es.SceSolution(
            x_star=sce.x_star,
            lambda_star=sce.lambda_star,
            u_star=sce.u_star,
            nu_star=np.nan,
            pi1_star=sce.pi1_star,
            pi2_star=sce.pi2_star,
        )
        assert np.isnan(es.kkt_residual_sce(table1_market, 4.0, candidate).max_violation())

    def test_zero_candidate_stationarity_is_c0_norm(self, table1_market):
        zero = es.SceSolution(
            x_star=np.zeros(4),
            lambda_star=0.0,
            u_star=np.zeros(4),
            nu_star=0.0,
            pi1_star=0.0,
            pi2_star=np.zeros(4),
        )
        rep = es.kkt_residual_sce(table1_market, 4.0, zero)
        # direct substitution leaves the residual vector at c0
        assert rep.stationarity_norm == np.abs(table1_market.c0).max() == 60.0

    def test_dimension_mismatch(self, table1_market):
        bad = es.SceSolution(
            x_star=np.zeros(3),
            lambda_star=0.0,
            u_star=np.zeros(3),
            nu_star=0.0,
            pi1_star=0.0,
            pi2_star=np.zeros(3),
        )
        with pytest.raises(es.DimensionMismatch):
            es.kkt_residual_sce(table1_market, 4.0, bad)


class TestLcpOracle:
    def test_table1_binding_cap(self, table1_market):
        assert es.lcp_oracle(table1_market, 4.0, 1e-9) == pytest.approx(4.0, abs=1e-9)

    def test_table1_slack_cap(self, table1_market):
        assert es.lcp_oracle(table1_market, 10.0, 1e-9) == pytest.approx(8.257, abs=1e-3)

    def test_terminates_when_an_ulp_exceeds_the_tolerance(self):
        # Near a price of 1e9 adjacent floats lie 1.2e-7 apart, far above the
        # default tolerance, so the bracket stops shrinking before reaching it.
        market = es.validate_market([(1.0, -1e9, 0.37)])
        result = []
        worker = threading.Thread(
            target=lambda: result.append(es.lcp_oracle(market, 2e9)), daemon=True
        )
        worker.start()
        worker.join(timeout=5.0)
        assert result, "lcp_oracle did not return within 5 s"
        expected = es.solve_scalar_lcp(market, 2e9)
        assert abs(result[0] - expected) <= 2.0 * np.spacing(expected)

    # The oracle against conftest.exact_fixed_point's price, at caps on both
    # sides of the CE price and at it: within the default tolerance, 1e-10,
    # the width of its final bracket.  Over 40 000 draws the worst error was
    # 1.3e-11, 2.6e-12 of the terms the price sums (fixed_point_scales): the
    # bracket's half-width, not rounding, bounds it.
    @settings(max_examples=150)
    @given(market=markets(), data=st.data())
    def test_within_its_tolerance_of_the_exact_price(self, market, data):
        lam_ce = es.solve_sw_dual(market)
        width = max(1.0, abs(lam_ce))
        cap = data.draw(st.just(lam_ce) | st.floats(*CAP_RANGE)
                        | st.floats(-2.0, 2.0).map(lambda t: lam_ce + t * width))
        exact = exact_fixed_point(market, cap)["lam"]
        assert abs(Fraction(es.lcp_oracle(market, cap)) - exact) <= 1e-10

    def test_rejects_bad_tolerance(self, table1_market):
        # A NaN width passed a `<= 0` test and an infinite one ended the
        # bracket at once: at cap 10 both returned 7.0, not the price 8.26.
        for tolerance in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                es.lcp_oracle(table1_market, 4.0, tolerance)


class TestBracketRoot:
    @pytest.mark.parametrize("tolerance", [1e-3, 1e-9, 1e-12])
    @pytest.mark.parametrize(
        "f, root, lo, hi",
        [
            (lambda x: 3.0 - x**3 - x, 1.2134116627622296, -5.0, 7.0),
            (lambda x: 2.0 - math.exp(x), math.log(2.0), -10.0, 10.0),
            (lambda x: -math.atan(1e6 * (x - 0.3)), 0.3, -1.0, 2.0),
        ],
        ids=["cubic", "exp", "steep_atan"],
    )
    def test_closes_on_a_nonaffine_root_within_twice_bisection(self, f, root, lo, hi, tolerance):
        calls = []

        def counted(x):
            calls.append(x)
            return f(x)

        a, b = equilibrium._bracket_root(counted, lo, hi, f(lo), f(hi), tolerance)
        assert b - a <= tolerance
        assert abs(0.5 * (a + b) - root) <= tolerance
        assert len(calls) <= 2 * math.ceil(math.log2((hi - lo) / tolerance)) + 1

    def test_oracle_closes_table1_slack_cap_in_few_slack_calls(self, table1_market, monkeypatch):
        # Bisection to 1e-9 takes 36 calls on table1: the cap, one expansion,
        # 33 halvings of the 6-wide bracket and the audit.  Near a price of
        # 1e9 a quarter of the default tolerance is below one ulp, where a
        # secant point kept only that far inside rounds onto the bracket's
        # end and the helper bisects down to adjacent floats (27 calls).
        calls = []
        slack = equilibrium.aggregate_slack

        def counted(market, lam):
            calls.append(lam)
            return slack(market, lam)

        monkeypatch.setattr(equilibrium, "aggregate_slack", counted)
        large = es.validate_market([(1.0, -1e9, 0.0)])
        for market, cap, tolerance, price, abs_tol in [
            (table1_market, 10.0, 1e-9, 8.257, 1e-3),
            (large, 2e9, 1e-10, 1e9, 2.0 * np.spacing(1e9)),
        ]:
            calls.clear()
            assert es.lcp_oracle(market, cap, tolerance) == pytest.approx(price, abs=abs_tol)
            assert len(calls) <= 8


# The caps of a batch, one per market, relative to its CE price.
CAP_KINDS = {
    "ce": lambda ce, offset: ce,
    "ulp_above": lambda ce, offset: math.nextafter(ce, math.inf),
    "ulp_below": lambda ce, offset: math.nextafter(ce, -math.inf),
    "binding": lambda ce, offset: ce - offset,
    "idle": lambda ce, offset: ce + offset,
}


@st.composite
def batch_tables(draw):
    """A ``(3, k, n)`` table over ``WIDE_RANGES``, ``markets()``' ranges, and a cap kind
    and offset per market: a binding and an idle cap first, then any kinds."""
    r = WIDE_RANGES
    n, k = draw(st.integers(1, r["n_max"])), draw(st.integers(2, 6))

    def row(lo, hi):
        return draw(st.lists(st.floats(lo, hi), min_size=k * n, max_size=k * n))

    table = np.array([row(r["q_lo"], r["q_hi"]), row(r["c0_lo"], r["c0_hi"]), row(0.0, r["a_hi"])])
    kinds = ["binding", "idle", *draw(st.lists(st.sampled_from(sorted(CAP_KINDS)),
                                               min_size=k - 2, max_size=k - 2))]
    offsets = draw(st.lists(st.floats(0.5, 40.0), min_size=k, max_size=k))
    return table.reshape(3, k, n), kinds, offsets


def closed_forms(market, cap):
    """Every per-market closed form of ``market`` at ``cap``, by name, as tuples of results."""
    ce, sce = es.solve_ce(market), es.solve_sce(market, cap)
    fixed = es.assemble_equilibrium(market, cap)
    return {
        "ce": (ce.x_bar, ce.lambda_bar),
        "sce": tuple(vars(sce).values()),
        "oracle": (es.lcp_oracle(market, cap, 1e-9), es.solve_scalar_lcp(market, cap)),
        "kkt": tuple(vars(es.kkt_residual_sce(market, cap, sce)).values()),
        "modified primal": tuple(vars(es.solve_modified_primal(market, cap)).values()),
        "change of variables": es.map_sce_to_modified_primal(market, sce),
        "dual to primal": (es.dual_to_primal_sw(market, ce.lambda_bar),),
        "fixed point": (fixed, es.rhs_closed_loop(market, fixed, cap)),
        "open loop and reduced": (es.open_loop_equilibrium(market), es.reduced_equilibrium(market)),
        "certificate": tuple(vars(es.stability_certificate(market)).values()),
    }


class TestBatchAxis:
    # A batch of markets is computed as each of its markets alone, bit for
    # bit, and a single market's scalar results stay floats.
    @given(batch_tables())
    def test_each_closed_form_equals_its_markets_alone(self, drawn):
        table, kinds, offsets = drawn
        batch = es.market._validated(table.copy())
        lam_ce = es.solve_ce(batch).lambda_bar.tolist()
        caps = np.array([CAP_KINDS[kind](lam, offset)
                         for kind, lam, offset in zip(kinds, lam_ce, offsets)])
        batched = closed_forms(batch, caps)
        assert batched["sce"][1][0] == caps[0] and batched["sce"][1][1] < caps[1]
        for i, cap in enumerate(caps.tolist()):
            alone = closed_forms(es.validate_market(table[:, i].T), cap)
            for form, values in alone.items():
                for got, want in zip(batched[form], values, strict=True):
                    assert np.asarray(got)[i].tobytes() == np.asarray(want).tobytes(), (form, i)
                    assert np.ndim(want) or type(want) is float, (form, type(want))


def candidates(market, cap):
    """The capped solution at ``cap``, the CE (which overshoots a binding cap) and
    the capped solution with its dual negated (a negative ``nu``)."""
    sce, ce = es.solve_sce(market, cap), es.solve_ce(market)
    zero = np.zeros(market.q.shape)
    as_ce = es.SceSolution(x_star=ce.x_bar, lambda_star=ce.lambda_bar, u_star=zero,
                           nu_star=np.zeros_like(ce.lambda_bar) if np.ndim(cap) else 0.0,
                           pi1_star=0.0, pi2_star=zero)
    negated = es.SceSolution(x_star=sce.x_star, lambda_star=sce.lambda_star, u_star=sce.u_star,
                             nu_star=-sce.nu_star, pi1_star=sce.pi1_star, pi2_star=sce.pi2_star)
    return sce, as_ce, negated


def assert_clamp_free_residuals_are_the_where_forms(market, cap):
    for candidate in candidates(market, cap):
        rep = es.kkt_residual_sce(market, cap, candidate)
        lam, nu = candidate.lambda_star, candidate.nu_star
        overshoot = np.where(lam - cap > 0.0, lam - cap, 0.0)
        gap = abs(nu * (cap - lam)) + np.where(-nu > 0.0, -nu, 0.0)
        assert np.asarray(rep.cap_violation).tobytes() == overshoot.tobytes()
        assert np.asarray(rep.complementarity_gap).tobytes() == np.asarray(gap).tobytes()
        for value in vars(rep).values():
            assert not np.signbit(value).any()  # no -0.0
            assert np.ndim(cap) or type(value) is float


class TestClampFreeResiduals:
    # max(0, d) as (|d| + d) / 2 is the np.where clamp to the bit, +0.0
    # included, at an idle and a binding cap, and for candidates whose
    # overshoot or negated dual is positive.
    @given(market=markets(), offset=st.floats(0.5, 40.0), binding=st.booleans())
    def test_equal_the_where_forms_on_a_market(self, market, offset, binding):
        lam_ce = es.solve_ce(market).lambda_bar
        assert_clamp_free_residuals_are_the_where_forms(
            market, lam_ce - offset if binding else lam_ce + offset)

    @given(batch_tables())
    def test_equal_the_where_forms_on_a_batch(self, drawn):
        table, kinds, offsets = drawn
        batch = es.market._validated(table.copy())
        lam_ce = es.solve_ce(batch).lambda_bar.tolist()
        caps = np.array([CAP_KINDS[kind](lam, offset)
                         for kind, lam, offset in zip(kinds, lam_ce, offsets)])
        assert_clamp_free_residuals_are_the_where_forms(batch, caps)

    def test_positive_part_is_exact_at_zeros_and_subnormals(self):
        tiny = 5e-324
        values = [0.0, -0.0, tiny, -tiny, 3 * tiny, 2.2250738585072014e-308, 1.0, -1.0, 1e307]
        for value in [*values, np.array(values)]:
            got = equilibrium._positive_part(value)
            assert np.asarray(got).tobytes() == np.where(value > 0.0, value, 0.0).tobytes()
            assert type(got) is type(value)

    def test_a_cap_that_is_not_finite_gives_residuals_that_are_not(self, table1_market):
        sce = es.solve_sce(table1_market, 4.0)
        for cap in (np.nan, np.inf):
            assert not math.isfinite(es.kkt_residual_sce(table1_market, cap, sce).max_violation())
