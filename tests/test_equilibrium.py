"""Equilibrium solvers against independent oracles and frozen values."""

import math
import threading

import numpy as np
import pytest

import energyshare as es
from energyshare import equilibrium
from energyshare.verification import CAP_RANGE, _residual_scale, random_market
from conftest import ce_oracle, sce_oracle

# Published two-decimal case-study values for the four-agent fixture.
CE_X = np.array([41.74, 34.5, 3.17, 0.59])
CE_PRICE = 8.26
SCE_X = np.array([40.69, 34.98, 3.55, 0.79])
SCE_U = np.array([5.31, 3.54, 0.53, 0.26])


class TestSolveCe:
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

    def test_inactive_cap_reduces_to_ce(self, table1_market):
        ce = es.solve_ce(table1_market)
        sce = es.solve_sce(table1_market, 10.0)
        assert np.all(sce.u_star == 0.0)
        assert sce.nu_star == 0.0
        np.testing.assert_array_equal(sce.x_star, ce.x_bar)
        assert sce.lambda_star == ce.lambda_bar


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
        with pytest.raises(es.InconsistentDual):
            es.dual_to_primal_sw(table1_market, 0.0)


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

    def test_rejects_bad_tolerance(self, table1_market):
        with pytest.raises(ValueError):
            es.lcp_oracle(table1_market, 4.0, 0.0)


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
