"""Market data model: validation, projection operator, utility, demand map."""

import warnings

import numpy as np
import pytest

import energyshare as es


class TestValidateMarket:
    def test_table1_records(self, table1_market):
        assert table1_market.n == 4
        assert table1_market.sum_a == pytest.approx(80.0, abs=1e-12)
        with warnings.catch_warnings():
            warnings.simplefilter("error", es.MarketWarning)
            es.validate_market(table1_market.agents)  # every c0 <= 0: no MarketWarning

    def test_derived_aggregates_match_recomputation(self, table1_market):
        m = table1_market
        q = np.array([ag.q for ag in m.agents])
        c0 = np.array([ag.c0 for ag in m.agents])
        a = np.array([ag.a for ag in m.agents])
        assert m.s1 == pytest.approx((1 / q).sum(), rel=1e-15)
        assert m.s2 == pytest.approx((1 / q**2).sum(), rel=1e-15)
        assert m.sqc == pytest.approx((c0 / q).sum(), rel=1e-15)
        assert m.sum_a == pytest.approx(a.sum(), rel=1e-15)

    def test_single_degenerate_agent(self):
        m = es.validate_market([es.AgentParams(q=1.0, c0=0.0, a=0.0)])
        assert m.n == 1
        assert m.sum_a == 0.0

    def test_accepts_mappings_and_triples(self):
        m1 = es.validate_market([{"q": 2.0, "c0": -8.0, "a": 1.0}])
        m2 = es.validate_market([(2.0, -8.0, 1.0)])
        assert m1.agents == m2.agents

    def test_empty_market_rejected(self):
        with pytest.raises(es.EmptyMarket):
            es.validate_market([])

    def test_nonpositive_curvature_rejected(self):
        with pytest.raises(es.NonpositiveCurvature):
            es.validate_market([(0.0, -1.0, 1.0)])
        with pytest.raises(es.NonpositiveCurvature):
            es.validate_market([(1.0, -1.0, 1.0), (-2.0, -1.0, 1.0)])

    def test_negative_generation_rejected(self):
        with pytest.raises(es.NegativeGeneration):
            es.validate_market([(1.0, -1.0, -0.5)])

    def test_nonfinite_rejected(self):
        for bad in [(np.nan, -1.0, 1.0), (1.0, np.inf, 1.0), (1.0, -1.0, np.nan)]:
            with pytest.raises(es.NonfiniteInput):
                es.validate_market([bad])

    def test_nonfinite_message_prints_a_plain_float(self):
        with pytest.raises(es.NonfiniteInput, match=r"^agent 1: c0 = -inf is not finite$"):
            es.validate_market([(1.0, -1.0, 1.0), (1.0, np.float64(-np.inf), 1.0)])

    def test_none_is_not_read_as_nan(self):
        with pytest.raises(TypeError):
            es.validate_market([(None, -1.0, 1.0)])

    def test_positive_c0_warns_but_validates(self):
        with pytest.warns(es.MarketWarning, match="c0 = 2.5") as record:
            es.validate_market([(1.0, 2.5, 1.0)])
        assert len(record) == 1

    def test_instance_arrays_are_read_only(self, table1_market):
        for column in (table1_market.q, table1_market.c0, table1_market.a):
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 99.0

    def test_missing_field_in_record(self):
        with pytest.raises(es.MissingField):
            es.validate_market([{"q": 1.0, "c0": -1.0}])
        with pytest.raises(es.MissingField, match="exactly"):
            es.validate_market([(1.0, -1.0)])


class TestConditionalProjection:
    def test_passthrough_branch(self):
        assert es.conditional_projection(-5.0, 2.0) == -5.0

    def test_boundary_clamps_negative(self):
        assert es.conditional_projection(-5.0, 0.0) == 0.0

    def test_boundary_keeps_positive(self):
        assert es.conditional_projection(3.0, 0.0) == 3.0


class TestUtility:
    def test_nominal_example(self):
        ag = es.AgentParams(q=1.0, c0=-50.0, a=48.0)
        assert es.utility(ag, 50.0, 0.0) == pytest.approx(1250.0, abs=1e-12)

    def test_zero_consumption(self):
        ag = es.AgentParams(q=3.0, c0=-7.0, a=1.0)
        assert es.utility(ag, 0.0, 4.0) == 0.0

    def test_adjusted_example(self):
        ag = es.AgentParams(q=2.0, c0=-8.0, a=0.0)
        assert es.utility(ag, 2.0, 1.0) == pytest.approx(10.0, abs=1e-12)


class TestPhi:
    def test_table1_at_price_4(self, table1_market):
        expected = np.array([46.0, 112.0 / 3.0, 3.6, 0.8])
        np.testing.assert_allclose(es.phi(table1_market, 4.0), expected, atol=1e-12)

    def test_vanishes_when_c0_equals_minus_price(self):
        m = es.validate_market([(2.0, -5.0, 1.0), (7.0, -5.0, 0.0)])
        np.testing.assert_array_equal(es.phi(m, 5.0), np.zeros(2))

    def test_sums_to_generation_at_ce_price(self, table1_market):
        lam = es.solve_ce(table1_market).lambda_bar
        assert es.phi(table1_market, lam).sum() == pytest.approx(80.0, abs=1e-9)

    def test_affine_in_price(self):
        m = es.validate_market([(2.0, -5.0, 1.0), (7.0, -5.0, 0.0)])
        p0, p1, p2 = es.phi(m, 0.0), es.phi(m, 1.0), es.phi(m, 2.0)
        np.testing.assert_allclose(p2 - p1, p1 - p0, atol=1e-12)
