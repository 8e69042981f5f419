"""Market data model: validation, projection operator, utility, demand map."""

import warnings
from pathlib import Path

import numpy as np
import pytest

import energyshare as es
from energyshare.market import _validated
from energyshare.verification import SIM_RANGES, WIDE_RANGES, random_market, random_markets


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


    def test_table_names_the_first_fault_in_the_order_q_c0_a(self):
        table = np.array([[1.0, 1.0, -1.0, 1.0],  # q: agent 2
                          [-1.0, -1.0, -1.0, np.nan],  # c0: agent 3
                          [1.0, -1.0, 1.0, 1.0]])  # a: agent 1
        with pytest.raises(es.NonfiniteInput, match="^agent 3: c0 = nan"):
            _validated(table.copy())
        table[1, 3] = -1.0
        with pytest.raises(es.NonpositiveCurvature, match="^agent 2: q = -1.0"):
            _validated(table.copy())
        table[0, 2] = 1.0
        with pytest.raises(es.NegativeGeneration, match="^agent 1: a = -1.0"):
            _validated(table.copy())

    def test_batch_names_the_first_fault_by_its_agent_in_its_market(self):
        table = np.array([np.ones((2, 3)), -np.ones((2, 3)), np.ones((2, 3))])
        table[0, 1, 2] = 0.0  # market 1, agent 2
        with pytest.raises(es.NonpositiveCurvature, match="^agent 2: q = 0.0"):
            _validated(table.copy())
        table[0, 1, 2], table[1, 1, 0] = 1.0, 3.0
        with pytest.warns(es.MarketWarning, match="^agent 0: c0 = 3.0") as record:
            batch = _validated(table.copy())
        assert len(record) == 1 and batch.q.shape == (2, 3) and batch.sum_a.shape == (2,)

    def test_positive_c0_warning_points_at_the_caller(self):
        with pytest.warns(es.MarketWarning) as record:
            es.validate_market([(1.0, 2.5, 1.0)])
            random_market(np.random.default_rng(0), n=2, c0_lo=1.0, c0_hi=2.0)
        assert len(record) == 3
        assert {Path(w.filename) for w in record} == {Path(__file__)}


def reference_market(rng, n=None, **ranges):
    """``random_market``'s draws, one ``uniform`` call per column, through ``validate_market``."""
    r = WIDE_RANGES | ranges
    if n is None:
        n = int(rng.integers(1, r["n_max"] + 1))
    q = rng.uniform(r["q_lo"], r["q_hi"], n)
    c0 = rng.uniform(r["c0_lo"], r["c0_hi"], n)
    a = rng.uniform(0.0, r["a_hi"], n)
    return es.validate_market(np.column_stack((q, c0, a)))


class TestRandomMarket:
    @pytest.mark.parametrize("ranges", [WIDE_RANGES, SIM_RANGES], ids=["wide", "sim"])
    @pytest.mark.parametrize("n", [None, 7])
    def test_equals_the_validated_uniform_draws_byte_for_byte(self, ranges, n):
        for seed in range(200):
            rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            m, ref = random_market(rng, n=n, **ranges), reference_market(twin, n=n, **ranges)
            for name in ("q", "c0", "a", "sum_a", "s1", "s2", "sqc"):
                assert np.asarray(getattr(m, name)).tobytes() == \
                    np.asarray(getattr(ref, name)).tobytes(), (seed, name)
            assert rng.random() == twin.random()

    def test_no_agents_is_an_empty_market(self):
        with pytest.raises(es.EmptyMarket):
            random_market(np.random.default_rng(0), n=0)


class TestRandomMarkets:
    @pytest.mark.parametrize("ranges", [WIDE_RANGES, SIM_RANGES], ids=["wide", "sim"])
    def test_each_market_equals_its_own_columns_validated_byte_for_byte(self, ranges):
        for seed in range(200):
            batches = random_markets(np.random.default_rng(seed), 50, **ranges)
            assert sum(len(batch.q) for batch in batches) == 50
            for batch in batches:
                for k in range(len(batch.q)):
                    ref = _validated(np.array([batch.q[k], batch.c0[k], batch.a[k]]))
                    for name in ("q", "c0", "a", "sum_a", "s1", "s2", "sqc"):
                        assert getattr(batch, name)[k].tobytes() == \
                            np.asarray(getattr(ref, name)).tobytes(), (seed, k, name)
                for name in ("q", "sum_a", "s1", "s2", "sqc"):
                    assert not getattr(batch, name).flags.writeable, (seed, name)

    def test_sizes_come_first_then_one_table_per_size(self):
        r = SIM_RANGES
        rng, twin = np.random.default_rng(7), np.random.default_rng(7)
        batches = random_markets(rng, 40, **r)
        sizes = twin.integers(1, r["n_max"] + 1, 40)
        counts = np.unique(sizes, return_counts=True)
        assert [batch.q.shape for batch in batches] == list(zip(counts[1].tolist(), counts[0].tolist()))
        for batch in batches:
            q, c0, a = twin.random((3, *batch.q.shape))
            np.testing.assert_array_equal(batch.q, r["q_lo"] + q * (r["q_hi"] - r["q_lo"]))
            np.testing.assert_array_equal(batch.c0, r["c0_lo"] + c0 * (r["c0_hi"] - r["c0_lo"]))
            np.testing.assert_array_equal(batch.a, a * r["a_hi"])
        assert rng.random() == twin.random()


class TestConditionalProjection:
    def test_passthrough_branch(self):
        assert es.conditional_projection(-5.0, 2.0) == -5.0

    def test_boundary_clamps_negative(self):
        assert es.conditional_projection(-5.0, 0.0) == 0.0

    def test_boundary_keeps_positive(self):
        assert es.conditional_projection(3.0, 0.0) == 3.0

    def test_arrays_project_entry_by_entry_as_scalars_do(self):
        values = [-5.0, -0.0, 0.0, 3.0, np.nan, -np.inf, np.inf]
        xs, ys = (np.array(v).ravel() for v in np.meshgrid(values, values))
        got = es.conditional_projection(xs, ys)
        for x, y, g in zip(xs.tolist(), ys.tolist(), got.tolist()):
            want = x if y > 0.0 else max(0.0, x)
            assert type(es.conditional_projection(x, y)) is float
            assert np.array(g).tobytes() == np.array(want).tobytes(), (x, y)
            assert np.array(es.conditional_projection(x, y)).tobytes() == np.array(want).tobytes()


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
