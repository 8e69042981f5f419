"""Scenario I/O: config parsing, reports, simulation export, sweep, verify."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

import energyshare as es
from energyshare import _shortest, scenario
from energyshare.verification import CHECKS, check_rng
from conftest import markets, sized_market

MINIMAL = '{"agents": [{"q": 2.0, "c0": -8.0, "a": 1.0}], "lambda_max": 3.0}'

# The checks that hold a per-market residual to a tolerance.
RESIDUAL_CHECKS = [(name, check) for name, check in CHECKS if hasattr(check, "residual")]


def _doc(agents, **top):
    return {"agents": agents, "lambda_max": 3.0, **top}


_OK = {"q": 1.0, "c0": -1.0, "a": 1.0}
_INF, _NAN = float("inf"), float("nan")

# Malformed configs, each with the error that load_config raises first.
# Every agent parses before any is validated; validation checks each column
# over all agents (non-finite, then q, then a) before the cap and sim.
LOAD_ERRORS = {
    "parse_error_beats_earlier_invalid_agent": (
        _doc([{"q": 0.0, "c0": -1.0, "a": 1.0}, _OK, {"q": "x", "c0": -1.0, "a": 1.0}]),
        es.ParseError, "agents[2].q must be a number, got 'x'"),
    "unknown_key_beats_missing_field": (
        _doc([{"q": 1.0, "c0": -1.0, "b": 1.0}]),
        es.ParseError, "agents[0] has unknown key 'b'"),
    "first_unknown_key_in_sorted_order": (
        _doc([{"z": 1.0, "q": 1.0, "c0": -1.0, "a": 1.0, "b": 2}]),
        es.ParseError, "agents[0] has unknown key 'b'"),
    "missing_fields_in_field_order": (
        _doc([{"a": 1.0}]), es.MissingField, "agents[0] lacks required field 'q'"),
    "true_is_not_a_number": (
        _doc([{"q": True, "c0": -1.0, "a": 1.0}]),
        es.ParseError, "agents[0].q must be a number, got True"),
    "string_is_not_a_number": (
        _doc([{"q": 1.0, "c0": "1.0", "a": 1.0}]),
        es.ParseError, "agents[0].c0 must be a number, got '1.0'"),
    "null_is_not_a_number": (
        _doc([{"q": 1.0, "c0": -1.0, "a": None}]),
        es.ParseError, "agents[0].a must be a number, got None"),
    "non_object_agent": (
        _doc([_OK, 1.0]), es.ParseError, "agents[1] must be an object, got float"),
    "list_agent": (
        _doc([[1.0, -1.0, 1.0]]), es.ParseError, "agents[0] must be an object, got list"),
    "agents_as_object": (
        _doc(_OK), es.ParseError, "config.agents must be a list of agent records"),
    "no_agents": (_doc([]), es.EmptyMarket, "market must contain at least one agent"),
    "400_digit_integer": (
        _doc([{"q": 1.0, "c0": -1.0, "a": int("9" * 400)}]),
        es.ParseError, "agents[0].a must fit in a float64, got a 400-digit integer"),
    "unknown_top_level_key_beats_agents": (
        _doc([{"q": "x"}], gamma=1), es.ParseError, "config has unknown key 'gamma'"),
    "agents_beat_missing_lambda_max": (
        {"agents": [{"q": 0.0, "c0": -1.0, "a": 1.0}]},
        es.NonpositiveCurvature, "agent 0: q = 0.0 must be strictly positive"),
    "true_lambda_max": (
        _doc([_OK], lambda_max=True),
        es.ParseError, "config.lambda_max must be a number, got True"),
    "nan_q": (
        _doc([{"q": 1.0, "c0": _INF, "a": 1.0}, {"q": _NAN, "c0": -1.0, "a": 1.0}]),
        es.NonfiniteInput, "agent 1: q = nan is not finite"),
    "nonfinite_beats_nonpositive": (
        _doc([{"q": 0.0, "c0": -1.0, "a": 1.0}, {"q": 1.0, "c0": -1.0, "a": -_INF}]),
        es.NonfiniteInput, "agent 1: a = -inf is not finite"),
    "nonpositive_beats_negative_generation": (
        _doc([{"q": 1.0, "c0": -1.0, "a": -1.0}, {"q": -0.0, "c0": -1.0, "a": 1.0}]),
        es.NonpositiveCurvature, "agent 1: q = -0.0 must be strictly positive"),
    "negative_generation": (
        _doc([_OK, {"q": 1.0, "c0": -1.0, "a": -0.5}]),
        es.NegativeGeneration, "agent 1: a = -0.5 must be nonnegative"),
    "nan_lambda_max": (
        _doc([_OK], lambda_max=_NAN), es.NonfiniteInput, "lambda_max must be finite, got nan"),
    "market_beats_sim": (
        _doc([{"q": 0.0, "c0": -1.0, "a": 1.0}], sim={"method": "heun"}),
        es.NonpositiveCurvature, "agent 0: q = 0.0 must be strictly positive"),
    "sim_beats_seed": (
        _doc([_OK], sim={"h": -1.0}, seed=True),
        es.ParseError, "sim.h must be positive and finite, got -1.0"),
    "unknown_sim_key": (_doc([_OK], sim={"dt": 1.0}), es.ParseError, "sim has unknown key 'dt'"),
}


class TestLoadConfig:
    def test_table1_fixture(self, table1_config):
        assert table1_config.market.n == 4
        assert table1_config.cap.lambda_max == 4.0
        assert table1_config.sim.method == "rk4"
        assert table1_config.sim.record_stride == 100
        assert table1_config.seed == 0

    def test_accepts_json_text(self):
        cfg = es.load_config(MINIMAL)
        assert cfg.market.n == 1
        assert cfg.cap.lambda_max == 3.0

    def test_sim_defaults(self):
        sim = es.load_config(MINIMAL).sim
        assert sim.h == 1e-3
        assert sim.t_end == 100.0
        assert sim.method == "euler"
        assert sim.record_stride == 10
        assert sim.init == "zero"

    def test_round_trip_is_byte_identical(self, table1_config):
        text = es.config_to_json(table1_config)
        assert es.config_to_json(es.load_config(text)) == text

    def test_round_trip_with_explicit_init(self):
        init = list(range(8))
        doc = json.loads(MINIMAL)
        doc["sim"] = {"init": [float(v) for v in init]}
        text = json.dumps(doc)
        cfg = es.load_config(text)
        assert isinstance(cfg.sim.init, np.ndarray)
        again = es.config_to_json(es.load_config(es.config_to_json(cfg)))
        assert again == es.config_to_json(cfg)

    def test_zero_curvature_rejected(self):
        with pytest.raises(es.NonpositiveCurvature):
            es.load_config('{"agents": [{"q": 0.0, "c0": -1.0, "a": 1.0}], "lambda_max": 3.0}')

    def test_unknown_agent_key_named(self):
        with pytest.raises(es.ParseError, match="qq"):
            es.load_config(
                '{"agents": [{"qq": 1.0, "c0": -1.0, "a": 1.0}], "lambda_max": 3.0}'
            )

    def test_unknown_top_level_key_named(self):
        with pytest.raises(es.ParseError, match="gamma"):
            es.load_config(
                '{"agents": [{"q": 1.0, "c0": -1.0, "a": 1.0}], "lambda_max": 3.0, "gamma": 1}'
            )

    def test_missing_lambda_max(self):
        with pytest.raises(es.MissingField, match="lambda_max"):
            es.load_config('{"agents": [{"q": 1.0, "c0": -1.0, "a": 1.0}]}')

    def test_missing_agents(self):
        with pytest.raises(es.MissingField, match="agents"):
            es.load_config('{"lambda_max": 3.0}')

    def test_malformed_json_reports_position(self):
        with pytest.raises(es.ParseError, match="line"):
            es.load_config('{"agents": [}')

    def test_missing_file(self, tmp_path):
        with pytest.raises(es.ParseError, match="cannot read"):
            es.load_config(str(tmp_path / "nope.json"))

    def test_bad_method_rejected(self):
        with pytest.raises(es.ParseError, match="method"):
            es.load_config(
                '{"agents": [{"q": 1.0, "c0": -1.0, "a": 1.0}], "lambda_max": 3.0,'
                ' "sim": {"method": "heun"}}'
            )

    def test_wrong_init_length_rejected(self):
        with pytest.raises(es.ParseError, match="5N\\+3"):
            es.load_config(
                '{"agents": [{"q": 1.0, "c0": -1.0, "a": 1.0}], "lambda_max": 3.0,'
                ' "sim": {"init": [0.0, 0.0]}}'
            )

    def test_non_numeric_field_rejected(self):
        with pytest.raises(es.ParseError, match="lambda_max"):
            es.load_config('{"agents": [{"q": 1.0, "c0": -1.0, "a": 1.0}], "lambda_max": "4"}')

    def test_boolean_seed_rejected(self):
        with pytest.raises(es.ParseError, match="seed"):
            es.load_config(
                '{"agents": [{"q": 1.0, "c0": -1.0, "a": 1.0}], "lambda_max": 3.0, "seed": true}'
            )

    @pytest.mark.parametrize("doc, error, message", LOAD_ERRORS.values(), ids=LOAD_ERRORS)
    def test_first_error_and_its_message(self, doc, error, message):
        with pytest.raises(error) as info:
            es.load_config(json.dumps(doc))
        assert type(info.value) is error
        assert str(info.value) == message

    def test_integer_fields_give_the_bits_of_their_floats(self):
        as_int = es.load_config(json.dumps(_doc([{"q": 2, "c0": -8, "a": 0}], lambda_max=3)))
        as_float = es.load_config(json.dumps(_doc([{"q": 2.0, "c0": -8.0, "a": 0.0}])))
        for column in ("q", "c0", "a"):
            got, want = getattr(as_int.market, column), getattr(as_float.market, column)
            assert got.tobytes() == want.tobytes()
        assert type(as_int.cap.lambda_max) is float

    # Every record form that validate_market takes, and the config parser,
    # give the same market to the bit.
    @given(market=markets())
    def test_every_record_form_builds_the_same_market(self, market):
        def bits(m):
            aggregates = np.array([m.sum_a, m.s1, m.s2, m.sqc])
            return [m.q.tobytes(), m.c0.tobytes(), m.a.tobytes(), aggregates.tobytes()]

        q, c0, a = market.q.tolist(), market.c0.tolist(), market.a.tolist()
        doc = _doc([{"q": x, "c0": y, "a": z} for x, y, z in zip(q, c0, a)])
        assert bits(es.load_config(json.dumps(doc)).market) == bits(market)
        table = np.column_stack([q, c0, a])
        forms = [
            market.agents,
            doc["agents"],
            list(zip(q, c0, a)),
            [list(row) for row in zip(q, c0, a)],
            list(table),
            list(zip(market.q, market.c0, market.a)),
        ]
        for records in forms:
            assert bits(es.validate_market(records)) == bits(market)


class TestRunSolve:
    def test_table1_report(self, table1_config):
        rep = es.run_solve(table1_config)
        assert rep.ce.lambda_bar == pytest.approx(8.26, abs=0.01)
        assert rep.sce.lambda_star == 4.0
        np.testing.assert_allclose(rep.sce.u_star, [5.31, 3.54, 0.53, 0.26], atol=0.01)
        assert rep.cap_active
        assert rep.residuals.max_violation() <= 1e-9

    def test_slack_cap_report(self, table1_config):
        cfg = replace(table1_config, cap=es.SocialPriceCap(lambda_max=10.0))
        rep = es.run_solve(cfg)
        assert not rep.cap_active
        assert np.all(rep.sce.u_star == 0.0)

    def test_single_agent_hand_values(self):
        cfg = es.load_config('{"agents": [{"q": 1.0, "c0": -10.0, "a": 3.0}], "lambda_max": 5.0}')
        rep = es.run_solve(cfg)
        assert rep.ce.lambda_bar == pytest.approx(7.0, abs=1e-12)
        assert rep.sce.lambda_star == 5.0
        assert rep.sce.nu_star == pytest.approx(2.0, abs=1e-12)

    def test_deterministic_bytes(self, table1_config):
        outs = {es.report_to_json(es.run_solve(table1_config)) for _ in range(3)}
        assert len(outs) == 1

    def test_cap_active_iff_positive_dual_iff_price_above_cap(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            q = rng.uniform(0.5, 10, n)
            c0 = rng.uniform(-50, 0, n)
            a = rng.uniform(0, 20, n)
            market = es.validate_market(list(zip(q, c0, a)))
            cap = float(rng.uniform(-10, 30))
            cfg = es.ScenarioConfig(
                market=market, cap=es.SocialPriceCap(cap), sim=es.SimSettings()
            )
            rep = es.run_solve(cfg)
            lam_ce = es.solve_ce(market).lambda_bar
            assert rep.cap_active == (rep.sce.nu_star > 0) == (lam_ce > cap + 1e-9) or (
                abs(lam_ce - cap) <= 1e-9
            )

    def test_report_json_keys_sorted(self, table1_config):
        text = es.report_to_json(es.run_solve(table1_config))
        doc = json.loads(text)
        assert list(doc) == sorted(doc)
        assert list(doc["sce"]) == sorted(doc["sce"])


class TestRunSimulate:
    def test_table1_fixture_converges(self, table1_config, tmp_path):
        csv_path = tmp_path / "traj.csv"
        summary_path = tmp_path / "traj.summary.json"
        traj, report = es.run_simulate(table1_config, csv_path, summary_path)
        assert report.converged
        assert report.mu_negativity == 0.0

        lines = csv_path.read_text().splitlines()
        header = lines[0].split(",")
        assert header == es.trajectory_header(4)
        assert len(header) == 26  # 5N + 6 for N = 4, including t, V, eq_residual
        final = [float(v) for v in lines[-1].split(",")]
        sce = es.solve_sce(table1_config.market, 4.0)
        assert final[13] == pytest.approx(4.0, abs=1e-3)  # lambda column
        np.testing.assert_allclose(final[14:18], sce.u_star, atol=1e-3)  # u columns
        for line in lines[1:]:
            values = [float(v) for v in line.split(",")]
            assert len(values) == 26
            assert np.isfinite(values).all()

        summary = json.loads(summary_path.read_text())
        assert summary["converged"] is True
        assert summary["final_error"] <= 1e-3

    def test_equilibrium_init_stays_put(self, table1_config, tmp_path):
        init = es.assemble_equilibrium(table1_config.market, 4.0)
        cfg = replace(
            table1_config,
            sim=es.SimSettings(h=0.01, t_end=1.0, method="euler", record_stride=1, init=init),
        )
        traj, _ = es.run_simulate(cfg, tmp_path / "eq.csv")
        assert np.abs(traj.states - init).max() <= 1e-9

    def test_single_step_two_rows(self, table1_config, tmp_path):
        cfg = replace(
            table1_config,
            sim=es.SimSettings(h=1e-3, t_end=1e-3, method="euler", record_stride=1),
        )
        _, _ = es.run_simulate(cfg, tmp_path / "short.csv")
        lines = (tmp_path / "short.csv").read_text().splitlines()
        assert len(lines) == 3  # header + initial + one step

    def test_divergence_flushes_partial_csv(self, tmp_path):
        # One very stiff agent: explicit Euler at this step is unstable.
        cfg = es.load_config(
            '{"agents": [{"q": 100.0, "c0": -50.0, "a": 1.0}], "lambda_max": 0.2,'
            ' "sim": {"h": 0.001, "t_end": 50.0, "method": "euler", "record_stride": 10}}'
        )
        csv_path = tmp_path / "div.csv"
        with pytest.raises(es.NonfiniteState):
            es.run_simulate(cfg, csv_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == ",".join(es.trajectory_header(1))
        assert len(lines) > 1

    def test_large_market_builds_no_dense_drift(self, tmp_path, monkeypatch):
        # At N = 2000 the dense drift matrix would take 800 MB.  A stride-1
        # run has no block path, so it evaluates the drift from its
        # structure and its memory is bounded by the recorded rows.
        def refuse(market):
            raise AssertionError("the dense closed-loop matrix was built")

        monkeypatch.setattr(es.dynamics, "closed_loop_matrix", refuse)
        n = 2000
        m = sized_market(np.random.default_rng(30), n)
        agents = [{"q": q, "c0": c0, "a": a} for q, c0, a in zip(m.q, m.c0, m.a)]
        cfg = es.load_config(json.dumps({
            "agents": agents, "lambda_max": 5.0,
            "sim": {"h": 0.01, "t_end": 0.04, "method": "rk4", "record_stride": 1},
        }))
        csv_path = tmp_path / "large.csv"
        traj, _ = es.run_simulate(cfg, csv_path)
        assert traj.states.shape == (5, es.state_layout(n).dim)
        assert np.isfinite(traj.states).all()
        assert len(csv_path.read_text().splitlines()) == 6


def reference_sweep_csv(market, caps):
    """The sweep CSV cap by cap, from ``solve_sce`` and the 1-D welfare."""
    welfare_ce = es.scenario.nominal_welfare(market, es.solve_ce(market).x_bar)
    lines = ["lambda_max,lambda_star,nu_star,u_norm,welfare_loss_nominal_utilities"]
    for cap in caps:
        sce = es.solve_sce(market, cap)
        row = (cap, sce.lambda_star, sce.nu_star, np.linalg.norm(sce.u_star),
               welfare_ce - es.scenario.nominal_welfare(market, sce.x_star))
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


class TestRunSweep:
    def test_table1_cap_grid(self, table1_config):
        sweep = es.run_sweep(table1_config, [2.0, 4.0, 6.0, 8.26, 10.0])
        lam_ce = es.solve_ce(table1_config.market).lambda_bar
        np.testing.assert_allclose(
            sweep.lambda_star, [2.0, 4.0, 6.0, lam_ce, lam_ce], atol=1e-12
        )
        u_norms = sweep.u_norm
        assert u_norms[1] == pytest.approx(6.41, abs=0.01)
        assert u_norms[3] == u_norms[4] == 0.0

    def test_inactive_region_rows_identical(self, table1_config):
        sweep = es.run_sweep(table1_config, [10.0, 100.0])
        assert sweep.lambda_star[0] == sweep.lambda_star[1]
        assert sweep.nu_star[0] == sweep.nu_star[1] == 0.0
        assert sweep.u_norm[0] == sweep.u_norm[1] == 0.0
        assert sweep.welfare_loss_nominal[0] == sweep.welfare_loss_nominal[1] == 0.0

    def test_monotonicity_and_welfare_loss(self, table1_config):
        caps = [1.0, 2.0, 3.0, 5.0, 7.0, 8.0, 9.0, 12.0]
        sweep = es.run_sweep(table1_config, caps)
        nus = sweep.nu_star
        lams = sweep.lambda_star
        lam_ce = es.solve_ce(table1_config.market).lambda_bar
        assert all(nus[i] >= nus[i + 1] for i in range(len(nus) - 1))
        assert all(lams[i] <= lams[i + 1] for i in range(len(lams) - 1))
        assert all(lam <= lam_ce + 1e-12 for lam in lams)
        assert all(w >= -1e-9 for w in sweep.welfare_loss_nominal)
        # the binding region loses welfare, strictly more for tighter caps
        assert sweep.welfare_loss_nominal[0] > sweep.welfare_loss_nominal[3] > 0.0

    def test_csv_rendering(self, table1_config):
        text = es.sweep_to_csv(es.run_sweep(table1_config, [4.0]))
        lines = text.splitlines()
        assert lines[0].startswith("lambda_max,")
        assert "welfare_loss_nominal_utilities" in lines[0]
        assert len(lines) == 2

    def test_empty_caps_rejected(self, table1_config):
        with pytest.raises(ValueError):
            es.run_sweep(table1_config, [])

    # Caps around the CE price: the price itself and its neighbouring floats,
    # where the binding branch starts, plus negative, unsorted and repeated caps.
    @given(market=markets(), data=st.data())
    def test_csv_matches_per_cap_reference(self, table1_config, market, data):
        lam = es.solve_ce(market).lambda_bar
        near = [lam, np.nextafter(lam, -np.inf), np.nextafter(lam, np.inf)]
        cap = st.one_of(st.sampled_from(near), st.floats(lam - 100.0, lam + 20.0),
                        st.floats(-1e3, 0.0))
        caps = data.draw(st.lists(cap, min_size=1, max_size=16))
        caps += data.draw(st.lists(st.sampled_from(caps), max_size=3))
        config = replace(table1_config, market=market)
        assert es.sweep_to_csv(es.run_sweep(config, caps)) == reference_sweep_csv(market, caps)

    # Row sums past 128 elements add in numpy's pairwise blocks.
    def test_csv_matches_per_cap_reference_at_n_2000(self, table1_config):
        rng = np.random.default_rng(12)
        n = 2000
        market = es.validate_market(list(zip(
            rng.uniform(1e-3, 1e3, n), rng.uniform(-1e3, 0.0, n), rng.uniform(0.0, 1e3, n)
        )))
        lam = es.solve_ce(market).lambda_bar
        caps = [*rng.uniform(lam - 1e3, lam + 1e2, 40), lam, np.nextafter(lam, -np.inf)]
        config = replace(table1_config, market=market)
        assert es.sweep_to_csv(es.run_sweep(config, caps)) == reference_sweep_csv(market, caps)


class TestSerialization:
    def test_float_round_trip_is_exact(self):
        values = [900.0 / 109.0, 1e-3, 0.1 + 0.2, 5.307912297426121, -0.0, 1e300]
        for v in values:
            doc = json.loads(es.dumps_canonical({"v": v}))
            assert doc["v"] == v

    def test_keys_sorted_recursively(self):
        text = es.dumps_canonical({"b": {"d": 1, "c": 2}, "a": 3})
        assert text.index('"a"') < text.index('"b"')
        assert text.index('"c"') < text.index('"d"')

    def test_every_type_keeps_its_bytes(self):
        doc = {
            "bool": True, "np_bool": np.bool_(False), "int": 3, "np_int": np.int64(-4),
            "np_float": np.float64(0.1), "neg_zero": -0.0, "big": 1e300, "none": None,
            "tuple": (1, 2.5), "array": np.array([1.5, -0.0]), "int_array": np.arange(2),
            "list": [np.float64(2.0), [0.5], "s", False], "NaN": "Infinity",
        }
        assert es.dumps_canonical(doc) == (
            '{"NaN": "Infinity", "array": [1.5, -0.0], "big": 1e+300, "bool": true, "int": 3, "int_array": [0, 1],'
            ' "list": [2.0, [0.5], "s", false], "neg_zero": -0.0, "none": null, "np_bool": false,'
            ' "np_float": 0.1, "np_int": -4, "tuple": [1, 2.5]}\n'
        )

    @pytest.mark.parametrize(
        "value, shown",
        [(float("nan"), "nan"), (np.float64("inf"), "inf"), ([1.0, float("-inf")], "-inf"),
         (np.array([np.nan]), "nan"), ((np.inf,), "inf"),
         ({"b": float("nan"), "a": [1.0, float("-inf")]}, "-inf")],
    )
    def test_nonfinite_number_is_refused(self, value, shown):
        with pytest.raises(ValueError, match=f"^cannot serialize non-finite number {shown}$"):
            es.dumps_canonical({"v": value})

    # The same documents as numpy floats and tuples keep their bytes.
    def test_reports_keep_their_bytes_as_numpy_floats_and_tuples(self, table1_config, tmp_path):
        def general(value):
            if type(value) is float:
                return np.float64(value)
            if type(value) is list:
                return tuple(map(general, value))
            if type(value) is dict:
                return {k: general(v) for k, v in value.items()}
            return value

        es.run_simulate(table1_config, tmp_path / "run.csv", tmp_path / "run.summary.json")
        texts = [(tmp_path / "run.summary.json").read_text(),
                 es.report_to_json(es.run_solve(table1_config))]
        for text in texts:
            assert es.dumps_canonical(general(json.loads(text))) == text

    def test_csv_floats_round_trip_exactly(self, table1_config, tmp_path):
        cfg = replace(
            table1_config,
            sim=es.SimSettings(h=0.01, t_end=0.2, method="rk4", record_stride=1),
        )
        traj, _ = es.run_simulate(cfg, tmp_path / "exact.csv")
        last = (tmp_path / "exact.csv").read_text().splitlines()[-1]
        values = [float(v) for v in last.split(",")]
        assert values[0] == traj.times[-1]
        np.testing.assert_array_equal(values[1:24], traj.final_state)
        assert values[24] == traj.lyapunov[-1]
        assert values[25] == traj.equilibrium_residuals[-1]

    # One agent's 11 values a row, and a market's 5006, each over several
    # chunks; a state column of inf, -inf and NaN.
    @pytest.mark.parametrize(
        "n, rows, nonfinite",
        [(1, scenario._CSV_CHUNK_VALUES // 11 + 7, False), (1000, 7, False), (1, 300, True)],
        ids=["one", "wide", "inf"],
    )
    def test_csv_in_chunks_matches_formatting_all_rows_at_once(self, tmp_path, n, rows, nonfinite):
        rng = np.random.default_rng(5)
        times = np.arange(rows) * 0.1
        dim = es.state_layout(n).dim
        states = rng.normal(size=(rows, dim)) * 10.0 ** rng.integers(-300, 300, size=(rows, dim))
        if nonfinite:
            states[:, 2] = rng.choice([np.inf, -np.inf, np.nan, -0.0, 2.5], size=rows)
        traj = es.Trajectory(
            times=times, states=states, lyapunov=rng.uniform(size=rows),
            equilibrium_residuals=np.full(rows, np.nan),
        )
        es.write_trajectory_csv(traj, n, tmp_path / "long.csv")
        table = np.column_stack([times, states, traj.lyapunov, traj.equilibrium_residuals])
        lines = [",".join(es.trajectory_header(n))]
        lines += [",".join(map(repr, row)) for row in table.tolist()]
        assert (tmp_path / "long.csv").read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_csv_width_must_match_the_market(self, tmp_path):
        traj = es.Trajectory(times=np.arange(2.0), states=np.zeros((2, 13)),
                             lyapunov=np.zeros(2), equilibrium_residuals=np.zeros(2))
        es.write_trajectory_csv(traj, 2, tmp_path / "two.csv")
        with pytest.raises(es.DimensionMismatch, match="13 columns, the state of 3 agents has 18"):
            es.write_trajectory_csv(traj, 3, tmp_path / "three.csv")
        assert not (tmp_path / "three.csv").exists()


def repr_csv(table: np.ndarray) -> bytes:
    return "".join(",".join(map(repr, row)) + "\n" for row in table.tolist()).encode()


def vector_table(values: np.ndarray, cols: int = 8) -> np.ndarray:
    """``values`` repeated into a table large enough for the vectorised formatter."""
    size = -(-max(values.size, _shortest._MIN_VECTOR_VALUES) // cols) * cols
    return np.resize(values, (size // cols, cols))


# The CSV formatter's text is repr's, value by value: byte for byte, on
# every float64 bit pattern (subnormals, both zeros, infinities, NaN payloads).
class TestTableText:
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=16))
    def test_every_bit_pattern(self, patterns):
        table = vector_table(np.array(patterns, dtype=np.uint64).view(np.float64))
        assert _shortest.format_table(table) == repr_csv(table)

    def test_edge_values(self):
        edges = [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 2.0**53 - 1,
                 2.0**53 + 1, 2.0**53 + 2, 9999999999999998.0, 1e15, 1e16, 0.0001, 1e-05, 1e22, 1e23, 0.1,
                 2 / 3, 0.0, np.inf, np.nan, *range(1, 1001)]
        # Every power of two: a lower neighbour half as far as the upper one.
        values = np.concatenate([edges, np.ldexp(1.0, np.arange(-1074, 1024))])
        for table in (vector_table(np.concatenate([values, -values]), 7), vector_table(values, 1)):
            assert _shortest.format_table(table) == repr_csv(table)

    def test_random_bit_patterns(self):
        patterns = np.random.default_rng(15).integers(0, 2**64, size=10**5, dtype=np.uint64)
        table = patterns.view(np.float64).reshape(-1, 10)
        assert _shortest.format_table(table) == repr_csv(table)

    def test_boundary_sweep(self):
        # Where the digit search turns: for every binary exponent the least
        # and greatest significands and their neighbours (subnormals, powers
        # of two, zero, inf and NaN among them), and 1 to 3 ulps around 10**k
        # and (d + 0.5) · 10**k (a digit fewer, ties to even), both signs.
        exponents = np.arange(2048, dtype=np.uint64) << np.uint64(52)
        significands = np.array([0, 1, 2, 2**52 - 2, 2**52 - 1], dtype=np.uint64)
        binary = (exponents[:, None] | significands).ravel()
        decimal = np.array([float(f"{m}e{k}") for k in range(-323, 309)
                            for m in ["1", *(f"{d}.5" for d in range(1, 10))]])
        decimal = decimal[np.isfinite(decimal) & (decimal != 0.0)]
        nearby = (decimal.view(np.int64)[:, None] + np.arange(-3, 4)).ravel().view(np.uint64)
        values = np.concatenate([binary, nearby]).view(np.float64)
        values = np.concatenate([values, -values])
        for table in (vector_table(values, 7), vector_table(values, 1)):
            assert _shortest.format_table(table) == repr_csv(table)


class TestRunVerify:
    @pytest.mark.parametrize("name, check", CHECKS, ids=[name for name, _ in CHECKS])
    def test_check_passes_on_correct_build(self, table1_config, name, check):
        passed, detail = check(table1_config, check_rng(3, name), 120)
        assert passed, detail
        assert len(CHECKS) == 26

    # Each check's residual on markets that hypothesis draws, with a seeded
    # generator for the check's own draws (caps, prices, directions).
    @pytest.mark.parametrize(
        "name, check", RESIDUAL_CHECKS, ids=[name for name, _ in RESIDUAL_CHECKS]
    )
    @given(market=markets(), seed=st.integers(0, 2**32 - 1))
    def test_residual_within_tolerance(self, name, check, market, seed):
        residual = check.residual(market, np.random.default_rng(seed))
        assert residual <= check.tol, f"{name}: residual {residual:.3e} > {check.tol:.0e}"

    def test_nonfinite_residual_fails(self, table1_config, monkeypatch):
        def nan_ce(market):
            return es.equilibrium.CeSolution(x_bar=np.full(market.n, np.nan), lambda_bar=np.nan)

        monkeypatch.setattr("energyshare.equilibrium.solve_ce", nan_ce)
        for name in ("equilibrium.ce_kkt", "equilibrium.dual_equals_ce"):
            passed, detail = dict(CHECKS)[name](table1_config, check_rng(0, name), 20)
            assert not passed, detail

    def test_seed_reproducibility(self):
        cfg = es.load_config(MINIMAL)
        r1 = es.run_verify(cfg, num_random_instances=25, seed=11)
        r2 = es.run_verify(cfg, num_random_instances=25, seed=11)
        assert [c.detail for c in r1.checks] == [c.detail for c in r2.checks]

    def test_mutated_solver_is_caught(self, monkeypatch):
        cfg = es.load_config(MINIMAL)

        def mutant(market, cap):  # picks the wrong complementarity branch
            lam_ce = es.solve_ce(market).lambda_bar
            return lam_ce if lam_ce >= cap else cap

        monkeypatch.setattr("energyshare.equilibrium.solve_scalar_lcp", mutant)
        report = es.run_verify(cfg, num_random_instances=25, seed=4)
        oracle = {c.name: c for c in report.checks}["equilibrium.oracle_agreement"]
        assert not oracle.passed
        assert not report.passed
