"""CLI behavior: subcommands, overrides, exit codes."""

import contextlib
import hashlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import energyshare as es
from energyshare.cli import main
from conftest import REPO_ROOT, TABLE1_PATH

FAST_CONFIG = (
    '{"agents": [{"q": 1.5, "c0": -9.0, "a": 2.0}, {"q": 2.5, "c0": -12.0, "a": 1.0}],'
    ' "lambda_max": 2.0}'
)

BIG = int("9" * 400)  # past float64's range, as a JSON integer literal

# Valid inputs whose CE price overflows float64: -(sqc + sum_a) / s1 is inf.
OVERFLOWING_CONFIG = '{"agents": [{"q": 1e-300, "c0": -1e300, "a": 1e300}], "lambda_max": 1.0}'
OVERFLOWING_FIXED_POINT = '{"agents": [{"q": 0.5, "c0": -1.0, "a": 1.0}], "lambda_max": 1e308}'


@pytest.fixture()
def fast_config_path(tmp_path):
    path = tmp_path / "fast.json"
    path.write_text(FAST_CONFIG)
    return str(path)


class TestSolve:
    def test_stdout_matches_library_output(self, capsys, table1_config):
        code = main(["solve", "--config", str(TABLE1_PATH)])
        assert code == 0
        out = capsys.readouterr().out
        assert out == es.report_to_json(es.run_solve(table1_config))

    def test_stdout_bytes_are_pinned(self, capsys):
        assert main(["solve", "--config", str(TABLE1_PATH)]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "8d464945f5da1513d2ba54b5490252cd58fbc283f3134b60d3ce49aee6446d20"

    def test_out_file(self, tmp_path, table1_config):
        out = tmp_path / "report.json"
        assert main(["solve", "--config", str(TABLE1_PATH), "--out", str(out)]) == 0
        assert out.read_text() == es.report_to_json(es.run_solve(table1_config))

    def test_lambda_max_override(self, capsys):
        assert main(["solve", "--config", str(TABLE1_PATH), "--lambda-max", "10"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["cap_active"] is False
        assert doc["sce"]["u_star"] == [0.0, 0.0, 0.0, 0.0]

    def test_missing_config_is_input_error(self, tmp_path, capsys):
        code = main(["solve", "--config", str(tmp_path / "nope.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_config_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"agents": [{"q": 0.0, "c0": -1.0, "a": 1.0}], "lambda_max": 1}')
        assert main(["solve", "--config", str(bad)]) == 2


class TestSimulate:
    def test_writes_csv_and_summary(self, tmp_path, capsys, fast_config_path):
        out = tmp_path / "run.csv"
        code = main([
            "simulate", "--config", fast_config_path,
            "--method", "rk4", "--h", "0.02", "--t-end", "400", "--out", str(out),
        ])
        assert code == 0
        assert out.exists()
        summary = json.loads((tmp_path / "run.summary.json").read_text())
        assert summary["converged"] is True
        assert "converged" in capsys.readouterr().out

    def test_table1_bytes_are_pinned(self, tmp_path):
        out = tmp_path / "run.csv"
        assert main(["simulate", "--config", str(TABLE1_PATH), "--out", str(out)]) == 0
        digests = [hashlib.sha256(p.read_bytes()).hexdigest() for p in (out, tmp_path / "run.summary.json")]
        assert digests == ["d2d96bca1a0f88d788f7a3a24fd82b04ff7f2fd6dddf04f8b270b1fbc2c7e626",
                           "ad9694d6835620c8d007e84d9156de71adbc49e2a9cbe350d001a1b5ea9865f4"]

    def test_long_horizon_finishes(self, tmp_path):
        # 5e10 rk4 steps and 5001 records: after a few blocks the run is
        # trapped near its fixed point, and the rest is recorded from powers
        # of the map of one stride.
        import subprocess
        import sys

        doc = json.loads(TABLE1_PATH.read_text())
        doc["sim"].update(t_end=1e9, record_stride=10**7)
        cfg, out = tmp_path / "long.json", tmp_path / "long.csv"
        cfg.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "energyshare.cli", "simulate", "--config", str(cfg),
             "--out", str(out)],
            cwd=REPO_ROOT / "src", capture_output=True, text=True, timeout=20,
        )
        assert proc.returncode == 0, proc.stderr
        assert "; converged" in proc.stdout
        assert len(out.read_text().splitlines()) == 1 + 5001

    def test_divergence_exits_3_with_partial_csv(self, tmp_path, capsys):
        cfg = tmp_path / "stiff.json"
        cfg.write_text(
            '{"agents": [{"q": 100.0, "c0": -50.0, "a": 1.0}], "lambda_max": 0.2,'
            ' "sim": {"h": 0.001, "t_end": 50.0, "method": "euler", "record_stride": 10}}'
        )
        out = tmp_path / "stiff.csv"
        code = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code == 3
        assert "error:" in capsys.readouterr().err
        assert out.exists()
        assert len(out.read_text().splitlines()) > 1


class TestVerify:
    def test_passes_and_prints_per_check_lines(self, capsys, fast_config_path):
        code = main(["verify", "--config", fast_config_path, "--instances", "10", "--seed", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("[PASS]") >= 20
        assert "[FAIL]" not in out

    # The settling horizon at this cap is infinite: a failed check, not an exception.
    def test_cap_past_float_range_fails_checks_without_raising(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["verify", "--config", str(TABLE1_PATH), "--lambda-max=1e306",
                         "--instances", "3"])
        out = capsys.readouterr().out
        assert code == 1
        assert out.count("[FAIL]") == 2
        assert ("[FAIL] dynamics.closed_loop_config_convergence: raised ValidationError: "
                "settling horizon inf") in out


class TestBadArguments:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--instances", "0"],
            ["simulate", "--h", "-1"],
            ["simulate", "--t-end", "0"],
            ["simulate", "--t-end", "1", "--out", "missing_dir/x.csv"],
            ["simulate", "--t-end", "1e15"],
            # The "=" form: argparse reads a separate "-1e308" as an option.
            ["solve", "--lambda-max=-1e308"],
            ["sweep", "--caps=-1e308"],
            ["verify", "--seed=-1"],
            # The last --config wins; the test writes these.
            ["verify", "--config", "negative_seed.json"],
            ["solve", "--config", "utf16.json"],
            ["solve", "--config", "deeply_nested.json"],
        ],
        ids=["zero_instances", "negative_step", "zero_horizon", "missing_out_directory",
             "unbounded_record", "solve_overflows", "sweep_overflows", "negative_seed",
             "negative_config_seed", "non_utf8_config", "deeply_nested_config"],
    )
    def test_exits_2_with_error_line(self, argv, tmp_path, monkeypatch, capsys, fast_config_path):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "negative_seed.json").write_text(FAST_CONFIG[:-1] + ', "seed": -3}')
        (tmp_path / "utf16.json").write_bytes(FAST_CONFIG.encode("utf-16"))  # starts ff fe
        depth = 100_000
        (tmp_path / "deeply_nested.json").write_text(
            '{"agents": ' + "[" * depth + "]" * depth + ', "lambda_max": 2.0}'
        )
        code = main([argv[0], "--config", fast_config_path, *argv[1:]])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    # Overflow is reported by the error line alone: a numpy RuntimeWarning,
    # which the CLI would print before it, fails here.  The one-agent market's
    # CE price overflows, and verify and simulate refuse it before they run.
    # Table1 at a cap of 1e306 overflows in its run's first step, a
    # divergence (exit 3); at q = 0.5 a cap of 1e308 leaves the capped
    # equilibrium finite but not the closed loop's fixed point (exit 2).
    @pytest.mark.parametrize(
        "argv, config, expected",
        [(["solve", "--lambda-max=-1e308"], TABLE1_PATH.read_text(), 2),
         (["sweep", "--caps=-1e308"], TABLE1_PATH.read_text(), 2),
         (["solve"], OVERFLOWING_CONFIG, 2), (["sweep", "--caps=1,2"], OVERFLOWING_CONFIG, 2),
         (["verify"], OVERFLOWING_CONFIG, 2), (["simulate"], OVERFLOWING_CONFIG, 2),
         (["simulate", "--lambda-max=1e306"], TABLE1_PATH.read_text(), 3),
         (["simulate"], OVERFLOWING_FIXED_POINT, 2)],
        ids=["solve", "sweep", "solve_ce_overflows", "sweep_ce_overflows", "verify_ce_overflows",
             "simulate_ce_overflows", "simulate_run_overflows", "simulate_fixed_point_overflows"],
    )
    def test_overflow_warns_nothing_before_the_error_line(self, argv, config, expected, tmp_path,
                                                           capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # where simulate would write its CSV
        path = tmp_path / "config.json"
        path.write_text(config)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([argv[0], "--config", str(path), *argv[1:]])
        assert code == expected
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    # A JSON integer literal converts to float only inside float64's range.
    @pytest.mark.parametrize(
        "field, edit",
        [
            ("agents[0].a", lambda doc: doc["agents"][0].update(a=BIG)),
            ("config.lambda_max", lambda doc: doc.update(lambda_max=-BIG)),
            ("sim.t_end", lambda doc: doc["sim"].update(t_end=BIG)),
            ("sim.init entries", lambda doc: doc["sim"].update(init=[BIG] * 23)),
        ],
        ids=["a", "lambda_max", "t_end", "init"],
    )
    def test_integer_past_float_range_is_input_error(self, field, edit, tmp_path, capsys):
        doc = json.loads(TABLE1_PATH.read_text())
        edit(doc)
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {field} must fit in a float64, got a 400-digit integer\n"
        )

    def test_integer_past_python_digit_limit_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(TABLE1_PATH.read_text().replace('"a": 48.0', '"a": ' + "9" * 5000))
        assert main(["solve", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: malformed JSON: ")

    # A stride past the horizon records the first and the last state.
    def test_stride_past_float_range_records_two_rows(self, tmp_path):
        doc = json.loads(TABLE1_PATH.read_text())
        doc["sim"].update(t_end=1.0, record_stride=BIG)
        path = tmp_path / "stride.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "run.csv"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 3

    # The first failing cap in input order decides the error, whether its
    # row overflows or the cap itself is not finite.
    @pytest.mark.parametrize(
        "caps, err",
        [
            ("-1e308,nan", "error: sweep at lambda_max = -1e+308: nu_star = inf is not finite: "
                           "the inputs exceed float64's range\n"),
            ("nan,-1e308", "error: price cap must be finite, got nan\n"),
            ("1,inf,-1e308", "error: price cap must be finite, got inf\n"),
        ],
    )
    def test_sweep_reports_the_first_failing_cap(self, caps, err, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["sweep", "--config", str(TABLE1_PATH), f"--caps={caps}"])
        assert code == 2
        assert capsys.readouterr().err == err


class TestModuleEntryPoint:
    def test_python_m_invocation(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "energyshare.cli", "solve", "--config", str(TABLE1_PATH)],
            cwd=REPO_ROOT / "src",  # finds the package without installing it or PYTHONPATH
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith('{"cap_active": true')


class TestSweep:
    def test_stdout_bytes_are_pinned(self, capsys):
        argv = ["sweep", "--config", str(TABLE1_PATH), "--caps", "2,4,6,8.26,10"]
        assert main(argv) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "b000534fc20964588cfffe33edbf6a66a6d3054af25166053d92ca3f10f3e676"

    def test_stdout_table(self, capsys, fast_config_path):
        code = main(["sweep", "--config", fast_config_path, "--caps", "0.5,1.0,2.0,5.0"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("lambda_max,")
        assert len(lines) == 5

    def test_bad_caps_is_input_error(self, capsys, fast_config_path):
        assert main(["sweep", "--config", fast_config_path, "--caps", "a,b"]) == 2
        assert "caps" in capsys.readouterr().err


# Fields of table1.json, as paths into the document, and values to put there.
# _BARE_1E400 is written as the bare JSON literal 1e400, which parses to inf;
# _RENAME moves the field to an unknown key.
_FIELDS = (
    [(k,) for k in ("agents", "lambda_max", "sim", "seed")]
    + [("sim", k) for k in ("h", "t_end", "method", "record_stride", "init")]
    + [("agents", i, k) for i in range(4) for k in ("q", "c0", "a")]
)
_BARE_1E400, _RENAME = "<1e400>", object()
_VALUES = ["x", True, None, [], {}, 1e308, -1e308, _BARE_1E400, 5e-324, 0, -1, _RENAME]


class TestMutatedConfig:
    # Every documented exit code holds for a config with one or two fields
    # replaced: 0, 2 (input error) or 3 (divergence), and no exception.
    # Warnings are not judged here: the MarketWarning of a positive c0 is
    # documented, and numpy's overflow warnings have tests of their own.
    @given(edits=st.lists(st.tuples(st.sampled_from(_FIELDS), st.sampled_from(_VALUES)),
                          min_size=1, max_size=2, unique_by=lambda edit: edit[0]))
    @settings(max_examples=50)
    def test_exits_with_a_documented_code(self, edits):
        doc = json.loads(TABLE1_PATH.read_text())
        # Deeper fields first, so that a field's parent is still the document's.
        for (*parents, key), value in sorted(edits, key=lambda edit: -len(edit[0])):
            holder = doc
            for part in parents:
                holder = holder[part]
            if value is _RENAME:
                holder[f"unknown_{key}"] = holder.pop(key)
            else:
                holder[key] = value
        text = json.dumps(doc).replace(f'"{_BARE_1E400}"', "1e400")
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "config.json"
            config.write_text(text)
            for argv in (["solve"], ["simulate", "--out", str(Path(tmp) / "run.csv")],
                         ["sweep", "--caps", "2,4,6"]):
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                        warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    code = main([argv[0], "--config", str(config), *argv[1:]])
                assert code in (0, 2, 3), (argv[0], text)
                assert "Traceback" not in err.getvalue()
