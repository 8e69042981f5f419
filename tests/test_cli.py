"""CLI behavior: subcommands, overrides, exit codes."""

import hashlib
import json
import warnings

import pytest

import energyshare as es
from energyshare.cli import main
from conftest import REPO_ROOT, TABLE1_PATH

FAST_CONFIG = (
    '{"agents": [{"q": 1.5, "c0": -9.0, "a": 2.0}, {"q": 2.5, "c0": -12.0, "a": 1.0}],'
    ' "lambda_max": 2.0}'
)


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
            # The last --config wins; the test writes this one.
            ["verify", "--config", "negative_seed.json"],
        ],
        ids=["zero_instances", "negative_step", "zero_horizon", "missing_out_directory",
             "unbounded_record", "solve_overflows", "sweep_overflows", "negative_seed",
             "negative_config_seed"],
    )
    def test_exits_2_with_error_line(self, argv, tmp_path, monkeypatch, capsys, fast_config_path):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "negative_seed.json").write_text(FAST_CONFIG[:-1] + ', "seed": -3}')
        code = main([argv[0], "--config", fast_config_path, *argv[1:]])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    # Overflow on table1 is reported by the error line alone: a numpy
    # RuntimeWarning, which the CLI would print before it, fails here.
    @pytest.mark.parametrize(
        "argv", [["solve", "--lambda-max=-1e308"], ["sweep", "--caps=-1e308"]],
        ids=["solve", "sweep"],
    )
    def test_overflow_warns_nothing_before_the_error_line(self, argv, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([argv[0], "--config", str(TABLE1_PATH), *argv[1:]])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")


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
    def test_stdout_table(self, capsys, fast_config_path):
        code = main(["sweep", "--config", fast_config_path, "--caps", "0.5,1.0,2.0,5.0"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("lambda_max,")
        assert len(lines) == 5

    def test_bad_caps_is_input_error(self, capsys, fast_config_path):
        assert main(["sweep", "--config", fast_config_path, "--caps", "a,b"]) == 2
        assert "caps" in capsys.readouterr().err
