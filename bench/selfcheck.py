"""Self-check of the benchmark, at tiny sizes.

    python3 bench/selfcheck.py

Runs every workload at its tiny size with tracing off and on, and asserts
that each run prints exactly the metrics of BENCHMARK.json with their
units, that all operations were checked and passed, that the count
metrics repeat exactly for the same seed, that the output checks reject
wrong outputs, that a hung operation is killed and counted as failed, and
that the benchmark refuses to run without the program.  Takes about two
minutes.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_COUNTS = (
    "dynamics.steps", "dynamics.drift_evals", "dynamics.drift_evals_mu_pinned",
    "equilibrium.slack_evals", "dynamics.drift_flops_computed", "dynamics.drift_bytes_computed",
)
REPORTED = {
    "table1_rk4": ("error_rate", "steps_per_s"),
    "large_market": ("error_rate", "steps_per_s"),
    "verify_battery": ("error_rate",),
    "solve_sweep": ("error_rate", "markets_per_s", "market_p50_ms", "market_p99_ms"),
}


def bench(workload: str, trace: int, seed: int = 7, script: Path = HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=300,
    )
    return proc


def check_result(workload: str, trace: int) -> dict:
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted], list(result["metrics"])
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m, got)
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), got
    if not trace:
        for name in REPORTED[workload] + tuple(m["name"] for m in wanted):
            assert any(line.startswith(name + " ") for line in proc.stderr.splitlines()), name
    print(f"ok  {workload:15s} trace={trace}  attempted={result['attempted']}")
    return result


def check_counts_repeat() -> None:
    for workload in inputs.WORKLOADS:
        first, second = (check_result(workload, 1)["metrics"] for _ in range(2))
        for name in EXACT_COUNTS:
            assert first[name]["value"] == second[name]["value"], (workload, name)
    print("ok  count metrics repeat exactly")


def check_checks_reject_wrong_outputs() -> None:
    spec = inputs.solve_sweep(3, inputs.TINY)[0]
    doc = json.loads(spec["config"])
    q, c0, a = (np.array([ag[k] for ag in doc["agents"]]) for k in ("q", "c0", "a"))
    x_bar, lam_bar, x, lam, u, nu = worker.kkt_oracle(q, c0, a, doc["lambda_max"])

    def report(shift):
        return json.dumps({
            "ce": {"lambda_bar": lam_bar, "x_bar": list(x_bar)},
            "sce": {"lambda_star": lam + shift, "nu_star": nu, "x_star": list(x),
                    "u_star": list(u)},
        })

    table = "header\n" + "\n".join(f"{c},{min(c, lam_bar)},0,0,0" for c in spec["caps"])
    sweep = worker.SolveSweep(None, {"markets": []}, ROOT)
    assert not sweep.check_market(spec, report(0.0), table), "a right answer failed"
    assert sweep.check_market(spec, report(1e-6), table), "a wrong price passed the check"

    fixed = worker.closed_loop_fixed_point(
        np.array([1.0, 1.5, 10.0, 20.0]), np.array([-50.0, -60.0, -40.0, -20.0]),
        np.array([48.0, 30.0, 1.5, 0.5]), 4.0)
    work = run.WORK / "selfcheck"
    work.mkdir(parents=True, exist_ok=True)
    csv = work / "t.csv"
    row = ",".join(repr(float(v)) for v in [0.0, *fixed, 0.0, 0.0])
    csv.write_text(",".join(worker.trajectory_columns(4)) + "\n" + row + "\n")
    assert not worker.check_csv(csv, 4, 1, fixed, 1e-3, "t")
    assert worker.check_csv(csv, 4, 2, fixed, 1e-3, "t"), "a short CSV passed the check"
    assert worker.check_csv(csv, 4, 1, fixed + 1.0, 1e-3, "t"), "a wrong state passed"
    print("ok  output checks reject wrong outputs")


def check_hang_is_killed() -> None:
    # lcp_oracle never finishes when its tolerance is below one ulp of the price.
    code = (
        "import energyshare as es; m = es.validate_market([(1.0, -1e9, 0.0)]); "
        "es.lcp_oracle(m, 2e9)"
    )
    work = run.WORK / "selfcheck"
    work.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    started = time.monotonic()
    child = run.run_child([sys.executable, "-c", code], env, work / "hang.jsonl", 3.0)
    elapsed = time.monotonic() - started
    assert child.timed_out and child.counts() == (1, 1), (child.timed_out, child.counts())
    assert elapsed < 10.0, elapsed
    print(f"ok  a hung operation is killed after {elapsed:.1f} s and counted as failed")


def check_refuses_without_program() -> None:
    bare = run.WORK / "selfcheck" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench("table1_rk4", 0, script=bare / "bench" / "run.py")
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print("ok  refuses to run without the program")


def main() -> int:
    try:
        for workload in inputs.WORKLOADS:
            check_result(workload, 0)
        check_counts_repeat()
        check_checks_reject_wrong_outputs()
        check_hang_is_killed()
        check_refuses_without_program()
    finally:
        shutil.rmtree(run.WORK / "selfcheck", ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass
    print("self-check passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
