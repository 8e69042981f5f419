"""Benchmark of the energyshare package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace {0,1} [--tiny]

Run from anywhere; the package is taken from ``src/`` of the checkout that
holds this file.  Workloads (see README.md): table1_rk4, large_market,
verify_battery, solve_sweep.

With ``--trace 0`` the run times the workload with tracing off, in fresh
child processes: several children that only set up (for ``setup_s``) and
one that repeats the workload's operation for about ``--seconds`` seconds
while a speed probe samples how fast the host runs (``norm_wall_s``).  With
``--trace 1`` it runs the same untraced child, then one traced child doing
one operation, and reports the per-layer metrics and the tracing overhead.

Every operation's output is checked; failures, exceptions, divergences and
timeouts count as failed operations.  A human-readable report goes to
stderr; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import inputs
from tracing import PER_LAYER, drift_cost, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"

BLAS_THREADS = 1  # pinned in every child; a single thread keeps runs comparable
# Set-up-only children per timed run, half before and half after the timed
# child so that the samples span the run; with the timed child, 9 samples.
SETUP_PROBES = 8
RUN_BUDGET_S = 170.0  # the whole run, all children included
SETUP_TIMEOUT_S = 30.0
OP_GRACE_S = 60.0  # time allowed past --seconds for the operation in flight

END_TO_END = (
    ("setup_s", "s"),
    ("norm_wall_s", "s"),
    ("peak_rss_mb", "MB"),
)


class Child:
    """Outcome of one child process: its records and how it ended."""

    def __init__(self, records: list[dict], code: int, timed_out: bool,
                 setup_s: float | None, rss_mb: float, log: str):
        self.setup_s = setup_s
        self.rss_mb = rss_mb
        self.ops = [r for r in records if r["kind"] == "op"]
        done = [r for r in records if r["kind"] == "done"]
        self.done = done[0] if done else None
        self.code = code
        self.timed_out = timed_out
        self.log = log

    @property
    def ended_cleanly(self) -> bool:
        return self.done is not None and self.code == 0 and not self.timed_out

    def counts(self) -> tuple[int, int]:
        attempted = sum(r["ops"] for r in self.ops)
        failed = sum(r["failed"] for r in self.ops)
        if not self.ended_cleanly:  # the operation in flight hung or crashed
            attempted += 1
            failed += 1
        return attempted, failed

    def errors(self) -> list[str]:
        errs = [e for r in self.ops for e in r.get("errors", [])]
        if self.timed_out:
            errs.append("child timed out and was killed")
        elif not self.ended_cleanly:
            errs.append(f"child exited with code {self.code}: {self.log[-500:]}")
        return errs

    def net_walls(self) -> list[float]:
        """Wall times of the operations, less the probe samples taken inside them."""
        return [r["wall_s"] - r["probe_in_op_s"] for r in self.ops if "probe_n" in r]

    def norm_walls(self) -> list[float]:
        """Operation times scaled to the reference speed of the probe.

        Other tenants of a shared host slow the probe and the operation
        alike, so the ratio of the two moves far less than either.
        """
        return [(r["wall_s"] - r["probe_in_op_s"]) * r["probe_ref_s"] / r["probe_mean_s"]
                for r in self.ops if "probe_n" in r]


def run_child(cmd: list[str], env: dict, records: Path, timeout: float) -> Child:
    """Run one child with a hard timeout; keep whatever records it flushed.

    The child is reaped with ``wait4`` so that its own peak RSS is known
    even when it had to be killed.
    """
    log_path = records.with_suffix(".log")
    with open(log_path, "w") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)
        deadline = spawned + max(timeout, 0.1)
        timed_out = False
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    timed_out = True
                    proc.kill()
                    _, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.02)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    lines = records.read_text().splitlines() if records.exists() else []
    parsed = []
    for line in lines:
        try:
            parsed.append(json.loads(line))
        except json.JSONDecodeError:  # a line cut short by a kill
            break
    setup = [r["t"] - spawned for r in parsed if r["kind"] == "setup"]
    return Child(parsed, proc.returncode, timed_out, setup[0] if setup else None,
                 usage.ru_maxrss / 1024.0, log_path.read_text())


class Runner:
    def __init__(self, args, workdir: Path):
        self.args = args
        self.workdir = workdir
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)
        self.count = 0

    def child(self, mode: str, timeout: float) -> Child:
        self.count += 1
        records = self.workdir / f"child{self.count}.jsonl"
        cmd = [
            sys.executable, str(HERE / "worker.py"), "--workload", self.args.workload,
            "--inputs", str(self.workdir / "inputs.json"), "--workdir", str(self.workdir),
            "--mode", mode, "--seconds", str(self.args.seconds), "--records", str(records),
        ]
        remaining = self.deadline - time.monotonic()
        return run_child(cmd, self.env, records, min(timeout, remaining))


def write_inputs(args, workdir: Path) -> dict:
    sizes = inputs.TINY if args.tiny else inputs.FULL
    table1 = str(ROOT / inputs.TABLE1)
    if args.workload == "table1_rk4":
        doc = {"config": table1}
    elif args.workload == "large_market":
        doc = {"config": inputs.large_market(args.seed, sizes), "n": sizes.large_n}
    elif args.workload == "verify_battery":
        doc = {"config": table1, "instances": sizes.verify_instances}
    else:
        doc = {"markets": inputs.solve_sweep(args.seed, sizes)}
    (workdir / "inputs.json").write_text(json.dumps(doc))
    return doc


def machine_info(blas_seen) -> list[str]:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    llc = "unknown"
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        levels = {}
        for index in caches.glob("index*"):
            levels[int((index / "level").read_text())] = (index / "size").read_text().strip()
        if levels:
            top = max(levels)
            llc = f"L{top} {levels[top]}"
    except (OSError, ValueError):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return [
        f"nproc={len(os.sched_getaffinity(0))} cpu={cpu!r} llc={llc} (shared with the host)",
        f"python={sys.version.split()[0]} numpy={np.__version__} blas={openblas} "
        f"blas_threads pinned={BLAS_THREADS} seen={blas_seen}",
    ]


def percentile(values: list[float], p: float) -> float:
    return float(np.percentile(np.asarray(values), p))


def timed_run(runner: Runner, args, doc: dict):
    def probe(mode, timeout):
        child = runner.child(mode, timeout)
        if child.setup_s is None:
            raise RuntimeError("set-up failed: " + " | ".join(child.errors()))
        return child

    half = SETUP_PROBES // 2
    probes = [probe("setup", SETUP_TIMEOUT_S) for _ in range(half)]
    main = probe("run", args.seconds + OP_GRACE_S)
    probes += [probe("setup", SETUP_TIMEOUT_S) for _ in range(SETUP_PROBES - half)]
    setups = [c.setup_s for c in (*probes, main)]
    walls = main.net_walls()
    if not walls:
        raise RuntimeError("no operation finished: " + " | ".join(main.errors()))
    attempted, failed = main.counts()
    for child in probes:
        a, f = child.counts()
        attempted, failed = attempted + a, failed + f
    values = {
        "setup_s": statistics.median(setups),
        "norm_wall_s": statistics.median(main.norm_walls()),
        "peak_rss_mb": main.rss_mb,
    }
    wall = statistics.median(walls)
    probed = [r for r in main.ops if "probe_n" in r]
    probe_us = 1e6 * statistics.median(r["probe_mean_s"] for r in probed)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    lines = [
        f"setup_s       {values['setup_s']:.4f} s    median of {len(setups)} fresh children",
        f"norm_wall_s   {values['norm_wall_s']:.4f} s    median over {len(walls)} operations "
        f"of wall time x {1e6 * probed[0]['probe_ref_s']:g} us / {probed[0]['probe']} probe time",
        f"wall          {wall:.4f} s    median measured wall time (fastest {min(walls):.4f} s); "
        f"probe {probe_us:.2f} us (median of the per-operation means), "
        f"{sum(r['probe_n'] for r in probed)} samples",
        f"peak_rss_mb   {values['peak_rss_mb']:.1f} MB",
        f"error_rate    {failed / attempted:.4g} ratio  {failed} failed of {attempted} attempted",
    ]
    steps = main.done["steps_per_op"] if main.done else 0
    if args.workload in ("table1_rk4", "large_market"):
        lines.append(f"steps_per_s   {steps / wall:.1f} 1/s  "
                     f"{steps} steps per operation, at the median measured wall time")
    if args.workload == "solve_sweep":
        lat = [1e3 * t for r in main.ops if "latencies" in r for t in r["latencies"]]
        per_pass = len(doc["markets"])
        lines += [
            f"markets_per_s {per_pass / wall:.1f} 1/s  {per_pass} markets per pass, "
            f"at the median measured wall time",
            f"market_p50_ms {percentile(lat, 50):.4f} ms   {len(lat)} samples",
            f"market_p99_ms {percentile(lat, 99):.4f} ms   {len(lat)} samples, "
            f"{len(lat) - int(0.99 * len(lat))} beyond p99",
        ]
    if args.workload == "large_market":
        d = 5 * doc["n"] + 3
        rows = steps + 1
        lines.append(
            f"arrays: drift matrix {d}x{d} float64 = {8 * d * d / 1e6:.1f} MB, "
            f"trajectory {rows}x{d} = {8 * rows * d / 1e6:.1f} MB; "
            f"one drift evaluation computes {drift_cost(d)[0]} flop over "
            f"{drift_cost(d)[1] / 1e6:.1f} MB (compare with the LLC above)"
        )
    return metrics, attempted, failed, lines, [*probes, main]


def traced_run(runner: Runner, args, doc: dict):
    plain = runner.child("run", args.seconds + OP_GRACE_S)
    walls = plain.net_walls()
    if not walls:
        raise RuntimeError("no untraced operation finished: " + " | ".join(plain.errors()))
    traced = runner.child("trace", OP_GRACE_S + 60.0)
    trace_path = runner.workdir / "trace.json"
    if not traced.ended_cleanly or not trace_path.exists():
        raise RuntimeError("traced run failed: " + " | ".join(traced.errors()))
    rec = json.loads(trace_path.read_text())
    # The untraced operation's time at the speed the traced child saw.
    untraced = statistics.median(plain.norm_walls()) * rec["probe_mean_s"] / rec["probe_ref_s"]
    metrics = layer_metrics(rec, rec["window_s"], rec["op_s"], untraced)
    attempted, failed = plain.counts()
    a, f = traced.counts()
    attempted, failed = attempted + a, failed + f
    width = max(len(name) for name, _, _ in PER_LAYER)
    lines = [f"{name:<{width}} {metrics[name]['value']:.6g} {unit}" for name, unit, _ in PER_LAYER]
    lines.append(
        f"traced window {rec['window_s']:.4f} s = layer self times "
        f"{rec['window_s'] - metrics['trace.unexplained_s']['value']:.4f} s "
        f"+ unexplained {metrics['trace.unexplained_s']['value']:.4f} s; "
        f"tracing overhead {metrics['trace.overhead_s']['value']:.4f} s per operation "
        f"(traced {rec['op_s']:.4f} s vs untraced {untraced:.4f} s: the median untraced "
        f"norm_wall_s at the traced child's probe time {1e6 * rec['probe_mean_s']:.2f} us); "
        f"{len(rec['spans']['name'])} spans"
    )
    return metrics, attempted, failed, lines, [plain, traced]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-check sizes: every code path in a few seconds")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for needed in (ROOT / "src" / "energyshare" / "__init__.py", ROOT / inputs.TABLE1):
        if not needed.is_file():
            print(f"error: {needed} not found; run from a checkout of the repository",
                  file=sys.stderr)
            return 2
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        doc = write_inputs(args, workdir)
        runner = Runner(args, workdir)
        run = traced_run if args.trace else timed_run
        try:
            metrics, attempted, failed, lines, children = run(runner, args, doc)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    header = [
        f"energyshare benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}{' tiny' if args.tiny else ''}",
        *machine_info(next((c.done["blas_threads"] for c in children if c.done), None)),
    ]
    errors = [e for c in children for e in c.errors()]
    print("\n".join(header + lines + [f"failure: {e}" for e in errors[:10]]), file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
