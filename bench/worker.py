"""Child process of the benchmark: one fresh interpreter per workload run.

    python3 bench/worker.py --workload NAME --inputs FILE --workdir DIR \\
        --mode {setup,run,trace} --seconds S --records FILE

``setup`` imports the package, validates the generated inputs and exits;
``run`` then repeats the workload's operation for about ``--seconds``
seconds, sampling the host's speed with ``SpeedProbe`` while each operation
runs; ``trace`` installs the span recorder, runs one operation and writes
the trace.  Every operation's outputs are checked against a
reference computed here, independently of the code path that produced
them.  Records go to ``--records`` one JSON line at a time, flushed, so
the parent keeps what finished before a timeout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import signal
import sys
import time
from pathlib import Path

import numpy as np

# Digest of `energyshare solve --config table1.json` (stdout bytes).  The
# solve report must stay byte-identical across changes.
TABLE1_SOLVE_SHA256 = "8d464945f5da1513d2ba54b5490252cd58fbc283f3134b60d3ce49aee6446d20"
VERIFY_CHECKS = 26
SIM_TOL = 1e-3
KKT_TOL = 1e-9
DRIFT_TOL = 1e-9

_now = time.perf_counter

# ---------------------------------------------------------------------------
# Speed probe

PROBE_TRACE_SAMPLES = 50  # before and after the traced operation
_CPU_DIM = 23  # the state dimension of table1.json's closed loop
_CPU_MATRIX = -np.eye(_CPU_DIM) + 0.01 * np.cos(
    np.add.outer(np.arange(_CPU_DIM), np.arange(_CPU_DIM)))
# 4 MB: twice a core's L2, so that every pass streams from the shared L3.
_MEMORY_MATRIX = np.full((256, 2048), 0.5)
_MEMORY_VECTOR = np.ones(2048)


def cpu_kernel() -> float:
    """Time ten Euler steps of a 23-state linear system: small numpy calls
    driven from Python, like the integrator."""
    y = np.ones(_CPU_DIM)
    start = _now()
    for _ in range(10):
        y = y + 0.02 * (_CPU_MATRIX @ y)
    return _now() - start


def memory_kernel() -> float:
    """Time one matrix-vector product over 4 MB, like the dense drift."""
    start = _now()
    _MEMORY_MATRIX @ _MEMORY_VECTOR
    return _now() - start


# kind: (kernel, seconds between samples, reference time of one sample).
# The reference is a round figure near the kernel's fastest time when run
# back to back on the reference host (Intel Xeon KVM guest, 2 vCPUs, one
# BLAS thread): cpu 18.5 us fastest, 20.6 us median of 20 000 samples;
# memory 165 us fastest, 186 us median of 5 000.  It is a fixed scale, the
# same for every commit.
PROBES = {
    "cpu": (cpu_kernel, 0.01, 20e-6),
    "memory": (memory_kernel, 0.05, 170e-6),
}


class SpeedProbe:
    """Samples the host's speed while an operation runs.

    On a shared host the same code runs up to about 1.8 times slower while
    other tenants are busy, for stretches of a second to minutes.  At a
    fixed interval a SIGALRM handler runs the kernel twice in the main
    thread, between the operation's own bytecodes, and keeps the time of
    the second run: the first brings the kernel's code and data back into
    the caches, so that the sample follows the host's speed and not the
    operation's use of the caches.  One more sample is taken just before
    the operation starts.  The kernel has the workload's bottleneck (the
    core, or memory bandwidth), so that busy tenants slow both alike; it
    uses nothing of the package, so changes to the package leave it alone.
    The parent scales the operation's time by reference / mean sample.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self.kernel, self.interval, self.ref = PROBES[kind]
        self.samples: list[float] = []
        self.spent = 0.0  # time of every sample taken, warm-up runs included
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum=None, frame=None) -> None:
        start = _now()
        self.kernel()
        self.samples.append(self.kernel())
        self.spent += _now() - start

    def sample(self, count: int) -> None:
        """Take ``count`` samples now, one after the other."""
        for _ in range(count):
            self._sample()

    def start(self) -> None:
        self.samples = []
        self._sample()
        self.spent = 0.0
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> dict:
        """Stop sampling; the fields to add to the operation's record."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        return {
            "probe": self.kind,
            "probe_n": len(self.samples),
            "probe_mean_s": float(np.mean(self.samples)),
            "probe_ref_s": self.ref,
            # time spent sampling inside the operation's timed interval
            "probe_in_op_s": self.spent,
        }


def timed(fn, probe: SpeedProbe | None):
    """Run ``fn()``; returns its outputs (or the exception it raised), its
    wall time and the probe's fields."""
    if probe is not None:
        probe.start()
    start = _now()
    try:
        outputs = fn()
    except Exception as exc:  # counted as a failed operation by the caller
        outputs = exc
    wall = _now() - start
    return outputs, wall, probe.stop() if probe is not None else {}


# ---------------------------------------------------------------------------
# Independent references


def kkt_oracle(q, c0, a, cap):
    """Capped and uncapped equilibria by dense solves of the KKT systems.

    Same form as the test suite's oracle: the price-at-cap branch solves
    stationarity ``q x + nu / q = -c0 - cap`` with market clearing; if its
    scalar dual is negative the cap is slack and the uncapped system
    ``q x + lam = -c0`` applies.  Returns (x_bar, lam_bar, x, lam, u, nu).
    """
    n = q.size
    kkt = np.zeros((n + 1, n + 1))
    kkt[:n, :n] = np.diag(q)
    kkt[n, :n] = 1.0
    kkt[:n, n] = 1.0
    ce = np.linalg.solve(kkt, np.append(-c0, a.sum()))
    x_bar, lam_bar = ce[:n], float(ce[n])
    kkt[:n, n] = 1.0 / q
    capped = np.linalg.solve(kkt, np.append(-c0 - cap, a.sum()))
    x, nu = capped[:n], float(capped[n])
    if nu >= 0.0:
        lam = cap
    else:
        x, lam, nu = x_bar, lam_bar, 0.0
    return x_bar, lam_bar, x, lam, nu / q, nu


def closed_loop_fixed_point(q, c0, a, cap) -> np.ndarray:
    """Closed-loop fixed point from the oracle and the model's equations.

    The controller states follow from setting their drifts to zero:
    ``du = 0`` gives ``pi``, ``dnu = 0`` gives ``mu = -sum(pi)``.
    """
    _, _, x, lam, u, nu = kkt_oracle(q, c0, a, cap)
    pi = -(u / q + x + (c0 + cap) / q) / q
    n = q.size
    return np.concatenate([x, np.full(n, lam), x - a, [lam], u, pi, [nu], [-pi.sum()]])


def trajectory_columns(n: int) -> list[str]:
    """The documented trajectory CSV schema (5N + 6 columns)."""
    agents = range(1, n + 1)
    return (
        ["t"] + [f"x_{i}" for i in agents] + [f"rho_{i}" for i in agents]
        + [f"eps_{i}" for i in agents] + ["lambda"] + [f"u_{i}" for i in agents]
        + [f"pi_{i}" for i in agents] + ["nu", "mu", "V", "eq_residual"]
    )


def market_arrays(config):
    m = config.market
    return np.asarray(m.q), np.asarray(m.c0), np.asarray(m.a)


def check_csv(path, n: int, rows: int, final_state, tol: float, what: str) -> list[str]:
    """Header, row count and last row of a trajectory CSV."""
    lines = Path(path).read_text().splitlines()
    errors = []
    if lines[0].split(",") != trajectory_columns(n):
        errors.append(f"{what}: CSV header differs from the documented schema")
    if len(lines) - 1 != rows:
        errors.append(f"{what}: CSV has {len(lines) - 1} rows, expected {rows}")
    last = np.array([float(v) for v in lines[-1].split(",")])
    err = float(np.abs(last[1:-2] - final_state).max())
    if not err <= tol:
        errors.append(f"{what}: final CSV row is {err:.3e} from the reference")
    return errors


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """Set-up, one timed operation, and the checks of its outputs."""

    steps_per_op = 0
    probe = "cpu"  # the SpeedProbe kind that shares the operation's bottleneck

    def __init__(self, es, inputs: dict, workdir: Path, recorder=None):
        self.es = es
        self.inputs = inputs
        self.workdir = workdir
        self.recorder = recorder  # set in a traced run: each market is one request

    def setup(self) -> None:
        raise NotImplementedError

    def op(self):
        """Run one operation; returns its outputs (timed by the caller)."""
        raise NotImplementedError

    def check(self, outputs) -> list[str]:
        raise NotImplementedError

    def final_checks(self) -> tuple[int, list[str]]:
        """Extra checked operations made once per child."""
        return 0, []


class Table1(Workload):
    def setup(self):
        self.config = self.es.scenario.load_config(self.inputs["config"])
        self.csv = self.workdir / "table1.csv"
        sim = self.config.sim
        self.steps_per_op = max(1, int(round(sim.t_end / sim.h)))
        self.rows = self.steps_per_op // sim.record_stride + 1
        self.reference = closed_loop_fixed_point(
            *market_arrays(self.config), self.config.cap.lambda_max)

    def op(self):
        out = io.StringIO()
        argv = ["simulate", "--config", self.inputs["config"], "--out", str(self.csv)]
        with contextlib.redirect_stdout(out):
            code = self.es.cli.main(argv)
        return code, out.getvalue()

    def check(self, outputs):
        code, text = outputs
        if code != 0:
            return [f"simulate exited {code}"]
        errors = []
        if "; converged" not in text:
            errors.append(f"simulate did not report convergence: {text.strip()!r}")
        return errors + check_csv(self.csv, self.config.market.n, self.rows,
                                  self.reference, SIM_TOL, "table1")

    def final_checks(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.es.cli.main(["solve", "--config", self.inputs["config"]])
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        if code != 0 or digest != TABLE1_SOLVE_SHA256:
            return 1, [f"solve output changed: exit {code}, sha256 {digest}"]
        return 1, []


class LargeMarket(Workload):
    probe = "memory"  # the dense drift streams a 200 MB matrix

    def setup(self):
        self.config = self.es.scenario.load_config(self.inputs["config"])
        self.csv = self.workdir / "large.csv"
        self.summary = self.workdir / "large.summary.json"
        sim = self.config.sim
        self.steps_per_op = max(1, int(round(sim.t_end / sim.h)))
        self.rows = self.steps_per_op // sim.record_stride + 1

    def op(self):
        return self.es.scenario.run_simulate(self.config, self.csv, self.summary)

    def check(self, outputs):
        dyn = self.es.dynamics
        trajectory, _ = outputs
        market, cap = self.config.market, self.config.cap.lambda_max
        n = market.n
        states = trajectory.states
        errors = []
        dense = dyn.closed_loop_rhs(market, cap)
        worst = 0.0
        for y in states[np.linspace(0, len(states) - 1, 5).astype(int)]:
            block = dyn.rhs_closed_loop(market, y, cap)
            scale = max(1.0, float(np.abs(block).max()), float(np.abs(y).max()))
            worst = max(worst, float(np.abs(dense(y) - block).max()) / scale)
        if not worst <= DRIFT_TOL:
            errors.append(f"dense drift differs from the block drift by {worst:.3e} (scaled)")
        mu_min = float(states[:, 5 * n + 2].min())
        if mu_min < 0.0:
            errors.append(f"mu went negative: {mu_min:.3e}")
        reference = closed_loop_fixed_point(*market_arrays(self.config), cap)
        v = 0.5 * ((states - reference) ** 2).sum(axis=1)
        slack = 1e-8 * max(1.0, float(v[0]))
        rise = float(np.diff(v).max())
        if rise > slack:
            errors.append(f"V increased by {rise:.3e} (slack {slack:.3e})")
        return errors + check_csv(self.csv, n, self.rows, states[-1], 0.0, "large_market")


class VerifyBattery(Workload):
    def setup(self):
        self.config = self.es.scenario.load_config(self.inputs["config"])

    def op(self):
        return self.es.verification.run_verify(
            self.config, num_random_instances=self.inputs["instances"])

    def check(self, report):
        failed = [c.name for c in report.checks if not c.passed]
        errors = [f"verify check failed: {name}" for name in failed]
        if len(report.checks) != VERIFY_CHECKS:
            errors.append(f"verify ran {len(report.checks)} checks, expected {VERIFY_CHECKS}")
        return errors


class SolveSweep(Workload):
    """One operation per market; a pass over all markets is timed as a whole."""

    def setup(self):
        self.markets = self.inputs["markets"]
        self.first_pass = None

    def market(self, spec):
        scn = self.es.scenario
        config = scn.load_config(spec["config"])
        report = scn.report_to_json(scn.run_solve(config))
        table = scn.sweep_to_csv(scn.run_sweep(config, spec["caps"]))
        return report, table

    def check_market(self, spec, report, table) -> list[str]:
        doc = json.loads(spec["config"])
        q, c0, a = (np.array([ag[k] for ag in doc["agents"]]) for k in ("q", "c0", "a"))
        cap = doc["lambda_max"]
        scale = max(1.0, float(np.abs(c0).max()), float(np.abs(a).max()))
        x_bar, lam_bar, x, lam, u, nu = kkt_oracle(q, c0, a, cap)
        got = json.loads(report)
        diffs = (
            abs(got["ce"]["lambda_bar"] - lam_bar),
            np.abs(np.array(got["ce"]["x_bar"]) - x_bar).max(),
            abs(got["sce"]["lambda_star"] - lam),
            abs(got["sce"]["nu_star"] - nu),
            np.abs(np.array(got["sce"]["x_star"]) - x).max(),
            np.abs(np.array(got["sce"]["u_star"]) - u).max(),
        )
        errors = []
        worst = float(max(diffs)) / scale
        if not worst <= KKT_TOL:
            errors.append(f"solve differs from the KKT oracle by {worst:.3e} (scaled)")
        rows = [[float(v) for v in line.split(",")] for line in table.splitlines()[1:]]
        caps = [r[0] for r in rows]
        lams = [r[1] for r in rows]
        nus = [r[2] for r in rows]
        if caps != list(spec["caps"]):
            errors.append("sweep rows do not follow the requested caps")
        elif any(l2 < l1 or n2 > n1 for l1, l2, n1, n2 in zip(lams, lams[1:], nus, nus[1:])):
            errors.append("sweep rows are not monotone in the cap")
        elif max(abs(l - min(c, lam_bar)) for l, c in zip(lams, caps)) / scale > KKT_TOL:
            errors.append("sweep prices differ from min(cap, CE price)")
        return errors


def run_sweep_pass(work: SolveSweep, emit, timed_end, probe) -> None:
    """Time every market of one pass; emit the pass as one record."""
    outputs, latencies, errors = [], [], []

    def one_pass() -> int:
        failed = 0
        for i, spec in enumerate(work.markets):
            if work.recorder is not None:
                work.recorder.run_id = i + 1
            t0 = _now()
            try:
                outputs.append(work.market(spec))
            except Exception as exc:  # a failing market must not end the run
                outputs.append(None)
                failed += 1
                errors.append(f"{type(exc).__name__}: {exc}")
            latencies.append(_now() - t0)
        return failed

    failed, wall, probed = timed(one_pass, probe)
    timed_end()
    if work.first_pass is None:
        for spec, out in zip(work.markets, outputs):
            if out is not None:
                bad = work.check_market(spec, *out)
                failed += bool(bad)
                errors += bad
        work.first_pass = outputs
    else:
        mismatched = sum(o is not None and o != f for o, f in zip(outputs, work.first_pass))
        if mismatched:
            failed += mismatched
            errors.append(f"{mismatched} markets gave other bytes than in the first pass")
    emit(kind="op", ops=len(work.markets), failed=failed, wall_s=wall, latencies=latencies,
         errors=errors[:5], **probed)


def run_one(work: Workload, emit, timed_end=lambda: None, probe=None) -> None:
    """Run, time and check one operation; ``timed_end`` runs before the checks."""
    if isinstance(work, SolveSweep):
        run_sweep_pass(work, emit, timed_end, probe)
        return
    outputs, wall, probed = timed(work.op, probe)
    timed_end()
    if isinstance(outputs, Exception):
        errors = [f"{type(outputs).__name__}: {outputs}"]
    else:
        try:
            errors = work.check(outputs)
        except Exception as exc:
            errors = [f"check raised {type(exc).__name__}: {exc}"]
    emit(kind="op", ops=1, failed=int(bool(errors)), wall_s=wall, errors=errors[:5], **probed)


WORKLOADS = {
    "table1_rk4": Table1,
    "large_market": LargeMarket,
    "verify_battery": VerifyBattery,
    "solve_sweep": SolveSweep,
}


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*.so"))
    for path in libs:
        lib = ctypes.CDLL(path)
        fn = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--records", required=True)
    args = parser.parse_args(argv)

    records = open(args.records, "a", buffering=1)

    def emit(**record):
        records.write(json.dumps(record) + "\n")
        records.flush()

    import energyshare as es
    import energyshare.cli  # noqa: F401  (the CLI module is not imported by the package)

    recorder = None
    probe = SpeedProbe(WORKLOADS[args.workload].probe)
    if args.mode == "trace":
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracing import SpanRecorder

        # The host's speed just before and just after the traced operation,
        # sampled outside the traced window, for the tracing overhead.
        probe.sample(PROBE_TRACE_SAMPLES)
        recorder = SpanRecorder()
        recorder.install()
    window_start = _now()
    inputs = json.loads(Path(args.inputs).read_text())
    work = WORKLOADS[args.workload](es, inputs, Path(args.workdir), recorder)
    work.setup()
    emit(kind="setup", t=time.monotonic())

    if args.mode == "trace":
        recorder.run_id = 1
        op_start = _now()
        window = {}

        def end_window():
            window["end"] = _now()
            recorder.uninstall()
            probe.sample(PROBE_TRACE_SAMPLES)

        run_one(work, emit, end_window)
        trace = recorder.record()
        trace.update(window_s=window["end"] - window_start, op_s=window["end"] - op_start,
                     probe_mean_s=float(np.mean(probe.samples)), probe_ref_s=probe.ref)
        Path(args.workdir, "trace.json").write_text(json.dumps(trace))
    elif args.mode == "run":
        # Start another operation while at least half of it would fit.
        deadline = _now() + args.seconds
        while True:
            start = _now()
            run_one(work, emit, probe=probe)
            if _now() + 0.5 * (_now() - start) > deadline:
                break
    if args.mode != "setup":
        ops, errors = work.final_checks()
        if ops:
            emit(kind="op", ops=ops, failed=int(bool(errors)), wall_s=None, errors=errors)
    emit(kind="done", steps_per_op=work.steps_per_op, blas_threads=blas_threads())
    records.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
