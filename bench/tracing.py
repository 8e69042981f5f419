"""External span recorder for the traced benchmark run.

The recorder patches the package from outside: every module attribute that
binds a traced function (the home module, the modules that imported it by
name, and the package namespace) is replaced by a wrapper, and restored by
``uninstall``.  Nothing under ``src/`` changes.

Two kinds of wrappers exist:

* spans, kept in memory as columns (name, start, end, parent, run id,
  child time) and written out when the run ends;
* leaves, for functions called too often to keep one span each (the drift
  callables, ``aggregate_slack``, ``phi``): per-name call counts and times.

A span's self time is its duration minus the time its child spans and
leaves cover.  ``layer_metrics`` turns the written-out record into the
per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

LAYERS = ("cli", "scenario", "market", "equilibrium", "dynamics", "verification")

# Public functions recorded as spans, by layer (module name).
SPANS = {
    "cli": ("main",),
    "scenario": (
        "load_config", "config_to_json", "run_solve", "report_to_json", "run_simulate",
        "write_trajectory_csv", "summary_to_json", "run_sweep", "sweep_to_csv",
    ),
    "market": ("validate_market",),
    "equilibrium": (
        "solve_ce", "solve_sce", "kkt_residual_sce", "lcp_oracle", "solve_scalar_lcp",
        "solve_sw_dual", "dual_to_primal_sw", "solve_modified_primal",
        "change_of_variables_matrix", "map_sce_to_modified_primal",
    ),
    "dynamics": (
        "integrate", "closed_loop_rhs", "affine_rhs", "closed_loop_matrix",
        "closed_loop_matrices", "open_loop_matrices", "reduced_matrices",
        "assemble_equilibrium", "open_loop_equilibrium", "reduced_equilibrium",
        "closed_loop_decay_rate", "stability_certificate", "convergence_report",
        "lyapunov_value", "rhs_open_loop", "rhs_controlled", "rhs_controller",
        "rhs_closed_loop", "rhs_reduced",
    ),
    "verification": ("run_verify", "random_market"),
}

# Hot functions aggregated per name instead of one span per call.
LEAVES = {
    "market": ("phi", "conditional_projection", "utility"),
    "equilibrium": ("aggregate_slack",),
}

MATRIX_BUILDERS = (
    "closed_loop_matrix", "closed_loop_matrices", "open_loop_matrices", "reduced_matrices",
)
SOLVES = ("solve_ce", "solve_sce")
TIMED_CHECKS = (
    "closed_loop_random_limits", "closed_loop_config_convergence",
    "euler_lyapunov_monotone", "open_loop_and_reduced_limits", "step_halving_order",
)

_LAYER_OF = {name: layer for layer, names in SPANS.items() for name in names}
_LEAF_LAYER = {name: layer for layer, names in LEAVES.items() for name in names}


class SpanRecorder:
    """In-memory spans and counters for one traced child process."""

    def __init__(self):
        self.run_id = 0
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.run: list[int] = []
        self.child: list[float] = []
        # Open frames: [span index or -1 for a leaf, child time so far].
        self._stack: list[list] = []
        self.leaves = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, incl, self
        self.drifts: list[list] = []  # per callable: evals, mu pinned, seconds, dim
        self.counters = defaultdict(int)
        self.errors = defaultdict(int)
        self.check_marks: list[tuple[str, bool, float]] = []
        self.top_leaf_s = 0.0  # leaf time spent outside any span
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn, observe=None):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.name)
            self.name.append(name_id)
            self.parent.append(stack[-1][0] if stack else -1)
            self.run.append(self.run_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self.child.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.errors[f"{name}:{type(exc).__name__}"] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
                self.child[idx] = frame[1]
                if stack:
                    stack[-1][1] += t1 - t0
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def _leaf(self, name: str, fn):
        stats = self.leaves[name]
        stack = self._stack
        clock = time.perf_counter

        def leaf(*args, **kwargs):
            frame = [-1, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                else:
                    self.top_leaf_s += dt

        return leaf

    def _drift(self, fn, dim: int, mu_index: int | None):
        stats = [0, 0, 0.0, dim]
        self.drifts.append(stats)
        stack = self._stack
        clock = time.perf_counter

        def drift(state):
            stats[0] += 1
            if mu_index is not None and state[mu_index] <= 0.0:
                stats[1] += 1
            t0 = clock()
            out = fn(state)
            dt = clock() - t0
            stats[2] += dt
            if stack:
                stack[-1][1] += dt
            else:
                self.top_leaf_s += dt
            return out

        return drift

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Patch every binding of every traced function in the package."""
        import energyshare
        from energyshare import cli, dynamics, equilibrium, market, scenario, verification

        home = {
            "cli": cli, "scenario": scenario, "market": market,
            "equilibrium": equilibrium, "dynamics": dynamics, "verification": verification,
        }
        modules = [energyshare, *home.values()]
        counters = self.counters

        observers = {
            "validate_market": self._observe_market,
            "write_trajectory_csv": self._observe_csv,
            "closed_loop_matrix": self._observe_matrix,
            "open_loop_matrices": self._observe_matrix,
            "reduced_matrices": self._observe_matrix,
        }

        def integrate_steps(fn):
            def run(rhs, y0, h, t_end, *args, **kwargs):
                counters["steps"] += max(1, int(round(t_end / h)))  # as integrate counts
                return fn(rhs, y0, h, t_end, *args, **kwargs)
            return run

        def closed_loop_rhs(fn):
            def build(market_, cap):
                n = market_.n
                return self._drift(fn(market_, cap), 5 * n + 3, 5 * n + 2)
            return build

        def affine_rhs(fn):
            def build(matrix, offset):
                return self._drift(fn(matrix, offset), int(matrix.shape[0]), None)
            return build

        inner = {
            "integrate": integrate_steps,
            "closed_loop_rhs": closed_loop_rhs,
            "affine_rhs": affine_rhs,
        }
        for layer, names in SPANS.items():
            for name in names:
                orig = getattr(home[layer], name)
                fn = inner[name](orig) if name in inner else orig
                self._patch(modules, orig, self._span(name, fn, observers.get(name)))
        for layer, names in LEAVES.items():
            for name in names:
                orig = getattr(home[layer], name)
                self._patch(modules, orig, self._leaf(name, orig))

        check_result = verification.CheckResult
        marks = self.check_marks

        def mark_check(*args, **kwargs):
            marks.append((kwargs.get("name", ""), bool(kwargs.get("passed")), time.perf_counter()))
            return check_result(*args, **kwargs)

        self._saved.append((verification, "CheckResult", check_result))
        verification.CheckResult = mark_check

    def _patch(self, modules, orig, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is orig:
                    self._saved.append((module, attr, orig))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)

    def _observe_market(self, args, kwargs, result) -> None:
        self.counters["agents_validated"] += result.n

    def _observe_csv(self, args, kwargs, result) -> None:
        trajectory = args[0]
        path = args[2] if len(args) > 2 else kwargs["path"]
        self.counters["csv_rows"] += len(trajectory)
        self.counters["csv_bytes"] += os.path.getsize(path)

    def _observe_matrix(self, args, kwargs, result) -> None:
        matrix = result[0] if isinstance(result, tuple) else result
        self.counters["matrix_bytes"] += int(matrix.nbytes)

    # -- output ---------------------------------------------------------

    def record(self) -> dict:
        """The whole trace as plain data; spans are columns indexed by entry order."""
        return {
            "names": self.names,
            "spans": {
                "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "run": self.run, "child": self.child,
            },
            "leaves": {k: list(v) for k, v in self.leaves.items()},
            "drifts": [list(d) for d in self.drifts],
            "counters": dict(self.counters),
            "errors": dict(self.errors),
            "checks": [list(m) for m in self.check_marks],
            "top_leaf_s": self.top_leaf_s,
        }


# ---------------------------------------------------------------------------
# Per-layer metrics

# (name, unit, better) in the order of BENCHMARK.json.  Values are totals over
# the traced window: the child's set-up (input validation) plus one
# operation of the workload.
PER_LAYER = (
    ("cli.self_s", "s", "lower"),
    ("cli.main_s", "s", "lower"),
    ("scenario.self_s", "s", "lower"),
    ("scenario.load_config_s", "s", "lower"),
    ("scenario.load_config_calls", "count", "lower"),
    ("scenario.report_json_s", "s", "lower"),
    ("scenario.sweep_s", "s", "lower"),
    ("scenario.sweep_csv_s", "s", "lower"),
    ("scenario.csv_write_s", "s", "lower"),
    ("scenario.csv_rows", "count", "lower"),
    ("scenario.csv_bytes", "B", "lower"),
    ("scenario.csv_us_per_row", "us", "lower"),
    ("scenario.run_simulate_self_s", "s", "lower"),
    ("market.self_s", "s", "lower"),
    ("market.validate_calls", "count", "lower"),
    ("market.agents_validated", "count", "lower"),
    ("market.validate_s", "s", "lower"),
    ("equilibrium.self_s", "s", "lower"),
    ("equilibrium.solve_calls", "count", "lower"),
    ("equilibrium.solve_s", "s", "lower"),
    ("equilibrium.kkt_residual_s", "s", "lower"),
    ("equilibrium.oracle_calls", "count", "lower"),
    ("equilibrium.oracle_s", "s", "lower"),
    ("equilibrium.slack_evals", "count", "lower"),
    ("dynamics.self_s", "s", "lower"),
    ("dynamics.steps", "count", "lower"),
    ("dynamics.integrate_calls", "count", "lower"),
    ("dynamics.integrate_self_us_per_step", "us", "lower"),
    ("dynamics.drift_evals", "count", "lower"),
    ("dynamics.drift_s", "s", "lower"),
    ("dynamics.drift_us_per_eval", "us", "lower"),
    ("dynamics.drift_evals_mu_pinned", "count", "lower"),
    ("dynamics.drift_flops_computed", "flop", "lower"),
    ("dynamics.drift_bytes_computed", "B", "lower"),
    ("dynamics.drift_flops_per_byte", "flop/B", "higher"),
    ("dynamics.matrix_build_s", "s", "lower"),
    ("dynamics.matrix_bytes", "B", "lower"),
    ("dynamics.decay_rate_calls", "count", "lower"),
    ("dynamics.decay_rate_s", "s", "lower"),
    ("dynamics.certificate_s", "s", "lower"),
    ("dynamics.convergence_report_s", "s", "lower"),
    ("dynamics.divergences", "count", "lower"),
    ("verification.self_s", "s", "lower"),
    *((f"verification.{check}_s", "s", "lower") for check in TIMED_CHECKS),
    ("verification.other_checks_s", "s", "lower"),
    ("verification.checks_run", "count", "higher"),
    ("verification.checks_failed", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unexplained_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)


def drift_cost(dim: int) -> tuple[int, int]:
    """Computed flops and bytes of one dense drift evaluation ``A @ y + b``.

    ``2 d**2`` flops for the matrix-vector product plus ``d`` for the
    offset; ``8 d**2`` bytes of matrix plus three float64 vectors (state,
    offset, result).  Cache reuse is ignored, hence "computed".
    """
    return 2 * dim * dim + dim, 8 * (dim * dim + 3 * dim)


def layer_metrics(rec: dict, window_s: float, traced_op_s: float, untraced_op_s: float) -> dict:
    """Per-layer metrics from one written-out trace record."""
    names = rec["names"]
    spans = rec["spans"]
    name_of = [names[i] for i in spans["name"]]
    start, end, parent, child = spans["start"], spans["end"], spans["parent"], spans["child"]

    calls = defaultdict(int)
    incl = defaultdict(float)
    own = defaultdict(float)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    top_s = rec["top_leaf_s"]
    for i, name in enumerate(name_of):
        dur = end[i] - start[i]
        calls[name] += 1
        incl[name] += dur
        own[name] += dur - child[i]
        layer_self[_LAYER_OF[name]] += dur - child[i]
        if parent[i] < 0:
            top_s += dur
    for name, (_, _, leaf_self) in rec["leaves"].items():
        layer_self[_LEAF_LAYER[name]] += leaf_self
    drifts = rec["drifts"]
    drift_s = sum(d[2] for d in drifts)
    layer_self["dynamics"] += drift_s

    def outermost(group) -> float:
        return sum(
            end[i] - start[i]
            for i, name in enumerate(name_of)
            if name in group and (parent[i] < 0 or name_of[parent[i]] not in group)
        )

    # Per-check time: the interval between consecutive CheckResult
    # constructions, the first one opening at the start of run_verify.
    check_s = defaultdict(float)
    marks = sorted(rec["checks"], key=lambda m: m[2])
    for i, name in enumerate(name_of):
        if name != "run_verify":
            continue
        prev = start[i]
        for check, _, t in marks:
            if start[i] <= t <= end[i]:
                check_s[check.split(".", 1)[-1]] += t - prev
                prev = t

    counters = rec["counters"]
    leaves = rec["leaves"]
    steps = counters.get("steps", 0)
    evals = sum(d[0] for d in drifts)
    flops = sum(d[0] * drift_cost(d[3])[0] for d in drifts)
    nbytes = sum(d[0] * drift_cost(d[3])[1] for d in drifts)
    csv_rows = counters.get("csv_rows", 0)
    explained = sum(layer_self.values())
    values = {
        **{f"{layer}.self_s": layer_self[layer] for layer in LAYERS},
        "cli.main_s": incl["main"],
        "scenario.load_config_s": incl["load_config"],
        "scenario.load_config_calls": calls["load_config"],
        "scenario.report_json_s": incl["report_to_json"],
        "scenario.sweep_s": own["run_sweep"],
        "scenario.sweep_csv_s": incl["sweep_to_csv"],
        "scenario.csv_write_s": incl["write_trajectory_csv"],
        "scenario.csv_rows": csv_rows,
        "scenario.csv_bytes": counters.get("csv_bytes", 0),
        "scenario.csv_us_per_row": 1e6 * incl["write_trajectory_csv"] / csv_rows if csv_rows else 0.0,
        "scenario.run_simulate_self_s": own["run_simulate"],
        "market.validate_calls": calls["validate_market"],
        "market.agents_validated": counters.get("agents_validated", 0),
        "market.validate_s": incl["validate_market"],
        "equilibrium.solve_calls": sum(calls[n] for n in SOLVES),
        "equilibrium.solve_s": outermost(SOLVES),
        "equilibrium.kkt_residual_s": incl["kkt_residual_sce"],
        "equilibrium.oracle_calls": calls["lcp_oracle"],
        "equilibrium.oracle_s": incl["lcp_oracle"],
        "equilibrium.slack_evals": leaves.get("aggregate_slack", [0])[0],
        "dynamics.steps": steps,
        "dynamics.integrate_calls": calls["integrate"],
        "dynamics.integrate_self_us_per_step": 1e6 * own["integrate"] / steps if steps else 0.0,
        "dynamics.drift_evals": evals,
        "dynamics.drift_s": drift_s,
        "dynamics.drift_us_per_eval": 1e6 * drift_s / evals if evals else 0.0,
        "dynamics.drift_evals_mu_pinned": sum(d[1] for d in drifts),
        "dynamics.drift_flops_computed": flops,
        "dynamics.drift_bytes_computed": nbytes,
        "dynamics.drift_flops_per_byte": flops / nbytes if nbytes else 0.0,
        "dynamics.matrix_build_s": outermost(MATRIX_BUILDERS),
        "dynamics.matrix_bytes": counters.get("matrix_bytes", 0),
        "dynamics.decay_rate_calls": calls["closed_loop_decay_rate"],
        "dynamics.decay_rate_s": incl["closed_loop_decay_rate"],
        "dynamics.certificate_s": incl["stability_certificate"],
        "dynamics.convergence_report_s": incl["convergence_report"],
        "dynamics.divergences": rec["errors"].get("integrate:NonfiniteState", 0),
        **{f"verification.{c}_s": check_s[c] for c in TIMED_CHECKS},
        "verification.other_checks_s": sum(
            (v for c, v in check_s.items() if c not in TIMED_CHECKS), 0.0
        ),
        "verification.checks_run": len(marks),
        "verification.checks_failed": sum(not passed for _, passed, _ in marks),
        "trace.wall_s": window_s,
        "trace.untraced_wall_s": untraced_op_s,
        "trace.overhead_s": traced_op_s - untraced_op_s,
        "trace.unexplained_s": window_s - explained,
        "trace.spans": len(name_of),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
