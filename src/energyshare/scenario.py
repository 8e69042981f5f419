"""Scenario configuration, result serialization and workflow drivers.

Configs are strict JSON documents: unknown keys are rejected so typos fail
loudly.  All emitted JSON uses lexicographic key order and shortest
round-trip-exact float formatting, which makes outputs byte-stable and
diffable; trajectory CSVs use LF line endings and parse back to finite
floats.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from .dynamics import (
    METHODS,
    ConvergenceReport,
    Trajectory,
    _equilibrium_state,
    closed_loop_rhs,
    convergence_report,
    integrate,
    state_layout,
)
from .equilibrium import (
    CeSolution,
    KktResidualReport,
    SceSolution,
    _check_cap,
    kkt_residual_sce,
    solve_ce,
    solve_sce,
)
from ._shortest import format_table
from .errors import DimensionMismatch, MissingField, NonfiniteState, ParseError, ValidationError
from .market import AgentParams, MarketInstance, SocialPriceCap, phi, validate_market

# Infinity-norm error of a settled run, in run_simulate's summary and verify's runs.
SUMMARY_TOLERANCE = 1e-3

# Largest record a run may ask for, in float64 values (1 GiB), rows of 5N+6
# values: integrate allocates its times and states before its first step.
# Its V and error columns and the CSV writer only add bounded chunks.
MAX_RECORDED_VALUES = 2**27

# Values that write_trajectory_csv formats at once.  Formatting takes ~330 B
# a value at its peak (the per-value table constants, the integer columns of
# the digit search, the fixed-width text and its bytes copy), ~2.7 MB a
# chunk.  Larger chunks ran slower: a 26 x 5006 table took 24-27 ms at one
# row a chunk, 29-31 ms at three and 31-34 ms at four (best of 20).
_CSV_CHUNK_VALUES = 1 << 13


@dataclass(frozen=True)
class SimSettings:
    """Integration settings for the closed-loop simulation."""

    h: float = 1e-3
    t_end: float = 100.0
    method: str = "euler"
    record_stride: int = 10
    init: str | np.ndarray = "zero"


_TOP_KEYS = {"agents", "lambda_max", "sim", "seed"}
_SIM_KEYS = {f.name for f in fields(SimSettings)}
_AGENT_KEYS = {f.name for f in fields(AgentParams)}


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario: market, price cap, simulation settings, seed."""

    market: MarketInstance
    cap: SocialPriceCap
    sim: SimSettings
    seed: int = 0


@dataclass(frozen=True, eq=False)
class EquilibriumReport:
    """Solved equilibria of one scenario plus the optimality residuals."""

    ce: CeSolution
    sce: SceSolution
    residuals: KktResidualReport
    cap_active: bool


@dataclass(frozen=True, eq=False)
class Sweep:
    """The capped equilibrium across price caps: a float64 column per quantity, a row per cap.

    ``welfare_loss_nominal`` is the total nominal utility (adjustment-free
    coefficients) at the uncapped equilibrium minus the same quantity at
    the capped one; it is nonnegative and zero while the cap is inactive.
    """

    lambda_max: np.ndarray
    lambda_star: np.ndarray
    nu_star: np.ndarray
    u_norm: np.ndarray
    welfare_loss_nominal: np.ndarray


# ---------------------------------------------------------------------------
# Canonical JSON


def _fields(value):
    """The encoder's hook for what its C code does not write: the JSON form of ``value``."""
    if is_dataclass(value):
        return vars(value)  # a result's field names are its JSON keys
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


_ENCODER = json.JSONEncoder(sort_keys=True, default=_fields)


def _refuse_constant(name: str):
    raise ValueError(f"cannot serialize non-finite number {float(name)!r}")


def dumps_canonical(document) -> str:
    """Serialize to JSON with sorted keys and exact float round-trips, newline-terminated.

    The standard library's encoder writes every ``float``, ``np.float64``
    included, with ``float.__repr__`` (the shortest digits that read back to
    the same float), and tuples as lists.  A dataclass is written as its
    fields, an array as its list, and other numpy numbers as Python ones.

    Raises:
        ValueError: the document holds a NaN or an infinity; the message
            names the first, in key order.
        TypeError: it holds another type, such as a set or a non-dict Mapping.
    """
    text = _ENCODER.encode(document)
    if "NaN" in text or "Infinity" in text:  # as constants, or only inside strings?
        json.loads(text, parse_constant=_refuse_constant)
    return text + "\n"


# ---------------------------------------------------------------------------
# Config loading


def _as_float(value: numbers.Real, what: str) -> float:
    try:
        return float(value)
    except OverflowError:  # a JSON integer literal past float64's range
        digits = len(str(abs(value)))
        raise ParseError(f"{what} must fit in a float64, got a {digits}-digit integer") from None


def _require_number(doc: dict, key: str, where: str) -> float:
    if key not in doc:
        raise MissingField(f"{where} lacks required field {key!r}")
    value = doc[key]
    if type(value) is float:  # what json.loads gives for every non-integer number
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ParseError(f"{where}.{key} must be a number, got {value!r}")
    return _as_float(value, f"{where}.{key}")


def _reject_unknown(doc: dict, allowed: set, where: str) -> None:
    if doc.keys() <= allowed:
        return
    unknown = sorted(set(doc) - allowed)
    raise ParseError(f"{where} has unknown key {unknown[0]!r}")


def _parse_sim(doc, n: int) -> SimSettings:
    if type(doc) is not dict:
        raise ParseError(f"sim must be an object, got {type(doc).__name__}")
    _reject_unknown(doc, _SIM_KEYS, "sim")
    sim = SimSettings()
    if "h" in doc:
        sim = replace(sim, h=_require_number(doc, "h", "sim"))
    if "t_end" in doc:
        sim = replace(sim, t_end=_require_number(doc, "t_end", "sim"))
    if "method" in doc:
        method = doc["method"]
        if method not in METHODS:
            raise ParseError(f"sim.method must be one of {METHODS}, got {method!r}")
        sim = replace(sim, method=method)
    if "record_stride" in doc:
        stride = doc["record_stride"]
        if isinstance(stride, bool) or not isinstance(stride, numbers.Integral):
            raise ParseError(f"sim.record_stride must be an integer, got {stride!r}")
        sim = replace(sim, record_stride=int(stride))
    if "init" in doc:
        init = doc["init"]
        if init == "zero":
            sim = replace(sim, init="zero")
        elif type(init) is list:
            expected = state_layout(n).dim
            values = []
            for v in init:
                if isinstance(v, bool) or not isinstance(v, numbers.Real):
                    raise ParseError(f"sim.init entries must be numbers, got {v!r}")
                values.append(_as_float(v, "sim.init entries"))
            if len(values) != expected:
                raise ParseError(
                    f"sim.init must have {expected} entries (5N+3 for N={n}), got {len(values)}"
                )
            arr = np.array(values)
            if not np.isfinite(arr).all():
                raise ParseError("sim.init entries must be finite")
            sim = replace(sim, init=arr)
        else:
            raise ParseError(f'sim.init must be "zero" or a list of numbers, got {init!r}')
    return check_sim(sim, n)


def check_sim(sim: SimSettings, n: int) -> SimSettings:
    """Return ``sim`` if a run of an ``n``-agent market can use it.

    Shared by the config parser and the command-line overrides.

    Raises:
        ParseError: the step is not positive and finite, the horizon is
            shorter than one step or not finite, the stride is below 1, or
            the record would exceed ``MAX_RECORDED_VALUES``.
    """
    if not 0.0 < sim.h < math.inf:
        raise ParseError(f"sim.h must be positive and finite, got {sim.h}")
    if not sim.h <= sim.t_end < math.inf:
        raise ParseError(f"sim.t_end = {sim.t_end} must be finite and at least sim.h = {sim.h}")
    if sim.record_stride < 1:
        raise ParseError(f"sim.record_stride must be >= 1, got {sim.record_stride}")
    # Rows as integrate counts them, give or take one; in floats, where t_end / h may be inf.
    # Every stride past the horizon records the same rows: min keeps a huge one a float.
    values = (sim.t_end / sim.h / min(sim.record_stride, 2**1023) + 2) * (state_layout(n).dim + 3)
    if values > MAX_RECORDED_VALUES:
        raise ParseError(
            f"sim would record {values:.3g} values, more than {MAX_RECORDED_VALUES}; "
            "shorten sim.t_end or raise sim.record_stride"
        )
    return sim


def load_config(source: str | Path) -> ScenarioConfig:
    """Parse and validate a scenario from a JSON file path or JSON text.

    A ``str`` that starts with ``{`` is treated as JSON text, anything else
    as a path.  Unknown keys anywhere in the document are rejected.

    Raises:
        ParseError: malformed JSON (with line/column), unknown key, or a
            field of the wrong type.
        MissingField: a required field is absent.
        ValidationError: the agent records fail market validation.
    """
    if isinstance(source, str) and source.lstrip().startswith("{"):
        text = source
    else:
        try:
            text = Path(source).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"config file {str(source)!r} is not UTF-8: {exc}") from None
        except OSError as exc:
            if isinstance(source, Path):  # a Path's caller gets the OSError itself
                raise
            raise ParseError(f"cannot read config file {source!r}: {exc}") from None

    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    # An integer literal past Python's digit limit, or nesting past the recursion limit.
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"malformed JSON: {exc}") from None
    if type(doc) is not dict:
        raise ParseError(f"config must be a JSON object, got {type(doc).__name__}")
    _reject_unknown(doc, _TOP_KEYS, "config")

    if "agents" not in doc:
        raise MissingField("config lacks required field 'agents'")
    agents_doc = doc["agents"]
    if type(agents_doc) is not list:
        raise ParseError("config.agents must be a list of agent records")
    rows = []
    for i, rec in enumerate(agents_doc):
        where = f"agents[{i}]"
        if type(rec) is not dict:
            raise ParseError(f"{where} must be an object, got {type(rec).__name__}")
        _reject_unknown(rec, _AGENT_KEYS, where)
        rows.append((
            _require_number(rec, "q", where),
            _require_number(rec, "c0", where),
            _require_number(rec, "a", where),
        ))
    market = validate_market(np.array(rows, dtype=float).reshape(-1, 3))

    cap = SocialPriceCap(lambda_max=_require_number(doc, "lambda_max", "config"))

    sim = _parse_sim(doc.get("sim", {}), market.n)

    seed = doc.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
        raise ParseError(f"seed must be an integer, got {seed!r}")

    return ScenarioConfig(market=market, cap=cap, sim=sim, seed=int(seed))


def config_to_json(config: ScenarioConfig) -> str:
    """Serialize a config back to canonical JSON (round-trips losslessly)."""
    return dumps_canonical({"agents": config.market.agents, "lambda_max": config.cap.lambda_max,
                            "sim": config.sim, "seed": config.seed})


# ---------------------------------------------------------------------------
# Workflows


def _numbers(doc) -> np.ndarray:
    """Every number of ``doc`` (as :func:`_require_finite` reads it), in one float array."""
    scalars, arrays, docs = [], [], [doc]
    while docs:
        items = docs.pop()
        for value in (items if type(items) is dict else vars(items)).values():
            if isinstance(value, np.ndarray):
                arrays.append(value.ravel())
            elif isinstance(value, (float, int, np.number, np.bool_)):
                scalars.append(value)
            else:
                docs.append(value)
    return np.concatenate([np.array(scalars, dtype=float), *arrays])


def _require_finite(doc, where: str = "") -> None:
    """Raise :class:`ValidationError` naming the first non-finite number of ``doc``.

    ``doc`` is a result dataclass or a dict.  Fields and keys are visited in
    sorted order, the order of the JSON report and of the sweep's CSV
    columns; values are numbers, arrays of numbers, or nested dataclasses
    and dicts.  One test covers them all; only a failure visits them.
    """
    if np.isfinite(_numbers(doc)).all():
        return
    items = doc if type(doc) is dict else vars(doc)
    for key in sorted(items):
        value = items[key]
        if isinstance(value, np.ndarray):
            value = value.tolist()
        elif not isinstance(value, (float, int, np.number, np.bool_)):  # a nested result
            _require_finite(value, f"{where}{key}.")
            continue
        for v in value if type(value) is list else (value,):
            if not math.isfinite(v):
                raise ValidationError(
                    f"{where}{key} = {float(v)!r} is not finite: the inputs exceed float64's range"
                )


def run_solve(config: ScenarioConfig) -> EquilibriumReport:
    """Solve both equilibria of the scenario and audit the capped one.

    Raises:
        ValidationError: a value of the report is not finite.
    """
    market = config.market
    cap = config.cap.lambda_max
    # Inputs near float64's range overflow; _require_finite reports that
    # as the error, so numpy's warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        ce = solve_ce(market)
        sce = solve_sce(market, cap)
        residuals = kkt_residual_sce(market, cap, sce)
    report = EquilibriumReport(ce=ce, sce=sce, residuals=residuals, cap_active=sce.nu_star > 0.0)
    _require_finite(report)
    return report


def report_to_json(report: EquilibriumReport) -> str:
    return dumps_canonical(report)


def trajectory_header(n: int) -> list[str]:
    """CSV column names for an ``n``-agent closed-loop trajectory."""
    cols = ["t"]
    cols += [f"x_{i}" for i in range(1, n + 1)]
    cols += [f"rho_{i}" for i in range(1, n + 1)]
    cols += [f"eps_{i}" for i in range(1, n + 1)]
    cols += ["lambda"]
    cols += [f"u_{i}" for i in range(1, n + 1)]
    cols += [f"pi_{i}" for i in range(1, n + 1)]
    cols += ["nu", "mu", "V", "eq_residual"]
    return cols


def write_trajectory_csv(trajectory: Trajectory, n: int, path: str | Path) -> None:
    """Write a closed-loop trajectory as CSV (LF endings, exact floats), in bounded chunks.

    Raises:
        DimensionMismatch: the states are not those of an ``n``-agent
            market; nothing is written.
    """
    dim = state_layout(n).dim
    if trajectory.states.shape[1] != dim:
        raise DimensionMismatch(
            f"trajectory states have {trajectory.states.shape[1]} columns, "
            f"the state of {n} agents has {dim}"
        )
    columns = (trajectory.times[:, None], trajectory.states, trajectory.lyapunov[:, None],
               trajectory.equilibrium_residuals[:, None])
    chunk = max(1, _CSV_CHUNK_VALUES // (dim + 3))
    with open(path, "wb") as out:
        out.write((",".join(trajectory_header(n)) + "\n").encode())
        for start in range(0, len(trajectory), chunk):
            out.write(format_table(np.hstack([c[start : start + chunk] for c in columns])))


def summary_to_json(report: ConvergenceReport) -> str:
    return dumps_canonical(report)


def run_simulate(
    config: ScenarioConfig,
    csv_path: str | Path,
    summary_path: str | Path | None = None,
) -> tuple[Trajectory, ConvergenceReport]:
    """Simulate the closed loop and export trajectory CSV plus JSON summary.

    The reference equilibrium for the Lyapunov and residual columns is the
    closed-form fixed point; the summary reports convergence at
    ``SUMMARY_TOLERANCE``.  If the integration diverges, the partial
    trajectory is flushed to ``csv_path`` before :class:`NonfiniteState`
    propagates; equilibria and a closed-loop fixed point that are not
    finite raise :class:`ValidationError`.
    """
    # A market or fixed point past float64's range is an input error, not a divergence;
    # as in run_solve, numpy's overflow warnings would only repeat an error.
    sce = run_solve(config).sce
    market = config.market
    cap = config.cap.lambda_max
    sim = config.sim
    lay = state_layout(market.n)
    with np.errstate(over="ignore", invalid="ignore"):
        reference = _equilibrium_state(market, cap, sce)
    if not np.isfinite(reference).all():
        _require_finite(dict(zip(trajectory_header(market.n)[1:], reference)),
                        "closed-loop fixed point: ")
    y0 = np.zeros(lay.dim) if isinstance(sim.init, str) else np.asarray(sim.init, dtype=float)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            trajectory = integrate(closed_loop_rhs(market, cap), y0, sim.h, sim.t_end,
                                   method=sim.method, reference=reference, mu_index=lay.mu,
                                   record_stride=sim.record_stride)
    except NonfiniteState as exc:
        if exc.trajectory is not None and len(exc.trajectory) > 0:
            write_trajectory_csv(exc.trajectory, market.n, csv_path)
        raise
    write_trajectory_csv(trajectory, market.n, csv_path)
    report = convergence_report(trajectory, SUMMARY_TOLERANCE)
    if summary_path is not None:
        Path(summary_path).write_text(summary_to_json(report), newline="\n")
    return trajectory, report


def nominal_welfare(market: MarketInstance, x: np.ndarray) -> float | np.ndarray:
    """Total utility at allocation ``x`` (each row of a 2-D ``x``), adjustment-free coefficients."""
    return (-0.5 * market.q * x**2 - market.c0 * x).sum(axis=-1)


def run_sweep(config: ScenarioConfig, cap_values) -> Sweep:
    """Solve the capped equilibrium across a list of price caps, all caps at once.

    The solution is closed-form in the cap, so each column is one numpy
    expression over the caps, equal to ``solve_sce``'s value cap by cap.

    Raises:
        NonfiniteInput, ValidationError: the first cap, in input order, that
            is not finite or whose row has a value that is not finite.
    """
    caps = np.array([float(c) for c in cap_values])
    if not caps.size:
        raise ValueError("cap_values must be nonempty")
    market = config.market
    # As in run_solve: overflow is reported by _require_finite.
    with np.errstate(over="ignore", invalid="ignore"):
        ce = solve_ce(market)
        active = ~(ce.lambda_bar <= caps)  # a NaN cap fails below
        lam = np.where(active, caps, ce.lambda_bar)
        demand = phi(market, lam[:, None])
        nu = np.where(active, (demand.sum(axis=1) - market.sum_a) / market.s2, 0.0)
        x = demand - nu[:, None] / market.q**2
        u = nu[:, None] / market.q
        sweep = Sweep(
            lambda_max=caps,
            lambda_star=lam,
            nu_star=nu,
            u_norm=np.sqrt(np.vecdot(u, u)),
            welfare_loss_nominal=nominal_welfare(market, ce.x_bar) - nominal_welfare(market, x),
        )
    table = np.column_stack(list(vars(sweep).values()))
    bad = np.flatnonzero(~np.isfinite(table).all(axis=1))
    if bad.size:
        cap = _check_cap(caps[bad[0]])
        _require_finite(dict(zip(vars(sweep), table[bad[0]])), f"sweep at lambda_max = {cap!r}: ")
    return sweep


def sweep_to_csv(sweep: Sweep) -> str:
    """The sweep as CSV, one row per cap, with shortest round-trip floats."""
    table = np.column_stack(list(vars(sweep).values()))
    header = "lambda_max,lambda_star,nu_star,u_norm,welfare_loss_nominal_utilities\n"
    return header + format_table(table).decode()
