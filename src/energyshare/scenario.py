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
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path

import numpy as np

from .dynamics import (
    METHODS,
    ConvergenceReport,
    Trajectory,
    assemble_equilibrium,
    closed_loop_rhs,
    convergence_report,
    integrate,
    state_layout,
)
from .equilibrium import (
    CeSolution,
    KktResidualReport,
    SceSolution,
    _capped,
    _check_cap,
    kkt_residual_sce,
    solve_ce,
    solve_sce,
    solve_sw_dual,
)
from ._shortest import format_table
from .errors import DimensionMismatch, MissingField, NonfiniteState, ParseError, ValidationError
from .market import AgentParams, MarketInstance, SocialPriceCap, validate_market

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


# The sweep's columns, in the order of its table and of its CSV.
_SWEEP_COLUMNS = ("lambda_max", "lambda_star", "nu_star", "u_norm", "welfare_loss_nominal")


@dataclass(frozen=True, eq=False)
class Sweep:
    """The capped equilibrium across price caps: one float64 ``(K, 5)`` table, a row per cap.

    Its columns are ``_SWEEP_COLUMNS``, each readable by name as a view of
    the table.  ``welfare_loss_nominal`` is the total nominal utility
    (adjustment-free coefficients) at the uncapped equilibrium minus the
    same quantity at the capped one; it is nonnegative and zero while the
    cap is inactive.  An inactive cap's row is the uncapped equilibrium's.
    """

    table: np.ndarray

    lambda_max = property(lambda self: self.table[:, 0])
    lambda_star = property(lambda self: self.table[:, 1])
    nu_star = property(lambda self: self.table[:, 2])
    u_norm = property(lambda self: self.table[:, 3])
    welfare_loss_nominal = property(lambda self: self.table[:, 4])


# ---------------------------------------------------------------------------
# Canonical JSON


def _fields(value):
    """The encoder's hook for what its C code does not write: the JSON form of ``value``.

    Arrays are tested first: ``is_dataclass`` is the slower test.
    """
    if isinstance(value, np.ndarray):
        return value.tolist()
    if is_dataclass(value):
        return vars(value)  # a result's field names are its JSON keys
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


def _as_float(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ParseError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # a JSON integer literal past float64's range
        digits = len(str(abs(value)))
        raise ParseError(f"{what} must fit in a float64, got a {digits}-digit integer") from None


def _as_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _require_number(doc: dict, key: str, where: str) -> float:
    if key not in doc:
        raise MissingField(f"{where} lacks required field {key!r}")
    value = doc[key]
    if type(value) is float:  # what json.loads gives for every non-integer number
        return value
    return _as_float(value, f"{where}.{key}")


def _require_object(doc, allowed: set, where: str) -> None:
    """Raise :class:`ParseError` unless ``doc`` is an object with keys only from ``allowed``."""
    if type(doc) is not dict:
        raise ParseError(f"{where} must be an object, got {type(doc).__name__}")
    if not doc.keys() <= allowed:
        raise ParseError(f"{where} has unknown key {min(doc.keys() - allowed)!r}")


def _parse_init(init, n: int) -> str | np.ndarray:
    if init == "zero":
        return init
    if type(init) is not list:
        raise ParseError(f'sim.init must be "zero" or a list of numbers, got {init!r}')
    values = np.array([_as_float(v, "sim.init entries") for v in init], dtype=float)
    expected = state_layout(n).dim
    if len(values) != expected:
        raise ParseError(
            f"sim.init must have {expected} entries (5N+3 for N={n}), got {len(values)}"
        )
    if not np.isfinite(values).all():
        raise ParseError("sim.init entries must be finite")
    return values


def _parse_sim(doc, n: int) -> SimSettings:
    """Each field's value in ``doc``, or its default; types in field order, then check_sim."""
    _require_object(doc, _SIM_KEYS, "sim")
    return check_sim(SimSettings(
        h=_as_float(doc.get("h", SimSettings.h), "sim.h"),
        t_end=_as_float(doc.get("t_end", SimSettings.t_end), "sim.t_end"),
        method=doc.get("method", SimSettings.method),
        record_stride=_as_int(doc.get("record_stride", SimSettings.record_stride),
                              "sim.record_stride"),
        init=_parse_init(doc.get("init", SimSettings.init), n),
    ), n)


def check_sim(sim: SimSettings, n: int) -> SimSettings:
    """Return ``sim`` if a run of an ``n``-agent market can use it.

    Shared by the config parser and the command-line overrides.

    Raises:
        ParseError: the method is not one of ``METHODS``, the step is not
            positive and finite, the horizon is shorter than one step or not
            finite, the stride is below 1, or the record would exceed
            ``MAX_RECORDED_VALUES``.
    """
    if sim.method not in METHODS:
        raise ParseError(f"sim.method must be one of {METHODS}, got {sim.method!r}")
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
    _require_object(doc, _TOP_KEYS, "config")

    if "agents" not in doc:
        raise MissingField("config lacks required field 'agents'")
    agents_doc = doc["agents"]
    if type(agents_doc) is not list:
        raise ParseError("config.agents must be a list of agent records")
    values = _agent_values(agents_doc)
    if values is None:  # the field-by-field reading: the first error, or integers as floats
        values = []
        for i, rec in enumerate(agents_doc):
            where = f"agents[{i}]"
            _require_object(rec, _AGENT_KEYS, where)
            values += (_require_number(rec, "q", where), _require_number(rec, "c0", where),
                       _require_number(rec, "a", where))
    market = validate_market(np.array(values, dtype=float).reshape(-1, 3))

    cap = SocialPriceCap(lambda_max=_require_number(doc, "lambda_max", "config"))
    sim = _parse_sim(doc["sim"], market.n) if "sim" in doc else check_sim(SimSettings(), market.n)
    return ScenarioConfig(market=market, cap=cap, sim=sim, seed=_as_int(doc.get("seed", 0), "seed"))


def _agent_values(records: list) -> list[float] | None:
    """Every record's ``q``, ``c0`` and ``a``, in order, in one pass; or None.

    None unless every record is an object with exactly those three keys and
    every value is a JSON float, so that the field-by-field reading, which
    then runs, raises each error as it always has.
    """
    try:
        values = [v for rec in records for v in (rec["q"], rec["c0"], rec["a"])]
    except (TypeError, KeyError):  # a record that is not an object, or lacks a field
        return None
    if set(map(len, records)) != {3} or set(map(type, values)) != {float}:
        return None
    return values


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
    # Inputs near float64's range overflow, or underflow s2 to 0; _require_finite
    # reports that as the error, so numpy's warnings would only repeat it.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
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


def _fixed_point(market: MarketInstance, cap: float) -> np.ndarray:
    """The closed loop's fixed point, which past float64's range is an input error
    (:class:`ValidationError`), not a divergence; numpy's warnings would only repeat it."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        fixed = assemble_equilibrium(market, cap)
    if not np.isfinite(fixed).all():
        _require_finite(dict(zip(trajectory_header(market.n)[1:], fixed)),
                        "closed-loop fixed point: ")
    return fixed


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
    run_solve(config)  # a market past float64's range is an input error, not a divergence
    market = config.market
    cap = config.cap.lambda_max
    sim = config.sim
    lay = state_layout(market.n)
    reference = _fixed_point(market, cap)
    y0 = np.zeros(lay.dim) if isinstance(sim.init, str) else np.asarray(sim.init, dtype=float)
    try:
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
    """Solve the capped equilibrium across a list of price caps.

    :func:`solve_sce`'s closed form, ``_capped``, is evaluated once, over
    the caps that bind (below the CE price, a NaN cap included) and the CE
    price itself, where it gives the CE.  Every other cap is idle, and its
    row is the CE's, ``(cap, lambda_bar, 0.0, 0.0, w - w)`` with ``w`` the
    CE's nominal welfare: the row ``_capped`` gives at that cap, bit for bit.

    Raises:
        NonfiniteInput, ValidationError: the first cap, in input order, that
            is not finite or whose row has a value that is not finite.
    """
    caps = np.fromiter(map(float, cap_values), float)
    if not caps.size:
        raise ValueError("cap_values must be nonempty")
    market = config.market
    table = np.empty((caps.size, len(_SWEEP_COLUMNS)))
    table[:, 0] = caps
    # As in run_solve: overflow is reported by _require_finite.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        lam_ce = solve_sw_dual(market)
        rows = (~(lam_ce <= caps)).nonzero()[0]  # a NaN cap binds, and fails below
        block = np.empty((rows.size + 1, len(_SWEEP_COLUMNS) - 1))  # the CE last
        block[:, 0], block[:, 1], x, u = _capped(market, np.concatenate((caps[rows], [lam_ce])),
                                                 lam_ce)
        np.sqrt(np.vecdot(u, u), out=block[:, 2])
        welfare = nominal_welfare(market, x)
        # w - w, not 0.0: a CE welfare that overflows gives NaN, as _capped's row would.
        np.subtract(welfare[-1], welfare, out=block[:, 3])
        table[:, 1:] = block[-1]
        table[rows, 1:] = block[:-1]
    if not np.isfinite(table).all():
        row = np.flatnonzero(~np.isfinite(table).all(axis=1))[0]
        cap = _check_cap(caps[row])
        _require_finite(dict(zip(_SWEEP_COLUMNS, table[row])), f"sweep at lambda_max = {cap!r}: ")
    return Sweep(table)


def sweep_to_csv(sweep: Sweep) -> str:
    """The sweep as CSV, one row per cap, with shortest round-trip floats."""
    header = "lambda_max,lambda_star,nu_star,u_norm,welfare_loss_nominal_utilities\n"
    return header + format_table(sweep.table).decode()
