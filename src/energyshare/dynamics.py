"""Continuous-time market dynamics, controller, integrator and certificates.

The open-loop system is the decentralized primal-dual price-seeking scheme:
each agent follows the gradient of its utility under a local price estimate
``rho_i`` and tracks the imbalance through ``eps_i``, while the operator
adjusts the market price ``lam`` from the aggregate imbalance.  The dynamic
feedback controller adds states ``(u, pi, nu, mu)`` that steer the agents'
linear utility coefficients until the price settles at the capped
market-clearing value; ``mu`` is kept nonnegative by a conditional
projection.

The full closed-loop state is the stacked vector

    [x (N), rho (N), eps (N), lam (1), u (N), pi (N), nu (1), mu (1)]

of dimension ``5N + 3``, and the open-loop state ``(x, rho, eps, lam)`` is
its prefix.  :func:`state_layout` is the one map of where each block sits;
everything here that indexes a stacked state goes through it.  All
right-hand sides are pure functions; the fixed-step integrator is the only
code here that loops.

Every block of the closed-loop drift is diagonal or rank one: each agent
updates from its own states and two market-wide sums, ``sum(eps)`` for the
price and ``sum(pi)`` for ``nu``.  The drift is written once, as one O(N)
kernel on states stacked along a leading batch axis, and so is the reduced
drift.  Everything else derives from these two kernels: the ``rhs_*``
functions are thin validating wrappers, :func:`closed_loop_rhs` calls the
kernel for large markets, each drift matrix is the kernel's linear part
evaluated on the unit vectors and each offset the kernel at the zero state.
The dense ``(5N+3)**2`` matrix is built for small markets, for the block
path of :func:`integrate` and for the certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .equilibrium import solve_ce, solve_sce
from .errors import DimensionMismatch, NegativeMu, NonfiniteState
from .market import MarketInstance, conditional_projection

# Integration aborts once any state component exceeds this magnitude.
DIVERGENCE_LIMIT = 1e12


@dataclass(frozen=True)
class StateLayout:
    """Index map of the stacked closed-loop state vector.

    The open-loop state ``(x, rho, eps, lam)`` is its prefix up to and
    including ``lam``.
    """

    n: int
    x: slice
    rho: slice
    eps: slice
    lam: int
    u: slice
    pi: slice
    nu: int
    mu: int

    @property
    def dim(self) -> int:
        return 5 * self.n + 3


@lru_cache
def state_layout(n: int) -> StateLayout:
    """Where each block of the ``n``-agent closed-loop state sits.

    Cached per ``n``: the drift kernel asks for it on every evaluation.
    """
    return StateLayout(
        n=n,
        x=slice(0, n),
        rho=slice(n, 2 * n),
        eps=slice(2 * n, 3 * n),
        lam=3 * n,
        u=slice(3 * n + 1, 4 * n + 1),
        pi=slice(4 * n + 1, 5 * n + 1),
        nu=5 * n + 1,
        mu=5 * n + 2,
    )


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-indexed record of a simulation.

    ``lyapunov`` holds ``0.5 * ||state - reference||**2`` and
    ``equilibrium_residuals`` the infinity-norm distance to the reference
    at each recorded step (NaN when no reference was supplied).
    """

    times: np.ndarray
    states: np.ndarray
    lyapunov: np.ndarray
    equilibrium_residuals: np.ndarray
    mu_index: int | None = None
    reference: np.ndarray | None = None

    def __post_init__(self):
        n = self.times.shape[0]
        if (
            self.states.shape[0] != n
            or self.lyapunov.shape[0] != n
            or self.equilibrium_residuals.shape[0] != n
        ):
            raise DimensionMismatch("trajectory arrays must have equal leading length")
        if n > 1 and not np.all(np.diff(self.times) > 0.0):
            raise ValueError("trajectory times must be strictly increasing")

    def __len__(self) -> int:
        return int(self.times.shape[0])

    @property
    def final_time(self) -> float:
        return float(self.times[-1])

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def mu_series(self) -> np.ndarray | None:
        if self.mu_index is None:
            return None
        return self.states[:, self.mu_index]


@dataclass(frozen=True)
class StabilityCertificate:
    """Numerical evidence for the closed loop's Lyapunov argument.

    The drift matrix's symmetric part must factor as ``-B.T @ B`` (hence be
    negative semidefinite); optionally a simulated trajectory is checked
    for monotone Lyapunov decrease up to a per-step slack.
    """

    max_eigenvalue_x_sym: float
    factorization_residual: float
    lyapunov_monotone: bool
    worst_lyapunov_increase: float


@dataclass(frozen=True)
class ConvergenceReport:
    """Summary of how a trajectory approaches a reference equilibrium."""

    converged: bool
    first_time_within_tolerance: float | None
    final_error: float
    worst_lyapunov_increase: float
    mu_negativity: float
    tolerance: float


# ---------------------------------------------------------------------------
# Right-hand sides


def _closed_loop_drift(y: np.ndarray, q, c0=0.0, a=0.0, u_shift=0.0) -> np.ndarray:
    """The closed-loop drift with ``mu`` free, on a batch of states ``y[..., :]``.

    Leading axes of ``y`` index the batch, and the last holds each state in
    the order of :func:`state_layout`; the result has the same shape.
    ``c0``, ``a`` and ``u_shift = (c0 + cap) / q`` are the drift's
    constants: with their zero defaults it is the linear part, whose values
    on the unit vectors are the matrix's columns.  The ``mu`` entry is
    ``-nu``; the projection is the caller's.
    """
    lay = state_layout(q.size)
    x, rho, eps = y[..., lay.x], y[..., lay.rho], y[..., lay.eps]
    u, pi = y[..., lay.u], y[..., lay.pi]
    lam, nu, mu = y[..., lay.lam], y[..., lay.nu], y[..., lay.mu]
    d = np.empty(y.shape)
    d[..., lay.x] = -q * x - c0 - rho - u
    d[..., lay.rho] = x - a - eps
    d[..., lay.eps] = rho - lam[..., None]
    d[..., lay.lam] = eps.sum(axis=-1)
    d[..., lay.u] = -u / q - q * pi - x - u_shift
    d[..., lay.pi] = q * u - nu[..., None]
    d[..., lay.nu] = pi.sum(axis=-1) + mu
    d[..., lay.mu] = -nu
    return d


def _closed_loop_constants(market: MarketInstance, cap: float) -> tuple:
    """The constants of the closed-loop drift: ``q``, ``c0``, ``a``, ``(c0 + cap) / q``."""
    return market.q, market.c0, market.a, (market.c0 + cap) / market.q


def _reduced_drift(y: np.ndarray, q, c0=0.0, sum_a=0.0) -> np.ndarray:
    """The reduced drift on a batch of states ``y[..., :]``, each ``(x, lam)``.

    ``c0`` and ``sum_a`` are its constants, zero for the linear part.
    """
    n = q.size
    x = y[..., :n]
    d = np.empty(y.shape)
    d[..., :n] = -q * x - c0 - y[..., n, None]
    d[..., n] = x.sum(axis=-1) - sum_a
    return d


def _as_state(state, dim: int, what: str) -> np.ndarray:
    state = np.asarray(state, dtype=float)
    if state.shape != (dim,):
        raise DimensionMismatch(f"{what} has shape {state.shape}, expected ({dim},)")
    return state


def rhs_open_loop(market: MarketInstance, state) -> np.ndarray:
    """Drift of the uncontrolled price-seeking dynamics, state (x, rho, eps, lam)."""
    return rhs_controlled(market, state, np.zeros(market.n))


def rhs_controlled(market: MarketInstance, state, u_input) -> np.ndarray:
    """Open-loop drift with the utility adjustment ``u_input`` acting on x."""
    lay = state_layout(market.n)
    state = _as_state(state, lay.lam + 1, "open-loop state")
    u_input = np.asarray(u_input, dtype=float)
    if u_input.shape != (lay.n,):
        raise DimensionMismatch(f"u_input has shape {u_input.shape}, expected ({lay.n},)")
    y = np.zeros(lay.dim)
    y[: lay.lam + 1], y[lay.u] = state, u_input
    return _closed_loop_drift(y, market.q, market.c0, market.a)[: lay.lam + 1]


def rhs_controller(market: MarketInstance, state, cap: float) -> np.ndarray:
    """Drift of the controller states (u, pi, nu, mu) given the full state.

    Requires ``mu >= 0``; the projection keeps ``mu`` from drifting below
    zero once it sits on the boundary.
    """
    return rhs_closed_loop(market, state, cap)[state_layout(market.n).u.start :]


def rhs_closed_loop(market: MarketInstance, state, cap: float) -> np.ndarray:
    """Drift of the interconnection: market block driven by the controller's u.

    Requires ``mu >= 0``, as :func:`rhs_controller` does.
    """
    lay = state_layout(market.n)
    state = _as_state(state, lay.dim, "closed-loop state")
    mu = float(state[lay.mu])
    if mu < 0.0:
        raise NegativeMu(f"mu = {mu} must be nonnegative")
    d = _closed_loop_drift(state, *_closed_loop_constants(market, cap))
    d[lay.mu] = conditional_projection(d[lay.mu], mu)
    return d


def rhs_reduced(market: MarketInstance, state) -> np.ndarray:
    """Operator-knows-generation variant, state (x, lam) of dimension N+1."""
    state = _as_state(state, market.n + 1, "reduced state")
    return _reduced_drift(state, market.q, market.c0, market.sum_a)


# ---------------------------------------------------------------------------
# Affine forms, derived from the drifts above


def _linear_part(kernel, q: np.ndarray, dim: int, size: int) -> np.ndarray:
    """Matrix of the linear part of ``kernel`` on the first ``size`` of ``dim`` components.

    Row ``j`` of ``kernel(I, q)``, whose constants default to zero, is the
    drift of the ``j``-th unit vector: the matrix's column ``j``.  The
    transpose is copied to C order.
    """
    columns = kernel(np.eye(size, dim), q)[:, :size]
    return np.ascontiguousarray(columns.T)


def closed_loop_matrix(market: MarketInstance) -> np.ndarray:
    """Drift matrix of the closed loop on the branch where mu evolves freely.

    The drift kernel with zero constants, evaluated on the identity.  The
    identity is freed before the kernel's output is copied to C order, so
    the build holds about two dense ``(5N+3)**2`` arrays at its peak.
    """
    dim = state_layout(market.n).dim
    return _linear_part(_closed_loop_drift, market.q, dim, dim)


def closed_loop_matrices(market: MarketInstance, cap: float) -> tuple[np.ndarray, np.ndarray]:
    """Drift matrix and constant offset (the drift at the zero state) of the closed loop."""
    zero = np.zeros(state_layout(market.n).dim)
    offset = _closed_loop_drift(zero, *_closed_loop_constants(market, cap))
    return closed_loop_matrix(market), offset


def open_loop_matrices(market: MarketInstance) -> tuple[np.ndarray, np.ndarray]:
    """Drift matrix and constant offset of the uncontrolled dynamics."""
    lay = state_layout(market.n)
    mat = _linear_part(_closed_loop_drift, market.q, lay.dim, lay.lam + 1)
    return mat, rhs_open_loop(market, np.zeros(lay.lam + 1))


def reduced_matrices(market: MarketInstance) -> tuple[np.ndarray, np.ndarray]:
    """Drift matrix and constant offset of the reduced dynamics."""
    dim = market.n + 1
    return _linear_part(_reduced_drift, market.q, dim, dim), rhs_reduced(market, np.zeros(dim))


@dataclass(frozen=True, eq=False)
class ProjectedAffine:
    """Affine pieces of a drift with at most one conditionally projected component.

    The drift is ``matrix @ y + offset`` while ``y[mu] > 0``; with
    ``y[mu] <= 0`` its ``mu`` entry is replaced by ``max(-y[nu], 0)``.
    Without a projected component (``mu`` and ``nu`` None) the drift is
    ``matrix @ y + offset`` everywhere.  ``build_matrix`` makes the matrix
    the first time :attr:`matrix` is read, so a drift evaluated from its
    structure allocates it only for the block path of :func:`integrate`.
    """

    build_matrix: Callable[[], np.ndarray]
    offset: np.ndarray
    nu: int | None = None
    mu: int | None = None

    @cached_property
    def matrix(self) -> np.ndarray:
        return self.build_matrix()


def affine_rhs(matrix: np.ndarray, offset: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Callable ``y -> matrix @ y + offset`` for use with :func:`integrate`.

    The callable carries its pieces as ``rhs.projected_affine``, which lets
    :func:`integrate` advance it in blocks of steps.
    """

    def rhs(y: np.ndarray) -> np.ndarray:
        return matrix @ y + offset

    rhs.projected_affine = ProjectedAffine(lambda: matrix, offset)
    return rhs


# Up to this state dimension closed_loop_rhs evaluates the drift as one dense
# matrix-vector product; above it, from the drift's block structure.  On a
# 2-vCPU Xeon VM with one BLAS thread the structured form costs 12-20 us up
# to N = 200, mostly numpy's per-call overhead, and 33 us at N = 1000; the
# dense product costs 2 us at N = 4, as much near dim 280-330, and 20 ms at
# N = 1000.
_DENSE_DRIFT_MAX_DIM = 300


def closed_loop_rhs(market: MarketInstance, cap: float) -> Callable[[np.ndarray], np.ndarray]:
    """Fast closed-loop drift, tolerant of slightly negative ``mu``.

    The drift of :func:`rhs_closed_loop`, which also accepts states with
    ``mu < 0`` (raw Runge-Kutta stage values): wherever ``mu <= 0`` the
    projection branch applies and the ``mu`` entry is ``max(-nu, 0)``.
    Small markets take one dense matrix-vector product per evaluation,
    which agrees with :func:`rhs_closed_loop` to rounding.  Large ones
    (state dimension above ``_DENSE_DRIFT_MAX_DIM``) call the drift kernel
    behind :func:`rhs_closed_loop` itself, a few vector operations and the
    sums of ``eps`` and ``pi``, so the two agree bit for bit.  Both paths
    share one projection.

    The returned callable carries its affine pieces as
    ``rhs.projected_affine``, which lets :func:`integrate` advance it in
    blocks of steps; for a large market the dense matrix is built the first
    time something reads it.
    """
    lay = state_layout(market.n)
    i_nu, i_mu = lay.nu, lay.mu
    if lay.dim <= _DENSE_DRIFT_MAX_DIM:
        mat, offset = closed_loop_matrices(market, cap)
        affine = ProjectedAffine(lambda: mat, offset, i_nu, i_mu)

        def drift(state: np.ndarray) -> np.ndarray:
            return mat @ state + offset
    else:
        constants = _closed_loop_constants(market, cap)

        def drift(state: np.ndarray) -> np.ndarray:
            return _closed_loop_drift(state, *constants)

        affine = ProjectedAffine(
            lambda: closed_loop_matrix(market), drift(np.zeros(lay.dim)), i_nu, i_mu
        )

    def rhs(state: np.ndarray) -> np.ndarray:
        d = drift(state)
        if state[i_mu] <= 0.0:
            neg_nu = -state[i_nu]
            d[i_mu] = neg_nu if neg_nu > 0.0 else 0.0
        return d

    rhs.projected_affine = affine
    return rhs


# ---------------------------------------------------------------------------
# Equilibria


def open_loop_equilibrium(market: MarketInstance) -> np.ndarray:
    """Unique fixed point of the uncontrolled dynamics, stacked (x, rho, eps, lam)."""
    ce = solve_ce(market)
    return np.concatenate(
        [ce.x_bar, np.full(market.n, ce.lambda_bar), ce.x_bar - market.a, [ce.lambda_bar]]
    )


def reduced_equilibrium(market: MarketInstance) -> np.ndarray:
    """Unique fixed point of the reduced dynamics, stacked (x, lam)."""
    ce = solve_ce(market)
    return np.append(ce.x_bar, ce.lambda_bar)


def assemble_equilibrium(market: MarketInstance, cap: float) -> np.ndarray:
    """Unique fixed point of the closed loop, assembled in closed form.

    Returns the stacked state of :func:`state_layout`.  The market block
    sits at the capped equilibrium; the controller block is recovered from
    it: ``pi = (lam* - cap) / q**2`` componentwise and
    ``mu = s2 * (cap - lam*)``, which is complementary to ``nu``.
    """
    sce = solve_sce(market, cap)
    lay = state_layout(market.n)
    y = np.empty(lay.dim)
    y[lay.x] = sce.x_star
    y[lay.rho] = sce.lambda_star
    y[lay.eps] = sce.x_star - market.a
    y[lay.lam] = sce.lambda_star
    y[lay.u] = sce.u_star
    y[lay.pi] = (sce.lambda_star - cap) / market.q**2
    y[lay.nu] = sce.nu_star
    y[lay.mu] = market.s2 * (cap - sce.lambda_star)
    return y


def _without_mu(drift: np.ndarray, mu: int) -> np.ndarray:
    """Drift on the branch where ``mu`` is pinned at 0: its row and column drop out."""
    keep = np.arange(drift.shape[0]) != mu
    return drift[np.ix_(keep, keep)]


def closed_loop_spectrum(market: MarketInstance, cap: float) -> np.ndarray:
    """Eigenvalues of the closed loop linearized at its fixed point.

    When the projected state ``mu`` sits on its boundary at the fixed
    point, its row and column drop out of the linearization; when the
    fixed point lies on both branches, both spectra are returned.
    """
    lay = state_layout(market.n)
    drift = closed_loop_matrix(market)
    fixed = assemble_equilibrium(market, cap)
    spectra = []
    if fixed[lay.mu] > 0.0 or fixed[lay.nu] == 0.0:
        spectra.append(np.linalg.eigvals(drift))
    if fixed[lay.mu] == 0.0:
        spectra.append(np.linalg.eigvals(_without_mu(drift, lay.mu)))
    return np.concatenate(spectra)


def closed_loop_decay_rate(market: MarketInstance, cap: float) -> float:
    """Slowest local decay rate of the closed loop near its fixed point.

    Trajectories near the equilibrium contract roughly like
    ``exp(-rate * t)``; the returned rate is the negated spectral abscissa
    of :func:`closed_loop_spectrum`.  Useful for choosing simulation
    horizons; :func:`euler_stable_step` bounds the explicit Euler step.
    """
    return -float(closed_loop_spectrum(market, cap).real.max())


def euler_stable_step(market: MarketInstance) -> float:
    """Largest step at which explicit Euler is stable on the closed loop.

    Euler multiplies the mode of eigenvalue ``lam`` by ``1 + h * lam`` per
    step, which stays within the unit circle for
    ``h <= -2 * Re(lam) / |lam|**2``.  The minimum is taken over the drift
    with ``mu`` free and with ``mu`` pinned at 0, since a trajectory may
    visit both branches.  The drift matrix does not depend on the cap.
    """
    drift = closed_loop_matrix(market)
    eigs = np.concatenate([
        np.linalg.eigvals(drift),
        np.linalg.eigvals(_without_mu(drift, state_layout(market.n).mu)),
    ])
    return float((-2.0 * eigs.real / np.abs(eigs) ** 2).min())


# ---------------------------------------------------------------------------
# Integration


def _euler_step(rhs, y, h: float):
    return y + h * rhs(y)


def _rk4_step(rhs, y, h: float):
    half = 0.5 * h
    k1 = rhs(y)
    k2 = rhs(y + half * k1)
    k3 = rhs(y + half * k2)
    k4 = rhs(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


# Each method's step and its number of drift evaluations (stages) per step.
_STEPPERS = {"euler": (_euler_step, 1), "rk4": (_rk4_step, 4)}

# The integration methods, by name; the config parser and the CLI offer these.
METHODS = tuple(_STEPPERS)

# A block is at most _BLOCK_MAX_STEPS steps; a power of two makes a full
# block one matrix-vector product per bit of its length.  A block costs the
# interpreter about as much as ten single steps (~50 us against ~5 us for an
# Euler step at N = 5 on a 2-vCPU Xeon VM), so blocks shorter than
# _BLOCK_MIN_STEPS are not worth building.  The tables of all branches may
# take at most _BLOCK_MAX_BYTES, and at most _RECORD_BLOCK_MAX_BYTES when the
# blocks record states inside themselves.  These bound the memory the block
# path adds to a run and say nothing of its speed, which _blocks_pay_off
# weighs.  Blocks that record nothing inside reach full length up to about
# 430 state components for Euler.  Blocks that record every step are 512
# Euler steps long at N = 1 (dim 8) and 64 at N = 5 (dim 28), and exist up
# to about 50 components; a run at stride 100 such as table1.json takes 512
# rk4 steps at a time.
_BLOCK_MAX_STEPS = 1 << 12
_BLOCK_MIN_STEPS = 1 << 4
_BLOCK_MAX_BYTES = 1 << 26
_RECORD_BLOCK_MAX_BYTES = 1 << 20
# One matrix product costs the interpreter about as much as this many
# multiply-adds (~1.6 us against ~0.2 ns at dim 23 on a 2-vCPU Xeon VM).
_PRODUCT_COST = 1 << 13


def _blocks_pay_off(dim: int, length: int, stride: int, n_steps: int, evals: int,
                    guards: int) -> bool:
    """Whether blocks of ``length`` steps cost well under the step loop they replace.

    ``evals`` is the number of drift evaluations per step and ``guards``
    the number of guard rows checked per step on one branch: one per stage
    for a drift with a projected component, which has two branches, and
    none for a plain affine drift, which has one.  A block also yields the
    ``records = (length - 1) // stride`` states recorded inside it, ``dim``
    rows each.  Counted in multiply-adds, the step loop spends
    ``evals * dim**2`` per step.  The tables of one branch compose the step
    from its stage maps (``evals * dim**3``), take ``bits =
    length.bit_length()`` squarings of the step matrix (``dim**3`` each), as
    many again for the map of ``stride`` steps when there are records, and
    build by doubling at most twice their ``rows = guards * length + dim *
    records`` rows (``dim**2`` each); for all branches together to cost at
    most half the loop, ``2 * branches * ((evals + squarings) * dim + 2 *
    rows) <= evals * n_steps``.  Left out are the products that apply a
    block, ``rows * dim`` per block, and the interpreter's per-step cost,
    which the block path saves.  The first is small against the loop except
    for Euler recording every step, where it matches the loop's
    multiply-adds and the saving is the interpreter's cost alone; the
    record cap keeps such blocks to small states, where that cost dominates.
    """
    bits = length.bit_length()
    records = (length - 1) // stride
    squarings = 2 * bits if records else bits
    rows = guards * length + dim * records
    branches = 2 if guards else 1
    table_bytes = branches * 8 * (squarings * (dim + 1) * dim + rows * (dim + 1))
    cost = 2 * branches * ((evals + squarings) * dim + 2 * rows)
    max_bytes = _RECORD_BLOCK_MAX_BYTES if records else _BLOCK_MAX_BYTES
    return cost <= evals * n_steps and table_bytes <= max_bytes


def _compose(outer: tuple, inner: tuple) -> tuple:
    """The affine map ``(P, t)``, ``y -> P @ y + t``, of ``outer`` after ``inner``."""
    return outer[0] @ inner[0], outer[0] @ inner[1] + outer[1]


def _squarings(unit: tuple, count: int) -> list:
    """``[unit**(2**i) for 2**i <= count]`` of the affine map ``unit``."""
    powers = [unit]
    while 2 ** len(powers) <= count:
        powers.append(_compose(powers[-1], powers[-1]))
    return powers


def _doubled(rows: np.ndarray, sums: np.ndarray, powers: list, count: int) -> tuple:
    """Affine rows of ``count`` units from those of the first.

    ``rows @ y + sums`` reads some components after the first unit of
    steps from ``y``; ``powers[i]`` is the map of ``2**i`` units.  The rows
    of unit ``j + n`` are those of unit ``j`` applied after ``n`` units.
    """
    size = count * rows.shape[0]
    for power, total in powers:
        if rows.shape[0] >= size:
            break
        head = rows[: size - rows.shape[0]]
        sums = np.concatenate([sums, head @ total + sums[: head.shape[0]]])
        rows = np.concatenate([rows, head @ power])
    return rows, sums


# A branch looks for a power of its step map with norm at most 1 among the
# first _CONTRACTION_MAX_SQUARINGS squarings (2**63 steps, more than any run
# takes); without one it has no certified tail.
_CONTRACTION_MAX_SQUARINGS = 64


class _Branch:
    """Block tables of one method on one affine drift ``y -> matrix @ y + offset``.

    One step of the method is run on affine maps ``y -> M @ y + c``, stored
    as ``[M | c]``, so the step map ``y -> step @ y + shift`` and the
    ``guard`` component of every stage state are composed by the same code
    as a single step.  Holds ``powers[i] = (step**(2**i), S_(2**i))`` with
    ``S_j`` the sum of ``step**i @ shift`` over ``i < j``, so that ``j``
    steps apply as ``step**j @ y + S_j``.

    From a start ``y``, ``guard_rows @ y + guard_sums`` gives the guard
    component at every stage of each of a block's ``length`` steps, step
    after step (``stages`` values each), and ``record_rows @ y +
    record_sums`` the state after each ``stride`` steps, for the ``records
    = (length - 1) // stride`` states strictly inside a block.

    The branch's maps keep the subspace ``S``: ``{y[pin] = 0}`` on the
    pinned branch, whose step map keeps ``mu = y[pin]`` exactly, and all of
    R^d without a ``pin``.  Its norms are taken on ``S``, where the pinned
    map is nonexpansive although ``nu`` reads ``mu``'s column.  ``norms[i]
    = ||step**(2**i)|_S||_2`` up to the first at most 1, past which every
    power has norm at most 1.  ``growth[j]``, the largest product of
    ``max(1, norms[b])`` over the binary digits ``b`` of any ``i <= j``,
    bounds ``||step**i|_S||_2`` for ``i <= j``, so that a start ``y`` in
    ``S`` gives ``||y_j||_2 <= growth[j] * (||y||_2 + j * ||shift||_2)``.
    """

    def __init__(self, method_step, matrix: np.ndarray, offset: np.ndarray, h: float,
                 guard: int | None, pin: int | None, length: int, stride: int, limit: float):
        dim = offset.size
        guards = []

        def drift(maps: np.ndarray) -> np.ndarray:
            if guard is not None:
                guards.append(maps[guard])
            d = matrix @ maps
            d[:, -1] += offset
            return d

        mapped = method_step(drift, np.eye(dim, dim + 1), h)
        step, shift = mapped[:, :-1], mapped[:, -1]
        self.stages, self.stride, self.dim, self.pin, self.limit = (
            len(guards), stride, dim, pin, limit
        )
        self.powers = _squarings((step, shift), length)
        self.guards = np.array(guards).reshape(-1, dim + 1)  # [G_s | g_s] of one step
        self.guard_rows, self.guard_sums = _doubled(
            self.guards[:, :-1], self.guards[:, -1], self.powers, length
        )
        records = (length - 1) // stride
        if records:
            unit = self.map(stride)
            unit_powers = self.powers if stride == 1 else _squarings(unit, records)
            self.record_rows, self.record_sums = _doubled(*unit, unit_powers, records)
        self.keep = np.ones(dim, dtype=bool)  # the components of S
        if pin is not None:
            self.keep[pin] = False
            self.pin_norm = float(np.linalg.norm(step[self.keep, pin]))
        self.norms = []
        for power, _ in self.powers:
            self.norms.append(self._norm(power))
            if self.norms[-1] <= 1.0:
                break
        bits = np.arange(length + 1)[:, None] >> np.arange(len(self.norms)) & 1
        with np.errstate(over="ignore"):
            bound = np.where(bits, np.maximum(1.0, self.norms), 1.0).prod(axis=1)
        self.growth = np.maximum.accumulate(bound)
        self.shift_norm = float(np.linalg.norm(shift))

    def _norm(self, power: np.ndarray) -> float:
        """``||power|_S||_2``; inf for a power that is not finite."""
        power = power[np.ix_(self.keep, self.keep)]
        if not np.isfinite(power).all():
            return np.inf
        return float(np.linalg.svd(power, compute_uv=False)[0])

    @cached_property
    def bound(self) -> float:
        """``K >= sup_j ||step**j|_S||_2``, or inf if no power shows one.

        ``K`` is the product of ``max(1, norms[i])`` below the first power
        ``2**I`` of norm at most 1: every ``j`` is ``m * 2**I`` plus a sum
        of lower powers of two.  Past the table the squarings go on, under
        ``np.errstate`` because a diverging map overflows, until one has
        norm at most 1 or is not finite.
        """
        norms, power = list(self.norms), self.powers[len(self.norms) - 1][0]
        with np.errstate(over="ignore", invalid="ignore"):
            while 1.0 < norms[-1] < np.inf and len(norms) < _CONTRACTION_MAX_SQUARINGS:
                power = power @ power
                norms.append(self._norm(power))
        if not norms[-1] <= 1.0:
            return np.inf
        return float(np.maximum(1.0, norms[:-1]).prod())

    @cached_property
    def ball(self) -> tuple[np.ndarray, float]:
        """The branch's fixed point ``y_b`` and a radius that traps a run on the branch.

        ``y_b`` solves ``(I - step) y = shift`` on ``S``.  At ``y_b`` every
        stage state is ``y_b``, so stage ``s``'s guard has the margin ``m_s
        = G_s @ y_b + g_s``; from ``y`` in ``S`` with ``e = y - y_b`` it reads
        ``m_s + G_s @ step**j @ e`` after ``j`` steps, which is at least
        ``m_s / 2`` while ``||G_s|_S||_2 * K * ||e||_2 <= m_s / 2``.  With
        ``||y_b||_inf + K * ||e||_2 <= limit`` every later state stays within
        the divergence limit too.  The radius is the largest ``||e||_2`` for
        which both hold, 0 when a margin is not positive (a cap at the CE
        price puts ``y_b`` on the boundary) or ``K`` is infinite.
        """
        keep, (step, shift) = self.keep, self.powers[0]
        center = np.zeros(self.dim)
        try:
            center[keep] = np.linalg.solve(np.eye(keep.sum()) - step[np.ix_(keep, keep)],
                                           shift[keep])
        except np.linalg.LinAlgError:
            return center, 0.0
        margins = self.guards[:, :-1] @ center + self.guards[:, -1]
        if not (margins > 0.0).all():
            return center, 0.0
        guard_norms = np.linalg.norm(self.guards[:, :-1][:, keep], axis=1)
        room = min(float(np.min(margins / guard_norms, initial=np.inf)) / 2.0,
                   self.limit - float(np.abs(center).max()))
        radius = room / self.bound
        return center, radius if radius > 0.0 else 0.0

    def map(self, steps: int) -> tuple:
        """The affine map ``(step**steps, S_steps)``, composed from the powers."""
        unit = (np.eye(self.dim), np.zeros(self.dim))
        for i, power in enumerate(self.powers):
            if steps >> i & 1:
                unit = _compose(power, unit)
        return unit

    def apply(self, y: np.ndarray, steps: int) -> np.ndarray:
        for i, (power, total) in enumerate(self.powers):
            if steps >> i & 1:
                y = power @ y + total
        return y

    def tail(self, y: np.ndarray, first: int, last: int, records: np.ndarray) -> None:
        """Fill ``records`` from ``y``, which lies ``first`` steps before row 0.

        The rows follow one ``stride`` apart, except the final row, ``last``
        steps after the one before it.  The squarings go on past the block
        table as far as a stride needs.  The rows one stride apart come
        ``batch`` at a time, each batch one product with the stacked maps
        of 1 to ``batch`` strides.
        A product costs the interpreter about ``_PRODUCT_COST``
        multiply-adds and each map in the stack ``dim**3`` to build, so
        ``batch = sqrt(rows * _PRODUCT_COST / dim**3)`` balances the two,
        within the record cap.
        """
        while self.stride >> len(self.powers):  # first and last are at most a stride
            self.powers.append(_compose(self.powers[-1], self.powers[-1]))
        records[0] = self.apply(y, first)
        full = records.shape[0] - (1 if last == self.stride else 2)
        if full > 0:
            dim = self.dim
            batch = min(full, max(1, _RECORD_BLOCK_MAX_BYTES // (8 * dim * (dim + 1))),
                        max(1, math.isqrt(full * _PRODUCT_COST // dim**3)))
            unit = self.map(self.stride)
            rows, sums = _doubled(*unit, _squarings(unit, batch), batch)
            for i in range(0, full, batch):
                count = min(batch, full - i)
                records[i + 1 : i + 1 + count] = (
                    rows[: count * dim] @ records[i] + sums[: count * dim]
                ).reshape(count, dim)
        if full < records.shape[0] - 1:
            records[-1] = self.apply(records[-2], last)


class _Blocks:
    """Steps of one method on a projected affine drift, many at a time.

    On each ``mu`` branch the drift is affine, and so is one step of either
    method: ``y -> R y + r``.  With ``mu`` free (``y[mu] > 0``) the drift is
    ``A y + b``; with ``mu`` pinned (``y[mu] <= 0 <= y[nu]``) its ``mu``
    row is 0, so ``mu`` stays put.  A drift without a projected component
    has the free branch only.  :meth:`advance` applies the steps of one
    branch for as long as every stage state at which they evaluate the
    drift stays on that branch and every state they reach provably stays
    within the divergence limit; the step after that is the caller's to
    take with the ordinary single-step code, which also applies the clamp.
    :meth:`finish` ends the run at once from a state that the branch's
    :attr:`_Branch.ball` traps.  Each branch builds its tables the first
    time a block starts on it.
    """

    def __init__(self, affine: ProjectedAffine, method_step, h: float, length: int,
                 stride: int, limit: float):
        self.affine = affine
        self.branch = lambda matrix, offset, guard, pin: _Branch(
            method_step, matrix, offset, h, guard, pin, length, stride, limit
        )

    @cached_property
    def free(self) -> _Branch:
        return self.branch(self.affine.matrix, self.affine.offset, self.affine.mu, None)

    @cached_property
    def pinned(self) -> _Branch:
        matrix, offset = self.affine.matrix.copy(), self.affine.offset.copy()
        matrix[self.affine.mu], offset[self.affine.mu] = 0.0, 0.0
        return self.branch(matrix, offset, self.affine.nu, self.affine.mu)

    def _branch_of(self, y: np.ndarray) -> _Branch | None:
        """The branch on which ``y`` evaluates the drift, None past the pinned one."""
        mu, nu = self.affine.mu, self.affine.nu
        if mu is None or y[mu] > 0.0:
            return self.free
        return self.pinned if y[nu] >= 0.0 else None

    def advance(self, y: np.ndarray, steps: int, records: np.ndarray) -> tuple[np.ndarray, int]:
        """Take up to ``steps <= length`` steps from ``y``; return the new state and the count.

        The block starts on the record grid unless ``records`` is empty:
        row ``m`` of ``records`` receives the state after ``(m + 1) *
        stride`` steps, valid for the rows within the steps taken.
        """
        branch = self._branch_of(y)
        if branch is None:
            return y, 0
        checked = steps * branch.stages
        guard = branch.guard_rows[:checked] @ y + branch.guard_sums[:checked]
        if records.size:
            flat = records.reshape(-1)  # a view: the rows are consecutive rows of the record
            np.matmul(branch.record_rows[: flat.size], y, out=flat)
            flat += branch.record_sums[: flat.size]
        taken = steps
        if checked:
            # The free branch's guard (mu) is strict, the pinned one's (nu) is not.
            ok = guard > 0.0 if branch.pin is None else guard >= 0.0
            first = int(ok.argmin())
            if not ok[first]:
                taken = first // branch.stages
        size, shift = math.sqrt(y @ y), branch.shift_norm
        if branch.pin is not None and y[branch.pin] != 0.0:
            # Off S (an unclamped run), the held mu acts as one more constant shift.
            off = abs(float(y[branch.pin]))
            size, shift = size + off, shift + branch.pin_norm * off
        if taken and not branch.growth[taken] * (size + taken * shift) <= branch.limit:
            j = np.arange(1, taken + 1)
            bounded = branch.growth[1 : taken + 1] * (size + j * shift) <= branch.limit
            taken = int(np.argmin(bounded))  # the leading steps that stay within the limit
        return branch.apply(y, taken), taken

    def finish(self, y: np.ndarray, k: int, n_steps: int, records: np.ndarray) -> bool:
        """Record the rest of the run from ``y``, the state after ``k`` steps, if it is trapped.

        ``y`` is trapped when it lies in its branch's ``S`` and within the
        radius of the branch's :attr:`_Branch.ball`: then no later stage
        state leaves the branch or the divergence limit, and every later
        state is the branch's affine map of ``y``.  Row ``m`` of
        ``records`` receives the state after step ``min((k // stride + 1 +
        m) * stride, n_steps)``.  Returns whether it did.
        """
        branch = self._branch_of(y)
        if branch is None or (branch.pin is not None and y[branch.pin] != 0.0):
            return False
        center, radius = branch.ball
        e = y - center
        if not e @ e < radius * radius:
            return False
        stride, rows = branch.stride, records.shape[0]
        first = min((k // stride + 1) * stride, n_steps) - k
        branch.tail(y, first, n_steps - k - first - (rows - 2) * stride, records)
        return True


def integrate(
    rhs: Callable[[np.ndarray], np.ndarray],
    y0,
    h: float,
    t_end: float,
    method: str = "euler",
    reference=None,
    mu_index: int | None = None,
    record_stride: int = 1,
    divergence_limit: float = DIVERGENCE_LIMIT,
) -> Trajectory:
    """Fixed-step march of ``dy/dt = rhs(y)`` from ``y0`` to ``t_end``.

    Args:
        rhs: drift callable on flat state vectors.
        y0: initial state; if ``mu_index`` is given, ``y0[mu_index]`` must
            be nonnegative.
        h: step size, > 0.
        t_end: horizon, >= h; the number of steps is ``round(t_end / h)``.
        method: ``"euler"`` (explicit, first order) or ``"rk4"`` (classical
            fourth order).  For rk4 the drift is evaluated at the raw stage
            states, so a projection-aware rhs sees each stage's own
            (nu, mu) values.
        reference: optional equilibrium; the recorded states' Lyapunov
            values and infinity-norm residuals are computed after the march.
        mu_index: index of the projected nonnegative component; after every
            full step that component is clamped to [0, inf).
        record_stride: record every k-th step (the initial and final states
            are always recorded).
        divergence_limit: abort once the state's infinity norm exceeds this
            bound or turns non-finite.

    A drift from :func:`closed_loop_rhs` or :func:`affine_rhs` advances
    many steps at once, with either method and at any ``record_stride``.
    Between ``mu`` switches the drift is affine, so one step is an affine
    map composed from the method's stage maps, and precomputed powers of
    it apply a block of steps.  A block is the longest power of two of at
    most 4096 steps whose tables repay their cost (see
    ``_blocks_pay_off``); when none of at least 16 steps does, the run
    takes the step loop.  A block may span records: one matrix product
    gives the branch condition at every stage of every step inside it
    and every state recorded there.  The first step that leaves the
    branch or may cross ``divergence_limit`` is taken with the
    single-step code.  This is the same recurrence, rounded through the
    matrix powers: the states agree with the step-by-step ones to ~1e-12
    of their size.  On one core of a 2-vCPU Xeon VM the 200 000 Euler
    steps of ``verify``'s Euler check, recorded at every step, take
    ~0.1 s instead of ~1.9 s.

    A run that ends a whole block close enough to its branch's fixed
    point is trapped there: on the branch's invariant subspace the powers
    of the step map are bounded (the discrete form of the closed loop's
    ``-B.T @ B`` certificate), so no later stage state can leave the
    branch or cross ``divergence_limit`` (see ``_Branch.ball``).  Its
    remaining records then come straight from powers of the map of one
    stride, several records per matrix product, with no guard and no
    per-step check.  That is the recurrence the blocks apply, rounded the
    same way.  A cap at the CE price puts the fixed point on the boundary
    of both branches, and such a run is never trapped.  On the same VM
    ``table1.json``'s run takes ~5 ms instead of ~15 ms (trapped at t =
    146 of 1200), at ``t_end = 1.2e5`` and stride 10**4 ~0.03 s instead of
    ~1.6 s, and at ``t_end = 1e9`` and stride 10**7 ~0.03 s.

    Returns:
        The recorded :class:`Trajectory`.

    Raises:
        NonfiniteState: the state diverged; the partial trajectory recorded
            so far, columns and all, rides on the exception.
    """
    y = np.array(y0, dtype=float)
    if y.ndim != 1:
        raise DimensionMismatch(f"initial state must be a vector, got shape {y.shape}")
    if h <= 0.0:
        raise ValueError(f"step size must be positive, got {h}")
    if t_end < h:
        raise ValueError(f"horizon {t_end} must be at least one step {h}")
    if method not in _STEPPERS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if record_stride < 1:
        raise ValueError(f"record_stride must be >= 1, got {record_stride}")
    ref = None
    if reference is not None:
        ref = np.asarray(reference, dtype=float)
        if ref.shape != y.shape:
            raise DimensionMismatch(
                f"reference has shape {ref.shape}, state has shape {y.shape}"
            )
    if mu_index is not None and y[mu_index] < 0.0:
        raise NegativeMu(f"initial mu = {y[mu_index]} must be nonnegative")

    step, evals = _STEPPERS[method]
    n_steps = max(1, int(round(t_end / h)))
    # Records sit at every record_stride-th step, plus the final step.
    n_rec = -(-n_steps // record_stride) + 1
    times = np.empty(n_rec)
    states = np.empty((n_rec, y.size))

    blocks = None
    affine = getattr(rhs, "projected_affine", None)
    if affine is not None and mu_index in (None, affine.mu):
        guards = 0 if affine.mu is None else evals
        # The longest block that pays; the choice reads only sizes, since
        # _Blocks is the first reader of affine.matrix, which a large closed
        # loop builds when read: a run without blocks never allocates it.
        length = 1 << (min(n_steps, _BLOCK_MAX_STEPS).bit_length() - 1)
        while length >= _BLOCK_MIN_STEPS and not _blocks_pay_off(
            y.size, length, record_stride, n_steps, evals, guards
        ):
            length //= 2
        if length >= _BLOCK_MIN_STEPS:
            blocks = _Blocks(affine, step, h, length, record_stride, divergence_limit)

    grid = min(record_stride, n_steps)  # row i sits at step min(i * grid, n_steps)

    def filled(stop: int) -> int:
        """Time rows ``rec`` to ``stop``, which a block or the tail filled, and clamp their mu."""
        times[rec:stop] = np.minimum(np.arange(rec, stop) * grid, n_steps) * h
        if mu_index is not None:
            # The guard, the recorded rows and the matrix powers round
            # differently, so mu may land a few ulps below 0 where the guard
            # saw it above.
            mu = states[rec:stop, mu_index]
            np.maximum(mu, 0.0, out=mu)
        return stop

    times[0], states[0] = 0.0, y
    k, rec = 0, 1  # steps taken, rows recorded
    while k < n_steps:
        steps, taken = 1, 0  # one single step, unless a block takes them
        if blocks is not None:
            # A block ends on a record when one is within reach.  Started off
            # the record grid it ends at the next record, so the records
            # inside a block sit at multiples of the stride from its start.
            reach = min(k + length, n_steps)
            if k % record_stride:
                reach = min(reach, k + record_stride - k % record_stride)
            elif reach < n_steps and reach - k >= record_stride:
                reach -= reach % record_stride
            steps = reach - k
            inside = (steps - 1) // record_stride
            y, taken = blocks.advance(y, steps, states[rec : rec + inside])
            done = min(taken, steps - 1) // record_stride
            if done:
                rec = filled(rec + done)
            k += taken
            if mu_index is not None and y[mu_index] < 0.0:
                y[mu_index] = 0.0
        if taken < steps:
            k += 1
            y = step(rhs, y, h)
            if mu_index is not None and y[mu_index] < 0.0:
                y[mu_index] = 0.0
            if not (np.abs(y).max() <= divergence_limit):  # also catches NaN
                raise NonfiniteState(
                    f"state diverged at t = {k * h:.6g} "
                    f"(non-finite or |state| > {divergence_limit:g})",
                    trajectory=_recorded(times[:rec].copy(), states[:rec].copy(),
                                         mu_index, ref),
                )
        if k % record_stride == 0 or k == n_steps:
            times[rec], states[rec] = k * h, y
            rec += 1
        if taken == steps and k < n_steps and blocks.finish(y, k, n_steps, states[rec:]):
            rec, k = filled(n_rec), n_steps

    return _recorded(times, states, mu_index, ref)


# Rows of ``states - reference`` that _recorded forms at once: a temporary of
# about 1 MiB, whatever the state's dimension.
_DEVIATION_CHUNK_BYTES = 1 << 20


def _half_squared_norm(d: np.ndarray) -> np.ndarray:
    """``0.5 * ||d||**2`` along the last axis; each row rounds as ``0.5 * float(row @ row)``."""
    return 0.5 * np.vecdot(d, d)


def _row_max(a: np.ndarray) -> np.ndarray:
    """``a.max(axis=1)``; a tall ``a`` is reduced a column at a time, which is faster than
    reducing each short row, and equal, since a max does not depend on order."""
    rows, cols = a.shape
    if rows <= cols:
        return a.max(axis=1)
    out = a[:, 0].copy()
    for j in range(1, cols):
        np.maximum(out, a[:, j], out=out)
    return out


def _recorded(times: np.ndarray, states: np.ndarray, mu_index: int | None,
              ref: np.ndarray | None) -> Trajectory:
    """The recorded rows with ``V = 0.5 * ||y - ref||**2`` and ``max |y - ref|`` per row.

    Both columns are NaN without a reference.
    """
    rows, dim = states.shape
    lyapunov = np.full(rows, np.nan)
    residuals = np.full(rows, np.nan)
    if ref is not None:
        chunk = max(1, _DEVIATION_CHUNK_BYTES // (8 * max(1, dim)))
        for start in range(0, rows, chunk):
            d = states[start : start + chunk] - ref
            lyapunov[start : start + chunk] = _half_squared_norm(d)
            residuals[start : start + chunk] = _row_max(np.abs(d, out=d))
    return Trajectory(
        times=times,
        states=states,
        lyapunov=lyapunov,
        equilibrium_residuals=residuals,
        mu_index=mu_index,
        reference=ref,
    )


# ---------------------------------------------------------------------------
# Certificates


def lyapunov_value(state, reference) -> float:
    """Quadratic Lyapunov value ``0.5 * ||state - reference||**2``."""
    state = np.asarray(state, dtype=float)
    ref = np.asarray(reference, dtype=float)
    if state.shape != ref.shape:
        raise DimensionMismatch(
            f"state has shape {state.shape}, reference has shape {ref.shape}"
        )
    return float(_half_squared_norm((state - ref).ravel()))


def _lyapunov_rise(trajectory: Trajectory) -> tuple[float, bool]:
    """The worst rise of the recorded Lyapunov value between records (0 if
    none), and whether every rise stays within ``1e-8 * max(1, V[0])``.
    """
    if len(trajectory) < 2:
        return 0.0, True
    values = trajectory.lyapunov
    rise = float(np.diff(values).max())
    return max(rise, 0.0), rise <= 1e-8 * max(1.0, float(values[0]))


def stability_certificate(
    market: MarketInstance,
    trajectory: Trajectory | None = None,
) -> StabilityCertificate:
    """Check the algebraic stability structure of the closed loop.

    The symmetric part of the drift matrix must equal ``-B.T @ B`` for
    ``B = [diag(sqrt(q)), 0, 0, 0, diag(1/sqrt(q)), 0, 0, 0]``, which
    certifies negative semidefiniteness.  If a trajectory with recorded
    Lyapunov values is supplied, its per-step increases are checked against
    the slack ``1e-8 * max(1, V[0])``.
    """
    lay = state_layout(market.n)
    drift = closed_loop_matrix(market)
    x_sym = 0.5 * (drift + drift.T)
    b_factor = np.zeros((market.n, lay.dim))
    b_factor[:, lay.x] = np.diag(np.sqrt(market.q))
    b_factor[:, lay.u] = np.diag(1.0 / np.sqrt(market.q))
    residual = float(np.abs(x_sym + b_factor.T @ b_factor).max())
    max_eig = float(np.linalg.eigvalsh(x_sym).max())

    worst, monotone = 0.0, True
    if trajectory is not None:
        if len(trajectory) > 1 and np.isnan(trajectory.lyapunov).any():
            raise ValueError("trajectory has no recorded Lyapunov values (no reference)")
        worst, monotone = _lyapunov_rise(trajectory)

    return StabilityCertificate(
        max_eigenvalue_x_sym=max_eig,
        factorization_residual=residual,
        lyapunov_monotone=monotone,
        worst_lyapunov_increase=worst,
    )


def convergence_report(trajectory: Trajectory, tolerance: float) -> ConvergenceReport:
    """Summarize a trajectory's approach to the reference it was recorded against.

    From the recorded columns: the first time at which the infinity-norm
    error drops to ``tolerance`` (None if never), the final error, the worst
    increase of the Lyapunov value between records, and how far the
    projected component ever dipped below zero.  Raises ``ValueError`` if
    the trajectory is empty or was recorded without a reference.
    """
    if len(trajectory) == 0:
        raise ValueError("trajectory is empty")
    errors = trajectory.equilibrium_residuals
    if np.isnan(errors).any():
        raise ValueError("trajectory has no recorded errors (no reference)")
    within = np.nonzero(errors <= tolerance)[0]
    first = float(trajectory.times[within[0]]) if within.size else None
    worst = _lyapunov_rise(trajectory)[0]
    mu_neg = 0.0
    if trajectory.mu_index is not None:
        mu_neg = max(0.0, -float(trajectory.states[:, trajectory.mu_index].min()))
    return ConvergenceReport(
        converged=bool(errors[-1] <= tolerance),
        first_time_within_tolerance=first,
        final_error=float(errors[-1]),
        worst_lyapunov_increase=worst,
        mu_negativity=mu_neg,
        tolerance=float(tolerance),
    )
