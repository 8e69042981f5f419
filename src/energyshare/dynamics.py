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

from dataclasses import dataclass
from functools import cached_property
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


def state_layout(n: int) -> StateLayout:
    """Where each block of the ``n``-agent closed-loop state sits."""
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
# block one matrix-vector product.  The tables of all branches may take at
# most _BLOCK_MAX_BYTES; that bounds the memory the block path adds to a
# run (about 430 state components for Euler at full block length) and says
# nothing of its speed, which _blocks_pay_off weighs.
_BLOCK_MAX_STEPS = 1 << 12
_BLOCK_MAX_BYTES = 1 << 26


def _blocks_pay_off(dim: int, length: int, n_steps: int, evals: int, guards: int) -> bool:
    """Whether the block tables cost well under the step loop they replace.

    ``evals`` is the number of drift evaluations per step and ``guards``
    the number of guard rows checked per step on one branch: one per stage
    for a drift with a projected component, which has two branches, and
    none for a plain affine drift, which has one.  Counted in multiply-adds,
    the step loop spends ``evals * dim**2`` per step.  The tables of one
    branch compose the step from its stage maps (``evals * dim**3``), take
    ``bits = length.bit_length()`` squarings of the step matrix
    (``dim**3`` each) and build at most ``2 * guards * length`` guard rows
    (``dim**2`` each); for all branches together to cost at most half the
    loop, ``2 * branches * ((evals + bits) * dim + 2 * guards * length)
    <= evals * n_steps``.  The interpreter's per-step cost, which the block
    path also saves, is left out, so the choice errs towards the step loop.
    """
    bits = length.bit_length()
    branches = 2 if guards else 1
    table_bytes = branches * 8 * (bits * (dim + 1) * dim + guards * (length + 1) * (dim + 1))
    cost = 2 * branches * ((evals + bits) * dim + 2 * guards * length)
    return cost <= evals * n_steps and table_bytes <= _BLOCK_MAX_BYTES


class _Branch:
    """Block tables of one method on one affine drift ``y -> matrix @ y + offset``.

    One step of the method is run on affine maps ``y -> M @ y + c``, stored
    as ``[M | c]``, so the step map ``y -> step @ y + shift`` and the
    ``guard`` component of every stage state are composed by the same code
    as a single step.  Holds ``(step**(2**i), S_(2**i))`` with ``S_j`` the
    sum of ``step**i @ shift`` over ``i < j``, so that ``j`` steps apply as
    ``step**j @ y + S_j``.  From a start ``y``, stage ``s`` of step
    ``j + 1`` has its guard component at ``rows[j * stages + s] @ y +
    sums[j * stages + s]`` for every ``j < length``.  ``growth[j] =
    max(1, ||step||_2)**j``, with which ``||y_j||_inf <= growth[j] *
    (||y||_2 + j * ||shift||_2)``.
    """

    def __init__(self, method_step, matrix: np.ndarray, offset: np.ndarray, h: float,
                 guard: int | None, length: int):
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
        self.stages = len(guards)
        guards = np.array(guards).reshape(-1, dim + 1)
        rows, sums = guards[:, :-1], guards[:, -1]
        power, total, covered = step, shift, 1
        self.powers = []
        while True:
            self.powers.append((power, total))
            # The rows of step j + n are those of step j times step**n;
            # S_(j+n) = step**j S_n + S_j.
            sums = np.concatenate([sums, rows @ total + sums])
            rows = np.concatenate([rows, rows @ power])
            covered *= 2
            if covered > length:
                break
            power, total = power @ power, power @ total + total
        kept = length * self.stages
        self.rows, self.sums = rows[:kept], sums[:kept]
        with np.errstate(over="ignore"):
            self.growth = max(1.0, float(np.linalg.norm(step, 2))) ** np.arange(length + 1)
        self.shift_norm = float(np.linalg.norm(shift))

    def apply(self, y: np.ndarray, steps: int) -> np.ndarray:
        for i, (power, total) in enumerate(self.powers):
            if steps >> i & 1:
                y = power @ y + total
        return y


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
    """

    def __init__(self, affine: ProjectedAffine, method_step, h: float, length: int,
                 limit: float):
        mu, nu = affine.mu, affine.nu
        self.free = _Branch(method_step, affine.matrix, affine.offset, h, mu, length)
        self.pinned = None
        if mu is not None:
            matrix, offset = affine.matrix.copy(), affine.offset.copy()
            matrix[mu], offset[mu] = 0.0, 0.0
            self.pinned = _Branch(method_step, matrix, offset, h, nu, length)
        self.mu, self.nu, self.limit = mu, nu, limit

    def advance(self, y: np.ndarray, steps: int) -> tuple[np.ndarray, int]:
        """Take up to ``steps <= length`` steps from ``y``; return the new state and the count."""
        if self.mu is None or y[self.mu] > 0.0:
            branch, strict = self.free, True
        elif y[self.nu] >= 0.0:
            branch, strict = self.pinned, False
        else:
            return y, 0
        n = steps * branch.stages
        guard = branch.rows[:n] @ y + branch.sums[:n]
        ok = (guard > 0.0 if strict else guard >= 0.0).reshape(steps, branch.stages).all(axis=1)
        size = float(np.linalg.norm(y))
        if not branch.growth[steps] * (size + steps * branch.shift_norm) <= self.limit:
            j = np.arange(1, steps + 1)
            ok &= branch.growth[1 : steps + 1] * (size + j * branch.shift_norm) <= self.limit
        taken = int(np.argmin(np.append(ok, False)))  # leading steps that pass
        return branch.apply(y, taken), taken


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

    A drift from :func:`closed_loop_rhs` or :func:`affine_rhs` that records
    every k > 1 steps advances many steps at once, with either method,
    when the run is long enough to repay the precomputation (see
    ``_blocks_pay_off``).  Between ``mu`` switches the drift is affine, so
    one step is an affine map composed from the method's stage maps, and
    precomputed powers of it apply a block of steps.  The branch condition
    is checked at every stage of every step inside the block, and the
    first step that leaves the branch or may cross ``divergence_limit`` is
    taken with the single-step code.  This is the same recurrence, rounded
    through the matrix powers: the states agree with the step-by-step ones
    to ~1e-12 of their size.

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
    length = min(record_stride, n_steps, _BLOCK_MAX_STEPS)
    if affine is not None and length > 1 and mu_index in (None, affine.mu):
        guards = 0 if affine.mu is None else evals
        # _Blocks is the first reader of affine.matrix, which a large closed
        # loop builds when read: a run without blocks never allocates it.
        if _blocks_pay_off(y.size, length, n_steps, evals, guards):
            blocks = _Blocks(affine, step, h, length, divergence_limit)

    times[0], states[0] = 0.0, y
    k = 0
    for rec_i in range(1, n_rec):
        next_rec = min(rec_i * record_stride, n_steps)
        while k < next_rec:
            if blocks is not None:
                steps = min(next_rec - k, length)
                y, taken = blocks.advance(y, steps)
                k += taken
                # The guard and the matrix powers round differently, so mu
                # may land a few ulps below 0 where the guard saw it above.
                if mu_index is not None and y[mu_index] < 0.0:
                    y[mu_index] = 0.0
                if taken == steps:
                    continue
            k += 1
            y = step(rhs, y, h)
            if mu_index is not None and y[mu_index] < 0.0:
                y[mu_index] = 0.0
            if not (np.abs(y).max() <= divergence_limit):  # also catches NaN
                raise NonfiniteState(
                    f"state diverged at t = {k * h:.6g} "
                    f"(non-finite or |state| > {divergence_limit:g})",
                    trajectory=_recorded(times[:rec_i].copy(), states[:rec_i].copy(),
                                         mu_index, ref),
                )
        times[rec_i], states[rec_i] = k * h, y

    return _recorded(times, states, mu_index, ref)


# Rows of ``states - reference`` that _recorded forms at once: a temporary of
# about 1 MiB, whatever the state's dimension.
_DEVIATION_CHUNK_BYTES = 1 << 20


def _half_squared_norm(d: np.ndarray) -> np.ndarray:
    """``0.5 * ||d||**2`` along the last axis; each row rounds as ``0.5 * float(row @ row)``."""
    return 0.5 * np.vecdot(d, d)


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
            residuals[start : start + chunk] = np.abs(d, out=d).max(axis=1)
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

    worst = 0.0
    monotone = True
    if trajectory is not None and len(trajectory) > 1:
        values = trajectory.lyapunov
        if np.isnan(values).any():
            raise ValueError("trajectory has no recorded Lyapunov values (no reference)")
        increases = np.diff(values)
        worst = float(max(increases.max(), 0.0))
        monotone = bool(increases.max() <= 1e-8 * max(1.0, float(values[0])))

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
    worst = float(max(np.diff(trajectory.lyapunov).max(), 0.0)) if len(trajectory) > 1 else 0.0
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
