"""Continuous-time market dynamics, controller, equilibria and certificates.

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
right-hand sides are pure functions.  The fixed-step :func:`integrate` lives
in ``_stepping``; it advances in blocks a drift that is a
:class:`ProjectedAffine`, as :func:`closed_loop_rhs` and :func:`affine_rhs`
return.

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
from functools import lru_cache

import numpy as np

# The fixed-step engine, whose public names are this module's too.
from ._stepping import DIVERGENCE_LIMIT, METHODS, Trajectory, integrate  # noqa: F401
from ._stepping import ProjectedAffine, _half_squared_norm
from .equilibrium import SceSolution, solve_ce, solve_sce
from .errors import DimensionMismatch, NegativeMu
from .market import MarketInstance, conditional_projection


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


@dataclass(frozen=True)
class StabilityCertificate:
    """Numerical evidence for the closed loop's Lyapunov argument.

    The drift matrix's symmetric part must factor as ``-B.T @ B`` (hence be
    negative semidefinite).
    """

    max_eigenvalue_x_sym: float
    factorization_residual: float


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


def affine_rhs(matrix: np.ndarray, offset: np.ndarray) -> ProjectedAffine:
    """The drift ``y -> matrix @ y + offset``, which :func:`integrate` advances in blocks."""
    return ProjectedAffine(lambda: matrix, offset)


# Up to this state dimension closed_loop_rhs evaluates the drift as one dense
# matrix-vector product; above it, from the drift's block structure.  On a
# 2-vCPU Xeon VM with one BLAS thread the structured form costs 12-20 us up
# to N = 200, mostly numpy's per-call overhead, and 33 us at N = 1000; the
# dense product costs 2 us at N = 4, as much near dim 280-330, and 20 ms at
# N = 1000.
_DENSE_DRIFT_MAX_DIM = 300


def closed_loop_rhs(market: MarketInstance, cap: float) -> ProjectedAffine:
    """Fast closed-loop drift, tolerant of slightly negative ``mu``.

    The drift of :func:`rhs_closed_loop`, which also accepts states with
    ``mu < 0`` (raw Runge-Kutta stage values): wherever ``mu <= 0`` the
    projection branch applies and the ``mu`` entry is ``max(-nu, 0)``.
    Small markets take one dense matrix-vector product per evaluation,
    which agrees with :func:`rhs_closed_loop` to rounding.  Large ones
    (state dimension above ``_DENSE_DRIFT_MAX_DIM``) call the drift kernel
    behind :func:`rhs_closed_loop` itself, a few vector operations and the
    sums of ``eps`` and ``pi``, so the two agree bit for bit, and build
    the dense matrix only when something reads it.  The drift is a
    :class:`ProjectedAffine`, which :func:`integrate` advances in blocks.
    """
    lay = state_layout(market.n)
    constants = _closed_loop_constants(market, cap)
    offset = _closed_loop_drift(np.zeros(lay.dim), *constants)
    if lay.dim > _DENSE_DRIFT_MAX_DIM:
        return ProjectedAffine(lambda: closed_loop_matrix(market), offset, lay.nu, lay.mu,
                               lambda state: _closed_loop_drift(state, *constants))
    matrix = closed_loop_matrix(market)
    return ProjectedAffine(lambda: matrix, offset, lay.nu, lay.mu)


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
    return _equilibrium_state(market, cap, solve_sce(market, cap))


def _equilibrium_state(market: MarketInstance, cap: float, sce: SceSolution) -> np.ndarray:
    """:func:`assemble_equilibrium` from ``sce``, the capped equilibrium of ``market`` at ``cap``."""
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


def stability_certificate(market: MarketInstance) -> StabilityCertificate:
    """Check the algebraic stability structure of the closed loop.

    The symmetric part of the drift matrix must equal ``-B.T @ B`` for
    ``B = [diag(sqrt(q)), 0, 0, 0, diag(1/sqrt(q)), 0, 0, 0]``, which
    certifies negative semidefiniteness, so that ``V = 0.5 * ||y - y*||**2``
    cannot rise along the closed loop.  Whether a simulated run's ``V``
    falls is judged from its recorded column (:func:`convergence_report`).
    """
    lay = state_layout(market.n)
    drift = closed_loop_matrix(market)
    x_sym = 0.5 * (drift + drift.T)
    b_factor = np.zeros((market.n, lay.dim))
    b_factor[:, lay.x] = np.diag(np.sqrt(market.q))
    b_factor[:, lay.u] = np.diag(1.0 / np.sqrt(market.q))
    residual = float(np.abs(x_sym + b_factor.T @ b_factor).max())
    max_eig = float(np.linalg.eigvalsh(x_sym).max())
    return StabilityCertificate(max_eigenvalue_x_sym=max_eig, factorization_residual=residual)


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
    rises = np.diff(trajectory.lyapunov)
    mu_neg = 0.0
    if trajectory.mu_index is not None:
        mu_neg = max(0.0, -float(trajectory.states[:, trajectory.mu_index].min()))
    return ConvergenceReport(
        converged=bool(errors[-1] <= tolerance),
        first_time_within_tolerance=first,
        final_error=float(errors[-1]),
        worst_lyapunov_increase=max(float(rises.max()), 0.0) if rises.size else 0.0,
        mu_negativity=mu_neg,
        tolerance=float(tolerance),
    )
