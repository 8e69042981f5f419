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
The dense ``(5N+3)**2`` matrix is built when read: by small markets' drift,
by the block path of :func:`integrate` and by the certificates.

The fixed point (:func:`assemble_equilibrium`), the drift
:func:`rhs_closed_loop`, the drift matrix and :func:`stability_certificate`
also take a batch of markets (``market.MarketInstance``), with one cap per
market, and compute each market as they compute it alone, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# The fixed-step engine, whose public names are this module's too.
from ._stepping import DIVERGENCE_LIMIT, METHODS, Trajectory, integrate  # noqa: F401
from ._stepping import ProjectedAffine, _half_squared_norm, _march  # noqa: F401
from .equilibrium import solve_ce, solve_sce
from .errors import DimensionMismatch, NegativeMu
from .market import MarketInstance, _scalar, conditional_projection


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
    on the unit vectors are the matrix's columns.  ``q`` and the constants
    may hold a batch of markets, ``(K, N)``, that the states broadcast
    against.  The ``mu`` entry is ``-nu``; the projection is the caller's.
    """
    lay = state_layout(q.shape[-1])
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
    return market.q, market.c0, market.a, (market.c0 + np.asarray(cap)[..., None]) / market.q


def _reduced_drift(y: np.ndarray, q, c0=0.0, sum_a=0.0) -> np.ndarray:
    """The reduced drift on a batch of states ``y[..., :]``, each ``(x, lam)``.

    ``c0`` and ``sum_a`` are its constants, zero for the linear part.
    """
    n = q.shape[-1]
    x = y[..., :n]
    d = np.empty(y.shape)
    d[..., :n] = -q * x - c0 - y[..., n, None]
    d[..., n] = x.sum(axis=-1) - sum_a
    return d


def _as_state(state, shape: tuple, what: str) -> np.ndarray:
    state = np.asarray(state, dtype=float)
    if state.shape != shape:
        raise DimensionMismatch(f"{what} has shape {state.shape}, expected {shape}")
    return state


def rhs_open_loop(market: MarketInstance, state) -> np.ndarray:
    """Drift of the uncontrolled price-seeking dynamics, state (x, rho, eps, lam)."""
    return rhs_controlled(market, state, np.zeros(market.n))


def rhs_controlled(market: MarketInstance, state, u_input) -> np.ndarray:
    """Open-loop drift with the utility adjustment ``u_input`` acting on x."""
    lay = state_layout(market.n)
    state = _as_state(state, (lay.lam + 1,), "open-loop state")
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

    Requires ``mu >= 0``, as :func:`rhs_controller` does.  On a batch, the
    state has one row per market and ``cap`` one entry per market.  The
    ``mu`` entry is projected by :func:`market.conditional_projection`.
    """
    lay = state_layout(market.n)
    state = _as_state(state, (*market.q.shape[:-1], lay.dim), "closed-loop state")
    mu = state[..., lay.mu]
    if (mu < 0.0).any():
        raise NegativeMu(f"mu = {float(mu[mu < 0.0][0])} must be nonnegative")
    d = _closed_loop_drift(state, *_closed_loop_constants(market, cap))
    d[..., lay.mu] = conditional_projection(d[..., lay.mu], mu)
    return d


def rhs_reduced(market: MarketInstance, state) -> np.ndarray:
    """Operator-knows-generation variant, state (x, lam) of dimension N+1."""
    state = _as_state(state, (market.n + 1,), "reduced state")
    return _reduced_drift(state, market.q, market.c0, market.sum_a)


# ---------------------------------------------------------------------------
# Affine forms, derived from the drifts above


def _linear_part(kernel, q: np.ndarray, dim: int, size: int) -> np.ndarray:
    """Matrix of the linear part of ``kernel`` on the first ``size`` of ``dim`` components.

    Row ``j`` of ``kernel(I, q)``, whose constants default to zero, is the
    drift of the ``j``-th unit vector: the matrix's column ``j``.  The
    transpose is copied to C order.  A batch ``q`` of shape ``(K, N)``
    gives ``K`` matrices, the unit vectors broadcast to each market.
    """
    units = np.zeros((size, *q.shape[:-1], dim))
    units[range(size), ..., range(size)] = 1.0
    columns = kernel(units, q)[..., :size]
    del units  # freed before the copy, which then holds two such arrays at its peak
    return np.ascontiguousarray(columns.transpose(*range(1, columns.ndim), 0))


def closed_loop_matrix(market: MarketInstance) -> np.ndarray:
    """Drift matrix of the closed loop on the branch where mu evolves freely
    (one per market of a batch).

    The drift kernel with zero constants, evaluated on the identity.  The
    identity is freed before the kernel's output is copied to C order, so
    the build holds about two dense ``(5N+3)**2`` arrays at its peak.
    """
    dim = state_layout(market.n).dim
    return _linear_part(_closed_loop_drift, market.q, dim, dim)


def closed_loop_matrices(market: MarketInstance, cap: float) -> tuple[np.ndarray, np.ndarray]:
    """Drift matrix and constant offset (the drift at the zero state) of :func:`closed_loop_rhs`."""
    rhs = closed_loop_rhs(market, cap)
    return rhs.matrix, rhs.offset


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
# matrix-vector product; above it, from the drift's block structure.  In
# process on a 2-vCPU Xeon VM with one BLAS thread, the structured form costs
# 14 us up to N = 100, mostly numpy's per-call overhead, 16 us at N = 200
# and 23 us at N = 1000; the dense product costs 2-3 us up to N = 20, as
# much as the structured form at dim 303-333, and 13 ms at N = 1000.
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
    sums of ``eps`` and ``pi``, so the two agree bit for bit.  At every
    size the dense matrix is built the first time something reads it: a
    small market's first evaluation, or the block path.  The drift is a
    :class:`ProjectedAffine`, which :func:`integrate` advances in blocks.
    """
    lay = state_layout(market.n)
    constants = _closed_loop_constants(market, cap)
    offset = _closed_loop_drift(np.zeros(lay.dim), *constants)
    large = lay.dim > _DENSE_DRIFT_MAX_DIM
    evaluate = (lambda state: _closed_loop_drift(state, *constants)) if large else None
    return ProjectedAffine(lambda: closed_loop_matrix(market), offset, lay.mu, evaluate)


# ---------------------------------------------------------------------------
# Equilibria


def open_loop_equilibrium(market: MarketInstance) -> np.ndarray:
    """Unique fixed point of the uncontrolled dynamics, stacked (x, rho, eps, lam): the
    prefix of :func:`assemble_equilibrium` at the competitive price, where the controller idles."""
    fixed = assemble_equilibrium(market, solve_ce(market).lambda_bar)
    return fixed[..., : state_layout(market.n).lam + 1]


def reduced_equilibrium(market: MarketInstance) -> np.ndarray:
    """Unique fixed point of the reduced dynamics, stacked (x, lam)."""
    ce = solve_ce(market)
    return np.concatenate([ce.x_bar, np.asarray(ce.lambda_bar)[..., None]], axis=-1)


def assemble_equilibrium(market: MarketInstance, cap: float) -> np.ndarray:
    """Unique fixed point of the closed loop, assembled in closed form.

    Returns the stacked state of :func:`state_layout`, one row per market
    of a batch.  The market block sits at the capped equilibrium; the
    controller block is recovered from it: ``pi = (lam* - cap) / q**2``
    componentwise and ``mu = s2 * (cap - lam*)``, which is complementary to
    ``nu``.  Where the cap binds, both are 0, written without dividing,
    since ``q**2`` and ``s2`` may lie outside float64's range; where it
    does not, such a value makes them not finite, and numpy warns.
    """
    sce = solve_sce(market, cap)
    lam, x, lay = np.asarray(sce.lambda_star), sce.x_star, state_layout(market.n)
    y = np.zeros((*x.shape[:-1], lay.dim))
    y[..., lay.x], y[..., lay.rho], y[..., lay.eps] = x, lam[..., None], x - market.a
    y[..., lay.lam], y[..., lay.u], y[..., lay.nu] = lam, sce.u_star, sce.nu_star
    idle = lam != cap
    np.divide((lam - cap)[..., None], market.q**2, out=y[..., lay.pi], where=idle[..., None])
    np.multiply(market.s2, cap - lam, out=y[..., lay.mu], where=idle)
    return y


def _branch_spectrum(market: MarketInstance, free: bool, pinned: bool) -> np.ndarray:
    """Eigenvalues of the closed-loop drift on the branches asked for, the free one first:
    the whole matrix, and the pinned one's, without ``mu``'s row and column, the last."""
    drift = closed_loop_matrix(market)
    mu = state_layout(market.n).mu
    branches = ([drift] if free else []) + ([drift[:mu, :mu]] if pinned else [])
    return np.concatenate([np.linalg.eigvals(branch) for branch in branches])


def closed_loop_spectrum(market: MarketInstance, cap: float) -> np.ndarray:
    """Eigenvalues of the closed loop linearized at its fixed point.

    The branch is read from the capped equilibrium (:func:`solve_sce`):
    ``mu`` moves freely where the scalar dual ``nu*`` is 0, and sits on its
    boundary, its row and column dropping out, where the price is at the
    cap.  At the CE price the fixed point lies on both branches, and both
    spectra are returned, the free one first.
    """
    sce = solve_sce(market, cap)
    return _branch_spectrum(market, sce.nu_star == 0.0, sce.lambda_star == cap)


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

    Returns NaN where the spectrum gives no positive, finite bound.  The
    dense eigensolve is accurate only to about ``eps * ||A||``, so on a
    market whose ``q`` spans many decades (agents ``(1e-100, -1, 1)`` and
    ``(1, -10, 1)``, say) the minimum can come out negative, or
    ``|lam|**2`` can overflow.
    """
    with np.errstate(all="ignore"):
        eigs = _branch_spectrum(market, free=True, pinned=True)
        bound = float((-2.0 * eigs.real / np.abs(eigs) ** 2).min())
    return bound if 0.0 < bound < np.inf else np.nan


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
    A batch gets one certificate whose two fields hold a value per market.
    """
    lay, agents = state_layout(market.n), np.arange(market.n)
    drift = closed_loop_matrix(market)
    x_sym = 0.5 * (drift + np.swapaxes(drift, -1, -2))
    b_factor = np.zeros((*market.q.shape[:-1], market.n, lay.dim))
    b_factor[..., agents, lay.x.start + agents] = np.sqrt(market.q)
    b_factor[..., agents, lay.u.start + agents] = 1.0 / np.sqrt(market.q)
    gram = np.swapaxes(b_factor, -1, -2) @ b_factor
    residual = np.abs(x_sym + gram).max(axis=(-2, -1))
    max_eig = np.linalg.eigvalsh(x_sym).max(axis=-1)
    return StabilityCertificate(max_eigenvalue_x_sym=_scalar(max_eig),
                                factorization_residual=_scalar(residual))


def convergence_report(trajectory: Trajectory, tolerance: float) -> ConvergenceReport:
    """Summarize a trajectory's approach to the reference it was recorded against.

    From the recorded columns: the first time at which the infinity-norm
    error drops to ``tolerance`` (None if never), the final error, the worst
    increase of the Lyapunov value between records, and how far the
    projected component ever dipped below zero.  Raises ``ValueError`` if
    the trajectory is empty or was recorded without a reference.
    """
    return _folded_report([trajectory], tolerance)[0]


def _folded_report(windows, tolerance: float) -> tuple[ConvergenceReport, float, float]:
    """:func:`convergence_report` of a run whose records come as consecutive ``windows``.

    Each window is a :class:`Trajectory` of the rows after those of the one
    before, as ``_march`` yields them; the fold reads it once and keeps
    only its summaries, so a run of any horizon is summarized in the memory
    of one window.  A rise of ``V`` across two windows counts as one
    between rows.  The report equals that of the windows' rows as one
    trajectory, float for float.  Also returns ``V`` at the first row and
    the last row's time.
    """
    rows, first, v_first, v_last, final_error, final_time = 0, None, None, None, None, None
    worst_rise, mu_min = 0.0, np.inf
    for window in windows:
        if not len(window):
            continue
        errors, lyapunov = window.equilibrium_residuals, window.lyapunov
        if np.isnan(errors).any():
            raise ValueError("trajectory has no recorded errors (no reference)")
        if first is None:
            within = np.nonzero(errors <= tolerance)[0]
            if within.size:
                first = float(window.times[within[0]])
        if not rows:
            v_first = v_last = float(lyapunov[0])
        # Each row's rise from the row before, the window before's last included.
        worst_rise = np.maximum(worst_rise, np.diff(lyapunov, prepend=v_last).max())
        if window.mu_index is not None:
            mu_min = np.minimum(mu_min, window.states[:, window.mu_index].min())
        rows += len(window)
        v_last, final_error, final_time = lyapunov[-1], float(errors[-1]), float(window.times[-1])
    if not rows:
        raise ValueError("trajectory is empty")
    report = ConvergenceReport(
        converged=bool(final_error <= tolerance),
        first_time_within_tolerance=first,
        final_error=final_error,
        worst_lyapunov_increase=float(worst_rise),
        mu_negativity=max(0.0, -float(mu_min)),
        tolerance=float(tolerance),
    )
    return report, v_first, final_time
