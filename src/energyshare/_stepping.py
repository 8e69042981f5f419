"""Fixed-step integration, in blocks for a drift that is a :class:`ProjectedAffine`.

Such a drift has at most one projected component ``mu``.  On either side of
the projection, the free branch (``y[mu] > 0``) and the pinned one (``y[mu]
<= 0`` and the free drift's ``mu`` entry at most 0, where ``mu`` stays put),
it is affine, and so is one step of either method: ``y -> R y + r``.
:func:`integrate` applies many steps at once from precomputed powers of
that map (a block) while every stage stays on one branch, and once a run is
trapped near a branch's fixed point it jumps from record to record (the
tail).  One :class:`_Branch` holds a branch's tables and takes its blocks
and its tail; a run builds it the first time a block starts on that branch.
Any other drift, and any step a block cannot take, goes through the step
loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, NegativeMu, NonfiniteInput, NonfiniteState

# Integration aborts once any state component exceeds this magnitude.
DIVERGENCE_LIMIT = 1e12


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
    def final_state(self) -> np.ndarray:
        return self.states[-1]


@dataclass(frozen=True, eq=False)
class ProjectedAffine:
    """An affine drift with at most one conditionally projected component.

    Called on ``y`` it returns the free drift ``d = matrix @ y + offset``,
    or ``evaluate(y)`` when given, which must equal it; where ``y[mu] <=
    0``, ``d[mu]`` is kept if positive and zeroed otherwise, the rule of
    ``market.conditional_projection``, inlined for the step loop.  Without
    ``mu`` it is the free drift everywhere.  ``build_matrix`` makes the
    matrix the first time :attr:`matrix` is read, so a drift with
    ``evaluate`` allocates it only for the block path of :func:`integrate`.
    """

    build_matrix: Callable[[], np.ndarray]
    offset: np.ndarray
    mu: int | None = None
    evaluate: Callable[[np.ndarray], np.ndarray] | None = None

    @cached_property
    def matrix(self) -> np.ndarray:
        return self.build_matrix()

    def __call__(self, y: np.ndarray) -> np.ndarray:
        evaluate, mu = self.evaluate, self.mu
        d = self.matrix @ y + self.offset if evaluate is None else evaluate(y)
        if mu is not None and y[mu] <= 0.0 and not d[mu] > 0.0:
            d[mu] = 0.0
        return d


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
# block one matrix-vector product per bit of its length.  Applying a block
# costs the interpreter about as much as ten single steps (~50 us against ~5
# us for an Euler step at N = 5 on a 2-vCPU Xeon VM), so blocks shorter than
# _BLOCK_MIN_STEPS are not worth building, however cheap their tables.  The
# tables of all branches may take at most _BLOCK_MAX_BYTES, and at most
# _RECORD_BLOCK_MAX_BYTES when the blocks record states inside themselves.
# These bound the memory the block path adds to a run and say nothing of its
# speed, which _block_length weighs.  Blocks that record nothing inside reach
# full length up to about 430 state components for Euler.  Blocks that record
# every step are 512 Euler steps long at N = 1 (dim 8) and 64 at N = 5 (dim
# 28), and exist up to about 50 components; a run at stride 100 such as
# table1.json takes 512 rk4 steps at a time.
_BLOCK_MAX_STEPS = 1 << 12
_BLOCK_MIN_STEPS = 1 << 4
_BLOCK_MAX_BYTES = 1 << 26
_RECORD_BLOCK_MAX_BYTES = 1 << 20
# One matrix product, a drift evaluation of the step loop included, costs the
# interpreter about as much as this many multiply-adds (~1.6 us against ~0.2
# ns at dim 23 on a 2-vCPU Xeon VM).
_PRODUCT_COST = 1 << 13


def _block_length(dim: int, stride: int, n_steps: int, evals: int, guards: int) -> int:
    """The longest block whose tables cost well under the step loop they replace, or 0.

    Tried from the longest power of two of at most ``min(n_steps,
    _BLOCK_MAX_STEPS)`` steps down to ``_BLOCK_MIN_STEPS``.  ``evals`` is
    the number of drift evaluations per step and ``guards`` the number of
    guard rows checked per step on one branch: one per stage for a drift
    with a projected component, which has two branches, and none for a plain
    affine drift, which has one.  A block of ``length`` steps also yields
    the ``records = (length - 1) // stride`` states recorded inside it,
    ``dim`` rows each.  Costs are counted in multiply-adds, and a matrix
    product costs its own or ``_PRODUCT_COST``, the interpreter's share,
    whichever is more: at small ``dim`` the interpreter dominates.  The step
    loop makes ``evals`` drift products of ``dim**2`` per step.  The tables
    of one branch compose the step from its stage maps (``evals`` products
    of ``dim**3``) and take ``bits = length.bit_length()`` squarings of the
    step map, as many again for the map of ``stride`` steps when there are
    records, each two products (``dim**3`` and ``dim**2``).  As many
    doubling passes of two products each build their ``rows = guards *
    length + dim * records`` rows, at most ``2 * rows * dim**2`` in all, and
    are charged that on top of ``_PRODUCT_COST`` a product.  All branches
    together may cost at most half the loop.  Left out are the products
    that apply a block, a few per block and ``rows * dim`` in all, and the
    interpreter's cost of a block, which ``_BLOCK_MIN_STEPS`` weighs.  So
    ``verify``'s step-halving runs (dim 18, 50 to 10 000 steps) take blocks,
    while the record cap bounds ``table1.json``'s run to 512 steps and no
    table of a 1000-agent market fits.  The choice reads only sizes, never
    the drift's matrix, which a large closed loop builds when first read.
    """
    branches = 2 if guards else 1
    cube, square = max(dim**3, _PRODUCT_COST), max(dim**2, _PRODUCT_COST)
    loop = evals * n_steps * square
    length = 1 << (min(n_steps, _BLOCK_MAX_STEPS).bit_length() - 1)
    while length >= _BLOCK_MIN_STEPS:
        bits = length.bit_length()
        records = (length - 1) // stride
        squarings = 2 * bits if records else bits
        rows = guards * length + dim * records
        table_bytes = branches * 8 * (squarings * (dim + 1) * dim + rows * (dim + 1))
        tables = ((evals + squarings) * cube + squarings * (square + 2 * _PRODUCT_COST)
                  + 2 * rows * dim**2)
        max_bytes = _RECORD_BLOCK_MAX_BYTES if records else _BLOCK_MAX_BYTES
        if 2 * branches * tables <= loop and table_bytes <= max_bytes:
            return length
        length //= 2
    return 0


def _compose(outer: tuple, inner: tuple) -> tuple:
    """The affine map ``(P, t)``, ``y -> P @ y + t``, of ``outer`` after ``inner``."""
    return outer[0] @ inner[0], outer[0] @ inner[1] + outer[1]


def _squarings(powers: list, count: int) -> list:
    """Extend ``powers``, the maps of ``2**i`` units, by squaring to cover ``count`` units."""
    while 2 ** len(powers) <= count:
        powers.append(_compose(powers[-1], powers[-1]))
    return powers


def _doubled(rows: np.ndarray, sums: np.ndarray, powers: list, count: int) -> tuple:
    """Affine rows of ``count`` units from those of the first.

    ``rows @ y + sums`` reads some components after the first unit of
    steps from ``y``; ``powers[i]`` is the map of ``2**i`` units.  The rows
    of unit ``j + n`` are those of unit ``j`` applied after ``n`` units.
    The ``count`` units' rows and sums are allocated once, and each
    doubling writes its products into them in place.
    """
    unit = rows.shape[0]
    size = count * unit
    out_rows = np.empty((size, rows.shape[1]))
    out_sums = np.empty(size)
    out_rows[:unit], out_sums[:unit] = rows, sums
    done = unit
    for power, total in powers:
        if done >= size:
            break
        n = min(done, size - done)
        np.matmul(out_rows[:n], power, out=out_rows[done : done + n])
        new_sums = out_sums[done : done + n]
        np.matmul(out_rows[:n], total, out=new_sums)
        new_sums += out_sums[:n]
        done += n
    return out_rows, out_sums


def _growth(norms: list, length: int) -> np.ndarray:
    """``growth[j]`` for ``j <= length``: the largest product of ``max(1, norms[b])`` over
    the binary digits ``b`` of any ``i <= j`` (digits past ``norms`` count 1).

    Built by doubling, ``p[2**b + i] = p[i] * max(1, norms[b])`` for ``i < 2**b``, so each
    product is taken from its lowest digit up; a product past float64's range is inf.
    """
    products = np.ones(1)
    with np.errstate(over="ignore"):
        for factor in np.maximum(1.0, norms[: length.bit_length()]):
            products = np.concatenate((products, products * factor))
    return np.maximum.accumulate(np.resize(products, length + 1))


# A branch looks for a power of its step map with norm at most 1 among the
# first _CONTRACTION_MAX_SQUARINGS squarings (2**63 steps, more than any run
# takes); without one it has no certified tail.
_CONTRACTION_MAX_SQUARINGS = 64


class _Branch:
    """One method's steps on one branch of a :class:`ProjectedAffine` drift, many at a time.

    :meth:`advance` takes a block and :meth:`finish` the tail.  The free
    drift is ``affine``'s ``y -> matrix @ y + offset``, and the branch is the
    pinned one if ``pinned``, else the free one.  A stage's guard is its
    state's ``mu`` entry on the free branch (> 0) and, on the pinned one,
    the negated ``mu`` entry of its free drift (>= 0), which the stage then
    zeroes.  One step of the method is run on affine maps ``y -> M @ y +
    c``, stored as ``[M | c]``, so the step map ``y -> step @ y + shift``
    and the guard of every stage are composed by the same code as a single
    step.  Holds one table, ``powers[i] = (step**(2**i), S_(2**i))`` with
    ``S_j`` the sum of ``step**i @ shift`` over ``i < j``, so that ``j``
    steps apply as ``step**j @ y + S_j``; it covers a block, and
    :func:`_squarings` extends it as far as a stride or the search for a
    contracting power needs.

    From a start ``y``, ``guard_rows @ y + guard_sums`` gives the guard at
    every stage of each of a block's ``length`` steps, step after step
    (``stages`` values each), and ``record_rows @ y + record_sums`` the
    state after each ``stride`` steps, for the ``records = (length - 1) //
    stride`` states strictly inside a block.

    The branch's maps keep the subspace ``S``: ``{y[mu] = 0}`` on the
    pinned branch, whose step map keeps ``mu`` exactly, and all of R^d on
    the free one.  Its norms are taken on ``S``, where the closed loop's
    pinned map is nonexpansive although another row reads ``mu``'s column.
    ``norms[i] = ||step**(2**i)|_S||_2`` up to the first at most 1, past
    which every power has norm at most 1.  ``growth[j]``, the largest
    product of ``max(1, norms[b])`` over the binary digits ``b`` of any ``i
    <= j``, bounds ``||step**i|_S||_2`` for ``i <= j``, so that a start
    ``y`` in ``S`` gives ``||y_j||_2 <= growth[j] * (||y||_2 + j *
    ||shift||_2)``.
    """

    def __init__(self, affine: ProjectedAffine, method_step, h: float, pinned: bool,
                 length: int, stride: int):
        matrix, offset, mu = affine.matrix, affine.offset, affine.mu
        dim = offset.size
        guards = []

        def drift(maps: np.ndarray) -> np.ndarray:
            d = matrix @ maps
            d[:, -1] += offset
            if mu is not None:
                guards.append(-d[mu] if pinned else maps[mu])
            if pinned:
                d[mu] = 0.0
            return d

        mapped = method_step(drift, np.eye(dim, dim + 1), h)
        step, shift = mapped[:, :-1], mapped[:, -1]
        self.stages, self.stride, self.dim, self.pinned = len(guards), stride, dim, pinned
        self.powers = _squarings([(step, shift)], length)
        self.guards = np.array(guards).reshape(-1, dim + 1)  # [G_s | g_s] of one step
        self.guard_rows, self.guard_sums = _doubled(
            self.guards[:, :-1], self.guards[:, -1], self.powers, length
        )
        records = (length - 1) // stride
        if records:
            self.record_rows, self.record_sums = self.strides(records)
        self.keep = np.ones(dim, dtype=bool)  # the components of S
        if pinned:
            self.keep[mu] = False
        self.norms = []
        for power, _ in self.powers:
            self.norms.append(self._norm(power))
            if self.norms[-1] <= 1.0:
                break
        self.growth = _growth(self.norms, length)
        self.shift_norm = float(np.linalg.norm(shift))

    def advance(self, y: np.ndarray, steps: int, records: np.ndarray) -> tuple[np.ndarray, int]:
        """Take up to ``steps <= length`` steps from ``y``; return the new state and the count.

        The steps stop before the first whose stage states leave the branch
        of ``y`` or whose state may cross the divergence limit; that step is
        the caller's to take with the single-step code, which also applies
        the clamp.  The block starts on the record grid unless ``records`` is
        empty: row ``m`` of ``records`` receives the state after ``(m + 1) *
        stride`` steps, valid for the rows within the steps taken.
        """
        checked = steps * self.stages
        guard = self.guard_rows[:checked] @ y + self.guard_sums[:checked]
        if records.size:
            flat = records.reshape(-1)  # a view: the rows are consecutive rows of the record
            np.matmul(self.record_rows[: flat.size], y, out=flat)
            flat += self.record_sums[: flat.size]
        taken = steps
        if checked:
            # The free branch's guard (mu > 0) is strict, the pinned one's is not.
            ok = guard >= 0.0 if self.pinned else guard > 0.0
            first = int(ok.argmin())
            if not ok[first]:
                taken = first // self.stages
        size, shift = math.sqrt(y @ y), self.shift_norm
        if taken and not self.growth[taken] * (size + taken * shift) <= DIVERGENCE_LIMIT:
            j = np.arange(1, taken + 1)
            bounded = self.growth[1 : taken + 1] * (size + j * shift) <= DIVERGENCE_LIMIT
            taken = int(np.argmin(bounded))  # the leading steps that stay within the limit
        return self.apply(y, taken), taken

    def finish(self, y: np.ndarray, k: int, n_steps: int, rows: int):
        """The run's last ``rows`` records from ``y``, the state after ``k`` steps, if it is trapped.

        A run with blocks clamps ``mu``, so ``y``, on this branch, lies in
        its ``S`` and is trapped within the radius of :attr:`ball`: then no
        later stage state leaves the branch or the divergence limit, and
        every later state is the branch's affine map of ``y``.  Record ``m``
        is the state after step ``min((k // stride + 1 + m) * stride,
        n_steps)``; :meth:`tail` yields them in batches.  Returns None for a
        run that is not trapped.
        """
        center, radius = self.ball
        e = y - center
        if not e @ e < radius * radius:
            return None
        stride = self.stride
        first = min((k // stride + 1) * stride, n_steps) - k
        return self.tail(y, first, n_steps - k - first - (rows - 2) * stride, rows)

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
        of lower powers of two.  Past the block the table is squared on,
        under ``np.errstate`` because a diverging map overflows, until a
        power has norm at most 1 or is not finite.
        """
        norms = list(self.norms)
        with np.errstate(over="ignore", invalid="ignore"):
            while 1.0 < norms[-1] < np.inf and len(norms) < _CONTRACTION_MAX_SQUARINGS:
                powers = _squarings(self.powers, 2 ** len(norms))
                norms.append(self._norm(powers[len(norms)][0]))
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
        ``||y_b||_inf + K * ||e||_2`` at most the divergence limit, every
        later state stays within it too.  The radius is the largest
        ``||e||_2`` for which both hold, 0 when a margin is not positive (a
        cap at the CE price puts ``y_b`` on the boundary) or ``K`` is infinite.
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
                   DIVERGENCE_LIMIT - float(np.abs(center).max()))
        radius = room / self.bound
        return center, radius if radius > 0.0 else 0.0

    def apply(self, y: np.ndarray, steps: int) -> np.ndarray:
        for i, (power, total) in enumerate(self.powers[: int(steps).bit_length()]):
            if steps >> i & 1:
                y = power @ y + total
        return y

    def strides(self, count: int) -> tuple:
        """``rows @ y + sums``: the states 1 to ``count`` strides after ``y``, stacked.

        The map of one stride is composed from the powers.
        """
        unit = (np.eye(self.dim), np.zeros(self.dim))
        for i, power in enumerate(self.powers[: int(self.stride).bit_length()]):
            if self.stride >> i & 1:
                unit = _compose(power, unit)
        return _doubled(*unit, _squarings([unit], count), count)

    def tail(self, y: np.ndarray, first: int, last: int, rows: int):
        """Yield ``rows`` records from ``y``, which lies ``first`` steps before the first.

        The records follow one ``stride`` apart, except the final one,
        ``last`` steps after the one before it; they come as arrays of
        consecutive rows.  The rows one stride apart come ``batch`` at a
        time, each batch one product with :meth:`strides` from the last row
        of the one before.  A product costs the interpreter about
        ``_PRODUCT_COST`` multiply-adds and each map in the stack
        ``dim**3`` to build, so ``batch = sqrt(rows * _PRODUCT_COST /
        dim**3)`` balances the two, within the record cap.
        """
        _squarings(self.powers, self.stride)  # first and last are at most a stride
        y = self.apply(y, first)
        yield y[None]
        full = rows - (1 if last == self.stride else 2)
        if full > 0:
            dim = self.dim
            batch = min(full, max(1, _RECORD_BLOCK_MAX_BYTES // (8 * dim * (dim + 1))),
                        max(1, math.isqrt(full * _PRODUCT_COST // dim**3)))
            stack, sums = self.strides(batch)
            for i in range(0, full, batch):
                count = min(batch, full - i)
                records = (stack[: count * dim] @ y + sums[: count * dim]).reshape(count, dim)
                yield records
                y = records[-1]
        if full < rows - 1:
            yield self.apply(y, last)[None]


def integrate(
    rhs: Callable[[np.ndarray], np.ndarray],
    y0,
    h: float,
    t_end: float,
    method: str = "euler",
    reference=None,
    mu_index: int | None = None,
    record_stride: int = 1,
) -> Trajectory:
    """Fixed-step march of ``dy/dt = rhs(y)`` from ``y0`` to ``t_end``.

    Args:
        rhs: drift callable on flat state vectors.
        y0: initial state; if ``mu_index`` is given, ``y0[mu_index]`` must
            be nonnegative.
        h: step size, positive and finite.
        t_end: horizon, finite and >= h; the number of steps is ``round(t_end / h)``.
        method: ``"euler"`` (explicit, first order) or ``"rk4"`` (classical
            fourth order).  For rk4 the drift is evaluated at the raw stage
            states, so a projection-aware rhs sees each stage's own values.
        reference: optional equilibrium; the recorded states' Lyapunov
            values and infinity-norm residuals are computed after the march.
        mu_index: index of the projected nonnegative component; after every
            full step that component is clamped to [0, inf).
        record_stride: record every k-th step (the initial and final states
            are always recorded).

    A drift that is a :class:`ProjectedAffine`, run with ``mu_index`` its
    projected component (None for a plain affine drift), takes blocks, with
    either method and at any ``record_stride``: the longest power of two of
    at most 4096 steps whose tables repay their cost (see
    ``_block_length``), or the step loop when none of at least 16 steps
    does; a drift wrapped in another function takes the step loop.  One
    matrix product gives the branch condition at every stage of every step
    in a block and every state recorded inside it; the first step that
    leaves the branch or may cross ``DIVERGENCE_LIMIT`` is taken with the
    single-step code.  A run that ends a whole block close enough to its branch's fixed point is
    trapped there (see ``_Branch.ball``): on the branch's invariant
    subspace the powers of the step map are bounded (the discrete form of
    the closed loop's ``-B.T @ B`` certificate), so its remaining records
    come straight from powers of the map of one stride, several records per
    matrix product, with no guard and no per-step check.  A cap at the CE
    price puts the fixed point on the boundary of both branches, and such a
    run is never trapped.  Blocks and tail apply the step loop's
    recurrence, rounded through the matrix powers: the states agree with
    the step-by-step ones to ~1e-12 of their size.  On one core of a 2-vCPU
    Xeon VM the 200 000 Euler steps of ``verify``'s Euler check, recorded
    at every step, take ~0.02-0.04 s at N = 1 and ~0.14 s at N = 5 instead
    of ~1.9 s, and ``table1.json``'s run
    ~3 ms instead of ~6 ms (trapped at t = 146 of 1200); at ``t_end =
    1.2e5`` and stride 10**4 it takes ~0.03 s instead of ~1.6 s, and at
    ``t_end = 1e9`` and stride 10**7 ~0.03 s.

    The march is ``_march``'s with one window that holds every row.  It runs
    under ``np.errstate(over="ignore", invalid="ignore")``: a run that
    overflows raises ``NonfiniteState``, with no numpy warning before it.

    Returns:
        The recorded :class:`Trajectory`.

    Raises:
        ValueError: ``h`` or ``t_end`` is NaN or infinite, or ``t_end / h``
            overflows; also a nonpositive ``h``, a horizon under one step, an
            unknown method, a stride below 1, or more records than numpy can index.
        NonfiniteInput: ``y0`` or ``reference`` has a NaN or infinite entry.
        NonfiniteState: the state's infinity norm exceeded
            ``DIVERGENCE_LIMIT`` or turned non-finite; the partial trajectory
            recorded so far, columns and all, rides on the exception.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        (trajectory,) = _march(rhs, y0, h, t_end, method, reference, mu_index, record_stride)
    return trajectory


def _march(rhs, y0, h: float, t_end: float, method: str = "euler", reference=None,
           mu_index: int | None = None, record_stride: int = 1, bounded: bool = False):
    """Yield the records of :func:`integrate`'s run as trajectories of consecutive rows.

    Takes :func:`integrate`'s arguments.  Unless ``bounded``, one window
    holds every row, and the one trajectory yielded is :func:`integrate`'s.
    A ``bounded`` march reuses one window of about ``_DEVIATION_CHUNK_BYTES``
    and yields it, columns filled, whenever the next rows do not fit and at
    the end, so its memory does not grow with the horizon; the steps, and
    so every row, ``V`` and error, are the same.  A window's states are
    valid until the next one is drawn, and a ``NonfiniteState`` carries the
    last window's rows.  A block records at most ``_RECORD_BLOCK_MAX_BYTES
    // (8 * dim * (dim + 1))`` rows, and the tail yields at most as many at
    once: they fit ``_DEVIATION_CHUNK_BYTES // (8 * dim)`` rows with a row
    to spare for the state at the block's end.
    """
    y = np.array(y0, dtype=float)
    if y.ndim != 1:
        raise DimensionMismatch(f"initial state must be a vector, got shape {y.shape}")
    if not 0.0 < h < math.inf:
        raise ValueError(f"step size h must be positive and finite, got {h}")
    if not h <= t_end < math.inf:
        raise ValueError(f"horizon t_end = {t_end} must be finite and at least one step {h}")
    if not float(t_end) / float(h) < math.inf:
        raise ValueError(f"t_end / h = {t_end} / {h} is not finite")
    if method not in _STEPPERS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if record_stride < 1:
        raise ValueError(f"record_stride must be >= 1, got {record_stride}")
    if not np.isfinite(y).all():
        raise NonfiniteInput("initial state y0 has a NaN or infinite entry")
    ref = None
    if reference is not None:
        ref = np.asarray(reference, dtype=float)
        if ref.shape != y.shape:
            raise DimensionMismatch(
                f"reference has shape {ref.shape}, state has shape {y.shape}"
            )
        if not np.isfinite(ref).all():
            raise NonfiniteInput("reference has a NaN or infinite entry")
    if mu_index is not None and y[mu_index] < 0.0:
        raise NegativeMu(f"initial mu = {y[mu_index]} must be nonnegative")

    step, evals = _STEPPERS[method]
    n_steps = max(1, int(round(t_end / h)))
    # Row i records step min(i * grid, n_steps): every record_stride-th and the last.
    n_rec = -(-n_steps // record_stride) + 1
    if n_rec * y.size * 8 > np.iinfo(np.intp).max:  # numpy's largest array, in bytes
        raise ValueError(f"t_end = {t_end} and h = {h} at record_stride = {record_stride} record "
                         f"{n_rec} rows of {y.size} values, more than numpy can index")
    grid = min(record_stride, n_steps)
    size = n_rec
    if bounded:
        size = min(n_rec, max(1, _DEVIATION_CHUNK_BYTES // (8 * y.size)))
    states = np.empty((size, y.size))

    length, branches = 0, {}
    if isinstance(rhs, ProjectedAffine) and mu_index == rhs.mu:
        length = _block_length(y.size, record_stride, n_steps, evals,
                               0 if rhs.mu is None else evals)

    def branch_of(y: np.ndarray) -> _Branch:
        """The branch of ``y``, free where ``y[mu] > 0`` and else pinned, built on first use.

        Only a branch reads ``rhs.matrix``, so a run without blocks never
        allocates it.  A pinned start that the free drift lifts fails its
        first guard, as a step's first stage state is ``y`` itself: its
        block takes no step, and no tail traps it.
        """
        pinned = mu_index is not None and not y[mu_index] > 0.0
        if pinned not in branches:
            branches[pinned] = _Branch(rhs, step, h, pinned, length, record_stride)
        return branches[pinned]

    def window(stop: int) -> Trajectory:
        """The window's first ``stop`` rows, which follow the ``base`` rows yielded before."""
        times = np.minimum(np.arange(base, base + stop) * grid, n_steps) * h
        return _recorded(times, states[:stop], mu_index, ref)

    def filled(stop: int) -> int:
        """Clamp mu in rows ``rec`` to ``stop``, which a block or the tail wrote: the
        guard, the recorded rows and the matrix powers round differently, so mu may
        land a few ulps below 0 where the guard saw it above."""
        if mu_index is not None:
            mu = states[rec:stop, mu_index]
            np.maximum(mu, 0.0, out=mu)
        return stop

    states[0] = y
    base, k, rec = 0, 0, 1  # rows yielded, steps taken, rows in the window
    while k < n_steps:
        steps, taken = 1, 0  # one single step, unless a block takes them
        if length:
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
        if rec + inside >= size:  # no room for the rows inside and the row after
            yield window(rec)
            base, rec = base + rec, 0
        if length:
            y, taken = branch_of(y).advance(y, steps, states[rec : rec + inside])
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
            if not (np.abs(y).max() <= DIVERGENCE_LIMIT):  # also catches NaN
                raise NonfiniteState(
                    f"state diverged at t = {k * h:.6g} "
                    f"(non-finite or |state| > {DIVERGENCE_LIMIT:g})",
                    trajectory=window(rec),
                )
        if k % record_stride == 0 or k == n_steps:
            states[rec] = y
            rec += 1
        if taken == steps and k < n_steps:
            tail = branch_of(y).finish(y, k, n_steps, n_rec - base - rec)
            if tail is not None:
                for records in tail:
                    if rec + len(records) > size:
                        yield window(rec)
                        base, rec = base + rec, 0
                    states[rec : rec + len(records)] = records
                    rec = filled(rec + len(records))
                k = n_steps
    yield window(rec)


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
    )
