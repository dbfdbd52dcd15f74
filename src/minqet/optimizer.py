"""Derivative-free maximization of the teleported energy.

Two searches, both deterministic (no RNG):

* ``maximize_over_policies`` finds the best feedback rotation per outcome
  for a whole block of cases at once, as a policy table.  It takes the
  maximum of Q over the rotation angle at a fixed axis from
  ``analytic.max_over_omega`` (verify's ``omega-maximum`` check tests that
  step on its own) and checks the rest of the closed-form chain: the
  maximum over the rotation axis and the kernel f_E that follows from it.
  Every outcome of every case is one row of a single lockstep search: a
  Fibonacci axis lattice scan, then a simplex in spherical angles polishing
  each row's best lattice point, never starting at the y axis.  Both steps
  score candidate axes by ``analytic.max_value_over_omega``, the value
  alone; angles are computed only for the axes reported.  A simplex
  iteration scores only the points some row's move reads, and its arrays
  put the row axis last, so each NumPy call runs along the rows.  Both
  steps run over fixed blocks of rows, so their arrays keep one size
  however many rows there are.  ``minqet sweep`` runs it once per grid, and
  ``minqet optimize --over policy`` on a block of one.

* ``maximize_over_weights`` searches the measurement design space itself:
  outcome weights (p, q) on the simplex with sum(q) = 0 and |q| <= p,
  scoring each candidate by the closed-form maximum teleported energy.  Its
  four starts run in one lockstep poll, every live start's compass points
  scored in one call, each start on the path it takes alone.  Points and
  weights are columns, outcome axis first.  The optimum saturates |q| = p
  on every outcome.

A search that runs out of refinement iterations reports converged=False on
its result rather than raising.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import analytic, measurement
from .model import ModelParams, ParamsBlock

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
SPHERE_POINTS = 256
REFINE_ITERS = 200
# rows per block, which bounds the search's arrays whatever the number of rows
SCAN_BLOCK = 32  # (rows, 256) lattice values
POLISH_BLOCK = 1024  # (3, 3, rows) simplices and (2, rows) candidates
POLL_BLOCK = 128  # (n, 2n, columns) weight-balancing temporaries of a compass poll
TOL = 1e-10
TIE_RTOL = 1e-8  # see maximize_over_policies


class NoConvergence(RuntimeWarning):
    """Refinement budget ran out before the step size dropped below tol.

    The search result is still returned (with converged=False); this warning
    exists so callers who care can promote it to an error with the warnings
    filter machinery.
    """


@dataclass(frozen=True)
class WeightsResult:
    best_weights: tuple[np.ndarray, np.ndarray]  # p and q, each (n,)
    best_value: float
    evaluations: int
    converged: bool


def fibonacci_sphere(n: int) -> np.ndarray:
    """n nearly-uniform unit vectors: z stratified, azimuth by the golden angle."""
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    phi = i * GOLDEN_ANGLE
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def _axis_from_angles(theta, phi):
    sin_t = np.sin(theta)
    return (sin_t * np.cos(phi), sin_t * np.sin(phi), np.cos(theta))


def _rows(table: np.ndarray) -> tuple:
    """``analytic``'s (params, p, q) arguments of rows (..., 4) of (h, k, p, q), each (...)."""
    h, k, p, q = (table[..., i] for i in range(4))
    return SimpleNamespace(h=h, k=k), p, q


def _value(args: tuple, angles: np.ndarray) -> np.ndarray:
    """``analytic.max_value_over_omega`` on ``_rows`` args at axes (theta, phi), (2, ..., rows)."""
    return analytic.max_value_over_omega(*args, _axis_from_angles(*angles))


def _scan_lattice(table: np.ndarray) -> np.ndarray:
    """Index of each row's best Fibonacci lattice axis, SCAN_BLOCK rows at a time."""
    lattice = tuple(fibonacci_sphere(SPHERE_POINTS).T)
    best = np.empty(len(table), dtype=int)
    for first in range(0, len(table), SCAN_BLOCK):
        block = slice(first, first + SCAN_BLOCK)
        values = analytic.max_value_over_omega(*_rows(table[block, None]), lattice)
        best[block] = np.argmax(values, axis=1)
    return best


def _nelder_mead(
    table: np.ndarray, start: np.ndarray, step: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lockstep simplex maximization in (theta, phi), one simplex per row.

    Every row takes the standard reflect/expand/contract/shrink moves on its
    own simplex and stops when its diameter drops below TOL.  The simplices
    are one (theta, phi, value) by vertex by row array, (3, 3, rows): a move
    is elementwise on (rows,) arrays, and one stable argsort and one flat
    take order every row's vertices.  An iteration scores, by value alone,
    only the points some row's move reads: every row's reflected point, then
    one second point per row (the expansion if the reflection beat the best
    vertex, else the outside or the inside contraction), then the two shrunk
    vertices of the rows that shrink.  Stopped rows are masked, not removed.
    Returns each row's best angles (2, rows), evaluation count and flag.
    """
    args = _rows(table)
    angles = start[:, None] + np.array([[0.0, step, 0.0], [0.0, 0.0, step]])[..., None]
    simplex = np.concatenate((angles, _value(args, angles)[None]))
    evaluations = np.full(len(table), 3)
    active = np.ones(len(table), dtype=bool)
    lanes = np.arange(len(table))
    for _ in range(REFINE_ITERS):
        order = np.argsort(-simplex[2], axis=0, kind="stable")
        simplex = simplex.reshape(3, -1).take(order * len(table) + lanes, axis=1)
        angles, values = simplex[:2], simplex[2]
        diameter = np.abs(angles[:, 1:] - angles[:, :1]).max(axis=(0, 1))
        spread = values[0] - values[2]
        # Flat directions (an outcome with q near 0 is axis-independent) keep
        # the diameter from ever shrinking, so converging in value counts too.
        flat = spread <= 1e-9 * np.maximum(np.abs(values[0]), 1e-12)
        active &= ~((diameter < TOL) | flat)
        if not active.any():
            break
        best, worst = angles[:, 0], angles[:, 2]
        centroid = (best + angles[:, 1]) / 2.0
        reflected = centroid + (centroid - worst)
        f_reflected = _value(args, reflected)
        expand = f_reflected > values[0]
        contract = ~expand & ~(f_reflected > values[1])
        second = np.where(
            expand,
            centroid + 2.0 * (centroid - worst),
            np.where(
                f_reflected > values[2],
                centroid + 0.5 * (reflected - centroid),  # outside contraction
                centroid - 0.5 * (centroid - worst),  # inside contraction
            ),
        )
        f_second = _value(args, second)
        shrink = active & contract & ~(f_second > np.minimum(f_reflected, values[2]))
        evaluations += active * (1 + expand + contract + 2 * shrink)
        # a live row that does not shrink replaces its worst vertex; the
        # reflection stays unless the expansion beat it or the row contracted
        take_second = np.where(expand, f_second > f_reflected, contract)
        move = active & ~shrink
        angles[:, 2, move] = np.where(take_second, second, reflected)[:, move]
        values[2, move] = np.where(take_second, f_second, f_reflected)[move]
        shrinking = np.flatnonzero(shrink)
        if len(shrinking):
            # a shrink keeps the best vertex and halves the way to the other two
            toward = best[:, None, shrinking]
            shrunk = toward + 0.5 * (angles[:, 1:, shrinking] - toward)
            simplex[:2, 1:, shrinking] = shrunk
            values[1:, shrinking] = _value(_rows(table[shrinking]), shrunk)
    top = np.argmax(simplex[2], axis=0)
    return np.take_along_axis(simplex[:2], top[None, None], axis=1)[:, 0], evaluations, ~active


def maximize_over_policies(params: ParamsBlock, p: np.ndarray, q: np.ndarray) -> tuple:
    """Numerically maximize E_B over per-outcome feedback rotations, for N cases.

    p, q are the weights (n, N).  Every outcome with p > DEGENERATE_PROB
    becomes one row of a single lockstep search: a lattice scan, a simplex
    polish, then the y-axis tie rule.  At |q| = p the maximizing axis is a
    whole degenerate family, so the y-axis rotation is reported instead of
    the search's own axis whenever the two values agree to TIE_RTOL
    relative; the y axis is never a start point, and a search that falls
    short of it by more keeps its own answer.  Returns the columns
    (best_value, omega, axes, evaluations, converged): values summed in
    outcome order (N,), the policy table (N, n) and (N, n, 3) with the
    identity at the other outcomes, and counts and flags (N,).
    """
    live = (p > measurement.DEGENERATE_PROB).T  # (N, n)
    case = np.nonzero(live)[0]  # rows case by case, outcomes in order
    table = np.column_stack([params.h[case], params.k[case], p.T[live], q.T[live]])
    nx, ny, nz = fibonacci_sphere(SPHERE_POINTS)[_scan_lattice(table)].T
    start = np.stack([np.arccos(nz), np.arctan2(ny, nx)])  # (2, rows)
    angles = np.empty_like(start)
    evaluations = np.empty(len(table), dtype=int)
    converged = np.empty(len(table), dtype=bool)
    for first in range(0, len(table), POLISH_BLOCK):
        block = slice(first, first + POLISH_BLOCK)
        angles[:, block], evaluations[block], converged[block] = _nelder_mead(
            table[block], start[:, block], math.pi / math.sqrt(SPHERE_POINTS)
        )
    axes, args = np.column_stack(_axis_from_angles(*angles)), _rows(table)
    value, omega = analytic.max_over_omega(*args, tuple(axes.T))
    y_value, y_omega = analytic.max_over_omega(*args, analytic.Y_AXIS)
    scale = np.maximum(np.abs(value), np.abs(y_value))
    tie = np.abs(value - y_value) <= TIE_RTOL * scale
    value = np.where(tie, y_value, value) / params.eps[case]
    omega = np.where(tie, y_omega, omega)
    axes[tie] = analytic.Y_AXIS
    if not converged.all():
        warnings.warn("policy search exhausted its refinement budget", NoConvergence)
    return (
        np.add.accumulate(_per_outcome(live, value, 0.0), axis=1)[:, -1],
        _per_outcome(live, omega, 0.0),
        _per_outcome(live, axes, analytic.Y_AXIS),
        _per_outcome(live, evaluations + SPHERE_POINTS + 2, 0).sum(axis=1),
        _per_outcome(live, converged, True).all(axis=1),
    )


def _per_outcome(live: np.ndarray, rows: np.ndarray, fill) -> np.ndarray:
    """The search rows back on the (N, n) outcome grid of ``live``, ``fill`` elsewhere."""
    table = np.full(live.shape + np.shape(fill), fill, dtype=rows.dtype)
    table[live] = rows
    return table


def _project_weights(raw_p: np.ndarray, raw_u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map unconstrained columns (n, ...) onto the feasible weight set: p and q, each (n, ...)."""
    p = np.maximum(raw_p, 0.0)
    mass = p.sum(axis=0)
    empty = mass < 1e-12
    p = np.where(empty, 1.0 / len(p), p / np.where(empty, 1.0, mass))
    return p, measurement.balance_weights(p, np.minimum(np.maximum(raw_u, -1.0), 1.0))


def maximize_over_weights(params: ModelParams, n_outcomes: int = 2) -> WeightsResult:
    """Numerically maximize the closed-form maxE_B over the weight space.

    Deterministic compass search in 2n coordinates (raw p, raw u), with
    every point projected onto balanced weights (p, q): four starts in one
    lockstep poll.  Each round polls, for every start whose step is not yet
    below TOL, all 4n points one step away along a coordinate, both ways;
    they are projected POLL_BLOCK columns at a time and scored in one
    ``analytic.max_EB_closed`` call.  Each start moves to its first best
    poll point if that beats its value and halves its step otherwise, the
    path it takes alone.  A start converges once it sees its step below TOL
    within REFINE_ITERS rounds; the first start with the largest value is
    reported.  The maximum saturates |q| = p on every outcome, where the
    value equals the projective pair's.
    """
    if n_outcomes < 2:
        raise ValueError(f"need at least 2 outcomes, got {n_outcomes}")
    n = n_outcomes
    ramp = np.arange(1.0, n + 1.0)
    even = np.full(n, 1.0 / n)
    raw_p = np.stack([even, even, ramp / ramp.sum(), ramp[::-1] / ramp.sum()], axis=1)
    raw_u = np.outer(np.resize([1.0, -1.0], n), [0.5, -0.95, 0.7, 0.2])  # signs alternate
    point = np.concatenate([raw_p, raw_u])  # (2n, 4), one column per start
    p, q = _project_weights(raw_p, raw_u)
    value = analytic.max_EB_closed(params, p, q)
    step, evaluations = np.full(len(value), 0.25), len(value)
    poll = np.concatenate([np.eye(2 * n), -np.eye(2 * n)], axis=1)[:, None]  # (2n, 1, 4n) moves
    live = np.ones(len(value), dtype=bool)
    for _ in range(REFINE_ITERS):
        live = step >= TOL
        if not live.any():
            break
        starts = np.flatnonzero(live)
        candidates = (point[:, starts, None] + step[starts, None] * poll).reshape(2 * n, -1)
        cp, cq = np.empty((2, n, candidates.shape[1]))
        for first in range(0, candidates.shape[1], POLL_BLOCK):
            block = slice(first, first + POLL_BLOCK)
            raw = candidates[:, block]
            cp[:, block], cq[:, block] = _project_weights(raw[:n], raw[n:])
        values = analytic.max_EB_closed(params, cp, cq).reshape(len(starts), 4 * n)
        evaluations += values.size
        best = np.argmax(values, axis=1)  # ties go to the first poll point
        top = values[np.arange(len(starts)), best]
        better = top > value[starts]
        moved, column = starts[better], (np.arange(len(starts)) * 4 * n + best)[better]
        value[moved], point[:, moved] = top[better], candidates[:, column]
        p[:, moved], q[:, moved] = cp[:, column], cq[:, column]
        step[starts[~better]] *= 0.5
    best = int(np.argmax(value))  # the first start with the largest value
    if live[best]:
        warnings.warn("weight search exhausted its refinement budget", NoConvergence)
    return WeightsResult(
        best_weights=(p[:, best], q[:, best]),
        best_value=float(value[best]),
        evaluations=evaluations,
        converged=not live[best],
    )
