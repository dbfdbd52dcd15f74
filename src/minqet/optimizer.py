"""Derivative-free maximization of the teleported energy.

Two searches, both deterministic (no RNG):

* ``maximize_over_policies`` finds the best feedback rotation per outcome
  for a whole sequence of (params, measurement) cases at once;
  ``maximize_over_policy`` is its one-case call.  It takes the maximum of Q
  over the rotation angle at a fixed axis from ``analytic.max_over_omega``
  (verify's ``omega-maximum`` check tests that step on its own) and checks
  the rest of the closed-form chain: the maximum over the rotation axis and
  the kernel f_E that follows from it.  Every outcome of every case is one
  row of a single lockstep search: a Fibonacci axis lattice scan, then a
  simplex in spherical angles polishing each row's best lattice point,
  never starting at the y axis.  Both steps run over fixed blocks of rows,
  so their temporary arrays keep one size however many rows there are.
  ``minqet sweep`` runs it once per grid.

* ``maximize_over_weights`` searches the measurement design space itself:
  outcome weights (p, q) on the simplex with sum(q) = 0 and |q| <= p,
  scoring each candidate by the closed-form maximum teleported energy.
  The optimum saturates |q| = p on every outcome.

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
from .model import ModelParams
from .protocol import FeedbackPolicy, LocalUnitary

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
SPHERE_POINTS = 256
REFINE_ITERS = 200
# rows per block, which bounds the search's arrays whatever the number of rows
SCAN_BLOCK = 32  # (rows, 256) lattice values
POLISH_BLOCK = 1024  # (rows, 6) simplex candidates
TOL = 1e-10
TIE_RTOL = 1e-8  # see maximize_over_policies
Y_AXIS = (0.0, 1.0, 0.0)


class NoConvergence(RuntimeWarning):
    """Refinement budget ran out before the step size dropped below tol.

    The search result is still returned (with converged=False); this warning
    exists so callers who care can promote it to an error with the warnings
    filter machinery.
    """


@dataclass(frozen=True)
class OptimizationResult:
    best_policy: FeedbackPolicy
    best_value: float
    evaluations: int
    converged: bool


@dataclass(frozen=True)
class WeightsResult:
    best_weights: tuple[measurement.OutcomeWeights, ...]
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


def _omega_max(table: np.ndarray, axis) -> tuple[np.ndarray, np.ndarray]:
    """``analytic.max_over_omega`` for rows (h, k, p, q) of table, broadcast on axis."""
    h, k, p, q = (table[:, i, None] for i in range(4))
    return analytic.max_over_omega(SimpleNamespace(h=h, k=k), p, q, axis)


def _scan_lattice(table: np.ndarray) -> np.ndarray:
    """Index of each row's best Fibonacci lattice axis, SCAN_BLOCK rows at a time."""
    lattice = tuple(fibonacci_sphere(SPHERE_POINTS).T)
    best = np.empty(len(table), dtype=int)
    for first in range(0, len(table), SCAN_BLOCK):
        block = slice(first, first + SCAN_BLOCK)
        best[block] = np.argmax(_omega_max(table[block], lattice)[0], axis=1)
    return best


def _nelder_mead(
    table: np.ndarray, start: np.ndarray, step: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lockstep simplex maximization in (theta, phi), one simplex per row.

    Every row takes the standard reflect/expand/contract/shrink moves on its
    own (3, 2) simplex and stops when its diameter drops below TOL.  All six
    candidate points of an iteration are scored in one call and each row
    picks its move with np.where; stopped rows are masked, not removed.
    Returns each row's best angles, its evaluation count and its flag.
    """

    def score(angles: np.ndarray) -> np.ndarray:
        return _omega_max(table, _axis_from_angles(angles[..., 0], angles[..., 1]))[0]

    points = start[:, None, :] + np.array([[0.0, 0.0], [step, 0.0], [0.0, step]])
    values = score(points)
    evaluations = np.full(len(start), 3)
    active = np.ones(len(start), dtype=bool)
    row = np.arange(len(start))[:, None]
    for _ in range(REFINE_ITERS):
        order = np.argsort(-values, axis=1, kind="stable")
        points, values = points[row, order], values[row, order]
        diameter = np.abs(points[:, 1:] - points[:, :1]).max(axis=(1, 2))
        spread = values[:, 0] - values[:, 2]
        # Flat directions (an outcome with q near 0 is axis-independent) keep
        # the diameter from ever shrinking, so converging in value counts too.
        flat = spread <= 1e-9 * np.maximum(np.abs(values[:, 0]), 1e-12)
        active &= ~((diameter < TOL) | flat)
        if not active.any():
            break
        best, worst = points[:, 0], points[:, 2]
        centroid = (best + points[:, 1]) / 2.0
        reflected = centroid + (centroid - worst)
        candidates = np.stack(
            [
                reflected,
                centroid + 2.0 * (centroid - worst),
                centroid + 0.5 * (reflected - centroid),
                centroid - 0.5 * (centroid - worst),
                best + 0.5 * (points[:, 1] - best),
                best + 0.5 * (worst - best),
            ],
            axis=1,
        )
        # vertices 0-2, then 3-8: reflected, expanded, outside and inside
        # contraction, and the two shrunk vertices
        values = np.concatenate([values, score(candidates)], axis=1)
        points = np.concatenate([points, candidates], axis=1)
        f_reflected = values[:, 3]
        expand = f_reflected > values[:, 0]
        keep_reflected = ~expand & (f_reflected > values[:, 1])
        contract = ~expand & ~keep_reflected
        move = np.where(
            expand,
            np.where(values[:, 4] > f_reflected, 4, 3),
            np.where(keep_reflected, 3, np.where(f_reflected > values[:, 2], 5, 6)),
        )
        shrink = (
            active
            & contract
            & ~(values[row[:, 0], move] > np.minimum(f_reflected, values[:, 2]))
        )
        evaluations += active * (1 + expand + contract + 2 * shrink)
        # stopped rows keep vertices 0-2, a shrink takes 0, 7, 8
        select = np.where(shrink[:, None], (0, 7, 8), (0, 1, 2))
        select[:, 2] = np.where(active & ~shrink, move, select[:, 2])
        points, values = points[row, select], values[row, select]
    top = np.argmax(values, axis=1)
    return points[row[:, 0], top], evaluations, ~active


def maximize_over_policies(cases) -> tuple[OptimizationResult, ...]:
    """Numerically maximize E_B over per-outcome feedback rotations, per case.

    ``cases`` is a sequence of (params, meas) pairs.  Every outcome with
    p > DEGENERATE_PROB of every case becomes one row of a single lockstep search:
    a lattice scan, a simplex polish, then the y-axis tie rule.  At |q| = p
    the maximizing axis is a whole degenerate family, so the y-axis rotation
    is reported instead of the search's own axis whenever the two values
    agree to TIE_RTOL relative; the y axis is never a start point, and a
    search that falls short of it by more keeps its own answer.
    """
    cases = list(cases)
    table = np.fromiter(
        (
            x
            for params, meas in cases
            for w in meas.weights
            if w.p > measurement.DEGENERATE_PROB
            for x in (params.h, params.k, w.p, w.q)
        ),
        dtype=float,
    ).reshape(-1, 4)
    nx, ny, nz = fibonacci_sphere(SPHERE_POINTS)[_scan_lattice(table)].T
    start = np.column_stack([np.arccos(nz), np.arctan2(ny, nx)])
    angles = np.empty_like(start)
    evaluations = np.empty(len(table), dtype=int)
    converged = np.empty(len(table), dtype=bool)
    for first in range(0, len(table), POLISH_BLOCK):
        block = slice(first, first + POLISH_BLOCK)
        angles[block], evaluations[block], converged[block] = _nelder_mead(
            table[block], start[block], math.pi / math.sqrt(SPHERE_POINTS)
        )
    axes = np.column_stack(_axis_from_angles(angles[:, 0], angles[:, 1]))
    value, omega = (v[:, 0] for v in _omega_max(table, tuple(axes.T[..., None])))
    y_value, y_omega = (v[:, 0] for v in _omega_max(table, Y_AXIS))
    scale = np.maximum(np.abs(value), np.abs(y_value))
    tie = np.abs(value - y_value) <= TIE_RTOL * scale
    value = np.where(tie, y_value, value)
    omega = np.where(tie, y_omega, omega)
    axes[tie] = Y_AXIS
    evaluations += SPHERE_POINTS + 2
    results = []
    i = 0
    for params, meas in cases:
        unitaries = []
        total = 0.0
        span = 0
        for w in meas.weights:
            if w.p <= measurement.DEGENERATE_PROB:
                unitaries.append(LocalUnitary.identity())
                continue
            total += float(value[i + span]) / params.eps
            unitaries.append(LocalUnitary.normalized(omega[i + span], axes[i + span]))
            span += 1
        results.append(
            OptimizationResult(
                best_policy=FeedbackPolicy(tuple(unitaries)),
                best_value=total,
                evaluations=int(evaluations[i : i + span].sum()),
                converged=bool(converged[i : i + span].all()),
            )
        )
        i += span
    if not converged.all():
        warnings.warn("policy search exhausted its refinement budget", NoConvergence)
    return tuple(results)


def maximize_over_policy(
    params: ModelParams, meas: measurement.MeasurementModel
) -> OptimizationResult:
    """``maximize_over_policies`` for one case."""
    return maximize_over_policies([(params, meas)])[0]


def _project_weights(
    raw_p: np.ndarray, raw_u: np.ndarray
) -> tuple[measurement.OutcomeWeights, ...]:
    """Map unconstrained coordinates onto the feasible weight set."""
    p = np.clip(raw_p, 0.0, None)
    mass = float(np.sum(p))
    if mass < 1e-12:
        p = np.full_like(p, 1.0 / len(p))
    else:
        p = p / mass
    u = np.clip(raw_u, -1.0, 1.0)
    q = measurement.balance_weights(p, u)
    return tuple(map(measurement.OutcomeWeights, p.tolist(), q.tolist()))


def maximize_over_weights(params: ModelParams, n_outcomes: int = 2) -> WeightsResult:
    """Numerically maximize the closed-form maxE_B over the weight space.

    Deterministic multi-start compass search in (p, u) coordinates, with u
    recentered into balanced q on every evaluation.  The maximum saturates
    |q| = p on every outcome, where the value equals the projective pair's.
    """
    if n_outcomes < 2:
        raise ValueError(f"need at least 2 outcomes, got {n_outcomes}")
    n = n_outcomes
    signs = np.array([1.0 if i % 2 == 0 else -1.0 for i in range(n)])
    ramp = np.arange(1.0, n + 1.0)
    starts = [
        (np.full(n, 1.0 / n), 0.5 * signs),
        (np.full(n, 1.0 / n), -0.95 * signs),
        (ramp / ramp.sum(), 0.7 * signs),
        (ramp[::-1] / ramp.sum(), 0.2 * signs),
    ]
    best_value, best_weights = -math.inf, None
    evaluations = 0
    converged = False
    for raw_p0, raw_u0 in starts:
        point = np.concatenate([raw_p0, raw_u0])
        weights = _project_weights(point[:n], point[n:])
        value = analytic.max_EB_closed(params, weights)
        evaluations += 1
        step = 0.25
        this_converged = False
        for _ in range(REFINE_ITERS):
            if step < TOL:
                this_converged = True
                break
            improved = False
            for idx in range(2 * n):
                for sign in (1.0, -1.0):
                    candidate = point.copy()
                    candidate[idx] += sign * step
                    cw = _project_weights(candidate[:n], candidate[n:])
                    cv = analytic.max_EB_closed(params, cw)
                    evaluations += 1
                    if cv > value:
                        value, point, weights = cv, candidate, cw
                        improved = True
            if not improved:
                step *= 0.5
        if value > best_value:
            best_value = value
            best_weights = weights
            converged = this_converged
    if not converged:
        warnings.warn("weight search exhausted its refinement budget", NoConvergence)
    return WeightsResult(
        best_weights=best_weights,
        best_value=best_value,
        evaluations=evaluations,
        converged=converged,
    )
