"""Derivative-free maximization of the teleported energy.

Two searches, both deterministic (no RNG):

* ``maximize_over_policy`` finds the best feedback rotation per outcome.
  It takes the maximum of Q over the rotation angle at a fixed axis from
  ``analytic.max_over_omega`` (verify's ``omega-maximum`` check tests that
  step on its own) and checks the rest of the closed-form chain: the
  maximum over the rotation axis and the kernel f_E that follows from it.
  It scans a Fibonacci axis lattice and polishes the best lattice point
  with a simplex in spherical angles, never starting at the y axis.

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

import numpy as np

from . import analytic, measurement
from .model import ModelParams
from .protocol import FeedbackPolicy, LocalUnitary

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
SPHERE_POINTS = 256
REFINE_ITERS = 200
TOL = 1e-10
TIE_RTOL = 1e-8  # see maximize_over_policy
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


def _axis_from_angles(theta: float, phi: float) -> tuple[float, float, float]:
    sin_t = math.sin(theta)
    return (sin_t * math.cos(phi), sin_t * math.sin(phi), math.cos(theta))


def _nelder_mead(score, start, steps) -> tuple[float, tuple[float, ...], int, bool]:
    """Simplex maximization of a smooth function of len(start) variables.

    Standard reflect/expand/contract/shrink moves; converged when the
    simplex diameter drops below TOL.
    """
    dim = len(start)
    base = np.asarray(start, dtype=float)
    points = [base] + [base + steps[i] * np.eye(dim)[i] for i in range(dim)]
    values = [score(tuple(pt)) for pt in points]
    evaluations = dim + 1
    converged = False
    for _ in range(REFINE_ITERS):
        order = sorted(range(dim + 1), key=lambda i: -values[i])
        points = [points[i] for i in order]
        values = [values[i] for i in order]
        diameter = max(
            float(np.max(np.abs(points[i] - points[0]))) for i in range(1, dim + 1)
        )
        spread = values[0] - values[dim]
        # Flat directions (an outcome with q near 0 is axis-independent) keep
        # the diameter from ever shrinking, so converging in value counts too.
        if diameter < TOL or spread <= 1e-9 * max(abs(values[0]), 1e-12):
            converged = True
            break
        centroid = np.mean(points[:dim], axis=0)
        worst = points[dim]
        reflected = centroid + (centroid - worst)
        f_reflected = score(tuple(reflected))
        evaluations += 1
        if f_reflected > values[0]:
            expanded = centroid + 2.0 * (centroid - worst)
            f_expanded = score(tuple(expanded))
            evaluations += 1
            if f_expanded > f_reflected:
                points[dim], values[dim] = expanded, f_expanded
            else:
                points[dim], values[dim] = reflected, f_reflected
        elif f_reflected > values[dim - 1]:
            points[dim], values[dim] = reflected, f_reflected
        else:
            if f_reflected > values[dim]:
                contracted = centroid + 0.5 * (reflected - centroid)
            else:
                contracted = centroid - 0.5 * (centroid - worst)
            f_contracted = score(tuple(contracted))
            evaluations += 1
            if f_contracted > min(f_reflected, values[dim]):
                points[dim], values[dim] = contracted, f_contracted
            else:
                for i in range(1, dim + 1):
                    points[i] = points[0] + 0.5 * (points[i] - points[0])
                    values[i] = score(tuple(points[i]))
                evaluations += dim
    top = int(np.argmax(values))
    return values[top], tuple(points[top]), evaluations, converged


def _best_axis(
    params: ModelParams, p: float, q: float
) -> tuple[tuple[float, float, float], int, bool]:
    """The rotation axis maximizing the omega-maximum of Q.

    Scans the Fibonacci lattice, then polishes the best lattice point with a
    simplex in (theta, phi); returns (axis, evaluations, converged).
    """

    def score(angles: tuple[float, float]) -> float:
        return analytic.max_over_omega(params, p, q, _axis_from_angles(*angles))[0]

    lattice = fibonacci_sphere(SPHERE_POINTS).tolist()
    values = [analytic.max_over_omega(params, p, q, n)[0] for n in lattice]
    nx, ny, nz = lattice[int(np.argmax(values))]
    start = (math.acos(nz), math.atan2(ny, nx))
    step = math.pi / math.sqrt(SPHERE_POINTS)
    _, angles, evaluations, converged = _nelder_mead(score, start, (step, step))
    return _axis_from_angles(*angles), SPHERE_POINTS + evaluations, converged


def maximize_over_policy(
    params: ModelParams, meas: measurement.MeasurementModel
) -> OptimizationResult:
    """Numerically maximize E_B over per-outcome feedback rotations.

    At |q| = p the maximizing axis is a whole degenerate family, so the
    y-axis rotation is reported instead of the search's own axis whenever
    the two values agree to TIE_RTOL relative; the y axis is never a start
    point, and a search that falls short of it by more keeps its own answer.
    """
    unitaries = []
    total = 0.0
    evaluations = 0
    all_converged = True
    for w in meas.weights:
        if w.p <= 1e-14:
            unitaries.append(LocalUnitary.identity())
            continue
        axis, n_evals, converged = _best_axis(params, w.p, w.q)
        value, omega = analytic.max_over_omega(params, w.p, w.q, axis)
        y_value, y_omega = analytic.max_over_omega(params, w.p, w.q, Y_AXIS)
        evaluations += n_evals + 2
        if abs(value - y_value) <= TIE_RTOL * max(abs(value), abs(y_value)):
            value, omega, axis = y_value, y_omega, Y_AXIS
        all_converged = all_converged and converged
        total += value / params.eps
        unitaries.append(LocalUnitary.normalized(omega, axis))
    if not all_converged:
        warnings.warn("policy search exhausted its refinement budget", NoConvergence)
    return OptimizationResult(
        best_policy=FeedbackPolicy(tuple(unitaries)),
        best_value=total,
        evaluations=evaluations,
        converged=all_converged,
    )


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
