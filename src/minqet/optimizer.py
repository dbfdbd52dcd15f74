"""Maximization of the teleported energy: over Bob's feedback turns, and over weights.

* ``maximize_over_policies`` is exact and does not iterate.  Bob's turn on an
  outcome is a unit 4-vector a = (cos omega, sin omega n), and the energy it
  extracts is a^T D a with ``protocol.turn_gains``' D, built from the kets
  M_A(mu)|++>, h, k and sigma, and no closed form.  So the best turn of each outcome is
  D's top eigenvector and the maximum over policies is the sum of the outcomes'
  top eigenvalues (Davenport's q-method for Wahba's problem).  D is two 2x2 blocks,
  each solved in closed form, with no LAPACK call, protocol.BLOCK cases at a time.
  ``minqet sweep`` runs it once per grid, and ``minqet optimize --over policy`` on a
  block of one.

* ``maximize_over_weights`` searches the measurement design space itself:
  outcome weights (p, q) on the simplex with sum(q) = 0 and |q| <= p,
  scoring each candidate by the closed-form maximum teleported energy.  Its
  four starts run in one lockstep poll, every live start's compass points
  scored in one call, each start on the path it takes alone.  Points and
  weights are columns, outcome axis first.  The optimum saturates |q| = p
  on every outcome, where balancing clips the value flat nearby, so a start
  stops after STALL_POLLS failed polls in a row as well as on its step.
  It stops on its own rule, never on the answer it is checked against:
  ``converged`` says the rule fired within REFINE_ITERS polls, else the result
  reports converged=False rather than raising.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import analytic, measurement, protocol
from .model import ModelParams, ParamsBlock

REFINE_ITERS = 200
POLL_BLOCK = 128  # (n, 2n, columns) weight-balancing temporaries of a compass poll
TOL = 1e-10  # the step below which a weights-search start stops
STALL_POLLS = 3  # failed polls in a row (steps s, s/2, s/4) that end a weights-search start

class NoConvergence(RuntimeWarning):
    """The weights search ran REFINE_ITERS polls without its own stop rule firing.

    The rule: a start's step below TOL, or STALL_POLLS failed polls in a row.  The
    result is still returned with converged=False; a warnings filter can make this an error.
    """


@dataclass(frozen=True)
class WeightsResult:
    best_weights: tuple[np.ndarray, np.ndarray]  # p and q, each (n,)
    best_value: float
    evaluations: int
    converged: bool


def maximize_over_policies(params: ParamsBlock, coeffs: np.ndarray) -> tuple:
    """The maximum of E_B over per-outcome feedback turns, for N cases, and its turns.

    ``coeffs`` is the coefficient block (N, n, 4).  Each outcome with p >
    DEGENERATE_PROB adds the top eigenvalue of its ``protocol.turn_gains`` D and turns
    by its top eigenvector a, read by ``protocol.turn_policy``: omega = atan2(|a_vec|,
    a_0) in [0, pi/2] about n = a_vec / |a_vec|.  The Kraus operators commute with O, so
    D depends on an outcome only through p + q sigma_x^A and splits into a {1, sigma_y}
    block (rows 0, 2) and a {sigma_x, sigma_z} block (rows 1, 3); ``protocol._check``
    holds the entries between them to CROSS_CHECK_TOL max |D| per case.  Each block
    [[x, b], [b, z]] is solved in closed form: lambda_max = mid + hypot(half, b) with mid
    = (x + z)/2 and half = (x - z)/2, or det / L = x (z / L) - b (b / L), L = mid - hypot,
    where mid < 0 and the sum cancels (no product of two entries, so no overflow), and
    its eigenvector is (cos theta, sin theta), theta = atan2(b, half) / 2.
    The larger lambda_max wins, and an exact tie goes to the {1, sigma_y} block: the
    turn is a = (cos theta, 0, sin theta, 0), about the y axis with a_0 >= 0, or a =
    (0, cos theta, 0, sin theta), a half turn about an axis in the x-z plane.  At |q| = p
    both blocks share one lambda_max in exact arithmetic, the best turns form a whole
    family, and the printed turn is that of the block whose value rounds larger, the
    {1, sigma_y} one on an exact tie.  Other outcomes keep the identity about
    ``analytic.Y_AXIS``.  Returns the columns (best_value, omega, axes): values summed
    in outcome order (N,), and the policy table (N, n) and (N, n, 3).
    """
    live = (measurement.weight_block(coeffs)[0] > measurement.DEGENERATE_PROB).T  # (N, n)
    top, turn = np.empty(live.shape), np.empty(live.shape + (2, 2))
    for first in range(0, len(coeffs), protocol.BLOCK):
        block = slice(first, first + protocol.BLOCK)
        gains = protocol.turn_gains(params[block], coeffs[block])
        magnitude = np.abs(gains)
        # rows (0, 2) with columns (1, 3), and back: the entries between the two blocks
        cross = np.maximum(magnitude[..., ::2, 1::2], magnitude[..., 1::2, ::2])
        budget = protocol.CROSS_CHECK_TOL * magnitude.max(axis=(-3, -2, -1))
        protocol._check("D couples its two blocks", cross.max(axis=(-3, -2, -1)), budget, first)
        # the two blocks side by side, {1, sigma_y} first: (B, n, 2)
        diagonal = np.diagonal(gains, axis1=-2, axis2=-1)
        x, z, b = diagonal[..., :2], diagonal[..., 2:], gains[..., [0, 1], [2, 3]]
        mid, half = 0.5 * (x + z), 0.5 * (x - z)
        radius = np.hypot(half, b)
        falling = mid < 0.0
        low = np.where(falling, mid - radius, 1.0)
        pair = np.where(falling, x * (z / low) - b * (b / low), mid + radius)
        xz_wins = pair[..., 1] > pair[..., 0]
        top[block] = np.where(xz_wins, pair[..., 1], pair[..., 0])
        # the winner's (cos theta, sin theta) as turn[k, j] = a_{2k + j}, block j = 0 or 1
        angle = 0.5 * np.arctan2(b, half)
        winner = np.stack([~xz_wins, xz_wins], axis=-1)[..., None, :]
        turn[block] = np.stack([np.cos(angle), np.sin(angle)], axis=-2) * winner
    turn = np.where(live[..., None], turn.reshape(live.shape + (4,)), (1.0, 0.0, 0.0, 0.0))
    value = np.add.accumulate(np.where(live, top, 0.0), axis=1)[:, -1]
    return (value, *protocol.turn_policy(turn + 0.0))  # + 0.0: no -0.0 printed


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
    lockstep poll.  Each round polls, for every start not yet stopped, all 4n
    points one step away along a coordinate, both ways; they are projected
    POLL_BLOCK columns at a time and scored in one ``analytic.max_EB_closed``
    call.  Each start moves to its first best poll point if that beats its
    value and halves its step otherwise, the path it takes alone.  A start
    stops once its step is below TOL or its last STALL_POLLS polls all failed
    (a move resets the count), and it converges if it sees itself stopped
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
    live, stalls = np.ones(len(value), dtype=bool), np.zeros(len(value), dtype=int)
    for _ in range(REFINE_ITERS):
        live = (step >= TOL) & (stalls < STALL_POLLS)
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
        stalls[starts] = np.where(better, 0, stalls[starts] + 1)
    best = int(np.argmax(value))  # the first start with the largest value
    if live[best]:
        warnings.warn("weight search exhausted its refinement budget", NoConvergence)
    return WeightsResult(
        best_weights=(p[:, best], q[:, best]),
        best_value=float(value[best]),
        evaluations=evaluations,
        converged=not live[best],
    )
