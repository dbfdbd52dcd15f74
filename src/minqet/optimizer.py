"""Maximization of the teleported energy: over Bob's feedback turns, and over weights.

* ``maximize_over_policies`` is exact and does not iterate.  Bob's turn on an
  outcome is a unit 4-vector a = (cos omega, sin omega n), and the energy it
  extracts is a^T D a with ``protocol.turn_gains``' D, built from the kets
  M_A(mu)|++>, h, k and sigma, and no closed form.  So the best turn of each outcome is
  D's top eigenvector and the maximum over policies is the sum of the outcomes'
  top eigenvalues (Davenport's q-method for Wahba's problem).  D is two 2x2 blocks,
  each solved in closed form by ``protocol.best_turns``, which ``minqet verify`` also
  calls on its ensemble's D.  ``minqet sweep`` runs it once per grid, and ``minqet
  optimize --over policy`` on a block of one.

* ``maximize_over_weights`` is exact too, and searches nothing.  M_A(mu) commutes
  with sigma_A^x, so an outcome's D is p D[1] + q D[X_A], linear in its weights
  (p, q).  lambda_max is convex and positively homogeneous, so the maximum over
  policies is sum_mu p_mu lambda(q_mu / p_mu) with lambda(t) = lambda_max(D[1] +
  t D[X_A]) convex on [-1, 1]; balance, sum_mu q_mu = 0, puts every design under
  lambda's chord, (lambda(1) + lambda(-1)) / 2, the projective pair's maximum, and
  every saturated balanced design (|q| = p on each outcome) attains it.  (A convex
  function's maximum over a polytope is at a vertex: Rockafellar, Convex Analysis,
  section 32.)  It returns one stated saturated design and its eigen maximum, built
  from kets, h and k and no closed form, which ``minqet optimize --over weights``
  then holds to the closed projective limit f_E(1).

This stays a module of its own: it is the optimizer layer that ``perfbench`` times and
counts by name (``minqet.optimizer``, ``optimizer.py``).
"""

from __future__ import annotations

import numpy as np

from . import measurement, protocol
from .model import ModelParams, ParamsBlock


def maximize_over_policies(params: ParamsBlock, coeffs: np.ndarray) -> tuple:
    """The maximum of E_B over per-outcome feedback turns, for N cases, and its turns.

    ``protocol.best_turns`` solves the ``protocol.turn_gains`` of the coefficient block
    (N, n, 4), protocol.BLOCK cases at a time.  Returns (best_value, turns): the values
    (N,) and each outcome's best turn, a unit 4-vector with a_0 >= 0, (N, n, 4), which
    ``protocol.run_many`` runs as they are.
    """
    p = measurement.weight_block(coeffs)[0]
    value, turns = np.empty(len(coeffs)), np.empty(coeffs.shape)
    for first in range(0, len(coeffs), protocol.BLOCK):
        block = slice(first, first + protocol.BLOCK)
        gains = protocol.turn_gains(params[block], coeffs[block])
        value[block], turns[block] = protocol.best_turns(gains, p[:, block], first)
    return value, turns


def maximize_over_weights(params: ModelParams, n_outcomes: int = 2) -> tuple:
    """The maximum of E_B over every n-outcome design, on a stated saturated design.

    Outcome mu has q = +p for even mu and q = -p for odd mu; the ceil(n/2) "+" outcomes
    share mass 1/2 equally and the floor(n/2) "-" outcomes the other 1/2, so every p is
    1/n for even n.  ``MeasurementModel.from_weights`` checks the design's rows, and
    ``maximize_over_policies`` gives its value, which no design exceeds.  Returns
    (best_value, p, q), p and q (n,).
    """
    if n_outcomes < 2:
        raise ValueError(f"need at least 2 outcomes, got {n_outcomes}")
    sign = np.resize([1.0, -1.0], n_outcomes)
    p = np.where(sign > 0.0, 0.5 / ((n_outcomes + 1) // 2), 0.5 / (n_outcomes // 2))
    q = sign * p
    meas = measurement.MeasurementModel.from_weights(p, q)
    value = maximize_over_policies(ParamsBlock.of([params]), meas.rows[None])[0]
    return float(value[0]), p, q
