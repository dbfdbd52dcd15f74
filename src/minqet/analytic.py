"""Closed forms for teleported energy, its maximization, and the two bounds.

Everything here is arithmetic derived by hand from the model; no operator
algebra happens in this module.  The brute-force counterparts live in
``protocol`` and ``entanglement``, and the test suite's job is to make the
two routes agree.

Every closed form is one array kernel.  ``params`` is a ``ModelParams``
(floats) or a ``ParamsBlock`` (one (N,) array per attribute), and every
other argument is a float or an array that broadcasts against its
attributes.  Per-outcome arrays put the outcome axis first, (n,) for one
case and (n, N) over a block, so the cases' parameters broadcast behind it
and a sum over outcomes is a sum over axis 0.  One case is a block of one:
its result is a NumPy scalar or a 0-d array, from the same arithmetic.

Per outcome with weights (p, q), a feedback rotation of qubit B about the
unit axis n by angle omega changes the B-side energy by -Q/eps, where

    Q(omega, n) = X (cos 2 omega - 1) - h k q n_y sin 2 omega
    X(n) = p [h^2 (1 - n_z^2) + 2 k^2 (1 - n_x^2)] - 3 h k q n_x n_z.

Maximizing Q over omega, then over the rotation axis, collapses to a
one-parameter family indexed by z = n_x^2 + n_z^2:

    T(z) = sqrt((a - b z)^2 + c (1 - z)) - (a - b z)

with a = p (h^2 + 2 k^2), c = h^2 k^2 q^2, and
b = a/2 + sqrt((h^2 - 2 k^2)^2 p^2 + 9 h^2 k^2 q^2) / 2.  T attains its
maximum at z = 0 (axis along y), which yields the per-outcome closed form
f_E and the teleported-energy maximum used everywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measurement import DEGENERATE_PROB
from .model import ModelParams

# the rotation axis of every outcome's closed-form maximum (z = 0)
Y_AXIS = (0.0, 1.0, 0.0)


class DomainError(ValueError):
    """Argument outside the closed form's domain of validity."""


@dataclass(frozen=True)
class BoundCoefficients:
    """The two parameter-only constants relating delta-S and maxE_B (arrays for a block)."""

    c32: float
    c770: float


def _require(ok, values, what: str) -> None:
    """Raise DomainError naming the first element of values where ok is False."""
    if not ok.all():
        first = np.broadcast_to(values, ok.shape)[~ok][0]
        raise DomainError(f"{what}, got {float(first)!r}")


def _check_fraction(x):
    """Clamp x to [0, 1] element by element, allowing 1e-12 of slop outside."""
    x = np.asarray(x, dtype=float)
    _require((x >= -1e-12) & (x <= 1.0 + 1e-12), x, "expected values in [0, 1]")  # NaN fails
    return np.minimum(np.maximum(x, 0.0), 1.0)


def X_of(params: ModelParams, p: float, q: float, n: tuple[float, float, float]) -> float:
    """The omega-independent coefficient X for one outcome and one axis."""
    h, k = params.h, params.k
    nx, _, nz = n
    return p * (h * h * (1.0 - nz * nz) + 2.0 * k * k * (1.0 - nx * nx)) - (
        3.0 * h * k * q * nx * nz
    )


def Q_of(params: ModelParams, p, q, omega, n: tuple[float, float, float]):
    """Energy gain numerator Q for one outcome under rotation (omega, n).

    The caller guarantees |n| = 1; the teleported energy of a full policy is
    sum(Q) / eps.
    """
    x = X_of(params, p, q, n)
    # cos 2w - 1 = -2 sin^2 w, which keeps its digits where w is near 0 or pi
    sin_omega = np.sin(omega)
    return -2.0 * x * sin_omega * sin_omega - (
        params.h * params.k * q * n[1] * np.sin(2.0 * omega)
    )


def max_over_omega(params: ModelParams, p, q, n: tuple[float, float, float]) -> tuple:
    """Maximum of Q over the rotation angle for a fixed axis, and its argmax.

    Q = X cos(2w) - G sin(2w) - X with G = h k q n_y, so the maximum is
    sqrt(X^2 + G^2) - X at 2w = atan2(-G, X).  Q is pi-periodic; the angle is in
    (-pi/2, pi/2], so a small turn either way keeps its digits, and it is 0 where
    G = 0 <= X.  This is the package's one formula for the omega-maximum, value and
    angle.  At ``Y_AXIS`` it gives ``protocol.optimal_table``'s angles.

    It reads only ``params.h`` and ``params.k``, so any object with those
    two attributes will do.
    """
    x = X_of(params, p, q, n)
    g = params.h * params.k * q * n[1]
    radius = np.hypot(x, g)
    # For X > 0 the difference sqrt(X^2 + G^2) - X cancels when |G| << X.
    # g (g / (radius + x)) rather than g g / (radius + x): g g over- or underflows at
    # scales where the quotient does not.
    positive = x > 0.0
    value = np.where(positive, g * (g / np.where(positive, radius + x, 1.0)), radius - x)
    # 0.0 - g reads a zero G as +0: omega is never -0.0, and -pi/2 goes to pi/2
    omega = np.where((x == 0.0) & (g == 0.0), 0.0, 0.5 * np.arctan2(0.0 - g, x))
    return value, omega


def abc_constants(params: ModelParams, p, q) -> tuple:
    """The per-outcome constants (a, b, c) of the envelope T(z)."""
    h, k = params.h, params.k
    a = p * (h * h + 2.0 * k * k)
    spread = np.hypot((h * h - 2.0 * k * k) * p, 3.0 * h * k * q)
    b = 0.5 * (a + spread)
    return a, b, (h * k * q) ** 2


def min_X_over_psi(params: ModelParams, p, q, z):
    """Minimum of X over axes with n_x^2 + n_z^2 = z.

    Writing n_x = sqrt(z) cos(psi), n_z = sqrt(z) sin(psi), the psi-dependent
    part of X is sinusoidal, so the minimum is X_min(z) = a - b z; the
    remaining axis weight sits on n_y = sqrt(1 - z).
    """
    z = _check_fraction(z)
    a, b, _ = abc_constants(params, p, q)
    return a - b * z


def _envelope(abc: tuple, z):
    """T(z) of the constants (a, b, c) at checked z: T_profile's one arithmetic."""
    a, b, c = abc
    base = a - b * z
    return np.hypot(base, np.sqrt(np.maximum(c * (1.0 - z), 0.0))) - base


def T_profile(params: ModelParams, p: float, q: float, z):
    """Envelope of max-over-omega Q along the X-minimizing axis family, z in [0, 1]."""
    return _envelope(abc_constants(params, p, q), _check_fraction(z))


def t_witness(params: ModelParams, p: float, q: float, z):
    """Sign witness of T'(z): t(z) = 2 b T(z) - c, nonpositive on [0, 1]."""
    abc = abc_constants(params, p, q)
    return 2.0 * abc[1] * _envelope(abc, _check_fraction(z)) - abc[2]


def f_E(params: ModelParams, x):
    """Per-outcome teleported-energy kernel at x = (q/p)^2, in energy units.

    maxE_B = sum_mu p_mu f_E(x_mu); equals T(0) / (eps p) for one outcome.
    """
    x = _check_fraction(x)
    s2 = params.sin_sigma**2
    c2 = params.cos_sigma**2
    lift = 1.0 + s2
    y = (c2 * s2 / (lift * lift)) * x
    # sqrt(1 + y) - 1 written without its cancellation at small y
    return params.eps * lift * y / (np.sqrt(1.0 + y) + 1.0)


def f_I(params: ModelParams, x):
    """Per-outcome entanglement-consumption kernel at x = (q/p)^2, in nats.

    delta_S = sum_mu p_mu f_I(x_mu), the difference of the ground and
    post-measurement entanglement entropies: each is the entropy of a qubit
    state's eigenvalue pair (1 +- y)/2, with y = cos(sigma) for the ground state.
    """
    x = _check_fraction(x)
    y = np.sqrt(np.minimum(params.cos_sigma**2 + x * params.sin_sigma**2, 1.0))
    bias = np.stack([np.broadcast_to(params.cos_sigma, y.shape), y])  # ground, post-measurement
    entropy = shannon_entropy((1.0 + bias[..., None] * (1.0, -1.0)) / 2.0)  # of (1 +- bias)/2
    return entropy[0] - entropy[1]


def shannon_entropy(probs):
    """Shannon entropy in nats of a probability vector; 0 ln 0 = 0.

    A stack of vectors (..., n) gives one entropy per vector.
    """
    probs = np.asarray(probs, dtype=float)
    # written so that NaN fails
    _require((probs >= -1e-12) & (probs <= 1.0 + 1e-12), probs, "probability out of range")
    positive = probs > 0.0
    terms = np.where(positive, probs * np.log(np.where(positive, probs, 1.0)), 0.0)
    return -terms.sum(axis=-1)


def _outcome_sum(kernel, params: ModelParams, p, q):
    """sum_mu p_mu kernel((q_mu / p_mu)^2) over the leading outcome axis of p and q.

    An outcome with p <= DEGENERATE_PROB (padding too) adds exactly 0.  Terms
    add in outcome order, so a case gives the same bits alone and in a block.
    """
    live = np.asarray(p) > DEGENERATE_PROB
    x = (np.where(live, q, 0.0) / np.where(live, p, 1.0)) ** 2
    terms = np.where(live, p * kernel(params, x), 0.0)
    return np.add.accumulate(terms, axis=0)[-1]


def max_EB_closed(params: ModelParams, p, q):
    """Maximum teleported energy over feedback policies, from weights p, q of shape (n, ...)."""
    return _outcome_sum(f_E, params, p, q)


def delta_S_closed(params: ModelParams, p, q):
    """Entanglement consumption of the measurement, from weights p, q of shape (n, ...)."""
    return _outcome_sum(f_I, params, p, q)


def lambda_pm(params: ModelParams, p, q):
    """Eigenvalue pair of either reduced post-measurement state, per outcome (p, q)."""
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    _require(p > 0.0, p, "outcome weight p must be positive")  # NaN fails
    _require(np.abs(q) <= p * (1.0 + 1e-12), np.abs(q) - p, "|q| exceeds p: |q| - p")
    ratio2 = np.minimum((q / p) ** 2, 1.0)
    y = np.sqrt(np.minimum(params.cos_sigma**2 + ratio2 * params.sin_sigma**2, 1.0))
    return (1.0 + y) / 2.0, (1.0 - y) / 2.0


@np.errstate(divide="raise", invalid="raise")
def rescaled_f_E(params: ModelParams, x):
    """f_E normalized to unit slope at the origin; satisfies fbar_E(x) <= x."""
    c2 = params.cos_sigma**2
    s2 = params.sin_sigma**2
    return (2.0 * (1.0 + s2) / (c2 * s2)) / params.eps * f_E(params, x)


@np.errstate(divide="raise", invalid="raise")
def rescaled_f_I(params: ModelParams, x):
    """f_I normalized to unit slope at the origin; satisfies fbar_I(x) >= x."""
    c = params.cos_sigma
    s2 = params.sin_sigma**2
    log_ratio = np.log((1.0 + c) / (1.0 - c))
    return (4.0 * c / s2) / log_ratio * f_I(params, x)


@np.errstate(divide="raise", invalid="raise")
def bounds(params: ModelParams) -> BoundCoefficients:
    """The two bound constants.

    c32 multiplies maxE_B/eps from below by delta_S:
        delta_S >= c32 * maxE_B / eps
    c770 multiplies delta_S from below by maxE_B:
        maxE_B >= c770 * delta_S,
    with equality when every outcome has |q| = p.  c770 equals
    f_E(1) / f_I(1), and the explicit form below is tested against that
    quotient.  A division by zero (cos(sigma) rounding to 1) raises.
    """
    c = params.cos_sigma
    c2 = c * c
    s2 = params.sin_sigma**2
    c32 = (1.0 + s2) / (2.0 * c2 * c) * np.log((1.0 + c) / (1.0 - c))
    numerator = 2.0 * params.eps * (np.sqrt(4.0 - 3.0 * c2) - 2.0 + c2)
    denominator = (1.0 + c) * np.log(2.0 / (1.0 + c)) + (1.0 - c) * np.log(
        2.0 / (1.0 - c)
    )
    return BoundCoefficients(c32=c32, c770=numerator / denominator)


@np.errstate(divide="raise", invalid="raise")
def weak_limit_ratio(params: ModelParams, u):
    """delta_S / (maxE_B / eps) for the symmetric pair with q = +-u/2.

    Tends to c32 as u -> 0, with O(u^2) relative error.
    """
    u = np.asarray(u, dtype=float)
    _require((u > 0.0) & (u <= 1.0), u, "weak strength must lie in (0, 1]")
    x = u * u
    return params.eps * f_I(params, x) / f_E(params, x)

