"""Closed forms for teleported energy, its maximization, and the two bounds.

Everything here is arithmetic derived by hand from the model, on floats or,
where a docstring says so, on NumPy arrays; no operator algebra happens in
this module.  The brute-force counterparts live in ``protocol`` and
``entanglement``, and the test suite's job is to make the two routes agree.

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

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams

LN2 = math.log(2.0)


class DomainError(ValueError):
    """Argument outside the closed form's domain of validity."""


@dataclass(frozen=True)
class BoundCoefficients:
    """The two parameter-only constants relating delta-S and maxE_B."""

    c32: float
    c770: float


def _check_fraction(x):
    """Clamp x (a float or an array) to [0, 1], allowing 1e-12 of slop outside."""
    if isinstance(x, np.ndarray):
        bad = ~((x >= -1e-12) & (x <= 1.0 + 1e-12))  # NaN is bad too
        if bad.any():
            raise DomainError(f"expected values in [0, 1], got {float(x[bad][0])!r}")
        return np.clip(x, 0.0, 1.0)
    if not math.isfinite(x) or x < -1e-12 or x > 1.0 + 1e-12:
        raise DomainError(f"expected a value in [0, 1], got {x!r}")
    return min(max(x, 0.0), 1.0)


def X_of(params: ModelParams, p: float, q: float, n: tuple[float, float, float]) -> float:
    """The omega-independent coefficient X for one outcome and one axis.

    Like ``max_over_omega``, it also takes arrays that broadcast together.
    """
    h, k = params.h, params.k
    nx, _, nz = n
    return p * (h * h * (1.0 - nz * nz) + 2.0 * k * k * (1.0 - nx * nx)) - (
        3.0 * h * k * q * nx * nz
    )


def Q_of(
    params: ModelParams,
    p: float,
    q: float,
    omega: float,
    n: tuple[float, float, float],
) -> float:
    """Energy gain numerator Q for one outcome under rotation (omega, n).

    The caller guarantees |n| = 1; the teleported energy of a full policy is
    sum(Q) / eps.  Broadcasts like ``max_over_omega``; float inputs give a
    float.
    """
    x = X_of(params, p, q, n)
    # cos 2w - 1 = -2 sin^2 w, which keeps its digits where w is near 0 or pi
    sin_omega = np.sin(omega)
    value = -2.0 * x * sin_omega * sin_omega - (
        params.h * params.k * q * n[1] * np.sin(2.0 * omega)
    )
    return float(value) if np.ndim(value) == 0 else value


def max_over_omega(
    params: ModelParams, p: float, q: float, n: tuple[float, float, float]
) -> tuple[float, float]:
    """Maximum of Q over the rotation angle for a fixed axis, and its argmax.

    Q = X cos(2w) - G sin(2w) - X with G = h k q n_y, so the maximum is
    sqrt(X^2 + G^2) - X at 2w = atan2(-G, X).  The angle is reported in
    [0, pi) since Q is pi-periodic.  This is the package's one formula for
    the omega-maximum; the policy optimizer searches the axis over it.

    Array-valued: ``params.h``, ``params.k``, p, q and the three axis
    components may be NumPy arrays that broadcast together (``params``
    then only needs ``h`` and ``k`` attributes), and both results take
    their shape.  Float inputs give floats.
    """
    x = X_of(params, p, q, n)
    g = params.h * params.k * q * n[1]
    radius = np.hypot(x, g)
    omega = np.where(radius == 0.0, 0.0, 0.5 * np.arctan2(-g, x) % math.pi)
    # For X > 0 the difference sqrt(X^2 + G^2) - X cancels when |G| << X.
    positive = x > 0.0
    value = np.where(positive, g * g / np.where(positive, radius + x, 1.0), radius - x)
    if value.ndim == 0:
        return float(value), float(omega)
    return value, omega


def abc_constants(params: ModelParams, p: float, q: float) -> tuple[float, float, float]:
    """The per-outcome constants (a, b, c) of the envelope T(z).

    h, k, p and q may be arrays that broadcast together; float inputs give
    floats.
    """
    h, k = params.h, params.k
    a = p * (h * h + 2.0 * k * k)
    spread = np.hypot((h * h - 2.0 * k * k) * p, 3.0 * h * k * q)
    b = 0.5 * (a + spread)
    c = (h * k * q) ** 2
    if np.ndim(b) == 0:
        return float(a), float(b), float(c)
    return a, b, c


def min_X_over_psi(params: ModelParams, p: float, q: float, z: float) -> float:
    """Minimum of X over axes with n_x^2 + n_z^2 = z.

    Writing n_x = sqrt(z) cos(psi), n_z = sqrt(z) sin(psi), the psi-dependent
    part of X is sinusoidal, so the minimum is X_min(z) = a - b z; the
    remaining axis weight sits on n_y = sqrt(1 - z).
    """
    z = _check_fraction(z)
    a, b, _ = abc_constants(params, p, q)
    return a - b * z


def T_profile(params: ModelParams, p: float, q: float, z):
    """Envelope of max-over-omega Q along the X-minimizing axis family.

    z may be a float or an array of values in [0, 1]; it broadcasts with
    the arrays ``abc_constants`` takes.
    """
    z = _check_fraction(z)
    a, b, c = abc_constants(params, p, q)
    base = a - b * z
    return np.hypot(base, np.sqrt(np.maximum(c * (1.0 - z), 0.0))) - base


def t_witness(params: ModelParams, p: float, q: float, z):
    """Sign witness of T'(z): t(z) = 2 b T(z) - c, nonpositive on [0, 1]."""
    _, b, c = abc_constants(params, p, q)
    return 2.0 * b * T_profile(params, p, q, z) - c


def t_sign_check(params: ModelParams, p: float, q: float, n_grid: int = 129) -> bool:
    """Grid evidence that T peaks at z = 0: t(z) <= 0 and T(0) >= T(z).

    Slack of 1e-12 relative to the outcome's energy scale absorbs rounding.
    Over arrays of outcomes (as ``abc_constants`` takes them) the verdict is
    a bool array; float inputs give a bool.
    """
    a, _, c = abc_constants(params, p, q)
    scale = np.maximum(np.maximum(1.0, a), np.sqrt(c))
    t0 = T_profile(params, p, q, 0.0)
    # the grid runs along a leading axis, so the outcomes broadcast behind it
    z = (np.arange(n_grid) / (n_grid - 1)).reshape((-1,) + (1,) * np.ndim(a))
    bad = np.any(t_witness(params, p, q, z) > 1e-12 * scale * scale, axis=0) | np.any(
        T_profile(params, p, q, z) > t0 + 1e-12 * scale, axis=0
    )
    return bool(~bad) if np.ndim(bad) == 0 else ~bad


def optimal_rotation(
    params: ModelParams, p: float, q: float
) -> tuple[float, tuple[float, float, float]]:
    """The (omega, axis) attaining the per-outcome maximum: axis y, z = 0.

    With n = (0, 1, 0) the coefficients are X = a and G = h k q, so
    2 omega = atan2(-h k q, a); the angle is reported in [0, pi).
    """
    a, _, c = abc_constants(params, p, q)
    if a == 0.0 and c == 0.0:
        return 0.0, (0.0, 1.0, 0.0)
    omega = 0.5 * math.atan2(-params.h * params.k * q, a)
    return omega % math.pi, (0.0, 1.0, 0.0)


def f_E(params: ModelParams, x: float) -> float:
    """Per-outcome teleported-energy kernel at x = (q/p)^2, in energy units.

    maxE_B = sum_mu p_mu f_E(x_mu); equals T(0) / (eps p) for one outcome.
    """
    x = _check_fraction(x)
    s2 = params.sin_sigma**2
    c2 = params.cos_sigma**2
    lift = 1.0 + s2
    y = (c2 * s2 / (lift * lift)) * x
    # sqrt(1 + y) - 1 written without its cancellation at small y
    return params.eps * lift * y / (math.sqrt(1.0 + y) + 1.0)


def f_I(params: ModelParams, x: float) -> float:
    """Per-outcome entanglement-consumption kernel at x = (q/p)^2, in nats.

    delta_S = sum_mu p_mu f_I(x_mu), the difference of the ground and
    post-measurement entanglement entropies.
    """
    x = _check_fraction(x)
    c2 = params.cos_sigma**2
    s2 = params.sin_sigma**2
    y = math.sqrt(min(c2 + x * s2, 1.0))
    return _bias_entropy(params.cos_sigma) - _bias_entropy(y)


def _bias_entropy(y: float) -> float:
    """Entropy in nats of the eigenvalue pair (1 ± y)/2 of a qubit state."""
    if y < 0.0 or y > 1.0 + 1e-12:
        raise DomainError(f"bias must lie in [0, 1], got {y!r}")
    y = min(y, 1.0)
    total = 0.0
    for lam in ((1.0 + y) / 2.0, (1.0 - y) / 2.0):
        if lam > 0.0:
            total -= lam * math.log(lam)
    return total


def shannon_entropy(probs) -> float:
    """Shannon entropy in nats of a probability vector; 0 ln 0 = 0.

    A stack of vectors (..., n) gives one entropy per vector.
    """
    probs = np.asarray(probs, dtype=float)
    bad = (probs < -1e-12) | (probs > 1.0 + 1e-12)
    if bad.any():
        raise DomainError(f"probability out of range: {float(probs[bad][0])!r}")
    positive = probs > 0.0
    terms = np.where(positive, probs * np.log(np.where(positive, probs, 1.0)), 0.0)
    total = -terms.sum(axis=-1)
    return float(total) if total.ndim == 0 else total


def max_EB_closed(params: ModelParams, weights) -> float:
    """Maximum teleported energy over feedback policies, from the weights."""
    total = 0.0
    for w in weights:
        if w.p > 1e-14:
            total += w.p * f_E(params, (w.q / w.p) ** 2)
    return total


def delta_S_closed(params: ModelParams, weights) -> float:
    """Entanglement consumption of the measurement, from the weights."""
    total = 0.0
    for w in weights:
        if w.p > 1e-14:
            total += w.p * f_I(params, (w.q / w.p) ** 2)
    return total


def lambda_pm(params: ModelParams, p: float, q: float) -> tuple[float, float]:
    """Eigenvalue pair of either reduced post-measurement state for one outcome."""
    if p <= 0.0:
        raise DomainError(f"outcome weight p must be positive, got {p!r}")
    if abs(q) > p * (1.0 + 1e-12):
        raise DomainError(f"|q| = {abs(q)!r} exceeds p = {p!r}")
    ratio2 = min((q / p) ** 2, 1.0)
    y = math.sqrt(min(params.cos_sigma**2 + ratio2 * params.sin_sigma**2, 1.0))
    return (1.0 + y) / 2.0, (1.0 - y) / 2.0


def rescaled_f_E(params: ModelParams, x: float) -> float:
    """f_E normalized to unit slope at the origin; satisfies fbar_E(x) <= x."""
    c2 = params.cos_sigma**2
    s2 = params.sin_sigma**2
    return (2.0 * (1.0 + s2) / (c2 * s2)) / params.eps * f_E(params, x)


def rescaled_f_I(params: ModelParams, x: float) -> float:
    """f_I normalized to unit slope at the origin; satisfies fbar_I(x) >= x."""
    c = params.cos_sigma
    s2 = params.sin_sigma**2
    log_ratio = math.log((1.0 + c) / (1.0 - c))
    return (4.0 * c / s2) / log_ratio * f_I(params, x)


def rescaled_fbar(params: ModelParams, x: float, which: str) -> float:
    """Dispatch to the rescaled kernel named by ``which`` ("E" or "I")."""
    if which == "E":
        return rescaled_f_E(params, x)
    if which == "I":
        return rescaled_f_I(params, x)
    raise ValueError(f"which must be 'E' or 'I', got {which!r}")


def bounds(params: ModelParams) -> BoundCoefficients:
    """The two bound constants.

    c32 multiplies maxE_B/eps from below by delta_S:
        delta_S >= c32 * maxE_B / eps
    c770 multiplies delta_S from below by maxE_B:
        maxE_B >= c770 * delta_S,
    with equality when every outcome has |q| = p.  c770 equals
    f_E(1) / f_I(1), and the explicit form below is tested against that
    quotient.
    """
    c = params.cos_sigma
    c2 = c * c
    s2 = params.sin_sigma**2
    c32 = (1.0 + s2) / (2.0 * c2 * c) * math.log((1.0 + c) / (1.0 - c))
    numerator = 2.0 * params.eps * (math.sqrt(4.0 - 3.0 * c2) - 2.0 + c2)
    denominator = (1.0 + c) * math.log(2.0 / (1.0 + c)) + (1.0 - c) * math.log(
        2.0 / (1.0 - c)
    )
    return BoundCoefficients(c32=c32, c770=numerator / denominator)


def weak_limit_ratio(params: ModelParams, u: float) -> float:
    """delta_S / (maxE_B / eps) for the symmetric pair with q = ±u/2.

    Tends to c32 as u -> 0, with O(u^2) relative error.
    """
    if not 0.0 < u <= 1.0:
        raise DomainError(f"weak strength must lie in (0, 1], got {u!r}")
    x = u * u
    return params.eps * f_I(params, x) / f_E(params, x)


def nats_to_bits(value: float) -> float:
    return value / LN2
