"""POVM class commuting with the interaction, and its two parametrizations.

Each outcome mu of a measurement on qubit A is implemented by a Kraus
operator

    M_A(mu) = exp(i delta) * (m + exp(i alpha) * l * sigma_A^x)

with real m, l and phases alpha, delta.  Completeness requires
sum(m^2 + l^2) = 1 and sum(m l cos alpha) = 0.  The positive operator of
outcome mu is

    Pi_A(mu) = p + q * sigma_A^x,    p = m^2 + l^2,    q = 2 m l cos alpha,

so a measurement is equally well described by outcome weights (p, q) with
sum(p) = 1, sum(q) = 0 and p >= |q|.  The canonical inverse map used when a
measurement is given by weights alone is

    m = (sqrt(p + q) + sqrt(p - q)) / 2
    l = (sqrt(p + q) - sqrt(p - q)) / 2
    alpha = delta = 0.

Every such Kraus operator commutes with the x-x coupling, which is what
makes the post-measurement state carry no interaction energy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import qmath

WEIGHT_TOL = 1e-10
DEGENERATE_PROB = 1e-14


class ConstraintViolation(ValueError):
    """A measurement description breaks one of the POVM constraints.

    ``kind`` is one of ``"normalization"`` (sum of p differs from 1),
    ``"balance"`` (sum of q differs from 0, or a q exceeds its p), or
    ``"completeness"`` (the Kraus operators do not sum to the identity
    numerically).  ``residual`` is the offending magnitude.
    """

    def __init__(self, kind: str, residual: float, detail: str = ""):
        self.kind = kind
        self.residual = residual
        msg = f"{kind} constraint violated (residual {residual:.3e})"
        if detail:
            msg += ": " + detail
        super().__init__(msg)


class NotNormalized(ValueError):
    """A state vector passed where a unit-norm ket is required."""


@dataclass(frozen=True)
class KrausCoefficients:
    """One outcome's operator coefficients (m, l, alpha, delta)."""

    m: float
    l: float
    alpha: float = 0.0
    delta: float = 0.0

    @property
    def p(self) -> float:
        return self.m * self.m + self.l * self.l

    @property
    def q(self) -> float:
        return 2.0 * self.m * self.l * math.cos(self.alpha)


@dataclass(frozen=True)
class OutcomeWeights:
    """One outcome's positive-operator weights (p, q) with p >= |q| >= 0."""

    p: float
    q: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.p) and math.isfinite(self.q)):
            raise ConstraintViolation("balance", math.inf, "weights must be finite")
        if self.p < -1e-12:
            raise ConstraintViolation("balance", -self.p, "p must be nonnegative")
        if abs(self.q) > self.p + 1e-12:
            raise ConstraintViolation(
                "balance", abs(self.q) - self.p, "|q| may not exceed p"
            )


@dataclass(frozen=True)
class MeasurementModel:
    """A finite list of outcomes; the coefficients are the stored truth.

    The weight view is derived from the frozen coefficients on first access
    and cached, so the two parametrizations can never drift apart.  Scalar
    constraints (normalization and balance) are enforced at construction;
    the operator-level checks live in :func:`validate`.
    """

    coeffs: tuple[KrausCoefficients, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) == 0:
            raise ConstraintViolation("normalization", 1.0, "no outcomes")
        norm_residual = abs(sum(c.p for c in self.coeffs) - 1.0)
        if norm_residual > WEIGHT_TOL:
            raise ConstraintViolation("normalization", norm_residual)
        balance_residual = abs(sum(c.m * c.l * math.cos(c.alpha) for c in self.coeffs))
        if balance_residual > WEIGHT_TOL:
            raise ConstraintViolation("balance", balance_residual)

    @property
    def n_outcomes(self) -> int:
        return len(self.coeffs)

    @functools.cached_property
    def weights(self) -> tuple[OutcomeWeights, ...]:
        return tuple(OutcomeWeights(c.p, c.q) for c in self.coeffs)

    @functools.cached_property
    def kraus(self) -> np.ndarray:
        """The read-only (n, 4, 4) stack of M_A(mu) tensored with identity on B."""
        stack = kraus_operators(coefficient_block([self])[0])
        stack.setflags(write=False)
        return stack

    @classmethod
    def from_weights(cls, weights) -> "MeasurementModel":
        return cls(tuple(_coeffs_from_weight(w) for w in weights))


def _coeffs_from_weight(w: OutcomeWeights) -> KrausCoefficients:
    """Canonical Kraus coefficients for one outcome's weights (alpha = delta = 0)."""
    root_plus = math.sqrt(max(w.p + w.q, 0.0))
    root_minus = math.sqrt(max(w.p - w.q, 0.0))
    return KrausCoefficients(
        m=0.5 * (root_plus + root_minus), l=0.5 * (root_plus - root_minus)
    )


def weights_to_coeffs(weights) -> MeasurementModel:
    """Model realizing the given weights canonically; validates and round-trips.

    Raises ``ConstraintViolation`` if the weights are not a valid POVM
    description (sum p = 1, sum q = 0, p >= |q|).
    """
    return validate(_coeffs_from_weight(OutcomeWeights(w.p, w.q)) for w in weights)


def coefficient_block(models) -> np.ndarray:
    """The (m, l, alpha, delta) rows of several models as one (N, n_max, 4) array.

    A model with fewer than n_max outcomes is padded with zero rows.  A zero
    row is the zero operator, an outcome of probability 0 that the Born rule
    treats as degenerate (below DEGENERATE_PROB).
    """
    n_max = max(model.n_outcomes for model in models)
    block = np.zeros((len(models), n_max, 4))
    for i, model in enumerate(models):
        block[i, : model.n_outcomes] = [(c.m, c.l, c.alpha, c.delta) for c in model.coeffs]
    return block


def kraus_operators(coeffs: np.ndarray) -> np.ndarray:
    """M_A(mu) tensored with identity on B for coefficient rows (..., 4): shape (..., 4, 4)."""
    m, l, alpha, delta = (coeffs[..., i, None, None] for i in range(4))
    return np.exp(1j * delta) * (m * qmath.EYE4 + l * np.exp(1j * alpha) * qmath.X_A)


def block_residuals(coeffs: np.ndarray) -> dict[str, np.ndarray]:
    """The four POVM constraint residuals of coefficient stacks (..., n, 4), each of shape (...).

    The commutation check uses the bare coupling operator
    sigma_A^x sigma_B^x; constants and the coupling strength cannot
    affect it.  Zero padding rows change none of the four.
    """
    m, l, alpha = coeffs[..., 0], coeffs[..., 1], coeffs[..., 2]
    ops = kraus_operators(coeffs)
    total = (np.swapaxes(ops.conj(), -1, -2) @ ops).sum(axis=-3)
    return {
        "normalization": np.abs((m * m + l * l).sum(axis=-1) - 1.0),
        "balance": np.abs((m * l * np.cos(alpha)).sum(axis=-1)),
        "completeness": np.abs(total - qmath.EYE4).max(axis=(-2, -1)),
        "commutant": np.abs(ops @ qmath.XX - qmath.XX @ ops).max(axis=(-3, -2, -1)),
    }


def constraint_residuals(model: MeasurementModel) -> dict[str, float]:
    """All four POVM constraint residuals of one model, without judging them."""
    residuals = block_residuals(coefficient_block([model])[0])
    return {kind: float(value) for kind, value in residuals.items()}


def validate(coeffs, tol: float = WEIGHT_TOL) -> MeasurementModel:
    """Build a model from Kraus coefficients and check every POVM constraint.

    ``coeffs`` is an iterable of ``KrausCoefficients`` (or an existing
    ``MeasurementModel``, which is re-checked).  Beyond the scalar
    constraints, this verifies numerically that the operators sum to the
    identity and commute with the coupling.  Raises ``ConstraintViolation``
    with the offending residual.
    """
    if isinstance(coeffs, MeasurementModel):
        model = coeffs
    else:
        model = MeasurementModel(tuple(coeffs))
    residuals = constraint_residuals(model)
    for kind in ("normalization", "balance", "completeness"):
        if residuals[kind] > tol:
            raise ConstraintViolation(kind, residuals[kind])
    if residuals["commutant"] > tol:
        raise ConstraintViolation(
            "completeness",
            residuals["commutant"],
            "operator fails to commute with the coupling",
        )
    return model


def input_energy_closed(model: MeasurementModel, params) -> float:
    """Energy deposited by the measurement on the ground state: (2 h^2 / eps) sum(l^2)."""
    total_l2 = sum(c.l * c.l for c in model.coeffs)
    return 2.0 * params.h * params.h / params.eps * total_l2


def balance_weights(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Shift raw draws u so the balanced weights q = clip(u - s, -1, 1) * p sum to zero.

    R(s) = sum(clip(u - s, -1, 1) * p) is nonincreasing and linear between
    its 2n sorted knots u -+ 1.  The root is the first knot where R <= 0,
    interpolated back toward the previous knot where R < 0 there.  R = 0 at
    the knot takes the knot, also on a piece where R stays zero: only
    zero-mass outcomes are unclipped there, so every s on it gives the same q.
    """
    knots = np.sort(np.concatenate((u - 1.0, u + 1.0)))
    r = (np.clip(u - knots[:, None], -1.0, 1.0) * p).sum(axis=1)
    j = int(np.argmax(r <= 0.0))
    s = knots[j]
    if j > 0 and r[j] < 0.0:
        s += r[j] * (knots[j] - knots[j - 1]) / (r[j - 1] - r[j])
    return np.clip(u - s, -1.0, 1.0) * p


def random_measurement(seed, n_outcomes: int = 2) -> MeasurementModel:
    """Draw a valid measurement uniformly-ish: Dirichlet p, balanced bounded q.

    ``seed`` may be an integer or a ``numpy.random.Generator``.  Requires
    ``n_outcomes >= 2`` (a single outcome admits only the identity).
    """
    if n_outcomes < 2:
        raise ValueError(f"need at least 2 outcomes, got {n_outcomes}")
    rng = np.random.default_rng(seed)  # a Generator passes through unchanged
    p = rng.dirichlet(np.ones(n_outcomes))
    u = rng.uniform(-1.0, 1.0, size=n_outcomes)
    q = balance_weights(p, u)
    return weights_to_coeffs(map(OutcomeWeights, p.tolist(), q.tolist()))


def projective_pair() -> MeasurementModel:
    """The two sigma_A^x eigenprojectors: weights (1/2, +1/2) and (1/2, -1/2)."""
    return MeasurementModel.from_weights(
        [OutcomeWeights(0.5, 0.5), OutcomeWeights(0.5, -0.5)]
    )


def weak_pair(u: float) -> MeasurementModel:
    """Two outcomes with p = 1/2 each and q = ±u/2; u in [0, 1]."""
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"weak-measurement strength must lie in [0, 1], got {u}")
    return MeasurementModel.from_weights(
        [OutcomeWeights(0.5, 0.5 * u), OutcomeWeights(0.5, -0.5 * u)]
    )


def identity_measurement() -> MeasurementModel:
    """The trivial single-outcome measurement (no disturbance, no information)."""
    return MeasurementModel((KrausCoefficients(m=1.0, l=0.0),))


def to_json_obj(model: MeasurementModel) -> dict:
    """JSON-ready description using the coefficient parametrization."""
    return {
        "outcomes": [
            {"m": c.m, "l": c.l, "alpha": c.alpha, "delta": c.delta}
            for c in model.coeffs
        ]
    }


def from_json_obj(obj: dict) -> MeasurementModel:
    """Parse a measurement from a JSON object.

    Exactly one of two keys must be present: ``"outcomes"`` (a list of
    ``{"m", "l", "alpha", "delta"}``, phases optional) or ``"weights"``
    (a list of ``{"p", "q"}``, converted by the canonical inverse map).
    """
    if not isinstance(obj, dict):
        raise ValueError("measurement description must be a JSON object")
    has_outcomes = "outcomes" in obj
    has_weights = "weights" in obj
    if has_outcomes == has_weights:
        raise ValueError(
            "measurement description needs exactly one of 'outcomes' or 'weights'"
        )
    if has_outcomes:
        entries = obj["outcomes"]
        if not isinstance(entries, list) or not entries:
            raise ValueError("'outcomes' must be a non-empty list")
        coeffs = []
        for i, e in enumerate(entries):
            try:
                coeffs.append(
                    KrausCoefficients(
                        m=float(e["m"]),
                        l=float(e["l"]),
                        alpha=float(e.get("alpha", 0.0)),
                        delta=float(e.get("delta", 0.0)),
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"bad outcome entry at index {i}: {exc}") from exc
        return MeasurementModel(tuple(coeffs))
    entries = obj["weights"]
    if not isinstance(entries, list) or not entries:
        raise ValueError("'weights' must be a non-empty list")
    weights = []
    for i, e in enumerate(entries):
        try:
            weights.append(OutcomeWeights(p=float(e["p"]), q=float(e["q"])))
        except ConstraintViolation:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad weight entry at index {i}: {exc}") from exc
    return MeasurementModel.from_weights(weights)
