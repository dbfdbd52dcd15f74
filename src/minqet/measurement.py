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

The batched data is the coefficient block: the (m, l, alpha, delta) rows of N
models as one (N, n, 4) array, zero-padded to the largest outcome count.
``draw_block`` balances and maps a block of padded random draws at once but
does not judge it: its consumer calls ``check_block``, which holds every POVM
constraint, once per block.  ``MeasurementModel`` is one model's (n, 4) rows,
checked once by ``check_block`` when it is built, and is the object of the
JSON and CLI edge; ``MeasurementModel.from_weights`` (weights p, q through
``canonical_coeffs``) and ``random_measurement`` (a one-member ``draw_block``)
build it by the same array path, ``weight_block`` reads its weights back and
``measured_kets`` applies it to kets.  Weights (n, ...) put the outcome axis
first, as ``analytic`` and ``balance_weights`` take them.
"""

from __future__ import annotations

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


@dataclass(frozen=True, eq=False)
class MeasurementModel:
    """A measurement as its read-only (n, 4) coefficient rows (m, l, alpha, delta).

    Construction checks every POVM constraint once, with ``check_block`` at
    WEIGHT_TOL, so any model that exists is a valid measurement.  Two models
    are equal when their rows are.  The rows are its only representation:
    ``weight_block`` reads its weights and ``kraus_operators`` its operators.
    """

    rows: np.ndarray

    def __post_init__(self) -> None:
        rows = np.array(self.rows, dtype=float)
        if len(rows) == 0:
            raise ConstraintViolation("normalization", 1.0, "no outcomes")
        check_block(rows)
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, MeasurementModel) and np.array_equal(self.rows, other.rows)

    @property
    def n_outcomes(self) -> int:
        return len(self.rows)

    @classmethod
    def from_weights(cls, p, q) -> "MeasurementModel":
        """The model of weights p, q (n,) by the canonical inverse map.

        Weights come from outside the package, so each outcome must first
        have finite p >= 0 and |q| <= p; the first outcome that breaks one
        raises ``ConstraintViolation`` of kind "balance".
        """
        p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
        bad = np.array([~(np.isfinite(p) & np.isfinite(q)), p < -1e-12, np.abs(q) > p + 1e-12])
        if bad.any():
            i, check = np.argwhere(bad.T)[0]
            residual, detail = (
                (math.inf, "weights must be finite"),
                (-p[i], "p must be nonnegative"),
                (abs(q[i]) - p[i], "|q| may not exceed p"),
            )[check]
            raise ConstraintViolation("balance", float(residual), detail)
        return cls(canonical_coeffs(p, q))


def canonical_coeffs(p, q) -> np.ndarray:
    """Coefficient rows (..., 4) of weights p, q (...) by the canonical inverse map.

    alpha = delta = 0; zero weights give a zero row, the padding of a block.
    """
    plus, minus = np.sqrt(np.maximum((p + q, p - q), 0.0))
    coeffs = np.zeros(plus.shape + (4,))
    coeffs[..., 0], coeffs[..., 1] = 0.5 * (plus + minus), 0.5 * (plus - minus)
    return coeffs


def coefficient_block(models) -> np.ndarray:
    """The (m, l, alpha, delta) rows of several models as one (N, n_max, 4) array.

    A model with fewer than n_max outcomes is padded with zero rows.  A zero
    row is the zero operator, an outcome of probability 0 that the Born rule
    treats as degenerate (below DEGENERATE_PROB).
    """
    n_max = max(model.n_outcomes for model in models)
    block = np.zeros((len(models), n_max, 4))
    for i, model in enumerate(models):
        block[i, : model.n_outcomes] = model.rows
    return block


def weight_block(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weights p, q (n,) or (n, N) of coefficient rows (n, 4) or a block (N, n, 4); padding is 0.

    The outcome axis comes first, as ``analytic``'s closed forms take it.
    """
    m, l, alpha = coeffs[..., :3].T
    return m * m + l * l, 2.0 * m * l * np.cos(alpha)


def kraus_operators(coeffs: np.ndarray) -> np.ndarray:
    """M_A(mu) tensored with identity on B for coefficient rows (..., 4): shape (..., 4, 4).

    The operators ``block_residuals`` checks; ``measured_kets`` applies M_A(mu) without them.
    """
    m, l, alpha, delta = (coeffs[..., i, None, None] for i in range(4))
    return np.exp(1j * delta) * (m * qmath.EYE4 + l * np.exp(1j * alpha) * qmath.X_A)


def measured_kets(ket: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """The unnormalized kets M_A(mu)|psi>, (..., n, 4), of kets (..., 4) and rows (..., n, 4).

    One ket (4,) takes one model's rows (n, 4), and kets (B, 4) a coefficient block (B, n, 4).
    sigma_A^x swaps the halves of a ket, so M_A(mu)|psi> = d psi + o psi[[2, 3, 0, 1]] with
    d = e^{i delta} m and o = e^{i delta} (l e^{i alpha}), the factors associated as
    ``kraus_operators`` associates them; no (..., n, 4, 4) operator is built.
    """
    m, l, alpha, delta = (coeffs[..., i, None] for i in range(4))
    phase = np.exp(1j * delta)
    ket = ket[..., None, :]
    return phase * (m + 0j) * ket + phase * (l * np.exp(1j * alpha)) * ket[..., [2, 3, 0, 1]]


def block_residuals(coeffs: np.ndarray) -> dict[str, np.ndarray]:
    """The four POVM constraint residuals of coefficient stacks (..., n, 4), each of shape (...).

    The commutation check uses the bare coupling operator
    sigma_A^x sigma_B^x; constants and the coupling strength cannot
    affect it.  Zero padding rows change none of the four.
    """
    m, l, alpha = coeffs[..., 0], coeffs[..., 1], coeffs[..., 2]
    ops = kraus_operators(coeffs)
    total = (np.swapaxes(ops.conj(), -1, -2) @ ops).sum(axis=-3)
    # XX maps basis state i to 3 - i: ops @ XX reverses the columns of ops, XX @ ops its rows
    return {
        "normalization": np.abs((m * m + l * l).sum(axis=-1) - 1.0),
        "balance": np.abs((m * l * np.cos(alpha)).sum(axis=-1)),
        "completeness": np.abs(total - qmath.EYE4).max(axis=(-2, -1)),
        "commutant": np.abs(ops[..., ::-1] - ops[..., ::-1, :]).max(axis=(-3, -2, -1)),
    }


def check_block(coeffs: np.ndarray) -> dict[str, np.ndarray]:
    """Raise ``ConstraintViolation`` unless coefficient rows meet every POVM constraint.

    ``coeffs`` holds one model's rows (n, 4) or a block (N, n, 4), checked
    in one ``block_residuals`` call, whose residuals it returns; in a block
    the message names the first failing member.  A residual over WEIGHT_TOL,
    or a NaN one, fails; a commutant residual raises the kind "completeness".
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN residual fails below
        residuals = block_residuals(coeffs)
    ok = np.array(list(residuals.values())) <= WEIGHT_TOL
    if ok.all():
        return residuals
    j, i = np.argwhere(~ok.reshape(len(residuals), -1))[0]
    name = list(residuals)[j]
    residual = float(residuals[name].flat[i])
    detail = [f"member {i}"] * (coeffs.ndim == 3)
    if name == "commutant":
        name, detail = "completeness", detail + ["operator fails to commute with the coupling"]
    raise ConstraintViolation(name, residual, ", ".join(detail))


def validate(model: MeasurementModel) -> MeasurementModel:
    """Re-check a model's POVM constraints; kept as perfbench's self-test calls it."""
    check_block(model.rows)
    return model


def input_energy_closed(params, coeffs: np.ndarray):
    """Energy deposited by the measurement on the ground state: (2 h^2 / eps) sum(l^2).

    ``coeffs`` holds one model's rows (n, 4) with a ``ModelParams``, or a
    block (N, n, 4) with a ``ParamsBlock``; the l^2 add in outcome order.
    """
    l = coeffs[..., 1]
    return 2.0 * params.h * params.h / params.eps * np.add.accumulate(l * l, axis=-1)[..., -1]


def balance_weights(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Shift raw draws u so the balanced weights q = clip(u - s, -1, 1) * p sum to zero.

    p and u are (n, ...), outcome axis first: each column is balanced on
    its own, and every sum over outcomes adds in outcome order.  R(s) =
    sum(clip(u - s, -1, 1) * p) is nonincreasing and linear between its 2n
    sorted knots u -+ 1.  The root is the first knot where R <= 0,
    interpolated back toward the previous knot where R < 0 there.  R = 0 at
    the knot takes the knot, also on a piece where R stays zero: only
    zero-mass outcomes are unclipped there, so every s on it gives the same q.
    """
    knots = np.sort(np.concatenate((u - 1.0, u + 1.0)), axis=0)
    # R at every knot from one (n, 2n, ...) temporary, clipped and weighted in place
    terms = u[:, None] - knots
    np.minimum(np.maximum(terms, -1.0, out=terms), 1.0, out=terms)
    r = np.multiply(terms, p[:, None], out=terms).sum(axis=0)  # adds in outcome order
    j = np.argmax(r <= 0.0, axis=0)
    # flat indices of the knot at j and of the knot before it (j itself where j = 0)
    at = j * j.size + np.arange(j.size).reshape(j.shape)
    before = at - j.size * (j > 0)
    s, s_before, r_j, r_before = (np.take(a, i) for a in (knots, r) for i in (at, before))
    back = (j > 0) & (r_j < 0.0)
    s = np.where(back, s + r_j * (s - s_before) / np.where(back, r_before - r_j, 1.0), s)
    return np.minimum(np.maximum(u - s, -1.0), 1.0) * p


def raw_draw(rng: np.random.Generator, n_outcomes: int) -> tuple[np.ndarray, np.ndarray]:
    """One member's raw draws, in this order: Dirichlet p and uniform u in [-1, 1], each (n,).

    Requires ``n_outcomes >= 2`` (a single outcome admits only the identity).

    p is Dirichlet(1, ..., 1) drawn as ``rng.dirichlet`` draws it: n
    Gamma(1) variates, which are standard exponentials, times the
    reciprocal of their sum.  That sum is the running one, as
    ``np.add.accumulate`` forms it; ``e.sum()`` adds pairwise from 8 terms
    on and would round differently.  So p has the bits of
    ``rng.dirichlet(np.ones(n))`` at a third of its cost.
    """
    if n_outcomes < 2:
        raise ValueError(f"need at least 2 outcomes, got {n_outcomes}")
    e = rng.standard_exponential(n_outcomes)
    return e * (1.0 / np.add.accumulate(e)[-1]), rng.uniform(-1.0, 1.0, size=n_outcomes)


def draw_block(p: np.ndarray, u: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The coefficient block (N, n, 4) of raw draws p, u (N, n), not yet checked.

    Member i has ``counts[i]`` outcomes, with p zero past them.  Each count's
    members are balanced in one ``balance_weights`` call, and the block is
    mapped by ``canonical_coeffs``; its consumer checks it once, with ``check_block``.
    """
    q = np.zeros_like(p)
    for n in np.unique(counts):
        rows = counts == n
        q[rows, :n] = balance_weights(p[rows, :n].T, u[rows, :n].T).T
    return canonical_coeffs(p, q)


def random_measurement(seed, n_outcomes: int = 2) -> MeasurementModel:
    """Draw a valid measurement uniformly-ish: Dirichlet p, balanced bounded q.

    ``seed`` may be an integer or a ``numpy.random.Generator``; the model is
    the one-member ``draw_block`` of ``raw_draw``, checked once as it is built.
    Requires ``n_outcomes >= 2`` (a single outcome admits only the identity).
    """
    rng = np.random.default_rng(seed)  # a Generator passes through unchanged
    p, u = raw_draw(rng, n_outcomes)
    return MeasurementModel(draw_block(p[None], u[None], np.full(1, n_outcomes))[0])


def projective_pair() -> MeasurementModel:
    """The two sigma_A^x eigenprojectors: weights (1/2, +1/2) and (1/2, -1/2)."""
    return MeasurementModel.from_weights([0.5, 0.5], [0.5, -0.5])


def weak_pair(u: float) -> MeasurementModel:
    """Two outcomes with p = 1/2 each and q = ±u/2; u in [0, 1]."""
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"weak-measurement strength must lie in [0, 1], got {u}")
    return MeasurementModel.from_weights([0.5, 0.5], [0.5 * u, -0.5 * u])


def identity_measurement() -> MeasurementModel:
    """The trivial single-outcome measurement (no disturbance, no information)."""
    return MeasurementModel([[1.0, 0.0, 0.0, 0.0]])


def to_json_obj(model: MeasurementModel) -> dict:
    """JSON-ready description using the coefficient parametrization."""
    keys = ("m", "l", "alpha", "delta")
    return {"outcomes": [dict(zip(keys, row)) for row in model.rows.tolist()]}


def from_json_obj(obj: dict) -> MeasurementModel:
    """Parse a measurement from a JSON object.

    Exactly one of two keys must be present: ``"outcomes"`` (a list of
    ``{"m", "l", "alpha", "delta"}``, phases optional) or ``"weights"``
    (a list of ``{"p", "q"}``, converted by the canonical inverse map).
    """
    if not isinstance(obj, dict):
        raise ValueError("measurement description must be a JSON object")
    if ("outcomes" in obj) == ("weights" in obj):
        raise ValueError(
            "measurement description needs exactly one of 'outcomes' or 'weights'"
        )
    key = "outcomes" if "outcomes" in obj else "weights"
    entries = obj[key]
    if not isinstance(entries, list) or not entries:
        raise ValueError(f"'{key}' must be a non-empty list")
    rows = []
    for i, e in enumerate(entries):
        try:
            if key == "outcomes":
                m, l = float(e["m"]), float(e["l"])
                rows.append([m, l, float(e.get("alpha", 0.0)), float(e.get("delta", 0.0))])
            else:
                rows.append([float(e["p"]), float(e["q"])])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad {key[:-1]} entry at index {i}: {exc}") from exc
    if key == "outcomes":
        return MeasurementModel(rows)
    return MeasurementModel.from_weights(*np.array(rows).T)
