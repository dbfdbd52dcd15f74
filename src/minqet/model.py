"""Two-qubit transverse-field Ising system with a nonnegative total Hamiltonian.

The system is two spins A, B with local fields along z and an x-x coupling,
shifted by constants so the ground energy is exactly zero:

    H_A = h * sigma_A^z + h^2 / eps
    H_B = h * sigma_B^z + h^2 / eps
    V   = 2 k * sigma_A^x sigma_B^x + 2 k^2 / eps
    H   = H_A + H_B + V,        eps = sqrt(h^2 + k^2)

with h > 0, k > 0.  The mixing angle sigma of the ground state satisfies
cos(sigma) = h / eps and sin(sigma) = k / eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import qmath


class InvalidParams(ValueError):
    """Model parameters outside the open quadrant h > 0, k > 0."""


def params_row(h: float, k: float) -> tuple[float, float, float, float, float]:
    """One case's (h, k, eps, cos_sigma, sin_sigma) from its floats h and k, unchecked.

    This is the arithmetic ``ModelParams`` itself uses, so a row gives a
    ``ParamsBlock`` the bits a ``ModelParams`` of the same (h, k) would.
    """
    eps = math.hypot(h, k)
    return h, k, eps, h / eps, k / eps


@dataclass(frozen=True)
class ModelParams:
    """Field strength ``h`` and coupling ``k``, both strictly positive.

    ``eps``, ``cos_sigma`` and ``sin_sigma`` are computed once, by
    ``params_row``, and take no part in equality or hashing.
    """

    h: float
    k: float
    eps: float = field(init=False, repr=False, compare=False)
    cos_sigma: float = field(init=False, repr=False, compare=False)
    sin_sigma: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        h, k = self.h, self.k
        if not (isinstance(h, (int, float)) and isinstance(k, (int, float))):
            raise InvalidParams(f"h and k must be real numbers, got {h!r}, {k!r}")
        if not (math.isfinite(h) and math.isfinite(k)):
            raise InvalidParams(f"h and k must be finite, got h={h}, k={k}")
        if h <= 0.0 or k <= 0.0:
            raise InvalidParams(f"h and k must be strictly positive, got h={h}, k={k}")
        for name, value in zip(("eps", "cos_sigma", "sin_sigma"), params_row(h, k)[2:]):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class ParamsBlock:
    """Several ``ModelParams`` side by side: each attribute is an (N,) array.

    The values are the cases' own (h, k, eps, cos_sigma, sin_sigma), so a
    function of ``params`` that broadcasts gives each case the numbers it
    would get alone.
    """

    h: np.ndarray
    k: np.ndarray
    eps: np.ndarray
    cos_sigma: np.ndarray
    sin_sigma: np.ndarray

    @classmethod
    def of(cls, params) -> "ParamsBlock":
        return cls.of_rows([(p.h, p.k, p.eps, p.cos_sigma, p.sin_sigma) for p in params])

    @classmethod
    def of_rows(cls, rows) -> "ParamsBlock":
        """The block of a list of ``params_row`` rows (h, k, eps, cos_sigma, sin_sigma)."""
        return cls(*np.array(rows, dtype=float).reshape(-1, 5).T)

    def __getitem__(self, index) -> "ParamsBlock":
        """The cases at ``index`` (a slice or an index array), as a block."""
        return ParamsBlock(*(x[index] for x in vars(self).values()))


@dataclass(frozen=True)
class HamiltonianParts:
    """The three commutation-checked summands and their total, as 4x4 arrays.

    Built from a ``ParamsBlock``, each is an (N, 4, 4) stack.
    """

    h_a: np.ndarray
    h_b: np.ndarray
    v: np.ndarray
    total: np.ndarray

    def __post_init__(self) -> None:
        for m in (self.h_a, self.h_b, self.v, self.total):
            m.setflags(write=False)


def build_hamiltonian(params: ModelParams) -> HamiltonianParts:
    """Assemble H_A, H_B, V and their sum for ``ModelParams`` or a ``ParamsBlock``.

    An entry that overflows raises ``FloatingPointError``.
    """
    h, k, eps = (np.asarray(x)[..., None, None] for x in (params.h, params.k, params.eps))
    with np.errstate(over="raise"):
        h_a = h * qmath.Z_A + (h * h / eps) * qmath.EYE4
        h_b = h * qmath.Z_B + (h * h / eps) * qmath.EYE4
        v = 2.0 * k * qmath.XX + (2.0 * k * k / eps) * qmath.EYE4
        return HamiltonianParts(h_a=h_a, h_b=h_b, v=v, total=h_a + h_b + v)


def ground_state(params: ModelParams) -> np.ndarray:
    """Normalized ground ket of H, with ground energy exactly zero.

    In the sigma-z product basis (|++>, |+->, |-+>, |-->) the ground state
    lives in the even-parity block:

        |g> = (1/sqrt(2)) [ sqrt(1 - h/eps) |++>  -  sqrt(1 + h/eps) |--> ]

    A ``ParamsBlock`` gives an (N, 4) stack of kets.
    """
    c = np.asarray(params.cos_sigma)
    g = np.zeros(c.shape + (4,), dtype=complex)
    g[..., 0] = np.sqrt(0.5 * (1.0 - c))
    g[..., 3] = -np.sqrt(0.5 * (1.0 + c))
    return g


def spectrum_closed(params: ModelParams) -> np.ndarray:
    """The four eigenvalues of H in ascending order, in closed form; (N, 4) on a ``ParamsBlock``.

    H is block diagonal in the parity grading of the product basis; both
    2x2 blocks diagonalize by hand, giving {0, 2 eps - 2k, 2 eps + 2k, 4 eps}.
    Intended for documentation and cross-checks; the package's runtime
    spectra always come from the dense eigensolver.
    """
    eps, k = np.asarray(params.eps), np.asarray(params.k)
    vals = [np.zeros_like(eps), 2.0 * eps - 2.0 * k, 2.0 * eps + 2.0 * k, 4.0 * eps]
    return np.sort(np.stack(vals, -1), -1)
