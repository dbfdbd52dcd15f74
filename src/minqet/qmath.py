"""Dense complex linear algebra on the 2- and 4-dimensional Hilbert spaces.

Basis convention used throughout the package: qubit A is the major index,
so a two-qubit basis vector has index ``2*a + b`` with ``a, b`` the
single-qubit indices, and the sigma-z eigenstate ``|+>`` (eigenvalue +1)
sits at single-qubit index 0.  Kets are complex ndarrays whose last axis
is the state index, so a stack (..., d) holds many kets; operators are
square complex ndarrays (d, d) or stacks (..., d, d) of them.  Every
brute-force energy of the package is ``expectation`` over such a stack.
"""

from __future__ import annotations

import numpy as np

HERMITIAN_TOL = 1e-10
IMAG_TOL = 1e-12


class NonHermitianInput(ValueError):
    """An operation that requires a Hermitian matrix received one that is not."""


def _pauli_matrices() -> dict[str, np.ndarray]:
    mats = {
        "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
        "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
        "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
        "i": np.eye(2, dtype=complex),
    }
    for m in mats.values():
        m.setflags(write=False)
    return mats


_PAULI = _pauli_matrices()


def pauli(axis: str) -> np.ndarray:
    """Return the Pauli matrix for ``axis`` in {'x', 'y', 'z', 'i'} (read-only view)."""
    try:
        return _PAULI[axis]
    except KeyError:
        raise ValueError(f"unknown Pauli axis {axis!r}") from None


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the A-major index convention."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def _two_qubit(a: str, b: str) -> np.ndarray:
    m = tensor(_PAULI[a], _PAULI[b])
    m.setflags(write=False)
    return m


# Read-only two-qubit operators, built once: I, sigma^x (x) I, sigma^z (x) I,
# I (x) sigma^z and sigma^x (x) sigma^x.
EYE4 = _two_qubit("i", "i")
X_A = _two_qubit("x", "i")
Z_A = _two_qubit("z", "i")
Z_B = _two_qubit("i", "z")
XX = _two_qubit("x", "x")


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entry of |m - m^dag|, over every matrix of a stack (..., d, d)."""
    m = np.asarray(m)
    return float(np.max(np.abs(m - np.swapaxes(m, -1, -2).conj())))


def require_hermitian(m: np.ndarray) -> np.ndarray:
    """Return the symmetrized copy (m + m^dag)/2, or raise ``NonHermitianInput``.

    ``m`` is a square matrix or a stack (..., d, d) of them; one defect over
    HERMITIAN_TOL anywhere in the stack rejects it.  A stack that equals its own
    conjugate transpose exactly, such as every ``build_hamiltonian`` operator,
    is returned as it is: symmetrizing it would give the same values.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise NonHermitianInput(f"expected a square matrix, got shape {m.shape}")
    adjoint = np.swapaxes(m, -1, -2).conj()
    if (m == adjoint).all():
        return m
    defect = hermiticity_defect(m)
    if not defect <= HERMITIAN_TOL:  # NaN fails
        raise NonHermitianInput(
            f"matrix deviates from Hermiticity by {defect:.3e} (tolerance {HERMITIAN_TOL:.0e})"
        )
    return 0.5 * (m + adjoint)


def hermitian_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix by LAPACK (``numpy.linalg.eigh``).

    Returns ``(vals, vecs)`` with eigenvalues ascending and ``vecs[..., :, j]``
    the eigenvector for ``vals[..., j]``.  A stack (..., d, d) is solved
    matrix by matrix in one call.  The input is checked for Hermiticity and
    symmetrized first.
    """
    return np.linalg.eigh(require_hermitian(m))


def projector(psi: np.ndarray) -> np.ndarray:
    """Rank-one density matrix |psi><psi| (the input need not be normalized).

    A stack of kets (..., d) gives a stack of projectors (..., d, d).
    """
    psi = np.asarray(psi, dtype=complex)
    return psi[..., :, None] * psi.conj()[..., None, :]


def partial_trace(rho: np.ndarray) -> np.ndarray:
    """The reduced state of B: trace out A of a 4x4 two-qubit density matrix, or of a stack."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected 4x4 density matrices, got shape {rho.shape}")
    blocks = rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))  # indices: a, b, a', b'
    return np.einsum("...abad->...bd", blocks)


def expectation(kets: np.ndarray, op: np.ndarray):
    """Real <psi|op|psi> of every ket psi of a stack (..., d).

    ``op`` is a Hermitian (d, d) matrix or a stack (..., d, d) that
    broadcasts against the kets' leading axes.  The operator is checked for
    Hermiticity and symmetrized, so an imaginary residue is rounding only: one
    above 1e-12 raises ArithmeticError, and a smaller one is discarded.  The
    result has the broadcast leading shape; a single ket gives a NumPy scalar.
    """
    op = require_hermitian(op)
    kets = np.asarray(kets, dtype=complex)
    raw = np.einsum("...i,...ij,...j->...", kets.conj(), op, kets)
    residue = float(np.max(np.abs(raw.imag), initial=0.0))
    if not residue <= IMAG_TOL:  # NaN fails
        raise ArithmeticError(f"expectation value has imaginary residue {residue:.3e}")
    return raw.real
