"""Dense complex linear algebra helpers for small Hilbert spaces (dim <= 16).

Kets are 1-D complex ``numpy`` arrays and operators are square 2-D complex
arrays.  The helpers here add the validation and conventions the rest of the
package relies on: hermiticity checks before eigen-decompositions, a fixed
global phase for eigenvectors, and projector construction.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .tolerances import PSD_TOL, STRUCT_TOL

# Largest operator dimension the package is designed for.
MAX_DIM = 16

ID2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def as_ket(values: Sequence[complex]) -> np.ndarray:
    """Coerce a sequence of amplitudes to a 1-D complex vector."""
    ket = np.asarray(values, dtype=complex)
    if ket.ndim != 1 or ket.size == 0:
        raise ValueError("a ket must be a nonempty 1-D sequence of amplitudes")
    return ket


def as_matrix(values: Sequence[Sequence[complex]]) -> np.ndarray:
    """Coerce nested sequences to a 2-D complex matrix."""
    mat = np.asarray(values, dtype=complex)
    if mat.ndim != 2:
        raise ValueError("a matrix must be a 2-D array of entries")
    return mat


def normalize(ket: Sequence[complex]) -> np.ndarray:
    ket = as_ket(ket)
    nrm = np.linalg.norm(ket)
    if nrm == 0:
        raise ValueError("cannot normalize the zero vector")
    return ket / nrm


def is_normalized(ket: Sequence[complex], tol: float = STRUCT_TOL) -> bool:
    ket = as_ket(ket)
    return abs(np.vdot(ket, ket).real - 1.0) < tol and abs(np.vdot(ket, ket).imag) < tol


def is_hermitian(m: np.ndarray, tol: float = STRUCT_TOL) -> bool:
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        return False
    return bool(np.max(np.abs(m - m.conj().T)) < tol)


def require_hermitian(m: np.ndarray, tol: float = STRUCT_TOL) -> np.ndarray:
    m = as_matrix(m)
    if not is_hermitian(m, tol):
        raise ValueError("matrix is not hermitian within tolerance")
    return m


def is_psd(m: np.ndarray, tol: float = PSD_TOL) -> bool:
    m = as_matrix(m)
    if not is_hermitian(m, max(tol, STRUCT_TOL)):
        return False
    return bool(np.linalg.eigvalsh(m).min() > -tol)


def is_unitary(m: np.ndarray, tol: float = STRUCT_TOL) -> bool:
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        return False
    return bool(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))) < tol)


def projector(ket: Sequence[complex]) -> np.ndarray:
    """Rank-one projector |k><k| onto a normalized ket, or the (..., d, d) stack
    of them for a (..., d) stack of kets: the products np.outer takes."""
    kets = np.asarray(ket, dtype=complex)
    if kets.ndim == 0 or kets.shape[-1] == 0:
        raise ValueError("a ket must be a nonempty sequence of amplitudes")
    norms = np.einsum("...i,...i->...", kets.conj(), kets)
    if not (np.all(np.abs(norms.real - 1.0) < 1e-10) and np.all(np.abs(norms.imag) < 1e-10)):
        raise ValueError("projector requires a normalized ket")
    return kets[..., :, None] * kets.conj()[..., None, :]


class EigExtrema(NamedTuple):
    min_eigenvalue: float
    max_eigenvalue: float
    max_eigvec: np.ndarray


def eig_extrema(m: np.ndarray) -> EigExtrema:
    """Extreme eigenvalues of a hermitian matrix plus the top eigenvector.

    The eigenvector's global phase is fixed by making its largest-magnitude
    amplitude real and positive, so repeated calls are reproducible.
    """
    m = require_hermitian(m)
    if m.shape[0] > MAX_DIM:
        raise ValueError(f"dimension {m.shape[0]} exceeds supported maximum {MAX_DIM}")
    vals, vecs = np.linalg.eigh(m)
    top = vecs[:, -1]
    pivot = int(np.argmax(np.abs(top)))
    phase = top[pivot] / abs(top[pivot])
    top = top * phase.conjugate()
    return EigExtrema(float(vals[0]), float(vals[-1]), top)


def pauli_dot(vec: Sequence[float]) -> np.ndarray:
    """sigma . v for a real 3-vector v, or the (..., 2, 2) stack of them for a
    (..., 3) array of vectors."""
    v = np.asarray(vec, dtype=float)
    if v.ndim == 0 or v.shape[-1] != 3:
        raise ValueError("expected a 3-vector or a stack of them")
    v = v[..., None, None]
    return v[..., 0, :, :] * PAULI_X + v[..., 1, :, :] * PAULI_Y + v[..., 2, :, :] * PAULI_Z


def spin_observable(angle) -> np.ndarray:
    """cos(angle) sigma_z + sin(angle) sigma_x, the +-1 observable in the z-x plane,
    or the (..., 2, 2) stack of them for an array of angles."""
    angle = np.asarray(angle, dtype=float)[..., None, None]
    return np.cos(angle) * PAULI_Z + np.sin(angle) * PAULI_X


def born_probability(state: Sequence[complex], effect: np.ndarray) -> float:
    """<psi|E|psi> for a pure state, clamped of floating-point noise."""
    psi = as_ket(state)
    return born_overlap(psi, as_matrix(effect) @ psi)


def born_overlap(psi: np.ndarray, image: np.ndarray):
    """Re <psi|image> for image = E psi: born_probability from the image of the
    state.  A (..., D) stack of images gives the array of them from one
    np.vecdot, which sums each entry as np.vdot does, with the rounding noise
    in (-1e-12, 0) clamped to 0."""
    image = np.asarray(image)
    if image.ndim == 1:  # the stacked path costs five times as much for one image
        p = float(np.vdot(psi, image).real)
        return 0.0 if -1e-12 < p < 0 else p
    p = np.vecdot(psi, image).real
    p[(-1e-12 < p) & (p < 0)] = 0.0
    return p
