"""Dense Hermitian eigensolver and the package's numerical error types.

`eigh` wraps LAPACK (Householder reduction plus implicit-shift
iteration) and post-processes eigenvectors into a reproducible gauge.
Restrictions to conserved-check sectors are exact and symbolic
(`pauli.taper`), so every solve here is dense.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Spectrum", "ConvergenceError", "NumericalCheckError", "eigh", "DENSE_DIM_LIMIT"]

DENSE_DIM_LIMIT = 1 << 12


class ConvergenceError(RuntimeError):
    """An iterative solver failed to reach its tolerance."""


class NumericalCheckError(ConvergenceError):
    """A computed quantity failed a sanity check that exact numerics obey."""


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues ascending with matching orthonormal eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray


def _canonical_columns(vectors: np.ndarray) -> np.ndarray:
    """Fix each column's free phase: first non-negligible entry real-positive."""
    out = vectors.copy()
    for i in range(out.shape[1]):
        col = out[:, i]
        mags = np.abs(col)
        top = mags.max()
        if top == 0.0:
            continue
        lead = int(np.argmax(mags > 1e-12 * top))
        pivot = col[lead]
        if np.iscomplexobj(out):
            out[:, i] = col * (np.conj(pivot) / abs(pivot))
        elif pivot < 0:
            out[:, i] = -col
    return out


def eigh(h: np.ndarray) -> Spectrum:
    """Full spectrum of a Hermitian matrix with a reproducible gauge.

    Refuses a matrix whose Hermitian residual exceeds 1e-10 of its
    largest entry (or of 1), and solves its Hermitian part.  Eigenvalues
    come back ascending; degenerate groups keep the order the backend
    produced, then every eigenvector is canonicalized by making its
    first nonzero component real and positive.
    """
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("matrix must be square")
    if h.shape[0] > DENSE_DIM_LIMIT:
        raise ValueError(f"dimension {h.shape[0]} exceeds dense limit {DENSE_DIM_LIMIT}")
    scale = max(1.0, float(np.abs(h).max()))
    residual = float(np.abs(h - h.conj().T).max())
    if residual > 1e-10 * scale:
        raise ValueError(f"matrix is not Hermitian (residual {residual:.3e})")
    h = 0.5 * (h + h.conj().T)
    if np.iscomplexobj(h) and np.abs(h.imag).max() == 0.0:
        h = h.real
    try:
        values, vectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"dense eigensolver failed: {exc}") from exc
    return Spectrum(values, _canonical_columns(vectors))
