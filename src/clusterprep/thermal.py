"""Boltzmann occupations of a spectrum, with the T = 0 ground-space rule
handled explicitly, and a validated density-matrix record."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DensityMatrix", "thermal_weights"]

_DEGENERACY_RTOL = 1e-9  # width of the T = 0 ground space, relative to max(1, |E0|)


# kept, with from_matrix, because perfbench/tracer.py wraps DensityMatrix.from_matrix by name
@dataclass(frozen=True)
class DensityMatrix:
    """Validated density matrix (Hermitian, unit trace, PSD up to noise)."""

    matrix: np.ndarray

    @classmethod
    def from_matrix(cls, mat: np.ndarray, check: bool = True, atol: float = 1e-10) -> "DensityMatrix":
        mat = np.asarray(mat, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("density matrix must be square")
        if check:
            if np.abs(mat - mat.conj().T).max() > atol:
                raise ValueError("density matrix is not Hermitian")
            trace = np.trace(mat).real
            if abs(trace - 1.0) > max(atol, 1e-8):
                raise ValueError(f"trace {trace} is not 1")
            lowest = float(np.linalg.eigvalsh(0.5 * (mat + mat.conj().T)).min())
            if lowest < -max(atol, 1e-8):
                raise ValueError(f"negative eigenvalue {lowest}")
        return cls(mat)


def thermal_weights(energies: np.ndarray, T: float) -> np.ndarray:
    """Occupation of each level of an ascending spectrum at temperature T.

    T > 0 gives Boltzmann weights exp(-(E_k - E_0)/T), normalized (0, the
    T -> 0+ limit, where a gap over T overflows).  T = 0
    gives the uniform mixture over the (numerically degenerate) ground
    space: levels within 1e-9 of the ground energy, relative to
    max(1, |E0|).  Temperatures are in energy units (Boltzmann constant
    absorbed).
    """
    if not T >= 0:
        raise ValueError("temperature must be >= 0")
    shifted = energies - energies[0]
    if T == 0.0:
        tol = _DEGENERACY_RTOL * max(1.0, abs(float(energies[0])))
        weights = (shifted <= tol).astype(float)
    elif shifted[-1] < 1e308 * T:
        weights = np.exp(-shifted / T)
    else:  # a gap over T overflows to inf, and exp(-inf) = 0 is its T -> 0+ limit
        with np.errstate(over="ignore"):
            weights = np.exp(-shifted / T)
    return weights / weights.sum()
