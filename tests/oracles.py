"""Numerical oracles shared by the tests, independent of clusterprep."""

import numpy as np


def expm_scaled(h: np.ndarray, s: complex) -> np.ndarray:
    """exp(s*h) for Hermitian h via numpy's eigendecomposition.

    Unitary for purely imaginary s, positive definite for real s.
    """
    values, vectors = np.linalg.eigh(h)
    return (vectors * np.exp(s * values)) @ vectors.conj().T
