"""Numerical oracles shared by the tests, independent of clusterprep."""

import math

import numpy as np


def expm_scaled(h: np.ndarray, s: complex) -> np.ndarray:
    """exp(s*h) for Hermitian h via numpy's eigendecomposition.

    Unitary for purely imaginary s, positive definite for real s.
    """
    values, vectors = np.linalg.eigh(h)
    return (vectors * np.exp(s * values)) @ vectors.conj().T


def taylor_plan(norm: float, max_degree: int = 18, unit_roundoff: float = 2.0**-53) -> tuple[int, int]:
    """Cheapest Taylor (degree m, squarings s) for exp of a matrix of this 1-norm.

    For each degree, s grows until theta = norm / 2^s satisfies
    theta^(m+1) / (m+1)! / (1 - theta/(m+2)) <= unit_roundoff; the cost
    is the Paterson-Stockmeyer product count plus s, ties to lower m.
    """
    best = None
    for m in range(1, max_degree + 1):
        s = 0
        while True:
            theta = math.ldexp(norm, -s)
            if theta < m + 2 and theta ** (m + 1) / math.factorial(m + 1) / (1.0 - theta / (m + 2)) <= unit_roundoff:
                break
            s += 1
        p = math.isqrt(m - 1) + 1
        cost = p - 1 + m // p + s
        if best is None or cost < best[0]:
            best = (cost, m, s)
    return best[1], best[2]
