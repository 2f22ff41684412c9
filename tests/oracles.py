"""Numerical oracles shared by the tests, independent of clusterprep.

The Pauli oracles read an operator only through its (coefficient,
string) terms and each string's letters, qubit 0 leftmost.
"""

import math

import numpy as np
import scipy.linalg

_ONE_QUBIT = {
    "I": np.eye(2),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]]),
}


def kron_matrix(label: str) -> np.ndarray:
    """Tensor product of a label's letters, qubit 0 on the least significant bit."""
    out = np.array([[1.0]])
    for letter in label:  # qubit 0 leftmost in the label
        out = np.kron(_ONE_QUBIT[letter], out)
    return out


def projected_levels(op, checks, signs) -> np.ndarray:
    """Levels of op on an orthonormal basis of the joint eigenspace where check j has sign signs[j]."""
    h = sum(c * kron_matrix(s.letters) for c, s in op.terms)
    projector = np.eye(h.shape[0])
    for check, sign in zip(checks, signs):
        projector = projector @ (0.5 * (np.eye(h.shape[0]) + sign * kron_matrix(check.letters)))
    cols = scipy.linalg.orth(projector)
    return scipy.linalg.eigvalsh(cols.conj().T @ h @ cols)


def expm_scaled(h: np.ndarray, s: complex) -> np.ndarray:
    """exp(s*h) for Hermitian h via numpy's eigendecomposition.

    Unitary for purely imaginary s, positive definite for real s.
    """
    values, vectors = np.linalg.eigh(h)
    return (vectors * np.exp(s * values)) @ vectors.conj().T


def taylor_admissible(norm: float, m: int, s: int, unit_roundoff: float = 2.0**-53) -> bool:
    """Whether theta = norm / 2^s satisfies theta^(m+1) / (m+1)! / (1 - theta/(m+2)) <= unit_roundoff,
    the bound on the degree-m Taylor remainder of exp at a matrix of this 1-norm, scaled by 2^-s."""
    theta = math.ldexp(norm, -s)
    return theta < m + 2 and theta ** (m + 1) / math.factorial(m + 1) / (1.0 - theta / (m + 2)) <= unit_roundoff


def taylor_products(m: int, s: int) -> int:
    """Matrix products of degree-m Paterson-Stockmeyer evaluation with p = isqrt(m - 1) + 1,
    the powers x^2..x^p and m // p Horner steps, plus s squarings."""
    p = math.isqrt(m - 1) + 1
    return p - 1 + m // p + s


def taylor_plan(norm: float, max_degree: int = 18, unit_roundoff: float = 2.0**-53) -> tuple[int, int]:
    """Cheapest Taylor (degree m, squarings s) for exp of a matrix of this 1-norm.

    For each degree, s grows until `taylor_admissible`; the cost is
    `taylor_products`, ties to lower m.
    """
    best = None
    for m in range(1, max_degree + 1):
        s = 0
        while not taylor_admissible(norm, m, s, unit_roundoff):
            s += 1
        cost = taylor_products(m, s)
        if best is None or cost < best[0]:
            best = (cost, m, s)
    return best[1], best[2]


def paterson_stockmeyer_expm(a: np.ndarray, m: int, s: int) -> np.ndarray:
    """exp(a) of one square matrix: the degree-m Taylor series of x = a / 2^s, squared s times.

    Plain Paterson-Stockmeyer with p = isqrt(m - 1) + 1: the powers
    x^0..x^p, block sums B_j = sum_{i<p, jp+i<=m} x^i / (jp+i)!, and
    Horner in x^p from B_(m//p) down to B_0.
    """
    x = a * 2.0**-s
    p = math.isqrt(m - 1) + 1
    powers = [np.eye(a.shape[0])]
    for _ in range(p):
        powers.append(powers[-1] @ x)

    def block(j):
        return sum(powers[i] / math.factorial(j * p + i) for i in range(p) if j * p + i <= m)

    out = block(m // p)
    for j in range(m // p - 1, -1, -1):
        out = out @ powers[p] + block(j)
    for _ in range(s):
        out = out @ out
    return out


def gibbs_matrix(h: np.ndarray, T: float, ground_rtol: float = 1e-9) -> np.ndarray:
    """exp(-h/T) / Z for Hermitian h via numpy's eigendecomposition.

    T = 0 gives the uniform mixture over the degenerate ground space:
    the levels within ground_rtol * max(1, |E0|) of the ground energy.
    """
    values, vectors = np.linalg.eigh(h)
    shifted = values - values[0]
    if T == 0.0:
        weights = (shifted <= ground_rtol * max(1.0, abs(values[0]))).astype(float)
    else:
        weights = np.exp(-shifted / T)
    return (vectors * (weights / weights.sum())) @ vectors.conj().T


def readout_basis() -> tuple[np.ndarray, tuple[tuple[int, int], ...]]:
    """The plaquette's sixteen readout states as columns, with their (flip pattern e, sector s) labels.

    Column (e, s) is (|e> + s|~e>)/sqrt(2), where e is a 4-bit flip
    pattern (spin mu on bit mu - 1) and ~e = 15 - e its complement.  The
    patterns are the eight class representatives: no flip, spins 1, 2, 3
    alone, spin 4 alone written as 0111 (its complement), the adjacent
    pairs 1-2 and 2-3, and the diagonal pair 1-3; each takes s = +1, then -1.
    """
    patterns = (0b0000, 0b0001, 0b0010, 0b0100, 0b0111, 0b0011, 0b0110, 0b0101)
    labels = tuple((e, s) for e in patterns for s in (1, -1))
    basis = np.zeros((16, 16), dtype=complex)
    for col, (e, s) in enumerate(labels):
        basis[e, col] = 1.0 / math.sqrt(2.0)
        basis[15 - e, col] = s / math.sqrt(2.0)
    return basis, labels


def tomography_weights(rho: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """The weight of rho on each basis column: diag(B^dagger rho B), real part."""
    return np.real(np.einsum("ji,jk,ki->i", basis.conj(), rho, basis))


def ground_resolvent_b(h: np.ndarray, h1: np.ndarray) -> tuple[float, float]:
    """b = ||R^2 h1 |0>|| and the gap E_1 - E_0 of Hermitian h, whose ground level |0> is simple.

    R = sum_{n>0} |n><n| / (E_n - E_0) is the reduced resolvent at the
    ground level.  On a ramp h0 + lambda(s) h1 (s = t / tau) that starts
    in the ground state, the amplitude left outside the final ground
    state is, to first order in 1/tau, lambda' R^2 h1 |0> at the end minus
    its value at the start carried by a unitary transport (Jansen, Ruskai
    & Seiler, J. Math. Phys. 48, 102111, 2007).  b is the norm of each
    end's vector, which no phase, transport or choice of basis in a
    degenerate excited level changes, so the triangle inequality
    brackets tau sqrt(1 - F) between the difference and the sum of the
    two ends' |lambda'| b.
    """
    values, vectors = np.linalg.eigh(h)
    gaps = values[1:] - values[0]
    # R^2 h1 |0> in the excited eigenbasis: <n|h1|0> / (E_n - E_0)^2
    amplitudes = (vectors[:, 1:].conj().T @ h1 @ vectors[:, 0]) / gaps**2
    return float(np.linalg.norm(amplitudes)), float(gaps[0])
