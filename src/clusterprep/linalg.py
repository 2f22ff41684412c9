"""Dense Hermitian eigensolvers, scaled exponentials, and matrix-free Lanczos.

The dense path wraps LAPACK (Householder reduction plus implicit-shift
iteration) and post-processes eigenvectors into a reproducible gauge.
The Lanczos path is written out here: full reorthogonalization against
the running Krylov basis, deflation of converged vectors so degenerate
multiplets are recovered, and seeded restarts on breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["Spectrum", "ConvergenceError", "NumericalCheckError", "eigh", "expm_scaled", "lanczos_lowest", "DENSE_DIM_LIMIT"]

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

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def ground_energy(self) -> float:
        return float(self.values[0])

    def gap(self) -> float:
        return float(self.values[1] - self.values[0])


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


def eigh(h: np.ndarray, check: bool = True) -> Spectrum:
    """Full spectrum of a Hermitian matrix with a reproducible gauge.

    Eigenvalues come back ascending; degenerate groups keep the order the
    backend produced, then every eigenvector is canonicalized by making
    its first nonzero component real and positive.
    """
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("matrix must be square")
    if h.shape[0] > DENSE_DIM_LIMIT:
        raise ValueError(f"dimension {h.shape[0]} exceeds dense limit {DENSE_DIM_LIMIT}")
    if check:
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


def expm_scaled(h: np.ndarray, s: complex) -> np.ndarray:
    """exp(s*h) for Hermitian h via its eigendecomposition.

    Unitary for purely imaginary s, positive definite for real s.
    """
    spec = eigh(h)
    weights = np.exp(s * spec.values)
    return (spec.vectors * weights) @ spec.vectors.conj().T


def _lanczos_single(
    matvec: Callable[[np.ndarray], np.ndarray],
    dim: int,
    rng: np.random.Generator,
    deflate: list[np.ndarray],
    tol: float,
    max_iter: int,
) -> tuple[float, np.ndarray]:
    """Lowest eigenpair orthogonal to the deflated vectors."""
    subspace_dim = dim - len(deflate)
    for _restart in range(6):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        for q in deflate:
            v -= q * (q.conj() @ v)
        norm = np.linalg.norm(v)
        if norm < 1e-12:
            continue
        v /= norm
        basis = [v]
        alphas: list[float] = []
        betas: list[float] = []
        theta_prev = None
        for it in range(min(max_iter, subspace_dim)):
            w = matvec(basis[-1])
            alpha = float(np.real(np.vdot(basis[-1], w)))
            alphas.append(alpha)
            w = w - alpha * basis[-1]
            if betas:
                w = w - betas[-1] * basis[-2]
            # full reorthogonalization, twice, against deflated + Krylov
            for _ in range(2):
                for q in deflate:
                    w -= q * (q.conj() @ w)
                for q in basis:
                    w -= q * (q.conj() @ w)
            beta = float(np.linalg.norm(w))
            t = np.diag(alphas)
            if betas:
                off = np.array(betas)
                t = t + np.diag(off, 1) + np.diag(off, -1)
            theta, svecs = np.linalg.eigh(t)
            scale = max(1.0, float(np.abs(theta).max()))
            resid = beta * abs(svecs[-1, 0])
            exhausted = len(basis) >= subspace_dim
            if resid <= tol * scale or (beta <= 1e-13 * scale and theta_prev is not None) or exhausted:
                ritz = np.zeros(dim, dtype=complex)
                for coeff, q in zip(svecs[:, 0], basis):
                    ritz += coeff * q
                ritz /= np.linalg.norm(ritz)
                return float(theta[0]), ritz
            if beta <= 1e-13 * scale:
                break  # breakdown before anything converged: restart
            theta_prev = theta[0]
            basis.append(w / beta)
            betas.append(beta)
        else:
            raise ConvergenceError("Lanczos did not converge within iteration budget")
    raise ConvergenceError("Lanczos restarted repeatedly without progress")


def lanczos_lowest(
    matvec: Callable[[np.ndarray], np.ndarray],
    dim: int,
    k: int,
    seed: int,
    tol: float = 1e-11,
    max_iter: int = 600,
) -> np.ndarray:
    """Lowest k eigenvalues of a Hermitian operator given only its action.

    Degenerate multiplets are recovered by deflating each converged Ritz
    vector and rerunning on the orthogonal complement, so e.g. a doubly
    degenerate ground level is reported twice.  Deterministic for a fixed
    seed.
    """
    if not 1 <= k <= dim:
        raise ValueError("need 1 <= k <= dim")
    rng = np.random.default_rng(seed)
    found: list[float] = []
    vectors: list[np.ndarray] = []
    for _ in range(k):
        value, vector = _lanczos_single(matvec, dim, rng, vectors, tol, max_iter)
        found.append(value)
        vectors.append(vector)
    order = np.argsort(found, kind="stable")
    return np.array([found[i] for i in order])
