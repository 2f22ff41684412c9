"""Eigensolver tests against independent oracles, and checks of the exponential oracle."""

import numpy as np
import pytest
import scipy.linalg

import clusterprep
from clusterprep.linalg import ConvergenceError, NumericalCheckError, eigh
from oracles import expm_scaled


def random_hermitian(rng, dim: int, complex_entries: bool = True) -> np.ndarray:
    a = rng.standard_normal((dim, dim))
    if complex_entries:
        a = a + 1j * rng.standard_normal((dim, dim))
    return a + a.conj().T


def test_eigh_reconstruction_and_orthonormality():
    rng = np.random.default_rng(31)
    for dim in (2, 3, 7, 16, 33, 64, 128, 256):
        h = random_hermitian(rng, dim)
        spec = eigh(h)
        scale = np.abs(h).max()
        recon = (spec.vectors * spec.values) @ spec.vectors.conj().T
        assert np.abs(recon - h).max() <= 1e-9 * scale
        gram = spec.vectors.conj().T @ spec.vectors
        assert np.abs(gram - np.eye(dim)).max() <= 1e-12
        assert np.all(np.diff(spec.values) >= 0)
        assert abs(spec.values.sum() - np.trace(h).real) <= 1e-9 * max(1.0, scale) * dim


def test_eigh_gauge_is_reproducible():
    rng = np.random.default_rng(8)
    h = random_hermitian(rng, 24)
    vectors = eigh(h).vectors
    # leading non-negligible entry of every column is real and positive
    for i in range(24):
        col = vectors[:, i]
        lead = int(np.argmax(np.abs(col) > 1e-12 * np.abs(col).max()))
        assert col[lead].real > 0
        assert abs(col[lead].imag) <= 1e-12
    again = eigh(h.copy()).vectors
    assert np.abs(vectors - again).max() == 0.0


def test_eigh_validation():
    with pytest.raises(ValueError, match="square"):
        eigh(np.zeros((2, 3)))
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="Hermitian"):
        eigh(bad)
    with pytest.raises(ValueError, match="dense limit"):
        eigh(np.zeros((4097, 4097)))


def test_expm_scaled_examples():
    z = np.diag([1.0, -1.0])
    np.testing.assert_allclose(expm_scaled(z, -1.0), np.diag([np.e**-1, np.e]), atol=1e-14)
    np.testing.assert_allclose(expm_scaled(z, 0.0), np.eye(2), atol=0)
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(expm_scaled(x, -1j * np.pi / 2), -1j * x, atol=1e-14)


def test_expm_scaled_against_scipy():
    rng = np.random.default_rng(12)
    for _ in range(10):
        h = random_hermitian(rng, 12)
        for s in (-0.3, 0.5j, -1.7j, 0.2 + 0.0j):
            ours = expm_scaled(h, s)
            oracle = scipy.linalg.expm(s * h)
            assert np.abs(ours - oracle).max() <= 1e-8 * np.abs(oracle).max()


def test_expm_scaled_unitary_for_imaginary_argument():
    rng = np.random.default_rng(13)
    h = random_hermitian(rng, 16)
    u = expm_scaled(h, -0.37j)
    assert np.abs(u @ u.conj().T - np.eye(16)).max() <= 1e-10


def test_convergence_error_is_runtime_error():
    assert issubclass(ConvergenceError, RuntimeError)


def test_numerical_check_error_is_exported_from_the_package():
    # the exit-3 failure that library callers catch, next to ConvergenceError
    assert clusterprep.NumericalCheckError is NumericalCheckError
    assert {"ConvergenceError", "NumericalCheckError"} <= set(clusterprep.__all__)
