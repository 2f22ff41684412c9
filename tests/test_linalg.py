"""The package's numerical error types, and checks of the exponential oracle."""

import numpy as np
import scipy.linalg

import clusterprep
from clusterprep.linalg import ConvergenceError, NumericalCheckError
from oracles import expm_scaled


def random_hermitian(rng, dim: int, complex_entries: bool = True) -> np.ndarray:
    a = rng.standard_normal((dim, dim))
    if complex_entries:
        a = a + 1j * rng.standard_normal((dim, dim))
    return a + a.conj().T


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
