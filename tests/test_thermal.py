"""Gibbs-state construction, limits, and density-matrix validation."""

import numpy as np
import pytest

from clusterprep.linalg import eigh
from clusterprep.models import build_plaquette_3d, plaquette_ring_term
from clusterprep.pauli import OperatorSum, PauliString, to_dense
from clusterprep.thermal import DensityMatrix, gibbs_state, thermal_weights


def test_two_level_boltzmann_weights():
    h = OperatorSum(1, [(-1.0, PauliString.from_label("Z"))])
    rho = gibbs_state(h, 1.0)
    p0 = 1.0 / (1.0 + np.exp(-2.0))
    assert rho.matrix[0, 0].real == pytest.approx(p0, abs=1e-14)
    assert rho.matrix[1, 1].real == pytest.approx(1.0 - p0, abs=1e-14)
    assert abs(rho.matrix[0, 1]) == 0.0
    assert rho.matrix[0, 0].real == pytest.approx(0.880797, abs=1e-6)


def test_infinite_temperature_limit():
    rng = np.random.default_rng(3)
    terms = [
        (float(rng.normal()), PauliString(3, int(rng.integers(1, 8)), int(rng.integers(0, 8))))
        for _ in range(5)
    ]
    rho = gibbs_state(OperatorSum(3, terms), 1e6)
    np.testing.assert_allclose(rho.matrix, np.eye(8) / 8.0, atol=1e-5)


def test_zero_temperature_degenerate_ground_space():
    # the bare ring has the two aligned states as its ground doublet
    rho = gibbs_state(plaquette_ring_term(1.0), 0.0)
    expected = np.zeros((16, 16))
    expected[0, 0] = expected[15, 15] = 0.5
    np.testing.assert_allclose(rho.matrix, expected, atol=1e-12)
    assert rho.purity() == pytest.approx(0.5, abs=1e-12)


def test_thermal_weights_ground_space_width_and_boltzmann_ratio():
    # levels within 1e-9 max(1, |E0|) of the ground energy share the weight
    np.testing.assert_array_equal(thermal_weights(np.array([-1.0, -1.0 + 5e-10, -1.0 + 2e-9]), 0.0), [0.5, 0.5, 0.0])
    np.testing.assert_array_equal(thermal_weights(np.array([-100.0, -100.0 + 5e-8, -100.0 + 2e-7]), 0.0), [0.5, 0.5, 0.0])
    np.testing.assert_allclose(thermal_weights(np.array([0.0, np.log(3.0)]), 1.0), [0.75, 0.25], atol=1e-15)
    with pytest.raises(ValueError, match=">= 0"):
        thermal_weights(np.zeros(2), float("nan"))


def test_zero_temperature_unique_ground_state():
    _, ham = build_plaquette_3d(1.0, 2.5)
    rho = gibbs_state(ham, 0.0)
    assert rho.purity() == pytest.approx(1.0, abs=1e-10)
    ground = eigh(to_dense(ham)).vectors[:, 0]
    fidelity = float(np.real(ground.conj() @ rho.matrix @ ground))
    assert fidelity == pytest.approx(1.0, abs=1e-10)


def test_negative_temperature_rejected():
    h = OperatorSum(1, [(1.0, PauliString.from_label("Z"))])
    with pytest.raises(ValueError, match=">= 0"):
        gibbs_state(h, -0.1)


def test_energy_nondecreasing_in_temperature():
    _, ham = build_plaquette_3d(1.0, 1.3)
    dense = to_dense(ham)
    energies = [gibbs_state(ham, T).expectation(dense) for T in (0.0, 0.2, 0.5, 1.0, 2.0, 5.0)]
    assert all(b >= a - 1e-12 for a, b in zip(energies, energies[1:]))


def test_minus_sector_weight_vanishes_with_temperature():
    from clusterprep.analysis import sector_projectors

    _, ham = build_plaquette_3d(1.0, 2.5)
    _, p_minus = sector_projectors()
    weights = [gibbs_state(ham, T).expectation(p_minus) for T in (1.0, 0.3, 0.1, 0.02)]
    assert all(w > 0 for w in weights[:-1])
    assert all(b < a for a, b in zip(weights, weights[1:]))
    assert weights[-1] < 1e-10


def test_gibbs_accepts_dense_input():
    h = np.diag([0.0, 3.0])
    rho = gibbs_state(h, 1.5)
    ratio = rho.matrix[1, 1].real / rho.matrix[0, 0].real
    assert ratio == pytest.approx(np.exp(-2.0), rel=1e-12)


def test_gibbs_stable_at_low_temperature():
    # shifting by the ground energy keeps exp() in range even at T = 1e-3
    _, ham = build_plaquette_3d(1.0, 2.5)
    rho = gibbs_state(ham, 1e-3)
    assert np.isfinite(rho.matrix).all()
    assert rho.trace() == pytest.approx(1.0, abs=1e-12)


def test_density_matrix_validation():
    good = np.eye(2) / 2.0
    DensityMatrix.from_matrix(good)
    with pytest.raises(ValueError, match="square"):
        DensityMatrix.from_matrix(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix.from_matrix(np.array([[0.5, 0.3], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix.from_matrix(np.eye(2))
    with pytest.raises(ValueError, match="negative eigenvalue"):
        DensityMatrix.from_matrix(np.diag([1.5, -0.5]))
    # unchecked path accepts anything square
    DensityMatrix.from_matrix(np.eye(2), check=False)


def test_density_matrix_observables():
    rho = DensityMatrix.from_matrix(np.diag([0.75, 0.25]))
    z = np.diag([1.0, -1.0])
    assert rho.expectation(z) == pytest.approx(0.5, abs=1e-14)
    assert rho.purity() == pytest.approx(0.625, abs=1e-14)
    assert rho.trace() == pytest.approx(1.0, abs=1e-14)
    assert rho.dim == 2
