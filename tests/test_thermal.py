"""The Boltzmann rule (`thermal_weights`), its limits, and density-matrix validation."""

import numpy as np
import pytest

from clusterprep.analysis import no_evolution_point
from clusterprep.linalg import eigh
from clusterprep.models import build_plaquette_3d, plaquette_ring_term
from clusterprep.pauli import OperatorSum, PauliString, to_dense
from clusterprep.thermal import DensityMatrix, thermal_weights


def levels(h) -> np.ndarray:
    return eigh(to_dense(h)).values


def test_two_level_boltzmann_weights():
    h = OperatorSum(1, [(-1.0, PauliString.from_label("Z"))])
    weights = thermal_weights(levels(h), 1.0)
    p0 = 1.0 / (1.0 + np.exp(-2.0))
    assert weights[0] == pytest.approx(p0, abs=1e-14)
    assert weights[1] == pytest.approx(1.0 - p0, abs=1e-14)
    assert weights[0] == pytest.approx(0.880797, abs=1e-6)


def test_infinite_temperature_limit():
    rng = np.random.default_rng(3)
    terms = [
        (float(rng.normal()), PauliString(3, int(rng.integers(1, 8)), int(rng.integers(0, 8))))
        for _ in range(5)
    ]
    weights = thermal_weights(levels(OperatorSum(3, terms)), 1e6)
    np.testing.assert_allclose(weights, np.full(8, 1.0 / 8.0), atol=1e-5)


def test_zero_temperature_degenerate_ground_space():
    # the bare ring has the two aligned states as its ground doublet
    weights = thermal_weights(levels(plaquette_ring_term(1.0)), 0.0)
    np.testing.assert_array_equal(weights, [0.5, 0.5] + [0.0] * 14)
    assert float(weights @ weights) == pytest.approx(0.5, abs=1e-12)  # purity


def test_thermal_weights_ground_space_width_and_boltzmann_ratio():
    # levels within 1e-9 max(1, |E0|) of the ground energy share the weight
    np.testing.assert_array_equal(thermal_weights(np.array([-1.0, -1.0 + 5e-10, -1.0 + 2e-9]), 0.0), [0.5, 0.5, 0.0])
    np.testing.assert_array_equal(thermal_weights(np.array([-100.0, -100.0 + 5e-8, -100.0 + 2e-7]), 0.0), [0.5, 0.5, 0.0])
    np.testing.assert_allclose(thermal_weights(np.array([0.0, np.log(3.0)]), 1.0), [0.75, 0.25], atol=1e-15)
    with pytest.raises(ValueError, match=">= 0"):
        thermal_weights(np.zeros(2), float("nan"))


def test_zero_temperature_unique_ground_state():
    _, ham = build_plaquette_3d(1.0, 2.5)
    weights = thermal_weights(levels(ham), 0.0)
    assert float(weights @ weights) == pytest.approx(1.0, abs=1e-10)  # purity
    assert weights[0] == pytest.approx(1.0, abs=1e-10)  # all on the ground state


def test_negative_temperature_rejected():
    h = OperatorSum(1, [(1.0, PauliString.from_label("Z"))])
    with pytest.raises(ValueError, match=">= 0"):
        thermal_weights(levels(h), -0.1)
    with pytest.raises(ValueError, match=">= 0"):
        no_evolution_point(-0.1, 1.0)


def test_energy_nondecreasing_in_temperature():
    _, ham = build_plaquette_3d(1.0, 1.3)
    values = levels(ham)
    energies = [float(thermal_weights(values, T) @ values) for T in (0.0, 0.2, 0.5, 1.0, 2.0, 5.0)]
    assert all(b >= a - 1e-12 for a, b in zip(energies, energies[1:]))


def test_minus_sector_weight_vanishes_with_temperature():
    weights = [no_evolution_point(T, 2.5).w_minus for T in (1.0, 0.3, 0.1, 0.02)]
    assert all(w > 0 for w in weights[:-1])
    assert all(b < a for a, b in zip(weights, weights[1:]))
    assert weights[-1] < 1e-10


def test_gibbs_accepts_dense_input():
    weights = thermal_weights(np.array([0.0, 3.0]), 1.5)
    ratio = weights[1] / weights[0]
    assert ratio == pytest.approx(np.exp(-2.0), rel=1e-12)


def test_gibbs_stable_at_low_temperature():
    # shifting by the ground energy keeps exp() in range even at T = 1e-3
    _, ham = build_plaquette_3d(1.0, 2.5)
    weights = thermal_weights(levels(ham), 1e-3)
    assert np.isfinite(weights).all()
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)


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

