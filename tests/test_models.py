"""Model builders: exact conservation, geometry, closed-form gaps.

Conservation is the load-bearing property of every builder, so it is
checked symbolically (residual exactly 0.0) over randomized couplings,
not merely to a tolerance.
"""

import numpy as np
import pytest

from clusterprep.linalg import eigh
from clusterprep.models import (
    ModelInstance,
    build_chain_1d,
    build_lattice_2d,
    build_plaquette_3d,
    cz_conjugate,
    gap_closed_form,
    plaquette_field_term,
    plaquette_ring_term,
    stabilizer_3d_local,
    stabilizers_1d,
)
from clusterprep.pauli import (
    OperatorSum,
    PauliString,
    commutator_is_zero,
    commutes,
    multiply,
    to_dense,
)


def assert_conserved(ham: OperatorSum, checks):
    for check in checks:
        ok, residual = commutator_is_zero(ham, check)
        assert ok and residual == 0.0


def assert_checks_form_commuting_involutions(checks):
    strings = [c.terms[0][1] for c in checks]
    for s in strings:
        assert multiply(s, s) == PauliString.identity(s.n_qubits)
    for i, a in enumerate(strings):
        for b in strings[i + 1:]:
            assert commutes(a, b)


def test_chain_conservation_random_couplings():
    rng = np.random.default_rng(101)
    for _ in range(10):
        N = int(rng.integers(3, 7))
        J = float(rng.uniform(0.1, 3.0))
        lam = float(rng.uniform(0.0, 3.0))
        inst, ham = build_chain_1d(N, J, lam)
        checks = stabilizers_1d(inst)
        assert len(checks) == N
        assert_conserved(ham, checks)
        assert_checks_form_commuting_involutions(checks)


def test_chain_geometry():
    inst, ham = build_chain_1d(4, 1.0, 0.5)
    assert inst.n_qubits == 8
    assert ham.n_terms == 12  # one ZZ, one XX, one YY per logical site
    assert inst.qubit_index(0, 2) == 1
    assert inst.qubit_index(-1, 1) == 6  # periodic wrap
    for check in stabilizers_1d(inst):
        assert check.terms[0][1].weight == 4


def test_chain_validation():
    with pytest.raises(ValueError, match="N >= 3"):
        build_chain_1d(2, 1.0, 0.1)
    with pytest.raises(ValueError):
        build_chain_1d(4, 0.0, 0.1)
    with pytest.raises(ValueError):
        build_chain_1d(4, 1.0, -0.1)


def test_stabilizers_require_chain_instance():
    inst, _, _ = build_lattice_2d(2, 2, 1.0, 0.5)
    with pytest.raises(ValueError, match="1D chain"):
        stabilizers_1d(inst)


def test_torus_conservation_random_couplings():
    rng = np.random.default_rng(202)
    for shape in ((2, 2), (2, 3), (3, 2)):
        J = float(rng.uniform(0.1, 3.0))
        lam = float(rng.uniform(0.0, 3.0))
        _, ham, checks = build_lattice_2d(*shape, J, lam)
        assert len(checks) == shape[0] * shape[1]
        assert_conserved(ham, checks)
        assert_checks_form_commuting_involutions(checks)


def test_torus_geometry():
    inst, ham, checks = build_lattice_2d(2, 3, 1.0, 0.0)
    assert inst.n_qubits == 24
    # at lam = 0 only the four ring bonds per site survive canonicalization
    assert ham.n_terms == 4 * 2 * 3
    for check in checks:
        assert check.terms[0][1].weight == 8  # four X plus four Z
    with pytest.raises(ValueError, match="L1 >= 2"):
        build_lattice_2d(1, 3, 1.0, 0.5)


def test_torus_bond_degrees():
    # every physical spin carries exactly two ZZ, one XX and one YY bond
    inst, ham, _ = build_lattice_2d(2, 2, 1.0, 0.7)
    degree = {q: {"Z": 0, "X": 0, "Y": 0} for q in range(inst.n_qubits)}
    for _, s in ham.terms:
        for q in range(inst.n_qubits):
            letter = s.letter(q)
            if letter != "I":
                degree[q][letter] += 1
    for q in range(inst.n_qubits):
        assert degree[q] == {"Z": 2, "X": 1, "Y": 1}


def test_plaquette_conservation_uniform_and_per_spin():
    rng = np.random.default_rng(303)
    check = stabilizer_3d_local()
    for _ in range(10):
        J = float(rng.uniform(0.1, 3.0))
        if rng.integers(2):
            lam = float(rng.uniform(0.0, 3.0))
        else:
            lam = rng.uniform(0.0, 3.0, size=4)
        _, ham = build_plaquette_3d(J, lam)
        assert_conserved(ham, [check])


def test_plaquette_terms_split():
    inst, ham = build_plaquette_3d(2.0, (0.5, 0.0, 1.5, 2.0))
    assert inst.couplings == (0.5, 0.0, 1.5, 2.0)
    ring = plaquette_ring_term(2.0)
    field = plaquette_field_term((0.5, 0.0, 1.5, 2.0))
    assert ham == ring + field
    assert field.n_terms == 3  # the zero coupling drops out
    with pytest.raises(ValueError, match="4 entries"):
        plaquette_field_term((1.0, 2.0))


def test_plaquette_check_operator():
    w = to_dense(stabilizer_3d_local())
    np.testing.assert_array_equal(w @ w, np.eye(16))
    values = np.linalg.eigvalsh(w)
    assert np.sum(values > 0.5) == 8 and np.sum(values < -0.5) == 8
    ghz = np.zeros(16)
    ghz[0] = ghz[15] = 1 / np.sqrt(2)
    assert ghz @ w @ ghz == pytest.approx(1.0, abs=1e-12)


def test_cz_conjugate_single_qubit_rules():
    n = 2
    x0 = OperatorSum(n, [(1.0, PauliString.from_ops(n, {0: "X"}))])
    z0 = OperatorSum(n, [(1.0, PauliString.from_ops(n, {0: "Z"}))])
    y0 = OperatorSum(n, [(1.0, PauliString.from_ops(n, {0: "Y"}))])
    bond = [(0, 1)]
    assert cz_conjugate(x0, bond) == OperatorSum(
        n, [(1.0, PauliString.from_ops(n, {0: "X", 1: "Z"}))]
    )
    assert cz_conjugate(z0, bond) == z0
    assert cz_conjugate(y0, bond) == OperatorSum(
        n, [(1.0, PauliString.from_ops(n, {0: "Y", 1: "Z"}))]
    )
    # X on both ends: (X Z) x (Z X) = (-iY) x (iY) = +YY
    xx = OperatorSum(n, [(1.0, PauliString.from_label("XX"))])
    assert cz_conjugate(xx, bond) == OperatorSum(n, [(1.0, PauliString.from_label("YY"))])


def test_cz_conjugate_is_involution():
    rng = np.random.default_rng(404)
    n = 5
    mask = (1 << n) - 1
    for _ in range(20):
        terms = []
        for _ in range(6):
            x = int(rng.integers(0, mask + 1))
            z = int(rng.integers(0, mask + 1))
            if x or z:
                terms.append((float(rng.normal()), PauliString(n, x, z)))
        op = OperatorSum(n, terms)
        bonds = [(0, 1), (2, 4), (1, 3)]
        assert cz_conjugate(cz_conjugate(op, bonds), bonds) == op


def test_cz_conjugate_preserves_commutation():
    inst, ham = build_chain_1d(3, 1.0, 0.4)
    checks = stabilizers_1d(inst)
    bonds = [(0, 3), (1, 4), (2, 5)]
    ham_c = cz_conjugate(ham, bonds)
    for check in checks:
        ok, residual = commutator_is_zero(ham_c, cz_conjugate(check, bonds))
        assert ok and residual == 0.0


def test_cz_conjugate_is_unitary_equivalence():
    # dense oracle: conjugation by the actual diagonal CZ matrix
    n = 3
    bonds = [(0, 2), (1, 2)]
    gate = np.ones(1 << n)
    for a, b in bonds:
        for idx in range(1 << n):
            if (idx >> a) & 1 and (idx >> b) & 1:
                gate[idx] *= -1.0
    op = OperatorSum(n, [(0.8, PauliString.from_label("XYZ")), (-0.3, PauliString.from_label("ZXI"))])
    oracle = np.diag(gate) @ to_dense(op) @ np.diag(gate)
    assert np.abs(to_dense(cz_conjugate(op, bonds)) - oracle).max() < 1e-14


def test_cz_conjugate_bond_validation():
    op = OperatorSum(2, [(1.0, PauliString.from_label("XI"))])
    with pytest.raises(ValueError, match="must differ"):
        cz_conjugate(op, [(0, 0)])
    with pytest.raises(ValueError, match="outside"):
        cz_conjugate(op, [(0, 5)])
    with pytest.raises(ValueError, match="duplicate"):
        cz_conjugate(op, [(0, 1), (1, 0)])


def test_gap_closed_form_chain():
    assert gap_closed_form("1d", 1.0, 0.25) == pytest.approx(1.0, abs=1e-12)
    assert gap_closed_form("1d", 2.0, 0.0) == pytest.approx(4.0, abs=1e-12)
    with pytest.raises(ValueError, match="lam < J/2"):
        gap_closed_form("1d", 1.0, 0.5)


def test_gap_closed_form_torus():
    assert gap_closed_form("2d", 1.0, 0.5) == pytest.approx(0.5**6 / 768.0, rel=1e-12)
    assert gap_closed_form("2d", 1.0, 0.0) == 0.0


def test_gap_closed_form_plaquette_matches_dense():
    assert gap_closed_form("3d", 1.0, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert gap_closed_form("3d", 1.0, 1.0) == pytest.approx(0.397824734759, abs=1e-9)
    rng = np.random.default_rng(505)
    for _ in range(20):
        J = float(rng.uniform(0.3, 2.5))
        lam = float(rng.uniform(0.0, 3.0))
        _, ham = build_plaquette_3d(J, lam)
        values = eigh(to_dense(ham)).values
        assert abs((values[1] - values[0]) - gap_closed_form("3d", J, lam)) < 1e-10


def test_gap_closed_form_validation():
    with pytest.raises(ValueError, match="unknown model kind"):
        gap_closed_form("4d", 1.0, 0.1)
    with pytest.raises(ValueError):
        gap_closed_form("3d", -1.0, 0.1)


def test_chain_ground_space_at_zero_coupling():
    inst, ham = build_chain_1d(4, 1.0, 0.0)
    spec = eigh(to_dense(ham))
    assert spec.values[0] == pytest.approx(-4.0, abs=1e-12)
    assert int(np.sum(spec.values < spec.values[0] + 1e-9)) == 16
    # the joint +1 sector of the four checks meets the ground space in
    # exactly one state
    proj = np.eye(1 << inst.n_qubits)
    for check in stabilizers_1d(inst):
        proj = proj @ (0.5 * (np.eye(proj.shape[0]) + to_dense(check)))
    block = spec.vectors[:, :16]
    overlap = float(np.real(np.trace(block.conj().T @ proj @ block)))
    assert overlap == pytest.approx(1.0, abs=1e-9)


def test_model_instance_indexing():
    inst = ModelInstance("lattice2d", (2, 3), 4, 1.0, (0.5,))
    assert inst.n_sites == 6
    assert inst.n_qubits == 24
    assert inst.site_index(0, 0) == 0
    assert inst.site_index(2, 0) == inst.site_index(0, 0)  # periodic
    assert inst.site_index(1, 2) == 5
    with pytest.raises(ValueError, match="rank"):
        inst.site_index(1)
    with pytest.raises(ValueError, match="spin index"):
        inst.qubit_index((0, 0), 5)
