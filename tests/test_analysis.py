"""Error-channel tomography, sector-labeled spectra, and thresholds."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from clusterprep import analysis
from clusterprep.analysis import (
    CLASS_LABELS,
    CLASS_REPS,
    ErrorChannelReport,
    NumericalCheckError,
    ThresholdBracketError,
    _basis_errors,
    _channel_report,
    _readout,
    _readout_of,
    chain_sector_gap,
    no_evolution_point,
    plaquette_hamiltonian,
    plaquette_parts,
    rampdown_series,
    run_point,
    spectrum_path,
    spectrum_scan,
    threshold_temperature,
    tomography_basis,
    total_phase_flip_error,
)
from clusterprep.evolve import PiecewiseLinear, Schedule, linear_rampdown, schedule_unitary, sequential_switchoff
from clusterprep.linalg import ConvergenceError, eigh
from clusterprep.models import build_chain_1d, plaquette_ring_term, stabilizer_3d_local, stabilizers_1d
from clusterprep.pauli import OperatorSum, PauliString, to_dense
from oracles import gibbs_matrix, tomography_weights


def random_density_matrix(rng, dim=16) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def ghz_states() -> tuple[np.ndarray, np.ndarray]:
    """(|0000> + |1111>)/sqrt(2) and (|0000> - |1111>)/sqrt(2)."""
    plus, minus = np.zeros(16), np.zeros(16)
    plus[0] = plus[15] = minus[0] = 1.0 / np.sqrt(2.0)
    minus[15] = -1.0 / np.sqrt(2.0)
    return plus, minus


def sector_projectors() -> tuple[np.ndarray, np.ndarray]:
    """Projectors onto the +1 and -1 eigenspaces of the XXXX check."""
    w = to_dense(stabilizer_3d_local())
    return 0.5 * (np.eye(16) + w), 0.5 * (np.eye(16) - w)


def tomography(rho: np.ndarray) -> ErrorChannelReport:
    """The error channel of a four-spin density matrix, from the oracle's basis weights."""
    return _channel_report(tomography_weights(rho, tomography_basis()[0]))


# ------------------------------------------------------------- tomography

def test_basis_is_orthonormal_and_labeled():
    basis, labels = tomography_basis()
    assert basis.shape == (16, 16)
    assert np.abs(basis.conj().T @ basis - np.eye(16)).max() <= 1e-12
    assert len(labels) == 16
    assert labels[0] == (0, 1) and labels[1] == (0, -1)
    reps = [rep for rep, _ in labels]
    assert reps == [rep for rep in CLASS_REPS for _ in (0, 1)]
    assert set(CLASS_LABELS) == set(CLASS_REPS)


def test_tomography_basis_is_cached_and_read_only():
    basis, labels = tomography_basis()
    assert tomography_basis()[0] is basis
    with pytest.raises(ValueError, match="read-only"):
        basis[0, 0] = 0.0


def test_tomography_completeness_random_states():
    rng = np.random.default_rng(99)
    for _ in range(100):
        report = tomography(random_density_matrix(rng))
        total = report.fidelity + 4 * report.p_z + 2 * report.p_c1 + report.p_c2
        assert abs(total - 1.0) <= 1e-8
        assert sum(report.raw.values()) == pytest.approx(1.0, abs=1e-8)
        assert all(0.0 <= v <= 1.0 + 1e-12 for v in report.raw.values())
        assert report.e_zeta == total_phase_flip_error(report.p_z, report.p_c1, report.p_c2)


def test_target_state_reports_unit_fidelity():
    plus, _ = ghz_states()
    report = tomography(np.outer(plus, plus.conj()))
    assert report.fidelity == pytest.approx(1.0, abs=1e-12)
    assert report.e_zeta == pytest.approx(0.0, abs=1e-12)
    assert report.w_minus == pytest.approx(0.0, abs=1e-12)
    assert report.raw[(0, 1)] == pytest.approx(1.0, abs=1e-12)  # the evolve fidelity column


def test_minus_sector_weight_spills_into_single_flips():
    # a pure minus-sector state is one unlocatable phase flip: its weight
    # is shared evenly by the four single-flip classes
    _, minus = ghz_states()
    report = tomography(np.outer(minus, minus.conj()))
    assert report.w_minus == pytest.approx(1.0, abs=1e-12)
    assert report.fidelity == pytest.approx(0.0, abs=1e-12)
    for rep in (1, 2, 4, 7):
        assert report.class_probs[rep] == pytest.approx(0.25, abs=1e-12)
    assert report.p_z == pytest.approx(0.25, abs=1e-12)
    assert report.p_c1 == 0.0 and report.p_c2 == 0.0
    assert report.e_zeta == pytest.approx(0.25, abs=1e-12)


def test_computational_basis_state_class_weights():
    rho = np.zeros((16, 16))
    rho[3, 3] = 1.0  # two adjacent spins flipped
    report = tomography(rho)
    assert report.fidelity == pytest.approx(0.0, abs=1e-12)
    assert report.p_z == pytest.approx(0.125, abs=1e-12)
    assert report.p_c1 == pytest.approx(0.25, abs=1e-12)
    assert report.p_c2 == pytest.approx(0.0, abs=1e-12)
    assert report.e_zeta == pytest.approx(1.125, abs=1e-12)


def test_tomography_rejects_wrong_dimension():
    # the readout is four-spin only: a static part on three spins is refused before any work
    narrow = OperatorSum(3, [(1.0, PauliString.from_label("ZZI"))])
    with pytest.raises(ValueError, match="four spins"):
        no_evolution_point(0.5, 1.0, static=narrow)
    with pytest.raises(ValueError, match="four spins"):
        rampdown_series(0.5, 1.0, 0.5, [0.0, 0.5], static=narrow)


def test_tomography_negative_weight_is_a_numerical_failure():
    # readout weights are squared moduli, so none is negative; a state that
    # gains or loses weight fails the sum check beyond max(1e-10, 4 tol)
    tol = 1e-6
    energies, vectors = np.arange(16.0), np.eye(16, dtype=complex)
    assert issubclass(NumericalCheckError, ConvergenceError)
    _readout_of(energies, vectors, np.sqrt(1.0 + 3.0 * tol) * vectors, tol)
    for scale in (1.0 + 5.0 * tol, 1.0 - 5.0 * tol):
        with pytest.raises(NumericalCheckError, match="readout sums miss 1"):
            _readout_of(energies, vectors, np.sqrt(scale) * vectors, tol)


def test_sector_projectors_resolve_identity():
    p_plus, p_minus = sector_projectors()
    np.testing.assert_allclose(p_plus + p_minus, np.eye(16), atol=0)
    np.testing.assert_allclose(p_plus @ p_plus, p_plus, atol=1e-14)
    np.testing.assert_allclose(p_plus @ p_minus, np.zeros((16, 16)), atol=1e-14)
    assert np.trace(p_plus) == pytest.approx(8.0, abs=1e-12)
    # the + and - columns of the tomography basis span the two check sectors,
    # so w_plus and w_minus are sums over the + and - readout weights
    basis, labels = tomography_basis()
    signs = np.array([sector for _, sector in labels])
    for sector, projector in zip((1, -1), (p_plus, p_minus)):
        cols = basis[:, signs == sector]
        np.testing.assert_allclose(cols @ cols.conj().T, projector, atol=1e-14)


# ---------------------------------------------------------------- spectra

def test_spectrum_scan_at_zero_coupling():
    table = spectrum_scan(1.0, [0.0])
    values = table.energies[0]
    assert np.sum(np.abs(values + 4.0) < 1e-9) == 2
    assert np.sum(np.abs(values) < 1e-9) == 12
    assert np.sum(np.abs(values - 4.0) < 1e-9) == 2
    assert table.gap_global[0] == pytest.approx(0.0, abs=1e-12)
    assert table.gap_sector[0] == pytest.approx(4.0, abs=1e-12)
    sectors = table.sectors[0]
    assert np.sum(sectors == 1) == 8 and np.sum(sectors == -1) == 8
    # the degenerate ground doublet splits into one level per sector
    assert sorted(sectors[:2]) == [-1, 1]


@pytest.mark.parametrize("lam", [0.005, 0.01])
def test_sector_labels_follow_energy_order_near_zero_coupling(lam):
    # the two lowest levels are split by less than 1e-8 here, the lower
    # one in the + sector; each sector's levels must match scipy there
    h = to_dense(plaquette_hamiltonian(1.0, lam))
    reference = {}
    for sector, projector in zip((1, -1), sector_projectors()):
        cols = scipy.linalg.orth(projector)
        reference[sector] = scipy.linalg.eigvalsh(cols.T @ h @ cols)
    assert reference[1][0] < reference[-1][0]
    table = spectrum_scan(1.0, [lam])
    energies, sectors = table.energies[0], table.sectors[0]
    assert sectors[0] == 1
    for sector in (1, -1):
        assert np.abs(energies[sectors == sector] - reference[sector]).max() <= 1e-12
    assert abs(table.gap_sector[0] - (reference[1][1] - reference[1][0])) <= 1e-12


def test_spectrum_of_a_check_breaking_static_part_is_rejected():
    static = plaquette_ring_term(1.0) + OperatorSum(4, [(0.3, PauliString.from_label("ZIII"))])
    with pytest.raises(ValueError, match="mixed check sector"):
        spectrum_scan(1.0, [0.5], static=static)


def test_spectrum_scan_gap_columns():
    grid = np.linspace(0.0, 2.5, 11)
    table = spectrum_scan(1.0, grid)
    assert table.n_points == 11 and table.n_levels == 16
    np.testing.assert_allclose(table.gap_global, table.energies[:, 1] - table.energies[:, 0], atol=0)
    assert np.all(table.gap_sector >= table.gap_global - 1e-12)
    assert table.min_gap_sector() > 0


def test_spectrum_scan_validation():
    with pytest.raises(ValueError, match="empty"):
        spectrum_scan(1.0, [])
    with pytest.raises(ValueError, match=">= 0"):
        spectrum_scan(1.0, [-0.5])


def test_spectrum_path_endpoints_match_scan():
    table = spectrum_path(linear_rampdown(2.0, 1.0), samples=5)
    assert table.axis_name == "time"
    assert table.couplings.shape == (5, 4)
    np.testing.assert_array_equal(table.couplings[0], np.full(4, 2.0))
    np.testing.assert_array_equal(table.couplings[-1], np.zeros(4))
    scan = spectrum_scan(1.0, [2.0, 0.0])
    assert np.abs(table.energies[0] - scan.energies[0]).max() == 0.0
    assert np.abs(table.energies[-1] - scan.energies[1]).max() == 0.0


def test_spectrum_path_rows_match_scipy_per_sector():
    # four couplings that differ at every sample time
    ends = ((2.0, 0.0), (1.5, 0.3), (0.4, 1.2), (0.0, 0.9))
    sched = Schedule(1.0, tuple(
        (f"lambda{mu + 1}", PiecewiseLinear((0.0, 1.0), ends[mu])) for mu in range(4)
    ))
    table = spectrum_path(sched, samples=7)
    projectors = dict(zip((1, -1), sector_projectors()))
    for lams, energies, sectors in zip(table.couplings, table.energies, table.sectors):
        assert len(set(lams.tolist())) == 4
        h = to_dense(plaquette_hamiltonian(1.0, lams))
        for sector, projector in projectors.items():
            cols = scipy.linalg.orth(projector)
            reference = scipy.linalg.eigvalsh(cols.T @ h @ cols)
            assert np.abs(energies[sectors == sector] - reference).max() <= 1e-12
    assert np.all(np.diff(table.energies, axis=1) >= 0)


def test_staged_switchoff_keeps_sector_gap_open():
    for order, expected in (((1, 2, 3, 4), 2.387873), ((1, 3, 2, 4), 1.656854)):
        sched = sequential_switchoff(2.0, 1.0, order)
        table = spectrum_path(sched, samples=201)
        assert table.min_gap_sector() == pytest.approx(expected, abs=1e-5)
        # the global gap does close (the two sectors meet at the end)
        assert table.gap_global.min() < 1e-9


def test_spectrum_path_needs_two_samples():
    with pytest.raises(ValueError, match="two samples"):
        spectrum_path(linear_rampdown(1.0, 1.0), samples=1)


def test_plaquette_hamiltonian_static_replacement():
    default = plaquette_hamiltonian(1.0, 0.7)
    replaced = plaquette_hamiltonian(1.0, 0.7, static=plaquette_ring_term(1.0))
    assert default == replaced
    narrow = OperatorSum(3, [(1.0, PauliString.from_label("ZZI"))])
    with pytest.raises(ValueError, match="four spins"):
        plaquette_hamiltonian(1.0, 0.7, static=narrow)


@pytest.mark.parametrize(
    "static", [None, plaquette_ring_term(0.8) + OperatorSum(4, [(0.3, PauliString.from_label("XXXX"))])]
)
def test_plaquette_parts_rebuild_the_hamiltonian(static):
    h0, parts = plaquette_parts(1.3, static)
    assert h0 == plaquette_hamiltonian(1.3, 0.0, static)
    assert len(parts) == 4
    for lam in ([0.0, 0.0, 0.0, 0.0], [0.37, 1.21, 0.53, 0.89], [2.5, 2.5, 2.5, 2.5]):
        affine = to_dense(h0) + sum(c * to_dense(p) for c, p in zip(lam, parts))
        assert np.abs(affine - to_dense(plaquette_hamiltonian(1.3, lam, static))).max() <= 1e-14


# ------------------------------------------------------------- pipelines

def test_no_evolution_point_cold_limit():
    report = no_evolution_point(1e-12, 2.5)
    assert report.fidelity == pytest.approx(0.2771686062749825, abs=1e-9)
    assert report.e_zeta == pytest.approx(0.6452783552206455, abs=1e-9)
    plus, _ = ghz_states()
    ground = eigh(to_dense(plaquette_hamiltonian(1.0, 2.5))).vectors[:, 0]
    overlap = abs(plus.conj() @ ground) ** 2
    # channel fidelity of the unevolved ground state is its plain overlap
    assert report.fidelity == pytest.approx(overlap, abs=1e-10)


def test_run_point_sudden_limit():
    report = run_point(0.0, 2.5, tau=1e-3, tol=1e-6)
    frozen = no_evolution_point(0.0, 2.5)
    assert report.fidelity == pytest.approx(frozen.fidelity, abs=1e-4)


def test_run_point_is_deterministic_and_cached():
    a = run_point(0.37, 1.7, 0.5, tol=1e-6)
    b = run_point(0.37, 1.7, 0.5, tol=1e-6)
    assert a == b  # frozen dataclass, field-for-field identical


def test_rampdown_propagator_cache_is_bounded_and_read_only():
    # the readout holds the propagator's work: one per (lambda0, tau) across T
    assert _readout.cache_info().maxsize == 64
    run_point(0.21, 1.3, 0.4, tol=1e-6)
    hits = _readout.cache_info().hits
    run_point(0.55, 1.3, 0.4, tol=1e-6)  # another temperature, same schedule
    assert _readout.cache_info().hits == hits + 1
    readout = _readout(1.3, 0.4, 1.0, 1e-6, None)
    assert _readout.cache_info().hits == hits + 2
    for array in (readout.energies, readout.W, readout.e):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_readout_basis_errors_are_cached_and_read_only():
    e = _basis_errors()
    assert _basis_errors() is e
    assert e.tolist() == [_channel_report(unit).e_zeta for unit in np.eye(16)]
    with pytest.raises(ValueError, match="read-only"):
        e[0] = 0.0


def assert_same_report(report, oracle, atol):
    for field in ("fidelity", "p_z", "p_c1", "p_c2", "e_zeta", "w_minus"):
        assert abs(getattr(report, field) - getattr(oracle, field)) <= atol, field
    for mine, theirs in ((report.class_probs, oracle.class_probs), (report.raw, oracle.raw)):
        assert mine.keys() == theirs.keys()
        assert max(abs(mine[k] - theirs[k]) for k in mine) <= atol


@pytest.mark.parametrize("tau", [None, 2.0, 10.0])
@pytest.mark.parametrize("lambda0", [0.3, 2.5])
def test_readout_matches_the_density_matrix_path(lambda0, tau):
    h = plaquette_hamiltonian(1.0, lambda0)
    u = np.eye(16) if tau is None else schedule_unitary(*plaquette_parts(1.0), linear_rampdown(lambda0, tau), 1e-8)
    readout = _readout(lambda0, tau, 1.0, 1e-8, None)
    for T in (0.0, 1e-3, 0.37, 3.0):
        rho = gibbs_matrix(to_dense(h), T)
        oracle = tomography(u @ rho @ u.conj().T)
        report = no_evolution_point(T, lambda0) if tau is None else run_point(T, lambda0, tau)
        assert_same_report(report, oracle, 1e-12)
        assert abs(readout.e_zeta(T) - oracle.e_zeta) <= 1e-12


def test_readout_keeps_the_degenerate_ground_space_at_zero_temperature():
    h = plaquette_hamiltonian(1.0, 1e-3)
    levels = np.linalg.eigvalsh(to_dense(h))
    assert levels[1] - levels[0] <= 1e-9  # the T = 0 state mixes a degenerate ground space
    assert_same_report(no_evolution_point(0.0, 1e-3), tomography(gibbs_matrix(to_dense(h), 0.0)), 1e-12)


@pytest.mark.parametrize("tau", [2.0, 10.0])
@pytest.mark.parametrize("lambda0", [0.3, 1.5, 2.5])
def test_ramp_keeps_each_check_sector_weight(lambda0, tau):
    # every check commutes with H(t), so the ramp moves weight only inside a
    # sector: the minus-sector weight stays as cooled (measured within 3.9e-15)
    for T in (0.0, 0.1, 0.5, 1.0, 3.0):
        assert abs(run_point(T, lambda0, tau).w_minus - no_evolution_point(T, lambda0).w_minus) <= 1e-13


@pytest.fixture
def fresh_readouts():
    _readout.cache_clear()
    yield
    _readout.cache_clear()


def test_non_unitary_propagator_fails_the_readout_check(monkeypatch, fresh_readouts):
    monkeypatch.setattr(analysis, "schedule_unitary", lambda *args: 2.0 * np.eye(16, dtype=complex))
    with pytest.raises(NumericalCheckError, match="evolved state failed its check"):
        _readout(1.3, 0.4, 1.0, 1e-6, None)


def test_no_evolution_static_ring_matches_default():
    a = no_evolution_point(0.4, 1.2)
    b = no_evolution_point(0.4, 1.2, static=plaquette_ring_term(1.0))
    assert a == b


def test_error_grows_with_temperature():
    # below T ~ 0.3 the curve is flat at the cold limit (the gap at this
    # coupling is ~3J), with wiggles of order 1e-7; growth is unambiguous
    # once thermal occupation turns on
    values = [no_evolution_point(T, 2.5).e_zeta for T in (0.5, 1.0, 3.0)]
    assert all(b > a for a, b in zip(values, values[1:]))
    cold = no_evolution_point(0.05, 2.5).e_zeta
    assert abs(cold - 0.6452783552206455) <= 1e-9


# ------------------------------------------------------------- thresholds

def test_threshold_of_unevolved_state():
    t_star = threshold_temperature(0.3, tau=None)
    assert t_star == pytest.approx(0.0020237417569151147, abs=1e-6)
    assert abs(no_evolution_point(t_star, 0.3).e_zeta - 0.03) <= 1e-4


def test_threshold_below_bracket_returns_none():
    # cooled at strong coupling the unevolved state is far from the
    # target everywhere, so no temperature in the bracket qualifies
    assert threshold_temperature(2.5, tau=None, bracket=(1e-5, 3.0)) is None


@pytest.mark.parametrize("lambda0", [2.6, 2.7, 2.8])
def test_threshold_far_above_target_ignores_a_sub_micro_dip(lambda0):
    # the unevolved error dips by about 1e-6 between probes here, but every
    # probe is near 0.66, far above the target, so no crossing can move
    assert threshold_temperature(lambda0, tau=None) is None


def test_threshold_above_bracket_raises():
    with pytest.raises(ThresholdBracketError):
        threshold_temperature(0.3, tau=None, bracket=(1e-4, 1.5e-3))


def test_threshold_bracket_validation():
    with pytest.raises(ValueError, match="bracket"):
        threshold_temperature(1.0, tau=None, bracket=(2.0, 1.0))


def test_threshold_with_evolution_beats_no_evolution():
    # a slow ramp tolerates far more initial temperature than reading the
    # cooled state out directly: the ramped threshold sits near T = 0.25
    # while the unevolved error is over target even at T = 1e-4
    t_ramp = threshold_temperature(1.5, tau=2.0, tol=1e-6)
    assert t_ramp is not None and 0.2 < t_ramp < 0.3
    assert threshold_temperature(1.5, tau=None, bracket=(1e-4, 3.0)) is None
    assert no_evolution_point(1e-4, 1.5).e_zeta > 0.03


# ------------------------------------------------------------ chain gaps

def test_chain_sector_levels_at_zero_coupling():
    values = chain_sector_gap(4, 1.0, 0.0)
    np.testing.assert_allclose(values, [-4.0, -2.0], atol=1e-9)


def test_chain_sector_values_live_in_global_spectrum():
    values = chain_sector_gap(3, 1.0, 0.1)
    _, ham = build_chain_1d(3, 1.0, 0.1)
    dense = np.linalg.eigvalsh(to_dense(ham))
    for v in values:
        assert np.abs(dense - v).min() <= 1e-9
    # the global ground state sits inside the all-plus sector
    assert values[0] == pytest.approx(dense[0], abs=1e-9)


def test_chain_sector_gap_trend():
    gaps = []
    for N in (3, 4):
        lo = chain_sector_gap(N, 1.0, 0.1)
        gaps.append(float(lo[1] - lo[0]))
    np.testing.assert_allclose(gaps, [1.629778, 1.622828], atol=1e-5)
    assert gaps[1] < gaps[0]


_SPARSE_LETTERS = {
    "I": scipy.sparse.identity(2, format="csr"),
    "X": scipy.sparse.csr_matrix([[0.0, 1.0], [1.0, 0.0]]),
    "Y": scipy.sparse.csr_matrix([[0.0, -1.0j], [1.0j, 0.0]]),
    "Z": scipy.sparse.csr_matrix([[1.0, 0.0], [0.0, -1.0]]),
}


def sparse_matrix(op: OperatorSum):
    """Sparse Kronecker-product oracle, qubit 0 on the least significant bit."""
    total = None
    for coeff, s in op.terms:
        mat = scipy.sparse.identity(1, format="csr")
        for letter in s.letters:
            mat = scipy.sparse.kron(_SPARSE_LETTERS[letter], mat, format="csr")
        total = coeff * mat if total is None else total + coeff * mat
    return total


@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_chain_sector_gap_matches_penalized_eigsh(N):
    # H + c sum_j (1 - S_j)/2 shifts each violated check by c, above the
    # spectral width of H, so its lowest levels are the +1-sector ones
    lam = 0.2
    inst, ham = build_chain_1d(N, 1.0, lam)
    h = sparse_matrix(ham)
    eye = scipy.sparse.identity(h.shape[0], format="csr")
    penalty = 2.0 * (N + 2 * N * lam) + 1.0
    pen = h + penalty * sum(0.5 * (eye - sparse_matrix(stab)) for stab in stabilizers_1d(inst))
    # two spare Lanczos levels: a degenerate pair at the edge of the window can lose a member
    values = scipy.sparse.linalg.eigsh(pen, k=4, which="SA", tol=1e-13, return_eigenvectors=False)
    reference = np.sort(values.real)[:2]
    assert np.abs(chain_sector_gap(N, 1.0, lam) - reference).max() <= 1e-9


def test_chain_sector_gap_seed_has_no_effect():
    a = chain_sector_gap(5, 1.0, 0.3, n_levels=8, seed=1)
    b = chain_sector_gap(5, 1.0, 0.3, n_levels=8, seed=2)
    assert a.tobytes() == b.tobytes()


def test_chain_sector_gap_level_count_validation():
    assert chain_sector_gap(3, 1.0, 0.1, n_levels=8).shape == (8,)
    for bad in (0, 9):
        with pytest.raises(ValueError, match="n_levels"):
            chain_sector_gap(3, 1.0, 0.1, n_levels=bad)


def test_chain_sector_gap_refuses_beyond_the_dense_limit():
    # 13 tapered qubits: refused before any 2^13 x 2^13 matrix exists
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="exceeds limit"):
            chain_sector_gap(13, 1.0, 0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_report_is_frozen():
    report = no_evolution_point(0.5, 1.0)
    assert isinstance(report, ErrorChannelReport)
    with pytest.raises(AttributeError):
        report.fidelity = 0.0
