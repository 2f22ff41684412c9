"""Error-channel tomography, sector-labeled spectra, and thresholds."""

import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from clusterprep import analysis, evolve
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
    plaquette_parts,
    rampdown_series,
    run_point,
    spectrum_path,
    spectrum_scan,
    threshold_temperature,
    total_phase_flip_error,
)
from clusterprep.evolve import Schedule, linear_rampdown, schedule_unitary, sequential_switchoff
from clusterprep.linalg import ConvergenceError
from clusterprep.models import (
    build_chain_1d,
    build_plaquette_3d,
    plaquette_field_term,
    plaquette_ring_term,
    stabilizer_3d_local,
    stabilizers_1d,
)
from clusterprep.pauli import OperatorSum, PauliString, check_basis, to_dense
from clusterprep.thermal import thermal_weights
from oracles import gibbs_matrix, ground_resolvent_b, projected_levels, readout_basis, tomography_weights


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


def plaquette(lam, h0=None) -> OperatorSum:
    """The plaquette at couplings ``lam``: the unit ring (``h0=None``) or ``h0``, plus the fields."""
    return build_plaquette_3d(1.0, lam)[1] if h0 is None else h0 + plaquette_field_term(lam)


def sector_projectors() -> tuple[np.ndarray, np.ndarray]:
    """Projectors onto the +1 and -1 eigenspaces of the XXXX check."""
    w = to_dense(stabilizer_3d_local())
    return 0.5 * (np.eye(16) + w), 0.5 * (np.eye(16) - w)


def tomography(rho: np.ndarray) -> ErrorChannelReport:
    """The error channel of a four-spin density matrix, from the oracle's basis weights."""
    return _channel_report(tomography_weights(rho, readout_basis()[0]))


# ------------------------------------------------------------- tomography

def test_basis_is_orthonormal_and_labeled():
    basis, labels = readout_basis()
    assert basis.shape == (16, 16)
    assert np.abs(basis.conj().T @ basis - np.eye(16)).max() <= 1e-12
    assert len(labels) == 16
    assert labels[0] == (0, 1) and labels[1] == (0, -1)
    reps = [rep for rep, _ in labels]
    assert reps == [rep for rep in CLASS_REPS for _ in (0, 1)]
    assert set(CLASS_LABELS) == set(CLASS_REPS)


@pytest.mark.parametrize(
    "h0",
    [
        None,
        plaquette_ring_term(1.0) + OperatorSum(4, [(0.3, PauliString.from_label("ZIII"))]),
        OperatorSum(4, [(1.0, PauliString.from_label("XIII"))]),
    ],
    ids=["ring", "ring+ZIII", "XIII"],
)
@pytest.mark.parametrize("tau", [None, 10.0])
def test_readout_weighs_the_evolved_eigenstates_on_the_oracle_basis(h0, tau):
    # W[i, k] = |<b_i|U|k>|^2 with B built by hand, its rows in the order of the labels
    # that the channel report reads, from a read-only constant
    basis, labels = readout_basis()
    assert analysis._LABELS == labels
    assert np.array_equal(analysis._READOUT_ROWS, basis.conj().T)
    with pytest.raises(ValueError, match="read-only"):
        analysis._READOUT_ROWS[0, 0] = 0.0
    _, vectors = analysis._levels(2.5, h0)
    u = np.eye(16) if tau is None else schedule_unitary(*plaquette_parts(h0), linear_rampdown(2.5, tau), 1e-8)
    W = _readout(2.5, tau, h0, 1e-8).W
    assert np.abs(W - np.abs(basis.conj().T @ u @ vectors) ** 2).max() <= 1e-15


def test_tomography_basis_is_the_stabilizer_basis_of_the_check_and_the_ring_bonds():
    # column a of check_basis has XXXX = (-1)^(bit 0 of a) and bond (mu, mu + 1) = (-1)^(bit mu of a);
    # with spin 1 unflipped the bonds' running parities give the flip pattern, and XXXX the sector
    basis, labels = readout_basis()
    v = check_basis(4, [PauliString.from_label(s) for s in ("XXXX", "ZZII", "IZZI", "IIZZ")])
    for a in range(16):
        e = 0
        for mu in range(1, 4):
            e |= ((e >> (mu - 1) & 1) ^ (a >> mu & 1)) << mu
        column = basis[:, labels.index((analysis._class_rep(e), 1 - 2 * (a & 1)))]
        sign = (column.conj() @ v[:, a]).real.round()
        assert sign in (1.0, -1.0)
        assert np.abs(v[:, a] - sign * column).max() <= 1e-15


def frame_overlaps(h0: OperatorSum) -> np.ndarray:
    """<b_i|V|j>: each readout state b_i of the oracle on each column of the rampdown's frame basis V."""
    vb = evolve._sector_basis(*plaquette_parts(h0))
    return readout_basis()[0].conj().T @ vb.transpose(1, 0, 2).reshape(16, 16)


@pytest.mark.parametrize("J", [1.0, 2.0])
def test_ring_readout_is_a_relabelling_of_the_propagator_blocks(J):
    # on the ring the frame basis is the readout basis up to a signed permutation,
    # so W is |u_s E_s|^2 per sector with its rows relabelled, and needs no V
    overlaps = frame_overlaps(plaquette_ring_term(J))
    rows, frame = np.nonzero(np.abs(overlaps) > 0.5)
    assert np.array_equal(rows, np.arange(16)) and sorted(frame) == list(range(16))
    assert np.abs(np.abs(overlaps.real[rows, frame]) - 1.0).max() <= 1e-15
    assert np.abs(overlaps[np.abs(overlaps) <= 0.5]).max() <= 1e-15
    h0, parts = plaquette_parts(plaquette_ring_term(J))
    _, blocks_at = evolve._converged_propagators(h0, parts, linear_rampdown(2.5, 10.0), 1e-8, None)
    blocks = evolve._sector_blocks(h0, parts)[1].astype(complex)
    values, vectors = np.linalg.eigh(evolve._affine(blocks, np.full(4, 2.5)))
    per_sector = scipy.linalg.block_diag(*(np.abs(blocks_at[10.0] @ vectors) ** 2))
    order = np.argsort(values, axis=None, kind="stable")
    W = _readout(2.5, 10.0, plaquette_ring_term(J), 1e-8).W
    assert np.abs(per_sector[frame][:, order] - W).max() <= 1e-14


@pytest.mark.parametrize(
    "h0, per_state",
    [
        # no check survives ZIII: one 16x16 block in the computational basis
        (plaquette_ring_term(1.0) + OperatorSum(4, [(0.3, PauliString.from_label("ZIII"))]), 2),
        # XIII keeps the four single X checks: sixteen 1x1 blocks in the X basis
        (OperatorSum(4, [(1.0, PauliString.from_label("XIII"))]), 8),
    ],
)
def test_readout_of_a_check_breaking_static_part_needs_the_frame_basis(h0, per_state):
    assert ((np.abs(frame_overlaps(h0)) > 1e-12).sum(axis=1) == per_state).all()


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
        run_point(0.5, 1.0, None, h0=narrow)
    with pytest.raises(ValueError, match="four spins"):
        rampdown_series(0.5, 1.0, 0.5, [0.0, 0.5], h0=narrow)


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
    # the + and - columns of the readout basis span the two check sectors,
    # so w_plus and w_minus are sums over the + and - readout weights
    basis, labels = readout_basis()
    signs = np.array([sector for _, sector in labels])
    for sector, projector in zip((1, -1), (p_plus, p_minus)):
        cols = basis[:, signs == sector]
        np.testing.assert_allclose(cols @ cols.conj().T, projector, atol=1e-14)


# ---------------------------------------------------------------- spectra

def test_spectrum_scan_at_zero_coupling():
    table = spectrum_scan([0.0])
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
    h = to_dense(plaquette(lam))
    reference = {}
    for sector, projector in zip((1, -1), sector_projectors()):
        cols = scipy.linalg.orth(projector)
        reference[sector] = scipy.linalg.eigvalsh(cols.T @ h @ cols)
    assert reference[1][0] < reference[-1][0]
    table = spectrum_scan([lam])
    energies, sectors = table.energies[0], table.sectors[0]
    assert sectors[0] == 1
    for sector in (1, -1):
        assert np.abs(energies[sectors == sector] - reference[sector]).max() <= 1e-12
    assert abs(table.gap_sector[0] - (reference[1][1] - reference[1][0])) <= 1e-12


def test_spectrum_of_a_check_breaking_static_part_is_rejected():
    h0 = plaquette_ring_term(1.0) + OperatorSum(4, [(0.3, PauliString.from_label("ZIII"))])
    with pytest.raises(ValueError, match="mixed check sector"):
        spectrum_scan([0.5], h0)


def test_spectrum_labels_of_one_by_one_blocks_match_the_projected_levels():
    # with H0 = X on spin 1 every term commutes: 16 blocks of 1x1, each labeled by the sign of XXXX on it
    h0 = OperatorSum(4, [(1.0, PauliString.from_label("XIII"))])
    assert evolve._sector_blocks(*plaquette_parts(h0))[1].shape[1:] == (16, 1, 1)
    xxxx = stabilizer_3d_local().terms[0][1]
    grid = [0.0, 0.4, 1.0, 2.5]
    table = spectrum_scan(grid, h0)
    for lam, energies, sectors in zip(grid, table.energies, table.sectors):
        for sector in (1, -1):
            reference = projected_levels(plaquette([lam] * 4, h0), [xxxx], [sector])
            assert np.abs(energies[sectors == sector] - reference).max() <= 1e-12
        assert np.all(np.diff(energies) >= 0)


def test_exact_ties_list_the_minus_sector_first():
    # at zero coupling the ring is the same in both sectors: each level is an exact tie across them
    table = spectrum_scan([0.0])
    energies, sectors = table.energies[0], table.sectors[0]
    levels = np.unique(energies)
    assert levels.tolist() == [-4.0, 0.0, 4.0]
    for level in levels:
        tied = sectors[energies == level].tolist()
        assert set(tied) == {-1, 1} and tied == sorted(tied)


def test_spectra_never_build_the_frame_basis(monkeypatch):
    monkeypatch.setattr(evolve, "check_basis", lambda *args: pytest.fail("check_basis called"))
    evolve._sector_blocks.cache_clear()
    evolve._sector_basis.cache_clear()
    spectrum_scan([0.0, 1.0])
    spectrum_path(linear_rampdown(2.0, 1.0), samples=3)
    assert evolve._sector_basis.cache_info().currsize == 0


def test_spectrum_scan_gap_columns():
    grid = np.linspace(0.0, 2.5, 11)
    table = spectrum_scan(grid)
    assert table.n_points == 11 and table.n_levels == 16
    np.testing.assert_allclose(table.gap_global, table.energies[:, 1] - table.energies[:, 0], atol=0)
    assert np.all(table.gap_sector >= table.gap_global - 1e-12)
    assert table.min_gap_sector() > 0


def test_spectrum_scan_validation():
    with pytest.raises(ValueError, match="empty"):
        spectrum_scan([])
    with pytest.raises(ValueError, match=">= 0"):
        spectrum_scan([-0.5])


def test_spectrum_path_endpoints_match_scan():
    table = spectrum_path(linear_rampdown(2.0, 1.0), samples=5)
    assert table.axis_name == "time"
    assert table.couplings.shape == (5, 4)
    np.testing.assert_array_equal(table.couplings[0], np.full(4, 2.0))
    np.testing.assert_array_equal(table.couplings[-1], np.zeros(4))
    scan = spectrum_scan([2.0, 0.0])
    assert np.abs(table.energies[0] - scan.energies[0]).max() == 0.0
    assert np.abs(table.energies[-1] - scan.energies[1]).max() == 0.0


def test_spectrum_path_rows_match_scipy_per_sector():
    # four couplings that differ at every sample time
    sched = Schedule((0.0, 1.0), ((2.0, 1.5, 0.4, 0.0), (0.0, 0.3, 1.2, 0.9)))
    table = spectrum_path(sched, samples=7)
    projectors = dict(zip((1, -1), sector_projectors()))
    for lams, energies, sectors in zip(table.couplings, table.energies, table.sectors):
        assert len(set(lams.tolist())) == 4
        h = to_dense(plaquette(lams))
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


def test_spectrum_path_needs_four_coupling_columns():
    with pytest.raises(ValueError, match="four coupling columns"):
        spectrum_path(Schedule((0.0, 1.0), ((1.0,), (0.0,))))


def test_plaquette_hamiltonian_static_replacement():
    # H0 is the unit ring by default; the ring passed as h0 gives the same parts
    assert plaquette_parts() == plaquette_parts(plaquette_ring_term(1.0))
    assert plaquette_parts()[0] + plaquette_field_term(0.7) == build_plaquette_3d(1.0, 0.7)[1]
    # a static part off four spins, or a bond strength where h0 now stands, fails loudly
    narrow = OperatorSum(3, [(1.0, PauliString.from_label("ZZI"))])
    calls = (
        plaquette_parts,
        lambda h0: spectrum_scan([0.5], h0),
        lambda h0: spectrum_path(linear_rampdown(1.0, 1.0), h0),
        lambda h0: run_point(0.5, 1.0, 0.5, h0),
        lambda h0: rampdown_series(0.5, 1.0, 0.5, [0.5], h0),
        lambda h0: run_point(0.5, 1.0, None, h0),
        lambda h0: threshold_temperature(1.0, 0.5, h0),
    )
    for bad in (narrow, 1.0):
        for call in calls:
            with pytest.raises(ValueError, match="four spins"):
                call(bad)


@pytest.mark.parametrize(
    "static", [None, plaquette_ring_term(0.8) + OperatorSum(4, [(0.3, PauliString.from_label("XXXX"))])]
)
def test_plaquette_parts_rebuild_the_hamiltonian(static):
    h0, parts = plaquette_parts(static)
    assert h0 == plaquette(0.0, static)
    assert len(parts) == 4
    for lam in ([0.0, 0.0, 0.0, 0.0], [0.37, 1.21, 0.53, 0.89], [2.5, 2.5, 2.5, 2.5]):
        affine = to_dense(h0) + sum(c * to_dense(p) for c, p in zip(lam, parts))
        assert np.abs(affine - to_dense(plaquette(lam, static))).max() <= 1e-14


# ------------------------------------------------------------- pipelines

def test_no_evolution_point_cold_limit():
    report = run_point(1e-12, 2.5, None)
    assert report.fidelity == pytest.approx(0.2771686062749825, abs=1e-9)
    assert report.e_zeta == pytest.approx(0.6452783552206455, abs=1e-9)
    plus, _ = ghz_states()
    ground = np.linalg.eigh(to_dense(plaquette(2.5)))[1][:, 0]
    overlap = abs(plus.conj() @ ground) ** 2
    # channel fidelity of the unevolved ground state is its plain overlap
    assert report.fidelity == pytest.approx(overlap, abs=1e-10)


def test_run_point_sudden_limit():
    report = run_point(0.0, 2.5, tau=1e-3, tol=1e-6)
    frozen = run_point(0.0, 2.5, None)
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
    readout = _readout(1.3, 0.4, None, 1e-6)
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
    h = plaquette(lambda0)
    u = np.eye(16) if tau is None else schedule_unitary(*plaquette_parts(), linear_rampdown(lambda0, tau), 1e-8)
    readout = _readout(lambda0, tau, None, 1e-8)
    for T in (0.0, 1e-3, 0.37, 3.0):
        rho = gibbs_matrix(to_dense(h), T)
        oracle = tomography(u @ rho @ u.conj().T)
        report = run_point(T, lambda0, tau)
        assert_same_report(report, oracle, 1e-12)
        assert abs(readout.e_zeta(T) - oracle.e_zeta) <= 1e-12


def test_readout_keeps_the_degenerate_ground_space_at_zero_temperature():
    h = plaquette(1e-3)
    levels = np.linalg.eigvalsh(to_dense(h))
    assert levels[1] - levels[0] <= 1e-9  # the T = 0 state mixes a degenerate ground space
    assert_same_report(run_point(0.0, 1e-3, None), tomography(gibbs_matrix(to_dense(h), 0.0)), 1e-12)


@pytest.mark.parametrize(
    "static, block_shape",
    [
        (None, (2, 8, 8)),  # the XXXX check's two sectors
        (plaquette_ring_term(1.0) + OperatorSum(4, [(0.3, PauliString.from_label("ZIII"))]), (1, 16, 16)),
        (OperatorSum(4, [(1.0, PauliString.from_label("XIII"))]), (16, 1, 1)),  # every term commutes
    ],
    ids=["ring", "check-breaking", "commuting-X0"],
)
def test_frame_levels_match_the_dense_spectrum(static, block_shape):
    lambda0, tau, tol = 1.7, 2.0, 1e-8
    parts = plaquette_parts(static)
    assert evolve._sector_blocks(*parts)[1].shape[1:] == block_shape
    energies, vectors = analysis._levels(lambda0, static)
    values, dense = np.linalg.eigh(to_dense(plaquette(lambda0, static)))
    assert np.abs(energies - values).max() <= 1e-13
    u = schedule_unitary(*parts, linear_rampdown(lambda0, tau), tol)
    for evolved in (None, u):
        ours, oracle = _readout_of(energies, vectors, evolved, tol), _readout_of(values, dense, evolved, tol)
        # a degenerate level's eigenvectors are free up to a rotation among
        # themselves; the weights summed over the level are not
        level = np.cumsum(np.r_[0, np.diff(values) > 1e-9])
        for k in range(level[-1] + 1):
            group = level == k
            assert np.abs(ours.W[:, group].sum(axis=1) - oracle.W[:, group].sum(axis=1)).max() <= 1e-13
            assert abs(ours.e[group].sum() - oracle.e[group].sum()) <= 1e-13


def test_frame_levels_refuse_non_finite_levels():
    # finite blocks, but levels near 4e308: refused before numpy warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="levels are not finite"):
            analysis._levels(1e308, None)


def test_readout_builds_no_operator_of_its_own(monkeypatch):
    # the levels come from the propagator's cached frame: a cold readout
    # builds no Hamiltonian and densifies nothing
    plaquette_parts()
    for name in ("check_blocks", "plaquette_ring_term", "plaquette_field_term"):
        monkeypatch.setattr(analysis, name, lambda *args, name=name: pytest.fail(f"{name} called"))
    assert _readout.__wrapped__(1.3, 0.4, None, 1e-6).W.shape == (16, 16)


@pytest.mark.parametrize("tau", [2.0, 10.0])
@pytest.mark.parametrize("lambda0", [0.3, 1.5, 2.5])
def test_ramp_keeps_each_check_sector_weight(lambda0, tau):
    # every check commutes with H(t), so the ramp moves weight only inside a
    # sector: the minus-sector weight stays as cooled (measured within 3.9e-15)
    for T in (0.0, 0.1, 0.5, 1.0, 3.0):
        assert abs(run_point(T, lambda0, tau).w_minus - run_point(T, lambda0, None).w_minus) <= 1e-13


@pytest.mark.parametrize("tau", [20.0, 40.0, 80.0])
@pytest.mark.parametrize("lambda0", [1.5, 2.0, 2.5])
def test_rampdown_infidelity_lies_in_the_adiabatic_bracket(lambda0, tau):
    # the linear ramp has lambda' = -lambda0 in s = t / tau, so to first order
    # lambda0 |b(0) - b(lambda0)| <= tau sqrt(1 - F) <= lambda0 (b(0) + b(lambda0)),
    # in the XXXX +1 block where the cooled ground state lives.  The next order
    # adds O(1/tau) to tau sqrt(1 - F).  Its boundary terms, ||R d/ds(R^2 H' |0>)||
    # at each end over tau (estimated here by finite differences), come to 0.93 to
    # 1.03 times the sum over the ends of (lambda0 ||h1|| / g^2)^2 / tau, g the end's
    # gap; the slack is twice that sum, which leaves room for the bulk terms.  With
    # no slack every point lies inside; the closest, lambda0 = 2.5 at tau = 40, by 0.016
    values, vectors = np.linalg.eigh(to_dense(stabilizer_3d_local()))
    plus = vectors[:, values > 0]
    h0, parts = plaquette_parts()
    h0, h1 = (plus.T @ to_dense(op) @ plus for op in (h0, sum(parts[1:], parts[0])))
    (b0, g0), (b1, g1) = (ground_resolvent_b(h0 + lam * h1, h1) for lam in (0.0, lambda0))
    slack = 2.0 * sum((lambda0 * np.linalg.norm(h1, 2) / g**2) ** 2 for g in (g0, g1)) / tau
    amplitude = tau * np.sqrt(1.0 - run_point(0.0, lambda0, tau, tol=1e-10).fidelity)
    assert lambda0 * abs(b0 - b1) - slack <= amplitude <= lambda0 * (b0 + b1) + slack


@pytest.fixture
def fresh_readouts():
    _readout.cache_clear()
    yield
    _readout.cache_clear()


def test_non_unitary_propagator_fails_the_readout_check(monkeypatch, fresh_readouts):
    monkeypatch.setattr(analysis, "schedule_unitary", lambda *args: 2.0 * np.eye(16, dtype=complex))
    with pytest.raises(NumericalCheckError, match="evolved state failed its check"):
        _readout(1.3, 0.4, None, 1e-6)


def test_no_evolution_static_ring_matches_default():
    a = run_point(0.4, 1.2, None)
    b = run_point(0.4, 1.2, None, h0=plaquette_ring_term(1.0))
    assert a == b


@pytest.mark.parametrize("T", [5e-324, 1e-320, 1e-310])
def test_a_tiny_temperature_reads_out_the_zero_temperature_state_without_a_warning(T):
    # each gap over T overflows to inf, and exp(-inf) = 0 is the T -> 0+ limit that T = 0 takes too
    zero = run_point(0.0, 1.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_point(T, 1.0, 1.0) == zero


def test_error_grows_with_temperature():
    # below T ~ 0.3 the curve is flat at the cold limit (the gap at this
    # coupling is ~3J), with wiggles of order 1e-7; growth is unambiguous
    # once thermal occupation turns on
    values = [run_point(T, 2.5, None).e_zeta for T in (0.5, 1.0, 3.0)]
    assert all(b > a for a, b in zip(values, values[1:]))
    cold = run_point(0.05, 2.5, None).e_zeta
    assert abs(cold - 0.6452783552206455) <= 1e-9


# ------------------------------------------------------------- thresholds

def test_threshold_of_unevolved_state():
    t_star = threshold_temperature(0.3, tau=None)
    assert t_star == pytest.approx(0.0020237417569151147, abs=1e-6)
    assert abs(run_point(t_star, 0.3, None).e_zeta - 0.03) <= 1e-4


def sector_bound_temperature(lambda0: float, target: float = 0.03) -> float:
    """T_b with 0.25 w_minus(T_b) = target, w_minus the cooled state's minus-sector weight."""
    excess = lambda T: 0.25 * run_point(T, lambda0, None).w_minus - target
    lo, hi = 1e-4, 100.0
    assert excess(lo) < 0.0 < excess(hi)
    while hi - lo > 1e-13 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if excess(mid) < 0.0 else (lo, mid)
    return 0.5 * (lo + hi)


def test_threshold_is_bounded_by_the_conserved_sector_weight():
    # every minus-sector basis state has e_zeta >= 0.25 and the ramp keeps each
    # sector's weight, so e_zeta(T) >= 0.25 w_minus(T) and T_star <= T_b at every
    # tau; T_b needs no integrator (measured: largest T_star / T_b 0.99999)
    ratios = {}
    for lambda0 in (0.3, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
        t_bound = sector_bound_temperature(lambda0)
        for tau in (1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 80.0):
            t_star = threshold_temperature(lambda0, tau)
            if t_star is not None:
                ratios[lambda0, tau] = t_star / t_bound
    assert len(ratios) == 41  # short strong-coupling ramps have no threshold in the bracket
    assert max(ratios.values()) <= 1.0 + 1e-8


def reference_threshold(readout, bracket, target=0.03):
    """`threshold_temperature`'s search with every error read through `thermal.thermal_weights`.

    Returns T_star, None below the bracket, or "above" above it.
    """
    err = lambda T: float(readout.e @ thermal_weights(readout.energies, T))
    lo, hi = bracket
    probes = np.geomspace(max(lo, 1e-12), hi, 9)
    probes[0], probes[-1] = lo, hi
    samples = [err(float(T)) for T in probes]
    if min(samples) > target:
        return None
    if max(samples) < target:
        return "above"
    t_lo, t_hi = lo, hi
    for _ in range(200):
        mid = 0.5 * (t_lo + t_hi)
        if err(mid) <= target:
            t_lo = mid
        else:
            t_hi = mid
        if t_hi - t_lo <= 1e-9 * max(1.0, t_hi):
            break
    return 0.5 * (t_lo + t_hi)


def test_threshold_bits_match_a_bisection_on_thermal_weights():
    # on item 7's grid, from the readouts that the bound test above left cached: the batched
    # probes and the bisection's errors must decide exactly as thermal_weights does, so every
    # T_star keeps its bits; a bracket from 0 puts the T = 0 ground-space rule on the first probe
    found = 0
    for lambda0 in (0.3, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
        for tau in (1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 80.0):
            readout = _readout(lambda0, tau, None, 1e-8)
            for bracket in ((1e-3, 3.0), (0.0, 3.0)):
                probes = analysis._probe_temperatures(*bracket)
                batched = readout.e_zeta(probes)
                single = [float(readout.e @ thermal_weights(readout.energies, float(T))) for T in probes]
                assert [x.hex() for x in batched] == [x.hex() for x in single]
                assert [readout.e_zeta(float(T)).hex() for T in probes] == [x.hex() for x in single]
                expected = reference_threshold(readout, bracket)
                assert expected != "above"
                t_star = threshold_temperature(lambda0, tau, bracket=bracket)
                assert (t_star is None) == (expected is None)
                if t_star is not None:
                    assert t_star.hex() == expected.hex()
                    found += 1
    assert found == 2 * 41
    assert analysis._probe_temperatures(0.0, 3.0)[0] == 0.0


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


@pytest.mark.parametrize("hi", [1e60, 1e300, 1.7e308])
def test_threshold_bisects_a_wide_bracket_until_its_stop_rule_holds(hi):
    # about 230 halvings pin the threshold in (1e-3, 1e60), and at most about 1054 in any finite bracket
    t_star = threshold_temperature(2.0, 5.0, bracket=(1e-3, hi))
    assert abs(t_star / threshold_temperature(2.0, 5.0, bracket=(1e-3, 3.0)) - 1.0) <= 2e-9


def test_threshold_near_the_largest_double_stays_inside_its_bracket():
    # the target is the error's high-temperature plateau, met at every probe, so the bisection climbs
    # to the top of the bracket, where a midpoint summed before halving overflows to inf
    lo, hi, target = 1e308, 1.7e308, 0.8749999999999987
    t_star = threshold_temperature(2.0, 5.0, target=target, bracket=(lo, hi))
    assert np.isfinite(t_star) and lo <= t_star <= hi
    assert abs(_readout(2.0, 5.0, None, 1e-8).e_zeta(t_star) - target) <= 1e-4


def test_threshold_refuses_an_infinite_bracket_end_before_any_readout():
    before = _readout.cache_info()
    with pytest.raises(ValueError, match="finite"):
        threshold_temperature(1.0, 2.0, bracket=(1e-3, np.inf))
    assert _readout.cache_info() == before


def test_threshold_with_evolution_beats_no_evolution():
    # a slow ramp tolerates far more initial temperature than reading the
    # cooled state out directly: the ramped threshold sits near T = 0.25
    # while the unevolved error is over target even at T = 1e-4
    t_ramp = threshold_temperature(1.5, tau=2.0, tol=1e-6)
    assert t_ramp is not None and 0.2 < t_ramp < 0.3
    assert threshold_temperature(1.5, tau=None, bracket=(1e-4, 3.0)) is None
    assert run_point(1e-4, 1.5, None).e_zeta > 0.03


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


@pytest.mark.parametrize("N, n_levels", [(-1, 2), (0, 2), (2, 8)])
def test_chain_sector_gap_refuses_a_short_chain_before_its_level_count(N, n_levels):
    with pytest.raises(ValueError, match="need N >= 3"):
        chain_sector_gap(N, 1.0, 0.3, n_levels=n_levels)


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
    report = run_point(0.5, 1.0, None)
    assert isinstance(report, ErrorChannelReport)
    with pytest.raises(AttributeError):
        report.fidelity = 0.0
