"""End-to-end acceptance checks.

Each test exercises one headline guarantee of the package at its stated
tolerance, times itself against a runtime budget, and prints a one-line
PASS record (visible under ``pytest -s``).  These are the checks to run
before trusting any production sweep.
"""

import contextlib
import io
import time

import numpy as np
import pytest

from clusterprep import cli
from clusterprep.analysis import (
    _channel_report,
    no_evolution_point,
    plaquette_parts,
    rampdown_series,
    run_point,
    spectrum_path,
    spectrum_scan,
    threshold_temperature,
    tomography_basis,
)
from clusterprep.evolve import (
    PiecewiseLinear,
    Schedule,
    schedule_unitary,
    sequential_switchoff,
)
from clusterprep.models import build_plaquette_3d, gap_closed_form
from clusterprep.pauli import OperatorSum, PauliString, to_dense
from clusterprep.pham import parse, serialize
from oracles import expm_scaled, gibbs_matrix, tomography_weights


def _report(k: int, label: str, t0: float, budget: float):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"{label}: {elapsed:.1f} s exceeded the {budget:.0f} s budget"
    print(f"ACCEPTANCE {k}: PASS {label} ({elapsed:.2f} s < {budget:.0f} s)")


def _cli(*argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def test_acceptance_01_conserved_checks_commute_exactly():
    t0 = time.perf_counter()
    cases = [
        ("verify", "--model", "1d", "--N", str(n), "--lambda", str(lam))
        for n in (3, 4, 5, 6)
        for lam in (0.1, 0.3, 0.45)
    ]
    cases.append(("verify", "--model", "2d", "--L1", "2", "--L2", "2", "--lambda", "0.5"))
    cases.extend(("verify", "--model", "3d", "--lambda", str(lam)) for lam in (0.5, 2.5))
    for argv in cases:
        code, out = _cli(*argv)
        assert code == 0, argv
        assert "exactly conserved" in out
    _report(1, "conserved checks commute exactly across all models", t0, 10.0)


def test_acceptance_02_plaquette_gap_matches_closed_form():
    t0 = time.perf_counter()
    grid = np.linspace(0.0, 2.5, 50)
    table = spectrum_scan(1.0, grid)
    for lam, gap in zip(grid, table.gap_global):
        assert abs(gap - gap_closed_form("3d", 1.0, float(lam))) <= 1e-10
    spots = spectrum_scan(1.0, [0.0, 1.0])
    assert abs(spots.gap_global[0] - 0.0) <= 1e-12
    assert abs(spots.gap_global[1] - 0.397825) <= 1e-6
    _report(2, "global plaquette gap matches its closed form to 1e-10", t0, 1.0)


def test_acceptance_03_sector_gap_dominates_global_gap():
    t0 = time.perf_counter()
    table = spectrum_scan(1.0, np.linspace(0.0, 2.5, 50))
    assert abs(table.gap_sector[0] - 4.0) <= 1e-12
    assert np.all(table.gap_sector >= table.gap_global - 1e-12)
    _report(3, "check-sector gap stays at or above the global gap", t0, 2.0)


def test_acceptance_04_chain_sector_gap_approaches_closed_form():
    from clusterprep.analysis import chain_sector_gap

    t0 = time.perf_counter()
    target = gap_closed_form("1d", 1.0, 0.2)  # 1.2
    gaps = []
    for n in range(3, 11):
        lo = chain_sector_gap(n, 1.0, 0.2)
        gaps.append(float(lo[1] - lo[0]))
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert all(g > target for g in gaps)
    assert abs(gaps[-1] - target) / target <= 0.10
    _report(4, "chain sector gap falls monotonically to within 10% of 2J-4λ", t0, 60.0)


def test_acceptance_05_propagation_matches_oracles_and_conserves():
    t0 = time.perf_counter()
    h0, parts = plaquette_parts(1.0)
    hamiltonian = lambda lam: build_plaquette_3d(1.0, lam)[1]

    # constant coupling against the eigendecomposition exponential
    tau, lam = 0.9, 1.1
    const = Schedule(tau, (("lambda", PiecewiseLinear((0.0, tau), (lam, lam))),))
    rho0 = gibbs_matrix(to_dense(hamiltonian(lam)), 0.7)
    u = schedule_unitary(h0, parts, const, tol=1e-10)
    oracle = expm_scaled(to_dense(hamiltonian(lam)), -1j * tau)
    assert np.abs(u @ rho0 @ u.conj().T - oracle @ rho0 @ oracle.conj().T).max() <= 1e-8

    # conservation along the production rampdown: unit weight, fixed sector weights
    rows, _ = rampdown_series(0.5, 2.5, 10.0, np.linspace(0.0, 10.0, 12))
    w0 = no_evolution_point(0.5, 2.5).w_minus
    for _, _, _, w_plus, w_minus in rows:
        assert abs(w_plus + w_minus - 1.0) <= 1e-8
        assert abs(w_minus - w0) <= 1e-8
    _report(5, "propagation matches the exponential oracle and conserves invariants", t0, 30.0)


def test_acceptance_06_tomography_is_complete_and_orthonormal():
    t0 = time.perf_counter()
    basis, _ = tomography_basis()
    assert np.abs(basis.conj().T @ basis - np.eye(16)).max() <= 1e-12
    rng = np.random.default_rng(606)
    for _ in range(100):
        a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        rho = a @ a.conj().T
        report = _channel_report(tomography_weights(rho / np.trace(rho).real, basis))
        total = report.fidelity + 4 * report.p_z + 2 * report.p_c1 + report.p_c2
        assert abs(total - 1.0) <= 1e-8
    _report(6, "error tomography is complete on random states", t0, 5.0)


def test_acceptance_07_slower_ramps_raise_the_threshold():
    t0 = time.perf_counter()
    stars = {tau: threshold_temperature(2.5, tau) for tau in (5.0, 7.0, 10.0)}
    assert stars[5.0] < stars[7.0] < stars[10.0]
    # the unevolved pipeline is over target even at the bottom of a bracket
    # two orders below the ramped thresholds, so every ramped threshold
    # beats the unevolved one by a factor of at least 100
    assert threshold_temperature(2.5, None, bracket=(1e-5, 3.0)) is None
    for t_star in stars.values():
        assert no_evolution_point(t_star / 100.0, 2.5).e_zeta > 0.03
        assert t_star / 1e-5 > 100.0
    _report(7, "threshold temperature rises with ramp duration", t0, 600.0)


def test_acceptance_08_temperature_sensitivity_of_the_error_channel():
    t0 = time.perf_counter()
    for tau in (5.0, 7.0, 10.0):
        cool = run_point(0.5, 2.5, tau)
        warm = run_point(1.0, 2.5, tau)
        ratio = warm.e_zeta / cool.e_zeta
        assert 3.0 <= ratio <= 30.0, (tau, ratio)
        for r in (cool, warm):
            assert r.p_c1 + r.p_c2 < r.p_z, (tau, r)
    _report(8, "heating by 2x costs about an order of magnitude in error", t0, 300.0)


def test_acceptance_09_staged_switchoff_never_closes_the_sector_gap():
    t0 = time.perf_counter()
    scan = spectrum_scan(1.0, [2.0, 0.0])
    for order in ((1, 2, 3, 4), (1, 3, 2, 4)):
        table = spectrum_path(sequential_switchoff(2.0, 1.0, order), samples=201)
        assert table.min_gap_sector() > 0.0
        assert np.abs(table.energies[0] - scan.energies[0]).max() <= 1e-12
        assert np.abs(table.energies[-1] - scan.energies[1]).max() <= 1e-12
    _report(9, "staged switch-off keeps the protected gap open", t0, 10.0)


def test_acceptance_10_artifacts_are_deterministic(tmp_path):
    t0 = time.perf_counter()
    argv = ("sweep", "--T", "0.2,0.8", "--lambda0", "1.25", "--tau", "0.75", "--tol", "1e-6")
    paths = [tmp_path / name for name in ("w1.csv", "w2.csv", "again.csv")]
    for path, workers in zip(paths, ("1", "2", "1")):
        code, _ = _cli(*argv, "--workers", workers, "--output", str(path))
        assert code == 0
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]

    rng = np.random.default_rng(1010)
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        mask = (1 << n) - 1
        terms = []
        for _ in range(int(rng.integers(1, 10))):
            x = int(rng.integers(0, mask + 1))
            z = int(rng.integers(0, mask + 1))
            if x or z:
                terms.append((float(rng.normal()), PauliString(n, x, z)))
        op = OperatorSum(n, terms)
        assert parse(serialize(op)) == op
    _report(10, "sweep artifacts byte-stable; 1000 operator round-trips exact", t0, 30.0)
