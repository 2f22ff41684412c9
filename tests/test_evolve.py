"""Schedules and step-doubled propagation.

The integrator tests lean on three oracles: constant schedules against
the eigendecomposition exponential, time-dependent schedules against
scipy's DOP853 integrator, and conservation laws (unit total weight,
check-sector weights) that the exact dynamics obeys identically.
"""

import contextlib
import io
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import solve_ivp

from clusterprep import analysis, cli, evolve
from clusterprep.analysis import plaquette_parts, rampdown_series, run_point
from clusterprep.evolve import (
    Schedule,
    linear_rampdown,
    schedule_unitary,
    sequential_switchoff,
)
from clusterprep.linalg import ConvergenceError, NumericalCheckError
from clusterprep.models import (
    build_chain_1d,
    build_plaquette_3d,
    plaquette_field_term,
    plaquette_ring_term,
    stabilizer_3d_local,
)
from clusterprep.pauli import OperatorSum, PauliString, check_basis, check_blocks, conserved_checks, to_dense
from oracles import (expm_scaled, gibbs_matrix, paterson_stockmeyer_expm, taylor_admissible, taylor_plan,
                     taylor_products)


PLAQUETTE = plaquette_parts()


def thermal_input(lam0: float, T: float, J=1.0) -> np.ndarray:
    return gibbs_matrix(to_dense(build_plaquette_3d(J, lam0)[1]), T)


def evolved(u: np.ndarray, rho: np.ndarray) -> np.ndarray:
    return u @ rho @ u.conj().T


def constant_schedule(lam: float, tau: float) -> Schedule:
    return Schedule((0.0, tau), ((lam,) * 4, (lam,) * 4))


# ------------------------------------------------------------- schedules

def test_piecewise_linear_evaluation():
    sched = Schedule((0.0, 1.0, 3.0), ((2.0, 0.0), (1.0, 0.5), (1.0, 2.5)))
    assert sched.duration == 3.0
    mat = sched.coupling_matrix(np.array([0.0, 0.5, 1.0, 2.0, 3.0]))
    np.testing.assert_array_equal(mat, [[2.0, 0.0], [1.5, 0.25], [1.0, 0.5], [1.0, 1.5], [1.0, 2.5]])
    # the domain check allows a rounding-sized excursion and clamps it
    np.testing.assert_array_equal(sched.coupling_matrix([3.0 + 1e-10]), [[1.0, 2.5]])


def test_piecewise_linear_validation():
    with pytest.raises(ValueError, match="equal-length"):
        Schedule((0.0, 1.0), ((1.0,),))
    with pytest.raises(ValueError, match="equal-length"):
        Schedule((), ())
    with pytest.raises(ValueError, match="strictly increasing"):
        Schedule((0.0, 0.0), ((1.0,), (1.0,)))
    with pytest.raises(ValueError, match="strictly increasing"):
        Schedule((0.0, math.inf), ((1.0,), (1.0,)))
    with pytest.raises(ValueError, match="finite and >= 0"):
        Schedule((0.0, 1.0), ((1.0,), (-0.5,)))
    with pytest.raises(ValueError, match="finite and >= 0"):
        Schedule((0.0, 1.0), ((1.0,), (math.nan,)))
    sched = Schedule((0.0, 1.0), ((1.0,), (0.0,)))
    with pytest.raises(ValueError, match="outside schedule domain"):
        sched.coupling_matrix([-1.0])
    with pytest.raises(ValueError, match="outside schedule domain"):
        sched.coupling_matrix([0.5, 1.5])


def test_schedule_refuses_a_coupling_slope_that_overflows():
    # np.interp's slope 1 / 1e-320 would overflow to -inf couplings between the knots
    for make in (lambda: linear_rampdown(1.0, 1e-320), lambda: sequential_switchoff(1.0, 1e-320, (1, 2, 3, 4))):
        with pytest.raises(ValueError, match="slope between knots must be finite"):
            make()
    with pytest.raises(ValueError, match="slope between knots must be finite"):
        Schedule((0.0, 1e-300, 1.0), ((0.0,), (1e10,), (0.0,)))
    # a knot interval of 1e-320 is fine while the couplings do not change across it
    steady = Schedule((0.0, 1e-320, 1.0), ((1.0,), (1.0,), (0.0,)))
    np.testing.assert_array_equal(steady.coupling_matrix([5e-321, 0.5]), [[1.0], [0.5]])


def test_linear_rampdown_examples():
    sched = linear_rampdown(2.5, 10.0)
    assert sched.duration == 10.0
    assert sched.times == (0.0, 10.0)
    assert sched.couplings == ((2.5,) * 4, (0.0,) * 4)
    np.testing.assert_allclose(sched.coupling_matrix([0.0, 5.0, 10.0]), [[2.5] * 4, [1.25] * 4, [0.0] * 4])
    assert linear_rampdown(2.0, 4.0).coupling_matrix([2.0])[0, 0] == 1.0
    with pytest.raises(ValueError):
        sched.coupling_matrix([-1.0])
    with pytest.raises(ValueError, match="lambda0"):
        linear_rampdown(0.0, 1.0)
    with pytest.raises(ValueError, match="tau"):
        linear_rampdown(1.0, 0.0)


def test_sequential_switchoff_staging():
    sched = sequential_switchoff(2.0, 1.0, (1, 2, 3, 4))
    assert sched.duration == 4.0
    assert sched.times == (0.0, 1.0, 2.0, 3.0, 4.0)
    lam = sched.coupling_matrix([1.5])[0]
    np.testing.assert_allclose(lam, [0.0, 1.0, 2.0, 2.0])
    np.testing.assert_allclose(sched.coupling_matrix([4.0])[0], np.zeros(4))
    np.testing.assert_allclose(sched.coupling_matrix([0.0])[0], np.full(4, 2.0))


def test_sequential_switchoff_respects_order():
    sched = sequential_switchoff(2.0, 1.0, (1, 3, 2, 4))
    lam = sched.coupling_matrix([1.5])[0]  # second segment ramps spin 3
    np.testing.assert_allclose(lam, [0.0, 2.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="permutation"):
        sequential_switchoff(2.0, 1.0, (1, 2, 3, 3))


def test_schedule_validation_and_knots():
    with pytest.raises(ValueError, match="at least one"):
        Schedule((0.0, 1.0), ((), ()))
    sched = sequential_switchoff(1.0, 0.5, (2, 1, 3, 4))
    assert sched.times == (0.0, 0.5, 1.0, 1.5, 2.0)
    assert sched.couplings[1:3] == ((1.0, 0.0, 1.0, 1.0), (0.0, 0.0, 1.0, 1.0))


def test_coupling_matrix_shapes():
    uniform = linear_rampdown(1.0, 2.0)
    mat = uniform.coupling_matrix(np.array([0.0, 1.0, 2.0]))
    assert mat.shape == (3, 4)
    assert np.ptp(mat, axis=1).max() == 0.0  # all four columns identical
    one = Schedule((0.0, 1.0, 2.0), ((1.0,), (0.0,), (3.0,)))
    assert one.coupling_matrix(np.linspace(0.0, 2.0, 5)).shape == (5, 1)


def test_one_column_schedule_drives_one_part():
    # one H_mu: the four unit fields as a single part, driven by one coupling column
    lambda0, tau = 2.5, 3.0
    h0 = plaquette_ring_term(1.0)
    one = Schedule((0, tau), ((lambda0,), (0.0,)))
    u_one = schedule_unitary(h0, (plaquette_field_term(1.0),), one, tol=1e-10)
    u_four = schedule_unitary(*PLAQUETTE, linear_rampdown(lambda0, tau), tol=1e-10)
    assert np.abs(u_one - u_four).max() <= 1e-12
    with pytest.raises(ValueError, match="1 couplings but 4 Hamiltonian parts"):
        schedule_unitary(*PLAQUETTE, one, tol=1e-6)
    with pytest.raises(ValueError, match="same number of couplings"):
        Schedule((0.0, tau), ((lambda0,), (0.0, 0.0)))
    with pytest.raises(ValueError, match="start at 0.0"):
        Schedule((0.5, tau), ((lambda0,), (0.0,)))


# ------------------------------------------------------------ propagation

def test_constant_schedule_matches_exponential_oracle():
    tau, lam = 0.7, 1.3
    rho0 = thermal_input(lam, 0.5)
    final = evolved(schedule_unitary(*PLAQUETTE, constant_schedule(lam, tau), tol=1e-10), rho0)
    oracle = evolved(expm_scaled(to_dense(build_plaquette_3d(1.0, lam)[1]), -1j * tau), rho0)
    assert np.abs(final - oracle).max() <= 1e-8


def test_zero_duration_returns_input():
    sched = Schedule((0.0,), ((1.0,) * 4,))
    rho0 = thermal_input(1.0, 0.3)
    final = evolved(schedule_unitary(*PLAQUETTE, sched, tol=1e-8), rho0)
    assert np.abs(final - rho0).max() <= 1e-14


def test_conserved_quantities_along_rampdown():
    # the evolve rows: unit total weight, and a minus-sector weight that the
    # ramp never changes (the XXXX check commutes with every H(t))
    rows, final = rampdown_series(0.5, 2.5, 10.0, np.linspace(0.0, 10.0, 11))
    w_minus = run_point(0.5, 2.5, None).w_minus
    assert w_minus > 1e-3
    for _, _, _, w_p, w_m in rows:
        assert abs(w_p + w_m - 1.0) <= 1e-13
        assert abs(w_m - w_minus) <= 1e-13
    assert abs(final.w_minus - w_minus) <= 1e-13


def test_infidelity_decreases_with_ramp_duration():
    # slower ramps leave less weight outside the target state
    infidelity = []
    for tau in (5.0, 7.0, 10.0, 20.0):
        rows, _ = rampdown_series(0.0, 2.5, tau, [tau], tol=1e-8)
        infidelity.append(1.0 - rows[-1][2])
    assert all(b < a for a, b in zip(infidelity, infidelity[1:]))
    assert infidelity[0] < 5e-3  # tau = 5 is already nearly adiabatic


def test_propagate_validation():
    sched = linear_rampdown(1.0, 1.0)
    with pytest.raises(ValueError, match="tolerance"):
        schedule_unitary(*PLAQUETTE, sched, tol=0.0)
    with pytest.raises(ValueError, match="sample time"):
        schedule_unitary(*PLAQUETTE, sched, tol=1e-8, sample_times=[2.0])


def test_schedule_unitary_is_unitary_and_samples():
    sched = linear_rampdown(1.5, 2.0)
    u_final, snaps = schedule_unitary(*PLAQUETTE, sched, tol=1e-8, sample_times=[0.0, 1.0, 2.0])
    assert np.abs(u_final @ u_final.conj().T - np.eye(16)).max() <= 1e-10
    times = [t for t, _ in snaps]
    assert times == [0.0, 1.0, 2.0]
    np.testing.assert_array_equal(snaps[0][1], np.eye(16, dtype=complex))
    np.testing.assert_array_equal(snaps[-1][1], u_final)


def test_repeated_samples_on_interior_knots_come_back_once_each():
    sched = sequential_switchoff(2.0, 1.0, (1, 2, 3, 4))
    u_final, snaps = schedule_unitary(*PLAQUETTE, sched, tol=1e-8, sample_times=[2.0, 1.0, 2.0, 4.0, 1.0])
    ref_final, ref = schedule_unitary(*PLAQUETTE, sched, tol=1e-8, sample_times=[1.0, 2.0, 4.0])
    assert [t for t, _ in snaps] == [t for t, _ in ref] == [1.0, 2.0, 4.0]
    for (_, u), (_, v) in zip(snaps, ref):
        assert u.tobytes() == v.tobytes()
    assert u_final.tobytes() == ref_final.tobytes() == snaps[-1][1].tobytes()


def test_samples_rounding_close_outside_the_schedule_are_snapped_onto_its_ends():
    # left unsnapped, such samples are integration boundaries outside the
    # schedule: the "final" U is U(duration + 5e-13), and a sample before 0
    # starts every propagator on couplings extrapolated off the first piece
    sched = linear_rampdown(2.0, 1.0)
    alone = schedule_unitary(*PLAQUETTE, sched, tol=1e-8)
    u_final, snaps = schedule_unitary(*PLAQUETTE, sched, tol=1e-8, sample_times=[-5e-13, sched.duration * (1 + 5e-13)])
    assert [t for t, _ in snaps] == [0.0, sched.duration]
    np.testing.assert_array_equal(snaps[0][1], np.eye(16, dtype=complex))
    assert u_final.tobytes() == alone.tobytes()
    assert snaps[1][1].tobytes() == alone.tobytes()


def test_non_finite_sample_times_are_refused_by_the_range_check():
    for t in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="sample time outside schedule duration"):
            schedule_unitary(*PLAQUETTE, linear_rampdown(2.0, 1.0), tol=1e-8, sample_times=[0.5, t])


def test_propagator_commutes_with_check_sectors():
    # the conserved check commutes with every instantaneous Hamiltonian,
    # so it must commute with the full propagator too
    u = schedule_unitary(*PLAQUETTE, linear_rampdown(2.0, 1.0), tol=1e-8)
    w = to_dense(stabilizer_3d_local())
    assert np.abs(u @ w - w @ u).max() <= 1e-8


def dop853_propagator(couplings, knots, model=lambda lam: build_plaquette_3d(1.0, lam)[1]):
    """U(t, 0) at each knot by DOP853, restarted at every knot.

    ``couplings(t)`` gives the model's couplings; the Hamiltonian is
    rebuilt by ``model`` at every evaluation, independently of the
    integrator's affine decomposition and sector blocks, and U's size is
    taken from the model's qubit count.
    """
    dim = 1 << model(couplings(knots[0])).n_qubits

    def rhs(t, y):
        h = to_dense(model(couplings(t)))
        return (-1j * (h @ y.reshape(dim, dim))).ravel()

    u = np.eye(dim, dtype=complex)
    out = [u]
    for t0, t1 in zip(knots[:-1], knots[1:]):
        sol = solve_ivp(rhs, (t0, t1), u.ravel(), method="DOP853", rtol=1e-12, atol=1e-12)
        assert sol.success
        u = sol.y[:, -1].reshape(dim, dim)
        out.append(u)
    return out


def test_rampdown_matches_dop853_oracle_at_sample_times():
    ts = [0.0, 0.3, 0.65, 1.0]
    ref = dop853_propagator(lambda t: np.full(4, 2.0 * (1.0 - t)), ts)
    u_final, snaps = schedule_unitary(*PLAQUETTE, linear_rampdown(2.0, 1.0), tol=1e-8, sample_times=ts)
    assert [t for t, _ in snaps] == ts
    for (_, u), u_ref in zip(snaps, ref):
        assert np.abs(u - u_ref).max() <= 2.5e-9
    assert np.abs(u_final - ref[-1]).max() <= 2.5e-9


@pytest.mark.parametrize(
    "args",
    [
        ("--T", "0.5", "--lambda0", "1.0", "--tau", "0.5", "--tol", "1e-6", "--samples", "3"),
        ("--T", "0.3", "--lambda0", "2.5", "--tau", "5", "--tol", "1e-8", "--samples", "6"),
    ],
)
def test_evolve_rows_match_dop853_oracle(args, tmp_path):
    opts = dict(zip(args[::2], map(float, args[1::2])))
    T, lam0, tau = opts["--T"], opts["--lambda0"], opts["--tau"]
    target = tmp_path / "evolve.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["evolve", *args, "--output", str(target)]) == 0
    rows = np.array([line.split(",") for line in target.read_text().splitlines()[2:]], dtype=float)
    ts = np.linspace(0.0, tau, int(opts["--samples"]))
    np.testing.assert_array_equal(rows[:, 0], ts)
    rho0 = thermal_input(lam0, T)
    plus = np.zeros(16)
    plus[0] = plus[15] = 1 / np.sqrt(2)
    w = to_dense(stabilizer_3d_local())
    for row, u in zip(rows, dop853_propagator(lambda t: np.full(4, lam0 * (1.0 - t / tau)), list(ts))):
        rho = evolved(u, rho0)
        expected = (plus @ rho @ plus, 0.5 * np.trace(rho + w @ rho), 0.5 * np.trace(rho - w @ rho))
        # fidelity, w_plus, w_minus; measured within 8.8e-13 and 6.7e-12
        assert np.abs(row[2:] - np.real(expected)).max() <= 1e-8


def test_sequential_switchoff_matches_dop853_oracle_across_kinks():
    lam, tau_each, order = 1.5, 0.25, (2, 4, 1, 3)

    def couplings(t):
        out = np.zeros(4)
        for k, spin in enumerate(order):
            frac = min(max((t - k * tau_each) / tau_each, 0.0), 1.0)
            out[spin - 1] = lam * (1.0 - frac)
        return out

    ref = dop853_propagator(couplings, [0.0, 0.25, 0.5, 0.75, 1.0])
    u = schedule_unitary(*PLAQUETTE, sequential_switchoff(lam, tau_each, order), tol=1e-8)
    assert np.abs(u - ref[-1]).max() <= 2.5e-9


def test_parts_must_match_the_schedule_and_h0():
    h0, parts = PLAQUETTE
    sched = linear_rampdown(1.0, 1.0)
    with pytest.raises(ValueError, match="4 couplings but 3 Hamiltonian parts"):
        schedule_unitary(h0, parts[:3], sched, tol=1e-6)
    with pytest.raises(ValueError, match="4 couplings but 5 Hamiltonian parts"):
        schedule_unitary(h0, (*parts, parts[0]), sched, tol=1e-6)
    wide = OperatorSum(5, [(-1.0, PauliString.from_label("XIIII"))])
    with pytest.raises(ValueError, match="qubit count"):
        schedule_unitary(h0, (*parts[:3], wide), sched, tol=1e-6)


def test_plaquette_builder_conserves_exactly_the_xxxx_check():
    h0, parts = PLAQUETTE
    assert [c.letters for c in conserved_checks([h0, *parts])] == ["XXXX"]


def test_check_breaking_static_part_runs_as_one_block_and_matches_dop853():
    static = plaquette_ring_term(1.0) + OperatorSum(4, [(0.3, PauliString.from_label("ZIII"))])
    h0, parts = plaquette_parts(static)
    assert conserved_checks([h0, *parts]) == []
    ts = [0.0, 0.5, 1.0]
    model = lambda lam: static + plaquette_field_term(lam)
    ref = dop853_propagator(lambda t: np.full(4, 2.0 * (1.0 - t)), ts, model=model)
    u_final, snaps = schedule_unitary(h0, parts, linear_rampdown(2.0, 1.0), tol=1e-8, sample_times=ts)
    for (_, u), u_ref in zip(snaps, ref):
        assert np.abs(u - u_ref).max() <= 2.5e-9
    assert np.abs(u_final - ref[-1]).max() <= 2.5e-9


def chain_rampdown(N: int, tau: float) -> tuple[OperatorSum, tuple[OperatorSum], Schedule]:
    """The chain's H0 (its pair ZZ bonds), its one coupling part, and that coupling ramped 0.4 -> 0 over tau."""
    h0 = build_chain_1d(N, 1.0, 0.0)[1]
    return h0, (build_chain_1d(N, 1.0, 1.0)[1] - h0,), Schedule((0.0, tau), ((0.4,), (0.0,)))


def test_chain_rampdown_in_sixteen_blocks_matches_dop853():
    # a many-sector frame: N + 1 = 4 checks split the 64-dim space into 16 blocks of 4x4
    h0, parts, sched = chain_rampdown(3, 5.0)
    assert evolve._sector_blocks(h0, parts)[1].shape == (2, 16, 4, 4)
    tol, ts = 1e-8, [0.0, 1.5, 3.5, 5.0]
    ref = dop853_propagator(lambda t: 0.4 * (1.0 - t / 5.0), ts, model=lambda lam: build_chain_1d(3, 1.0, lam)[1])
    u_final, snaps = schedule_unitary(h0, parts, sched, tol=tol, sample_times=ts[1:3])
    assert [t for t, _ in snaps] == ts[1:3]
    # DOP853's own error here: at most 2.4e-11 (against a tol 1e-12 propagator)
    for u, u_ref in zip([*(u for _, u in snaps), u_final], ref[1:]):
        assert np.abs(u - u_ref).max() <= tol / 4 + 5e-11


def dop853_in_sectors(h0: OperatorSum, parts, couplings, knots) -> list[np.ndarray]:
    """U(t, 0) at each knot after the first by DOP853 at rtol 1e-13, atol 1e-15, restarted at every knot.

    It integrates each joint eigenspace of the conserved checks on its
    own, with H(t) = H0 + sum_mu couplings(t)_mu H_mu formed densely.  The
    eigenspaces come from a dense eigh of a random combination of the
    checks, each checked to commute with H0 and every part, not from the
    integrator's Clifford frame.
    """
    ops = np.array([to_dense(op) for op in (h0, *parts)])
    dim = ops.shape[-1]
    checks = [to_dense(OperatorSum(h0.n_qubits, [(1.0, c)])) for c in conserved_checks([h0, *parts])]
    assert all(np.abs(c @ op - op @ c).max() == 0.0 for c in checks for op in ops)
    rng = np.random.default_rng(3)
    values, v = np.linalg.eigh(sum((rng.uniform(1.0, 2.0) * c for c in checks), np.zeros((dim, dim))))
    n = 1 << len(checks)
    assert np.ptp(values.reshape(n, -1), axis=1).max() <= 1e-12  # each sector is one degenerate eigenvalue
    v = v.reshape(dim, n, -1).transpose(1, 0, 2)
    blocks = v.conj().transpose(0, 2, 1)[None] @ ops[:, None] @ v[None]
    shape = blocks.shape[1:]

    def rhs(t, y):
        h = blocks[0] + np.tensordot(couplings(t), blocks[1:], axes=1)
        return (-1j * (h @ y.reshape(shape))).ravel()

    v_dagger = v.transpose(1, 0, 2).reshape(dim, dim).conj().T
    u, out = np.broadcast_to(np.eye(shape[-1], dtype=complex), shape).ravel(), []
    for t0, t1 in zip(knots[:-1], knots[1:]):
        sol = solve_ivp(rhs, (t0, t1), u, method="DOP853", rtol=1e-13, atol=1e-15)
        assert sol.success
        u = sol.y[:, -1]
        out.append((v @ u.reshape(shape)).transpose(1, 0, 2).reshape(dim, dim) @ v_dagger)
    return out


def test_every_returned_propagator_is_within_a_quarter_tolerance_of_dop853():
    # step doubling accepts a pass on its estimated error, the change from
    # the pass before over F; this checks the tol/4 promise on rampdowns,
    # a sequential switch-off and the chain at N = 3 and 4, final U and
    # sample times alike, at three tolerances
    order = (2, 4, 1, 3)

    def staged(t):
        return np.array([2.0 * (1.0 - min(max(t - order.index(i + 1), 0.0), 1.0)) for i in range(4)])

    def ramp(lam0, tau, columns=4):
        return lambda t: np.full(columns, lam0 * (1.0 - t / tau))

    cases = [
        (*PLAQUETTE, linear_rampdown(3.0, 10.0), ramp(3.0, 10.0), [3.7]),
        (*PLAQUETTE, linear_rampdown(1.0, 40.0), ramp(1.0, 40.0), [13.0, 29.0]),
        (*PLAQUETTE, linear_rampdown(0.3, 2.0), ramp(0.3, 2.0), [0.7]),
        (*PLAQUETTE, sequential_switchoff(2.0, 1.0, order), staged, [1.5, 2.5]),
        (*chain_rampdown(3, 5.0), ramp(0.4, 5.0, 1), [2.0]),
        (*chain_rampdown(4, 2.0), ramp(0.4, 2.0, 1), [1.0]),
    ]
    for h0, parts, sched, couplings, ts in cases:
        knots = sorted({*sched.times, *ts})
        at = dict(zip(knots[1:], dop853_in_sectors(h0, parts, couplings, knots)))
        for tol in (1e-6, 1e-8, 1e-10):
            u, snaps = schedule_unitary(h0, parts, sched, tol=tol, sample_times=ts)
            for t, v in [*snaps, (sched.duration, u)]:
                # the oracle's own error: at most 1.7e-12, at tau 40 (against tol-1e-13 propagators)
                assert np.abs(v - at[t]).max() <= tol / 4 + 2e-12, (sched, tol, t)


def test_chain_propagator_peak_memory_stays_block_sized():
    # N = 5: 64 blocks of 16x16 in a 1024-dim space. A (64, 1024, 1024)
    # stack of per-sector terms of U is 1 GiB; the run peaks at 78 MiB,
    # mostly the frame's V and the returned U (16 MiB each) and the
    # cached complex Magnus words (8 MiB)
    h0, parts, sched = chain_rampdown(5, 2.0)
    tracemalloc.start()
    try:
        u = schedule_unitary(h0, parts, sched, tol=1e-8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 128 * 2**20
    assert np.abs(u.conj().T @ u - np.eye(1024)).max() <= 1e-10


def expm_taylor(a: np.ndarray) -> np.ndarray:
    """`evolve._expm_taylor` of ``a`` in a fresh workspace of a's dtype."""
    return evolve._expm_taylor(a, np.empty((evolve._TAYLOR_SLOTS, *a.shape), dtype=a.dtype))


@pytest.mark.parametrize("norm", np.geomspace(1e-3, 4.0, 8))
def test_taylor_exponential_matches_scipy_expm(norm):
    rng = np.random.default_rng(17)
    a = rng.standard_normal((6, 2, 8, 8)) + 1j * rng.standard_normal((6, 2, 8, 8))
    k = a + a.conj().swapaxes(-1, -2)
    # 1-norms spread over two decades below the largest, which is `norm`
    k *= np.geomspace(1e-2, 1.0, 12).reshape(6, 2, 1, 1) / np.abs(k).sum(axis=-2).max(axis=-1)[..., None, None]
    k *= norm
    out = expm_taylor(-1j * k)
    ref = np.array([scipy.linalg.expm(-1j * m) for m in k.reshape(-1, 8, 8)]).reshape(out.shape)
    assert np.abs(out - ref).max() <= 1e-13
    defect = np.abs(out.conj().swapaxes(-1, -2) @ out - np.eye(8)).max()
    assert defect <= 1e-14
    # the integrator's case: the real 16x16 form of -iK, whose exponential is orthogonal
    real = expm_taylor(evolve._real_form(-1j * k))
    assert real.dtype == float
    assert np.abs(real - evolve._real_form(ref)).max() <= 1e-13
    assert np.abs(real.swapaxes(-1, -2) @ real - np.eye(16)).max() <= 1e-14
    # a reused workspace, larger than the stack as for a segment's last batch, gives the same bits
    work = np.full((evolve._TAYLOR_SLOTS, 8, 2, 16, 16), np.nan)
    assert evolve._expm_taylor(evolve._real_form(-1j * k), work[:, :6]).tobytes() == real.tobytes()


def test_propagators_are_never_views_of_the_taylor_workspace(monkeypatch):
    workspaces, reuse = [], evolve._taylor_workspace

    def recording(*key):
        workspaces.append(reuse(*key))
        return workspaces[-1]

    monkeypatch.setattr(evolve, "_taylor_workspace", recording)
    u, snaps = schedule_unitary(*PLAQUETTE, linear_rampdown(2.0, 1.0), tol=1e-8, sample_times=[0.5, 1.0])
    kept = [x.tobytes() for x in (u, *(s for _, s in snaps))]
    # a check-breaking static part runs as one 16x16 block: a workspace of another shape
    static = plaquette_ring_term(1.0) + OperatorSum(4, [(0.3, PauliString.from_label("ZIII"))])
    later = schedule_unitary(*plaquette_parts(static), linear_rampdown(2.0, 1.0), tol=1e-8)
    assert len({w.shape for w in workspaces}) == 2
    for x in (u, later, *(s for _, s in snaps)):
        assert not any(np.shares_memory(x, w) for w in workspaces)
    assert [x.tobytes() for x in (u, *(s for _, s in snaps))] == kept


def _plan_edges() -> list[float]:
    """Each theta_m 2^k (k >= 0) up to twice the top theta: the rule's plan is constant between
    them, and past the last it repeats with one more squaring per doubling of the norm."""
    top = 2.0 * evolve._THETAS[-1]
    return sorted({math.ldexp(theta, k) for theta in evolve._THETAS for k in range(64) if math.ldexp(theta, k) <= top})


def test_taylor_plan_takes_as_many_products_as_the_cheapest_plan():
    norms = [0.0, *np.geomspace(1e-6, 1e3, 4001)]
    # each degree's admissible theta scaled by powers of two is a boundary
    # between squaring counts; take it and both neighbouring doubles
    for theta in evolve._THETAS:
        for k in range(-40, 40):
            edge = math.ldexp(theta, k)
            if 1e-6 <= edge <= 1e3:
                norms += [math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)]
    # past the top theta each doubling adds one squaring: the same check on both sides
    # of the edges' images 2, 4, ... 2^6 and 2^40 times larger
    far = [math.ldexp(edge, k) for k in (*range(1, 7), 40) for edge in _plan_edges()]
    norms += [x for edge in far for x in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf))]
    # the rule's plan is admissible, and it takes the products of the cheapest plan with degrees up to 18
    mismatches = [
        n for n in map(float, norms)
        if not taylor_admissible(n, *evolve._taylor_plan(n))
        or taylor_products(*evolve._taylor_plan(n)) != taylor_products(*taylor_plan(n))
    ]
    assert mismatches == []


def _stack_at_norm(rng, norm: float) -> np.ndarray:
    """A (3, 2, 16, 16) stack of real forms of anti-Hermitian 8x8 blocks whose largest 1-norm is ``norm``."""
    k = rng.standard_normal((3, 2, 8, 8)) + 1j * rng.standard_normal((3, 2, 8, 8))
    a = evolve._real_form(-1j * (k + k.conj().swapaxes(-1, -2)))
    return a * (norm / np.abs(a).sum(axis=-2).max())


def test_taylor_kernel_matches_expm_and_plain_paterson_stockmeyer_for_every_plan():
    # norms just below and just above each edge theta_m 2^k up to twice the top theta,
    # so every (m, s) the rule returns is run, and the plans on both sides of each edge
    rng = np.random.default_rng(25)
    used = set()
    for edge in _plan_edges():
        for norm in (edge * (1 - 1e-9), edge * (1 + 1e-9)):
            a = _stack_at_norm(rng, norm)
            # the kernel's own 1-norm of the stack, which picks its plan
            actual = float((np.ones(16) @ np.abs(a)).max())
            m, s = evolve._taylor_plan(actual)
            assert taylor_admissible(actual, m, s)
            assert taylor_products(m, s) == taylor_products(*taylor_plan(actual))
            used.add((m, s))
            out = expm_taylor(a)
            flat = a.reshape(-1, 16, 16)
            ref = np.array([scipy.linalg.expm(x) for x in flat]).reshape(out.shape)
            assert np.abs(out - ref).max() <= 1e-13
            plain = np.array([paterson_stockmeyer_expm(x, m, s) for x in flat]).reshape(out.shape)
            assert np.abs(out - plain).max() <= 1e-15
    # every degree is run, at 0 to 2 squarings, and each has its rows within the workspace
    degrees = range(1, evolve._MAX_TAYLOR_DEGREE + 1)
    assert {m for m, _ in used} == set(degrees) == set(evolve._PS_ROWS)
    assert {s for _, s in used} == {0, 1, 2}
    for rows in evolve._PS_ROWS.values():
        assert rows.shape[0] + rows.shape[-1] + 1 <= evolve._TAYLOR_SLOTS
    # far past the edges the plan takes one more squaring per doubling; exp still matches
    for norm in (5.0, 40.0, 700.0):
        a = _stack_at_norm(rng, norm)
        ref = np.array([scipy.linalg.expm(x) for x in a.reshape(-1, 16, 16)]).reshape(a.shape)
        assert np.abs(expm_taylor(a) - ref).max() <= 1e-13 * norm


def test_commuting_static_part_runs_as_one_by_one_blocks():
    h0, parts = plaquette_parts(OperatorSum(4, [(1.0, PauliString.from_label("XIII"))]))
    checks = conserved_checks([h0, *parts])
    assert [c.letters for c in checks] == ["XIII", "IXII", "IIXI", "IIIX"]
    blocks, vb = evolve._sector_blocks(h0, parts)[1], evolve._sector_basis(h0, parts)[0]
    assert blocks.shape == (5, 16, 1, 1) and vb.shape == (16, 16, 1)
    # every term commutes, so U = exp(-i (tau H0 + int lam dt sum_mu H_mu)), with tau = int lam dt = 1
    exact = scipy.linalg.expm(-1j * to_dense(h0 + parts[0] + parts[1] + parts[2] + parts[3]))
    u = schedule_unitary(h0, parts, linear_rampdown(2.0, 1.0))
    assert np.abs(u - exact).max() <= 1e-12


def test_sector_blocks_and_basis_are_built_once_per_parts(monkeypatch):
    builds = []
    monkeypatch.setattr(evolve, "check_blocks", lambda ops, checks: builds.append("blocks") or check_blocks(ops, checks))
    monkeypatch.setattr(evolve, "check_basis", lambda n, checks: builds.append("basis") or check_basis(n, checks))
    words = evolve._words
    monkeypatch.setattr(evolve, "_words", lambda x, y: builds.append("words") or words(x, y))
    for cached in (evolve._sector_blocks, evolve._sector_basis, evolve._word_table):
        cached.cache_clear()
    for lam0, tau in ((1.5, 2.0), (2.5, 5.0)):
        h0, parts = plaquette_parts.__wrapped__()  # fresh operators, equal to the last ones
        schedule_unitary(h0, parts, linear_rampdown(lam0, tau), tol=1e-6)
    # H0 and the four parts are framed once, and both rampdowns lie on the ray c = (1, 1, 1, 1); the
    # ring's momentum bins read the frame basis, so it is built before the words of the bins
    assert builds == ["blocks", "basis", "words"]
    # the second propagator hits every cache; building the words and the basis read the blocks once each,
    # and the basis is read by the bins and by each propagator's way back to the original basis
    for cached, hits in ((evolve._sector_blocks, 3), (evolve._sector_basis, 2), (evolve._word_table, 1)):
        info = cached.cache_info()
        assert (info.misses, info.hits, info.maxsize) == (1, hits, 16)
    checks, blocks = evolve._sector_blocks(h0, parts)
    assert isinstance(checks, tuple)
    bins, words = evolve._word_table(h0, parts, (1.0,) * 4)
    for array in (blocks, *evolve._sector_basis(h0, parts), words, bins.basis, bins.into, bins.back):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_non_unitary_propagator_is_a_numerical_failure(monkeypatch):
    integrate = evolve._integrate
    monkeypatch.setattr(evolve, "_integrate", lambda *args: 1.001 * integrate(*args))
    with pytest.raises(NumericalCheckError, match="not unitary"):
        schedule_unitary(*PLAQUETTE, linear_rampdown(1.0, 1.0), tol=1e-6)


def test_failed_state_check_in_propagate_is_a_numerical_failure(monkeypatch):
    # evolve reads every sample through the readout check: a 2 I propagator fails it
    bad = 2.0 * np.eye(16, dtype=complex)
    fake = lambda *args, sample_times: (bad, [(t, bad) for t in sample_times])
    monkeypatch.setattr(analysis, "schedule_unitary", fake)
    with pytest.raises(NumericalCheckError, match="failed its check"):
        rampdown_series(0.5, 1.0, 1.0, [0.0, 1.0])
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["evolve", "--T", "0.5", "--lambda0", "1.0", "--tau", "1.0", "--samples", "3"])
    assert code == 3
    assert "numerical failure: evolved state failed its check" in err.getvalue()


def recorded_passes(monkeypatch) -> list[int]:
    """Steps of every pass handed to ``_integrate``, as the run goes."""
    passes = []
    integrate = evolve._integrate

    def counted(terms, kinks, boundaries, counts):
        passes.append(sum(counts))
        return integrate(terms, kinks, boundaries, counts)

    monkeypatch.setattr(evolve, "_integrate", counted)
    return passes


def test_step_budget_stops_before_a_pass_would_exceed_it(monkeypatch):
    budget = 1000
    passes = recorded_passes(monkeypatch)
    monkeypatch.setattr(evolve, "_MAX_STEPS", budget)
    # tol 1e-16 starts at 512 steps, and 512 + 1024 would pass the budget
    with pytest.raises(ConvergenceError, match="within 1000 steps"):
        schedule_unitary(*PLAQUETTE, linear_rampdown(2.5, 10.0), tol=1e-16)
    assert sum(passes) <= budget
    assert passes == [512]
    # tol 1e-17 would start at 1024 steps: no pass runs
    passes.clear()
    with pytest.raises(ConvergenceError, match="within 1000 steps"):
        schedule_unitary(*PLAQUETTE, linear_rampdown(2.5, 10.0), tol=1e-17)
    assert passes == []


def test_enormous_generator_is_refused_by_the_step_budget():
    # a constant schedule has no Magnus bracket to overflow; the start step
    # stops halving at the budget, so the step count never reaches infinity
    h0, parts = plaquette_parts(OperatorSum(4, [(1e300, PauliString.from_label("ZZZZ"))]))
    with pytest.raises(ConvergenceError, match="within 262144 steps"):
        schedule_unitary(h0, parts, Schedule((0.0, 1e10), ((1.0,) * 4, (1.0,) * 4)))
    # a rampdown's Magnus words are formed only once a pass is within the budget: formed
    # first, the words of P = -i H0 with five letters P would overflow at 1e1500
    with pytest.raises(ConvergenceError, match="within 262144 steps"):
        schedule_unitary(h0, parts, linear_rampdown(1.0, 10.0))


def test_vanishing_ramp_time_runs_and_returns_the_identity(tmp_path):
    # dH/dt is 1e100 here: in t the h^7 brackets would hold its fourth power and overflow, but
    # each piece's own time sigma = t / tau scales it to tau dH/dt before any bracket is formed
    u, snaps = schedule_unitary(*PLAQUETTE, linear_rampdown(1.0, 1e-100), tol=1e-8, sample_times=[5e-101])
    for v in (u, snaps[0][1]):
        assert np.abs(v - np.eye(16)).max() <= 1e-13
    for command in ("evolve", "sweep"):
        with contextlib.redirect_stdout(io.StringIO()):
            argv = [command, "--T", "0.3", "--lambda0", "1", "--tau", "1e-100", "--output", str(tmp_path / command)]
            assert cli.main(argv) == 0, command


def test_rampdown_converges_in_two_passes(monkeypatch):
    # eighth order: the 128 -> 256 change (7.1e-10) already meets F tol/4 = 1.6e-7, and the
    # norm-scaled start (h max||A||_1 <= 2 at tol 1e-8) begins at 128 steps
    passes = recorded_passes(monkeypatch)
    schedule_unitary(*PLAQUETTE, linear_rampdown(2.5, 10.0), tol=1e-8)
    assert passes == [128, 256]


def test_sweep_grid_pass_counts(monkeypatch):
    # the benchmark's sweep grid at tol 1e-8: 1296 steps in all (2144 when a
    # change had to meet tol/4 itself, 2496 from a fixed duration/64 start,
    # 4800 at sixth order)
    passes = recorded_passes(monkeypatch)
    expected = {
        2.0: [[16, 32], [16, 32], [16, 32]],
        5.0: [[32, 64], [32, 64], [64, 128]],
        10.0: [[64, 128], [64, 128], [128, 256]],
    }
    for tau, wants in expected.items():
        for lam0, want in zip((1.5, 2.0, 2.5), wants):
            passes.clear()
            schedule_unitary(*PLAQUETTE, linear_rampdown(lam0, tau), tol=1e-8)
            assert passes == want, (tau, lam0)
    assert sum(sum(map(sum, wants)) for wants in expected.values()) == 1296


def test_long_tight_rampdown_starts_near_its_converged_step(monkeypatch):
    # from duration/64 this ran 64 + 128 + ... + 4096 = 8128 steps, and 2048 + 4096
    # when a change had to meet tol/4 itself; the norm-scaled start keeps even the
    # first pass inside h ||A|| < pi
    passes = recorded_passes(monkeypatch)
    schedule_unitary(*PLAQUETTE, linear_rampdown(2.5, 80.0), tol=1e-10)
    assert passes == [1024, 2048]


def test_tolerance_bounds_the_spectral_norm_of_each_blocks_change(monkeypatch):
    # the block spectral-norm test is stricter than comparing entries: the
    # 32 -> 64 change meets F tol/4 entrywise (0.60 of it) but not in spectral
    # norm (1.18 of it), so the run goes on to 128 steps; its entries hold to tol/4
    tol = 1e-8
    passes = recorded_passes(monkeypatch)
    u = schedule_unitary(*PLAQUETTE, linear_rampdown(0.5, 10.0), tol=tol)
    assert passes == [32, 64, 128]
    ref = schedule_unitary(*PLAQUETTE, linear_rampdown(0.5, 10.0), tol=1e-12)
    assert np.abs(u - ref).max() <= tol / 4


def counted_svds(monkeypatch) -> list:
    calls = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


@pytest.mark.parametrize("kind", ["dense", "rank-one", "one-entry"])
def test_step_doubling_screens_decide_as_the_svd_does(monkeypatch, kind):
    # the largest entry bounds the spectral norm from below and the Frobenius
    # norm from above; "rank-one" blocks sit on the upper screen, "one-entry" on the lower
    bound = 0.25e-8
    rng = np.random.default_rng(11)
    z = rng.normal(size=(3, 2, 8, 8)) + 1j * rng.normal(size=(3, 2, 8, 8))
    if kind == "rank-one":
        z = z[..., :1] * z[..., :1, :]
    elif kind == "one-entry":
        z = np.where(np.arange(64).reshape(8, 8) == 19, z, 0.0)
    z /= np.linalg.svd(z, compute_uv=False).max()
    calls = counted_svds(monkeypatch)
    decomposed = []
    for factor in (0.5, 0.9, 0.999, 1.001, 1.1, 2.0, 10.0):
        diff = factor * bound * z
        svd_decision = bool(np.linalg.svd(diff, compute_uv=False).max() <= bound)
        calls.clear()
        assert evolve._spectral_norms_within(diff, bound) is svd_decision is (factor < 1), (kind, factor)
        # an SVD runs only when no entry fails the bound and some block's Frobenius norm exceeds it
        between = np.abs(diff).max() <= bound < np.linalg.norm(diff, axis=(-2, -1)).max()
        assert len(calls) == between, (kind, factor)
        decomposed.append(factor if calls else None)
    assert decomposed == {"dense": [None, 0.9, 0.999, 1.001, 1.1, 2.0, None],
                          "rank-one": [None, None, None, 1.001, 1.1, 2.0, None],
                          "one-entry": [None] * 7}[kind]


def test_sweep_grid_compares_passes_with_two_svds(monkeypatch):
    # the benchmark's sweep grid makes 9 step-doubling comparisons; the
    # screens decide all but two of them (9 SVDs without them)
    calls = counted_svds(monkeypatch)
    compare = evolve._spectral_norms_within
    decisions = []

    def recorded(diff, bound):
        decisions.append(compare(diff, bound))
        return decisions[-1]

    monkeypatch.setattr(evolve, "_spectral_norms_within", recorded)
    for tau in (2.0, 5.0, 10.0):
        for lam0 in (1.5, 2.0, 2.5):
            schedule_unitary(*PLAQUETTE, linear_rampdown(lam0, tau), tol=1e-8)
    assert (len(decisions), sum(decisions)) == (9, 9)
    assert len(calls) <= 2


def fixed_step_unitary(monkeypatch, schedule: Schedule, n: int) -> np.ndarray:
    """U from n nominal steps: one doubling round from n/2, with a tolerance any pair meets."""
    monkeypatch.setattr(evolve, "_start_step", lambda duration, norm, tol: duration * 2.0 / n)
    return schedule_unitary(*PLAQUETTE, schedule, tol=1e3)


def staggered_switchoff(lams, ends, duration) -> tuple[Schedule, object]:
    """Spin i ramps from lams[i] to 0 over [0, ends[i]]: distinct slopes on every segment."""

    def couplings(t):
        return np.array([lam * max(0.0, 1.0 - t / end) for lam, end in zip(lams, ends)])

    times = sorted({0.0, *ends, duration})
    return Schedule(times, [couplings(t) for t in times]), couplings


def test_rampdown_error_falls_at_eighth_order(monkeypatch):
    ref = dop853_propagator(lambda t: np.full(4, 2.5 * (1.0 - t / 10.0)), [0.0, 10.0])[-1]
    errors = [np.abs(fixed_step_unitary(monkeypatch, linear_rampdown(2.5, 10.0), n) - ref).max() for n in (32, 64)]
    # eighth order gives 2^8 = 256 per halving, sixth order 64; measured 404
    # (2.8e-5 and 6.9e-8, the oracle's own error is about 2e-11)
    assert errors[0] / errors[1] >= 160


def test_staggered_switchoff_error_falls_at_eighth_order(monkeypatch):
    sched, couplings = staggered_switchoff((1.5, 2.0, 1.2, 2.5), (1.6, 2.4, 3.2, 4.0), 4.0)
    ref = dop853_propagator(couplings, [0.0, 1.6, 2.4, 3.2, 4.0])[-1]
    errors = [np.abs(fixed_step_unitary(monkeypatch, sched, n) - ref).max() for n in (20, 40)]
    # measured 282 (4.9e-7 and 1.7e-9; the oracle's own error is about 5e-12,
    # which 64 and 128 steps already reach)
    assert errors[0] / errors[1] >= 160


def random_hermitian(rng, d: int) -> np.ndarray:
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.25 * (a + a.conj().T)


def direct_exponent(a: np.ndarray, a1: np.ndarray, h: float) -> np.ndarray:
    """The eighth-order exponent from alpha1 = h A(t_m) and b = h^2 dA/dt, bracket by bracket."""

    def br(x, y):
        return x @ y - y @ x

    alpha, b = h * a, h * h * a1
    d = br(alpha, b)
    return (
        alpha - d / 12 + br(alpha, br(alpha, d)) / 720 - br(b, d) / 240
        - br(alpha, br(alpha, br(alpha, br(alpha, d)))) / 30240 - br(alpha, br(b, br(alpha, d))) / 30240
        + br(b, br(alpha, br(alpha, d))) / 7560 - br(b, br(b, d)) / 6720
    )


def own_rows(a0: np.ndarray, a1: np.ndarray) -> np.ndarray:
    """The Magnus rows of each piece's own pair (a0, a1), as every piece off a coupling ray takes them."""
    return evolve._rows(evolve._words(a0, a1), np.array([[1.0, 0.0, 1.0]]))


def test_centre_time_exponent_matches_the_direct_exponent():
    rng = np.random.default_rng(5)
    # two pieces of two sector blocks each; segments split the pieces unevenly
    a0 = -1j * np.array([[random_hermitian(rng, 4) for _ in range(2)] for _ in range(2)])
    a1 = -1j * np.array([[random_hermitian(rng, 4) for _ in range(2)] for _ in range(2)])
    kinks, boundaries, counts = [0.0, 1.5, 4.0], [0.0, 0.7, 1.5, 2.2, 4.0], [3, 5, 4, 6]
    terms = own_rows(a0, a1)
    u, expected = np.eye(4), []
    for g, (piece, n_steps) in enumerate(zip([0, 0, 1, 1], counts)):
        h = (boundaries[g + 1] - boundaries[g]) / n_steps
        t_mid = boundaries[g] - kinks[piece] + (np.arange(n_steps) + 0.5) * h
        for t, exponent in zip(t_mid, evolve._step_exponents(terms[piece], h, t_mid)):
            direct = direct_exponent(a0[piece] + t * a1[piece], a1[piece], h)
            assert np.abs(exponent - direct).max() <= 1e-13
            u = scipy.linalg.expm(direct) @ u
        expected.append(u)
    # the sweep centres every segment's steps in its own piece, whose terms it takes in that piece's
    # own time sigma = (t - t_k) / dt_k: the generator there is dt a0 + sigma dt^2 a1
    dt = np.diff(kinks).reshape(-1, 1, 1, 1)
    sigma_terms = own_rows(dt * a0, dt * dt * a1)
    r = np.array(evolve._integrate(evolve._real_form(sigma_terms), kinks, boundaries, counts))
    assert np.abs(r[..., :4, :4] + 1j * r[..., 4:, :4] - np.array(expected)).max() <= 1e-12


def test_cached_word_rows_match_each_cells_own_terms(monkeypatch):
    # every cell on one coupling ray takes its rows from the model's words of (P, Q); they must be
    # the rows of the cell's own pair (G, D) = (dt A(0), dt^2 dA/dt), which any other piece takes,
    # on the model's momentum bins where it has them (the ring) and on its sector blocks otherwise
    captured = []
    integrate = evolve._integrate
    monkeypatch.setattr(evolve, "_integrate", lambda terms, *args: captured.append(terms) or integrate(terms, *args))
    grid = [(lam0, tau) for lam0 in (0.3, 1, 1.5, 2, 2.5, 3) for tau in (2, 5, 10, 20, 40, 80)]
    cells = [*((*PLAQUETTE, linear_rampdown(lam0, tau)) for lam0, tau in grid), chain_rampdown(3, 5.0)]
    evolve._word_table.cache_clear()
    for h0, parts, sched in cells:
        captured.clear()
        schedule_unitary(h0, parts, sched, tol=1e-6)
        blocks = evolve._sector_blocks(h0, parts)[1].astype(complex)
        lam = np.array(sched.couplings)
        dt = np.diff(sched.times).reshape(-1, 1, 1, 1)
        g = -1j * dt * evolve._affine(blocks, lam)[:-1]
        d = -1j * dt * np.tensordot(np.diff(lam, axis=0), blocks[1:], axes=1)
        bins = evolve._word_table(h0, parts, (1.0,) * len(parts))[0]
        if bins is not None:
            g, d = bins.pack(g), bins.pack(d)
        own = evolve._real_form(own_rows(g, d))
        assert captured[0].shape == own.shape
        for r in range(11):
            assert np.abs(captured[0][:, r] - own[:, r]).max() <= 1e-13 * np.abs(own[:, r]).max(), (sched, r)
    # one table for the plaquette's ray (1, 1, 1, 1) and one for the chain's single column; every
    # cell also reads its table's bins here once
    info = evolve._word_table.cache_info()
    assert (info.misses, info.hits) == (2, 2 * len(cells) - 2)


def test_one_step_error_falls_at_ninth_power():
    # local error of an eighth-order step is O(h^9): 512 per halving of h
    rng = np.random.default_rng(11)
    h0, h1 = random_hermitian(rng, 6), random_hermitian(rng, 6)
    terms = own_rows(-1j * h0[None], -1j * h1[None])
    errors = []
    for h in (0.8, 0.4, 0.2):
        t0 = 0.3  # the step starts inside its piece
        step = scipy.linalg.expm(evolve._step_exponents(terms[0], h, np.array([t0 + 0.5 * h]))[0])
        ref = solve_ivp(
            lambda t, y: (-1j * (h0 + t * h1) @ y.reshape(6, 6)).ravel(),
            (t0, t0 + h), np.eye(6, dtype=complex).ravel(), method="DOP853", rtol=1e-13, atol=1e-15,
        ).y[:, -1].reshape(6, 6)
        errors.append(np.abs(step - ref).max())
    # measured 926 and 759 (2.2e-4, 2.4e-7, 3.1e-10); a sixth-order step gives about 128
    assert errors[0] / errors[1] >= 300 and errors[1] / errors[2] >= 300


def test_long_tight_propagation_has_bounded_peak_memory(monkeypatch):
    # the final pass spans several batches; only batching keeps its step
    # exponentials from being held all at once (unbatched peak: 64 MiB)
    passes = recorded_passes(monkeypatch)
    tracemalloc.start()
    try:
        schedule_unitary(*PLAQUETTE, linear_rampdown(2.5, 40.0), tol=1e-10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    steps_per_batch = evolve._BATCH_ENTRIES // (4 * 8 * 8)  # real forms of four 4x4 momentum bins per step
    assert passes[-1] >= 4 * steps_per_batch
    assert peak <= 16 * 2**20


def test_real_form_keeps_its_structure_over_a_long_tight_run(monkeypatch):
    # rounding may not drift the two copies of Re and of Im apart over thousands of steps
    snapshots = []
    integrate = evolve._integrate

    def captured(*args):
        snaps = integrate(*args)
        snapshots.extend(snaps)
        return snaps

    monkeypatch.setattr(evolve, "_integrate", captured)
    schedule_unitary(*PLAQUETTE, linear_rampdown(2.5, 40.0), tol=1e-10)
    r = np.array(snapshots)
    d = r.shape[-1] // 2
    # the ring's four 4 x 4 momentum bins, each as its real 8 x 8 form
    assert r.dtype == float and r.shape[1:] == (4, 8, 8)
    assert np.abs(r[..., :d, :d] - r[..., d:, d:]).max() <= 1e-13
    assert np.abs(r[..., d:, :d] + r[..., :d, d:]).max() <= 1e-13


# ---------------------------------------------------------- momentum bins

# the ring with its qubits 1 and 2 swapped: its own shift is q -> q + 2, of order 2
RELABELLED_RING = OperatorSum(
    4, [(-1.0, PauliString.from_ops(4, {a: "Z", b: "Z"})) for a, b in ((0, 2), (2, 1), (1, 3), (3, 0))]
)


def unsplit(monkeypatch, run):
    """``run()`` with every momentum split refused, on word tables built for it alone."""
    evolve._word_table.cache_clear()
    with monkeypatch.context() as m:
        m.setattr(evolve, "_momentum_bins", lambda *args: None)
        out = run()
    evolve._word_table.cache_clear()
    return out


@pytest.mark.parametrize(
    "h0, parts, sched",
    [
        (*PLAQUETTE, sequential_switchoff(2.0, 1.0, (2, 4, 1, 3))),
        (*plaquette_parts(plaquette_ring_term(1.0) + OperatorSum(4, [(0.3, PauliString.from_label("ZIII"))])),
         linear_rampdown(2.5, 10.0)),
        (*plaquette_parts(OperatorSum(4, [(1.0, PauliString.from_label("XIII"))])), linear_rampdown(2.0, 1.0)),
        chain_rampdown(3, 5.0),
    ],
    ids=["switch-off", "ring+ZIII", "XIII", "chain"],
)
def test_schedules_with_no_kept_shift_integrate_unsplit_bit_for_bit(monkeypatch, h0, parts, sched):
    # off the coupling ray there is no word table; on it, no qubit shift keeps these pairs and checks
    run = lambda: schedule_unitary(h0, parts, sched, tol=1e-8, sample_times=[0.5 * sched.duration])
    u, snaps = run()
    on_ray = evolve._ray(sched.couplings)
    if on_ray is not None:
        assert evolve._word_table(h0, parts, on_ray[0])[0] is None
    ref, ref_snaps = unsplit(monkeypatch, run)
    assert u.tobytes() == ref.tobytes() and snaps[0][1].tobytes() == ref_snaps[0][1].tobytes()


def test_ring_rampdowns_on_bins_match_the_unsplit_integration(monkeypatch):
    grid = [(lam0, tau) for lam0 in (0.3, 1, 1.5, 2, 2.5, 3) for tau in (2, 5, 10, 20, 40, 80)]
    run = lambda: np.array([schedule_unitary(*PLAQUETTE, linear_rampdown(lam0, tau), tol=1e-8) for lam0, tau in grid])
    split = run()
    assert evolve._word_table(*PLAQUETTE, (1.0,) * 4)[0].into.shape == (4, 4, 4)
    # measured 2.8e-14; the bins change U's rounding, so it is not bit for bit
    assert 0 < np.abs(split - unsplit(monkeypatch, run)).max() <= 1e-13


# ------------------------------------------------------------ coupling ray

def formed_words(monkeypatch) -> list[int]:
    """The number of pieces of every pair whose words are formed, as the run goes."""
    formed = []
    words = evolve._words
    monkeypatch.setattr(evolve, "_words", lambda x, y: formed.append(x.shape[0]) or words(x, y))
    return formed


def test_all_zero_knots_take_the_off_ray_path(monkeypatch):
    sched = Schedule((0.0, 1.5), ((0.0,) * 4, (0.0,) * 4))
    assert evolve._ray(sched.couplings) is None
    formed = formed_words(monkeypatch)
    monkeypatch.setattr(evolve, "_word_table", lambda *args: pytest.fail("no ray holds all-zero knots"))
    u = schedule_unitary(*PLAQUETTE, sched, tol=1e-10)
    assert formed == [1]
    # H is H0 throughout
    assert np.abs(u - expm_scaled(to_dense(PLAQUETTE[0]), -1.5j)).max() <= 1e-10


def test_a_ray_with_zero_entries_keeps_the_cached_words(monkeypatch):
    # only spins 1 and 3 are driven: both knots lie on the ray c = (1, 0, 1, 0)
    sched = Schedule((0.0, 2.0), ((1.5, 0.0, 1.5, 0.0), (0.0,) * 4))
    assert evolve._ray(sched.couplings) == ((1.0, 0.0, 1.0, 0.0), [1.5, 0.0])
    evolve._word_table.cache_clear()
    formed = formed_words(monkeypatch)
    u = schedule_unitary(*PLAQUETTE, sched, tol=1e-8)
    assert schedule_unitary(*PLAQUETTE, sched, tol=1e-8).tobytes() == u.tobytes()
    # the model's words of the ray are formed once, and the second run forms none
    assert len(formed) == 1
    info = evolve._word_table.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    ref = dop853_propagator(lambda t: np.array([1.5, 0.0, 1.5, 0.0]) * (1.0 - t / 2.0), [0.0, 2.0])[-1]
    assert np.abs(u - ref).max() <= 2.5e-9


def test_a_knot_one_ulp_off_the_ray_takes_its_own_words(monkeypatch):
    def schedule(last: float) -> Schedule:
        return Schedule((0.0, 1.0, 2.0), ((1.5,) * 4, (0.75, 0.75, 0.75, last), (0.0,) * 4))

    on, off = schedule(0.75), schedule(np.nextafter(0.75, 1.0))
    assert evolve._ray(on.couplings) == ((1.0,) * 4, [1.5, 0.75, 0.0])
    assert evolve._ray(off.couplings) is None
    u_on = schedule_unitary(*PLAQUETTE, on, tol=1e-8)
    formed = formed_words(monkeypatch)
    monkeypatch.setattr(evolve, "_word_table", lambda *args: pytest.fail("no ray holds these knots"))
    u_off = schedule_unitary(*PLAQUETTE, off, tol=1e-8)
    # one set of words for the two pieces' own pairs; the two propagators differ by their tolerances
    assert formed == [2]
    assert np.abs(u_off - u_on).max() <= 5e-9


@pytest.mark.parametrize("h0, n_bins, widths", [
    (None, 4, [[4, 4, 4, 4, 1, 2, 2, 1], [2] * 8]),
    (RELABELLED_RING, 3, [[6, 6, 6, 6, 6, 6, 2, 2], [4] * 8]),
])
def test_momentum_bins_reproduce_each_sector_block(h0, n_bins, widths):
    h0, parts = plaquette_parts(h0)
    bins = evolve._word_table(h0, parts, (1.0,) * 4)[0]
    blocks = evolve._sector_blocks(h0, parts)[1]
    pair = -1j * np.stack([blocks[0], blocks[1:].sum(axis=0)])
    t, t_dagger = bins.basis, bins.basis.conj().swapaxes(-1, -2)
    assert np.abs(t_dagger @ t - np.eye(8)).max() <= 1e-15
    # in the Fourier basis T_s each sector is its momentum sub-blocks, and each bin holds whole ones
    kept = bins.back < bins.into.size
    assert bins.into.shape[0] == n_bins and kept.sum(axis=-1).tolist() == widths
    assert np.abs((t_dagger @ pair @ t)[:, ~kept]).max() <= 1e-15
    assert not evolve._gather(bins.pack(pair), bins.back)[:, ~kept].any()
    # T blockdiag(T^H P T) T^H is P again (measured: 2.2e-16 or less)
    assert np.abs(bins.unpack(bins.pack(pair)) - pair).max() <= 1e-15


def test_relabelled_ring_reads_out_as_the_ring_with_qubits_1_and_2_swapped():
    h0, parts = plaquette_parts(RELABELLED_RING)
    p = np.zeros((16, 16))
    swap = [b & 0b1001 | (b >> 1 & 1) << 2 | (b >> 2 & 1) << 1 for b in range(16)]
    p[swap, range(16)] = 1.0
    assert np.array_equal(p @ to_dense(h0) @ p.T, to_dense(PLAQUETTE[0]))
    temps = (0.1, 0.3, 0.5)
    for tau in (2.0, 5.0, 10.0):
        for lam0 in (1.5, 2.0, 2.5):
            u = schedule_unitary(h0, parts, linear_rampdown(lam0, tau), tol=1e-8)
            ring_u = schedule_unitary(*PLAQUETTE, linear_rampdown(lam0, tau), tol=1e-8)
            assert np.abs(p @ u @ p.T - ring_u).max() <= 1e-13
            # sweep rows: fidelity, p_z, w_minus and e_zeta name no qubit; p_c1 and p_c2 count flips of
            # the natural ring's adjacent and opposite pairs, so the relabelled ring's class weights are compared
            ring = cli._sweep_group((tau, lam0, temps, None, 1e-8))
            relabelled = cli._sweep_group((tau, lam0, temps, RELABELLED_RING, 1e-8))
            columns = [3, 4, 7, 8]
            assert np.abs(np.array(ring)[:, columns] - np.array(relabelled)[:, columns]).max() <= 1e-13
            for T in temps:
                probs = run_point(T, lam0, tau, RELABELLED_RING).class_probs
                swapped = {analysis._class_rep(swap[rep]): w for rep, w in run_point(T, lam0, tau).class_probs.items()}
                assert max(abs(probs[rep] - swapped[rep]) for rep in probs) <= 1e-13


def test_sweep_grid_runs_on_the_bins_in_25_taylor_calls(monkeypatch):
    # 42 calls on (32, 2, 16, 16) real forms of the two 8 x 8 sectors before; the 1296 steps are unchanged
    shapes, plans = [], []
    kernel, rule = evolve._expm_taylor, evolve._taylor_plan
    monkeypatch.setattr(evolve, "_expm_taylor", lambda a, work: shapes.append(a.shape) or kernel(a, work))
    monkeypatch.setattr(evolve, "_taylor_plan", lambda norm: plans.append(rule(norm)) or plans[-1])
    for tau in (2.0, 5.0, 10.0):
        for lam0 in (1.5, 2.0, 2.5):
            schedule_unitary(*PLAQUETTE, linear_rampdown(lam0, tau), tol=1e-8)
    assert len(shapes) == 25 and sum(shape[0] for shape in shapes) == 1296
    assert max(shapes) == (64, 4, 8, 8)
    # one plan per call; its products as `taylor_products` counts them (the block-sum product apart)
    assert len(plans) == 25 and sum(taylor_products(m, s) for m, s in plans) == 170


def test_per_spin_schedule_drives_separate_couplings():
    sched = sequential_switchoff(2.0, 0.25, (4, 3, 2, 1))
    rho0 = thermal_input(2.0, 0.2)
    final = evolved(schedule_unitary(*PLAQUETTE, sched, tol=1e-6), rho0)
    assert abs(np.trace(final).real - 1.0) <= 1e-6
