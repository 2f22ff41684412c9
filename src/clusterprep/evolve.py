"""Coupling schedules and unitary propagation of mixed states.

Schedules are piecewise-linear coupling trajectories.  The Hamiltonian
is affine in the four couplings, H(lam) = H0 + sum_mu lam_mu H_mu; the
builder callback is decomposed once into that form (and rejected if it
is not affine), after which every Magnus term is a linear combination of
H0, the H_mu and their commutators, fixed for the whole run.

Propagation uses the fourth-order Gauss-Legendre Magnus integrator
(Iserles & Norsett 1999; Blanes, Casas, Oteo & Ros, Phys. Rep. 470
(2009), arXiv:0810.5488), applied to the whole propagator so the
spectral weights of the initial mixture ride along unchanged.  Each
step takes the exact exponential of its Hermitian Magnus term, so the
propagator is unitary to rounding at any step size.  Steps are
processed in batches of bounded size: one batched ``eigh`` gives all
step exponentials of a batch, which are then multiplied in a fixed
pairwise tree order, so results are deterministic for identical inputs
and peak memory does not grow with the step count.

Step size is controlled by step doubling, starting from duration/64:
the run is repeated at half the step until halving changes no tracked
entry by more than the goal (tol/4 on propagator entries, or tol on the
evolved density matrix), and the finer run is returned.  Integration is
split at schedule kinks and at requested sample times, which keeps the
scheme at full order on each smooth piece.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import ConvergenceError
from .pauli import to_dense
from .thermal import DensityMatrix

__all__ = [
    "PiecewiseLinear",
    "Schedule",
    "linear_rampdown",
    "sequential_switchoff",
    "propagate",
    "schedule_unitary",
]

_BASE_STEP_FRACTION = 1.0 / 64.0
_MAX_HALVINGS = 22
# complex entries per batched array: bounds peak memory independently of
# the step count (256 steps of a 16x16 propagator, 1 MB per array)
_BATCH_ENTRIES = 1 << 16
_GL_OFFSET = math.sqrt(3.0) / 6.0


@dataclass(frozen=True)
class PiecewiseLinear:
    """Piecewise-linear function given by (time, value) knots."""

    times: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.times) != len(self.values) or not self.times:
            raise ValueError("times and values must be equal-length and non-empty")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("knot times must be strictly increasing")
        if any(not math.isfinite(v) or v < 0 for v in self.values):
            raise ValueError("channel values must be finite and >= 0")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        lo, hi = self.times[0], self.times[-1]
        slack = 1e-9 * max(1.0, hi - lo)
        if np.any(t < lo - slack) or np.any(t > hi + slack):
            raise ValueError(f"evaluation time outside schedule domain [{lo}, {hi}]")
        out = np.interp(np.clip(t, lo, hi), self.times, self.values)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class Schedule:
    """A duration plus named piecewise-linear coupling channels.

    Channels must span [0, duration].  A single channel named
    ``lambda`` drives all four plaquette couplings uniformly; four
    channels ``lambda1..lambda4`` drive them separately.
    """

    duration: float
    channels: tuple[tuple[str, PiecewiseLinear], ...]

    def __post_init__(self):
        if not (math.isfinite(self.duration) and self.duration >= 0):
            raise ValueError("duration must be finite and >= 0")
        if not self.channels:
            raise ValueError("schedule needs at least one channel")
        for name, pl in self.channels:
            if abs(pl.times[0]) > 1e-12 or abs(pl.times[-1] - self.duration) > 1e-12 * max(1.0, self.duration):
                raise ValueError(f"channel {name!r} does not span [0, duration]")

    @property
    def channel_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.channels)

    def breakpoints(self) -> list[float]:
        """Interior knot times where any channel changes slope."""
        knots = set()
        for _, pl in self.channels:
            knots.update(pl.times[1:-1])
        return sorted(knots)

    def coupling_matrix(self, ts: np.ndarray) -> np.ndarray:
        """Couplings at each time: shape (len(ts), 4)."""
        names = self.channel_names
        ts = np.asarray(ts, dtype=float)
        if names == ("lambda",):
            col = np.asarray(self.channels[0][1](ts), dtype=float)
            return np.repeat(col.reshape(-1, 1), 4, axis=1)
        if sorted(names) == ["lambda1", "lambda2", "lambda3", "lambda4"]:
            by_name = dict(self.channels)
            cols = [np.asarray(by_name[f"lambda{i}"](ts), dtype=float) for i in (1, 2, 3, 4)]
            return np.stack(cols, axis=1).reshape(len(np.atleast_1d(ts)), 4)
        raise ValueError("channels must be 'lambda' or 'lambda1'..'lambda4'")

    def coupling_vector(self, t: float) -> np.ndarray:
        return self.coupling_matrix(np.array([t]))[0]


def linear_rampdown(lambda0: float, tau: float) -> Schedule:
    """Uniform coupling ramped linearly from lambda0 at t=0 to 0 at t=tau."""
    if not (math.isfinite(lambda0) and lambda0 > 0):
        raise ValueError("lambda0 must be positive")
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError("tau must be positive")
    pl = PiecewiseLinear((0.0, float(tau)), (float(lambda0), 0.0))
    return Schedule(float(tau), (("lambda", pl),))


def sequential_switchoff(lambda_init: float, tau_each: float, order: tuple[int, int, int, int]) -> Schedule:
    """Switch the four couplings off one after another, each over tau_each.

    ``order`` is a permutation of (1, 2, 3, 4); channel ``order[k]`` ramps
    from lambda_init to 0 during segment k, staying constant otherwise.
    Total duration is 4 * tau_each.
    """
    if not (math.isfinite(lambda_init) and lambda_init > 0):
        raise ValueError("lambda_init must be positive")
    if not (math.isfinite(tau_each) and tau_each > 0):
        raise ValueError("tau_each must be positive")
    if sorted(order) != [1, 2, 3, 4]:
        raise ValueError("order must be a permutation of (1, 2, 3, 4)")
    total = 4.0 * tau_each
    channels = []
    for k, spin in enumerate(order):
        knots = [(0.0, lambda_init), (k * tau_each, lambda_init),
                 ((k + 1) * tau_each, 0.0), (total, 0.0)]
        times, values = [], []
        for t, v in knots:
            if times and t <= times[-1]:
                continue
            times.append(float(t))
            values.append(float(v))
        channels.append((f"lambda{spin}", PiecewiseLinear(tuple(times), tuple(values))))
    channels.sort(key=lambda item: item[0])
    return Schedule(total, tuple(channels))


def _probe_affine(builder) -> tuple[np.ndarray, np.ndarray]:
    """Decompose builder(lam) as H0 + sum_mu lam_mu * H_mu.

    Returns ``(H0, stack of H_mu)``.  Every model here is affine in its
    couplings; the decomposition is verified at a generic probe point,
    and a builder that fails the check is rejected with ValueError.
    """
    h0 = to_dense(builder(np.zeros(4)))
    parts = []
    for mu in range(4):
        unit = np.zeros(4)
        unit[mu] = 1.0
        parts.append(to_dense(builder(unit)) - h0)
    probe = np.array([0.37, 1.21, 0.53, 0.89])
    expected = h0 + sum(probe[mu] * parts[mu] for mu in range(4))
    actual = to_dense(builder(probe))
    scale = max(1.0, float(np.abs(actual).max()))
    if np.abs(expected - actual).max() > 1e-12 * scale:
        raise ValueError("builder is not affine in the four couplings")
    return h0.astype(complex), np.stack([p.astype(complex) for p in parts])


def _magnus_generators(h0: np.ndarray, parts: np.ndarray) -> np.ndarray:
    """The matrices H_mu, [H_mu, H0] and [H_mu, H_nu], stacked in that order.

    With H = H0 + sum_mu a_mu H_mu and H' = H0 + sum_mu b_mu H_mu,
    [H, H'] = sum_mu (a_mu - b_mu) [H_mu, H0] + sum_mu,nu a_mu b_nu [H_mu, H_nu],
    so every Magnus term is H0 plus a linear combination of these.
    """
    brackets = [p @ h0 - h0 @ p for p in parts] + [p @ q - q @ p for p in parts for q in parts]
    return np.concatenate([parts, np.stack(brackets)])


def _step_exponentials(h0, gens, schedule: Schedule, starts: np.ndarray, hs: float) -> np.ndarray:
    """exp(Omega) of the fourth-order Magnus step [s, s + hs] for each start s.

    With H1, H2 at the Gauss-Legendre nodes, Omega = -iK for the
    Hermitian K = hs/2 (H1 + H2) - i sqrt(3) hs^2/12 [H2, H1], formed
    from the node couplings and the generators of _magnus_generators;
    exp(-iK) = V diag(exp(-iw)) V^dagger from one batched eigh.
    """
    lam1 = schedule.coupling_matrix(starts + (0.5 - _GL_OFFSET) * hs)
    lam2 = schedule.coupling_matrix(starts + (0.5 + _GL_OFFSET) * hs)
    c = -1j * math.sqrt(3.0) * hs * hs / 12.0
    pairs = (lam2[:, :, None] * lam1[:, None, :]).reshape(len(starts), -1)
    coeffs = np.concatenate([(0.5 * hs) * (lam1 + lam2), c * (lam2 - lam1), c * pairs], axis=1)
    k = hs * h0 + (coeffs @ gens.reshape(gens.shape[0], -1)).reshape(-1, *h0.shape)
    w, v = np.linalg.eigh(k)
    return (v * np.exp(-1j * w)[:, None, :]) @ v.conj().transpose(0, 2, 1)


def _ordered_product(mats: np.ndarray) -> np.ndarray:
    """mats[-1] @ ... @ mats[0], multiplied pairwise in a fixed tree order."""
    while mats.shape[0] > 1:
        n = mats.shape[0]
        paired = mats[1::2] @ mats[0 : n - 1 : 2]
        mats = np.concatenate([paired, mats[n - 1 :]]) if n % 2 else paired
    return mats[0]


def _integrate(h0, gens, schedule: Schedule, boundaries: list[float], h: float) -> list[np.ndarray]:
    """Magnus sweep over each smooth segment; returns U at every boundary."""
    dim = h0.shape[0]
    batch = max(1, _BATCH_ENTRIES // (dim * dim))
    u = np.eye(dim, dtype=complex)
    snapshots = [u]
    for t0, t1 in zip(boundaries[:-1], boundaries[1:]):
        n_steps = max(1, int(math.ceil((t1 - t0) / h - 1e-9)))
        hs = (t1 - t0) / n_steps
        for done in range(0, n_steps, batch):
            starts = t0 + hs * np.arange(done, min(done + batch, n_steps))
            u = _ordered_product(_step_exponentials(h0, gens, schedule, starts, hs)) @ u
        snapshots.append(u)
    return snapshots


def _converged_propagators(builder, schedule: Schedule, tol: float, sample_times, rho0=None):
    """Step-doubled Magnus until halving moves no tracked entry more than tol.

    Tracks the density matrix entries when ``rho0`` is given, otherwise
    the propagator entries (against tol/4, a stand-in bound that keeps
    any evolved state within tol).
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tolerance must be positive")
    samples = sorted(set(float(t) for t in (() if sample_times is None else sample_times)))
    for t in samples:
        if t < -1e-12 or t > schedule.duration * (1 + 1e-12) + 1e-12:
            raise ValueError("sample time outside schedule duration")
    h0, parts = _probe_affine(builder)
    gens = _magnus_generators(h0, parts)
    dim = h0.shape[0]
    if rho0 is not None and rho0.shape[0] != dim:
        raise ValueError("state dimension does not match builder output")
    boundary_set = {0.0, schedule.duration}
    boundary_set.update(b for b in schedule.breakpoints() if 0.0 < b < schedule.duration)
    boundary_set.update(samples)
    boundaries = sorted(boundary_set)
    if schedule.duration == 0.0:
        eye = np.eye(dim, dtype=complex)
        return boundaries, [eye.copy() for _ in boundaries]

    def tracked(snapshots):
        if rho0 is None:
            return snapshots
        return [u @ rho0 @ u.conj().T for u in snapshots]

    goal = tol if rho0 is not None else 0.25 * tol
    h = schedule.duration * _BASE_STEP_FRACTION
    prev_tracked = tracked(_integrate(h0, gens, schedule, boundaries, h))
    for _ in range(_MAX_HALVINGS):
        h *= 0.5
        cur = _integrate(h0, gens, schedule, boundaries, h)
        cur_tracked = tracked(cur)
        err = max(
            float(np.abs(a - b).max()) for a, b in zip(prev_tracked, cur_tracked)
        )
        if err <= goal:
            return boundaries, cur
        prev_tracked = cur_tracked
    raise ConvergenceError("step-doubling did not reach tolerance (step-size underflow)")


def schedule_unitary(builder, schedule: Schedule, tol: float = 1e-8, sample_times=None):
    """Propagator U(t, 0) of the schedule, to entrywise tolerance tol/4.

    Returns the final U, or ``(U_final, [(t, U_t), ...])`` when sample
    times are requested.
    """
    boundaries, snapshots = _converged_propagators(builder, schedule, tol, sample_times)
    if sample_times is None:
        return snapshots[-1]
    wanted = sorted(set(float(t) for t in sample_times))
    by_time = dict(zip(boundaries, snapshots))
    return snapshots[-1], [(t, by_time[t]) for t in wanted]


def propagate(builder, schedule: Schedule, rho0: DensityMatrix, tol: float = 1e-8, sample_times=None):
    """Evolve a mixed state through a schedule.

    The initial mixture is carried as exact spectral weights on evolving
    pure states (the propagator acts on the whole eigenbasis at once),
    so the state's spectrum is preserved up to integrator error.  Returns
    the final DensityMatrix, or ``(final, [(t, DensityMatrix), ...])``
    when sample times are requested.
    """
    rho_mat = rho0.matrix
    boundaries, snapshots = _converged_propagators(builder, schedule, tol, sample_times, rho0=rho_mat)
    atol = max(1e-10, 4.0 * tol)

    def wrap(u):
        rho = u @ rho_mat @ u.conj().T
        rho = 0.5 * (rho + rho.conj().T)
        return DensityMatrix.from_matrix(rho, check=True, atol=atol)

    final = wrap(snapshots[-1])
    if sample_times is None:
        return final
    by_time = dict(zip(boundaries, snapshots))
    wanted = sorted(set(float(t) for t in sample_times))
    return final, [(t, wrap(by_time[t])) for t in wanted]
