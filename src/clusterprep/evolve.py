"""Coupling schedules and their unitary propagators.

A schedule is a table of knots: one row of couplings per knot time and
one column per coupling part, linear between knots.  The Hamiltonian
is given in its affine form, H(lam) = H0 + sum_mu lam_mu H_mu: the
propagators take H0 and one part H_mu per coupling column of the
schedule, as `OperatorSum`s, and make one dense matrix of each, once
per (H0, parts): the sector frame below is cached.

The conserved Pauli checks are found symbolically from the terms of H0
and the H_mu (`pauli.conserved_checks`), and H0 and the parts are
taken exactly into the Clifford frame where each check is one Z, as the
spectra are (`pauli.check_blocks`).  With k checks the propagator is
integrated as 2^k sector blocks of size dim / 2^k on one batch axis (one
full block when there are none), and the frame's basis
(`pauli.check_basis`) takes them back to the original basis.

Propagation uses the eighth-order Magnus integrator (Blanes, Casas,
Oteo & Ros, Phys. Rep. 470 (2009), arXiv:0810.5488; Iserles & Norsett,
Phil. Trans. R. Soc. A 357 (1999)) on the whole propagator.  H(t) is
linear on each smooth piece of the schedule, so the exponent's nested
commutators are formed once per piece and propagator, and each pass
and segment only weights them with scalars: a step's exponent is a
quartic in the step index.  Each step exponential is a truncated Taylor
series with scaling and squaring, evaluated with matrix products only
(Paterson-Stockmeyer), with degree and squarings chosen per batch so
the truncation error is below unit roundoff (after Al-Mohy & Higham,
SIAM J. Matrix Anal. Appl. 31 (2009)).  Steps run on the real form
[[Re A, -Im A], [Im A, Re A]] of each complex sector block A, which
respects sums, real scalings and products; numpy multiplies 8x8 blocks
about twice as fast in it (the gain shrinks with size and is gone at
16x16).  U comes back complex.  Steps are processed in batches of
bounded size and multiplied in a fixed pairwise tree order, so results
are deterministic for identical inputs and peak memory does not grow
with the step count.  Each batch's exponentials are written into one
reused workspace per thread.

Step size is controlled by step doubling, starting from duration/64:
the run is repeated at half the step until halving changes no
propagator entry by more than tol/4, and the finer run is returned.
Entries are compared in the original basis.  The CLI's ``evolve`` and
``sweep`` pass their ``--tol`` here, so both hold U to tol/4.  A run
that would exceed a fixed total step budget raises ConvergenceError
before the pass starts, and a final propagator that is not unitary to
1e-10 raises NumericalCheckError.
Integration is split at the schedule's knots and at requested sample
times, which keeps the scheme at full order on each smooth piece.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .linalg import ConvergenceError, NumericalCheckError
from .pauli import OperatorSum, check_basis, check_blocks, conserved_checks

__all__ = [
    "Schedule",
    "linear_rampdown",
    "sequential_switchoff",
    "schedule_unitary",
]

_BASE_STEP_FRACTION = 1.0 / 64.0
# total steps over all passes of one step-doubling run; the heaviest
# in-repo run (tau = 40, tol = 1e-10, in the tests) takes 4032, 65x under it
_MAX_STEPS = 1 << 18
# real entries per batched array, independent of the step count: 32 steps of two
# 16x16 real forms of 8x8 sector blocks, 128 KB per array, so that a batch's Taylor
# workspace (1 MB) stays in cache. With 1 MB arrays the sweep grid's nine
# propagators ran 10 to 40% slower (2-core VM, three interleaved runs), with no
# page faults at either size once the workspace is reused
_BATCH_ENTRIES = 1 << 14
_UNIT_ROUNDOFF = 2.0**-53
_MAX_TAYLOR_DEGREE = 18
_UNITARITY_ATOL = 1e-10
# the power of h and the degree in t of each row of `_magnus_terms`; a
# step's exponent is a polynomial of degree _STEP_DEGREE in its index
_TERM_H_POWERS = np.array([1, 1, 3, 5, 5, 5, 7, 7, 7, 7, 7])
_TERM_T_DEGREES = np.array([0, 1, 0, 0, 1, 2, 0, 1, 2, 3, 4])
_STEP_DEGREE = int(_TERM_T_DEGREES.max())
# binom(j, k) for each term's degree j and each power k of the step index (0 for k > j)
_TERM_BINOMIALS = np.array([[math.comb(j, k) for j in _TERM_T_DEGREES] for k in range(_STEP_DEGREE + 1)])


@dataclass(frozen=True)
class Schedule:
    """Piecewise-linear couplings: one row per knot, one column per part H_mu.

    ``times`` are the knot times: they start at 0.0, increase strictly,
    and the last one is the duration.  ``couplings[k]`` holds every
    coupling at ``times[k]``, all finite and >= 0; each coupling is
    linear between knots.
    """

    times: tuple[float, ...]
    couplings: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "times", tuple(map(float, self.times)))
        object.__setattr__(self, "couplings", tuple(tuple(map(float, row)) for row in self.couplings))
        times, rows = self.times, self.couplings
        if len(times) != len(rows) or not times:
            raise ValueError("times and couplings must be equal-length and non-empty")
        if times[0] != 0.0:
            raise ValueError("knot times must start at 0.0")
        if not all(math.isfinite(b) and b > a for a, b in zip(times, times[1:])):
            raise ValueError("knot times must be finite and strictly increasing")
        if len({len(row) for row in rows}) != 1 or not rows[0]:
            raise ValueError("every knot needs the same number of couplings, at least one")
        if any(not math.isfinite(v) or v < 0 for row in rows for v in row):
            raise ValueError("couplings must be finite and >= 0")

    @property
    def duration(self) -> float:
        return self.times[-1]

    def coupling_matrix(self, ts) -> np.ndarray:
        """Couplings at each time: shape (len(ts), columns)."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        slack = 1e-9 * max(1.0, self.duration)
        if np.any(ts < -slack) or np.any(ts > self.duration + slack):
            raise ValueError(f"evaluation time outside schedule domain [0.0, {self.duration}]")
        return np.stack([np.interp(ts, self.times, col) for col in zip(*self.couplings)], axis=1)


def linear_rampdown(lambda0: float, tau: float) -> Schedule:
    """All four plaquette couplings ramped together from lambda0 at t=0 to 0 at t=tau."""
    if not (math.isfinite(lambda0) and lambda0 > 0):
        raise ValueError("lambda0 must be positive")
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError("tau must be positive")
    return Schedule((0.0, tau), ((lambda0,) * 4, (0.0,) * 4))


def sequential_switchoff(lambda_init: float, tau_each: float, order: tuple[int, int, int, int]) -> Schedule:
    """Switch the four couplings off one after another, each over tau_each.

    ``order`` is a permutation of (1, 2, 3, 4).  The knots sit at
    k * tau_each for k = 0..4: coupling ``order[k]`` ramps from
    lambda_init to 0 between knots k and k + 1 and stays at 0 after.
    """
    if not (math.isfinite(lambda_init) and lambda_init > 0):
        raise ValueError("lambda_init must be positive")
    if not (math.isfinite(tau_each) and tau_each > 0):
        raise ValueError("tau_each must be positive")
    if sorted(order) != [1, 2, 3, 4]:
        raise ValueError("order must be a permutation of (1, 2, 3, 4)")
    rows = [[lambda_init] * 4 for _ in range(5)]
    for k, spin in enumerate(order):
        for row in rows[k + 1 :]:
            row[spin - 1] = 0.0
    return Schedule([k * tau_each for k in range(5)], rows)


def _admissible_theta(m: int) -> float:
    """Largest double theta < m + 2 whose degree-m Taylor remainder bound
    theta^(m+1) / (m+1)! / (1 - theta/(m+2)) is at most 2^-53.

    The bound grows with theta, so bisection over doubles finds it.
    """
    lo, hi = 0.0, float(m + 2)
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if mid ** (m + 1) / math.factorial(m + 1) / (1.0 - mid / (m + 2)) <= _UNIT_ROUNDOFF:
            lo = mid
        else:
            hi = mid
    return lo


_ADMISSIBLE_THETA = {m: _admissible_theta(m) for m in range(1, _MAX_TAYLOR_DEGREE + 1)}


def _taylor_plan(norm: float) -> tuple[int, int]:
    """Cheapest (degree m, squarings s) whose truncation error is below 2^-53.

    Degree m needs the fewest squarings s with norm / 2^s at most its
    admissible theta (tabled at import); the cost counts the matrix
    products of Paterson-Stockmeyer evaluation plus squarings.
    """
    mantissa, exponent = math.frexp(norm)
    best = None
    for m, theta in _ADMISSIBLE_THETA.items():
        # fewest s with norm / 2^s <= theta, read off the binary exponents
        t_mantissa, t_exponent = math.frexp(theta)
        s = 0 if norm <= theta else exponent - t_exponent + (mantissa > t_mantissa)
        p = math.isqrt(m - 1) + 1
        cost = p - 1 + m // p + s
        if best is None or cost < best[0]:
            best = (cost, m, s)
    return best[1], best[2]


# Paterson-Stockmeyer keeps A^0..A^p with p = isqrt(m - 1) + 1, at most this many
_MAX_TAYLOR_POWERS = math.isqrt(_MAX_TAYLOR_DEGREE - 1) + 2
# arrays of one `_expm_taylor` workspace: the powers, the Horner sum and one product
_TAYLOR_SLOTS = _MAX_TAYLOR_POWERS + 2


@functools.lru_cache(maxsize=1)
def _taylor_workspace(shape: tuple[int, ...], thread: int) -> np.ndarray:
    """A float64 `_expm_taylor` workspace for stacks of up to ``shape``, one per thread.

    The integrator's batches reuse it, so its hot loop allocates no
    batch-sized array whose page faults would depend on the heap's state.
    """
    return np.empty((_TAYLOR_SLOTS, *shape))


def _expm_taylor(a: np.ndarray, work=None) -> np.ndarray:
    """exp(A) for a stack of square matrices, by matrix products only.

    The degree and the number of squarings come from the largest 1-norm
    in the stack (_taylor_plan); the truncated series of A / 2^s is
    evaluated by Paterson-Stockmeyer (powers A^0..A^(p-1), Horner in
    A^p) and then squared s times.  ``work`` is a contiguous
    (_TAYLOR_SLOTS, *a.shape) array of a's dtype that every product is
    written into, and the result is a view of it; without one, a fresh
    one is allocated.
    """
    if work is None:
        work = np.empty((_TAYLOR_SLOTS, *a.shape), dtype=a.dtype)
    acc, tmp = work[-2], work[-1]
    norm = float(np.abs(a, out=tmp.real).sum(axis=-2).max(initial=0.0))
    if not math.isfinite(norm):
        raise NumericalCheckError("step generator is not finite")
    m, s = _taylor_plan(norm)
    p = math.isqrt(m - 1) + 1
    powers = work[: p + 1]
    powers[0] = np.eye(a.shape[-1])
    np.multiply(a, math.ldexp(1.0, -s), out=powers[1])
    for i in range(2, p + 1):
        np.matmul(powers[i - 1], powers[1], out=powers[i])
    coeffs = np.array([1.0 / math.factorial(i) for i in range(m + 1)] + [0.0] * p)
    low = powers[:p].reshape(p, -1)
    top = m // p
    np.matmul(coeffs[top * p : top * p + p], low, out=acc.reshape(-1))
    for j in range(top - 1, -1, -1):
        np.matmul(acc, powers[p], out=tmp)
        np.matmul(coeffs[j * p : j * p + p], low, out=acc.reshape(-1))
        acc += tmp
    for _ in range(s):
        np.matmul(acc, acc, out=tmp)
        acc, tmp = tmp, acc
    return acc


def _real_form(a: np.ndarray) -> np.ndarray:
    """[[Re A, -Im A], [Im A, Re A]]: the real 2d x 2d form of each complex d x d A."""
    return np.block([[a.real, -a.imag], [a.imag, a.real]])


def _magnus_terms(a0: np.ndarray, a1: np.ndarray) -> np.ndarray:
    """Matrix coefficients of the eighth-order Magnus exponent on linear pieces.

    On a piece A(t) = -iH(t) = a0 + t a1 (t from the piece's start), a
    step of length h centred at t has alpha1 = h A(t), b = h^2 a1 and
    D = [alpha1, b] = h^3 [a0, a1].  Its exponent (Blanes et al. 2009,
    eighth order; alpha3 = alpha4 = 0 on a linear piece) is

        alpha1 - D/12 + [alpha1, [alpha1, D]]/720 - [b, D]/240
        - [alpha1, [alpha1, [alpha1, [alpha1, D]]]]/30240
        - [alpha1, [b, [alpha1, D]]]/30240 + [b, [alpha1, [alpha1, D]]]/7560
        - [b, [b, D]]/6720,

    a sum of h^w times polynomials in t whose coefficients are nested
    brackets of a0 and a1.  For a0 and a1 of shape (pieces, ..., d, d)
    returns those coefficients as (pieces, 11, ..., d, d), row r being
    the t^_TERM_T_DEGREES[r] coefficient of the h^_TERM_H_POWERS[r] term.
    Commutators of sector-block matrices stay in the blocks.
    """

    def bracket(x, y):
        return x @ y - y @ x

    def ad(poly):
        # [a0 + t a1, poly] for a polynomial in t with coefficients along axis 1
        out = np.zeros((poly.shape[0], poly.shape[1] + 1, *poly.shape[2:]), dtype=complex)
        out[:, :-1] += bracket(a0[:, None], poly)
        out[:, 1:] += bracket(a1[:, None], poly)
        return out

    b = a1[:, None]
    c = bracket(a0, a1)[:, None]
    ac = ad(c)
    aac = ad(ac)
    h5 = aac / 720.0
    h5[:, :1] -= bracket(b, c) / 240.0
    h7 = -ad(ad(aac)) / 30240.0
    h7[:, :3] += bracket(b, aac) / 7560.0 - ad(bracket(b, ac)) / 30240.0
    h7[:, :1] -= bracket(b, bracket(b, c)) / 6720.0
    return np.concatenate([a0[:, None], b, -c / 12.0, h5, h7], axis=1)


def _step_weights(kinks: list[float], boundaries: list[float], counts: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The piece of each segment, and the scalars that make its step exponents.

    Step s of a segment that starts c0 into its piece, at step h, is
    centred at t = c + s h with c = c0 + h/2, so term (w, j) of
    `_magnus_terms` contributes h^w (c + s h)^j = sum_k binom(j, k)
    h^(w+k) c^(j-k) s^k.  Returns the piece index of each segment and
    weights of shape (segments, 5, 11): the exponent of step s is
    sum_k s^k (weights[g, k] @ terms).
    """
    start = np.array(boundaries[:-1])
    # sample times may sit rounding-close outside [0, duration]: the end pieces take them
    piece = np.clip(np.searchsorted(kinks, start, side="right") - 1, 0, len(kinks) - 2)
    h = (np.diff(boundaries) / np.array(counts))[:, None, None]
    c = (start - np.array(kinks)[piece])[:, None, None] + 0.5 * h
    j, k = _TERM_T_DEGREES, np.arange(_STEP_DEGREE + 1)[:, None]
    return piece, _TERM_BINOMIALS * h ** (_TERM_H_POWERS + k) * c ** np.maximum(j - k, 0)


def _ordered_product(mats: np.ndarray) -> np.ndarray:
    """mats[-1] @ ... @ mats[0], multiplied pairwise in a fixed tree order."""
    while mats.shape[0] > 1:
        n = mats.shape[0]
        paired = mats[1::2] @ mats[0 : n - 1 : 2]
        mats = np.concatenate([paired, mats[n - 1 :]]) if n % 2 else paired
    return mats[0]


def _step_counts(boundaries: list[float], h: float) -> list[int]:
    """Steps per smooth segment at nominal step h."""
    return [max(1, int(math.ceil((t1 - t0) / h - 1e-9))) for t0, t1 in zip(boundaries[:-1], boundaries[1:])]


def _integrate(terms: np.ndarray, kinks: list[float], boundaries: list[float], counts: list[int]) -> list[np.ndarray]:
    """Magnus sweep over each smooth segment, ``counts`` steps each.

    ``terms`` are the real forms of the per-piece `_magnus_terms`;
    returns the real forms of U's (n_blocks, d, d) blocks at every
    boundary after the first.  Each batch's step exponents come from one
    Vandermonde product of step indices and segment coefficients.
    """
    piece, weights = _step_weights(kinks, boundaries, counts)
    shape = terms.shape[2:]
    flat = terms.reshape(*terms.shape[:2], -1)
    batch = max(1, _BATCH_ENTRIES // flat.shape[-1])
    work = _taylor_workspace((batch, *shape), threading.get_ident())
    u = np.broadcast_to(np.eye(shape[-1]), shape)
    snapshots = []
    for p, w, n_steps in zip(piece, weights, counts):
        coeffs = w @ flat[p]
        for done in range(0, n_steps, batch):
            s = np.arange(done, min(done + batch, n_steps), dtype=float)
            powers = s[:, None] ** np.arange(_STEP_DEGREE + 1)
            steps = (powers @ coeffs).reshape(-1, *shape)
            u = _ordered_product(_expm_taylor(steps, work[:, : len(s)])) @ u
        snapshots.append(u)
    return snapshots


@functools.lru_cache(maxsize=16)
def _sector_frame(h0: OperatorSum, parts: tuple[OperatorSum, ...]) -> tuple[np.ndarray, np.ndarray]:
    """H0 and the parts as check-sector blocks, built once per (h0, parts).

    Returns ``(blocks, vb)``, both read-only: the (1 + len(parts),
    n_blocks, d, d) `pauli.check_blocks` of the checks they conserve,
    and the sector columns vb of shape (n_blocks, dim, d) of
    `pauli.check_basis`, which take blocks u_s back to the original
    basis as sum_s vb_s u_s vb_s^dagger.  Raises ValueError when a
    part's qubit count differs from h0's (from `conserved_checks`).
    """
    ops = [h0, *parts]
    checks = conserved_checks(ops)
    blocks = check_blocks(ops, checks).astype(complex)
    v = check_basis(h0.n_qubits, checks)
    vb = np.ascontiguousarray(v.reshape(v.shape[0], blocks.shape[1], -1).transpose(1, 0, 2))
    for array in (blocks, vb):
        array.flags.writeable = False
    return blocks, vb


def _converged_propagators(h0: OperatorSum, parts, schedule: Schedule, tol: float, sample_times):
    """Step-doubled Magnus until halving moves no propagator entry more than tol/4.

    Integration runs in the sector blocks of the checks conserved by H0
    and the parts; every comparison and every returned snapshot is in
    the original basis.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tolerance must be positive")
    samples = sorted(set(float(t) for t in (() if sample_times is None else sample_times)))
    for t in samples:
        if t < -1e-12 or t > schedule.duration * (1 + 1e-12) + 1e-12:
            raise ValueError("sample time outside schedule duration")
    columns = len(schedule.couplings[0])
    if len(parts) != columns:
        raise ValueError(f"schedule drives {columns} couplings but {len(parts)} Hamiltonian parts were given")
    blocks, vb = _sector_frame(h0, tuple(parts))
    dim, d = vb.shape[1:]
    kinks = list(schedule.times)
    boundaries = sorted({*kinks, *samples})
    if schedule.duration == 0.0:
        eye = np.eye(dim, dtype=complex)
        return boundaries, [eye.copy() for _ in boundaries]
    # A = -iH = a0 + t a1 on each piece between knots, t from the piece's start
    lam = np.array(schedule.couplings)
    slope = np.diff(lam, axis=0) / np.diff(kinks)[:, None]
    a0 = -1j * (blocks[0] + np.tensordot(lam[:-1], blocks[1:], axes=1))
    a1 = -1j * np.tensordot(slope, blocks[1:], axes=1)
    terms = _real_form(_magnus_terms(a0, a1))

    def propagators(counts):
        # U = sum over sectors of V_s u_s V_s^dagger; U(0) stays exactly the identity
        snaps = [r[..., :d, :d] + 1j * r[..., d:, :d] for r in _integrate(terms, kinks, boundaries, counts)]
        return [np.eye(dim, dtype=complex)] + [(vb @ u @ vb.conj().transpose(0, 2, 1)).sum(axis=0) for u in snaps]

    h = schedule.duration * _BASE_STEP_FRACTION
    spent = 0
    prev = None
    while True:
        counts = _step_counts(boundaries, h)
        spent += sum(counts)
        if spent > _MAX_STEPS:
            raise ConvergenceError(f"step-doubling did not reach tolerance within {_MAX_STEPS} steps")
        cur = propagators(counts)
        if prev is not None:
            err = max(float(np.abs(a - b).max()) for a, b in zip(prev, cur))
            if err <= 0.25 * tol:
                break
        prev = cur
        h *= 0.5
    u = cur[-1]
    defect = float(np.abs(u.conj().T @ u - np.eye(dim)).max())
    if defect > _UNITARITY_ATOL:
        raise NumericalCheckError(f"propagator is not unitary (defect {defect:.3e})")
    return boundaries, cur


def schedule_unitary(h0: OperatorSum, parts, schedule: Schedule, tol: float = 1e-8, sample_times=None):
    """Propagator U(t, 0) of H0 + sum_mu lam_mu(t) H_mu, to entrywise tolerance tol/4.

    ``parts`` holds one H_mu per coupling column of the schedule.
    Returns the final U, or ``(U_final, [(t, U_t), ...])`` when sample
    times are requested.  Arithmetic that overflows raises
    FloatingPointError.
    """
    with np.errstate(over="raise", invalid="raise"):
        boundaries, snapshots = _converged_propagators(h0, parts, schedule, tol, sample_times)
    if sample_times is None:
        return snapshots[-1]
    wanted = sorted(set(float(t) for t in sample_times))
    by_time = dict(zip(boundaries, snapshots))
    return snapshots[-1], [(t, by_time[t]) for t in wanted]

