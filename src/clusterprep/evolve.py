"""Coupling schedules and their unitary propagators.

A schedule is a table of knots: one row of couplings per knot time and
one column per coupling part, linear between knots.  The Hamiltonian
is given in its affine form, H(lam) = H0 + sum_mu lam_mu H_mu: the
propagators take H0 and one part H_mu per coupling column of the
schedule, as `OperatorSum`s, and make their dense sector blocks once
per (H0, parts): `_sector_blocks` is cached, and the spectra read it too.
H(lam) on the blocks, for any rows of couplings, comes from `_affine`.

The conserved Pauli checks are found symbolically from the terms of H0
and the H_mu (`pauli.conserved_checks`), and H0 and the parts are
taken exactly into the Clifford frame where each check is one Z
(`pauli.check_blocks`).  With k checks the propagator is integrated as
2^k sector blocks of size dim / 2^k on one batch axis (one full block
when there are none).  Step doubling and the unitarity check stay in
the blocks too: only the U that `schedule_unitary` returns is taken
back to the original basis, by the frame's basis V (`pauli.check_basis`,
cached apart in `_sector_basis`), as V blockdiag(u) V^dagger.

Propagation uses the eighth-order Magnus integrator (Blanes, Casas,
Oteo & Ros, Phys. Rep. 470 (2009), arXiv:0810.5488; Iserles & Norsett,
Phil. Trans. R. Soc. A 357 (1999)) on the whole propagator.  H(t) is
linear on each smooth piece of the schedule, so the exponent's nested
commutators are formed once per piece and propagator, and each pass
only weights them with scalars: a step's exponent is a polynomial in
the step's centre time.  Each step exponential is a truncated Taylor
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

Step size is controlled by step doubling.  The first pass takes the
coarsest step duration / 2^k whose norm h max ||A||_1 is at most
theta(tol) = min(2, 16 tol^(1/8)), with ||A||_1 the real-form 1-norm of
A = -iH at the knots, where the affine A peaks: the exponent 1/8 is the
order (Hairer, Norsett & Wanner, Solving ODEs I, II.4), and the cap keeps
every pass inside the Magnus convergence bound h ||A|| < pi.  The run is
then repeated at half the step until halving changes no sector block, at
any boundary, by more than tol/4 in spectral norm, and the finer run is
returned.  The spectral norm of U's change is the same in every basis,
and it bounds every entry, so each entry of U is held to tol/4.  The
CLI's ``evolve`` and ``sweep`` pass their ``--tol`` here.  A run that
would exceed a fixed total step budget raises ConvergenceError before
the pass starts, and a final propagator with a block u_s whose
||u_s^dagger u_s - I||_F exceeds 1e-10 raises NumericalCheckError.
Integration is split at the schedule's knots and at requested sample
times, which keeps the scheme at full order on each smooth piece.  A
sample time up to 1e-12 before 0, or up to 1e-12 (1 + duration) after
the duration, is snapped onto that end of the schedule and returned at
it; one farther outside raises ValueError.
"""

from __future__ import annotations

import bisect
import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .linalg import ConvergenceError, NumericalCheckError
from .pauli import OperatorSum, PauliString, check_basis, check_blocks, conserved_checks

__all__ = [
    "Schedule",
    "linear_rampdown",
    "sequential_switchoff",
    "schedule_unitary",
]

# total steps over all passes of one step-doubling run; the heaviest
# in-repo run (tau = 80, tol = 1e-10, in the tests) takes 6144, 42x under it
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
# the power of h and the degree in t of each row of `_magnus_terms`
_TERM_H_POWERS = np.array([1, 1, 3, 5, 5, 5, 7, 7, 7, 7, 7])
_TERM_T_DEGREES = np.array([0, 1, 0, 0, 1, 2, 0, 1, 2, 3, 4])


@dataclass(frozen=True)
class Schedule:
    """Piecewise-linear couplings: one row per knot, one column per part H_mu.

    ``times`` are the knot times: they start at 0.0, increase strictly,
    and the last one is the duration.  ``couplings[k]`` holds every
    coupling at ``times[k]``, all finite and >= 0; each coupling is
    linear between knots, with a finite slope.
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
        steps = zip(times, times[1:], rows, rows[1:])
        if not all(math.isfinite((b - a) / (t1 - t0)) for t0, t1, r0, r1 in steps for a, b in zip(r0, r1)):
            raise ValueError("every coupling's slope between knots must be finite")

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


def _step_exponents(terms: np.ndarray, h: float, t: np.ndarray) -> np.ndarray:
    """Exponents of steps of length h centred at times ``t`` of one piece.

    ``terms`` are that piece's (11, ...) `_magnus_terms` rows, and ``t``
    is measured from the piece's start: the exponent of the step at t is
    sum_r h^_TERM_H_POWERS[r] t^_TERM_T_DEGREES[r] terms[r].
    """
    scalars = h**_TERM_H_POWERS * t[:, None] ** _TERM_T_DEGREES
    # one matmul on the flattened rows: np.tensordot's overhead doubles this product's cost at 32 steps
    return (scalars @ terms.reshape(len(terms), -1)).reshape(len(t), *terms.shape[1:])


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


def _start_step(duration: float, norm: float, tol: float) -> float:
    """The coarsest duration / 2^k whose step norm h * norm is at most theta(tol) = min(2, 16 tol^(1/8)).

    Halving stops once the pass would exceed the step budget, which then refuses it.
    """
    theta = min(2.0, 16.0 * tol**0.125)
    h = duration
    while h * norm > theta and h * _MAX_STEPS >= duration:
        h *= 0.5
    return h


def _integrate(terms: np.ndarray, kinks: list[float], boundaries: list[float], counts: list[int]) -> list[np.ndarray]:
    """Magnus sweep over each smooth segment, ``counts`` steps each.

    ``terms`` are the real forms of the per-piece `_magnus_terms`;
    returns the real forms of U's (n_blocks, d, d) blocks at every
    boundary after the first.  Step s of a segment that starts at t0,
    at step h, is centred c + s h into its piece, with c = t0 + h/2 less
    the piece's start knot; each batch's exponents are one
    `_step_exponents` product.
    """
    shape = terms.shape[2:]
    batch = max(1, _BATCH_ENTRIES // math.prod(shape))
    work = _taylor_workspace((batch, *shape), threading.get_ident())
    u = np.broadcast_to(np.eye(shape[-1]), shape)
    snapshots = []
    for t0, t1, n_steps in zip(boundaries, boundaries[1:], counts):
        p = bisect.bisect_right(kinks, t0) - 1
        h = (t1 - t0) / n_steps
        c = t0 - kinks[p] + 0.5 * h
        for done in range(0, n_steps, batch):
            t = c + np.arange(done, min(done + batch, n_steps)) * h
            u = _ordered_product(_expm_taylor(_step_exponents(terms[p], h, t), work[:, : len(t)])) @ u
        snapshots.append(u)
    return snapshots


@functools.lru_cache(maxsize=16)
def _sector_blocks(h0: OperatorSum, parts: tuple[OperatorSum, ...]) -> tuple[tuple[PauliString, ...], np.ndarray]:
    """The checks that H0 and the parts conserve, and their sector blocks, built once per (h0, parts).

    Returns ``(checks, blocks)``: the `pauli.conserved_checks` as a tuple,
    and the read-only (1 + len(parts), n_blocks, d, d) `pauli.check_blocks`
    of H0 and the parts, real when every term is.  A part whose qubit
    count differs from h0's raises ValueError.
    """
    ops = [h0, *parts]
    checks = tuple(conserved_checks(ops))
    blocks = check_blocks(ops, checks)
    blocks.flags.writeable = False
    return checks, blocks


@functools.lru_cache(maxsize=16)
def _sector_basis(h0: OperatorSum, parts: tuple[OperatorSum, ...]) -> np.ndarray:
    """Read-only sector columns vb of `_sector_blocks`' frame, (n_blocks, dim, d), built once per (h0, parts).

    vb_s spans sector s in `pauli.check_basis` V, which takes blocks u_s
    back to the original basis as V blockdiag(u) V^dagger.
    """
    checks, blocks = _sector_blocks(h0, parts)
    v = check_basis(h0.n_qubits, checks)
    vb = np.ascontiguousarray(v.reshape(v.shape[0], blocks.shape[1], -1).transpose(1, 0, 2))
    vb.flags.writeable = False
    return vb


def _affine(blocks: np.ndarray, couplings) -> np.ndarray:
    """H0 + sum_mu lam_mu H_mu on the sector blocks, for each row of ``couplings``.

    ``blocks`` are `_sector_blocks`' (1 + parts, n_blocks, d, d) blocks
    of H0 and the parts, and ``couplings`` has one column per part.
    """
    return blocks[0] + np.tensordot(couplings, blocks[1:], axes=1)


def _spectral_norms_within(diff: np.ndarray, bound: float) -> bool:
    """Whether every (d, d) block of ``diff`` has spectral norm at most ``bound``.

    Two exact screens decide most blocks without an SVD: the largest
    entry of a block bounds its spectral norm from below, and its
    Frobenius norm bounds it from above.  Only the blocks in between are
    decomposed.
    """
    if np.abs(diff).max() > bound:
        return False
    rest = diff[np.linalg.norm(diff, axis=(-2, -1)) > bound]
    return rest.size == 0 or bool(np.linalg.svd(rest, compute_uv=False).max() <= bound)


def _converged_propagators(h0: OperatorSum, parts, schedule: Schedule, tol: float, sample_times):
    """Step-doubled Magnus until halving moves no sector block more than tol/4 in spectral norm.

    Integration, comparison and the unitarity check all run in the
    sector blocks of the checks conserved by H0 and the parts.  Returns
    the distinct sample times in ascending order, each snapped onto [0,
    duration], and U's complex (n_blocks, d, d) blocks keyed by each of
    them and by the duration (None where U is exactly the identity: at
    0, and everywhere when the schedule has zero duration).
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tolerance must be positive")
    duration = schedule.duration
    raw = {float(t) for t in (() if sample_times is None else sample_times)}
    if not all(-1e-12 <= t <= duration * (1 + 1e-12) + 1e-12 for t in raw):
        raise ValueError("sample time outside schedule duration")
    samples = sorted({min(max(t, 0.0), duration) for t in raw})
    columns = len(schedule.couplings[0])
    if len(parts) != columns:
        raise ValueError(f"schedule drives {columns} couplings but {len(parts)} Hamiltonian parts were given")
    blocks = _sector_blocks(h0, tuple(parts))[1].astype(complex)
    d = blocks.shape[-1]
    kinks = list(schedule.times)
    boundaries = sorted({*kinks, *samples})
    wanted = [*samples, duration]
    if duration == 0.0:
        return samples, dict.fromkeys(wanted)
    # A = -iH = a0 + t a1 on each piece between knots, t from the piece's start
    lam = np.array(schedule.couplings)
    slope = np.diff(lam, axis=0) / np.diff(kinks)[:, None]
    knots = _affine(blocks, lam)
    a0, a1 = -1j * knots[:-1], -1j * np.tensordot(slope, blocks[1:], axes=1)
    terms = _real_form(_magnus_terms(a0, a1))
    # the real-form 1-norm of A at the knots is that of H there: sum_i |Re H_ij| + |Im H_ij|
    norm = float((np.abs(knots.real) + np.abs(knots.imag)).sum(axis=-2).max())

    h = _start_step(duration, norm, tol)
    spent = 0
    prev = None
    while True:
        counts = _step_counts(boundaries, h)
        spent += sum(counts)
        if spent > _MAX_STEPS:
            raise ConvergenceError(f"step-doubling did not reach tolerance within {_MAX_STEPS} steps")
        # complex blocks at every boundary after the first, where U(0) is the identity in every pass
        r = np.array(_integrate(terms, kinks, boundaries, counts))
        cur = r[..., :d, :d] + 1j * r[..., d:, :d]
        # the largest singular value of the block differences is U's change in any basis; it bounds every entry
        if prev is not None and _spectral_norms_within(cur - prev, 0.25 * tol):
            break
        prev = cur
        h *= 0.5
    u = cur[-1]
    defect = float(np.linalg.norm(u.conj().transpose(0, 2, 1) @ u - np.eye(d), axis=(1, 2)).max())
    if defect > _UNITARITY_ATOL:
        raise NumericalCheckError(f"propagator is not unitary (defect {defect:.3e})")
    at = dict(zip(boundaries, [None, *cur]))
    return samples, {t: at[t] for t in wanted}


def schedule_unitary(h0: OperatorSum, parts, schedule: Schedule, tol: float = 1e-8, sample_times=None):
    """Propagator U(t, 0) of H0 + sum_mu lam_mu(t) H_mu, to entrywise tolerance tol/4.

    ``parts`` holds one H_mu per coupling column of the schedule.
    Returns the final U, or ``(U_final, [(t, U_t), ...])`` when sample
    times are requested, each t snapped onto [0, duration] (see the
    module docstring).  Only these leave the sector blocks, each as
    V blockdiag(u) V^dagger.  Arithmetic that overflows raises
    FloatingPointError.
    """
    with np.errstate(over="raise", invalid="raise"):
        samples, snapshots = _converged_propagators(h0, parts, schedule, tol, sample_times)
    vb = _sector_basis(h0, tuple(parts))
    dim = vb.shape[1]
    v_dagger = vb.transpose(1, 0, 2).reshape(dim, dim).conj().T

    def full(u):
        # (vb_s u_s) side by side is V blockdiag(u), a dim x dim matrix; U(0) stays exactly the identity
        return np.eye(dim, dtype=complex) if u is None else (vb @ u).transpose(1, 0, 2).reshape(dim, dim) @ v_dagger

    u_at = {t: full(u) for t, u in snapshots.items()}
    if sample_times is None:
        return u_at[schedule.duration]
    return u_at[schedule.duration], [(t, u_at[t]) for t in samples]
