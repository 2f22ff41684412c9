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

A schedule on one coupling ray c (below) may keep a symmetry that the
checks do not use: a cyclic qubit shift q -> q + k (mod n) that maps
H0, sum_mu c_mu H_mu and every check to themselves, such as the
plaquette ring's rotation.  Such a shift keeps every check sector, and
in each sector of the frame basis it is a signed permutation S_s, exact
once rounded to its entries 0, +-1, +-i; it is taken only when S_s
commutes exactly (entry for entry) with the sector blocks of -i H0 and
-i sum_mu c_mu H_mu.  Then the Fourier vectors of S_s's orbits split
each sector into momentum sub-blocks, which `_momentum_bins` packs
first fit into equal bins: the ring's two 8x8 sectors (sub-blocks 4, 1,
2, 1 and 2, 2, 2, 2) become four 4x4 bins.  The split is exact: S_s
commutes with the generator at every time, so U keeps the sub-blocks,
and the dropped entries between them are rounding of the basis change.
Step doubling, its comparison and the unitarity check run on the bins,
the spectral norm being the same in any unitary basis; the knot norms,
and so the step counts, still come from the sector blocks.  The
converged bins are taken back to the sector blocks, T blockdiag(u) T^H
per sector, at every boundary at once.  No split is made off the ray,
when no shift keeps the pair and each check (the chain, whose
translation permutes check sectors, or a check-breaking static part),
when the frame basis is refused, or when a sub-block fills a sector;
the integration then runs on the sector blocks, as it would without the
bins.

Propagation uses the eighth-order Magnus integrator (Blanes, Casas,
Oteo & Ros, Phys. Rep. 470 (2009), arXiv:0810.5488; Iserles & Norsett,
Phil. Trans. R. Soc. A 357 (1999)) on the whole propagator.  H(t) is
linear on each smooth piece of the schedule, so the exponent's terms are
fixed combinations of the 33 words of a generator pair (X, Y): X, Y and
the nested commutators [x1, [x2, ... [X, Y]]] to depth 4, weighted by
monomials in three scalars.  When every knot's couplings lie on one ray
c, every piece's pair is the model's (P, Q) = (-i H0, -i sum_mu c_mu
H_mu), whose words are formed once per (H0, parts, c) and cached; any
other piece's pair is its own generator and slope, whose words it forms.
Either way a propagator's terms are one product of its coefficients with
the words (`_rows`).  Each pass only weights the terms with scalars: a
step's exponent is a polynomial in the step's centre time.  They are
formed in the piece's own time (t - t_k) / dt_k, where they stay finite
however short the piece.  Each step exponential is a truncated Taylor
series with scaling and squaring, evaluated with matrix products only
(Paterson & Stockmeyer, SIAM J. Comput. 2 (1973), every block sum in one
product), per batch at the fewest squarings that bring its norm under
the top degree's theta and the lowest degree whose theta covers the
scaled norm, so the truncation error is below unit roundoff (after
Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31 (2009)).  Steps run on
the real form [[Re A, -Im A], [Im A, Re A]] of each complex sector block
or bin A, which respects sums, real scalings and products; numpy
multiplies 8x8 blocks about twice as fast in it (the gain shrinks with
size and is gone at 16x16).  U comes back complex.  Steps are processed
in batches of bounded size and multiplied in a fixed pairwise tree
order, so results are deterministic for identical inputs and peak memory
does not grow with the step count.  Each batch's exponentials are
written into one reused workspace per thread.

Step size is controlled by step doubling.  The first pass takes the
coarsest step duration / 2^k whose norm h max ||A||_1 is at most
theta(tol) = min(2, 32 tol^(1/8)), with ||A||_1 the real-form 1-norm of
A = -iH at the knots, where the affine A peaks: the exponent 1/8 is the
order (Hairer, Norsett & Wanner, Solving ODEs I, II.4), 32 starts about
one halving above the step accepted below, and the cap keeps every pass
inside the Magnus convergence bound h ||A|| < pi.  The run is then
repeated at half the step until the finer run's estimated error is at
most tol/4 in spectral norm, in every sector block (or bin) at any boundary, and
the finer run is returned.  Halving divides an eighth-order error by 2^8,
so that error is about the change from the coarser run over 255
(Richardson); the estimate is the change over F = 64, a 4x margin.  The
spectral norm of U's change is the same in every basis, and it bounds
every entry, so each entry of U is held to tol/4.  The CLI's ``evolve``
and ``sweep`` pass their ``--tol`` here.  A run that would exceed a fixed
total step budget raises ConvergenceError before the pass starts, and a
final propagator with a block (or bin) u_s whose ||u_s^dagger u_s - I||_F exceeds
1e-10 raises NumericalCheckError.  Integration is split at the schedule's
knots and at requested sample times, which keeps the scheme at full
order on each smooth piece.  A sample time up to 1e-12 before 0, or up to
1e-12 (1 + duration) after the duration, is snapped onto that end of the
schedule and returned at it; one farther outside raises ValueError.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import itertools
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
# in-repo run (a tau = 80 rampdown at tol 1e-10, in the tests) takes 3584, 73x under it
_MAX_STEPS = 1 << 18
# F: the finer pass's error is estimated as its change over F, a 4x margin on Richardson's 2^8 - 1 = 255
_SAFETY = 64.0
# real entries per batched array, independent of the step count: 64 steps of the four
# 8x8 real forms of the ring's 4x4 momentum bins, 128 KB per array, so that a batch's Taylor
# workspace (nine arrays) stays in cache. With 1 MB arrays the sweep grid's nine
# propagators ran 10 to 40% slower (2-core VM, three interleaved runs), with no
# page faults at either size once the workspace is reused
_BATCH_ENTRIES = 1 << 14
_UNIT_ROUNDOFF = 2.0**-53
# the top Taylor degree: `_taylor_plan` takes the products of the cheapest plan of degree <= 18 at every norm
_MAX_TAYLOR_DEGREE = 15
_UNITARITY_ATOL = 1e-10
# the power of h and the degree in t of each row of `_rows`
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


_THETAS = [_admissible_theta(m) for m in range(1, _MAX_TAYLOR_DEGREE + 1)]  # ascending
_TOP_MANTISSA, _TOP_EXPONENT = math.frexp(_THETAS[-1])


def _taylor_plan(norm: float) -> tuple[int, int]:
    """The Taylor (degree m, squarings s) whose truncation error at this 1-norm is below 2^-53.

    s is the fewest squarings with norm / 2^s at most the top degree's
    theta, read off the binary exponents; m is the lowest degree whose
    theta covers norm / 2^s.
    """
    mantissa, exponent = math.frexp(norm)
    s = max(0, exponent - _TOP_EXPONENT + (mantissa > _TOP_MANTISSA))
    return bisect.bisect_left(_THETAS, math.ldexp(norm, -s)) + 1, s


# Paterson-Stockmeyer coefficients of each degree m as (m // p + 1, p) rows: row j holds 1/(jp + i)!, 0 past m
_PS_ROWS = {
    m: np.array([1.0 / math.factorial(i) if i <= m else 0.0 for i in range((m // p + 1) * p)]).reshape(-1, p)
    for m, p in ((m, math.isqrt(m - 1) + 1) for m in range(1, _MAX_TAYLOR_DEGREE + 1))
}
# arrays of one `_expm_taylor` workspace: the powers A^0..A^p and the block sums B_0..B_(m // p)
_TAYLOR_SLOTS = max(rows.shape[0] + rows.shape[1] + 1 for rows in _PS_ROWS.values())


@functools.lru_cache(maxsize=1)
def _taylor_workspace(shape: tuple[int, ...], thread: int) -> np.ndarray:
    """A float64 `_expm_taylor` workspace for stacks of up to ``shape``, one per thread.

    The integrator's batches reuse it, so its hot loop allocates no
    batch-sized array whose page faults would depend on the heap's state.
    """
    return np.empty((_TAYLOR_SLOTS, *shape))


def _expm_taylor(a: np.ndarray, work: np.ndarray) -> np.ndarray:
    """exp(A) for a stack of square matrices, by matrix products only.

    The degree m and squarings s are `_taylor_plan`'s at the stack's
    largest 1-norm (one product of a ones vector with |A|).  The
    series of A / 2^s is evaluated by Paterson-Stockmeyer: every block
    sum B_j = sum_(i<p) c_(jp+i) A^i in one product of m's `_PS_ROWS`
    with A^0..A^(p-1), then Horner in A^p, then s squarings.  ``work``
    is a (_TAYLOR_SLOTS, *a.shape) array of a's dtype, each slot
    contiguous, that every product is written into, and the result is a
    view of it.
    """
    norm = float((np.ones(a.shape[-1]) @ np.abs(a, out=work[-1].real)).max(initial=0.0))
    if not math.isfinite(norm):
        raise NumericalCheckError("step generator is not finite")
    m, s = _taylor_plan(norm)
    rows = _PS_ROWS[m]
    top, p = rows.shape[0] - 1, rows.shape[1]
    powers, sums = work[: p + 1], work[p + 1 : p + 2 + top]
    powers[0] = np.eye(a.shape[-1])
    np.multiply(a, math.ldexp(1.0, -s), out=powers[1])
    for i in range(2, p + 1):
        np.matmul(powers[i - 1], powers[1], out=powers[i])
    np.matmul(rows, powers[:p].reshape(p, -1), out=sums.reshape(top + 1, -1))
    # A^0 is spent, so its slot takes the products
    acc, tmp = sums[top], powers[0]
    for j in range(top - 1, -1, -1):
        np.matmul(acc, powers[p], out=tmp)
        acc = sums[j]
        acc += tmp
    for _ in range(s):
        np.matmul(acc, acc, out=tmp)
        acc, tmp = tmp, acc
    return acc


def _real_form(a: np.ndarray) -> np.ndarray:
    """[[Re A, -Im A], [Im A, Re A]]: the real 2d x 2d form of each complex d x d A."""
    d = a.shape[-1]
    out = np.empty((*a.shape[:-2], 2 * d, 2 * d))
    out[..., :d, :d] = out[..., d:, d:] = a.real
    out[..., d:, :d] = a.imag
    np.negative(a.imag, out=out[..., :d, d:])
    return out


def _words(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The 33 words of a generator pair: X, Y and the 31 nested brackets [x1, [x2, ... [X, Y]]].

    Each x_i is X or Y, and a bracket nests at most four letters around
    [X, Y], in the order of `_BRACKET_LETTERS`.  For x and y of shape
    (pieces, ..., d, d) returns (pieces, 33, ..., d, d); each depth's
    brackets are formed together, so the words cost 62 products.
    """
    x, y = x[:, None], y[:, None]
    words = np.empty((x.shape[0], 33, *x.shape[2:]), dtype=np.result_type(x, y))
    words[:, :1], words[:, 1:2], words[:, 2:3] = x, y, x @ y - y @ x
    # the n = 2^k brackets of depth k sit at n + 1 .. 2n; [X, w] for each of them follows, then [Y, w]
    for n in (1, 2, 4, 8):
        level = words[:, n + 1 : 2 * n + 1]
        words[:, 2 * n + 1 : 3 * n + 1] = x @ level - level @ x
        words[:, 3 * n + 1 : 4 * n + 1] = y @ level - level @ y
    return words


# the letters x1..xk of each bracket word after X and Y, outermost first, as `_words` stacks them
_BRACKET_LETTERS = [w for k in range(5) for w in itertools.product("XY", repeat=k)]
# Blanes et al.'s eighth-order brackets past alpha1 as (power of h, weight, letters around D): A is
# alpha1 = h A(t) and B is b = h^2 a1, so "BAA" is [b, [alpha1, [alpha1, D]]] (see `_rows`)
_MAGNUS_BRACKETS = (
    (3, -1 / 12, ""), (5, 1 / 720, "AA"), (5, -1 / 240, "B"),
    (7, -1 / 30240, "AAAA"), (7, 1 / 7560, "BAA"), (7, -1 / 30240, "ABA"), (7, -1 / 6720, "BB"),
)


def _word_rule() -> tuple[np.ndarray, np.ndarray]:
    """Weights (11, 33) and powers (3, 11, 33) of `_rows`' rows over the `_words` of (X, Y).

    On a piece with a0 = g_X X + g_Y Y and a1 = d_Y Y, each letter A of
    a bracket is X with g_X, or Y with g_Y, or Y with d_Y and one more
    power of t, and each letter B is Y with d_Y; D is g_X d_Y [X, Y].  A
    word with p X-letters and q Y-letters in A's places thus takes, at
    t^j, weight C(q, j) times g_X^(p+1) g_Y^(q-j) d_Y^(j+1+n_B).  Row r,
    word w is weights[r, w] g_X^powers[0, r, w] g_Y^powers[1, r, w]
    d_Y^powers[2, r, w]: brackets that share a row and a word share
    their letter counts, so one monomial serves each entry.
    """
    row = {(w, j): r for r, (w, j) in enumerate(zip(_TERM_H_POWERS.tolist(), _TERM_T_DEGREES.tolist()))}
    index = {letters: w for w, letters in enumerate(_BRACKET_LETTERS, start=2)}
    # (row, word, weight, powers): a0 = g_X X + g_Y Y and a1 = d_Y Y
    entries = [(0, 0, 1.0, (1, 0, 0)), (0, 1, 1.0, (0, 1, 0)), (1, 1, 1.0, (0, 0, 1))]
    for h, weight, pattern in _MAGNUS_BRACKETS:
        n_b = pattern.count("B")
        for letters in itertools.product(*("XY" if a == "A" else "Y" for a in pattern)):
            p = letters.count("X")
            q = len(pattern) - n_b - p
            for j in range(q + 1):
                entries.append((row[h, j], index[letters], weight * math.comb(q, j), (p + 1, q - j, j + 1 + n_b)))
    rows, words, values, monomials = zip(*entries)
    weights, powers = np.zeros((11, 33)), np.zeros((3, 11, 33), dtype=int)
    np.add.at(weights, (rows, words), values)
    powers[:, rows, words] = np.array(monomials).T
    return weights, powers


_WORD_WEIGHTS, _WORD_POWERS = _word_rule()
_EXPONENTS = np.arange(_WORD_POWERS.max() + 1)


def _rows(words: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Matrix coefficients of the eighth-order Magnus exponent on linear pieces, from the `_words` of (X, Y).

    On a piece A(t) = -iH(t) = a0 + t a1 (t from the piece's start), a
    step of length h centred at t has alpha1 = h A(t), b = h^2 a1 and
    D = [alpha1, b] = h^3 [a0, a1].  Its exponent (Blanes et al. 2009,
    eighth order; alpha3 = alpha4 = 0 on a linear piece) is

        alpha1 - D/12 + [alpha1, [alpha1, D]]/720 - [b, D]/240
        - [alpha1, [alpha1, [alpha1, [alpha1, D]]]]/30240
        - [alpha1, [b, [alpha1, D]]]/30240 + [b, [alpha1, [alpha1, D]]]/7560
        - [b, [b, D]]/6720,

    a sum of h^w times polynomials in t whose coefficients are nested
    brackets of a0 and a1: row r is the t^_TERM_T_DEGREES[r] coefficient
    of the h^_TERM_H_POWERS[r] term.  For ``words`` (pieces or 1, 33, ...)
    and pieces a0 = g_X X + g_Y Y, a1 = d_Y Y, with (g_X, g_Y, d_Y) in
    ``g`` (pieces or 1, 3), returns (pieces, 11, ...) in one product of
    the coefficients with the words; a piece's own pair is (1, 0, 1).
    """
    # each of g's powers 0..5 once, read at every entry's exponents
    gx, gy, dy = (g[:, i, None] ** _EXPONENTS for i in range(3))
    coefs = _WORD_WEIGHTS * gx[:, _WORD_POWERS[0]] * gy[:, _WORD_POWERS[1]] * dy[:, _WORD_POWERS[2]]
    # complex words as their (Re, Im) floats: the coefficients are real, so one real product takes them
    rows = (coefs @ words.reshape(*words.shape[:2], -1).view(np.float64)).view(words.dtype)
    return rows.reshape(*rows.shape[:2], *words.shape[2:])


def _step_exponents(terms: np.ndarray, h: float, t: np.ndarray) -> np.ndarray:
    """Exponents of steps of length h centred at times ``t`` of one piece.

    ``terms`` are that piece's (11, ...) `_rows`, and ``t`` is measured
    from the piece's start: the exponent of the step at t is
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
    """The coarsest duration / 2^k whose step norm h * norm is at most theta(tol) = min(2, 32 tol^(1/8)).

    Halving stops once the pass would exceed the step budget, which then refuses it.
    """
    theta = min(2.0, 32.0 * tol**0.125)
    h = duration
    while h * norm > theta and h * _MAX_STEPS >= duration:
        h *= 0.5
    return h


def _integrate(terms: np.ndarray, kinks: list[float], boundaries: list[float], counts: list[int]) -> list[np.ndarray]:
    """Magnus sweep over each smooth segment, ``counts`` steps each.

    ``terms`` are the real forms of the per-piece `_rows` in the
    piece's own time sigma = (t - t_k) / dt_k; returns the real forms of
    U's (n_blocks, d, d) blocks at every boundary after the first.  Step s
    of a segment that starts at t0, at step h, is centred c + s h into its
    piece, with c = t0 + h/2 - t_k, all formed once per segment and divided
    by dt_k; each batch's exponents are one `_step_exponents` product.
    """
    shape = terms.shape[2:]
    batch = max(1, _BATCH_ENTRIES // math.prod(shape))
    work = _taylor_workspace((batch, *shape), threading.get_ident())
    u = np.broadcast_to(np.eye(shape[-1]), shape)
    snapshots = []
    for t0, t1, n_steps in zip(boundaries, boundaries[1:], counts):
        p = bisect.bisect_right(kinks, t0) - 1
        dt = kinks[p + 1] - kinks[p]
        h = (t1 - t0) / n_steps
        centres = (t0 - kinks[p] + 0.5 * h + np.arange(n_steps) * h) / dt
        for done in range(0, n_steps, batch):
            t = centres[done : done + batch]
            u = _ordered_product(_expm_taylor(_step_exponents(terms[p], h / dt, t), work[:, : len(t)])) @ u
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


def _gather(x: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Entries ``index`` of x's flattened last three axes, for each leading index; one past their end reads 0."""
    lead = x.shape[:-3]
    return np.concatenate([x.reshape(*lead, -1), np.zeros((*lead, 1), x.dtype)], axis=-1)[..., index]


@dataclass(frozen=True)
class _Bins:
    """Equal momentum bins of the (n_sectors, d, d) check-sector blocks, and the maps between them.

    ``basis`` holds each sector's unitary T_s, whose columns are the
    Fourier vectors of the sector's momentum sub-blocks, one sub-block
    after another.  ``into`` (n_bins, b, b) indexes each bin entry in
    the flattened T^H X T, and ``back`` (n_sectors, d, d) each entry of
    the momentum-basis blocks in the flattened bins; a bin's padding and
    the entries between sub-blocks read 0.
    """

    basis: np.ndarray
    into: np.ndarray
    back: np.ndarray

    def pack(self, x: np.ndarray) -> np.ndarray:
        """The bins (..., n_bins, b, b) of sector blocks (..., n_sectors, d, d): the sub-blocks of T^H x T."""
        return _gather(self.basis.conj().swapaxes(-1, -2) @ x @ self.basis, self.into)

    def unpack(self, u: np.ndarray) -> np.ndarray:
        """The sector blocks T blockdiag(u) T^H of bins (..., n_bins, b, b): one gather, two batched products."""
        return self.basis @ _gather(u, self.back) @ self.basis.conj().swapaxes(-1, -2)


def _shifted(mask: int, n: int, k: int) -> int:
    """Bit q of ``mask`` moved to bit (q + k) mod n: a string's qubit shift by k."""
    return sum(((mask >> q) & 1) << ((q + k) % n) for q in range(n))


def _momentum_bins(h0: OperatorSum, parts, checks, pair: np.ndarray):
    """`_Bins` of the pair's sector blocks (2, n_sectors, d, d) under a qubit shift that keeps them, or None.

    A shift q -> q + k (mod n) that keeps every check keeps every check
    sector, and in sector s of the frame basis vb it is the signed
    permutation S_s = vb_s^dagger vb_s[shifted rows], whose entries are
    0, +-1 or +-i up to vb's normalization and are rounded to them.  The
    shift is taken, among those of highest order L, only when S_s
    commutes exactly with both blocks of the pair in every sector.  Each
    orbit i_0 -> ... -> i_(m-1) -> i_0 of S_s, with S_s^j e_(i_0) =
    sigma_j e_(i_j) and closing sign phi, gives one Fourier vector of
    each momentum p with w^(pm) = phi, w = exp(2 pi i / L): the column
    (1/L) sum_j w^(-jp) S_s^j e_(i_0) of S_s's eigenprojector, normalized,
    sum_(j<m) w^(-jp) sigma_j e_(i_j) / sqrt(m).  The sub-blocks, one
    per sector and momentum, are packed first fit, in sector and
    momentum order, into bins as wide as the widest.  No split (None)
    when no shift keeps the checks and the pair, when the frame basis is
    refused, or when some sub-block is a whole sector.
    """
    n, (n_sectors, d) = h0.n_qubits, pair.shape[1:3]
    for k in sorted(range(1, n), key=lambda k: math.gcd(n, k)):
        if any(_shifted(c.x, n, k) != c.x or _shifted(c.z, n, k) != c.z for c in checks):
            continue
        try:
            vb = _sector_basis(h0, parts)
        except ValueError:
            return None
        # the shift applied to each column of vb: its row r is row r shifted by -k
        qubits = np.arange(n)
        s = vb.conj().swapaxes(-1, -2) @ vb[:, ((np.arange(1 << n)[:, None] >> qubits) & 1) @ (1 << (qubits - k) % n)]
        exact = np.round(s.real) + 1j * np.round(s.imag)
        if (
            np.abs(s - exact).max() <= 1e-12
            and (np.abs(exact).sum(axis=-2) == 1.0).all()
            and np.array_equal(exact @ pair, pair @ exact)
        ):
            break
    else:
        return None
    order = n // math.gcd(n, k)
    # w^t, exact where it is a power of i, as every closing sign phi is: the orbits match it by equality
    roots = [1j ** (4 * t // order) if 4 * t % order == 0 else cmath.exp(2j * math.pi * t / order)
             for t in range(order)]
    # the width of each sub-block, sector by sector, and the columns of every T_s
    sizes, columns = [], []
    for perm, image in zip(exact.tolist(), np.abs(exact).argmax(axis=-2).tolist()):
        spaces, seen = [[] for _ in range(order)], set()
        for i0 in range(d):
            if i0 in seen:
                continue
            orbit, sigma = [i0], [1.0]
            while (i := image[orbit[-1]]) != i0:
                sigma.append(sigma[-1] * perm[i][orbit[-1]])
                orbit.append(i)
            phi, m = sigma[-1] * perm[i0][orbit[-1]], len(orbit)
            seen.update(orbit)
            for p in range(order):
                if roots[p * m % order] == phi:
                    v = [0j] * d
                    for j, (i, sg) in enumerate(zip(orbit, sigma)):
                        v[i] = roots[-j * p % order] * sg / math.sqrt(m)
                    spaces[p].append(v)
        for vectors in filter(None, spaces):
            sizes.append(len(vectors))
            columns.extend(vectors)
    width = max(sizes)
    if width == d:
        return None
    # first fit; every column of the T_s gets its sub-block, and its bin times width plus its place there
    fill, sub, place = [], [], []
    for i, size in enumerate(sizes):
        b = next((b for b, used in enumerate(fill) if used + size <= width), len(fill))
        fill += [0] * (b == len(fill))
        sub += [i] * size
        place += range(b * width + fill[b], b * width + fill[b] + size)
        fill[b] += size
    sub = np.reshape(sub, (n_sectors, d))
    bin_of, slot = np.divmod(np.reshape(place, (n_sectors, d)), width)
    zero = len(fill) * width * width
    flat = (bin_of * width + slot)[:, :, None] * width + slot[:, None, :]
    back = np.where(sub[:, :, None] == sub[:, None, :], flat, zero)
    into = np.full(zero + 1, n_sectors * d * d)
    into[back.ravel()] = np.arange(back.size)
    basis = np.array(columns).reshape(n_sectors, d, d).swapaxes(-1, -2)
    bins = _Bins(basis, into[:-1].reshape(len(fill), width, width), back)
    for array in (bins.basis, bins.into, bins.back):
        array.flags.writeable = False
    return bins


@functools.lru_cache(maxsize=16)
def _word_table(h0: OperatorSum, parts: tuple[OperatorSum, ...], ray: tuple[float, ...]):
    """``(bins, words)``: the `_momentum_bins` of (P, Q), or None, and their read-only complex `_words`.

    P = -i H0 and Q = -i sum_mu c_mu H_mu on `_sector_blocks`, for the
    coupling ray c; the words, (1, 33, n_bins, b, b) or (1, 33,
    n_sectors, d, d), are formed on the bins when there are any.  Built
    once per (h0, parts, ray).  Every piece whose couplings stay on that
    ray takes its Magnus rows from these words (`_rows`).
    """
    checks, blocks = _sector_blocks(h0, parts)
    pair = -1j * np.stack([blocks[0], np.tensordot(ray, blocks[1:], axes=1)])
    bins = _momentum_bins(h0, parts, checks, pair)
    if bins is not None:
        pair = bins.pack(pair)
    words = _words(pair[:1], pair[1:])
    words.flags.writeable = False
    return bins, words


def _ray(lam: np.ndarray):
    """(c, s) with every knot's couplings lam[k] exactly s_k c and max(c) = 1, or None if no ray holds them all."""
    s = lam.max(axis=1)
    if not s.any():
        return None
    c = lam[s.argmax()] / s.max()
    return (c, s) if np.array_equal(s[:, None] * c, lam) else None


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
    """Step-doubled Magnus until each sector block's change over F = `_SAFETY` is at most tol/4 in spectral norm.

    Integration, comparison and the unitarity check all run in the
    sector blocks of the checks conserved by H0 and the parts, or in
    their momentum bins (`_word_table`), which are taken back to the
    sector blocks at the end.  Returns
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
    kinks = list(schedule.times)
    boundaries = sorted({*kinks, *samples})
    wanted = [*samples, duration]
    if duration == 0.0:
        return samples, dict.fromkeys(wanted)
    lam = np.array(schedule.couplings)
    knots = _affine(blocks, lam)
    # the real-form 1-norm of A at the knots is that of H there: sum_i |Re H_ij| + |Im H_ij|
    norm = float((np.abs(knots.real) + np.abs(knots.imag)).sum(axis=-2).max())

    h = _start_step(duration, norm, tol)
    spent = 0
    prev = bins = None
    while True:
        counts = _step_counts(boundaries, h)
        spent += sum(counts)
        if spent > _MAX_STEPS:
            raise ConvergenceError(f"step-doubling did not reach tolerance within {_MAX_STEPS} steps")
        if prev is None:
            # dU/dsigma = dt A in each piece's own time sigma, whose brackets stay finite however short the piece;
            # formed once the first pass is within the budget, which refuses a generator too large for them
            dt = np.diff(kinks)
            on_ray = _ray(lam)
            if on_ray is None:
                # each piece's own pair (X, Y): dt A at its start and dt^2 dA/dt
                rise = np.tensordot(np.diff(lam, axis=0), blocks[1:], axes=1)
                words = _words(*(-1j * dt[:, None, None, None] * np.stack([knots[:-1], rise])))
                g = np.array([[1.0, 0.0, 1.0]])
            else:
                # A = dt (P + s_k Q) + sigma dt (s_(k+1) - s_k) Q on piece k, from the model's cached words
                c, s = on_ray
                bins, words = _word_table(h0, tuple(parts), tuple(c.tolist()))
                g = np.stack([dt, dt * s[:-1], dt * np.diff(s)], axis=1)
            terms = _real_form(_rows(words, g))
        # complex blocks (or bins) at every boundary after the first, where U(0) is the identity in every pass
        r = np.array(_integrate(terms, kinks, boundaries, counts))
        d = r.shape[-1] // 2
        cur = r[..., :d, :d] + 1j * r[..., d:, :d]
        # the largest singular value of the block differences is U's change in any basis; it bounds every entry
        if prev is not None and _spectral_norms_within(cur - prev, _SAFETY * 0.25 * tol):
            break
        prev = cur
        h *= 0.5
    u = cur[-1]
    defect = float(np.linalg.norm(u.conj().transpose(0, 2, 1) @ u - np.eye(d), axis=(1, 2)).max())
    if defect > _UNITARITY_ATOL:
        raise NumericalCheckError(f"propagator is not unitary (defect {defect:.3e})")
    if bins is not None:
        cur = bins.unpack(cur)
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
