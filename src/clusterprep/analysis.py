"""Sector-resolved spectra, error-channel tomography, and temperature
thresholds for the four-spin plaquette pipeline.

The plaquette's final state is decomposed in the sixteen flip/parity
readout states ``(|e> + s|~e>)/sqrt(2)`` (labelled (e, s) in `_LABELS`),
which flip the spins of pattern e in ``(|0000> +- |1111>)/sqrt(2)``.  Flip
patterns that differ by the full complement are the same physical error
class (the all-spin flip is the conserved check), leaving eight classes
across two check sectors.  Class weights map onto an error channel of
single and correlated phase flips on the four logical neighbors of the
plaquette; the channel's headline figure is the weighted total
phase-flip error used for fault-tolerance budgeting.

The cooled state is a Boltzmann mixture of the eigenstates at the
initial coupling, and every basis weight is linear in the state.  So
each (lambda0, tau) pipeline is read out once: the weight of every
evolved eigenstate on every basis state, and its error, are cached, and
the report or the error at any temperature is a weighted sum of them.
The levels and eigenstates at the initial coupling, like the spectra,
come from the propagator's cached sector blocks (`evolve._sector_blocks`),
diagonalized at lambda0; the frame's basis (`evolve._sector_basis`) takes
the eigenvectors back, so a readout builds no operator of its own.
`run_point` and `threshold_temperature` read from that cache, with or
without a ramp, and `rampdown_series` reads each sample time of one ramp
the same way.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import ConvergenceError, NumericalCheckError
from .evolve import Schedule, _affine, _sector_basis, _sector_blocks, linear_rampdown, schedule_unitary
from .models import (
    build_chain_1d,
    plaquette_field_term,
    plaquette_ring_term,
    stabilizer_3d_local,
    stabilizers_1d,
)
from .pauli import OperatorSum, check_blocks
from .thermal import thermal_weights

__all__ = [
    "CLASS_REPS",
    "CLASS_LABELS",
    "ErrorChannelReport",
    "ThresholdBracketError",
    "NumericalCheckError",
    "SectorSpectrumTable",
    "plaquette_parts",
    "total_phase_flip_error",
    "spectrum_scan",
    "spectrum_path",
    "run_point",
    "rampdown_series",
    "threshold_temperature",
    "chain_sector_gap",
]

# Flip-pattern class representatives (4-bit masks, spin mu on bit mu-1),
# each standing for {e, ~e}: identity, four singles, two adjacent pairs
# on the neighbor ring 1-2-3-4, one diagonal pair.
CLASS_REPS = (0, 1, 2, 4, 7, 3, 6, 5)
CLASS_LABELS = {
    0: "none",
    1: "z1",
    2: "z2",
    4: "z3",
    7: "z4",
    3: "zz_adjacent_12",
    6: "zz_adjacent_23",
    5: "zz_diagonal_13",
}
_SINGLE_REPS = (1, 2, 4, 7)
_ADJACENT_REPS = (3, 6)
_DIAGONAL_REP = 5
_THRESHOLD_ERROR_TOL = 1e-4  # largest |error - target| accepted at a bisected threshold


class ThresholdBracketError(ValueError):
    """The error stays below target across the bracket (threshold above it)."""


def _class_rep(e: int) -> int:
    return min(e & 0xF, (~e) & 0xF)


# the classes one more single flip away from each class rep, spin 1 to 4
_NEIGHBOURS = {rep: tuple(_class_rep(rep ^ (1 << mu)) for mu in range(4)) for rep in CLASS_REPS}


# the sixteen readout states (|e> + s|~e>)/sqrt(2), one per (class rep e, sector s), + sector first
_LABELS = tuple((rep, sector) for rep in CLASS_REPS for sector in (1, -1))
# their read-only rows <b_i| in _LABELS order: real, stored complex so that W is one complex product
_READOUT_ROWS = np.zeros((16, 16), dtype=complex)
_READOUT_ROWS[range(16), [rep for rep, _ in _LABELS]] = 1.0 / math.sqrt(2.0)
_READOUT_ROWS[range(16), [~rep & 0xF for rep, _ in _LABELS]] = [sector / math.sqrt(2.0) for _, sector in _LABELS]
_READOUT_ROWS.flags.writeable = False


@dataclass(frozen=True)
class ErrorChannelReport:
    """Error-channel weights extracted from one plaquette state.

    ``raw`` holds the sixteen basis weights keyed by (class rep, sector)
    before the minus-sector reassignment; ``class_probs`` holds the eight
    per-class weights after minus-sector weight is reassigned to the
    class with one extra single flip (spread uniformly over the four
    neighbors).  fidelity + 4 p_z + 2 p_c1 + p_c2 telescopes to 1.

    The classes name spins 1..4 (qubits 0..3) as labelled, whatever the
    static part: ``p_c1`` counts flips of the ring 1-2-3-4-1's adjacent
    pairs and ``p_c2`` of its opposite pair 1-3, so a relabelled ring reads other values.
    """

    fidelity: float
    p_z: float
    p_c1: float
    p_c2: float
    e_zeta: float
    w_minus: float
    class_probs: dict[int, float]
    raw: dict[tuple[int, int], float]


def total_phase_flip_error(p_z: float, p_c1: float, p_c2: float) -> float:
    """Weighted total phase-flip error of the extracted channel."""
    return p_z + 4.0 * p_c1 + 2.0 * p_c2


def _channel_report(weights: np.ndarray) -> ErrorChannelReport:
    """The error channel of the sixteen readout weights, in `_LABELS` order."""
    raw = {label: float(w) for label, w in zip(_LABELS, weights)}
    class_probs = {rep: raw[(rep, 1)] for rep in CLASS_REPS}
    for rep in CLASS_REPS:
        spill = raw[(rep, -1)] / 4.0
        for neighbour in _NEIGHBOURS[rep]:
            class_probs[neighbour] += spill
    p_z = sum(class_probs[r] for r in _SINGLE_REPS) / 4.0
    p_c1 = sum(class_probs[r] for r in _ADJACENT_REPS) / 2.0
    p_c2 = class_probs[_DIAGONAL_REP]
    w_minus = sum(raw[(rep, -1)] for rep in CLASS_REPS)
    # every value is a Python float already: raw's are, and the rest are sums of them
    e_zeta = total_phase_flip_error(p_z, p_c1, p_c2)
    return ErrorChannelReport(class_probs[0], p_z, p_c1, p_c2, e_zeta, w_minus, class_probs, raw)


@dataclass(frozen=True)
class SectorSpectrumTable:
    """Spectra along a coupling grid or schedule, with check-sector labels.

    ``gap_sector`` is the gap between the two lowest +1-sector levels at
    each grid point; ``gap_global`` ignores sectors.
    """

    axis_name: str
    axis: np.ndarray
    energies: np.ndarray
    sectors: np.ndarray
    gap_global: np.ndarray
    gap_sector: np.ndarray
    couplings: Optional[np.ndarray] = None

    @property
    def n_points(self) -> int:
        return self.axis.shape[0]

    @property
    def n_levels(self) -> int:
        return self.energies.shape[1]

    def min_gap_sector(self) -> float:
        return float(self.gap_sector.min())


@functools.lru_cache(maxsize=64)
def plaquette_parts(h0: Optional[OperatorSum] = None) -> tuple[OperatorSum, tuple[OperatorSum, ...]]:
    """The plaquette as H0 + sum_mu lam_mu H_mu: ``(h0, parts)``, with the four unit fields -X_mu as parts.

    H0 is the static part ``h0``, or the ZZ ring of unit bond strength
    for None.  The bond strength is only the unit: a ring of strength c
    with c lambda0, tau / c and c T reads out the same weights.  An
    ``h0`` that is not an OperatorSum on four qubits raises ValueError.
    Cached: equal arguments return the same immutable operators.
    """
    if h0 is None:
        h0 = plaquette_ring_term(1.0)
    elif not isinstance(h0, OperatorSum) or h0.n_qubits != 4:
        raise ValueError("replacement static part must act on four spins")
    return h0, tuple(plaquette_field_term(e) for e in np.eye(4))


def _plaquette_spectra(
    couplings: np.ndarray, h0: Optional[OperatorSum]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Levels, sector labels and gaps at each row of per-spin couplings.

    The propagator's cached sector blocks (`evolve._sector_blocks`) are
    each labeled by the sign that the XXXX check takes on them; an
    ``h0`` on whose blocks XXXX is not a sign raises ValueError.  Every
    block of every row is diagonalized in one batched ``eigvalsh``, the
    - sector's blocks first, and each row's levels are merged by energy,
    the - sector first on exact ties.
    """
    if np.any(couplings < 0) or not np.all(np.isfinite(couplings)):
        raise ValueError("couplings must be finite and >= 0")
    checks, blocks = _sector_blocks(*plaquette_parts(h0))
    # the fields X_mu make every conserved check an X string, so XXXX commutes with them all
    xxxx = check_blocks([stabilizer_3d_local()], checks)[0]
    labels = xxxx[:, 0, 0]
    if not np.array_equal(xxxx, labels[:, None, None] * np.eye(xxxx.shape[-1])):
        raise ValueError("Hamiltonian has mixed check sector: XXXX is not a sign on its conserved check sectors")
    by_label = np.argsort(labels, kind="stable")
    with np.errstate(over="raise", invalid="raise"):  # an overflowing coupling product is a numerical failure
        values = np.linalg.eigvalsh(_affine(blocks[:, by_label], couplings)).reshape(couplings.shape[0], -1)
        if not np.isfinite(values).all():
            raise FloatingPointError("plaquette spectrum is not finite")
        order = np.argsort(values, axis=1, kind="stable")
        energies = np.take_along_axis(values, order, axis=1)
        sectors = np.repeat(labels[by_label].astype(int), blocks.shape[-1])[order]
        plus = energies[sectors == 1].reshape(couplings.shape[0], -1)
        return energies, sectors, energies[:, 1] - energies[:, 0], plus[:, 1] - plus[:, 0]


def spectrum_scan(lambda_grid, h0: Optional[OperatorSum] = None) -> SectorSpectrumTable:
    """Plaquette spectra over a grid of uniform coupling strengths (``h0`` as in `plaquette_parts`)."""
    grid = np.asarray(list(lambda_grid), dtype=float)
    if grid.size == 0:
        raise ValueError("empty coupling grid")
    spectra = _plaquette_spectra(np.repeat(grid[:, None], 4, axis=1), h0)
    return SectorSpectrumTable("lambda", grid, *spectra)


def spectrum_path(schedule: Schedule, h0: Optional[OperatorSum] = None, samples: int = 201) -> SectorSpectrumTable:
    """Plaquette spectra sampled along a schedule's four coupling columns (``h0`` as in `plaquette_parts`)."""
    if samples < 2:
        raise ValueError("need at least two samples")
    if len(schedule.couplings[0]) != 4:
        raise ValueError("a plaquette path needs four coupling columns")
    ts = np.linspace(0.0, schedule.duration, samples)
    lams = schedule.coupling_matrix(ts)
    return SectorSpectrumTable("time", ts, *_plaquette_spectra(lams, h0), couplings=lams)


@dataclass(frozen=True)
class _Readout:
    """Error channel of one (lambda0, tau) pipeline at every temperature.

    ``energies`` are the levels at lambda0, ascending, with eigenvectors
    |k>; ``W[i, k] = |<b_i|U|k>|^2`` is the weight that the evolved
    eigenstate U|k> puts on readout state b_i (row i of `_READOUT_ROWS`); ``e[k]`` is the
    total phase-flip error of U|k> alone.  The cooled state is
    sum_k w_k(T) |k><k| (`thermal.thermal_weights`), so its basis weights
    after the ramp are ``W @ w(T)`` and its error is ``e @ w(T)``.
    ``gaps`` is -(E - E0), whose exp at T > 0 gives the weights bit for
    bit as `thermal.thermal_weights` does, without its per-call setup.
    """

    energies: np.ndarray
    W: np.ndarray
    e: np.ndarray
    gaps: np.ndarray

    def report(self, T: float) -> ErrorChannelReport:
        return _channel_report(self.W @ thermal_weights(self.energies, T))

    def e_zeta(self, T):
        """The error at temperature T, or a list of them at each of an ascending array of temperatures."""
        if isinstance(T, np.ndarray):
            # the weights of every T > 0 in one batched exp; each error is one 1-D dot, as for a single T
            with np.errstate(over="ignore"):  # a gap over a tiny T is -inf: exp(-inf) = 0 is its T -> 0+ limit
                w = np.exp(self.gaps / T[T > 0, None])
            w /= w.sum(axis=1, keepdims=True)
            return [self.e_zeta(t) for t in T[T <= 0]] + [float(self.e @ row) for row in w]
        if not T > 0:
            return float(self.e @ thermal_weights(self.energies, T))
        w = np.exp(self.gaps / T)
        return float(self.e @ (w / w.sum()))


@functools.cache
def _basis_errors() -> np.ndarray:
    """Read-only e_zeta of each of the sixteen readout states alone."""
    e = np.array([_channel_report(unit).e_zeta for unit in np.eye(16)])
    e.flags.writeable = False
    return e


def _readout_of(energies: np.ndarray, vectors: np.ndarray, u: Optional[np.ndarray], tol: float) -> _Readout:
    """Read-only readout of eigenstates ``vectors`` evolved by ``u`` (none for ``u=None``).

    W must be doubly stochastic: its rows and columns sum to 1 within
    max(1e-10, 4 tol), which holds when U is unitary (NumericalCheckError
    otherwise).
    """
    if u is not None:
        vectors = u @ vectors
    W = np.abs(_READOUT_ROWS @ vectors) ** 2
    defect = max(np.abs(W.sum(axis=0) - 1.0).max(), np.abs(W.sum(axis=1) - 1.0).max())
    if defect > max(1e-10, 4.0 * tol):
        raise NumericalCheckError(f"evolved state failed its check: readout sums miss 1 by {defect:.3e}")
    e = _basis_errors() @ W
    gaps = -(energies - energies[0])
    for array in (energies, W, e, gaps):
        array.flags.writeable = False
    return _Readout(energies, W, e, gaps)


@functools.lru_cache(maxsize=64)
def _levels(lambda0: float, h0: Optional[OperatorSum]) -> tuple[np.ndarray, np.ndarray]:
    """Read-only levels of the plaquette at uniform coupling lambda0, ascending, and their eigenvectors.

    Read from the propagator's cached check frame: one batched complex
    ``eigh`` of the sector blocks (`evolve._sector_blocks`) of H0 +
    lambda0 sum_mu H_mu, whose eigenvectors the frame's basis
    (`evolve._sector_basis`) takes back to the original basis; levels
    merge by a stable sort.  The readout's weights are squared moduli,
    so the eigenvectors' phases do not matter.  An overflowing or
    non-finite level raises FloatingPointError.  Cached: the rampdowns
    and the no-evolution readout of one lambda0 share them.
    """
    parts = plaquette_parts(h0)
    blocks = _sector_blocks(*parts)[1].astype(complex)
    with np.errstate(over="raise", invalid="raise"):
        values, vectors = np.linalg.eigh(_affine(blocks, np.full(4, lambda0)))
    if not np.isfinite(values).all():
        raise FloatingPointError("plaquette levels are not finite")
    order = np.argsort(values, axis=None, kind="stable")
    vb = _sector_basis(*parts)
    vectors = (vb @ vectors).transpose(1, 0, 2).reshape(vb.shape[1], -1)
    energies, vectors = values.ravel()[order], vectors[:, order]
    energies.flags.writeable = vectors.flags.writeable = False
    return energies, vectors


@functools.lru_cache(maxsize=64)
def _readout(lambda0: float, tau: Optional[float], h0: Optional[OperatorSum], tol: float) -> _Readout:
    """Cached `_readout_of` the rampdown over tau (none for ``tau=None``)."""
    energies, vectors = _levels(lambda0, h0)
    u = None if tau is None else schedule_unitary(*plaquette_parts(h0), linear_rampdown(lambda0, tau), tol)
    return _readout_of(energies, vectors, u, tol)


def run_point(
    T: float, lambda0: float, tau: Optional[float], h0: Optional[OperatorSum] = None, tol: float = 1e-8
) -> ErrorChannelReport:
    """Cool at the initial coupling, ramp it down, read out error classes.

    ``tau=None`` reads out the cooled state with no ramp at all, where
    ``tol`` only sets the readout check's tolerance.  ``h0`` is the
    static part, as in `plaquette_parts`.  The readout of each (lambda0,
    tau, h0, tol) is cached, so other temperatures on the same schedule
    reuse its propagator and eigenpairs.
    """
    return _readout(lambda0, tau, h0, tol).report(T)


def rampdown_series(
    T: float,
    lambda0: float,
    tau: float,
    times,
    h0: Optional[OperatorSum] = None,
    tol: float = 1e-8,
) -> tuple[list[tuple[float, float, float, float, float]], ErrorChannelReport]:
    """`run_point`'s pipeline read out at each sample time of the ramp.

    Returns ``(rows, report)``: one ``(t, lambda, fidelity, w_plus,
    w_minus)`` row per distinct time, ascending, and the final error
    channel.  fidelity is the weight on ``(|0000> + |1111>)/sqrt(2)``,
    and w_plus and w_minus are the check-sector weights.  Each sample
    has its own (uncached) readout and readout check.
    """
    energies, vectors = _levels(lambda0, h0)
    schedule = linear_rampdown(lambda0, tau)
    u_final, snaps = schedule_unitary(*plaquette_parts(h0), schedule, tol, sample_times=times)
    lams = schedule.coupling_matrix([t for t, _ in snaps])[:, 0]
    rows = []
    for (t, u), lam in zip(snaps, lams):
        raw = _readout_of(energies, vectors, u, tol).report(T).raw
        w_plus, w_minus = (sum(raw[(rep, sector)] for rep in CLASS_REPS) for sector in (1, -1))
        rows.append((t, float(lam), raw[(0, 1)], w_plus, w_minus))
    return rows, _readout_of(energies, vectors, u_final, tol).report(T)


@functools.lru_cache(maxsize=64)
def _probe_temperatures(lo: float, hi: float) -> np.ndarray:
    """Read-only nine probes of `threshold_temperature`'s bracket, geometric between its ends."""
    probes = np.geomspace(max(lo, 1e-12), hi, 9)
    probes[0], probes[-1] = lo, hi
    probes.flags.writeable = False
    return probes


def threshold_temperature(
    lambda0: float,
    tau: Optional[float],
    h0: Optional[OperatorSum] = None,
    target: float = 0.03,
    bracket: tuple[float, float] = (1e-3, 3.0),
    tol: float = 1e-8,
) -> Optional[float]:
    """Highest temperature with total phase-flip error at the target.

    ``tau`` and ``h0`` are as in `run_point`.  The error at each
    temperature is read from the cached per-eigenstate errors (see
    `run_point`), so the search integrates at most one propagator.

    Nine probes spread over the bracket settle the search first: it
    returns None when every probe is above the target (the threshold,
    if any, lies below the bracket) and raises ThresholdBracketError
    when every probe is below it.  Otherwise the probes straddle the
    target, and they must be nondecreasing (a dip beyond 1e-6 raises
    NumericalCheckError, since it could move the crossing).  The bracket
    must be finite; the bisection halves it until its stop rule holds,
    and the bisected temperature must reproduce the target error to
    within 1e-4 (ConvergenceError otherwise).
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (0 <= lo < hi < math.inf):
        raise ValueError("bracket must satisfy 0 <= lo < hi, both finite")
    err = _readout(lambda0, tau, h0, tol).e_zeta
    samples = err(_probe_temperatures(lo, hi))
    if min(samples) > target:
        return None
    if max(samples) < target:
        raise ThresholdBracketError("error stays below target across the bracket")
    # flat stretches at low T sit on the diabatic floor; only dips beyond
    # integrator noise count as genuine non-monotonicity
    slack = 1e-6
    for a, b in zip(samples, samples[1:]):
        if b < a - slack:
            raise NumericalCheckError("error is not monotone over the bracket")
    t_lo, t_hi = lo, hi
    for _ in range(1100):  # a finite width (< 2^1024) meets the stop rule (>= 1e-9 > 2^-30) in 1054 halvings
        mid = 0.5 * t_lo + 0.5 * t_hi
        if err(mid) <= target:
            t_lo = mid
        else:
            t_hi = mid
        if t_hi - t_lo <= 1e-9 * max(1.0, t_hi):
            break
    t_star = 0.5 * t_lo + 0.5 * t_hi
    if abs(err(t_star) - target) > _THRESHOLD_ERROR_TOL:
        raise ConvergenceError("bisection did not pin the target error")
    return float(t_star)


def chain_sector_gap(N: int, J: float, lam: float, n_levels: int = 2, seed: int = 7) -> np.ndarray:
    """Lowest levels of the 1D chain inside the all-checks +1 sector.

    Only that sector's exact 2^N x 2^N block is built, in the frame of
    the N checks (`pauli.check_blocks` with ``sector=0``), and diagonalized
    densely; N above ``pauli.DENSE_QUBIT_LIMIT`` raises ValueError.
    ``n_levels`` must lie in 1..2**N.  ``seed`` has no effect; it stays
    because perfbench/child.py still passes it.
    """
    inst, ham = build_chain_1d(N, J, lam)
    if not 1 <= n_levels <= 1 << N:
        raise ValueError(f"n_levels must lie in 1..{1 << N}")
    checks = [stab.terms[0][1] for stab in stabilizers_1d(inst)]
    return np.linalg.eigvalsh(check_blocks([ham], checks, sector=0)[0, 0])[:n_levels]
