"""Correctness checks of the benchmark's outputs against oracle references.

Each check returns a Tally: one attempt per checked row, cell, CLI call
or byte comparison, and one failure per attempt that misses.

Tolerances follow the run's ``--tol``.  The propagator promises entries
within tol/4, so every entry of the evolved state moves by at most
about 16 * tol / 4 * 2; a readout weight sums at most 16 such entries
with unit-bounded coefficients, and e_zeta weights class sums by at most
4.  ``READOUT_ATOL_PER_TOL`` = 100 covers that chain with room, so an
integrator that meets its own tolerance passes whatever its method.
Spectra carry no integrator; energies are checked to eigensolver
accuracy.  Sector labels are only defined up to clusterprep's
degeneracy window: levels closer than ``DEGENERACY_RTOL`` (relative to
max(1, |E|max)) form one block whose sectors are resolved in
eigensolver order, not energy order.  Sector-resolved energies and
gaps are therefore compared within the widest such block at that point
(zero where no levels are that close).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import oracle

READOUT_ATOL_PER_TOL = 100.0
EIG_ATOL = 1e-9
DEGENERACY_RTOL = 1e-8
SWEEP_COLUMNS = ("tau", "lambda0", "T", "fidelity", "p_z", "p_c1", "p_c2", "w_minus", "e_zeta")
SPECTRUM_COLUMNS = ("lambda_or_time", "level", "energy", "sector", "gap_global", "gap_sector")
PHASE_COLUMNS = ("tau", "lambda0", "T_star", "T_star_no_evolution")
# threshold_temperature's default error tolerance at T*, which the CLI uses
PHASE_E_TOL = 1e-4


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def add(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.messages.extend(other.messages[: max(0, 20 - len(self.messages))])


def parse_csv(text: str, columns: tuple[str, ...]) -> list[list[str]]:
    """Rows of a clusterprep CSV; raises ValueError on a wrong layout."""
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("# clusterprep "):
        raise ValueError("missing clusterprep header comment")
    if tuple(lines[1].split(",")) != columns:
        raise ValueError(f"unexpected columns {lines[1]!r}")
    rows = [line.split(",") for line in lines[2:]]
    if any(len(r) != len(columns) for r in rows):
        raise ValueError("row with a wrong number of cells")
    return rows


def _close(a: float, b: float, atol: float) -> bool:
    return bool(abs(a - b) <= atol)


def check_sweep(text: str, temps, lambda0s, taus, tol: float) -> Tally:
    """Every row against the Magnus-propagated oracle readout."""
    tally = Tally()
    try:
        rows = parse_csv(text, SWEEP_COLUMNS)
    except ValueError as exc:
        tally.add(False, f"sweep csv: {exc}")
        return tally
    expected = [(tau, lam0, T) for tau in sorted(taus) for lam0 in sorted(lambda0s) for T in sorted(temps)]
    tally.add(len(rows) == len(expected), f"sweep has {len(rows)} rows, expected {len(expected)}")
    atol = READOUT_ATOL_PER_TOL * tol
    for row, (tau, lam0, T) in zip(rows, expected):
        vals = [float(c) for c in row]
        ok = vals[:3] == [tau, lam0, T]
        if ok:
            ref = oracle.point(T, lam0, tau)
            ok = all(_close(v, ref[k], atol) for v, k in zip(vals[3:], SWEEP_COLUMNS[3:]))
        tally.add(ok, f"sweep row tau={tau} lambda0={lam0} T={T} off the oracle")
    return tally


def check_phase(text: str, lambda0s, taus, bracket, target: float, tol: float) -> Tally:
    """Every threshold cell: e_zeta(T*) on target, empty exactly when it should be."""
    tally = Tally()
    try:
        rows = parse_csv(text, PHASE_COLUMNS)
    except ValueError as exc:
        tally.add(False, f"phase-diagram csv: {exc}")
        return tally
    expected = [(tau, lam0) for tau in sorted(taus) for lam0 in sorted(lambda0s)]
    tally.add(len(rows) == len(expected), f"phase diagram has {len(rows)} rows, expected {len(expected)}")
    lo, hi = bracket
    slack = READOUT_ATOL_PER_TOL * tol
    for row, (tau, lam0) in zip(rows, expected):
        keys_ok = [float(row[0]), float(row[1])] == [tau, lam0]
        for cell, ramp in ((row[2], tau), (row[3], None)):
            what = f"phase cell tau={tau if ramp else 'none'} lambda0={lam0}"
            e_lo = oracle.point(lo, lam0, ramp)["e_zeta"]
            e_hi = oracle.point(hi, lam0, ramp)["e_zeta"]
            if cell == "":
                ok = e_lo > target - slack or e_hi < target + slack
            else:
                t_star = float(cell)
                e_star = oracle.point(t_star, lam0, ramp)["e_zeta"]
                ok = lo <= t_star <= hi and _close(e_star, target, PHASE_E_TOL + slack)
            tally.add(keys_ok and ok, what)
    return tally


def _check_spectrum_rows(tally: Tally, rows, axis, lams, closed_form: bool) -> None:
    n_levels = 16
    tally.add(len(rows) == len(axis) * n_levels, f"spectrum has {len(rows)} rows")
    for i, x in enumerate(axis):
        block = rows[i * n_levels:(i + 1) * n_levels]
        if len(block) != n_levels:
            break
        h = oracle.plaquette_h(lams[i])
        full, plus, minus = oracle.sector_spectra(h)
        scale = max(1.0, float(np.abs(full).max()))
        atol = EIG_ATOL * scale
        sector_atol = atol + _widest_block(full, DEGENERACY_RTOL * scale)
        gap_g = full[1] - full[0]
        if closed_form:
            gap_g_ok = _close(gap_g, oracle.plaquette_gap_closed_form(oracle.J, float(lams[i][0])), atol)
        else:
            gap_g_ok = True
        rank = {1: 0, -1: 0}
        for level, row in enumerate(block):
            t, lev, energy, sector, gg, gs = float(row[0]), int(row[1]), float(row[2]), int(row[3]), float(row[4]), float(row[5])
            ok = gap_g_ok and _close(t, x, 1e-12 * max(1.0, abs(x))) and lev == level and sector in rank
            if ok:
                in_sector = plus if sector == 1 else minus
                ok = (
                    rank[sector] < in_sector.size
                    and _close(energy, full[level], atol)
                    and _close(energy, in_sector[rank[sector]], sector_atol)
                    and _close(gg, gap_g, atol)
                    and _close(gs, plus[1] - plus[0], sector_atol)
                )
                rank[sector] += 1
            tally.add(ok, f"spectrum row at {float(x)!r} level {level} off the oracle")


def _widest_block(values: np.ndarray, window: float) -> float:
    """Widest run of ascending levels whose neighbours are within window."""
    widest, start = 0.0, 0
    for i in range(1, values.size + 1):
        if i == values.size or values[i] - values[i - 1] > window:
            widest = max(widest, float(values[i - 1] - values[start]))
            start = i
    return widest


def check_spectrum_grid(text: str, grid) -> Tally:
    """Rows over a uniform-coupling grid: scipy levels, sectors and the closed-form gap."""
    tally = Tally()
    try:
        rows = parse_csv(text, SPECTRUM_COLUMNS)
    except ValueError as exc:
        tally.add(False, f"spectrum csv: {exc}")
        return tally
    grid = np.asarray(grid, dtype=float)
    _check_spectrum_rows(tally, rows, grid, np.repeat(grid[:, None], 4, axis=1), closed_form=True)
    return tally


def check_spectrum_path(text: str, lambda_init: float, tau_each: float, order, samples: int) -> Tally:
    """Rows along a staged switch-off: scipy levels and sectors at each sample."""
    tally = Tally()
    try:
        rows = parse_csv(text, SPECTRUM_COLUMNS)
    except ValueError as exc:
        tally.add(False, f"spectrum csv: {exc}")
        return tally
    ts = np.linspace(0.0, 4.0 * tau_each, samples)
    lams = oracle.sequential_couplings(lambda_init, tau_each, order, ts)
    _check_spectrum_rows(tally, rows, ts, lams, closed_form=False)
    return tally


def check_chain(levels, Ns) -> Tally:
    """Chain sector levels against the stored sparse sector-restricted solve."""
    tally = Tally()
    tally.add(levels is not None and len(levels) == len(Ns), "chain levels missing")
    for N, got in zip(Ns, levels or []):
        ref = oracle.chain_levels(N)
        atol = EIG_ATOL * max(1.0, float(np.abs(ref).max()))
        ok = len(got) == ref.size and all(_close(a, b, atol) for a, b in zip(got, ref))
        tally.add(ok, f"chain N={N} levels {got} off the oracle {ref.tolist()}")
    return tally


def check_same_bytes(tally: Tally, reference: bytes, candidate: bytes, what: str) -> None:
    tally.add(reference == candidate, f"{what}: CSV bytes differ")
