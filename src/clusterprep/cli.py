"""Command-line front end: model verification, spectrum scans, schedule
evolution, parameter sweeps, and threshold phase diagrams as CSV artifacts.

Determinism contract: identical flags produce byte-identical CSVs.  Row
order is fixed by sorting grid values, and every CSV starts with a header
comment recording the tool version and the semantic parameter set (the
output path and worker count are deliberately left out, so worker count
never changes the artifact).  Each command hands `_csv_text` its columns
as lists of cells formatted by one rule (`_cells`): ``repr`` of a Python
float or int, which is its shortest round-trip form, and an empty cell
for None.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3
numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import __version__, analysis, linalg, pham
from .evolve import linear_rampdown, sequential_switchoff
from .models import build_chain_1d, build_lattice_2d, build_plaquette_3d, stabilizer_3d_local, stabilizers_1d
from .pauli import OperatorSum, commutator_is_zero

__all__ = ["main", "entry"]


class _UsageError(Exception):
    pass


# ---------------------------------------------------------------- converters

def _conv_float(s: str) -> float:
    v = float(s)
    if not np.isfinite(v):
        raise argparse.ArgumentTypeError(f"value must be finite, got {s!r}")
    return v


def _conv_pos(s: str) -> float:
    v = _conv_float(s)
    if v <= 0:
        raise argparse.ArgumentTypeError(f"value must be > 0, got {s!r}")
    return v


def _conv_nonneg(s: str) -> float:
    v = _conv_float(s)
    if v < 0:
        raise argparse.ArgumentTypeError(f"value must be >= 0, got {s!r}")
    return v


def _conv_int_min(lo: int) -> Callable[[str], int]:
    def conv(s: str) -> int:
        try:
            v = int(s)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {s!r}") from None
        if v < lo:
            raise argparse.ArgumentTypeError(f"value must be >= {lo}, got {s!r}")
        return v

    return conv


def _conv_grid(s: str) -> list[float]:
    """Grid syntax: 'a:b:n' (inclusive, n points), 'x,y,z', or a single value."""
    text = s.strip()
    if not text:
        raise argparse.ArgumentTypeError("empty value list")
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(f"grid must be a:b:n, got {s!r}")
        a, b = float(parts[0]), float(parts[1])
        n = int(parts[2])
        if n < 1:
            raise argparse.ArgumentTypeError("grid needs n >= 1 points")
        if not (np.isfinite(a) and np.isfinite(b)):
            raise argparse.ArgumentTypeError("grid endpoints must be finite")
        return [float(x) for x in np.linspace(a, b, n)]
    vals = [p.strip() for p in text.split(",")]
    if any(not p for p in vals):
        raise argparse.ArgumentTypeError(f"malformed value list {s!r}")
    return [_conv_float(p) for p in vals]


def _grid_conv(sign: str) -> Callable[[str], list[float]]:
    def conv(s: str) -> list[float]:
        vals = _conv_grid(s)
        if sign == "pos" and any(v <= 0 for v in vals):
            raise argparse.ArgumentTypeError(f"all values must be > 0 in {s!r}")
        if sign == "nonneg" and any(v < 0 for v in vals):
            raise argparse.ArgumentTypeError(f"all values must be >= 0 in {s!r}")
        return vals

    return conv


def _conv_order(s: str) -> tuple[int, ...]:
    try:
        order = tuple(int(p) for p in s.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"order must be comma-separated integers, got {s!r}") from None
    if sorted(order) != [1, 2, 3, 4]:
        raise argparse.ArgumentTypeError("order must be a permutation of 1,2,3,4")
    return order


def _conv_bracket(s: str) -> tuple[float, float]:
    parts = s.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"bracket must be lo:hi, got {s!r}")
    lo, hi = _conv_float(parts[0]), _conv_float(parts[1])
    if not (0 <= lo < hi):
        raise argparse.ArgumentTypeError("bracket needs 0 <= lo < hi")
    return lo, hi


def _conv_choice(*allowed: str) -> Callable[[str], str]:
    def conv(s: str) -> str:
        if s not in allowed:
            raise argparse.ArgumentTypeError(f"expected one of {', '.join(allowed)}, got {s!r}")
        return s

    return conv


def _conv_str(s: str) -> str:
    return s


_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}

_REQUIRED = object()


@dataclass(frozen=True)
class _Opt:
    flag: str
    conv: Optional[Callable]  # None marks a boolean switch
    default: object
    help: str

    @property
    def dest(self) -> str:
        name = self.flag.lstrip("-").replace("-", "_")
        return "lam" if name == "lambda" else name

    @property
    def key(self) -> str:
        return self.flag.lstrip("-")


_VERIFY_OPTS = [
    _Opt("--model", _conv_choice("1d", "2d", "3d"), _REQUIRED, "model family to check"),
    _Opt("--N", _conv_int_min(1), 4, "logical sites of the 1d chain"),
    _Opt("--L1", _conv_int_min(1), 2, "torus extent along the first axis"),
    _Opt("--L2", _conv_int_min(1), 2, "torus extent along the second axis"),
    _Opt("--J", _conv_pos, 1.0, "Ising bond strength"),
    _Opt("--lambda", _grid_conv("nonneg"), [1.0], "coupling strength (3d accepts four per-spin values)"),
    _Opt("--hamiltonian", _conv_str, None, "verify this operator file instead of the built-in Hamiltonian"),
]

_SPECTRUM_OPTS = [
    _Opt("--model", _conv_choice("3d"), "3d", "model family (plaquette only)"),
    _Opt("--J", _conv_pos, 1.0, "Ising bond strength"),
    _Opt("--lambda-grid", _grid_conv("nonneg"), None, "coupling grid a:b:n, list, or single value"),
    _Opt("--path", _conv_choice("rampdown", "sequential"), None, "scan along a schedule instead of a grid"),
    _Opt("--lambda0", _conv_pos, None, "initial coupling of the rampdown path"),
    _Opt("--tau", _conv_pos, 1.0, "rampdown duration"),
    _Opt("--lambda-init", _conv_pos, None, "initial coupling of the sequential path"),
    _Opt("--tau-each", _conv_pos, 1.0, "per-spin switch-off duration of the sequential path"),
    _Opt("--order", _conv_order, (1, 2, 3, 4), "spin switch-off order for the sequential path"),
    _Opt("--samples", _conv_int_min(2), 201, "sample count along the path"),
    _Opt("--hamiltonian", _conv_str, None, "replace the static ZZ ring with this operator file"),
    _Opt("--output", _conv_str, None, "CSV path (default: stdout)"),
]

_EVOLVE_OPTS = [
    _Opt("--T", _conv_nonneg, _REQUIRED, "preparation temperature"),
    _Opt("--lambda0", _conv_pos, _REQUIRED, "initial coupling"),
    _Opt("--tau", _conv_pos, _REQUIRED, "rampdown duration"),
    _Opt("--J", _conv_pos, 1.0, "Ising bond strength"),
    _Opt("--tol", _conv_pos, 1e-8, "integrator step-doubling tolerance (propagator entries to tol/4)"),
    _Opt("--samples", _conv_int_min(2), 101, "time-series sample count"),
    _Opt("--hamiltonian", _conv_str, None, "replace the static ZZ ring with this operator file"),
    _Opt("--output", _conv_str, None, "time-series CSV path (default: stdout)"),
]

_SWEEP_OPTS = [
    _Opt("--T", _grid_conv("nonneg"), _REQUIRED, "temperature values (grid syntax)"),
    _Opt("--lambda0", _grid_conv("pos"), _REQUIRED, "initial-coupling values (grid syntax)"),
    _Opt("--tau", _grid_conv("pos"), _REQUIRED, "rampdown durations (grid syntax)"),
    _Opt("--J", _conv_pos, 1.0, "Ising bond strength"),
    _Opt("--tol", _conv_pos, 1e-8, "integrator step-doubling tolerance"),
    _Opt("--cap", _conv_int_min(1), 100000, "maximum grid size"),
    _Opt("--workers", _conv_int_min(1), 1, "parallel worker processes"),
    _Opt("--output", _conv_str, None, "CSV path (default: stdout)"),
]

_PHASE_OPTS = [
    _Opt("--lambda0-grid", _grid_conv("pos"), _REQUIRED, "initial-coupling grid (grid syntax)"),
    _Opt("--tau", _grid_conv("pos"), _REQUIRED, "rampdown durations (grid syntax)"),
    _Opt("--T-bracket", _conv_bracket, (1e-3, 3.0), "temperature bracket lo:hi for the threshold search"),
    _Opt("--target", _conv_pos, 0.03, "total phase-flip error defining the threshold"),
    _Opt("--no-evolution", None, False, "add a threshold column for the unevolved cooled state"),
    _Opt("--J", _conv_pos, 1.0, "Ising bond strength"),
    _Opt("--tol", _conv_pos, 1e-8, "integrator step-doubling tolerance"),
    _Opt("--output", _conv_str, None, "CSV path (default: stdout)"),
]

# flags that never enter CSV header comments: they cannot change row content
_HEADER_EXCLUDED = {"--output", "--workers"}


# ---------------------------------------------------------------- plumbing

def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, list[_Opt]]]:
    parser = argparse.ArgumentParser(
        prog="clusterprep",
        description="Adiabatic cluster-state preparation: verification, spectra, evolution, sweeps.",
    )
    parser.add_argument("--version", action="version", version=f"clusterprep {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    tables = {}
    for name, opts, func, blurb in (
        ("verify", _VERIFY_OPTS, _cmd_verify, "check that every conserved check commutes with the Hamiltonian"),
        ("spectrum", _SPECTRUM_OPTS, _cmd_spectrum, "sector-labeled plaquette spectra over a grid or schedule"),
        ("evolve", _EVOLVE_OPTS, _cmd_evolve, "run one cool-then-rampdown point and report its error channel"),
        ("sweep", _SWEEP_OPTS, _cmd_sweep, "error channel over a (tau, lambda0, T) grid"),
        ("phase-diagram", _PHASE_OPTS, _cmd_phase_diagram, "threshold temperatures over a coupling grid"),
    ):
        sp = sub.add_parser(name, help=blurb, description=blurb)
        sp.add_argument("--config", default=None, help="key = value file with a section per command")
        for opt in opts:
            if opt.conv is None:
                sp.add_argument(opt.flag, dest=opt.dest, action="store_true", default=None, help=opt.help)
            else:
                sp.add_argument(opt.flag, dest=opt.dest, type=opt.conv, default=None, help=opt.help)
        sp.set_defaults(func=func)
        tables[name] = opts
    return parser, tables


def _apply_config(ns: argparse.Namespace, opts: list[_Opt]) -> None:
    """Fill unset flags from the config file, then from hard defaults."""
    from_config = {}
    if ns.config is not None:
        cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
        if not cp.read(ns.config):
            raise _UsageError(f"config file not found: {ns.config}")
        if cp.has_section(ns.command):
            # configparser lowercases keys, so match flag names case-blind
            known = {o.key.lower(): o for o in opts}
            for key, raw in cp.items(ns.command):
                if key not in known:
                    raise _UsageError(f"unknown key {key!r} in config section [{ns.command}]")
                opt = known[key]
                if opt.conv is None:
                    low = raw.strip().lower()
                    if low not in _TRUE | _FALSE:
                        raise _UsageError(f"config key {key!r} must be a boolean, got {raw!r}")
                    from_config[opt.dest] = low in _TRUE
                else:
                    try:
                        from_config[opt.dest] = opt.conv(raw.strip())
                    except (argparse.ArgumentTypeError, ValueError) as exc:
                        raise _UsageError(f"config key {key!r}: {exc}") from None
    for opt in opts:
        if getattr(ns, opt.dest) is None:
            if opt.dest in from_config:
                setattr(ns, opt.dest, from_config[opt.dest])
            elif opt.default is _REQUIRED:
                raise _UsageError(f"missing required option {opt.flag}")
            else:
                setattr(ns, opt.dest, opt.default)


def _fmt_value(v) -> str:
    if v is None:
        return "none"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (list, tuple)):
        return ",".join(_fmt_value(x) for x in v)
    return str(v)


def _header_comment(ns: argparse.Namespace, opts: list[_Opt]) -> str:
    parts = [
        f"{opt.key}={_fmt_value(getattr(ns, opt.dest))}"
        for opt in opts
        if opt.flag not in _HEADER_EXCLUDED
    ]
    return f"# clusterprep {__version__} {ns.command} " + " ".join(parts)


def _cells(values) -> list[str]:
    """The cell rule: ``repr`` of each Python float or int, and "" for None."""
    return ["" if v is None else repr(v) for v in values]


def _csv_text(header: str, names: tuple[str, ...], columns) -> str:
    """CSV text from ``columns``: one list of cells formatted by `_cells` per name, all of one length."""
    lines = [header, ",".join(names)]
    lines.extend(map(",".join, zip(*columns)))
    return "\n".join(lines) + "\n"


def _emit(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _load_operator(path: Optional[str]) -> Optional[OperatorSum]:
    if path is None:
        return None
    with open(path) as fh:
        return pham.parse(fh.read())


def _single_lambda(values: list[float], model: str) -> float:
    if len(values) != 1:
        raise _UsageError(f"model {model} takes a single --lambda value")
    return values[0]


# ---------------------------------------------------------------- commands

def _cmd_verify(ns: argparse.Namespace) -> int:
    if ns.model == "1d":
        inst, ham = build_chain_1d(ns.N, ns.J, _single_lambda(ns.lam, "1d"))
        checks = stabilizers_1d(inst)
    elif ns.model == "2d":
        _, ham, checks = build_lattice_2d(ns.L1, ns.L2, ns.J, _single_lambda(ns.lam, "2d"))
    else:
        lam = ns.lam if len(ns.lam) == 4 else _single_lambda(ns.lam, "3d")
        _, ham = build_plaquette_3d(ns.J, lam)
        checks = [stabilizer_3d_local()]
    custom = _load_operator(ns.hamiltonian)
    if custom is not None:
        if custom.n_qubits != ham.n_qubits:
            raise _UsageError(
                f"operator file acts on {custom.n_qubits} qubits, model needs {ham.n_qubits}"
            )
        ham = custom
    ok_all = True
    for i, check in enumerate(checks):
        ok, residual = commutator_is_zero(ham, check)
        ok_all = ok_all and ok
        print(f"check[{i}] residual = {residual!r}")
    if ok_all:
        print(f"all {len(checks)} checks exactly conserved")
        return 0
    print("conservation violated", file=sys.stderr)
    return 1


_SPECTRUM_COLUMNS = ("lambda_or_time", "level", "energy", "sector", "gap_global", "gap_sector")


def _cmd_spectrum(ns: argparse.Namespace) -> int:
    if (ns.lambda_grid is None) == (ns.path is None):
        raise _UsageError("give exactly one of --lambda-grid or --path")
    static = _load_operator(ns.hamiltonian)
    if ns.lambda_grid is not None:
        table = analysis.spectrum_scan(ns.J, ns.lambda_grid, static)
    elif ns.path == "rampdown":
        if ns.lambda0 is None:
            raise _UsageError("--path rampdown requires --lambda0")
        table = analysis.spectrum_path(linear_rampdown(ns.lambda0, ns.tau), ns.J, ns.samples, static)
    else:
        if ns.lambda_init is None:
            raise _UsageError("--path sequential requires --lambda-init")
        schedule = sequential_switchoff(ns.lambda_init, ns.tau_each, ns.order)
        table = analysis.spectrum_path(schedule, ns.J, ns.samples, static)
    # each energy and each point value is formatted once; point values repeat over the levels
    levels = table.n_levels
    axis, gap_global, gap_sector = (
        [cell for cell in _cells(values.tolist()) for _ in range(levels)]
        for values in (table.axis, table.gap_global, table.gap_sector)
    )
    sector = dict(zip((1, -1), _cells((1, -1))))
    energy, level = _cells(table.energies.ravel().tolist()), _cells(range(levels)) * table.n_points
    columns = (axis, level, energy, [sector[s] for s in table.sectors.ravel().tolist()], gap_global, gap_sector)
    _emit(ns.output, _csv_text(_header_comment(ns, _SPECTRUM_OPTS), _SPECTRUM_COLUMNS, columns))
    return 0


_EVOLVE_COLUMNS = ("t", "lambda", "fidelity", "w_plus", "w_minus")


def _cmd_evolve(ns: argparse.Namespace) -> int:
    static = _load_operator(ns.hamiltonian)
    ts = np.linspace(0.0, ns.tau, ns.samples)
    rows, report = analysis.rampdown_series(ns.T, ns.lambda0, ns.tau, ts, ns.J, ns.tol, static)
    header = _header_comment(ns, _EVOLVE_OPTS)
    _emit(ns.output, _csv_text(header, _EVOLVE_COLUMNS, map(_cells, zip(*rows))))
    prefix = "# " if ns.output is None else ""
    for key in ("fidelity", "p_z", "p_c1", "p_c2", "w_minus", "e_zeta"):
        print(f"{prefix}{key} = {getattr(report, key)!r}")
    return 0


def _sweep_group(task) -> list[tuple]:
    tau, lam0, temps, J, tol = task
    rows = []
    for T in temps:
        r = analysis.run_point(T, lam0, tau, J, tol)
        rows.append((tau, lam0, T, r.fidelity, r.p_z, r.p_c1, r.p_c2, r.w_minus, r.e_zeta))
    return rows


_SWEEP_COLUMNS = ("tau", "lambda0", "T", "fidelity", "p_z", "p_c1", "p_c2", "w_minus", "e_zeta")


def _cmd_sweep(ns: argparse.Namespace) -> int:
    temps = sorted(ns.T)
    lam0s = sorted(ns.lambda0)
    taus = sorted(ns.tau)
    size = len(temps) * len(lam0s) * len(taus)
    if size > ns.cap:
        raise _UsageError(f"grid has {size} points, above the cap of {ns.cap}")
    groups = [(tau, lam0, tuple(temps), ns.J, ns.tol) for tau in taus for lam0 in lam0s]
    # this process is one of the workers, and the pool starts all the others at
    # once, so start no more workers than there are groups
    workers = min(ns.workers, len(groups))
    if workers == 1:
        results = [_sweep_group(g) for g in groups]
    else:
        pool = ProcessPoolExecutor(max_workers=workers - 1)
        try:
            futures = [pool.submit(_sweep_group, g) for g in groups[:-1]]
            # run the last group here, then take groups from the back for as long
            # as they can be cancelled; the pool starts its groups in order
            results = [_sweep_group(groups[-1])]
            for g, f in zip(reversed(groups[:-1]), reversed(futures)):
                results.append(_sweep_group(g) if f.cancel() else f.result())
            results.reverse()
        finally:
            pool.shutdown(cancel_futures=True)  # after a failure, start no other group
    rows = [row for group_rows in results for row in group_rows]
    header = _header_comment(ns, _SWEEP_OPTS)
    _emit(ns.output, _csv_text(header, _SWEEP_COLUMNS, map(_cells, zip(*rows))))
    return 0


def _cmd_phase_diagram(ns: argparse.Namespace) -> int:
    taus = sorted(ns.tau)
    lam0s = sorted(ns.lambda0_grid)
    names = ("tau", "lambda0", "T_star")
    if ns.no_evolution:
        names = names + ("T_star_no_evolution",)

    def threshold(lam0: float, tau: Optional[float], what: str):
        try:
            t_star = analysis.threshold_temperature(
                lam0, tau, ns.J, ns.target, ns.T_bracket, ns.tol
            )
        except analysis.ThresholdBracketError:
            t_star = None
        if t_star is None:
            print(
                f"warning: no threshold in bracket for {what} lambda0={_fmt_value(lam0)}",
                file=sys.stderr,
            )
        return t_star

    # the no-evolution threshold does not depend on tau: one search per lambda0
    unevolved = {lam0: threshold(lam0, None, "no-evolution") for lam0 in lam0s} if ns.no_evolution else None
    rows = []
    for tau in taus:
        for lam0 in lam0s:
            row = [tau, lam0, threshold(lam0, tau, f"tau={_fmt_value(tau)}")]
            if unevolved is not None:
                row.append(unevolved[lam0])
            rows.append(tuple(row))
    header = _header_comment(ns, _PHASE_OPTS)
    _emit(ns.output, _csv_text(header, names, map(_cells, zip(*rows))))
    return 0


# ---------------------------------------------------------------- entry

def main(argv=None) -> int:
    parser, tables = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 2)
    try:
        _apply_config(ns, tables[ns.command])
        return ns.func(ns)
    except (_UsageError, ValueError, argparse.ArgumentTypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (linalg.ConvergenceError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
