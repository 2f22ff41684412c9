"""Command-line front end: model verification, spectrum scans, schedule
evolution, parameter sweeps, and threshold phase diagrams as CSV artifacts.

Each command's option table (a list of `_Opt`) is the one description of
its flags: `_parse` reads the command line from the tables, `--config`
files and ``--help`` text come from them, and so does the CSV header.

Determinism contract: identical flags produce byte-identical CSVs.  Row
order is fixed by sorting grid values, and every CSV starts with a header
comment recording the tool version and the semantic parameter set (the
output path and worker count are deliberately left out, so worker count
never changes the artifact; a ``--hamiltonian`` file replaces the ring,
so the header then records ``J=none``).  Each command builds the
plaquette's static part H0 once (`_static_part`) and hands `_csv_chunks`
blocks of columns, lists of cells formatted by one rule (`_cells`):
``repr`` of a Python float or int, which is its shortest round-trip
form, and an empty cell for None.  `_emit` writes the chunks as they
come, so a spectrum's text never exists whole.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3
numerical failure.
"""

from __future__ import annotations

import math
import os
import pickle
import sys
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np

from . import __version__, analysis, linalg, pham
from .evolve import linear_rampdown, sequential_switchoff
from .models import (build_chain_1d, build_lattice_2d, build_plaquette_3d, plaquette_ring_term,
                     stabilizer_3d_local, stabilizers_1d)
from .pauli import OperatorSum, commutator_is_zero

__all__ = ["main", "entry"]


class _UsageError(Exception):
    pass


# ---------------------------------------------------------------- converters

@dataclass(frozen=True)
class _Number:
    """Finite values of ``kind`` at least ``bound``, or above it when ``above``."""

    bound: Optional[int] = None
    above: bool = False
    kind: type = float

    def __call__(self, s: str):
        if not np.isfinite(float(s)):
            raise ValueError(f"value must be finite, got {s!r}")
        v = self.kind(s)
        if self.bound is not None and (v <= self.bound if self.above else v < self.bound):
            raise ValueError(f"value must be {'>' if self.above else '>='} {self.bound}, got {s!r}")
        return v


_FINITE, _POSITIVE, _NONNEG = _Number(), _Number(0, above=True), _Number(0)


@dataclass(frozen=True)
class _Grid:
    """Grid syntax: 'a:b:n' (a `_Span`: n points, ends included), 'x,y,z', or one value; ``element`` checks each."""

    element: _Number

    def __call__(self, s: str) -> list[float] | _Span:
        text = s.strip()
        if not text:
            raise ValueError("empty value list")
        if ":" not in text:
            vals = [p.strip() for p in text.split(",")]
            if not all(vals):
                raise ValueError(f"malformed value list {s!r}")
            return [self.element(p) for p in vals]
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid must be a:b:n, got {s!r}")
        a, b = _FINITE(parts[0]), _FINITE(parts[1])
        n = int(parts[2])
        if n < 1:
            raise ValueError("grid needs n >= 1 points")
        try:
            np.empty(n)  # allocated, never written: a count no memory holds is refused before --cap counts it
        except MemoryError:
            raise ValueError(f"grid of {n} points is too large to allocate") from None
        # the rule is a lower bound: it holds for every point when it holds for the smallest, an end (a alone at n = 1)
        self.element(repr(a if n == 1 else min(a, b)))
        return _Span(a, b, n)


@dataclass(frozen=True)
class _Span:
    """Grid syntax a:b:n by its ends and count; `_parse` builds its points once --cap has counted them."""

    a: float
    b: float
    n: int

    def __len__(self) -> int:
        return self.n


@dataclass(frozen=True)
class _Samples(_Number):
    """A count whose float64 sample times can be allocated, as a grid's points must be."""

    def __call__(self, s: str) -> int:
        n = super().__call__(s)
        try:
            np.empty(n)
        except MemoryError:
            raise ValueError(f"{n} samples are too large to allocate") from None
        return n


def _conv_order(s: str) -> tuple[int, ...]:
    try:
        order = tuple(int(p) for p in s.split(","))
    except ValueError:
        raise ValueError(f"order must be comma-separated integers, got {s!r}") from None
    if sorted(order) != [1, 2, 3, 4]:
        raise ValueError("order must be a permutation of 1,2,3,4")
    return order


def _conv_bracket(s: str) -> tuple[float, float]:
    parts = s.split(":")
    if len(parts) != 2:
        raise ValueError(f"bracket must be lo:hi, got {s!r}")
    lo, hi = _FINITE(parts[0]), _FINITE(parts[1])
    if not (0 <= lo < hi):
        raise ValueError("bracket needs 0 <= lo < hi")
    return lo, hi


def _conv_choice(*allowed: str) -> Callable[[str], str]:
    def conv(s: str) -> str:
        if s not in allowed:
            raise ValueError(f"expected one of {', '.join(allowed)}, got {s!r}")
        return s

    return conv


_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _conv_bool(s: str) -> bool:
    low = s.lower()
    if low not in _TRUE | _FALSE:
        raise ValueError(f"value must be a boolean, got {s!r}")
    return low in _TRUE


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
    _Opt("--N", _Number(1, kind=int), 4, "logical sites of the 1d chain"),
    _Opt("--L1", _Number(1, kind=int), 2, "torus extent along the first axis"),
    _Opt("--L2", _Number(1, kind=int), 2, "torus extent along the second axis"),
    _Opt("--J", _POSITIVE, 1.0, "Ising bond strength"),
    _Opt("--lambda", _Grid(_NONNEG), [1.0], "coupling strength (3d accepts four per-spin values)"),
    _Opt("--hamiltonian", str, None, "verify this operator file instead of the built-in Hamiltonian"),
]

_SPECTRUM_OPTS = [
    _Opt("--model", _conv_choice("3d"), "3d", "model family (plaquette only)"),
    _Opt("--J", _POSITIVE, 1.0, "Ising bond strength (unused with --hamiltonian, which replaces the ring)"),
    _Opt("--lambda-grid", _Grid(_NONNEG), None, "coupling grid a:b:n, list, or single value"),
    _Opt("--path", _conv_choice("rampdown", "sequential"), None, "scan along a schedule instead of a grid"),
    _Opt("--lambda0", _POSITIVE, None, "initial coupling of the rampdown path"),
    _Opt("--tau", _POSITIVE, 1.0, "rampdown duration"),
    _Opt("--lambda-init", _POSITIVE, None, "initial coupling of the sequential path"),
    _Opt("--tau-each", _POSITIVE, 1.0, "per-spin switch-off duration of the sequential path"),
    _Opt("--order", _conv_order, (1, 2, 3, 4), "spin switch-off order for the sequential path"),
    _Opt("--samples", _Samples(2, kind=int), 201, "sample count along the path"),
    _Opt("--hamiltonian", str, None, "replace the static ZZ ring with this operator file"),
    _Opt("--output", str, None, "CSV path (default: stdout)"),
]

_EVOLVE_OPTS = [
    _Opt("--T", _NONNEG, _REQUIRED, "preparation temperature"),
    _Opt("--lambda0", _POSITIVE, _REQUIRED, "initial coupling"),
    _Opt("--tau", _POSITIVE, _REQUIRED, "rampdown duration"),
    _Opt("--J", _POSITIVE, 1.0, "Ising bond strength (unused with --hamiltonian, which replaces the ring)"),
    _Opt("--tol", _POSITIVE, 1e-8, "integrator step-doubling tolerance (propagator entries to tol/4)"),
    _Opt("--samples", _Samples(2, kind=int), 101, "time-series sample count"),
    _Opt("--hamiltonian", str, None, "replace the static ZZ ring with this operator file"),
    _Opt("--output", str, None, "time-series CSV path (default: stdout)"),
]

_SWEEP_OPTS = [
    _Opt("--T", _Grid(_NONNEG), _REQUIRED, "temperature values (grid syntax)"),
    _Opt("--lambda0", _Grid(_POSITIVE), _REQUIRED, "initial-coupling values (grid syntax)"),
    _Opt("--tau", _Grid(_POSITIVE), _REQUIRED, "rampdown durations (grid syntax)"),
    _Opt("--J", _POSITIVE, 1.0, "Ising bond strength"),
    _Opt("--tol", _POSITIVE, 1e-8, "integrator step-doubling tolerance"),
    _Opt("--cap", _Number(1, kind=int), 100000, "maximum grid size"),
    _Opt("--workers", _Number(1, kind=int), 1, "parallel worker processes"),
    _Opt("--output", str, None, "CSV path (default: stdout)"),
]

_PHASE_OPTS = [
    _Opt("--lambda0-grid", _Grid(_POSITIVE), _REQUIRED, "initial-coupling grid (grid syntax)"),
    _Opt("--tau", _Grid(_POSITIVE), _REQUIRED, "rampdown durations (grid syntax)"),
    _Opt("--T-bracket", _conv_bracket, (1e-3, 3.0), "temperature bracket lo:hi for the threshold search"),
    _Opt("--target", _POSITIVE, 0.03, "total phase-flip error defining the threshold"),
    _Opt("--no-evolution", None, False, "add a threshold column for the unevolved cooled state"),
    _Opt("--J", _POSITIVE, 1.0, "Ising bond strength"),
    _Opt("--tol", _POSITIVE, 1e-8, "integrator step-doubling tolerance"),
    _Opt("--output", str, None, "CSV path (default: stdout)"),
]

# flags that never enter CSV header comments: they cannot change row content
_HEADER_EXCLUDED = {"--output", "--workers"}


# ---------------------------------------------------------------- plumbing

def _match(token: str, flags) -> str:
    """The flag ``token`` names: itself, else the one flag it is a prefix of."""
    if token in flags:
        return token
    hits = [flag for flag in flags if flag.startswith(token)]
    if len(hits) != 1:
        raise _UsageError(f"ambiguous option {token}: could be {', '.join(hits)}" if hits else f"unknown option {token}")
    return hits[0]


def _help(command: Optional[str] = None) -> str:
    """Help text from the tables: every command, or every flag of one command."""
    if command is None:
        usage, blurb, heading = "[-h] [--version] command [options]", "Adiabatic cluster-state preparation.", "commands"
        rows = [(name, text) for name, (_, _, text) in _COMMANDS.items()]
    else:
        opts, _, blurb = _COMMANDS[command]
        usage, heading = f"{command} [options]", "options"
        rows = [(opt.flag if opt.conv is None else f"{opt.flag} {opt.key.upper()}",
                 opt.help + (" (required)" if opt.default is _REQUIRED else "")) for opt in opts]
        rows += [("--config FILE", "key = value file with a section per command"), ("-h, --help", "show this help")]
    width = max(len(left) for left, _ in rows)
    lines = [f"usage: clusterprep {usage}", "", blurb, "", f"{heading}:"]
    return "\n".join(lines + [f"  {left:<{width}}  {right}" for left, right in rows]) + "\n"


def _parse(argv: list[str]):
    """The namespace of one command's flags, or the text that --help or --version prints.

    A flag is ``--flag value`` or ``--flag=value``, named in full or by a
    prefix of it alone; a value never starts with ``--``, and the last of
    repeated flags wins.  A command with --cap refuses a grid whose axes
    hold more points together, counted before any a:b:n axis is built.
    """
    if not argv:
        raise _UsageError("missing command (see clusterprep --help)")
    command, args = argv[0], iter(argv[1:])
    if command == "-h" or command.startswith("--"):
        top = "--help" if command == "-h" else _match(command, ("--help", "--version"))
        return _help() if top == "--help" else f"clusterprep {__version__}\n"
    if command not in _COMMANDS:
        raise _UsageError(f"unknown command {command!r} (choose from {', '.join(_COMMANDS)})")
    opts = {opt.flag: opt for opt in _COMMANDS[command][0]}
    flags = (*opts, "--config", "--help")
    given, config = {}, None
    for token in args:
        if token == "-h":
            return _help(command)
        name, eq, value = token.partition("=")
        if not name.startswith("--") or name == "--":
            raise _UsageError(f"unexpected argument {token!r}")
        flag = _match(name, flags)
        if flag == "--help":
            return _help(command)
        opt = opts.get(flag)
        if opt is not None and opt.conv is None:
            if eq:
                raise _UsageError(f"{flag} takes no value")
            given[opt.dest] = True
            continue
        if not eq:
            value = next(args, None)
            if value is None or value.startswith("--"):
                raise _UsageError(f"{flag} needs a value")
        if opt is None:
            config = value
            continue
        given[opt.dest] = _convert(opt.conv, value, flag)
    if config is not None:
        given = {**_config_values(config, command, opts.values()), **given}
    ns = SimpleNamespace(command=command)
    for opt in opts.values():
        value = given.get(opt.dest, opt.default)
        if value is _REQUIRED:
            raise _UsageError(f"missing required option {opt.flag}")
        setattr(ns, opt.dest, value)
    grids = [opt.dest for opt in opts.values() if isinstance(opt.conv, _Grid)]
    if hasattr(ns, "cap") and (size := math.prod(len(getattr(ns, dest)) for dest in grids)) > ns.cap:
        raise _UsageError(f"grid has {size} points, above the cap of {ns.cap}")
    for dest in grids:
        if isinstance(span := getattr(ns, dest), _Span):
            setattr(ns, dest, np.linspace(span.a, span.b, span.n).tolist())
    return ns


def _config_values(path: str, command: str, opts) -> dict:
    """The flag values in section [command] of the INI file at ``path``."""
    import configparser  # only a run that gives --config reads an INI file

    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    if not cp.read(path):
        raise _UsageError(f"config file not found: {path}")
    if not cp.has_section(command):
        return {}
    # configparser lowercases keys, so match flag names case-blind
    known = {opt.key.lower(): opt for opt in opts}
    values = {}
    for key, raw in cp.items(command):
        if key not in known:
            raise _UsageError(f"unknown key {key!r} in config section [{command}]")
        opt = known[key]
        values[opt.dest] = _convert(opt.conv or _conv_bool, raw.strip(), f"config key {key!r}")
    return values


def _convert(conv: Callable[[str], object], value: str, where: str):
    """``conv(value)``, with its ValueError as a usage error that ``where`` (a flag or config key) prefixes."""
    try:
        return conv(value)
    except ValueError as exc:
        raise _UsageError(f"{where}: {exc}") from None


def _fmt_value(v) -> str:
    if v is None:
        return "none"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, float)):
        return repr(v)
    if isinstance(v, (list, tuple)):
        return ",".join(_fmt_value(x) for x in v)
    return str(v)


def _header_comment(ns: SimpleNamespace) -> str:
    """The CSV's first line: the version, the command and every value of its table that can change rows."""
    opts = _COMMANDS[ns.command][0]
    values = vars(ns).copy()
    if values.get("hamiltonian") is not None:
        values["J"] = None  # the operator file replaces the ring, so J changes no row
    parts = [f"{opt.key}={_fmt_value(values[opt.dest])}" for opt in opts if opt.flag not in _HEADER_EXCLUDED]
    return f"# clusterprep {__version__} {ns.command} " + " ".join(parts)


def _cells(values) -> list[str]:
    """The cell rule: ``repr`` of each Python float or int, and "" for None."""
    return ["" if v is None else repr(v) for v in values]


def _csv_chunks(ns: SimpleNamespace, names: tuple[str, ...], blocks):
    """CSV text: the header comment and column names, then a chunk of rows per block of `_cells` columns."""
    yield f"{_header_comment(ns)}\n{','.join(names)}\n"
    for columns in blocks:
        yield "\n".join([*map(",".join, zip(*columns)), ""])


def _emit(path: Optional[str], chunks) -> None:
    """Write text ``chunks`` to stdout, or to ``path`` through a temporary file that any exception removes."""
    if path is None:
        sys.stdout.writelines(chunks)
        return
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException as exc:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        if isinstance(exc, OSError) and exc.filename == tmp:  # creating or renaming it: name the path given
            raise _UsageError(f"--output {path}: {exc.strerror}") from None
        raise


def _load_operator(path: Optional[str]) -> Optional[OperatorSum]:
    if path is None:
        return None
    with open(path) as fh:
        return pham.parse(fh.read())


def _static_part(ns: SimpleNamespace) -> OperatorSum:
    """The plaquette's H0 for a command: its ``--hamiltonian`` file, else the ZZ ring of bond strength ``--J``."""
    path = getattr(ns, "hamiltonian", None)
    return plaquette_ring_term(ns.J) if path is None else _load_operator(path)


def _single_lambda(values: list[float], model: str) -> float:
    if len(values) != 1:
        raise _UsageError(f"model {model} takes a single --lambda value")
    return values[0]


# ---------------------------------------------------------------- commands

def _cmd_verify(ns: SimpleNamespace) -> int:
    if ns.model == "1d":
        inst, ham = build_chain_1d(ns.N, ns.J, _single_lambda(ns.lam, "1d"))
        checks = stabilizers_1d(inst)
    elif ns.model == "2d":
        _, ham, checks = build_lattice_2d(ns.L1, ns.L2, ns.J, _single_lambda(ns.lam, "2d"))
    else:
        if len(ns.lam) not in (1, 4):
            raise _UsageError("model 3d takes one or four --lambda values")
        _, ham = build_plaquette_3d(ns.J, ns.lam if len(ns.lam) == 4 else ns.lam[0])
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


def _cmd_spectrum(ns: SimpleNamespace) -> int:
    if (ns.lambda_grid is None) == (ns.path is None):
        raise _UsageError("give exactly one of --lambda-grid or --path")
    h0 = _static_part(ns)
    if ns.lambda_grid is not None:
        table = analysis.spectrum_scan(ns.lambda_grid, h0)
    elif ns.path == "rampdown":
        if ns.lambda0 is None:
            raise _UsageError("--path rampdown requires --lambda0")
        table = analysis.spectrum_path(linear_rampdown(ns.lambda0, ns.tau), h0, ns.samples)
    else:
        if ns.lambda_init is None:
            raise _UsageError("--path sequential requires --lambda-init")
        schedule = sequential_switchoff(ns.lambda_init, ns.tau_each, ns.order)
        table = analysis.spectrum_path(schedule, h0, ns.samples)
    _emit(ns.output, _csv_chunks(ns, _SPECTRUM_COLUMNS, _spectrum_blocks(table)))
    return 0


_SPECTRUM_CHUNK = 64  # grid points per block of rows


def _spectrum_blocks(table: analysis.SectorSpectrumTable):
    """The table's CSV columns in blocks of `_SPECTRUM_CHUNK` points, one row per level."""
    levels = table.n_levels
    sector, level = dict(zip((1, -1), _cells((1, -1)))), _cells(range(levels))
    for start in range(0, table.n_points, _SPECTRUM_CHUNK):
        stop = min(start + _SPECTRUM_CHUNK, table.n_points)
        points = slice(start, stop)
        # each energy and each point value is formatted once; point values repeat over the levels
        axis, gap_global, gap_sector = (
            [cell for cell in _cells(values[points].tolist()) for _ in range(levels)]
            for values in (table.axis, table.gap_global, table.gap_sector)
        )
        energy = _cells(table.energies[points].ravel().tolist())
        sectors = [sector[s] for s in table.sectors[points].ravel().tolist()]
        yield axis, level * (stop - start), energy, sectors, gap_global, gap_sector


_EVOLVE_COLUMNS = ("t", "lambda", "fidelity", "w_plus", "w_minus")


def _cmd_evolve(ns: SimpleNamespace) -> int:
    ts = np.linspace(0.0, ns.tau, ns.samples)
    rows, report = analysis.rampdown_series(ns.T, ns.lambda0, ns.tau, ts, _static_part(ns), ns.tol)
    _emit(ns.output, _csv_chunks(ns, _EVOLVE_COLUMNS, [map(_cells, zip(*rows))]))
    prefix = "# " if ns.output is None else ""
    for key in ("fidelity", "p_z", "p_c1", "p_c2", "w_minus", "e_zeta"):
        print(f"{prefix}{key} = {getattr(report, key)!r}")
    return 0


def _sweep_group(task) -> list[tuple]:
    tau, lam0, temps, h0, tol = task
    rows = []
    for T in temps:
        r = analysis.run_point(T, lam0, tau, h0, tol)
        rows.append((tau, lam0, T, r.fidelity, r.p_z, r.p_c1, r.p_c2, r.w_minus, r.e_zeta))
    return rows


class _WorkerLost(Exception):
    """A forked sweep worker ended without reporting its groups."""


def _run_groups(groups: list, workers: int) -> list[list[tuple]]:
    """`_sweep_group` of every group, run here and in ``workers - 1`` forked children.

    Groups are claimed longest first (from the back, largest tau) through
    a baton: one 8-byte count of claimed groups, alone in a pipe, that a
    claim reads and writes back one higher, so no claim waits on a full
    pipe.  A child pickles its rows by group index, or the exception it
    raised, into its own pipe and ends with os._exit.  A failing worker
    sets the count past the last group, so no other group starts; a child
    that ends without a report is seen here before the next claim.  Every
    child is reaped on every path.
    """
    n = len(groups)
    baton_r, baton_w = os.pipe()
    os.write(baton_w, bytes(8))

    def claim(stop: bool) -> Optional[int]:
        done = int.from_bytes(os.read(baton_r, 8), "little")
        os.write(baton_w, (n if stop else min(done + 1, n)).to_bytes(8, "little"))
        return None if stop or done == n else n - 1 - done

    def run(children: list) -> dict[int, list[tuple]]:
        rows = {}
        while (i := claim(stop=any(map(_ended_badly, children)))) is not None:
            rows[i] = _sweep_group(groups[i])
        return rows

    children: list[list] = []  # [pid, report pipe, exit code once reaped]
    try:
        for _ in range(workers - 1):
            report_r, report_w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(report_r)
                os.close(report_w)
                raise
            if pid == 0:  # the child never returns into the caller
                code = 1
                try:
                    os.close(report_r)
                    try:
                        report = run([])
                    except Exception as exc:
                        claim(stop=True)
                        report = exc
                    data = pickle.dumps(report)
                    with open(report_w, "wb") as fh:
                        fh.write(data)
                    code = 0
                finally:
                    os._exit(code)
            os.close(report_w)
            children.append([pid, report_r, None])
        rows = run(children)
    except BaseException:
        claim(stop=True)
        raise
    finally:
        reports = [_reap(child) for child in children]
        os.close(baton_r)
        os.close(baton_w)
    for (pid, _, code), data in zip(children, reports):
        if data is None:
            raise _WorkerLost(f"sweep worker {pid} ended without reporting (exit code {code})")
        report = pickle.loads(data)
        if isinstance(report, BaseException):
            raise report
        rows.update(report)
    return [rows[i] for i in range(n)]


def _ended_badly(child: list) -> bool:
    """Reap ``child`` if it has ended; True when it ended with a non-zero exit code."""
    if child[2] is None:
        pid, status = os.waitpid(child[0], os.WNOHANG)
        if pid:
            child[2] = os.waitstatus_to_exitcode(status)
    return bool(child[2])


def _reap(child: list) -> Optional[bytes]:
    """The child's pickled report, or None when it ended without one; reads to EOF, then reaps."""
    with open(child[1], "rb") as fh:
        data = fh.read()
    if child[2] is None:
        child[2] = os.waitstatus_to_exitcode(os.waitpid(child[0], 0)[1])
    return data if child[2] == 0 else None


_SWEEP_COLUMNS = ("tau", "lambda0", "T", "fidelity", "p_z", "p_c1", "p_c2", "w_minus", "e_zeta")


def _cmd_sweep(ns: SimpleNamespace) -> int:
    temps = sorted(ns.T)
    lam0s = sorted(ns.lambda0)
    taus = sorted(ns.tau)
    if ns.workers > 1 and not hasattr(os, "fork"):
        raise _UsageError("--workers above 1 needs os.fork, which this platform lacks")
    h0 = _static_part(ns)
    groups = [(tau, lam0, tuple(temps), h0, ns.tol) for tau in taus for lam0 in lam0s]
    # this process is one of the workers: fork no more children than there are other groups
    results = _run_groups(groups, min(ns.workers, len(groups)))
    rows = [row for group_rows in results for row in group_rows]
    _emit(ns.output, _csv_chunks(ns, _SWEEP_COLUMNS, [map(_cells, zip(*rows))]))
    return 0


def _cmd_phase_diagram(ns: SimpleNamespace) -> int:
    taus = sorted(ns.tau)
    lam0s = sorted(ns.lambda0_grid)
    names = ("tau", "lambda0", "T_star")
    if ns.no_evolution:
        names = names + ("T_star_no_evolution",)
    h0 = _static_part(ns)

    def threshold(lam0: float, tau: Optional[float], what: str):
        try:
            t_star = analysis.threshold_temperature(lam0, tau, h0, ns.target, ns.T_bracket, ns.tol)
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
    _emit(ns.output, _csv_chunks(ns, names, [map(_cells, zip(*rows))]))
    return 0


# ---------------------------------------------------------------- entry

_COMMANDS = {
    "verify": (_VERIFY_OPTS, _cmd_verify, "check that every conserved check commutes with the Hamiltonian"),
    "spectrum": (_SPECTRUM_OPTS, _cmd_spectrum, "sector-labeled plaquette spectra over a grid or schedule"),
    "evolve": (_EVOLVE_OPTS, _cmd_evolve, "run one cool-then-rampdown point and report its error channel"),
    "sweep": (_SWEEP_OPTS, _cmd_sweep, "error channel over a (tau, lambda0, T) grid"),
    "phase-diagram": (_PHASE_OPTS, _cmd_phase_diagram, "threshold temperatures over a coupling grid"),
}


def main(argv=None) -> int:
    try:
        ns = _parse(sys.argv[1:] if argv is None else list(argv))
        if isinstance(ns, str):
            sys.stdout.write(ns)
            code = 0
        else:
            code = _COMMANDS[ns.command][1](ns)
        sys.stdout.flush()  # a closed stdout raises here, not at the interpreter's exit
        return code
    except BrokenPipeError:  # the reader stopped early: exit as SIGPIPE would, with nothing on stderr
        return 141
    # LinAlgError subclasses ValueError, so the numerical clause comes first
    except (linalg.ConvergenceError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except _WorkerLost as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 3
    except (_UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    code = main(sys.argv[1:])
    if code == 141:  # the interpreter flushes stdout once more at exit; send what is left nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entry()
