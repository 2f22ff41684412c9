"""Command-line behavior: exit codes, CSV artifacts, config handling.

Everything here drives ``cli.main`` in-process so stdout/stderr and exit
codes can be asserted exactly; one test goes through a real subprocess
to cover the module entry point.
"""

import contextlib
import importlib
import io
import os
import pkgutil
import subprocess
import sys
from concurrent.futures import Future
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import clusterprep
from clusterprep import analysis, cli, evolve, pham
from clusterprep.evolve import linear_rampdown, sequential_switchoff
from clusterprep.models import build_plaquette_3d, plaquette_ring_term
from clusterprep.pauli import OperatorSum, PauliString


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def data_lines(text: str) -> list:
    # strip the header comment and the column row
    lines = text.splitlines()
    assert lines[0].startswith("# clusterprep")
    return lines[2:]


def test_version_flag():
    code, out, _ = run_cli("--version")
    assert code == 0
    assert "clusterprep" in out


def test_missing_command_is_usage_error():
    code, _, _ = run_cli()
    assert code == 2


# ------------------------------------------------------------------ verify

def test_verify_chain_reports_exact_zeros():
    code, out, _ = run_cli("verify", "--model", "1d", "--N", "4", "--lambda", "0.3")
    assert code == 0
    assert "check[0] residual = 0.0" in out
    assert "all 4 checks exactly conserved" in out


def test_verify_other_models():
    assert run_cli("verify", "--model", "2d", "--L1", "2", "--L2", "2", "--lambda", "0.5")[0] == 0
    assert run_cli("verify", "--model", "3d", "--lambda", "2.5")[0] == 0
    # the plaquette accepts four per-spin couplings
    assert run_cli("verify", "--model", "3d", "--lambda", "0.5,1,1.5,2")[0] == 0


def test_verify_rejects_coupling_list_for_chain():
    code, _, err = run_cli("verify", "--model", "1d", "--lambda", "0.1,0.2")
    assert code == 2
    assert "single --lambda" in err


def test_verify_rejects_short_chain():
    code, _, err = run_cli("verify", "--model", "1d", "--N", "2")
    assert code == 2
    assert "N >= 3" in err


def test_verify_custom_operator(tmp_path):
    _, ham = build_plaquette_3d(1.0, 1.5)
    good = tmp_path / "plaquette.pham"
    good.write_text(pham.serialize(ham))
    code, out, _ = run_cli("verify", "--model", "3d", "--hamiltonian", str(good))
    assert code == 0 and "exactly conserved" in out

    broken = ham + OperatorSum(4, [(0.25, PauliString.from_ops(4, {0: "Z"}))])
    bad = tmp_path / "broken.pham"
    bad.write_text(pham.serialize(broken))
    code, out, err = run_cli("verify", "--model", "3d", "--hamiltonian", str(bad))
    assert code == 1
    assert "conservation violated" in err
    assert "residual = 0.5" in out  # [Z0, XXXX] has 1-norm 2*0.25


def test_verify_operator_width_mismatch(tmp_path):
    f = tmp_path / "narrow.pham"
    f.write_text("qubits 3\n1 * Z0 Z1")
    code, _, err = run_cli("verify", "--model", "3d", "--hamiltonian", str(f))
    assert code == 2
    assert "acts on 3 qubits" in err


def test_verify_malformed_operator_file(tmp_path):
    f = tmp_path / "broken.pham"
    f.write_text("qubits 2\n1 Z0")
    code, _, err = run_cli("verify", "--model", "3d", "--hamiltonian", str(f))
    assert code == 2
    assert "line 2" in err


def test_verify_missing_operator_file():
    code, _, err = run_cli("verify", "--model", "3d", "--hamiltonian", "/nonexistent.pham")
    assert code == 2


# ---------------------------------------------------------------- spectrum

def test_spectrum_grid_row_count():
    code, out, _ = run_cli("spectrum", "--lambda-grid", "0:2.5:6")
    assert code == 0
    rows = data_lines(out)
    assert len(rows) == 6 * 16
    assert out.splitlines()[1] == "lambda_or_time,level,energy,sector,gap_global,gap_sector"


def test_spectrum_first_row_is_level_zero_at_zero_coupling():
    code, out, _ = run_cli("spectrum", "--lambda-grid", "0:2.5:11")
    assert code == 0
    assert data_lines(out)[0].startswith("0.0,0,")


def test_spectrum_requires_exactly_one_source():
    code, _, err = run_cli("spectrum")
    assert code == 2 and "exactly one" in err
    code, _, err = run_cli("spectrum", "--lambda-grid", "1.0", "--path", "rampdown")
    assert code == 2 and "exactly one" in err


def test_spectrum_path_requirements():
    code, _, err = run_cli("spectrum", "--path", "rampdown")
    assert code == 2 and "--lambda0" in err
    code, _, err = run_cli("spectrum", "--path", "sequential")
    assert code == 2 and "--lambda-init" in err
    code, out, _ = run_cli(
        "spectrum", "--path", "sequential", "--lambda-init", "2.0", "--samples", "11"
    )
    assert code == 0
    assert len(data_lines(out)) == 11 * 16


def test_spectrum_output_file_is_atomic(tmp_path):
    target = tmp_path / "levels.csv"
    code, out, _ = run_cli("spectrum", "--lambda-grid", "1.0", "--output", str(target))
    assert code == 0 and out == ""
    text = target.read_text()
    assert text.startswith("# clusterprep")
    assert "output=" not in text.splitlines()[0]
    assert list(tmp_path.glob("*.tmp.*")) == []


def test_spectrum_static_replacement_matches_builtin(tmp_path):
    ring = tmp_path / "ring.pham"
    ring.write_text(pham.serialize(plaquette_ring_term(1.0)))
    _, base, _ = run_cli("spectrum", "--lambda-grid", "0:1.5:4")
    _, swapped, _ = run_cli(
        "spectrum", "--lambda-grid", "0:1.5:4", "--hamiltonian", str(ring)
    )
    # identical rows; only the header comment records the different flags
    assert base.splitlines()[1:] == swapped.splitlines()[1:]


def test_spectrum_of_a_check_breaking_operator_file_is_usage_error(tmp_path):
    broken = tmp_path / "broken.pham"
    extra = OperatorSum(4, [(0.3, PauliString.from_label("ZIII"))])
    broken.write_text(pham.serialize(plaquette_ring_term(1.0) + extra))
    code, out, err = run_cli("spectrum", "--lambda-grid", "0:1:3", "--hamiltonian", str(broken))
    assert code == 2 and out == ""
    assert "mixed check sector" in err


# ------------------------------------------------------------------ evolve

EVOLVE_ARGS = ("--T", "0.5", "--lambda0", "1.0", "--tau", "0.5", "--tol", "1e-6", "--samples", "3")


def test_evolve_stdout_report():
    code, out, _ = run_cli("evolve", *EVOLVE_ARGS)
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "t,lambda,fidelity,w_plus,w_minus"
    assert len([l for l in lines[2:] if not l.startswith("#")]) == 3
    # on stdout the trailing report rides along as comments
    assert any(l.startswith("# fidelity = ") for l in lines)
    assert any(l.startswith("# e_zeta = ") for l in lines)


def test_evolve_output_file(tmp_path):
    target = tmp_path / "run.csv"
    code, out, _ = run_cli("evolve", *EVOLVE_ARGS, "--output", str(target))
    assert code == 0
    assert out.startswith("fidelity = ")  # report keeps stdout, unprefixed
    rows = data_lines(target.read_text())
    assert len(rows) == 3
    first = rows[0].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 1.0


def test_evolve_requires_its_parameters():
    code, _, err = run_cli("evolve", "--T", "0.5")
    assert code == 2
    assert "missing required option" in err


def test_evolve_static_replacement_matches_builtin(tmp_path):
    ring = tmp_path / "ring.pham"
    ring.write_text(pham.serialize(plaquette_ring_term(1.0)))
    _, base, _ = run_cli("evolve", *EVOLVE_ARGS)
    _, swapped, _ = run_cli("evolve", *EVOLVE_ARGS, "--hamiltonian", str(ring))
    assert base.splitlines()[1:] == swapped.splitlines()[1:]


# ------------------------------------------------------------------- sweep

SWEEP_ARGS = ("--T", "0.5,0.1", "--lambda0", "1.0", "--tau", "1.0,0.5", "--tol", "1e-6")


def test_sweep_rows_are_sorted():
    code, out, _ = run_cli("sweep", *SWEEP_ARGS)
    assert code == 0
    rows = [line.split(",")[:3] for line in data_lines(out)]
    assert rows == [
        ["0.5", "1.0", "0.1"],
        ["0.5", "1.0", "0.5"],
        ["1.0", "1.0", "0.1"],
        ["1.0", "1.0", "0.5"],
    ]


def test_sweep_byte_identical_across_workers_and_runs(tmp_path):
    a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    assert run_cli("sweep", *SWEEP_ARGS, "--workers", "1", "--output", str(a))[0] == 0
    assert run_cli("sweep", *SWEEP_ARGS, "--workers", "2", "--output", str(b))[0] == 0
    assert run_cli("sweep", *SWEEP_ARGS, "--workers", "1", "--output", str(c))[0] == 0
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()
    assert "workers=" not in a.read_text().splitlines()[0]
    # four (tau, lambda0) groups; each run starts with the model, frame and readout
    # caches cold, so every worker builds its own
    grid = ("--T", "0.5,0.1", "--lambda0", "1.0,1.5", "--tau", "1.0,0.5", "--tol", "1e-6")
    outputs = []
    for workers in ("3", "1", "2", "3"):
        for cached in (analysis._readout, analysis.plaquette_parts, evolve._sector_frame):
            cached.cache_clear()
        path = tmp_path / f"grid-{len(outputs)}.csv"
        assert run_cli("sweep", *grid, "--workers", workers, "--output", str(path))[0] == 0
        outputs.append(path.read_bytes())
    assert len(data_lines(outputs[0].decode())) == 8
    assert outputs.count(outputs[0]) == 4


def test_sweep_pool_is_no_larger_than_its_groups(monkeypatch):
    pools = []

    class RecordingPool:
        # stands in for the process pool: records its size and never starts a
        # group, so the calling process cancels and runs every one
        def __init__(self, max_workers):
            pools.append(max_workers)

        def submit(self, fn, *args):
            return Future()

        def shutdown(self, cancel_futures):
            pass

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    code, _, _ = run_cli("sweep", "--T", "0.5,0.1", "--lambda0", "1.0", "--tau", "0.5", "--tol", "1e-6", "--workers", "64")
    assert code == 0 and pools == []  # one (tau, lambda0) group runs in-process
    code, two_groups, _ = run_cli("sweep", *SWEEP_ARGS, "--workers", "64")
    assert code == 0 and pools == [1]  # two workers: the calling process and one in the pool
    assert two_groups == run_cli("sweep", *SWEEP_ARGS, "--workers", "1")[1]


def test_sweep_cap():
    code, _, err = run_cli("sweep", *SWEEP_ARGS, "--cap", "3")
    assert code == 2
    assert "above the cap" in err


def test_grid_syntax_errors():
    assert run_cli("sweep", "--T", "", "--lambda0", "1", "--tau", "1")[0] == 2
    assert run_cli("sweep", "--T", "0.1:1.0", "--lambda0", "1", "--tau", "1")[0] == 2
    assert run_cli("sweep", "--T", "0.1", "--lambda0", "1", "--tau", "-1")[0] == 2
    assert run_cli("sweep", "--T", "0.1,,0.5", "--lambda0", "1", "--tau", "1")[0] == 2


# ------------------------------------------------------------------ config

def write_config(tmp_path, body: str):
    cfg = tmp_path / "run.ini"
    cfg.write_text(body)
    return str(cfg)


def test_config_supplies_required_options(tmp_path):
    cfg = write_config(
        tmp_path,
        "[sweep]\nT = 0.1\nlambda0 = 1.0\ntau = 0.5\ntol = 1e-6  # inline comment\n",
    )
    code, out, _ = run_cli("sweep", "--config", cfg)
    assert code == 0
    assert len(data_lines(out)) == 1


def test_config_flag_precedence(tmp_path):
    cfg = write_config(tmp_path, "[sweep]\nT = 0.1\nlambda0 = 1.0\ntau = 0.5\ntol = 1e-6\n")
    code, out, _ = run_cli("sweep", "--config", cfg, "--T", "0.2")
    assert code == 0
    assert data_lines(out)[0].split(",")[2] == "0.2"  # flag beat the file


def test_config_unknown_key(tmp_path):
    cfg = write_config(tmp_path, "[sweep]\nT = 0.1\nlambda0 = 1\ntau = 1\nbogus = 3\n")
    code, _, err = run_cli("sweep", "--config", cfg)
    assert code == 2
    assert "unknown key 'bogus'" in err


def test_config_missing_file():
    code, _, err = run_cli("sweep", "--config", "/does/not/exist.ini")
    assert code == 2
    assert "config file not found" in err


def test_config_bad_value(tmp_path):
    cfg = write_config(tmp_path, "[sweep]\nT = fast\nlambda0 = 1\ntau = 1\n")
    code, _, err = run_cli("sweep", "--config", cfg)
    assert code == 2
    assert "config key 't'" in err


def test_config_bad_boolean(tmp_path):
    cfg = write_config(
        tmp_path, "[phase-diagram]\nlambda0-grid = 1.0\ntau = 1.0\nno-evolution = maybe\n"
    )
    code, _, err = run_cli("phase-diagram", "--config", cfg)
    assert code == 2
    assert "must be a boolean" in err


# ---------------------------------------------------------- phase diagram

def test_phase_diagram_thresholds_and_empty_cells():
    code, out, err = run_cli(
        "phase-diagram", "--lambda0-grid", "2.5", "--tau", "5", "--no-evolution"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "tau,lambda0,T_star,T_star_no_evolution"
    cells = lines[2].split(",")
    assert cells[0] == "5.0" and cells[1] == "2.5"
    assert float(cells[2]) == pytest.approx(1.0800931450767677, abs=1e-6)
    assert cells[3] == ""  # unevolved threshold below the bracket
    assert "no threshold in bracket for no-evolution" in err


def plain_cells(text: str) -> list:
    return [cell for line in data_lines(text) if not line.startswith("#") for cell in line.split(",")]


def is_plain_literal(cell: str) -> bool:
    if cell.lstrip("-").isdigit():
        return cell == str(int(cell))
    try:
        return cell == repr(float(cell))
    except ValueError:
        return False


def test_csv_cells_are_empty_or_plain_literals():
    # a numpy scalar reaching the writer would print as np.float64(...)
    outputs = [
        run_cli("spectrum", "--lambda-grid", "0:1.5:4"),
        run_cli("spectrum", "--path", "sequential", "--lambda-init", "2", "--samples", "5"),
        run_cli("evolve", *EVOLVE_ARGS),
        run_cli("sweep", *SWEEP_ARGS),
        run_cli("phase-diagram", "--lambda0-grid", "2.5", "--tau", "5", "--no-evolution"),
    ]
    assert all(code == 0 for code, _, _ in outputs)
    cells = [cell for _, out, _ in outputs for cell in plain_cells(out)]
    assert "" in cells  # the unevolved threshold below the bracket
    assert [cell for cell in cells if cell and not is_plain_literal(cell)] == []


def spectrum_rows(table):
    for i in range(table.n_points):
        for level in range(table.n_levels):
            yield (
                float(table.axis[i]),
                level,
                float(table.energies[i, level]),
                int(table.sectors[i, level]),
                float(table.gap_global[i]),
                float(table.gap_sector[i]),
            )


def sweep_rows():
    # the SWEEP_ARGS grid in sorted order
    for tau in (0.5, 1.0):
        for T in (0.1, 0.5):
            r = analysis.run_point(T, 1.0, tau, 1.0, 1e-6)
            channel = (r.fidelity, r.p_z, r.p_c1, r.p_c2, r.w_minus, r.e_zeta)
            yield (tau, 1.0, T, *map(float, channel))


def phase_rows():
    def t_star(tau):
        t = analysis.threshold_temperature(2.5, tau, 1.0, 0.03, (1e-3, 3.0), 1e-8)
        return None if t is None else float(t)

    unevolved = t_star(None)
    assert unevolved is None  # below the bracket, so the row ends in an empty cell
    yield (5.0, 2.5, t_star(5.0), unevolved)


def evolve_rows():
    # the EVOLVE_ARGS run
    rows, _ = analysis.rampdown_series(0.5, 1.0, 0.5, np.linspace(0.0, 0.5, 3), 1.0, 1e-6)
    for row in rows:
        yield tuple(map(float, row))


SPECTRUM = "lambda_or_time,level,energy,sector,gap_global,gap_sector"
BYTE_CASES = {
    "grid": (("spectrum", "--lambda-grid", "0:2.5:41"), SPECTRUM,
             lambda: spectrum_rows(analysis.spectrum_scan(1.0, np.linspace(0.0, 2.5, 41)))),
    "sequential": (("spectrum", "--path", "sequential", "--lambda-init", "2", "--order", "3,1,4,2", "--samples", "33"),
                   SPECTRUM,
                   lambda: spectrum_rows(analysis.spectrum_path(sequential_switchoff(2.0, 1.0, (3, 1, 4, 2)), 1.0, 33))),
    "rampdown": (("spectrum", "--path", "rampdown", "--lambda0", "2.5", "--samples", "21"), SPECTRUM,
                 lambda: spectrum_rows(analysis.spectrum_path(linear_rampdown(2.5, 1.0), 1.0, 21))),
    "sweep": (("sweep", *SWEEP_ARGS), "tau,lambda0,T,fidelity,p_z,p_c1,p_c2,w_minus,e_zeta", sweep_rows),
    "phase-diagram": (("phase-diagram", "--lambda0-grid", "2.5", "--tau", "5", "--no-evolution"),
                      "tau,lambda0,T_star,T_star_no_evolution", phase_rows),
    "evolve": (("evolve", *EVOLVE_ARGS), "t,lambda,fidelity,w_plus,w_minus", evolve_rows),
}


@pytest.mark.parametrize("case", BYTE_CASES)
def test_csv_bytes_match_the_per_row_formatter(case, tmp_path):
    argv, names, rows = BYTE_CASES[case]
    target = tmp_path / "out.csv"
    assert run_cli(*argv, "--output", str(target))[0] == 0
    text = target.read_bytes().decode()
    header = text.splitlines()[0]
    assert header.startswith(f"# clusterprep {cli.__version__} {argv[0]} ")
    lines = [",".join("" if c is None else repr(c) for c in row) for row in rows()]
    # split on newlines is lossless; a list keeps pytest's failure report short
    assert text.split("\n") == [header, names, *lines, ""]


def test_phase_diagram_bracket_flag():
    code, _, _ = run_cli("phase-diagram", "--lambda0-grid", "1", "--tau", "1", "--T-bracket", "2:1")
    assert code == 2


def test_phase_diagram_computes_each_no_evolution_threshold_once():
    code, out, err = run_cli("phase-diagram", "--lambda0-grid", "1.5,2.5", "--tau", "2,5", "--no-evolution")
    assert code == 0
    assert len(data_lines(out)) == 4
    for lam0 in ("1.5", "2.5"):
        assert err.count(f"no threshold in bracket for no-evolution lambda0={lam0}\n") == 1


def test_phase_diagram_survives_a_dip_far_above_the_target():
    code, out, err = run_cli("phase-diagram", "--lambda0-grid", "2.6", "--tau", "3", "--no-evolution")
    assert code == 0
    assert data_lines(out) == ["3.0,2.6,,"]


def test_phase_diagram_non_monotone_error_is_numerical_failure(monkeypatch):
    # an error that falls with temperature across the target fails the monotonicity check
    falling = SimpleNamespace(e_zeta=lambda T: 0.06 / (1.0 + T))
    monkeypatch.setattr(analysis, "_readout", lambda *args: falling)
    code, out, err = run_cli("phase-diagram", "--lambda0-grid", "2.5", "--tau", "5")
    assert code == 3
    assert out == ""
    assert "numerical failure: error is not monotone" in err


@pytest.fixture
def fresh_readouts():
    analysis._readout.cache_clear()
    yield
    analysis._readout.cache_clear()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_failed_state_check_is_numerical_failure(monkeypatch, fresh_readouts, tmp_path, workers):
    # a non-unitary propagator gives readout weights that sum to 4; with two
    # workers the last group fails in this process, and its forked worker
    # inherits the patch
    monkeypatch.setattr(analysis, "schedule_unitary", lambda *args: 2.0 * np.eye(16, dtype=complex))
    code, out, err = run_cli("sweep", *SWEEP_ARGS, "--workers", workers)
    assert code == 3
    assert out == ""
    assert "numerical failure: evolved state failed its check" in err
    code, out, _ = run_cli("sweep", *SWEEP_ARGS, "--workers", workers, "--output", str(tmp_path / "sweep.csv"))
    assert (code, out) == (3, "")
    assert list(tmp_path.iterdir()) == []  # no partial output or temporary file


def _package_env():
    # the child imports the same package tree as this process
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_cli_import_leaves_scipy_unloaded():
    # scipy is a test-only oracle; the runtime depends on numpy alone
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, clusterprep.cli; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
        timeout=120,
        env=_package_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_traced_sweep_runs_and_every_public_name_resolves():
    # the benchmark's tracer wraps public names (and DensityMatrix.from_matrix)
    # by name, so a prune that breaks it fails here, not only in the benchmark
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    script = (
        f"import sys; sys.path.insert(0, {str(bench)!r}); import tracer; t = tracer.install()\n"
        "from clusterprep import cli\n"
        "code = cli.main(['sweep', '--T', '0.5', '--lambda0', '1.0', '--tau', '0.5', '--tol', '1e-6'])\n"
        "print(code, sorted({span[0] for span in t.spans}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
                          env=_package_env())
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.strip().splitlines()[-1]
    assert last.startswith("0 ") and "'evolve.schedule_unitary'" in last and "'analysis.run_point'" in last
    names = [f"clusterprep.{m.name}" for m in pkgutil.iter_modules(clusterprep.__path__)]
    modules = [clusterprep, *map(importlib.import_module, names)]
    missing = [f"{mod.__name__}.{name}" for mod in modules for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "clusterprep.cli", "--version"],
        capture_output=True,
        text=True,
        timeout=120,
        env=_package_env(),
    )
    assert proc.returncode == 0
    assert "clusterprep" in proc.stdout
