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
import select
import subprocess
import sys
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import clusterprep
from clusterprep import analysis, cli, evolve, linalg, pham
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


def test_version_output_is_unchanged():
    assert run_cli("--version") == (0, f"clusterprep {clusterprep.__version__}\n", "")
    assert run_cli("--vers") == run_cli("--version")  # a unique prefix


def test_top_level_help_lists_every_command():
    for argv in (("--help",), ("-h",)):
        code, out, err = run_cli(*argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage: clusterprep")
        for name in ("verify", "spectrum", "evolve", "sweep", "phase-diagram"):
            assert f"\n  {name} " in out


@pytest.mark.parametrize("command", ["verify", "spectrum", "evolve", "sweep", "phase-diagram"])
def test_command_help_lists_every_flag_of_its_table(command):
    opts = cli._COMMANDS[command][0]
    for argv in ((command, "--help"), (command, "-h"), (command, "--config", "missing.ini", "--he")):
        code, out, err = run_cli(*argv)
        assert (code, err) == (0, "")
        assert out.startswith(f"usage: clusterprep {command} ")
        listed = {line.split()[0].rstrip(",") for line in out.splitlines() if line.startswith("  -")}
        assert listed == {opt.flag for opt in opts} | {"--config", "-h"}


def test_flag_equals_value_and_unique_prefix_match_the_full_flag():
    full = run_cli("spectrum", "--lambda-grid", "0:1:3")
    assert full[0] == 0
    assert run_cli("spectrum", "--lambda-grid=0:1:3") == full
    assert run_cli("spectrum", "--lambda-g", "0:1:3") == full
    assert run_cli("spectrum", "--lambda-g=0:1:3") == full
    # an exact flag wins over the longer flags it is a prefix of
    sweep = run_cli("sweep", "--T", "0.5", "--lambda0", "1.0", "--tau", "0.5", "--tol", "1e-6")
    assert sweep[0] == 0
    assert run_cli("sweep", "--T=0.5", "--lam", "1.0", "--ta", "0.5", "--to=1e-6") == sweep


def test_repeated_flag_keeps_the_last_value():
    code, out, _ = run_cli("spectrum", "--lambda-grid", "5", "--lambda-grid", "0:1:3")
    assert code == 0
    assert " lambda-grid=0.0,0.5,1.0 " in out.splitlines()[0]
    assert len(data_lines(out)) == 3 * 16


@pytest.mark.parametrize(
    "argv, message",
    [
        (("spectrum", "--lambda", "1.0"), "ambiguous option --lambda: could be --lambda-grid, --lambda0, --lambda-init"),
        (("sweep", "--T", "0.5", "--t", "1"), "ambiguous option --t: could be --tau, --tol"),
        (("spectrum", "--lambda-grid", "1", "--bogus", "1"), "unknown option --bogus"),
        (("spectrum", "--lambda-grid"), "--lambda-grid needs a value"),
        (("spectrum", "--lambda-grid", "--output", "x.csv"), "--lambda-grid needs a value"),
        (("phase-diagram", "--lambda0-grid", "1", "--tau", "1", "--no-evolution=yes"), "--no-evolution takes no value"),
        (("spectrum", "--lambda-grid", "1", "0.5"), "unexpected argument '0.5'"),
        (("spectrum", "--", "--lambda-grid", "1"), "unexpected argument '--'"),
        (("spectrum", "--lambda-grid", "1", "-x"), "unexpected argument '-x'"),
        (("plot",), "unknown command 'plot'"),
        (("--bogus",), "unknown option --bogus"),
        (("spectrum", "--lambda-grid", "0:1"), "--lambda-grid: grid must be a:b:n"),
        (("sweep", "--version"), "unknown option --version"),
    ],
)
def test_malformed_command_lines_are_usage_errors(argv, message):
    code, out, err = run_cli(*argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


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


def test_verify_rejects_three_couplings_for_plaquette():
    code, _, err = run_cli("verify", "--model", "3d", "--lambda", "0.1,0.2,0.3")
    assert code == 2
    assert "model 3d takes one or four --lambda values" in err


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


@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", "--path", "rampdown", "--lambda0", "1", "--tau", "1e-320"),
        # at three samples every sample falls on a knot, where the couplings are exact
        ("spectrum", "--path", "sequential", "--lambda-init", "1", "--tau-each", "1e-320", "--samples", "3"),
        ("spectrum", "--path", "sequential", "--lambda-init", "1", "--tau-each", "1e-320", "--samples", "4"),
        ("evolve", "--T", "0.3", "--lambda0", "1", "--tau", "1e-320"),
        ("sweep", "--T", "0.3", "--lambda0", "1", "--tau", "1e-320"),
        ("phase-diagram", "--lambda0-grid", "1", "--tau", "1e-320"),
    ],
)
def test_schedule_whose_coupling_slope_overflows_is_a_usage_error(argv):
    code, out, err = run_cli(*argv)
    assert (code, out) == (2, "")
    assert err == "error: every coupling's slope between knots must be finite\n"


def test_spectrum_output_file_is_atomic(tmp_path):
    target = tmp_path / "levels.csv"
    code, out, _ = run_cli("spectrum", "--lambda-grid", "1.0", "--output", str(target))
    assert code == 0 and out == ""
    text = target.read_text()
    assert text.startswith("# clusterprep")
    assert "output=" not in text.splitlines()[0]
    assert list(tmp_path.glob("*.tmp.*")) == []


def test_spectrum_that_fails_mid_stream_leaves_no_file(monkeypatch, tmp_path):
    target = tmp_path / "levels.csv"
    blocks = cli._spectrum_blocks

    def failing(table):
        rows = blocks(table)
        yield next(rows)
        assert list(tmp_path.glob("levels.csv.tmp.*")) != []  # the first block was handed to the temporary file
        raise FloatingPointError("block failed")

    monkeypatch.setattr(cli, "_spectrum_blocks", failing)
    code, out, err = run_cli("spectrum", "--lambda-grid", "0:2.5:200", "--output", str(target))
    assert (code, out) == (3, "")
    assert "numerical failure: block failed" in err
    assert list(tmp_path.iterdir()) == []


def test_spectrum_streams_the_table_in_blocks_of_points(monkeypatch):
    whole = run_cli("spectrum", "--lambda-grid", "0:2.5:130")
    monkeypatch.setattr(cli, "_SPECTRUM_CHUNK", 7)
    assert run_cli("spectrum", "--lambda-grid", "0:2.5:130") == whole
    monkeypatch.setattr(cli, "_SPECTRUM_CHUNK", 130)
    assert run_cli("spectrum", "--lambda-grid", "0:2.5:130") == whole


def test_spectrum_static_replacement_matches_builtin(tmp_path):
    ring = tmp_path / "ring.pham"
    ring.write_text(pham.serialize(plaquette_ring_term(1.0)))
    _, base, _ = run_cli("spectrum", "--lambda-grid", "0:1.5:4")
    swapped, bond5 = (run_cli("spectrum", "--lambda-grid", "0:1.5:4", "--hamiltonian", str(ring), "--J", J)[1]
                      for J in ("1", "5"))
    # identical rows; only the header comment records the different flags
    assert base.splitlines()[1:] == swapped.splitlines()[1:]
    # the file replaces the ring, so --J changes no byte and the header records J=none
    assert bond5 == swapped
    assert " J=none " in swapped.splitlines()[0] and " J=1.0 " in base.splitlines()[0]


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
    swapped, bond5 = (run_cli("evolve", *EVOLVE_ARGS, "--hamiltonian", str(ring), "--J", J)[1] for J in ("1", "5"))
    assert base.splitlines()[1:] == swapped.splitlines()[1:]
    assert bond5 == swapped
    assert " J=none " in swapped.splitlines()[0]


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
        for cached in (analysis._readout, analysis.plaquette_parts, evolve._sector_blocks, evolve._sector_basis):
            cached.cache_clear()
        path = tmp_path / f"grid-{len(outputs)}.csv"
        assert run_cli("sweep", *grid, "--workers", workers, "--output", str(path))[0] == 0
        outputs.append(path.read_bytes())
    assert len(data_lines(outputs[0].decode())) == 8
    assert outputs.count(outputs[0]) == 4


def _recording_forks(monkeypatch) -> list:
    # the pids of the children that os.fork makes in this process
    real_fork, pids = os.fork, []

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def test_sweep_pool_is_no_larger_than_its_groups(monkeypatch):
    # the calling process is one of the workers, so it forks at most groups - 1 children
    forks = _recording_forks(monkeypatch)
    code, _, _ = run_cli("sweep", "--T", "0.5,0.1", "--lambda0", "1.0", "--tau", "0.5", "--tol", "1e-6", "--workers", "64")
    assert code == 0 and forks == []  # one (tau, lambda0) group runs in-process
    code, two_groups, _ = run_cli("sweep", *SWEEP_ARGS, "--workers", "64")
    assert code == 0 and len(forks) == 1  # two workers: the calling process and one child
    assert two_groups == run_cli("sweep", *SWEEP_ARGS, "--workers", "1")[1]
    for pid in forks:
        with pytest.raises(ChildProcessError):  # already reaped
            os.waitpid(pid, os.WNOHANG)


def test_sweep_worker_that_dies_without_reporting_fails_the_run(monkeypatch, tmp_path):
    forks = _recording_forks(monkeypatch)
    parent, real_group = os.getpid(), cli._sweep_group
    gate_r, gate_w = os.pipe()
    open_ends = [gate_r, gate_w]

    def group(task):
        if os.getpid() != parent:
            os._exit(1)
        # the child holds the gate's only other write end, so it reads at EOF once the child is dead
        os.close(open_ends.pop())
        assert select.select([gate_r], [], [], 60.0)[0] and os.read(gate_r, 1) == b""
        return real_group(task)

    monkeypatch.setattr(cli, "_sweep_group", group)
    try:
        code, out, err = run_cli("sweep", *SWEEP_ARGS, "--workers", "2", "--output", str(tmp_path / "sweep.csv"))
    finally:
        for fd in open_ends:
            os.close(fd)
    assert (code, out) == (3, "")
    assert f"sweep worker {forks[0]} ended without reporting (exit code 1)" in err
    assert list(tmp_path.iterdir()) == []  # no partial output or temporary file
    with pytest.raises(ChildProcessError):
        os.waitpid(forks[0], os.WNOHANG)


def test_sweep_starts_no_group_after_a_failure(monkeypatch):
    # 50 groups; the first claimed (largest tau) fails at once, in either process, so
    # at most the other process's first group, still running then, starts besides it
    started_r, started_w = os.pipe()

    def group(task):
        os.write(started_w, b"g")
        if task[0] == 50.0:
            raise linalg.ConvergenceError("first group failed")
        time.sleep(0.2)
        return [(*task[:2], T, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0) for T in task[2]]

    monkeypatch.setattr(cli, "_sweep_group", group)
    try:
        code, out, err = run_cli("sweep", "--T", "0.5", "--lambda0", "1.0", "--tau", "1:50:50", "--workers", "2")
        os.set_blocking(started_r, False)
        started = os.read(started_r, 100)
    finally:
        os.close(started_r)
        os.close(started_w)
    assert (code, out) == (3, "")
    assert "numerical failure: first group failed" in err
    assert started in (b"g", b"gg")


def test_sweep_claims_more_groups_than_a_pipe_holds(monkeypatch):
    # 129 x 128 = 16512 groups: more than a 64 KiB pipe holds as 4-byte claims, so no
    # claim may wait on a full pipe
    monkeypatch.setattr(cli, "_sweep_group", lambda task: [(*task[:2], T, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0) for T in task[2]])
    args = ("sweep", "--T", "0.5", "--lambda0", "1:128:128", "--tau", "1:129:129")
    code, two_workers, _ = run_cli(*args, "--workers", "2")
    assert code == 0 and len(data_lines(two_workers)) == 16512
    assert two_workers == run_cli(*args, "--workers", "1")[1]


def test_sweep_workers_need_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")
    code, out, err = run_cli("sweep", *SWEEP_ARGS, "--workers", "2")
    assert (code, out) == (2, "")
    assert "needs os.fork" in err
    assert run_cli("sweep", *SWEEP_ARGS, "--workers", "1")[0] == 0


def test_sweep_cap():
    code, _, err = run_cli("sweep", *SWEEP_ARGS, "--cap", "3")
    assert code == 2
    assert "above the cap" in err


def test_grid_syntax_errors():
    assert run_cli("sweep", "--T", "", "--lambda0", "1", "--tau", "1")[0] == 2
    assert run_cli("sweep", "--T", "0.1:1.0", "--lambda0", "1", "--tau", "1")[0] == 2
    assert run_cli("sweep", "--T", "0.1", "--lambda0", "1", "--tau", "-1")[0] == 2
    assert run_cli("sweep", "--T", "0.1,,0.5", "--lambda0", "1", "--tau", "1")[0] == 2


@pytest.mark.parametrize(
    "argv, flag",
    [(("spectrum", "--lambda-grid"), "--lambda-grid"), (("sweep", "--lambda0", "1", "--tau", "1", "--T"), "--T")],
    ids=["spectrum", "sweep"],
)
def test_grid_too_large_to_allocate_is_a_usage_error(tmp_path, argv, flag):
    # 1e14 float64 points are 728 TiB, which no allocation can give
    path = tmp_path / "out.csv"
    code, out, err = run_cli(*argv, "0:1:100000000000000", "--output", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {flag}: grid of 100000000000000 points is too large to allocate\n"
    assert "Traceback" not in err and not path.exists()


NUMERIC_OPTS = [
    (command, opt)
    for command, (opts, _, _) in cli._COMMANDS.items()
    for opt in opts
    if isinstance(opt.conv, (cli._Number, cli._Grid))
]


@pytest.mark.parametrize("command, opt", NUMERIC_OPTS, ids=[f"{command}{opt.flag}" for command, opt in NUMERIC_OPTS])
def test_every_numeric_flag_checks_its_values_by_one_rule(command, opt, tmp_path):
    grid = isinstance(opt.conv, cli._Grid)
    rule = opt.conv.element if grid else opt.conv
    bad = rule.bound if rule.above else rule.bound - 1
    past = f"value must be {'>' if rule.above else '>='} {rule.bound}, got"
    cases = [("nan", "value must be finite, got 'nan'"), (str(bad), f"{past} '{bad}'")]
    if grid:  # a list entry and an a:b:n point past the bound
        cases += [(f"1,{bad}", f"{past} '{bad}'"), (f"{bad}:1:2", f"{past} '{float(bad)!r}'")]
    cfg = tmp_path / "run.ini"
    for value, message in cases:
        assert run_cli(command, opt.flag, value) == (2, "", f"error: {opt.flag}: {message}\n")
        cfg.write_text(f"[{command}]\n{opt.key} = {value}\n")
        assert run_cli(command, "--config", str(cfg)) == (2, "", f"error: config key {opt.key.lower()!r}: {message}\n")


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
            r = analysis.run_point(T, 1.0, tau, None, 1e-6)
            channel = (r.fidelity, r.p_z, r.p_c1, r.p_c2, r.w_minus, r.e_zeta)
            yield (tau, 1.0, T, *map(float, channel))


def phase_rows():
    def t_star(tau):
        t = analysis.threshold_temperature(2.5, tau, None, 0.03, (1e-3, 3.0), 1e-8)
        return None if t is None else float(t)

    unevolved = t_star(None)
    assert unevolved is None  # below the bracket, so the row ends in an empty cell
    yield (5.0, 2.5, t_star(5.0), unevolved)


def evolve_rows():
    # the EVOLVE_ARGS run
    rows, _ = analysis.rampdown_series(0.5, 1.0, 0.5, np.linspace(0.0, 0.5, 3), None, 1e-6)
    for row in rows:
        yield tuple(map(float, row))


SPECTRUM = "lambda_or_time,level,energy,sector,gap_global,gap_sector"
BYTE_CASES = {
    "grid": (("spectrum", "--lambda-grid", "0:2.5:41"), SPECTRUM,
             lambda: spectrum_rows(analysis.spectrum_scan(np.linspace(0.0, 2.5, 41)))),
    "sequential": (("spectrum", "--path", "sequential", "--lambda-init", "2", "--order", "3,1,4,2", "--samples", "33"),
                   SPECTRUM,
                   lambda: spectrum_rows(analysis.spectrum_path(sequential_switchoff(2.0, 1.0, (3, 1, 4, 2)), None, 33))),
    "rampdown": (("spectrum", "--path", "rampdown", "--lambda0", "2.5", "--samples", "21"), SPECTRUM,
                 lambda: spectrum_rows(analysis.spectrum_path(linear_rampdown(2.5, 1.0), None, 21))),
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


def test_phase_diagram_diagonalizes_once_per_lambda0(monkeypatch, fresh_readouts):
    # the rampdown and no-evolution readouts of one lambda0 share its cached levels
    analysis._levels.cache_clear()
    eigh, calls = np.linalg.eigh, []

    def counting(a):
        calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    code, out, _ = run_cli("phase-diagram", "--lambda0-grid", "1.5,2.5", "--tau", "2,5", "--no-evolution")
    assert code == 0 and len(data_lines(out)) == 4
    assert calls == [(2, 8, 8)] * 2
    assert analysis._levels.cache_info().maxsize == 64
    for array in analysis._levels(1.5, plaquette_ring_term(1.0)):
        assert not array.flags.writeable
    analysis._levels.cache_clear()


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


def test_failed_dense_solve_is_numerical_failure(monkeypatch):
    # numpy's LinAlgError subclasses ValueError, which alone would mean a usage error
    def fail(*args):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(analysis, "spectrum_scan", fail)
    code, out, err = run_cli("spectrum", "--lambda-grid", "0.5")
    assert (code, out) == (3, "")
    assert "numerical failure: Eigenvalues did not converge" in err


@pytest.mark.parametrize(
    "terms, argv",
    [
        # finite blocks whose coupling products overflow the spectrum
        ("1e308 * Z0 Z1", ("spectrum", "--lambda-grid", "1e308")),
        # coefficients whose dense entries overflow
        ("1e308 * Z0 Z1\n1e308 * Z2 Z3", ("spectrum", "--lambda-grid", "1")),
        ("1e308 * Z0 Z1\n1e308 * Z2 Z3", ("evolve", *EVOLVE_ARGS)),
        # a finite spectrum whose propagator's Magnus brackets overflow
        ("1e154 * Z0 Z1", ("evolve", "--T", "0.5", "--lambda0", "1e100", "--tau", "0.5", "--tol", "1e-6")),
    ],
)
def test_non_finite_operator_is_numerical_failure(tmp_path, terms, argv):
    op = tmp_path / "huge.pham"
    op.write_text(f"qubits 4\n{terms}\n")
    target = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before numpy warns of an overflow
        code, out, err = run_cli(*argv, "--hamiltonian", str(op), "--output", str(target))
    assert (code, out) == (3, "")
    assert err.startswith("numerical failure:")
    assert not target.exists()


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


def test_cli_import_leaves_process_pools_unloaded():
    # sweep workers are forked directly: no executor or multiprocessing machinery at startup
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, clusterprep.cli; print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"],
        capture_output=True,
        text=True,
        timeout=120,
        env=_package_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_and_run_leave_argument_and_config_parsers_unloaded():
    # flags are parsed from the option tables; configparser loads only for --config
    script = (
        "import contextlib, io, sys\n"
        "import clusterprep.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['verify', '--model', '3d']), cli.main(['sweep', '--help'])]\n"
        "print(codes, sorted({'argparse', 'gettext', 'locale', 'configparser'} & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
                          env=_package_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0] []"


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
