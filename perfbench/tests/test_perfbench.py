"""Tests of the benchmark itself (run with: python3 -m pytest perfbench/tests -q).

They sit outside tier-1, whose testpaths is tests/.
"""

import io
import json
import os
import shutil
import subprocess
import sys
import contextlib

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from clusterprep import cli  # noqa: E402
from clusterprep.models import build_chain_1d, build_plaquette_3d, stabilizers_1d  # noqa: E402
from clusterprep.pauli import to_dense  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_the_declared_metrics(workload, trace):
    out = _bench("--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(trace), "--tiny")
    assert out.returncode == 0, out.stderr
    line = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    declared = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    if trace == 0:
        assert all(v["value"] > 0 for v in line["metrics"].values())


def test_traced_sweep_puts_the_propagator_on_top():
    out = _bench("--workload", "sweep", "--seed", "5", "--seconds", "0", "--trace", "1", "--tiny")
    metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["evolve.schedule_unitary.calls"]["value"] == 1
    assert metrics["analysis.run_point.calls"]["value"] == 3
    assert metrics["analysis.unitary_cache.hit_ratio"]["value"] == pytest.approx(2 / 3)
    assert metrics["evolve.schedule_unitary.self_s"]["value"] > 0.5 * metrics["trace.wall_s"]["value"]


def test_benchmark_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def _tiny_sweep_csv(tmp_path, inputs) -> bytes:
    path = tmp_path / "sweep.csv"
    argv = run.build_ops(inputs, run.TINY)["sweep_w1"].request["argv"] + ["--output", str(path)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    return path.read_bytes()


def test_perturbed_row_counts_as_a_failure(tmp_path):
    inputs = run.draw_inputs(5)
    text = _tiny_sweep_csv(tmp_path, inputs).decode()
    args = (inputs["temps"], run.TINY.sweep_lambda0, run.TINY.sweep_tau, run.TOL)
    good = checks.check_sweep(text, *args)
    assert good.failed == 0 and good.attempted == 4
    lines = text.splitlines()
    cells = lines[3].split(",")
    cells[-1] = repr(float(cells[-1]) + 1e-5)
    lines[3] = ",".join(cells)
    bad = checks.check_sweep("\n".join(lines) + "\n", *args)
    assert (bad.attempted, bad.failed) == (4, 1)


def test_byte_changed_csv_counts_as_a_failure(tmp_path):
    inputs = run.draw_inputs(5)
    ops = run.build_ops(inputs, run.TINY)
    csv = _tiny_sweep_csv(tmp_path, inputs)
    # change the last digit of one value: within the oracle tolerance, caught only by bytes
    i = len(csv) - 2
    changed = csv[:i] + (b"1" if csv[i:i + 1] != b"1" else b"2") + csv[i + 1:]
    assert changed != csv and checks.check_sweep(changed.decode(), inputs["temps"], run.TINY.sweep_lambda0,
                                                 run.TINY.sweep_tau, run.TOL).failed == 0

    def result(name, data):
        return run.OpResult(name, 0, 1.0, 0.05, 1.0, data, None, None, None)

    verify = run.Verifier(ops)
    verify(result("sweep_w1", csv))
    verify(result("sweep_w2", csv))
    assert verify.tally.failed == 0
    verify(result("sweep_w2", changed))
    assert verify.tally.failed == 1
    assert verify.tally.attempted == 1 + 4 + 2 + 2


def test_oracle_builds_the_same_operators_as_clusterprep():
    lam = [0.3, 1.1, 0.7, 2.0]
    assert np.array_equal(oracle.plaquette_h(lam), to_dense(build_plaquette_3d(1.0, lam)[1]))
    inst, ham = build_chain_1d(4, 1.0, 0.2)
    h, checks_ = oracle.chain_operators(4, 1.0, 0.2)
    assert np.array_equal(h.toarray(), to_dense(ham))
    for mine, theirs in zip(checks_, stabilizers_1d(inst)):
        assert np.array_equal(mine.toarray(), to_dense(theirs))


def test_stored_propagators_cover_the_grids_and_are_unitary():
    for lam0, tau in [(l, t) for l in run.FULL.sweep_lambda0 for t in run.FULL.sweep_tau] + \
                     [(l, t) for l in run.FULL.phase_lambda0 for t in run.FULL.phase_tau]:
        u = oracle.rampdown_unitary(lam0, tau)
        assert np.abs(u.conj().T @ u - np.eye(16)).max() < 1e-12
    assert sorted(oracle.load()["chain"]) == list(run.FULL.chain_Ns)


def test_self_time_subtracts_direct_children():
    spans = [["a", 0.0, 10.0, -1, None], ["b", 1.0, 4.0, 0, None], ["c", 2.0, 3.0, 1, None],
             ["b", 5.0, 6.0, 0, None]]
    s = tracer.summarize(spans)
    assert s["a"]["self_s"] == pytest.approx(6.0)
    assert s["b"]["calls"] == 2 and s["b"]["self_s"] == pytest.approx(3.0) and s["b"]["max_s"] == 3.0
    assert tracer.children_of(spans, "a", {"b"}) == 2
