"""The demo scripts run against the current package and print what they claim."""

import os
import subprocess
import sys
from pathlib import Path

import clusterprep

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def run_demo(name: str) -> subprocess.CompletedProcess:
    src = str(Path(clusterprep.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, str(DEMOS / name)], capture_output=True, text=True, timeout=120, env=env
    )


def test_chain_gap_scaling_demo():
    proc = run_demo("chain_gap_scaling.py")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines() if line[:2].strip().isdigit()]
    assert [int(row[0]) for row in rows] == list(range(3, 11))
    for N, qubits, dim, gap, _ in rows:
        assert int(qubits) == 2 * int(N) and int(dim) == 2 ** int(N)
    gaps = [float(row[3]) for row in rows]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert abs(gaps[-1] - 1.2) / 1.2 <= 0.01


def test_rampdown_run_demo():
    proc = run_demo("rampdown_run.py")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines() if line[:5].strip().replace(".", "").isdigit()]
    assert [float(row[0]) for row in rows] == [1.0, 2.0, 5.0, 10.0, 20.0]
    # slower ramps leave less residual error
    e_zeta = [float(row[2]) for row in rows]
    assert all(b < a for a, b in zip(e_zeta, e_zeta[1:]))
