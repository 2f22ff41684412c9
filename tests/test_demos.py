"""The demo scripts run against the current package and print what they claim."""

import os
import re
import subprocess
import sys
from pathlib import Path

import clusterprep

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


def run_python(*args: str) -> subprocess.CompletedProcess:
    src = str(Path(clusterprep.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=120, env=env)


def run_demo(name: str) -> subprocess.CompletedProcess:
    return run_python(str(DEMOS / name))


def test_readme_python_quick_start():
    block = re.search(r"## Python quick start\n\n```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    proc = run_python("-X", "dev", "-W", "error", "-c", block.group(1))
    assert proc.returncode == 0, proc.stderr
    sector_gap, global_gap, channel = proc.stdout.splitlines()
    assert float(sector_gap) > 0.0 and float(global_gap) == 0.0
    assert len(channel.split()) == 5


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


def test_conserved_checks_demo():
    proc = run_demo("conserved_checks.py")
    assert proc.returncode == 0, proc.stderr
    checks = [line for line in proc.stdout.splitlines() if line.strip().startswith("check[")]
    assert len(checks) == 5 + 4 + 1 + 1
    assert all(line.endswith(" ok") for line in checks)
    broken = next(line for line in proc.stdout.splitlines() if line.startswith("broken operator residual"))
    assert float(broken.split("=")[1].split()[0]) != 0.0


def test_plaquette_gap_scan_demo():
    proc = run_demo("plaquette_gap_scan.py")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines() if line[:1].isdigit()]
    assert len(rows) == 9
    # gap_global against the closed form, both as printed
    assert all(row[4] == row[6] for row in rows)


def test_staged_switchoff_demo():
    proc = run_demo("staged_switchoff.py")
    assert proc.returncode == 0, proc.stderr
    paths = [line.split() for line in proc.stdout.splitlines() if line.strip().startswith("whole path")]
    assert len(paths) == 3  # one per switch-off order
    for words in paths:
        sector_gap, global_gap = float(words[5].rstrip(",")), float(words[-1])
        assert sector_gap > 0.0 and global_gap == 0.0


def test_threshold_map_demo():
    proc = run_demo("threshold_map.py")
    assert proc.returncode == 0, proc.stderr
    stars = {}
    for line in proc.stdout.splitlines():
        words = line.split()
        if len(words) > 2 and words[0].replace(".", "").isdigit():
            # no threshold in the bracket means below it: lower than any found
            star = float("-inf") if words[2] == "none" else float(words[2])
            stars.setdefault(float(words[0]), []).append((float(words[1]), star))
    assert sorted(stars) == [1.5, 2.5]
    for rows in stars.values():
        assert [tau for tau, _ in rows] == [2.0, 5.0, 10.0]
        assert all(b >= a for (_, a), (_, b) in zip(rows, rows[1:]))
