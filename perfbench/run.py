"""clusterprep benchmark: end-to-end CLI timings and per-layer traces.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

Workloads: sweep, sweep-w2, phase-diagram, spectra (``all`` runs each in
turn and prints a summary table).  Every operation runs in a fresh
interpreter, as each CLI invocation does, with BLAS pinned to one
thread.  The seed draws only inputs that leave integrator work
unchanged (temperatures, the threshold bracket, the switch-off order
and the chain's projection seed).  Outputs are checked against the
references in ``oracle_data.json`` (see oracle.py) and compared byte for
byte between repeats and worker counts.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
The full record (machine facts, inputs, raw samples, medians) and the
span files of traced runs go to ``.perfbench_out/`` in the repository.
See README.md in this directory.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from typing import Callable, Optional  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("sweep", "sweep-w2", "phase-diagram", "spectra")
OP_TIMEOUT_S = 120.0
SETUP_SAMPLES = 10
# Reference duration of child.calibrate(); times are rescaled to the
# machine speed at which the calibration takes this long (see README).
CAL_REF_S = 0.03

TOL = 1e-8
TARGET = 0.03
LAMBDA_INIT = 2.0
TAU_EACH = 1.0
GRID_HI = 2.5
CHAIN_J = 1.0
CHAIN_LAM = 0.2


@dataclass(frozen=True)
class Size:
    sweep_lambda0: tuple[float, ...]
    sweep_tau: tuple[float, ...]
    phase_lambda0: tuple[float, ...]
    phase_tau: tuple[float, ...]
    samples: int
    chain_Ns: tuple[int, ...]
    min_reps: int


FULL = Size((1.5, 2.0, 2.5), (2.0, 5.0, 10.0), (0.3, 1.5, 2.0, 2.5), (2.0, 5.0), 801, (3, 4, 5, 6, 7), 3)
# a subset of FULL, so the stored oracle references cover it; for the tests
TINY = Size((1.5,), (2.0,), (0.3,), (2.0,), 21, (3, 4), 1)


def draw_inputs(seed: int) -> dict:
    """Workload inputs drawn from the seed; none of them changes integrator work."""
    rng = random.Random(seed)
    temps: set[float] = set()
    while len(temps) < 3:
        temps.add(round(rng.uniform(0.05, 0.8), 4))
    return {
        "temps": sorted(temps),
        "bracket": (float(f"{10 ** rng.uniform(-4.0, -3.0):.3g}"), round(rng.uniform(2.5, 3.0), 3)),
        "order": rng.sample([1, 2, 3, 4], 4),
        "chain_seed": rng.randrange(1, 2**31),
    }


def _csv_list(values) -> str:
    return ",".join(repr(float(v)) for v in values)


# ----------------------------------------------------------------- operations

@dataclass(frozen=True)
class Op:
    """One fresh-process operation: a CLI call or the chain-gap calls."""

    name: str
    request: dict
    key: str  # outputs with the same key must be byte-identical
    check: Callable  # (csv_text, levels) -> checks.Tally, applied once per key
    output: bool = True


@dataclass
class OpResult:
    name: str
    rc: int
    wall_s: float
    cal_s: float
    rss_mb: float
    csv: Optional[bytes]
    levels: Optional[list]
    spans: Optional[list]
    error: Optional[str]


def build_ops(inputs: dict, size: Size) -> dict[str, Op]:
    def sweep(workers: int) -> Op:
        argv = ["sweep", "--T", _csv_list(inputs["temps"]), "--lambda0", _csv_list(size.sweep_lambda0),
                "--tau", _csv_list(size.sweep_tau), "--tol", repr(TOL), "--workers", str(workers)]
        return Op(f"sweep_w{workers}", {"argv": argv}, "sweep",
                  lambda text, _: checks.check_sweep(text, inputs["temps"], size.sweep_lambda0, size.sweep_tau, TOL))

    lo, hi = inputs["bracket"]
    phase_argv = ["phase-diagram", "--lambda0-grid", _csv_list(size.phase_lambda0), "--tau", _csv_list(size.phase_tau),
                  "--T-bracket", f"{lo!r}:{hi!r}", "--target", repr(TARGET), "--no-evolution", "--tol", repr(TOL)]
    order = inputs["order"]
    path_argv = ["spectrum", "--path", "sequential", "--lambda-init", repr(LAMBDA_INIT), "--tau-each", repr(TAU_EACH),
                 "--order", ",".join(map(str, order)), "--samples", str(size.samples)]
    grid_argv = ["spectrum", "--lambda-grid", f"0:{GRID_HI!r}:{size.samples}"]
    chain = {"Ns": list(size.chain_Ns), "J": CHAIN_J, "lam": CHAIN_LAM, "seed": inputs["chain_seed"]}
    return {
        "sweep_w1": sweep(1),
        "sweep_w2": sweep(2),
        "phase": Op("phase", {"argv": phase_argv}, "phase", lambda text, _: checks.check_phase(
            text, size.phase_lambda0, size.phase_tau, (lo, hi), TARGET, TOL)),
        "spectrum_path": Op("spectrum_path", {"argv": path_argv}, "spectrum_path", lambda text, _: checks.check_spectrum_path(
            text, LAMBDA_INIT, TAU_EACH, order, size.samples)),
        "spectrum_grid": Op("spectrum_grid", {"argv": grid_argv}, "spectrum_grid", lambda text, _: checks.check_spectrum_grid(
            text, np.linspace(0.0, GRID_HI, size.samples))),
        "chain": Op("chain", {"chain": chain}, "chain", lambda _, levels: checks.check_chain(levels, size.chain_Ns),
                    output=False),
    }


@dataclass(frozen=True)
class Plan:
    timed: tuple[str, ...]  # untraced operations whose walls sum to wall_s
    partner: tuple[str, ...]  # run once first, for byte comparison only
    traced: tuple[str, ...]  # operations traced in a --trace 1 run
    pool: Optional[str]  # the --workers 2 operation of a traced run


PLANS = {
    "sweep": Plan(("sweep_w1",), (), ("sweep_w1",), "sweep_w2"),
    "sweep-w2": Plan(("sweep_w2",), ("sweep_w1",), ("sweep_w1",), "sweep_w2"),
    "phase-diagram": Plan(("phase",), (), ("phase",), None),
    "spectra": Plan(("spectrum_path", "spectrum_grid", "chain"), (), ("spectrum_path", "spectrum_grid", "chain"), None),
}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(argv: list[str], stdout, stderr) -> tuple[int, float, float]:
    """Run argv to completion; returns (exit code, wall seconds, peak RSS MB).

    Peak RSS is os.wait4's ru_maxrss, the largest resident set among the
    child and the descendants it waited for.  A watchdog kills the child
    after OP_TIMEOUT_S.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdout=stdout, stderr=stderr)
    watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def run_op(op: Op, workdir: str, tag: str, trace: bool) -> OpResult:
    base = os.path.join(workdir, f"{op.name}-{tag}")
    request = dict(op.request, trace=trace)
    if "argv" in request and op.output:
        request["argv"] = request["argv"] + ["--output", base + ".csv"]
    with open(base + ".request.json", "w") as fh:
        json.dump(request, fh)
    with open(base + ".stdout", "w") as out, open(base + ".stderr", "w") as err:
        code, _, rss = _spawn([sys.executable, os.path.join(HERE, "child.py"), base + ".request.json",
                               base + ".result.json"], out, err)
    try:
        with open(base + ".result.json") as fh:
            res = json.load(fh)
    except (OSError, ValueError):
        with open(base + ".stderr") as fh:
            res = {"rc": code or -1, "wall_s": float("nan"), "cal_s": float("nan"), "error": fh.read()[-2000:]}
    csv = None
    if op.output and os.path.exists(base + ".csv"):
        with open(base + ".csv", "rb") as fh:
            csv = fh.read()
    rc = res["rc"] if code == 0 else code
    return OpResult(op.name, rc, res["wall_s"], res["cal_s"], rss, csv, res.get("levels"), res.get("spans"),
                    res.get("error"))


class Verifier:
    """Checks each result: exit code, oracle rows once per key, bytes per key."""

    def __init__(self, ops: dict[str, Op]):
        self.ops = ops
        self.tally = checks.Tally()
        self.first: dict[str, bytes] = {}
        self.checked: set[str] = set()

    def __call__(self, res: OpResult) -> None:
        op = self.ops[res.name]
        self.tally.add(res.rc == 0, f"{res.name} exited {res.rc}: {(res.error or '').strip()[-400:]}")
        if res.rc != 0:
            return
        if op.key not in self.checked:
            self.checked.add(op.key)
            text = res.csv.decode() if res.csv is not None else ""
            self.tally.merge(op.check(text, res.levels))
        if op.output:
            if op.key in self.first:
                checks.check_same_bytes(self.tally, self.first[op.key], res.csv or b"", res.name)
            else:
                self.first[op.key] = res.csv or b""


# ----------------------------------------------------------------- measurement

def setup_sample() -> float:
    """Wall time of `clusterprep --version`: interpreter start, import, parse."""
    code, wall, _ = _spawn([sys.executable, "-c", "import clusterprep.cli as c; c.main(['--version'])"],
                           subprocess.DEVNULL, subprocess.DEVNULL)
    if code != 0:
        raise RuntimeError("clusterprep --version failed")
    return wall


def _rounds(seconds: float, min_rounds: int):
    start = time.perf_counter()
    n = 0
    while n < min_rounds or time.perf_counter() - start < seconds:
        yield n
        n += 1


def layer_metrics(spans: list, csv_bytes: int) -> dict[str, float]:
    s = tracer.summarize(spans)

    def get(name: str, key: str) -> float:
        return float(s[name][key]) if name in s else 0.0

    m: dict[str, float] = {}
    for name in ("evolve.schedule_unitary", "analysis.run_point", "analysis.error_tomography",
                 "analysis.threshold_temperature", "thermal.gibbs_state", "thermal.DensityMatrix.from_matrix",
                 "linalg.eigh", "pauli.operator_matvec", "pauli.to_dense", "models.build_plaquette_3d"):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.self_s"] = get(name, "self_s")
    m["evolve.schedule_unitary.max_s"] = get("evolve.schedule_unitary", "max_s")
    lookups = get("analysis.run_point", "calls")
    m["analysis.unitary_cache.lookups"] = lookups
    m["analysis.unitary_cache.hit_ratio"] = 1.0 - get("evolve.schedule_unitary", "calls") / lookups if lookups else 0.0
    thresholds = get("analysis.threshold_temperature", "calls")
    evals = tracer.children_of(spans, "analysis.threshold_temperature",
                               {"analysis.run_point", "analysis.no_evolution_point"})
    m["analysis.threshold_temperature.evals"] = evals / thresholds if thresholds else 0.0
    for name in ("analysis.spectrum_path", "analysis.spectrum_scan", "analysis.chain_sector_gap", "cli.main"):
        m[f"{name}.self_s"] = get(name, "self_s")
    by_n = s.get("analysis.chain_sector_gap", {}).get("by_tag", {})
    m["analysis.chain_sector_gap.N7_s"] = float(by_n.get("7", 0.0))
    n_max = max(int(k) for k in by_n) if by_n else 0
    # the seeded random block of the projection: 2^(2N) rows, 2^N + 10 float64 columns
    m["analysis.chain_sector_gap.block_bytes"] = float((1 << 2 * n_max) * ((1 << n_max) + 10) * 8) if n_max else 0.0
    m["cli.csv_bytes"] = float(csv_bytes)
    m["trace.spans"] = float(len(spans))
    return m


def _median(values):
    return statistics.median(values) if values else 0.0


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: Size) -> dict:
    inputs = draw_inputs(seed)
    ops = build_ops(inputs, size)
    plan = PLANS[workload]
    workdir = os.path.join(OUT_ROOT, f"{workload}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    verify = Verifier(ops)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "inputs": inputs,
              "size": size.__dict__, "ops": {k: v.request for k, v in ops.items()}}
    raw: dict[str, list] = {}

    def run(name: str, tag: str, traced: bool = False) -> OpResult:
        res = run_op(ops[name], workdir, tag, traced)
        verify(res)
        raw.setdefault(f"{name}{'_traced' if traced else ''}", []).append(
            {"wall_s": res.wall_s, "cal_s": res.cal_s, "rss_mb": res.rss_mb, "rc": res.rc})
        return res

    if not trace:
        setup_sample()  # warms the bytecode and file caches; not counted
        for name in plan.partner:
            run(name, "partner")
        setup, rss = [], []
        for i in _rounds(seconds, size.min_reps):
            setup.append(setup_sample())
            results = [run(name, f"r{i}") for name in plan.timed]
            rss.append(max(r.rss_mb for r in results))
        while len(setup) < SETUP_SAMPLES:
            setup.append(setup_sample())
        # each repetition rescaled by the calibration timed in its own process
        wall = sum(_median([r["wall_s"] * CAL_REF_S / r["cal_s"] for r in raw[name]]) for name in plan.timed)
        run_speed = CAL_REF_S / _median([r["cal_s"] for name in plan.timed for r in raw[name]])
        metrics = {"wall_s": (wall, "s"), "setup_s": (_median(setup) * run_speed, "s"),
                   "peak_rss_mb": (_median(rss), "MB")}
        raw["setup_s"], raw["peak_rss_mb"] = setup, rss
    else:
        layers = []
        for i in _rounds(seconds, max(1, size.min_reps - 1)):
            for name in plan.traced:
                run(name, f"r{i}")
            results = [run(name, f"t{i}", traced=True) for name in plan.traced]
            spans, owners = _merge_spans(results)
            with open(os.path.join(workdir, f"spans-t{i}.json"), "w") as fh:
                json.dump({"workload": workload, "seed": seed, "ops": owners, "spans": spans}, fh)
            layers.append(layer_metrics(spans, sum(len(r.csv or b"") for r in results)))
            if plan.pool:
                run(plan.pool, f"p{i}")
        for i, lay in enumerate(layers):
            lay["trace.wall_s"] = sum(raw[f"{name}_traced"][i]["wall_s"] for name in plan.traced)
            lay["trace.untraced_wall_s"] = sum(raw[name][i]["wall_s"] for name in plan.traced)
        m = {k: _median([lay[k] for lay in layers]) for k in layers[0]}
        m["trace.overhead_s"] = m["trace.wall_s"] - m["trace.untraced_wall_s"]
        m["cli.pool.scaling_eff"] = (
            m["trace.untraced_wall_s"] / (2.0 * _median([r["wall_s"] for r in raw[plan.pool]])) if plan.pool else 0.0
        )
        metrics = {k: (v, _layer_unit(k)) for k, v in m.items()}
        raw["layers"] = layers
    for name in os.listdir(workdir):
        if not name.startswith("spans-"):
            os.unlink(os.path.join(workdir, name))
    tally = verify.tally
    record.update({"provenance": provenance(seed, workload), "raw": raw,
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                   "attempted": tally.attempted, "failed": tally.failed, "failures": tally.messages})
    with open(os.path.join(workdir, "result.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def _merge_spans(results: list[OpResult]) -> tuple[list, list]:
    """Concatenate the spans of several processes, re-basing parent indices.

    Returns the spans and, per operation, its name with the index of its
    first span and its span count.
    """
    merged, owners = [], []
    for r in results:
        base = len(merged)
        owners.append({"op": r.name, "first": base, "count": len(r.spans or [])})
        merged.extend([name, start, end, parent + base if parent >= 0 else -1, tag]
                      for name, start, end, parent, tag in r.spans or [])
    return merged, owners


def _layer_unit(name: str) -> str:
    if name.endswith((".calls", ".evals", ".lookups", ".spans")):
        return "count"
    if name.endswith((".hit_ratio", ".scaling_eff")):
        return "ratio"
    if name.endswith("block_bytes"):
        return "B_computed"
    if name.endswith("csv_bytes"):
        return "B"
    return "s"


# ----------------------------------------------------------------- provenance

def _git_commit() -> str:
    """HEAD commit read from .git without running git (absent in a plain checkout)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int, workload: str) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    nproc = len(os.sched_getaffinity(0))
    workers = 2 if PLANS[workload].pool else 1
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": int(BLAS_THREADS)},
        "processes_times_blas_threads": workers * int(BLAS_THREADS),
        "within_nproc": workers * int(BLAS_THREADS) <= nproc,
        "git_commit": _git_commit(),
        "seed": seed,
    }


# ----------------------------------------------------------------- entry

def _result_line(record: dict) -> dict:
    return {"correct": record["failed"] == 0, "attempted": record["attempted"], "failed": record["failed"],
            "metrics": record["metrics"]}


def _fail_ratio(record: dict) -> float:
    return record["failed"] / record["attempted"] if record["attempted"] else float("nan")


def _print_summary(record: dict) -> None:
    for msg in record["failures"]:
        print(f"FAIL {record['workload']}: {msg}")
    print(f"{record['workload']} seed={record['seed']} fail_ratio={_fail_ratio(record):.6g} "
          f"({record['failed']}/{record['attempted']} operations)")
    for name, m in record["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for name, samples in record["raw"].items():
        if name == "layers":
            continue
        walls = [x["wall_s"] if isinstance(x, dict) else x for x in samples]
        if walls:
            print(f"  samples {name}: n={len(walls)} min={min(walls):.4g} median={_median(walls):.4g} "
                  f"max={max(walls):.4g}")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, one repetition (for the tests)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "clusterprep", "cli.py")):
        print(f"error: no clusterprep sources under {SRC}", file=sys.stderr)
        return 2
    size = TINY if args.tiny else FULL
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace), size)
        _print_summary(record)
        records.append(record)
    if args.workload == "all":
        _print_table(records)
        print(json.dumps({"correct": all(r["failed"] == 0 for r in records),
                          "attempted": sum(r["attempted"] for r in records),
                          "failed": sum(r["failed"] for r in records),
                          "workloads": {r["workload"]: r["metrics"] for r in records}}))
    else:
        print(json.dumps(_result_line(records[0])))
    return 0


def _print_table(records: list[dict]) -> None:
    names = list(records[0]["metrics"])
    print("workload        " + " ".join(f"{n:>14}" for n in names + ["fail_ratio"]))
    for r in records:
        cells = [f"{r['metrics'][n]['value']:>14.6g}" for n in names] + [f"{_fail_ratio(r):>14.6g}"]
        print(f"{r['workload']:<15} " + " ".join(cells))


if __name__ == "__main__":
    sys.exit(main())
