"""Run one clusterprep operation in a fresh interpreter, the way a CLI call runs.

Usage: python3 perfbench/child.py REQUEST.json RESULT.json

The request names either a CLI invocation (``{"argv": [...]}``) or the
chain-gap library calls (``{"chain": {"Ns": [...], "J": .., "lam": ..,
"seed": ..}}``), and whether to trace (``"trace": true``).  The result
records the exit code, the wall time from after ``clusterprep`` is
imported to the end of the operation, the mean of the calibration timed
just before and just after it, any chain levels, and the spans of a
traced run.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter work and 16x16 matrix products."""
    a = np.full((16, 16), 1.0 / 16.0, dtype=complex)
    u = np.eye(16, dtype=complex)
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i
    for _ in range(2_000):
        u = u + 1e-3 * (a @ u)
    return time.perf_counter() - t0


def main(request_path: str, result_path: str) -> None:
    with open(request_path) as fh:
        req = json.load(fh)
    import clusterprep.analysis
    import clusterprep.cli

    import_s = time.perf_counter() - T_START
    tracer = None
    if req.get("trace"):
        import tracer as tracing

        tracer = tracing.install()
    out = {"rc": 0, "error": None, "import_s": import_s, "levels": None}
    cal0 = calibrate()
    t0 = time.perf_counter()
    try:
        if "argv" in req:
            out["rc"] = clusterprep.cli.main(req["argv"])
        else:
            spec = req["chain"]
            out["levels"] = [
                clusterprep.analysis.chain_sector_gap(N, spec["J"], spec["lam"], seed=spec["seed"]).tolist()
                for N in spec["Ns"]
            ]
    except Exception:
        out["rc"] = -1
        out["error"] = traceback.format_exc()
    out["wall_s"] = time.perf_counter() - t0
    out["cal_s"] = 0.5 * (cal0 + calibrate())
    out["spans"] = tracer.spans if tracer is not None else None
    with open(result_path, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
