"""One workload run in a fresh process, started by ``run.py``.

``--probe`` imports the package the way every workload process does and
reports when it is ready: ``run.py`` times it as the set-up cost.
Otherwise the worker repeats the workload's pass until ``--seconds`` is
used (at least one pass); with ``--trace 1`` one traced pass follows, and
its wall time minus the untraced passes' median is the tracing overhead.
It prints one JSON object as its last line.

The BLAS thread count is fixed by ``run.py`` in the environment before
this process starts, so numpy loads with it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from dataclasses import asdict
from time import monotonic, perf_counter

SIZES = {
    "full": {
        "rfl-assemble": {"s": [0.5, 0.75, 0.99], "N": [128, 256]},
        "sfl-requests": {"s": 0.75, "N": 1024, "M": 4096,
                         "solves": 160, "sweeps": 20, "fredholm": 20},
        "cli-verify": {"N": 256, "expect_fail": []},
        "rfl-ball": {"n": 2, "N": 8, "s": 0.75},
    },
    # tiny sizes for the harness's own check; the verify suite's
    # sfl_spectrum tolerance is set for N = 256 and is known to fail at N = 32
    "smoke": {
        "rfl-assemble": {"s": [0.5, 0.75, 0.99], "N": [16, 32]},
        "sfl-requests": {"s": 0.75, "N": 64, "M": 256,
                         "solves": 16, "sweeps": 2, "fredholm": 2},
        "cli-verify": {"N": 32, "expect_fail": ["sfl_spectrum"]},
    },
}


def load_package():
    """Everything a workload imports before its first call."""
    import mpmath  # noqa: F401  (imported lazily by the SFL Martin kernel)
    import nonlocal_eigen.cli  # noqa: F401
    import workloads
    return workloads


def environment(threads: str) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "blas_threads": threads,
            "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--t0", type=float, help="monotonic time the probe was spawned")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    ap.add_argument("--scratch", default=".")
    ap.add_argument("--trace-file")
    a = ap.parse_args(argv)

    workloads = load_package()
    if a.probe:
        print("ready", monotonic() - a.t0, flush=True)
        return 0

    cfg = dict(SIZES[a.size][a.workload], scratch=a.scratch)
    run_pass = {"rfl-assemble": workloads.rfl_assemble,
                "sfl-requests": workloads.sfl_requests,
                "cli-verify": workloads.cli_verify,
                "rfl-ball": workloads.rfl_ball}[a.workload]

    def inputs_for(cfg):
        # the seed is consumed by the request generator only
        return workloads.sfl_inputs(cfg, a.seed) if a.workload == "sfl-requests" else None

    inputs = inputs_for(cfg)

    out = {"env": environment(os.environ.get("OPENBLAS_NUM_THREADS", "")), "seed": a.seed}
    small = SIZES["smoke"].get(a.workload)
    if a.trace and small:
        # a small pass first fills the process's lazy caches (scipy, mpmath
        # zeta values), so that the untraced and the traced passes start alike
        small = dict(small, scratch=a.scratch)
        run_pass(small, inputs_for(small))
    passes = []
    t0 = perf_counter()
    while True:
        passes.append(run_pass(cfg, inputs))
        typical = statistics.median(p.wall_s for p in passes)
        if perf_counter() - t0 + typical > a.seconds:
            break
    if a.trace:
        # the traced pass follows the untraced ones, so it never pays for
        # the process's first use of large arrays either
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            passes.append(run_pass(cfg, inputs, tracer.mark))
        finally:
            tracer.restore()
        out["per_layer"] = tracer.layer_metrics(passes[-1].wall_s - typical)
        out["self_times"] = tracer.self_times()
        out["missing_names"] = tracer.missing
        if a.trace_file:
            with open(a.trace_file, "w", encoding="utf-8") as fh:
                json.dump(tracer.dump(), fh)
    out["passes"] = [asdict(p) for p in passes]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
