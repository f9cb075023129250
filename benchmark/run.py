"""Benchmark of nonlocal-eigen: run one workload, check it, print its metrics.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --smoke

Run from the root of a checkout.  The package is imported from ``src/``;
nothing is installed or built.  Each run starts fresh processes: five
timed set-up probes (after one untimed one that fills the bytecode cache)
and one workload process with the BLAS thread count fixed before numpy
loads.  With ``--trace 0`` the last line of standard output holds the
end-to-end metrics named in ``BENCHMARK.json``; with ``--trace 1`` it
holds the per-layer metrics of a traced pass.  Lines before it give
every figure with its unit and sample count.  ``--smoke`` runs every
workload but ``rfl-ball`` at tiny sizes, traced twice and untraced, and
checks the harness itself.  Results and spans go to ``.bench_out/``.

This script uses the standard library only; see README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("rfl-assemble", "sfl-requests", "cli-verify", "rfl-ball")
# one BLAS thread (never more than nproc) keeps runs steady on a shared machine
BLAS_THREADS = 1
SETUP_PROBES = 5
RUN_LIMIT_S = 170.0
# counts that must repeat exactly between two traced runs with one seed
EXACT_COUNTS = ("discretize.quad.calls", "kernels.green.calls", "kernels.green.points",
                "discretize.assemble.calls", "spectral.eigendecompose.calls",
                "solver.solve.calls")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NONLOCAL_EIGEN_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _spawn(args: list[str], deadline: float) -> str:
    """Run the worker with ``args`` and return its standard output."""
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            stdout=subprocess.PIPE, env=_env(), cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {' '.join(args)} ran past the time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return out


def setup_times(deadline: float) -> list[float]:
    """Seconds from spawning a fresh interpreter until the package is imported."""
    times = []
    for i in range(SETUP_PROBES + 1):
        # the monotonic clock is system-wide, so the probe measures from here
        out = _spawn(["--probe", "--t0", repr(monotonic())], deadline).split()
        if len(out) != 2 or out[0] != "ready":
            raise BenchError(f"set-up probe printed {out!r}")
        if i:
            times.append(float(out[1]))
    return times


def _pct(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 size: str = "full") -> dict:
    deadline = monotonic() + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-{size}"
    setup = setup_times(deadline) if not trace else []
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--size", size, "--scratch", str(OUT)]
    if trace:
        args += ["--trace-file", str(OUT / f"{stem}-spans.json")]
    lines = _spawn(args, deadline).strip().splitlines()
    try:
        res = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise BenchError("worker printed no result") from None
    passes = res["passes"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)

    figures = {"error_rate": (failed / attempted if attempted else 1.0, "fraction",
                              f"{failed} failed of {attempted} operations")}
    for key, unit, pick in (("torsion_rel_err", "ratio", max), ("torsion_order", "1", min),
                            ("lam1_rel_err", "ratio", max),
                            ("green_residual_max", "ratio", max)):
        vals = [p["figures"][key] for p in passes if key in p["figures"]]
        if vals:
            figures[key] = (pick(vals), unit, f"{len(vals)} passes")

    if trace:
        metrics = {k: (v["value"], v["unit"], "1 traced pass")
                   for k, v in res["per_layer"].items()}
    else:
        walls = [p["wall_s"] for p in passes]
        lat = sorted(x for p in passes for x in p["latencies_s"])
        p95 = _pct(lat, 0.95)
        metrics = {
            "setup_s": (statistics.median(setup), "s",
                        f"median of {len(setup)} fresh processes"),
            "wall_s": (statistics.median(walls), "s", f"median of {len(walls)} passes"),
            "peak_rss_mb": (res["peak_rss_mb"], "MiB", "ru_maxrss of 1 process"),
            "request_ms_p50": (1e3 * _pct(lat, 0.5), "ms", f"{len(lat)} requests"),
            "request_ms_p95": (1e3 * p95, "ms", f"{len(lat)} requests, "
                               f"{sum(x > p95 for x in lat)} above p95"),
            "requests_per_s": (len(lat) / sum(p["request_s"] for p in passes), "1/s",
                               f"{len(lat)} requests, one closed-loop client"),
        }
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "size": size, "env": res["env"], "passes": len(passes),
              "metrics": {k: {"value": v, "unit": u, "samples": n}
                          for k, (v, u, n) in metrics.items()},
              "figures": {k: {"value": v, "unit": u, "samples": n}
                          for k, (v, u, n) in figures.items()},
              "failures": [f for p in passes for f in p["failures"]][:50],
              "pass_figures": [p["figures"] for p in passes]}
    if trace:
        report["self_times"] = res["self_times"]
        report["missing_names"] = res["missing_names"]
    with open(OUT / f"{stem}-trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return {"report": report, "correct": failed == 0, "attempted": attempted,
            "failed": failed}


def _print_report(rep: dict) -> None:
    print(f"workload {rep['workload']}  seed {rep['seed']}  trace {rep['trace']}  "
          f"size {rep['size']}  passes {rep['passes']}")
    print("env " + json.dumps(rep["env"], sort_keys=True))
    for section in ("metrics", "figures"):
        for name, m in rep[section].items():
            print(f"  {name:34s} {m['value']:<14.6g} {m['unit']:9s} {m['samples']}")
    if rep["trace"]:
        print("  self time by span (s):")
        rows = sorted(rep["self_times"].items(), key=lambda kv: -kv[1]["self_s"])
        for name, row in rows:
            print(f"    {name:32s} calls {row['calls']:<9d} total {row['total_s']:<10.4f}"
                  f" self {row['self_s']:.4f}")
        if rep["missing_names"]:
            print("  names not found, not traced: " + ", ".join(rep["missing_names"]))
    for f in rep["failures"][:10]:
        print("  FAILED " + f)


def _declared(trace: int) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def result_line(run: dict) -> str:
    """The final line: the metrics BENCHMARK.json declares, nothing else."""
    declared = _declared(run["report"]["trace"])
    metrics = run["report"]["metrics"]
    wrong = [k for k, unit in declared.items() if metrics.get(k, {}).get("unit") != unit]
    if wrong:
        raise BenchError(f"metrics not measured with their declared unit: {wrong}")
    return json.dumps({"correct": run["correct"], "attempted": run["attempted"],
                       "failed": run["failed"],
                       "metrics": {k: {"value": metrics[k]["value"], "unit": declared[k]}
                                   for k in declared}})


def smoke() -> int:
    """The harness's own check at tiny sizes."""
    problems = []
    for workload in WORKLOADS[:3]:
        runs = [run_workload(workload, 7, 1.0, t, "smoke") for t in (0, 1, 1)]
        for run in runs:
            _print_report(run["report"])
            result_line(run)
            if not run["correct"]:
                problems.append(f"{workload} trace {run['report']['trace']}: not correct")
        a, b = (r["report"]["metrics"] for r in runs[1:])
        for key in EXACT_COUNTS:
            if a[key]["value"] != b[key]["value"]:
                problems.append(f"{workload}: {key} {a[key]['value']} != {b[key]['value']}")
    for p in problems:
        print("SMOKE PROBLEM " + p)
    print("smoke " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    a = ap.parse_args(argv)
    if not (ROOT / "src" / "nonlocal_eigen" / "__init__.py").is_file():
        print(f"benchmark: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if a.smoke:
            return smoke()
        if a.workload is None:
            ap.error("--workload is required")
        run = run_workload(a.workload, a.seed, a.seconds, a.trace)
        _print_report(run["report"])
        print(result_line(run), flush=True)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
