"""Span tracer for the traced benchmark run.

Spans are recorded from the benchmark's side of each layer boundary: the
tracer rebinds the names a calling module looks up (``discretize.quad``,
``solver.martin_apply``, ``scipy.linalg.eigh`` as called by ``spectral``,
...) to timing wrappers and puts the originals back afterwards.  No
package source changes, and nothing is rebound in an untraced run.

A span records its name, start, end, parent span and request id.  Kernel
calls made by a ``quad`` integrand are scalar and number in the hundreds
of thousands, so they are not kept one by one: their count, points and
time are added to the enclosing ``quad`` span instead.
"""

from __future__ import annotations

import os
from time import perf_counter

import numpy as np
import scipy.linalg

import nonlocal_eigen as ne
from nonlocal_eigen import boundary, cli, discretize, limits, solver, spectral, verify

QUAD = "discretize.quad"


def _kernel_points(args) -> int:
    """Point pairs in a kernel call ``f(op_or_domain, x, y)``."""
    if isinstance(args[1], float) and isinstance(args[2], float):
        return 1  # the scalar calls of a quad integrand, kept cheap
    size = np.broadcast(np.asarray(args[1]), np.asarray(args[2])).size
    n = getattr(getattr(args[0], "domain", args[0]), "n", 1)
    return size // n if n > 1 else size


def _assembly_key(args) -> dict:
    """Identifies the (operator, grid) pair an assembly builds."""
    op, grid = args[0], args[1]
    return {"key": f"{op!r}|N={grid.N}|grading={grid.grading!r}"}


def _written_bytes(args) -> dict:
    path = args[0]
    return {"bytes": os.path.getsize(path) if os.path.exists(path) else 0}


class Tracer:
    """Keeps spans in memory while rebound names are installed."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent, request, info]
        self.leaf = {}       # (quad span, kernel name) -> [calls, points, seconds]
        self.stack = []
        self.request = None
        self.missing = []
        self._saved = []

    def mark(self, request) -> None:
        """Tag the spans that follow with a request id."""
        self.request = request

    def wrap(self, name, fn, points=None, info=None):
        spans, stack, leaf = self.spans, self.stack, self.leaf

        def traced(*args, **kwargs):
            if points is not None and stack and spans[stack[-1]][0] == QUAD:
                t0 = perf_counter()
                out = fn(*args, **kwargs)
                dt = perf_counter() - t0
                agg = leaf.setdefault((stack[-1], name), [0, 0, 0.0])
                agg[0] += 1
                agg[1] += points(args)
                agg[2] += dt
                return out
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            extra = {}
            if points is not None:
                extra["points"] = points(args)
            if info is not None:
                extra.update(info(args))
            rec[5] = extra or None
            return out

        return traced

    def rebind(self, owner, attr, name, **kw) -> None:
        if not hasattr(owner, attr):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        orig = getattr(owner, attr)
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, self.wrap(name, orig, **kw))

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def install(self) -> None:
        """Rebind every traced name of the package's layers."""
        green = dict(points=_kernel_points)
        for owner in (ne, verify, cli):
            self.rebind(owner, "build_grid", "geometry.build_grid")
        for attr in ("rfl_green_ball", "classical_green_interval", "sfl_eigenfunction"):
            self.rebind(discretize, attr, "kernels.green", **green)
        self.rebind(verify, "rfl_green_ball", "kernels.green", **green)
        self.rebind(boundary, "martin_kernel", "kernels.martin", **green)
        for attr in ("rfl_martin_kernel_ball", "poisson_kernel_classical"):
            self.rebind(verify, attr, "kernels.martin", **green)
        for owner in (ne, limits, verify, cli):
            self.rebind(owner, "assemble_green_matrix", "discretize.assemble",
                        info=_assembly_key)
        self.rebind(discretize, "quad", QUAD)
        self.rebind(ne, "apply_G0", "discretize.apply_G0")
        for owner in (ne, limits, verify, cli):
            self.rebind(owner, "eigendecompose", "spectral.eigendecompose")
        self.rebind(scipy.linalg, "eigh", "spectral.eigh")
        for owner in (ne, solver, limits, verify, cli):
            self.rebind(owner, "lambda_context", "spectral.lambda_context")
        for attr in ("coeffs", "synth"):
            self.rebind(spectral.SpectralData, attr, "spectral.apply")
        for owner, attrs in ((solver, ("apply_Glambda", "project_perp")),
                             (limits, ("apply_Glambda",)),
                             (verify, ("apply_Glambda", "apply_Glambda_neumann",
                                       "apply_Glambda_perp", "project_perp"))):
            for attr in attrs:
                self.rebind(owner, attr, "spectral.apply")
        for owner in (ne, boundary, solver, verify, cli):
            self.rebind(owner, "martin_apply", "boundary.martin_apply")
        for owner, attrs in ((ne, ("solve_large", "solve_dirichlet")),
                             (solver, ("solve_large", "solve_dirichlet")),
                             (limits, ("solve_large",))):
            for attr in attrs:
                self.rebind(owner, attr, "solver.solve")
        for owner in (ne, solver):
            self.rebind(owner, "sweep_lambda", "solver.sweep")
            self.rebind(owner, "fredholm_diagnose", "solver.fredholm")
        for attr in ("check_max_principle", "check_poincare", "check_notions"):
            self.rebind(solver, attr, "solver.checks")
        for attr in ("large_solution_limit_s", "spectral_convergence_s"):
            self.rebind(verify, attr, "limits.ladder")
        for attr in ("large_solution_limit_s", "resolvent_convergence_s"):
            self.rebind(cli, attr, "limits.ladder")
        for attr in verify.VerifySuite.CHECKS:
            self.rebind(verify.VerifySuite, attr, "verify.check")
        self.rebind(cli, "run_verification", "verify.run")
        for attr in ("write_json", "write_csv"):
            self.rebind(cli, attr, "cli.write", info=_written_bytes)
        self.rebind(cli, "main", "cli.main")

    # -- reduction -------------------------------------------------------
    def _has_ancestor(self, i: int, names) -> bool:
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] in names:
                return True
            p = self.spans[p][3]
        return False

    def self_times(self) -> dict:
        """Per span name: calls, total and self seconds (children subtracted)."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for (parent, _), (_, _, dt) in self.leaf.items():
            child[parent] += dt
        table = {}
        for i, (name, t0, t1, _, _, _) in enumerate(self.spans):
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            if not self._has_ancestor(i, (name,)):
                row["total_s"] += t1 - t0
            row["self_s"] += t1 - t0 - child[i]
        for (_, name), (calls, _, dt) in self.leaf.items():
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += calls
            row["total_s"] += dt
            row["self_s"] += dt
        return table

    def layer_metrics(self, overhead_s: float) -> dict:
        """The benchmark's per-layer metrics for one traced pass."""
        table = self.self_times()

        def col(name, key):
            return table.get(name, {}).get(key, 0)

        def points(name):
            pts = sum(rec[5]["points"] for rec in self.spans if rec[0] == name)
            return pts + sum(agg[1] for (_, n), agg in self.leaf.items() if n == name)

        quad_calls = col(QUAD, "calls")
        quad_evals = sum(agg[0] for agg in self.leaf.values())
        keys = [rec[5]["key"] for rec in self.spans if rec[0] == "discretize.assemble"]
        offdiag = sum(rec[2] - rec[1] for i, rec in enumerate(self.spans)
                      if rec[0] == "kernels.green"
                      and self._has_ancestor(i, ("discretize.assemble",)))
        ladder_assemblies = sum(1 for i, rec in enumerate(self.spans)
                                if rec[0] == "discretize.assemble"
                                and self._has_ancestor(i, ("limits.ladder",)))
        written = sum(rec[5]["bytes"] for rec in self.spans if rec[0] == "cli.write")
        m = {
            "geometry.build_grid.s": (col("geometry.build_grid", "total_s"), "s"),
            "kernels.green.calls": (col("kernels.green", "calls"), "count"),
            "kernels.green.points": (points("kernels.green"), "count"),
            "kernels.green.s": (col("kernels.green", "total_s"), "s"),
            "kernels.martin.calls": (col("kernels.martin", "calls"), "count"),
            "kernels.martin.s": (col("kernels.martin", "total_s"), "s"),
            "discretize.assemble.calls": (len(keys), "count"),
            "discretize.assemble.s": (col("discretize.assemble", "total_s"), "s"),
            "discretize.assemble.repeat_ratio":
                ((len(keys) - len(set(keys))) / len(keys) if keys else 0.0, "ratio"),
            "discretize.diag.s": (col(QUAD, "total_s"), "s"),
            "discretize.offdiag.s": (offdiag, "s"),
            "discretize.quad.calls": (quad_calls, "count"),
            "discretize.quad.evals_per_call":
                (quad_evals / quad_calls if quad_calls else 0.0, "count"),
            "spectral.eigendecompose.calls": (col("spectral.eigendecompose", "calls"), "count"),
            "spectral.eigendecompose.s": (col("spectral.eigendecompose", "total_s"), "s"),
            "spectral.eigh.s": (col("spectral.eigh", "total_s"), "s"),
            "spectral.lambda_context.s": (col("spectral.lambda_context", "total_s"), "s"),
            "spectral.apply.s": (col("spectral.apply", "total_s"), "s"),
            "boundary.martin_apply.calls": (col("boundary.martin_apply", "calls"), "count"),
            "boundary.martin_apply.s": (col("boundary.martin_apply", "total_s"), "s"),
            "solver.solve.calls": (col("solver.solve", "calls"), "count"),
            "solver.solve.self_s": (col("solver.solve", "self_s"), "s"),
            "solver.sweep.s": (col("solver.sweep", "total_s"), "s"),
            "solver.checks.s": (col("solver.checks", "total_s"), "s"),
            "limits.ladder.s": (col("limits.ladder", "total_s"), "s"),
            "limits.ladder.assemble_calls": (ladder_assemblies, "count"),
            "verify.check.calls": (col("verify.check", "calls"), "count"),
            "verify.check.s": (col("verify.check", "total_s"), "s"),
            "cli.write.s": (col("cli.write", "total_s"), "s"),
            "cli.write.bytes": (written, "bytes"),
            "trace.overhead_s": (overhead_s, "s"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}

    def dump(self) -> dict:
        """Everything recorded, for the trace file written at the end of a run."""
        return {
            "fields": ["name", "start", "end", "parent", "request", "info"],
            "spans": self.spans,
            "quad_kernel_calls": [
                {"quad_span": p, "name": n, "calls": c, "points": pts, "s": dt}
                for (p, n), (c, pts, dt) in sorted(self.leaf.items())],
            "self_times": self.self_times(),
            "missing_names": self.missing,
        }
