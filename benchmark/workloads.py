"""The benchmark's workloads: inputs made from the seed, one pass of work,
and the closed-form checks each pass is held to.

A pass is a fixed amount of work; a run repeats passes until its time is
used.  A "request" is the unit a user of the package waits for: one
spectral solve, sweep or Fredholm diagnosis of the request stream, or,
for the batch workloads, the whole pass (the six assemblies, the ball
assembly, one ``verify`` invocation).  An operation that raises, or whose
result misses its tolerance, counts as failed.

Tolerances are pinned from the errors measured on the first measured
commit, with headroom, and are never looser than the repository's tests
at the same N.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import nonlocal_eigen as ne
import nonlocal_eigen.cli  # noqa: F401  (ne.cli)

# seed torsion relative errors at N = 128 / 256:
#   s = 0.5: 1.75e-3 / 9.82e-4, s = 0.75: 4.37e-4 / 1.84e-4, s = 0.99: 1.26e-4 / 4.03e-5;
# at N = 16 / 32: 1.06e-2 / 5.62e-3, 6.80e-3 / 2.55e-3, 4.70e-3 / 1.28e-3.
# The repository's test at N = 128, s = 0.75 allows 1e-3 absolute, 1.33e-3 relative.
TORSION_TOL = {
    (0.5, 128): 2.5e-3, (0.5, 256): 1.5e-3,
    (0.75, 128): 6.5e-4, (0.75, 256): 2.8e-4,
    (0.99, 128): 1.9e-4, (0.99, 256): 6e-5,
    # smoke sizes
    (0.5, 16): 2e-2, (0.5, 32): 1e-2,
    (0.75, 16): 1.2e-2, (0.75, 32): 5e-3,
    (0.99, 16): 1e-2, (0.99, 32): 2.5e-3,
}
# seed torsion error order from N = 128 to 256: 0.83, 1.25, 1.65 for
# s = 0.5, 0.75, 0.99 (0.91 at s = 0.5 from N = 16 to 32); a faster
# diagonal must keep it
TORSION_ORDER_MIN = 0.75
# seed: lambda_1 relative error 1.06e-4 at N = 1024, M = 4096 (4.4e-3 at N = 64, M = 256)
LAM1_TOL = {1024: 2e-4, 64: 8e-3}
# solves: green_residual / ||u||_W measured at most 2e-14; the repository's
# tests hold the absolute residual to 1e-10 at O(1) data
GREEN_RES_TOL = 1e-10
# the ball at N = 8: 1.24e-2 relative (5.2e-3 absolute)
BALL_TOL = 2e-2


@dataclass
class Pass:
    """What one pass measured and checked."""

    wall_s: float = 0.0
    latencies_s: list = field(default_factory=list)
    request_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    figures: dict = field(default_factory=dict)

    def op(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}")

    def timed(self, name, call, mark, request=True):
        """Run one call, timing it; a raised exception is a failed operation.

        A request's latency joins the pass's request stream.
        """
        mark(name)
        t0 = perf_counter()
        try:
            out = call()
        except Exception as exc:  # a failed request is counted, not fatal
            out = None
            self.op(name, False, f"raised {type(exc).__name__}: {exc}")
        dt = perf_counter() - t0
        mark(None)
        if request:
            self.latencies_s.append(dt)
            self.request_s += dt
        return out

    def batch(self, wall_s: float) -> None:
        """Close a pass whose whole work is one request."""
        self.wall_s = self.request_s = wall_s
        self.latencies_s = [wall_s]


def _no_mark(_request) -> None:
    pass


# ---------------------------------------------------------------------------
# rfl-assemble: the RFL interval assembly, dominated by the quad diagonal
# ---------------------------------------------------------------------------

def torsion_exact(s: float, n: int, r: float, x) -> np.ndarray:
    """Solution of (-Delta)^s u = 1 on B_r with zero exterior data."""
    c = math.gamma(n / 2) / (2 ** (2 * s) * math.gamma(s + n / 2) * math.gamma(1 + s))
    return c * (r * r - np.asarray(x) ** 2) ** s


def _torsion_case(p: Pass, domain, s: float, N: int, mark, tol: float):
    def work():
        op = ne.make_operator("rfl", s, domain)
        grid = ne.build_grid(domain, N)
        dk = ne.assemble_green_matrix(op, grid)
        ne.eigendecompose(dk)
        return grid, ne.apply_G0(dk, np.ones(N)).values

    name = f"rfl s={s} N={N}"
    out = p.timed(name, work, mark, request=False)
    if out is None:
        return math.nan
    grid, u = out
    exact = torsion_exact(s, domain.n, domain.r, grid.x)
    err = float(np.max(np.abs(u - exact)) / np.max(exact))
    p.op(name, err <= tol, f"torsion relative error {err:.3e} > {tol:.1e}")
    return err


def rfl_assemble(cfg: dict, inputs, mark=_no_mark) -> Pass:
    p = Pass()
    domain = ne.make_domain("interval", 1, 1.0)
    errs = {}
    t0 = perf_counter()
    for s in cfg["s"]:
        for N in cfg["N"]:
            errs[s, N] = _torsion_case(p, domain, s, N, mark, TORSION_TOL[s, N])
    p.batch(perf_counter() - t0)
    lo, hi = cfg["N"]
    orders = []
    for s in cfg["s"]:
        order = math.log2(errs[s, lo] / errs[s, hi]) / math.log2(hi / lo)
        orders.append(order)
        p.op(f"order s={s}", order >= TORSION_ORDER_MIN,
             f"torsion order {order:.3f} < {TORSION_ORDER_MIN}")
    p.figures = {"torsion_rel_err": max(errs.values()), "torsion_order": min(orders),
                 "torsion_rel_err_by_case": {f"s={s} N={N}": e for (s, N), e in errs.items()}}
    return p


def rfl_ball(cfg: dict, inputs, mark=_no_mark) -> Pass:
    p = Pass()
    domain = ne.make_domain("ball", cfg["n"], 1.0)
    t0 = perf_counter()
    err = _torsion_case(p, domain, cfg["s"], cfg["N"], mark, BALL_TOL)
    p.batch(perf_counter() - t0)
    p.figures = {"torsion_rel_err": err}
    return p


# ---------------------------------------------------------------------------
# sfl-requests: diagonalize once, then answer a closed-loop request stream
# ---------------------------------------------------------------------------

SWEEP_OFFSETS = np.array([1e-2, 1e-3, 1e-4, 1e-5, 2e-6])   # as `nonlocal-eigen sweep`


def sfl_exact(s: float, k) -> np.ndarray:
    """SFL eigenvalues ((k pi / 2r)^2)^s on (-1, 1)."""
    return ((np.asarray(k, dtype=float) * math.pi / 2.0) ** 2) ** s


def _g_spec(rng) -> str:
    kind = rng.integers(4)
    if kind == 0:
        return "zero"
    if kind == 1:
        return "one"
    if kind == 2:
        return f"delta_pow:{rng.choice([-0.5, 0.5, 1.0])}"
    return f"eigmode:{rng.integers(1, 11)}"


def sfl_inputs(cfg: dict, seed: int) -> list[dict]:
    """The seeded request list, replayed unchanged by every pass.

    The mix is fixed (solves, sweeps and Fredholm diagnoses in set
    proportions) so that seeds differ in parameters and order only.
    Solve lambdas lie in (-lambda_1, lambda_10) and keep 2% of lambda_1
    away from the exact spectrum.
    """
    rng = np.random.default_rng(seed)
    lam = sfl_exact(cfg["s"], np.arange(1, 11))
    kinds = (["solve"] * cfg["solves"] + ["sweep"] * cfg["sweeps"]
             + ["fredholm"] * cfg["fredholm"])
    requests = []
    for kind in rng.permutation(kinds):
        req = {"kind": str(kind), "g": _g_spec(rng),
               "h": [float(v) for v in rng.uniform(0.5, 2.0, 2)]}
        if kind == "solve":
            while True:
                value = float(rng.uniform(-lam[0], lam[-1]))
                if np.min(np.abs(lam - value)) > 0.02 * lam[0]:
                    break
            req["lam"] = value
        else:
            req["group"] = int(rng.integers(1, 6))
        requests.append(req)
    return requests


def _rel_green_residual(grid, rep) -> float:
    u = rep.explicit.values + rep.u_perp.values
    return rep.green_residual / max(float(np.sqrt(np.sum(grid.w * u * u))), 1e-300)


def _answer(p: Pass, op, grid, sd, i: int, req: dict, mark) -> None:
    cli = ne.cli
    name = f"request {i} {req['kind']}"
    h = tuple(req["h"])

    def work():
        g = cli.resolve_g(req["g"], grid, sd, op)
        if req["kind"] == "solve":
            ctx = ne.lambda_context(sd, req["lam"])
            return [ne.solve_large(op, sd, ctx, g, h)]
        group = sd.groups[req["group"] - 1]
        lam_i = sd.lam[group[0]]
        if req["kind"] == "sweep":
            return ne.sweep_lambda(op, sd, g, h, req["group"],
                                   lam_i * (1.0 - SWEEP_OFFSETS)).reports
        return ne.fredholm_diagnose(sd, op, g, h, req["group"])

    out = p.timed(name, work, mark)
    if out is None:
        return
    if req["kind"] == "fredholm":
        # a simple eigenvalue group: the projection is a multiple of phi_i
        phi = sd.phi[:, sd.groups[req["group"] - 1][0]]
        proj = out.projection.values
        resid = proj - np.sum(grid.w * proj * phi) * phi
        scale = max(float(np.max(np.abs(proj))), 1e-300)
        ok = bool(np.all(np.isfinite(proj))) and float(np.max(np.abs(resid))) <= 1e-10 * scale
        p.op(name, ok, "projection is not a multiple of phi_i")
        return
    worst = max(_rel_green_residual(grid, rep) for rep in out)
    p.figures["green_residual_max"] = max(p.figures.get("green_residual_max", 0.0), worst)
    p.op(name, worst <= GREEN_RES_TOL,
         f"relative green_residual {worst:.3e} > {GREEN_RES_TOL:.0e}")


def sfl_requests(cfg: dict, requests: list[dict], mark=_no_mark) -> Pass:
    p = Pass()
    domain = ne.make_domain("interval", 1, 1.0)
    t0 = perf_counter()

    def build():
        op = ne.make_operator("sfl", cfg["s"], domain, cfg["M"])
        grid = ne.build_grid(domain, cfg["N"])
        return op, grid, ne.eigendecompose(ne.assemble_green_matrix(op, grid))

    setup = p.timed("sfl assembly", build, mark, request=False)
    if setup is not None:
        op, grid, sd = setup
        exact = float(sfl_exact(cfg["s"], 1))
        err = abs(float(sd.lam[0]) - exact) / exact
        tol = LAM1_TOL[cfg["N"]]
        p.op("sfl lambda_1", err <= tol, f"lambda_1 relative error {err:.3e} > {tol:.0e}")
        p.figures["lam1_rel_err"] = err
        for i, req in enumerate(requests):
            _answer(p, op, grid, sd, i, req, mark)
    p.wall_s = perf_counter() - t0
    return p


# ---------------------------------------------------------------------------
# cli-verify: the named end-to-end, `nonlocal-eigen verify --N 256`
# ---------------------------------------------------------------------------

def cli_verify(cfg: dict, inputs, mark=_no_mark) -> Pass:
    p = Pass()
    out = tempfile.mkdtemp(prefix="verify-", dir=cfg["scratch"])
    try:
        argv = ["verify", "--N", str(cfg["N"]), "--out", out]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = perf_counter()
            code = p.timed("verify", lambda: ne.cli.main(argv), mark, request=False)
            p.batch(perf_counter() - t0)
        path = os.path.join(out, "verify.json")
        report = None
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                report = json.load(fh)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    # one operation per named check, and one for the exit status
    expect = set(cfg["expect_fail"])
    if report is None:
        for _ in range(len(ne.verify.VerifySuite.CHECKS) + 1):
            p.op("verify", False, f"exit code {code}, no verify.json")
        return p
    for c in report["checks"]:
        p.op(f"check {c['name']}", c["passed"] != (c["name"] in expect),
             f"passed={c['passed']} measured={c['measured']} tolerance={c['tolerance']}")
    p.op("verify exit", code == (1 if expect else 0) and report["all_passed"] == (not expect),
         f"exit code {code}, all_passed {report['all_passed']}")
    p.figures = {"exit_code": code, "checks": len(report["checks"])}
    return p
