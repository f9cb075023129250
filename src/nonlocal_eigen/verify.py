"""Named verification checks: the full property suite with pinned
tolerances, shared by the command-line `verify` command and the test
suite.  Every check returns (passed, measured, tolerance, detail), and
`VerifySuite.run` names its CheckResult after the method, without `check_`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property
from math import gamma as gamma_fn
from math import log, pi, sqrt

import numpy as np

from . import solver as solver_mod
from .boundary import martin_apply, weighted_trace
from .discretize import apply_G0, assemble_green_matrix, weighted_norm
from .geometry import BOUNDARY_NODES, build_grid, make_domain
from .kernels import (
    check_K1_bounds,
    make_operator,
    martin_kernel,
    rfl_green_ball,
    sfl_eigenvalue,
)
from .limits import large_solution_limit_s, spectral_convergence_s
from .spectral import (
    apply_Glambda,
    apply_Glambda_neumann,
    apply_Glambda_perp,
    eigendecompose,
    lambda_context,
    project_perp,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""

    to_dict = asdict


def _res(measured, tol, detail="", cmp="lt"):
    return (measured < tol if cmp == "lt" else measured <= tol), measured, tol, detail


class VerifySuite:
    """Builds the shared discretizations once and runs every named check."""

    def __init__(self, N: int = 256, seed: int = 0):
        if seed < 0:
            raise ValueError(f"verify seed must be non-negative, got {seed}")
        if N < 2 * BOUNDARY_NODES:
            # each boundary fit and trace takes BOUNDARY_NODES nodes on its side
            raise ValueError(f"verify needs N >= {2 * BOUNDARY_NODES}, got {N}")
        self.N = N
        self.seed = seed
        self.dom = make_domain("interval", 1, 1.0)
        self.grid = build_grid(self.dom, N, grading=2.0)
        self.grid_u = build_grid(self.dom, N, grading=1.0)  # for the spectrum check

    # -- lazily shared heavy objects ------------------------------------
    @cached_property
    def rfl_sd(self):
        return eigendecompose(assemble_green_matrix(make_operator("rfl", 0.5, self.dom), self.grid))

    @cached_property
    def grid2(self):
        """The 2N grid at grading 2, for the refinement and trace checks."""
        return build_grid(self.dom, 2 * self.N, grading=2.0)

    @cached_property
    def ctx_half(self):
        """The RFL context at lambda = lambda_1 / 2, shared by the operator identities."""
        return lambda_context(self.rfl_sd, 0.5 * self.rfl_sd.lam[0])

    def _sfl_at(self, grid):
        op = make_operator("sfl", 0.75, self.dom, sfl_truncation=grid.N)
        return eigendecompose(assemble_green_matrix(op, grid))

    @cached_property
    def sfl_sd(self):
        return self._sfl_at(self.grid)

    # -- criterion 1: kernel exactness ----------------------------------
    def check_kernel_exactness(self):
        op = make_operator("rfl", 0.5, self.dom)
        val = float(rfl_green_ball(op, 0.0, 0.5 * self.dom.r))
        oracle = log(2.0 + sqrt(3.0)) / pi
        return _res(abs(val - oracle), 1e-10,
                    f"G(0, r/2) = {val!r} vs closed form {oracle!r}")

    def check_kernel_symmetry(self):
        rng = np.random.default_rng(self.seed)
        op = make_operator("rfl", 0.5, self.dom)
        r = self.dom.r
        x = rng.uniform(-0.999 * r, 0.999 * r, 1000)
        y = rng.uniform(-0.999 * r, 0.999 * r, 1000)
        keep = np.abs(x - y) > 1e-6 * r
        res = np.max(np.abs(np.asarray(rfl_green_ball(op, x[keep], y[keep]))
                            - np.asarray(rfl_green_ball(op, y[keep], x[keep]))))
        return _res(res, 1e-12, f"{int(np.sum(keep))} random pairs")

    def check_kernel_K1_bounds(self):
        # boundary distances and |x - y| log-uniform down to 1e-6 r, so that the
        # pairs reach both the boundary and the diagonal
        rng = np.random.default_rng(self.seed)
        r, spreads = self.dom.r, []
        for s, n in ((0.25, 1), (0.5, 1), (0.75, 3)):
            u = rng.standard_normal((2, 1000, n))
            u /= np.linalg.norm(u, axis=-1, keepdims=True)
            x = r * (1.0 - 10.0 ** rng.uniform(-6, 0, (1000, 1))) * u[0]
            y = x + r * 10.0 ** rng.uniform(-6, 0.3, (1000, 1)) * u[1]
            inside = np.linalg.norm(y, axis=1) < r
            dom = make_domain("interval" if n == 1 else "ball", n, r)
            lo, hi = check_K1_bounds(make_operator("rfl", s, dom),
                                     x[inside].squeeze(), y[inside].squeeze())
            spreads.append(hi / lo)
        # about twice 3.47, the largest spread over seeds 0-19 (seed 0, the 3-ball)
        return _res(max(spreads), 7.0, cmp="le",
                    detail="max/min of G_0 over its (K1) comparison at s = 0.25, 0.5 "
                           "(log case) on the interval and s = 0.75 on the 3-ball: "
                           + ", ".join(f"{q:.3f}" for q in spreads))

    # -- criterion 2: Martin/harmonic identity --------------------------
    def check_martin_harmonic_identity(self):
        op = make_operator("rfl", 0.75, self.dom)
        m1 = martin_apply(op, self.grid, 1.0).values
        plus, minus = self.grid.sides
        prof = m1 * (plus * minus) ** (1.0 - op.s)
        cv = float(np.std(prof) / np.mean(prof))
        return _res(cv, 1e-8,
                    "coefficient of variation of M(1) * (r^2-x^2)^{1-s}, r -+ x from delta")

    # -- criterion 3: SFL spectrum --------------------------------------
    def check_sfl_spectrum(self):
        sd = self._sfl_at(self.grid_u)
        k = np.arange(1, 11)
        exact = sfl_eigenvalue(self.dom, k) ** sd.dk.op.s
        rel = np.max(np.abs(sd.lam[:10] - exact) / exact)
        return _res(rel, 1e-6,
                    f"lambda_1..10 vs ((k pi/2r)^2)^s, M = N = {self.N}")

    # -- criterion 4: orthonormality and positivity ---------------------
    def check_gram_residual(self):
        sd = self.rfl_sd
        G = sd.phi.T @ (self.grid.w[:, None] * sd.phi)
        res = np.max(np.abs(G - np.eye(sd.m)))
        return _res(res, 1e-8, f"{sd.m} retained modes")

    def check_phi1_nonnegative(self):
        sd = self.rfl_sd
        phi1 = sd.phi[:, 0]
        return _res(-np.min(phi1), 1e-8 * np.max(phi1),
                    cmp="le", detail="min phi_1 vs -1e-8 max phi_1")

    def check_phi1_delta_bracket(self):
        brackets = []
        for sd in (self.sfl_sd, self._sfl_at(self.grid2)):
            q = sd.phi[:, 0] / sd.grid.delta**sd.dk.op.gamma
            brackets.append(float(np.max(q) / np.min(q)))
        b1, b2 = brackets
        change = abs(b2 - b1) / b1
        return _res(change, 0.25,
                    f"max/min of phi_1/delta^gamma: {b1:.6f} (N={self.N}) "
                    f"vs {b2:.6f} (N={2 * self.N})")

    # -- criterion 5: operator identities -------------------------------
    def check_integration_by_parts(self):
        ctx = self.ctx_half
        # pair t is rows 2t and 2t + 1, drawn in the order of 100 pairs of draws
        fg = np.random.default_rng(self.seed).standard_normal((200, self.grid.N))
        G = apply_Glambda(ctx, fg.T).values.T
        wf, wg = self.grid.w * fg[0::2], self.grid.w * fg[1::2]
        num = np.abs(np.sum(wf * G[1::2], axis=1) - np.sum(wg * G[0::2], axis=1))
        den = np.sqrt(np.sum(wf * fg[0::2], axis=1)) * np.sqrt(np.sum(wg * fg[1::2], axis=1))
        return _res(np.max(num / den), 1e-9, "100 random pairs")

    def check_neumann_vs_spectral(self):
        ctx = self.ctx_half
        rng = np.random.default_rng(self.seed)
        f = rng.standard_normal(self.grid.N)
        un = apply_Glambda_neumann(ctx, f).values
        us = apply_Glambda(ctx, f).values
        res = np.sqrt(np.sum(self.grid.w * (un - us) ** 2))
        return _res(res, 1e-8, "lambda = 0.5 lambda_1")

    def check_notion_equivalence(self):
        rng = np.random.default_rng(self.seed)
        f = rng.standard_normal(self.grid.N)
        res = solver_mod.check_notions(self.ctx_half, f)
        worst = max(res.values())
        return _res(worst, 1e-8,
                    f"r1={res['r1']:.2e} r5={res['r5']:.2e} r6={res['r6']:.2e}")

    # -- criterion 6: maximum principle ---------------------------------
    def check_maximum_principle(self):
        sd = self.rfl_sd
        lam1 = sd.lam[0]
        worst = np.inf
        fails = 0
        lams = (-5.0, 0.0, 0.9 * lam1, 0.99 * lam1)
        for lam in lams:
            ctx = lambda_context(sd, lam)
            rep = solver_mod.check_max_principle(ctx, seed=self.seed)
            worst = min(worst, rep.worst_margin)
            fails += rep.n_failures
        return (fails == 0, worst, -1e-8,
                f"{len(lams) * solver_mod.TRIALS} trials over lambda in "
                "{-5, 0, 0.9, 0.99 lambda_1}; measured = worst min u / max u")

    def check_max_principle_negative_control(self):
        sd = self.rfl_sd
        ctx = lambda_context(sd, 0.5 * (sd.lam[0] + sd.lam[1]))
        u = apply_Glambda(ctx, sd.phi[:, 0]).values
        return (np.min(u) < 0, np.min(u), 0.0,
                "lambda in (lambda_1, lambda_2), f = phi_1 must go negative")

    # -- criterion 7: Poincare ------------------------------------------
    def check_poincare(self):
        rep = solver_mod.check_poincare(self.rfl_sd, seed=self.seed)
        return _res(rep.worst_margin, 1.0 + 1e-8,
                    "worst lambda_1 <phi, G0 phi> / <phi, phi> over "
                    f"{solver_mod.TRIALS} random phi")

    def check_poincare_equality_phi1(self):
        sd = self.rfl_sd
        w = self.grid.w
        phi1 = sd.phi[:, 0]
        lhs = sd.lam[0] * np.sum(w * phi1 * apply_G0(sd.dk, phi1).values)
        rhs = np.sum(w * phi1 * phi1)
        return _res(abs(lhs / rhs - 1.0), 1e-8)

    # -- criterion 8: uniform E-perp estimate ---------------------------
    def check_uniform_Eperp_estimate(self):
        sd = self.sfl_sd
        rng = np.random.default_rng(self.seed)
        f = rng.uniform(0.5, 1.5, self.grid.N)
        # orthogonal to the lowest three groups so no single near-lambda_1
        # denominator dominates the ladder (f remains orthogonal to phi_1)
        f = project_perp(sd, 3, f).values
        lams = [frac * sd.lam[0] for frac in (0.5, 0.9, 0.99, 0.999)]
        norms = solver_mod.sweep_lambda(sd.dk.op, sd, f, None, 1, lams).uperp_L1_dgamma
        ratio = max(norms) / min(norms)
        return _res(ratio, 1.1, cmp="le",
                    detail="||u_perp delta^gamma||_L1 max/min over the lambda ladder")

    # -- criterion 9: Fredholm blow-up rate and global blow-up ----------
    @cached_property
    def _sweep(self):
        return solver_mod.sweep_lambda(self.sfl_sd.dk.op, self.sfl_sd, None, (1.0, 1.0), 1)

    def check_fredholm_blowup_rate(self):
        # rung 1 of the default ladder, SWEEP_OFFSETS[1] = 1e-3 below lambda_1
        sw, sd = self._sweep, self.sfl_sd
        lam1, lam = sd.lam[0], sw.lam_list[1]
        v_h = sw.reports[1].v_h.values
        target = abs(lam1 * np.sum(self.grid.w * v_h * sd.phi[:, 0]))
        rel = abs(abs(sw.proj_i[1]) * (lam1 - lam) - target) / target
        return _res(rel, 1e-3,
                    "|<v, phi_1>| (lambda_1 - lambda) vs lambda_1 <v_h, phi_1> "
                    "at lambda = 0.999 lambda_1")

    def check_blowup_sup_monotone(self):
        sw = self._sweep
        return (np.all(np.diff(sw.sup_K_Aplus) > 0), sw.sup_K_Aplus[-1], 0.0,
                "sup over K cap A+ strictly increasing along the sweep")

    def check_global_blowup(self):
        inf_seq = self._sweep.inf_Omega
        return (np.any(inf_seq > 100.0), inf_seq[-1], 100.0,
                f"inf over all nodes along sweep: {np.array2string(inf_seq, precision=2)}")

    # -- criterion 10: Fredholm convergence, degenerate case ------------
    def check_fredholm_case_a_convergence(self):
        sd = self.sfl_sd
        rng = np.random.default_rng(self.seed)
        g = rng.uniform(0.5, 1.5, self.grid.N)
        gp = project_perp(sd, 1, g)
        ref = apply_Glambda_perp(sd, 1, sd.lam[0], gp).values
        lams = [sd.lam[0] * (1.0 + sign * 1e-4) for sign in (-1.0, 1.0)]
        sw = solver_mod.sweep_lambda(sd.dk.op, sd, gp, None, 1, lams)
        v = np.stack([rep.v_total.values for rep in sw.reports], axis=1)
        dists = weighted_norm(v - ref[:, None], self.grid, sd.dk.op.gamma)
        return _res(max(dists), 1e-4,
                    f"L1(delta^gamma) distance to the limit from below/above: "
                    f"{dists[0]:.2e} / {dists[1]:.2e}")

    # -- criterion 11: s -> 1 -------------------------------------------
    def check_ball_martin_to_poisson(self):
        dom3 = make_domain("ball", 3, self.dom.r)
        op, op1 = make_operator("rfl", 0.995, dom3), make_operator("classical", 1.0, dom3)
        rng = np.random.default_rng(self.seed)
        z = np.array([dom3.r, 0.0, 0.0])
        worst = 0.0
        for _ in range(30):
            y = rng.uniform(-0.5, 0.5, 3) * dom3.r
            ds = float(martin_kernel(op, z, y))
            d1 = float(martin_kernel(op1, z, y))
            worst = max(worst, abs(ds - d1) / d1)
        return _res(worst, 0.02,
                    "relative kernel distance at s = 0.995, n = 3, interior samples")

    def check_sfl_lambda1_monotone(self):
        rep = spectral_convergence_s("sfl", [0.6, 0.7, 0.8, 0.9, 0.95, 0.99], 3,
                                     self.grid_u, sfl_truncation=self.N)
        errs = np.abs(rep["lam1"] - (pi / (2.0 * self.dom.r)) ** 2)
        return (np.all(np.diff(errs) < 0), errs[-1], 0.0,
                "|lambda_1(s) - pi^2/4r^2| strictly decreasing along the ladder")

    @cached_property
    def _large_ladder(self):
        return large_solution_limit_s("rfl", [0.7, 0.9, 0.99], 0.0, (1.0, 1.0), self.grid)

    def check_boundary_exponent_vanishes(self):
        rep = self._large_ladder
        fit = rep["boundary_fit"]
        return (rep.monotone["fit_to_zero"] and abs(fit[-1]) < 0.02, abs(fit[-1]), 0.02,
                f"log|v| vs log delta slopes: {np.array2string(fit, precision=4)}")

    def check_large_solution_classical_limit(self):
        rep = self._large_ladder
        return (rep.monotone["sol_dist_decreasing"], rep["sol_dist"][-1], 0.0,
                f"L1(K) distances to the classical solution: "
                f"{np.array2string(rep['sol_dist'], precision=4)}")

    # -- criterion 12: weighted trace -----------------------------------
    def check_trace_reproduces_h(self):
        grid = self.grid2
        op = make_operator("rfl", 0.75, self.dom)
        h = (2.0, 5.0)
        vh = martin_apply(op, grid, h)
        errs = [abs(weighted_trace(op, vh, z, grid) - hz) / abs(hz)
                for z, hz in zip((-self.dom.r, self.dom.r), h)]
        return _res(max(errs), 1e-3,
                    f"B(M((2,5))) at both endpoints, N = {2 * self.N}")

    def check_martin_constant(self):
        # lim delta^{1-s} M(1) = 1 / B(delta^{s-1}), against its closed form
        op = make_operator("rfl", 0.75, self.dom)
        s, r = op.s, self.dom.r
        measured = 1.0 / weighted_trace(op, self.grid.delta ** (s - 1), r, self.grid)
        oracle = 1.0 / (s * gamma_fn(s) ** 2 * r)
        return _res(abs(measured - oracle) / oracle, 1e-8,
                    f"lim delta^(1-s) M(1) = {measured!r} vs kernel candidate "
                    f"1/(s Gamma(s)^2 r) = {oracle!r}")

    # -- driver ---------------------------------------------------------
    # every check_* method, in definition order
    CHECKS = [name for name in list(locals()) if name.startswith("check_")]

    def run(self, check: str) -> CheckResult:
        """Run one check method, named after it without `check_`; a crash is
        a failed check under that same name, not a crash."""
        name = check.removeprefix("check_")
        try:
            passed, measured, tol, detail = getattr(self, check)()
        except Exception as exc:
            return CheckResult(name, False, float("nan"), float("nan"),
                               f"raised {type(exc).__name__}: {exc}")
        return CheckResult(name, bool(passed), float(measured), float(tol), detail)

    def run_all(self) -> list[CheckResult]:
        return [self.run(check) for check in self.CHECKS]


def run_verification(N: int = 256, seed: int = 0) -> list[CheckResult]:
    return VerifySuite(N=N, seed=seed).run_all()
