"""Large solutions of the inhomogeneous eigenvalue problem, Fredholm
diagnostics, lambda sweeps, and maximum-principle / Poincare verifiers.

A large solution with boundary datum h and interior datum g at a regular
spectral parameter lambda is v = v_h + G_lambda(g + lambda v_h); it is
reported decomposed into v_h, the explicit low-eigenspace part, and the
uniformly bounded complement u_perp.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .boundary import boundary_values
from .discretize import GridFunction, apply_G0, one_function
from .kernels import OperatorSpec
from .spectral import LambdaContext, SpectralData, apply_Glambda, lambda_context

# relative offsets below lambda_i of the default sweep ladder
SWEEP_OFFSETS = [1e-2, 1e-3, 1e-4, 1e-5, 2e-6]

# random draws of each Monte-Carlo check
TRIALS = 100


@dataclass(frozen=True)
class SolveReport:
    """A solution v = v_h + explicit + u_perp with diagnostic norms."""

    lam: float
    I: int
    v_h: GridFunction
    explicit: GridFunction
    u_perp: GridFunction
    v_total: GridFunction
    norms: dict
    green_residual: float

    def to_dict(self) -> dict:
        return {"lambda": self.lam, "I": self.I, "norms": self.norms,
                "green_residual": self.green_residual,
                "v_h": list(self.v_h.values),
                "explicit": list(self.explicit.values),
                "u_perp": list(self.u_perp.values),
                "v_total": list(self.v_total.values)}


def _data(op: OperatorSpec, sd: SpectralData, g, h):
    """g and v_h = M(h) at the nodes, and their weighted coefficients c_g and
    c_h; None is zero data.

    g + lambda v_h then has the coefficients c_g + lambda c_h.  v_h and c_h
    lift the validated h by the Martin basis and its coefficients C_M, both
    cached on the spectrum, so only g takes a pass over phi, and zero g or a
    g this spectrum has seen none (``SpectralData.coeffs`` keeps c_g).
    op must be the operator of the spectrum sd; g is one function.
    """
    if op != sd.dk.op:
        raise ValueError(f"operator {op} is not the operator of the spectrum, {sd.dk.op}")
    grid = sd.grid
    gv = one_function(g, grid, "g") if g is not None else np.zeros(grid.N)
    c_g = sd.coeffs(gv) if gv.any() else np.zeros(sd.m)
    if h is None:
        return gv, np.zeros(grid.N), c_g, np.zeros(sd.m)
    h = boundary_values(op, h)
    # as boundary.martin_apply lifts h, bit for bit
    return gv, np.einsum("j,ji->i", h, sd.martin_basis), c_g, sd.martin_coeffs @ h


def _solve(ctxs: list[LambdaContext], data, split_at: int,
           mask: np.ndarray) -> tuple[list[SolveReport], np.ndarray, dict]:
    """v = v_h + G_lambda(g + lambda v_h) for a block of rungs on one spectrum,
    one lambda context each, from ``_data``'s (g, v_h, c_g, c_h): split into
    the explicit part on the modes below split_at and the complement u_perp,
    with sup_K over the nodes of mask.  Returns the reports, v as a (T, N)
    block, one row per rung, and the four norms as arrays, one entry per
    rung.  One synthesis and one apply_G0 serve the whole block, and
    w delta^gamma is formed once; each rung is a contiguous row."""
    sd = ctxs[0].sd
    grid = sd.grid
    gv, v_h, c_g, c_h = data
    lams = np.array([[ctx.lam] for ctx in ctxs])
    c = (c_g + lams * c_h) / (sd.lam - lams)
    explicit_gf = sd.synth(c[:, :split_at].T, slice(split_at))
    perp_gf = sd.synth(c[:, split_at:].T, slice(split_at, None))
    explicit, perp = explicit_gf.values.T, perp_gf.values.T
    total = v_h + explicit + perp
    total_gf = GridFunction(grid, total.T)
    u = explicit + perp  # = G_lambda(rhs)
    # Green identity u = G_0(rhs + lambda u), rhs = g + lambda v_h, one block matvec
    rhs = gv + lams * v_h
    u_green = apply_G0(sd.dk, (rhs + lams * u).T).values.T
    green_res = np.sqrt((u - u_green) ** 2 @ grid.w)
    wd = grid.w * grid.delta ** sd.dk.op.gamma
    abs_total = np.abs(total)
    # |v| >= 0 and mask holds a node, so the initial 0 is never the sup
    norms = {"v_L1_dgamma": abs_total @ wd, "uperp_L1_dgamma": np.abs(perp) @ wd,
             "sup_K": np.max(abs_total, axis=1, where=mask, initial=0.0),
             "inf_Omega": np.min(total, axis=1)}
    vh = GridFunction(grid, v_h)
    parts = zip(ctxs, explicit_gf.columns(), perp_gf.columns(), total_gf.columns())
    reports = [SolveReport(lam=ctx.lam, I=ctx.I, v_h=vh, explicit=e, u_perp=p, v_total=v,
                           norms={k: float(a[t]) for k, a in norms.items()},
                           green_residual=float(green_res[t]))
               for t, (ctx, e, p, v) in enumerate(parts)]
    return reports, total, norms


def solve_large(op: OperatorSpec, sd: SpectralData, ctx: LambdaContext,
                g, h) -> SolveReport:
    """Singular boundary data: v = v_h + G_lambda(g + lambda v_h).

    h None is the Dirichlet solve v = G_lambda(g), decomposed over E/E-perp.
    op must be sd's operator and ctx a context of sd.  The coefficients of
    g + lambda v_h take one single-column pass over phi, and none for zero g
    or for a g this spectrum has seen.
    """
    if ctx.sd is not sd:
        raise ValueError("the lambda context belongs to another spectrum")
    data = _data(op, sd, g, h)
    return _solve([ctx], data, ctx.I, sd.grid.compact_mask())[0][0]


@dataclass(frozen=True)
class FredholmReport:
    """Projection of g + lambda_i v_h onto the eigenvalue group E_i."""

    lam_i: float
    projection: GridFunction
    eps: float
    A_plus: np.ndarray
    A_minus: np.ndarray

    @property
    def degenerate(self) -> bool:
        """Case (a) of the dichotomy: the projection vanishes."""
        return len(self.A_plus) == 0 and len(self.A_minus) == 0


def fredholm_diagnose(sd: SpectralData, op: OperatorSpec, g, h, i: int) -> FredholmReport:
    """Evaluate the blow-up dichotomy data at the i-th eigenvalue group.

    i is 1-based.  The sign sets A+ and A- hold the nodes where the
    projection lies above eps or below -eps, with eps = 1e-3 times its
    sup, which keeps them nonempty in the blow-up case.  The projection
    takes one single-column pass over phi, for g, and none for zero g or
    for a g this spectrum has seen.
    """
    return _fredholm(sd, _data(op, sd, g, h), i)


def _fredholm(sd: SpectralData, data, i: int) -> FredholmReport:
    """The projection of g + lambda_i v_h onto E_i, from ``_data``'s
    coefficients c_g + lambda_i c_h: a synthesis over the group, no pass."""
    grp = sd.group(i)
    lam_i = float(sd.lam[grp[0]])
    gv, v_h, c_g, c_h = data
    proj = sd.synth(c_g[grp] + lam_i * c_h[grp], grp).values
    sup = float(np.max(np.abs(proj)))
    # floored at the data scale so a projection that vanishes up to
    # roundoff yields empty sign sets (the degenerate case)
    scale = max(float(np.max(np.abs(gv + lam_i * v_h))), 1e-300)
    eps = max(1e-3 * sup, 1e-10 * scale)
    return FredholmReport(lam_i=lam_i,
                          projection=GridFunction(sd.grid, proj),
                          eps=eps,
                          A_plus=np.nonzero(proj > eps)[0],
                          A_minus=np.nonzero(proj < -eps)[0])


@dataclass(frozen=True)
class SweepReport:
    """Condensed diagnostics of a lambda sweep toward an eigenvalue."""

    lam_i: float
    lam_list: np.ndarray
    sup_K: np.ndarray
    sup_K_Aplus: np.ndarray
    inf_Omega: np.ndarray
    uperp_L1_dgamma: np.ndarray
    proj_i: np.ndarray          # <v_lambda, phi_i> (first mode of the group)
    fitted_constant: float
    fitted_spread: float
    reports: list[SolveReport] = field(repr=False, default=None)


def sweep_lambda(op: OperatorSpec, sd: SpectralData, g, h, i: int,
                 lam_list=None) -> SweepReport:
    """Sweep lambda toward the i-th eigenvalue, recording blow-up data.

    The E/E-perp split is taken relative to the eigenvalue groups up to
    and including group i, so u_perp stays uniformly bounded while the
    explicit part carries the 1/(lambda_i - lambda) blow-up.  lam_list
    None is the ladder lambda_i (1 - SWEEP_OFFSETS); a lambda on the
    spectrum raises SpectralHit.  <g + lambda v_h, phi_j> is c_g + lambda c_h,
    so the Fredholm projection and every rung come from one single-column
    pass for g (none for zero g or for a g this spectrum has seen), and the
    whole ladder is solved as one block; proj_i and sup_K_Aplus are one
    product and one reduction of it.
    """
    grid = sd.grid
    data = _data(op, sd, g, h)
    fred = _fredholm(sd, data, i)
    lam_i = fred.lam_i
    grp = sd.group(i)
    split_at = int(grp[-1]) + 1
    if lam_list is None:
        lam_list = lam_i * (1.0 - np.array(SWEEP_OFFSETS))
    lam_list = np.asarray(lam_list, dtype=float)
    if lam_list.ndim != 1 or len(lam_list) == 0:
        raise ValueError(f"lam_list must be a nonempty list of lambdas, got {lam_list!r}")
    ctxs = [lambda_context(sd, lam) for lam in lam_list]
    mask = grid.compact_mask()
    reports, total, norms = _solve(ctxs, data, split_at, mask)

    maskKA = mask & (fred.projection.values > fred.eps)
    if maskKA.any():
        supKA = np.max(np.abs(total), axis=1, where=maskKA, initial=0.0)
    else:
        supKA = np.full(len(lam_list), np.nan)
    proj = total @ (grid.w * sd.phi[:, grp[0]])
    products = supKA * np.abs(lam_i - lam_list)
    if np.all(np.isfinite(products)) and np.mean(products) > 0:
        fitted = float(np.mean(products))
        spread = float((np.max(products) - np.min(products)) / fitted)
    else:
        fitted, spread = np.nan, np.nan
    return SweepReport(lam_i=lam_i, lam_list=lam_list, sup_K=norms["sup_K"],
                       sup_K_Aplus=supKA, inf_Omega=norms["inf_Omega"],
                       uperp_L1_dgamma=norms["uperp_L1_dgamma"], proj_i=proj,
                       fitted_constant=fitted, fitted_spread=spread,
                       reports=reports)


@dataclass(frozen=True)
class TrialReport:
    n_failures: int
    worst_margin: float

    @property
    def passed(self) -> bool:
        return self.n_failures == 0


def check_max_principle(ctx: LambdaContext, seed: int = 0) -> TrialReport:
    """Solutions with f >= 0 and lambda < lambda_1 must be nonnegative.

    TRIALS random nonnegative data, including delta-weighted unbounded
    samples (every third trial), solved as one block; a trial fails when
    min u < -1e-8 * max u.
    """
    sd = ctx.sd
    if ctx.lam >= sd.lam[0]:
        raise ValueError("maximum principle requires lambda < lambda_1")
    grid = sd.grid
    # row t holds the same numbers as the t-th of TRIALS draws of size N
    f = np.random.default_rng(seed).uniform(0.0, 1.0, (TRIALS, grid.N))
    f[2::3] *= grid.delta ** (-0.5)
    u = apply_Glambda(ctx, f.T).values
    margin = np.min(u, axis=0) / np.maximum(np.max(u, axis=0), 1e-300)
    return TrialReport(n_failures=int(np.sum(margin < -1e-8)),
                       worst_margin=float(np.min(margin)))


def check_poincare(sd: SpectralData, seed: int = 0) -> TrialReport:
    """lambda_1 <phi, G_0 phi>_W <= <phi, phi>_W for every phi, G_0 the kernel of sd;
    the TRIALS random phi are applied as one block."""
    grid = sd.grid
    phi = np.random.default_rng(seed).standard_normal((TRIALS, grid.N))
    wphi = grid.w * phi
    lhs = sd.lam[0] * np.sum(wphi * apply_G0(sd.dk, phi.T).values.T, axis=1)
    ratio = lhs / np.sum(wphi * phi, axis=1)
    return TrialReport(n_failures=int(np.sum(ratio > 1.0 + 1e-8)),
                       worst_margin=float(np.max(ratio)))


def check_notions(ctx: LambdaContext, f, u=None) -> dict:
    """Residuals of the equivalent notions of solution for the same u, on ctx's spectrum.

    r1: distance to the resolvent solution; r5: Green-identity residual
    u - lambda G_0 u - G_0 f; r6: worst spectral-coefficient residual
    (lambda_j - lambda) <u, phi_j> - <f, phi_j>.
    """
    sd = ctx.sd
    grid = sd.grid
    fv = one_function(f, grid)
    u_ref = apply_Glambda(ctx, fv).values
    uv = one_function(u, grid, "u") if u is not None else u_ref
    w = grid.w
    r1 = np.sqrt(np.sum(w * (uv - u_ref) ** 2))
    r5 = np.sqrt(np.sum(w * (uv - apply_G0(sd.dk, fv + ctx.lam * uv).values) ** 2))
    c = sd.coeffs(np.stack([uv, fv], axis=1))
    r6 = np.max(np.abs((sd.lam - ctx.lam) * c[:, 0] - c[:, 1]))
    return {"r1": float(r1), "r5": float(r5), "r6": float(r6)}
