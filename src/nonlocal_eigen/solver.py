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

from .boundary import martin_apply
from .discretize import GridFunction, as_values, weighted_norm
from .geometry import K_FRACTION
from .kernels import OperatorSpec
from .spectral import LambdaContext, SpectralData, apply_Glambda, lambda_context

# relative offsets below lambda_i of the default sweep ladder
SWEEP_OFFSETS = [1e-2, 1e-3, 1e-4, 1e-5, 2e-6]


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


def _data(op: OperatorSpec, sd: SpectralData, g, h) -> tuple[np.ndarray, np.ndarray]:
    """Node values of the interior datum g and of v_h = M(h); None is zero data.

    op must be the operator of the spectrum sd, whose Martin kernel lifts h.
    """
    if op != sd.dk.op:
        raise ValueError(f"operator {op} is not the operator of the spectrum, {sd.dk.op}")
    grid = sd.grid
    gv = as_values(g, grid) if g is not None else np.zeros(grid.N)
    v_h = martin_apply(op, grid, h).values if h is not None else np.zeros(grid.N)
    return gv, v_h


def _solve(ctx: LambdaContext, gv: np.ndarray, v_h: np.ndarray, split_at: int,
           K_frac: float) -> SolveReport:
    """v = v_h + G_lambda(g + lambda v_h) on ctx's spectrum, split into the
    explicit part on the modes below split_at and the complement u_perp."""
    sd = ctx.sd
    grid = sd.grid
    rhs = gv + ctx.lam * v_h
    c = sd.coeffs(rhs) / (sd.lam - ctx.lam)
    explicit = sd.synth(c[:split_at], slice(split_at)).values
    perp = sd.synth(c[split_at:], slice(split_at, None)).values
    total = v_h + explicit + perp
    u = explicit + perp  # = G_lambda(rhs)
    # Green identity u = G_0(rhs + lambda u), one matvec
    u_green = sd.dk.matrix @ (grid.w * (rhs + ctx.lam * u))
    green_res = np.sqrt(np.sum(grid.w * (u - u_green) ** 2))
    mask = grid.compact_mask(K_frac)
    gam = sd.dk.op.gamma
    norms = {
        "v_L1_dgamma": weighted_norm(total, grid, gam),
        "uperp_L1_dgamma": weighted_norm(perp, grid, gam),
        "sup_K": float(np.max(np.abs(total[mask]))),
        "inf_Omega": float(np.min(total)),
    }
    return SolveReport(lam=ctx.lam, I=ctx.I,
                       v_h=GridFunction(grid, v_h),
                       explicit=GridFunction(grid, explicit),
                       u_perp=GridFunction(grid, perp),
                       v_total=GridFunction(grid, total),
                       norms=norms, green_residual=float(green_res))


def solve_large(op: OperatorSpec, sd: SpectralData, ctx: LambdaContext,
                g, h, K_frac: float = K_FRACTION) -> SolveReport:
    """Singular boundary data: v = v_h + G_lambda(g + lambda v_h).

    h None is the Dirichlet solve v = G_lambda(g), decomposed over E/E-perp.
    op must be sd's operator and ctx a context of sd.
    """
    if ctx.sd is not sd:
        raise ValueError("the lambda context belongs to another spectrum")
    return _solve(ctx, *_data(op, sd, g, h), ctx.I, K_frac)


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
    sup, which keeps them nonempty in the blow-up case.
    """
    return _fredholm(sd, *_data(op, sd, g, h), i)


def _fredholm(sd: SpectralData, gv: np.ndarray, v_h: np.ndarray, i: int) -> FredholmReport:
    grp = sd.group(i)
    lam_i = float(sd.lam[grp[0]])
    grid = sd.grid
    rhs = gv + lam_i * v_h
    proj = sd.synth(sd.coeffs(rhs)[grp], grp).values
    sup = float(np.max(np.abs(proj)))
    # floored at the data scale so a projection that vanishes up to
    # roundoff yields empty sign sets (the degenerate case)
    scale = max(float(np.max(np.abs(rhs))), 1e-300)
    eps = max(1e-3 * sup, 1e-10 * scale)
    return FredholmReport(lam_i=lam_i,
                          projection=GridFunction(grid, proj),
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
                 lam_list=None, K_frac: float = K_FRACTION) -> SweepReport:
    """Sweep lambda toward the i-th eigenvalue, recording blow-up data.

    The E/E-perp split is taken relative to the eigenvalue groups up to
    and including group i, so u_perp stays uniformly bounded while the
    explicit part carries the 1/(lambda_i - lambda) blow-up.  lam_list
    None is the ladder lambda_i (1 - SWEEP_OFFSETS); a lambda on the
    spectrum raises SpectralHit.
    """
    grid = sd.grid
    gv, v_h = _data(op, sd, g, h)
    fred = _fredholm(sd, gv, v_h, i)
    lam_i = fred.lam_i
    grp = sd.group(i)
    split_at = int(grp[-1]) + 1
    if lam_list is None:
        lam_list = lam_i * (1.0 - np.array(SWEEP_OFFSETS))
    lam_list = np.asarray(lam_list, dtype=float)
    mask = grid.compact_mask(K_frac)
    maskA = np.zeros(grid.N, dtype=bool)
    maskA[fred.A_plus] = True
    maskKA = mask & maskA

    reports, supK, supKA, infO, up_norm, proj = [], [], [], [], [], []
    for lam in lam_list:
        rep = _solve(lambda_context(sd, lam), gv, v_h, split_at, K_frac)
        total = rep.v_total.values
        reports.append(rep)
        supK.append(rep.norms["sup_K"])
        supKA.append(float(np.max(np.abs(total[maskKA]))) if np.any(maskKA) else np.nan)
        infO.append(rep.norms["inf_Omega"])
        up_norm.append(rep.norms["uperp_L1_dgamma"])
        proj.append(float(np.sum(grid.w * total * sd.phi[:, grp[0]])))

    supKA = np.array(supKA)
    products = supKA * np.abs(lam_i - lam_list)
    if np.all(np.isfinite(products)) and np.mean(products) > 0:
        fitted = float(np.mean(products))
        spread = float((np.max(products) - np.min(products)) / fitted)
    else:
        fitted, spread = np.nan, np.nan
    return SweepReport(lam_i=lam_i, lam_list=lam_list, sup_K=np.array(supK),
                       sup_K_Aplus=supKA, inf_Omega=np.array(infO),
                       uperp_L1_dgamma=np.array(up_norm), proj_i=np.array(proj),
                       fitted_constant=fitted, fitted_spread=spread,
                       reports=reports)


@dataclass(frozen=True)
class TrialReport:
    n_failures: int
    worst_margin: float

    @property
    def passed(self) -> bool:
        return self.n_failures == 0


def check_max_principle(ctx: LambdaContext, trials: int = 100, seed: int = 0) -> TrialReport:
    """Solutions with f >= 0 and lambda < lambda_1 must be nonnegative.

    Random nonnegative data, including delta-weighted unbounded samples;
    a trial fails when min u < -1e-8 * max u.
    """
    sd = ctx.sd
    if ctx.lam >= sd.lam[0]:
        raise ValueError("maximum principle requires lambda < lambda_1")
    rng = np.random.default_rng(seed)
    grid = sd.grid
    failures = 0
    worst = np.inf
    for t in range(trials):
        f = rng.uniform(0.0, 1.0, grid.N)
        if t % 3 == 2:
            f = f * grid.delta ** (-0.5)
        u = apply_Glambda(ctx, f).values
        margin = np.min(u) / max(np.max(u), 1e-300)
        worst = min(worst, margin)
        if margin < -1e-8:
            failures += 1
    return TrialReport(n_failures=failures, worst_margin=float(worst))


def check_poincare(sd: SpectralData, trials: int = 100, seed: int = 0) -> TrialReport:
    """lambda_1 <phi, G_0 phi>_W <= <phi, phi>_W for every phi, G_0 the kernel of sd."""
    rng = np.random.default_rng(seed)
    dk = sd.dk
    grid = dk.grid
    lam1 = sd.lam[0]
    failures = 0
    worst = -np.inf
    for _ in range(trials):
        phi = rng.standard_normal(grid.N)
        lhs = lam1 * np.sum(grid.w * phi * (dk.matrix @ (grid.w * phi)))
        rhs = np.sum(grid.w * phi * phi)
        ratio = lhs / rhs
        worst = max(worst, ratio)
        if ratio > 1.0 + 1e-8:
            failures += 1
    return TrialReport(n_failures=failures, worst_margin=float(worst))


def check_notions(ctx: LambdaContext, f, u=None) -> dict:
    """Residuals of the equivalent notions of solution for the same u, on ctx's spectrum.

    r1: distance to the resolvent solution; r5: Green-identity residual
    u - lambda G_0 u - G_0 f; r6: worst spectral-coefficient residual
    (lambda_j - lambda) <u, phi_j> - <f, phi_j>.
    """
    sd = ctx.sd
    dk = sd.dk
    grid = dk.grid
    fv = as_values(f, grid)
    u_ref = apply_Glambda(ctx, fv).values
    uv = as_values(u, grid) if u is not None else u_ref
    w = grid.w
    r1 = np.sqrt(np.sum(w * (uv - u_ref) ** 2))
    r5 = np.sqrt(np.sum(w * (uv - dk.matrix @ (w * (fv + ctx.lam * uv))) ** 2))
    r6 = np.max(np.abs((sd.lam - ctx.lam) * sd.coeffs(uv) - sd.coeffs(fv)))
    return {"r1": float(r1), "r5": float(r5), "r6": float(r6)}
