"""The s -> 1 classical-limit program: spectral convergence, resolvent
convergence and convergence of large solutions to the classical
Dirichlet problem.

The classical endpoint is always computed from the exact classical
kernels (closed-form Green's function and Poisson kernel) on the same
grid, never by extrapolating s close to 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .discretize import as_values, assemble_green_matrix
from .geometry import DomainSpec, QuadGrid
from .kernels import OperatorKind, OperatorSpec, make_operator
from .solver import solve_large
from .spectral import SpectralData, eigendecompose, lambda_context, apply_Glambda


@dataclass(frozen=True)
class OperatorFamily:
    """An operator kind on a fixed domain, parameterized by the order s."""

    kind: OperatorKind
    domain: DomainSpec
    sfl_truncation: int = 4096

    def at(self, s: float) -> OperatorSpec:
        return make_operator(self.kind, s, self.domain, self.sfl_truncation)

    def classical(self) -> OperatorSpec:
        return make_operator(OperatorKind.CLASSICAL, 1.0, self.domain)


def make_family(kind, domain: DomainSpec, sfl_truncation: int = 4096) -> OperatorFamily:
    if isinstance(kind, str):
        kind = OperatorKind(kind.lower())
    return OperatorFamily(kind=kind, domain=domain, sfl_truncation=sfl_truncation)


@dataclass(frozen=True)
class SLimitReport:
    """Ladder diagnostics of the s -> 1 limit against the classical endpoint."""

    s_list: np.ndarray
    lam1: np.ndarray             # lambda_1(s)
    lam1_err: np.ndarray         # |lambda_1(s) - lambda_1(classical)|
    b: np.ndarray                # blow-up exponent 1-2s+gamma per s
    sol_dist: np.ndarray = None        # solution distance to the classical one
    omega: np.ndarray = None           # sup_j |mu_j(s) - mu_j(1)|
    alignment: np.ndarray = None       # (n_s, j_max) |<phi_j(s), phi_j(1)>|
    boundary_fit: np.ndarray = None    # log|v| vs log delta slope per s
    sup_K: np.ndarray = None           # interior sup of the large solution
    near_boundary_amp: np.ndarray = None  # sup v * delta^{b(s)} near the boundary
    monotone: dict = field(default_factory=dict)

    def rows(self) -> list[dict]:
        out = []
        for i, s in enumerate(self.s_list):
            row = {"s": float(s), "lam1": float(self.lam1[i]),
                   "lam1_err": float(self.lam1_err[i]), "b": float(self.b[i])}
            for name in ("sol_dist", "omega", "boundary_fit", "sup_K", "near_boundary_amp"):
                v = getattr(self, name)
                if v is not None:
                    row[name] = float(v[i])
            out.append(row)
        return out


def _monotone_decreasing(a: np.ndarray) -> bool:
    """Nonincreasing along the ladder, allowing a relative slack of 10%."""
    a = np.asarray(a, dtype=float)
    return bool(np.all(a[1:] <= 1.10 * a[:-1]))


def boundary_exponent_fit(v, grid: QuadGrid) -> float:
    """Least-squares slope of log|v| against log delta at the BOUNDARY_NODES
    nodes nearest the boundary point r."""
    vals = np.abs(as_values(v, grid))
    order = grid.boundary_nodes(grid.domain.r)
    ld, lv = np.log(grid.delta[order]), np.log(vals[order])
    slope, _ = np.polyfit(ld, lv, 1)
    return float(slope)


def _ladder(family: OperatorFamily, s_list, grid: QuadGrid):
    """Validate the s ladder, then yield (op, sd): the classical endpoint
    first, then one rung per s."""
    s_list = np.asarray(s_list, dtype=float)
    if s_list.size == 0:
        raise ValueError("empty s ladder")
    if np.any(np.diff(s_list) <= 0):
        raise ValueError("s ladder must be strictly increasing")
    if np.any((s_list <= 0.5) | (s_list >= 1.0)):
        raise ValueError("s ladder must lie in (1/2, 1)")
    for op in [family.classical()] + [family.at(s) for s in s_list]:
        yield op, eigendecompose(assemble_green_matrix(op, grid))


def _report(sd1: SpectralData, rungs: list, **monotone) -> SLimitReport:
    """Stack per-rung (op, lambda_1, metrics) into a report; each monotone
    flag names the column whose magnitude must not grow along the ladder."""
    cols = {name: np.array([m[name] for _, _, m in rungs]) for name in rungs[0][2]}
    lam1 = np.array([l1 for _, l1, _ in rungs])
    cols["lam1_err"] = np.abs(lam1 - sd1.lam[0])
    return SLimitReport(
        s_list=np.array([op.s for op, _, _ in rungs]), lam1=lam1,
        b=np.array([op.b for op, _, _ in rungs]), **cols,
        monotone={flag: _monotone_decreasing(np.abs(cols[name]))
                  for flag, name in monotone.items()})


def spectral_convergence_s(family: OperatorFamily, s_list, j_max: int,
                           grid: QuadGrid) -> SLimitReport:
    """Eigenvalue/eigenfunction convergence toward the classical spectrum."""
    ladder = _ladder(family, s_list, grid)
    _, sd1 = next(ladder)
    mu1, phi1 = 1.0 / sd1.lam[:j_max], sd1.phi[:, :j_max]
    rungs = [(op, sd.lam[0], {
        "omega": np.max(np.abs(1.0 / sd.lam[:j_max] - mu1)),
        "alignment": np.abs(phi1.T @ (grid.w[:, None] * sd.phi[:, :j_max])).diagonal(),
    }) for op, sd in ladder]
    return _report(sd1, rungs, omega_decreasing="omega", lam1_err_decreasing="lam1_err")


def resolvent_convergence_s(family: OperatorFamily, s_list, lam: float, f,
                            grid: QuadGrid) -> SLimitReport:
    """L2 convergence of the shifted solution operator to the classical one."""
    ladder = _ladder(family, s_list, grid)
    _, sd1 = next(ladder)
    u1 = apply_Glambda(sd1, lambda_context(sd1, lam), f).values
    rungs = []
    for op, sd in ladder:
        u = apply_Glambda(sd, lambda_context(sd, lam), f).values
        rungs.append((op, sd.lam[0], {"sol_dist": np.sqrt(np.sum(grid.w * (u - u1) ** 2))}))
    return _report(sd1, rungs, sol_dist_decreasing="sol_dist")


def large_solution_limit_s(family: OperatorFamily, s_list, lam: float, g, h,
                           grid: QuadGrid, K_frac: float = 0.25) -> SLimitReport:
    """Convergence of large solutions to the classical Dirichlet solution.

    The classical endpoint v_1 = M_1(h) + G_{lambda}(g + lambda M_1(h))
    uses the exact classical kernels; per s the L1 distance on the compact
    set K, the boundary-exponent fit of log|v| vs log delta and the
    near-boundary amplification v * delta^{b(s)} are recorded.
    """
    def solve(op, sd):
        return solve_large(op, sd, lambda_context(sd, lam), g, h, K_frac).v_total.values

    ladder = _ladder(family, s_list, grid)
    op1, sd1 = next(ladder)
    v1 = solve(op1, sd1)
    mask = grid.compact_mask(K_frac)
    near = np.argsort(grid.delta)[:5]
    rungs = []
    for op, sd in ladder:
        v = solve(op, sd)
        rungs.append((op, sd.lam[0], {
            "sol_dist": np.sum(grid.w[mask] * np.abs(v - v1)[mask]),
            "boundary_fit": boundary_exponent_fit(v, grid),
            "sup_K": np.max(np.abs(v[mask])),
            "near_boundary_amp": np.max(np.abs(v[near]) * grid.delta[near] ** op.b),
        }))
    return _report(sd1, rungs, sol_dist_decreasing="sol_dist", fit_to_zero="boundary_fit")
