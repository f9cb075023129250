"""The s -> 1 classical-limit program: spectral convergence, resolvent
convergence and convergence of large solutions to the classical
Dirichlet problem.

The classical endpoint is always computed from the exact classical
kernels (closed-form Green's function and Poisson kernel) on the same
grid, never by extrapolating s close to 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretize import as_values, assemble_green_matrix
from .geometry import QuadGrid
from .kernels import SFL_TRUNCATION, OperatorKind, make_operator
from .solver import solve_large
from .spectral import SpectralData, eigendecompose, lambda_context, apply_Glambda


@dataclass(frozen=True)
class SLimitReport:
    """Ladder diagnostics of the s -> 1 limit against the classical endpoint.

    ``columns`` maps a name to one entry per rung, read as ``rep["sol_dist"]``:
    s, lam1, lam1_err = |lambda_1(s) - lambda_1(1)| and b = 1 - 2s + gamma, then
    the ladder's own measurements in the order it takes them.
    """

    columns: dict
    monotone: dict

    def __getitem__(self, name: str) -> np.ndarray:
        return self.columns[name]

    def rows(self) -> list[dict]:
        """One dict per rung of the one-dimensional columns, in column order."""
        flat = {k: c for k, c in self.columns.items() if c.ndim == 1}
        return [{k: float(c[i]) for k, c in flat.items()} for i in range(len(self["s"]))]


def _monotone_decreasing(a: np.ndarray) -> bool:
    """Nonincreasing along the ladder, allowing a relative slack of 10%."""
    return bool(np.all(a[1:] <= 1.10 * a[:-1]))


def boundary_exponent_fit(v, grid: QuadGrid) -> float:
    """Least-squares slope of log|v| against log delta at
    ``grid.boundary_nodes(r)``; ValueError where v vanishes at one of them."""
    order = grid.boundary_nodes(grid.domain.r)
    vals = np.abs(as_values(v, grid))[order]
    if np.any(vals == 0):
        raise ValueError("boundary exponent fit of a function that vanishes at a fit node")
    slope, _ = np.polyfit(np.log(grid.delta[order]), np.log(vals), 1)
    return float(slope)


def _ladder(kind: OperatorKind | str, s_list, grid: QuadGrid, sfl_truncation: int):
    """Validate the s ladder, then yield the spectra of the operators of kind
    on grid.domain: the classical endpoint first, then one rung per s."""
    s_list = np.asarray(s_list, dtype=float)
    if s_list.size == 0:
        raise ValueError("empty s ladder")
    if np.any(np.diff(s_list) <= 0):
        raise ValueError("s ladder must be strictly increasing")
    if np.any((s_list <= 0.5) | (s_list >= 1.0)):
        raise ValueError("s ladder must lie in (1/2, 1)")
    ops = [make_operator(OperatorKind.CLASSICAL, 1.0, grid.domain)]
    ops += [make_operator(kind, s, grid.domain, sfl_truncation) for s in s_list]
    for op in ops:
        yield eigendecompose(assemble_green_matrix(op, grid))


def _report(sd1: SpectralData, rungs: list, **monotone) -> SLimitReport:
    """Stack per-rung (op, lambda_1, metrics) into a report; each monotone
    flag names the column whose magnitude must not grow along the ladder."""
    lam1 = np.array([l1 for _, l1, _ in rungs])
    cols = {"s": np.array([op.s for op, _, _ in rungs]), "lam1": lam1,
            "lam1_err": np.abs(lam1 - sd1.lam[0]), "b": np.array([op.b for op, _, _ in rungs])}
    cols.update({name: np.array([m[name] for _, _, m in rungs]) for name in rungs[0][2]})
    return SLimitReport(columns=cols, monotone={
        flag: _monotone_decreasing(np.abs(cols[name])) for flag, name in monotone.items()})


def spectral_convergence_s(kind: OperatorKind | str, s_list, j_max: int, grid: QuadGrid,
                           sfl_truncation: int = SFL_TRUNCATION) -> SLimitReport:
    """Eigenvalue/eigenfunction convergence toward the classical spectrum."""
    ladder = _ladder(kind, s_list, grid, sfl_truncation)
    sd1 = next(ladder)
    mu1, phi1 = 1.0 / sd1.lam[:j_max], sd1.phi[:, :j_max]
    rungs = [(sd.dk.op, sd.lam[0], {
        "omega": np.max(np.abs(1.0 / sd.lam[:j_max] - mu1)),
        "alignment": np.abs(phi1.T @ (grid.w[:, None] * sd.phi[:, :j_max])).diagonal(),
    }) for sd in ladder]
    return _report(sd1, rungs, omega_decreasing="omega", lam1_err_decreasing="lam1_err")


def resolvent_convergence_s(kind: OperatorKind | str, s_list, lam: float, f, grid: QuadGrid,
                            sfl_truncation: int = SFL_TRUNCATION) -> SLimitReport:
    """L2 convergence of the shifted solution operator to the classical one."""
    ladder = _ladder(kind, s_list, grid, sfl_truncation)
    sd1 = next(ladder)
    u1 = apply_Glambda(lambda_context(sd1, lam), f).values
    rungs = []
    for sd in ladder:
        u = apply_Glambda(lambda_context(sd, lam), f).values
        rungs.append((sd.dk.op, sd.lam[0], {"sol_dist": np.sqrt(np.sum(grid.w * (u - u1) ** 2))}))
    return _report(sd1, rungs, sol_dist_decreasing="sol_dist")


def large_solution_limit_s(kind: OperatorKind | str, s_list, lam: float, h,
                           grid: QuadGrid, sfl_truncation: int = SFL_TRUNCATION) -> SLimitReport:
    """Convergence of large solutions to the classical Dirichlet solution.

    The classical endpoint v_1 = M_1(h) + lambda G_lambda M_1(h) uses the
    exact classical kernels; per s the L1 distance on the compact set K, the
    boundary-exponent fit of log|v| vs log delta and the near-boundary
    amplification v * delta^{b(s)}, both at ``grid.boundary_nodes(r)``, are
    recorded.
    """
    def solve(sd):
        return solve_large(sd.dk.op, sd, lambda_context(sd, lam), None, h)

    ladder = _ladder(kind, s_list, grid, sfl_truncation)
    sd1 = next(ladder)
    v1 = solve(sd1).v_total.values
    mask = grid.compact_mask()
    near = grid.boundary_nodes(grid.domain.r)
    rungs = []
    for sd in ladder:
        rep = solve(sd)
        v = rep.v_total.values
        rungs.append((sd.dk.op, sd.lam[0], {
            "sol_dist": np.sum(grid.w[mask] * np.abs(v - v1)[mask]),
            "boundary_fit": boundary_exponent_fit(v, grid),
            "sup_K": rep.norms["sup_K"],
            "near_boundary_amp": np.max(np.abs(v[near]) * grid.delta[near] ** sd.dk.op.b),
        }))
    return _report(sd1, rungs, sol_dist_decreasing="sol_dist", fit_to_zero="boundary_fit")
