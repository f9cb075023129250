"""Nystrom discretization of the Green's operator and weighted norms.

The integral operator u(x) = int G_0(x, y) f(y) dy becomes the matrix
action u_i = sum_j K_ij w_j f_j on a quadrature grid.  Off-diagonal
entries are pointwise kernel values; the diagonal is a local cell
average of the true kernel (handling the |x-y|^{2s-n} or logarithmic
singularity), except for the spectrally-defined SFL kernel, which is
continuous and keeps its exact pointwise diagonal so the discrete
eigendecomposition reproduces the analytic spectrum.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .geometry import DomainKind, QuadGrid, sphere_area
from .kernels import (
    OperatorKind,
    OperatorSpec,
    classical_green_interval,
    rfl_green_ball,
    sfl_eigenfunction,
    sfl_eigenvalue,
)


@dataclass(frozen=True)
class GridFunction:
    """Values of a function at the grid nodes."""

    grid: QuadGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.N,):
            raise ValueError(f"values shape {v.shape} does not match grid size {self.grid.N}")
        if not np.all(np.isfinite(v)):
            raise ValueError("grid function contains non-finite values")
        object.__setattr__(self, "values", v)

    def __array__(self, dtype=None):
        return np.asarray(self.values, dtype=dtype)


def as_values(f, grid: QuadGrid) -> np.ndarray:
    """Accept a GridFunction, an array of node values, or a callable."""
    if isinstance(f, GridFunction):
        same = f.grid is grid or (np.array_equal(f.grid.x, grid.x)
                                  and np.array_equal(f.grid.w, grid.w))
        if not same:
            raise ValueError("grid mismatch")
        return f.values
    if callable(f):
        return np.asarray(f(grid.x), dtype=float)
    v = np.asarray(f, dtype=float)
    if v.shape != (grid.N,):
        raise ValueError("grid mismatch")
    return v


@dataclass(frozen=True)
class DiscreteKernel:
    """Symmetric Nystrom matrix for the Green's operator on a grid."""

    op: OperatorSpec
    grid: QuadGrid
    matrix: np.ndarray
    diagonal_rule: str

    @property
    def N(self) -> int:
        return self.grid.N


def _rfl_offdiag_interval(op: OperatorSpec, x: np.ndarray) -> np.ndarray:
    X, Y = np.meshgrid(x, x, indexing="ij")
    mask = ~np.eye(len(x), dtype=bool)
    K = np.zeros_like(X)
    K[mask] = rfl_green_ball(op, X[mask], Y[mask])
    return K

def _rfl_diag_interval(op: OperatorSpec, grid: QuadGrid) -> np.ndarray:
    diag = np.empty(grid.N)
    for i in range(grid.N):
        xi, lo, hi = grid.x[i], grid.cell_lo[i], grid.cell_hi[i]
        f = lambda y: rfl_green_ball(op, xi, y)
        left, _ = quad(f, lo, xi, epsabs=1e-12, epsrel=1e-10, limit=200)
        right, _ = quad(f, xi, hi, epsabs=1e-12, epsrel=1e-10, limit=200)
        diag[i] = (left + right) / grid.w[i]
    return diag


def _classical_diag_interval(op: OperatorSpec, grid: QuadGrid) -> np.ndarray:
    diag = np.empty(grid.N)
    for i in range(grid.N):
        xi, lo, hi = grid.x[i], grid.cell_lo[i], grid.cell_hi[i]
        f = lambda y: classical_green_interval(op.domain, xi, y)
        left, _ = quad(f, lo, xi, epsabs=1e-13)
        right, _ = quad(f, xi, hi, epsabs=1e-13)
        diag[i] = (left + right) / grid.w[i]
    return diag


def rfl_green_radial_average(op: OperatorSpec, rho_x: float, rho_y: float) -> float:
    """Spherical average of the ball Green's function over the y-sphere.

    (1/|S^{n-1}|) int_{S^{n-1}} G(rho_x e_1, rho_y omega) d omega, which
    is the kernel acting on radial functions.  n >= 2 only.
    """
    n = op.domain.n

    def integrand(theta):
        x = np.zeros(n)
        y = np.zeros(n)
        x[0] = rho_x
        y[0] = rho_y * np.cos(theta)
        y[1] = rho_y * np.sin(theta)
        return rfl_green_ball(op, x, y) * np.sin(theta) ** (n - 2)

    with warnings.catch_warnings():
        # the integrable |x-y|^{2s-n} singularity at theta ~ 0 trips the
        # slow-convergence heuristic without hurting the tolerance
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(integrand, 0.0, np.pi, epsabs=1e-12, epsrel=1e-9, limit=200)
    return val * sphere_area(n - 1) / sphere_area(n)


def _rfl_matrix_ball(op: OperatorSpec, grid: QuadGrid) -> np.ndarray:
    N = grid.N
    K = np.zeros((N, N))
    for i in range(N):
        for j in range(i + 1, N):
            K[i, j] = rfl_green_radial_average(op, grid.x[i], grid.x[j])
    K = K + K.T
    # diagonal: radial cell average of the angular-averaged kernel
    for i in range(N):
        xi, lo, hi = grid.x[i], grid.cell_lo[i], grid.cell_hi[i]
        vol = sphere_area(op.domain.n)
        f = lambda r: rfl_green_radial_average(op, xi, r) * vol * r ** (op.domain.n - 1)
        left, _ = quad(f, lo, xi, epsabs=1e-10, limit=100)
        right, _ = quad(f, xi, hi, epsabs=1e-10, limit=100)
        K[i, i] = (left + right) / grid.w[i]
    return K


def assemble_green_matrix(op: OperatorSpec, grid: QuadGrid) -> DiscreteKernel:
    """Assemble the symmetric Nystrom matrix K_ij ~ G_0(x_i, x_j)."""
    if op.domain != grid.domain:
        raise ValueError("operator and grid live on different domains")
    if op.kind is OperatorKind.SFL:
        k = np.arange(1, op.sfl_truncation + 1)
        Phi = sfl_eigenfunction(op.domain, k[None, :], grid.x[:, None])
        mu = sfl_eigenvalue(op.domain, k)
        K = (Phi * mu ** (-op.s)) @ Phi.T
        rule = "pointwise_series"
        # the truncated series may dip below zero by at most the tail sum
        # (1/r) sum_{k>M} mu_k^{-s} ~ (pi/2r)^{-2s} M^{1-2s} / (r (2s-1))
        M = op.sfl_truncation
        neg_tol = (np.pi / (2 * op.domain.r)) ** (-2 * op.s) \
            * M ** (1.0 - 2.0 * op.s) / (op.domain.r * (2.0 * op.s - 1.0))
    elif op.kind is OperatorKind.RFL:
        if op.domain.kind is DomainKind.INTERVAL:
            K = _rfl_offdiag_interval(op, grid.x)
            np.fill_diagonal(K, _rfl_diag_interval(op, grid))
        else:
            K = _rfl_matrix_ball(op, grid)
        rule = "cell_average"
    else:
        if op.domain.kind is not DomainKind.INTERVAL:
            raise NotImplementedError("classical kernel matrices: interval only")
        X, Y = np.meshgrid(grid.x, grid.x, indexing="ij")
        K = classical_green_interval(op.domain, X, Y)
        np.fill_diagonal(K, _classical_diag_interval(op, grid))
        rule = "cell_average"

    if op.kind is not OperatorKind.SFL:
        neg_tol = 1e-12 * np.max(K)
    K = 0.5 * (K + K.T)
    if np.min(K) < -neg_tol:
        raise AssertionError("negative kernel matrix entry beyond truncation noise")
    return DiscreteKernel(op=op, grid=grid, matrix=K, diagonal_rule=rule)


def apply_G0(dk: DiscreteKernel, f) -> GridFunction:
    """u_i = sum_j K_ij w_j f_j, the discrete Green's operator action."""
    v = as_values(f, dk.grid)
    return GridFunction(dk.grid, dk.matrix @ (dk.grid.w * v))


_NORM_KINDS = ("L1_delta", "L2", "Linf", "Linf_over_delta", "Lp")


def weighted_norm(f, grid: QuadGrid, kind: str, alpha: float = 0.0,
                  p: float = 2.0, gamma: float | None = None) -> float:
    """Quadrature norms with boundary-distance weights.

    L1_delta(alpha) = sum w |f| delta^alpha, L2, Linf,
    Linf_over_delta(alpha) = max |f| / delta^alpha, Lp.  When ``gamma``
    is supplied, exponents alpha <= -1-gamma are rejected as outside the
    admissible weight range.
    """
    if kind not in _NORM_KINDS:
        raise ValueError(f"unknown norm kind {kind!r}; expected one of {_NORM_KINDS}")
    if gamma is not None and alpha <= -1.0 - gamma:
        raise ValueError(f"weight exponent alpha={alpha} outside admissible range "
                         f"(> {-1.0 - gamma})")
    v = np.abs(as_values(f, grid))
    if kind == "L1_delta":
        return float(np.sum(grid.w * v * grid.delta**alpha))
    if kind == "L2":
        return float(np.sqrt(np.sum(grid.w * v**2)))
    if kind == "Linf":
        return float(np.max(v))
    if kind == "Linf_over_delta":
        return float(np.max(v / grid.delta**alpha))
    return float(np.sum(grid.w * v**p) ** (1.0 / p))
