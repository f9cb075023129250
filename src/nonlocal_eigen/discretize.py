"""Nystrom discretization of the Green's operator and weighted norms.

The integral operator u(x) = int G_0(x, y) f(y) dy becomes the matrix
action u_i = sum_j K_ij w_j f_j on a quadrature grid.  Every quadrature
kernel takes one path: off-diagonal entries are pointwise kernel values
on the upper triangle, mirrored; the diagonal is a local cell
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

    @property
    def N(self) -> int:
        return self.grid.N


def _offdiag(kernel, x: np.ndarray) -> np.ndarray:
    """kernel(x_i, x_j) off the diagonal, evaluated once per pair and mirrored.

    The kernels are symmetric bit for bit, so the mirror is exact.
    """
    i, j = np.triu_indices(len(x), 1)
    K = np.zeros((len(x), len(x)))
    K[i, j] = kernel(x[i], x[j])
    return K + K.T


def _cell_average(integrand, grid: QuadGrid, **quad_kw) -> np.ndarray:
    """Mean of integrand(x_i, .) over each node's cell, split at the singular node."""
    diag = np.empty(grid.N)
    for i in range(grid.N):
        xi = grid.x[i]
        f = lambda y: integrand(xi, y)
        left, _ = quad(f, grid.cell_lo[i], xi, **quad_kw)
        right, _ = quad(f, xi, grid.cell_hi[i], **quad_kw)
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


def assemble_green_matrix(op: OperatorSpec, grid: QuadGrid) -> DiscreteKernel:
    """Assemble the symmetric Nystrom matrix K_ij ~ G_0(x_i, x_j)."""
    if op.domain != grid.domain:
        raise ValueError("operator and grid live on different domains")
    if op.kind is OperatorKind.SFL:
        k = np.arange(1, op.sfl_truncation + 1)
        Phi = sfl_eigenfunction(op.domain, k[None, :], grid.x[:, None])
        mu = sfl_eigenvalue(op.domain, k)
        K = (Phi * mu ** (-op.s)) @ Phi.T
        K = 0.5 * (K + K.T)  # the product is symmetric only up to roundoff
        # the truncated series may dip below zero by at most the tail sum
        # (1/r) sum_{k>M} mu_k^{-s} ~ (pi/2r)^{-2s} M^{1-2s} / (r (2s-1))
        M = op.sfl_truncation
        neg_tol = (np.pi / (2 * op.domain.r)) ** (-2 * op.s) \
            * M ** (1.0 - 2.0 * op.s) / (op.domain.r * (2.0 * op.s - 1.0))
    elif op.domain.kind is DomainKind.INTERVAL:
        if op.kind is OperatorKind.RFL:
            kernel = lambda x, y: rfl_green_ball(op, x, y)
            quad_kw = dict(epsabs=1e-12, epsrel=1e-10, limit=200)
        else:
            kernel = lambda x, y: classical_green_interval(op.domain, x, y)
            quad_kw = dict(epsabs=1e-13)
        K = _offdiag(kernel, grid.x)
        np.fill_diagonal(K, _cell_average(kernel, grid, **quad_kw))
    elif op.kind is OperatorKind.RFL:
        # radial nodes: the angular average is the kernel, and a radial
        # cell carries the measure |S^{n-1}| rho^{n-1}
        n = op.domain.n
        vol = sphere_area(n)
        kernel = lambda x, y: rfl_green_radial_average(op, x, y)
        K = _offdiag(np.vectorize(kernel, otypes=[float]), grid.x)
        np.fill_diagonal(K, _cell_average(lambda x, y: kernel(x, y) * vol * y ** (n - 1),
                                          grid, epsabs=1e-10, limit=100))
    else:
        raise NotImplementedError("classical kernel matrices: interval only")

    if op.kind is not OperatorKind.SFL:
        neg_tol = 1e-12 * np.max(K)
    if np.min(K) < -neg_tol:
        raise AssertionError("negative kernel matrix entry beyond truncation noise")
    return DiscreteKernel(op=op, grid=grid, matrix=K)


def apply_G0(dk: DiscreteKernel, f) -> GridFunction:
    """u_i = sum_j K_ij w_j f_j, the discrete Green's operator action."""
    v = as_values(f, dk.grid)
    return GridFunction(dk.grid, dk.matrix @ (dk.grid.w * v))


_NORM_KINDS = ("L1_delta", "L2", "Linf", "Lp")


def weighted_norm(f, grid: QuadGrid, kind: str, alpha: float = 0.0,
                  p: float = 2.0, gamma: float | None = None) -> float:
    """Quadrature norms with boundary-distance weights.

    L1_delta(alpha) = sum w |f| delta^alpha, L2, Linf, Lp.  When ``gamma``
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
    return float(np.sum(grid.w * v**p) ** (1.0 / p))
