"""Nystrom discretization of the Green's operator and weighted norms.

The integral operator u(x) = int G_0(x, y) f(y) dy becomes the matrix
action u_i = sum_j K_ij w_j f_j on a quadrature grid.  Every quadrature
kernel takes one path: off-diagonal entries are pointwise kernel values
on the upper triangle, mirrored; the diagonal is the mean of the true
kernel G_0(x_i, .) over node i's cell.  On the interval that mean is
exact for the classical kernel (linear on each half-cell) and a product
integration rule for Boggio's kernel: its |x-y|^{2s-1} or logarithmic
singular part is integrated in closed form and the bounded remainder by
a fixed Gauss-Legendre rule, all nodes in one vectorized kernel call.
The ball still takes an adaptive ``quad`` cell mean.  The spectrally
defined SFL kernel is continuous and keeps its exact pointwise diagonal,
so the discrete eigendecomposition reproduces the analytic spectrum.
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
    rfl_green_from_gaps,
    rfl_green_singular,
    rfl_green_singular_integral,
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


# product integration on the interval: Gauss-Legendre points per half-cell,
# and the power of the map t = 1 - (1-u)^p on the two half-cells that end at
# +-r, which smooths the delta(y)^s endpoint behaviour of the remainder
PRODUCT_NODES = 16
BOUNDARY_MAP_POWER = 3
_u, _wu = np.polynomial.legendre.leggauss(PRODUCT_NODES)
_u, _wu = 0.5 * (_u + 1.0), 0.5 * _wu
_t_end = 1.0 - (1.0 - _u) ** BOUNDARY_MAP_POWER
_wt_end = BOUNDARY_MAP_POWER * (1.0 - _u) ** (BOUNDARY_MAP_POWER - 1) * _wu


def _interval_diag(op: OperatorSpec, grid: QuadGrid) -> np.ndarray:
    """(1/w_i) int_{cell_i} G_0(x_i, y) dy on the interval, all nodes at once.

    Node i splits its cell into the half-cells [x_i - h, x_i] and
    [x_i, x_i + h].  The classical kernel (r - max)(r + min) / 2r is
    linear on each, so the half-cell integral is h G(x_i, x_i -+ h/2),
    formed from r + x_i and r - x_i.  Boggio's kernel is
    rfl_green_singular(d), integrated in closed form over [0, h], plus a
    bounded remainder, summed by the PRODUCT_NODES-point Gauss-Legendre
    rule in d = h t.  The remainder takes r -+ y from delta_i and d, never
    from y, which would round onto a node at roundoff from the boundary.
    """
    x, r = grid.x, op.domain.r
    h = np.stack([x - grid.cell_lo, grid.cell_hi - x])   # (side, node)
    if op.kind is OperatorKind.CLASSICAL:
        left = h[0] * (r - x) * (r + x - h[0] / 2)
        right = h[1] * (r + x) * (r - x - h[1] / 2)
        return (left + right) / (2 * r) / grid.w
    # the end half-cells reach the boundary: their length is delta itself
    h[0, 0], h[1, -1] = grid.delta[0], grid.delta[-1]
    far = 2 * r - grid.delta
    plus = np.where(x < 0, grid.delta, far)[:, None]    # r + x_i
    minus = np.where(x < 0, far, grid.delta)[:, None]   # r - x_i
    side = np.array([-1.0, 1.0])[:, None, None]
    t = np.tile(_u, (2, grid.N, 1))
    wt = np.tile(_wu, (2, grid.N, 1))
    t[0, 0], wt[0, 0] = _t_end, _wt_end      # [-r, x_0]
    t[1, -1], wt[1, -1] = _t_end, _wt_end    # [x_{N-1}, r]
    d = h[..., None] * t
    green = rfl_green_from_gaps(op, plus * minus, (plus + side * d) * (minus - side * d), d)
    remainder = green - rfl_green_singular(op, d)
    half = rfl_green_singular_integral(op, h) + h * np.sum(wt * remainder, axis=-1)
    return (half[0] + half[1]) / grid.w


def _cell_average(integrand, grid: QuadGrid, **quad_kw) -> np.ndarray:
    """Mean of integrand(x_i, .) over each node's cell by adaptive ``quad``,
    split at the singular node; the ball's diagonal rule."""
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
        else:
            kernel = lambda x, y: classical_green_interval(op.domain, x, y)
        K = _offdiag(kernel, grid.x)
        np.fill_diagonal(K, _interval_diag(op, grid))
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
