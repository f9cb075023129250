"""Nystrom discretization of the Green's operator and weighted norms.

The integral operator u(x) = int G_0(x, y) f(y) dy becomes the matrix
action u_i = sum_j K_ij w_j f_j on a quadrature grid.  Off the diagonal
K holds one kernel value per pair, mirrored; the diagonal is the mean
of G_0(x_i, .) over node i's cell, by fixed Gauss-Legendre rules only.
On the interval that mean is exact for the classical kernel and, for
Boggio's kernel, integrates the singular part in closed form and the
bounded remainder by one rule.  On the ball the kernel on radial data
is Boggio's angular mean, itself a fixed theta-rule, and the cell mean
takes panels graded geometrically toward the node.  Boggio's kernel is
always formed from boundary distances.  The SFL kernel is continuous
and keeps its exact pointwise diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import DomainKind, QuadGrid, sphere_area
from .kernels import (
    OperatorKind,
    OperatorSpec,
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


# Gauss-Legendre points on [0, 1] for every fixed rule, and the power of the
# map t = 1 - (1-u)^p on the two interval half-cells that end at +-r, which
# smooths the delta(y)^s endpoint behaviour of the remainder
PRODUCT_NODES = 16
BOUNDARY_MAP_POWER = 3
_u, _wu = np.polynomial.legendre.leggauss(PRODUCT_NODES)
_u, _wu = 0.5 * (_u + 1.0), 0.5 * _wu
_t_end = 1.0 - (1.0 - _u) ** BOUNDARY_MAP_POWER
_wt_end = BOUNDARY_MAP_POWER * (1.0 - _u) ** (BOUNDARY_MAP_POWER - 1) * _wu


def _interval_diag(op: OperatorSpec, grid: QuadGrid) -> np.ndarray:
    """(1/w_i) int_{cell_i} G_0(x_i, y) dy on the interval, all nodes at once.

    Node i splits its cell into the half-cells [x_i - h, x_i] and
    [x_i, x_i + h] of grid.half.  The classical kernel
    (r - max)(r + min) / 2r is linear on each, so the half-cell integral
    is h G(x_i, x_i -+ h/2), formed from grid.sides.  Boggio's kernel is
    rfl_green_singular(d), integrated in closed form over [0, h], plus a
    bounded remainder, summed by the PRODUCT_NODES-point Gauss-Legendre
    rule in d = h t.  The remainder takes r -+ y from grid.sides and d,
    never from y, which would round onto a node at roundoff from the
    boundary.
    """
    h = grid.half                        # (side, node)
    plus, minus = grid.sides             # r + x_i, r - x_i
    if op.kind is OperatorKind.CLASSICAL:
        left = h[0] * minus * (plus - h[0] / 2)
        right = h[1] * plus * (minus - h[1] / 2)
        return (left + right) / (2 * op.domain.r) / grid.w
    plus, minus = plus[:, None], minus[:, None]
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


# geometric panels of the ball's angular rule: 24 keep their ratio below
# about 3.3 down to a peak width of 1e-12, where 16 points reach roundoff
ANGLE_PANELS = 24


def rfl_green_radial(op: OperatorSpec, delta_x, delta_y, d) -> np.ndarray:
    """Mean of Boggio's kernel G(rho_x e_1, rho_y omega) over omega in S^{n-1},
    the kernel on radial functions, from boundary distances and d = |rho_x - rho_y|.

    With t^2 = d^2 + 4 rho_x rho_y sin^2(theta/2) it is a theta-integral
    against sin^{n-2}, peaked at 0 with width w ~ d / sqrt(rho_x rho_y):
    Gauss-Legendre on [0, w] and on ANGLE_PANELS geometric panels to pi.
    """
    r, n = op.domain.r, op.domain.n
    delta_x, delta_y, d = (np.asarray(v, dtype=float)[..., None] for v in (delta_x, delta_y, d))
    gap_x, gap_y = delta_x * (2 * r - delta_x), delta_y * (2 * r - delta_y)
    rr = (r - delta_x) * (r - delta_y)
    w = d / (d / np.pi + np.sqrt(rr))      # at most pi
    ends = np.concatenate([0 * w, w * (np.pi / w) ** np.linspace(0, 1, ANGLE_PANELS + 1)], axis=-1)
    lo, hi = ends[..., :-1], ends[..., 1:]
    total = 0.0
    for u, wu in zip(_u, _wu):
        theta = lo + (hi - lo) * u
        t = np.sqrt(d * d + 4.0 * rr * np.sin(theta / 2) ** 2)
        g = rfl_green_from_gaps(op, gap_x, gap_y, t) * np.sin(theta) ** (n - 2)
        total += wu * np.sum((hi - lo) * g, axis=-1)
    return total * sphere_area(n - 1) / sphere_area(n)


def _ball_diag(op: OperatorSpec, grid: QuadGrid) -> np.ndarray:
    """(1/w_i) int_{cell_i} rfl_green_radial(x_i, rho) |S^{n-1}| rho^{n-1} drho.

    Each half-cell is cut into Gauss-Legendre panels halved toward x_i,
    where the kernel goes like |rho - x_i|^{2s-1}; the far half of the
    last is halved toward r, where it goes like delta^s.  The innermost
    panel holds about 2^{-2s levels} of the integral: 53/(2s) levels reach
    roundoff, capped where d^{2s-n} would near overflow.  d and delta come
    from the rule, never from subtracted radii.
    """
    r, n, N, dl = op.domain.r, op.domain.n, grid.N, grid.delta
    # half-cells: toward the centre, outward (the last node's near half), the last far half
    node = np.r_[np.arange(N), np.arange(N), N - 1]
    h = np.r_[grid.half[0], grid.half[1, :-1], dl[-1] / 2, dl[-1] / 2]
    levels = int(min(np.ceil(53 / (2 * op.s)), np.log2(np.min(h) * _u[0]) + 300 * np.log2(10) / n))
    top = 0.5 ** np.arange(levels + 1)[:, None]
    panel = top - np.r_[top[1:], [[0.0]]]
    d = h[:, None] * (top - panel * (1 - _u)).ravel()
    delta_y = dl[node, None] + np.r_[np.ones(N), -np.ones(N + 1)][:, None] * d
    delta_y[-1] = d[-1]
    d[-1] = dl[-1] - delta_y[-1]
    mean = np.array([rfl_green_radial(op, dl[i], *args) for i, *args in zip(node, delta_y, d)])
    vol = sphere_area(n) * (r - delta_y) ** (n - 1)
    return np.bincount(node, h * ((mean * vol) @ (panel * _wu).ravel()), N) / grid.w


def assemble_green_matrix(op: OperatorSpec, grid: QuadGrid) -> DiscreteKernel:
    """Assemble the symmetric Nystrom matrix K_ij ~ G_0(x_i, x_j)."""
    if op.domain != grid.domain:
        raise ValueError("operator and grid live on different domains")
    if op.kind is OperatorKind.SFL:
        k = np.arange(1, op.sfl_truncation + 1)
        B = sfl_eigenfunction(op.domain, k[None, :], grid.x[:, None]) \
            * sfl_eigenvalue(op.domain, k) ** (-op.s / 2)
        K = B @ B.T
        # the truncated series may dip below zero by at most the tail sum
        # (1/r) sum_{k>M} mu_k^{-s} ~ (pi/2r)^{-2s} M^{1-2s} / (r (2s-1))
        M = op.sfl_truncation
        neg_tol = (np.pi / (2 * op.domain.r)) ** (-2 * op.s) \
            * M ** (1.0 - 2.0 * op.s) / (op.domain.r * (2.0 * op.s - 1.0))
    elif op.domain.kind is DomainKind.INTERVAL or op.kind is OperatorKind.RFL:
        # one kernel value per pair i < j (so x_i < x_j), mirrored; kernels are
        # formed from boundary distances, and on the ball Boggio's angular mean
        # is the kernel on radial functions
        i, j = np.triu_indices(grid.N, 1)
        dl, d, ball = grid.delta, np.abs(grid.x[i] - grid.x[j]), op.domain.kind is DomainKind.BALL
        plus, minus = grid.sides
        if op.kind is OperatorKind.CLASSICAL:
            upper = plus[i] * minus[j] / (2 * op.domain.r)
        elif ball:
            upper = rfl_green_radial(op, dl[i], dl[j], d)
        else:
            gap = plus * minus
            upper = rfl_green_from_gaps(op, gap[i], gap[j], d)
        K = np.zeros((grid.N, grid.N))
        K[i, j] = upper
        K = K + K.T
        np.fill_diagonal(K, (_ball_diag if ball else _interval_diag)(op, grid))
    else:
        raise ValueError("classical kernel matrices: interval only")

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
