"""Nystrom discretization of the Green's operator and the weighted norm.

The integral operator u(x) = int G_0(x, y) f(y) dy becomes the matrix
action u_i = sum_j K_ij w_j f_j on a quadrature grid.  Off the diagonal
K holds one kernel value per pair, mirrored, by fixed Gauss-Legendre
rules only; on the ball the kernel on radial data is Boggio's angular
mean, itself a fixed theta-rule.  Every quadrature kernel (RFL on the
interval and the ball, classical on the interval) takes one diagonal
rule, singularity subtraction: K_ii is set so that each row integrates
f = 2 - |x|^2/r^2 to the closed-form G_0 f.  Boggio's kernel is always
formed from boundary distances.  The SFL kernel is continuous and keeps
its exact pointwise diagonal; on a mirrored grid its sine series is
evaluated on the left half-grid only, split by the parity of the modes,
and the other half of K is written as the mirror image.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gamma

import numpy as np

from .geometry import DomainKind, QuadGrid, sphere_area
from .kernels import (
    OperatorKind,
    OperatorSpec,
    rfl_green_from_gaps,
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


def as_values(f, grid: QuadGrid) -> np.ndarray:
    """Accept a GridFunction or an array of node values."""
    if isinstance(f, GridFunction):
        same = f.grid is grid or (np.array_equal(f.grid.x, grid.x)
                                  and np.array_equal(f.grid.w, grid.w))
        if not same:
            raise ValueError("grid mismatch")
        return f.values
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


# Gauss-Legendre points on [0, 1] for the ball's angular rule
PRODUCT_NODES = 16
_u, _wu = np.polynomial.legendre.leggauss(PRODUCT_NODES)
_u, _wu = 0.5 * (_u + 1.0), 0.5 * _wu


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


def _sfl_gram(op: OperatorSpec, x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """B B^T with B_ik = mu_k^{-s/2} e_k(x_i), the SFL series over the modes k."""
    B = sfl_eigenfunction(op.domain, k[None, :], x[:, None])
    B *= sfl_eigenvalue(op.domain, k) ** (-op.s / 2)
    return B @ B.T


def assemble_green_matrix(op: OperatorSpec, grid: QuadGrid) -> DiscreteKernel:
    """Assemble the symmetric Nystrom matrix K_ij ~ G_0(x_i, x_j)."""
    if op.domain != grid.domain:
        raise ValueError("operator and grid live on different domains")
    if op.kind is OperatorKind.SFL:
        k = np.arange(1, op.sfl_truncation + 1)
        if grid.mirrored:
            # mode k has parity (-1)^(k+1), so on the left half-grid K = E + O,
            # and across it (E - O) J, with E from the odd k and O from the even k
            n = grid.N // 2
            E, O = (_sfl_gram(op, grid.x[:n], k[p::2]) for p in (0, 1))
            K = np.empty((grid.N, grid.N))
            np.add(E, O, out=K[:n, :n])
            np.subtract(E, O, out=K[:n, n:][:, ::-1])
            K[n:, :n] = K[:n, n:].T
            K[n:, n:] = K[:n, :n][::-1, ::-1]
        else:
            K = _sfl_gram(op, grid.x, k)
        # the truncated series may dip below zero by at most the tail sum
        # (1/r) sum_{k>M} mu_k^{-s} ~ (pi/2r)^{-2s} M^{1-2s} / (r (2s-1))
        M = op.sfl_truncation
        neg_tol = (np.pi / (2 * op.domain.r)) ** (-2 * op.s) \
            * M ** (1.0 - 2.0 * op.s) / (op.domain.r * (2.0 * op.s - 1.0))
    elif op.domain.kind is DomainKind.INTERVAL or op.kind is OperatorKind.RFL:
        # one kernel value per pair i < j (so x_i < x_j), mirrored; kernels are
        # formed from boundary distances, and on the ball Boggio's angular mean
        # is the kernel on radial functions.  |x_i - x_j| is |delta_i - delta_j|
        # on one side, where x may have rounded to +-r, and x_j - x_i across,
        # which keeps K exactly mirror-symmetric
        i, j = np.triu_indices(grid.N, 1)
        dl, ball = grid.delta, op.domain.kind is DomainKind.BALL
        left = grid.x < 0
        d = np.where(left[i] == left[j], np.abs(dl[i] - dl[j]), grid.x[j] - grid.x[i])
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
        # singularity subtraction: the diagonal is set so that each row
        # integrates f = 2 - |x|^2/r^2 to u_f = G_0 f in closed form.  f is
        # not constant, so the torsion solve stays an independent check.  It
        # spans the k = 0, 1 radial Jacobi modes of Dyda, Kuznetsov &
        # Kwasnicki (2017), with G_0 P_k = (1 - rho^2)^s P_k / lam_k on the
        # unit ball: P_0 = 1, P_1 = a rho^2 - n/2, lam_0 = lam0, lam_1 = lam0 q
        r, n, s = op.domain.r, op.domain.n, op.s
        rho2 = (grid.x / r) ** 2
        lam0 = 2 ** (2 * s) * gamma(1 + s) * gamma(n / 2 + s) / gamma(n / 2)
        a, q = s + n / 2 + 1, (1 + s) * (n / 2 + s) / (n / 2)
        u_f = (dl * (2 * r - dl)) ** s / lam0 * (2 - ((a * rho2 - n / 2) / q + n / 2) / a)
        wf = grid.w * (2 - rho2)
        np.fill_diagonal(K, (u_f - K @ wf) / wf)
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


def weighted_norm(f, grid: QuadGrid, alpha: float) -> float:
    """The boundary-weighted L1 norm sum w |f| delta^alpha."""
    return float(np.sum(grid.w * np.abs(as_values(f, grid)) * grid.delta**alpha))
