"""Martin operator and the weighted boundary trace.

The Martin operator turns boundary data h into a "large" harmonic
function v_h blowing up like delta^{-b}; on the interval the boundary
integral is a two-point sum (counting measure), on the ball with
constant data it reduces to a closed radial expression through the
sphere-integral identity int_{dB_r} |z-y|^{-n} dS = |S^{n-1}| r / (r^2 - |y|^2).

The weighted trace B u(z) = lim u(x) / M(1)(x) is recovered numerically
by polynomial (Richardson-type) extrapolation in delta along the nodes
of the boundary-graded grid.  It also gives the Martin normalization:
lim delta^{1-s} M(1) = 1 / B(delta^{s-1}).
"""

from __future__ import annotations

import numpy as np

from .discretize import GridFunction, one_function
from .geometry import DomainKind, QuadGrid, sphere_area
from .kernels import OperatorSpec, martin_from_gaps


def martin_basis(op: OperatorSpec, grid: QuadGrid) -> np.ndarray:
    """The Martin basis at the grid nodes, one row per end: M(e_-r) and M(e_r)
    on the interval, with e_z the datum 1 at z and 0 at the other end, and
    M(1) on the ball, the kernel times |z - y|^n against the sphere integral
    |S^{n-1}| r / gap.  Raises ValueError when op and grid live on different
    domains.
    """
    if op.domain != grid.domain:
        raise ValueError("operator and grid live on different domains")
    plus, minus = grid.sides
    gap = plus * minus
    if op.domain.kind is DomainKind.INTERVAL:
        return np.stack([martin_from_gaps(op, gap, plus), martin_from_gaps(op, gap, minus)])
    return (martin_from_gaps(op, gap, 1.0) * (sphere_area(op.domain.n) * op.domain.r / gap))[None]


def boundary_values(op: OperatorSpec, h) -> np.ndarray:
    """Boundary data h, validated, as one value per end: (h(-r), h(r)) on the
    interval, where one value serves both ends, and one constant on the ball."""
    ends = 2 if op.domain.kind is DomainKind.INTERVAL else 1
    h = np.atleast_1d(np.asarray(h, dtype=float))
    if h.shape not in ((1,), (ends,)) or not np.all(np.isfinite(h)):
        raise ValueError(f"expected one finite boundary value per end ({ends}) or one for all, got {h}")
    return np.broadcast_to(h, (ends,))


def martin_apply(op: OperatorSpec, grid: QuadGrid, h) -> GridFunction:
    """Large harmonic function v_h = integral of the Martin kernel against h,
    with h as ``boundary_values`` takes it.

    Its transpose is the gamma-normal derivative of G_0 in the very weak
    formulation: <M(h), f>_W = sum_z h(z) D_gamma G_0 f(z), so on the interval
    D_gamma G_0 f(z) = <M(e_z), f>_W, with e_z the datum 1 at z and 0 at the
    other end, and on the ball it is <M(1), f>_W / |dB_r| for radial f.
    """
    # sum_z h(z) M(e_z), as h[0] M(e_-r) + h[1] M(e_r) bit for bit; a BLAS
    # product rounds otherwise
    return GridFunction(grid, np.einsum("j,ji->i", boundary_values(op, h), martin_basis(op, grid)))


def _neville_at_zero(d: np.ndarray, v: np.ndarray) -> float:
    t = v.astype(float).copy()
    for k in range(1, len(d)):
        for i in range(len(d) - k):
            t[i] = t[i] + (t[i] - t[i + 1]) * d[i] / (d[i + k] - d[i])
    return float(t[0])


def weighted_trace(op: OperatorSpec, u, z: float, grid: QuadGrid) -> float:
    """Weighted boundary trace at z: u / M(1) at ``grid.boundary_nodes(z)``,
    Neville-extrapolated to delta = 0 along the grid.  Raises ValueError when
    the extrapolation without the farthest node differs from it by more than
    ten times its value."""
    v = one_function(u, grid, "u")
    order = grid.boundary_nodes(z)
    d = grid.delta[order]
    q = v[order] / martin_apply(op, grid, 1.0).values[order]
    value = _neville_at_zero(d, q)
    err = abs(value - _neville_at_zero(d[:-1], q[:-1]))
    if not np.isfinite(value) or (abs(value) > 0 and err > 10 * abs(value)):
        raise ValueError("trace extrapolation did not converge")
    return value
