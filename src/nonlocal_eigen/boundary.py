"""Martin operator and the weighted boundary trace.

The Martin operator turns boundary data h into a "large" harmonic
function v_h blowing up like delta^{-b}; on the interval the boundary
integral is a two-point sum (counting measure), on the ball with
constant data it reduces to a closed radial expression through the
sphere-integral identity int_{dB_r} |z-y|^{-n} dS = |S^{n-1}| r / (r^2 - |y|^2).

The weighted trace B u(z) = lim u(x) / M(1)(x) is recovered numerically
by polynomial (Richardson-type) extrapolation in delta along the nodes
of the boundary-graded grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gamma as gamma_fn

import numpy as np

from .discretize import GridFunction, as_values
from .geometry import BOUNDARY_NODES, DomainKind, QuadGrid, sphere_area
from .kernels import OperatorKind, OperatorSpec, martin_from_gaps


@lru_cache(maxsize=16)
def _martin_columns(op: OperatorSpec, grid: QuadGrid) -> tuple[np.ndarray, np.ndarray]:
    """The Martin kernel at the grid nodes, read-only, computed once per (op, grid).

    Interval: M(-r, .) and M(r, .), the kernels of the two ends.
    Ball: the kernel times |z - y|^n and the sphere integral |S^{n-1}| r / gap,
    whose product is M(1).  Raises ValueError when op and grid live on
    different domains.
    """
    if op.domain != grid.domain:
        raise ValueError("operator and grid live on different domains")
    plus, minus = grid.sides
    gap = plus * minus
    if op.domain.kind is DomainKind.INTERVAL:
        cols = martin_from_gaps(op, gap, plus), martin_from_gaps(op, gap, minus)
    else:
        cols = (martin_from_gaps(op, gap, 1.0), sphere_area(op.domain.n) * op.domain.r / gap)
    for c in cols:
        c.setflags(write=False)
    return cols


def martin_apply(op: OperatorSpec, grid: QuadGrid, h) -> GridFunction:
    """Large harmonic function v_h = integral of the Martin kernel against h.

    h is finite: the values (h(-r), h(r)) on the interval, where one value
    serves both ends, or one constant on the ball.

    Its transpose is the gamma-normal derivative of G_0 in the very weak
    formulation: <M(h), f>_W = sum_z h(z) D_gamma G_0 f(z), so on the interval
    D_gamma G_0 f(z) = <M(e_z), f>_W, with e_z the datum 1 at z and 0 at the
    other end, and on the ball it is <M(1), f>_W / |dB_r| for radial f.
    """
    ends = 2 if op.domain.kind is DomainKind.INTERVAL else 1
    h = np.atleast_1d(np.asarray(h, dtype=float))
    if h.shape not in ((1,), (ends,)) or not np.all(np.isfinite(h)):
        raise ValueError(f"expected one finite boundary value per end ({ends}) or one for all, got {h}")
    h = np.broadcast_to(h, (ends,))
    a, b = _martin_columns(op, grid)
    if ends == 2:
        return GridFunction(grid, h[0] * a + h[1] * b)
    # ball, constant data: the kernel times |z - y|^n, against the sphere integral
    return GridFunction(grid, h[0] * a * b)


@dataclass(frozen=True)
class TraceReport:
    value: float
    error: float


def _neville_at_zero(d: np.ndarray, v: np.ndarray) -> float:
    t = v.astype(float).copy()
    for k in range(1, len(d)):
        for i in range(len(d) - k):
            t[i] = t[i] + (t[i] - t[i + 1]) * d[i] / (d[i + k] - d[i])
    return float(t[0])


def _extrapolate_to_zero(d: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    """Neville polynomial extrapolation of v(d) to d = 0.

    The error estimate compares against the extrapolation without the
    farthest node.
    """
    full = _neville_at_zero(d, v)
    reduced = _neville_at_zero(d[:-1], v[:-1]) if len(d) > 2 else v[0]
    return full, abs(full - reduced)


def weighted_trace(op: OperatorSpec, u, z: float, grid: QuadGrid) -> TraceReport:
    """Weighted boundary trace at z: u / M(1) at the BOUNDARY_NODES nodes
    nearest z, extrapolated along the grid."""
    v = as_values(u, grid)
    order = grid.boundary_nodes(z)
    if len(order) < BOUNDARY_NODES:
        raise ValueError(f"fewer than {BOUNDARY_NODES} usable nodes near z={z}")
    d = grid.delta[order]
    m1 = martin_apply(op, grid, 1.0).values
    value, err = _extrapolate_to_zero(d, v[order] / m1[order])
    if not np.isfinite(value) or (abs(value) > 0 and err > 10 * abs(value)):
        raise ValueError("trace extrapolation did not converge")
    return TraceReport(value=value, error=err)


@dataclass(frozen=True)
class MartinConstantReport:
    """Measured boundary normalization lim delta^{1-s} M(1) of the interval
    RFL Martin kernel against its closed form 1/(s Gamma(s)^2 r)."""

    measured: float
    candidate_kernel: float


def martin_constant_report(op: OperatorSpec, grid: QuadGrid) -> MartinConstantReport:
    """Extrapolate lim delta^{1-s} M(1) at the right endpoint and compare."""
    if op.kind is not OperatorKind.RFL or op.domain.kind is not DomainKind.INTERVAL:
        raise ValueError("constant comparison is defined for the RFL interval")
    s, r = op.s, op.domain.r
    m1 = martin_apply(op, grid, 1.0).values
    sel = grid.boundary_nodes(r)
    measured, _ = _extrapolate_to_zero(grid.delta[sel], grid.delta[sel] ** (1 - s) * m1[sel])
    return MartinConstantReport(
        measured=measured,
        candidate_kernel=1.0 / (s * gamma_fn(s) ** 2 * r),
    )
