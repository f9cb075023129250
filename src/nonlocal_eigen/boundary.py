"""Martin operator, gamma-normal derivative of the Green's operator and
the weighted boundary trace.

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
from math import gamma as gamma_fn

import numpy as np

from .discretize import GridFunction, as_values
from .geometry import DomainKind, DomainSpec, QuadGrid, sphere_area
from .kernels import OperatorKind, OperatorSpec, martin_kernel


@dataclass(frozen=True)
class BoundaryData:
    """Boundary values: a pair for the interval, a constant for the ball."""

    domain: DomainSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.values, dtype=float))
        npts = len(self.domain.boundary_points)
        if v.size == 1 and npts == 2:
            v = np.repeat(v, 2)
        if v.shape != (npts,):
            raise ValueError(f"expected {npts} boundary values, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("boundary data must be finite")
        object.__setattr__(self, "values", v)

    @property
    def sup(self) -> float:
        return float(np.max(np.abs(self.values)))


def make_boundary_data(domain: DomainSpec, h) -> BoundaryData:
    if isinstance(h, BoundaryData):
        return h
    return BoundaryData(domain=domain, values=h)


def martin_apply(op: OperatorSpec, grid: QuadGrid, h) -> GridFunction:
    """Large harmonic function v_h = integral of the Martin kernel against h."""
    h = make_boundary_data(op.domain, h)
    if op.domain.kind is DomainKind.INTERVAL:
        r = op.domain.r
        vals = (h.values[0] * np.asarray(martin_kernel(op, -r, grid.x))
                + h.values[1] * np.asarray(martin_kernel(op, r, grid.x)))
        return GridFunction(grid, vals)
    # ball, constant data: angular integral in closed form
    if op.kind is OperatorKind.SFL:
        raise NotImplementedError("Martin operator on the ball: RFL and classical only")
    r, n, rho = op.domain.r, op.domain.n, grid.x
    sphere_int = sphere_area(n) * r / (r * r - rho * rho)
    if op.kind is OperatorKind.RFL:
        s = op.s
        c = gamma_fn(n / 2.0) / (2.0**s * s * gamma_fn(s) ** 2 * np.pi ** (n / 2.0))
        kernel_radial = c * (r * r - rho * rho) ** s / r**s
    else:
        kernel_radial = (r * r - rho * rho) / (sphere_area(n) * r)
    return GridFunction(grid, h.values[0] * kernel_radial * sphere_int)


def gamma_normal_derivative_G0(op: OperatorSpec, grid: QuadGrid, z: float, f) -> float:
    """D_gamma G_0(f)(z): quadrature of the Martin kernel against f, for |f| <= 1e8."""
    v = as_values(f, grid)
    if np.max(np.abs(v)) > 1e8:
        raise ValueError("data exceeds boundedness cap 1e+08")
    kern = np.asarray(martin_kernel(op, z, grid.x))
    return float(np.sum(grid.w * kern * v))


@dataclass(frozen=True)
class TraceReport:
    z: float
    value: float
    error: float
    nodes_delta: np.ndarray


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
    """Weighted boundary trace at z: u / M(1) at the 5 nodes nearest z,
    extrapolated along the grid."""
    v = as_values(u, grid)
    order = np.argsort(np.abs(grid.x - z))[:5]
    order = order[np.argsort(grid.delta[order])]
    if len(order) < 5:
        raise ValueError(f"fewer than 5 usable nodes near z={z}")
    d = grid.delta[order]
    m1 = martin_apply(op, grid, 1.0).values
    value, err = _extrapolate_to_zero(d, v[order] / m1[order])
    if not np.isfinite(value) or (abs(value) > 0 and err > 10 * abs(value)):
        raise ValueError("trace extrapolation did not converge")
    return TraceReport(z=float(z), value=value, error=err, nodes_delta=d)


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
    order = np.argsort(grid.delta)[:8]
    sel = order[grid.x[order] > 0]
    sel = sel[np.argsort(grid.delta[sel])][:5]
    measured, _ = _extrapolate_to_zero(grid.delta[sel], grid.delta[sel] ** (1 - s) * m1[sel])
    return MartinConstantReport(
        measured=measured,
        candidate_kernel=1.0 / (s * gamma_fn(s) ** 2 * r),
    )
