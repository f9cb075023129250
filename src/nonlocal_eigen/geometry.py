"""Domains, boundary distance and boundary-graded quadrature grids.

Two domain shapes are supported: the symmetric interval (-r, r) and the
ball of radius r centered at the origin (radial data only).  Quadrature
grids are composite Gauss-Legendre rules pushed through a power-law
coordinate map that concentrates nodes near the boundary, where both the
solutions (~ delta^gamma) and the singular data (~ delta^-b) live.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from math import gamma as _gamma_fn
from math import pi

import numpy as np


class DomainKind(Enum):
    INTERVAL = "interval"
    BALL = "ball"


@dataclass(frozen=True)
class DomainSpec:
    kind: DomainKind
    n: int
    r: float

    def __post_init__(self):
        if self.r <= 0:
            raise ValueError(f"radius must be positive, got {self.r}")
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")
        if self.kind is DomainKind.INTERVAL and self.n != 1:
            raise ValueError("interval domain forces n = 1")

    @property
    def volume(self) -> float:
        if self.kind is DomainKind.INTERVAL:
            return 2.0 * self.r
        return sphere_area(self.n) * self.r**self.n / self.n

    @property
    def boundary_points(self) -> np.ndarray:
        """Boundary as points usable in kernel evaluations.

        For the interval these are the two endpoints (counting measure on
        the boundary); for the ball a single representative point at
        radius r (constant boundary data only).
        """
        if self.kind is DomainKind.INTERVAL:
            return np.array([-self.r, self.r])
        return np.array([self.r])


def sphere_area(n: int) -> float:
    """Surface measure of the unit sphere S^{n-1}; equals 2 for n = 1."""
    return 2.0 * pi ** (n / 2.0) / _gamma_fn(n / 2.0)


def make_domain(kind: DomainKind | str, n: int, r: float) -> DomainSpec:
    if isinstance(kind, str):
        kind = DomainKind(kind.lower())
    return DomainSpec(kind=kind, n=n, r=r)


def delta(domain: DomainSpec, x) -> np.ndarray | float:
    """Distance to the boundary, r - |x|.

    For the ball, x is interpreted as a radius (scalar) or an array of
    radii.  Raises for points outside the closed domain.
    """
    x = np.asarray(x, dtype=float)
    d = domain.r - np.abs(x)
    if np.any(d < -1e-14 * domain.r):
        raise ValueError("point outside the closure of the domain")
    if d.ndim == 0:
        return float(d)
    return d


@dataclass(frozen=True)
class QuadGrid:
    """Quadrature nodes, weights and boundary distances on a domain.

    ``x`` holds interval coordinates, or radii for the ball.  Weights
    include the full volume element (spherical factor for the ball).
    ``cell_lo``/``cell_hi`` delimit the per-node cells used by the
    Nystrom diagonal rule.
    """

    domain: DomainSpec
    x: np.ndarray
    w: np.ndarray
    delta: np.ndarray
    grading: float
    cell_lo: np.ndarray = field(repr=False, default=None)
    cell_hi: np.ndarray = field(repr=False, default=None)

    @property
    def N(self) -> int:
        return len(self.x)

    def compact_mask(self, frac: float = 0.25) -> np.ndarray:
        """Nodes with delta >= frac * r (the interior compact set K)."""
        return self.delta >= frac * self.domain.r


def _gauss_panels(a: float, b: float, n_panels: int, counts) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes/weights on [a, b]."""
    edges = np.linspace(a, b, n_panels + 1)
    ts, ws = [], []
    for p in range(n_panels):
        xi, wi = np.polynomial.legendre.leggauss(counts[p])
        lo, hi = edges[p], edges[p + 1]
        ts.append(0.5 * (hi - lo) * xi + 0.5 * (hi + lo))
        ws.append(0.5 * (hi - lo) * wi)
    return np.concatenate(ts), np.concatenate(ws)


def _panel_counts(N: int, even: bool = False) -> list[int]:
    """Gauss points per panel: about 32 each, spread evenly over N."""
    n_panels = max(1, N // 32)
    if even:
        n_panels = max(2, 2 * (n_panels // 2))
    base = N // n_panels
    extra = N - base * n_panels
    return [base + 1 if p < extra else base for p in range(n_panels)]


def build_grid(domain: DomainSpec, N: int, grading: float = 2.0) -> QuadGrid:
    """Boundary-graded composite Gauss-Legendre grid with N nodes.

    The reference coordinate t is mapped by a sign-symmetric power map of
    exponent ``grading``; the weights carry the Jacobian and, for the
    ball, the spherical volume factor.
    """
    if N < 8:
        raise ValueError(f"N must be >= 8, got {N}")
    if grading < 1:
        raise ValueError(f"grading exponent must be >= 1, got {grading}")
    r, beta = domain.r, grading

    if domain.kind is DomainKind.INTERVAL:
        # even panel count keeps t=0 (the kink of the map) on a panel edge
        counts = _panel_counts(N, even=True)
        t, wt = _gauss_panels(-1.0, 1.0, len(counts), counts)
        x = r * np.sign(t) * (1.0 - (1.0 - np.abs(t)) ** beta)
        jac = r * beta * (1.0 - np.abs(t)) ** (beta - 1.0)
        w = wt * jac
        order = np.argsort(x)
        x, w = x[order], w[order]
        d = r - np.abs(x)
        # cells partition (-r, r) by cumulated weights, so |cell_i| = w_i;
        # this keeps the Nystrom diagonal rule consistent to second order
        edges = -r + np.concatenate([[0.0], np.cumsum(w)])
        edges[-1] = r
        lo, hi = edges[:-1], edges[1:]
    else:
        counts = _panel_counts(N)
        t, wt = _gauss_panels(0.0, 1.0, len(counts), counts)
        rho = r * (1.0 - (1.0 - t) ** beta)
        jac = r * beta * (1.0 - t) ** (beta - 1.0)
        w = wt * jac * sphere_area(domain.n) * rho ** (domain.n - 1)
        order = np.argsort(rho)
        x, w = rho[order], w[order]
        d = r - x
        # radial cell edges from the cumulated volume partition
        vol_edges = np.concatenate([[0.0], np.cumsum(w)])
        vol_edges[-1] = domain.volume
        redges = (domain.n * vol_edges / sphere_area(domain.n)) ** (1.0 / domain.n)
        lo, hi = redges[:-1], redges[1:]

    if np.any(w <= 0) or np.any(d <= 0):
        raise AssertionError("grid construction produced nonpositive weights or boundary nodes")
    if np.any(x < lo) or np.any(x > hi):
        raise AssertionError("node escaped its quadrature cell")
    return QuadGrid(domain=domain, x=x, w=w, delta=d, grading=grading,
                    cell_lo=lo, cell_hi=hi)
