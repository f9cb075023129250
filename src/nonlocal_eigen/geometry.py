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
        if (self.kind is DomainKind.INTERVAL) != (self.n == 1):
            raise ValueError("the interval has n = 1 and the ball n >= 2")

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


# nodes that a boundary limit or exponent is extrapolated or fitted from
BOUNDARY_NODES = 5


@dataclass(frozen=True)
class QuadGrid:
    """Quadrature nodes, weights and boundary distances on a domain.

    ``x`` holds interval coordinates, or radii for the ball.  Weights
    include the full volume element (spherical factor for the ball).
    ``half`` holds, per node, the lengths of its cell below and above x
    (shape (2, N)), used by the Nystrom diagonal rule; it is formed from
    boundary distances, so a half-cell that ends on the boundary is delta.
    """

    domain: DomainSpec
    x: np.ndarray
    w: np.ndarray
    delta: np.ndarray
    grading: float
    half: np.ndarray = field(repr=False, default=None)

    @property
    def N(self) -> int:
        return len(self.x)

    @property
    def sides(self) -> tuple[np.ndarray, np.ndarray]:
        """(r + x, r - x) from delta, never from x, which would cancel near +-r."""
        far = 2 * self.domain.r - self.delta
        left = self.x < 0
        return np.where(left, self.delta, far), np.where(left, far, self.delta)

    def boundary_nodes(self, z: float) -> np.ndarray:
        """The BOUNDARY_NODES nodes nearest the boundary point z, by increasing delta."""
        near = np.flatnonzero(np.sign(self.x) == np.sign(z))
        return near[np.argsort(self.delta[near])[:BOUNDARY_NODES]]

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
        # delta from the map keeps full precision where r - |x| would cancel
        d = r * (1.0 - np.abs(t)) ** beta
        x = np.sign(t) * (r - d)
        jac = r * beta * (1.0 - np.abs(t)) ** (beta - 1.0)
        w = wt * jac
        order = np.argsort(x)
        x, w, d = x[order], w[order], d[order]
        # cells by weights cumulated from the nearer end, so |cell_i| = w_i,
        # which keeps the Nystrom diagonal rule consistent to second order;
        # as boundary distances the two end half-cells are delta exactly
        left = x < 0
        inner = np.where(left, np.cumsum(w), np.cumsum(w[::-1])[::-1])
        toward, away = d - (inner - w), inner - d
        half = np.where(left, [toward, away], [away, toward])
    else:
        counts = _panel_counts(N)
        t, wt = _gauss_panels(0.0, 1.0, len(counts), counts)
        d = r * (1.0 - t) ** beta
        rho = r - d
        jac = r * beta * (1.0 - t) ** (beta - 1.0)
        w = wt * jac * sphere_area(domain.n) * rho ** (domain.n - 1)
        order = np.argsort(rho)
        x, w, d = rho[order], w[order], d[order]
        # radial cell edges from the cumulated volume partition, as boundary
        # distances, each from the volume on its nearer side: an edge with less
        # volume inside than outside is r - r (inside/volume)^(1/n); the centre
        # edge is r
        vol = domain.volume
        inside, outside = np.cumsum(w)[:-1] / vol, np.cumsum(w[::-1])[-2::-1] / vol
        edges = np.where(inside < outside, r - r * inside ** (1 / domain.n),
                         -r * np.expm1(np.log1p(-outside) / domain.n))
        edges = np.r_[r, edges, 0.0]
        half = np.stack([edges[:-1] - d, d - edges[1:]])

    if np.any(w <= 0) or np.any(d <= 0) or np.any(np.abs(x) >= r):
        raise AssertionError("grid construction produced nonpositive weights or boundary nodes")
    if np.any(half < 0):
        raise AssertionError("node escaped its quadrature cell")
    return QuadGrid(domain=domain, x=x, w=w, delta=d, grading=grading, half=half)
