"""Domains, boundary distance and boundary-graded quadrature grids.

Two domain shapes are supported: the symmetric interval (-r, r) and the
ball of radius r centered at the origin (radial data only).  Quadrature
grids are composite Gauss-Legendre rules pushed through a power-law
coordinate map that concentrates nodes near the boundary, where both the
solutions (~ delta^gamma) and the singular data (~ delta^-b) live.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import gamma as _gamma_fn
from math import inf, pi

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
        if not 0 < self.r < inf:
            raise ValueError(f"radius must be positive and finite, got {self.r}")
        if not (self.n >= 1 and self.n % 1 == 0):
            raise ValueError(f"dimension must be an integer >= 1, got {self.n}")
        if (self.kind is DomainKind.INTERVAL) != (self.n == 1):
            raise ValueError("the interval has n = 1 and the ball n >= 2")

    @property
    def volume(self) -> float:
        if self.kind is DomainKind.INTERVAL:
            return 2.0 * self.r
        return sphere_area(self.n) * self.r**self.n / self.n


def sphere_area(n: int) -> float:
    """Surface measure of the unit sphere S^{n-1}; equals 2 for n = 1."""
    return 2.0 * pi ** (n / 2.0) / _gamma_fn(n / 2.0)


def make_domain(kind: DomainKind | str, n: int, r: float) -> DomainSpec:
    if isinstance(kind, str):
        kind = DomainKind(kind.lower())
    return DomainSpec(kind=kind, n=n, r=r)


# nodes that a boundary limit or exponent is extrapolated or fitted from
BOUNDARY_NODES = 5

# the interior compact set K holds the nodes with delta >= K_FRACTION r
K_FRACTION = 0.25


@dataclass(frozen=True, eq=False)
class QuadGrid:
    """Quadrature nodes, weights and boundary distances on a domain.

    ``x`` holds interval coordinates, or radii for the ball.  Weights
    include the full volume element (spherical factor for the ball).
    ``eq=False``: array fields have no scalar ``==``, so grids compare and
    hash by identity.
    """

    domain: DomainSpec
    x: np.ndarray
    w: np.ndarray
    delta: np.ndarray
    grading: float  # the map exponent; benchmark/tracing.py keys assemblies by it

    @property
    def N(self) -> int:
        return len(self.x)

    @property
    def sides(self) -> tuple[np.ndarray, np.ndarray]:
        """(r + x, r - x) from delta, never from x, which would cancel near +-r."""
        far = 2 * self.domain.r - self.delta
        left = self.x < 0
        return np.where(left, self.delta, far), np.where(left, far, self.delta)

    @property
    def mirrored(self) -> bool:
        """An interval grid of even N whose x, w and delta equal their mirrors bit for bit."""
        return (self.domain.kind is DomainKind.INTERVAL and self.N % 2 == 0
                and np.array_equal(self.x, -self.x[::-1])
                and np.array_equal(self.w, self.w[::-1])
                and np.array_equal(self.delta, self.delta[::-1]))

    def boundary_nodes(self, z: float) -> np.ndarray:
        """The BOUNDARY_NODES nodes nearest the boundary point z, by increasing delta.

        z is -r or r on the interval and r on the ball, to 1e-12 r.  Any other
        z, or fewer than BOUNDARY_NODES nodes on its side, raises ValueError.
        """
        r = self.domain.r
        ends = (-r, r) if self.domain.kind is DomainKind.INTERVAL else (r,)
        if not any(abs(z - e) <= 1e-12 * r for e in ends):
            raise ValueError(f"z = {z} is not a boundary point; expected one of {ends}")
        near = np.flatnonzero(np.sign(self.x) == np.sign(z))
        if len(near) < BOUNDARY_NODES:
            raise ValueError(f"fewer than {BOUNDARY_NODES} nodes near z = {z}")
        return near[np.argsort(self.delta[near])[:BOUNDARY_NODES]]

    def compact_mask(self) -> np.ndarray:
        """The nodes with delta >= K_FRACTION r, the compact set K; ValueError if none."""
        mask = self.delta >= K_FRACTION * self.domain.r
        if not np.any(mask):
            raise ValueError(f"the compact set K (delta >= {K_FRACTION} r) holds no node")
        return mask


@lru_cache(maxsize=8)
def gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1], read-only, cached per n."""
    rule = np.polynomial.legendre.leggauss(n)
    for a in rule:
        a.setflags(write=False)
    return rule


def _gauss_panels(a: float, b: float, counts) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes/weights on [a, b], counts[p] points on panel p."""
    edges = np.linspace(a, b, len(counts) + 1)
    ts, ws = [], []
    for p, n in enumerate(counts):
        xi, wi = gauss_rule(n)
        lo, hi = edges[p], edges[p + 1]
        ts.append(0.5 * (hi - lo) * xi + 0.5 * (hi + lo))
        ws.append(0.5 * (hi - lo) * wi)
    return np.concatenate(ts), np.concatenate(ws)


def _panel_counts(N: int, n_panels: int) -> list[int]:
    """Gauss points per panel, spread evenly over N; the first panels take the extras."""
    base, extra = divmod(N, n_panels)
    return [base + 1 if p < extra else base for p in range(n_panels)]


def build_grid(domain: DomainSpec, N: int, grading: float = 2.0) -> QuadGrid:
    """Boundary-graded composite Gauss-Legendre grid with N nodes.

    The reference coordinate t is mapped by a sign-symmetric power map of
    exponent ``grading``; the weights carry the Jacobian and, for the
    ball, the spherical volume factor.  t ascends and the map is
    nondecreasing, so the nodes are built in ascending order.
    """
    if N < 8:
        raise ValueError(f"N must be >= 8, got {N}")
    if not 1 <= grading < inf:
        raise ValueError(f"grading exponent must be finite and >= 1, got {grading}")
    r, beta = domain.r, grading

    # about 32 Gauss points per panel
    n_panels = max(1, N // 32)
    if domain.kind is DomainKind.INTERVAL:
        # an even panel count keeps t=0 (the kink of the map) on a panel edge
        half = max(1, n_panels // 2)
        if N % 2:
            t, wt = _gauss_panels(-1.0, 1.0, _panel_counts(N, 2 * half))
        else:
            # [-1, 0] and its mirror image: x, w and delta equal their mirrors
            # bit for bit, and the extra points sit at both ends
            t, wt = _gauss_panels(-1.0, 0.0, _panel_counts(N // 2, half))
            t, wt = np.concatenate([t, -t[::-1]]), np.concatenate([wt, wt[::-1]])
        # delta from the map keeps full precision where r - |x| would cancel,
        # and x may round to +-r at a strong grading; positions near the
        # boundary are read from delta only
        d = r * (1.0 - np.abs(t)) ** beta
        x = np.sign(t) * (r - d)
        jac = r * beta * (1.0 - np.abs(t)) ** (beta - 1.0)
        w = wt * jac
    else:
        t, wt = _gauss_panels(0.0, 1.0, _panel_counts(N, n_panels))
        d = r * (1.0 - t) ** beta
        x = r - d
        jac = r * beta * (1.0 - t) ** (beta - 1.0)
        w = wt * jac * sphere_area(domain.n) * x ** (domain.n - 1)

    # (1 - |t|)^grading of the outermost node underflows to 0 from a grading
    # that falls as N grows (about 120 at N = 64): an input the grid cannot hold
    if np.any(w <= 0) or np.any(d <= 0):
        raise ValueError(f"grading {grading} underflows the outermost nodes' boundary "
                         f"distance or weight to 0 at N = {N}; take a smaller grading")
    return QuadGrid(domain=domain, x=x, w=w, delta=d, grading=grading)
