"""Closed-form Green's functions, Martin kernels and kernel-bound checks.

Three operators are implemented on the interval/ball:

* RFL: the restricted fractional Laplacian, via the explicit ball
  Green's function (incomplete-Beta / hypergeometric evaluation) and its
  boundary-normalized limit (the Martin kernel).
* SFL: the spectral fractional Laplacian on the interval, via the sine
  eigenbasis; its Martin kernel is the Abel limit of a conditionally
  convergent series, evaluated through a polylogarithm expansion.
* Classical Laplacian (s = 1): closed-form Green's function and Poisson
  kernel, used as the endpoint of the s -> 1 limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import gamma as gamma_fn
from math import pi, factorial

import numpy as np
from scipy.special import hyp2f1

from .geometry import DomainKind, DomainSpec, sphere_area


class OperatorKind(Enum):
    RFL = "rfl"
    SFL = "sfl"
    CLASSICAL = "classical"


@dataclass(frozen=True)
class OperatorSpec:
    """Operator choice with its order s and boundary exponents.

    gamma is the optimal boundary exponent (s for RFL, 1 for SFL and the
    classical Laplacian); b = 1 - 2s + gamma is the blow-up exponent of
    large harmonic functions.
    """

    kind: OperatorKind
    s: float
    domain: DomainSpec
    sfl_truncation: int = 4096

    def __post_init__(self):
        if self.kind is OperatorKind.RFL:
            if not 0.0 < self.s < 1.0:
                raise ValueError(f"RFL requires s in (0,1), got {self.s}")
        elif self.kind is OperatorKind.SFL:
            # gamma = 1 < 2s forces s > 1/2
            if not 0.5 < self.s < 1.0:
                raise ValueError(f"SFL requires s in (1/2,1), got {self.s}")
            if self.domain.kind is not DomainKind.INTERVAL:
                raise ValueError("SFL is implemented on the interval only")
            if self.sfl_truncation < 1:
                raise ValueError("SFL truncation must be positive")
        elif self.kind is OperatorKind.CLASSICAL:
            if self.s != 1.0:
                raise ValueError("classical Laplacian has s = 1 exactly")

    @property
    def gamma(self) -> float:
        return self.s if self.kind is OperatorKind.RFL else 1.0

    @property
    def b(self) -> float:
        return 1.0 - 2.0 * self.s + self.gamma


def make_operator(kind: OperatorKind | str, s: float, domain: DomainSpec,
                  sfl_truncation: int = 4096) -> OperatorSpec:
    if isinstance(kind, str):
        kind = OperatorKind(kind.lower())
    return OperatorSpec(kind=kind, s=s, domain=domain, sfl_truncation=sfl_truncation)


# ---------------------------------------------------------------------------
# Restricted fractional Laplacian on the ball (interval = 1-d ball)
# ---------------------------------------------------------------------------

def _boggio_constant(n: int, s: float) -> float:
    return gamma_fn(n / 2.0) / (2.0 ** (2 * s) * gamma_fn(s) ** 2 * pi ** (n / 2.0))


def boggio_integral(rho, s: float, n: int):
    """int_0^rho t^{s-1} (1+t)^{-n/2} dt, vectorized in rho.

    Uses 2F1 through the Pfaff transform (argument in [0,1)), which is
    stable for the huge rho arising near the kernel diagonal, where
    rho > 1e6 takes the tail expansion instead; for s = 1/2, n = 1 the
    closed form 2*arcsinh(sqrt(rho)) is used.
    """
    rho = np.asarray(rho, dtype=float)
    big = rho > 1e6
    if s == 0.5 and n == 1:
        out = 2.0 * np.arcsinh(np.sqrt(rho))
    elif not np.any(big):
        out = _boggio_integral_hyp(rho, s, n)
    elif np.all(big):
        out = _boggio_integral_large(rho, s, n)
    else:
        out = np.empty(rho.shape)
        out[~big] = _boggio_integral_hyp(rho[~big], s, n)
        out[big] = _boggio_integral_large(rho[big], s, n)
    if out.ndim == 0:
        return float(out)
    return out


def _boggio_integral_hyp(rho, s: float, n: int):
    """The 2F1 evaluation; its cost grows as rho / (1 + rho) -> 1."""
    return (rho ** s / s) * (1.0 + rho) ** (-n / 2.0) \
        * hyp2f1(n / 2.0, 1.0, s + 1.0, rho / (1.0 + rho))


def _boggio_integral_limit(s: float, n: int) -> float:
    """Gamma(s) Gamma(n/2 - s) / Gamma(n/2): boggio_integral at rho = inf,
    analytically continued to s > n/2."""
    return gamma_fn(s) * gamma_fn(n / 2.0 - s) / gamma_fn(n / 2.0)


def _boggio_integral_large(rho, s: float, n: int):
    """Large-rho evaluation: analytic-continuation constant minus the
    convergent tail expansion of int_rho^inf t^{s-1}(1+t)^{-n/2} dt."""
    const = _boggio_integral_limit(s, n)
    tail = np.zeros_like(rho)
    coeff = 1.0
    for k in range(12):
        tail = tail + coeff * rho ** (s - n / 2.0 - k) / (n / 2.0 - s + k)
        coeff *= (-n / 2.0 - k) / (k + 1.0)
    return const - tail


def _radii_and_distance(domain: DomainSpec, x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if domain.n == 1 or x.ndim == 0:
        ax, ay, dist = np.abs(x), np.abs(y), np.abs(x - y)
    else:
        ax = np.linalg.norm(x, axis=-1)
        ay = np.linalg.norm(y, axis=-1)
        dist = np.linalg.norm(x - y, axis=-1)
    return ax, ay, dist


def rfl_green_ball(op: OperatorSpec, x, y):
    """Green's function of the RFL on the ball B_r (Boggio's formula).

    For n = 1, x and y are interval coordinates; for n >= 2 they are
    n-vectors.  The diagonal x = y is excluded (use the discretization
    module's diagonal rule there).
    """
    if op.kind is not OperatorKind.RFL:
        raise ValueError("rfl_green_ball requires an RFL operator")
    r, s, n = op.domain.r, op.s, op.domain.n
    ax, ay, dist = _radii_and_distance(op.domain, x, y)
    if np.any(ax > r) or np.any(ay > r):
        raise ValueError("point outside the domain")
    if np.any(dist == 0):
        raise ValueError("Green's function requested on the diagonal x = y")
    rho = (r * r - ax * ax) * (r * r - ay * ay) / (r * r * dist * dist)
    val = _boggio_constant(n, s) * dist ** (2 * s - n) * boggio_integral(rho, s, n)
    if np.ndim(val) == 0:
        return float(val)
    return val


def _rfl_singular_coefficient(op: OperatorSpec) -> float:
    """a in G = a d^{2s-1} + O(1) on the interval: C_{1,s} times the
    rho -> inf limit of boggio_integral; C_{1,1/2} at s = 1/2."""
    s = op.s
    if op.domain.n != 1:
        raise ValueError("the singular split is implemented on the interval only")
    if s == 0.5:
        return _boggio_constant(1, s)
    return _boggio_constant(1, s) * _boggio_integral_limit(s, 1)


def rfl_green_singular(op: OperatorSpec, d):
    """Singular part of Boggio's interval kernel at distance d = |x-y|.

    It is a d^{2s-1}, or -2C log d at s = 1/2, where 2 arcsinh(sqrt(rho))
    ~ log(4 rho); G(x, y) minus this part stays bounded as y -> x.
    """
    a = _rfl_singular_coefficient(op)
    if op.s == 0.5:
        return -2.0 * a * np.log(d)
    return a * np.asarray(d, dtype=float) ** (2.0 * op.s - 1.0)


def rfl_green_singular_integral(op: OperatorSpec, h):
    """int_0^h rfl_green_singular(op, d) dd in closed form:
    a h^{2s} / (2s), or -2C h (log h - 1) at s = 1/2."""
    a = _rfl_singular_coefficient(op)
    h = np.asarray(h, dtype=float)
    if op.s == 0.5:
        return -2.0 * a * h * (np.log(h) - 1.0)
    return a * h ** (2.0 * op.s) / (2.0 * op.s)


def rfl_martin_kernel_ball(op: OperatorSpec, z, y):
    """gamma-normal derivative of the RFL Green's function on the ball.

    D_s G(z, y) for z on the boundary sphere, y interior.
    """
    if op.kind is not OperatorKind.RFL:
        raise ValueError("rfl_martin_kernel_ball requires an RFL operator")
    r, s, n = op.domain.r, op.s, op.domain.n
    _, ay, dist = _radii_and_distance(op.domain, z, y)
    if np.any(dist == 0):
        raise ValueError("Martin kernel requested at y = z")
    c = gamma_fn(n / 2.0) / (2.0 ** s * s * gamma_fn(s) ** 2 * pi ** (n / 2.0))
    val = c * (r * r - ay * ay) ** s / (r ** s * dist ** n)
    if np.ndim(val) == 0:
        return float(val)
    return val


def poisson_kernel_classical(domain: DomainSpec, z, y):
    """Classical Poisson kernel of the ball/interval.

    D_1(z, y) = (r^2 - |y|^2) / (|S^{n-1}| r |z-y|^n); the interval uses
    |S^0| = 2 (counting measure on the two endpoints).
    """
    r, n = domain.r, domain.n
    _, ay, dist = _radii_and_distance(domain, z, y)
    if np.any(dist == 0):
        raise ValueError("Poisson kernel requested at y = z")
    val = (r * r - ay * ay) / (sphere_area(n) * r * dist ** n)
    if np.ndim(val) == 0:
        return float(val)
    return val


# ---------------------------------------------------------------------------
# Classical Laplacian on the interval
# ---------------------------------------------------------------------------

def classical_green_interval(domain: DomainSpec, x, y):
    """Green's function of -d^2/dx^2 on (-r, r): (r - max)(r + min) / 2r."""
    r = domain.r
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    hi = np.maximum(x, y)
    lo = np.minimum(x, y)
    val = (r - hi) * (r + lo) / (2.0 * r)
    if val.ndim == 0:
        return float(val)
    return val


# ---------------------------------------------------------------------------
# Spectral fractional Laplacian on the interval
# ---------------------------------------------------------------------------

def sfl_eigenvalue(domain: DomainSpec, k) -> np.ndarray:
    """Dirichlet-Laplacian eigenvalues mu_k = (k pi / 2r)^2 on (-r, r)."""
    k = np.asarray(k, dtype=float)
    return (k * pi / (2.0 * domain.r)) ** 2


def sfl_eigenfunction(domain: DomainSpec, k, x) -> np.ndarray:
    """L^2-normalized sine modes sin(k pi (x+r) / 2r) / sqrt(r)."""
    r = domain.r
    k = np.asarray(k, dtype=float)
    x = np.asarray(x, dtype=float)
    return np.sin(k * pi * (x + r) / (2.0 * r)) / np.sqrt(r)


def sfl_green_interval(op: OperatorSpec, x, y):
    """Truncated spectral series for the SFL Green's function.

    sum_{k<=M} phi_k(x) phi_k(y) mu_k^{-s}; absolutely convergent for
    s > 1/2 (terms ~ k^{-2s}).
    """
    if op.kind is not OperatorKind.SFL:
        raise ValueError("sfl_green_interval requires an SFL operator")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    k = np.arange(1, op.sfl_truncation + 1)
    weights = sfl_eigenvalue(op.domain, k) ** (-op.s)
    px = sfl_eigenfunction(op.domain, k, x[..., None])
    py = sfl_eigenfunction(op.domain, k, y[..., None])
    val = np.sum(weights * px * py, axis=-1)
    if val.ndim == 0:
        return float(val)
    return val


_ZETA_CACHE: dict[tuple[float, int], complex] = {}


def _zeta(p: float, m: int) -> complex:
    """zeta(p - m) over all real p - m != 1, via mpmath (cached)."""
    key = (p, m)
    if key not in _ZETA_CACHE:
        import mpmath

        _ZETA_CACHE[key] = complex(mpmath.zeta(p - m))
    return _ZETA_CACHE[key]


def polylog_unit_circle(p: float, alpha) -> np.ndarray:
    """Li_p(e^{i alpha}) for real order p < 1 and 0 < |alpha| < 2 pi.

    Uses the expansion Li_p(e^mu) = Gamma(1-p) (-mu)^{p-1}
    + sum_m zeta(p-m) mu^m / m! with mu = i alpha, which converges for
    |alpha| < 2 pi, but ever more slowly as |alpha| nears 2 pi; a series
    that has not met its tolerance by order 80 raises.  Vectorized in alpha.
    """
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    if np.any((np.abs(alpha) <= 0) | (np.abs(alpha) >= 2 * pi)):
        raise ValueError("alpha must lie in (0, 2 pi) in absolute value")
    mu = 1j * alpha
    out = gamma_fn(1.0 - p) * (-mu) ** (p - 1.0)
    term = np.ones_like(mu)
    m = 0
    while True:
        out = out + _zeta(p, m) * term
        m += 1
        term = term * mu / m
        if m > 8 and np.max(np.abs(term)) * abs(_zeta(p, m)) < 1e-18:
            out = out + _zeta(p, m) * term
            break
        if m > 80:
            raise RuntimeError(f"polylog series Li_{p} did not converge by order 80 "
                               f"at |alpha| = {np.max(np.abs(alpha)):.6g}")
    return out


def sfl_martin_kernel_interval(op: OperatorSpec, z: float, y):
    """Martin kernel of the SFL on the interval (gamma = 1).

    Abel limit of sum_k d_k(z) phi_k(y) mu_k^{-s} where d_k is the inner
    normal derivative of the k-th sine mode; the limit is evaluated in
    closed form through Li_{2s-1} on the unit circle.
    """
    if op.kind is not OperatorKind.SFL:
        raise ValueError("sfl_martin_kernel_interval requires an SFL operator")
    r, s = op.domain.r, op.s
    if abs(abs(z) - r) > 1e-12 * r:
        raise ValueError("z must be a boundary point of the interval")
    y = np.asarray(y, dtype=float)
    alpha = pi * (y + r) / (2.0 * r)
    p = 2.0 * s - 1.0
    scale = (pi / (2.0 * r)) ** (1.0 - 2.0 * s) / r
    if z < 0:
        val = scale * np.imag(polylog_unit_circle(p, alpha))
    else:
        # d_k(+r) = (-1)^{k+1} k pi / 2r: shift the angle by -pi
        val = scale * (-np.imag(polylog_unit_circle(p, alpha - pi)))
    val = np.reshape(val, np.shape(y))
    if val.ndim == 0:
        return float(val)
    return val


def sfl_martin_series_abel(op: OperatorSpec, z: float, y, q: float) -> np.ndarray:
    """Raw Abel-damped partial sum of the Martin series (oracle helper).

    sum_{k<=K} d_k(z) phi_k(y) mu_k^{-s} q^k with K = ceil(40 / (1 - q)),
    so the geometric tail is negligible.
    """
    r, s = op.domain.r, op.s
    n_terms = int(np.ceil(40.0 / (1.0 - q)))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    k = np.arange(1, n_terms + 1)
    d_k = (k * pi / (2.0 * r)) / np.sqrt(r)
    if z > 0:
        d_k = d_k * (-1.0) ** (k + 1)
    weights = d_k * sfl_eigenvalue(op.domain, k) ** (-s) * q ** k
    return np.sum(weights * sfl_eigenfunction(op.domain, k, y[:, None]), axis=1)


# ---------------------------------------------------------------------------
# Dispatch and (K1) bound checking
# ---------------------------------------------------------------------------

def green_function(op: OperatorSpec, x, y):
    """Evaluate the Green's function of the chosen operator off-diagonal."""
    if op.kind is OperatorKind.RFL:
        return rfl_green_ball(op, x, y)
    if op.kind is OperatorKind.SFL:
        return sfl_green_interval(op, x, y)
    if op.domain.n != 1:
        raise NotImplementedError("classical Green's function implemented on the interval only")
    return classical_green_interval(op.domain, x, y)


def martin_kernel(op: OperatorSpec, z, y):
    """Evaluate the Martin kernel D_gamma G_0(z, y) of the chosen operator."""
    if op.kind is OperatorKind.RFL:
        return rfl_martin_kernel_ball(op, z, y)
    if op.kind is OperatorKind.SFL:
        return sfl_martin_kernel_interval(op, float(z), y)
    return poisson_kernel_classical(op.domain, z, y)


@dataclass(frozen=True)
class KernelBoundReport:
    min_ratio: float
    max_ratio: float
    sample_size: int
    log_case: bool


def check_K1_bounds(op: OperatorSpec, x, y) -> KernelBoundReport:
    """Empirical two-sided kernel bounds over a sample of point pairs.

    Reports the extremes of G_0(x,y) divided by the comparison
    expression |x-y|^{2s-n} * min(delta^g(x) delta^g(y) / |x-y|^{2g}, 1);
    for n = 2s = 1 the comparison carries the documented logarithmic
    modification log(1 + delta^g delta^g / |x-y|^{2g}) instead of the
    minimum, and the report is flagged.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size == 0:
        raise ValueError("empty sample")
    s, g, n, r = op.s, op.gamma, op.domain.n, op.domain.r
    ax, ay, dist = _radii_and_distance(op.domain, x, y)
    dx, dy = r - ax, r - ay
    vals = np.atleast_1d(np.asarray(green_function(op, x, y), dtype=float))
    log_case = (n == 1 and s == 0.5 and op.kind is OperatorKind.RFL)
    boundary_factor = dx ** g * dy ** g / dist ** (2 * g)
    if log_case:
        comparison = np.log1p(boundary_factor)
    else:
        comparison = dist ** (2 * s - n) * np.minimum(boundary_factor, 1.0)
    ratio = vals / comparison
    return KernelBoundReport(min_ratio=float(np.min(ratio)),
                             max_ratio=float(np.max(ratio)),
                             sample_size=int(x.size if x.ndim <= 1 else len(x)),
                             log_case=log_case)
