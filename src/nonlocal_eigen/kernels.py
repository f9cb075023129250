"""Closed-form Green's functions, Martin kernels and kernel-bound checks.

Three operators are implemented on the interval/ball:

* RFL: the restricted fractional Laplacian, via the explicit ball
  Green's function (one incomplete-Beta series, summed from whichever end
  of [0, inf] is nearer) and its boundary-normalized limit (the Martin kernel).
* SFL: the spectral fractional Laplacian on the interval, via the sine
  eigenbasis; its Martin kernel is the Abel limit of a conditionally
  convergent series, evaluated through a polylogarithm expansion.
* Classical Laplacian (s = 1): closed-form Green's function and Poisson
  kernel, used as the endpoint of the s -> 1 limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import gamma as gamma_fn
from math import pi

import numpy as np

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


# incomplete-Beta terms: the series variable is at most 1/2, where 56 reach roundoff
BETA_TERMS = 56


def _expm1_ratio(e: float, L):
    """expm1(e L) / e, with its limit L at e = 0."""
    return np.expm1(e * L) / e if e else L


def _beta_sum(x, p: float, coeffs):
    """x^p times the polynomial with coefficients ``coeffs`` (highest first),
    cut to the m lowest terms, where x^m <= 2^-BETA_TERMS at the largest x."""
    m = int(np.ceil(BETA_TERMS / -np.log2(max(np.max(x), 2.0 ** -BETA_TERMS))))
    acc = np.zeros(np.shape(x))
    for c in coeffs[-m:]:
        acc *= x
        acc += c
    return x ** p * acc


def _beta_tail(w, a: float, high):
    """B(w; a, s) - 1/a from the Horner coefficients of its k >= 1 terms."""
    return _expm1_ratio(a, np.log(w)) + _beta_sum(w, a + 1.0, high)


@lru_cache(maxsize=None)
def _boggio_series(s: float, n: int):
    """Horner coefficients of B(x; p, q) = sum_k (1-q)_k/k! x^{p+k}/(p+k) at
    both ends of boggio_integral, a = n/2 - s and K, cached per (s, n).

    boggio_integral is B(z; s, a) at z = rho/(1+rho), and K - _beta_tail(w)
    at w = 1/(1+rho).  Matching the two at rho = 1 gives K, which is
    Gamma(s)Gamma(a)/Gamma(n/2) - 1/a and stays finite at a = 0.
    """
    a = n / 2.0 - s
    k = np.arange(BETA_TERMS)
    low = np.cumprod(np.r_[1.0, (k[:-1] + 1.0 - a) / (k[:-1] + 1.0)]) / (s + k)
    high = np.cumprod((k + 1.0 - s) / (k + 1.0)) / (a + k + 1.0)
    low, high = low[::-1].tolist(), high[::-1].tolist()
    return low, high, a, float(_beta_sum(0.5, s, low) + _beta_tail(0.5, a, high))


def boggio_integral(rho, s: float, n: int):
    """int_0^rho t^{s-1} (1+t)^{-n/2} dt, vectorized in rho.

    One incomplete-Beta series, summed from the end of [0, inf] nearer
    rho (see _boggio_series), so its variable never exceeds 1/2.
    """
    low, high, a, K = _boggio_series(s, n)
    rho = np.asarray(rho, dtype=float)
    return np.piecewise(rho, [rho <= 1.0], [lambda v: _beta_sum(v / (1.0 + v), s, low),
                                           lambda v: K - _beta_tail(1.0 / (1.0 + v), a, high)])


def _scalar(val):
    """A 0-d result as a Python float, any other unchanged."""
    return float(val) if np.ndim(val) == 0 else val


def _radii_and_distance(domain: DomainSpec, x, y):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
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
    r = op.domain.r
    ax, ay, dist = _radii_and_distance(op.domain, x, y)
    if np.any(ax > r) or np.any(ay > r):
        raise ValueError("point outside the domain")
    return rfl_green_from_gaps(op, r * r - ax * ax, r * r - ay * ay, dist)


def rfl_green_from_gaps(op: OperatorSpec, gap_x, gap_y, dist):
    """Boggio's kernel from gap = r^2 - |.|^2 at both points and dist = |x-y|.

    Callers that know the boundary distance delta pass delta (2r - delta),
    which keeps full relative precision where r^2 - |x|^2 would cancel.
    """
    r, s, n = op.domain.r, op.s, op.domain.n
    if np.any(dist == 0):
        raise ZeroDivisionError("Green's function requested on the diagonal x = y")
    rho = gap_x * gap_y / (r * r * dist * dist)
    return _scalar(_boggio_constant(n, s) * dist ** (2 * s - n) * boggio_integral(rho, s, n))


def _interval_split(op: OperatorSpec) -> tuple[float, float]:
    """C_{1,s} and K of the interval's singular part (rfl_green_singular)."""
    if op.domain.n != 1:
        raise ValueError("the singular split is implemented on the interval only")
    return _boggio_constant(1, op.s), _boggio_series(op.s, 1)[3]


def rfl_green_singular(op: OperatorSpec, d):
    """Singular part of Boggio's interval kernel at distance d = |x-y|.

    C (K d^{2s-1} - 2 expm1((2s-1) log d)/(2s-1)) with K from
    _boggio_series; at s = 1/2 it is C (2 log 2 - 2 log d).  G(x, y)
    minus this part stays bounded as y -> x, continuously in s.
    """
    C, K = _interval_split(op)
    e, L = 2.0 * op.s - 1.0, np.log(d)
    return C * (K * np.exp(e * L) - 2.0 * _expm1_ratio(e, L))


def rfl_green_singular_integral(op: OperatorSpec, h):
    """int_0^h rfl_green_singular(op, d) dd in closed form:
    C (K h^{2s} / (2s) - 2h (expm1((2s-1) log h)/(2s-1) - 1) / (2s))."""
    C, K = _interval_split(op)
    s2, L = 2.0 * op.s, np.log(h)
    return C * (K * np.exp(s2 * L) - 2.0 * h * (_expm1_ratio(s2 - 1.0, L) - 1.0)) / s2


# ---------------------------------------------------------------------------
# Classical Laplacian on the interval
# ---------------------------------------------------------------------------

def classical_green_interval(domain: DomainSpec, x, y):
    """Green's function of -d^2/dx^2 on (-r, r): (r - max)(r + min) / 2r."""
    r = domain.r
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    hi = np.maximum(x, y)
    lo = np.minimum(x, y)
    return _scalar((r - hi) * (r + lo) / (2.0 * r))


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
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    k = np.arange(1, op.sfl_truncation + 1)
    weights = sfl_eigenvalue(op.domain, k) ** (-op.s)
    px = sfl_eigenfunction(op.domain, k, x[..., None])
    py = sfl_eigenfunction(op.domain, k, y[..., None])
    return _scalar(np.sum(weights * px * py, axis=-1))


_ZETA_CACHE: dict[tuple[float, int], complex] = {}


def _zeta(p: float, m: int) -> complex:
    """zeta(p - m) over all real p - m != 1, via mpmath (cached)."""
    key = (p, m)
    if key not in _ZETA_CACHE:
        import mpmath

        _ZETA_CACHE[key] = complex(mpmath.zeta(p - m))
    return _ZETA_CACHE[key]


def polylog_unit_circle(p: float, alpha) -> np.ndarray:
    """Li_p(e^{i alpha}) for real non-integer order p and 0 < |alpha| < 2 pi.

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


def martin_from_gaps(op: OperatorSpec, gap, dist):
    """Martin kernel D_gamma G_0(z, y) from gap = r^2 - |y|^2 and dist = |z - y|.

    RFL: Gamma(n/2) gap^s / (2^s s Gamma(s)^2 pi^{n/2} r^s dist^n).
    Classical: the Poisson kernel gap / (|S^{n-1}| r dist^n), |S^0| = 2.
    SFL (interval): the Abel limit of sum_k d_k(z) phi_k(y) mu_k^{-s},
    d_k the inner normal derivative of the k-th sine mode, in closed form
    (pi/2r)^{1-2s} Im Li_{2s-1}(e^{i pi dist/2r}) / r at either end, since
    Li_p of the conjugate is the conjugate; it does not read gap.
    Callers that know the boundary distances pass them from grid.sides.
    """
    r, s, n = op.domain.r, op.s, op.domain.n
    if op.kind is OperatorKind.SFL:
        alpha = pi * np.asarray(dist, dtype=float) / (2.0 * r)
        scale = (pi / (2.0 * r)) ** (1.0 - 2.0 * s) / r
        val = scale * np.imag(polylog_unit_circle(2.0 * s - 1.0, alpha))
        return _scalar(np.reshape(val, np.shape(alpha)))
    if op.kind is OperatorKind.RFL:
        c = gamma_fn(n / 2.0) / (2.0 ** s * s * gamma_fn(s) ** 2 * pi ** (n / 2.0))
        return _scalar(c * gap ** s / (r ** s * dist ** n))
    return _scalar(gap / (sphere_area(n) * r * dist ** n))


def martin_kernel(op: OperatorSpec, z, y):
    """Martin kernel D_gamma G_0(z, y) at a boundary point z, from coordinates."""
    r = op.domain.r
    az, ay, dist = _radii_and_distance(op.domain, z, y)
    if np.any(np.abs(az - r) > 1e-12 * r):
        raise ValueError("z must be a boundary point of the domain")
    if np.any(dist == 0):
        raise ValueError("Martin kernel requested at y = z")
    return martin_from_gaps(op, r * r - ay * ay, dist)


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
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
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
