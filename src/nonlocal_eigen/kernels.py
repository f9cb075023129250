"""Closed-form Green's functions, Martin kernels and the (K1) kernel-bound check.

Three operators are implemented on the interval/ball:

* RFL: the restricted fractional Laplacian, via the explicit ball
  Green's function (one incomplete-Beta series, summed from whichever end
  of [0, inf] is nearer, re-centred at 1/4, where its terms fall like 3^-j
  and 36 of them reach 2^-56) and its boundary-normalized limit (the
  Martin kernel).
* SFL: the spectral fractional Laplacian on the interval, via the sine
  eigenbasis; its Martin kernel is the Abel limit of a conditionally
  convergent series, evaluated through a polylogarithm expansion.
* Classical Laplacian (s = 1): the Poisson kernel, used as the endpoint of
  the s -> 1 limit (its Green's matrix is filled from boundary distances).

Green's functions are evaluated off the diagonal x = y only: the Nystrom
diagonal is calibrated in the discretization module against a closed-form
solve, so no kernel needs a singular split.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import ceil, log2, pi
from math import gamma as gamma_fn

import numpy as np

from .geometry import DomainKind, DomainSpec, sphere_area


class OperatorKind(Enum):
    RFL = "rfl"
    SFL = "sfl"
    CLASSICAL = "classical"


# sine modes kept in the SFL kernel series by default
SFL_TRUNCATION = 4096


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
    sfl_truncation: int = SFL_TRUNCATION

    def __post_init__(self):
        if self.kind is not OperatorKind.SFL:
            # only the SFL reads its truncation, so no other operator compares by it
            object.__setattr__(self, "sfl_truncation", SFL_TRUNCATION)
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
                  sfl_truncation: int = SFL_TRUNCATION) -> OperatorSpec:
    if isinstance(kind, str):
        kind = OperatorKind(kind.lower())
    return OperatorSpec(kind=kind, s=s, domain=domain, sfl_truncation=sfl_truncation)


# ---------------------------------------------------------------------------
# Restricted fractional Laplacian on the ball (interval = 1-d ball)
# ---------------------------------------------------------------------------

def _boggio_constant(n: int, s: float) -> float:
    return gamma_fn(n / 2.0) / (2.0 ** (2 * s) * gamma_fn(s) ** 2 * pi ** (n / 2.0))


# incomplete-Beta terms: at the largest series variable, 1/2, the plain
# series reaches 2^-BETA_TERMS after BETA_TERMS terms
BETA_TERMS = 56
# about 1/4 the series variable stays within 1/4 of the centre and the
# singularity at 1 lies 3/4 away, so the re-centred terms fall like 3^-j:
# 36 of them reach the same 2^-BETA_TERMS
SHIFTED_TERMS = ceil(BETA_TERMS / log2(3))


@lru_cache(maxsize=None)
def _taylor_shift():
    """S_jk = C(k, j) 4^(j-k): sum_k c_k x^k = sum_j (S c)_j (x - 1/4)^j over
    the first 3 BETA_TERMS terms; the later terms add below 2^-200 to the
    first SHIFTED_TERMS shifted ones."""
    k = np.arange(3 * BETA_TERMS)
    j = np.arange(1, SHIFTED_TERMS)[:, None]
    # row j is row j - 1 times 4 (k - j + 1)/j; the factor is 0 at k = j - 1
    S = np.cumprod(np.vstack([0.25 ** k, 4.0 * (k - j + 1) / j]), axis=0)
    S.setflags(write=False)
    return S


def _expm1_ratio(e: float, L):
    """expm1(e L) / e, with its limit L at e = 0."""
    return np.expm1(e * L) / e if e else L


def _beta_sum(x, p: float, coeffs):
    """x^p times the polynomial in x - 1/4 with coefficients ``coeffs``
    (highest first), by Horner."""
    t = np.subtract(x, 0.25)
    acc = np.full(np.shape(t), coeffs[0])
    for c in coeffs[1:]:
        acc *= t
        acc += c
    del t
    acc *= x ** p
    return acc


def _beta_tail(w, a: float, high):
    """B(w; a, s) - 1/a from the Horner coefficients of its k >= 1 terms."""
    return _expm1_ratio(a, np.log(w)) + _beta_sum(w, a + 1.0, high)


@lru_cache(maxsize=None)
def _boggio_series(s: float, n: int):
    """Horner coefficients of B(x; p, q) = sum_k (1-q)_k/k! x^{p+k}/(p+k) at
    both ends of boggio_integral, as tuples, a = n/2 - s and K, cached per (s, n).

    boggio_integral is B(z; s, a) at z = rho/(1+rho), and K - _beta_tail(w)
    at w = 1/(1+rho).  Matching the two at rho = 1 gives K, which is
    Gamma(s)Gamma(a)/Gamma(n/2) - 1/a and stays finite at a = 0.

    Both polynomials are re-centred at x = 1/4 by a Taylor shift of their
    first 3 BETA_TERMS terms (_taylor_shift).  z and w lie in [0, 1/2], within 1/4
    of the centre, and the series are singular only at 1, so the shifted
    terms fall like 3^-j and SHIFTED_TERMS = 36 of them reach 2^-BETA_TERMS.
    """
    a = n / 2.0 - s
    k = np.arange(3 * BETA_TERMS)
    low = np.cumprod(np.r_[1.0, (k[:-1] + 1.0 - a) / (k[:-1] + 1.0)]) / (s + k)
    high = np.cumprod((k + 1.0 - s) / (k + 1.0)) / (a + k + 1.0)
    low, high = (tuple(np.sum(_taylor_shift() * c, 1)[::-1].tolist()) for c in (low, high))
    return low, high, a, float(_beta_sum(0.5, s, low) + _beta_tail(0.5, a, high))


def boggio_integral(rho, s: float, n: int):
    """int_0^rho t^{s-1} (1+t)^{-n/2} dt, vectorized in rho.

    One incomplete-Beta series, summed from the end of [0, inf] nearer
    rho (see _boggio_series), so its variable never exceeds 1/2.
    """
    low, high, a, K = _boggio_series(s, n)
    rho = np.asarray(rho, dtype=float)
    # each branch gets its own copy of its part of rho, and overwrites it
    return np.piecewise(rho, [rho <= 1.0],
                        [lambda v: _beta_sum(np.divide(v, 1.0 + v, out=v), s, low),
                         lambda v: K - _beta_tail(np.divide(1.0, 1.0 + v, out=v), a, high)])


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
    den = r * r * dist * dist
    # at a strong grading |x - y|^2 of two boundary nodes underflows to 0
    if np.any(den == 0):
        raise ValueError("|x - y|^2 underflows to 0 in Boggio's kernel: the grid's "
                         "grading is too strong for the kernel; take a smaller grading")
    rho = gap_x * gap_y / den
    # the series first, then its factors: no factor is held while it runs
    del den
    B = boggio_integral(rho, s, n)
    del rho
    return _scalar(_boggio_constant(n, s) * dist ** (2 * s - n) * B)


# ---------------------------------------------------------------------------
# Spectral fractional Laplacian on the interval
# ---------------------------------------------------------------------------

def sfl_eigenvalue(domain: DomainSpec, k) -> np.ndarray:
    """Dirichlet-Laplacian eigenvalues mu_k = (k pi / 2r)^2 on (-r, r)."""
    k = np.asarray(k, dtype=float)
    return (k * pi / (2.0 * domain.r)) ** 2


def sfl_eigenfunction(domain: DomainSpec, k, plus) -> np.ndarray:
    """L^2-normalized sine modes sin(k pi (r + x) / 2r) / sqrt(r), from
    plus = r + x, the distance to the left end -r.  A caller near -r passes
    the boundary distance there, since r + x formed from x loses its digits."""
    r = domain.r
    k = np.asarray(k, dtype=float)
    plus = np.asarray(plus, dtype=float)
    t = np.asarray(k * pi * plus / (2.0 * r))
    np.sin(t, out=t)
    t /= np.sqrt(r)
    return t


@lru_cache(maxsize=None)
def _zeta(p: float, m: int) -> complex:
    """zeta(p - m) over all real p - m != 1, via mpmath (cached)."""
    import mpmath

    return complex(mpmath.zeta(p - m))


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


def check_K1_bounds(op: OperatorSpec, x, y) -> tuple[float, float]:
    """Min and max of Boggio's G_0(x, y) divided by its two-sided (K1) comparison.

    The comparison is |x-y|^{2s-n} min(delta^s(x) delta^s(y) / |x-y|^{2s}, 1),
    and log(1 + delta^s(x) delta^s(y) / |x-y|^{2s}) in the logarithmic case
    n = 2s.  For n < 2s, G_0 stays bounded on the diagonal where that
    comparison goes to zero, so no two-sided bound holds: ValueError.
    """
    s, n, r = op.s, op.domain.n, op.domain.r
    if n < 2 * s:
        raise ValueError(f"(K1) is not two-sided for n = {n} < 2s = {2 * s}")
    ax, ay, dist = _radii_and_distance(op.domain, x, y)
    near = ((r - ax) * (r - ay)) ** s / dist ** (2 * s)
    comparison = np.log1p(near) if n == 2 * s else dist ** (2 * s - n) * np.minimum(near, 1.0)
    ratio = rfl_green_ball(op, x, y) / comparison
    return float(np.min(ratio)), float(np.max(ratio))
