from math import gamma, log, pi, sqrt

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kernel_oracles import (
    classical_green_interval,
    green_function,
    sfl_green_interval,
    sfl_martin_series_abel,
)

from nonlocal_eigen import kernels
from nonlocal_eigen.geometry import build_grid, make_domain
from nonlocal_eigen.kernels import (
    boggio_integral,
    check_K1_bounds,
    make_operator,
    martin_kernel,
    polylog_unit_circle,
    rfl_green_ball,
    rfl_green_from_gaps,
    sfl_eigenvalue,
)

INTERVAL = make_domain("interval", 1, 1.0)

# oracle values computed with 30-digit adaptive quadrature of
# int_0^rho t^{s-1} (1+t)^{-n/2} dt, frozen
BOGGIO_ORACLE = [
    (1, 0.25, 0.3, 2.8810182534831997),
    (1, 0.75, 2.0, 1.7135451078885532),
    (2, 0.6, 5.0, 2.0573622976895066),
    (3, 0.9, 1e8, 1.7956689474972045),
    (1, 0.5, 1.0, 1.762747174039086),
]

# Im Li_p(e^{i a}) frozen from a 30-digit polylog implementation
POLYLOG_ORACLE = [
    (0.5, 1.0, 1.0439821028491615),
    (0.2, 2.5, 0.19964106070706042),
    (0.9, 0.3, 1.5534725171156738),
]


@pytest.mark.parametrize("n,s,rho,expected", BOGGIO_ORACLE)
def test_boggio_integral_oracle(n, s, rho, expected):
    assert boggio_integral(rho, s, n) == pytest.approx(expected, rel=1e-8)


def test_boggio_integral_matches_mpmath_betainc():
    # int_0^rho t^{s-1}(1+t)^{-n/2} dt = B(rho/(1+rho); s, n/2 - s), the
    # incomplete Beta function (not regularized), at 30 digits; s = 1/2 +- eps
    # straddles the logarithmic case n = 2s = 1.  On [0.5, 2] both series
    # variables reach 1/2, the far edge of the re-centred series.  The worst
    # error measured is 1.44e-15 (n = 1, s = 0.99), before and after the
    # series was re-centred at 1/4; rtol allows three times that, for other
    # platforms' libm
    rho = np.r_[np.logspace(-10, 12, 45), np.linspace(0.5, 2.0, 31)]
    with mpmath.workdps(30):
        for n in (1, 2, 3):
            for s in (0.02, 0.1, 0.25, 0.5 - 1e-9, 0.5, 0.5 + 1e-12, 0.75, 0.99):
                ref = np.array([float(mpmath.betainc(s, mpmath.mpf(n) / 2 - s, 0,
                                                     mpmath.mpf(r) / (1 + mpmath.mpf(r))))
                                for r in rho])
                np.testing.assert_allclose(boggio_integral(rho, s, n), ref,
                                           rtol=3 * 1.5e-15, atol=0)
                scalar = [boggio_integral(float(r), s, n) for r in rho[::9]]
                np.testing.assert_allclose(scalar, ref[::9], rtol=3 * 1.5e-15, atol=0)


@pytest.mark.parametrize("n,s", [(1, 0.02), (1, 0.5), (1, 0.99), (2, 0.25), (3, 0.75)])
def test_boggio_series_is_the_plain_series_recentred(n, s):
    # about 1/4 the terms fall like 3^-j, so ceil(56 / log2 3) = 36 reach
    # the 2^-56 of 56 plain terms at 1/2; both polynomials, summed by
    # Horner in x - 1/4, match the plain 168-term series summed at 40
    # digits to 4 ulp at 64 points of [0, 1/2] (measured at most 2)
    low, high, a, _ = kernels._boggio_series(s, n)
    assert kernels.SHIFTED_TERMS == 36 == len(low) == len(high)
    x = np.linspace(0.0, 0.5, 64)
    with mpmath.workdps(40):
        sm, am = mpmath.mpf(s), mpmath.mpf(n) / 2 - mpmath.mpf(s)
        # sum_k (1-q)_k/k! x^k/(p+k): (p, q) = (s, a) at the low end; the
        # high end's polynomial holds the terms k >= 1 of (p, q) = (a, s)
        plain = [[mpmath.rf(1 - am, k) / mpmath.factorial(k) / (sm + k) for k in range(168)],
                 [mpmath.rf(1 - sm, k + 1) / mpmath.factorial(k + 1) / (am + k + 1)
                  for k in range(168)]]
        for coeffs, c in zip((low, high), plain):
            ref = np.array([float(mpmath.polyval(c[::-1], mpmath.mpf(v))) for v in x])
            got = kernels._beta_sum(x, 0.0, coeffs)
            assert np.all(np.abs(got - ref) <= 4 * np.spacing(np.abs(ref)))


def test_boggio_integral_vectorized_and_monotone():
    rho = np.logspace(-3, 12, 40)
    vals = np.asarray(boggio_integral(rho, 0.3, 2))
    assert np.all(np.diff(vals) > 0)
    assert np.all(np.isfinite(vals))


@pytest.mark.parametrize("p,a,expected", POLYLOG_ORACLE)
def test_polylog_unit_circle_oracle(p, a, expected):
    assert np.imag(polylog_unit_circle(p, a)) == pytest.approx(expected, rel=1e-12)


def test_polylog_unit_circle_raises_when_unconverged():
    # near |alpha| = 2 pi the series is still far off at order 80
    with pytest.raises(RuntimeError, match="did not converge"):
        polylog_unit_circle(0.5, 6.2)
    for alpha in (0.0, 2 * pi):
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 2 pi\)"):
            polylog_unit_circle(0.5, alpha)


def test_operator_validation():
    with pytest.raises(ValueError):
        make_operator("rfl", 1.2, INTERVAL)
    with pytest.raises(ValueError):
        make_operator("sfl", 0.4, INTERVAL)  # SFL needs s > 1/2
    with pytest.raises(ValueError):
        make_operator("sfl", 0.75, make_domain("ball", 2, 1.0))
    with pytest.raises(ValueError):
        make_operator("classical", 0.9, INTERVAL)


def test_exponents():
    rfl = make_operator("rfl", 0.6, INTERVAL)
    assert rfl.gamma == pytest.approx(0.6)
    assert rfl.b == pytest.approx(1.0 - 0.6)
    sfl = make_operator("sfl", 0.6, INTERVAL)
    assert sfl.gamma == 1.0
    assert sfl.b == pytest.approx(2.0 - 1.2)
    cla = make_operator("classical", 1.0, INTERVAL)
    assert cla.b == 0.0


def test_rfl_green_closed_form_half():
    # s = 1/2 on (-1,1): G(0, 1/2) = ln(2 + sqrt 3) / pi
    op = make_operator("rfl", 0.5, INTERVAL)
    assert float(rfl_green_ball(op, 0.0, 0.5)) == pytest.approx(
        log(2.0 + sqrt(3.0)) / pi, abs=1e-14)


@settings(max_examples=50, deadline=None)
@given(x=st.floats(-0.99, 0.99), y=st.floats(-0.99, 0.99),
       s=st.floats(0.1, 0.95))
def test_rfl_green_symmetric_positive(x, y, s):
    if abs(x - y) < 1e-8:
        return
    op = make_operator("rfl", s, INTERVAL)
    gxy = float(rfl_green_ball(op, x, y))
    gyx = float(rfl_green_ball(op, y, x))
    assert gxy == gyx
    assert gxy > 0


def test_rfl_green_on_the_diagonal_is_a_numerical_fault():
    # an ArithmeticError, which the CLI reports as exit 3, not a ValueError (exit 2)
    op = make_operator("rfl", 0.75, INTERVAL)
    with pytest.raises(ArithmeticError, match="diagonal"):
        rfl_green_ball(op, 0.3, np.array([0.1, 0.3]))
    with pytest.raises(ValueError, match="outside"):
        rfl_green_ball(op, 0.3, 1.5)
    with pytest.raises(ValueError, match="requires an RFL operator"):
        rfl_green_ball(make_operator("sfl", 0.75, INTERVAL), 0.3, 0.1)


def test_rfl_green_rejects_a_distance_whose_square_underflows():
    # |x - y|^2 = 0 at |x - y| = 1e-200, as between the outermost nodes of a
    # strongly graded grid: a configuration error (exit 2) where the quotient
    # of the gap product by it was 0/0; an exact x = y stays a numerical fault
    op = make_operator("rfl", 0.5, INTERVAL)
    with pytest.raises(ValueError, match="grading is too strong"):
        rfl_green_from_gaps(op, np.full(2, 1e-300), np.full(2, 1e-300), np.array([1e-200, 0.5]))
    with pytest.raises(ZeroDivisionError, match="diagonal"):
        rfl_green_from_gaps(op, 0.5, 0.5, 0.0)


def test_boggio_series_cache_is_read_only():
    low, high, _, _ = kernels._boggio_series(0.5, 1)
    assert type(low) is tuple and type(high) is tuple


def test_rfl_green_vanishes_at_boundary():
    op = make_operator("rfl", 0.75, INTERVAL)
    vals = np.asarray(rfl_green_ball(op, np.array([0.999, 0.9999]), 0.0))
    assert vals[1] < vals[0] < 1e-2


def test_classical_green_interval():
    dom = make_domain("interval", 1, 1.0)
    # (r - max)(r + min)/2r at x=0.5, y=-0.5: (0.5)(0.5)/2 = 0.125
    assert float(classical_green_interval(dom, 0.5, -0.5)) == pytest.approx(0.125)
    assert float(classical_green_interval(dom, -0.5, 0.5)) == pytest.approx(0.125)


def test_rfl_martin_kernel_interval_explicit():
    # D_s G(z,y) = Gamma(1/2) (1-y^2)^s / (2^s s Gamma(s)^2 pi^{1/2} |z-y|)
    op = make_operator("rfl", 0.75, INTERVAL)
    s, y = 0.75, 0.3
    expected = gamma(0.5) * (1 - y * y) ** s / (
        2.0**s * s * gamma(s) ** 2 * pi**0.5 * abs(1.0 - y))
    assert float(martin_kernel(op, 1.0, y)) == pytest.approx(expected, rel=1e-13)


def test_poisson_kernel_interval_is_harmonic_extension_of_one():
    op = make_operator("classical", 1.0, INTERVAL)
    y = np.linspace(-0.9, 0.9, 7)
    total = np.asarray(martin_kernel(op, 1.0, y)) + np.asarray(martin_kernel(op, -1.0, y))
    np.testing.assert_allclose(total, 1.0, rtol=1e-14)


def test_sfl_green_series_matches_eigen_action():
    op = make_operator("sfl", 0.8, INTERVAL, sfl_truncation=4000)
    # integrating the kernel against phi_2 must give phi_2 / mu_2^s
    x = np.array([-0.4, 0.1, 0.62])
    y = np.linspace(-1, 1, 4001)[1:-1]
    phi2 = np.sin(2 * pi * (y + 1) / 2)
    vals = [np.trapezoid(np.asarray(sfl_green_interval(op, np.full_like(y, xi), y)) * phi2, y)
            for xi in x]
    mu2 = float(sfl_eigenvalue(INTERVAL, 2))
    expected = np.sin(2 * pi * (x + 1) / 2) * mu2 ** (-op.s)
    np.testing.assert_allclose(vals, expected, atol=2e-7)


def _sfl_green_closed_form(op, x, y):
    """(1/2r)(2r/pi)^{2s} [Re Li_2s(e^{i(a-b)}) - Re Li_2s(e^{i(a+b)})], a = pi (x+r)/2r,
    the M -> infinity limit of the sine series; each angle is reflected into [0, pi]."""
    r, s = op.domain.r, op.s

    def re_li(theta):
        theta = np.abs(theta)
        return np.real(polylog_unit_circle(2 * s, np.where(theta > pi, 2 * pi - theta, theta)))

    a, b = pi * (x + r) / (2 * r), pi * (y + r) / (2 * r)
    return (2 * r / pi) ** (2 * s) / (2 * r) * (re_li(a - b) - re_li(a + b))


@pytest.mark.parametrize("s", [0.6, 0.75, 0.9])
def test_sfl_green_series_matches_closed_form(s):
    # the polylog expansion holds for the non-integer order 2s > 1 as well
    assert polylog_unit_circle(2 * s, 2.0)[0] == pytest.approx(
        complex(mpmath.polylog(2 * s, mpmath.expj(2))), rel=1e-13)
    grid = build_grid(INTERVAL, 32, grading=2.0)
    X, Y = np.meshgrid(grid.x, grid.x, indexing="ij")
    apart = np.abs(X - Y) > 1e-3
    x, y = X[apart], Y[apart]
    exact = _sfl_green_closed_form(make_operator("sfl", s, INTERVAL), x, y)
    for M in (256, 1024, 4096):
        op = make_operator("sfl", s, INTERVAL, sfl_truncation=M)
        # the series tail, the bound assemble_green_matrix allows below zero
        tail = (pi / 2) ** (-2 * s) * M ** (1 - 2 * s) / (2 * s - 1)
        assert np.max(np.abs(sfl_green_interval(op, x, y) - exact)) < tail


def test_sfl_martin_kernel_matches_abel_sum():
    op = make_operator("sfl", 0.75, INTERVAL)
    y = np.array([-0.7, -0.2, 0.4, 0.85])
    exact = np.asarray(martin_kernel(op, 1.0, y))
    # Richardson extrapolation of the Abel sums in (1 - q)
    qs = [0.995, 0.9975]
    a1 = np.asarray(sfl_martin_series_abel(op, 1.0, y, qs[0]))
    a2 = np.asarray(sfl_martin_series_abel(op, 1.0, y, qs[1]))
    extrap = 2 * a2 - a1
    np.testing.assert_allclose(exact, extrap, rtol=5e-4)
    assert np.all(exact > 0)


def test_dispatchers():
    op = make_operator("rfl", 0.5, INTERVAL)
    assert float(green_function(op, 0.0, 0.5)) == pytest.approx(
        float(rfl_green_ball(op, 0.0, 0.5)))
    opc = make_operator("classical", 1.0, INTERVAL)
    # (r^2 - y^2) / (|S^0| r |z - y|) = 1/2 at y = 0
    assert float(martin_kernel(opc, 1.0, 0.0)) == pytest.approx(0.5)


@pytest.mark.parametrize("kind,s,n", [("rfl", 0.75, 1), ("sfl", 0.75, 1), ("classical", 1.0, 1),
                                      ("rfl", 0.75, 3), ("classical", 1.0, 3)])
def test_martin_kernel_rejects_an_interior_z(kind, s, n):
    dom = make_domain("interval" if n == 1 else "ball", n, 1.0)
    z = 0.5 if n == 1 else np.array([0.5, 0.0, 0.0])
    op = make_operator(kind, s, dom)
    with pytest.raises(ValueError, match="boundary point"):
        martin_kernel(op, z, 0.0 * z)
    # the boundary point 2 z, and y = z
    with pytest.raises(ValueError, match="requested at y = z"):
        martin_kernel(op, 2 * z, 2 * z)


def test_k1_bounds_sane():
    # n > 2s: two-sided on pairs down to |x - y| = 1e-6
    rng = np.random.default_rng(3)
    x = rng.uniform(-0.9, 0.9, 300)
    y = x + 10.0 ** rng.uniform(-6, -1, 300)
    lo, hi = check_K1_bounds(make_operator("rfl", 0.25, INTERVAL), x, y)
    assert 0 < lo and hi / lo < 3
    # n < 2s: G stays bounded on the diagonal, where the comparison vanishes
    # (G / comparison is 2.2 at |x - y| = 1e-1 and 941 at 1e-6 for s = 0.75)
    with pytest.raises(ValueError, match="not two-sided"):
        check_K1_bounds(make_operator("rfl", 0.75, INTERVAL), x, y)


def test_k1_bounds_log_case():
    # n = 2s = 1: G grows like log(1/|x - y|) on the diagonal, where the power
    # comparison min(., 1) stays at 1; the logarithmic one tracks it
    d = 10.0 ** -np.arange(1.0, 9.0)
    lo, hi = check_K1_bounds(make_operator("rfl", 0.5, INTERVAL), 0.0 * d, d)
    assert 0 < lo and hi / lo < 2
