import warnings
from math import gamma, pi

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad, quad_vec
from scipy.special import beta as beta_fn
from scipy.special import betainc

from nonlocal_eigen.discretize import (
    GridFunction,
    _interval_diag,
    apply_G0,
    as_values,
    assemble_green_matrix,
    rfl_green_radial,
    weighted_norm,
)
from nonlocal_eigen.geometry import build_grid, make_domain, sphere_area
from nonlocal_eigen.kernels import (
    green_function,
    make_operator,
    rfl_green_ball,
    rfl_green_from_gaps,
    sfl_eigenvalue,
)
from nonlocal_eigen.solver import check_max_principle, check_poincare
from nonlocal_eigen.spectral import eigendecompose, lambda_context

DOM = make_domain("interval", 1, 1.0)


@pytest.fixture(scope="module")
def grid():
    return build_grid(DOM, 64, grading=2.0)


def test_grid_function_validation(grid):
    with pytest.raises(ValueError):
        GridFunction(grid, np.zeros(3))
    with pytest.raises(ValueError):
        GridFunction(grid, np.full(grid.N, np.nan))
    gf = GridFunction(grid, np.ones(grid.N))
    np.testing.assert_array_equal(np.asarray(gf), 1.0)


def test_as_values_rejects_other_grid_of_same_size(grid):
    other = build_grid(DOM, grid.N, grading=1.0)
    with pytest.raises(ValueError, match="grid mismatch"):
        as_values(GridFunction(other, np.ones(grid.N)), grid)
    # a rebuilt grid with the same nodes and weights is the same grid
    twin = build_grid(DOM, grid.N, grading=2.0)
    np.testing.assert_array_equal(as_values(GridFunction(twin, np.ones(grid.N)), grid), 1.0)


def test_as_values_accepts_callable_and_array(grid):
    np.testing.assert_allclose(as_values(np.cos, grid), np.cos(grid.x))
    np.testing.assert_allclose(as_values(np.ones(grid.N), grid), 1.0)
    with pytest.raises(ValueError):
        as_values(np.ones(5), grid)


@pytest.mark.parametrize("kind,s", [("rfl", 0.75), ("sfl", 0.75), ("classical", 1.0)])
def test_matrix_symmetric(grid, kind, s):
    op = make_operator(kind, s, DOM, sfl_truncation=64)
    dk = assemble_green_matrix(op, grid)
    np.testing.assert_allclose(dk.matrix, dk.matrix.T, atol=1e-14)
    if kind == "sfl":
        return
    # the mirrored upper triangle is the kernel at every pair, bit for bit,
    # formed from boundary distances: the classical (r + x_i)(r - x_j) / 2r
    # for x_i < x_j from grid.sides, Boggio's from the gaps delta (2r - delta)
    X, Y = np.meshgrid(grid.x, grid.x, indexing="ij")
    off = ~np.eye(grid.N, dtype=bool)
    if kind == "classical":
        plus, minus = grid.sides
        idx = np.arange(grid.N)
        lo, hi = np.minimum.outer(idx, idx)[off], np.maximum.outer(idx, idx)[off]
        ref = plus[lo] * minus[hi] / 2
    else:
        gap = grid.delta * (2 - grid.delta)
        GX, GY = np.meshgrid(gap, gap, indexing="ij")
        ref = rfl_green_from_gaps(op, GX[off], GY[off], np.abs(X - Y)[off])
    np.testing.assert_array_equal(dk.matrix[off], ref)
    # away from the boundary r -+ x does not cancel: the coordinate form agrees
    far = off & (grid.delta[:, None] >= 0.1) & (grid.delta[None, :] >= 0.1)
    np.testing.assert_allclose(dk.matrix[far], green_function(op, X[far], Y[far]),
                               rtol=1e-13, atol=0)


def test_classical_row_action_exact(grid):
    # -u'' = 1 on (-1,1) has solution (1 - x^2)/2
    op = make_operator("classical", 1.0, DOM)
    dk = assemble_green_matrix(op, grid)
    u = apply_G0(dk, np.ones(grid.N)).values
    np.testing.assert_allclose(u, 0.5 * (1.0 - grid.x**2), atol=5e-4)


def test_rfl_row_action_explicit_solution():
    # (-d^2)^s u = 1 with u = (1-x^2)^s / (Gamma(1+2s) * something)?  Use
    # the known value at the origin instead: u(0) = Gamma(1/2) /
    # (2^{2s} Gamma(s+1/2) Gamma(1+s)) for the torsion function on (-1,1).
    s = 0.75
    grid = build_grid(DOM, 128, grading=2.0)
    op = make_operator("rfl", s, DOM)
    dk = assemble_green_matrix(op, grid)
    u = apply_G0(dk, np.ones(grid.N)).values
    u0 = np.interp(0.0, grid.x, u)
    expected = gamma(0.5) / (2.0 ** (2 * s) * gamma(s + 0.5) * gamma(1.0 + s))
    assert u0 == pytest.approx(expected, rel=1e-4)
    # and the full profile matches (1 - x^2)^s times that constant
    np.testing.assert_allclose(u, expected * (1 - grid.x**2) ** s, atol=1e-3)


def _torsion(s, x):
    """Solution of (-d^2)^s u = 1 on (-1, 1) with zero exterior data."""
    return gamma(0.5) * (1 - x**2) ** s / (2.0 ** (2 * s) * gamma(s + 0.5) * gamma(1.0 + s))


@pytest.mark.parametrize("s", [0.1, 0.25, 0.4])
def test_rfl_small_s_assembles_without_warning(s):
    # an adaptive diagonal once sampled y == x_i here (s = 0.25) or warned (s = 0.1)
    grid = build_grid(DOM, 128, grading=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dk = assemble_green_matrix(make_operator("rfl", s, DOM), grid)
    u = apply_G0(dk, np.ones(grid.N)).values
    exact = _torsion(s, grid.x)
    assert np.max(np.abs(u - exact)) / np.max(exact) < 1e-2


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75, 0.99])
def test_rfl_diagonal_matches_adaptive_reference(s):
    grid = build_grid(DOM, 32, grading=2.0)
    op = make_operator("rfl", s, DOM)
    diag = np.diag(assemble_green_matrix(op, grid).matrix)
    ref = np.empty(grid.N)
    with warnings.catch_warnings():
        # the reference asks quad for more than roundoff allows at some cells
        warnings.simplefilter("ignore", IntegrationWarning)
        for i, xi in enumerate(grid.x):
            f = lambda y: rfl_green_ball(op, xi, y)
            ref[i] = sum(quad(f, a, b, epsabs=0, epsrel=1e-13, limit=400)[0]
                         for a, b in ((xi - grid.half[0, i], xi), (xi, xi + grid.half[1, i])))
    np.testing.assert_allclose(diag, ref / grid.w, rtol=1e-8, atol=0)


def test_rfl_diagonal_continuous_across_log_case():
    # the singular split has no s = 1/2 branch: at s = 1/2 +- 1e-12 the
    # diagonal moves by the genuine s-dependence only (about 2.5e-11 here)
    grid = build_grid(DOM, 64, grading=2.0)
    half = _interval_diag(make_operator("rfl", 0.5, DOM), grid)
    for s in (0.5 - 1e-12, 0.5 + 1e-12):
        np.testing.assert_allclose(_interval_diag(make_operator("rfl", s, DOM), grid), half,
                                   rtol=1e-10, atol=0)


@pytest.mark.parametrize("s", [0.1, 0.5, 0.75, 0.99])
def test_rfl_matrix_with_a_node_at_roundoff_from_the_boundary(s):
    # grading 4, N = 512 puts node 0 at delta = 8.6e-16, where x_0 - d
    # rounds onto x_0; the diagonal rule works from delta and d instead
    grid = build_grid(DOM, 512, grading=4.0)
    assert grid.delta[0] < 1e-15
    K = assemble_green_matrix(make_operator("rfl", s, DOM), grid).matrix
    assert np.all(np.isfinite(K)) and np.all(K > 0)


def test_classical_diagonal_is_the_exact_cell_mean():
    grid = build_grid(DOM, 32, grading=2.0)
    diag = np.diag(assemble_green_matrix(make_operator("classical", 1.0, DOM), grid).matrix)
    (plus, minus), (hl, hr), r = grid.sides, grid.half, DOM.r
    # int of (r - max)(r + min) / 2r over [x - hl, x] and [x, x + hr],
    # with r + x and r - x from delta
    left = minus * (plus * hl - hl**2 / 2) / (2 * r)
    right = plus * (minus * hr - hr**2 / 2) / (2 * r)
    np.testing.assert_allclose(diag, (left + right) / grid.w, rtol=1e-14, atol=0)


@settings(max_examples=30, deadline=None)
@given(s=st.floats(0.02, 0.99), N=st.integers(16, 96),
       grading=st.sampled_from([1.0, 1.5, 2.0, 3.0]))
def test_rfl_matrix_properties(s, N, grading):
    # symmetric, positive and finite, with a positive torsion row sum; not
    # asserted definite: the smallest eigenvalue of W^{1/2} K W^{1/2} falls
    # to roundoff size on strongly graded grids near s = 1.  The maximum
    # principle below lambda_1 and the Poincare inequality hold on the
    # same draws.
    grid = build_grid(DOM, N, grading=grading)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dk = assemble_green_matrix(make_operator("rfl", s, DOM), grid)
    K = dk.matrix
    assert np.array_equal(K, K.T)
    assert np.all(np.isfinite(K)) and np.all(K > 0)
    assert np.all(K @ grid.w > 0)
    sd = eigendecompose(dk)
    for lam in (0.0, 0.9 * sd.lam[0]):
        rep = check_max_principle(sd, lambda_context(sd, lam))
        assert rep.n_failures == 0, (lam, rep.worst_margin)
    rep = check_poincare(sd, dk)
    assert rep.n_failures == 0, rep.worst_margin


def test_sfl_matrix_diagonalizes():
    # acting on the second sine mode returns it scaled by mu_2^{-s};
    # uniform panels keep the mode quadrature sharp
    grid = build_grid(DOM, 64, grading=1.0)
    op = make_operator("sfl", 0.75, DOM, sfl_truncation=64)
    dk = assemble_green_matrix(op, grid)
    phi2 = np.sin(2 * pi * (grid.x + 1) / 2)
    out = apply_G0(dk, phi2).values
    mu2 = float(sfl_eigenvalue(DOM, 2))
    np.testing.assert_allclose(out, phi2 * mu2 ** (-op.s), atol=1e-6)


def test_operator_grid_domain_mismatch(grid):
    other = make_operator("rfl", 0.5, make_domain("interval", 1, 2.0))
    with pytest.raises(ValueError):
        assemble_green_matrix(other, grid)


def test_weighted_norms(grid):
    f = np.ones(grid.N)
    assert weighted_norm(f, grid, "L1_delta", alpha=0.0) == pytest.approx(2.0)
    assert weighted_norm(f, grid, "L2") == pytest.approx(np.sqrt(2.0))
    assert weighted_norm(f, grid, "Linf") == 1.0
    assert weighted_norm(2 * f, grid, "Lp", p=4.0) == pytest.approx(2.0 * 2.0**0.25)
    with pytest.raises(ValueError):
        weighted_norm(f, grid, "bogus")
    with pytest.raises(ValueError):
        weighted_norm(f, grid, "L1_delta", alpha=-2.0, gamma=0.75)


@pytest.mark.parametrize("n", [2, 3])
def test_ball_matrix_small(n):
    dom = make_domain("ball", n, 1.0)
    grid = build_grid(dom, 24, grading=2.0)
    op = make_operator("rfl", 0.75, dom)
    dk = assemble_green_matrix(op, grid)
    assert np.all(dk.matrix >= 0)
    u = apply_G0(dk, np.ones(grid.N)).values
    # torsion function of the RFL on the unit ball:
    # u(x) = Gamma(n/2) (1-|x|^2)^s / (2^{2s} Gamma(s+n/2) Gamma(1+s))
    s = 0.75
    expected = gamma(n / 2) * (1 - grid.x**2) ** s / (
        2.0 ** (2 * s) * gamma(s + n / 2) * gamma(1 + s))
    # measured 1.07e-3 (n = 2) and 1.08e-3 (n = 3)
    np.testing.assert_allclose(u, expected, atol=5e-3)


def _theta_reference(op, delta_x, delta_y, d):
    """The angular mean by quad on dyadic theta-panels [pi 2^{-k-1}, pi 2^{-k}],
    down to a few halvings below the peak width d / sqrt(rho_x rho_y)."""
    r, n = op.domain.r, op.domain.n
    rr = (r - delta_x) * (r - delta_y)
    gaps = delta_x * (2 * r - delta_x), delta_y * (2 * r - delta_y)

    def f(theta):
        t = np.sqrt(d * d + 4.0 * rr * np.sin(theta / 2) ** 2)
        return float(rfl_green_from_gaps(op, *gaps, t)) * np.sin(theta) ** (n - 2)

    levels = max(0, int(np.log2(np.pi * np.sqrt(rr) / d))) + 4
    edges = np.r_[0.0, np.pi * 2.0 ** -np.arange(levels, -1, -1)]
    total = sum(quad(f, a, b, epsabs=0, epsrel=1e-13, limit=200)[0]
                for a, b in zip(edges[:-1], edges[1:]))
    return total * sphere_area(n - 1) / sphere_area(n)


@pytest.mark.parametrize("n,s", [(2, 0.75), (3, 0.25)])
def test_ball_radial_kernel_matches_split_quad(n, s):
    # (delta_x, delta_y, d) on the unit ball: |rho_x - rho_y| of 1e-9 and
    # 1e-12 mid-radius and at the boundary, radii near 0 and near r
    pairs = np.array([(0.5, 0.5 - 1e-9, 1e-9), (0.5, 0.5 - 1e-12, 1e-12),
                      (1e-9, 1e-9 - 1e-12, 1e-12), (1e-6, 0.6, 0.6 - 1e-6),
                      (1 - 1e-6, 1 - 3e-6, 2e-6), (1 - 1e-6, 1e-9, 1 - 1e-6 - 1e-9),
                      (0.3, 0.7, 0.4)])
    op = make_operator("rfl", s, make_domain("ball", n, 1.0))
    got = rfl_green_radial(op, *pairs.T)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        ref = [_theta_reference(op, *p) for p in pairs]
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 0.75, 0.99])
def test_ball_diagonal_matches_adaptive_reference(n, s):
    # the cell mean of the radial kernel by adaptive quad_vec over every
    # half-cell at once, in d = h I_tau(m, m): the regularized incomplete
    # Beta function smooths d^{2s-1} at the node and delta^s at r
    dom = make_domain("ball", n, 1.0)
    grid = build_grid(dom, 8, grading=2.0)
    op = make_operator("rfl", s, dom)
    N, dl = grid.N, grid.delta
    node = np.r_[np.arange(N), np.arange(N)]
    h = np.r_[grid.half[0], grid.half[1]]
    far = np.r_[dl + h[:N], dl - h[N:]]     # delta at the far end of each half-cell
    far[-1] = 0.0
    side = np.r_[-np.ones(N), np.ones(N)]
    m = int(np.ceil(1 / s)) + 1

    def mean(tau):
        d, b = h * betainc(m, m, tau), h * betainc(m, m, 1 - tau)
        delta_y = far + side * b
        jac = (tau * (1 - tau)) ** (m - 1) / beta_fn(m, m)
        return rfl_green_radial(op, dl[node], delta_y, d) * sphere_area(n) \
            * (1 - delta_y) ** (n - 1) * jac

    val, _ = quad_vec(mean, 0.0, 1.0, epsabs=0, epsrel=1e-10, norm="max")
    ref = np.bincount(node, h * val, N) / grid.w
    diag = np.diag(assemble_green_matrix(op, grid).matrix)
    np.testing.assert_allclose(diag, ref, rtol=1e-7 if s < 0.25 else 1e-8, atol=0)


def test_ball_matrix_at_small_s_stays_finite():
    # 53/(2s) levels toward the node would take d below where d^{2s-n} overflows
    dom = make_domain("ball", 3, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        K = assemble_green_matrix(make_operator("rfl", 0.02, dom), build_grid(dom, 8)).matrix
    assert np.all(np.isfinite(K)) and np.all(K > 0)


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_rfl_offdiagonal_near_the_boundary_matches_mpmath(s):
    # grading 4, N = 512: node 0 sits at delta = 8.6e-16, where r^2 - x^2
    # formed from coordinates loses every digit; the entry is Boggio's
    # kernel at the gaps delta (2r - delta), summed here at 30 digits
    grid = build_grid(DOM, 512, grading=4.0)
    K = assemble_green_matrix(make_operator("rfl", s, DOM), grid).matrix
    with mpmath.workdps(30):
        gap = [mpmath.mpf(d) * (2 - mpmath.mpf(d)) for d in grid.delta[:2]]
        dist = mpmath.mpf(grid.x[1]) - mpmath.mpf(grid.x[0])
        rho = gap[0] * gap[1] / dist**2
        C = 1 / (4 ** mpmath.mpf(s) * mpmath.gamma(s) ** 2)    # Gamma(1/2) = sqrt(pi)
        ref = C * dist ** (2 * s - 1) * mpmath.betainc(s, 0.5 - mpmath.mpf(s), 0, rho / (1 + rho))
    assert K[0, 1] == pytest.approx(float(ref), rel=1e-12, abs=0)


def test_classical_offdiagonal_near_the_boundary_matches_mpmath():
    # grading 4, N = 512: r + x_0 formed from coordinates kept no digit of
    # delta_0 (K[0, 1] was 3.9e-2 off); every entry against (r + x_i)(r - x_j) / 2r
    # formed from delta at 30 digits
    grid = build_grid(DOM, 512, grading=4.0)
    K = assemble_green_matrix(make_operator("classical", 1.0, DOM), grid).matrix
    with mpmath.workdps(30):
        d = [mpmath.mpf(v) for v in grid.delta]
        plus = [dv if x < 0 else 2 - dv for dv, x in zip(d, grid.x)]
        minus = [2 - dv if x < 0 else dv for dv, x in zip(d, grid.x)]
        i, j = np.triu_indices(grid.N, 1)
        ref = np.array([float(plus[a] * minus[b] / 2) for a, b in zip(i, j)])
    np.testing.assert_allclose(K[i, j], ref, rtol=1e-14, atol=0)


@pytest.mark.parametrize("s", [0.5, 0.75])
@pytest.mark.parametrize("N,grading,tol", [(256, 2.0, 1e-12), (512, 4.0, 1e-8)])
def test_interval_diagonal_is_mirror_symmetric(s, N, grading, tol):
    # the grid is symmetric about 0, so the cell means must be too; with
    # half-cells cut from coordinates they were up to 6.2e-10 and 7.0e-2 apart
    grid = build_grid(DOM, N, grading=grading)
    diag = _interval_diag(make_operator("rfl", s, DOM), grid)
    np.testing.assert_allclose(diag, diag[::-1], rtol=tol, atol=0)
