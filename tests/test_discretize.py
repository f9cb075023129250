from math import pi

import numpy as np
import pytest

from nonlocal_eigen.discretize import (
    GridFunction,
    apply_G0,
    as_values,
    assemble_green_matrix,
    weighted_norm,
)
from nonlocal_eigen.geometry import build_grid, make_domain
from nonlocal_eigen.kernels import green_function, make_operator, sfl_eigenvalue

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
    if kind != "sfl":
        # the mirrored upper triangle is the kernel at every pair, bit for bit
        X, Y = np.meshgrid(grid.x, grid.x, indexing="ij")
        off = ~np.eye(grid.N, dtype=bool)
        np.testing.assert_array_equal(dk.matrix[off], green_function(op, X[off], Y[off]))


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
    from math import gamma
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


def test_ball_matrix_small():
    dom = make_domain("ball", 2, 1.0)
    grid = build_grid(dom, 24, grading=2.0)
    op = make_operator("rfl", 0.75, dom)
    dk = assemble_green_matrix(op, grid)
    assert np.all(dk.matrix >= 0)
    u = apply_G0(dk, np.ones(grid.N)).values
    # torsion function of the RFL on the unit ball:
    # u(x) = Gamma(n/2) (1-|x|^2)^s / (2^{2s} Gamma(s+n/2) Gamma(1+s))
    from math import gamma
    s, n = 0.75, 2
    expected = gamma(n / 2) * (1 - grid.x**2) ** s / (
        2.0 ** (2 * s) * gamma(s + n / 2) * gamma(1 + s))
    np.testing.assert_allclose(u, expected, atol=5e-3)
