from math import pi

import numpy as np
import pytest

from nonlocal_eigen.geometry import build_grid, make_domain
from nonlocal_eigen.limits import (
    boundary_exponent_fit,
    large_solution_limit_s,
    make_family,
    resolvent_convergence_s,
    spectral_convergence_s,
)

DOM = make_domain("interval", 1, 1.0)


@pytest.fixture(scope="module")
def grid():
    return build_grid(DOM, 64, grading=1.0)


def test_sfl_spectral_convergence(grid):
    fam = make_family("sfl", DOM, 64)
    rep = spectral_convergence_s(fam, [0.7, 0.8, 0.9, 0.99], 3, grid)
    # lambda_1(s) = ((pi/2)^2)^s analytically
    np.testing.assert_allclose(
        rep.lam1, ((pi / 2) ** 2) ** rep.s_list, rtol=1e-6)
    assert rep.monotone["omega_decreasing"]
    assert rep.monotone["lam1_err_decreasing"]
    # eigenfunction alignment approaches 1
    assert rep.alignment[-1][0] > 0.999
    np.testing.assert_allclose(rep.b, 2.0 - 2.0 * rep.s_list)


def test_ladder_validation(grid):
    fam = make_family("sfl", DOM, 64)
    with pytest.raises(ValueError):
        spectral_convergence_s(fam, [], 3, grid)
    with pytest.raises(ValueError):
        spectral_convergence_s(fam, [0.9, 0.7], 3, grid)
    with pytest.raises(ValueError):
        spectral_convergence_s(fam, [0.3, 0.7], 3, grid)


def test_resolvent_convergence(grid):
    fam = make_family("sfl", DOM, 64)
    rep = resolvent_convergence_s(fam, [0.7, 0.9, 0.99], 0.0, np.ones(grid.N), grid)
    assert rep.monotone["sol_dist_decreasing"]
    assert rep.sol_dist[-1] < 0.02


def test_resolvent_convergence_between_eigenvalues(grid):
    # a regular lambda between lambda_1(1) and lambda_2(1) still converges
    fam = make_family("sfl", DOM, 64)
    lam = 0.5 * ((pi / 2) ** 2 + pi**2)
    rep = resolvent_convergence_s(fam, [0.8, 0.9, 0.99], lam, np.cos(grid.x), grid)
    assert rep.monotone["sol_dist_decreasing"]


def test_large_solution_limit_rfl():
    grid = build_grid(DOM, 64, grading=2.0)
    fam = make_family("rfl", DOM)
    rep = large_solution_limit_s(fam, [0.7, 0.9, 0.99], 0.0, None, 1.0, grid)
    assert rep.monotone["sol_dist_decreasing"]
    assert rep.monotone["fit_to_zero"]
    # boundary exponent of M(1) is s - 1 exactly
    np.testing.assert_allclose(rep.boundary_fit, rep.s_list - 1.0, atol=1e-3)
    # interior values stay bounded along the ladder
    assert np.max(rep.sup_K) < 2.0
    rows = rep.rows()
    assert rows[0]["s"] == pytest.approx(0.7)
    assert "boundary_fit" in rows[0]


def test_boundary_exponent_fit_on_power():
    grid = build_grid(DOM, 64, grading=2.0)
    v = grid.delta ** (-0.3)
    assert boundary_exponent_fit(v, grid) == pytest.approx(-0.3, abs=1e-10)


def test_boundary_exponent_fit_takes_one_end():
    # unequal boundary data: the five smallest delta of both ends gave a
    # slope of -0.347 here, the nodes nearest r give -b = -(1 - s)
    grid = build_grid(DOM, 64, grading=2.0)
    rep = large_solution_limit_s(make_family("rfl", DOM), [0.7], 0.0, None, (1.0, 2.0), grid)
    assert rep.boundary_fit[0] == pytest.approx(-rep.b[0], abs=1e-3)
