from math import pi

import numpy as np
import pytest

from nonlocal_eigen.geometry import build_grid, make_domain
from nonlocal_eigen.limits import (
    boundary_exponent_fit,
    large_solution_limit_s,
    resolvent_convergence_s,
    spectral_convergence_s,
)

DOM = make_domain("interval", 1, 1.0)


@pytest.fixture(scope="module")
def grid():
    return build_grid(DOM, 64, grading=1.0)


def test_sfl_spectral_convergence(grid):
    rep = spectral_convergence_s("sfl", [0.7, 0.8, 0.9, 0.99], 3, grid, 64)
    # lambda_1(s) = ((pi/2)^2)^s analytically
    np.testing.assert_allclose(rep["lam1"], ((pi / 2) ** 2) ** rep["s"], rtol=1e-6)
    assert rep.monotone["omega_decreasing"]
    assert rep.monotone["lam1_err_decreasing"]
    # eigenfunction alignment approaches 1
    assert rep["alignment"][-1][0] > 0.999
    np.testing.assert_allclose(rep["b"], 2.0 - 2.0 * rep["s"])
    # rows carry the one-dimensional columns only, in column order
    assert list(rep.rows()[0]) == ["s", "lam1", "lam1_err", "b", "omega"]


def test_ladder_validation(grid):
    for s_list in ([], [0.9, 0.7], [0.3, 0.7]):
        with pytest.raises(ValueError):
            spectral_convergence_s("sfl", s_list, 3, grid, 64)


def test_resolvent_convergence(grid):
    rep = resolvent_convergence_s("sfl", [0.7, 0.9, 0.99], 0.0, np.ones(grid.N), grid, 64)
    assert rep.monotone["sol_dist_decreasing"]
    assert rep["sol_dist"][-1] < 0.02


def test_resolvent_convergence_between_eigenvalues(grid):
    # a regular lambda between lambda_1(1) and lambda_2(1) still converges
    lam = 0.5 * ((pi / 2) ** 2 + pi**2)
    rep = resolvent_convergence_s("sfl", [0.8, 0.9, 0.99], lam, np.cos(grid.x), grid, 64)
    assert rep.monotone["sol_dist_decreasing"]


def test_large_solution_limit_rfl():
    grid = build_grid(DOM, 64, grading=2.0)
    rep = large_solution_limit_s("rfl", [0.7, 0.9, 0.99], 0.0, 1.0, grid)
    assert rep.monotone["sol_dist_decreasing"]
    assert rep.monotone["fit_to_zero"]
    # boundary exponent of M(1) is s - 1 exactly
    np.testing.assert_allclose(rep["boundary_fit"], rep["s"] - 1.0, atol=1e-3)
    # interior values stay bounded along the ladder
    assert np.max(rep["sup_K"]) < 2.0
    rows = rep.rows()
    assert rows[0]["s"] == pytest.approx(0.7)
    assert list(rows[0]) == ["s", "lam1", "lam1_err", "b", "sol_dist", "boundary_fit",
                             "sup_K", "near_boundary_amp"]


def test_boundary_exponent_fit_on_power():
    grid = build_grid(DOM, 64, grading=2.0)
    v = grid.delta ** (-0.3)
    assert boundary_exponent_fit(v, grid) == pytest.approx(-0.3, abs=1e-10)


def test_boundary_exponent_fit_takes_one_end():
    # unequal boundary data: the five smallest delta of both ends gave a
    # slope of -0.347 here, the nodes nearest r give -b = -(1 - s)
    grid = build_grid(DOM, 64, grading=2.0)
    rep = large_solution_limit_s("rfl", [0.7], 0.0, (1.0, 2.0), grid)
    assert rep["boundary_fit"][0] == pytest.approx(-rep["b"][0], abs=1e-3)


def test_fit_and_amplitude_read_the_same_end():
    # h = (1, 0): v blows up at -r and decays like delta^s at r.  The amplitude
    # once took the five smallest delta of both ends (three at -r) and read
    # 0.848 from -r while the fit described r
    grid = build_grid(DOM, 48, grading=2.0)
    rep = large_solution_limit_s("rfl", [0.7, 0.9], 0.0, (1.0, 0.0), grid)
    assert np.all(rep["near_boundary_amp"] < 0.01)
    np.testing.assert_allclose(rep["boundary_fit"], rep["s"], atol=1e-2)


def test_boundary_exponent_fit_of_zero_raises():
    grid = build_grid(DOM, 64, grading=2.0)
    with pytest.raises(ValueError, match="vanishes"):
        boundary_exponent_fit(np.zeros(grid.N), grid)
