from math import gamma, pi

import numpy as np
import pytest

from nonlocal_eigen.boundary import (
    BoundaryData,
    gamma_normal_derivative_G0,
    make_boundary_data,
    martin_apply,
    martin_constant_report,
    weighted_trace,
)
from nonlocal_eigen.discretize import apply_G0, assemble_green_matrix
from nonlocal_eigen.geometry import build_grid, make_domain
from nonlocal_eigen.kernels import make_operator

DOM = make_domain("interval", 1, 1.0)


@pytest.fixture(scope="module")
def grid():
    return build_grid(DOM, 128, grading=2.0)


def test_boundary_data_broadcast_and_validation():
    bd = make_boundary_data(DOM, 3.0)
    np.testing.assert_array_equal(bd.values, [3.0, 3.0])
    assert bd.sup == 3.0
    with pytest.raises(ValueError):
        BoundaryData(DOM, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        BoundaryData(DOM, [np.inf, 0.0])


def test_martin_apply_rfl_is_explicit_harmonic(grid):
    # M(1) must be proportional to (1 - x^2)^{s-1}
    op = make_operator("rfl", 0.75, DOM)
    m1 = martin_apply(op, grid, 1.0).values
    prof = m1 * (1.0 - grid.x**2) ** (1.0 - op.s)
    assert np.std(prof) / np.mean(prof) < 1e-8


def test_martin_apply_classical_interval(grid):
    # classical harmonic extension of (h-, h+) is the affine interpolant
    op = make_operator("classical", 1.0, DOM)
    v = martin_apply(op, grid, (2.0, 6.0)).values
    np.testing.assert_allclose(v, 4.0 + 2.0 * grid.x, rtol=1e-11)


def test_martin_apply_ball_constant_data():
    dom = make_domain("ball", 3, 1.0)
    grid = build_grid(dom, 48, grading=2.0)
    op = make_operator("classical", 1.0, dom)
    v = martin_apply(op, grid, 1.0).values
    np.testing.assert_allclose(v, 1.0, rtol=1e-12)  # harmonic extension of 1


def test_martin_blowup_exponent(grid):
    op = make_operator("sfl", 0.75, DOM)
    v = martin_apply(op, grid, 1.0).values
    near = np.argsort(grid.delta)[:5]
    slope = np.polyfit(np.log(grid.delta[near]), np.log(v[near]), 1)[0]
    assert slope == pytest.approx(-op.b, abs=1e-3)


def test_weak_duality_with_G0(grid):
    # <M(h), f>_W equals the boundary pairing sum_z h(z) D_gamma G_0(f)(z)
    op = make_operator("rfl", 0.6, DOM)
    rng = np.random.default_rng(0)
    f = rng.uniform(0.0, 1.0, grid.N)
    h = (2.0, -1.0)
    lhs = float(np.sum(grid.w * martin_apply(op, grid, h).values * f))
    rhs = 2.0 * gamma_normal_derivative_G0(op, grid, -1.0, f) \
        - 1.0 * gamma_normal_derivative_G0(op, grid, 1.0, f)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_gamma_normal_derivative_cap(grid):
    op = make_operator("rfl", 0.6, DOM)
    with pytest.raises(ValueError):
        gamma_normal_derivative_G0(op, grid, 1.0, np.full(grid.N, 1e9))


def test_trace_recovers_boundary_data():
    grid = build_grid(DOM, 256, grading=2.0)
    op = make_operator("rfl", 0.75, DOM)
    vh = martin_apply(op, grid, (2.0, 5.0))
    assert weighted_trace(op, vh, -1.0, grid).value == pytest.approx(2.0, rel=1e-6)
    assert weighted_trace(op, vh, 1.0, grid).value == pytest.approx(5.0, rel=1e-6)


def test_trace_of_bounded_function_vanishes(grid):
    op = make_operator("rfl", 0.75, DOM)
    dk = assemble_green_matrix(op, grid)
    u = apply_G0(dk, np.ones(grid.N))
    tr = weighted_trace(op, u, 1.0, grid)
    assert abs(tr.value) < 1e-8


def test_martin_constant_report(grid):
    op = make_operator("rfl", 0.75, DOM)
    rep = martin_constant_report(op, grid)
    s = op.s
    assert rep.candidate_kernel == pytest.approx(1.0 / (s * gamma(s) ** 2))
    assert rep.measured == pytest.approx(rep.candidate_kernel, rel=1e-6)
