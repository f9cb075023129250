import numpy as np
import pytest

from nonlocal_eigen.boundary import martin_apply
from nonlocal_eigen.discretize import assemble_green_matrix
from nonlocal_eigen.geometry import build_grid, make_domain
from nonlocal_eigen.kernels import make_operator
from nonlocal_eigen.solver import (
    check_max_principle,
    check_notions,
    check_poincare,
    fredholm_diagnose,
    solve_large,
    sweep_lambda,
)
from nonlocal_eigen.spectral import eigendecompose, lambda_context

DOM = make_domain("interval", 1, 1.0)


@pytest.fixture(scope="module")
def setup():
    grid = build_grid(DOM, 96, grading=2.0)
    op = make_operator("sfl", 0.75, DOM, sfl_truncation=96)
    dk = assemble_green_matrix(op, grid)
    return op, grid, dk, eigendecompose(dk)


def test_solve_dirichlet_green_identity(setup):
    # no boundary data (h None) is the Dirichlet solve
    op, grid, dk, sd = setup
    ctx = lambda_context(sd, 0.5 * sd.lam[0])
    rep = solve_large(op, sd, ctx, np.cos(grid.x), None)
    assert rep.green_residual < 1e-12
    assert rep.I == 0
    np.testing.assert_array_equal(rep.v_h.values, 0.0)


def test_solve_large_decomposition_identity(setup):
    op, grid, dk, sd = setup
    ctx = lambda_context(sd, 0.5 * (sd.lam[0] + sd.lam[1]))
    rep = solve_large(op, sd, ctx, np.ones(grid.N), (1.0, 2.0))
    total = rep.v_h.values + rep.explicit.values + rep.u_perp.values
    np.testing.assert_array_equal(rep.v_total.values, total)
    # u_perp orthogonal to the crossed eigenspace
    assert abs(np.sum(grid.w * rep.u_perp.values * sd.phi[:, 0])) < 1e-8
    assert rep.green_residual < 1e-10


def test_solve_large_blows_up_like_martin(setup):
    op, grid, dk, sd = setup
    ctx = lambda_context(sd, 0.5 * sd.lam[0])
    rep = solve_large(op, sd, ctx, None, 1.0)
    vh = martin_apply(op, grid, 1.0).values
    near = np.argmin(grid.delta)
    assert rep.v_total.values[near] == pytest.approx(vh[near], rel=1e-2)


def test_solve_rejects_singular_lambda(setup):
    op, grid, dk, sd = setup
    with pytest.raises(ValueError):
        lambda_context(sd, sd.lam[0])


def test_fredholm_diagnose_blowup_and_degenerate(setup):
    op, grid, dk, sd = setup
    # h = 1 has positive projection on phi_1: blow-up case
    rep = fredholm_diagnose(sd, op, None, 1.0, 1)
    assert not rep.degenerate
    assert len(rep.A_plus) > 0 and len(rep.A_minus) == 0
    # g = phi_2, no boundary data: degenerate at the first eigenvalue
    rep2 = fredholm_diagnose(sd, op, sd.phi[:, 1], None, 1)
    assert rep2.degenerate
    with pytest.raises(ValueError):
        fredholm_diagnose(sd, op, None, 1.0, 0)


def test_sweep_lambda_rate_and_monotonicity(setup):
    op, grid, dk, sd = setup
    lam1 = sd.lam[0]
    lams = lam1 * (1.0 - np.array([1e-2, 1e-3, 1e-4]))
    sw = sweep_lambda(op, sd, None, 1.0, 1, lams)
    assert sw.fitted_spread < 0.05
    assert np.all(np.diff(sw.sup_K_Aplus) > 0)
    # projection rate: <v, phi_1> (lam1 - lam) is constant = lam1 <v_h, phi_1>
    vh = martin_apply(op, grid, 1.0).values
    target = lam1 * np.sum(grid.w * vh * sd.phi[:, 0])
    np.testing.assert_allclose(sw.proj_i * (lam1 - lams), target, rtol=1e-10)
    # u_perp stays bounded while the solution blows up
    assert np.max(sw.uperp_L1_dgamma) / np.min(sw.uperp_L1_dgamma) < 1.05


def test_sweep_rejects_spectrum_touch(setup):
    op, grid, dk, sd = setup
    with pytest.raises(ValueError):
        sweep_lambda(op, sd, None, 1.0, 1, [sd.lam[0]])


def test_max_principle(setup):
    op, grid, dk, sd = setup
    ctx = lambda_context(sd, 0.9 * sd.lam[0])
    rep = check_max_principle(ctx, trials=30, seed=1)
    assert rep.passed
    with pytest.raises(ValueError):
        check_max_principle(lambda_context(sd, 0.5 * (sd.lam[0] + sd.lam[1])))


def test_poincare(setup):
    op, grid, dk, sd = setup
    rep = check_poincare(sd, trials=30, seed=1)
    assert rep.passed
    assert rep.worst_margin <= 1.0 + 1e-10


def test_check_notions_and_negative_control(setup):
    op, grid, dk, sd = setup
    ctx = lambda_context(sd, 0.5 * sd.lam[0])
    f = np.cos(grid.x)
    res = check_notions(ctx, f)
    assert res["r1"] < 1e-8 and res["r5"] < 1e-8
    # r6 multiplies the Gram noise by the largest retained eigenvalue,
    # which is large for the strongly graded SFL grid used here
    assert res["r6"] < 1e-3
    # corrupted u must be detected through r5
    from nonlocal_eigen.spectral import apply_Glambda
    u_bad = apply_Glambda(ctx, f).values + 0.01
    res_bad = check_notions(ctx, f, u=u_bad)
    assert res_bad["r5"] > 1e-3


def test_context_of_another_spectrum_is_rejected(setup):
    # a context from the s = 0.8 spectrum once solved at a lambda that the
    # s = 0.75 spectrum rejects as a spectral hit
    op, grid, dk, sd = setup
    other = eigendecompose(assemble_green_matrix(
        make_operator("sfl", 0.8, DOM, sfl_truncation=96), grid))
    ctx = lambda_context(other, 0.5 * other.lam[0])
    with pytest.raises(ValueError, match="another spectrum"):
        solve_large(op, sd, ctx, np.ones(grid.N), 1.0)


@pytest.mark.parametrize("other", [
    make_operator("rfl", 0.75, DOM),
    make_operator("sfl", 0.8, DOM, sfl_truncation=96),
    make_operator("sfl", 0.75, DOM),  # the default truncation, not 96
])
def test_operator_of_another_spectrum_is_rejected(setup, other):
    # the Martin kernel that lifts h must be the operator of the spectrum
    op, grid, dk, sd = setup
    ctx = lambda_context(sd, 0.5 * sd.lam[0])
    for call in (lambda: solve_large(other, sd, ctx, None, 1.0),
                 lambda: sweep_lambda(other, sd, None, 1.0, 1),
                 lambda: fredholm_diagnose(sd, other, None, 1.0, 1)):
        with pytest.raises(ValueError, match="not the operator of the spectrum"):
            call()
