from math import pi

import numpy as np
import pytest

from nonlocal_eigen.discretize import assemble_green_matrix
from nonlocal_eigen.geometry import build_grid, make_domain
from nonlocal_eigen.kernels import make_operator
from nonlocal_eigen.spectral import (
    SpectralHit,
    apply_Glambda,
    apply_Glambda_neumann,
    apply_Glambda_perp,
    eigendecompose,
    lambda_context,
    project_perp,
    spectral_norm_Hk,
)

DOM = make_domain("interval", 1, 1.0)


@pytest.fixture(scope="module")
def sfl():
    grid = build_grid(DOM, 96, grading=1.0)
    op = make_operator("sfl", 0.75, DOM, sfl_truncation=96)
    dk = assemble_green_matrix(op, grid)
    return op, dk, eigendecompose(dk)


def test_eigenvalues_match_sfl_formula(sfl):
    op, _, sd = sfl
    k = np.arange(1, 9)
    exact = ((k * pi / 2.0) ** 2) ** op.s
    np.testing.assert_allclose(sd.lam[:8], exact, rtol=1e-8)


def test_eigenvalues_ascending_and_orthonormal(sfl):
    _, dk, sd = sfl
    assert np.all(np.diff(sd.lam) > 0)
    G = sd.phi.T @ (dk.grid.w[:, None] * sd.phi)
    np.testing.assert_allclose(G, np.eye(sd.m), atol=1e-12)


def test_phi1_sign_convention(sfl):
    _, _, sd = sfl
    assert np.min(sd.phi[:, 0]) > -1e-10 * np.max(sd.phi[:, 0])


def test_coeff_synth_roundtrip(sfl):
    _, dk, sd = sfl
    rng = np.random.default_rng(0)
    c = rng.standard_normal(sd.m)
    np.testing.assert_allclose(sd.coeffs(sd.synth(c)), c, atol=1e-10)


def test_lambda_context_regular_and_singular(sfl):
    _, _, sd = sfl
    ctx = lambda_context(sd, 0.5 * (sd.lam[0] + sd.lam[1]))
    assert ctx.I == 1
    with pytest.raises(SpectralHit):
        lambda_context(sd, sd.lam[2])
    assert sd.group(3)[-1] + 1 == 3
    with pytest.raises(ValueError):
        sd.group(0)


def test_resolvent_identity(sfl):
    # (L - lambda) G_lambda f = f in the discrete model
    _, dk, sd = sfl
    ctx = lambda_context(sd, 1.3)
    rng = np.random.default_rng(1)
    f = rng.standard_normal(dk.grid.N)
    u = apply_Glambda(sd, ctx, f).values
    w = dk.grid.w
    residual = u - ctx.lam * (dk.matrix @ (w * u)) - dk.matrix @ (w * f)
    assert np.max(np.abs(residual)) < 1e-10


def test_neumann_agrees_with_spectral(sfl):
    _, dk, sd = sfl
    ctx = lambda_context(sd, 0.5 * sd.lam[0])
    f = np.cos(dk.grid.x)
    un = apply_Glambda_neumann(dk, ctx, f).values
    us = apply_Glambda(sd, ctx, f).values
    np.testing.assert_allclose(un, us, atol=1e-10)
    with pytest.raises(ValueError):
        apply_Glambda_neumann(dk, lambda_context(sd, 0.5 * (sd.lam[0] + sd.lam[1])), f)


def test_project_perp_and_perp_solve(sfl):
    _, dk, sd = sfl
    lam = 0.5 * (sd.lam[1] + sd.lam[2])  # E = groups 1..2
    rng = np.random.default_rng(2)
    f = rng.standard_normal(dk.grid.N)
    fp = project_perp(sd, 2, f).values
    assert np.max(np.abs(sd.coeffs(fp)[:2])) < 1e-10
    u = apply_Glambda_perp(sd, 2, lam, fp).values
    assert np.max(np.abs(sd.coeffs(u)[:2])) < 1e-10
    with pytest.raises(ValueError):
        apply_Glambda_perp(sd, 2, lam, f)  # not orthogonal
    with pytest.raises(SpectralHit):
        apply_Glambda_perp(sd, 2, sd.lam[2], fp)  # the first eigenvalue above E


def test_perp_solve_bounded_at_singular_lambda(sfl):
    _, dk, sd = sfl
    f = np.ones(dk.grid.N)
    fp = project_perp(sd, 1, f).values
    u = apply_Glambda_perp(sd, 1, sd.lam[0], fp).values
    assert np.all(np.isfinite(u))
    assert np.max(np.abs(u)) < 10.0


def test_spectral_norm(sfl):
    _, _, sd = sfl
    phi1 = sd.phi[:, 0]
    assert spectral_norm_Hk(sd, phi1, 0.0) == pytest.approx(1.0, abs=1e-10)
    assert spectral_norm_Hk(sd, phi1, 2.0) == pytest.approx(sd.lam[0], rel=1e-5)
    with pytest.raises(ValueError):
        spectral_norm_Hk(sd, phi1, -1.0)


def test_groups_simple_spectrum(sfl):
    _, _, sd = sfl
    assert all(len(g) == 1 for g in sd.groups[:10])
