import dataclasses
from math import pi

import numpy as np
import pytest

from nonlocal_eigen.discretize import DiscreteKernel, assemble_green_matrix
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
    u = apply_Glambda(ctx, f).values
    w = dk.grid.w
    residual = u - ctx.lam * (dk.matrix @ (w * u)) - dk.matrix @ (w * f)
    assert np.max(np.abs(residual)) < 1e-10


def test_neumann_agrees_with_spectral(sfl):
    _, dk, sd = sfl
    ctx = lambda_context(sd, 0.5 * sd.lam[0])
    f = np.cos(dk.grid.x)
    un = apply_Glambda_neumann(ctx, f).values
    us = apply_Glambda(ctx, f).values
    np.testing.assert_allclose(un, us, atol=1e-10)
    with pytest.raises(ValueError):
        apply_Glambda_neumann(lambda_context(sd, 0.5 * (sd.lam[0] + sd.lam[1])), f)


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


def test_groups_simple_spectrum(sfl):
    _, _, sd = sfl
    assert all(len(g) == 1 for g in sd.groups[:10])


def _decompose(kind, s, N, grading, **kw):
    grid = build_grid(DOM, N, grading=grading)
    return eigendecompose(assemble_green_matrix(make_operator(kind, s, DOM, **kw), grid))


@pytest.mark.parametrize("s,grading,N", [(0.5, 2.0, 256), (0.5, 2.0, 512),
                                         (0.5, 2.0, 1024), (0.25, 4.0, 512)])
def test_gram_residual_at_roundoff(s, grading, N):
    # divide and conquer keeps the eigenvectors W-orthonormal to working
    # precision: 3e-15 to 5e-15 measured on these four matrices
    sd = _decompose("rfl", s, N, grading)
    G = sd.phi.T @ (sd.grid.w[:, None] * sd.phi)
    assert np.max(np.abs(G - np.eye(sd.m))) <= 2e-14


def _reference_signs(phi, w):
    """The docstring's sign rule, one column at a time."""
    phi = phi.copy()
    for j in range(phi.shape[1]):
        col = phi[:, j]
        if j == 0:
            flip = np.sum(w * col) < 0
        else:
            big = np.flatnonzero(np.abs(col) > 1e-10 * np.max(np.abs(col)))
            flip = col[big[0]] < 0
        if flip:
            phi[:, j] = -col
    return phi


@pytest.mark.parametrize("kind,s,N,kw", [("rfl", 0.75, 128, {}),
                                         ("classical", 1.0, 256, {}),
                                         ("sfl", 0.75, 128, {"sfl_truncation": 512})])
def test_sign_rule_is_the_docstring_rule(kind, s, N, kw):
    sd = _decompose(kind, s, N, 4.0, **kw)
    assert sd.n_discarded > 0 and sd.m + sd.n_discarded == N
    flips = np.random.default_rng(3).choice([-1.0, 1.0], sd.m)
    np.testing.assert_array_equal(_reference_signs(sd.phi * flips, sd.grid.w), sd.phi)


@pytest.mark.parametrize("N", [96, 95])
def test_nonsymmetric_kernel_rejected(N):
    # the skew term x_i^2 - x_j^2 commutes with the flip on a mirrored grid,
    # so it reaches the split's block check at even N, the full check at odd N
    grid = build_grid(DOM, N)
    dk = assemble_green_matrix(make_operator("rfl", 0.5, DOM), grid)
    S = np.subtract.outer(grid.x**2, grid.x**2)
    K = dk.matrix + 1e-8 * np.max(dk.matrix) * S
    with pytest.raises(ValueError, match="not symmetric"):
        eigendecompose(DiscreteKernel(op=dk.op, grid=grid, matrix=K))


def test_nonfinite_kernel_rejected(sfl):
    _, dk, _ = sfl
    K = dk.matrix.copy()
    K[3, 5] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        eigendecompose(DiscreteKernel(op=dk.op, grid=dk.grid, matrix=K))


def _one_block(dk):
    """The same matrix on a copy of the grid whose last node moved by one ulp:
    the grid is no longer mirrored, so eigendecompose takes one block."""
    x = dk.grid.x.copy()
    x[-1] = np.nextafter(x[-1], 0.0)
    grid = dataclasses.replace(dk.grid, x=x)
    assert dk.grid.mirrored and not grid.mirrored
    return eigendecompose(DiscreteKernel(op=dk.op, grid=grid, matrix=dk.matrix))


def _eigen_residual(sd):
    """max_j |A psi_j - mu_j psi_j| / mu_1 with A = W^1/2 K W^1/2 and psi_j = W^1/2 phi_j."""
    sw = np.sqrt(sd.grid.w)
    psi = sw[:, None] * sd.phi
    A = sd.dk.matrix * sw[:, None] * sw[None, :]
    return np.max(np.abs(A @ psi - psi / sd.lam)) * sd.lam[0]


SPLIT_CASES = [("rfl", s, {}) for s in (0.25, 0.5, 0.75, 0.99)] + [
    ("classical", 1.0, {}), ("sfl", 0.75, {"sfl_truncation": 1024})]


@pytest.mark.parametrize("N", [256, 512])
@pytest.mark.parametrize("grading", [2.0, 4.0])
@pytest.mark.parametrize("kind,s,kw", SPLIT_CASES)
def test_parity_split_matches_one_block(kind, s, kw, grading, N):
    grid = build_grid(DOM, N, grading=grading)
    dk = assemble_green_matrix(make_operator(kind, s, DOM, **kw), grid)
    sd, ref = eigendecompose(dk), _one_block(dk)
    assert np.all(np.abs(sd.parity) == 1) and np.all(ref.parity == 0)
    assert sd.n_discarded == ref.n_discarded
    # both paths are backward stable, so mu_j = 1/lambda_j agree to roundoff
    # of mu_1 (measured at most 1.5e-15 mu_1); lambda_50 / lambda_1 reaches
    # 2500 near s = 1, where lambda_50 differs by 1e-13 relative
    dmu = np.abs(1.0 / sd.lam[:50] - 1.0 / ref.lam[:50]) * sd.lam[0]
    assert np.max(dmu) <= 1e-14
    np.testing.assert_allclose(sd.lam[:10], ref.lam[:10], rtol=1e-13)
    G = sd.phi.T @ (grid.w[:, None] * sd.phi)
    assert np.max(np.abs(G - np.eye(sd.m))) <= 2e-14
    # measured at most 1e-15 on either path
    assert _eigen_residual(sd) <= 1e-14


@pytest.mark.parametrize("kind,s,kw", SPLIT_CASES)
def test_parity_labels_the_mirror_image(kind, s, kw):
    sd = _decompose(kind, s, 256, 2.0, **kw)
    np.testing.assert_allclose(sd.phi[::-1], sd.phi * sd.parity, rtol=0,
                               atol=1e-14 * np.max(np.abs(sd.phi)))
    if kind == "sfl":
        # sin(k pi (x + 1) / 2) has parity (-1)^(k+1)
        k = np.arange(1, 21)
        np.testing.assert_array_equal(sd.parity[:20], (-1) ** (k + 1))


def _check_one_block(sd):
    assert np.all(sd.parity == 0) and sd.m + sd.n_discarded == sd.grid.N
    G = sd.phi.T @ (sd.grid.w[:, None] * sd.phi)
    assert np.max(np.abs(G - np.eye(sd.m))) <= 2e-14
    assert _eigen_residual(sd) <= 1e-14


@pytest.mark.parametrize("kind,s,N,kw", [("rfl", 0.75, 255, {}), ("classical", 1.0, 127, {}),
                                         ("sfl", 0.75, 129, {"sfl_truncation": 512})])
def test_odd_N_takes_one_block(kind, s, N, kw):
    sd = _decompose(kind, s, N, 2.0, **kw)
    assert not sd.grid.mirrored
    _check_one_block(sd)


@pytest.mark.parametrize("n", [2, 3])
def test_ball_takes_one_block(n):
    ball = make_domain("ball", n, 1.0)
    grid = build_grid(ball, 64)
    assert not grid.mirrored
    _check_one_block(eigendecompose(assemble_green_matrix(make_operator("rfl", 0.75, ball), grid)))


def test_matrix_without_mirror_symmetry_takes_one_block():
    # a symmetric rank-one term on the left half breaks J-symmetry by 1e-6
    grid = build_grid(DOM, 256)
    dk = assemble_green_matrix(make_operator("rfl", 0.5, DOM), grid)
    v = np.where(grid.x < 0, np.cos(grid.x), 0.0)
    K = dk.matrix + 1e-6 * np.max(dk.matrix) * np.outer(v, v)
    sd = eigendecompose(DiscreteKernel(op=dk.op, grid=grid, matrix=K))
    assert grid.mirrored
    _check_one_block(sd)
    sw = np.sqrt(grid.w)
    mu = np.linalg.eigvalsh(K * sw[:, None] * sw[None, :])[::-1]
    np.testing.assert_allclose(1.0 / sd.lam[:50], mu[:50], rtol=1e-12)
