import dataclasses
import tracemalloc
from math import pi

import numpy as np
import pytest
from kernel_oracles import full_matrix
from phi_products import counted_spectrum

from nonlocal_eigen.discretize import DiscreteKernel, apply_G0, assemble_green_matrix
from nonlocal_eigen.geometry import build_grid, make_domain
from nonlocal_eigen.kernels import make_operator
from nonlocal_eigen.spectral import (
    COEFF_MEMO_SIZE,
    SpectralData,
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
    for lam in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="lambda must be finite"):
            lambda_context(sd, lam)
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
    w, K = dk.grid.w, full_matrix(dk)
    residual = u - ctx.lam * (K @ (w * u)) - K @ (w * f)
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


def test_neumann_raises_when_it_does_not_converge():
    # just below lambda_1 the iteration contracts by about 1 - 1e-4 a step,
    # so 10000 steps leave a residual of 4.2e-1 (RFL, s = 0.5, N = 16)
    grid = build_grid(DOM, 16)
    sd = eigendecompose(assemble_green_matrix(make_operator("rfl", 0.5, DOM), grid))
    ctx = lambda_context(sd, (1.0 - 1e-4) * sd.lam[0])
    with pytest.raises(RuntimeError, match=r"10000 iterations \(residual 4\.2\d*e-01\)"):
        apply_Glambda_neumann(ctx, np.ones(grid.N))


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
    for lam in (-np.inf, np.inf, np.nan):
        with pytest.raises(ValueError, match="must be finite"):
            apply_Glambda_perp(sd, 2, lam, fp)


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


def test_groups_never_join_an_even_mode_with_an_odd_one():
    # lambda 1e-9 apart is one group by TAU_MULT, unless the parities differ
    phi = np.zeros((8, 2))
    sd = SpectralData(dk=None, lam=np.array([1.0, 1.0 + 1e-9]), phi=phi, n_discarded=0,
                      parity=np.array([1, -1]))
    assert [list(g) for g in sd.groups] == [[0], [1]]
    same = dataclasses.replace(sd, parity=np.array([0, 0]))
    assert [list(g) for g in same.groups] == [[0, 1]]


@pytest.mark.parametrize("N", [96, 95])
def test_coeffs_and_synth_are_the_full_products(N):
    # the half-grid products on a mirrored grid, the full ones otherwise
    grid = build_grid(DOM, N)
    sd = eigendecompose(assemble_green_matrix(
        make_operator("sfl", 0.75, DOM, sfl_truncation=256), grid))
    assert np.any(sd.parity) == grid.mirrored
    rng = np.random.default_rng(5)
    v = rng.standard_normal(N)
    ref = sd.phi.T @ (grid.w * v)
    assert np.max(np.abs(sd.coeffs(v) - ref)) <= 1e-14 * np.max(np.abs(ref))
    for modes in (slice(7), slice(7, None), np.array([9, 2, 4])):
        c = rng.standard_normal(len(np.arange(sd.m)[modes]))
        ref = sd.phi[:, modes] @ c
        assert np.max(np.abs(sd.synth(c, modes).values - ref)) <= 1e-14 * np.max(np.abs(ref))


BLOCK_CASES = [("rfl", 0.5, DOM, 64, {}), ("sfl", 0.75, DOM, 64, {"sfl_truncation": 256}),
               ("classical", 1.0, DOM, 64, {}), ("rfl", 0.75, DOM, 63, {}),
               ("rfl", 0.75, make_domain("ball", 2, 1.0), 24, {})]


@pytest.mark.parametrize("kind,s,domain,N,kw", BLOCK_CASES)
def test_block_products_are_the_column_products(kind, s, domain, N, kw):
    # an (N, T) block takes one pass over phi or K; each of its columns must
    # be the product of that column alone, to 1e-14 of the column's scale
    grid = build_grid(domain, N)
    sd = eigendecompose(assemble_green_matrix(make_operator(kind, s, domain, **kw), grid))
    ctx = lambda_context(sd, 0.5 * sd.lam[0])
    rng = np.random.default_rng(6)

    def columns_agree(product, block):
        out = product(block)
        assert out.shape[1:] == block.shape[1:]
        for col, v in zip(out.T, block.T):
            ref = product(v)
            assert col.shape == ref.shape
            assert np.max(np.abs(col - ref)) <= 1e-14 * np.max(np.abs(ref))

    V = rng.standard_normal((N, 5))
    columns_agree(sd.coeffs, V)
    columns_agree(lambda v: apply_G0(sd.dk, v).values, V)
    columns_agree(lambda v: apply_Glambda(ctx, v).values, V)
    columns_agree(lambda v: apply_G0(sd.dk, v).values, V[:, :1])
    for modes in (slice(None), slice(7), slice(7, None), np.array([9, 2, 4])):
        C = rng.standard_normal((len(np.arange(sd.m)[modes]), 5))
        columns_agree(lambda c: sd.synth(c, modes).values, C)


MEMO_CASES = [("sfl", 0.75, DOM, 96, {"sfl_truncation": 256}),    # mirrored
              ("rfl", 0.6, DOM, 95, {}),                               # odd N
              ("rfl", 0.75, make_domain("ball", 3, 1.0), 24, {})]      # 3-ball


@pytest.mark.parametrize("kind,s,domain,N,kw", MEMO_CASES)
def test_a_seen_function_takes_no_pass(kind, s, domain, N, kw):
    # a function's coefficients are kept by its node values: a fresh array of
    # the same values takes no pass and reads what a fresh spectrum's pass gives
    grid = build_grid(domain, N)
    dk = assemble_green_matrix(make_operator(kind, s, domain, **kw), grid)
    sd, passes = counted_spectrum(eigendecompose(dk))
    g = np.random.default_rng(7).uniform(-1.0, 1.0, N)
    first = sd.coeffs(g)
    again = sd.coeffs(g.copy())
    assert len(passes) == 1
    assert np.array_equal(again, eigendecompose(dk).coeffs(g))
    assert np.array_equal(first, again)
    for c in (first, again):
        assert not c.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            c[0] = 0.0
    # a block takes its pass each time, is writable, and leaves its columns unseen
    B = np.random.default_rng(8).uniform(-1.0, 1.0, (N, 3))
    for _ in range(2):
        assert sd.coeffs(B).flags.writeable
    assert len(passes) == 3
    sd.coeffs(B[:, 0])
    assert len(passes) == 4


def test_a_function_changed_in_place_takes_a_fresh_pass(sfl):
    _, dk, sd0 = sfl
    sd, passes = counted_spectrum(sd0)
    g = np.cos(dk.grid.x)
    old = sd.coeffs(g).copy()
    g[3] += 1.0
    new = sd.coeffs(g)
    assert len(passes) == 2
    assert np.array_equal(new, dataclasses.replace(sd0).coeffs(g)) and not np.array_equal(new, old)


def test_the_oldest_function_is_evicted_first(sfl):
    _, dk, sd0 = sfl
    sd, passes = counted_spectrum(sd0)
    F = np.random.default_rng(9).standard_normal((COEFF_MEMO_SIZE + 1, dk.grid.N))
    for f in F:
        sd.coeffs(f)
    assert len(passes) == COEFF_MEMO_SIZE + 1
    for f in F[1:]:
        sd.coeffs(f)
    assert len(passes) == COEFF_MEMO_SIZE + 1
    sd.coeffs(F[0])
    assert len(passes) == COEFF_MEMO_SIZE + 2


def test_two_spectra_share_no_coefficients(sfl):
    _, dk, sd0 = sfl
    (a, passes_a), (b, passes_b) = counted_spectrum(sd0), counted_spectrum(sd0)
    g = np.sin(dk.grid.x)
    a.coeffs(g)
    a.coeffs(g)
    b.coeffs(g)
    assert len(passes_a) == 1 and len(passes_b) == 1


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


def _reference_signs(phi, w, n):
    """The docstring's sign rule, one column at a time, on psi = W^1/2 phi over
    the top n nodes."""
    phi = phi.copy()
    psi = np.sqrt(w[:n, None]) * phi[:n]
    for j in range(phi.shape[1]):
        big = np.flatnonzero(np.abs(psi[:, j]) > 1e-3 * np.max(np.abs(psi[:, j])))
        if psi[big[0], j] < 0:
            phi[:, j] = -phi[:, j]
    return phi


@pytest.mark.parametrize("kind,s,N,kw", [("rfl", 0.75, 128, {}),
                                         ("classical", 1.0, 256, {}),
                                         ("sfl", 0.75, 128, {"sfl_truncation": 512})])
def test_sign_rule_is_the_docstring_rule(kind, s, N, kw):
    sd = _decompose(kind, s, N, 4.0, **kw)
    assert sd.n_discarded > 0 and sd.m + sd.n_discarded == N
    flips = np.random.default_rng(3).choice([-1.0, 1.0], sd.m)
    np.testing.assert_array_equal(_reference_signs(sd.phi * flips, sd.grid.w, N // 2), sd.phi)


def _merged(dk):
    """eigendecompose by the straightforward merge: every block's modes
    descending, all of them taken into phi's top half in merged eigenvalue
    order, the sign rule on the merged psi, the lift, and one divide over
    both halves.  Returns lam, phi, parity and n_discarded."""
    w, N, n = dk.grid.w, dk.grid.N, len(dk.blocks[0])
    sw = np.sqrt(w[:n])
    mus, psis = [], []
    for K in dk.blocks:
        mu_b, psi_b = np.linalg.eigh(K * sw[:, None] * sw)
        mus.append(mu_b[::-1])
        psis.append(psi_b[:, ::-1])
    mu = np.concatenate(mus)
    order = np.argsort(-mu, kind="stable")
    mu = mu[order]
    m = int(np.sum(mu > 1e-14 * mu[0]))
    parity = np.repeat((1, -1) if len(dk.blocks) == 2 else (0,), n)[order][:m]
    psi = np.concatenate(psis, axis=1)[:, order[:m]]
    a = np.abs(psi)
    psi *= np.where(psi[np.argmax(a > 1e-3 * a.max(axis=0), axis=0), np.arange(m)] < 0, -1.0, 1.0)
    phi = psi if n == N else np.concatenate([psi, psi[::-1] * parity])
    phi /= (np.sqrt(w) * np.sqrt(N / n))[:, None]
    return 1.0 / mu[:m], phi, parity, len(mu) - m


def _assert_merged(sd):
    lam, phi, parity, n_discarded = _merged(sd.dk)
    assert sd.n_discarded == n_discarded
    for a, b in ((sd.lam, lam), (sd.phi, phi), (sd.parity, parity)):
        np.testing.assert_array_equal(a, b)


BALL3 = make_domain("ball", 3, 1.0)


@pytest.mark.parametrize("kind,s,domain,N,grading,kw,dropped", [
    ("rfl", 0.5, DOM, 128, 1.0, {}, False),
    ("rfl", 0.9, DOM, 255, 2.0, {}, False),
    ("rfl", 0.75, DOM, 256, 4.0, {}, True),
    ("classical", 1.0, DOM, 127, 4.0, {}, True),
    ("classical", 1.0, DOM, 128, 2.0, {}, False),
    ("sfl", 0.75, DOM, 128, 2.0, {"sfl_truncation": 1}, True),
    ("sfl", 0.75, DOM, 129, 1.0, {"sfl_truncation": 1}, True),
    ("sfl", 0.75, DOM, 256, 4.0, {"sfl_truncation": 4096}, True),
    ("sfl", 0.55, DOM, 255, 2.0, {"sfl_truncation": 4096}, True),
    ("rfl", 0.5, BALL3, 32, 2.0, {}, False)])
def test_eigendecompose_is_the_straightforward_merge(kind, s, domain, N, grading, kw, dropped):
    # each block finished as eigh returns it, then one gather: bit for bit
    # the merge that finishes the modes after taking them into phi
    dk = assemble_green_matrix(make_operator(kind, s, domain, **kw),
                               build_grid(domain, N, grading=grading))
    sd = eigendecompose(dk)
    assert (sd.n_discarded > 0) == dropped
    _assert_merged(sd)


def test_tied_parity_blocks_keep_the_even_mode_first():
    # with K12 J = 0 the blocks E and O are both K11, so every eigenvalue is
    # a tie of an even and an odd mode, and the even one comes first
    grid = build_grid(DOM, 64, grading=2.0)
    E = assemble_green_matrix(make_operator("rfl", 0.5, DOM), grid).blocks[0]
    sd = eigendecompose(DiscreteKernel(op=make_operator("rfl", 0.5, DOM), grid=grid,
                                       blocks=(E, E.copy())))
    assert sd.m == grid.N and np.array_equal(sd.lam[::2], sd.lam[1::2])
    np.testing.assert_array_equal(sd.parity, np.tile([1, -1], grid.N // 2))
    _assert_merged(sd)


def test_eigendecompose_peak_at_n1024():
    # the SFL at N = 1024 drops 66 of its modes in the gather; the blocks'
    # finished modes (4 MiB) and phi (7.5 MiB) set the peak, measured at
    # 11.66 MiB, where taking the modes into phi first and finishing them
    # there reached 14.21 MiB
    grid = build_grid(DOM, 1024, grading=2.0)
    dk = assemble_green_matrix(make_operator("sfl", 0.75, DOM, sfl_truncation=4096), grid)
    tracemalloc.start()
    try:
        sd = eigendecompose(dk)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sd.n_discarded == 66
    assert peak < 12.5 * 2 ** 20, peak / 2 ** 20
    _assert_merged(sd)


def test_sfl_assembly_peak_at_n1024():
    # the two Grams (2 MiB each) and one n x n sum, for K's least entry, set
    # the peak, measured at 6.00 MiB; forming K11 and K12 J side by side
    # reached 8.00 MiB
    grid = build_grid(DOM, 1024, grading=2.0)
    op = make_operator("sfl", 0.75, DOM, sfl_truncation=512)
    tracemalloc.start()
    try:
        assemble_green_matrix(op, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.5 * 2 ** 20, peak / 2 ** 20


@pytest.mark.parametrize("kind", ["sfl", "rfl"])
def test_roundoff_in_the_kernel_flips_no_sign(kind):
    # a symmetric entrywise 1e-15 relative perturbation of each block, three
    # draws; a rule read on phi's first entry above 1e-10 max|phi_j|, where
    # the weight is tiny, flipped 11-22 of modes 1-50 on these draws
    grid = build_grid(DOM, 1024, grading=4.0)
    dk = assemble_green_matrix(make_operator(kind, 0.9, DOM), grid)
    sd = eigendecompose(dk)
    rng = np.random.default_rng(0)
    for _ in range(3):
        blocks = []
        for K in dk.blocks:
            E = np.triu(rng.uniform(-1.0, 1.0, K.shape))
            blocks.append(K * (1.0 + 1e-15 * (E + np.triu(E, 1).T)))
        other = eigendecompose(dataclasses.replace(dk, blocks=tuple(blocks)))
        overlap = grid.w @ (sd.phi[:, :50] * other.phi[:, :50])
        assert np.all(overlap > 0), np.flatnonzero(overlap < 0) + 1


@pytest.mark.parametrize("N", [96, 95])
def test_nonsymmetric_kernel_rejected(N):
    # a skew term x_i^2 - x_j^2 of 1e-8 in the even block alone, or the odd
    # block alone, of a mirrored grid's kernel reaches that block's check, and
    # in the one block at odd N the same
    grid = build_grid(DOM, N)
    dk = assemble_green_matrix(make_operator("rfl", 0.5, DOM), grid)
    for b, K in enumerate(dk.blocks):
        x2 = grid.x[:len(K)] ** 2
        blocks = list(dk.blocks)
        blocks[b] = K + 1e-8 * np.max(K) * np.subtract.outer(x2, x2)
        with pytest.raises(ValueError, match="not symmetric"):
            eigendecompose(dataclasses.replace(dk, blocks=tuple(blocks)))


def test_nonfinite_kernel_rejected(sfl):
    _, dk, _ = sfl
    K = full_matrix(dk)
    K[3, 5] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        eigendecompose(DiscreteKernel(op=dk.op, grid=dk.grid, blocks=(K,)))


def _one_block(dk):
    """The same matrix as one block, which eigendecompose diagonalizes whole."""
    return eigendecompose(DiscreteKernel(op=dk.op, grid=dk.grid, blocks=(full_matrix(dk),)))


def _eigen_residual(sd):
    """max_j |A psi_j - mu_j psi_j| / mu_1 with A = W^1/2 K W^1/2 and psi_j = W^1/2 phi_j."""
    sw = np.sqrt(sd.grid.w)
    psi = sw[:, None] * sd.phi
    A = full_matrix(sd.dk) * sw[:, None] * sw[None, :]
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
    K = full_matrix(dk)
    K = K + 1e-6 * np.max(K) * np.outer(v, v)
    sd = eigendecompose(DiscreteKernel(op=dk.op, grid=grid, blocks=(K,)))
    assert grid.mirrored
    _check_one_block(sd)
    sw = np.sqrt(grid.w)
    mu = np.linalg.eigvalsh(K * sw[:, None] * sw[None, :])[::-1]
    np.testing.assert_allclose(1.0 / sd.lam[:50], mu[:50], rtol=1e-12)
