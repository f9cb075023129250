import dataclasses
import warnings
from math import gamma, pi

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kernel_oracles import full_matrix, green_function
from rfl_oracle import ball_rfl_eigenvalues
from scipy.integrate import IntegrationWarning, quad

from nonlocal_eigen import discretize
from nonlocal_eigen.discretize import (
    GridFunction,
    apply_G0,
    as_values,
    assemble_green_matrix,
    parity_parts,
    rfl_green_radial,
    weighted_norm,
)
from nonlocal_eigen.geometry import build_grid, make_domain, sphere_area
from nonlocal_eigen.kernels import (
    make_operator,
    rfl_green_ball,
    rfl_green_from_gaps,
    sfl_eigenfunction,
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
    gf = GridFunction(grid, [1] * grid.N)
    assert gf.values.dtype == float
    np.testing.assert_array_equal(gf.values, 1.0)
    # a block holds one function per column, and every column is checked
    assert GridFunction(grid, np.ones((grid.N, 3))).values.shape == (grid.N, 3)
    block = np.ones((grid.N, 3))
    block[5, 2] = np.inf
    for bad in (block, np.ones((3, grid.N)), np.ones((grid.N, 2, 2))):
        with pytest.raises(ValueError):
            GridFunction(grid, bad)


def test_grid_function_columns_are_the_block_columns(grid):
    # a checked block splits into one GridFunction per column, as views
    V = np.arange(grid.N * 3, dtype=float).reshape(grid.N, 3)
    cols = GridFunction(grid, V).columns()
    assert len(cols) == 3
    for t, col in enumerate(cols):
        assert col.grid is grid and np.shares_memory(col.values, V)
        np.testing.assert_array_equal(col.values, V[:, t])
    one = GridFunction(grid, V[:, 1]).columns()
    assert len(one) == 1 and np.array_equal(one[0].values, V[:, 1])


def test_as_values_rejects_other_grid_of_same_size(grid):
    other = build_grid(DOM, grid.N, grading=1.0)
    with pytest.raises(ValueError, match="grid mismatch"):
        as_values(GridFunction(other, np.ones(grid.N)), grid)
    # a rebuilt grid with the same nodes and weights is the same grid
    twin = build_grid(DOM, grid.N, grading=2.0)
    np.testing.assert_array_equal(as_values(GridFunction(twin, np.ones(grid.N)), grid), 1.0)


def test_as_values_accepts_arrays_and_rejects_other_shapes(grid):
    np.testing.assert_allclose(as_values(np.ones(grid.N), grid), 1.0)
    assert as_values(np.ones((grid.N, 2)), grid).shape == (grid.N, 2)
    for bad in (np.ones(5), np.ones((5, grid.N)), np.ones((grid.N, 1, 1))):
        with pytest.raises(ValueError):
            as_values(bad, grid)


def _filled(op, grid):
    """The kernel values the fill computes at every pair, as an N x N matrix
    with a zero diagonal: the one block it fills on a twin of the grid whose
    first weight is doubled, which no fill reads, so the twin is not
    mirrored.  On a mirrored grid the fill's blocks E and O must be
    K11 + K12 J and K11 - K12 J of those values, each rounded once: the
    parity parts of the top half's rows."""
    twin = dataclasses.replace(grid, w=np.r_[2 * grid.w[0], grid.w[1:]])
    assert not twin.mirrored
    (K,), _, _ = discretize._fill(op, twin)
    if grid.mirrored:
        n = grid.N // 2
        K11, K12J = K[:n, :n], K[:n, :n - 1:-1]
        (E, O), _, _ = discretize._fill(op, grid)
        np.testing.assert_array_equal(E, K11 + K12J)
        np.testing.assert_array_equal(O, K11 - K12J)
        for B, part in zip((E, O), parity_parts(K[:n])):
            np.testing.assert_array_equal(B, part)
    return K


@pytest.mark.parametrize("kind,s", [("rfl", 0.75), ("sfl", 0.75), ("classical", 1.0)])
def test_matrix_symmetric(grid, kind, s):
    op = make_operator(kind, s, DOM, sfl_truncation=64)
    K = full_matrix(assemble_green_matrix(op, grid))
    np.testing.assert_allclose(K, K.T, atol=1e-14)
    if kind == "sfl":
        return
    # the kernel at every pair, bit for bit, as the fill computes it from
    # boundary distances: the classical (r + x_i)(r - x_j) / 2r for x_i < x_j
    # from grid.sides, Boggio's from the gaps delta (2r - delta) and |x - y|,
    # which is |delta_x - delta_y| for two nodes on one side; the parity
    # blocks are their sum and difference, each rounded once (_filled)
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
        DX, DY = np.meshgrid(grid.delta, grid.delta, indexing="ij")
        dist = np.where((X < 0) == (Y < 0), np.abs(DX - DY), np.abs(X - Y))
        ref = rfl_green_from_gaps(op, GX[off], GY[off], dist[off])
    np.testing.assert_array_equal(_filled(op, grid)[off], ref)
    # the blocks hold K to roundoff of each row's largest entry (measured
    # at most 1.6e-16), and away from the boundary, where r -+ x does not
    # cancel, the coordinate form agrees
    N = grid.N
    tol = 1e-15 * np.max(np.abs(ref.reshape(N, N - 1)), axis=1)
    assert np.all(np.abs(K[off] - ref).reshape(N, N - 1) <= tol[:, None])
    far = off & (grid.delta[:, None] >= 0.1) & (grid.delta[None, :] >= 0.1)
    np.testing.assert_allclose(K[far], green_function(op, X[far], Y[far]),
                               rtol=1e-13, atol=0)


@pytest.mark.parametrize("kind,domain,N", [("rfl", DOM, 64), ("rfl", DOM, 63),
                                           ("classical", DOM, 64),
                                           ("rfl", make_domain("ball", 2, 1.0), 24),
                                           ("rfl", DOM, 256), ("rfl", DOM, 1024)])
def test_fill_evaluates_one_kernel_value_per_pair(kind, domain, N, monkeypatch):
    # N^2/4 values on a mirrored grid: n (n - 1)/2 for K11 and n (n + 1)/2 for
    # the symmetric K12 J; N (N - 1)/2 on any other grid.  One kernel call
    # per FILL_SLICE = 2^15 pairs, over K11's and K12 J's pairs together: one
    # up to N = 256, and 8 for the 262,144 values at N = 1024
    grid = build_grid(domain, N)
    op = make_operator(kind, 1.0 if kind == "classical" else 0.5, domain)
    # the ball's kernel is the angular mean, which calls Boggio's many times
    name = "rfl_green_radial" if domain.n > 1 else "rfl_green_from_gaps"
    calls, orig = [], getattr(discretize, name)
    monkeypatch.setattr(discretize, name,
                        lambda op, a, *rest: calls.append(np.size(a)) or orig(op, a, *rest))
    blocks, lo, hi = discretize._fill(op, grid)
    pairs = N * N // 4 if grid.mirrored else N * (N - 1) // 2
    assert sum(calls) == (0 if kind == "classical" else pairs)
    assert len(calls) == (0 if kind == "classical" else 8 if N == 1024 else 1)
    n = N // 2 if grid.mirrored else N
    assert len(blocks) == (2 if grid.mirrored else 1)
    assert all(B.shape == (n, n) for B in blocks)
    # the least and greatest of the values written, K11's and K12 J's
    rows, cols = discretize._pairs(n, N)
    written = _filled(op, grid)[rows, cols]
    assert (lo, hi) == (written.min(), written.max())


@pytest.mark.parametrize("domain,N,grading,sliced", [(DOM, 1024, 4.0, 2 ** 15),
                                                     (DOM, 255, 2.0, 1000),
                                                     (make_domain("ball", 2, 1.0), 24, 2.0, 50)])
def test_sliced_fill_is_the_one_slice_fill(domain, N, grading, sliced, monkeypatch):
    # a slice's values do not depend on where the slice ends: 8 slices at
    # N = 1024, the fourth holding K11's last pairs and K12 J's first,
    # 33 on the odd grid and 6 on the ball, against one slice of every pair
    grid = build_grid(domain, N, grading)
    op = make_operator("rfl", 0.75, domain)
    monkeypatch.setattr(discretize, "FILL_SLICE", sliced)
    blocks, lo, hi = discretize._fill(op, grid)
    monkeypatch.setattr(discretize, "FILL_SLICE", N * N)
    blocks1, lo1, hi1 = discretize._fill(op, grid)
    assert len(blocks) == len(blocks1) and (lo, hi) == (lo1, hi1)
    for B, B1 in zip(blocks, blocks1):
        np.testing.assert_array_equal(B, B1)


@pytest.mark.parametrize("domain,N,grading", [(DOM, 63, 2.0), (DOM, 63, 4.0), (DOM, 255, 2.0),
                                             (DOM, 255, 4.0), (make_domain("ball", 2, 1.0), 24, 2.0)])
def test_one_block_fill_is_symmetric_with_a_zero_diagonal(domain, N, grading):
    # one block's table holds the pairs i < c only, so the one tail's
    # B += B^T adds a 0 to every entry and its halved diagonal stays 0
    grid = build_grid(domain, N, grading)
    assert not grid.mirrored
    (K,), _, _ = discretize._fill(make_operator("rfl", 0.75, domain), grid)
    np.testing.assert_array_equal(K, K.T)
    assert np.all(np.diag(K) == 0.0)
    assert np.all(K[~np.eye(N, dtype=bool)] > 0)


def test_parity_parts_fold_each_row():
    # a (T, N) block folds row by row, bit for bit, into y_top + J y_bot and
    # y_top - J y_bot, J y_bot the bottom half reversed: y_i +- y_(N-1-i)
    rng = np.random.default_rng(3)
    for N in (2, 16, 64):
        Y, n = rng.standard_normal((5, N)), N // 2
        a, b = parity_parts(Y)
        assert a.shape == b.shape == (5, n)
        for t, y in enumerate(Y):
            at, bt = parity_parts(y)
            np.testing.assert_array_equal(at, y[:n] + y[::-1][:n])
            np.testing.assert_array_equal(bt, y[:n] - y[::-1][:n])
            np.testing.assert_array_equal(a[t], at)
            np.testing.assert_array_equal(b[t], bt)


def test_pair_lists_hold_k11_then_k12j_row_by_row():
    # node pairs (i, c): K11's i < c < n row by row, then on a mirrored grid
    # (N = 2n) K12 J's n <= c < N - i, c = N - 1 - j for j >= i; a grid that
    # is not mirrored (n = N) has the first set only
    for n, N in ((7, 14), (7, 7), (128, 256)):
        ref = [(i, c) for i in range(n) for c in range(i + 1, n)]
        ref += [(i, c) for i in range(n) for c in range(n, N - i)]
        rows, cols = discretize._pairs(n, N)
        np.testing.assert_array_equal(np.c_[rows, cols], ref)


@pytest.mark.parametrize("N", [64, 63])
@pytest.mark.parametrize("planted", [0, -1])
def test_negative_rfl_kernel_value_is_rejected(N, planted, monkeypatch):
    # one negative value among those the fill writes: K11's first pair, or
    # the last pair, K12 J's on a mirrored grid (N = 64), K's at odd N
    orig = discretize.rfl_green_from_gaps

    def planted_kernel(op, *args):
        v = orig(op, *args)
        v[planted] = -1e-6 * v.max()
        return v

    monkeypatch.setattr(discretize, "rfl_green_from_gaps", planted_kernel)
    with pytest.raises(AssertionError, match="negative kernel matrix entry"):
        assemble_green_matrix(make_operator("rfl", 0.5, DOM), build_grid(DOM, N))


def test_sfl_sign_check_reads_k12j(monkeypatch):
    # Grams of the odd-k and even-k modes with E = 2 I and O = I + 1 1^T,
    # both non-negative, while K12 J = (I - 1 1^T)/2 is -1/2 off the
    # diagonal, far below the tail bound at M = 4096 (0.016); with equal
    # Grams K12 J is 0 and the kernel passes
    n = 32
    grams = {1: np.eye(n), 2: 0.5 * (np.eye(n) + np.ones((n, n)))}
    monkeypatch.setattr(discretize, "_sfl_gram", lambda op, grid, n, k: grams[k.start].copy())
    op = make_operator("sfl", 0.75, DOM, sfl_truncation=4096)
    with pytest.raises(AssertionError, match="negative kernel matrix entry"):
        assemble_green_matrix(op, build_grid(DOM, 2 * n))
    grams[2] = np.eye(n)
    assert all(np.all(B >= 0) for B in assemble_green_matrix(op, build_grid(DOM, 2 * n)).blocks)


def test_sfl_sign_check_reads_k11(monkeypatch):
    # the plant on the other side: Grams with E = 2 I and O = I - 1 1^T, so
    # K12 J = (I + 1 1^T)/2 is non-negative while K11 = (3 I - 1 1^T)/2 is
    # -1/2 off the diagonal
    n = 32
    grams = {1: np.eye(n), 2: 0.5 * (np.eye(n) - np.ones((n, n)))}
    monkeypatch.setattr(discretize, "_sfl_gram", lambda op, grid, n, k: grams[k.start].copy())
    op = make_operator("sfl", 0.75, DOM, sfl_truncation=4096)
    with pytest.raises(AssertionError, match="negative kernel matrix entry"):
        assemble_green_matrix(op, build_grid(DOM, 2 * n))


def test_sign_check_rejects_a_nan_entry(monkeypatch):
    # a NaN fails every comparison, so "lo < -tol" let it through to
    # eigendecompose; the check now raises for it itself
    orig = discretize._fill

    def planted_fill(op, grid):
        blocks, lo, hi = orig(op, grid)
        blocks[0][0, 1] = blocks[0][1, 0] = np.nan
        return blocks, lo, hi

    monkeypatch.setattr(discretize, "_fill", planted_fill)
    with pytest.raises(AssertionError, match="negative kernel matrix entry or a non-finite one: "
                                             "least entry nan"):
        assemble_green_matrix(make_operator("rfl", 0.5, DOM), build_grid(DOM, 64))


APPLY_CASES = [("rfl", 0.5, DOM, 64, {}), ("sfl", 0.75, DOM, 64, {"sfl_truncation": 256}),
               ("classical", 1.0, DOM, 64, {}), ("rfl", 0.75, DOM, 63, {}),
               ("rfl", 0.75, make_domain("ball", 2, 1.0), 24, {})]


@pytest.mark.parametrize("kind,s,domain,N,kw", APPLY_CASES)
def test_apply_G0_is_the_matrix_action(kind, s, domain, N, kw):
    # two half-grid products on a mirrored grid, one product otherwise
    grid = build_grid(domain, N)
    dk = assemble_green_matrix(make_operator(kind, s, domain, **kw), grid)
    v = np.random.default_rng(4).standard_normal(N)
    ref = full_matrix(dk) @ (grid.w * v)
    u = apply_G0(dk, v).values
    assert np.max(np.abs(u - ref)) <= 1e-14 * np.max(np.abs(ref))


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


def test_rfl_diagonal_continuous_across_log_case():
    # neither Boggio's kernel nor the calibration has an s = 1/2 branch: at
    # s = 1/2 +- 1e-12 the diagonal moves by the genuine s-dependence only
    # (about 2.5e-11 here)
    grid = build_grid(DOM, 64, grading=2.0)

    def diag(s):
        return np.diag(full_matrix(assemble_green_matrix(make_operator("rfl", s, DOM), grid)))

    for s in (0.5 - 1e-12, 0.5 + 1e-12):
        np.testing.assert_allclose(diag(s), diag(0.5), rtol=1e-10, atol=0)


@pytest.mark.parametrize("s", [0.1, 0.5, 0.75, 0.99])
def test_rfl_matrix_with_a_node_at_roundoff_from_the_boundary(s):
    # grading 4, N = 512 puts node 0 at delta = 8.6e-16, where x_0 - d
    # rounds onto x_0; the diagonal rule works from delta and d instead
    grid = build_grid(DOM, 512, grading=4.0)
    assert grid.delta[0] < 1e-15
    K = full_matrix(assemble_green_matrix(make_operator("rfl", s, DOM), grid))
    assert np.all(np.isfinite(K)) and np.all(K > 0)


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
    K = full_matrix(dk)
    assert np.array_equal(K, K.T)
    assert np.all(np.isfinite(K)) and np.all(K > 0)
    assert np.all(K @ grid.w > 0)
    sd = eigendecompose(dk)
    for lam in (0.0, 0.9 * sd.lam[0]):
        rep = check_max_principle(lambda_context(sd, lam))
        assert rep.n_failures == 0, (lam, rep.worst_margin)
    rep = check_poincare(sd)
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


@pytest.mark.parametrize("N,M,grading,r", [
    pytest.param(256, 1024, 2.0, 1.0, id="256-1024"),
    pytest.param(96, 4096, 2.0, 1.0, id="96-4096"),
    # one block (odd N): d = 1, J = 1024, and the right side's sign
    pytest.param(255, 1024, 2.0, 1.0, id="one-block-255-1024"),
    # J = 0 and 1 (M = 1, 2), and J = 2 and 1 (M = 3)
    pytest.param(64, 1, 2.0, 1.0, id="64-1"),
    pytest.param(64, 2, 2.0, 1.0, id="64-2"),
    pytest.param(64, 3, 2.0, 1.0, id="64-3"),
    # J = 500 is no multiple of the table width W = 32
    pytest.param(256, 1000, 2.0, 1.0, id="256-1000"),
    # delta falls to 5e-17 and X_a reaches about 2000 pi
    pytest.param(1024, 4096, 4.0, 1.0, id="1024-4096-grading4"),
    # r = 2.5: the sines carry 1/sqrt(r) and the cosines do not
    pytest.param(256, 1024, 2.0, 2.5, id="256-1024-r2.5"),
])
def test_sfl_half_grid_matrix_is_the_full_series(N, M, grading, r):
    # the assembled K, from the sine tables of each block, must be the full
    # B B^T of the direct sines over all N nodes; on a mirrored grid the
    # blocks are twice the left half-grid's odd-k and even-k Gram matrices.
    # Measured at most 1.1e-14 of max|K| (grading 4), 5.9e-15 on one block,
    # 5.5e-16 at M <= 3, 4.6e-15 at M = 1000 and 7.6e-15 at r = 2.5: a
    # margin of 9x or more.
    # K is exactly symmetric, and exactly J-symmetric on a mirrored grid
    dom = make_domain("interval", 1, r)
    grid = build_grid(dom, N, grading=grading)
    op = make_operator("sfl", 0.75, dom, sfl_truncation=M)
    K = full_matrix(assemble_green_matrix(op, grid))
    k = np.arange(1, M + 1)
    plus = grid.sides[0]
    B = sfl_eigenfunction(dom, k[None, :], plus[:, None]) * sfl_eigenvalue(dom, k) ** (-0.375)
    full = B @ B.T
    assert grid.mirrored == (N % 2 == 0)
    assert np.max(np.abs(K - full)) <= 1e-13 * np.max(np.abs(full))
    np.testing.assert_array_equal(K, K.T)
    if grid.mirrored:
        np.testing.assert_array_equal(K, K[::-1, ::-1])


def test_operator_grid_domain_mismatch(grid):
    other = make_operator("rfl", 0.5, make_domain("interval", 1, 2.0))
    with pytest.raises(ValueError):
        assemble_green_matrix(other, grid)


def test_weighted_norms(grid):
    # sum w |f| delta^alpha: int_{-1}^{1} (1 - |x|)^alpha dx = 2 / (1 + alpha)
    f = -np.ones(grid.N)
    assert weighted_norm(f, grid, 0.0) == pytest.approx(2.0)
    assert weighted_norm(f, grid, 1.0) == pytest.approx(1.0)
    assert weighted_norm(f, grid, -0.5) == pytest.approx(4.0, rel=1e-10)
    assert isinstance(weighted_norm(f, grid, 1.0), float)
    # a block: one norm per column, each that column's own
    block = np.random.default_rng(2).standard_normal((grid.N, 3))
    ref = [weighted_norm(col, grid, 0.5) for col in block.T]
    np.testing.assert_allclose(weighted_norm(block, grid, 0.5), ref, rtol=1e-14, atol=0)
    with pytest.raises(ValueError, match="grid mismatch"):
        weighted_norm(np.ones(3), grid, 0.0)


@pytest.mark.parametrize("n", [2, 3])
def test_ball_matrix_small(n):
    dom = make_domain("ball", n, 1.0)
    grid = build_grid(dom, 24, grading=2.0)
    op = make_operator("rfl", 0.75, dom)
    dk = assemble_green_matrix(op, grid)
    assert np.all(full_matrix(dk) >= 0)
    u = apply_G0(dk, np.ones(grid.N)).values
    # torsion function of the RFL on the unit ball:
    # u(x) = Gamma(n/2) (1-|x|^2)^s / (2^{2s} Gamma(s+n/2) Gamma(1+s))
    s = 0.75
    expected = gamma(n / 2) * (grid.delta * (2 - grid.delta)) ** s / (
        2.0 ** (2 * s) * gamma(s + n / 2) * gamma(1 + s))
    # the diagonal is calibrated to 2 - |x|^2, not to 1, so torsion measures
    # accuracy: 1.8e-5 (n = 2) and 2.3e-5 (n = 3) at N = 24; twice that allowed
    np.testing.assert_allclose(u, expected, rtol=5e-5, atol=0)


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


def test_ball_oracle_matches_kwasnicki_at_n1():
    # n = 1 is the interval's even modes; lambda_1 at s = 1/2 from
    # Kwasnicki, "Eigenvalues of the fractional Laplace operator in the
    # interval", J. Funct. Anal. 262 (2012)
    assert ball_rfl_eigenvalues(1, 0.5)[0] == pytest.approx(1.1577738836977, rel=1e-12)


# Nystrom lambda_1 relative error against the Jacobi oracle at N = 64,
# grading 2, and its order from N = 32, as measured (n = 1 is the interval);
# the test allows twice the error and an order 0.25 below the measured one
BALL_LAM1_ERR = {(1, 0.25): (6.3e-7, 2.47), (1, 0.5): (4.7e-7, 2.94), (1, 0.75): (2.1e-7, 3.43),
                 (2, 0.25): (6.7e-7, 2.84), (2, 0.5): (2.7e-7, 3.38), (2, 0.75): (8.6e-8, 3.80),
                 (3, 0.25): (1.8e-6, 2.95), (3, 0.5): (7.2e-7, 3.49), (3, 0.75): (2.3e-7, 3.93)}


@pytest.mark.parametrize("n,s", sorted(BALL_LAM1_ERR))
def test_ball_lambda1_matches_jacobi_oracle(n, s):
    dom = make_domain("interval" if n == 1 else "ball", n, 1.0)
    op, ref = make_operator("rfl", s, dom), ball_rfl_eigenvalues(n, s)[0]
    err = {N: abs(eigendecompose(assemble_green_matrix(op, build_grid(dom, N))).lam[0] / ref - 1)
           for N in (32, 64)}
    measured, order = BALL_LAM1_ERR[n, s]
    assert err[64] < 2 * measured
    assert np.log2(err[32] / err[64]) >= order - 0.25


# classical lambda_1..lambda_5 relative error against (k pi / 2r)^2 at N = 64,
# grading 2, r = 1.5, as measured; the test allows twice that
CLASSICAL_LAM_ERR = [7.6e-8, 1.6e-6, 1.9e-5, 5.1e-5, 1.3e-4]


def test_classical_eigenvalues_match_the_sine_spectrum():
    dom = make_domain("interval", 1, 1.5)
    lam = eigendecompose(assemble_green_matrix(make_operator("classical", 1.0, dom),
                                               build_grid(dom, 64))).lam[:5]
    err = np.abs(lam / sfl_eigenvalue(dom, np.arange(1, 6)) - 1)
    assert np.all(err < 2 * np.array(CLASSICAL_LAM_ERR)), err


@pytest.mark.parametrize("s", [0.25, 0.5, 0.8])
def test_calibrated_rows_integrate_the_jacobi_data_exactly(s):
    # each row reproduces G_0 f for f = 2 - x^2 by construction, so this pins
    # the closed form against adaptive quad of Boggio's kernel: measured 1.2e-12
    # or better at these nodes (delta from 4.5e-3 to 1; at delta = 2.8e-5 quad
    # itself is 1.8e-10 off a 30-digit reference, which the closed form meets
    # to 7e-14).  The classical G_0 f is (1 - x^2)(11 - x^2) / 12
    grid = build_grid(DOM, 32, grading=2.0)
    op, f = make_operator("rfl", s, DOM), 2 - grid.x**2
    u = apply_G0(assemble_green_matrix(op, grid), f).values
    for i in (9, grid.N // 2, grid.N - 3):
        xi = grid.x[i]
        with warnings.catch_warnings():
            # the reference asks quad for more than roundoff allows at some nodes
            warnings.simplefilter("ignore", IntegrationWarning)
            ref = sum(quad(lambda y: rfl_green_ball(op, xi, y) * (2 - y * y), a, b,
                           epsabs=0, epsrel=1e-13, limit=400)[0] for a, b in ((-1, xi), (xi, 1)))
        assert u[i] == pytest.approx(ref, rel=1e-11, abs=0), i
    u = apply_G0(assemble_green_matrix(make_operator("classical", 1.0, DOM), grid), f).values
    exact = grid.delta * (2 - grid.delta) * (11 - grid.x**2) / 12
    np.testing.assert_allclose(u, exact, rtol=1e-13, atol=0)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("s", [0.02, 0.5, 0.99])
@pytest.mark.parametrize("grading", [1.0, 2.0, 4.0])
def test_ball_matrix_at_small_s_stays_finite(n, s, grading):
    # every entry finite and positive, the calibrated diagonal included
    dom = make_domain("ball", n, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        K = full_matrix(assemble_green_matrix(make_operator("rfl", s, dom),
                                              build_grid(dom, 24, grading=grading)))
    assert np.all(np.isfinite(K)) and np.all(K > 0)


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_rfl_offdiagonal_near_the_boundary_matches_mpmath(s):
    # grading 4, N = 512: node 0 sits at delta = 8.6e-16, where r^2 - x^2
    # formed from coordinates loses every digit: r + x_0 is 4% off delta_0,
    # and x_1 - x_0 is 8e-6 off delta_1 - delta_0; the entry is Boggio's kernel
    # at the gaps delta (2r - delta) and the distance delta_1 - delta_0, summed
    # here at 30 digits
    grid = build_grid(DOM, 512, grading=4.0)
    K = _filled(make_operator("rfl", s, DOM), grid)
    with mpmath.workdps(30):
        gap = [mpmath.mpf(d) * (2 - mpmath.mpf(d)) for d in grid.delta[:2]]
        dist = mpmath.mpf(grid.delta[1]) - mpmath.mpf(grid.delta[0])
        rho = gap[0] * gap[1] / dist**2
        C = 1 / (4 ** mpmath.mpf(s) * mpmath.gamma(s) ** 2)    # Gamma(1/2) = sqrt(pi)
        ref = C * dist ** (2 * s - 1) * mpmath.betainc(s, 0.5 - mpmath.mpf(s), 0, rho / (1 + rho))
    assert K[0, 1] == pytest.approx(float(ref), rel=1e-12, abs=0)


def test_classical_offdiagonal_near_the_boundary_matches_mpmath():
    # grading 4, N = 512: r + x_0 formed from coordinates kept no digit of
    # delta_0 (K[0, 1] was 3.9e-2 off); every entry against (r + x_i)(r - x_j) / 2r
    # formed from delta at 30 digits
    grid = build_grid(DOM, 512, grading=4.0)
    K = _filled(make_operator("classical", 1.0, DOM), grid)
    with mpmath.workdps(30):
        d = [mpmath.mpf(v) for v in grid.delta]
        plus = [dv if x < 0 else 2 - dv for dv, x in zip(d, grid.x)]
        minus = [2 - dv if x < 0 else dv for dv, x in zip(d, grid.x)]
        i, j = np.triu_indices(grid.N, 1)
        ref = np.array([float(plus[a] * minus[b] / 2) for a, b in zip(i, j)])
    np.testing.assert_allclose(K[i, j], ref, rtol=1e-14, atol=0)


@pytest.mark.parametrize("N", [1024, 1023])
def test_sfl_matrix_near_the_boundary_matches_mpmath(N):
    # grading 4: x_0 rounds to -r and x_{N-1} to r, where modes read from x
    # vanished and the outermost rows of K were exactly 0.  The entries of
    # the outermost nodes on each side, on the mirrored grid (N = 1024) and
    # on a one-block grid (N = 1023), against the series over M modes with
    # e_k(x) = sin(k pi (x + r) / 2r) and x + r formed from delta at 40 digits
    M = 256
    grid = build_grid(DOM, N, grading=4.0)
    assert grid.x[0] == -1.0 and grid.x[-1] == 1.0
    K = full_matrix(assemble_green_matrix(make_operator("sfl", 0.75, DOM, sfl_truncation=M), grid))
    with mpmath.workdps(40):
        def e(k, i):
            d = mpmath.mpf(grid.delta[i])
            return mpmath.sin(k * mpmath.pi * (d if grid.x[i] < 0 else 2 - d) / 2)

        for i, j in ((0, 0), (0, 1), (0, 2), (N - 1, N - 1), (N - 1, N - 2), (N - 1, N - 3)):
            ref = mpmath.fsum((k * mpmath.pi / 2) ** -1.5 * e(k, i) * e(k, j)
                              for k in range(1, M + 1))
            assert K[i, j] == pytest.approx(float(ref), rel=1e-12, abs=0), (i, j)


@pytest.mark.parametrize("s", [0.5, 0.75])
@pytest.mark.parametrize("N,grading", [(256, 2.0), (512, 4.0)])
def test_interval_diagonal_is_mirror_symmetric(s, N, grading):
    # the diagonal is calibrated on the left half-grid and both parity blocks
    # carry it, so every row of K, on either half, must integrate
    # f = 2 - x^2 to the closed form G_0 f; measured at most 7.8e-16 of the
    # row K w at both gradings.  At grading 4 K_ii w_i is 3.5e-11 of the row,
    # and the calibration reads K_ii through a cancellation
    grid = build_grid(DOM, N, grading=grading)
    dk = assemble_green_matrix(make_operator("rfl", s, DOM), grid)
    lam0 = 2 ** (2 * s) * gamma(1 + s) * gamma(0.5 + s) / gamma(0.5)
    a, q = s + 1.5, 2 * (1 + s) * (0.5 + s)
    x2 = grid.x**2
    exact = (grid.delta * (2 - grid.delta)) ** s / lam0 * (2 - ((a * x2 - 0.5) / q + 0.5) / a)
    u, row = apply_G0(dk, 2 - x2).values, apply_G0(dk, np.ones(N)).values
    assert np.all(np.abs(u - exact) <= 1e-14 * row)
