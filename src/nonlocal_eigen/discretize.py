"""Nystrom discretization of the Green's operator and the weighted norm.

The integral operator u(x) = int G_0(x, y) f(y) dy becomes the matrix
action u_i = sum_j K_ij w_j f_j on a quadrature grid.  Off the diagonal
K holds one kernel value per pair, by fixed Gauss-Legendre rules only;
on the ball the kernel on radial data is Boggio's angular mean, itself a
fixed theta-rule.  Every quadrature kernel (RFL on the interval and the
ball, classical on the interval) takes one diagonal rule, singularity
subtraction: K_ii is set so that each row integrates f = 2 - |x|^2/r^2
to the closed-form G_0 f.  Boggio's kernel is always formed from
boundary distances.  The SFL kernel is continuous and keeps its exact
pointwise diagonal.  On a mirrored interval grid K is kept as its two
half-grid parity blocks: the quadrature kernels fill them from N^2/4
kernel values, the SFL from the odd-k and even-k sine modes on the left
half-grid, and every product with K runs on the half grid.  A quadrature
kernel runs once over the node pairs of both blocks, in slices that keep
its temporaries in L2.  A block's SFL sine modes come from two angle
tables, joined by one stacked product; they stay within 3e-15 of the
direct sines (max |B| = 0.71 at M = 4096), and K within 1.1e-14 of
max |K| of the direct series.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gamma

import numpy as np

from .geometry import DomainKind, QuadGrid, gauss_rule, sphere_area
from .kernels import (
    OperatorKind,
    OperatorSpec,
    rfl_green_from_gaps,
    sfl_eigenfunction,
    sfl_eigenvalue,
)


def _fits(v: np.ndarray, grid: QuadGrid) -> bool:
    """Node values of one function, shape (N,), or of a block of them, (N, T)."""
    return v.ndim in (1, 2) and v.shape[0] == grid.N


@dataclass(frozen=True)
class GridFunction:
    """Values of a function at the grid nodes, or of a block of functions,
    one per column."""

    grid: QuadGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if not _fits(v, self.grid):
            raise ValueError(f"values shape {v.shape} does not match grid size {self.grid.N}")
        if not np.isfinite(v).all():
            raise ValueError("grid function contains non-finite values")
        object.__setattr__(self, "values", v)

    def columns(self) -> list[GridFunction]:
        """The functions of a block, one per column, as views; the block's
        check covers them, so none is checked again."""
        out = []
        for col in np.atleast_2d(self.values.T):
            f = object.__new__(GridFunction)
            object.__setattr__(f, "grid", self.grid)
            object.__setattr__(f, "values", col)
            out.append(f)
        return out


def as_values(f, grid: QuadGrid) -> np.ndarray:
    """Accept a GridFunction or an array of node values, (N,) or (N, T)."""
    if isinstance(f, GridFunction):
        same = f.grid is grid or (np.array_equal(f.grid.x, grid.x)
                                  and np.array_equal(f.grid.w, grid.w))
        if not same:
            raise ValueError("grid mismatch")
        return f.values
    v = np.asarray(f, dtype=float)
    if not _fits(v, grid):
        raise ValueError("grid mismatch")
    return v


def one_function(f, grid: QuadGrid, name: str = "f") -> np.ndarray:
    """Node values of one function, shape (N,), for the routes that take no
    block; a block raises ValueError naming it."""
    v = as_values(f, grid)
    if v.ndim != 1:
        raise ValueError(f"{name} must be one function of shape ({grid.N},), "
                         f"got a block of shape {v.shape}")
    return v


@dataclass(frozen=True)
class DiscreteKernel:
    """Symmetric Nystrom matrix K for the Green's operator on a grid, kept as
    blocks.

    On a mirrored grid (n = N/2) K commutes with the flip J and is stored as
    its two n x n parity blocks (E, O), E = K11 + K12 J for the even modes
    and O = K11 - K12 J for the odd ones, from the left half's rows; no
    N x N array is formed.  Any other grid stores K alone, (K,).
    """

    op: OperatorSpec
    grid: QuadGrid
    blocks: tuple[np.ndarray, ...]


# Gauss-Legendre points per panel of the ball's angular rule
PRODUCT_NODES = 16


# geometric panels of the ball's angular rule: 24 keep their ratio below
# about 3.3 down to a peak width of 1e-12, where 16 points reach roundoff
ANGLE_PANELS = 24


def rfl_green_radial(op: OperatorSpec, delta_x, delta_y, d) -> np.ndarray:
    """Mean of Boggio's kernel G(rho_x e_1, rho_y omega) over omega in S^{n-1},
    the kernel on radial functions, from boundary distances and d = |rho_x - rho_y|.

    With t^2 = d^2 + 4 rho_x rho_y sin^2(theta/2) it is a theta-integral
    against sin^{n-2}, peaked at 0 with width w ~ d / sqrt(rho_x rho_y):
    Gauss-Legendre on [0, w] and on ANGLE_PANELS geometric panels to pi.
    """
    r, n = op.domain.r, op.domain.n
    delta_x, delta_y, d = (np.asarray(v, dtype=float)[..., None] for v in (delta_x, delta_y, d))
    gap_x, gap_y = delta_x * (2 * r - delta_x), delta_y * (2 * r - delta_y)
    rr = (r - delta_x) * (r - delta_y)
    w = d / (d / np.pi + np.sqrt(rr))      # at most pi
    ends = np.concatenate([0 * w, w * (np.pi / w) ** np.linspace(0, 1, ANGLE_PANELS + 1)], axis=-1)
    lo, hi = ends[..., :-1], ends[..., 1:]
    total = 0.0
    x, wx = gauss_rule(PRODUCT_NODES)
    for u, wu in zip(0.5 * (x + 1.0), 0.5 * wx):
        theta = lo + (hi - lo) * u
        t = np.sqrt(d * d + 4.0 * rr * np.sin(theta / 2) ** 2)
        g = rfl_green_from_gaps(op, gap_x, gap_y, t) * np.sin(theta) ** (n - 2)
        total += wu * np.sum((hi - lo) * g, axis=-1)
    return total * sphere_area(n - 1) / sphere_area(n)


def _cos_from_half(h: np.ndarray, r: float) -> None:
    """cos x from h = sin(x/2)/sqrt(r), in place: 1 - 2 sin^2(x/2)."""
    np.square(h, out=h)
    h *= -2.0 * r
    h += 1.0


def _sfl_gram(op: OperatorSpec, grid: QuadGrid, n: int, k: range) -> np.ndarray:
    """B B^T with B_ik = mu_k^{-s/2} e_k(x_i), the SFL series over the modes
    k = k0 + d j, j < J, at the first n nodes (d = 2 on the half-grid, 1 on
    one block).

    e_k is read from boundary distances, never from x, which rounds to -+r
    at a strong grading: e_k(-r + delta) left of 0, and on the right
    e_k(r - delta) = (-1)^(k+1) e_k(-r + delta).  The n J sines come from
    two angle tables.  With theta = pi delta / 2r and j = W a + b, k theta
    is X_a + Y_b, X_a = d W a theta and Y_b = (k0 + d b) theta, so
    sin(k theta) = sin X_a cos Y_b + cos X_a sin Y_b: one stacked product
    of [sin X, cos X], (n, A, 2), by [cos Y; sin Y], (n, 2, W), from
    2n(A + W) sine modes in place of n J.  W is the least power of two with
    W^2 >= J, so a power-of-two J splits exactly.  Each cosine is
    1 - 2 sin^2 of the half angle, so every table entry is a value of
    sfl_eigenfunction.  The tables are freed before the Gram product.

    The bound kept: at M = 4096 the arguments reach 2048 pi, and either way
    of forming them rounds them by about 1e-12, so the unscaled modes differ
    from the direct sines by up to 1.7e-12 and B, scaled by mu_k^{-s/2}, by
    at most 3e-15 (max |B| = 0.71).
    """
    J, W = len(k), 1
    while W * W < J:
        W *= 2
    A = -(-J // W)
    X = k.step * W * np.arange(A)
    Y = np.arange(k.start, k.start + k.step * W, k.step)
    # the product's buffer is taken before the tables: taken after them, it
    # raised the peak RSS of an sfl-requests run by 1.6 MiB (heap layout)
    B = np.empty((n, A, W))
    # the sines carry the modes' 1/sqrt(r), the cosines not
    plus = grid.delta[:n, None, None]
    L = sfl_eigenfunction(op.domain, np.stack([X, X / 2], axis=-1), plus)
    R = sfl_eigenfunction(op.domain, np.stack([Y / 2, Y]), plus)
    _cos_from_half(L[..., 1], op.domain.r)
    _cos_from_half(R[:, 0], op.domain.r)
    # d W a is even (W = 1 only where J <= 1 and a = 0), so the parity of
    # k is that of Y's wavenumber, and R carries the right side's sign
    R[grid.x[:n] > 0] *= (-1.0) ** (Y + 1)
    B = np.matmul(L, R, out=B).reshape(n, A * W)[:, :J]
    del L, R
    B *= sfl_eigenvalue(op.domain, k) ** (-op.s / 2)
    return B @ B.T


# pairs per kernel call in the fill: each of the kernel's temporaries then
# holds 256 KiB, so the few alive at once stay near a 2 MiB L2
FILL_SLICE = 2 ** 15


def _pairs(n: int, N: int) -> tuple[np.ndarray, np.ndarray]:
    """The fill's node pairs (i, c), i < n, as row and column lists, row by
    row: K11's i < c < n, then on a mirrored grid (N = 2n) K12 J's
    n <= c < N - i; np.repeat builds them faster than np.triu_indices."""
    i = np.arange(n)
    sets = [(i + 1, n - 1 - i)] + ([(np.full(n, n), n - i)] if N > n else [])
    first, lengths = (np.concatenate(a) for a in zip(*sets))
    rows = np.repeat(np.tile(i, len(sets)), lengths)
    # a pair's column is its row's first column plus its place in the row
    cols = np.arange(len(rows)) - np.repeat(np.cumsum(lengths) - lengths - first, lengths)
    return rows, cols


def _fill(op: OperatorSpec, grid: QuadGrid) -> tuple[tuple[np.ndarray, ...], float, float]:
    """The blocks of K with a zero diagonal, from one kernel value per pair,
    and the least and greatest kernel value.

    On a mirrored grid (n = N/2) the N^2/4 pairs of the left half's K11 and
    of the symmetric K12 J (_pairs) give (E, O) = (K11 + K12 J, K11 - K12 J),
    K11's diagonal left 0; any other grid gives (K,).  The kernel runs in
    slices of FILL_SLICE pairs.  Each slice forms |x_i - x_c| by one rule:
    |delta_i - delta_c| for two nodes on one side, where x may have rounded
    to +-r, and x_c - x_i across.  On the ball Boggio's angular mean is the
    kernel on radial functions.
    """
    N, dl, x = grid.N, grid.delta, grid.x
    plus, minus = grid.sides
    gap, left = plus * minus, x < 0
    mirrored = grid.mirrored
    n = N // 2 if mirrored else N
    rows, cols = _pairs(n, N)

    def kernel(i, c):
        # pairs with x_i < x_c
        if op.kind is OperatorKind.CLASSICAL:
            return plus[i] * minus[c] / (2 * op.domain.r)
        dist = np.where(left[i] == left[c], np.abs(dl[i] - dl[c]), x[c] - x[i])
        if op.domain.kind is DomainKind.BALL:
            return rfl_green_radial(op, dl[i], dl[c], dist)
        return rfl_green_from_gaps(op, gap[i], gap[c], dist)

    W = np.zeros((n, N))
    lo, hi = np.inf, -np.inf
    for start in range(0, len(rows), FILL_SLICE):
        i, c = rows[start:start + FILL_SLICE], cols[start:start + FILL_SLICE]
        v = kernel(i, c)
        W[i, c] = v
        # np.minimum and np.maximum, unlike min and max, keep a NaN
        lo, hi = np.minimum(lo, v.min()), np.maximum(hi, v.max())
        del v    # before the next slice's kernel call
    # freed before the blocks are formed, which would otherwise set the
    # peak; the slice views i and c hold the pair lists too
    del rows, cols, i, c
    # (K12 J)_ij pairs node i with N - 1 - j, the mirror image of node j, so
    # W's rows fold into E's and O's upper triangles.  A block is its upper
    # triangle plus the transpose, which counts the diagonal twice; one
    # block holds the pairs i < c only, so its diagonal is 0 and stays 0
    blocks = parity_parts(W) if mirrored else (W,)
    del W
    for B in blocks:
        B += B.T
        B.flat[::n + 1] *= 0.5
    return blocks, lo, hi


def assemble_green_matrix(op: OperatorSpec, grid: QuadGrid) -> DiscreteKernel:
    """Assemble the symmetric Nystrom matrix K_ij ~ G_0(x_i, x_j) as its blocks."""
    if op.domain != grid.domain:
        raise ValueError("operator and grid live on different domains")
    if op.kind is OperatorKind.SFL:
        M = op.sfl_truncation
        if grid.mirrored:
            # mode k has parity (-1)^(k+1), so on the left half-grid K11 and
            # K12 J, formed in turn for K's least entry only, are the odd-k
            # Gram plus and minus the even-k Gram; E and O are twice those Grams
            n = grid.N // 2
            odd, even = (_sfl_gram(op, grid, n, range(p, M + 1, 2)) for p in (1, 2))
            lo = np.minimum((odd + even).min(), (odd - even).min())
            blocks = (np.multiply(odd, 2.0, out=odd), np.multiply(even, 2.0, out=even))
        else:
            blocks = (_sfl_gram(op, grid, grid.N, range(1, M + 1)),)
            lo = blocks[0].min()
        # the truncated series may dip below zero by at most the tail sum
        # (1/r) sum_{k>M} mu_k^{-s} ~ (pi/2r)^{-2s} M^{1-2s} / (r (2s-1))
        neg_tol = (np.pi / (2 * op.domain.r)) ** (-2 * op.s) \
            * M ** (1.0 - 2.0 * op.s) / (op.domain.r * (2.0 * op.s - 1.0))
    elif op.domain.kind is DomainKind.INTERVAL or op.kind is OperatorKind.RFL:
        blocks, lo, hi = _fill(op, grid)
        n = len(blocks[0])
        # singularity subtraction: the diagonal is set so that each row
        # integrates f = 2 - |x|^2/r^2 to u_f = G_0 f in closed form.  f is
        # not constant, so the torsion solve stays an independent check.  It
        # spans the k = 0, 1 radial Jacobi modes of Dyda, Kuznetsov &
        # Kwasnicki (2017), with G_0 P_k = (1 - rho^2)^s P_k / lam_k on the
        # unit ball: P_0 = 1, P_1 = a rho^2 - n/2, lam_0 = lam0, lam_1 = lam0 q
        r, dim, s = op.domain.r, op.domain.n, op.s
        dl, rho2 = grid.delta[:n], (grid.x[:n] / r) ** 2
        lam0 = 2 ** (2 * s) * gamma(1 + s) * gamma(dim / 2 + s) / gamma(dim / 2)
        a, q = s + dim / 2 + 1, (1 + s) * (dim / 2 + s) / (dim / 2)
        u_f = (dl * (2 * r - dl)) ** s / lam0 * (2 - ((a * rho2 - dim / 2) / q + dim / 2) / a)
        wf = grid.w[:n] * (2 - rho2)
        # f is even, so on a mirrored grid the row sums of K (w f) are E (w f)[:n]
        d = (u_f - blocks[0] @ wf) / wf
        for B in blocks:
            B.flat[::n + 1] += d
        # d is K11's diagonal; the fill wrote every other entry
        lo, hi = np.minimum(lo, d.min()), np.maximum(hi, d.max())
        neg_tol = 1e-12 * hi
    else:
        raise ValueError("classical kernel matrices: interval only")

    # lo carries any NaN of K, which fails this comparison too
    if not lo >= -neg_tol:
        raise AssertionError(f"negative kernel matrix entry or a non-finite one: least entry "
                             f"{lo:.3g}, allowed down to {-neg_tol:.3g}")
    return DiscreteKernel(op=op, grid=grid, blocks=blocks)


def parity_parts(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """y_top + J y_bot and y_top - J y_bot, the even and odd parts of values
    on a mirrored grid, each on the left half-grid; along the last axis, so
    each row of a block is split."""
    n = y.shape[-1] // 2
    top, bot = y[..., :n], y[..., :n - 1:-1]
    return top + bot, top - bot


def apply_G0(dk: DiscreteKernel, f) -> GridFunction:
    """u_i = sum_j K_ij w_j f_j, the discrete Green's operator action, on one
    function or on each column of a block in one pass over K.

    The block is multiplied as rows, y^T K, one row per function, which
    BLAS streams faster than K y for a few columns; K is symmetric.  On a
    mirrored grid, with a and b the parity parts of y = w f, K y is
    (E a + O b)/2 on top and J (E a - O b)/2 below: two half-grid products.
    """
    grid = dk.grid
    v = as_values(f, grid)
    y = grid.w * np.atleast_2d(v.T)
    if len(dk.blocks) == 1:
        u = y @ dk.blocks[0]
    else:
        E, O = dk.blocks
        a, b = parity_parts(y)
        ea, ob = a @ E, b @ O
        u = np.concatenate([ea + ob, (ea - ob)[:, ::-1]], axis=1)
        u *= 0.5
    return GridFunction(grid, u.T.reshape(v.shape))


def weighted_norm(f, grid: QuadGrid, alpha: float):
    """The boundary-weighted L1 norm sum w |f| delta^alpha: a float for one
    function, an array of T for a block of T columns."""
    v = as_values(f, grid)
    norm = np.sum(grid.w * np.abs(v).T * grid.delta**alpha, axis=-1)
    return float(norm) if v.ndim == 1 else norm
