"""Reference kernels that the tests compare the package against.

The sine series of the SFL Green's function and the Abel-damped Martin
series are the definitions that the package's closed forms (the
polylogarithm Martin kernel, the Nystrom matrix) must reproduce; the
classical interval Green's function is the coordinate form of the
classical fill.  ``green_function`` dispatches on the operator, and
``full_matrix`` rebuilds the N x N Nystrom matrix from a kernel's blocks.
"""

from math import pi

import numpy as np

from nonlocal_eigen.kernels import (
    OperatorKind,
    rfl_green_ball,
    sfl_eigenfunction,
    sfl_eigenvalue,
)


def classical_green_interval(domain, x, y):
    """Green's function of -d^2/dx^2 on (-r, r): (r - max)(r + min) / 2r."""
    r = domain.r
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return (r - np.maximum(x, y)) * (r + np.minimum(x, y)) / (2.0 * r)


def sfl_green_interval(op, x, y):
    """Truncated spectral series for the SFL Green's function.

    sum_{k<=M} phi_k(x) phi_k(y) mu_k^{-s}; absolutely convergent for
    s > 1/2 (terms ~ k^{-2s}).
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    k = np.arange(1, op.sfl_truncation + 1)
    weights = sfl_eigenvalue(op.domain, k) ** (-op.s)
    r = op.domain.r
    px = sfl_eigenfunction(op.domain, k, x[..., None] + r)
    py = sfl_eigenfunction(op.domain, k, y[..., None] + r)
    return np.sum(weights * px * py, axis=-1)


def sfl_martin_series_abel(op, z: float, y, q: float) -> np.ndarray:
    """Raw Abel-damped partial sum of the Martin series.

    sum_{k<=K} d_k(z) phi_k(y) mu_k^{-s} q^k with K = ceil(40 / (1 - q)),
    so the geometric tail is negligible.
    """
    r, s = op.domain.r, op.s
    n_terms = int(np.ceil(40.0 / (1.0 - q)))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    k = np.arange(1, n_terms + 1)
    d_k = (k * pi / (2.0 * r)) / np.sqrt(r)
    if z > 0:
        d_k = d_k * (-1.0) ** (k + 1)
    weights = d_k * sfl_eigenvalue(op.domain, k) ** (-s) * q ** k
    return np.sum(weights * sfl_eigenfunction(op.domain, k, y[:, None] + r), axis=1)


def green_function(op, x, y):
    """The Green's function of the chosen operator off the diagonal (interval only
    for the SFL and the classical Laplacian)."""
    if op.kind is OperatorKind.RFL:
        return rfl_green_ball(op, x, y)
    if op.kind is OperatorKind.SFL:
        return sfl_green_interval(op, x, y)
    return classical_green_interval(op.domain, x, y)


def mirror_matrix(K11, K12J):
    """The J-symmetric N x N matrix with left half rows [K11, (K12 J) J]."""
    return np.block([[K11, K12J[:, ::-1]], [K12J[::-1], K11[::-1, ::-1]]])


def full_matrix(dk):
    """The N x N matrix K of a DiscreteKernel: its one block, or from the parity
    blocks E and O, K11 = (E + O)/2 and K12 J = (E - O)/2."""
    if len(dk.blocks) == 1:
        return dk.blocks[0]
    E, O = dk.blocks
    return mirror_matrix(0.5 * (E + O), 0.5 * (E - O))
