"""Eigendecomposition of the discrete Green's operator and the solution
operator for the shifted problem.

The symmetrized matrix A = W^{1/2} K W^{1/2} is diagonalized once; its
eigenvalues mu_j are the discrete eigenvalues of the Green's operator
and lambda_j = 1/mu_j those of the differential operator.  On a mirrored
interval grid A commutes with the flip x -> -x and is diagonalized as
two half-size blocks, one for the even modes and one for the odd modes;
each mode carries its parity.  All
solve/project operations act through the retained eigenpairs, so the
resolvent formula u = sum <f, phi_j> phi_j / (lambda_j - lambda) is
exact in the discrete model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .discretize import DiscreteKernel, GridFunction, as_values
from .geometry import QuadGrid

# relative distance that puts lambda on the spectrum and joins eigenvalues into a group
TAU_MULT = 1e-6


class SpectralHit(ValueError):
    """A spectral parameter lambda lies within TAU_MULT of the discrete spectrum."""


@dataclass(frozen=True)
class SpectralData:
    """Discrete eigenpairs, weighted-orthonormal, eigenvalues ascending."""

    dk: DiscreteKernel
    lam: np.ndarray          # lambda_j = 1/mu_j, ascending
    phi: np.ndarray          # (N, m); column j holds phi_j at the nodes
    n_discarded: int
    parity: np.ndarray       # (m,); +1 even, -1 odd under x -> -x, 0 where not split

    @property
    def grid(self) -> QuadGrid:
        return self.dk.grid

    @property
    def m(self) -> int:
        return len(self.lam)

    def coeffs(self, f) -> np.ndarray:
        """Weighted spectral coefficients <f, phi_j>_W."""
        v = as_values(f, self.grid)
        return self.phi.T @ (self.grid.w * v)

    def synth(self, c: np.ndarray, modes=slice(None)) -> GridFunction:
        """sum_j c_j phi_j over the selected modes (all by default)."""
        return GridFunction(self.grid, self.phi[:, modes] @ c)

    @cached_property
    def groups(self) -> list[np.ndarray]:
        """Indices grouped by eigenvalue multiplicity (relative gap TAU_MULT)."""
        breaks = np.where(np.diff(self.lam) > TAU_MULT * self.lam[1:])[0]
        return np.split(np.arange(self.m), breaks + 1)

    def group(self, i: int) -> np.ndarray:
        """Mode indices of the i-th eigenvalue group, i 1-based."""
        if not 1 <= i <= len(self.groups):
            raise ValueError(f"eigenvalue group {i} out of range 1..{len(self.groups)}")
        return self.groups[i - 1]


@dataclass(frozen=True)
class LambdaContext:
    """Position of a regular spectral parameter lambda relative to the spectrum."""

    sd: SpectralData = field(repr=False)
    lam: float
    I: int                  # modes below lambda
    d_sigma: float          # distance to the spectrum


def _parity_blocks(A: np.ndarray, grid: QuadGrid, scale: float) -> list[tuple[np.ndarray, int]]:
    """The blocks that ``eigh`` diagonalizes, each with the parity of its modes.

    On a mirrored grid a matrix that commutes with the flip J, to 1e-10 of
    ``scale``, splits into A11 + A12 J (even modes, +1) and A11 - A12 J (odd
    modes, -1) on the left half-grid; any other matrix is one block (0).
    """
    n = grid.N // 2
    # A - JAJ is J-antisymmetric, so its upper half holds its largest entry
    if grid.mirrored and np.max(np.abs(A[:n] - A[::-1, ::-1][:n])) <= 1e-10 * scale:
        top, flip = A[:n, :n], A[:n, n:][:, ::-1]
        return [(top + flip, 1), (top - flip, -1)]
    return [(A, 0)]


def eigendecompose(dk: DiscreteKernel) -> SpectralData:
    """Dense symmetric eigendecomposition of the Nystrom operator.

    A = W^{1/2} K W^{1/2} is diagonalized by LAPACK's ``dsyevd`` (divide and
    conquer, ``numpy.linalg.eigh``, lower triangle).  On a mirrored interval
    grid a J-symmetric A (J the flip x -> -x) is diagonalized as two
    half-size blocks, A11 + A12 J for the even modes and A11 - A12 J for the
    odd ones; each eigenvector u lifts to [u; +-Ju] / sqrt(2), and
    ``parity`` records +1 or -1 per mode.  Any other A is one block, with
    parity 0.  The spectra merge into one descending mu list.  Eigenvalues
    of A below 1e-14 * mu_max are quadrature noise and are discarded.  Signs
    are fixed in one vectorized pass: phi_1 has sum w phi_1 >= 0, and every
    other phi_j has its first entry above 1e-10 max|phi_j| positive.
    """
    w = dk.grid.w
    sw = np.sqrt(w)
    A = dk.matrix * sw[:, None]
    A *= sw
    if not np.all(np.isfinite(A)):
        raise ValueError("symmetrized kernel has non-finite entries")
    scale = max(np.max(np.abs(A)), 1e-300)
    blocks = _parity_blocks(A, dk.grid, scale)
    del A
    # each block's spectrum descending, then one stable merge, which keeps a
    # single block in LAPACK's order
    mus, psis, signs = [], [], []
    for B, sign in blocks:
        # a J-symmetric A is symmetric if and only if both its blocks are
        asym = np.max(np.abs(B - B.T)) / scale
        if asym > 1e-10:
            raise ValueError(f"symmetrized kernel is not symmetric (relative residual {asym:.2e})")
        mu_b, psi_b = np.linalg.eigh(B)
        mus.append(mu_b[::-1])
        psis.append(psi_b[:, ::-1])
        signs.append(np.full(len(mu_b), sign))
    del blocks, B
    mu = np.concatenate(mus)
    order = np.argsort(-mu, kind="stable")
    mu = mu[order]
    # mu descends, so the kept modes are a prefix, and a prefix of each block
    m = int(np.sum(mu > 1e-14 * mu[0]))
    parity = np.concatenate(signs)[order][:m]
    # the column of phi that each block's modes go to; the blocks have equal size
    N, n = dk.grid.N, len(psis[0])
    phi = np.empty((N, m))
    for cols, psi_b in zip(np.split(np.argsort(order), len(psis)), psis):
        cols = cols[cols < m]
        phi[:n, cols] = psi_b[:, :len(cols)]
    del psis
    # the lift [u; +-Ju] / sqrt(2) of a half-size block; one block has n = N
    if n < N:
        np.multiply(phi[n - 1::-1], parity, out=phi[n:])
    phi /= (sw * np.sqrt(N / n))[:, None]
    # deterministic signs: the first significant entry of each column, and
    # phi_1's weighted sum
    a = np.abs(phi)
    lead = phi[np.argmax(a > 1e-10 * a.max(axis=0), axis=0), np.arange(m)]
    lead[:1] = w @ phi[:, :1]
    phi *= np.where(lead < 0, -1.0, 1.0)
    return SpectralData(dk=dk, lam=1.0 / mu[:m], phi=phi, n_discarded=len(mu) - m, parity=parity)


def lambda_context(sd: SpectralData, lam: float) -> LambdaContext:
    """Locate a regular lambda relative to the discrete spectrum.

    Raises SpectralHit when lambda lies within TAU_MULT max(|lambda|, lambda_1)
    of an eigenvalue, and ValueError when it is not finite.
    """
    lam = float(lam)
    if not np.isfinite(lam):
        raise ValueError(f"lambda must be finite, got {lam}")
    d = np.abs(sd.lam - lam)
    d_sigma = float(np.min(d))
    if d_sigma <= TAU_MULT * max(abs(lam), sd.lam[0]):
        j = int(np.argmin(d))
        raise SpectralHit(f"lambda={lam} is within TAU_MULT of eigenvalue "
                          f"lambda_{j + 1}={sd.lam[j]}; regular context demanded")
    return LambdaContext(sd=sd, lam=lam, I=int(np.sum(sd.lam <= lam)), d_sigma=d_sigma)


def apply_Glambda(ctx: LambdaContext, f) -> GridFunction:
    """Spectral solution operator of (L - lambda) on ctx's spectrum: all retained modes."""
    sd = ctx.sd
    return sd.synth(sd.coeffs(f) / (sd.lam - ctx.lam))


def apply_Glambda_neumann(ctx: LambdaContext, f) -> GridFunction:
    """Fixed-point route u <- lambda G_0 u + G_0 f with the kernel of ctx's
    spectrum; contracts for |lambda| < lambda_1.

    Stops at a weighted residual of 1e-12, within 10000 steps.
    """
    sd, lam = ctx.sd, ctx.lam
    if abs(lam) >= sd.lam[0]:
        raise ValueError(f"Neumann iteration requires |lambda| < lambda_1 = {sd.lam[0]}")
    dk = sd.dk
    w = dk.grid.w
    G0f = dk.matrix @ (w * as_values(f, dk.grid))
    u = G0f.copy()
    for _ in range(10_000):
        unew = lam * (dk.matrix @ (w * u)) + G0f
        res = np.sqrt(np.sum(w * (unew - lam * (dk.matrix @ (w * unew)) - G0f) ** 2))
        u = unew
        if res <= 1e-12:
            return GridFunction(dk.grid, u)
    raise RuntimeError(f"Neumann iteration did not reach tol=1e-12 in 10000 "
                       f"iterations (residual {res:.3e})")


def project_perp(sd: SpectralData, i: int, f) -> GridFunction:
    """f - P_E f, with E the eigenspaces of groups 1..i."""
    v = as_values(f, sd.grid)
    E = slice(sd.group(i)[-1] + 1)
    return GridFunction(sd.grid, v - sd.synth(sd.coeffs(v)[E], E).values)


def apply_Glambda_perp(sd: SpectralData, i: int, lam: float, f_perp) -> GridFunction:
    """Solution operator of (L - lambda) on the complement of E, the groups 1..i.

    Well-defined and uniformly bounded as lambda approaches the top of E,
    up to lambda_i itself, since only the modes above E act; lambda must stay
    TAU_MULT below the first eigenvalue above E.  The input must be
    orthogonal to E up to 1e-8 of its weighted L2 norm.
    """
    I = int(sd.group(i)[-1]) + 1
    if I < sd.m and lam >= sd.lam[I] * (1.0 - TAU_MULT):
        raise SpectralHit(f"lambda={lam} reaches lambda_{I + 1}={sd.lam[I]}, "
                          f"the first eigenvalue above E")
    v = as_values(f_perp, sd.grid)
    c = sd.coeffs(v)
    scale = np.sqrt(np.sum(sd.grid.w * v**2))
    if scale > 0 and np.max(np.abs(c[:I])) > 1e-8 * scale:
        raise ValueError("input is not orthogonal to the eigenspace E")
    return sd.synth(c[I:] / (sd.lam[I:] - lam), slice(I, None))
