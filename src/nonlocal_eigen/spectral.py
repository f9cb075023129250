"""Eigendecomposition of the discrete Green's operator and the solution
operator for the shifted problem.

The symmetrized matrix A = W^{1/2} K W^{1/2} is diagonalized once; its
eigenvalues mu_j are the discrete eigenvalues of the Green's operator
and lambda_j = 1/mu_j those of the differential operator.  On a mirrored
interval grid A commutes with the flip x -> -x and is diagonalized as
its two half-size parity blocks, one for the even modes and one for the
odd modes; each mode carries its parity, and the coefficient and
synthesis products run on the half grid.  Every product takes one
function or a block of them, one per column, in one pass over phi.
The coefficients of the Martin basis are taken once per spectrum, so
those of boundary data M(h) need no pass, and a spectrum keeps those of
each single function it has been asked for, so a function it has seen
needs none either.  All solve/project operations act through the
retained eigenpairs, so the resolvent formula
u = sum <f, phi_j> phi_j / (lambda_j - lambda) is exact in the discrete
model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .boundary import martin_basis
from .discretize import (
    DiscreteKernel,
    GridFunction,
    apply_G0,
    as_values,
    one_function,
    parity_parts,
)
from .geometry import QuadGrid

# relative distance that puts lambda on the spectrum and joins eigenvalues into a group
TAU_MULT = 1e-6

# single functions whose coefficients a spectrum keeps; the oldest goes first
COEFF_MEMO_SIZE = 32


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
    # read-only coefficients of single functions, keyed by their node values' bytes
    _coeff_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def grid(self) -> QuadGrid:
        return self.dk.grid

    @property
    def m(self) -> int:
        return len(self.lam)

    def coeffs(self, f) -> np.ndarray:
        """Weighted spectral coefficients <f, phi_j>_W, shape (m,) for one
        function and (m, T) for a block of T columns, in one pass over phi.

        One function's coefficients are kept, read-only, keyed by its exact
        float64 node values, so a function this spectrum has seen takes no
        pass; a content key also catches a fresh array of the same values and
        an array changed in place.  At most COEFF_MEMO_SIZE are kept, the
        oldest evicted first; a block is never kept.

        The block is multiplied as rows, one per function, as in
        ``apply_G0``.  With two parity blocks, phi's bottom half is the mirror
        image of its top half times the parity, so each mode pairs the top half
        with the even or the odd part of y = w f: one product on the half grid,
        against the even parts of every function and their odd parts.
        """
        v = as_values(f, self.grid)
        memo = self._coeff_memo
        key = v.tobytes() if v.ndim == 1 else None
        if key in memo:
            return memo[key]
        y = self.grid.w * np.atleast_2d(v.T)
        if len(self.dk.blocks) == 2:
            n, T = self.grid.N // 2, len(y)
            c = np.concatenate(parity_parts(y)) @ self.phi[:n]
            c = np.where(self.parity > 0, c[:T], c[T:])
        else:
            c = y @ self.phi
        c = c.T.reshape(c.shape[1:] + v.shape[1:])
        if key is not None:
            c.setflags(write=False)
            if len(memo) >= COEFF_MEMO_SIZE:
                del memo[next(iter(memo))]
            memo[key] = c
        return c

    def synth(self, c: np.ndarray, modes=slice(None)) -> GridFunction:
        """sum_j c_j phi_j over the selected modes (all by default), for
        coefficients of shape (k,) or, one function per column, (k, T).

        With two parity blocks, the top half is sum_j c_j phi_j[:n] and the
        bottom half the mirror image of sum_j parity_j c_j phi_j[:n].
        """
        b = np.atleast_2d(c.T)
        if len(self.dk.blocks) == 2:
            n, T = self.grid.N // 2, len(b)
            t = np.concatenate([b, b * self.parity[modes]]) @ self.phi[:n, modes].T
            u = np.concatenate([t[:T], t[T:, ::-1]], axis=1)
        else:
            u = b @ self.phi[:, modes].T
        return GridFunction(self.grid, u.T.reshape(u.shape[1:] + c.shape[1:]))

    @cached_property
    def martin_basis(self) -> np.ndarray:
        """``boundary.martin_basis`` of the spectrum's operator and grid, read-only,
        evaluated once per spectrum: one row M(e_z) per end z."""
        B = martin_basis(self.dk.op, self.grid)
        B.setflags(write=False)
        return B

    @cached_property
    def martin_coeffs(self) -> np.ndarray:
        """<M(e_z), phi_j>_W = mu_j D_gamma phi_j(z), the weighted coefficients of
        the Martin basis, read-only, taken once per spectrum in one pass: (m, 2)
        on the interval, one column per end, and (m, 1) on the ball.  The
        coefficients of M(h) are then ``martin_coeffs @ boundary_values(op, h)``.
        """
        c = self.coeffs(self.martin_basis.T)
        c.setflags(write=False)
        return c

    @cached_property
    def groups(self) -> list[np.ndarray]:
        """Indices grouped by eigenvalue multiplicity (relative gap TAU_MULT);
        a group never joins an even mode with an odd one."""
        breaks = np.where((np.diff(self.lam) > TAU_MULT * self.lam[1:])
                          | (self.parity[1:] != self.parity[:-1]))[0]
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


def eigendecompose(dk: DiscreteKernel) -> SpectralData:
    """Dense symmetric eigendecomposition of the Nystrom operator.

    A = W^{1/2} K W^{1/2} is diagonalized by LAPACK's ``dsyevd`` (divide and
    conquer, ``numpy.linalg.eigh``, lower triangle), one kernel block at a
    time, and a block's position gives its modes' ``parity``.  On a mirrored
    interval grid the blocks are (E, O) (J the flip x -> -x), each scaled by
    W^{1/2} of the left half-grid on both sides; each eigenvector u lifts to
    [u; +-Ju] / sqrt(2), with parity +1 for E's modes and -1 for O's.  A
    one-block kernel, with parity 0, is any other grid's or one built by
    hand.  Each scaled block must be finite and symmetric to 1e-10 of its
    largest entry.  The spectra merge into one descending mu list; those
    below 1e-14 * mu_max are quadrature noise and are discarded.  One rule
    signs every mode, phi_1 included: psi_j = W^{1/2} phi_j has its first
    entry on the top half above 1e-3 max|psi_j| positive.  ``eigh`` returns
    psi to about eps |psi| per entry, so that entry keeps its digits at every
    grading; phi's first entries, at nodes of tiny weight, may keep none.
    """
    w, N, n = dk.grid.w, dk.grid.N, len(dk.blocks[0])
    sw = np.sqrt(w[:n])
    # each block's modes, finished as eigh returns them, descending, side by
    # side in T; then one stable merge, which keeps one block in LAPACK's order
    T = np.empty((n, len(dk.blocks) * n))
    mus = []
    for K, out in zip(dk.blocks, np.hsplit(T, len(dk.blocks))):
        A = K * sw[:, None]
        A *= sw
        if not np.all(np.isfinite(A)):
            raise ValueError("symmetrized kernel has non-finite entries")
        # a J-symmetric K is symmetric if and only if both its blocks are
        asym = np.max(np.abs(A - A.T)) / max(np.max(np.abs(A)), 1e-300)
        if asym > 1e-10:
            raise ValueError(f"symmetrized kernel is not symmetric (relative residual {asym:.2e})")
        mu_b, psi = np.linalg.eigh(A)
        del A
        mus.append(mu_b[::-1])
        # the sign rule on psi, with out as scratch for |psi|; out then takes
        # phi's values, its columns reversed so that they descend
        a = np.abs(psi, out=out)
        lead = psi[np.argmax(a > 1e-3 * a.max(axis=0), axis=0), np.arange(n)]
        psi *= np.where(lead < 0, -1.0, 1.0)
        np.divide(psi, (sw * np.sqrt(N / n))[:, None], out=out[:, ::-1])
        del psi
    mu = np.concatenate(mus)
    order = np.argsort(-mu, kind="stable")
    mu = mu[order]
    # mu descends, so the kept modes are a prefix, and a prefix of each block
    m = int(np.sum(mu > 1e-14 * mu[0]))
    parity = np.repeat((1, -1) if len(dk.blocks) == 2 else (0,), n)[order][:m]
    phi = np.empty((N, m))
    # mode="clip" writes into phi itself; the default "raise" buffers out
    np.take(T, order[:m], axis=1, out=phi[:n], mode="clip")
    # the lift [u; +-Ju] / sqrt(2) of a half-size block (w equals its mirror
    # image, so the bottom half is divided too); one block has n = N
    if n < N:
        np.multiply(phi[n - 1::-1], parity, out=phi[n:])
    return SpectralData(dk=dk, lam=1.0 / mu[:m], phi=phi, n_discarded=len(mu) - m, parity=parity)


def lambda_context(sd: SpectralData, lam: float) -> LambdaContext:
    """Locate a regular lambda relative to the discrete spectrum.

    Raises SpectralHit when lambda lies within TAU_MULT max(|lambda|, lambda_1)
    of an eigenvalue, and ValueError when it is not finite.
    """
    lam = float(lam)
    if not math.isfinite(lam):
        raise ValueError(f"lambda must be finite, got {lam}")
    d = np.abs(sd.lam - lam)
    d_sigma = float(d.min())
    if d_sigma <= TAU_MULT * max(abs(lam), sd.lam[0]):
        j = int(np.argmin(d))
        raise SpectralHit(f"lambda={lam} is within TAU_MULT of eigenvalue "
                          f"lambda_{j + 1}={sd.lam[j]}; regular context demanded")
    return LambdaContext(sd=sd, lam=lam, I=int(np.count_nonzero(sd.lam <= lam)), d_sigma=d_sigma)


def apply_Glambda(ctx: LambdaContext, f) -> GridFunction:
    """Spectral solution operator of (L - lambda) on ctx's spectrum: all retained
    modes, on one function or on each column of a block."""
    sd = ctx.sd
    return sd.synth((sd.coeffs(f).T / (sd.lam - ctx.lam)).T)


def apply_Glambda_neumann(ctx: LambdaContext, f) -> GridFunction:
    """Fixed-point route u <- lambda G_0 u + G_0 f with the kernel of ctx's
    spectrum; contracts for |lambda| < lambda_1.

    f is one function; a block raises ValueError.  Stops at a weighted
    residual of 1e-12, within 10000 steps.
    """
    sd, lam = ctx.sd, ctx.lam
    if abs(lam) >= sd.lam[0]:
        raise ValueError(f"Neumann iteration requires |lambda| < lambda_1 = {sd.lam[0]}")
    dk = sd.dk
    w = dk.grid.w
    G0f = apply_G0(dk, one_function(f, dk.grid)).values
    u = lam * apply_G0(dk, G0f).values + G0f
    for _ in range(10_000):
        # the matvec that measures u's residual also makes the next iterate
        nxt = lam * apply_G0(dk, u).values + G0f
        res = np.sqrt(np.sum(w * (u - nxt) ** 2))
        if res <= 1e-12:
            return GridFunction(dk.grid, u)
        u = nxt
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
    up to lambda_i itself, since only the modes above E act; lambda must be
    finite and stay TAU_MULT below the first eigenvalue above E.  The input is
    one function, orthogonal to E up to 1e-8 of its weighted L2 norm.
    """
    if not math.isfinite(lam):
        raise ValueError(f"lambda must be finite, got {lam}")
    I = int(sd.group(i)[-1]) + 1
    if I < sd.m and lam >= sd.lam[I] * (1.0 - TAU_MULT):
        raise SpectralHit(f"lambda={lam} reaches lambda_{I + 1}={sd.lam[I]}, "
                          f"the first eigenvalue above E")
    v = one_function(f_perp, sd.grid, "f_perp")
    c = sd.coeffs(v)
    scale = np.sqrt(np.sum(sd.grid.w * v**2))
    if scale > 0 and np.max(np.abs(c[:I])) > 1e-8 * scale:
        raise ValueError("input is not orthogonal to the eigenspace E")
    return sd.synth(c[I:] / (sd.lam[I:] - lam), slice(I, None))
