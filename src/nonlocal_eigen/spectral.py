"""Eigendecomposition of the discrete Green's operator and the solution
operator for the shifted problem.

The symmetrized matrix A = W^{1/2} K W^{1/2} is diagonalized once; its
eigenvalues mu_j are the discrete eigenvalues of the Green's operator
and lambda_j = 1/mu_j those of the differential operator.  All
solve/project operations act through the retained eigenpairs, so the
resolvent formula u = sum <f, phi_j> phi_j / (lambda_j - lambda) is
exact in the discrete model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg

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


def eigendecompose(dk: DiscreteKernel) -> SpectralData:
    """Dense symmetric eigendecomposition of the Nystrom operator.

    Eigenvalues of A below 1e-14 * mu_max are quadrature noise and
    are discarded.  phi_1 is sign-fixed nonnegative; every other phi_j
    has its first significantly-nonzero component positive.
    """
    w = dk.grid.w
    sw = np.sqrt(w)
    A = dk.matrix * sw[:, None] * sw[None, :]
    asym = np.max(np.abs(A - A.T)) / max(np.max(np.abs(A)), 1e-300)
    if asym > 1e-10:
        raise ValueError(f"symmetrized kernel is not symmetric (relative residual {asym:.2e})")
    mu, psi = scipy.linalg.eigh(A)
    mu, psi = mu[::-1], psi[:, ::-1]
    keep = mu > 1e-14 * mu[0]
    n_discarded = int(np.sum(~keep))
    mu, psi = mu[keep], psi[:, keep]
    lam = 1.0 / mu
    phi = psi / sw[:, None]
    # deterministic signs
    for j in range(phi.shape[1]):
        col = phi[:, j]
        if j == 0:
            if np.sum(w * col) < 0:
                phi[:, j] = -col
        else:
            nz = np.nonzero(np.abs(col) > 1e-10 * np.max(np.abs(col)))[0]
            if len(nz) and col[nz[0]] < 0:
                phi[:, j] = -col
    return SpectralData(dk=dk, lam=lam, phi=phi, n_discarded=n_discarded)


def lambda_context(sd: SpectralData, lam: float) -> LambdaContext:
    """Locate a regular lambda relative to the discrete spectrum.

    Raises SpectralHit when lambda lies within TAU_MULT max(|lambda|, lambda_1)
    of an eigenvalue.
    """
    lam = float(lam)
    d = np.abs(sd.lam - lam)
    d_sigma = float(np.min(d))
    if d_sigma <= TAU_MULT * max(abs(lam), sd.lam[0]):
        j = int(np.argmin(d))
        raise SpectralHit(f"lambda={lam} is within TAU_MULT of eigenvalue "
                          f"lambda_{j + 1}={sd.lam[j]}; regular context demanded")
    return LambdaContext(sd=sd, lam=lam, I=int(np.sum(sd.lam <= lam)), d_sigma=d_sigma)


def apply_Glambda(sd: SpectralData, ctx: LambdaContext, f) -> GridFunction:
    """Spectral solution operator of (L - lambda): all retained modes."""
    c = sd.coeffs(f)
    return sd.synth(c / (sd.lam - ctx.lam))


def apply_Glambda_neumann(dk: DiscreteKernel, ctx: LambdaContext, f) -> GridFunction:
    """Fixed-point route u <- lambda G_0 u + G_0 f; contracts for |lambda| < lambda_1.

    Stops at a weighted residual of 1e-12, within 10000 steps.
    """
    sd = ctx.sd
    lam = ctx.lam
    if abs(lam) >= sd.lam[0]:
        raise ValueError(f"Neumann iteration requires |lambda| < lambda_1 = {sd.lam[0]}")
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


def spectral_norm_Hk(sd: SpectralData, u, k: float) -> float:
    """Push-forward spectral norm (sum lambda_j^k <u, phi_j>^2)^{1/2}."""
    if k < 0:
        raise ValueError("spectral norm order k must be >= 0")
    c = sd.coeffs(u)
    return float(np.sqrt(np.sum(sd.lam**k * c**2)))
