"""An independent spectral oracle for the restricted fractional Laplacian on the ball.

Dyda, Kuznetsov & Kwasnicki, "Fractional Laplace operator and Meijer
G-function", Constr. Approx. 45 (2017): with t = 2 rho^2 - 1,

    (-Delta)^s [(1 - rho^2)^s P_k^{(s, n/2-1)}(t)]
        = 2^{2s} Gamma(1+s+k) Gamma(n/2+s+k) / (k! Gamma(n/2+k)) P_k^{(s, n/2-1)}(t)

on the unit ball in R^n.  Galerkin in that basis is eigh(D, M) with
D_jk = mu_k int (1-t)^s (1+t)^{n/2-1} P_j P_k and
M_jk = int (1-t)^{2s} (1+t)^{n/2-1} P_j P_k, both by Gauss-Jacobi rules.
Since 1 - rho^2 = (1 - t)/2, the eigenvalues pick up a factor 2^s.
"""

import numpy as np
from scipy.linalg import eigh
from scipy.special import eval_jacobi, gammaln, roots_jacobi


def ball_rfl_eigenvalues(n: int, s: float, K: int = 80) -> np.ndarray:
    """The radial Dirichlet eigenvalues of (-Delta)^s on the unit ball in R^n,
    ascending, from K basis functions (n = 1 gives the even interval modes)."""
    b, k = n / 2 - 1, np.arange(K)
    mu = 2 ** (2 * s) * np.exp(gammaln(1 + s + k) + gammaln(n / 2 + s + k)
                               - gammaln(k + 1) - gammaln(n / 2 + k))

    def gram(a):
        t, w = roots_jacobi(K, a, b)
        P = eval_jacobi(k[:, None], s, b, t)
        return (P * w) @ P.T

    return 2 ** s * eigh(gram(s) * mu, gram(2 * s), eigvals_only=True)
