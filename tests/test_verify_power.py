"""Planted defects that `verify` must catch.

Each row plants one defect in process, by monkeypatching a named function or
constant, builds a fresh ``VerifySuite(N=256)`` and runs only the checks the
row names; each of them must fail.  Defects that no check catches yet are not
asserted here: a check that closes one adds its row.
"""

import dataclasses

import numpy as np
import pytest

from nonlocal_eigen import boundary, discretize, kernels, limits, solver, verify
from nonlocal_eigen.kernels import OperatorKind
from nonlocal_eigen.verify import VerifySuite


def _boggio_constant(monkeypatch):
    boggio = kernels._boggio_constant
    monkeypatch.setattr(kernels, "_boggio_constant", lambda n, s: boggio(n, s) * (1 + 1e-4))


def _martin_basis(monkeypatch):
    basis = boundary.martin_basis
    monkeypatch.setattr(boundary, "martin_basis", lambda op, grid: basis(op, grid) * 1.001)


def _rfl_martin_kernel(monkeypatch):
    martin = boundary.martin_from_gaps

    def planted(op, gap, dist):
        return martin(op, gap, dist) * (1.01 if op.kind is OperatorKind.RFL else 1.0)

    monkeypatch.setattr(boundary, "martin_from_gaps", planted)


def _eigenvalues(monkeypatch):
    decompose = verify.eigendecompose

    def planted(dk):
        sd = decompose(dk)
        return dataclasses.replace(sd, lam=sd.lam * 1.0001)

    monkeypatch.setattr(verify, "eigendecompose", planted)
    monkeypatch.setattr(limits, "eigendecompose", planted)


def _sfl_sine_phase(monkeypatch):
    # a 1e-5 relative phase error in every sine mode the SFL assembly reads:
    # its angle-table sines, and the half-angle sines its cosines come from
    sine = discretize.sfl_eigenfunction
    monkeypatch.setattr(discretize, "sfl_eigenfunction",
                        lambda domain, k, plus: sine(domain, k, plus * (1 + 1e-5)))


def _dropped_lambda(monkeypatch):
    # c_g + lambda c_h becomes c_g + c_h: each rung's c_g gains (1 - lambda) c_h,
    # as a (T, m) block that broadcasts against the rungs
    solve = solver._solve

    def planted(ctxs, data, split_at, mask):
        gv, v_h, c_g, c_h = data
        lams = np.array([[ctx.lam] for ctx in ctxs])
        return solve(ctxs, (gv, v_h, c_g + (1.0 - lams) * c_h, c_h), split_at, mask)

    monkeypatch.setattr(solver, "_solve", planted)


ROWS = {
    "boggio_constant": (_boggio_constant, ["kernel_exactness", "boundary_exponent_vanishes",
                                           "large_solution_classical_limit"]),
    "martin_basis": (_martin_basis, ["martin_constant"]),
    "rfl_martin_kernel": (_rfl_martin_kernel, ["martin_constant"]),
    "eigenvalues": (_eigenvalues, ["sfl_spectrum", "neumann_vs_spectral",
                                   "notion_equivalence", "poincare_equality_phi1"]),
    "sfl_sine_phase": (_sfl_sine_phase, ["sfl_spectrum"]),
    "dropped_lambda": (_dropped_lambda, ["fredholm_blowup_rate"]),
}


@pytest.mark.parametrize("row", ROWS)
def test_planted_defect_fails_its_checks(row, monkeypatch):
    plant, checks = ROWS[row]
    plant(monkeypatch)
    suite = VerifySuite(N=256)
    results = [suite.run("check_" + name) for name in checks]
    assert [r.name for r in results if r.passed] == [], results

