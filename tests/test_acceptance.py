"""Acceptance suite: every named check of the verification harness at the
reference resolution N = 256, one pass/fail assertion per criterion at
its pinned tolerance."""

import pytest

from nonlocal_eigen.verify import VerifySuite


@pytest.fixture(scope="module")
def suite():
    return VerifySuite(N=256, seed=0)


def _assert(result):
    assert result.passed, (
        f"{result.name}: measured {result.measured!r} vs tolerance "
        f"{result.tolerance!r} — {result.detail}")


# criterion 1 — kernel exactness
def test_kernel_exactness(suite):
    _assert(suite.check_kernel_exactness())


def test_kernel_symmetry(suite):
    _assert(suite.check_kernel_symmetry())


# criterion 2 — Martin/harmonic identity
def test_martin_harmonic_identity(suite):
    _assert(suite.check_martin_harmonic())


# criterion 3 — SFL spectrum
def test_sfl_spectrum(suite):
    _assert(suite.check_sfl_spectrum())


# criterion 4 — orthonormality and positivity
def test_gram_residual(suite):
    _assert(suite.check_gram_residual())


def test_phi1_nonnegative(suite):
    _assert(suite.check_phi1_nonneg())


def test_phi1_delta_bracket_stable(suite):
    _assert(suite.check_phi1_delta_bracket())


# criterion 5 — operator identities
def test_integration_by_parts(suite):
    _assert(suite.check_by_parts())


def test_neumann_vs_spectral(suite):
    _assert(suite.check_route_agreement())


def test_notion_equivalence(suite):
    _assert(suite.check_notions())


# criterion 6 — maximum principle
def test_maximum_principle(suite):
    _assert(suite.check_max_principle())


def test_max_principle_negative_control(suite):
    _assert(suite.check_max_principle_negative_control())


# criterion 7 — Poincare
def test_poincare(suite):
    _assert(suite.check_poincare())


def test_poincare_equality_phi1(suite):
    _assert(suite.check_poincare_equality())


# criterion 8 — uniform E-perp estimate
def test_uniform_Eperp_estimate(suite):
    _assert(suite.check_uniform_Eperp())


# criterion 9 — Fredholm blow-up
def test_fredholm_blowup_rate(suite):
    _assert(suite.check_fredholm_rate())


def test_blowup_sup_monotone(suite):
    _assert(suite.check_blowup_monotone())


def test_global_blowup(suite):
    _assert(suite.check_global_blowup())


# criterion 10 — Fredholm convergence, degenerate case
def test_fredholm_case_a(suite):
    _assert(suite.check_fredholm_case_a())


# criterion 11 — s -> 1
def test_ball_martin_to_poisson(suite):
    _assert(suite.check_ball_martin_poisson())


def test_sfl_lambda1_monotone(suite):
    _assert(suite.check_sfl_lambda1_monotone())


def test_boundary_exponent_vanishes(suite):
    _assert(suite.check_boundary_exponent())


def test_large_solution_classical_limit(suite):
    _assert(suite.check_large_solution_limit())


# criterion 12 — weighted trace
def test_trace_reproduces_h(suite):
    _assert(suite.check_trace_reproduces_h())


def test_martin_constant_logged(suite):
    rep = suite.check_martin_constant()
    _assert(rep)
    assert "kernel candidate" in rep.detail  # the closed form is reported
