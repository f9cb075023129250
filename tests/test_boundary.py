from math import gamma

import mpmath
import numpy as np
import pytest

from nonlocal_eigen import boundary, solver
from nonlocal_eigen.boundary import boundary_values, martin_apply, weighted_trace
from nonlocal_eigen.discretize import apply_G0, assemble_green_matrix
from nonlocal_eigen.geometry import build_grid, make_domain, sphere_area
from nonlocal_eigen.kernels import OperatorKind, make_operator, martin_from_gaps
from nonlocal_eigen.solver import fredholm_diagnose, solve_large, sweep_lambda
from nonlocal_eigen.spectral import eigendecompose, lambda_context

DOM = make_domain("interval", 1, 1.0)


@pytest.fixture(scope="module")
def grid():
    return build_grid(DOM, 128, grading=2.0)


def test_boundary_data_broadcast_and_validation(grid):
    # one value serves both ends of the interval; the ball takes one constant
    op = make_operator("rfl", 0.75, DOM)
    np.testing.assert_array_equal(martin_apply(op, grid, 3.0).values,
                                  martin_apply(op, grid, (3.0, 3.0)).values)
    for h in ([1.0, 2.0, 3.0], [np.inf, 0.0], [np.nan], []):
        with pytest.raises(ValueError, match="finite boundary value"):
            martin_apply(op, grid, h)
    ball = make_domain("ball", 3, 1.0)
    with pytest.raises(ValueError, match=r"per end \(1\)"):
        martin_apply(make_operator("rfl", 0.75, ball), build_grid(ball, 16), (1.0, 2.0))


def test_martin_apply_rfl_is_explicit_harmonic(grid):
    # M(1) must be proportional to (1 - x^2)^{s-1}
    op = make_operator("rfl", 0.75, DOM)
    m1 = martin_apply(op, grid, 1.0).values
    prof = m1 * (1.0 - grid.x**2) ** (1.0 - op.s)
    assert np.std(prof) / np.mean(prof) < 1e-8


def test_martin_apply_classical_interval(grid):
    # classical harmonic extension of (h-, h+) is the affine interpolant
    op = make_operator("classical", 1.0, DOM)
    v = martin_apply(op, grid, (2.0, 6.0)).values
    np.testing.assert_allclose(v, 4.0 + 2.0 * grid.x, rtol=1e-11)


def test_martin_apply_ball_constant_data():
    dom = make_domain("ball", 3, 1.0)
    grid = build_grid(dom, 48, grading=2.0)
    op = make_operator("classical", 1.0, dom)
    v = martin_apply(op, grid, 1.0).values
    np.testing.assert_allclose(v, 1.0, rtol=1e-12)  # harmonic extension of 1


def test_martin_blowup_exponent(grid):
    op = make_operator("sfl", 0.75, DOM)
    v = martin_apply(op, grid, 1.0).values
    near = grid.boundary_nodes(1.0)
    slope = np.polyfit(np.log(grid.delta[near]), np.log(v[near]), 1)[0]
    assert slope == pytest.approx(-op.b, abs=1e-3)


def test_one_spectrum_evaluates_its_martin_basis_once(monkeypatch):
    # boundary keeps no cache: the spectrum's read-only Martin basis serves
    # every request on it, one kernel evaluation per end
    calls = []

    def counted(*args):
        calls.append(args)
        return martin_from_gaps(*args)

    grid = build_grid(DOM, 64, grading=2.0)
    op = make_operator("sfl", 0.75, DOM, sfl_truncation=64)
    sd = eigendecompose(assemble_green_matrix(op, grid))
    monkeypatch.setattr(boundary, "martin_from_gaps", counted)
    g = np.ones(grid.N)
    for k in range(10):
        h = (1.0, float(k))
        if k % 3 == 0:
            solve_large(op, sd, lambda_context(sd, 0.5 * sd.lam[0]), g, h)
        elif k % 3 == 1:
            sweep_lambda(op, sd, g, h, 1)
        else:
            fredholm_diagnose(sd, op, g, h, 2)
    assert len(calls) == 2
    with pytest.raises(ValueError):
        sd.martin_basis[0, 0] = 0.0
    # a direct martin_apply evaluates the basis afresh
    martin_apply(op, grid, 1.0)
    assert len(calls) == 4


@pytest.mark.parametrize("kind,s,dom,N,kw", [
    ("sfl", 0.75, DOM, 96, {"sfl_truncation": 256}),        # mirrored interval
    ("rfl", 0.6, DOM, 95, {}),                              # odd N
    ("rfl", 0.75, make_domain("ball", 3, 1.0), 24, {}),     # the 3-ball, M(1) only
])
def test_spectrum_martin_basis_is_martin_apply_of_each_end(monkeypatch, kind, s, dom, N, kw):
    # row z of the cached basis is M(e_z) bit for bit, and a request validates
    # h once and lifts it from that basis, to the bits of martin_apply
    grid = build_grid(dom, N)
    op = make_operator(kind, s, dom, **kw)
    sd = eigendecompose(assemble_green_matrix(op, grid))
    assert sd.martin_basis.shape == (2 if dom.n == 1 else 1, N)
    for row, e in zip(sd.martin_basis, np.eye(len(sd.martin_basis))):
        assert np.array_equal(row, martin_apply(op, grid, e).values)
    calls = []

    def counted(op, h):
        calls.append(h)
        return boundary_values(op, h)

    monkeypatch.setattr(boundary, "boundary_values", counted)
    monkeypatch.setattr(solver, "boundary_values", counted)
    h = 1.5
    rep = solve_large(op, sd, lambda_context(sd, 0.5 * sd.lam[0]), None, h)
    assert len(calls) == 1
    assert np.array_equal(rep.v_h.values, martin_apply(op, grid, h).values)


@pytest.mark.parametrize("kind,s,dom", [("rfl", 0.75, DOM), ("sfl", 0.75, DOM), ("classical", 1.0, DOM),
                                        ("rfl", 0.6, make_domain("ball", 3, 1.0))])
def test_martin_apply_equals_the_uncached_kernel(kind, s, dom):
    grid = build_grid(dom, 64, grading=2.0)
    op = make_operator(kind, s, dom)
    plus, minus = grid.sides
    gap = plus * minus
    if dom.n == 1:
        h = (2.0, 5.0)
        expect = h[0] * martin_from_gaps(op, gap, plus) + h[1] * martin_from_gaps(op, gap, minus)
    else:
        h = 3.0
        expect = h * (martin_from_gaps(op, gap, 1.0) * (sphere_area(dom.n) * dom.r / gap))
    assert np.array_equal(martin_apply(op, grid, h).values, expect)


def test_operator_on_another_domain_is_rejected(grid):
    # an operator on (-2, 2) with a grid on (-1, 1) once read the trace of
    # M(1) as 1.68 instead of 1
    op = make_operator("rfl", 0.75, make_domain("interval", 1, 2.0))
    with pytest.raises(ValueError, match="different domains"):
        martin_apply(op, grid, 1.0)
    m1 = martin_apply(make_operator("rfl", 0.75, DOM), grid, 1.0)
    with pytest.raises(ValueError, match="different domains"):
        weighted_trace(op, m1, 1.0, grid)


def test_trace_recovers_boundary_data():
    grid = build_grid(DOM, 256, grading=2.0)
    op = make_operator("rfl", 0.75, DOM)
    vh = martin_apply(op, grid, (2.0, 5.0))
    assert weighted_trace(op, vh, -1.0, grid) == pytest.approx(2.0, rel=1e-6)
    assert weighted_trace(op, vh, 1.0, grid) == pytest.approx(5.0, rel=1e-6)


def test_trace_of_bounded_function_vanishes(grid):
    op = make_operator("rfl", 0.75, DOM)
    dk = assemble_green_matrix(op, grid)
    u = apply_G0(dk, np.ones(grid.N))
    assert abs(weighted_trace(op, u, 1.0, grid)) < 1e-8


def test_martin_constant_is_the_reciprocal_trace(grid):
    # lim delta^{1-s} M(1) = 1 / B(delta^{s-1}) = 1 / (s Gamma(s)^2 r)
    op = make_operator("rfl", 0.75, DOM)
    s = op.s
    tr = weighted_trace(op, grid.delta ** (s - 1), 1.0, grid)
    assert 1.0 / tr == pytest.approx(1.0 / (s * gamma(s) ** 2), rel=1e-6)


def test_trace_that_does_not_converge_raises():
    # u / M(1) = 1e-3 + 1e16 delta^4: the extrapolations through the five and
    # the four nearest nodes disagree by more than ten times the trace
    grid = build_grid(DOM, 64, grading=2.0)
    op = make_operator("rfl", 0.75, DOM)
    u = martin_apply(op, grid, 1.0).values * (1e-3 + 1e16 * grid.delta ** 4)
    with pytest.raises(ValueError, match="did not converge"):
        weighted_trace(op, u, 1.0, grid)


@pytest.mark.parametrize("dom,h", [(DOM, (2.0, 5.0)), (make_domain("ball", 3, 1.0), 5.0)])
def test_trace_off_the_boundary_is_rejected(dom, h):
    # z = r/2 once returned the trace at r
    grid = build_grid(dom, 64, grading=2.0)
    op = make_operator("rfl", 0.75, dom)
    with pytest.raises(ValueError, match="not a boundary point"):
        weighted_trace(op, martin_apply(op, grid, h), 0.5 * dom.r, grid)


def _martin_mpmath(op, grid, h):
    """M(h) at every node at 30 digits, each node placed by its boundary
    distance delta: the RFL and classical kernels in closed form, the SFL
    one through Li_p(e^{2 pi i a}) = Gamma(1-p) (2 pi)^{p-1}
    (i^{1-p} zeta(1-p, a) + i^{p-1} zeta(1-p, 1-a)) with a = dist / 4r."""
    r, s = mpmath.mpf(op.domain.r), mpmath.mpf(op.s)

    def sfl(dist):
        p, a = 2 * s - 1, dist / (4 * r)
        li = mpmath.gamma(1 - p) * (2 * mpmath.pi) ** (p - 1) * (
            mpmath.j ** (1 - p) * mpmath.zeta(1 - p, a) + mpmath.j ** (p - 1) * mpmath.zeta(1 - p, 1 - a))
        return (mpmath.pi / (2 * r)) ** (1 - 2 * s) * mpmath.im(li) / r

    def kernel(gap, dist):
        if op.kind is OperatorKind.SFL:
            return sfl(dist)
        if op.kind is OperatorKind.RFL:
            return gap ** s / (2 ** s * s * mpmath.gamma(s) ** 2 * r ** s * dist)
        return gap / (2 * r * dist)

    out = []
    with mpmath.workdps(30):
        for x, d in zip(grid.x, grid.delta):
            d = mpmath.mpf(d)
            plus, minus = (d, 2 * r - d) if x < 0 else (2 * r - d, d)
            gap = plus * minus
            out.append(float(h[0] * kernel(gap, plus) + h[1] * kernel(gap, minus)))
    return np.array(out)


@pytest.mark.parametrize("kind,s", [("rfl", 0.75), ("sfl", 0.75), ("classical", 1.0)])
@pytest.mark.parametrize("N,grading", [(512, 4.0), (1024, 2.0)])
def test_martin_apply_matches_mpmath_at_every_node(kind, s, N, grading):
    # r -+ x and |z - x| come from delta; formed from coordinates, M(h) was
    # up to 1.9e-2 off at grading 4 and 8.2e-9 at grading 2 (both SFL)
    grid = build_grid(DOM, N, grading=grading)
    op = make_operator(kind, s, DOM)
    h = (2.0, 5.0)
    np.testing.assert_allclose(martin_apply(op, grid, h).values, _martin_mpmath(op, grid, h),
                               rtol=1e-13, atol=0)
