from math import gamma

import mpmath
import numpy as np
import pytest

from nonlocal_eigen import boundary
from nonlocal_eigen.boundary import (
    martin_apply,
    martin_constant_report,
    weighted_trace,
)
from nonlocal_eigen.discretize import apply_G0, assemble_green_matrix
from nonlocal_eigen.geometry import build_grid, make_domain, sphere_area
from nonlocal_eigen.kernels import OperatorKind, make_operator, martin_from_gaps

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
    near = np.argsort(grid.delta)[:5]
    slope = np.polyfit(np.log(grid.delta[near]), np.log(v[near]), 1)[0]
    assert slope == pytest.approx(-op.b, abs=1e-3)


def test_martin_columns_computed_once_per_op_and_grid(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return martin_from_gaps(*args)

    monkeypatch.setattr(boundary, "martin_from_gaps", counted)
    fresh = build_grid(DOM, 64, grading=2.0)
    op = make_operator("sfl", 0.75, DOM)
    for k in range(10):
        martin_apply(op, fresh, (1.0, float(k)))
    weighted_trace(op, martin_apply(op, fresh, (2.0, 5.0)), 1.0, fresh)
    assert len(calls) == 2
    martin_apply(op, build_grid(DOM, 64, grading=2.0), 1.0)
    assert len(calls) == 4
    martin_apply(make_operator("sfl", 0.8, DOM), fresh, 1.0)
    assert len(calls) == 6
    for col in boundary._martin_columns(op, fresh):
        with pytest.raises(ValueError):
            col[0] = 0.0


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
        expect = h * martin_from_gaps(op, gap, 1.0) * (sphere_area(dom.n) * dom.r / gap)
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
    with pytest.raises(ValueError, match="different domains"):
        martin_constant_report(op, grid)


def test_trace_recovers_boundary_data():
    grid = build_grid(DOM, 256, grading=2.0)
    op = make_operator("rfl", 0.75, DOM)
    vh = martin_apply(op, grid, (2.0, 5.0))
    assert weighted_trace(op, vh, -1.0, grid).value == pytest.approx(2.0, rel=1e-6)
    assert weighted_trace(op, vh, 1.0, grid).value == pytest.approx(5.0, rel=1e-6)


def test_trace_of_bounded_function_vanishes(grid):
    op = make_operator("rfl", 0.75, DOM)
    dk = assemble_green_matrix(op, grid)
    u = apply_G0(dk, np.ones(grid.N))
    tr = weighted_trace(op, u, 1.0, grid)
    assert abs(tr.value) < 1e-8


def test_martin_constant_report(grid):
    op = make_operator("rfl", 0.75, DOM)
    rep = martin_constant_report(op, grid)
    s = op.s
    assert rep.candidate_kernel == pytest.approx(1.0 / (s * gamma(s) ** 2))
    assert rep.measured == pytest.approx(rep.candidate_kernel, rel=1e-6)


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
