import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonlocal_eigen.geometry import (
    DomainKind,
    build_grid,
    delta,
    make_domain,
    sphere_area,
)


def test_sphere_area_values():
    # |S^0| = 2, |S^1| = 2 pi, |S^2| = 4 pi
    assert sphere_area(1) == pytest.approx(2.0)
    assert sphere_area(2) == pytest.approx(2.0 * np.pi)
    assert sphere_area(3) == pytest.approx(4.0 * np.pi)


def test_domain_validation():
    with pytest.raises(ValueError):
        make_domain("interval", 1, -1.0)
    with pytest.raises(ValueError):
        make_domain("interval", 2, 1.0)
    with pytest.raises(ValueError, match="ball n >= 2"):
        make_domain("ball", 1, 1.0)
    ball = make_domain("ball", 3, 2.0)
    assert ball.volume == pytest.approx(4.0 / 3.0 * np.pi * 8.0)


def test_delta_interval():
    dom = make_domain("interval", 1, 1.0)
    assert delta(dom, 0.25) == pytest.approx(0.75)
    np.testing.assert_allclose(delta(dom, [-0.5, 0.5]), [0.5, 0.5])
    with pytest.raises(ValueError):
        delta(dom, 1.5)


@pytest.mark.parametrize("kind,n", [("interval", 1), ("ball", 2), ("ball", 3)])
def test_grid_weights_sum_to_volume(kind, n):
    dom = make_domain(kind, n, 1.5)
    grid = build_grid(dom, 96, grading=2.0)
    assert np.sum(grid.w) == pytest.approx(dom.volume, rel=1e-12)


def test_grid_quadrature_exactness():
    # the graded composite rule must integrate smooth functions accurately
    dom = make_domain("interval", 1, 1.0)
    grid = build_grid(dom, 128, grading=2.0)
    val = np.sum(grid.w * np.cos(grid.x))
    assert val == pytest.approx(2.0 * np.sin(1.0), abs=1e-12)


def test_grid_integrates_boundary_singular_weight():
    # grading beta = 2 makes int delta^{-1/2} exact up to quadrature noise
    dom = make_domain("interval", 1, 1.0)
    grid = build_grid(dom, 128, grading=2.0)
    val = np.sum(grid.w * grid.delta ** (-0.5))
    assert val == pytest.approx(4.0, rel=1e-10)


def test_cells_partition_weights():
    dom = make_domain("interval", 1, 1.0)
    grid = build_grid(dom, 64, grading=2.0)
    np.testing.assert_allclose(grid.half.sum(0), grid.w, atol=1e-15)
    assert np.all(grid.half >= 0)
    # the half-cells that end on the boundary are delta exactly, and on the
    # ball the first cell starts at the centre
    assert grid.half[0, 0] == grid.delta[0] and grid.half[1, -1] == grid.delta[-1]
    ball = build_grid(make_domain("ball", 3, 1.0), 64, grading=2.0)
    assert np.all(ball.half >= 0)
    assert ball.half[1, -1] == ball.delta[-1] and ball.half[0, 0] == ball.x[0]


@pytest.mark.parametrize("n,N", [(3, 16), (3, 64), (3, 256), (2, 256)])
def test_ball_half_cells_match_mpmath_partition(n, N):
    # each edge from the volume on its nearer side, at 40 digits; an edge near
    # the centre taken from the volume outside it put the centre half-cell
    # up to 1.3e-6 off (n = 3, N = 256)
    grid = build_grid(make_domain("ball", n, 1.0), N, grading=2.0)
    with mpmath.workdps(40):
        vol = 2 * mpmath.pi ** (mpmath.mpf(n) / 2) / mpmath.gamma(mpmath.mpf(n) / 2) / n
        w = [mpmath.mpf(v) for v in grid.w]
        edges = [mpmath.mpf(1)]
        for k in range(1, N):
            inside, outside = mpmath.fsum(w[:k]), mpmath.fsum(w[k:])
            frac = inside / vol if inside < outside else 1 - outside / vol
            edges.append(1 - frac ** (mpmath.mpf(1) / n))
        edges.append(mpmath.mpf(0))
        d = [mpmath.mpf(v) for v in grid.delta]
        ref = np.array([[float(edges[k] - d[k]) for k in range(N)],
                        [float(d[k] - edges[k + 1]) for k in range(N)]])
    np.testing.assert_allclose(grid.half, ref, rtol=1e-11, atol=0)


def test_grid_rejects_bad_parameters():
    dom = make_domain("interval", 1, 1.0)
    with pytest.raises(ValueError):
        build_grid(dom, 4)
    with pytest.raises(ValueError):
        build_grid(dom, 64, grading=0.5)


@settings(max_examples=25, deadline=None)
@given(N=st.integers(16, 200), beta=st.sampled_from([1.0, 2.0, 3.0, 4.0]),
       r=st.floats(0.5, 3.0))
def test_grid_properties_random(N, beta, r):
    dom = make_domain("interval", 1, r)
    grid = build_grid(dom, N, grading=beta)
    assert grid.N == N
    assert np.all(grid.w > 0)
    assert np.all(grid.delta > 0)
    assert np.all(np.diff(grid.x) > 0)
    assert np.sum(grid.w) == pytest.approx(2.0 * r, rel=1e-10)


def test_compact_mask():
    dom = make_domain("interval", 1, 1.0)
    grid = build_grid(dom, 64)
    mask = grid.compact_mask(0.25)
    assert np.all(grid.delta[mask] >= 0.25)
    assert 0 < np.sum(mask) < grid.N
