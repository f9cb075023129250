import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonlocal_eigen.geometry import (
    BOUNDARY_NODES,
    MAX_RADIUS,
    MIN_RADIUS,
    build_grid,
    gauss_rule,
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
    with pytest.raises(ValueError, match="an integer"):
        make_domain("ball", 2.5, 1.0)
    ball = make_domain("ball", 3, 2.0)
    assert ball.volume == pytest.approx(4.0 / 3.0 * np.pi * 8.0)


def test_radius_outside_the_kernels_range_is_rejected():
    # past 1e30 or below 1e-30 products of lengths in the kernels overflow
    # or underflow: r = 1e77 overflowed Boggio's r^2 |x - y|^2, and
    # r = 1e-80 underflowed it
    for r in (MIN_RADIUS, MAX_RADIUS):
        assert make_domain("interval", 1, r).r == r
    for r in (0.0, 1e-31, 1e31, 1e77, -1e-80, float("inf"), float("nan")):
        for kind, n in (("interval", 1), ("ball", 3)):
            with pytest.raises(ValueError, match="radius"):
                make_domain(kind, n, r)


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


def test_grid_rejects_bad_parameters():
    dom = make_domain("interval", 1, 1.0)
    with pytest.raises(ValueError):
        build_grid(dom, 4)
    with pytest.raises(ValueError):
        build_grid(dom, 64, grading=0.5)


def test_grading_that_underflows_delta_is_rejected():
    # at N = 64 the outermost delta is r (1 - |t_0|)^grading: 1.5e-172 at
    # grading 60 and 4.1e-287 at 100; at 200 it underflows to 0, an input
    # error that names the grading and N
    dom = make_domain("interval", 1, 1.0)
    for grading, least in ((60.0, 1.467173775055207e-172), (100.0, 4.0813382810388213e-287)):
        grid = build_grid(dom, 64, grading=grading)
        assert np.min(grid.delta) == pytest.approx(least, rel=1e-12)
        assert np.all(grid.w > 0)
    with pytest.raises(ValueError, match=r"grading 200\.0 underflows .* at N = 64"):
        build_grid(dom, 64, grading=200.0)


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


def test_boundary_nodes_take_one_boundary_point():
    r = 2.0
    grid = build_grid(make_domain("interval", 1, r), 64)
    for z in (-r, r, r * (1 + 1e-13)):
        near = grid.boundary_nodes(z)
        assert len(near) == BOUNDARY_NODES
        assert np.all(np.sign(grid.x[near]) == np.sign(z))
        assert np.all(np.diff(grid.delta[near]) > 0)
        rest = np.setdiff1d(np.flatnonzero(np.sign(grid.x) == np.sign(z)), near)
        assert np.max(grid.delta[near]) < np.min(grid.delta[rest])
    ball = build_grid(make_domain("ball", 3, r), 16)
    np.testing.assert_array_equal(ball.boundary_nodes(r), np.arange(15, 10, -1))
    for g, z in ((grid, 0.0), (grid, 0.5 * r), (grid, r * (1 - 1e-9)), (ball, -r), (ball, 0.5 * r)):
        with pytest.raises(ValueError, match="not a boundary point"):
            g.boundary_nodes(z)
    # N = 8 leaves four nodes on each side of the interval
    with pytest.raises(ValueError, match="fewer than 5 nodes"):
        build_grid(make_domain("interval", 1, r), 8).boundary_nodes(r)


def test_compact_mask():
    dom = make_domain("interval", 1, 1.0)
    grid = build_grid(dom, 64)
    mask = grid.compact_mask()
    assert np.all(grid.delta[mask] >= 0.25)
    assert 0 < np.sum(mask) < grid.N
    # at grading 20 every node of the N = 8 interval grid has delta < r / 4
    with pytest.raises(ValueError, match="compact set K"):
        build_grid(dom, 8, 20.0).compact_mask()


def _assert_ascending(grid):
    """x nondecreasing and delta strictly monotone on each side: rising left
    of 0, falling right of 0 and on the ball."""
    assert np.all(np.diff(grid.x) >= 0)
    left = grid.x < 0
    assert np.all(np.diff(grid.delta[left]) > 0)
    assert np.all(np.diff(grid.delta[~left]) < 0)


def test_every_even_interval_grid_is_mirrored():
    # x, w and delta equal their mirrors bit for bit, so the parity split
    # applies on every even N; odd N and the ball are never mirrored
    dom = make_domain("interval", 1, 1.0)
    for N in range(8, 1101, 2):
        grid = build_grid(dom, N)
        assert np.array_equal(grid.x, -grid.x[::-1]), N
        assert np.array_equal(grid.w, grid.w[::-1]), N
        assert np.array_equal(grid.delta, grid.delta[::-1]), N
        assert grid.mirrored, N
    assert not build_grid(dom, 129).mirrored
    assert not build_grid(make_domain("ball", 2, 1.0), 128).mirrored
    # nodes are built in ascending order, also where grading 8 rounds two or
    # more of them on each side to x = -+r (from N = 58 on, four at N = 256)
    for N in (58, 255, 256):
        grid = build_grid(dom, N, grading=8.0)
        assert np.sum(grid.x == -1.0) >= 2 and np.sum(grid.x == 1.0) >= 2, N
        assert grid.mirrored == (N % 2 == 0), N
        _assert_ascending(grid)
    for n in (2, 3):
        for N, grading in ((64, 2.0), (256, 8.0)):
            grid = build_grid(make_domain("ball", n, 1.0), N, grading=grading)
            assert not grid.mirrored
            _assert_ascending(grid)


def test_every_grading_4_grid_builds():
    # from N = 953 on the outermost delta falls to about 5e-17 and x rounds
    # to -+r; the grid stands, since every kernel reads delta there
    dom = make_domain("interval", 1, 1.0)
    for N in range(8, 1101):
        grid = build_grid(dom, N, grading=4.0)
        assert np.all(grid.delta > 0) and np.all(grid.w > 0), N
        assert np.sum(grid.w) == pytest.approx(2.0, rel=1e-10), N
    assert build_grid(dom, 1024, grading=4.0).x[0] == -1.0


def test_gauss_rule_is_read_only_and_computed_once():
    # the grid panels and the ball's angular rule share one cached rule
    x, w = gauss_rule(16)
    assert not x.flags.writeable and not w.flags.writeable
    assert gauss_rule(16)[0] is x
