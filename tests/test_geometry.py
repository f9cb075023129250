import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonlocal_eigen.geometry import (
    build_grid,
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
    # K is a nonempty set of nodes with frac in (0, 1)
    for frac in (0.0, 1.5, float("nan"), 1.0 - 1e-9):
        with pytest.raises(ValueError, match="K fraction"):
            grid.compact_mask(frac)


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


def test_every_grading_4_grid_builds():
    # from N = 953 on the outermost delta falls to about 5e-17 and x rounds
    # to -+r; the grid stands, since every kernel reads delta there
    dom = make_domain("interval", 1, 1.0)
    for N in range(8, 1101):
        grid = build_grid(dom, N, grading=4.0)
        assert np.all(grid.delta > 0) and np.all(grid.w > 0), N
        assert np.sum(grid.w) == pytest.approx(2.0, rel=1e-10), N
    assert build_grid(dom, 1024, grading=4.0).x[0] == -1.0
