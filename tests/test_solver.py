import tracemalloc

import numpy as np
import pytest
from phi_products import counted_spectrum

from nonlocal_eigen import solver
from nonlocal_eigen.boundary import martin_apply, weighted_trace
from nonlocal_eigen.discretize import apply_G0, assemble_green_matrix
from nonlocal_eigen.geometry import build_grid, make_domain
from nonlocal_eigen.kernels import make_operator
from nonlocal_eigen.solver import (
    TRIALS,
    check_max_principle,
    check_notions,
    check_poincare,
    fredholm_diagnose,
    solve_large,
    sweep_lambda,
)
from nonlocal_eigen.spectral import (
    apply_Glambda,
    apply_Glambda_neumann,
    apply_Glambda_perp,
    eigendecompose,
    lambda_context,
)

DOM = make_domain("interval", 1, 1.0)


@pytest.fixture(scope="module")
def setup():
    grid = build_grid(DOM, 96, grading=2.0)
    op = make_operator("sfl", 0.75, DOM, sfl_truncation=96)
    dk = assemble_green_matrix(op, grid)
    return op, grid, dk, eigendecompose(dk)


def test_solve_dirichlet_green_identity(setup):
    # no boundary data (h None) is the Dirichlet solve
    op, grid, dk, sd = setup
    ctx = lambda_context(sd, 0.5 * sd.lam[0])
    rep = solve_large(op, sd, ctx, np.cos(grid.x), None)
    assert rep.green_residual < 1e-12
    assert rep.I == 0
    np.testing.assert_array_equal(rep.v_h.values, 0.0)


def test_solve_large_decomposition_identity(setup):
    op, grid, dk, sd = setup
    ctx = lambda_context(sd, 0.5 * (sd.lam[0] + sd.lam[1]))
    rep = solve_large(op, sd, ctx, np.ones(grid.N), (1.0, 2.0))
    total = rep.v_h.values + rep.explicit.values + rep.u_perp.values
    np.testing.assert_array_equal(rep.v_total.values, total)
    # u_perp orthogonal to the crossed eigenspace
    assert abs(np.sum(grid.w * rep.u_perp.values * sd.phi[:, 0])) < 1e-8
    assert rep.green_residual < 1e-10


def test_solve_large_blows_up_like_martin(setup):
    op, grid, dk, sd = setup
    ctx = lambda_context(sd, 0.5 * sd.lam[0])
    rep = solve_large(op, sd, ctx, None, 1.0)
    vh = martin_apply(op, grid, 1.0).values
    near = np.argmin(grid.delta)
    assert rep.v_total.values[near] == pytest.approx(vh[near], rel=1e-2)


def test_solve_rejects_singular_lambda(setup):
    op, grid, dk, sd = setup
    with pytest.raises(ValueError):
        lambda_context(sd, sd.lam[0])


def test_fredholm_diagnose_blowup_and_degenerate(setup):
    op, grid, dk, sd = setup
    # h = 1 has positive projection on phi_1: blow-up case
    rep = fredholm_diagnose(sd, op, None, 1.0, 1)
    assert not rep.degenerate
    assert len(rep.A_plus) > 0 and len(rep.A_minus) == 0
    # g = phi_2, no boundary data: degenerate at the first eigenvalue
    rep2 = fredholm_diagnose(sd, op, sd.phi[:, 1], None, 1)
    assert rep2.degenerate
    # a degenerate sweep has no K cap A+, so no sup over it and no fitted rate
    sw = sweep_lambda(op, sd, sd.phi[:, 1], None, 1)
    assert np.all(np.isnan(sw.sup_K_Aplus))
    assert np.isnan(sw.fitted_constant) and np.isnan(sw.fitted_spread)
    with pytest.raises(ValueError):
        fredholm_diagnose(sd, op, None, 1.0, 0)


def test_sweep_lambda_rate_and_monotonicity(setup):
    op, grid, dk, sd = setup
    lam1 = sd.lam[0]
    lams = lam1 * (1.0 - np.array([1e-2, 1e-3, 1e-4]))
    sw = sweep_lambda(op, sd, None, 1.0, 1, lams)
    assert sw.fitted_spread < 0.05
    assert np.all(np.diff(sw.sup_K_Aplus) > 0)
    # projection rate: <v, phi_1> (lam1 - lam) is constant = lam1 <v_h, phi_1>
    vh = martin_apply(op, grid, 1.0).values
    target = lam1 * np.sum(grid.w * vh * sd.phi[:, 0])
    np.testing.assert_allclose(sw.proj_i * (lam1 - lams), target, rtol=1e-10)
    # u_perp stays bounded while the solution blows up
    assert np.max(sw.uperp_L1_dgamma) / np.min(sw.uperp_L1_dgamma) < 1.05


def test_sweep_rejects_spectrum_touch(setup):
    op, grid, dk, sd = setup
    with pytest.raises(ValueError):
        sweep_lambda(op, sd, None, 1.0, 1, [sd.lam[0]])
    with pytest.raises(ValueError, match="nonempty"):
        sweep_lambda(op, sd, None, 1.0, 1, [])


@pytest.mark.parametrize("offsets", [None, [-1e-2, -1e-3, -1e-4]])
def test_sweep_rungs_are_the_solves_at_their_lambdas(setup, offsets):
    # the ladder is solved as one block; each rung must be solve_large at
    # its lambda.  Above lambda_1 both split at E = group 1, so every part
    # agrees; below it solve_large splits at the modes below lambda, and the
    # parts may differ while their sum may not
    op, grid, dk, sd = setup
    g, h = np.cos(grid.x), (1.0, 2.0)
    lams = None if offsets is None else sd.lam[0] * (1.0 - np.array(offsets))
    sw = sweep_lambda(op, sd, g, h, 1, lams)
    parts = ("v_total",) if offsets is None else ("explicit", "u_perp", "v_total")
    for lam, rep in zip(sw.lam_list, sw.reports):
        ref = solve_large(op, sd, lambda_context(sd, lam), g, h)
        assert rep.lam == ref.lam and rep.I == ref.I
        for name in parts:
            a, b = getattr(rep, name).values, getattr(ref, name).values
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), name
        # the residual scales with u, whose W-norm reaches 1.5e6 on the
        # default ladder; measured at most 7.6e-16 of it
        u = rep.explicit.values + rep.u_perp.values
        assert rep.green_residual <= 1e-12 * np.sqrt(np.sum(grid.w * u * u))


def _count_apply_G0(monkeypatch):
    """Count apply_G0 in the solver."""
    calls = [0]
    apply_G0 = solver.apply_G0

    def counted(*args):
        calls[0] += 1
        return apply_G0(*args)

    monkeypatch.setattr(solver, "apply_G0", counted)
    return calls


def _fresh_spectrum(setup):
    """A spectrum of the setup kernel of its own, so no case sees another's
    data, with its Martin coefficients taken, and the list of coefficient
    passes over its phi from then on."""
    sd, passes = counted_spectrum(setup[3])
    sd.martin_coeffs
    passes.clear()
    return sd, passes


DATA = {"one": np.ones, "zero": np.zeros, None: lambda N: None}


def test_default_sweep_takes_one_block_product(setup, monkeypatch):
    # one K product for the whole ladder, and one coefficient pass, for g:
    # v_h's coefficients come from the spectrum's cached Martin coefficients
    # and the Fredholm projection from c_g + lambda_i c_h; zero g takes none,
    # and so does a g that the spectrum has seen, in a fresh array
    op, grid, dk, _ = setup
    calls = _count_apply_G0(monkeypatch)
    for g in DATA:
        sd, passes = _fresh_spectrum(setup)
        for repeat in (False, True):
            calls[0] = 0
            sw = sweep_lambda(op, sd, DATA[g](grid.N), (1.0, 2.0), 2)
            assert len(sw.reports) == len(solver.SWEEP_OFFSETS)
            assert calls[0] == 1
            assert len(passes) == (1 if g == "one" else 0), (g, repeat)


@pytest.mark.parametrize("g", list(DATA))
def test_fredholm_and_solve_take_a_pass_for_g_only(setup, monkeypatch, g):
    # fredholm_diagnose makes no K product and takes a coefficient pass for
    # nonzero g only; the solve that follows reads the spectrum's c_g
    op, grid, dk, _ = setup
    sd, passes = _fresh_spectrum(setup)
    ctx = lambda_context(sd, 3.0)
    calls = _count_apply_G0(monkeypatch)
    fredholm_diagnose(sd, op, DATA[g](grid.N), (1.0, 2.0), 2)
    assert calls[0] == 0 and len(passes) == (1 if g == "one" else 0)
    solve_large(op, sd, ctx, DATA[g](grid.N), (1.0, 2.0))
    assert calls[0] == 1 and len(passes) == (1 if g == "one" else 0)


def test_a_repeated_solve_takes_no_coefficient_pass(setup, monkeypatch):
    # the second request with the same g, in a fresh array as the CLI builds
    # it, reads phi only to synthesize, and returns the same numbers
    op, grid, dk, _ = setup
    sd, passes = _fresh_spectrum(setup)
    ctx = lambda_context(sd, 3.0)
    calls = _count_apply_G0(monkeypatch)
    first = solve_large(op, sd, ctx, np.cos(grid.x), (1.0, 2.0))
    assert calls[0] == 1 and len(passes) == 1
    again = solve_large(op, sd, ctx, np.cos(grid.x), (1.0, 2.0))
    assert calls[0] == 2 and len(passes) == 1
    assert np.array_equal(again.v_total.values, first.v_total.values)
    assert again.green_residual == first.green_residual


@pytest.mark.parametrize("kind,s,domain,N,kw,hs", [
    ("sfl", 0.75, DOM, 96, {"sfl_truncation": 256}, [1.5, (0.5, 2.0)]),   # mirrored
    ("rfl", 0.6, DOM, 95, {}, [1.5, (0.5, 2.0)]),                          # one block
    ("rfl", 0.75, make_domain("ball", 3, 1.0), 24, {}, [1.5, (1.5,)]),     # one value only
])
def test_request_coefficients_are_the_coefficients_of_the_data(kind, s, domain, N, kw, hs):
    # a request forms the coefficients of g + lambda M(h) as c_g + lambda C_M h,
    # with C_M the spectrum's cached Martin coefficients.  Measured at most
    # 5.5e-16 of the largest coefficient over these cases and lambdas; the
    # tolerance 1e-14 is a margin of 18
    grid = build_grid(domain, N)
    op = make_operator(kind, s, domain, **kw)
    sd = eigendecompose(assemble_green_matrix(op, grid))
    g = np.random.default_rng(2).uniform(-1.0, 1.0, N)
    for h in hs:
        _, _, c_g, c_h = solver._data(op, sd, g, h)
        for lam in (0.5 * sd.lam[0], -3.0 * sd.lam[0], 0.5 * (sd.lam[2] + sd.lam[3])):
            ref = sd.coeffs(g + lam * martin_apply(op, grid, h).values)
            assert np.max(np.abs(c_g + lam * c_h - ref)) <= 1e-14 * np.max(np.abs(ref))
    assert sd.martin_coeffs.shape == (sd.m, 2 if domain.kind.value == "interval" else 1)
    assert not sd.martin_coeffs.flags.writeable


ROUTES = {
    "solve_large": lambda op, sd, ctx, B: solve_large(op, sd, ctx, B, 1.0),
    "sweep_lambda": lambda op, sd, ctx, B: sweep_lambda(op, sd, B, 1.0, 1),
    "fredholm_diagnose": lambda op, sd, ctx, B: fredholm_diagnose(sd, op, B, 1.0, 1),
    "apply_Glambda_perp": lambda op, sd, ctx, B: apply_Glambda_perp(sd, 1, ctx.lam, B),
    "apply_Glambda_neumann": lambda op, sd, ctx, B: apply_Glambda_neumann(ctx, B),
    "check_notions": lambda op, sd, ctx, B: check_notions(ctx, B),
    "check_notions_u": lambda op, sd, ctx, B: check_notions(ctx, B[:, 0], B),
    "weighted_trace": lambda op, sd, ctx, B: weighted_trace(op, B, 1.0, sd.grid),
}


@pytest.mark.parametrize("route", list(ROUTES))
@pytest.mark.parametrize("T", [3, 64])
def test_single_function_routes_reject_a_block_by_name(route, T):
    # these routes take one function; an (N, T) block raises a ValueError that
    # names it, also the (N, N) block at T = N, which would otherwise broadcast
    N = 64
    grid = build_grid(DOM, N, grading=2.0)
    op = make_operator("sfl", 0.75, DOM, sfl_truncation=128)
    sd = eigendecompose(assemble_green_matrix(op, grid))
    ctx = lambda_context(sd, 0.5 * sd.lam[0])
    B = np.random.default_rng(4).standard_normal((N, T))
    with pytest.raises(ValueError, match=f"block of shape \\({N}, {T}\\)"):
        ROUTES[route](op, sd, ctx, B)


def test_max_principle(setup):
    op, grid, dk, sd = setup
    ctx = lambda_context(sd, 0.9 * sd.lam[0])
    rep = check_max_principle(ctx, seed=1)
    assert rep.passed
    with pytest.raises(ValueError):
        check_max_principle(lambda_context(sd, 0.5 * (sd.lam[0] + sd.lam[1])))


def test_poincare(setup):
    op, grid, dk, sd = setup
    rep = check_poincare(sd, seed=1)
    assert rep.passed
    assert rep.worst_margin <= 1.0 + 1e-10


def test_monte_carlo_checks_draw_the_trials_of_one_draw_each(setup):
    # the block of trials holds the numbers that TRIALS draws of size N
    # give in turn; the loops below are the per-trial reference, and the
    # block products agree with them to roundoff
    op, grid, dk, sd = setup
    ctx = lambda_context(sd, 0.9 * sd.lam[0])
    rng = np.random.default_rng(3)
    margins = []
    for t in range(TRIALS):
        f = rng.uniform(0.0, 1.0, grid.N)
        if t % 3 == 2:
            f = f * grid.delta ** (-0.5)
        u = apply_Glambda(ctx, f).values
        margins.append(np.min(u) / np.max(u))
    rep = check_max_principle(ctx, seed=3)
    assert rep.n_failures == 0
    assert rep.worst_margin == pytest.approx(min(margins), rel=0, abs=1e-13)
    rng = np.random.default_rng(3)
    ratios = []
    for _ in range(TRIALS):
        phi = rng.standard_normal(grid.N)
        lhs = sd.lam[0] * np.sum(grid.w * phi * apply_G0(dk, phi).values)
        ratios.append(lhs / np.sum(grid.w * phi * phi))
    rep = check_poincare(sd, seed=3)
    assert rep.n_failures == 0
    assert rep.worst_margin == pytest.approx(max(ratios), rel=1e-13)


def test_check_notions_and_negative_control(setup):
    op, grid, dk, sd = setup
    ctx = lambda_context(sd, 0.5 * sd.lam[0])
    f = np.cos(grid.x)
    res = check_notions(ctx, f)
    assert res["r1"] < 1e-8 and res["r5"] < 1e-8
    # r6 multiplies the Gram noise by the largest retained eigenvalue,
    # which is large for the strongly graded SFL grid used here
    assert res["r6"] < 1e-3
    # corrupted u must be detected through r5
    from nonlocal_eigen.spectral import apply_Glambda
    u_bad = apply_Glambda(ctx, f).values + 0.01
    res_bad = check_notions(ctx, f, u=u_bad)
    assert res_bad["r5"] > 1e-3


def test_context_of_another_spectrum_is_rejected(setup):
    # a context from the s = 0.8 spectrum once solved at a lambda that the
    # s = 0.75 spectrum rejects as a spectral hit
    op, grid, dk, sd = setup
    other = eigendecompose(assemble_green_matrix(
        make_operator("sfl", 0.8, DOM, sfl_truncation=96), grid))
    ctx = lambda_context(other, 0.5 * other.lam[0])
    with pytest.raises(ValueError, match="another spectrum"):
        solve_large(op, sd, ctx, np.ones(grid.N), 1.0)


@pytest.mark.parametrize("other", [
    make_operator("rfl", 0.75, DOM),
    make_operator("sfl", 0.8, DOM, sfl_truncation=96),
    make_operator("sfl", 0.75, DOM),  # the default truncation, not 96
])
def test_operator_of_another_spectrum_is_rejected(setup, other):
    # the Martin kernel that lifts h must be the operator of the spectrum
    op, grid, dk, sd = setup
    ctx = lambda_context(sd, 0.5 * sd.lam[0])
    for call in (lambda: solve_large(other, sd, ctx, None, 1.0),
                 lambda: sweep_lambda(other, sd, None, 1.0, 1),
                 lambda: fredholm_diagnose(sd, other, None, 1.0, 1)):
        with pytest.raises(ValueError, match="not the operator of the spectrum"):
            call()


def test_an_unread_truncation_does_not_set_operators_apart():
    # only the SFL reads sfl_truncation; an RFL operator given another one is
    # the operator of an RFL spectrum built with the default
    grid = build_grid(DOM, 64, grading=2.0)
    op = make_operator("rfl", 0.75, DOM)
    sd = eigendecompose(assemble_green_matrix(op, grid))
    other = make_operator("rfl", 0.75, DOM, 64)
    assert other == op
    solve_large(other, sd, lambda_context(sd, 1.0), None, 1.0)


def test_requests_on_a_mirrored_grid_allocate_no_full_matrix():
    # the kernel is kept as two N/2 x N/2 blocks, and a solve, a sweep and a
    # Fredholm diagnosis allocate less than one N x N array of doubles in all
    N = 512
    grid = build_grid(DOM, N)
    op = make_operator("sfl", 0.75, DOM, sfl_truncation=1024)
    sd = eigendecompose(assemble_green_matrix(op, grid))
    arrays = [v for v in vars(sd.dk).values() if isinstance(v, np.ndarray)]
    arrays += list(sd.dk.blocks)
    assert len(sd.dk.blocks) == 2 and all(a.shape != (N, N) for a in arrays)
    g, h = np.ones(N), (1.0, 2.0)
    solve_large(op, sd, lambda_context(sd, 3.0), g, h)     # fills the Martin cache
    tracemalloc.start()
    try:
        solve_large(op, sd, lambda_context(sd, 3.0), g, h)
        sweep_lambda(op, sd, None, h, 2)
        fredholm_diagnose(sd, op, g, h, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * N * N, peak
