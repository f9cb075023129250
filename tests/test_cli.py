import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

from nonlocal_eigen import cli, limits, verify
from nonlocal_eigen.cli import main
from nonlocal_eigen.geometry import build_grid, make_domain


def run_cli(args):
    return main(list(args))


def test_eigen_outputs(tmp_path):
    out = tmp_path / "o"
    code = run_cli(["eigen", "--op", "sfl", "--s", "0.75", "--N", "64",
                    "--M", "64", "--out", str(out)])
    assert code == 0
    csv = (out / "eigen.csv").read_text(encoding="utf-8")
    assert csv.startswith("j,lambda,")
    summary = json.loads((out / "eigen.json").read_text())
    assert summary["lambda_1"] == pytest.approx(((np.pi / 2) ** 2) ** 0.75, rel=1e-3)
    # sidecar echoes the config
    sidecar = json.loads((out / "eigen.json").read_text())
    assert sidecar["config"]["N"] == 64


def test_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli(["eigen", "--op", "sfl", "--N", "64", "--M", "64",
                        "--out", str(out)]) == 0
    assert (a / "eigen.csv").read_bytes() == (b / "eigen.csv").read_bytes()


def test_csv_format(tmp_path):
    out = tmp_path / "o"
    run_cli(["solve", "--op", "classical", "--s", "1.0", "--N", "64",
             "--g", "one", "--h", "0", "--lambda", "0", "--out", str(out)])
    raw = (out / "profile.csv").read_bytes()
    assert b"\r" not in raw  # '\n' line ends only
    lines = raw.decode("utf-8").splitlines()
    assert lines[0] == "x,delta,v_h,explicit,u_perp,v_lambda"
    # 17 significant digits survive a round trip
    x0 = float(lines[1].split(",")[0])
    assert repr(x0) in lines[1] or f"{x0:.17g}" in lines[1]


def test_failed_rename_leaves_no_temp_file(tmp_path, monkeypatch):
    # the rename is the last step of an atomic write; when it fails the
    # temp file goes, the target is not written and the error propagates
    def fail(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(cli.os, "replace", fail)
    with pytest.raises(OSError, match="rename refused"):
        cli.write_json(str(tmp_path / "out.json"), {"a": 1})
    assert list(tmp_path.iterdir()) == []


def test_solve_maximum_principle_profile(tmp_path):
    out = tmp_path / "o"
    code = run_cli(["solve", "--op", "sfl", "--N", "64", "--M", "64",
                    "--g", "one", "--h", "0", "--lambda", "-1", "--out", str(out)])
    assert code == 0
    rows = (out / "profile.csv").read_text().splitlines()[1:]
    v = np.array([float(r.split(",")[-1]) for r in rows])
    assert np.all(v >= 0)


@pytest.mark.parametrize("r", ["1e-30", "1e30"])
@pytest.mark.parametrize("op", [["--op", "rfl", "--grade", "4"], ["--op", "sfl", "--grade", "4"],
                                ["--op", "classical", "--s", "1", "--grade", "4"],
                                ["--op", "rfl", "--domain", "ball", "--n", "3"]],
                         ids=["rfl", "sfl", "classical", "rfl-ball3"])
def test_each_operator_runs_at_the_radius_bounds(op, r, tmp_path):
    # a numpy warning at either bound fails here (filterwarnings = error);
    # past them solve and sweep overflowed at r = 1e70 (classical) and 1e100
    # (SFL), Boggio's r^2 |x - y|^2 overflowed at 1e77 and underflowed at
    # 1e-80, and the RFL's least entry was NaN at 1e100 (exit 3)
    for cmd in (["eigen"], ["solve", "--g", "one"], ["sweep", "--g", "one"]):
        assert run_cli(cmd + op + ["--N", "16", "--r", r, "--out", str(tmp_path)]) == 0, cmd


def test_exit_codes(tmp_path, capsys):
    out = str(tmp_path)
    # bad config
    assert run_cli(["eigen", "--N", "4", "--out", out]) == 2
    # a lambda that is not finite, an unreadable or unsorted g table, no
    # modes; np.interp read the unsorted table as a 0/5 step; g data that is
    # not finite (delta_pow:inf once ran as g = 0) or a profile argument that
    # does not parse; an --out that cannot be made; a verify seed or N that
    # crashed checks (exit 1); a compact set K with no node, for the
    # subcommands that read K (at grading 20 every node of the N = 8 grid
    # has delta < r / 4)
    unsorted = tmp_path / "unsorted.csv"
    unsorted.write_text("1,0\n-1,2\n0,5\n")
    nan_table = tmp_path / "nan.csv"
    nan_table.write_text("-1,0\n0.5,nan\n1,0\n")
    three_columns = tmp_path / "three.csv"
    three_columns.write_text("-1,0,0\n1,0,0\n")
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    for argv, msg in ((["solve", "--lambda", "inf"], "lambda must be finite"),
                      (["solve", "--lambda", "nan"], "lambda must be finite"),
                      (["solve", "--g", f"table:{three_columns}"], "two columns"),
                      (["solve", "--g", f"table:{tmp_path / 'missing.csv'}"], "cannot read"),
                      (["solve", "--g", f"table:{unsorted}"], "strictly increase"),
                      (["eigen", "--j-max", "-1"], "--j-max"),
                      (["eigen", "--op", "sfl", "--M", "0"], "SFL truncation must be positive"),
                      (["eigen", "--grade", "inf"], "grading exponent"),
                      (["eigen", "--grade", "nan"], "grading exponent"),
                      (["eigen", "--r", "nan"], "radius"),
                      (["eigen", "--r", "inf"], "radius"),
                      (["eigen", "--r", "1e31"], "radius"),
                      (["eigen", "--r", "1e-31"], "radius"),
                      (["solve", "--g", "delta_pow:inf"], "delta_pow exponent must be finite"),
                      (["solve", "--g", "delta_pow:1e400"], "delta_pow exponent must be finite"),
                      (["solve", "--g", "delta_pow:nan"], "delta_pow exponent must be finite"),
                      (["solve", "--g", f"table:{nan_table}"], "non-finite values"),
                      (["solve", "--g", "delta_pow:"], "g profile 'delta_pow:'"),
                      (["solve", "--g", "eigmode:1.5"], "g profile 'eigmode:1.5'"),
                      # the eigmode range is checked once the spectrum is built
                      (["solve", "--g", "eigmode:999"], "eigmode index 999 out of range"),
                      (["eigen", "--out", str(blocker / "out")], "cannot write"),
                      (["verify", "--out", str(blocker / "out")], "cannot write"),
                      (["verify", "--seed", "-1"], "seed must be non-negative"),
                      (["verify", "--N", "9"], "verify needs N >= 10"),
                      (["solve", "--N", "8", "--grade", "20"], "compact set K"),
                      (["sweep", "--N", "8", "--grade", "20"], "compact set K"),
                      (["limit-s", "--N", "8", "--grade", "20"], "compact set K")):
        # the input's own --N and --out follow, and win
        assert run_cli([argv[0], "--N", "32", "--out", out, *argv[1:]]) == 2, argv
        assert msg in capsys.readouterr().err, argv
    # K is read only by solve, sweep and the large-solution ladder
    assert run_cli(["eigen", "--N", "8", "--grade", "20", "--out", out]) == 0
    assert run_cli(["limit-s", "--g", "one", "--N", "8", "--grade", "20", "--out", out]) == 0
    assert run_cli(["solve", "--op", "sfl", "--s", "0.3", "--out", out]) == 2
    assert run_cli(["solve", "--g", "nonsense", "--N", "64", "--out", out]) == 2
    # profiles take their argument after a colon only
    assert run_cli(["solve", "--g", "delta_pow(0.5)", "--N", "64", "--out", out]) == 2
    # a one-dimensional ball, and the classical kernel matrix on the ball
    assert run_cli(["eigen", "--domain", "ball", "--n", "1", "--out", out]) == 2
    assert run_cli(["eigen", "--op", "classical", "--s", "1", "--domain", "ball",
                    "--n", "2", "--N", "8", "--out", out]) == 2
    # lambda on the (discrete) spectrum
    assert run_cli(["eigen", "--op", "sfl", "--N", "64", "--M", "64",
                    "--out", out]) == 0
    lam1 = json.loads((tmp_path / "eigen.json").read_text())["lambda_1"]
    code = run_cli(["solve", "--op", "sfl", "--N", "64", "--M", "64",
                    "--lambda", f"{lam1:.17g}", "--out", out])
    assert code == 4
    assert run_cli(["sweep", "--op", "sfl", "--N", "64", "--M", "64",
                    "--lambda-list", f"{lam1:.17g}", "--out", out]) == 4
    # bad boundary data is a configuration error, not a spectral hit
    assert run_cli(["sweep", "--op", "sfl", "--N", "64", "--M", "64",
                    "--h", "1,2,3", "--out", out]) == 2
    # eigenvalue group index outside 1..number of groups
    for group in ("0", "99"):
        assert run_cli(["sweep", "--op", "sfl", "--N", "64", "--M", "64",
                        "--group", group, "--out", out]) == 2
    # a flag the subcommand does not read, also as the prefix of one it does;
    # eigmode data needs a spectrum, which limit-s does not compute; only the
    # large-solution ladder (--g zero) of limit-s reads --h; a flag is not
    # the value of the numeric flag before it
    for argv in (["verify", "--op", "sfl", "--N", "16"], ["eigen", "--lambda", "3"],
                 ["eigen", "--g", "one"], ["sweep", "--lambda", "3"],
                 ["limit-s", "--s", "0.8"], ["limit-s", "--g", "eigmode:1"],
                 ["limit-s", "--g", "one", "--h", "1"], ["solve", "--lambda", "--g", "one"]):
        assert run_cli(argv + ["--out", out]) == 2, argv


def test_bad_request_rejected_before_assembly(tmp_path, monkeypatch, capsys):
    def assemble(*_):
        raise AssertionError("assembled before the request was validated")

    monkeypatch.setattr(cli, "assemble_green_matrix", assemble)
    monkeypatch.setattr(limits, "assemble_green_matrix", assemble)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    missing = tmp_path / "missing.csv"
    short = tmp_path / "short.csv"
    short.write_text("-0.5,1\n0.5,3\n")
    for argv, msg in ((["solve", "--lambda", "inf"], "lambda must be finite"),
                      (["sweep", "--lambda-list", "1,nan"], "lambda must be finite"),
                      (["limit-s", "--lambda=-inf"], "lambda must be finite"),
                      (["eigen", "--out", str(blocker / "out")], "cannot write"),
                      # only eigmode data reads the spectrum, and only for its range
                      (["solve", "--g", "delta_pow:inf"], "delta_pow exponent must be finite"),
                      (["solve", "--h", "1,2,3"], "boundary value"),
                      (["limit-s", "--h", "1,2,3"], "boundary value"),
                      (["sweep", "--g", f"table:{missing}"], "cannot read"),
                      (["solve", "--g", f"table:{short}"], "short of the grid's nodes"),
                      (["sweep", "--group", "0"], "group"),
                      (["solve", "--g", "eigmode:abc"], "g profile 'eigmode:abc'")):
        assert run_cli([argv[0], "--N", "32", "--out", str(tmp_path), *argv[1:]]) == 2, argv
        assert msg in capsys.readouterr().err, argv


def test_boundary_node_at_roundoff_assembles(tmp_path):
    # grading 4 puts node 0 at delta = 8.6e-16; the diagonal rule once
    # evaluated the kernel at y == x_0 there and exited 2
    assert run_cli(["eigen", "--op", "rfl", "--N", "512", "--grade", "4",
                    "--out", str(tmp_path)]) == 0
    lam1 = json.loads((tmp_path / "eigen.json").read_text())["lambda_1"]
    assert np.isfinite(lam1) and lam1 > 0


@pytest.mark.parametrize("M", [1, 2])
def test_sfl_with_one_or_two_modes(tmp_path, M):
    # M = 1 leaves the even-k block with no mode; K has rank M, so M modes
    # are kept, and lambda_1 is mu_1^s (measured to 1.1e-15)
    assert run_cli(["eigen", "--op", "sfl", "--N", "64", "--M", str(M),
                    "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "eigen.json").read_text())
    assert summary["n_discarded"] == 64 - M
    assert summary["lambda_1"] == pytest.approx((np.pi / 2) ** 1.5, rel=1e-13)


def test_grading_that_underflows_delta_exits_2(tmp_path, monkeypatch, capsys):
    # at N = 64 and grading 200 the outermost delta underflows to 0: an input
    # the grid cannot hold, rejected before assembly
    def assemble(*_):
        raise AssertionError("assembled on a grid with delta = 0")

    monkeypatch.setattr(cli, "assemble_green_matrix", assemble)
    assert run_cli(["eigen", "--N", "64", "--grade", "200", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "configuration error: grading 200.0 underflows" in err and "at N = 64" in err


@pytest.mark.parametrize("N,grading", [(64, 100), (256, 60)])
def test_grading_that_underflows_a_node_gap_exits_2(tmp_path, capsys, N, grading):
    # the outermost nodes' |x - y|^2 underflows to 0 in Boggio's kernel: a
    # configuration error, with no numpy warning (was a 0/0 that put NaN in K)
    assert run_cli(["eigen", "--op", "rfl", "--N", str(N), "--grade", str(grading),
                    "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "configuration error: |x - y|^2 underflows to 0 in Boggio's kernel" in err
    assert "grading is too strong" in err


def test_grading_whose_gap_product_underflows_still_runs(tmp_path):
    # at N = 64, grading 70, one kernel value is 0 where the true one is about
    # 2e-24: the gap product underflows, but |x - y|^2 does not
    assert run_cli(["eigen", "--op", "rfl", "--N", "64", "--grade", "70",
                    "--out", str(tmp_path)]) == 0


def test_numerical_fault_in_assembly_exits_3(tmp_path, monkeypatch):
    # two nodes that coincide (in x and in delta, which the fill reads on
    # one side) put the kernel on its diagonal: a numerical fault (exit 3),
    # not a configuration error (exit 2)
    build = cli.build_grid

    def merged(domain, N, grading):
        grid = build(domain, N, grading)
        x, delta = grid.x.copy(), grid.delta.copy()
        x[1], delta[1] = x[0], delta[0]
        return dataclasses.replace(grid, x=x, delta=delta)

    monkeypatch.setattr(cli, "build_grid", merged)
    assert run_cli(["eigen", "--op", "rfl", "--N", "16", "--out", str(tmp_path)]) == 3


@pytest.mark.parametrize("argv,key,value",
                         [(["solve", "--lambda", "-1e3"], "lam", -1e3),
                          (["solve", "--h", "-1,2"], "h", [-1.0, 2.0]),
                          (["sweep", "--lambda-list", "-2,-1"], "lam_list", [-2.0, -1.0]),
                          (["limit-s", "--lambda", "-1e1"], "lam", -10.0)])
def test_negative_values_need_no_equals_sign(tmp_path, argv, key, value):
    # argparse takes "-1e3" or "-1,2" for a flag; each runs as its = form
    grid = ["--op", "sfl", "--N", "32", "--M", "32"]
    joined = [argv[0], f"{argv[1]}={argv[2]}", *grid]
    assert cli._parse_args([*argv, *grid]) == cli._parse_args(joined)
    assert run_cli([*argv, *grid, "--out", str(tmp_path)]) == 0
    sidecar = next(tmp_path.glob("*.json"))
    assert json.loads(sidecar.read_text())["config"][key] == value


def test_lambda_defaults_to_zero(tmp_path):
    assert run_cli(["solve", "--op", "sfl", "--N", "64", "--M", "64",
                    "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "solution.json").read_text())["config"]["lam"] == 0.0


def test_g_profiles(tmp_path):
    out = tmp_path / "o"
    table = tmp_path / "g.csv"
    table.write_text("-1.0,0.0\n0.0,2.0\n1.0,0.0\n")
    for g in ("zero", "one", "delta_pow:0.5", "eigmode:2", f"table:{table}"):
        assert run_cli(["solve", "--op", "sfl", "--N", "64", "--M", "64",
                        "--g", g, "--h", "0", "--lambda", "0.1",
                        "--out", str(out)]) == 0


def test_g_table_must_span_the_nodes(tmp_path, capsys):
    # np.interp copies a table's end values to every node outside it: a
    # table on [-0.5, 0.5] once ran at N = 16 as g = 1 and g = 3 at the
    # nodes next to the boundary, x = -+0.9996, where the large solutions
    # blow up.  A table short of either end exits 2 and names both ranges;
    # one that ends exactly at the outermost nodes runs
    x = build_grid(make_domain("interval", 1, 1.0), 16, 2.0).x
    nodes = f"[{x[0]:.17g}, {x[-1]:.17g}]"
    table = tmp_path / "g.csv"
    for a, b in ((-0.5, 0.5), (-1.0, 0.5), (-0.5, 1.0), (x[0], np.nextafter(x[-1], 0))):
        table.write_text(f"{a:.17g},1\n{b:.17g},3\n")
        assert run_cli(["solve", "--N", "16", "--g", f"table:{table}",
                        "--out", str(tmp_path)]) == 2, (a, b)
        err = capsys.readouterr().err
        assert f"spans [{a:.17g}, {b:.17g}]" in err and nodes in err, err
    table.write_text(f"{x[0]:.17g},1\n{x[-1]:.17g},3\n")
    assert run_cli(["solve", "--N", "16", "--g", f"table:{table}", "--out", str(tmp_path)]) == 0


def test_sweep_footer(tmp_path):
    out = tmp_path / "o"
    assert run_cli(["sweep", "--op", "sfl", "--N", "64", "--M", "64",
                    "--g", "zero", "--h", "1", "--out", str(out)]) == 0
    text = (out / "sweep.csv").read_text()
    assert "# fitted_constant=" in text
    footer = [l for l in text.splitlines() if l.startswith("# fitted_spread=")]
    assert float(footer[0].split("=")[1]) < 0.05


def test_limit_s_b_column(tmp_path):
    # an empty --s-list keeps the default ladder
    for s_list, ladder in (("0.7,0.9", [0.7, 0.9]), ("", [0.7, 0.8, 0.9, 0.95, 0.99])):
        out = tmp_path / f"o{len(ladder)}"
        assert run_cli(["limit-s", "--op", "rfl", "--N", "48", "--g", "zero",
                        "--h", "1", "--lambda", "0",
                        "--s-list", s_list, "--out", str(out)]) == 0
        assert json.loads((out / "ladder.json").read_text())["config"]["s_list"] == ladder
        lines = (out / "ladder.csv").read_text().splitlines()
        cols = lines[0].split(",")
        assert [float(line.split(",")[0]) for line in lines[1:]] == ladder
        for line in lines[1:]:
            row = dict(zip(cols, map(float, line.split(","))))
            assert row["b"] == pytest.approx(1.0 - row["s"])  # b = 1 - s for RFL


def test_limit_s_checks_g_against_its_lowest_rung(tmp_path, capsys):
    # delta_pow:alpha needs alpha > -1 - gamma, and the RFL rung s = 0.7 has
    # gamma = 0.7; a classical stand-in with gamma = 1 once let -1.8 through
    base = ["limit-s", "--op", "rfl", "--N", "32", "--s-list", "0.7,0.9", "--out", str(tmp_path)]
    assert run_cli(["solve", "--op", "rfl", "--s", "0.7", "--N", "32",
                    "--g", "delta_pow:-1.8", "--out", str(tmp_path)]) == 2
    assert run_cli(base + ["--g", "delta_pow:-1.8"]) == 2
    assert "outside the admissible range" in capsys.readouterr().err
    assert run_cli(base + ["--g", "delta_pow:-1.6"]) == 0


def test_limit_s_of_zero_data_exits_2(tmp_path, capsys):
    # v = 0 has no boundary exponent; the fit once wrote nan and exited 0
    base = ["limit-s", "--op", "rfl", "--N", "48", "--s-list", "0.7,0.9", "--g", "zero"]
    assert run_cli(base + ["--h", "0", "--out", str(tmp_path / "zero")]) == 2
    assert "vanishes" in capsys.readouterr().err
    # data at one end only: v decays at r like delta^s, and is not zero there
    assert run_cli(base + ["--h", "1,0", "--out", str(tmp_path / "one_end")]) == 0
    lines = (tmp_path / "one_end" / "ladder.csv").read_text().splitlines()
    row = dict(zip(lines[0].split(","), map(float, lines[1].split(","))))
    assert row["boundary_fit"] == pytest.approx(row["s"], abs=1e-2)


def test_verify_subcommand_reports_each_check(tmp_path, monkeypatch, capsys):
    # two cheap checks stand in for the suite; a Boggio kernel shifted by
    # 1e-6 fails its closed form and stays symmetric
    monkeypatch.setattr(verify.VerifySuite, "CHECKS",
                        ["check_kernel_exactness", "check_kernel_symmetry"])
    names = ["kernel_exactness", "kernel_symmetry"]

    def report(out):
        return json.loads((out / "verify.json").read_text())

    assert run_cli(["verify", "--N", "16", "--out", str(tmp_path / "pass")]) == 0
    assert report(tmp_path / "pass")["all_passed"] is True
    assert [c["name"] for c in report(tmp_path / "pass")["checks"]] == names
    green = verify.rfl_green_ball
    monkeypatch.setattr(verify, "rfl_green_ball", lambda op, x, y: green(op, x, y) + 1e-6)
    capsys.readouterr()
    assert run_cli(["verify", "--N", "16", "--out", str(tmp_path / "fail")]) == 1
    rep = report(tmp_path / "fail")
    assert rep["all_passed"] is False
    assert [(c["name"], c["passed"]) for c in rep["checks"]] == [(names[0], False), (names[1], True)]
    stdout = capsys.readouterr().out
    assert "FAIL kernel_exactness:" in stdout and "PASS kernel_symmetry:" in stdout


def test_console_script_invocation(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "nonlocal_eigen.cli", "eigen", "--op", "sfl",
         "--N", "64", "--M", "64", "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0


def test_cli_import_leaves_scipy_out():
    # scipy.linalg alone costs about 300 ms at start-up, and src/ imports no
    # scipy; mpmath is imported by the SFL Martin kernel when it first needs
    # a zeta value, never at start-up
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, nonlocal_eigen.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath')))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_builds_no_quadrature():
    # every cached rule is built on first use: numpy.polynomial, which
    # computes the Gauss-Legendre rules, is not imported at start-up
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, nonlocal_eigen.cli; "
         "print('numpy.polynomial' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
