import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

from nonlocal_eigen import cli, limits
from nonlocal_eigen.cli import main


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


def test_solve_maximum_principle_profile(tmp_path):
    out = tmp_path / "o"
    code = run_cli(["solve", "--op", "sfl", "--N", "64", "--M", "64",
                    "--g", "one", "--h", "0", "--lambda", "-1", "--out", str(out)])
    assert code == 0
    rows = (out / "profile.csv").read_text().splitlines()[1:]
    v = np.array([float(r.split(",")[-1]) for r in rows])
    assert np.all(v >= 0)


def test_exit_codes(tmp_path, capsys):
    out = str(tmp_path)
    # bad config
    assert run_cli(["eigen", "--N", "4", "--out", out]) == 2
    # a lambda that is not finite, an unreadable g table, a K with no node, no modes
    for argv, msg in ((["solve", "--lambda", "inf"], "lambda must be finite"),
                      (["solve", "--lambda", "nan"], "lambda must be finite"),
                      (["solve", "--g", f"table:{tmp_path / 'missing.csv'}"], "cannot read"),
                      (["solve", "--K-frac", "1.5"], "K fraction"),
                      (["eigen", "--j-max", "-1"], "--j-max"),
                      (["eigen", "--grade", "inf"], "grading exponent"),
                      (["eigen", "--grade", "nan"], "grading exponent"),
                      (["eigen", "--r", "nan"], "radius"),
                      (["eigen", "--r", "inf"], "radius")):
        assert run_cli(argv + ["--N", "32", "--out", out]) == 2, argv
        assert msg in capsys.readouterr().err, argv
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
    # large-solution ladder (--g zero) of limit-s reads --h and --K-frac
    for argv in (["verify", "--op", "sfl", "--N", "16"], ["eigen", "--lambda", "3"],
                 ["eigen", "--g", "one"], ["sweep", "--lambda", "3"],
                 ["limit-s", "--s", "0.8"], ["limit-s", "--g", "eigmode:1"],
                 ["limit-s", "--g", "one", "--h", "1"],
                 ["limit-s", "--g", "one", "--K-frac", "0.3"]):
        assert run_cli(argv + ["--out", out]) == 2, argv


def test_bad_lambda_and_K_fraction_rejected_before_assembly(tmp_path, monkeypatch, capsys):
    def assemble(*_):
        raise AssertionError("assembled before the request was validated")

    monkeypatch.setattr(cli, "assemble_green_matrix", assemble)
    monkeypatch.setattr(limits, "assemble_green_matrix", assemble)
    for argv, msg in ((["solve", "--lambda", "inf"], "lambda must be finite"),
                      (["solve", "--K-frac", "1.5"], "K fraction"),
                      (["sweep", "--lambda-list", "1,nan"], "lambda must be finite"),
                      (["sweep", "--K-frac", "0"], "K fraction"),
                      # inside (0, 1), but no node has delta >= 0.9999 r
                      (["solve", "--K-frac", "0.9999"], "K fraction"),
                      (["limit-s", "--lambda=-inf"], "lambda must be finite"),
                      (["limit-s", "--K-frac", "1"], "K fraction")):
        assert run_cli(argv + ["--N", "32", "--out", str(tmp_path)]) == 2, argv
        assert msg in capsys.readouterr().err, argv


def test_boundary_node_at_roundoff_assembles(tmp_path):
    # grading 4 puts node 0 at delta = 8.6e-16; the diagonal rule once
    # evaluated the kernel at y == x_0 there and exited 2
    assert run_cli(["eigen", "--op", "rfl", "--N", "512", "--grade", "4",
                    "--out", str(tmp_path)]) == 0
    lam1 = json.loads((tmp_path / "eigen.json").read_text())["lambda_1"]
    assert np.isfinite(lam1) and lam1 > 0


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


def test_sweep_footer(tmp_path):
    out = tmp_path / "o"
    assert run_cli(["sweep", "--op", "sfl", "--N", "64", "--M", "64",
                    "--g", "zero", "--h", "1", "--out", str(out)]) == 0
    text = (out / "sweep.csv").read_text()
    assert "# fitted_constant=" in text
    footer = [l for l in text.splitlines() if l.startswith("# fitted_spread=")]
    assert float(footer[0].split("=")[1]) < 0.05


def test_limit_s_b_column(tmp_path):
    out = tmp_path / "o"
    assert run_cli(["limit-s", "--op", "rfl", "--N", "48", "--g", "zero",
                    "--h", "1", "--lambda", "0",
                    "--s-list", "0.7,0.9", "--out", str(out)]) == 0
    lines = (out / "ladder.csv").read_text().splitlines()
    cols = lines[0].split(",")
    for line in lines[1:]:
        row = dict(zip(cols, map(float, line.split(","))))
        assert row["b"] == pytest.approx(1.0 - row["s"])  # b = 1 - s for RFL


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
