import json
import subprocess
import sys

import numpy as np
import pytest

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


def test_exit_codes(tmp_path):
    out = str(tmp_path)
    # bad config
    assert run_cli(["eigen", "--N", "4", "--out", out]) == 2
    assert run_cli(["solve", "--op", "sfl", "--s", "0.3", "--out", out]) == 2
    assert run_cli(["solve", "--g", "nonsense", "--N", "64", "--out", out]) == 2
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
    # eigmode data needs a spectrum, which limit-s does not compute
    for argv in (["verify", "--op", "sfl", "--N", "16"], ["eigen", "--lambda", "3"],
                 ["eigen", "--g", "one"], ["sweep", "--lambda", "3"],
                 ["limit-s", "--s", "0.8"], ["limit-s", "--g", "eigmode:1"]):
        assert run_cli(argv + ["--out", out]) == 2, argv


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
