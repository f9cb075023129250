"""Golden artifacts of seven small CLI runs, compared byte for byte.

The files under ``tests/golden/<case>/`` pin every artifact of each
case; a change that keeps the numbers must reproduce them exactly.
``solution.json`` is compared as JSON with ``green_residual`` held
apart: that residual is a roundoff-level diagnostic whose value depends
on how the matvec is arranged, so it only has to stay below 1e-12.

Regenerate, only for a change meant to move the numbers, with
``PYTHONPATH=src python tests/test_golden_cli.py``.
"""

import json
import os
import sys
from pathlib import Path

import pytest

from nonlocal_eigen.cli import main

GOLDEN = Path(__file__).parent / "golden"
COMMON = ["--op", "sfl", "--N", "64", "--M", "256"]
CASES = {
    "eigen": ["eigen", "--s", "0.75"],
    "solve": ["solve", "--s", "0.75", "--g", "one", "--h", "1,2", "--lambda", "3"],
    "sweep": ["sweep", "--s", "0.75", "--g", "zero", "--h", "1"],
    "limit_large": ["limit-s", "--g", "zero", "--h", "1", "--lambda", "0",
                    "--s-list", "0.7,0.9,0.99"],
    "limit_resolvent": ["limit-s", "--g", "one", "--lambda", "1",
                        "--s-list", "0.7,0.9,0.99"],
    "eigen_rfl": ["eigen", "--op", "rfl", "--s", "0.75", "--N", "32"],
    "solve_classical": ["solve", "--op", "classical", "--s", "1", "--N", "32",
                        "--g", "one", "--h", "1,2", "--lambda", "3"],
}


def run_case(name: str) -> int:
    """Run one case into the relative directory ``name`` (the sidecars echo --out).

    The case's own flags follow ``COMMON``, so its ``--op`` and ``--N`` win.
    """
    command, *rest = CASES[name]
    return main([command] + COMMON + rest + ["--out", name])


def write_goldens(root: Path = GOLDEN):
    root.mkdir(parents=True, exist_ok=True)
    os.chdir(root)
    for name in CASES:
        assert run_case(name) == 0, name


@pytest.mark.parametrize("name", list(CASES))
def test_golden_artifacts(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_case(name) == 0
    expected = sorted(p.name for p in (GOLDEN / name).iterdir())
    assert sorted(p.name for p in (tmp_path / name).iterdir()) == expected
    for fname in expected:
        got = (tmp_path / name / fname).read_bytes()
        want = (GOLDEN / name / fname).read_bytes()
        if fname != "solution.json":
            assert got == want, fname
            continue
        got, want = json.loads(got), json.loads(want)
        assert got.pop("green_residual") < 1e-12
        want.pop("green_residual")
        assert got == want


if __name__ == "__main__":
    write_goldens(Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN)
