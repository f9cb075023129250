"""Command-line front end.

Subcommands: eigen, solve, sweep, limit-s, verify.  Outputs are
deterministic CSV files (UTF-8, 17 significant digits, '\\n' line ends)
plus JSON sidecars echoing the full configuration; files are written
atomically (temp + rename).

Exit codes: 0 ok, 1 verification failure, 2 bad configuration,
3 numerical failure, 4 lambda within TAU_MULT of the spectrum.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import asdict, dataclass, field

import numpy as np

from . import solver as solver_mod
from .discretize import assemble_green_matrix
from .geometry import K_FRACTION, build_grid, make_domain
from .kernels import SFL_TRUNCATION, make_operator
from .limits import large_solution_limit_s, resolvent_convergence_s
from .spectral import SpectralHit, eigendecompose, lambda_context
from .verify import run_verification

EXIT_OK, EXIT_VERIFY, EXIT_CONFIG, EXIT_NUMERIC, EXIT_SINGULAR = 0, 1, 2, 3, 4


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    op: str = "rfl"
    s: float = 0.75
    domain: str = "interval"
    n: int = 1
    r: float = 1.0
    N: int = 256
    grade: float = 2.0
    M: int = SFL_TRUNCATION
    lam: float = 0.0
    lam_list: list = field(default_factory=list)
    g: str = "zero"
    h: list = field(default_factory=lambda: [1.0])
    K_frac: float = K_FRACTION
    out: str = "."
    seed: int = 0
    group: int = 1
    j_max: int = 10
    s_list: list = field(default_factory=lambda: [0.7, 0.8, 0.9, 0.95, 0.99])

    def to_dict(self) -> dict:
        return asdict(self)


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _atomic_write(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header: list[str], rows, footer: list[str] = ()):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, (int, float, np.floating))
                              else str(v) for v in row))
    lines.extend(footer)
    _atomic_write(path, "\n".join(lines) + "\n")


def write_json(path: str, obj):
    _atomic_write(path, json.dumps(obj, indent=2, sort_keys=True, default=float) + "\n")


def write_sidecar(csv_path: str, cfg: RunConfig):
    write_json(os.path.splitext(csv_path)[0] + ".json", {"config": cfg.to_dict()})


def resolve_g(spec: str, grid, sd, op):
    """Named data profiles: zero, one, delta_pow:alpha, eigmode:j, table:file."""
    spec = spec.strip()
    name, _, arg = spec.partition(":")
    name = name.strip().lower()
    if name == "zero":
        return np.zeros(grid.N)
    if name == "one":
        return np.ones(grid.N)
    if name == "delta_pow":
        alpha = float(arg)
        if alpha <= -1.0 - op.gamma:
            raise ConfigError(f"delta_pow exponent {alpha} outside the admissible range")
        return grid.delta**alpha
    if name == "eigmode":
        if sd is None:
            raise ConfigError("eigmode data needs a spectrum; this command computes none")
        j = int(arg)
        if not 1 <= j <= sd.m:
            raise ConfigError(f"eigmode index {j} out of range 1..{sd.m}")
        return sd.phi[:, j - 1].copy()
    if name == "table":
        try:
            data = np.loadtxt(arg, delimiter=",", ndmin=2)
        except OSError as exc:
            raise ConfigError(f"cannot read g table {arg!r}: {exc}") from exc
        if data.shape[1] != 2:
            raise ConfigError("custom table must have two columns: x, value")
        return np.interp(grid.x, data[:, 0], data[:, 1])
    raise ConfigError(f"unknown g profile {spec!r}")


def _setup(cfg: RunConfig):
    domain = make_domain(cfg.domain, cfg.n, cfg.r)
    op = make_operator(cfg.op, cfg.s, domain, cfg.M)
    grid = build_grid(domain, cfg.N, cfg.grade)
    return domain, op, grid


def _check_request(cfg: RunConfig, grid):
    """Reject a lambda that is not finite, with lambda_context's message, or a
    K fraction that compact_mask refuses on grid, before any assembly."""
    for lam in (cfg.lam, *cfg.lam_list):
        if not np.isfinite(lam):
            raise ConfigError(f"lambda must be finite, got {lam}")
    grid.compact_mask(cfg.K_frac)


def cmd_eigen(cfg: RunConfig) -> int:
    if cfg.j_max < 1:
        raise ConfigError(f"--j-max must be at least 1, got {cfg.j_max}")
    _, op, grid = _setup(cfg)
    sd = eigendecompose(assemble_green_matrix(op, grid))
    j_max = min(cfg.j_max, sd.m)
    rows = [[j + 1, sd.lam[j], *sd.phi[:, j]] for j in range(j_max)]
    header = ["j", "lambda"] + [f"phi_x{i}" for i in range(grid.N)]
    path = os.path.join(cfg.out, "eigen.csv")
    write_csv(path, header, rows)
    q = sd.phi[:, 0] / grid.delta**op.gamma
    write_json(os.path.join(cfg.out, "eigen.json"), {
        "config": cfg.to_dict(),
        "lambda_1": sd.lam[0],
        "gaps": list(np.diff(sd.lam[:j_max])),
        "phi1_delta_bracket": [float(np.min(q)), float(np.max(q))],
        "n_discarded": sd.n_discarded,
        "parity": [int(p) for p in sd.parity[:j_max]],
    })
    return EXIT_OK


def cmd_solve(cfg: RunConfig) -> int:
    _, op, grid = _setup(cfg)
    _check_request(cfg, grid)
    sd = eigendecompose(assemble_green_matrix(op, grid))
    ctx = lambda_context(sd, cfg.lam)
    g = resolve_g(cfg.g, grid, sd, op)
    rep = solver_mod.solve_large(op, sd, ctx, g, cfg.h, cfg.K_frac)
    path = os.path.join(cfg.out, "profile.csv")
    write_csv(path, ["x", "delta", "v_h", "explicit", "u_perp", "v_lambda"],
              zip(grid.x, grid.delta, rep.v_h.values, rep.explicit.values,
                  rep.u_perp.values, rep.v_total.values))
    write_sidecar(path, cfg)
    write_json(os.path.join(cfg.out, "solution.json"),
               {"config": cfg.to_dict(), **rep.to_dict()})
    return EXIT_OK


def cmd_sweep(cfg: RunConfig) -> int:
    _, op, grid = _setup(cfg)
    _check_request(cfg, grid)
    sd = eigendecompose(assemble_green_matrix(op, grid))
    g = resolve_g(cfg.g, grid, sd, op)
    sw = solver_mod.sweep_lambda(op, sd, g, cfg.h, cfg.group, cfg.lam_list or None, cfg.K_frac)
    path = os.path.join(cfg.out, "sweep.csv")
    write_csv(path,
              ["lambda", "sup_K", "sup_K_Aplus", "inf_Omega",
               "uperp_L1_dgamma", "proj_i"],
              zip(sw.lam_list, sw.sup_K, sw.sup_K_Aplus, sw.inf_Omega,
                  sw.uperp_L1_dgamma, sw.proj_i),
              footer=[f"# lambda_i={_fmt(sw.lam_i)}",
                      f"# fitted_constant={_fmt(sw.fitted_constant)}",
                      f"# fitted_spread={_fmt(sw.fitted_spread)}"])
    write_sidecar(path, cfg)
    return EXIT_OK


def cmd_limit_s(cfg: RunConfig) -> int:
    domain = make_domain(cfg.domain, cfg.n, cfg.r)
    grid = build_grid(domain, cfg.N, cfg.grade)
    _check_request(cfg, grid)
    if cfg.g == "zero":
        rep = large_solution_limit_s(cfg.op, cfg.s_list, cfg.lam, None, cfg.h, grid,
                                     cfg.K_frac, cfg.M)
    else:
        g = resolve_g(cfg.g, grid, None, make_operator("classical", 1.0, domain))
        rep = resolvent_convergence_s(cfg.op, cfg.s_list, cfg.lam, g, grid, cfg.M)
    rows = rep.rows()
    header = list(rows[0].keys())
    path = os.path.join(cfg.out, "ladder.csv")
    write_csv(path, header, ([row[k] for k in header] for row in rows))
    write_sidecar(path, cfg)
    write_json(os.path.join(cfg.out, "ladder_summary.json"),
               {"config": cfg.to_dict(), "monotone": rep.monotone})
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    results = run_verification(N=cfg.N, seed=cfg.seed)
    write_json(os.path.join(cfg.out, "verify.json"),
               {"config": cfg.to_dict(),
                "checks": [r.to_dict() for r in results],
                "all_passed": all(r.passed for r in results)})
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: measured={r.measured:.6g} "
              f"tolerance={r.tolerance:.6g}  {r.detail}")
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


_COMMANDS = {"eigen": cmd_eigen, "solve": cmd_solve, "sweep": cmd_sweep,
             "limit-s": cmd_limit_s, "verify": cmd_verify}

_GRID = ("eigen", "solve", "sweep", "limit-s")
_DATA = ("solve", "sweep", "limit-s")

# one row per flag: (flag, RunConfig field, argparse keywords, subcommands that read it);
# a field whose flag is not given keeps its RunConfig default, so sidecars echo the full config
_FLAGS = [
    ("--op", "op", {"choices": ["rfl", "sfl", "classical"]}, _GRID),
    ("--s", "s", {"type": float}, ("eigen", "solve", "sweep")),
    ("--domain", "domain", {"choices": ["interval", "ball"]}, _GRID),
    ("--n", "n", {"type": int}, _GRID),
    ("--r", "r", {"type": float}, _GRID),
    ("--N", "N", {"type": int}, _GRID + ("verify",)),
    ("--grade", "grade", {"type": float}, _GRID),
    ("--M", "M", {"type": int}, _GRID),
    ("--lambda", "lam", {"type": float}, ("solve", "limit-s")),
    ("--lambda-list", "lam_list", {"type": _floats}, ("sweep",)),
    ("--g", "g", {}, _DATA),
    ("--h", "h", {"type": _floats}, _DATA),
    ("--K-frac", "K_frac", {"type": float}, _DATA),
    ("--out", "out", {}, tuple(_COMMANDS)),
    ("--seed", "seed", {"type": int}, ("verify",)),
    ("--group", "group", {"type": int}, ("sweep",)),
    ("--j-max", "j_max", {"type": int}, ("eigen",)),
    ("--s-list", "s_list", {"type": _floats}, ("limit-s",)),
]


def _parse_args(argv) -> tuple[str, RunConfig]:
    p = argparse.ArgumentParser(
        prog="nonlocal-eigen",
        description="Nonlocal eigenvalue laboratory: Green's operators, "
                    "Nystrom spectra, large boundary-blow-up solutions.")
    sub = p.add_subparsers(dest="command", required=True)
    # no abbreviations: a prefix would turn an unread flag into a read one (sweep --lambda)
    parsers = {name: sub.add_parser(name, allow_abbrev=False,
                                    argument_default=argparse.SUPPRESS)
               for name in _COMMANDS}
    for flag, dest, kw, commands in _FLAGS:
        for name in commands:
            parsers[name].add_argument(flag, dest=dest, **kw)
    a = vars(p.parse_args(argv))
    command = a.pop("command")
    if a.get("s_list") == []:
        del a["s_list"]  # an empty --s-list keeps the default ladder
    cfg = RunConfig(**a)
    if command == "limit-s" and cfg.g != "zero" and {"h", "K_frac"} & a.keys():
        parsers[command].error("--h and --K-frac are read only by the large-solution "
                               "ladder (--g zero)")
    return command, cfg


def main(argv=None) -> int:
    try:
        command, cfg = _parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad flags, which matches the contract
        return int(exc.code or 0)
    try:
        return _COMMANDS[command](cfg)
    except SpectralHit as exc:
        print(f"spectral hit: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ArithmeticError, AssertionError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
