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
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import solver as solver_mod
from .boundary import boundary_values
from .discretize import assemble_green_matrix
from .geometry import build_grid, make_domain
from .kernels import SFL_TRUNCATION, make_operator
from .limits import large_solution_limit_s, resolvent_convergence_s
from .spectral import SpectralHit, eigendecompose, lambda_context
from .verify import run_verification

EXIT_OK, EXIT_VERIFY, EXIT_CONFIG, EXIT_NUMERIC, EXIT_SINGULAR = 0, 1, 2, 3, 4


_GRID = ("eigen", "solve", "sweep", "limit-s")
_DATA = ("solve", "sweep", "limit-s")


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def _setting(default, *commands, flag=None, choices=None):
    """A RunConfig field read by `commands`, under `flag` (by default `--` and
    the field name with `-` for `_`); a list default parses comma-separated floats."""
    kind = _floats if isinstance(default, list) else type(default)
    meta = {"commands": commands, "flag": flag, "argparse": {"type": kind, "choices": choices}}
    if kind is _floats:
        return field(default_factory=lambda: list(default), metadata=meta)
    return field(default=default, metadata=meta)


def _flag(f) -> str:
    return f.metadata["flag"] or "--" + f.name.replace("_", "-")


@dataclass
class RunConfig:
    """Each setting once; a flag not given keeps its default, so sidecars echo the full config."""
    op: str = _setting("rfl", *_GRID, choices=("rfl", "sfl", "classical"))
    s: float = _setting(0.75, "eigen", "solve", "sweep")
    domain: str = _setting("interval", *_GRID, choices=("interval", "ball"))
    n: int = _setting(1, *_GRID)
    r: float = _setting(1.0, *_GRID)
    N: int = _setting(256, *_GRID, "verify")
    grade: float = _setting(2.0, *_GRID)
    M: int = _setting(SFL_TRUNCATION, *_GRID)
    lam: float = _setting(0.0, "solve", "limit-s", flag="--lambda")
    lam_list: list = _setting([], "sweep", flag="--lambda-list")
    g: str = _setting("zero", *_DATA)
    h: list = _setting([1.0], *_DATA)
    out: str = _setting(".", *_GRID, "verify")
    seed: int = _setting(0, "verify")
    group: int = _setting(1, "sweep")
    j_max: int = _setting(10, "eigen")
    s_list: list = _setting([0.7, 0.8, 0.9, 0.95, 0.99], "limit-s")

    def to_dict(self) -> dict:
        return asdict(self)


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _atomic_write(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path))
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
    """Named data profiles: zero, one, delta_pow:alpha, eigmode:j, table:file;
    only eigmode reads the spectrum sd, and with sd None it parses j and returns None."""
    spec = spec.strip()
    name, _, arg = spec.partition(":")
    name = name.strip().lower()
    try:
        value = {"delta_pow": float, "eigmode": int}.get(name, str)(arg)
    except ValueError:
        raise ValueError(f"cannot parse the argument {arg!r} of g profile {spec!r}") from None
    if name == "zero":
        return np.zeros(grid.N)
    if name == "one":
        return np.ones(grid.N)
    if name == "delta_pow":
        if not np.isfinite(value):
            raise ValueError(f"delta_pow exponent must be finite, got {arg!r}")
        if value <= -1.0 - op.gamma:
            raise ValueError(f"delta_pow exponent {value} outside the admissible range")
        return grid.delta**value
    if name == "eigmode":
        if sd is None:
            return None
        if not 1 <= value <= sd.m:
            raise ValueError(f"eigmode index {value} out of range 1..{sd.m}")
        return sd.phi[:, value - 1].copy()
    if name == "table":
        try:
            data = np.loadtxt(arg, delimiter=",", ndmin=2)
        except OSError as exc:
            raise ValueError(f"cannot read g table {arg!r}: {exc}") from exc
        if data.shape[1] != 2:
            raise ValueError("custom table must have two columns: x, value")
        if not np.all(np.isfinite(data)):
            raise ValueError(f"custom table {arg!r} has non-finite values")
        if not np.all(np.diff(data[:, 0]) > 0):
            raise ValueError("custom table's x column must strictly increase")
        # np.interp would copy the end values to every node outside the table
        (a, b), (lo, hi) = data[[0, -1], 0], grid.x[[0, -1]]
        if a > lo or b < hi:
            raise ValueError(f"custom table's x column spans [{a:.17g}, {b:.17g}], "
                             f"short of the grid's nodes on [{lo:.17g}, {hi:.17g}]")
        return np.interp(grid.x, data[:, 0], data[:, 1])
    raise ValueError(f"unknown g profile {spec!r}")


def _grid(cfg: RunConfig):
    """The grid, after rejecting a lambda that is not finite, with lambda_context's
    message, before any assembly."""
    for lam in (cfg.lam, *cfg.lam_list):
        if not np.isfinite(lam):
            raise ValueError(f"lambda must be finite, got {lam}")
    return build_grid(make_domain(cfg.domain, cfg.n, cfg.r), cfg.N, cfg.grade)


def _spectrum(cfg: RunConfig):
    """The checked request's spectrum, which carries the operator and the grid,
    and its g. h and g are checked before assembly, an eigmode index after;
    eigen reads neither and keeps their defaults."""
    grid = _grid(cfg)
    op = make_operator(cfg.op, cfg.s, grid.domain, cfg.M)
    boundary_values(op, cfg.h)
    g = resolve_g(cfg.g, grid, None, op)
    sd = eigendecompose(assemble_green_matrix(op, grid))
    return sd, resolve_g(cfg.g, grid, sd, op) if g is None else g


def cmd_eigen(cfg: RunConfig) -> int:
    if cfg.j_max < 1:
        raise ValueError(f"--j-max must be at least 1, got {cfg.j_max}")
    sd, _ = _spectrum(cfg)
    j_max = min(cfg.j_max, sd.m)
    rows = [[j + 1, sd.lam[j], *sd.phi[:, j]] for j in range(j_max)]
    header = ["j", "lambda"] + [f"phi_x{i}" for i in range(sd.grid.N)]
    path = os.path.join(cfg.out, "eigen.csv")
    write_csv(path, header, rows)
    q = sd.phi[:, 0] / sd.grid.delta**sd.dk.op.gamma
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
    sd, g = _spectrum(cfg)
    grid = sd.grid
    ctx = lambda_context(sd, cfg.lam)
    rep = solver_mod.solve_large(sd.dk.op, sd, ctx, g, cfg.h)
    path = os.path.join(cfg.out, "profile.csv")
    write_csv(path, ["x", "delta", "v_h", "explicit", "u_perp", "v_lambda"],
              zip(grid.x, grid.delta, rep.v_h.values, rep.explicit.values,
                  rep.u_perp.values, rep.v_total.values))
    write_sidecar(path, cfg)
    write_json(os.path.join(cfg.out, "solution.json"),
               {"config": cfg.to_dict(), **rep.to_dict()})
    return EXIT_OK


def cmd_sweep(cfg: RunConfig) -> int:
    # the upper end of the group range needs the spectrum, which sd.group checks
    if cfg.group < 1:
        raise ValueError(f"--group must be at least 1, got {cfg.group}")
    sd, g = _spectrum(cfg)
    sw = solver_mod.sweep_lambda(sd.dk.op, sd, g, cfg.h, cfg.group, cfg.lam_list or None)
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
    grid = _grid(cfg)
    # the lowest rung has the smallest gamma, so it admits the least data
    lowest = make_operator(cfg.op, min(cfg.s_list), grid.domain, cfg.M)
    if cfg.g == "zero":
        boundary_values(lowest, cfg.h)
        rep = large_solution_limit_s(cfg.op, cfg.s_list, cfg.lam, cfg.h, grid, cfg.M)
    else:
        g = resolve_g(cfg.g, grid, None, lowest)
        if g is None:
            raise ValueError("eigmode data needs a spectrum; limit-s computes none")
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


_COMMANDS = {"eigen": cmd_eigen, "solve": cmd_solve, "sweep": cmd_sweep,
             "limit-s": cmd_limit_s, "verify": cmd_verify}


def _join_negative_values(argv) -> list:
    """argv with each numeric flag and a following value that starts with `-`
    and reads as the flag's type joined into one `--flag=value` token:
    argparse takes such a token for a flag unless it is a plain negative
    number, so `--lambda -1e3` and `--h -1,2` would lack their argument."""
    kinds = {_flag(f): f.metadata["argparse"]["type"] for f in fields(RunConfig)
             if f.metadata["argparse"]["type"] in (int, float, _floats)}
    out, rest = [], list(argv)
    while rest:
        token = rest.pop(0)
        if token in kinds and rest and rest[0].startswith("-"):
            try:
                kinds[token](rest[0])
                token = f"{token}={rest.pop(0)}"
            except ValueError:
                pass  # `--lambda --g`: argparse reports the missing argument
        out.append(token)
    return out


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
    for f in fields(RunConfig):
        for name in f.metadata["commands"]:
            parsers[name].add_argument(_flag(f), dest=f.name, **f.metadata["argparse"])
    a = vars(p.parse_args(_join_negative_values(argv)))
    command = a.pop("command")
    if a.get("s_list") == []:
        del a["s_list"]  # an empty --s-list keeps the default ladder
    cfg = RunConfig(**a)
    if command == "limit-s" and cfg.g != "zero" and "h" in a:
        parsers[command].error("--h is read only by the large-solution ladder (--g zero)")
    return command, cfg


def main(argv=None) -> int:
    try:
        command, cfg = _parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad flags, which matches the contract
        return int(exc.code or 0)
    try:
        os.makedirs(cfg.out, exist_ok=True)
        tempfile.TemporaryFile(dir=cfg.out).close()
    except OSError as exc:
        print(f"configuration error: cannot write {cfg.out!r}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
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
