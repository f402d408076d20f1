"""Command-line runner emitting CSV artifacts.

Four subcommands share one flag set:

  direct  solve a direct problem; writes field.csv, flux_left.csv,
          flux_right.csv
  invert  assemble and solve an identification problem; writes force.csv,
          metrics.csv, optionally lcurve.csv and the raw system
  lcurve  sweep the regularization weight and pick the corner; writes
          lcurve.csv and metrics.csv
  tables  regenerate the six reference tables (condition numbers, flux
          convergence, regularized accuracy) as table1.csv .. table6.csv

Problems come either from a benchmark scenario (--example 1..5) or from
external data files (series and matrices in the csvio formats). Every run
writes manifest.json recording the resolved configuration, seed, and
package version; identical configuration yields byte-identical artifacts.
Failures exit with status 1 and a single "ErrorClass: message" line on
stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields as dc_fields
from pathlib import Path

import numpy as np

from . import __version__
from .benchmarks import (
    REFERENCE_FLUX_TIMES,
    REFERENCE_REGULARIZATION,
    direct_problem,
    exact_force,
    inverse_problem,
    measured_flux,
)
from .csvio import ensure_dir, read_matrix, read_series, write_matrix, write_rows, write_series
from .errors import WaveforceError
from .fdm import flux, solve_direct
from .inverse import assemble_dual, assemble_single
from .lcurve import corner, sweep
from .model import (
    LEFT,
    RIGHT,
    BoundaryData,
    FluxSeries,
    GridSpec,
    InitialData,
    Source,
    WaveProblem,
    _integer,
)
from .noise import NoiseSpec
from .tikhonov import RegConfig, accuracy_error, condition_number, tikhonov_solve

_TABLE_SIZES = (10, 20, 40, 80)
_TABLE_NOISE_PCT = (1, 3, 5)


@dataclass
class RunConfig:
    """Fully resolved invocation: defaults, config file, and flags merged.

    A field whose default is None is optional; _resolve turns N = None into N = M.
    """

    command: str
    example: int | None = None
    M: int = 80
    N: int | None = None
    L: float = 1.0
    T: float = 1.0
    c: float = 1.0
    noise_pct: float = 0.0
    seed: int = 1
    reg_order: int = 0
    lam: str = "0"
    lambda_grid: list | None = None
    out: str = "out"
    data_refine: int = 1
    dump_system: bool = False
    u0: str | None = None
    v0: str | None = None
    bc_left: str | None = None
    bc_right: str | None = None
    force: str | None = None
    modulation: str | None = None
    modulation2: str | None = None
    measured_left: str | None = None
    measured_right: str | None = None

    def grid(self) -> GridSpec:
        return GridSpec(self.L, self.T, self.M, self.N, self.c)

    def noise(self) -> NoiseSpec | None:
        if self.noise_pct == 0:
            return None
        return NoiseSpec(self.noise_pct / 100.0, self.seed)


def _weights(value) -> list:
    if isinstance(value, str):
        value = [tok for tok in value.split(",") if tok.strip()]
    return [float(v) for v in value]


def _boolean(value) -> bool:
    # bool("false") is True, so only real booleans are taken
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def _check_lambda(lam: str) -> None:
    try:
        ok = lam == "lcurve" or 0.0 <= float(lam) < float("inf")  # False for nan
    except ValueError:
        ok = False
    if not ok:
        raise WaveforceError(f"'lambda' must be 'lcurve' or a finite number >= 0, got {lam!r}")


# RunConfig annotation (before any "| None") -> conversion of a flag or
# config value
_CONVERT = {"int": _integer, "float": float, "str": str, "bool": _boolean, "list": _weights}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="waveforce",
        description="Identify space-dependent wave-equation forces from boundary flux data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "direct": "solve a direct problem and write the field and fluxes",
        "invert": "assemble and solve an identification problem",
        "lcurve": "sweep the regularization weight and report the corner",
        "tables": "regenerate the reference tables",
    }
    for name, blurb in specs.items():
        sp = sub.add_parser(name, help=blurb)
        sp.add_argument("--config", help="JSON file with defaults; flags override it")
        sp.add_argument("--example", type=int, help="benchmark scenario id (1..5)")
        sp.add_argument("--M", type=int, help="space subintervals (default 80)")
        sp.add_argument("--N", type=int, help="time subintervals (default M)")
        sp.add_argument("--L", type=float, help="space extent (default 1)")
        sp.add_argument("--T", type=float, help="time extent (default 1)")
        sp.add_argument("--c", type=float, help="wave speed (default 1)")
        sp.add_argument("--seed", type=int, help="noise seed (default 1)")
        sp.add_argument("--out", help="output directory (default ./out)")
        if name == "tables":
            continue
        sp.add_argument("--noise-pct", type=float, dest="noise_pct",
                        help="noise level as a percentage of the flux peak (default 0)")
        sp.add_argument("--data-refine", type=int, dest="data_refine",
                        help="simulate measured data on a mesh this many times finer (default 1)")
        sp.add_argument("--u0", help="initial displacement series file (M+1 values)")
        sp.add_argument("--v0", help="initial velocity series file (M+1 values)")
        sp.add_argument("--bc-left", dest="bc_left", help="left Dirichlet series file (N+1 values)")
        sp.add_argument("--bc-right", dest="bc_right", help="right Dirichlet series file (N+1 values)")
        sp.add_argument("--modulation", help="source modulation matrix file ((M+1) x (N+1))")
        if name == "direct":
            sp.add_argument("--force", help="force profile series file (M-1 or M+1 values)")
        else:
            sp.add_argument("--modulation2", help="second modulation matrix file (dual source)")
            sp.add_argument("--measured-left", dest="measured_left",
                            help="measured left flux series file (N values)")
            sp.add_argument("--measured-right", dest="measured_right",
                            help="measured right flux series file (N values, dual source)")
            sp.add_argument("--reg-order", type=int, dest="reg_order",
                            help="penalty order 0, 1 or 2 (default 0)")
            sp.add_argument("--lambda", dest="lam",
                            help="regularization weight, or 'lcurve' to pick the corner")
            sp.add_argument("--lambda-grid", dest="lambda_grid",
                            help="comma-separated ascending weights for the sweep")
        if name == "invert":
            sp.add_argument("--dump-system", dest="dump_system", action="store_true",
                            default=None, help="also write system_A.csv and system_b.csv")
    return parser


def _resolve(args: argparse.Namespace) -> RunConfig:
    settings = [f for f in dc_fields(RunConfig) if f.name != "command"]
    from_file = {}
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise WaveforceError("config file must hold a JSON object")
        names = {f.name for f in settings}
        for key, value in raw.items():
            dest = "lam" if key == "lambda" else key
            if dest not in names:
                raise WaveforceError(f"unknown config key {key!r}")
            from_file[dest] = value
    merged = {}
    for field in settings:
        flag = getattr(args, field.name, None)
        merged[field.name] = flag if flag is not None else from_file.get(field.name, field.default)
    if merged["N"] is None:
        merged["N"] = merged["M"]
    for field in settings:
        value = merged[field.name]
        if value is None and field.default is None:
            continue
        name = "lambda" if field.name == "lam" else field.name
        if value is None:
            raise WaveforceError(f"{name!r} must not be null")
        try:
            merged[field.name] = _CONVERT[field.type.split(" |")[0]](value)
        except (TypeError, ValueError) as exc:
            raise WaveforceError(f"bad value for {name!r}: {exc}") from None
    if merged["noise_pct"] < 0:
        raise WaveforceError(f"noise percentage must be >= 0, got {merged['noise_pct']}")
    _check_lambda(merged["lam"])
    return RunConfig(command=args.command, **merged)


def _config_doc(cfg: RunConfig) -> dict:
    doc = {}
    for field in dc_fields(cfg):
        if field.name == "command":
            continue
        name = "lambda" if field.name == "lam" else field.name
        doc[name] = getattr(cfg, field.name)
    return doc


def _write_manifest(outdir: Path, cfg: RunConfig, artifacts: list) -> None:
    doc = {
        "version": __version__,
        "command": cfg.command,
        "config": _config_doc(cfg),
        "artifacts": sorted(artifacts),
    }
    with open(outdir / "manifest.json", "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _external_data(cfg: RunConfig, grid: GridSpec):
    u0 = read_series(cfg.u0) if cfg.u0 else np.zeros(grid.M + 1)
    v0 = read_series(cfg.v0) if cfg.v0 else np.zeros(grid.M + 1)
    left = read_series(cfg.bc_left) if cfg.bc_left else np.zeros(grid.N + 1)
    right = read_series(cfg.bc_right) if cfg.bc_right else np.zeros(grid.N + 1)
    return InitialData(u0, v0), BoundaryData(left, right)


def _external_modulation(cfg: RunConfig, grid: GridSpec) -> np.ndarray:
    if cfg.modulation:
        return read_matrix(cfg.modulation)
    return np.ones((grid.M + 1, grid.N + 1))


def _run_direct(cfg: RunConfig, outdir: Path) -> list:
    grid = cfg.grid()
    if cfg.example is not None:
        problem = direct_problem(cfg.example, grid)
    else:
        initial, boundary = _external_data(cfg, grid)
        base = WaveProblem(grid, initial, boundary,
                           Source((_external_modulation(cfg, grid),)))
        profile = read_series(cfg.force) if cfg.force else np.zeros(grid.M - 1)
        problem = base.with_force(profile)
    field = solve_direct(problem)
    write_matrix(outdir / "field.csv", field.values)
    write_series(outdir / "flux_left.csv", flux(field, LEFT).values)
    write_series(outdir / "flux_right.csv", flux(field, RIGHT).values)
    return ["field.csv", "flux_left.csv", "flux_right.csv"]


def _assemble(cfg: RunConfig):
    """Build the inverse system per the configuration.

    One measured series per observed end: the left end, and the right end
    too when the source has two modulations. Returns (system, exact
    ForceVector or None).
    """
    grid = cfg.grid()
    if cfg.example is not None:
        problem = inverse_problem(cfg.example, grid)
        ends = (LEFT, RIGHT)[:problem.source.unknowns]
        measured = [measured_flux(cfg.example, grid, end, cfg.data_refine) for end in ends]
        exact = exact_force(cfg.example, grid)
    else:
        if cfg.measured_left is None:
            raise WaveforceError("identification needs --example or --measured-left")
        dual = cfg.measured_right is not None
        if dual != (cfg.modulation2 is not None):
            raise WaveforceError("dual identification needs both --modulation2 and --measured-right")
        measured = [FluxSeries(LEFT, read_series(cfg.measured_left))]
        modulations = [_external_modulation(cfg, grid)]
        if dual:
            measured.append(FluxSeries(RIGHT, read_series(cfg.measured_right)))
            modulations.append(read_matrix(cfg.modulation2))
        initial, boundary = _external_data(cfg, grid)
        problem = WaveProblem(grid, initial, boundary, Source(modulations))
        exact = None
    assemble = assemble_single if len(measured) == 1 else assemble_dual
    return assemble(problem, *measured, cfg.noise()), exact


def _write_lcurve(outdir: Path, points) -> str:
    write_rows(outdir / "lcurve.csv", ["lambda", "residual_norm", "solution_norm"],
               [(p.lam, p.residual_norm, p.solution_norm) for p in points])
    return "lcurve.csv"


def _run_invert(cfg: RunConfig, outdir: Path) -> list:
    system, exact = _assemble(cfg)
    artifacts = []
    if cfg.lam == "lcurve":
        points = sweep(system, cfg.reg_order, cfg.lambda_grid)
        artifacts.append(_write_lcurve(outdir, points))
        lam = corner(points).lam
    else:
        lam = float(cfg.lam)
    solution = tikhonov_solve(system, RegConfig(order=cfg.reg_order, lam=lam))
    grid = system.grid
    if system.components == 2:
        header = ["x", "f", "g"]
        rows = list(zip(grid.interior_x, solution.f, solution.g))
    else:
        header = ["x", "f"]
        rows = list(zip(grid.interior_x, solution.f))
    write_rows(outdir / "force.csv", header, rows)
    artifacts.append("force.csv")
    metrics = [
        ("lambda", lam),
        ("reg_order", str(cfg.reg_order)),
        ("condition_number", condition_number(system.A)),
        ("noise_pct", cfg.noise_pct),
        ("seed", str(cfg.seed)),
    ]
    if exact is not None:
        metrics.append(("accuracy_error", accuracy_error(solution, exact)))
    write_rows(outdir / "metrics.csv", ["metric", "value"], metrics)
    artifacts.append("metrics.csv")
    if cfg.dump_system:
        write_matrix(outdir / "system_A.csv", system.A)
        write_series(outdir / "system_b.csv", system.b)
        artifacts += ["system_A.csv", "system_b.csv"]
    return artifacts


def _run_lcurve(cfg: RunConfig, outdir: Path) -> list:
    system, _ = _assemble(cfg)
    points = sweep(system, cfg.reg_order, cfg.lambda_grid)
    artifacts = [_write_lcurve(outdir, points)]
    best = corner(points)
    write_rows(outdir / "metrics.csv", ["metric", "value"], [
        ("lambda_corner", best.lam),
        ("residual_norm", best.residual_norm),
        ("solution_norm", best.solution_norm),
        ("reg_order", str(cfg.reg_order)),
        ("noise_pct", cfg.noise_pct),
        ("seed", str(cfg.seed)),
    ])
    artifacts.append("metrics.csv")
    return artifacts


def _run_tables(cfg: RunConfig, outdir: Path) -> list:
    wanted = (cfg.example,) if cfg.example is not None else (1, 2, 3, 4)
    for ex in wanted:
        if ex not in (1, 2, 3, 4):
            raise WaveforceError(f"tables cover scenarios 1..4, got {ex}")
    artifacts = []

    # (scenario, M) -> (noise-free system, exact profile); tables 4-6 reuse
    # the M = 80 systems of table1
    assembled = {(ex, m): _assemble(RunConfig(cfg.command, example=ex, M=m, N=m))
                 for ex in wanted for m in _TABLE_SIZES}
    rows = [(str(ex), str(m), condition_number(system.A))
            for (ex, m), (system, _) in assembled.items()]
    write_rows(outdir / "table1.csv", ["example", "M", "cond"], rows)
    artifacts.append("table1.csv")

    for ex, name in ((1, "table2.csv"), (2, "table3.csv")):
        if ex not in wanted:
            continue
        rows = []
        for m in _TABLE_SIZES:
            grid = GridSpec(1.0, 1.0, m, m, 1.0)
            q = flux(solve_direct(direct_problem(ex, grid)), LEFT)
            for t in REFERENCE_FLUX_TIMES:
                j = round(t * grid.N)
                rows.append((str(m), t, q.values[j - 1]))
        write_rows(outdir / name, ["M", "t", "flux"], rows)
        artifacts.append(name)

    for ex, name in ((2, "table4.csv"), (3, "table5.csv"), (4, "table6.csv")):
        if ex not in wanted:
            continue
        system, exact = assembled[(ex, 80)]
        measured = measured_flux(ex, system.grid, LEFT)
        rows = []
        for order in (0, 1, 2):
            for pct in _TABLE_NOISE_PCT:
                lam, _ = REFERENCE_REGULARIZATION[(ex, order, pct)]
                noisy = system.with_measurement(
                    measured, noise=NoiseSpec(pct / 100.0, cfg.seed))
                solution = tikhonov_solve(noisy, RegConfig(order=order, lam=lam))
                rows.append((str(ex), str(order), str(pct), lam,
                             accuracy_error(solution, exact)))
        write_rows(outdir / name, ["example", "reg_order", "noise_pct", "lambda", "accuracy_error"], rows)
        artifacts.append(name)
    return artifacts


_COMMANDS = {
    "direct": _run_direct,
    "invert": _run_invert,
    "lcurve": _run_lcurve,
    "tables": _run_tables,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        outdir = ensure_dir(cfg.out)
        artifacts = _COMMANDS[cfg.command](cfg, outdir)
        _write_manifest(outdir, cfg, artifacts + ["manifest.json"])
    except (WaveforceError, OSError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
