"""Command-line runner emitting CSV artifacts.

The subcommands direct, invert, lcurve and tables (_COMMANDS says what
each writes) take only the settings they read. Each setting is one
RunConfig field, stated once with its type, default, help text and the
commands that read it; the subcommands' flags, the keys a --config file
may hold, the conversion of both and the names in the manifest all derive
from it. Problems come either from a benchmark scenario (--example 1..5)
or from external data files (series and matrices in the csvio formats).
Every run writes manifest.json recording the resolved configuration,
seed, and package version; identical configuration yields byte-identical
artifacts. --timings FILE writes the wall time of each stage as one JSON
object; it is not an artifact, so it stays out of the manifest. Failures,
a malformed flag or config value included, exit with status 1 and a
single "ErrorClass: message" line on stderr; a flag the command does not
take is an argparse usage error (status 2).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field, fields as dc_fields
from pathlib import Path

import numpy as np
# loaded here, not lazily by the first noise draw, so --timings books its
# one-time cost to no stage
import numpy.random  # noqa: F401

from . import __version__
from .benchmarks import (
    REFERENCE_FLUX_TIMES,
    REFERENCE_REGULARIZATION,
    direct_problem,
    exact_force,
    example_spec,
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

_ALL = ("direct", "invert", "lcurve", "tables")
_PROBLEM = ("direct", "invert", "lcurve")  # the commands that build one problem
_IDENTIFY = ("invert", "lcurve")


def _setting(default, help, commands, *, name=None, check=None, flag_only=False):
    """A RunConfig field read by `commands`, which take it as a flag and a config key.

    `name` replaces the field name as flag, config key and manifest name;
    `check(value)` raises on a value out of range; a flag_only setting is
    neither a config key nor recorded in the manifest.
    """
    return field(default=default, metadata={
        "help": help, "commands": commands, "name": name, "check": check, "flag_only": flag_only})


def _at_least_one(value) -> None:
    if value < 1:
        raise WaveforceError(f"must be >= 1, got {value}")


@dataclass
class RunConfig:
    """Fully resolved invocation: defaults, config file, and flags merged.

    Every field but `command` is a setting, stated by _setting. A field
    whose default is None is optional; _resolve turns N = None into N = M.
    """

    command: str
    example: int | None = _setting(None, "benchmark scenario id (1..5)", _ALL, check=example_spec)
    M: int = _setting(80, "space subintervals", _PROBLEM)
    N: int | None = _setting(None, "time subintervals (default M)", _PROBLEM)
    L: float = _setting(1.0, "space extent", _PROBLEM)
    T: float = _setting(1.0, "time extent", _PROBLEM)
    c: float = _setting(1.0, "wave speed", _PROBLEM)
    noise_pct: float = _setting(0.0, "noise level as a percentage of the flux peak", _IDENTIFY,
                                check=lambda pct: NoiseSpec(pct / 100.0))
    seed: int = _setting(1, "noise seed", ("invert", "lcurve", "tables"),
                         check=lambda seed: NoiseSpec(0.0, seed))
    reg_order: int = _setting(0, "penalty order 0, 1 or 2", _IDENTIFY,
                              check=lambda order: RegConfig(order=order))
    lam: str = _setting("0", "regularization weight, or 'lcurve' to pick the corner", ("invert",),
                        name="lambda", check=lambda lam: lam == "lcurve" or RegConfig(lam=float(lam)))
    lambda_grid: list | None = _setting(None, "comma-separated ascending weights for the sweep",
                                        _IDENTIFY)
    out: str = _setting("out", "output directory", _ALL)
    data_refine: int = _setting(1, "simulate measured data on a mesh this many times finer",
                                _IDENTIFY, check=_at_least_one)
    dump_system: bool = _setting(False, "also write system_A.csv and system_b.csv", ("invert",))
    u0: str | None = _setting(None, "initial displacement series file (M+1 values)", _PROBLEM)
    v0: str | None = _setting(None, "initial velocity series file (M+1 values)", _PROBLEM)
    bc_left: str | None = _setting(None, "left Dirichlet series file (N+1 values)", _PROBLEM)
    bc_right: str | None = _setting(None, "right Dirichlet series file (N+1 values)", _PROBLEM)
    force: str | None = _setting(None, "force profile series file (M-1 or M+1 values)", ("direct",))
    modulation: str | None = _setting(None, "source modulation matrix file ((M+1) x (N+1))", _PROBLEM)
    modulation2: str | None = _setting(None, "second modulation matrix file (dual source)", _IDENTIFY)
    measured_left: str | None = _setting(None, "measured left flux series file (N values)", _IDENTIFY)
    measured_right: str | None = _setting(None, "measured right flux series file "
                                          "(N values, dual source)", _IDENTIFY)
    config: str | None = _setting(None, "JSON file with defaults; flags override it", _ALL,
                                  flag_only=True)
    timings: str | None = _setting(None, "write per-stage wall times (JSON) to this file; "
                                   "not an artifact", _IDENTIFY, flag_only=True)

    def grid(self) -> GridSpec:
        return GridSpec(self.L, self.T, self.M, self.N, self.c)

    def noise(self) -> NoiseSpec | None:
        if self.noise_pct == 0:
            return None
        return NoiseSpec(self.noise_pct / 100.0, self.seed)


# name (flag less its dashes, config key, manifest key) -> RunConfig field
_SETTINGS = {f.metadata["name"] or f.name: f for f in dc_fields(RunConfig) if f.metadata}


def _settings(command: str) -> dict:
    """The settings `command` reads, by name."""
    return {name: f for name, f in _SETTINGS.items() if command in f.metadata["commands"]}


def _int(value) -> int:
    # a flag arrives as text; a JSON number goes to _integer as it is
    return _integer(int(value) if isinstance(value, str) else value)


def _text(value) -> str:
    # a JSON number is taken as its text ("lambda": 0); a list, object or bool is not
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ValueError(f"expected text, got {value!r}")
    return str(value)


def _weights(value) -> list:
    if isinstance(value, str):
        value = [tok for tok in value.split(",") if tok.strip()]
    return [float(v) for v in value]


def _boolean(value) -> bool:
    # bool("false") is True, so only real booleans are taken
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


# RunConfig annotation (before any "| None") -> conversion of a flag or
# config value
_CONVERT = {"int": _int, "float": float, "str": _text, "bool": _boolean, "list": _weights}


class _Stages:
    """Wall time of each pipeline stage, by time.perf_counter: lap(name)
    books the time since the previous lap to that stage."""

    def __init__(self):
        self.seconds = {}
        self._last = time.perf_counter()

    def lap(self, stage):
        now = time.perf_counter()
        self.seconds[stage] = self.seconds.get(stage, 0.0) + now - self._last
        self._last = now


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="waveforce",
        description="Identify space-dependent wave-equation forces from boundary flux data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, blurb) in _COMMANDS.items():
        # no abbreviations: lcurve would read --lambda as --lambda-grid
        sp = sub.add_parser(command, help=blurb, allow_abbrev=False)
        for name, setting in _settings(command).items():
            helptext = setting.metadata["help"]
            if setting.type == "bool":
                kind = {"action": "store_true", "default": None}
            else:  # the text is converted with config values in _resolve
                kind = {"metavar": name.upper()}
                if setting.default is not None:
                    helptext += f" (default {setting.default})"
            sp.add_argument("--" + name.replace("_", "-"), dest=setting.name, help=helptext, **kind)
    return parser


def _resolve(args: argparse.Namespace) -> RunConfig:
    from_file = {}
    if args.config:
        with open(args.config) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise WaveforceError("config file must hold a JSON object")
        taken = _settings(args.command)
        for key, value in raw.items():
            if key not in taken or taken[key].metadata["flag_only"]:
                raise WaveforceError(f"unknown config key {key!r}")
            from_file[taken[key].name] = value
    merged = {}
    for setting in _SETTINGS.values():
        flag = getattr(args, setting.name, None)
        merged[setting.name] = flag if flag is not None else from_file.get(setting.name, setting.default)
    if merged["N"] is None:
        merged["N"] = merged["M"]
    for name, setting in _SETTINGS.items():
        value = merged[setting.name]
        if value is None and setting.default is None:
            continue
        if value is None:
            raise WaveforceError(f"{name!r} must not be null")
        try:
            merged[setting.name] = value = _CONVERT[setting.type.split(" |")[0]](value)
            if setting.metadata["check"]:
                setting.metadata["check"](value)
        except (TypeError, ValueError) as exc:
            raise WaveforceError(f"bad value for {name!r}: {exc}") from None
    return RunConfig(command=args.command, **merged)


def _write_manifest(outdir: Path, cfg: RunConfig, artifacts: list) -> None:
    doc = {
        "version": __version__,
        "command": cfg.command,
        "config": {name: getattr(cfg, f.name) for name, f in _SETTINGS.items()
                   if not f.metadata["flag_only"]},
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


def _run_direct(cfg: RunConfig, outdir: Path, stages: _Stages) -> list:
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


def _assemble(cfg: RunConfig, stages: _Stages):
    """Build the inverse system per the configuration.

    One measured series per observed end: the left end, and the right end
    too when the source has two modulations. Returns (system, exact
    ForceVector or None); the stages "data" and "assembly" are booked.
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
    stages.lap("data")
    assemble = assemble_single if len(measured) == 1 else assemble_dual
    system = assemble(problem, *measured, cfg.noise())
    stages.lap("assembly")
    return system, exact


def _write_lcurve(outdir: Path, points) -> str:
    write_rows(outdir / "lcurve.csv", ["lambda", "residual_norm", "solution_norm"],
               [(p.lam, p.residual_norm, p.solution_norm) for p in points])
    return "lcurve.csv"


def _run_invert(cfg: RunConfig, outdir: Path, stages: _Stages) -> list:
    system, exact = _assemble(cfg, stages)
    points = None
    if cfg.lam == "lcurve":
        points = sweep(system, cfg.reg_order, cfg.lambda_grid)
        stages.lap("sweep")
        lam = corner(points).lam
        stages.lap("corner")
    else:
        lam = float(cfg.lam)
    solution = tikhonov_solve(system, RegConfig(order=cfg.reg_order, lam=lam))
    stages.lap("solve")
    cond = condition_number(system.A)
    stages.lap("cond")
    artifacts = [] if points is None else [_write_lcurve(outdir, points)]
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
        ("condition_number", cond),
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


def _run_lcurve(cfg: RunConfig, outdir: Path, stages: _Stages) -> list:
    system, _ = _assemble(cfg, stages)
    points = sweep(system, cfg.reg_order, cfg.lambda_grid)
    stages.lap("sweep")
    best = corner(points)
    stages.lap("corner")
    artifacts = [_write_lcurve(outdir, points)]
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


def _run_tables(cfg: RunConfig, outdir: Path, stages: _Stages) -> list:
    wanted = (cfg.example,) if cfg.example is not None else (1, 2, 3, 4)
    for ex in wanted:
        if ex not in (1, 2, 3, 4):
            raise WaveforceError(f"tables cover scenarios 1..4, got {ex}")
    artifacts = []

    # (scenario, M) -> (noise-free system, exact profile); tables 4-6 reuse
    # the M = 80 systems of table1
    assembled = {(ex, m): _assemble(RunConfig(cfg.command, example=ex, M=m, N=m), stages)
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


# command -> (runner, help)
_COMMANDS = {
    "direct": (_run_direct, "solve a direct problem; writes field.csv, flux_left.csv, "
                            "flux_right.csv"),
    "invert": (_run_invert, "assemble and solve an identification problem; writes force.csv, "
                            "metrics.csv, optionally lcurve.csv and the raw system"),
    "lcurve": (_run_lcurve, "sweep the regularization weight and pick the corner; writes "
                            "lcurve.csv and metrics.csv"),
    "tables": (_run_tables, "regenerate the six reference tables (condition numbers, flux "
                            "convergence, regularized accuracy) as table1.csv .. table6.csv"),
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    stages = _Stages()
    try:
        cfg = _resolve(args)
        outdir = ensure_dir(cfg.out)
        artifacts = _COMMANDS[cfg.command][0](cfg, outdir, stages)
        _write_manifest(outdir, cfg, artifacts + ["manifest.json"])
        stages.lap("output")
        if cfg.timings:
            with open(cfg.timings, "w", newline="\n") as fh:
                json.dump(stages.seconds, fh, indent=2)
                fh.write("\n")
    except (WaveforceError, OSError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
