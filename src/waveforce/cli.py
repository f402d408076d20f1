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
artifacts. A command only computes: its runner returns its files as one
dict, artifact name -> (csvio writer, the writer's arguments), and main
is the one place that writes a run: the dict's entries, then
manifest.json, whose artifact list is the dict's names. --timings FILE
writes the wall time of each stage as one JSON object, last; it is not an
artifact, so it stays out of the manifest, and a --timings path that
resolves to a file of the run is refused before the first write. Every
file goes through csvio's one writer, which makes the file's missing
directory as it writes, so a run refused before its first write leaves
no directory behind. Failures,
a malformed flag or config value included, exit with status 1 and a
single "ErrorClass: message" line on stderr; a flag the command does not
take is an argparse usage error (status 2). A setting the run's mode does
not read fails like a malformed value unless it keeps its default:
--lambda-grid without --lambda lcurve, --data-refine without --example,
--seed without noise, and the external data files with --example. A
--data-refine above 1 for a scenario whose flux is analytic (1 and 5) is
refused by measured_flux, which holds that scenario rule. A run that reads
--reg-order (a sweep, or a weight above 0) refuses an order with no more
nodes than itself in a profile's M - 1, also before any march.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
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
    _refinement,
    direct_problem,
    exact_force,
    example_spec,
    inverse_problem,
    measured_flux,
)
from .csvio import _write, read_matrix, read_series, write_matrix, write_rows, write_series
from .errors import InvalidDimension, WaveforceError
from .fdm import _fluxes, flux, solve_direct
from .inverse import _assemble, _observed_ends, _systems
from .lcurve import _CORNER_POINTS, _checked_grid, corner, sweep
from .model import (
    LEFT,
    RIGHT,
    BoundaryData,
    GridSpec,
    InitialData,
    Source,
    WaveProblem,
    _integer,
    _real,
)
from .noise import NoiseSpec
from .tikhonov import (
    RegConfig,
    _checked_nodes,
    _factors,
    accuracy_error,
    condition_number,
    tikhonov_solve,
)

_TABLE_SIZES = (10, 20, 40, 80)
_TABLE_NOISE_PCT = (1, 3, 5)

_ALL = ("direct", "invert", "lcurve", "tables")
_PROBLEM = ("direct", "invert", "lcurve")  # the commands that build one problem
_IDENTIFY = ("invert", "lcurve")


def _setting(default, help, commands, *, name=None, check=None, flag_only=False, only=None):
    """A RunConfig field read by `commands`, which take it as a flag and a config key.

    `name` replaces the field name as flag, config key and manifest name;
    `check(value)` raises on a value out of range; a flag_only setting is
    neither a config key nor recorded in the manifest; outside the mode
    `only` (see _SIMULATED) a value other than the default fails.
    """
    return field(default=default, metadata={"help": help, "commands": commands, "name": name,
                                            "check": check, "flag_only": flag_only, "only": only})


# modes in which alone a setting is read: (the mode's text, whether a
# resolved RunConfig is in it)
_SIMULATED = ("with --example", lambda cfg: cfg.example is not None)
_EXTERNAL = ("without --example", lambda cfg: cfg.example is None)
_NOISY = ("with --noise-pct above 0", lambda cfg: cfg.command == "tables" or cfg.noise_pct > 0)
_SWEPT = ("with --lambda lcurve", lambda cfg: cfg.command == "lcurve" or cfg.lam == "lcurve")


def _corner_grid(lambdas):
    # every sweep of the command line ends in corner, which a shorter grid
    # cannot feed: refused before any march
    if _checked_grid(lambdas).size < _CORNER_POINTS:
        raise ValueError(f"the corner needs at least {_CORNER_POINTS} weights, got {len(lambdas)}")


def _data_file(help, commands):
    """An external data file: no default, read only without --example."""
    return _setting(None, help, commands, only=_EXTERNAL)


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
                         check=lambda seed: NoiseSpec(0.0, seed), only=_NOISY)
    reg_order: int = _setting(0, "penalty order 0, 1 or 2", _IDENTIFY,
                              check=lambda order: RegConfig(order=order))
    lam: str = _setting("0", "regularization weight, or 'lcurve' to pick the corner", ("invert",),
                        name="lambda", check=lambda lam: lam == "lcurve" or RegConfig(lam=float(lam)))
    lambda_grid: list | None = _setting(None, "comma-separated ascending weights for the sweep",
                                        _IDENTIFY, check=_corner_grid, only=_SWEPT)
    out: str = _setting("out", "output directory", _ALL)
    data_refine: int = _setting(1, "simulate measured data on a mesh this many times finer",
                                _IDENTIFY, check=_refinement, only=_SIMULATED)
    dump_system: bool = _setting(False, "also write system_A.csv and system_b.csv", ("invert",))
    u0: str | None = _data_file("initial displacement series file (M+1 values)", _PROBLEM)
    v0: str | None = _data_file("initial velocity series file (M+1 values)", _PROBLEM)
    bc_left: str | None = _data_file("left Dirichlet series file (N+1 values)", _PROBLEM)
    bc_right: str | None = _data_file("right Dirichlet series file (N+1 values)", _PROBLEM)
    force: str | None = _data_file("force profile series file (M-1 or M+1 values)", ("direct",))
    modulation: str | None = _data_file("source modulation matrix file ((M+1) x (N+1))", _PROBLEM)
    modulation2: str | None = _data_file("second modulation matrix file (dual source)", _IDENTIFY)
    measured_left: str | None = _data_file("measured left flux series file (N values)", _IDENTIFY)
    measured_right: str | None = _data_file("measured right flux series file "
                                            "(N values, dual source)", _IDENTIFY)
    config: str | None = _setting(None, "JSON file with defaults; flags override it", _ALL,
                                  flag_only=True)
    timings: str | None = _setting(None, "write per-stage wall times (JSON) to this file; "
                                   "not an artifact", ("invert", "lcurve", "tables"),
                                   flag_only=True)

    def grid(self) -> GridSpec:
        return GridSpec(self.L, self.T, self.M, self.N, self.c)

    def noise(self) -> NoiseSpec:
        # add_noise returns the series itself at 0 %
        return NoiseSpec(self.noise_pct / 100.0, self.seed)


# name (flag less its dashes, config key, manifest key) -> RunConfig field
_SETTINGS = {f.metadata["name"] or f.name: f for f in dc_fields(RunConfig) if f.metadata}


def _settings(command: str) -> dict:
    """The settings `command` reads, by name."""
    return {name: f for name, f in _SETTINGS.items() if command in f.metadata["commands"]}


def _int(value) -> int:
    # a flag arrives as text; a JSON number goes to _integer as it is
    return _integer(int(value) if isinstance(value, str) else value)


def _float(value) -> float:
    # a flag arrives as text; a JSON number goes to _real as it is, a bool is refused
    return _real(float(value) if isinstance(value, str) else value)


def _text(value) -> str:
    # a JSON number is taken as its text ("lambda": 0); a list, object or bool is not
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ValueError(f"expected text, got {value!r}")
    return str(value)


def _weights(value) -> list:
    if isinstance(value, str):
        value = [tok for tok in value.split(",") if tok.strip()]
    return [_float(v) for v in value]


def _boolean(value) -> bool:
    # bool("false") is True, so only real booleans are taken
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


# RunConfig annotation (before any "| None") -> conversion of a flag or
# config value
_CONVERT = {"int": _int, "float": _float, "str": _text, "bool": _boolean, "list": _weights}


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


@functools.cache  # built once per process: parsing leaves the parser unchanged
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
    cfg = RunConfig(command=args.command, **merged)
    for name, setting in _SETTINGS.items():
        only = setting.metadata["only"]
        if only and getattr(cfg, setting.name) != setting.default and not only[1](cfg):
            raise WaveforceError(f"{name!r} is read only {only[0]}")
    # a sweep or a weight above 0 reads the order, which needs more nodes
    # than itself among a profile's M - 1; an M below 2 fails as a grid
    if cfg.M >= 2 and (_SWEPT[1](cfg) or float(cfg.lam) > 0):
        try:
            _checked_nodes(cfg.reg_order, cfg.M - 1)
        except InvalidDimension as exc:
            raise WaveforceError(f"bad value for 'reg_order': {exc}") from None
    return cfg


def _manifest(cfg: RunConfig, files: dict) -> str:
    """manifest.json's text: the version, the command, its settings and
    the artifacts, `files` and the manifest itself."""
    return json.dumps({
        "version": __version__,
        "command": cfg.command,
        "config": {name: getattr(cfg, f.name) for name, f in _SETTINGS.items()
                   if not f.metadata["flag_only"]},
        "artifacts": sorted([*files, "manifest.json"]),
    }, indent=2, sort_keys=True) + "\n"


def _external_problem(cfg: RunConfig, grid: GridSpec) -> WaveProblem:
    """The problem the external data files state: a series file not given
    reads as zeros, and the source holds the --modulation matrix (ones
    when not given), followed by the --modulation2 matrix when given."""
    u0 = read_series(cfg.u0) if cfg.u0 else np.zeros(grid.M + 1)
    v0 = read_series(cfg.v0) if cfg.v0 else np.zeros(grid.M + 1)
    left = read_series(cfg.bc_left) if cfg.bc_left else np.zeros(grid.N + 1)
    right = read_series(cfg.bc_right) if cfg.bc_right else np.zeros(grid.N + 1)
    modulations = [read_matrix(cfg.modulation) if cfg.modulation
                   else np.ones((grid.M + 1, grid.N + 1))]
    if cfg.modulation2 is not None:
        modulations.append(read_matrix(cfg.modulation2))
    return WaveProblem(grid, InitialData(u0, v0), BoundaryData(left, right), Source(modulations))


def _run_direct(cfg: RunConfig, stages: _Stages) -> dict:
    grid = cfg.grid()
    if cfg.example is not None:
        problem = direct_problem(cfg.example, grid)
    else:
        profile = read_series(cfg.force) if cfg.force else np.zeros(grid.M - 1)
        problem = _external_problem(cfg, grid).with_force(profile)
    field = solve_direct(problem)
    return {"field.csv": (write_matrix, field.values),
            "flux_left.csv": (write_series, flux(field, LEFT).values),
            "flux_right.csv": (write_series, flux(field, RIGHT).values)}


def _identify(cfg: RunConfig, stages: _Stages):
    """Build the inverse system per the configuration, and sweep it when
    the run sweeps (_SWEPT).

    One measured series per observed end: the left end, and the right end
    too when the source has two modulations. Returns (system, exact
    ForceVector or None, the sweep's points and their corner, or None and
    None when the run does not sweep); the stages "data" and "assembly"
    are booked, and "sweep" and "corner" when the run sweeps.
    """
    grid = cfg.grid()
    if cfg.example is not None:
        problem = inverse_problem(cfg.example, grid)
        measured = [measured_flux(cfg.example, grid, end, cfg.data_refine)
                    for end in _observed_ends(problem.source.unknowns)]
        exact = exact_force(cfg.example, grid)
    else:
        if cfg.measured_left is None:
            raise WaveforceError("identification needs --example or --measured-left")
        dual = cfg.measured_right is not None
        if dual != (cfg.modulation2 is not None):
            raise WaveforceError("dual identification needs both --modulation2 and --measured-right")
        # _assemble takes each series as that of its end, left then right
        measured = [read_series(path) for path in (cfg.measured_left, cfg.measured_right)[:1 + dual]]
        problem = _external_problem(cfg, grid)
        exact = None
    stages.lap("data")
    system = _assemble(problem, measured, cfg.noise())
    stages.lap("assembly")
    points = best = None
    if _SWEPT[1](cfg):
        points = sweep(system, cfg.reg_order, cfg.lambda_grid)
        stages.lap("sweep")
        best = corner(points)
        stages.lap("corner")
    return system, exact, points, best


def _lcurve_file(points) -> tuple:
    """lcurve.csv's writer and its arguments: one row per point of the sweep."""
    return (write_rows, ["lambda", "residual_norm", "solution_norm"],
            [(p.lam, p.residual_norm, p.solution_norm) for p in points])


def _run_invert(cfg: RunConfig, stages: _Stages) -> dict:
    system, exact, points, best = _identify(cfg, stages)
    lam = float(cfg.lam) if best is None else best.lam
    solution = tikhonov_solve(system, RegConfig(order=cfg.reg_order, lam=lam))
    stages.lap("solve")
    cond = condition_number(system.A)
    stages.lap("cond")
    files = {} if points is None else {"lcurve.csv": _lcurve_file(points)}
    k = system.components
    files["force.csv"] = (write_rows, ["x", "f", "g"][:1 + k],
                          zip(system.grid.interior_x.tolist(), *solution.values.reshape(k, -1).tolist()))
    metrics = [
        ("lambda", lam),
        ("reg_order", str(cfg.reg_order)),
        ("condition_number", cond),
        ("noise_pct", cfg.noise_pct),
        ("seed", str(cfg.seed)),
    ]
    if exact is not None:
        metrics.append(("accuracy_error", accuracy_error(solution, exact)))
    files["metrics.csv"] = (write_rows, ["metric", "value"], metrics)
    if cfg.dump_system:
        files["system_A.csv"] = (write_matrix, system.A)
        files["system_b.csv"] = (write_series, system.b)
    return files


def _run_lcurve(cfg: RunConfig, stages: _Stages) -> dict:
    _, _, points, best = _identify(cfg, stages)
    return {"metrics.csv": (write_rows, ["metric", "value"], [
        ("lambda_corner", best.lam),
        ("residual_norm", best.residual_norm),
        ("solution_norm", best.solution_norm),
        ("reg_order", str(cfg.reg_order)),
        ("noise_pct", cfg.noise_pct),
        ("seed", str(cfg.seed)),
    ]), "lcurve.csv": _lcurve_file(points)}


def _run_tables(cfg: RunConfig, stages: _Stages) -> dict:
    if cfg.example not in (None, 1, 2, 3, 4):
        raise WaveforceError(f"tables cover scenarios 1..4, got {cfg.example}")
    wanted = (cfg.example,) if cfg.example is not None else (1, 2, 3, 4)
    exact, series, systems = {}, {}, {}
    for m in _TABLE_SIZES:
        grid = GridSpec(1.0, 1.0, m, m)
        problems = {(ex, m): inverse_problem(ex, grid) for ex in wanted}
        # the exact profile, and the scheme's left flux of it, where a
        # table reads them: tables 2 and 3 tabulate the flux, and tables
        # 4-6 take it at M = 80 as their measured data
        read = [(ex, m) for ex in wanted if ex in (1, 2) or m == 80]
        exact.update({key: exact_force(key[0], grid) for key in read})
        if read:
            series.update(zip(read, _fluxes([problems[k].with_force(exact[k].values) for k in read], LEFT)))
        stages.lap("data")
        # the grid's zero-data systems: table 1 reads their A, and tables
        # 4-6 draw their noisy measurements from those of scenarios 2-4 at
        # M = 80
        systems.update(zip(problems, _systems(list(problems.values()))))
        stages.lap("assembly")
    cond = [(str(ex), str(m), condition_number(systems[ex, m].A)) for ex in wanted for m in _TABLE_SIZES]
    # table name -> (writer, header, rows)
    tables = {"table1.csv": (write_rows, ["example", "M", "cond"], cond)}
    stages.lap("cond")

    for ex, name in ((1, "table2.csv"), (2, "table3.csv")):
        if ex in wanted:
            tables[name] = (write_rows, ["M", "t", "flux"],
                            [(str(m), t, series[ex, m].values[round(t * m) - 1])
                             for m in _TABLE_SIZES for t in REFERENCE_FLUX_TIMES])
    stages.lap("flux_tables")

    # each penalty order factors the solved systems as one stack, whose
    # slots their noisy copies share
    for order in (0, 1, 2):
        _factors([systems[ex, 80] for ex in (2, 3, 4) if ex in wanted], order)
    for ex, name in ((2, "table4.csv"), (3, "table5.csv"), (4, "table6.csv")):
        if ex not in wanted:
            continue
        # popped, so each system's factors are freed once its table is solved
        system = systems.pop((ex, 80))
        noisy = {pct: system.with_measurement(series[ex, 80], noise=NoiseSpec(pct / 100.0, cfg.seed))
                 for pct in _TABLE_NOISE_PCT}
        rows = []
        for order in (0, 1, 2):
            for pct in _TABLE_NOISE_PCT:
                lam, _ = REFERENCE_REGULARIZATION[(ex, order, pct)]
                solution = tikhonov_solve(noisy[pct], RegConfig(order=order, lam=lam))
                rows.append((str(ex), str(order), str(pct), lam,
                             accuracy_error(solution, exact[ex, 80])))
        tables[name] = (write_rows, ["example", "reg_order", "noise_pct", "lambda", "accuracy_error"], rows)
    stages.lap("solves")
    return tables


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
        files = _COMMANDS[cfg.command][0](cfg, stages)
        files["manifest.json"] = (_write, _manifest(cfg, files))
        # the timings file must not replace a file of the run
        if cfg.timings and os.path.realpath(cfg.timings) in {os.path.realpath(Path(cfg.out, n)) for n in files}:
            raise WaveforceError(f"--timings {cfg.timings} names a file the run writes")
        for name, (writer, *data) in files.items():
            writer(Path(cfg.out, name), *data)
        stages.lap("output")
        if cfg.timings:
            _write(cfg.timings, json.dumps(stages.seconds, indent=2) + "\n")
    except (WaveforceError, OSError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
