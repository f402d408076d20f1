"""Command-line artifacts: formats, determinism, error reporting."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import waveforce as wf
from waveforce import cli
from waveforce.cli import main
from waveforce.csvio import (
    read_matrix,
    read_rows,
    read_series,
    write_matrix,
    write_series,
)


def run(*argv):
    return main([str(a) for a in argv])


def metrics_dict(path):
    _, rows = read_rows(path)
    return {name: value for name, value in rows}


def test_csvio_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    series = rng.normal(size=17)
    write_series(tmp_path / "s.csv", series)
    assert np.array_equal(read_series(tmp_path / "s.csv"), series)
    mat = rng.normal(size=(5, 3))
    write_matrix(tmp_path / "m.csv", mat)
    assert np.array_equal(read_matrix(tmp_path / "m.csv"), mat)


def test_malformed_data_file_names_the_file_and_line(tmp_path):
    # a token that is not a number, and a series line with two values;
    # an empty series file is an empty series
    cases = {"abc.csv": ("0.0\n\nabc\n", read_series, "line 3"),
             "two.csv": ("0.0\n1.0,2.0\n", read_series, "line 2"),
             "m.csv": ("1.0,2.0\n3.0,x\n", read_matrix, "line 2")}
    for name, (text, reader, where) in cases.items():
        (tmp_path / name).write_text(text)
        with pytest.raises(wf.DimensionMismatch, match=f"{name} {where}"):
            reader(tmp_path / name)
    (tmp_path / "empty.csv").write_text("")
    assert read_series(tmp_path / "empty.csv").shape == (0,)
    # a headered file of blank lines has neither header nor rows
    (tmp_path / "blank.csv").write_text("\n  \n\n")
    assert read_rows(tmp_path / "blank.csv") == ([], [])


def test_malformed_data_file_exits_with_one_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("0.0\nabc\n")
    assert run("direct", "--M", 10, "--N", 10, "--u0", bad, "--out", tmp_path / "o") == 1
    err = capsys.readouterr().err
    assert err.startswith("DimensionMismatch:") and str(bad) in err
    assert err.count("\n") == 1


def test_direct_scenario_artifacts(tmp_path):
    out = tmp_path / "d"
    assert run("direct", "--example", 1, "--M", 20, "--N", 20, "--out", out) == 0
    field = read_matrix(out / "field.csv")
    assert field.shape == (21, 21)
    g = wf.GridSpec(1.0, 1.0, 20, 20)
    expect = wf.solve_direct(wf.direct_problem(1, g))
    assert np.array_equal(field, expect.values)
    ql = read_series(out / "flux_left.csv")
    assert np.array_equal(ql, wf.flux(expect, wf.LEFT).values)
    assert (out / "flux_right.csv").exists()
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["command"] == "direct"
    assert doc["config"]["seed"] == 1
    assert "field.csv" in doc["artifacts"]
    assert doc["version"] == wf.__version__


def test_direct_external_zero_files(tmp_path):
    z = tmp_path / "z.csv"
    write_series(z, np.zeros(11))
    out = tmp_path / "dz"
    assert run("direct", "--M", 10, "--N", 10, "--u0", z, "--v0", z,
               "--bc-left", z, "--bc-right", z, "--out", out) == 0
    assert not np.any(read_matrix(out / "field.csv"))


def test_invert_exact_data_metrics(tmp_path):
    out = tmp_path / "i"
    assert run("invert", "--example", 1, "--M", 80, "--N", 80, "--out", out) == 0
    m = metrics_dict(out / "metrics.csv")
    assert float(m["accuracy_error"]) <= 0.5
    assert float(m["lambda"]) == 0.0
    ref = wf.REFERENCE_CONDITION_NUMBERS[(1, 80)]
    assert abs(float(m["condition_number"]) - ref) / ref <= 0.02
    header, rows = read_rows(out / "force.csv")
    assert header == ["x", "f"]
    assert len(rows) == 79


def test_invert_dual_writes_both_profiles(tmp_path):
    out = tmp_path / "i5"
    assert run("invert", "--example", 5, "--M", 20, "--N", 20, "--out", out) == 0
    header, rows = read_rows(out / "force.csv")
    assert header == ["x", "f", "g"]
    assert len(rows) == 19
    g_vals = np.array([float(r[2]) for r in rows])
    assert np.max(np.abs(g_vals[2:-2] + 2.0)) <= 0.2


def test_invert_lcurve_choice(tmp_path):
    out = tmp_path / "ic"
    assert run("invert", "--example", 2, "--M", 40, "--N", 40, "--noise-pct", 1,
               "--lambda", "lcurve", "--out", out) == 0
    assert (out / "lcurve.csv").exists()
    m = metrics_dict(out / "metrics.csv")
    lam = float(m["lambda"])
    assert lam in wf.DEFAULT_LAMBDA_GRID  # the corner is one of the swept weights


def test_invert_dump_system(tmp_path):
    out = tmp_path / "id"
    assert run("invert", "--example", 2, "--M", 10, "--N", 10,
               "--dump-system", "--out", out) == 0
    A = read_matrix(out / "system_A.csv")
    b = read_series(out / "system_b.csv")
    assert A.shape == (10, 9)
    assert b.size == 10


def test_lcurve_command(tmp_path):
    out = tmp_path / "l"
    assert run("lcurve", "--example", 2, "--M", 40, "--N", 40,
               "--noise-pct", 1, "--out", out) == 0
    header, rows = read_rows(out / "lcurve.csv")
    assert header == ["lambda", "residual_norm", "solution_norm"]
    assert len(rows) == wf.DEFAULT_LAMBDA_GRID.size
    m = metrics_dict(out / "metrics.csv")
    lam = float(m["lambda_corner"])
    assert abs(np.log10(lam) - np.log10(1e-6)) <= 1.0 + 1e-9


def test_timings_file_is_not_an_artifact(tmp_path):
    plain, timed = tmp_path / "plain", tmp_path / "timed"
    argv = ("--example", 2, "--M", 20, "--noise-pct", 1, "--reg-order", 2)
    stages = {
        "invert": (argv + ("--lambda", "lcurve"),
                   ["data", "assembly", "sweep", "corner", "solve", "cond", "output"]),
        # a fixed weight: no sweep, no corner
        "invert-fixed": (argv + ("--lambda", "1e-3"), ["data", "assembly", "solve", "cond", "output"]),
        "lcurve": (argv, ["data", "assembly", "sweep", "corner", "output"]),
        "tables": (("--example", 3), ["data", "assembly", "cond", "flux_tables", "solves",
                                      "output"]),
    }
    for key, (args, names) in stages.items():
        command = key.split("-")[0]
        # a timings file's missing directory is made, as --out's is
        timings = tmp_path / ("missing" if key == "tables" else "") / f"{key}.json"
        assert run(command, *args, "--out", plain / key) == 0
        assert run(command, *args, "--out", timed / key, "--timings", timings) == 0
        seconds = json.loads(timings.read_text())
        assert list(seconds) == names
        assert all(isinstance(v, float) and v >= 0.0 for v in seconds.values())
        # the artifacts and the manifest's artifact list are unchanged
        files = sorted(p.name for p in (plain / key).iterdir())
        assert files == sorted(p.name for p in (timed / key).iterdir())
        for name in files:
            if name != "manifest.json":
                assert (plain / key / name).read_bytes() == (timed / key / name).read_bytes()
        manifest = json.loads((timed / key / "manifest.json").read_text())
        assert manifest["artifacts"] == files and "timings" not in manifest["config"]


def test_tables_build_each_object_once(tmp_path, monkeypatch):
    # each of the 4 meshes is built once, then its problems (16 in all),
    # and each problem's zero-data system is formed once; the left flux of
    # the exact force is marched where a table reads it: scenarios 1 and 2
    # at every size for tables 2 and 3 (8), scenarios 3 and 4 at M = 80 for
    # tables 5 and 6 (2), each through one with_force; tables 4-6 draw each
    # noise level once per scenario (9), and each draw is the one
    # measurement a system takes. Every march a grid needs runs in at most
    # two time loops, one for its flux series and one for its systems, so a
    # run makes 8 loops; their 42 slots are the 10 series and, per grid, 3
    # drives (scenarios 1, 2 and 4), scenario 3's impulse and the 4
    # backgrounds, each a drive of the zero series that binds no force.
    # Scenario 3 alone reads a series on one grid only: 5 loops, 9 slots.
    # Each penalty order factors the systems tables 4-6 solve as one stack
    # (3 stacks of 3 slots; of 1 slot for scenario 3), and scenario 1 alone
    # solves none.
    from waveforce import benchmarks, fdm, inverse, model, noise, tikhonov
    counted_fns = {"_march": fdm._march, "add_noise": noise.add_noise,
                   "inverse_problem": benchmarks.inverse_problem, "_systems": inverse._systems,
                   "with_measurement": inverse.InverseSystem.with_measurement,
                   "with_force": model.WaveProblem.with_force,
                   "__post_init__": model.GridSpec.__post_init__,  # GridSpec builds
                   "_factor_stack": tikhonov._factor_stack}
    calls = dict.fromkeys(counted_fns, 0)
    slots = {"_march": [], "_factor_stack": []}  # the slots of each call
    for name, fn in counted_fns.items():
        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            if _name in slots:  # _march(problem, slots, ...), _factor_stack(As, ...)
                slots[_name].append(len(args[1] if _name == "_march" else args[0]))
            return _fn(*args, **kwargs)
        for user in (benchmarks, cli, fdm, inverse, noise, tikhonov, inverse.InverseSystem,
                     model.WaveProblem, model.GridSpec):
            if getattr(user, name, None) is fn:
                monkeypatch.setattr(user, name, counted)
    for args, want, want_slots, want_stacks in (
            ((), {"_march": 8, "add_noise": 9, "inverse_problem": 16, "_systems": 4,
                  "with_measurement": 9, "with_force": 10, "__post_init__": 4,
                  "_factor_stack": 3}, 42, [3, 3, 3]),
            (("--example", 3), {"_march": 5, "add_noise": 3, "inverse_problem": 4, "_systems": 4,
                                "with_measurement": 3, "with_force": 1, "__post_init__": 4,
                                "_factor_stack": 3}, 9, [1, 1, 1]),
            (("--example", 1), {"_march": 8, "add_noise": 0, "inverse_problem": 4, "_systems": 4,
                                "with_measurement": 0, "with_force": 4, "__post_init__": 4,
                                "_factor_stack": 0}, 12, [])):
        calls.update(dict.fromkeys(calls, 0))
        for sizes in slots.values():
            sizes.clear()
        assert run("tables", *args, "--out", tmp_path / "t") == 0
        assert calls == want, args
        assert sum(slots["_march"]) == want_slots, args
        assert slots["_factor_stack"] == want_stacks, args


# Largest relative gap between the artifacts of one `invert` under
# OPENBLAS_NUM_THREADS=1 and =2 (scenario 5, M = N = 160, 1% noise, order
# 2, lambda lcurve): both pick lambda = 5e-6, but the blocked products
# round in another order, and force.csv moves by 5.7e-16 of max|f| and
# accuracy_error by 5.5e-16 (9.727570963144485 against 9.72757096314448),
# with numpy 2.4.6 and OpenBLAS 0.3.31 (Haswell kernels) on x86-64 Linux,
# 2 vCPUs. The bound stays under eps cond(A) = 4.7e-12, the scale at which
# a reordered rounding moves the solution.
BLAS_THREADS_TOL = 1e-12


def test_blas_thread_counts_agree_within_tolerance(tmp_path):
    src = str(Path(wf.__file__).resolve().parent.parent)
    argv = ["invert", "--example", "5", "--M", "160", "--noise-pct", "1", "--reg-order", "2",
            "--lambda", "lcurve"]
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        subprocess.run([sys.executable, "-m", "waveforce", *argv, "--out", str(out)], env=env,
                       check=True)
        _, rows = read_rows(out / "force.csv")
        runs.append((np.array(rows, dtype=float)[:, 1:], metrics_dict(out / "metrics.csv")))
    (f1, m1), (f2, m2) = runs
    assert m1["lambda"] == m2["lambda"]
    error1, error2 = float(m1["accuracy_error"]), float(m2["accuracy_error"])
    gaps = np.max(np.abs(f1 - f2)) / np.max(np.abs(f1)), abs(error1 - error2) / error1
    print(f"force.csv gap {gaps[0]:.2g}, accuracy_error gap {gaps[1]:.2g}")
    assert max(gaps) <= BLAS_THREADS_TOL


def test_tables_condition_cell(tmp_path):
    out = tmp_path / "t"
    assert run("tables", "--example", 1, "--out", out) == 0
    header, rows = read_rows(out / "table1.csv")
    assert header == ["example", "M", "cond"]
    cell = {(r[0], r[1]): float(r[2]) for r in rows}[("1", "40")]
    assert abs(cell - 437.93) / 437.93 <= 0.02
    # flux table rides along for this scenario
    header2, rows2 = read_rows(out / "table2.csv")
    assert header2 == ["M", "t", "flux"]
    assert len(rows2) == 20


def test_reruns_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run("invert", "--example", 2, "--M", 20, "--N", 20, "--noise-pct", 3,
                   "--seed", 7, "--reg-order", 1, "--lambda", "1e-4", "--out", out) == 0
    for name in ("force.csv", "metrics.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert {k: v for k, v in m1["config"].items() if k != "out"} == \
           {k: v for k, v in m2["config"].items() if k != "out"}


def test_error_reporting(tmp_path, capsys):
    # CFL violation surfaces as one stderr line naming the error class
    code = run("direct", "--example", 1, "--M", 80, "--N", 10, "--out", tmp_path / "x")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("CFLViolation:")
    assert err.count("\n") == 1

    code = run("invert", "--M", 10, "--N", 10, "--out", tmp_path / "y")
    assert code == 1
    assert "measured" in capsys.readouterr().err

    # a config file that is no JSON object, and a scenario tables lacks
    config = tmp_path / "list.json"
    config.write_text("[1]")
    for argv, line in ((("direct", "--config", config), "config file must hold a JSON object"),
                       (("tables", "--example", 5), "tables cover scenarios 1..4, got 5")):
        assert run(*argv, "--out", tmp_path / "z") == 1
        assert capsys.readouterr().err == f"WaveforceError: {line}\n"


def test_refining_an_analytic_flux_fails_before_any_march(tmp_path, capsys, monkeypatch):
    # scenarios 1 and 5 measure an analytic flux, which no finer mesh
    # simulates: --data-refine above 1 is refused, not recorded unread
    def no_march(*args):
        raise AssertionError("marched before refusing the refinement")

    for module in ("fdm", "inverse"):
        monkeypatch.setattr(f"waveforce.{module}._march", no_march)
    for ex in (1, 5):
        out = tmp_path / f"ex{ex}"
        assert run("invert", "--example", ex, "--M", 10, "--data-refine", 3, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("InvalidDimension:") and err.count("\n") == 1, err
        assert not (out / "manifest.json").exists()


def test_order_the_profile_cannot_carry_exits_with_one_line(tmp_path, capsys):
    # a penalty order with no row on M - 1 nodes per profile, single and
    # dual, is a bad setting
    for argv, nodes in ((("invert", "--example", 2, "--M", 2, "--lambda", "1e-3"), 1),
                        (("lcurve", "--example", 5, "--M", 3), 2)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(*argv, "--reg-order", 2, "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err == ("WaveforceError: bad value for 'reg_order': "
                                           f"operator of order 2 needs at least 3 entries, got {nodes}\n")


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"example": 1, "M": 20, "N": 20, "lambda": 0}))
    out = tmp_path / "c"
    assert run("invert", "--config", cfg, "--M", 10, "--N", 10, "--out", out) == 0
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["config"]["M"] == 10  # flag wins
    assert doc["config"]["example"] == 1  # config supplies the rest
    _, rows = read_rows(out / "force.csv")
    assert len(rows) == 9


def test_bad_lambda_rejected_before_any_march(tmp_path, capsys, monkeypatch):
    def no_march(*args):
        raise AssertionError("marched before validating the settings")

    # every march, solve_direct's included, runs fdm._march
    for module in ("fdm", "inverse"):
        monkeypatch.setattr(f"waveforce.{module}._march", no_march)
    cases = [("lambda", lam) for lam in ("abc", "-1", "nan", "inf")]
    cases += [("reg_order", "5"), ("noise_pct", "nan"), ("seed", "-1"), ("data_refine", "0")]
    cases += [("lambda_grid", "1e-3,-1")]
    cases = [("invert", "--example", 1, "--" + name.replace("_", "-"), value) for name, value in cases]
    # settings that only some modes read: a sweep grid without a sweep, a
    # finer data mesh for external data, which no simulation produces, a
    # noise seed without noise, and external data files with a scenario
    cases += [("invert", "--example", 1, "--lambda-grid", "1e-3,1e-2"),
              ("invert", "--example", 1, "--lambda", "1e-3", "--lambda-grid", "1e-3,1e-2"),
              ("invert", "--measured-left", tmp_path / "q.csv", "--data-refine", 2)]
    # a grid too short for the corner, which every sweep of the command line ends in
    cases += [(command, "--example", 2, *lcurve, "--lambda-grid", grid)
              for command, lcurve in (("invert", ("--lambda", "lcurve")), ("lcurve", ()))
              for grid in ("1e-6", "1e-6,1e-4")]
    data_files = {"direct": ["u0", "v0", "bc_left", "bc_right", "modulation", "force"],
                  "invert": ["u0", "v0", "bc_left", "bc_right", "modulation", "modulation2",
                             "measured_left", "measured_right"]}
    data_files["lcurve"] = data_files["invert"]
    for command, names in data_files.items():
        cases += [(command, "--example", 1, "--" + name.replace("_", "-"), tmp_path / "x.csv")
                  for name in names]
    cases += [(command, "--example", 1, *noise, "--seed", 2)
              for command in ("invert", "lcurve") for noise in ((), ("--noise-pct", 0))]
    # an order with no more nodes than itself in a profile (M - 1), where
    # the run reads the order: a sweep or a weight above 0
    cases += [("invert", "--example", 2, "--M", 3, "--lambda", "lcurve", "--reg-order", 2),
              ("lcurve", "--example", 5, "--M", 2, "--reg-order", 1),
              ("invert", "--example", 2, "--M", 2, "--lambda", "1e-3", "--reg-order", 2)]
    for command, *argv in cases:
        capsys.readouterr()
        # a case's own --M comes later, so it wins
        assert run(command, "--M", 10, *argv, "--out", tmp_path / "bl") == 1
        err = capsys.readouterr().err
        assert err.startswith("WaveforceError:") and err.count("\n") == 1
        name = next(a for a in reversed(argv) if str(a).startswith("--"))[2:].replace("-", "_")
        assert repr(name) in err
    # a mode-only setting left at its default is taken
    monkeypatch.undo()
    assert run("invert", "--example", 1, "--seed", 1, "--M", 10, "--out", tmp_path / "ok") == 0
    # at lambda = 0 the order is not read
    assert run("invert", "--example", 2, "--M", 2, "--reg-order", 2, "--out", tmp_path / "ok") == 0


def test_non_finite_values_name_the_whole_rule(tmp_path, capsys):
    # inf and nan break "finite and >= 0", which the message states whole
    for flag, name, value, rule in (("--lambda", "lambda", "inf", "lambda"),
                                    ("--lambda", "lambda", "nan", "lambda"),
                                    ("--noise-pct", "noise_pct", "inf", "noise fraction"),
                                    ("--noise-pct", "noise_pct", "nan", "noise fraction")):
        capsys.readouterr()
        assert run("invert", "--example", 1, "--M", 10, flag, value, "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err == (f"WaveforceError: bad value for {name!r}: "
                                           f"{rule} must be finite and >= 0, got {value}\n")


# malformed values of each setting, each tried as a config value and, when it
# is text, as flag text; a setting not listed takes a path, which any flag
# text is, so only a JSON list is malformed
MALFORMED = {
    "example": ["9"], "M": ["1e2", 10.9, [1]], "N": ["x"], "L": ["x", True], "T": ["x", True],
    "c": ["x", True], "noise_pct": ["nan", True], "seed": ["-1"], "reg_order": ["5"],
    "lambda": ["abc"], "lambda_grid": ["1e-3,x", 5, [1e-3, True]], "data_refine": ["0"],
    "dump_system": ["false"],
}


def test_every_setting_of_every_command(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "bad.json"

    def fails_naming(argv, text):
        capsys.readouterr()
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("WaveforceError:") and err.count("\n") == 1, err
        assert text in err, (argv, err)

    read = set()
    for command in cli._COMMANDS:
        taken = cli._settings(command)
        read |= {setting.name for setting in taken.values()}
        for name, setting in taken.items():
            if setting.metadata["flag_only"]:
                config.write_text(json.dumps({name: "x"}))
                fails_naming([command, "--config", str(config)], f"unknown config key {name!r}")
                continue
            for value in MALFORMED.get(name, [[1]]):
                if isinstance(value, str) and setting.type != "bool":  # a bool flag takes no text
                    fails_naming([command, "--" + name.replace("_", "-"), value], repr(name))
                config.write_text(json.dumps({name: value}))
                fails_naming([command, "--config", str(config)], repr(name))
        for name in cli._SETTINGS.keys() - taken.keys() | {"Mx"}:
            with pytest.raises(SystemExit):
                main([command, "--" + name.replace("_", "-"), "1"])
            config.write_text(json.dumps({name: 1}))
            fails_naming([command, "--config", str(config)], f"unknown config key {name!r}")
        config.write_text(json.dumps({"out": None}))
        fails_naming([command, "--config", str(config)], "'out' must not be null")
    assert read == {f.name for f in dataclasses.fields(cli.RunConfig)} - {"command"}
    # settings a command never read are not taken, nor abbreviations
    for argv in (["tables", "--M"], ["tables", "--N"], ["tables", "--L"], ["tables", "--T"],
                 ["tables", "--c"], ["direct", "--noise-pct"], ["direct", "--seed"],
                 ["direct", "--data-refine"], ["lcurve", "--lambda"], ["invert", "--lam"]):
        with pytest.raises(SystemExit):
            main(argv + ["1"])
    assert not (tmp_path / "out").exists()  # no malformed run got as far as its output


def test_external_inversion_roundtrip(tmp_path):
    # simulate data with the library, feed it back through files
    g = wf.GridSpec(1.0, 1.0, 12, 12)
    q = wf.measured_flux(2, g, wf.LEFT)
    meas = tmp_path / "q.csv"
    write_series(meas, q.values)
    mod = tmp_path / "h.csv"
    write_matrix(mod, wf.inverse_problem(2, g).source.modulations[0])
    out = tmp_path / "ext"
    assert run("invert", "--M", 12, "--N", 12, "--measured-left", meas,
               "--modulation", mod, "--out", out) == 0
    _, rows = read_rows(out / "force.csv")
    f = np.array([float(r[1]) for r in rows])
    exact = wf.exact_force(2, g).values
    assert np.linalg.norm(f - exact) / np.linalg.norm(exact) <= 0.05
    # no exact profile is known for external data, so no accuracy metric
    assert "accuracy_error" not in metrics_dict(out / "metrics.csv")

    # a second modulation plus a right-end series identify two profiles;
    # either one alone is rejected
    problem = wf.inverse_problem(2, g)
    h, theta = problem.source.modulations[0], wf.sample_grid(g, lambda x, t: t)
    dual = wf.WaveProblem(g, problem.initial, problem.boundary, wf.Source((h, theta)))
    field = wf.solve_direct(dual.with_force(exact, np.full(11, -2.0)))
    write_series(meas, wf.flux(field, wf.LEFT).values)
    meas_right, mod2 = tmp_path / "qr.csv", tmp_path / "theta.csv"
    write_series(meas_right, wf.flux(field, wf.RIGHT).values)
    write_matrix(mod2, theta)
    base = ("invert", "--M", 12, "--N", 12, "--measured-left", meas, "--modulation", mod,
            "--out", out)
    assert run(*base, "--modulation2", mod2, "--measured-right", meas_right) == 0
    header, rows = read_rows(out / "force.csv")
    assert header == ["x", "f", "g"]
    assert np.max(np.abs([float(r[2]) + 2.0 for r in rows])) <= 1e-8
    assert run(*base, "--modulation2", mod2) == 1
    assert run(*base, "--measured-right", meas_right) == 1


def test_failed_rank_rule_names_its_cause(tmp_path, capsys):
    # an all-zero modulation annihilates every profile, the constant one
    # that D_1 does not see too: a fixed weight and a swept one alike exit
    # with the rank rule's error, which names the cause
    mod, meas = tmp_path / "h.csv", tmp_path / "q.csv"
    write_matrix(mod, np.zeros((11, 11)))
    write_series(meas, np.ones(10))
    base = ("--M", 10, "--N", 10, "--modulation", mod, "--measured-left", meas,
            "--reg-order", 1, "--out", tmp_path / "out")
    for argv in (("invert", "--lambda", "lcurve"), ("invert", "--lambda", "1e-3"), ("lcurve",)):
        assert run(*argv, *base) == 1
        assert capsys.readouterr().err == ("SingularSystem: A W (W the null space of D) has "
                                           "condition number inf, at or above 1e+06\n")


def test_data_near_overflow_runs_without_a_warning(tmp_path, capsys):
    # flux data near 1e160: the squared residual outside range(Abar)
    # overflows, and only the L-curve norms read it, so a fixed weight
    # solves with no floating-point warning, at lambda = 0 too; a sweep
    # whose every norm is infinite leaves no point to the corner
    meas = tmp_path / "q.csv"
    write_series(meas, 1e160 * np.linspace(1.0, 2.0, 20))
    base = ("--M", 20, "--measured-left", meas, "--reg-order", 2, "--out", tmp_path / "out")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lam in ("1e-3", "0"):
            assert run("invert", "--lambda", lam, *base) == 0
            assert capsys.readouterr().err == ""
        assert run("invert", "--lambda", "lcurve", *base) == 1
        assert capsys.readouterr().err == ("DegenerateCurve: corner needs at least 3 usable "
                                           "points, got 0\n")


# Argument lists whose artifacts are pinned byte for byte by tests/cli_oracle.json
# (sha256 of each file, computed with numpy 2.4 and OpenBLAS on x86-64; another
# BLAS may round differently). Paths are relative to the run directory, so the
# manifests do not depend on it.
ORACLE_ARGV = {
    "direct": ["direct", "--example", "1", "--M", "12"],
    "direct-dual": ["direct", "--example", "5", "--M", "10", "--N", "12"],
    "direct-external": ["direct", "--M", "12", "--u0", "in/zeros.csv", "--modulation", "in/h.csv",
                        "--force", "in/f.csv"],
    "invert": ["invert", "--example", "2", "--M", "16", "--noise-pct", "3", "--seed", "7",
               "--reg-order", "1", "--lambda", "1e-4", "--data-refine", "2"],
    "invert-dump": ["invert", "--example", "2", "--M", "10", "--dump-system"],
    "invert-lcurve": ["invert", "--example", "2", "--M", "20", "--noise-pct", "1",
                      "--reg-order", "2", "--lambda", "lcurve", "--timings", "timings.json"],
    "invert-config": ["invert", "--config", "in/run.json", "--M", "16"],
    "invert-external": ["invert", "--M", "12", "--measured-left", "in/q.csv",
                        "--modulation", "in/h.csv"],
    "invert-dual": ["invert", "--example", "5", "--M", "12", "--noise-pct", "1", "--lambda", "1e-5"],
    "lcurve": ["lcurve", "--example", "4", "--M", "20", "--noise-pct", "1", "--reg-order", "1",
               "--lambda-grid", "1e-6,1e-5,1e-4,1e-3,1e-2"],
    "tables": ["tables", "--example", "2", "--seed", "3"],
}
ORACLE_FILE = Path(__file__).with_name("cli_oracle.json")


def oracle_digests(workdir):
    """Run every ORACLE_ARGV in `workdir`; return {"<run>/<artifact>": sha256}."""
    workdir = Path(workdir)
    inputs = workdir / "in"
    inputs.mkdir(parents=True)
    g = wf.GridSpec(1.0, 1.0, 12, 12)
    write_series(inputs / "zeros.csv", np.zeros(13))
    write_series(inputs / "f.csv", wf.exact_force(2, g).values)
    write_series(inputs / "q.csv", wf.measured_flux(2, g, wf.LEFT).values)
    write_matrix(inputs / "h.csv", wf.inverse_problem(2, g).source.modulations[0])
    (inputs / "run.json").write_text(json.dumps({
        "example": 2, "M": 20, "N": 20, "noise_pct": 2, "seed": 5, "reg_order": 1,
        "lambda": "lcurve", "lambda_grid": [1e-6, 1e-5, 1e-4, 1e-3, 1e-2]}))
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for name, argv in ORACLE_ARGV.items():
            assert main(argv + ["--out", f"out/{name}"]) == 0, name
    finally:
        os.chdir(cwd)
    return {path.relative_to(workdir / "out").as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted((workdir / "out").rglob("*")) if path.is_file()}


def test_artifacts_match_oracle(tmp_path):
    expected = json.loads(ORACLE_FILE.read_text())
    assert oracle_digests(tmp_path) == expected


def test_parser_is_built_once(tmp_path, capsys, monkeypatch):
    # one parser serves every main() of a process: its help texts are those
    # of a freshly built parser, and an argv that argparse rejects leaves
    # it fit for the next run, whose artifacts are the oracle's
    def help_text(parse, argv):
        with pytest.raises(SystemExit) as exit_:
            parse(argv + ["--help"])
        assert exit_.value.code == 0
        return capsys.readouterr().out

    assert cli._build_parser() is cli._build_parser()
    for argv in [[]] + [[command] for command in cli._COMMANDS]:
        assert help_text(main, argv) == help_text(cli._build_parser.__wrapped__().parse_args, argv)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_:
        main(["invert", "--no-such-flag", "1"])
    assert exit_.value.code == 2
    assert main(ORACLE_ARGV["invert"] + ["--out", "out/invert"]) == 0
    expected = json.loads(ORACLE_FILE.read_text())
    assert {f"invert/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
            for path in (tmp_path / "out" / "invert").iterdir()} == \
           {name: digest for name, digest in expected.items() if name.startswith("invert/")}


if __name__ == "__main__":
    # Regenerate the oracle, naming the artifacts whose digest moved:
    # PYTHONPATH=src python tests/test_cli.py
    import tempfile

    old = json.loads(ORACLE_FILE.read_text()) if ORACLE_FILE.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        new = oracle_digests(tmp)
    moved = sorted(name for name in old.keys() | new.keys() if old.get(name) != new.get(name))
    print("\n".join(f"changed: {name}" for name in moved) or "no artifact changed")
    ORACLE_FILE.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
