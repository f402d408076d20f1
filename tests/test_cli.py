"""Command-line artifacts: formats, determinism, error reporting."""

import dataclasses
import hashlib
import json
import os
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
        "invert": ["data", "assembly", "sweep", "corner", "solve", "cond", "output"],
        "lcurve": ["data", "assembly", "sweep", "corner", "output"],
    }
    for command, names in stages.items():
        extra = ("--lambda", "lcurve") if command == "invert" else ()
        assert run(command, *argv, *extra, "--out", plain / command) == 0
        assert run(command, *argv, *extra, "--out", timed / command,
                   "--timings", tmp_path / f"{command}.json") == 0
        seconds = json.loads((tmp_path / f"{command}.json").read_text())
        assert list(seconds) == names
        assert all(isinstance(v, float) and v >= 0.0 for v in seconds.values())
        # the artifacts and the manifest's artifact list are unchanged
        files = sorted(p.name for p in (plain / command).iterdir())
        assert files == sorted(p.name for p in (timed / command).iterdir())
        for name in files:
            if name != "manifest.json":
                assert (plain / command / name).read_bytes() == (timed / command / name).read_bytes()
        manifest = json.loads((timed / command / "manifest.json").read_text())
        assert manifest["artifacts"] == files and "timings" not in manifest["config"]


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
    def no_march(problem):
        raise AssertionError("marched before validating the settings")

    monkeypatch.setattr("waveforce.inverse.solve_direct", no_march)
    monkeypatch.setattr("waveforce.benchmarks.solve_direct", no_march)
    cases = [("lambda", lam) for lam in ("abc", "-1", "nan", "inf")]
    cases += [("reg_order", "5"), ("noise_pct", "nan"), ("seed", "-1"), ("data_refine", "0")]
    for name, value in cases:
        capsys.readouterr()
        assert run("invert", "--example", 1, "--M", 10, "--" + name.replace("_", "-"), value,
                   "--out", tmp_path / "bl") == 1
        err = capsys.readouterr().err
        assert err.startswith("WaveforceError:") and err.count("\n") == 1
        assert repr(name) in err


# malformed values of each setting, each tried as a config value and, when it
# is text, as flag text; a setting not listed takes a path, which any flag
# text is, so only a JSON list is malformed
MALFORMED = {
    "example": ["9"], "M": ["1e2", 10.9, [1]], "N": ["x"], "L": ["x"], "T": ["x"], "c": ["x"],
    "noise_pct": ["nan"], "seed": ["-1"], "reg_order": ["5"], "lambda": ["abc"],
    "lambda_grid": ["1e-3,x", 5], "data_refine": ["0"], "dump_system": ["false"],
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


if __name__ == "__main__":
    # Regenerate the oracle: PYTHONPATH=src python tests/test_cli.py
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        ORACLE_FILE.write_text(json.dumps(oracle_digests(tmp), indent=1, sort_keys=True) + "\n")
