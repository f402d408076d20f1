"""Seeded fuzz of the input paths at extreme magnitudes.

External data from zero and subnormal up to near the largest doubles goes
through the command line and the public functions, with floating-point
warnings raised as errors: each run ends in a result or in one typed
WaveforceError, never in a numpy warning, and no artifact holds a nan.
The cases are drawn from fixed seeds, so every run of the suite tries
the same ones.
"""

import collections
import random
import warnings

import numpy as np

import waveforce as wf
from test_inverse import fabricated_system
from waveforce import cli
from waveforce.csvio import write_matrix, write_series

#: the magnitudes a case scales its series and modulations by: zero, a
#: subnormal, the smallest normals' range, one, the range where a square
#: overflows, and near the largest doubles
SCALES = (0.0, 1e-320, 1e-300, 1.0, 1e150, 1e160, 1e300, -1e300)

#: odd scalars the public functions take as weights, orders and scales
ODD = (*SCALES, np.inf, -np.inf, np.nan, -1.0, 0.5, 3)

#: ODD, an int beyond the doubles and a list holding an int too long to
#: print, for the scalar slots; matrix() writes ODD entries into a float
#: array, which would refuse both itself
ODD_SCALARS = (*ODD, 10**400, [10**5000])

#: odd profile sizes: a size beyond numpy's largest array is refused before
#: any allocation, and sizes that fit but would allocate gigabytes of
#: size^2 doubles stay out of the draws
ODD_SIZES = (-1, 0, 1, 2, 2.0, 2.5, 7, np.nan, np.inf, True, "3", 1e300, 2**40)

CLI_RUNS = 300
LIBRARY_RUNS = 1000


def _typed_line(err):
    """Whether stderr is one line naming a WaveforceError subclass."""
    name = err.split(":")[0]
    error = getattr(wf, name, None)
    return (err.count("\n") == 1 and err.endswith("\n") and isinstance(error, type)
            and issubclass(error, wf.WaveforceError))


def test_external_data_runs_end_in_a_result_or_one_typed_line(tmp_path, capsys):
    # invert on external data, M = 3-8, single and dual sources, orders
    # 0-2, lambda 0, 1e-3 or the corner; each end's flux and modulation
    # scaled by its own draw of SCALES
    pyr, rng = random.Random(37), np.random.default_rng(37)
    statuses = collections.Counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for run in range(CLI_RUNS):
            case = tmp_path / str(run)
            case.mkdir()
            M = pyr.randint(3, 8)
            argv = ["invert", "--M", str(M), "--reg-order", str(pyr.randint(0, 2)),
                    "--lambda", pyr.choice(("0", "1e-3", "lcurve")), "--out", str(case / "out")]
            ends = ("left", "right") if pyr.random() < 0.5 else ("left",)
            for k, end in enumerate(ends):
                write_series(case / f"q{k}.csv", pyr.choice(SCALES) * rng.standard_normal(M))
                write_matrix(case / f"h{k}.csv", pyr.choice(SCALES) * (1.0 + rng.random((M + 1, M + 1))))
                argv += [f"--measured-{end}", str(case / f"q{k}.csv"),
                         "--modulation" + ("2" if k else ""), str(case / f"h{k}.csv")]
            try:
                status = cli.main(argv)
            except SystemExit as exc:  # an argparse usage error
                status = exc.code
            err = capsys.readouterr().err
            statuses[status] += 1
            assert status in (0, 1, 2), argv
            if status == 0:
                assert err == "", argv
            elif status == 1:
                assert _typed_line(err), (argv, err)
            for path in (case / "out").glob("*.csv"):
                assert "nan" not in path.read_text(), (argv, path.name)
    # the draws reach both ends of the contract
    assert statuses[0] and statuses[1]


def _numbers(result):
    """The floats a public function's result holds, as one flat array."""
    if isinstance(result, (wf.ForceVector, wf.FluxSeries)):
        return result.values
    if isinstance(result, wf.LCurvePoint):
        return np.array([result.lam, result.residual_norm, result.solution_norm])
    if isinstance(result, list):
        return np.concatenate([_numbers(x) for x in result] or [np.zeros(0)])
    if isinstance(result, wf.RegConfig):
        return np.array([result.order, result.lam], dtype=float)
    return np.asarray(result, dtype=float).ravel()


def test_public_functions_on_odd_values():
    # each call returns numbers without a nan or raises a WaveforceError
    pyr, rng = random.Random(41), np.random.default_rng(41)
    outcomes = collections.Counter()

    def matrix(shape):
        X = pyr.choice(SCALES) * rng.standard_normal(shape)
        if pyr.random() < 0.2:  # one entry of its own
            X[tuple(pyr.randrange(n) for n in shape)] = pyr.choice(ODD)
        return X

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(LIBRARY_RUNS):
            n = pyr.randint(2, 8)
            m = pyr.randint(1, n)
            order = pyr.randint(0, 2)
            A, b = matrix((n, m)), matrix((n,))
            calls = (
                lambda: wf.condition_number(A),
                lambda: wf.tikhonov_solve(fabricated_system(A, b),
                                          wf.RegConfig(order, pyr.choice((0.0, 1e-3, 0.5)))),
                lambda: wf.sweep(fabricated_system(A, b), order),
                lambda: wf.corner(wf.sweep(fabricated_system(A, b), order)),
                lambda: wf.accuracy_error(b, matrix((n,))),
                lambda: wf.difference_operator(pyr.choice(ODD_SCALARS), pyr.choice(ODD_SIZES)),
                lambda: wf.RegConfig(pyr.choice(ODD_SCALARS), pyr.choice(ODD_SCALARS)),
                lambda: wf.add_noise(wf.FluxSeries(wf.LEFT, b), wf.NoiseSpec(abs(pyr.choice(SCALES)), 1)),
            )
            call = pyr.randrange(len(calls))
            try:
                result = calls[call]()
            except wf.WaveforceError:
                outcomes[call, "refused"] += 1
                continue
            assert not np.isnan(_numbers(result)).any(), (call, A, b)
            outcomes[call, "result"] += 1
    # every function both answered and refused
    assert set(outcomes) == {(call, outcome) for call in range(8) for outcome in ("result", "refused")}
