"""The typed-error boundary: malformed input to a public entry point fails
with a WaveforceError subclass, never a plain numpy or Python error."""

import inspect
import warnings

import numpy as np
import pytest

import waveforce as wf

G = wf.GridSpec(1.0, 1.0, 4, 4)  # M = N = 4: 3 unknowns per profile, 4 flux samples
ONES = np.ones((5, 5))
RAGGED = [[1.0], [1.0, 2.0]]
WEIGHTS = [1e-3, 1e-2, 1e-1]


def _problem(components=1, grid=G):
    return wf.WaveProblem(grid, wf.InitialData.zero(grid), wf.BoundaryData.zero(grid),
                          wf.Source((np.ones((grid.M + 1, grid.N + 1)),) * components))


P1, P2 = _problem(1), _problem(2)
SYSTEM = wf.assemble_single(P1, np.ones(4))
BG = SYSTEM.background
INITIAL, BOUNDARY = P1.initial, P1.boundary
FIELD = wf.WaveField(G, ONES)


def _points(first_residual):
    """Three L-curve samples with a corner at the second."""
    return [wf.LCurvePoint(lam, r, s) for lam, r, s in zip(WEIGHTS, (first_residual, 0.11, 1.0),
                                                           (1.0, 0.2, 0.1))]


def _catalogue(valid):
    """Malformed stand-ins for an array slot whose valid value is `valid`:
    a ragged list, 0-d and 3-d arrays, the valid array with one axis more
    and one less, the valid array with a NaN and with an inf, a bool
    scalar, a string and the valid array made complex."""
    a = np.asarray(valid, dtype=float)
    nan, inf = a.copy(), a.copy()
    nan.flat[0], inf.flat[-1] = np.nan, np.inf
    return [RAGGED, np.array(1.0), np.ones((2, 2, 2)), a[None], a[0], nan, inf, True, "abc", a + 1j]


#: malformed stand-ins for a scalar slot
BAD_SCALARS = [RAGGED, [1.0], np.ones((2, 2, 2)), np.nan, np.inf, True, "abc", None]

#: malformed stand-ins for an end slot
BAD_ENDS = ["middle", None, True, [wf.LEFT, wf.RIGHT], np.array([wf.LEFT, wf.RIGHT])]

# slot -> (valid value, call with the slot filled); the other arguments are valid
ARRAY_SLOTS = {
    "InitialData.displacement": (np.zeros(5), lambda v: wf.InitialData(v, np.zeros(5))),
    "InitialData.velocity": (np.zeros(5), lambda v: wf.InitialData(np.zeros(5), v)),
    "BoundaryData.left": (np.zeros(5), lambda v: wf.BoundaryData(v, np.zeros(5))),
    "BoundaryData.right": (np.zeros(5), lambda v: wf.BoundaryData(np.zeros(5), v)),
    "Source.modulations[0]": (ONES, lambda v: wf.Source((v,))),
    "Source.modulations[1]": (ONES, lambda v: wf.Source((ONES, v))),
    "KnownForce.values": (ONES, wf.KnownForce),
    "FluxSeries.values": (np.zeros(4), lambda v: wf.FluxSeries(wf.LEFT, v)),
    "ForceVector.values": (np.zeros(4), lambda v: wf.ForceVector(v)),
    "WaveProblem.with_force": (np.zeros(3), lambda v: P1.with_force(v)),
    "InverseSystem.A": (np.ones((4, 3)), lambda v: wf.InverseSystem(v, np.ones(4), G, BG, P1.source)),
    "InverseSystem.b": (np.ones(4), lambda v: wf.InverseSystem(SYSTEM.A, v, G, BG, P1.source)),
    "InverseSystem.background": (np.zeros(4),
                                 lambda v: wf.InverseSystem(SYSTEM.A, SYSTEM.b, G, (v,), P1.source)),
    "assemble_single.measured": (np.zeros(4), lambda v: wf.assemble_single(P1, v)),
    "assemble_dual.measured_right": (np.zeros(4), lambda v: wf.assemble_dual(P2, np.zeros(4), v)),
    "with_measurement.measured": (np.zeros(4), lambda v: SYSTEM.with_measurement(v)),
    "sweep.lambdas": (WEIGHTS, lambda v: wf.sweep(SYSTEM, 0, v)),
    "accuracy_error.f_num": (np.zeros(3), lambda v: wf.accuracy_error(v, np.zeros(3))),
    "accuracy_error.f_exact": (np.zeros(3), lambda v: wf.accuracy_error(np.zeros(3), v)),
    "condition_number.A": (np.eye(3), wf.condition_number),
}

SCALAR_SLOTS = {
    "GridSpec.L": (1.0, lambda v: wf.GridSpec(v, 1.0, 4, 4)),
    "GridSpec.T": (1.0, lambda v: wf.GridSpec(1.0, v, 4, 4)),
    "GridSpec.M": (4, lambda v: wf.GridSpec(1.0, 1.0, v, 4)),
    "GridSpec.N": (4, lambda v: wf.GridSpec(1.0, 1.0, 4, v)),
    "GridSpec.c": (1.0, lambda v: wf.GridSpec(1.0, 1.0, 4, 4, v)),
    "ForceVector.components": (1, lambda v: wf.ForceVector(np.zeros(4), v)),
    "RegConfig.order": (1, lambda v: wf.tikhonov_solve(SYSTEM, wf.RegConfig(v, 1e-3))),
    "RegConfig.lam": (1e-3, lambda v: wf.tikhonov_solve(SYSTEM, wf.RegConfig(1, v))),
    "sweep.order": (1, lambda v: wf.sweep(SYSTEM, v, WEIGHTS)),
    "NoiseSpec.p": (0.01, lambda v: wf.add_noise(BG[0], wf.NoiseSpec(v, 1))),
    "NoiseSpec.seed": (1, lambda v: wf.add_noise(BG[0], wf.NoiseSpec(0.01, v))),
    "difference_operator.order": (1, lambda v: wf.difference_operator(v, 3)),
    "difference_operator.m": (3, lambda v: wf.difference_operator(1, v)),
}

# slot -> (valid value, call, malformed values): a slot whose valid value is
# not an array, and wrong component counts
OTHER_SLOTS = {
    "Source.modulations": ((ONES,), wf.Source, [(), (ONES,) * 3, ONES[0, 0], True, "abc", RAGGED]),
    "FluxSeries.end": (wf.LEFT, lambda v: wf.FluxSeries(v, np.zeros(4)), BAD_ENDS),
    "flux.end": (wf.LEFT, lambda v: wf.flux(FIELD, v), BAD_ENDS),
    "measured_flux.end": (wf.LEFT, lambda v: wf.measured_flux(2, G, v), BAD_ENDS),
    "noise_sigma.p": (0.01, lambda v: wf.noise_sigma(BG[0], v), BAD_SCALARS + ["0.1", -1.0]),
    "example_spec.example_id": (2, wf.example_spec,
                                [0, 6, 2.5, None, "2", RAGGED, True, np.True_]),
    "ForceVector.components (count)": (2, lambda v: wf.ForceVector(np.zeros(4), v), [3, 0, -1]),
    "WaveProblem.with_force (count)": (
        (np.zeros(3),), lambda v: P1.with_force(*v), [(), (np.zeros(3),) * 2]),
    "InverseSystem.A (shape)": (
        SYSTEM.A, lambda v: wf.InverseSystem(v, np.ones(len(v)), G, BG, P1.source),
        [np.ones((5, 3)), np.ones((4, 2)), np.ones((8, 6))]),
    "InverseSystem.background (count)": (
        BG, lambda v: wf.InverseSystem(SYSTEM.A, SYSTEM.b, G, v, P1.source), [(), BG * 2, BG[0]]),
    "assemble_single (count)": (P1, lambda v: wf.assemble_single(v, np.zeros(4)), [P2]),
    "assemble_dual (count)": (P2, lambda v: wf.assemble_dual(v, np.zeros(4), np.zeros(4)), [P1]),
    "with_measurement (count)": (
        (np.zeros(4),), lambda v: SYSTEM.with_measurement(*v), [(np.zeros(4),) * 2]),
    "accuracy_error (count)": (
        wf.ForceVector(np.zeros(4), 2), lambda v: wf.accuracy_error(v, wf.ForceVector(np.zeros(4), 2)),
        [wf.ForceVector(np.zeros(4))]),
    "corner.points": (_points(0.1), wf.corner,
                      [RAGGED, np.array(1.0), np.ones((2, 2, 2)), True, "abc", [],
                       _points(np.nan), _points(np.inf),
                       [(1e-3, 1.0, 1.0)] * 3]),
    "add_noise.series": (BG[0], lambda v: wf.add_noise(v, wf.NoiseSpec(0.01, 1)),
                         _catalogue(np.zeros(4)) + [np.zeros(4)]),
    "InverseSystem.noise": (
        wf.NoiseSpec(0.01, 1), lambda v: wf.InverseSystem(SYSTEM.A, SYSTEM.b, G, BG, P1.source, v),
        ["abc", np.zeros(5), G]),
}

#: malformed stand-ins for a callable slot: non-callables, and callables
#: whose output does not broadcast to a grid of M = N = 4
BAD_CALLABLES = [None, "abc", 3.0, np.zeros(5),
                 lambda *a: np.ones(3), lambda *a: np.ones((2, 2, 2)), lambda *a: RAGGED]

#: a callable of the wrong arity for a slot sampled on one axis and on two
WRONG_ARITY = {1: lambda x, t: 0.0, 2: lambda x: x}

# slot -> (valid callable, call with the slot filled, number of axes sampled)
CALLABLE_SLOTS = {
    "sample_grid.fn": (lambda x, t: x * t, lambda v: wf.sample_grid(G, v), 2),
    "InitialData.from_callables.u0": (
        np.zeros_like, lambda v: wf.InitialData.from_callables(G, v, np.zeros_like), 1),
    "InitialData.from_callables.v0": (
        np.zeros_like, lambda v: wf.InitialData.from_callables(G, np.zeros_like, v), 1),
    "BoundaryData.from_callables.p0": (
        np.zeros_like, lambda v: wf.BoundaryData.from_callables(G, v, np.zeros_like), 1),
    "BoundaryData.from_callables.pl": (
        np.zeros_like, lambda v: wf.BoundaryData.from_callables(G, np.zeros_like, v), 1),
}

#: malformed stand-ins for an object slot, besides an object of the wrong type
BAD_OBJECTS = [None, "abc", np.zeros(5)]

# slot -> (valid object, call with the slot filled, an object of another
# of the package's types)
OBJECT_SLOTS = {
    "WaveProblem.grid": (G, lambda v: wf.WaveProblem(v, INITIAL, BOUNDARY, P1.source), INITIAL),
    "WaveProblem.initial": (INITIAL, lambda v: wf.WaveProblem(G, v, BOUNDARY, P1.source), BOUNDARY),
    "WaveProblem.boundary": (BOUNDARY, lambda v: wf.WaveProblem(G, INITIAL, v, P1.source), INITIAL),
    "WaveProblem.source": (P1.source, lambda v: wf.WaveProblem(G, INITIAL, BOUNDARY, v), G),
    "InverseSystem.grid": (G, lambda v: wf.InverseSystem(SYSTEM.A, SYSTEM.b, v, BG, P1.source),
                           P1.source),
    "InverseSystem.source": (P1.source, lambda v: wf.InverseSystem(SYSTEM.A, SYSTEM.b, G, BG, v),
                             wf.KnownForce(ONES)),
    "tikhonov_solve.sys": (SYSTEM, lambda v: wf.tikhonov_solve(v, wf.RegConfig(1, 1e-3)), P1),
    "tikhonov_solve.cfg": (wf.RegConfig(1, 1e-3), lambda v: wf.tikhonov_solve(SYSTEM, v),
                           wf.NoiseSpec(0.01)),
    "sweep.sys": (SYSTEM, lambda v: wf.sweep(v, 0, WEIGHTS), P1),
    "solve_direct.problem": (P1.with_force(np.zeros(3)), wf.solve_direct, G),
    "flux.field": (FIELD, lambda v: wf.flux(v, wf.LEFT), G),
    "sample_grid.grid": (G, lambda v: wf.sample_grid(v, lambda x, t: x * t), INITIAL),
    "InitialData.zero.grid": (G, wf.InitialData.zero, INITIAL),
    "InitialData.from_callables.grid": (
        G, lambda v: wf.InitialData.from_callables(v, np.zeros_like, np.zeros_like), INITIAL),
    "BoundaryData.zero.grid": (G, wf.BoundaryData.zero, INITIAL),
    "BoundaryData.from_callables.grid": (
        G, lambda v: wf.BoundaryData.from_callables(v, np.zeros_like, np.zeros_like), INITIAL),
    "WaveField.grid": (G, lambda v: wf.WaveField(v, ONES), INITIAL),
    "noise_sigma.series": (BG[0], lambda v: wf.noise_sigma(v, 0.01), G),
    "assemble_single.problem": (P1, lambda v: wf.assemble_single(v, np.zeros(4)), G),
    "assemble_dual.problem": (P2, lambda v: wf.assemble_dual(v, np.zeros(4), np.zeros(4)), G),
    **{f"{fn.__name__}.grid": (G, lambda v, fn=fn: fn(2, v), INITIAL)
       for fn in (wf.inverse_problem, wf.direct_problem, wf.measured_flux, wf.exact_force,
                  wf.exact_field)},
}

#: public callables with no row in the tables above, and why
NO_ROWS = {
    **dict.fromkeys(["WaveforceError", "WrongType", "CFLViolation", "InvalidDimension",
                     "DimensionMismatch", "IncompatibleData", "UnresolvedForce",
                     "UnderdeterminedSystem", "SingularSystem", "ZeroMatrix", "DegenerateCurve",
                     "UnknownExample"],
                    "an error class: it takes the message the package raises it with"),
    "ExampleSpec": "a record of closed forms that only the package builds; a caller reaches a "
                   "scenario by its id (rows example_spec and the scenario functions)",
    "LCurvePoint": "a record of one sweep sample; corner checks the points it is given "
                   "(row corner.points)",
}


def _cases():
    for slot, (valid, call) in ARRAY_SLOTS.items():
        yield slot, valid, call, _catalogue(valid)
    for slot, (valid, call) in SCALAR_SLOTS.items():
        yield slot, valid, call, BAD_SCALARS
    for slot, (valid, call, bad) in OTHER_SLOTS.items():
        yield slot, valid, call, bad
    for slot, (valid, call, axes) in CALLABLE_SLOTS.items():
        yield slot, valid, call, BAD_CALLABLES + [WRONG_ARITY[axes]]
    for slot, (valid, call, other_type) in OBJECT_SLOTS.items():
        yield slot, valid, call, BAD_OBJECTS + [other_type]


def test_malformed_input_raises_only_typed_errors():
    escaped = []
    for slot, valid, call, catalogue in _cases():
        call(valid)  # the slot's valid value is taken
        for bad in catalogue:
            try:
                call(bad)
            except wf.WaveforceError:
                continue
            except Exception as exc:  # noqa: BLE001 - reported below
                escaped.append(f"{slot} <- {bad!r}: {type(exc).__name__}: {exc}")
            else:
                escaped.append(f"{slot} <- {bad!r}: accepted")
    assert not escaped, "\n".join(escaped)


def test_every_public_entry_point_has_a_row():
    # a slot is named "<public name>.<argument>" or "<public name> (<what>)"
    covered = {slot.split(".")[0].split(" ")[0] for slot, *_ in _cases()}
    missing = [name for name in wf.__all__
               if callable(getattr(wf, name)) and name not in NO_ROWS and name not in covered
               and inspect.signature(getattr(wf, name)).parameters]
    assert not missing, f"public callables with no row and no exemption: {missing}"
    assert not set(NO_ROWS) - set(wf.__all__), "exemption of a name that is not public"


def test_order_the_profile_cannot_carry():
    # lambda > 0 with a penalty of order k on profiles of k nodes or fewer:
    # InvalidDimension before any product, so no RuntimeWarning either
    for M, order in ((2, 1), (2, 2), (3, 2)):  # M - 1 nodes per profile
        grid = wf.GridSpec(1.0, 1.0, M, M)
        single = wf.assemble_single(_problem(1, grid), np.ones(M))
        dual = wf.assemble_dual(_problem(2, grid), np.ones(M), np.ones(M))
        for system in (single, dual):
            for call in (lambda: wf.tikhonov_solve(system, wf.RegConfig(order, 1e-3)),
                         lambda: wf.sweep(system, order, WEIGHTS)):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(wf.InvalidDimension, match=f"order {order} needs"):
                        call()


def test_inverse_system_keeps_its_own_copy():
    rng = np.random.default_rng(0)
    base = rng.standard_normal((6, 4))
    b = rng.standard_normal(6)
    grid = wf.GridSpec(1.0, 1.0, 5, 6)
    source = wf.Source((np.ones((6, 7)),))
    cfg = wf.RegConfig(order=1, lam=1e-2)
    fresh = wf.tikhonov_solve(wf.InverseSystem(base.copy(), b.copy(), grid, (np.zeros(6),), source),
                              cfg).values
    system = wf.InverseSystem(base[:, :], b, grid, (np.zeros(6),), source)
    assert np.array_equal(wf.tikhonov_solve(system, cfg).values, fresh)
    # the caller's arrays stay writable, and writing through them (here
    # through the base of the view passed in) leaves the system and its
    # cached factors alone
    assert base.flags.writeable and b.flags.writeable
    base[0, 0] += 1.0
    b[0] += 1.0
    assert np.array_equal(wf.tikhonov_solve(system, cfg).values, fresh)
