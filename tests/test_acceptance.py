"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Every criterion is asserted exactly as stated, at its stated tolerance;
nothing is loosened to make the suite green. Two assertions are known not
to hold for this formulation (the sup-norm blow-up factor in criterion 5
and a handful of criterion-6 cells on the worst-conditioned scenario);
they run and report honestly. Run with `pytest -s` to see the lines.
"""

import time

import numpy as np

import waveforce as wf
from test_fdm import random_problem, scalar_reference
from test_tikhonov import normal_equations


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def test_criterion_1_flux_convergence_table():
    t0 = time.perf_counter()
    worst = 0.0
    for (ex, m), cells in wf.REFERENCE_LEFT_FLUX.items():
        if ex != 1:
            continue
        g = wf.GridSpec(1.0, 1.0, m, m)
        q = wf.flux(wf.solve_direct(wf.direct_problem(1, g)), wf.LEFT)
        for t, ref in cells.items():
            worst = max(worst, abs(q.values[round(t * g.N) - 1] - ref))
    elapsed = time.perf_counter() - t0
    ok = report("criterion 1", worst <= 5e-4 and elapsed < 1.0,
                f"smooth-scenario flux table, max deviation {worst:.2e} "
                f"(tol 5e-4) in {elapsed:.2f}s (limit 1s)")
    assert ok


def test_criterion_2_hat_scenario_flux_table():
    t0 = time.perf_counter()
    worst = 0.0
    for (ex, m), cells in wf.REFERENCE_LEFT_FLUX.items():
        if ex != 2:
            continue
        g = wf.GridSpec(1.0, 1.0, m, m)
        q = wf.measured_flux(2, g, wf.LEFT)
        for t, ref in cells.items():
            worst = max(worst, abs(q.values[round(t * g.N) - 1] - ref))
    elapsed = time.perf_counter() - t0
    ok = report("criterion 2", worst <= 5e-5 and elapsed < 1.0,
                f"hat-scenario flux table, max deviation {worst:.2e} "
                f"(tol 5e-5) in {elapsed:.2f}s (limit 1s)")
    assert ok


def test_criterion_3_condition_numbers():
    t0 = time.perf_counter()
    worst = 0.0
    worst_cell = None
    for (ex, m), ref in wf.REFERENCE_CONDITION_NUMBERS.items():
        g = wf.GridSpec(1.0, 1.0, m, m)
        system = wf.assemble_single(wf.inverse_problem(ex, g),
                                    wf.measured_flux(ex, g))
        rel = abs(wf.condition_number(system.A) - ref) / ref
        if rel > worst:
            worst, worst_cell = rel, (ex, m)
    elapsed = time.perf_counter() - t0
    ok = report("criterion 3", worst <= 0.02 and elapsed < 30.0,
                f"16 condition numbers, worst relative deviation {worst:.2e} "
                f"at {worst_cell} (tol 2%) in {elapsed:.1f}s (limit 30s)")
    assert ok


def test_criterion_4_exact_data_convergence(bench):
    errs = []
    for m in (10, 20, 40, 80):
        a = bench(1, m)
        f = wf.tikhonov_solve(a.system, wf.RegConfig())
        errs.append(wf.accuracy_error(f, a.exact))
    rel = errs[-1] / np.linalg.norm(bench(1, 80).exact.values)
    monotone = errs[0] > errs[1] > errs[2] > errs[3]
    ok = report("criterion 4", monotone and rel <= 0.05,
                f"exact-data errors {[f'{e:.4f}' for e in errs]} "
                f"{'decreasing' if monotone else 'NOT decreasing'}, "
                f"final relative {rel:.3%} (tol 5%)")
    assert ok


def test_criterion_5_unregularized_blowup(bench):
    a = bench(1, 80)
    bar = 10.0 * np.max(np.abs(a.exact.values))
    peak = 0.0
    for seed in range(1, 6):
        noisy = a.system.with_measurement(a.measured, noise=wf.NoiseSpec(0.01, seed))
        f = wf.tikhonov_solve(noisy, wf.RegConfig(order=0, lam=0.0))
        peak = max(peak, np.max(np.abs(f.values)))
    ok = report("criterion 5", peak >= bar,
                f"unregularized 1% noise sup-norm peak {peak:.1f} over seeds 1..5, "
                f"required >= {bar:.1f} (10x exact)")
    assert ok


def test_criterion_6_regularized_accuracy_tables(bench):
    failures = []
    for (ex, order, pct), (lam, ref) in sorted(wf.REFERENCE_REGULARIZATION.items()):
        a = bench(ex, 80)
        errs = []
        for seed in range(1, 6):
            noisy = a.system.with_measurement(
                a.measured, noise=wf.NoiseSpec(pct / 100.0, seed))
            f = wf.tikhonov_solve(noisy, wf.RegConfig(order=order, lam=lam))
            errs.append(wf.accuracy_error(f, a.exact))
        med = float(np.median(errs))
        if not ref / 2.0 <= med <= ref * 2.0:
            failures.append(f"({ex},k{order},{pct}%) median {med:.3f} vs {ref} "
                            f"x{med / ref:.1f}")
    ok = report("criterion 6", not failures,
                f"{27 - len(failures)}/27 cells within factor 2 of the reference"
                + (f"; out of range: {'; '.join(failures)}" if failures else ""))
    assert ok


def test_criterion_7_lcurve_corners(bench):
    results = []
    ok = True
    a1 = bench(1, 80)
    noisy = a1.system.with_measurement(a1.measured, noise=wf.NoiseSpec(0.01, 1))
    lam = wf.corner(wf.sweep(noisy, 0)).lam
    gap = abs(np.log10(lam) - np.log10(1e-6))
    ok &= gap <= 1.0 + 1e-9
    results.append(f"smooth 1% -> {lam:g} (target 1e-6, {gap:.2f} decades)")
    a2 = bench(2, 80)
    for pct, target in ((1, 1e-6), (3, 1e-5), (5, 1e-5)):
        noisy = a2.system.with_measurement(a2.measured, noise=wf.NoiseSpec(pct / 100.0, 1))
        lam = wf.corner(wf.sweep(noisy, 0)).lam
        gap = abs(np.log10(lam) - np.log10(target))
        ok &= gap <= 1.0 + 1e-9
        results.append(f"hat {pct}% -> {lam:g} (target {target:g}, {gap:.2f} decades)")
    ok = report("criterion 7", ok, "; ".join(results))
    assert ok


def test_criterion_8_dual_recovery(bench):
    a = bench(5, 80)
    f = wf.tikhonov_solve(a.system, wf.RegConfig())
    rel_f = np.linalg.norm(f.f - a.exact.f) / np.linalg.norm(a.exact.f)
    x = a.grid.interior_x
    band = (x >= 0.1 * a.grid.L) & (x <= 0.9 * a.grid.L)
    rel_g = (np.linalg.norm(f.g[band] - a.exact.g[band])
             / np.linalg.norm(a.exact.g[band]))
    ok = report("criterion 8", rel_f <= 0.05 and rel_g <= 0.10,
                f"dual recovery: f {rel_f:.3%} (tol 5%), "
                f"g {rel_g:.3%} on the inner 80% band (tol 10%)")
    assert ok


def test_criterion_9_oracle_equivalences(bench):
    rng = np.random.default_rng(99)
    from test_inverse import fabricated_system

    worst_tik = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 14))
        m = int(rng.integers(3, n + 1))
        A = rng.normal(size=(n, m))
        b = rng.normal(size=n)
        order = int(rng.integers(0, 3))
        lam = float(10.0 ** rng.uniform(-8, 0))
        got = wf.tikhonov_solve(fabricated_system(A, b),
                                wf.RegConfig(order=order, lam=lam)).values
        want = normal_equations(A, b, order, lam)
        worst_tik = max(worst_tik,
                        np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want))))

    a = bench(2, 20)
    prob = wf.inverse_problem(2, a.grid)
    worst_aff = 0.0
    for _ in range(5):
        f = rng.normal(size=19)
        q = wf.flux(wf.solve_direct(prob.with_force(f)), wf.LEFT)
        pred = a.system.background[0].values + (a.system.A @ f) / (2.0 * a.grid.dx)
        worst_aff = max(worst_aff, np.max(np.abs(q.values - pred)))

    worst_fdm = 0.0
    for _ in range(25):
        M = int(rng.integers(2, 5))
        N = int(rng.integers(1, 5))
        prob_s, u0, v0, left, right, F = random_problem(rng, M, N)
        got = wf.solve_direct(prob_s).values
        want = scalar_reference(prob_s.grid, u0, v0, left, right, F)
        worst_fdm = max(worst_fdm, np.max(np.abs(got - want)))

    ok = report("criterion 9",
                worst_tik <= 1e-10 and worst_aff <= 1e-10 and worst_fdm <= 1e-12,
                f"solver vs normal equations {worst_tik:.1e} (tol 1e-10); "
                f"flux affinity {worst_aff:.1e} (tol 1e-10); "
                f"march vs scalar recurrence {worst_fdm:.1e} (tol 1e-12)")
    assert ok
