"""Identification from exact (noise-free) data needs no regularization.

With the analytic left flux of the smooth scenario as the measurement,
plain least squares recovers the force profile; the error is pure
discretization error and decreases with the mesh, even though the matrix
condition number grows fast.
"""

import numpy as np

import waveforce as wf

print("exact-data inversion, smooth scenario, lambda = 0")
print()
print("  M    cond(A)        accuracy err   relative")
print("-" * 48)
for m in (10, 20, 40, 80):
    g = wf.GridSpec(1.0, 1.0, m, m)
    system = wf.assemble_single(wf.inverse_problem(1, g), wf.measured_flux(1, g))
    f = wf.tikhonov_solve(system, wf.RegConfig())
    exact = wf.exact_force(1, g)
    err = wf.accuracy_error(f, exact)
    rel = err / np.linalg.norm(exact.values)
    print(f"{m:4d}   {wf.condition_number(system.A):<14.2f} {err:<14.4f} {rel:.3%}")

print()
print("ill-conditioning is harmless while the data are consistent;")
print("noise is what makes the weight lambda necessary (see")
print("noisy_regularization.py).")
