"""Recovering two unknown profiles at once from flux at both ends.

The dual scenario drives the string with f(x) * 1 + g(x) * t and
measures the flux at x = 0 and x = L. Stacking both series doubles the
rows, which is what makes the two profiles separable: with data from one
end only the system would be underdetermined.
"""

import numpy as np

import waveforce as wf

g = wf.GridSpec(1.0, 1.0, 80, 80)
problem = wf.inverse_problem(5, g)
system = wf.assemble_dual(problem,
                          wf.measured_flux(5, g, wf.LEFT),
                          wf.measured_flux(5, g, wf.RIGHT))
print(f"system is {system.A.shape[0]} x {system.A.shape[1]}, "
      f"cond = {wf.condition_number(system.A):.1f}")

sol = wf.tikhonov_solve(system, wf.RegConfig())
exact = wf.exact_force(5, g)

rel_f = np.linalg.norm(sol.f - exact.f) / np.linalg.norm(exact.f)
x = g.interior_x
band = (x >= 0.1) & (x <= 0.9)
rel_g = np.linalg.norm(sol.g[band] - exact.g[band]) / np.linalg.norm(exact.g[band])
print(f"relative error: f {rel_f:.3%}, g {rel_g:.3%} (inner 80% band)")
print()

print("  x       f recovered   f exact    g recovered   g exact")
print("-" * 60)
for i in range(3, 79, 12):
    print(f"{x[i]:.3f}   {sol.f[i]:+10.4f}   {exact.f[i]:+8.4f}   "
          f"{sol.g[i]:+10.4f}   {exact.g[i]:+8.4f}")

print()
print("g is constant, so its recovery wobbles only near the ends where")
print("the flux stencils carry the least information.")
