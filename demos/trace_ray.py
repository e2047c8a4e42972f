"""Integrate a null bicharacteristic on the Schwarzschild chart and carry a
polarization section along it, printing a sparse table of samples.

Run:  python3 demos/trace_ray.py
"""
import numpy as np

import diracsym as ds
from diracsym.clifford import build_canonical_module
from diracsym.geometry import PhasePoint
from diracsym.symbols import dirac_system, kernel_basis, principal_symbol
from diracsym.transport import PolarizationState, transport_denker


def main():
    schw = ds.schwarzschild(1.0)
    rep = build_canonical_module(schw)
    sysd = dirac_system(rep)

    x0 = np.array([0.0, 10.0, 1.2, 0.3])
    # mostly-radial outgoing direction, projected onto the cone
    xi0 = ds.null_project_covector(schw, x0,
                                   np.array([1.0, 0.9, 0.02, 0.01]))
    p0 = PhasePoint(x0, xi0)
    print(f"start  x = {x0}")
    print(f"       xi = {np.round(xi0, 6)}   q = "
          f"{ds.hamiltonian_q(schw, x0, xi0):.2e}")

    basis, dim = kernel_basis(principal_symbol(sysd, p0))
    print(f"kernel dimension at start: {dim}")
    orbit = transport_denker(sysd, PolarizationState(p0, basis[0]), 5.0,
                             step=1e-3)
    traj = orbit.trajectory

    print(f"\n{'t':>6} {'r':>9} {'theta':>8} {'q drift':>9} "
          f"{'|w|':>7} {'kernel res':>10}")
    for i in range(0, traj.n, traj.n // 10):
        w = orbit.sections[i]
        print(f"{traj.ts[i]:6.2f} {traj.xs[i][1]:9.4f} {traj.xs[i][2]:8.4f} "
              f"{abs(traj.qs[i] - traj.qs[0]):9.1e} "
              f"{np.linalg.norm(w):7.4f} {orbit.kernel_residuals[i]:10.1e}")

    print(f"\nq drift over the whole ray: "
          f"{np.max(np.abs(traj.qs - traj.qs[0])):.2e}")
    print(f"worst kernel residual:      "
          f"{np.max(orbit.kernel_residuals):.2e}")
    print(f"generator norm integral:    {orbit.generator_norm_integral:.4f}")


if __name__ == "__main__":
    main()
