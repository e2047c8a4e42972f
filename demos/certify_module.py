"""Walk through the certification pipeline on flat space and on the
Schwarzschild chart: module axioms, indefinite pairing index, and the
pointwise real-principal-type certificate.

Run:  python3 demos/certify_module.py
"""
import numpy as np

import diracsym as ds
from diracsym.clifford import SampleSpec, build_canonical_module, \
    certify_axioms
from diracsym.geometry import PhasePoint
from diracsym.symbols import certify_principal_type, dirac_system


def show(metric, tolerance, points):
    rep = build_canonical_module(metric)
    report = certify_axioms(rep, SampleSpec(points=points, seed=0),
                            tolerance=tolerance)
    print(f"\n=== {metric.name} (dim {metric.dim}) ===")
    print(f"pairing index {report.gram_index}, "
          f"certified in {report.elapsed_s:.2f}s")
    for name, ax in sorted(report.axioms.items()):
        flag = "ok " if ax.passed else "FAIL"
        print(f"  {flag} {name:5s} residual {ax.max_residual:.2e} "
              f"(tol {ax.tolerance:.0e})")
    return rep


def main():
    mink = ds.minkowski(4)
    schw = ds.schwarzschild(1.0)
    show(mink, 1e-12, 20)
    rep = show(schw, 1e-6, 50)

    # principal-type certificate at one null phase point
    sysd = dirac_system(rep)
    x = np.array([0.0, 10.0, 1.2, 0.3])
    xi = ds.random_null_covector(schw, x, np.random.default_rng(1))
    cert = certify_principal_type(rep, PhasePoint(x, xi), sys=sysd)
    print(f"\nprincipal type at r = {x[1]}:")
    print(f"  q = {cert.q:.2e}, dq nonzero: {cert.dq_nonzero}")
    print(f"  kernel dimension {cert.ker_dim}, condition "
          f"{cert.ker_coker_condition_number:.2f}")
    print(f"  neighborhood kernel dims {cert.neighborhood_ker_dims}")
    print(f"  certificate passed: {cert.passed}")


if __name__ == "__main__":
    main()
