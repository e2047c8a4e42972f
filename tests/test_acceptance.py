"""Acceptance gate: nine certified behaviors with pinned tolerances.

One test per criterion, each ending in a single printed summary line.
Wall-clock budgets are asserted where the contract pins them.
"""
import json
import time

import numpy as np

import diracsym as ds
from diracsym.clifford import SampleSpec, build_canonical_module, \
    certify_axioms
from diracsym.cli import main as cli_main
from diracsym.geometry import PhasePoint
from diracsym.symbols import certify_principal_type, kernel_basis, \
    principal_symbol, symbol_package
from diracsym.transport import (
    PolarizationState,
    compare_transports,
    covariance_check,
    minkowski_boost_map,
    schwarzschild_isotropic_map,
    transport_denker,
)

from conftest import SCHW_X0, null_state


def _null_points(m, n, seed):
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(n):
        x = ds.random_chart_point(m, rng)
        pts.append((x, ds.random_null_covector(m, x, rng)))
    return pts


def _generic_points(m, n, seed):
    # covectors bounded away from the cone
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < n:
        x = ds.random_chart_point(m, rng)
        xi = rng.standard_normal(m.dim)
        q = ds.hamiltonian_q(m, x, xi)
        if abs(q) > 1e-3 * float(xi @ xi):
            pts.append((x, xi))
    return pts


def test_1_axiom_certification(rep_mink4, rep_schw):
    t0 = time.perf_counter()
    rm = certify_axioms(rep_mink4,
                        SampleSpec(points=20, vectors=10, seed=0),
                        tolerance=1e-12)
    rs = certify_axioms(rep_schw,
                        SampleSpec(points=100, vectors=10, seed=2),
                        tolerance=1e-6)
    dt = time.perf_counter() - t0
    worst_m = max(a.max_residual for a in rm.axioms.values())
    worst_s = max(a.max_residual for a in rs.axioms.values())
    assert rm.passed and worst_m < 1e-12
    assert rs.passed and worst_s < 1e-6
    assert dt < 5.0
    print(f"ACCEPTANCE 1 PASS axioms mink {worst_m:.2e} < 1e-12, "
          f"schw(100 pts) {worst_s:.2e} < 1e-6, {dt:.2f}s < 5s")


def test_2_symbol_factorization(rep_mink4, rep_schw, sys_mink4, sys_schw,
                                mink4, schw):
    t0 = time.perf_counter()
    worst = 0.0
    n_on = 0
    for m, rep, sysd, seed in ((mink4, rep_mink4, sys_mink4, 3),
                               (schw, rep_schw, sys_schw, 4)):
        for x, xi in _null_points(m, 25, seed):
            pkg = symbol_package(rep, PhasePoint(x, xi), sys=sysd)
            worst = max(worst, pkg.factorization_residual)
            n_on += 1
        for x, xi in _generic_points(m, 75, seed + 10):
            pkg = symbol_package(rep, PhasePoint(x, xi), sys=sysd)
            worst = max(worst, pkg.factorization_residual)
    dt = time.perf_counter() - t0
    assert n_on == 50
    assert worst < 1e-10
    assert dt < 2.0
    print(f"ACCEPTANCE 2 PASS factorization {worst:.2e} < 1e-10 at 200 "
          f"points ({n_on} on the cone), {dt:.2f}s < 2s")


def test_3_gram_index(rep_mink4, rep_schw, mink2):
    small = SampleSpec(points=2, vectors=2, seed=0)
    i4m = certify_axioms(rep_mink4, small).gram_index
    i4s = certify_axioms(rep_schw, small).gram_index
    i2 = certify_axioms(build_canonical_module(mink2), small).gram_index
    assert i4m == (2, 2) and i4s == (2, 2)
    assert i2 == (1, 1)
    print(f"ACCEPTANCE 3 PASS pairing index {i4m} in dim 4, {i2} in dim 2")


def test_4_kernel_rank_and_conditioning(rep_mink4, rep_schw, sys_mink4,
                                        sys_schw, mink4, schw):
    worst_cond = 0.0
    for m, rep, sysd, seed in ((mink4, rep_mink4, sys_mink4, 5),
                               (schw, rep_schw, sys_schw, 6)):
        for x, xi in _null_points(m, 100, seed):
            p = PhasePoint(x, xi)
            _, dim = kernel_basis(principal_symbol(sysd, p))
            assert dim == 2, (m.name, x, xi)
            cert = certify_principal_type(rep, p, sys=sysd, seed=seed)
            assert cert.passed and cert.ker_dim == 2
            worst_cond = max(worst_cond, cert.ker_coker_condition_number)
        for x, xi in _generic_points(m, 100, seed + 20):
            _, dim = kernel_basis(principal_symbol(sysd, PhasePoint(x, xi)))
            assert dim == 0, (m.name, x, xi)
    assert worst_cond < 1e3
    print(f"ACCEPTANCE 4 PASS kernel rank 2 at 200 null points, 0 at 200 "
          f"generic points, worst certificate condition {worst_cond:.1f} "
          f"< 1e3")


def test_5_hamiltonian_flow_quality(mink4, schw):
    xi = ds.null_project_covector(mink4, np.zeros(4),
                                  np.array([1.0, 0.6, 0.8, 0.0]))
    tm = ds.integrate_bicharacteristic(mink4, PhasePoint(np.zeros(4), xi),
                                       5.0, step=1e-3)
    drift_m = float(np.max(np.abs(tm.qs - tm.qs[0])))
    assert drift_m < 1e-8

    rng = np.random.default_rng(9)
    drift_s = 0.0
    for _ in range(3):
        xi = ds.random_null_covector(schw, SCHW_X0, rng)
        tr = ds.integrate_bicharacteristic(schw, PhasePoint(SCHW_X0, xi),
                                           5.0, step=1e-3)
        assert not tr.left_chart
        drift_s = max(drift_s, float(np.max(np.abs(tr.qs - tr.qs[0]))))
    assert drift_s < 1e-6

    xi = ds.null_project_covector(schw, SCHW_X0,
                                  np.array([1.0, 0.9, 0.02, 0.01]))
    p = PhasePoint(SCHW_X0, xi)
    ends = {}
    for h in (0.2, 0.1, 0.05):
        t = ds.integrate_bicharacteristic(schw, p, 5.0, step=h)
        ends[h] = np.concatenate([t.xs[-1], t.xis[-1]])
    e1 = np.linalg.norm(ends[0.2] - ends[0.1])
    e2 = np.linalg.norm(ends[0.1] - ends[0.05])
    assert e1 > 1e-12
    ratio = e1 / e2
    assert 12.0 <= ratio <= 20.0
    print(f"ACCEPTANCE 5 PASS q drift mink {drift_m:.2e} < 1e-8, schw "
          f"{drift_s:.2e} < 1e-6, halving ratio {ratio:.1f} in [12, 20]")


def test_6_transport_agreement(rep_mink4, rep_schw, sys_mink4, sys_schw,
                               mink4, schw):
    t0 = time.perf_counter()

    worst_gap = 0.0
    for seed in range(5):
        state = null_state(schw, rep_schw, SCHW_X0, seed)
        rpt = compare_transports(rep_schw, sys_schw, state, 5.0, step=1e-3)
        assert not rpt.left_chart
        worst_gap = max(worst_gap, rpt.max_gap)
    assert worst_gap < 1e-6

    # step refinement: 4 halvings; the fitted order is only meaningful when
    # the gaps rise above the accumulation floor of roundoff
    steps = np.array([1e-2, 5e-3, 2.5e-3, 1.25e-3])
    state = null_state(schw, rep_schw, SCHW_X0, 0)
    gaps = np.array([
        compare_transports(rep_schw, sys_schw, state, 1.0, step=h).max_gap
        for h in steps])
    assert np.all(gaps / steps ** 4 < 1.0)
    if np.max(gaps) > 1e-12:
        order = float(np.polyfit(np.log(steps), np.log(gaps), 1)[0])
        assert order >= 3.5
        fit_note = f"fitted order {order:.2f} >= 3.5"
    else:
        fit_note = (f"gaps at roundoff floor (max {np.max(gaps):.1e}), "
                    f"order fit vacuous")

    mstate = PolarizationState(
        PhasePoint(np.zeros(4), np.array([1.0, 1.0, 0.0, 0.0])),
        np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2))
    mrpt = compare_transports(rep_mink4, sys_mink4, mstate, 5.0, step=1e-3)
    assert mrpt.max_gap < 1e-12

    fstate = null_state(schw, rep_schw, SCHW_X0, 5)
    frpt = compare_transports(rep_schw, sys_schw, fstate, 1.0, step=1e-3,
                              flip_subprincipal=True)
    assert frpt.max_gap > 1e-3

    dt = time.perf_counter() - t0
    assert dt < 30.0
    print(f"ACCEPTANCE 6 PASS gap {worst_gap:.2e} < 1e-6 over 5 seeds, "
          f"{fit_note}, mink {mrpt.max_gap:.1e} < 1e-12, flipped sign "
          f"{frpt.max_gap:.2e} > 1e-3, {dt:.1f}s < 30s")


def test_7_kernel_preservation(rep_schw, sys_schw, sys_mink4, schw):
    worst = 0.0
    for seed in (5, 6):
        state = null_state(schw, rep_schw, SCHW_X0, seed)
        orbit = transport_denker(sys_schw, state, 5.0, step=1e-3)
        worst = max(worst, float(np.max(orbit.kernel_residuals)))

    mstate = PolarizationState(
        PhasePoint(np.zeros(4), np.array([1.0, 1.0, 0.0, 0.0])),
        np.array([0, 1, 1, 0]) / np.sqrt(2))
    om = transport_denker(sys_mink4, mstate, 5.0, step=1e-3)
    worst = max(worst, float(np.max(om.kernel_residuals)))
    assert worst < 1e-6
    print(f"ACCEPTANCE 7 PASS relative kernel residual {worst:.2e} < 1e-6 "
          f"at every sample of 3 rays")


def test_8_chart_covariance(rep_mink4, rep_schw, mink4, schw):
    xi = ds.null_project_covector(mink4, np.zeros(4),
                                  np.array([1.0, 0.6, 0.8, 0.0]))
    from diracsym.symbols import _StageEngine
    vecs, _ = kernel_basis(_StageEngine(rep_mink4)(np.zeros(4),
                                                          xi).sigma1)
    bstate = PolarizationState(PhasePoint(np.zeros(4), xi), vecs[0])
    boost = covariance_check(minkowski_boost_map(0.5), bstate, 2.0,
                             step=1e-3)
    worst_b = max(boost["max_x_discrepancy"], boost["max_xi_discrepancy"],
                  boost["max_w_discrepancy"])
    assert worst_b < 1e-6

    sstate = null_state(schw, rep_schw, SCHW_X0, 3)
    remap = covariance_check(schwarzschild_isotropic_map(1.0), sstate, 2.0,
                             step=1e-3)
    worst_s = max(remap["max_x_discrepancy"], remap["max_xi_discrepancy"],
                  remap["max_w_discrepancy"])
    assert worst_s < 1e-6
    print(f"ACCEPTANCE 8 PASS covariance: boost {worst_b:.2e} < 1e-6, "
          f"radial reparametrization {worst_s:.2e} < 1e-6")


def test_9_deterministic_reports(tmp_path, capsys):
    cfg = {
        "metric": "schwarzschild1.0",
        "chart_seed_point": SCHW_X0.tolist(),
        "initial_covector": "random_null(7)",
        "initial_polarization": "kernel_basis(0)",
        "integrator": {"kind": "rk4_fixed", "step": 1e-3},
        "t_end": 1.0,
    }
    path = tmp_path / "cmp.json"
    path.write_text(json.dumps(cfg))
    outs = []
    for i in (0, 1):
        dest = tmp_path / f"r{i}.json"
        rc = cli_main(["compare", "--config", str(path), "--seed", "3",
                       "--no-meta", "--out", str(dest)])
        capsys.readouterr()
        assert rc == 0
        outs.append(dest.read_bytes())
    assert outs[0] == outs[1]
    assert len(outs[0]) > 100
    payload = json.loads(outs[0])
    assert payload["pass"] is True
    print(f"ACCEPTANCE 9 PASS byte-identical compare report "
          f"({len(outs[0])} bytes) across repeated runs")
