"""Transport layer: the symbol-level connection, the pulled-back spinor
connection, their comparison (the package's central claim), and chart
covariance of the whole pipeline.
"""
import numpy as np
import pytest

import diracsym as ds
from diracsym.errors import ConfigError, KernelViolation
from diracsym.geometry import PhasePoint, Trajectory
from diracsym.symbols import (
    FirstOrderSystem,
    dirac_system,
    kernel_basis,
    principal_symbol,
    symbol_package,
)
from diracsym.transport import (
    PolarizationState,
    compare_transports,
    covariance_check,
    denker_generator,
    identity_map,
    minkowski_boost_map,
    schwarzschild_isotropic_map,
    transport_denker,
    transport_spin,
)

from conftest import SCHW_X0, null_state

I2 = np.eye(2)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
Z2 = np.zeros((2, 2))
G0 = np.block([[I2, Z2], [Z2, -I2]]).astype(complex)
G1 = np.block([[Z2, SX], [-SX, Z2]]).astype(complex)


def mink_ray(mink4, t_end=5.0, step=1e-3):
    p = PhasePoint(np.zeros(4), np.array([1.0, 1.0, 0.0, 0.0]))
    return ds.integrate_bicharacteristic(mink4, p, t_end, step=step)


W0 = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)


# --------------------------------------------------------------------------
# generator


def test_generator_vanishes_on_minkowski(rep_mink4, sys_mink4):
    p = PhasePoint(np.zeros(4), np.array([1.0, 1.0, 0.0, 0.0]))
    pkg = symbol_package(rep_mink4, p, sys=sys_mink4)
    M = denker_generator(pkg)
    assert np.max(np.abs(M)) < 1e-14


def test_generator_constant_coefficient_system(rep_mink4, sys_mink4):
    # constant zeroth-order part: the generator is i sigma_tilde B, constant
    C = (np.arange(16).reshape(4, 4) / 10.0).astype(complex)
    A = sys_mink4.coeff_A(np.zeros(4))
    sysc = FirstOrderSystem(N=4, coeff_A=lambda x: A,
                            coeff_B=lambda x: 1j * C,
                            rep=rep_mink4, metric=rep_mink4.metric,
                            name="const_b")
    outs = []
    for x in (np.zeros(4), np.array([0.3, -1.0, 2.0, 0.7])):
        p = PhasePoint(x, np.array([1.0, 1.0, 0.0, 0.0]))
        pkg = symbol_package(rep_mink4, p, sys=sysc)
        M = denker_generator(pkg)
        want = 1j * (pkg.sigma_tilde @ (1j * C))
        assert np.max(np.abs(M - want)) < 1e-8
        outs.append(M)
    assert np.max(np.abs(outs[0] - outs[1])) < 1e-8


def test_generator_closed_vs_fd_schwarzschild(rep_schw, schw, sys_schw):
    rng = np.random.default_rng(17)
    xi = ds.random_null_covector(schw, SCHW_X0, rng)
    p = PhasePoint(SCHW_X0, xi)
    closed = denker_generator(symbol_package(rep_schw, p, sys=sys_schw))
    generic = FirstOrderSystem(N=4, coeff_A=sys_schw.coeff_A,
                               coeff_B=sys_schw.coeff_B, rep=rep_schw,
                               metric=schw, name="schw_fd")
    fd = denker_generator(symbol_package(rep_schw, p, sys=generic))
    assert np.max(np.abs(closed - fd)) < 1e-6


def _linear_chart():
    L = np.eye(4)
    L[0, 1] = 0.3
    L[2, 3] = -0.2
    return ds.minkowski_linear_chart(L)


def _rotating_chart(omega=0.3):
    """Flat space in coordinates rotating about z at rate omega: curved
    and non-diagonal components, g_00 = -1 + omega^2 (X^2 + Y^2),
    g_0X = -omega Y, g_0Y = omega X."""
    def ev(x):
        X, Y = x[1], x[2]
        g = np.diag([-1.0 + omega**2 * (X * X + Y * Y), 1.0, 1.0, 1.0])
        g[0, 1] = g[1, 0] = -omega * Y
        g[0, 2] = g[2, 0] = omega * X
        return g

    def dev(x):
        dg = np.zeros((4, 4, 4))
        dg[1, 0, 0] = 2.0 * omega**2 * x[1]
        dg[2, 0, 0] = 2.0 * omega**2 * x[2]
        dg[1, 0, 2] = dg[1, 2, 0] = omega
        dg[2, 0, 1] = dg[2, 1, 0] = -omega
        return dg

    return ds.MetricField(
        dim=4, eval=ev, d_eval=dev, name="rotating_minkowski",
        domain_guard=lambda x: omega**2 * (x[1]**2 + x[2]**2) < 0.9,
        sample_box=np.array([[-1.0, 1.0]] * 4))


STAGE_FIXTURES = {
    "schwarzschild1.0": lambda: ds.catalog_metric("schwarzschild1.0"),
    "schwarzschild_isotropic1.0":
        lambda: ds.catalog_metric("schwarzschild_isotropic1.0"),
    "conformal_flat": lambda: ds.catalog_metric(
        "conformal_flat{1 + 0.05*sin(3*t) + 0.05*cos(2*x)*cos(2*y)}"),
    "minkowski_linear_chart": _linear_chart,
    "rotating_minkowski": _rotating_chart,
}


@pytest.mark.parametrize("flip", [False, True])
@pytest.mark.parametrize("fixture", sorted(STAGE_FIXTURES))
def test_stage_engine_against_independent_code(fixture, flip):
    """The transport stage's two rates against code that shares none of its
    contractions: omega_dot against the Christoffel-built spin connection,
    and generator + kappa Id against the finite-difference symbol package
    of a system whose zeroth-order part is -i A^m omega_m from that same
    independent connection."""
    from diracsym.clifford import (spin_connection_coefficients,
                                   spin_connection_matrix)
    from diracsym.symbols import _StageEngine

    m = STAGE_FIXTURES[fixture]()
    rep = ds.build_canonical_module(m)
    sysd = dirac_system(rep)

    def coeff_B(x):
        om = spin_connection_coefficients(m, rep._pair_products, rep.eta, x)
        return -1j * sum(a @ o for a, o in zip(sysd.coeff_A(x), om))

    generic = FirstOrderSystem(N=4, coeff_A=sysd.coeff_A, coeff_B=coeff_B,
                               rep=rep, metric=m, name="generic_fd")
    eng = _StageEngine(rep, m)
    sign = -1.0 if flip else 1.0
    rng = np.random.default_rng(41)
    for _ in range(3):
        x = ds.random_chart_point(m, rng)
        xi = ds.random_null_covector(m, x, rng)
        st = eng(x, xi)
        assert np.max(np.abs(st.omega_dot
                             - spin_connection_matrix(rep, x, st.dx))) < 1e-12

        pkg = symbol_package(rep, PhasePoint(x, xi), sys=generic)
        sub = denker_generator(pkg) - 0.5 * pkg.bracket
        want = 0.5 * pkg.bracket + sign * sub
        got = st.generator(sign) + st.kappa * np.eye(4)
        assert np.max(np.abs(got - want)) < 1e-6


def test_curved_nondiagonal_chart_frame_certificate_and_transport():
    """The rotating chart has a non-diagonal metric with nonzero
    derivatives: its frame jet against central differences, the module
    certificate, and the transport claim with its flipped-sign control."""
    from diracsym.geometry import _frame_jet

    m = _rotating_chart()
    eta = np.diag([-1.0, 1.0, 1.0, 1.0])
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = ds.random_chart_point(m, rng)
        E, dE, Einv = _frame_jet(m, x)
        # upper triangular with a positive diagonal: chart-order
        # Gram-Schmidt, the only such frame
        assert np.array_equal(E, np.triu(E)) and np.all(np.diag(E) > 0)
        assert np.max(np.abs(E.T @ m.eval(x) @ E - eta)) < 1e-12
        assert np.max(np.abs(Einv @ E - np.eye(4))) < 1e-12
        for k in range(4):
            h = np.zeros(4)
            h[k] = 1e-5
            fd = (_frame_jet(m, x + h)[0] - _frame_jet(m, x - h)[0]) / 2e-5
            assert np.max(np.abs(dE[k] - fd)) < 1e-7

    rep = ds.build_canonical_module(m)
    cert = ds.certify_axioms(rep, ds.SampleSpec(points=5, vectors=3, seed=0))
    assert cert.passed, {k: a.max_residual for k, a in cert.axioms.items()}

    sysd = dirac_system(rep, m)
    state = null_state(m, rep, np.array([0.0, 0.4, -0.3, 0.2]), 3)
    rpt = compare_transports(rep, sysd, state, 1.0, step=1e-3)
    assert not rpt.left_chart
    assert rpt.max_gap < 1e-6
    flipped = compare_transports(rep, sysd, state, 1.0, step=1e-3,
                                 flip_subprincipal=True)
    assert flipped.max_gap > 1e-3


# --------------------------------------------------------------------------
# symbol-level transport


def test_denker_flat_sections_constant(sys_mink4, mink4):
    traj = mink_ray(mink4)
    orbit = transport_denker(sys_mink4, traj, W0)
    assert orbit.method == "denker"
    assert len(orbit.sections) == traj.n
    for w in orbit.sections[:: traj.n // 7]:
        assert np.array_equal(w, W0)
    assert np.max(orbit.kernel_residuals) < 1e-13


def test_denker_rejects_off_kernel_start(sys_mink4, mink4):
    traj = mink_ray(mink4, t_end=0.5)
    with pytest.raises(KernelViolation):
        transport_denker(sys_mink4, traj, np.array([1.0, 0, 0, 0]))
    with pytest.raises(KernelViolation):
        transport_denker(sys_mink4, traj, np.zeros(4))


def test_denker_requires_dirac_backing(mink4, sys_mink4):
    traj = mink_ray(mink4, t_end=0.5)
    bare = FirstOrderSystem(N=4, coeff_A=sys_mink4.coeff_A,
                            coeff_B=sys_mink4.coeff_B, name="bare")
    with pytest.raises(ConfigError):
        transport_denker(bare, traj, W0)


def test_denker_kernel_invariance_radial_ray(rep_schw, sys_schw, schw):
    xi = ds.null_project_covector(schw, SCHW_X0,
                                  np.array([1.0, 1.25, 0.0, 0.0]))
    traj = ds.integrate_bicharacteristic(schw, PhasePoint(SCHW_X0, xi), 5.0,
                                         step=1e-3)
    from diracsym.symbols import _StageEngine
    vecs, _ = kernel_basis(_StageEngine(rep_schw, schw)(SCHW_X0, xi).sigma1)
    orbit = transport_denker(sys_schw, traj, vecs[0])
    assert np.max(orbit.kernel_residuals) < 1e-6  # measured ~1e-15
    # norm envelope: |w| within exp(int |M|) of |w0|, logged not asserted
    C = np.exp(orbit.generator_norm_integral) * (1 + 1e-6)
    norms = np.array([np.linalg.norm(w) for w in orbit.sections])
    assert np.all(norms <= C) and np.all(norms >= 1.0 / C)


# --------------------------------------------------------------------------
# spinor transport


def test_spin_flat_sections_constant(rep_mink4, mink4):
    traj = mink_ray(mink4)
    s0 = np.array([0.3, 1.0 - 0.5j, 0.0, 2.0], dtype=complex)
    orbit = transport_spin(rep_mink4, traj, s0)
    assert orbit.method == "spin_pullback"
    for s in orbit.sections[:: traj.n // 7]:
        assert np.array_equal(s, s0)
    assert orbit.product_drift == 0.0


def test_spin_preserves_indefinite_product(rep_schw, schw):
    rng = np.random.default_rng(23)
    xi = ds.random_null_covector(schw, SCHW_X0, rng)
    traj = ds.integrate_bicharacteristic(schw, PhasePoint(SCHW_X0, xi), 5.0,
                                         step=1e-3)
    s0 = np.array([1.0, 0.2j, -0.4, 0.9 + 0.1j], dtype=complex)
    orbit = transport_spin(rep_schw, traj, s0)
    assert orbit.product_drift <= 1e-8 * float(np.linalg.norm(s0)) ** 2


def test_spin_null_spinor_stays_null(rep_schw, schw):
    rng = np.random.default_rng(24)
    xi = ds.random_null_covector(schw, SCHW_X0, rng)
    traj = ds.integrate_bicharacteristic(schw, PhasePoint(SCHW_X0, xi), 5.0,
                                         step=1e-3)
    s0 = np.array([1.0, 0.0, 1.0, 0.0], dtype=complex)  # <s,s> = 0
    G = rep_schw.gram
    assert abs(s0.conj() @ G @ s0) == 0.0
    orbit = transport_spin(rep_schw, traj, s0)
    vals = [abs(s.conj() @ G @ s) for s in orbit.sections]
    assert max(vals) < 1e-8


def test_spin_endpoint_richardson_ratio(rep_schw, schw):
    xi = ds.null_project_covector(schw, SCHW_X0,
                                  np.array([1.0, 0.9, 0.02, 0.01]))
    p = PhasePoint(SCHW_X0, xi)
    s0 = np.array([1.0, 0.5, -0.25j, 0.1], dtype=complex)
    ends = {}
    for h in (0.2, 0.1, 0.05):
        traj = ds.integrate_bicharacteristic(schw, p, 5.0, step=h)
        ends[h] = transport_spin(rep_schw, traj, s0).sections[-1]
    e1 = np.linalg.norm(ends[0.2] - ends[0.1])
    e2 = np.linalg.norm(ends[0.1] - ends[0.05])
    assert e1 > 1e-12
    assert 12.0 <= e1 / e2 <= 20.0


# --------------------------------------------------------------------------
# the comparison


def test_compare_flat_transports_identical(rep_mink4, sys_mink4):
    state = PolarizationState(
        PhasePoint(np.zeros(4), np.array([1.0, 1.0, 0.0, 0.0])), W0)
    rpt = compare_transports(rep_mink4, sys_mink4, state, 5.0, step=1e-3)
    assert rpt.max_gap < 1e-13
    assert rpt.max_kernel_residual < 1e-13
    assert rpt.q_drift < 1e-14
    assert not rpt.left_chart


def test_compare_schwarzschild_main_claim(rep_schw, sys_schw, schw):
    for seed in (0, 3):
        state = null_state(schw, rep_schw, SCHW_X0, seed)
        rpt = compare_transports(rep_schw, sys_schw, state, 1.0, step=1e-3)
        assert rpt.max_gap < 1e-6, seed
        assert rpt.max_kernel_residual < 1e-6


def test_compare_negative_control_flipped_sign(rep_schw, sys_schw, schw):
    state = null_state(schw, rep_schw, SCHW_X0, 5)
    rpt = compare_transports(rep_schw, sys_schw, state, 1.0, step=1e-3,
                             flip_subprincipal=True)
    assert rpt.flip_subprincipal
    assert rpt.max_gap > 1e-3
    # the flipped term is annihilated by sigma_1 on the cone, so the wrong
    # sign shows up as a gap, not as kernel leakage
    assert rpt.max_kernel_residual < 1e-8


def test_compare_convergence_behavior(rep_schw, sys_schw, schw):
    state = null_state(schw, rep_schw, SCHW_X0, 1)
    rpt = compare_transports(rep_schw, sys_schw, state, 1.0, step=1e-2,
                             convergence=True)
    # gap sits at the roundoff floor, so the half-step ratio is undefined
    # (None) by design; a finite ratio must show at least 4th order
    if rpt.convergence_ratio is None:
        assert rpt.max_gap < 1e-12
    else:
        assert rpt.convergence_ratio >= 8.0


def test_compare_scaling_covariance(rep_schw, sys_schw, schw):
    base = null_state(schw, rep_schw, SCHW_X0, 2)
    rpt0 = compare_transports(rep_schw, sys_schw, base, 0.5, step=1e-2)
    for lam in (2.0, 1j):
        scaled = PolarizationState(base.phase, lam * base.w)
        rpt = compare_transports(rep_schw, sys_schw, scaled, 0.5, step=1e-2)
        for a, b in zip(rpt.orbit_denker.sections[::17],
                        rpt0.orbit_denker.sections[::17]):
            assert np.array_equal(a, lam * b)
        for a, b in zip(rpt.orbit_spin.sections[::17],
                        rpt0.orbit_spin.sections[::17]):
            assert np.array_equal(a, lam * b)


def test_compare_left_chart_flagged(rep_schw, sys_schw, schw):
    xi = ds.null_project_covector(schw, SCHW_X0,
                                  np.array([1.0, -1.25, 0.0, 0.0]))
    from diracsym.symbols import _StageEngine
    vecs, _ = kernel_basis(_StageEngine(rep_schw, schw)(SCHW_X0, xi).sigma1)
    state = PolarizationState(PhasePoint(SCHW_X0, xi), vecs[0])
    rpt = compare_transports(rep_schw, sys_schw, state, 50.0, step=1e-2)
    assert rpt.left_chart


def test_joint_phase_samples_match_solo_trajectory(rep_schw, sys_schw, schw):
    # the replay contract: joint integration reproduces the trajectory's
    # phase samples bit for bit
    state = null_state(schw, rep_schw, SCHW_X0, 4)
    rpt = compare_transports(rep_schw, sys_schw, state, 1.0, step=1e-2)
    traj = rpt.trajectory
    solo = ds.integrate_bicharacteristic(schw, state.phase, 1.0, step=1e-2)
    assert np.array_equal(traj.xs, solo.xs)
    assert np.array_equal(traj.xis, solo.xis)


def test_replay_rejects_unknown_integrator(sys_mink4):
    ts = np.linspace(0.0, 1.0, 11)
    xs = np.zeros((11, 4))
    xs[:, 1] = ts
    traj = Trajectory(ts=ts, xs=xs, xis=np.tile([1.0, 1, 0, 0], (11, 1)),
                      qs=np.zeros(11), integrator="leapfrog", step=0.1)
    with pytest.raises(ConfigError):
        transport_denker(sys_mink4, traj, W0)


def test_adaptive_grid_replay(rep_schw, sys_schw, schw):
    state = null_state(schw, rep_schw, SCHW_X0, 6)
    rpt = compare_transports(rep_schw, sys_schw, state, 1.0,
                             integrator="rk45_adaptive", tol=1e-10)
    assert rpt.max_gap < 1e-6
    assert rpt.step is None


# --------------------------------------------------------------------------
# covariance


def test_covariance_identity_map(rep_schw, schw):
    state = null_state(schw, rep_schw, SCHW_X0, 7)
    out = covariance_check(identity_map(schw), state, 1.0, step=1e-2)
    assert out["max_x_discrepancy"] == 0.0
    assert out["max_xi_discrepancy"] == 0.0
    assert out["max_w_discrepancy"] == 0.0


def test_covariance_minkowski_boost(rep_mink4, mink4):
    xi = ds.null_project_covector(mink4, np.zeros(4),
                                  np.array([1.0, 0.6, 0.8, 0.0]))
    from diracsym.symbols import _StageEngine
    vecs, _ = kernel_basis(_StageEngine(rep_mink4, mink4)(np.zeros(4),
                                                          xi).sigma1)
    state = PolarizationState(PhasePoint(np.zeros(4), xi), vecs[0])
    out = covariance_check(minkowski_boost_map(0.5), state, 2.0, step=1e-3)
    assert out["max_w_discrepancy"] < 1e-8
    assert out["max_x_discrepancy"] < 1e-8
    assert out["max_xi_discrepancy"] < 1e-8


def test_covariance_schwarzschild_radial_reparametrization(rep_schw, schw):
    state = null_state(schw, rep_schw, SCHW_X0, 3)
    out = covariance_check(schwarzschild_isotropic_map(1.0), state, 2.0,
                           step=1e-3)
    assert out["max_w_discrepancy"] < 1e-6
    assert out["max_x_discrepancy"] < 1e-6
    assert out["max_xi_discrepancy"] < 1e-6
