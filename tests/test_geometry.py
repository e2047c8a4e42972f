"""Geometry layer: metric jets, Christoffels, frames, null flow.

The independent oracle for curved-metric derivatives is sympy: the
Schwarzschild and conformally flat line elements are re-derived symbolically
here and compared against the library's closed-form and autodiff jets.
"""
import numpy as np
import pytest
import sympy as sp

import diracsym as ds
from diracsym.errors import (
    ConfigError,
    DegenerateMetric,
    FrameDegenerate,
    OutsideChart,
    StepUnderflow,
    ZeroCovector,
)
from diracsym.geometry import MetricField, PhasePoint, metric_derivative

from conftest import SCHW_X0


# --------------------------------------------------------------------------
# sympy oracle


def _sympy_christoffel(g_expr, coords):
    g = sp.Matrix(g_expr)
    ginv = g.inv()
    n = len(coords)
    Gam = np.empty((n, n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                s = 0
                for l in range(n):
                    s += ginv[i, l] * (sp.diff(g[l, j], coords[k])
                                       + sp.diff(g[l, k], coords[j])
                                       - sp.diff(g[j, k], coords[l])) / 2
                Gam[i, j, k] = sp.simplify(s)
    return Gam


def _eval_obj_tensor(T, coords, point):
    subs = dict(zip(coords, point))
    out = np.zeros(T.shape)
    for idx in np.ndindex(*T.shape):
        out[idx] = float(sp.N(T[idx].subs(subs)))
    return out


@pytest.fixture(scope="module")
def schw_sympy():
    t, r, th, ph = sp.symbols("t r theta phi", real=True)
    f = 1 - 2 / r
    g = sp.diag(-f, 1 / f, r**2, r**2 * sp.sin(th) ** 2)
    return g, (t, r, th, ph)


def test_schwarzschild_christoffel_against_sympy(schw, schw_sympy):
    g_expr, coords = schw_sympy
    oracle = _eval_obj_tensor(_sympy_christoffel(g_expr, coords), coords,
                              SCHW_X0)
    ours = ds.christoffel(schw, SCHW_X0)
    assert np.max(np.abs(ours - oracle)) < 1e-12


def test_conformal_flat_against_sympy():
    m = ds.conformal_flat("1 + 0.05*x1 + 0.02*x2**2")
    x = np.array([0.3, 0.7, -0.4, 0.2])
    xs = sp.symbols("x0 x1 x2 x3", real=True)
    om = 1 + sp.Rational(5, 100) * xs[1] + sp.Rational(2, 100) * xs[2] ** 2
    g_expr = om**2 * sp.diag(-1, 1, 1, 1)
    oracle = _eval_obj_tensor(_sympy_christoffel(g_expr, xs), xs, x)
    ours = ds.christoffel(m, x)
    assert np.max(np.abs(ours - oracle)) < 1e-10


# --------------------------------------------------------------------------
# frozen values


def test_schwarzschild_metric_components(schw):
    g, ginv = ds.eval_metric(schw, SCHW_X0)
    assert g[0, 0] == pytest.approx(-0.8, abs=1e-15)
    assert g[1, 1] == pytest.approx(1.25, abs=1e-15)
    assert g[2, 2] == pytest.approx(100.0, abs=1e-12)
    assert g[3, 3] == pytest.approx(100.0 * np.sin(1.2) ** 2, abs=1e-12)
    assert np.allclose(g @ ginv, np.eye(4), atol=1e-13)


def test_schwarzschild_christoffel_frozen(schw):
    # hand-derived exterior values at r=10, theta=1.2, M=1
    G = ds.christoffel(schw, SCHW_X0)
    assert G[1, 0, 0] == pytest.approx(0.008, abs=1e-14)    # r-tt
    assert G[0, 0, 1] == pytest.approx(0.0125, abs=1e-14)   # t-tr
    assert G[1, 1, 1] == pytest.approx(-0.0125, abs=1e-14)  # r-rr
    assert G[2, 1, 2] == pytest.approx(0.1, abs=1e-14)      # th-r th
    assert G[1, 2, 2] == pytest.approx(-8.0, abs=1e-12)     # r-th th


def test_hamiltonian_q_null_combination(schw):
    xi = np.array([-1.0, 1.25, 0.0, 0.0])
    # g^tt = -1.25, g^rr = 0.8 at r=10: the radial null balance
    assert ds.hamiltonian_q(schw, SCHW_X0, xi) == pytest.approx(0.0, abs=1e-15)


def test_phase_rhs_frozen_and_fd(schw):
    from diracsym.geometry import _phase_rhs

    xi = np.array([-1.0, 1.25, 0.0, 0.0])
    dx, dxi = _phase_rhs(schw, SCHW_X0, xi)
    Z = ds.raise_covector(schw, SCHW_X0, xi)
    assert np.allclose(dx, 2 * Z, atol=1e-15)
    assert dxi[1] == pytest.approx(-0.0625, abs=1e-12)

    # central-difference oracle for dxi = -dq/dx
    h = 1e-6
    for k in range(4):
        e = np.zeros(4)
        e[k] = h * (1 + abs(SCHW_X0[k]))
        qp = ds.hamiltonian_q(schw, SCHW_X0 + e, xi)
        qm = ds.hamiltonian_q(schw, SCHW_X0 - e, xi)
        assert dxi[k] == pytest.approx(-(qp - qm) / (2 * e[k]), abs=1e-6)


def test_raise_lower_roundtrip(schw):
    rng = np.random.default_rng(0)
    xi = rng.normal(size=4)
    Z = ds.raise_covector(schw, SCHW_X0, xi)
    assert np.allclose(ds.lower_vector(schw, SCHW_X0, Z), xi, atol=1e-13)


# --------------------------------------------------------------------------
# frames


def test_frame_orthonormality_schwarzschild(schw):
    fr = ds.orthonormal_frame(schw, SCHW_X0)
    g, _ = ds.eval_metric(schw, SCHW_X0)
    eta = np.diag([-1.0, 1.0, 1.0, 1.0])
    assert np.allclose(fr.E.T @ g @ fr.E, eta, atol=1e-13)
    assert np.allclose(fr.E_inv @ fr.E, np.eye(4), atol=1e-13)
    assert fr.E[0, 0] == pytest.approx(1 / np.sqrt(0.8), rel=1e-14)
    assert fr.E[1, 1] == pytest.approx(np.sqrt(0.8), rel=1e-14)
    assert fr.E[2, 2] == pytest.approx(0.1, rel=1e-14)
    assert fr.E[3, 3] == pytest.approx(1 / (10 * np.sin(1.2)), rel=1e-14)


def test_frame_generic_gram_schmidt_nondiagonal():
    # constant non-diagonal chart: L^T eta L pulled back through a shear
    L = np.eye(4)
    L[0, 1] = 0.3
    L[2, 3] = -0.2
    m = ds.minkowski_linear_chart(L)
    x = np.zeros(4)
    fr = ds.orthonormal_frame(m, x)
    g, _ = ds.eval_metric(m, x)
    eta = np.diag([-1.0, 1.0, 1.0, 1.0])
    assert np.allclose(fr.E.T @ g @ fr.E, eta, atol=1e-12)


def test_frame_degenerate_on_wrong_time_sign():
    # time sign, a spatial sign, and a pivot underflow, on the general
    # (non-diagonal) path
    for diag in ([1.0, -1.0, 1.0, 1.0], [-1.0, 1.0, -1.0, 1.0],
                 [-1.0, 1.0, 1e-14, 1.0]):
        g = np.diag(diag)
        g[0, 3] = g[3, 0] = 1e-3
        flipped = MetricField(dim=4, eval=lambda x: g, name="flipped")
        with pytest.raises(FrameDegenerate):
            ds.orthonormal_frame(flipped, np.zeros(4))


def test_degenerate_metric_rejected():
    m = MetricField(dim=4, eval=lambda x: np.diag([-1.0, 1.0, 1.0, 0.0]),
                    name="singular")
    with pytest.raises(DegenerateMetric):
        ds.eval_metric(m, np.zeros(4))


def test_nonsymmetric_metric_rejected():
    bad = np.diag([-1.0, 1.0, 1.0, 1.0])
    bad[0, 1] = 0.5
    m = MetricField(dim=4, eval=lambda x: bad, name="skew")
    with pytest.raises(ValueError):
        ds.eval_metric(m, np.zeros(4))


# --------------------------------------------------------------------------
# derivative modes


def test_central_difference_matches_closed_form(schw):
    fd = MetricField(dim=4, eval=schw.eval,
                     domain_guard=schw.domain_guard, name="schw_fd")
    x = SCHW_X0
    assert np.max(np.abs(metric_derivative(fd, x)
                         - metric_derivative(schw, x))) < 1e-6


def test_autodiff_matches_central_difference():
    x = np.array([0.4, -0.2, 0.9, 0.1])
    for expr in (
            "exp(0.1*t) * (1 + 0.05*y)",
            "1 + 0.1*abs(x - 0.5)",  # abs at a negative argument
            "2 + sqrt(1 + t*t) * log(3 + z) + arctan(x*y)",
            "1 + 0.05*sinh(y)*cosh(z) - 0.02*tanh(t)/(2 + cos(x))**2"
            " + 0.01*tan(x0 - x3) - pi/100"):
        m = ds.conformal_flat(expr)
        fd = MetricField(dim=4, eval=m.eval,
                         domain_guard=m.domain_guard, name="conf_fd")
        assert np.max(np.abs(metric_derivative(m, x)
                             - metric_derivative(fd, x))) < 1e-8, expr


# --------------------------------------------------------------------------
# flow


def test_minkowski_ray_endpoint_exact(mink4):
    p = PhasePoint(np.zeros(4), np.array([1.0, 1.0, 0.0, 0.0]))
    traj = ds.integrate_bicharacteristic(mink4, p, 1.0, step=1e-3)
    assert np.allclose(traj.xs[-1], [-2.0, 2.0, 0.0, 0.0], atol=1e-13)
    assert np.allclose(traj.xis[-1], p.xi, atol=0)
    assert np.max(np.abs(traj.qs)) < 1e-14


def test_schwarzschild_null_conservation(schw):
    rng = np.random.default_rng(2)
    xi = ds.random_null_covector(schw, SCHW_X0, rng)
    traj = ds.integrate_bicharacteristic(schw, PhasePoint(SCHW_X0, xi), 5.0,
                                         step=1e-3)
    assert not traj.left_chart
    assert np.max(np.abs(traj.qs - traj.qs[0])) < 1e-6


def test_rk4_step_halving_ratio(schw):
    # Richardson: endpoint error drops ~16x per halving for smooth rays
    xi = ds.null_project_covector(schw, SCHW_X0,
                                  np.array([1.0, 0.9, 0.02, 0.01]))
    p = PhasePoint(SCHW_X0, xi)
    ends = {}
    for h in (0.2, 0.1, 0.05):
        traj = ds.integrate_bicharacteristic(schw, p, 5.0, step=h)
        ends[h] = np.concatenate([traj.xs[-1], traj.xis[-1]])
    e1 = np.linalg.norm(ends[0.2] - ends[0.1])
    e2 = np.linalg.norm(ends[0.1] - ends[0.05])
    assert e1 > 1e-12  # above roundoff, or the ratio is meaningless
    assert 12.0 <= e1 / e2 <= 20.0


def test_adaptive_integrator_conserves_q(schw):
    rng = np.random.default_rng(4)
    xi = ds.random_null_covector(schw, SCHW_X0, rng)
    traj = ds.integrate_bicharacteristic(schw, PhasePoint(SCHW_X0, xi), 5.0,
                                         integrator="rk45_adaptive", tol=1e-10)
    assert np.max(np.abs(traj.qs - traj.qs[0])) < 1e-7
    assert traj.integrator == "rk45_adaptive"


def test_adaptive_step_underflow():
    # a metric with a jump can never satisfy the error controller across it
    def bumpy(x):
        lead = -1.0 if x[0] < 0.5 else -1.5
        return np.diag([lead, 1.0, 1.0, 1.0])

    m = MetricField(dim=4, eval=bumpy, name="jump")
    # xi_0 = -1 so the coordinate time runs forward into the jump
    p = PhasePoint(np.zeros(4), np.array([-1.0, 1.0, 0.0, 0.0]))
    with pytest.raises(StepUnderflow):
        ds.integrate_bicharacteristic(m, p, 2.0, integrator="rk45_adaptive",
                                      tol=1e-12)


def test_left_chart_truncation(schw):
    # aim straight at the horizon; run must stop at the guard, flagged
    xi = ds.null_project_covector(schw, SCHW_X0,
                                  np.array([1.0, -1.25, 0.0, 0.0]))
    traj = ds.integrate_bicharacteristic(schw, PhasePoint(SCHW_X0, xi), 50.0,
                                         step=1e-2)
    assert traj.left_chart
    assert traj.ts[-1] < 50.0
    assert traj.xs[-1][1] > 2.0  # still outside the horizon


def test_outside_chart_guard(schw):
    with pytest.raises(OutsideChart):
        ds.eval_metric(schw, np.array([0.0, 2.0005, 1.2, 0.3]))


def test_require_null_rejects_off_cone(mink4):
    p = PhasePoint(np.zeros(4), np.array([1.0, 0.0, 0.0, 0.0]))
    from diracsym.errors import NotOnCharacteristicSet
    with pytest.raises(NotOnCharacteristicSet):
        ds.integrate_bicharacteristic(mink4, p, 1.0, step=1e-2,
                                      require_null=True)


# --------------------------------------------------------------------------
# sampling helpers


def test_null_projection_and_random_null(schw):
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = ds.random_chart_point(schw, rng)
        xi = ds.random_null_covector(schw, x, rng)
        assert abs(ds.hamiltonian_q(schw, x, xi)) < 1e-12
        Z = ds.raise_covector(schw, x, xi)
        assert Z[0] > 0  # future-directed


def test_null_projection_picks_nearest_root(mink4):
    xi = np.array([0.9, 1.0, 0.0, 0.0])
    out = ds.null_project_covector(mink4, np.zeros(4), xi)
    assert out[0] == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(out[1:], xi[1:], atol=0)


def test_zero_covector_rejected():
    with pytest.raises(ZeroCovector):
        PhasePoint(np.zeros(4), np.zeros(4))


def test_random_chart_point_deterministic(schw):
    a = ds.random_chart_point(schw, np.random.default_rng(3))
    b = ds.random_chart_point(schw, np.random.default_rng(3))
    assert np.array_equal(a, b)
    assert schw.domain_guard(a)


# --------------------------------------------------------------------------
# catalog


def test_catalog_ids():
    assert ds.catalog_metric("minkowski4").dim == 4
    assert ds.catalog_metric("minkowski2").dim == 2
    assert ds.catalog_metric("schwarzschild1.0").name.startswith("schwarzschild")
    assert ds.catalog_metric("schwarzschild_isotropic1.0").dim == 4
    m = ds.catalog_metric("conformal_flat{1 + 0.1*t}")
    assert m.dim == 4
    with pytest.raises(ConfigError):
        ds.catalog_metric("kerr0.5")


@pytest.mark.parametrize("expr", [
    "().__class__.__name__ and 1", "__import__('os')", "t.real",
    "x[0]", "(lambda: 1)()", "[t for t in (1,)]", "foo + 1", "1+", "sin",
    "sin(t, x)", "sin(x=t)", "pi(1)", "1 if t else 2", "t < 1", "'1'",
    "1j", "True", pytest.param("-" * 5000 + "1", id="deep"),
])
def test_conformal_expression_rejects_anything_but_arithmetic(expr):
    with pytest.raises(ConfigError):
        ds.conformal_flat(expr)


def test_conformal_guard_rejects_vanishing_factor():
    m = ds.conformal_flat("t")  # vanishes at t = 0
    with pytest.raises(OutsideChart):
        ds.eval_metric(m, np.zeros(4))
