"""Geometry layer: metric jets, Christoffels, frames, null flow.

The independent oracle for curved-metric derivatives is sympy: the
Schwarzschild and conformally flat line elements are re-derived symbolically
here and compared against the library's closed-form and autodiff jets.
"""
import functools
import os
import subprocess
import sys
import textwrap
from pathlib import Path

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


def _sympy_christoffel(g_expr, coords, simplify=True):
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
                Gam[i, j, k] = sp.simplify(s) if simplify else s
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
# rays are null geodesics: the q-flow's x(t) against x'' = -Gamma(x', x')
# integrated from the sympy oracle's Christoffels, which never call ``jet``

_CONFORMAL_OMEGA = "1 + 0.05*sin(3*t) + 0.05*cos(2*x)*cos(2*y)"


def _line_element(case):
    """(g, coordinates) in sympy: Schwarzschild with M = 1, or the conformal
    metric (1 + 0.05 (sin 3t + cos 2x cos 2y))^2 eta."""
    if case == "schwarzschild1.0":
        t, r, th, ph = sp.symbols("t r theta phi", real=True)
        f = 1 - 2 / r
        return (sp.diag(-f, 1 / f, r**2, r**2 * sp.sin(th) ** 2),
                (t, r, th, ph))
    xs = sp.symbols("x0:4", real=True)
    om = 1 + sp.Rational(5, 100) * (sp.sin(3 * xs[0])
                                    + sp.cos(2 * xs[1]) * sp.cos(2 * xs[2]))
    return om**2 * sp.diag(-1, 1, 1, 1), xs


@functools.cache
def _geodesic_equation(case):
    """Float functions of the case's metric g(x) and of the geodesic
    acceleration -Gamma^i_jk(x) v^j v^k, from unsimplified sympy
    Christoffels."""
    g_expr, coords = _line_element(case)
    n = len(coords)
    Gam = _sympy_christoffel(g_expr, coords, simplify=False)
    v = sp.symbols(f"v0:{n}", real=True)
    acc = sp.lambdify([*coords, *v], [
        -sum(Gam[i, j, k] * v[j] * v[k] for j in range(n) for k in range(n))
        for i in range(n)], "math", cse=True)
    return sp.lambdify(coords, g_expr.tolist(), "math"), acc


def _geodesic_positions(case, traj):
    """x(t_i) of the geodesic from x(0) = traj.xs[0] with x'(0) = 2 g^-1
    xi(0), by a test-local RK4 on the trajectory's own grid."""
    g_at, acc = _geodesic_equation(case)
    x0 = traj.xs[0].tolist()
    y = x0 + (2.0 * np.linalg.solve(np.array(g_at(*x0)),
                                    traj.xis[0])).tolist()

    def rate(y):
        return y[4:] + acc(*y)

    out = [x0]
    for h in np.diff(traj.ts).tolist():
        k1 = rate(y)
        k2 = rate([a + 0.5 * h * b for a, b in zip(y, k1)])
        k3 = rate([a + 0.5 * h * b for a, b in zip(y, k2)])
        k4 = rate([a + h * b for a, b in zip(y, k3)])
        y = [a + (h / 6.0) * (b + 2.0 * c + 2.0 * d + e)
             for a, b, c, d, e in zip(y, k1, k2, k3, k4)]
        out.append(y[:4])
    return np.array(out)


def _ray(m, x0, seed):
    """The q-flow from x0 along random_null(seed): 2,000 RK4 steps of 1e-3."""
    xi = ds.random_null_covector(m, x0, np.random.default_rng(seed))
    traj = ds.integrate_bicharacteristic(m, PhasePoint(x0, xi), 2.0,
                                         step=1e-3, require_null=True)
    assert traj.n == 2001 and not traj.left_chart
    return traj


@pytest.mark.parametrize("case", ["schwarzschild1.0", "conformal"])
def test_rays_are_null_geodesics(case):
    """Measured: 2.6e-14 on schwarzschild1.0 and 4.5e-13 on the conformal
    metric; the rays bend by more than 1e-3 away from a straight line."""
    if case == "conformal":
        m = ds.catalog_metric("conformal_flat{" + _CONFORMAL_OMEGA + "}")
        traj = _ray(m, np.array([0.1, 0.2, -0.3, 0.4]), 7)
    else:
        traj = _ray(ds.schwarzschild(1.0), SCHW_X0, 7)
    xs = _geodesic_positions(case, traj)
    assert np.max(np.abs(xs - traj.xs)) < 1e-10
    line = traj.xs[0] + traj.ts[:, None] * (xs[1] - xs[0]) / traj.ts[1]
    assert np.max(np.abs(xs - line)) > 1e-3


def test_ray_of_a_wrong_jet_is_no_geodesic(schw):
    """A metric whose jet is 1% off (dg scaled by 1.01, values exact) moves
    the ray off the geodesic by far more than the bound (6e-5 measured)."""
    def jet(x):
        g, dg = schw.jet(x)
        return g, 1.01 * dg

    off = MetricField(dim=4, eval=schw.eval, jet=jet,
                      domain_guard=schw.domain_guard, diagonal=True,
                      name="schwarzschild_jet_off")
    traj = _ray(off, SCHW_X0, 7)
    xs = _geodesic_positions("schwarzschild1.0", traj)
    assert np.max(np.abs(xs - traj.xs)) > 1e-6


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
    from diracsym.geometry import _phase_core

    xi = np.array([-1.0, 1.25, 0.0, 0.0])
    dx, dxi = _phase_core(schw, SCHW_X0, xi)[3:]
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
    from diracsym.geometry import _frame_jet_from

    bad = ([1.0, -1.0, 1.0, 1.0], [-1.0, 1.0, -1.0, 1.0],
           [-1.0, 1.0, 1e-14, 1.0])
    for diag in bad:
        g = np.diag(diag)
        g[0, 3] = g[3, 0] = 1e-3
        flipped = MetricField(dim=4, eval=lambda x: g, name="flipped")
        with pytest.raises(FrameDegenerate):
            ds.orthonormal_frame(flipped, np.zeros(4))
    # a stack with one bad point, on the diagonal and the general branch:
    # the error names that point
    for diagonal in (True, False):
        m = MetricField(dim=4, eval=None, name="stack", diagonal=diagonal)
        for diag in bad:
            g = np.array([np.diag([-1.0, 1.0, 1.0, 1.0])] * 5)
            g[3] = np.diag(diag)
            if not diagonal:
                g[:, 0, 3] = g[:, 3, 0] = 1e-3
            with pytest.raises(FrameDegenerate, match="at stacked point 3"):
                _frame_jet_from(m, g, np.zeros((5, 4, 4, 4)))
        g = np.array([np.diag([-1.0, 1.0, 1.0, 1.0])] * 5)
        assert _frame_jet_from(m, g, np.zeros((5, 4, 4, 4)))[0].shape == \
            (5, 4, 4)


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


_JET_CATALOG = {
    "minkowski2": lambda: ds.minkowski(2),
    "minkowski4": lambda: ds.minkowski(4),
    "minkowski_linear": lambda: ds.minkowski_linear_chart(
        np.array([[1.2, 0.3, 0.0, 0.0], [0.1, 1.0, 0.2, 0.0],
                  [0.0, 0.0, 1.0, 0.1], [0.2, 0.0, 0.0, 0.9]])),
    "schwarzschild1.0": lambda: ds.catalog_metric("schwarzschild1.0"),
    "schwarzschild_isotropic1.0":
        lambda: ds.catalog_metric("schwarzschild_isotropic1.0"),
    "conformal_flat": lambda: ds.catalog_metric(
        "conformal_flat{1 + 0.05*sin(3*t) + 0.05*cos(2*x)*cos(2*y)}"),
    "conformal_flat_constant": lambda: ds.catalog_metric(
        "conformal_flat{1.5}"),
}


@pytest.mark.parametrize("name", sorted(_JET_CATALOG))
def test_catalog_jet_matches_eval_and_central_differences(name):
    """A catalog jet's g is eval's exactly; its dg matches Richardson
    extrapolated central differences, whose O(h^4) error stays below the
    bounds of the two tests above across the whole sample box."""
    from diracsym.geometry import _partials

    m = _JET_CATALOG[name]()
    bound = 1e-8 if name.startswith("conformal") else 1e-6
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = ds.random_chart_point(m, rng)
        g, dg = m.jet(x)
        assert np.array_equal(g, m.eval(x))
        assert dg.shape == (m.dim,) * 3
        d1, d2 = (_partials(m.eval, x, h) for h in (1e-4, 5e-5))
        assert np.max(np.abs((4.0 * d2 - d1) / 3.0 - dg)) < bound, x


@pytest.mark.parametrize("name", ["schwarzschild1.0", "conformal_flat"])
def test_rk4_flow_takes_one_jet_per_stage_and_no_eval(name):
    import dataclasses

    from diracsym.geometry import _flow

    m = _JET_CATALOG[name]()
    jets, evals = [], []
    counted = dataclasses.replace(
        m, eval=lambda x: evals.append(1) or m.eval(x),
        jet=lambda x: jets.append(1) or m.jet(x))
    x0 = SCHW_X0 if name.startswith("schwarzschild") \
        else np.array([0.1, -0.3, 0.5, 0.2])
    xi0 = ds.random_null_covector(m, x0, np.random.default_rng(2))
    traj = _flow(counted, PhasePoint(x0, xi0), 0.1, "rk4_fixed", 1e-2, 1e-10)
    assert traj.n - 1 == 10 and not traj.left_chart
    assert len(jets) == 1 + 4 * 10
    assert not evals


# --------------------------------------------------------------------------
# flow


def test_minkowski_ray_endpoint_exact(mink4):
    p = PhasePoint(np.zeros(4), np.array([1.0, 1.0, 0.0, 0.0]))
    traj = ds.integrate_bicharacteristic(mink4, p, 1.0, step=1e-3)
    assert np.allclose(traj.xs[-1], [-2.0, 2.0, 0.0, 0.0], atol=1e-13)
    assert np.allclose(traj.xis[-1], p.xi, atol=0)
    assert np.max(np.abs(traj.qs)) < 1e-14


def test_trajectory_q_is_hamiltonian_off_cone(schw):
    # a timelike ray has q near -1.44, so each sample's q is checked itself
    # rather than its drift qs - qs[0], which a zeroed qs would also pass
    p = PhasePoint(np.array([0.0, 6.0, 1.2, 0.3]),
                   np.array([-1.0, 0.3, 0.0, 0.0]))
    traj = ds.integrate_bicharacteristic(schw, p, 1.0, step=1e-2)
    want = np.array([ds.hamiltonian_q(schw, x, xi)
                     for x, xi in zip(traj.xs, traj.xis)])
    assert traj.n == 101 and np.all(want < -1.0)
    assert np.max(np.abs(traj.qs - want)) <= 1e-14 * np.max(np.abs(want))


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


def test_adaptive_nan_error_norm_underflows():
    # the metric turns NaN at x0 = 0.1, t = 0.05 on this ray, and its guard
    # stays true; a NaN error norm used to grow the step back and loop
    # forever, so the run is a subprocess with a timeout
    code = textwrap.dedent("""
        import numpy as np
        import diracsym as ds

        def ev(x):
            return np.diag([-1.0 if x[0] < 0.1 else np.nan, 1.0, 1.0, 1.0])

        m = ds.MetricField(dim=4, eval=ev, name="nan_past", diagonal=True)
        p = ds.PhasePoint(np.zeros(4), np.array([-1.0, 1.0, 0.0, 0.0]))
        try:
            ds.integrate_bicharacteristic(m, p, 1.0,
                                          integrator="rk45_adaptive", tol=1e-8)
        except ds.StepUnderflow as e:
            print("StepUnderflow:", e)
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(ds.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("StepUnderflow:"), proc.stdout


def test_adaptive_attempt_cap_stops_a_run_that_cannot_finish():
    # a wrong embedded weight leaves an error estimate of order h * 1e-3
    # that never shrinks like h^5, so the controller holds the step near
    # 1e-7, far above the floor, and t = 1 would take some 10^7 steps;
    # the attempt cap ends the run instead (subprocess with a timeout)
    code = textwrap.dedent("""
        import time
        import numpy as np
        import diracsym as ds
        from diracsym import geometry

        geometry._DP_B4 = (5179.0 / 57000.0,) + geometry._DP_B4[1:]
        p = ds.PhasePoint(np.zeros(4), np.array([-1.0, 1.0, 0.0, 0.0]))
        t0 = time.perf_counter()
        try:
            ds.integrate_bicharacteristic(ds.minkowski(4), p, 1.0,
                                          integrator="rk45_adaptive",
                                          tol=1e-10)
        except ds.StepUnderflow as e:
            print(f"StepUnderflow after {time.perf_counter() - t0:.1f} s:", e)
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(ds.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("StepUnderflow"), proc.stdout
    from diracsym.geometry import _ATTEMPTS_PER_T
    assert f"{_ATTEMPTS_PER_T} step attempts" in proc.stdout
    assert "accepted" in proc.stdout and "rejected" in proc.stdout
    assert "t=" in proc.stdout and "h=" in proc.stdout


def test_adaptive_attempt_cap_grows_with_t_end(monkeypatch):
    # the cap is a budget per unit of t: a long ray that needs more
    # attempts than one unit's budget still finishes (about 40 attempts per
    # unit of t here, so t = 20 takes some 800 against a budget of 4,000)
    from diracsym import geometry
    monkeypatch.setattr(geometry, "_ATTEMPTS_PER_T", 200)
    m = ds.catalog_metric(
        "conformal_flat{1 + 0.05*sin(3*t) + 0.05*cos(2*x)*cos(2*y)}")
    rng = np.random.default_rng(2)
    x = rng.uniform(-1.0, 1.0, size=4)
    p = ds.PhasePoint(x, ds.random_null_covector(m, x, rng))
    tr = ds.integrate_bicharacteristic(m, p, 20.0,
                                       integrator="rk45_adaptive", tol=1e-12)
    assert len(tr.ts) - 1 > 200
    assert tr.ts[-1] == pytest.approx(20.0, abs=1e-12)
    assert not tr.left_chart


def test_integrator_inputs_must_be_finite_and_positive(mink4):
    # a zero, negative or non-finite step or t_end used to divide by zero,
    # pass with one sample or raise ValueError; a zero or non-finite
    # tolerance used to hang, so tests/test_cli.py runs those in a
    # subprocess
    p = PhasePoint(np.zeros(4), np.array([1.0, 1.0, 0.0, 0.0]))
    bad = [dict(step=v) for v in (0.0, -0.1, np.inf, np.nan)]
    bad.append(dict(integrator="rk45_adaptive", tol=-1e-8))
    for kw in bad:
        with pytest.raises(ConfigError):
            ds.integrate_bicharacteristic(mink4, p, 1.0, **kw)
    for t_end in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ConfigError):
            ds.integrate_bicharacteristic(mink4, p, t_end)


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
