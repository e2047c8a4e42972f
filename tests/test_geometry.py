"""Geometry layer: metric jets, Christoffels, frames, null flow.

The independent oracle for curved-metric derivatives is sympy: the
Schwarzschild and conformally flat line elements are re-derived symbolically
here and compared against the library's closed-form and autodiff jets.
"""
import ast
import collections
import functools
import math
import operator
import os
import subprocess
import sys
import textwrap
import warnings
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
from diracsym.geometry import (
    _EXPR_FUNCS,
    MetricField,
    PhasePoint,
    _christoffel_from,
    _omega_kernels,
    _omega_ok,
    _partials,
    metric_derivative,
)

from conftest import (SCHW_X0, in_chart, linear_chart, rotating_chart,
                      with_kernel)


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
    ours = _christoffel_from(*schw.jet(SCHW_X0))
    assert np.max(np.abs(ours - oracle)) < 1e-12


def test_conformal_flat_against_sympy():
    m = ds.conformal_flat("1 + 0.05*x1 + 0.02*x2**2")
    x = np.array([0.3, 0.7, -0.4, 0.2])
    xs = sp.symbols("x0 x1 x2 x3", real=True)
    om = 1 + sp.Rational(5, 100) * xs[1] + sp.Rational(2, 100) * xs[2] ** 2
    g_expr = om**2 * sp.diag(-1, 1, 1, 1)
    oracle = _eval_obj_tensor(_sympy_christoffel(g_expr, xs), xs, x)
    ours = _christoffel_from(*m.jet(x))
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

    off = MetricField(dim=4, jet=jet, name="schwarzschild_jet_off")
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
    G = _christoffel_from(*schw.jet(SCHW_X0))
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
    Z = np.linalg.solve(ds.eval_metric(schw, SCHW_X0)[0], xi)
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
    m = linear_chart(L)
    x = np.zeros(4)
    fr = ds.orthonormal_frame(m, x)
    g, _ = ds.eval_metric(m, x)
    eta = np.diag([-1.0, 1.0, 1.0, 1.0])
    assert np.allclose(fr.E.T @ g @ fr.E, eta, atol=1e-12)


def test_frame_degenerate_on_wrong_time_sign():
    # time sign, a spatial sign, and a pivot underflow, on the general
    # (non-diagonal) path
    from diracsym.geometry import _frame_from

    bad = ([1.0, -1.0, 1.0, 1.0], [-1.0, 1.0, -1.0, 1.0],
           [-1.0, 1.0, 1e-14, 1.0])
    for diag in bad:
        g = np.diag(diag)
        g[0, 3] = g[3, 0] = 1e-3
        flipped = MetricField(dim=4, jet=lambda x: (g, np.zeros((4,) * 3)),
                              name="flipped")
        with pytest.raises(FrameDegenerate):
            ds.orthonormal_frame(flipped, np.zeros(4))
    # a stack with one bad point, on the diagonal and the general branch:
    # the error names that point
    for off in (0.0, 1e-3):
        for diag in bad:
            g = np.array([np.diag([-1.0, 1.0, 1.0, 1.0])] * 5)
            g[3] = np.diag(diag)
            g[:, 0, 3] = g[:, 3, 0] = off
            with pytest.raises(FrameDegenerate, match="at stacked point 3"):
                _frame_from(g)
        g = np.array([np.diag([-1.0, 1.0, 1.0, 1.0])] * 5)
        assert _frame_from(g)[0].shape == (5, 4, 4)


def test_diagonality_is_read_off_all_of_g():
    """A metric whose only off-diagonal entry is spatial (g_12 != 0) gets
    the chart-order Cholesky frame, E^T g E = eta, and its q-flow solves
    g Z = xi.  A stack that mixes diagonal and non-diagonal points, with
    a diagonal one first, gets an orthonormal frame at every point."""
    from diracsym.geometry import _frame_from, _phase_core

    diag = np.diag([-1.0, 1.0, 2.0, 1.5])
    g = diag.copy()
    g[1, 2] = g[2, 1] = 0.4
    m = MetricField(dim=4, jet=lambda x: (g.copy(), np.zeros((4,) * 3)))
    eta = np.diag([-1.0, 1.0, 1.0, 1.0])
    E = ds.orthonormal_frame(m, np.zeros(4)).E
    assert np.max(np.abs(E.T @ g @ E - eta)) < 1e-12
    assert E[1, 2] != 0.0 and np.array_equal(E, np.triu(E))
    xi = np.array([1.0, 0.3, -0.7, 0.2])
    assert np.array_equal(_phase_core(m, np.zeros(4), xi)[2],
                          np.linalg.solve(g, xi))
    for stack in (np.array([diag, g]), np.array([diag, diag, g, diag])):
        E = _frame_from(stack)[0]
        residual = E.swapaxes(-1, -2) @ stack @ E - eta
        assert np.max(np.abs(residual)) < 1e-12


def test_degenerate_metric_rejected():
    g = np.diag([-1.0, 1.0, 1.0, 0.0])
    m = MetricField(dim=4, jet=lambda x: (g, np.zeros((4,) * 3)),
                    name="singular")
    with pytest.raises(DegenerateMetric):
        ds.eval_metric(m, np.zeros(4))


def test_nonsymmetric_metric_rejected():
    bad = np.diag([-1.0, 1.0, 1.0, 1.0])
    bad[0, 1] = 0.5
    m = MetricField(dim=4, jet=lambda x: (bad, np.zeros((4,) * 3)),
                    name="skew")
    with pytest.raises(ValueError):
        ds.eval_metric(m, np.zeros(4))


# --------------------------------------------------------------------------
# derivative modes


def _values(m):
    """x -> g(x), the metric values of m's jet."""
    return lambda x: m.jet(x)[0]


def test_autodiff_matches_central_difference():
    x = np.array([0.4, -0.2, 0.9, 0.1])
    for expr in (
            "exp(0.1*t) * (1 + 0.05*y)",
            "1 + 0.1*abs(x - 0.5)",  # abs at a negative argument
            "2 + sqrt(1 + t*t) * log(3 + z) + arctan(x*y)",
            "1 + 0.05*sinh(y)*cosh(z) - 0.02*tanh(t)/(2 + cos(x))**2"
            " + 0.01*tan(x0 - x3) - pi/100"):
        m = ds.conformal_flat(expr)
        assert np.max(np.abs(metric_derivative(m, x)
                             - _partials(_values(m), x, 1e-5))) < 1e-8, expr


# The complex step that differentiated conformal factors before the closed
# form, kept as the reference: Omega by a walk over the expression tree,
# with float64 constants, and d_k Omega = Im Omega(x + i h e_k) / h with
# h = 1e-30, which has no subtractive cancellation; |z| is continued from
# the sign of Re z so that the step differentiates |x|, not the modulus.
_CS_STEP = 1e-30
_CS_FUNCS = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp,
    "log": np.log, "sqrt": np.sqrt, "sinh": np.sinh, "cosh": np.cosh,
    "tanh": np.tanh, "arctan": np.arctan,
    "abs": lambda z: np.where(np.real(z) < 0.0, -z, z),
}
_CS_OPS = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv,
           ast.Pow: operator.pow, ast.UAdd: operator.pos,
           ast.USub: operator.neg}


def _oracle_omega(expr, dim, pt):
    """Omega at pt, whose entry i is coordinate i (real or complex)."""
    names = {f"x{i}": i for i in range(dim)}
    if dim == 4:
        names.update(t=0, x=1, y=2, z=3)

    def ev(node):
        if isinstance(node, ast.Constant):
            return np.float64(node.value)
        if isinstance(node, ast.Name):
            return math.pi if node.id == "pi" else pt[names[node.id]]
        if isinstance(node, ast.BinOp):
            return _CS_OPS[type(node.op)](ev(node.left), ev(node.right))
        if isinstance(node, ast.UnaryOp):
            return _CS_OPS[type(node.op)](ev(node.operand))
        return _CS_FUNCS[node.func.id](ev(node.args[0]))

    return ev(ast.parse(expr, mode="eval").body)


def _oracle_jet(expr, dim, x):
    """(g, dg) of Omega^2 eta by the complex step."""
    eta = np.diag([-1.0] + [1.0] * (dim - 1))
    steps = 1j * _CS_STEP * np.eye(dim)
    two = np.full(dim, 2.0)  # carries the step axis when Omega is constant
    w = _oracle_omega(expr, dim, x)
    dw = np.imag(_oracle_omega(expr, dim, x[:, None] + steps))
    return w * w * eta, (two * w * dw / _CS_STEP)[:, None, None] * eta


# every whitelisted function and operator; a**b with both sides on the
# coordinates, abs on both sides of 0, a constant factor, dimension 2
_ORACLE_CASES = {
    "ray_conformal": ("1 + 0.05*sin(3*t) + 0.05*cos(2*x)*cos(2*y)", 4),
    "exp_div_pow": ("exp(0.1*t) * (1 + 0.05*y) - 0.1*z/(3 + x)"
                    " + 0.1*2**(0.1*t)", 4),
    "sqrt_log_arctan": ("2 + sqrt(1 + t*t) * log(3 + z) + arctan(x*y)", 4),
    "hyperbolic_tan_pi": ("1 + 0.05*sinh(y)*cosh(z) - 0.02*tanh(t)/"
                          "(2 + cos(x))**2 + 0.01*tan(x0 - x3) - pi/100", 4),
    "power_unary": ("(2 + 0.1*sin(x))**(1 + 0.1*cos(t)) + -(-0.1*y) + +0.1",
                    4),
    "abs": ("1 + 0.1*abs(x - 0.5) - 0.1*abs(t)*y/(3 - z)", 4),
    "constant": ("1.5", 4),
    "dim2": ("1 + 0.2*sin(x1) + 0.1*cos(2*x0) + 0.05*x0*x1", 2),
}


@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_conformal_jet_matches_complex_step(case):
    """g is the complex-step path's bit for bit; dg is within
    2e-15 max|dg| of the complex step (measured: at most 7.9e-16), at 300
    points of the sample box and where an abs argument is +-0."""
    expr, dim = _ORACLE_CASES[case]
    m = ds.conformal_flat(expr, dim=dim)
    rng = np.random.default_rng(11)
    xs = [ds.random_chart_point(m, rng) for _ in range(300)]
    if dim == 4:
        xs += [np.array([t, 0.5, 0.3, -0.2]) for t in (0.0, -0.0)]
    for x in xs:
        g, dg = m.jet(x)
        want_g, want_dg = _oracle_jet(expr, dim, x)
        assert np.array_equal(g, want_g)
        assert np.max(np.abs(dg - want_dg)) <= 2e-15 * np.max(np.abs(dg)), x


def test_conformal_kernels_see_only_their_bindings():
    """The compiled values run without builtins and name nothing but the
    whitelisted functions, the division and power helpers and the
    expression's float constants."""
    expr = ("abs(sin(t)) + cos(x) + tan(y) + exp(z) + log(2 + t) + sqrt(2)"
            " + sinh(x) + cosh(y) + tanh(z) + arctan(t) - pi/x**2")
    allowed = {"_div", "_pow"} | {f"_{f}" for f in _EXPR_FUNCS}
    fn = _omega_kernels(expr, 4)
    env = fn.__globals__
    assert env["__builtins__"] == {}
    for name in fn.__code__.co_names:
        assert name in allowed or type(env[name]) is float, name
    with pytest.raises(ConfigError):
        ds.conformal_flat("_p")


# A float64-scalar evaluation of an expression with forward partials, the
# numpy semantics the compiled float kernels must keep bit for bit: every
# number is an np.float64, every / and ** numpy's scalar operator.
# Functions: name -> (f, f'(a, v)); operators: (f, d/da, d/db) of (a, b, v).
_F64_FUNCS = {
    "sin": (np.sin, lambda a, v: np.cos(a)),
    "cos": (np.cos, lambda a, v: -np.sin(a)),
    "tan": (np.tan, lambda a, v: 1.0 + v * v),
    "exp": (np.exp, lambda a, v: v),
    "log": (np.log, lambda a, v: 1.0 / a),
    "sqrt": (np.sqrt, lambda a, v: 0.5 / v),
    "sinh": (np.sinh, lambda a, v: np.cosh(a)),
    "cosh": (np.cosh, lambda a, v: np.sinh(a)),
    "tanh": (np.tanh, lambda a, v: 1.0 - v * v),
    "arctan": (np.arctan, lambda a, v: 1.0 / (1.0 + a * a)),
    "abs": (lambda a: -a if a < 0.0 else a,
            lambda a, v: -1.0 if a < 0.0 else 1.0),
}
_F64_OPS = {
    ast.Add: (operator.add, lambda a, b, v: 1.0, lambda a, b, v: 1.0),
    ast.Sub: (operator.sub, lambda a, b, v: 1.0, lambda a, b, v: -1.0),
    ast.Mult: (operator.mul, lambda a, b, v: b, lambda a, b, v: a),
    ast.Div: (operator.truediv, lambda a, b, v: 1.0 / b,
              lambda a, b, v: -v / b),
    ast.Pow: (operator.pow, lambda a, b, v: b * a ** (b - 1.0),
              lambda a, b, v: v * np.log(a)),
}


def _f64_jet(expr, x):
    """(Omega, [d_k Omega]) at the 4-point x in float64 scalars: each node's
    partials, over the coordinates its subtree depends on, are the sum in
    operand order of (partial in the operand) * (operand's partial)."""
    names = dict(t=0, x=1, y=2, z=3, x0=0, x1=1, x2=2, x3=3)

    def chain(parts, operands):
        out = {}
        for p, (_, d) in zip(parts, operands):
            for k, dk in d.items():
                out[k] = p * dk if k not in out else out[k] + p * dk
        return out

    def ev(node):
        if isinstance(node, ast.Constant):
            return np.float64(node.value), {}
        if isinstance(node, ast.Name) and node.id == "pi":
            return np.float64(math.pi), {}
        if isinstance(node, ast.Name):
            return np.float64(x[names[node.id]]), {names[node.id]: 1.0}
        if isinstance(node, ast.UnaryOp):
            a, d = ev(node.operand)
            if isinstance(node.op, ast.UAdd):
                return a, d
            return -a, chain([-1.0], [(a, d)])
        if isinstance(node, ast.BinOp):
            ops = ev(node.left), ev(node.right)
            f, da, db = _F64_OPS[type(node.op)]
            (a, _), (b, _) = ops
            v = f(a, b)
            return v, chain([da(a, b, v), db(a, b, v)], ops)
        f, df = _F64_FUNCS[node.func.id]
        a, d = ev(node.args[0])
        v = f(a)
        return v, chain([df(a, v)], [(a, d)])

    w, dw = ev(ast.parse(expr, mode="eval").body)
    return w, np.array([dw.get(k, 0.0) for k in range(4)])


_SPECIAL = (0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1e200, 1000.0, -1000.0,
            math.inf, -math.inf, math.nan)


def test_conformal_kernels_keep_float64_scalar_semantics():
    """Omega, d Omega and the metric jet equal a float64-scalar
    evaluation, NaN for NaN, for every whitelisted function and operator at
    every pair of special values (x/+-0, 0/0, 0**-1, (-1)**0.5, 1e200**2,
    exp(1000), log(-1), sqrt(-1), abs at +-0, infinities, NaN) and at
    random points; no kernel raises, none turns complex.  The jet is
    (Omega^2 eta, 2 Omega dOmega eta) where ``_omega_ok`` holds and raises
    OutsideChart elsewhere; the compiled values read the point's floats."""
    exprs = [f"{f}(t)" for f in _EXPR_FUNCS] + [
        "t + x", "t - x", "t * x", "t / x", "t ** x", "-t", "+t",
        "2 ** t", "t ** 2", "1 / t", "pi * t", "sin(t * x) / (1 + x ** 2)",
        "abs(t) ** x - log(x) * sqrt(t)"]
    rng = np.random.default_rng(19)
    pts = [np.array([t, x, 0.5, 0.25]) for t in _SPECIAL for x in _SPECIAL]
    pts += [np.array([*rng.uniform(0.0, 5.0, 1), *rng.uniform(-3, 3, 3)])
            for _ in range(100)]
    eta = np.diag([-1.0, 1.0, 1.0, 1.0])
    with np.errstate(all="ignore"):
        for expr in exprs:
            values = _omega_kernels(expr, 4)
            m = ds.conformal_flat(expr)
            for p in pts:
                w, dw = _f64_jet(expr, p)
                got_w, got_dw = values(p.tolist())
                assert all(type(v) is float for v in (got_w, *got_dw))
                assert np.array_equal(got_w, w, equal_nan=True), (expr, p)
                assert np.array_equal(got_dw, dw, equal_nan=True), (expr, p)
                if not _omega_ok(w, dw):
                    with pytest.raises(OutsideChart):
                        m.jet(p)
                    continue
                g, dg = m.jet(p)
                assert np.array_equal(g, w * w * eta), (expr, p)
                assert np.array_equal(
                    dg, np.multiply.outer(2.0 * w * dw, eta),
                    equal_nan=True), (expr, p)


def test_conformal_kernel_is_compiled_once_per_expression_and_dim():
    expr = "1 + 0.01*x0*x1"
    misses = _omega_kernels.cache_info().misses
    a = ds.conformal_flat(expr)
    b = ds.catalog_metric("conformal_flat{" + expr + "}")
    assert _omega_kernels.cache_info().misses == misses + 1
    assert np.array_equal(a.jet([0.1, 0.2, 0.3, 0.4])[1],
                          b.jet([0.1, 0.2, 0.3, 0.4])[1])
    assert _omega_kernels(expr, 4) is _omega_kernels(expr, 4)
    assert _omega_kernels(expr, 2) is not _omega_kernels(expr, 4)


@pytest.mark.parametrize("expr,x", [
    ("1 + t/x", [0.5, 0, 0, 0]),            # a division by zero
    ("2 + x**y", [0.0, -1.0, 0.5, 0.0]),    # a negative fractional power
])
def test_conformal_metric_reads_any_point_as_float64(expr, x):
    """A list gives what an array gives: numpy's inf and NaN, which the
    guard rejects, not Python's ZeroDivisionError or complex power."""
    m = ds.conformal_flat(expr)
    for pt in (x, np.array(x, dtype=float)):
        with pytest.raises(OutsideChart), np.errstate(all="ignore"):
            ds.eval_metric(m, pt)
    ok = [0.5, 1.0, 0.5, 0.25]
    for got, want in zip(m.jet(ok), m.jet(np.array(ok))):
        assert np.array_equal(got, want)


_JET_CATALOG = {
    "minkowski2": lambda: ds.minkowski(2),
    "minkowski4": lambda: ds.minkowski(4),
    "minkowski_linear": lambda: linear_chart(
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
def test_catalog_jet_matches_central_differences(name):
    """A catalog jet's dg matches Richardson extrapolated central
    differences of its g, whose O(h^4) error stays below 1e-8 (the
    autodiff test's bound) on conformal factors and 1e-6 on the other
    metrics across the whole sample box."""
    m = _JET_CATALOG[name]()
    bound = 1e-8 if name.startswith("conformal") else 1e-6
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = ds.random_chart_point(m, rng)
        g, dg = m.jet(x)
        assert g.shape == (m.dim,) * 2 and dg.shape == (m.dim,) * 3
        d1, d2 = (_partials(_values(m), x, h) for h in (1e-4, 5e-5))
        assert np.max(np.abs((4.0 * d2 - d1) / 3.0 - dg)) < bound, x


@pytest.mark.parametrize("name", ["schwarzschild1.0", "conformal_flat"])
def test_rk4_flow_takes_one_jet_per_stage(name):
    """One read of the metric per stage: its phase kernel, and no jet."""
    import dataclasses

    from diracsym.geometry import _flow

    m = _JET_CATALOG[name]()
    jets = []
    counted = with_kernel(
        dataclasses.replace(m, jet=lambda x: jets.append("jet") or m.jet(x)),
        lambda x, xi: jets.append("phase") or m._phase(x, xi))
    x0 = SCHW_X0 if name.startswith("schwarzschild") \
        else np.array([0.1, -0.3, 0.5, 0.2])
    xi0 = ds.random_null_covector(m, x0, np.random.default_rng(2))
    traj = _flow(counted, PhasePoint(x0, xi0), 0.1, "rk4_fixed", 1e-2, 1e-10)
    assert traj.n - 1 == 10 and not traj.left_chart
    assert jets == ["phase"] * (1 + 4 * 10)


def _counting(calls, key, f):
    def counted(*args):
        calls[key] += 1
        return f(*args)
    return counted


@pytest.fixture
def counted(monkeypatch):
    """Counts of metric work in catalog metrics built inside the test:
    "stage" (``_phase_core`` calls) and "jet" (the values of a conformal
    factor or of a Schwarzschild chart, which its jet and its phase kernel
    read).  A test may count its own jet under "user_jet" and a phase
    kernel's calls under "stage"."""
    from diracsym import geometry

    calls = collections.Counter()
    kernels = geometry._omega_kernels
    monkeypatch.setattr(geometry, "_omega_kernels",
                        lambda e, d: _counting(calls, "jet", kernels(e, d)))
    monkeypatch.setattr(geometry, "_radial_values",
                        _counting(calls, "jet", geometry._radial_values))
    monkeypatch.setattr(geometry, "_phase_core",
                        _counting(calls, "stage", geometry._phase_core))
    return calls


@pytest.mark.parametrize("name,integrator", [
    ("conformal_flat", "rk45_adaptive"), ("schwarzschild1.0", "rk4_fixed")])
def test_flow_evaluates_a_catalog_metric_once_per_stage(name, integrator,
                                                        counted):
    """One read of the metric per stage evaluation, by its phase kernel,
    which tests its own chart.  The seed check reads the metric once, as
    one jet."""
    from diracsym.geometry import _check_seed

    m = _JET_CATALOG[name]()
    m = with_kernel(m, _counting(counted, "stage", m._phase))
    x0 = SCHW_X0 if name.startswith("schwarzschild") \
        else np.array([0.1, -0.3, 0.5, 0.2])
    p0 = PhasePoint(x0, ds.random_null_covector(m, x0,
                                                np.random.default_rng(2)))
    counted.clear()
    _check_seed(m, p0, 0.5, 1e-10, True)
    seed = counted.copy()
    assert seed == {"jet": 1}
    counted.clear()
    traj = ds.integrate_bicharacteristic(m, p0, 0.5, integrator=integrator,
                                         step=1e-2, tol=1e-12)
    assert traj.n > 10 and not traj.left_chart
    flow = counted - seed
    assert flow["stage"] == flow["jet"] >= 1 + 4 * (traj.n - 1)


def test_each_chart_read_runs_the_metric_once(counted):
    """The seed check and eval_metric each run the conformal jet kernel
    once.  Certifying 50 points runs one jet per point and one per
    neighbour."""
    from diracsym.geometry import _check_seed
    from diracsym.symbols import certify_principal_types

    m = _JET_CATALOG["conformal_flat"]()
    x0 = np.array([0.1, -0.3, 0.5, 0.2])
    p0 = PhasePoint(x0, ds.random_null_covector(m, x0,
                                                np.random.default_rng(2)))
    for read in (lambda: _check_seed(m, p0, 0.5, 1e-10, True),
                 lambda: ds.eval_metric(m, x0)):
        counted.clear()
        read()
        assert counted == {"jet": 1}
    for name in ("conformal_flat", "schwarzschild1.0"):
        m = _JET_CATALOG[name]()
        rep = ds.build_canonical_module(m)
        rng = np.random.default_rng(3)
        points = []
        for _ in range(50):
            x = ds.random_chart_point(m, rng)
            points.append(PhasePoint(x, ds.random_null_covector(m, x, rng)))
        counted.clear()
        certs = list(certify_principal_types(rep, points))
        assert all(c.passed for c in certs)
        assert counted == {"jet": 50 + 400}, name


_INWARD = np.array([1.0, -1.25, 0.0, 0.0])


def _leaving_ray(case):
    """(metric, seed, t_end, integrator) of a ray that leaves its chart."""
    integrator = "rk45_adaptive" if case.endswith("dopri") else "rk4_fixed"
    if case == "conformal_to_zero":   # Omega = exp(-t) -> 0 along the ray
        return (ds.conformal_flat("exp(-t)"),
                PhasePoint(np.zeros(4), np.array([-1.0, 1.0, 0.0, 0.0])),
                20.0, integrator)
    m, x0, aim = {
        "rotating_chart": (rotating_chart(), np.array([0.0, 0.4, -0.3, 0.2]),
                           np.array([1.0, 1.0, 0.0, 0.0])),
        "isotropic_inward": (
            ds.catalog_metric("schwarzschild_isotropic1.0"),
            np.array([0.0, 5.0, 1.2, 0.3]), _INWARD),
        "schwarzschild_pole": (ds.catalog_metric("schwarzschild1.0"),
                               np.array([0.0, 10.0, 0.3, 0.3]),
                               np.array([1.0, 0.0, -1.0, 0.0])),
    }.get(case, (ds.catalog_metric("schwarzschild1.0"), SCHW_X0, _INWARD))
    xi = ds.null_project_covector(m, x0, aim)
    return m, PhasePoint(x0, xi), 50.0, integrator


# where each ray leaves its chart: (samples, last time)
_TRIPS = {
    "schwarzschild_inward": (400, 3.99),
    "schwarzschild_inward_dopri": (206, 3.998976835942659),
    "schwarzschild_pole": (1533, 15.32),
    "isotropic_inward": (240, 2.39),
    "conformal_to_zero": (26, 0.25),
    "rotating_chart": (138, 1.37),
}


@pytest.mark.parametrize("case", sorted(_TRIPS))
def test_flow_stops_where_the_chart_ends(case):
    """A ray that leaves the chart of a jet that tests its own chart stops
    at the sample where it stopped when a guard ran before every jet: r at
    the horizon, sin(theta) at the pole, Omega at 0, g_00 near 0 on the
    rotating chart."""
    m, p0, t_end, integrator = _leaving_ray(case)
    with np.errstate(all="ignore"):
        traj = ds.integrate_bicharacteristic(
            m, p0, t_end, integrator=integrator, step=1e-2, tol=1e-10)
    n, t_last = _TRIPS[case]
    assert traj.left_chart and traj.n == n
    assert traj.ts[-1] == pytest.approx(t_last, rel=1e-12)


def _user_schwarzschild(M):
    """A user's Schwarzschild metric: the catalog's closed form, whose jet
    tests the catalog's chart itself."""
    from diracsym import geometry

    r_min = 2.0 * M * (1.0 + geometry._HORIZON_MARGIN)

    def jet(x):
        r, th = float(x[1]), float(x[2])
        s, c = math.sin(th), math.cos(th)
        if not geometry._radial_ok(r, s, r_min):
            raise OutsideChart(f"point {x} outside the user's chart")
        f = 1.0 - 2.0 * M / r
        fp = 2.0 * M / (r * r)
        return geometry._radial_jet(
            (-f, 1.0 / f, r * r, r * r * s * s),
            (-fp, -fp / (f * f), 2.0 * r, 2.0 * r * s * s),
            2.0 * r * r * s * c)

    return MetricField(dim=4, jet=jet)


@pytest.mark.parametrize("case", ["schwarzschild_inward", "rotating_chart"])
def test_flow_guards_a_user_jet_once_per_stage(case, counted):
    """A user's jet that tests its own chart (the Schwarzschild closed
    form, or the rotating chart's) runs once per stage, and the ray stops
    where that chart ends."""
    import dataclasses

    from diracsym.geometry import _flow

    m, p0, t_end, integrator = _leaving_ray(case)
    if case != "rotating_chart":
        m = _user_schwarzschild(1.0)
    m = dataclasses.replace(m, jet=_counting(counted, "user_jet", m.jet))
    counted.clear()
    traj = _flow(m, p0, t_end, integrator, 1e-2, 1e-10)
    assert traj.left_chart and traj.n == _TRIPS[case][0]
    assert counted["user_jet"] == counted["stage"] > 4 * (traj.n - 1)


# every catalog metric with a phase kernel: Minkowski, both Schwarzschild
# charts at two masses and the dimension-4 conformal factors of the oracle
# cases
_KERNEL_METRICS = {
    "minkowski2": lambda: ds.minkowski(2),
    "minkowski4": lambda: ds.minkowski(4),
    "schwarzschild1.0": lambda: ds.catalog_metric("schwarzschild1.0"),
    "schwarzschild0.01": lambda: ds.catalog_metric("schwarzschild0.01"),
    "schwarzschild_isotropic1.0":
        lambda: ds.catalog_metric("schwarzschild_isotropic1.0"),
    "schwarzschild_isotropic3": lambda: ds.schwarzschild_isotropic(3.0),
    **{f"conformal_{case}": functools.partial(ds.conformal_flat, expr)
       for case, (expr, dim) in _ORACLE_CASES.items() if dim == 4},
}


@pytest.mark.parametrize("name", sorted(_KERNEL_METRICS))
def test_phase_kernel_matches_phase_core(name):
    """A catalog phase kernel gives ``_phase_core``'s values at 200 random
    chart points and covectors, some with zero entries: Z, g, dg and dx
    exactly, and dxi_k within 2 ulp of sum_a |v_ka|, v_ka = d_k g_aa Z^a
    Z^a, since the kernel sums the v in a fixed order and a BLAS may sum
    them in another.  Its stacked record is (xi, g, dg, Z)."""
    from diracsym.geometry import _phase_core, _stack_diagonal

    m = _KERNEL_METRICS[name]()
    assert m._phase is not None
    d = m.dim
    rng = np.random.default_rng(29)
    for i in range(200):
        x = ds.random_chart_point(m, rng)
        xi = rng.normal(size=d)
        xi[rng.random(d) < 0.1 * (i % 3)] = 0.0
        rate, record = m._phase(x.tolist(), xi.tolist())
        g, dg, Z, dx, dxi = _phase_core(m, x, xi)
        assert all(type(v) is float for v in (*rate, *record))
        for got, want in zip(_stack_diagonal([record], d), (xi, g, dg, Z)):
            assert np.array_equal(got[0], want), (x, xi)
        assert np.array_equal(rate[:d], dx)
        v = np.einsum("kaa,a,a->ka", dg, Z, Z)
        ulp = np.spacing(np.sum(np.abs(v), axis=1))
        assert np.all(np.abs(np.array(rate[d:]) - dxi) <= 2.0 * ulp), (x, xi)


def test_phase_kernel_tests_its_chart():
    """A phase kernel refuses a point past the chart as its jet does."""
    m = ds.catalog_metric("conformal_flat{1 + 0.1*sqrt(x)}")
    for x in ([0.0, 0.0, 0.3, 0.1], [0.0, -0.5, 0.3, 0.1]):
        with np.errstate(all="ignore"):
            with pytest.raises(OutsideChart):
                m.jet(np.array(x))
            with pytest.raises(OutsideChart):
                m._phase(x, [1.0, 1.0, 0.0, 0.0])
    schw = ds.catalog_metric("schwarzschild1.0")
    with pytest.raises(OutsideChart):
        schw._phase([0.0, 1.5, 1.2, 0.3], [1.0, 1.0, 0.0, 0.0])


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

    m = MetricField(dim=4, name="jump",
                    jet=lambda x: (bumpy(x), _partials(bumpy, x, 1e-5)))
    # xi_0 = -1 so the coordinate time runs forward into the jump
    p = PhasePoint(np.zeros(4), np.array([-1.0, 1.0, 0.0, 0.0]))
    with pytest.raises(StepUnderflow):
        ds.integrate_bicharacteristic(m, p, 2.0, integrator="rk45_adaptive",
                                      tol=1e-12)


def test_adaptive_nan_error_norm_underflows():
    # the metric turns NaN at x0 = 0.1, t = 0.05 on this ray, and it tests
    # no chart; a NaN error norm used to grow the step back and loop
    # forever, so the run is a subprocess with a timeout
    code = textwrap.dedent("""
        import numpy as np
        import diracsym as ds

        def ev(x):
            return np.diag([-1.0 if x[0] < 0.1 else np.nan, 1.0, 1.0, 1.0])

        m = ds.MetricField(dim=4, jet=lambda x: (ev(x), np.zeros((4, 4, 4))),
                           name="nan_past")
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


def test_adaptive_run_is_capped_at_max_steps(monkeypatch):
    # the per-unit budget alone let t_end = 1e6 take some 4e7 steps, each
    # keeping a sample; the cap on RK4 grids bounds Dormand-Prince attempts
    # too.  With it at 10, a conformal ray that takes 336 steps to t = 8
    # stops after 10 attempts
    from diracsym import geometry
    monkeypatch.setattr(geometry, "_MAX_STEPS", 10)
    m = ds.catalog_metric(
        "conformal_flat{1 + 0.05*sin(3*t) + 0.05*cos(2*x)*cos(2*y)}")
    x = np.array([0.1, 0.2, -0.3, 0.4])
    p = ds.PhasePoint(x, ds.random_null_covector(m, x,
                                                 np.random.default_rng(4)))
    with pytest.raises(StepUnderflow, match="^10 step attempts "):
        ds.integrate_bicharacteristic(m, p, 8.0, integrator="rk45_adaptive",
                                      tol=1e-12)
    monkeypatch.setattr(geometry, "_MAX_STEPS", 1000)
    tr = ds.integrate_bicharacteristic(m, p, 8.0, integrator="rk45_adaptive",
                                       tol=1e-12)
    assert 10 < tr.n - 1 < 1000 and tr.ts[-1] == pytest.approx(8.0)


def _special_floats(rng, size, odds):
    """Floats of every kind the steppers meet or must survive, drawn with
    the odds of: ordinary values over ten decades, +-0.0, subnormals,
    magnitudes near 1e+-300, +-inf and NaN."""
    pick = rng.choice(6, size=size, p=odds)
    sign = rng.choice([-1.0, 1.0], size=size)
    return np.select(
        [pick == 0, pick == 1, pick == 2, pick == 3, pick == 4],
        [sign * 10.0 ** rng.uniform(-5.0, 5.0, size), sign * 0.0,
         sign * rng.uniform(1.0, 2.0 ** 40, size) * 5e-324,
         sign * 10.0 ** rng.choice([-300.0, -299.0, 299.0, 300.0], size)
         * rng.uniform(0.5, 1.0, size), sign * np.inf], np.nan)


def _drawn_step(rng, n, stages):
    """(y, ks, h): a state, ``stages`` rates and a positive step, some of
    them extreme; one draw in four may hold inf and NaN."""
    odds = [0.62, 0.1, 0.08, 0.2, 0.0, 0.0] if rng.random() < 0.75 else \
        [0.6, 0.1, 0.08, 0.14, 0.04, 0.04]
    y, ks = _special_floats(rng, n, odds), \
        _special_floats(rng, (stages, n), odds)
    h = 10.0 ** rng.uniform(-6.0, 0.0) if rng.random() < 0.8 else \
        float(rng.choice([5e-324, 1e-300, 1e300]))
    return y, ks, h


def _run_stepper(step, y, ks, h, *tol):
    """One call of a generated stepper whose phase hands out the drawn
    rates in turn; returns (the points it was called at, its result)."""
    points, rates = [], iter(ks[1:].tolist())

    def phase(x, xi):
        points.append(np.array(x + xi))
        return next(rates), None
    return points, step(y.tolist(), ks[0].tolist(), h, *tol, phase,
                        lambda record: None)


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("integrator", ["rk4_fixed", "rk45_adaptive"])
def test_generated_steppers_match_combine_bit_for_bit(integrator, n):
    """Every stage point, y_new and the embedded solution of a generated
    stepper are ``_combine``'s on arrays, bits and all, and the
    Dormand-Prince error sum is the numpy formula's, on 1,000 draws with
    signed zeros, subnormals, 1e+-300, inf and NaN; a NaN gives a NaN."""
    from diracsym import geometry
    rows = geometry._RK4_A if integrator == "rk4_fixed" else geometry._DP_A
    b4 = None if integrator == "rk4_fixed" else geometry._DP_B4
    step = geometry._stepper(rows, n, b4)
    # the embedded weights as the last row of a tableau: its solution is
    # the embedded one, built by the same code
    embedded = geometry._stepper(rows + (b4,), n) if b4 else None
    rng = np.random.default_rng(11 + n)
    nan_sums = 0
    for _ in range(1000):
        y, ks, h = _drawn_step(rng, n, len(rows) + 1)
        tol = 10.0 ** rng.uniform(-14.0, -2.0)
        points, out = _run_stepper(step, y, ks, h, *([tol] if b4 else []))
        assert len(points) == len(rows)
        with np.errstate(all="ignore"):
            for s, row in enumerate(rows, 1):
                want = geometry._combine(y, h, row, list(ks[:s]))
                assert points[s - 1].tobytes() == want.tobytes(), (s, y, ks)
            assert np.array(out[0]).tobytes() == want.tobytes()
            assert np.array(out[1]).tobytes() == ks[-1].tobytes()
            if b4 is None:
                continue
            y4 = geometry._combine(y, h, b4, list(ks))
            _, (y4_generated, _) = _run_stepper(
                embedded, y, np.vstack((ks, ks[-1:])), h)
            assert np.array(y4_generated).tobytes() == y4.tobytes()
            yn = np.array(out[0])
            sc = tol + tol * np.maximum(np.abs(y), np.abs(yn))
            old = float(np.sum(((yn - y4) / sc) ** 2))
        if math.isnan(old):
            nan_sums += 1
            assert math.isnan(out[2])
        else:
            assert np.float64(out[2]).tobytes() == np.float64(old).tobytes()
    if b4:
        assert 100 < nan_sums < 900


def test_each_stepper_is_built_once(monkeypatch):
    """50 flows of each integrator in dimensions 2 and 4 build one stepper
    per (tableau, state length); a patched copy of the embedded weights
    gets its own.  A build per flow would cost a ray some 30%."""
    from diracsym import geometry
    built = []

    def counting(source, filename, mode):
        built.append(filename)
        return compile(source, filename, mode)
    geometry._stepper.cache_clear()
    monkeypatch.setattr(geometry, "compile", counting, raising=False)
    for m in ds.minkowski(2), ds.minkowski(4):
        p = PhasePoint(np.zeros(m.dim), np.array([-1.0, 1.0] + [0.0] *
                                                 (m.dim - 2)))
        for _ in range(50):
            for integrator in "rk4_fixed", "rk45_adaptive":
                ds.integrate_bicharacteristic(m, p, 0.05, step=1e-2,
                                              integrator=integrator)
    assert built == ["<stepper>"] * 4
    assert geometry._stepper.cache_info().currsize == 4
    monkeypatch.setattr(geometry, "_DP_B4",
                        (5179.0 / 57000.0,) + geometry._DP_B4[1:])
    ds.integrate_bicharacteristic(ds.minkowski(4), p, 1e-3, tol=1e-3,
                                  integrator="rk45_adaptive")
    assert built == ["<stepper>"] * 5


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


@pytest.mark.parametrize("integrator,t_end", [
    ("rk4_fixed", 1e-13), ("rk4_fixed", 1e-12), ("rk45_adaptive", 1e-14),
    ("rk45_adaptive", 1e-13)])
def test_a_run_without_a_step_is_refused(integrator, t_end, counted):
    """RK4 at h = 1e-3 has no step for t_end <= 1e-12, Dormand-Prince none
    for t_end <= 1e-13: a ConfigError naming t_end, before the seed's first
    rate.  The longer runs still take a step."""
    m = ds.schwarzschild(1.0)
    p = PhasePoint(SCHW_X0, ds.random_null_covector(
        m, SCHW_X0, np.random.default_rng(2)))
    counted.clear()
    with pytest.raises(ConfigError, match=f"t_end {t_end} "):
        ds.integrate_bicharacteristic(m, p, t_end, integrator=integrator)
    assert counted["stage"] == 0
    traj = ds.integrate_bicharacteristic(m, p, 100.0 * t_end,
                                         integrator=integrator)
    assert traj.n == 2


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
        Z = np.linalg.solve(ds.eval_metric(schw, x)[0], xi)
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
    assert in_chart(schw, a)


def test_random_chart_point_redraws_past_the_chart(schw):
    """A draw past the chart is redrawn, with no numpy warning: Omega = 1
    + 0.1 sqrt(x) is NaN on the half x < 0 of its box, and every point
    returned lies in the chart.  A draw in the chart is the plain box draw,
    so catalog streams keep their points; a box that misses its chart
    (Omega = 1 + sqrt(-x^2) is finite at x = 0 alone, where dOmega is not)
    is a ConfigError naming the metric after 16 draws."""
    m = ds.catalog_metric("conformal_flat{1 + 0.1*sqrt(x)}")
    rng = np.random.default_rng(0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        xs = np.array([ds.random_chart_point(m, rng) for _ in range(50)])
    assert np.all(xs[:, 1] > 0.0)
    assert all(in_chart(m, x) for x in xs)
    box, rng = schw.sample_box, np.random.default_rng(3)
    assert np.array_equal(
        ds.random_chart_point(schw, np.random.default_rng(3)),
        box[:, 0] + (box[:, 1] - box[:, 0]) * rng.random(4))
    bad = ds.catalog_metric("conformal_flat{1 + sqrt(-x*x)}")
    with np.errstate(all="ignore"):
        assert not in_chart(bad, np.zeros(4))
    with pytest.raises(ConfigError, match=r"sqrt\(-x\*x\)\}: 16 draws"), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ds.random_chart_point(bad, np.random.default_rng(0))


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
    pytest.param("1" + "0" * 400, id="beyond_float"),
])
def test_conformal_expression_rejects_anything_but_arithmetic(expr):
    with pytest.raises(ConfigError):
        ds.conformal_flat(expr)


def test_conformal_guard_rejects_vanishing_factor():
    m = ds.conformal_flat("t")  # vanishes at t = 0
    with pytest.raises(OutsideChart):
        ds.eval_metric(m, np.zeros(4))
