"""Lorentzian chart geometry at the coordinate level.

Everything works on a single chart: a metric field is its jet, a callable
returning the matrix ``g_ij(x)`` in signature (-, +, ..., +) and its partials
dg (a closed form for every catalog metric, for ``conformal_flat`` by
forward-mode differentiation of its expression), which raises OutsideChart
past the chart.  Every read of the metric is one read of that jet, or of
the float phase kernel that a catalog metric computes from the same values;
whether g is diagonal is read off its values.  On top of that sit
Christoffel symbols, the scalar Hamiltonian ``q(x, xi) = g^{ij} xi_i xi_j``,
its flow field, null bicharacteristic integration in Python floats, by
straight-line steppers compiled once per Runge-Kutta tableau and state
length, and orthonormal frames from the factorization ``g = R^T eta R``
with ``R`` upper triangular, which is Gram-Schmidt in chart order, with
their Levi-Civita frame connection.
"""
from __future__ import annotations

import ast
import functools
import math
import re
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (
    ConfigError,
    DegenerateMetric,
    FrameDegenerate,
    NotOnCharacteristicSet,
    OutsideChart,
    StepUnderflow,
    UnsupportedDimension,
    ZeroCovector,
)

__all__ = [
    "MetricField",
    "PhasePoint",
    "FrameSample",
    "Trajectory",
    "minkowski",
    "schwarzschild",
    "schwarzschild_isotropic",
    "conformal_flat",
    "catalog_metric",
    "eval_metric",
    "metric_derivative",
    "hamiltonian_q",
    "hamiltonian_field",
    "orthonormal_frame",
    "integrate_bicharacteristic",
    "random_chart_point",
    "random_null_covector",
    "null_project_covector",
]

_DET_TOL = 1e-14
_PIVOT_TOL = 1e-12
_NOT_TIME_FIRST = "chart order does not yield a time-first orthonormal frame"


# ---------------------------------------------------------------------------
# containers


@dataclass
class MetricField:
    """A chart-level Lorentzian metric, given by its jet alone.

    ``jet(x) -> (g, dg)`` maps a coordinate point to float arrays with the
    matrix g_ij and dg[k, i, j] = d_k g_ij (the catalog supplies closed
    forms).  Past the chart it raises OutsideChart itself: a catalog
    metric tests its chart on the values it computes.  Every read of the
    metric outside the flow is one jet; whether g is diagonal is read off
    its values (``_is_diagonal``).

    ``_phase``, set by the catalog alone and reset by ``dataclasses.replace``
    so that it never outlives its jet, is the float kernel of a diagonal
    jet: ``_phase(x, xi) -> (rate, record)`` for float lists x and xi, with
    rate the list (dx, dxi) of ``_phase_core`` at (x, xi) and record the flat
    tuple (xi, diag g, dg[k, a, a] for k then a, Z); past the chart it
    raises OutsideChart.  A metric without one flows through ``_phase_core``.
    """

    dim: int
    jet: Callable
    name: str = "custom"
    sample_box: Optional[np.ndarray] = None
    _phase: Optional[Callable] = field(default=None, init=False, repr=False,
                                       compare=False)

    def __post_init__(self):
        if self.dim < 2:
            raise UnsupportedDimension(f"dim {self.dim} < 2")
        if self.sample_box is not None:
            self.sample_box = np.asarray(self.sample_box, dtype=float)


@dataclass
class PhasePoint:
    """A cotangent point (x, xi).  The covector must be nonzero."""

    x: np.ndarray
    xi: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.xi = np.asarray(self.xi, dtype=float)
        if self.x.shape != self.xi.shape or self.x.ndim != 1:
            raise ConfigError("x and xi must be vectors of equal length")
        if not np.any(self.xi):
            raise ZeroCovector("phase point has vanishing covector")


@dataclass
class FrameSample:
    """Orthonormal frame at one point: columns of E are the frame vectors,
    rows of E_inv the dual coframe."""

    E: np.ndarray
    E_inv: np.ndarray


@dataclass
class Trajectory:
    """Bicharacteristic samples.  ``left_chart`` marks a partial run that
    stopped where it left the chart."""

    ts: np.ndarray
    xs: np.ndarray
    xis: np.ndarray
    qs: np.ndarray
    integrator: str
    step: Optional[float]
    left_chart: bool = False

    @property
    def n(self) -> int:
        return len(self.ts)


# ---------------------------------------------------------------------------
# metric evaluation


def _outside(x, name: str) -> OutsideChart:
    return OutsideChart(f"point {np.asarray(x)} outside chart of {name}")


def _chart_value(m: MetricField, x) -> Optional[np.ndarray]:
    """g at x, or None past the chart (see ``MetricField``)."""
    try:
        return _metric_jet(m, x)[0]
    except OutsideChart:
        return None


def _partials(f, x, step: float) -> np.ndarray:
    """Central differences (f(x + h e_k) - f(x - h e_k)) / 2h with
    h = step * (1 + |x_k|), stacked over k."""
    out = []
    for k in range(len(x)):
        h = step * (1.0 + abs(x[k]))
        xp, xm = x.copy(), x.copy()
        xp[k] += h
        xm[k] -= h
        out.append((f(xp) - f(xm)) / (2.0 * h))
    return np.array(out)


def _metric_jet(m: MetricField, x):
    """(g, dg) with dg[k, i, j] = d_k g_ij at x: every read of the metric
    outside the flow goes through here."""
    return m.jet(np.asarray(x, dtype=float))


def _checked_inverse(g, x):
    """g^-1 for the metric values g at x, one point or a stack of them
    along leading axes, once g is symmetric and |det g| >= _DET_TOL; a
    stacked call names its first degenerate point."""
    scale = 1.0 + np.max(np.abs(g), axis=(-2, -1))
    asym = np.max(np.abs(g - g.swapaxes(-1, -2)), axis=(-2, -1))
    if np.any(asym > 1e-12 * scale):
        raise ValueError("metric evaluator returned a non-symmetric matrix")
    low = np.abs(np.linalg.det(g)) < _DET_TOL
    if np.any(low):
        at = x if low.ndim == 0 else x[np.flatnonzero(low)[0]]
        raise DegenerateMetric(f"|det g| < {_DET_TOL} at {at}")
    return np.linalg.inv(g)


def eval_metric(m: MetricField, x):
    """Return (g, g_inverse) at x, with degeneracy checks."""
    g = _metric_jet(m, x)[0]
    return g, _checked_inverse(g, x)


def metric_derivative(m: MetricField, x) -> np.ndarray:
    """dg[k, i, j] = d_k g_ij from the metric's jet."""
    return _metric_jet(m, x)[1]


def _is_diagonal(g) -> bool:
    """Whether every off-diagonal entry of g, a matrix or a stack, is 0."""
    return np.count_nonzero(g) == np.count_nonzero(g.diagonal(0, -2, -1))


def _christoffel_from(g, dg) -> np.ndarray:
    """Gamma[..., i, j, k] = Gamma^i_{jk} from a metric jet, at one point or
    along leading stack axes of ``g`` (..., d, d) and ``dg`` (..., d, d, d)."""
    d = g.shape[-1]
    # T[l, j, k] = d_j g_lk + d_k g_lj - d_l g_jk
    T = dg.swapaxes(-3, -2) + np.moveaxis(dg, -3, -1) - dg
    Gam = 0.5 * (np.linalg.inv(g) @ T.reshape(T.shape[:-2] + (d * d,)))
    return Gam.reshape(T.shape)


def hamiltonian_q(m: MetricField, x, xi) -> float:
    return _q_at(_metric_jet(m, x)[0], xi)


def _q_at(g, xi) -> float:
    """q = g^-1(xi, xi) for the metric values g."""
    return float(np.asarray(xi, dtype=float) @ np.linalg.solve(g, xi))


def _phase_core(m: MetricField, x, xi):
    """Shared kernel of the q-flow right-hand side at a point x (an array).

    Returns (g, dg, Z, dx, dxi); every caller that must stay bitwise
    consistent with trajectory integration goes through here, or through
    the metric's phase kernel (``MetricField``), which computes the same
    values in floats.  It reads the metric once, from its jet, which
    raises OutsideChart past the chart.  Z is xi / diag g or g^-1 xi.
    """
    g, dg = m.jet(x)
    Z = xi / g.diagonal() if _is_diagonal(g) else np.linalg.solve(g, xi)
    dx = 2.0 * Z
    dxi = dg.dot(Z).dot(Z)
    return g, dg, Z, dx, dxi


def hamiltonian_field(m: MetricField, p: PhasePoint):
    """(dx/dt, dxi/dt) of the q-flow at a phase point: dx = 2 g^{-1} xi,
    dxi_i = (d_i g_ab) Z^a Z^b."""
    return _phase_core(m, p.x, p.xi)[3:]


# ---------------------------------------------------------------------------
# orthonormal frames


@functools.lru_cache(maxsize=None)
def _unit(d: int):
    """Identity and frame signs (-1, 1, ..., 1) in dimension d, read-only."""
    eye = np.eye(d)
    sig = np.ones(d)
    sig[0] = -1.0
    eye.flags.writeable = sig.flags.writeable = False
    return eye, sig


def _require(ok, low, message: str):
    """Raise FrameDegenerate unless ``ok`` holds everywhere.  ``message``
    is formatted with the failing pivot ``low``; a stacked call also names
    its first offending point."""
    if np.all(ok):
        return
    if np.ndim(ok) == 0:
        raise FrameDegenerate(message.format(low))
    i = int(np.flatnonzero(~ok)[0])
    raise FrameDegenerate(f"{message.format(low.flat[i])} at stacked point {i}")


def _posdef(a) -> bool:
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


def _frame_from(g):
    """(E, E_inv) from metric values, at one point or at a stack of points
    along leading axes of ``g`` (..., d, d).

    E = R^-1 for the factorization g = R^T eta R with R upper triangular and
    a positive diagonal: r = sqrt(-g_00) and s = -g_0,1: / r in the first
    row, and below them the transposed Cholesky factor of g[1:, 1:] + s s^T.
    That is time-first Gram-Schmidt of the coordinate basis in chart order;
    the squared diagonal of R holds its pivots.  A stack that is diagonal
    at every point (``_is_diagonal``) has R = diag(|g_aa|^1/2) read off.
    """
    d = g.shape[-1]
    eye, sig = _unit(d)
    if _is_diagonal(g):
        piv = sig * g.diagonal(axis1=-2, axis2=-1)  # |g_aa| if time-first
        low = piv.min(axis=-1)
        _require(~(low <= 0.0), low,
                 "diagonal metric is not time-first Lorentzian")
        _require(~(low < _PIVOT_TOL), low, "diagonal pivot underflow: {}")
        ediag = piv ** -0.5
        return ediag[..., None, :] * eye, eye / ediag[..., None, :]
    r2 = -g[..., 0, 0]
    _require(~(r2 <= 0.0), r2, _NOT_TIME_FIRST)
    r = np.sqrt(r2)
    s = -g[..., 0, 1:] / r[..., None]
    A = g[..., 1:, 1:] + s[..., :, None] * s[..., None, :]
    try:
        S = np.linalg.cholesky(A).swapaxes(-1, -2)
    except np.linalg.LinAlgError:
        # find the point whose spatial block is not positive definite
        ok = np.array([_posdef(a) for a in A.reshape(-1, d - 1, d - 1)])
        _require(ok.reshape(A.shape[:-2]), r2, _NOT_TIME_FIRST)
        raise  # not reached: the stacked factorization failed somewhere
    low = np.minimum(r2, np.diagonal(S, axis1=-2, axis2=-1).min(axis=-1) ** 2)
    _require(low >= _PIVOT_TOL, low, "factor pivot underflow: {}")
    R = np.zeros(g.shape)
    R[..., 0, 0] = r
    R[..., 0, 1:] = s
    R[..., 1:, 1:] = S
    return np.linalg.inv(R), R


def _frame_connection(g, dg):
    """(E, E^-1, F, X, omega) from a metric jet, at one point or at a stack
    of points along leading axes of ``g`` (..., d, d) and ``dg``
    (..., d, d, d); the frame is ``_frame_from``'s.

    F[c, a, b] = E^k_c E^l_a E^j_b d_k g_lj.  g = R^T eta R with E = R^-1
    gives F_c = X_c + X_c^T with X_c = eta (d_c R) E = triu(F_c) - (1/2)
    diag(F_c), so E^-1 d_c E = -eta X_c along frame vector c, and the
    Koszul formula gives the Levi-Civita frame connection omega[c, a, b] =
    omega_c^{ab} = (1/2) (F_cab + F_bac - F_acb) - X_cab.
    """
    E, Einv = _frame_from(g)
    i, ET = np.arange(g.shape[-1]), E.swapaxes(-1, -2)
    F = (ET @ dg.reshape(dg.shape[:-2] + (-1,))).reshape(dg.shape)
    F = ET[..., None, :, :] @ F @ E[..., None, :, :]
    X = np.triu(F)
    X[..., i, i] *= 0.5
    omega = F + F.swapaxes(-3, -1)
    omega -= F.swapaxes(-3, -2)
    omega *= 0.5
    omega -= X
    return E, Einv, F, X, omega


def orthonormal_frame(m: MetricField, x) -> FrameSample:
    """Orthonormal frame at x; deterministic, e_0 future-directed."""
    E, Einv = _frame_from(_metric_jet(m, x)[0])
    return FrameSample(E=E, E_inv=Einv)


# ---------------------------------------------------------------------------
# generated code: functions built as ``ast`` nodes from constants and
# generated names alone, so no outside text reaches ``compile``

# compile wants a position on every statement and expression; all of the
# generated code sits at line 1
_AT = {"lineno": 1, "col_offset": 0}


def _ast(term):
    """An expression tree for a term: a tree as it is, a variable name, or
    a float literal."""
    if isinstance(term, ast.AST):
        return term
    if isinstance(term, str):
        return ast.Name(term, ast.Load(), **_AT)
    return ast.Constant(term, **_AT)


def _bin(a, op, b):
    return ast.BinOp(_ast(a), op(), _ast(b), **_AT)


def _chain(terms):
    """The terms added left to right."""
    return functools.reduce(lambda a, b: _bin(a, ast.Add, b), terms)


def _call(f: str, *args):
    return ast.Call(_ast(f), list(map(_ast, args)), [], **_AT)


def _list(items):
    return ast.List(list(map(_ast, items)), ast.Load(), **_AT)


def _assign(names, value):
    """``names = value``; a list of names unpacks a sequence."""
    target = (ast.Name(names, ast.Store(), **_AT) if isinstance(names, str)
              else ast.Tuple([ast.Name(n, ast.Store(), **_AT) for n in names],
                             ast.Store(), **_AT))
    return ast.Assign([target], _ast(value), **_AT)


def _function(args, body, env: dict, filename: str):
    """``def _f(*args): body`` compiled with the globals ``env``, which
    hold no builtins."""
    fn = ast.FunctionDef("_f", ast.arguments(
        posonlyargs=[], args=[ast.arg(a, **_AT) for a in args],
        kwonlyargs=[], kw_defaults=[], defaults=[]), body,
        decorator_list=[], **_AT)
    exec(compile(ast.Module([fn], type_ignores=[]), filename, "exec"), env)
    return env.pop("_f")


# ---------------------------------------------------------------------------
# steppers; a state is one list of floats (x, xi), and its rate the list a
# phase kernel returns at it

# Explicit Runge-Kutta tableaus: row i holds the coefficients of stage
# i + 2 on the rates before it, the last row the solution weights; the rate
# at the new solution ends the step's stages and opens the next step (first
# same as last).  Classic RK4, and Dormand-Prince 5(4) with its fifth-order
# weights, whose embedded fourth-order weights _DP_B4 span all 7 stages.
_RK4_A = ((0.5,), (0.0, 0.5), (0.0, 0.0, 1.0),
          (1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0))
_DP_A = (
    (0.2,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0,
     -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0,
     11.0 / 84.0),
)
_DP_B4 = (5179.0 / 57600.0, 0.0, 7571.0 / 16695.0, 393.0 / 640.0,
          -92097.0 / 339200.0, 187.0 / 2100.0, 1.0 / 40.0)


def _combine(y, h, row, ks):
    """y + sum((h * c) * k) over the pairs (c, k) of ``row`` and ``ks`` in
    order, on arrays; zero coefficients are skipped."""
    acc = None
    for c, k in zip(row, ks):
        if c != 0.0:
            acc = (h * c) * k if acc is None else acc + (h * c) * k
    return y + acc


def _pairwise(terms):
    """The sum of ``terms`` in the order numpy's add.reduce takes on a
    contiguous float64 array (pairwise summation): left to right below 8
    terms; up to 128, eight running sums of every eighth term, added as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the remainder
    left to right; beyond, the two halves, split at a multiple of 8."""
    n = len(terms)
    if n < 8:
        return _chain(terms)
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return _bin(_pairwise(terms[:half]), ast.Add,
                    _pairwise(terms[half:]))
    full = n - n % 8
    r = [_chain(terms[j:full:8]) for j in range(8)]
    r = [_bin(r[j], ast.Add, r[j + 1]) for j in range(0, 8, 2)]
    return _chain([_bin(_bin(r[0], ast.Add, r[1]), ast.Add,
                        _bin(r[2], ast.Add, r[3])), *terms[full:]])


@functools.lru_cache(maxsize=32)
def _stepper(rows, n: int, b4=None):
    """One step of the tableau ``rows`` on a state of n floats, compiled to
    straight-line code once per (rows, n, b4) on first use.

    ``step(y, k1, h, phase, keep)`` unpacks y and its rate k1 into locals,
    forms each stage point component as ``y_i + (((h*c1)*k1_i +
    (h*c2)*k2_i) + ...)``, ``_combine``'s terms in its order with zero
    coefficients skipped, so its bits are those of ``_combine`` on arrays,
    and calls ``phase(x, xi)`` on the point's halves, handing each record
    to ``keep``.  It returns (y_new, k_new), the rate at y_new being the
    next step's k1.  With the embedded weights ``b4`` it takes ``tol``
    after h and also returns the sum of the squares of the scaled errors
    ``e_i = (y_new_i - y4_i) / (tol + tol * max(|y_i|, |y_new_i|))``, y4
    the embedded solution, in numpy's summation order (``_pairwise``), so
    it is the bits of the sum of the same errors on arrays; a NaN entry
    gives a NaN sum.  The code is ``ast`` nodes of tableau constants and
    generated names alone.
    """
    d, body = n // 2, []
    ys, ks = [f"_y{i}" for i in range(n)], [[f"_k0_{i}" for i in range(n)]]
    body += [_assign(ys, "_yv"), _assign(ks[0], "_kv")]

    def point(row):
        """The components of y + sum((h * c) * k) over the row."""
        hs = []
        for j, c in enumerate(row):
            if c != 0.0:
                hs.append((f"_h{len(body)}", ks[j]))
                body.append(_assign(hs[-1][0], _bin("_h", ast.Mult, c)))
        return [_bin(y, ast.Add, _chain(
            [_bin(hc, ast.Mult, k[i]) for hc, k in hs]))
            for i, y in enumerate(ys)]

    for s, row in enumerate(rows, 1):
        comps = point(row)
        if s == len(rows):
            new = [f"_n{i}" for i in range(n)]
            body += map(_assign, new, comps)
            comps = new
        body += [_assign(["_r", "_rec"], _call(
                     "_phase", _list(comps[:d]), _list(comps[d:]))),
                 ast.Expr(_call("_keep", "_rec"), **_AT)]
        ks.append([f"_k{s}_{i}" for i in range(n)])
        if s < len(rows) or b4 is not None:
            body.append(_assign(ks[-1], "_r"))
    out, args = [_list(new), _ast("_r")], ["_yv", "_kv", "_h"]
    if b4 is not None:
        args.append("_tol")
        errs = []
        for i, (y4, y, yn) in enumerate(zip(point(b4), ys, new)):
            scale = _bin("_tol", ast.Add, _bin("_tol", ast.Mult, _call(
                "_max", _call("_fabs", y), _call("_fabs", yn))))
            body.append(_assign(f"_e{i}", _bin(_bin(yn, ast.Sub, y4),
                                               ast.Div, scale)))
            errs.append(_bin(f"_e{i}", ast.Mult, f"_e{i}"))
        out.append(_pairwise(errs))
    body.append(ast.Return(ast.Tuple(out, ast.Load(), **_AT), **_AT))
    return _function(args + ["_phase", "_keep"], body,
                     {"__builtins__": {}, "_max": max, "_fabs": abs},
                     "<stepper>")


# Steps one run may take, RK4 grid steps or Dormand-Prince attempts: 20x
# the longest RK4 grid of the tests, demos and benchmark (5,000 steps)
_MAX_STEPS = 100_000


def _steps_for(t_end: float, step: float):
    # capped first, so no longer list is built (t_end / step may be inf)
    n_full = int(math.floor(min(t_end / step + 1e-12, _MAX_STEPS + 1)))
    hs = [step] * n_full
    rem = t_end - n_full * step
    if rem > 1e-12 * max(1.0, t_end):
        hs.append(rem)
    if len(hs) > _MAX_STEPS:
        raise ConfigError(f"rk4_fixed t_end {t_end} at step {step} needs "
                          f"more than {_MAX_STEPS} steps")
    return hs


def _check_seed(m: MetricField, p0: PhasePoint, t_end: float,
                null_tol: float, require_null: bool):
    """Check t_end, chart and null seed before a run; returns g at the seed."""
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise ConfigError(f"t_end must be finite and positive, got {t_end}")
    try:
        g = _metric_jet(m, p0.x)[0]
    except OutsideChart:
        raise OutsideChart("initial point violates the domain guard") from None
    q0 = _q_at(g, p0.xi)
    # a NaN q, from a covector that is not finite, fails too
    if require_null and not abs(q0) < null_tol * (1.0 + float(p0.xi @ p0.xi)):
        raise NotOnCharacteristicSet(f"|q(p0)| = {abs(q0)}")
    return g


# Accepted steps per block of stage records handed on by ``_flow``; bounds
# the records held at once, whatever the length of the run.  A 64-step RK4
# block holds 257 records, whose stage-engine scratch stays below 720 KiB.
_BLOCK_STEPS = 64
# Dormand-Prince attempts (accepted plus rejected steps) allowed per unit of
# t, and for at least one unit, in one run, up to _MAX_STEPS in all.  The
# step floor alone does not bound a run: an error estimate that never
# shrinks like h^5 holds the step far above the floor for ever.
_ATTEMPTS_PER_T = 50_000


def _phase_arrays(m: MetricField, x, xi):
    """The flow's kernel for a metric without a ``_phase``: ``_phase_core``
    at the float lists x and xi, with the record (xi, g, dg, Z) of arrays."""
    xi = np.array(xi)
    g, dg, Z, dx, dxi = _phase_core(m, np.array(x), xi)
    return dx.tolist() + dxi.tolist(), (xi, g, dg, Z)


def _stack_diagonal(records, d: int):
    """(xi, g, dg, Z) stacked from the flat records of a phase kernel
    (``MetricField``); the off-diagonal entries of g and dg are 0."""
    a = np.array(records, dtype=float)
    n, i = len(a), np.arange(d)
    g = np.zeros((n, d, d))
    g[:, i, i] = a[:, d:2 * d]
    dg = np.zeros((n, d, d, d))
    dg[:, :, i, i] = a[:, 2 * d:-d].reshape(n, d, d)
    return a[:, :d].copy(), g, dg, a[:, -d:].copy()


def _flow(m: MetricField, p0: PhasePoint, t_end: float, integrator: str,
          step: float, tol: float, on_block: Optional[Callable] = None):
    """Integrate the q-flow from p0 over [0, t_end] on the phase point
    packed as the float list (x, xi).

    RK4 takes the grid of ``step``; Dormand-Prince picks its grid by error
    control at ``tol``.  Each steps by the generated stepper of its
    tableau (``_stepper``, built on a flow's first use of a tableau's
    current values and state length, then cached), which also forms the
    Dormand-Prince error sum in floats.  A stage past the chart
    (OutsideChart) truncates the run.  The rate is the metric's ``_phase``
    kernel, or ``_phase_core`` for a metric without one.

    Each rate evaluation leaves a record of the values (xi, g, dg, Z) it
    computed there (its dx is 2 Z).  The records of accepted steps go, in
    evaluation order, to ``on_block(hs, (xi, g, dg, Z))``, stacked into
    arrays along a first axis, once per ``_BLOCK_STEPS`` steps and at the
    end: the first block opens with the seed's record, and a step of size
    hs[i] adds its stages after the first, the last of them at the step's
    new sample; ``hs`` is cleared after the call.  Records of rejected
    steps and of a step cut off at the chart's edge are dropped.
    """
    if integrator == "rk4_fixed":
        knob, value = "step", step
    elif integrator == "rk45_adaptive":
        knob, value = "tol", tol
    else:
        raise ConfigError(f"unknown integrator {integrator!r}")
    if not (math.isfinite(value) and value > 0.0):
        raise ConfigError(f"{integrator} {knob} must be finite and positive, "
                          f"got {value}")
    grid = _steps_for(t_end, step) if integrator == "rk4_fixed" else None
    h_min = 1e-13 * max(1.0, t_end)
    # a run without a step would pass every check on its seed alone; this
    # and the RK4 grid's cap refuse a run before its first rate
    if not (grid if integrator == "rk4_fixed" else t_end > h_min):
        raise ConfigError(f"t_end {t_end} leaves no {integrator} step")
    d, kernel = m.dim, m._phase
    phase = kernel or functools.partial(_phase_arrays, m)
    stage, block, hs = [], [], []
    keep = stage.append

    def flush():
        if on_block is not None:
            on_block(hs, _stack_diagonal(block, d) if kernel
                     else tuple(map(np.array, zip(*block))))
        hs.clear()
        block.clear()

    def accept(h):
        hs.append(h)
        block.extend(stage)
        stage.clear()
        if len(hs) == _BLOCK_STEPS:
            flush()

    y, t = p0.x.tolist() + p0.xi.tolist(), 0.0
    k, record = phase(y[:d], y[d:])
    block.append(record)
    samples = [(t, y, k)]
    left = False
    try:
        if integrator == "rk4_fixed":
            step = _stepper(_RK4_A, 2 * d)
            for h in grid:
                y, k = step(y, k, h, phase, keep)
                t += h
                samples.append((t, y, k))
                accept(h)
        else:
            step = _stepper(_DP_A, 2 * d, _DP_B4)
            h = min(t_end, max(tol ** 0.2, 1e-6))
            max_attempts = min(int(_ATTEMPTS_PER_T * max(1.0, t_end)),
                               _MAX_STEPS)
            attempts = 0
            while t_end - t > h_min:
                h_try = min(h, t_end - t)
                if h_try < h_min:
                    raise StepUnderflow(
                        f"step {h_try} below floor {h_min} at t={t}")
                if attempts == max_attempts:
                    accepted = len(samples) - 1
                    raise StepUnderflow(
                        f"{attempts} step attempts ({accepted} accepted, "
                        f"{attempts - accepted} rejected) reach only t={t} "
                        f"of {t_end}, h={h_try}")
                attempts += 1
                ynew, knew, sq = step(y, k, h_try, tol, phase, keep)
                enorm = math.sqrt(sq / len(y))
                if enorm <= 1.0:
                    t += h_try
                    y, k = ynew, knew
                    samples.append((t, y, k))
                    accept(h_try)
                else:
                    stage.clear()
                # a NaN norm is rejected above and shrinks the step here
                fac = 0.9 * (enorm ** -0.2 if enorm > 0.0
                             else 5.0 if enorm == 0.0 else 0.0)
                h = h_try * min(5.0, max(0.2, fac))
    except OutsideChart:
        left = True
    if block:
        flush()

    ts, phases, ks = zip(*samples)
    phases, dxs = np.array(phases), np.array(ks)[:, :d]
    xs, xis = phases[:, :d], phases[:, d:]
    # q = xi . g^-1 xi = xi . dx / 2 from the flow's own derivative
    qs = 0.5 * np.einsum("ij,ij->i", xis, dxs)
    return Trajectory(ts=np.asarray(ts), xs=xs, xis=xis, qs=qs,
                      integrator=integrator,
                      step=step if integrator == "rk4_fixed" else None,
                      left_chart=left)


def integrate_bicharacteristic(
    m: MetricField,
    p0: PhasePoint,
    t_end: float,
    integrator: str = "rk4_fixed",
    step: float = 1e-3,
    tol: float = 1e-8,
    null_tol: float = 1e-10,
    require_null: bool = False,
) -> Trajectory:
    """Integrate the Hamiltonian flow of q from p0 over [0, t_end].

    Parameters
    ----------
    integrator : "rk4_fixed" (uses ``step``) or "rk45_adaptive" (uses ``tol``
        as absolute and relative error target).
    require_null : reject seeds with |q| >= null_tol * (1 + |xi|^2).

    Leaving the chart mid-run truncates the trajectory and sets
    ``left_chart`` instead of raising.
    """
    _check_seed(m, p0, t_end, null_tol, require_null)
    return _flow(m, p0, t_end, integrator, step, tol)


# ---------------------------------------------------------------------------
# sampling helpers


_CHART_TRIES = 16   # draws of a random point inside the chart


@np.errstate(all="ignore")
def _chart_draw(m: MetricField, rng: np.random.Generator):
    """(x, g, dg) for ``random_chart_point``'s draw x and the jet that
    tested it.  Draws past the chart raise no numpy warning."""
    if m.sample_box is None:
        raise ConfigError(f"metric {m.name} has no sample box")
    lo = m.sample_box[:, 0]
    hi = m.sample_box[:, 1]
    for _ in range(_CHART_TRIES):
        x = lo + (hi - lo) * rng.random(m.dim)
        try:
            return (x, *_metric_jet(m, x))
        except OutsideChart:
            pass
    raise ConfigError(f"metric {m.name}: {_CHART_TRIES} draws from its "
                      f"sample box all lie outside its chart")


def random_chart_point(m: MetricField, rng: np.random.Generator) -> np.ndarray:
    """A uniform draw from the metric's sample box that lies in its chart:
    draws past the chart are redrawn, and a ConfigError names the metric
    after ``_CHART_TRIES`` of them."""
    return _chart_draw(m, rng)[0]


def _null_roots(ginv, s):
    """(disc, hi, lo): the discriminant and roots (-b +- sqrt(disc)) / 2a,
    sqrt(0) where disc < 0, of q = a xi_0^2 + b xi_0 + c over the spatial
    part s, for the inverse metric ginv at one point or a stack of them."""
    a = ginv[..., 0, 0]
    b = 2.0 * (ginv[..., :1, 1:] @ s[..., :, None])[..., 0, 0]
    c = (s[..., None, :] @ ginv[..., 1:, 1:] @ s[..., :, None])[..., 0, 0]
    disc = b * b - 4.0 * a * c
    r = np.sqrt(np.where(disc < 0.0, 0.0, disc))
    return disc, (-b + r) / (2.0 * a), (-b - r) / (2.0 * a)


def _null_projection(ginv, xi):
    """(xi with xi_0 moved to a root of q = 0, whether that root is real)
    for the inverse metric ginv, at one point or a stack of them.

    q is exactly quadratic in xi_0 (``_null_roots``); of its two roots,
    the one nearer the input xi_0 is kept (the first on a tie).
    """
    disc, hi, lo = _null_roots(ginv, xi[..., 1:])
    out = np.array(xi, dtype=float)
    out[..., 0] = np.where(np.abs(hi - xi[..., 0]) <= np.abs(lo - xi[..., 0]),
                           hi, lo)
    return out, ~(disc < 0.0)


def null_project_covector(m: MetricField, x, xi) -> np.ndarray:
    """Adjust xi_0 so q(x, xi) = 0, keeping the spatial part; the root
    nearer the input xi_0 is kept (``_null_projection``)."""
    _, ginv = eval_metric(m, x)
    out, real = _null_projection(ginv, np.asarray(xi, dtype=float))
    if not real:
        raise NotOnCharacteristicSet("no real null root for this spatial part")
    return out


def random_null_covector(m: MetricField, x,
                         rng: np.random.Generator) -> np.ndarray:
    """Uniform-sphere spatial part; xi_0 from the null quadratic, picking the
    root whose raised vector is future-directed (positive 0th component)."""
    return _future_null(_metric_jet(m, x)[0], x, rng)


def _future_null(g, x, rng: np.random.Generator) -> np.ndarray:
    """``random_null_covector``'s draw at x, whose metric values are g."""
    ginv = _checked_inverse(g, x)
    s = rng.normal(size=len(g) - 1)
    s /= np.linalg.norm(s)
    disc, hi, lo = _null_roots(ginv, s)
    if disc <= 0.0:
        raise NotOnCharacteristicSet("chart has no null covector over this "
                                     "spatial direction")
    for root in (hi, lo):
        xi = np.concatenate(([root], s))
        if (ginv @ xi)[0] > 0.0:
            return xi
    raise NotOnCharacteristicSet("no future-directed null root")


# ---------------------------------------------------------------------------
# metric catalog


def _constant_metric(g: np.ndarray, name: str) -> MetricField:
    """The constant metric g, sampled from the box [-5, 5]^d; jet (g, 0).
    A diagonal g has a phase kernel: dxi is +0.0, as ``_phase_core``'s
    dg.dot(Z).dot(Z) is for dg = 0 and any Z."""
    d = len(g)
    zeros = np.zeros((d, d, d))
    gd, rest = g.diagonal().tolist(), (0.0,) * (d * d)

    def phase(x, xi):
        Z = [a / b for a, b in zip(xi, gd)]
        return [2.0 * z for z in Z] + [0.0] * d, (*xi, *gd, *rest, *Z)

    m = MetricField(dim=d, jet=lambda x: (g.copy(), zeros), name=name,
                    sample_box=np.array([[-5.0, 5.0]] * d))
    m._phase = phase if _is_diagonal(g) else None
    return m


def minkowski(dim: int = 4) -> MetricField:
    if dim not in (2, 4):
        raise UnsupportedDimension(
            f"minkowski has dimensions 2 and 4, not {dim}")
    return _constant_metric(np.diag([-1.0] + [1.0] * (dim - 1)),
                            f"minkowski{dim}")


# Masses the Schwarzschild charts accept.  Their sample boxes span radii
# from 3 M to 50 M, and the charts square radii (the angular components,
# their derivatives); within this range every such square is a normal
# double (9e-300 to 2.5e303), outside it one over- or underflows.
_MASS_RANGE = (1e-150, 1e150)


def _mass(mass) -> float:
    M = float(mass)
    lo, hi = _MASS_RANGE
    if not lo <= M <= hi:
        raise ConfigError(f"mass must lie in [{lo:g}, {hi:g}], where the "
                          f"chart's squared radii neither over- nor "
                          f"underflow; got {mass}")
    return M


# the Schwarzschild charts end 0.1% outside the horizon and at sin(theta) 1e-6
_HORIZON_MARGIN, _THETA_MARGIN = 1e-3, 1e-6


def _radial_jet(g_diag, dr_diag, dth_33):
    """(g, dg) of a diagonal metric on a (t, r, theta, phi) chart that
    depends on r, and on theta through g_33 only: the diagonals of g and
    d_r g, and d_theta g_33."""
    g = np.zeros((4, 4))
    g[0, 0], g[1, 1], g[2, 2], g[3, 3] = g_diag
    dg = np.zeros((4, 4, 4))
    dg[1, 0, 0], dg[1, 1, 1], dg[1, 2, 2], dg[1, 3, 3] = dr_diag
    dg[2, 3, 3] = dth_33
    return g, dg


def _sin(th) -> float:
    """sin(theta) as np.sin gives it, NaN at +-inf where math.sin raises."""
    return math.sin(th) if abs(th) < math.inf else math.nan


def _radial_ok(r, s, r_min: float) -> bool:
    """The chart test of a Schwarzschild chart on r and s = sin(theta):
    r >= r_min and s >= _THETA_MARGIN; a NaN fails."""
    return r >= r_min and s >= _THETA_MARGIN


def _radial_values(values, x, r_min: float, name: str):
    """A Schwarzschild chart's ``values(r, sin theta, cos theta)`` at the
    point x, the arguments of ``_radial_jet``, once x passes its chart
    test; every read of the chart, jet or phase kernel, goes through
    here."""
    r, th = float(x[1]), float(x[2])
    s = _sin(th)
    if not _radial_ok(r, s, r_min):
        raise _outside(x, name)
    return values(r, s, math.cos(th))


def _radial_metric(values, r_min: float, name: str, box) -> MetricField:
    """The diagonal metric of ``_radial_values``, with its jet and its
    phase kernel.

    The kernel sums dxi_k = sum_a v_ka, v_ka = (d_k g_aa Z^a) Z^a, as
    (v_k0 + v_k2) + (v_k1 + v_k3), the order in which OpenBLAS sums
    ``_phase_core``'s ``dg.dot(Z).dot(Z)`` on x86-64, so a flow keeps the
    bits of one through ``_phase_core`` there; a BLAS that sums in another
    order moves dxi by an ulp or two.  0.0 + v_23 is that sum over a row
    of dg with one entry, 0.0 over a row without one."""
    def jet(x):
        return _radial_jet(*_radial_values(values, x, r_min, name))

    def phase(x, xi):
        (g0, g1, g2, g3), (d0, d1, d2, d3), e = _radial_values(
            values, x, r_min, name)
        x0, x1, x2, x3 = xi
        z0, z1, z2, z3 = x0 / g0, x1 / g1, x2 / g2, x3 / g3
        return ([2.0 * z0, 2.0 * z1, 2.0 * z2, 2.0 * z3, 0.0,
                 (d0 * z0 * z0 + d2 * z2 * z2) + (d1 * z1 * z1 + d3 * z3 * z3),
                 0.0 + e * z3 * z3, 0.0],
                (x0, x1, x2, x3, g0, g1, g2, g3, 0.0, 0.0, 0.0, 0.0,
                 d0, d1, d2, d3, 0.0, 0.0, 0.0, e, 0.0, 0.0, 0.0, 0.0,
                 z0, z1, z2, z3))

    m = MetricField(dim=4, jet=jet, name=name, sample_box=box)
    m._phase = phase
    return m


def schwarzschild(mass: float = 1.0) -> MetricField:
    M = _mass(mass)

    def values(r, s, c):
        f = 1.0 - 2.0 * M / r
        fp = 2.0 * M / (r * r)
        return ((-f, 1.0 / f, r * r, r * r * s * s),
                (-fp, -fp / (f * f), 2.0 * r, 2.0 * r * s * s),
                2.0 * r * r * s * c)

    box = np.array([[-5.0, 5.0], [3.0 * M, 50.0 * M],
                    [0.3, math.pi - 0.3], [0.0, 2.0 * math.pi]])
    return _radial_metric(values, 2.0 * M * (1.0 + _HORIZON_MARGIN),
                          f"schwarzschild{mass:g}", box)


def _iso_radius(r: float, M: float) -> float:
    return 0.5 * ((r - M) + math.sqrt(r * (r - 2.0 * M)))


def schwarzschild_isotropic(mass: float = 1.0) -> MetricField:
    """Same exterior geometry as ``schwarzschild`` with the radial coordinate
    replaced by its isotropic counterpart."""
    M = _mass(mass)

    def values(rho, s, c):
        u = 1.0 + M / (2.0 * rho)
        du = -M / (2.0 * rho * rho)
        A = (1.0 - M / (2.0 * rho)) / u
        dA = (M / (rho * rho)) / (u * u)
        u4 = u * u * u * u
        du4 = 4.0 * u ** 3 * du                      # d_rho u^4
        dr = du4 * rho * rho + 2.0 * u ** 4 * rho    # d_rho (u^4 rho^2)
        return ((-A * A, u4, u4 * rho * rho, u4 * rho * rho * s * s),
                (-2.0 * A * dA, du4, dr, dr * s * s),
                2.0 * u ** 4 * rho * rho * s * c)

    box = np.array([[-5.0, 5.0],
                    [_iso_radius(3.0 * M, M), _iso_radius(50.0 * M, M)],
                    [0.3, math.pi - 0.3], [0.0, 2.0 * math.pi]])
    return _radial_metric(values, 0.5 * M * (1.0 + _HORIZON_MARGIN),
                          f"schwarzschild_isotropic{mass:g}", box)


def _abs(a):
    """|a|, keeping the sign of a -0.0."""
    return -a if a < 0.0 else a


def _div(a, b):
    """a / b, with numpy's inf or NaN where b is +-0."""
    return a / b if b else float(np.float64(a) / b)


def _pow(a, b):
    """a ** b as float64 scalars give it: inf on overflow and at 0 ** -1,
    NaN for a negative base under a fractional power.  Not the np.power
    ufunc, whose SIMD loops may round differently in the last place."""
    return float(np.float64(a) ** np.float64(b))


def _coords(p) -> list:
    """A point's coordinates as floats."""
    return np.asarray(p, dtype=np.float64).tolist()


# What a conformal factor may contain, with the forward-mode derivative of
# each piece.  Functions: name -> (function, rule for f'(a)); binary
# operators: node type -> rules for the partials in a and in b; unary minus:
# its partial (unary plus passes its operand on).  A rule is a number or an
# expression in the operands a and b, the node's value v and the functions
# named here.
_EXPR_FUNCS = {
    "sin": (np.sin, "cos(a)"), "cos": (np.cos, "-sin(a)"),
    "tan": (np.tan, "1.0 + v * v"), "exp": (np.exp, "v"),
    "log": (np.log, "1.0 / a"), "sqrt": (np.sqrt, "0.5 / v"),
    "sinh": (np.sinh, "cosh(a)"), "cosh": (np.cosh, "sinh(a)"),
    "tanh": (np.tanh, "1.0 - v * v"),
    "arctan": (np.arctan, "1.0 / (1.0 + a * a)"),
    "abs": (_abs, "-1.0 if a < 0.0 else 1.0"),   # slope +1 at 0
}
_EXPR_BINOPS = {
    ast.Add: (1.0, 1.0), ast.Sub: (1.0, -1.0),
    ast.Mult: ("b", "a"), ast.Div: ("1.0 / b", "-v / b"),
    ast.Pow: ("b * a ** (b - 1.0)", "v * log(a)"),
}

def _times(p, d):
    """The term p * d, either factor of which may be the literal 1.0."""
    if p == 1.0 or d == 1.0:
        return d if p == 1.0 else p
    return _bin(p, ast.Mult, d)


class _KernelBuilder:
    """Straight-line code for an arithmetic expression and its gradient.

    ``node`` walks the expression; each node appends to ``body`` one
    assignment of its value and, in forward mode, one of its partial d_k
    for each coordinate k its subtree depends on.  Code is built as
    ``ast`` nodes: coordinates are read as ``_p[i]`` and constants and
    functions are bound by value under private names, so no text of the
    expression reaches ``compile``.
    It computes in Python floats with numpy's float64 scalar semantics: a
    function is numpy's with a float result, and every / and ** becomes a
    call of ``_div`` or ``_pow`` (``_ScalarOps``), so no input raises and
    none turns complex.
    """

    def __init__(self, expr: str, names: dict):
        self.expr, self.names = expr, names
        self.env = {"__builtins__": {}, "_div": _div, "_pow": _pow}
        self.env.update((f"_{k}", lambda a, f=f: float(f(a)))
                        for k, (f, _) in _EXPR_FUNCS.items())
        self.body = []

    def assign(self, expr) -> str:
        name = f"_v{len(self.body)}"
        self.body.append(_assign(name, expr))
        return name

    def constant(self, value) -> str:
        try:
            c = float(value)
        except OverflowError:
            raise ConfigError(f"conformal factor {self.expr!r}: a constant "
                              f"is beyond the float range") from None
        name = f"_c{len(self.env)}"
        self.env[name] = c
        return name

    def partial(self, rule, **terms):
        """The term of a rule whose names a, b and v stand for the variables
        ``terms`` names and each function f for its binding _f."""
        if isinstance(rule, float):
            return rule
        expr = ast.parse(rule, mode="eval").body
        for n in ast.walk(expr):
            if isinstance(n, ast.Name):
                n.id = terms.get(n.id, f"_{n.id}")
        if isinstance(expr, ast.Name):
            return expr.id
        return self.assign(expr)

    def chain(self, partials, derivs) -> dict:
        """{k: sum of p_j d_jk over the operands j that depend on k}."""
        out = {}
        for p, d in zip(partials, derivs):
            for k, dk in d.items():
                t = _times(p, dk)
                out[k] = t if k not in out else _bin(out[k], ast.Add, t)
        return {k: self.assign(t) if isinstance(t, ast.AST) else t
                for k, t in out.items()}

    def apply(self, expr, rules, operands):
        """(value, partials) of a node computing ``expr`` from
        ``operands``, pairs (value term, partials), by ``rules``."""
        v = self.assign(expr)
        terms = dict(zip("ab", (a for a, _ in operands)), v=v)
        return v, self.chain(
            [self.partial(r, **terms) if d else None
             for r, (_, d) in zip(rules, operands)],
            [d for _, d in operands])

    def node(self, node):
        """(value term, {k: d_k term}) of an expression node."""
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            return self.constant(node.value), {}
        if isinstance(node, ast.Name) and node.id in self.names:
            i = self.names[node.id]
            return self.assign(ast.Subscript(
                _ast("_p"), ast.Constant(i, **_AT), ast.Load(), **_AT)), \
                {i: 1.0}
        if isinstance(node, ast.Name) and node.id == "pi":
            return self.constant(math.pi), {}
        if isinstance(node, ast.BinOp) and type(node.op) in _EXPR_BINOPS:
            ops = self.node(node.left), self.node(node.right)
            return self.apply(_bin(ops[0][0], type(node.op), ops[1][0]),
                              _EXPR_BINOPS[type(node.op)], ops)
        if isinstance(node, ast.UnaryOp) and type(node.op) is ast.UAdd:
            return self.node(node.operand)
        if isinstance(node, ast.UnaryOp) and type(node.op) is ast.USub:
            op = self.node(node.operand)
            return self.apply(ast.UnaryOp(ast.USub(), _ast(op[0]), **_AT),
                              (-1.0,), (op,))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _EXPR_FUNCS and len(node.args) == 1
                and not node.keywords):
            op = self.node(node.args[0])
            return self.apply(_call(f"_{node.func.id}", op[0]),
                              (_EXPR_FUNCS[node.func.id][1],), (op,))
        what = (f"name {node.id!r}" if isinstance(node, ast.Name)
                else type(node).__name__)
        raise ConfigError(f"conformal factor {self.expr!r}: {what} is not "
                          f"allowed")


class _ScalarOps(ast.NodeTransformer):
    """Every / and ** as a call of _div or _pow."""

    def visit_BinOp(self, node):
        self.generic_visit(node)
        helper = {ast.Div: "_div", ast.Pow: "_pow"}.get(type(node.op))
        if helper is None:
            return node
        return _call(helper, node.left, node.right)


@functools.lru_cache(maxsize=256)
def _omega_kernels(expr: str, dim: int):
    """The values of the expression ``expr`` in x0..x{dim-1} (aliases t,
    x, y, z when dim == 4), compiled: values(p) = (Omega(p), (d_0 Omega(p),
    ..., d_{dim-1} Omega(p))) for a list p of floats.

    Accepted: numeric constants (floats, so ``9**9**9`` overflows instead
    of growing an integer), the coordinates, ``pi``, ``+ - * / **``, unary
    ``+ -`` and one-argument calls of ``_EXPR_FUNCS``; any other node
    raises ConfigError.  It is compiled once per (expr, dim), with no
    builtins; the jet and the phase kernel of ``conformal_flat`` both run
    it.
    """
    names = {f"x{i}": i for i in range(dim)}
    if dim == 4:
        names.update(t=0, x=1, y=2, z=3)
    b = _KernelBuilder(expr, names)
    try:
        w, dw = b.node(ast.parse(expr, mode="eval").body)
    except (SyntaxError, ValueError, RecursionError) as e:
        raise ConfigError(f"conformal factor {expr!r} does not parse: {e}") \
            from None
    grad = ast.Tuple([_ast(dw.get(k, 0.0)) for k in range(dim)], ast.Load(),
                     **_AT)
    # _f(_p): body; return (Omega, gradient)
    result = ast.Return(ast.Tuple([_ast(w), grad], ast.Load(), **_AT), **_AT)
    return _function(["_p"], [_ScalarOps().visit(n) for n in
                              (*b.body, result)], b.env, "<conformal factor>")


def _omega_ok(w, dw) -> bool:
    """The chart test of a conformal factor: the metric Omega^2 eta must
    be nondegenerate and finite, |Omega| > 1e-6 and Omega^2 < inf, and so
    must its partials d_k Omega; NaN fails."""
    w = abs(w)
    return w > 1e-6 and w * w < math.inf and all(map(math.isfinite, dw))


def conformal_flat(omega: str, dim: int = 4) -> MetricField:
    """g = Omega(x)^2 * eta for an expression ``omega`` in x0..x{dim-1}
    (aliases t, x, y, z when dim == 4), restricted as ``_omega_kernels``
    says.

    ``jet`` is closed form: d_k Omega by forward-mode differentiation of
    the expression, which ``_omega_kernels`` compiles once per (omega, dim)
    along with Omega itself, and dg = 2 Omega dOmega eta.  It tests the
    chart on its own Omega and dOmega.  In dimension 4 the metric also has
    a phase kernel from the same values, which sums dxi_k = sum_a (d_k g_aa
    Z^a) Z^a in the order of ``_radial_metric``'s.
    """
    expr = str(omega)
    values = _omega_kernels(expr, dim)
    eta = np.diag([-1.0] + [1.0] * (dim - 1))
    name = "conformal_flat{" + expr + "}"

    def read(p):
        w, dw = values(p)
        if not _omega_ok(w, dw):
            raise _outside(p, name)
        return w, dw

    def jet(x):
        w, dw = read(_coords(x))
        return w * w * eta, np.multiply.outer(2.0 * w * np.array(dw), eta)

    def phase(x, xi):
        w, dw = read(x)
        x0, x1, x2, x3 = xi
        ww = w * w
        n = -ww
        z0, z1, z2, z3 = x0 / n, x1 / ww, x2 / ww, x3 / ww
        c = 2.0 * w
        dxi, dgd = [], []
        for v in dw:
            p = c * v
            q = -p
            dxi.append((q * z0 * z0 + p * z2 * z2)
                       + (p * z1 * z1 + p * z3 * z3))
            dgd += (q, p, p, p)
        return ([2.0 * z0, 2.0 * z1, 2.0 * z2, 2.0 * z3, *dxi],
                (x0, x1, x2, x3, n, ww, ww, ww, *dgd, z0, z1, z2, z3))

    m = MetricField(dim=dim, jet=jet, name=name,
                    sample_box=np.array([[-2.0, 2.0]] * dim))
    m._phase = phase if dim == 4 else None
    return m


_CATALOG_PATTERNS = (
    (re.compile(r"^minkowski(\d+)$"), lambda g: minkowski(int(g))),
    (re.compile(r"^schwarzschild([0-9.eE+-]+)$"),
     lambda g: schwarzschild(float(g))),
    (re.compile(r"^schwarzschild_isotropic([0-9.eE+-]+)$"),
     lambda g: schwarzschild_isotropic(float(g))),
    (re.compile(r"^conformal_flat\{(.+)\}$"), lambda g: conformal_flat(g)),
)


def catalog_metric(identifier: str) -> MetricField:
    """Resolve a catalog id: minkowski{dim}, schwarzschild{M},
    schwarzschild_isotropic{M}, conformal_flat{expression}."""
    for pat, make in _CATALOG_PATTERNS:
        mt = pat.match(identifier)
        if mt:
            try:
                return make(mt.group(1))
            except (ValueError, UnsupportedDimension) as e:
                raise ConfigError(f"bad catalog id {identifier!r}: {e}") from e
    raise ConfigError(f"unknown catalog metric {identifier!r}")
