"""Lorentzian chart geometry at the coordinate level.

Everything works on a single chart: a metric field is a callable returning
the matrix ``g_ij(x)`` in signature (-, +, ..., +), and its first derivatives
come from a supplied ``d_eval`` (closed form, or a complex step through the
scalar factor for ``conformal_flat``) or else from central differences.  On
top of that sit Christoffel symbols, the scalar Hamiltonian
``q(x, xi) = g^{ij} xi_i xi_j``, its flow field, null bicharacteristic
integration, and orthonormal frames from the factorization ``g = R^T eta R``
with ``R`` upper triangular, which is Gram-Schmidt in chart order.
"""
from __future__ import annotations

import ast
import functools
import math
import operator
import re
from dataclasses import dataclass
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
    "minkowski_linear_chart",
    "schwarzschild",
    "schwarzschild_isotropic",
    "conformal_flat",
    "catalog_metric",
    "eval_metric",
    "metric_derivative",
    "christoffel",
    "raise_covector",
    "lower_vector",
    "hamiltonian_q",
    "hamiltonian_field",
    "orthonormal_frame",
    "integrate_bicharacteristic",
    "random_chart_point",
    "random_null_covector",
    "null_project_covector",
]

_DET_TOL = 1e-14
_FD_STEP = 1e-5   # relative central-difference step of a metric without d_eval
_PIVOT_TOL = 1e-12
_NOT_TIME_FIRST = "chart order does not yield a time-first orthonormal frame"


# ---------------------------------------------------------------------------
# containers


@dataclass
class MetricField:
    """A chart-level Lorentzian metric.

    ``eval`` maps a coordinate point to the matrix ``g_ij``.  Derivatives
    follow one of two rules, picked by whether ``d_eval`` is given:

    * ``d_eval(x)[k, i, j] = d_k g_ij`` when supplied (the catalog supplies
      closed forms, and a complex step for ``conformal_flat``);
    * otherwise central differences of ``eval`` (``_partials``).
    """

    dim: int
    eval: Callable
    d_eval: Optional[Callable] = None
    domain_guard: Callable = lambda x: True
    guard_margin: Optional[Callable] = None
    name: str = "custom"
    diagonal: bool = False
    sample_box: Optional[np.ndarray] = None

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
    stopped at the domain guard."""

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


def _metric_value(m: MetricField, x) -> np.ndarray:
    if not m.domain_guard(x):
        raise OutsideChart(f"point {np.asarray(x)} outside chart of {m.name}")
    return np.asarray(m.eval(x), dtype=float)


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
    """(g, dg) with dg[k, i, j] = d_k g_ij: ``d_eval`` when the metric
    supplies one, central differences otherwise."""
    x = np.asarray(x, dtype=float)
    g = _metric_value(m, x)
    if m.d_eval is not None:
        dg = np.asarray(m.d_eval(x), dtype=float)
    else:
        dg = _partials(lambda z: np.asarray(m.eval(z), float), x, _FD_STEP)
    return g, dg


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
    g = _metric_value(m, x)
    return g, _checked_inverse(g, x)


def metric_derivative(m: MetricField, x) -> np.ndarray:
    """dg[k, i, j] = d_k g_ij by the metric's derivative rule."""
    return _metric_jet(m, x)[1]


def christoffel(m: MetricField, x) -> np.ndarray:
    """Levi-Civita symbols, indexed Gamma[i, j, k] = Gamma^i_{jk}."""
    g, dg = _metric_jet(m, x)
    ginv = np.linalg.inv(g)
    # T[l, j, k] = d_j g_lk + d_k g_lj - d_l g_jk
    T = dg.transpose(1, 0, 2) + dg.transpose(1, 2, 0) - dg
    return 0.5 * np.einsum("il,ljk->ijk", ginv, T)


def raise_covector(m: MetricField, x, xi) -> np.ndarray:
    g = _metric_value(m, x)
    return np.linalg.solve(g, np.asarray(xi, dtype=float))


def lower_vector(m: MetricField, x, Z) -> np.ndarray:
    g = _metric_value(m, x)
    return g @ np.asarray(Z, dtype=float)


def hamiltonian_q(m: MetricField, x, xi) -> float:
    xi = np.asarray(xi, dtype=float)
    g = _metric_value(m, x)
    return float(xi @ np.linalg.solve(g, xi))


def _phase_core(m: MetricField, x, xi):
    """Shared kernel of the q-flow right-hand side.

    Returns (g, dg, Z, dx, dxi); every caller that must stay bitwise
    consistent with trajectory integration goes through here.
    """
    g, dg = _metric_jet(m, x)  # raises OutsideChart past the domain guard
    Z = xi / g.diagonal() if m.diagonal else np.linalg.solve(g, xi)
    dx = 2.0 * Z
    dxi = dg @ Z @ Z
    return g, dg, Z, dx, dxi


def _phase_rhs(m: MetricField, x, xi):
    """Hamiltonian field of q: dx = 2 g^{-1} xi, dxi_i = (d_i g_ab) Z^a Z^b."""
    _, _, _, dx, dxi = _phase_core(m, x, xi)
    return dx, dxi


def hamiltonian_field(m: MetricField, p: PhasePoint):
    """(dx/dt, dxi/dt) of the q-flow at a phase point."""
    return _phase_rhs(m, p.x, p.xi)


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


def _frame_jet(m: MetricField, x):
    """(E, dE, E_inv) at x.  dE[k] is the k-th coordinate partial."""
    g, dg = _metric_jet(m, x)
    return _frame_jet_from(m, g, dg)


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


def _frame_from(m: MetricField, g):
    """(E, E_inv) from metric values, at one point or at a stack of points
    along leading axes of ``g`` (..., d, d).

    E = R^-1 for the factorization g = R^T eta R with R upper triangular and
    a positive diagonal: r = sqrt(-g_00) and s = -g_0,1: / r in the first
    row, and below them the transposed Cholesky factor of g[1:, 1:] + s s^T.
    That is time-first Gram-Schmidt of the coordinate basis in chart order;
    the squared diagonal of R holds its pivots.
    """
    d = m.dim
    eye, sig = _unit(d)
    if m.diagonal:
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


def _frame_jet_from(m: MetricField, g, dg):
    """(E, dE, E_inv) from an already computed metric jet, at one point or
    at a stack of points along leading axes of ``g`` (..., d, d) and ``dg``
    (..., d, d, d); the frame is ``_frame_from``'s.

    Differentiating g = R^T eta R, E^T dg_k E = X + X^T with X = eta dR_k E
    upper triangular, so X is the strict upper triangle plus half the
    diagonal of E^T dg_k E, and dE_k = -E dR_k E = -E eta X.  A diagonal
    metric has E = diag(|g_aa|^-1/2), whose partials are read off directly.
    """
    eye, sig = _unit(m.dim)
    E, Einv = _frame_from(m, g)
    if m.diagonal:
        piv = sig * g.diagonal(axis1=-2, axis2=-1)
        dpiv = sig * dg.diagonal(axis1=-2, axis2=-1)  # (..., k, a)
        dediag = -0.5 * piv[..., None, :] ** -1.5 * dpiv
        return E, dediag[..., None] * eye, Einv
    M = E.swapaxes(-1, -2)[..., None, :, :] @ dg @ E[..., None, :, :]
    dE = -(E * sig)[..., None, :, :] @ (np.triu(M) - 0.5 * eye * M)
    return E, dE, Einv


def orthonormal_frame(m: MetricField, x) -> FrameSample:
    """Orthonormal frame at x; deterministic, e_0 future-directed."""
    E, _, Einv = _frame_jet(m, x)
    return FrameSample(E=E, E_inv=Einv)


# ---------------------------------------------------------------------------
# steppers; a state is one array, a right-hand side f maps it to its rate

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
    order; zero coefficients are skipped."""
    acc = None
    for c, k in zip(row, ks):
        if c != 0.0:
            acc = (h * c) * k if acc is None else acc + (h * c) * k
    return y + acc


def _rk_step(f, y, k1, h, rows):
    """One step of the tableau ``rows`` from y, whose rate k1 = f(y) is
    given.

    Returns (y_new, ks): the stage rates, ending with f(y_new), which is
    the next step's k1.
    """
    ks = [k1]
    for row in rows:
        y_new = _combine(y, h, row, ks)
        ks.append(f(y_new))
    return y_new, ks


def _steps_for(t_end: float, step: float):
    n_full = int(math.floor(t_end / step + 1e-12))
    hs = [step] * n_full
    rem = t_end - n_full * step
    if rem > 1e-12 * max(1.0, t_end):
        hs.append(rem)
    return hs


def _check_seed(m: MetricField, p0: PhasePoint, t_end: float,
                null_tol: float, require_null: bool):
    """Reject a run before it starts: t_end, domain guard, null seed."""
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise ConfigError(f"t_end must be finite and positive, got {t_end}")
    if not m.domain_guard(p0.x):
        raise OutsideChart("initial point violates the domain guard")
    q0 = hamiltonian_q(m, p0.x, p0.xi)
    if require_null and abs(q0) >= null_tol * (1.0 + float(p0.xi @ p0.xi)):
        raise NotOnCharacteristicSet(f"|q(p0)| = {abs(q0)}")


# Accepted steps per block of stage records handed on by ``_flow``; bounds
# the records held at once, whatever the length of the run.
_BLOCK_STEPS = 16
# Dormand-Prince attempts (accepted plus rejected steps) allowed per unit of
# t, and for at least one unit, in one run.  The step floor alone does not
# bound a run: an error estimate that never shrinks like h^5 holds the step
# far above the floor for ever.
_ATTEMPTS_PER_T = 50_000


def _flow(m: MetricField, p0: PhasePoint, t_end: float, integrator: str,
          step: float, tol: float, on_block: Optional[Callable] = None):
    """Integrate the q-flow from p0 over [0, t_end] on the phase point
    packed as the array (x, xi).

    RK4 takes the grid of ``step``; Dormand-Prince picks its grid by error
    control at ``tol``.  A domain-guard violation (OutsideChart from any
    stage) truncates the run.

    Each rate evaluation leaves a record ``(xi, g, dg, Z, dx)`` of what
    ``_phase_core`` computed there.  The records of accepted steps go, in
    evaluation order, to ``on_block(hs, records)`` once per
    ``_BLOCK_STEPS`` steps and at the end: the first block opens with the
    seed's record, and a step of size hs[i] adds its stages after the
    first, the last of them at the step's new sample; both lists are
    cleared after the call.  Records of rejected steps and of a step cut
    off by the guard are dropped.
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
    d = m.dim
    stage, block, hs = [], [], []

    def f(y):
        g, dg, Z, dx, dxi = _phase_core(m, y[:d], y[d:])
        stage.append((y[d:], g, dg, Z, dx))
        return np.concatenate((dx, dxi))

    def flush():
        if on_block is not None:
            on_block(hs, block)
        hs.clear()
        block.clear()

    def accept(h):
        hs.append(h)
        block.extend(stage)
        stage.clear()
        if len(hs) == _BLOCK_STEPS:
            flush()

    y, t = np.concatenate((p0.x, p0.xi)), 0.0
    k = f(y)
    block.extend(stage)
    stage.clear()
    samples = [(t, y, k)]
    left = False
    try:
        if integrator == "rk4_fixed":
            for h in _steps_for(t_end, step):
                y, ks = _rk_step(f, y, k, h, _RK4_A)
                k = ks[-1]
                t += h
                samples.append((t, y, k))
                accept(h)
        else:
            h = min(t_end, max(tol ** 0.2, 1e-6))
            h_min = 1e-13 * max(1.0, t_end)
            max_attempts = int(_ATTEMPTS_PER_T * max(1.0, t_end))
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
                ynew, ks = _rk_step(f, y, k, h_try, _DP_A)
                err = ynew - _combine(y, h_try, _DP_B4, ks)
                sc = tol + tol * np.maximum(np.abs(y), np.abs(ynew))
                enorm = math.sqrt(float(np.sum((err / sc) ** 2)) / err.size)
                if enorm <= 1.0:
                    t += h_try
                    y, k = ynew, ks[-1]
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

    A domain-guard violation mid-run truncates the trajectory and sets
    ``left_chart`` instead of raising.
    """
    _check_seed(m, p0, t_end, null_tol, require_null)
    return _flow(m, p0, t_end, integrator, step, tol)


# ---------------------------------------------------------------------------
# sampling helpers


def random_chart_point(m: MetricField, rng: np.random.Generator) -> np.ndarray:
    if m.sample_box is None:
        raise ConfigError(f"metric {m.name} has no sample box")
    lo = m.sample_box[:, 0]
    hi = m.sample_box[:, 1]
    return lo + (hi - lo) * rng.random(m.dim)


def _null_projection(ginv, xi):
    """(xi with xi_0 moved to a root of q = 0, whether that root is real)
    for the inverse metric ginv, at one point or a stack of them.

    q is exactly quadratic in xi_0, so the root is the quadratic formula's;
    of the two, the one nearer the input xi_0 is kept (the first on a tie).
    """
    s = xi[..., 1:]
    a = ginv[..., 0, 0]
    b = 2.0 * (ginv[..., :1, 1:] @ s[..., :, None])[..., 0, 0]
    c = (s[..., None, :] @ ginv[..., 1:, 1:] @ s[..., :, None])[..., 0, 0]
    disc = b * b - 4.0 * a * c
    real = ~(disc < 0.0)
    r = np.sqrt(np.where(real, disc, 0.0))
    hi, lo = (-b + r) / (2.0 * a), (-b - r) / (2.0 * a)
    out = np.array(xi, dtype=float)
    out[..., 0] = np.where(np.abs(hi - xi[..., 0]) <= np.abs(lo - xi[..., 0]),
                           hi, lo)
    return out, real


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
    _, ginv = eval_metric(m, x)
    d = m.dim
    s = rng.normal(size=d - 1)
    s /= np.linalg.norm(s)
    a = ginv[0, 0]
    b = 2.0 * ginv[0, 1:] @ s
    c = s @ ginv[1:, 1:] @ s
    disc = b * b - 4.0 * a * c
    if disc <= 0.0:
        raise NotOnCharacteristicSet("chart has no null covector over this "
                                     "spatial direction")
    r = math.sqrt(disc)
    for root in ((-b + r) / (2.0 * a), (-b - r) / (2.0 * a)):
        xi = np.concatenate(([root], s))
        if (ginv @ xi)[0] > 0.0:
            return xi
    raise NotOnCharacteristicSet("no future-directed null root")


# ---------------------------------------------------------------------------
# metric catalog


def _diag_matrix(entries):
    """Diagonal float matrix."""
    a = np.array(entries)
    d = len(a)
    out = np.zeros(d * d)
    out[::d + 1] = a
    return out.reshape(d, d)


def minkowski(dim: int = 4) -> MetricField:
    if dim not in (2, 4):
        raise UnsupportedDimension(
            f"minkowski has dimensions 2 and 4, not {dim}")
    eta = np.diag([-1.0] + [1.0] * (dim - 1))
    zeros = np.zeros((dim, dim, dim))
    box = np.array([[-5.0, 5.0]] * dim)
    return MetricField(
        dim=dim,
        eval=lambda x: eta.copy(),
        d_eval=lambda x: zeros,
        name=f"minkowski{dim}",
        diagonal=True,
        sample_box=box,
    )


def minkowski_linear_chart(L: np.ndarray, name: str = "minkowski_linear") -> MetricField:
    """Flat metric written in coordinates y = L x (constant, generally
    non-diagonal)."""
    L = np.asarray(L, dtype=float)
    dim = L.shape[0]
    Linv = np.linalg.inv(L)
    eta = np.diag([-1.0] + [1.0] * (dim - 1))
    gB = Linv.T @ eta @ Linv
    zeros = np.zeros((dim, dim, dim))
    return MetricField(
        dim=dim,
        eval=lambda x: gB.copy(),
        d_eval=lambda x: zeros,
        name=name,
        diagonal=False,
        sample_box=np.array([[-5.0, 5.0]] * dim),
    )


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


def schwarzschild(mass: float = 1.0) -> MetricField:
    M = _mass(mass)
    r_min = 2.0 * M * (1.0 + _HORIZON_MARGIN)

    def ev(x):
        r, th = x[1], x[2]
        f = 1.0 - 2.0 * M / r
        s = np.sin(th)
        return _diag_matrix([-f, 1.0 / f, r * r, r * r * s * s])

    def dev(x):
        r, th = float(x[1]), float(x[2])
        f = 1.0 - 2.0 * M / r
        fp = 2.0 * M / (r * r)
        s, c = math.sin(th), math.cos(th)
        dg = np.zeros((4, 4, 4))
        dg[1, 0, 0] = -fp
        dg[1, 1, 1] = -fp / (f * f)
        dg[1, 2, 2] = 2.0 * r
        dg[1, 3, 3] = 2.0 * r * s * s
        dg[2, 3, 3] = 2.0 * r * r * s * c
        return dg

    def guard(x):
        return (x[1] >= r_min) and (np.sin(x[2]) >= _THETA_MARGIN)

    def margin(x):
        return min(float(x[1]) - r_min, math.sin(float(x[2])) - _THETA_MARGIN)

    box = np.array([[-5.0, 5.0], [3.0 * M, 50.0 * M],
                    [0.3, math.pi - 0.3], [0.0, 2.0 * math.pi]])
    return MetricField(
        dim=4, eval=ev, d_eval=dev,
        domain_guard=guard, guard_margin=margin,
        name=f"schwarzschild{mass:g}", diagonal=True, sample_box=box,
    )


def _iso_radius(r: float, M: float) -> float:
    return 0.5 * ((r - M) + math.sqrt(r * (r - 2.0 * M)))


def schwarzschild_isotropic(mass: float = 1.0) -> MetricField:
    """Same exterior geometry as ``schwarzschild`` with the radial coordinate
    replaced by its isotropic counterpart."""
    M = _mass(mass)
    rho_min = 0.5 * M * (1.0 + _HORIZON_MARGIN)

    def ev(x):
        rho, th = x[1], x[2]
        u = 1.0 + M / (2.0 * rho)
        A = (1.0 - M / (2.0 * rho)) / u
        s = np.sin(th)
        u4 = u * u * u * u
        return _diag_matrix([-A * A, u4, u4 * rho * rho,
                             u4 * rho * rho * s * s])

    def dev(x):
        rho, th = float(x[1]), float(x[2])
        u = 1.0 + M / (2.0 * rho)
        du = -M / (2.0 * rho * rho)
        A = (1.0 - M / (2.0 * rho)) / u
        dA = (M / (rho * rho)) / (u * u)
        s, c = math.sin(th), math.cos(th)
        u3, u4 = u**3, u**4
        dg = np.zeros((4, 4, 4))
        dg[1, 0, 0] = -2.0 * A * dA
        dg[1, 1, 1] = 4.0 * u3 * du
        dg[1, 2, 2] = 4.0 * u3 * du * rho * rho + 2.0 * u4 * rho
        dg[1, 3, 3] = dg[1, 2, 2] * s * s
        dg[2, 3, 3] = 2.0 * u4 * rho * rho * s * c
        return dg

    def guard(x):
        return (x[1] >= rho_min) and (np.sin(x[2]) >= _THETA_MARGIN)

    box = np.array([[-5.0, 5.0],
                    [_iso_radius(3.0 * M, M), _iso_radius(50.0 * M, M)],
                    [0.3, math.pi - 0.3], [0.0, 2.0 * math.pi]])
    return MetricField(
        dim=4, eval=ev, d_eval=dev,
        domain_guard=guard, name=f"schwarzschild_isotropic{mass:g}",
        diagonal=True, sample_box=box,
    )


_EXPR_FUNCS = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp,
    "log": np.log, "sqrt": np.sqrt, "sinh": np.sinh, "cosh": np.cosh,
    "tanh": np.tanh, "arctan": np.arctan,
    # |z| continued from the sign of the real part, so that a complex step
    # through it differentiates |x| rather than the modulus
    "abs": lambda z: np.where(np.real(z) < 0.0, -z, z),
}
_EXPR_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub,
                ast.Mult: operator.mul, ast.Div: operator.truediv,
                ast.Pow: operator.pow}
_EXPR_UNOPS = {ast.UAdd: operator.pos, ast.USub: operator.neg}
_CS_STEP = 1e-30


def _parse_expr(expr: str, names: dict):
    """Compile an arithmetic expression into a function of a point ``pt``.

    Accepted: numeric constants (evaluated as float64, so ``9**9**9``
    overflows instead of growing an integer), the coordinate ``names``
    (bound to ``pt[names[id]]``), ``pi``, ``+ - * / **``, unary ``+ -``
    and one-argument calls of ``_EXPR_FUNCS``.  Any other node raises
    ConfigError, so an expression reaches nothing else in the interpreter.
    """
    def build(node):
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            c = np.float64(node.value)
            return lambda pt: c
        if isinstance(node, ast.Name) and node.id in names:
            i = names[node.id]
            return lambda pt: pt[i]
        if isinstance(node, ast.Name) and node.id == "pi":
            return lambda pt: math.pi
        if isinstance(node, ast.BinOp) and type(node.op) in _EXPR_BINOPS:
            op = _EXPR_BINOPS[type(node.op)]
            a, b = build(node.left), build(node.right)
            return lambda pt: op(a(pt), b(pt))
        if isinstance(node, ast.UnaryOp) and type(node.op) in _EXPR_UNOPS:
            op, a = _EXPR_UNOPS[type(node.op)], build(node.operand)
            return lambda pt: op(a(pt))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _EXPR_FUNCS and len(node.args) == 1
                and not node.keywords):
            fn, a = _EXPR_FUNCS[node.func.id], build(node.args[0])
            return lambda pt: fn(a(pt))
        what = (f"name {node.id!r}" if isinstance(node, ast.Name)
                else type(node).__name__)
        raise ConfigError(f"conformal factor {expr!r}: {what} is not allowed")

    try:
        return build(ast.parse(expr, mode="eval").body)
    except (SyntaxError, ValueError, RecursionError) as e:
        raise ConfigError(f"conformal factor {expr!r} does not parse: {e}") \
            from None


def conformal_flat(omega: str, dim: int = 4) -> MetricField:
    """g = Omega(x)^2 * eta for an expression ``omega`` in x0..x{dim-1}
    (aliases t, x, y, z when dim == 4), restricted as ``_parse_expr`` says.

    ``d_eval`` takes d_k Omega by a complex step, Im Omega(x + i h e_k) / h
    with h = 1e-30, which has no subtractive cancellation.
    """
    expr = str(omega)
    names = {f"x{i}": i for i in range(dim)}
    if dim == 4:
        names.update(t=0, x=1, y=2, z=3)
    om = _parse_expr(expr, names)
    eta = np.diag([-1.0] + [1.0] * (dim - 1))
    steps = 1j * _CS_STEP * np.eye(dim)

    def ev(x):
        w = om(x)
        return w * w * eta

    def dev(x):
        # row i of the stepped point is coordinate i in each of the dim
        # step directions, so one evaluation gives every d_k Omega
        dw = np.broadcast_to(np.imag(om(x[:, None] + steps)), (dim,))
        return (2.0 * om(x) * dw / _CS_STEP)[:, None, None] * eta

    def guard(x):
        # the metric Omega^2 eta must be finite; NaN fails both tests
        w = abs(float(om(x)))
        return w > 1e-6 and w * w < math.inf

    return MetricField(
        dim=dim, eval=ev, d_eval=dev,
        domain_guard=guard, name="conformal_flat{" + expr + "}",
        diagonal=True, sample_box=np.array([[-2.0, 2.0]] * dim),
    )


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
