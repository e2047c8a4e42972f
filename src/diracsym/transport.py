"""Polarization transport along null bicharacteristics.

Two parallel-transport laws carry a polarization along a null ray: the
symbol-level connection dw/dt = -(M(t) - kappa(t) Id) w with M = (1/2)
{sigma_tilde, sigma_1} + i sigma_tilde sigma^s, and the pulled-back spinor
connection ds/dt = -omega(x; xdot) s.  ``transport_denker`` and
``transport_spin`` each run one law, ``compare_transports`` runs both over
the identical grid and reports the gap; the central numerical claim of the
package is that this gap is pure integrator error.

The scalar kappa = (1/2) Z^mu d_mu log|det g| is the rate of the metric
half-density along the flow.  The subprincipal calculus behind the
symbol-level connection is invariant for operators acting on half-density
sections; transporting plain spinor components in a coordinate
trivialization therefore picks up exactly this gauge rate.  Dropping it
leaves a step-independent gap |exp(int kappa dt) - 1| between the two
transports (a pure scale factor on the polarization line).

The Hamiltonian flow of q does not depend on the polarization, and both
laws are linear in it along that flow.  So a transport runs the phase flow
first, with the trajectory integrator's own code and grid; its ray is
``integrate_bicharacteristic``'s, bit for bit.  The flow hands on what it
computed at the stages of its accepted steps, records (xi, g, dg, Z), in
blocks of 64 steps; one stacked engine call per block forms the frame
components F of dg and from F each law's matrix L at every stage, a few
stacked products turn those into each step's increment operator D under
the flow's own tableau, and a polarization advances as w + D w, one small
product per step.  The sections equal those of a joint ray-and-polarization
integration to roundoff, are bit for bit the same for any block size, and do
not depend on whether the other law rides along.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .clifford import CliffordModuleRep, build_canonical_module
from .errors import (
    ChartMapDegenerate,
    ConfigError,
    KernelViolation,
)
from .geometry import (
    MetricField,
    PhasePoint,
    Trajectory,
    _DP_A,
    _RK4_A,
    _check_seed,
    _combine,
    _flow,
    _frame_from,
    _metric_value,
)
from .symbols import FirstOrderSystem, SymbolPackage, _StageEngine, \
    _dirac_backed, dirac_system

__all__ = [
    "PolarizationState",
    "HamiltonianOrbit",
    "TransportReport",
    "ChartMap",
    "denker_generator",
    "transport_denker",
    "transport_spin",
    "compare_transports",
    "covariance_check",
    "identity_map",
    "minkowski_boost_map",
    "schwarzschild_isotropic_map",
]


@dataclass
class PolarizationState:
    phase: PhasePoint
    w: np.ndarray

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=complex)


@dataclass
class HamiltonianOrbit:
    """A spanning section w(t_i) of the polarization line along an orbit.
    A summary the law does not compute is None."""

    trajectory: Trajectory
    sections: list
    method: str
    kernel_residuals: Optional[np.ndarray] = None
    product_drift: Optional[float] = None
    generator_norm_integral: Optional[float] = None


@dataclass
class TransportReport:
    max_gap: float
    max_kernel_residual: float
    q_drift: float
    t_end: float
    step: Optional[float]
    fixture: str = ""
    left_chart: bool = False
    product_drift: float = 0.0
    generator_norm_integral: float = 0.0
    flip_subprincipal: bool = False
    trajectory: Trajectory = field(default=None, repr=False)
    orbit_denker: HamiltonianOrbit = field(default=None, repr=False)
    orbit_spin: HamiltonianOrbit = field(default=None, repr=False)

    def to_dict(self):
        return {
            "fixture": self.fixture,
            "t_end": self.t_end,
            "step": self.step,
            "max_gap": self.max_gap,
            "max_kernel_residual": self.max_kernel_residual,
            "q_drift": self.q_drift,
            "left_chart": self.left_chart,
            "product_drift": self.product_drift,
            "generator_norm_integral": self.generator_norm_integral,
            "flip_subprincipal": self.flip_subprincipal,
        }


def denker_generator(pkg: SymbolPackage) -> np.ndarray:
    """M = (1/2) bracket + i sigma_tilde sigma^s at one phase point.

    Along a bicharacteristic the parallel equation reads dw/dt = -M(t) w;
    the Hamiltonian-derivative part of the connection is the parameter
    derivative in the fixed trivialization.
    """
    return 0.5 * pkg.bracket + 1j * (pkg.sigma_tilde @ pkg.p_sub)


class _Recursion:
    """Polarizations along a phase flow, one block of its accepted steps
    at a time (``_flow``'s ``on_block``).

    One stacked engine call evaluates the block's stage records, giving
    each law's matrix L at every stage: the generator M - kappa Id of the
    symbol-level law when ``sign`` is set, then omega(x; xdot) of the
    spinor law when ``spin``.  Both laws are linear, dw/dt = -L w, so a
    step of the flow's own tableau ``rows`` (a = rows[:-1], b = rows[-1])
    takes the polarizations V (law, N, 1) to V + D V, with the increment
    operator formed for every step of the block and both laws at once:
    P_1 = L_1, P_j = L_j + L_j S_j with S_j = sum_k a_jk (-h) P_k, and
    D = sum_j b_j (-h) P_j.  Stage 1 of a step reads the previous step's
    last record, the seed's in the first block and carried across blocks
    after that.  V itself is stepped, V + D V, never multiplied by the
    propagator I + D, whose rounding grows the gap of long rays.  The
    negative-control sign flips only the subprincipal term: the
    kernel-restricted theorem predicts a scale defect exp(2 int kappa) for
    the wrong sign, while the gauge scalar is part of the trivialization,
    not of the operator data.  Keeps V, xi, E and the first law's L at
    every sample.
    """

    def __init__(self, eng: _StageEngine, V0, sign: Optional[float],
                 spin: bool, rows):
        self.eng, self.sign, self.spin = eng, sign, spin
        self.a, self.b = rows[:-1], rows[-1]
        self.V, self.last = V0, None  # last: L at the latest sample
        self.Vs, self.xis, self.Es, self.L0s = [], [], [], []

    def __call__(self, hs, records):
        st = self.eng.at(*map(np.array, zip(*records)))
        laws = ([st.generator(self.sign)] if self.sign is not None else []) \
            + ([st.omega_dot] if self.spin else [])
        L = np.stack(laws, axis=1)
        s = len(self.a) + 1  # records per step, one per row of the tableau
        first = self.last is None  # the first block opens with the seed
        # index arrays and the copied carry hold no view of a finished
        # block's arrays, which would stay alive to the end of the run
        kept = np.arange(0 if first else s - 1, len(records), s)
        self.xis.append(st.xi[kept])
        self.Es.append(st.E[kept])
        self.L0s.append(L[kept, 0])
        if first:
            self.Vs.append(self.V)
        else:
            L = np.concatenate((self.last, L))
        self.last = L[-1:].copy()
        Ls = L[:-1].reshape((len(hs), s) + L.shape[1:])
        mh = -np.asarray(hs)[:, None, None, None]
        P = [Ls[:, 0]]
        for j, row in enumerate(self.a, start=1):
            S = _combine(0.0, mh, row, P)  # sum_k a_jk (-h) P_k
            P.append(Ls[:, j] + Ls[:, j] @ S)
        V = self.V
        for D in _combine(0.0, mh, self.b, P):  # sum_j b_j (-h) P_j
            V = V + D @ V
            self.Vs.append(V)
        self.V = V


def _transport_run(eng: _StageEngine, state: PolarizationState,
                   sign: Optional[float], spin: bool, t_end: float,
                   null_tol: float, kernel_tol: float = None, **flow):
    """Carry ``state.w`` along the q-flow from the null seed ``state.phase``
    by each law (the symbol-level one with subprincipal ``sign`` unless it
    is None, then the spinor one if ``spin``): the phase flow first, whose
    stage records feed ``_Recursion`` block by block (``flow`` holds
    integrator, step, tol).

    Every law refuses a ``state.w`` that is zero or not finite, and the
    symbol-level law needs it in the kernel of sigma_1 to ``kernel_tol``.
    Returns (trajectory, V, sections per law, relative kernel residuals
    |sigma_1 v| / |v| and matrices L of the first law), with V[i, j] the
    polarization of law j at sample i.
    """
    p0 = state.phase
    _check_seed(eng.m, p0, t_end, null_tol, require_null=True)
    w0 = state.w
    if w0.shape != (eng.N,):
        raise ConfigError(f"initial polarization has shape {w0.shape}, "
                          f"expected ({eng.N},)")
    nw = _initial_norm(w0)
    if sign is not None:
        E = _frame_from(eng.m, _metric_value(eng.m, p0.x))[0]
        _initial_kernel_check(eng.sigma1(p0.xi, E), w0, nw, kernel_tol)
    n_laws = (sign is not None) + spin
    rows = _RK4_A if flow["integrator"] == "rk4_fixed" else _DP_A
    rec = _Recursion(eng, np.array([w0] * n_laws)[:, :, None], sign, spin,
                     rows)
    traj = _flow(eng.m, p0, t_end, on_block=rec, **flow)
    V = np.array(rec.Vs)[..., 0]
    s1 = eng.sigma1(np.concatenate(rec.xis), np.concatenate(rec.Es))
    r = np.linalg.norm(s1 @ V[:, 0, :, None], axis=(1, 2))
    nv = np.linalg.norm(V[:, 0], axis=1)
    resid = np.divide(r, nv, out=np.full_like(r, np.inf), where=nv > 0.0)
    sections = [list(V[:, j]) for j in range(n_laws)]
    return traj, V, sections, resid, np.concatenate(rec.L0s)


def _generator_norm_integral(ts, M) -> float:
    """Trapezoid integral of |M - kappa Id| over the samples."""
    norms = np.linalg.norm(M, axis=(1, 2))
    hs = np.diff(ts)
    return float(np.sum(0.5 * hs * (norms[:-1] + norms[1:])))


def _product_drift(G, S) -> float:
    """max |<s, s> - <s0, s0>| of the indefinite product over the samples."""
    prods = np.real(np.sum(S.conj() * (S @ G.T), axis=1))
    return float(np.max(np.abs(prods - prods[0])))


def _initial_norm(w0) -> float:
    """|w0|, once w0 is neither zero nor non-finite."""
    nw = float(np.linalg.norm(w0))
    if not 0.0 < nw < np.inf:
        raise KernelViolation(f"initial polarization vector has norm {nw}")
    return nw


def _initial_kernel_check(sigma1, w0, nw, kernel_tol):
    """Refuse a w0 of norm nw that is off sigma1's kernel."""
    res = float(np.linalg.norm(sigma1 @ w0))
    if not res <= kernel_tol * nw:
        raise KernelViolation(
            f"initial vector off the kernel: residual {res} > "
            f"{kernel_tol} * {nw}")


def transport_denker(sys: FirstOrderSystem, state: PolarizationState,
                     t_end: float, step: float = 1e-3,
                     integrator: str = "rk4_fixed", tol: float = 1e-10,
                     kernel_tol: float = 1e-8, null_tol: float = 1e-10,
                     flip_subprincipal: bool = False) -> HamiltonianOrbit:
    """Integrate the null ray from ``state.phase`` and dw/dt = -(M(t) -
    kappa(t) Id) w from ``state.w`` jointly; the orbit holds the ray.
    ``sys`` must be its module's own Dirac system: the engine reads ``rep``."""
    if not _dirac_backed(sys.rep, sys):
        raise ConfigError("transport_denker needs a system built by "
                          "dirac_system")
    sign = -1.0 if flip_subprincipal else 1.0
    traj, _, (sections,), resid, L = _transport_run(
        _StageEngine(sys.rep), state, sign, False, t_end,
        null_tol, kernel_tol, integrator=integrator, step=step, tol=tol)
    return HamiltonianOrbit(
        trajectory=traj, sections=sections, method="denker",
        kernel_residuals=resid,
        generator_norm_integral=_generator_norm_integral(traj.ts, L),
    )


def transport_spin(rep: CliffordModuleRep, state: PolarizationState,
                   t_end: float, step: float = 1e-3,
                   integrator: str = "rk4_fixed",
                   tol: float = 1e-10) -> HamiltonianOrbit:
    """Integrate the null ray from ``state.phase`` and ds/dt = -omega(x;
    xdot) s from ``state.w`` jointly; the orbit holds the ray."""
    traj, V, (sections,), resid, _ = _transport_run(
        _StageEngine(rep), state, None, True, t_end, 1e-10,
        integrator=integrator, step=step, tol=tol)
    return HamiltonianOrbit(
        trajectory=traj, sections=sections, method="spin_pullback",
        kernel_residuals=resid,
        product_drift=_product_drift(rep.gram, V[:, 0]),
    )


def compare_transports(rep: CliffordModuleRep, sys: FirstOrderSystem,
                       state: PolarizationState, t_end: float,
                       step: float = 1e-3,
                       integrator: str = "rk4_fixed",
                       tol: float = 1e-10,
                       kernel_tol: float = 1e-8,
                       null_tol: float = 1e-10,
                       flip_subprincipal: bool = False) -> TransportReport:
    """One trajectory, both transports on its exact grid, gap report.

    Both polarizations start from w0 and ride the one phase flow, whose
    grid, chart truncation and phase samples are those of
    ``integrate_bicharacteristic`` bit for bit, so the comparison carries
    no discretization asymmetry.  The engine reads every matrix off
    ``rep``, so ``sys`` must be ``rep``'s own Dirac system.
    """
    if not _dirac_backed(rep, sys):
        raise ConfigError("compare_transports needs sys = dirac_system(rep)")
    sign = -1.0 if flip_subprincipal else 1.0
    traj, V, (wd, ws), resid, L = _transport_run(
        _StageEngine(rep), state, sign, True, t_end, null_tol,
        kernel_tol, integrator=integrator, step=step, tol=tol)
    gaps = np.linalg.norm(V[:, 0] - V[:, 1], axis=1) / float(
        np.linalg.norm(state.w))
    integral = _generator_norm_integral(traj.ts, L)
    report = TransportReport(
        max_gap=float(np.max(gaps)),
        max_kernel_residual=float(np.max(resid)),
        q_drift=float(np.max(np.abs(traj.qs - traj.qs[0]))),
        t_end=t_end, step=step if integrator == "rk4_fixed" else None,
        fixture=rep.metric.name, left_chart=traj.left_chart,
        product_drift=_product_drift(rep.gram, V[:, 1]),
        generator_norm_integral=integral,
        flip_subprincipal=flip_subprincipal,
        trajectory=traj,
    )
    report.orbit_denker = HamiltonianOrbit(
        trajectory=traj, sections=wd, method="denker",
        kernel_residuals=resid, generator_norm_integral=integral)
    report.orbit_spin = HamiltonianOrbit(
        trajectory=traj, sections=ws, method="spin_pullback",
        kernel_residuals=None, product_drift=report.product_drift)
    return report


# ---------------------------------------------------------------------------
# chart covariance


@dataclass
class ChartMap:
    """Explicit diffeomorphism between two charts of one geometry.

    ``forward`` maps chart-A points to chart-B points and ``jacobian``
    returns dy/dx there, both at points along leading axes ``(..., d)``;
    covectors transfer by the inverse transpose, spinor components by the
    conjugation that the induced frame change defines.
    """

    name: str
    metric_a: MetricField
    metric_b: MetricField
    forward: Callable
    jacobian: Callable


def _push_forward(cm: ChartMap, rep: CliffordModuleRep, xs, xis, ws):
    """Chart-A points, covectors and polarizations, stacked along the first
    axis, mapped to chart B: points by the map, covectors by the inverse
    transpose of its jacobian J, polarizations by the spinor of the frame
    change L = E_B^-1 J E_A.  J must be regular and L Lorentz."""
    def frames(m, pts):
        return _frame_from(m, np.array([_metric_value(m, p) for p in pts]))

    J = np.asarray(cm.jacobian(xs), dtype=float)
    bad = np.abs(np.linalg.det(J)) < 1e-12
    if np.any(bad):
        raise ChartMapDegenerate(
            f"jacobian of {cm.name} singular at {xs[bad][0]}")
    y = np.asarray(cm.forward(xs), dtype=float)
    L = frames(cm.metric_b, y)[1] @ J @ frames(cm.metric_a, xs)[0]
    eta = rep.eta
    bad = np.max(np.abs(L.swapaxes(1, 2) @ eta @ L - eta), axis=(1, 2)) > 1e-8
    if np.any(bad):
        raise ChartMapDegenerate(f"induced frame change of {cm.name} is not "
                                 f"a Lorentz matrix at {xs[bad][0]}")
    xib = np.linalg.solve(J.swapaxes(1, 2), xis[..., None])[..., 0]
    return y, xib, (_spinor_rep_of(L, rep) @ ws[..., None])[..., 0]


def _spinor_rep_of(L, rep: CliffordModuleRep) -> np.ndarray:
    """Spinor representatives T of proper orthochronous Lorentz matrices L
    along leading axes: T Gamma(v) T^-1 = Gamma(L v) for frame vectors v.

    T spans the null space of T -> T gamma_b - (sum_a L^a_b gamma_a) T,
    one-dimensional as the module is irreducible (Schur's lemma).  Scaled
    to det T = 1 it is fixed up to an N-th root of unity, and the root with
    the largest Re tr T gives exp(-S/4) for the principal generator S of L.
    """
    L = np.asarray(L, dtype=float)
    if np.any(np.linalg.det(L) <= 0.0) or np.any(L[..., 0, 0] <= 0.0):
        raise ChartMapDegenerate("frame change outside the identity component")
    if L.ndim == 3 and len(L) > 256:  # A below takes 16 kB per matrix
        return np.concatenate([_spinor_rep_of(L[i:i + 256], rep)
                               for i in range(0, len(L), 256)])
    stack, d, N = L.shape[:-2], L.shape[-1], rep.N
    g, eye = np.stack(rep.gammas), np.eye(N)
    M = np.einsum("...ab,aij->...bij", L, g)
    # row (b, i, j), column (k, l): the coefficient of T_kl in entry (i, j)
    # of T gamma_b - M_b T
    A = (np.einsum("ik,blj->bijkl", eye, g)
         - np.einsum("...bik,jl->...bijkl", M, eye))
    Vh = np.linalg.svd(A.reshape(stack + (-1, N * N)), full_matrices=False)[2]
    T = Vh[..., -1, :].conj().reshape(stack + (N, N))
    c = np.exp(2j * np.pi / N * np.arange(N)) / (
        np.linalg.det(T)[..., None] ** (1.0 / N))
    k = np.argmax((c * np.trace(T, axis1=-2, axis2=-1)[..., None]).real, -1)
    T = T * np.take_along_axis(c, k[..., None], -1)[..., None]
    near = np.max(np.abs(L - np.eye(d)), axis=(-2, -1)) < 1e-12
    return np.where(near[..., None, None], eye, T)


def identity_map(m: MetricField) -> ChartMap:
    eye = np.eye(m.dim)
    return ChartMap(
        name="identity", metric_a=m, metric_b=m,
        forward=lambda x: np.array(x, dtype=float),
        jacobian=lambda x: np.broadcast_to(eye, np.shape(x)[:-1] + eye.shape),
    )


def minkowski_boost_map(v: float, axis: int = 1) -> ChartMap:
    """Minkowski chart boosted with velocity v along one spatial axis."""
    from .geometry import minkowski

    if not -1.0 < v < 1.0:
        raise ConfigError("boost velocity must satisfy |v| < 1")
    gamma = 1.0 / np.sqrt(1.0 - v * v)
    L = np.eye(4)
    L[0, 0] = L[axis, axis] = gamma
    L[0, axis] = L[axis, 0] = -gamma * v
    return ChartMap(
        name=f"boost(v={v},axis={axis})",
        metric_a=minkowski(4), metric_b=minkowski(4),
        forward=lambda x: np.asarray(x, dtype=float) @ L.T,
        jacobian=lambda x: np.broadcast_to(L, np.shape(x)[:-1] + L.shape),
    )


def schwarzschild_isotropic_map(mass: float = 1.0) -> ChartMap:
    """Areal-radius chart to isotropic-radius chart of the same exterior."""
    from .geometry import schwarzschild, schwarzschild_isotropic

    M = float(mass)

    def forward(x):
        y = np.array(x, dtype=float)
        r = y[..., 1]
        y[..., 1] = 0.5 * ((r - M) + np.sqrt(r * (r - 2.0 * M)))
        return y

    def jacobian(x):
        r = np.asarray(x, dtype=float)[..., 1]
        J = np.eye(4) * np.ones(r.shape + (1, 1))
        J[..., 1, 1] = 0.5 * (1.0 + (r - M) / np.sqrt(r * (r - 2.0 * M)))
        return J

    return ChartMap(
        name=f"schwarzschild_areal_to_isotropic(M={mass:g})",
        metric_a=schwarzschild(M), metric_b=schwarzschild_isotropic(M),
        forward=forward, jacobian=jacobian,
    )


def covariance_check(cm: ChartMap, state_a: PolarizationState, t_end: float,
                     step: float = 1e-3,
                     kernel_tol: float = 1e-8) -> dict:
    """Run the same physical ray in both charts and compare.

    The chart-A samples of the ray go to chart B in one ``_push_forward``
    call; reports normalized sup discrepancies against the chart-B run
    over the common grid.
    """
    rep_a = build_canonical_module(cm.metric_a)
    rep_b = build_canonical_module(cm.metric_b)

    y0, xi0, w0 = _push_forward(cm, rep_a, state_a.phase.x[None],
                                state_a.phase.xi[None], state_a.w[None])
    state_b = PolarizationState(PhasePoint(y0[0], xi0[0]), w0[0])

    report_a = compare_transports(rep_a, dirac_system(rep_a), state_a, t_end,
                                  step=step, kernel_tol=kernel_tol)
    report_b = compare_transports(rep_b, dirac_system(rep_b), state_b, t_end,
                                  step=step, kernel_tol=kernel_tol)
    ta, tb = report_a.trajectory, report_b.trajectory
    n = min(ta.n, tb.n)
    y, xi, w = _push_forward(cm, rep_a, ta.xs[:n], ta.xis[:n],
                             np.array(report_a.orbit_denker.sections[:n]))
    wb = np.array(report_b.orbit_denker.sections[:n])
    dx = np.max(np.abs(tb.xs[:n] - y), axis=1) / (
        1.0 + np.max(np.abs(y), axis=1))
    dxi = np.max(np.abs(tb.xis[:n] - xi), axis=1) / np.linalg.norm(xi, axis=1)
    dw = np.linalg.norm(wb - w, axis=1) / float(np.linalg.norm(state_a.w))

    return {
        "chart_map": cm.name,
        "fixture_a": cm.metric_a.name,
        "fixture_b": cm.metric_b.name,
        "t_end": t_end,
        "step": step,
        "samples_compared": int(n),
        "max_x_discrepancy": float(np.max(dx)),
        "max_xi_discrepancy": float(np.max(dxi)),
        "max_w_discrepancy": float(np.max(dw)),
        "max_gap_a": report_a.max_gap,
        "max_gap_b": report_b.max_gap,
        "left_chart": bool(ta.left_chart or tb.left_chart),
    }
