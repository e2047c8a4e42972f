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
computed at the stages of its accepted steps, block by block; one stacked
engine call per block turns them into each law's matrix L at every stage,
and the polarizations follow the linear recursion k = -(L @ w) through the
same step function.  A law's sections do not depend on whether the other
law rides along.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.linalg

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
    _check_seed,
    _dopri_step,
    _flow,
    _rk4_step,
)
from .symbols import FirstOrderSystem, SymbolPackage, _StageEngine, dirac_system

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
    """A spanning section w(t_i) of the polarization line along an orbit."""

    trajectory: Trajectory
    sections: list
    method: str
    kernel_residuals: np.ndarray = None
    product_drift: float = 0.0
    generator_norm_integral: float = 0.0


@dataclass
class TransportReport:
    max_gap: float
    max_kernel_residual: float
    q_drift: float
    convergence_ratio: Optional[float]
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
            "convergence_ratio": self.convergence_ratio,
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
    spinor law when ``spin``.  The stacked polarizations V (law, N, 1)
    follow the linear recursion k = -(L_stage @ V) through ``stepper``,
    the flow's own step function, so stage j of the recursion reads record
    j.  The negative-control sign flips only the subprincipal term: the
    kernel-restricted theorem predicts a scale defect exp(2 int kappa) for
    the wrong sign, while the gauge scalar is part of the trivialization,
    not of the operator data.  Keeps V, xi, E and the first law's L at
    every sample.
    """

    def __init__(self, eng: _StageEngine, V0, sign: Optional[float],
                 spin: bool, stepper):
        self.eng, self.sign, self.spin, self.stepper = eng, sign, spin, stepper
        self.V, self.k = V0, None
        self.Vs, self.xis, self.Es, self.L0s = [], [], [], []

    def __call__(self, hs, records):
        st = self.eng.at(*map(np.array, zip(*records)))
        laws = ([st.generator(self.sign)] if self.sign is not None else []) \
            + ([st.omega_dot] if self.spin else [])
        L = np.stack(laws, axis=1)
        j = -1

        def f(V):
            nonlocal j
            j += 1
            return -(L[j] @ V)

        kept = []
        if self.k is None:  # the first block opens with the seed
            self.k = f(self.V)
            kept.append(j)
            self.Vs.append(self.V)
        for h in hs:
            self.V, ks = self.stepper(f, self.V, self.k, h)
            self.k = ks[-1]
            kept.append(j)
            self.Vs.append(self.V)
        self.xis.append(st.xi[kept])
        self.Es.append(st.E[kept])
        self.L0s.append(L[kept, 0])


def _transport_run(eng: _StageEngine, state: PolarizationState,
                   sign: Optional[float], spin: bool, t_end: float,
                   null_tol: float, kernel_tol: float = None, **flow):
    """Carry ``state.w`` along the q-flow from the null seed ``state.phase``
    by each law (the symbol-level one with subprincipal ``sign`` unless it
    is None, then the spinor one if ``spin``): the phase flow first, whose
    stage records feed ``_Recursion`` block by block (``flow`` holds
    integrator, step, tol).

    The symbol-level law needs ``state.w`` in the kernel of sigma_1 to
    ``kernel_tol``.  Returns (trajectory, V, sections per law, relative
    kernel residuals |sigma_1 v| / |v| and matrices L of the first law),
    with V[i, j] the polarization of law j at sample i.
    """
    p0 = state.phase
    _check_seed(eng.m, p0, t_end, null_tol, require_null=True)
    w0 = state.w
    if w0.shape != (eng.N,):
        raise ConfigError(f"initial polarization has shape {w0.shape}, "
                          f"expected ({eng.N},)")
    if sign is not None:
        _initial_kernel_check(eng(p0.x, p0.xi).sigma1, w0, kernel_tol)
    n_laws = (sign is not None) + spin
    stepper = _rk4_step if flow["integrator"] == "rk4_fixed" else _dopri_step
    rec = _Recursion(eng, np.array([w0] * n_laws)[:, :, None], sign, spin,
                     stepper)
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


def _require_dirac_backed(sys: FirstOrderSystem):
    if sys.rep is None or sys.metric is None:
        raise ConfigError(
            "transport needs a Dirac-backed system (built by dirac_system)")


def _initial_kernel_check(sigma1, w0, kernel_tol):
    nw = float(np.linalg.norm(w0))
    if nw == 0.0:
        raise KernelViolation("zero initial polarization vector")
    res = float(np.linalg.norm(sigma1 @ w0))
    if res > kernel_tol * nw:
        raise KernelViolation(
            f"initial vector off the kernel: residual {res} > "
            f"{kernel_tol} * {nw}")


def transport_denker(sys: FirstOrderSystem, state: PolarizationState,
                     t_end: float, step: float = 1e-3,
                     integrator: str = "rk4_fixed", tol: float = 1e-10,
                     kernel_tol: float = 1e-8, null_tol: float = 1e-10,
                     flip_subprincipal: bool = False) -> HamiltonianOrbit:
    """Integrate the null ray from ``state.phase`` and dw/dt = -(M(t) -
    kappa(t) Id) w from ``state.w`` jointly; the orbit holds the ray."""
    _require_dirac_backed(sys)
    sign = -1.0 if flip_subprincipal else 1.0
    traj, _, (sections,), resid, L = _transport_run(
        _StageEngine(sys.rep, sys.metric), state, sign, False, t_end,
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
                       convergence: bool = False,
                       flip_subprincipal: bool = False) -> TransportReport:
    """One trajectory, both transports on its exact grid, gap report.

    The phase point and the two polarization vectors, both starting from
    w0, evolve inside one joint integration that also records the
    trajectory: its grid, chart truncation and phase samples are those of
    ``integrate_bicharacteristic`` bit for bit, and the comparison carries
    no discretization asymmetry.  ``convergence=True`` reruns at half step
    and reports the max_gap shrink factor.
    """
    _require_dirac_backed(sys)
    m = sys.metric
    sign = -1.0 if flip_subprincipal else 1.0
    traj, V, (wd, ws), resid, L = _transport_run(
        _StageEngine(rep, m), state, sign, True, t_end, null_tol,
        kernel_tol, integrator=integrator, step=step, tol=tol)
    gaps = np.linalg.norm(V[:, 0] - V[:, 1], axis=1) / float(
        np.linalg.norm(state.w))
    integral = _generator_norm_integral(traj.ts, L)

    ratio = None
    if convergence and integrator == "rk4_fixed" and not traj.left_chart:
        half = compare_transports(
            rep, sys, state, t_end, step=0.5 * step, integrator=integrator,
            tol=tol, kernel_tol=kernel_tol, null_tol=null_tol,
            convergence=False, flip_subprincipal=flip_subprincipal)
        if half.max_gap > 1e-16 and np.max(gaps) > 1e-15:
            ratio = float(np.max(gaps) / half.max_gap)

    report = TransportReport(
        max_gap=float(np.max(gaps)),
        max_kernel_residual=float(np.max(resid)),
        q_drift=float(np.max(np.abs(traj.qs - traj.qs[0]))),
        convergence_ratio=ratio,
        t_end=t_end, step=step if integrator == "rk4_fixed" else None,
        fixture=m.name, left_chart=traj.left_chart,
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

    ``forward`` maps chart-A points to chart-B points, ``jacobian`` returns
    dy/dx there; covectors transfer by the inverse transpose, spinors by the
    frame-change conjugation (supplied or derived from both frames).
    """

    name: str
    metric_a: MetricField
    metric_b: MetricField
    forward: Callable
    jacobian: Callable
    spinor_transfer: Optional[Callable] = None


def _frame_change(cm: ChartMap, rep_a: CliffordModuleRep,
                  rep_b: CliffordModuleRep, x):
    from .geometry import orthonormal_frame

    J = np.asarray(cm.jacobian(x), dtype=float)
    if abs(np.linalg.det(J)) < 1e-12:
        raise ChartMapDegenerate(f"jacobian of {cm.name} singular at {x}")
    y = np.asarray(cm.forward(x), dtype=float)
    EA = orthonormal_frame(cm.metric_a, x).E
    sB = orthonormal_frame(cm.metric_b, y)
    L = sB.E_inv @ J @ EA
    eta = rep_a.eta
    if np.max(np.abs(L.T @ eta @ L - eta)) > 1e-8:
        raise ChartMapDegenerate(
            f"induced frame change of {cm.name} is not a Lorentz matrix")
    return L


def _spinor_rep_of(L, rep: CliffordModuleRep) -> np.ndarray:
    """Spinor representative T of a proper orthochronous Lorentz matrix L:
    T Gamma(v) T^-1 = Gamma(L v) for frame vectors v."""
    if np.max(np.abs(L - np.eye(L.shape[0]))) < 1e-12:
        return np.eye(rep.N, dtype=complex)
    lam = scipy.linalg.logm(L)
    if np.max(np.abs(lam.imag)) > 1e-10:
        raise ChartMapDegenerate("frame change outside the identity component")
    lam_low = rep.eta @ lam.real
    S = np.einsum("ab,abij->ij", lam_low, rep._pair_products)
    return scipy.linalg.expm(-0.25 * S)


def identity_map(m: MetricField) -> ChartMap:
    d = m.dim
    return ChartMap(
        name="identity", metric_a=m, metric_b=m,
        forward=lambda x: np.asarray(x, dtype=float).copy(),
        jacobian=lambda x: np.eye(d),
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
        forward=lambda x: L @ np.asarray(x, dtype=float),
        jacobian=lambda x: L.copy(),
    )


def schwarzschild_isotropic_map(mass: float = 1.0) -> ChartMap:
    """Areal-radius chart to isotropic-radius chart of the same exterior."""
    from .geometry import schwarzschild, schwarzschild_isotropic

    M = float(mass)

    def forward(x):
        x = np.asarray(x, dtype=float)
        r = x[1]
        rho = 0.5 * ((r - M) + np.sqrt(r * (r - 2.0 * M)))
        return np.array([x[0], rho, x[2], x[3]])

    def jacobian(x):
        r = float(x[1])
        drho = 0.5 * (1.0 + (r - M) / np.sqrt(r * (r - 2.0 * M)))
        return np.diag([1.0, drho, 1.0, 1.0])

    return ChartMap(
        name=f"schwarzschild_areal_to_isotropic(M={mass:g})",
        metric_a=schwarzschild(M), metric_b=schwarzschild_isotropic(M),
        forward=forward, jacobian=jacobian,
    )


def covariance_check(cm: ChartMap, state_a: PolarizationState, t_end: float,
                     step: float = 1e-3,
                     kernel_tol: float = 1e-8) -> dict:
    """Run the same physical ray in both charts and compare.

    Chart-B samples are pulled back to chart A: points by the inverse map
    comparison (we map A forward), covectors by the transpose-inverse
    jacobian, polarization vectors by the induced spinor conjugation.
    Reports normalized sup discrepancies over the common grid.
    """
    rep_a = build_canonical_module(cm.metric_a)
    rep_b = build_canonical_module(cm.metric_b)
    sys_a = dirac_system(rep_a)
    sys_b = dirac_system(rep_b)

    if cm.spinor_transfer is not None:
        transfer = cm.spinor_transfer
    else:
        def transfer(x):
            return _spinor_rep_of(_frame_change(cm, rep_a, rep_b, x), rep_a)

    x0 = state_a.phase.x
    J0 = np.asarray(cm.jacobian(x0), dtype=float)
    x0b = np.asarray(cm.forward(x0), dtype=float)
    xi0b = np.linalg.solve(J0.T, state_a.phase.xi)
    w0b = transfer(x0) @ state_a.w
    state_b = PolarizationState(PhasePoint(x0b, xi0b), w0b)

    rep_report_a = compare_transports(rep_a, sys_a, state_a, t_end, step=step,
                                      kernel_tol=kernel_tol)
    rep_report_b = compare_transports(rep_b, sys_b, state_b, t_end, step=step,
                                      kernel_tol=kernel_tol)
    ta, tb = rep_report_a.trajectory, rep_report_b.trajectory
    n = min(ta.n, tb.n)
    wa = rep_report_a.orbit_denker.sections
    wb = rep_report_b.orbit_denker.sections
    w0n = float(np.linalg.norm(state_a.w))

    dx = dxi = dw = 0.0
    for i in range(n):
        xa, xia = ta.xs[i], ta.xis[i]
        xb_pred = np.asarray(cm.forward(xa), dtype=float)
        Ji = np.asarray(cm.jacobian(xa), dtype=float)
        xib_pred = np.linalg.solve(Ji.T, xia)
        wb_pred = transfer(xa) @ wa[i]
        dx = max(dx, float(np.max(np.abs(tb.xs[i] - xb_pred))
                           / (1.0 + np.max(np.abs(xb_pred)))))
        dxi = max(dxi, float(np.max(np.abs(tb.xis[i] - xib_pred))
                             / np.linalg.norm(xib_pred)))
        dw = max(dw, float(np.linalg.norm(wb[i] - wb_pred)) / w0n)

    return {
        "chart_map": cm.name,
        "fixture_a": cm.metric_a.name,
        "fixture_b": cm.metric_b.name,
        "t_end": t_end,
        "step": step,
        "samples_compared": int(n),
        "max_x_discrepancy": dx,
        "max_xi_discrepancy": dxi,
        "max_w_discrepancy": dw,
        "max_gap_a": rep_report_a.max_gap,
        "max_gap_b": rep_report_b.max_gap,
        "left_chart": bool(ta.left_chart or tb.left_chart),
    }
