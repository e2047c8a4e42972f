"""Matrix symbol calculus for first-order systems.

The operator convention is A = A^j D_j + B with D_j = -i d_j, acting on
plane waves as A(e^{i<x,xi>} v) = e^{i<x,xi>} (sigma_1(x,xi) + B(x)) v, so
sigma_1(x, xi) = A^j(x) xi_j.  For the Dirac system assembled from a
Clifford module the principal symbol is i*Gamma(xi^sharp).

The auxiliary symbol sigma_tilde is the Q_N-conjugated reflection of the
principal symbol; together they satisfy the factorization
sigma_tilde * sigma_1 = q * Id with q the metric Hamiltonian.  For the
canonical spin-1/2 modules the conjugation collapses and sigma_tilde equals
sigma_1 as a function on phase space; the fast transport path exploits this
identity while the public evaluator keeps the explicit conjugated form (the
two are compared in the test suite).

A module's Dirac system reads its symbol jets, bracket and p_sub in closed
form off the module (``CliffordModuleRep.stage``); any other system gets
them by central differences of its own coefficients.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .clifford import CliffordModuleRep, q_operator
from .errors import NotOnCharacteristicSet, ZeroCovector
from .geometry import (
    _CHART_TRIES,
    MetricField,
    PhasePoint,
    _chart_value,
    _checked_inverse,
    _frame_from,
    _metric_jet,
    _null_projection,
    _partials,
    _phase_core,
    eval_metric,
    hamiltonian_q,
    orthonormal_frame,
)

__all__ = [
    "FirstOrderSystem",
    "SymbolPackage",
    "PrincipalTypeCertificate",
    "dirac_system",
    "principal_symbol",
    "sigma_tilde",
    "subprincipal_symbol",
    "matrix_poisson_bracket",
    "symbol_package",
    "kernel_basis",
    "certify_principal_type",
    "certify_principal_types",
    "resolve_timelike_field",
]

_FD_STEP = 1e-6   # relative central-difference step of the symbol calculus


@dataclass
class FirstOrderSystem:
    """A^j D_j + B in one chart; coefficients as callables of the point."""

    N: int
    coeff_A: Callable
    coeff_B: Callable
    rep: Optional[CliffordModuleRep] = None
    name: str = "first_order_system"


def dirac_system(rep: CliffordModuleRep) -> FirstOrderSystem:
    """First-order system of the Dirac operator of the module on its
    metric, arranged so sigma_1(x, xi) = i Gamma(xi^sharp) exactly."""
    m = rep.metric

    def coeff_A(x):
        E, _ = _frame_from(_metric_jet(m, x)[0])
        return list(1j * rep.contract(E, "gamma"))

    def coeff_B(x):
        # B does not depend on the covector; any nonzero one serves
        return rep.stage(np.asarray(x, float), np.eye(m.dim)[0]).B

    sysd = FirstOrderSystem(N=rep.N, coeff_A=coeff_A, coeff_B=coeff_B,
                            rep=rep, name=f"dirac[{m.name}]")
    sysd._dirac_of = rep  # the marker _dirac_backed reads
    return sysd


def principal_symbol(sys: FirstOrderSystem, p: PhasePoint) -> np.ndarray:
    """sigma_1(x, xi) = A^j(x) xi_j."""
    A = sys.coeff_A(p.x)
    out = p.xi[0] * np.asarray(A[0], dtype=complex)
    for j in range(1, len(A)):
        out = out + p.xi[j] * np.asarray(A[j], dtype=complex)
    return out


def sigma_tilde(rep: CliffordModuleRep, p: PhasePoint, N) -> np.ndarray:
    """Auxiliary symbol -i Q_N^{-1} Gamma(aY - bN) Q_N for timelike future N.

    Z = xi^sharp splits as Z = aY + bN with g(Y, N) = 0; only the products
    aY and bN enter, so neither a nor Y needs a separate normalization.
    """
    if not np.any(p.xi):
        raise ZeroCovector("sigma_tilde needs a nonzero covector")
    N = np.asarray(N, dtype=float)
    Q = q_operator(rep, p.x, N)
    g, _ = eval_metric(rep.metric, p.x)
    Z = np.linalg.solve(g, p.xi)
    b = float(Z @ g @ N) / float(N @ g @ N)
    V = Z - 2.0 * b * N
    GV = rep.gamma_of(p.x, V)
    return -1j * (np.linalg.inv(Q) @ GV @ Q)


def subprincipal_symbol(sys: FirstOrderSystem, p: PhasePoint) -> np.ndarray:
    """sigma^s = B(x) - (1/2i) sum_j d_j A^j(x).

    The module's own Dirac system reads it off one stage of its module in
    closed form; any other system takes central differences of its own
    coefficients A^j.
    """
    if _dirac_backed(sys.rep, sys):
        return sys.rep.stage(p.x, p.xi).p_sub
    x = p.x
    B = np.asarray(sys.coeff_B(x), dtype=complex)
    dA = _partials(lambda z: np.asarray(sys.coeff_A(z), dtype=complex),
                   x, _FD_STEP)
    return B + 0.5j * np.einsum("kkij->ij", dA)


def matrix_poisson_bracket(a_eval, b_eval, p: PhasePoint) -> np.ndarray:
    """sum_j (da/dxi_j)(db/dx^j) - (da/dx^j)(db/dxi_j), central differences.

    Matrix-valued and deliberately NOT antisymmetrized; the bracket of a
    matrix function with itself is generally nonzero.  Works for scalar
    evaluators too.
    """
    x, xi = p.x, p.xi

    def pair(f):
        return (_partials(lambda z: np.asarray(f(z, xi), dtype=complex),
                          x, _FD_STEP),
                _partials(lambda z: np.asarray(f(x, z), dtype=complex),
                          xi, _FD_STEP))

    dax, daxi = pair(a_eval)
    dbx, dbxi = pair(b_eval)
    if dax.ndim == 1:
        return daxi @ dbx - dax @ dbxi
    return np.sum(daxi @ dbx - dax @ dbxi, axis=0)


def resolve_timelike_field(m: MetricField, spec=None):
    """Timelike reference field N(x): default the normalized time axis of
    the frame; or constant coordinate components; or any callable."""
    if spec is None or (isinstance(spec, str) and spec == "normalized_dt"):
        return lambda x: orthonormal_frame(m, x).E[:, 0]
    if callable(spec):
        return spec
    const = np.asarray(spec, dtype=float)
    return lambda x: const


@dataclass
class SymbolPackage:
    """Every symbol-level object at one phase point."""

    at: PhasePoint
    sigma_m: np.ndarray
    sigma_tilde: np.ndarray
    q: float
    p_sub: np.ndarray
    bracket: np.ndarray
    d_sigma_m: dict
    factorization_residual: float

    def to_dict(self):
        def mat(M):
            M = np.asarray(M, dtype=complex)
            return {"re": M.real.tolist(), "im": M.imag.tolist()}

        return {
            "x": self.at.x.tolist(),
            "xi": self.at.xi.tolist(),
            "q": self.q,
            "sigma_m": mat(self.sigma_m),
            "sigma_tilde": mat(self.sigma_tilde),
            "p_sub": mat(self.p_sub),
            "bracket": mat(self.bracket),
            "d_sigma_m_dx": [mat(M) for M in self.d_sigma_m["dx"]],
            "d_sigma_m_dxi": [mat(M) for M in self.d_sigma_m["dxi"]],
            "factorization_residual": self.factorization_residual,
        }


def _dirac_backed(rep: CliffordModuleRep, sys: FirstOrderSystem) -> bool:
    """Whether sys is the system that dirac_system(rep) returned, whose
    jets its module's stage data gives in closed form; a system that only
    carries rep and look-alike coefficients is foreign."""
    return rep is not None and getattr(sys, "_dirac_of", None) is rep


def _symbol_jet(sys: FirstOrderSystem, p: PhasePoint):
    """(d sigma_1/dx^j, d sigma_1/dxi_j) at p, stacked over j, for a
    foreign system: central differences of its principal symbol in x and
    its coefficients A^j.  The module's own Dirac system reads both from
    its module's stage data instead."""
    dsdx = _partials(lambda z: principal_symbol(sys, PhasePoint(z, p.xi)),
                     p.x, _FD_STEP)
    dsdxi = np.array([np.asarray(a, dtype=complex) for a in sys.coeff_A(p.x)])
    return dsdx, dsdxi


def symbol_package(rep: CliffordModuleRep, p: PhasePoint,
                   sys: Optional[FirstOrderSystem] = None,
                   N=None) -> SymbolPackage:
    """Assemble the full symbol data at one phase point.

    The module's own Dirac system takes its symbol jets, bracket and p_sub
    from one stage of the module; a foreign system takes central differences
    of its own coefficients (the bracket from the two symbol evaluators).
    sigma_1, sigma_tilde and q come from their public evaluators."""
    m = rep.metric
    if sys is None:
        sys = dirac_system(rep)
    Nfield = resolve_timelike_field(m, N)
    s1 = principal_symbol(sys, p)
    st = sigma_tilde(rep, p, Nfield(p.x))
    q = hamiltonian_q(m, p.x, p.xi)
    if _dirac_backed(rep, sys):
        sd = rep.stage(p.x, p.xi)
        dsdx, dsdxi, bracket, psub = sd.ds1x, sd.A, sd.bracket, sd.p_sub
    else:
        psub = subprincipal_symbol(sys, p)
        dsdx, dsdxi = _symbol_jet(sys, p)

        def s1_eval(x, xi):
            return principal_symbol(sys, PhasePoint(x, xi))

        def st_eval(x, xi):
            return sigma_tilde(rep, PhasePoint(x, xi), Nfield(x))

        bracket = matrix_poisson_bracket(st_eval, s1_eval, p)
    Id = np.eye(sys.N)
    resid = float(np.linalg.norm(st @ s1 - q * Id))
    return SymbolPackage(
        at=p, sigma_m=s1, sigma_tilde=st, q=q, p_sub=psub, bracket=bracket,
        d_sigma_m={"dx": dsdx, "dxi": dsdxi},
        factorization_residual=resid,
    )


def _rank(s, rank_tol: float):
    """Numerical rank from singular values ``s`` sorted along the last
    axis, largest first: the count at or above rank_tol * s_max (0 for a
    zero matrix)."""
    return np.sum((s >= rank_tol * s[..., :1]) & (s > 0.0), axis=-1)


def kernel_basis(matrix, rank_tol: float = 1e-8):
    """Orthonormal basis of the numerical kernel via singular values.

    Returns (list of vectors, dim).  Singular values below
    rank_tol * sigma_max count as zero; the zero matrix yields the full
    identity basis.  The basis depends on the kernel alone: Gram-Schmidt
    over the kernel projector's columns in order keeps each remainder of
    norm above 1/(2 sqrt n), which always leaves ``dim`` vectors.
    """
    A = np.asarray(matrix, dtype=complex)
    n = A.shape[1]
    _, s, Vh = np.linalg.svd(A)
    V = Vh[_rank(s, rank_tol):].conj().T
    K = []
    for col in (V @ V.conj().T).T:
        if len(K) == V.shape[1]:
            break
        for u in K:
            col = col - np.vdot(u, col) * u
        norm = np.vdot(col, col).real ** 0.5
        if norm > 0.5 / np.sqrt(n):
            K.append(col / norm)
    return K, len(K)


@dataclass
class PrincipalTypeCertificate:
    """What ``certify_principal_types`` decides at one null phase point."""

    at: PhasePoint
    q: float
    dq_nonzero: bool
    ker_dim: int
    ker_coker_condition_number: float
    neighborhood_ker_dims: list
    passed: bool


def certify_principal_type(rep: CliffordModuleRep, p: PhasePoint,
                           sys: Optional[FirstOrderSystem] = None,
                           null_tol: float = 1e-10,
                           rank_tol: float = 1e-8,
                           seed: int = 0) -> PrincipalTypeCertificate:
    """Certify real principal type at one phase point: the one-point call
    of ``certify_principal_types``, which says what it checks."""
    return next(certify_principal_types(rep, [p], sys=sys, null_tol=null_tol,
                                        rank_tol=rank_tol, seed=seed))


# Points per block of the stacked principal-type certifier.  A block holds
# the metric jets, frames and symbols of its points and of their 8
# neighbours each, about 11 kB per point for d = 4, whatever the number of
# points certified.
_BLOCK_POINTS = 64
_NEIGHBOURS = 8


def certify_principal_types(rep: CliffordModuleRep, points,
                            sys: Optional[FirstOrderSystem] = None,
                            null_tol: float = 1e-10,
                            rank_tol: float = 1e-8,
                            seed: int = 0
                            ) -> Iterator[PrincipalTypeCertificate]:
    """Certify real principal type at each of a sequence of phase points,
    yielding one certificate per point in order.

    Each point must lie on the characteristic set, |q| < null_tol
    (1 + |xi|^2), or NotOnCharacteristicSet is raised.  A certificate
    checks dq != 0 (|dq| > 1e-8 (1 + |xi|^2)), a kernel dimension
    (``kernel_basis``'s rank rule) constant over 8 nearby null points, and
    that the conormal derivative of the symbol maps kernel onto cokernel
    with condition number below 1e8.  H_q is never radial, so that is not
    checked: its x-part 2 g^-1 xi is nonzero whenever xi is, while the
    radial field has none.

    Every point draws its neighbours from a fresh default_rng(seed): per
    neighbour up to 16 positions within 1e-3 (1 + |x|) until one lies in
    the chart (else the point's own), then a spatial covector within
    1e-3 |xi|, whose xi_0 is moved onto the null cone; a neighbour without
    a real null root is skipped.

    Points go through in blocks of ``_BLOCK_POINTS`` (``_certify_block``),
    each yielded before the next is formed, with one metric jet per point
    and one metric value per neighbour.
    """
    if sys is None:
        sys = dirac_system(rep)
    points = list(points)
    unit = np.random.default_rng(seed).uniform(
        -1.0, 1.0, size=_NEIGHBOURS * (_CHART_TRIES + 1) * rep.metric.dim)
    for start in range(0, len(points), _BLOCK_POINTS):
        yield from _certify_block(rep, sys,
                                  points[start:start + _BLOCK_POINTS], unit,
                                  null_tol, rank_tol)


def _neighbours(m: MetricField, x, xi, unit):
    """The 8 neighbours of (x, xi) before null projection, as (positions,
    covectors, metric values), read off ``unit`` in draw order."""
    d = m.dim
    scale_x = 1e-3 * (1.0 + np.abs(x))
    scale_xi = 1e-3 * float(np.linalg.norm(xi))
    xs = np.empty((_NEIGHBOURS, d))
    xis = np.tile(xi, (_NEIGHBOURS, 1))
    gs = np.empty((_NEIGHBOURS, d, d))
    pos = 0
    for k in range(_NEIGHBOURS):
        for _ in range(_CHART_TRIES):
            x2 = x + scale_x * unit[pos:pos + d]
            pos += d
            g = _chart_value(m, x2)
            if g is not None:
                break
        else:
            x2, g = x, _metric_jet(m, x)[0]
        xs[k], gs[k] = x2, g
        xis[k, 1:] += scale_xi * unit[pos:pos + d - 1]
        pos += d - 1
    return xs, xis, gs


def _symbols(rep: CliffordModuleRep, sys: FirstOrderSystem, xs, xis, g):
    """sigma_1 at a stack of phase points whose metric values are g: from
    their frames for the module's own Dirac system, by
    ``principal_symbol`` point by point for a foreign one."""
    if _dirac_backed(rep, sys):
        return rep.sigma1(xis, _frame_from(g)[0])
    return np.array([principal_symbol(sys, PhasePoint(x, xi))
                     for x, xi in zip(xs, xis)]).reshape(-1, sys.N, sys.N)


def _conormal_jets(rep: CliffordModuleRep, sys: FirstOrderSystem, xs, xis,
                   g, dg, Z):
    """(d sigma_1/dx^j, d sigma_1/dxi_j), stacked over j into one axis of
    2 d, at a stack of phase points: from one stacked stage on the flow's
    values for the module's own Dirac system, by ``_symbol_jet`` point by
    point for a foreign one."""
    if _dirac_backed(rep, sys):
        sd = rep.stage_at(xis, g, dg, Z)
        return np.concatenate((sd.ds1x, sd.A), axis=-3)
    return np.array([np.concatenate(_symbol_jet(sys, PhasePoint(x, xi)))
                     for x, xi in zip(xs, xis)]).reshape(
                         -1, 2 * xs.shape[-1], sys.N, sys.N)


def _neighbourhood_dims(rep: CliffordModuleRep, sys: FirstOrderSystem, xs,
                        xis, unit, rank_tol: float) -> list:
    """Kernel dimensions of sys's symbol at each point's neighbours that
    have a real null root, one array per point."""
    m = rep.metric
    nx, nxi, g2 = (np.concatenate(a) for a in zip(
        *(_neighbours(m, x, xi, unit) for x, xi in zip(xs, xis))))
    nxi, real = _null_projection(_checked_inverse(g2, nx), nxi)
    owner = np.repeat(np.arange(len(xs)), _NEIGHBOURS)[real]
    s2 = _symbols(rep, sys, nx[real], nxi[real], g2[real])
    ranks = _rank(np.linalg.svd(s2, compute_uv=False), rank_tol)
    return np.split(sys.N - ranks,
                    np.cumsum(np.bincount(owner, minlength=len(xs)))[:-1])


def _condition_numbers(U, Vh, ker_dim, dsig) -> np.ndarray:
    """Condition number of C^H dsig K per stacked symbol with SVD factors
    U, Vh and kernel dimension ker_dim > 0, where K and C are the last
    ker_dim right and left singular vectors: orthonormal bases of kernel
    and cokernel.  inf where the map is singular."""
    N = U.shape[-1]
    cond = np.empty(len(ker_dim))
    for k in set(ker_dim.tolist()):
        sel = ker_dim == k
        K = Vh[sel, N - k:].conj().swapaxes(-1, -2)
        C = U[sel, :, N - k:]
        t = np.linalg.svd(C.conj().swapaxes(-1, -2) @ dsig[sel] @ K,
                          compute_uv=False)
        with np.errstate(divide="ignore", invalid="ignore"):
            cond[sel] = np.where(t[:, -1] > 0.0, t[:, 0] / t[:, -1], np.inf)
    return cond


def _certify_block(rep: CliffordModuleRep, sys: FirstOrderSystem, points,
                   unit, null_tol: float, rank_tol: float) -> list:
    """Certificates of a block of points, from ``_phase_core``'s q-flow
    values at each point: H_q = (dx, dxi), rho = (dq/dx, dq/dxi).  One
    stacked SVD gives each point's kernel and cokernel, whose orthonormal
    bases, any of them, give one condition number."""
    m = rep.metric
    xs = np.array([p.x for p in points])
    xis = np.array([p.xi for p in points])
    # raises OutsideChart at a point past the chart
    g, dg, Z, dx, dxi = (np.array(a) for a in zip(
        *(_phase_core(m, x, xi) for x, xi in zip(xs, xis))))
    s1 = _symbols(rep, sys, xs, xis, g)
    q = np.einsum("pi,pi->p", xis, Z)
    xi_sq = np.einsum("pi,pi->p", xis, xis)
    off = ~(np.abs(q) < null_tol * (1.0 + xi_sq))
    if np.any(off):
        i = int(np.flatnonzero(off)[0])
        raise NotOnCharacteristicSet(
            f"|q| = {abs(q[i])} >= {null_tol} * (1 + |xi|^2)")

    rho = np.concatenate((-dxi, dx), axis=-1)      # (dq/dx, dq/dxi)
    grad_norm = np.linalg.norm(rho, axis=-1)
    dq_nonzero = grad_norm > 1e-8 * (1.0 + xi_sq)

    nbh = _neighbourhood_dims(rep, sys, xs, xis, unit, rank_tol)
    # the conormal derivative rho . (d sigma/dx, d sigma/dxi) / |rho| must
    # map the kernel onto the cokernel
    U, s, Vh = np.linalg.svd(s1)
    ker_dim = sys.N - _rank(s, rank_tol)
    need = (ker_dim > 0) & dq_nonzero
    jet = _conormal_jets(rep, sys, xs[need], xis[need], g[need], dg[need],
                         Z[need])
    dsig = np.einsum("pj,pjab->pab", rho[need] / grad_norm[need, None], jet)
    cond = np.full(len(points), np.inf)
    cond[need] = _condition_numbers(U[need], Vh[need], ker_dim[need], dsig)

    ker_const = [bool(np.all(n == k)) for n, k in zip(nbh, ker_dim)]
    certs = []
    for i, p in enumerate(points):
        passed = bool(dq_nonzero[i] and ker_const[i]
                      and np.isfinite(cond[i]) and cond[i] < 1e8)
        certs.append(PrincipalTypeCertificate(
            at=p, q=float(q[i]), dq_nonzero=bool(dq_nonzero[i]),
            ker_dim=int(ker_dim[i]),
            ker_coker_condition_number=float(cond[i]),
            neighborhood_ker_dims=nbh[i].tolist(), passed=passed))
    return certs
