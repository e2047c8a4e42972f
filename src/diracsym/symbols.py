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
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .clifford import CliffordModuleRep, q_operator
from .errors import NotOnCharacteristicSet, ZeroCovector
from .geometry import (
    MetricField,
    PhasePoint,
    _checked_inverse,
    _frame_from,
    _metric_value,
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


def _rows(a) -> np.ndarray:
    """``a`` with its last two axes flattened into one."""
    return a.reshape(a.shape[:-2] + (-1,))


class StageData:
    """The transports' data at one phase point (x, xi), or at a stack of
    points along leading axes of every field: the frame E, E^-1, E^-1 Z,
    and what ``_StageEngine.at`` reads off the frame components F of dg:
    the bracket coefficients P, the divergence term dv, kappa and the
    lowered frame connection omega[c, a, b] = omega_c^{ab}.  Every matrix
    is formed only when read, by one contraction against the module's
    Clifford tensors (the generator by three and a stacked product).  Read
    off: sigma1, A, ds1x, bracket, B, p_sub, kappa, omega_dot and generator.
    """

    __slots__ = ("eng", "xi", "E", "Einv", "Zf", "P", "dv", "kappa", "omega")

    def __init__(self, eng, xi, E, Einv, Zf, P, dv, kappa, omega):
        self.eng, self.xi, self.E, self.Einv, self.Zf = eng, xi, E, Einv, Zf
        self.P, self.dv, self.kappa, self.omega = P, dv, kappa, omega

    @property
    def sigma1(self) -> np.ndarray:
        """i Gamma(xi^sharp)."""
        return self.eng.sigma1(self.xi, self.E)

    @property
    def A(self) -> np.ndarray:
        """A^m = d sigma_1 / d xi_m."""
        return 1j * self.eng.contract(self.E, "gamma")

    @property
    def ds1x(self) -> np.ndarray:
        """d sigma_1 / d x^k = i gamma^b sum_c (E^-1)^c_k P[c, b]."""
        return 1j * self.eng.contract(self.Einv.swapaxes(-1, -2) @ self.P,
                                      "gamma")

    def _psub_coeffs(self) -> np.ndarray:
        # B = -i A^m omega_m = omega_cab gamma^c (-1/4 gamma^a gamma^b); the
        # divergence term -(1/2i) d_k A^k = -1/2 dv_b gamma^b
        return np.concatenate((_rows(_rows(self.omega)), self.dv), axis=-1)

    @property
    def bracket(self) -> np.ndarray:
        """sum_k [A^k, d_k sigma_1] = -P_ab [gamma^a, gamma^b], the matrix
        Poisson bracket."""
        return -self.eng.contract(_rows(self.P), "commutator")

    @property
    def B(self) -> np.ndarray:
        """Zeroth-order coefficient -i A^m omega_m of the Dirac system:
        p_sub without its divergence term."""
        u = self._psub_coeffs()
        u[..., -self.xi.shape[-1]:] = 0.0
        return self.eng.contract(u, "psub")

    @property
    def p_sub(self) -> np.ndarray:
        """Subprincipal symbol B - (1/2i) d_k A^k of the Dirac system."""
        return self.eng.contract(self._psub_coeffs(), "psub")

    @property
    def omega_dot(self) -> np.ndarray:
        """omega(x; xdot) = xdot^m omega_m, with E^-1 xdot = 2 E^-1 Z."""
        w = 2.0 * self.Zf[..., None, :] @ _rows(self.omega)
        return self.eng.contract(w[..., 0, :], "spin")

    def generator(self, sign: float = 1.0) -> np.ndarray:
        """(1/2) bracket + sign * i sigma_tilde p_sub - kappa Id.

        sigma_tilde equals sigma_1 = i Gamma(c) (c = E^T xi) for the
        canonical modules, so the subprincipal term is -Gamma(sign c) p_sub:
        the bracket, p_sub and Gamma(sign c) are one contraction each, and
        one stacked product joins the last two.
        """
        c = sign * (self.xi[..., None, :] @ self.E)[..., 0, :]
        out = 0.5 * self.bracket
        out -= self.eng.contract(c, "gamma") @ self.p_sub
        i = np.arange(self.eng.N)
        out[..., i, i] -= self.kappa[..., None]
        return out


class _StageEngine:
    """Closed-form evaluation of everything the transports need, at one
    phase point or at a stack of them.

    One evaluation takes the phase flow's values at its points and forms
    the frame and the frame components F of dg, which fix the Levi-Civita
    connection (the Koszul formula); ``StageData`` contracts what follows
    from them against Clifford tensors the module computes once: into
    the principal symbol, the contracted spin connection and the
    symbol-package matrices, and into the factors of the generator of the
    symbol-level transport.  A transport hands it the records of a block of
    accepted stages at once (``at``); a point call evaluates the flow first.
    """

    def __init__(self, rep: CliffordModuleRep):
        self.m = rep.metric
        self.N = rep.N
        self.eta = np.diagonal(rep.eta).copy()
        self.tensors = rep._stage_tensors

    def contract(self, coeffs, tensor: str) -> np.ndarray:
        """Real coeffs[..., k] times row k of a Clifford tensor, as N x N
        matrices."""
        out = (coeffs @ self.tensors[tensor]).view(complex)
        return out.reshape(out.shape[:-1] + (self.N, self.N))

    def sigma1(self, xi, E) -> np.ndarray:
        """i Gamma(E^T xi); batched over leading axes of xi and E."""
        c = np.einsum("...m,...ma->...a", xi, E)
        return 1j * self.contract(c, "gamma")

    def __call__(self, x, xi) -> StageData:
        g, dg, Z = _phase_core(self.m, x, xi)[:3]
        return self.at(xi, g, dg, Z)

    def at(self, xi, g, dg, Z) -> StageData:
        """StageData from the flow's values (xi, g, dg, Z), which may carry
        leading stack axes; xdot = 2 Z.

        F[c, a, b] = E^k_c E^l_a E^j_b d_k g_lj.  g = R^T eta R with E = R^-1
        gives F_c = X_c + X_c^T with X_c = eta (d_c R) E = triu(F_c) - (1/2)
        diag(F_c) and E^-1 d_c E = -eta X_c along frame vector c.  So
        omega_cab = (1/2) (F_cab + F_bac - F_acb) - X_cab, P[a, b] =
        (xi . d_a E)_b = -(E^T xi . eta X_a)_b, dv_b = d_k E^k_b = -sum_e
        eta_e X_eeb and kappa = -Z^k tr(E^-1 d_k E) = (1/2) E^-1 Z . tr_eta F.
        """
        E, Einv = _frame_from(self.m, g)
        eta, i, ET = self.eta, np.arange(len(self.eta)), E.swapaxes(-1, -2)
        F = (ET @ dg.reshape(dg.shape[:-2] + (-1,))).reshape(dg.shape)
        F = ET[..., None, :, :] @ F @ E[..., None, :, :]
        X = np.triu(F)
        X[..., i, i] *= 0.5
        c = (xi[..., None, :] @ E)[..., 0, :]
        P = -((c * eta)[..., None, None, :] @ X)[..., 0, :]
        Zf = (Einv @ Z[..., None])[..., 0]
        kappa = 0.5 * np.sum(Zf * (F[..., i, i] @ eta), axis=-1)
        omega = F + F.swapaxes(-3, -1)
        omega -= F.swapaxes(-3, -2)
        omega *= 0.5
        omega -= X
        return StageData(self, xi, E, Einv, Zf, P, -(eta @ X[..., i, i, :]),
                         kappa, omega)


def dirac_system(rep: CliffordModuleRep) -> FirstOrderSystem:
    """First-order system of the Dirac operator of the module on its
    metric, arranged so sigma_1(x, xi) = i Gamma(xi^sharp) exactly."""
    m = rep.metric
    eng = _StageEngine(rep)

    def coeff_A(x):
        E, _ = _frame_from(m, _metric_value(m, np.asarray(x, dtype=float)))
        return list(1j * eng.contract(E, "gamma"))

    def coeff_B(x):
        # B does not depend on the covector; any nonzero one serves
        return eng(np.asarray(x, float), np.eye(m.dim)[0]).B

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

    The module's own Dirac system reads it off one engine evaluation in
    closed form; any other system takes central differences of its own
    coefficients A^j.
    """
    if _dirac_backed(sys.rep, sys):
        return _StageEngine(sys.rep)(p.x, p.xi).p_sub
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
    jets the engine reads off rep in closed form; a system that only
    carries rep and look-alike coefficients is foreign."""
    return rep is not None and getattr(sys, "_dirac_of", None) is rep


def _symbol_jet(sys: FirstOrderSystem, p: PhasePoint):
    """(d sigma_1/dx^j, d sigma_1/dxi_j) at p, stacked over j, for a
    foreign system: central differences of its principal symbol in x and
    its coefficients A^j.  The module's own Dirac system reads both from
    the engine instead."""
    dsdx = _partials(lambda z: principal_symbol(sys, PhasePoint(z, p.xi)),
                     p.x, _FD_STEP)
    dsdxi = np.array([np.asarray(a, dtype=complex) for a in sys.coeff_A(p.x)])
    return dsdx, dsdxi


def symbol_package(rep: CliffordModuleRep, p: PhasePoint,
                   sys: Optional[FirstOrderSystem] = None,
                   N=None) -> SymbolPackage:
    """Assemble the full symbol data at one phase point.

    The module's own Dirac system takes its symbol jets, bracket and p_sub
    from one engine evaluation; a foreign system takes central differences
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
        sd = _StageEngine(rep)(p.x, p.xi)
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
_GUARD_TRIES = 16   # draws of a neighbour's position inside the chart


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
    neighbour up to 16 positions within 1e-3 (1 + |x|) until the domain
    guard holds (else the point's own), then a spatial covector within
    1e-3 |xi|, whose xi_0 is moved onto the null cone; a neighbour without
    a real null root is skipped.

    Points go through in blocks of ``_BLOCK_POINTS``, each yielded before
    the next is formed, with one metric jet per point and one metric value
    per neighbour.  The Dirac system's symbols come from frames, its
    conormal derivative from one engine call, a foreign system's from
    ``principal_symbol`` and central differences.  One stacked SVD gives
    the neighbourhood ranks, one full stacked SVD each point's kernel and
    cokernel; any orthonormal bases of them give the same condition
    number.
    """
    if sys is None:
        sys = dirac_system(rep)
    points = list(points)
    unit = np.random.default_rng(seed).uniform(
        -1.0, 1.0, size=_NEIGHBOURS * (_GUARD_TRIES + 1) * rep.metric.dim)
    for start in range(0, len(points), _BLOCK_POINTS):
        yield from _certify_block(rep, sys,
                                  points[start:start + _BLOCK_POINTS], unit,
                                  null_tol, rank_tol)


def _neighbours(m: MetricField, x, xi, unit):
    """The 8 neighbours of (x, xi) before null projection, as (positions,
    covectors), read off ``unit`` in draw order."""
    d = m.dim
    scale_x = 1e-3 * (1.0 + np.abs(x))
    scale_xi = 1e-3 * float(np.linalg.norm(xi))
    xs = np.empty((_NEIGHBOURS, d))
    xis = np.tile(xi, (_NEIGHBOURS, 1))
    pos = 0
    for k in range(_NEIGHBOURS):
        for _ in range(_GUARD_TRIES):
            x2 = x + scale_x * unit[pos:pos + d]
            pos += d
            if m.domain_guard(x2):
                break
        else:
            x2 = x
        xs[k] = x2
        xis[k, 1:] += scale_xi * unit[pos:pos + d - 1]
        pos += d - 1
    return xs, xis


def _symbols(rep: CliffordModuleRep, sys: FirstOrderSystem, xs, xis, g):
    """sigma_1 at a stack of phase points whose metric values are g: from
    their frames for the module's own Dirac system, by
    ``principal_symbol`` point by point for a foreign one."""
    if _dirac_backed(rep, sys):
        return _StageEngine(rep).sigma1(xis, _frame_from(rep.metric, g)[0])
    return np.array([principal_symbol(sys, PhasePoint(x, xi))
                     for x, xi in zip(xs, xis)]).reshape(-1, sys.N, sys.N)


def _conormal_jets(rep: CliffordModuleRep, sys: FirstOrderSystem, xs, xis,
                   g, dg, Z):
    """(d sigma_1/dx^j, d sigma_1/dxi_j), stacked over j into one axis of
    2 d, at a stack of phase points: from one engine call on the flow's
    values for the module's own Dirac system, by ``_symbol_jet`` point by
    point for a foreign one."""
    if _dirac_backed(rep, sys):
        sd = _StageEngine(rep).at(xis, g, dg, Z)
        return np.concatenate((sd.ds1x, sd.A), axis=-3)
    return np.array([np.concatenate(_symbol_jet(sys, PhasePoint(x, xi)))
                     for x, xi in zip(xs, xis)]).reshape(
                         -1, 2 * xs.shape[-1], sys.N, sys.N)


def _neighbourhood_dims(rep: CliffordModuleRep, sys: FirstOrderSystem, xs,
                        xis, unit, rank_tol: float) -> list:
    """Kernel dimensions of sys's symbol at each point's neighbours that
    have a real null root, one array per point."""
    m = rep.metric
    near = [_neighbours(m, x, xi, unit) for x, xi in zip(xs, xis)]
    nx = np.concatenate([a for a, _ in near])
    # each position passed the domain guard or is its point's own
    g2 = np.array([m.eval(x) for x in nx], dtype=float)
    nxi, real = _null_projection(_checked_inverse(g2, nx),
                                 np.concatenate([b for _, b in near]))
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
    values at each point: H_q = (dx, dxi), rho = (dq/dx, dq/dxi)."""
    m = rep.metric
    xs = np.array([p.x for p in points])
    xis = np.array([p.xi for p in points])
    # raises OutsideChart at a point past the domain guard
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
