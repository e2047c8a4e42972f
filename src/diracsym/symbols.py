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
    _frame_jet_from,
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
    d_coeff_A: Optional[Callable] = None  # x -> dA[k, m] = d_k A^m
    rep: Optional[CliffordModuleRep] = None
    name: str = "first_order_system"


def _rows(a) -> np.ndarray:
    """``a`` with its last two axes flattened into one."""
    return a.reshape(a.shape[:-2] + (-1,))


class StageData:
    """The transports' data at one phase point (x, xi), or at a stack of
    points along leading axes of every field.

    Holds the flow vectors Z = g^-1 xi and dx = 2 Z and small real
    coefficient arrays read off the metric and frame jets: the frame E, its
    partials dE, E^-1 dE, and the lowered connection coefficients
    Wl[m, a, b] = omega_m^{ab} in the frame.  Every matrix is one
    contraction of coefficients against the module's Clifford tensors and
    is formed only when read, so a transport stage pays for the generator
    and the contracted connection alone.
    """

    __slots__ = ("eng", "xi", "Z", "dx", "E", "dE", "EdE", "Wl")

    def __init__(self, eng, xi, Z, dx, E, dE, EdE, Wl):
        self.eng, self.xi, self.Z, self.dx = eng, xi, Z, dx
        self.E, self.dE, self.EdE, self.Wl = E, dE, EdE, Wl

    def _xi_dE(self) -> np.ndarray:
        """(xi . d_k E)_b, indexed [..., k, b]."""
        return (self.xi[..., None, None, :] @ self.dE)[..., 0, :]

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
        """d sigma_1 / d x^k."""
        return 1j * self.eng.contract(self._xi_dE(), "gamma")

    def _bracket_coeffs(self) -> np.ndarray:
        # P[a, b] = E^k_a (xi . d_k E)_b, so sum_k A^k d_k sigma_1 is
        # -P_ab gamma^a gamma^b
        return _rows(self.E.swapaxes(-1, -2) @ self._xi_dE())

    def _psub_coeffs(self) -> np.ndarray:
        # B = -i A^m omega_m = K_cab gamma^c (-1/4 gamma^a gamma^b) with
        # K = E^T Wl; the divergence term -(1/2i) d_k A^k = -1/2 dv_b gamma^b
        d = self.xi.shape[-1]
        K = self.E.swapaxes(-1, -2) @ _rows(self.Wl)
        dv = self.eng.trace @ self.dE.reshape(self.dE.shape[:-3] + (d * d, d))
        return np.concatenate((_rows(K), dv), axis=-1)

    @property
    def bracket(self) -> np.ndarray:
        """sum_k [A^k, d_k sigma_1], the matrix Poisson bracket."""
        return -self.eng.contract(self._bracket_coeffs(), "commutator")

    @property
    def B(self) -> np.ndarray:
        """Zeroth-order coefficient -i A^m omega_m of the Dirac system:
        p_sub without its divergence term."""
        u = self._psub_coeffs()
        u[..., -self.xi.shape[-1]:] = 0.0
        return self.eng.contract(u, "psub")

    @property
    def kappa(self) -> np.ndarray:
        """(1/2) Z^k d_k log|det g|, i.e. -Z^k tr(E^-1 d_k E)."""
        rates = _rows(self.EdE) @ self.eng.trace
        return -(self.Z[..., None, :] @ rates[..., :, None])[..., 0, 0]

    @property
    def omega_dot(self) -> np.ndarray:
        """omega(x; xdot) = xdot^m omega_m."""
        w = (self.dx[..., None, :] @ _rows(self.Wl))[..., 0, :]
        return self.eng.contract(w, "spin")

    def generator(self, sign: float = 1.0) -> np.ndarray:
        """(1/2) bracket + sign * i sigma_tilde p_sub - kappa Id.

        sigma_tilde equals sigma_1 = i c_a gamma^a (c = E^T xi) for the
        canonical modules, so the subprincipal term is bilinear in c and
        the p_sub coefficients; one contraction forms the whole matrix.
        """
        c = sign * (self.xi[..., None, :] @ self.E)
        sub = c.swapaxes(-1, -2) * self._psub_coeffs()[..., None, :]
        coeffs = np.concatenate((
            self._bracket_coeffs(), _rows(sub),
            np.asarray(self.kappa)[..., None]), axis=-1)
        return self.eng.contract(coeffs, "generator")


class _StageEngine:
    """Closed-form evaluation of everything the transports need, at one
    phase point or at a stack of them.

    One evaluation takes the phase flow's values at its points, and forms
    the frame jet and the frame connection coefficients once; ``StageData``
    contracts them into the principal symbol, the generator of the
    symbol-level transport, the contracted spin connection, and the
    symbol-package matrices, against Clifford tensors the module computes
    once.  A transport hands it the records of a block of accepted stages
    at once (``at``); a point call evaluates the flow first.
    """

    def __init__(self, rep: CliffordModuleRep):
        self.m = rep.metric
        self.N = rep.N
        self.eps = np.diagonal(rep.eta)[:, None].copy()
        self.trace = np.eye(rep.dim).ravel()  # v @ trace = sum_k v[k, k]
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
        g, dg, Z, dx, _ = _phase_core(self.m, x, xi)
        return self.at(xi, g, dg, Z, dx)

    def at(self, xi, g, dg, Z, dx) -> StageData:
        """StageData from the flow's values (xi, g, dg, Z, dx), which may
        carry leading stack axes."""
        E, dE, Einv = _frame_jet_from(self.m, g, dg)
        EdE = Einv[..., None, :, :] @ dE
        # omega_m^{ab} = eta E^-1 d_m E + E^T Gamma_m E lowered; with
        # g^-1 = E eta E^T the Christoffel part is (1/2) E^T T_m E where
        # T_m[l, k] = d_m g_lk + d_k g_lm - d_l g_mk
        T = dg + dg.swapaxes(-1, -3) - dg.swapaxes(-2, -3)
        ET = E.swapaxes(-1, -2)[..., None, :, :]
        Wl = self.eps * EdE + 0.5 * (ET @ T @ E[..., None, :, :])
        return StageData(self, xi, Z, dx, E, dE, EdE, Wl)


def dirac_system(rep: CliffordModuleRep) -> FirstOrderSystem:
    """First-order system of the Dirac operator of the module on its
    metric, arranged so sigma_1(x, xi) = i Gamma(xi^sharp) exactly."""
    m = rep.metric
    eng = _StageEngine(rep)

    def coeff_A(x):
        E, _, _ = _frame_jet_from(m, *_metric_jet(m, x))
        return list(1j * eng.contract(E, "gamma"))

    def coeff_B(x):
        return eng(np.asarray(x, float), _probe_covector(m)).B

    def d_coeff_A(x):
        _, dE, _ = _frame_jet_from(m, *_metric_jet(m, x))
        return 1j * eng.contract(dE, "gamma")

    return FirstOrderSystem(
        N=rep.N, coeff_A=coeff_A, coeff_B=coeff_B, d_coeff_A=d_coeff_A,
        rep=rep, name=f"dirac[{m.name}]",
    )


def _probe_covector(m: MetricField) -> np.ndarray:
    v = np.zeros(m.dim)
    v[0] = 1.0
    return v


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

    Uses the system's closed-form coefficient derivatives when present,
    otherwise central differences of its coefficients.
    """
    x = p.x
    B = np.asarray(sys.coeff_B(x), dtype=complex)
    if sys.d_coeff_A is not None:
        dA = np.asarray(sys.d_coeff_A(x))
    else:
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
    """Whether sys is rep's own Dirac system, with closed-form jets."""
    return sys.rep is rep and sys.d_coeff_A is not None


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

    Dirac-backed systems get closed-form derivatives and bracket; foreign
    systems fall back to central differences (including the bracket, built
    from the two symbol evaluators)."""
    m = rep.metric
    if sys is None:
        sys = dirac_system(rep)
    Nfield = resolve_timelike_field(m, N)
    s1 = principal_symbol(sys, p)
    st = sigma_tilde(rep, p, Nfield(p.x))
    q = hamiltonian_q(m, p.x, p.xi)
    psub = subprincipal_symbol(sys, p)
    if _dirac_backed(rep, sys):
        sd = _StageEngine(rep)(p.x, p.xi)
        dsdx, dsdxi, bracket = sd.ds1x, sd.A, sd.bracket
    else:
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
    at: PhasePoint
    on_char_set: bool
    dq_nonzero: Optional[bool]
    nonradial: Optional[bool]
    ker_dim: int
    ker_coker_condition_number: Optional[float]
    passed: bool
    mode: str = "intrinsic"
    q: float = 0.0
    factorization_residual: Optional[float] = None
    neighborhood_ker_dims: Optional[list] = None

    def to_dict(self):
        return {
            "x": self.at.x.tolist(),
            "xi": self.at.xi.tolist(),
            "mode": self.mode,
            "q": self.q,
            "on_char_set": self.on_char_set,
            "dq_nonzero": self.dq_nonzero,
            "nonradial": self.nonradial,
            "ker_dim": self.ker_dim,
            "ker_coker_condition_number": self.ker_coker_condition_number,
            "factorization_residual": self.factorization_residual,
            "neighborhood_ker_dims": self.neighborhood_ker_dims,
            "pass": self.passed,
        }


def certify_principal_type(rep: CliffordModuleRep, p: PhasePoint,
                           mode: str = "intrinsic",
                           sys: Optional[FirstOrderSystem] = None,
                           null_tol: float = 1e-10,
                           rank_tol: float = 1e-8,
                           factor_tol: float = 1e-10,
                           seed: int = 0) -> PrincipalTypeCertificate:
    """Certify real principal type at one phase point.

    factorization mode: checks the residual of the factorization identity
    (valid on and off the characteristic set).  intrinsic mode is the
    one-point call of ``certify_principal_types``, which says what it
    checks.
    """
    if mode == "intrinsic":
        return next(certify_principal_types(rep, [p], sys=sys,
                                            null_tol=null_tol,
                                            rank_tol=rank_tol, seed=seed))
    if mode != "factorization":
        raise ValueError(f"unknown certification mode {mode!r}")
    if sys is None:
        sys = dirac_system(rep)
    q = hamiltonian_q(rep.metric, p.x, p.xi)
    _, ker_dim = kernel_basis(principal_symbol(sys, p), rank_tol)
    pkg = symbol_package(rep, p, sys=sys)
    return PrincipalTypeCertificate(
        at=p, on_char_set=abs(q) < null_tol * (1.0 + float(p.xi @ p.xi)),
        dq_nonzero=None, nonradial=None, ker_dim=ker_dim,
        ker_coker_condition_number=None,
        passed=pkg.factorization_residual < factor_tol, mode=mode, q=q,
        factorization_residual=pkg.factorization_residual,
    )


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
    checks dq != 0 (|dq| > 1e-8 (1 + |xi|^2)), a non-radial Hamiltonian
    direction, a kernel dimension (``kernel_basis``'s rank rule) constant
    over 8 nearby null points, and that the conormal derivative of the
    symbol maps kernel onto cokernel with condition number below 1e8.
    ``nonradial`` cannot fail for the metric Hamiltonian: the x-part of
    H_q is 2 g^-1 xi, nonzero whenever xi is, while the radial field has
    none.  It is reported for the record.

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
                   g, dg, Z, dx):
    """(d sigma_1/dx^j, d sigma_1/dxi_j), stacked over j into one axis of
    2 d, at a stack of phase points: from one engine call on the flow's
    values for the module's own Dirac system, by ``_symbol_jet`` point by
    point for a foreign one."""
    if _dirac_backed(rep, sys):
        sd = _StageEngine(rep).at(xis, g, dg, Z, dx)
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
    m = rep.metric
    xs = np.array([p.x for p in points])
    xis = np.array([p.xi for p in points])
    # raises OutsideChart at a point past the domain guard
    g, dg = (np.array(a) for a in zip(*(_metric_jet(m, x) for x in xs)))
    s1 = _symbols(rep, sys, xs, xis, g)
    if m.diagonal:
        Z = xis / g.diagonal(axis1=-2, axis2=-1)
    else:
        Z = np.linalg.solve(g, xis[..., None])[..., 0]
    q = np.einsum("pi,pi->p", xis, Z)
    xi_sq = np.einsum("pi,pi->p", xis, xis)
    off = ~(np.abs(q) < null_tol * (1.0 + xi_sq))
    if np.any(off):
        i = int(np.flatnonzero(off)[0])
        raise NotOnCharacteristicSet(
            f"|q| = {abs(q[i])} >= {null_tol} * (1 + |xi|^2)")

    # the q-flow is H_q = (dq/dxi, -dq/dx) = (dx, dxi)
    dx = 2.0 * Z
    dxi = np.einsum("pkab,pa,pb->pk", dg, Z, Z)
    rho = np.concatenate((-dxi, dx), axis=-1)      # (dq/dx, dq/dxi)
    grad_norm = np.linalg.norm(rho, axis=-1)
    dq_nonzero = grad_norm > 1e-8 * (1.0 + xi_sq)
    hq = np.stack((np.concatenate((dx, dxi), axis=-1),
                   np.concatenate((np.zeros_like(xs), xis), axis=-1)), axis=-2)
    sv = np.linalg.svd(hq, compute_uv=False)     # H_q against the radial field
    nonradial = sv[:, 1] > 1e-8 * sv[:, 0]

    nbh = _neighbourhood_dims(rep, sys, xs, xis, unit, rank_tol)
    # the conormal derivative rho . (d sigma/dx, d sigma/dxi) / |rho| must
    # map the kernel onto the cokernel
    U, s, Vh = np.linalg.svd(s1)
    ker_dim = sys.N - _rank(s, rank_tol)
    need = (ker_dim > 0) & dq_nonzero
    jet = _conormal_jets(rep, sys, xs[need], xis[need], g[need], dg[need],
                         Z[need], dx[need])
    dsig = np.einsum("pj,pjab->pab", rho[need] / grad_norm[need, None], jet)
    cond = np.full(len(points), np.inf)
    cond[need] = _condition_numbers(U[need], Vh[need], ker_dim[need], dsig)

    ker_const = [bool(np.all(n == k)) for n, k in zip(nbh, ker_dim)]
    certs = []
    for i, p in enumerate(points):
        passed = bool(dq_nonzero[i] and nonradial[i] and ker_const[i]
                      and np.isfinite(cond[i]) and cond[i] < 1e8)
        certs.append(PrincipalTypeCertificate(
            at=p, on_char_set=True, dq_nonzero=bool(dq_nonzero[i]),
            nonradial=bool(nonradial[i]), ker_dim=int(ker_dim[i]),
            ker_coker_condition_number=float(cond[i]), passed=passed,
            mode="intrinsic", q=float(q[i]),
            neighborhood_ker_dims=nbh[i].tolist()))
    return certs
