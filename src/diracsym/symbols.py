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
from typing import Callable, Optional

import numpy as np

from .clifford import CliffordModuleRep, q_operator
from .errors import NotOnCharacteristicSet, ZeroCovector
from .geometry import (
    MetricField,
    PhasePoint,
    _frame_jet_from,
    _metric_jet,
    _partials,
    _phase_core,
    eval_metric,
    hamiltonian_q,
    null_project_covector,
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


def _symbol_jet(rep: CliffordModuleRep, sys: FirstOrderSystem,
                p: PhasePoint):
    """(d sigma_1/dx^j, d sigma_1/dxi_j) at p, stacked over j.

    The module's own Dirac system gets closed forms from one engine call;
    a foreign system gets central differences of its principal symbol in x
    and its coefficients A^j.
    """
    if _dirac_backed(rep, sys):
        sd = _StageEngine(rep)(p.x, p.xi)
        return sd.ds1x, sd.A
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
        dsdx, dsdxi = _symbol_jet(rep, sys, p)

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
    (valid on and off the characteristic set).  intrinsic mode: requires the
    point on the set and checks dq != 0 (|dq| > 1e-8 (1 + |xi|^2)),
    non-radial Hamiltonian direction, locally constant kernel dimension,
    and that the conormal derivative of the symbol maps kernel onto
    cokernel with condition number below 1e8.

    The neighbourhood dimensions come from one stacked SVD of the system's
    symbols at 8 nearby null points, by ``kernel_basis``'s rank rule.
    ``nonradial`` cannot fail for the metric Hamiltonian: the x-part of H_q
    is 2 g^-1 xi, nonzero whenever xi is, while the radial field has none,
    so the two are never parallel.  It is reported for the record.
    """
    m = rep.metric
    if sys is None:
        sys = dirac_system(rep)
    q = hamiltonian_q(m, p.x, p.xi)
    xi_sq = float(p.xi @ p.xi)
    on_char = abs(q) < null_tol * (1.0 + xi_sq)
    s1 = principal_symbol(sys, p)
    K, ker_dim = kernel_basis(s1, rank_tol)

    if mode == "factorization":
        pkg = symbol_package(rep, p, sys=sys)
        passed = pkg.factorization_residual < factor_tol
        return PrincipalTypeCertificate(
            at=p, on_char_set=on_char, dq_nonzero=None, nonradial=None,
            ker_dim=ker_dim, ker_coker_condition_number=None, passed=passed,
            mode=mode, q=q, factorization_residual=pkg.factorization_residual,
        )
    if mode != "intrinsic":
        raise ValueError(f"unknown certification mode {mode!r}")
    if not on_char:
        raise NotOnCharacteristicSet(
            f"|q| = {abs(q)} >= {null_tol} * (1 + |xi|^2)")

    # the q-flow is H_q = (dq/dxi, -dq/dx)
    _, _, _, dqdxi, dxi = _phase_core(m, p.x, p.xi)
    dqdx = -dxi
    grad_norm = float(np.sqrt(dqdx @ dqdx + dqdxi @ dqdxi))
    dq_nonzero = grad_norm > 1e-8 * (1.0 + xi_sq)

    hq = np.concatenate([dqdxi, dxi])
    radial = np.concatenate([np.zeros_like(p.x), p.xi])
    sv = np.linalg.svd(np.stack([hq, radial]), compute_uv=False)
    nonradial = sv[1] > 1e-8 * sv[0]

    # kernel dimensions of the system's own symbol at 8 nearby null points
    rng = np.random.default_rng(seed)
    syms = []
    scale_x = 1e-3 * (1.0 + np.abs(p.x))
    scale_xi = 1e-3 * float(np.linalg.norm(p.xi))
    for _ in range(8):
        for _ in range(16):
            x2 = p.x + scale_x * rng.uniform(-1.0, 1.0, size=m.dim)
            if m.domain_guard(x2):
                break
        else:
            x2 = p.x.copy()
        xi2 = p.xi.copy()
        xi2[1:] += scale_xi * rng.uniform(-1.0, 1.0, size=m.dim - 1)
        try:
            xi2 = null_project_covector(m, x2, xi2)
        except NotOnCharacteristicSet:
            continue
        syms.append(principal_symbol(sys, PhasePoint(x2, xi2)))
    sv = np.linalg.svd(np.reshape(syms, (-1, sys.N, sys.N)), compute_uv=False)
    nbh = (sys.N - _rank(sv, rank_tol)).tolist()
    ker_const = all(kd == ker_dim for kd in nbh)

    C, _ = kernel_basis(s1.conj().T, rank_tol)
    cond = np.inf
    if K and len(C) == len(K) and dq_nonzero:
        dsdx, dsdxi = _symbol_jet(rep, sys, p)
        rho = np.concatenate([dqdx, dqdxi]) / grad_norm
        dsig = np.tensordot(rho, np.concatenate((dsdx, dsdxi)), axes=1)
        Kmat = np.stack(K, axis=1)
        Cmat = np.stack(C, axis=1)
        T = Cmat.conj().T @ dsig @ Kmat
        s = np.linalg.svd(T, compute_uv=False)
        cond = float(s[0] / s[-1]) if s[-1] > 0.0 else np.inf

    passed = bool(dq_nonzero and nonradial and ker_const
                  and np.isfinite(cond) and cond < 1e8)
    return PrincipalTypeCertificate(
        at=p, on_char_set=True, dq_nonzero=bool(dq_nonzero),
        nonradial=bool(nonradial), ker_dim=ker_dim,
        ker_coker_condition_number=cond, passed=passed, mode=mode, q=q,
        neighborhood_ker_dims=nbh,
    )
