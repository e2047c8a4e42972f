"""Concrete Clifford modules over a chart.

The canonical build fixes one gamma-matrix set per supported dimension,
represents Clifford multiplication through the orthonormal frame of the
metric, and carries an indefinite sesquilinear product ``<phi, psi> =
psi* G phi`` together with the spin connection in the global frame
trivialization.  Gamma(Z), the spin connection and the transports' stage
data (``CliffordModuleRep.stage``) are contractions against four Clifford
tensors of the gamma set, so ``certify_axioms``, which measures every
module axiom numerically and reports per-axiom residuals, certifies the
tensors the transports run.
"""
from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Optional

import numpy as np

from .errors import (
    ConfigError,
    NotFutureDirected,
    NotTimelike,
    UnsupportedDimension,
)
from .geometry import (
    MetricField,
    _chart_draw,
    _christoffel_from,
    _frame_connection,
    _frame_from,
    _metric_jet,
    _phase_core,
    eval_metric,
    orthonormal_frame,
)

__all__ = [
    "CliffordModuleRep",
    "SampleSpec",
    "AxiomResult",
    "CertificateReport",
    "gamma_matrices",
    "build_canonical_module",
    "q_operator",
    "spin_connection_matrix",
    "certify_axioms",
]


def gamma_matrices(dim: int):
    """Fixed gamma set for the chart dimension.

    Returns (gammas, eta, G) with gamma_a gamma_b + gamma_b gamma_a =
    -2 eta_ab Id, eta = diag(-1, 1, ..., 1), and G the Gram matrix of the
    indefinite product.  Dimensions other than 2 and 4 are rejected.  Each
    call returns fresh arrays of its own.
    """
    gammas, eta, G = _shipped_gammas(dim)
    return [g.copy() for g in gammas], eta.copy(), G.copy()


@functools.cache
def _shipped_gammas(dim: int):
    """The gamma set of ``gamma_matrices``, built once per dimension."""
    if dim == 4:
        s1 = np.array([[0, 1], [1, 0]], dtype=complex)
        s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
        s3 = np.array([[1, 0], [0, -1]], dtype=complex)
        z = np.zeros((2, 2), dtype=complex)
        I2 = np.eye(2, dtype=complex)
        g0 = np.block([[I2, z], [z, -I2]])
        gk = [np.block([[z, s], [-s, z]]) for s in (s1, s2, s3)]
        return [g0] + gk, np.diag([-1.0, 1.0, 1.0, 1.0]), g0
    if dim == 2:
        g0 = np.array([[1, 0], [0, -1]], dtype=complex)
        g1 = np.array([[0, 1j], [1j, 0]], dtype=complex)
        return [g0, g1], np.diag([-1.0, 1.0]), g0
    raise UnsupportedDimension(
        f"no shipped gamma set for dimension {dim} (have 2 and 4)")


@functools.lru_cache(maxsize=16)
def _clifford_tables(shape, data):
    """(eta, Clifford tensors) for the gamma set whose stacked (d, N, N)
    complex entries are the bytes ``data``, derived on the first request
    for that exact gamma set and shared read-only afterwards.

    A tensor holds one Clifford product per row, N*N complex entries as
    interleaved (re, im) floats, for ``CliffordModuleRep.contract``'s one
    real matmul: "gamma" gamma^a, "commutator" [gamma^a, gamma^b], "spin"
    -1/4 gamma^a gamma^b and "psub" gamma^c (-1/4 gamma^a gamma^b), then
    -1/2 gamma^b (``StageData._psub_coeffs``'s row order).
    """
    d, N = shape[0], shape[-1]
    eta = np.diag([-1.0] + [1.0] * (d - 1))
    up = np.diagonal(eta)[:, None, None] * np.frombuffer(
        data, dtype=complex).reshape(shape)
    P = up[:, None] @ up                              # gamma^a gamma^b
    spin = -0.25 * P
    psub = np.concatenate((
        np.einsum("cij,abjk->cabik", up, spin).reshape(-1, N, N),
        -0.5 * up))
    tensors = {k: np.ascontiguousarray(T.reshape(-1, N * N)).view(float)
               for k, T in (("gamma", up),
                            ("commutator", P - P.transpose(1, 0, 2, 3)),
                            ("spin", spin), ("psub", psub))}
    for a in (eta, *tensors.values()):
        a.flags.writeable = False
    return eta, MappingProxyType(tensors)


def _rows(a) -> np.ndarray:
    """``a`` with its last two axes flattened into one."""
    return a.reshape(a.shape[:-2] + (-1,))


class StageData:
    """The transports' data at one phase point (x, xi), or at a stack of
    points along leading axes of every field: the frame E, E^-1, E^-1 Z,
    and what ``CliffordModuleRep.stage_at`` reads off the frame components
    F of dg: the bracket coefficients P, the divergence term dv, kappa and
    the lowered frame connection omega[c, a, b] = omega_c^{ab}.  Every
    matrix is formed only when read, by one contraction against the
    module's Clifford tensors (the generator by three and a stacked
    product).  Read off: sigma1, A, ds1x, bracket, B, p_sub, kappa,
    omega_dot and generator.
    """

    __slots__ = ("rep", "xi", "E", "Einv", "Zf", "P", "dv", "kappa",
                 "omega")

    def __init__(self, rep, xi, E, Einv, Zf, P, dv, kappa, omega):
        self.rep, self.xi, self.E, self.Einv, self.Zf = rep, xi, E, Einv, Zf
        self.P, self.dv, self.kappa, self.omega = P, dv, kappa, omega

    @property
    def sigma1(self) -> np.ndarray:
        """i Gamma(xi^sharp)."""
        return self.rep.sigma1(self.xi, self.E)

    @property
    def A(self) -> np.ndarray:
        """A^m = d sigma_1 / d xi_m."""
        return 1j * self.rep.contract(self.E, "gamma")

    @property
    def ds1x(self) -> np.ndarray:
        """d sigma_1 / d x^k = i gamma^b sum_c (E^-1)^c_k P[c, b]."""
        return 1j * self.rep.contract(self.Einv.swapaxes(-1, -2) @ self.P,
                                      "gamma")

    def _psub_coeffs(self) -> np.ndarray:
        # B = -i A^m omega_m = omega_cab gamma^c (-1/4 gamma^a gamma^b); the
        # divergence term -(1/2i) d_k A^k = -1/2 dv_b gamma^b
        return np.concatenate((_rows(_rows(self.omega)), self.dv), axis=-1)

    @property
    def bracket(self) -> np.ndarray:
        """sum_k [A^k, d_k sigma_1] = -P_ab [gamma^a, gamma^b], the matrix
        Poisson bracket."""
        return -self.rep.contract(_rows(self.P), "commutator")

    @property
    def B(self) -> np.ndarray:
        """Zeroth-order coefficient -i A^m omega_m of the Dirac system:
        p_sub without its divergence term."""
        u = self._psub_coeffs()
        u[..., -self.xi.shape[-1]:] = 0.0
        return self.rep.contract(u, "psub")

    @property
    def p_sub(self) -> np.ndarray:
        """Subprincipal symbol B - (1/2i) d_k A^k of the Dirac system."""
        return self.rep.contract(self._psub_coeffs(), "psub")

    @property
    def omega_dot(self) -> np.ndarray:
        """omega(x; xdot) = xdot^m omega_m, with E^-1 xdot = 2 E^-1 Z."""
        w = 2.0 * self.Zf[..., None, :] @ _rows(self.omega)
        return self.rep.contract(w[..., 0, :], "spin")

    def generator(self, sign: float = 1.0) -> np.ndarray:
        """(1/2) bracket + sign * i sigma_tilde p_sub - kappa Id.

        sigma_tilde equals sigma_1 = i Gamma(c) (c = E^T xi) for the
        canonical modules, so the subprincipal term is -Gamma(sign c) p_sub:
        the bracket, p_sub and Gamma(sign c) are one contraction each, and
        one stacked product joins the last two.
        """
        c = sign * (self.xi[..., None, :] @ self.E)[..., 0, :]
        out = 0.5 * self.bracket
        out -= self.rep.contract(c, "gamma") @ self.p_sub
        i = np.arange(self.rep.N)
        out[..., i, i] -= self.kappa[..., None]
        return out


@dataclass
class CliffordModuleRep:
    """A Clifford module in one global trivialization: its gamma set, the
    Gram matrix of its indefinite product and the metric.

    ``gammas`` act in frame indices; coordinate vectors are converted with
    the coframe before acting.  N (the gammas' size) and eta = diag(-1, 1,
    ..., 1) are derived from the gammas.  ``q_eval(c)`` gives the
    Q-section at frame components c along leading axes, as Gamma acts; a
    module without one has Q = Gamma.  ``stage`` and ``stage_at``
    give everything the transports need at a phase point or a stack of
    them, by contractions against its Clifford tensors (``contract``).
    """

    gammas: list
    gram: np.ndarray
    metric: MetricField
    q_eval: Optional[Callable] = None
    name: str = "clifford_module"
    N: int = field(default=None, init=False)
    # eta and the Clifford tensors: shared read-only tables of the gamma
    # set (_clifford_tables)
    eta: np.ndarray = field(default=None, repr=False, init=False)
    tensors: MappingProxyType = field(default=None, repr=False, init=False)

    def __post_init__(self):
        self.gammas = [np.asarray(g, dtype=complex) for g in self.gammas]
        self.gram = np.asarray(self.gram, dtype=complex)
        if len(self.gammas) != self.metric.dim:
            raise ConfigError(f"{self.name}: {len(self.gammas)} gammas for "
                              f"a metric of dimension {self.metric.dim}")
        N = self.gammas[0].shape[-1] if self.gammas[0].ndim else 0
        for a, g in enumerate(self.gammas):
            if g.shape != (N, N):
                raise ConfigError(f"{self.name}: gamma {a} has shape "
                                  f"{g.shape}, not ({N}, {N})")
        if self.gram.shape != (N, N):
            raise ConfigError(f"{self.name}: gram has shape "
                              f"{self.gram.shape}, not ({N}, {N}) like the "
                              f"gammas")
        gam = np.stack(self.gammas)
        self.N = N
        self.eta, self.tensors = _clifford_tables(gam.shape, gam.tobytes())

    @property
    def dim(self) -> int:
        return len(self.gammas)

    def contract(self, coeffs, tensor: str) -> np.ndarray:
        """Real coeffs[..., k] times row k of a Clifford tensor, as N x N
        matrices."""
        out = (coeffs @ self.tensors[tensor]).view(complex)
        return out.reshape(out.shape[:-1] + (self.N, self.N))

    def gamma_of_frame(self, comps) -> np.ndarray:
        """Gamma(Z) = Z_a gamma^a from frame components Z^a, along leading
        axes of ``comps``."""
        return self.contract(np.asarray(comps, dtype=float)
                             * np.diagonal(self.eta), "gamma")

    def gamma_of(self, x, Z) -> np.ndarray:
        """Gamma(Z) for coordinate vectors Z at x, along leading axes of
        ``Z``."""
        s = orthonormal_frame(self.metric, x)
        return self.gamma_of_frame(np.asarray(Z, dtype=float) @ s.E_inv.T)

    def q_of(self, c) -> np.ndarray:
        """Q at frame components c (leading axes); Gamma without q_eval."""
        return (self.q_eval or self.gamma_of_frame)(c)

    def sigma1(self, xi, E) -> np.ndarray:
        """i Gamma(E^T xi); batched over leading axes of xi and E."""
        c = np.einsum("...m,...ma->...a", xi, E)
        return 1j * self.contract(c, "gamma")

    def stage(self, x, xi) -> StageData:
        """StageData at the phase point (x, xi)."""
        g, dg, Z = _phase_core(self.metric, x, xi)[:3]
        return self.stage_at(xi, g, dg, Z)

    def stage_at(self, xi, g, dg, Z) -> StageData:
        """StageData from the flow's values (xi, g, dg, Z), which may carry
        leading stack axes; xdot = 2 Z.

        The frame E, the frame components F of dg, X_c = eta (d_c R) E and
        the connection omega come from ``_frame_connection``; with E^-1 d_c E
        = -eta X_c, P[a, b] = (xi . d_a E)_b = -(E^T xi . eta X_a)_b, dv_b =
        d_k E^k_b = -sum_e eta_e X_eeb and kappa = -Z^k tr(E^-1 d_k E) =
        (1/2) E^-1 Z . tr_eta F.
        """
        E, Einv, F, X, omega = _frame_connection(g, dg)
        eta, i = np.diagonal(self.eta), np.arange(self.dim)
        c = (xi[..., None, :] @ E)[..., 0, :]
        P = -((c * eta)[..., None, None, :] @ X)[..., 0, :]
        Zf = (Einv @ Z[..., None])[..., 0]
        kappa = 0.5 * np.sum(Zf * (F[..., i, i] @ eta), axis=-1)
        return StageData(self, xi, E, Einv, Zf, P, -(eta @ X[..., i, i, :]),
                         kappa, omega)


def _spin_connection(rep: CliffordModuleRep, Einv, omega) -> np.ndarray:
    """Matrices omega_mu of the spinor connection, one per coordinate
    direction, in the frame trivialization: the frame connection
    omega[c, a, b] of ``_frame_connection`` turned to coordinate directions
    by E^-T and contracted against the module's spin tensor -1/4 gamma^a
    gamma^b, along leading stack axes of ``Einv`` and ``omega``."""
    return rep.contract(Einv.swapaxes(-1, -2) @ _rows(omega), "spin")


def spin_connection_matrix(rep: CliffordModuleRep, x, v) -> np.ndarray:
    """omega(x; v) = v^mu omega_mu for a coordinate direction v, from the
    connection the transports run (``_frame_connection``)."""
    _, Einv, _, _, omega = _frame_connection(*_metric_jet(rep.metric, x))
    return np.tensordot(np.asarray(v, dtype=float),
                        _spin_connection(rep, Einv, omega), axes=1)


def build_canonical_module(m: MetricField) -> CliffordModuleRep:
    """The shipped spin-1/2 module: fixed gammas, G = gamma_0, Q = Gamma."""
    gammas, _, G = gamma_matrices(m.dim)
    return CliffordModuleRep(gammas, G, m,
                             name=f"canonical_spin_half[{m.name}]")


def q_operator(rep: CliffordModuleRep, x, N) -> np.ndarray:
    """Q_N at the frame components of a future-directed timelike N."""
    N = np.asarray(N, dtype=float)
    g, _ = eval_metric(rep.metric, x)
    nn = float(N @ g @ N)
    if nn >= 0.0:
        raise NotTimelike(f"g(N, N) = {nn} >= 0")
    c = _frame_from(g)[1] @ N
    if c[0] <= 0.0:
        raise NotFutureDirected("N has non-positive frame time component")
    return rep.q_of(c)


# ---------------------------------------------------------------------------
# certification


@dataclass
class SampleSpec:
    points: int = 20
    vectors: int = 10
    seed: int = 0


@dataclass
class AxiomResult:
    name: str
    max_residual: float
    tolerance: float
    passed: bool
    note: str = ""
    extra: dict = field(default_factory=dict)

    def to_dict(self):
        d = {"max_residual": self.max_residual, "tolerance": self.tolerance,
             "pass": self.passed}
        if self.note:
            d["note"] = self.note
        d.update(self.extra)
        return d


@dataclass
class CertificateReport:
    fixture: str
    sample: SampleSpec
    tolerance: float
    axioms: dict
    gram_index: tuple
    gram_index_ok: bool
    passed: bool
    elapsed_s: float

    def to_dict(self):
        return {
            "fixture": self.fixture,
            "sample": {"points": self.sample.points,
                       "vectors": self.sample.vectors,
                       "seed": self.sample.seed},
            "tolerance": self.tolerance,
            "axioms": {k: v.to_dict() for k, v in self.axioms.items()},
            "gram_index": list(self.gram_index),
            "gram_index_ok": self.gram_index_ok,
            "pass": self.passed,
        }


def _maxabs(A) -> float:
    return float(np.max(np.abs(A)))


def _gram_index(G) -> tuple:
    ev = np.linalg.eigvalsh(np.asarray(G, dtype=complex))
    return int(np.sum(ev > 0.0)), int(np.sum(ev < 0.0))


def _block_residuals(rep: CliffordModuleRep, rng, n_pts: int, n_vec: int):
    """Draw n_pts points with n_vec vectors each, in ``certify_axioms``'s
    order, and return every axiom's max residual over them (C1 on the
    sampled vectors) and C8's smallest eigenvalue."""
    d = rep.dim
    G = rep.gram
    Id = np.eye(rep.N)
    r = {}
    # draws: Z, Y, Y0 (3d), A (d x d), N's frame direction (d - 1), W (d)
    n_draw = 3 * d + d * d + (d - 1) + d
    g = np.empty((n_pts, d, d))
    dg = np.empty((n_pts, d, d, d))
    draws = np.empty((n_pts, n_vec, n_draw))
    Yp = np.zeros((n_pts, n_vec, d))   # C7': non-null Y' (0 if none found)
    Wp = np.zeros((n_pts, n_vec, d))
    found = np.zeros((n_pts, n_vec), dtype=bool)
    for i in range(n_pts):
        _, g[i], dg[i] = _chart_draw(rep.metric, rng)
        for j in range(n_vec):
            draws[i, j] = rng.uniform(-1.0, 1.0, size=n_draw)
            for _ in range(8):
                y = rng.uniform(-1.0, 1.0, size=d)
                if abs(float(y @ g[i] @ y)) >= 0.1:
                    Yp[i, j], found[i, j] = y, True
                    Wp[i, j] = rng.uniform(-1.0, 1.0, size=d)
                    break
    Z, Y, Y0 = (draws[..., k * d:(k + 1) * d] for k in range(3))
    A = draws[..., 3 * d:3 * d + d * d].reshape(n_pts, n_vec, d, d)
    u = draws[..., 3 * d + d * d:-d]
    W = draws[..., -d:]

    E, Einv, _, X, omega = _frame_connection(g, dg)
    om = _spin_connection(rep, Einv, omega)
    Gam = _christoffel_from(g, dg)
    gp = g[:, None]                                    # (points, 1, d, d)

    def dot(U, V):
        """g(U, V) at each vector's point."""
        return ((U[..., None, :] @ gp) @ V[..., :, None])[..., 0, 0]

    # future timelike unit N through the frame, spatial part within 0.85
    nrm = np.linalg.norm(u, axis=-1, keepdims=True)
    u = np.where(nrm > 0.85, u * (0.85 / nrm), u)
    Nv = (E[:, None] @ np.concatenate((np.ones(u.shape[:-1] + (1,)), u),
                                      axis=-1)[..., None])[..., 0]
    Nv = Nv / np.sqrt(-dot(Nv, Nv))[..., None]
    Zp = W - (dot(W, Nv) / dot(Nv, Nv))[..., None] * Nv
    yy = np.where(found, dot(Yp, Yp), 1.0)
    Zo = Wp - (dot(Wp, Yp) / yy)[..., None] * Yp

    # C3 on the affine field Y0 + A (x' - x): its frame components'
    # derivative, with d_mu E^-1 = sum_c E^-1[c, mu] eta X_c E^-1 from
    # E^-1 d_c E = -eta X_c, and its covariant derivative by the
    # Christoffel symbols, one row per direction mu
    etaX = np.diagonal(rep.eta)[:, None] * X
    dEinv = Einv.swapaxes(-1, -2) @ etaX.reshape(n_pts, d, d * d)
    dEinv = dEinv.reshape(X.shape) @ Einv[:, None]
    dcomp = ((dEinv[:, None] @ Y0[:, :, None, :, None])[..., 0]
             + (Einv[:, None] @ A).swapaxes(-1, -2))
    nab = (A.swapaxes(-1, -2)
           + (Gam.swapaxes(-3, -2)[:, None] @ Y0[:, :, None, :, None])[..., 0])
    coords = np.concatenate((np.stack((Z, Y, Y0, Zp, Nv, Zo), axis=2), nab),
                            axis=2)
    comps = (Einv[:, None, None] @ coords[..., None])[..., 0]
    gm = rep.gamma_of_frame(np.concatenate((comps, dcomp), axis=2))
    GZ, GY, GY0, GZp, GN, GZo = (gm[:, :, k] for k in range(6))
    Gnab, dgam = gm[:, :, 6:6 + d], gm[:, :, 6 + d:]

    # Q in one call on frame components: N and Y' (where found) per
    # vector, E_0 per point
    dirs = np.concatenate((Nv, Yp, E[:, None, :, 0]), axis=1)
    Q = rep.q_of((Einv[:, None] @ dirs[..., None])[..., 0])
    QN, Q0 = Q[:, :n_vec], Q[:, -1]
    QY = np.where(found[..., None, None], Q[:, n_vec:-1], 0.0)

    def herm(M):
        return M.conj().swapaxes(-1, -2)

    om_v = om[:, None]
    r["C1"] = _maxabs(GZ @ GY + GY @ GZ
                      + 2.0 * dot(Z, Y)[..., None, None] * Id)
    # C2: parallel Gram matrix (constant G in this trivialization)
    r["C2"] = _maxabs(G @ om + herm(om) @ G)
    r["C3"] = _maxabs(dgam + om_v @ GY0[:, :, None]
                      - GY0[:, :, None] @ om_v - Gnab)
    r["C4"] = _maxabs(G @ GZ - herm(GZ) @ G)
    # timelike-N family: C6, C7.1, C7.2, C8
    r["C6"] = _maxabs(G @ QN - herm(QN) @ G)
    r["C7.1"] = _maxabs(QN @ GZp + GZp @ QN)
    r["C7.2"] = _maxabs(QN @ GN - GN @ QN)
    # C7': arbitrary non-null Y', Z' orthogonal to it
    r["C7p"] = _maxabs(QY @ GZo + GZo @ QY)
    # C8 at the distinguished frame time direction
    H = G @ Q0
    c8_min = float(np.min(np.linalg.eigvalsh(0.5 * (H + herm(H)))))
    return r, c8_min


# (point, vector) pairs per block of residual arrays; a block takes whole
# points, at least one, so it holds at most max(_BLOCK_PAIRS, vectors)
# pairs of some 30 kB each for d = 4, whatever the sample's size.
_BLOCK_PAIRS = 256


def certify_axioms(rep: CliffordModuleRep, sample: SampleSpec,
                   tolerance: float = 1e-6) -> CertificateReport:
    """Per-axiom max residuals over a random sample of points, vectors,
    fields, and timelike directions.  Failures are report entries, never
    exceptions; a sample without points or vectors is a ConfigError.

    The sample is drawn point by point: the point, then for each vector
    Z, Y, Y0, A, the frame direction of the timelike N and W in one draw,
    then up to 8 draws of a non-null Y' for C7' and, if one is found, W'.
    The residuals are formed over all points and vectors of a block of
    points at once (``_block_residuals``) and maximized across blocks.
    """
    if sample.points < 1 or sample.vectors < 1:
        raise ConfigError(f"certification needs at least one point and one "
                          f"vector, got {sample.points} and {sample.vectors}")
    t0 = time.perf_counter()
    m = rep.metric
    n_pts, n_vec = sample.points, sample.vectors
    rng = np.random.default_rng(sample.seed)
    gam = rep.gamma_of_frame(np.eye(rep.dim))
    G = rep.gram
    # frame-index Clifford relation, point independent
    r = {"C1": _maxabs(gam[:, None] @ gam + gam @ gam[:, None]
                       + 2.0 * rep.eta[:, :, None, None] * np.eye(rep.N))}
    c8_min = np.inf
    per_block = max(1, _BLOCK_PAIRS // n_vec)
    for start in range(0, n_pts, per_block):
        rb, c8b = _block_residuals(rep, rng, min(per_block, n_pts - start),
                                   n_vec)
        for key, val in rb.items():
            r[key] = max(r.get(key, 0.0), val)
        c8_min = min(c8_min, c8b)

    idx = _gram_index(G)
    idx_ok = idx == (rep.N // 2, rep.N // 2)

    r["C5"] = r["C3"]
    axioms = {key: AxiomResult(key, r[key], tolerance, r[key] < tolerance)
              for key in ("C1", "C2", "C3", "C4", "C5", "C6", "C7.1",
                          "C7.2", "C7p")}
    axioms["C5"].note = "equals C3 for spin 1/2 modules"
    axioms["C8"] = AxiomResult(
        "C8", max(0.0, -c8_min), tolerance, c8_min > 0.0,
        extra={"min_eigenvalue": c8_min})

    passed = idx_ok and all(a.passed for a in axioms.values())
    return CertificateReport(
        fixture=m.name, sample=sample, tolerance=tolerance, axioms=axioms,
        gram_index=idx, gram_index_ok=idx_ok, passed=passed,
        elapsed_s=time.perf_counter() - t0,
    )
