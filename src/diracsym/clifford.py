"""Concrete Clifford modules over a chart.

The canonical build fixes one gamma-matrix set per supported dimension,
represents Clifford multiplication through the orthonormal frame of the
metric, and carries an indefinite sesquilinear product ``<phi, psi> =
psi* G phi`` together with the spin connection in the global frame
trivialization.  ``certify_axioms`` measures every module axiom numerically
and reports per-axiom residuals.
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
    _christoffel_from,
    _frame_jet_from,
    _metric_jet,
    eval_metric,
    orthonormal_frame,
    random_chart_point,
)

__all__ = [
    "CliffordModuleRep",
    "SampleSpec",
    "AxiomResult",
    "CertificateReport",
    "gamma_matrices",
    "build_canonical_module",
    "clifford_mul",
    "q_operator",
    "spin_connection_matrix",
    "spin_connection_coefficients",
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


# Clifford tables by gamma set: the shape and bytes of the stacked
# upper-index gammas -> the read-only arrays ``_derive_tables`` forms from
# them, shared by every module with that gamma set.
_TABLES: dict = {}
_MAX_TABLES = 16


def _clifford_tables(up):
    """(gamma^a, gamma^a gamma^b, stage tensors) for the stacked upper-index
    gammas ``up`` (d, N, N), derived on the first request for that exact
    gamma set and shared read-only afterwards."""
    key = (up.shape, up.tobytes())
    tables = _TABLES.get(key)
    if tables is None:
        if len(_TABLES) >= _MAX_TABLES:
            _TABLES.clear()
        tables = _TABLES[key] = _derive_tables(up)
    return tables


def _derive_tables(up):
    """The tables of ``_clifford_tables``, every array read-only.

    The stage tensors are the Clifford tensors the stage engine contracts
    real coefficient arrays against: rows of N*N complex entries stored as
    interleaved (re, im) floats, so a contraction is one real matmul whose
    result is read back with .view(complex).
    """
    N = up.shape[-1]
    up = up.copy()
    P = up[:, None] @ up                              # gamma^a gamma^b
    spin = -0.25 * P                                  # -1/4 gamma^a gamma^b
    commutator = P - P.transpose(1, 0, 2, 3)          # [gamma^a, gamma^b]
    # p_sub rows: gamma^c (-1/4 gamma^a gamma^b), then -1/2 gamma^b
    psub = np.concatenate((
        np.einsum("cij,abjk->cabik", up, spin).reshape(-1, N, N),
        -0.5 * up))
    stage = {k: np.ascontiguousarray(T.reshape(-1, N * N)).view(float)
             for k, T in (("gamma", up), ("commutator", commutator),
                          ("spin", spin), ("psub", psub))}
    for a in (up, P, *stage.values()):
        a.flags.writeable = False
    return up, P, MappingProxyType(stage)


@dataclass
class CliffordModuleRep:
    """A spin-k/2 Clifford module in one global trivialization.

    ``gammas`` act in frame indices; coordinate vectors are converted with
    the coframe before acting.  ``q_eval(x, N_1, ..., N_k)`` gives the
    Q-section, along leading axes of stacked directions N_i (d,) or
    (n, d); the canonical k = 1 build uses Q(N) = Gamma(N).
    """

    N: int
    gammas: list
    gram: np.ndarray
    metric: MetricField
    q_power: int = 1
    q_eval: Optional[Callable] = None
    eta: Optional[np.ndarray] = None
    name: str = "clifford_module"
    # upper-index gammas, their pair products and the stage engine's
    # tensors: shared read-only tables of the gamma set (_clifford_tables)
    gammas_up: list = field(default=None, repr=False, init=False)
    _pair_products: np.ndarray = field(default=None, repr=False, init=False)
    _stage_tensors: MappingProxyType = field(default=None, repr=False,
                                             init=False)

    def __post_init__(self):
        self.gammas = [np.asarray(g, dtype=complex) for g in self.gammas]
        self.gram = np.asarray(self.gram, dtype=complex)
        d = len(self.gammas)
        if self.eta is None:
            self.eta = np.diag([-1.0] + [1.0] * (d - 1))
        eps = np.diagonal(self.eta)
        up, self._pair_products, self._stage_tensors = _clifford_tables(
            np.stack([eps[a] * self.gammas[a] for a in range(d)]))
        self.gammas_up = list(up)

    @property
    def dim(self) -> int:
        return len(self.gammas)

    def gamma_of_frame(self, comps) -> np.ndarray:
        """Gamma(Z) from frame components Z^a, along leading axes of
        ``comps``."""
        return np.tensordot(comps, self.gammas, axes=(-1, 0))

    def gamma_of(self, x, Z) -> np.ndarray:
        """Gamma(Z) for coordinate vectors Z at x, along leading axes of
        ``Z``."""
        s = orthonormal_frame(self.metric, x)
        return self.gamma_of_frame(np.asarray(Z, dtype=float) @ s.E_inv.T)


def _connection_from(pair_products, eta, g, dg, E, dE, Einv):
    """Christoffel symbols Gam[..., i, j, k] = Gamma^i_jk and the spinor
    connection matrices omega[..., mu] from a metric and frame jet, at one
    point or along leading stack axes of every jet array.

    omega_mu^a_b = [E^-1 (d_mu E + Gamma_mu E)]^a_b, lowered with the frame
    signs and contracted against gamma^a gamma^b.
    """
    d = g.shape[-1]
    Gam = _christoffel_from(g, dg)
    w = Einv[..., None, :, :] @ (dE + Gam.swapaxes(-3, -2)
                                 @ E[..., None, :, :])
    w_low = np.diagonal(eta)[:, None] * w
    N = pair_products.shape[-1]
    omega = -0.25 * (w_low.reshape(w.shape[:-2] + (d * d,))
                     @ pair_products.reshape(d * d, N * N))
    return Gam, omega.reshape(w.shape[:-2] + (N, N))


def spin_connection_coefficients(m: MetricField, gammas_pair_products,
                                 eta, x) -> np.ndarray:
    """Matrices omega_mu of the spinor connection, one per coordinate
    direction, in the frame trivialization, built from the Christoffel
    symbols and the frame jet (see ``_connection_from``)."""
    g, dg = _metric_jet(m, x)
    E, dE, Einv = _frame_jet_from(m, g, dg)
    return _connection_from(gammas_pair_products, eta, g, dg, E, dE,
                            Einv)[1]


def spin_connection_matrix(rep: CliffordModuleRep, x, v) -> np.ndarray:
    """omega(x; v) = v^mu omega_mu for a coordinate direction v."""
    om = spin_connection_coefficients(rep.metric, rep._pair_products,
                                      rep.eta, x)
    v = np.asarray(v, dtype=float)
    return np.einsum("m,mij->ij", v, om)


def build_canonical_module(m: MetricField) -> CliffordModuleRep:
    """The shipped spin-1/2 module: fixed gammas, G = gamma_0, Q = Gamma."""
    gammas, eta, G = gamma_matrices(m.dim)
    rep = CliffordModuleRep(
        N=gammas[0].shape[0], gammas=gammas, gram=G, metric=m,
        q_power=1, eta=eta, name=f"canonical_spin_half[{m.name}]",
    )
    rep.q_eval = lambda x, Nvec: rep.gamma_of(x, Nvec)
    return rep


def clifford_mul(rep: CliffordModuleRep, x, Z, phi):
    """Gamma(Z) phi for a coordinate vector Z at x."""
    return rep.gamma_of(x, Z) @ np.asarray(phi, dtype=complex)


def q_operator(rep: CliffordModuleRep, x, N) -> np.ndarray:
    """Q_N = Q(N, ..., N) for a future-directed timelike N (checked)."""
    N = np.asarray(N, dtype=float)
    g, _ = eval_metric(rep.metric, x)
    nn = float(N @ g @ N)
    if nn >= 0.0:
        raise NotTimelike(f"g(N, N) = {nn} >= 0")
    s = orthonormal_frame(rep.metric, x)
    if (s.E_inv @ N)[0] <= 0.0:
        raise NotFutureDirected("N has non-positive frame time component")
    if rep.q_eval is None:
        raise UnsupportedDimension("module carries no Q section")
    return rep.q_eval(x, *([N] * rep.q_power))


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
    m = rep.metric
    d = rep.dim
    G = rep.gram
    Id = np.eye(rep.N)
    eta = rep.eta
    r = {}
    # draws: Z, Y, Y0 (3d), A (d x d), N's frame direction (d - 1), W (d)
    n_draw = 3 * d + d * d + (d - 1) + d
    xs = np.empty((n_pts, d))
    g = np.empty((n_pts, d, d))
    dg = np.empty((n_pts, d, d, d))
    draws = np.empty((n_pts, n_vec, n_draw))
    Yp = np.zeros((n_pts, n_vec, d))   # C7': non-null Y' (0 if none found)
    Wp = np.zeros((n_pts, n_vec, d))
    found = np.zeros((n_pts, n_vec), dtype=bool)
    for i in range(n_pts):
        xs[i] = random_chart_point(m, rng)
        g[i], dg[i] = _metric_jet(m, xs[i])
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

    E, dE, Einv = _frame_jet_from(m, g, dg)
    Gam, om = _connection_from(rep._pair_products, eta, g, dg, E, dE, Einv)
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
    # derivative and its covariant derivative, one row per direction mu
    dEinv = -(Einv[:, None] @ dE @ Einv[:, None])
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

    # Q from the module: N per vector, Y' where found, E_0 per point
    QN = np.empty((n_pts, n_vec, rep.N, rep.N), dtype=complex)
    QY = np.zeros_like(QN)
    Q0 = np.empty((n_pts, rep.N, rep.N), dtype=complex)
    for i in range(n_pts):
        dirs = np.concatenate((Nv[i], Yp[i, found[i]], E[i, None, :, 0]))
        Q = rep.q_eval(xs[i], *([dirs] * rep.q_power))
        QN[i], QY[i, found[i]], Q0[i] = Q[:n_vec], Q[n_vec:-1], Q[-1]

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
    gam = np.stack(rep.gammas)
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
    if rep.q_power == 1:
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
