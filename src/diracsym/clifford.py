"""Concrete Clifford modules over a chart.

The canonical build fixes one gamma-matrix set per supported dimension,
represents Clifford multiplication through the orthonormal frame of the
metric, and carries an indefinite sesquilinear product ``<phi, psi> =
psi* G phi`` together with the spin connection in the global frame
trivialization.  ``certify_axioms`` measures every module axiom numerically
and reports per-axiom residuals.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
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
    _frame_jet,
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
    indefinite product.  Dimensions other than 2 and 4 are rejected.
    """
    if dim == 4:
        s1 = np.array([[0, 1], [1, 0]], dtype=complex)
        s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
        s3 = np.array([[1, 0], [0, -1]], dtype=complex)
        z = np.zeros((2, 2), dtype=complex)
        I2 = np.eye(2, dtype=complex)
        g0 = np.block([[I2, z], [z, -I2]])
        gk = [np.block([[z, s], [-s, z]]) for s in (s1, s2, s3)]
        gammas = [g0] + gk
        eta = np.diag([-1.0, 1.0, 1.0, 1.0])
        return gammas, eta, g0.copy()
    if dim == 2:
        g0 = np.array([[1, 0], [0, -1]], dtype=complex)
        g1 = np.array([[0, 1j], [1j, 0]], dtype=complex)
        eta = np.diag([-1.0, 1.0])
        return [g0, g1], eta, g0.copy()
    raise UnsupportedDimension(
        f"no shipped gamma set for dimension {dim} (have 2 and 4)")


@dataclass
class CliffordModuleRep:
    """A spin-k/2 Clifford module in one global trivialization.

    ``gammas`` act in frame indices; coordinate vectors are converted with
    the coframe before acting.  ``q_eval(x, N_1, ..., N_k)`` gives the
    Q-section; the canonical k = 1 build uses Q(N) = Gamma(N).
    """

    N: int
    gammas: list
    gram: np.ndarray
    metric: MetricField
    q_power: int = 1
    q_eval: Optional[Callable] = None
    eta: Optional[np.ndarray] = None
    name: str = "clifford_module"
    # upper-index gammas and their pair products, cached for the connection
    gammas_up: list = field(default=None, repr=False)
    _pair_products: np.ndarray = field(default=None, repr=False)
    # the Clifford tensors the stage engine contracts real coefficient
    # arrays against: rows of N*N complex entries stored as interleaved
    # (re, im) floats, so a contraction is one real matmul whose result
    # is read back with .view(complex)
    _stage_tensors: dict = field(default=None, repr=False, init=False)

    def __post_init__(self):
        self.gammas = [np.asarray(g, dtype=complex) for g in self.gammas]
        self.gram = np.asarray(self.gram, dtype=complex)
        d = len(self.gammas)
        if self.eta is None:
            self.eta = np.diag([-1.0] + [1.0] * (d - 1))
        eps = np.diagonal(self.eta)
        if self.gammas_up is None:
            self.gammas_up = [eps[a] * self.gammas[a] for a in range(d)]
        if self._pair_products is None:
            P = np.empty((d, d, self.N, self.N), dtype=complex)
            for a in range(d):
                for b in range(d):
                    P[a, b] = self.gammas_up[a] @ self.gammas_up[b]
            self._pair_products = P
        N, P = self.N, self._pair_products
        up = np.stack(self.gammas_up)                     # gamma^a
        spin = -0.25 * P                                  # -1/4 gamma^a gamma^b
        commutator = P - P.transpose(1, 0, 2, 3)          # [gamma^a, gamma^b]
        # p_sub rows: gamma^c (-1/4 gamma^a gamma^b), then -1/2 gamma^b
        psub = np.concatenate((
            np.einsum("cij,abjk->cabik", up, spin).reshape(-1, N, N),
            -0.5 * up))
        tensors = {
            "gamma": up, "commutator": commutator, "spin": spin, "psub": psub,
            # -1/2 [gamma^a, gamma^b]; -gamma^a times each p_sub row; -Id
            "generator": np.concatenate((
                -0.5 * commutator.reshape(-1, N, N),
                -np.einsum("aij,rjk->arik", up, psub).reshape(-1, N, N),
                -np.eye(N)[None])),
        }
        self._stage_tensors = {
            k: np.ascontiguousarray(T.reshape(-1, N * N),
                                    dtype=complex).view(float)
            for k, T in tensors.items()}

    @property
    def dim(self) -> int:
        return len(self.gammas)

    def gamma_of_frame(self, comps) -> np.ndarray:
        """Gamma(Z) from frame components Z^a."""
        comps = np.asarray(comps)
        out = comps[0] * self.gammas[0]
        for a in range(1, self.dim):
            out = out + comps[a] * self.gammas[a]
        return out

    def gamma_of(self, x, Z) -> np.ndarray:
        """Gamma(Z) for a coordinate vector Z at x."""
        s = orthonormal_frame(self.metric, x)
        return self.gamma_of_frame(s.E_inv @ np.asarray(Z, dtype=float))


def spin_connection_coefficients(m: MetricField, gammas_pair_products,
                                 eta, x) -> np.ndarray:
    """Matrices omega_mu of the spinor connection, one per coordinate
    direction, in the frame trivialization.

    Built from the frame jet: omega_mu^a_b = [E^-1 (d_mu E + Gamma_mu E)]^a_b,
    lowered with the frame signs and contracted against gamma^a gamma^b.
    """
    g, dg = _metric_jet(m, x)
    E, dE, Einv = _frame_jet(m, x)
    ginv = np.linalg.inv(g)
    T = dg.transpose(1, 0, 2) + dg.transpose(1, 2, 0) - dg
    Gam = 0.5 * np.einsum("il,ljk->ijk", ginv, T)
    d = m.dim
    eps = np.diagonal(eta)
    omega = np.empty((d,) + gammas_pair_products.shape[2:], dtype=complex)
    for mu in range(d):
        w = Einv @ (dE[mu] + Gam[:, mu, :] @ E)
        w_low = eps[:, None] * w
        omega[mu] = -0.25 * np.einsum("ab,abij->ij", w_low,
                                      gammas_pair_products)
    return omega


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
    spinors: int = 10
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
                       "spinors": self.sample.spinors,
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


def _unit_timelike_future(rng, E, g):
    """Random future timelike unit vector via the frame."""
    d = E.shape[0]
    u = rng.uniform(-1.0, 1.0, size=d - 1)
    nrm = np.linalg.norm(u)
    if nrm > 0.85:
        u *= 0.85 / nrm
    Nf = np.concatenate(([1.0], u))
    N = E @ Nf
    return N / np.sqrt(-float(N @ g @ N))


def certify_axioms(rep: CliffordModuleRep, sample: SampleSpec,
                   tolerance: float = 1e-6) -> CertificateReport:
    """Per-axiom max residuals over a random sample of points, vectors,
    fields, and timelike directions.  Failures are report entries, never
    exceptions; a sample without points or vectors is a ConfigError."""
    if sample.points < 1 or sample.vectors < 1:
        raise ConfigError(f"certification needs at least one point and one "
                          f"vector, got {sample.points} and {sample.vectors}")
    t0 = time.perf_counter()
    m = rep.metric
    d = rep.dim
    rng = np.random.default_rng(sample.seed)
    gam = rep.gammas
    G = rep.gram
    Id = np.eye(rep.N, dtype=complex)
    eta = rep.eta

    # frame-index Clifford relation, point independent
    c1 = 0.0
    for a in range(d):
        for b in range(d):
            c1 = max(c1, _maxabs(gam[a] @ gam[b] + gam[b] @ gam[a]
                                 + 2.0 * eta[a, b] * Id))

    r = {k: 0.0 for k in
         ("C1", "C2", "C3", "C4", "C6", "C7.1", "C7.2", "C7p")}
    r["C1"] = c1
    c8_min = np.inf

    for _ in range(sample.points):
        x = random_chart_point(m, rng)
        g, ginv = eval_metric(m, x)
        E, dE, Einv = _frame_jet(m, x)
        dEinv = -(Einv @ dE @ Einv)
        _, dg = _metric_jet(m, x)
        T = dg.transpose(1, 0, 2) + dg.transpose(1, 2, 0) - dg
        Gam = 0.5 * np.einsum("il,ljk->ijk", ginv, T)
        om = spin_connection_coefficients(m, rep._pair_products, rep.eta, x)

        def gamma_vec(V):
            return rep.gamma_of_frame(Einv @ V)

        # C2: parallel Gram matrix (constant G in this trivialization)
        for mu in range(d):
            r["C2"] = max(r["C2"], _maxabs(G @ om[mu]
                                           + om[mu].conj().T @ G))

        for _ in range(sample.vectors):
            Z = rng.uniform(-1.0, 1.0, size=d)
            Y = rng.uniform(-1.0, 1.0, size=d)
            GZ, GY = gamma_vec(Z), gamma_vec(Y)
            gzy = float(Z @ g @ Y)
            r["C1"] = max(r["C1"], _maxabs(GZ @ GY + GY @ GZ
                                           + 2.0 * gzy * Id))
            r["C4"] = max(r["C4"], _maxabs(G @ GZ - GZ.conj().T @ G))

            # C3: affine test field through x
            Y0 = rng.uniform(-1.0, 1.0, size=d)
            A = rng.uniform(-1.0, 1.0, size=(d, d))
            GY0 = gamma_vec(Y0)
            for mu in range(d):
                dgam = rep.gamma_of_frame(dEinv[mu] @ Y0 + Einv @ A[:, mu])
                nab = A[:, mu] + Gam[:, mu, :] @ Y0
                res = dgam + om[mu] @ GY0 - GY0 @ om[mu] - gamma_vec(nab)
                r["C3"] = max(r["C3"], _maxabs(res))

            # timelike-N family: C6, C7.1, C7.2, C8
            Nvec = _unit_timelike_future(rng, E, g)
            QN = rep.q_eval(x, *([Nvec] * rep.q_power))
            r["C6"] = max(r["C6"], _maxabs(G @ QN - QN.conj().T @ G))
            W = rng.uniform(-1.0, 1.0, size=d)
            Zp = W - (float(W @ g @ Nvec) / float(Nvec @ g @ Nvec)) * Nvec
            GZp = gamma_vec(Zp)
            r["C7.1"] = max(r["C7.1"], _maxabs(QN @ GZp + GZp @ QN))
            GN = gamma_vec(Nvec)
            r["C7.2"] = max(r["C7.2"], _maxabs(QN @ GN - GN @ QN))

            # C7': arbitrary non-null Y, Z orthogonal to it
            for _ in range(8):
                Yv = rng.uniform(-1.0, 1.0, size=d)
                yy = float(Yv @ g @ Yv)
                if abs(yy) >= 0.1:
                    break
            else:
                continue
            W2 = rng.uniform(-1.0, 1.0, size=d)
            Zo = W2 - (float(W2 @ g @ Yv) / yy) * Yv
            QY = rep.q_eval(x, *([Yv] * rep.q_power))
            GZo = gamma_vec(Zo)
            r["C7p"] = max(r["C7p"], _maxabs(QY @ GZo + GZo @ QY))

        # C8 at the distinguished frame time direction
        Q0 = rep.q_eval(x, *([E[:, 0]] * rep.q_power))
        H = G @ Q0
        H = 0.5 * (H + H.conj().T)
        c8_min = min(c8_min, float(np.min(np.linalg.eigvalsh(H))))

    idx = _gram_index(G)
    idx_ok = idx == (rep.N // 2, rep.N // 2)

    axioms = {}
    for key in ("C1", "C2", "C3", "C4"):
        axioms[key] = AxiomResult(key, r[key], tolerance,
                                  r[key] < tolerance)
    note5 = "equals C3 for spin 1/2 modules" if rep.q_power == 1 else ""
    axioms["C5"] = AxiomResult("C5", r["C3"], tolerance,
                               r["C3"] < tolerance, note=note5)
    for key in ("C6", "C7.1", "C7.2", "C7p"):
        axioms[key] = AxiomResult(key, r[key], tolerance,
                                  r[key] < tolerance)
    axioms["C8"] = AxiomResult(
        "C8", max(0.0, -c8_min), tolerance, c8_min > 0.0,
        extra={"min_eigenvalue": c8_min})

    passed = idx_ok and all(a.passed for a in axioms.values())
    return CertificateReport(
        fixture=m.name, sample=sample, tolerance=tolerance, axioms=axioms,
        gram_index=idx, gram_index_ok=idx_ok, passed=passed,
        elapsed_s=time.perf_counter() - t0,
    )
