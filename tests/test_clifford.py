"""Clifford module layer: gamma sets, spin connection, axiom certification.

The independent oracle for the compatibility axiom is a central-difference
derivative of the Clifford action; the library certifies with closed-form
jets, so agreement is a genuine dual-route check.
"""
import dataclasses
import re
from types import MappingProxyType

import numpy as np
import pytest

import diracsym as ds
from diracsym.clifford import (
    CliffordModuleRep,
    SampleSpec,
    certify_axioms,
    gamma_matrices,
    q_operator,
    spin_connection_matrix,
)
from diracsym.errors import (
    ConfigError,
    NotFutureDirected,
    NotTimelike,
    UnsupportedDimension,
)
from diracsym.geometry import _christoffel_from, _metric_jet

from conftest import SCHW_X0, connection_from, frame_jet, rotating_chart

AXIOM_KEYS = ["C1", "C2", "C3", "C4", "C5", "C6", "C7.1", "C7.2", "C7p", "C8"]


# --------------------------------------------------------------------------
# gamma sets


@pytest.mark.parametrize("dim", [2, 4])
def test_gamma_anticommutators(dim):
    gammas, eta, G = gamma_matrices(dim)
    for a in range(dim):
        for b in range(dim):
            acomm = gammas[a] @ gammas[b] + gammas[b] @ gammas[a]
            want = -2.0 * eta[a, b] * np.eye(len(G))
            assert np.array_equal(acomm, want)


def test_gamma_unsupported_dimension():
    with pytest.raises(UnsupportedDimension):
        gamma_matrices(3)
    with pytest.raises(UnsupportedDimension):
        gamma_matrices(5)


def test_gamma_matrices_are_fresh_and_writable():
    """Each call hands out arrays of its own: writing into one set leaves
    the next call and the modules built since untouched."""
    gammas, eta, G = gamma_matrices(4)
    rep = ds.build_canonical_module(ds.minkowski(4))
    for a in (*gammas, eta, G):
        a[0, 0] = 7.0
    again, eta2, G2 = gamma_matrices(4)
    assert again[0][0, 0] == 1.0 and eta2[0, 0] == -1.0 and G2[0, 0] == 1.0
    assert rep.gammas[0][0, 0] == 1.0 and rep.tensors["gamma"][0, 0] == -1.0


def _tables(rep):
    return [rep.eta, *rep.tensors.values()]


def test_modules_share_read_only_tables_of_one_gamma_set():
    """Two modules of one gamma set share one set of Clifford tables (eta
    and four tensors), and a write into any of them raises; a look-alike
    set (gamma_1 and gamma_2 swapped, still a Clifford set) gets tables of
    its own, which hold the products of its own gammas.  A module built
    from the unswapped set alone (N, eta and Q derived) certifies bit for
    bit as the canonical build, with Q = Gamma."""
    a = ds.build_canonical_module(ds.minkowski(4))
    b = ds.build_canonical_module(ds.schwarzschild(1.0))
    assert all(np.shares_memory(s, t)
               for s, t in zip(_tables(a), _tables(b)))
    for T in _tables(a):
        with pytest.raises(ValueError):
            T[(0,) * T.ndim] = 1.0
    with pytest.raises(TypeError):
        a.tensors["gamma"] = a.tensors["spin"]

    gammas, eta, G = gamma_matrices(4)
    gammas[1], gammas[2] = gammas[2], gammas[1]
    c = ds.CliffordModuleRep(gammas, G, a.metric)
    assert not any(np.shares_memory(s, t)
                   for s, t in zip(_tables(a), _tables(c)))
    up = np.stack([np.diagonal(eta)[k] * gammas[k] for k in range(4)])
    P = up[:, None] @ up
    assert np.array_equal(c.tensors["gamma"].view(complex),
                          up.reshape(4, 16))
    assert np.array_equal(c.tensors["spin"].view(complex),
                          -0.25 * P.reshape(16, 16))
    assert np.array_equal(c.tensors["commutator"].view(complex),
                          (P - P.transpose(1, 0, 2, 3)).reshape(16, 16))
    assert not np.array_equal(c.tensors["spin"], a.tensors["spin"])

    gammas, _, G = gamma_matrices(4)
    bare = ds.CliffordModuleRep(gammas, G, a.metric)
    assert bare.N == 4 and np.array_equal(bare.eta, eta)
    assert all(np.shares_memory(s, t)
               for s, t in zip(_tables(a), _tables(bare)))
    sample = SampleSpec(points=5, vectors=4, seed=2)
    got = certify_axioms(bare, sample).to_dict()
    assert got == certify_axioms(a, sample).to_dict()
    N = np.array([1.0, 0.2, -0.1, 0.3])
    assert np.array_equal(q_operator(bare, np.zeros(4), N),
                          bare.gamma_of(np.zeros(4), N))


def test_gram_index_split(rep_mink4):
    ev = np.linalg.eigvalsh(rep_mink4.gram)
    assert int(np.sum(ev > 0)) == 2
    assert int(np.sum(ev < 0)) == 2


def test_gram_self_adjointness_of_action(rep_mink4):
    # G gamma(Z) is symmetric under the star for every vector
    rng = np.random.default_rng(1)
    G = rep_mink4.gram
    x = np.zeros(4)
    for _ in range(10):
        Z = rng.normal(size=4)
        M = rep_mink4.gamma_of(x, Z)
        assert np.max(np.abs(G @ M - M.conj().T @ G)) < 1e-14


# --------------------------------------------------------------------------
# Clifford action and Q


def test_clifford_mul_schwarzschild_time_leg(rep_schw, schw):
    # unit-time frame leg: gamma(d_t) = sqrt(f) gamma_0 at r=10
    phi = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    dt = np.array([1.0, 0.0, 0.0, 0.0])
    out = rep_schw.gamma_of(SCHW_X0, dt) @ phi
    g0 = gamma_matrices(4)[0][0]
    assert np.allclose(out, np.sqrt(0.8) * (g0 @ phi), atol=1e-14)


def test_clifford_square_is_minus_norm(rep_schw, schw):
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = ds.random_chart_point(schw, rng)
        Z = rng.normal(size=4)
        g, _ = ds.eval_metric(schw, x)
        M = rep_schw.gamma_of(x, Z)
        want = -float(Z @ g @ Z) * np.eye(4)
        assert np.max(np.abs(M @ M - want)) < 1e-12


def test_q_operator_spectrum(rep_schw, schw):
    # Q(N) for unit timelike N squares to the identity: eigenvalues +-1
    fr = ds.orthonormal_frame(schw, SCHW_X0)
    N = fr.E[:, 0]
    Q = q_operator(rep_schw, SCHW_X0, N)
    ev = np.sort(np.linalg.eigvals(Q).real)
    assert np.allclose(ev, [-1.0, -1.0, 1.0, 1.0], atol=1e-12)


def test_q_operator_rejects_bad_directions(rep_schw, schw):
    fr = ds.orthonormal_frame(schw, SCHW_X0)
    with pytest.raises(NotTimelike):
        q_operator(rep_schw, SCHW_X0, fr.E[:, 1])
    with pytest.raises(NotFutureDirected):
        q_operator(rep_schw, SCHW_X0, -fr.E[:, 0])


# --------------------------------------------------------------------------
# spin connection


def test_spin_connection_antisymmetry_with_gram(rep_schw):
    # C2 pointwise: G omega + omega* G = 0
    rng = np.random.default_rng(3)
    G = rep_schw.gram
    for _ in range(5):
        x = ds.random_chart_point(rep_schw.metric, rng)
        v = rng.normal(size=4)
        om = spin_connection_matrix(rep_schw, x, v)
        assert np.max(np.abs(G @ om + om.conj().T @ G)) < 1e-12


def test_compatibility_against_fd_oracle(rep_schw, schw):
    """d_mu Gamma(Y) + [omega_mu, Gamma(Y)] = Gamma(nabla_mu Y), with the
    left side differentiated by central differences (independent route)."""
    x = SCHW_X0
    Y = np.array([0.3, -0.2, 0.05, 0.1])  # constant coordinate components
    Gam = _christoffel_from(*schw.jet(x))
    h = 1e-6
    for mu in range(4):
        e = np.zeros(4)
        e[mu] = h * (1 + abs(x[mu]))
        dGamma = (rep_schw.gamma_of(x + e, Y) - rep_schw.gamma_of(x - e, Y)) \
            / (2 * e[mu])
        emu = np.zeros(4)
        emu[mu] = 1.0
        om = spin_connection_matrix(rep_schw, x, emu)
        GY = rep_schw.gamma_of(x, Y)
        nabla_Y = Gam[:, mu, :] @ Y  # covariant derivative of the constant field
        resid = dGamma + om @ GY - GY @ om - rep_schw.gamma_of(x, nabla_Y)
        assert np.max(np.abs(resid)) < 1e-6


# --------------------------------------------------------------------------
# certification


def test_certify_minkowski_machine_precision(rep_mink4):
    rpt = certify_axioms(rep_mink4, SampleSpec(points=20, seed=0),
                         tolerance=1e-12)
    assert sorted(rpt.axioms.keys()) == sorted(AXIOM_KEYS)
    assert rpt.passed
    assert rpt.gram_index == (2, 2)
    for key, res in rpt.axioms.items():
        assert res.max_residual < 1e-12, key


def test_certify_schwarzschild(rep_schw):
    rpt = certify_axioms(rep_schw, SampleSpec(points=25, seed=1),
                         tolerance=1e-6)
    assert rpt.passed
    for key, res in rpt.axioms.items():
        assert res.max_residual < 1e-6, key


def test_certify_dim2(mink2):
    rep = ds.build_canonical_module(mink2)
    rpt = certify_axioms(rep, SampleSpec(points=10, seed=2), tolerance=1e-12)
    assert rpt.passed
    assert rpt.gram_index == (1, 1)


def test_certifier_catches_broken_module(rep_mink4, mink4):
    # scale one gamma by 1.01: the Clifford relation must fail loudly
    broken = ds.build_canonical_module(mink4)
    broken.gammas = [g.copy() for g in broken.gammas]
    broken.gammas[1] = broken.gammas[1] * 1.01
    broken.__post_init__()  # rebuild cached products
    rpt = certify_axioms(broken, SampleSpec(points=10, seed=0),
                         tolerance=1e-6)
    assert not rpt.passed
    assert not rpt.axioms["C1"].passed
    assert rpt.axioms["C1"].max_residual == pytest.approx(0.0402, abs=2e-3)


@pytest.mark.parametrize("case", ["gram_2x2", "three_gammas",
                                  "gamma_not_square", "gammas_of_two_sizes"])
def test_malformed_module_is_refused_at_construction(case):
    """A module whose shapes do not fit fails at construction with a
    ConfigError naming the fault; certify_axioms used to die on it with a
    raw numpy ValueError."""
    gammas, _, G = gamma_matrices(4)
    m = ds.minkowski(4)
    args, fault = {
        "gram_2x2": ((gammas, G[:2, :2], m), "gram has shape (2, 2)"),
        "three_gammas": ((gammas[:3], G, m), "3 gammas for a metric of "
                                             "dimension 4"),
        "gamma_not_square": ((gammas[:3] + [gammas[3][:3]], G, m),
                             "gamma 3 has shape (3, 4)"),
        "gammas_of_two_sizes": (([gammas[0][:2, :2]] + gammas[1:], G, m),
                                "gamma 1 has shape (4, 4), not (2, 2)"),
    }[case]
    with pytest.raises(ConfigError, match=re.escape(fault)):
        CliffordModuleRep(*args)


def test_certifier_c8_positivity_note(rep_mink4):
    rpt = certify_axioms(rep_mink4, SampleSpec(points=5, seed=0),
                         tolerance=1e-12)
    c8 = rpt.axioms["C8"]
    assert c8.extra.get("min_eigenvalue") == pytest.approx(1.0, abs=1e-12)


def test_c5_matches_c3_for_vector_modules(rep_schw):
    rpt = certify_axioms(rep_schw, SampleSpec(points=10, seed=4),
                         tolerance=1e-6)
    assert rpt.axioms["C5"].max_residual == rpt.axioms["C3"].max_residual


def test_build_canonical_module_wiring(rep_schw, schw):
    assert rep_schw.N == 4
    assert rep_schw.metric is schw
    assert rep_schw.q_eval is None
    fr = ds.orthonormal_frame(schw, SCHW_X0)
    N = fr.E[:, 0]
    assert np.array_equal(q_operator(rep_schw, SCHW_X0, N),
                          rep_schw.gamma_of(SCHW_X0, N))


def test_default_q_follows_a_replaced_metric(rep_schw):
    """Q acts on frame components, and q_operator takes N's components in
    the frame of the module's metric: a copy with another metric gives
    Q_N in its own frame, not in that of the module it was copied
    from."""
    flat = dataclasses.replace(rep_schw, metric=ds.minkowski(4))
    e0 = np.array([1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(q_operator(flat, SCHW_X0, e0), flat.gammas[0])
    assert not np.allclose(q_operator(rep_schw, SCHW_X0, e0),
                           flat.gammas[0])


def test_c8_fails_for_an_indefinite_gram_pairing(mink4):
    """G Q(e_0) = diag(1, 1, 1, -1) for G = gamma_0 diag(1, 1, 1, -1): C8
    must read the smallest eigenvalue.  (G = -gamma_0 would not tell the
    smallest from the largest: all four eigenvalues are -1.)"""
    rep = ds.build_canonical_module(mink4)
    rep.gram = rep.gammas[0] @ np.diag([1.0, 1.0, 1.0, -1.0])
    c8 = certify_axioms(rep, SampleSpec(points=5, seed=0)).axioms["C8"]
    assert not c8.passed
    assert c8.extra["min_eigenvalue"] == pytest.approx(-1.0, abs=1e-12)
    assert c8.max_residual == pytest.approx(1.0, abs=1e-12)


def test_certificate_reads_the_transport_connection(monkeypatch):
    """C2 and C3 certify the connection the transports run: the certifier
    and the module's stage data read one ``_frame_connection``, and a term
    D symmetric in (a, b) added to its omega fails both on schwarzschild1.0
    and moves the stage's omega by D.
    Such a term moves the spinor connection by a multiple of the identity,
    which C2 sees and C3's commutator cannot, so the patch also takes D
    off X, as omega = Koszul(F) - X demands, and C3 reads that through the
    frame derivative E^-1 d_c E = -eta X_c."""
    from diracsym import geometry

    frame_connection = geometry._frame_connection
    assert ds.clifford._frame_connection is frame_connection
    rep = ds.build_canonical_module(ds.catalog_metric("schwarzschild1.0"))
    sample = SampleSpec(points=5, vectors=3, seed=0)
    clean = certify_axioms(rep, sample).axioms
    assert clean["C2"].passed and clean["C3"].passed
    xi = ds.random_null_covector(rep.metric, SCHW_X0,
                                 np.random.default_rng(0))
    omega = rep.stage(SCHW_X0, xi).omega

    def skewed(g, dg):
        E, Einv, F, X, omega = frame_connection(g, dg)
        D = 1e-3 * np.eye(g.shape[-1])
        return E, Einv, F, X - D, omega + D

    monkeypatch.setattr(ds.clifford, "_frame_connection", skewed)
    got = certify_axioms(rep, sample).axioms
    assert not got["C2"].passed and not got["C3"].passed
    assert got["C2"].max_residual > 1e-4 and got["C3"].max_residual > 1e-4
    assert np.array_equal(rep.stage(SCHW_X0, xi).omega,
                          omega + 1e-3 * np.eye(4))


@pytest.mark.parametrize("tensor, factor, axiom", [
    ("spin", 1.01, "C3"), ("spin", -1.0, "C3"), ("gamma", 1.01, "C1")],
    ids=["spin_scaled", "spin_flipped", "gamma_scaled"])
def test_certificate_contracts_the_tensors_the_transports_run(tensor, factor,
                                                              axiom):
    """The certificate reads Gamma(Z) and the spin connection off the
    module's Clifford tensors, the ones the transports' stage data
    contract: scaling the spin tensor, or flipping its sign, moves the
    stage's omega(x; xdot) by that factor and fails C3; scaling the gamma
    tensor moves sigma_1 and fails C1."""
    rep = ds.build_canonical_module(ds.catalog_metric("schwarzschild1.0"))
    sample = SampleSpec(points=20, vectors=10, seed=0)
    assert certify_axioms(rep, sample).passed
    xi = ds.random_null_covector(rep.metric, SCHW_X0,
                                 np.random.default_rng(0))
    read = "omega_dot" if tensor == "spin" else "sigma1"
    clean = getattr(rep.stage(SCHW_X0, xi), read)
    rep.tensors = MappingProxyType(
        {**rep.tensors, tensor: factor * rep.tensors[tensor]})
    moved = getattr(rep.stage(SCHW_X0, xi), read)
    assert np.max(np.abs(moved - factor * clean)) <= 1e-14 * np.max(
        np.abs(clean))
    got = certify_axioms(rep, sample)
    assert not got.passed
    assert got.axioms[axiom].max_residual > 1e-6, got.axioms[axiom]


# --------------------------------------------------------------------------
# the stacked certifier against a point-by-point reference


def _reference_certify_axioms(rep, sample, spin_scale=1.0):
    """The per-point, per-vector loop ``certify_axioms`` used to run: the
    same draws in the same order, one residual matrix at a time, with the
    frame partials and the spin connection of the test oracle
    (``conftest.frame_jet`` and ``connection_from``: Christoffel symbols,
    not the library's Koszul formula), scaled by ``spin_scale``, and with
    Gamma(Z) summed over ``rep.gammas``: this side reads none of the
    module's Clifford tensors.  Returns every axiom's max residual and C8's
    smallest eigenvalue."""
    def maxabs(A):
        return float(np.max(np.abs(A)))

    m, d, G = rep.metric, rep.dim, rep.gram
    rng = np.random.default_rng(sample.seed)
    Id = np.eye(rep.N, dtype=complex)
    r = dict.fromkeys(("C2", "C3", "C4", "C6", "C7.1", "C7.2", "C7p"), 0.0)
    r["C1"] = max(maxabs(a @ b + b @ a + 2.0 * rep.eta[i, j] * Id)
                  for i, a in enumerate(rep.gammas)
                  for j, b in enumerate(rep.gammas))
    c8_min = np.inf

    def gamma_of_frame(comps):
        return np.tensordot(comps, rep.gammas, axes=(-1, 0))

    def Q(Einv, V):
        """Q at the oracle frame's components of the coordinate vector V."""
        return (rep.q_eval or gamma_of_frame)(Einv @ V)

    for _ in range(sample.points):
        x = ds.random_chart_point(m, rng)
        g, dg = _metric_jet(m, x)
        E, dE, Einv = frame_jet(g, dg)
        dEinv = -(Einv @ dE @ Einv)
        Gam, om = connection_from(rep, g, dg, E, dE, Einv)
        om = spin_scale * om

        def gamma_vec(V):
            return gamma_of_frame(Einv @ V)

        for mu in range(d):
            r["C2"] = max(r["C2"], maxabs(G @ om[mu] + om[mu].conj().T @ G))
        for _ in range(sample.vectors):
            Z = rng.uniform(-1.0, 1.0, size=d)
            Y = rng.uniform(-1.0, 1.0, size=d)
            GZ, GY = gamma_vec(Z), gamma_vec(Y)
            r["C1"] = max(r["C1"], maxabs(GZ @ GY + GY @ GZ
                                          + 2.0 * float(Z @ g @ Y) * Id))
            r["C4"] = max(r["C4"], maxabs(G @ GZ - GZ.conj().T @ G))
            Y0 = rng.uniform(-1.0, 1.0, size=d)
            A = rng.uniform(-1.0, 1.0, size=(d, d))
            GY0 = gamma_vec(Y0)
            for mu in range(d):
                dgam = gamma_of_frame(dEinv[mu] @ Y0 + Einv @ A[:, mu])
                nab = A[:, mu] + Gam[:, mu, :] @ Y0
                res = dgam + om[mu] @ GY0 - GY0 @ om[mu] - gamma_vec(nab)
                r["C3"] = max(r["C3"], maxabs(res))
            u = rng.uniform(-1.0, 1.0, size=d - 1)
            nrm = np.linalg.norm(u)
            if nrm > 0.85:
                u *= 0.85 / nrm
            Nv = E @ np.concatenate(([1.0], u))
            Nv = Nv / np.sqrt(-float(Nv @ g @ Nv))
            QN = Q(Einv, Nv)
            r["C6"] = max(r["C6"], maxabs(G @ QN - QN.conj().T @ G))
            W = rng.uniform(-1.0, 1.0, size=d)
            Zp = W - (float(W @ g @ Nv) / float(Nv @ g @ Nv)) * Nv
            GZp, GN = gamma_vec(Zp), gamma_vec(Nv)
            r["C7.1"] = max(r["C7.1"], maxabs(QN @ GZp + GZp @ QN))
            r["C7.2"] = max(r["C7.2"], maxabs(QN @ GN - GN @ QN))
            for _ in range(8):
                Yv = rng.uniform(-1.0, 1.0, size=d)
                yy = float(Yv @ g @ Yv)
                if abs(yy) >= 0.1:
                    break
            else:
                continue
            W2 = rng.uniform(-1.0, 1.0, size=d)
            GZo = gamma_vec(W2 - (float(W2 @ g @ Yv) / yy) * Yv)
            QY = Q(Einv, Yv)
            r["C7p"] = max(r["C7p"], maxabs(QY @ GZo + GZo @ QY))
        H = G @ Q(Einv, E[:, 0])
        H = 0.5 * (H + H.conj().T)
        c8_min = min(c8_min, float(np.min(np.linalg.eigvalsh(H))))
    r["C5"] = r["C3"]
    return r, c8_min


def _miswired_schwarzschild_module():
    """The Schwarzschild module with its spin tensor, and so its
    connection, scaled by 1.01 and Q(c) = Gamma(c) + 0.01 eta(c, c) Id at
    frame components c: C3, C7.1, C7' and C8 move off roundoff by amounts
    that vary from point to point."""
    rep = ds.build_canonical_module(ds.schwarzschild(1.0))
    rep.tensors = MappingProxyType(
        {**rep.tensors, "spin": 1.01 * rep.tensors["spin"]})

    def q_eval(c):
        cc = np.sum(c * c * np.diagonal(rep.eta), axis=-1)
        return rep.gamma_of_frame(c) + 0.01 * cc[..., None, None] * np.eye(4)

    rep.q_eval = q_eval
    return rep


_CONFORMAL = "conformal_flat{1 + 0.05*sin(3*t) + 0.05*cos(2*x)*cos(2*y)}"
EQUIVALENCE_MODULES = {
    "minkowski4": lambda: ds.build_canonical_module(ds.minkowski(4)),
    "schwarzschild1.0": lambda: ds.build_canonical_module(
        ds.catalog_metric("schwarzschild1.0")),
    "schwarzschild_isotropic1.0": lambda: ds.build_canonical_module(
        ds.catalog_metric("schwarzschild_isotropic1.0")),
    "conformal_flat": lambda: ds.build_canonical_module(
        ds.catalog_metric(_CONFORMAL)),
    "minkowski2": lambda: ds.build_canonical_module(ds.minkowski(2)),
    "rotating_minkowski": lambda: ds.build_canonical_module(rotating_chart()),
    "miswired_schwarzschild": _miswired_schwarzschild_module,
}
# the connection scale the reference loop applies to its own spin
# connection, as the miswired module's spin tensor does to the library's
_SPIN_SCALE = {"miswired_schwarzschild": 1.01}


def _q_shifted(rep):
    """Q = Gamma + 0.01 i Id: G Q is not self-adjoint."""
    return lambda c: rep.gamma_of_frame(c) + 0.01j * np.eye(rep.N)


def _q_tilted(rep):
    """Q = Gamma + 0.01 Gamma(e_1): Q_N does not commute with Gamma(N)."""
    e1 = rep.gamma_of_frame(np.eye(rep.dim)[1])
    return lambda c: rep.gamma_of_frame(c) + 0.01 * e1


def _q_scaled(rep):
    """Q = 1.01 Gamma, which C6-C8 cannot tell from Gamma."""
    return lambda c: 1.01 * rep.gamma_of_frame(c)


@pytest.mark.parametrize("q", [None, _q_shifted, _q_tilted, _q_scaled],
                         ids=["gamma", "shifted", "tilted", "scaled"])
@pytest.mark.parametrize("fixture", ["minkowski4", "schwarzschild1.0",
                                     "conformal_flat"])
def test_c6_and_c7_2_fail_for_a_wrong_q(fixture, q):
    """C6 (G Q_N self-adjoint) and C7.2 (Q_N commutes with Gamma(N)) can
    fail, on frame-component Q's at 20 points x 10 vectors, seed 3:
    Q = Gamma + 0.01 i Id fails C6 by 2.0e-2 with C7.2 at most 4.4e-16,
    and Q = Gamma + 0.01 Gamma(e_1) fails C7.2 by 3.8e-2 with C6 at 0.0,
    on each fixture.  The module's own Q = Gamma reads 0.0 on both.  For a
    multiple of Gamma, C6-C8 reduce to C1 and C4 identities, so 1.01 Gamma
    passes them all (at most 1.1e-15 on C7.2)."""
    rep = EQUIVALENCE_MODULES[fixture]()
    rep.q_eval = q and q(rep)
    ax = certify_axioms(rep, SampleSpec(points=20, vectors=10, seed=3)).axioms
    c6, c72 = ax["C6"].max_residual, ax["C7.2"].max_residual
    if q is _q_shifted:
        assert c6 > 1e-2 and not ax["C6"].passed and c72 <= 1e-15
    elif q is _q_tilted:
        assert c72 > 1e-2 and not ax["C7.2"].passed and c6 == 0.0
    elif q is _q_scaled:
        assert all(ax[k].passed for k in ("C6", "C7.1", "C7.2", "C7p", "C8"))
    else:
        assert c6 == 0.0 and c72 == 0.0


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("fixture", sorted(EQUIVALENCE_MODULES))
def test_stacked_certificate_matches_point_loop(fixture, seed):
    """Same draws, same residuals: every axiom within 1e-13 of the loop,
    C8's smallest eigenvalue too, on the certify fixtures, dim 2, a curved
    non-diagonal chart and a module that fails several axioms."""
    rep = EQUIVALENCE_MODULES[fixture]()
    sample = SampleSpec(points=4, vectors=10, seed=seed)
    got = certify_axioms(rep, sample).axioms
    want, c8_min = _reference_certify_axioms(
        rep, sample, _SPIN_SCALE.get(fixture, 1.0))
    for key in AXIOM_KEYS[:-1]:
        assert abs(got[key].max_residual - want[key]) <= 1e-13, key
    assert abs(got["C8"].extra["min_eigenvalue"] - c8_min) <= 1e-13
    if fixture == "miswired_schwarzschild":
        for key in ("C3", "C7.1", "C7p"):
            assert want[key] > 1e-4, key


@pytest.mark.parametrize("block_pairs", [1, 25])
@pytest.mark.parametrize("fixture", ["schwarzschild1.0",
                                     "miswired_schwarzschild"])
def test_blocked_certificate_matches_point_loop(monkeypatch, fixture,
                                                block_pairs):
    """Blocks of one point, and of two with a remainder, draw the same
    sample as one block and keep the same maxima across blocks."""
    monkeypatch.setattr(ds.clifford, "_BLOCK_PAIRS", block_pairs)
    rep = EQUIVALENCE_MODULES[fixture]()
    sample = SampleSpec(points=5, vectors=10, seed=3)
    got = certify_axioms(rep, sample).axioms
    want, c8_min = _reference_certify_axioms(
        rep, sample, _SPIN_SCALE.get(fixture, 1.0))
    for key in AXIOM_KEYS[:-1]:
        assert abs(got[key].max_residual - want[key]) <= 1e-13, key
    assert abs(got["C8"].extra["min_eigenvalue"] - c8_min) <= 1e-13


@pytest.mark.parametrize("name,draws", [
    ("schwarzschild1.0", 10), ("conformal_flat{1 + 0.1*sqrt(x)}", 15)])
def test_certificate_reads_each_drawn_point_once(name, draws):
    """certify_axioms reads one jet per draw, the jet that tested it in
    the chart (the sqrt metric's box draws 5 points past its chart, which
    are redrawn), and no more: Q takes its frame components from the
    block's frames; the draws are those of random_chart_point, so the
    stream is unchanged."""
    from diracsym.geometry import _chart_draw

    m = ds.catalog_metric(name)
    calls = []
    counted = dataclasses.replace(
        m, jet=lambda x: calls.append(1) or m.jet(x))
    rep = ds.build_canonical_module(counted)
    sample = SampleSpec(points=10, vectors=3, seed=0)
    assert certify_axioms(rep, sample).passed
    assert len(calls) == draws
    rng_a, rng_b = np.random.default_rng(4), np.random.default_rng(4)
    for _ in range(5):
        x, g, dg = _chart_draw(m, rng_a)
        assert np.array_equal(x, ds.random_chart_point(m, rng_b))
        want = m.jet(x)
        assert np.array_equal(g, want[0]) and np.array_equal(dg, want[1])
