"""Clifford module layer: gamma sets, spin connection, axiom certification.

The independent oracle for the compatibility axiom is a central-difference
derivative of the Clifford action; the library certifies with closed-form
jets, so agreement is a genuine dual-route check.
"""
import numpy as np
import pytest

import diracsym as ds
from diracsym.clifford import (
    SampleSpec,
    certify_axioms,
    clifford_mul,
    gamma_matrices,
    q_operator,
    spin_connection_matrix,
)
from diracsym.errors import NotFutureDirected, NotTimelike, UnsupportedDimension
from diracsym.geometry import _frame_jet_from, _metric_jet

from conftest import SCHW_X0, rotating_chart

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
    assert rep.gammas[0][0, 0] == 1.0 and rep.gammas_up[0][0, 0] == -1.0


def _tables(rep):
    return [rep._pair_products, *rep.gammas_up,
            *rep._stage_tensors.values()]


def test_modules_share_read_only_tables_of_one_gamma_set():
    """Two modules of one gamma set share one set of Clifford tables, and a
    write into any of them raises; a look-alike set (gamma_1 and gamma_2
    swapped, still a Clifford set) gets tables of its own, derived from its
    own gammas by the same path."""
    a = ds.build_canonical_module(ds.minkowski(4))
    b = ds.build_canonical_module(ds.schwarzschild(1.0))
    assert all(np.shares_memory(s, t)
               for s, t in zip(_tables(a), _tables(b)))
    for T in _tables(a):
        with pytest.raises(ValueError):
            T[(0,) * T.ndim] = 1.0
    with pytest.raises(TypeError):
        a._stage_tensors["gamma"] = a._stage_tensors["spin"]

    gammas, eta, G = gamma_matrices(4)
    gammas[1], gammas[2] = gammas[2], gammas[1]
    c = ds.CliffordModuleRep(N=4, gammas=gammas, gram=G, metric=a.metric,
                             eta=eta)
    assert not any(np.shares_memory(s, t)
                   for s, t in zip(_tables(a), _tables(c)))
    up = np.stack([np.diagonal(eta)[k] * gammas[k] for k in range(4)])
    assert np.array_equal(np.stack(c.gammas_up), up)
    assert np.array_equal(c._pair_products, up[:, None] @ up)
    assert np.array_equal(c._stage_tensors["gamma"].view(complex),
                          up.reshape(4, 16))
    assert np.array_equal(c._stage_tensors["spin"].view(complex),
                          -0.25 * (up[:, None] @ up).reshape(16, 16))
    assert not np.array_equal(c._pair_products, a._pair_products)


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
    out = clifford_mul(rep_schw, SCHW_X0, dt, phi)
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
    Gam = ds.christoffel(schw, x)
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
    assert rep_schw.q_power == 1
    fr = ds.orthonormal_frame(schw, SCHW_X0)
    N = fr.E[:, 0]
    assert np.allclose(rep_schw.q_eval(SCHW_X0, N),
                       rep_schw.gamma_of(SCHW_X0, N), atol=0)


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


# --------------------------------------------------------------------------
# the stacked certifier against a point-by-point reference


def _reference_certify_axioms(rep, sample):
    """The per-point, per-vector loop ``certify_axioms`` used to run: the
    same draws in the same order, one residual matrix at a time, with the
    spin connection built per direction from the Christoffel symbols and
    the frame jet.  Returns every axiom's max residual and C8's smallest
    eigenvalue."""
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

    def Q(x, V):
        return rep.q_eval(x, *([V] * rep.q_power))

    for _ in range(sample.points):
        x = ds.random_chart_point(m, rng)
        g, ginv = ds.eval_metric(m, x)
        E, dE, Einv = _frame_jet_from(m, *_metric_jet(m, x))
        dEinv = -(Einv @ dE @ Einv)
        dg = _metric_jet(m, x)[1]
        T = dg.transpose(1, 0, 2) + dg.transpose(1, 2, 0) - dg
        Gam = 0.5 * np.einsum("il,ljk->ijk", ginv, T)
        om = np.array([-0.25 * np.einsum(
            "ab,abij->ij",
            np.diagonal(rep.eta)[:, None]
            * (Einv @ (dE[mu] + Gam[:, mu, :] @ E)),
            rep._pair_products) for mu in range(d)])

        def gamma_vec(V):
            return rep.gamma_of_frame(Einv @ V)

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
                dgam = rep.gamma_of_frame(dEinv[mu] @ Y0 + Einv @ A[:, mu])
                nab = A[:, mu] + Gam[:, mu, :] @ Y0
                res = dgam + om[mu] @ GY0 - GY0 @ om[mu] - gamma_vec(nab)
                r["C3"] = max(r["C3"], maxabs(res))
            u = rng.uniform(-1.0, 1.0, size=d - 1)
            nrm = np.linalg.norm(u)
            if nrm > 0.85:
                u *= 0.85 / nrm
            Nv = E @ np.concatenate(([1.0], u))
            Nv = Nv / np.sqrt(-float(Nv @ g @ Nv))
            QN = Q(x, Nv)
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
            QY = Q(x, Yv)
            r["C7p"] = max(r["C7p"], maxabs(QY @ GZo + GZo @ QY))
        H = G @ Q(x, E[:, 0])
        H = 0.5 * (H + H.conj().T)
        c8_min = min(c8_min, float(np.min(np.linalg.eigvalsh(H))))
    r["C5"] = r["C3"]
    return r, c8_min


def _miswired_schwarzschild_module():
    """The Schwarzschild module with its connection scaled by 1.01 and
    Q(N) = Gamma(N) + 0.01 g(N, N) Id: C3, C7.1, C7' and C8 move off
    roundoff by amounts that vary from point to point."""
    m = ds.schwarzschild(1.0)
    rep = ds.build_canonical_module(m)
    rep._pair_products = 1.01 * rep._pair_products

    def q_eval(x, N):
        g = ds.eval_metric(m, x)[0]
        nn = np.asarray(np.einsum("...i,ij,...j->...", N, g, N))
        return rep.gamma_of(x, N) + 0.01 * nn[..., None, None] * np.eye(4)

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


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("fixture", sorted(EQUIVALENCE_MODULES))
def test_stacked_certificate_matches_point_loop(fixture, seed):
    """Same draws, same residuals: every axiom within 1e-13 of the loop,
    C8's smallest eigenvalue too, on the certify fixtures, dim 2, a curved
    non-diagonal chart and a module that fails several axioms."""
    rep = EQUIVALENCE_MODULES[fixture]()
    sample = SampleSpec(points=4, vectors=10, seed=seed)
    got = certify_axioms(rep, sample).axioms
    want, c8_min = _reference_certify_axioms(rep, sample)
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
    want, c8_min = _reference_certify_axioms(rep, sample)
    for key in AXIOM_KEYS[:-1]:
        assert abs(got[key].max_residual - want[key]) <= 1e-13, key
    assert abs(got["C8"].extra["min_eigenvalue"] - c8_min) <= 1e-13
