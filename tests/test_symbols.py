"""Symbol calculus: principal/auxiliary symbols, factorization, brackets,
subprincipal data, and the two principal-type certifications.

Expected matrices are written with test-local gamma literals so the checks
do not lean on the package's own constructors.
"""
import numpy as np
import pytest

import diracsym as ds
from diracsym.errors import NotOnCharacteristicSet, NotTimelike
from diracsym.geometry import PhasePoint
from diracsym.symbols import (
    FirstOrderSystem,
    certify_principal_type,
    certify_principal_types,
    dirac_system,
    kernel_basis,
    matrix_poisson_bracket,
    principal_symbol,
    sigma_tilde,
    subprincipal_symbol,
    symbol_package,
)

from conftest import SCHW_X0, in_chart, look_alike_dirac, rotating_chart

I2 = np.eye(2)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
Z2 = np.zeros((2, 2))

G0 = np.block([[I2, Z2], [Z2, -I2]]).astype(complex)
G1 = np.block([[Z2, SX], [-SX, Z2]]).astype(complex)
G2 = np.block([[Z2, SY], [-SY, Z2]]).astype(complex)
G3 = np.block([[Z2, SZ], [-SZ, Z2]]).astype(complex)


def mink_phase(xi):
    return PhasePoint(np.zeros(4), np.asarray(xi, float))


# --------------------------------------------------------------------------
# principal symbol


def test_principal_symbol_null_example(sys_mink4):
    s = principal_symbol(sys_mink4, mink_phase([1.0, 1.0, 0.0, 0.0]))
    assert np.allclose(s, 1j * (G1 - G0), atol=1e-14)
    assert abs(np.linalg.det(s)) < 1e-12


def test_principal_symbol_timelike_example(sys_mink4):
    s = principal_symbol(sys_mink4, mink_phase([1.0, 0.0, 0.0, 0.0]))
    assert np.allclose(s, -1j * G0, atol=1e-14)
    assert abs(np.linalg.det(s)) == pytest.approx(1.0, abs=1e-12)


def test_principal_symbol_linearity(sys_mink4):
    xi = np.array([0.3, -1.1, 0.4, 0.9])
    s1 = principal_symbol(sys_mink4, mink_phase(xi))
    s2 = principal_symbol(sys_mink4, mink_phase(2 * xi))
    assert np.array_equal(s2, 2.0 * s1)


def test_principal_symbol_matches_clifford_action(sys_schw, schw, rep_schw):
    rng = np.random.default_rng(8)
    for _ in range(10):
        x = ds.random_chart_point(schw, rng)
        xi = rng.normal(size=4)
        p = PhasePoint(x, xi)
        Z = np.linalg.solve(ds.eval_metric(schw, x)[0], xi)
        want = 1j * rep_schw.gamma_of(x, Z)
        assert np.max(np.abs(principal_symbol(sys_schw, p) - want)) < 1e-12


@pytest.mark.parametrize("metric", [
    "minkowski4", "schwarzschild1.0", "schwarzschild_isotropic1.0",
    "conformal_flat{1 + 0.05*sin(3*t) + 0.05*cos(2*x)*cos(2*y)}",
    "rotating"])
def test_coeff_A_is_the_engine_frame_from_the_metric_value(metric):
    """coeff_A reads the frame off the metric value alone, bit for bit the
    engine's A, which takes it from the full metric jet."""
    m = rotating_chart() if metric == "rotating" else ds.catalog_metric(metric)
    rep = ds.build_canonical_module(m)
    sysd = dirac_system(rep)
    rng = np.random.default_rng(4)
    for _ in range(10):
        x = ds.random_chart_point(m, rng)
        A = np.array(sysd.coeff_A(x))
        assert np.array_equal(A, rep.stage(x, rng.normal(size=4)).A)


def test_coeff_A_reads_the_metric_value_once_and_no_jet():
    """coeff_A needs the value only, which it reads as one jet."""
    import collections
    import dataclasses

    base = rotating_chart()
    calls = collections.Counter()
    m = dataclasses.replace(
        base, jet=lambda x: calls.update(["jet"]) or base.jet(x))
    sysd = dirac_system(ds.build_canonical_module(m))
    calls.clear()
    sysd.coeff_A([0.0, 0.4, -0.3, 0.2])
    assert calls == {"jet": 1}


# --------------------------------------------------------------------------
# auxiliary symbol and factorization


def test_sigma_tilde_worked_examples(rep_mink4, mink4):
    N = np.array([1.0, 0.0, 0.0, 0.0])
    st = sigma_tilde(rep_mink4, mink_phase([1, 1, 0, 0]), N)
    assert np.allclose(st, -1j * (G0 - G1), atol=1e-13)

    st = sigma_tilde(rep_mink4, mink_phase([1, 0, 0, 0]), N)
    assert np.allclose(st, -1j * G0, atol=1e-13)

    st = sigma_tilde(rep_mink4, mink_phase([0, 1, 0, 0]), N)
    assert np.allclose(st, 1j * G1, atol=1e-13)


def test_sigma_tilde_gauge_independence(rep_schw, schw):
    """Different admissible N give the same auxiliary symbol; the transport
    layer leans on this identity."""
    rng = np.random.default_rng(11)
    fr = ds.orthonormal_frame(schw, SCHW_X0)
    for _ in range(10):
        xi = rng.normal(size=4)
        p = PhasePoint(SCHW_X0, xi)
        u = rng.uniform(-0.6, 0.6, size=3)
        N = fr.E @ np.concatenate(([1.0], u))
        a = sigma_tilde(rep_schw, p, fr.E[:, 0])
        b = sigma_tilde(rep_schw, p, N)
        assert np.max(np.abs(a - b)) < 1e-12


def test_sigma_tilde_equals_principal_symbol(rep_schw, schw, sys_schw):
    rng = np.random.default_rng(12)
    fr = ds.orthonormal_frame(schw, SCHW_X0)
    for _ in range(10):
        xi = ds.random_null_covector(schw, SCHW_X0, rng)
        p = PhasePoint(SCHW_X0, xi)
        st = sigma_tilde(rep_schw, p, fr.E[:, 0])
        assert np.max(np.abs(st - principal_symbol(sys_schw, p))) < 1e-12


def test_sigma_tilde_rejects_spacelike_N(rep_mink4, mink4):
    with pytest.raises(NotTimelike):
        sigma_tilde(rep_mink4, mink_phase([1, 1, 0, 0]),
                    np.array([0.0, 1.0, 0.0, 0.0]))


def test_factorization_identity(rep_schw, schw, sys_schw):
    rng = np.random.default_rng(13)
    worst = 0.0
    for k in range(60):
        x = ds.random_chart_point(schw, rng)
        if k % 3 == 0:
            xi = ds.random_null_covector(schw, x, rng)
        else:
            xi = rng.normal(size=4)
        p = PhasePoint(x, xi)
        pkg = symbol_package(rep_schw, p, sys=sys_schw)
        worst = max(worst, pkg.factorization_residual)
        q = ds.hamiltonian_q(schw, x, xi)
        assert pkg.q == pytest.approx(q, abs=1e-12)
    assert worst < 1e-10


# --------------------------------------------------------------------------
# the assembled coordinate operator


def test_plane_wave_application_oracle(sys_schw, schw):
    """Apply the assembled operator to exp(i<x,xi>) v by finite differences;
    the first-order part must reproduce sigma_1 v."""
    x0 = SCHW_X0
    xi = np.array([0.7, -0.4, 0.1, 0.25])
    v = np.array([0.4, -0.3j, 0.8, 0.1 + 0.2j])
    h = 1e-5

    def u(x):
        return np.exp(1j * (x @ xi)) * v

    A = sys_schw.coeff_A(x0)
    B = sys_schw.coeff_B(x0)
    Pu = B @ u(x0)
    for mu in range(4):
        e = np.zeros(4)
        e[mu] = h
        Pu = Pu + A[mu] @ (-1j * (u(x0 + e) - u(x0 - e)) / (2 * h))
    want = (principal_symbol(sys_schw, PhasePoint(x0, xi)) + B) @ u(x0)
    assert np.max(np.abs(Pu - want)) < 1e-8


# --------------------------------------------------------------------------
# kernel bases


def test_kernel_example_null_covector(sys_mink4):
    s = principal_symbol(sys_mink4, mink_phase([1, 1, 0, 0]))
    w = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
    assert np.linalg.norm(s @ w) == 0.0
    vecs, dim = kernel_basis(s)
    assert dim == 2
    for v in vecs:
        assert np.linalg.norm(s @ v) < 1e-14
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)


def test_kernel_dim_off_cone(sys_mink4):
    s = principal_symbol(sys_mink4, mink_phase([1, 0, 0, 0]))
    _, dim = kernel_basis(s)
    assert dim == 0


def test_kernel_basis_zero_matrix():
    vecs, dim = kernel_basis(np.zeros((4, 4)))
    assert dim == 4
    assert np.allclose(np.column_stack(vecs), np.eye(4))


def test_kernel_basis_depends_on_the_kernel_only(sys_schw, schw):
    """Q A has the kernel of A for unitary Q but rotates the SVD's vectors
    inside it; the returned basis must not move."""
    rng = np.random.default_rng(11)
    for _ in range(6):
        xi = ds.random_null_covector(schw, SCHW_X0, rng)
        A = principal_symbol(sys_schw, PhasePoint(SCHW_X0, xi))
        ref, dim = kernel_basis(A)
        assert dim == 2
        for _ in range(4):
            Z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            Q = np.linalg.qr(Z)[0]
            vecs, _ = kernel_basis(Q @ A)
            assert np.max(np.abs(np.column_stack(vecs)
                                 - np.column_stack(ref))) < 1e-12


# --------------------------------------------------------------------------
# brackets and subprincipal


def test_bracket_constants_vanish():
    a = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
    b = (np.eye(4) + 1j * np.ones((4, 4)))
    p = mink_phase([1, 1, 0, 0])
    out = matrix_poisson_bracket(lambda x, xi: a, lambda x, xi: b, p)
    assert np.max(np.abs(out)) < 1e-10


def test_bracket_scalar_with_itself_vanishes(schw):
    def qq(x, xi):
        return ds.hamiltonian_q(schw, x, xi)

    p = PhasePoint(SCHW_X0, np.array([0.3, 0.9, -0.2, 0.4]))
    assert abs(matrix_poisson_bracket(qq, qq, p)) < 1e-8


def test_bracket_minkowski_dirac_zero(rep_mink4, sys_mink4):
    pkg = symbol_package(rep_mink4, mink_phase([1, 1, 0, 0]), sys=sys_mink4)
    assert np.max(np.abs(pkg.bracket)) < 1e-14


def test_subprincipal_minkowski_zero(sys_mink4):
    s = subprincipal_symbol(sys_mink4, mink_phase([1, 1, 0, 0]))
    assert np.max(np.abs(s)) < 1e-14


def test_subprincipal_constant_system():
    C = np.arange(16).reshape(4, 4).astype(complex)
    A = [1j * G0, 1j * G1, 1j * G2, 1j * G3]
    sysc = FirstOrderSystem(N=4, coeff_A=lambda x: A,
                            coeff_B=lambda x: 1j * C, name="const")
    s = subprincipal_symbol(sysc, mink_phase([0.2, 1.0, 0.0, 0.0]))
    assert np.allclose(s, 1j * C, atol=1e-12)


def test_subprincipal_schwarzschild_fd_oracle(sys_schw):
    """Closed-form divergence term against a central difference of coeff_A."""
    p = PhasePoint(SCHW_X0, np.array([1.0, 0.2, 0.1, 0.05]))
    closed = subprincipal_symbol(sys_schw, p)
    B = sys_schw.coeff_B(SCHW_X0)
    h = 1e-6
    div = np.zeros((4, 4), dtype=complex)
    for mu in range(4):
        e = np.zeros(4)
        e[mu] = h * (1 + abs(SCHW_X0[mu]))
        div += (sys_schw.coeff_A(SCHW_X0 + e)[mu]
                - sys_schw.coeff_A(SCHW_X0 - e)[mu]) / (2 * e[mu])
    assert np.max(np.abs(closed - (B + 0.5j * div))) < 1e-6


def test_symbol_package_closed_vs_fd_paths(rep_schw, schw, sys_schw):
    """The Dirac-backed closed jets against the generic FD path."""
    rng = np.random.default_rng(21)
    xi = ds.random_null_covector(schw, SCHW_X0, rng)
    p = PhasePoint(SCHW_X0, xi)
    closed = symbol_package(rep_schw, p, sys=sys_schw)

    generic = FirstOrderSystem(N=4, coeff_A=sys_schw.coeff_A,
                               coeff_B=sys_schw.coeff_B, rep=rep_schw,
                               name="schw_generic")
    fd = symbol_package(rep_schw, p, sys=generic)
    assert np.max(np.abs(closed.bracket - fd.bracket)) < 1e-6
    assert np.max(np.abs(closed.p_sub - fd.p_sub)) < 1e-8
    for key in ("dx", "dxi"):
        assert np.max(np.abs(np.stack(closed.d_sigma_m[key])
                             - np.stack(fd.d_sigma_m[key]))) < 1e-6


def test_symbol_package_look_alike_gets_its_own_bracket(rep_schw, schw,
                                                        sys_schw):
    """A system that carries the module but doubles A and sets B = 5 Id
    gets the central-difference bracket of its own symbol, about twice the
    Dirac one, and its own subprincipal symbol 5 Id plus twice the Dirac
    divergence term, not the engine's closed forms."""
    rng = np.random.default_rng(21)
    p = PhasePoint(SCHW_X0, ds.random_null_covector(schw, SCHW_X0, rng))
    dirac = symbol_package(rep_schw, p, sys=sys_schw)
    fake = symbol_package(rep_schw, p, sys=look_alike_dirac(sys_schw))
    scale = np.max(np.abs(dirac.bracket))
    assert scale > 1e-3
    assert np.max(np.abs(fake.bracket - 2.0 * dirac.bracket)) < 1e-6 * scale
    assert np.max(np.abs(np.stack(fake.d_sigma_m["dxi"])
                         - 2.0 * np.stack(dirac.d_sigma_m["dxi"]))) < 1e-12
    div = dirac.p_sub - sys_schw.coeff_B(SCHW_X0)
    assert np.max(np.abs(div)) > 1e-3
    want = 5.0 * np.eye(4) + 2.0 * div
    assert np.max(np.abs(fake.p_sub - want)) < 1e-6 * np.max(np.abs(want))


def test_symbol_package_reads_one_metric_jet(schw):
    """The Dirac system's package takes its jets, bracket and p_sub from
    one engine evaluation, one metric jet; the public evaluators of
    sigma_1, sigma_tilde, its timelike field and q read the metric 6 times
    more, each read one jet: Q_N takes N's components in the frame of
    its own future-direction check."""
    import dataclasses

    calls = []
    m = dataclasses.replace(schw, jet=lambda x: calls.append(1)
                            or schw.jet(x))
    rep = ds.build_canonical_module(m)
    rng = np.random.default_rng(21)
    p = PhasePoint(SCHW_X0, ds.random_null_covector(schw, SCHW_X0, rng))
    calls.clear()
    symbol_package(rep, p)
    assert len(calls) == 7


# --------------------------------------------------------------------------
# principal type certificates


def test_certify_intrinsic_minkowski_example(rep_mink4, mink4):
    cert = certify_principal_type(rep_mink4, mink_phase([1, 1, 0, 0]))
    assert cert.passed
    assert cert.ker_dim == 2
    assert cert.dq_nonzero
    assert cert.ker_coker_condition_number < 10.0
    assert all(d == 2 for d in cert.neighborhood_ker_dims)


def test_certify_intrinsic_off_cone_rejected(rep_mink4):
    with pytest.raises(NotOnCharacteristicSet):
        certify_principal_type(rep_mink4, mink_phase([1, 0, 0, 0]))


def test_certify_intrinsic_schwarzschild(rep_schw, schw):
    rng = np.random.default_rng(32)
    for _ in range(5):
        x = ds.random_chart_point(schw, rng)
        xi = ds.random_null_covector(schw, x, rng)
        cert = certify_principal_type(rep_schw, PhasePoint(x, xi))
        assert cert.passed
        assert cert.ker_dim == 2
        assert cert.ker_coker_condition_number < 1e3


def _shifted_dirac(sysd, a):
    """A foreign system on the Dirac symbol: A^j(x) plus (x^1 - a) delta_j0
    Id, so sigma_1 gains (x^1 - a) xi_0 Id.  On the plane x^1 = a it is
    the Dirac symbol; off it, the kernel of a null symbol closes."""
    def coeff_A(x):
        A = list(sysd.coeff_A(x))
        A[0] = A[0] + (x[1] - a) * np.eye(sysd.N)
        return A

    return FirstOrderSystem(N=sysd.N, coeff_A=coeff_A, coeff_B=sysd.coeff_B,
                            name=f"shifted_dirac[{a}]")


def test_certify_intrinsic_kernel_jump_fails_ker_const(rep_mink4, sys_mink4):
    """At x^1 = a the shifted system's kernel is 2-dimensional, at most
    neighbours it is 0: the certificate must fail through ker_const alone,
    which also shows the neighbourhood reads the given system's symbol."""
    p = PhasePoint(np.array([0.0, 0.3, 0.0, 0.0]),
                   np.array([1.0, 1.0, 0.0, 0.0]))
    cert = certify_principal_type(rep_mink4, p, sys=_shifted_dirac(
        sys_mink4, 0.3))
    assert not cert.passed
    assert cert.ker_dim == 2
    assert cert.neighborhood_ker_dims == [0, 2, 0, 0, 0, 2, 0, 0]
    assert cert.dq_nonzero
    assert cert.ker_coker_condition_number == pytest.approx(1.0, abs=1e-9)
    ok = certify_principal_type(rep_mink4, p, sys=sys_mink4)
    assert ok.passed
    assert ok.neighborhood_ker_dims == [2] * 8


def test_certificate_reads_the_conormal_x_part(rep_schw, schw):
    """A foreign 2 x 2 system whose certificate depends on the x-part of
    the conormal direction rho = (dq/dx, dq/dxi): sigma_1 = diag(alpha .
    xi, beta(x) . xi) with alpha . xi0 = 0 and beta(x) = alpha + b (x^1 -
    r0) e_0.  At (x0, xi0) sigma_1 = 0, so kernel and cokernel are all of
    C^2 and the condition number is the ratio of the two entries of
    rho . d sigma_1: dx . alpha and (dq/dr) b xi0_0 + dx . alpha.  b makes
    the second twice the first, so the number is 2; with the sign of
    dq/dx flipped the second entry vanishes."""
    x0 = np.array([0.0, 10.0, 1.2, 0.3])
    xi0 = ds.null_project_covector(schw, x0, np.array([1.0, 1.25, 0.0, 0.0]))
    alpha = np.array([xi0[1], -xi0[0], 0.0, 0.0])
    dx = 2.0 * np.linalg.solve(schw.jet(x0)[0], xi0)     # dq/dxi
    h = np.array([0.0, 1e-4, 0.0, 0.0])
    dq_dr = (ds.hamiltonian_q(schw, x0 + h, xi0)
             - ds.hamiltonian_q(schw, x0 - h, xi0)) / 2e-4
    b = (dx @ alpha) / (dq_dr * xi0[0])
    assert abs(dx @ alpha) > 0.1 and abs(dq_dr) > 1e-3

    def coeff_A(x):
        beta = alpha + b * (x[1] - x0[1]) * np.eye(4)[0]
        return [np.diag([a, c]).astype(complex) for a, c in zip(alpha, beta)]

    pair = FirstOrderSystem(N=2, coeff_A=coeff_A,
                            coeff_B=lambda x: np.zeros((2, 2)),
                            name="diagonal_pair")
    cert = certify_principal_type(rep_schw, PhasePoint(x0, xi0), sys=pair)
    assert cert.ker_dim == 2 and cert.dq_nonzero
    assert cert.ker_coker_condition_number == pytest.approx(2.0, rel=1e-6)


def _reference_principal_type(rep, p, sys, rank_tol=1e-8, seed=0):
    """The neighbourhood and conormal parts of the point-by-point
    certifier: one ``kernel_basis`` per neighbour and the conormal
    derivative assembled as the symbol package used to assemble it, from
    the engine's jets for the module's own system and from central
    differences for a foreign one."""
    m = rep.metric
    rng = np.random.default_rng(seed)
    nbh = []
    scale_x = 1e-3 * (1.0 + np.abs(p.x))
    scale_xi = 1e-3 * float(np.linalg.norm(p.xi))
    for _ in range(8):
        for _ in range(16):
            x2 = p.x + scale_x * rng.uniform(-1.0, 1.0, size=m.dim)
            if in_chart(m, x2):
                break
        else:
            x2 = p.x.copy()
        xi2 = p.xi.copy()
        xi2[1:] += scale_xi * rng.uniform(-1.0, 1.0, size=m.dim - 1)
        try:
            xi2 = ds.null_project_covector(m, x2, xi2)
        except NotOnCharacteristicSet:
            continue
        nbh.append(kernel_basis(principal_symbol(sys, PhasePoint(x2, xi2)),
                                rank_tol)[1])
    s1 = principal_symbol(sys, p)
    K, _ = kernel_basis(s1, rank_tol)
    C, _ = kernel_basis(s1.conj().T, rank_tol)
    g, dg = ds.eval_metric(m, p.x)[0], ds.metric_derivative(m, p.x)
    Z = np.linalg.solve(g, p.xi)
    rho = np.concatenate([-np.einsum("kab,a,b->k", dg, Z, Z), 2.0 * Z])
    rho /= np.linalg.norm(rho)
    if getattr(sys, "_dirac_of", None) is rep:
        sd = rep.stage(p.x, p.xi)
        dsdx, dsdxi = sd.ds1x, sd.A
    else:
        dsdx = []
        for j in range(m.dim):
            h = 1e-6 * (1.0 + abs(p.x[j]))
            xp, xm = p.x.copy(), p.x.copy()
            xp[j] += h
            xm[j] -= h
            dsdx.append((principal_symbol(sys, PhasePoint(xp, p.xi))
                         - principal_symbol(sys, PhasePoint(xm, p.xi)))
                        / (2 * h))
        dsdxi = [np.asarray(a, dtype=complex) for a in sys.coeff_A(p.x)]
    dsig = sum(rho[j] * dsdx[j] for j in range(m.dim))
    dsig = dsig + sum(rho[m.dim + j] * dsdxi[j] for j in range(m.dim))
    s = np.linalg.svd(np.stack(C, axis=1).conj().T @ dsig
                      @ np.stack(K, axis=1), compute_uv=False)
    return nbh, float(s[0] / s[-1])


_CONFORMAL = "conformal_flat{1 + 0.05*sin(3*t) + 0.05*cos(2*x)*cos(2*y)}"
PRINCIPAL_TYPE_METRICS = {
    "minkowski4": lambda: ds.minkowski(4),
    "schwarzschild1.0": lambda: ds.catalog_metric("schwarzschild1.0"),
    "schwarzschild_isotropic1.0":
        lambda: ds.catalog_metric("schwarzschild_isotropic1.0"),
    "conformal_flat": lambda: ds.catalog_metric(_CONFORMAL),
    "minkowski2": lambda: ds.minkowski(2),
    "rotating_minkowski": rotating_chart,
}


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("fixture", sorted(PRINCIPAL_TYPE_METRICS))
def test_stacked_neighbourhood_matches_point_loop(fixture, seed):
    """One stacked SVD gives the kernel dimensions ``kernel_basis`` gives
    neighbour by neighbour, and the engine's conormal derivative the
    condition number of the symbol package's, within 1e-12 relative."""
    m = PRINCIPAL_TYPE_METRICS[fixture]()
    rep = ds.build_canonical_module(m)
    sysd = dirac_system(rep)
    rng = np.random.default_rng(seed)
    for _ in range(3):
        x = ds.random_chart_point(m, rng)
        p = PhasePoint(x, ds.random_null_covector(m, x, rng))
        cert = certify_principal_type(rep, p, sys=sysd, seed=seed)
        nbh, cond = _reference_principal_type(rep, p, sysd, seed=seed)
        assert cert.neighborhood_ker_dims == nbh
        assert cert.ker_coker_condition_number == pytest.approx(cond,
                                                                rel=1e-12)


def test_stacked_neighbourhood_matches_point_loop_on_a_foreign_system(
        rep_mink4, sys_mink4):
    p = PhasePoint(np.array([0.0, 0.3, 0.0, 0.0]),
                   np.array([1.0, 1.0, 0.0, 0.0]))
    shifted = _shifted_dirac(sys_mink4, 0.3)
    for seed in (0, 5):
        cert = certify_principal_type(rep_mink4, p, sys=shifted, seed=seed)
        nbh, cond = _reference_principal_type(rep_mink4, p, shifted,
                                              seed=seed)
        assert cert.neighborhood_ker_dims == nbh
        assert cert.ker_coker_condition_number == pytest.approx(cond,
                                                                rel=1e-12)


# points within 1e-3 of a chart's edge: the horizon margin r = 2.002, the
# pole margin sin(theta) = 1e-6, and x = 0, past which Omega drops to 0
_CHART_EDGES = {
    "horizon": ("schwarzschild1.0", [0.0, 2.0025, 1.2, 0.3]),
    "pole": ("schwarzschild1.0", [0.0, 10.0, 5e-4, 0.3]),
    "omega_zero": ("conformal_flat{0.5 + 0.5 * x / abs(x)}",
                   [0.1, 5e-4, 0.2, 0.3]),
}


@pytest.mark.parametrize("edge", sorted(_CHART_EDGES))
def test_neighbours_past_the_chart_are_drawn_again(monkeypatch, edge):
    """Near a chart's edge some neighbour draws fall past it; each is
    drawn again, every neighbour kept lies in the chart with the metric
    value read there, and the certificates equal the point-by-point
    reference's."""
    from diracsym import symbols

    metric, x = _CHART_EDGES[edge]
    m = ds.catalog_metric(metric)
    rep = ds.build_canonical_module(m)
    sysd = dirac_system(rep)
    rng = np.random.default_rng(8)
    points = [PhasePoint(np.array(x), ds.random_null_covector(m, x, rng))
              for _ in range(4)]
    kept, misses = [], []
    neighbours, chart_value = symbols._neighbours, symbols._chart_value

    def kept_neighbours(*args):
        kept.append(neighbours(*args))
        return kept[-1]

    def counted_chart_value(m, x):
        g = chart_value(m, x)
        misses.append(g is None)
        return g

    monkeypatch.setattr(symbols, "_neighbours", kept_neighbours)
    monkeypatch.setattr(symbols, "_chart_value", counted_chart_value)
    certs = list(certify_principal_types(rep, points, sys=sysd, seed=5))
    assert len(kept) == len(points) and sum(misses) >= 4
    for p, cert, (xs, _, gs) in zip(points, certs, kept):
        for x2, g in zip(xs, gs):
            assert in_chart(m, x2) and not np.array_equal(x2, p.x)
            assert np.array_equal(g, ds.eval_metric(m, x2)[0])
        nbh, cond = _reference_principal_type(rep, p, sysd, seed=5)
        assert cert.neighborhood_ker_dims == nbh
        assert cert.ker_coker_condition_number == pytest.approx(cond,
                                                                rel=1e-12)


def _null_points(m, seed, n):
    """n phase points drawn as ``certify`` draws them: a chart point, then
    a future null covector there."""
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(n):
        x = ds.random_chart_point(m, rng)
        points.append(PhasePoint(x, ds.random_null_covector(m, x, rng)))
    return points


def _assert_same_certificates(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.at is b.at
        for key in ("q", "dq_nonzero", "ker_dim", "neighborhood_ker_dims",
                    "passed"):
            assert getattr(a, key) == getattr(b, key), key
        assert a.ker_coker_condition_number == pytest.approx(
            b.ker_coker_condition_number, rel=1e-12)


@pytest.mark.parametrize("block", [1, 2, 64])
@pytest.mark.parametrize("fixture", ["schwarzschild1.0", "conformal_flat",
                                     "rotating_minkowski", "minkowski2"])
def test_stacked_certificates_match_one_point_calls(monkeypatch, fixture,
                                                    block):
    """A stacked call over 5 points, in blocks of one, of two with a
    remainder, and in one block, equals 5 one-point calls."""
    m = PRINCIPAL_TYPE_METRICS[fixture]()
    rep = ds.build_canonical_module(m)
    sysd = dirac_system(rep)
    points = _null_points(m, 4, 5)
    want = [certify_principal_type(rep, p, sys=sysd, seed=4) for p in points]
    monkeypatch.setattr(ds.symbols, "_BLOCK_POINTS", block)
    got = list(certify_principal_types(rep, points, sys=sysd, seed=4))
    _assert_same_certificates(got, want)
    assert all(c.passed for c in got)


@pytest.mark.parametrize("block", [1, 2, 64])
def test_stacked_certificates_of_a_foreign_system(monkeypatch, rep_mink4,
                                                  sys_mink4, block):
    """The shifted system in one stack: kernel dimension 2 on the plane
    x^1 = 0.3 and 0 off it, so one block holds points with and without a
    conormal derivative to check; each matches its one-point call and the
    point-by-point reference."""
    shifted = _shifted_dirac(sys_mink4, 0.3)
    xi = np.array([1.0, 1.0, 0.0, 0.0])
    points = [PhasePoint(np.array([0.0, x1, 0.0, 0.0]), xi)
              for x1 in (0.3, 0.5, 0.3, -0.2, 0.3)]
    want = [certify_principal_type(rep_mink4, p, sys=shifted, seed=2)
            for p in points]
    monkeypatch.setattr(ds.symbols, "_BLOCK_POINTS", block)
    got = list(certify_principal_types(rep_mink4, points, sys=shifted,
                                       seed=2))
    _assert_same_certificates(got, want)
    assert [c.ker_dim for c in got] == [2, 0, 2, 0, 2]
    assert not any(c.passed for c in got)
    for c in got[::2]:
        nbh, cond = _reference_principal_type(rep_mink4, c.at, shifted,
                                              seed=2)
        assert c.neighborhood_ker_dims == nbh
        assert c.ker_coker_condition_number == pytest.approx(cond, rel=1e-12)
    assert [c.ker_coker_condition_number for c in got[1::2]] == [np.inf] * 2


@pytest.mark.parametrize("block", [1, 64])
def test_stacked_certification_rejects_an_off_cone_point(monkeypatch,
                                                         rep_mink4, block):
    monkeypatch.setattr(ds.symbols, "_BLOCK_POINTS", block)
    points = [mink_phase([1, 1, 0, 0]), mink_phase([1, 0, 0, 0]),
              mink_phase([1, 0, 1, 0])]
    with pytest.raises(NotOnCharacteristicSet):
        list(certify_principal_types(rep_mink4, points))
