"""Transport layer: the symbol-level connection, the pulled-back spinor
connection, their comparison (the package's central claim), and chart
covariance of the whole pipeline.
"""
import numpy as np
import pytest

import diracsym as ds
from diracsym.errors import (ConfigError, KernelViolation,
                             NotOnCharacteristicSet)
from diracsym.geometry import PhasePoint
from diracsym.symbols import (
    FirstOrderSystem,
    dirac_system,
    kernel_basis,
    principal_symbol,
    symbol_package,
)
from diracsym.transport import (
    PolarizationState,
    compare_transports,
    covariance_check,
    denker_generator,
    identity_map,
    minkowski_boost_map,
    schwarzschild_isotropic_map,
    transport_denker,
    transport_spin,
)

from conftest import SCHW_X0, look_alike_dirac, null_state, rotating_chart

I2 = np.eye(2)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
Z2 = np.zeros((2, 2))
G0 = np.block([[I2, Z2], [Z2, -I2]]).astype(complex)
G1 = np.block([[Z2, SX], [-SX, Z2]]).astype(complex)


W0 = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)


def mink_state(w=W0):
    return PolarizationState(
        PhasePoint(np.zeros(4), np.array([1.0, 1.0, 0.0, 0.0])), w)


# --------------------------------------------------------------------------
# generator


def test_generator_vanishes_on_minkowski(rep_mink4, sys_mink4):
    p = PhasePoint(np.zeros(4), np.array([1.0, 1.0, 0.0, 0.0]))
    pkg = symbol_package(rep_mink4, p, sys=sys_mink4)
    M = denker_generator(pkg)
    assert np.max(np.abs(M)) < 1e-14


def test_generator_constant_coefficient_system(rep_mink4, sys_mink4):
    # constant zeroth-order part: the generator is i sigma_tilde B, constant
    C = (np.arange(16).reshape(4, 4) / 10.0).astype(complex)
    A = sys_mink4.coeff_A(np.zeros(4))
    sysc = FirstOrderSystem(N=4, coeff_A=lambda x: A,
                            coeff_B=lambda x: 1j * C,
                            rep=rep_mink4, name="const_b")
    outs = []
    for x in (np.zeros(4), np.array([0.3, -1.0, 2.0, 0.7])):
        p = PhasePoint(x, np.array([1.0, 1.0, 0.0, 0.0]))
        pkg = symbol_package(rep_mink4, p, sys=sysc)
        M = denker_generator(pkg)
        want = 1j * (pkg.sigma_tilde @ (1j * C))
        assert np.max(np.abs(M - want)) < 1e-8
        outs.append(M)
    assert np.max(np.abs(outs[0] - outs[1])) < 1e-8


def test_generator_closed_vs_fd_schwarzschild(rep_schw, schw, sys_schw):
    rng = np.random.default_rng(17)
    xi = ds.random_null_covector(schw, SCHW_X0, rng)
    p = PhasePoint(SCHW_X0, xi)
    closed = denker_generator(symbol_package(rep_schw, p, sys=sys_schw))
    generic = FirstOrderSystem(N=4, coeff_A=sys_schw.coeff_A,
                               coeff_B=sys_schw.coeff_B, rep=rep_schw,
                               name="schw_fd")
    fd = denker_generator(symbol_package(rep_schw, p, sys=generic))
    assert np.max(np.abs(closed - fd)) < 1e-6


def _linear_chart():
    L = np.eye(4)
    L[0, 1] = 0.3
    L[2, 3] = -0.2
    return ds.minkowski_linear_chart(L)


STAGE_FIXTURES = {
    "schwarzschild1.0": lambda: ds.catalog_metric("schwarzschild1.0"),
    "schwarzschild_isotropic1.0":
        lambda: ds.catalog_metric("schwarzschild_isotropic1.0"),
    "conformal_flat": lambda: ds.catalog_metric(
        "conformal_flat{1 + 0.05*sin(3*t) + 0.05*cos(2*x)*cos(2*y)}"),
    "minkowski_linear_chart": _linear_chart,
    "rotating_minkowski": rotating_chart,
}


@pytest.mark.parametrize("flip", [False, True])
@pytest.mark.parametrize("fixture", sorted(STAGE_FIXTURES))
def test_stage_engine_against_independent_code(fixture, flip):
    """The transport stage's two rates against code that shares none of its
    contractions: omega_dot against the Christoffel-built spin connection,
    and generator + kappa Id against the finite-difference symbol package
    of a system whose zeroth-order part is -i A^m omega_m from that same
    independent connection."""
    from diracsym.clifford import (spin_connection_coefficients,
                                   spin_connection_matrix)
    from diracsym.geometry import _phase_core
    from diracsym.symbols import _StageEngine

    m = STAGE_FIXTURES[fixture]()
    rep = ds.build_canonical_module(m)
    sysd = dirac_system(rep)

    def coeff_B(x):
        om = spin_connection_coefficients(m, rep._pair_products, rep.eta, x)
        return -1j * sum(a @ o for a, o in zip(sysd.coeff_A(x), om))

    generic = FirstOrderSystem(N=4, coeff_A=sysd.coeff_A, coeff_B=coeff_B,
                               rep=rep, name="generic_fd")
    eng = _StageEngine(rep)
    sign = -1.0 if flip else 1.0
    rng = np.random.default_rng(41)
    points = []
    for _ in range(3):
        x = ds.random_chart_point(m, rng)
        xi = ds.random_null_covector(m, x, rng)
        points.append((x, xi))
        st = eng(x, xi)
        dx = ds.hamiltonian_field(m, PhasePoint(x, xi))[0]
        assert np.max(np.abs(st.omega_dot
                             - spin_connection_matrix(rep, x, dx))) < 1e-12

        pkg = symbol_package(rep, PhasePoint(x, xi), sys=generic)
        sub = denker_generator(pkg) - 0.5 * pkg.bracket
        want = 0.5 * pkg.bracket + sign * sub
        got = st.generator(sign) + st.kappa * np.eye(4)
        assert np.max(np.abs(got - want)) < 1e-6

    # one stacked call over the flow's values at all points equals the
    # point calls
    stacked = eng.at(*map(np.array, zip(*(
        (xi, *_phase_core(m, x, xi)[:3]) for x, xi in points))))
    for i, (x, xi) in enumerate(points):
        st = eng(x, xi)
        for name in ("sigma1", "A", "ds1x", "bracket", "B", "kappa",
                     "omega_dot"):
            a, b = getattr(stacked, name)[i], getattr(st, name)
            assert np.max(np.abs(a - b)) <= 1e-14 * (1 + np.max(np.abs(b))), \
                name
        a, b = stacked.generator(sign)[i], st.generator(sign)
        assert np.max(np.abs(a - b)) <= 1e-14 * (1 + np.max(np.abs(b)))


def _one_contraction_generator(st, rep, sign):
    """The generator as one contraction, kept as a reference: a (..., 289)
    real coefficient array (the bracket's 16, c_a times each of the 68
    p_sub coefficients, kappa) against the tensor of its rows, -1/2
    [gamma^a, gamma^b], -gamma^a times each p_sub row and -Id, built as
    the module once built it."""
    N = rep.N
    up = np.stack(rep.gammas_up)
    P = up[:, None] @ up
    commutator = P - P.transpose(1, 0, 2, 3)
    psub = np.concatenate((
        np.einsum("cij,abjk->cabik", up, -0.25 * P).reshape(-1, N, N),
        -0.5 * up))
    T = np.concatenate((
        -0.5 * commutator.reshape(-1, N, N),
        -np.einsum("aij,rjk->arik", up, psub).reshape(-1, N, N),
        -np.eye(N)[None]))
    T = np.ascontiguousarray(T.reshape(-1, N * N), dtype=complex).view(float)
    c = sign * (st.xi[..., None, :] @ st.E)
    sub = c.swapaxes(-1, -2) * st._psub_coeffs()[..., None, :]
    coeffs = np.concatenate((
        st.P.reshape(st.P.shape[:-2] + (-1,)),
        sub.reshape(sub.shape[:-2] + (-1,)),
        np.asarray(st.kappa)[..., None]), axis=-1)
    out = (coeffs @ T).view(complex)
    return out.reshape(out.shape[:-1] + (N, N))


@pytest.mark.parametrize("fixture", sorted(STAGE_FIXTURES))
def test_generator_matches_one_contraction_form(fixture):
    """The factored generator (three contractions and one stacked product)
    equals the one-contraction form to 1e-14 relative, for both signs, at
    point calls and in one stacked call."""
    from diracsym.geometry import _phase_core
    from diracsym.symbols import _StageEngine

    m = STAGE_FIXTURES[fixture]()
    rep = ds.build_canonical_module(m)
    eng = _StageEngine(rep)
    rng = np.random.default_rng(43)
    points = []
    for _ in range(4):
        x = ds.random_chart_point(m, rng)
        points.append((x, ds.random_null_covector(m, x, rng)))
    stacked = eng.at(*map(np.array, zip(*(
        (xi, *_phase_core(m, x, xi)[:3]) for x, xi in points))))
    for sign in (1.0, -1.0):
        calls = [eng(x, xi) for x, xi in points] + [stacked]
        for st in calls:
            got, want = st.generator(sign), _one_contraction_generator(
                st, rep, sign)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_generator_scratch_stays_small(schw, rep_schw):
    """StageData.generator on one 32-step RK4 block of schwarzschild1.0
    (129 stage records) peaks below 300 KiB of Python allocations (the
    one-contraction form took 602 KiB), so the block size does not cost
    memory in the generator."""
    import tracemalloc

    from diracsym.geometry import _flow
    from diracsym.symbols import _StageEngine

    state = null_state(schw, rep_schw, SCHW_X0, 0)
    records = []
    _flow(schw, state.phase, 0.032, "rk4_fixed", 1e-3, 1e-10,
          on_block=lambda hs, block: records.extend(block))
    assert len(records) == 129
    st = _StageEngine(rep_schw).at(*map(np.array, zip(*records)))
    st.generator(1.0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = st.generator(1.0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert out.shape == (129, 4, 4)
    assert peak <= 300 * 1024, peak


def test_engine_scratch_stays_small(schw, rep_schw):
    """_StageEngine.at on one 64-step RK4 block of schwarzschild1.0 (257
    stage records) peaks below 720 KiB of Python allocations, its output
    included; built from the frame partials dE, E^-1 dE and the three-term
    Christoffel tensor it took 837 KiB."""
    import tracemalloc

    from diracsym.geometry import _flow
    from diracsym.symbols import _StageEngine

    state = null_state(schw, rep_schw, SCHW_X0, 0)
    records = []
    _flow(schw, state.phase, 0.064, "rk4_fixed", 1e-3, 1e-10,
          on_block=lambda hs, block: records.extend(block))
    assert len(records) == 257
    args = list(map(np.array, zip(*records)))
    eng = _StageEngine(rep_schw)
    eng.at(*args)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        st = eng.at(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert st.generator(1.0).shape == (257, 4, 4)
    assert peak <= 720 * 1024, peak


def test_curved_nondiagonal_chart_frame_certificate_and_transport():
    """The rotating chart has a non-diagonal metric with nonzero
    derivatives: its frame jet against central differences, the module
    certificate, and the transport claim with its flipped-sign control."""
    from diracsym.geometry import _frame_jet_from, _metric_jet

    m = rotating_chart()

    def frame_jet(x):
        return _frame_jet_from(m, *_metric_jet(m, x))

    eta = np.diag([-1.0, 1.0, 1.0, 1.0])
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = ds.random_chart_point(m, rng)
        E, dE, Einv = frame_jet(x)
        # upper triangular with a positive diagonal: chart-order
        # Gram-Schmidt, the only such frame
        assert np.array_equal(E, np.triu(E)) and np.all(np.diag(E) > 0)
        assert np.max(np.abs(E.T @ m.eval(x) @ E - eta)) < 1e-12
        assert np.max(np.abs(Einv @ E - np.eye(4))) < 1e-12
        for k in range(4):
            h = np.zeros(4)
            h[k] = 1e-5
            fd = (frame_jet(x + h)[0] - frame_jet(x - h)[0]) / 2e-5
            assert np.max(np.abs(dE[k] - fd)) < 1e-7

    rep = ds.build_canonical_module(m)
    cert = ds.certify_axioms(rep, ds.SampleSpec(points=5, vectors=3, seed=0))
    assert cert.passed, {k: a.max_residual for k, a in cert.axioms.items()}

    sysd = dirac_system(rep)
    state = null_state(m, rep, np.array([0.0, 0.4, -0.3, 0.2]), 3)
    rpt = compare_transports(rep, sysd, state, 1.0, step=1e-3)
    assert not rpt.left_chart
    assert rpt.max_gap < 1e-6
    flipped = compare_transports(rep, sysd, state, 1.0, step=1e-3,
                                 flip_subprincipal=True)
    assert flipped.max_gap > 1e-3


# --------------------------------------------------------------------------
# symbol-level transport


def test_denker_flat_sections_constant(sys_mink4):
    orbit = transport_denker(sys_mink4, mink_state(), 5.0, step=1e-3)
    traj = orbit.trajectory
    assert orbit.method == "denker"
    assert len(orbit.sections) == traj.n
    for w in orbit.sections[:: traj.n // 7]:
        assert np.array_equal(w, W0)
    assert np.max(orbit.kernel_residuals) < 1e-13


def test_denker_rejects_off_kernel_start(sys_mink4):
    with pytest.raises(KernelViolation):
        transport_denker(sys_mink4, mink_state(np.array([1.0, 0, 0, 0])), 0.5)
    with pytest.raises(KernelViolation):
        transport_denker(sys_mink4, mink_state(np.zeros(4)), 0.5)


def test_denker_requires_dirac_backing(sys_mink4):
    bare = FirstOrderSystem(N=4, coeff_A=sys_mink4.coeff_A,
                            coeff_B=sys_mink4.coeff_B, name="bare")
    with pytest.raises(ConfigError):
        transport_denker(bare, mink_state(), 0.5)


def test_seed_check_reads_the_frame_alone(rep_schw, sys_schw, schw,
                                         monkeypatch):
    """The seed's kernel check takes sigma_1 from the frame of the metric
    value: with the engine's one-point call refused, the three transports
    still run, and an off-kernel seed is still refused."""
    from diracsym.symbols import _StageEngine

    state = null_state(schw, rep_schw, SCHW_X0, 0)

    def refuse(self, x, xi):
        raise AssertionError("one-point engine call")

    monkeypatch.setattr(_StageEngine, "__call__", refuse)
    rpt = compare_transports(rep_schw, sys_schw, state, 0.1, step=1e-2)
    assert rpt.trajectory.n == 11 and rpt.max_gap < 1e-6
    assert len(transport_denker(sys_schw, state, 0.1, step=1e-2).sections) \
        == 11
    assert len(transport_spin(rep_schw, state, 0.1, step=1e-2).sections) \
        == 11
    off = PolarizationState(state.phase, np.array([1.0, 0, 0, 0]))
    with pytest.raises(KernelViolation):
        compare_transports(rep_schw, sys_schw, off, 0.1, step=1e-2)


def test_non_finite_seed_is_refused(rep_schw, sys_schw, schw):
    """A covector with a NaN entry is not null and a NaN or infinite
    polarization is not in the kernel: each transport refuses the seed
    before the run instead of transporting it."""
    state = null_state(schw, rep_schw, SCHW_X0, 0)
    nan_xi = PolarizationState(
        PhasePoint(SCHW_X0, np.array([np.nan, 1.0, 0.0, 0.0])), state.w)
    with pytest.raises(NotOnCharacteristicSet):
        compare_transports(rep_schw, sys_schw, nan_xi, 0.1, step=1e-2)
    with pytest.raises(NotOnCharacteristicSet):
        transport_denker(sys_schw, nan_xi, 0.1, step=1e-2)
    with pytest.raises(NotOnCharacteristicSet):
        transport_spin(rep_schw, nan_xi, 0.1, step=1e-2)
    for bad in (np.nan, np.inf):
        w = state.w.copy()
        w[0] = bad
        off = PolarizationState(state.phase, w)
        with pytest.raises(KernelViolation):
            compare_transports(rep_schw, sys_schw, off, 0.1, step=1e-2)
        with pytest.raises(KernelViolation):
            transport_denker(sys_schw, off, 0.1, step=1e-2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0])
def test_spinor_law_refuses_zero_or_non_finite_polarization(rep_schw, schw,
                                                            bad):
    """The spinor law needs no kernel vector, but a NaN, infinite or zero
    w0 is refused before the run rather than carried as NaN sections; any
    nonzero finite w0 still runs."""
    phase = null_state(schw, rep_schw, SCHW_X0, 0).phase
    w = np.zeros(4, dtype=complex) if bad == 0.0 \
        else np.array([bad, 0.0, 0.0, 0.0], dtype=complex)
    with pytest.raises(KernelViolation, match="norm"):
        transport_spin(rep_schw, PolarizationState(phase, w), 0.1,
                       step=1e-2)
    ok = transport_spin(rep_schw, PolarizationState(phase, np.eye(4)[0]),
                        0.1, step=1e-2)
    assert np.all(np.isfinite(ok.sections)) and len(ok.sections) == 11


def test_denker_kernel_invariance_radial_ray(rep_schw, sys_schw, schw):
    xi = ds.null_project_covector(schw, SCHW_X0,
                                  np.array([1.0, 1.25, 0.0, 0.0]))
    from diracsym.symbols import _StageEngine
    vecs, _ = kernel_basis(_StageEngine(rep_schw)(SCHW_X0, xi).sigma1)
    orbit = transport_denker(
        sys_schw, PolarizationState(PhasePoint(SCHW_X0, xi), vecs[0]), 5.0,
        step=1e-3)
    assert np.max(orbit.kernel_residuals) < 1e-6  # measured ~1e-15
    # norm envelope: |w| within exp(int |M|) of |w0|, logged not asserted
    C = np.exp(orbit.generator_norm_integral) * (1 + 1e-6)
    norms = np.array([np.linalg.norm(w) for w in orbit.sections])
    assert np.all(norms <= C) and np.all(norms >= 1.0 / C)


# --------------------------------------------------------------------------
# spinor transport


def test_spin_flat_sections_constant(rep_mink4):
    s0 = np.array([0.3, 1.0 - 0.5j, 0.0, 2.0], dtype=complex)
    orbit = transport_spin(rep_mink4, mink_state(s0), 5.0, step=1e-3)
    assert orbit.method == "spin_pullback"
    for s in orbit.sections[:: orbit.trajectory.n // 7]:
        assert np.array_equal(s, s0)
    assert orbit.product_drift == 0.0


def test_product_drift_of_constructed_sections(rep_schw):
    # sections whose products differ: <2s, 2s> - <s, s> = 3 <s, s>
    from diracsym.transport import _product_drift

    G = rep_schw.gram
    s = np.array([1.0, 0.2j, -0.4, 0.5 + 0.1j], dtype=complex)
    ss = float(np.real(s.conj() @ G @ s))
    assert abs(ss) > 0.1
    assert _product_drift(G, np.array([s, 2.0 * s])) == pytest.approx(
        3.0 * abs(ss), rel=1e-15)
    assert _product_drift(G, np.array([s, s, 0.5 * s])) == pytest.approx(
        0.75 * abs(ss), rel=1e-15)


def test_spin_preserves_indefinite_product(rep_schw, schw):
    rng = np.random.default_rng(23)
    xi = ds.random_null_covector(schw, SCHW_X0, rng)
    s0 = np.array([1.0, 0.2j, -0.4, 0.9 + 0.1j], dtype=complex)
    orbit = transport_spin(
        rep_schw, PolarizationState(PhasePoint(SCHW_X0, xi), s0), 5.0,
        step=1e-3)
    assert orbit.product_drift <= 1e-8 * float(np.linalg.norm(s0)) ** 2


def test_spin_null_spinor_stays_null(rep_schw, schw):
    rng = np.random.default_rng(24)
    xi = ds.random_null_covector(schw, SCHW_X0, rng)
    s0 = np.array([1.0, 0.0, 1.0, 0.0], dtype=complex)  # <s,s> = 0
    G = rep_schw.gram
    assert abs(s0.conj() @ G @ s0) == 0.0
    orbit = transport_spin(
        rep_schw, PolarizationState(PhasePoint(SCHW_X0, xi), s0), 5.0,
        step=1e-3)
    vals = [abs(s.conj() @ G @ s) for s in orbit.sections]
    assert max(vals) < 1e-8


def test_spin_endpoint_richardson_ratio(rep_schw, schw):
    xi = ds.null_project_covector(schw, SCHW_X0,
                                  np.array([1.0, 0.9, 0.02, 0.01]))
    state = PolarizationState(PhasePoint(SCHW_X0, xi),
                              np.array([1.0, 0.5, -0.25j, 0.1]))
    ends = {}
    for h in (0.2, 0.1, 0.05):
        ends[h] = transport_spin(rep_schw, state, 5.0, step=h).sections[-1]
    e1 = np.linalg.norm(ends[0.2] - ends[0.1])
    e2 = np.linalg.norm(ends[0.1] - ends[0.05])
    assert e1 > 1e-12
    assert 12.0 <= e1 / e2 <= 20.0


# --------------------------------------------------------------------------
# the comparison


def test_compare_flat_transports_identical(rep_mink4, sys_mink4):
    state = PolarizationState(
        PhasePoint(np.zeros(4), np.array([1.0, 1.0, 0.0, 0.0])), W0)
    rpt = compare_transports(rep_mink4, sys_mink4, state, 5.0, step=1e-3)
    assert rpt.max_gap < 1e-13
    assert rpt.max_kernel_residual < 1e-13
    assert rpt.q_drift < 1e-14
    assert not rpt.left_chart


def test_compare_schwarzschild_main_claim(rep_schw, sys_schw, schw):
    for seed in (0, 3):
        state = null_state(schw, rep_schw, SCHW_X0, seed)
        rpt = compare_transports(rep_schw, sys_schw, state, 1.0, step=1e-3)
        assert rpt.max_gap < 1e-6, seed
        assert rpt.max_kernel_residual < 1e-6


def test_compare_negative_control_flipped_sign(rep_schw, sys_schw, schw):
    state = null_state(schw, rep_schw, SCHW_X0, 5)
    rpt = compare_transports(rep_schw, sys_schw, state, 1.0, step=1e-3,
                             flip_subprincipal=True)
    assert rpt.flip_subprincipal
    assert rpt.max_gap > 1e-3
    # the flipped term is annihilated by sigma_1 on the cone, so the wrong
    # sign shows up as a gap, not as kernel leakage
    assert rpt.max_kernel_residual < 1e-8


def test_compare_scaling_covariance(rep_schw, sys_schw, schw):
    base = null_state(schw, rep_schw, SCHW_X0, 2)
    rpt0 = compare_transports(rep_schw, sys_schw, base, 0.5, step=1e-2)
    for lam in (2.0, 1j):
        scaled = PolarizationState(base.phase, lam * base.w)
        rpt = compare_transports(rep_schw, sys_schw, scaled, 0.5, step=1e-2)
        for a, b in zip(rpt.orbit_denker.sections[::17],
                        rpt0.orbit_denker.sections[::17]):
            assert np.array_equal(a, lam * b)
        for a, b in zip(rpt.orbit_spin.sections[::17],
                        rpt0.orbit_spin.sections[::17]):
            assert np.array_equal(a, lam * b)


def test_compare_left_chart_flagged(rep_schw, sys_schw, schw):
    xi = ds.null_project_covector(schw, SCHW_X0,
                                  np.array([1.0, -1.25, 0.0, 0.0]))
    from diracsym.symbols import _StageEngine
    vecs, _ = kernel_basis(_StageEngine(rep_schw)(SCHW_X0, xi).sigma1)
    state = PolarizationState(PhasePoint(SCHW_X0, xi), vecs[0])
    rpt = compare_transports(rep_schw, sys_schw, state, 50.0, step=1e-2)
    assert rpt.left_chart


def test_joint_phase_samples_match_solo_trajectory(rep_schw, sys_schw, schw):
    # one integration per ray: every transport reproduces the solo
    # trajectory bit for bit, and a law's sections do not depend on
    # whether the other law rides along
    state = null_state(schw, rep_schw, SCHW_X0, 4)
    for integ in ({"integrator": "rk4_fixed", "step": 1e-2},
                  {"integrator": "rk45_adaptive", "tol": 1e-10}):
        rpt = compare_transports(rep_schw, sys_schw, state, 1.0, **integ)
        denker = transport_denker(sys_schw, state, 1.0, **integ)
        spin = transport_spin(rep_schw, state, 1.0, **integ)
        solo = ds.integrate_bicharacteristic(schw, state.phase, 1.0, **integ)
        assert solo.n > 5, integ
        for traj in (rpt.trajectory, denker.trajectory, spin.trajectory):
            for key in ("ts", "xs", "xis", "qs"):
                assert np.array_equal(getattr(traj, key),
                                      getattr(solo, key)), (integ, key)
            assert traj.left_chart == solo.left_chart
        assert np.array_equal(denker.sections, rpt.orbit_denker.sections)
        assert np.array_equal(spin.sections, rpt.orbit_spin.sections)


def _joint_reference(rep, m, state, t_end, sign, **flow):
    """The design before the split, kept as a reference: the phase point
    and both polarizations stepped as one state, with a per-point engine
    call at every stage, on the accepted steps of the flow."""
    from diracsym.geometry import _DP_A, _RK4_A, _flow, _phase_core, _rk_step
    from diracsym.symbols import _StageEngine

    hs = []
    _flow(m, state.phase, t_end, on_block=lambda h, _: hs.extend(h), **flow)
    eng = _StageEngine(rep)
    d, N = m.dim, rep.N

    def f(y):
        x, xi = y[:d].real, y[d:2 * d].real
        st = eng(x, xi)
        L = np.array([st.generator(sign), st.omega_dot])
        rates = -(L @ y[2 * d:].reshape(2, N, 1))
        return np.concatenate((*_phase_core(m, x, xi)[3:], rates.ravel()))

    rows = _RK4_A if flow["integrator"] == "rk4_fixed" else _DP_A
    y = np.concatenate((state.phase.x, state.phase.xi, state.w, state.w))
    k = f(y)
    ys = [y]
    for h in hs:
        y, ks = _rk_step(f, y, k, h, rows)
        k = ks[-1]
        ys.append(y)
    return np.array(ys)[:, 2 * d:].reshape(-1, 2, N)


def _reference_cases():
    schw = ds.catalog_metric("schwarzschild1.0")
    conf = STAGE_FIXTURES["conformal_flat"]()
    rot = rotating_chart()
    inward = ds.null_project_covector(schw, SCHW_X0,
                                      np.array([1.0, -1.25, 0.0, 0.0]))
    return {
        "schwarzschild_rk4": (schw, SCHW_X0, 2, 1.0,
                              {"integrator": "rk4_fixed", "step": 1e-2, "tol": 1e-10}),
        "conformal_dopri": (conf, np.array([0.1, -0.3, 0.5, 0.2]), 2, 0.5,
                            {"integrator": "rk45_adaptive", "step": 1e-3,
                             "tol": 1e-12}),
        "rotating_rk4": (rot, np.array([0.0, 0.4, -0.3, 0.2]), 3, 1.0,
                         {"integrator": "rk4_fixed", "step": 1e-2, "tol": 1e-10}),
        "left_chart": (schw, inward, None, 50.0,
                       {"integrator": "rk4_fixed", "step": 1e-2, "tol": 1e-10}),
    }


def _reference_run(case):
    """(metric, module, Dirac system, state, t_end, flow) of a reference
    case."""
    m, x0, seed, t_end, flow = _reference_cases()[case]
    rep = ds.build_canonical_module(m)
    sysd = dirac_system(rep)
    if seed is None:  # x0 holds the covector of the left-chart ray at SCHW_X0
        xi = x0
        x0 = SCHW_X0
        vecs, _ = kernel_basis(principal_symbol(sysd, PhasePoint(x0, xi)))
        state = PolarizationState(PhasePoint(x0, xi), vecs[0])
    else:
        state = null_state(m, rep, x0, seed)
    return m, rep, sysd, state, t_end, flow


@pytest.mark.parametrize("case", sorted(_reference_cases()))
def test_split_transport_matches_joint_reference(case, monkeypatch):
    """Phase flow first, stacked stage coefficients and the linear
    recursion give the sections of the joint integration to 1e-12
    relative, sample by sample, for both laws and both signs; the stacked
    engine calls see exactly the stages of accepted steps."""
    import dataclasses

    from diracsym.geometry import _BLOCK_STEPS, _flow
    from diracsym.symbols import _StageEngine

    m, rep, sysd, state, t_end, flow = _reference_run(case)
    stages = 4 if flow["integrator"] == "rk4_fixed" else 6
    if stages == 6:
        # the ray has rejected steps: more metric jets than the seed plus
        # six per accepted step
        calls = []
        counted = dataclasses.replace(
            m, jet=lambda x: calls.append(1) or m.jet(x))
        hs = []
        _flow(counted, state.phase, t_end,
              on_block=lambda h, _: hs.extend(h), **flow)
        assert len(calls) > 1 + stages * len(hs)

    stacked = []  # points per stacked engine call
    at = _StageEngine.at

    def counting_at(self, xi, *rest):
        if np.ndim(xi) == 2:
            stacked.append(len(xi))
        return at(self, xi, *rest)

    monkeypatch.setattr(_StageEngine, "at", counting_at)
    for flip in (False, True):
        stacked.clear()
        rpt = compare_transports(rep, sysd, state, t_end,
                                 flip_subprincipal=flip, **flow)
        assert rpt.left_chart == (case == "left_chart")
        assert sum(stacked) == 1 + stages * (rpt.trajectory.n - 1)
        assert max(stacked) <= 1 + stages * _BLOCK_STEPS
        ref = _joint_reference(rep, m, state, t_end, -1.0 if flip else 1.0,
                               **flow)
        assert ref.shape[0] == rpt.trajectory.n > 10
        for j, orbit in enumerate((rpt.orbit_denker, rpt.orbit_spin)):
            got = np.array(orbit.sections)
            err = np.linalg.norm(got - ref[:, j], axis=1)
            assert np.all(err <= 1e-12 * np.linalg.norm(ref[:, j], axis=1)), \
                (case, flip, j, float(np.max(err)))


@pytest.mark.parametrize("case", sorted(_reference_cases()))
def test_sections_do_not_depend_on_block_size(case, monkeypatch):
    """The flow hands on its records in blocks, and stage 1 of a block's
    first step is carried over from the block before: the trajectory and
    both laws' sections are bit for bit the same for any block size, also
    with rejected steps (conformal_dopri) and a truncated ray
    (left_chart)."""
    from diracsym import geometry

    _, rep, sysd, state, t_end, flow = _reference_run(case)
    runs = []
    for size in (1, 3, geometry._BLOCK_STEPS, 1000):
        monkeypatch.setattr(geometry, "_BLOCK_STEPS", size)
        runs.append(compare_transports(rep, sysd, state, t_end, **flow))
    first = runs[0]
    assert first.trajectory.n > 10
    for rpt in runs[1:]:
        for key in ("ts", "xs", "xis", "qs"):
            assert np.array_equal(getattr(first.trajectory, key),
                                  getattr(rpt.trajectory, key)), key
        for orbit in ("orbit_denker", "orbit_spin"):
            assert np.array_equal(getattr(first, orbit).sections,
                                  getattr(rpt, orbit).sections), orbit


def test_long_ray_gap_floor(rep_schw, sys_schw, schw):
    """5,000 RK4 steps: the polarizations are stepped as V + D V, so the
    gap stays at roundoff (8e-16 here); a per-step propagator (I + D) V
    lets rounding accumulate to 9e-14."""
    state = null_state(schw, rep_schw, SCHW_X0, 3)
    rpt = compare_transports(rep_schw, sys_schw, state, 5.0, step=1e-3)
    assert rpt.trajectory.n == 5001 and not rpt.left_chart
    assert rpt.max_gap < 1e-14


def test_replay_rejects_unknown_integrator(sys_mink4):
    with pytest.raises(ConfigError):
        transport_denker(sys_mink4, mink_state(), 1.0, integrator="leapfrog")


def test_adaptive_grid_replay(rep_schw, sys_schw, schw):
    state = null_state(schw, rep_schw, SCHW_X0, 6)
    rpt = compare_transports(rep_schw, sys_schw, state, 1.0,
                             integrator="rk45_adaptive", tol=1e-10)
    assert rpt.max_gap < 1e-6
    assert rpt.step is None


# --------------------------------------------------------------------------
# covariance


def test_covariance_identity_map(rep_schw, schw):
    state = null_state(schw, rep_schw, SCHW_X0, 7)
    out = covariance_check(identity_map(schw), state, 1.0, step=1e-2)
    assert out["max_x_discrepancy"] == 0.0
    assert out["max_xi_discrepancy"] == 0.0
    assert out["max_w_discrepancy"] == 0.0


def test_covariance_minkowski_boost(rep_mink4, mink4):
    xi = ds.null_project_covector(mink4, np.zeros(4),
                                  np.array([1.0, 0.6, 0.8, 0.0]))
    from diracsym.symbols import _StageEngine
    vecs, _ = kernel_basis(_StageEngine(rep_mink4)(np.zeros(4),
                                                          xi).sigma1)
    state = PolarizationState(PhasePoint(np.zeros(4), xi), vecs[0])
    out = covariance_check(minkowski_boost_map(0.5), state, 2.0, step=1e-3)
    assert out["max_w_discrepancy"] < 1e-8
    assert out["max_x_discrepancy"] < 1e-8
    assert out["max_xi_discrepancy"] < 1e-8


def test_covariance_schwarzschild_radial_reparametrization(rep_schw, schw):
    state = null_state(schw, rep_schw, SCHW_X0, 3)
    out = covariance_check(schwarzschild_isotropic_map(1.0), state, 2.0,
                           step=1e-3)
    assert out["max_w_discrepancy"] < 1e-6
    assert out["max_x_discrepancy"] < 1e-6
    assert out["max_xi_discrepancy"] < 1e-6


def _rotating_map(omega=0.3):
    """Inertial Minkowski chart (t, x, y, z) to the (t, X, Y, z) of
    ``rotating_chart(omega)``: X = x cos wt + y sin wt, Y = -x sin wt +
    y cos wt."""
    def forward(x):
        x = np.asarray(x, dtype=float)
        c, s = np.cos(omega * x[..., 0]), np.sin(omega * x[..., 0])
        y = x.copy()
        y[..., 1] = c * x[..., 1] + s * x[..., 2]
        y[..., 2] = -s * x[..., 1] + c * x[..., 2]
        return y

    def jacobian(x):
        y = forward(x)
        c, s = np.cos(omega * y[..., 0]), np.sin(omega * y[..., 0])
        J = np.zeros(y.shape + (4,))
        J[..., 0, 0] = J[..., 3, 3] = 1.0
        J[..., 1, :3] = np.stack([omega * y[..., 2], c, s], axis=-1)
        J[..., 2, :3] = np.stack([-omega * y[..., 1], -s, c], axis=-1)
        return J

    return ds.ChartMap(name=f"rotating(omega={omega})",
                       metric_a=ds.minkowski(4),
                       metric_b=rotating_chart(omega),
                       forward=forward, jacobian=jacobian)


def test_covariance_rotating_chart_and_frozen_transfer_control(
        rep_mink4, mink4, monkeypatch):
    """Along a ray the rotating chart's frame turns against the inertial
    one, so the spinor transfer changes from sample to sample: the check
    passes with the true transfer and fails when the transfer is frozen at
    the seed point, which only a comparison at every sample can see."""
    import diracsym.transport as tr
    from diracsym.symbols import _StageEngine

    x0 = np.array([0.0, 0.5, 0.0, 0.0])
    xi = ds.null_project_covector(mink4, x0, np.array([1.0, 0.6, 0.8, 0.0]))
    vecs, _ = kernel_basis(_StageEngine(rep_mink4)(x0, xi).sigma1)
    state = PolarizationState(PhasePoint(x0, xi), vecs[0])
    cm = _rotating_map(0.3)
    out = covariance_check(cm, state, 1.0, step=1e-3)
    assert out["samples_compared"] == 1001 and not out["left_chart"]
    for key in ("max_x_discrepancy", "max_xi_discrepancy",
                "max_w_discrepancy"):
        assert out[key] < 1e-10, key

    exact = tr._spinor_rep_of

    def frozen(L, rep):
        T = exact(L, rep)
        return np.broadcast_to(T[:1], T.shape)

    monkeypatch.setattr(tr, "_spinor_rep_of", frozen)
    out = covariance_check(cm, state, 1.0, step=1e-3)
    assert out["max_w_discrepancy"] > 1e-3


@pytest.mark.parametrize("signs", [(1, -1, 1, 1), (-1, 1, 1, 1),
                                   (-1, -1, -1, -1)],
                         ids=["parity", "time_reversal", "total_inversion"])
def test_covariance_rejects_improper_frame_change(rep_mink4, mink4, signs):
    P = np.diag(np.array(signs, dtype=float))
    cm = ds.ChartMap(name="reflection", metric_a=mink4, metric_b=mink4,
                     forward=lambda x: np.asarray(x, dtype=float) @ P,
                     jacobian=lambda x: np.broadcast_to(
                         P, np.shape(x)[:-1] + P.shape))
    with pytest.raises(ds.ChartMapDegenerate):
        covariance_check(cm, mink_state(), 1.0, step=1e-2)


def _boost(d, k, phi):
    L = np.eye(d)
    L[0, 0] = L[k, k] = np.cosh(phi)
    L[0, k] = L[k, 0] = np.sinh(phi)
    return L


def test_spinor_rep_closed_forms():
    """T = exp of half the generator: cosh(phi/2) + sinh(phi/2) g^0 g^k for
    a boost of rapidity phi along k, cos(th/2) + sin(th/2) g^1 g^2 for a
    rotation by th about z, in the 4-d and the 2-d module."""
    from diracsym.transport import _spinor_rep_of

    for d in (4, 2):
        rep = ds.build_canonical_module(ds.minkowski(d))
        g = rep.gammas_up
        for k in range(1, d):
            for phi in (0.7, -1.9):
                T = np.cosh(phi / 2) * np.eye(rep.N) \
                    + np.sinh(phi / 2) * g[0] @ g[k]
                err = np.max(np.abs(_spinor_rep_of(_boost(d, k, phi), rep)
                                    - T))
                assert err < 1e-14, (d, k, phi, err)
    rep = ds.build_canonical_module(ds.minkowski(4))
    g = rep.gammas_up
    for th in (1.1, -2.5):
        L = np.eye(4)
        L[1, 1] = L[2, 2] = np.cos(th)
        L[1, 2], L[2, 1] = -np.sin(th), np.sin(th)
        T = np.cos(th / 2) * np.eye(4) + np.sin(th / 2) * g[1] @ g[2]
        assert np.max(np.abs(_spinor_rep_of(L, rep) - T)) < 1e-14, th


def test_spinor_rep_stack_matches_points():
    """A stacked call returns each point's own T, the identity included,
    also when it is split into blocks."""
    from diracsym.transport import _spinor_rep_of

    rep = ds.build_canonical_module(ds.minkowski(4))
    rot = np.eye(4)
    rot[1:3, 1:3] = [[np.cos(0.4), -np.sin(0.4)], [np.sin(0.4), np.cos(0.4)]]
    Ls = np.stack([_boost(4, 1, 0.3), rot @ _boost(4, 3, -1.2), np.eye(4),
                   _boost(4, 2, 0.8) @ rot])
    points = [_spinor_rep_of(L, rep) for L in Ls]
    assert np.array_equal(points[2], np.eye(4))
    for n in (4, 301):  # 301 runs in blocks
        T = _spinor_rep_of(np.concatenate([Ls] * 76)[:n], rep)
        assert T.shape == (n, 4, 4)
        for i, t in enumerate(T):
            assert np.max(np.abs(points[i % 4] - t)) < 1e-14


# --------------------------------------------------------------------------
# what the transports accept, and what their orbits leave uncomputed


def test_denker_rejects_foreign_system_with_rep(rep_schw, sys_schw):
    """A system that carries the module but not its Dirac coefficients
    would otherwise be transported as the Dirac system.  Only the object
    dirac_system returned passes: neither a look-alike that also carries
    the module nor a copy with one coefficient swapped does."""
    import dataclasses

    doubled = FirstOrderSystem(
        N=4, coeff_A=lambda x: [2.0 * a for a in sys_schw.coeff_A(x)],
        coeff_B=lambda x: 5.0 * np.eye(4), rep=rep_schw, name="doubled")
    look_alike = look_alike_dirac(sys_schw)
    swapped = dataclasses.replace(sys_schw, coeff_B=doubled.coeff_B)
    state = null_state(rep_schw.metric, rep_schw, SCHW_X0, 3)
    for fake in (doubled, look_alike, swapped):
        with pytest.raises(ConfigError):
            transport_denker(fake, state, 0.1)
        with pytest.raises(ConfigError):
            compare_transports(rep_schw, fake, state, 0.1)
    assert transport_denker(sys_schw, state, 0.1).trajectory.n == 101


def test_compare_rejects_system_of_another_module(rep_schw, sys_mink4):
    state = null_state(rep_schw.metric, rep_schw, SCHW_X0, 3)
    with pytest.raises(ConfigError):
        compare_transports(rep_schw, sys_mink4, state, 0.1)


def test_orbit_summaries_not_computed_are_none(rep_schw, sys_schw):
    state = null_state(rep_schw.metric, rep_schw, SCHW_X0, 3)
    assert transport_denker(sys_schw, state, 0.1).product_drift is None
    assert transport_spin(rep_schw, state, 0.1).generator_norm_integral \
        is None
    report = compare_transports(rep_schw, sys_schw, state, 0.1)
    assert report.orbit_denker.product_drift is None
    assert report.orbit_spin.generator_norm_integral is None
    assert report.product_drift == report.orbit_spin.product_drift
