import dataclasses

import numpy as np
import pytest

import diracsym as ds
from diracsym.errors import OutsideChart
from diracsym.geometry import (_constant_metric, _frame_from, _is_diagonal,
                               _metric_jet)
from diracsym.symbols import dirac_system, kernel_basis
from diracsym.transport import ChartMap, PolarizationState


@pytest.fixture(scope="session")
def mink4():
    return ds.minkowski(4)


@pytest.fixture(scope="session")
def mink2():
    return ds.minkowski(2)


@pytest.fixture(scope="session")
def schw():
    return ds.schwarzschild(1.0)


@pytest.fixture(scope="session")
def schw_iso():
    return ds.schwarzschild_isotropic(1.0)


@pytest.fixture(scope="session")
def rep_mink4(mink4):
    return ds.build_canonical_module(mink4)


@pytest.fixture(scope="session")
def rep_schw(schw):
    return ds.build_canonical_module(schw)


@pytest.fixture(scope="session")
def sys_mink4(rep_mink4):
    return dirac_system(rep_mink4)


@pytest.fixture(scope="session")
def sys_schw(rep_schw):
    return dirac_system(rep_schw)


SCHW_X0 = np.array([0.0, 10.0, 1.2, 0.3])


def in_chart(m, x) -> bool:
    """Whether the public metric evaluator reads m at x."""
    try:
        ds.eval_metric(m, x)
    except OutsideChart:
        return False
    return True


# --------------------------------------------------------------------------
# independent oracle of the library's connection: the frame partials dE and
# the spinor connection from Christoffel symbols, a route that shares no
# formula with geometry._frame_connection


def frame_jet(g, dg):
    """(E, dE, E_inv) with dE[..., k] = d_k E, at one point or along
    leading stack axes of ``g`` (..., d, d) and ``dg`` (..., d, d, d).

    Differentiating g = R^T eta R, E^T dg_k E = X + X^T with X = eta dR_k E
    upper triangular, so X is the strict upper triangle plus half the
    diagonal of E^T dg_k E, and dE_k = -E dR_k E = -E eta X.  Where g and
    its partials are diagonal, E = diag(|g_aa|^-1/2), whose partials are
    read off directly.
    """
    d = g.shape[-1]
    eye, sig = np.eye(d), np.array([-1.0] + [1.0] * (d - 1))
    E, Einv = _frame_from(g)
    if _is_diagonal(g) and _is_diagonal(dg):
        piv = sig * g.diagonal(axis1=-2, axis2=-1)
        dpiv = sig * dg.diagonal(axis1=-2, axis2=-1)  # (..., k, a)
        dediag = -0.5 * piv[..., None, :] ** -1.5 * dpiv
        return E, dediag[..., None] * eye, Einv
    M = E.swapaxes(-1, -2)[..., None, :, :] @ dg @ E[..., None, :, :]
    dE = -(E * sig)[..., None, :, :] @ (np.triu(M) - 0.5 * eye * M)
    return E, dE, Einv


def connection_from(rep, g, dg, E, dE, Einv):
    """Christoffel symbols Gam[..., i, j, k] = Gamma^i_jk and the spinor
    connection matrices omega[..., mu] of ``rep`` from a metric and frame
    jet, at one point or along leading stack axes of every jet array.

    omega_mu^a_b = [E^-1 (d_mu E + Gamma_mu E)]^a_b, lowered with the frame
    signs and contracted against -1/4 gamma^a gamma^b, formed here from
    ``rep.gammas`` and ``rep.eta`` rather than read off the module's
    Clifford tensors.
    """
    d, N = g.shape[-1], rep.N
    T = dg.swapaxes(-3, -2) + np.moveaxis(dg, -3, -1) - dg
    Gam = 0.5 * np.einsum("...il,...ljk->...ijk", np.linalg.inv(g), T)
    w = Einv[..., None, :, :] @ (dE + Gam.swapaxes(-3, -2)
                                 @ E[..., None, :, :])
    eta = np.diagonal(rep.eta)
    up = eta[:, None, None] * np.stack(rep.gammas)
    w_low = eta[:, None] * w
    omega = -0.25 * (w_low.reshape(w.shape[:-2] + (d * d,))
                     @ (up[:, None] @ up).reshape(d * d, N * N))
    return Gam, omega.reshape(w.shape[:-2] + (N, N))


def connection_at(rep, x):
    """The oracle's spinor connection matrices omega_mu at x."""
    g, dg = _metric_jet(rep.metric, x)
    return connection_from(rep, g, dg, *frame_jet(g, dg))[1]


def rotating_chart(omega=0.3):
    """Flat space in coordinates rotating about z at rate omega: curved
    and non-diagonal components, g_00 = -1 + omega^2 (X^2 + Y^2),
    g_0X = -omega Y, g_0Y = omega X.  The chart ends where g_00 nears 0:
    the jet raises OutsideChart unless omega^2 (X^2 + Y^2) < 0.9 (a NaN
    fails)."""
    def jet(x):
        X, Y = x[1], x[2]
        if not omega**2 * (X**2 + Y**2) < 0.9:
            raise OutsideChart(f"point {np.asarray(x)} outside chart of "
                               f"rotating_minkowski")
        g = np.diag([-1.0 + omega**2 * (X * X + Y * Y), 1.0, 1.0, 1.0])
        g[0, 1] = g[1, 0] = -omega * Y
        g[0, 2] = g[2, 0] = omega * X
        dg = np.zeros((4, 4, 4))
        dg[1, 0, 0] = 2.0 * omega**2 * X
        dg[2, 0, 0] = 2.0 * omega**2 * Y
        dg[1, 0, 2] = dg[1, 2, 0] = omega
        dg[2, 0, 1] = dg[2, 1, 0] = -omega
        return g, dg

    return ds.MetricField(
        dim=4, jet=jet, name="rotating_minkowski",
        sample_box=np.array([[-1.0, 1.0]] * 4))


def linear_chart(L):
    """Flat space in coordinates y = L x: a constant metric, non-diagonal
    for a generic L."""
    Linv = np.linalg.inv(L)
    eta = np.diag([-1.0] + [1.0] * (len(L) - 1))
    return _constant_metric(Linv.T @ eta @ Linv, "minkowski_linear")


def with_kernel(m, kernel):
    """A copy of the metric m whose float phase kernel is ``kernel``, such
    as a wrapper that counts the calls of m's own."""
    out = dataclasses.replace(m)
    out._phase = kernel
    return out


def look_alike_dirac(sysd):
    """Not the Dirac system, though it carries the module: A doubled and
    B = 5 Id."""
    return ds.FirstOrderSystem(
        N=sysd.N, coeff_A=lambda x: [2.0 * a for a in sysd.coeff_A(x)],
        coeff_B=lambda x: 5.0 * np.eye(sysd.N), rep=sysd.rep,
        name="look_alike")


def null_state(m, rep, x, seed):
    """Random future null covector at x plus the first kernel vector."""
    rng = np.random.default_rng(seed)
    xi = ds.random_null_covector(m, x, rng)
    vecs, dim = kernel_basis(rep.stage(x, xi).sigma1)
    assert dim >= 1
    return PolarizationState(ds.PhasePoint(np.asarray(x, float), xi), vecs[0])


def denker_generator(pkg):
    """M = (1/2) bracket + i sigma_tilde sigma^s of a symbol package: the
    symbol-level generator at one phase point, from the package's public
    matrices."""
    return 0.5 * pkg.bracket + 1j * (pkg.sigma_tilde @ pkg.p_sub)


def identity_map(m):
    """The identity chart map of m."""
    eye = np.eye(m.dim)
    return ChartMap(
        name="identity", metric_a=m, metric_b=m,
        forward=lambda x: np.array(x, dtype=float),
        jacobian=lambda x: np.broadcast_to(eye, np.shape(x)[:-1] + eye.shape),
    )
