import numpy as np
import pytest

import diracsym as ds
from diracsym.errors import OutsideChart
from diracsym.symbols import _StageEngine, dirac_system, kernel_basis
from diracsym.transport import PolarizationState


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


def rotating_chart(omega=0.3):
    """Flat space in coordinates rotating about z at rate omega: curved
    and non-diagonal components, g_00 = -1 + omega^2 (X^2 + Y^2),
    g_0X = -omega Y, g_0Y = omega X."""
    def ev(x):
        X, Y = x[1], x[2]
        g = np.diag([-1.0 + omega**2 * (X * X + Y * Y), 1.0, 1.0, 1.0])
        g[0, 1] = g[1, 0] = -omega * Y
        g[0, 2] = g[2, 0] = omega * X
        return g

    def dev(x):
        dg = np.zeros((4, 4, 4))
        dg[1, 0, 0] = 2.0 * omega**2 * x[1]
        dg[2, 0, 0] = 2.0 * omega**2 * x[2]
        dg[1, 0, 2] = dg[1, 2, 0] = omega
        dg[2, 0, 1] = dg[2, 1, 0] = -omega
        return dg

    return ds.MetricField(
        dim=4, eval=ev, jet=lambda x: (ev(x), dev(x)),
        name="rotating_minkowski",
        domain_guard=lambda x: omega**2 * (x[1]**2 + x[2]**2) < 0.9,
        sample_box=np.array([[-1.0, 1.0]] * 4))


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
    eng = _StageEngine(rep)
    vecs, dim = kernel_basis(eng(x, xi).sigma1)
    assert dim >= 1
    return PolarizationState(ds.PhasePoint(np.asarray(x, float), xi), vecs[0])
