"""A Clifford module built from its gammas alone: spinors (x) C^2.

The gammas gamma_a (x) I_2 with gram gamma_0 (x) I_2 make an 8-dimensional
module; N, eta and Q = Gamma are derived from the gamma set, so the public
constructor is the whole build.  The module passes every axiom, is of real
principal type with a 4-dimensional kernel, and the two transports agree
on its rays to roundoff, while the flipped subprincipal sign misses.
"""
import functools

import numpy as np
import pytest

import diracsym as ds
from diracsym.symbols import kernel_basis
from diracsym.transport import PolarizationState, compare_transports

_CONFORMAL = "conformal_flat{1 + 0.05*sin(3*t) + 0.05*cos(2*x)*cos(2*y)}"
# ray family -> (catalog metric, start point of a seed's ray, integrator
# keywords)
_RAYS = {
    "schwarzschild": (
        "schwarzschild1.0",
        lambda rng: np.array([0.0, 10.0 + rng.uniform(-0.5, 0.5),
                              rng.uniform(1.0, np.pi - 1.0),
                              rng.uniform(0.0, 2.0 * np.pi)]),
        {"integrator": "rk4_fixed", "step": 1e-3}),
    "conformal": (_CONFORMAL, lambda rng: rng.uniform(-1.0, 1.0, size=4),
                  {"integrator": "rk45_adaptive", "tol": 1e-12}),
}


@functools.cache
def _twisted(fixture):
    """The spinor (x) C^2 module of a catalog metric."""
    gammas, _, G = ds.gamma_matrices(4)
    I2 = np.eye(2)
    return ds.CliffordModuleRep([np.kron(g, I2) for g in gammas],
                                np.kron(G, I2), ds.catalog_metric(fixture))


def test_tensor_module_derives_its_shape_and_certifies():
    rep = _twisted("schwarzschild1.0")
    assert rep.N == 8 and rep.q_eval is None
    assert np.array_equal(rep.eta, np.diag([-1.0, 1.0, 1.0, 1.0]))
    # residuals up to 7e-13 (C1 and C7' at r ~ 50), as for spinors alone
    rpt = ds.certify_axioms(rep, ds.SampleSpec(points=5, vectors=5, seed=0),
                            tolerance=1e-10)
    assert rpt.passed and rpt.gram_index == (4, 4)
    assert rpt.axioms["C8"].extra["min_eigenvalue"] == 1.0


def test_tensor_module_is_of_real_principal_type():
    rep = _twisted("schwarzschild1.0")
    rng = np.random.default_rng(4)
    points = []
    for _ in range(5):
        x = ds.random_chart_point(rep.metric, rng)
        points.append(ds.PhasePoint(
            x, ds.random_null_covector(rep.metric, x, rng)))
    certs = list(ds.certify_principal_types(rep, points))
    assert len(certs) == 5
    assert all(c.passed and c.ker_dim == 4 for c in certs)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("rays", sorted(_RAYS))
def test_tensor_module_transports_agree(rays, seed):
    """A generic polarization in the 4-dimensional kernel, t_end 1: the
    laws agree within 1e-12, and the flipped sign misses by over 1e-2."""
    fixture, start, flow = _RAYS[rays]
    rep = _twisted(fixture)
    rng = np.random.default_rng(seed)
    x0 = start(rng)
    xi0 = ds.random_null_covector(rep.metric, x0, rng)
    K, rank = kernel_basis(rep.stage(x0, xi0).sigma1)
    assert rank == 4
    w0 = (rng.normal(size=4) + 1j * rng.normal(size=4)) @ K
    state = PolarizationState(ds.PhasePoint(x0, xi0), w0)
    sysd = ds.dirac_system(rep)
    rpt = compare_transports(rep, sysd, state, 1.0, **flow)
    assert rpt.trajectory.n > 1 and not rpt.left_chart
    assert rpt.max_gap < 1e-12
    assert rpt.max_kernel_residual < 1e-12
    flipped = compare_transports(rep, sysd, state, 1.0, **flow,
                                 flip_subprincipal=True)
    assert flipped.max_gap > 1e-2
