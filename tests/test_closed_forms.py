"""Transport against closed forms, not only one law against the other.

On g = Omega^2 eta, with the frame e_a = Omega^-1 d_a, a kernel spinor
(Gamma(xi#) w0 = 0) on a null ray is transported as

    w(t) = (Omega(x(t)) / Omega(x0))^(-1/2) w0,

by the conformal covariance of the Dirac operator (Hitchin, "Harmonic
spinors", Adv. Math. 14, 1974).  The closed form does not depend on how the
metric jet is differentiated: Omega along the ray is read from the metric's
values (Omega = sqrt(g_11)), never from its partials.  An error common to
both laws, which their gap cannot see, misses it.  Each check has two
controls: the flipped subprincipal sign misses the closed form by more
than 1e-2, and Omega varies by more than 5% along the ray.

On a radial ray of Schwarzschild the t-r block is conformally flat with
Omega = sqrt(f), f = 1 - 2M/r, and the section is (f(r(t)) / f(r0))^(-1/4)
w0, with f read off the ray's r, the same controls, and wrong exponents
as a third.
"""
import functools

import numpy as np
import pytest

import diracsym as ds
from diracsym.symbols import kernel_basis, principal_symbol
from diracsym.transport import PolarizationState, compare_transports

_CONFORMAL = "conformal_flat{1 + 0.05*sin(3*t) + 0.05*cos(2*x)*cos(2*y)}"
_DIM2 = "1 + 0.2*sin(x1) + 0.1*cos(2*x0)"


@functools.cache
def _fixture(name):
    """(metric, module, Dirac system) of a conformal test metric."""
    m = ds.catalog_metric(_CONFORMAL) if name == "dim4" \
        else ds.conformal_flat(_DIM2, dim=2)
    rep = ds.build_canonical_module(m)
    return m, rep, ds.dirac_system(rep)


def _closed_form_errors(name, x0, xi0, t_end, step, flip=False):
    """(error of each law, max/min of Omega along the ray): the largest
    |w(t) - (Omega(x(t)) / Omega(x0))^(-1/2) w0| / |w0| over the samples,
    from w0 = K0 + (0.3 - 0.7i) K1 on a kernel of rank 2, K0 on rank 1."""
    m, rep, sysd = _fixture(name)
    p = ds.PhasePoint(x0, xi0)
    K, rank = kernel_basis(principal_symbol(sysd, p))
    w0 = K[0] + (0.3 - 0.7j) * K[1] if rank == 2 else K[0]
    rpt = compare_transports(rep, sysd, PolarizationState(p, w0), t_end,
                             step=step, flip_subprincipal=flip)
    assert rpt.trajectory.n > 1 and not rpt.left_chart
    omega = np.sqrt([m.jet(x)[0][1, 1] for x in rpt.trajectory.xs])
    want = (omega / omega[0])[:, None] ** -0.5 * w0
    errs = [float(np.max(np.linalg.norm(np.asarray(o.sections) - want,
                                        axis=1))) / np.linalg.norm(w0)
            for o in (rpt.orbit_denker, rpt.orbit_spin)]
    return errs, omega.max() / omega.min()


@pytest.mark.parametrize("seed", range(5))
def test_conformal_transport_matches_closed_form(seed):
    """The ray-conformal metric from x0 uniform in [-1, 1]^4, t_end 2,
    RK4 h = 5e-3.  Measured: at most 1.7e-11 for both laws over seeds 0-4;
    the flipped sign misses by 0.25 to 0.44, and Omega varies by 10-18%."""
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-1.0, 1.0, 4)
    xi0 = ds.random_null_covector(_fixture("dim4")[0], x0, rng)
    errs, spread = _closed_form_errors("dim4", x0, xi0, 2.0, 5e-3)
    assert max(errs) < 1e-10, errs
    assert spread > 1.05
    flipped, _ = _closed_form_errors("dim4", x0, xi0, 2.0, 5e-3, flip=True)
    assert flipped[0] > 1e-2


@pytest.mark.parametrize("direction", [1.0, -1.0])
def test_conformal_transport_closed_form_dim2(direction):
    """Both null directions from (0, 0.3) on Omega = 1 + 0.2 sin x1 +
    0.1 cos 2x0, t_end 3.  Measured: 4.4e-9, 2.7e-10 and 1.7e-11 at
    h = 1e-2, 5e-3 and 2.5e-3, falling 16x per halving as RK4 should; the
    bound is 2e-8 (h / 1e-2)^4.  The flipped sign misses by 0.81 and Omega
    varies by 70%."""
    x0, xi0 = np.array([0.0, 0.3]), np.array([-1.0, direction])
    for step in (1e-2, 5e-3, 2.5e-3):
        errs, spread = _closed_form_errors("dim2", x0, xi0, 3.0, step)
        assert max(errs) < 2e-8 * (step / 1e-2) ** 4, (step, errs)
        assert spread > 1.05
    flipped, _ = _closed_form_errors("dim2", x0, xi0, 3.0, 1e-2, flip=True)
    assert flipped[0] > 1e-2


def _radial_errors(direction, step, flip=False, exponent=-0.25):
    """(error of each law, max/min of f along the ray) on the radial ray
    of schwarzschild1.0 from r0 = 6 on the equator, xi0 = (-f(r0), +-1, 0,
    0), to t = 1.5: the largest |w(t) - (f(r(t)) / f(r0))^exponent w0| /
    |w0| over the samples, with f = 1 - 2M/r read off r along the ray and
    w0 = K0 + (0.3 - 0.7i) K1."""
    m = ds.schwarzschild(1.0)
    rep = ds.build_canonical_module(m)
    sysd = ds.dirac_system(rep)
    p = ds.PhasePoint(np.array([0.0, 6.0, np.pi / 2, 0.0]),
                      np.array([-(1.0 - 2.0 / 6.0), direction, 0.0, 0.0]))
    K, rank = kernel_basis(principal_symbol(sysd, p))
    assert rank == 2
    w0 = K[0] + (0.3 - 0.7j) * K[1]
    rpt = compare_transports(rep, sysd, PolarizationState(p, w0), 1.5,
                             step=step, flip_subprincipal=flip)
    assert rpt.trajectory.n > 1 and not rpt.left_chart
    f = 1.0 - 2.0 / rpt.trajectory.xs[:, 1]
    want = (f / f[0])[:, None] ** exponent * w0
    errs = [float(np.max(np.linalg.norm(np.asarray(o.sections) - want,
                                        axis=1))) / np.linalg.norm(w0)
            for o in (rpt.orbit_denker, rpt.orbit_spin)]
    return errs, f.max() / f.min()


@pytest.mark.parametrize("direction", [1.0, -1.0])
def test_radial_schwarzschild_transport_matches_closed_form(direction):
    """The t-r block of Schwarzschild is conformally flat with Omega =
    sqrt(f), so on a radial ray w(t) = (f(r(t)) / f(r0))^(-1/4) w0.
    Measured outward (r 6 -> 8) and inward (r 6 -> 4): 3.9e-13 and 8.6e-12
    at h = 1e-2, 2.5e-14 and 5.3e-13 at h = 5e-3; the bound is
    3e-11 (h / 1e-2)^4.  The flipped sign misses by 0.76 and 0.60, the
    exponents -1/2, +1/4 and +1/2 by 0.028 to 0.21, and f varies by 12%
    and 33%."""
    for step in (1e-2, 5e-3):
        errs, spread = _radial_errors(direction, step)
        assert max(errs) < 3e-11 * (step / 1e-2) ** 4, (step, errs)
        assert spread > 1.05
    flipped, _ = _radial_errors(direction, 1e-2, flip=True)
    assert flipped[0] > 1e-2
    for exponent in (-0.5, 0.25, 0.5):
        errs, _ = _radial_errors(direction, 1e-2, exponent=exponent)
        assert min(errs) > 1e-2, exponent
