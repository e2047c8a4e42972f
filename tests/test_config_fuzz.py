"""Property test over generated ``certify`` scenario configs, in process.

Catalog ids (extreme and malformed masses, bad dimensions, hostile
conformal factors), ``sample`` values and tolerances are drawn from small
hostile sets.  Whatever the config, the command must exit 0, 1 or 2 with at
most a one-line message, never raise, and never report a pass without
principal-type points.  Sample sizes are a few points and vectors, or far
past the CLI's sample bounds, which reject them before any work; so no
example allocates much or runs long.  The examples are derandomized, so
every run of the suite checks the same configs.
"""
import json
import math

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from diracsym import cli

METRIC_IDS = [
    "minkowski4", "minkowski2", "minkowski3", "minkowski0", "minkowski",
    "minkowski99999999999999999999",
    "schwarzschild1.0", "schwarzschild_isotropic1.0",
    "schwarzschild1e300", "schwarzschild1e-300",
    "schwarzschild_isotropic1e300", "schwarzschild_isotropic1e-300",
    "schwarzschild1e150", "schwarzschild1e-150", "schwarzschild1e151",
    "schwarzschild1e-320", "schwarzschild1e400", "schwarzschild0",
    "schwarzschild-1", "schwarzschild.", "schwarzschild--1",
    "schwarzschildnan", "schwarzschild_isotropic", "schwarzschild_isotropic0",
    "conformal_flat{1 + 0.05*sin(3*t)}", "conformal_flat{0}",
    "conformal_flat{1/0}", "conformal_flat{exp(800*x)}",
    "conformal_flat{1 - x}", "conformal_flat{sqrt(x)}",
    "conformal_flat{__import__('os')}", "conformal_flat{}", "kerr0.5", "",
]
SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-300, -1.0]
# a sample that passes the bounds has at most 3 points and 3 vectors
SIZES = st.one_of(st.integers(-2, 3),
                  st.sampled_from([1.0, 2.5, -0.5, 10**7, 1e300]),
                  st.sampled_from(SPECIAL), st.booleans(), st.none(),
                  st.sampled_from(["", "2", "x", "1e9", [1], {}]))
SEEDS = st.one_of(st.integers(-3, 2**70), st.sampled_from(SPECIAL + [1e300]),
                  st.booleans(), st.sampled_from(["7", "seed", [0]]))
TOLERANCES = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                       st.sampled_from(SPECIAL + [1e300, 1e-8, 0.5, 1.0,
                                                  2.0]),
                       st.booleans(), st.none(),
                       st.sampled_from(["1e-6", "tight", [1e-6]]))
TOL_KEYS = sorted(cli._TOL_KEYS) + ["bogus"]


@st.composite
def certify_configs(draw):
    cfg = {"metric": draw(st.sampled_from(METRIC_IDS))}
    sample = draw(st.fixed_dictionaries({}, optional={
        "points": SIZES, "vectors": SIZES, "seed": SEEDS,
        "spinors": st.just(1)}))
    if sample or draw(st.booleans()):
        cfg["sample"] = sample
    tols = draw(st.dictionaries(st.sampled_from(TOL_KEYS), TOLERANCES,
                                max_size=3))
    if tols:
        cfg["tolerances"] = tols
    return cfg


# hostile numbers overflow or divide by zero on purpose
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=50, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=certify_configs())
@example(cfg={"metric": "conformal_flat{1/0}"})
@example(cfg={"metric": "schwarzschild_isotropic1e-300",
              "sample": {"points": 2}})
@example(cfg={"metric": "schwarzschild_isotropic1e300",
              "sample": {"points": 2}})
@example(cfg={"metric": "schwarzschild1e-300", "sample": {"points": 2}})
@example(cfg={"metric": "schwarzschild1e300", "sample": {"points": 2}})
def test_certify_configs_exit_cleanly(tmp_path, capsys, cfg):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(cfg))
    rc = cli.main(["certify", "--config", str(path), "--no-meta"])
    cap = capsys.readouterr()
    assert rc in (0, 1, 2), cfg
    assert "Traceback" not in cap.err and cap.err.count("\n") <= 1, cfg
    if rc == 2:
        assert cap.out == "", cfg
    if cap.out:
        payload = json.loads(cap.out)
        assert payload["pass"] is (rc == 0), cfg
        if payload["pass"]:
            assert payload["principal_type"]["points"] > 0, cfg
            assert payload["axioms_certificate"]["sample"]["vectors"] > 0
