"""End-to-end command line checks, run in process through cli.main."""
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import diracsym as ds
from diracsym import cli
from diracsym.errors import OutsideChart

SCHW_X0 = [0.0, 10.0, 1.2, 0.3]


def write_cfg(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def run(capsys, argv):
    rc = cli.main(argv)
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


# --------------------------------------------------------------------------
# certify


def test_certify_minkowski_clean(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", {
        "metric": "minkowski4",
        "sample": {"points": 6},
        "tolerances": {"axioms": 1e-12},
    })
    rc, out, _ = run(capsys, ["certify", "--config", cfg, "--no-meta"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    cert = payload["axioms_certificate"]
    assert cert["gram_index"] == [2, 2]
    for name, ax in cert["axioms"].items():
        assert ax["max_residual"] < 1e-12, name
    assert payload["principal_type"]["ker_dims"] == [2]


@pytest.mark.parametrize("sample", [{"points": 0}, {"points": -3},
                                    {"vectors": 0}])
def test_certify_empty_sample_is_config_error(tmp_path, capsys, sample):
    cfg = write_cfg(tmp_path, "c.json", {"metric": "minkowski4",
                                         "sample": sample})
    rc, out, err = run(capsys, ["certify", "--config", cfg, "--no-meta"])
    assert rc == 2 and out == ""
    assert "ConfigError" in err and "Traceback" not in err


@pytest.mark.parametrize("metric", [
    "schwarzschild1e300", "schwarzschild1e-300",
    "schwarzschild_isotropic1e300", "schwarzschild_isotropic1e-300"])
def test_certify_extreme_mass_is_config_error(tmp_path, capsys, metric):
    cfg = write_cfg(tmp_path, "c.json", {"metric": metric,
                                         "sample": {"points": 2}})
    rc, out, err = run(capsys, ["certify", "--config", cfg, "--no-meta"])
    assert rc == 2 and out == ""
    assert "ConfigError" in err and "mass" in err


def test_certify_summary_matches_one_point_calls(tmp_path, capsys,
                                                 monkeypatch):
    """certify draws its points in the same order as before and certifies
    them in one stacked call, here in blocks of 3; its summary equals that
    of one-point certificates on the same draws."""
    monkeypatch.setattr(ds.symbols, "_BLOCK_POINTS", 3)
    cfg = write_cfg(tmp_path, "c.json", {
        "metric": "schwarzschild1.0",
        "sample": {"points": 7, "vectors": 2, "seed": 3}})
    rc, out, _ = run(capsys, ["certify", "--config", cfg, "--no-meta"])
    summary = json.loads(out)["principal_type"]
    m = ds.catalog_metric("schwarzschild1.0")
    rep = ds.build_canonical_module(m)
    sysd = ds.dirac_system(rep)
    rng = np.random.default_rng(3)
    certs = []
    for _ in range(7):
        x = ds.random_chart_point(m, rng)
        p = ds.PhasePoint(x, ds.random_null_covector(m, x, rng))
        certs.append(ds.certify_principal_type(rep, p, sys=sysd, seed=3))
    assert rc == 0 and summary["points"] == 7
    assert summary["all_pass"] is all(c.passed for c in certs) is True
    assert summary["ker_dims"] == sorted({c.ker_dim for c in certs})
    assert summary["max_condition_number"] == pytest.approx(
        max(c.ker_coker_condition_number for c in certs), rel=1e-12)


def test_certify_spacelike_reference_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", {
        "metric": "minkowski4",
        "timelike_field": [0.0, 1.0, 0.0, 0.0],
    })
    rc, _, err = run(capsys, ["certify", "--config", cfg])
    assert rc == 2
    assert "NotTimelike" in err


def test_certify_past_directed_reference_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", {
        "metric": "minkowski4",
        "timelike_field": [-1.0, 0.0, 0.0, 0.0],
    })
    rc, _, err = run(capsys, ["certify", "--config", cfg])
    assert rc == 2
    assert "NotFutureDirected" in err


# --------------------------------------------------------------------------
# trace


def test_trace_minkowski_straight_line(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "t.json", {
        "metric": "minkowski4",
        "chart_seed_point": [0.0, 0.0, 0.0, 0.0],
        "initial_covector": [1.0, 1.0, 0.0, 0.0],
        "integrator": {"kind": "rk4_fixed", "step": 1e-3},
        "t_end": 1.0,
    })
    rc, out, _ = run(capsys, ["trace", "--config", cfg, "--no-meta"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert len(lines) == 1002
    last = json.loads(lines[-2])
    assert np.allclose(last["x"], [-2.0, 2.0, 0.0, 0.0], atol=1e-12)
    assert abs(last["q"]) < 1e-14
    assert last["kernel_residual"] < 1e-12
    summary = json.loads(lines[-1])["summary"]
    assert summary["pass"] is True
    assert summary["samples"] == 1001
    assert summary["q_drift"] < 1e-14


def test_trace_infalling_ray_leaves_chart(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "t.json", {
        "metric": "schwarzschild1.0",
        "chart_seed_point": SCHW_X0,
        "initial_covector": [1.0, -1.25, 0.0, 0.0],
        "integrator": {"kind": "rk4_fixed", "step": 1e-2},
        "t_end": 50.0,
    })
    rc, out, _ = run(capsys, ["trace", "--config", cfg, "--no-meta"])
    assert rc == 1
    summary = json.loads(out.strip().split("\n")[-1])["summary"]
    assert summary["left_chart"] is True
    assert summary["failed"][-1] == "left_chart"


def test_trace_csv_table(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "t.json", {
        "metric": "minkowski4",
        "initial_covector": [1.0, 0.6, 0.8, 0.0],
        "integrator": {"step": 1e-2},
        "t_end": 1.0,
    })
    rc, out, _ = run(capsys, ["trace", "--config", cfg, "--format", "csv"])
    assert rc == 0
    table, summary = out.split("\n\n")
    lines = table.split("\n")
    assert len(lines) == 1 + 101
    head = lines[0].split(",")
    assert head[0] == "t" and head[-1] == "kernel_residual"
    assert "w0_re" in head and "xi3" in head
    rows = summary.strip().split("\n")
    assert "pass,True" in rows and "samples,101" in rows
    assert [r.split(",")[0] for r in rows] == sorted(
        r.split(",")[0] for r in rows)


def test_failing_csv_trace_states_its_summary(tmp_path, capsys):
    """The near-horizon ray at h = 0.05 fails the kernel gate; the CSV
    trace says so after its sample table."""
    cfg = schw_compare_cfg(tmp_path, chart_seed_point=[0.0, 2.2, 1.2, 0.3],
                           integrator={"kind": "rk4_fixed", "step": 0.05})
    rc, out, _ = run(capsys, ["trace", "--config", cfg, "--format", "csv",
                              "--no-meta"])
    assert rc == 1
    table, summary = out.split("\n\n")
    assert len(table.split("\n")) == 1 + 21
    rows = dict(csv.reader(summary.strip().split("\n")))
    assert rows["pass"] == "False"
    assert json.loads(rows["failed"]) == ["kernel"]
    assert rows["left_chart"] == "False"
    assert float(rows["q_drift"]) < 1e-6
    assert float(rows["max_kernel_residual"]) > 1e-8


# --------------------------------------------------------------------------
# compare


def schw_compare_cfg(tmp_path, name="cmp.json", **over):
    cfg = {
        "metric": "schwarzschild1.0",
        "chart_seed_point": SCHW_X0,
        "initial_covector": "random_null(7)",
        "initial_polarization": "kernel_basis(0)",
        "integrator": {"kind": "rk4_fixed", "step": 1e-3},
        "t_end": 1.0,
    }
    cfg.update(over)
    return write_cfg(tmp_path, name, cfg)


def test_compare_schwarzschild_passes(tmp_path, capsys):
    cfg = schw_compare_cfg(tmp_path)
    rc, out, _ = run(capsys, ["compare", "--config", cfg, "--no-meta"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["max_gap"] < 1e-6
    assert payload["max_kernel_residual"] < 1e-6
    assert payload["q_drift"] < 1e-6
    assert payload["flip_subprincipal"] is False
    assert payload["fixture"] == "schwarzschild1"
    assert "failed" not in payload


def test_compare_flipped_sign_fails(tmp_path, capsys):
    cfg = schw_compare_cfg(tmp_path)
    rc, out, _ = run(capsys, ["compare", "--config", cfg, "--no-meta",
                              "--flip-subprincipal-sign"])
    assert rc == 1
    payload = json.loads(out)
    assert payload["pass"] is False
    assert payload["failed"] == ["max_gap"]
    assert payload["max_gap"] > 1e-3
    assert payload["flip_subprincipal"] is True


# From r = 2.2 the ray's q drift and kernel residual fall about 16x per step
# halving: 9.8e-6 and 9.9e-6 at h = 0.1, 6.5e-7 at h = 0.05, 1.1e-9 at
# h = 0.01, against the default q_drift 1e-6 and kernel 1e-8; the two
# transports agree to 4e-7 at every step, so the gap alone passes them all.
@pytest.mark.parametrize("command", ["compare", "trace"])
@pytest.mark.parametrize("step, failed", [
    (0.1, ["q_drift", "kernel"]), (0.05, ["kernel"]), (0.01, None)])
def test_ray_passes_only_when_every_gate_holds(tmp_path, capsys, command,
                                               step, failed):
    cfg = schw_compare_cfg(tmp_path, chart_seed_point=[0.0, 2.2, 1.2, 0.3],
                           integrator={"kind": "rk4_fixed", "step": step})
    rc, out, _ = run(capsys, [command, "--config", cfg, "--no-meta"])
    report = json.loads(out.strip().split("\n")[-1])["summary"] \
        if command == "trace" else json.loads(out)
    assert rc == (1 if failed else 0)
    assert report["pass"] is (failed is None)
    assert report.get("failed") == failed
    assert report["left_chart"] is False
    if command == "compare":
        assert report["max_gap"] < 1e-6
        rc, out, _ = run(capsys, [command, "--config", cfg, "--no-meta",
                                  "--flip-subprincipal-sign"])
        assert rc == 1
        assert json.loads(out)["failed"] == ["max_gap"] + (failed or [])


def test_compare_deterministic_bytes(tmp_path, capsys):
    cfg = schw_compare_cfg(tmp_path, t_end=0.5,
                           integrator={"kind": "rk4_fixed", "step": 1e-2})
    _, out1, _ = run(capsys, ["compare", "--config", cfg, "--no-meta"])
    _, out2, _ = run(capsys, ["compare", "--config", cfg, "--no-meta"])
    assert out1 == out2
    f1, f2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    run(capsys, ["compare", "--config", cfg, "--no-meta", "--out", f1])
    run(capsys, ["compare", "--config", cfg, "--no-meta", "--out", f2])
    b1 = open(f1, "rb").read()
    b2 = open(f2, "rb").read()
    assert b1 == b2 and len(b1) > 100


def test_compare_out_file_keeps_stdout_quiet(tmp_path, capsys):
    cfg = schw_compare_cfg(tmp_path, t_end=0.5,
                           integrator={"kind": "rk4_fixed", "step": 1e-2})
    dest = str(tmp_path / "r.json")
    rc, out, _ = run(capsys, ["compare", "--config", cfg, "--no-meta",
                              "--out", dest])
    assert rc == 0 and out == ""
    assert json.loads(open(dest).read())["pass"] is True


def test_compare_csv_format(tmp_path, capsys):
    cfg = schw_compare_cfg(tmp_path, t_end=0.5,
                           integrator={"kind": "rk4_fixed", "step": 1e-2})
    rc, out, _ = run(capsys, ["compare", "--config", cfg, "--format", "csv"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "key,value"
    keys = {ln.split(",", 1)[0] for ln in lines[1:]}
    assert {"max_gap", "q_drift", "pass", "fixture"} <= keys


# --------------------------------------------------------------------------
# symbols


def test_symbols_payload(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "s.json", {
        "metric": "schwarzschild1.0",
        "chart_seed_point": SCHW_X0,
        "initial_covector": "random_null(3)",
    })
    rc, out, _ = run(capsys, ["symbols", "--config", cfg, "--no-meta"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["factorization_residual"] < 1e-10
    assert abs(payload["q"]) < 1e-10
    for key in ("sigma_m", "sigma_tilde", "p_sub", "bracket"):
        mat = payload[key]
        assert np.asarray(mat["re"]).shape == (4, 4)
        assert np.asarray(mat["im"]).shape == (4, 4)
    assert len(payload["d_sigma_m_dx"]) == 4
    assert len(payload["d_sigma_m_dxi"]) == 4


def test_symbols_seed_override_changes_covector(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "s.json", {
        "metric": "schwarzschild1.0",
        "chart_seed_point": SCHW_X0,
        "initial_covector": "random_null(3)",
    })
    _, out1, _ = run(capsys, ["symbols", "--config", cfg, "--no-meta",
                              "--seed", "1"])
    _, out2, _ = run(capsys, ["symbols", "--config", cfg, "--no-meta",
                              "--seed", "2"])
    xi1 = json.loads(out1)["xi"]
    xi2 = json.loads(out2)["xi"]
    assert not np.allclose(xi1, xi2)


# --------------------------------------------------------------------------
# config errors (exit 2)


@pytest.mark.parametrize("cfg,needle", [
    ({"metric": "minkowski4", "frobnicate": 1}, "unknown config keys"),
    ({"metric": "kerr0.5"}, "ConfigError"),
    ({}, "requires a 'metric'"),
    ({"metric": "minkowski4", "t_end": 0.0}, "t_end"),
    ({"metric": "minkowski4", "integrator": {"kind": "euler"}}, "integrator"),
    ({"metric": "minkowski4", "outputs": {"format": "xml"}}, "format"),
    ({"metric": "schwarzschild1.0",
      "chart_seed_point": [0.0, 1.5, 1.2, 0.3]}, "domain guard"),
    ({"metric": "minkowski4", "initial_covector": [0.0, 0.0, 0.0, 0.0]},
     "ZeroCovector"),
    # catalog ids outside the catalog: mass not finite and positive, or a
    # Minkowski dimension without a gamma set
    ({"metric": "schwarzschild_isotropic0"}, "mass"),
    ({"metric": "schwarzschild_isotropic-1"}, "mass"),
    ({"metric": "schwarzschild1e400"}, "mass"),
    ({"metric": "minkowski3"}, "dimensions 2 and 4"),
    ({"metric": "minkowski4", "sample": {"spinors": 10}},
     "unknown keys under 'sample'"),
    # masses whose squared chart radii over- or underflow
    ({"metric": "schwarzschild1e300"}, "mass"),
    ({"metric": "schwarzschild1e-300"}, "mass"),
    ({"metric": "schwarzschild_isotropic1e300"}, "mass"),
    ({"metric": "schwarzschild_isotropic1e-300"}, "mass"),
    # samples too large to certify in bounded time and memory
    ({"metric": "minkowski4", "sample": {"points": 1e300}}, "sample.points"),
    ({"metric": "minkowski4", "sample": {"points": 2, "vectors": 1e300}},
     "sample.vectors"),
])
def test_bad_configs_exit_2(tmp_path, capsys, cfg, needle):
    path = write_cfg(tmp_path, "bad.json", cfg)
    rc, _, err = run(capsys, ["trace", "--config", path])
    assert rc == 2
    assert needle in err


# seeds past the chart, one per chart test: r below r_min, theta = 0, rho
# below rho_min, and Omega = t = 0
_PAST_CHART = {
    "r_below_r_min": ("schwarzschild1.0", [0.0, 1.5, 1.2, 0.3]),
    "theta_zero": ("schwarzschild1.0", [0.0, 10.0, 0.0, 0.3]),
    "rho_below_rho_min": ("schwarzschild_isotropic1.0",
                          [0.0, 0.4, 1.2, 0.3]),
    "omega_zero": ("conformal_flat{t}", [0.0, 0.1, 0.2, 0.3]),
}


@pytest.mark.parametrize("command", ["compare", "trace", "certify",
                                     "symbols"])
@pytest.mark.parametrize("seed", sorted(_PAST_CHART))
def test_seed_past_the_chart_exits_2(tmp_path, capsys, seed, command):
    """Every chart test refuses a seed with the same message, in the CLI
    and in the library."""
    metric, x0 = _PAST_CHART[seed]
    path = write_cfg(tmp_path, "bad.json", {"metric": metric,
                                            "chart_seed_point": x0})
    rc, out, err = run(capsys, [command, "--config", path, "--no-meta"])
    assert (rc, out) == (2, "")
    assert err == ("error: ConfigError: chart_seed_point violates the "
                   "domain guard\n")
    p0 = ds.PhasePoint(x0, [1.0, 1.0, 0.0, 0.0])
    with pytest.raises(OutsideChart) as e:
        ds.integrate_bicharacteristic(ds.catalog_metric(metric), p0, 1.0)
    assert str(e.value) == "initial point violates the domain guard"


# Omega = 1 + 0.1 sqrt(x): its chart is the half x >= 0 of its box, and
# dOmega is infinite at the default seed x = 0
_SQRT = "conformal_flat{1 + 0.1*sqrt(x)}"


@pytest.mark.parametrize("command", ["certify", "trace", "compare",
                                     "symbols"])
def test_jet_that_is_not_finite_stays_one_line(tmp_path, command):
    """numpy's floating-point warnings stay off stderr.  The default seed
    x = 0, where dOmega is infinite, lies past the chart: the commands that
    start from it refuse it with the one-line domain-guard error, and
    certify, which starts from no seed, passes on the points it draws."""
    path = write_cfg(tmp_path, "sqrt.json", {
        "metric": _SQRT, "t_end": 0.2, "sample": {"points": 3,
                                                  "vectors": 3}})
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "diracsym.cli", command, "--config", path,
         "--no-meta"], capture_output=True, text=True, env=env, timeout=120)
    if command == "certify":
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)["pass"] is True
    else:
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == ("error: ConfigError: chart_seed_point "
                               "violates the domain guard\n")


def test_symbols_fails_where_the_metric_jet_overflows(tmp_path, capsys):
    """Omega = 1e150 + 1e160 x at x = 0: Omega, Omega^2 and dOmega are
    finite, so the seed lies in the chart, but dg = 2 Omega dOmega eta
    overflows; symbols dumps the non-finite matrices and fails, with a
    factorization residual of 0 and nothing on stderr."""
    path = write_cfg(tmp_path, "big.json", {
        "metric": "conformal_flat{1e150 + 1e160*x}",
        "initial_covector": [1.0, 1.0, 0.0, 0.0]})
    rc, out, err = run(capsys, ["symbols", "--config", path, "--no-meta"])
    assert (rc, err) == (1, "")
    payload = json.loads(out)
    assert payload["pass"] is False
    assert payload["factorization_residual"] == 0.0
    assert "Infinity" in out or "NaN" in out


def test_certify_redraws_points_past_the_chart(tmp_path, capsys):
    """Half the sqrt metric's sample box lies past its chart: certify
    redraws those points and passes at its default 20 x 10 sample."""
    path = write_cfg(tmp_path, "sqrt.json", {"metric": _SQRT})
    rc, out, err = run(capsys, ["certify", "--config", path, "--no-meta"])
    assert (rc, err) == (0, "")
    assert json.loads(out)["pass"] is True


def test_sample_box_past_the_chart_exits_2(tmp_path, capsys):
    """Omega = 1 + sqrt(-x^2) is finite at x = 0 alone: the seed passes,
    but no draw from the box lands in the chart."""
    metric = "conformal_flat{1 + sqrt(-x*x)}"
    path = write_cfg(tmp_path, "bad.json", {"metric": metric})
    rc, out, err = run(capsys, ["certify", "--config", path, "--no-meta"])
    assert (rc, out) == (2, "")
    assert err == (f"error: ConfigError: metric {metric}: 16 draws from "
                   f"its sample box all lie outside its chart\n")


@pytest.mark.parametrize("metric", [
    "conformal_flat{1+}", "conformal_flat{().__class__.__name__ and 1}",
    "conformal_flat{1" + "0" * 400 + "}"])
def test_conformal_expression_errors_exit_2(tmp_path, capsys, metric):
    path = write_cfg(tmp_path, "bad.json", {"metric": metric})
    rc, _, err = run(capsys, ["compare", "--config", path])
    assert rc == 2
    assert "ConfigError" in err and "Traceback" not in err


def test_missing_config_file(tmp_path, capsys):
    rc, _, err = run(capsys, ["trace", "--config",
                              str(tmp_path / "nope.json")])
    assert rc == 2
    assert "cannot read config" in err


def test_malformed_json(tmp_path, capsys):
    path = tmp_path / "mangled.json"
    path.write_text("{not json")
    rc, _, err = run(capsys, ["certify", "--config", str(path)])
    assert rc == 2


def test_off_cone_covector_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "t.json", {
        "metric": "minkowski4",
        "initial_covector": [1.0, 0.5, 0.0, 0.0],
        "t_end": 1.0,
    })
    for cmd in ("trace", "compare"):
        rc, _, err = run(capsys, [cmd, "--config", cfg])
        assert rc == 2, cmd
        assert "NotOnCharacteristicSet" in err, cmd


@pytest.mark.parametrize("cmd", ["trace", "compare"])
@pytest.mark.parametrize("over,needle", [
    ({"integrator": {"step": 0}}, "step"),
    ({"integrator": {"step": -0.1}}, "step"),
    ({"integrator": {"step": float("inf")}}, "step"),
    ({"integrator": {"step": "abc"}}, "integrator.step"),
    ({"t_end": float("nan")}, "t_end"),
    ({"t_end": "long"}, "t_end"),
    ({"tolerances": {"max_gap": "tight"}}, "tolerances.max_gap"),
    ({"sample": {"seed": [1]}}, "sample.seed"),
    ({"sample": {"seed": 1.7}}, "sample.seed"),
    ({"sample": {"points": 2.9}}, "sample.points"),
    ({"sample": {"seed": True}}, "sample.seed"),
    ({"t_end": True}, "t_end"),
    ({"initial_polarization": [1, 0]}, "initial polarization"),
    ({"initial_covector": ["a", 1, 0, 0]}, "initial_covector[0]"),
    ({"initial_covector": [1.0, 1.0, 0.0]}, "initial_covector"),
    ({"chart_seed_point": [0, "ten", 1.2, 0.4]}, "chart_seed_point[1]"),
    ({"initial_polarization": [0, "one", 1, 0]}, "initial_polarization[1]"),
    ({"initial_polarization": [[0, 0], [1, "i"], [1, 0], [0, 0]]},
     "initial_polarization[1][1]"),
    ({"timelike_field": [1.0, 0.0]}, "timelike_field"),
    ({"timelike_field": "up"}, "timelike_field"),
    ({"initial_covector": "random_null(abc)"}, "random_null seed"),
    ({"initial_covector": "random_null(-1)"}, "random_null seed"),
    ({"initial_polarization": "kernel_basis(x)"}, "kernel_basis index"),
    ({"initial_polarization": "kernel_basis(-1)"}, "kernel_basis index"),
    ({"initial_polarization": "kernel_basis(0.5)"}, "kernel_basis index"),
    ({"sample": {"seed": -1}}, "sample.seed"),
    ({"tolerances": {"max_gap": float("nan")}}, "tolerances.max_gap"),
    ({"tolerances": {"axioms": float("inf")}}, "tolerances.axioms"),
    ({"tolerances": {"null": -1e-10}}, "tolerances.null"),
    ({"tolerances": {"kernel": 0}}, "tolerances.kernel"),
    ({"tolerances": {"rank": 1.0}}, "tolerances.rank"),
])
def test_bad_numbers_exit_2(tmp_path, capsys, cmd, over, needle):
    path = write_cfg(tmp_path, "bad.json", mink_cmp_cfg(**over))
    rc, out, err = run(capsys, [cmd, "--config", path])
    assert rc == 2 and out == ""
    assert "ConfigError" in err and needle in err
    assert "Traceback" not in err


@pytest.mark.parametrize("cmd", ["trace", "compare"])
@pytest.mark.parametrize("tol", [0, float("nan"), float("inf")])
def test_bad_adaptive_tolerance_exits_2(tmp_path, cmd, tol):
    # unchecked, each of these made the step controller loop forever, so
    # the run is a subprocess with a timeout
    path = write_cfg(tmp_path, "bad.json", mink_cmp_cfg(
        integrator={"kind": "rk45_adaptive", "tol": tol}))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "diracsym.cli", cmd, "--config", path],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert "ConfigError" in proc.stderr and "tol" in proc.stderr
    assert "Traceback" not in proc.stderr


# A run with no step would pass every gate on its seed alone: RK4 at
# h = 1e-3 has no step for t_end <= 1e-12, Dormand-Prince none for
# t_end <= 1e-13.
@pytest.mark.parametrize("cmd", ["trace", "compare"])
@pytest.mark.parametrize("integrator,t_end", [
    ({"kind": "rk4_fixed", "step": 1e-3}, 1e-13),
    ({"kind": "rk45_adaptive", "tol": 1e-10}, 1e-14)])
def test_run_without_a_step_exits_2(tmp_path, capsys, cmd, integrator,
                                    t_end):
    cfg = schw_compare_cfg(tmp_path, integrator=integrator, t_end=t_end)
    rc, out, err = run(capsys, [cmd, "--config", cfg, "--no-meta"])
    assert rc == 2 and out == ""
    assert err.startswith("error: ConfigError: t_end ")
    assert len(err.strip().splitlines()) == 1


def test_rk4_grid_cap_boundary(tmp_path, capsys, monkeypatch):
    """With the cap at 10, a 10-step grid runs and an 11-step one (10 full
    steps and a rest) is refused."""
    from diracsym import geometry

    monkeypatch.setattr(geometry, "_MAX_STEPS", 10)
    for t_end, want in ((0.1, 0), (0.105, 2)):
        path = write_cfg(tmp_path, "cap.json", mink_cmp_cfg(t_end=t_end))
        rc, out, err = run(capsys, ["trace", "--config", path, "--no-meta"])
        assert rc == want, t_end
        if want == 0:
            assert json.loads(out.splitlines()[-1])["summary"]["samples"] == 11
        else:
            assert out == "" and "more than 10 steps" in err
            assert len(err.strip().splitlines()) == 1


def test_dopri_attempt_cap_exits_1(tmp_path, capsys, monkeypatch):
    """Dormand-Prince attempts share the RK4 grid's cap: with it at 10, a
    conformal ray that takes 336 steps to t = 8 fails after 10 attempts
    with one stderr line and no report."""
    from diracsym import geometry

    monkeypatch.setattr(geometry, "_MAX_STEPS", 10)
    cfg = write_cfg(tmp_path, "cap.json", {
        "metric": "conformal_flat{1 + 0.05*sin(3*t) + 0.05*cos(2*x)*cos(2*y)}",
        "chart_seed_point": [0.1, 0.2, -0.3, 0.4],
        "integrator": {"kind": "rk45_adaptive", "tol": 1e-12},
        "t_end": 8.0,
    })
    rc, out, err = run(capsys, ["compare", "--config", cfg, "--no-meta"])
    assert rc == 1 and out == ""
    assert err.startswith("failure: StepUnderflow: 10 step attempts ")
    assert len(err.strip().splitlines()) == 1


# each of these grids has some 10^303 steps; the list of them overflowed
@pytest.mark.parametrize("cmd", ["trace", "compare"])
@pytest.mark.parametrize("over", [{"integrator": {"step": 1e-300}},
                                  {"t_end": 1e300}])
def test_rk4_grid_past_the_cap_exits_2(tmp_path, capsys, cmd, over):
    cfg = schw_compare_cfg(tmp_path, **over)
    rc, out, err = run(capsys, [cmd, "--config", cfg, "--no-meta"])
    assert rc == 2 and out == ""
    assert err.startswith("error: ConfigError: rk4_fixed t_end ")
    assert "more than 100000 steps" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("cmd,fmt", [("compare", "json"), ("compare", "csv"),
                                     ("trace", "json")])
@pytest.mark.parametrize("path,out", [
    (5, None), (["a"], None), ("", None), ("missing_dir/x.json", None),
    (None, "missing_dir/x.json"), (None, "")],
    ids=["int", "list", "empty", "path_in_missing_dir", "out_in_missing_dir",
         "empty_out"])
def test_bad_output_path_exits_2(tmp_path, capsys, cmd, fmt, path, out):
    """An outputs.path that is not a non-empty string, or an empty --out,
    is refused as the scenario is read (an empty --out is not stdout); a
    report that cannot be written (here: into a directory that does not
    exist) names its path.  One stderr line each."""
    argv, outputs = [cmd, "--no-meta"], {"format": fmt}
    target = None
    if out == "":
        argv += ["--out", ""]
    elif out is not None:
        target = str(tmp_path / out)
        argv += ["--out", target]
    elif path == "missing_dir/x.json":
        target = outputs["path"] = str(tmp_path / path)
    else:
        outputs["path"] = path
    cfg = write_cfg(tmp_path, "a.json", mink_cmp_cfg(outputs=outputs))
    rc, stdout, err = run(capsys, argv + ["--config", cfg])
    assert rc == 2 and stdout == ""
    assert len(err.strip().splitlines()) == 1
    if out == "":
        assert err == "error: ConfigError: --out must be a non-empty path\n"
    elif target is None:
        assert err.startswith("error: ConfigError: outputs.path must be a "
                              "non-empty string")
    else:
        assert err.startswith(f"error: ConfigError: cannot write {target}: ")
        assert not Path(target).exists()


@pytest.mark.parametrize("via", ["out", "outputs_path"])
@pytest.mark.parametrize("where", ["missing_parent", "file_parent",
                                   "directory"])
def test_unwritable_report_path_is_refused_before_the_run(
        tmp_path, capsys, monkeypatch, via, where):
    """A report path whose parent is not an existing directory, or that is
    a directory itself, is refused as the scenario is read: exit 2 with
    one ``cannot write`` line, and the comparison never runs.  (A path in
    a directory that refuses writes still fails only at the write.)"""
    def never(*args, **kwargs):
        raise AssertionError("compare_transports ran")

    monkeypatch.setattr(cli, "compare_transports", never)
    (tmp_path / "a_file").write_text("")
    (tmp_path / "a_dir").mkdir()
    target = str(tmp_path / {"missing_parent": "missing_dir/x.json",
                             "file_parent": "a_file/x.json",
                             "directory": "a_dir"}[where])
    argv = ["compare", "--no-meta"]
    outputs = {}
    if via == "out":
        argv += ["--out", target]
    else:
        outputs["path"] = target
    cfg = write_cfg(tmp_path, "a.json", mink_cmp_cfg(outputs=outputs))
    rc, stdout, err = run(capsys, argv + ["--config", cfg])
    assert rc == 2 and stdout == ""
    assert err.startswith(f"error: ConfigError: cannot write {target}: ")
    assert len(err.strip().splitlines()) == 1
    assert Path(target).is_dir() == (where == "directory")


def test_certify_reads_each_principal_type_point_once(tmp_path, capsys,
                                                     monkeypatch):
    """A certify scenario of 4 points and 10 vectors on schwarzschild1.0
    reads 45 metric jets: 1 for the seed, whose g also checks the timelike
    field, 1 per axiom point (the draw's jet, whose frame also gives Q),
    and per principal-type point the draw's jet, which also gives the null
    covector, its q-flow values and one value per neighbour."""
    import dataclasses

    calls = []

    def counted(name):
        m = ds.catalog_metric(name)
        return dataclasses.replace(
            m, jet=lambda x: calls.append(1) or m.jet(x))

    monkeypatch.setattr(cli, "catalog_metric", counted)
    cfg = write_cfg(tmp_path, "c.json", {
        "metric": "schwarzschild1.0",
        "sample": {"points": 4, "vectors": 10, "seed": 3}})
    rc, out, _ = run(capsys, ["certify", "--config", cfg, "--no-meta"])
    assert rc == 0 and json.loads(out)["principal_type"]["points"] == 4
    assert len(calls) == 1 + 4 + 4 * (2 + 8)


def test_a_compare_scenario_reads_its_seed_jet_four_times(tmp_path, capsys,
                                                          monkeypatch):
    """A compare scenario on schwarzschild1.0 reads the metric's jet at its
    seed 4 times: the scenario's chart test, whose g also gives the
    timelike field's check and the null covector, the command's seed
    check, sigma_1 for the kernel_basis polarization, and the transport's
    seed check, whose g also frames its kernel check; the flow reads only
    the float kernel."""
    import dataclasses

    seeds = []

    def counted(name):
        m = ds.catalog_metric(name)
        out = dataclasses.replace(
            m, jet=lambda x: seeds.append(np.array_equal(x, SCHW_X0))
            or m.jet(x))
        out._phase = m._phase
        return out

    monkeypatch.setattr(cli, "catalog_metric", counted)
    cfg = write_cfg(tmp_path, "c.json", {
        "metric": "schwarzschild1.0", "chart_seed_point": SCHW_X0,
        "t_end": 0.1, "integrator": {"step": 1e-2}})
    rc, out, _ = run(capsys, ["compare", "--config", cfg, "--no-meta"])
    assert rc == 0 and json.loads(out)["pass"] is True
    assert seeds == [True] * 4


def test_batch_runs_on_past_a_bad_output_path(tmp_path, capsys):
    """Directory mode exits 2 for a report it cannot write and for a
    refused outputs.path, and still runs the scenarios after them."""
    write_cfg(tmp_path, "a.json", mink_cmp_cfg(
        outputs={"path": str(tmp_path / "missing_dir" / "a.json")}))
    write_cfg(tmp_path, "b.json", mink_cmp_cfg(outputs={"path": 5}))
    write_cfg(tmp_path, "c.json", mink_cmp_cfg())
    rc, out, err = run(capsys, ["compare", "--config", str(tmp_path),
                                "--no-meta"])
    assert rc == 2 and out == ""
    a, b = err.splitlines()
    assert a.startswith("error: ConfigError: cannot write ")
    assert b.startswith("error: ConfigError: outputs.path must be")
    assert json.loads((tmp_path / "c.out.json").read_text())["pass"] is True


_NON_FINITE = [
    ("chart_seed_point", [float("nan"), 0.0, 0.0, 0.0]),
    ("chart_seed_point", [0.0, 0.0, float("inf"), 0.0]),
    ("timelike_field", [float("inf"), 0.0, 0.0, 0.0]),
    ("timelike_field", [1.0, float("nan"), 0.0, 0.0]),
    ("initial_covector", [float("nan"), 0.6, 0.8, 0.0]),
    ("initial_covector", [1.0, -float("inf"), 0.8, 0.0]),
    ("initial_polarization", [float("nan"), 0.0, 0.0, 0.0]),
    ("initial_polarization", [float("inf"), 0.0, 0.0, 0.0]),
    ("initial_polarization",
     [[0.0, float("nan")], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]),
]


@pytest.mark.parametrize("cmd,key,value", [
    pytest.param(cmd, key, value, id=f"{cmd}-{key}-{i}")
    for cmd in ("trace", "compare", "symbols")
    for i, (key, value) in enumerate(_NON_FINITE)
    # symbols reads no polarization
    if not (cmd == "symbols" and key == "initial_polarization")])
def test_non_finite_vector_entry_exits_2(tmp_path, capsys, cmd, key, value):
    """JSON's NaN and Infinity literals in a vector key are a config error
    with one line on stderr, not a run or a traceback."""
    path = write_cfg(tmp_path, "bad.json", mink_cmp_cfg(**{key: value}))
    assert "NaN" in Path(path).read_text() or \
        "Infinity" in Path(path).read_text()
    rc, out, err = run(capsys, [cmd, "--config", path, "--no-meta"])
    assert rc == 2 and out == ""
    assert "ConfigError" in err and key in err and "finite" in err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_import_needs_no_scipy():
    """The package depends on numpy alone; a fresh interpreter that imports
    the CLI must not have loaded scipy."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    code = ("import sys, diracsym.cli; print(sorted(m for m in sys.modules"
            " if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_off_kernel_polarization_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "t.json", {
        "metric": "minkowski4",
        "initial_covector": [1.0, 1.0, 0.0, 0.0],
        "initial_polarization": [1.0, 0.0, 0.0, 0.0],
        "integrator": {"step": 1e-2},
        "t_end": 0.5,
    })
    rc, _, err = run(capsys, ["trace", "--config", cfg])
    assert rc == 2
    assert "KernelViolation" in err


def test_kernel_basis_index_out_of_range(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "t.json", {
        "metric": "minkowski4",
        "initial_covector": [1.0, 1.0, 0.0, 0.0],
        "initial_polarization": "kernel_basis(5)",
        "t_end": 0.5,
    })
    rc, _, err = run(capsys, ["trace", "--config", cfg])
    assert rc == 2
    assert "out of range" in err


# --------------------------------------------------------------------------
# batch mode


def mink_cmp_cfg(**over):
    cfg = {
        "metric": "minkowski4",
        "initial_covector": [1.0, 0.6, 0.8, 0.0],
        "integrator": {"step": 1e-2},
        "t_end": 0.5,
    }
    cfg.update(over)
    return cfg


def test_batch_directory_exit_is_worst_case(tmp_path, capsys):
    write_cfg(tmp_path, "a_pass.json", mink_cmp_cfg())
    # flat-space gaps are exactly zero, so the impossible tolerance needs a
    # curved fixture to trip
    write_cfg(tmp_path, "b_fail.json", {
        "metric": "schwarzschild1.0",
        "chart_seed_point": SCHW_X0,
        "initial_covector": "random_null(7)",
        "integrator": {"step": 1e-2},
        "t_end": 0.5,
        "tolerances": {"max_gap": 1e-30},
    })
    rc, _, _ = run(capsys, ["compare", "--config", str(tmp_path),
                            "--no-meta"])
    assert rc == 1
    a = json.loads((tmp_path / "a_pass.out.json").read_text())
    b = json.loads((tmp_path / "b_fail.out.json").read_text())
    assert a["pass"] is True
    assert b["pass"] is False


def test_batch_directory_skips_its_own_outputs(tmp_path, capsys):
    """A second run over the same directory does not read back the
    a.out.json that the first one wrote as a scenario."""
    write_cfg(tmp_path, "a.json", mink_cmp_cfg())
    argv = ["compare", "--config", str(tmp_path), "--no-meta"]
    assert run(capsys, argv)[0] == 0
    first = (tmp_path / "a.out.json").read_text()
    assert run(capsys, argv)[0] == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json",
                                                          "a.out.json"]
    assert (tmp_path / "a.out.json").read_text() == first


def test_batch_rejects_out_flag(tmp_path, capsys):
    write_cfg(tmp_path, "a.json", mink_cmp_cfg())
    rc, _, err = run(capsys, ["compare", "--config", str(tmp_path),
                              "--out", "x.json"])
    assert rc == 2
    assert "incompatible" in err


def test_batch_empty_directory(tmp_path, capsys):
    rc, _, err = run(capsys, ["certify", "--config", str(tmp_path)])
    assert rc == 2
    assert "no *.json scenarios" in err


# --------------------------------------------------------------------------
# one process, many calls; trace rows


def test_repeated_calls_match_fresh_processes(tmp_path, capsys, monkeypatch):
    """main keeps nothing between calls: a usage error, a compare with
    --seed and --format, a certify and a plain compare, run one after the
    other in this process, each give the rc, stdout and stderr of the same
    call in a fresh interpreter."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to it
    cmp_ = schw_compare_cfg(tmp_path, initial_covector="random_null(0)",
                            integrator={"step": 1e-2}, t_end=0.05)
    cert = write_cfg(tmp_path, "cert.json", {
        "metric": "minkowski4", "sample": {"points": 2, "vectors": 2}})
    calls = [
        ["compare", "--config", cmp_, "--no-meta", "--seed", "3",
         "--format", "xml"],
        ["compare", "--config", cmp_, "--no-meta", "--seed", "3",
         "--format", "csv"],
        ["certify", "--config", cert, "--no-meta"],
        ["compare", "--config", cmp_, "--no-meta"],
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    procs = [subprocess.Popen([sys.executable, "-m", "diracsym.cli", *argv],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, env=env) for argv in calls]
    fresh = [(p.wait(timeout=120), *p.communicate()) for p in procs]
    assert [rc for rc, _, _ in fresh] == [2, 0, 0, 0]
    assert "invalid choice" in fresh[0][2]
    assert fresh[1][1] != fresh[3][1]
    for argv, want in zip(calls, fresh):
        try:
            rc = cli.main(argv)
        except SystemExit as e:
            rc = e.code
        cap = capsys.readouterr()
        assert (rc, cap.out, cap.err) == want, argv


def _per_element_trace(ts, xs, xis, qs, W, res):
    """The trace rows as dicts of floats, one element at a time: the rows
    a trace once emitted, kept as the reference for the column read."""
    return [{"t": float(ts[i]), "x": [float(v) for v in xs[i]],
             "xi": [float(v) for v in xis[i]], "q": float(qs[i]),
             "w_re": [float(v) for v in W[i].real],
             "w_im": [float(v) for v in W[i].imag],
             "kernel_residual": float(res[i])} for i in range(len(ts))]


def test_trace_rows_match_per_element_output(tmp_path):
    """JSON rows equal json.dumps(row, sort_keys=True) and CSV rows the
    per-element rows, NaN, +-inf, -0.0 and subnormals included."""
    from types import SimpleNamespace

    rng = np.random.default_rng(4)
    n = 7
    ts, qs, res = rng.normal(size=n), rng.normal(size=n), rng.random(n)
    xs, xis = rng.normal(size=(n, 4)), rng.normal(size=(n, 4))
    W = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
    special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 2.5e-310]
    ts[:6] = qs[1:] = res[1:] = special
    xs[1:, 2] = xis[:6, 0] = special
    W.real[1:, 1] = W.imag[:6, 3] = special
    traj = SimpleNamespace(ts=ts, xs=xs, xis=xis, qs=qs, n=n)
    orbit = SimpleNamespace(sections=list(W), kernel_residuals=res)
    summary = {"command": "trace", "samples": n, "q_drift": float("nan")}
    rows = _per_element_trace(ts, xs, xis, qs, W, res)

    path = tmp_path / "t.jsonl"
    cli._emit_trace(traj, orbit, summary, str(path), "json", True)
    lines = path.read_text().splitlines()
    assert lines[:-1] == [json.dumps(r, sort_keys=True) for r in rows]
    assert lines[-1] == json.dumps({"summary": summary}, sort_keys=True)
    assert "NaN" in lines[0] and "-Infinity" in lines[2]

    path = tmp_path / "t.csv"
    cli._emit_trace(traj, orbit, summary, str(path), "csv", True)
    head, table = path.read_text().split("\n\n")[0].split("\n", 1)
    assert head.startswith("t,x0,") and head.endswith(",kernel_residual")
    want = io.StringIO()
    csv.writer(want, lineterminator="\n").writerows(
        [r["t"], *r["x"], *r["xi"], r["q"], *r["w_re"], *r["w_im"],
         r["kernel_residual"]] for r in rows)
    assert table + "\n" == want.getvalue()
    assert path.read_text().endswith(
        "\n\ncommand,trace\nq_drift,nan\nsamples,7\n")
