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


@pytest.mark.parametrize("metric", [
    "conformal_flat{1+}", "conformal_flat{().__class__.__name__ and 1}"])
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
