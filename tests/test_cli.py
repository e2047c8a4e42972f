"""End-to-end command line checks, run in process through cli.main."""
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


def test_trace_csv_table(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "t.json", {
        "metric": "minkowski4",
        "initial_covector": [1.0, 0.6, 0.8, 0.0],
        "integrator": {"step": 1e-2},
        "t_end": 1.0,
    })
    rc, out, _ = run(capsys, ["trace", "--config", cfg, "--format", "csv"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert len(lines) == 102
    head = lines[0].split(",")
    assert head[0] == "t" and head[-1] == "kernel_residual"
    assert "w0_re" in head and "xi3" in head


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


def test_compare_flipped_sign_fails(tmp_path, capsys):
    cfg = schw_compare_cfg(tmp_path)
    rc, out, _ = run(capsys, ["compare", "--config", cfg, "--no-meta",
                              "--flip-subprincipal-sign"])
    assert rc == 1
    payload = json.loads(out)
    assert payload["pass"] is False
    assert payload["max_gap"] > 1e-3
    assert payload["flip_subprincipal"] is True


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
