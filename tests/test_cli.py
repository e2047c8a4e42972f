"""End-to-end command line checks, run in process through cli.main."""
import json

import numpy as np
import pytest

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
    rc, _, err = run(capsys, ["trace", "--config", cfg])
    assert rc == 2
    assert "NotOnCharacteristicSet" in err


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


def test_batch_parallel_jobs(tmp_path, capsys):
    for i in range(3):
        write_cfg(tmp_path, f"s{i}.json", mink_cmp_cfg())
    rc, _, _ = run(capsys, ["compare", "--config", str(tmp_path),
                            "--no-meta", "--jobs", "3"])
    assert rc == 0
    for i in range(3):
        assert (tmp_path / f"s{i}.out.json").exists()


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
