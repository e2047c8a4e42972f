"""Mutation sweep: does Tier-1 notice a deliberately broken library?

Each mutant is one text edit of one file under ``src/diracsym``.  For each,
the repository is copied to a temporary directory, the edit is applied
there, and the Tier-1 suite runs on the copy (stopping at its first
failure) with a per-mutant timeout.  A failing suite kills the mutant; a
passing one lets it survive; a run cut off by the timeout is reported on
its own line.  The working tree is never touched.

    python tools/mutants.py                 # every mutant
    python tools/mutants.py NAME [NAME ...]  # only the named ones

Not part of Tier-1: a sweep runs the suite once per mutant, some ten
minutes in all, each cut off after ``TIMEOUT`` seconds.  Exit code 0 when
no mutant survives, 1 otherwise, 2 when a name is unknown (the valid names
are listed) or a mutant's text no longer matches its file exactly once.
"""
from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
# Tier-1 without tests/test_tools.py, which checks that each mutant's old
# text is present and so fails under every mutant by construction
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--ignore=tests/test_tools.py"]
TIMEOUT = 600   # seconds per mutant

# (name, file, old text, new text); the old text must occur exactly once
MUTANTS = [
    ("c8_largest_eigenvalue", "src/diracsym/clifford.py",
     "c8_min = float(np.min(np.linalg.eigvalsh(",
     "c8_min = float(np.max(np.linalg.eigvalsh("),
    ("ker_const_always_true", "src/diracsym/symbols.py",
     "ker_const = [bool(np.all(n == k)) for n, k in zip(nbh, ker_dim)]",
     "ker_const = [True] * len(points)"),
    ("neighbour_symbols_at_centre", "src/diracsym/symbols.py",
     "s2 = _symbols(rep, sys, nx[real], nxi[real], g2[real])",
     "s2 = _symbols(rep, sys, xs[owner], xis[owner], g2[real])"),
    ("last_block_dropped", "src/diracsym/symbols.py",
     "for start in range(0, len(points), _BLOCK_POINTS):",
     "for start in range(0, len(points) - _BLOCK_POINTS, _BLOCK_POINTS):"),
    ("c3_point_zero_only", "src/diracsym/clifford.py",
     'r["C3"] = _maxabs(dgam + om_v @ GY0[:, :, None]\n'
     "                      - GY0[:, :, None] @ om_v - Gnab)",
     'r["C3"] = _maxabs((dgam + om_v @ GY0[:, :, None]\n'
     "                      - GY0[:, :, None] @ om_v - Gnab)[0])"),
    ("c7p_skipped", "src/diracsym/clifford.py",
     'r["C7p"] = _maxabs(QY @ GZo + GZo @ QY)',
     'r["C7p"] = 0.0'),
    ("c6_zeroed", "src/diracsym/clifford.py",
     'r["C6"] = _maxabs(G @ QN - herm(QN) @ G)',
     'r["C6"] = 0.0'),
    ("c7_2_zeroed", "src/diracsym/clifford.py",
     'r["C7.2"] = _maxabs(QN @ GN - GN @ QN)',
     'r["C7.2"] = 0.0'),
    ("q_on_coordinate_components", "src/diracsym/clifford.py",
     "Q = rep.q_of((Einv[:, None] @ dirs[..., None])[..., 0])",
     "Q = rep.q_of(dirs)"),
    ("neighbourhood_first_only", "src/diracsym/symbols.py",
     "ranks = _rank(np.linalg.svd(s2, compute_uv=False), rank_tol)",
     "ranks = _rank(np.linalg.svd(s2[:1], compute_uv=False), rank_tol)"),
    ("kernel_residual_start_symbol", "src/diracsym/transport.py",
     "r = np.linalg.norm(s1 @ V[:, 0, :, None], axis=(1, 2))",
     "r = np.linalg.norm(s1[:1] @ V[:, 0, :, None], axis=(1, 2))"),
    ("enorm_scaled_1e-3", "src/diracsym/geometry.py",
     "enorm = math.sqrt(",
     "enorm = 1e-3 * math.sqrt("),
    ("stepper_stage_terms_swapped", "src/diracsym/geometry.py",
     "[_bin(hc, ast.Mult, k[i]) for hc, k in hs]",
     "[_bin(hc, ast.Mult, k[i])\n"
     "             for hc, k in hs[:1] + hs[2:0:-1] + hs[3:]]"),
    ("stepper_stage_reads_previous_rate", "src/diracsym/geometry.py",
     "comps = point(row)",
     "comps = point(row[1:] + (0.0,) if s == 3 else row)"),
    ("error_sum_of_8_left_to_right", "src/diracsym/geometry.py",
     "if n < 8:\n        return _chain(terms)",
     "if n < 9:\n        return _chain(terms)"),
    ("generator_norm_integral_truncated", "src/diracsym/transport.py",
     "np.sum(0.5 * hs * (norms[:-1] + norms[1:]))",
     "np.sum(0.5 * hs[:10] * (norms[:10] + norms[1:11]))"),
    ("qs_zero", "src/diracsym/geometry.py",
     'qs = 0.5 * np.einsum("ij,ij->i", xis, dxs)',
     'qs = 0.0 * np.einsum("ij,ij->i", xis, dxs)'),
    ("product_drift_self", "src/diracsym/transport.py",
     "np.max(np.abs(prods - prods[0]))",
     "np.max(np.abs(prods - prods))"),
    ("compare_accepts_any_module", "src/diracsym/transport.py",
     "if not _dirac_backed(rep, sys):",
     "if sys.rep is None:"),
    ("conformal_jet_factor_1.9", "src/diracsym/geometry.py",
     "np.multiply.outer(2.0 * w * np.array(dw), eta)",
     "np.multiply.outer(1.9 * w * np.array(dw), eta)"),
    ("conformal_jet_skips_chart_check", "src/diracsym/geometry.py",
     "if not _omega_ok(w, dw):",
     "if not _omega_ok(1.0, dw):"),
    ("neighbour_keeps_draw_past_chart", "src/diracsym/symbols.py",
     "g = _chart_value(m, x2)\n            if g is not None:",
     "g = _chart_value(m, x2)\n            if True:"),
    ("radial_jet_skips_theta_check", "src/diracsym/geometry.py",
     "if not _radial_ok(r, s, r_min):",
     "if not _radial_ok(r, 1.0, r_min):"),
    ("power_helper_uses_ufunc", "src/diracsym/geometry.py",
     "return float(np.float64(a) ** np.float64(b))",
     "return float(np.power(a, b))"),
    ("division_helper_raises", "src/diracsym/geometry.py",
     "return a / b if b else float(np.float64(a) / b)",
     "return a / b"),
    ("product_rule_term_dropped", "src/diracsym/geometry.py",
     'ast.Mult: ("b", "a")',
     'ast.Mult: ("b", "0.0")'),
    ("quotient_rule_db_sign", "src/diracsym/geometry.py",
     'ast.Div: ("1.0 / b", "-v / b")',
     'ast.Div: ("1.0 / b", "v / b")'),
    ("cos_chain_factor_sign", "src/diracsym/geometry.py",
     '"cos": (np.cos, "-sin(a)")',
     '"cos": (np.cos, "sin(a)")'),
    ("schwarzschild_jet_dg133_scaled", "src/diracsym/geometry.py",
     "2.0 * r, 2.0 * r * s * s)",
     "2.0 * r, 2.02 * r * s * s)"),
    ("dirac_backed_by_rep_alone", "src/diracsym/symbols.py",
     'getattr(sys, "_dirac_of", None) is rep',
     "sys.rep is rep"),
    ("recursion_propagator_form", "src/diracsym/transport.py",
     "V = V + D @ V",
     "V = (np.eye(D.shape[-1]) + D) @ V"),
    ("recursion_carry_frozen", "src/diracsym/transport.py",
     "self.last = L[-1:].copy()",
     "self.last = L[-1:].copy() if first else self.last"),
    ("generator_product_order", "src/diracsym/clifford.py",
     'out -= self.rep.contract(c, "gamma") @ self.p_sub',
     'out -= self.p_sub @ self.rep.contract(c, "gamma")'),
    ("generator_kappa_dropped", "src/diracsym/clifford.py",
     "out[..., i, i] -= self.kappa[..., None]",
     "out[..., i, i] -= 0.0 * self.kappa[..., None]"),
    ("compare_without_q_drift_gate", "src/diracsym/cli.py",
     '_verdict(payload, sc, ("max_gap", "q_drift", "kernel"))',
     '_verdict(payload, sc, ("max_gap", "kernel"))'),
    ("subprincipal_closed_form_by_rep_alone", "src/diracsym/symbols.py",
     "if _dirac_backed(sys.rep, sys):",
     "if sys.rep is not None:"),
    ("conormal_x_part_sign", "src/diracsym/symbols.py",
     "rho = np.concatenate((-dxi, dx), axis=-1)",
     "rho = np.concatenate((dxi, dx), axis=-1)"),
    ("engine_x_whole_diagonal", "src/diracsym/geometry.py",
     "X[..., i, i] *= 0.5",
     "X[..., i, i] *= 1.0"),
    ("engine_omega_facb_sign", "src/diracsym/geometry.py",
     "omega -= F.swapaxes(-3, -2)",
     "omega += F.swapaxes(-3, -2)"),
    ("spin_connection_coordinates_untransposed", "src/diracsym/clifford.py",
     "rep.contract(Einv.swapaxes(-1, -2) @ _rows(omega)",
     "rep.contract(Einv @ _rows(omega)"),
    ("engine_kappa_plain_trace", "src/diracsym/clifford.py",
     "np.sum(Zf * (F[..., i, i] @ eta), axis=-1)",
     "np.sum(Zf * F[..., i, i].sum(-1), axis=-1)"),
    ("clifford_tables_keyed_by_dimension", "src/diracsym/clifford.py",
     "_clifford_tables(gam.shape, gam.tobytes())",
     "_clifford_tables(gam.shape, _clifford_tables.__dict__.setdefault(\n"
     "                gam.shape, gam.tobytes()))"),
    ("default_q_of_minus_n", "src/diracsym/clifford.py",
     "(self.q_eval or self.gamma_of_frame)(c)",
     "(self.q_eval or (lambda c: self.gamma_of_frame(-c)))(c)"),
    ("trace_row_w_parts_swapped", "src/diracsym/cli.py",
     '"w_re": w_re, "w_im": w_im,',
     '"w_re": w_im, "w_im": w_re,'),
    ("parser_keeps_last_options", "src/diracsym/cli.py",
     "args = _parser().parse_args(argv)\n",
     "args = _parser().parse_args(argv)\n"
     "    _parser()._actions[-1].choices[args.command].set_defaults(\n"
     "        **vars(args))\n"),
    ("rk4_empty_grid_accepted", "src/diracsym/geometry.py",
     'if not (grid if integrator == "rk4_fixed" else t_end > h_min):',
     'if not (True if integrator == "rk4_fixed" else t_end > h_min):'),
    ("rk4_grid_cap_dropped", "src/diracsym/geometry.py",
     "if len(hs) > _MAX_STEPS:",
     "if False:"),
    ("output_path_type_unchecked", "src/diracsym/cli.py",
     'if "path" in out and not (isinstance(self.out_path, str)',
     'if False and not (isinstance(self.out_path, str)'),
    ("dopri_budget_ignores_max_steps", "src/diracsym/geometry.py",
     "max_attempts = min(int(_ATTEMPTS_PER_T * max(1.0, t_end)),\n"
     "                               _MAX_STEPS)",
     "max_attempts = int(_ATTEMPTS_PER_T * max(1.0, t_end))"),
    ("empty_out_accepted", "src/diracsym/cli.py",
     "if not args.out:\n                raise ConfigError(",
     "if False:\n                raise ConfigError("),
    ("gamma_of_frame_reads_raw_gammas", "src/diracsym/clifford.py",
     'return self.contract(np.asarray(comps, dtype=float)\n'
     '                             * np.diagonal(self.eta), "gamma")',
     "return np.tensordot(comps, self.gammas, axes=(-1, 0))"),
    ("symbols_pass_ignores_nonfinite", "src/diracsym/cli.py",
     "finite and pkg.factorization_residual",
     "pkg.factorization_residual"),
    ("chart_point_not_redrawn", "src/diracsym/geometry.py",
     "except OutsideChart:\n            pass",
     "except ValueError:\n            pass"),
    ("radial_values_drop_dtheta_g33", "src/diracsym/geometry.py",
     "2.0 * r * r * s * c)",
     "0.0 * r * r * s * c)"),
    ("radial_phase_drops_dtheta_g33", "src/diracsym/geometry.py",
     "0.0 + e * z3 * z3, 0.0]",
     "0.0, 0.0]"),
    ("conformal_phase_skips_chart_check", "src/diracsym/geometry.py",
     "w, dw = read(x)\n",
     "w, dw = values(x)\n"),
    ("radial_record_loses_last_z", "src/diracsym/geometry.py",
     "0.0, 0.0, 0.0, 0.0,\n                 z0, z1, z2, z3))",
     "0.0, 0.0, 0.0, 0.0,\n                 z0, z1, z2, 0.0))"),
    ("diagonality_reads_first_row", "src/diracsym/geometry.py",
     "return np.count_nonzero(g) == np.count_nonzero(g.diagonal(0, -2, -1))",
     "return np.count_nonzero(g[..., 0, :]) == "
     "np.count_nonzero(g[..., 0, 0])"),
    ("kernel_kept_by_replace", "src/diracsym/geometry.py",
     "field(default=None, init=False, repr=False,",
     "field(default=None, repr=False,"),
]

_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                 "*.egg-info", ".bench_out", ".bench_build")


def _check(mutant) -> str:
    """Empty if the mutant applies, else why not."""
    name, rel, old, _ = mutant
    n = (REPO / rel).read_text().count(old)
    return "" if n == 1 else f"{name}: old text found {n} times in {rel}"


def run(mutant):
    """('killed' | 'survived' | 'timed out', seconds, last output line)."""
    name, rel, old, new = mutant
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        root = Path(tmp) / "repo"
        shutil.copytree(REPO, root, ignore=_IGNORE)
        path = root / rel
        path.write_text(path.read_text().replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(root / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        t0 = time.perf_counter()
        proc = subprocess.Popen(TIER1, cwd=root, env=env, text=True,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return "timed out", time.perf_counter() - t0, ""
        lines = out.strip().splitlines()
        verdict = "survived" if proc.returncode == 0 else "killed"
        return verdict, time.perf_counter() - t0, lines[-1] if lines else ""


def main(names=None) -> int:
    """Run the named mutants, in the order named, or all of them."""
    by_name = {m[0]: m for m in MUTANTS}
    unknown = [n for n in names or () if n not in by_name]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}\nvalid names: "
              f"{', '.join(by_name)}", file=sys.stderr)
        return 2
    chosen = [by_name[n] for n in dict.fromkeys(names)] if names \
        else MUTANTS
    stale = [msg for msg in map(_check, chosen) if msg]
    if stale:
        print("\n".join(stale), file=sys.stderr)
        return 2
    results = {"killed": [], "survived": [], "timed out": []}
    for m in chosen:
        verdict, secs, last = run(m)
        results[verdict].append(m[0])
        print(f"{m[0]}: {verdict} in {secs:.0f} s  {last}", flush=True)
    for verdict, names in results.items():
        print(f"{verdict} ({len(names)}): {', '.join(names) or '-'}")
    return 1 if results["survived"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
