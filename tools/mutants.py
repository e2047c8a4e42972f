"""Mutation sweep: does Tier-1 notice a deliberately broken library?

Each mutant is one text edit of one file under ``src/diracsym``.  For each,
the repository is copied to a temporary directory, the edit is applied
there, and the Tier-1 suite runs on the copy (stopping at its first
failure) with a per-mutant timeout.  A failing suite kills the mutant; a
passing one lets it survive; a run cut off by the timeout is reported on
its own line.  The working tree is never touched.

    python tools/mutants.py

Not part of Tier-1: a sweep runs the suite once per mutant, a few minutes
in all, each cut off after ``TIMEOUT`` seconds.  Exit code 0 when no
mutant survives, 1 otherwise, 2 when a mutant's text no longer matches its
file exactly once.
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
    ("neighbourhood_first_only", "src/diracsym/symbols.py",
     "ranks = _rank(np.linalg.svd(s2, compute_uv=False), rank_tol)",
     "ranks = _rank(np.linalg.svd(s2[:1], compute_uv=False), rank_tol)"),
    ("kernel_residual_start_symbol", "src/diracsym/transport.py",
     "r = np.linalg.norm(s1 @ V[:, 0, :, None], axis=(1, 2))",
     "r = np.linalg.norm(s1[:1] @ V[:, 0, :, None], axis=(1, 2))"),
    ("enorm_scaled_1e-3", "src/diracsym/geometry.py",
     "enorm = math.sqrt(",
     "enorm = 1e-3 * math.sqrt("),
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
     "(two * w * dw / _CS_STEP)",
     "(0.95 * two * w * dw / _CS_STEP)"),
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
    ("generator_product_order", "src/diracsym/symbols.py",
     'out -= self.eng.contract(c, "gamma") @ self.p_sub',
     'out -= self.p_sub @ self.eng.contract(c, "gamma")'),
    ("generator_kappa_dropped", "src/diracsym/symbols.py",
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
    ("engine_x_whole_diagonal", "src/diracsym/symbols.py",
     "X[..., i, i] *= 0.5",
     "X[..., i, i] *= 1.0"),
    ("engine_omega_facb_sign", "src/diracsym/symbols.py",
     "omega -= F.swapaxes(-3, -2)",
     "omega += F.swapaxes(-3, -2)"),
    ("engine_kappa_plain_trace", "src/diracsym/symbols.py",
     "np.sum(Zf * (F[..., i, i] @ eta), axis=-1)",
     "np.sum(Zf * F[..., i, i].sum(-1), axis=-1)"),
    ("clifford_tables_keyed_by_dimension", "src/diracsym/clifford.py",
     "key = (up.shape, up.tobytes())",
     "key = len(up)"),
    ("trace_row_w_parts_swapped", "src/diracsym/cli.py",
     '"w_re": w_re, "w_im": w_im,',
     '"w_re": w_im, "w_im": w_re,'),
    ("parser_keeps_last_options", "src/diracsym/cli.py",
     "args = _parser().parse_args(argv)\n",
     "args = _parser().parse_args(argv)\n"
     "    _parser()._actions[-1].choices[args.command].set_defaults(\n"
     "        **vars(args))\n"),
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


def main() -> int:
    stale = [msg for msg in map(_check, MUTANTS) if msg]
    if stale:
        print("\n".join(stale), file=sys.stderr)
        return 2
    results = {"killed": [], "survived": [], "timed out": []}
    for m in MUTANTS:
        verdict, secs, last = run(m)
        results[verdict].append(m[0])
        print(f"{m[0]}: {verdict} in {secs:.0f} s  {last}", flush=True)
    for verdict, names in results.items():
        print(f"{verdict} ({len(names)}): {', '.join(names) or '-'}")
    return 1 if results["survived"] else 0


if __name__ == "__main__":
    sys.exit(main())
