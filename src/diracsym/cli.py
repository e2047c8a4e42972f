"""Scenario-driven command line: certify | trace | compare | symbols.

Configuration is one JSON file (or a directory of them, run in name order);
the schema is strict, unknown keys are configuration errors.  Exit codes:
0 all checks passed, 1 a certified property failed, 2 usage or config error.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .clifford import SampleSpec, build_canonical_module, certify_axioms
from .errors import DiracsymError, ConfigError, KernelViolation, \
    NotFutureDirected, NotOnCharacteristicSet, NotTimelike, ZeroCovector
from .geometry import (
    PhasePoint,
    _chart_draw,
    _chart_value,
    _check_seed,
    _checked_inverse,
    _frame_from,
    _future_null,
    catalog_metric,
)
from .symbols import (
    certify_principal_types,
    dirac_system,
    kernel_basis,
    principal_symbol,
    resolve_timelike_field,
    symbol_package,
)
from .transport import PolarizationState, compare_transports, transport_denker

_TOP_KEYS = {"metric", "chart_seed_point", "timelike_field",
             "initial_covector", "initial_polarization", "integrator",
             "t_end", "outputs", "tolerances", "sample"}
_INTEGRATOR_KEYS = {"kind", "step", "tol"}
_OUTPUT_KEYS = {"format", "path"}
_TOL_KEYS = {"axioms", "max_gap", "q_drift", "kernel", "factorization",
             "null", "rank"}
_SAMPLE_KEYS = {"points", "vectors", "seed"}

# Sample bounds: an axiom block holds all vectors of a point at once, and
# certification time grows with points x vectors.
_MAX_VECTORS = 10_000
_MAX_SAMPLE = 10 ** 6

_SEED_PAST_CHART = "chart_seed_point violates the domain guard"

_DEFAULT_TOLS = {"axioms": 1e-6, "max_gap": 1e-6, "q_drift": 1e-6,
                 "kernel": 1e-8, "factorization": 1e-10, "null": 1e-10,
                 "rank": 1e-8}


def _number(value, name: str, kind=float):
    """``kind(value)``, or a ConfigError naming the key; an ``int`` key
    takes only integral values, and no key a bool, NaN or Infinity."""
    try:
        if isinstance(value, bool) or not math.isfinite(float(value)) or (
                kind is int and float(value) != int(value)):
            raise ValueError
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        kind_name = "an integer" if kind is int else "a finite number"
        raise ConfigError(f"{name} must be {kind_name}, got {value!r}") \
            from None


def _index(value, name: str) -> int:
    """A non-negative integer (a seed or a basis index), or a ConfigError
    naming the key."""
    k = _number(value, name, int)
    if k < 0:
        raise ConfigError(f"{name} must be non-negative, got {value!r}")
    return k


def _tolerance(value, key: str) -> float:
    """A finite positive tolerance, below 1 for ``rank`` (a singular-value
    ratio), or a ConfigError naming the key."""
    t = _number(value, f"tolerances.{key}")
    if not 0.0 < t < (1.0 if key == "rank" else math.inf):
        raise ConfigError(f"tolerances.{key} must be positive and "
                          f"{'below 1' if key == 'rank' else 'finite'}, "
                          f"got {value!r}")
    return t


def _vector(value, name: str, length=None) -> np.ndarray:
    """A list of numbers (of ``length`` entries, when given) as a float
    array, or a ConfigError naming the key."""
    if not isinstance(value, (list, tuple)) or (
            length is not None and len(value) != length):
        size = "" if length is None else f"{length} "
        raise ConfigError(f"{name} must be a list of {size}numbers, "
                          f"got {value!r}")
    return np.array([_number(v, f"{name}[{i}]") for i, v in enumerate(value)])


def _call_arg(spec: str, func: str):
    """The argument text of ``func(...)``, or None for another spec."""
    if spec.startswith(func + "(") and spec.endswith(")"):
        return spec[len(func) + 1:-1]
    return None


class _Scenario:
    """Validated configuration, resolved lazily into live objects."""

    def __init__(self, cfg: dict, seed_override=None):
        if not isinstance(cfg, dict):
            raise ConfigError("config root must be an object")
        unknown = set(cfg) - _TOP_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "metric" not in cfg:
            raise ConfigError("config requires a 'metric' catalog id")
        self.metric = catalog_metric(str(cfg["metric"]))

        for key, allowed in (("integrator", _INTEGRATOR_KEYS),
                             ("outputs", _OUTPUT_KEYS),
                             ("tolerances", _TOL_KEYS),
                             ("sample", _SAMPLE_KEYS)):
            sub = cfg.get(key, {})
            if not isinstance(sub, dict):
                raise ConfigError(f"'{key}' must be an object")
            bad = set(sub) - allowed
            if bad:
                raise ConfigError(f"unknown keys under '{key}': {sorted(bad)}")

        # the default seed is the centre of the catalog metric's sample box
        box, dim = self.metric.sample_box, self.metric.dim
        self.x0 = _vector(cfg["chart_seed_point"], "chart_seed_point", dim) \
            if "chart_seed_point" in cfg else 0.5 * (box[:, 0] + box[:, 1])
        # a given seed must lie in the chart; the default one, the box's
        # centre, only for the commands that start from it (not certify).
        # g0 is the metric at the seed, None past the chart
        self.g0 = _chart_value(self.metric, self.x0)
        if self.g0 is None and "chart_seed_point" in cfg:
            raise ConfigError(_SEED_PAST_CHART)

        self.timelike_spec = cfg.get("timelike_field", "normalized_dt")
        if self.timelike_spec != "normalized_dt":
            self.timelike_spec = _vector(self.timelike_spec,
                                         "timelike_field", dim)
        self.covector_spec = cfg.get("initial_covector", "random_null(0)")
        self.polarization_spec = cfg.get("initial_polarization",
                                         "kernel_basis(0)")

        integ = dict(cfg.get("integrator", {}))
        self.integrator = str(integ.get("kind", "rk4_fixed"))
        if self.integrator not in ("rk4_fixed", "rk45_adaptive"):
            raise ConfigError(f"unknown integrator kind {self.integrator!r}")
        self.step = _number(integ.get("step", 1e-3), "integrator.step")
        self.tol = _number(integ.get("tol", 1e-10), "integrator.tol")
        self.t_end = _number(cfg.get("t_end", 5.0), "t_end")
        if not (math.isfinite(self.t_end) and self.t_end > 0.0):
            raise ConfigError(
                f"t_end must be finite and positive, got {self.t_end}")

        out = dict(cfg.get("outputs", {}))
        self.out_format = str(out.get("format", "json"))
        if self.out_format not in ("json", "csv"):
            raise ConfigError(f"unknown output format {self.out_format!r}")
        self.out_path = out.get("path")
        if "path" in out and not (isinstance(self.out_path, str)
                                  and self.out_path):
            raise ConfigError(f"outputs.path must be a non-empty string, "
                              f"got {self.out_path!r}")

        self.tols = dict(_DEFAULT_TOLS)
        self.tols.update({k: _tolerance(v, k)
                          for k, v in cfg.get("tolerances", {}).items()})

        samp = {"points": 20, "vectors": 10, "seed": 0,
                **cfg.get("sample", {})}
        if seed_override is not None:
            samp["seed"] = seed_override
        self.sample = SampleSpec(**{k: _number(v, f"sample.{k}", int)
                                    for k, v in samp.items()})
        _index(self.sample.seed, "sample.seed")
        if self.sample.vectors > _MAX_VECTORS:
            raise ConfigError(f"sample.vectors must be at most {_MAX_VECTORS}")
        if self.sample.points * self.sample.vectors > _MAX_SAMPLE:
            raise ConfigError(f"sample.points x sample.vectors must be at "
                              f"most {_MAX_SAMPLE}")
        self.seed = self.sample.seed

    # -- resolution helpers, each resolved once per scenario -----------------

    @functools.cached_property
    def timelike_field(self):
        """The timelike field N, once the seed's g0 has an inverse and N is
        timelike and future-directed there.  The default N is the seed
        frame's e_0, and one frame of g0 serves both."""
        x0, g = self.x0, self.g0
        N = resolve_timelike_field(self.metric, self.timelike_spec)
        frame = _frame_from(g) if isinstance(self.timelike_spec, str) \
            else None
        vec = N(x0) if frame is None else frame[0][:, 0]
        _checked_inverse(g, x0)
        if float(vec @ g @ vec) >= 0.0:
            raise NotTimelike("configured timelike_field is not timelike at "
                              "the seed point")
        if ((frame or _frame_from(g))[1] @ vec)[0] <= 0.0:
            raise NotFutureDirected("configured timelike_field is not "
                                    "future-directed at the seed point")
        return N

    @functools.cached_property
    def initial_covector(self) -> np.ndarray:
        spec = self.covector_spec
        if isinstance(spec, str):
            arg = _call_arg(spec, "random_null")
            if arg is None:
                raise ConfigError(f"bad initial_covector spec {spec!r}")
            seed = _index(arg, "initial_covector random_null seed")
            rng = np.random.default_rng(seed + self.seed)
            return _future_null(self.g0, self.x0, rng)
        xi = _vector(spec, "initial_covector", self.metric.dim)
        if not np.any(xi):
            raise ZeroCovector("initial_covector is zero")
        return xi

    def ray(self):
        """(module, Dirac system, seed state) of a ray scenario, once its
        initial covector is null at the seed point."""
        xi = self.initial_covector
        p0 = PhasePoint(self.x0, xi)
        _check_seed(self.metric, p0, self.t_end, self.tols["null"],
                    require_null=True)
        rep = build_canonical_module(self.metric)
        sys_ = dirac_system(rep)
        return rep, sys_, PolarizationState(
            p0, self.initial_polarization(sys_, xi))

    def initial_polarization(self, sys, xi) -> np.ndarray:
        spec = self.polarization_spec
        name = "initial_polarization"
        if isinstance(spec, str):
            arg = _call_arg(spec, "kernel_basis")
            if arg is None:
                raise ConfigError(f"bad {name} spec {spec!r}")
            k = _index(arg, f"{name} kernel_basis index")
            s1 = principal_symbol(sys, PhasePoint(self.x0, xi))
            basis, dim = kernel_basis(s1, self.tols["rank"])
            if k >= dim:
                raise ConfigError(
                    f"kernel_basis({k}) out of range, kernel dim {dim}")
            return basis[k]
        # entries are numbers, or [re, im] pairs
        if isinstance(spec, list) and spec and all(
                isinstance(v, list) for v in spec):
            re, im = np.array([_vector(v, f"{name}[{i}]", 2)
                               for i, v in enumerate(spec)]).T
            return re + 1j * im
        return _vector(spec, name).astype(complex)


# ---------------------------------------------------------------------------
# emitters


def _meta():
    return {"generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "tool_version": __version__}


def _json_default(o):
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o)}")


def _kv_rows(w, val, prefix=""):
    """``key,value`` rows of ``val`` on the CSV writer w, keys sorted and
    dotted through nested dicts, lists as JSON."""
    if isinstance(val, dict):
        for k in sorted(val):
            _kv_rows(w, val[k], f"{prefix}.{k}" if prefix else str(k))
    elif isinstance(val, (list, tuple)):
        w.writerow([prefix, json.dumps(val, default=_json_default)])
    else:
        w.writerow([prefix, val])


def _emit(payload, sc, no_meta):
    """A report in the scenario's output format, at its output path: JSON,
    or ``key,value`` CSV rows (which carry no meta)."""
    if sc.out_format == "json":
        obj = payload if no_meta else {**payload, "meta": _meta()}
        text = json.dumps(obj, sort_keys=True, indent=2,
                          default=_json_default) + "\n"
    else:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["key", "value"])
        _kv_rows(w, payload)
        text = buf.getvalue()
    _write_text(text, sc.out_path)


# one encoder for every trace row (json.dumps builds one per call), with
# json.dumps(row, sort_keys=True)'s settings
_ROW_ENCODER = json.JSONEncoder(sort_keys=True)


def _emit_trace(traj, orbit, summary, path, fmt, no_meta):
    """One row per sample (t, x, xi, q, w_re, w_im, kernel_residual), then
    the summary; each column is read off its array in one ``tolist``."""
    W = np.asarray(orbit.sections)
    rows = zip(traj.ts.tolist(), traj.xs.tolist(), traj.xis.tolist(),
               traj.qs.tolist(), W.real.tolist(), W.imag.tolist(),
               np.asarray(orbit.kernel_residuals).tolist())
    if fmt == "json":
        lines = [_ROW_ENCODER.encode(
            {"t": t, "x": x, "xi": xi, "q": q, "w_re": w_re, "w_im": w_im,
             "kernel_residual": res})
            for t, x, xi, q, w_re, w_im, res in rows]
        tail = summary if no_meta else {**summary, "meta": _meta()}
        lines.append(json.dumps({"summary": tail}, sort_keys=True,
                                default=_json_default))
        text = "\n".join(lines) + "\n"
    else:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        d, N = traj.xs.shape[1], W.shape[1]
        w.writerow(["t"] + [f"x{i}" for i in range(d)]
                   + [f"xi{i}" for i in range(d)] + ["q"]
                   + [f"w{i}_re" for i in range(N)]
                   + [f"w{i}_im" for i in range(N)] + ["kernel_residual"])
        w.writerows([t, *x, *xi, q, *w_re, *w_im, res]
                    for t, x, xi, q, w_re, w_im, res in rows)
        w.writerow([])
        _kv_rows(w, summary)
        text = buf.getvalue()
    _write_text(text, path)


def _check_target(path):
    """Refuse a report path that is a directory, or whose parent is not
    one, before its scenario runs."""
    if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
        raise ConfigError(f"cannot write {path}: not a file in an existing "
                          f"directory")


def _write_text(text, path):
    if path is None:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e}") from None


# ---------------------------------------------------------------------------
# subcommands


def cmd_certify(sc: _Scenario, args) -> int:
    rep = build_canonical_module(sc.metric)
    report = certify_axioms(rep, sc.sample, tolerance=sc.tols["axioms"])

    rng = np.random.default_rng(sc.seed)
    points = []
    for _ in range(sc.sample.points):
        x, g, _ = _chart_draw(sc.metric, rng)  # random_chart_point's draw
        points.append(PhasePoint(x, _future_null(g, x, rng)))
    # a summary, not the certificates: memory stays flat in sample.points
    pt_pass, dims, cond = True, set(), 0.0
    for c in certify_principal_types(rep, points, null_tol=sc.tols["null"],
                                     rank_tol=sc.tols["rank"], seed=sc.seed):
        pt_pass = pt_pass and c.passed
        dims.add(c.ker_dim)
        cond = max(cond, c.ker_coker_condition_number)

    payload = {
        "command": "certify",
        "fixture": sc.metric.name,
        "axioms_certificate": report.to_dict(),
        "principal_type": {
            "points": len(points),
            "all_pass": pt_pass,
            "ker_dims": sorted(dims),
            "max_condition_number": cond,
        },
        "pass": bool(report.passed and pt_pass),
    }
    _emit(payload, sc, args.no_meta)
    return 0 if payload["pass"] else 1


# the report entry that each tolerance key of a ray gates
_GATED = {"max_gap": "max_gap", "q_drift": "q_drift",
          "kernel": "max_kernel_residual"}


def _verdict(report: dict, sc: _Scenario, keys) -> int:
    """Exit code of a ray report, which passes when each entry gated by a
    tolerance key in ``keys`` lies below that tolerance and the run stayed
    in the chart.  Sets ``report["pass"]``; a failing report also lists
    its failed gates under ``"failed"``, in the order of ``keys`` and then
    ``left_chart``."""
    failed = [k for k in keys if not report[_GATED[k]] < sc.tols[k]]
    failed += ["left_chart"] if report["left_chart"] else []
    report["pass"] = not failed
    if failed:
        report["failed"] = failed
    return 1 if failed else 0


def cmd_trace(sc: _Scenario, args) -> int:
    _, sys_, state = sc.ray()
    orbit = transport_denker(
        sys_, state, sc.t_end, step=sc.step, integrator=sc.integrator,
        tol=sc.tol, kernel_tol=sc.tols["kernel"], null_tol=sc.tols["null"],
        flip_subprincipal=args.flip_subprincipal_sign)
    traj = orbit.trajectory
    summary = {
        "command": "trace",
        "fixture": sc.metric.name,
        "samples": traj.n,
        "q_drift": float(np.max(np.abs(traj.qs - traj.qs[0]))),
        "left_chart": traj.left_chart,
        "max_kernel_residual": float(np.max(orbit.kernel_residuals)),
    }
    rc = _verdict(summary, sc, ("q_drift", "kernel"))
    _emit_trace(traj, orbit, summary, sc.out_path, sc.out_format,
                args.no_meta)
    return rc


def cmd_compare(sc: _Scenario, args) -> int:
    rep, sys_, state = sc.ray()
    report = compare_transports(
        rep, sys_, state, sc.t_end, step=sc.step, integrator=sc.integrator,
        tol=sc.tol, kernel_tol=sc.tols["kernel"], null_tol=sc.tols["null"],
        flip_subprincipal=args.flip_subprincipal_sign)
    payload = dict(report.to_dict())
    payload["command"] = "compare"
    rc = _verdict(payload, sc, ("max_gap", "q_drift", "kernel"))
    _emit(payload, sc, args.no_meta)
    return rc


def cmd_symbols(sc: _Scenario, args) -> int:
    rep = build_canonical_module(sc.metric)
    pkg = symbol_package(rep, PhasePoint(sc.x0, sc.initial_covector),
                         N=sc.timelike_field)
    payload = dict(pkg.to_dict())
    payload["command"] = "symbols"
    payload["fixture"] = sc.metric.name
    finite = all(np.all(np.isfinite(M)) for M in (
        pkg.q, pkg.sigma_m, pkg.sigma_tilde, pkg.p_sub, pkg.bracket,
        pkg.d_sigma_m["dx"], pkg.d_sigma_m["dxi"]))
    payload["pass"] = bool(
        finite and pkg.factorization_residual < sc.tols["factorization"])
    _emit(payload, sc, args.no_meta)
    return 0 if payload["pass"] else 1


_COMMANDS = {"certify": cmd_certify, "trace": cmd_trace,
             "compare": cmd_compare, "symbols": cmd_symbols}


# ---------------------------------------------------------------------------
# driver


# one stderr line per scenario: numpy's floating-point warnings (say from a
# jet that is not finite) stay off it
@np.errstate(all="ignore")
def _run_one(cmd, config_path, args) -> int:
    try:
        cfg = json.loads(Path(config_path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read config {config_path}: {e}",
              file=sys.stderr)
        return 2
    try:
        sc = _Scenario(cfg, seed_override=args.seed)
        if args.format:
            sc.out_format = args.format
        if args.out is not None:
            if not args.out:
                raise ConfigError("--out must be a non-empty path")
            sc.out_path = args.out
        elif sc.out_path is None and args.batch_dir:
            ext = "jsonl" if cmd == "trace" and sc.out_format == "json" \
                else sc.out_format
            sc.out_path = str(Path(config_path).with_suffix(f".out.{ext}"))
        if sc.out_path is not None:
            _check_target(sc.out_path)
        # full validation before any computation: resolving checks each
        if sc.g0 is not None:
            sc.timelike_field
        elif cmd != "certify":
            raise ConfigError(_SEED_PAST_CHART)
        if cmd in ("trace", "compare", "symbols"):
            sc.initial_covector
        return _COMMANDS[cmd](sc, args)
    except (ConfigError, NotTimelike, NotFutureDirected, ZeroCovector,
            NotOnCharacteristicSet, KernelViolation) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except DiracsymError as e:
        print(f"failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line's parser, built on first use and then reused by
    every ``main`` call in the process; a parse leaves it unchanged."""
    ap = argparse.ArgumentParser(
        prog="diracsym",
        description="Dirac symbol calculus scenarios: certification, "
                    "bicharacteristic tracing, transport comparison.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_ in (
            ("certify", "axiom and principal-type certification"),
            ("trace", "integrate a null bicharacteristic and transport"),
            ("compare", "both transports on one grid, gap report"),
            ("symbols", "dump the symbol package at the seed phase point")):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", required=True,
                       help="scenario JSON file, or a directory of them")
        p.add_argument("--seed", type=int, default=None,
                       help="override the sample seed")
        p.add_argument("--format", choices=("json", "csv"), default=None)
        p.add_argument("--out", default=None, help="output path (default "
                       "stdout, or <config>.out.* in directory mode)")
        p.add_argument("--no-meta", action="store_true",
                       help="omit timestamps for byte-stable output")
        p.add_argument("--flip-subprincipal-sign", action="store_true",
                       help=argparse.SUPPRESS)
    return ap


def main(argv=None) -> int:
    """Run one command; may be called any number of times in a process."""
    args = _parser().parse_args(argv)
    cfg_path = Path(args.config)
    args.batch_dir = cfg_path.is_dir()
    if not args.batch_dir:
        return _run_one(args.command, cfg_path, args)

    # skip the <name>.out.json reports that an earlier run left there
    files = sorted(f for f in cfg_path.glob("*.json")
                   if not f.stem.endswith(".out"))
    if not files:
        print(f"error: no *.json scenarios under {cfg_path}",
              file=sys.stderr)
        return 2
    if args.out is not None:
        print("error: --out is incompatible with a config directory",
              file=sys.stderr)
        return 2
    return max(_run_one(args.command, f, args) for f in files)


if __name__ == "__main__":
    sys.exit(main())
