"""diracsym benchmark: one workload, one seed, one closed-loop caller.

    python3 bench/run.py --workload ray-schwarzschild --seed 1 --seconds 20 \
        --trace 0

Run from the repository root.  The library is imported from ``src/`` of the
same checkout.  ``--trace 0`` measures the end-to-end metrics; ``--trace 1``
runs the same loop untraced and then traced for half the time each, adds
the per-layer probes, prints the per-layer metrics and writes every span to
``.bench_out/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details (sample counts, tail percentile, environment).
"""
import os

# One BLAS thread: the workloads are single-caller and the matrices are 4x4,
# so threads only add noise.  Set before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
WORKLOADS = ("ray-schwarzschild", "ray-conformal", "cli-batch")


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def _git_commit():
    """The commit of this checkout if it is itself a git work tree."""
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 \
            or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def pin_to_one_cpu():
    """Keep this process (and the set-up children) on one CPU.

    On a shared two-vCPU machine the same ray measured 0.12 s on one CPU
    and 0.16 s on the other, and the scheduler moving the process between
    them made run medians wander by 30%.  The last CPU of the allowed set
    is used; it is not the one taking most device interrupts.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def measure_setup(fixtures):
    """Median of several cold set-ups, each in a fresh interpreter: import
    plus building metric, module and system for the workload's fixtures.
    Each is scaled by the speed reference timed around it."""
    samples = []
    meter = speed.Meter(sample=False)
    for _ in range(SETUP_REPEATS):
        with meter.timed() as t:
            out = subprocess.run(
                [sys.executable, str(BENCH / "setup_child.py"), str(SRC),
                 *fixtures], capture_output=True, text=True, timeout=120,
                check=True)
        rec = json.loads(out.stdout.strip().splitlines()[-1])
        if not Path(rec["module_file"]).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up imported {rec['module_file']}, "
                               f"not the checkout's src/")
        build = sum(b["metric_s"] + b["module_s"] + b["system_s"]
                    for b in rec["builds"])
        module = statistics.mean(b["module_s"] for b in rec["builds"])
        samples.append((rec["import_s"] + build, rec["import_s"], module,
                        t.factor))
    return {
        "setup_s": statistics.median(s[0] * s[3] for s in samples),
        "setup_wall_s": statistics.median(s[0] for s in samples),
        "import_s": statistics.median(s[1] for s in samples),
        "build_module_ms": statistics.median(s[2] for s in samples) * 1e3,
        "samples": len(samples),
    }


def tail_value(values, level):
    """The ``level``-th percentile (inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[level - 1]


def end_to_end(res, setup, tail_level, scaled=True):
    """The end-to-end metrics; times in nominal seconds (speed.py) unless
    ``scaled`` is false, which gives the wall-clock figures."""
    def total(calls):
        return sum(dt * (s if scaled else 1.0) for dt, s in calls)

    lat = [dt * (s if scaled else 1.0) for dt, s in res.latencies]
    ray_time = total(res.ray_calls)
    return {
        "setup_s": setup["setup_s" if scaled else "setup_wall_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "rays_per_s": res.rays / ray_time,
        "ray_s.p50": statistics.median(lat),
        "ray_s.tail": tail_value(lat, tail_level),
        "points_per_s": res.points / (ray_time + total(res.other_calls)),
    }


def per_layer(layers, wl, untraced, traced, tracer, tally, meter, setup):
    metrics = layers.library_probes(tracer, tally, wl)
    if wl.name == "cli-batch":
        output_bytes = wl.round_bytes
    else:
        output_bytes = layers.cli_probe(tracer, tally, meter, wl)
    metrics.update(layers.cli_metrics(tracer, output_bytes))
    # paired by op: each op ran untraced and traced on the same inputs
    pairs = [(u, t) for (u, _), (t, _) in zip(untraced.latencies,
                                               traced.latencies)]
    base = statistics.median(u for u, _ in pairs)
    metrics["trace.overhead_pct"] = (
        statistics.median(t - u for u, t in pairs) / base * 100.0)
    metrics["setup.import_s"] = setup["import_s"]
    metrics["clifford.build_module_ms"] = setup["build_module_ms"]
    return metrics


def metric_kind(name):
    """How a metric was obtained, when it is not a median of timed calls."""
    return {"geometry.accepted_steps": "(exact count)",
            "cli.output_bytes": "(exact count)",
            "transport.stage_evals": "(computed from steps)",
            "transport.replay_us_per_step": "(derived)",
            "cli.overhead_ms_per_scenario": "(derived)",
            "trace.overhead_pct": "(derived)"}.get(name, "")


def units():
    """Metric name -> unit, from BENCHMARK.json (the one place they live)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # used by selfcheck.py: one flipped-sign op gated as a normal one
    ap.add_argument("--broken-op", type=int, choices=(0, 1), default=0,
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "diracsym" / "__init__.py").is_file():
        print(f"error: no diracsym sources under {SRC}", file=sys.stderr)
        return 2
    cpu = pin_to_one_cpu()
    load_start = _loadavg()
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    import diracsym
    if not Path(diracsym.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported {diracsym.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import layers
    import workloads
    from spans import NullTracer, Tracer

    wl = workloads.make(args.workload)
    setup = measure_setup(wl.fixtures)
    tally = workloads.Tally()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        wl.prepare(args.seed, workdir)
        try:
            wl.controls(NullTracer(), tally, args.broken_op)
        except Exception as e:  # a control that raises is a failed check
            tally.record(False, f"control: {type(e).__name__}: {e}")
        if args.trace == 0:
            res, = workloads.run_loop(wl, tally, args.seconds,
                                      [NullTracer()], speed.Meter(True))
            metrics = end_to_end(res, setup, wl.tail_level)
            wall = end_to_end(res, setup, wl.tail_level, scaled=False)
            loops = {"untraced": res}
        else:
            # no sampling inside ops: it would add to the per-layer spans
            tracer, meter = Tracer(), speed.Meter(False)
            untraced, traced = workloads.run_loop(
                wl, tally, args.seconds, [NullTracer(), tracer], meter)
            metrics = per_layer(layers, wl, untraced, traced, tracer, tally,
                                meter, setup)
            wall = None
            loops = {"untraced": untraced, "traced": traced}
            span_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(span_file)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    details = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "loop": {k: {"ops": r.ops, "latency_samples": len(r.latencies),
                     "rays": r.rays, "points": r.points}
                 for k, r in loops.items()},
        "tail_percentile": wl.tail_level,
        "wall_clock": wall,
        "speed_scale_median": statistics.median(
            s for r in loops.values() for _, s in r.latencies),
        "setup_samples": setup["samples"],
        "failure_rate": tally.failed / tally.attempted,
        "failures": tally.notes,
        "env": {
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_commit": _git_commit(), "blas_threads": BLAS_THREADS,
            "pinned_cpu": cpu,
            "platform": platform.platform(),
            "loadavg_start": load_start, "loadavg_end": _loadavg(),
        },
    }
    if args.trace:
        details["spans_file"] = str(span_file.relative_to(ROOT))
    unit = units()
    for name, value in metrics.items():
        kind = metric_kind(name)
        print(f"{name:40s} {value:14.6g} {unit[name]:6s} {kind}".rstrip())
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
