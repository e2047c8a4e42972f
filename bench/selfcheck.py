"""Self-check of the benchmark at minimal size.

    python3 bench/selfcheck.py

Run from the repository root.  It checks that:

* every workload, run once per trace mode for one second, exits 0, passes
  its gates and prints every metric that BENCHMARK.json names for that
  mode, with the unit BENCHMARK.json gives;
* a run with one deliberately broken op (a flipped-sign ray gated as a
  normal one) counts it as failed and reports ``correct: false``;
* predictions.json names only metrics and workloads of BENCHMARK.json and
  covers every per-layer metric;
* in a directory holding only BENCHMARK.json and the benchmark, the
  command exits non-zero without printing a result.
"""
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload, trace, extra=(), cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "bench" / "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def result(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(cond, message):
    if not cond:
        raise AssertionError(message)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}

    for workload in names:
        for trace in (0, 1):
            res = result(run(workload, trace))
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  f"{workload}: result keys {sorted(res)}")
            check(res["correct"] and res["failed"] == 0,
                  f"{workload} trace {trace}: {res['failed']} failed")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == want[trace],
                  f"{workload} trace {trace}: metrics differ from "
                  f"BENCHMARK.json: {sorted(set(got) ^ set(want[trace]))}")
            print(f"ok  {workload} trace {trace}: {len(got)} metrics, "
                  f"{res['attempted']} ops")

    res = result(run(names[0], 0, extra=("--broken-op", "1")))
    check(res["failed"] >= 1 and not res["correct"],
          "the deliberately broken op was not counted as failed")
    print(f"ok  broken op counted: {res['failed']} of {res['attempted']}")

    pred = json.loads((BENCH / "predictions.json").read_text())["predictions"]
    e2e = set(want[0]) | {"none"}
    for p in pred:
        check(p["layer"] in want[1], f"unknown layer metric {p['layer']}")
        check(p["moves"] in e2e, f"unknown end-to-end metric {p['moves']}")
        check(set(p["on"]) | set(p.get("still", ())) <= set(names),
              f"unknown workload in {p}")
    check({p["layer"] for p in pred} == set(want[1]),
          "predictions.json does not cover every per-layer metric")
    print(f"ok  predictions.json: {len(pred)} predictions")

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=out))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(names[0], 0, cwd=bare)
        check(proc.returncode != 0 and '"correct"' not in proc.stdout,
              "the benchmark ran without the library sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  no sources, no result: exit", proc.returncode)


if __name__ == "__main__":
    main()
