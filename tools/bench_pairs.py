"""Paired benchmark runs: a parent commit against this working tree.

    python tools/bench_pairs.py --parent HEAD --workloads ray-conformal \
        --seeds 51-60 --seconds 36 --out BENCH_17.json --what "..."

The parent commit is exported with ``git archive`` into a temporary
directory, and ``src/`` and ``bench/`` of both sides are byte-compiled
afresh (``compileall -f``), so no run pays for, or measures the memory of,
compiling a stale module.  For each workload and seed the unchanged
``bench/run.py --trace 0`` runs once on each side, alternating which side
runs first (the parent on even pairs, the change on odd ones).  Each
run's last line of standard output is its result and the line before it
its details.  The output holds, per workload and side, the median,
quartiles (inclusive method) and count of every end-to-end metric, the
attempted and failed ops, each pair's values and the pairs the change
wins per metric, and the machine the runs shared.

Not part of Tier-1: every run takes the benchmark's full run length.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def end_to_end_metrics():
    """The benchmark's end-to-end metrics, each a dict with ``name``,
    ``unit``, ``better`` ("higher" or "lower") and ``bound``."""
    return json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]


def parse_run(stdout: str):
    """(details, result) from the last two lines a run printed."""
    lines = stdout.strip().splitlines()
    return json.loads(lines[-2])["details"], json.loads(lines[-1])


def _spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summarize(pairs, better):
    """One workload's summary from its pairs, each a dict with ``seed``,
    ``first`` and, per side, the (details, result) of its run."""
    names = sorted(better)
    per_pair, values = [], {s: {n: [] for n in names} for s in SIDES}
    ops = {k: dict.fromkeys(SIDES, 0) for k in ("attempted", "failed")}
    for i, p in enumerate(pairs):
        row = {"pair": i, "seed": p["seed"], "first": p["first"]}
        for side in SIDES:
            _, result = p[side]
            row[side] = {n: result["metrics"][n]["value"] for n in names}
            for n in names:
                values[side][n].append(row[side][n])
            for k in ops:
                ops[k][side] += result[k]
        per_pair.append(row)
    wins = {}
    for n in names:
        sign = 1.0 if better[n] == "higher" else -1.0
        wins[n] = sum(sign * (r["change"][n] - r["parent"][n]) > 0.0
                      for r in per_pair)
    out = {s: {n: _spread(values[s][n]) for n in names} for s in SIDES}
    return {
        "pairs": len(pairs),
        "parent": out["parent"], "change": out["change"],
        "median_change_pct": {
            n: 100.0 * (out["change"][n]["median"]
                        / out["parent"][n]["median"] - 1.0) for n in names},
        "change_wins_per_metric": wins,
        "attempted_ops": ops["attempted"], "failed_ops": ops["failed"],
        "per_pair": per_pair,
    }


def machine(first_details, last_details):
    """The runs' shared environment, load averages from both ends."""
    env = dict(first_details["env"])
    env["loadavg_end"] = last_details["env"]["loadavg_end"]
    return env


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _export(rev: str, dest: Path) -> str:
    """Unpack commit ``rev`` into ``dest``; returns its full hash."""
    commit = subprocess.run(["git", "-C", str(REPO), "rev-parse", rev],
                            capture_output=True, text=True, check=True)
    archive = dest / "parent.tar"
    subprocess.run(["git", "-C", str(REPO), "archive", "-o", str(archive),
                    rev], check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest / "parent", filter="data")
    archive.unlink()
    return commit.stdout.strip()


def _precompile(roots) -> None:
    """Rewrite the .pyc files of ``src/`` and ``bench/`` under each root."""
    for root in roots:
        subprocess.run([sys.executable, "-m", "compileall", "-f", "-q",
                        str(root / "src"), str(root / "bench")], check=True)


def _run(root: Path, workload: str, seed: int, seconds: float):
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True)
    return parse_run(out.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="commit to compare with")
    ap.add_argument("--workloads", required=True,
                    help="comma-separated bench/run.py workloads")
    ap.add_argument("--seeds", required=True, help="one seed or a range a-b")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--what", default="", help="what the change does")
    args = ap.parse_args(argv)

    metrics = end_to_end_metrics()
    better = {m["name"]: m["better"] for m in metrics}
    seeds = _seeds(args.seeds)
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        commit = _export(args.parent, Path(tmp))
        roots = {"parent": Path(tmp) / "parent", "change": REPO}
        _precompile(roots.values())
        workloads, runs = {}, []
        for workload in args.workloads.split(","):
            pairs = []
            for i, seed in enumerate(seeds):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = _run(roots[side], workload, seed,
                                      args.seconds)
                    runs.append(pair[side][0])
                    rate = pair[side][1]["metrics"]["rays_per_s"]["value"]
                    print(f"{workload} seed {seed} {side}: rays_per_s "
                          f"{rate:.4g}", flush=True)
                pairs.append(pair)
            workloads[workload] = summarize(pairs, better)
    report = {
        "command": f"python3 bench/run.py --workload <w> --seed "
                   f"<{args.seeds}> --seconds {args.seconds:g} --trace 0, "
                   f"one run per side and seed, from an export of the "
                   f"parent commit and from the change, alternating which "
                   f"side runs first in each pair, after python -m "
                   f"compileall -f -q src bench on both sides",
        "machine": machine(runs[0], runs[-1]),
        "parent_commit": commit,
        "units": {m["name"]: m["unit"] for m in metrics},
        "what": args.what,
        "workloads": workloads,
    }
    Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True)
                              + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
