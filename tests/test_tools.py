"""The tools under ``tools/``, without running a benchmark or a sweep.

The mutation sweep's mutants still apply: each one's old text occurs
exactly once in its file, so a refactor that moves the text shows here and
not only when ``tools/mutants.py`` next runs, and each mutated file still
compiles.  The sweep leaves this file out of its runs, since every mutant
removes its own old text; its name filter is checked with the runs
replaced.  The pairing script's summary step is checked on synthetic run
output, and its byte-compiling step with ``subprocess.run`` replaced."""
import importlib.util
import json
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
_spec = importlib.util.spec_from_file_location("mutants",
                                               TOOLS / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m[0])
def test_mutant_text_occurs_once(mutant):
    assert mutants._check(mutant) == ""


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m[0])
def test_mutant_compiles(mutant):
    """A mutant is a working program that computes something else, not a
    syntax error that any suite would kill."""
    _, rel, old, new = mutant
    path = TOOLS.parent / rel
    compile(path.read_text().replace(old, new), str(path), "exec")


def test_mutant_names_select_the_sweep(monkeypatch, capsys):
    """Named mutants run alone, in the order named; an unknown name exits
    2 and lists the valid ones, before anything runs."""
    ran = []
    monkeypatch.setattr(mutants, "run", lambda m: ran.append(m[0])
                        or ("killed", 0.0, ""))
    names = [mutants.MUTANTS[3][0], mutants.MUTANTS[0][0]]
    assert mutants.main(names + names[:1]) == 0
    assert ran == names
    assert mutants.main([names[0], "no_such_mutant"]) == 2
    err = capsys.readouterr().err
    assert "no_such_mutant" in err
    assert all(m[0] in err for m in mutants.MUTANTS)
    assert ran == names
    monkeypatch.setattr(mutants, "run", lambda m: ("survived", 0.0, ""))
    assert mutants.main(names[:1]) == 1


_spec = importlib.util.spec_from_file_location("bench_pairs",
                                               TOOLS / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _run_output(rate, latency, attempted, failed, load):
    """What bench/run.py prints: metric lines, details, then the result."""
    details = {"details": {"env": {"python": "3.11.7", "nproc": 2,
                                   "loadavg_start": [load] * 3,
                                   "loadavg_end": [load + 1] * 3}}}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": {
                  "rays_per_s": {"value": rate, "unit": "1/s"},
                  "ray_s.p50": {"value": latency, "unit": "s"}}}
    return (f"rays_per_s {rate} 1/s\n{json.dumps(details)}\n"
            f"{json.dumps(result)}\n")


def test_bench_pairs_summary_of_synthetic_runs():
    """Three pairs; the change is faster in two and slower in one."""
    better = {"rays_per_s": "higher", "ray_s.p50": "lower"}
    runs = [((100.0, 0.010), (150.0, 0.007)),
            ((110.0, 0.009), (105.0, 0.0095)),
            ((120.0, 0.008), (160.0, 0.006))]
    pairs = []
    for i, (par, chg) in enumerate(runs):
        pairs.append({
            "seed": 51 + i, "first": "parent" if i % 2 == 0 else "change",
            "parent": bench_pairs.parse_run(_run_output(*par, 40, 0, i)),
            "change": bench_pairs.parse_run(_run_output(*chg, 50, 1, i))})
    out = bench_pairs.summarize(pairs, better)
    assert out["pairs"] == 3
    assert out["parent"]["rays_per_s"] == {"median": 110.0, "q1": 105.0,
                                           "q3": 115.0, "n": 3}
    assert out["change"]["ray_s.p50"]["median"] == 0.007
    assert out["change_wins_per_metric"] == {"rays_per_s": 2, "ray_s.p50": 2}
    assert abs(out["median_change_pct"]["rays_per_s"] - 36.3636) < 1e-3
    assert out["attempted_ops"] == {"parent": 120, "change": 150}
    assert out["failed_ops"] == {"parent": 0, "change": 3}
    assert [p["first"] for p in out["per_pair"]] == \
        ["parent", "change", "parent"]
    assert out["per_pair"][1]["change"] == {"rays_per_s": 105.0,
                                            "ray_s.p50": 0.0095}
    first, last = pairs[0]["parent"][0], pairs[-1]["change"][0]
    env = bench_pairs.machine(first, last)
    assert env["loadavg_start"] == [0] * 3 and env["loadavg_end"] == [3] * 3
    assert bench_pairs._seeds("51-60") == list(range(51, 61))
    assert bench_pairs._seeds("7") == [7]


def test_bench_pairs_precompiles_both_sides(monkeypatch, tmp_path):
    """Both sides' src/ and bench/ get fresh .pyc files before any run."""
    calls = []
    monkeypatch.setattr(bench_pairs.subprocess, "run",
                        lambda cmd, **kw: calls.append((cmd, kw)))
    roots = [tmp_path / "parent", tmp_path / "change"]
    bench_pairs._precompile(roots)
    assert [cmd[1:5] for cmd, _ in calls] == \
        [["-m", "compileall", "-f", "-q"]] * 2
    assert [cmd[5:] for cmd, _ in calls] == \
        [[str(r / "src"), str(r / "bench")] for r in roots]
    assert all(kw == {"check": True} for _, kw in calls)
