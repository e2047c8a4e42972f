"""Measure one cold set-up of diracsym in a fresh interpreter.

Usage: python3 setup_child.py <src dir> <catalog id> [<catalog id> ...]

Prints one JSON object: seconds to import diracsym (and its CLI), and for
each fixture the seconds to build its metric, canonical module and Dirac
system.  The parent runs this several times and reports medians, because
import cost is paid once per process and cannot be repeated in-process.
"""
import json
import sys
import time


def main():
    src, fixtures = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import diracsym
    import diracsym.cli  # noqa: F401  (the CLI workload pays this import)
    t_import = time.perf_counter() - t0
    builds = []
    for fid in fixtures:
        t1 = time.perf_counter()
        m = diracsym.catalog_metric(fid)
        t2 = time.perf_counter()
        rep = diracsym.build_canonical_module(m)
        t3 = time.perf_counter()
        diracsym.dirac_system(rep)
        t4 = time.perf_counter()
        builds.append({"fixture": fid, "metric_s": t2 - t1,
                       "module_s": t3 - t2, "system_s": t4 - t3})
    print(json.dumps({"import_s": t_import, "builds": builds,
                      "module_file": diracsym.__file__}))


if __name__ == "__main__":
    main()
