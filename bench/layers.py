"""Per-layer probes for the traced run.

Every number comes from a span around a call into a public entry point of
diracsym (``metric_derivative``, ``orthonormal_frame``,
``hamiltonian_field``, ``integrate_bicharacteristic``,
``spin_connection_matrix``, ``symbol_package``, ``principal_symbol``,
``kernel_basis``, ``certify_*``, ``compare_transports``, ``cli.main``), made
on the rays and phase points the workload itself visits.  Private helpers
are never timed, so refactors behind these entry points cannot break the
benchmark.
"""
from __future__ import annotations

import statistics

import numpy as np

import diracsym as ds
from diracsym.symbols import kernel_basis, principal_symbol

from workloads import GATE, cli_call, ray_ok, write_scenarios

PROBE_RAYS = 3        # rays re-run through the library and the CLI
PROBE_POINTS = 120    # visited phase points for the per-call probes
PROBE_CERT_POINTS = 8  # visited points for principal-type certificates
AXIOM_POINTS = 4      # certify_axioms sample points per fixture

# RK4 evaluates the stage engine 4 times per step, Dormand-Prince 7 times;
# compare_transports adds one call for the initial kernel check and one at
# the first replay sample.
STAGES_PER_STEP = {"rk4_fixed": 4, "rk45_adaptive": 7}
STAGE_CALLS_PER_RAY = 2


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def visited_points(reports, count):
    """Evenly spaced phase samples over the given rays' trajectories."""
    pts = [(x, xi) for r in reports
           for x, xi in zip(r.trajectory.xs, r.trajectory.xis)]
    idx = np.linspace(0, len(pts) - 1, min(count, len(pts))).astype(int)
    return [pts[i] for i in idx]


def library_probes(tracer, tally, wl):
    """Library cost of one scenario, trajectory alone, compare, and the
    per-call layer probes on the visited points."""
    fx = wl.fx
    rays = wl.probe_rays(PROBE_RAYS)
    reports = []
    for i, (state, _) in enumerate(rays):
        with tracer.span("probe", ray=i):
            # what the CLI's compare does per scenario, minus the CLI
            with tracer.span("probe.library_scenario"):
                m = tracer.call("geometry.catalog_metric", ds.catalog_metric,
                                fx.fixture)
                rep = tracer.call("clifford.build_canonical_module",
                                  ds.build_canonical_module, m)
                tracer.call("symbols.dirac_system", ds.dirac_system, rep)
                rpt = fx.compare(tracer, state)
            traj = fx.trajectory(tracer, state)
        tally.record(ray_ok(rpt) and traj.n == rpt.trajectory.n,
                     f"probe ray {i} failed the gate")
        reports.append(rpt)

    steps = [r.trajectory.n - 1 for r in reports]
    compare_s = tracer.durations("transport.compare_transports", root="probe")
    traj_s = tracer.durations("geometry.integrate_bicharacteristic",
                              root="probe")
    replay = [(c - t) / n * 1e6 for c, t, n in zip(compare_s, traj_s, steps)]

    m, rep, sysd = fx.metric, fx.rep, fx.sys
    pts = visited_points(reports, PROBE_POINTS)
    for x, xi in pts:
        p = ds.PhasePoint(x, xi)
        with tracer.span("probe"):
            tracer.call("geometry.metric_derivative", ds.metric_derivative,
                        m, x)
            tracer.call("geometry.orthonormal_frame", ds.orthonormal_frame,
                        m, x)
            dx, _ = tracer.call("geometry.hamiltonian_field",
                                ds.hamiltonian_field, m, p)
            tracer.call("clifford.spin_connection_matrix",
                        ds.spin_connection_matrix, rep, x, dx)
            pkg = tracer.call("symbols.symbol_package", ds.symbol_package,
                              rep, p, sys=sysd)
            s1 = tracer.call("symbols.principal_symbol", principal_symbol,
                             sysd, p)
            _, dim = tracer.call("symbols.kernel_basis", kernel_basis, s1)
        tally.record(pkg.factorization_residual < 1e-10 and dim == rep.N // 2,
                     f"symbol package at a visited point: factorization "
                     f"{pkg.factorization_residual:.2e}, kernel dim {dim}")
    for x, xi in pts[::max(1, len(pts) // PROBE_CERT_POINTS)][
            :PROBE_CERT_POINTS]:
        with tracer.span("probe"):
            cert = tracer.call("symbols.certify_principal_type",
                               ds.certify_principal_type, rep,
                               ds.PhasePoint(x, xi), sys=sysd)
        tally.record(cert.passed, "principal-type certificate failed")

    axiom_ms = []
    for fid in wl.certify_fixtures:
        frep = ds.build_canonical_module(ds.catalog_metric(fid))
        with tracer.span("probe"):
            t = tracer.call("clifford.certify_axioms", ds.certify_axioms,
                            frep, ds.SampleSpec(points=AXIOM_POINTS,
                                                seed=wl.seed), tolerance=GATE)
        tally.record(t.passed, f"axiom certificate failed on {fid}")
        axiom_ms.append(tracer.durations("clifford.certify_axioms")[-1]
                        / AXIOM_POINTS * 1e3)

    us = 1e6
    return {
        "geometry.metric_derivative_us":
            _median(tracer.durations("geometry.metric_derivative")) * us,
        "geometry.orthonormal_frame_us":
            _median(tracer.durations("geometry.orthonormal_frame")) * us,
        "geometry.hamiltonian_field_us":
            _median(tracer.durations("geometry.hamiltonian_field")) * us,
        "geometry.trajectory_s": _median(traj_s),
        "geometry.accepted_steps": statistics.mean(steps),
        "transport.compare_s": _median(compare_s),
        "transport.replay_us_per_step": _median(replay),
        "transport.stage_evals": statistics.mean(
            n * STAGES_PER_STEP[fx.integrator] + STAGE_CALLS_PER_RAY
            for n in steps),
        "symbols.symbol_package_us":
            _median(tracer.durations("symbols.symbol_package")) * us,
        "symbols.principal_symbol_us":
            _median(tracer.durations("symbols.principal_symbol")) * us,
        "symbols.kernel_basis_us":
            _median(tracer.durations("symbols.kernel_basis")) * us,
        "symbols.principal_type_ms_per_point":
            _median(tracer.durations("symbols.certify_principal_type")) * 1e3,
        "clifford.certify_axioms_ms_per_point": _median(axiom_ms),
        "clifford.spin_connection_us":
            _median(tracer.durations("clifford.spin_connection_matrix")) * us,
    }


def cli_probe(tracer, tally, meter, wl):
    """For the ray workloads: one directory-mode call per subcommand on
    scenarios built from the workload's own first rays and fixture."""
    rays = wl.probe_rays(PROBE_RAYS)
    base = wl.workdir / "cli_probe"
    names = [f"r{i}" for i in range(len(rays))]
    for sub in ("compare", "trace"):
        write_scenarios(base / sub, {n: cfg for n, (_, cfg) in
                                     zip(names, rays)})
    write_scenarios(base / "certify", {"f0": {
        "metric": wl.fx.fixture,
        "sample": {"points": AXIOM_POINTS, "seed": wl.seed}}})
    n_bytes = 0
    for command, sub_names, ext, n_rays, n_points in (
            ("compare", names, "json", len(names), 0),
            ("certify", ["f0"], "json", 0, AXIOM_POINTS),
            ("trace", names, "jsonl", len(names), 0)):
        with tracer.span("probe"):
            _, size, _ = cli_call(tracer, tally, meter, base / command,
                                  command, sub_names, ext, n_rays, n_points)
        n_bytes += size
    return n_bytes


def cli_metrics(tracer, output_bytes):
    """CLI throughputs and overhead from the cli.* spans of the run."""
    def rate(command, key):
        spans = tracer.find(f"cli.{command}")
        busy = sum(d for d, _ in spans)
        return sum(a[key] for _, a in spans) / busy if busy else float("nan")

    # the probe re-ran the first set's compare rays through the library
    cli_per_ray = [d / a["rays"] for d, a in tracer.find("cli.compare")
                   if a["set"] == 0]
    library = tracer.durations("probe.library_scenario")
    return {
        "cli.compare_rays_per_s": rate("compare", "rays"),
        "cli.certify_points_per_s": rate("certify", "points"),
        "cli.trace_samples_per_s": rate("trace", "points"),
        "cli.overhead_ms_per_scenario":
            (statistics.mean(cli_per_ray) - statistics.mean(library)) * 1e3,
        "cli.output_bytes": output_bytes,
    }
