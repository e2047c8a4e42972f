"""The three benchmark workloads, their seeded inputs and correctness gates.

Every workload runs as a closed loop with one caller: the next op starts
only after the previous one returned and was checked.

* ``ray-schwarzschild``: ``compare_transports`` on null rays of
  ``schwarzschild1.0`` starting near r = 10, fixed-step RK4 with h = 1e-3.
* ``ray-conformal``: ``compare_transports`` on null rays of a conformally
  flat metric in t, x, y, adaptive Dormand-Prince at tol 1e-12.
* ``cli-batch``: ``diracsym.cli.main`` in directory mode over a ``compare``,
  a ``certify`` and a ``trace`` directory of generated scenarios.

Inputs come only from the workload seed; the library receives the
generated start points, covectors and polarizations.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import diracsym as ds
from diracsym import cli
from diracsym.symbols import kernel_basis, principal_symbol
from diracsym.transport import PolarizationState, compare_transports


# Certified bounds every ray must meet (README "What is certified", row 6/7).
GATE = 1e-6
# The flipped-subprincipal control must break agreement by at least this.
CONTROL_GAP = 1e-3
# The negative control is one fixed ray per fixture, drawn with this seed
# instead of the workload seed: a few start directions make the flipped
# term almost vanish (gap 2e-5 for one of 120 seeds on schwarzschild1.0),
# and the control must fail the gate on every run.  With seed 1 and
# t = 0.3 the flipped gap is 7.6e-2 on schwarzschild1.0 and 0.12 on the
# conformal fixture.
CONTROL_SEED = 1
CONTROL_T_END = 0.3

# Periodic in t, x and y, so every ray direction sees similar variation and
# the adaptive step count varies little from ray to ray (a factor in t + x
# alone is constant along rays moving in -x, which then take very few steps).
CONFORMAL = "conformal_flat{1 + 0.05*sin(3*t) + 0.05*cos(2*x)*cos(2*y)}"
CERTIFY_FIXTURES = ("minkowski4", "schwarzschild1.0",
                    "schwarzschild_isotropic1.0", CONFORMAL)


@dataclass
class Tally:
    """Ops attempted and failed; failures are never dropped or retried."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def record(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)


@dataclass
class LoopResult:
    """What one timed loop measured.  Every time is stored as (wall
    seconds, speed factor; see speed.py)."""

    ops: int = 0
    rays: int = 0
    points: int = 0
    latencies: list = field(default_factory=list)   # per ray
    ray_calls: list = field(default_factory=list)   # calls that ran rays
    other_calls: list = field(default_factory=list)  # calls that ran none


def ray_ok(rpt) -> bool:
    """The per-ray gate; NaN fails every comparison, so it fails the gate."""
    return bool(rpt.max_gap < GATE and rpt.max_kernel_residual < GATE
                and rpt.q_drift < GATE and not rpt.left_chart
                and rpt.trajectory.n > 1)


def _schwarzschild_start(rng):
    return np.array([0.0, 10.0 + rng.uniform(-0.5, 0.5),
                     rng.uniform(1.0, math.pi - 1.0),
                     rng.uniform(0.0, 2.0 * math.pi)])


def _conformal_start(rng):
    return rng.uniform(-1.0, 1.0, size=4)


class _Fixture:
    """Metric, module and system of one catalog fixture, plus the ray
    parameters the workload integrates with."""

    def __init__(self, fixture, integrator, t_end, step, tol, start):
        self.fixture = fixture
        self.integrator = integrator
        self.t_end = t_end
        self.step = step
        self.tol = tol
        self.start = start

    def build(self):
        self.metric = ds.catalog_metric(self.fixture)
        self.rep = ds.build_canonical_module(self.metric)
        self.sys = ds.dirac_system(self.rep)

    def ray_input(self, rng):
        """(x0, xi0, kernel index, state) for one seeded null ray."""
        x0 = self.start(rng)
        xi0 = ds.random_null_covector(self.metric, x0, rng)
        p = ds.PhasePoint(x0, xi0)
        basis, dim = kernel_basis(principal_symbol(self.sys, p), 1e-8)
        k = int(rng.integers(dim))
        return x0, xi0, k, PolarizationState(p, basis[k])

    def control_input(self):
        """(x0, xi0, kernel index, state) of the fixed control ray."""
        return self.ray_input(np.random.default_rng(CONTROL_SEED))

    def compare(self, tracer, state, t_end=None, flip=False):
        return tracer.call(
            "transport.compare_transports", compare_transports,
            self.rep, self.sys, state, self.t_end if t_end is None else t_end,
            step=self.step, integrator=self.integrator, tol=self.tol,
            flip_subprincipal=flip)

    def trajectory(self, tracer, state):
        return tracer.call(
            "geometry.integrate_bicharacteristic",
            ds.integrate_bicharacteristic, self.metric, state.phase,
            self.t_end, integrator=self.integrator, step=self.step,
            tol=self.tol, null_tol=1e-10, require_null=True)

    def scenario(self, x0, xi0, polarization, t_end=None):
        """A CLI scenario for this ray; floats round-trip exactly in JSON."""
        integ = {"kind": self.integrator}
        if self.integrator == "rk4_fixed":
            integ["step"] = self.step
        else:
            integ["tol"] = self.tol
        return {"metric": self.fixture,
                "chart_seed_point": [float(v) for v in x0],
                "initial_covector": [float(v) for v in xi0],
                "initial_polarization": polarization,
                "integrator": integ,
                "t_end": self.t_end if t_end is None else t_end,
                "outputs": {"format": "json"}}

    def bit_for_bit(self, tracer, tally, state):
        """The joint replay must reproduce the solo trajectory exactly."""
        rpt = self.compare(tracer, state)
        solo = self.trajectory(tracer, state)
        same = (np.array_equal(rpt.trajectory.ts, solo.ts)
                and np.array_equal(rpt.trajectory.xs, solo.xs)
                and np.array_equal(rpt.trajectory.xis, solo.xis))
        tally.record(ray_ok(rpt) and same,
                     "joint replay phase samples differ from the trajectory")


def run_cli(argv):
    """cli.main in-process; returns (rc, captured stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue()


def write_scenarios(directory: Path, scenarios: dict):
    directory.mkdir(parents=True, exist_ok=True)
    for name, cfg in scenarios.items():
        (directory / f"{name}.json").write_text(json.dumps(cfg))


def collect_outputs(directory: Path, names, ext: str):
    """Read and delete each scenario's output: [(payload or None, bytes)].

    Outputs are deleted so that the next call on the same directory cannot
    read a stale pass, and because directory mode would take a leftover
    ``*.out.json`` for a scenario.
    """
    out = []
    for name in names:
        path = directory / f"{name}.out.{ext}"
        try:
            text = path.read_text()
        except OSError:
            out.append((None, 0))
            continue
        path.unlink()
        lines = text.splitlines()
        if ext == "jsonl":
            payload = json.loads(lines[-1])["summary"] if lines else None
        else:
            payload = json.loads(text)
        out.append((payload, len(text.encode())))
    return out


def cli_call(tracer, tally, meter, directory: Path, command, names, ext,
             rays, points=0, set_index=0):
    """One directory-mode CLI call, gated per scenario.

    Returns (speed.Timing, output bytes, emitted trace samples).  The span
    carries the rays and certified points behind the CLI throughputs, and
    which scenario set ran.
    """
    with meter.timed() as timing, tracer.span(
            f"cli.{command}", rays=rays, points=points,
            set=set_index) as attrs:
        try:
            rc, err = run_cli([command, "--config", str(directory),
                               "--no-meta"])
        except Exception as e:  # counted, never retried
            rc, err = None, f"{type(e).__name__}: {e}"
    outs = collect_outputs(directory, names, ext)
    n_bytes = samples = 0
    for name, (payload, size) in zip(names, outs):
        ok = payload is not None and payload.get("pass") is True
        tally.record(ok, f"{command} {directory.parent.name}/{name}: "
                         f"rc {rc} {err.strip()[:200]}")
        n_bytes += size
        if ok and ext == "jsonl":
            samples += int(payload["samples"])
    if rc != 0 and all(p is not None and p.get("pass") is True
                       for p, _ in outs):
        tally.record(False, f"{command}: rc {rc} with passing reports")
    if ext == "jsonl":
        attrs["points"] = samples
    return timing, n_bytes, samples


class RayWorkload:
    """compare_transports on one fixture, one seeded ray per op."""

    def __init__(self, name, fixture: _Fixture, tail_level, salt):
        self.name = name
        self.fx = fixture
        self.tail_level = tail_level
        self.salt = salt
        self.certify_fixtures = (fixture.fixture,)
        self.fixtures = (fixture.fixture,)

    def prepare(self, seed, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.fx.build()

    def items(self):
        """The op sequence: the same seed always gives the same rays."""
        rng = np.random.default_rng([self.seed, self.salt])
        for i in itertools.count():
            yield i, self.fx.ray_input(rng)[3]

    def probe_rays(self, count):
        """The first rays of the op sequence, with their CLI scenarios."""
        rng = np.random.default_rng([self.seed, self.salt])
        rays = []
        for _ in range(count):
            x0, xi0, _, state = self.fx.ray_input(rng)
            pol = [[float(v.real), float(v.imag)] for v in state.w]
            rays.append((state, self.fx.scenario(x0, xi0, pol)))
        return rays

    def controls(self, tracer, tally, broken_op):
        _, first = next(self.items())
        self.fx.bit_for_bit(tracer, tally, first)
        control = self.fx.control_input()[3]
        ctrl = self.fx.compare(tracer, control, t_end=CONTROL_T_END,
                               flip=True)
        tally.record(ctrl.max_gap > CONTROL_GAP,
                     f"flipped-sign control gap {ctrl.max_gap:.2e} "
                     f"<= {CONTROL_GAP}")
        if broken_op:
            rpt = self.fx.compare(tracer, control, flip=True)
            tally.record(ray_ok(rpt), "deliberately broken op (flipped sign)")

    def op(self, tracer, tally, item, res: LoopResult, meter):
        """One ray: inputs handed to compare_transports until the report
        returns, then the gate."""
        i, state = item
        with meter.timed() as t, tracer.span("op", ray=i):
            try:
                rpt = self.fx.compare(tracer, state)
                err = None
            except Exception as e:  # counted, never retried
                rpt, err = None, f"ray {i}: {type(e).__name__}: {e}"
        ok = rpt is not None and ray_ok(rpt)
        tally.record(ok, err or f"ray {i} failed the gate")
        res.ops += 1
        res.latencies.append((t.seconds, t.factor))
        res.ray_calls.append((t.seconds, t.factor))
        if ok:
            res.rays += 1
            res.points += rpt.trajectory.n


@dataclass
class _ScenarioSet:
    directory: Path
    compare: list       # [(name, state, scenario)]
    trace: list         # [(name, state, scenario)]
    certify: list       # [(name, points)]


class CliBatch:
    """diracsym.cli.main in directory mode: compare, certify, trace."""

    name = "cli-batch"
    tail_level = 75
    n_sets = 3
    n_compare = 3  # the library probes re-run exactly these rays
    n_trace = 2
    certify_points = 4

    def __init__(self, salt):
        self.salt = salt
        # compare and trace scenarios share schwarzschild1.0 and one grid
        self.fx = _Fixture("schwarzschild1.0", "rk4_fixed", 0.05, 1e-3,
                           1e-10, _schwarzschild_start)
        self.certify_fixtures = CERTIFY_FIXTURES
        self.fixtures = ("schwarzschild1.0",)

    def prepare(self, seed, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.fx.build()
        rng = np.random.default_rng([seed, self.salt])
        self.sets = []
        for j in range(self.n_sets):
            d = workdir / f"set{j}"
            sets = {"compare": [], "trace": [], "certify": []}
            for sub, prefix, count in (("compare", "c", self.n_compare),
                                       ("trace", "t", self.n_trace)):
                cfgs = {}
                for i in range(count):
                    x0, xi0, k, state = self.fx.ray_input(rng)
                    cfg = self.fx.scenario(x0, xi0, f"kernel_basis({k})")
                    cfgs[f"{prefix}{i}"] = cfg
                    sets[sub].append((f"{prefix}{i}", state, cfg))
                write_scenarios(d / sub, cfgs)
            cfgs = {}
            for i, fid in enumerate(CERTIFY_FIXTURES):
                cfgs[f"f{i}"] = {"metric": fid,
                                 "sample": {"points": self.certify_points,
                                            "seed": int(rng.integers(2**31))}}
                sets["certify"].append((f"f{i}", self.certify_points))
            write_scenarios(d / "certify", cfgs)
            self.sets.append(_ScenarioSet(d, sets["compare"], sets["trace"],
                                          sets["certify"]))

    def probe_rays(self, count):
        """The first compare scenarios of the first set, as library rays."""
        return [(state, cfg) for _, state, cfg in self.sets[0].compare[:count]]

    def controls(self, tracer, tally, broken_op):
        first = self.sets[0].compare[0][1]
        self.fx.bit_for_bit(tracer, tally, first)
        x0, xi0, k, _ = self.fx.control_input()
        ctrl_dir = self.workdir / "control"
        write_scenarios(ctrl_dir, {
            "flip": self.fx.scenario(x0, xi0, f"kernel_basis({k})",
                                     t_end=CONTROL_T_END)})
        out = ctrl_dir / "flip.out.json"
        rc, _ = run_cli(["compare", "--config", str(ctrl_dir / "flip.json"),
                         "--no-meta", "--out", str(out),
                         "--flip-subprincipal-sign"])
        payload = json.loads(out.read_text()) if out.exists() else {}
        gap = payload.get("max_gap", 0.0)
        tally.record(rc == 1 and payload.get("pass") is False
                     and gap > CONTROL_GAP,
                     f"flipped-sign CLI control: rc {rc}, gap {gap}")
        if broken_op:
            s = self.sets[0]
            rc, err = run_cli(["compare", "--config", str(s.directory /
                                                         "compare"),
                               "--no-meta", "--flip-subprincipal-sign"])
            outs = collect_outputs(s.directory / "compare",
                                   [n for n, *_ in s.compare], "json")
            ok = rc == 0 and all(p is not None and p.get("pass") is True
                                 for p, _ in outs)
            tally.record(ok, "deliberately broken op (flipped sign)")

    def items(self):
        """Rounds cycle through the scenario sets."""
        for r in itertools.count():
            yield r, r % self.n_sets

    def op(self, tracer, tally, item, res: LoopResult, meter):
        """One round: a compare, a certify and a trace directory call."""
        r, j = item
        s = self.sets[j]
        grid_samples = round(self.fx.t_end / self.fx.step) + 1
        n_cert = sum(p for _, p in s.certify)
        with tracer.span("op", round=r):
            t_c, b_c, _ = cli_call(
                tracer, tally, meter, s.directory / "compare", "compare",
                [n for n, *_ in s.compare], "json", len(s.compare),
                len(s.compare) * grid_samples, set_index=j)
            t_f, b_f, _ = cli_call(
                tracer, tally, meter, s.directory / "certify", "certify",
                [n for n, _ in s.certify], "json", 0, n_cert, set_index=j)
            t_t, b_t, samples = cli_call(
                tracer, tally, meter, s.directory / "trace", "trace",
                [n for n, *_ in s.trace], "jsonl", len(s.trace), set_index=j)
        if r == 0:
            self.round_bytes = b_c + b_f + b_t
        # rays are the compare scenarios, as compare_transports calls are
        # on the ray workloads; certify and trace count as certified points
        res.ops += 1
        res.latencies.append((t_c.seconds / len(s.compare), t_c.factor))
        res.ray_calls.append((t_c.seconds, t_c.factor))
        res.other_calls += [(t.seconds, t.factor) for t in (t_f, t_t)]
        res.rays += len(s.compare)
        res.points += len(s.compare) * grid_samples + n_cert + samples


def run_loop(wl, tally, seconds, tracers, meter):
    """Closed loop over the workload's seeded op sequence for ``seconds``.

    With two tracers every op runs under both, in alternating order, so
    the untraced and traced times pair up on identical inputs.  ``meter``
    (speed.Meter) times each op.
    """
    results = [LoopResult() for _ in tracers]
    deadline = time.perf_counter() + seconds
    for k, item in enumerate(wl.items()):
        if k and time.perf_counter() >= deadline:
            break
        order = range(len(tracers))
        for j in (order if k % 2 == 0 else reversed(order)):
            wl.op(tracers[j], tally, item, results[j], meter)
    return results


def make(name: str):
    if name == "ray-schwarzschild":
        return RayWorkload(name, _Fixture(
            "schwarzschild1.0", "rk4_fixed", 0.1, 1e-3, 1e-10,
            _schwarzschild_start), tail_level=90, salt=1)
    if name == "ray-conformal":
        return RayWorkload(name, _Fixture(
            CONFORMAL, "rk45_adaptive", 0.5, 1e-3, 1e-12,
            _conformal_start), tail_level=90, salt=2)
    if name == "cli-batch":
        return CliBatch(salt=3)
    raise KeyError(name)

