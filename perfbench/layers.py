"""Per-layer probes for the traced run.

Each probe calls one module's public functions directly from here, inside
a span, on the seeded inputs of the workloads whose end-to-end numbers the
layer should move (see README.md for the map).  The probes also check
what they compute; each check is one attempted item.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from dataclasses import replace

import lorenzlab as ll

from inputs import SIZES, build
from workloads import RK4, branch_ok

# classic Lorenz (a, b, c) = (10, 8/3, 28): lambda1 = 0.9056 (Sprott 2003).
# The default run (horizon 500, transient 50, start (1, 1, 1)) is one
# finite-time sample; 0.02 is a few times its spread over start points.
LLE_REFERENCE = 0.9056
LLE_TOLERANCE = 0.02

_IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import lorenzlab; "
    "print(time.perf_counter() - t)"
)


class _Checks:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def __call__(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


def _cli(tracer, m, check, env, repeats) -> None:
    py = sys.executable
    imports, starts = [], []
    with tracer.span("cli.import", repeats):
        for _ in range(repeats):
            out = subprocess.run([py, "-c", _IMPORT_SNIPPET], capture_output=True,
                                 text=True, env=env, timeout=120)
            check(out.returncode == 0, "fresh import lorenzlab failed")
            imports.append(float(out.stdout) if out.returncode == 0 else float("nan"))
    cmd = [py, "-m", "lorenzlab.cli", "certificate", "--a", "1", "--b", "3", "--c", "2"]
    with tracer.span("cli.certificate", repeats):
        for _ in range(repeats):
            t0 = time.perf_counter()
            out = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
            starts.append(time.perf_counter() - t0)
            ok = out.returncode == 0 and json.loads(out.stdout)["converges_to_equilibria"]
            check(ok, "cli certificate a=1 b=3 c=2 did not certify")
    m["cli.import_s"] = statistics.median(imports)
    m["cli.cold_start_s"] = statistics.median(starts)


def _pitchfork(tracer, m, check, specs, workers) -> None:
    cells = [replace(spec.base, c=c, M=mv) for spec in specs
             for c in spec.axes[0].values() for mv in spec.axes[1].values()]
    n = len(cells)
    with tracer.span("equilibria.find_equilibria", n):
        eqs = [ll.find_equilibria(p) for p in cells]
    points = [e.pair[0].location if e.pair else e.origin.location for e in eqs]
    with tracer.span("model.jacobian", n):
        for p, s in zip(cells, points):
            ll.jacobian(p, s)
    with tracer.span("equilibria.eigenvalues_at", n):
        for p, s in zip(cells, points):
            ll.eigenvalues_at(p, s)
    with tracer.span("equilibria.classify_origin", n):
        for p in cells:
            ll.classify_origin(p)
    with tracer.span("lyapunov.certificate", n):
        for p in cells:
            ll.certificate(p)
    with tracer.span("chaos.regime_classify", n):
        for p in cells:
            ll.regime_classify(p)
    per_spec = specs[0].n_cells()
    sample = range(0, per_spec, max(1, per_spec // 200))
    with tracer.span("sweep.cell_values", len(sample)):
        for i in sample:
            specs[0].cell_values(i)
    with tracer.span("sweep.run_sweep.serial", n) as serial:
        results = [ll.run_sweep(spec, workers=1) for spec in specs]
    with tracer.span("sweep.run_sweep.parallel", n) as parallel:
        parallel_results = [ll.run_sweep(spec, workers=workers) for spec in specs]
    parallel_text = "".join(map(ll.sweep_csv, parallel_results))
    with tracer.span("serialize.sweep_csv", len(specs)) as csv:
        text = "".join(map(ll.sweep_csv, results))
    check(text == parallel_text, f"sweep CSV differs between 1 and {workers} workers")

    us = {name: 1e6 * tracer.per_call(name) for name in (
        "model.jacobian", "equilibria.eigenvalues_at", "equilibria.find_equilibria",
        "equilibria.classify_origin", "lyapunov.certificate", "chaos.regime_classify",
        "sweep.cell_values")}
    for name, v in us.items():
        m[name + "_us"] = v
    # the per-cell calls run_sweep makes for these four tasks
    task = sum(us[k] for k in ("equilibria.find_equilibria", "equilibria.classify_origin",
                               "lyapunov.certificate", "chaos.regime_classify"))
    serial_s = serial["end"] - serial["start"]
    speedup = serial_s / (parallel["end"] - parallel["start"])
    m["sweep.task_us_per_cell"] = task
    m["sweep.self_us_per_cell"] = 1e6 * serial_s / n - task
    m["sweep.parallel_speedup"] = speedup
    m["sweep.parallel_efficiency"] = speedup / workers
    m["serialize.sweep_csv_s"] = csv["end"] - csv["start"]
    m["serialize.sweep_csv_bytes"] = len(text.encode())


def _chaos(tracer, m, check, plant) -> None:
    lorenz = ll.SystemParams(a=10.0, b=8.0 / 3.0, c=28.0)
    with tracer.span("chaos.largest_lyapunov_exponent") as sp:
        est = ll.largest_lyapunov_exponent(lorenz)
    lle_s = sp["end"] - sp["start"]
    check(abs(est.lambda1 - LLE_REFERENCE) <= LLE_TOLERANCE,
          f"classic Lorenz lambda1 = {est.lambda1!r}, reference {LLE_REFERENCE}")
    m["chaos.lle_s"] = lle_s
    # default renormalisation interval 1: one window per time unit
    m["chaos.lle_ms_per_window"] = 1e3 * lle_s / est.horizon
    margins = [1.0 + 43.0 * k / 199 for k in range(200)]
    with tracer.span("chaos.suggest_anticontrol", len(margins)):
        for margin in margins:
            ll.suggest_anticontrol(plant.a, plant.b, plant.c, margin)
    m["chaos.suggest_anticontrol_us"] = 1e6 * tracer.per_call("chaos.suggest_anticontrol")


def _orbits(tracer, m, check, inputs, size) -> None:
    lorenz = ll.SystemParams(a=10.0, b=8.0 / 3.0, c=28.0)
    settings = ll.IntegratorSettings(t_max=SIZES[size]["probe_t_max"])
    with tracer.span("integrator.integrate") as sp:
        tr = ll.integrate(lorenz, inputs.start, settings)
    steps = len(tr.times) - 1
    m["integrator.integrate_s"] = sp["end"] - sp["start"]
    m["integrator.accepted_steps"] = steps
    m["integrator.us_per_step.adaptive"] = 1e6 * (sp["end"] - sp["start"]) / steps
    rk4 = replace(RK4, t_max=SIZES[size]["rk4_t_max"])
    with tracer.span("integrator.integrate.rk4") as sp:
        tr4 = ll.integrate(lorenz, inputs.start, rk4)
    m["integrator.us_per_step.rk4"] = 1e6 * (sp["end"] - sp["start"]) / (len(tr4.times) - 1)
    check(tr4.status is ll.TrajectoryStatus.COMPLETED_TSPAN, "rk4 classic Lorenz run")

    slices = inputs.slices[:3]
    with tracer.span("integrator.integrate_to_equilibrium", len(slices)):
        outcomes = [ll.integrate_to_equilibrium(p, (1.0, 1.0, 1.0), ll.find_equilibria(p))
                    for p in slices]
    for out in outcomes:
        check(out.terminal is not None, "certified slice not captured from (1, 1, 1)")
    m["integrator.to_equilibrium_ms"] = 1e3 * tracer.per_call(
        "integrator.integrate_to_equilibrium")

    branches = (ll.Branch.PLUS_X, ll.Branch.MINUS_X)
    for mode, st in (("adaptive", None), ("rk4", RK4)):
        name = f"orbits.trace_heteroclinic.{mode}"
        with tracer.span(name, 2 * len(slices)):
            traced = [(p, ll.trace_heteroclinic(p, br, settings=st))
                      for p in slices for br in branches]
        for p, res in traced:
            check(branch_ok(p, res), f"{mode} branch not captured by its equilibrium")
        m[f"orbits.trace_ms.{mode}"] = 1e3 * tracer.per_call(name)
        if mode == "adaptive":
            m["orbits.branch_steps"] = statistics.mean(
                len(res.trajectory.times) - 1 for _, res in traced)

    with tracer.span("serialize.trajectory_csv"):
        text = ll.trajectory_csv(tr)
    m["serialize.trajectory_csv_s"] = tracer.per_call("serialize.trajectory_csv")
    m["serialize.trajectory_csv_bytes"] = len(text.encode())


def probe(tracer, seed: int, size: str, workers: int, env: dict) -> tuple[dict, _Checks]:
    """Run every probe; returns (metric values, checks)."""
    m: dict = {}
    check = _Checks()
    repeats = SIZES[size]["repeats"]
    with tracer.span("probe.cli"):
        _cli(tracer, m, check, env, repeats)
    with tracer.span("probe.pitchfork_map"):
        _pitchfork(tracer, m, check, build("pitchfork_map", seed, size).specs, workers)
    with tracer.span("probe.chaos"):
        _chaos(tracer, m, check, build("anticontrol_lle", seed, size).plant)
    with tracer.span("probe.orbit_trace"):
        _orbits(tracer, m, check, build("orbit_trace", seed, size), size)
    return m, check
