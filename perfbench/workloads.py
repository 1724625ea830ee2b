"""The three workloads: timed program calls, then checks on their outputs.

Each workload runs its fixed batch of items as a closed loop from one
client (the next call starts when the previous one has returned).  Checks
run outside the timed calls and compare against oracles written here,
independently of the program's own algebra.  An item counts as failed
when it raises, returns an error row, or fails a check.
"""

from __future__ import annotations

import hashlib
import math
import resource
import time
from dataclasses import dataclass, replace

import lorenzlab as ll

from inputs import Inputs

CAPTURE_RADIUS = 1e-6  # trace_heteroclinic's default
RK4 = ll.IntegratorSettings(mode=ll.IntegratorMode.FIXED_RK4)


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Batch:
    """One batch: its items, and wall and CPU seconds of each timed call."""

    items: int
    failed: int
    wall: list[float]
    cpu: list[float]


class _Calls:
    """Times each program call of a batch, in a span when tracing."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.wall: list[float] = []
        self.cpu: list[float] = []

    def __call__(self, name: str, fn, *args, **kw):
        c0, t0 = cpu_seconds(), time.perf_counter()
        try:
            if self.tracer is None:
                return fn(*args, **kw)
            with self.tracer.span(name):
                return fn(*args, **kw)
        finally:
            self.wall.append(time.perf_counter() - t0)
            self.cpu.append(cpu_seconds() - c0)

    def batch(self, items: int, failed: int) -> Batch:
        return Batch(items, min(failed, items), self.wall, self.cpu)


def hopf_rho(a: float, b: float) -> float:
    """rho = c + M above which E+- are unstable, for N = P = 0.

    With N = P = 0 the system is classic Lorenz with rho = c + M.  E+- lose
    stability (Routh-Hurwitz on their cubic) at
    rho = a (a + b + 3) / (a - b - 1), and never when a <= b + 1.
    """
    return a * (a + b + 3.0) / (a - b - 1.0) if a > b + 1.0 else math.inf


def _outside_band(v: float, at: float, rel: float) -> bool:
    return abs(v - at) > rel * (1.0 + abs(at))


def pitchfork_row_ok(p: ll.SystemParams, row: dict) -> bool:
    """Oracle for one pitchfork_map row (N = P = 0, a, b > 0).

    Cells inside the tolerance bands around d = 0 and rho = hopf_rho only
    need an empty error column.
    """
    if row["error"] is not None:
        return False
    d = p.M + p.N + p.c - 1.0
    rho = p.c + p.M
    conv = p.b >= 2.0 * p.a
    flags = {
        "lemma_ok": conv, "conv_ok": conv, "het_ok": conv and rho > 0 and d > 0,
        "no_closed_orbits": conv, "no_homoclinic": conv,
        "converges_to_equilibria": conv,
        "heteroclinic_pair": conv and rho > 0 and d > 0,
        "chaos_possible": not conv,
    }
    if row["regime"] == "provably_regular" and not row["conv_ok"]:
        return False
    if row["conv_ok"] and row["regime"] != "provably_regular":
        return False
    if not _outside_band(d, 0.0, 1e-9 * (1.0 + abs(p.M) + abs(p.c))):
        return True
    if any(row[k] is not v for k, v in flags.items()):
        return False
    if d > 0:
        s = math.sqrt(p.b * d)
        if not (
            row["equilibria_kind"] == "triple"
            and row["origin_class"] == "saddle_ws2_wu1"
            and row["e_plus_x"] == row["e_plus_y"]
            and abs(row["e_plus_x"] - s) <= 1e-9 * (1.0 + s)
            and abs(row["e_plus_z"] - d) <= 1e-9 * (1.0 + d)
        ):
            return False
    elif not (
        row["equilibria_kind"] == "origin_only"
        and row["origin_class"] == "attractor"
        and row["e_plus_x"] is None
    ):
        return False
    r_h = hopf_rho(p.a, p.b)
    if conv or not _outside_band(rho, r_h, 1e-4):
        return True
    expected = "chaos_candidate" if d > 0 and rho > r_h else "undetermined"
    return row["regime"] == expected


class _SweepWorkload:
    """Sweeps rendered as CSV, one timed ``run_sweep`` and one timed
    ``sweep_csv`` per spec; every repeat must match the reference bytes.

    The reference is computed with the other worker count (nproc when the
    timed calls run inline, 1 otherwise), so the byte check also compares
    the serial and the pooled sweep.
    """

    def __init__(self, inputs: Inputs, workers: int, nproc: int) -> None:
        self.specs = inputs.specs
        self.workers = workers
        self.ref_workers = nproc if workers == 1 else 1
        self.n_items = sum(spec.n_cells() for spec in self.specs)
        self.ref_lines: list[list[str]] = []
        self.ref_failed = 0
        self.ref_sha = ""

    @staticmethod
    def _cells(spec, rows) -> list[ll.SystemParams]:
        names = [ax.name for ax in spec.axes]
        k = len(names)
        return [replace(spec.base, **dict(zip(names, r[:k]))) for r in rows]

    def set_reference(self, results, texts) -> None:
        self.ref_lines = [text.split("\n") for text in texts]
        self.ref_sha = sha256("".join(texts))
        self.ref_failed = sum(self.check_rows(spec, result)
                              for spec, result in zip(self.specs, results))

    def check_rows(self, spec, result) -> int:
        raise NotImplementedError

    def prepare(self) -> None:
        """Reference at the other worker count, outside the timed region."""
        results = [ll.run_sweep(spec, workers=self.ref_workers) for spec in self.specs]
        self.set_reference(results, [ll.sweep_csv(r) for r in results])

    def batch(self, tracer=None) -> Batch:
        timed = _Calls(tracer)
        results, texts = [], []
        try:
            for spec in self.specs:
                results.append(timed("sweep.run_sweep", ll.run_sweep, spec,
                                     workers=self.workers))
                texts.append(timed("serialize.sweep_csv", ll.sweep_csv, results[-1]))
        except Exception:  # noqa: BLE001 - a raising sweep fails its items
            return timed.batch(self.n_items, self.n_items)
        differ = 0
        for text, ref in zip(texts, self.ref_lines):
            lines = text.split("\n")
            if len(lines) != len(ref):
                return timed.batch(self.n_items, self.n_items)
            differ += sum(x != y for x, y in zip(lines, ref))
        return timed.batch(self.n_items, self.ref_failed + differ)


class PitchforkMap(_SweepWorkload):
    def check_rows(self, spec, result) -> int:
        bad = 0
        for p, row in zip(self._cells(spec, result.rows), result.rows):
            bad += not pitchfork_row_ok(p, dict(zip(result.columns, row)))
        return bad


class AnticontrolLLE(_SweepWorkload):
    def prepare(self) -> None:
        # the last (cheapest) cell recomputed by a direct call must equal
        # its sweep row
        spec = self.specs[-1]
        p_last = replace(spec.base, M=spec.cell_values(spec.n_cells() - 1)[0])
        self.direct_last = ll.largest_lyapunov_exponent(
            p_last,
            settings=spec.settings,
            renorm_interval=spec.lle_renorm_interval,
            horizon=spec.lle_horizon,
            transient=spec.lle_transient,
        ).lambda1
        super().prepare()

    def check_rows(self, spec, result) -> int:
        """Sign oracle: lambda1 < 0 where E+- are stable and no transient
        chaos exists (rho < 13.9 for these near-classic plants); > 0 where
        every equilibrium is unstable (rho above the Hopf point)."""
        bad = 0
        last = spec is self.specs[-1]
        cells = self._cells(spec, result.rows)
        for i, (p, row) in enumerate(zip(cells, result.rows)):
            lam, err = row[1], row[2]
            rho = p.c + p.M
            ok = err is None and isinstance(lam, float) and math.isfinite(lam)
            if ok and rho < 13.9:
                ok = lam < 0.0
            elif ok and rho > hopf_rho(p.a, p.b) + 0.5:
                ok = lam > 0.0
            if last and i == len(cells) - 1:
                ok = ok and lam == self.direct_last
            bad += not ok
        return bad


def _expected_pair(p: ll.SystemParams) -> tuple[tuple, tuple]:
    d = p.M + p.N + p.c - 1.0
    s = math.sqrt(p.b * d / (1.0 - p.P))
    z = d / (1.0 - p.P)
    return (s, s, z), (-s, -s, z)


def branch_ok(p: ll.SystemParams, res) -> bool:
    """Captured by the expected member of E+-, located independently."""
    plus, minus = _expected_pair(p)
    target = plus if res.branch is ll.Branch.PLUS_X else minus
    last = res.trajectory.states[-1]
    dist = math.sqrt(sum((u - v) ** 2 for u, v in zip(last, target)))
    return (
        res.success
        and res.trajectory.status is ll.TrajectoryStatus.CAPTURED_EQUILIBRIUM
        and dist <= CAPTURE_RADIUS * (1.0 + 1e-6) + 1e-9 * math.hypot(*target)
    )


def trajectory_csv_ok(tr, text: str) -> bool:
    """Every float in the CSV parses back to the same double."""
    lines = text.split("\n")
    if lines[0] != "t,x,y,z" or lines[-1] != "" or len(lines) != len(tr.times) + 2:
        return False
    for line, t, s in zip(lines[1:], tr.times, tr.states):
        if tuple(float(v) for v in line.split(",")) != (t, s.x, s.y, s.z):
            return False
    return True


class OrbitTrace:
    """Both unstable-manifold branches of each slice, adaptive then RK4,
    plus one recorded classic-Lorenz orbit rendered as CSV."""

    def __init__(self, inputs: Inputs, workers: int = 1, nproc: int = 1) -> None:
        self.inputs = inputs
        self.workers = 1
        self.n_items = 4 * len(inputs.slices) + 1
        self.lorenz = ll.SystemParams(a=10.0, b=8.0 / 3.0, c=28.0)
        self.settings = ll.IntegratorSettings(t_max=inputs.t_max)

    def prepare(self) -> None:
        pass

    def batch(self, tracer=None) -> Batch:
        timed = _Calls(tracer)
        failed = 0
        for p in self.inputs.slices:
            for mode, settings in (("adaptive", None), ("rk4", RK4)):
                pair = []
                for branch in (ll.Branch.PLUS_X, ll.Branch.MINUS_X):
                    try:
                        res = timed(f"orbits.trace_heteroclinic.{mode}",
                                    ll.trace_heteroclinic, p, branch, settings=settings)
                    except Exception:  # noqa: BLE001 - counted as a failed item
                        failed += 1
                        continue
                    failed += not branch_ok(p, res)
                    pair.append(res)
                if mode == "rk4" and len(pair) == 2:
                    if ll.branch_symmetry_deviation(*pair) != 0.0:
                        failed += 2
        try:
            tr = timed("integrator.integrate", ll.integrate, self.lorenz,
                       self.inputs.start, self.settings)
            text = timed("serialize.trajectory_csv", ll.trajectory_csv, tr)
            failed += not (
                tr.status is ll.TrajectoryStatus.COMPLETED_TSPAN
                and trajectory_csv_ok(tr, text)
            )
        except Exception:  # noqa: BLE001
            failed += 1
        return timed.batch(self.n_items, failed)


WORKLOAD_CLASSES = {
    "pitchfork_map": PitchforkMap,
    "anticontrol_lle": AnticontrolLLE,
    "orbit_trace": OrbitTrace,
}
