"""lorenzlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one seeded workload through lorenzlab's public API for S seconds as
a closed loop from one client, checks every output, and prints the
metrics as JSON on the last line of stdout.  ``--trace 0`` gives the
end-to-end metrics; ``--trace 1`` gives the per-layer metrics from probes
timed with in-memory spans, written to .perfbench_out/ at the end.
Workloads, metrics and what moves what: perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time

from calibrate import Calibration
from inputs import ROOT, SIZES, SRC, WORKLOADS, build, import_lorenzlab

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
OUT_DIR = ROOT / ".perfbench_out"
# wall seconds of one full-size batch at the baseline (README.md, Estimators)
BASELINE_BATCH_S = {"pitchfork_map": 1.25, "anticontrol_lle": 0.8, "orbit_trace": 1.5}


def metric_units(kind: str) -> dict:
    """name -> unit of BENCHMARK.json's "end_to_end" or "per_layer" metrics.

    failed_frac is printed too, but it is 0 when the program is correct,
    so it lives in the result's attempted/failed counts.
    """
    return {m["name"]: m["unit"] for m in BENCH[kind]}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workers", type=int, default=1,
                    help="sweep pool size of the timed calls (default 1, maximum nproc)")
    ap.add_argument("--size", choices=tuple(SIZES), default="full",
                    help="tiny only exercises the code paths (smoke test)")
    args = ap.parse_args(argv)
    if not 1 <= args.workers <= nproc():
        ap.error(f"--workers must be between 1 and nproc = {nproc()}")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def provenance(args, inputs, workers: int) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    sha = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        sha = out.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "lorenzlab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace,
        "inputs_sha256": inputs.digest, "workers": workers, "nproc": nproc(),
        "cpu_model": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "git_sha": sha, "src_sha256": src.hexdigest(),
    }


class ChildMemory:
    """Largest summed VmHWM (KiB) of this process's live children.

    A sampler thread reads /proc every ``interval`` seconds while the block
    runs.  VmHWM is each child's own high-water mark, so a child seen at
    least once late in its life is counted at its peak.  The block must
    start no child other than the program's own pool workers.
    """

    def __init__(self, interval: float) -> None:
        self.interval = interval
        self.peak_kib = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.peak_kib = max(self.peak_kib, self._children_hwm())

    @staticmethod
    def _children_hwm() -> int:
        try:
            entries = os.listdir("/proc")
        except OSError:
            return 0
        me, total = os.getpid(), 0
        for pid in filter(str.isdigit, entries):
            try:
                with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
                    if int(fh.read().rsplit(")", 1)[1].split()[1]) != me:
                        continue
                with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                    total += next((int(ln.split()[1]) for ln in fh
                                   if ln.startswith("VmHWM:")), 0)
            except (OSError, ValueError, IndexError):
                continue  # the process ended between listing and reading
        return total


def batch_count(args, seconds: float) -> int:
    """Batches every estimate is taken over: as many as a window of
    ``seconds`` holds at the baseline's speed (1 below full size).

    The window always runs at least this many, and a faster program's
    extra batches are checked but not used, so every commit's fastest
    repeats come from the same number of samples.
    """
    if args.size != "full":
        return 1
    return max(1, math.ceil(seconds / BASELINE_BATCH_S[args.workload]))


class Setup:
    """Fresh-interpreter import + input build, timed between batches.

    ``runs`` of them are spread evenly over the first ``k`` batches, so
    they sample the whole window and not one phase of the box.
    """

    def __init__(self, args, digest: str, k: int) -> None:
        self.cmd = [sys.executable, str(ROOT / "perfbench" / "inputs.py"),
                    args.workload, str(args.seed), args.size]
        self.digest, self.k = digest, k
        self.runs = SIZES[args.size]["setup_runs"]
        self.times: list[float] = []
        self.bad = 0

    def after_batch(self, n: int) -> None:
        """Runs the share of set-ups due after the n-th batch."""
        if n > self.k:
            return
        for _ in range(n * self.runs // self.k - (n - 1) * self.runs // self.k):
            t0 = time.perf_counter()
            out = subprocess.run(self.cmd, capture_output=True, text=True,
                                 env=child_env(), timeout=120)
            self.times.append(time.perf_counter() - t0)
            self.bad += out.returncode != 0 or out.stdout.strip() != self.digest


def warm_up(workload):
    """One untimed batch, with the pool workers' memory sampled every 5 ms.

    Returns the batch (checked like every other) and the peak summed
    VmHWM (KiB) of the pool workers.  The sampler is kept out of the
    timed batches, where it would take CPU from the program.
    """
    with ChildMemory(0.005) as mem:
        batch = workload.batch()
    return batch, mem.peak_kib


def run_window(workload, k: int, seconds: float, tracer=None, after_batch=None):
    """Repeat the workload's batch for ``seconds``, and at least ``k`` times.

    ``after_batch(n)`` runs after the n-th batch, outside the timed calls.
    """
    batches = []
    start = time.perf_counter()
    while len(batches) < k or time.perf_counter() - start < seconds:
        if tracer is None:
            batches.append(workload.batch())
        else:
            with tracer.span("batch"):
                batches.append(workload.batch(tracer))
        if after_batch is not None:
            after_batch(len(batches))
    return batches


def fastest(batches) -> tuple[float, float]:
    """Wall and CPU seconds of one batch with every timed call at its
    fastest repeat over ``batches``.

    Interference from other tenants of a shared box only ever slows a
    call down, and it comes and goes over seconds to minutes, so a call's
    fastest repeat is a far steadier figure of its own cost than a mean
    or median over the run (see README.md, "Estimators").
    """
    wall = sum(map(min, zip(*(b.wall for b in batches))))
    cpu = sum(map(min, zip(*(b.cpu for b in batches))))
    return wall, cpu


def items_per_s(batches) -> float:
    return batches[0].items / fastest(batches)[0]


def metric_line(name: str, value: float, unit: str) -> str:
    return f"{name:34s} {value!r} {unit}"


def main(argv=None) -> int:
    args = parse_args(argv)
    import_lorenzlab()
    from workloads import WORKLOAD_CLASSES  # needs lorenzlab on sys.path

    inputs = build(args.workload, args.seed, args.size)
    wl = WORKLOAD_CLASSES[args.workload](inputs, args.workers, nproc())
    prov = provenance(args, inputs, wl.workers)
    print(json.dumps({"provenance": prov}), flush=True)
    attempted = failed = 0
    notes: list[str] = []

    if args.trace == 0:
        k = batch_count(args, args.seconds)
        setup = Setup(args, inputs.digest, k)
        cal = Calibration(k)

        def after_batch(n: int) -> None:
            setup.after_batch(n)
            cal.after_batch(n)

        wl.prepare()
        first, pool_kib = warm_up(wl)
        batches = run_window(wl, k, args.seconds, after_batch=after_batch)
        attempted += len(setup.times)
        failed += setup.bad
        if setup.bad:
            notes.append(f"{setup.bad} fresh-interpreter input builds disagreed")
        self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # timings as measured, then scaled to the baseline box's speed
        raw = {
            "setup_s": min(setup.times),
            "items_per_s": items_per_s(batches[:k]),
            "cpu_ms_per_item": 1e3 * fastest(batches[:k])[1] / batches[0].items,
        }
        slow = cal.slowdown()
        print(f"box slowdown {slow!r} (fastest reference loop "
              f"{min(cal.times)!r} s); unscaled: "
              + ", ".join(f"{name} {v!r}" for name, v in raw.items()))
        metrics = {
            "setup_s": raw["setup_s"] / slow,
            "items_per_s": raw["items_per_s"] * slow,
            "cpu_ms_per_item": raw["cpu_ms_per_item"] / slow,
            "peak_rss_mb": (self_kib + pool_kib) / 1024.0,
        }
        batches.insert(0, first)
        units = metric_units("end_to_end")
    else:
        import layers
        import spans

        k = batch_count(args, args.seconds / 2)
        wl.prepare()
        first, _ = warm_up(wl)
        untraced = run_window(wl, k, args.seconds / 2)
        tracers = {"workload": spans.Tracer(), "probes": spans.Tracer()}
        traced = run_window(wl, k, args.seconds / 2, tracers["workload"])
        batches = [first] + untraced + traced
        metrics, checks = layers.probe(tracers["probes"], args.seed, args.size,
                                       nproc(), child_env())
        metrics["trace.overhead_frac"] = (
            1.0 - items_per_s(traced[:k]) / items_per_s(untraced[:k]))
        attempted += checks.attempted
        failed += checks.failed
        notes += checks.notes
        units = metric_units("per_layer")
        path = OUT_DIR / f"spans-{args.workload}-{args.seed}.json"
        spans.write(path, prov, tracers)
        for key, tracer in tracers.items():
            for name, st in sorted(tracer.stats().items()):
                print(f"{key} span {name:36s} spans={st['spans']} calls={st['calls']} "
                      f"busy_s={st['busy_s']:.6f} self_s={st['self_s']:.6f} "
                      f"failures={st['failures']}")
        print(f"spans written to {path.relative_to(ROOT)}")

    attempted += sum(b.items for b in batches)
    failed += sum(b.failed for b in batches)
    if failed and not notes:
        notes.append("workload items failed their checks")
    for note in notes:
        print(f"FAILED: {note}", file=sys.stderr)
    rates = [b.items / sum(b.wall) for b in batches]
    print(f"batches {len(batches)}, attempted {attempted}, failed {failed}; "
          f"items/s per batch: median {statistics.median(rates)!r}, "
          f"min {min(rates)!r}, max {max(rates)!r}")
    if getattr(wl, "ref_sha", None):
        print(f"sweep csv sha256 {wl.ref_sha}")
    print(metric_line("failed_frac", failed / attempted, "ratio"))
    for name, value in metrics.items():
        print(metric_line(name, value, units[name]))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
