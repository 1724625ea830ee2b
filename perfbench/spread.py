"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py [--out FILE]

Runs the benchmark once per seed (1-10) on every workload of
BENCHMARK.json for its run_seconds, as the BENCHMARK.json command does,
and prints per metric the median, the quartiles
(statistics.quantiles, n=4) and the spread (Q3 - Q1) / median next to the
metric's bound.  ``--out`` writes the same summary as JSON, e.g. to record
a baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEEDS = range(1, 11)


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    summary: dict = {}
    for workload in (w["name"] for w in BENCH["workloads"]):
        runs = []
        for seed in SEEDS:
            cmd = BENCH["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(BENCH["run_seconds"]),
                                      "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                 timeout=600, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect output\n{out.stderr}",
                      file=sys.stderr)
                return 1
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
            print(f"{workload} seed {seed}: {runs[-1]}", flush=True)
        summary[workload] = {name: summarize([r[name] for r in runs]) for name in bounds}
        for name, s in summary[workload].items():
            flag = "OVER BOUND" if s["spread"] > bounds[name] else (
                "over bound/3" if s["spread"] > bounds[name] / 3 else "ok")
            print(f"{workload:16s} {name:16s} median {s['median']:.6g} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f} "
                  f"bound {bounds[name]} {flag}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
