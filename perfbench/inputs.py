"""Seeded inputs for the benchmark workloads.

The program only ever sees what ``build`` returns; the seed stays here.
Run as a script (``python3 perfbench/inputs.py WORKLOAD SEED SIZE``) it
imports lorenzlab in a fresh interpreter, builds the inputs and prints
their digest: that is the cold start the ``setup_s`` metric times.
"""

from __future__ import annotations

import hashlib
import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("pitchfork_map", "anticontrol_lle", "orbit_trace")
PITCHFORK_TASKS = ("equilibria", "origin_class", "certificate", "regime")

# "full" is what the benchmark measures; "tiny" only exercises the code
# paths (smoke test).  Every timed program call is kept well under a second
# (README.md, Estimators): the map is split into ``grids`` 2-D sweeps, the
# LLE runs at horizon 50 (transient 5) instead of the library default 500
# (50), in pairs of neighbouring cells, and the recorded classic-Lorenz
# orbit runs to t_max = 50.  The traced run's integrator probe keeps the
# library default t_max = 200 (``probe_t_max``).
SIZES = {
    "full": {
        "grids": 4, "rows": 2, "cols": 626, "lle_cells": 8, "lle_horizon": 50.0,
        "lle_transient": 5.0, "slices": 4, "t_max": 50.0, "probe_t_max": 200.0,
        "rk4_t_max": 10.0, "setup_runs": 12, "repeats": 5,
    },
    "tiny": {
        "grids": 2, "rows": 2, "cols": 21, "lle_cells": 2, "lle_horizon": 60.0,
        "lle_transient": 10.0, "slices": 2, "t_max": 5.0, "probe_t_max": 5.0,
        "rk4_t_max": 1.0, "setup_runs": 1, "repeats": 1,
    },
}


def import_lorenzlab():
    """Import the package from this checkout's ``src``, or exit with status 1.

    An installed copy elsewhere must not stand in for the source tree
    being measured.
    """
    if not (SRC / "lorenzlab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no source tree at {SRC}/lorenzlab")
    sys.path.insert(0, str(SRC))
    import lorenzlab

    if Path(lorenzlab.__file__).resolve().parent != (SRC / "lorenzlab").resolve():
        sys.exit(f"perfbench: lorenzlab imported from {lorenzlab.__file__}, not {SRC}")
    return lorenzlab


@dataclass(frozen=True)
class Inputs:
    workload: str
    seed: int
    size: str
    specs: tuple = ()  # SweepSpecs for the sweep workloads, one per timed call
    plant: object = None  # anticontrol_lle: the stable plant
    slices: tuple = ()  # orbit_trace: certified slices
    start: tuple = ()  # orbit_trace: start of the classic-Lorenz orbit
    t_max: float = 0.0

    @property
    def digest(self) -> str:
        # frozen dataclasses repr their floats with repr(), so this text
        # pins every input bit for bit
        return hashlib.sha256(repr(self).encode()).hexdigest()


def build(workload: str, seed: int, size: str = "full") -> Inputs:
    ll = import_lorenzlab()
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; available: {WORKLOADS}")
    n = SIZES[size]
    rng = random.Random(f"{workload}:{seed}")
    u = rng.uniform
    if workload == "pitchfork_map":
        # chaos-capable plants (b < 2a): every row crosses the pitchfork
        # M = 1 - c near its start and the Hopf point of E+- near M = 24,
        # so origin class, equilibria kind and regime all change per row
        specs = []
        for _ in range(n["grids"]):
            a, b = u(9.5, 10.5), u(2.5, 2.9)
            specs.append(ll.SweepSpec(
                base=ll.SystemParams(a=a, b=b, c=0.5),
                axes=(
                    ll.SweepAxis("c", u(0.1, 0.5), u(0.5, 0.9), n["rows"]),
                    ll.SweepAxis("M", u(-1.0, -0.5), u(35.0, 40.0), n["cols"]),
                ),
                tasks=PITCHFORK_TASKS,
            ))
        return Inputs(workload, seed, size, specs=tuple(specs))
    if workload == "anticontrol_lle":
        # near-classic plant; the margins put rho = c + M at 44..45 for the
        # first cell and 2..3 for the last, so the first cells are chaotic
        # (lambda1 > 0) and the last ones settle on E+- (lambda1 < 0).  The
        # M axis is swept in pairs of neighbouring cells, one call each.
        a, b, c = u(9.9, 10.1), u(2.62, 2.72), u(0.25, 0.75)
        lo = ll.suggest_anticontrol(a, b, c, margin=u(1.0, 2.0))
        hi = ll.suggest_anticontrol(a, b, c, margin=u(43.0, 44.0))
        axis = ll.SweepAxis("M", hi.params.M, lo.params.M, n["lle_cells"]).values()
        specs = tuple(
            ll.SweepSpec(
                base=lo.params,
                axes=(ll.SweepAxis("M", axis[i], axis[i + 1], 2),),
                tasks=("lle",),
                lle_horizon=n["lle_horizon"],
                lle_transient=n["lle_transient"],
            )
            for i in range(0, len(axis), 2)
        )
        return Inputs(workload, seed, size, specs=specs, plant=ll.SystemParams(a, b, c))
    # orbit_trace: certified slices (b >= 2a, c > 1, N = P = 0), in a box
    # where both branches settle on E+- within a few thousand RK4 steps.
    # Slice j draws a, b - 2a and c from the j-th of k equal strata of
    # their ranges (b and c in a seeded order), so every seed covers the
    # box alike and the batch's cost hardly depends on the seed.
    k = n["slices"]
    b_strata, c_strata = rng.sample(range(k), k), rng.sample(range(k), k)
    slices = []
    for j in range(k):
        a = 3.0 + (j + rng.random()) / k
        b = 2.0 * a + (b_strata[j] + rng.random()) / k
        c = 6.0 + 4.0 * (c_strata[j] + rng.random()) / k
        slices.append(ll.SystemParams(a=a, b=b, c=c))
    start = (u(-10.0, 10.0), u(-10.0, 10.0), u(10.0, 30.0))
    return Inputs(
        workload, seed, size, slices=tuple(slices), start=start, t_max=n["t_max"]
    )


if __name__ == "__main__":
    workload, seed, size = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    print(build(workload, seed, size).digest)
