"""The default paths load neither numpy nor the process pool.

numpy is imported by ``model.jacobian`` and by the Newton fallback of
``equilibria._polish``, and the process pool by ``run_sweep`` with more
than one worker.  Everything else, the CLI's import included, must run
without them, since they are about half of every cold start.
"""

import json
import subprocess
import sys

HEAVY = ("numpy", "multiprocessing", "concurrent.futures.process")

SCRIPT = f"""
import json
import sys

def heavy():
    return [m for m in {HEAVY!r} if m in sys.modules]

seen = dict()
import lorenzlab.cli
seen["import lorenzlab.cli"] = heavy()

from lorenzlab import (
    SweepAxis, SweepSpec, SystemParams, largest_lyapunov_exponent, run_sweep,
)
spec = SweepSpec(
    SystemParams(10.0, 8.0 / 3.0, 0.5),
    (SweepAxis("M", 0.0, 40.0, 9),),
    ("equilibria", "origin_class", "certificate", "regime"),
)
rows = run_sweep(spec, workers=1).rows
assert sum(row[1] == "triple" for row in rows) == 8, rows
seen["inline sweep"] = heavy()

est = largest_lyapunov_exponent(
    SystemParams(10.0, 8.0 / 3.0, 28.0), horizon=20.0, transient=5.0
)
assert est.lambda1 > 0.0, est
seen["classic-Lorenz LLE"] = heavy()
print(json.dumps(seen))
"""


def test_default_paths_load_neither_numpy_nor_the_pool():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "import lorenzlab.cli": [],
        "inline sweep": [],
        "classic-Lorenz LLE": [],
    }


def test_the_script_sees_the_heavy_modules_when_they_load():
    # the probe itself works: asking for a Jacobian and a pool loads them
    script = (
        "import sys\n"
        "from lorenzlab import SystemParams, jacobian\n"
        "jacobian(SystemParams(1.0, 2.0, 3.0), (0.0, 0.0, 0.0))\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        f"print([m for m in {HEAVY!r} if m in sys.modules])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == repr(list(HEAVY))
