"""A cold start loads only what the caller touches.

numpy is imported only by ``model.jacobian``, and the process pool by
``run_sweep`` with more than one worker, which by default only a sweep
with the "lle" task gets.  Everything else, the CLI's import, the
equilibria of any cell and a closed-form CLI sweep included, must run
without them, since they are about half of every cold start.  ctypes and
subprocess, which build and load the native stepping loop, load with an
exponent run and with nothing before it, and an orbit after it loads
nothing more.

The package's own modules load the same way: ``import lorenzlab`` loads
none of them, each CLI command imports the computations it runs, and
every module imports alone, with no cycle that an eager package import
used to mask.
"""

import json
import pkgutil
import subprocess
import sys

import pytest

import lorenzlab

HEAVY = ("numpy", "multiprocessing", "concurrent.futures.process")
NATIVE = ("ctypes", "subprocess")

SCRIPT = f"""
import contextlib
import io
import json
import sys

def heavy():
    return [m for m in {HEAVY + NATIVE!r} if m in sys.modules]

seen = dict()
import lorenzlab.cli
seen["import lorenzlab.cli"] = heavy()

from lorenzlab import (
    SweepAxis, SweepSpec, SystemParams, find_equilibria, integrate,
    largest_lyapunov_exponent, run_sweep, suggest_anticontrol,
)
spec = SweepSpec(
    SystemParams(10.0, 8.0 / 3.0, 0.5),
    (SweepAxis("M", 0.0, 40.0, 9),),
    ("equilibria", "origin_class", "certificate", "regime"),
)
rows = run_sweep(spec, workers=1).rows
assert sum(row[1] == "triple" for row in rows) == 8, rows
seen["inline sweep"] = heavy()

# a pair whose float residual is far above rounding noise at this scale
suggestion = suggest_anticontrol(10.0, 8.0 / 3.0, 0.5, margin=1e6)
assert find_equilibria(suggestion.params).kind.value == "triple", suggestion
seen["anticontrol equilibria"] = heavy()

# no --workers: a closed-form sweep runs inline on any number of CPUs
argv = ["sweep", "--a", "10", "--b", "2.66", "--c", "28", "--axis", "c:0:1:3",
        "--tasks", "origin_class"]
with contextlib.redirect_stdout(io.StringIO()) as out:
    assert lorenzlab.cli.main(argv) == 0
assert len(json.loads(out.getvalue())["rows"]) == 3, out.getvalue()
seen["closed-form CLI sweep"] = heavy()

# last: the exponent loads the native loop's modules
est = largest_lyapunov_exponent(
    SystemParams(10.0, 8.0 / 3.0, 28.0), horizon=20.0, transient=5.0
)
assert est.lambda1 > 0.0, est
seen["classic-Lorenz LLE"] = heavy()

# an orbit runs on the native loop too, and loads nothing the exponent did not
trajectory = integrate(SystemParams(10.0, 8.0 / 3.0, 28.0), (1.0, 1.0, 1.0))
assert trajectory.status.value == "completed_tspan", trajectory.status
seen["classic-Lorenz integrate"] = heavy()
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
        "anticontrol equilibria": [],
        "closed-form CLI sweep": [],
        "classic-Lorenz LLE": list(NATIVE),
        "classic-Lorenz integrate": list(NATIVE),
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


def _fresh(script: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


LOADED = (
    "import json, sys\n"
    "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'lorenzlab')))\n"
)

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(lorenzlab.__path__))


def _loaded_by(argv: list[str]) -> list[str]:
    """The package's modules that a fresh ``main(argv)`` loads; it must exit 0."""
    script = (
        "import contextlib, io\n"
        "from lorenzlab.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
    )
    return json.loads(_fresh(script + LOADED))


def test_package_import_loads_no_submodule():
    assert json.loads(_fresh("import lorenzlab\n" + LOADED)) == ["lorenzlab"]


def test_every_submodule_resolves_from_the_package():
    assert SUBMODULES == sorted(lorenzlab._EXPORTS)


@pytest.mark.parametrize("module", SUBMODULES)
def test_each_submodule_resolves_as_an_attribute_after_a_bare_import(module):
    # in this process earlier imports have bound every submodule already,
    # so only a fresh one sees the package's __getattr__ import it
    _fresh(
        "import importlib, lorenzlab\n"
        f"assert lorenzlab.{module} is importlib.import_module('lorenzlab.{module}')\n"
    )


@pytest.mark.parametrize("module", ["lorenzlab", *(f"lorenzlab.{m}" for m in SUBMODULES)])
def test_each_module_imports_alone(module):
    _fresh(f"import {module}\n")


@pytest.mark.parametrize(
    "command, computation",
    [
        ("certificate", "lyapunov"),
        ("classify", "equilibria"),
        ("equilibria", "equilibria"),
        ("regime", "chaos"),
        ("suggest-anticontrol", "chaos"),
    ],
)
def test_closed_form_commands_load_only_their_modules(command, computation):
    # chaos's labels read the certificate and the equilibria; without
    # --verify-lle no exponent runs
    modules = {"chaos": ("chaos", "equilibria", "lyapunov")}.get(
        computation, (computation,)
    )
    if command == "suggest-anticontrol":
        args = ["--a", "10", "--b", "3", "--c", "0.5", "--margin", "1"]
    else:
        args = ["--a", "1", "--b", "3", "--c", "2"]
    loaded = _loaded_by([command, *args])
    # never integrator, orbits or sweep
    assert loaded == sorted(
        ["lorenzlab"]
        + [f"lorenzlab.{m}" for m in ("cli", "errors", "model", "serialize", *modules)]
    )


def test_a_trajectory_csv_loads_no_sweep_engine():
    # emit tells a trajectory from a sweep table before it imports the sweep;
    # the orbit steps on the native loop
    loaded = _loaded_by(
        ["simulate", "--a", "1", "--b", "3", "--c", "2", "--x0", "1", "--y0", "1",
         "--z0", "1", "--t-max", "1", "--format", "csv"]
    )
    assert loaded == sorted(
        ["lorenzlab"]
        + [f"lorenzlab.{m}" for m in ("cli", "errors", "integrator", "model", "native",
                                      "serialize")]
    )
