"""Deterministic parameter sweeps over one or two axes.

Cells are laid out row-major in axis declaration order (the order of
``itertools.product`` over the axes' values) and evaluated independently
by _rows, which walks one contiguous range of them: the whole grid when
inline, one chunk per task on a process pool.  Every task is a pure
function of the cell's parameters, so the assembled table is identical
(byte for byte once serialized) for any worker count.  A cell whose
evaluation raises records the error in its row instead of aborting the
sweep.  A cell's row comes from a function generated once per process for
each task tuple and axis layout (see _row_source), which runs the spec's
tasks inline, with no per-task dispatch.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass, field
from typing import Callable

from .chaos import _LLE_WINDOW, _lle_windows, _regime, largest_lyapunov_exponent
from .equilibria import _equilibrium_parts, _origin_class, _origin_dims
from .errors import WorkerPoolError
from .integrator import IntegratorSettings
from .lyapunov import _certificate_columns
from .model import PARAM_NAMES, SWEEP_TASKS, SystemParams, _float_field, _integer

# an axis's position here is its parameter's position in SystemParams
AXIS_NAMES = PARAM_NAMES

TASKS = SWEEP_TASKS

_TASK_COLUMNS = {
    "equilibria": ("equilibria_kind", "e_plus_x", "e_plus_y", "e_plus_z"),
    "origin_class": ("origin_class",),
    "certificate": (
        "lemma_ok",
        "conv_ok",
        "het_ok",
        "no_closed_orbits",
        "no_homoclinic",
        "converges_to_equilibria",
        "heteroclinic_pair",
        "chaos_possible",
    ),
    "regime": ("regime",),
    "lle": ("lle",),
}


@dataclass(frozen=True)
class SweepAxis:
    """Evenly spaced grid over one parameter.

    Grid point i is start + i * (stop - start) / (count - 1); the first
    and last points are start and stop themselves, a -0.0 start or a step
    that overflows included.  Where stop - start overflows, point i is
    formed in halves, (start + i * h) + i * h with h = (stop / 2 - start /
    2) / (count - 1).  The fields are checked in one pass: name, then
    start and stop, each a finite number coerced by model._float_field, so
    every grid point is a finite float, then count, an integer of at least
    2 by model._integer.
    """

    name: str
    start: float
    stop: float
    count: int

    def __post_init__(self) -> None:
        if self.name not in AXIS_NAMES:
            raise ValueError(f"axis name must be one of {AXIS_NAMES}, got {self.name!r}")
        for end in ("start", "stop"):
            value = _float_field(self, end, f"axis {end}")
            if not math.isfinite(value):
                raise ValueError(f"axis {end} must be finite, got {value!r}")
        object.__setattr__(self, "count", _integer(self.count, "axis count"))
        if self.count < 2:
            raise ValueError("axis count must be at least 2")

    def values(self) -> list[float]:
        start = self.start
        step = (self.stop - start) / (self.count - 1)
        if math.isinf(step):
            half = (self.stop / 2.0 - start / 2.0) / (self.count - 1)
            vals = [(start + i * half) + i * half for i in range(self.count)]
        else:
            vals = [start + i * step for i in range(self.count)]
        vals[0] = start
        vals[-1] = self.stop
        return vals


@dataclass(frozen=True)
class SweepSpec:
    """Base parameters, up to two axes, and the tasks to run per cell.

    Every task is deterministic.  The integrator settings and the lle_*
    knobs only matter when the "lle" task is on; the knobs are then
    checked here, as largest_lyapunov_exponent checks them, so a bad
    window fails before any cell runs rather than in every row.
    """

    base: SystemParams
    axes: tuple[SweepAxis, ...]
    tasks: tuple[str, ...]
    settings: IntegratorSettings = field(default_factory=IntegratorSettings)
    lle_renorm_interval: float = _LLE_WINDOW["renorm_interval"]
    lle_horizon: float = _LLE_WINDOW["horizon"]
    lle_transient: float = _LLE_WINDOW["transient"]

    def __post_init__(self) -> None:
        # tuples, as the generated row is cached by the task tuple and axis names
        object.__setattr__(self, "axes", tuple(self.axes))
        object.__setattr__(self, "tasks", tuple(self.tasks))
        if not 1 <= len(self.axes) <= 2:
            raise ValueError("a sweep takes one or two axes")
        names = [ax.name for ax in self.axes]
        if len(set(names)) != len(names):
            raise ValueError("axes must use distinct parameter names")
        if not self.tasks:
            raise ValueError("at least one task is required")
        seen = set()
        for task in self.tasks:
            if task not in TASKS:
                raise ValueError(f"unknown task {task!r}; available: {TASKS}")
            if task in seen:
                raise ValueError(f"duplicate task {task!r}")
            seen.add(task)
        if "lle" in seen:
            _lle_windows(self.lle_renorm_interval, self.lle_horizon, self.lle_transient)

    def n_cells(self) -> int:
        n = 1
        for ax in self.axes:
            n *= ax.count
        return n

    def columns(self) -> tuple[str, ...]:
        tasks = (c for task in self.tasks for c in _TASK_COLUMNS[task])
        return (*(ax.name for ax in self.axes), *tasks, "error")

    def cell_values(self, index: int) -> tuple[float, ...]:
        """Axis values of the cell at flat position ``index``, in _rows'
        order.  It forms the axes on each call; no path in the package
        calls it."""
        values = [ax.values() for ax in self.axes]
        if len(values) == 1:
            return (values[0][index],)
        i0, i1 = divmod(index, len(values[1]))
        return (values[0][i0], values[1][i1])


@dataclass(frozen=True)
class SweepResult:
    """The sweep table: one tuple per cell, aligned with ``columns``.

    _rows forms the grid once per call and walks it with
    ``itertools.product``, so the rows of one call repeat each grid value
    as one float object, and a row's E+ x and y are one float object.
    sweep_csv renders the table a column at a time: it forms the text of
    each float object of an axis column once, and it reuses the texts of a
    column for a next column of the same objects.  Any rows (inline,
    pooled, reordered or hand-built) render the same, each float as its
    ``repr``.
    """

    spec: SweepSpec
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]


# The names under which this module holds the callables a generated row
# calls, taken from the objects, so the row's source names only what this
# module imports.  The row looks each name up in this module's globals as
# it runs, so a cell calls whatever the module holds under it then.
_CERTIFICATE, _EQUILIBRIA, _ORIGIN_DIMS, _ORIGIN_CLASS, _REGIME, _LLE = (
    f.__name__
    for f in (
        _certificate_columns,
        _equilibrium_parts,
        _origin_dims,
        _origin_class,
        _regime,
        largest_lyapunov_exponent,
    )
)


def _row_source(tasks: tuple[str, ...], names: tuple[str, ...]) -> str:
    """Source of ``row(spec, base, values)``, the row of one cell of
    ``spec`` (tasks ``tasks``, axes ``names``): ``base`` holds the base's
    six floats in field order and ``values`` the cell's axis values.

    The row unpacks the base's six floats, writes the axis values over
    their names and runs the tasks inline in the spec's order, so an error
    row carries the first task that raises.  The closed forms take the six
    floats and write their columns from plain values (_certificate_columns,
    _equilibrium_parts, _origin_dims, _origin_class, _regime), so a cell
    builds no result object and solves no spectrum; the lle task builds a
    SystemParams, for the integrator.  The fields are finite floats, as
    SystemParams and SweepAxis refuse any other, so the row checks none.
    A certificate that a task reads is computed first, into its column
    names, and so are the origin's counts, ``origin``, when the row writes
    the origin class: that label and the regime both read them.  The
    equilibria, ``parts``, start as None and are computed at most once, by
    whichever of the regime and equilibria tasks needs them first.  Enum
    labels are read through ``_value_``, which the ``value`` property
    returns.  The row is one tuple display that starts with the axis
    values themselves; an exception becomes the row's error column.
    """
    fields = ", ".join(PARAM_NAMES)
    body = ["parts = None"]
    if "certificate" in tasks or "regime" in tasks:
        flags = ", ".join(_TASK_COLUMNS["certificate"])
        body.append(f"{flags} = {_CERTIFICATE}({fields})")
    origin = "None"
    if "origin_class" in tasks:
        origin = "origin"
        body.append(f"origin = {_ORIGIN_DIMS}({fields})")
    for task in tasks:
        if task == "equilibria":
            body += [
                "if parts is None:",
                f"    parts = {_EQUILIBRIA}({fields})",
                "kind, pair = parts",
                "equilibria_kind = kind._value_",
                "if pair is None:",
                "    e_plus_x = e_plus_y = e_plus_z = None",
                "else:",
                "    e_plus_x = e_plus_y = pair[0]",
                "    e_plus_z = pair[1]",
            ]
        elif task == "origin_class":
            body.append(f"origin_class = {_ORIGIN_CLASS}(b, origin)._value_")
        elif task == "regime":
            body += [
                f"label, parts = {_REGIME}(converges_to_equilibria, "
                f"chaos_possible, parts, {origin}, ({fields}))",
                "regime = label._value_",
            ]
        elif task == "lle":
            body.append(
                f"lle = {_LLE}(SystemParams({fields}), "
                "settings=spec.settings, renorm_interval=spec.lle_renorm_interval, "
                "horizon=spec.lle_horizon, transient=spec.lle_transient).lambda1"
            )
    columns = [c for task in tasks for c in _TASK_COLUMNS[task]]
    axes = "".join(f"{name}, " for name in names)
    body.append(f"return ({axes}{', '.join(columns)}, None)")
    error = "f'{type(exc).__name__}: {exc}'"
    return "\n".join([
        "def row(spec, base, values):",
        f"    {fields} = base",
        f"    {axes}= values",
        "    try:",
        *(f"        {line}" for line in body),
        "    except Exception as exc:  # error rows must not kill the sweep",
        f"        return ({axes}{'None, ' * len(columns)}{error})",
    ])


@functools.cache
def _row(tasks: tuple[str, ...], names: tuple[str, ...]) -> Callable[..., tuple]:
    """The compiled row of one task tuple and axis layout, built on first
    use.  It runs with this module's globals, so it calls the closed forms
    this module holds at call time, and no spec stores it, so a spec
    pickles as its fields."""
    namespace: dict = {}
    source = _row_source(tasks, names)
    exec(compile(source, "<sweep row>", "exec"), globals(), namespace)
    return namespace["row"]


def _rows(spec: SweepSpec, cells: range) -> list[tuple]:
    """The rows of ``spec``'s row-major cells ``cells``, a contiguous range.

    The one code that walks the grid and evaluates cells: it looks the row
    up and forms the base's six floats and the axes' values once per call.
    """
    row = _row(spec.tasks, tuple(ax.name for ax in spec.axes))
    base = tuple(getattr(spec.base, name) for name in PARAM_NAMES)
    grid = itertools.product(*(ax.values() for ax in spec.axes))
    values = itertools.islice(grid, cells.start, cells.stop)
    return list(map(row, itertools.repeat(spec), itertools.repeat(base), values))


def run_sweep(spec: SweepSpec, workers: int | None = None) -> SweepResult:
    """Evaluate every cell and assemble the table in grid order.

    Both paths evaluate cells through _rows.  An inline run calls it once
    on the whole grid.  A pool splits the grid into contiguous ranges of
    max(1, n // (4 * workers)) cells, maps _rows over them and joins their
    rows in grid order.

    ``workers`` = 1 runs inline; None uses one process per CPU this
    process may run on (its affinity mask where the platform has one, else
    ``os.cpu_count()``) if the "lle" task is on and runs inline otherwise,
    as a closed-form cell costs less than starting a pool.  No more
    processes start than there are cells.  ``workers`` must be an integer
    (model._integer) of at least 1, else ValueError.  The output is
    independent of the worker count.  A worker process that dies raises
    WorkerPoolError.
    """
    n = spec.n_cells()
    if workers is None:
        workers = 1
        if "lle" in spec.tasks:
            # an affinity mask or cpuset can leave fewer CPUs than the machine has
            affinity = getattr(os, "sched_getaffinity", None)
            workers = len(affinity(0)) if affinity else (os.cpu_count() or 1)
    else:
        workers = _integer(workers, "workers")
        if workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
    workers = min(workers, n)
    if workers == 1:
        rows = _rows(spec, range(n))
    else:
        # the pool's modules load only on this path, not with the package
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        chunk = max(1, n // (4 * workers))
        chunks = [range(i, min(i + chunk, n)) for i in range(0, n, chunk)]
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                parts = pool.map(functools.partial(_rows, spec), chunks)
                rows = [row for part in parts for row in part]
        except BrokenProcessPool as exc:
            axes = " x ".join(
                f"{ax.name}:{ax.start!r}:{ax.stop!r}:{ax.count}" for ax in spec.axes
            )
            raise WorkerPoolError(
                f"a worker process died during the sweep over {axes} "
                f"(tasks {','.join(spec.tasks)})"
            ) from exc
    return SweepResult(spec=spec, columns=spec.columns(), rows=tuple(rows))
