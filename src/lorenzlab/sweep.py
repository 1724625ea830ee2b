"""Deterministic parameter sweeps over one or two axes.

Cells are laid out row-major in axis declaration order and evaluated
independently, either serially or on a process pool.  Every task is a pure
function of the cell's parameters, so the assembled table is identical
(byte for byte once serialized) for any worker count.  A cell whose
evaluation raises records the error in its row instead of aborting the
sweep.
"""

from __future__ import annotations

import functools
import operator
import os
from dataclasses import dataclass, field

from .chaos import _lle_windows, _regime, largest_lyapunov_exponent
from .equilibria import _equilibrium_parts, _origin_class
from .errors import WorkerPoolError
from .integrator import IntegratorSettings
from .lyapunov import _certificate_columns
from .model import PARAM_NAMES, SWEEP_TASKS, SystemParams, _finite_floats

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
    that overflows included.  start and stop are coerced with ``float()``,
    so every grid point is a float; count must be an integer
    (``operator.index``).
    """

    name: str
    start: float
    stop: float
    count: int

    def __post_init__(self) -> None:
        if self.name not in AXIS_NAMES:
            raise ValueError(f"axis name must be one of {AXIS_NAMES}, got {self.name!r}")
        try:
            count = operator.index(self.count)
        except TypeError:
            raise ValueError(
                f"axis count must be an integer, got {self.count!r}"
            ) from None
        if count < 2:
            raise ValueError("axis count must be at least 2")
        object.__setattr__(self, "start", float(self.start))
        object.__setattr__(self, "stop", float(self.stop))
        object.__setattr__(self, "count", count)

    def values(self) -> list[float]:
        step = (self.stop - self.start) / (self.count - 1)
        vals = [self.start + i * step for i in range(self.count)]
        vals[0] = self.start
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
    lle_renorm_interval: float = 1.0
    lle_horizon: float = 500.0
    lle_transient: float = 50.0

    def __post_init__(self) -> None:
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
        return (*self._axis_names, *self._task_columns, "error")

    # Per-spec dispatch data, computed once per spec rather than per cell
    # (rebuilding the axis values per cell made a sweep quadratic in the
    # axis length).  Cached properties are not dataclass fields, so the
    # sweep's JSON is unchanged.
    @functools.cached_property
    def _axis_values(self) -> tuple[tuple[float, ...], ...]:
        return tuple(tuple(ax.values()) for ax in self.axes)

    @functools.cached_property
    def _axis_names(self) -> tuple[str, ...]:
        return tuple(ax.name for ax in self.axes)

    @functools.cached_property
    def _task_columns(self) -> tuple[str, ...]:
        return tuple(c for task in self.tasks for c in _TASK_COLUMNS[task])

    # A cell's six parameter floats are picked from this template, the
    # base's values in field order followed by the cell's axis values:
    # field k is the value of the axis on parameter k, else the base's.
    @functools.cached_property
    def _base_fields(self) -> tuple[float, ...]:
        return tuple(getattr(self.base, name) for name in PARAM_NAMES)

    @functools.cached_property
    def _pick_fields(self) -> operator.itemgetter:
        slots = list(range(len(PARAM_NAMES)))
        for k, ax in enumerate(self.axes):
            slots[AXIS_NAMES.index(ax.name)] = len(PARAM_NAMES) + k
        return operator.itemgetter(*slots)

    @functools.cached_property
    def _needs_certificate(self) -> bool:
        return "certificate" in self.tasks or "regime" in self.tasks

    def cell_values(self, index: int) -> tuple[float, ...]:
        """Axis values of the row-major cell at flat position ``index``."""
        values = self._axis_values
        if len(values) == 1:
            return (values[0][index],)
        i0, i1 = divmod(index, len(values[1]))
        return (values[0][i0], values[1][i1])


@dataclass(frozen=True)
class SweepResult:
    """The sweep table: one tuple per cell, aligned with ``columns``."""

    spec: SweepSpec
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]


def _run_tasks(spec: SweepSpec, p: SystemParams | tuple[float, ...]) -> tuple:
    """The task columns of one cell, in column order.

    ``p`` is the cell's six parameter floats in field order, or the
    SystemParams built from them when they fail SystemParams' fast test
    (see _evaluate_cell).  The closed forms take the six floats and write
    their columns from plain values (_certificate_columns,
    _equilibrium_parts, _origin_class, _regime), so they build no
    SystemParams and no result object; only the lle task builds a
    SystemParams, for the integrator.  One pass runs the tasks in the
    spec's order, so an error row carries the first task that raises.  A
    cell computes its certificate at most once and its equilibria at most
    once, the latter only when a task reads them; the equilibria,
    certificate and regime tasks share both.  Enum labels are read through
    ``_value_``, which the ``value`` property returns.
    """
    fields = (p.a, p.b, p.c, p.M, p.N, p.P) if isinstance(p, SystemParams) else p
    a, b, c, M, N, P = fields
    columns = None
    if spec._needs_certificate:
        columns = _certificate_columns(a, b, c, M, N, P)
    parts = None
    out: list = []
    for task in spec.tasks:
        if task == "equilibria":
            if parts is None:
                parts = _equilibrium_parts(a, b, c, M, N, P)
            kind, _, pair = parts
            if pair is not None:
                s, z = pair[0], pair[1]
                out += (kind._value_, s, s, z)
            else:
                out += (kind._value_, None, None, None)
        elif task == "origin_class":
            out.append(_origin_class(a, b, c, M, N, P)._value_)
        elif task == "certificate":
            out += columns
        elif task == "regime":
            label, parts = _regime(columns, parts, fields)
            out.append(label._value_)
        elif task == "lle":
            est = largest_lyapunov_exponent(
                SystemParams(a, b, c, M, N, P),
                settings=spec.settings,
                renorm_interval=spec.lle_renorm_interval,
                horizon=spec.lle_horizon,
                transient=spec.lle_transient,
            )
            out.append(est.lambda1)
    return tuple(out)


def _evaluate_cell(args: tuple[SweepSpec, int]) -> tuple:
    """Evaluate one cell; exceptions become the row's error column.

    Fields that pass SystemParams' fast test (six exact floats with a
    finite sum) go to the tasks as they are; others build a SystemParams,
    which coerces them or raises the row's error.
    """
    spec, index = args
    values = spec.cell_values(index)
    fields = spec._pick_fields(spec._base_fields + values)
    try:
        p = fields if _finite_floats(*fields) else SystemParams(*fields)
        return values + _run_tasks(spec, p) + (None,)
    except Exception as exc:  # noqa: BLE001 - error rows must not kill the sweep
        message = f"{type(exc).__name__}: {exc}"
        return values + (None,) * len(spec._task_columns) + (message,)


def run_sweep(spec: SweepSpec, workers: int | None = None) -> SweepResult:
    """Evaluate every cell and assemble the table in grid order.

    ``workers`` = 1 runs inline; None uses one process per CPU if the "lle"
    task is on and runs inline otherwise, as a closed-form cell costs less
    than starting a pool.  No more processes start than there are cells,
    and ``workers`` < 1 raises ValueError.  The output is independent of
    the worker count.  A worker process that dies raises WorkerPoolError.
    """
    n = spec.n_cells()
    if workers is None:
        workers = (os.cpu_count() or 1) if "lle" in spec.tasks else 1
    elif workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    workers = min(workers, n)
    if workers == 1:
        rows = [_evaluate_cell((spec, i)) for i in range(n)]
    else:
        # the pool's modules load only on this path, not with the package
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        chunk = max(1, n // (4 * workers))
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                rows = list(
                    pool.map(
                        _evaluate_cell, ((spec, i) for i in range(n)), chunksize=chunk
                    )
                )
        except BrokenProcessPool as exc:
            axes = " x ".join(
                f"{ax.name}:{ax.start!r}:{ax.stop!r}:{ax.count}" for ax in spec.axes
            )
            raise WorkerPoolError(
                f"a worker process died during the sweep over {axes} "
                f"(tasks {','.join(spec.tasks)})"
            ) from exc
    return SweepResult(spec=spec, columns=spec.columns(), rows=tuple(rows))
