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
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace

from .chaos import _regime, largest_lyapunov_exponent
from .equilibria import classify_origin, find_equilibria
from .errors import WorkerPoolError
from .integrator import IntegratorSettings
from .lyapunov import certificate
from .model import SystemParams

AXIS_NAMES = ("a", "b", "c", "M", "N", "P")

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

TASKS = tuple(_TASK_COLUMNS)


@dataclass(frozen=True)
class SweepAxis:
    """Evenly spaced grid over one parameter.

    Grid point i is start + i * (stop - start) / (count - 1); the first
    and last points hit start and stop exactly.
    """

    name: str
    start: float
    stop: float
    count: int

    def __post_init__(self) -> None:
        if self.name not in AXIS_NAMES:
            raise ValueError(f"axis name must be one of {AXIS_NAMES}, got {self.name!r}")
        if self.count < 2:
            raise ValueError("axis count must be at least 2")

    def values(self) -> list[float]:
        step = (self.stop - self.start) / (self.count - 1)
        vals = [self.start + i * step for i in range(self.count)]
        vals[-1] = float(self.stop)
        return vals


@dataclass(frozen=True)
class SweepSpec:
    """Base parameters, up to two axes, and the tasks to run per cell.

    Every task is deterministic.  The integrator settings and the lle_*
    knobs only matter when the "lle" task is on.
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


def _run_tasks(spec: SweepSpec, p: SystemParams) -> tuple:
    """The task columns of one cell, in column order.

    A cell computes its certificate at most once and its equilibrium set
    at most once, the latter only when a task reads it; the equilibria,
    certificate and regime tasks share both.
    """
    cert = certificate(p) if spec._needs_certificate else None
    eqs = None

    def equilibria():
        nonlocal eqs
        if eqs is None:
            eqs = find_equilibria(p)
        return eqs

    out: list = []
    for task in spec.tasks:
        if task == "equilibria":
            found = equilibria()
            out.append(found.kind.value)
            if found.pair is not None:
                out.extend(found.pair[0].location)
            else:
                out.extend((None, None, None))
        elif task == "origin_class":
            out.append(classify_origin(p).value)
        elif task == "certificate":
            out += (
                cert.flags.lemma_ok,
                cert.flags.conv_ok,
                cert.flags.het_ok,
                cert.no_closed_orbits,
                cert.no_homoclinic,
                cert.converges_to_equilibria,
                cert.heteroclinic_pair,
                cert.chaos_possible,
            )
        elif task == "regime":
            out.append(_regime(cert, equilibria).value)
        elif task == "lle":
            est = largest_lyapunov_exponent(
                p,
                settings=spec.settings,
                renorm_interval=spec.lle_renorm_interval,
                horizon=spec.lle_horizon,
                transient=spec.lle_transient,
            )
            out.append(est.lambda1)
    return tuple(out)


def _evaluate_cell(args: tuple[SweepSpec, int]) -> tuple:
    """Evaluate one cell; exceptions become the row's error column."""
    spec, index = args
    values = spec.cell_values(index)
    try:
        p = replace(spec.base, **dict(zip(spec._axis_names, values)))
        return values + _run_tasks(spec, p) + (None,)
    except Exception as exc:  # noqa: BLE001 - error rows must not kill the sweep
        message = f"{type(exc).__name__}: {exc}"
        return values + (None,) * len(spec._task_columns) + (message,)


def run_sweep(spec: SweepSpec, workers: int | None = None) -> SweepResult:
    """Evaluate every cell and assemble the table in grid order.

    ``workers`` = 1 runs inline; None uses one process per CPU.  Either way
    no more processes start than there are cells, and ``workers`` < 1
    raises ValueError.  The output is independent of the worker count.  A
    worker process that dies raises WorkerPoolError.
    """
    n = spec.n_cells()
    if workers is None:
        workers = os.cpu_count() or 1
    elif workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    workers = min(workers, n)
    if workers == 1:
        rows = [_evaluate_cell((spec, i)) for i in range(n)]
    else:
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
