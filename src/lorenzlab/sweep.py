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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

from .chaos import largest_lyapunov_exponent, regime_classify
from .equilibria import classify_origin, find_equilibria
from .integrator import IntegratorSettings
from .lyapunov import certificate
from .model import SystemParams

AXIS_NAMES = ("a", "b", "c", "M", "N", "P")

TASKS = ("equilibria", "origin_class", "certificate", "regime", "lle")

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
        cols = [ax.name for ax in self.axes]
        for task in self.tasks:
            cols.extend(_TASK_COLUMNS[task])
        cols.append("error")
        return tuple(cols)

    @functools.cached_property
    def _axis_values(self) -> tuple[tuple[float, ...], ...]:
        # once per spec, not per cell, which made a sweep quadratic in the axis length
        return tuple(tuple(ax.values()) for ax in self.axes)

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


def _run_tasks(spec: SweepSpec, p: SystemParams) -> dict:
    out: dict = {}
    for task in spec.tasks:
        if task == "equilibria":
            eqs = find_equilibria(p)
            out["equilibria_kind"] = eqs.kind.value
            if eqs.pair is not None:
                loc = eqs.pair[0].location
                out["e_plus_x"], out["e_plus_y"], out["e_plus_z"] = loc
            else:
                out["e_plus_x"] = out["e_plus_y"] = out["e_plus_z"] = None
        elif task == "origin_class":
            out["origin_class"] = classify_origin(p).value
        elif task == "certificate":
            report = certificate(p)
            out["lemma_ok"] = report.flags.lemma_ok
            out["conv_ok"] = report.flags.conv_ok
            out["het_ok"] = report.flags.het_ok
            out["no_closed_orbits"] = report.no_closed_orbits
            out["no_homoclinic"] = report.no_homoclinic
            out["converges_to_equilibria"] = report.converges_to_equilibria
            out["heteroclinic_pair"] = report.heteroclinic_pair
            out["chaos_possible"] = report.chaos_possible
        elif task == "regime":
            out["regime"] = regime_classify(p).value
        elif task == "lle":
            est = largest_lyapunov_exponent(
                p,
                settings=spec.settings,
                renorm_interval=spec.lle_renorm_interval,
                horizon=spec.lle_horizon,
                transient=spec.lle_transient,
            )
            out["lle"] = est.lambda1
    return out


def _evaluate_cell(args: tuple[SweepSpec, int]) -> tuple:
    """Evaluate one cell; exceptions become the row's error column."""
    spec, index = args
    values = spec.cell_values(index)
    task_cols = [c for task in spec.tasks for c in _TASK_COLUMNS[task]]
    try:
        p = replace(spec.base, **dict(zip((ax.name for ax in spec.axes), values)))
        out = _run_tasks(spec, p)
        return tuple(values) + tuple(out[c] for c in task_cols) + (None,)
    except Exception as exc:  # noqa: BLE001 - error rows must not kill the sweep
        message = f"{type(exc).__name__}: {exc}"
        return tuple(values) + (None,) * len(task_cols) + (message,)


def run_sweep(spec: SweepSpec, workers: int | None = None) -> SweepResult:
    """Evaluate every cell and assemble the table in grid order.

    ``workers`` = 1 runs inline; None uses one process per CPU, capped by
    the cell count.  The output is independent of the worker count.
    """
    n = spec.n_cells()
    if workers is None:
        import os

        workers = min(os.cpu_count() or 1, n)
    if workers <= 1 or n == 1:
        rows = [_evaluate_cell((spec, i)) for i in range(n)]
    else:
        chunk = max(1, n // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(
                pool.map(_evaluate_cell, ((spec, i) for i in range(n)), chunksize=chunk)
            )
    return SweepResult(spec=spec, columns=spec.columns(), rows=tuple(rows))
