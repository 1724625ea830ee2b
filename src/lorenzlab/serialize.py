"""Serialization of result objects to JSON and CSV.

JSON is available for every result type; CSV is defined only where a flat
table exists (trajectories and sweep results).  Floats are rendered with
``repr``, the shortest digit string that round-trips to the same double,
so emitted files are reproducible byte for byte and lossless to re-parse.
CSV uses comma separators, LF line endings, a header row and no quoting.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any

from .errors import UnsupportedFormatError
from .model import State

if TYPE_CHECKING:
    from .integrator import Trajectory
    from .sweep import SweepResult

FORMATS = ("json", "csv")


def to_jsonable(obj: Any) -> Any:
    """Recursively convert result objects to plain JSON-ready data.

    Conventions: State -> {"x", "y", "z"}; complex -> [re, im]; enums ->
    their string value; dataclasses -> field dicts, of the attributes a
    class names in ``_json_fields`` where it has one (Trajectory renders
    its ``states``, not its columns); a non-finite float ->
    its ``repr`` string ("inf", "-inf" or "nan"), as in the CSV, since
    JSON has no such number.
    """
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(float(obj))
    if isinstance(obj, State):
        return dict(zip("xyz", map(to_jsonable, obj)))
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, complex):
        return [to_jsonable(obj.real), to_jsonable(obj.imag)]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        names = getattr(obj, "_json_fields", None) or [
            f.name for f in dataclasses.fields(obj)
        ]
        return {name: to_jsonable(getattr(obj, name)) for name in names}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _csv_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, int):
        return str(value)
    text = str(value)
    # the dialect has no quoting; keep cells delimiter- and newline-free
    return text.replace(",", ";").replace("\n", " ")


def trajectory_csv(trajectory: Trajectory) -> str:
    lines = ["t,x,y,z"]
    for t, x, y, z in zip(trajectory.times, trajectory.xs, trajectory.ys, trajectory.zs):
        lines.append(f"{t!r},{x!r},{y!r},{z!r}")
    return "\n".join(lines) + "\n"


# _csv_cell's text for the three constants of a sweep row
_CSV_WORDS = {None: "", True: "true", False: "false"}


def sweep_csv(result: SweepResult) -> str:
    """The sweep table as CSV: the header row, then one line per row.

    Each grid value's text is formed once per call, not once per cell: a
    dict maps the ``id`` of each of the spec's axis floats to its ``repr``,
    and a row's float is looked up by its own ``id``.  The lookup is
    exact, because the spec (which the result holds) keeps those floats
    alive, and live objects have distinct ids: a hit is that very float.
    An inline run_sweep's rows hit on their axis values; any other float
    misses and is written with ``repr``, so pooled, reordered or
    hand-built rows render as before.  A float that is the same object as
    the float before it (E+'s x and y) reuses that float's text.  The dict
    is built in each call and holds one text per axis point, never one per
    cell.
    """
    # _csv_cell inlined for the types a sweep row holds (an int equal to
    # True or False is not one of the constants, so those are told by identity)
    words = _CSV_WORDS
    grid_text = {id(v): repr(v) for axis in result.spec._axis_values for v in axis}.get
    prev = text = None
    lines = [",".join(result.columns)]
    for row in result.rows:
        lines.append(",".join([
            (text if v is prev else (text := grid_text(id(prev := v)) or repr(v)))
            if type(v) is float
            else words[v] if v is None or v is True or v is False
            else v.replace(",", ";").replace("\n", " ") if type(v) is str
            else _csv_cell(v)
            for v in row
        ]))
    return "\n".join(lines) + "\n"


def emit(result: Any, format: str = "json", destination: str | Path | None = None) -> str:
    """Render ``result`` and write it to ``destination`` (stdout if None).

    Returns the rendered text.  Raises UnsupportedFormatError for unknown
    formats or for CSV on a result type with no tabular layout.
    """
    if format == "json":
        # a non-finite float that reaches dumps raises ValueError
        text = json.dumps(to_jsonable(result), indent=2, allow_nan=False) + "\n"
    elif format == "csv":
        # only a tabular result loads the modules that define one
        from .integrator import Trajectory
        from .sweep import SweepResult

        if isinstance(result, Trajectory):
            text = trajectory_csv(result)
        elif isinstance(result, SweepResult):
            text = sweep_csv(result)
        else:
            raise UnsupportedFormatError(
                f"csv is not defined for {type(result).__name__}; use json"
            )
    else:
        raise UnsupportedFormatError(f"unknown format {format!r}; available: {FORMATS}")
    if destination is None:
        sys.stdout.write(text)
    else:
        with open(destination, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return text
