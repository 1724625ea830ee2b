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
import operator
import sys
from pathlib import Path
from types import NoneType
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


# the text of a float-or-None column rendered with repr, its None set right
# (no float's repr is "None")
_NONE_REPR = {"None": ""}


def _column_texts(column: tuple, axis: bool) -> list[str]:
    """_csv_cell of every value of one column, through C-level ``map``s
    picked by the column's types: exact types, so a subclass, or an int 1
    beside True, takes the generic path.  An ``axis`` column of floats
    repeats each value as one object (see SweepResult), so it forms one
    ``repr`` per object and looks each value up by its ``id``: the rows
    keep every object alive, so distinct objects have distinct ids."""
    kinds = set(map(type, column))
    if kinds <= {bool, str, NoneType}:
        words = {v: _csv_cell(v) for v in set(column)}
        return list(map(words.__getitem__, column))
    if kinds <= {float, NoneType}:
        if axis:
            ids = list(map(id, column))
            objects = dict(zip(ids, column))
            words = dict(zip(objects, map(repr, objects.values())))
            texts = list(map(words.__getitem__, ids))
        else:
            texts = list(map(repr, column))
        return list(map(_NONE_REPR.get, texts, texts)) if NoneType in kinds else texts
    return list(map(_csv_cell, column))


def sweep_csv(result: SweepResult) -> str:
    """The sweep table as CSV: the header row, then one line per row.

    The table is rendered a column at a time (see _column_texts), and each
    line is its row's texts joined.  The first ``len(result.spec.axes)``
    columns are the axis columns, whose floats are rendered once per
    object.  A column whose values are the very objects of the column
    before it (E+'s y and x) reuses that column's texts.  Rows of unequal
    length, which only a hand-built result has, are rendered row by row.
    """
    rows = result.rows
    widths = set(map(len, rows))
    if len(widths) > 1 or 0 in widths:  # zip(*rows) would drop empty rows
        lines = [",".join(map(_csv_cell, row)) for row in rows]
    else:
        n_axes = len(result.spec.axes)
        texts: list[list[str]] = []
        prev: tuple = ()
        for k, column in enumerate(zip(*rows)):
            if prev and all(map(operator.is_, column, prev)):
                texts.append(texts[-1])
            else:
                texts.append(_column_texts(column, k < n_axes))
            prev = column
        lines = list(map(",".join, zip(*texts)))
    return "\n".join([",".join(result.columns), *lines]) + "\n"


def emit(result: Any, format: str = "json", destination: str | Path | None = None) -> str:
    """Render ``result`` and write it to ``destination`` (stdout if None).

    Returns the rendered text.  Raises UnsupportedFormatError for unknown
    formats or for CSV on a result type with no tabular layout.
    """
    if format == "json":
        # a non-finite float that reaches dumps raises ValueError
        text = json.dumps(to_jsonable(result), indent=2, allow_nan=False) + "\n"
    elif format == "csv":
        # only a tabular result loads the module that defines it
        from .integrator import Trajectory

        if isinstance(result, Trajectory):
            text = trajectory_csv(result)
        else:
            from .sweep import SweepResult

            if not isinstance(result, SweepResult):
                raise UnsupportedFormatError(
                    f"csv is not defined for {type(result).__name__}; use json"
                )
            text = sweep_csv(result)
    else:
        raise UnsupportedFormatError(f"unknown format {format!r}; available: {FORMATS}")
    if destination is None:
        sys.stdout.write(text)
    else:
        with open(destination, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return text
